//! Cross-validation: the §6 analytic model and the phase-level simulator
//! must agree where their abstractions overlap.
//!
//! The model predicts totals from operation counts and per-operation device
//! costs; the simulator derives the same counts from a concrete grid. On a
//! single-super-block workload (P = N) the mapping is exact enough to bound
//! the gap tightly; the off-chip vertex counts of Eqs. 7 and 8 match
//! exactly at any number of super blocks.

use hyve::algorithms::{EdgeProgram, PageRank, SpMv};
use hyve::core::{SimulationSession, SystemConfig};
use hyve::graph::{DatasetProfile, GridGraph};
use hyve::memsim::{MemoryDevice, SramArray, SramConfig};
use hyve::model::general::{CostTerm, GraphWorkload, ModelCosts};

/// Builds a sequential session; all configurations here are statically valid.
fn session(cfg: SystemConfig) -> SimulationSession {
    SimulationSession::builder(cfg)
        .build()
        .expect("valid config")
}

#[test]
fn model_energy_tracks_simulator_on_chip_dynamic_energy() {
    // One SpMV pass (one iteration, no convergence ambiguity).
    let graph = DatasetProfile::youtube_scaled().generate(5);
    let engine = session(SystemConfig::hyve().with_dataset_scale(1)); // P = 8
    let program = SpMv::new();
    let report = engine.run_on_edge_list(&program, &graph).unwrap();
    assert_eq!(report.intervals, 8, "want a single super block");

    // Rebuild the model's counts from first principles.
    let ne = graph.len() as u64;
    let nv = u64::from(graph.num_vertices());
    let p = u64::from(report.intervals);
    let workload = GraphWorkload {
        seq_vertex_reads: nv * (p / 8) + nv, // src (Eq. 8) + dst loads
        seq_vertex_writes: nv,               // Eq. 7
        edge_reads: ne,
    };

    // Per-operation costs from the same devices the engine instantiated.
    let sram = SramArray::new(SramConfig::with_capacity_mb(2));
    let costs = ModelCosts {
        rand_vertex_read: CostTerm::new(sram.word_read_latency(), sram.word_read_energy()),
        rand_vertex_write: CostTerm::new(sram.word_write_latency(), sram.word_write_energy()),
        ..ModelCosts::default()
    };

    // The model's local-vertex term (2 reads + 1 write per edge) must equal
    // the simulator's per-edge on-chip dynamic energy.
    let model_local = costs.rand_vertex_read.energy * (2 * workload.random_vertex_reads()) as f64
        + costs.rand_vertex_write.energy * workload.random_vertex_writes() as f64;
    let sim_onchip = report.breakdown.onchip_vertex.dynamic_energy;
    // The simulator additionally charges interval fills and the accumulate
    // apply pass, so it must be strictly larger but within ~2.5×.
    assert!(
        sim_onchip >= model_local,
        "{sim_onchip:?} vs {model_local:?}"
    );
    assert!(
        sim_onchip.as_pj() < 2.5 * model_local.as_pj(),
        "simulator on-chip {} vs model {}",
        sim_onchip,
        model_local
    );
}

#[test]
fn model_edge_term_matches_simulator_edge_stream() {
    let graph = DatasetProfile::wiki_talk_scaled().generate(5);
    let engine = session(SystemConfig::hyve().with_dataset_scale(1));
    let program = SpMv::new();
    let report = engine.run_on_edge_list(&program, &graph).unwrap();

    let reram = hyve::memsim::ReramChip::new(hyve::memsim::ReramChipConfig::default());
    let grid = GridGraph::partition(&graph, report.intervals).unwrap();
    let predicted = reram.read_energy(grid.edge_storage_bits());
    let simulated = report.breakdown.edge_memory.dynamic_energy;
    let rel = (predicted.as_pj() - simulated.as_pj()).abs() / simulated.as_pj();
    assert!(
        rel < 1e-9,
        "edge stream energies must agree exactly, rel {rel}"
    );
}

#[test]
fn eq1_pipelining_bounds_simulator_processing_time() {
    // Eq. (1): per-edge pipelined time = max of the stage times. The
    // simulator's processing phase must be at least Ne × bottleneck / N
    // (N PUs in parallel) and at most a few × that (block imbalance).
    let graph = DatasetProfile::as_skitter_scaled().generate(5);
    let cfg = SystemConfig::hyve().with_dataset_scale(1);
    let n = f64::from(cfg.num_pus);
    let engine = session(cfg);
    let program = SpMv::new();
    let report = engine.run_on_edge_list(&program, &graph).unwrap();

    let sram = SramArray::new(SramConfig::with_capacity_mb(2));
    let words = f64::from(program.value_bits().div_ceil(32));
    let dst_stage = (sram.word_read_latency() + sram.word_write_latency()) * words;
    let bottleneck = dst_stage.max(hyve::memsim::Time::from_ns(1.5));
    let lower = bottleneck * (graph.len() as f64 / n);
    let processing = report.phases.processing;
    assert!(
        processing >= lower * 0.99,
        "processing {processing:?} below Eq. 1 bound {lower:?}"
    );
    assert!(
        processing < lower * 6.0,
        "processing {processing:?} implausibly above bound {lower:?} — imbalance blowup"
    );
}

#[test]
fn eq7_eq8_offchip_vertex_counts_match_past_one_super_block() {
    // Eq. 8: each of the P/N super-block rows streams every source
    // interval once with data sharing, so sources cost nv·P/N reads; without
    // sharing each of the N PUs loads its own copy, nv·P. Destinations are
    // read once and written back once (Eq. 7) either way.
    let graph = DatasetProfile::youtube_scaled().generate(5);
    let program = PageRank::new(3);
    let nv = u64::from(graph.num_vertices());
    let value_bits = u64::from(program.value_bits());
    for p in [8, 16, 24] {
        let grid = GridGraph::partition(&graph, p).unwrap();
        let p = u64::from(p);
        for sharing in [true, false] {
            let cfg = SystemConfig::hyve().with_data_sharing(sharing);
            let n = u64::from(cfg.num_pus);
            assert_eq!(n, 8);
            let report = session(cfg).run(&program, &grid).unwrap();
            assert_eq!(report.iterations, 3);
            let per_value = value_bits * u64::from(report.iterations);
            let source_reads = if sharing { nv * p / n } else { nv * p };
            let offchip = report.breakdown.offchip_vertex;
            let case = format!("P = {p}, sharing {sharing}");
            assert_eq!(offchip.bits_read, (nv + source_reads) * per_value, "{case}");
            assert_eq!(offchip.bits_written, nv * per_value, "{case}");
        }
    }
}
