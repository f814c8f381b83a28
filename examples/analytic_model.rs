//! The §6 analytic model as a design tool: EDP decomposition, the
//! Cauchy–Schwarz bound, the DRAM/ReRAM comparisons of Figs. 9–10 and the
//! §6.6 hierarchy recommender.
//!
//! ```sh
//! cargo run --release --example analytic_model
//! ```

use hyve::memsim::{
    DramChip, DramChipConfig, Energy, MemoryDevice, ReramChip, ReramChipConfig, Time,
};
use hyve::model::general::{CostTerm, GraphWorkload, ModelCosts};
use hyve::model::{compare_edge_storage, recommend, AccessPattern, Objective, WorkloadShape};

fn main() {
    // A LiveJournal-sized workload, one PR iteration.
    let workload = GraphWorkload {
        seq_vertex_reads: 4_850_000 * 19, // (P/N)·Nv with P = 152
        seq_vertex_writes: 4_850_000,
        edge_reads: 69_000_000,
    };

    // Per-operation costs straight from the device models.
    let reram = ReramChip::new(ReramChipConfig::default());
    let dram = DramChip::new(DramChipConfig::default());
    let costs = ModelCosts {
        seq_vertex_read: CostTerm::new(dram.burst_period() / 8.0, dram.read_energy(64)),
        seq_vertex_write: CostTerm::new(
            dram.sequential_write_period() / 8.0,
            dram.write_energy(64),
        ),
        rand_vertex_read: CostTerm::new(Time::from_ps(960.0), Energy::from_pj(23.84)),
        rand_vertex_write: CostTerm::new(Time::from_ps(557.0), Energy::from_pj(24.74)),
        edge_read: CostTerm::new(reram.burst_period() / 8.0, reram.read_energy(64)),
        processing: CostTerm::new(Time::from_ns(1.5), Energy::from_pj(3.7)),
    };

    println!("== Eq. (1)/(2): one PR iteration on LJ-sized inputs ==");
    println!("execution time : {}", costs.execution_time(&workload));
    println!("energy         : {}", costs.energy(&workload));
    println!("EDP            : {}", costs.edp(&workload));
    println!(
        "Eq. (6) bound  : {} ({}% of achieved)",
        costs.edp_lower_bound(&workload),
        (100.0 * costs.edp_lower_bound(&workload).as_pj_ns() / costs.edp(&workload).as_pj_ns())
            .round(),
    );

    println!("\n== Fig. 9: DRAM/ReRAM as edge storage (4 Gb) ==");
    for pattern in AccessPattern::all() {
        let c = compare_edge_storage(4, pattern);
        println!(
            "{pattern:?}: delay {:.2}, energy {:.2}, EDP {:.2}",
            c.delay_ratio, c.energy_ratio, c.edp_ratio
        );
    }

    println!("\n== §6.6 recommender ==");
    let shape = WorkloadShape {
        num_vertices: 4_850_000,
        num_edges: 69_000_000,
        partitions: 152,
        pus: 8,
        navg: 1.49,
        density_gbit: 4,
    };
    for objective in [Objective::Energy, Objective::Latency] {
        let r = recommend(&shape, objective);
        println!(
            "{objective:?}: edges={}, global vertices={}, local vertices={}, processing={}",
            r.edge_storage, r.global_vertex, r.local_vertex, r.processing
        );
    }
}
