//! The GraphR execution engine: §6's cost equations over 8×8 blocks.
//!
//! Per iteration, every non-empty 8×8 block is processed by (i) writing its
//! edges into a crossbar (the dominant cost — Eq. 14), (ii) reading the
//! matrix-vector result (4 ganged crossbars for 16-bit MV algorithms, 8
//! row-select passes plus a CMOS output operator for non-MV ones —
//! Eq. 11/12), while (iii) register files shuttle 8 source + 8 destination
//! vertex values per block from the ReRAM global memory (Eq. 9).

use hyve_algorithms::{run_in_memory, EdgeProgram, ExecutionMode, GraphMeta};
use hyve_core::hierarchy::EDGE_CHANNEL_CHIPS;
use hyve_core::{CoreError, EnergyBreakdown, PhaseTimes, RunReport};
use hyve_graph::{block_sparsity, EdgeList, SparsityStats};
use hyve_memsim::{MemoryDevice, RegisterFile, ReramChip, ReramChipConfig, Time};
use hyve_model::CrossbarCosts;

/// GraphR's block dimension: 8×8 vertices per crossbar.
pub const BLOCK_DIM: u32 = 8;

/// Parallel graph engines (crossbar clusters) processing blocks, matching
/// HyVE's 8 PUs.
pub const GRAPH_ENGINES: u32 = 8;

/// The GraphR simulator.
///
/// ```
/// use hyve_graphr::GraphrEngine;
/// use hyve_algorithms::PageRank;
/// use hyve_graph::DatasetProfile;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let g = DatasetProfile::youtube_scaled().generate(1);
/// let report = GraphrEngine::new().run(&PageRank::new(5), &g)?;
/// assert!(report.energy().as_pj() > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct GraphrEngine {
    /// GraphR's all-ReRAM memory: global vertex and edge storage.
    reram: ReramChip,
    /// The per-engine register files holding block vertex values.
    regfile: RegisterFile,
}

impl GraphrEngine {
    /// Creates an engine with the paper's GraphR parameters
    /// ([`CrossbarCosts::default`]) and [`GRAPH_ENGINES`] graph engines.
    pub fn new() -> Self {
        GraphrEngine {
            reram: ReramChip::new(ReramChipConfig::default()),
            regfile: RegisterFile::default(),
        }
    }

    /// Runs a program, returning the cost report.
    ///
    /// # Errors
    ///
    /// [`CoreError::Unschedulable`] for empty graphs.
    pub fn run<P: EdgeProgram>(
        &self,
        program: &P,
        graph: &EdgeList,
    ) -> Result<RunReport, CoreError> {
        self.run_with_values(program, graph).map(|(r, _)| r)
    }

    /// Runs a program, returning the report and final vertex values.
    ///
    /// # Errors
    ///
    /// [`CoreError::Unschedulable`] for empty graphs.
    pub fn run_with_values<P: EdgeProgram>(
        &self,
        program: &P,
        graph: &EdgeList,
    ) -> Result<(RunReport, Vec<P::Value>), CoreError> {
        if graph.num_vertices() == 0 {
            return Err(CoreError::Unschedulable {
                message: "graph has no vertices".into(),
            });
        }
        let meta = GraphMeta::from_edge_list(graph);
        let functional = run_in_memory(program, graph.edges(), &meta);
        let sparsity = block_sparsity(graph, BLOCK_DIM);
        let report = self.account(program, graph, &sparsity, functional.iterations);
        Ok((report, functional.values))
    }

    fn account<P: EdgeProgram>(
        &self,
        program: &P,
        graph: &EdgeList,
        sparsity: &SparsityStats,
        iterations: u32,
    ) -> RunReport {
        let c = CrossbarCosts::default();
        let nv = u64::from(graph.num_vertices());
        let ne = graph.len() as u64;
        let neb = sparsity.non_empty_blocks;
        let traversal_factor: u64 = if program.undirected() { 2 } else { 1 };
        let traversals = ne * traversal_factor;
        let value_bits = u64::from(program.value_bits().min(32)); // 16-bit ops, ≤1 word

        let (reram, regfile) = (&self.reram, &self.regfile);
        let mut breakdown = EnergyBreakdown::default();

        // ---- crossbar processing (Eq. 11–16), per iteration -------------
        // Every edge is written into a crossbar; reads amortise per block.
        let is_mv = program.mode() == ExecutionMode::Accumulate;
        let write_energy = c.write_energy * traversals as f64;
        let read_passes = if is_mv {
            f64::from(c.crossbars_per_value)
        } else {
            f64::from(c.row_selects)
        };
        let read_energy = c.read_energy * (neb as f64 * read_passes);
        let op_energy = if is_mv {
            hyve_memsim::Energy::ZERO
        } else {
            c.cmos_op_energy * traversals as f64
        };
        breakdown.logic.record_write(
            traversals * 64,
            write_energy + read_energy + op_energy,
            Time::ZERO,
        );

        // Processing time: writes serialise per engine; one read per block.
        let proc_time = (c.write_latency * traversals as f64 + c.read_latency * neb as f64)
            / f64::from(GRAPH_ENGINES);

        // ---- vertex storage (Eq. 9) --------------------------------------
        // Global ReRAM: 16 sequential vertex reads per non-empty block,
        // Nv writes per iteration.
        let global_read_bits = 16 * neb * value_bits;
        let global_write_bits = nv * value_bits;
        breakdown.offchip_vertex.record_read(
            global_read_bits,
            reram.read_energy(global_read_bits),
            Time::ZERO,
        );
        breakdown.offchip_vertex.record_write(
            global_write_bits,
            reram.write_energy(global_write_bits),
            Time::ZERO,
        );
        let vertex_time = reram.sequential_read_time(global_read_bits)
            + reram.write_latency()
                * (global_write_bits.div_ceil(u64::from(reram.output_bits()))) as f64;

        // Register files: fills per block plus 2 reads + 1 write per edge.
        let rf_fill = regfile.write_energy(value_bits) * (16 * neb) as f64;
        let rf_edge = (regfile.read_energy(value_bits) * 2.0 + regfile.write_energy(value_bits))
            * traversals as f64;
        breakdown
            .onchip_vertex
            .record_write(16 * neb * value_bits, rf_fill + rf_edge, Time::ZERO);

        // ---- edge storage -------------------------------------------------
        // The edge list itself streams out of ReRAM once per iteration to
        // feed the crossbar writes.
        let edge_bits = ne * hyve_graph::Edge::BITS;
        breakdown
            .edge_memory
            .record_read(edge_bits, reram.read_energy(edge_bits), Time::ZERO);

        // ---- iteration time ----------------------------------------------
        // Vertex traffic overlaps crossbar processing; writes dominate.
        let iteration_time = proc_time.max(vertex_time);

        breakdown.scale_by_iterations(iterations);
        let total_time = iteration_time * f64::from(iterations);

        // ---- background ----------------------------------------------------
        // GraphR cannot power-gate: crossbars hold live computation state
        // and the access pattern hops across blocks. Its memory has as many
        // chips as HyVE's edge channel, for a fair background comparison.
        breakdown.edge_memory.record_background(
            reram.background_power() * f64::from(EDGE_CHANNEL_CHIPS) * total_time,
        );

        RunReport {
            algorithm: program.name(),
            config: "GraphR",
            iterations,
            edges_processed: traversals * u64::from(iterations),
            intervals: (graph.num_vertices().div_ceil(BLOCK_DIM)).max(1),
            phases: PhaseTimes {
                loading: Time::ZERO,
                processing: total_time,
                updating: Time::ZERO,
                overhead: Time::ZERO,
            },
            breakdown,
            reliability: None,
        }
    }
}

impl Default for GraphrEngine {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyve_algorithms::{reference, Bfs, ConnectedComponents, PageRank, SpMv, Sssp};
    use hyve_core::{SimulationSession, SystemConfig};
    use hyve_graph::{Csr, DatasetProfile, VertexId};

    fn graph() -> EdgeList {
        DatasetProfile::youtube_scaled().generate(3)
    }

    #[test]
    fn functional_results_match_references() {
        let g = graph();
        let engine = GraphrEngine::new();
        let (_, bfs) = engine
            .run_with_values(&Bfs::new(VertexId::new(0)), &g)
            .unwrap();
        let csr = Csr::from_edge_list(&g);
        assert_eq!(bfs, reference::bfs_levels(&csr, VertexId::new(0)));
        let (_, cc) = engine
            .run_with_values(&ConnectedComponents::new(), &g)
            .unwrap();
        assert_eq!(cc, reference::connected_components(&g));
    }

    #[test]
    fn hyve_beats_graphr_on_energy_and_delay() {
        // The Fig. 21 headline: HyVE ≈5× faster, ≈2.8× less energy.
        let g = graph();
        let hyve = SimulationSession::builder(SystemConfig::hyve_opt())
            .build()
            .unwrap()
            .run_on_edge_list(&PageRank::new(5), &g)
            .unwrap();
        let graphr = GraphrEngine::new().run(&PageRank::new(5), &g).unwrap();
        assert!(graphr.elapsed() > hyve.elapsed(), "HyVE must be faster");
        assert!(graphr.energy() > hyve.energy(), "HyVE must use less energy");
        let energy_ratio = graphr.energy() / hyve.energy();
        let delay_ratio = graphr.elapsed() / hyve.elapsed();
        assert!(
            energy_ratio > 1.5 && energy_ratio < 20.0,
            "energy ratio {energy_ratio}"
        );
        assert!(
            delay_ratio > 1.5 && delay_ratio < 30.0,
            "delay ratio {delay_ratio}"
        );
    }

    #[test]
    fn crossbar_writes_dominate_graphr_energy() {
        let g = graph();
        let report = GraphrEngine::new().run(&PageRank::new(5), &g).unwrap();
        // Logic (crossbar write/read) is the dominant component — the §6.4
        // conclusion about write-heavy crossbar processing.
        let logic = report.breakdown.logic.total_energy();
        assert!(logic / report.energy() > 0.5, "{}", report.breakdown);
    }

    #[test]
    fn all_five_algorithms_run() {
        let g = graph();
        let engine = GraphrEngine::new();
        assert!(engine.run(&PageRank::new(2), &g).is_ok());
        assert!(engine.run(&Bfs::new(VertexId::new(0)), &g).is_ok());
        assert!(engine.run(&ConnectedComponents::new(), &g).is_ok());
        assert!(engine.run(&Sssp::new(VertexId::new(0)), &g).is_ok());
        assert!(engine.run(&SpMv::new(), &g).is_ok());
    }

    #[test]
    fn empty_graph_rejected() {
        let g = EdgeList::new(0);
        assert!(GraphrEngine::new().run(&SpMv::new(), &g).is_err());
    }

    #[test]
    fn non_mv_costs_more_per_block_than_mv() {
        // BFS (row-select path) vs SpMV (MV path) on the same graph, one
        // iteration each: compare per-traversal logic energy.
        let g = graph();
        let spmv = GraphrEngine::new().run(&SpMv::new(), &g).unwrap();
        let bfs = GraphrEngine::new()
            .run(&Bfs::new(VertexId::new(0)).with_max_iterations(1), &g)
            .unwrap();
        let per_edge =
            |r: &RunReport| r.breakdown.logic.dynamic_energy.as_pj() / r.edges_processed as f64;
        assert!(per_edge(&bfs) > per_edge(&spmv));
    }
}
