//! The public entry point to the simulator: a validated, strategy-aware
//! session.
//!
//! [`SimulationSession`] is the simulator: it runs Algorithm 2 (see
//! [`crate::engine`]) over the memory hierarchy it owns. The builder
//! validates the [`SystemConfig`] **once, at build time**, builds the
//! [`HierarchyInstance`] it denotes — every device model constructed
//! exactly once; every later run borrows the same instance and no
//! construction path panics — and selects an [`ExecutionStrategy`]:
//!
//! ```
//! use hyve_core::{ExecutionStrategy, SimulationSession, SystemConfig};
//! use hyve_algorithms::PageRank;
//! use hyve_graph::DatasetProfile;
//!
//! # fn main() -> Result<(), hyve_core::CoreError> {
//! let graph = DatasetProfile::youtube_scaled().generate(1);
//! let session = SimulationSession::builder(SystemConfig::hyve_opt())
//!     .strategy(ExecutionStrategy::Parallel { threads: 4 })
//!     .build()?;
//! let report = session.run_on_edge_list(&PageRank::new(5), &graph)?;
//! assert!(report.mteps_per_watt() > 0.0);
//! # Ok(())
//! # }
//! ```
//!
//! Determinism guarantee: for a fixed `(config, program, graph)`, every
//! strategy — `Sequential` or `Parallel` with any thread count — produces a
//! bit-identical [`RunReport`] and identical vertex values (see
//! [`crate::exec`] for the reduction argument).

use crate::config::SystemConfig;
use crate::error::CoreError;
use crate::exec::ExecutionStrategy;
use crate::hierarchy::HierarchyInstance;
use crate::pu::ProcessingUnit;
use crate::stats::RunReport;
use crate::trace::{SharedSink, TraceSink};
use hyve_algorithms::EdgeProgram;
use hyve_graph::{EdgeList, GridGraph};
use hyve_memsim::FaultPlan;

/// Builder for a [`SimulationSession`].
///
/// Created by [`SimulationSession::builder`]; finish with
/// [`build`](SessionBuilder::build).
#[derive(Debug, Clone)]
pub struct SessionBuilder {
    config: SystemConfig,
    strategy: ExecutionStrategy,
    dirty_skipping: bool,
    sink: Option<SharedSink>,
    faults: FaultPlan,
}

impl SessionBuilder {
    /// Sets the execution strategy (default: sequential).
    pub fn strategy(mut self, strategy: ExecutionStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Enables or disables dirty-interval skipping for monotone programs
    /// (default: enabled). A pure optimisation toggle: the engine skips
    /// blocks whose source interval saw no change last iteration, and the
    /// semilattice-join semantics make the skip provably bit-identical —
    /// values, iteration counts and [`RunReport`]s are unchanged either
    /// way. Disable it to benchmark the full-rescan path or to cross-check
    /// equivalence (as the proptest suite does).
    pub fn dirty_interval_skipping(mut self, enabled: bool) -> Self {
        self.dirty_skipping = enabled;
        self
    }

    /// Attaches a [`TraceSink`]: every run of the built session feeds it
    /// typed [`TraceEvent`](crate::TraceEvent)s — iteration summaries,
    /// phase times, per-channel ledgers, gating transitions, router
    /// traffic. Tracing is observation-only: reports and values are
    /// bit-identical with or without a sink, and with no sink attached no
    /// event is built (perfbench's `core.trace_overhead` metric times a
    /// traced job against the same job untraced).
    ///
    /// Pass a [`SharedRecorder`](crate::SharedRecorder) clone to collect a
    /// [`TraceArtifact`](crate::TraceArtifact) you can read back after the
    /// run.
    pub fn with_trace(mut self, sink: impl TraceSink + 'static) -> Self {
        self.sink = Some(SharedSink::new(sink));
        self
    }

    /// Injects a deterministic [`FaultPlan`] into every run of the built
    /// session: raw bit errors per channel, ECC correction with its
    /// energy/latency overheads, bounded retry of uncorrectable errors, and
    /// edge-bank sparing for persistent faults. The outcome lands in
    /// [`RunReport::reliability`](crate::RunReport::reliability).
    ///
    /// Fault outcomes are a deterministic function of the plan's seed and
    /// the run's access totals — independent of execution strategy, so the
    /// parallel-equals-sequential guarantee holds for fault runs too. The
    /// default (and [`FaultPlan::none`]) leaves the fault path disabled and
    /// every report bit-identical to a session without this call.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Shorthand for `strategy(ExecutionStrategy::Parallel { threads })`.
    pub fn parallel(self, threads: usize) -> Self {
        self.strategy(ExecutionStrategy::Parallel { threads })
    }

    /// Shorthand for `strategy(ExecutionStrategy::Sequential)`.
    pub fn sequential(self) -> Self {
        self.strategy(ExecutionStrategy::Sequential)
    }

    /// Validates the configuration and strategy, and builds the hierarchy
    /// the configuration and fault plan denote, constructing every device
    /// model once.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] when the [`SystemConfig`] fails
    /// [`SystemConfig::validate`] or [`HierarchyInstance::build`] (power
    /// gating on a DRAM edge memory, device-model validation), the
    /// [`FaultPlan`] fails [`FaultPlan::validate`], or a parallel strategy
    /// requests zero threads. This is the single validation point:
    /// sessions never panic on construction input.
    pub fn build(self) -> Result<SimulationSession, CoreError> {
        self.config.validate()?;
        let hierarchy = HierarchyInstance::build(&self.config, self.faults)?;
        if let ExecutionStrategy::Parallel { threads: 0 } = self.strategy {
            return Err(CoreError::InvalidConfig {
                message: "parallel execution needs at least one thread".into(),
            });
        }
        Ok(SimulationSession {
            config: self.config,
            hierarchy,
            pu: ProcessingUnit::new(),
            strategy: self.strategy,
            dirty_skipping: self.dirty_skipping,
            sink: self.sink,
        })
    }
}

/// A validated simulation session over one [`SystemConfig`]: the
/// configuration, the memory hierarchy built from it, the processing-unit
/// model, and how runs execute and report.
///
/// See the [module docs](self) for the builder workflow and the determinism
/// guarantee, and [`crate::engine`] for the Algorithm 2 run itself.
#[derive(Debug, Clone)]
pub struct SimulationSession {
    pub(crate) config: SystemConfig,
    pub(crate) hierarchy: HierarchyInstance,
    pub(crate) pu: ProcessingUnit,
    pub(crate) strategy: ExecutionStrategy,
    /// Dirty-interval skipping for monotone programs (a pure optimisation:
    /// results are bit-identical either way).
    pub(crate) dirty_skipping: bool,
    pub(crate) sink: Option<SharedSink>,
}

impl SimulationSession {
    /// Starts building a session for `config`.
    pub fn builder(config: SystemConfig) -> SessionBuilder {
        SessionBuilder {
            config,
            strategy: ExecutionStrategy::Sequential,
            dirty_skipping: true,
            sink: None,
            faults: FaultPlan::none(),
        }
    }

    /// The session's configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// The session's execution strategy.
    pub fn strategy(&self) -> ExecutionStrategy {
        self.strategy
    }

    /// The memory hierarchy built from the configuration: every device
    /// model was constructed once at [`build`](SessionBuilder::build) time
    /// and is reused by every run of this session.
    pub fn hierarchy(&self) -> &HierarchyInstance {
        &self.hierarchy
    }

    /// Like [`run_with_values`](Self::run_with_values), returning only the
    /// report.
    ///
    /// # Errors
    ///
    /// Same as [`run_with_values`](Self::run_with_values).
    pub fn run<P: EdgeProgram>(
        &self,
        program: &P,
        grid: &GridGraph,
    ) -> Result<RunReport, CoreError> {
        self.run_with_values(program, grid).map(|(r, _)| r)
    }

    /// Partitions the edge list with the planned interval count and runs.
    ///
    /// # Errors
    ///
    /// Propagates partitioning errors.
    pub fn run_on_edge_list<P: EdgeProgram>(
        &self,
        program: &P,
        graph: &EdgeList,
    ) -> Result<RunReport, CoreError> {
        self.run_on_edge_list_with_values(program, graph)
            .map(|(r, _)| r)
    }

    /// Like [`run_on_edge_list`](Self::run_on_edge_list), also returning
    /// the final vertex values.
    ///
    /// # Errors
    ///
    /// Propagates partitioning errors.
    pub fn run_on_edge_list_with_values<P: EdgeProgram>(
        &self,
        program: &P,
        graph: &EdgeList,
    ) -> Result<(RunReport, Vec<P::Value>), CoreError> {
        let p = self.plan_intervals(program, graph.num_vertices());
        let grid = GridGraph::partition(graph, p)?;
        self.run_with_values(program, &grid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyve_algorithms::{Bfs, PageRank};
    use hyve_graph::{DatasetProfile, VertexId};

    fn graph() -> EdgeList {
        DatasetProfile::youtube_scaled().generate(5)
    }

    #[test]
    fn builder_validates_config_up_front() {
        for bad in [
            SystemConfig::hyve().with_num_pus(0),
            SystemConfig::acc_dram().with_power_gating(true),
        ] {
            assert!(matches!(
                SimulationSession::builder(bad).build(),
                Err(CoreError::InvalidConfig { .. })
            ));
        }
    }

    #[test]
    fn builder_rejects_zero_threads() {
        assert!(matches!(
            SimulationSession::builder(SystemConfig::hyve())
                .parallel(0)
                .build(),
            Err(CoreError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn parallel_report_is_bit_identical_to_sequential() {
        let g = graph();
        let sequential = SimulationSession::builder(SystemConfig::hyve_opt())
            .build()
            .unwrap();
        let (seq_report, seq_values) = sequential
            .run_on_edge_list_with_values(&Bfs::new(VertexId::new(0)), &g)
            .unwrap();
        for threads in [1, 2, 4, 8] {
            let parallel = SimulationSession::builder(SystemConfig::hyve_opt())
                .parallel(threads)
                .build()
                .unwrap();
            let (par_report, par_values) = parallel
                .run_on_edge_list_with_values(&Bfs::new(VertexId::new(0)), &g)
                .unwrap();
            assert_eq!(par_report, seq_report, "threads = {threads}");
            assert_eq!(par_values, seq_values, "threads = {threads}");
        }
    }

    #[test]
    fn fault_plan_none_builds_the_default_session() {
        let g = graph();
        let default = SimulationSession::builder(SystemConfig::hyve_opt())
            .build()
            .unwrap()
            .run_on_edge_list(&PageRank::new(3), &g)
            .unwrap();
        let explicit = SimulationSession::builder(SystemConfig::hyve_opt())
            .with_faults(FaultPlan::none())
            .build()
            .unwrap()
            .run_on_edge_list(&PageRank::new(3), &g)
            .unwrap();
        assert_eq!(default, explicit);
        assert!(explicit.reliability.is_none());
    }

    #[test]
    fn fault_runs_are_bit_identical_across_strategies() {
        let g = graph();
        let plan = FaultPlan::parse("seed=7,reram-ber=2e-5,dram-ber=1e-9,ecc=secded").unwrap();
        let sequential = SimulationSession::builder(SystemConfig::hyve_opt())
            .with_faults(plan.clone())
            .build()
            .unwrap();
        let (seq_report, seq_values) = sequential
            .run_on_edge_list_with_values(&PageRank::new(3), &g)
            .unwrap();
        assert!(seq_report.reliability.is_some());
        for threads in [1, 2, 4, 8] {
            let parallel = SimulationSession::builder(SystemConfig::hyve_opt())
                .with_faults(plan.clone())
                .parallel(threads)
                .build()
                .unwrap();
            let (par_report, par_values) = parallel
                .run_on_edge_list_with_values(&PageRank::new(3), &g)
                .unwrap();
            assert_eq!(par_report, seq_report, "threads = {threads}");
            assert_eq!(par_values, seq_values, "threads = {threads}");
        }
    }

    #[test]
    fn builder_rejects_invalid_fault_plan() {
        let mut plan = FaultPlan::none();
        plan.reram_ber = 2.0;
        assert!(matches!(
            SimulationSession::builder(SystemConfig::hyve())
                .with_faults(plan)
                .build(),
            Err(CoreError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn traced_run_is_bit_identical_and_recorder_matches_report() {
        use crate::trace::{SharedRecorder, TraceChannel, TraceEvent};
        let g = graph();
        let plain = SimulationSession::builder(SystemConfig::hyve_opt())
            .build()
            .unwrap();
        let (plain_report, plain_values) = plain
            .run_on_edge_list_with_values(&Bfs::new(VertexId::new(0)), &g)
            .unwrap();

        let recorder = SharedRecorder::new();
        let traced = SimulationSession::builder(SystemConfig::hyve_opt())
            .with_trace(recorder.clone())
            .build()
            .unwrap();
        let (traced_report, traced_values) = traced
            .run_on_edge_list_with_values(&Bfs::new(VertexId::new(0)), &g)
            .unwrap();
        assert_eq!(traced_report, plain_report, "tracing must not perturb");
        assert_eq!(traced_values, plain_values);

        let a = recorder.artifact();
        match &a.events[0] {
            TraceEvent::RunStart {
                algorithm,
                config,
                intervals,
                ..
            } => {
                assert_eq!(algorithm, plain_report.algorithm);
                assert_eq!(config, plain_report.config);
                assert_eq!(*intervals, plain_report.intervals);
            }
            other => panic!("first event {other:?}"),
        }
        assert_eq!(
            a.run_totals(),
            (plain_report.iterations, plain_report.edges_processed)
        );
        assert!(a.events.contains(&TraceEvent::Phases {
            phases: plain_report.phases
        }));
        assert_eq!(a.channels().count(), 4);
        let (_, edge) = a
            .channels()
            .find(|&(c, _)| c == TraceChannel::EdgeMemory)
            .unwrap();
        assert_eq!(edge, plain_report.breakdown.edge_memory);
        let iterations: Vec<_> = a
            .events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::IterationEnd {
                    iteration,
                    changed,
                    blocks_processed,
                    ..
                } => Some((*iteration, *changed, *blocks_processed)),
                _ => None,
            })
            .collect();
        assert_eq!(iterations.len() as u32, plain_report.iterations);
        // Iterations are 1-based and the last one converged (no change).
        assert_eq!(iterations[0].0, 1);
        assert!(!iterations.last().unwrap().1);
        assert!(iterations[0].2 > 0);
        // hyve_opt gates the edge channel and shares through the router;
        // a fault-free run records no reliability events.
        let has = |f: fn(&TraceEvent) -> bool| a.events.iter().any(f);
        assert!(has(|e| matches!(e, TraceEvent::GatingTransitions { .. })));
        assert!(has(|e| matches!(e, TraceEvent::RouterTraffic { .. })));
        assert!(!has(|e| matches!(
            e,
            TraceEvent::Reliability { .. } | TraceEvent::BankRemap { .. }
        )));
    }

    #[test]
    fn dirty_skipping_shows_up_in_trace_skip_counts() {
        use crate::trace::{SharedRecorder, TraceEvent};
        let g = graph();
        let recorder = SharedRecorder::new();
        let session = SimulationSession::builder(SystemConfig::hyve_opt())
            .with_trace(recorder.clone())
            .build()
            .unwrap();
        session
            .run_on_edge_list(&Bfs::new(VertexId::new(0)), &g)
            .unwrap();
        let skipped: u64 = recorder
            .artifact()
            .events
            .iter()
            .map(|e| match e {
                TraceEvent::IterationEnd { blocks_skipped, .. } => *blocks_skipped,
                _ => 0,
            })
            .sum();
        assert!(skipped > 0, "BFS opts into skipping; some blocks must skip");
    }

    #[test]
    fn accumulate_iterations_count_the_non_empty_blocks_walked() {
        use crate::trace::{SharedRecorder, TraceEvent};
        // The paper's Fig. 1 graph: 11 edges in 9 of the 4×4 blocks.
        let edges = "1 0\n0 7\n2 3\n2 4\n3 4\n3 7\n4 1\n4 5\n6 2\n6 0\n7 1\n";
        let fig1 = hyve_graph::io::parse(edges.as_bytes()).unwrap();
        let grid = GridGraph::partition(&fig1, 4).unwrap();
        let recorder = SharedRecorder::new();
        let session = SimulationSession::builder(SystemConfig::hyve().with_num_pus(2))
            .with_trace(recorder.clone())
            .build()
            .unwrap();
        session.run(&PageRank::new(3), &grid).unwrap();
        let walked: Vec<(u64, u64)> = recorder
            .artifact()
            .events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::IterationEnd {
                    blocks_processed,
                    blocks_skipped,
                    ..
                } => Some((*blocks_processed, *blocks_skipped)),
                _ => None,
            })
            .collect();
        assert_eq!(walked, [(grid.non_empty_blocks() as u64, 0); 3]);
    }
}
