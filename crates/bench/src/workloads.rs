//! Shared workload construction: datasets, algorithms and run helpers.

use hyve_algorithms::{Bfs, ConnectedComponents, EdgeProgram, PageRank, SpMv, Sssp};
use hyve_core::{ExecutionStrategy, RunReport, SimulationSession, SystemConfig};
use hyve_graph::{DatasetProfile, EdgeList, GridGraph, VertexId};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Seed used for every generated dataset so all experiments see the same
/// graphs.
pub const SEED: u64 = 2018;

static FULL_DATASETS: OnceLock<Vec<(DatasetProfile, EdgeList)>> = OnceLock::new();
static SMALL_DATASETS: OnceLock<Vec<(DatasetProfile, EdgeList)>> = OnceLock::new();

/// The five evaluation graphs in Table 2's order. Set `HYVE_BENCH_SMALL=1`
/// to restrict to the three smaller graphs for quick iterations.
///
/// Generated once per process and memoized: the 17 experiment modules (and
/// `all_experiments`, which runs them back to back) all see the same cached
/// slice instead of regenerating identical R-MAT graphs per call. The small
/// and full sets cache independently, so toggling `HYVE_BENCH_SMALL`
/// mid-process (as tests do) stays correct.
pub fn datasets() -> &'static [(DatasetProfile, EdgeList)] {
    let (cell, profiles) = if std::env::var_os("HYVE_BENCH_SMALL").is_some() {
        (&SMALL_DATASETS, DatasetProfile::all_small())
    } else {
        (&FULL_DATASETS, DatasetProfile::all())
    };
    cell.get_or_init(move || {
        profiles
            .into_iter()
            .map(|p| {
                let g = p.generate(SEED);
                (p, g)
            })
            .collect()
    })
}

/// Key of the grid-partition cache: (dataset tag, interval count `P`).
type GridKey = (&'static str, u32);

/// Grid-partition cache: dataset content per tag is fixed (every profile is
/// generated with [`SEED`]), so `(tag, P)` uniquely identifies a partition.
static GRIDS: OnceLock<Mutex<HashMap<GridKey, Arc<GridGraph>>>> = OnceLock::new();

/// The memoized `P`-interval partition of a benchmark dataset. Experiments
/// that run the same `(dataset, P)` pair — every algorithm × configuration
/// sweep does — share one grid instead of re-partitioning per run.
pub fn partitioned_grid(profile: &DatasetProfile, graph: &EdgeList, p: u32) -> Arc<GridGraph> {
    let cache = GRIDS.get_or_init(|| Mutex::new(HashMap::new()));
    let mut map = cache.lock().expect("grid cache poisoned");
    map.entry((profile.tag, p))
        .or_insert_with(|| {
            Arc::new(GridGraph::partition(graph, p).expect("benchmark grid partitions"))
        })
        .clone()
}

/// Applies the profile's scale factor to a configuration.
pub fn configure(cfg: SystemConfig, profile: &DatasetProfile) -> SystemConfig {
    cfg.with_dataset_scale(profile.scale)
}

/// The execution strategy all experiments run under. Set
/// `HYVE_BENCH_THREADS=<n>` to fan the per-PU work out over `n` OS threads;
/// results are bit-identical either way.
pub fn strategy() -> ExecutionStrategy {
    match std::env::var("HYVE_BENCH_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
    {
        Some(threads) if threads > 1 => ExecutionStrategy::Parallel { threads },
        _ => ExecutionStrategy::Sequential,
    }
}

/// Builds a validated session for `cfg` under the benchmark
/// [`strategy`]. All experiment configurations are statically valid, so
/// construction failure is a bug worth aborting on.
pub fn session(cfg: SystemConfig) -> SimulationSession {
    SimulationSession::builder(cfg)
        .strategy(strategy())
        .build()
        .expect("benchmark configuration is valid")
}

/// The three core algorithms of the main evaluation (§7.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// PageRank, 10 iterations.
    Pr,
    /// Breadth-first search from vertex 0.
    Bfs,
    /// Connected components.
    Cc,
    /// Single-source shortest paths (GraphR comparison, §7.4.3).
    Sssp,
    /// Sparse matrix–vector multiplication (GraphR comparison, §7.4.3).
    SpMv,
}

impl Algorithm {
    /// The main-evaluation trio.
    pub fn core_three() -> [Algorithm; 3] {
        [Algorithm::Bfs, Algorithm::Cc, Algorithm::Pr]
    }

    /// The five algorithms of the GraphR comparison.
    pub fn all_five() -> [Algorithm; 5] {
        [
            Algorithm::Bfs,
            Algorithm::Cc,
            Algorithm::Pr,
            Algorithm::Sssp,
            Algorithm::SpMv,
        ]
    }

    /// Display tag matching the paper's figures.
    pub fn tag(self) -> &'static str {
        match self {
            Algorithm::Pr => "PR",
            Algorithm::Bfs => "BFS",
            Algorithm::Cc => "CC",
            Algorithm::Sssp => "SSSP",
            Algorithm::SpMv => "SpMV",
        }
    }

    /// Runs this algorithm on a HyVE simulation session, reusing the
    /// memoized [`partitioned_grid`] for this dataset instead of
    /// re-partitioning the edge list on every run.
    pub fn run_hyve(
        self,
        session: &SimulationSession,
        profile: &DatasetProfile,
        graph: &EdgeList,
    ) -> RunReport {
        fn cached<P: EdgeProgram>(
            session: &SimulationSession,
            profile: &DatasetProfile,
            graph: &EdgeList,
            program: &P,
        ) -> RunReport {
            let p = session.plan_intervals(program, graph.num_vertices());
            let grid = partitioned_grid(profile, graph, p);
            session.run(program, &grid).expect("engine run failed")
        }
        match self {
            Algorithm::Pr => cached(session, profile, graph, &PageRank::new(10)),
            Algorithm::Bfs => cached(session, profile, graph, &Bfs::new(VertexId::new(0))),
            Algorithm::Cc => cached(session, profile, graph, &ConnectedComponents::new()),
            Algorithm::Sssp => cached(session, profile, graph, &Sssp::new(VertexId::new(0))),
            Algorithm::SpMv => cached(session, profile, graph, &SpMv::new()),
        }
    }

    /// Runs this algorithm on the GraphR engine.
    pub fn run_graphr(self, engine: &hyve_graphr::GraphrEngine, graph: &EdgeList) -> RunReport {
        match self {
            Algorithm::Pr => engine.run(&PageRank::new(10), graph),
            Algorithm::Bfs => engine.run(&Bfs::new(VertexId::new(0)), graph),
            Algorithm::Cc => engine.run(&ConnectedComponents::new(), graph),
            Algorithm::Sssp => engine.run(&Sssp::new(VertexId::new(0)), graph),
            Algorithm::SpMv => engine.run(&SpMv::new(), graph),
        }
        .expect("GraphR run failed")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn datasets_are_deterministic_and_memoized() {
        std::env::set_var("HYVE_BENCH_SMALL", "1");
        let a = datasets();
        let b = datasets();
        // Repeated calls return the same cached slice, not a regeneration.
        assert!(std::ptr::eq(a, b));
        assert_eq!(a.len(), b.len());
        for ((pa, ga), (pb, gb)) in a.iter().zip(b.iter()) {
            assert_eq!(pa.tag, pb.tag);
            assert_eq!(ga, gb);
        }
    }

    #[test]
    fn grids_are_partitioned_once_per_dataset_and_p() {
        std::env::set_var("HYVE_BENCH_SMALL", "1");
        let (profile, graph) = &datasets()[0];
        let a = partitioned_grid(profile, graph, 8);
        let b = partitioned_grid(profile, graph, 8);
        assert!(Arc::ptr_eq(&a, &b), "same (tag, P) must share one grid");
        let wider = partitioned_grid(profile, graph, 16);
        assert!(!Arc::ptr_eq(&a, &wider));
        assert_eq!(a.num_intervals(), 8);
        assert_eq!(wider.num_intervals(), 16);
        assert_eq!(a.num_edges(), graph.len() as u64);
    }

    #[test]
    fn algorithm_tags() {
        assert_eq!(
            Algorithm::core_three().map(|a| a.tag()),
            ["BFS", "CC", "PR"]
        );
        assert_eq!(Algorithm::all_five().len(), 5);
    }
}
