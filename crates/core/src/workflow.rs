//! The dynamic-graph working flow of Fig. 4 / §5: a host manages graph
//! mutations **online** (incremental preprocessing into the grid's reserved
//! space) while the accelerator executes algorithms **offline** over the
//! current snapshot.
//!
//! [`WorkingFlow`] ties the pieces together: it owns a [`DynamicGrid`],
//! forwards mutation requests, tracks when enough has changed that the
//! engine should re-plan its partitioning, and rebuilds the execution grid
//! on demand.

use crate::error::CoreError;
use crate::session::SimulationSession;
use crate::stats::RunReport;
use hyve_algorithms::EdgeProgram;
use hyve_graph::{DynamicGrid, EdgeList, GridGraph, Mutation, MutationOutcome};

/// Online mutation handling + offline analysis over one evolving graph.
///
/// ```
/// use hyve_core::{SystemConfig, WorkingFlow};
/// use hyve_algorithms::DegreeCentrality;
/// use hyve_graph::{Edge, EdgeList, Mutation};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let graph = EdgeList::from_edges(64, (0..32).map(|i| Edge::new(i, i + 32)))?;
/// let mut flow = WorkingFlow::new(SystemConfig::hyve_opt(), &graph)?;
/// flow.apply(Mutation::AddEdge(Edge::new(0, 1)))?;
/// let (report, degrees) = flow.analyze_with_values(&DegreeCentrality::new())?;
/// assert_eq!(degrees[1], 1.0);
/// assert!(report.energy().as_pj() > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct WorkingFlow {
    session: SimulationSession,
    dynamic: DynamicGrid,
    mutations_since_analysis: u64,
}

impl WorkingFlow {
    /// Grid granularity used for the online structure: fine enough that the
    /// §5 O(1) updates stay cheap, independent of the engine's per-run
    /// planning (which re-partitions the live snapshot anyway).
    const ONLINE_INTERVALS: u32 = 256;

    /// Builds the flow from an initial graph.
    ///
    /// # Errors
    ///
    /// Propagates configuration and partitioning errors.
    pub fn new(config: crate::config::SystemConfig, graph: &EdgeList) -> Result<Self, CoreError> {
        let session = SimulationSession::builder(config).build()?;
        let p = Self::ONLINE_INTERVALS.min(graph.num_vertices().max(1));
        let grid = GridGraph::partition(graph, p)?;
        Ok(WorkingFlow {
            session,
            dynamic: DynamicGrid::new(grid, 0.30),
            mutations_since_analysis: 0,
        })
    }

    /// The flow's configuration.
    pub fn config(&self) -> &crate::config::SystemConfig {
        self.session.config()
    }

    /// The memory hierarchy the configuration lowered into (constructed
    /// once, reused by every [`analyze`](Self::analyze) call).
    pub fn hierarchy(&self) -> &crate::hierarchy::HierarchyInstance {
        self.session.hierarchy()
    }

    /// The online dynamic structure.
    pub fn dynamic(&self) -> &DynamicGrid {
        &self.dynamic
    }

    /// Mutations applied since the last offline analysis.
    pub fn mutations_since_analysis(&self) -> u64 {
        self.mutations_since_analysis
    }

    /// Online path: applies one mutation (§5's four request kinds).
    ///
    /// # Errors
    ///
    /// Propagates [`DynamicGrid::apply`] failures (out-of-range vertices,
    /// removing absent edges).
    pub fn apply(&mut self, m: Mutation) -> Result<MutationOutcome, CoreError> {
        let outcome = self.dynamic.apply(m).map_err(CoreError::Graph)?;
        self.mutations_since_analysis += 1;
        Ok(outcome)
    }

    /// Applies a batch of mutations, stopping at the first error.
    ///
    /// # Errors
    ///
    /// The first mutation failure; earlier mutations remain applied.
    pub fn apply_all<I: IntoIterator<Item = Mutation>>(
        &mut self,
        mutations: I,
    ) -> Result<u64, CoreError> {
        let mut applied = 0;
        for m in mutations {
            self.apply(m)?;
            applied += 1;
        }
        Ok(applied)
    }

    /// Offline path: runs a program over the live snapshot (tombstoned
    /// vertices excluded) and returns the cost report.
    ///
    /// # Errors
    ///
    /// Propagates engine errors.
    pub fn analyze<P: EdgeProgram>(&mut self, program: &P) -> Result<RunReport, CoreError> {
        self.analyze_with_values(program).map(|(r, _)| r)
    }

    /// Like [`analyze`](Self::analyze), also returning vertex values.
    ///
    /// # Errors
    ///
    /// Propagates engine errors.
    pub fn analyze_with_values<P: EdgeProgram>(
        &mut self,
        program: &P,
    ) -> Result<(RunReport, Vec<P::Value>), CoreError> {
        let live = self.dynamic.live_edge_list();
        self.mutations_since_analysis = 0;
        self.session.run_on_edge_list_with_values(program, &live)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use hyve_algorithms::{reference, Bfs, DegreeCentrality};
    use hyve_graph::{Csr, Edge, VertexId};

    fn graph() -> EdgeList {
        EdgeList::from_edges(32, (0..31).map(|i| Edge::new(i, i + 1))).unwrap()
    }

    #[test]
    fn online_then_offline_roundtrip() {
        let mut flow = WorkingFlow::new(SystemConfig::hyve_opt(), &graph()).unwrap();
        flow.apply(Mutation::AddEdge(Edge::new(0, 31))).unwrap();
        assert_eq!(flow.mutations_since_analysis(), 1);
        let (_, levels) = flow
            .analyze_with_values(&Bfs::new(VertexId::new(0)))
            .unwrap();
        // The shortcut reaches vertex 31 in one hop now.
        assert_eq!(levels[31], 1);
        assert_eq!(flow.mutations_since_analysis(), 0);
    }

    #[test]
    fn tombstoned_vertices_excluded_from_analysis() {
        let mut flow = WorkingFlow::new(SystemConfig::hyve(), &graph()).unwrap();
        flow.apply(Mutation::RemoveVertex(VertexId::new(1)))
            .unwrap();
        let (_, levels) = flow
            .analyze_with_values(&Bfs::new(VertexId::new(0)))
            .unwrap();
        // The chain is severed at vertex 1: everything past it unreached.
        assert_eq!(levels[0], 0);
        assert!(levels[2..].iter().all(|&l| l == u32::MAX));
    }

    #[test]
    fn batch_apply_counts() {
        let mut flow = WorkingFlow::new(SystemConfig::hyve_opt(), &graph()).unwrap();
        let n = flow
            .apply_all((0..5).map(|i| Mutation::AddEdge(Edge::new(i, 31 - i))))
            .unwrap();
        assert_eq!(n, 5);
        assert_eq!(flow.dynamic().grid().num_edges(), 31 + 5);
    }

    #[test]
    fn batch_apply_stops_at_error() {
        let mut flow = WorkingFlow::new(SystemConfig::hyve_opt(), &graph()).unwrap();
        let result = flow.apply_all([
            Mutation::AddEdge(Edge::new(0, 1)),
            Mutation::RemoveEdge { src: 9, dst: 0 }, // absent
            Mutation::AddEdge(Edge::new(1, 2)),
        ]);
        assert!(result.is_err());
        // The first mutation stuck.
        assert_eq!(flow.dynamic().grid().num_edges(), 32);
    }

    #[test]
    fn analysis_matches_reference_on_evolved_graph() {
        let mut flow = WorkingFlow::new(SystemConfig::hyve_opt(), &graph()).unwrap();
        flow.apply(Mutation::AddEdge(Edge::new(5, 20))).unwrap();
        flow.apply(Mutation::RemoveEdge { src: 10, dst: 11 })
            .unwrap();
        let live = flow.dynamic().live_edge_list();
        let (_, levels) = flow
            .analyze_with_values(&Bfs::new(VertexId::new(0)))
            .unwrap();
        let csr = Csr::from_edge_list(&live);
        assert_eq!(levels, reference::bfs_levels(&csr, VertexId::new(0)));
    }

    #[test]
    fn degree_analysis_sees_live_edges_only() {
        let mut flow = WorkingFlow::new(SystemConfig::hyve(), &graph()).unwrap();
        flow.apply(Mutation::RemoveVertex(VertexId::new(5)))
            .unwrap();
        let (_, deg) = flow.analyze_with_values(&DegreeCentrality::new()).unwrap();
        assert_eq!(deg[5], 0.0, "tombstoned vertex receives nothing");
        assert_eq!(deg[6], 0.0, "edge 5->6 is inert");
        assert_eq!(deg[7], 1.0);
    }
}
