//! PageRank as an edge-centric program.
//!
//! The paper runs PR for a fixed 10 iterations (§7.1). Each iteration is a
//! full accumulate pass: every source sends `rank / out_degree` along each
//! out-edge; destinations sum, then apply the damping equation
//! `(1 − d)/N + d · Σ`.

use crate::program::{EdgeProgram, ExecutionMode, GraphMeta, IterationBound};
use hyve_graph::{Edge, VertexId};

/// PageRank with damping factor [`PageRank::DAMPING`].
///
/// ```
/// use hyve_algorithms::{run_in_memory, GraphMeta, PageRank};
/// use hyve_graph::Edge;
///
/// // A 2-cycle splits rank evenly.
/// let edges = [Edge::new(0, 1), Edge::new(1, 0)];
/// let meta = GraphMeta::from_edges(2, &edges);
/// let run = run_in_memory(&PageRank::new(20), &edges, &meta);
/// assert!((run.values[0] - 0.5).abs() < 1e-3);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PageRank {
    iterations: u32,
    tolerance: Option<f32>,
}

impl PageRank {
    /// The damping factor `d`.
    pub const DAMPING: f32 = 0.85;

    /// Creates a PageRank program running a fixed number of iterations.
    pub fn new(iterations: u32) -> Self {
        PageRank {
            iterations,
            tolerance: None,
        }
    }

    /// Switches from the paper's fixed-iteration schedule to convergence
    /// detection: an iteration that moves no vertex's rank by more than
    /// `tolerance` is the last one, and the iteration count becomes a cap.
    /// A cap too tight for the requested tolerance surfaces as a
    /// `MaxIterationsExceeded` session error carrying the partial report
    /// (a `tolerance` of `0.0` demands an exact fixed point, which real
    /// graphs do not reach in a few iterations — the error path's natural
    /// test input).
    ///
    /// # Panics
    ///
    /// Panics when `tolerance` is negative or NaN.
    pub fn with_tolerance(mut self, tolerance: f32) -> Self {
        assert!(tolerance >= 0.0, "tolerance must be non-negative");
        self.tolerance = Some(tolerance);
        self
    }
}

impl Default for PageRank {
    /// The paper's configuration: 10 iterations, damping 0.85.
    fn default() -> Self {
        PageRank::new(10)
    }
}

impl EdgeProgram for PageRank {
    type Value = f32;

    fn name(&self) -> &'static str {
        "PR"
    }

    fn mode(&self) -> ExecutionMode {
        ExecutionMode::Accumulate
    }

    fn bound(&self) -> IterationBound {
        match self.tolerance {
            Some(_) => IterationBound::Converge {
                max: self.iterations,
            },
            None => IterationBound::Fixed(self.iterations),
        }
    }

    /// A stored PR vertex carries its rank *and* its out-degree (the
    /// scatter divides by it), so the memory record is two 32-bit words —
    /// the "wider vertex" the paper credits for PR's larger data-sharing
    /// benefit (§7.3.1).
    fn value_bits(&self) -> u32 {
        64
    }

    fn init(&self, _v: VertexId, meta: &GraphMeta) -> f32 {
        1.0 / meta.num_vertices as f32
    }

    fn identity(&self) -> f32 {
        0.0
    }

    fn scatter(&self, src: f32, edge: &Edge, meta: &GraphMeta) -> f32 {
        let deg = meta.out_degrees[edge.src.index()];
        if deg == 0 {
            0.0
        } else {
            src / deg as f32
        }
    }

    fn merge(&self, current: f32, message: f32) -> f32 {
        current + message
    }

    fn apply(&self, _v: VertexId, acc: f32, prev: f32, meta: &GraphMeta) -> f32 {
        let next = (1.0 - Self::DAMPING) / meta.num_vertices as f32 + Self::DAMPING * acc;
        match self.tolerance {
            // Holding the previous rank when the step is within tolerance
            // makes "no vertex changed" exactly the convergence criterion
            // the engine's changed-flag already detects.
            Some(tol) if (next - prev).abs() <= tol => prev,
            _ => next,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::run_in_memory;

    #[test]
    fn star_graph_concentrates_rank() {
        // 1,2,3 all point at 0.
        let edges = [Edge::new(1, 0), Edge::new(2, 0), Edge::new(3, 0)];
        let meta = GraphMeta::from_edges(4, &edges);
        let run = run_in_memory(&PageRank::new(15), &edges, &meta);
        assert!(run.values[0] > run.values[1]);
        assert!((run.values[1] - run.values[2]).abs() < 1e-9);
    }

    #[test]
    fn chain_ranks_monotone() {
        let edges = [Edge::new(0, 1), Edge::new(1, 2)];
        let meta = GraphMeta::from_edges(3, &edges);
        let run = run_in_memory(&PageRank::default(), &edges, &meta);
        assert_eq!(run.iterations, 10);
        // End of the chain receives the most accumulated rank... actually
        // the tail receives from a damped source, middle from the head:
        assert!(run.values[2] > run.values[0]);
    }

    #[test]
    fn ranks_stay_positive_and_bounded() {
        let edges = [Edge::new(0, 1), Edge::new(1, 0), Edge::new(1, 2)];
        let meta = GraphMeta::from_edges(3, &edges);
        let run = run_in_memory(&PageRank::default(), &edges, &meta);
        for &r in &run.values {
            assert!(r > 0.0 && r < 1.0);
        }
    }

    #[test]
    fn default_is_paper_config() {
        let pr = PageRank::default();
        assert_eq!(pr.bound(), IterationBound::Fixed(10));
        assert_eq!(pr.name(), "PR");
        assert_eq!(pr.value_bits(), 64);
        assert_eq!(pr.mode(), ExecutionMode::Accumulate);
    }

    #[test]
    fn tolerance_switches_to_convergence_bound() {
        let pr = PageRank::new(50).with_tolerance(1e-6);
        assert_eq!(pr.bound(), IterationBound::Converge { max: 50 });
    }

    #[test]
    fn loose_tolerance_converges_before_the_cap() {
        let edges = [Edge::new(0, 1), Edge::new(1, 0)];
        let meta = GraphMeta::from_edges(2, &edges);
        let run = run_in_memory(&PageRank::new(50).with_tolerance(1e-4), &edges, &meta);
        assert!(run.iterations < 50, "converged in {} iters", run.iterations);
        assert!((run.values[0] - 0.5).abs() < 1e-3);
    }

    #[test]
    fn zero_tolerance_runs_to_the_cap() {
        // A cycle converges only geometrically, so an exact fixed point is
        // out of reach and the convergence bound degenerates to the cap.
        let edges = [Edge::new(0, 1), Edge::new(1, 0), Edge::new(1, 2)];
        let meta = GraphMeta::from_edges(3, &edges);
        let run = run_in_memory(&PageRank::new(5).with_tolerance(0.0), &edges, &meta);
        assert_eq!(run.iterations, 5);
    }

    #[test]
    #[should_panic(expected = "tolerance")]
    fn tolerance_validated() {
        let _ = PageRank::new(1).with_tolerance(-1.0);
    }
}
