//! The [`EdgeProgram`] abstraction and a plain in-memory executor.
//!
//! §2.1 of the paper reduces GAS to the edge-centric loop of Algorithm 1:
//! stream edges, update each destination from its source. Concrete
//! algorithms differ only in
//!
//! * how vertex values are initialised,
//! * what a source "sends" along an edge ([`EdgeProgram::scatter`]),
//! * how messages combine at the destination ([`EdgeProgram::merge`]) —
//!   a sum for PR/SpMV, a min for BFS/CC/SSSP,
//! * whether merged values overwrite in place (monotone) or are folded in
//!   at iteration end ([`EdgeProgram::apply`], accumulate mode),
//! * and when to stop ([`IterationBound`]).
//!
//! Execution engines (HyVE, GraphR, CPU baselines) drive the same trait and
//! only differ in what each step *costs*.

use hyve_graph::{Edge, EdgeList, VertexId};

/// Static facts about the graph that programs may consult.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphMeta {
    /// Number of vertices.
    pub num_vertices: u32,
    /// Number of edges.
    pub num_edges: u64,
    /// Out-degree of every vertex (PR divides rank by it).
    pub out_degrees: Vec<u32>,
}

impl GraphMeta {
    /// Gathers metadata from an edge list.
    pub fn from_edge_list(g: &EdgeList) -> Self {
        GraphMeta {
            num_vertices: g.num_vertices(),
            num_edges: g.len() as u64,
            out_degrees: g.out_degrees(),
        }
    }

    /// Gathers metadata from a raw edge slice with an explicit vertex count.
    pub fn from_edges(num_vertices: u32, edges: &[Edge]) -> Self {
        let mut deg = vec![0u32; num_vertices as usize];
        for e in edges {
            deg[e.src.index()] += 1;
        }
        GraphMeta {
            num_vertices,
            num_edges: edges.len() as u64,
            out_degrees: deg,
        }
    }
}

/// How destination updates combine across an iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutionMode {
    /// Messages accumulate into a per-iteration scratch array that
    /// [`EdgeProgram::apply`] folds into the value at iteration end (PR, SpMV).
    Accumulate,
    /// Messages merge into the live value immediately; convergence is
    /// "no value changed this iteration" (BFS, CC, SSSP).
    ///
    /// ## Invariants monotone programs must uphold
    ///
    /// Engines optimise monotone execution (dirty-interval skipping,
    /// re-merging already-absorbed messages) on the strength of these
    /// properties, and the results are only guaranteed correct — and
    /// bit-identical across optimisation toggles — when they hold:
    ///
    /// * [`EdgeProgram::merge`] is a **semilattice join**: idempotent
    ///   (`merge(a, a) == a`), commutative and associative — `min` for
    ///   BFS/CC/SSSP. Idempotence is what makes re-delivering a message a
    ///   no-op, so an engine may skip work it can prove was already
    ///   absorbed.
    /// * [`EdgeProgram::scatter`] is **monotone** in the source value with
    ///   respect to the join order (an unchanged source re-sends an
    ///   identical message).
    /// * Values stay **self-equal** under `PartialEq`. An IEEE NaN violates
    ///   this (`NaN != NaN`); a convergence check comparing old and new
    ///   values would then see change forever and spin to the
    ///   [`IterationBound`] cap. Engines guard against it — a value that is
    ///   not equal to itself never registers as changed — so a NaN-emitting
    ///   program terminates instead of spinning, but its output is
    ///   unspecified beyond that.
    Monotone,
}

/// Iteration policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IterationBound {
    /// Run exactly this many iterations (paper: PR runs 10).
    Fixed(u32),
    /// Run until no change, with a safety cap.
    Converge {
        /// Upper bound on iterations.
        max: u32,
    },
}

impl IterationBound {
    /// The maximum number of iterations this bound permits.
    pub fn max_iterations(self) -> u32 {
        match self {
            IterationBound::Fixed(n) => n,
            IterationBound::Converge { max } => max,
        }
    }
}

/// An edge-centric vertex program (paper Algorithm 1).
///
/// `Sync` is required so the engine can share one program instance across
/// the worker threads of a parallel
/// [`ExecutionStrategy`](../hyve_core/exec/enum.ExecutionStrategy.html).
pub trait EdgeProgram: Sync {
    /// Vertex value type.
    type Value: Copy + PartialEq + std::fmt::Debug + Send + Sync;

    /// Human-readable algorithm name ("PR", "BFS", ...).
    fn name(&self) -> &'static str;

    /// Whether updates accumulate or merge monotonically in place.
    fn mode(&self) -> ExecutionMode;

    /// Iteration policy.
    fn bound(&self) -> IterationBound;

    /// Width of one stored vertex value in bits (drives memory traffic).
    fn value_bits(&self) -> u32;

    /// Initial value of vertex `v`.
    fn init(&self, v: VertexId, meta: &GraphMeta) -> Self::Value;

    /// Identity element of [`merge`](Self::merge) — the accumulator's
    /// starting value (0 for sums, ∞ for mins).
    fn identity(&self) -> Self::Value;

    /// Message a source value sends along an edge.
    fn scatter(&self, src: Self::Value, edge: &Edge, meta: &GraphMeta) -> Self::Value;

    /// Combines a message into the destination's current/accumulated value.
    fn merge(&self, current: Self::Value, message: Self::Value) -> Self::Value;

    /// Folds the iteration's accumulator into the previous value
    /// (accumulate mode only; monotone programs never see this call).
    fn apply(
        &self,
        v: VertexId,
        acc: Self::Value,
        prev: Self::Value,
        meta: &GraphMeta,
    ) -> Self::Value;

    /// True if edges should also propagate dst → src (undirected semantics;
    /// connected components needs this on a directed edge list).
    fn undirected(&self) -> bool {
        false
    }

    /// True when messages scattered from an identity-valued source are
    /// absorbed by any destination:
    ///
    /// `merge(x, scatter(identity(), e, meta)) == x` for every `x` and `e`.
    ///
    /// Only consulted for [`ExecutionMode::Monotone`] programs. When it
    /// holds, an engine may start its first sweep with only the intervals
    /// whose initial values differ from the identity marked dirty — sources
    /// still at the identity provably send no effectual messages — which
    /// turns iteration 1 of a single-source program (BFS, SSSP) into a
    /// near-empty pass. Results stay bit-identical; opting in falsely
    /// (e.g. a merge that propagates NaN messages) silently corrupts runs,
    /// so the default is `false`.
    fn scatter_absorbs_identity(&self) -> bool {
        false
    }

    /// True when the per-edge update is arithmetic (multiply/add, as in PR,
    /// SSSP, SpMV) rather than a comparison (BFS, CC). Engines use this to
    /// pick the CMOS operator energy (§6.4: 3.7 pJ float multiply vs a much
    /// cheaper comparator).
    fn arithmetic(&self) -> bool {
        true
    }
}

/// Result of a plain in-memory run.
#[derive(Debug, Clone, PartialEq)]
pub struct InMemoryRun<V> {
    /// Final vertex values.
    pub values: Vec<V>,
    /// Iterations actually executed.
    pub iterations: u32,
}

/// Whether `new` counts as a change against `old` for convergence and
/// dirty-interval tracking, in every executor. A value that is not equal to
/// itself (an IEEE NaN escaping a user [`EdgeProgram`]) never registers:
/// counting NaN as "changed" would hold `changed` true forever and spin
/// every converge-bound run to its iteration cap (see the `Monotone`
/// invariants on [`ExecutionMode`]).
#[allow(clippy::eq_op)]
pub fn registers_change<V: PartialEq>(old: &V, new: &V) -> bool {
    new != old && new == new
}

/// Runs a program over raw edges with no cost model — the functional
/// semantics every engine must agree with.
///
/// ```
/// use hyve_algorithms::{run_in_memory, Bfs, GraphMeta};
/// use hyve_graph::{Edge, VertexId};
///
/// let edges = [Edge::new(0, 1), Edge::new(1, 2)];
/// let meta = GraphMeta::from_edges(3, &edges);
/// let run = run_in_memory(&Bfs::new(VertexId::new(0)), &edges, &meta);
/// assert_eq!(run.values, vec![0, 1, 2]);
/// ```
pub fn run_in_memory<P: EdgeProgram>(
    program: &P,
    edges: &[Edge],
    meta: &GraphMeta,
) -> InMemoryRun<P::Value> {
    let n = meta.num_vertices as usize;
    let mut values: Vec<P::Value> = (0..meta.num_vertices)
        .map(|v| program.init(VertexId::new(v), meta))
        .collect();
    let bound = program.bound();
    let mut iterations = 0;

    for _ in 0..bound.max_iterations() {
        iterations += 1;
        let mut changed = false;
        match program.mode() {
            ExecutionMode::Accumulate => {
                let mut acc = vec![program.identity(); n];
                for e in edges {
                    let msg = program.scatter(values[e.src.index()], e, meta);
                    acc[e.dst.index()] = program.merge(acc[e.dst.index()], msg);
                    if program.undirected() {
                        let msg = program.scatter(values[e.dst.index()], &e.reversed(), meta);
                        acc[e.src.index()] = program.merge(acc[e.src.index()], msg);
                    }
                }
                for v in 0..n {
                    let new = program.apply(VertexId::new(v as u32), acc[v], values[v], meta);
                    changed |= registers_change(&values[v], &new);
                    values[v] = new;
                }
            }
            ExecutionMode::Monotone => {
                for e in edges {
                    let msg = program.scatter(values[e.src.index()], e, meta);
                    let merged = program.merge(values[e.dst.index()], msg);
                    if registers_change(&values[e.dst.index()], &merged) {
                        values[e.dst.index()] = merged;
                        changed = true;
                    }
                    if program.undirected() {
                        let msg = program.scatter(values[e.dst.index()], &e.reversed(), meta);
                        let merged = program.merge(values[e.src.index()], msg);
                        if registers_change(&values[e.src.index()], &merged) {
                            values[e.src.index()] = merged;
                            changed = true;
                        }
                    }
                }
            }
        }
        if let IterationBound::Converge { .. } = bound {
            if !changed {
                break;
            }
        }
    }

    InMemoryRun { values, iterations }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy accumulate program: each vertex sums its in-neighbours' ids.
    struct SumIds;
    impl EdgeProgram for SumIds {
        type Value = u64;
        fn name(&self) -> &'static str {
            "SumIds"
        }
        fn mode(&self) -> ExecutionMode {
            ExecutionMode::Accumulate
        }
        fn bound(&self) -> IterationBound {
            IterationBound::Fixed(1)
        }
        fn value_bits(&self) -> u32 {
            64
        }
        fn init(&self, v: VertexId, _: &GraphMeta) -> u64 {
            u64::from(v.raw())
        }
        fn identity(&self) -> u64 {
            0
        }
        fn scatter(&self, src: u64, _: &Edge, _: &GraphMeta) -> u64 {
            src
        }
        fn merge(&self, a: u64, b: u64) -> u64 {
            a + b
        }
        fn apply(&self, _: VertexId, acc: u64, _: u64, _: &GraphMeta) -> u64 {
            acc
        }
    }

    #[test]
    fn accumulate_mode_sums_messages() {
        let edges = [Edge::new(1, 0), Edge::new(2, 0), Edge::new(0, 2)];
        let meta = GraphMeta::from_edges(3, &edges);
        let run = run_in_memory(&SumIds, &edges, &meta);
        assert_eq!(run.values, vec![3, 0, 0]); // v0 <- 1 + 2; v2 <- 0
        assert_eq!(run.iterations, 1);
    }

    #[test]
    fn fixed_bound_runs_exactly_n() {
        struct TwoIter;
        impl EdgeProgram for TwoIter {
            type Value = u64;
            fn name(&self) -> &'static str {
                "TwoIter"
            }
            fn mode(&self) -> ExecutionMode {
                ExecutionMode::Accumulate
            }
            fn bound(&self) -> IterationBound {
                IterationBound::Fixed(2)
            }
            fn value_bits(&self) -> u32 {
                64
            }
            fn init(&self, _: VertexId, _: &GraphMeta) -> u64 {
                1
            }
            fn identity(&self) -> u64 {
                0
            }
            fn scatter(&self, src: u64, _: &Edge, _: &GraphMeta) -> u64 {
                src
            }
            fn merge(&self, a: u64, b: u64) -> u64 {
                a + b
            }
            fn apply(&self, _: VertexId, acc: u64, _: u64, _: &GraphMeta) -> u64 {
                acc + 1
            }
        }
        let edges = [Edge::new(0, 1)];
        let meta = GraphMeta::from_edges(2, &edges);
        let run = run_in_memory(&TwoIter, &edges, &meta);
        assert_eq!(run.iterations, 2);
    }

    #[test]
    fn meta_from_edges_matches_edge_list() {
        let edges = [Edge::new(0, 1), Edge::new(0, 2), Edge::new(2, 1)];
        let list = EdgeList::from_edges(3, edges).unwrap();
        let a = GraphMeta::from_edge_list(&list);
        let b = GraphMeta::from_edges(3, &edges);
        assert_eq!(a, b);
        assert_eq!(a.out_degrees, vec![2, 0, 1]);
    }

    #[test]
    fn nan_values_never_register_as_changed() {
        assert!(registers_change(&1.0f32, &2.0));
        assert!(!registers_change(&1.0f32, &1.0));
        assert!(!registers_change(&1.0f32, &f32::NAN));
        assert!(!registers_change(&f32::NAN, &f32::NAN));
        // NaN as the *old* value still lets a real value land.
        assert!(registers_change(&f32::NAN, &1.0));
    }

    #[test]
    fn nan_message_does_not_spin_monotone_run_to_its_cap() {
        // A min whose merge lets NaN in (f32::min would drop it). Vertex 0
        // starts at NaN, so every edge out of it carries a NaN message.
        struct NanMin;
        impl EdgeProgram for NanMin {
            type Value = f32;
            fn name(&self) -> &'static str {
                "NanMin"
            }
            fn mode(&self) -> ExecutionMode {
                ExecutionMode::Monotone
            }
            fn bound(&self) -> IterationBound {
                IterationBound::Converge { max: 50 }
            }
            fn value_bits(&self) -> u32 {
                32
            }
            fn init(&self, v: VertexId, _: &GraphMeta) -> f32 {
                if v.raw() == 0 {
                    f32::NAN
                } else {
                    f32::INFINITY
                }
            }
            fn identity(&self) -> f32 {
                f32::INFINITY
            }
            fn scatter(&self, src: f32, _: &Edge, _: &GraphMeta) -> f32 {
                src + 1.0
            }
            fn merge(&self, cur: f32, msg: f32) -> f32 {
                if msg.is_nan() || msg < cur {
                    msg
                } else {
                    cur
                }
            }
            fn apply(&self, _: VertexId, acc: f32, _: f32, _: &GraphMeta) -> f32 {
                acc
            }
        }
        let edges = [Edge::new(0, 1), Edge::new(1, 2)];
        let meta = GraphMeta::from_edges(3, &edges);
        let run = run_in_memory(&NanMin, &edges, &meta);
        assert_eq!(
            run.iterations, 1,
            "a NaN message must not count as a change"
        );
        assert_eq!(run.values[1..], [f32::INFINITY, f32::INFINITY]);
    }

    #[test]
    fn bound_max_iterations() {
        assert_eq!(IterationBound::Fixed(10).max_iterations(), 10);
        assert_eq!(IterationBound::Converge { max: 99 }.max_iterations(), 99);
    }
}
