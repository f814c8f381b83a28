//! The parallel execution core: strategy selection, the per-PU thread
//! fan-out, and the per-run block-cost memo.
//!
//! Algorithm 2 is parallel by construction — within a super-block step the
//! `N` processing units touch pairwise-distinct source and destination
//! intervals. The engine exploits that here: each PU's block work is a pure
//! function of the iteration-start snapshot, so the PU outcomes can be
//! computed on any number of OS threads and *reduced in fixed PU order*,
//! making every [`RunReport`](crate::stats::RunReport) bit-identical to the
//! sequential path regardless of thread count or interleaving.

use crate::schedule::SuperBlockSchedule;
use hyve_graph::GridGraph;

/// How a [`SimulationSession`](crate::session::SimulationSession) executes
/// the per-PU work of each iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecutionStrategy {
    /// One OS thread; PUs run in index order.
    #[default]
    Sequential,
    /// Fan the per-PU work out over up to `threads` OS threads via
    /// `std::thread::scope`. Results are reduced in fixed PU order, so any
    /// thread count — including 1 — produces output bit-identical to
    /// [`Sequential`](ExecutionStrategy::Sequential).
    Parallel {
        /// Worker thread cap; must be ≥ 1.
        threads: usize,
    },
}

impl ExecutionStrategy {
    /// Worker threads this strategy uses for `tasks` independent tasks.
    pub(crate) fn worker_threads(self, tasks: usize) -> usize {
        match self {
            ExecutionStrategy::Sequential => 1,
            ExecutionStrategy::Parallel { threads } => threads.max(1).min(tasks.max(1)),
        }
    }
}

/// Runs `f(i, &mut states[i])` for every state under `strategy` — the
/// deterministic fan-out primitive everything else builds on. Per-PU
/// scratch buffers survive across iterations this way: the engine
/// allocates them once per run and lends each worker exclusive access to
/// its own slot, instead of collecting freshly-allocated outputs every
/// iteration. `f` must be pure with respect to `(i, state)`; states are
/// disjoint, so any thread interleaving leaves the same data in the same
/// slots, and the caller's reduction order (fixed slot order) never
/// depends on scheduling.
pub(crate) fn fan_out_mut<S, F>(strategy: ExecutionStrategy, states: &mut [S], f: F)
where
    S: Send,
    F: Fn(usize, &mut S) + Sync,
{
    let tasks = states.len();
    let workers = strategy.worker_threads(tasks);
    if workers <= 1 || tasks <= 1 {
        for (i, state) in states.iter_mut().enumerate() {
            f(i, state);
        }
        return;
    }
    let chunk = tasks.div_ceil(workers);
    let f = &f;
    std::thread::scope(|scope| {
        for (c, state_chunk) in states.chunks_mut(chunk).enumerate() {
            scope.spawn(move || {
                for (i, state) in state_chunk.iter_mut().enumerate() {
                    f(c * chunk + i, state);
                }
            });
        }
    });
}

/// Per-run static-cost memo over the block grid.
///
/// Algorithm 2's schedule is a pure function of `(P, N)`, and every
/// iteration walks exactly the same blocks — so the per-PU block lists and
/// the per-step synchronisation cost (each step costs its *largest* block)
/// are computed once per run and reused by both the functional pass (every
/// iteration) and the cost pass. Only non-empty blocks are listed: an empty
/// block does no work and costs a step nothing, so the plan is
/// O(non-empty blocks + P) to build and hold, not O(P²).
#[derive(Debug, Clone)]
pub(crate) struct BlockPlan {
    /// For each PU, the indices (into [`GridGraph::blocks`]) of its
    /// non-empty blocks in schedule order (sy → sx → step).
    pu_blocks: Vec<Vec<u32>>,
    /// Σ over steps of the step's maximum block edge count — the
    /// synchronised processing cost of one iteration, in edges.
    sync_edges: u64,
}

impl BlockPlan {
    /// Builds the memo from the grid's block index — its non-empty blocks'
    /// ids and edge ranges and its column index; no edge is read — in one
    /// pass over the blocks, with no division per block.
    ///
    /// At (sy, sx, step) PU `pu` owns the block
    /// (sx·N + (pu+step) mod N, sy·N + pu): it owns the destination
    /// intervals ≡ pu (mod N), in ascending order, and within each super
    /// block takes the sources rotated to start at local index `pu`. The
    /// grid stores its blocks column-major, so each destination's column is
    /// already a contiguous run of the block list, sources ascending:
    /// rotating each super block's stretch of that run gives every PU its
    /// list in schedule order.
    pub(crate) fn build(grid: &GridGraph, schedule: &SuperBlockSchedule) -> Self {
        let n = schedule.pus() as usize;
        let p = schedule.intervals() as usize;
        let columns = grid.column_starts();
        // Each source interval's super-block base, s − s mod N.
        let bases: Vec<u32> = (0..p as u32)
            .step_by(n)
            .flat_map(|base| std::iter::repeat_n(base, n))
            .collect();
        // PU d mod N walks column d; size each list exactly.
        let mut pu_blocks: Vec<Vec<u32>> = (0..n)
            .map(|pu| {
                let len = (pu..p).step_by(n).map(|d| columns[d + 1] - columns[d]);
                Vec::with_capacity(len.sum::<u32>() as usize)
            })
            .collect();

        // Block (s, d) runs in step (s − d) mod N of super block
        // (d/N, s/N). One super-block row — N columns — at a time, keep
        // each step's maximum in a P-slot scratch keyed by (sx, step), and
        // sum the slots it touched (max and sum on u64 are exact in any
        // order).
        let mut sync_edges = 0;
        let mut step_max = vec![0u64; p];
        let mut touched = Vec::new();
        // A super block's sources below local index `pu`, which its PU
        // takes after the rest.
        let mut wrapped = Vec::with_capacity(n);
        for (d, pu) in (0..p).zip((0..n).cycle()) {
            let list = &mut pu_blocks[pu];
            let mut run = u32::MAX;
            for b in columns[d]..columns[d + 1] {
                let (id, range) = grid.block(b as usize);
                let base = bases[id.src as usize];
                if base != run {
                    list.append(&mut wrapped);
                    run = base;
                }
                let local = (id.src - base) as usize;
                let step = if local < pu {
                    wrapped.push(b);
                    local + n - pu
                } else {
                    list.push(b);
                    local - pu
                };
                let slot = base as usize + step;
                if step_max[slot] == 0 {
                    touched.push(slot);
                }
                step_max[slot] = step_max[slot].max(range.len() as u64);
            }
            list.append(&mut wrapped);
            if pu == n - 1 {
                for slot in touched.drain(..) {
                    sync_edges += std::mem::take(&mut step_max[slot]);
                }
            }
        }
        BlockPlan {
            pu_blocks,
            sync_edges,
        }
    }

    /// Number of PUs the plan covers.
    pub(crate) fn num_pus(&self) -> usize {
        self.pu_blocks.len()
    }

    /// The non-empty blocks PU `pu` executes, in schedule order, as indices
    /// into [`GridGraph::blocks`].
    pub(crate) fn blocks(&self, pu: usize) -> &[u32] {
        &self.pu_blocks[pu]
    }

    /// Σ over steps of the step's maximum block edge count.
    pub(crate) fn sync_edges(&self) -> u64 {
        self.sync_edges
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyve_graph::{DatasetProfile, Edge, EdgeList};

    #[test]
    fn fan_out_mut_updates_every_slot_in_place_for_any_thread_count() {
        for strategy in [
            ExecutionStrategy::Sequential,
            ExecutionStrategy::Parallel { threads: 1 },
            ExecutionStrategy::Parallel { threads: 3 },
            ExecutionStrategy::Parallel { threads: 16 },
        ] {
            let mut states: Vec<Vec<usize>> = (0..9).map(|i| vec![i]).collect();
            fan_out_mut(strategy, &mut states, |i, s| s.push(i * i));
            for (i, s) in states.iter().enumerate() {
                assert_eq!(s, &vec![i, i * i], "slot {i} under {strategy:?}");
            }
            let mut one = vec![7];
            fan_out_mut(strategy, &mut one, |i, s| *s += i + 1);
            assert_eq!(one, vec![8], "single slot under {strategy:?}");
            let mut empty: Vec<u8> = Vec::new();
            fan_out_mut(strategy, &mut empty, |_, _| unreachable!());
        }
    }

    /// Checks the plan for `grid` against a walk of Algorithm 2's schedule.
    fn assert_plan_matches_schedule(grid: &GridGraph, n: u32) {
        let p = grid.num_intervals();
        let schedule = SuperBlockSchedule::new(p, n).unwrap();
        let plan = BlockPlan::build(grid, &schedule);
        assert_eq!(plan.num_pus(), n as usize);

        // Each PU's list is the schedule's order, filtered to the
        // non-empty blocks.
        let mut want = vec![Vec::new(); n as usize];
        for (_, assignments) in schedule.iter() {
            for a in assignments {
                if grid.block_len(a.src_interval, a.dst_interval) > 0 {
                    want[a.pu as usize].push((a.src_interval, a.dst_interval));
                }
            }
        }
        for (pu, want) in want.iter().enumerate() {
            let ids = plan.blocks(pu).iter().map(|&b| grid.block(b as usize).0);
            let got: Vec<_> = ids.map(|id| (id.src, id.dst)).collect();
            assert_eq!(&got, want, "P={p} N={n} PU {pu}");
        }
        let listed: usize = (0..plan.num_pus()).map(|pu| plan.blocks(pu).len()).sum();
        assert_eq!(listed, grid.non_empty_blocks());

        // The sync cost matches a direct scan over the schedule.
        let direct: u64 = schedule
            .iter()
            .map(|(_, assignments)| {
                assignments
                    .iter()
                    .map(|a| grid.block_len(a.src_interval, a.dst_interval) as u64)
                    .max()
                    .unwrap_or(0)
            })
            .sum();
        assert_eq!(plan.sync_edges(), direct, "P={p} N={n}");
    }

    #[test]
    fn plan_matches_schedule_iteration() {
        let graph = DatasetProfile::youtube_scaled().generate(3);
        let cases = [
            // One tally bucket per block (P² ≤ E), N = 1..8, N ∤ 2^k.
            (16, 4),
            (24, 3),
            (8, 8),
            (7, 1),
            (40, 8),
            (35, 5),
            // One bucket per destination column (P² > E).
            (240, 8),
            (243, 3),
            (300, 5),
        ];
        for (p, n) in cases {
            let grid = GridGraph::partition(&graph, p).unwrap();
            assert_plan_matches_schedule(&grid, n);
        }

        // Edges only into vertices 16..32 of 64: whole super-block rows
        // are empty, on both partition paths (P² ≤ E = 124 for P = 8).
        let edges = (0..64u32)
            .flat_map(|s| [Edge::new(s, 16 + s * 7 % 16), Edge::new(s, 16 + s * 3 % 16)])
            .filter(|e| e.src != e.dst);
        let sparse = EdgeList::from_edges(64, edges).unwrap();
        assert_eq!(sparse.len(), 124);
        for (p, n) in [(8, 4), (32, 4), (32, 8), (24, 3)] {
            let grid = GridGraph::partition(&sparse, p).unwrap();
            assert!(grid.column_starts().windows(2).any(|w| w[0] == w[1]));
            assert_plan_matches_schedule(&grid, n);
        }
    }
}
