//! Property-based tests of [`DynamicGrid`]: across arbitrary mutation
//! sequences the maintained `degrees`/`tombstones`/`logical_vertices` stay
//! mutually consistent ([`DynamicGrid::validate`]), the cached
//! [`DynamicGrid::grid`] snapshot never goes stale — it always equals a
//! from-scratch [`DynamicGrid::materialize`] — and every outcome matches a
//! naive per-block model of §5.

use hyve_graph::{
    DynamicGrid, Edge, EdgeList, GridGraph, IntervalPartition, Mutation, MutationOutcome, VertexId,
};
use proptest::prelude::*;
use std::collections::{BTreeMap, HashSet};

fn arb_graph() -> impl Strategy<Value = EdgeList> {
    (8u32..48).prop_flat_map(|nv| {
        proptest::collection::vec((0..nv, 0..nv), 1..120).prop_map(move |pairs| {
            let mut g = EdgeList::new(nv);
            g.extend(pairs.into_iter().map(|(s, d)| Edge::new(s, d)));
            g
        })
    })
}

/// One mutation request: kind selector plus two vertex operands.
type OpSpec = (u8, u32, u32);

/// `spec` as a mutation over `nv` logical vertices; operands may run up to
/// two past the end, so out-of-range requests occur too. Half the requests
/// add edges, half of those among the first four vertices, so a few blocks
/// fill past their slack and link overflow segments again and again.
fn mutation((kind, a, b): OpSpec, nv: u32) -> Mutation {
    let (a, b) = (a % (nv + 2), b % (nv + 2));
    match kind % 8 {
        0 | 1 => Mutation::AddEdge(Edge::new(a, b)),
        2 | 3 => Mutation::AddEdge(Edge::new(a % 4, b % 4)),
        4 | 5 => Mutation::RemoveEdge { src: a, dst: b },
        6 => Mutation::AddVertex,
        _ => Mutation::RemoveVertex(VertexId::new(a)),
    }
}

/// An edge as (src, dst) and a block as (dst interval, src interval).
type Pair = (u32, u32);

/// Non-empty blocks with their edge sequences, column-major.
type Layout = Vec<(Pair, Vec<Pair>)>;

/// §5 by hand: one `Vec` and one reserved capacity per block, keyed by
/// (dst interval, src interval), so a `BTreeMap` walk is column-major.
struct Model {
    p: u32,
    reserve: f64,
    part: IntervalPartition,
    logical: u32,
    slots: u32,
    dead: HashSet<u32>,
    blocks: BTreeMap<Pair, (Vec<Pair>, usize)>,
}

/// §5's 30% slack for a block of `len` edges.
fn slack(len: usize) -> usize {
    (len as f64 * 0.3).ceil() as usize
}

impl Model {
    fn new(g: &EdgeList, p: u32, reserve: f64) -> Self {
        let mut m = Model {
            p,
            reserve,
            part: IntervalPartition::new(g.num_vertices(), p).unwrap(),
            logical: g.num_vertices(),
            slots: 0,
            dead: HashSet::new(),
            blocks: BTreeMap::new(),
        };
        m.lay_out(g.iter().map(|e| (e.src.raw(), e.dst.raw())).collect());
        m
    }

    /// (Re)builds every block from `edges`, materialising all logical
    /// vertices.
    fn lay_out(&mut self, edges: Vec<Pair>) {
        self.part = IntervalPartition::new(self.logical, self.p).unwrap();
        self.slots = (f64::from(self.logical) * self.reserve).ceil() as u32;
        self.blocks.clear();
        for (s, d) in edges {
            let id = (self.interval(d), self.interval(s));
            self.blocks.entry(id).or_default().0.push((s, d));
        }
        for (edges, reserved) in self.blocks.values_mut() {
            *reserved = (edges.len() + slack(edges.len())).max(4);
        }
    }

    fn interval(&self, v: u32) -> u32 {
        let materialised = self.part.num_vertices();
        if v < materialised {
            self.part.interval_of(VertexId::new(v))
        } else {
            (v - materialised) % self.p
        }
    }

    fn edges(&self) -> Vec<Pair> {
        self.blocks.values().flat_map(|(e, _)| e.clone()).collect()
    }

    fn apply(&mut self, m: Mutation) -> Result<MutationOutcome, ()> {
        let live = |v: u32| v < self.logical;
        match m {
            Mutation::AddEdge(e) => {
                let (s, d) = (e.src.raw(), e.dst.raw());
                if !live(s) || !live(d) || self.dead.contains(&s) || self.dead.contains(&d) {
                    return Err(());
                }
                let id = (self.interval(d), self.interval(s));
                // A block empty so far has the minimal 4-slot space.
                let (edges, reserved) = self.blocks.entry(id).or_insert((Vec::new(), 4));
                edges.push((s, d));
                if edges.len() <= *reserved {
                    return Ok(MutationOutcome::InPlace);
                }
                *reserved = edges.len() + slack(edges.len()).max(4);
                Ok(MutationOutcome::LinkedOverflow)
            }
            Mutation::RemoveEdge { src, dst } => {
                if !live(src) || !live(dst) {
                    return Err(());
                }
                let id = (self.interval(dst), self.interval(src));
                let (edges, _) = self.blocks.get_mut(&id).ok_or(())?;
                let i = edges.iter().position(|&e| e == (src, dst)).ok_or(())?;
                edges.swap_remove(i);
                Ok(MutationOutcome::InPlace)
            }
            Mutation::AddVertex => {
                self.logical += 1;
                if self.slots > 0 {
                    self.slots -= 1;
                    return Ok(MutationOutcome::InPlace);
                }
                self.lay_out(self.edges());
                Ok(MutationOutcome::Repartitioned)
            }
            Mutation::RemoveVertex(v) => {
                if !live(v.raw()) {
                    return Err(());
                }
                self.dead.insert(v.raw());
                Ok(MutationOutcome::VertexTombstoned)
            }
        }
    }

    /// Non-empty blocks and their edge sequences, column-major.
    fn non_empty(&self) -> Layout {
        self.blocks
            .iter()
            .filter(|(_, (e, _))| !e.is_empty())
            .map(|(&id, (e, _))| (id, e.clone()))
            .collect()
    }
}

/// A grid's non-empty blocks and their edge sequences, in stored order.
fn non_empty(grid: &GridGraph) -> Layout {
    grid.blocks()
        .map(|(id, range)| {
            let edges = grid.flat()[range]
                .iter()
                .map(|e| (e.src.raw(), e.dst.raw()));
            ((id.dst, id.src), edges.collect())
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// All four mutation kinds, applied in arbitrary order against a warm
    /// snapshot: the bookkeeping invariants hold and the cached grid
    /// matches a fresh materialisation after every single step.
    #[test]
    fn invariants_hold_and_grid_snapshot_never_goes_stale(
        g in arb_graph(),
        ops in proptest::collection::vec(any::<OpSpec>(), 0..50),
    ) {
        let grid = GridGraph::partition(&g, 4).unwrap();
        // Small reserve so long AddVertex runs exhaust it and exercise the
        // Repartitioned path too.
        let mut d = DynamicGrid::new(grid, 0.05);
        for op in ops {
            // Populate the cache BEFORE mutating — the stale-cache hazard
            // under test is a mutator that forgets to drop it.
            let _ = d.grid();
            let _ = d.apply(mutation(op, d.num_vertices()));
            let check = d.validate();
            prop_assert!(check.is_ok(), "invariants broken: {check:?}");
            prop_assert_eq!(d.grid(), &d.materialize());
        }
    }

    /// After in-place edge adds and removes the snapshot equals a fresh
    /// partition of the live edges.
    #[test]
    fn snapshot_equals_partition_of_live_edges(
        g in arb_graph(),
        p in 1u32..8,
        ops in proptest::collection::vec((any::<bool>(), 0u32..48, 0u32..48), 0..80),
    ) {
        let nv = g.num_vertices();
        let mut d = DynamicGrid::new(GridGraph::partition(&g, p).unwrap(), 0.3);
        for (add, a, b) in ops {
            let (src, dst) = if add { (a % nv, b % 4) } else { (a % 4, b % 4) };
            let _ = d.apply(match add {
                true => Mutation::AddEdge(Edge::new(src, dst)),
                false => Mutation::RemoveEdge { src, dst },
            });
        }
        prop_assert_eq!(d.grid(), &GridGraph::partition(&d.live_edge_list(), p).unwrap());
    }

    /// With a zero vertex reserve every append exhausts the (empty) reserve
    /// immediately: each AddVertex takes the full re-preprocessing path, and
    /// the rebuilt grid keeps the invariants and equals a fresh partition.
    #[test]
    fn vertex_growth_forces_repartition_and_stays_consistent(
        g in arb_graph(),
        extra in 1u32..12,
    ) {
        let grid = GridGraph::partition(&g, 4).unwrap();
        let mut d = DynamicGrid::new(grid, 0.0);
        for _ in 0..extra {
            let _ = d.grid();
            let out = d.apply(Mutation::AddVertex).unwrap();
            prop_assert_eq!(out, MutationOutcome::Repartitioned);
            let check = d.validate();
            prop_assert!(check.is_ok(), "invariants broken: {check:?}");
            prop_assert_eq!(d.grid(), &d.materialize());
            let fresh = GridGraph::partition(&d.grid().to_edge_list(), 4).unwrap();
            prop_assert_eq!(d.grid(), &fresh);
        }
        prop_assert_eq!(d.repartitions(), u64::from(extra));
        prop_assert_eq!(d.grid().num_vertices(), g.num_vertices() + extra);
    }

}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every outcome — in place, linked overflow, repartition, tombstone or
    /// rejection — and the final per-block edge order match the naive
    /// per-block model.
    #[test]
    fn outcomes_match_per_block_model(
        g in arb_graph(),
        p in 1u32..6,
        reserve in 0usize..3,
        ops in proptest::collection::vec(any::<OpSpec>(), 0..200),
    ) {
        let reserve = [0.0, 0.05, 0.3][reserve];
        let grid = GridGraph::partition(&g, p).unwrap();
        let mut d = DynamicGrid::new(grid, reserve);
        let mut model = Model::new(&g, p, reserve);
        for (step, op) in ops.into_iter().enumerate() {
            let m = mutation(op, d.num_vertices());
            let got = d.apply(m).map_err(|_| ());
            prop_assert_eq!(got, model.apply(m), "step {} {:?}", step, m);
            prop_assert_eq!(d.grid().num_edges(), model.edges().len() as u64);
        }
        prop_assert_eq!(non_empty(d.grid()), model.non_empty());
    }
}
