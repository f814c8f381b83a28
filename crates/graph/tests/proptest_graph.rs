//! Property-based tests for the graph substrate: partitioning is a
//! lossless, well-formed reshaping of the edge list, and dynamic mutation
//! sequences agree with a naive multiset model.

use hyve_graph::{
    block_sparsity, DynamicGrid, Edge, EdgeList, GridGraph, IntervalPartition, Mutation, VertexId,
};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::collections::HashMap;

/// Random (num_vertices, edges) pair with valid endpoints.
fn arb_graph() -> impl Strategy<Value = EdgeList> {
    arb_graph_up_to(200)
}

/// Random graph over 2..`max_vertices` vertices with up to 400 edges.
fn arb_graph_up_to(max_vertices: u32) -> impl Strategy<Value = EdgeList> {
    (2u32..max_vertices).prop_flat_map(|nv| {
        proptest::collection::vec((0..nv, 0..nv), 0..400).prop_map(move |pairs| {
            let mut g = EdgeList::new(nv);
            g.extend(pairs.into_iter().map(|(s, d)| Edge::new(s, d)));
            g
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Partitioning then flattening returns exactly the original multiset
    /// of edges, for any legal interval count (one radix digit or two), and
    /// tallies the same out-degrees.
    #[test]
    fn partition_round_trips(g in arb_graph_up_to(400), p in 1u32..300) {
        let p = p.min(g.num_vertices());
        let grid = GridGraph::partition(&g, p).unwrap();
        prop_assert_eq!(grid.num_edges(), g.len() as u64);
        prop_assert_eq!(grid.num_blocks(), (p as usize).pow(2));
        prop_assert_eq!(grid.out_degrees(), &g.out_degrees()[..]);

        let mut back: Vec<(u32, u32)> = grid
            .flat()
            .iter()
            .map(|e| (e.src.raw(), e.dst.raw()))
            .collect();
        let mut orig: Vec<(u32, u32)> = g
            .iter()
            .map(|e| (e.src.raw(), e.dst.raw()))
            .collect();
        back.sort_unstable();
        orig.sort_unstable();
        prop_assert_eq!(back, orig);
    }

    /// Every edge lands in the block its endpoints' intervals dictate, in
    /// input order, for interval counts of one radix digit or two.
    #[test]
    fn partition_matches_naive_bucketing(g in arb_graph_up_to(400), p in 1u32..300) {
        let p = p.min(g.num_vertices());
        check_naive_bucketing(&g, p)?;
    }

    /// Every edge points into one destination interval, so one column holds
    /// the whole graph: the largest scratch the partitioner can need. With
    /// up to 1000 edges the column often outgrows the full tally (at most
    /// 512 counts for P < 300), so the single-pass sort runs as well as the
    /// radix one.
    #[test]
    fn partition_of_one_destination_column(
        nv in 2u32..400,
        p in 1u32..300,
        column in 0u32..400,
        pairs in proptest::collection::vec((0u32..400, 0u32..400), 0..1000),
    ) {
        let p = p.min(nv);
        let part = IntervalPartition::new(nv, p).unwrap();
        // The interval of a vertex, as contiguous intervals may be empty.
        let target = part.interval_vertices(part.interval_of(VertexId::new(column % nv)));
        let len = target.end - target.start;
        let mut g = EdgeList::new(nv);
        g.extend(pairs.into_iter().map(|(s, d)| Edge::new(s % nv, target.start + d % len)));
        check_naive_bucketing(&g, p)?;
    }

    /// Fresh partitions, and `DynamicGrid` snapshots
    /// after edge additions (new blocks included), removals and
    /// repartitions, all store their blocks column-major.
    #[test]
    fn blocks_are_stored_column_major(
        g in arb_graph(),
        p in 1u32..16,
        ops in proptest::collection::vec((0u8..3, 0u32..200, 0u32..200), 0..60),
    ) {
        let p = p.min(g.num_vertices());
        let grid = GridGraph::partition(&g, p).unwrap();
        check_column_major(&grid)?;
        let mut dynamic = DynamicGrid::new(grid, 0.05);
        for (kind, a, b) in ops {
            let nv = dynamic.num_vertices();
            let (src, dst) = (a % nv, b % nv);
            let m = match kind {
                0 => Mutation::AddEdge(Edge::new(src, dst)),
                1 => Mutation::RemoveEdge { src, dst },
                _ => Mutation::AddVertex,
            };
            let _ = dynamic.apply(m);
            check_column_major(dynamic.grid())?;
        }
    }

    /// The column index equals a recount from the block list: on fresh
    /// partitions by block (`P² ≤ E`, P ≤ 20 here) and by column, and on
    /// `DynamicGrid` snapshots after adds, removes and repartitions.
    #[test]
    fn column_index_matches_a_recount(
        g in arb_graph_up_to(400),
        p in 1u32..40,
        ops in proptest::collection::vec((0u8..3, 0u32..400, 0u32..400), 0..60),
    ) {
        let p = p.min(g.num_vertices());
        let grid = GridGraph::partition(&g, p).unwrap();
        check_column_index(&grid)?;
        let mut dynamic = DynamicGrid::new(grid, 0.05);
        for (kind, a, b) in ops {
            let nv = dynamic.num_vertices();
            let (src, dst) = (a % nv, b % nv);
            let m = match kind {
                0 => Mutation::AddEdge(Edge::new(src, dst)),
                1 => Mutation::RemoveEdge { src, dst },
                _ => Mutation::AddVertex,
            };
            let _ = dynamic.apply(m);
            check_column_index(dynamic.grid())?;
        }
    }

    /// The intervals tile `0..V` in ascending order, and each interval's
    /// vertex range is exactly the set of vertices `interval_of` maps to it
    /// (the ranges are disjoint and cover `0..V`, so membership in one
    /// direction suffices).
    #[test]
    fn intervals_tile_the_vertex_range(nv in 1u32..5000, p in 1u32..64) {
        let p = p.min(nv);
        let part = IntervalPartition::new(nv, p).unwrap();
        let mut next = 0;
        for i in 0..p {
            let range = part.interval_vertices(i);
            prop_assert_eq!(range.start, next, "interval {} does not follow on", i);
            prop_assert!(range.start <= range.end);
            next = range.end;
            for v in range {
                prop_assert_eq!(part.interval_of(VertexId::new(v)), i);
            }
        }
        prop_assert_eq!(next, nv, "intervals must cover all vertices");
    }

    /// Block sparsity accounting is conserved: edge counts across non-empty
    /// blocks sum to the total, and Navg is consistent.
    #[test]
    fn sparsity_conservation(g in arb_graph(), dim in 1u32..16) {
        let stats = block_sparsity(&g, dim);
        let mut naive = std::collections::HashMap::new();
        for e in g.iter() {
            *naive.entry((e.src.raw() / dim, e.dst.raw() / dim)).or_insert(0u64) += 1;
        }
        prop_assert_eq!(stats.non_empty_blocks, naive.len() as u64);
        prop_assert_eq!(stats.max_edges_per_block, naive.values().copied().max().unwrap_or(0));
        prop_assert_eq!(stats.edges, g.len() as u64);
        if g.is_empty() {
            prop_assert_eq!(stats.non_empty_blocks, 0);
        } else {
            prop_assert!(stats.non_empty_blocks >= 1);
            prop_assert!(stats.max_edges_per_block as f64 >= stats.avg_edges_per_block);
            let reconstructed = stats.avg_edges_per_block * stats.non_empty_blocks as f64;
            prop_assert!((reconstructed - stats.edges as f64).abs() < 1e-6);
        }
    }

    /// A random mutation sequence applied to the grid matches a naive
    /// multiset model of the live edge set.
    #[test]
    fn dynamic_grid_matches_multiset_model(
        g in arb_graph(),
        ops in proptest::collection::vec((0u8..4, 0u32..200, 0u32..200), 0..100),
    ) {
        let p = 4u32.min(g.num_vertices());
        let grid = GridGraph::partition(&g, p).unwrap();
        let mut dynamic = DynamicGrid::new(grid, 0.3);
        // Model: multiset of edges + tombstone set.
        let mut model: Vec<(u32, u32)> =
            g.iter().map(|e| (e.src.raw(), e.dst.raw())).collect();
        let mut model_nv = g.num_vertices();
        let mut dead = std::collections::HashSet::new();

        for (kind, a, b) in ops {
            match kind {
                0 => {
                    let (src, dst) = (a % model_nv, b % model_nv);
                    let got = dynamic.apply(Mutation::AddEdge(Edge::new(src, dst)));
                    if dead.contains(&src) || dead.contains(&dst) {
                        // Deleted endpoints reject the add, leaving the
                        // stored edge set untouched.
                        prop_assert!(got.is_err());
                    } else {
                        prop_assert!(got.is_ok());
                        model.push((src, dst));
                    }
                }
                1 => {
                    let (src, dst) = (a % model_nv, b % model_nv);
                    let expect = model.iter().position(|&e| e == (src, dst));
                    let got = dynamic.apply(Mutation::RemoveEdge { src, dst });
                    match expect {
                        Some(i) => {
                            prop_assert!(got.is_ok());
                            model.swap_remove(i);
                        }
                        None => prop_assert!(got.is_err()),
                    }
                }
                2 => {
                    prop_assert!(dynamic.apply(Mutation::AddVertex).is_ok());
                    model_nv += 1;
                }
                _ => {
                    let v = a % model_nv;
                    // Tombstoning only marks; edges stay in the multiset.
                    if v < dynamic.grid().num_vertices() {
                        prop_assert!(dynamic
                            .apply(Mutation::RemoveVertex(VertexId::new(v)))
                            .is_ok());
                        dead.insert(v);
                    }
                }
            }
            prop_assert_eq!(dynamic.grid().num_edges(), model.len() as u64);
        }
    }

    /// Degrees stay consistent with the live structure under mutations.
    #[test]
    fn dynamic_degrees_consistent(g in arb_graph(),
                                  adds in proptest::collection::vec((0u32..100, 0u32..100), 0..50)) {
        let p = 4u32.min(g.num_vertices());
        let grid = GridGraph::partition(&g, p).unwrap();
        let mut dynamic = DynamicGrid::new(grid, 0.3);
        for (a, b) in adds {
            let (src, dst) = (a % g.num_vertices(), b % g.num_vertices());
            dynamic.apply(Mutation::AddEdge(Edge::new(src, dst))).unwrap();
        }
        // Recompute degrees from the grid and compare.
        let mut expect = vec![0u32; dynamic.grid().num_vertices() as usize];
        for e in dynamic.grid().flat() {
            expect[e.src.index()] += 1;
            expect[e.dst.index()] += 1;
        }
        for (v, &d) in expect.iter().enumerate() {
            prop_assert_eq!(dynamic.degree(VertexId::new(v as u32)), d);
        }
    }
}

/// The grid's column index equals a recount of each destination
/// interval's blocks in [`GridGraph::block_ids`].
fn check_column_index(grid: &GridGraph) -> Result<(), TestCaseError> {
    let p = grid.num_intervals() as usize;
    let mut starts = vec![0u32; p + 1];
    for id in grid.block_ids() {
        starts[id.dst as usize + 1] += 1;
    }
    for d in 0..p {
        starts[d + 1] += starts[d];
    }
    prop_assert_eq!(grid.column_starts(), &starts[..]);
    Ok(())
}

/// Fixed graphs on each side of the partitioner's `P² ≤ E` rule: with
/// `P² = E` it places every edge in one pass keyed by block, with
/// `P² = E + 1` it scatters by column and sorts each column.
#[test]
fn partition_at_the_block_count_boundary() {
    let p = 6;
    for len in [36, 35] {
        let mut g = EdgeList::new(40);
        g.extend((0..len).map(|i| Edge::with_weight(i * 17 % 40, (i * 23 + 1) % 40, i as f32)));
        check_naive_bucketing(&g, p).unwrap();
        let grid = GridGraph::partition(&g, p).unwrap();
        check_column_major(&grid).unwrap();
        check_column_index(&grid).unwrap();
    }
}

/// A snapshot taken after vertex growth forced a repartition still carries
/// a column index that matches its blocks.
#[test]
fn column_index_survives_a_repartition() {
    let mut g = EdgeList::new(40);
    g.extend((0..120).map(|i| Edge::new(i * 17 % 40, (i * 23 + 1) % 40)));
    let mut dynamic = DynamicGrid::new(GridGraph::partition(&g, 8).unwrap(), 0.05);
    while dynamic.repartitions() == 0 {
        dynamic.apply(Mutation::AddVertex).unwrap();
    }
    let new = dynamic.num_vertices() - 1;
    dynamic.apply(Mutation::AddEdge(Edge::new(new, 3))).unwrap();
    check_column_index(dynamic.grid()).unwrap();
}

/// The sparse grid equals a naive stable bucketing: the same edge sequence
/// in every block (empty ones included), the same non-empty block count,
/// the same §3.4 storage charge summed block by block, and the same
/// out-degrees.
fn check_naive_bucketing(g: &EdgeList, p: u32) -> Result<(), TestCaseError> {
    let grid = GridGraph::partition(g, p).unwrap();
    let part = IntervalPartition::new(g.num_vertices(), p).unwrap();
    let mut naive: HashMap<(u32, u32), Vec<Edge>> = HashMap::new();
    for e in g.iter() {
        let key = (part.interval_of(e.src), part.interval_of(e.dst));
        naive.entry(key).or_default().push(*e);
    }
    let mut bits = 0;
    for s in 0..p {
        for d in 0..p {
            let want = naive.get(&(s, d)).map_or(&[][..], Vec::as_slice);
            let got = &grid.flat()[grid.block_range(s, d)];
            prop_assert_eq!(got, want, "block ({}, {})", s, d);
            bits += 96 + 64 * want.len() as u64;
        }
    }
    prop_assert_eq!(grid.non_empty_blocks(), naive.len());
    prop_assert_eq!(grid.edge_storage_bits(), bits);
    prop_assert_eq!(grid.out_degrees(), &g.out_degrees()[..]);
    let listed: Vec<Edge> = grid
        .blocks()
        .flat_map(|(_, r)| &grid.flat()[r])
        .copied()
        .collect();
    prop_assert_eq!(listed, grid.flat());
    Ok(())
}

/// The grid's non-empty blocks strictly increase in (dst interval, src
/// interval), and `block_range` finds each listed block at its listed range.
fn check_column_major(grid: &GridGraph) -> Result<(), TestCaseError> {
    let keys: Vec<(u32, u32)> = grid.block_ids().iter().map(|id| (id.dst, id.src)).collect();
    prop_assert!(
        keys.windows(2).all(|w| w[0] < w[1]),
        "blocks not column-major: {keys:?}"
    );
    for (id, range) in grid.blocks() {
        prop_assert_eq!(grid.block_range(id.src, id.dst), range, "block {:?}", id);
    }
    Ok(())
}
