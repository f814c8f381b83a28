//! The `dynamic-lj` request stream: §7.4.2's mix of 45% add-edge, 45%
//! delete-edge, 5% add-vertex and 5% delete-vertex, generated from the
//! seed by a model of the live graph so that every request is one §5
//! semantics accepts. An `Err` from `DynamicGrid::apply` on this stream is
//! therefore a failed operation, not an expected rejection.

use hyve_graph::{Edge, EdgeList, Mutation, VertexId};
use hyve_memsim::FaultRng;

/// A generated stream plus what the grid must look like after each batch.
#[derive(Debug)]
pub struct Stream {
    pub batches: Vec<Vec<Mutation>>,
    /// Stored edge count of the grid after each batch (tombstoned
    /// vertices' edges stay in their blocks, §5).
    pub stored_edges: Vec<u64>,
    /// The live edges (both endpoints alive) after the last batch, sorted
    /// by `(src, dst)`.
    pub final_live: Vec<(u32, u32)>,
}

/// Generates `batches × batch_len` requests against `graph`.
///
/// Edge endpoints are drawn from the original vertex range, so vertices
/// added into reserved slots stay isolated and never force the engine to
/// see an edge into an unmaterialised padding slot.
pub fn generate(graph: &EdgeList, batches: usize, batch_len: usize, seed: u64) -> Stream {
    let mut rng = FaultRng::new(seed);
    let nv = graph.num_vertices();
    let mut dead = vec![false; nv as usize];
    let mut live: Vec<(u32, u32)> = graph.iter().map(|e| (e.src.raw(), e.dst.raw())).collect();
    let mut stored = graph.len() as u64;
    let mut alive = nv;
    let mut out = Stream {
        batches: Vec::with_capacity(batches),
        stored_edges: Vec::with_capacity(batches),
        final_live: Vec::new(),
    };
    let live_vertex = |rng: &mut FaultRng, dead: &[bool]| loop {
        let v = rng.below(u64::from(nv)) as u32;
        if !dead[v as usize] {
            return v;
        }
    };
    for _ in 0..batches {
        let mut batch = Vec::with_capacity(batch_len);
        while batch.len() < batch_len {
            let roll = rng.below(100);
            if roll < 45 {
                let (src, dst) = (live_vertex(&mut rng, &dead), live_vertex(&mut rng, &dead));
                live.push((src, dst));
                stored += 1;
                batch.push(Mutation::AddEdge(Edge::new(src, dst)));
            } else if roll < 90 {
                // Edges whose endpoint was deleted are inert: drop them
                // from the model lazily and draw again.
                while !live.is_empty() {
                    let (src, dst) = live.swap_remove(rng.below(live.len() as u64) as usize);
                    if !dead[src as usize] && !dead[dst as usize] {
                        stored -= 1;
                        batch.push(Mutation::RemoveEdge { src, dst });
                        break;
                    }
                }
            } else if roll < 95 {
                batch.push(Mutation::AddVertex);
            } else if alive > nv / 2 {
                // Keep at least half the vertices alive so later edge
                // draws stay cheap.
                let v = live_vertex(&mut rng, &dead);
                dead[v as usize] = true;
                alive -= 1;
                batch.push(Mutation::RemoveVertex(VertexId::new(v)));
            }
        }
        out.batches.push(batch);
        out.stored_edges.push(stored);
    }
    live.retain(|&(s, d)| !dead[s as usize] && !dead[d as usize]);
    live.sort_unstable();
    out.final_live = live;
    out
}
