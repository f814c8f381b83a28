//! Synthetic graph generators.
//!
//! The paper evaluates on five SNAP graphs we cannot redistribute; the
//! [`Rmat`] generator (Chakrabarti et al.) reproduces their power-law degree
//! skew — the property that determines block sparsity (Table 1's `Navg`),
//! read/write mixes and partition balance. Equal quadrant probabilities
//! ([`Rmat::with_probabilities`]`(0.25, 0.25, 0.25)`) give a uniform
//! control. Output is fully deterministic given a seed.

use crate::edgelist::EdgeList;
use crate::types::Edge;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// R-MAT recursive-matrix generator.
///
/// ```
/// use hyve_graph::Rmat;
/// let g = Rmat::new(1_000, 5_000).generate(42);
/// assert_eq!(g.num_vertices(), 1_000);
/// assert_eq!(g.len(), 5_000);
/// // Deterministic:
/// assert_eq!(g, Rmat::new(1_000, 5_000).generate(42));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Rmat {
    num_vertices: u32,
    num_edges: usize,
    /// Quadrant probabilities (a, b, c); d = 1 − a − b − c.
    a: f64,
    b: f64,
    c: f64,
    allow_self_loops: bool,
}

impl Rmat {
    /// Creates a generator with the canonical skewed parameters
    /// (a, b, c, d) = (0.57, 0.19, 0.19, 0.05) used for social-style graphs.
    ///
    /// # Panics
    ///
    /// Panics if `num_vertices` is zero.
    pub fn new(num_vertices: u32, num_edges: usize) -> Self {
        assert!(num_vertices > 0, "graph needs at least one vertex");
        Rmat {
            num_vertices,
            num_edges,
            a: 0.57,
            b: 0.19,
            c: 0.19,
            allow_self_loops: false,
        }
    }

    /// Overrides the quadrant probabilities.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < a, b, c` and `a + b + c < 1`.
    pub fn with_probabilities(mut self, a: f64, b: f64, c: f64) -> Self {
        assert!(
            a > 0.0 && b > 0.0 && c > 0.0,
            "probabilities must be positive"
        );
        assert!(a + b + c < 1.0, "a + b + c must leave room for d");
        self.a = a;
        self.b = b;
        self.c = c;
        self
    }

    /// Allows self-loop edges (default: rejected and resampled).
    pub fn with_self_loops(mut self, allow: bool) -> Self {
        self.allow_self_loops = allow;
        self
    }

    /// Generates the edge list deterministically from `seed`.
    ///
    /// The draw contract, which fixes every graph bit for bit:
    /// - One [`StdRng`] seeded with `seed` feeds every draw.
    /// - Each attempt draws `scale = max(1, ⌈log2 n⌉)` uniform `f64`s, one
    ///   per level of the 2^scale square, coarsest level first.
    /// - A draw `r` picks quadrant a if `r < a`, b if `r < a + b`, c if
    ///   `r < a + b + c`, and d otherwise. b moves the destination (column)
    ///   by the level's step, c moves the source (row), d moves both.
    /// - The cell folds onto the `n` requested vertices by `mod n`.
    /// - Unless self-loops are allowed, an attempt that lands on a self-loop
    ///   is rejected whole (its draws stay spent) and the next attempt
    ///   begins.
    ///
    /// # Panics
    ///
    /// Panics if self-loops are rejected, the graph has one vertex and
    /// `num_edges > 0`: every attempt would be a self-loop.
    pub fn generate(&self, seed: u64) -> EdgeList {
        assert!(
            self.allow_self_loops || self.num_vertices > 1 || self.num_edges == 0,
            "R-MAT over one vertex can only draw self-loops; allow them or add vertices"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let n = u64::from(self.num_vertices);
        let scale = (32 - (self.num_vertices - 1).leading_zeros()).max(1);
        let side = 1u64 << scale;
        let (ab, abc) = (self.a + self.b, self.a + self.b + self.c);
        // side ≤ 2n, so one conditional subtract is the `mod n` fold.
        let fold = |v: u64| (if v >= n { v - n } else { v }) as u32;
        let mut edges = Vec::with_capacity(self.num_edges);
        while edges.len() < self.num_edges {
            let (mut x, mut y) = (0u64, 0u64);
            // A halving `step`, not `<< level`: the latter is vectorised
            // with emulated 64-bit multiplies and runs ≈1.6× slower.
            let mut step = side / 2;
            while step >= 1 {
                let r: f64 = rng.gen();
                // Quadrant a, b, c, d = 0, 1, 2, 3, chosen without a branch:
                // bit 1 moves the row, bit 0 the column.
                let q = u64::from(r >= self.a) + u64::from(r >= ab) + u64::from(r >= abc);
                x += step * (q >> 1);
                y += step * (q & 1);
                step /= 2;
            }
            let (src, dst) = (fold(x), fold(y));
            if !self.allow_self_loops && src == dst {
                continue;
            }
            edges.push(Edge::new(src, dst));
        }
        EdgeList::from_vec(self.num_vertices, edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rmat_is_deterministic_and_sized() {
        let g1 = Rmat::new(512, 2048).generate(7);
        let g2 = Rmat::new(512, 2048).generate(7);
        assert_eq!(g1, g2);
        assert_eq!(g1.len(), 2048);
        assert_eq!(g1.num_vertices(), 512);
        let g3 = Rmat::new(512, 2048).generate(8);
        assert_ne!(g1, g3, "different seeds must differ");
    }

    #[test]
    fn rmat_no_self_loops_by_default() {
        let g = Rmat::new(100, 1000).generate(3);
        assert!(g.iter().all(|e| !e.is_self_loop()));
    }

    #[test]
    fn rmat_edges_in_range() {
        let g = Rmat::new(300, 3000).generate(11); // non-power-of-two count
        for e in g.iter() {
            assert!(e.src.raw() < 300);
            assert!(e.dst.raw() < 300);
        }
    }

    #[test]
    fn rmat_is_skewed_vs_uniform() {
        // R-MAT's defining property: max degree far above the mean.
        let n = 2048u32;
        let m = 16 * n as usize;
        let rmat = Rmat::new(n, m).generate(5);
        let flat = Rmat::new(n, m)
            .with_probabilities(0.25, 0.25, 0.25)
            .generate(5);
        let max_rmat = *rmat.out_degrees().iter().max().unwrap();
        let max_flat = *flat.out_degrees().iter().max().unwrap();
        assert!(
            max_rmat > 2 * max_flat,
            "R-MAT max degree {max_rmat} should dwarf uniform {max_flat}"
        );
    }

    #[test]
    fn rmat_custom_probabilities() {
        // Symmetric probabilities flatten the skew.
        let g = Rmat::new(256, 4096)
            .with_probabilities(0.25, 0.25, 0.25)
            .generate(9);
        let skewed = Rmat::new(256, 4096).generate(9);
        let max_flat = *g.out_degrees().iter().max().unwrap();
        let max_skew = *skewed.out_degrees().iter().max().unwrap();
        assert!(max_skew > max_flat);
    }

    #[test]
    #[should_panic(expected = "leave room for d")]
    fn rmat_rejects_degenerate_probabilities() {
        let _ = Rmat::new(8, 8).with_probabilities(0.5, 0.3, 0.3);
    }

    #[test]
    fn rmat_self_loops_opt_in() {
        let g = Rmat::new(4, 4000).with_self_loops(true).generate(2);
        assert!(g.iter().any(|e| e.is_self_loop()));
    }

    #[test]
    #[should_panic(expected = "only draw self-loops")]
    fn rmat_one_vertex_without_self_loops_panics_instead_of_spinning() {
        let _ = Rmat::new(1, 1).generate(0);
    }

    #[test]
    fn rmat_one_vertex_is_fine_when_it_needs_no_edge() {
        assert!(Rmat::new(1, 0).generate(0).is_empty());
        let loops = Rmat::new(1, 3).with_self_loops(true).generate(0);
        assert!(loops.iter().all(|e| e.is_self_loop()) && loops.len() == 3);
    }

    /// FNV-1a over every edge's (src, dst, weight bits), little-endian.
    fn fingerprint(g: &EdgeList) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for e in g.iter() {
            let words = [e.src.raw(), e.dst.raw(), e.weight.to_bits()];
            for byte in words.iter().flat_map(|w| w.to_le_bytes()) {
                h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
        }
        h
    }

    /// Pins the generators' exact output: the draw contract documented on
    /// [`Rmat::generate`] and the edge order. Any change to the RNG stream,
    /// the quadrant order, the fold or the self-loop rejection shows here.
    #[test]
    fn generated_edges_are_pinned() {
        use crate::datasets::DatasetProfile;
        let mut cases: Vec<(String, EdgeList)> = DatasetProfile::all()
            .into_iter()
            .map(|p| (p.tag.to_string(), p.generate(2018)))
            .collect();
        cases.extend([
            (
                "custom probabilities".to_string(),
                Rmat::new(1_024, 20_000)
                    .with_probabilities(0.45, 0.25, 0.15)
                    .generate(7),
            ),
            (
                "self-loops".to_string(),
                Rmat::new(64, 5_000).with_self_loops(true).generate(3),
            ),
            (
                "non-power-of-two".to_string(),
                Rmat::new(1_000, 20_000).generate(11),
            ),
        ]);
        let expected: [u64; 8] = [
            0x408c_3c51_ce44_6b04, // YT
            0x53aa_6c4c_0579_0f3b, // WK
            0x3018_60a3_eaac_da2c, // AS
            0x1f01_429b_3933_c727, // LJ
            0x20e2_1842_3a5f_c96d, // TW
            0x3f2d_162b_d60c_8e6e, // custom probabilities
            0xddfd_1f85_d532_d9a1, // self-loops
            0x18c8_77a3_ff1d_90e9, // non-power-of-two
        ];
        assert_eq!(cases.len(), expected.len());
        for ((name, g), want) in cases.iter().zip(expected) {
            assert_eq!(fingerprint(g), want, "{name} changed");
        }
    }
}
