//! What one job runs, and how its output is checked.
//!
//! A job is one simulator call: a HyVE session run (plan `P`, partition,
//! run) or a `GraphrEngine::run`. Its vertex values are checked against the
//! sequential references in `hyve_algorithms::reference`, and its
//! `RunReport` is folded into the workload's simulated-statistics digest.

use hyve_algorithms::{reference, SpMv};
use hyve_core::RunReport;
use hyve_graph::{Csr, EdgeList, VertexId};

/// PageRank iterations (§7.1).
pub const PR_ITERATIONS: u32 = 10;
/// The paper's PageRank.
pub const PR: Alg = Alg::Pr(PR_ITERATIONS);
/// PageRank damping factor, the program's default.
const PR_DAMPING: f32 = 0.85;
/// PageRank tolerance: `|got − want| ≤ PR_TOL · max(|want|, 1/|V|)`. The
/// engine sums contributions in block order and the reference in CSR
/// order, so f32 rounding differs by a few ULPs per summand.
const PR_TOL: f32 = 1e-4;
/// SpMV tolerance: `|got − want| ≤ SPMV_TOL · max(|want|, 1)`, for the same
/// reason.
const SPMV_TOL: f32 = 1e-4;

/// The five algorithms of the GraphR comparison (§7.4.3).
#[derive(Debug, Clone, Copy)]
pub enum Alg {
    /// PageRank with this many iterations.
    Pr(u32),
    Bfs,
    Cc,
    Sssp,
    SpMv,
}

impl Alg {
    pub const ALL: [Alg; 5] = [Alg::Bfs, Alg::Cc, PR, Alg::Sssp, Alg::SpMv];
}

/// Runs `$body` with `$p` bound to a reference to `$alg`'s program; every
/// arm must produce the same type.
macro_rules! with_program {
    ($alg:expr, $p:ident => $body:expr) => {
        match $alg {
            $crate::jobs::Alg::Pr(iterations) => {
                let $p = &hyve_algorithms::PageRank::new(iterations);
                $body
            }
            $crate::jobs::Alg::Bfs => {
                let $p = &hyve_algorithms::Bfs::new(hyve_graph::VertexId::new(0));
                $body
            }
            $crate::jobs::Alg::Cc => {
                let $p = &hyve_algorithms::ConnectedComponents::new();
                $body
            }
            $crate::jobs::Alg::Sssp => {
                let $p = &hyve_algorithms::Sssp::new(hyve_graph::VertexId::new(0));
                $body
            }
            $crate::jobs::Alg::SpMv => {
                let $p = &hyve_algorithms::SpMv::new();
                $body
            }
        }
    };
}
pub(crate) use with_program;

/// Final vertex values of a run.
#[derive(Debug, Clone)]
pub enum Values {
    /// BFS levels or CC labels.
    Ints(Vec<u32>),
    /// PageRank, SSSP or SpMV values.
    Reals(Vec<f32>),
}

impl From<Vec<u32>> for Values {
    fn from(v: Vec<u32>) -> Self {
        Values::Ints(v)
    }
}

impl From<Vec<f32>> for Values {
    fn from(v: Vec<f32>) -> Self {
        Values::Reals(v)
    }
}

impl Values {
    /// Bitwise equality (f32 compared by bits, so NaN == NaN): runs of the
    /// same job must repeat exactly.
    pub fn same_bits(&self, other: &Values) -> bool {
        match (self, other) {
            (Values::Ints(a), Values::Ints(b)) => a == b,
            (Values::Reals(a), Values::Reals(b)) => {
                a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
            }
            _ => false,
        }
    }
}

/// The sequential reference's values for `alg` on `g`.
pub fn reference_values(alg: Alg, g: &EdgeList) -> Values {
    let source = VertexId::new(0);
    match alg {
        Alg::Pr(iterations) => {
            reference::pagerank(&Csr::from_edge_list(g), iterations, PR_DAMPING).into()
        }
        Alg::Bfs => reference::bfs_levels(&Csr::from_edge_list(g), source).into(),
        Alg::Cc => reference::connected_components(g).into(),
        Alg::Sssp => reference::sssp_distances(&Csr::from_edge_list(g), source).into(),
        Alg::SpMv => {
            let spmv = SpMv::new();
            let x: Vec<f32> = (0..g.num_vertices())
                .map(|v| spmv.input(VertexId::new(v)))
                .collect();
            reference::spmv(g, &x).into()
        }
    }
}

/// Checks a run's values against the reference: BFS levels, CC labels and
/// SSSP distances exactly, PageRank and SpMV within [`PR_TOL`] /
/// [`SPMV_TOL`].
pub fn check_values(alg: Alg, got: &Values, want: &Values) -> Result<(), String> {
    let mismatch = |i: usize, detail: String| Err(format!("{alg:?}: vertex {i}: {detail}"));
    match (got, want) {
        (Values::Ints(g), Values::Ints(w)) if g.len() == w.len() => {
            match g.iter().zip(w).position(|(a, b)| a != b) {
                Some(i) => mismatch(i, format!("{} != reference {}", g[i], w[i])),
                None => Ok(()),
            }
        }
        (Values::Reals(g), Values::Reals(w)) if g.len() == w.len() => {
            let floor = match alg {
                Alg::Pr(_) => 1.0 / g.len().max(1) as f32,
                _ => 1.0,
            };
            let tol = match alg {
                Alg::Pr(_) => PR_TOL,
                Alg::SpMv => SPMV_TOL,
                _ => 0.0,
            };
            for (i, (&a, &b)) in g.iter().zip(w).enumerate() {
                let ok = if tol == 0.0 {
                    a == b || (a.is_infinite() && b.is_infinite())
                } else {
                    (a - b).abs() <= tol * b.abs().max(floor)
                };
                if !ok {
                    return mismatch(i, format!("{a} vs reference {b}"));
                }
            }
            Ok(())
        }
        _ => Err(format!(
            "{alg:?}: value vector shape differs from the reference"
        )),
    }
}

/// FNV-1a over 64-bit words: a stable fingerprint of simulated statistics.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn text(&mut self, s: &str) {
        for b in s.bytes() {
            self.word(u64::from(b));
        }
    }

    /// Folds every simulated statistic of `r` in, floats by their IEEE-754
    /// bits: energy, elapsed time, the four phases, the four channel
    /// ledgers and the reliability outcome.
    pub fn report(&mut self, r: &RunReport) {
        self.text(r.algorithm);
        self.text(r.config);
        self.word(u64::from(r.iterations));
        self.word(r.edges_processed);
        self.word(u64::from(r.intervals));
        self.word(r.energy().as_pj().to_bits());
        self.word(r.elapsed().as_ns().to_bits());
        for (_, t) in r.phases.named() {
            self.word(t.as_ns().to_bits());
        }
        let b = &r.breakdown;
        for s in [b.edge_memory, b.offchip_vertex, b.onchip_vertex, b.logic] {
            for w in [s.reads, s.writes, s.bits_read, s.bits_written] {
                self.word(w);
            }
            self.word(s.dynamic_energy.as_pj().to_bits());
            self.word(s.background_energy.as_pj().to_bits());
            self.word(s.busy_time.as_ns().to_bits());
        }
        if let Some(rel) = &r.reliability {
            for w in [
                rel.corrected,
                rel.uncorrectable,
                rel.retries,
                rel.spare_banks,
                rel.unspared,
            ] {
                self.word(w);
            }
            self.word(rel.remaps.len() as u64);
            self.word(rel.degraded_fraction.to_bits());
        }
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}
