//! Degree statistics and skew measures.
//!
//! The paper's workloads are natural graphs whose power-law skew drives
//! everything from block sparsity (Table 1) to PU load balance (§4.3).
//! [`DegreeStats`] summarises a graph's shape; the `hyve info` CLI command
//! and the dataset-profile tests consume it.

use crate::edgelist::EdgeList;

/// Summary statistics of a degree sequence.
#[derive(Debug, Clone, PartialEq)]
pub struct DegreeStats {
    /// Mean degree.
    pub mean: f64,
    /// Maximum degree.
    pub max: u32,
    /// Median degree.
    pub median: u32,
    /// 99th-percentile degree.
    pub p99: u32,
    /// Fraction of vertices with zero degree.
    pub isolated_fraction: f64,
    /// Coefficient of variation (σ/µ) — ~1 for Poisson-like (ER) degrees,
    /// ≫1 for power-law graphs.
    pub coefficient_of_variation: f64,
    /// Fraction of all edges incident to the top 1% highest-degree vertices
    /// — the skew measure that predicts hot intervals.
    pub top1pct_edge_share: f64,
}

impl DegreeStats {
    /// Computes statistics over a degree sequence.
    ///
    /// # Panics
    ///
    /// Panics on an empty sequence.
    pub fn from_degrees(degrees: &[u32]) -> Self {
        assert!(!degrees.is_empty(), "need at least one vertex");
        let n = degrees.len();
        let total: u64 = degrees.iter().map(|&d| u64::from(d)).sum();
        let mean = total as f64 / n as f64;
        let variance = degrees
            .iter()
            .map(|&d| {
                let diff = f64::from(d) - mean;
                diff * diff
            })
            .sum::<f64>()
            / n as f64;
        let mut sorted: Vec<u32> = degrees.to_vec();
        sorted.sort_unstable();
        let median = sorted[n / 2];
        let p99 = sorted[((n as f64 * 0.99) as usize).min(n - 1)];
        let isolated = sorted.iter().take_while(|&&d| d == 0).count();
        // Edge share of the top 1% (at least one vertex).
        let top = (n / 100).max(1);
        let top_sum: u64 = sorted.iter().rev().take(top).map(|&d| u64::from(d)).sum();
        DegreeStats {
            mean,
            max: *sorted.last().expect("non-empty"),
            median,
            p99,
            isolated_fraction: isolated as f64 / n as f64,
            coefficient_of_variation: if mean > 0.0 {
                variance.sqrt() / mean
            } else {
                0.0
            },
            top1pct_edge_share: if total > 0 {
                top_sum as f64 / total as f64
            } else {
                0.0
            },
        }
    }

    /// Out-degree statistics of a graph.
    ///
    /// # Panics
    ///
    /// Panics if the graph has no vertices.
    pub fn out_degrees(graph: &EdgeList) -> Self {
        Self::from_degrees(&graph.out_degrees())
    }

    /// True if the sequence looks heavy-tailed (CoV well above the ~1 of a
    /// Poisson/ER degree distribution).
    pub fn is_skewed(&self) -> bool {
        self.coefficient_of_variation > 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::DatasetProfile;
    use crate::generate::Rmat;

    #[test]
    fn hand_computed_sequence() {
        let s = DegreeStats::from_degrees(&[0, 0, 1, 1, 2, 4]);
        assert!((s.mean - 8.0 / 6.0).abs() < 1e-12);
        assert_eq!(s.max, 4);
        assert_eq!(s.median, 1);
        assert!((s.isolated_fraction - 2.0 / 6.0).abs() < 1e-12);
        // Top 1% = 1 vertex (degree 4) of 8 total edges.
        assert!((s.top1pct_edge_share - 0.5).abs() < 1e-12);
    }

    #[test]
    fn rmat_is_skewed_uniform_is_not() {
        let rmat = Rmat::new(4096, 32_768).generate(3);
        let flat = Rmat::new(4096, 32_768)
            .with_probabilities(0.25, 0.25, 0.25)
            .generate(3);
        let s_rmat = DegreeStats::out_degrees(&rmat);
        let s_flat = DegreeStats::out_degrees(&flat);
        assert!(
            s_rmat.is_skewed(),
            "R-MAT CoV {}",
            s_rmat.coefficient_of_variation
        );
        assert!(
            !s_flat.is_skewed(),
            "uniform CoV {}",
            s_flat.coefficient_of_variation
        );
        assert!(s_rmat.top1pct_edge_share > 2.0 * s_flat.top1pct_edge_share);
    }

    #[test]
    fn dataset_profiles_are_heavy_tailed() {
        for p in DatasetProfile::all_small() {
            let g = p.generate(1);
            let s = DegreeStats::out_degrees(&g);
            assert!(
                s.is_skewed(),
                "{} CoV {}",
                p.tag,
                s.coefficient_of_variation
            );
            assert!(s.max > 50, "{} max degree {}", p.tag, s.max);
        }
    }

    #[test]
    fn zero_degree_graph() {
        let s = DegreeStats::from_degrees(&[0, 0, 0]);
        assert_eq!(s.mean, 0.0);
        assert_eq!(s.coefficient_of_variation, 0.0);
        assert_eq!(s.top1pct_edge_share, 0.0);
        assert_eq!(s.isolated_fraction, 1.0);
    }

    #[test]
    #[should_panic(expected = "at least one vertex")]
    fn empty_sequence_panics() {
        let _ = DegreeStats::from_degrees(&[]);
    }
}
