//! Scaled stand-ins for the paper's five evaluation datasets (Table 2).
//!
//! The originals are SNAP graphs up to 1.47 B edges; the profiles here keep
//! each dataset's |E|/|V| ratio (which drives the read/write mix and block
//! occupancy) and R-MAT skew (which drives `Navg` and partition balance)
//! while scaling the size down to laptop-sim scale. Every figure in the
//! paper reports *ratios*, which are preserved under this scaling; the
//! substitution is documented in `DESIGN.md`.

use crate::edgelist::EdgeList;
use crate::generate::Rmat;
use std::fmt;

/// A named synthetic dataset profile.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetProfile {
    /// Full dataset name (e.g. "com-youtube").
    pub name: &'static str,
    /// The paper's two-letter tag (YT, WK, AS, LJ, TW).
    pub tag: &'static str,
    /// Vertices in the scaled profile.
    pub vertices: u32,
    /// Edges in the scaled profile.
    pub edges: usize,
    /// Vertices in the original SNAP dataset.
    pub original_vertices: u64,
    /// Edges in the original SNAP dataset.
    pub original_edges: u64,
    /// R-MAT skew parameter `a` (larger ⇒ more skew).
    pub rmat_a: f64,
    /// How many times smaller the profile is than the original (64, or 512
    /// for TW). Simulations shrink on-chip memory by the same factor, so
    /// the vertex-data : SRAM ratio matches the full-size experiment.
    pub scale: u32,
}

impl DatasetProfile {
    /// com-youtube: 1.16 M vertices / 2.99 M edges, scaled ÷64.
    pub fn youtube_scaled() -> Self {
        DatasetProfile {
            name: "com-youtube",
            tag: "YT",
            vertices: 18_125,
            edges: 46_719,
            original_vertices: 1_160_000,
            original_edges: 2_990_000,
            rmat_a: 0.57,
            scale: 64,
        }
    }

    /// wiki-talk: 2.39 M vertices / 5.02 M edges, scaled ÷64.
    /// Wiki-talk is extremely skewed (a few talk pages dominate).
    pub fn wiki_talk_scaled() -> Self {
        DatasetProfile {
            name: "wiki-talk",
            tag: "WK",
            vertices: 37_344,
            edges: 78_438,
            original_vertices: 2_390_000,
            original_edges: 5_020_000,
            rmat_a: 0.62,
            scale: 64,
        }
    }

    /// as-skitter: 1.69 M vertices / 11.1 M edges, scaled ÷64.
    /// Denser and less skewed than the social graphs (Navg = 2.38 in Table 1).
    pub fn as_skitter_scaled() -> Self {
        DatasetProfile {
            name: "as-skitter",
            tag: "AS",
            vertices: 26_406,
            edges: 173_437,
            original_vertices: 1_690_000,
            original_edges: 11_100_000,
            rmat_a: 0.52,
            scale: 64,
        }
    }

    /// live-journal: 4.85 M vertices / 69.0 M edges, scaled ÷64.
    pub fn live_journal_scaled() -> Self {
        DatasetProfile {
            name: "live-journal",
            tag: "LJ",
            vertices: 75_781,
            edges: 1_078_125,
            original_vertices: 4_850_000,
            original_edges: 69_000_000,
            rmat_a: 0.57,
            scale: 64,
        }
    }

    /// twitter-2010: 41.7 M vertices / 1.47 B edges, scaled ÷512.
    pub fn twitter_scaled() -> Self {
        DatasetProfile {
            name: "twitter-2010",
            tag: "TW",
            vertices: 81_445,
            edges: 2_871_094,
            original_vertices: 41_700_000,
            original_edges: 1_470_000_000,
            rmat_a: 0.59,
            scale: 512,
        }
    }

    /// All five profiles in the paper's (Table 2) order.
    pub fn all() -> Vec<DatasetProfile> {
        vec![
            Self::youtube_scaled(),
            Self::wiki_talk_scaled(),
            Self::as_skitter_scaled(),
            Self::live_journal_scaled(),
            Self::twitter_scaled(),
        ]
    }

    /// The four smaller profiles — convenient for fast test/bench sweeps.
    pub fn all_small() -> Vec<DatasetProfile> {
        vec![
            Self::youtube_scaled(),
            Self::wiki_talk_scaled(),
            Self::as_skitter_scaled(),
        ]
    }

    /// |E| / |V| of the scaled profile.
    pub fn density(&self) -> f64 {
        self.edges as f64 / f64::from(self.vertices)
    }

    /// |E| / |V| of the original dataset.
    pub fn original_density(&self) -> f64 {
        self.original_edges as f64 / self.original_vertices as f64
    }

    /// Generates the scaled graph deterministically.
    pub fn generate(&self, seed: u64) -> EdgeList {
        // Split the remaining probability mass between b and c, keeping a
        // nonzero d quadrant so the matrix stays properly recursive.
        let bc = (1.0 - self.rmat_a) / 2.2;
        Rmat::new(self.vertices, self.edges)
            .with_probabilities(self.rmat_a, bc, bc)
            .generate(seed ^ self.tag.len() as u64 ^ u64::from(self.vertices))
    }
}

impl fmt::Display for DatasetProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({}): {} vertices, {} edges",
            self.tag, self.name, self.vertices, self.edges
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn five_profiles_in_paper_order() {
        let all = DatasetProfile::all();
        let tags: Vec<&str> = all.iter().map(|p| p.tag).collect();
        assert_eq!(tags, vec!["YT", "WK", "AS", "LJ", "TW"]);
    }

    #[test]
    fn density_ratio_preserved() {
        for p in DatasetProfile::all() {
            let scaled = p.density();
            let original = p.original_density();
            let rel = (scaled - original).abs() / original;
            assert!(
                rel < 0.05,
                "{}: scaled density {scaled:.2} vs original {original:.2}",
                p.tag
            );
        }
    }

    #[test]
    fn generated_graphs_match_profile() {
        let p = DatasetProfile::youtube_scaled();
        let g = p.generate(1);
        assert_eq!(g.num_vertices(), p.vertices);
        assert_eq!(g.len(), p.edges);
    }

    #[test]
    fn generation_is_deterministic_per_profile() {
        let p = DatasetProfile::as_skitter_scaled();
        assert_eq!(p.generate(3), p.generate(3));
        assert_ne!(p.generate(3), p.generate(4));
    }

    #[test]
    fn profiles_generate_distinct_graphs_with_same_seed() {
        let yt = DatasetProfile::youtube_scaled().generate(1);
        let wk = DatasetProfile::wiki_talk_scaled().generate(1);
        assert_ne!(yt.num_vertices(), wk.num_vertices());
    }

    #[test]
    fn scale_matches_the_size_reduction() {
        for p in DatasetProfile::all() {
            let ratio = p.original_vertices as f64 / f64::from(p.vertices);
            let rel = (ratio - f64::from(p.scale)).abs() / f64::from(p.scale);
            assert!(rel < 0.01, "{}: ÷{ratio:.1} vs scale {}", p.tag, p.scale);
        }
        assert_eq!(DatasetProfile::twitter_scaled().scale, 512);
    }

    #[test]
    fn display_mentions_tag() {
        assert!(DatasetProfile::twitter_scaled().to_string().contains("TW"));
    }
}
