//! Run accounting: per-component energy breakdown (Fig. 17), phase times,
//! the headline MTEPS/W metric, and the reliability outcome of fault runs.

use crate::controller::BankRemap;
use hyve_memsim::{AccessStats, Energy, EnergyDelay, Time};
use std::fmt;

/// Energy split by hierarchy component — the paper's Fig. 17 categories
/// ("Other logic units", "Edge Memory", "Vertex Memory"), with vertex memory
/// further split on/off-chip.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergyBreakdown {
    /// Edge-memory channel (dynamic + background).
    pub edge_memory: AccessStats,
    /// Off-chip (global) vertex memory.
    pub offchip_vertex: AccessStats,
    /// On-chip (local) vertex memory.
    pub onchip_vertex: AccessStats,
    /// Processing units, router, controller.
    pub logic: AccessStats,
}

impl EnergyBreakdown {
    /// Total energy across all components.
    pub fn total(&self) -> Energy {
        self.edge_memory.total_energy()
            + self.offchip_vertex.total_energy()
            + self.onchip_vertex.total_energy()
            + self.logic.total_energy()
    }

    /// Combined vertex-memory energy (Fig. 17 groups on- and off-chip).
    pub fn vertex_memory(&self) -> Energy {
        self.offchip_vertex.total_energy() + self.onchip_vertex.total_energy()
    }

    /// Fraction of total energy spent in memory (edge + vertex) — the
    /// quantity the paper tracks from 88.62% (SD) down to 52.91% (opt).
    pub fn memory_fraction(&self) -> f64 {
        let total = self.total();
        if total == Energy::ZERO {
            return 0.0;
        }
        (self.edge_memory.total_energy() + self.vertex_memory()) / total
    }

    /// Scales every component's dynamic counters by an iteration count:
    /// access and bit counts, dynamic energy and busy time. Call it before
    /// charging background energy, which accrues over the *total* runtime
    /// and must not be scaled again. Counts multiply as integers, so they
    /// stay exact past 2⁵³.
    pub fn scale_by_iterations(&mut self, iterations: u32) {
        let (n, x) = (u64::from(iterations), f64::from(iterations));
        for stats in [
            &mut self.edge_memory,
            &mut self.offchip_vertex,
            &mut self.onchip_vertex,
            &mut self.logic,
        ] {
            stats.reads *= n;
            stats.writes *= n;
            stats.bits_read *= n;
            stats.bits_written *= n;
            stats.dynamic_energy *= x;
            stats.busy_time *= x;
        }
    }
}

impl fmt::Display for EnergyBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let total = self.total();
        let pct = |e: Energy| {
            if total == Energy::ZERO {
                0.0
            } else {
                100.0 * (e / total)
            }
        };
        write!(
            f,
            "edge {} ({:.1}%), vertex {} ({:.1}%), logic {} ({:.1}%)",
            self.edge_memory.total_energy(),
            pct(self.edge_memory.total_energy()),
            self.vertex_memory(),
            pct(self.vertex_memory()),
            self.logic.total_energy(),
            pct(self.logic.total_energy()),
        )
    }
}

/// Wall-clock time split across Algorithm 2's phases.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseTimes {
    /// Loading intervals into on-chip memory.
    pub loading: Time,
    /// Streaming and processing edges.
    pub processing: Time,
    /// Writing destination intervals back.
    pub updating: Time,
    /// Rerouting + synchronisation overhead.
    pub overhead: Time,
}

impl PhaseTimes {
    /// Total elapsed time.
    pub fn total(&self) -> Time {
        self.loading + self.processing + self.updating + self.overhead
    }

    /// The four phases with their stable names, in schedule order — the
    /// shape trace serialization and report pretty-printers iterate over.
    pub fn named(&self) -> [(&'static str, Time); 4] {
        [
            ("loading", self.loading),
            ("processing", self.processing),
            ("updating", self.updating),
            ("overhead", self.overhead),
        ]
    }
}

/// Reliability outcome of one run under an active
/// [`FaultPlan`](hyve_memsim::FaultPlan).
///
/// All counts are run totals across every channel; remaps cover the edge
/// channel, the only one with bank sparing. `None` on a [`RunReport`]
/// means the run executed fault-free (the default).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReliabilityReport {
    /// Bit errors corrected in-line by ECC.
    pub corrected: u64,
    /// Detectable-but-uncorrectable errors (each triggers retries).
    pub uncorrectable: u64,
    /// Total re-read attempts across all uncorrectable errors.
    pub retries: u64,
    /// Edge banks remapped onto spares, in escalation order.
    pub remaps: Vec<BankRemap>,
    /// Spare banks the edge channel reserved for this run.
    pub spare_banks: u64,
    /// Persistent faults that found no spare (lost capacity).
    pub unspared: u64,
    /// Fraction of edge-bank capacity lost to faults and spares in use.
    pub degraded_fraction: f64,
}

impl fmt::Display for ReliabilityReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} corrected, {} uncorrectable ({} retries), {} bank remap(s), {:.2}% capacity degraded",
            self.corrected,
            self.uncorrectable,
            self.retries,
            self.remaps.len(),
            100.0 * self.degraded_fraction,
        )
    }
}

/// Complete result of an engine run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Algorithm name.
    pub algorithm: &'static str,
    /// Configuration name.
    pub config: &'static str,
    /// Iterations executed.
    pub iterations: u32,
    /// Total edge traversals across all iterations.
    pub edges_processed: u64,
    /// Interval partition count `P` the scheduler chose.
    pub intervals: u32,
    /// Phase time split.
    pub phases: PhaseTimes,
    /// Per-component energy.
    pub breakdown: EnergyBreakdown,
    /// Reliability outcome; `None` for fault-free runs (the default).
    pub reliability: Option<ReliabilityReport>,
}

impl RunReport {
    /// Total elapsed simulated time.
    pub fn elapsed(&self) -> Time {
        self.phases.total()
    }

    /// Total energy.
    pub fn energy(&self) -> Energy {
        self.breakdown.total()
    }

    /// Energy-delay product.
    pub fn edp(&self) -> EnergyDelay {
        self.energy() * self.elapsed()
    }

    /// Traversal throughput in millions of edges per second.
    pub fn mteps(&self) -> f64 {
        if self.elapsed() == Time::ZERO {
            return 0.0;
        }
        self.edges_processed as f64 / self.elapsed().as_s() / 1e6
    }

    /// The paper's headline metric: millions of traversed edges per second
    /// per watt — numerically, traversed edges per microjoule.
    pub fn mteps_per_watt(&self) -> f64 {
        let e = self.energy();
        if e == Energy::ZERO {
            return 0.0;
        }
        self.edges_processed as f64 / e.as_uj()
    }
}

impl fmt::Display for RunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} on {}: {} iters, {} edges, {} elapsed, {} total, {:.1} MTEPS/W [{}]",
            self.algorithm,
            self.config,
            self.iterations,
            self.edges_processed,
            self.elapsed(),
            self.energy(),
            self.mteps_per_watt(),
            self.breakdown,
        )?;
        if let Some(rel) = &self.reliability {
            write!(f, " | reliability: {rel}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> RunReport {
        let mut breakdown = EnergyBreakdown::default();
        breakdown
            .edge_memory
            .record_read(512, Energy::from_pj(100.0), Time::from_ns(2.0));
        breakdown
            .onchip_vertex
            .record_read(32, Energy::from_pj(24.0), Time::from_ns(1.0));
        breakdown
            .logic
            .record_read(0, Energy::from_pj(4.0), Time::ZERO);
        RunReport {
            algorithm: "PR",
            config: "acc+HyVE",
            iterations: 10,
            edges_processed: 1000,
            intervals: 8,
            phases: PhaseTimes {
                loading: Time::from_ns(100.0),
                processing: Time::from_ns(800.0),
                updating: Time::from_ns(90.0),
                overhead: Time::from_ns(10.0),
            },
            breakdown,
            reliability: None,
        }
    }

    #[test]
    fn totals_add_up() {
        let r = report();
        assert!((r.energy().as_pj() - 128.0).abs() < 1e-9);
        assert!((r.elapsed().as_ns() - 1000.0).abs() < 1e-9);
        assert!((r.edp().as_pj_ns() - 128_000.0).abs() < 1e-6);
    }

    #[test]
    fn mteps_per_watt_is_edges_per_microjoule() {
        let r = report();
        // 1000 edges / 128 pJ = 1000 / 1.28e-4 uJ.
        let expect = 1000.0 / (128.0 * 1e-6);
        assert!((r.mteps_per_watt() - expect).abs() / expect < 1e-12);
    }

    #[test]
    fn mteps() {
        let r = report();
        // 1000 edges in 1 us = 1e9 edges/s = 1000 MTEPS.
        assert!((r.mteps() - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn memory_fraction() {
        let r = report();
        let frac = r.breakdown.memory_fraction();
        assert!((frac - 124.0 / 128.0).abs() < 1e-12);
    }

    #[test]
    fn zero_report_is_safe() {
        let r = RunReport {
            algorithm: "BFS",
            config: "x",
            iterations: 0,
            edges_processed: 0,
            intervals: 1,
            phases: PhaseTimes::default(),
            breakdown: EnergyBreakdown::default(),
            reliability: None,
        };
        assert_eq!(r.mteps(), 0.0);
        assert_eq!(r.mteps_per_watt(), 0.0);
        assert_eq!(r.breakdown.memory_fraction(), 0.0);
    }

    #[test]
    fn display_contains_headline() {
        let s = report().to_string();
        assert!(s.contains("PR"));
        assert!(s.contains("MTEPS/W"));
        assert!(
            !s.contains("reliability"),
            "fault-free reports stay silent about reliability"
        );
    }

    #[test]
    fn reliability_surfaces_in_display() {
        let mut r = report();
        r.reliability = Some(ReliabilityReport {
            corrected: 12,
            uncorrectable: 2,
            retries: 5,
            remaps: vec![BankRemap {
                chip: 0,
                bank: 3,
                spare_chip: 7,
                spare_bank: 7,
            }],
            spare_banks: 2,
            unspared: 0,
            degraded_fraction: 1.0 / 64.0,
        });
        let s = r.to_string();
        assert!(s.contains("reliability"));
        assert!(s.contains("12 corrected"));
        assert!(s.contains("1 bank remap"));
    }
}
