//! CMOS processing-unit cost model (§6.4).
//!
//! HyVE processes edges with conventional CMOS operators. The paper anchors
//! the arithmetic path to a 32-bit floating-point multiplier: 3.7 pJ per
//! operation and 18.783 ns unpipelined latency, noting the latency "can be
//! further reduced by introducing pipelining". The comparison path
//! (BFS/CC min-updates) is far cheaper — a 32-bit comparator at 22 nm.

use hyve_memsim::{Energy, Power, Time};

/// One CMOS processing unit.
#[derive(Debug, Clone, PartialEq)]
pub struct ProcessingUnit {
    arithmetic_energy: Energy,
    compare_energy: Energy,
    pipelined_period: Time,
    leakage: Power,
}

impl ProcessingUnit {
    /// The paper's parameters: 3.7 pJ / 18.783 ns multiplier, pipelined to a
    /// 1.5 ns initiation interval (matching the on-chip SRAM cycle).
    pub fn new() -> Self {
        ProcessingUnit {
            arithmetic_energy: Energy::from_pj(3.7),
            compare_energy: Energy::from_pj(0.9),
            pipelined_period: Time::from_ns(1.5),
            leakage: Power::from_mw(8.0),
        }
    }

    /// Energy of processing one edge.
    pub fn edge_energy(&self, arithmetic: bool) -> Energy {
        if arithmetic {
            self.arithmetic_energy
        } else {
            self.compare_energy
        }
    }

    /// Steady-state per-edge period with the operator pipelined.
    pub fn pipelined_period(&self) -> Time {
        self.pipelined_period
    }

    /// Static leakage of the unit.
    pub fn leakage(&self) -> Power {
        self.leakage
    }
}

impl Default for ProcessingUnit {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn anchors_match_paper() {
        let pu = ProcessingUnit::new();
        assert!((pu.edge_energy(true).as_pj() - 3.7).abs() < 1e-12);
    }

    #[test]
    fn compare_cheaper_than_multiply() {
        let pu = ProcessingUnit::new();
        assert!(pu.edge_energy(false) < pu.edge_energy(true));
    }
}
