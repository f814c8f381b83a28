//! §6.4 — processing edges on ReRAM crossbars vs CMOS (Eq. 10–16).
//!
//! GraphR maps each 8×8 block onto a crossbar: every edge is *written* into
//! the array (3.91 nJ, 50.88 ns — the paper's GraphR parameters), then a
//! matrix-vector read produces the updates (1.08 pJ, 29.31 ns). Because real
//! graphs leave 8×8 blocks nearly empty (Table 1: 1.23–2.38 edges), the
//! write cost amortises over almost nothing, and a 3.7 pJ CMOS multiplier
//! wins by orders of magnitude.

use hyve_memsim::{Energy, Time};

/// Cost parameters of the GraphR-style crossbar processing path.
#[derive(Debug, Clone, PartialEq)]
pub struct CrossbarCosts {
    /// Energy to write one edge into the crossbar (`E_rram,w`).
    pub write_energy: Energy,
    /// Latency of one crossbar write (`T_rram,w`).
    pub write_latency: Time,
    /// Energy of one crossbar (matrix-vector) read (`E_rram,r`).
    pub read_energy: Energy,
    /// Latency of one crossbar read (`T_rram,r`).
    pub read_latency: Time,
    /// Crossbars ganged per value: 4 crossbars of 4-bit cells for 16-bit
    /// operands (§6.4).
    pub crossbars_per_value: u32,
    /// Rows selected in turn for non-MV algorithms (§6.4: 8).
    pub row_selects: u32,
    /// Energy of one CMOS operation at an output port (`E_op`).
    pub cmos_op_energy: Energy,
    /// Latency of one (pipelined) CMOS operation.
    pub cmos_op_latency: Time,
}

impl Default for CrossbarCosts {
    /// The paper's §7.4.3 GraphR parameters and §6.4 CMOS anchors.
    fn default() -> Self {
        CrossbarCosts {
            write_energy: Energy::from_nj(3.91),
            write_latency: Time::from_ns(50.88),
            read_energy: Energy::from_pj(1.08),
            read_latency: Time::from_ns(29.31),
            crossbars_per_value: 4,
            row_selects: 8,
            cmos_op_energy: Energy::from_pj(3.7),
            cmos_op_latency: Time::from_ns(18.783),
        }
    }
}

impl CrossbarCosts {
    /// Eq. (14): energy of one matrix-vector operation on a block with
    /// `navg` resident edges — write them all, then read once.
    pub fn block_mv_energy(&self, navg: f64) -> Energy {
        self.write_energy * navg + self.read_energy
    }

    /// Eq. (10): equivalent per-edge energy of one crossbar MV operation.
    ///
    /// # Panics
    ///
    /// Panics if `navg` is not positive.
    pub fn per_edge_energy(&self, navg: f64) -> Energy {
        assert!(navg > 0.0, "blocks must hold at least one edge on average");
        self.block_mv_energy(navg) / navg
    }

    /// Eq. (11)/(15): per-edge energy of 16-bit MV-based algorithms (PR):
    /// 4 crossbars of 4-bit cells ⇒ `4·(E_w + E_r/navg)`.
    pub fn per_edge_energy_mv(&self, navg: f64) -> Energy {
        self.per_edge_energy(navg) * f64::from(self.crossbars_per_value)
    }

    /// Eq. (13): per-edge energy of plain CMOS processing.
    pub fn cmos_per_edge_energy(&self) -> Energy {
        self.cmos_op_energy
    }

    /// Eq. (16): per-edge latency of crossbar MV processing — each edge is
    /// written (serially), the read amortises over the block.
    pub fn per_edge_latency_mv(&self, navg: f64) -> Time {
        assert!(navg > 0.0, "blocks must hold at least one edge on average");
        self.write_latency + self.read_latency / navg
    }

    /// §6.4's conclusion, as a predicate: CMOS beats the crossbar on both
    /// energy and latency for a given block occupancy.
    pub fn cmos_wins(&self, navg: f64) -> bool {
        self.per_edge_energy_mv(navg) > self.cmos_per_edge_energy()
            && self.per_edge_latency_mv(navg) > self.cmos_op_latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = CrossbarCosts::default();
        assert!((c.write_energy.as_nj() - 3.91).abs() < 1e-12);
        assert!((c.write_latency.as_ns() - 50.88).abs() < 1e-12);
        assert!((c.read_energy.as_pj() - 1.08).abs() < 1e-12);
        assert!((c.read_latency.as_ns() - 29.31).abs() < 1e-12);
    }

    #[test]
    fn cmos_wins_at_table1_occupancies() {
        let c = CrossbarCosts::default();
        // Table 1's Navg range.
        for navg in [1.23, 1.44, 1.49, 1.73, 2.38] {
            assert!(c.cmos_wins(navg), "CMOS must win at navg={navg}");
            // The gap is orders of magnitude on energy.
            let ratio = c.per_edge_energy_mv(navg) / c.cmos_per_edge_energy();
            assert!(ratio > 1000.0, "ratio {ratio} at navg={navg}");
        }
    }

    #[test]
    fn denser_blocks_amortise_reads() {
        let c = CrossbarCosts::default();
        assert!(c.per_edge_energy_mv(2.0) < c.per_edge_energy_mv(1.0));
        assert!(c.per_edge_latency_mv(2.0) < c.per_edge_latency_mv(1.0));
    }

    #[test]
    fn eq14_by_hand() {
        let c = CrossbarCosts::default();
        let e = c.block_mv_energy(2.0);
        assert!((e.as_pj() - (2.0 * 3910.0 + 1.08)).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least one edge")]
    fn zero_occupancy_panics() {
        let _ = CrossbarCosts::default().per_edge_energy(0.0);
    }
}
