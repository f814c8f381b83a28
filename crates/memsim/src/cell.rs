//! Memory-cell parameter sets.
//!
//! The HyVE paper (§7.1) pins the ReRAM cell to concrete NVSim inputs:
//! 0.4 V read voltage, 0.7 V set voltage, current-mode read at 0.16 µW,
//! 10 ns set pulse at 0.6 pJ, R_on = 100 kΩ and R_off = 10 MΩ at read
//! voltage. Multi-level cells (§7.2.1) store N bits in 2^N resistance levels
//! and pay for it with extra sense amplifiers — modelled here after the
//! parallel-sensing scheme of Xu et al. (DAC'13), the same reference the
//! paper patched into NVSim.

use crate::units::{Energy, Power, Time};
use std::fmt;

/// Number of bits stored per ReRAM cell (paper Fig. 13 sweeps 1–3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CellBits {
    /// Single-level cell: two resistance states, one bit.
    Slc,
    /// Multi-level cell with 4 resistance levels (2 bits).
    Mlc2,
    /// Multi-level cell with 8 resistance levels (3 bits).
    Mlc3,
}

impl CellBits {
    /// Bits of data stored in one cell.
    pub fn bits(self) -> u32 {
        match self {
            CellBits::Slc => 1,
            CellBits::Mlc2 => 2,
            CellBits::Mlc3 => 3,
        }
    }

    /// Number of distinguishable resistance levels (2^bits).
    pub fn levels(self) -> u32 {
        1 << self.bits()
    }

    /// All supported cell configurations, in increasing density order.
    pub fn all() -> [CellBits; 3] {
        [CellBits::Slc, CellBits::Mlc2, CellBits::Mlc3]
    }

    /// Relative sense-amplifier energy cost of a read, normalised to SLC.
    ///
    /// Parallel sensing of an N-bit cell requires `2^N - 1` reference
    /// comparisons instead of 1, and finer sensing margins raise the cost of
    /// each comparison. The paper's observation (Fig. 13) is that this
    /// overhead outweighs the density win, so SLC is the right choice.
    pub fn sense_energy_factor(self) -> f64 {
        let comparisons = (self.levels() - 1) as f64;
        // Finer margins: ~15% extra energy per additional resolved bit.
        let margin = 1.0 + 0.15 * (self.bits() - 1) as f64;
        comparisons * margin
    }

    /// Relative write (set/reset) energy cost, normalised to SLC.
    ///
    /// Program-and-verify for intermediate levels needs several pulses.
    pub fn write_energy_factor(self) -> f64 {
        match self {
            CellBits::Slc => 1.0,
            CellBits::Mlc2 => 2.4,
            CellBits::Mlc3 => 4.1,
        }
    }

    /// Relative read latency, normalised to SLC (multi-step sensing).
    pub fn read_latency_factor(self) -> f64 {
        1.0 + 0.35 * (self.bits() - 1) as f64
    }
}

impl fmt::Display for CellBits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}bit", self.bits())
    }
}

/// ReRAM cell parameters, defaulting to the paper's §7.1 NVSim inputs.
#[derive(Debug, Clone, PartialEq)]
pub struct ReramCellParams {
    /// Voltage applied for a read access (V).
    pub read_voltage_v: f64,
    /// Voltage applied for a set (write-1) operation (V).
    pub set_voltage_v: f64,
    /// Read power drawn by one cell in current-mode sensing.
    pub read_power: Power,
    /// Duration of a set pulse.
    pub set_pulse: Time,
    /// Energy of one set pulse.
    pub set_energy: Energy,
    /// Low-resistance state at read voltage (Ω).
    pub on_resistance_ohm: f64,
    /// High-resistance state at read voltage (Ω).
    pub off_resistance_ohm: f64,
    /// Bits stored per cell.
    pub bits: CellBits,
}

impl Default for ReramCellParams {
    fn default() -> Self {
        ReramCellParams {
            read_voltage_v: 0.4,
            set_voltage_v: 0.7,
            read_power: Power::from_uw(0.16),
            set_pulse: Time::from_ns(10.0),
            set_energy: Energy::from_pj(0.6),
            on_resistance_ohm: 100e3,
            off_resistance_ohm: 10e6,
            bits: CellBits::Slc,
        }
    }
}

impl ReramCellParams {
    /// Cell parameters for a given bits-per-cell setting.
    pub fn with_bits(bits: CellBits) -> Self {
        ReramCellParams {
            bits,
            ..Default::default()
        }
    }

    /// Ratio of off- to on-resistance; sensing margin sanity metric.
    pub fn resistance_ratio(&self) -> f64 {
        self.off_resistance_ohm / self.on_resistance_ohm
    }

    /// Energy to write one *bit* (set-pulse energy amortised over bits,
    /// inflated by the MLC program-and-verify factor).
    pub fn write_energy_per_bit(&self) -> Energy {
        self.set_energy * self.bits.write_energy_factor() / f64::from(self.bits.bits())
    }

    /// Checks physical plausibility of the parameter set.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message when a voltage, resistance, time or
    /// energy is non-positive or non-finite, or when the off/on resistance
    /// ratio is not > 1 (cells would be unreadable).
    pub fn validate(&self) -> Result<(), String> {
        if !(self.read_voltage_v.is_finite() && self.read_voltage_v > 0.0) {
            return Err("read voltage must be positive".into());
        }
        if !(self.set_voltage_v.is_finite() && self.set_voltage_v > 0.0) {
            return Err("set voltage must be positive".into());
        }
        if self.set_voltage_v < self.read_voltage_v {
            return Err("set voltage must be at least the read voltage".into());
        }
        if !self.read_power.is_valid() || self.read_power == Power::ZERO {
            return Err("read power must be positive".into());
        }
        if !self.set_pulse.is_valid() || self.set_pulse == Time::ZERO {
            return Err("set pulse must be positive".into());
        }
        if !self.set_energy.is_valid() || self.set_energy == Energy::ZERO {
            return Err("set energy must be positive".into());
        }
        if self.resistance_ratio() <= 1.0 {
            return Err("off resistance must exceed on resistance".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_cell_matches_paper() {
        let c = ReramCellParams::default();
        assert_eq!(c.read_voltage_v, 0.4);
        assert_eq!(c.set_voltage_v, 0.7);
        assert!((c.read_power.as_uw() - 0.16).abs() < 1e-12);
        assert!((c.set_pulse.as_ns() - 10.0).abs() < 1e-12);
        assert!((c.set_energy.as_pj() - 0.6).abs() < 1e-12);
        assert_eq!(c.resistance_ratio(), 100.0);
        c.validate().expect("paper defaults must be valid");
    }

    #[test]
    fn mlc_levels_and_bits() {
        assert_eq!(CellBits::Slc.bits(), 1);
        assert_eq!(CellBits::Mlc2.levels(), 4);
        assert_eq!(CellBits::Mlc3.levels(), 8);
    }

    #[test]
    fn mlc_sense_overhead_grows_faster_than_density() {
        // The whole point of Fig. 13: energy per *bit* read gets worse
        // with more bits per cell.
        for pair in CellBits::all().windows(2) {
            let (lo, hi) = (pair[0], pair[1]);
            let lo_per_bit = lo.sense_energy_factor() / f64::from(lo.bits());
            let hi_per_bit = hi.sense_energy_factor() / f64::from(hi.bits());
            assert!(
                hi_per_bit > lo_per_bit,
                "per-bit sense energy must increase: {lo} -> {hi}"
            );
        }
    }

    #[test]
    fn mlc_write_factor_monotonic() {
        assert!(CellBits::Slc.write_energy_factor() < CellBits::Mlc2.write_energy_factor());
        assert!(CellBits::Mlc2.write_energy_factor() < CellBits::Mlc3.write_energy_factor());
    }

    #[test]
    fn validation_rejects_bad_cells() {
        let c = ReramCellParams {
            read_voltage_v: -0.4,
            ..Default::default()
        };
        assert!(c.validate().is_err());

        let c = ReramCellParams {
            on_resistance_ohm: 20e6,
            ..Default::default()
        }; // higher than off
        assert!(c.validate().is_err());

        let c = ReramCellParams {
            set_voltage_v: 0.1,
            ..Default::default()
        }; // below read voltage
        assert!(c.validate().is_err());
    }

    #[test]
    fn display_cell_bits() {
        assert_eq!(CellBits::Slc.to_string(), "1bit");
        assert_eq!(CellBits::Mlc3.to_string(), "3bit");
    }
}
