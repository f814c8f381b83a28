//! ReRAM main-memory chip model (paper Fig. 3, Table 3, §3.1, §7.2).
//!
//! A chip is organised like a commodity DRAM part: several banks, each bank a
//! grid of M×N *mats* (crossbar arrays) behind local/global decoders. HyVE's
//! edge memory uses **sub-bank interleaving** (mats within one bank stream in
//! parallel) instead of bank interleaving, so at any time only one bank per
//! chip is active — the property that makes bank-level power gating effective.
//!
//! The per-access energy/latency anchors come straight from the paper's
//! Table 3 (NVSim outputs at 22 nm). Density scaling between 4 Gb and 16 Gb
//! chips follows NVSim's wire-dominated trends: dynamic energy grows mildly
//! with die size, leakage grows roughly with peripheral area.

use crate::cell::{CellBits, ReramCellParams};
use crate::device::{DeviceKind, MemoryDevice};
use crate::error::DeviceError;
use crate::units::{Energy, Power, Time};
use std::fmt;

/// NVSim optimization target for the bank layout (paper Table 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum OptimizationTarget {
    /// Minimise energy per read operation (the configuration HyVE adopts).
    #[default]
    EnergyOptimized,
    /// Minimise the working period.
    LatencyOptimized,
}

impl fmt::Display for OptimizationTarget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OptimizationTarget::EnergyOptimized => f.write_str("energy-optimized"),
            OptimizationTarget::LatencyOptimized => f.write_str("latency-optimized"),
        }
    }
}

/// One row of the paper's Table 3: a bank configuration's read energy,
/// period and derived power-per-bit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReramBankProfile {
    /// Output port width in bits.
    pub output_bits: u32,
    /// Energy of one read access.
    pub read_energy: Energy,
    /// Working period (one access every `period`).
    pub period: Time,
}

impl ReramBankProfile {
    /// Power per output bit, the figure of merit Table 3 ranks by.
    pub fn power_per_bit(&self) -> Power {
        (self.read_energy / self.period) / f64::from(self.output_bits)
    }
}

/// The eight (target × width) rows of the paper's Table 3.
///
/// Energy-optimized banks pay a ~1.6–3× longer period for an order of
/// magnitude less energy per access; the 512-bit energy-optimized row is the
/// per-bit optimum and the configuration all later experiments use.
pub const TABLE3_PROFILES: [(OptimizationTarget, ReramBankProfile); 8] = {
    use OptimizationTarget::{EnergyOptimized, LatencyOptimized};
    macro_rules! row {
        ($t:expr, $bits:expr, $pj:expr, $ps:expr) => {
            (
                $t,
                ReramBankProfile {
                    output_bits: $bits,
                    read_energy: Energy::from_pj($pj),
                    period: Time::from_ps($ps),
                },
            )
        };
    }
    [
        row!(EnergyOptimized, 64, 20.13, 1221.0),
        row!(EnergyOptimized, 128, 33.87, 1983.0),
        row!(EnergyOptimized, 256, 57.31, 1983.0),
        row!(EnergyOptimized, 512, 102.07, 1983.0),
        row!(LatencyOptimized, 64, 381.47, 653.0),
        row!(LatencyOptimized, 128, 378.57, 590.0),
        row!(LatencyOptimized, 256, 382.37, 590.0),
        row!(LatencyOptimized, 512, 660.23, 527.0),
    ]
};

/// Looks up a Table 3 profile.
///
/// Returns `None` for widths not in the table (valid: 64, 128, 256, 512).
pub fn table3_profile(target: OptimizationTarget, output_bits: u32) -> Option<ReramBankProfile> {
    TABLE3_PROFILES
        .iter()
        .find(|(t, p)| *t == target && p.output_bits == output_bits)
        .map(|(_, p)| *p)
}

/// Configuration for a [`ReramChip`].
#[derive(Debug, Clone, PartialEq)]
pub struct ReramChipConfig {
    /// Chip density in gigabits (paper sweeps 4, 8, 16).
    pub density_gbit: u32,
    /// Number of banks per chip.
    pub banks: u32,
    /// Mats per bank (M×N grid, flattened).
    pub mats_per_bank: u32,
    /// NVSim optimization target for the bank layout.
    pub target: OptimizationTarget,
    /// Output port width in bits (must be a Table 3 width).
    pub output_bits: u32,
    /// Cell parameters (bits per cell, set energy, ...).
    pub cell: ReramCellParams,
}

impl Default for ReramChipConfig {
    /// The configuration the paper settles on: SLC cells, energy-optimized
    /// bank with 512-bit output, 4 Gb chip with 8 banks of 64 mats.
    fn default() -> Self {
        ReramChipConfig {
            density_gbit: 4,
            banks: 8,
            mats_per_bank: 64,
            target: OptimizationTarget::EnergyOptimized,
            output_bits: 512,
            cell: ReramCellParams::default(),
        }
    }
}

impl ReramChipConfig {
    /// Convenience: default configuration at a given density.
    pub fn with_density(density_gbit: u32) -> Self {
        ReramChipConfig {
            density_gbit,
            ..Default::default()
        }
    }

    /// Convenience: default configuration with a given cell type.
    pub fn with_cell_bits(bits: CellBits) -> Self {
        ReramChipConfig {
            cell: ReramCellParams::with_bits(bits),
            ..Default::default()
        }
    }

    /// Checks that the configuration names a Table 3 profile and has sane
    /// geometry.
    ///
    /// # Errors
    ///
    /// Returns a message when the output width has no Table 3 row, when the
    /// geometry is degenerate (zero banks/mats/density) or the cell
    /// parameters are unphysical.
    pub fn validate(&self) -> Result<(), String> {
        if table3_profile(self.target, self.output_bits).is_none() {
            return Err(format!(
                "output width {} has no Table 3 profile (use 64/128/256/512)",
                self.output_bits
            ));
        }
        if self.banks == 0 || self.mats_per_bank == 0 {
            return Err("chip must have at least one bank and one mat".into());
        }
        if self.density_gbit == 0 {
            return Err("density must be positive".into());
        }
        self.cell.validate()
    }
}

/// A ReRAM main-memory chip.
///
/// Produced from a [`ReramChipConfig`]; implements [`MemoryDevice`].
///
/// ```
/// use hyve_memsim::{ReramChip, ReramChipConfig, MemoryDevice};
/// let chip = ReramChip::new(ReramChipConfig::default());
/// // One 512-bit access costs the Table 3 energy at 4 Gb density:
/// assert!((chip.read_energy(512).as_pj() - 102.07).abs() < 1e-6);
/// ```
#[derive(Debug, Clone)]
pub struct ReramChip {
    config: ReramChipConfig,
    profile: ReramBankProfile,
    density_energy_factor: f64,
    leakage_per_bank: Power,
}

/// How dynamic energy scales with density relative to the 4 Gb anchor
/// (longer global wires; NVSim-style sub-linear growth).
fn density_energy_factor(density_gbit: u32) -> f64 {
    (f64::from(density_gbit) / 4.0).powf(0.20)
}

/// Peripheral leakage per bank. ReRAM cells themselves do not leak; only the
/// decoders/sense amps do, scaling with mat count and density.
fn bank_leakage(config: &ReramChipConfig) -> Power {
    let base = Power::from_mw(2.5); // 64-mat bank at 4 Gb, 22 nm
    let mat_factor = f64::from(config.mats_per_bank) / 64.0;
    let density = (f64::from(config.density_gbit) / 4.0).powf(0.5);
    base * mat_factor * density
}

impl ReramChip {
    /// Builds a chip from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid; use
    /// [`ReramChip::try_new`] for a fallible constructor.
    pub fn new(config: ReramChipConfig) -> Self {
        Self::try_new(config).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible constructor.
    ///
    /// # Errors
    ///
    /// Propagates [`ReramChipConfig::validate`] failures.
    pub fn try_new(config: ReramChipConfig) -> Result<Self, DeviceError> {
        config
            .validate()
            .map_err(|m| DeviceError::invalid("ReRAM chip", m))?;
        let profile = table3_profile(config.target, config.output_bits)
            .expect("validated config always has a profile");
        Ok(ReramChip {
            density_energy_factor: density_energy_factor(config.density_gbit),
            leakage_per_bank: bank_leakage(&config),
            config,
            profile,
        })
    }

    /// The chip's configuration.
    pub fn config(&self) -> &ReramChipConfig {
        &self.config
    }

    /// The active Table 3 bank profile (density-unscaled).
    pub fn profile(&self) -> ReramBankProfile {
        self.profile
    }

    /// Leakage power of a single powered-on bank.
    pub fn bank_leakage(&self) -> Power {
        self.leakage_per_bank
    }

    /// Number of banks on the chip.
    pub fn banks(&self) -> u32 {
        self.config.banks
    }

    /// Energy of one read access (one output-width burst), including the
    /// MLC sense-amplifier overhead amortised over the extra bits.
    pub fn access_read_energy(&self) -> Energy {
        let bits = self.config.cell.bits;
        // An N-bit cell delivers N bits per sensed cell, so an access of
        // `output_bits` data touches output_bits / N cells, but each sensing
        // is `sense_energy_factor` more expensive than SLC sensing.
        let per_access = self.profile.read_energy * self.density_energy_factor;
        per_access * (bits.sense_energy_factor() / f64::from(bits.bits()))
    }

    /// Streaming period: one output-width burst every bank working period.
    pub fn access_burst_period(&self) -> Time {
        self.profile.period * self.config.cell.bits.read_latency_factor()
    }

    /// First-access (row sensing) latency. Anchored to the 29.31 ns ReRAM
    /// read latency the paper quotes (§7.4.3); grows mildly with density
    /// and with multi-step MLC sensing.
    pub fn access_read_latency(&self) -> Time {
        Time::from_ns(29.31)
            * (f64::from(self.config.density_gbit) / 4.0).powf(0.1)
            * self.config.cell.bits.read_latency_factor()
    }

    /// Pulses per programmed cell including verify iterations. Main-memory
    /// writes use program-and-verify to hit the target resistance window,
    /// which is what makes chip-level ReRAM writes ~30 ns and the write-
    /// latency gap to DRAM so wide (§2.3).
    pub const PROGRAM_VERIFY_ROUNDS: f64 = 3.2;

    /// Latency of one write access — set pulses with program-and-verify
    /// dominate; mats within the access write in parallel.
    pub fn access_write_latency(&self) -> Time {
        self.config.cell.set_pulse
            * Self::PROGRAM_VERIFY_ROUNDS
            * self.config.cell.bits.write_energy_factor()
            + self.profile.period
    }
}

impl MemoryDevice for ReramChip {
    fn kind(&self) -> DeviceKind {
        DeviceKind::Reram
    }

    fn capacity_bits(&self) -> u64 {
        u64::from(self.config.density_gbit) << 30
    }

    fn read_energy(&self, bits: u64) -> Energy {
        let accesses = bits.div_ceil(u64::from(self.config.output_bits)).max(1);
        self.access_read_energy() * accesses as f64
    }

    /// Cell (set-pulse) energy scales with the bits actually written and
    /// with the program-and-verify rounds (every verify pulse costs energy,
    /// §2.3); peripheral energy is charged once per touched access window.
    fn write_energy(&self, bits: u64) -> Energy {
        let accesses = bits.div_ceil(u64::from(self.config.output_bits)).max(1);
        let cell = self.config.cell.write_energy_per_bit()
            * Self::PROGRAM_VERIFY_ROUNDS
            * bits.max(1) as f64;
        let peripheral = self.profile.read_energy * self.density_energy_factor * accesses as f64;
        cell + peripheral
    }

    fn read_latency(&self) -> Time {
        self.access_read_latency()
    }

    fn write_latency(&self) -> Time {
        self.access_write_latency()
    }

    fn output_bits(&self) -> u32 {
        self.config.output_bits
    }

    fn burst_period(&self) -> Time {
        self.access_burst_period()
    }

    /// All banks powered (no power gating); the gating controller in
    /// [`crate::power_gating`] reduces this to ~1 active bank.
    fn background_power(&self) -> Power {
        self.leakage_per_bank * f64::from(self.config.banks)
    }

    /// ReRAM reads are non-destructive; a random access only repays the
    /// decode path, roughly doubling cost versus a streaming hit.
    fn random_access_penalty(&self) -> f64 {
        2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_rows_match_paper_power_per_bit() {
        // The paper's printed mW/bit column, in table order.
        let expected = [0.26, 0.13, 0.11, 0.10, 9.13, 5.01, 2.53, 2.45];
        for ((_, profile), want) in TABLE3_PROFILES.iter().zip(expected) {
            let got = profile.power_per_bit().as_mw();
            assert!(
                (got - want).abs() / want < 0.05,
                "power/bit for {}b: got {got:.3}, paper says {want}",
                profile.output_bits
            );
        }
    }

    #[test]
    fn energy_optimized_512_is_per_bit_optimum() {
        let best = table3_profile(OptimizationTarget::EnergyOptimized, 512).unwrap();
        for (_, p) in TABLE3_PROFILES.iter() {
            assert!(best.power_per_bit() <= p.power_per_bit() * 1.0001);
        }
    }

    #[test]
    fn lookup_unknown_width_is_none() {
        assert!(table3_profile(OptimizationTarget::EnergyOptimized, 96).is_none());
    }

    #[test]
    fn default_chip_reads_at_table3_anchor() {
        let chip = ReramChip::new(ReramChipConfig::default());
        assert!((chip.read_energy(512).as_pj() - 102.07).abs() < 1e-6);
        assert!((chip.burst_period().as_ps() - 1983.0).abs() < 1e-6);
        assert!((chip.read_latency().as_ns() - 29.31).abs() < 1e-6);
        // Two accesses for 513 bits:
        assert!((chip.read_energy(513).as_pj() - 2.0 * 102.07).abs() < 1e-6);
    }

    #[test]
    fn streaming_amortises_first_access() {
        let chip = ReramChip::new(ReramChipConfig::default());
        // Streaming 1 Mbit: 2048 accesses, dominated by the burst period.
        let t = chip.sequential_read_time(1 << 20);
        let lower = chip.burst_period() * 2047.0;
        assert!(t > lower && t < lower + chip.read_latency() + Time::from_ns(0.001));
    }

    #[test]
    fn density_scaling_monotonic() {
        let e4 = ReramChip::new(ReramChipConfig::with_density(4));
        let e8 = ReramChip::new(ReramChipConfig::with_density(8));
        let e16 = ReramChip::new(ReramChipConfig::with_density(16));
        assert!(e4.read_energy(512) < e8.read_energy(512));
        assert!(e8.read_energy(512) < e16.read_energy(512));
        assert!(e4.background_power() < e16.background_power());
        assert_eq!(e16.capacity_bits(), 16 << 30);
    }

    #[test]
    fn writes_cost_more_than_reads() {
        let chip = ReramChip::new(ReramChipConfig::default());
        assert!(chip.write_energy(512) > chip.read_energy(512));
        // Set pulse dominates: write latency ~12 ns vs ~2 ns streaming period.
        assert!(chip.write_latency().as_ns() > 5.0 * chip.burst_period().as_ns());
    }

    #[test]
    fn mlc_reads_cost_more_per_access() {
        let slc = ReramChip::new(ReramChipConfig::with_cell_bits(CellBits::Slc));
        let mlc2 = ReramChip::new(ReramChipConfig::with_cell_bits(CellBits::Mlc2));
        let mlc3 = ReramChip::new(ReramChipConfig::with_cell_bits(CellBits::Mlc3));
        assert!(slc.read_energy(512) < mlc2.read_energy(512));
        assert!(mlc2.read_energy(512) < mlc3.read_energy(512));
        assert!(slc.read_latency() < mlc3.read_latency());
    }

    #[test]
    fn invalid_configs_rejected() {
        let c = ReramChipConfig {
            output_bits: 100,
            ..Default::default()
        };
        assert!(ReramChip::try_new(c).is_err());

        let c = ReramChipConfig {
            banks: 0,
            ..Default::default()
        };
        assert!(ReramChip::try_new(c).is_err());

        let c = ReramChipConfig {
            density_gbit: 0,
            ..Default::default()
        };
        assert!(ReramChip::try_new(c).is_err());
    }

    #[test]
    #[should_panic(expected = "invalid ReRAM chip configuration")]
    fn new_panics_on_invalid() {
        let c = ReramChipConfig {
            mats_per_bank: 0,
            ..Default::default()
        };
        let _ = ReramChip::new(c);
    }

    #[test]
    fn random_penalty_is_mild() {
        let chip = ReramChip::new(ReramChipConfig::default());
        assert_eq!(chip.random_access_penalty(), 2.0);
        assert!(
            (chip.random_read_energy(512).as_pj() - 2.0 * chip.read_energy(512).as_pj()).abs()
                < 1e-9
        );
    }

    #[test]
    fn background_power_counts_all_banks() {
        let chip = ReramChip::new(ReramChipConfig::default());
        let per_bank = chip.bank_leakage();
        assert!((chip.background_power().as_mw() - 8.0 * per_bank.as_mw()).abs() < 1e-9);
    }

    #[test]
    fn optimization_target_display() {
        assert_eq!(
            OptimizationTarget::EnergyOptimized.to_string(),
            "energy-optimized"
        );
    }
}
