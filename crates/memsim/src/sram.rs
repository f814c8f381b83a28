//! On-chip SRAM model, anchored to the paper's NVSim/CACTI outputs.
//!
//! §6.3 quotes the 2 MB array the vertex memory sweet-spot analysis uses:
//! a 32-bit read costs 960.03 ps and 23.84 pJ, a 32-bit write 557.089 ps and
//! 24.74 pJ. §4.2 adds clock periods of 1.071 ns (2 MB) and 1.808 ns (4 MB),
//! which fixes the latency-vs-capacity exponent (~0.75). Leakage grows
//! linearly with capacity — the mechanism behind Table 4's "bigger SRAM is
//! not better" result.

use crate::device::{DeviceKind, MemoryDevice};
use crate::error::DeviceError;
use crate::units::{Energy, Power, Time};

/// Anchor capacity all scaling laws are normalised to (2 MB).
const ANCHOR_BYTES: u64 = 2 * 1024 * 1024;

/// Configuration of an [`SramArray`].
#[derive(Debug, Clone, PartialEq)]
pub struct SramConfig {
    /// Capacity in bytes.
    pub capacity_bytes: u64,
    /// Word width of one access in bits.
    pub word_bits: u32,
    /// Leakage power per megabyte at 22 nm.
    pub leakage_per_mb: Power,
}

impl Default for SramConfig {
    fn default() -> Self {
        SramConfig {
            capacity_bytes: ANCHOR_BYTES,
            word_bits: 32,
            leakage_per_mb: Power::from_mw(15.0),
        }
    }
}

impl SramConfig {
    /// Default configuration with the given capacity in megabytes.
    pub fn with_capacity_mb(mb: u64) -> Self {
        SramConfig {
            capacity_bytes: mb * 1024 * 1024,
            ..Default::default()
        }
    }

    /// Checks plausibility.
    ///
    /// # Errors
    ///
    /// Returns a message for zero capacity or word width.
    pub fn validate(&self) -> Result<(), String> {
        if self.capacity_bytes == 0 {
            return Err("capacity must be positive".into());
        }
        if self.word_bits == 0 {
            return Err("word width must be positive".into());
        }
        if !self.leakage_per_mb.is_valid() {
            return Err("leakage must be a finite non-negative power".into());
        }
        Ok(())
    }
}

/// An on-chip SRAM array (HyVE's local vertex memory).
///
/// ```
/// use hyve_memsim::{SramArray, SramConfig, MemoryDevice};
/// let sram = SramArray::new(SramConfig::default());
/// // The paper's 2 MB anchor: 23.84 pJ / 960.03 ps per 32-bit read.
/// assert!((sram.read_energy(32).as_pj() - 23.84).abs() < 1e-9);
/// assert!((sram.read_latency().as_ps() - 960.03).abs() < 1e-6);
/// ```
#[derive(Debug, Clone)]
pub struct SramArray {
    config: SramConfig,
    /// (capacity / 2 MB) ratio used by all scaling laws.
    cap_ratio: f64,
}

impl SramArray {
    /// Builds an array from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid; use [`SramArray::try_new`].
    pub fn new(config: SramConfig) -> Self {
        Self::try_new(config).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible constructor.
    ///
    /// # Errors
    ///
    /// Propagates [`SramConfig::validate`] failures.
    pub fn try_new(config: SramConfig) -> Result<Self, DeviceError> {
        config
            .validate()
            .map_err(|m| DeviceError::invalid("SRAM array", m))?;
        Ok(SramArray {
            cap_ratio: config.capacity_bytes as f64 / ANCHOR_BYTES as f64,
            config,
        })
    }

    /// The array's configuration.
    pub fn config(&self) -> &SramConfig {
        &self.config
    }

    /// Capacity in megabytes.
    pub fn capacity_mb(&self) -> f64 {
        self.config.capacity_bytes as f64 / (1024.0 * 1024.0)
    }

    /// Energy of one word read (anchored at 23.84 pJ for 2 MB, growing as
    /// capacity^0.45 with longer bit/word lines).
    pub fn word_read_energy(&self) -> Energy {
        Energy::from_pj(23.84) * self.cap_ratio.powf(0.45)
    }

    /// Energy of one word write (anchored at 24.74 pJ for 2 MB).
    pub fn word_write_energy(&self) -> Energy {
        Energy::from_pj(24.74) * self.cap_ratio.powf(0.45)
    }

    /// Width of a full internal row, the granularity bulk DMA transfers
    /// (interval loads/stores) use.
    pub const ROW_BITS: u64 = 512;

    /// Energy of reading one full 512-bit row. Row accesses amortise the
    /// word-line/decoder energy: one row costs ~4 word accesses rather
    /// than 16, so bulk transfers are ~4× cheaper per bit than word traffic.
    pub fn row_read_energy(&self) -> Energy {
        self.word_read_energy() * 4.0
    }

    /// Energy of writing one full 512-bit row (see
    /// [`row_read_energy`](Self::row_read_energy)).
    pub fn row_write_energy(&self) -> Energy {
        self.word_write_energy() * 4.0
    }
}

impl MemoryDevice for SramArray {
    fn kind(&self) -> DeviceKind {
        DeviceKind::Sram
    }

    fn capacity_bits(&self) -> u64 {
        self.config.capacity_bytes * 8
    }

    fn read_energy(&self, bits: u64) -> Energy {
        let words = bits.div_ceil(u64::from(self.config.word_bits)).max(1);
        self.word_read_energy() * words as f64
    }

    fn write_energy(&self, bits: u64) -> Energy {
        let words = bits.div_ceil(u64::from(self.config.word_bits)).max(1);
        self.word_write_energy() * words as f64
    }

    fn read_latency(&self) -> Time {
        self.word_read_latency()
    }

    fn write_latency(&self) -> Time {
        self.word_write_latency()
    }

    fn output_bits(&self) -> u32 {
        self.config.word_bits
    }

    fn background_power(&self) -> Power {
        self.config.leakage_per_mb * self.capacity_mb()
    }

    /// SRAM serves random words at full speed — the property the whole
    /// HyVE vertex hierarchy is built around.
    fn random_access_penalty(&self) -> f64 {
        1.0
    }

    /// Latency of one word read (anchored at 960.03 ps for 2 MB; the
    /// 1.071 ns → 1.808 ns clock growth from 2 MB to 4 MB fixes the 0.75
    /// exponent).
    fn word_read_latency(&self) -> Time {
        Time::from_ps(960.03) * self.cap_ratio.powf(0.75)
    }

    /// Latency of one word write (anchored at 557.089 ps for 2 MB).
    fn word_write_latency(&self) -> Time {
        Time::from_ps(557.089) * self.cap_ratio.powf(0.75)
    }

    /// Bulk transfers move full 512-bit rows (see
    /// [`SramArray::row_write_energy`]), ~4× cheaper per bit than word
    /// traffic — this override is what lets the engine drive the on-chip
    /// tier through the [`MemoryDevice`] interface alone.
    fn bulk_write_energy(&self, bits: u64) -> Energy {
        self.row_write_energy() * bits.div_ceil(SramArray::ROW_BITS).max(1) as f64
    }

    fn bulk_read_energy(&self, bits: u64) -> Energy {
        self.row_read_energy() * bits.div_ceil(SramArray::ROW_BITS).max(1) as f64
    }

    /// Time to stream `bits` bits in or out at row granularity.
    fn bulk_transfer_time(&self, bits: u64) -> Time {
        self.word_write_latency() * bits.div_ceil(SramArray::ROW_BITS).max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn anchor_matches_paper() {
        let s = SramArray::new(SramConfig::default());
        assert!((s.word_read_energy().as_pj() - 23.84).abs() < 1e-9);
        assert!((s.word_write_energy().as_pj() - 24.74).abs() < 1e-9);
        assert!((s.word_read_latency().as_ps() - 960.03).abs() < 1e-6);
        assert!((s.word_write_latency().as_ps() - 557.089).abs() < 1e-6);
    }

    #[test]
    fn latency_scaling_reproduces_4mb_clock_growth() {
        // §4.2: 1.071 ns (2 MB) vs 1.808 ns (4 MB) ⇒ ratio ≈ 1.69 ≈ 2^0.75.
        let s2 = SramArray::new(SramConfig::with_capacity_mb(2));
        let s4 = SramArray::new(SramConfig::with_capacity_mb(4));
        let ratio = s4.word_read_latency() / s2.word_read_latency();
        assert!((ratio - 1.69).abs() < 0.05, "got ratio {ratio}");
    }

    #[test]
    fn leakage_linear_in_capacity() {
        let s2 = SramArray::new(SramConfig::with_capacity_mb(2));
        let s16 = SramArray::new(SramConfig::with_capacity_mb(16));
        let ratio = s16.background_power().as_mw() / s2.background_power().as_mw();
        assert!((ratio - 8.0).abs() < 1e-9);
    }

    #[test]
    fn multi_word_access_energy() {
        let s = SramArray::new(SramConfig::default());
        // A 64-bit edge-sized read is two words.
        assert!((s.read_energy(64).as_pj() - 2.0 * 23.84).abs() < 1e-9);
        // Partial word rounds up.
        assert!((s.read_energy(33).as_pj() - 2.0 * 23.84).abs() < 1e-9);
    }

    #[test]
    fn random_equals_sequential() {
        let s = SramArray::new(SramConfig::default());
        assert_eq!(s.random_read_energy(32), s.read_energy(32));
        assert_eq!(s.random_access_penalty(), 1.0);
    }

    #[test]
    fn bulk_transfers_amortise_rows() {
        let s = SramArray::new(SramConfig::default());
        let d: &dyn MemoryDevice = &s;
        assert_eq!(d.bulk_read_energy(4096), s.row_read_energy() * 8.0);
        assert_eq!(d.bulk_write_energy(4096), s.row_write_energy() * 8.0);
        // The row amortisation really differs from word traffic.
        assert!(d.bulk_read_energy(4096) < d.read_energy(4096));
    }

    #[test]
    fn invalid_configs_rejected() {
        let c = SramConfig {
            capacity_bytes: 0,
            ..Default::default()
        };
        assert!(SramArray::try_new(c).is_err());
        let c = SramConfig {
            word_bits: 0,
            ..Default::default()
        };
        assert!(SramArray::try_new(c).is_err());
    }

    #[test]
    fn capacity_reporting() {
        let s = SramArray::new(SramConfig::with_capacity_mb(8));
        assert_eq!(s.capacity_bits(), 8 * 1024 * 1024 * 8);
        assert!((s.capacity_mb() - 8.0).abs() < 1e-12);
    }
}
