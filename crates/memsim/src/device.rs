//! The [`MemoryDevice`] abstraction shared by every technology model.
//!
//! HyVE's memory controller (and the §6 analytic model) only ever asks a
//! device five questions: energy of a read, energy of a write, latency of
//! each, and background power while idle-but-powered. Each technology crate
//! answers from its own physics; the simulator stays device-agnostic.

use crate::units::{Energy, Power, Time};
use std::fmt;

/// Which memory technology a device models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceKind {
    /// Resistive RAM main memory.
    Reram,
    /// DDR-style dynamic RAM.
    Dram,
    /// On-chip static RAM.
    Sram,
    /// Small register-file storage (GraphR's local vertex store).
    RegisterFile,
}

impl fmt::Display for DeviceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DeviceKind::Reram => "ReRAM",
            DeviceKind::Dram => "DRAM",
            DeviceKind::Sram => "SRAM",
            DeviceKind::RegisterFile => "RegFile",
        };
        f.write_str(s)
    }
}

/// Per-operation energy/latency interface implemented by every device model.
///
/// Energies are for an access of `bits` data bits (device models amortise
/// peripheral costs over the burst). Latencies are per *access*, independent
/// of burst length for the sizes used here.
pub trait MemoryDevice {
    /// Technology tag (used in reports and breakdowns).
    fn kind(&self) -> DeviceKind;

    /// Total capacity in bits.
    fn capacity_bits(&self) -> u64;

    /// Dynamic energy to read `bits` bits (sequential within one access).
    fn read_energy(&self, bits: u64) -> Energy;

    /// Dynamic energy to write `bits` bits.
    fn write_energy(&self, bits: u64) -> Energy;

    /// Latency of the *first* (or a random) read access — includes row
    /// sensing / CAS-style delays.
    fn read_latency(&self) -> Time;

    /// Latency of one write access.
    fn write_latency(&self) -> Time;

    /// Access granularity: bits delivered per access/burst.
    fn output_bits(&self) -> u32 {
        512
    }

    /// Per-access period once a sequential stream is flowing (pipelined
    /// back-to-back accesses). Defaults to the full read latency for devices
    /// without a streaming mode.
    fn burst_period(&self) -> Time {
        self.read_latency()
    }

    /// Time to stream `bits` bits sequentially: one full-latency access to
    /// prime the pipeline, then one burst period per subsequent access.
    fn sequential_read_time(&self, bits: u64) -> Time {
        let accesses = bits.div_ceil(u64::from(self.output_bits())).max(1);
        self.read_latency() + self.burst_period() * (accesses - 1) as f64
    }

    /// Per-access period of a *sequential write* stream. DRAM-style devices
    /// pipeline write bursts into an open row, so this approaches the burst
    /// period; program-pulse devices (ReRAM) stay at the full write latency —
    /// the "high write bandwidth" asymmetry that makes DRAM the right
    /// write-back target (HyVE §3.2).
    fn sequential_write_period(&self) -> Time {
        self.write_latency()
    }

    /// Background power while powered on (leakage + refresh where relevant).
    fn background_power(&self) -> Power;

    /// Extra penalty multiplier for a *random* (non-row-buffer-friendly)
    /// access relative to a sequential one. 1.0 means random costs the same.
    fn random_access_penalty(&self) -> f64 {
        1.0
    }

    /// Energy of a random read of `bits` bits (default: sequential energy
    /// scaled by [`random_access_penalty`](Self::random_access_penalty)).
    fn random_read_energy(&self, bits: u64) -> Energy {
        self.read_energy(bits) * self.random_access_penalty()
    }

    /// Energy of a random write of `bits` bits.
    fn random_write_energy(&self, bits: u64) -> Energy {
        self.write_energy(bits) * self.random_access_penalty()
    }

    /// Latency of reading one *word* from an already-selected location —
    /// the per-edge pipeline stage cost (Eq. 1). Word-addressed on-chip
    /// tiers (SRAM, register files) answer with their word access time;
    /// row/burst devices default to the full access latency.
    fn word_read_latency(&self) -> Time {
        self.read_latency()
    }

    /// Latency of writing one word (see
    /// [`word_read_latency`](Self::word_read_latency)).
    fn word_write_latency(&self) -> Time {
        self.write_latency()
    }

    /// Energy of a bulk (DMA-style) transfer of `bits` bits *into* the
    /// device. Row-organised on-chip tiers override this to amortise
    /// word-line/decoder energy over full rows; the default charges the
    /// ordinary sequential write energy.
    fn bulk_write_energy(&self, bits: u64) -> Energy {
        self.write_energy(bits)
    }

    /// Energy of a bulk transfer of `bits` bits *out of* the device (see
    /// [`bulk_write_energy`](Self::bulk_write_energy)).
    fn bulk_read_energy(&self, bits: u64) -> Energy {
        self.read_energy(bits)
    }

    /// Time to stream `bits` bits in or out at the device's bulk-transfer
    /// granularity. Defaults to the sequential read stream time.
    fn bulk_transfer_time(&self, bits: u64) -> Time {
        self.sequential_read_time(bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Fake;
    impl MemoryDevice for Fake {
        fn kind(&self) -> DeviceKind {
            DeviceKind::Sram
        }
        fn capacity_bits(&self) -> u64 {
            1024
        }
        fn read_energy(&self, bits: u64) -> Energy {
            Energy::from_pj(bits as f64)
        }
        fn write_energy(&self, bits: u64) -> Energy {
            Energy::from_pj(2.0 * bits as f64)
        }
        fn read_latency(&self) -> Time {
            Time::from_ns(1.0)
        }
        fn write_latency(&self) -> Time {
            Time::from_ns(2.0)
        }
        fn background_power(&self) -> Power {
            Power::from_mw(1.0)
        }
        fn random_access_penalty(&self) -> f64 {
            3.0
        }
    }

    #[test]
    fn random_defaults_scale_sequential() {
        let d = Fake;
        assert_eq!(d.random_read_energy(10).as_pj(), 30.0);
        assert_eq!(d.random_write_energy(10).as_pj(), 60.0);
    }

    #[test]
    fn reference_impl_delegates() {
        let d = Fake;
        let r: &dyn MemoryDevice = &d;
        assert_eq!(r.kind(), DeviceKind::Sram);
        assert_eq!(r.capacity_bits(), 1024);
        assert_eq!(d.read_latency(), Time::from_ns(1.0));
        assert_eq!(d.random_access_penalty(), 3.0);
        assert_eq!(d.output_bits(), 512);
        assert_eq!(d.burst_period(), Time::from_ns(1.0));
    }

    #[test]
    fn sequential_stream_time_pipelines() {
        let d = Fake;
        // 1024 bits = 2 accesses of 512: first pays latency, second one period.
        let t = d.sequential_read_time(1024);
        assert_eq!(t, Time::from_ns(2.0));
        // Zero bits still costs one access.
        assert_eq!(d.sequential_read_time(0), Time::from_ns(1.0));
    }

    #[test]
    fn bulk_and_word_defaults_fall_back_to_access_costs() {
        let d = Fake;
        assert_eq!(d.word_read_latency(), d.read_latency());
        assert_eq!(d.word_write_latency(), d.write_latency());
        assert_eq!(d.bulk_read_energy(128), d.read_energy(128));
        assert_eq!(d.bulk_write_energy(128), d.write_energy(128));
        assert_eq!(d.bulk_transfer_time(1024), d.sequential_read_time(1024));
        // A trait object dispatches the extended surface too.
        let r: &dyn MemoryDevice = &d;
        assert_eq!(r.word_read_latency(), d.read_latency());
        assert_eq!(r.bulk_transfer_time(1024), d.sequential_read_time(1024));
    }

    #[test]
    fn kind_display() {
        assert_eq!(DeviceKind::Reram.to_string(), "ReRAM");
        assert_eq!(DeviceKind::RegisterFile.to_string(), "RegFile");
    }
}
