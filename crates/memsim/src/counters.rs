//! Access accounting shared by the simulator's memory channels.

use crate::units::{Energy, Time};
use std::fmt;
use std::ops::{Add, AddAssign};

/// Running totals of accesses, moved bits, dynamic energy and busy time for
/// one memory channel.
///
/// The HyVE engine keeps one `AccessStats` per hierarchy level (edge memory,
/// off-chip vertex memory, on-chip vertex memory, processing units) and sums
/// them into the paper's Fig. 17 energy breakdown.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AccessStats {
    /// Number of read operations.
    pub reads: u64,
    /// Number of write operations.
    pub writes: u64,
    /// Total bits read.
    pub bits_read: u64,
    /// Total bits written.
    pub bits_written: u64,
    /// Accumulated dynamic energy.
    pub dynamic_energy: Energy,
    /// Accumulated background (leakage/refresh) energy.
    pub background_energy: Energy,
    /// Accumulated device busy time.
    pub busy_time: Time,
}

impl AccessStats {
    /// A zeroed counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a read of `bits` bits costing `energy` and `latency`.
    pub fn record_read(&mut self, bits: u64, energy: Energy, latency: Time) {
        self.reads += 1;
        self.bits_read += bits;
        self.dynamic_energy += energy;
        self.busy_time += latency;
    }

    /// Records a write of `bits` bits costing `energy` and `latency`.
    pub fn record_write(&mut self, bits: u64, energy: Energy, latency: Time) {
        self.writes += 1;
        self.bits_written += bits;
        self.dynamic_energy += energy;
        self.busy_time += latency;
    }

    /// Adds background energy accrued over some wall-clock interval.
    pub fn record_background(&mut self, energy: Energy) {
        self.background_energy += energy;
    }

    /// Total bits moved in either direction.
    pub fn bits_moved(&self) -> u64 {
        self.bits_read + self.bits_written
    }

    /// Total energy: dynamic plus background.
    pub fn total_energy(&self) -> Energy {
        self.dynamic_energy + self.background_energy
    }
}

impl Add for AccessStats {
    type Output = AccessStats;
    fn add(self, rhs: AccessStats) -> AccessStats {
        AccessStats {
            reads: self.reads + rhs.reads,
            writes: self.writes + rhs.writes,
            bits_read: self.bits_read + rhs.bits_read,
            bits_written: self.bits_written + rhs.bits_written,
            dynamic_energy: self.dynamic_energy + rhs.dynamic_energy,
            background_energy: self.background_energy + rhs.background_energy,
            busy_time: self.busy_time + rhs.busy_time,
        }
    }
}

impl AddAssign for AccessStats {
    fn add_assign(&mut self, rhs: AccessStats) {
        *self = *self + rhs;
    }
}

impl fmt::Display for AccessStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} reads / {} writes, {} bits moved, dyn {}, bg {}",
            self.reads,
            self.writes,
            self.bits_moved(),
            self.dynamic_energy,
            self.background_energy
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_accumulate() {
        let mut s = AccessStats::new();
        s.record_read(64, Energy::from_pj(10.0), Time::from_ns(1.0));
        s.record_write(32, Energy::from_pj(20.0), Time::from_ns(2.0));
        s.record_background(Energy::from_pj(5.0));
        assert_eq!(s.reads, 1);
        assert_eq!(s.writes, 1);
        assert_eq!(s.bits_read, 64);
        assert_eq!(s.bits_written, 32);
        assert_eq!(s.bits_moved(), 96);
        assert_eq!(s.dynamic_energy.as_pj(), 30.0);
        assert_eq!(s.total_energy().as_pj(), 35.0);
        assert_eq!(s.busy_time.as_ns(), 3.0);
    }

    #[test]
    fn addition_merges_channels() {
        let mut a = AccessStats::new();
        a.record_read(8, Energy::from_pj(1.0), Time::from_ns(1.0));
        let mut b = AccessStats::new();
        b.record_write(8, Energy::from_pj(2.0), Time::from_ns(1.0));
        let c = a + b;
        assert_eq!((c.reads, c.writes), (1, 1));
        assert_eq!(c.dynamic_energy.as_pj(), 3.0);
        let mut d = a;
        d += b;
        assert_eq!(d, c);
    }

    #[test]
    fn display_is_nonempty() {
        let s = AccessStats::new();
        assert!(!s.to_string().is_empty());
    }
}
