//! Property-based tests for the device models: unit arithmetic laws,
//! monotonicity of costs in transfer size, and power-gating bounds.

use hyve_memsim::{
    BankPowerGating, DramChip, DramChipConfig, Energy, MemoryDevice, Power, PowerGatingConfig,
    ReramChip, ReramChipConfig, SramArray, SramConfig, Time,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Unit conversions round-trip within floating-point tolerance.
    #[test]
    fn unit_round_trips(v in 0.0f64..1e12) {
        let e = Energy::from_pj(v);
        prop_assert!((Energy::from_nj(e.as_nj()).as_pj() - v).abs() <= v * 1e-12 + 1e-12);
        let t = Time::from_ns(v);
        prop_assert!((Time::from_us(t.as_us()).as_ns() - v).abs() <= v * 1e-12 + 1e-12);
    }

    /// Power × Time = Energy is consistent with Energy ÷ Time = Power.
    #[test]
    fn power_energy_consistency(mw in 0.001f64..1e6, ns in 0.001f64..1e9) {
        let e = Power::from_mw(mw) * Time::from_ns(ns);
        let p = e / Time::from_ns(ns);
        prop_assert!((p.as_mw() - mw).abs() <= mw * 1e-9);
    }

    /// Read/write energies are monotone non-decreasing in the bit count for
    /// every device.
    #[test]
    fn device_costs_monotone(bits_a in 1u64..100_000, bits_b in 1u64..100_000) {
        let (lo, hi) = (bits_a.min(bits_b), bits_a.max(bits_b));
        let reram = ReramChip::new(ReramChipConfig::default());
        let dram = DramChip::new(DramChipConfig::default());
        let sram = SramArray::new(SramConfig::default());
        for dev in [&reram as &dyn MemoryDevice, &dram, &sram] {
            prop_assert!(dev.read_energy(lo) <= dev.read_energy(hi));
            prop_assert!(dev.write_energy(lo) <= dev.write_energy(hi));
            prop_assert!(dev.read_energy(hi).is_valid());
            prop_assert!(dev.sequential_read_time(lo) <= dev.sequential_read_time(hi));
        }
    }

    /// Bursts are additive: a stream of `k` full bursts costs `k` times one
    /// burst, so an aggregate charge equals the burst-by-burst sum.
    #[test]
    fn burst_energy_is_additive(k in 1u64..100_000) {
        let reram = ReramChip::new(ReramChipConfig::default());
        let dram = DramChip::new(DramChipConfig::default());
        for dev in [&reram as &dyn MemoryDevice, &dram] {
            let burst = u64::from(dev.output_bits());
            let one = dev.read_energy(burst).as_pj();
            let many = dev.read_energy(k * burst).as_pj();
            prop_assert!((many - one * k as f64).abs() <= many * 1e-9);
        }
    }

    /// Random accesses never cost less than sequential ones.
    #[test]
    fn random_at_least_sequential(bits in 1u64..10_000) {
        let reram = ReramChip::new(ReramChipConfig::default());
        let dram = DramChip::new(DramChipConfig::default());
        for dev in [&reram as &dyn MemoryDevice, &dram] {
            prop_assert!(dev.random_read_energy(bits) >= dev.read_energy(bits));
            prop_assert!(dev.random_write_energy(bits) >= dev.write_energy(bits));
        }
    }

    /// Density scaling: larger chips never get cheaper per access or leak
    /// less overall.
    #[test]
    fn density_monotone(d1 in 1u32..32, d2 in 1u32..32) {
        let (lo, hi) = (d1.min(d2), d1.max(d2));
        let r_lo = ReramChip::new(ReramChipConfig::with_density(lo));
        let r_hi = ReramChip::new(ReramChipConfig::with_density(hi));
        prop_assert!(r_lo.read_energy(512) <= r_hi.read_energy(512));
        prop_assert!(r_lo.background_power() <= r_hi.background_power());
        let d_lo = DramChip::new(DramChipConfig::with_density(lo));
        let d_hi = DramChip::new(DramChipConfig::with_density(hi));
        prop_assert!(d_lo.background_power() <= d_hi.background_power());
    }

    /// Gated background energy never exceeds ungated, and the saving never
    /// exceeds the bank count.
    #[test]
    fn gating_bounds(banks in 1u32..64, runtime_us in 1.0f64..100_000.0,
                     transitions in 0u64..100) {
        let g = BankPowerGating::new(
            PowerGatingConfig::default(),
            banks,
            Power::from_mw(2.5),
        );
        let runtime = Time::from_us(runtime_us);
        let report = g.report(runtime, transitions);
        // With enough runtime the gated path always wins; with tiny runtime
        // and many transitions it may lose, but must stay non-negative.
        prop_assert!(report.gated.is_valid());
        prop_assert!(report.ungated.is_valid());
        if transitions == 0 {
            prop_assert!(report.gated <= report.ungated * 1.0000001);
            prop_assert!(report.savings_factor() <= f64::from(banks) * 1.0000001);
        }
    }

    /// SRAM scaling laws stay monotone in capacity.
    #[test]
    fn sram_scaling_monotone(mb1 in 1u64..64, mb2 in 1u64..64) {
        let (lo, hi) = (mb1.min(mb2), mb1.max(mb2));
        let s_lo = SramArray::new(SramConfig::with_capacity_mb(lo));
        let s_hi = SramArray::new(SramConfig::with_capacity_mb(hi));
        prop_assert!(s_lo.word_read_energy() <= s_hi.word_read_energy());
        prop_assert!(s_lo.word_read_latency() <= s_hi.word_read_latency());
        prop_assert!(s_lo.background_power() <= s_hi.background_power());
        // Bulk transfers are cheaper per bit than word transfers.
        prop_assert!(s_lo.bulk_write_energy(512) <= s_lo.write_energy(32) * 16.0);
    }
}
