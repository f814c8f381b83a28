//! System configuration: which device sits at each level of the hierarchy
//! and which optimizations are enabled.
//!
//! The paper's Fig. 16 sweep compares five accelerator configurations that
//! differ *only* here; [`SystemConfig`] provides each as a preset:
//!
//! | preset | edge memory | off-chip vertex | on-chip vertex | sharing | gating |
//! |---|---|---|---|---|---|
//! | [`SystemConfig::acc_dram`] | DRAM | DRAM (random) | — | – | – |
//! | [`SystemConfig::acc_reram`] | ReRAM | ReRAM (random) | — | – | – |
//! | [`SystemConfig::acc_sram_dram`] | DRAM | DRAM | SRAM | – | – |
//! | [`SystemConfig::hyve`] | ReRAM | DRAM | SRAM | – | – |
//! | [`SystemConfig::hyve_opt`] | ReRAM | DRAM | SRAM | ✓ | ✓ |

use crate::error::CoreError;
use hyve_memsim::{CellBits, DramChipConfig, ReramChipConfig, SramConfig};

/// Technology of an off-chip channel: the edge memory or the global
/// vertex memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OffChipTech {
    /// ReRAM main memory — HyVE's edge memory; the all-ReRAM baseline also
    /// keeps vertices in it.
    Reram,
    /// Conventional DRAM — high write bandwidth, HyVE's vertex memory
    /// (§3.2).
    Dram,
}

/// Full system configuration for a [`SimulationSession`](crate::SimulationSession) run.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// Descriptive name shown in reports.
    pub name: &'static str,
    /// Number of processing units (paper: 8).
    pub num_pus: u32,
    /// Edge-memory technology.
    pub edge_memory: OffChipTech,
    /// Off-chip vertex memory technology.
    pub offchip_vertex: OffChipTech,
    /// Total on-chip SRAM vertex memory in megabytes; `None` means vertices
    /// are accessed randomly in off-chip memory (acc+DRAM / acc+ReRAM).
    pub sram_mb: Option<u64>,
    /// Inter-PU source-interval sharing (§4.2).
    pub data_sharing: bool,
    /// Bank-level power gating of the edge memory (§4.1; requires a
    /// nonvolatile edge memory).
    pub power_gating: bool,
    /// Memory chip density in gigabits (paper sweeps 4/8/16).
    pub density_gbit: u32,
    /// ReRAM cell bits (Fig. 13 sweeps 1–3; SLC is the paper's choice).
    pub cell_bits: CellBits,
    /// Down-scaling factor of the dataset relative to the paper's originals
    /// (see `DESIGN.md`). Interval planning shrinks the *effective* SRAM by
    /// this factor so the vertex-data : on-chip-capacity ratio — which sets
    /// the partition count `P` and with it the loading-traffic share — stays
    /// what it would be at full scale. Device energy/leakage still model the
    /// full-size SRAM. Use 1 for unscaled graphs.
    pub dataset_scale: u32,
}

impl SystemConfig {
    /// Accelerator with DRAM everywhere and no on-chip vertex memory.
    pub fn acc_dram() -> Self {
        SystemConfig {
            name: "acc+DRAM",
            num_pus: 8,
            edge_memory: OffChipTech::Dram,
            offchip_vertex: OffChipTech::Dram,
            sram_mb: None,
            data_sharing: false,
            power_gating: false,
            density_gbit: 4,
            cell_bits: CellBits::Slc,
            dataset_scale: 64,
        }
    }

    /// Accelerator with ReRAM everywhere — shows that naively swapping
    /// DRAM for ReRAM buys little (§7.3.3: only 1.31×).
    pub fn acc_reram() -> Self {
        SystemConfig {
            name: "acc+ReRAM",
            edge_memory: OffChipTech::Reram,
            offchip_vertex: OffChipTech::Reram,
            ..Self::acc_dram()
        }
    }

    /// Conventional best practice: SRAM vertex buffers over all-DRAM
    /// (the paper's "SD" configuration). §7.3.3 notes all four accelerator
    /// configurations use the *same* data scheduling, so SD runs the shared
    /// super-block schedule too; only the devices differ.
    pub fn acc_sram_dram() -> Self {
        SystemConfig {
            name: "acc+SRAM+DRAM",
            sram_mb: Some(2),
            data_sharing: true,
            ..Self::acc_dram()
        }
    }

    /// HyVE: ReRAM edges + DRAM global vertices + SRAM local vertices,
    /// shared scheduling, power gating off (2 MB is Table 4's sweet spot
    /// with sharing on).
    pub fn hyve() -> Self {
        SystemConfig {
            name: "acc+HyVE",
            edge_memory: OffChipTech::Reram,
            offchip_vertex: OffChipTech::Dram,
            sram_mb: Some(2),
            data_sharing: true,
            ..Self::acc_dram()
        }
    }

    /// HyVE plus the aggressive bank-level power-gating scheme (§4.1) —
    /// the paper's best configuration.
    pub fn hyve_opt() -> Self {
        SystemConfig {
            name: "acc+HyVE-opt",
            power_gating: true,
            ..Self::hyve()
        }
    }

    /// Returns a copy with a different SRAM capacity (Table 4 sweeps).
    pub fn with_sram_mb(mut self, mb: u64) -> Self {
        self.sram_mb = Some(mb);
        self
    }

    /// Returns a copy with data sharing toggled.
    pub fn with_data_sharing(mut self, on: bool) -> Self {
        self.data_sharing = on;
        self
    }

    /// Returns a copy with power gating toggled.
    pub fn with_power_gating(mut self, on: bool) -> Self {
        self.power_gating = on;
        self
    }

    /// Returns a copy with a different chip density.
    pub fn with_density(mut self, gbit: u32) -> Self {
        self.density_gbit = gbit;
        self
    }

    /// Returns a copy with a different ReRAM cell type (Fig. 13).
    pub fn with_cell_bits(mut self, bits: CellBits) -> Self {
        self.cell_bits = bits;
        self
    }

    /// Returns a copy with a different PU count.
    pub fn with_num_pus(mut self, n: u32) -> Self {
        self.num_pus = n;
        self
    }

    /// Returns a copy with a different dataset down-scaling factor.
    pub fn with_dataset_scale(mut self, scale: u32) -> Self {
        self.dataset_scale = scale;
        self
    }

    /// ReRAM chip configuration implied by this system config.
    pub fn reram_config(&self) -> ReramChipConfig {
        let mut c = ReramChipConfig::with_density(self.density_gbit);
        c.cell = hyve_memsim::ReramCellParams::with_bits(self.cell_bits);
        c
    }

    /// DRAM chip configuration implied by this system config.
    pub fn dram_config(&self) -> DramChipConfig {
        DramChipConfig::with_density(self.density_gbit)
    }

    /// SRAM configuration, if the hierarchy includes on-chip vertex memory.
    pub fn sram_config(&self) -> Option<SramConfig> {
        self.sram_mb.map(SramConfig::with_capacity_mb)
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] when PU count / density / SRAM size /
    /// dataset scale is zero, or the SRAM's byte count overflows `u64`. Device choices (power gating needs a
    /// nonvolatile edge memory) are checked when
    /// [`HierarchyInstance::build`](crate::HierarchyInstance::build) builds
    /// them.
    pub fn validate(&self) -> Result<(), CoreError> {
        if self.num_pus == 0 {
            return Err(CoreError::InvalidConfig {
                message: "at least one processing unit required".into(),
            });
        }
        if self.density_gbit == 0 {
            return Err(CoreError::InvalidConfig {
                message: "chip density must be positive".into(),
            });
        }
        if self.sram_mb == Some(0) {
            return Err(CoreError::InvalidConfig {
                message: "SRAM capacity must be positive when present".into(),
            });
        }
        if self
            .sram_mb
            .is_some_and(|mb| mb.checked_mul(1024 * 1024).is_none())
        {
            return Err(CoreError::InvalidConfig {
                message: "SRAM capacity overflows a 64-bit byte count".into(),
            });
        }
        if self.dataset_scale == 0 {
            return Err(CoreError::InvalidConfig {
                message: "dataset scale must be at least 1".into(),
            });
        }
        Ok(())
    }
}

impl Default for SystemConfig {
    /// The optimized HyVE configuration.
    fn default() -> Self {
        Self::hyve_opt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_paper_table() {
        let sd = SystemConfig::acc_sram_dram();
        assert_eq!(sd.edge_memory, OffChipTech::Dram);
        assert_eq!(sd.sram_mb, Some(2));
        // §7.3.3: all accelerator configs share the same data scheduling.
        assert!(sd.data_sharing && !sd.power_gating);

        let hyve = SystemConfig::hyve();
        assert_eq!(hyve.edge_memory, OffChipTech::Reram);
        assert_eq!(hyve.offchip_vertex, OffChipTech::Dram);
        assert!(hyve.data_sharing && !hyve.power_gating);

        let opt = SystemConfig::hyve_opt();
        assert!(opt.data_sharing && opt.power_gating);
        assert_eq!(opt.sram_mb, Some(2));
        assert_eq!(opt.num_pus, 8);
    }

    #[test]
    fn all_presets_validate() {
        for cfg in [
            SystemConfig::acc_dram(),
            SystemConfig::acc_reram(),
            SystemConfig::acc_sram_dram(),
            SystemConfig::hyve(),
            SystemConfig::hyve_opt(),
        ] {
            cfg.validate().expect("preset must validate");
        }
    }

    #[test]
    fn zero_values_rejected() {
        assert!(SystemConfig::hyve().with_num_pus(0).validate().is_err());
        assert!(SystemConfig::hyve().with_density(0).validate().is_err());
        assert!(SystemConfig::hyve().with_sram_mb(0).validate().is_err());
    }

    #[test]
    fn sram_byte_count_overflow_rejected() {
        // 2^44 MB is 2^64 bytes: the product wraps to 0 unchecked.
        let largest = u64::MAX / (1024 * 1024);
        assert!(SystemConfig::hyve()
            .with_sram_mb(largest)
            .validate()
            .is_ok());
        for mb in [largest + 1, 1 << 44, u64::MAX] {
            let err = SystemConfig::hyve()
                .with_sram_mb(mb)
                .validate()
                .unwrap_err();
            assert!(err.to_string().contains("overflows"), "{mb}: {err}");
        }
    }

    #[test]
    fn builders_chain() {
        let c = SystemConfig::hyve()
            .with_sram_mb(8)
            .with_data_sharing(true)
            .with_density(16);
        assert_eq!(c.sram_mb, Some(8));
        assert!(c.data_sharing);
        assert_eq!(c.density_gbit, 16);
        assert_eq!(c.reram_config().density_gbit, 16);
        assert_eq!(c.dram_config().density_gbit, 16);
        assert!(c.sram_config().is_some());
    }

    #[test]
    fn default_is_optimized() {
        assert_eq!(SystemConfig::default(), SystemConfig::hyve_opt());
    }
}
