//! The hybrid memory controller's resilience model (§3.3, Fig. 4).
//!
//! The controller is the abstraction layer between the accelerator logic
//! and the hybrid memory modules. What this module models of it is the
//! detect→retry→remap escalation ladder for memory faults: ECC corrects
//! what it can, detectable-uncorrectable errors are re-read with backoff,
//! and persistently faulty edge banks are remapped onto spare banks
//! ([`BankSpareMap`]) so a run degrades (less effective capacity, extra
//! transfers) instead of aborting. The plan itself is held by the
//! [`HierarchyInstance`](crate::HierarchyInstance), and each run sizes a
//! fresh spare map from the edge channel's bank geometry.
//!
//! The controller's sequential address layout (§3.4), which decides how
//! many edge banks a scan wakes, lives with the power-gating controller in
//! the [`hierarchy`](crate::hierarchy) module.

/// One bank-sparing decision: a persistently faulty edge bank and the
/// spare bank now serving its address range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BankRemap {
    /// Chip of the faulty bank.
    pub chip: u32,
    /// Faulty bank within the chip.
    pub bank: u32,
    /// Chip of the spare now serving the range.
    pub spare_chip: u32,
    /// Spare bank within that chip.
    pub spare_bank: u32,
}

/// Spare-bank allocator for the edge channel.
///
/// A small fraction of banks (at least one) is reserved at the *top* of
/// the linear bank space as spares; persistent faults consume them from
/// the highest linear index downward. Banks that fail after the spares
/// run out are simply lost capacity — the run still completes, just more
/// degraded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BankSpareMap {
    banks_per_chip: u32,
    total_banks: u64,
    spare_banks: u64,
    next_spare: u64,
    remaps: Vec<BankRemap>,
    unspared: u64,
}

impl BankSpareMap {
    /// Creates a spare map over `chips × banks_per_chip` banks, reserving
    /// 1/32 of them (at least one) as spares.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(chips: u32, banks_per_chip: u32) -> Self {
        assert!(chips > 0 && banks_per_chip > 0, "degenerate spare map");
        let total_banks = u64::from(chips) * u64::from(banks_per_chip);
        let spare_banks = (total_banks / 32).max(1).min(total_banks);
        BankSpareMap {
            banks_per_chip,
            total_banks,
            spare_banks,
            next_spare: total_banks,
            remaps: Vec::new(),
            unspared: 0,
        }
    }

    /// Number of banks reserved as spares.
    pub fn spare_banks(&self) -> u64 {
        self.spare_banks
    }

    /// Remaps a persistently faulty bank onto the next free spare.
    ///
    /// Returns the remap record, or `None` when the spare pool is
    /// exhausted (the bank is then counted as unspared lost capacity).
    /// Remapping the same bank twice is idempotent.
    pub fn remap(&mut self, chip: u32, bank: u32) -> Option<BankRemap> {
        if let Some(existing) = self
            .remaps
            .iter()
            .find(|r| r.chip == chip && r.bank == bank)
        {
            return Some(*existing);
        }
        let used = self.total_banks - self.next_spare;
        if used >= self.spare_banks {
            self.unspared += 1;
            return None;
        }
        self.next_spare -= 1;
        let record = BankRemap {
            chip,
            bank,
            spare_chip: (self.next_spare / u64::from(self.banks_per_chip)) as u32,
            spare_bank: (self.next_spare % u64::from(self.banks_per_chip)) as u32,
        };
        self.remaps.push(record);
        Some(record)
    }

    /// All remaps performed so far, in escalation order.
    pub fn remaps(&self) -> &[BankRemap] {
        &self.remaps
    }

    /// Persistent faults that found no spare left.
    pub fn unspared(&self) -> u64 {
        self.unspared
    }

    /// Fraction of total bank capacity lost to faults and their spares.
    pub fn degraded_fraction(&self) -> f64 {
        (self.remaps.len() as u64 + self.unspared) as f64 / self.total_banks as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spare_map_allocates_from_the_top_down() {
        // 8 chips × 8 banks = 64 banks → 2 spares (64/32).
        let mut map = BankSpareMap::new(8, 8);
        assert_eq!(map.spare_banks(), 2);
        let first = map.remap(0, 3).unwrap();
        assert_eq!((first.spare_chip, first.spare_bank), (7, 7));
        let second = map.remap(2, 1).unwrap();
        assert_eq!((second.spare_chip, second.spare_bank), (7, 6));
        // Pool exhausted: third fault is lost capacity, not a remap.
        assert!(map.remap(4, 4).is_none());
        assert_eq!(map.unspared(), 1);
        assert_eq!(map.remaps().len(), 2);
        assert!((map.degraded_fraction() - 3.0 / 64.0).abs() < 1e-12);
    }

    #[test]
    fn spare_map_remap_is_idempotent() {
        let mut map = BankSpareMap::new(2, 8);
        assert_eq!(map.spare_banks(), 1, "16 banks still reserve one spare");
        let a = map.remap(0, 0).unwrap();
        let b = map.remap(0, 0).unwrap();
        assert_eq!(a, b);
        assert_eq!(map.remaps().len(), 1);
    }
}
