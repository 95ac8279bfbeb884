//! DRAM usage statistics.

/// Aggregate statistics of a [`crate::BankArray`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DramStats {
    /// Number of successfully started accesses.
    pub accesses: u64,
    /// Number of rejected accesses (bank conflicts).
    pub conflicts: u64,
    /// Sum over accesses of the busy time they occupied (slots).
    pub busy_slots: u64,
    /// Last slot at which an access was started.
    pub last_access_slot: u64,
}

impl DramStats {
    /// Records a successful access.
    pub fn record_access(&mut self, now: u64, busy_slots: u64) {
        self.accesses += 1;
        self.busy_slots += busy_slots;
        self.last_access_slot = self.last_access_slot.max(now);
    }

    /// Records a rejected access.
    pub fn record_conflict(&mut self) {
        self.conflicts += 1;
    }

    /// Aggregate bank utilisation over `elapsed_slots` slots of simulated time
    /// and `num_banks` banks: busy bank-slots divided by available bank-slots.
    pub fn utilisation(&self, elapsed_slots: u64, num_banks: usize) -> f64 {
        if elapsed_slots == 0 || num_banks == 0 {
            return 0.0;
        }
        self.busy_slots as f64 / (elapsed_slots as f64 * num_banks as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utilisation_is_fraction_of_bank_slots() {
        let mut s = DramStats::default();
        s.record_access(0, 8);
        s.record_access(8, 8);
        // 16 busy bank-slots over 32 slots * 1 bank.
        assert!((s.utilisation(32, 1) - 0.5).abs() < 1e-12);
        // Over 4 banks, utilisation is a quarter of that.
        assert!((s.utilisation(32, 4) - 0.125).abs() < 1e-12);
        assert_eq!(s.utilisation(0, 4), 0.0);
        assert_eq!(s.utilisation(32, 0), 0.0);
    }

    #[test]
    fn counters_accumulate() {
        let mut s = DramStats::default();
        s.record_access(5, 8);
        s.record_conflict();
        s.record_access(13, 8);
        assert_eq!(s.accesses, 2);
        assert_eq!(s.conflicts, 1);
        assert_eq!(s.busy_slots, 16);
        assert_eq!(s.last_access_slot, 13);
    }
}
