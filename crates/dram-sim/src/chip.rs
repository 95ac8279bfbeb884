//! SDRAM chip bandwidth model for the DRAM-only baseline (§1).
//!
//! The introduction of the paper motivates the hybrid designs by showing that a
//! DRAM-only buffer cannot provide worst-case guarantees at high rates: a
//! single-chip 16-bit / 100 MHz SDRAM has a 1.6 Gb/s peak bandwidth but only
//! ~1.2 Gb/s guaranteed once activate/precharge overhead is paid on every
//! (worst-case) random access, and widening the bus to 8 chips yields only
//! ~5.12 Gb/s guaranteed instead of 8 × more — diminishing returns because the
//! fixed row-cycle overhead is amortised over an ever shorter data transfer.

use pktbuf_model::CELL_BYTES;
use std::fmt;

/// SDRAM timing expressed in clock cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SdramTimingCycles {
    /// RAS-to-CAS delay (activate).
    pub t_rcd: u32,
    /// CAS latency.
    pub t_cas: u32,
    /// Row precharge time.
    pub t_rp: u32,
}

impl SdramTimingCycles {
    /// Typical PC100-class SDRAM timing (3-3-3 at 100 MHz).
    pub fn pc100() -> Self {
        SdramTimingCycles {
            t_rcd: 3,
            t_cas: 3,
            t_rp: 3,
        }
    }

    /// Total row-cycle overhead in cycles that a worst-case access pays on top
    /// of the pure data transfer (activate + CAS + precharge).
    pub fn overhead_cycles(&self) -> u32 {
        self.t_rcd + self.t_cas + self.t_rp
    }
}

impl Default for SdramTimingCycles {
    fn default() -> Self {
        SdramTimingCycles::pc100()
    }
}

/// A single SDRAM chip.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SdramChip {
    /// Data interface width in bits.
    pub data_width_bits: u32,
    /// I/O clock frequency in MHz.
    pub clock_mhz: f64,
    /// Timing parameters.
    pub timing: SdramTimingCycles,
}

impl SdramChip {
    /// The single-chip design point of reference \[9\] of the paper: 16 Mb
    /// SDRAM, 16-bit interface,
    /// 100 MHz clock.
    pub fn reference_16mb() -> Self {
        SdramChip {
            data_width_bits: 16,
            clock_mhz: 100.0,
            timing: SdramTimingCycles::pc100(),
        }
    }

    /// Peak (pin) bandwidth in bits per second.
    pub fn peak_bandwidth_bps(&self) -> f64 {
        self.data_width_bits as f64 * self.clock_mhz * 1e6
    }

    /// Clock period in nanoseconds.
    pub fn cycle_ns(&self) -> f64 {
        1e3 / self.clock_mhz
    }

    /// Cycles needed to move one 64-byte cell across the data pins.
    pub fn transfer_cycles_per_cell(&self) -> u32 {
        ((CELL_BYTES * 8) as u32).div_ceil(self.data_width_bits)
    }

    /// Worst-case guaranteed bandwidth in bits per second: every cell access
    /// pays the full activate + CAS + precharge overhead (random accesses to
    /// the same bank, the pattern a router must survive).
    pub fn guaranteed_bandwidth_bps(&self) -> f64 {
        let cycles = self.transfer_cycles_per_cell() + self.timing.overhead_cycles();
        let time_ns = cycles as f64 * self.cycle_ns();
        (CELL_BYTES * 8) as f64 / (time_ns * 1e-9)
    }

    /// Efficiency = guaranteed / peak.
    pub fn worst_case_efficiency(&self) -> f64 {
        self.guaranteed_bandwidth_bps() / self.peak_bandwidth_bps()
    }
}

impl fmt::Display for SdramChip {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SDRAM {}-bit @ {} MHz (peak {:.2} Gb/s, guaranteed {:.2} Gb/s)",
            self.data_width_bits,
            self.clock_mhz,
            self.peak_bandwidth_bps() / 1e9,
            self.guaranteed_bandwidth_bps() / 1e9,
        )
    }
}

/// A multi-chip configuration: `num_chips` chips in parallel forming a bus
/// `num_chips ×` wider.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MultiChipConfig {
    /// The base chip replicated across the bus.
    pub chip: SdramChip,
    /// Number of chips accessed in lock-step.
    pub num_chips: u32,
}

impl MultiChipConfig {
    /// Creates a configuration of `num_chips` identical chips.
    pub fn new(chip: SdramChip, num_chips: u32) -> Self {
        MultiChipConfig { chip, num_chips }
    }

    /// The equivalent wide chip (same timing, `num_chips ×` wider data bus).
    pub fn as_wide_chip(&self) -> SdramChip {
        SdramChip {
            data_width_bits: self.chip.data_width_bits * self.num_chips.max(1),
            ..self.chip
        }
    }

    /// Peak bandwidth of the whole bus.
    pub fn peak_bandwidth_bps(&self) -> f64 {
        self.as_wide_chip().peak_bandwidth_bps()
    }

    /// Guaranteed bandwidth of the whole bus (worst-case random accesses).
    pub fn guaranteed_bandwidth_bps(&self) -> f64 {
        self.as_wide_chip().guaranteed_bandwidth_bps()
    }

    /// Efficiency = guaranteed / peak, which shrinks as the bus gets wider.
    pub fn worst_case_efficiency(&self) -> f64 {
        self.as_wide_chip().worst_case_efficiency()
    }
}

impl fmt::Display for MultiChipConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} × {} (guaranteed {:.2} Gb/s of {:.2} Gb/s peak)",
            self.num_chips,
            self.chip,
            self.guaranteed_bandwidth_bps() / 1e9,
            self.peak_bandwidth_bps() / 1e9,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_chip_peak_is_1_6_gbps() {
        let chip = SdramChip::reference_16mb();
        assert!((chip.peak_bandwidth_bps() - 1.6e9).abs() < 1e3);
        assert_eq!(chip.transfer_cycles_per_cell(), 32);
        assert!((chip.cycle_ns() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn guaranteed_bandwidth_is_below_peak() {
        let chip = SdramChip::reference_16mb();
        let g = chip.guaranteed_bandwidth_bps();
        // With 9 cycles of overhead on 32 transfer cycles the guaranteed
        // bandwidth is ~1.25 Gb/s — close to the 1.2 Gb/s reported in [9].
        assert!(g < chip.peak_bandwidth_bps());
        assert!(g > 1.1e9 && g < 1.35e9, "guaranteed = {g}");
        assert!(chip.worst_case_efficiency() < 0.85);
    }

    #[test]
    fn eight_chip_configuration_shows_diminishing_returns() {
        let chip = SdramChip::reference_16mb();
        let one = MultiChipConfig::new(chip, 1);
        let eight = MultiChipConfig::new(chip, 8);
        assert!((eight.peak_bandwidth_bps() - 12.8e9).abs() < 1e3);
        let g8 = eight.guaranteed_bandwidth_bps();
        // Far below 8× the single-chip guaranteed bandwidth (paper: 5.12 Gb/s).
        assert!(g8 < 8.0 * one.guaranteed_bandwidth_bps() * 0.6);
        assert!(g8 > 3.0e9 && g8 < 6.0e9, "guaranteed 8-chip = {g8}");
        // Efficiency strictly decreases with bus width.
        assert!(eight.worst_case_efficiency() < one.worst_case_efficiency());
    }

    #[test]
    fn efficiency_monotonically_decreases_with_chips() {
        let chip = SdramChip::reference_16mb();
        let mut last = f64::INFINITY;
        for n in [1u32, 2, 4, 8, 16, 32] {
            let eff = MultiChipConfig::new(chip, n).worst_case_efficiency();
            assert!(eff < last, "efficiency must fall as the bus widens");
            last = eff;
        }
    }

    #[test]
    fn display_mentions_bandwidths() {
        let chip = SdramChip::reference_16mb();
        assert!(chip.to_string().contains("16-bit"));
        let multi = MultiChipConfig::new(chip, 8);
        assert!(multi.to_string().contains('8'));
    }

    #[test]
    fn timing_overhead_cycles() {
        let t = SdramTimingCycles::pc100();
        assert_eq!(t.overhead_cycles(), 9);
        assert_eq!(SdramTimingCycles::default(), t);
    }
}
