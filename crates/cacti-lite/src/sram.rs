//! Direct-mapped SRAM timing and area estimation.

use crate::geometry::{candidate_partitions, ArrayPartition, MemoryEstimate};
use crate::process::ProcessNode;

/// Logical organisation of an SRAM macro to be estimated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SramOrganization {
    /// Total capacity in bytes.
    pub capacity_bytes: u64,
    /// Word (access) width in bytes.
    pub word_bytes: u32,
    /// Number of read ports.
    pub read_ports: u32,
    /// Number of write ports.
    pub write_ports: u32,
}

impl SramOrganization {
    /// Creates a single-read/single-write-port organisation.
    pub fn new(capacity_bytes: u64, word_bytes: u32) -> Self {
        SramOrganization {
            capacity_bytes,
            word_bytes,
            read_ports: 1,
            write_ports: 1,
        }
    }

    /// Sets the port counts.
    pub fn with_ports(mut self, read: u32, write: u32) -> Self {
        self.read_ports = read;
        self.write_ports = write;
        self
    }

    /// Total number of ports.
    pub fn total_ports(&self) -> u32 {
        (self.read_ports + self.write_ports).max(1)
    }

    /// Total bits stored.
    pub fn total_bits(&self) -> u64 {
        self.capacity_bytes * 8
    }
}

fn delay_for_partition(org: &SramOrganization, node: &ProcessNode, p: &ArrayPartition) -> f64 {
    let ports = org.total_ports();
    let pitch = node.port_scale(ports);
    // Physical dimensions of one sub-array (µm). A 6T cell is roughly square.
    let cell_side = node.sram_cell_um2.sqrt() * pitch;
    let subarray_width = cell_side * p.cols as f64;
    let subarray_height = cell_side * p.rows as f64;

    // Decoder: a gate chain of depth log2(rows) plus predecode.
    let decode_levels = (p.rows as f64).log2().ceil().max(1.0);
    let t_decode = node.fo4_ns * (2.0 + 0.9 * decode_levels);

    // Wordline: distributed RC across the sub-array width plus driver.
    let t_wordline = node.wire_delay_ns(subarray_width) + node.fo4_ns * 2.0;

    // Bitline: discharge along the sub-array height (dominated by wire +
    // cell loading), then the sense amplifier.
    let t_bitline =
        node.wire_delay_ns(subarray_height) + 0.00045 * p.rows as f64 + node.sense_amp_ns;

    // Routing from the selected sub-array to the edge of the macro plus the
    // output multiplexer tree over the sub-arrays. The request travels down
    // the H-tree trunk and along a branch, which together span roughly the
    // full side of the macro footprint.
    let macro_side = (p.subarrays as f64 * subarray_width * subarray_height).sqrt();
    let t_route = node.wire_delay_ns(macro_side * 0.9)
        + node.fo4_ns * (p.subarrays as f64).log2().max(0.0) * 0.6;

    t_decode + t_wordline + t_bitline + t_route + node.output_ns
}

fn area_for_partition(org: &SramOrganization, node: &ProcessNode, p: &ArrayPartition) -> f64 {
    let ports = org.total_ports();
    let pitch = node.port_scale(ports);
    let cell_area = node.sram_cell_um2 * pitch * pitch;
    // Charge the requested capacity (not the padded partition) so that area is
    // a property of the organisation; sub-array division adds decoder/sense
    // periphery per sub-array.
    let bits = org.total_bits() as f64;
    let periphery = node.periphery_overhead * (1.0 + 0.01 * (p.subarrays as f64).sqrt());
    bits * cell_area * periphery * 1e-8 // µm² → cm²
}

/// Estimates the access time, cycle time and area of an SRAM macro, choosing
/// the sub-array partition that minimises access time (ties broken by area).
///
/// The estimation mirrors the CACTI decomposition: decoder, wordline, bitline +
/// sense amplifier, sub-array routing and output drive.
pub fn estimate_sram(org: &SramOrganization, node: &ProcessNode) -> MemoryEstimate {
    let bits = org.total_bits().max(1024);
    let word_bits = org.word_bytes * 8;
    let mut best: Option<MemoryEstimate> = None;
    for p in candidate_partitions(bits, word_bits) {
        let t = delay_for_partition(org, node, &p);
        let a = area_for_partition(org, node, &p);
        let cand = MemoryEstimate {
            access_time_ns: t,
            cycle_time_ns: t * 1.25,
            area_cm2: a,
            partition: p,
        };
        let better = match &best {
            None => true,
            Some(b) => {
                cand.access_time_ns < b.access_time_ns - 1e-9
                    || ((cand.access_time_ns - b.access_time_ns).abs() < 1e-9
                        && cand.area_cm2 < b.area_cm2)
            }
        };
        if better {
            best = Some(cand);
        }
    }
    best.expect("candidate_partitions is never empty")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn est(bytes: u64, ports: (u32, u32)) -> MemoryEstimate {
        estimate_sram(
            &SramOrganization::new(bytes, 64).with_ports(ports.0, ports.1),
            &ProcessNode::node_130nm(),
        )
    }

    #[test]
    fn access_time_grows_with_capacity() {
        let sizes = [64 << 10, 256 << 10, 1 << 20, 4 << 20, 16 << 20];
        let mut last = 0.0;
        for s in sizes {
            let e = est(s, (1, 1));
            assert!(
                e.access_time_ns > last,
                "capacity {s}: {} !> {last}",
                e.access_time_ns
            );
            last = e.access_time_ns;
        }
    }

    #[test]
    fn area_grows_roughly_linearly_with_capacity() {
        let a1 = est(1 << 20, (1, 1)).area_cm2;
        let a4 = est(4 << 20, (1, 1)).area_cm2;
        assert!(a4 / a1 > 3.0 && a4 / a1 < 5.5, "ratio = {}", a4 / a1);
    }

    #[test]
    fn ports_cost_area_and_time() {
        let single = est(1 << 20, (1, 1));
        let dual = est(1 << 20, (2, 1));
        assert!(dual.area_cm2 > single.area_cm2);
        assert!(dual.access_time_ns >= single.access_time_ns);
    }

    #[test]
    fn calibration_smallish_sram_meets_oc768_and_fails_oc3072_when_huge() {
        // ~64 kB dual-ported: comfortably below the 12.8 ns OC-768 slot.
        let small = est(64 << 10, (1, 1));
        assert!(small.access_time_ns < 12.8, "{}", small.access_time_ns);
        // A 6 MB dual-ported SRAM cannot be read in 3.2 ns at 0.13 µm.
        let huge = est(6 << 20, (1, 1));
        assert!(huge.access_time_ns > 3.2, "{}", huge.access_time_ns);
    }

    #[test]
    fn calibration_oc3072_crossover_lies_between_cfds_and_rads_sizes() {
        // CFDS-class head SRAMs (a few hundred kB) stay at or below the
        // 3.2 ns OC-3072 slot, while RADS-class megabyte SRAMs exceed it —
        // the crossover the paper's Figures 10 and 11 rely on.
        let cfds_class = est(192 << 10, (1, 1));
        assert!(
            cfds_class.access_time_ns < 3.2,
            "{}",
            cfds_class.access_time_ns
        );
        let rads_class = est(1 << 20, (1, 1));
        assert!(
            rads_class.access_time_ns > 3.2,
            "{}",
            rads_class.access_time_ns
        );
    }

    #[test]
    fn megabyte_class_area_is_fraction_of_cm2_range() {
        let e = est(1 << 20, (1, 1));
        assert!(e.area_cm2 > 0.05 && e.area_cm2 < 1.0, "{}", e.area_cm2);
        let e = est(16 << 20, (1, 1));
        assert!(e.area_cm2 > 1.0, "{}", e.area_cm2);
    }

    #[test]
    fn cycle_time_exceeds_access_time() {
        let e = est(1 << 20, (1, 1));
        assert!(e.cycle_time_ns > e.access_time_ns);
        assert!(e.meets_access_target(e.access_time_ns + 0.01));
    }

    #[test]
    fn partition_covers_capacity() {
        let org = SramOrganization::new(3 << 20, 64).with_ports(1, 1);
        let e = estimate_sram(&org, &ProcessNode::node_130nm());
        assert!(e.partition.total_bits() >= org.total_bits());
        assert_eq!(org.total_ports(), 2);
    }
}
