//! Content-addressable memory (CAM) estimation.
//!
//! The "global CAM" h-SRAM organisation of §7.1 stores every cell together
//! with a tag (queue identifier + relative order) and resolves a scheduler
//! request by searching all tags in parallel. Compared to a direct-mapped
//! SRAM, a CAM pays: (i) a much larger storage cell for the tag bits (storage
//! plus comparator), and (ii) a search phase — driving the search lines and
//! resolving the match lines and priority encoder — before the matched data
//! row can be read out. It avoids, however, the serialized pointer-chasing of
//! a linked-list organisation.

use crate::geometry::{ArrayPartition, MemoryEstimate};
use crate::process::ProcessNode;
use crate::sram::{estimate_sram, SramOrganization};

/// Organisation of a CAM-tagged cell store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CamOrganization {
    /// Number of entries (cells stored).
    pub entries: u64,
    /// Payload bits per entry (the 64-byte cell).
    pub data_bits: u32,
    /// Tag bits searched associatively (queue id + intra-queue order).
    pub tag_bits: u32,
    /// Read ports on the data array.
    pub read_ports: u32,
    /// Write ports on the data array.
    pub write_ports: u32,
}

impl CamOrganization {
    /// Creates a CAM with one read and one write port.
    pub fn new(entries: u64, data_bits: u32, tag_bits: u32) -> Self {
        CamOrganization {
            entries,
            data_bits,
            tag_bits,
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
}

/// Estimates the search+read access time and area of a global CAM.
pub fn estimate_cam(org: &CamOrganization, node: &ProcessNode) -> MemoryEstimate {
    let entries = org.entries.max(16);
    let ports = (org.read_ports + org.write_ports).max(1);
    let pitch = node.port_scale(ports);

    // --- Tag (search) array -------------------------------------------------
    // Match lines run across the tag bits of one entry; search lines run down
    // all entries. Entries are banked into sub-blocks of at most 1024 to keep
    // the search lines manageable (as real ternary CAM macros do).
    let block_entries = entries.min(1024) as f64;
    let num_blocks = (entries as f64 / block_entries).ceil();
    let cam_cell_side = node.cam_cell_um2.sqrt() * pitch;
    let matchline_len = cam_cell_side * org.tag_bits as f64;
    let searchline_len = cam_cell_side * block_entries;

    let t_search_drive = node.wire_delay_ns(searchline_len) + node.fo4_ns * 3.0;
    let t_matchline =
        node.wire_delay_ns(matchline_len) + 0.0015 * org.tag_bits as f64 + node.sense_amp_ns;
    // Priority encoder over all entries (hierarchical).
    let t_encoder = node.fo4_ns * (entries as f64).log2().ceil() * 0.8;
    // Routing across blocks: H-tree over the tag-array footprint.
    let tag_array_side = (num_blocks * matchline_len * searchline_len).sqrt();
    let t_block_route = node.wire_delay_ns(tag_array_side / 2.0);

    // --- Data array ----------------------------------------------------------
    // Once the matching row is known, the payload is read from an SRAM-like
    // data array of the same entry count.
    let data = estimate_sram(
        &SramOrganization::new(entries * org.data_bits as u64 / 8, org.data_bits / 8)
            .with_ports(org.read_ports, org.write_ports),
        node,
    );
    // The data read overlaps partially with the encoder; charge half of it.
    let t_data = 0.5 * data.access_time_ns;

    let access = t_search_drive + t_matchline + t_encoder + t_block_route + t_data + node.output_ns;

    // --- Area ----------------------------------------------------------------
    let tag_area_um2 = entries as f64
        * org.tag_bits as f64
        * node.cam_cell_um2
        * pitch
        * pitch
        * node.periphery_overhead;
    let area =
        tag_area_um2 * 1e-8 + data.area_cm2 * (node.cam_cell_um2 / node.sram_cell_um2).sqrt();

    MemoryEstimate {
        access_time_ns: access,
        cycle_time_ns: access * 1.25,
        area_cm2: area,
        partition: ArrayPartition {
            subarrays: num_blocks as u32,
            rows: block_entries as u32,
            cols: org.tag_bits + org.data_bits,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cam(entries: u64) -> MemoryEstimate {
        estimate_cam(
            &CamOrganization::new(entries, 512, 32).with_ports(1, 1),
            &ProcessNode::node_130nm(),
        )
    }

    fn sram_same_capacity(entries: u64) -> MemoryEstimate {
        estimate_sram(
            &SramOrganization::new(entries * 64, 64).with_ports(1, 1),
            &ProcessNode::node_130nm(),
        )
    }

    #[test]
    fn cam_access_time_grows_with_entries() {
        let mut last = 0.0;
        for e in [1u64 << 10, 1 << 12, 1 << 14, 1 << 16, 1 << 17] {
            let est = cam(e);
            assert!(est.access_time_ns > last);
            last = est.access_time_ns;
        }
    }

    #[test]
    fn cam_area_exceeds_plain_sram_of_same_payload() {
        for e in [1u64 << 12, 1 << 15] {
            assert!(cam(e).area_cm2 > sram_same_capacity(e).area_cm2);
        }
    }

    #[test]
    fn cam_single_access_is_faster_than_three_serialized_sram_accesses() {
        // The unified linked list needs up to three serialised accesses when
        // time-multiplexed onto one port; a CAM resolves a request in one
        // search+read. For the large OC-3072 buffers the CAM comes out faster.
        for e in [1u64 << 14, 1 << 16] {
            let c = cam(e);
            let s = sram_same_capacity(e);
            assert!(
                c.access_time_ns < 3.0 * s.access_time_ns,
                "cam {} vs 3x sram {}",
                c.access_time_ns,
                3.0 * s.access_time_ns
            );
        }
    }

    #[test]
    fn tag_width_increases_cost() {
        let node = ProcessNode::node_130nm();
        let narrow = estimate_cam(&CamOrganization::new(1 << 14, 512, 16), &node);
        let wide = estimate_cam(&CamOrganization::new(1 << 14, 512, 48), &node);
        assert!(wide.area_cm2 > narrow.area_cm2);
        assert!(wide.access_time_ns >= narrow.access_time_ns);
    }

    #[test]
    fn ports_increase_cam_cost() {
        let node = ProcessNode::node_130nm();
        let one = estimate_cam(
            &CamOrganization::new(1 << 14, 512, 32).with_ports(1, 1),
            &node,
        );
        let two = estimate_cam(
            &CamOrganization::new(1 << 14, 512, 32).with_ports(2, 2),
            &node,
        );
        assert!(two.area_cm2 > one.area_cm2);
        assert!(two.access_time_ns >= one.access_time_ns);
    }
}
