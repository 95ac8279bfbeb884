//! Physical-implementation descriptors used to feed the technology model.

/// The SRAM buffer organisations evaluated by the paper (§7.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SramImplKind {
    /// Fully associative store searched by (queue, order) tag. Fastest access,
    /// largest area.
    GlobalCam,
    /// Direct-mapped entries with next pointers, three structures accessed in
    /// parallel (dedicated ports). Larger area than time-multiplexed.
    UnifiedLinkedList,
    /// The same linked list with the three accesses serialised onto a single
    /// port (the paper's minimum-area design). Access *time* per operation is
    /// the sum of the serialised accesses.
    UnifiedLinkedListTimeMux,
}

impl SramImplKind {
    /// All organisations, in the order the paper plots them.
    pub fn all() -> [SramImplKind; 3] {
        [
            SramImplKind::GlobalCam,
            SramImplKind::UnifiedLinkedList,
            SramImplKind::UnifiedLinkedListTimeMux,
        ]
    }

    /// Human-readable name matching the figure legends.
    pub fn label(&self) -> &'static str {
        match self {
            SramImplKind::GlobalCam => "global CAM",
            SramImplKind::UnifiedLinkedList => "unified linked list",
            SramImplKind::UnifiedLinkedListTimeMux => "unified linked list (time-mux)",
        }
    }
}

/// Parameters describing the physical structure to estimate for a given
/// organisation and capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SramImplSpec {
    /// Organisation.
    pub kind: SramImplKind,
    /// Bits of payload per entry (the 64-byte cell).
    pub data_bits: u32,
    /// Bits of tag or pointer per entry.
    pub overhead_bits: u32,
    /// Read ports of the main array.
    pub read_ports: u32,
    /// Write ports of the main array.
    pub write_ports: u32,
    /// Number of array accesses serialised per buffer operation.
    pub serialized_accesses: u32,
}

impl SramImplSpec {
    /// Builds the descriptor for `kind` given the number of queues (tag width)
    /// and the number of entries (pointer width).
    pub fn for_kind(kind: SramImplKind, num_queues: usize, entries: usize) -> Self {
        let queue_bits = (num_queues.max(2) as f64).log2().ceil() as u32;
        let order_bits = (entries.max(2) as f64).log2().ceil() as u32;
        match kind {
            SramImplKind::GlobalCam => SramImplSpec {
                kind,
                data_bits: 512,
                overhead_bits: queue_bits + order_bits,
                read_ports: 1,
                write_ports: 1,
                serialized_accesses: 1,
            },
            SramImplKind::UnifiedLinkedList => SramImplSpec {
                kind,
                data_bits: 512,
                overhead_bits: order_bits,
                read_ports: 1,
                write_ports: 2,
                serialized_accesses: 1,
            },
            SramImplKind::UnifiedLinkedListTimeMux => SramImplSpec {
                kind,
                data_bits: 512,
                overhead_bits: order_bits,
                read_ports: 1,
                write_ports: 1,
                serialized_accesses: 3,
            },
        }
    }

    /// Total bits per entry.
    pub fn entry_bits(&self) -> u32 {
        self.data_bits + self.overhead_bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_and_all() {
        assert_eq!(SramImplKind::all().len(), 3);
        assert_eq!(SramImplKind::GlobalCam.label(), "global CAM");
        assert!(SramImplKind::UnifiedLinkedListTimeMux
            .label()
            .contains("time-mux"));
    }

    #[test]
    fn cam_spec_has_tag_bits() {
        let s = SramImplSpec::for_kind(SramImplKind::GlobalCam, 512, 16384);
        assert_eq!(s.data_bits, 512);
        assert_eq!(s.overhead_bits, 9 + 14);
        assert_eq!(s.serialized_accesses, 1);
        assert_eq!(s.entry_bits(), 512 + 23);
    }

    #[test]
    fn time_mux_serialises_three_accesses_on_one_port() {
        let s = SramImplSpec::for_kind(SramImplKind::UnifiedLinkedListTimeMux, 512, 16384);
        assert_eq!(s.serialized_accesses, 3);
        assert_eq!(s.read_ports + s.write_ports, 2);
        let parallel = SramImplSpec::for_kind(SramImplKind::UnifiedLinkedList, 512, 16384);
        assert_eq!(parallel.serialized_accesses, 1);
        assert!(parallel.write_ports > s.write_ports);
    }
}
