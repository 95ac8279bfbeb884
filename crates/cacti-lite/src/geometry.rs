//! Array partitioning and the shared estimate type.

/// How a memory array is split into sub-arrays.
///
/// Mirrors CACTI's `Ndwl`/`Ndbl` exploration in a simplified form: the array is
/// cut into `subarrays` equal pieces, each `rows × cols` bits, all accessed in
/// parallel through a final output multiplexer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArrayPartition {
    /// Number of identical sub-arrays.
    pub subarrays: u32,
    /// Rows per sub-array.
    pub rows: u32,
    /// Columns (bits) per sub-array row.
    pub cols: u32,
}

impl ArrayPartition {
    /// Total bits covered by the partition.
    pub fn total_bits(&self) -> u64 {
        self.subarrays as u64 * self.rows as u64 * self.cols as u64
    }
}

/// Result of an area/timing estimation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryEstimate {
    /// Access (read) time in nanoseconds.
    pub access_time_ns: f64,
    /// Random cycle time in nanoseconds (access plus precharge/recovery).
    pub cycle_time_ns: f64,
    /// Silicon area in cm².
    pub area_cm2: f64,
    /// The partition that achieved this estimate.
    pub partition: ArrayPartition,
}

impl MemoryEstimate {
    /// Whether this memory meets an access-time target.
    pub fn meets_access_target(&self, target_ns: f64) -> bool {
        self.access_time_ns <= target_ns
    }
}

/// Enumerates candidate partitions of `bits` total bits into sub-arrays whose
/// row count is a power of two between 32 and 4096.
pub(crate) fn candidate_partitions(bits: u64, word_bits: u32) -> Vec<ArrayPartition> {
    let mut out = Vec::new();
    let word_bits = word_bits.max(1);
    for subarrays_log2 in 0..=8u32 {
        let subarrays = 1u32 << subarrays_log2;
        let bits_per_sub = bits.div_ceil(subarrays as u64);
        for rows_log2 in 5..=12u32 {
            let rows = 1u32 << rows_log2;
            let cols = bits_per_sub.div_ceil(rows as u64);
            if cols == 0 {
                continue;
            }
            // Keep columns a multiple of the word width so a whole word can be
            // read from one sub-array row.
            let cols = (cols as u32).div_ceil(word_bits) * word_bits;
            // Avoid grotesquely skewed sub-arrays.
            if cols > 65536 || (cols as u64) < word_bits as u64 {
                continue;
            }
            out.push(ArrayPartition {
                subarrays,
                rows,
                cols,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partitions_cover_requested_bits() {
        let bits = 1 << 20;
        for p in candidate_partitions(bits, 512) {
            assert!(p.total_bits() >= bits, "{p:?} does not cover {bits} bits");
        }
    }

    #[test]
    fn partitions_are_nonempty_for_small_and_large() {
        assert!(!candidate_partitions(1 << 12, 64).is_empty());
        assert!(!candidate_partitions(1 << 28, 512).is_empty());
    }

    #[test]
    fn meets_access_target() {
        let e = MemoryEstimate {
            access_time_ns: 3.0,
            cycle_time_ns: 4.0,
            area_cm2: 0.1,
            partition: ArrayPartition {
                subarrays: 1,
                rows: 32,
                cols: 64,
            },
        };
        assert!(e.meets_access_target(3.2));
        assert!(!e.meets_access_target(2.9));
    }
}
