//! A fixed memory-speed probe, owned by the benchmark so that no change to
//! the simulator can move it.
//!
//! On a host shared with other tenants, a run's speed follows the load the
//! neighbours put on the shared cache and memory: measured on a 2-vCPU
//! x86-64 VM (2 MB L2 per core, 105 MB shared L3), single runs of one spec
//! spread over 2× and the median of ~80 runs moved by up to 35% between
//! 20-second windows. A random read-modify-write walk over 8 MB slows down
//! with the simulator: dividing each run's time by the probe's time per
//! access, measured just before the run, cut the window-to-window spread
//! of the median to 3–9% on all four workloads.

use std::hint::black_box;
use std::time::Instant;

/// Probe working set: 8 MB, four times a core's L2, so the walk lives in
/// the shared L3 and memory like the simulator's working set.
const PROBE_WORDS: usize = 1 << 20;

/// Probe time per access the normalized rates are scaled to, ns: the median
/// measured on the VM described above.
pub const REFERENCE_NS_PER_ACCESS: f64 = 8.0;

/// Share of a run's time the probe before it takes.
const PROBE_SHARE: f64 = 0.1;

/// The probe's buffer, allocated and touched once.
#[derive(Debug)]
pub struct MemoryProbe {
    words: Vec<u64>,
}

impl Default for MemoryProbe {
    fn default() -> Self {
        MemoryProbe {
            words: vec![1; PROBE_WORDS],
        }
    }
}

impl MemoryProbe {
    /// Walks the buffer for about a tenth of `run_s` (at least 100k
    /// accesses) and returns the time per access, ns.
    pub fn ns_per_access(&mut self, run_s: f64) -> f64 {
        let accesses =
            ((run_s * PROBE_SHARE / (REFERENCE_NS_PER_ACCESS * 1e-9)) as usize).max(100_000);
        let started = Instant::now();
        black_box(walk(&mut self.words, accesses));
        started.elapsed().as_secs_f64() * 1e9 / accesses as f64
    }
}

/// `n` dependent read-modify-writes at pseudo-random (LCG) indices.
fn walk(words: &mut [u64], n: usize) -> u64 {
    let len = words.len();
    let mut index = 1usize;
    let mut sum = 0u64;
    for _ in 0..n {
        index = index
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407)
            % len;
        words[index] = words[index].wrapping_add(sum | 1);
        sum = sum.wrapping_add(words[index]);
    }
    sum
}
