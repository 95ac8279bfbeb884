//! Criterion micro-benchmark: cost of one crossbar matching
//! (`CrossbarArbiter::schedule`) per algorithm and port count, isolated from
//! the buffers it schedules.
//!
//! Each sample schedules a fixed cycle of pseudo-random request matrices with
//! every output ready. As in `VoqSwitch`, the eligibility probe reads a
//! per-input array of VOQ occupancy counts (`requestable_cells > 0`).
//!
//! * `arbiter_schedule/{islip,maximal}/{8,32,72}` — ~30% of the pairs
//!   request, the density measured in the perfbench workloads' request
//!   matrices (0.30 in `switch32-uniform`, 0.33 in the 8-port stages of the
//!   Clos workloads).
//! * `arbiter_schedule_dense/…` — ~95% of the pairs request, a second point
//!   at which a scalar scan usually stops at its first probe.
//!
//! Port counts 8 and 32 fit one bitset word; 72 spans two. The end-to-end
//! effect of the arbiter shows up as `switch.self_ns_per_port_slot` in the
//! perfbench traced run.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fabric::{ArbiterKind, CrossbarArbiter};

/// Slots (distinct request matrices) scheduled per sample.
const SLOTS: usize = 64;

/// `SLOTS` matrices of per-input VOQ occupancy rows from a fixed-seed
/// SplitMix64 stream: about `percent`% of the counts are non-zero.
fn occupancy_matrices(ports: usize, percent: u64) -> Vec<Vec<Vec<u64>>> {
    let mut state = 0x5EED_0A2B_u64;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    (0..SLOTS)
        .map(|_| {
            (0..ports)
                .map(|_| {
                    (0..ports)
                        .map(|_| {
                            let z = next();
                            if z % 100 < percent {
                                1 + (z >> 32) % 8
                            } else {
                                0
                            }
                        })
                        .collect()
                })
                .collect()
        })
        .collect()
}

fn bench_arbiter(c: &mut Criterion) {
    for (group, percent) in [("arbiter_schedule", 30), ("arbiter_schedule_dense", 95)] {
        bench_density(c, group, percent);
    }
}

fn bench_density(c: &mut Criterion, group_name: &str, percent: u64) {
    let mut group = c.benchmark_group(group_name);
    group.sample_size(20);
    group.measurement_time(std::time::Duration::from_secs(3));
    for (name, kind) in [
        ("islip", ArbiterKind::Islip { iterations: 0 }),
        ("maximal", ArbiterKind::Maximal),
    ] {
        for ports in [8usize, 32, 72] {
            let matrices = occupancy_matrices(ports, percent);
            let ready = vec![true; ports];
            let mut arbiter = CrossbarArbiter::new(kind, ports);
            let mut match_in = vec![None; ports];
            let mut match_out = vec![None; ports];
            group.bench_with_input(BenchmarkId::new(name, ports), &ports, |b, _| {
                b.iter(|| {
                    let mut matched = 0;
                    for (slot, occupancy) in matrices.iter().enumerate() {
                        matched += arbiter.schedule(
                            slot as u64,
                            |i, j| occupancy[i][j] > 0,
                            &ready,
                            &mut match_in,
                            &mut match_out,
                        );
                    }
                    matched
                });
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_arbiter);
criterion_main!(benches);
