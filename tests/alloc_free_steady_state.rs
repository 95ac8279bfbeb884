//! Pins the tentpole claim of the hot-path rework: once warmed up, the slot
//! loop of every buffer design performs **zero heap allocations** — all
//! steady-state state lives in preallocated, index-addressed structures
//! (`pktbuf::hotpath`, the ring-based DRAM store and head SRAM, the pooled
//! block buffers).
//!
//! A counting global allocator wraps the system allocator; each design is
//! driven through a warm-up phase (rings grow to their high-water marks, the
//! block pool fills, the pending tables widen) and then through a measured
//! phase during which the allocation counter must not move. The workload
//! mixes live arrivals with a round-robin drain so every subsystem — tail
//! arena, writeback, DRAM scheduler, head SRAM, grants — stays active while
//! counting. The crossbar arbiter that couples a fabric's ports is held to
//! the same bar: a warmed-up `CrossbarArbiter::schedule` loop must not
//! allocate either.

use fabric::{ArbiterKind, CrossbarArbiter};
use pktbuf::{CfdsBuffer, DramOnlyBuffer, PacketBuffer, RadsBuffer};
use pktbuf_model::{Cell, CfdsConfig, DramTiming, LineRate, LogicalQueueId, RadsConfig};
use sim::SimulationEngine;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use traffic::{AdversarialRoundRobin, RoundRobinArrivals};

/// Counts every allocation and reallocation passed to the system allocator.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates directly to `System`, only adding a relaxed counter
// increment; the layout contracts are forwarded unchanged.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

const WARMUP_SLOTS: u64 = 60_000;
const MEASURED_SLOTS: u64 = 20_000;

/// Drives `buffer` with a deterministic 50%-load arrival stream and a
/// round-robin request stream (the paper's adversarial pattern), without any
/// allocating generator machinery of its own.
fn drive(
    buffer: &mut dyn PacketBuffer,
    slots: u64,
    arrival_period: u64,
    seqs: &mut [u64],
    next_req: &mut u32,
) {
    let q = buffer.num_queues() as u64;
    let start = buffer.current_slot();
    for t in start..start + slots {
        let arrival = if t % arrival_period == 0 {
            let qi = ((t / arrival_period) % q) as usize;
            let cell = Cell::new(LogicalQueueId::new(qi as u32), seqs[qi], t);
            seqs[qi] += 1;
            Some(cell)
        } else {
            None
        };
        let mut request = None;
        for i in 0..q as u32 {
            let candidate = LogicalQueueId::new((*next_req + i) % q as u32);
            if buffer.requestable_cells(candidate) > 0 {
                *next_req = (candidate.index() + 1) % q as u32;
                request = Some(candidate);
                break;
            }
        }
        buffer.step(arrival, request);
    }
}

fn assert_steady_state_alloc_free(
    buffer: &mut dyn PacketBuffer,
    design: &str,
    arrival_period: u64,
    expect_no_misses: bool,
) {
    let mut seqs = vec![0u64; buffer.num_queues()];
    let mut next_req = 0u32;
    drive(
        buffer,
        WARMUP_SLOTS,
        arrival_period,
        &mut seqs,
        &mut next_req,
    );

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    drive(
        buffer,
        MEASURED_SLOTS,
        arrival_period,
        &mut seqs,
        &mut next_req,
    );
    let after = ALLOCATIONS.load(Ordering::SeqCst);

    assert_eq!(
        after - before,
        0,
        "{design}: steady-state slot loop allocated {} times over {MEASURED_SLOTS} slots",
        after - before
    );
    // The loop did real work while being counted.
    assert!(buffer.stats().grants > 0, "{design}: no grants during test");
    if expect_no_misses {
        assert_eq!(buffer.stats().misses, 0, "{design}: unexpected misses");
    }
}

/// A fixed pseudo-random request matrix per slot at ~95% density, computed
/// on the fly (SplitMix64 finaliser over `(slot, i, j)`) so the probe itself
/// allocates nothing.
fn dense_request(slot: u64, i: usize, j: usize) -> bool {
    let mut z = slot
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(((i as u64) << 32) | j as u64);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    !(z ^ (z >> 31)).is_multiple_of(20)
}

/// Drives a warmed-up crossbar arbiter of `ports` ports and asserts its
/// `schedule` never allocates: every bitset and pointer is sized in `new`.
fn assert_arbiter_alloc_free(kind: ArbiterKind, ports: usize) {
    let mut arbiter = CrossbarArbiter::new(kind, ports);
    let mut ready = vec![true; ports];
    let mut match_in = vec![None; ports];
    let mut match_out = vec![None; ports];
    let mut run = |slots: std::ops::Range<u64>| {
        let mut matched = 0;
        for slot in slots {
            for (j, r) in ready.iter_mut().enumerate() {
                *r = !(slot + j as u64).is_multiple_of(7);
            }
            matched += arbiter.schedule(
                slot,
                |i, j| dense_request(slot, i, j),
                &ready,
                &mut match_in,
                &mut match_out,
            );
        }
        matched
    };
    run(0..200);

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let matched = run(200..2_200);
    let after = ALLOCATIONS.load(Ordering::SeqCst);

    assert_eq!(
        after - before,
        0,
        "{kind:?} arbiter at {ports} ports allocated {} times over 2000 slots",
        after - before
    );
    assert!(
        matched > 0,
        "{kind:?} arbiter at {ports} ports matched nothing"
    );
}

/// One test function (not three): integration tests run in threads, and a
/// second concurrently-running test would pollute the global counter.
#[test]
fn steady_state_slot_loop_is_allocation_free() {
    let rads_cfg = RadsConfig {
        line_rate: LineRate::Oc3072,
        num_queues: 16,
        granularity: 8,
        lookahead: None,
        dram: DramTiming::paper_design_point(),
    };
    let mut rads = RadsBuffer::new(rads_cfg);
    assert_steady_state_alloc_free(&mut rads, "RADS", 2, true);

    let cfds_cfg = CfdsConfig::builder()
        .line_rate(LineRate::Oc3072)
        .num_queues(16)
        .granularity(2)
        .rads_granularity(8)
        .num_banks(16)
        .build()
        .unwrap();
    let mut cfds = CfdsBuffer::new(cfds_cfg);
    assert_steady_state_alloc_free(&mut cfds, "CFDS", 2, true);

    // The DRAM-only write port absorbs one cell per random access time (B
    // slots); a faster arrival stream would grow its write backlog without
    // bound (that is the design's documented failure mode, not an allocation
    // bug), so pace arrivals below 1/B and tolerate its read-port misses.
    let mut dram_only = DramOnlyBuffer::new(rads_cfg);
    assert_steady_state_alloc_free(&mut dram_only, "DRAM-only", 10, false);

    // And the whole *engine* path on a warm buffer: chunked arrival
    // generation, fused slot batches, the drain with its idle fast-forward,
    // and — the point of the interned workload labels — the construction of
    // the `SimulationReport` itself. The first run is the warm-up (rings and
    // pools grow to their high-water marks); the second, identical run must
    // not allocate at all.
    let q = 16usize;
    let warmup_slots = 60_000u64; // multiple of q: seq offsets line up below
    let mut rads = RadsBuffer::new(rads_cfg);
    {
        let mut arrivals = RoundRobinArrivals::new(q);
        let mut requests = AdversarialRoundRobin::new(q);
        let warm = SimulationEngine::new_mono(&mut rads).run_chunked(
            &mut arrivals,
            &mut requests,
            warmup_slots,
        );
        assert!(warm.stats.grants > 0);
    }
    let mut arrivals = RoundRobinArrivals::new(q).with_seq_offset(warmup_slots / q as u64);
    let mut requests = AdversarialRoundRobin::new(q);
    let engine = SimulationEngine::new_mono(&mut rads);

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let report = engine.run_chunked(&mut arrivals, &mut requests, MEASURED_SLOTS);
    let after = ALLOCATIONS.load(Ordering::SeqCst);

    assert_eq!(
        after - before,
        0,
        "engine run incl. report construction allocated {} times over {MEASURED_SLOTS} slots",
        after - before
    );
    assert!(report.stats.grants > 0, "engine run did no work");
    // The label came out of the static intern table, not a fresh `String`.
    assert_eq!(report.workload, "round-robin+adversarial-round-robin");
    assert_eq!(report.design, "RADS");
    assert!(report.grant_log.is_none());

    // The crossbar arbiter that couples a fabric's ports, on one bitset
    // word (32 ports) and across a word boundary (72 ports).
    for ports in [32, 72] {
        assert_arbiter_alloc_free(ArbiterKind::Islip { iterations: 0 }, ports);
        assert_arbiter_alloc_free(ArbiterKind::Maximal, ports);
    }
}
