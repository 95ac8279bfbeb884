//! The `SlotOutcome::newly_requestable` contract of `PacketBuffer::step`:
//! within one step the accepted request's queue falls by one cell, at most
//! one queue's `requestable_cells` rises, and the outcome names exactly that
//! queue (`None` when no count rose, discounting the request's fall). A
//! fabric that keeps its request matrix current from this field alone
//! depends on every design — and the mixed-design `PortBuffer` — keeping it.

use fabric::PortBuffer;
use pktbuf::{CfdsBuffer, DramOnlyBuffer, PacketBuffer, RadsBuffer};
use pktbuf_model::{Cell, CfdsConfig, DramTiming, LineRate, LogicalQueueId, RadsConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const QUEUES: usize = 8;
const SLOTS: u64 = 20_000;

fn counts(buffer: &impl PacketBuffer) -> Vec<u64> {
    (0..QUEUES as u32)
        .map(|q| buffer.requestable_cells(LogicalQueueId::new(q)))
        .collect()
}

/// Drives `buffer` with random arrivals (probability `load` per slot, random
/// queue) and random contract-abiding requests (probability 0.9 per slot,
/// for a random queue with a requestable cell) and checks every slot's
/// `newly_requestable` against the counts probed before and after the step.
fn check_contract(mut buffer: impl PacketBuffer, design: &str, load: f64, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut seqs = [0u64; QUEUES];
    let mut raised_slots = 0u64;
    for slot in 0..SLOTS {
        let arrival = rng.gen_bool(load).then(|| {
            let q = rng.gen_range(0..QUEUES);
            let cell = Cell::new(LogicalQueueId::new(q as u32), seqs[q], slot);
            seqs[q] += 1;
            cell
        });
        let before = counts(&buffer);
        let start = rng.gen_range(0..QUEUES);
        let request = rng
            .gen_bool(0.9)
            .then(|| {
                (0..QUEUES)
                    .map(|k| (start + k) % QUEUES)
                    .find(|&q| before[q] > 0)
            })
            .flatten();
        let outcome = buffer.step(arrival, request.map(|q| LogicalQueueId::new(q as u32)));
        let after = counts(&buffer);
        // Each queue's change, with the accepted request's one-cell fall
        // added back: never negative, and positive for at most one queue.
        let rises: Vec<usize> = (0..QUEUES)
            .filter(|&q| {
                let rise = after[q] as i64 - before[q] as i64 + i64::from(request == Some(q));
                assert!(
                    rise >= 0,
                    "{design}, slot {slot}: queue {q} fell by {}",
                    -rise
                );
                rise > 0
            })
            .collect();
        assert!(
            rises.len() <= 1,
            "{design}, slot {slot}: queues {rises:?} all rose in one step"
        );
        assert_eq!(
            outcome.newly_requestable.map(LogicalQueueId::as_usize),
            rises.first().copied(),
            "{design}, slot {slot}: counts {before:?} -> {after:?}, request {request:?}"
        );
        raised_slots += u64::from(outcome.newly_requestable.is_some());
    }
    assert!(
        raised_slots > 100,
        "{design}: only {raised_slots} slots raised a queue"
    );
    assert!(buffer.stats().grants > 0, "{design}: no grants");
}

fn rads_cfg() -> RadsConfig {
    RadsConfig {
        line_rate: LineRate::Oc3072,
        num_queues: QUEUES,
        granularity: 4,
        lookahead: None,
        dram: DramTiming::paper_design_point(),
    }
}

#[test]
fn rads_names_the_queue_its_writeback_raised() {
    check_contract(RadsBuffer::new(rads_cfg()), "RADS", 0.9, 1);
}

#[test]
fn cfds_names_the_queue_its_writeback_raised() {
    let cfg = CfdsConfig::builder()
        .line_rate(LineRate::Oc3072)
        .num_queues(QUEUES)
        .granularity(2)
        .rads_granularity(8)
        .num_banks(16)
        .build()
        .expect("valid CFDS configuration");
    check_contract(CfdsBuffer::new(cfg), "CFDS", 0.9, 2);
}

#[test]
fn dram_only_names_the_queue_its_write_raised() {
    // Arrivals below one per random access time (B = 4 slots) keep the
    // write backlog bounded.
    check_contract(DramOnlyBuffer::new(rads_cfg()), "DRAM-only", 0.2, 3);
}

#[test]
fn port_buffer_forwards_newly_requestable() {
    let port = PortBuffer::from(RadsBuffer::new(rads_cfg()));
    check_contract(port, "RADS via PortBuffer", 0.9, 4);
}
