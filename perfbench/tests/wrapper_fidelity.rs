//! The tracing wrappers must forward every trait method, defaulted ones
//! included: a wrapper that let `step_batch`, `advance_idle`,
//! `is_quiescent` or `requestable_total` fall back to the trait default
//! would silently push the traced run off the fused-batch and idle-skip
//! paths that the untraced run takes.

use perfbench::trace::{self, Op, Stage, TracedArrivals, TracedBuffer};
use pktbuf::{BatchReport, BufferStats, GrantSink, PacketBuffer, RequestSource, SlotOutcome};
use pktbuf_model::{Cell, LogicalQueueId};
use std::cell::Cell as Counter;
use traffic::ArrivalGenerator;

/// A buffer whose overrides of the defaulted methods answer differently
/// from the defaults and count their calls; `step` counts too, since every
/// default but `is_quiescent` and `requestable_total` is built from it.
#[derive(Debug, Default)]
struct Sentinel {
    stats: BufferStats,
    steps: Counter<u64>,
    batches: Counter<u64>,
    idles: Counter<u64>,
    quiescence: Counter<u64>,
    totals: Counter<u64>,
}

impl PacketBuffer for Sentinel {
    fn step(&mut self, _arrival: Option<Cell>, _request: Option<LogicalQueueId>) -> SlotOutcome {
        self.steps.set(self.steps.get() + 1);
        SlotOutcome::default()
    }
    fn current_slot(&self) -> u64 {
        0
    }
    fn num_queues(&self) -> usize {
        2
    }
    fn requestable_cells(&self, _queue: LogicalQueueId) -> u64 {
        0
    }
    fn pipeline_delay_slots(&self) -> usize {
        0
    }
    fn stats(&self) -> &BufferStats {
        &self.stats
    }
    fn design_name(&self) -> &'static str {
        "sentinel"
    }
    fn step_batch<R: RequestSource>(
        &mut self,
        arrivals: &mut [Option<Cell>],
        _requests: &mut R,
        _grants: &mut GrantSink,
    ) -> BatchReport {
        self.batches.set(self.batches.get() + 1);
        BatchReport {
            requests: 77,
            trailing_requestless: arrivals.len() as u64,
        }
    }
    fn advance_idle(&mut self, _slots: u64) {
        self.idles.set(self.idles.get() + 1);
    }
    fn is_quiescent(&self) -> bool {
        self.quiescence.set(self.quiescence.get() + 1);
        true
    }
    fn requestable_total(&self) -> u64 {
        self.totals.set(self.totals.get() + 1);
        4242
    }
}

struct NoRequests;

impl RequestSource for NoRequests {
    fn next_request<F>(&mut self, _slot: u64, _requestable: &F) -> Option<LogicalQueueId>
    where
        F: Fn(LogicalQueueId) -> u64 + ?Sized,
    {
        None
    }
}

#[test]
fn traced_buffer_forwards_every_defaulted_method() {
    trace::reset(0);
    let mut buffer = TracedBuffer::new(Sentinel::default(), Stage::Middle);
    let mut ring = [None, None, None];
    let report = buffer.step_batch(&mut ring, &mut NoRequests, &mut GrantSink::new(false));
    buffer.advance_idle(1_000);
    let quiescent = buffer.is_quiescent();
    let total = buffer.requestable_total();
    let rec = trace::take();

    let inner = buffer.inner();
    assert_eq!(
        inner.batches.get(),
        1,
        "step_batch fell back to the default"
    );
    assert_eq!(
        inner.idles.get(),
        1,
        "advance_idle fell back to the default"
    );
    assert_eq!(
        inner.quiescence.get(),
        1,
        "is_quiescent fell back to the default"
    );
    assert_eq!(
        inner.totals.get(),
        1,
        "requestable_total fell back to the default"
    );
    assert_eq!(inner.steps.get(), 0, "a default stepped slot by slot");
    assert_eq!(report.requests, 77);
    assert!(quiescent);
    assert_eq!(total, 4242);

    assert_eq!(rec.span(Op::StepBatch, Stage::Middle).count, 1);
    assert_eq!(rec.span(Op::AdvanceIdle, Stage::Middle).count, 1);
    assert_eq!(rec.span(Op::RequestableTotal, Stage::Middle).count, 1);
    assert_eq!(rec.batch_slots, 3);
    assert_eq!(rec.idle_slots, 1_000);
}

#[test]
fn traced_buffer_times_steps_and_counts_probes() {
    trace::reset(0);
    let mut buffer = TracedBuffer::new(Sentinel::default(), Stage::Ingress);
    buffer.step(None, None);
    for q in 0..2 {
        buffer.requestable_cells(LogicalQueueId::new(q));
    }
    let rec = trace::take();
    assert_eq!(buffer.inner().steps.get(), 1);
    assert_eq!(rec.span(Op::Step, Stage::Ingress).count, 1);
    assert_eq!(rec.probes, 2);
    assert_eq!(rec.span_count(), 1, "probes are counted, never timed");
}

/// A generator whose batch entry point is distinguishable from the
/// default (which would call `next` once per slot).
#[derive(Debug, Default)]
struct BatchSentinel {
    nexts: u64,
    fills: u64,
}

impl ArrivalGenerator for BatchSentinel {
    fn next(&mut self, _slot: u64) -> Option<Cell> {
        self.nexts += 1;
        None
    }
    fn fill_arrivals(&mut self, _base_slot: u64, out: &mut [Option<Cell>]) -> usize {
        self.fills += 1;
        out.len()
    }
    fn num_queues(&self) -> usize {
        1
    }
    fn name(&self) -> &'static str {
        "batch-sentinel"
    }
}

#[test]
fn traced_arrivals_forward_the_batch_entry_point() {
    trace::reset(0);
    let mut arrivals = TracedArrivals::new(BatchSentinel::default());
    let mut ring = [None, None, None, None];
    assert_eq!(arrivals.fill_arrivals(0, &mut ring), 4);
    assert_eq!(arrivals.name(), "batch-sentinel");
    let rec = trace::take();
    assert_eq!(rec.span(Op::ArrivalFill, Stage::Lone).count, 1);
    assert_eq!(rec.span(Op::ArrivalNext, Stage::Lone).count, 0);
}
