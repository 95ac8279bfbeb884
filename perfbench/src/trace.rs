//! Outside-in tracing of the layer boundaries.
//!
//! Nothing inside the simulator is instrumented. Instead, forwarding
//! wrappers sit on the two boundaries a caller can reach through the public
//! API: [`TracedBuffer`] wraps every packet buffer (handed to
//! `VoqSwitch::new` and to the `ClosFabric::new` build closure, which tags
//! it with its Clos stage) and [`TracedArrivals`] wraps every arrival
//! generator. Each timed call becomes one *span*; spans are aggregated in
//! memory per (operation, stage) — count, total nanoseconds and a log2
//! duration histogram — because a 32-port switch makes ~650k buffer-step
//! spans per 20k slots, far too many to keep one by one.
//!
//! Reading the clock is not free (tens of ns against a few hundred per
//! buffer step), so [`calibrate`] measures what an empty span costs: the
//! part that lands *inside* the measured interval is subtracted from each
//! span, the part *outside* it from the caller's self time. The eligibility
//! probes the crossbar arbiter makes (N² per slot) are counted, not timed;
//! the other cheap read-only calls are forwarded untimed.

use pktbuf::{BatchReport, BufferStats, GrantSink, PacketBuffer, RequestSource, SlotOutcome};
use pktbuf_model::{Cell, LogicalQueueId};
use std::cell::{Cell as StdCell, RefCell};
use std::hint::black_box;
use std::time::Instant;
use traffic::ArrivalGenerator;

/// Which stage of the stack a wrapped buffer serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// A buffer that is not a Clos stage (the lone buffer, a standalone
    /// switch's ports, arrival generators).
    Lone,
    /// A Clos ingress-stage buffer.
    Ingress,
    /// A Clos middle-stage buffer.
    Middle,
    /// A Clos egress-stage buffer.
    Egress,
}

impl Stage {
    /// The stage name.
    pub fn label(self) -> &'static str {
        match self {
            Stage::Lone => "lone",
            Stage::Ingress => "ingress",
            Stage::Middle => "middle",
            Stage::Egress => "egress",
        }
    }

    /// Every stage, in index order.
    pub const ALL: [Stage; 4] = [Stage::Lone, Stage::Ingress, Stage::Middle, Stage::Egress];

    /// The stage a Clos build closure is asked for.
    pub fn of_clos(stage: fabric::ClosStage) -> Stage {
        match stage {
            fabric::ClosStage::Ingress => Stage::Ingress,
            fabric::ClosStage::Middle => Stage::Middle,
            fabric::ClosStage::Egress => Stage::Egress,
        }
    }
}

/// A timed boundary call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `PacketBuffer::step` (one slot of one buffer).
    Step,
    /// `PacketBuffer::step_batch` (a fused batch of slots).
    StepBatch,
    /// `PacketBuffer::advance_idle` (an idle fast-forward).
    AdvanceIdle,
    /// `PacketBuffer::requestable_total`.
    RequestableTotal,
    /// `ArrivalGenerator::next`.
    ArrivalNext,
    /// `ArrivalGenerator::fill_arrivals`.
    ArrivalFill,
    /// An empty span, timed only by [`calibrate`].
    Calibrate,
}

impl Op {
    const COUNT: usize = 7;

    /// Every operation, in index order.
    pub const ALL: [Op; Op::COUNT] = [
        Op::Step,
        Op::StepBatch,
        Op::AdvanceIdle,
        Op::RequestableTotal,
        Op::ArrivalNext,
        Op::ArrivalFill,
        Op::Calibrate,
    ];

    /// The span name: the layer, then the call.
    pub fn label(self) -> &'static str {
        match self {
            Op::Step => "core.step",
            Op::StepBatch => "core.step_batch",
            Op::AdvanceIdle => "core.advance_idle",
            Op::RequestableTotal => "core.requestable_total",
            Op::ArrivalNext => "traffic.next",
            Op::ArrivalFill => "traffic.fill_arrivals",
            Op::Calibrate => "trace.calibrate",
        }
    }

    /// Whether the call belongs to the `core` layer (the buffers) rather
    /// than to `traffic` (the arrival generators).
    pub fn is_core(self) -> bool {
        matches!(
            self,
            Op::Step | Op::StepBatch | Op::AdvanceIdle | Op::RequestableTotal
        )
    }
}

/// Log2 duration buckets per span aggregate; bucket `i` counts spans whose
/// clock-corrected duration has bit length `i` (2^47 ns is over a day).
pub const DURATION_BUCKETS: usize = 48;

/// In-memory aggregate of every span of one (operation, stage).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanAgg {
    /// Spans recorded.
    pub count: u64,
    /// Sum of the raw measured durations (clock cost not yet subtracted).
    pub raw_ns: u64,
    /// Log2 histogram of the clock-corrected per-span durations.
    pub hist: [u64; DURATION_BUCKETS],
}

impl SpanAgg {
    const EMPTY: SpanAgg = SpanAgg {
        count: 0,
        raw_ns: 0,
        hist: [0; DURATION_BUCKETS],
    };
}

/// Every aggregate and work counter of one traced run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Recorder {
    spans: [[SpanAgg; 4]; Op::COUNT],
    /// Clock cost (ns) subtracted from each span before it is bucketed.
    inside_ns: u64,
    /// Slots covered by `step_batch` calls.
    pub batch_slots: u64,
    /// Slots skipped by `advance_idle` calls.
    pub idle_slots: u64,
    /// `requestable_cells` calls (counted, never timed).
    pub probes: u64,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    const fn new() -> Self {
        Recorder {
            spans: [[SpanAgg::EMPTY; 4]; Op::COUNT],
            inside_ns: 0,
            batch_slots: 0,
            idle_slots: 0,
            probes: 0,
        }
    }

    /// The aggregate of `op` at `stage`.
    pub fn span(&self, op: Op, stage: Stage) -> &SpanAgg {
        &self.spans[op as usize][stage as usize]
    }

    /// Total time of the `op` spans at `stage` with `inside_ns` (the clock
    /// cost inside each span) subtracted per span, ns.
    pub fn corrected_ns(&self, op: Op, stage: Stage, inside_ns: f64) -> f64 {
        let s = self.span(op, stage);
        (s.raw_ns as f64 - s.count as f64 * inside_ns).max(0.0)
    }

    /// One line per non-empty aggregate: count, clock-corrected total and
    /// the non-empty log2 buckets (`bit length:count`, spans by corrected
    /// duration in ns).
    pub fn lines(&self, inside_ns: f64) -> Vec<String> {
        let mut lines = Vec::new();
        for op in Op::ALL {
            for stage in Stage::ALL {
                let s = self.span(op, stage);
                if s.count == 0 {
                    continue;
                }
                let buckets: Vec<String> = s
                    .hist
                    .iter()
                    .enumerate()
                    .filter(|(_, &n)| n > 0)
                    .map(|(bits, n)| format!("{bits}:{n}"))
                    .collect();
                lines.push(format!(
                    "span {}@{}: count {}, corrected {:.0} ns, log2 ns buckets {}",
                    op.label(),
                    stage.label(),
                    s.count,
                    self.corrected_ns(op, stage, inside_ns),
                    buckets.join(" ")
                ));
            }
        }
        lines
    }

    /// Spans recorded over every operation and stage.
    pub fn span_count(&self) -> u64 {
        self.spans.iter().flatten().map(|s| s.count).sum()
    }

    /// Folds `other` (another run's aggregates) into `self`.
    pub fn merge(&mut self, other: &Recorder) {
        for (mine, theirs) in self
            .spans
            .iter_mut()
            .flatten()
            .zip(other.spans.iter().flatten())
        {
            mine.count += theirs.count;
            mine.raw_ns += theirs.raw_ns;
            for (a, b) in mine.hist.iter_mut().zip(theirs.hist.iter()) {
                *a += b;
            }
        }
        self.batch_slots += other.batch_slots;
        self.idle_slots += other.idle_slots;
        self.probes += other.probes;
    }

    #[inline]
    fn record(&mut self, op: Op, stage: Stage, ns: u64) {
        let agg = &mut self.spans[op as usize][stage as usize];
        agg.count += 1;
        agg.raw_ns += ns;
        let corrected = ns.saturating_sub(self.inside_ns);
        let bucket = (u64::BITS - corrected.leading_zeros()) as usize;
        agg.hist[bucket.min(DURATION_BUCKETS - 1)] += 1;
    }
}

thread_local! {
    static RECORDER: RefCell<Recorder> = const { RefCell::new(Recorder::new()) };
    static PROBES: StdCell<u64> = const { StdCell::new(0) };
}

/// Clears this thread's aggregates and sets the per-span clock cost to
/// subtract before bucketing. Traced runs are single-threaded (`workers =
/// 1`), so every span of a run lands in the calling thread's recorder.
pub fn reset(inside_ns: u64) {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        *r = Recorder::new();
        r.inside_ns = inside_ns;
    });
    PROBES.with(|p| p.set(0));
}

/// Takes this thread's aggregates, leaving an empty recorder behind.
pub fn take() -> Recorder {
    let mut rec = RECORDER.with(|r| std::mem::take(&mut *r.borrow_mut()));
    rec.probes = PROBES.with(|p| p.replace(0));
    rec
}

/// Runs `f` as one span of `op` at `stage`.
#[inline(always)]
fn timed<R>(op: Op, stage: Stage, f: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let out = f();
    let ns = start.elapsed().as_nanos() as u64;
    RECORDER.with(|r| r.borrow_mut().record(op, stage, ns));
    out
}

fn add_work(update: impl FnOnce(&mut Recorder)) {
    RECORDER.with(|r| update(&mut r.borrow_mut()));
}

/// What one empty span costs, split at the measured interval's edges.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClockCost {
    /// Nanoseconds an empty span measures: subtracted from every span.
    pub inside_ns: f64,
    /// Nanoseconds an empty span costs its caller beyond what it measures
    /// (the second clock read's tail, bookkeeping): subtracted from the
    /// caller's self time once per span.
    pub outside_ns: f64,
}

impl ClockCost {
    /// Total clock cost of one span.
    pub fn per_span_ns(&self) -> f64 {
        self.inside_ns + self.outside_ns
    }
}

/// Measures the cost of an empty span: the median over several trials of
/// `SPANS` back-to-back empty spans, each trial on a fresh recorder.
pub fn calibrate() -> ClockCost {
    const TRIALS: usize = 9;
    const SPANS: u64 = 200_000;
    let mut inside = Vec::with_capacity(TRIALS);
    let mut outside = Vec::with_capacity(TRIALS);
    for _ in 0..TRIALS {
        reset(0);
        let start = Instant::now();
        for i in 0..SPANS {
            timed(Op::Calibrate, Stage::Lone, || black_box(i));
        }
        let wall = start.elapsed().as_nanos() as f64;
        let measured = take().span(Op::Calibrate, Stage::Lone).raw_ns as f64;
        inside.push(measured / SPANS as f64);
        outside.push((wall - measured).max(0.0) / SPANS as f64);
    }
    ClockCost {
        inside_ns: crate::median(&mut inside),
        outside_ns: crate::median(&mut outside),
    }
}

/// A forwarding [`PacketBuffer`] that times every state-changing call (and
/// `requestable_total`) as a `core` span tagged with its stage, and counts
/// the arbiter's `requestable_cells` probes.
///
/// Every trait method is forwarded — including the defaulted
/// `step_batch`, `advance_idle`, `is_quiescent` and `requestable_total` —
/// so the traced run takes exactly the fused-batch and idle-skip paths of
/// the untraced one.
#[derive(Debug)]
pub struct TracedBuffer<B> {
    inner: B,
    stage: Stage,
}

impl<B> TracedBuffer<B> {
    /// Wraps `inner`, tagging its spans with `stage`.
    pub fn new(inner: B, stage: Stage) -> Self {
        TracedBuffer { inner, stage }
    }

    /// The wrapped buffer.
    pub fn inner(&self) -> &B {
        &self.inner
    }
}

impl<B: PacketBuffer> PacketBuffer for TracedBuffer<B> {
    fn step(&mut self, arrival: Option<Cell>, request: Option<LogicalQueueId>) -> SlotOutcome {
        let inner = &mut self.inner;
        timed(Op::Step, self.stage, || inner.step(arrival, request))
    }

    fn current_slot(&self) -> u64 {
        self.inner.current_slot()
    }

    fn num_queues(&self) -> usize {
        self.inner.num_queues()
    }

    fn requestable_cells(&self, queue: LogicalQueueId) -> u64 {
        PROBES.with(|p| p.set(p.get() + 1));
        self.inner.requestable_cells(queue)
    }

    fn pipeline_delay_slots(&self) -> usize {
        self.inner.pipeline_delay_slots()
    }

    fn stats(&self) -> &BufferStats {
        self.inner.stats()
    }

    fn design_name(&self) -> &'static str {
        self.inner.design_name()
    }

    fn step_batch<R: RequestSource>(
        &mut self,
        arrivals: &mut [Option<Cell>],
        requests: &mut R,
        grants: &mut GrantSink,
    ) -> BatchReport {
        add_work(|r| r.batch_slots += arrivals.len() as u64);
        let inner = &mut self.inner;
        timed(Op::StepBatch, self.stage, || {
            inner.step_batch(arrivals, requests, grants)
        })
    }

    fn advance_idle(&mut self, slots: u64) {
        add_work(|r| r.idle_slots += slots);
        let inner = &mut self.inner;
        timed(Op::AdvanceIdle, self.stage, || inner.advance_idle(slots));
    }

    fn is_quiescent(&self) -> bool {
        self.inner.is_quiescent()
    }

    fn requestable_total(&self) -> u64 {
        let inner = &self.inner;
        timed(Op::RequestableTotal, self.stage, || {
            inner.requestable_total()
        })
    }
}

/// A forwarding [`ArrivalGenerator`] that times every call as a `traffic`
/// span.
#[derive(Debug)]
pub struct TracedArrivals<A> {
    inner: A,
}

impl<A> TracedArrivals<A> {
    /// Wraps `inner`.
    pub fn new(inner: A) -> Self {
        TracedArrivals { inner }
    }
}

impl<A: ArrivalGenerator> ArrivalGenerator for TracedArrivals<A> {
    fn next(&mut self, slot: u64) -> Option<Cell> {
        let inner = &mut self.inner;
        timed(Op::ArrivalNext, Stage::Lone, || inner.next(slot))
    }

    fn fill_arrivals(&mut self, base_slot: u64, out: &mut [Option<Cell>]) -> usize {
        let inner = &mut self.inner;
        timed(Op::ArrivalFill, Stage::Lone, || {
            inner.fill_arrivals(base_slot, out)
        })
    }

    fn num_queues(&self) -> usize {
        self.inner.num_queues()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}
