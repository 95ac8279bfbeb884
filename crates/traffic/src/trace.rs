//! Trace recording and replay.

use crate::arrivals::ArrivalGenerator;
use crate::requests::RequestGenerator;
use pktbuf_model::{Cell, LogicalQueueId};
use serde::{Deserialize, Serialize};

/// A recorded workload: per-slot arrivals and requests.
///
/// Traces make experiments exactly reproducible across designs: the same trace
/// can be replayed against RADS, CFDS and the DRAM-only baseline and the
/// delivered cell streams compared.
#[derive(Debug, Clone, Default, Serialize, Deserialize, PartialEq, Eq)]
pub struct RecordedTrace {
    /// Arrival at each slot (queue index), `None` for idle slots.
    pub arrivals: Vec<Option<u32>>,
    /// Request at each slot (queue index), `None` for idle slots.
    pub requests: Vec<Option<u32>>,
}

impl RecordedTrace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        RecordedTrace::default()
    }

    /// Appends one slot.
    pub fn push(&mut self, arrival: Option<u32>, request: Option<u32>) {
        self.arrivals.push(arrival);
        self.requests.push(request);
    }

    /// Number of recorded slots.
    pub fn len(&self) -> usize {
        self.arrivals.len().max(self.requests.len())
    }

    /// Whether the trace holds no slots.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Replays the arrival side of a [`RecordedTrace`].
#[derive(Debug, Clone)]
pub struct TraceArrivals {
    trace: Vec<Option<u32>>,
    num_queues: usize,
    seq: crate::seq::SeqTracker,
}

impl TraceArrivals {
    /// Creates a replay source over `num_queues` queues.
    pub fn new(trace: &RecordedTrace, num_queues: usize) -> Self {
        TraceArrivals {
            trace: trace.arrivals.clone(),
            num_queues,
            seq: crate::seq::SeqTracker::new(num_queues),
        }
    }
}

impl ArrivalGenerator for TraceArrivals {
    fn next(&mut self, slot: u64) -> Option<Cell> {
        let entry = self.trace.get(slot as usize).copied().flatten()?;
        Some(self.seq.mint(LogicalQueueId::new(entry), slot))
    }

    fn num_queues(&self) -> usize {
        self.num_queues
    }

    fn name(&self) -> &'static str {
        "trace"
    }
}

/// Replays the request side of a [`RecordedTrace`].
///
/// A recorded request is only emitted when the buffer can still honour it; a
/// blocked request is retried at the next slot (the replay therefore never
/// violates the requestability rule even against a different design).
#[derive(Debug, Clone)]
pub struct TraceRequests {
    trace: Vec<Option<u32>>,
    cursor: usize,
}

impl TraceRequests {
    /// Creates a replay source.
    pub fn new(trace: &RecordedTrace) -> Self {
        TraceRequests {
            trace: trace.requests.clone(),
            cursor: 0,
        }
    }

    /// Whether every recorded request has been emitted.
    pub fn finished(&self) -> bool {
        self.cursor >= self.trace.len()
    }
}

impl RequestGenerator for TraceRequests {
    fn next(
        &mut self,
        _slot: u64,
        requestable: &dyn Fn(LogicalQueueId) -> u64,
    ) -> Option<LogicalQueueId> {
        // Skip over idle entries.
        while self.cursor < self.trace.len() && self.trace[self.cursor].is_none() {
            self.cursor += 1;
        }
        let entry = *self.trace.get(self.cursor)?;
        let q = LogicalQueueId::new(entry.expect("idle entries skipped above"));
        if requestable(q) > 0 {
            self.cursor += 1;
            Some(q)
        } else {
            None
        }
    }

    fn name(&self) -> &'static str {
        "trace"
    }
}

/// A recorded *traffic matrix*: per-port, per-slot arrivals with explicit
/// destinations **and sequence numbers**.
///
/// [`RecordedTrace`] re-mints sequence numbers on replay, which is fine for
/// open-loop workloads where seqs are a per-queue counter. A closed-loop
/// transport reuses sequence numbers on retransmission, so its arrival
/// stream cannot be reproduced by re-minting — the matrix trace therefore
/// stores the exact `(dest, seq)` of every injected cell. Replaying one
/// through a fabric (from slot 0, with the same fault plan armed) must
/// reproduce the recorded run's delivery matrix bit-identically.
#[derive(Debug, Clone, Default, Serialize, Deserialize, PartialEq, Eq)]
pub struct MatrixTrace {
    /// `arrivals[port][slot]` is the cell injected at `port` in `slot` as
    /// `(dest, seq)`, or `None` for an idle slot.
    pub arrivals: Vec<Vec<Option<(u32, u64)>>>,
}

impl MatrixTrace {
    /// Creates an empty trace over `ports` external ports.
    pub fn new(ports: usize) -> Self {
        MatrixTrace {
            arrivals: vec![Vec::new(); ports],
        }
    }

    /// Appends one slot: `row[p]` is the cell injected at port `p`.
    ///
    /// # Panics
    /// If `row.len()` does not match the port count.
    pub fn record_slot(&mut self, row: &[Option<(u32, u64)>]) {
        assert_eq!(row.len(), self.arrivals.len(), "row width != port count");
        for (port, cell) in self.arrivals.iter_mut().zip(row) {
            port.push(*cell);
        }
    }

    /// Appends `slots` idle slots on every port (used when the recording
    /// run fast-forwards through a quiet gap).
    pub fn pad_idle(&mut self, slots: u64) {
        for port in &mut self.arrivals {
            port.extend(std::iter::repeat_n(None, slots as usize));
        }
    }

    /// Number of recorded slots.
    pub fn len(&self) -> usize {
        self.arrivals.first().map_or(0, Vec::len)
    }

    /// Whether the trace holds no slots.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of external ports.
    pub fn ports(&self) -> usize {
        self.arrivals.len()
    }

    /// Records `slots` slots of the given per-port generators by consuming
    /// them — the open-loop path into a matrix trace.
    pub fn record<A: ArrivalGenerator>(gens: &mut [A], slots: u64) -> MatrixTrace {
        let mut trace = MatrixTrace::new(gens.len());
        let mut row = vec![None; gens.len()];
        for slot in 0..slots {
            for (g, out) in gens.iter_mut().zip(row.iter_mut()) {
                *out = g.next(slot).map(|c| (c.queue().index(), c.seq()));
            }
            trace.record_slot(&row);
        }
        trace
    }

    /// Builds one replay generator per recorded port. Replays must start at
    /// fabric slot 0: entries are indexed by absolute slot.
    pub fn replay(&self) -> Vec<MatrixTraceArrivals> {
        (0..self.ports())
            .map(|p| MatrixTraceArrivals {
                trace: self.arrivals[p].clone(),
                num_queues: self.ports(),
            })
            .collect()
    }
}

/// Replays one port of a [`MatrixTrace`] verbatim — destinations *and*
/// sequence numbers come from the trace, nothing is re-minted.
#[derive(Debug, Clone)]
pub struct MatrixTraceArrivals {
    trace: Vec<Option<(u32, u64)>>,
    num_queues: usize,
}

impl ArrivalGenerator for MatrixTraceArrivals {
    fn next(&mut self, slot: u64) -> Option<Cell> {
        let (dest, seq) = self.trace.get(slot as usize).copied().flatten()?;
        Some(Cell::new(LogicalQueueId::new(dest), seq, slot))
    }

    fn num_queues(&self) -> usize {
        self.num_queues
    }

    fn name(&self) -> &'static str {
        "matrix-trace"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traces_round_trip_through_json() {
        let mut trace = RecordedTrace::new();
        trace.push(Some(2), None);
        trace.push(None, Some(0));
        let json = serde_json::to_string(&trace).unwrap();
        assert_eq!(json, "{\"arrivals\":[2,null],\"requests\":[null,0]}");
        assert_eq!(serde_json::from_str::<RecordedTrace>(&json).unwrap(), trace);

        let mut matrix = MatrixTrace::new(2);
        matrix.record_slot(&[Some((1, 0)), None]);
        matrix.record_slot(&[None, Some((0, 5))]);
        let json = serde_json::to_string(&matrix).unwrap();
        assert_eq!(json, "{\"arrivals\":[[[1,0],null],[null,[0,5]]]}");
        let back: MatrixTrace = serde_json::from_str(&json).unwrap();
        assert_eq!(back, matrix);
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
    }

    #[test]
    fn trace_records_and_replays_arrivals() {
        let mut trace = RecordedTrace::new();
        trace.push(Some(1), None);
        trace.push(None, Some(1));
        trace.push(Some(1), Some(1));
        assert_eq!(trace.len(), 3);
        assert!(!trace.is_empty());

        let mut arr = TraceArrivals::new(&trace, 4);
        assert_eq!(arr.next(0).unwrap().queue().index(), 1);
        assert!(arr.next(1).is_none());
        let c = arr.next(2).unwrap();
        assert_eq!(c.seq(), 1, "second cell of queue 1");
        assert!(arr.next(3).is_none(), "past the end of the trace");
        assert_eq!(arr.name(), "trace");
        assert_eq!(arr.num_queues(), 4);
    }

    #[test]
    fn trace_requests_defer_until_requestable() {
        let mut trace = RecordedTrace::new();
        trace.push(None, Some(2));
        trace.push(None, Some(2));
        let mut reqs = TraceRequests::new(&trace);
        let empty = |_q: LogicalQueueId| 0u64;
        let ready = |_q: LogicalQueueId| 1u64;
        // Not requestable yet: the entry is retried, not lost.
        assert_eq!(reqs.next(0, &empty), None);
        assert!(!reqs.finished());
        assert_eq!(reqs.next(1, &ready).unwrap().index(), 2);
        assert_eq!(reqs.next(2, &ready).unwrap().index(), 2);
        assert!(reqs.finished());
        assert_eq!(reqs.next(3, &ready), None);
        assert_eq!(reqs.name(), "trace");
    }

    #[test]
    fn empty_trace_is_empty() {
        assert!(RecordedTrace::new().is_empty());
        assert!(MatrixTrace::new(4).is_empty());
    }

    #[test]
    fn matrix_trace_replays_explicit_seqs_verbatim() {
        let mut trace = MatrixTrace::new(2);
        trace.record_slot(&[Some((1, 0)), None]);
        trace.record_slot(&[None, Some((0, 5))]);
        // A retransmission reuses seq 0 — a re-minting replay could not
        // reproduce this.
        trace.record_slot(&[Some((1, 0)), None]);
        trace.pad_idle(2);
        assert_eq!(trace.len(), 5);
        assert_eq!(trace.ports(), 2);

        let mut gens = trace.replay();
        assert_eq!(gens.len(), 2);
        let c = gens[0].next(0).unwrap();
        assert_eq!((c.queue().index(), c.seq(), c.arrival_slot()), (1, 0, 0));
        assert!(gens[0].next(1).is_none());
        let c = gens[1].next(1).unwrap();
        assert_eq!((c.queue().index(), c.seq()), (0, 5));
        let c = gens[0].next(2).unwrap();
        assert_eq!((c.queue().index(), c.seq()), (1, 0), "reused seq survives");
        assert!(gens[0].next(3).is_none());
        assert!(gens[0].next(4).is_none());
        assert!(gens[0].next(5).is_none(), "past the end");
        assert_eq!(gens[0].name(), "matrix-trace");
        assert_eq!(gens[0].num_queues(), 2);
    }

    #[test]
    fn matrix_trace_record_captures_open_loop_generators() {
        use crate::arrivals::UniformArrivals;
        let mk = || {
            (0..3)
                .map(|p| UniformArrivals::new(3, 0.6, crate::stream_seed(9, p)))
                .collect::<Vec<_>>()
        };
        let trace = MatrixTrace::record(&mut mk(), 500);
        assert_eq!(trace.len(), 500);
        // The replay stream matches a fresh run of the same generators.
        let mut fresh = mk();
        let mut replay = trace.replay();
        for slot in 0..500u64 {
            for p in 0..3 {
                let want = fresh[p].next(slot).map(|c| (c.queue().index(), c.seq()));
                let got = replay[p].next(slot).map(|c| (c.queue().index(), c.seq()));
                assert_eq!(got, want, "port {p} slot {slot}");
            }
        }
    }
}
