//! End-to-end and per-layer benchmark of the packet-buffer stack.
//!
//! One invocation runs one workload (see [`workloads::Workload`]) for a
//! given seed and measuring time. With tracing off it reports the
//! end-to-end metrics: host rate, set-up time, memory and the simulated
//! throughput and latency. With tracing on it alternates untraced and
//! traced runs and reports where the time went, layer by layer, plus the
//! differences that price the transport, the `obs` probes and the Clos
//! stage workers. Every run is checked: against the lab path byte for
//! byte, against the other runs of the invocation, and against the
//! workload's own loss, exactly-once and ledger gates.

pub mod probe;
pub mod trace;
pub mod workloads;

use probe::MemoryProbe;
use std::time::Instant;
use trace::{ClockCost, Op, Recorder, Stage};
use workloads::{Outcome, Plain, RunOpts, Sample, Traced, Workload};

/// Set-up-only samples taken before each timed run, so the set-up median
/// rests on more samples than the runs alone give.
const SETUPS_PER_RUN: usize = 4;
/// Fewest timed runs (or traced rounds) per invocation, however short the
/// measuring time.
const MIN_RUNS: usize = 3;
/// Share of the measuring time the traced invocation spends on its rounds
/// (the rest covers the untimed reference runs).
const TRACED_SHARE: f64 = 0.8;

/// The parsed command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Args {
    /// Workload to run.
    pub workload: Workload,
    /// Seed of the workload's inputs.
    pub seed: u64,
    /// Measuring time, seconds.
    pub seconds: u64,
    /// Whether to make the traced run (per-layer metrics).
    pub trace: bool,
}

/// Usage text.
pub const USAGE: &str =
    "usage: perfbench --workload <buffer-oc3072|switch32-uniform|clos64-uniform|clos64-transport> \
--seed <n> --seconds <s> --trace <0|1>";

impl Args {
    /// Parses `--workload`, `--seed`, `--seconds` and `--trace`, each
    /// exactly once.
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing, repeated or malformed flag.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let slot = match flag.as_str() {
                "--workload" => {
                    let w = Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?;
                    workload.replace(w).map(drop)
                }
                "--seed" => seed.replace(parse_u64(&flag, &value)?).map(drop),
                "--seconds" => {
                    let s = parse_u64(&flag, &value)?;
                    if !(1..=3_600).contains(&s) {
                        return Err(format!("--seconds must be 1..=3600, got {s}"));
                    }
                    seconds.replace(s).map(drop)
                }
                "--trace" => {
                    let t = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                    };
                    trace.replace(t).map(drop)
                }
                _ => return Err(format!("unknown flag {flag:?}")),
            };
            if slot.is_some() {
                return Err(format!("{flag} given twice"));
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

fn parse_u64(flag: &str, value: &str) -> Result<u64, String> {
    value
        .parse()
        .map_err(|_| format!("{flag} takes a whole number, got {value:?}"))
}

/// Median of `values` (sorted in place); 0 for an empty slice.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The result of one invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchResult {
    /// Whether every correctness gate held.
    pub correct: bool,
    /// Operations attempted in one run (see [`Outcome::attempted`]).
    pub attempted: u64,
    /// Operations failed in one run.
    pub failed: u64,
    /// The metrics of this mode (end-to-end or per-layer).
    pub metrics: Vec<Metric>,
    /// Human-readable lines: extra figures and every failed gate.
    pub notes: Vec<String>,
}

impl BenchResult {
    /// The one-line JSON result.
    ///
    /// # Panics
    ///
    /// Panics on a non-finite metric value (a bug in a metric formula).
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                assert!(m.value.is_finite(), "metric {} is not finite", m.name);
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Collects failed correctness gates.
#[derive(Debug, Default)]
struct Gates(Vec<String>);

impl Gates {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.0.push(what());
        }
    }

    /// Checks a run's own gates and that its report equals `reference`.
    fn run(&mut self, outcome: &Outcome, reference: &Outcome, what: &str) {
        for failure in &outcome.gate_failures {
            self.0.push(format!("{what}: {failure}"));
        }
        self.check(outcome.report == reference.report, || {
            format!("{what}: report differs from the first run's")
        });
    }
}

/// Runs the workload once and checks it against the lab path: the first
/// run of every invocation (untimed; it also warms caches and the
/// allocator).
fn reference_run(args: &Args, json: &str, gates: &mut Gates) -> Result<(Outcome, f64), String> {
    let lab = workloads::lab_report_json(args.workload, json)?;
    let first = workloads::run::<Plain>(args.workload, json, RunOpts::default())?;
    let outcome = first.outcome.expect("a full run has an outcome");
    gates.check(outcome.report.to_json() == lab, || {
        "report is not byte-identical to the lab path's".to_owned()
    });
    for failure in &outcome.gate_failures {
        gates.0.push(failure.clone());
    }
    Ok((outcome, first.run_s))
}

fn outcome_of(sample: &Sample) -> &Outcome {
    sample.outcome.as_ref().expect("a full run has an outcome")
}

/// Runs one invocation.
///
/// # Errors
///
/// Returns a message when the workload cannot be set up or run (an error
/// in the spec or the host environment, not a failed gate).
pub fn bench(args: &Args) -> Result<BenchResult, String> {
    let json = args
        .workload
        .spec_json(args.seed, args.workload.default_slots());
    if args.trace {
        traced(args, &json)
    } else {
        end_to_end(args, &json)
    }
}

/// The high-water mark of this process's resident set, MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("/proc/self/status has no VmHWM line")?;
    Ok(kb / 1024.0)
}

/// Port-slots per host second of one run.
fn rate(workload: Workload, sample: &Sample) -> f64 {
    let slots = outcome_of(sample).slots;
    (slots * workload.external_ports()) as f64 / sample.run_s
}

/// The fastest of `walls` (0 for none): the traced invocation's estimator
/// for host times, which interference on a shared host only ever inflates.
fn fastest(walls: &[f64]) -> f64 {
    walls.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// Takes `n` set-up-only samples.
fn setup_samples(w: Workload, json: &str, n: usize) -> Result<Vec<f64>, String> {
    let opts = RunOpts {
        setup_only: true,
        ..RunOpts::default()
    };
    (0..n)
        .map(|_| workloads::run::<Plain>(w, json, opts).map(|s| s.setup_s))
        .collect()
}

fn end_to_end(args: &Args, json: &str) -> Result<BenchResult, String> {
    let w = args.workload;
    let mut gates = Gates::default();
    let (reference, reference_s) = reference_run(args, json, &mut gates)?;
    // Read before the probe's buffer exists: the probe is not the system.
    let peak_rss_mb = peak_rss_mb()?;
    let mut probe = MemoryProbe::default();
    let mut last_run_s = reference_s;
    let mut setups = Vec::new();
    let mut rates = Vec::new();
    let mut normalized = Vec::new();
    let started = Instant::now();
    while rates.len() < MIN_RUNS || started.elapsed().as_secs_f64() < args.seconds as f64 {
        // Set-up samples are spread over the whole measuring time, so slow
        // spells on the host weigh on them no more than on the runs.
        setups.extend(setup_samples(w, json, SETUPS_PER_RUN)?);
        let probe_ns = probe.ns_per_access(last_run_s);
        let sample = workloads::run::<Plain>(w, json, RunOpts::default())?;
        gates.run(outcome_of(&sample), &reference, "timed run");
        setups.push(sample.setup_s);
        last_run_s = sample.run_s;
        let raw = rate(w, &sample);
        rates.push(raw);
        normalized.push(raw * probe_ns / probe::REFERENCE_NS_PER_ACCESS);
    }
    let fastest_rate = rates.iter().copied().fold(0.0, f64::max);
    let mut notes = vec![format!(
        "timed runs: {}; raw port_slots_per_s median {:.0}, fastest {fastest_rate:.0}",
        rates.len(),
        median(&mut rates),
    )];
    sim_notes(w, json, &reference, &mut gates, &mut notes);
    let metrics = vec![
        metric("port_slots_per_s", median(&mut normalized), "1/s"),
        metric("setup_s", median(&mut setups), "s"),
        metric("peak_rss_mb", peak_rss_mb, "MB"),
        metric(
            "throughput_per_port",
            reference.throughput_per_port,
            "cells/port-slot",
        ),
        metric("latency_mean_slots", reference.latency_mean_slots, "slots"),
    ];
    Ok(finish(gates, &reference, metrics, notes))
}

/// Notes the simulated end-to-end figures `BENCHMARK.json` cannot gate
/// (0 on a healthy run, or defined on one workload only) by name, and
/// returns `recover_slots` (0 where there is no fault to recover from).
fn sim_notes(
    w: Workload,
    json: &str,
    reference: &Outcome,
    gates: &mut Gates,
    notes: &mut Vec<String>,
) -> f64 {
    notes.push(format!(
        "fail_ratio: {} ({} failed / {} attempted)",
        fail_ratio(reference),
        reference.failed,
        reference.attempted
    ));
    notes.push(format!(
        "latency_max_slots: {} slots",
        reference.latency_max_slots
    ));
    if w != Workload::Clos64Transport {
        return 0.0;
    }
    let report = reference
        .report
        .clos()
        .expect("the transport workload runs a Clos");
    match workloads::recover_slots(json, report) {
        Ok(slots) => {
            notes.push(format!("recover_slots: {slots} slots"));
            slots as f64
        }
        Err(e) => {
            gates.0.push(e);
            0.0
        }
    }
}

fn fail_ratio(outcome: &Outcome) -> f64 {
    outcome.failed as f64 / outcome.attempted.max(1) as f64
}

fn finish(
    gates: Gates,
    reference: &Outcome,
    metrics: Vec<Metric>,
    mut notes: Vec<String>,
) -> BenchResult {
    notes.extend(gates.0.iter().map(|g| format!("GATE FAILED: {g}")));
    BenchResult {
        correct: gates.0.is_empty(),
        attempted: reference.attempted,
        failed: reference.failed,
        metrics,
        notes,
    }
}

/// What the traced invocation's rounds measured beyond the traced runs:
/// host times by kind of run, and the figures of the armed run.
#[derive(Debug, Default)]
struct Rounds {
    untraced: Vec<f64>,
    armed: Vec<f64>,
    two_workers: Vec<f64>,
    replay: Vec<f64>,
    parse: Vec<f64>,
    /// Latency histogram of the armed run: (p50, p99, samples).
    obs_latency: Option<(u64, u64, u64)>,
    /// `recover_slots` of the workload (0 where there is no fault).
    recover_slots: f64,
}

/// The fastest traced run: its wall time and its span aggregates.
#[derive(Debug)]
struct TracedRun {
    wall_s: f64,
    spans: Recorder,
}

fn traced(args: &Args, json: &str) -> Result<BenchResult, String> {
    let w = args.workload;
    let cost = trace::calibrate();
    let mut gates = Gates::default();
    let (reference, _) = reference_run(args, json, &mut gates)?;
    let recorded = if w == Workload::Clos64Transport {
        let (matrix, outcome) = workloads::record_transport(json)?;
        gates.check(outcome.report == reference.report, || {
            "the recorded closed-loop run differs from the unrecorded one".to_owned()
        });
        Some(matrix)
    } else {
        None
    };
    let has_obs = w != Workload::BufferOc3072;
    let mut rounds = Rounds::default();
    let mut best: Option<TracedRun> = None;
    let started = Instant::now();
    let budget = args.seconds as f64 * TRACED_SHARE;
    // Each round runs every kind once, back to back, so slow spells on
    // the host hit every kind alike.
    while rounds.untraced.len() < MIN_RUNS || started.elapsed().as_secs_f64() < budget {
        let plain = workloads::run::<Plain>(w, json, RunOpts::default())?;
        gates.run(outcome_of(&plain), &reference, "untraced run");
        rounds.untraced.push(plain.run_s);
        rounds.parse.push(plain.parse_s);

        trace::reset(cost.inside_ns.round() as u64);
        let traced = workloads::run::<Traced>(w, json, RunOpts::default())?;
        let spans = trace::take();
        gates.run(outcome_of(&traced), &reference, "traced run");
        if best.as_ref().is_none_or(|b| traced.run_s < b.wall_s) {
            best = Some(TracedRun {
                wall_s: traced.run_s,
                spans,
            });
        }

        if has_obs {
            let armed = workloads::run::<Plain>(
                w,
                json,
                RunOpts {
                    obs: true,
                    ..RunOpts::default()
                },
            )?;
            let outcome = outcome_of(&armed);
            gates.check(outcome.gate_failures.is_empty(), || {
                format!("armed run: {:?}", outcome.gate_failures)
            });
            rounds.obs_latency = outcome.obs_latency;
            rounds.armed.push(armed.run_s);
        }
        if w == Workload::Clos64Uniform {
            let two = workloads::run::<Plain>(
                w,
                json,
                RunOpts {
                    workers: 2,
                    ..RunOpts::default()
                },
            )?;
            gates.run(outcome_of(&two), &reference, "2-worker run");
            rounds.two_workers.push(two.run_s);
        }
        if let Some(matrix) = &recorded {
            let (replay_s, replayed) = workloads::replay_open_loop(json, matrix)?;
            let closed = reference.report.clos().ok_or("not a Clos run")?;
            gates.check(
                replayed.delivered_matrix == closed.delivered_matrix
                    && replayed.arrivals_matrix == closed.arrivals_matrix,
                || "the open-loop replay does not reproduce the closed-loop deliveries".to_owned(),
            );
            rounds.replay.push(replay_s);
        }
    }
    let best = best.expect("at least one traced run");
    let mut notes = vec![
        format!("rounds: {}", rounds.untraced.len()),
        format!(
            "clock cost per span: {:.1} ns inside + {:.1} ns outside",
            cost.inside_ns, cost.outside_ns
        ),
        format!(
            "available parallelism: {}",
            std::thread::available_parallelism().map_or(1, usize::from)
        ),
    ];
    rounds.recover_slots = sim_notes(w, json, &reference, &mut gates, &mut notes);
    notes.extend(best.spans.lines(cost.inside_ns));
    let layers = Layers::attribute(&best, cost);
    notes.push(format!(
        "fastest traced run {:.6} s = driving layer {:.6} s + core {:.6} s + traffic {:.6} s \
         + clock {:.6} s",
        best.wall_s,
        layers.top_ns * 1e-9,
        layers.core_ns * 1e-9,
        layers.traffic_ns * 1e-9,
        layers.clock_ns * 1e-9,
    ));
    if layers.top_ns < 0.0 {
        // A measurement caveat, not a failed gate: the clock cost was
        // calibrated in a slower spell than the traced run met.
        notes.push("driving layer self time is negative: clock cost over-calibrated".to_owned());
    }
    let metrics = layer_metrics(w, &reference, &best, &layers, cost, &mut rounds);
    Ok(finish(gates, &reference, metrics, notes))
}

/// Self times of the fastest traced run, ns. They sum to the run's wall
/// time together with the calibrated clock cost.
#[derive(Debug)]
struct Layers {
    /// Calibrated clock cost of every span.
    clock_ns: f64,
    /// Buffer calls, clock cost subtracted.
    core_ns: f64,
    /// Buffer calls per stage (Lone, Ingress, Middle, Egress).
    stage_core_ns: [f64; 4],
    /// Arrival-generator calls, clock cost subtracted.
    traffic_ns: f64,
    /// The driving layer (engine, switch or Clos): the run's wall time
    /// outside every wrapped call.
    top_ns: f64,
    /// Wall time minus clock cost: the time attributed to layers.
    attributed_ns: f64,
}

impl Layers {
    fn attribute(run: &TracedRun, cost: ClockCost) -> Layers {
        let rec = &run.spans;
        let mut stage_core_ns = [0.0; 4];
        let mut traffic_ns = 0.0;
        for op in Op::ALL.into_iter().filter(|&op| op != Op::Calibrate) {
            for stage in Stage::ALL {
                let ns = rec.corrected_ns(op, stage, cost.inside_ns);
                if op.is_core() {
                    stage_core_ns[stage as usize] += ns;
                } else {
                    traffic_ns += ns;
                }
            }
        }
        let core_ns = stage_core_ns.iter().sum::<f64>();
        let clock_ns = rec.span_count() as f64 * cost.per_span_ns();
        let attributed_ns = run.wall_s * 1e9 - clock_ns;
        Layers {
            clock_ns,
            core_ns,
            stage_core_ns,
            traffic_ns,
            top_ns: attributed_ns - core_ns - traffic_ns,
            attributed_ns,
        }
    }

    fn share(&self, ns: f64) -> f64 {
        ns / self.attributed_ns
    }

    fn stage_share(&self, stage: Stage) -> f64 {
        self.share(self.stage_core_ns[stage as usize])
    }
}

/// Per-layer metrics, in `BENCHMARK.json` order. A layer the workload
/// bypasses did no work and reads 0.
fn layer_metrics(
    w: Workload,
    o: &Outcome,
    run: &TracedRun,
    layers: &Layers,
    cost: ClockCost,
    rounds: &mut Rounds,
) -> Vec<Metric> {
    let rec = &run.spans;
    let slots = o.slots as f64;
    let port_slots = slots * w.external_ports() as f64;
    let per = |ns: f64, n: f64| if n > 0.0 { ns / n } else { 0.0 };
    let op_ns = |op: Op| -> f64 {
        Stage::ALL
            .iter()
            .map(|&st| rec.corrected_ns(op, st, cost.inside_ns))
            .sum()
    };
    let step_calls: u64 = Stage::ALL
        .iter()
        .map(|&st| rec.span(Op::Step, st).count)
        .sum();
    let only = |ws: &[Workload], v: f64| if ws.contains(&w) { v } else { 0.0 };
    let untraced = fastest(&rounds.untraced);
    let transport_self_s = if rounds.replay.is_empty() {
        0.0
    } else {
        untraced - fastest(&rounds.replay)
    };
    let clos_self_ns = match w {
        Workload::Clos64Uniform => layers.top_ns,
        Workload::Clos64Transport => layers.top_ns - transport_self_s * 1e9,
        _ => 0.0,
    };
    let faster = |walls: &[f64], than: f64| {
        if walls.is_empty() {
            0.0
        } else {
            fastest(walls) / than
        }
    };
    let t = o.transport.unwrap_or_default();
    let sent = (t.injected + t.retransmitted).max(1) as f64;
    let (p50, p99, samples) = rounds.obs_latency.unwrap_or((0, 0, 0));
    vec![
        metric(
            "traffic.ns_per_port_slot",
            layers.traffic_ns / port_slots,
            "ns",
        ),
        metric(
            "engine.self_ns_per_slot",
            only(&[Workload::BufferOc3072], layers.top_ns / slots),
            "ns",
        ),
        metric(
            "engine.idle_slots",
            only(&[Workload::BufferOc3072], rec.idle_slots as f64),
            "slots",
        ),
        metric(
            "core.ns_per_batch_slot",
            per(op_ns(Op::StepBatch), rec.batch_slots as f64),
            "ns",
        ),
        metric(
            "core.ns_per_step",
            per(op_ns(Op::Step), step_calls as f64),
            "ns",
        ),
        metric("core.share", layers.share(layers.core_ns), "ratio"),
        metric("core.probes_per_slot", rec.probes as f64 / slots, "count"),
        metric("core.misses", o.core.misses as f64, "count"),
        metric(
            "core.head_sram_margin_cells",
            o.core.head_sram_margin_cells as f64,
            "cells",
        ),
        metric(
            "core.dss_margin_slots",
            o.core.dss_margin_slots.unwrap_or(0) as f64,
            "slots",
        ),
        metric("core.bank_conflicts", o.core.bank_conflicts as f64, "count"),
        metric("core.dram_accesses", o.core.dram_accesses as f64, "count"),
        metric(
            "switch.self_ns_per_port_slot",
            only(&[Workload::Switch32Uniform], layers.top_ns / port_slots),
            "ns",
        ),
        metric(
            "switch.crossbar_utilization",
            o.crossbar_utilization,
            "ratio",
        ),
        metric(
            "clos.self_ns_per_port_slot",
            clos_self_ns / port_slots,
            "ns",
        ),
        metric(
            "clos.core_share.ingress",
            layers.stage_share(Stage::Ingress),
            "ratio",
        ),
        metric(
            "clos.core_share.middle",
            layers.stage_share(Stage::Middle),
            "ratio",
        ),
        metric(
            "clos.core_share.egress",
            layers.stage_share(Stage::Egress),
            "ratio",
        ),
        metric(
            "clos.credit_stall_slots",
            o.credit_stall_slots as f64,
            "slots",
        ),
        metric(
            "clos.drain_slots",
            only(
                &[Workload::Clos64Uniform, Workload::Clos64Transport],
                o.drain_slots as f64,
            ),
            "slots",
        ),
        metric(
            "clos.worker_speedup",
            per(untraced, fastest(&rounds.two_workers)),
            "ratio",
        ),
        metric("transport.self_s", transport_self_s, "s"),
        metric("transport.share", per(transport_self_s, untraced), "ratio"),
        metric(
            "transport.retransmit_ratio",
            t.retransmitted as f64 / t.injected.max(1) as f64,
            "ratio",
        ),
        metric(
            "transport.useful_ratio",
            t.delivered_unique as f64 / sent,
            "ratio",
        ),
        metric("transport.timeouts", t.timeouts as f64, "count"),
        metric("faults.lost_cells", o.faults_lost_cells as f64, "cells"),
        metric("obs.armed_ratio", faster(&rounds.armed, untraced), "ratio"),
        metric("obs.latency_p50_slots", p50 as f64, "slots"),
        metric("obs.latency_p99_slots", p99 as f64, "slots"),
        metric("obs.latency_samples", samples as f64, "count"),
        metric("lab.spec_parse_s", median(&mut rounds.parse), "s"),
        metric("trace.overhead_ratio", run.wall_s / untraced, "ratio"),
        metric(
            "trace.clock_share",
            layers.clock_ns / (run.wall_s * 1e9),
            "ratio",
        ),
        metric("e2e.fail_ratio", fail_ratio(o), "ratio"),
        metric("e2e.latency_max_slots", o.latency_max_slots, "slots"),
        metric("e2e.recover_slots", rounds.recover_slots, "slots"),
    ]
}
