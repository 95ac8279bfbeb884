//! The four benchmark workloads, each driven through its layer's public API.
//!
//! Every workload starts from a spec JSON (the lab's own scenario types), so
//! set-up time covers parsing, validation and building buffers, fabric and
//! generators. The run then goes through the same public entry points the
//! lab path uses — `SimulationEngine::run_chunked`, `VoqSwitch::run`,
//! `ClosFabric::run` / `run_transport` — with each buffer and generator
//! passed through a [`Tap`], which is the identity for timed runs and the
//! forwarding wrappers of [`crate::trace`] for the traced run. The lab path
//! (`Scenario::run`, `FabricScenario::run`, `ClosScenario::run`) is the
//! reference every report is compared against byte for byte.

use crate::trace::{Stage, TracedArrivals, TracedBuffer};
use fabric::{
    ClosFabric, ClosRunReport, FabricRunReport, FaultEvent, FaultKind, FaultPlan, LinkBoundary,
    RecoveryReport, VoqSwitch,
};
use pktbuf::{BufferStats, PacketBuffer, RadsBuffer};
use pktbuf_model::{ConfigOverrides, LineRate, RadsConfig};
use sim::clos::DispatchChoice;
use sim::fabric::{ArbiterChoice, FabricDesign, FabricWorkload};
use sim::scenario::{DesignKind, Workload as BufferWorkload};
use sim::{ClosScenario, FabricScenario, ObsScenario, SimulationEngine, SimulationReport};
use std::time::Instant;
use traffic::{
    plane_seed, stream_seed, AdversarialRoundRobin, ArrivalGenerator, MatrixTrace, UniformArrivals,
};

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One CFDS buffer at the paper's OC-3072 design point under its own
    /// worst case, through the chunked engine.
    BufferOc3072,
    /// A 32×32 `VoqSwitch` of RADS ports under uniform 95% load.
    Switch32Uniform,
    /// An 8×8×8 Clos (64 external ports) of RADS switches, uniform 85%.
    Clos64Uniform,
    /// The same Clos, cut-through, under the closed-loop transport with a
    /// middle-switch death and a link flap armed.
    Clos64Transport,
}

/// Arrival load of the buffer workload's live generator: the lab's
/// adversarial-round-robin scenario feeds its queues at 90% (the constant
/// is private to `sim`; the byte-identity gate against `Scenario::run`
/// pins this copy to it).
const BUFFER_ARRIVAL_LOAD: f64 = 0.9;

impl Workload {
    /// Every workload, in the order of `BENCHMARK.json`.
    pub const ALL: [Workload; 4] = [
        Workload::BufferOc3072,
        Workload::Switch32Uniform,
        Workload::Clos64Uniform,
        Workload::Clos64Transport,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::BufferOc3072 => "buffer-oc3072",
            Workload::Switch32Uniform => "switch32-uniform",
            Workload::Clos64Uniform => "clos64-uniform",
            Workload::Clos64Transport => "clos64-transport",
        }
    }

    /// Parses a command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Live-arrival slots of one run at full length. Sized so one timed run
    /// call takes a few hundred milliseconds on a 2-core x86-64 host and
    /// the simulated means settle to well under 1% across seeds.
    pub fn default_slots(self) -> u64 {
        match self {
            Workload::BufferOc3072 => 100_000,
            Workload::Switch32Uniform => 3_000,
            Workload::Clos64Uniform => 1_200,
            Workload::Clos64Transport => 4_000,
        }
    }

    /// External (line-side) ports: 1 for the lone buffer.
    pub fn external_ports(self) -> u64 {
        match self {
            Workload::BufferOc3072 => 1,
            Workload::Switch32Uniform => 32,
            Workload::Clos64Uniform | Workload::Clos64Transport => 64,
        }
    }

    /// Whether the workload's inputs depend on the seed (the closed-loop
    /// transport's demand is deterministic, so its runs repeat for every
    /// seed).
    pub fn is_random(self) -> bool {
        self != Workload::Clos64Transport
    }

    /// The spec JSON of one run: the lab scenario this workload runs, with
    /// `slots` live-arrival slots and the given seed.
    pub fn spec_json(self, seed: u64, slots: u64) -> String {
        let json = match self {
            Workload::BufferOc3072 => serde_json::to_string(buffer_scenario(seed, slots)),
            Workload::Switch32Uniform => serde_json::to_string(switch_scenario(seed, slots)),
            Workload::Clos64Uniform => serde_json::to_string(clos_scenario(seed, slots)),
            Workload::Clos64Transport => serde_json::to_string(transport_scenario(seed, slots)),
        };
        json.expect("scenario specs always serialize")
    }
}

/// The paper's OC-3072 design point (Q = 512, b = 4, B = 32, M = 256), live
/// uniform arrivals and adversarial round-robin requests.
fn buffer_scenario(seed: u64, slots: u64) -> sim::scenario::Scenario {
    sim::scenario::Scenario {
        design: DesignKind::Cfds,
        workload: BufferWorkload::AdversarialRoundRobin,
        line_rate: LineRate::Oc3072,
        num_queues: 512,
        granularity: 4,
        rads_granularity: 32,
        num_banks: 256,
        preload_cells_per_queue: 0,
        arrival_slots: slots,
        seed,
        overrides: ConfigOverrides::none(),
    }
}

fn switch_scenario(seed: u64, slots: u64) -> FabricScenario {
    FabricScenario {
        ports: 32,
        design: FabricDesign::Fixed(DesignKind::Rads),
        workload: FabricWorkload::Uniform,
        arbiter: ArbiterChoice::Islip,
        islip_iterations: 0,
        load_percent: 95,
        arrival_slots: slots,
        seed,
        ..FabricScenario::small()
    }
}

fn clos_scenario(seed: u64, slots: u64) -> ClosScenario {
    ClosScenario {
        radix: 8,
        ingress_switches: 8,
        middle_switches: 8,
        design: FabricDesign::Fixed(DesignKind::Rads),
        workload: FabricWorkload::Uniform,
        dispatch: DispatchChoice::Spray,
        arbiter: ArbiterChoice::Islip,
        load_percent: 85,
        arrival_slots: slots,
        seed,
        workers: 1,
        ..ClosScenario::small()
    }
}

/// The recovery-leg fault plan of the CI smoke suite: middle switch 1 dead
/// for slots 1000..2500, ingress→middle link 2→1 flapping for 2800..3100.
pub fn recovery_plan() -> FaultPlan {
    FaultPlan::new([
        FaultEvent::windowed(FaultKind::MiddleDeath { switch: 1 }, 1_000, 1_500),
        FaultEvent::windowed(
            FaultKind::LinkFlap {
                boundary: LinkBoundary::IngressMiddle,
                switch: 2,
                output: 1,
            },
            2_800,
            300,
        ),
    ])
}

fn transport_scenario(seed: u64, slots: u64) -> ClosScenario {
    ClosScenario {
        rads_granularity: 1,
        transport: Some(sim::TransportScenario::default()),
        faults: recovery_plan(),
        ..clos_scenario(seed, slots)
    }
}

/// How a run's buffers and generators are passed in: as they are, or
/// behind the tracing wrappers.
pub trait Tap {
    /// The buffer type handed to the layer above.
    type Buf<B: PacketBuffer + Send>: PacketBuffer + Send;
    /// The arrival generator type handed to the layer above.
    type Arr<A: ArrivalGenerator + Send>: ArrivalGenerator + Send;
    /// Wraps one buffer serving `stage`.
    fn buffer<B: PacketBuffer + Send>(buffer: B, stage: Stage) -> Self::Buf<B>;
    /// Wraps one arrival generator.
    fn arrivals<A: ArrivalGenerator + Send>(arrivals: A) -> Self::Arr<A>;
}

/// Buffers and generators passed as they are (the timed runs).
#[derive(Debug)]
pub struct Plain;

impl Tap for Plain {
    type Buf<B: PacketBuffer + Send> = B;
    type Arr<A: ArrivalGenerator + Send> = A;
    fn buffer<B: PacketBuffer + Send>(buffer: B, _stage: Stage) -> B {
        buffer
    }
    fn arrivals<A: ArrivalGenerator + Send>(arrivals: A) -> A {
        arrivals
    }
}

/// Buffers and generators behind the forwarding wrappers (the traced run).
#[derive(Debug)]
pub struct Traced;

impl Tap for Traced {
    type Buf<B: PacketBuffer + Send> = TracedBuffer<B>;
    type Arr<A: ArrivalGenerator + Send> = TracedArrivals<A>;
    fn buffer<B: PacketBuffer + Send>(buffer: B, stage: Stage) -> TracedBuffer<B> {
        TracedBuffer::new(buffer, stage)
    }
    fn arrivals<A: ArrivalGenerator + Send>(arrivals: A) -> TracedArrivals<A> {
        TracedArrivals::new(arrivals)
    }
}

/// What one run should do beyond the plain timed run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOpts {
    /// Stop after set-up (a set-up time sample, no run).
    pub setup_only: bool,
    /// Arm the standard `obs` probe set (where the layer has probes).
    pub obs: bool,
    /// Clos execution schedule (1 = serial).
    pub workers: usize,
}

impl Default for RunOpts {
    fn default() -> Self {
        RunOpts {
            setup_only: false,
            obs: false,
            workers: 1,
        }
    }
}

/// The report a run produced, kept whole for cross-run comparisons.
#[derive(Debug, Clone, PartialEq)]
pub enum Report {
    /// The lone buffer's engine report.
    Buffer(SimulationReport),
    /// The standalone switch's report.
    Switch(FabricRunReport),
    /// A Clos report (open- or closed-loop).
    Clos(Box<ClosRunReport>),
}

impl Report {
    /// The report as the lab path serializes it.
    pub fn to_json(&self) -> String {
        match self {
            Report::Buffer(r) => serde_json::to_string(r),
            Report::Switch(r) => serde_json::to_string(r),
            Report::Clos(r) => serde_json::to_string(&**r),
        }
        .expect("reports always serialize")
    }

    /// The Clos report, when this is one.
    pub fn clos(&self) -> Option<&ClosRunReport> {
        match self {
            Report::Clos(r) => Some(r),
            _ => None,
        }
    }
}

/// One run: host timings plus the simulated outcome.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Host seconds to parse the spec JSON.
    pub parse_s: f64,
    /// Host seconds from spec JSON to the first simulated slot (parse
    /// included).
    pub setup_s: f64,
    /// Host seconds of the run call (0 for a set-up-only sample).
    pub run_s: f64,
    /// The run's outcome (`None` for a set-up-only sample).
    pub outcome: Option<Outcome>,
}

/// Buffer-level figures of a run: counters summed and margins minimized
/// over every buffer, taken from the report and the spec (the fabrics own
/// their buffers).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreFigures {
    /// Misses over every buffer.
    pub misses: u64,
    /// Smallest head-SRAM margin over every buffer: analytical bound minus
    /// peak occupancy, cells.
    pub head_sram_margin_cells: i64,
    /// CFDS only: latency register minus the largest DSS delay, slots
    /// (`None` for RADS buffers, which have no DSS).
    pub dss_margin_slots: Option<i64>,
    /// DRAM bank conflicts over every buffer.
    pub bank_conflicts: u64,
    /// DRAM reads plus writes over every buffer.
    pub dram_accesses: u64,
}

/// The transport's own accounting on `clos64-transport`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransportFigures {
    /// Fresh cells injected.
    pub injected: u64,
    /// Retransmitted copies.
    pub retransmitted: u64,
    /// Retransmission timers that fired.
    pub timeouts: u64,
    /// Unique deliveries.
    pub delivered_unique: u64,
    /// Cells abandoned after the retry budget.
    pub gave_up: u64,
    /// Duplicates that got past the sink's dedup.
    pub duplicate_deliveries: u64,
}

/// The simulated outcome of one run: deterministic per spec.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// The run's report.
    pub report: Report,
    /// Simulated slots, drain included.
    pub slots: u64,
    /// Operations attempted (cells offered or injected; arrivals plus
    /// requests for the lone buffer).
    pub attempted: u64,
    /// Operations failed (lost cells; misses plus drops; abandoned plus
    /// duplicated cells under transport).
    pub failed: u64,
    /// Delivered cells per port-slot (grants per slot for the lone buffer,
    /// unique deliveries per port-slot under transport).
    pub throughput_per_port: f64,
    /// Mean latency, slots: arrival to departure on the fabrics; the fixed
    /// request-to-grant delay of the head path for the lone buffer.
    pub latency_mean_slots: f64,
    /// Largest latency, slots (the same fixed delay for the lone buffer).
    pub latency_max_slots: f64,
    /// Buffer-level figures.
    pub core: CoreFigures,
    /// Crossbar utilisation (standalone switch only, else 0).
    pub crossbar_utilization: f64,
    /// Slots some Clos link had a cell held for want of credit.
    pub credit_stall_slots: u64,
    /// Slots of the drain phase (after the live-arrival phase).
    pub drain_slots: u64,
    /// Transport accounting (`clos64-transport` only).
    pub transport: Option<TransportFigures>,
    /// Cells the fault plan cost: refused, dropped and stranded.
    pub faults_lost_cells: u64,
    /// Latency histogram from the armed probes: (p50, p99, samples).
    pub obs_latency: Option<(u64, u64, u64)>,
    /// Correctness gates that failed, one line each.
    pub gate_failures: Vec<String>,
}

fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Runs `workload` from `json` once, with buffers and generators passed
/// through `T`.
///
/// # Errors
///
/// Returns a message when the spec does not parse or validate.
pub fn run<T: Tap>(workload: Workload, json: &str, opts: RunOpts) -> Result<Sample, String> {
    match workload {
        Workload::BufferOc3072 => run_buffer::<T>(json, opts),
        Workload::Switch32Uniform => run_switch::<T>(json, opts),
        Workload::Clos64Uniform | Workload::Clos64Transport => run_clos::<T>(json, opts, None),
    }
}

/// The lab path's report for the same spec, serialized: the reference
/// every benchmark report must equal byte for byte.
///
/// # Errors
///
/// Returns a message when the spec does not parse.
pub fn lab_report_json(workload: Workload, json: &str) -> Result<String, String> {
    let report = match workload {
        Workload::BufferOc3072 => Report::Buffer(parse::<sim::scenario::Scenario>(json)?.run()),
        Workload::Switch32Uniform => Report::Switch(parse::<FabricScenario>(json)?.run()),
        Workload::Clos64Uniform | Workload::Clos64Transport => {
            Report::Clos(Box::new(parse::<ClosScenario>(json)?.run()))
        }
    };
    Ok(report.to_json())
}

fn parse<S: for<'de> serde::Deserialize<'de>>(json: &str) -> Result<S, String> {
    serde_json::from_str(json).map_err(|e| format!("spec does not parse: {e}"))
}

fn run_buffer<T: Tap>(json: &str, opts: RunOpts) -> Result<Sample, String> {
    let start = Instant::now();
    let scn: sim::scenario::Scenario = parse(json)?;
    let parse_s = secs(start);
    scn.validate()
        .map_err(|e| format!("invalid buffer spec: {e}"))?;
    if scn.design != DesignKind::Cfds
        || scn.workload != BufferWorkload::AdversarialRoundRobin
        || scn.arrival_slots == 0
        || scn.preload_cells_per_queue != 0
    {
        return Err(
            "the buffer workload runs a CFDS buffer under live arrivals and \
             adversarial round-robin requests"
                .to_owned(),
        );
    }
    let cfg = scn.cfds_config();
    let q = scn.num_queues;
    let mut buffer = T::buffer(scn.build_cfds(), Stage::Lone);
    let mut arrivals = T::arrivals(UniformArrivals::new(
        q,
        BUFFER_ARRIVAL_LOAD,
        stream_seed(scn.seed, 0),
    ));
    let mut requests = AdversarialRoundRobin::new(q);
    let setup_s = secs(start);
    if opts.setup_only {
        return Ok(setup_sample(parse_s, setup_s));
    }
    let started = Instant::now();
    let report = SimulationEngine::new_mono(&mut buffer)
        .with_workload_label(scn.workload.engine_label(true))
        .run_chunked(&mut arrivals, &mut requests, scn.arrival_slots);
    let run_s = secs(started);

    let stats = report.stats;
    let delay = buffer.pipeline_delay_slots() as f64;
    let mut gate_failures = Vec::new();
    if !stats.is_loss_free() || stats.bank_conflicts > 0 {
        gate_failures.push(format!(
            "buffer lost cells: {} misses, {} drops, {} order violations, {} bank conflicts",
            stats.misses, stats.drops, stats.order_violations, stats.bank_conflicts
        ));
    }
    let core = CoreFigures {
        head_sram_margin_cells: cfds::sizing::sram_cells(&cfg, cfg.effective_lookahead()) as i64
            - stats.peak_head_sram_cells as i64,
        dss_margin_slots: Some(
            cfds::sizing::latency_slots(&cfg) as i64 - stats.max_dss_delay_slots as i64,
        ),
        ..core_figures([&stats])
    };
    Ok(Sample {
        parse_s,
        setup_s,
        run_s,
        outcome: Some(Outcome {
            slots: report.slots,
            attempted: stats.arrivals + stats.requests,
            failed: stats.misses + stats.drops,
            throughput_per_port: report.grants_per_slot(),
            latency_mean_slots: delay,
            latency_max_slots: delay,
            core,
            crossbar_utilization: 0.0,
            credit_stall_slots: 0,
            drain_slots: report.slots - scn.arrival_slots,
            transport: None,
            faults_lost_cells: 0,
            obs_latency: None,
            gate_failures,
            report: Report::Buffer(report),
        }),
    })
}

fn setup_sample(parse_s: f64, setup_s: f64) -> Sample {
    Sample {
        parse_s,
        setup_s,
        run_s: 0.0,
        outcome: None,
    }
}

/// Sums the counters of `stats`; margins are left for the caller.
fn core_figures<'a>(stats: impl IntoIterator<Item = &'a BufferStats>) -> CoreFigures {
    let mut figures = CoreFigures {
        misses: 0,
        head_sram_margin_cells: 0,
        dss_margin_slots: None,
        bank_conflicts: 0,
        dram_accesses: 0,
    };
    for s in stats {
        figures.misses += s.misses;
        figures.bank_conflicts += s.bank_conflicts;
        figures.dram_accesses += s.dram_reads + s.dram_writes;
    }
    figures
}

/// Analytical head-SRAM bound of a RADS buffer (`mma::sizing`).
fn rads_sram_bound(cfg: &RadsConfig) -> i64 {
    mma::sizing::rads_sram_size_cells(cfg.effective_lookahead(), cfg.num_queues, cfg.granularity)
        as i64
}

fn run_switch<T: Tap>(json: &str, opts: RunOpts) -> Result<Sample, String> {
    let start = Instant::now();
    let scn: FabricScenario = parse(json)?;
    let parse_s = secs(start);
    scn.validate()
        .map_err(|e| format!("invalid switch spec: {e}"))?;
    if scn.design != FabricDesign::Fixed(DesignKind::Rads)
        || scn.workload != FabricWorkload::Uniform
    {
        return Err("the switch workload runs uniform traffic over RADS ports".to_owned());
    }
    let ports = scn.ports;
    let buffers = (0..ports)
        .map(|_| T::buffer(RadsBuffer::new(scn.rads_config()), Stage::Lone))
        .collect();
    let mut switch = VoqSwitch::new(scn.fabric_config(), buffers);
    let mut arrivals: Vec<_> = (0..ports)
        .map(|p| {
            T::arrivals(UniformArrivals::new(
                ports,
                scn.load(),
                stream_seed(scn.seed, p as u64),
            ))
        })
        .collect();
    if opts.obs {
        switch.arm_latency_obs();
    }
    let setup_s = secs(start);
    if opts.setup_only {
        return Ok(setup_sample(parse_s, setup_s));
    }
    let started = Instant::now();
    let report = switch.run(&mut arrivals, scn.arrival_slots);
    let run_s = secs(started);

    let mut gate_failures = Vec::new();
    if report.lost_cells > 0 || !report.zero_loss || !report.conservation_holds() {
        gate_failures.push(format!(
            "switch lost {} cells (zero_loss {}, conservation {})",
            report.lost_cells,
            report.zero_loss,
            report.conservation_holds()
        ));
    }
    let bound = rads_sram_bound(&scn.rads_config());
    let core = CoreFigures {
        head_sram_margin_cells: report
            .per_port
            .iter()
            .map(|p| bound - p.stats.peak_head_sram_cells as i64)
            .min()
            .unwrap_or(bound),
        ..core_figures(report.per_port.iter().map(|p| &p.stats))
    };
    let port_slots = (report.slots * ports as u64) as f64;
    Ok(Sample {
        parse_s,
        setup_s,
        run_s,
        outcome: Some(Outcome {
            slots: report.slots,
            attempted: report.arrivals,
            failed: report.lost_cells,
            throughput_per_port: report.transmitted as f64 / port_slots,
            latency_mean_slots: report.mean_latency_slots,
            latency_max_slots: report.max_latency_slots as f64,
            core,
            crossbar_utilization: report.crossbar_utilization,
            credit_stall_slots: 0,
            drain_slots: report.slots - report.active_slots,
            transport: None,
            faults_lost_cells: 0,
            obs_latency: switch
                .merged_latency_hist()
                .map(|h| (h.p50(), h.p99(), h.count())),
            gate_failures,
            report: Report::Switch(report),
        }),
    })
}

/// Builds the Clos of `scn` with every buffer passed through `T`, faults
/// and transport armed as the spec asks.
fn build_clos<T: Tap>(scn: &ClosScenario) -> ClosFabric<T::Buf<RadsBuffer>> {
    let mut fabric = ClosFabric::new(scn.clos_config(), |stage| {
        T::buffer(
            RadsBuffer::new(scn.rads_config(scn.stage_queue_count(stage))),
            Stage::of_clos(stage),
        )
    });
    if !scn.faults.is_empty() {
        fabric.arm_faults(&scn.faults);
    }
    if let Some(t) = &scn.transport {
        fabric.enable_transport(t.to_config());
    }
    fabric
}

fn parse_clos(json: &str) -> Result<ClosScenario, String> {
    let scn: ClosScenario = parse(json)?;
    scn.validate()
        .map_err(|e| format!("invalid Clos spec: {e}"))?;
    if scn.design != FabricDesign::Fixed(DesignKind::Rads)
        || scn.workload != FabricWorkload::Uniform
        || scn.obs.is_some()
    {
        return Err("the Clos workloads run uniform traffic over unarmed RADS switches".to_owned());
    }
    Ok(scn)
}

/// Runs a Clos workload; with `record`, the closed-loop run also records
/// its injected traffic matrix (serial schedule).
fn run_clos<T: Tap>(
    json: &str,
    opts: RunOpts,
    record: Option<&mut MatrixTrace>,
) -> Result<Sample, String> {
    let start = Instant::now();
    let scn = parse_clos(json)?;
    let parse_s = secs(start);
    let ext = scn.external_ports();
    let mut fabric = build_clos::<T>(&scn);
    if opts.obs {
        fabric.arm_obs(&ObsScenario::standard().to_config());
    }
    let (report, run_s, setup_s) = if let Some(t) = &scn.transport {
        let mut sources = t.sources(ext);
        let setup_s = secs(start);
        if opts.setup_only {
            return Ok(setup_sample(parse_s, setup_s));
        }
        let started = Instant::now();
        let report = match record {
            Some(trace) => fabric.run_transport_recorded(&mut sources, scn.arrival_slots, trace),
            None => fabric.run_transport(&mut sources, scn.arrival_slots, opts.workers),
        };
        (report, secs(started), setup_s)
    } else {
        let n = scn.radix as u64;
        let mut arrivals: Vec<_> = (0..ext as u64)
            .map(|g| {
                T::arrivals(UniformArrivals::new(
                    ext,
                    scn.load(),
                    plane_seed(scn.seed, g / n, g % n),
                ))
            })
            .collect();
        let setup_s = secs(start);
        if opts.setup_only {
            return Ok(setup_sample(parse_s, setup_s));
        }
        let started = Instant::now();
        let report = fabric.run(&mut arrivals, scn.arrival_slots, opts.workers);
        (report, secs(started), setup_s)
    };
    Ok(Sample {
        parse_s,
        setup_s,
        run_s,
        outcome: Some(clos_outcome(&scn, report)),
    })
}

fn clos_outcome(scn: &ClosScenario, report: ClosRunReport) -> Outcome {
    let ext = scn.external_ports() as u64;
    let port_slots = (report.slots * ext) as f64;
    let mut gate_failures = Vec::new();
    if !report.conservation_holds() {
        gate_failures.push("Clos conservation (with the fault ledger) does not close".to_owned());
    }
    let transport = report.transport.as_ref().map(|t| TransportFigures {
        injected: t.injected_cells,
        retransmitted: t.retransmitted_cells,
        timeouts: t.timeouts_fired,
        delivered_unique: t.delivered_unique,
        gave_up: t.gave_up_cells,
        duplicate_deliveries: t.duplicate_deliveries,
    });
    let (attempted, failed, delivered) = match &transport {
        Some(t) => {
            if t.duplicate_deliveries > 0 {
                gate_failures.push(format!(
                    "{} duplicate deliveries got past the sink",
                    t.duplicate_deliveries
                ));
            }
            if !report.transport_conservation_holds() {
                gate_failures.push("the transport ledger does not close".to_owned());
            }
            (
                t.injected,
                t.gave_up + t.duplicate_deliveries,
                t.delivered_unique,
            )
        }
        None => {
            if report.lost_cells > 0 || !report.zero_loss {
                gate_failures.push(format!("Clos lost {} cells", report.lost_cells));
            }
            (report.arrivals, report.lost_cells, report.delivered)
        }
    };
    let stage_queues = [scn.radix, scn.ingress_switches, scn.radix];
    let mut margin = i64::MAX;
    for (stage, queues) in report.stages.iter().zip(stage_queues) {
        let bound = rads_sram_bound(&scn.rads_config(queues));
        for port in stage.switches.iter().flat_map(|s| s.per_port.iter()) {
            margin = margin.min(bound - port.stats.peak_head_sram_cells as i64);
        }
    }
    let core = CoreFigures {
        head_sram_margin_cells: margin,
        ..core_figures(
            report
                .stages
                .iter()
                .flat_map(|s| s.switches.iter().flat_map(|w| w.per_port.iter()))
                .map(|p| &p.stats),
        )
    };
    let faults_lost_cells = report
        .faults
        .as_ref()
        .map_or(0, |l| l.refused_cells + l.dropped_cells + l.stranded_cells);
    let obs_latency = report
        .obs
        .as_ref()
        .and_then(|o| o.latency.as_ref())
        .map(|h| (h.p50, h.p99, h.count));
    Outcome {
        slots: report.slots,
        attempted,
        failed,
        throughput_per_port: delivered as f64 / port_slots,
        latency_mean_slots: report.mean_latency_slots,
        latency_max_slots: report.max_latency_slots as f64,
        core,
        crossbar_utilization: 0.0,
        credit_stall_slots: report.credit_stall_slots,
        drain_slots: report.slots - report.active_slots,
        transport,
        faults_lost_cells,
        obs_latency,
        gate_failures,
        report: Report::Clos(Box::new(report)),
    }
}

/// Runs the closed-loop workload once while recording its injected traffic
/// matrix (untimed; the input of [`replay_open_loop`]).
///
/// # Errors
///
/// Returns a message when the spec does not parse or validate.
pub fn record_transport(json: &str) -> Result<(MatrixTrace, Outcome), String> {
    let mut trace = MatrixTrace::new(0);
    let sample = run_clos::<Plain>(json, RunOpts::default(), Some(&mut trace))?;
    let outcome = sample.outcome.expect("a full run has an outcome");
    Ok((trace, outcome))
}

/// Replays a recorded closed-loop traffic matrix open-loop through an
/// identically built fabric with the same fault plan and returns the host
/// seconds of the run call: the closed-loop run minus this is the
/// transport layer's own time.
///
/// # Errors
///
/// Returns a message when the spec does not parse or validate.
pub fn replay_open_loop(json: &str, trace: &MatrixTrace) -> Result<(f64, ClosRunReport), String> {
    let scn = ClosScenario {
        transport: None,
        ..parse_clos(json)?
    };
    let mut fabric = build_clos::<Plain>(&scn);
    let mut arrivals = trace.replay();
    let started = Instant::now();
    let report = fabric.run(&mut arrivals, trace.len() as u64, 1);
    Ok((secs(started), report))
}

/// Slots the faulted closed-loop run takes to regain 95% of its fault-free
/// twin's goodput after the last fault window closes. The twin (same spec,
/// no faults) runs once, untimed.
///
/// # Errors
///
/// Returns a message when the spec does not parse or validate, or when
/// goodput never recovers within the run.
pub fn recover_slots(json: &str, faulted: &ClosRunReport) -> Result<u64, String> {
    let healthy = ClosScenario {
        faults: FaultPlan::none(),
        ..parse_clos(json)?
    }
    .run();
    RecoveryReport::measure(&healthy, faulted)
        .and_then(|r| r.slots_to_recover)
        .ok_or_else(|| "goodput never recovered to 95% of the fault-free twin".to_owned())
}
