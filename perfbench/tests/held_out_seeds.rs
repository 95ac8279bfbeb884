//! Every workload at reduced length on two seeds: the simulated figures
//! repeat exactly per seed, differ across seeds where the workload is
//! random, match the lab path, and are untouched by the tracing wrappers.
//! A later performance claim can then be re-checked on a seed that was not
//! used while writing it.

use perfbench::workloads::{self, Outcome, Plain, RunOpts, Traced, Workload};

/// Live-arrival slots per workload: long enough to pass the transport's
/// fault windows (the last closes at slot 3100), short enough for a test.
fn reduced_slots(w: Workload) -> u64 {
    match w {
        Workload::BufferOc3072 => 20_000,
        Workload::Switch32Uniform => 600,
        Workload::Clos64Uniform => 400,
        Workload::Clos64Transport => 3_300,
    }
}

fn outcome<T: workloads::Tap>(json: &str, w: Workload) -> Outcome {
    workloads::run::<T>(w, json, RunOpts::default())
        .expect("the benchmark spec runs")
        .outcome
        .expect("a full run has an outcome")
}

/// The simulated figures the end-to-end and per-layer metrics read.
fn figures(o: &Outcome) -> (u64, u64, u64, f64, f64, f64) {
    (
        o.slots,
        o.attempted,
        o.failed,
        o.throughput_per_port,
        o.latency_mean_slots,
        o.latency_max_slots,
    )
}

#[test]
fn simulated_figures_repeat_per_seed_and_differ_across_seeds() {
    for w in Workload::ALL {
        let slots = reduced_slots(w);
        let (a, b) = (w.spec_json(11, slots), w.spec_json(12, slots));
        let first = outcome::<Plain>(&a, w);
        let again = outcome::<Plain>(&a, w);
        let traced = outcome::<Traced>(&a, w);
        let other = outcome::<Plain>(&b, w);
        for o in [&first, &again, &traced, &other] {
            assert!(
                o.gate_failures.is_empty(),
                "{}: {:?}",
                w.name(),
                o.gate_failures
            );
        }
        assert_eq!(first, again, "{}: a seed must repeat exactly", w.name());
        assert_eq!(first, traced, "{}: tracing changed the run", w.name());
        assert_eq!(
            first.report.to_json(),
            workloads::lab_report_json(w, &a).expect("the lab path runs"),
            "{}: differs from the lab path",
            w.name()
        );
        if w.is_random() {
            assert_ne!(
                figures(&first),
                figures(&other),
                "{}: another seed must give other inputs",
                w.name()
            );
        } else {
            assert_eq!(first.report, other.report, "{}: not seed-driven", w.name());
        }
    }
}
