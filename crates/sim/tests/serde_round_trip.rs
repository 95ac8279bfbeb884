//! Every spec-side type round-trips through JSON byte-stably, and spec input
//! keeps the hand-checked semantics: required fields, defaults, unknown and
//! duplicate keys rejected with errors that name the field and the type.

use pktbuf_model::{ConfigOverrides, LineRate};
use serde::{Deserialize, Serialize};
use sim::clos::{DispatchChoice, TransportMode};
use sim::fabric::{ArbiterChoice, FabricDesign, FabricWorkload};
use sim::scenario::{DesignKind, Scenario, Workload};
use sim::{
    ClosScenario, ClosSpec, ExperimentSpec, FabricScenario, FabricSpec, FaultEvent, FaultKind,
    FaultPlan, LinkBoundary, ObsScenario, Sweep, TransportScenario,
};

/// Serializes `value`, parses it back, and checks both value equality and
/// that re-serializing the parsed value reproduces the same bytes.
fn assert_round_trips<T>(what: &str, value: &T)
where
    T: Serialize + for<'de> Deserialize<'de> + PartialEq + std::fmt::Debug,
{
    let json = serde_json::to_string_pretty(value).unwrap();
    let back: T = serde_json::from_str(&json).unwrap_or_else(|e| panic!("{what}: {e}\n{json}"));
    assert_eq!(&back, value, "{what}: value changed\n{json}");
    assert_eq!(
        serde_json::to_string_pretty(&back).unwrap(),
        json,
        "{what}: bytes changed"
    );
}

fn overrides() -> ConfigOverrides {
    ConfigOverrides {
        lookahead: Some(96),
        dram_random_access_ns: Some(37.5),
        dram_capacity_cells: Some(1 << 16),
        ..ConfigOverrides::none()
    }
}

fn fault_plan() -> FaultPlan {
    FaultPlan::new([
        FaultEvent::windowed(FaultKind::MiddleDeath { switch: 1 }, 100, 50),
        FaultEvent::windowed(
            FaultKind::LinkFlap {
                boundary: LinkBoundary::MiddleEgress,
                switch: 0,
                output: 2,
            },
            200,
            30,
        ),
        FaultEvent::permanent(FaultKind::EgressSlowdown { port: 3, factor: 2 }, 400),
    ])
}

fn transport() -> TransportScenario {
    TransportScenario {
        mode: TransportMode::Incast,
        incast_target: 5,
        rto_initial: 77,
        ..TransportScenario::default()
    }
}

fn obs() -> ObsScenario {
    ObsScenario {
        trace_capacity: 4096,
        trace_from_slot: 10,
        trace_to_slot: 90,
        ..ObsScenario::standard()
    }
}

#[test]
fn every_spec_type_round_trips_byte_stably() {
    let mut clos_spec = ClosSpec::builder()
        .name("round-trip")
        .designs([FabricDesign::Mixed, FabricDesign::Fixed(DesignKind::Cfds)])
        .dispatches(DispatchChoice::all())
        .radix(Sweep::list([4, 8]))
        .load_percent(Sweep::Linear {
            start: 50,
            end: 90,
            step: 20,
        })
        .overrides(overrides())
        .build()
        .unwrap();
    clos_spec.faults = fault_plan();
    clos_spec.transport = Some(transport());
    clos_spec.obs = Some(obs());
    let clos_scenario = ClosScenario {
        design: FabricDesign::Mixed,
        dispatch: DispatchChoice::OccupancySpray,
        faults: fault_plan(),
        transport: Some(transport()),
        obs: Some(obs()),
        ..ClosScenario::small()
    };
    let experiment = ExperimentSpec::builder()
        .designs(DesignKind::all())
        .workloads(Workload::all())
        .line_rate(LineRate::CustomGbps(12.5))
        .num_queues(Sweep::Geometric {
            start: 8,
            end: 64,
            factor: 2,
        })
        .seeds([3, 5])
        .overrides(overrides())
        .build()
        .unwrap();
    let fabric_spec = FabricSpec::builder()
        .designs(FabricDesign::all())
        .workloads(FabricWorkload::all())
        .arbiters(ArbiterChoice::all())
        .overrides(overrides())
        .build()
        .unwrap();
    let fabric_scenario = FabricScenario {
        workload: FabricWorkload::Bursty,
        arbiter: ArbiterChoice::Maximal,
        overrides: overrides(),
        ..FabricScenario::small()
    };
    let scenario = Scenario {
        overrides: overrides(),
        seed: 42,
        ..Scenario::small_cfds()
    };

    assert_round_trips("ExperimentSpec", &experiment);
    assert_round_trips("FabricSpec", &fabric_spec);
    assert_round_trips("ClosSpec", &clos_spec);
    assert_round_trips("Scenario", &scenario);
    assert_round_trips("FabricScenario", &fabric_scenario);
    assert_round_trips("ClosScenario", &clos_scenario);
    assert_round_trips("TransportScenario", &transport());
    assert_round_trips("ObsScenario", &obs());
    assert_round_trips("ConfigOverrides", &overrides());
    assert_round_trips("ConfigOverrides::none", &ConfigOverrides::none());
    assert_round_trips("FaultPlan", &fault_plan());
}

#[test]
fn minimal_scenarios_take_the_small_defaults() {
    let fabric: FabricScenario = serde_json::from_str("{\"ports\": 4}").unwrap();
    assert_eq!(fabric, FabricScenario::small());
    let clos: ClosScenario = serde_json::from_str("{\"radix\": 4}").unwrap();
    assert_eq!(clos, ClosScenario::small());
    let transport: TransportScenario = serde_json::from_str("{}").unwrap();
    assert_eq!(transport, TransportScenario::default());
    let obs: ObsScenario = serde_json::from_str("{}").unwrap();
    assert_eq!(obs, ObsScenario::default());
    assert!(serde_json::from_str::<FabricScenario>("{}").is_err());
    assert!(serde_json::from_str::<ClosScenario>("{}").is_err());
}

#[test]
fn spec_errors_name_the_field_and_the_type() {
    let unknown = ClosSpec::from_json("{\"radix\": 4, \"mystery\": 1}")
        .unwrap_err()
        .to_string();
    assert!(
        unknown.contains("`mystery`") && unknown.contains("ClosSpec"),
        "{unknown}"
    );
    let nested = serde_json::from_str::<ClosScenario>("{\"radix\": 4, \"obs\": {\"x\": 1}}")
        .unwrap_err()
        .to_string();
    assert!(
        nested.contains("`x`") && nested.contains("ObsScenario"),
        "{nested}"
    );
    let missing = serde_json::from_str::<FabricScenario>("{\"seed\": 2}")
        .unwrap_err()
        .to_string();
    assert!(
        missing.contains("`ports`") && missing.contains("FabricScenario"),
        "{missing}"
    );
}

/// `file` with a second `"name"` key inserted right after the opening brace.
fn with_duplicate_name(file: &str) -> String {
    let duplicated = file.replacen('{', "{\n  \"name\": \"shadowed\",", 1);
    assert_ne!(duplicated, file);
    duplicated
}

#[test]
fn duplicate_keys_in_spec_files_are_rejected() {
    // The spec files `pktbuf-lab spec` / `--print-spec` write, with one key
    // given twice: the last value used to win silently.
    let experiment = ExperimentSpec::builder().build().unwrap().to_json();
    let fabric = FabricSpec::builder().build().unwrap().to_json();
    let clos = ClosSpec::builder().build().unwrap().to_json();
    assert!(ExperimentSpec::from_json(&experiment).is_ok());
    let errors = [
        ExperimentSpec::from_json(&with_duplicate_name(&experiment)).unwrap_err(),
        FabricSpec::from_json(&with_duplicate_name(&fabric)).unwrap_err(),
        ClosSpec::from_json(&with_duplicate_name(&clos)).unwrap_err(),
    ];
    for err in errors {
        assert!(err.to_string().contains("duplicate field `name`"), "{err}");
    }
    // Nested objects reject duplicates too, hand-written ones included.
    let sweep = "{\"num_queues\": {\"start\": 8, \"end\": 64, \"start\": 4, \"factor\": 2}}";
    let err = ExperimentSpec::from_json(sweep).unwrap_err().to_string();
    assert!(err.contains("duplicate field `start` in Sweep"), "{err}");
    let fault = "{\"faults\": [{\"fault\": \"drop-on-full\", \"start\": 1, \"start\": 2}]}";
    let err = ClosSpec::from_json(fault).unwrap_err().to_string();
    assert!(
        err.contains("duplicate field `start` in FaultEvent"),
        "{err}"
    );
    let err = ClosSpec::from_json("{\"transport\": {\"rto_cap\": 1, \"rto_cap\": 2}}")
        .unwrap_err()
        .to_string();
    assert!(err.contains("duplicate field `rto_cap`"), "{err}");
}

#[test]
fn spec_kind_tags_are_written_last_and_checked() {
    let fabric = FabricSpec::builder().build().unwrap().to_json();
    assert!(
        fabric.trim_end().ends_with("\"kind\": \"fabric\"\n}"),
        "{fabric}"
    );
    let clos = ClosSpec::builder().build().unwrap().to_json();
    assert!(clos.trim_end().ends_with("\"kind\": \"clos\"\n}"), "{clos}");
    assert!(FabricSpec::from_json("{\"kind\": \"fabric\"}").is_ok());
    assert!(FabricSpec::from_json("{\"kind\": \"clos\"}").is_err());
    assert!(ClosSpec::from_json("{\"kind\": \"fabric\"}").is_err());
}
