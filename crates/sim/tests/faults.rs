//! Fault-injection integration: the injector is deterministic (same seed
//! and plan ⇒ bit-identical fault summaries), pure when disabled (a
//! faultless run is bit-identical to one with no injector at all), and
//! the watchdog turns a stalled run into a structured [`SimError`]
//! instead of a hang.

use mirza_core::config::MirzaConfig;
use mirza_core::rct::ResetPolicy;
use mirza_dram::time::Ps;
use mirza_sim::config::{MitigationConfig, SimConfig};
use mirza_sim::faults::{FaultInjector, FaultPlan};
use mirza_sim::runner::try_run_workload_with;
use mirza_sim::SimError;
use mirza_telemetry::{Json, Telemetry};

fn mirza_cfg(instr: u64) -> SimConfig {
    let mut cfg = SimConfig::new(
        MitigationConfig::Mirza {
            cfg: MirzaConfig::trhd_1000(),
            policy: ResetPolicy::Safe,
        },
        instr,
    );
    cfg.cores = 2;
    cfg
}

/// One faulted run: returns (fault summary JSON, report JSON, telemetry).
fn faulted_run(plan: &str, instr: u64) -> (String, String, Telemetry) {
    let cfg = mirza_cfg(instr);
    let telemetry = Telemetry::enabled();
    let plan = FaultPlan::parse(plan).expect("valid plan");
    let inj = FaultInjector::new(plan, telemetry.clone());
    let report = try_run_workload_with(&cfg, "lbm", telemetry.clone(), Some(&inj))
        .expect("faulted run still completes");
    (
        inj.summary_json().to_string_pretty(),
        report.to_json().to_string_pretty(),
        telemetry,
    )
}

#[test]
fn same_seed_and_plan_give_bit_identical_fault_summaries() {
    let plan = "rct-seu:period_us=1,start_us=1";
    let (sa, ra, _) = faulted_run(plan, 20_000);
    let (sb, rb, _) = faulted_run(plan, 20_000);
    assert_eq!(sa, sb, "fault summary must be reproducible byte-for-byte");
    assert_eq!(ra, rb, "faulted report must be reproducible");
}

#[test]
fn rct_seu_plan_applies_faults_and_feeds_the_census() {
    let (summary, _, telemetry) = faulted_run("rct-seu:period_us=1,start_us=1", 20_000);
    let doc = Json::parse(&summary).unwrap();
    assert!(
        doc.get("attempted").unwrap().as_u64().unwrap() >= 1,
        "plan scheduled nothing: {summary}"
    );
    assert!(
        doc.get("injected").unwrap().as_u64().unwrap() >= 1,
        "no fault applied to a MIRZA run: {summary}"
    );
    assert!(
        telemetry.counter("faults.injected") >= 1,
        "telemetry counter must mirror the summary"
    );
    // The injector arms no census by itself; System does when asked.
    let mut cfg = mirza_cfg(20_000);
    cfg.track_row_acts = true;
    cfg.audit = true;
    let tel = Telemetry::enabled();
    let plan = FaultPlan::parse("rct-seu:period_us=1,start_us=1").unwrap();
    let inj = FaultInjector::new(plan, tel.clone());
    try_run_workload_with(&cfg, "lbm", tel.clone(), Some(&inj)).unwrap();
    assert!(
        tel.counter("audit.max_row_acts") > 0,
        "census must observe per-row activity"
    );
}

#[test]
fn disabled_faults_are_bit_identical_to_no_injector_at_all() {
    let cfg = mirza_cfg(20_000);
    let plain = try_run_workload_with(&cfg, "lbm", Telemetry::disabled(), None)
        .unwrap()
        .to_json()
        .to_string_pretty();
    // Auditing + census on, but no injector: still the same report.
    let mut audited = cfg.clone();
    audited.audit = true;
    audited.track_row_acts = true;
    let shadowed = try_run_workload_with(&audited, "lbm", Telemetry::enabled(), None)
        .unwrap()
        .to_json()
        .to_string_pretty();
    assert_eq!(
        plain, shadowed,
        "census and auditor must be pure observability"
    );
}

#[test]
fn watchdog_aborts_a_stalled_run_with_a_structured_error() {
    let mut cfg = SimConfig::new(MitigationConfig::None, 5_000);
    cfg.cores = 1;
    cfg.quantum = Ps::ZERO;
    let err = try_run_workload_with(&cfg, "lbm", Telemetry::disabled(), None)
        .expect_err("a zero-width quantum can never make progress");
    match &err {
        SimError::Watchdog { instructions, .. } => assert_eq!(*instructions, 0),
        other => panic!("expected Watchdog, got {other}"),
    }
    assert_eq!(err.exit_code(), 6);
    assert!(err.to_string().contains("no forward progress"));
}

#[test]
fn unknown_workload_is_an_error_with_exit_code_2() {
    let cfg = SimConfig::new(MitigationConfig::None, 1_000);
    let err = try_run_workload_with(&cfg, "doom", Telemetry::disabled(), None).unwrap_err();
    assert!(matches!(err, SimError::UnknownWorkload { .. }), "{err}");
    assert_eq!(err.exit_code(), 2);
}

#[test]
fn plan_parsing_rejects_unknown_names_keys_and_values() {
    for (input, want) in [
        ("nonsense", "unknown fault plan"),
        ("rct-seu:flux_capacitor=1", "unknown fault-plan key"),
        ("rct-seu:period_us=banana", "expected an unsigned integer"),
        ("abo-drop:seed", "expected key=value"),
    ] {
        let err = FaultPlan::parse(input).expect_err(input);
        assert!(matches!(err, SimError::Config { .. }), "{input}: {err}");
        assert_eq!(err.exit_code(), 4, "{input}");
        assert!(
            err.to_string().contains(want),
            "{input}: message {err} lacks {want:?}"
        );
    }
}
