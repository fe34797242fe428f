//! End-to-end telemetry integration: a full `System::run` with a recording
//! handle attached must produce metrics consistent with the controller's
//! own counters, and sinks must capture the command stream.

use mirza_frontend::trace::{TraceOp, VecStream};
use mirza_sim::config::{MitigationConfig, SimConfig};
use mirza_sim::system::{CoreSetup, System};
use mirza_telemetry::{EventSink, Json, SharedBuf, Telemetry, TraceSink};

/// Loads-only scattered stream: no stores means no LLC writebacks, so every
/// DRAM access the controllers classify is a read with a recorded latency.
fn loads(n: usize) -> Box<VecStream> {
    Box::new(VecStream::once(
        (0..n)
            .map(|i| TraceOp {
                nonmem: 9,
                vaddr: (i as u64) * 64 * 97,
                is_store: false,
            })
            .collect(),
    ))
}

fn run_with(cfg: SimConfig, telemetry: Telemetry) -> mirza_sim::report::SimReport {
    let instr = cfg.instructions_per_core;
    let setups = (0..2)
        .map(|_| CoreSetup::benign(loads(2_000), instr))
        .collect();
    let mut sys = System::new(cfg, "telemetry-it", setups);
    sys.set_telemetry(telemetry);
    sys.run()
}

#[test]
fn read_latency_histogram_matches_classified_accesses() {
    let cfg = SimConfig::new(MitigationConfig::None, 20_000);
    let telemetry = Telemetry::enabled();
    let r = run_with(cfg, telemetry.clone());
    let classified = r.mc.row_hits + r.mc.row_misses + r.mc.row_conflicts;
    assert!(classified > 0, "workload must reach DRAM");
    assert_eq!(r.mc.writes_done, 0, "loads-only stream saw a write");
    assert_eq!(
        telemetry.histogram_count("mc.read_latency_ns"),
        classified,
        "every classified access is a read with a recorded latency"
    );
    // Queue occupancy is sampled once per enqueued request.
    assert_eq!(
        telemetry.histogram_count("mc.queue_occupancy"),
        r.mc.reads_done + r.mc.writes_done
    );
}

#[test]
fn mirza_run_records_queue_metrics_and_manifest_json() {
    let cfg = SimConfig::new(
        MitigationConfig::Mirza {
            cfg: mirza_core::config::MirzaConfig::trhd_1000(),
            policy: mirza_core::rct::ResetPolicy::Safe,
        },
        20_000,
    );
    let telemetry = Telemetry::enabled();
    let r = run_with(cfg.clone(), telemetry.clone());
    assert!(r.device.acts > 0);
    let doc = telemetry.to_json().expect("enabled handle serializes");
    let hists = doc.get("histograms").expect("histogram section");
    for required in [
        "mc.read_latency_ns",
        "mc.queue_occupancy",
        "dram.acts_per_subarray",
    ] {
        let count = hists
            .get(required)
            .unwrap_or_else(|| panic!("missing histogram {required}"))
            .get("count")
            .unwrap()
            .as_u64()
            .unwrap();
        assert!(count > 0, "{required} must have samples");
    }
    // The manifest text round-trips through the hand-rolled parser.
    let text = doc.to_string_pretty();
    assert_eq!(Json::parse(&text).unwrap(), doc);
    // Config serialization carries the fields a manifest needs.
    let cj = cfg.to_json();
    assert_eq!(cj.get("cores").unwrap().as_u64(), Some(8));
    assert!(cj
        .get("mitigation")
        .unwrap()
        .as_str()
        .unwrap()
        .starts_with("mirza"));
}

#[test]
fn sinks_capture_command_trace_and_events() {
    let trace_buf = SharedBuf::new();
    let event_buf = SharedBuf::new();
    let telemetry = Telemetry::enabled()
        .with_trace(TraceSink::new(trace_buf.writer()))
        .with_events(EventSink::new(event_buf.writer()));
    let cfg = SimConfig::new(MitigationConfig::None, 5_000);
    let r = run_with(cfg, telemetry.clone());
    telemetry.flush().unwrap();
    let trace = trace_buf.contents();
    assert!(trace.lines().count() > 0, "command trace must not be empty");
    assert!(
        trace.lines().any(|l| l.contains(" ACT ")),
        "trace must contain activates"
    );
    assert!(
        trace.lines().any(|l| l.contains(" RD ")),
        "trace must contain reads"
    );
    // Every line parses as `<t_ps> <CMD> sc<n> ...`.
    for line in trace.lines().take(50) {
        let mut parts = line.split_whitespace();
        parts.next().unwrap().parse::<u64>().expect("timestamp");
        assert!(!parts.next().unwrap().is_empty(), "command name");
        assert!(parts.next().unwrap().starts_with("sc"), "sub-channel tag");
    }
    // The trace and the device counters agree on REF count exactly.
    let ref_lines = trace.lines().filter(|l| l.contains(" REF ")).count() as u64;
    assert_eq!(ref_lines, r.device.refs);
    // Events (if any fired) are one JSON object per line.
    for line in event_buf.contents().lines() {
        let parsed = Json::parse(line).expect("JSONL event");
        assert!(parsed.get("t_ps").is_some());
        assert!(parsed.get("event").is_some());
    }
}

#[test]
fn disabled_telemetry_changes_nothing() {
    let cfg = SimConfig::new(MitigationConfig::None, 10_000);
    let enabled = Telemetry::enabled();
    let with = run_with(cfg.clone(), enabled);
    let without = run_with(cfg, Telemetry::disabled());
    assert_eq!(with.device.acts, without.device.acts);
    assert_eq!(with.mc.row_hits, without.mc.row_hits);
    assert_eq!(with.instructions, without.instructions);
    assert_eq!(with.elapsed, without.elapsed);
}
