//! Span-layer integration: stall attribution conserves exactly under every
//! mitigator on randomized workloads, attaching the collector never
//! perturbs the simulated outcome, and the emitted Chrome trace is valid
//! trace-event JSON (monotone timestamps, balanced B/E pairs per track).
//! `purity.rs` repeats the purity check with the collector beside every
//! combination of the other instruments.

use proptest::prelude::*;

use mirza_core::config::MirzaConfig;
use mirza_core::rct::ResetPolicy;
use mirza_frontend::trace::{TraceOp, VecStream};
use mirza_sim::config::{MitigationConfig, SimConfig};
use mirza_sim::report::SimReport;
use mirza_sim::system::{CoreSetup, System};
use mirza_telemetry::{ChromeTraceSink, Json, SharedBuf, SpanCollector, StallBucket, Telemetry};

/// The four Table-4 mitigators plus the unprotected baseline, indexable
/// so proptest can draw one.
fn mitigator(index: usize) -> MitigationConfig {
    match index {
        0 => MitigationConfig::Mirza {
            cfg: MirzaConfig::trhd_1000(),
            policy: ResetPolicy::Safe,
        },
        1 => MitigationConfig::PracAbo { trhd: 1000 },
        2 => MitigationConfig::Mithril {
            entries: 64,
            refs_per_mit: 1,
        },
        3 => MitigationConfig::Trr,
        _ => MitigationConfig::None,
    }
}

fn stream(ops: usize, stride: u64, store_mod: usize) -> Box<VecStream> {
    Box::new(VecStream::once(
        (0..ops)
            .map(|i| TraceOp {
                nonmem: 9,
                vaddr: (i as u64) * 64 * stride,
                is_store: store_mod > 0 && i % store_mod == 0,
            })
            .collect(),
    ))
}

fn run_spanned(
    mitigation: MitigationConfig,
    ops: usize,
    stride: u64,
    store_mod: usize,
    instructions: u64,
) -> (SimReport, Telemetry) {
    let cfg = SimConfig::new(mitigation, instructions);
    let telemetry = Telemetry::enabled().with_spans(SpanCollector::new());
    let setups = (0..2)
        .map(|_| CoreSetup::benign(stream(ops, stride, store_mod), instructions))
        .collect();
    let mut sys = System::new(cfg, "attribution-it", setups);
    sys.set_telemetry(telemetry.clone());
    (sys.run(), telemetry)
}

proptest! {
    /// Conservation is exact in integer picoseconds for every mitigator:
    /// the six buckets sum to the total stall, globally and per bank.
    #[test]
    fn buckets_sum_exactly_to_total_stall(
        mit in 0usize..5,
        ops in 64usize..512,
        stride in 1u64..128,
        store_mod in 0usize..7,
        instructions in 2_000u64..20_000,
    ) {
        let (report, telemetry) =
            run_spanned(mitigator(mit), ops, stride, store_mod, instructions);
        let summary = report.attribution.expect("spans were attached");
        prop_assert!(summary.conserved, "collector flagged a leak");
        let global: u64 = summary.buckets_ps.iter().sum();
        prop_assert_eq!(global, summary.total_stall_ps);
        let banks = telemetry.spans_bank_attributions();
        prop_assert!(!banks.is_empty() || summary.requests == 0);
        let mut bank_requests = 0;
        let mut bank_stall = [0u64; StallBucket::ALL.len()];
        for ((_, _), b) in &banks {
            prop_assert!(b.conserved(), "per-bank leak");
            bank_requests += b.requests;
            for (acc, ps) in bank_stall.iter_mut().zip(b.buckets_ps) {
                *acc += ps;
            }
        }
        prop_assert_eq!(bank_requests, summary.requests);
        prop_assert_eq!(bank_stall, summary.buckets_ps);
    }
}

/// Attaching the span collector must not change what the simulation
/// computes: the report minus its attribution section is identical to a
/// plain run's.
#[test]
fn span_collection_is_pure_observability() {
    for mit in 0..5 {
        let (mut spanned, _) = run_spanned(mitigator(mit), 400, 97, 5, 20_000);
        assert!(spanned.attribution.is_some());
        let cfg = SimConfig::new(mitigator(mit), 20_000);
        let setups = (0..2)
            .map(|_| CoreSetup::benign(stream(400, 97, 5), 20_000))
            .collect();
        let mut sys = System::new(cfg, "attribution-it", setups);
        sys.set_telemetry(Telemetry::disabled());
        let plain = sys.run();
        assert!(
            plain.attribution.is_none(),
            "plain run must omit the section"
        );
        spanned.attribution = None;
        assert_eq!(
            spanned.to_json().to_string_pretty(),
            plain.to_json().to_string_pretty(),
            "mitigator {mit}: spans must not perturb the run"
        );
    }
}

/// The Chrome trace written during a real simulated run parses with the
/// in-tree JSON parser and satisfies the trace-event contract: per track
/// (tid), timestamps are monotone non-decreasing and every `B` is closed
/// by a matching `E` with the same name.
#[test]
fn emitted_chrome_trace_is_well_formed() {
    let buf = SharedBuf::new();
    let cfg = SimConfig::new(MitigationConfig::PracAbo { trhd: 1000 }, 20_000);
    let telemetry = Telemetry::enabled()
        .with_spans(SpanCollector::new().with_chrome(ChromeTraceSink::new(buf.writer())));
    let setups = (0..2)
        .map(|_| CoreSetup::benign(stream(400, 97, 5), 20_000))
        .collect();
    let mut sys = System::new(cfg, "attribution-it", setups);
    sys.set_telemetry(telemetry.clone());
    let report = sys.run();
    assert!(report.attribution.is_some());

    let doc = Json::parse(&buf.contents()).expect("trace must be valid JSON");
    let events = doc.as_arr().expect("array format");
    assert!(events.len() > 10, "a real run produces real spans");

    let mut last_ts: std::collections::BTreeMap<u64, f64> = std::collections::BTreeMap::new();
    let mut open: std::collections::BTreeMap<u64, Vec<String>> = std::collections::BTreeMap::new();
    let mut tracks = 0usize;
    for e in events {
        let ph = e
            .get("ph")
            .and_then(Json::as_str)
            .expect("ph on every event");
        if ph == "M" {
            tracks += 1;
            continue;
        }
        let tid = e.get("tid").and_then(Json::as_u64).expect("tid");
        let ts = e.get("ts").and_then(Json::as_f64).expect("ts");
        let name = e
            .get("name")
            .and_then(Json::as_str)
            .expect("name")
            .to_string();
        let prev = last_ts.entry(tid).or_insert(f64::NEG_INFINITY);
        assert!(ts >= *prev, "tid {tid}: ts went backwards ({ts} < {prev})");
        *prev = ts;
        let stack = open.entry(tid).or_default();
        match ph {
            "B" => stack.push(name),
            "E" => {
                let b = stack.pop().expect("E without matching B");
                assert_eq!(b, name, "B/E name mismatch on tid {tid}");
            }
            other => panic!("unexpected phase {other}"),
        }
    }
    assert!(tracks >= 2, "expected bank tracks plus a blocking track");
    for (tid, stack) in open {
        assert!(stack.is_empty(), "tid {tid}: unclosed B events {stack:?}");
    }
}
