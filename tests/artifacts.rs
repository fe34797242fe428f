//! Oracle for the committed slowdown-attribution artifact: the rules
//! `results/attribution.csv` must hold on its own, and its tie to the
//! Table-IV manifest `results/baseline_fast.json`. CI regenerates the CSV
//! and `git diff`s it against the committed file, so these assertions bind
//! what the code computes as well.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Debug;
use std::str::FromStr;

use mirza_bench::attribution::CSV_HEADER;
use mirza_telemetry::{Json, StallBucket};

const ATTRIBUTION: &str = include_str!("../results/attribution.csv");
const BASELINE: &str = include_str!("../results/baseline_fast.json");

/// One CSV row, `column -> field`.
type Row = BTreeMap<&'static str, &'static str>;

/// The CSV rows, after checking the header and every row's arity.
fn rows() -> Vec<Row> {
    let mut lines = ATTRIBUTION.lines();
    assert_eq!(lines.next(), Some(CSV_HEADER), "attribution.csv header");
    let columns: Vec<&str> = CSV_HEADER.split(',').collect();
    lines
        .map(|line| {
            let fields: Vec<&str> = line.split(',').collect();
            assert_eq!(fields.len(), columns.len(), "row arity: {line}");
            columns.iter().copied().zip(fields).collect()
        })
        .collect()
}

fn field<T: FromStr>(row: &Row, column: &str) -> T
where
    T::Err: Debug,
{
    let text = row[column];
    text.parse().unwrap_or_else(|e| {
        panic!(
            "{}/{} {column} = {text:?}: {e:?}",
            row["label"], row["workload"]
        )
    })
}

#[test]
fn attribution_rows_are_well_formed_and_conserved() {
    for row in rows() {
        let id = format!("{}/{}", row["label"], row["workload"]);
        assert!(field::<u64>(&row, "requests") > 0, "{id}: no requests");
        assert!(field::<f64>(&row, "ipc_sum") > 0.0, "{id}: ipc_sum");
        let buckets: u64 = StallBucket::ALL
            .iter()
            .map(|b| field::<u64>(&row, &format!("{}_ps", b.key())))
            .sum();
        assert_eq!(
            buckets,
            field::<u64>(&row, "total_stall_ps"),
            "{id}: buckets do not sum to total_stall_ps"
        );
    }
}

#[test]
fn attribution_covers_the_roster_with_clean_baselines() {
    let mut workloads: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for row in rows() {
        workloads
            .entry(row["label"])
            .or_default()
            .insert(row["workload"]);
        if row["label"] == "baseline" {
            let id = format!("baseline/{}", row["workload"]);
            let slowdown: f64 = field(&row, "slowdown_pct");
            assert!(slowdown.abs() <= 1e-6, "{id}: slowdown {slowdown}");
            for column in ["abo_alert_ps", "rfm_ps"] {
                assert_eq!(field::<u64>(&row, column), 0, "{id}: {column}");
            }
        }
    }
    assert!(workloads.contains_key("baseline"), "no baseline rows");
    let mitigators = workloads.keys().filter(|l| **l != "baseline").count();
    assert!(mitigators >= 4, "only {mitigators} mitigator labels");
    for (label, set) in &workloads {
        assert!(set.len() >= 4, "{label} covers only {set:?}");
    }
}

/// The span layer is pure observability: a baseline run recorded with
/// spans ends on the same simulated picosecond as the spans-free Table-IV
/// run of the same workload.
#[test]
fn attribution_baselines_match_the_table4_manifest() {
    let manifest = Json::parse(BASELINE).expect("baseline_fast.json parses");
    let table4 = manifest
        .get("experiments")
        .and_then(Json::as_arr)
        .and_then(|exps| {
            exps.iter()
                .find(|e| e.get("name").and_then(Json::as_str) == Some("table4"))
        })
        .expect("table4 in baseline_fast.json");
    let elapsed: BTreeMap<&str, u64> = table4
        .get("runs")
        .and_then(Json::as_arr)
        .expect("table4 runs")
        .iter()
        .filter(|run| run.get("label").and_then(Json::as_str) == Some("baseline"))
        .map(|run| {
            (
                run.get("workload").and_then(Json::as_str).unwrap(),
                run.get("report")
                    .and_then(|r| r.get("elapsed_ps"))
                    .and_then(Json::as_u64)
                    .unwrap(),
            )
        })
        .collect();
    let mut checked = 0;
    for row in rows().iter().filter(|row| row["label"] == "baseline") {
        let workload = row["workload"];
        let want = elapsed
            .get(workload)
            .unwrap_or_else(|| panic!("no table4/baseline/{workload} run in the manifest"));
        assert_eq!(
            field::<u64>(row, "elapsed_ps"),
            *want,
            "baseline/{workload}: elapsed_ps differs from table4/baseline/{workload}"
        );
        checked += 1;
    }
    assert!(checked > 0, "no baseline row to check");
}
