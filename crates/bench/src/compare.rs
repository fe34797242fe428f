//! Manifest regression comparison: diff two run manifests produced by
//! `repro --json` and report every divergence in the deterministic
//! sections.
//!
//! Runs are matched by `(experiment, label, workload)`. Within a matched
//! pair the `config` and `report` sections must agree: integers exactly,
//! floats to a relative tolerance that forgives only serialization noise.
//! Every other run section (telemetry, epochs, audit, faults) describes
//! how a run was observed, not what it computed, and is not compared.

use mirza_telemetry::Json;

/// Relative tolerance for float comparisons. The simulator is integer-
/// deterministic; floats in reports are derived (IPC, percentages), so any
/// drift beyond round-trip noise is a real regression.
const REL_TOL: f64 = 1e-9;

/// Sections of a run record compared exactly (modulo [`REL_TOL`]).
const COMPARED_SECTIONS: &[&str] = &["config", "report"];

/// Flattens a manifest into `(experiment/label/workload, run)` pairs.
fn index_runs(manifest: &Json) -> Vec<(String, &Json)> {
    let mut out = Vec::new();
    let Some(exps) = manifest.get("experiments").and_then(Json::as_arr) else {
        return out;
    };
    for exp in exps {
        let ename = exp.get("name").and_then(Json::as_str).unwrap_or("?");
        let Some(runs) = exp.get("runs").and_then(Json::as_arr) else {
            continue;
        };
        for run in runs {
            let label = run.get("label").and_then(Json::as_str).unwrap_or("?");
            let workload = run.get("workload").and_then(Json::as_str).unwrap_or("?");
            out.push((format!("{ename}/{label}/{workload}"), run));
        }
    }
    out
}

fn floats_close(a: f64, b: f64) -> bool {
    if a == b {
        return true;
    }
    if a.is_nan() && b.is_nan() {
        return true;
    }
    (a - b).abs() <= REL_TOL * a.abs().max(b.abs())
}

/// Recursively diffs two values, appending one line per divergence.
fn diff_value(path: &str, a: &Json, b: &Json, out: &mut Vec<String>) {
    match (a, b) {
        (Json::Obj(pa), Json::Obj(pb)) => {
            for (k, va) in pa {
                match b.get(k) {
                    Some(vb) => diff_value(&format!("{path}.{k}"), va, vb, out),
                    None => out.push(format!("{path}.{k}: missing from current")),
                }
            }
            for (k, _) in pb {
                if a.get(k).is_none() {
                    out.push(format!("{path}.{k}: missing from baseline"));
                }
            }
        }
        (Json::Arr(va), Json::Arr(vb)) => {
            if va.len() != vb.len() {
                out.push(format!("{path}: array length {} != {}", va.len(), vb.len()));
                return;
            }
            for (i, (ea, eb)) in va.iter().zip(vb).enumerate() {
                diff_value(&format!("{path}[{i}]"), ea, eb, out);
            }
        }
        _ => {
            let numeric = a.as_f64().zip(b.as_f64());
            let equal = match numeric {
                // Integer pairs compare exactly; anything float-typed gets
                // the serialization-noise tolerance.
                Some((fa, fb)) => {
                    if matches!(a, Json::F64(_)) || matches!(b, Json::F64(_)) {
                        floats_close(fa, fb)
                    } else {
                        a == b
                    }
                }
                None => a == b,
            };
            if !equal {
                out.push(format!(
                    "{path}: baseline {} != current {}",
                    a.to_string_compact(),
                    b.to_string_compact()
                ));
            }
        }
    }
}

/// Compares two manifests and returns one line per divergence (empty =
/// regression-free). `base` is the committed baseline, `cur` the fresh run.
pub fn compare_manifests(base: &Json, cur: &Json) -> Vec<String> {
    let mut out = Vec::new();
    diff_value(
        "scale",
        base.get("scale").unwrap_or(&Json::Null),
        cur.get("scale").unwrap_or(&Json::Null),
        &mut out,
    );
    diff_value(
        "seed",
        base.get("seed").unwrap_or(&Json::Null),
        cur.get("seed").unwrap_or(&Json::Null),
        &mut out,
    );
    let base_runs = index_runs(base);
    let cur_runs = index_runs(cur);
    for (key, brun) in &base_runs {
        let Some((_, crun)) = cur_runs.iter().find(|(k, _)| k == key) else {
            out.push(format!("{key}: run missing from current manifest"));
            continue;
        };
        for section in COMPARED_SECTIONS {
            match (brun.get(section), crun.get(section)) {
                (Some(a), Some(b)) => diff_value(&format!("{key}.{section}"), a, b, &mut out),
                (None, None) => {}
                (Some(_), None) => out.push(format!("{key}.{section}: missing from current")),
                (None, Some(_)) => out.push(format!("{key}.{section}: missing from baseline")),
            }
        }
    }
    for (key, _) in &cur_runs {
        if !base_runs.iter().any(|(k, _)| k == key) {
            out.push(format!("{key}: run missing from baseline manifest"));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest(ipc: f64, acts: u64) -> Json {
        Json::parse(&format!(
            r#"{{
              "scale": {{"shrink": 16}},
              "seed": 12648430,
              "experiments": [
                {{"name": "table4", "runs": [
                  {{"label": "baseline", "workload": "lbm",
                    "config": {{"cores": 8, "mitigation": "baseline"}},
                    "report": {{"instructions": 20000, "ipc": {ipc}, "acts": {acts}}},
                    "telemetry": {{"counters": {{"mc.reads": 7}}}}}}
                ]}}
              ]
            }}"#
        ))
        .unwrap()
    }

    #[test]
    fn identical_manifests_have_no_differences() {
        let a = manifest(1.25, 640);
        assert!(compare_manifests(&a, &a).is_empty());
    }

    #[test]
    fn float_noise_within_tolerance_is_ignored() {
        let a = manifest(1.25, 640);
        let b = manifest(1.25 * (1.0 + 1e-12), 640);
        assert!(compare_manifests(&a, &b).is_empty());
    }

    #[test]
    fn integer_drift_is_exact_match_and_flagged() {
        let a = manifest(1.25, 640);
        let b = manifest(1.25, 641);
        let diffs = compare_manifests(&a, &b);
        assert_eq!(diffs.len(), 1, "{diffs:?}");
        assert!(diffs[0].contains("report.acts"), "{diffs:?}");
        assert!(diffs[0].contains("640"), "{diffs:?}");
    }

    #[test]
    fn float_drift_beyond_tolerance_is_flagged() {
        let a = manifest(1.25, 640);
        let b = manifest(1.26, 640);
        let diffs = compare_manifests(&a, &b);
        assert_eq!(diffs.len(), 1, "{diffs:?}");
        assert!(diffs[0].contains("report.ipc"), "{diffs:?}");
    }

    #[test]
    fn telemetry_is_not_compared() {
        let a = manifest(1.25, 640);
        let text = a
            .to_string_compact()
            .replace(r#""mc.reads":7"#, r#""mc.reads":9999"#);
        let b = Json::parse(&text).unwrap();
        assert_ne!(a, b, "the rewrite must reach the telemetry section");
        assert!(compare_manifests(&a, &b).is_empty());
    }

    #[test]
    fn missing_runs_are_reported_both_ways() {
        let a = manifest(1.25, 640);
        let empty =
            Json::parse(r#"{"scale": {"shrink": 16}, "seed": 12648430, "experiments": []}"#)
                .unwrap();
        let diffs = compare_manifests(&a, &empty);
        assert_eq!(diffs.len(), 1);
        assert!(diffs[0].contains("missing from current"));
        let diffs = compare_manifests(&empty, &a);
        assert_eq!(diffs.len(), 1);
        assert!(diffs[0].contains("missing from baseline"));
    }

    #[test]
    fn scale_mismatch_is_flagged() {
        let a = manifest(1.25, 640);
        let mut b = manifest(1.25, 640);
        let Json::Obj(pairs) = &mut b else { panic!() };
        pairs.iter_mut().find(|(k, _)| k == "seed").unwrap().1 = Json::U64(7);
        let diffs = compare_manifests(&a, &b);
        assert_eq!(diffs.len(), 1);
        assert!(diffs[0].starts_with("seed:"), "{diffs:?}");
    }
}
