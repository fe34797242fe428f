//! `repro report`: assembles the unified HTML run report from whatever
//! artifacts are present in `results/` — slowdown-attribution buckets
//! (`attribution.csv`), the attack-matrix success heatmap
//! (`attack_matrix.csv`), and epoch JSONL sparklines. Missing inputs
//! degrade to an explicit "no data" section, so the report is always
//! well-formed.
//!
//! Rendering primitives (page scaffold, SVG charts) live in
//! `mirza_telemetry::report`; this module only loads and shapes data.

use std::path::Path;

use mirza_telemetry::report::{esc, heatmap, sparkline, stacked_bars};
use mirza_telemetry::{HtmlReport, Json};

/// The six stall-attribution buckets, in `attribution.csv` column order.
const BUCKETS: [&str; 6] = [
    "queue_conflict",
    "bank_timing",
    "abo_alert",
    "mitigative_ref",
    "refresh",
    "rfm",
];

/// Parses a headered CSV into rows of `column -> value` lookups. Our CSVs
/// are machine-written without quoting, so a plain comma split is exact.
fn parse_csv(text: &str) -> (Vec<String>, Vec<Vec<String>>) {
    let mut lines = text.lines();
    let header: Vec<String> = lines
        .next()
        .map(|h| h.split(',').map(str::trim).map(String::from).collect())
        .unwrap_or_default();
    let rows = lines
        .filter(|l| !l.trim().is_empty())
        .map(|l| l.split(',').map(str::trim).map(String::from).collect())
        .collect();
    (header, rows)
}

fn col(header: &[String], row: &[String], name: &str) -> Option<String> {
    let i = header.iter().position(|h| h == name)?;
    row.get(i).cloned()
}

/// Attribution section: 100%-stacked stall buckets per mitigator/workload.
fn attribution_section(csv: Option<&str>) -> String {
    let Some(text) = csv else {
        return "<p class=\"empty\">no attribution.csv in results/</p>".to_string();
    };
    let (header, rows) = parse_csv(text);
    let mut bars = Vec::new();
    for row in &rows {
        let label = col(&header, row, "label").unwrap_or_default();
        let workload = col(&header, row, "workload").unwrap_or_default();
        let values: Vec<f64> = BUCKETS
            .iter()
            .map(|b| {
                col(&header, row, &format!("{b}_ps"))
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(0.0)
            })
            .collect();
        bars.push((format!("{label}/{workload}"), values));
    }
    if bars.is_empty() {
        return "<p class=\"empty\">attribution.csv has no rows</p>".to_string();
    }
    stacked_bars(&bars, &BUCKETS)
}

/// Attack-matrix section: strategy x mitigator heatmap of mean success
/// probability over schedules and seeds.
fn attack_matrix_section(csv: Option<&str>) -> String {
    let Some(text) = csv else {
        return "<p class=\"empty\">no attack_matrix.csv in results/</p>".to_string();
    };
    let (header, rows) = parse_csv(text);
    let mut strategies: Vec<String> = Vec::new();
    let mut mitigators: Vec<String> = Vec::new();
    let mut cells: std::collections::BTreeMap<(String, String), (f64, u64)> = Default::default();
    for row in &rows {
        let (Some(s), Some(m), Some(p)) = (
            col(&header, row, "strategy"),
            col(&header, row, "mitigator"),
            col(&header, row, "success_prob").and_then(|v| v.parse::<f64>().ok()),
        ) else {
            continue;
        };
        if !strategies.contains(&s) {
            strategies.push(s.clone());
        }
        if !mitigators.contains(&m) {
            mitigators.push(m.clone());
        }
        let e = cells.entry((s, m)).or_insert((0.0, 0));
        e.0 += p;
        e.1 += 1;
    }
    if strategies.is_empty() {
        return "<p class=\"empty\">attack_matrix.csv has no rows</p>".to_string();
    }
    let values: Vec<Vec<Option<f64>>> = strategies
        .iter()
        .map(|s| {
            mitigators
                .iter()
                .map(|m| {
                    cells
                        .get(&(s.clone(), m.clone()))
                        .map(|(sum, n)| sum / *n as f64)
                })
                .collect()
        })
        .collect();
    let mut html = heatmap(&strategies, &mitigators, &values);
    html.push_str(
        "<p>Mean attack success probability over schedules and seeds \
         (0 = defeated, 1 = always lands).</p>\n",
    );
    html
}

/// Epoch section: one sparkline of per-epoch retired instructions for
/// each `epochs_*.jsonl` stream found (capped to keep the page light).
fn epochs_section(epoch_dirs: &[std::path::PathBuf]) -> String {
    let mut streams: Vec<(String, Vec<f64>)> = Vec::new();
    for dir in epoch_dirs {
        let Ok(entries) = std::fs::read_dir(dir) else {
            continue;
        };
        let mut names: Vec<_> = entries
            .flatten()
            .map(|e| e.path())
            .filter(|p| {
                p.extension().is_some_and(|x| x == "jsonl")
                    && p.file_name()
                        .is_some_and(|n| n.to_string_lossy().starts_with("epochs_"))
            })
            .collect();
        names.sort();
        for path in names {
            let Ok(text) = std::fs::read_to_string(&path) else {
                continue;
            };
            let series: Vec<f64> = text
                .lines()
                .filter_map(|l| Json::parse(l).ok())
                .filter_map(|rec| {
                    rec.get("counters")?
                        .get("sim.instructions")
                        .and_then(Json::as_u64)
                        .map(|v| v as f64)
                })
                .collect();
            if !series.is_empty() {
                let name = path
                    .file_stem()
                    .map(|s| s.to_string_lossy().to_string())
                    .unwrap_or_default();
                streams.push((name, series));
            }
            if streams.len() >= 12 {
                break;
            }
        }
    }
    if streams.is_empty() {
        return "<p class=\"empty\">no epoch JSONL streams found (run with --epochs)</p>"
            .to_string();
    }
    let mut html = String::from(
        "<table><tr><th>stream</th><th>instructions / epoch</th><th>epochs</th></tr>\n",
    );
    for (name, series) in &streams {
        html.push_str(&format!(
            "<tr><td>{}</td><td>{}</td><td>{}</td></tr>\n",
            esc(name),
            sparkline(series),
            series.len()
        ));
    }
    html.push_str("</table>\n");
    html
}

/// Builds the full report HTML from the artifacts under `results_dir`.
/// Epoch streams are searched in `results_dir/epochs` and `./epochs`.
pub fn generate(results_dir: &Path) -> String {
    let read = |name: &str| std::fs::read_to_string(results_dir.join(name)).ok();
    let attribution = read("attribution.csv");
    let attack_matrix = read("attack_matrix.csv");
    let mut page = HtmlReport::new("MIRZA run report");
    page.section(
        "Slowdown attribution",
        &attribution_section(attribution.as_deref()),
    );
    page.section(
        "Attack matrix",
        &attack_matrix_section(attack_matrix.as_deref()),
    );
    page.section(
        "Epoch series",
        &epochs_section(&[results_dir.join("epochs"), "epochs".into()]),
    );
    page.finish()
}

/// Generates the report and writes it to `out`.
pub fn write(results_dir: &Path, out: &Path) -> std::io::Result<()> {
    if let Some(dir) = out.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    std::fs::write(out, generate(results_dir))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_results_dir_still_renders_a_wellformed_page() {
        let dir = std::env::temp_dir().join(format!("mirza_report_empty_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let html = generate(&dir);
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert!(html.contains("Slowdown attribution"));
        assert!(html.contains("no attribution.csv"));
        assert!(html.ends_with("</html>\n"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn populated_results_dir_renders_charts() {
        let dir = std::env::temp_dir().join(format!("mirza_report_full_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("epochs")).unwrap();
        std::fs::write(
            dir.join("attribution.csv"),
            "label,workload,elapsed_ps,ipc_sum,slowdown_pct,requests,total_stall_ps,\
             queue_conflict_ps,bank_timing_ps,abo_alert_ps,mitigative_ref_ps,refresh_ps,rfm_ps\n\
             mirza-1000,lbm,100,1.0,2.0,10,100,40,30,10,10,5,5\n",
        )
        .unwrap();
        std::fs::write(
            dir.join("attack_matrix.csv"),
            "strategy,schedule,mitigator,seed,trials,successes,success_prob,max_row_acts,\
             bound,total_acts,alerts\n\
             feinting,burst,mirza-1000,1,4,1,0.25,10,20,100,2\n\
             feinting,paced,mirza-1000,1,4,3,0.75,10,20,100,2\n",
        )
        .unwrap();
        std::fs::write(
            dir.join("epochs").join("epochs_baseline-lbm.jsonl"),
            "{\"t_ps\":1000,\"dur_ps\":1000,\"counters\":{\"sim.instructions\":50},\"gauges\":{}}\n\
             {\"t_ps\":2000,\"dur_ps\":1000,\"counters\":{\"sim.instructions\":70},\"gauges\":{}}\n",
        )
        .unwrap();
        let html = generate(&dir);
        // Attribution stacked bar with its row label and bucket legend.
        assert!(html.contains("mirza-1000/lbm"));
        assert!(html.contains("queue_conflict"));
        // Heatmap cell = mean of 0.25 and 0.75.
        assert!(html.contains("0.50"));
        // Epoch sparkline table row.
        assert!(html.contains("epochs_baseline-lbm"));
        assert!(html.contains("polyline"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
