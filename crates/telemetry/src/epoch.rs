//! Epoch time-series sampling with a bounded-memory coalescing reservoir.
//!
//! A [`EpochSampler`] snapshots every registered counter and gauge at fixed
//! simulated-time boundaries (every `epoch_ps`) and stores *per-epoch deltas*
//! for counters and point samples for gauges. Memory is bounded: when the
//! reservoir reaches its capacity, adjacent epochs are merged pairwise
//! (counter deltas summed, the later gauge sample kept) and the effective
//! epoch length doubles. Coalescing is purely a function of simulated time,
//! so two identical seeded runs produce byte-identical series.
//!
//! The series is emitted as compact JSONL (one epoch per line) and
//! summarized per series (min/mean/max/p99) for the run manifest. Counter
//! summaries are normalized to rates per simulated microsecond so they stay
//! comparable across coalescing levels; gauge summaries are over the raw
//! sampled values.

use crate::json::Json;
use crate::registry::Registry;
use std::collections::BTreeMap;

/// Default reservoir capacity (epochs retained before coalescing).
pub const DEFAULT_CAPACITY: usize = 4096;

/// One retained epoch: counter deltas and gauge samples over `[t_ps -
/// dur_ps, t_ps]`. Zero counter deltas are not stored.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochRecord {
    /// Epoch end instant (simulated picoseconds).
    pub t_ps: u64,
    /// Epoch length; doubles as records coalesce.
    pub dur_ps: u64,
    /// Counter deltas over the epoch, name-sorted, zeros omitted.
    pub counters: Vec<(String, u64)>,
    /// Gauge values sampled at the epoch boundary, name-sorted.
    pub gauges: Vec<(String, f64)>,
}

/// Bounded-memory sampler of registry counters/gauges at fixed simulated
/// epochs. Driven by [`EpochSampler::tick`] from the simulation loop; epoch
/// resolution is therefore limited to the loop's quantum.
#[derive(Debug)]
pub struct EpochSampler {
    epoch_ps: u64,
    cap: usize,
    next_at: u64,
    last_sample_at: u64,
    prev: BTreeMap<String, u64>,
    records: Vec<EpochRecord>,
}

impl EpochSampler {
    /// A sampler with the given epoch length (clamped to >= 1 ps) and the
    /// default reservoir capacity.
    pub fn new(epoch_ps: u64) -> Self {
        Self::with_capacity(epoch_ps, DEFAULT_CAPACITY)
    }

    /// A sampler with an explicit reservoir capacity (clamped to >= 2 and
    /// rounded down to even so pairwise coalescing always halves it).
    pub fn with_capacity(epoch_ps: u64, cap: usize) -> Self {
        let epoch_ps = epoch_ps.max(1);
        let cap = (cap.max(2) / 2) * 2;
        EpochSampler {
            epoch_ps,
            cap,
            next_at: epoch_ps,
            last_sample_at: 0,
            prev: BTreeMap::new(),
            records: Vec::new(),
        }
    }

    /// Current effective epoch length (doubles as the reservoir coalesces).
    pub fn epoch_ps(&self) -> u64 {
        self.epoch_ps
    }

    /// Number of retained epochs.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether no epochs have been retained yet.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The retained epochs, oldest first.
    pub fn records(&self) -> &[EpochRecord] {
        &self.records
    }

    /// Advances simulated time to `t_ps`, emitting one record per epoch
    /// boundary crossed since the last call.
    pub fn tick(&mut self, t_ps: u64, reg: &Registry) {
        while t_ps >= self.next_at {
            let at = self.next_at;
            self.sample(at, reg);
            self.next_at += self.epoch_ps;
        }
    }

    /// Closes the series at `t_ps`, emitting a final (possibly partial)
    /// epoch if time advanced past the last boundary.
    pub fn finish(&mut self, t_ps: u64, reg: &Registry) {
        self.tick(t_ps, reg);
        if t_ps > self.last_sample_at {
            self.sample(t_ps, reg);
        }
    }

    fn sample(&mut self, at: u64, reg: &Registry) {
        let mut counters = Vec::new();
        for (name, v) in reg.counters() {
            let prev = self.prev.get(name).copied().unwrap_or(0);
            // set_counter may (pathologically) move a value backwards;
            // clamp rather than wrap so the series stays well-formed.
            let delta = v.saturating_sub(prev);
            self.prev.insert(name.to_string(), v);
            if delta > 0 {
                counters.push((name.to_string(), delta));
            }
        }
        let gauges: Vec<(String, f64)> = reg.gauges().map(|(n, v)| (n.to_string(), v)).collect();
        let dur_ps = at - self.last_sample_at;
        self.last_sample_at = at;
        self.records.push(EpochRecord {
            t_ps: at,
            dur_ps,
            counters,
            gauges,
        });
        if self.records.len() >= self.cap {
            self.coalesce();
        }
    }

    /// Merges adjacent record pairs: deltas sum, durations add, and the
    /// later gauge sample wins. An odd trailing record is kept as-is.
    fn coalesce(&mut self) {
        let mut merged = Vec::with_capacity(self.records.len() / 2 + 1);
        let mut it = self.records.drain(..);
        while let Some(a) = it.next() {
            match it.next() {
                Some(b) => {
                    let mut sums: BTreeMap<String, u64> = BTreeMap::new();
                    for (k, v) in a.counters.into_iter().chain(b.counters) {
                        *sums.entry(k).or_insert(0) += v;
                    }
                    merged.push(EpochRecord {
                        t_ps: b.t_ps,
                        dur_ps: a.dur_ps + b.dur_ps,
                        counters: sums.into_iter().collect(),
                        gauges: b.gauges,
                    });
                }
                None => merged.push(a),
            }
        }
        drop(it);
        self.records = merged;
        self.epoch_ps *= 2;
    }

    /// The series as compact JSONL, one epoch per line:
    /// `{"t_ps":..,"dur_ps":..,"counters":{..},"gauges":{..}}`.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for r in &self.records {
            let mut counters = Json::obj();
            for (k, v) in &r.counters {
                counters.push(k, *v);
            }
            let mut gauges = Json::obj();
            for (k, v) in &r.gauges {
                gauges.push(k, *v);
            }
            let mut doc = Json::obj();
            doc.push("t_ps", r.t_ps)
                .push("dur_ps", r.dur_ps)
                .push("counters", counters)
                .push("gauges", gauges);
            out.push_str(&doc.to_string_compact());
            out.push('\n');
        }
        out
    }

    /// Per-series summaries for the manifest. Counter series are reported
    /// as rates per simulated microsecond (min/mean/max/p99 over epochs;
    /// the mean is duration-weighted, i.e. total delta over total time).
    /// Gauge series summarize the raw sampled values.
    pub fn summary_json(&self) -> Json {
        let mut doc = Json::obj();
        doc.push("epoch_ps", self.epoch_ps)
            .push("epochs", self.records.len() as u64);

        // Counter rates: a record where a series is absent contributes a
        // zero-rate epoch, so bursty series summarize correctly.
        let mut names: Vec<&str> = Vec::new();
        for r in &self.records {
            for (k, _) in &r.counters {
                if !names.contains(&k.as_str()) {
                    names.push(k);
                }
            }
        }
        names.sort_unstable();
        let mut counters = Json::obj();
        for name in names {
            let mut rates = Vec::with_capacity(self.records.len());
            let mut total_delta = 0u64;
            let mut total_dur = 0u64;
            for r in &self.records {
                let delta = r
                    .counters
                    .iter()
                    .find(|(k, _)| k == name)
                    .map_or(0, |(_, v)| *v);
                total_delta += delta;
                total_dur += r.dur_ps;
                rates.push(delta as f64 * 1e6 / r.dur_ps as f64);
            }
            let mean = total_delta as f64 * 1e6 / total_dur as f64;
            counters.push(name, series_stats(&rates, mean, "per_us"));
        }
        doc.push("counters", counters);

        let mut gnames: Vec<&str> = Vec::new();
        for r in &self.records {
            for (k, _) in &r.gauges {
                if !gnames.contains(&k.as_str()) {
                    gnames.push(k);
                }
            }
        }
        gnames.sort_unstable();
        let mut gauges = Json::obj();
        for name in gnames {
            let vals: Vec<f64> = self
                .records
                .iter()
                .filter_map(|r| r.gauges.iter().find(|(k, _)| k == name).map(|(_, v)| *v))
                .collect();
            let mean = vals.iter().sum::<f64>() / vals.len() as f64;
            gauges.push(name, series_stats(&vals, mean, "value"));
        }
        doc.push("gauges", gauges);
        doc
    }
}

/// `{min, mean, max, p99, unit}` over a series; `mean` is supplied by the
/// caller (duration-weighted for rates, arithmetic for gauges).
fn series_stats(vals: &[f64], mean: f64, unit: &str) -> Json {
    let mut sorted: Vec<f64> = vals.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in series"));
    let n = sorted.len();
    let p99 = sorted[((n as f64 * 0.99).ceil() as usize).clamp(1, n) - 1];
    let mut o = Json::obj();
    o.push("min", sorted[0])
        .push("mean", mean)
        .push("max", sorted[n - 1])
        .push("p99", p99)
        .push("unit", unit);
    o
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reg_with(counter: u64, gauge: f64) -> Registry {
        let mut r = Registry::new();
        r.inc("c.acts", counter);
        r.set_gauge("g.depth", gauge);
        r
    }

    #[test]
    fn deltas_not_totals() {
        let mut s = EpochSampler::new(100);
        let mut r = Registry::new();
        r.inc("c", 5);
        s.tick(100, &r);
        r.inc("c", 3);
        s.tick(200, &r);
        assert_eq!(s.records().len(), 2);
        assert_eq!(s.records()[0].counters, vec![("c".to_string(), 5)]);
        assert_eq!(s.records()[1].counters, vec![("c".to_string(), 3)]);
        assert_eq!(s.records()[1].t_ps, 200);
        assert_eq!(s.records()[1].dur_ps, 100);
    }

    #[test]
    fn tick_emits_every_crossed_boundary() {
        let mut s = EpochSampler::new(100);
        let r = reg_with(1, 2.0);
        s.tick(350, &r); // crosses 100, 200, 300
        assert_eq!(s.records().len(), 3);
        // Only the first epoch carries the delta; later ones are empty.
        assert_eq!(s.records()[0].counters.len(), 1);
        assert!(s.records()[1].counters.is_empty());
        // Gauges are sampled on every record.
        assert_eq!(s.records()[2].gauges, vec![("g.depth".to_string(), 2.0)]);
    }

    #[test]
    fn finish_emits_partial_epoch() {
        let mut s = EpochSampler::new(100);
        let r = reg_with(4, 0.0);
        s.finish(250, &r);
        assert_eq!(s.records().len(), 3);
        let last = &s.records()[2];
        assert_eq!(last.t_ps, 250);
        assert_eq!(last.dur_ps, 50);
    }

    #[test]
    fn coalescing_bounds_memory_and_preserves_totals() {
        let mut s = EpochSampler::with_capacity(10, 8);
        let mut r = Registry::new();
        for i in 1..=100u64 {
            r.inc("c", 2);
            s.tick(i * 10, &r);
        }
        s.finish(1000, &r);
        assert!(s.len() < 8, "reservoir stayed bounded: {}", s.len());
        assert!(s.epoch_ps() > 10, "epoch length doubled");
        let total: u64 = s
            .records()
            .iter()
            .flat_map(|rec| rec.counters.iter())
            .map(|(_, v)| *v)
            .sum();
        assert_eq!(total, 200, "counter mass preserved across coalescing");
        let dur: u64 = s.records().iter().map(|rec| rec.dur_ps).sum();
        assert_eq!(dur, 1000, "time coverage preserved");
    }

    #[test]
    fn identical_inputs_identical_jsonl() {
        let run = || {
            let mut s = EpochSampler::with_capacity(10, 4);
            let mut r = Registry::new();
            for i in 1..=50u64 {
                r.inc("c", i % 3);
                r.set_gauge("g", (i % 7) as f64);
                s.tick(i * 10, &r);
            }
            s.finish(505, &r);
            s.to_jsonl()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        assert!(!a.is_empty());
        for line in a.lines() {
            Json::parse(line).expect("every epoch line parses");
        }
    }

    #[test]
    fn summary_reports_rates_per_us() {
        let mut s = EpochSampler::new(1_000_000); // 1 us epochs
        let mut r = Registry::new();
        r.inc("c", 10);
        s.tick(1_000_000, &r);
        r.inc("c", 30);
        s.tick(2_000_000, &r);
        let sum = s.summary_json();
        let c = sum.get("counters").unwrap().get("c").unwrap();
        assert_eq!(c.get("min").unwrap().as_f64(), Some(10.0));
        assert_eq!(c.get("max").unwrap().as_f64(), Some(30.0));
        assert_eq!(c.get("mean").unwrap().as_f64(), Some(20.0));
        assert_eq!(sum.get("epochs").unwrap().as_u64(), Some(2));
    }
}
