//! Named-metric registry: counters, gauges, and log2 histograms.
//!
//! Metric names are `&'static str` dotted paths (`"mc.read_latency_ns"`),
//! stored in `BTreeMap`s so manifest output is deterministically ordered.

use crate::histogram::Histogram;
use crate::json::Json;
use std::collections::BTreeMap;

/// Recently-resolved `(name, slot)` pairs kept per metric family. Metric
/// names are `const` literals, so each call site passes a stable pointer;
/// a tiny linear scan on pointer identity skips the `BTreeMap` string walk
/// on the hot per-command paths. The same name reached through a different
/// pointer (consts inline per use-site) just occupies a second memo entry
/// mapping to the same slot, so correctness never depends on identity.
const MEMO_SLOTS: usize = 8;

#[derive(Debug, Default, Clone)]
struct NameMemo {
    slots: Vec<(&'static str, usize)>,
    cursor: usize,
}

impl NameMemo {
    #[inline]
    fn get(&self, name: &'static str) -> Option<usize> {
        self.slots
            .iter()
            .find(|(n, _)| n.as_ptr() == name.as_ptr() && n.len() == name.len())
            .map(|&(_, idx)| idx)
    }

    fn put(&mut self, name: &'static str, idx: usize) {
        if self.slots.len() < MEMO_SLOTS {
            self.slots.push((name, idx));
        } else {
            self.slots[self.cursor % MEMO_SLOTS] = (name, idx);
            self.cursor = (self.cursor + 1) % MEMO_SLOTS;
        }
    }
}

/// Holds every named metric recorded during one simulation run.
///
/// Counter and histogram values live in dense vectors; the `BTreeMap`s map
/// names to vector slots and keep manifest iteration deterministically
/// name-ordered. A `NameMemo` per family resolves repeat lookups from the
/// same call site without touching the tree.
#[derive(Debug, Default, Clone)]
pub struct Registry {
    counters: BTreeMap<&'static str, usize>,
    counter_vals: Vec<u64>,
    counter_memo: NameMemo,
    gauges: BTreeMap<&'static str, f64>,
    histograms: BTreeMap<&'static str, usize>,
    histogram_vals: Vec<Histogram>,
    histogram_memo: NameMemo,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn counter_slot(&mut self, name: &'static str) -> usize {
        if let Some(idx) = self.counter_memo.get(name) {
            return idx;
        }
        let idx = match self.counters.get(name) {
            Some(&idx) => idx,
            None => {
                let idx = self.counter_vals.len();
                self.counter_vals.push(0);
                self.counters.insert(name, idx);
                idx
            }
        };
        self.counter_memo.put(name, idx);
        idx
    }

    #[inline]
    fn histogram_slot(&mut self, name: &'static str) -> usize {
        if let Some(idx) = self.histogram_memo.get(name) {
            return idx;
        }
        let idx = match self.histograms.get(name) {
            Some(&idx) => idx,
            None => {
                let idx = self.histogram_vals.len();
                self.histogram_vals.push(Histogram::default());
                self.histograms.insert(name, idx);
                idx
            }
        };
        self.histogram_memo.put(name, idx);
        idx
    }

    /// Adds `by` to the named counter (created at zero on first use).
    pub fn inc(&mut self, name: &'static str, by: u64) {
        let idx = self.counter_slot(name);
        self.counter_vals[idx] += by;
    }

    /// Sets the named counter to an absolute value. For cumulative values
    /// maintained elsewhere (e.g. instructions retired per core) that the
    /// epoch sampler should see as a counter, not a gauge.
    pub fn set_counter(&mut self, name: &'static str, v: u64) {
        let idx = self.counter_slot(name);
        self.counter_vals[idx] = v;
    }

    /// Sets the named gauge to `v`.
    pub fn set_gauge(&mut self, name: &'static str, v: f64) {
        self.gauges.insert(name, v);
    }

    /// Records one sample into the named histogram.
    pub fn observe(&mut self, name: &'static str, v: u64) {
        let idx = self.histogram_slot(name);
        self.histogram_vals[idx].record(v);
    }

    /// Current value of a counter (0 if never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .get(name)
            .map_or(0, |&idx| self.counter_vals[idx])
    }

    /// Current value of a gauge.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// The named histogram, if any samples were recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms
            .get(name)
            .map(|&idx| &self.histogram_vals[idx])
    }

    /// Iterates counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters
            .iter()
            .map(|(k, &idx)| (*k, self.counter_vals[idx]))
    }

    /// Iterates gauges in name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.gauges.iter().map(|(k, v)| (*k, *v))
    }

    /// Iterates histograms in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&'static str, &Histogram)> {
        self.histograms
            .iter()
            .map(|(k, &idx)| (*k, &self.histogram_vals[idx]))
    }

    /// Number of histograms holding at least one sample.
    pub fn nonzero_histograms(&self) -> usize {
        self.histogram_vals.iter().filter(|h| h.count() > 0).count()
    }

    /// Serializes the whole registry: counters and gauges verbatim,
    /// histograms as percentile summaries.
    pub fn to_json(&self) -> Json {
        let mut counters = Json::obj();
        for (name, v) in self.counters() {
            counters.push(name, v);
        }
        let mut gauges = Json::obj();
        for (name, v) in &self.gauges {
            gauges.push(name, *v);
        }
        let mut histograms = Json::obj();
        for (name, h) in self.histograms() {
            let s = h.summary();
            let mut o = Json::obj();
            o.push("count", s.count)
                .push("sum", Json::F64(s.sum as f64))
                .push("min", s.min)
                .push("max", s.max)
                .push("mean", s.mean)
                .push("p50", s.p50)
                .push("p90", s.p90)
                .push("p99", s.p99);
            histograms.push(name, o);
        }
        let mut doc = Json::obj();
        doc.push("counters", counters)
            .push("gauges", gauges)
            .push("histograms", histograms);
        doc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut r = Registry::new();
        r.inc("a.b", 2);
        r.inc("a.b", 3);
        assert_eq!(r.counter("a.b"), 5);
        assert_eq!(r.counter("missing"), 0);
    }

    #[test]
    fn gauges_overwrite() {
        let mut r = Registry::new();
        r.set_gauge("g", 1.0);
        r.set_gauge("g", 2.5);
        assert_eq!(r.gauge("g"), Some(2.5));
        assert_eq!(r.gauge("missing"), None);
    }

    #[test]
    fn histograms_record_and_list() {
        let mut r = Registry::new();
        r.observe("h.one", 10);
        r.observe("h.one", 20);
        r.observe("h.two", 5);
        assert_eq!(r.histogram("h.one").unwrap().count(), 2);
        assert_eq!(r.nonzero_histograms(), 2);
        let names: Vec<_> = r.histograms().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["h.one", "h.two"]); // BTreeMap order
    }

    #[test]
    fn memo_eviction_keeps_values_correct() {
        // More distinct names than MEMO_SLOTS, revisited round-robin, so
        // the memo keeps evicting and every lookup path gets exercised.
        let names: [&'static str; 10] = [
            "m.a", "m.b", "m.c", "m.d", "m.e", "m.f", "m.g", "m.h", "m.i", "m.j",
        ];
        let mut r = Registry::new();
        for round in 0..3u64 {
            for (i, n) in names.iter().enumerate() {
                r.inc(n, i as u64 + round);
                r.observe(n, i as u64);
            }
        }
        for (i, n) in names.iter().enumerate() {
            assert_eq!(r.counter(n), 3 * i as u64 + 3);
            assert_eq!(r.histogram(n).unwrap().count(), 3);
        }
        // Iteration stays name-ordered regardless of insertion slots.
        let listed: Vec<_> = r.counters().map(|(n, _)| n).collect();
        let mut sorted = listed.clone();
        sorted.sort_unstable();
        assert_eq!(listed, sorted);
    }

    #[test]
    fn json_shape_is_stable() {
        let mut r = Registry::new();
        r.inc("c", 7);
        r.set_gauge("g", 0.5);
        r.observe("h", 100);
        let doc = r.to_json();
        assert_eq!(
            doc.get("counters").unwrap().get("c").unwrap().as_u64(),
            Some(7)
        );
        assert_eq!(
            doc.get("gauges").unwrap().get("g").unwrap().as_f64(),
            Some(0.5)
        );
        let h = doc.get("histograms").unwrap().get("h").unwrap();
        assert_eq!(h.get("count").unwrap().as_u64(), Some(1));
        assert_eq!(h.get("p50").unwrap().as_f64(), Some(100.0));
        // Round-trips through our own parser.
        let text = doc.to_string_pretty();
        assert_eq!(Json::parse(&text).unwrap(), doc);
    }
}
