//! Named metric registry.
//!
//! The instruments in [`crate::stats`] are plain values a world embeds
//! wherever it likes; nothing names them or gathers them for export. A
//! [`MetricsRegistry`] closes that gap: each instrument is registered
//! under a [`MetricKey`] — `(layer, name, station)` — and the whole
//! registry can be snapshot at any [`SimTime`] into a flat, sorted
//! [`MetricsSnapshot`] with a deterministic JSONL rendering.
//!
//! Worlds keep their hot-path counters as plain struct fields (a
//! `BTreeMap` lookup per frame would be wasteful) and *export* them into
//! a registry when asked — see `WlanWorld::metrics_snapshot` and its
//! siblings. Genuinely low-rate instruments can live in the registry
//! directly.
//!
//! Keys are `&'static str` on purpose: metric names are code, not data,
//! and static strings keep registration allocation-free. The map is a
//! `BTreeMap`, so iteration — and therefore every exported artifact —
//! is in stable `(layer, name, station)` order regardless of insertion
//! order or thread count.

use std::collections::BTreeMap;

use crate::json;
use crate::stats::{Counter, Histogram, Summary, TimeWeighted};
use crate::time::SimTime;

/// Identity of one instrument in a [`MetricsRegistry`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricKey {
    /// Protocol layer or subsystem, e.g. `"mac"`, `"net"`, `"wman"`.
    pub layer: &'static str,
    /// Instrument name, e.g. `"tx_frames"`, `"access_delay_us"`.
    pub name: &'static str,
    /// Station the instrument belongs to; `None` for world-level.
    pub station: Option<u32>,
}

#[derive(Clone, Debug)]
enum Instrument {
    Counter(Counter),
    Summary(Summary),
    Histogram(Histogram),
    Gauge(TimeWeighted),
}

impl Instrument {
    fn kind(&self) -> &'static str {
        match self {
            Instrument::Counter(_) => "counter",
            Instrument::Summary(_) => "summary",
            Instrument::Histogram(_) => "histogram",
            Instrument::Gauge(_) => "gauge",
        }
    }
}

/// A named collection of statistics instruments.
#[derive(Clone, Debug, Default)]
pub struct MetricsRegistry {
    map: BTreeMap<MetricKey, Instrument>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of registered instruments.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Returns the counter under `(layer, name, station)`, registering
    /// it on first use.
    ///
    /// # Panics
    ///
    /// Panics if the key is already registered as a different
    /// instrument kind.
    pub fn counter(
        &mut self,
        layer: &'static str,
        name: &'static str,
        station: Option<u32>,
    ) -> &mut Counter {
        let key = MetricKey {
            layer,
            name,
            station,
        };
        let slot = self
            .map
            .entry(key)
            .or_insert_with(|| Instrument::Counter(Counter::new()));
        match slot {
            Instrument::Counter(c) => c,
            other => panic!(
                "metric {layer}/{name} already registered as {}",
                other.kind()
            ),
        }
    }

    /// Returns the summary under `(layer, name, station)`, registering
    /// it on first use.
    ///
    /// # Panics
    ///
    /// Panics on instrument-kind mismatch, like [`MetricsRegistry::counter`].
    pub fn summary(
        &mut self,
        layer: &'static str,
        name: &'static str,
        station: Option<u32>,
    ) -> &mut Summary {
        let key = MetricKey {
            layer,
            name,
            station,
        };
        let slot = self
            .map
            .entry(key)
            .or_insert_with(|| Instrument::Summary(Summary::new()));
        match slot {
            Instrument::Summary(s) => s,
            other => panic!(
                "metric {layer}/{name} already registered as {}",
                other.kind()
            ),
        }
    }

    /// Returns the histogram under `(layer, name, station)`, registering
    /// it on first use.
    ///
    /// # Panics
    ///
    /// Panics on instrument-kind mismatch, like [`MetricsRegistry::counter`].
    pub fn histogram(
        &mut self,
        layer: &'static str,
        name: &'static str,
        station: Option<u32>,
    ) -> &mut Histogram {
        let key = MetricKey {
            layer,
            name,
            station,
        };
        let slot = self
            .map
            .entry(key)
            .or_insert_with(|| Instrument::Histogram(Histogram::new()));
        match slot {
            Instrument::Histogram(h) => h,
            other => panic!(
                "metric {layer}/{name} already registered as {}",
                other.kind()
            ),
        }
    }

    /// Returns the time-weighted gauge under `(layer, name, station)`,
    /// registering it on first use with `start`/`initial`.
    ///
    /// # Panics
    ///
    /// Panics on instrument-kind mismatch, like [`MetricsRegistry::counter`].
    pub fn gauge(
        &mut self,
        layer: &'static str,
        name: &'static str,
        station: Option<u32>,
        start: SimTime,
        initial: f64,
    ) -> &mut TimeWeighted {
        let key = MetricKey {
            layer,
            name,
            station,
        };
        let slot = self
            .map
            .entry(key)
            .or_insert_with(|| Instrument::Gauge(TimeWeighted::new(start, initial)));
        match slot {
            Instrument::Gauge(g) => g,
            other => panic!(
                "metric {layer}/{name} already registered as {}",
                other.kind()
            ),
        }
    }

    /// Captures every instrument's state at virtual time `at`.
    ///
    /// Rows come out in `(layer, name, station)` order — the registry's
    /// `BTreeMap` order — so snapshots of equal registries are equal.
    pub fn snapshot(&self, at: SimTime) -> MetricsSnapshot {
        let rows = self
            .map
            .iter()
            .map(|(key, inst)| {
                let fields: Vec<(&'static str, f64)> = match inst {
                    Instrument::Counter(c) => vec![("value", c.get() as f64)],
                    Instrument::Summary(s) => vec![
                        ("n", s.count() as f64),
                        ("sum", s.sum()),
                        ("mean", s.mean()),
                        ("std_dev", s.std_dev()),
                        ("min", s.min().unwrap_or(0.0)),
                        ("max", s.max().unwrap_or(0.0)),
                    ],
                    Instrument::Histogram(h) => vec![
                        ("n", h.count() as f64),
                        ("mean", h.mean()),
                        ("p50", h.quantile(0.50).unwrap_or(0) as f64),
                        ("p99", h.quantile(0.99).unwrap_or(0) as f64),
                    ],
                    Instrument::Gauge(g) => vec![
                        ("current", g.current()),
                        ("max", g.max()),
                        ("time_avg", g.time_average(at)),
                    ],
                };
                MetricRow {
                    key: *key,
                    kind: inst.kind(),
                    fields,
                }
            })
            .collect();
        MetricsSnapshot { at, rows }
    }
}

/// One instrument's state inside a [`MetricsSnapshot`].
#[derive(Clone, Debug)]
pub struct MetricRow {
    /// Which instrument this row describes.
    pub key: MetricKey,
    /// Instrument kind: `"counter"`, `"summary"`, `"histogram"` or
    /// `"gauge"`.
    pub kind: &'static str,
    /// Flattened `(field, value)` pairs, in a fixed per-kind order.
    pub fields: Vec<(&'static str, f64)>,
}

/// A point-in-time capture of a [`MetricsRegistry`].
#[derive(Clone, Debug)]
pub struct MetricsSnapshot {
    /// Virtual time of the capture.
    pub at: SimTime,
    /// Rows in stable `(layer, name, station)` order.
    pub rows: Vec<MetricRow>,
}

impl MetricsSnapshot {
    /// Serialises the snapshot as one JSON object per line.
    ///
    /// `exp` tags each line with the experiment id, mirroring
    /// [`crate::trace::Trace::to_jsonl`]; key order and number
    /// formatting are fixed so equal snapshots are byte-identical.
    pub fn to_jsonl(&self, exp: &str) -> String {
        let mut out = String::with_capacity(self.rows.len() * 96);
        for row in &self.rows {
            out.push_str("{\"exp\":");
            json::push_str(&mut out, exp);
            out.push_str(",\"at_ns\":");
            json::push_u64(&mut out, self.at.as_nanos());
            json::push_str_field(&mut out, "layer", row.key.layer);
            json::push_str_field(&mut out, "name", row.key.name);
            out.push_str(",\"station\":");
            match row.key.station {
                Some(s) => json::push_u64(&mut out, u64::from(s)),
                None => out.push_str("null"),
            }
            json::push_str_field(&mut out, "kind", row.kind);
            for (field, value) in &row.fields {
                json::push_f64_field(&mut out, field, *value);
            }
            out.push_str("}\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registers_and_reuses_instruments() {
        let mut reg = MetricsRegistry::new();
        reg.counter("mac", "tx_frames", Some(0)).incr();
        reg.counter("mac", "tx_frames", Some(0)).incr();
        reg.counter("mac", "tx_frames", Some(1)).incr();
        reg.summary("mac", "access_delay_us", None).record(120.0);
        assert_eq!(reg.len(), 3);
        assert_eq!(reg.counter("mac", "tx_frames", Some(0)).get(), 2);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let mut reg = MetricsRegistry::new();
        reg.counter("mac", "x", None).incr();
        let _ = reg.summary("mac", "x", None);
    }

    #[test]
    fn snapshot_rows_are_sorted_and_stable() {
        let mut reg = MetricsRegistry::new();
        // Insert out of order; snapshot must come out sorted.
        reg.counter("net", "assoc", Some(2)).incr();
        reg.counter("mac", "tx_frames", Some(1)).add(7);
        reg.counter("mac", "tx_frames", Some(0)).add(3);
        let snap = reg.snapshot(SimTime::from_millis(5));
        let keys: Vec<(&str, &str, Option<u32>)> = snap
            .rows
            .iter()
            .map(|r| (r.key.layer, r.key.name, r.key.station))
            .collect();
        assert_eq!(
            keys,
            vec![
                ("mac", "tx_frames", Some(0)),
                ("mac", "tx_frames", Some(1)),
                ("net", "assoc", Some(2)),
            ]
        );
        let jsonl = snap.to_jsonl("TAB-9.9");
        assert_eq!(
            jsonl.lines().next().unwrap(),
            "{\"exp\":\"TAB-9.9\",\"at_ns\":5000000,\"layer\":\"mac\",\"name\":\"tx_frames\",\
             \"station\":0,\"kind\":\"counter\",\"value\":3}"
        );
        assert_eq!(jsonl.lines().count(), 3);
    }

    fn gauge_field(snap: &MetricsSnapshot, field: &str) -> f64 {
        let row = &snap.rows[0];
        assert_eq!(row.kind, "gauge");
        row.fields.iter().find(|(f, _)| *f == field).unwrap().1
    }

    #[test]
    fn gauge_snapshot_uses_capture_time() {
        let mut reg = MetricsRegistry::new();
        reg.gauge("mac", "queue_depth", Some(0), SimTime::ZERO, 0.0)
            .set(SimTime::from_millis(10), 4.0);
        let snap = reg.snapshot(SimTime::from_millis(20));
        // 0 for 10 ms then 4 for 10 ms -> time average 2.
        let avg = gauge_field(&snap, "time_avg");
        assert!((avg - 2.0).abs() < 1e-9, "{avg}");
    }

    /// The end-of-run flush shape `report --metrics-json` produces:
    /// the snapshot deadline sits far past the gauge's last update, and
    /// the interval from that update to end-of-sim must be weighted at
    /// the *final* value. Accounting only up to last-update time would
    /// report 2.0 here (the 0–20 ms average) instead of 1.2.
    #[test]
    fn gauge_end_of_run_flush_accounts_tail_interval() {
        let mut reg = MetricsRegistry::new();
        let g = reg.gauge("mac", "queue_depth", Some(0), SimTime::ZERO, 0.0);
        g.set(SimTime::from_millis(10), 4.0);
        g.set(SimTime::from_millis(20), 1.0);
        let snap = reg.snapshot(SimTime::from_millis(100));
        // (0·10 + 4·10 + 1·80) / 100 = 1.2 — the 80 ms tail counts.
        let avg = gauge_field(&snap, "time_avg");
        assert!((avg - 1.2).abs() < 1e-9, "{avg}");
        assert_eq!(gauge_field(&snap, "current"), 1.0);
        assert_eq!(gauge_field(&snap, "max"), 4.0);
        // A later flush of the same registry weights the longer tail.
        let later = reg.snapshot(SimTime::from_millis(980));
        let avg = gauge_field(&later, "time_avg");
        assert!((avg - (40.0 + 960.0) / 980.0).abs() < 1e-9, "{avg}");
    }
}
