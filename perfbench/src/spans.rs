//! The traced run's instrumentation, kept entirely on the benchmark's
//! side of the API: one span per call the benchmark makes into a
//! layer's public functions (name, layer, start, end, parent), plus
//! named per-layer readings. Everything stays in memory until the run
//! ends. An untraced probe records nothing; it only hands back each
//! call's host time, which the pass needs anyway.

use std::collections::BTreeMap;
use std::time::Instant;

/// Layer of the benchmark's own glue: the run, each pass, the extra
/// probes. Its self time is the `untimed_s` remainder.
pub const BENCH: &str = "bench";

/// One recorded call.
pub struct Span {
    /// What was called.
    pub name: &'static str,
    /// Layer the callee belongs to (a module name).
    pub layer: &'static str,
    /// Enclosing span, `None` for the root.
    pub parent: Option<usize>,
    /// Seconds since the probe was created.
    pub start_s: f64,
    /// Seconds since the probe was created.
    pub end_s: f64,
}

impl Span {
    fn duration_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// Span recorder and per-layer reading store.
pub struct Probe {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    readings: BTreeMap<&'static str, Vec<f64>>,
}

impl Probe {
    /// A recording probe when `enabled`, a pass-through one otherwise.
    pub fn new(enabled: bool) -> Self {
        Probe {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            readings: BTreeMap::new(),
        }
    }

    /// Opens a span that later calls nest under; close it with
    /// [`exit`](Self::exit). Returns `usize::MAX` when disabled.
    pub fn enter(&mut self, layer: &'static str, name: &'static str) -> usize {
        if !self.enabled {
            return usize::MAX;
        }
        let id = self.spans.len();
        let now = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span {
            name,
            layer,
            parent: self.open.last().copied(),
            start_s: now,
            end_s: now,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: usize) {
        if !self.enabled {
            return;
        }
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_s = self.origin.elapsed().as_secs_f64();
    }

    /// Runs one layer call and returns its value with its host seconds.
    pub fn call<R>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let id = self.enter(layer, name);
        let t0 = Instant::now();
        let r = f();
        let secs = t0.elapsed().as_secs_f64();
        self.exit(id);
        (r, secs)
    }

    /// Records one reading of a per-layer metric; a metric read in
    /// every pass is later reduced to its median.
    pub fn read(&mut self, metric: &'static str, value: f64) {
        if self.enabled {
            self.readings.entry(metric).or_default().push(value);
        }
    }

    /// Median of every per-layer metric read.
    pub fn reading_medians(&self) -> BTreeMap<&'static str, f64> {
        self.readings
            .iter()
            .map(|(&k, v)| (k, crate::median(v)))
            .collect()
    }

    /// Self time (span minus its direct children) summed per layer.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (id, s) in self.spans.iter().enumerate() {
            *out.entry(s.layer).or_default() += self.self_time(id);
        }
        out
    }

    /// Duration of the first (root) span, 0 when nothing was recorded.
    pub fn root_s(&self) -> f64 {
        self.spans.first().map_or(0.0, Span::duration_s)
    }

    fn self_time(&self, id: usize) -> f64 {
        let children: f64 = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(id))
            .map(Span::duration_s)
            .sum();
        self.spans[id].duration_s() - children
    }

    /// One JSON object per span, in opening order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\": {id}, \"parent\": {parent}, \"layer\": \"{}\", \"name\": \"{}\", \"start_s\": {}, \"end_s\": {}, \"self_s\": {}}}\n",
                s.layer,
                s.name,
                s.start_s,
                s.end_s,
                self.self_time(id)
            ));
        }
        out
    }
}
