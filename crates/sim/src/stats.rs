//! Measurement instruments for simulation experiments.
//!
//! These are the primitives the benchmark harness uses to regenerate the
//! paper's figures: monotone [`Counter`]s, streaming moments
//! ([`Summary`], Welford's algorithm), bounded-error [`Histogram`]s for
//! latency quantiles, [`TimeWeighted`] gauges for occupancy-style
//! metrics, and labelled [`Series`] for (x, y) figure data.

use std::fmt;

use crate::time::{SimDuration, SimTime};

/// FNV-1a over a byte string — the stable 64-bit fingerprint used for
/// trace/metrics digests in the fuzzer and the differential scheduler
/// tests. Not cryptographic; chosen for byte-stable, dependency-free
/// hashing.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(FNV1A_OFFSET, bytes)
}

/// The FNV-1a state before any byte: `fnv1a(b"")`.
pub const FNV1A_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Continues an FNV-1a hash from `state` over `bytes`. Folding the
/// pieces of a byte string in order from [`FNV1A_OFFSET`] gives
/// exactly `fnv1a` of their concatenation, so a digest over many
/// rendered pieces never needs them in one buffer.
pub fn fnv1a_extend(state: u64, bytes: &[u8]) -> u64 {
    let mut h = state;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A monotone event counter.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// Creates a zeroed counter.
    pub fn new() -> Self {
        Counter(0)
    }

    /// Adds one.
    pub fn incr(&mut self) {
        self.0 += 1;
    }

    /// Adds `n`.
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Current count.
    pub fn get(self) -> u64 {
        self.0
    }
}

/// Streaming mean / variance / min / max via Welford's algorithm.
#[derive(Clone, Debug, Default)]
pub struct Summary {
    n: u64,
    mean: f64,
    m2: f64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Summary {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one observation.
    pub fn record(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.sum += x;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Arithmetic mean, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance, or 0 when fewer than two observations.
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation, or `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }

    /// Largest observation, or `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }

    /// Sum of all observations.
    ///
    /// Tracked as a true running sum, not reconstructed as
    /// `mean() * n` — the reconstruction compounds Welford rounding
    /// error into anything derived from the sum.
    pub fn sum(&self) -> f64 {
        self.sum
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.4} sd={:.4} min={:.4} max={:.4}",
            self.n,
            self.mean(),
            self.std_dev(),
            self.min().unwrap_or(0.0),
            self.max().unwrap_or(0.0)
        )
    }
}

/// A log-spaced histogram with ~4.5% relative bin error.
///
/// Values are bucketed by `(exponent, 4-bit mantissa)` like HdrHistogram
/// with one significant hex digit; adequate for latency quantiles.
#[derive(Clone, Debug)]
pub struct Histogram {
    bins: Vec<u64>,
    total: u64,
    summary: Summary,
}

const MANTISSA_BITS: u32 = 4;

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram covering all of `u64`.
    pub fn new() -> Self {
        Histogram {
            bins: vec![0; ((64 + 1) << MANTISSA_BITS) as usize],
            total: 0,
            summary: Summary::new(),
        }
    }

    fn index(value: u64) -> usize {
        if value < (1 << MANTISSA_BITS) {
            return value as usize;
        }
        let exp = 63 - value.leading_zeros();
        let mantissa = (value >> (exp - MANTISSA_BITS)) & ((1 << MANTISSA_BITS) - 1);
        (((exp - MANTISSA_BITS + 1) as usize) << MANTISSA_BITS) + mantissa as usize
    }

    fn bin_floor(index: usize) -> u64 {
        if index < (1 << MANTISSA_BITS) {
            return index as u64;
        }
        let exp = (index >> MANTISSA_BITS) as u32 + MANTISSA_BITS - 1;
        let mantissa = (index & ((1 << MANTISSA_BITS) - 1)) as u64;
        (1 << exp) | (mantissa << (exp - MANTISSA_BITS))
    }

    /// Records one value.
    pub fn record(&mut self, value: u64) {
        self.bins[Self::index(value)] += 1;
        self.total += 1;
        self.summary.record(value as f64);
    }

    /// Records a duration in nanoseconds.
    pub fn record_duration(&mut self, d: SimDuration) {
        self.record(d.as_nanos());
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Mean of recorded values.
    pub fn mean(&self) -> f64 {
        self.summary.mean()
    }

    /// The `q`-quantile (e.g. 0.5, 0.99), reported at the midpoint of
    /// the bin the rank falls in.
    ///
    /// The midpoint is the convention: a recorded value is uniformly
    /// anywhere inside its bin, so the midpoint is the unbiased point
    /// estimate. Reporting the bin *lower bound* (the old behaviour)
    /// systematically underestimated every quantile by up to a full
    /// bin width — ~6% with one significant hex digit — a bias no
    /// amount of sampling averages away. Values below
    /// 2^`MANTISSA_BITS` sit in exact unit-width bins and are
    /// returned exactly under either convention.
    ///
    /// Returns `None` when the histogram is empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        assert!((0.0..=1.0).contains(&q), "quantile {q}");
        if self.total == 0 {
            return None;
        }
        let rank = ((q * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &c) in self.bins.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(Self::bin_mid(i));
            }
        }
        // `rank <= total` and the bins sum to `total`, so the scan
        // always lands inside a bin.
        unreachable!("quantile rank {rank} exceeds recorded total {}", self.total)
    }

    /// Midpoint of a bin. Every bin in the octave of exponent `exp`
    /// has the same width `2^(exp - MANTISSA_BITS)`; unit-width bins
    /// (everything below `2^MANTISSA_BITS`, plus the first octave)
    /// collapse to their exact value.
    fn bin_mid(index: usize) -> u64 {
        let lo = Self::bin_floor(index);
        if index < (1 << MANTISSA_BITS) {
            return lo;
        }
        let exp = (index >> MANTISSA_BITS) as u32 + MANTISSA_BITS - 1;
        lo + (1u64 << (exp - MANTISSA_BITS)) / 2
    }

    /// Median (0.5 quantile).
    pub fn median(&self) -> Option<u64> {
        self.quantile(0.5)
    }
}

/// A time-weighted gauge: integrates `value × dt` to give time averages.
///
/// Used for queue depths, channel occupancy, and station counts, where
/// the *time spent* at each level matters, not the number of updates.
#[derive(Clone, Debug)]
pub struct TimeWeighted {
    value: f64,
    last_change: SimTime,
    weighted_sum: f64,
    start: SimTime,
    max: f64,
}

impl TimeWeighted {
    /// Creates a gauge with the given initial value at time `start`.
    pub fn new(start: SimTime, initial: f64) -> Self {
        TimeWeighted {
            value: initial,
            last_change: start,
            weighted_sum: 0.0,
            start,
            max: initial,
        }
    }

    /// Sets the gauge to `value` at time `now`.
    ///
    /// # Panics
    ///
    /// Panics if `now` precedes the previous update.
    pub fn set(&mut self, now: SimTime, value: f64) {
        let dt = now.duration_since(self.last_change).as_secs_f64();
        self.weighted_sum += self.value * dt;
        self.value = value;
        self.last_change = now;
        self.max = self.max.max(value);
    }

    /// Adds `delta` to the gauge at time `now`.
    pub fn add(&mut self, now: SimTime, delta: f64) {
        let v = self.value + delta;
        self.set(now, v);
    }

    /// The current instantaneous value.
    pub fn current(&self) -> f64 {
        self.value
    }

    /// The maximum value ever set.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Time-average over `[start, now]`; 0 over an empty interval.
    pub fn time_average(&self, now: SimTime) -> f64 {
        let span = now.duration_since(self.start).as_secs_f64();
        if span == 0.0 {
            return self.value;
        }
        let pending = self.value * now.duration_since(self.last_change).as_secs_f64();
        (self.weighted_sum + pending) / span
    }
}

/// A labelled (x, y) series — one curve of a figure.
#[derive(Clone, Debug, Default)]
pub struct Series {
    /// Curve label, e.g. `"802.11g"` or `"mesh"`.
    pub label: String,
    /// The data points in insertion order.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Creates an empty series with a label.
    pub fn new(label: impl Into<String>) -> Self {
        Series {
            label: label.into(),
            points: Vec::new(),
        }
    }

    /// Appends a point.
    pub fn push(&mut self, x: f64, y: f64) {
        self.points.push((x, y));
    }

    /// Largest y value, or `None` when empty.
    pub fn y_max(&self) -> Option<f64> {
        self.points
            .iter()
            .map(|&(_, y)| y)
            .fold(None, |acc, y| Some(acc.map_or(y, |m: f64| m.max(y))))
    }

    /// The x of the first point where y drops below `threshold`, scanning
    /// left to right. Used to locate crossover/cutoff distances.
    pub fn first_x_below(&self, threshold: f64) -> Option<f64> {
        self.points
            .iter()
            .find(|&&(_, y)| y < threshold)
            .map(|&(x, _)| x)
    }
}

/// A whole figure: several series plus axis labels, printable as an
/// aligned text table (the form the bench harness reports in).
#[derive(Clone, Debug, Default)]
pub struct Figure {
    /// Figure title, e.g. `"Fig 1.13 — rate vs distance"`.
    pub title: String,
    /// X-axis label.
    pub x_label: String,
    /// Y-axis label.
    pub y_label: String,
    /// The curves.
    pub series: Vec<Series>,
}

impl Figure {
    /// Creates an empty figure.
    pub fn new(
        title: impl Into<String>,
        x_label: impl Into<String>,
        y_label: impl Into<String>,
    ) -> Self {
        Figure {
            title: title.into(),
            x_label: x_label.into(),
            y_label: y_label.into(),
            series: Vec::new(),
        }
    }

    /// Adds a series and returns a mutable handle to it.
    pub fn add_series(&mut self, label: impl Into<String>) -> &mut Series {
        self.series.push(Series::new(label));
        self.series.last_mut().expect("just pushed")
    }

    /// Renders the figure as an aligned text table.
    pub fn to_table(&self) -> String {
        use fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "# {}", self.title);
        let _ = write!(out, "{:>14}", self.x_label);
        for s in &self.series {
            let _ = write!(out, " {:>14}", s.label);
        }
        let _ = writeln!(out);
        // Collect the union of x values in first-seen order.
        let mut xs: Vec<f64> = Vec::new();
        for s in &self.series {
            for &(x, _) in &s.points {
                if !xs.iter().any(|&e| (e - x).abs() < 1e-12) {
                    xs.push(x);
                }
            }
        }
        for x in xs {
            let _ = write!(out, "{x:>14.3}");
            for s in &self.series {
                match s.points.iter().find(|&&(px, _)| (px - x).abs() < 1e-12) {
                    Some(&(_, y)) => {
                        let _ = write!(out, " {y:>14.3}");
                    }
                    None => {
                        let _ = write!(out, " {:>14}", "-");
                    }
                }
            }
            let _ = writeln!(out);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_extend_over_any_split_equals_the_whole() {
        let whole: Vec<u8> = (0..=255u8)
            .chain(b"trace\nmetrics\n".iter().copied())
            .collect();
        let h = fnv1a(&whole);
        assert_eq!(fnv1a(b""), FNV1A_OFFSET);
        for a in 0..=whole.len() {
            for b in (a..=whole.len()).step_by(7).chain([a, whole.len()]) {
                let mut state = FNV1A_OFFSET;
                for piece in [&whole[..a], &[][..], &whole[a..b], &whole[b..], &[][..]] {
                    state = fnv1a_extend(state, piece);
                }
                assert_eq!(state, h, "split at {a}/{b}");
            }
        }
        // Pinned value: the wrapper's bytes must never change.
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn counter_accumulates() {
        let mut c = Counter::new();
        c.incr();
        c.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn summary_matches_naive_moments() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut s = Summary::new();
        for &x in &xs {
            s.record(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 4.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
        assert!((s.sum() - 40.0).abs() < 1e-9);
    }

    /// Property (regression): `sum()` must equal left-to-right naive
    /// summation *exactly*, for arbitrary value streams. The pre-fix
    /// implementation reconstructed the sum as `mean * n`, which
    /// compounds Welford rounding error — e.g. many values of wildly
    /// different magnitude drift away from the naive sum.
    #[test]
    fn summary_sum_equals_naive_summation_exactly() {
        for seed in 0..32u64 {
            let mut rng = crate::Rng::new(0x5EED_0000 + seed);
            let n = 1 + (rng.next_u64() % 2000) as usize;
            let mut s = Summary::new();
            let mut naive = 0.0f64;
            for _ in 0..n {
                // Mix magnitudes from 1e-6 to 1e6 to stress cancellation.
                let exponent = (rng.next_u64() % 13) as i32 - 6;
                let x = (rng.f64() - 0.5) * 10f64.powi(exponent);
                s.record(x);
                naive += x;
            }
            assert_eq!(
                s.sum().to_bits(),
                naive.to_bits(),
                "seed {seed}: running sum must match naive summation bit-for-bit"
            );
        }
    }

    #[test]
    fn empty_summary_is_safe() {
        let s = Summary::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
    }

    #[test]
    fn histogram_small_values_exact() {
        let mut h = Histogram::new();
        for v in 0..16u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 16);
        // Small values land in exact unit bins.
        assert_eq!(h.quantile(0.0625), Some(0));
        assert_eq!(h.quantile(1.0), Some(15));
    }

    #[test]
    fn histogram_quantile_relative_error_bounded() {
        let mut h = Histogram::new();
        for i in 1..=10_000u64 {
            h.record(i * 1000);
        }
        // Midpoint reporting halves the worst-case bin error: the old
        // lower-bound convention needed a 7% tolerance here, the
        // midpoint stays within half a bin width (~3.2%).
        let p50 = h.quantile(0.5).unwrap() as f64;
        let exact = 5_000_000.0;
        assert!((p50 - exact).abs() / exact < 0.04, "p50={p50}");
        let p99 = h.quantile(0.99).unwrap() as f64;
        let exact99 = 9_900_000.0;
        assert!((p99 - exact99).abs() / exact99 < 0.04, "p99={p99}");
    }

    #[test]
    fn histogram_quantile_is_not_systematically_low() {
        // The lower-bound bug: with values spread across log-spaced
        // bins, *every* reported quantile sat at or below the exact
        // one. The midpoint must land above the exact quantile about
        // as often as below it across a sweep of q.
        let mut h = Histogram::new();
        for i in 1..=10_000u64 {
            h.record(i * 1000);
        }
        let (mut above, mut below) = (0, 0);
        for k in 1..=99u64 {
            let q = k as f64 / 100.0;
            let exact = (10_000.0 * q).round() * 1000.0;
            let got = h.quantile(q).unwrap() as f64;
            if got > exact {
                above += 1;
            } else if got < exact {
                below += 1;
            }
        }
        assert!(
            above >= 20 && below >= 20,
            "one-sided quantiles: {above} above vs {below} below"
        );
    }

    #[test]
    fn histogram_median_and_empty() {
        let h = Histogram::new();
        assert_eq!(h.median(), None);
        let mut h = Histogram::new();
        h.record(7);
        assert_eq!(h.median(), Some(7));
    }

    #[test]
    fn histogram_index_floor_consistent() {
        // Every value maps to a bin whose floor is <= the value and
        // whose next bin floor is > the value.
        for v in [0u64, 1, 15, 16, 17, 100, 1023, 1024, 123_456_789] {
            let i = Histogram::index(v);
            assert!(Histogram::bin_floor(i) <= v, "v={v} i={i}");
            assert!(Histogram::bin_floor(i + 1) > v, "v={v} i={i}");
        }
    }

    #[test]
    fn time_weighted_average() {
        let mut g = TimeWeighted::new(SimTime::ZERO, 0.0);
        g.set(SimTime::from_secs(1), 10.0); // 0 for 1 s
        g.set(SimTime::from_secs(3), 0.0); // 10 for 2 s
        let avg = g.time_average(SimTime::from_secs(4)); // 0 for 1 s
        assert!((avg - 5.0).abs() < 1e-12, "avg={avg}");
        assert_eq!(g.max(), 10.0);
        assert_eq!(g.current(), 0.0);
    }

    #[test]
    fn time_weighted_add_tracks_depth() {
        let mut g = TimeWeighted::new(SimTime::ZERO, 0.0);
        g.add(SimTime::from_secs(1), 2.0);
        g.add(SimTime::from_secs(2), -1.0);
        assert_eq!(g.current(), 1.0);
        assert_eq!(g.max(), 2.0);
    }

    #[test]
    fn series_helpers() {
        let mut s = Series::new("rate");
        s.push(10.0, 54.0);
        s.push(50.0, 36.0);
        s.push(100.0, 2.0);
        assert_eq!(s.y_max(), Some(54.0));
        assert_eq!(s.first_x_below(10.0), Some(100.0));
        assert_eq!(s.first_x_below(1.0), None);
    }

    #[test]
    fn figure_table_renders_all_series() {
        let mut f = Figure::new("test", "x", "y");
        f.add_series("a").push(1.0, 2.0);
        f.add_series("b").push(1.0, 3.0);
        let t = f.to_table();
        assert!(t.contains("# test"));
        assert!(t.contains('a') && t.contains('b'));
        assert!(t.contains("2.000") && t.contains("3.000"));
    }
}
