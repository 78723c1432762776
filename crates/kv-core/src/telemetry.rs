//! The zero-dependency telemetry substrate: log-bucketed latency
//! histograms and a registry of named counters/histograms.
//!
//! Every duration that enters here was produced by [`node_rt`]'s clock
//! — virtual time on the simulator, wall-clock on the UDP runtime — at
//! the *same* instrumentation points ([`crate::ClientCore`],
//! [`crate::TwoPcEngine`]). Simulated runs therefore yield
//! deterministic, replayable telemetry: two same-seed chaos runs render
//! byte-identical snapshots, and that render joins the chaos harness's
//! byte-identity contract.
//!
//! Determinism rules (checked by the `determinism_taint` lint, which
//! treats `render`/`snapshot`/`metrics` entry points as roots):
//!
//! * storage is `BTreeMap`-ordered — no hash-order iteration can reach
//!   a snapshot;
//! * the render path is integer-only — no float formatting, whose
//!   shortest-representation rounding is a portability hazard;
//! * no clock is read here — callers pass [`Time`] in.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use node_rt::Time;

/// Sub-bucket resolution: each power-of-two octave is split into
/// `2^SUB_BITS` linear buckets, bounding the relative quantile error at
/// `2^-SUB_BITS` (6.25%).
const SUB_BITS: u32 = 4;
/// Sub-buckets per octave.
const SUB: u64 = 1 << SUB_BITS;

/// A log-bucketed latency histogram over `u64` nanoseconds.
///
/// Values below 16 ns land in exact buckets; above that, each
/// power-of-two octave is split into 16 linear sub-buckets, so any
/// reported quantile is within 6.25% of the true sample. Buckets are
/// stored sparsely (ordered map), which keeps empty and small
/// histograms cheap to clone — the DPOR explorer forks engines (and
/// their telemetry) per schedule branch.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LatencyHistogram {
    /// Sparse bucket counts, keyed by bucket index.
    buckets: BTreeMap<u32, u64>,
    /// Total samples.
    count: u64,
    /// Exact sum of all samples, in ns.
    sum_ns: u64,
    /// Exact minimum sample, in ns.
    min_ns: u64,
    /// Exact maximum sample, in ns.
    max_ns: u64,
}

/// The bucket index a value falls into.
fn bucket_index(v: u64) -> u32 {
    if v < SUB {
        return v as u32;
    }
    let msb = 63 - v.leading_zeros();
    let sub = ((v >> (msb - SUB_BITS)) & (SUB - 1)) as u32;
    (msb - SUB_BITS + 1) * SUB as u32 + sub
}

/// The largest value mapping to bucket `i` (quantiles report this
/// upper bound, so a quantile never under-states a sample).
fn bucket_upper(i: u32) -> u64 {
    let i = u64::from(i);
    if i < SUB {
        return i;
    }
    let octave = i / SUB;
    let sub = i % SUB;
    ((SUB + sub + 1) << (octave - 1)) - 1
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> LatencyHistogram {
        LatencyHistogram::default()
    }

    /// Record one duration.
    pub fn record(&mut self, d: Time) {
        let ns = d.as_ns();
        *self.buckets.entry(bucket_index(ns)).or_insert(0) += 1;
        if self.count == 0 {
            self.min_ns = ns;
            self.max_ns = ns;
        } else {
            self.min_ns = self.min_ns.min(ns);
            self.max_ns = self.max_ns.max(ns);
        }
        self.count += 1;
        self.sum_ns = self.sum_ns.saturating_add(ns);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples, in nanoseconds.
    pub fn sum_ns(&self) -> u64 {
        self.sum_ns
    }

    /// The exact smallest sample (zero when empty).
    pub fn min(&self) -> Time {
        if self.count == 0 {
            Time::ZERO
        } else {
            Time(self.min_ns)
        }
    }

    /// The exact largest sample (zero when empty).
    pub fn max(&self) -> Time {
        if self.count == 0 {
            Time::ZERO
        } else {
            Time(self.max_ns)
        }
    }

    /// Integer mean (zero when empty).
    pub fn mean(&self) -> Time {
        Time(self.sum_ns.checked_div(self.count).unwrap_or(0))
    }

    /// Fold another histogram into this one (bucket-wise add).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (&i, &n) in &other.buckets {
            *self.buckets.entry(i).or_insert(0) += n;
        }
        if other.count > 0 {
            if self.count == 0 {
                self.min_ns = other.min_ns;
                self.max_ns = other.max_ns;
            } else {
                self.min_ns = self.min_ns.min(other.min_ns);
                self.max_ns = self.max_ns.max(other.max_ns);
            }
        }
        self.count += other.count;
        self.sum_ns = self.sum_ns.saturating_add(other.sum_ns);
    }

    /// The `num/den` quantile (e.g. `quantile(99, 100)` for p99) as the
    /// upper bound of the bucket holding that rank — integer math only.
    /// The reported value is at most 6.25% above the true sample and
    /// never below it (clamped to the exact observed max). Zero when
    /// empty.
    pub fn quantile(&self, num: u64, den: u64) -> Time {
        if self.count == 0 || den == 0 {
            return Time::ZERO;
        }
        // ceil(count * num / den), clamped to [1, count].
        let rank =
            (self.count.saturating_mul(num).saturating_add(den - 1) / den).clamp(1, self.count);
        let mut seen = 0u64;
        for (&i, &n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return Time(bucket_upper(i).min(self.max_ns));
            }
        }
        Time(self.max_ns)
    }

    /// One byte-stable summary line: integer fields only, bucket order.
    pub fn render(&self, name: &str, out: &mut String) {
        let _ = write!(
            out,
            "hist {name} count={} sum_ns={} min_ns={} max_ns={}",
            self.count,
            self.sum_ns,
            self.min().as_ns(),
            self.max().as_ns()
        );
        for (label, num) in [("p50", 50), ("p99", 99), ("p999", 999)] {
            let den = if num > 100 { 1000 } else { 100 };
            let _ = write!(out, " {label}_ns={}", self.quantile(num, den).as_ns());
        }
        out.push('\n');
    }
}

/// A registry of named counters and latency histograms.
///
/// Both maps are ordered, so [`MetricsRegistry::render`] is a pure
/// function of the recorded values — the simulator's determinism
/// contract extends to telemetry. Merging registries (per-node →
/// cluster-wide) is bucket-wise/sum-wise.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    hists: BTreeMap<String, LatencyHistogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Add `n` to counter `name` (created at zero).
    pub fn add(&mut self, name: &str, n: u64) {
        match self.counters.get_mut(name) {
            Some(c) => *c += n,
            None => {
                self.counters.insert(name.to_owned(), n);
            }
        }
    }

    /// Record duration `d` into histogram `name` (created empty).
    pub fn record(&mut self, name: &str, d: Time) {
        match self.hists.get_mut(name) {
            Some(h) => h.record(d),
            None => {
                let mut h = LatencyHistogram::new();
                h.record(d);
                self.hists.insert(name.to_owned(), h);
            }
        }
    }

    /// Counter `name` (zero if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Histogram `name`, if any samples were recorded.
    pub fn hist(&self, name: &str) -> Option<&LatencyHistogram> {
        self.hists.get(name)
    }

    /// Fold `other` into this registry: counters and histogram buckets
    /// add.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (k, &v) in &other.counters {
            self.add(k, v);
        }
        for (k, h) in &other.hists {
            match self.hists.get_mut(k) {
                Some(mine) => mine.merge(h),
                None => {
                    self.hists.insert(k.clone(), h.clone());
                }
            }
        }
    }

    /// True if nothing was ever recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.hists.is_empty()
    }

    /// The byte-stable snapshot: one line per metric, name order within
    /// each section, integer fields only.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.counters {
            let _ = writeln!(out, "counter {k} {v}");
        }
        for (k, h) in &self.hists {
            h.render(k, &mut out);
        }
        out
    }
}

/// Telemetry configuration — a sibling of [`crate::EngineCfg`] in the
/// layered cluster config ([`crate::ClusterSpec`]). It has no settings:
/// every component always records.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TelemetryCfg;

/// One component's telemetry: a metrics registry.
///
/// [`crate::ClientCore`] and [`crate::TwoPcEngine`] each embed one;
/// cluster-level `metrics()` accessors merge the registries.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Telemetry {
    /// The named metrics.
    pub reg: MetricsRegistry,
}

impl Telemetry {
    /// Empty telemetry for a component deployed with `cfg`.
    pub fn new(_cfg: &TelemetryCfg) -> Telemetry {
        Telemetry::default()
    }

    /// Record a duration sample.
    pub fn record(&mut self, name: &str, d: Time) {
        self.reg.record(name, d);
    }

    /// Bump a counter.
    pub fn add(&mut self, name: &str, n: u64) {
        self.reg.add(name, n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_contain_their_values_and_stay_tight() {
        // Every value maps into a bucket whose upper bound is >= the
        // value and within 6.25% above it.
        let mut checked = 0u64;
        let mut v = 1u64;
        while v < u64::MAX / 3 {
            for probe in [v, v + 1, v * 3 - 1] {
                let i = bucket_index(probe);
                let hi = bucket_upper(i);
                assert!(hi >= probe, "upper({i}) = {hi} < {probe}");
                assert!(
                    hi - probe <= probe / (SUB - 1) + 1,
                    "bucket too wide at {probe}: upper {hi}"
                );
                if i > 0 {
                    assert!(
                        bucket_upper(i - 1) < probe,
                        "previous bucket already covers {probe}"
                    );
                }
                checked += 1;
            }
            v *= 3;
        }
        assert!(checked > 100);
    }

    #[test]
    fn quantile_bounds_and_monotonicity() {
        let mut h = LatencyHistogram::new();
        for us in 1..=1000u64 {
            h.record(Time::from_us(us));
        }
        assert_eq!(h.count(), 1000);
        let p50 = h.quantile(50, 100);
        let p99 = h.quantile(99, 100);
        let p999 = h.quantile(999, 1000);
        assert!(p50 <= p99 && p99 <= p999);
        // Within the 6.25% bucket error of the true values.
        assert!(
            p50 >= Time::from_us(500) && p50 <= Time::from_us(532),
            "{p50:?}"
        );
        assert!(
            p99 >= Time::from_us(990) && p99 <= Time::from_us(1052),
            "{p99:?}"
        );
        assert!(p999 <= h.max(), "quantile clamped to the observed max");
        assert_eq!(h.quantile(100, 100), h.max());
        assert_eq!(h.quantile(0, 100).as_ns(), bucket_upper(bucket_index(1000)));
    }

    #[test]
    fn merge_equals_recording_into_one() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut whole = LatencyHistogram::new();
        for i in 0..500u64 {
            let d = Time(i * i * 37 + 1);
            if i % 2 == 0 {
                a.record(d);
            } else {
                b.record(d);
            }
            whole.record(d);
        }
        a.merge(&b);
        assert_eq!(a, whole);
        assert_eq!(a.count(), 500);
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
        let mut ra = String::new();
        let mut rw = String::new();
        a.render("x", &mut ra);
        whole.render("x", &mut rw);
        assert_eq!(ra, rw);
    }

    #[test]
    fn empty_histogram_is_inert() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(99, 100), Time::ZERO);
        assert_eq!(h.min(), Time::ZERO);
        assert_eq!(h.max(), Time::ZERO);
        assert_eq!(h.mean(), Time::ZERO);
        let mut out = String::new();
        h.render("empty", &mut out);
        assert_eq!(
            out,
            "hist empty count=0 sum_ns=0 min_ns=0 max_ns=0 p50_ns=0 p99_ns=0 p999_ns=0\n"
        );
    }

    #[test]
    fn registry_render_is_byte_stable_and_ordered() {
        let build = || {
            let mut r = MetricsRegistry::new();
            r.add("z.last", 3);
            r.add("a.first", 1);
            r.record("lat", Time::from_us(10));
            r.record("lat", Time::from_us(20));
            r
        };
        let r1 = build();
        let r2 = build();
        assert_eq!(r1.render(), r2.render());
        let text = r1.render();
        let a = text.find("a.first").unwrap();
        let z = text.find("z.last").unwrap();
        assert!(a < z, "counters render in name order");
        assert!(text.contains("counter a.first 1"));
        assert!(text.contains("hist lat count=2"));
        assert!(
            !text.contains('.') || !text.contains("e-"),
            "integer-only render"
        );
    }

    #[test]
    fn registry_merge_adds_counters_and_buckets() {
        let mut a = MetricsRegistry::new();
        a.add("ops", 2);
        a.record("lat", Time::from_us(5));
        let mut b = MetricsRegistry::new();
        b.add("ops", 3);
        b.add("only_b", 1);
        b.record("lat", Time::from_us(500));
        a.merge(&b);
        assert_eq!(a.counter("ops"), 5);
        assert_eq!(a.counter("only_b"), 1);
        let h = a.hist("lat").unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), Time::from_us(500));
    }
}
