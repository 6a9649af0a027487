//! A deterministic metrics registry: counters, gauges, and log-linear
//! histograms, with Prometheus-style text exposition and a JSON snapshot.
//!
//! Everything here is plain data — no clocks, no atomics, no global
//! state. A registry is built from an already-deterministic report, so
//! rendering it twice (or on machines with different host-pool widths)
//! yields byte-identical output: families are stored in `BTreeMap`s keyed
//! by name and serialised label set, values are either integers or `f64`s
//! that came out of the deterministic simulation, and floats are printed
//! with Rust's shortest-roundtrip formatter.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Histogram bucket upper bounds: a 1-2-5 log-linear ladder over
/// `1 µs ..= 50 s`, in seconds. Chosen so that any simulated latency the
/// serving stack produces falls in a stable bucket regardless of the
/// worker/host-pool configuration that produced it; observations above
/// the last bound land in the implicit `+Inf` bucket.
pub const HIST_BOUNDS: [f64; 24] = [
    1e-6, 2e-6, 5e-6, 1e-5, 2e-5, 5e-5, 1e-4, 2e-4, 5e-4, 1e-3, 2e-3, 5e-3, 1e-2, 2e-2, 5e-2, 1e-1,
    2e-1, 5e-1, 1.0, 2.0, 5.0, 1e1, 2e1, 5e1,
];

/// A fixed-bucket histogram over [`HIST_BOUNDS`] (+ an `+Inf` bucket).
///
/// Quantiles are computed by nearest rank over the cumulative bucket
/// counts and reported as the bucket's upper bound — coarse, but exactly
/// reproducible: two runs that fill the same buckets report the same
/// quantiles, bit for bit.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Per-bucket counts; `counts[HIST_BOUNDS.len()]` is the `+Inf` bucket.
    pub counts: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: f64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: vec![0; HIST_BOUNDS.len() + 1],
            count: 0,
            sum: 0.0,
        }
    }
}

impl Histogram {
    /// Records one observation.
    pub fn observe(&mut self, v: f64) {
        let idx = HIST_BOUNDS
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(HIST_BOUNDS.len());
        self.counts[idx] += 1;
        self.count += 1;
        self.sum += v;
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    /// Nearest-rank quantile, reported as the upper bound of the bucket
    /// the rank falls in (`0.0` for an empty histogram; the last finite
    /// bound for ranks in the `+Inf` bucket).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((self.count as f64) * q).ceil() as u64;
        let rank = rank.clamp(1, self.count);
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return if i < HIST_BOUNDS.len() {
                    HIST_BOUNDS[i]
                } else {
                    HIST_BOUNDS[HIST_BOUNDS.len() - 1]
                };
            }
        }
        HIST_BOUNDS[HIST_BOUNDS.len() - 1]
    }
}

/// One sample value inside a family.
#[derive(Debug, Clone, PartialEq)]
pub enum Sample {
    /// Monotonic counter.
    Counter(u64),
    /// Point-in-time value.
    Gauge(f64),
    /// Distribution.
    Hist(Histogram),
}

/// Metric kind, for the `# TYPE` exposition line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Prometheus `counter`.
    Counter,
    /// Prometheus `gauge`.
    Gauge,
    /// Prometheus `histogram`.
    Histogram,
}

impl MetricKind {
    fn name(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// A metric family: one name + help + kind, many labelled samples.
#[derive(Debug, Clone)]
pub struct Family {
    /// Kind (all samples of a family share it).
    pub kind: MetricKind,
    /// Help text for `# HELP`.
    pub help: String,
    /// Samples keyed by their serialised label set (`{a="x",b="y"}` or
    /// `""` for no labels) — `BTreeMap` so exposition order is stable.
    pub samples: BTreeMap<String, Sample>,
}

/// The registry: metric families keyed by name.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    /// Families in name order.
    pub families: BTreeMap<String, Family>,
}

/// Serialises a label set as `{k1="v1",k2="v2"}` (empty string for no
/// labels). Label order is caller order — pass labels in a fixed order.
pub fn label_set(labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let mut s = String::from("{");
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "{k}=\"{v}\"");
    }
    s.push('}');
    s
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn family(&mut self, name: &str, kind: MetricKind, help: &str) -> &mut Family {
        self.families
            .entry(name.to_string())
            .or_insert_with(|| Family {
                kind,
                help: help.to_string(),
                samples: BTreeMap::new(),
            })
    }

    /// Adds `v` to the counter `name{labels}` (creating it at 0).
    pub fn counter_add(&mut self, name: &str, help: &str, labels: &[(&str, &str)], v: u64) {
        let fam = self.family(name, MetricKind::Counter, help);
        let entry = fam
            .samples
            .entry(label_set(labels))
            .or_insert(Sample::Counter(0));
        if let Sample::Counter(c) = entry {
            *c += v;
        }
    }

    /// Sets the gauge `name{labels}` to `v`.
    pub fn gauge_set(&mut self, name: &str, help: &str, labels: &[(&str, &str)], v: f64) {
        let fam = self.family(name, MetricKind::Gauge, help);
        fam.samples.insert(label_set(labels), Sample::Gauge(v));
    }

    /// Records one observation into the histogram `name{labels}`.
    pub fn observe(&mut self, name: &str, help: &str, labels: &[(&str, &str)], v: f64) {
        let fam = self.family(name, MetricKind::Histogram, help);
        let entry = fam
            .samples
            .entry(label_set(labels))
            .or_insert_with(|| Sample::Hist(Histogram::default()));
        if let Sample::Hist(h) = entry {
            h.observe(v);
        }
    }

    /// Merges a prebuilt histogram into `name{labels}`.
    pub fn observe_hist(
        &mut self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        hist: &Histogram,
    ) {
        let fam = self.family(name, MetricKind::Histogram, help);
        let entry = fam
            .samples
            .entry(label_set(labels))
            .or_insert_with(|| Sample::Hist(Histogram::default()));
        if let Sample::Hist(h) = entry {
            h.merge(hist);
        }
    }

    /// Looks up a sample by name and serialised label set.
    pub fn get(&self, name: &str, labels: &[(&str, &str)]) -> Option<&Sample> {
        self.families.get(name)?.samples.get(&label_set(labels))
    }

    /// Renders the Prometheus text exposition format (deterministic:
    /// families in name order, samples in label-set order).
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, fam) in &self.families {
            let _ = writeln!(out, "# HELP {name} {}", fam.help);
            let _ = writeln!(out, "# TYPE {name} {}", fam.kind.name());
            for (labels, sample) in &fam.samples {
                match sample {
                    Sample::Counter(c) => {
                        let _ = writeln!(out, "{name}{labels} {c}");
                    }
                    Sample::Gauge(v) => {
                        let _ = writeln!(out, "{name}{labels} {}", fmt_f64(*v));
                    }
                    Sample::Hist(h) => {
                        let mut cum = 0u64;
                        for (i, &c) in h.counts.iter().enumerate() {
                            cum += c;
                            let le = if i < HIST_BOUNDS.len() {
                                fmt_f64(HIST_BOUNDS[i])
                            } else {
                                "+Inf".to_string()
                            };
                            let _ = writeln!(
                                out,
                                "{name}_bucket{} {cum}",
                                with_label(labels, "le", &le)
                            );
                        }
                        let _ = writeln!(out, "{name}_sum{labels} {}", fmt_f64(h.sum));
                        let _ = writeln!(out, "{name}_count{labels} {}", h.count);
                    }
                }
            }
        }
        out
    }

    /// Renders a JSON snapshot of the registry (same ordering guarantees
    /// as the Prometheus exposition).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        for (fi, (name, fam)) in self.families.iter().enumerate() {
            if fi > 0 {
                out.push_str(",\n");
            }
            let _ = write!(
                out,
                "  {}: {{\"type\": {}, \"samples\": {{",
                json_str(name),
                json_str(fam.kind.name())
            );
            for (si, (labels, sample)) in fam.samples.iter().enumerate() {
                if si > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{}: ", json_str(labels));
                match sample {
                    Sample::Counter(c) => {
                        let _ = write!(out, "{c}");
                    }
                    Sample::Gauge(v) => {
                        let _ = write!(out, "{}", fmt_f64(*v));
                    }
                    Sample::Hist(h) => {
                        let _ = write!(
                            out,
                            "{{\"count\": {}, \"sum\": {}, \"buckets\": [",
                            h.count,
                            fmt_f64(h.sum)
                        );
                        for (i, &c) in h.counts.iter().enumerate() {
                            if i > 0 {
                                out.push(',');
                            }
                            let _ = write!(out, "{c}");
                        }
                        out.push_str("]}");
                    }
                }
            }
            out.push_str("}}");
        }
        out.push_str("\n}\n");
        out
    }
}

/// Appends one label to a serialised label set.
fn with_label(labels: &str, key: &str, value: &str) -> String {
    if labels.is_empty() {
        format!("{{{key}=\"{value}\"}}")
    } else {
        format!("{},{key}=\"{value}\"}}", &labels[..labels.len() - 1])
    }
}

/// Deterministic float formatting: integers without a fractional part,
/// everything else via Rust's shortest-roundtrip `Display` (stable across
/// platforms for the same bit pattern).
pub fn fmt_f64(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// JSON string literal with escaping.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_quantiles() {
        let mut h = Histogram::default();
        for _ in 0..9 {
            h.observe(1.5e-4); // bucket le=2e-4
        }
        h.observe(4.0); // bucket le=5
        assert_eq!(h.count, 10);
        assert_eq!(h.quantile(0.5), 2e-4);
        assert_eq!(h.quantile(0.9), 2e-4);
        assert_eq!(h.quantile(0.99), 5.0);
        // Overflow lands in +Inf and quantile saturates at the last bound.
        let mut o = Histogram::default();
        o.observe(1e9);
        assert_eq!(o.quantile(0.5), HIST_BOUNDS[HIST_BOUNDS.len() - 1]);
        assert_eq!(Histogram::default().quantile(0.5), 0.0);
    }

    #[test]
    fn exposition_is_sorted_and_stable() {
        let mut r = Registry::new();
        r.counter_add("b_total", "b", &[("x", "2")], 2);
        r.counter_add("b_total", "b", &[("x", "1")], 1);
        r.gauge_set("a_gauge", "a", &[], 0.25);
        let text = r.render_prometheus();
        let a = text.find("a_gauge 0.25").unwrap();
        let b1 = text.find("b_total{x=\"1\"} 1").unwrap();
        let b2 = text.find("b_total{x=\"2\"} 2").unwrap();
        assert!(a < b1 && b1 < b2);
        assert_eq!(text, r.clone().render_prometheus());
    }

    #[test]
    fn histogram_exposition_has_cumulative_buckets() {
        let mut r = Registry::new();
        r.observe("lat_seconds", "latency", &[("path", "gpu")], 1.5e-4);
        r.observe("lat_seconds", "latency", &[("path", "gpu")], 3e-4);
        let text = r.render_prometheus();
        assert!(text.contains("lat_seconds_bucket{path=\"gpu\",le=\"0.0002\"} 1"));
        assert!(text.contains("lat_seconds_bucket{path=\"gpu\",le=\"0.0005\"} 2"));
        assert!(text.contains("lat_seconds_bucket{path=\"gpu\",le=\"+Inf\"} 2"));
        assert!(text.contains("lat_seconds_count{path=\"gpu\"} 2"));
        let json = r.to_json();
        assert!(json.contains("\"lat_seconds\""));
        assert!(json.contains("\"count\": 2"));
    }
}
