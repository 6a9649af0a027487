//! Pieces every workload shares: the seeded input generator, nearest-rank
//! statistics, the correctness gate, the span recorder and a small JSON
//! writer.

use std::time::Instant;

use cusfft::ServeQos;
use fft::cplx::Cplx;
use gpu_sim::DeviceSpec;
use signal::{l1_error_per_coeff, support_recall};

/// SplitMix64: the benchmark's only source of randomness, so a seed fixes
/// every input.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5eed_0fc0_5ff7)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
    }
}

/// Splits `total` in proportion to `weights` by largest remainder. Each
/// op's mix is fixed by its size, so a seed changes only the order, the
/// signals and the permutations, and runs with different seeds stay
/// comparable.
pub fn quota(weights: &[f64], total: usize) -> Vec<usize> {
    let sum: f64 = weights.iter().sum();
    let exact: Vec<f64> = weights.iter().map(|w| w / sum * total as f64).collect();
    let mut counts: Vec<usize> = exact.iter().map(|x| x.floor() as usize).collect();
    let mut order: Vec<usize> = (0..weights.len()).collect();
    order.sort_by(|&a, &b| (exact[b] - exact[b].floor()).total_cmp(&(exact[a] - exact[a].floor())));
    let short = total - counts.iter().sum::<usize>();
    for &i in &order[..short] {
        counts[i] += 1;
    }
    counts
}

/// `n` evenly spaced values from `lo` to `hi`, both included.
pub fn evenly(lo: f64, hi: f64, n: usize) -> Vec<f64> {
    let steps = n.saturating_sub(1).max(1) as f64;
    (0..n).map(|i| lo + (hi - lo) * i as f64 / steps).collect()
}

/// Nearest-rank percentile of an ascending-sorted, non-empty slice — the
/// rule `cusfft::LatencyStats` uses, so the two can be compared exactly.
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    let len = sorted.len();
    let idx = ((len as f64) * q).ceil() as usize;
    sorted[idx.clamp(1, len) - 1]
}

pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(v: &[f64]) -> f64 {
    nearest_rank(&sorted(v.to_vec()), 0.5)
}

/// Minimum support recall for every response.
pub const MIN_RECALL: f64 = 0.99;
/// Per-coefficient L1 bound for full-QoS responses (the bound of the
/// repository's end-to-end tests). Degraded responses are not held to it.
pub const MAX_L1_FULL: f64 = 1e-3;
/// Largest share of a run's full-QoS responses allowed above the L1
/// bound. The sFFT is randomized: at the workloads' geometries about
/// 0.01-0.1% of noiseless signals draw permutations that leave one
/// estimate off by more than the bound, with every frequency found.
pub const MAX_L1_MISS_SHARE: f64 = 0.005;

/// Why a response failed the gate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Miss {
    /// Support recall at or below [`MIN_RECALL`].
    Recall(f64),
    /// Full-QoS L1 error at or above [`MAX_L1_FULL`].
    L1(f64),
}

/// The correctness gate: checks one returned spectrum against the ground
/// truth it was generated from. Returns the L1 error per coefficient.
pub fn gate(
    truth: &[(usize, Cplx)],
    recovered: &[(usize, Cplx)],
    qos: ServeQos,
) -> Result<f64, Miss> {
    let recall = support_recall(truth, recovered);
    if recall.is_nan() || recall <= MIN_RECALL {
        return Err(Miss::Recall(recall));
    }
    let l1 = l1_error_per_coeff(truth, recovered);
    if qos == ServeQos::Full && (l1.is_nan() || l1 >= MAX_L1_FULL) {
        return Err(Miss::L1(l1));
    }
    Ok(l1)
}

/// One recorded span: a call into a layer, timed on the host clock
/// relative to the tracer's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start: f64,
    pub end: f64,
}

/// Records spans around calls into layers when on; when off, `span` is a
/// plain call. Spans stay in memory until the op's results are read.
#[derive(Debug)]
pub struct Tracer {
    pub on: bool,
    origin: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start: self.origin.elapsed().as_secs_f64(),
            end: f64::NAN,
        });
        self.open.push(id);
        let r = f(self);
        self.open.pop();
        self.spans[id].end = self.origin.elapsed().as_secs_f64();
        r
    }

    /// Summed duration of the spans named `name` (seconds).
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end - s.start)
            .sum()
    }

    /// `(name, total seconds, self seconds)` per span name, in first-seen
    /// order. Self time is a span's duration minus what its children
    /// cover.
    pub fn self_times(&self) -> Vec<(&'static str, f64, f64)> {
        let mut child = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end - s.start;
            }
        }
        let mut out: Vec<(&'static str, f64, f64)> = Vec::new();
        for (s, c) in self.spans.iter().zip(&child) {
            let d = s.end - s.start;
            match out.iter_mut().find(|(n, _, _)| *n == s.name) {
                Some(e) => {
                    e.1 += d;
                    e.2 += d - c;
                }
                None => out.push((s.name, d, d - c)),
            }
        }
        out
    }
}

/// Peak resident memory of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Minimal JSON writer: enough for flat objects of numbers and strings.
pub struct Json;

impl Json {
    pub fn obj(fields: &[(&str, String)]) -> String {
        let body: Vec<String> = fields
            .iter()
            .map(|(k, v)| format!("{}: {v}", Json::str(k)))
            .collect();
        format!("{{{}}}", body.join(", "))
    }

    pub fn str(s: &str) -> String {
        let mut out = String::from("\"");
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }

    /// A finite number with all its digits (Rust's shortest round-trip
    /// form).
    pub fn num(x: f64) -> String {
        assert!(x.is_finite(), "metric values are finite");
        format!("{x:?}")
    }
}

/// The device-model figures results depend on, for the manifest.
pub fn spec_json(s: &DeviceSpec) -> String {
    Json::obj(&[
        ("name", Json::str(&s.name)),
        ("sm_count", s.sm_count.to_string()),
        ("clock_ghz", Json::num(s.clock_ghz)),
        ("mem_bandwidth", Json::num(s.mem_bandwidth)),
        ("global_mem_bytes", s.global_mem_bytes.to_string()),
        (
            "max_concurrent_kernels",
            s.max_concurrent_kernels.to_string(),
        ),
        ("pcie_bandwidth", Json::num(s.pcie_bandwidth)),
        ("pcie_latency_us", Json::num(s.pcie_latency_us)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_definition() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(nearest_rank(&v, 0.5), 2.0);
        assert_eq!(nearest_rank(&v, 0.99), 4.0);
        assert_eq!(nearest_rank(&v, 0.0), 1.0);
    }

    #[test]
    fn quota_splits_the_whole_total() {
        let q = quota(&[1.0, 0.5, 0.25], 10);
        assert_eq!(q.iter().sum::<usize>(), 10);
        assert!(q[0] >= q[1] && q[1] >= q[2]);
        assert_eq!(quota(&[1.0; 4], 20), vec![5; 4]);
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        t.span("op", |t| {
            t.span("child", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            })
        });
        let st = t.self_times();
        let op = st.iter().find(|s| s.0 == "op").expect("op span");
        let child = st.iter().find(|s| s.0 == "child").expect("child span");
        assert!((op.1 - op.2 - child.1).abs() < 1e-9);
        assert_eq!(child.1, child.2);
    }
}
