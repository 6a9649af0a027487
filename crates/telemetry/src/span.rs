//! Structured spans over the simulated timeline.
//!
//! The serving layer stamps every enqueued op with an *attribution tag*
//! ([`gpu_sim::Op::tag`]) encoding which group/attempt produced it. This
//! module decodes those tags and folds the merged timeline into a
//! hierarchical span tree:
//!
//! ```text
//! serve (root)
//! ├── control                  admission/breaker ops (tag 0)
//! ├── group 0 …                one per plan-key group
//! │   ├── batch                the batched attempt
//! │   │   └── <op spans>       kernel / transfer / host-phase leaves
//! │   ├── retry j=1 attempt=1  per-request recovery attempts
//! │   ├── cpu_fallback j=1
//! │   └── hedge:batch          the speculative duplicate, if hedged
//! └── request 0 …              one per request, annotated with outcome
//! ```
//!
//! Span IDs are a pure hash of deterministic coordinates (span kind,
//! group index, request ordinal, op index) — never of wall-clock time or
//! memory addresses — so two runs of the same workload produce identical
//! trees regardless of worker count or host-pool width.

use gpu_sim::{Engine, Op, Schedule};

// ---------------------------------------------------------------------------
// Attribution tags
// ---------------------------------------------------------------------------

const KIND_SHIFT: u32 = 60;
const GID_SHIFT: u32 = 32;
const J_SHIFT: u32 = 16;
const ATTEMPT_SHIFT: u32 = 8;
const BACKEND_SHIFT: u32 = 1;
const BACKEND_MASK: u64 = 0x3;
const HEDGE_BIT: u64 = 1;

const KIND_BATCH: u64 = 1;
const KIND_RETRY: u64 = 2;
const KIND_FALLBACK: u64 = 3;

/// Backend code for control-plane ops (no backend executed them).
pub const BACKEND_CONTROL: u8 = 0;
/// Backend code for the simulated-GPU execution backend.
pub const BACKEND_GPU_SIM: u8 = 1;
/// Backend code for the CPU reference sFFT backend.
pub const BACKEND_SFFT_CPU: u8 = 2;
/// Backend code for the dense-FFT oracle backend.
pub const BACKEND_DENSE_FFT: u8 = 3;

/// Stable label for a backend code (the `backend:<kind>` telemetry
/// dimension). Unknown codes cannot occur: the tag field is two bits.
pub fn backend_label(code: u8) -> &'static str {
    match code & BACKEND_MASK as u8 {
        BACKEND_GPU_SIM => "gpu_sim",
        BACKEND_SFFT_CPU => "sfft_cpu",
        BACKEND_DENSE_FFT => "dense_fft",
        _ => "control",
    }
}

/// Tag for ops enqueued by a group's batched attempt on `backend`.
pub fn tag_batch(gid: usize, backend: u8, hedged: bool) -> u64 {
    (KIND_BATCH << KIND_SHIFT)
        | ((gid as u64) << GID_SHIFT)
        | ((u64::from(backend) & BACKEND_MASK) << BACKEND_SHIFT)
        | (u64::from(hedged) * HEDGE_BIT)
}

/// Tag for ops enqueued by an individual retry of request `j` (the
/// group-local member ordinal) on attempt `attempt` (1-based).
pub fn tag_retry(gid: usize, j: usize, attempt: u32, backend: u8, hedged: bool) -> u64 {
    (KIND_RETRY << KIND_SHIFT)
        | ((gid as u64) << GID_SHIFT)
        | (((j as u64) & 0xffff) << J_SHIFT)
        | ((u64::from(attempt) & 0xff) << ATTEMPT_SHIFT)
        | ((u64::from(backend) & BACKEND_MASK) << BACKEND_SHIFT)
        | (u64::from(hedged) * HEDGE_BIT)
}

/// Tag for ops enqueued by the fallback re-route of request `j` (the
/// degradation path runs on `backend` — ordinarily the CPU reference).
pub fn tag_fallback(gid: usize, j: usize, backend: u8, hedged: bool) -> u64 {
    (KIND_FALLBACK << KIND_SHIFT)
        | ((gid as u64) << GID_SHIFT)
        | (((j as u64) & 0xffff) << J_SHIFT)
        | ((u64::from(backend) & BACKEND_MASK) << BACKEND_SHIFT)
        | (u64::from(hedged) * HEDGE_BIT)
}

/// Decoded op attribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpAttribution {
    /// Untagged: control-plane work (admission, breaker) or pre-serve ops.
    Control,
    /// The group's batched attempt.
    Batch {
        /// Group index.
        gid: usize,
        /// Executing backend code (see [`backend_label`]).
        backend: u8,
        /// Speculative hedge duplicate?
        hedged: bool,
    },
    /// An individual retry.
    Retry {
        /// Group index.
        gid: usize,
        /// Group-local member ordinal.
        j: usize,
        /// 1-based attempt number.
        attempt: u32,
        /// Executing backend code (see [`backend_label`]).
        backend: u8,
        /// Speculative hedge duplicate?
        hedged: bool,
    },
    /// The fallback re-route path.
    Fallback {
        /// Group index.
        gid: usize,
        /// Group-local member ordinal.
        j: usize,
        /// Executing backend code (see [`backend_label`]).
        backend: u8,
        /// Speculative hedge duplicate?
        hedged: bool,
    },
}

impl OpAttribution {
    /// The backend code an op is attributed to ([`BACKEND_CONTROL`] for
    /// control-plane ops). Every op resolves to exactly one backend.
    pub fn backend(self) -> u8 {
        match self {
            OpAttribution::Control => BACKEND_CONTROL,
            OpAttribution::Batch { backend, .. }
            | OpAttribution::Retry { backend, .. }
            | OpAttribution::Fallback { backend, .. } => backend,
        }
    }
}

/// Decodes an [`gpu_sim::Op::tag`] value.
pub fn decode_tag(tag: u64) -> OpAttribution {
    let gid = ((tag >> GID_SHIFT) & 0x0fff_ffff) as usize;
    let j = ((tag >> J_SHIFT) & 0xffff) as usize;
    let attempt = ((tag >> ATTEMPT_SHIFT) & 0xff) as u32;
    let backend = ((tag >> BACKEND_SHIFT) & BACKEND_MASK) as u8;
    let hedged = tag & HEDGE_BIT != 0;
    match tag >> KIND_SHIFT {
        KIND_BATCH => OpAttribution::Batch {
            gid,
            backend,
            hedged,
        },
        KIND_RETRY => OpAttribution::Retry {
            gid,
            j,
            attempt,
            backend,
            hedged,
        },
        KIND_FALLBACK => OpAttribution::Fallback {
            gid,
            j,
            backend,
            hedged,
        },
        _ => OpAttribution::Control,
    }
}

/// Coarse category of a timeline op, derived from its label and engine.
/// Used as the Chrome trace `cat` field and for fault accounting.
pub fn op_category(label: &str, engine: Engine) -> &'static str {
    if label.starts_with("fault:") {
        "fault"
    } else if label.starts_with("breaker:") {
        "breaker"
    } else if label.starts_with("fleet:") {
        "fleet"
    } else if label.starts_with("shed:") {
        "admission"
    } else if label == "retry_backoff" || label == "cpu_fallback" {
        "recovery"
    } else {
        match engine {
            Engine::Pcie => "transfer",
            Engine::Host => "host",
            Engine::Device => "kernel",
        }
    }
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// Span role within the tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// The whole serve call.
    Root,
    /// Control-plane ops (admission, breaker).
    Control,
    /// One request's lifetime.
    Request,
    /// One plan-key group.
    Group,
    /// One execution attempt (batch / retry / fallback, hedged or not).
    Attempt,
    /// A device or transfer op leaf.
    Op,
    /// A host-side phase leaf (`Engine::Host` ops: backoffs, fallbacks).
    HostPhase,
}

impl SpanKind {
    fn code(self) -> u64 {
        match self {
            SpanKind::Root => 1,
            SpanKind::Control => 2,
            SpanKind::Request => 3,
            SpanKind::Group => 4,
            SpanKind::Attempt => 5,
            SpanKind::Op | SpanKind::HostPhase => 6,
        }
    }

    /// Short label for exports.
    pub fn label(self) -> &'static str {
        match self {
            SpanKind::Root => "root",
            SpanKind::Control => "control",
            SpanKind::Request => "request",
            SpanKind::Group => "group",
            SpanKind::Attempt => "attempt",
            SpanKind::Op => "op",
            SpanKind::HostPhase => "host_phase",
        }
    }
}

/// One span. Times are simulated seconds from the timeline origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Stable nonzero id (pure hash of deterministic coordinates).
    pub id: u64,
    /// Parent span id (`None` only for the root).
    pub parent: Option<u64>,
    /// Role.
    pub kind: SpanKind,
    /// Human-readable name.
    pub name: String,
    /// Start time.
    pub start: f64,
    /// End time (`>= start`).
    pub end: f64,
    /// Key/value annotations, in insertion order.
    pub attrs: Vec<(String, String)>,
    /// Timeline op index for leaf spans.
    pub op: Option<usize>,
}

/// The span tree, in deterministic pre-order-ish construction order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpanTree {
    /// All spans; `spans[0]` is the root.
    pub spans: Vec<Span>,
}

/// Group metadata handed to [`build_span_tree`] by the serving layer.
#[derive(Debug, Clone)]
pub struct GroupMeta {
    /// Group index.
    pub gid: usize,
    /// Display name for the group span.
    pub label: String,
    /// Request indices belonging to this group.
    pub members: Vec<usize>,
    /// Extra annotations (qos, short-circuit, …).
    pub attrs: Vec<(String, String)>,
}

/// Request metadata handed to [`build_span_tree`] by the serving layer.
#[derive(Debug, Clone)]
pub struct RequestMeta {
    /// Request index in submission order.
    pub index: usize,
    /// Outcome label (`done` / `failed` / `shed` / `deadline_exceeded`).
    pub outcome: String,
    /// Served path label, when a response exists.
    pub path: Option<String>,
    /// QoS tier label, when a response exists.
    pub qos: Option<String>,
    /// Arrival time (overload serving); `None` for batch serving.
    pub arrival: Option<f64>,
    /// Group index, when the request reached execution.
    pub gid: Option<usize>,
}

/// Stable span id: a splitmix64-style mix of deterministic coordinates.
fn span_id(kind: SpanKind, a: u64, b: u64, c: u64) -> u64 {
    let mut z = kind
        .code()
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ a.wrapping_mul(0xbf58_476d_1ce4_e5b9)
        ^ b.wrapping_mul(0x94d0_49bb_1331_11eb)
        ^ c.wrapping_mul(0xd6e8_feb8_6659_fd93);
    z ^= z >> 30;
    z = z.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z ^= z >> 27;
    z = z.wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    z | 1 // ids are nonzero
}

/// Attempt bucket key, ordered (hedged, kind, j, attempt) so hedge
/// duplicates sort after primaries and retries after the batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct AttemptKey {
    hedged: bool,
    kind: u64,
    j: usize,
    attempt: u32,
}

impl AttemptKey {
    fn of(attr: OpAttribution) -> Option<Self> {
        match attr {
            OpAttribution::Control => None,
            OpAttribution::Batch { hedged, .. } => Some(AttemptKey {
                hedged,
                kind: KIND_BATCH,
                j: 0,
                attempt: 0,
            }),
            OpAttribution::Retry {
                j,
                attempt,
                hedged,
                ..
            } => Some(AttemptKey {
                hedged,
                kind: KIND_RETRY,
                j,
                attempt,
            }),
            OpAttribution::Fallback { j, hedged, .. } => Some(AttemptKey {
                hedged,
                kind: KIND_FALLBACK,
                j,
                attempt: 0,
            }),
        }
    }

    fn name(&self) -> String {
        let prefix = if self.hedged { "hedge:" } else { "" };
        match self.kind {
            KIND_BATCH => format!("{prefix}batch"),
            KIND_RETRY => format!("{prefix}retry j={} attempt={}", self.j, self.attempt),
            _ => format!("{prefix}cpu_fallback j={}", self.j),
        }
    }

    fn packed(&self) -> u64 {
        (self.kind << KIND_SHIFT)
            | (((self.j as u64) & 0xffff) << J_SHIFT)
            | ((u64::from(self.attempt) & 0xff) << ATTEMPT_SHIFT)
            | (u64::from(self.hedged) * HEDGE_BIT)
    }
}

/// Builds the span tree for a merged timeline.
///
/// `ops`/`sched` are the merged op list and its schedule; `groups` and
/// `requests` carry serving-layer metadata the tags cannot. Groups that
/// produced no ops (breaker short-circuits) still get a zero-width span
/// so their requests have a parent to point at.
pub fn build_span_tree(
    ops: &[Op],
    sched: &Schedule,
    groups: &[GroupMeta],
    requests: &[RequestMeta],
) -> SpanTree {
    let root_id = span_id(SpanKind::Root, 0, 0, 0);
    let mut spans = vec![Span {
        id: root_id,
        parent: None,
        kind: SpanKind::Root,
        name: "serve".to_string(),
        start: 0.0,
        end: sched.makespan,
        attrs: vec![
            ("ops".to_string(), ops.len().to_string()),
            ("groups".to_string(), groups.len().to_string()),
            ("requests".to_string(), requests.len().to_string()),
        ],
        op: None,
    }];

    // Partition ops: control vs (gid, attempt-key) buckets. Vec-of-vecs
    // keyed by scan order keeps everything deterministic.
    type AttemptBuckets = Vec<(AttemptKey, Vec<usize>)>;
    let mut control_ops: Vec<usize> = Vec::new();
    let mut by_group: Vec<(usize, AttemptBuckets)> = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        match AttemptKey::of(decode_tag(op.tag)) {
            None => control_ops.push(i),
            Some(key) => {
                let gid = match decode_tag(op.tag) {
                    OpAttribution::Batch { gid, .. }
                    | OpAttribution::Retry { gid, .. }
                    | OpAttribution::Fallback { gid, .. } => gid,
                    OpAttribution::Control => unreachable!(),
                };
                let slot = match by_group.iter_mut().find(|(g, _)| *g == gid) {
                    Some(s) => s,
                    None => {
                        by_group.push((gid, Vec::new()));
                        by_group.last_mut().unwrap()
                    }
                };
                match slot.1.iter_mut().find(|(k, _)| *k == key) {
                    Some((_, v)) => v.push(i),
                    None => slot.1.push((key, vec![i])),
                }
            }
        }
    }
    by_group.sort_by_key(|(gid, _)| *gid);
    for (_, attempts) in &mut by_group {
        attempts.sort_by_key(|(k, _)| *k);
    }

    let bounds = |idxs: &[usize]| -> (f64, f64) {
        let start = idxs
            .iter()
            .map(|&i| sched.ops[i].start)
            .fold(f64::INFINITY, f64::min);
        let end = idxs.iter().map(|&i| sched.ops[i].end).fold(0.0, f64::max);
        (start, end)
    };

    let op_span = |i: usize, parent: u64| -> Span {
        let op = &ops[i];
        let kind = if op.engine == Engine::Host {
            SpanKind::HostPhase
        } else {
            SpanKind::Op
        };
        Span {
            id: span_id(kind, i as u64, 0, 0),
            parent: Some(parent),
            kind,
            name: op.label.clone(),
            start: sched.ops[i].start,
            end: sched.ops[i].end,
            attrs: vec![
                (
                    "cat".to_string(),
                    op_category(&op.label, op.engine).to_string(),
                ),
                (
                    "backend".to_string(),
                    backend_label(decode_tag(op.tag).backend()).to_string(),
                ),
                ("stream".to_string(), op.stream.0.to_string()),
            ],
            op: Some(i),
        }
    };

    // Control span: admission + breaker ops (untagged).
    if !control_ops.is_empty() {
        let (start, end) = bounds(&control_ops);
        let control_id = span_id(SpanKind::Control, 0, 0, 0);
        spans.push(Span {
            id: control_id,
            parent: Some(root_id),
            kind: SpanKind::Control,
            name: "control".to_string(),
            start,
            end,
            attrs: vec![("ops".to_string(), control_ops.len().to_string())],
            op: None,
        });
        for &i in &control_ops {
            spans.push(op_span(i, control_id));
        }
    }

    // Group spans (meta-declared groups first; tag-only gids appended).
    let mut group_span_ids: Vec<(usize, u64)> = Vec::new();
    let mut declared: Vec<usize> = groups.iter().map(|g| g.gid).collect();
    for (gid, _) in &by_group {
        if !declared.contains(gid) {
            declared.push(*gid);
        }
    }
    declared.sort_unstable();
    declared.dedup();
    for gid in declared {
        let meta = groups.iter().find(|g| g.gid == gid);
        let attempts = by_group
            .iter()
            .find(|(g, _)| *g == gid)
            .map(|(_, a)| a.as_slice())
            .unwrap_or(&[]);
        let all_ops: Vec<usize> = attempts.iter().flat_map(|(_, v)| v.iter().copied()).collect();
        let (start, end) = if all_ops.is_empty() {
            (0.0, 0.0)
        } else {
            bounds(&all_ops)
        };
        let gid_id = span_id(SpanKind::Group, gid as u64, 0, 0);
        group_span_ids.push((gid, gid_id));
        let mut attrs = vec![("gid".to_string(), gid.to_string())];
        if let Some(m) = meta {
            attrs.push((
                "members".to_string(),
                m.members
                    .iter()
                    .map(|j| j.to_string())
                    .collect::<Vec<_>>()
                    .join(" "),
            ));
            attrs.extend(m.attrs.iter().cloned());
        }
        spans.push(Span {
            id: gid_id,
            parent: Some(root_id),
            kind: SpanKind::Group,
            name: meta
                .map(|m| m.label.clone())
                .unwrap_or_else(|| format!("group {gid}")),
            start,
            end,
            attrs,
            op: None,
        });
        for (key, idxs) in attempts {
            let (astart, aend) = bounds(idxs);
            let attempt_id = span_id(SpanKind::Attempt, gid as u64, key.packed(), 0);
            spans.push(Span {
                id: attempt_id,
                parent: Some(gid_id),
                kind: SpanKind::Attempt,
                name: key.name(),
                start: astart,
                end: aend,
                attrs: vec![("ops".to_string(), idxs.len().to_string())],
                op: None,
            });
            for &i in idxs {
                spans.push(op_span(i, attempt_id));
            }
        }
    }

    // Request spans: mirror their group's bounds; rejected requests are
    // zero-width at their arrival time.
    for r in requests {
        let (start, end) = match r.gid.and_then(|g| {
            group_span_ids
                .iter()
                .find(|(gid, _)| *gid == g)
                .map(|&(gid, _)| gid)
        }) {
            Some(gid) => {
                let g = spans
                    .iter()
                    .find(|s| s.kind == SpanKind::Group && s.id == span_id(SpanKind::Group, gid as u64, 0, 0))
                    .expect("group span exists");
                (g.start, g.end)
            }
            None => {
                let t = r.arrival.unwrap_or(0.0);
                (t, t)
            }
        };
        let mut attrs = vec![("outcome".to_string(), r.outcome.clone())];
        if let Some(p) = &r.path {
            attrs.push(("path".to_string(), p.clone()));
        }
        if let Some(q) = &r.qos {
            attrs.push(("qos".to_string(), q.clone()));
        }
        if let Some(a) = r.arrival {
            attrs.push(("arrival".to_string(), crate::metrics::fmt_f64(a)));
        }
        if let Some(g) = r.gid {
            attrs.push(("gid".to_string(), g.to_string()));
        }
        spans.push(Span {
            id: span_id(SpanKind::Request, r.index as u64, 0, 0),
            parent: Some(root_id),
            kind: SpanKind::Request,
            name: format!("request {}", r.index),
            start,
            end,
            attrs,
            op: None,
        });
    }

    // The root must enclose everything (a rejected request can arrive
    // after the device makespan).
    let max_end = spans.iter().map(|s| s.end).fold(0.0, f64::max);
    spans[0].end = spans[0].end.max(max_end);

    SpanTree { spans }
}

impl SpanTree {
    /// The root span.
    pub fn root(&self) -> &Span {
        &self.spans[0]
    }

    /// Structural validation: ids are unique and nonzero, every non-root
    /// parent exists and is not a leaf, every op index in `0..num_ops`
    /// is referenced by exactly one leaf span, and every child's interval
    /// lies inside its parent's.
    pub fn validate(&self, num_ops: usize) -> Result<(), String> {
        if self.spans.is_empty() || self.spans[0].kind != SpanKind::Root {
            return Err("first span is not the root".to_string());
        }
        let mut ids: Vec<u64> = self.spans.iter().map(|s| s.id).collect();
        ids.sort_unstable();
        let before = ids.len();
        ids.dedup();
        if ids.len() != before || ids.contains(&0) {
            return Err("span ids are not unique and nonzero".to_string());
        }
        let mut covered = vec![0u32; num_ops];
        for s in &self.spans {
            if s.end < s.start {
                return Err(format!("span {} ends before it starts", s.name));
            }
            match s.parent {
                None => {
                    if s.kind != SpanKind::Root {
                        return Err(format!("non-root span {} has no parent", s.name));
                    }
                }
                Some(p) => {
                    let parent = self
                        .spans
                        .iter()
                        .find(|x| x.id == p)
                        .ok_or_else(|| format!("span {} has a dangling parent", s.name))?;
                    if parent.op.is_some() {
                        return Err(format!("span {} is parented to a leaf", s.name));
                    }
                    if s.start < parent.start - 1e-12 || s.end > parent.end + 1e-12 {
                        return Err(format!(
                            "span {} [{}, {}] escapes parent {} [{}, {}]",
                            s.name, s.start, s.end, parent.name, parent.start, parent.end
                        ));
                    }
                }
            }
            if let Some(i) = s.op {
                if i >= num_ops {
                    return Err(format!("span {} references op {i} out of range", s.name));
                }
                covered[i] += 1;
            }
        }
        for (i, &c) in covered.iter().enumerate() {
            if c != 1 {
                return Err(format!("op {i} covered by {c} leaf spans (want exactly 1)"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{schedule, StreamId};

    fn op(id: usize, stream: u32, dur: f64, label: &str, tag: u64) -> Op {
        let mut o = Op::new(id, StreamId(stream), Engine::Device, dur, label.to_string());
        o.tag = tag;
        o
    }

    #[test]
    fn tags_round_trip() {
        assert_eq!(
            decode_tag(tag_batch(7, BACKEND_GPU_SIM, false)),
            OpAttribution::Batch {
                gid: 7,
                backend: BACKEND_GPU_SIM,
                hedged: false
            }
        );
        assert_eq!(
            decode_tag(tag_retry(3, 2, 1, BACKEND_DENSE_FFT, true)),
            OpAttribution::Retry {
                gid: 3,
                j: 2,
                attempt: 1,
                backend: BACKEND_DENSE_FFT,
                hedged: true
            }
        );
        assert_eq!(
            decode_tag(tag_fallback(1, 4, BACKEND_SFFT_CPU, false)),
            OpAttribution::Fallback {
                gid: 1,
                j: 4,
                backend: BACKEND_SFFT_CPU,
                hedged: false
            }
        );
        assert_eq!(decode_tag(0), OpAttribution::Control);
        assert_eq!(decode_tag(0).backend(), BACKEND_CONTROL);
        assert_eq!(backend_label(BACKEND_GPU_SIM), "gpu_sim");
        assert_eq!(backend_label(BACKEND_SFFT_CPU), "sfft_cpu");
        assert_eq!(backend_label(BACKEND_DENSE_FFT), "dense_fft");
        assert_eq!(backend_label(BACKEND_CONTROL), "control");
    }

    #[test]
    fn tree_covers_every_op_and_validates() {
        let ops = vec![
            op(0, 0, 0.0, "breaker:closed", 0),
            op(1, 1, 1e-3, "exec", tag_batch(0, BACKEND_GPU_SIM, false)),
            op(
                2,
                1,
                1e-4,
                "retry_backoff",
                tag_retry(0, 1, 1, BACKEND_GPU_SIM, false),
            ),
            op(3, 2, 2e-3, "exec", tag_batch(1, BACKEND_GPU_SIM, true)),
        ];
        let sched = schedule(&ops, 32);
        let groups = vec![GroupMeta {
            gid: 0,
            label: "group 0 (n=1024)".to_string(),
            members: vec![0, 1],
            attrs: vec![("qos".to_string(), "full".to_string())],
        }];
        let requests = vec![
            RequestMeta {
                index: 0,
                outcome: "done".to_string(),
                path: Some("gpu".to_string()),
                qos: Some("full".to_string()),
                arrival: Some(0.0),
                gid: Some(0),
            },
            RequestMeta {
                index: 1,
                outcome: "shed".to_string(),
                path: None,
                qos: None,
                arrival: Some(5e-3),
                gid: None,
            },
        ];
        let tree = build_span_tree(&ops, &sched, &groups, &requests);
        tree.validate(ops.len()).unwrap();
        // Root encloses the late shed request.
        assert!(tree.root().end >= 5e-3);
        // Deterministic: building twice gives an identical tree.
        assert_eq!(tree, build_span_tree(&ops, &sched, &groups, &requests));
        // Group 1 exists from tags alone (no meta declared).
        assert!(tree
            .spans
            .iter()
            .any(|s| s.kind == SpanKind::Group && s.name == "group 1"));
        // The hedged batch attempt is named as such.
        assert!(tree
            .spans
            .iter()
            .any(|s| s.kind == SpanKind::Attempt && s.name == "hedge:batch"));
    }

    #[test]
    fn validate_rejects_uncovered_ops() {
        let ops = vec![op(0, 0, 1e-3, "exec", tag_batch(0, BACKEND_GPU_SIM, false))];
        let sched = schedule(&ops, 32);
        let tree = build_span_tree(&ops, &sched, &[], &[]);
        assert!(tree.validate(2).is_err()); // op 1 never appeared
        tree.validate(1).unwrap();
    }
}
