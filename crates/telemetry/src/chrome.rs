//! Chrome/Perfetto Trace Event export and validation.
//!
//! [`chrome_trace`] renders a merged timeline + span tree as Trace Event
//! JSON (the `{"traceEvents": [...]}` object form) loadable in
//! `chrome://tracing` and <https://ui.perfetto.dev>:
//!
//! * **pid 1** — the device timeline: one thread per (merged) stream,
//!   complete (`"X"`) events for timed ops, instant (`"i"`) events for
//!   zero-duration markers (faults, breaker transitions, sheds);
//! * **pid 2** — serve spans: one thread per group, nested group/attempt
//!   slices;
//! * **pid 3** — requests: one thread per request, with outcome/path/QoS
//!   annotations (rejected requests render as instants at arrival).
//!
//! Timestamps are simulated microseconds printed with a fixed three
//! decimals, so the emitted bytes are a pure function of the (already
//! deterministic) timeline. [`validate_chrome_trace`] re-parses an
//! emitted trace with the built-in JSON parser and checks Trace Event
//! schema invariants — required keys per phase and non-decreasing `ts`
//! per track — which is what CI runs against `results/trace.json`.

use std::fmt::Write as _;

use gpu_sim::{Op, Schedule};

use crate::json::{self, JsonValue};
use crate::metrics::json_str;
use crate::span::{op_category, Span, SpanKind, SpanTree};

/// Microseconds with fixed three decimals — monotone in the input (ties
/// stay ties), so per-track `ts` monotonicity survives formatting.
fn fmt_us(seconds: f64) -> String {
    format!("{:.3}", seconds * 1e6)
}

fn event_args(pairs: &[(String, String)]) -> String {
    let mut s = String::from("{");
    for (i, (k, v)) in pairs.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "{}: {}", json_str(k), json_str(v));
    }
    s.push('}');
    s
}

/// A non-op annotation rendered into the trace as an instant event on
/// the dedicated policy process (pid 4): breaker state transitions, SLO
/// burn-rate alerts — anything that explains the spans around it but
/// does not occupy a stream. Annotations on the same track are sorted by
/// `(ts, name)` before emission so per-track `ts` monotonicity (which
/// [`validate_chrome_trace`] enforces) holds by construction.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceAnnotation {
    /// Simulated-clock timestamp in seconds.
    pub ts: f64,
    /// Event name shown in the viewer.
    pub name: String,
    /// Category (`cat` field), e.g. `"breaker"` or `"slo"`; also picks
    /// the annotation thread it lands on.
    pub cat: String,
    /// Flat key/value args.
    pub args: Vec<(String, String)>,
}

/// Renders the trace. `ops`/`sched` is the merged timeline; `tree` the
/// span tree built over it (see [`crate::span::build_span_tree`]).
/// Equivalent to [`chrome_trace_annotated`] with no annotations, so
/// existing golden traces are byte-identical.
pub fn chrome_trace(ops: &[Op], sched: &Schedule, tree: &SpanTree) -> String {
    chrome_trace_annotated(ops, sched, tree, &[])
}

/// Renders the trace with policy annotations: everything
/// [`chrome_trace`] emits, plus one instant event per
/// [`TraceAnnotation`] on pid 4 ("policy"), one thread per category in
/// first-appearance order. With an empty `notes` slice the output is
/// byte-identical to [`chrome_trace`].
pub fn chrome_trace_annotated(
    ops: &[Op],
    sched: &Schedule,
    tree: &SpanTree,
    notes: &[TraceAnnotation],
) -> String {
    let mut events: Vec<String> = Vec::new();
    let meta = |pid: u32, tid: Option<u64>, what: &str, name: &str| -> String {
        let (ev, tid_field) = match tid {
            Some(t) => (what, format!("\"tid\": {t}, ")),
            None => (what, String::new()),
        };
        format!(
            "{{\"ph\": \"M\", \"pid\": {pid}, {tid_field}\"name\": \"{ev}\", \"args\": {{\"name\": {}}}}}",
            json_str(name)
        )
    };

    // --- process / thread metadata -------------------------------------
    events.push(meta(
        1,
        None,
        "process_name",
        "device timeline (merged streams)",
    ));
    events.push(meta(2, None, "process_name", "serve spans"));
    events.push(meta(3, None, "process_name", "requests"));
    // Annotation categories, one policy thread each, in first-appearance
    // order. Nothing is emitted when there are no annotations, keeping
    // annotation-free traces byte-identical to the pre-annotation writer.
    let mut note_cats: Vec<&str> = Vec::new();
    for n in notes {
        if !note_cats.contains(&n.cat.as_str()) {
            note_cats.push(&n.cat);
        }
    }
    if !notes.is_empty() {
        events.push(meta(4, None, "process_name", "policy decisions"));
        for (tid, cat) in note_cats.iter().enumerate() {
            events.push(meta(4, Some(tid as u64), "thread_name", cat));
        }
    }
    let mut streams: Vec<u32> = ops.iter().map(|o| o.stream.0).collect();
    streams.sort_unstable();
    streams.dedup();
    for &s in &streams {
        events.push(meta(
            1,
            Some(u64::from(s)),
            "thread_name",
            &format!("stream {s}"),
        ));
    }
    let group_spans: Vec<&Span> = tree
        .spans
        .iter()
        .filter(|s| s.kind == SpanKind::Group)
        .collect();
    for g in &group_spans {
        let gid = gid_of(g);
        events.push(meta(2, Some(gid), "thread_name", &g.name));
    }
    if tree.spans.iter().any(|s| s.kind == SpanKind::Control) {
        events.push(meta(2, Some(u64::MAX >> 1), "thread_name", "control"));
    }
    for r in tree.spans.iter().filter(|s| s.kind == SpanKind::Request) {
        let idx = req_index_of(r);
        events.push(meta(3, Some(idx), "thread_name", &r.name));
    }

    // --- pid 1: device timeline ----------------------------------------
    // Per stream, in schedule order (ops on one stream are serial).
    for &s in &streams {
        let mut idxs: Vec<usize> = (0..ops.len()).filter(|&i| ops[i].stream.0 == s).collect();
        idxs.sort_by(|&a, &b| {
            sched.ops[a]
                .start
                .partial_cmp(&sched.ops[b].start)
                .unwrap()
                .then(a.cmp(&b))
        });
        for i in idxs {
            let op = &ops[i];
            let cat = op_category(&op.label, op.engine);
            let args = event_args(&[
                ("op".to_string(), i.to_string()),
                ("tag".to_string(), format!("{:#x}", op.tag)),
            ]);
            if op.duration > 0.0 {
                events.push(format!(
                    "{{\"ph\": \"X\", \"pid\": 1, \"tid\": {s}, \"ts\": {}, \"dur\": {}, \"name\": {}, \"cat\": \"{cat}\", \"args\": {args}}}",
                    fmt_us(sched.ops[i].start),
                    fmt_us(op.duration),
                    json_str(&op.label),
                ));
            } else {
                events.push(format!(
                    "{{\"ph\": \"i\", \"pid\": 1, \"tid\": {s}, \"ts\": {}, \"s\": \"t\", \"name\": {}, \"cat\": \"{cat}\", \"args\": {args}}}",
                    fmt_us(sched.ops[i].start),
                    json_str(&op.label),
                ));
            }
        }
    }

    // --- pid 2: group / attempt spans ----------------------------------
    let control_tid = u64::MAX >> 1;
    let mut slices: Vec<(u64, &Span)> = Vec::new();
    for s in &tree.spans {
        match s.kind {
            SpanKind::Control => slices.push((control_tid, s)),
            SpanKind::Group => slices.push((gid_of(s), s)),
            SpanKind::Attempt => {
                // Parent group id carries the tid.
                if let Some(pg) = tree.spans.iter().find(|g| Some(g.id) == s.parent) {
                    slices.push((gid_of(pg), s));
                }
            }
            _ => {}
        }
    }
    // Per tid: outer slices first (start asc, end desc) so nesting works.
    slices.sort_by(|(ta, a), (tb, b)| {
        ta.cmp(tb)
            .then(a.start.partial_cmp(&b.start).unwrap())
            .then(b.end.partial_cmp(&a.end).unwrap())
    });
    for (tid, s) in slices {
        let args = event_args(&s.attrs);
        events.push(format!(
            "{{\"ph\": \"X\", \"pid\": 2, \"tid\": {tid}, \"ts\": {}, \"dur\": {}, \"name\": {}, \"cat\": \"{}\", \"args\": {args}}}",
            fmt_us(s.start),
            fmt_us(s.end - s.start),
            json_str(&s.name),
            s.kind.label(),
        ));
    }

    // --- pid 3: requests ------------------------------------------------
    for r in tree.spans.iter().filter(|s| s.kind == SpanKind::Request) {
        let tid = req_index_of(r);
        let args = event_args(&r.attrs);
        if r.end > r.start {
            events.push(format!(
                "{{\"ph\": \"X\", \"pid\": 3, \"tid\": {tid}, \"ts\": {}, \"dur\": {}, \"name\": {}, \"cat\": \"request\", \"args\": {args}}}",
                fmt_us(r.start),
                fmt_us(r.end - r.start),
                json_str(&r.name),
            ));
        } else {
            events.push(format!(
                "{{\"ph\": \"i\", \"pid\": 3, \"tid\": {tid}, \"ts\": {}, \"s\": \"t\", \"name\": {}, \"cat\": \"request\", \"args\": {args}}}",
                fmt_us(r.start),
                json_str(&r.name),
            ));
        }
    }

    // --- pid 4: policy annotations --------------------------------------
    // Per category (= track), sorted by (ts, name) so per-track ts is
    // non-decreasing regardless of producer order.
    for (tid, cat) in note_cats.iter().enumerate() {
        let mut on_track: Vec<&TraceAnnotation> = notes.iter().filter(|n| n.cat == *cat).collect();
        on_track.sort_by(|a, b| {
            a.ts.partial_cmp(&b.ts)
                .unwrap()
                .then_with(|| a.name.cmp(&b.name))
        });
        for n in on_track {
            let args = event_args(&n.args);
            events.push(format!(
                "{{\"ph\": \"i\", \"pid\": 4, \"tid\": {tid}, \"ts\": {}, \"s\": \"t\", \"name\": {}, \"cat\": {}, \"args\": {args}}}",
                fmt_us(n.ts),
                json_str(&n.name),
                json_str(cat),
            ));
        }
    }

    let mut out = String::from("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(e);
    }
    out.push_str("\n]}\n");
    out
}

fn gid_of(span: &Span) -> u64 {
    span.attrs
        .iter()
        .find(|(k, _)| k == "gid")
        .and_then(|(_, v)| v.parse().ok())
        .unwrap_or(0)
}

fn req_index_of(span: &Span) -> u64 {
    span.name
        .strip_prefix("request ")
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

/// Summary returned by [`validate_chrome_trace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceSummary {
    /// Total events (including metadata).
    pub events: usize,
    /// Distinct (pid, tid) tracks carrying timed events.
    pub tracks: usize,
}

/// Parses `trace` as JSON and checks Trace Event schema invariants:
///
/// * the top level is an object with a `traceEvents` array;
/// * every event is an object with string `ph`/`name` and numeric
///   `pid`/`tid`;
/// * non-metadata events have a numeric `ts`; `"X"` events additionally
///   have `dur >= 0`;
/// * within each (pid, tid) track, `ts` is non-decreasing in emission
///   order.
pub fn validate_chrome_trace(trace: &str) -> Result<TraceSummary, String> {
    let root = json::parse(trace)?;
    let obj = root.as_object().ok_or("top level is not an object")?;
    let events = obj
        .iter()
        .find(|(k, _)| k == "traceEvents")
        .and_then(|(_, v)| v.as_array())
        .ok_or("missing traceEvents array")?;

    let mut last_ts: Vec<((f64, f64), f64)> = Vec::new();
    let mut tracks = 0usize;
    for (i, ev) in events.iter().enumerate() {
        let eobj = ev
            .as_object()
            .ok_or_else(|| format!("event {i} is not an object"))?;
        let field = |name: &str| eobj.iter().find(|(k, _)| k == name).map(|(_, v)| v);
        let ph = field("ph")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("event {i}: missing ph"))?;
        field("name")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("event {i}: missing name"))?;
        let pid = field("pid")
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("event {i}: missing pid"))?;
        if ph == "M" {
            continue; // metadata: tid optional, no ts
        }
        let tid = field("tid")
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("event {i}: missing tid"))?;
        let ts = field("ts")
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("event {i}: missing ts"))?;
        if ph == "X" {
            let dur = field("dur")
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| format!("event {i}: X without dur"))?;
            if dur < 0.0 {
                return Err(format!("event {i}: negative dur"));
            }
        }
        match last_ts.iter_mut().find(|(k, _)| *k == (pid, tid)) {
            Some((_, prev)) => {
                if ts < *prev {
                    return Err(format!(
                        "event {i}: ts {ts} goes backwards on track ({pid}, {tid})"
                    ));
                }
                *prev = ts;
            }
            None => {
                last_ts.push(((pid, tid), ts));
                tracks += 1;
            }
        }
    }
    Ok(TraceSummary {
        events: events.len(),
        tracks,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{build_span_tree, tag_batch, BACKEND_GPU_SIM};
    use gpu_sim::{schedule, Engine, StreamId};

    #[test]
    fn emitted_trace_validates() {
        let mut ops = vec![
            Op::new(0, StreamId(0), Engine::Host, 0.0, "breaker:closed".into()),
            Op::new(1, StreamId(1), Engine::Device, 1e-3, "exec".into()),
            Op::new(2, StreamId(1), Engine::Pcie, 5e-4, "dtoh".into()),
        ];
        ops[1].tag = tag_batch(0, BACKEND_GPU_SIM, false);
        ops[2].tag = tag_batch(0, BACKEND_GPU_SIM, false);
        let sched = schedule(&ops, 32);
        let tree = build_span_tree(&ops, &sched, &[], &[]);
        let trace = chrome_trace(&ops, &sched, &tree);
        let summary = validate_chrome_trace(&trace).unwrap();
        assert!(summary.events > 0);
        assert!(summary.tracks >= 2);
        // Byte-determinism of the writer itself.
        assert_eq!(trace, chrome_trace(&ops, &sched, &tree));
    }

    #[test]
    fn annotated_trace_validates_and_empty_notes_change_nothing() {
        let ops = vec![Op::new(0, StreamId(1), Engine::Device, 1e-3, "exec".into())];
        let sched = schedule(&ops, 32);
        let tree = build_span_tree(&ops, &sched, &[], &[]);
        let plain = chrome_trace(&ops, &sched, &tree);
        assert_eq!(plain, chrome_trace_annotated(&ops, &sched, &tree, &[]));
        // Out-of-order annotations are sorted per track before emission.
        let notes = vec![
            TraceAnnotation {
                ts: 2e-3,
                name: "slo_alert".into(),
                cat: "slo".into(),
                args: vec![("window".into(), "fast".into())],
            },
            TraceAnnotation {
                ts: 1e-3,
                name: "breaker:closed->open".into(),
                cat: "breaker".into(),
                args: vec![],
            },
            TraceAnnotation {
                ts: 0.5e-3,
                name: "slo_alert".into(),
                cat: "slo".into(),
                args: vec![("window".into(), "slow".into())],
            },
        ];
        let annotated = chrome_trace_annotated(&ops, &sched, &tree, &notes);
        let summary = validate_chrome_trace(&annotated).unwrap();
        assert!(summary.events > validate_chrome_trace(&plain).unwrap().events);
        assert!(annotated.contains("\"policy decisions\""));
        assert!(annotated.contains("breaker:closed->open"));
    }

    #[test]
    fn validator_rejects_backwards_ts() {
        let bad = r#"{"traceEvents": [
            {"ph": "X", "pid": 1, "tid": 0, "ts": 5.0, "dur": 1.0, "name": "a"},
            {"ph": "X", "pid": 1, "tid": 0, "ts": 2.0, "dur": 1.0, "name": "b"}
        ]}"#;
        assert!(validate_chrome_trace(bad)
            .unwrap_err()
            .contains("backwards"));
        assert!(validate_chrome_trace("[]").is_err());
        assert!(validate_chrome_trace("{\"traceEvents\": 3}").is_err());
        assert!(validate_chrome_trace("not json").is_err());
    }
}
