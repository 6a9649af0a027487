//! A deterministic, causally-linked event log.
//!
//! The serving layer's policy flight recorder (`cusfft::audit`) needs a
//! structured log where every record carries a stable id, a simulated
//! timestamp, and a parent link forming a forest. This module holds the
//! generic half: [`Event`] / [`EventLog`] plus deterministic text and
//! JSON renderers and the forest validator. Ids are assigned densely in
//! append order, so two logs built from the same decision sequence are
//! bit-identical — the same contract the span and metrics layers keep.

use std::fmt::Write as _;

use crate::metrics::{fmt_f64, json_str};

/// One structured event: a named record with a simulated timestamp, an
/// optional parent link (ids are append-ordered, so `parent < id`
/// always), optional request/group coordinates, and flat string attrs.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Dense append-order id (the log index).
    pub id: u64,
    /// Causal parent, if any. `None` marks a forest root.
    pub parent: Option<u64>,
    /// Simulated-clock timestamp (seconds, or a logical ordinal on
    /// paths without a virtual clock — the producer documents which).
    pub ts: f64,
    /// Submitted request index this event belongs to, if any.
    pub request: Option<usize>,
    /// Plan-key group id this event belongs to, if any.
    pub gid: Option<usize>,
    /// Event kind name (snake_case, stable).
    pub name: String,
    /// Flat key/value payload, in producer order.
    pub attrs: Vec<(String, String)>,
}

impl Event {
    /// Renders the event as one deterministic JSON object (no trailing
    /// newline).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        let _ = write!(s, "\"id\": {}", self.id);
        match self.parent {
            Some(p) => {
                let _ = write!(s, ", \"parent\": {p}");
            }
            None => s.push_str(", \"parent\": null"),
        }
        let _ = write!(s, ", \"ts\": {}", fmt_f64(self.ts));
        if let Some(r) = self.request {
            let _ = write!(s, ", \"request\": {r}");
        }
        if let Some(g) = self.gid {
            let _ = write!(s, ", \"gid\": {g}");
        }
        let _ = write!(s, ", \"kind\": {}", json_str(&self.name));
        if !self.attrs.is_empty() {
            s.push_str(", \"attrs\": {");
            for (i, (k, v)) in self.attrs.iter().enumerate() {
                if i > 0 {
                    s.push_str(", ");
                }
                let _ = write!(s, "{}: {}", json_str(k), json_str(v));
            }
            s.push('}');
        }
        s.push('}');
        s
    }

    /// Renders the event as one deterministic text line (no newline):
    /// `#id [ts] kind(request=.., gid=..) key=value ... <- parent`.
    pub fn to_text(&self) -> String {
        let mut s = String::new();
        let _ = write!(s, "#{} [{}] {}", self.id, fmt_f64(self.ts), self.name);
        let mut coords = Vec::new();
        if let Some(r) = self.request {
            coords.push(format!("request={r}"));
        }
        if let Some(g) = self.gid {
            coords.push(format!("gid={g}"));
        }
        if !coords.is_empty() {
            let _ = write!(s, "({})", coords.join(", "));
        }
        for (k, v) in &self.attrs {
            let _ = write!(s, " {k}={v}");
        }
        match self.parent {
            Some(p) => {
                let _ = write!(s, " <- #{p}");
            }
            None => s.push_str(" <- root"),
        }
        s
    }
}

/// An append-only log of [`Event`]s with dense ids.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EventLog {
    /// Events in append (= id) order.
    pub events: Vec<Event>,
}

impl EventLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an event, assigning the next dense id. Panics if the
    /// parent link is not a strictly earlier id — that would break the
    /// forest contract every consumer relies on.
    #[allow(clippy::too_many_arguments)]
    pub fn push(
        &mut self,
        parent: Option<u64>,
        ts: f64,
        request: Option<usize>,
        gid: Option<usize>,
        name: impl Into<String>,
        attrs: Vec<(String, String)>,
    ) -> u64 {
        let id = self.events.len() as u64;
        if let Some(p) = parent {
            assert!(p < id, "event parent {p} must precede id {id}");
        }
        self.events.push(Event {
            id,
            parent,
            ts,
            request,
            gid,
            name: name.into(),
            attrs,
        });
        id
    }

    /// Validates the parent structure: ids are dense and append-ordered,
    /// every parent precedes its child, and walking parent links from
    /// any event terminates at a root satisfying `is_root`.
    pub fn validate_forest(&self, is_root: impl Fn(&Event) -> bool) -> Result<(), String> {
        for (i, e) in self.events.iter().enumerate() {
            if e.id != i as u64 {
                return Err(format!("event {i} carries id {}", e.id));
            }
            if let Some(p) = e.parent {
                if p >= e.id {
                    return Err(format!("event {} links forward to parent {p}", e.id));
                }
            }
        }
        for e in &self.events {
            let mut cur = e;
            // Dense ids bound the walk: each step strictly decreases.
            while let Some(p) = cur.parent {
                cur = &self.events[p as usize];
            }
            if !is_root(cur) {
                return Err(format!(
                    "event {} roots at non-root event {} ({})",
                    e.id, cur.id, cur.name
                ));
            }
        }
        Ok(())
    }

    /// Renders the whole log as a deterministic JSON array (one event
    /// per line, trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, e) in self.events.iter().enumerate() {
            out.push_str("  ");
            out.push_str(&e.to_json());
            if i + 1 < self.events.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("]\n");
        out
    }

    /// Renders the whole log as deterministic text, one event per line.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            out.push_str(&e.to_text());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_assigns_dense_ids_and_validates() {
        let mut log = EventLog::new();
        let root = log.push(None, 0.0, Some(0), None, "admitted", vec![]);
        let child = log.push(
            Some(root),
            1.0,
            Some(0),
            Some(2),
            "retry_attempt",
            vec![("attempt".into(), "1".into())],
        );
        assert_eq!(root, 0);
        assert_eq!(child, 1);
        log.validate_forest(|e| e.name == "admitted").unwrap();
        assert!(log.validate_forest(|e| e.name == "something_else").is_err());
    }

    #[test]
    fn renderers_are_deterministic() {
        let mut log = EventLog::new();
        log.push(
            None,
            0.5e-3,
            Some(3),
            None,
            "shed",
            vec![("depth".into(), "7".into())],
        );
        log.push(Some(0), 0.5e-3, Some(3), None, "terminal", vec![]);
        assert_eq!(log.to_json(), log.clone().to_json());
        assert_eq!(log.to_text(), log.clone().to_text());
        assert!(log.to_json().contains("\"kind\": \"shed\""));
        assert!(log
            .to_text()
            .contains("#1 [0.0005] terminal(request=3) <- #0"));
    }

    #[test]
    #[should_panic(expected = "must precede")]
    fn forward_parent_links_panic() {
        let mut log = EventLog::new();
        log.push(Some(5), 0.0, None, None, "bad", vec![]);
    }
}
