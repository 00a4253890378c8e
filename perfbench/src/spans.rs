//! Reads a traced run back: span durations by label, and the message
//! counts the network layer stamped on the timeline.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use tfr_telemetry::{Event, EventKind, Trace, Tracer};

/// A tracer sized for one traced phase, and the trace handle on it.
pub fn tracer(lanes: usize, events_per_lane: usize) -> (Arc<Tracer>, Trace) {
    let tracer = Arc::new(Tracer::with_capacity(lanes, events_per_lane));
    let trace = Trace::attached(Arc::clone(&tracer));
    (tracer, trace)
}

/// Closed-span durations (ns) by label, each list ascending.
#[derive(Default)]
pub struct SpanTable {
    durations: BTreeMap<&'static str, Vec<u64>>,
}

impl SpanTable {
    /// Every span that closed in `events`.
    pub fn from_events(events: &[Event]) -> SpanTable {
        let mut open: HashMap<u64, (&'static str, u64)> = HashMap::new();
        let mut durations: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
        for e in events {
            match e.kind {
                EventKind::SpanStart { span, label, .. } => {
                    open.insert(span, (label, e.ts_ns));
                }
                EventKind::SpanEnd { span } => {
                    if let Some((label, start)) = open.remove(&span) {
                        durations
                            .entry(label)
                            .or_default()
                            .push(e.ts_ns.saturating_sub(start));
                    }
                }
                _ => {}
            }
        }
        for v in durations.values_mut() {
            v.sort_unstable();
        }
        SpanTable { durations }
    }

    /// Ascending durations of spans labelled `label` (empty if none).
    pub fn get(&self, label: &str) -> &[u64] {
        self.durations.get(label).map_or(&[], Vec::as_slice)
    }

    /// How many spans labelled `label` closed.
    pub fn count(&self, label: &str) -> u64 {
        self.get(label).len() as u64
    }

    /// Total ns covered by spans labelled `label`.
    pub fn total_ns(&self, label: &str) -> u64 {
        self.get(label).iter().sum()
    }

    /// The `q`-quantile of `label`'s durations, in µs.
    pub fn quantile_us(&self, label: &str, q: f64) -> f64 {
        crate::stats::quantile(self.get(label), q) / 1e3
    }
}

/// Events of kind matching `pred`, stamped at or before `until_ns`.
pub fn count(events: &[Event], until_ns: u64, pred: impl Fn(&Event) -> bool) -> u64 {
    events
        .iter()
        .filter(|e| e.ts_ns <= until_ns && pred(e))
        .count() as u64
}
