//! The benchmark's own span recorder. A traced run wraps every call
//! into a layer's public function in a span (layer, name, start, end,
//! parent, pass id), keeps the spans in memory, and writes them out as
//! a Chrome trace when the run ends. A layer's self time is its spans'
//! durations minus what their child spans cover, so the self times of
//! one pass plus the pass span's own remainder — `(unattributed)` —
//! add up to the pass wall exactly.
//!
//! The untraced run goes through the same call sites with the recorder
//! off: one branch per call, no clock reads.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// Layer name of the span that brackets one whole pass or request; its
/// self time is what no layer span accounts for.
pub const ROOT_LAYER: &str = "ledger";
pub const UNATTRIBUTED: &str = "(unattributed)";

#[derive(Clone, Debug, PartialEq)]
pub struct SpanRec {
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<u32>,
    /// Pass (batch) or round (serve) the span belongs to.
    pub pass: u32,
}

impl SpanRec {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    pass: u32,
    spans: Vec<SpanRec>,
    open: Vec<u32>,
}

/// Handle of an open span; `None` when the recorder is off.
pub type SpanId = Option<u32>;

impl Tracer {
    /// `epoch` is shared by every recorder of a run so their spans line
    /// up on one time axis.
    pub fn new(on: bool, epoch: Instant) -> Tracer {
        Tracer { on, epoch, pass: 0, spans: Vec::new(), open: Vec::new() }
    }

    pub fn off() -> Tracer {
        Tracer::new(false, Instant::now())
    }

    pub fn set_on(&mut self, on: bool) {
        assert!(self.open.is_empty(), "recorder toggled inside an open span");
        self.on = on;
    }

    pub fn set_pass(&mut self, pass: u32) {
        self.pass = pass;
    }

    pub fn begin(&mut self, layer: &'static str, name: &'static str) -> SpanId {
        if !self.on {
            return None;
        }
        let id = self.spans.len() as u32;
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(SpanRec {
            layer,
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            pass: self.pass,
        });
        self.open.push(id);
        Some(id)
    }

    pub fn end(&mut self, id: SpanId) {
        let Some(id) = id else { return };
        assert_eq!(self.open.pop(), Some(id), "spans must close innermost first");
        self.spans[id as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
    }

    /// Span around one call that records no spans of its own.
    pub fn call<T>(&mut self, layer: &'static str, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(layer, name);
        let out = f();
        self.end(id);
        out
    }

    pub fn spans(&self) -> &[SpanRec] {
        &self.spans
    }

    pub fn into_spans(self) -> Vec<SpanRec> {
        self.spans
    }
}

/// Self time of every span: its duration minus its direct children's.
pub fn self_times(spans: &[SpanRec]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(SpanRec::dur_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &mut own[parent as usize];
            *p = p.checked_sub(span.dur_ns()).expect("child span outlasts its parent");
        }
    }
    own
}

/// One pass's wall time split by layer.
#[derive(Clone, Debug, PartialEq)]
pub struct PassBreakdown {
    pub wall_ns: u64,
    /// Self time per layer; the root span's remainder is filed under
    /// [`UNATTRIBUTED`].
    pub by_layer: BTreeMap<&'static str, u64>,
}

impl PassBreakdown {
    pub fn layer_ns(&self, layer: &str) -> u64 {
        self.by_layer.get(layer).copied().unwrap_or(0)
    }
}

/// Split every root span (one per pass) into per-layer self times,
/// asserting that they add up to the root's wall time — the identity
/// the per-layer numbers rest on.
pub fn breakdowns(spans: &[SpanRec]) -> Vec<PassBreakdown> {
    let own = self_times(spans);
    // Root of each span, resolved parent-first (parents precede
    // children in recording order).
    let mut root_of: Vec<u32> = Vec::with_capacity(spans.len());
    for (i, span) in spans.iter().enumerate() {
        root_of.push(match span.parent {
            Some(p) => root_of[p as usize],
            None => i as u32,
        });
    }
    let mut out: BTreeMap<u32, PassBreakdown> = BTreeMap::new();
    for (i, span) in spans.iter().enumerate() {
        let root = &spans[root_of[i] as usize];
        assert_eq!(root.layer, ROOT_LAYER, "every span sits under a pass span");
        let b = out
            .entry(root_of[i])
            .or_insert_with(|| PassBreakdown { wall_ns: root.dur_ns(), by_layer: BTreeMap::new() });
        let layer = if span.parent.is_none() { UNATTRIBUTED } else { span.layer };
        *b.by_layer.entry(layer).or_insert(0) += own[i];
    }
    let out: Vec<PassBreakdown> = out.into_values().collect();
    for b in &out {
        let sum: u64 = b.by_layer.values().sum();
        assert_eq!(sum, b.wall_ns, "layer self times + (unattributed) must equal the pass wall");
    }
    out
}

/// Chrome-trace (`chrome://tracing`, Perfetto) rendering of the spans
/// of several recorders, one `tid` each. Long serve runs record one
/// span per request; the file keeps the first `cap` spans per recorder.
pub fn chrome_trace(recorders: &[&[SpanRec]], cap: usize) -> Json {
    let mut events = Vec::new();
    for (tid, spans) in recorders.iter().enumerate() {
        for span in spans.iter().take(cap) {
            events.push(Json::obj([
                ("name", Json::str(format!("{}.{}", span.layer, span.name))),
                ("cat", Json::str(span.layer)),
                ("ph", Json::str("X")),
                ("ts", Json::Num(span.start_ns as f64 / 1e3)),
                ("dur", Json::Num(span.dur_ns() as f64 / 1e3)),
                ("pid", Json::Num(1.0)),
                ("tid", Json::Num(tid as f64)),
                ("args", Json::obj([("pass", Json::Num(f64::from(span.pass)))])),
            ]));
        }
    }
    Json::Arr(events)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: &'static str, start: u64, end: u64, parent: Option<u32>, pass: u32) -> SpanRec {
        SpanRec { layer, name: "x", start_ns: start, end_ns: end, parent, pass }
    }

    #[test]
    fn self_time_is_span_minus_children_and_sums_to_the_wall() {
        // pass 0: root 0..100, relation 10..40 (with a nested detect
        // 20..30), repair 50..90. pass 1: root 200..260, detect 210..250.
        let spans = vec![
            span(ROOT_LAYER, 0, 100, None, 0),
            span("relation", 10, 40, Some(0), 0),
            span("detect", 20, 30, Some(1), 0),
            span("repair", 50, 90, Some(0), 0),
            span(ROOT_LAYER, 200, 260, None, 1),
            span("detect", 210, 250, Some(4), 1),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 10, 40, 20, 40]);
        let passes = breakdowns(&spans);
        assert_eq!(passes.len(), 2);
        assert_eq!(passes[0].wall_ns, 100);
        assert_eq!(passes[0].layer_ns("relation"), 20);
        assert_eq!(passes[0].layer_ns("detect"), 10);
        assert_eq!(passes[0].layer_ns("repair"), 40);
        assert_eq!(passes[0].layer_ns(UNATTRIBUTED), 30);
        assert_eq!(passes[0].by_layer.values().sum::<u64>(), passes[0].wall_ns);
        assert_eq!(passes[1].wall_ns, 60);
        assert_eq!(passes[1].layer_ns("detect"), 40);
        assert_eq!(passes[1].layer_ns(UNATTRIBUTED), 20);
    }

    #[test]
    fn recorder_nests_and_stays_silent_when_off() {
        let mut off = Tracer::off();
        let id = off.begin(ROOT_LAYER, "pass");
        assert_eq!(off.call("relation", "read", || 7), 7);
        off.end(id);
        assert!(off.spans().is_empty());

        let mut on = Tracer::new(true, Instant::now());
        on.set_pass(3);
        let root = on.begin(ROOT_LAYER, "pass");
        on.call("relation", "read", || std::hint::black_box(1));
        let outer = on.begin("repair", "batch");
        on.call("detect", "native", || std::hint::black_box(2));
        on.end(outer);
        on.end(root);
        let spans = on.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        assert!(spans.iter().all(|s| s.pass == 3 && s.end_ns >= s.start_ns));
        let passes = breakdowns(spans);
        assert_eq!(passes.len(), 1);
        assert_eq!(passes[0].by_layer.values().sum::<u64>(), passes[0].wall_ns);

        let trace = chrome_trace(&[spans], 3);
        let events = trace.as_arr().unwrap();
        assert_eq!(events.len(), 3, "capped");
        assert_eq!(events[1].get("name").and_then(Json::as_str), Some("relation.read"));
        assert_eq!(events[1].get("ph").and_then(Json::as_str), Some("X"));
    }
}
