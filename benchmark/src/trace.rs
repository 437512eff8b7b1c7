//! The benchmark's own span recorder.
//!
//! Spans are recorded here, around the calls the benchmark makes into each
//! crate — never inside a crate. Each span has a name (`<layer>.<call>`,
//! the layer being the crate it enters), start and end in nanoseconds since
//! the recorder's epoch, the span that caused it, and the id of the op it
//! belongs to. Everything stays in memory until the run writes
//! [`Recorder::to_chrome`] out at its end.

use std::collections::BTreeMap;
use std::time::Instant;

use orpheus_observe::json::escape;

use crate::stats::percentile;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
    /// Chrome-trace track: 0 = the benchmark's thread, 1 = stages the
    /// server reported for a request (they ran on its worker thread).
    pub track: u32,
}

impl Span {
    /// Zero for a span the run ended without closing.
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle returned by [`Recorder::begin`]; `None` while recording is off.
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    on: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

/// Per-name aggregate of a finished trace.
#[derive(Debug, Clone)]
pub struct SpanSummary {
    pub name: String,
    pub count: usize,
    pub total_ns: u64,
    /// Span time not covered by child spans, summed over the spans.
    pub self_ns: u64,
    pub p50_ns: u64,
}

impl Recorder {
    pub fn new(on: bool) -> Self {
        Recorder {
            epoch: Instant::now(),
            on,
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Starts a new op: spans opened from now on carry its id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span whose parent is the innermost open span.
    pub fn begin(&mut self, name: &str) -> Open {
        if !self.on {
            return Open(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: 0,
            end_ns: 0,
            parent: self.stack.last().copied(),
            op: self.op,
            track: 0,
        });
        self.stack.push(id);
        // Stamp last, so the bookkeeping above is outside the span.
        self.spans[id].start_ns = self.ns(Instant::now());
        Open(Some(id))
    }

    /// Closes `open`, and with it any span opened inside it that is still
    /// open: a call that failed returned through `?` past its own `end`.
    pub fn end(&mut self, open: Open) {
        let now = self.ns(Instant::now());
        let Open(Some(id)) = open else { return };
        while let Some(top) = self.stack.pop() {
            self.spans[top].end_ns = now;
            if top == id {
                break;
            }
        }
    }

    /// Records a span from timestamps someone else took (the stages a
    /// `ServeReply` reports), as a child of the innermost open span.
    pub fn add(&mut self, name: &str, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: self.stack.last().copied(),
            op: self.op,
            track: 1,
        });
    }

    /// Self time per span: its duration minus the part of that interval its
    /// child spans cover (overlapping children are counted once).
    fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent].push((span.start_ns, span.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(span, kids)| {
                kids.sort_unstable();
                let mut covered = 0;
                let mut reach = span.start_ns;
                for &(start, end) in kids.iter() {
                    let start = start.max(reach);
                    let end = end.min(span.end_ns);
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
                span.duration_ns().saturating_sub(covered)
            })
            .collect()
    }

    pub fn summary(&self) -> Vec<SpanSummary> {
        let self_times = self.self_times();
        let mut by_name: BTreeMap<&str, (Vec<u64>, u64)> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(self_times) {
            let entry = by_name.entry(span.name.as_str()).or_default();
            entry.0.push(span.duration_ns());
            entry.1 += self_ns;
        }
        by_name
            .into_iter()
            .map(|(name, (mut durations, self_ns))| {
                durations.sort_unstable();
                SpanSummary {
                    name: name.to_string(),
                    count: durations.len(),
                    total_ns: durations.iter().sum(),
                    self_ns,
                    p50_ns: percentile(&durations, 50.0),
                }
            })
            .collect()
    }

    /// The trace as a Chrome trace-event array (load it in `chrome://tracing`
    /// or ui.perfetto.dev). `cat` is the layer; `args` carries the span's
    /// id, its parent's id and the op id.
    pub fn to_chrome(&self) -> String {
        let mut out = String::from("[\n");
        for (id, span) in self.spans.iter().enumerate() {
            if id > 0 {
                out.push_str(",\n");
            }
            let layer = span.name.split('.').next().unwrap_or("");
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":1,\"tid\":{},\"args\":{{\"id\":{},\"parent\":{},\"op\":{}}}}}",
                escape(&span.name),
                escape(layer),
                span.start_ns as f64 / 1e3,
                span.duration_ns() as f64 / 1e3,
                span.track,
                id,
                parent,
                span.op
            ));
        }
        out.push_str("\n]\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut rec = Recorder::new(true);
        let epoch = rec.epoch;
        let at = |ns: u64| epoch + std::time::Duration::from_nanos(ns);
        let outer = rec.begin("a.outer");
        rec.add("b.first", at(100), at(300));
        rec.add("b.second", at(200), at(400));
        rec.end(outer);
        rec.spans[0].start_ns = 0;
        rec.spans[0].end_ns = 1000;
        let selfs = rec.self_times();
        assert_eq!(selfs[0], 700);
        assert_eq!(rec.spans[1].parent, Some(0));
        assert_eq!(rec.summary().len(), 3);
    }

    #[test]
    fn end_closes_the_spans_a_failed_call_left_open() {
        let mut rec = Recorder::new(true);
        let op = rec.begin("bench.op");
        let _abandoned = rec.begin("core.load");
        rec.end(op);
        assert!(rec.stack.is_empty());
        assert!(rec.spans.iter().all(|s| s.end_ns >= s.start_ns));
        let next = rec.begin("bench.op");
        rec.end(next);
        assert_eq!(rec.spans[2].parent, None);
    }

    #[test]
    fn off_records_nothing() {
        let mut rec = Recorder::new(false);
        let open = rec.begin("a.b");
        rec.end(open);
        assert!(rec.spans.is_empty());
    }
}
