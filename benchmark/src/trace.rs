//! Spans kept in memory during a traced run and written out at its end.
//!
//! A span is `(name, start_ns, end_ns, parent, request_id)`. Spans of one
//! request share its `request_id`; a child names its parent by index. A
//! layer's self time is its span minus the part its children cover.

use crate::hist::Histogram;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent span in the same log.
    pub parent: Option<u32>,
    pub request_id: u64,
}

/// One thread's spans, timed against an epoch shared by the whole run.
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(epoch: Instant) -> SpanLog {
        SpanLog {
            epoch,
            spans: Vec::new(),
        }
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Record a finished span; returns its index for children to name.
    pub fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<u32>,
        request_id: u64,
    ) -> u32 {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            request_id,
        });
        (self.spans.len() - 1) as u32
    }

    /// Time `work` as a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        request_id: u64,
        work: impl FnOnce() -> T,
    ) -> T {
        let start = self.now_ns();
        let out = work();
        let end = self.now_ns();
        self.push(name, start, end, parent, request_id);
        out
    }

    /// Open a parent span whose end is filled in by [`SpanLog::close`].
    pub fn open(&mut self, name: &'static str, request_id: u64) -> u32 {
        let start = self.now_ns();
        self.push(name, start, start, None, request_id)
    }

    pub fn close(&mut self, index: u32) {
        self.spans[index as usize].end_ns = self.now_ns();
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Append another thread's spans, keeping parent indices valid.
    pub fn absorb(&mut self, other: SpanLog) {
        let shift = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut span| {
            span.parent = span.parent.map(|p| p + shift);
            span
        }));
    }

    /// Durations of every span called `name`.
    pub fn durations(&self, name: &str) -> Histogram {
        let mut hist = Histogram::new();
        for span in self.spans.iter().filter(|s| s.name == name) {
            hist.record(span.end_ns - span.start_ns);
        }
        hist
    }

    /// Self times of every span called `name`: its duration minus the part
    /// of that interval its direct children cover. Children of one parent
    /// never overlap here (one thread records them in sequence).
    pub fn self_times(&self, name: &str) -> Histogram {
        let mut covered = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                let p = &self.spans[parent as usize];
                let start = span.start_ns.max(p.start_ns);
                let end = span.end_ns.min(p.end_ns);
                covered[parent as usize] += end.saturating_sub(start);
            }
        }
        let mut hist = Histogram::new();
        for (span, covered) in self.spans.iter().zip(covered) {
            if span.name == name {
                hist.record((span.end_ns - span.start_ns).saturating_sub(covered));
            }
        }
        hist
    }

    /// The first `cap` spans as one JSON document. A parent is recorded
    /// before its children, so every parent index in the file points into
    /// the file.
    pub fn to_json(&self, workload: &str, seed: u64, cap: usize) -> String {
        let written = &self.spans[..self.spans.len().min(cap)];
        let mut out = String::with_capacity(128 + written.len() * 96);
        let _ = write!(
            out,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"spans_recorded\":{},\"fields\":[\"name\",\"start_ns\",\"end_ns\",\"parent\",\"request_id\"],\"spans\":[",
            self.spans.len()
        );
        for (i, span) in written.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n[\"{}\",{},{},",
                span.name, span.start_ns, span.end_ns
            );
            match span.parent {
                Some(parent) => {
                    let _ = write!(out, "{parent}");
                }
                None => out.push_str("null"),
            }
            let _ = write!(out, ",{}]", span.request_id);
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut log = SpanLog::new(Instant::now());
        // Durations under 128 ns sit in exact histogram buckets.
        let request = log.push("request", 1_000, 1_100, None, 7);
        log.push("decode", 1_010, 1_030, Some(request), 7);
        log.push("serve", 1_030, 1_090, Some(request), 7);
        let own = log.self_times("request");
        assert_eq!(own.len(), 1);
        assert_eq!(own.quantile(0.5), Some(20.0));
        assert_eq!(log.durations("serve").quantile(0.5), Some(60.0));
        // Leaves own all of their time.
        assert_eq!(log.self_times("decode").quantile(0.5), Some(20.0));
    }

    #[test]
    fn absorb_keeps_parents_and_json_is_well_formed() {
        let epoch = Instant::now();
        let mut a = SpanLog::new(epoch);
        a.push("x", 0, 10, None, 1);
        let mut b = SpanLog::new(epoch);
        let parent = b.push("request", 0, 50, None, 2);
        b.push("child", 5, 20, Some(parent), 2);
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
        let json = a.to_json("wire_select", 42, usize::MAX);
        assert!(json.starts_with("{\"workload\":\"wire_select\",\"seed\":42,\"spans_recorded\":3,"));
        assert!(json.contains("[\"child\",5,20,1,2]"));
        assert!(json.contains("[\"x\",0,10,null,1]"));
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        let capped = a.to_json("wire_select", 42, 2);
        assert!(capped.contains("\"spans_recorded\":3,") && !capped.contains("child"));
    }

    #[test]
    fn open_close_brackets_timed_children() {
        let mut log = SpanLog::new(Instant::now());
        let parent = log.open("request", 1);
        log.time("stage", Some(parent), 1, || std::hint::black_box(3 + 4));
        log.close(parent);
        let spans = log.spans();
        assert!(spans[0].start_ns <= spans[1].start_ns);
        assert!(spans[1].end_ns <= spans[0].end_ns);
    }
}
