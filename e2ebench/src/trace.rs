//! In-memory spans recorded around the benchmark's own calls into each
//! layer's public functions. A span holds a name, start, end, parent
//! and op id; spans are kept per thread and written out at the end.
//!
//! A layer's *self time* is its span's duration minus the union of its
//! children's intervals. Children may overlap: the op span on rank 0
//! adopts rank 1's spans of the same op, which run concurrently with
//! rank 0's blocking receive.

use std::io::Write;
use std::time::Instant;

/// Op id of spans outside any op (set-up, checks).
pub const NO_OP: u64 = u64::MAX;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent in the same recorder (merged: in the merged
    /// list).
    pub parent: Option<usize>,
    pub op: u64,
    pub thread: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One thread's span recorder. Disabled recorders record nothing and
/// cost one branch per call.
pub struct Recorder {
    base: Instant,
    thread: u32,
    enabled: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Recorder {
    pub fn new(base: Instant, thread: u32, enabled: bool) -> Recorder {
        Recorder {
            base,
            thread,
            enabled,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Recorder::exit`].
    pub fn enter(&mut self, name: &'static str, op: u64) -> usize {
        if !self.enabled {
            return usize::MAX;
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            op,
            thread: self.thread,
        });
        self.stack.push(idx);
        idx
    }

    pub fn exit(&mut self, idx: usize) {
        if !self.enabled {
            return;
        }
        let now = self.now_ns();
        if let Some(s) = self.spans.get_mut(idx) {
            s.end_ns = now;
        }
        if self.stack.last() == Some(&idx) {
            self.stack.pop();
        }
    }

    /// Run `f` inside a leaf span.
    pub fn span<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        let idx = self.enter(name, op);
        let r = f();
        self.exit(idx);
        r
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Concatenate per-thread span lists, re-basing parent indices.
pub fn merge(lists: Vec<Vec<Span>>) -> Vec<Span> {
    let mut out = Vec::new();
    for list in lists {
        let offset = out.len();
        out.extend(list.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }
    out
}

/// Total length of the union of `intervals`, clipped to `[lo, hi]`.
pub fn union_len(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.retain(|&(s, e)| e > lo && s < hi && e > s);
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        let (s, e) = (s.max(lo), e.min(hi));
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Is `spans[j]` a child of `spans[i]`? Children are the spans whose
/// parent it is plus, for a root span of an op, the parentless spans of
/// the same op on other threads.
fn is_child(spans: &[Span], i: usize, j: usize) -> bool {
    let (me, s) = (&spans[i], &spans[j]);
    i != j
        && (s.parent == Some(i)
            || (me.parent.is_none()
                && s.parent.is_none()
                && s.thread != me.thread
                && s.op == me.op
                && me.op != NO_OP))
}

fn self_time_among(spans: &[Span], i: usize, candidates: impl Iterator<Item = usize>) -> u64 {
    let me = &spans[i];
    let children = candidates
        .filter(|&j| is_child(spans, i, j))
        .map(|j| (spans[j].start_ns, spans[j].end_ns))
        .collect();
    me.dur_ns() - union_len(children, me.start_ns, me.end_ns)
}

/// Self time of `spans[idx]`: its duration minus the union of its
/// children's intervals.
pub fn self_time_ns(spans: &[Span], idx: usize) -> u64 {
    self_time_among(spans, idx, 0..spans.len())
}

/// Self times in microseconds of every root span named `name` that
/// belongs to an op. Spans are grouped by op first, so this stays
/// linear in the number of spans.
pub fn root_self_times_us(spans: &[Span], name: &str) -> Vec<f64> {
    let mut by_op: std::collections::HashMap<u64, Vec<usize>> = Default::default();
    for (i, s) in spans.iter().enumerate() {
        by_op.entry(s.op).or_default().push(i);
    }
    spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == name && s.parent.is_none() && s.op != NO_OP)
        .map(|(i, s)| {
            let group = by_op[&s.op].iter().copied();
            self_time_among(spans, i, group) as f64 / 1e3
        })
        .collect()
}

/// Durations in microseconds of every span named `name` (optionally
/// on one thread only).
pub fn durations_us(spans: &[Span], name: &str, thread: Option<u32>) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name && thread.is_none_or(|t| s.thread == t))
        .map(|s| s.dur_ns() as f64 / 1e3)
        .collect()
}

/// Write spans as JSON lines.
pub fn write_jsonl(spans: &[Span], out: &mut impl Write) -> std::io::Result<()> {
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let op = if s.op == NO_OP {
            "null".to_string()
        } else {
            s.op.to_string()
        };
        writeln!(
            out,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op\":{},\"thread\":{}}}",
            s.name, s.start_ns, s.end_ns, parent, op, s.thread
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, s: u64, e: u64, parent: Option<usize>, op: u64, t: u32) -> Span {
        Span {
            name,
            start_ns: s,
            end_ns: e,
            parent,
            op,
            thread: t,
        }
    }

    #[test]
    fn union_merges_overlaps_and_clips() {
        assert_eq!(union_len(vec![(0, 10), (5, 15), (20, 30)], 0, 100), 25);
        assert_eq!(union_len(vec![(0, 10), (2, 3)], 0, 100), 10);
        assert_eq!(union_len(vec![(0, 50)], 10, 20), 10);
        assert_eq!(union_len(vec![(30, 40)], 0, 20), 0);
        assert_eq!(union_len(vec![], 0, 20), 0);
        assert_eq!(union_len(vec![(0, 10), (10, 20)], 0, 100), 20);
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        // op [0, 100] on thread 0: send [0, 10], recv [10, 100].
        // Thread 1's spans of the same op overlap the recv entirely.
        let spans = vec![
            span("op", 0, 100, None, 7, 0),
            span("send", 0, 10, Some(0), 7, 0),
            span("recv", 10, 90, Some(0), 7, 0),
            span("recv", 5, 40, None, 7, 1),
            span("send", 40, 60, None, 7, 1),
            // Another op's span on thread 1 is not a child.
            span("recv", 90, 100, None, 8, 1),
        ];
        assert_eq!(self_time_ns(&spans, 0), 10);
        assert_eq!(root_self_times_us(&spans, "op"), vec![0.01]);
        // A leaf's self time is its duration.
        assert_eq!(self_time_ns(&spans, 2), 80);
    }

    #[test]
    fn recorder_nests_and_merge_rebases_parents() {
        let base = Instant::now();
        let mut a = Recorder::new(base, 0, true);
        let op = a.enter("op", 1);
        a.span("send", 1, || ());
        a.exit(op);
        let mut b = Recorder::new(base, 1, true);
        let op2 = b.enter("op", 2);
        b.span("recv", 2, || ());
        b.exit(op2);
        let all = merge(vec![a.into_spans(), b.into_spans()]);
        assert_eq!(all.len(), 4);
        assert_eq!(all[1].parent, Some(0));
        assert_eq!(all[3].parent, Some(2));
        assert!(all.iter().all(|s| s.end_ns >= s.start_ns));
        let mut off = Recorder::new(base, 0, false);
        let i = off.enter("op", 1);
        off.exit(i);
        assert!(off.into_spans().is_empty());
    }

    #[test]
    fn jsonl_has_one_line_per_span() {
        let spans = vec![
            span("op", 1, 2, None, NO_OP, 0),
            span("x", 1, 2, Some(0), 3, 1),
        ];
        let mut buf = Vec::new();
        write_jsonl(&spans, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("\"parent\":null,\"op\":null"));
        assert!(text.contains("\"parent\":0,\"op\":3"));
    }
}
