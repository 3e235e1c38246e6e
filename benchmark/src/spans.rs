//! Span recorder for traced runs.
//!
//! A traced run wraps every call into a layer in a span: a name, a start,
//! an end and the span that was open when it began (its parent). Spans are
//! kept in memory, one recorder per thread, and summarised when the run
//! ends. A span's self time is its duration minus the part of it that its
//! children cover, so nested spans are never counted twice.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span; times are seconds since the recorder's origin.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    /// Index of the enclosing span in the same list.
    pub parent: Option<usize>,
}

impl Span {
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }
}

/// Per-thread span recorder. A disabled recorder costs one branch per
/// span, so untraced runs can pass one through the same code.
pub struct Recorder {
    origin: Instant,
    enabled: bool,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Recorder {
    /// A recording recorder; threads of one run share `origin`.
    pub fn new(origin: Instant) -> Self {
        Recorder { origin, enabled: true, spans: RefCell::default(), open: RefCell::default() }
    }

    /// A recorder that records nothing.
    pub fn off() -> Self {
        Recorder { enabled: false, ..Recorder::new(Instant::now()) }
    }

    /// Seconds since the origin.
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Opens a span that closes when the guard drops.
    pub fn span(&self, name: &'static str) -> Guard<'_> {
        if !self.enabled {
            return Guard { rec: self, idx: None };
        }
        let mut spans = self.spans.borrow_mut();
        let parent = self.open.borrow().last().copied();
        let start = self.now();
        spans.push(Span { name, start, end: start, parent });
        let idx = spans.len() - 1;
        self.open.borrow_mut().push(idx);
        Guard { rec: self, idx: Some(idx) }
    }

    /// The closed spans, in start order.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner()
    }
}

/// Closes its span on drop.
pub struct Guard<'a> {
    rec: &'a Recorder,
    idx: Option<usize>,
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        if let Some(idx) = self.idx {
            self.rec.spans.borrow_mut()[idx].end = self.rec.now();
            self.rec.open.borrow_mut().pop();
        }
    }
}

/// Concatenates per-thread span lists, re-basing parent indices.
pub fn merge(lists: Vec<Vec<Span>>) -> Vec<Span> {
    let mut out: Vec<Span> = Vec::new();
    for list in lists {
        let base = out.len();
        out.extend(list.into_iter().map(|s| Span { parent: s.parent.map(|p| p + base), ..s }));
    }
    out
}

/// Total length of the union of `intervals`, each clipped to `[lo, hi]`.
fn union_len(mut intervals: Vec<(f64, f64)>, lo: f64, hi: f64) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (s, e) in intervals {
        let (s, e) = (s.max(lo), e.min(hi));
        if e <= s {
            continue;
        }
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map_or(0.0, |(cs, ce)| ce - cs)
}

/// Self time of every span: its duration minus the union of its
/// children's intervals.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, kids)| (s.secs() - union_len(kids, s.start, s.end)).max(0.0))
        .collect()
}

/// Self time per span name, summed over the list.
pub fn self_seconds(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (s, self_s) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.name).or_default() += self_s;
    }
    out
}

/// Share of the window `[lo, hi]` covered by at least one top-level span.
pub fn covered_frac(spans: &[Span], lo: f64, hi: f64) -> f64 {
    let top = spans.iter().filter(|s| s.parent.is_none()).map(|s| (s.start, s.end)).collect();
    union_len(top, lo, hi) / (hi - lo)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span { name, start, end, parent }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Parent 0..10 with children 1..4 and 3..6 (overlapping: union 5)
        // and a grandchild inside the first child.
        let spans = vec![
            span("outer", 0.0, 10.0, None),
            span("a", 1.0, 4.0, Some(0)),
            span("b", 3.0, 6.0, Some(0)),
            span("leaf", 2.0, 3.0, Some(1)),
        ];
        let st = self_times(&spans);
        assert_eq!(st, vec![5.0, 2.0, 3.0, 1.0]);
        let by_name = self_seconds(&spans);
        assert_eq!((by_name["outer"], by_name["leaf"]), (5.0, 1.0));
    }

    #[test]
    fn coverage_counts_top_level_spans_once_within_the_window() {
        let spans = vec![
            span("x", 0.0, 2.0, None),
            span("y", 1.0, 3.0, None),
            span("child", 1.5, 1.6, Some(0)),
            span("z", 6.0, 12.0, None),
        ];
        // Window 0..10: union of top-level = [0,3] + [6,10] = 7.
        assert!((covered_frac(&spans, 0.0, 10.0) - 0.7).abs() < 1e-12);
    }

    #[test]
    fn recorder_nests_and_merge_rebases_parents() {
        let origin = Instant::now();
        let rec = Recorder::new(origin);
        {
            let _outer = rec.span("outer");
            let _inner = rec.span("inner");
        }
        drop(rec.span("after"));
        let a = rec.into_spans();
        assert_eq!(a.len(), 3);
        assert_eq!(a[1].parent, Some(0));
        assert_eq!(a[2].parent, None);
        assert!(a.iter().all(|s| s.end >= s.start));
        let merged = merge(vec![a.clone(), a]);
        assert_eq!(merged[4].parent, Some(3));
        let off = Recorder::off();
        drop(off.span("ignored"));
        assert!(off.into_spans().is_empty());
    }
}
