//! In-memory spans recorded around calls into each layer, folded into
//! self times and written out as Chrome trace-event JSON.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// One timed call: `[start, end)` in nanoseconds since the process
/// epoch, the enclosing span (an index into the same list), the point it
/// belongs to and the thread that ran it.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
    pub point: Option<usize>,
    pub tid: usize,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

/// Nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// A small dense id for the calling thread (0 for the first thread to ask).
pub fn thread_id() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local!(static ID: Cell<Option<usize>> = const { Cell::new(None) });
    ID.with(|id| match id.get() {
        Some(i) => i,
        None => {
            let i = NEXT.fetch_add(1, Ordering::Relaxed);
            id.set(Some(i));
            i
        }
    })
}

/// Collects the spans of one thread's work. A disabled recorder still
/// runs the timed closures but keeps nothing.
#[derive(Debug, Default)]
pub struct Recorder {
    on: bool,
    point: Option<usize>,
    open: Vec<usize>,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new(on: bool) -> Self {
        Recorder {
            on,
            ..Recorder::default()
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// A recorder whose spans all carry `point`.
    pub fn for_point(on: bool, point: usize) -> Self {
        Recorder {
            on,
            point: Some(point),
            ..Recorder::default()
        }
    }

    /// Run `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<R>(&mut self, name: impl Into<String>, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name: name.into(),
            start: now_ns(),
            end: 0,
            parent: self.open.last().copied(),
            point: self.point,
            tid: thread_id(),
        });
        self.open.push(idx);
        let r = f(self);
        self.open.pop();
        self.spans[idx].end = now_ns();
        r
    }

    /// Append another recorder's spans (e.g. one pool point's), keeping
    /// their parent links and nesting their roots under the innermost
    /// open span here.
    pub fn absorb(&mut self, spans: Vec<Span>) {
        let base = self.spans.len();
        let root_parent = self.open.last().copied();
        self.spans.extend(spans.into_iter().map(|mut s| {
            s.parent = match s.parent {
                Some(p) => Some(p + base),
                None => root_parent,
            };
            s
        }));
    }
}

/// Self time per span name, in seconds: each span's duration minus the
/// part of its interval covered by its own children. Spans of other
/// threads that merely overlap in time are not children and are not
/// subtracted.
pub fn self_times(spans: &[Span]) -> BTreeMap<String, f64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    let mut out = BTreeMap::new();
    for (s, kids) in spans.iter().zip(children.iter_mut()) {
        let covered = union_within(kids, s.start, s.end);
        *out.entry(s.name.clone()).or_insert(0.0) += (s.dur() - covered) as f64 / 1e9;
    }
    out
}

/// Total length of the union of `intervals`, clipped to `[lo, hi)`.
fn union_within(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(lo), b.min(hi));
        if a >= b {
            continue;
        }
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

/// Chrome trace-event JSON ("X" complete events, microseconds).
pub fn chrome_json(spans: &[Span]) -> String {
    let mut s = String::from("{\"traceEvents\":[\n");
    for (i, sp) in spans.iter().enumerate() {
        let sep = if i + 1 == spans.len() { "" } else { "," };
        let point = sp.point.map_or("null".to_string(), |p| p.to_string());
        let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
        s.push_str(&format!(
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"span\":{i},\"parent\":{parent},\"point\":{point}}}}}{sep}\n",
            sp.name,
            sp.tid,
            sp.start as f64 / 1e3,
            sp.dur() as f64 / 1e3,
        ));
    }
    s.push_str("]}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: u64, end: u64, parent: Option<usize>, tid: usize) -> Span {
        Span {
            name: name.into(),
            start,
            end,
            parent,
            point: None,
            tid,
        }
    }

    #[test]
    fn nested_children_are_subtracted_once() {
        // point [0,100) with children run [10,60) and reduce [50,80)
        // (overlapping, so their union is 70) and a grandchild inside run.
        let spans = vec![
            span("point", 0, 100, None, 0),
            span("run", 10, 60, Some(0), 0),
            span("reduce", 50, 80, Some(0), 0),
            span("inner", 20, 30, Some(1), 0),
        ];
        let t = self_times(&spans);
        assert!((t["point"] - 30e-9).abs() < 1e-15);
        assert!((t["run"] - 40e-9).abs() < 1e-15);
        assert!((t["reduce"] - 30e-9).abs() < 1e-15);
        assert!((t["inner"] - 10e-9).abs() < 1e-15);
    }

    #[test]
    fn concurrent_spans_of_other_workers_do_not_count() {
        // Two workers' points overlap in time; each has one child.
        let spans = vec![
            span("point", 0, 100, None, 0),
            span("point", 20, 120, None, 1),
            span("run", 10, 90, Some(0), 0),
            span("run", 30, 110, Some(1), 1),
        ];
        let t = self_times(&spans);
        assert!((t["point"] - 40e-9).abs() < 1e-15, "{t:?}");
        assert!((t["run"] - 160e-9).abs() < 1e-15, "{t:?}");
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let spans = vec![span("p", 10, 20, None, 0), span("c", 0, 15, Some(0), 0)];
        assert!((self_times(&spans)["p"] - 5e-9).abs() < 1e-15);
    }

    #[test]
    fn recorder_nests_and_absorbs() {
        let mut worker = Recorder::for_point(true, 7);
        worker.span("point", |r| r.span("run", |_| ()));
        assert_eq!(worker.spans[1].parent, Some(0));
        let mut main = Recorder::new(true);
        main.span("rep", |r| r.absorb(worker.spans));
        assert_eq!(main.spans.len(), 3);
        assert_eq!(main.spans[1].parent, Some(0), "absorbed root nests");
        assert_eq!(main.spans[2].parent, Some(1), "links are offset");
        assert_eq!(main.spans[2].point, Some(7));
        let json = chrome_json(&main.spans);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 3);
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let mut r = Recorder::new(false);
        assert_eq!(r.span("x", |_| 5), 5);
        assert!(r.spans.is_empty());
    }
}
