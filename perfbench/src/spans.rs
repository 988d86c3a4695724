//! In-memory span recorder for traced runs.
//!
//! Spans are recorded by the benchmark around its own calls into the
//! program's public functions; the program itself is not instrumented.
//! Parents are passed explicitly, so a span opened on a worker thread
//! still hangs under the span that fanned the work out. Spans are held in
//! memory and written out once, when the run ends.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Identifier of a recorded span; `SpanId::ROOT` means "no parent".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u64);

impl SpanId {
    pub const ROOT: SpanId = SpanId(0);
}

/// One finished span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Request id for spans that belong to one served request.
    pub req: Option<u64>,
}

impl Span {
    /// The layer a span belongs to: its name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Records spans when enabled; every call is a no-op when it is not.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    next: AtomicU64,
    done: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            next: AtomicU64::new(1),
            done: Mutex::new(Vec::new()),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span that closes when the guard drops.
    pub fn enter(&self, name: &'static str, parent: SpanId) -> Guard<'_> {
        let (id, start) = if self.on {
            (
                self.next.fetch_add(1, Ordering::Relaxed),
                Some(Instant::now()),
            )
        } else {
            (0, None)
        };
        Guard {
            tracer: self,
            id,
            parent,
            name,
            start,
        }
    }

    /// Record a span whose bounds were measured elsewhere (a request
    /// timed from when it was sent to its response).
    pub fn record(
        &self,
        name: &'static str,
        parent: SpanId,
        req: u64,
        start: Instant,
        end: Instant,
    ) {
        if !self.on {
            return;
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        self.push(Span {
            id,
            parent: parent.0,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            req: Some(req),
        });
    }

    fn push(&self, span: Span) {
        self.done
            .lock()
            .expect("span buffer lock poisoned")
            .push(span);
    }

    /// Take every span recorded so far, ordered by id.
    pub fn take(&self) -> Vec<Span> {
        let mut spans = std::mem::take(&mut *self.done.lock().expect("span buffer lock poisoned"));
        spans.sort_by_key(|s| s.id);
        spans
    }
}

/// An open span.
pub struct Guard<'a> {
    tracer: &'a Tracer,
    id: u64,
    parent: SpanId,
    name: &'static str,
    start: Option<Instant>,
}

impl Guard<'_> {
    pub fn id(&self) -> SpanId {
        SpanId(self.id)
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let end = Instant::now();
            self.tracer.push(Span {
                id: self.id,
                parent: self.parent.0,
                name: self.name,
                start_ns: self.tracer.ns(start),
                end_ns: self.tracer.ns(end),
                req: None,
            });
        }
    }
}

/// Total length of the union of `intervals` clipped to `[lo, hi]`.
pub fn covered_ns(lo: u64, hi: u64, intervals: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(lo), e.min(hi)))
        .filter(|&(s, e)| e > s)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// A span's self time: its duration minus the part of that interval its
/// direct children cover. Children on other threads may overlap one
/// another; the union is subtracted, never the sum.
pub fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let kids = children.get(&s.id).map_or(&[][..], Vec::as_slice);
            dur - covered_ns(s.start_ns, s.end_ns, kids).min(dur)
        })
        .collect()
}

/// Self time summed per layer, in nanoseconds.
pub fn layer_self_ns(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_ns(spans)) {
        *out.entry(s.layer()).or_insert(0) += own;
    }
    out
}

/// Share of `[lo, hi]` during which at least one span of each layer was
/// open (wall-clock attribution; concurrent spans of one layer count once).
pub fn layer_wall_share(spans: &[Span], lo: u64, hi: u64) -> BTreeMap<&'static str, f64> {
    let mut by_layer: BTreeMap<&'static str, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        by_layer
            .entry(s.layer())
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let wall = hi.saturating_sub(lo).max(1) as f64;
    by_layer
        .into_iter()
        .map(|(layer, iv)| (layer, covered_ns(lo, hi, &iv) as f64 / wall))
        .collect()
}

/// Write spans as JSON lines.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let req = s.req.map_or("null".to_string(), |r| r.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"req\":{}}}",
            s.id, s.parent, s.name, s.start_ns, s.end_ns, req
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
            req: None,
        }
    }

    #[test]
    fn covered_merges_overlaps_and_clips() {
        assert_eq!(covered_ns(0, 100, &[]), 0);
        assert_eq!(covered_ns(0, 100, &[(10, 20), (15, 30), (40, 50)]), 30);
        assert_eq!(covered_ns(0, 100, &[(40, 50), (10, 20)]), 20);
        // Clipped to the parent's interval.
        assert_eq!(covered_ns(10, 20, &[(0, 15), (18, 40)]), 7);
        // Touching intervals merge without double counting.
        assert_eq!(covered_ns(0, 100, &[(0, 10), (10, 20)]), 20);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // A 100 ns root with two overlapping children on two threads
        // (union 10..70) and a grandchild that only reduces its parent.
        let spans = vec![
            span(1, 0, "bench.pass", 0, 100),
            span(2, 1, "cpusim.core", 10, 50),
            span(3, 1, "cpusim.core", 30, 70),
            span(4, 2, "cpusim.trace", 20, 30),
        ];
        assert_eq!(self_ns(&spans), vec![40, 30, 40, 10]);
        let layers = layer_self_ns(&spans);
        assert_eq!(layers["bench"], 40);
        assert_eq!(layers["cpusim"], 80);
    }

    #[test]
    fn child_outliving_its_parent_cannot_make_self_time_negative() {
        let spans = vec![span(1, 0, "a.x", 10, 20), span(2, 1, "b.y", 0, 30)];
        assert_eq!(self_ns(&spans), vec![0, 30]);
    }

    #[test]
    fn wall_share_counts_concurrent_spans_once() {
        let spans = vec![
            span(1, 0, "cpusim.core", 0, 50),
            span(2, 0, "cpusim.core", 0, 50),
            span(3, 0, "mlmodels.fit", 50, 100),
        ];
        let share = layer_wall_share(&spans, 0, 100);
        assert_eq!(share["cpusim"], 0.5);
        assert_eq!(share["mlmodels"], 0.5);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tr = Tracer::new(false);
        {
            let g = tr.enter("a.b", SpanId::ROOT);
            assert_eq!(g.id(), SpanId::ROOT);
        }
        tr.record("a.c", SpanId::ROOT, 1, Instant::now(), Instant::now());
        assert!(tr.take().is_empty());
    }

    #[test]
    fn enabled_tracer_keeps_parents_across_threads() {
        let tr = Tracer::new(true);
        let root = tr.enter("bench.pass", SpanId::ROOT);
        let parent = root.id();
        std::thread::scope(|s| {
            s.spawn(|| drop(tr.enter("cpusim.core", parent)));
        });
        drop(root);
        let spans = tr.take();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, spans[0].id);
        assert!(spans[0].end_ns >= spans[1].end_ns);
    }
}
