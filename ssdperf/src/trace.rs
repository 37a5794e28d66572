//! The benchmark's own span recorder.
//!
//! Spans are opened by the benchmark around each call into an `ssd`
//! layer, never inside the program. A span records its name, start, end,
//! parent span and request id. Self time (duration minus the time its
//! child spans cover) is aggregated per name as each span closes; the
//! first [`RAW_CAP`] raw spans are kept in memory and written out when the
//! run ends. With tracing off, [`Tracer::span`] returns `None` and costs
//! one branch.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Raw spans kept for the trace file; later spans still count in the
/// per-name aggregates.
pub const RAW_CAP: usize = 50_000;

/// One closed span.
#[derive(Clone, Copy, Debug)]
pub struct SpanRec {
    pub id: u64,
    pub parent: u64,
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Per-name totals.
#[derive(Clone, Copy, Debug, Default)]
pub struct Agg {
    pub self_ns: u64,
}

#[derive(Default)]
struct Store {
    raw: Vec<SpanRec>,
    dropped: u64,
    agg: BTreeMap<&'static str, Agg>,
    counts: BTreeMap<&'static str, f64>,
}

/// Span recorder shared by every thread of a run.
pub struct Tracer {
    on: bool,
    t0: Instant,
    store: Mutex<Store>,
}

struct Frame {
    id: u64,
    child_ns: u64,
}

thread_local! {
    static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
    static REQUEST: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    static NEXT_ID: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// An open span; closes on drop.
pub struct SpanGuard<'a> {
    tr: &'a Tracer,
    id: u64,
    parent: u64,
    name: &'static str,
    start: Instant,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            store: Mutex::new(Store::default()),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Sets the request id stamped on spans this thread opens next.
    pub fn set_request(&self, id: u64) {
        if self.on {
            REQUEST.with(|r| r.set(id));
        }
    }

    /// Opens a span named `name` under this thread's innermost open span.
    pub fn span(&self, name: &'static str) -> Option<SpanGuard<'_>> {
        if !self.on {
            return None;
        }
        // Ids are unique per thread in the high bits, so threads never
        // contend for an id counter.
        let tid = thread_tag();
        let id = NEXT_ID.with(|n| {
            let v = n.get() + 1;
            n.set(v);
            (tid << 40) | v
        });
        let parent = STACK.with(|s| {
            let mut s = s.borrow_mut();
            let parent = s.last().map_or(0, |f| f.id);
            s.push(Frame { id, child_ns: 0 });
            parent
        });
        Some(SpanGuard {
            tr: self,
            id,
            parent,
            name,
            start: Instant::now(),
        })
    }

    /// Adds `n` to the counter `name`, recorded at the same boundaries as
    /// the spans.
    pub fn count(&self, name: &'static str, n: f64) {
        if self.on {
            *self.lock().counts.entry(name).or_insert(0.0) += n;
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Store> {
        // A panicking worker aborts the run anyway; the aggregates stay
        // consistent because every update is a single insert.
        self.store.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn close(&self, g: &SpanGuard<'_>) {
        let end = Instant::now();
        let dur = end.duration_since(g.start).as_nanos() as u64;
        let child = STACK.with(|s| {
            let mut s = s.borrow_mut();
            let child = match s.pop() {
                Some(f) if f.id == g.id => f.child_ns,
                _ => 0,
            };
            if let Some(p) = s.last_mut() {
                p.child_ns += dur;
            }
            child
        });
        let rec = SpanRec {
            id: g.id,
            parent: g.parent,
            request: REQUEST.with(|r| r.get()),
            name: g.name,
            start_ns: g.start.duration_since(self.t0).as_nanos() as u64,
            end_ns: end.duration_since(self.t0).as_nanos() as u64,
        };
        let mut st = self.lock();
        let a = st.agg.entry(g.name).or_default();
        a.self_ns += dur.saturating_sub(child);
        if st.raw.len() < RAW_CAP {
            st.raw.push(rec);
        } else {
            st.dropped += 1;
        }
    }

    /// Per-name self time and call counts.
    pub fn aggregates(&self) -> BTreeMap<&'static str, Agg> {
        self.lock().agg.clone()
    }

    /// Counter totals.
    pub fn counts(&self) -> BTreeMap<&'static str, f64> {
        self.lock().counts.clone()
    }

    /// Writes the raw spans as JSON lines to `path`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let st = self.lock();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &st.raw {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        writeln!(out, "{{\"spans_dropped\":{}}}", st.dropped)?;
        out.flush()
    }
}

impl SpanGuard<'_> {
    /// Renames the span before it closes (a dispatch span learns its
    /// Table 2 route only from the verdict).
    pub fn rename(&mut self, name: &'static str) {
        self.name = name;
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        self.tr.close(self);
    }
}

/// A small per-thread tag for span ids.
fn thread_tag() -> u64 {
    thread_local! {
        static TAG: u64 = {
            static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);
            NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        };
    }
    TAG.with(|t| *t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let tr = Tracer::new(true);
        {
            let _outer = tr.span("outer");
            std::thread::sleep(std::time::Duration::from_millis(4));
            {
                let _inner = tr.span("inner");
                std::thread::sleep(std::time::Duration::from_millis(8));
            }
        }
        let agg = tr.aggregates();
        let outer = agg["outer"].self_ns as f64 / 1e6;
        let inner = agg["inner"].self_ns as f64 / 1e6;
        assert!(inner >= 8.0, "inner {inner}");
        assert!((4.0..8.0).contains(&outer), "outer self {outer}");
    }

    #[test]
    fn off_records_nothing() {
        let tr = Tracer::new(false);
        assert!(tr.span("x").is_none());
        tr.count("c", 1.0);
        assert!(tr.aggregates().is_empty() && tr.counts().is_empty());
    }
}
