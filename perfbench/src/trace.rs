//! In-memory span recorder for the traced run.
//!
//! A span is one call into a library layer: a name, an optional tag
//! (the scheme, for apply spans), start and end on one monotonic clock,
//! the span that was open on the same thread when it began (its
//! parent), and the batch id shared by every span of one update batch.
//! Spans stay in memory until the benchmark ends and are then written
//! out as JSON lines. Recording is off unless [`set_enabled`] turned it on, so
//! the untraced run pays one relaxed atomic load per guard.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    /// Indices (into `SPANS`) of the spans open on this thread.
    static STACK: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
    /// The batch the calling thread is working on.
    static BATCH: Cell<u64> = const { Cell::new(0) };
}

/// One recorded span.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    tag: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    batch: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Nanoseconds since the first call in this process — the clock every
/// span and every latency sample uses.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

fn spans() -> std::sync::MutexGuard<'static, Vec<Span>> {
    SPANS
        .lock()
        .expect("span buffer lock poisoned by a panicking span")
}

/// Turn recording on (the traced phase) or off.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Tag every span the calling thread opens from now on with `batch`.
pub fn set_batch(batch: u64) {
    BATCH.with(|b| b.set(batch));
}

/// An open span; recording ends when it is dropped.
pub struct Guard {
    index: Option<usize>,
}

/// Open a span named `name` as a child of the span open on this thread.
pub fn span(name: &'static str) -> Guard {
    tagged(name, "")
}

/// [`span`] with a tag (the scheme an apply span ran under).
pub fn tagged(name: &'static str, tag: &'static str) -> Guard {
    if !enabled() {
        return Guard { index: None };
    }
    let parent = STACK.with(|s| s.borrow().last().copied());
    let batch = BATCH.with(Cell::get);
    let index = {
        let mut all = spans();
        all.push(Span {
            name,
            tag,
            start_ns: now_ns(),
            end_ns: 0,
            parent,
            batch,
        });
        all.len() - 1
    };
    STACK.with(|s| s.borrow_mut().push(index));
    Guard { index: Some(index) }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some(index) = self.index {
            let end = now_ns();
            STACK.with(|s| {
                s.borrow_mut().pop();
            });
            if let Ok(mut all) = SPANS.lock() {
                if let Some(span) = all.get_mut(index) {
                    span.end_ns = end;
                }
            }
        }
    }
}

/// Record an already-measured interval (queue wait, which begins on
/// the submitting thread and ends on a worker) as a root span.
pub fn record(name: &'static str, start_ns: u64, end_ns: u64, batch: u64) {
    if enabled() {
        spans().push(Span {
            name,
            tag: "",
            start_ns,
            end_ns,
            parent: None,
            batch,
        });
    }
}

/// Drop every recorded span (between phases).
pub fn clear() {
    spans().clear();
}

/// Self time of every span: its duration minus the time its direct
/// children cover.
fn self_times(all: &[Span]) -> Vec<u64> {
    let mut child = vec![0u64; all.len()];
    for s in all {
        if let Some(p) = s.parent {
            child[p] += s.dur_ns();
        }
    }
    all.iter()
        .zip(&child)
        .map(|(s, c)| s.dur_ns().saturating_sub(*c))
        .collect()
}

/// Self times in microseconds grouped by span name and by `name/tag`.
pub fn self_us_by_name() -> BTreeMap<String, Vec<f64>> {
    let all = spans();
    let selfs = self_times(&all);
    let mut out: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for (s, ns) in all.iter().zip(selfs) {
        let us = ns as f64 / 1e3;
        out.entry(s.name.to_string()).or_default().push(us);
        if !s.tag.is_empty() {
            out.entry(format!("{}/{}", s.name, s.tag))
                .or_default()
                .push(us);
        }
    }
    out
}

/// Write every recorded span as one JSON object per line.
pub fn write_jsonl(path: &Path) -> std::io::Result<usize> {
    let all = spans();
    let selfs = self_times(&all);
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, (s, self_ns)) in all.iter().zip(selfs).enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"tag\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns},\"parent\":{parent},\"batch\":{}}}",
            s.name, s.tag, s.start_ns, s.end_ns, s.batch
        )?;
    }
    out.flush()?;
    Ok(all.len())
}
