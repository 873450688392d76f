//! The benchmark's own spans, kept in memory and written out at the end.
//!
//! Spans are recorded only around calls the benchmark makes into the
//! program's public API (submit, barrier, client submit, row streams) and
//! inside the task bodies and objectives it wraps. Nothing inside the
//! program is instrumented: every layer is timed from outside. When tracing
//! is off, opening a span is one relaxed atomic load and records nothing,
//! so untraced runs carry no span cost.

use std::cell::Cell;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One closed span. Times are microseconds since the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// The enclosing span on the same thread, or the iteration root for
    /// spans opened on threads the benchmark does not own (task bodies).
    pub parent: u64,
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    pub thread: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_us - self.start_us) / 1e6
    }
}

struct Tracer {
    on: AtomicBool,
    epoch: Instant,
    next_id: AtomicU64,
    /// Root span of the iteration in flight: the parent of spans opened on
    /// threads with no enclosing benchmark span.
    root: AtomicU64,
    open: Mutex<Vec<Span>>,
    kept: Mutex<Vec<Span>>,
}

fn tracer() -> &'static Tracer {
    static T: OnceLock<Tracer> = OnceLock::new();
    T.get_or_init(|| Tracer {
        on: AtomicBool::new(false),
        epoch: Instant::now(),
        next_id: AtomicU64::new(1),
        root: AtomicU64::new(0),
        open: Mutex::new(Vec::new()),
        kept: Mutex::new(Vec::new()),
    })
}

thread_local! {
    static CURRENT: Cell<u64> = const { Cell::new(0) };
    static THREAD: Cell<u64> = const { Cell::new(0) };
}

fn thread_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    THREAD.with(|t| {
        if t.get() == 0 {
            t.set(NEXT.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

fn now_us() -> f64 {
    tracer().epoch.elapsed().as_secs_f64() * 1e6
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    tracer().on.load(Ordering::Relaxed)
}

/// An open span; closing happens on drop.
pub struct Guard {
    live: Option<(u64, u64, &'static str, f64)>,
}

/// Open a span named `name` on the current thread.
pub fn span(name: &'static str) -> Guard {
    if !enabled() {
        return Guard { live: None };
    }
    let t = tracer();
    let id = t.next_id.fetch_add(1, Ordering::Relaxed);
    let parent = CURRENT.with(|c| {
        let p = c.get();
        c.set(id);
        if p == 0 {
            t.root.load(Ordering::Relaxed)
        } else {
            p
        }
    });
    Guard { live: Some((id, parent, name, now_us())) }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some((id, parent, name, start_us)) = self.live.take() else { return };
        let end_us = now_us();
        let t = tracer();
        CURRENT.with(|c| c.set(if parent == t.root.load(Ordering::Relaxed) { 0 } else { parent }));
        let span = Span { id, parent, name, start_us, end_us, thread: thread_id() };
        // A poisoned lock only means another span writer panicked; the
        // vector itself is always whole, so keep recording.
        t.open.lock().unwrap_or_else(|e| e.into_inner()).push(span);
    }
}

/// Start recording one traced iteration: spans opened from now on belong
/// to a fresh root span named `name`.
pub fn begin(name: &'static str) -> Guard {
    let t = tracer();
    t.on.store(true, Ordering::Relaxed);
    t.root.store(0, Ordering::Relaxed);
    CURRENT.with(|c| c.set(0));
    let root = span(name);
    if let Some((id, ..)) = root.live {
        t.root.store(id, Ordering::Relaxed);
        CURRENT.with(|c| c.set(0));
    }
    root
}

/// Traced passes whose spans [`write_chrome`] writes out: enough to
/// inspect, without a 10k-task graph's pass after pass filling the file.
const KEPT_PASSES: usize = 3;

/// Stop recording and hand back the iteration's spans (root included).
/// The spans of the first [`KEPT_PASSES`] iterations are also kept for
/// [`write_chrome`].
pub fn end(root: Guard) -> Vec<Span> {
    drop(root);
    let t = tracer();
    t.on.store(false, Ordering::Relaxed);
    t.root.store(0, Ordering::Relaxed);
    let spans = std::mem::take(&mut *t.open.lock().unwrap_or_else(|e| e.into_inner()));
    let mut kept = t.kept.lock().unwrap_or_else(|e| e.into_inner());
    if kept.iter().filter(|s| s.parent == 0).count() < KEPT_PASSES {
        kept.extend(spans.iter().cloned());
    }
    spans
}

/// Write every kept span as a Chrome trace (`chrome://tracing`,
/// Perfetto) to `path`.
pub fn write_chrome(path: &std::path::Path) -> std::io::Result<usize> {
    let spans = std::mem::take(&mut *tracer().kept.lock().unwrap_or_else(|e| e.into_inner()));
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "{{\"traceEvents\": [")?;
    for (i, s) in spans.iter().enumerate() {
        let sep = if i + 1 == spans.len() { "" } else { "," };
        writeln!(
            out,
            "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {:.3}, \
             \"dur\": {:.3}, \"args\": {{\"id\": {}, \"parent\": {}}}}}{sep}",
            s.name,
            s.thread,
            s.start_us,
            s.end_us - s.start_us,
            s.id,
            s.parent
        )?;
    }
    writeln!(out, "]}}")?;
    out.flush()?;
    Ok(spans.len())
}

/// Total seconds of the spans named `name`.
pub fn total(spans: &[Span], name: &str) -> f64 {
    spans.iter().filter(|s| s.name == name).map(Span::secs).sum()
}

/// Number of spans named `name`.
pub fn count(spans: &[Span], name: &str) -> usize {
    spans.iter().filter(|s| s.name == name).count()
}

/// Seconds of `[from_us, to_us]` covered by the union of the spans named
/// in `names` — the caller-side share of a wall interval, with concurrent
/// callers counted once.
pub fn coverage(spans: &[Span], names: &[&str], from_us: f64, to_us: f64) -> f64 {
    let mut iv: Vec<(f64, f64)> = spans
        .iter()
        .filter(|s| names.contains(&s.name))
        .map(|s| (s.start_us.max(from_us), s.end_us.min(to_us)))
        .filter(|(a, b)| b > a)
        .collect();
    iv.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (a, b) in iv {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                covered += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((ca, cb)) = cur {
        covered += cb - ca;
    }
    covered / 1e6
}

/// Microseconds since the tracer's epoch, for marking a wall interval in
/// the same clock the spans use.
pub fn mark_us() -> f64 {
    now_us()
}
