//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark's own code around calls into each
//! layer's public functions: name, detail label, start, end, parent span,
//! run id and recording thread, plus the work counters observed at the
//! same boundary. Spans stay in memory until [`write`] at the end of the
//! run. With tracing off, [`span`] only calls its closure, so the
//! untraced end-to-end runs carry no recording cost.

use jsonio::Json;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);
static RUN: AtomicU64 = AtomicU64::new(0);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Work counters recorded at a span's boundary.
pub type Counters = Vec<(&'static str, u64)>;

thread_local! {
    static OPEN: RefCell<Vec<(u64, Counters)>> = const { RefCell::new(Vec::new()) };
    static THREAD: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

/// One finished span.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub name: &'static str,
    pub detail: String,
    /// The campaign pass (or replay) the span belongs to.
    pub run: u64,
    /// Enclosing span, 0 for a root.
    pub parent: u64,
    pub thread: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub counters: Counters,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters.iter().filter(|(n, _)| *n == name).map(|(_, v)| v).sum()
    }
}

pub fn enable(on: bool) {
    EPOCH.get_or_init(Instant::now);
    ENABLED.store(on, Ordering::SeqCst);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Tag every span opened from now on with `run`.
pub fn set_run(run: u64) {
    RUN.store(run, Ordering::SeqCst);
}

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// The innermost open span on this thread, 0 if none.
pub fn current() -> u64 {
    OPEN.with(|o| o.borrow().last().map(|(id, _)| *id)).unwrap_or(0)
}

/// Run `f` inside a span; its parent is the innermost open span on this
/// thread.
pub fn span<T>(name: &'static str, detail: &str, f: impl FnOnce() -> T) -> T {
    span_under(0, name, detail, f)
}

/// [`span`] for work handed to another thread: when this thread has no
/// open span, `root_parent` becomes the parent.
pub fn span_under<T>(
    root_parent: u64,
    name: &'static str,
    detail: &str,
    f: impl FnOnce() -> T,
) -> T {
    if !enabled() {
        return f();
    }
    let parent = match current() {
        0 => root_parent,
        id => id,
    };
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let guard = Guard {
        id,
        name,
        detail: detail.to_string(),
        run: RUN.load(Ordering::Relaxed),
        parent,
        start_ns: now_ns(),
    };
    OPEN.with(|o| o.borrow_mut().push((id, Vec::new())));
    let out = f();
    drop(guard);
    out
}

/// Add `value` to counter `name` of the innermost open span.
pub fn count(name: &'static str, value: u64) {
    if !enabled() {
        return;
    }
    OPEN.with(|o| {
        if let Some((_, counters)) = o.borrow_mut().last_mut() {
            counters.push((name, value));
        }
    });
}

/// Closes its span on drop, so a panicking cell (the runner catches
/// panics) still leaves this thread's span stack balanced.
struct Guard {
    id: u64,
    name: &'static str,
    detail: String,
    run: u64,
    parent: u64,
    start_ns: u64,
}

impl Drop for Guard {
    fn drop(&mut self) {
        let end_ns = now_ns();
        let counters = OPEN.with(|o| {
            let mut open = o.borrow_mut();
            match open.iter().rposition(|(id, _)| *id == self.id) {
                Some(i) => open.remove(i).1,
                None => Vec::new(),
            }
        });
        let span = Span {
            id: self.id,
            name: self.name,
            detail: std::mem::take(&mut self.detail),
            run: self.run,
            parent: self.parent,
            thread: THREAD.with(|t| *t),
            start_ns: self.start_ns,
            end_ns,
            counters,
        };
        if let Ok(mut spans) = SPANS.lock() {
            spans.push(span);
        }
    }
}

/// Every span recorded so far.
pub fn spans() -> Vec<Span> {
    SPANS.lock().map(|s| s.clone()).unwrap_or_default()
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its children's spans.
pub fn self_ns(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        children.entry(s.parent).or_default().push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let mut kids: Vec<(u64, u64)> = children
                .get(&s.id)
                .map(|k| {
                    k.iter()
                        .map(|&(a, b)| (a.max(s.start_ns), b.min(s.end_ns)))
                        .filter(|(a, b)| a < b)
                        .collect()
                })
                .unwrap_or_default();
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.id, (s.end_ns - s.start_ns) - covered)
        })
        .collect()
}

/// Write every span, with its self time, and a per-name summary.
pub fn write(path: &Path, header: Vec<(&str, Json)>) -> std::io::Result<()> {
    let spans = spans();
    let own = self_ns(&spans);
    let mut summary: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
    for s in &spans {
        let e = summary.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.end_ns - s.start_ns;
        e.2 += own[&s.id];
    }
    let span_json = spans
        .iter()
        .map(|s| {
            Json::obj(vec![
                ("id", Json::U64(s.id)),
                ("name", Json::Str(s.name.to_string())),
                ("detail", Json::Str(s.detail.clone())),
                ("run", Json::U64(s.run)),
                ("parent", Json::U64(s.parent)),
                ("thread", Json::U64(s.thread)),
                ("start_ns", Json::U64(s.start_ns)),
                ("end_ns", Json::U64(s.end_ns)),
                ("self_ns", Json::U64(own[&s.id])),
                (
                    "counters",
                    Json::Obj(
                        s.counters.iter().map(|(n, v)| (n.to_string(), Json::U64(*v))).collect(),
                    ),
                ),
            ])
        })
        .collect();
    let summary_json = Json::Obj(
        summary
            .into_iter()
            .map(|(name, (count, total, own))| {
                (
                    name.to_string(),
                    Json::obj(vec![
                        ("count", Json::U64(count)),
                        ("total_s", Json::F64(total as f64 * 1e-9)),
                        ("self_s", Json::F64(own as f64 * 1e-9)),
                    ]),
                )
            })
            .collect(),
    );
    let mut fields = header;
    fields.push(("summary", summary_json));
    fields.push(("spans", Json::Arr(span_json)));
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, Json::obj(fields).to_string())
}
