//! The campaign's one dispatch loop: every cell of every campaign —
//! in-process or `--isolate` — is looked up, executed, retried,
//! quarantined, journaled and published here, so the two execution
//! modes cannot disagree on a record byte or an exit code.
//!
//! ## Slots and executors
//!
//! `run` opens the store, queues one `WorkItem` per cell, and drains
//! the queue with N *slot threads*. A slot pops an item, looks it up in
//! the store (a hit finishes the cell on the spot; cached payloads never
//! reach an executor) and hands a miss to its executor:
//!
//! * a **thread executor** (the default) calls the cell closure through
//!   `worker::run_one` on the slot thread itself;
//! * a **process executor** (`--isolate`) sends the cell's identity to a
//!   `smi-lab worker` subprocess over the length-prefixed frame protocol
//!   ([`crate::proto`] over [`jsonio::framed`]); the worker runs the same
//!   `run_one` on its own rebuilt catalog. A process slot spawns its
//!   worker on its first miss, so an all-hit pass spawns none.
//!
//! Both executors answer with a [`proto::WorkOutcome`], and every outcome
//! goes through `Ctx::settle`: the one place that decides retry,
//! quarantine, journal append and store publish. An idle slot blocks on
//! a condvar until work is requeued or the campaign drains.
//!
//! ## Crash discipline
//!
//! A worker death — clean exit, SIGKILL, `abort()`, torn frame, or
//! watchdog shot — costs exactly the attempts in flight on that worker.
//! Each is journaled [`journal::Status::Crashed`] (so a killed campaign
//! resumes knowing the cell was dispatched) and re-queued until the
//! cell's ordinary [`crate::Runner::max_attempts`] budget is spent,
//! then quarantined with a machine-readable `worker-crash` reason. The
//! slot re-spawns its worker with bounded exponential backoff; a slot
//! whose respawn budget is exhausted *gives up* — graceful degradation,
//! not collapse. If every slot gives up, whatever is left in the queue
//! is quarantined `worker-pool-exhausted` and the run reports Degraded
//! instead of hanging. A panic is not a crash: its retry stays on the
//! slot that saw it, exactly as an in-process retry does.
//!
//! ## Deadlines
//!
//! Two layers, deliberately different: the *deterministic* deadline is
//! the work-unit budget `run_one` enforces from harvested engine
//! counters (`deadline` quarantines reproduce exactly on every rerun —
//! no wall clock in the verdict). Only process slots carry a budget;
//! thread slots run with budget 0. The *wall-clock* watchdog lives only
//! up here: a worker that stops answering for
//! [`IsolateConfig::watchdog_ms`] is presumed wedged and shot, which
//! funnels into the same crash discipline. Wall time decides only
//! *liveness*, never a record byte.

use crate::telemetry::{Progress, Stopwatch};
use crate::{
    assemble_report, cache, journal, lock_clean, lockfile, proto, store, worker, CacheMode, Cell,
    CellError, CellOutcome, CellValue, QuarantineKind, RunReport, Runner,
};
use jsonio::framed::{FrameReader, FrameWriter};
use jsonio::Json;
use std::collections::VecDeque;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// Configuration of one process-isolated campaign.
#[derive(Clone, Debug)]
pub struct IsolateConfig {
    /// Worker subprocess command line: program plus arguments. The
    /// command must speak the [`crate::proto`] protocol on its
    /// stdin/stdout (the CLI re-executes itself as `smi-lab worker ...`)
    /// and must rebuild the *same* cell catalog the supervisor holds.
    pub worker_cmd: Vec<String>,
    /// Worker subprocess slots (clamped to at least 1, and to the
    /// number of pending cells).
    pub workers: usize,
    /// Respawns a slot may consume after crashes before it gives up.
    pub respawn_budget: u32,
    /// Base respawn backoff in milliseconds; doubles per consecutive
    /// crash of the slot (capped at 32x).
    pub backoff_ms: u64,
    /// Deterministic per-cell work-unit budget (engine events popped);
    /// `0` disables deadlines. Enforced *in the worker* from harvested
    /// counters, so the verdict is wall-clock free and reproducible.
    pub deadline_units: u64,
    /// Wall-clock watchdog: a worker silent for this long with work in
    /// flight is presumed wedged and killed. Liveness only — it can
    /// cost attempts, never change a record byte.
    pub watchdog_ms: u64,
    /// Admission bound: cells a manager keeps in flight on its worker
    /// at once (clamped to at least 1). Backpressure, and the bound on
    /// how many attempts one worker death can cost.
    pub inflight: usize,
    /// Fault injection for tests and the CI gate: cells whose label is
    /// listed here get their worker SIGKILLed right after dispatch.
    pub kill_cells: Vec<String>,
}

impl IsolateConfig {
    /// A config with conservative defaults around a worker command.
    pub fn new(worker_cmd: Vec<String>) -> IsolateConfig {
        IsolateConfig {
            worker_cmd,
            workers: 1,
            respawn_budget: 3,
            backoff_ms: 25,
            deadline_units: 0,
            watchdog_ms: 30_000,
            inflight: 1,
            kill_cells: Vec::new(),
        }
    }
}

/// Per-slot supervision accounting, reported into the manifest.
#[derive(Clone, Debug, Default)]
pub struct WorkerStats {
    /// Subprocesses spawned for this slot (1 + respawns).
    pub spawns: u64,
    /// Worker deaths observed (exit, kill, protocol break, watchdog).
    pub crashes: u64,
    /// Cells this slot completed with a payload.
    pub cells_ok: u64,
    /// Cells quarantined `worker-crash` at this slot.
    pub cells_crashed: u64,
    /// Cells quarantined `deadline` at this slot.
    pub cells_deadline: u64,
    /// Whether the slot exhausted its respawn budget and gave up.
    pub gave_up: bool,
}

/// Whole-pool supervision accounting for one isolated run.
#[derive(Clone, Debug, Default)]
pub struct IsolateReport {
    /// Per-slot accounting, one entry per worker slot.
    pub workers: Vec<WorkerStats>,
    /// Cells quarantined because every slot gave up before they ran.
    pub pool_exhausted_cells: u64,
}

/// One queued unit of work: which cell, and its attempt accounting.
/// The cell itself (identity and closure) stays in the campaign's cell
/// list; a process executor sends only the identity across the pipe.
struct WorkItem {
    idx: usize,
    key: cache::CacheKey,
    attempts: u32,
    /// Started when a slot first takes the cell — `None` marks a cell
    /// whose store lookup has not happened yet.
    watch: Option<Stopwatch>,
}

impl WorkItem {
    fn elapsed(&self) -> u64 {
        self.watch.as_ref().map(|w| w.elapsed_micros()).unwrap_or(0)
    }
}

/// The queue and the outcome slots, under one lock so a slot can never
/// miss the wake-up that tells it the campaign drained.
struct Queue {
    items: VecDeque<WorkItem>,
    outcomes: Vec<Option<CellOutcome>>,
    remaining: usize,
    /// Set when a slot unwinds, so its siblings stop waiting for cells
    /// it will never finish.
    abandoned: bool,
}

/// Shared campaign state every slot thread works against.
struct Ctx<'a> {
    runner: &'a Runner,
    cells: &'a [Cell],
    progress: &'a Progress,
    store: Option<&'a store::Store>,
    writer: Option<&'a journal::Writer>,
    queue: Mutex<Queue>,
    wake: Condvar,
}

/// Run a campaign: open storage, drain every cell through the slots,
/// and assemble the report. Outcomes come back in submission order;
/// [`RunReport::isolate`] carries the supervision accounting when the
/// slots drove worker processes.
pub(crate) fn run(
    runner: &Runner,
    label: &str,
    cells: Vec<Cell>,
    lock_broken: Option<lockfile::BrokenLock>,
) -> RunReport {
    let progress = Progress::new(cells.len() as u64, runner.verbose)
        .with_disk_fault_limit(runner.disk_fault_limit);
    let started = Stopwatch::start();
    let keys: Vec<cache::CacheKey> =
        cells.iter().map(|cell| cache::cell_key(&runner.code_version, &cell.spec)).collect();
    let (store, writer, mut account) = runner.open_storage(label, &keys, &progress, lock_broken);
    let total = cells.len();
    let items = keys
        .iter()
        .enumerate()
        .map(|(idx, &key)| WorkItem { idx, key, attempts: 0, watch: None })
        .collect();
    let ctx = Ctx {
        runner,
        cells: &cells,
        progress: &progress,
        store: store.as_ref(),
        writer: writer.as_ref(),
        queue: Mutex::new(Queue {
            items,
            outcomes: (0..total).map(|_| None).collect(),
            remaining: total,
            abandoned: false,
        }),
        wake: Condvar::new(),
    };
    let slots = runner.isolate.as_ref().map_or(runner.jobs, |cfg| cfg.workers);
    let mut stats = vec![WorkerStats::default(); slots.clamp(1, total.max(1))];
    if total > 0 {
        std::thread::scope(|scope| {
            for stat in stats.iter_mut() {
                let ctx = &ctx;
                scope.spawn(move || ctx.slot(stat));
            }
        });
    }

    // Every slot has returned. A miss still queued outlived every
    // slot's respawn budget: quarantine it with a typed reason rather
    // than hang or abort the campaign. (Cells nobody looked up yet are
    // still served from the store first.)
    let mut pool_exhausted = 0u64;
    while let Some(item) = ctx.next_miss(false) {
        pool_exhausted += 1;
        let micros = item.elapsed();
        let attempts = item.attempts;
        ctx.progress.cell_quarantined(QuarantineKind::Crashed, ctx.label(&item), micros);
        ctx.journal(&item, journal::Status::Crashed, attempts);
        let reason = Json::obj(vec![
            ("kind", Json::Str("worker-pool-exhausted".into())),
            ("attempts", Json::U64(attempts as u64)),
        ]);
        let message = "worker pool exhausted: every worker slot spent its respawn budget";
        ctx.finish(
            item,
            Err(CellError {
                message: message.to_string(),
                reason,
                kind: QuarantineKind::Crashed,
                attempts,
                micros,
            }),
        );
    }

    let outcomes = ctx.queue.into_inner().unwrap_or_else(|poisoned| poisoned.into_inner()).outcomes;
    // Every index is a hit, settled by a slot, or drained above. A hole
    // would be an accounting bug: surface it as a typed quarantine, never
    // as a payload shifted into its neighbour's place.
    let outcomes: Vec<CellOutcome> = outcomes
        .into_iter()
        .zip(cells.iter().zip(keys))
        .map(|(outcome, (cell, key))| {
            outcome.unwrap_or_else(|| {
                progress.cell_quarantined(QuarantineKind::Crashed, &cell.spec.cell, 0);
                CellOutcome {
                    spec: cell.spec.clone(),
                    key,
                    result: Err(CellError {
                        message: "cell never completed: supervisor accounting hole".to_string(),
                        reason: Json::obj(vec![("kind", Json::Str("accounting-hole".into()))]),
                        kind: QuarantineKind::Crashed,
                        attempts: 0,
                        micros: 0,
                    }),
                }
            })
        })
        .collect();
    let isolate = runner
        .isolate
        .as_ref()
        .map(|_| IsolateReport { workers: stats, pool_exhausted_cells: pool_exhausted });
    if let Some(store) = &store {
        account.store = store.counters();
        // Bookkeeping append failures are disk faults too: fold them
        // into the counted store errors so they degrade the run.
        for _ in 0..account.store.index_errors {
            progress.note_store_error();
        }
    }
    assemble_report(runner, label, &progress, &started, account, outcomes, isolate)
}

impl Ctx<'_> {
    fn label(&self, item: &WorkItem) -> &str {
        &self.cells[item.idx].spec.cell
    }

    fn journal(&self, item: &WorkItem, status: journal::Status, attempts: u32) {
        if let Some(w) = self.writer {
            if self.progress.storage_bypass() {
                self.progress.note_bypassed_write();
            } else if w.append(item.key, self.label(item), status, attempts).is_err() {
                self.progress.note_store_error();
            }
        }
    }

    /// Deposit a finished outcome into its submission-order slot; the
    /// last one wakes every idle slot so the campaign can end.
    fn finish(&self, item: WorkItem, result: Result<CellValue, CellError>) {
        let spec = self.cells[item.idx].spec.clone();
        let mut queue = lock_clean(&self.queue);
        queue.outcomes[item.idx] = Some(CellOutcome { spec, key: item.key, result });
        queue.remaining -= 1;
        if queue.remaining == 0 {
            self.wake.notify_all();
        }
    }

    /// Put an attempt back at the head of the shared queue for any slot.
    fn requeue(&self, item: WorkItem) {
        lock_clean(&self.queue).items.push_front(item);
        self.wake.notify_one();
    }

    /// The next cell that needs executing. Pops the queue (blocking, if
    /// `wait`, until work arrives or the campaign drains) and serves
    /// every cell it can from the store on the way: a hit finishes the
    /// cell here, so only misses reach an executor.
    fn next_miss(&self, wait: bool) -> Option<WorkItem> {
        loop {
            let mut item = {
                let mut queue = lock_clean(&self.queue);
                loop {
                    if let Some(item) = queue.items.pop_front() {
                        break item;
                    }
                    if !wait || queue.remaining == 0 || queue.abandoned {
                        return None;
                    }
                    queue = self.wake.wait(queue).unwrap_or_else(|poisoned| poisoned.into_inner());
                }
            };
            if item.watch.is_some() {
                return Some(item); // handed back by a slot: already looked up
            }
            item.watch = Some(Stopwatch::start());
            let Some(payload) = self.lookup(&item) else { return Some(item) };
            let micros = item.elapsed();
            self.progress.cell_done(self.label(&item), micros, true);
            self.journal(&item, journal::Status::Ok, 0);
            self.finish(item, Ok(CellValue { payload, cached: true, attempts: 0, micros }));
        }
    }

    fn lookup(&self, item: &WorkItem) -> Option<Json> {
        let store = self.store.filter(|_| self.runner.cache_mode == CacheMode::ReadWrite)?;
        match store.load(item.key, &self.cells[item.idx].spec) {
            cache::Lookup::Hit(payload) => Some(payload),
            cache::Lookup::Corrupt => {
                self.progress.note_load_corruption();
                None
            }
            cache::Lookup::Miss => None,
        }
    }

    fn slot(&self, stats: &mut WorkerStats) {
        // Cells run under `catch_unwind`, so a slot unwinds only on a bug
        // of its own. Its siblings must not wait forever for the cells it
        // held: release them, and let the scope re-raise the panic.
        struct Abandon<'c, 'a>(&'c Ctx<'a>);
        impl Drop for Abandon<'_, '_> {
            fn drop(&mut self) {
                if std::thread::panicking() {
                    lock_clean(&self.0.queue).abandoned = true;
                    self.0.wake.notify_all();
                }
            }
        }
        let _abandon = Abandon(self);
        match &self.runner.isolate {
            Some(cfg) => self.process_slot(cfg, stats),
            None => self.thread_slot(stats),
        }
    }

    /// A thread executor: run each miss on this thread. A panic retry
    /// re-runs here at once, like every retry of the same cell closure.
    fn thread_slot(&self, stats: &mut WorkerStats) {
        let mut retry = None;
        while let Some(item) = retry.take().or_else(|| self.next_miss(true)) {
            let outcome =
                worker::run_one(&self.cells[item.idx], self.runner.perf_probe.as_ref(), 0);
            retry = self.settle(stats, item, Ok(outcome));
        }
    }

    /// A process executor: own one worker subprocess, keep up to
    /// [`IsolateConfig::inflight`] cells in flight on it, and survive
    /// its deaths until the campaign drains or the respawn budget is
    /// spent.
    fn process_slot(&self, cfg: &IsolateConfig, stats: &mut WorkerStats) {
        let mut conn: Option<Conn> = None;
        // Misses this slot holds but has not dispatched (panic retries
        // go to the front, so they stay on the same worker).
        let mut ready: VecDeque<WorkItem> = VecDeque::new();
        let mut inflight: VecDeque<(u64, WorkItem)> = VecDeque::new();
        let mut next_id: u64 = 1;
        // The in-flight bound is also backpressure — it caps the
        // attempts one worker death can cost.
        let window = cfg.inflight.max(1);
        loop {
            while inflight.len() + ready.len() < window {
                let idle = inflight.is_empty() && ready.is_empty();
                let Some(item) = self.next_miss(idle) else { break };
                ready.push_back(item);
            }
            if inflight.is_empty() && ready.is_empty() {
                break;
            }
            if conn.is_none() {
                if stats.crashes > cfg.respawn_budget as u64 {
                    // Give up the slot: siblings (or the pool-exhausted
                    // drain) own whatever it still holds.
                    stats.gave_up = true;
                    while let Some(item) = ready.pop_back() {
                        self.requeue(item);
                    }
                    return;
                }
                if stats.crashes > 0 {
                    let shift = (stats.crashes - 1).min(5) as u32;
                    std::thread::sleep(Duration::from_millis(cfg.backoff_ms << shift));
                }
                match Conn::spawn(&cfg.worker_cmd) {
                    Ok(c) => {
                        stats.spawns += 1;
                        conn = Some(c);
                    }
                    Err(()) => {
                        stats.crashes += 1;
                        continue;
                    }
                }
            }
            let Some(c) = conn.as_mut() else { continue };
            let mut death = None;
            while let Some(item) = ready.pop_front() {
                let spec = &self.cells[item.idx].spec;
                let msg = proto::ToWorker::Run {
                    id: next_id,
                    attempt: item.attempts + 1,
                    budget_units: cfg.deadline_units,
                    spec: spec.clone(),
                };
                if c.tx.write(&msg.to_json()).is_err() {
                    ready.push_front(item);
                    death = Some("pipe-closed");
                    break;
                }
                inflight.push_back((next_id, item));
                next_id += 1;
                if cfg.kill_cells.contains(&spec.cell) {
                    // Injected fault: SIGKILL our own worker with this
                    // cell in flight (the kill-resume gate), and account
                    // the crash *now*, without draining the pipe first:
                    // a fast worker may already have replied `Done` for
                    // the doomed cell, and reading it would let the
                    // injection silently miss. The attempt is charged
                    // either way, which is exactly what a SIGKILL with
                    // the cell in flight means.
                    let _ = c.child.kill();
                    death = Some("worker-exit");
                    break;
                }
            }
            if death.is_none() {
                death = match c.rx.recv_timeout(Duration::from_millis(cfg.watchdog_ms.max(1))) {
                    Ok(Ok(proto::FromWorker::Hello { .. })) => None,
                    Ok(Ok(proto::FromWorker::Done { id, outcome })) => {
                        let pos = inflight.iter().position(|(i, _)| *i == id);
                        if let Some((_, item)) = pos.and_then(|pos| inflight.remove(pos)) {
                            if let Some(retry) = self.settle(stats, item, Ok(outcome)) {
                                ready.push_front(retry);
                            }
                        }
                        None
                    }
                    // Torn/garbage frame or worker exit: either way the
                    // channel is unusable — treat as a death.
                    Ok(Err(_)) | Err(RecvTimeoutError::Disconnected) => Some("worker-exit"),
                    Err(RecvTimeoutError::Timeout) => Some("watchdog-timeout"),
                };
            }
            // A worker death costs exactly the attempts in flight on it.
            let Some(cause) = death else { continue };
            stats.crashes += 1;
            if let Some(c) = conn.take() {
                c.stop();
            }
            for (_, item) in inflight.drain(..) {
                if let Some(retry) = self.settle(stats, item, Err(cause)) {
                    self.requeue(retry);
                }
            }
        }
        if let Some(c) = conn.take() {
            c.stop();
        }
    }

    /// Account one ended attempt — the executor's outcome, or `Err(cause)`
    /// when the worker process holding it died. The one place that
    /// decides retry, quarantine, journal append and store publish for
    /// an executed cell. Returns the item when it should run again.
    fn settle(
        &self,
        stats: &mut WorkerStats,
        mut item: WorkItem,
        ended: Result<proto::WorkOutcome, &str>,
    ) -> Option<WorkItem> {
        item.attempts += 1;
        let attempts = item.attempts;
        let budget = self.runner.max_attempts.max(1);
        let retry = attempts < budget;
        let micros = item.elapsed();
        let (kind, message, reason) = match ended {
            Ok(proto::WorkOutcome::Ok { payload, perf }) => {
                if let Some(store) = self.store {
                    if self.progress.storage_bypass() {
                        self.progress.note_bypassed_write();
                    } else if store.put(item.key, &self.cells[item.idx].spec, &payload).is_err() {
                        self.progress.note_store_error();
                    }
                }
                self.progress.note_engine(perf, micros);
                self.progress.cell_done(self.label(&item), micros, false);
                self.journal(&item, journal::Status::Ok, attempts);
                stats.cells_ok += 1;
                self.finish(item, Ok(CellValue { payload, cached: false, attempts, micros }));
                return None;
            }
            Ok(proto::WorkOutcome::Panic { .. }) if retry => {
                self.progress.note_retry();
                return Some(item);
            }
            Err(_) if retry => {
                self.journal(&item, journal::Status::Crashed, attempts);
                self.progress.note_retry();
                return Some(item);
            }
            Ok(proto::WorkOutcome::Panic { message }) => {
                (QuarantineKind::Panic, message, Json::Null)
            }
            // The work rejected its own inputs: a deterministic verdict,
            // quarantined at once.
            Ok(proto::WorkOutcome::Invalid { reason }) => {
                (QuarantineKind::Invalid, crate::reason_message(&reason), reason)
            }
            // Deterministic too — a pure function of cell identity and
            // budget — so retrying would only reproduce it.
            Ok(proto::WorkOutcome::Deadline { budget_units, spent_units }) => {
                stats.cells_deadline += 1;
                let reason = Json::obj(vec![
                    ("kind", Json::Str("deadline".into())),
                    ("budget_units", Json::U64(budget_units)),
                    ("spent_units", Json::U64(spent_units)),
                ]);
                let message = format!(
                    "deadline: spent {spent_units} work units over the {budget_units}-unit budget"
                );
                (QuarantineKind::Deadline, message, reason)
            }
            // The worker's catalog cannot produce this cell — a config
            // mismatch, deterministic on every retry.
            Ok(proto::WorkOutcome::Unresolvable { message }) => {
                let reason = Json::obj(vec![
                    ("kind", Json::Str("unresolvable-cell".into())),
                    ("message", Json::Str(message.clone())),
                ]);
                (QuarantineKind::Invalid, message, reason)
            }
            Err(cause) => {
                stats.cells_crashed += 1;
                let reason = Json::obj(vec![
                    ("kind", Json::Str("worker-crash".into())),
                    ("cause", Json::Str(cause.to_string())),
                    ("attempts", Json::U64(attempts as u64)),
                ]);
                let message = format!("worker crashed ({cause}) on attempt {attempts} of {budget}");
                (QuarantineKind::Crashed, message, reason)
            }
        };
        self.progress.cell_quarantined(kind, self.label(&item), micros);
        let status = match kind {
            QuarantineKind::Crashed => journal::Status::Crashed,
            _ => journal::Status::Failed,
        };
        self.journal(&item, status, attempts);
        self.finish(item, Err(CellError { message, reason, kind, attempts, micros }));
        None
    }
}

/// One live worker connection: the child, a frame writer over its
/// stdin, and a reader thread pumping decoded frames off its stdout
/// into a channel (so the manager can `recv_timeout` as a watchdog).
struct Conn {
    child: Child,
    tx: FrameWriter<ChildStdin>,
    rx: Receiver<Result<proto::FromWorker, String>>,
    reader: Option<std::thread::JoinHandle<()>>,
}

impl Conn {
    fn spawn(cmd: &[String]) -> Result<Conn, ()> {
        let (program, args) = cmd.split_first().ok_or(())?;
        let mut child = Command::new(program)
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|_| ())?;
        let (stdin, stdout) = match (child.stdin.take(), child.stdout.take()) {
            (Some(i), Some(o)) => (i, o),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(());
            }
        };
        let (sender, rx) = std::sync::mpsc::channel();
        let reader = std::thread::spawn(move || {
            let mut frames = FrameReader::new(stdout);
            loop {
                let msg = match frames.read() {
                    Ok(Some(frame)) => {
                        proto::FromWorker::from_json(&frame).map_err(|e| e.to_string())
                    }
                    Ok(None) => return,
                    Err(e) => Err(e.to_string()),
                };
                let fatal = msg.is_err();
                if sender.send(msg).is_err() || fatal {
                    return;
                }
            }
        });
        Ok(Conn { child, tx: FrameWriter::new(stdin), rx, reader: Some(reader) })
    }

    /// Tear the connection down without ever blocking unboundedly:
    /// best-effort graceful `Shutdown`, then kill (idempotent on an
    /// already-dead child), reap the zombie, and join the reader (its
    /// pipe EOFs once the child is gone).
    fn stop(mut self) {
        let _ = self.tx.write(&proto::ToWorker::Shutdown.to_json());
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testdir::tmp_dir;
    use crate::{CellSpec, RunStatus};

    fn spec(cell: &str) -> CellSpec {
        CellSpec {
            experiment: "iso-unit".into(),
            cell: cell.into(),
            params: Json::Null,
            seed: 3,
            reps: 1,
        }
    }

    fn cells(n: usize) -> Vec<Cell> {
        (0..n).map(|i| Cell::new(spec(&format!("c{i}")), || Json::U64(1))).collect()
    }

    fn no_cache_runner(cfg: IsolateConfig) -> Runner {
        let mut r = Runner::new(2);
        r.cache_mode = CacheMode::Off;
        r.verbose = false;
        r.isolate = Some(cfg);
        r
    }

    #[test]
    fn unspawnable_worker_exhausts_pool_and_degrades() {
        let mut cfg = IsolateConfig::new(vec!["/nonexistent/smi-lab-worker-binary".into()]);
        cfg.workers = 2;
        cfg.respawn_budget = 1;
        cfg.backoff_ms = 1;
        let runner = no_cache_runner(cfg);
        let report = runner.run("iso-unspawnable", cells(3));
        assert_eq!(report.cells_total, 3, "the campaign still drains");
        assert_eq!(report.cells_crashed, 3, "every cell quarantines, none hangs");
        assert_eq!(report.status(), RunStatus::Degraded, "graceful degradation, not collapse");
        let iso = report.isolate.as_ref().expect("isolate accounting present");
        assert!(iso.workers.iter().all(|w| w.gave_up), "both slots spent their budget");
        assert!(iso.workers.iter().all(|w| w.spawns == 0), "nothing ever spawned");
        assert_eq!(iso.pool_exhausted_cells, 3);
        for q in &report.quarantined {
            assert_eq!(
                q.reason.get("kind").and_then(Json::as_str),
                Some("worker-pool-exhausted"),
                "machine-readable reason on every hole"
            );
        }
        let m = report.manifest();
        let iso_m = m.get("isolate").expect("manifest isolate block");
        assert_eq!(iso_m.get("workers").and_then(Json::as_u64), Some(2));
        assert_eq!(iso_m.get("pool_exhausted_cells").and_then(Json::as_u64), Some(3));
    }

    #[test]
    fn protocol_garbage_counts_as_crash_and_consumes_attempts() {
        // A "worker" that emits garbage instead of frames: every
        // dispatch dies with a protocol error, burning one attempt per
        // death, until the cell quarantines as worker-crash.
        let mut cfg = IsolateConfig::new(vec![
            "/bin/sh".into(),
            "-c".into(),
            "echo not-a-frame; sleep 5".into(),
        ]);
        cfg.respawn_budget = 5;
        cfg.backoff_ms = 1;
        let mut runner = no_cache_runner(cfg);
        runner.max_attempts = 2;
        let report = runner.run("iso-garbage", cells(1));
        assert_eq!(report.cells_crashed, 1);
        assert_eq!(report.status(), RunStatus::Degraded);
        let q = &report.quarantined[0];
        assert_eq!(q.reason.get("kind").and_then(Json::as_str), Some("worker-crash"));
        assert_eq!(q.attempts, 2, "the ordinary attempt budget bounds crash retries");
        assert_eq!(report.retries, 1, "the non-final deaths were retries");
    }

    #[test]
    fn crashed_cells_are_journaled_for_resume() {
        let dir = tmp_dir("journal");
        let mut cfg = IsolateConfig::new(vec!["/bin/false".into()]);
        cfg.respawn_budget = 5;
        cfg.backoff_ms = 1;
        let mut runner = Runner::new(1);
        runner.cache_dir = dir.clone();
        runner.verbose = false;
        runner.max_attempts = 2;
        runner.isolate = Some(cfg);
        let report = runner.run("iso-journal", cells(1));
        assert_eq!(report.cells_crashed, 1);
        let j = journal::Journal::load(&journal::journal_path(&dir, "iso-journal"));
        assert_eq!(
            j.status(report.outcomes[0].key),
            Some(journal::Status::Crashed),
            "a worker death mid-cell must be journaled, not silently lost"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
