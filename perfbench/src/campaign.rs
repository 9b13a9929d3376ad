//! One campaign pass through the same public entry points `smi-lab`
//! uses: the `analysis` cell builders, `runner::Runner::try_run`, the run
//! manifest, the JSONL records, and `analysis::assemble_*` plus render.

use crate::{sys, trace};
use analysis::cells::{
    assemble_figure1, assemble_figure2, assemble_htt_table, assemble_table, figure1_cells,
    figure2_cells, htt_cells, table_cells, text_cell, text_payload,
};
use analysis::{
    assemble_noise, noise_cell, render_figure1, render_figure2, render_htt_table, render_noise,
    render_table, RunOptions,
};
use jsonio::Json;
use nas::Bench;
use runner::vfs::{FaultPlan, Vfs};
use runner::{CacheMode, Cell, RunReport, Runner};
use std::path::Path;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// The code-version tag `smi-lab` mixes into every cache key, so a
/// benchmark store is laid out exactly like the CLI's.
pub const CODE_VERSION: &str = "smi-lab-0.1.0+schema1";

/// One artifact of a campaign: its cells and how they are rendered.
#[derive(Clone, Copy)]
pub enum Part {
    /// Table 1–3 (`smi-lab table1..3`).
    Table(u32, Bench),
    /// Table 4–5 (`smi-lab table4..5`).
    Htt(u32, Bench),
    Figure1,
    Figure2,
    /// An X-series study run as one text cell.
    Study(&'static str, fn(&RunOptions) -> String),
    /// The fixed-budget noise-shape study.
    Noise,
}

impl Part {
    fn cells(self, opts: &RunOptions) -> Vec<Cell> {
        match self {
            Part::Table(_, bench) => table_cells(bench, opts),
            Part::Htt(_, bench) => htt_cells(bench, opts),
            // `smi-lab` caps Figure 1 at three reps.
            Part::Figure1 => figure1_cells(&RunOptions { reps: opts.reps.min(3), ..*opts }),
            Part::Figure2 => figure2_cells(opts),
            Part::Study(name, render) => vec![text_cell(name, opts, render)],
            Part::Noise => noise::FIXED_BUDGET_SPECS.iter().map(|s| noise_cell(opts, s)).collect(),
        }
    }

    fn render(self, payloads: &[Json]) -> String {
        match self {
            Part::Table(n, bench) => render_table(&assemble_table(bench, payloads), n),
            Part::Htt(n, bench) => render_htt_table(&assemble_htt_table(bench, payloads), n),
            Part::Figure1 => render_figure1(&assemble_figure1(payloads)),
            Part::Figure2 => render_figure2(&assemble_figure2(payloads)),
            Part::Study(..) => text_payload(&payloads[0]).to_string(),
            Part::Noise => render_noise(&assemble_noise(&noise::FIXED_BUDGET_SPECS, payloads)),
        }
    }
}

/// How cells reach a worker.
#[derive(Clone)]
pub enum Transport {
    /// The in-process thread pool.
    Pool,
    /// `--isolate`: supervised `smi-lab worker` subprocesses running
    /// this command line.
    Isolate(Vec<String>),
}

impl Transport {
    pub fn is_isolate(&self) -> bool {
        matches!(self, Transport::Isolate(_))
    }
}

/// The `smi-lab worker` command line for one campaign's options.
pub fn worker_cmd(smi_lab: &Path, opts: &RunOptions) -> Vec<String> {
    vec![
        smi_lab.display().to_string(),
        "worker".into(),
        "--reps".into(),
        opts.reps.to_string(),
        "--seed".into(),
        opts.seed.to_string(),
    ]
}

pub struct PassSpec<'a> {
    pub label: &'a str,
    pub store: &'a Path,
    pub cache: CacheMode,
    pub jobs: usize,
    pub transport: &'a Transport,
    pub parts: &'a [Part],
    pub opts: RunOptions,
}

/// What one pass produced and cost.
pub struct Pass {
    pub report: RunReport,
    /// Trace run id of the pass's spans.
    pub run: u64,
    pub wall_s: f64,
    pub catalog_s: f64,
    /// Pass start to the first cell closure entered; `None` when no
    /// cell ran in this process.
    pub first_cell_s: Option<f64>,
    pub cpu_s: f64,
    /// Atomic publishes of the pass, the manifest's included: the fsyncs
    /// a durable store would have waited for.
    pub fsyncs: u64,
    pub records: String,
    pub rendered: String,
}

static NEXT_RUN: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);

/// A fresh trace run id.
pub fn next_run() -> u64 {
    NEXT_RUN.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
}

/// The filesystem every benchmark store is written through: the
/// program's own fault layer with every publish's fsync dropped (what
/// `smi-lab --vfs-faults dropfsync=1000` does). Bytes, renames and
/// records are unchanged, but no pass waits on the disk's write barrier,
/// whose latency on a shared disk doubles and halves over minutes
/// (README.md). Each dropped fsync is counted, so the barriers a pass
/// would pay stay visible as `runner.fsyncs`.
pub fn store_vfs() -> Vfs {
    let mut plan = FaultPlan::default();
    plan.drop_fsync_permille = 1000;
    Vfs::faulty(plan)
}

fn runner_for(spec: &PassSpec) -> Runner {
    let mut r = Runner::new(spec.jobs);
    r.cache_mode = spec.cache;
    r.cache_dir = spec.store.to_path_buf();
    r.code_version = CODE_VERSION.to_string();
    r.verbose = false;
    r.vfs = store_vfs();
    // The probe `smi-lab` installs: the engine's thread-local counters,
    // taken around each cell.
    r.perf_probe = Some(Arc::new(|| {
        let p = sim_core::perf::take();
        runner::EnginePerf {
            events_popped: p.events_popped,
            queue_peak: p.queue_peak,
            runs: p.runs,
        }
    }));
    if let Transport::Isolate(cmd) = spec.transport {
        let mut cfg = runner::supervisor::IsolateConfig::new(cmd.clone());
        cfg.workers = spec.jobs;
        r.isolate = Some(cfg);
    }
    r
}

/// Wrap each cell's work to note when the first cell starts and, when
/// tracing, to record an `analysis.cell` span with the engine counters
/// the cell moved. The runner's probe resets the counters right before
/// each cell, so a snapshot after the work is the cell's own.
fn wrap(cells: Vec<Cell>, first: &Arc<OnceLock<Instant>>, parent: u64) -> Vec<Cell> {
    cells
        .into_iter()
        .map(|Cell { spec, work }| {
            let first = Arc::clone(first);
            let detail = format!("{}/{}", spec.experiment, spec.cell);
            let traced = move || {
                first.get_or_init(Instant::now);
                if !trace::enabled() {
                    return work();
                }
                trace::span_under(parent, "analysis.cell", &detail, || {
                    let before = sim_core::perf::snapshot();
                    let out = work();
                    let after = sim_core::perf::snapshot();
                    trace::count("events_popped", after.events_popped - before.events_popped);
                    trace::count("runs", after.runs - before.runs);
                    trace::count("queue_peak", after.queue_peak);
                    out
                })
            };
            Cell { spec, work: Box::new(traced) }
        })
        .collect()
}

/// Run one pass: build the catalog, run it, write the manifest, mint the
/// records, assemble and render every artifact.
pub fn run_pass(spec: &PassSpec) -> Result<Pass, String> {
    let run = next_run();
    trace::set_run(run);
    let cpu0 = sys::cpu_seconds();
    let t0 = Instant::now();
    let first = Arc::new(OnceLock::new());
    let runner = runner_for(spec);
    let (report, catalog_s, records, rendered) = trace::span("campaign.pass", spec.label, || {
        let parent = trace::current();
        let (cells, lens) = trace::span("analysis.catalog", spec.label, || {
            let mut cells = Vec::new();
            let mut lens = Vec::new();
            for part in spec.parts {
                let batch = part.cells(&spec.opts);
                lens.push(batch.len());
                cells.extend(batch);
            }
            (cells, lens)
        });
        let catalog_s = t0.elapsed().as_secs_f64();
        let cells = wrap(cells, &first, parent);
        let report = runner.try_run(spec.label, cells).map_err(|e| e.to_string())?;
        if spec.cache != CacheMode::Off {
            trace::span("runner.manifest", spec.label, || {
                report.write_manifest_with(&runner.vfs, spec.store)
            })
            .map_err(|e| format!("manifest: {e}"))?;
        }
        let records = trace::span("runner.records", spec.label, || report.records_jsonl());
        let rendered = trace::span("analysis.assemble", spec.label, || {
            let payloads = report.payloads();
            let mut at = 0;
            let mut out = String::new();
            for (part, len) in spec.parts.iter().zip(lens) {
                out.push_str(&part.render(&payloads[at..at + len]));
                at += len;
            }
            out
        });
        Ok::<_, String>((report, catalog_s, records, rendered))
    })?;
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = sys::cpu_seconds() - cpu0;
    let first_cell_s = first.get().map(|t| t.duration_since(t0).as_secs_f64());
    let fsyncs = runner.vfs.injected();
    Ok(Pass { report, run, wall_s, catalog_s, first_cell_s, cpu_s, fsyncs, records, rendered })
}

/// Time from pass start to the first cell entering, for a pass whose
/// cells give up at once: the set-up of a cold pass (catalog, lock,
/// `Store::open`, journal, pool start) without the campaign after it.
pub fn setup_probe(spec: &PassSpec) -> Result<f64, String> {
    let t0 = Instant::now();
    let first = Arc::new(OnceLock::new());
    let cells = spec
        .parts
        .iter()
        .flat_map(|part| part.cells(&spec.opts))
        .map(|Cell { spec, .. }| {
            let first = Arc::clone(&first);
            Cell::fallible(spec, move || {
                first.get_or_init(Instant::now);
                Err(Json::Str("setup probe".into()))
            })
        })
        .collect();
    runner_for(spec).try_run(spec.label, cells).map_err(|e| e.to_string())?;
    let first = first.get().ok_or("setup probe ran no cell")?;
    Ok(first.duration_since(t0).as_secs_f64())
}

/// Spawn `workers` copies of the worker command at once and wait until
/// each has built its catalog and said hello: the worker start-up an
/// `--isolate` pass pays before its first cell runs.
pub fn worker_start_s(cmd: &[String], workers: usize) -> Result<f64, String> {
    use jsonio::framed::FrameReader;
    use std::process::{Command, Stdio};
    let t0 = Instant::now();
    let mut children = Vec::new();
    let mut failure = None;
    for _ in 0..workers {
        let spawned = Command::new(&cmd[0])
            .args(&cmd[1..])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn();
        match spawned {
            Ok(child) => children.push(child),
            Err(e) => {
                failure = Some(format!("spawn {}: {e}", cmd[0]));
                break;
            }
        }
    }
    let mut hellos = 0;
    for child in &mut children {
        if let Some(out) = child.stdout.as_mut() {
            let frame = FrameReader::new(out).read();
            let hello = matches!(&frame, Ok(Some(f)) if f.get("type").and_then(Json::as_str) == Some("hello"));
            hellos += hello as usize;
        }
    }
    let elapsed = t0.elapsed().as_secs_f64();
    // Every started worker is shut down and waited for, also on failure:
    // EOF on stdin is its clean shutdown.
    for mut child in children {
        drop(child.stdin.take());
        if let Err(e) = child.wait() {
            failure.get_or_insert(format!("wait worker: {e}"));
        }
    }
    if let Some(failure) = failure {
        return Err(failure);
    }
    if hellos != workers {
        return Err(format!("{hellos} of {workers} workers said hello"));
    }
    Ok(elapsed)
}
