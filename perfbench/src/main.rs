//! `perfbench` — the smi-lab campaign benchmark (see `README.md`).
//!
//! ```text
//! perfbench --workload <mpi-tables|node-studies|store-churn> --seed N
//!           --seconds S --trace <0|1> --smi-lab PATH --work DIR
//! ```
//!
//! Runs closed-loop campaign rounds of one workload for `--seconds`, one
//! campaign in flight at a time over `nproc` workers, checks every
//! output, and prints one JSON line: the end-to-end metrics (each a sum
//! over a round's items of that item over the run's rounds) with
//! `--trace 0`, the per-layer metrics of a separate traced round with
//! `--trace 1`.

mod campaign;
mod replay;
mod studies;
mod sys;
mod trace;
mod workloads;

use jsonio::Json;
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::time::Instant;
use workloads::{Ctx, Round, Tally, Timings, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smi_lab: PathBuf,
    work: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = workloads::DEFAULT_SEED;
    let mut seconds = None;
    let mut trace = false;
    let mut smi_lab = None;
    let mut work = None;
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => seconds = Some(value()?.parse().map_err(|_| "bad --seconds")?),
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("bad --trace {v}")),
                }
            }
            "--smi-lab" => smi_lab = Some(PathBuf::from(value()?)),
            "--work" => work = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        smi_lab: smi_lab.ok_or("--smi-lab is required")?,
        work: work.ok_or("--work is required")?,
    })
}

fn unix_nanos() -> u128 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos())
        .unwrap_or(0)
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Sum over a round's items of each item's median over the run's
/// rounds. Every round times the same items in the same order.
fn per_item(rounds: &[Timings], item: fn(&Timings) -> &[f64]) -> f64 {
    (0..item(&rounds[0]).len()).map(|i| median(rounds.iter().map(|r| item(r)[i]).collect())).sum()
}

type Metric = (&'static str, f64, &'static str);

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(result) => println!("{result}"),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

fn run(args: &Args) -> Result<String, String> {
    let jobs = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let name = args.workload.name();
    let ctx = Ctx {
        workload: args.workload,
        seed: args.seed,
        smi_lab: args.smi_lab.clone(),
        work: args.work.join(format!("{name}-{}-{}", std::process::id(), unix_nanos())),
    };
    std::fs::create_dir_all(&ctx.work).map_err(|e| format!("{}: {e}", ctx.work.display()))?;
    // The run's stores are left in place. On the reference box's ext4,
    // mounted with `discard`, deleting them slows file metadata work for
    // tens of seconds, and in back-to-back runs that debt piles up into
    // the next runs' `setup_s` and `warm_s` (see README.md).
    let mut tally = Tally::default();
    let metrics = measure(args, &ctx, jobs, &mut tally)?;
    for p in &tally.problems {
        eprintln!("[perfbench] FAILED: {p}");
    }
    eprintln!(
        "[perfbench] {name} seed {} jobs {jobs}: {} attempted, {} failed",
        args.seed, tally.attempted, tally.failed
    );
    for (m, v, u) in &metrics {
        eprintln!("[perfbench]   {m:<34} {:>14.6} {u}", v + 0.0);
    }
    let metrics = Json::Obj(
        metrics
            .into_iter()
            .map(|(m, v, u)| {
                // `+ 0.0` turns the `-0.0` of an empty f64 sum into 0.
                let value = Json::F64(v + 0.0);
                (m.to_string(), Json::obj(vec![("value", value), ("unit", Json::Str(u.into()))]))
            })
            .collect(),
    );
    Ok(Json::obj(vec![
        ("correct", Json::Bool(tally.failed == 0)),
        ("attempted", Json::U64(tally.attempted)),
        ("failed", Json::U64(tally.failed)),
        ("metrics", metrics),
    ])
    .to_string())
}

fn measure(args: &Args, ctx: &Ctx, jobs: usize, tally: &mut Tally) -> Result<Vec<Metric>, String> {
    // The traced run keeps half its time for the untraced rounds its
    // trace overhead is measured against.
    let budget = if args.trace { args.seconds / 2.0 } else { args.seconds };
    let min_rounds = if args.trace { 1 } else { 3 };
    let t0 = Instant::now();
    let first = workloads::round(ctx, jobs, tally)?;
    // Peak memory of a process that has run one round, as one `smi-lab`
    // invocation runs one campaign. Later rounds only add allocator
    // fragmentation that grows with the number of rounds a run fits.
    let peak_rss_mb = sys::peak_rss_mb();
    let first_exact = first.exact();
    let first_spawns = first.worker_spawns();
    let mut timings = vec![summary(&first)];
    while t0.elapsed().as_secs_f64() < budget || timings.len() < min_rounds {
        let r = workloads::round(ctx, jobs, tally)?;
        tally.same_records(&first.records, &r.records, "round vs first round");
        if r.exact() != first_exact {
            tally.fail(1, format!("work counters {:?} vs first round {first_exact:?}", r.exact()));
        }
        if r.worker_spawns() != first_spawns {
            let spawns = r.worker_spawns();
            tally.fail(1, format!("{spawns} worker spawns vs {first_spawns} in the first round"));
        }
        timings.push(summary(&r));
    }
    workloads::check_digests(ctx, &first.records, tally);
    workloads::check_transports(ctx, &first, tally)?;
    if !args.trace {
        // The host's CPU speed drifts both ways over seconds to minutes,
        // so each item counts at its median round: the fastest round of
        // a 5-round run is as much luck as its slowest (README.md).
        return Ok(vec![
            ("campaign_s", per_item(&timings, |t| &t.cold_s), "s"),
            ("setup_s", per_item(&timings, |t| &t.setup_s), "s"),
            ("cpu_s", per_item(&timings, |t| &t.cpu_s), "s"),
            ("peak_rss_mb", peak_rss_mb, "MB"),
        ]);
    }
    let untraced_campaign_s = per_item(&timings, |t| &t.cold_s);
    // A warm pass is a few milliseconds of file work, which moved with
    // the host's slow phases by more than an end-to-end bound allows
    // (README.md). It is reported here, from the untraced rounds,
    // without a bound.
    let warm_s = per_item(&timings, |t| &t.warm_s);
    drop(timings);

    trace::enable(true);
    let traced = workloads::round(ctx, jobs, tally)?;
    let single = workloads::round(ctx, 1, tally)?;
    let replay_run = campaign::next_run();
    trace::set_run(replay_run);
    let opts = args.workload.campaigns(args.seed)[0];
    let outcomes: Vec<runner::CellOutcome> =
        traced.campaigns.iter().flat_map(|c| c.cold.report.outcomes.iter().cloned()).collect();
    match args.workload {
        Workload::MpiTables => replay::mpi_cells(&opts, &outcomes, tally),
        Workload::NodeStudies => replay::node_apps(&opts, &outcomes, tally),
        Workload::StoreChurn => {}
    }
    let cells: Vec<(runner::CellSpec, Json)> =
        outcomes.iter().filter_map(|o| o.payload().map(|p| (o.spec.clone(), p.clone()))).collect();
    replay::storage(
        &traced.store,
        args.workload.name(),
        &ctx.work.join("replay-store"),
        &cells,
        &traced.records,
        tally,
    );
    trace::enable(false);

    let spans = trace::spans();
    tally.same_records(&first.records, &traced.records, "traced vs untraced records");
    tally.same_records(&traced.records, &single.records, "jobs 1 vs jobs N records");
    let (exact_n, exact_1) = (exact_counters(&traced, &spans), exact_counters(&single, &spans));
    if exact_n != exact_1 {
        tally.fail(1, format!("exact counters at jobs {jobs} {exact_n:?} vs jobs 1 {exact_1:?}"));
    }
    if traced.exact() != first_exact || traced.worker_spawns() != first_spawns {
        tally.fail(1, "traced round moved the work counters".into());
    }
    let mut metrics = vec![("warm_s", warm_s, "s")];
    metrics.extend(layers(&traced, &spans, replay_run, untraced_campaign_s));
    let path = args.work.join(format!("trace-{}-{}.json", args.workload.name(), args.seed));
    trace::write(
        &path,
        vec![
            ("workload", Json::Str(args.workload.name().into())),
            ("seed", Json::U64(args.seed)),
            ("jobs", Json::U64(jobs as u64)),
        ],
    )
    .map_err(|e| format!("write {}: {e}", path.display()))?;
    eprintln!("[perfbench] trace written to {}", path.display());
    Ok(metrics)
}

/// Log a round's sums and keep its timings.
fn summary(r: &Round) -> Timings {
    let t = &r.timings;
    let sum = |v: &[f64]| v.iter().sum::<f64>();
    eprintln!(
        "[perfbench] round: campaign_s {:.4} warm_s {:.4} setup_s {:.5} cpu_s {:.3}",
        sum(&t.cold_s),
        sum(&t.warm_s),
        sum(&t.setup_s),
        sum(&t.cpu_s)
    );
    t.clone()
}

/// Trace run ids of a round's cold passes.
fn cold_runs(r: &Round) -> BTreeSet<u64> {
    r.campaigns.iter().map(|c| c.cold.run).collect()
}

/// Counters that must not depend on the worker count: the round's
/// report counters plus those its spans carry.
fn exact_counters(r: &Round, spans: &[trace::Span]) -> Vec<(&'static str, u64)> {
    let runs = cold_runs(r);
    let mut out = r.exact();
    for (name, counter) in [("smi-driver.polls", "polls"), ("smi-driver.detections", "detections")]
    {
        let total = spans
            .iter()
            .filter(|s| s.name == "smi-driver.detect" && runs.contains(&s.run))
            .map(|s| s.counter(counter))
            .sum();
        out.push((name, total));
    }
    out
}

/// Experiments whose cell busy time is reported per experiment.
const EXPERIMENTS: [(&str, &str); 10] = [
    ("table-BT", "analysis.busy_s.table-BT"),
    ("table-EP", "analysis.busy_s.table-EP"),
    ("table-FT", "analysis.busy_s.table-FT"),
    ("htt-EP", "analysis.busy_s.htt-EP"),
    ("htt-FT", "analysis.busy_s.htt-FT"),
    ("figure1", "analysis.busy_s.figure1"),
    ("figure2", "analysis.busy_s.figure2"),
    ("x-detect", "analysis.busy_s.x-detect"),
    ("x-variance", "analysis.busy_s.x-variance"),
    ("noise", "analysis.busy_s.noise"),
];

/// Per-layer metrics of the traced round and the replays.
fn layers(traced: &Round, spans: &[trace::Span], replay_run: u64, untraced_s: f64) -> Vec<Metric> {
    let cold = cold_runs(traced);
    let all: BTreeSet<u64> = traced
        .campaigns
        .iter()
        .flat_map(|c| c.warm.iter().chain([&c.cold]).map(|p| p.run))
        .collect();
    let total = |name: &str, runs: &dyn Fn(u64) -> bool| -> f64 {
        spans.iter().filter(|s| s.name == name && runs(s.run)).map(trace::Span::secs).sum()
    };
    let counted = |name: &str, counter: &str, runs: &dyn Fn(u64) -> bool| -> f64 {
        spans
            .iter()
            .filter(|s| s.name == name && runs(s.run))
            .map(|s| s.counter(counter))
            .sum::<u64>() as f64
    };
    let in_round = |run: u64| all.contains(&run);
    let in_cold = |run: u64| cold.contains(&run);
    let in_replay = |run: u64| run == replay_run;
    let cells: Vec<&trace::Span> =
        spans.iter().filter(|s| s.name == "analysis.cell" && cold.contains(&s.run)).collect();
    let experiment = |s: &trace::Span| s.detail.split('/').next().unwrap_or("").to_string();

    let mut m: Vec<Metric> = vec![
        ("analysis.catalog_s", total("analysis.catalog", &in_round), "s"),
        ("analysis.assemble_s", total("analysis.assemble", &in_round), "s"),
        ("analysis.cell_max_s", cells.iter().map(|s| s.secs()).fold(0.0, f64::max), "s"),
    ];
    for (exp, metric) in EXPERIMENTS {
        let busy = cells.iter().filter(|s| experiment(s) == exp).map(|s| s.secs()).sum();
        m.push((metric, busy, "s"));
    }

    let exact = traced.exact();
    let get =
        |name: &str| exact.iter().find(|(n, _)| *n == name).map(|(_, v)| *v as f64).unwrap_or(0.0);
    let engine_cells: Vec<&&trace::Span> =
        cells.iter().filter(|s| s.counter("events_popped") > 0).collect();
    let events: u64 = engine_cells.iter().map(|s| s.counter("events_popped")).sum();
    let engine_busy: f64 = engine_cells.iter().map(|s| s.secs()).sum();
    let ns_per_event = if events > 0 { engine_busy * 1e9 / events as f64 } else { 0.0 };
    m.extend([
        ("nas.lower_s", total("nas.programs", &in_replay), "s"),
        ("nas.ops", counted("nas.programs", "ops", &in_replay), "count"),
        ("mpi-sim.runs", get("mpi-sim.runs"), "count"),
        ("mpi-sim.events_popped", get("mpi-sim.events_popped"), "count"),
        ("mpi-sim.queue_peak", get("mpi-sim.queue_peak"), "count"),
        ("mpi-sim.ns_per_event", ns_per_event, "ns"),
        ("mpi-sim.run_s", total("mpi-sim.run", &in_replay), "s"),
        ("mpi-sim.messages", counted("mpi-sim.run", "messages", &in_replay), "count"),
        ("mpi-sim.bytes", counted("mpi-sim.run", "bytes", &in_replay), "bytes"),
        ("apps.convolve_s", total("apps.run_convolve", &in_replay), "s"),
        ("apps.convolve_calls", counted("apps.run_convolve", "calls", &in_replay), "count"),
        ("apps.smm_windows", counted("apps.run_convolve", "smm_windows", &in_replay), "count"),
        ("apps.ubench_s", total("apps.run_suite", &in_replay), "s"),
        ("smi-driver.detect_s", total("smi-driver.detect", &in_cold), "s"),
        ("smi-driver.polls", counted("smi-driver.detect", "polls", &in_cold), "count"),
        ("smi-driver.detections", counted("smi-driver.detect", "detections", &in_cold), "count"),
        ("runner.open_s", total("runner.open", &in_replay), "s"),
        ("runner.put_s", total("runner.put", &in_replay), "s"),
        ("runner.load_s", total("runner.load", &in_replay), "s"),
        ("runner.store_puts", get("runner.store_puts"), "count"),
        ("runner.store_hits", get("runner.store_hits"), "count"),
        ("runner.fsyncs", get("runner.fsyncs"), "count"),
    ]);

    // Pool passes: per worker thread, the time after its last cell while
    // the others drain is tail; the rest of the execution window outside
    // cells is runner overhead.
    let jobs = traced.jobs as f64;
    let (mut tail, mut pool_over, mut pool_busy, mut pool_cap) = (0.0, 0.0, 0.0, 0.0);
    let (mut iso_over, mut iso_busy, mut iso_cap) = (0.0, 0.0, 0.0);
    for c in traced.campaigns.iter().map(|c| &c.cold) {
        let cap = jobs * c.wall_s;
        if c.report.isolate.is_some() {
            // A worker's cell time is not visible here: busy is the
            // dispatch-to-reply time of each cell.
            let busy: f64 = c.report.outcomes.iter().map(|o| o.micros() as f64 * 1e-6).sum();
            iso_busy += busy;
            iso_cap += cap;
            iso_over += cap - busy;
            continue;
        }
        let mine: Vec<&&trace::Span> = cells.iter().filter(|s| s.run == c.run).collect();
        let (Some(start), Some(end)) =
            (mine.iter().map(|s| s.start_ns).min(), mine.iter().map(|s| s.end_ns).max())
        else {
            continue;
        };
        let window = (end - start) as f64 * 1e-9;
        let busy: f64 = mine.iter().map(|s| s.secs()).sum();
        let threads: BTreeSet<u64> = mine.iter().map(|s| s.thread).collect();
        let mut idle = (jobs - threads.len() as f64).max(0.0) * window;
        for t in &threads {
            let last =
                mine.iter().filter(|s| s.thread == *t).map(|s| s.end_ns).max().unwrap_or(end);
            idle += (end - last) as f64 * 1e-9;
        }
        tail += idle;
        pool_over += jobs * window - busy - idle;
        pool_busy += busy;
        pool_cap += cap;
    }
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    m.extend([
        ("runner.worker_spawns", traced.worker_spawns() as f64, "count"),
        ("runner.tail_idle_s", tail, "s"),
        ("runner.overhead_s.pool", pool_over, "s"),
        ("runner.overhead_s.isolate", iso_over, "s"),
        ("runner.parallel_efficiency.pool", ratio(pool_busy, pool_cap), "ratio"),
        ("runner.parallel_efficiency.isolate", ratio(iso_busy, iso_cap), "ratio"),
        ("jsonio.records_bytes", traced.records.len() as f64, "bytes"),
        ("jsonio.serialize_s", total("jsonio.serialize", &in_replay), "s"),
        ("jsonio.parse_s", total("jsonio.parse", &in_replay), "s"),
        ("trace_overhead", ratio(traced.timings.cold_s.iter().sum(), untraced_s) - 1.0, "ratio"),
    ]);
    m
}
