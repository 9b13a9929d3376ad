//! The three campaign workloads, their rounds, and the correctness gate.
//!
//! A round is one fixed unit of a workload's work against a fresh store:
//! every campaign of the round runs a cold pass (every cell computed and
//! stored) and then warm `--resume` passes (every cell a store hit). A run
//! repeats rounds until its time is up and takes each timed item of a
//! round over the run's rounds, so a round's numbers do not depend on how
//! many rounds came before.

use crate::campaign::{self, Part, Pass, PassSpec, Transport};
use analysis::RunOptions;
use nas::Bench;
use runner::CacheMode;
use std::path::{Path, PathBuf};

/// The seed `smi-lab` uses by default.
pub const DEFAULT_SEED: u64 = 20160816;

/// FNV-1a 64 of the Table 1–5 then Figure 1–2 records of the quick
/// campaign at the default seed; `tests/determinism.rs` pins the same
/// value.
pub const GOLDEN_CAMPAIGN_DIGEST: u64 = 0x3973ac67ffcc0734;

/// Pinned at the default seed when the benchmark was defined: each
/// workload's cold records of one round. The mpi-tables digest is also
/// the FNV state from which the Figure 1–2 records of node-studies must
/// reach the golden digest.
pub const MPI_TABLES_DIGEST: u64 = 0x47c8ba607b4a8250;
pub const NODE_STUDIES_DIGEST: u64 = 0xdaa4ec6f317e2261;
pub const STORE_CHURN_DIGEST: u64 = 0x7c59a652943cc4e0;

/// Campaigns per store-churn round; transports alternate, so half run
/// in-process and half under `--isolate`.
pub const CHURN_CAMPAIGNS: u64 = 16;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    MpiTables,
    NodeStudies,
    StoreChurn,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "mpi-tables" => Some(Workload::MpiTables),
            "node-studies" => Some(Workload::NodeStudies),
            "store-churn" => Some(Workload::StoreChurn),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::MpiTables => "mpi-tables",
            Workload::NodeStudies => "node-studies",
            Workload::StoreChurn => "store-churn",
        }
    }

    pub fn parts(self) -> Vec<Part> {
        match self {
            Workload::MpiTables => vec![
                Part::Table(1, Bench::Bt),
                Part::Table(2, Bench::Ep),
                Part::Table(3, Bench::Ft),
                Part::Htt(4, Bench::Ep),
                Part::Htt(5, Bench::Ft),
            ],
            Workload::NodeStudies => vec![
                Part::Figure1,
                Part::Figure2,
                Part::Study("x-detect", crate::studies::detect),
                Part::Study("x-variance", crate::studies::variance),
            ],
            Workload::StoreChurn => {
                vec![Part::Table(2, Bench::Ep), Part::Htt(4, Bench::Ep), Part::Noise]
            }
        }
    }

    /// The options of each campaign of a round. The program only ever
    /// sees these generated options: the seed itself, or for
    /// store-churn one derived seed per campaign.
    pub fn campaigns(self, seed: u64) -> Vec<RunOptions> {
        let quick = RunOptions::quick();
        match self {
            Workload::StoreChurn => {
                (0..CHURN_CAMPAIGNS).map(|i| quick.with_seed(derive_seed(seed, i))).collect()
            }
            _ => vec![quick.with_seed(seed)],
        }
    }

    /// Warm passes per campaign, summed into `warm_s`. A warm pass of one
    /// big campaign takes a few milliseconds of file I/O, so mpi-tables
    /// and node-studies repeat it until a round's sum is about 0.1 s;
    /// store-churn already sums sixteen campaigns.
    pub fn warm_passes(self) -> usize {
        match self {
            Workload::StoreChurn => 1,
            _ => 16,
        }
    }

    /// Extra set-up probes per campaign, summed into `setup_s` with the
    /// cold pass's own set-up. mpi-tables and node-studies set up one
    /// cold pass per round, a millisecond or two, so they add probes
    /// until a round's sum is tens of milliseconds; store-churn already
    /// sums sixteen campaigns.
    pub fn setup_probes(self) -> usize {
        match self {
            Workload::StoreChurn => 0,
            _ => 48,
        }
    }

    /// Transport of campaign `i`: store-churn alternates pool and
    /// `--isolate`; the other workloads run in-process like `smi-lab all`.
    pub fn transport(self, i: usize, smi_lab: &Path, opts: &RunOptions) -> Transport {
        if self == Workload::StoreChurn && i % 2 == 1 {
            Transport::Isolate(campaign::worker_cmd(smi_lab, opts))
        } else {
            Transport::Pool
        }
    }
}

/// SplitMix64 of `seed` and `i`: the benchmark's own generator, so its
/// inputs do not move when the program's RNG changes.
fn derive_seed(seed: u64, i: u64) -> u64 {
    let mut z = seed.wrapping_add((i + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// FNV-1a 64 continued from `state` (start from the offset basis).
pub fn fnv1a64_from(mut state: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        state ^= b as u64;
        state = state.wrapping_mul(0x100000001b3);
    }
    state
}

pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_from(0xcbf29ce484222325, bytes)
}

/// Cells attempted and failed, and why they failed.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Tally {
    pub fn fail(&mut self, cells: u64, why: String) {
        self.failed += cells.max(1);
        self.problems.push(why);
    }

    /// Fail when two record sets differ, counting the differing lines.
    pub fn same_records(&mut self, a: &str, b: &str, what: &str) {
        if a != b {
            let differing = a.lines().zip(b.lines()).filter(|(x, y)| x != y).count()
                + a.lines().count().abs_diff(b.lines().count());
            self.fail(differing as u64, format!("{what}: {differing} record(s) differ"));
        }
    }

    /// Account a pass and check it ran clean: no quarantined cell, no
    /// storage fault, a record per cell, and every cell computed (cold)
    /// or served from the store (warm).
    pub fn check_pass(&mut self, pass: &Pass, warm: bool, what: &str) {
        let r = &pass.report;
        self.attempted += r.cells_total;
        let lost = r.cells_failed + r.cells_invalid + r.cells_crashed + r.cells_deadline;
        if lost > 0 {
            self.fail(lost, format!("{what}: {lost} cell(s) quarantined"));
        } else if r.status() != runner::RunStatus::Clean {
            self.fail(1, format!("{what}: run {}", r.status().label()));
        }
        let records = pass.records.lines().count() as u64;
        if records != r.cells_total {
            self.fail(r.cells_total.abs_diff(records), format!("{what}: {records} records"));
        }
        let expected_cached = if warm { r.cells_total } else { 0 };
        if r.cells_cached != expected_cached {
            self.fail(
                r.cells_total.abs_diff(r.cells_cached),
                format!("{what}: {} of {} cells from the store", r.cells_cached, r.cells_total),
            );
        }
    }
}

pub struct Ctx {
    pub workload: Workload,
    pub seed: u64,
    pub smi_lab: PathBuf,
    pub work: PathBuf,
}

/// One campaign's cold pass and its warm passes.
pub struct CampaignPasses {
    pub isolate: bool,
    pub cold: Pass,
    pub warm: Vec<Pass>,
}

/// The timed items of one round, each list in an order that every round
/// of a run repeats, so a run can take each item over its rounds.
#[derive(Clone, Default)]
pub struct Timings {
    /// Wall time of each campaign's cold pass.
    pub cold_s: Vec<f64>,
    /// CPU time of each campaign's cold pass.
    pub cpu_s: Vec<f64>,
    /// Wall time of every warm pass.
    pub warm_s: Vec<f64>,
    /// Each campaign's cold-pass set-up, then its set-up probes.
    pub setup_s: Vec<f64>,
}

/// One round's passes and what they cost.
pub struct Round {
    pub jobs: usize,
    pub timings: Timings,
    /// Cold records of every campaign, in campaign order.
    pub records: String,
    pub campaigns: Vec<CampaignPasses>,
    /// The round's store. The benchmark never deletes a store: the
    /// reference box's ext4 discards freed blocks at journal commit, so
    /// a deletion stalls the fsyncs and metadata writes that follow it.
    pub store: PathBuf,
}

impl Round {
    /// Deterministic work counters that must repeat exactly on every
    /// round of one seed, whatever the worker count.
    pub fn exact(&self) -> Vec<(&'static str, u64)> {
        let mut events = 0;
        let mut runs = 0;
        let mut peak = 0;
        let mut puts = 0;
        let mut hits = 0;
        let mut fsyncs = 0;
        for c in &self.campaigns {
            for p in std::iter::once(&c.cold).chain(&c.warm) {
                let r = &p.report;
                events += r.engine.events_popped;
                runs += r.engine.runs;
                peak = peak.max(r.engine.queue_peak);
                puts += r.store.puts;
                hits += r.store.hits + r.store.dedup_hits;
                fsyncs += p.fsyncs;
            }
        }
        vec![
            ("mpi-sim.events_popped", events),
            ("mpi-sim.runs", runs),
            ("mpi-sim.queue_peak", peak),
            ("runner.store_puts", puts),
            ("runner.store_hits", hits),
            ("runner.fsyncs", fsyncs),
            ("jsonio.records_bytes", self.records.len() as u64),
        ]
    }

    /// `smi-lab worker` processes the cold `--isolate` passes started.
    /// Exact for a given `jobs`, so it is compared only between rounds
    /// at the same worker count.
    pub fn worker_spawns(&self) -> u64 {
        self.campaigns
            .iter()
            .filter_map(|c| c.cold.report.isolate.as_ref())
            .flat_map(|iso| &iso.workers)
            .map(|w| w.spawns)
            .sum()
    }
}

/// Run one round at `jobs` workers into a fresh store.
pub fn round(ctx: &Ctx, jobs: usize, tally: &mut Tally) -> Result<Round, String> {
    let store = ctx.work.join(format!("store-{}", campaign::next_run()));
    let parts = ctx.workload.parts();
    let label = ctx.workload.name();
    let mut r = Round {
        jobs,
        timings: Timings::default(),
        records: String::new(),
        campaigns: Vec::new(),
        store,
    };
    for (i, opts) in ctx.workload.campaigns(ctx.seed).into_iter().enumerate() {
        let transport = ctx.workload.transport(i, &ctx.smi_lab, &opts);
        let spawn_s = match &transport {
            Transport::Isolate(cmd) => campaign::worker_start_s(cmd, jobs)?,
            Transport::Pool => 0.0,
        };
        let spec = PassSpec {
            label,
            store: &r.store,
            cache: CacheMode::ReadWrite,
            jobs,
            transport: &transport,
            parts: &parts,
            opts,
        };
        let what = format!("{label} campaign {i} seed {}", opts.seed);
        let cold = campaign::run_pass(&spec)?;
        tally.check_pass(&cold, false, &format!("{what} cold"));
        let mut warm = Vec::new();
        for _ in 0..ctx.workload.warm_passes() {
            let pass = campaign::run_pass(&spec)?;
            tally.check_pass(&pass, true, &format!("{what} warm"));
            tally.same_records(&cold.records, &pass.records, &format!("{what} warm vs cold"));
            if cold.rendered != pass.rendered {
                tally.fail(1, format!("{what}: warm render differs from cold"));
            }
            warm.push(pass);
        }
        let t = &mut r.timings;
        t.cold_s.push(cold.wall_s);
        t.cpu_s.push(cold.cpu_s);
        t.warm_s.extend(warm.iter().map(|p| p.wall_s));
        t.setup_s.push(match &transport {
            Transport::Isolate(_) => cold.catalog_s + spawn_s,
            Transport::Pool => cold.first_cell_s.unwrap_or(cold.wall_s),
        });
        for _ in 0..ctx.workload.setup_probes() {
            let store = ctx.work.join(format!("probe-{}", campaign::next_run()));
            t.setup_s.push(campaign::setup_probe(&PassSpec { store: &store, ..spec })?);
        }
        r.records.push_str(&cold.records);
        r.campaigns.push(CampaignPasses { isolate: transport.is_isolate(), cold, warm });
    }
    Ok(r)
}

/// At the default seed, the round's records must match the digests
/// pinned when the benchmark was defined, and node-studies must carry
/// the mpi-tables digest on to the golden campaign digest.
pub fn check_digests(ctx: &Ctx, records: &str, tally: &mut Tally) {
    if ctx.seed != DEFAULT_SEED {
        return;
    }
    let lines = records.lines().count() as u64;
    let pinned = match ctx.workload {
        Workload::MpiTables => MPI_TABLES_DIGEST,
        Workload::NodeStudies => NODE_STUDIES_DIGEST,
        Workload::StoreChurn => STORE_CHURN_DIGEST,
    };
    let digest = fnv1a64(records.as_bytes());
    if digest != pinned {
        tally.fail(lines, format!("records digest {digest:#018x}, pinned {pinned:#018x}"));
    }
    if ctx.workload == Workload::NodeStudies {
        let figures: String = records
            .lines()
            .filter(|l| l.starts_with("{\"experiment\":\"figure"))
            .flat_map(|l| [l, "\n"])
            .collect();
        let golden = fnv1a64_from(MPI_TABLES_DIGEST, figures.as_bytes());
        if golden != GOLDEN_CAMPAIGN_DIGEST {
            tally.fail(
                figures.lines().count() as u64,
                format!("golden digest {golden:#018x}, expected {GOLDEN_CAMPAIGN_DIGEST:#018x}"),
            );
        }
    }
}

/// Store-churn: rerun one pool campaign through `--isolate` and one
/// isolate campaign in-process, store off, and require the records each
/// transport minted in the round.
pub fn check_transports(ctx: &Ctx, reference: &Round, tally: &mut Tally) -> Result<(), String> {
    if ctx.workload != Workload::StoreChurn {
        return Ok(());
    }
    let parts = ctx.workload.parts();
    let campaigns = ctx.workload.campaigns(ctx.seed);
    for (i, opts) in campaigns.into_iter().enumerate().take(2) {
        let done = &reference.campaigns[i];
        let other = if done.isolate {
            Transport::Pool
        } else {
            Transport::Isolate(campaign::worker_cmd(&ctx.smi_lab, &opts))
        };
        let pass = campaign::run_pass(&PassSpec {
            label: ctx.workload.name(),
            store: &reference.store,
            cache: CacheMode::Off,
            jobs: reference.jobs,
            transport: &other,
            parts: &parts,
            opts,
        })?;
        let what = format!("campaign {i} through the other transport");
        tally.check_pass(&pass, false, &what);
        tally.same_records(&done.cold.records, &pass.records, &what);
    }
    Ok(())
}
