//! Direct calls into single layers, made by the traced run after its
//! traced round. Each replay repeats the exact calls a campaign cell
//! makes and checks its result against that cell's payload bit for bit,
//! so a replay times the same work the campaign did.

use crate::campaign::CODE_VERSION;
use crate::trace;
use crate::workloads::Tally;
use analysis::{RunOptions, SMM_CLASSES};
use apps::{run_convolve, run_suite, ConvolveConfig, ConvolveRun, UbCosts};
use jsonio::Json;
use mpi_sim::{ClusterSpec, NetworkParams, NodeState};
use nas::{Bench, Class};
use runner::{CellOutcome, CellSpec};
use sim_core::stats::Accumulator;
use sim_core::SimRng;
use smi_driver::{SmiClass, SmiDriver, SmiDriverConfig};
use std::path::Path;

fn payload<'a>(outcomes: &'a [CellOutcome], experiment: &str, cell: &str) -> Option<&'a Json> {
    outcomes
        .iter()
        .find(|o| o.spec.experiment == experiment && o.spec.cell == cell)
        .and_then(CellOutcome::payload)
}

fn measured_mean(payload: Option<&Json>, path: &[usize]) -> Option<u64> {
    let mut at = payload?.get("measured")?;
    for &i in path {
        at = at.idx(i)?;
    }
    Some(at.get("mean")?.as_f64()?.to_bits())
}

/// A heavy MPI cell to replay, and where its payload keeps the means:
/// `measured[smm]` for Tables 1–3, `measured[smm][ht_idx]` for Table 5.
struct Heavy {
    bench: Bench,
    class: Class,
    nodes: u32,
    rpn: u32,
    htt: bool,
    target: f64,
    label: String,
    experiment: &'static str,
    cell: &'static str,
    ht_idx: Option<usize>,
}

fn heavy_cells() -> Vec<Heavy> {
    let mut out = Vec::new();
    for (class, cell) in [(Class::C, "C-n16"), (Class::B, "B-n16")] {
        let Some(paper) = nas::htt_cell(Bench::Ft, class, 16) else { continue };
        for (ht_idx, htt) in [false, true].into_iter().enumerate() {
            out.push(Heavy {
                bench: Bench::Ft,
                class,
                nodes: 16,
                rpn: 4,
                htt,
                target: paper.smm_ht[0][ht_idx],
                label: format!("{cell}-ht{ht_idx}"),
                experiment: "htt-FT",
                cell,
                ht_idx: Some(ht_idx),
            });
        }
    }
    for (bench, class, cell, experiment) in [
        (Bench::Ft, Class::B, "B-n16-r4", "table-FT"),
        (Bench::Bt, Class::A, "A-n16-r4", "table-BT"),
    ] {
        let Some(target) = nas::table_cell(bench, class, 16, 4).and_then(|c| c.smm[0]) else {
            continue;
        };
        out.push(Heavy {
            bench,
            class,
            nodes: 16,
            rpn: 4,
            htt: false,
            target,
            label: cell.to_string(),
            experiment,
            cell,
            ht_idx: None,
        });
    }
    out
}

/// The per-SMM-class means of one heavy cell, recomputed with the
/// cell's own seeds: lowering through `nas::programs`, simulation through
/// `mpi_sim::run_with`.
fn replay_heavy(
    h: &Heavy,
    opts: &RunOptions,
    network: &NetworkParams,
    config: &mpi_sim::RunConfig,
) -> Result<Vec<u64>, String> {
    let spec = ClusterSpec::wyeast(h.nodes, h.rpn, h.htt).map_err(|e| e.to_string())?;
    let extra = trace::span("nas.calibrate", &h.label, || {
        nas::calibrate_extra(h.bench, h.class, &spec, network, h.target)
    })
    .map_err(|e| e.to_string())?;
    let mut means = Vec::new();
    for smm in SMM_CLASSES {
        let mut acc = Accumulator::new();
        for rep in 0..opts.reps {
            let mut rng = SimRng::from_path(
                opts.seed,
                &[h.bench.name(), &h.label, smm.label(), &format!("rep{rep}")],
            );
            let jitters: Vec<f64> =
                (0..spec.total_ranks()).map(|_| rng.jitter(opts.jitter)).collect();
            let progs = trace::span("nas.programs", &h.label, || {
                let progs = nas::programs(h.bench, h.class, &spec, extra, &jitters);
                trace::count("ops", progs.iter().map(|p| p.ops.len() as u64).sum());
                progs
            });
            let driver = SmiDriver::new(SmiDriverConfig::mpi_study(smm));
            let nodes: Vec<NodeState> = (0..spec.nodes)
                .map(|_| NodeState {
                    schedule: driver.schedule_for_node(&mut rng),
                    effects: driver.side_effects(spec.htt),
                    online_cpus: spec.online_cpus(),
                    per_core: Vec::new(),
                })
                .collect();
            let out = trace::span("mpi-sim.run", &h.label, || {
                let out = mpi_sim::run_with(&spec, &nodes, &progs, network, config);
                if let Ok(o) = &out {
                    trace::count("messages", o.messages);
                    trace::count("bytes", o.bytes);
                }
                out
            })
            .map_err(|e| e.to_string())?;
            acc.push(out.seconds());
        }
        means.push(acc.mean().to_bits());
    }
    Ok(means)
}

/// Replay the heaviest MPI cells and require each cell's means.
pub fn mpi_cells(opts: &RunOptions, outcomes: &[CellOutcome], tally: &mut Tally) {
    let network = NetworkParams::gigabit_cluster();
    let config = opts.engine_config();
    for h in heavy_cells() {
        let what = format!("replay {}/{}", h.experiment, h.label);
        tally.attempted += 1;
        match replay_heavy(&h, opts, &network, &config) {
            Ok(means) => {
                let cell = payload(outcomes, h.experiment, h.cell);
                for (k, mean) in means.into_iter().enumerate() {
                    let path = match h.ht_idx {
                        Some(ht) => vec![k, ht],
                        None => vec![k],
                    };
                    if measured_mean(cell, &path) != Some(mean) {
                        tally.fail(1, format!("{what}: SMM {k} mean differs from the cell"));
                    }
                }
            }
            Err(e) => tally.fail(1, format!("{what}: {e}")),
        }
    }
}

fn point_means(payload: Option<&Json>) -> Vec<u64> {
    payload
        .and_then(|p| p.get("points"))
        .and_then(Json::as_array)
        .map(|pts| {
            pts.iter()
                .filter_map(|p| p.get("mean").and_then(Json::as_f64))
                .map(f64::to_bits)
                .collect()
        })
        .unwrap_or_default()
}

/// Replay the Figure 1 CacheUnfriendly 1-CPU interval sweep through
/// `apps::run_convolve`, and the Figure 2 long-SMI series through
/// `apps::run_suite`.
pub fn node_apps(opts: &RunOptions, outcomes: &[CellOutcome], tally: &mut Tally) {
    let config = ConvolveConfig::CacheUnfriendly;
    let cpus = 1u32;
    let reps = opts.reps.min(3);
    let mut means = Vec::new();
    for ms in analysis::figures::fig1_intervals() {
        let mut acc = Accumulator::new();
        for rep in 0..reps {
            let label = format!("fig1-{}-c{}-i{:?}-rep{}", config.label(), cpus, Some(ms), rep);
            let mut rng = SimRng::from_path(opts.seed, &["figure1", &label]);
            let driver = SmiDriver::new(SmiDriverConfig::interval_ms(SmiClass::Long, ms));
            let schedule = driver.schedule_for_node(&mut rng);
            let effects = driver.side_effects_jittered(cpus > 4, &mut rng);
            let run = ConvolveRun { config, online_cpus: cpus, schedule, effects, threads: 24 };
            let out = trace::span("apps.run_convolve", &label, || {
                let out = run_convolve(&run, &mut rng);
                trace::count("calls", 1);
                trace::count("smm_windows", out.windows as u64);
                out
            });
            acc.push(out.wall_seconds);
        }
        means.push(acc.mean().to_bits());
    }
    tally.attempted += 1;
    let cell = format!("{}-c{cpus}-intervals", config.label());
    if point_means(payload(outcomes, "figure1", &cell)) != means {
        tally.fail(1, format!("replay figure1/{cell}: means differ from the cell"));
    }

    let costs = UbCosts::default();
    for &cpus in &analysis::figures::FIG2_CPUS {
        let mut means = Vec::new();
        for &ms in &analysis::figures::FIG2_INTERVALS {
            let smm = SmiClass::Long;
            let mut rng =
                SimRng::from_path(opts.seed, &["figure2", &format!("{cpus}-{ms}-{smm:?}")]);
            let driver = SmiDriver::new(SmiDriverConfig::interval_ms(smm, ms));
            let schedule = driver.schedule_for_node(&mut rng);
            let effects = driver.side_effects(cpus > 4);
            let index = trace::span("apps.run_suite", &format!("c{cpus}-{ms}"), || {
                run_suite(cpus, &schedule, &effects, &costs).total_index
            });
            means.push(index.to_bits());
        }
        tally.attempted += 1;
        let cell = format!("long-c{cpus}");
        if point_means(payload(outcomes, "figure2", &cell)) != means {
            tally.fail(1, format!("replay figure2/{cell}: indexes differ from the cell"));
        }
    }
}

/// Open the grown store of the traced round, then put and load every
/// cold payload of the round through a scratch store, and serialize and
/// parse every payload and record with `jsonio`.
pub fn storage(
    grown: &Path,
    label: &str,
    scratch: &Path,
    cells: &[(CellSpec, Json)],
    records: &str,
    tally: &mut Tally,
) {
    let vfs = crate::campaign::store_vfs();
    trace::span("runner.open", label, || {
        runner::store::Store::open(vfs.clone(), grown, label, CODE_VERSION)
    });
    let (store, _) = runner::store::Store::open(vfs, scratch, "replay", CODE_VERSION);
    let keys: Vec<_> =
        cells.iter().map(|(spec, _)| runner::cache::cell_key(CODE_VERSION, spec)).collect();
    let put_errors = trace::span("runner.put", label, || {
        cells
            .iter()
            .zip(&keys)
            .filter(|((spec, p), key)| store.put(**key, spec, p).is_err())
            .count()
    });
    let loaded: Vec<Option<Json>> = trace::span("runner.load", label, || {
        cells
            .iter()
            .zip(&keys)
            .map(|((spec, _), key)| match store.load(*key, spec) {
                runner::cache::Lookup::Hit(p) => Some(p),
                _ => None,
            })
            .collect()
    });
    tally.attempted += cells.len() as u64;
    let lost = put_errors
        + cells
            .iter()
            .zip(&loaded)
            .filter(|((_, p), l)| l.as_ref().map(Json::to_string) != Some(p.to_string()))
            .count();
    if lost > 0 {
        tally.fail(lost as u64, format!("store replay: {lost} payload(s) did not round-trip"));
    }

    let serialized: usize = trace::span("jsonio.serialize", label, || {
        cells.iter().map(|(_, p)| p.to_string().len()).sum()
    });
    std::hint::black_box(serialized);
    let reparsed = trace::span("jsonio.parse", label, || {
        records
            .lines()
            .filter(|l| Json::parse(l).ok().map(|j| j.to_string()).as_deref() != Some(*l))
            .count()
    });
    if reparsed > 0 {
        tally.fail(reparsed as u64, format!("{reparsed} record(s) did not re-parse to themselves"));
    }
}
