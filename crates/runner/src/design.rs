//! Experiment design: adaptive sampling with a deterministic stopping
//! rule and campaign-level power accounting.
//!
//! Hunold & Carpen-Amarie ("MPI Benchmarking Revisited") show that
//! fixed-repetition mean-of-N benchmarking misleads: low-variance cells
//! waste repetitions while high-variance cells report unstable means
//! with no warning. This module is the lab's answer (DESIGN.md §15):
//!
//! * a cell declares a [`SampleDesign`] — at least `min_reps`
//!   repetitions, at most `max_reps`, stop as soon as the Student-t
//!   95 % confidence interval on the mean is relatively tighter than
//!   `target_rel_halfwidth`;
//! * [`run_adaptive`] is the **single** sampling loop both executors
//!   share. It runs *inside* the cell's work closure, so a thread slot
//!   and an `--isolate` worker subprocess execute the identical
//!   decision sequence by construction and cannot drift;
//! * the loop's verdict ([`AdaptiveRun`]) is rendered into the cell
//!   payload's conventional `"stats"` object, and
//!   [`campaign_stats`] folds those per-cell blocks into the manifest's
//!   schema-6 `stats` section with the campaign-level power check:
//!   any cell that exhausted `max_reps` without reaching its target is
//!   named in `under_powered` — its conclusion rests on a wider
//!   interval than the design asked for.
//!
//! Everything here is a pure function of the cell identity and the
//! declared design: repetition seeds come from `SimRng::from_path`,
//! the bootstrap resampling from a labelled child generator, and no
//! wall-clock value ever reaches a decision or a payload byte.

use jsonio::Json;
use sim_core::rng::SimRng;
use sim_core::stats::{bootstrap_ci_mean, t_ci_mean, Ci};

/// Bootstrap resamples drawn per cell for the percentile interval —
/// fixed, so the interval is part of the deterministic payload.
pub const BOOTSTRAP_RESAMPLES: u32 = 200;

/// An adaptive sampling plan for one cell.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SampleDesign {
    /// Repetitions always executed before the stopping rule is
    /// consulted (at least 2 — a CI needs a variance estimate).
    pub min_reps: u32,
    /// Hard repetition ceiling; reaching it without meeting the target
    /// marks the cell under-powered.
    pub max_reps: u32,
    /// Stop once the 95 % CI half-width divided by the mean is at or
    /// below this (e.g. `0.05` = ±5 %).
    pub target_rel_halfwidth: f64,
}

impl SampleDesign {
    /// Check the plan is executable: `2 ≤ min_reps ≤ max_reps` and a
    /// positive, finite target.
    pub fn validate(&self) -> Result<(), String> {
        if self.min_reps < 2 {
            return Err(format!(
                "sample design: min_reps {} < 2 (a CI needs variance)",
                self.min_reps
            ));
        }
        if self.max_reps < self.min_reps {
            return Err(format!(
                "sample design: max_reps {} < min_reps {}",
                self.max_reps, self.min_reps
            ));
        }
        if !(self.target_rel_halfwidth > 0.0 && self.target_rel_halfwidth.is_finite()) {
            return Err(format!(
                "sample design: target relative half-width {} must be positive and finite",
                self.target_rel_halfwidth
            ));
        }
        Ok(())
    }

    /// The design rendered as canonical cell parameters. Embedding this
    /// in `CellSpec::params` makes the plan part of the cache identity:
    /// an adaptive cell and a fixed-design cell (or two different
    /// plans) can never satisfy each other from cache.
    pub fn params_json(&self) -> Json {
        Json::obj(vec![
            ("min_reps", Json::U64(self.min_reps as u64)),
            ("max_reps", Json::U64(self.max_reps as u64)),
            ("ci_target", Json::F64(self.target_rel_halfwidth)),
        ])
    }
}

/// The verdict of one adaptive sampling loop.
#[derive(Clone, Debug)]
pub struct AdaptiveRun {
    /// Every repetition measured, in execution order.
    pub samples: Vec<f64>,
    /// Exact-sum mean of the samples.
    pub mean: f64,
    /// Student-t 95 % confidence interval on the mean.
    pub ci: Ci,
    /// Seeded-bootstrap 95 % percentile interval on the mean.
    pub boot: Ci,
    /// The target the stopping rule compared against.
    pub target: f64,
    /// The CI met the target (at any n ≤ max_reps).
    pub met_target: bool,
    /// The rule fired before `max_reps` — repetitions were saved.
    pub stopped_early: bool,
    /// `max_reps` was spent without meeting the target: the cell is
    /// under-powered and the power check will flag it.
    pub exhausted: bool,
}

impl AdaptiveRun {
    /// Repetitions actually executed.
    pub fn n(&self) -> u32 {
        self.samples.len() as u32
    }

    /// The conventional `"stats"` object embedded in an adaptive cell's
    /// payload — what [`campaign_stats`] and the manifest consume.
    /// Non-finite values (an unknowable interval) render as `null`.
    pub fn stats_json(&self) -> Json {
        Json::obj(vec![
            ("n", Json::U64(self.samples.len() as u64)),
            ("mean", finite_or_null(self.mean)),
            ("ci_lo", finite_or_null(self.ci.lo)),
            ("ci_hi", finite_or_null(self.ci.hi)),
            ("boot_lo", finite_or_null(self.boot.lo)),
            ("boot_hi", finite_or_null(self.boot.hi)),
            ("rel_half_width", finite_or_null(self.ci.rel_half_width())),
            ("target", Json::F64(self.target)),
            ("met_target", Json::Bool(self.met_target)),
            ("stopped_early", Json::Bool(self.stopped_early)),
            ("exhausted", Json::Bool(self.exhausted)),
        ])
    }
}

fn finite_or_null(x: f64) -> Json {
    if x.is_finite() {
        Json::F64(x)
    } else {
        Json::Null
    }
}

/// Run one cell's adaptive sampling loop: repetitions are measured by
/// `rep(i)` (pure in `i` — repetition seeds derive from the cell
/// identity, never from how many repetitions ran before) until the
/// t-based CI meets the design target or `max_reps` is spent.
///
/// This function is the shared sampling loop: it is called from inside
/// the cell's work closure, so a thread slot and an `--isolate` worker
/// execute byte-identical decision sequences — there is no second
/// implementation to drift.
///
/// `bootstrap_rng` seeds the percentile bootstrap on the final sample;
/// pass a generator derived from the cell identity.
pub fn run_adaptive<E>(
    design: &SampleDesign,
    bootstrap_rng: &mut SimRng,
    mut rep: impl FnMut(u32) -> Result<f64, E>,
) -> Result<AdaptiveRun, E> {
    let mut samples: Vec<f64> = Vec::with_capacity(design.min_reps as usize);
    let mut met_target = false;
    loop {
        let n = samples.len() as u32;
        if n >= design.min_reps
            && t_ci_mean(&samples).rel_half_width() <= design.target_rel_halfwidth
        {
            met_target = true;
            break;
        }
        if n >= design.max_reps {
            break;
        }
        samples.push(rep(n)?);
    }
    let ci = t_ci_mean(&samples);
    let boot = bootstrap_ci_mean(&samples, BOOTSTRAP_RESAMPLES, bootstrap_rng);
    let mut moments = sim_core::stats::Moments::new();
    for &x in &samples {
        moments.push(x);
    }
    let n = samples.len() as u32;
    Ok(AdaptiveRun {
        mean: moments.mean(),
        ci,
        boot,
        target: design.target_rel_halfwidth,
        met_target,
        stopped_early: met_target && n < design.max_reps,
        exhausted: !met_target,
        samples,
    })
}

/// Fold the per-cell `"stats"` payload blocks of a drained campaign
/// into the manifest's schema-6 `stats` section, including the
/// campaign-level power check. Returns `Json::Null` when no cell
/// declared a sampling design (fixed-design campaigns).
pub fn campaign_stats(outcomes: &[crate::CellOutcome]) -> Json {
    let mut cells = Vec::new();
    let mut met = 0u64;
    let mut stopped_early = 0u64;
    let mut exhausted = 0u64;
    let mut under_powered = Vec::new();
    for o in outcomes {
        let stats = match o.payload().and_then(|p| p.get("stats")) {
            Some(s) => s,
            None => continue,
        };
        let flag = |key: &str| stats.get(key).and_then(Json::as_bool) == Some(true);
        if flag("met_target") {
            met += 1;
        } else {
            under_powered.push(Json::Str(o.spec.cell.clone()));
        }
        if flag("stopped_early") {
            stopped_early += 1;
        }
        if flag("exhausted") {
            exhausted += 1;
        }
        let mut entry = vec![("cell".to_string(), Json::Str(o.spec.cell.clone()))];
        if let Json::Obj(fields) = stats {
            entry.extend(fields.iter().cloned());
        }
        cells.push(Json::Obj(entry));
    }
    if cells.is_empty() {
        return Json::Null;
    }
    let power = if under_powered.is_empty() { "ok" } else { "under-powered" };
    Json::obj(vec![
        ("designed", Json::U64(cells.len() as u64)),
        ("met_target", Json::U64(met)),
        ("stopped_early", Json::U64(stopped_early)),
        ("exhausted", Json::U64(exhausted)),
        ("power", Json::Str(power.to_string())),
        ("under_powered", Json::Arr(under_powered)),
        ("cells", Json::Arr(cells)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{cache, CellOutcome, CellSpec, CellValue};

    fn design(min: u32, max: u32, target: f64) -> SampleDesign {
        SampleDesign { min_reps: min, max_reps: max, target_rel_halfwidth: target }
    }

    #[test]
    fn validate_rejects_degenerate_plans() {
        assert!(design(2, 8, 0.05).validate().is_ok());
        assert!(design(1, 8, 0.05).validate().is_err(), "min_reps < 2");
        assert!(design(4, 3, 0.05).validate().is_err(), "max < min");
        assert!(design(2, 8, 0.0).validate().is_err(), "zero target");
        assert!(design(2, 8, f64::NAN).validate().is_err(), "NaN target");
    }

    #[test]
    fn constant_cell_stops_at_min_reps() {
        let d = design(3, 20, 0.05);
        let mut rng = SimRng::new(7);
        let run: AdaptiveRun =
            run_adaptive::<()>(&d, &mut rng, |_| Ok(4.5)).expect("infallible reps");
        assert_eq!(run.n(), 3, "a zero-variance cell needs exactly min_reps");
        assert!(run.met_target);
        assert!(run.stopped_early);
        assert!(!run.exhausted);
        assert_eq!(run.mean, 4.5);
        assert_eq!(run.ci, Ci::point(4.5));
    }

    #[test]
    fn noisy_cell_exhausts_the_budget() {
        let d = design(2, 6, 0.001);
        let mut rng = SimRng::new(7);
        // Alternating 1/2: the CI can never be ±0.1 % tight.
        let run = run_adaptive::<()>(&d, &mut rng, |i| Ok(if i % 2 == 0 { 1.0 } else { 2.0 }))
            .expect("infallible reps");
        assert_eq!(run.n(), 6, "budget fully spent");
        assert!(!run.met_target);
        assert!(!run.stopped_early);
        assert!(run.exhausted);
        assert!(run.ci.contains(run.mean));
        assert!(run.boot.contains(run.mean));
    }

    #[test]
    fn adaptive_loop_is_deterministic() {
        let d = design(2, 12, 0.02);
        let measure = |i: u32| Ok::<f64, ()>(10.0 + (i as f64 * 0.77).sin() * 0.1);
        let a = run_adaptive(&d, &mut SimRng::new(99), measure).expect("ok");
        let b = run_adaptive(&d, &mut SimRng::new(99), measure).expect("ok");
        assert_eq!(a.samples, b.samples);
        assert_eq!(a.stats_json().to_string(), b.stats_json().to_string());
    }

    #[test]
    fn rep_errors_propagate() {
        let d = design(2, 6, 0.05);
        let mut rng = SimRng::new(1);
        let out = run_adaptive(&d, &mut rng, |i| if i == 1 { Err("boom") } else { Ok(1.0) });
        assert_eq!(out.err(), Some("boom"));
    }

    fn outcome_with_payload(cell: &str, payload: Json) -> CellOutcome {
        CellOutcome {
            spec: CellSpec {
                experiment: "t".into(),
                cell: cell.into(),
                params: Json::Null,
                seed: 1,
                reps: 1,
            },
            key: cache::CacheKey(0, 0),
            result: Ok(CellValue { payload, cached: false, attempts: 1, micros: 0 }),
        }
    }

    #[test]
    fn campaign_stats_folds_blocks_and_flags_under_power() {
        let d = design(2, 4, 0.5);
        let mut rng = SimRng::new(3);
        let good = run_adaptive::<()>(&d, &mut rng, |_| Ok(2.0)).expect("ok");
        let tight = design(2, 3, 1e-9);
        let bad = run_adaptive::<()>(&tight, &mut rng, |i| Ok(1.0 + i as f64)).expect("ok");
        let outcomes = vec![
            outcome_with_payload("a", Json::obj(vec![("stats", good.stats_json())])),
            outcome_with_payload("plain", Json::obj(vec![("measured", Json::Arr(vec![]))])),
            outcome_with_payload("b", Json::obj(vec![("stats", bad.stats_json())])),
        ];
        let stats = campaign_stats(&outcomes);
        assert_eq!(stats.get("designed").and_then(Json::as_u64), Some(2));
        assert_eq!(stats.get("met_target").and_then(Json::as_u64), Some(1));
        assert_eq!(stats.get("exhausted").and_then(Json::as_u64), Some(1));
        assert_eq!(stats.get("power").and_then(Json::as_str), Some("under-powered"));
        let under = stats.get("under_powered").and_then(Json::as_array).expect("list");
        assert_eq!(under, &[Json::Str("b".into())]);
        let cells = stats.get("cells").and_then(Json::as_array).expect("cells");
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[0].get("cell").and_then(Json::as_str), Some("a"));
        assert_eq!(cells[0].get("n").and_then(Json::as_u64), Some(2));
        // Fixed-design campaigns render no stats section at all.
        assert_eq!(campaign_stats(&outcomes[1..2]), Json::Null);
    }
}
