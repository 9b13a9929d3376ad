//! The two node-level studies `smi-lab all` runs as text cells, with the
//! same calls and the same report text as the CLI's `detect` and
//! `variance` commands, and spans around each call into `smi-driver` and
//! `analysis`. The CLI keeps its renderers in its binary crate, so the
//! benchmark carries its own copies; the pinned node-studies digest
//! fails if the two ever disagree.

use crate::trace;
use analysis::RunOptions;
use sim_core::{SimRng, SimTime};
use smi_driver::{HwlatDetector, SmiClass, SmiDriver, SmiDriverConfig, Tsc};
use std::fmt::Write as _;

/// hwlat-style detection of injected SMIs over a 60 s window.
pub fn detect(opts: &RunOptions) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "hwlat-style detection of injected SMIs (60 s window)");
    for class in [SmiClass::Short, SmiClass::Long] {
        let driver = SmiDriver::new(SmiDriverConfig::mpi_study(class));
        let mut rng = SimRng::new(opts.seed);
        let schedule = trace::span("smi-driver.schedule", class.label(), || {
            driver.schedule_for_node(&mut rng)
        });
        let report = trace::span("smi-driver.detect", class.label(), || {
            let report = HwlatDetector::default().detect(
                &schedule,
                SimTime::ZERO,
                SimTime::from_secs(60),
                &Tsc::e5620(),
            );
            trace::count("polls", report.polls);
            trace::count("detections", report.count() as u64);
            report
        });
        let truth = schedule.count_between(SimTime::ZERO, SimTime::from_secs(60));
        let _ = writeln!(
            out,
            "  {}: injected {truth}, detected {} (max latency {}, total {})",
            class.label(),
            report.count(),
            report.max_latency().map(|d| d.to_string()).unwrap_or_else(|| "-".into()),
            report.total_latency,
        );
    }
    out
}

/// Variance decomposition vs logical CPUs for both Convolve configs.
pub fn variance(opts: &RunOptions) -> String {
    use apps::ConvolveConfig;
    let mut out = String::new();
    let _ = writeln!(out, "variance decomposition at 50 ms long-SMI intervals (paper §V:");
    let _ =
        writeln!(out, "'the cause of variance with HTT'); {} reps per point\n", opts.reps.max(6));
    for config in [ConvolveConfig::CacheUnfriendly, ConvolveConfig::CacheFriendly] {
        let _ = writeln!(out, "{}:", config.label());
        let _ =
            writeln!(out, "{:>6} {:>10} {:>8} {:>16}", "cpus", "mean [s]", "CV", "CV (phase only)");
        let points = trace::span("analysis.variance_study", config.label(), || {
            analysis::variance_study(config, opts.reps.max(6), opts.seed)
        });
        for p in points {
            let _ = writeln!(
                out,
                "{:>6} {:>10.2} {:>7.2}% {:>15.2}%",
                p.cpus,
                p.mean,
                p.cv * 100.0,
                p.cv_no_side_effects * 100.0
            );
        }
        let _ = writeln!(out);
    }
    let _ = writeln!(out, "Phase randomness alone explains most low-CPU variance; the HTT");
    let _ = writeln!(out, "side effects (post-SMI herd) add the excess above 4 CPUs.");
    out
}
