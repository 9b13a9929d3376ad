//! The chaos gate: every recovery path in the runner driven by the
//! seeded fault-injection harness. Compiled only with
//! `--features chaos` (ci.sh runs `cargo test -p runner --features
//! chaos`); the injected-panic hook keeps expected panic noise out of
//! the output.

#![cfg(feature = "chaos")]

mod common;
use common::tmp_dir;
use jsonio::Json;
use runner::chaos::{self, ChaosPlan, Fault};
use runner::{cache, Cell, CellSpec, RunReport, RunStatus, Runner};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn campaign(n: u64, executions: &Arc<AtomicU64>) -> Vec<Cell> {
    (0..n)
        .map(|i| {
            let executions = Arc::clone(executions);
            Cell::new(
                CellSpec {
                    experiment: "chaos".into(),
                    cell: format!("c{i}"),
                    params: Json::obj(vec![("i", Json::U64(i))]),
                    seed: 7,
                    reps: 1,
                },
                move || {
                    executions.fetch_add(1, Ordering::Relaxed);
                    Json::obj(vec![("value", Json::U64(i * 13))])
                },
            )
        })
        .collect()
}

fn run_no_cache(jobs: usize, cells: Vec<Cell>) -> RunReport {
    let mut runner = Runner::new(jobs);
    runner.cache_mode = runner::CacheMode::Off;
    runner.verbose = false;
    runner.run("chaos", cells)
}

#[test]
fn permanent_fault_quarantines_exactly_that_cell_and_exits_2() {
    chaos::quiet_injected_panics();
    let executions = Arc::new(AtomicU64::new(0));
    let mut plan = ChaosPlan::calm(1);
    plan.pinned.push(("c5".into(), Fault::PanicAlways));
    let dir = tmp_dir("permanent");
    let mut runner = Runner::new(4);
    runner.cache_dir = dir.clone();
    runner.verbose = false;
    let report = runner.run("chaos", chaos::afflict(&plan, campaign(12, &executions)));

    assert_eq!(report.cells_total, 12, "the campaign completes");
    assert_eq!(report.cells_failed, 1, "exactly one cell quarantined");
    assert_eq!(report.quarantined.len(), 1);
    assert_eq!(report.quarantined[0].cell, "c5");
    assert_eq!(report.quarantined[0].attempts, runner.max_attempts);
    assert!(report.quarantined[0].message.contains("chaos: permanent fault"));
    assert_eq!(report.status(), RunStatus::Failed);
    assert_eq!(report.status().exit_code(), 2);

    // The manifest lists the failure, parseably.
    let path = report.write_manifest(&dir).expect("manifest");
    let manifest = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
    assert_eq!(manifest.get("status").unwrap().as_str(), Some("failed"));
    assert_eq!(manifest.get("cells_failed").unwrap().as_u64(), Some(1));
    let listed = manifest.get("quarantined").unwrap().as_array().unwrap();
    assert_eq!(listed.len(), 1);
    assert_eq!(listed[0].get("cell").unwrap().as_str(), Some("c5"));
    assert!(listed[0].get("panic").unwrap().as_str().unwrap().contains("permanent fault"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn transient_fault_recovers_on_retry_exits_0_with_identical_records() {
    chaos::quiet_injected_panics();
    let executions = Arc::new(AtomicU64::new(0));
    let reference = run_no_cache(2, campaign(12, &executions));

    let mut plan = ChaosPlan::calm(1);
    plan.pinned.push(("c5".into(), Fault::PanicFirst(1))); // succeeds on attempt 2
    let report = run_no_cache(2, chaos::afflict(&plan, campaign(12, &executions)));
    assert_eq!(report.cells_failed, 0);
    assert_eq!(report.retries, 1);
    assert_eq!(report.outcomes[5].attempts(), 2);
    assert_eq!(report.status(), RunStatus::Clean);
    assert_eq!(report.status().exit_code(), 0);
    assert_eq!(report.records_jsonl(), reference.records_jsonl(), "byte-identical recovery");
}

#[test]
fn corrupted_and_truncated_entries_recompute_and_are_counted() {
    chaos::quiet_injected_panics();
    let dir = tmp_dir("rot");
    let executions = Arc::new(AtomicU64::new(0));
    let mut runner = Runner::new(2);
    runner.cache_dir = dir.clone();
    runner.verbose = false;
    let first = runner.run("chaos", campaign(6, &executions));
    assert_eq!(executions.load(Ordering::Relaxed), 6);

    // Rot two entries on disk: one garbage overwrite, one torn tail.
    assert!(chaos::corrupt_entry(&dir, first.outcomes[1].key));
    assert!(chaos::truncate_entry(&dir, first.outcomes[4].key));

    let second = runner.run("chaos", campaign(6, &executions));
    assert_eq!(executions.load(Ordering::Relaxed), 8, "exactly the two rotted cells recompute");
    assert_eq!(second.cells_cached, 4);
    assert_eq!(second.cache_load_corruptions, 2, "both corruptions observed");
    assert_eq!(second.status(), RunStatus::Degraded);
    assert_eq!(second.status().exit_code(), 1);
    assert_eq!(second.records_jsonl(), first.records_jsonl(), "payloads unharmed by rot");

    // The recompute rewrote valid entries: a third run is all hits, clean.
    let third = runner.run("chaos", campaign(6, &executions));
    assert_eq!(executions.load(Ordering::Relaxed), 8);
    assert_eq!(third.cells_cached, 6);
    assert_eq!(third.status(), RunStatus::Clean);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stranded_tmp_files_are_swept_before_the_run() {
    let dir = tmp_dir("torn");
    let executions = Arc::new(AtomicU64::new(0));
    let cells = campaign(3, &executions);
    let keys: Vec<_> =
        cells.iter().map(|c| cache::cell_key(&Runner::new(1).code_version, &c.spec)).collect();
    let torn = chaos::strand_tmp(&dir, keys[0]).expect("strand a torn write");
    assert!(torn.exists());

    let mut runner = Runner::new(1);
    runner.cache_dir = dir.clone();
    runner.verbose = false;
    let report = runner.run("chaos", cells);
    assert_eq!(report.orphans_swept, 1);
    assert!(!torn.exists(), "the torn write is gone");
    assert_eq!(report.status(), RunStatus::Clean);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stragglers_slow_the_campaign_but_never_change_its_bytes() {
    chaos::quiet_injected_panics();
    let executions = Arc::new(AtomicU64::new(0));
    let reference = run_no_cache(4, campaign(8, &executions));
    let mut plan = ChaosPlan::calm(3);
    plan.pinned.push(("c2".into(), Fault::Straggle(25)));
    plan.pinned.push(("c6".into(), Fault::Straggle(10)));
    let report = run_no_cache(4, chaos::afflict(&plan, campaign(8, &executions)));
    assert_eq!(report.cells_failed, 0);
    assert_eq!(report.status(), RunStatus::Clean);
    assert_eq!(report.records_jsonl(), reference.records_jsonl());
}

#[test]
fn invalid_cell_degrades_a_50_cell_campaign_without_touching_survivors() {
    // Satellite case: one cell rejected as invalid (the runner-side view
    // of a simulator `SimError`) quarantines with its structured reason,
    // the campaign exits 1 (degraded, not failed), and all 49 survivors
    // are byte-identical to the fault-free run.
    let executions = Arc::new(AtomicU64::new(0));
    let reference = run_no_cache(4, campaign(50, &executions));

    let mut plan = ChaosPlan::calm(11);
    plan.pinned.push(("c17".into(), Fault::Invalid));
    let report = run_no_cache(4, chaos::afflict(&plan, campaign(50, &executions)));

    assert_eq!(report.cells_total, 50, "the campaign drains past the invalid cell");
    assert_eq!(report.cells_invalid, 1);
    assert_eq!(report.cells_failed, 0);
    assert_eq!(report.retries, 0, "invalid verdicts are never retried");
    assert_eq!(report.status(), RunStatus::Degraded);
    assert_eq!(report.status().exit_code(), 1);

    let q = &report.quarantined[0];
    assert_eq!(q.cell, "c17");
    assert_eq!(q.attempts, 1);
    assert_eq!(q.reason.get("kind").and_then(|k| k.as_str()), Some("chaos-invalid"));

    // Survivors: byte-identical records, explicit hole at the victim.
    let reference_jsonl = reference.records_jsonl();
    let reference_lines: Vec<&str> =
        reference_jsonl.lines().filter(|l| !l.contains("\"c17\"")).collect();
    let report_jsonl = report.records_jsonl();
    let surviving_lines: Vec<&str> = report_jsonl.lines().collect();
    assert_eq!(surviving_lines.len(), 49);
    assert_eq!(
        surviving_lines, reference_lines,
        "survivors must be byte-identical to the fault-free run"
    );
    assert_eq!(report.payloads()[17], Json::Null, "the hole is explicit");
}

#[test]
fn fault_schedules_preserve_surviving_records() {
    chaos::quiet_injected_panics();
    // Satellite property: over a 50-cell campaign, ANY seeded fault
    // schedule yields records byte-identical to the fault-free run for
    // every surviving cell — faults may punch holes, never corrupt.
    let executions = Arc::new(AtomicU64::new(0));
    let reference = run_no_cache(4, campaign(50, &executions));
    let reference_records: Vec<Option<String>> =
        reference.outcomes.iter().map(|o| o.record()).collect();

    quickprop::check("fault_schedules_preserve_surviving_records", 10, |g| {
        let plan = ChaosPlan {
            seed: g.u64(0..u64::MAX),
            transient_per_mille: g.u32(0..300),
            permanent_per_mille: g.u32(0..150),
            straggler_per_mille: g.u32(0..100),
            abort_per_mille: 0, // process faults need isolated mode
            hang_per_mille: 0,
            transient_attempts: g.u32(1..3), // within the default budget of 3
            straggle_millis: 1,
            pinned: Vec::new(),
        };
        let report = run_no_cache(4, chaos::afflict(&plan, campaign(50, &executions)));
        assert_eq!(report.outcomes.len(), 50, "every schedule drains the campaign");
        for (i, outcome) in report.outcomes.iter().enumerate() {
            match outcome.record() {
                Some(record) => assert_eq!(
                    Some(&record),
                    reference_records[i].as_ref(),
                    "surviving cell c{i} must match the fault-free bytes (plan {plan:?})"
                ),
                None => assert!(
                    outcome.failed(),
                    "only quarantined cells may lack a record (plan {plan:?})"
                ),
            }
        }
        assert_eq!(report.cells_failed as usize, report.quarantined.len());
        assert_eq!(
            report.records_jsonl().lines().count() as u64,
            50 - report.cells_failed,
            "records skip exactly the quarantined cells"
        );
    });
}
