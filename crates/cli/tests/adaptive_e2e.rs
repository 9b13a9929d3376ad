//! End-to-end guards on adaptive-sampling campaigns, driven through the
//! real `smi-lab` binary:
//!
//! * the fixed-design `--quick` campaign still produces the golden
//!   record digest, byte for byte — adding the adaptive path must not
//!   perturb the default one;
//! * an adaptive campaign (`--adaptive`) yields byte-identical records
//!   at `--jobs 1`, `--jobs 8`, and under `--isolate`, and its manifest
//!   carries the schema-6 `stats` block;
//! * an adaptive campaign whose isolated worker is SIGKILLed mid-cell
//!   degrades, then `--resume` heals it byte-identical to a fault-free
//!   run — early-stopping decisions replay exactly from the cache.

mod common;
use common::{read, smi_lab, tmp_dir};
use std::path::Path;

/// FNV-1a 64-bit, re-derived here (as in the root determinism suite) so
/// the digest does not depend on any crate's hash internals staying put.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Must match `GOLDEN_CAMPAIGN_DIGEST` in the root `tests/determinism.rs`:
/// the adaptive layer rides alongside the fixed design and may not move
/// a single byte of it.
const GOLDEN_CAMPAIGN_DIGEST: u64 = 0x3973ac67ffcc0734;

#[test]
fn fixed_design_campaign_still_matches_the_golden_digest() {
    use analysis::cells::{figure1_cells, figure2_cells, htt_cells, table_cells};
    use analysis::RunOptions;
    use nas::Bench;

    let opts = RunOptions::quick();
    let mut cells = Vec::new();
    for bench in [Bench::Bt, Bench::Ep, Bench::Ft] {
        cells.extend(table_cells(bench, &opts));
    }
    for bench in [Bench::Ep, Bench::Ft] {
        cells.extend(htt_cells(bench, &opts));
    }
    cells.extend(figure1_cells(&opts));
    cells.extend(figure2_cells(&opts));
    let mut r = runner::Runner::new(2);
    r.cache_mode = runner::CacheMode::Off;
    r.code_version = "golden-digest".to_string();
    let report = r.run("golden-digest", cells);
    assert_eq!(report.cells_failed, 0, "campaign cells must not panic");
    assert_eq!(report.cells_invalid, 0, "campaign cells must not be rejected");
    let digest = fnv1a64(report.records_jsonl().as_bytes());
    assert_eq!(
        digest, GOLDEN_CAMPAIGN_DIGEST,
        "fixed-design records changed under the adaptive layer: digest {digest:#018x}"
    );
}

/// The adaptive flag set every binary invocation below shares. A loose
/// enough max so some cells stop early and a tight enough CI target so
/// some exhaust — both stopping-rule branches cross the process
/// boundary.
const ADAPTIVE: [&str; 6] = ["--adaptive", "--max-reps", "4", "--ci-target", "0.02", "--quick"];

#[test]
fn adaptive_records_are_schedule_and_isolation_invariant() {
    let dir = tmp_dir("invariance");
    let cache = dir.join("cache");
    let run = |records: &Path, extra: &[&str]| {
        let mut args = vec!["table2"];
        args.extend(ADAPTIVE);
        args.extend(["--no-cache", "--cache-dir"]);
        let cache_s = cache.display().to_string();
        args.push(&cache_s);
        args.push("--records");
        let rec_s = records.display().to_string();
        args.push(&rec_s);
        args.extend(extra);
        let out = smi_lab(&args);
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        out
    };

    let rec1 = dir.join("jobs1.jsonl");
    let rec8 = dir.join("jobs8.jsonl");
    let rec_iso = dir.join("isolated.jsonl");
    let serial = run(&rec1, &["--jobs", "1"]);
    let parallel = run(&rec8, &["--jobs", "8"]);
    let isolated = run(&rec_iso, &["--jobs", "2", "--isolate"]);

    let reference = read(&rec1);
    assert!(!reference.is_empty(), "adaptive campaign produced records");
    assert_eq!(reference, read(&rec8), "adaptive records must not depend on --jobs");
    assert_eq!(reference, read(&rec_iso), "subprocess workers must replay the same stopping rule");
    assert_eq!(serial.stdout, parallel.stdout, "rendered tables agree across job counts");
    assert_eq!(serial.stdout, isolated.stdout, "rendered tables agree across isolation");

    // The manifest of an adaptive campaign is schema 6 and carries the
    // machine-readable power check.
    let manifest =
        jsonio::Json::parse(&read(&cache.join("manifests/table2.json"))).expect("manifest parses");
    assert_eq!(manifest.get("schema").and_then(|s| s.as_u64()), Some(6));
    let stats = manifest.get("stats").expect("adaptive manifest has a stats block");
    let designed = stats.get("designed").and_then(|d| d.as_u64()).expect("designed count");
    assert!(designed > 0, "at least one cell carried a sampling design");
    let power = stats.get("power").and_then(|p| p.as_str()).expect("power verdict");
    assert!(
        power == "ok" || power == "under-powered",
        "power verdict is machine-readable: {power}"
    );
    let cells = stats.get("cells").and_then(|c| c.as_array()).expect("per-cell stats");
    assert_eq!(cells.len() as u64, designed, "one stats row per designed cell");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn adaptive_sigkilled_worker_resumes_byte_identically() {
    let dir = tmp_dir("kill-resume");
    let cache = dir.join("cache");
    let rec_ref = dir.join("reference.jsonl");
    let rec_resumed = dir.join("resumed.jsonl");

    // Fault-free adaptive reference (no cache so every cell computes).
    let mut args = vec!["table2"];
    args.extend(ADAPTIVE);
    let cache_s = cache.display().to_string();
    let ref_s = rec_ref.display().to_string();
    args.extend(["--no-cache", "--cache-dir", &cache_s, "--records", &ref_s]);
    let reference = smi_lab(&args);
    assert!(reference.status.success(), "{}", String::from_utf8_lossy(&reference.stderr));

    // Adaptive campaign with the worker SIGKILLed whenever A-n1-r1 is
    // dispatched: degraded exit, the cell quarantined `worker-crash`.
    let mut args = vec!["table2"];
    args.extend(ADAPTIVE);
    args.extend(["--cache-dir", &cache_s, "--jobs", "2", "--isolate", "--isolate-kill", "A-n1-r1"]);
    let killed = smi_lab(&args);
    assert_eq!(killed.status.code(), Some(1), "a killed worker degrades, never aborts");
    let manifest =
        jsonio::Json::parse(&read(&cache.join("manifests/table2.json"))).expect("manifest parses");
    assert_eq!(manifest.get("status").and_then(|s| s.as_str()), Some("degraded"));
    let quarantined = manifest.get("quarantined").and_then(|q| q.as_array()).expect("list");
    assert_eq!(quarantined.len(), 1);
    assert_eq!(quarantined[0].get("cell").and_then(|c| c.as_str()), Some("A-n1-r1"));
    assert_eq!(
        quarantined[0].get("reason").and_then(|r| r.get("kind")).and_then(|k| k.as_str()),
        Some("worker-crash"),
    );

    // `--resume` without the kill: only the crashed cell re-runs its
    // sampling loop, and the stopping decisions land on the same bytes
    // as the fault-free reference.
    let mut args = vec!["table2"];
    args.extend(ADAPTIVE);
    let res_s = rec_resumed.display().to_string();
    args.extend([
        "--cache-dir",
        &cache_s,
        "--records",
        &res_s,
        "--jobs",
        "2",
        "--isolate",
        "--resume",
    ]);
    let resumed = smi_lab(&args);
    assert!(
        resumed.status.success(),
        "resume must heal: {}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    assert_eq!(
        read(&rec_ref),
        read(&rec_resumed),
        "healed adaptive campaign must reproduce the fault-free bytes"
    );
    let manifest =
        jsonio::Json::parse(&read(&cache.join("manifests/table2.json"))).expect("manifest parses");
    let total = manifest.get("cells_total").and_then(|c| c.as_u64()).expect("total");
    assert_eq!(
        manifest.get("cells_cached").and_then(|c| c.as_u64()),
        Some(total - 1),
        "exactly the crashed cell recomputed"
    );
    assert!(
        manifest.get("stats").map(|s| s.get("designed").is_some()).unwrap_or(false),
        "resumed manifest still carries the stats block"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
