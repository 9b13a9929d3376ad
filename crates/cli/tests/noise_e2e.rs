//! End-to-end guards on the noise subsystem, driven through the real
//! `smi-lab` binary:
//!
//! * an invalid `--noise` spec quarantines (exit 1) with the typed
//!   `invalid-spec` reason recorded in the run manifest — it never
//!   aborts the campaign;
//! * a valid spec runs cold, then a warm `--resume` re-run satisfies
//!   every cell from cache with byte-identical output;
//! * serial and parallel runs of the full fixed-budget study agree
//!   byte-for-byte.

mod common;
use common::{read, smi_lab, tmp_dir};
use std::path::Path;

#[test]
fn invalid_noise_spec_quarantines_with_a_typed_reason() {
    let dir = tmp_dir("invalid");
    let cache = dir.join("cache");
    // A zero slowdown factor is a rejected parameterization (the window
    // would be a hard freeze misdeclared as contention).
    let out = smi_lab(&[
        "noise",
        "--quick",
        "--noise",
        "smt-slowdown:factor_milli=0",
        "--cache-dir",
        cache.to_str().unwrap(),
    ]);
    assert_eq!(
        out.status.code(),
        Some(1),
        "invalid spec must degrade (exit 1), not abort: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    // The rendered study still appears, with the hole marked.
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("(failed)"), "degraded table must mark the hole:\n{stdout}");

    let manifest =
        jsonio::Json::parse(&read(&cache.join("manifests/noise.json"))).expect("parse manifest");
    assert_eq!(manifest.get("status").and_then(jsonio::Json::as_str), Some("degraded"));
    assert_eq!(manifest.get("cells_invalid").and_then(jsonio::Json::as_u64), Some(1));
    let quarantined = manifest.get("quarantined").and_then(jsonio::Json::as_array).unwrap();
    assert_eq!(quarantined.len(), 1);
    let reason = quarantined[0].get("reason").expect("structured reason");
    assert_eq!(reason.get("kind").and_then(jsonio::Json::as_str), Some("invalid-spec"));
    let message = reason.get("message").and_then(jsonio::Json::as_str).unwrap_or("");
    assert!(message.contains("slowdown"), "reason names the bad parameter: {message}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn zero_length_window_spec_quarantines_too() {
    let dir = tmp_dir("zerolen");
    let cache = dir.join("cache");
    let out = smi_lab(&[
        "noise",
        "--quick",
        "--noise",
        "core-jitter:min_us=0",
        "--cache-dir",
        cache.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1));
    let manifest =
        jsonio::Json::parse(&read(&cache.join("manifests/noise.json"))).expect("parse manifest");
    let quarantined = manifest.get("quarantined").and_then(jsonio::Json::as_array).unwrap();
    let reason = quarantined[0].get("reason").expect("structured reason");
    assert_eq!(reason.get("kind").and_then(jsonio::Json::as_str), Some("invalid-spec"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn valid_noise_cell_runs_caches_and_resumes() {
    let dir = tmp_dir("resume");
    let cache = dir.join("cache");
    let common = ["noise", "--quick", "--noise", "core-jitter", "--cache-dir"];
    let cold = smi_lab(&[&common[..], &[cache.to_str().unwrap()]].concat());
    assert!(cold.status.success(), "{}", String::from_utf8_lossy(&cold.stderr));
    let warm = smi_lab(&[&common[..], &[cache.to_str().unwrap(), "--resume"]].concat());
    assert!(warm.status.success(), "{}", String::from_utf8_lossy(&warm.stderr));
    assert_eq!(cold.stdout, warm.stdout, "resumed study must render identically");

    let manifest =
        jsonio::Json::parse(&read(&cache.join("manifests/noise.json"))).expect("parse manifest");
    let total = manifest.get("cells_total").and_then(jsonio::Json::as_u64).unwrap();
    let cached = manifest.get("cells_cached").and_then(jsonio::Json::as_u64).unwrap();
    assert!(total > 0);
    assert_eq!(cached, total, "every cell of the warm run must come from cache");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn noise_study_is_deterministic_across_job_counts() {
    let dir = tmp_dir("jobs");
    let cache = dir.join("cache");
    let rec1 = dir.join("serial.jsonl");
    let rec8 = dir.join("jobs8.jsonl");
    let run = |jobs: &str, rec: &Path| {
        let out = smi_lab(&[
            "noise",
            "--quick",
            "--jobs",
            jobs,
            "--no-cache",
            "--cache-dir",
            cache.to_str().unwrap(),
            "--records",
            rec.to_str().unwrap(),
        ]);
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        out
    };
    let out1 = run("1", &rec1);
    let out8 = run("8", &rec8);
    let serial = read(&rec1);
    assert!(!serial.is_empty(), "records must be written");
    assert_eq!(serial, read(&rec8), "--jobs 8 records must match serial byte-for-byte");
    assert_eq!(out1.stdout, out8.stdout, "rendered study must match too");
    let _ = std::fs::remove_dir_all(&dir);
}
