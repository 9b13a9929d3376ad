//! End-to-end guards on the runner's contract, driven through the real
//! `smi-lab` binary:
//!
//! * serial and `--jobs 8` runs of `table2 --quick` produce byte-identical
//!   JSONL records (and identical stdout);
//! * a warm re-run satisfies every cell from cache, still byte-identical.

mod common;
use common::{read, tmp_dir};

fn smi_lab(args: &[&str]) -> std::process::Output {
    let out = common::smi_lab(args);
    assert!(
        out.status.success(),
        "smi-lab {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

#[test]
fn parallel_records_are_byte_identical_to_serial() {
    let dir = tmp_dir("jobs");
    let rec1 = dir.join("serial.jsonl");
    let rec8 = dir.join("jobs8.jsonl");
    let cache = dir.join("cache");
    let out1 = smi_lab(&[
        "table2",
        "--quick",
        "--jobs",
        "1",
        "--no-cache",
        "--cache-dir",
        cache.to_str().unwrap(),
        "--records",
        rec1.to_str().unwrap(),
    ]);
    let out8 = smi_lab(&[
        "table2",
        "--quick",
        "--jobs",
        "8",
        "--no-cache",
        "--cache-dir",
        cache.to_str().unwrap(),
        "--records",
        rec8.to_str().unwrap(),
    ]);
    let serial = read(&rec1);
    assert!(!serial.is_empty(), "records must be written");
    assert_eq!(serial, read(&rec8), "--jobs 8 records must match serial byte-for-byte");
    assert_eq!(out1.stdout, out8.stdout, "rendered table must match too");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn warm_rerun_is_fully_cached_and_identical() {
    let dir = tmp_dir("resume");
    let cache = dir.join("cache");
    let rec_cold = dir.join("cold.jsonl");
    let rec_warm = dir.join("warm.jsonl");
    let common = ["table2", "--quick", "--cache-dir"];
    smi_lab(
        &[&common[..], &[cache.to_str().unwrap(), "--records", rec_cold.to_str().unwrap()]]
            .concat(),
    );
    smi_lab(
        &[
            &common[..],
            &[cache.to_str().unwrap(), "--resume", "--records", rec_warm.to_str().unwrap()],
        ]
        .concat(),
    );
    assert_eq!(read(&rec_cold), read(&rec_warm), "resumed records must be identical");

    // The warm run's manifest must show every cell served from cache.
    let manifest =
        jsonio::Json::parse(&read(&cache.join("manifests/table2.json"))).expect("parse manifest");
    let total = manifest.get("cells_total").and_then(jsonio::Json::as_u64).unwrap();
    let cached = manifest.get("cells_cached").and_then(jsonio::Json::as_u64).unwrap();
    assert!(total > 0);
    assert_eq!(cached, total, "every cell of the warm run must come from cache");
    let _ = std::fs::remove_dir_all(&dir);
}
