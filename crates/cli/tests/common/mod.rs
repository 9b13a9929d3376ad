//! Helpers shared by the `smi-lab` end-to-end tests.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicU64, Ordering};

/// A fresh, empty directory, unique per call (pid plus a counter): tests
/// on parallel threads never share, or delete, each other's cache.
pub fn tmp_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("smi-lab-cli-it-{}-{n}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create tmp dir");
    dir
}

/// Run the real `smi-lab` binary and capture its output.
pub fn smi_lab(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_smi-lab")).args(args).output().expect("run smi-lab")
}

/// Read a file the binary wrote.
pub fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}
