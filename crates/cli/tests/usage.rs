//! `smi-lab --help`, `-h` and `help` (also after a command) print the
//! usage to stdout and exit 0; an unknown argument is still a usage
//! error (exit 2, stderr).

use std::process::Command;

fn smi_lab(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_smi-lab")).args(args).output().expect("run smi-lab")
}

#[test]
fn help_prints_usage_to_stdout_and_exits_zero() {
    for args in [&["--help"][..], &["-h"], &["help"], &["table2", "--quick", "--help"]] {
        let out = smi_lab(args);
        let line = args.join(" ");
        assert_eq!(out.status.code(), Some(0), "smi-lab {line} must exit 0");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.starts_with("usage: smi-lab "), "smi-lab {line} prints usage: {stdout:?}");
        assert!(out.stderr.is_empty(), "help is not an error: {:?}", out.stderr);
    }
}

#[test]
fn unknown_argument_is_still_a_usage_error() {
    let out = smi_lab(&["--no-such-flag"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown argument") && stderr.contains("usage: smi-lab "));
}
