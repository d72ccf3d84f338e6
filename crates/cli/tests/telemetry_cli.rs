//! Process-level tests of the telemetry surface: `--trace` writes to
//! stderr without perturbing stdout, `--quiet` silences the informational
//! stderr stats, and `--stats-json` emits the machine-readable run record.

use std::path::PathBuf;
use std::process::{Command, Output};

fn tiscc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tiscc")).args(args).output().expect("spawn tiscc")
}

fn program(stem: &str) -> String {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../examples/programs")
        .join(format!("{stem}.tql"))
        .to_str()
        .unwrap()
        .to_string()
}

/// `--trace` (tree and json) must leave stdout byte-identical to an
/// untraced run; the trace itself goes to stderr.
#[test]
fn trace_leaves_stdout_byte_identical() {
    let adder = program("adder");
    let plain = tiscc(&["estimate", &adder, "--budget", "1e-3"]);
    assert!(plain.status.success());
    for format in ["--trace", "--trace=tree", "--trace=json"] {
        let traced = tiscc(&["estimate", &adder, "--budget", "1e-3", format]);
        assert!(traced.status.success(), "{format} failed");
        assert_eq!(traced.stdout, plain.stdout, "{format} changed stdout");
        assert!(!traced.stderr.is_empty(), "{format} wrote no trace");
    }
    let tree = tiscc(&["estimate", &adder, "--budget", "1e-3", "--trace=tree"]);
    let stderr = String::from_utf8_lossy(&tree.stderr);
    assert!(stderr.starts_with("trace: total "), "unexpected tree header: {stderr}");
    for needle in ["estimate", "parse", "schedule", "compile", "counters:"] {
        assert!(stderr.contains(needle), "tree missing {needle:?}: {stderr}");
    }
}

/// An unknown trace format is a usage error (exit 2), not a silent
/// fallback.
#[test]
fn unknown_trace_format_exits_2() {
    let out = tiscc(&["estimate", &program("bell"), "--trace=xml"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("tree") && stderr.contains("json"), "{stderr}");
}

/// `sweep --quiet` silences every informational stderr line while leaving
/// the CSV on stdout untouched.
#[test]
fn sweep_quiet_silences_stderr_but_not_stdout() {
    let loud = tiscc(&["sweep", "--dmax", "2"]);
    let quiet = tiscc(&["sweep", "--dmax", "2", "--quiet"]);
    assert!(loud.status.success() && quiet.status.success());
    assert_eq!(loud.stdout, quiet.stdout);
    assert!(String::from_utf8_lossy(&loud.stderr).contains("cold sweep"));
    assert!(quiet.stderr.is_empty(), "{:?}", String::from_utf8_lossy(&quiet.stderr));
}

/// `frontier --quiet --stats-json F` runs silently and leaves a stats
/// document embedding the span tree.
#[test]
fn frontier_stats_json_embeds_the_trace() {
    let dir = std::env::temp_dir().join(format!("tiscc-stats-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let stats_path = dir.join("stats.json");
    let out = tiscc(&[
        "frontier",
        &program("bell"),
        "--dmin",
        "3",
        "--dmax",
        "3",
        "--quiet",
        "--stats-json",
        stats_path.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(out.stderr.is_empty(), "{:?}", String::from_utf8_lossy(&out.stderr));
    let stats = std::fs::read_to_string(&stats_path).unwrap();
    for needle in [
        "\"schema\":\"tiscc.frontier-stats.v2\"",
        "\"program\":\"bell\"",
        "\"jobs\":",
        "\"elapsed_s\":",
        "\"trace\":{\"schema\":\"tiscc.trace.v1\"",
    ] {
        assert!(stats.contains(needle), "stats missing {needle:?}: {stats}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
