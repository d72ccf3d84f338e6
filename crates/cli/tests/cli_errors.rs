//! Process-level tests of the CLI error contract: bad arguments exit with
//! code 2 and a one-line stderr message; valid invocations succeed.

use std::path::PathBuf;
use std::process::{Command, Output};

fn tiscc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tiscc")).args(args).output().expect("spawn tiscc")
}

fn assert_usage_error(args: &[&str], needle: &str) {
    let out = tiscc(args);
    assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains(needle), "{args:?} stderr missing {needle:?}: {stderr}");
    assert_eq!(
        stderr.trim_end().lines().count(),
        1,
        "{args:?} must print a one-line message, got: {stderr}"
    );
}

#[test]
fn bad_arguments_exit_2_with_one_line_messages() {
    assert_usage_error(&["compile", "frobnicate"], "unknown instruction 'frobnicate'");
    assert_usage_error(&["compile", "idle", "--profile", "warp9"], "unknown hardware profile");
    assert_usage_error(&["estimate", "/no/such/file.tql"], "cannot read /no/such/file.tql");
    assert_usage_error(&["estimate"], "usage: tiscc estimate");
    assert_usage_error(&["nonsense"], "unknown subcommand 'nonsense'");
    assert_usage_error(&["sweep", "--dmax", "many"], "--dmax expects a number");
    assert_usage_error(&["sweep", "--dt", "soon"], "--dt expects a number or 'd'");
    assert_usage_error(&["compile", "idle", "bogus"], "dx expects a number");
    assert_usage_error(&["compile", "idle", "3", "x"], "dz expects a number");
    assert_usage_error(&["compile", "idle", "0", "0", "0"], "dx, dz >= 2 and dt >= 1");
    assert_usage_error(&["compile", "idle", "3", "3", "0"], "dt >= 1");
    assert_usage_error(&["tables", "--d", "1"], "--d must be at least 2");
    assert_usage_error(&["tables", "--dt", "0"], "--dt must be at least 1");
    assert_usage_error(&["sweep", "--dmax", "1"], "--dmax must be at least 2");
    assert_usage_error(&["sweep", "--dt", "0"], "--dt must be at least 1");
}

/// Every subcommand has a flag whitelist: a misspelt or removed flag is a
/// usage error naming it, never silently ignored.
#[test]
fn unknown_flags_exit_2_naming_the_flag() {
    let program =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/programs/bell.tql");
    let program = program.to_str().unwrap();
    assert_usage_error(&["estimate", program, "--bugdet", "1e-3"], "unknown flag --bugdet");
    assert_usage_error(&["estimate", program, "--mode", "analytic"], "unknown flag --mode");
    assert_usage_error(&["sweep", "--mode=analytic"], "unknown flag --mode");
    assert_usage_error(&["frontier", program, "--mode", "compiled"], "unknown flag --mode");
    // A flag valid for one subcommand is still unknown to another.
    assert_usage_error(&["tables", "--dmax", "3"], "unknown flag --dmax for 'tables'");
    assert_usage_error(&["idle", "3", "--budget", "1"], "unknown flag --budget");
}

/// `--help` and `-h` print the usage text and exit 0 instead of running
/// the subcommand (a bare `sweep` would compile the whole paper sweep).
#[test]
fn subcommand_help_prints_usage_without_running() {
    for args in [&["sweep", "--help"][..], &["sweep", "-h"], &["estimate", "--help"]] {
        let out = tiscc(args);
        assert_eq!(out.status.code(), Some(0), "{args:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.starts_with("usage: tiscc"), "{args:?}: {stdout}");
        assert!(out.stderr.is_empty(), "{args:?} ran the command: {:?}", out.stderr);
    }
}

/// Floorplan arguments have the same contract: unknown strategies,
/// malformed grids and undersized grids all exit 2.
#[test]
fn bad_layout_arguments_exit_2() {
    let program =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/programs/bell.tql");
    let program = program.to_str().unwrap();
    assert_usage_error(&["estimate", program, "--layout", "hexagonal"], "unknown layout");
    assert_usage_error(&["estimate", program, "--grid", "8by8"], "--grid expects ROWSxCOLS");
    assert_usage_error(&["estimate", program, "--grid", "0x8"], "--grid expects ROWSxCOLS");
    assert_usage_error(
        &["estimate", program, "--layout", "checkerboard", "--grid", "1x2"],
        "use a larger --grid",
    );
    // A grid the program fits on but cannot route over (no ancilla row at
    // all) is equally a floorplan-argument problem: exit 2.
    assert_usage_error(&["estimate", program, "--layout", "row", "--grid", "1x2"], "unroutable");
}

/// `--show-layout` prints the floorplan before the estimate report, and
/// the 2D layouts report their congestion columns.
#[test]
fn show_layout_prints_the_floorplan() {
    let program =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/programs/adder.tql");
    let out = tiscc(&[
        "estimate",
        program.to_str().unwrap(),
        "--budget",
        "1e-3",
        "--layout",
        "checkerboard",
        "--grid",
        "8x8",
        "--show-layout",
    ]);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    for needle in [
        "floorplan: checkerboard layout on 8x8 tiles",
        "a0",
        "··",
        "parallel_merges 4",
        "routing_stalls 0",
    ] {
        assert!(stdout.contains(needle), "stdout missing {needle:?}: {stdout}");
    }
}

/// Argument *values* that parse but are physically meaningless (a
/// non-positive budget, an above-threshold physical error rate) are bad
/// arguments too: exit 2, not a runtime failure.
#[test]
fn meaningless_estimate_parameters_exit_2() {
    let program =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/programs/bell.tql");
    let program = program.to_str().unwrap();
    let out = tiscc(&["estimate", program, "--budget", "0"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("budget must be positive"));
    let out = tiscc(&["estimate", program, "--p-phys", "0.5"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("not below threshold"));
}

#[test]
fn malformed_programs_exit_2_with_the_offending_line() {
    let dir = std::env::temp_dir();
    let path = dir.join("tiscc_cli_errors_bad.tql");
    std::fs::write(&path, "qubit a\nfrobnicate a\n").unwrap();
    let out = tiscc(&["estimate", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("line 2"), "stderr: {stderr}");
    assert!(stderr.contains("frobnicate"), "stderr: {stderr}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn estimate_succeeds_on_a_bundled_program() {
    let program =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/programs/bell.tql");
    let out = tiscc(&[
        "estimate",
        program.to_str().unwrap(),
        "--budget",
        "1e-3",
        "--profile",
        "h1,projected",
    ]);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    for needle in ["Program 'bell'", "h1", "projected", "qubit-rounds"] {
        assert!(stdout.contains(needle), "stdout missing {needle:?}: {stdout}");
    }
}

#[test]
fn help_and_profiles_succeed() {
    assert!(tiscc(&["help"]).status.success());
    let out = tiscc(&["profiles"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("slow_junction"));
}
