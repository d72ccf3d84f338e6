//! Process-level tests of the CLI error contract: bad arguments exit with
//! code 2 and a one-line stderr message; valid invocations succeed.

use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

fn tiscc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tiscc")).args(args).output().expect("spawn tiscc")
}

/// `tiscc args` under a 1 GB address-space limit (`ulimit -v`), so a run
/// that allocates for a huge input fails on its own instead of exhausting
/// the machine.
fn limited(args: &[&str]) -> Command {
    let mut command = Command::new("sh");
    command
        .arg("-c")
        .arg("ulimit -v 1000000 && exec \"$0\" \"$@\"")
        .arg(env!("CARGO_BIN_EXE_tiscc"))
        .args(args);
    command
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

/// A flag given twice is a usage error naming it, never a silent choice
/// of one of the two values.
#[test]
fn repeated_flags_exit_2_naming_the_flag() {
    let program =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/programs/bell.tql");
    let program = program.to_str().unwrap();
    assert_usage_error(
        &["estimate", program, "--budget", "1e-3", "--profile", "h1", "--profile", "projected"],
        "--profile given twice",
    );
    assert_usage_error(
        &["estimate", program, "--budget", "0.5", "--budget=1e-12"],
        "--budget given twice",
    );
    assert_usage_error(&["sweep", "--quiet", "--dmax", "2", "--quiet"], "--quiet given twice");
}

/// Boolean flags take no `=VALUE` (`--quiet=false` is not "not quiet");
/// only `--trace` has a value form.
#[test]
fn boolean_flags_reject_a_value() {
    let program =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/programs/bell.tql");
    let program = program.to_str().unwrap();
    assert_usage_error(&["sweep", "--dmax", "2", "--quiet=false"], "--quiet takes no value");
    assert_usage_error(&["estimate", program, "--show-layout=no"], "--show-layout takes no value");
    assert_usage_error(&["serve", "--stdin-json=0"], "--stdin-json takes no value");
    assert_usage_error(&["sweep", "--help=no"], "--help takes no value");
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

/// An explicit grid over the tile cap exits 2 naming `--grid` before
/// anything is allocated for it, even under a 1 GB address-space limit
/// (placement used to collect every data slot of the grid first and
/// abort).
#[test]
fn oversized_grids_exit_2_before_allocating() {
    let program =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/programs/bell.tql");
    let program = program.to_str().unwrap();
    for grid in ["100000x100000", "20000x20000", "4294967296x4294967296"] {
        for args in [
            vec!["estimate", program, "--layout", "row", "--grid", grid, "--budget", "1e-4"],
            vec!["frontier", program, "--layouts", "checkerboard", "--grids", grid],
        ] {
            let out = limited(&args).output().expect("spawn tiscc");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
            let message =
                format!("a {grid} grid exceeds the 16777216-tile limit; use a smaller --grid");
            assert!(stderr.contains(&message), "{args:?}: {stderr}");
            assert_eq!(stderr.trim_end().lines().count(), 1, "{args:?}: {stderr}");
        }
    }
}

/// `--show-layout` prints the floorplan before the estimate report, and
/// the 2D layouts report their congestion columns.
#[test]
fn show_layout_prints_the_floorplan() {
    let program =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/programs/adder.tql");
    let program = program.to_str().unwrap();
    let estimate = |layout: &[&str]| {
        let out =
            tiscc(&[&["estimate", program, "--budget", "1e-3", "--show-layout"], layout].concat());
        assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
        out.stdout
    };
    let stdout = estimate(&["--layout", "checkerboard", "--grid", "8x8"]);
    // `--layout` takes the same `name@RxC` entry as `--layouts`.
    assert_eq!(estimate(&["--layout", "checkerboard@8x8"]), stdout);
    let stdout = String::from_utf8_lossy(&stdout);
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
    // No distance below 3 exists to select, even under a budget d=3 meets.
    for dmax in ["2", "0"] {
        let out = tiscc(&["estimate", program, "--dmax", dmax, "--budget", "0.5"]);
        assert_eq!(out.status.code(), Some(2), "--dmax {dmax}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(&format!("d_max must be at least 3, got {dmax}")), "{stderr}");
    }
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

/// Feeds `input` to `tiscc serve --stdin-json` and returns its reply
/// lines, asserting a clean exit.
fn serve_replies(input: &[u8]) -> Vec<String> {
    let mut command = Command::new(env!("CARGO_BIN_EXE_tiscc"));
    command.args(["serve", "--stdin-json"]);
    replies_of(command, input)
}

/// Feeds `input` to the server `command` starts and returns its reply
/// lines, asserting a clean exit.
fn replies_of(mut command: Command, input: &[u8]) -> Vec<String> {
    let mut child = command
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn tiscc serve");
    let mut stdin = child.stdin.take().unwrap();
    let input = input.to_vec();
    // Write from a thread: a long input must not block on a full pipe
    // while the replies wait unread.
    let writer = std::thread::spawn(move || stdin.write_all(&input).unwrap());
    let replies: Vec<String> =
        BufReader::new(child.stdout.take().unwrap()).lines().map(Result::unwrap).collect();
    writer.join().unwrap();
    assert!(child.wait().unwrap().success());
    replies
}

/// A line nested far deeper than any request gets one `malformed_json`
/// reply (the reader caps nesting instead of recursing off the stack),
/// and the loop answers the next line.
#[test]
fn serve_survives_a_deeply_nested_line() {
    let deep = format!("{{\"cmd\":{}", "[".repeat(65_000));
    assert_eq!(deep.len(), 65_007);
    let replies = serve_replies(format!("{deep}\n{{\"cmd\":\"ping\"}}\n").as_bytes());
    assert_eq!(replies.len(), 2, "{replies:?}");
    assert!(replies[0].contains("\"kind\":\"malformed_json\""), "{}", replies[0]);
    assert!(replies[1].contains("\"reply\":\"pong\""), "{}", replies[1]);
}

/// An estimate on a grid over the tile cap is a `bad_request` answered
/// before anything is allocated for the grid, so under a 1 GB
/// address-space limit the server still answers the next line (it used
/// to abort).
#[test]
fn serve_survives_an_oversized_grid() {
    let input = concat!(
        r#"{"cmd":"estimate","program":"examples/programs/bell.tql","#,
        r#""layout":"row@100000x100000","budget":1e-4}"#,
        "\n",
        r#"{"cmd":"ping"}"#,
        "\n"
    );
    let mut command = limited(&["serve", "--stdin-json"]);
    command.current_dir(PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../.."));
    let replies = replies_of(command, input.as_bytes());
    assert_eq!(replies.len(), 2, "{replies:?}");
    assert!(replies[0].contains(r#""kind":"bad_request""#), "{}", replies[0]);
    assert!(replies[0].contains("use a smaller --grid"), "{}", replies[0]);
    assert!(replies[1].contains(r#""reply":"pong""#), "{}", replies[1]);
}

/// A line that is not UTF-8 gets a `malformed_json` reply instead of
/// ending the server, and the next line is answered.
#[test]
fn serve_survives_a_non_utf8_line() {
    let replies = serve_replies(b"\xff\n{\"cmd\":\"ping\"}\n");
    assert_eq!(replies.len(), 2, "{replies:?}");
    assert!(replies[0].contains("\"kind\":\"malformed_json\""), "{}", replies[0]);
    assert!(replies[0].contains("not UTF-8"), "{}", replies[0]);
    assert!(replies[1].contains("\"reply\":\"pong\""), "{}", replies[1]);
}

/// A line past the 64 KiB cap is answered `oversized_line` with its full
/// length, though the server skips it unbuffered, and the next line is
/// answered.
#[test]
fn serve_skips_an_oversized_line_and_reports_its_length() {
    let long = format!("{{\"cmd\":\"ping\",\"pad\":\"{}\"}}", "x".repeat(1 << 20));
    let replies = serve_replies(format!("{long}\n{{\"cmd\":\"ping\"}}\n").as_bytes());
    assert_eq!(replies.len(), 2, "{replies:?}");
    assert!(replies[0].contains("\"kind\":\"oversized_line\""), "{}", replies[0]);
    let message = format!("request line is {} bytes (limit 65536)", long.len());
    assert!(replies[0].contains(&message), "{}", replies[0]);
    assert!(replies[1].contains("\"reply\":\"pong\""), "{}", replies[1]);
}
