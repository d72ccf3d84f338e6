//! Process-level tests of the `tiscc gen` subcommand: byte-stable output
//! across separate process invocations, the `--out` file path, the
//! generate → estimate pipeline, and the exit-2 contract for bad families
//! and parameters.

use std::io::Read;
use std::process::{Command, Output, Stdio};

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

/// The reproducibility contract the benchmarks rely on: the same family,
/// size and seed produce byte-identical `.tql` in two *separate* process
/// invocations, and changing the seed changes the program.
#[test]
fn same_seed_is_byte_stable_across_processes() {
    let args = ["gen", "random-clifford-t", "--n", "500", "--seed", "9"];
    let first = tiscc(&args);
    let second = tiscc(&args);
    assert!(first.status.success());
    assert_eq!(first.stdout, second.stdout, "same seed must be byte-stable");
    assert!(!first.stdout.is_empty());

    let other = tiscc(&["gen", "random-clifford-t", "--n", "500", "--seed", "10"]);
    assert_ne!(first.stdout, other.stdout, "different seeds must diverge");
}

/// Every family at a small size emits a program the parser accepts: the
/// generated text round-trips through `tiscc estimate`.
#[test]
fn every_family_feeds_the_estimator() {
    let dir = std::env::temp_dir().join(format!("tiscc-gen-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for family in [
        "ripple-carry-adder",
        "carry-lookahead-adder",
        "qft",
        "ising-trotter",
        "ghz-chain",
        "teleport-chain",
        "random-clifford-t",
    ] {
        let path = dir.join(format!("{family}.tql"));
        let path = path.to_str().unwrap();
        let out = tiscc(&["gen", family, "--n", "3", "--out", path]);
        assert!(out.status.success(), "gen {family} failed: {:?}", out);
        assert!(out.stdout.is_empty(), "--out must not also print to stdout");
        let est = tiscc(&["estimate", path, "--budget", "1e-4"]);
        assert!(
            est.status.success(),
            "estimate of generated {family} failed: {}",
            String::from_utf8_lossy(&est.stderr)
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `--out FILE` writes exactly the bytes that stdout mode prints.
#[test]
fn out_file_matches_stdout() {
    let path = std::env::temp_dir().join(format!("tiscc-gen-out-{}.tql", std::process::id()));
    let path_str = path.to_str().unwrap();
    let piped = tiscc(&["gen", "qft", "--n", "5"]);
    let filed = tiscc(&["gen", "qft", "--n", "5", "--out", path_str]);
    assert!(piped.status.success() && filed.status.success());
    assert_eq!(std::fs::read(&path).unwrap(), piped.stdout);
    std::fs::remove_file(&path).ok();
}

/// Bad families and bad parameters exit 2 with a one-line message naming
/// the offending family or flag.
#[test]
fn bad_family_and_params_exit_2_naming_the_flag() {
    assert_usage_error(&["gen"], "usage: tiscc gen");
    assert_usage_error(&["gen", "warp-field"], "unknown workload family 'warp-field'");
    assert_usage_error(&["gen", "warp-field"], "ripple-carry-adder");
    assert_usage_error(&["gen", "ghz-chain", "--n", "1"], "--n");
    assert_usage_error(&["gen", "qft", "--n", "0"], "--n");
    assert_usage_error(&["gen", "qft", "--n", "many"], "--n expects a number");
    assert_usage_error(&["gen", "random-clifford-t", "--t-frac", "1.5"], "--t-frac");
    assert_usage_error(&["gen", "random-clifford-t", "--seed", "-3"], "--seed");
    assert_usage_error(&["gen", "random-clifford-t", "--qubits", "0"], "--qubits");
    assert_usage_error(&["gen", "ising-trotter", "--steps", "0"], "--steps");
    assert_usage_error(&["gen", "ising-trotter", "--j", "nan"], "--j");
    assert_usage_error(&["gen", "qft", "--n", "100000"], "cap is 10000000");
}

/// `tiscc gen … | head -c 100`: a reader that closes the pipe early ends
/// the command quietly with exit 0, not a broken-pipe panic.
#[test]
fn closed_stdout_exits_quietly() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_tiscc"))
        .args(["gen", "random-clifford-t", "--n", "100000", "--seed", "7"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn tiscc gen");
    let mut head = [0u8; 100];
    child.stdout.take().unwrap().read_exact(&mut head).unwrap();
    let out = child.wait_with_output().unwrap();
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(out.stderr.is_empty(), "{}", String::from_utf8_lossy(&out.stderr));
}
