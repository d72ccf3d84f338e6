//! Process-level tests of the `tiscc-report` argument contract: a distance
//! it cannot parse, or one below 2, exits 2 naming the argument, and no
//! report is printed.

use std::process::{Command, Output};

fn report(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tiscc-report")).args(args).output().expect("spawn")
}

#[test]
fn bad_distances_exit_2_naming_the_argument() {
    for args in [
        &["table1", "x3"][..],
        &["table2", "-3"],
        &["table1", "1"],
        &["table1", "3", "0"],
        &["fig4", "1"],
        &["resources", "2.5"],
    ] {
        let out = report(args);
        assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let bad = args.last().unwrap();
        assert!(stderr.contains(&format!("invalid distance '{bad}'")), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} must not print a table");
    }
}

#[test]
fn valid_distances_print_the_requested_report() {
    let out = report(&["table2", "3"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Table 2: primitive operations"), "{stdout}");
    assert!(stdout.contains("dx=3  dz=3"), "the distance argument is used: {stdout}");

    let out = report(&["fig4", "2"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("Move Right + Swap Left at d=2"));
}

#[test]
fn unknown_experiments_exit_2() {
    let out = report(&["table9"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown experiment 'table9'"));
}
