//! The `repro` binary's argument handling: malformed invocations are usage
//! errors (exit 2, usage on stderr) that run nothing, `list` prints the
//! whole experiment index, and every id it lists runs.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro binary runs")
}

/// Assert `args` is rejected as a usage error whose message contains `msg`.
fn assert_usage_error(args: &[&str], msg: &str) {
    let out = repro(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains(msg), "{args:?}: {stderr}");
    assert!(stderr.contains("usage: repro"), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
}

#[test]
fn value_on_a_flag_that_takes_none_is_rejected() {
    assert_usage_error(&["fig17", "--quick=false"], "--quick takes no value");
    assert_usage_error(&["--quick=x"], "--quick takes no value");
    assert_usage_error(&["--help=yes"], "--help takes no value");
}

#[test]
fn unknown_flag_is_rejected() {
    assert_usage_error(&["fig17", "--quik"], "unknown flag: --quik");
}

#[test]
fn bench_is_not_an_experiment() {
    assert_usage_error(&["bench"], "unknown experiment: bench");
}

/// The ids `repro list` prints, in order.
fn listed_ids() -> Vec<String> {
    let out = repro(&["list"]);
    assert!(out.status.success());
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter_map(|l| l.split_whitespace().next())
        .map(str::to_string)
        .collect()
}

#[test]
fn list_prints_every_experiment_id() {
    let ids = listed_ids();
    let declared = repro::cli::EXPERIMENTS
        .iter()
        .flat_map(|e| e.ids)
        .chain(repro::cli::COMMANDS);
    for (id, _) in declared {
        assert!(
            ids.iter().any(|i| i == id),
            "`list` is missing {id}: {ids:?}"
        );
    }
}

/// Every listed id, aliases included, dispatches: it runs at `--quick`,
/// exits 0, and prints its own header.
#[test]
fn every_listed_id_runs_under_its_own_header() {
    for id in listed_ids() {
        if id == "list" || id == "all" {
            continue;
        }
        let out = repro(&[&id, "--quick", "--jobs", "2"]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "{id}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(
            stdout.contains(&format!("=== {id} — ")),
            "{id} printed no header of its own:\n{stdout}"
        );
    }
}
