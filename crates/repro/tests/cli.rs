//! The `repro` binary's argument handling: malformed invocations are usage
//! errors (exit 2, usage on stderr) that run nothing, and `list` prints the
//! whole experiment index.

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

#[test]
fn list_prints_every_experiment_id() {
    let out = repro(&["list"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let ids: Vec<&str> = stdout
        .lines()
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    for (id, _) in repro::cli::EXPERIMENTS {
        assert!(ids.contains(id), "`list` is missing {id}:\n{stdout}");
    }
}

#[test]
fn every_id_all_runs_is_a_listed_experiment() {
    let ids: Vec<&str> = repro::cli::EXPERIMENTS.iter().map(|(id, _)| *id).collect();
    for id in repro::cli::ALL {
        assert!(
            ids.contains(id),
            "`all` runs {id}, which `list` does not describe"
        );
    }
}
