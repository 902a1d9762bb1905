//! Declared reads on the real campaigns.
//!
//! Every staged job declares the bundle entries its analyzer reads, and a
//! job that loads its bundle decodes only those. These tests run every
//! staged campaign at reduced scale through a cold and then a warm cache:
//! the cold run analyzes each job's full in-memory collection, the warm run
//! the declared-reads load of its bundle. Equal rows, job for job, mean
//! each declaration is complete. The last two tests damage an entry that a
//! job does not declare and check that the job still notices.

use std::fs;
use std::path::{Path, PathBuf};

use harness::{bundle_dir, Outcome, Record, StageMode, StagedCampaign};
use repro::NetKind;
use trace::BundleArtifact;

const SEED: u64 = 20140705;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("repro-reads-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Each job's label and rendered row (text and JSON), in job order.
fn rows<T: Record>(run: &harness::CampaignRun<T>) -> Vec<(String, Option<(String, String)>)> {
    run.jobs
        .iter()
        .map(|j| {
            let row = j.outcome.ok().map(|r| (r.row(), r.to_json().pretty()));
            (j.label.clone(), row)
        })
        .collect()
}

/// Run `make`'s campaign against a cold cache under `root`, then a warm
/// one, and require every warm job's row to equal its cold row. Returns
/// the cold rows.
fn assert_reads_complete<A, T>(
    root: &Path,
    make: impl Fn() -> StagedCampaign<A, T>,
) -> Vec<(String, Option<(String, String)>)>
where
    A: BundleArtifact + Send + 'static,
    T: Record + Send + 'static,
{
    let cold = make()
        .into_campaign(&StageMode::Cached(root.to_path_buf()))
        .run(2);
    let jobs = cold.jobs.len();
    let stats = cold.stages.expect("staged run has stats");
    assert_eq!(
        (stats.simulated, stats.cache_misses),
        (jobs, jobs),
        "{stats:?}"
    );
    let full = rows(&cold);
    assert!(
        full.iter().all(|(_, r)| r.is_some()),
        "{}: a cold job failed",
        cold.name
    );

    let warm = make()
        .into_campaign(&StageMode::Cached(root.to_path_buf()))
        .run(2);
    let stats = warm.stages.expect("staged run has stats");
    assert_eq!((stats.simulated, stats.cache_hits), (0, jobs), "{stats:?}");
    for ((label, want), (_, got)) in full.iter().zip(rows(&warm)) {
        assert_eq!(
            got.as_ref(),
            want.as_ref(),
            "{}/{label}: the row from the declared reads differs from the full collection's",
            warm.name
        );
    }
    full
}

fn complete<A, T>(name: &str, make: impl Fn() -> StagedCampaign<A, T>)
where
    A: BundleArtifact + Send + 'static,
    T: Record + Send + 'static,
{
    let root = tmp(name);
    assert_reads_complete(&root, make);
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn exp71_reads_are_complete() {
    complete("exp71", || repro::exp71::staged(1, SEED));
}

#[test]
fn exp73_reads_are_complete() {
    complete("fig10_11", || repro::exp73::staged_fig10_11(1, SEED));
    complete("fig12_13", || repro::exp73::staged_fig12_13(1, SEED));
}

#[test]
fn exp74_reads_are_complete() {
    complete("exp74", || repro::exp74::staged(1, SEED));
}

#[test]
fn exp75_reads_are_complete() {
    complete("fig17", || repro::exp75::staged_fig17(1, SEED));
    complete("fig18", || repro::exp75::staged_fig18(SEED));
    complete("fig19_20", || repro::exp75::staged_sweep(1, SEED));
}

#[test]
fn exp77_reads_are_complete() {
    complete("exp77", || repro::exp77::staged(1, SEED));
}

#[test]
fn ablation_reads_are_complete() {
    complete("ablation", || repro::ablation::staged(1, 1, 128e3, SEED));
}

#[test]
fn monitor_reads_are_complete() {
    complete("monitor", || repro::monitor::spec(2, SEED).build());
}

/// Flip one byte of `file` in the bundle of `campaign`'s job `label`, then
/// check that analyzing from disk faults that job with the checksum error
/// of `entry`, and that a cached run counts one miss, re-records it and
/// renders the cold rows again.
fn assert_damage_is_caught<A, T>(
    root: &Path,
    make: impl Fn() -> StagedCampaign<A, T>,
    cold: &[(String, Option<(String, String)>)],
    (campaign, label, seed, cfg): (&str, &str, u64, u64),
    (entry, file): (&str, &str),
) where
    A: BundleArtifact + Send + 'static,
    T: Record + Send + 'static,
{
    let path = bundle_dir(root, campaign, label, seed, cfg).join(file);
    let mut bytes = fs::read(&path).expect("the job's bundle holds the entry");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    fs::write(&path, bytes).unwrap();

    let an = make()
        .into_campaign(&StageMode::Analyze(root.to_path_buf()))
        .run(2);
    for j in &an.jobs {
        if j.label == label {
            let want = format!("'{entry}' does not match its manifest checksum");
            match &j.outcome {
                Outcome::Faulted(reason) => assert!(reason.contains(&want), "{reason}"),
                _ => panic!("{campaign}/{label}: damaged {file} was not caught"),
            }
        } else {
            assert!(j.outcome.is_ok(), "{campaign}/{}", j.label);
        }
    }
    let stats = an.stages.unwrap();
    assert_eq!(stats.cache_misses, 1, "{stats:?}");

    let rerun = make()
        .into_campaign(&StageMode::Cached(root.to_path_buf()))
        .run(2);
    let stats = rerun.stages.unwrap();
    assert_eq!((stats.cache_misses, stats.simulated), (1, 1), "{stats:?}");
    assert_eq!(rows(&rerun), cold);
}

#[test]
fn exp76_damaged_packet_trace_is_caught_though_undeclared() {
    let root = tmp("exp76");
    let make = || repro::exp76::staged(1, SEED);
    let cold = assert_reads_complete(&root, make);
    let label = format!("{}/no-ad", NetKind::Lte.label());
    let cfg = repro::stage::config_digest("exp76", &label, &[1]);
    assert_damage_is_caught(
        &root,
        make,
        &cold,
        ("exp76", &label, SEED, cfg),
        ("trace", "trace.pcapq"),
    );
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn fig7_damaged_pdu_truth_is_caught_though_undeclared() {
    let root = tmp("fig7_fig8");
    let make = || repro::exp72::staged(1, SEED);
    let cold = assert_reads_complete(&root, make);
    let kind = repro::exp72::PostKind::Photos;
    let label = format!("{}/{}", NetKind::Umts3g.label(), kind.label());
    let cfg = repro::stage::config_digest("fig7_fig8", &label, &[1]);
    assert_damage_is_caught(
        &root,
        make,
        &cold,
        ("fig7_fig8", &label, SEED ^ kind.label().len() as u64, cfg),
        ("pdus", "truth_pdus.bin"),
    );
    let _ = fs::remove_dir_all(&root);
}
