//! End-to-end record/analyze equivalence on a real experiment.
//!
//! The harness unit tests prove the staged machinery on synthetic jobs;
//! these tests prove it on an actual reproduction campaign (§7.7 at
//! minimal scale): analyzing recorded bundles must yield row-for-row the
//! same output as the fused inline pipeline at any worker count, and a
//! warm content-addressed cache must serve every job without simulating.

use std::fs;
use std::path::PathBuf;

use harness::{Record, StageMode};

const SEED: u64 = 20140705;
const REPS: usize = 1;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("repro-rec-an-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn rows(mode: &StageMode, workers: usize) -> (Vec<String>, harness::StageStats) {
    let run = repro::exp77::staged(REPS, SEED)
        .into_campaign(mode)
        .run(workers);
    assert_eq!(run.failed() + run.faulted(), 0, "no job may fail");
    let stats = run.stages.expect("staged campaign reports stats");
    (run.into_outputs().iter().map(|r| r.row()).collect(), stats)
}

#[test]
fn analyze_from_disk_matches_inline_at_any_worker_count() {
    let root = tmp("analyze");
    let rec = repro::exp77::staged(REPS, SEED)
        .into_record_campaign(&root)
        .run(2);
    assert_eq!(rec.failed() + rec.faulted(), 0, "recording must succeed");
    assert_eq!(rec.stages.expect("stats").mode, "record");

    let (inline_rows, inline_stats) = rows(&StageMode::Inline, 1);
    assert_eq!(inline_stats.simulated, inline_rows.len());
    for workers in [1, 2] {
        let (offline_rows, stats) = rows(&StageMode::Analyze(root.clone()), workers);
        assert_eq!(stats.simulated, 0, "analyze mode must never simulate");
        assert_eq!(stats.cache_hits, inline_rows.len());
        assert_eq!(offline_rows, inline_rows, "workers={workers}");
    }
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn warm_cache_skips_simulation_with_identical_rows() {
    let root = tmp("cache");
    let (cold_rows, cold) = rows(&StageMode::Cached(root.clone()), 2);
    assert_eq!(cold.simulated, cold_rows.len());
    assert_eq!(cold.cache_misses, cold_rows.len());

    let (warm_rows, warm) = rows(&StageMode::Cached(root.clone()), 2);
    assert_eq!(warm.simulated, 0, "warm cache must not simulate");
    assert_eq!(warm.cache_hits, cold_rows.len());
    assert_eq!(warm.cache_misses, 0);
    assert_eq!(warm_rows, cold_rows);
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn every_job_reports_its_bundle_end_as_sim_secs() {
    let root = tmp("sim-secs");
    let rec = repro::exp77::staged(REPS, SEED)
        .into_record_campaign(&root)
        .run(2);
    assert_eq!(rec.failed() + rec.faulted(), 0, "recording must succeed");
    // The manifest's `end_us` of every recorded bundle, in job order.
    let ends: Vec<Option<f64>> = rec
        .jobs
        .iter()
        .map(|j| {
            let dir = &j.outcome.ok().expect("recorded").dir;
            let meta = trace::BundleReader::open(dir).expect("bundle opens").meta();
            Some(meta.end.as_micros() as f64 / 1e6)
        })
        .collect();
    assert!(ends.iter().all(|e| e.is_some_and(|s| s > 0.0)), "{ends:?}");
    let recorded: Vec<Option<f64>> = rec.jobs.iter().map(|j| j.sim_secs).collect();
    assert_eq!(recorded, ends, "record run");

    let an = repro::exp77::staged(REPS, SEED)
        .into_campaign(&StageMode::Analyze(root.clone()))
        .run(2);
    let analyzed: Vec<Option<f64>> = an.jobs.iter().map(|j| j.sim_secs).collect();
    assert_eq!(analyzed, ends, "analyze run");
    let _ = fs::remove_dir_all(&root);
}
