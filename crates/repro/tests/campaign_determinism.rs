//! The harness's core guarantee, exercised end-to-end through a real
//! experiment: a campaign's result sequence is identical whatever the
//! worker count, and a panicking job degrades to a failed-job record
//! instead of killing the campaign.

use harness::{report_json, Campaign, Outcome, Record, StageMode};

const SEED: u64 = 20140705;

/// Everything deterministic about a finished job: identity, the stdout row,
/// and the structured JSON payload. Wall-clock is deliberately excluded —
/// it is the one nondeterministic field of the run journal.
fn fingerprint<T: Record>(run: &harness::CampaignRun<T>) -> Vec<(String, u64, String, String)> {
    run.jobs
        .iter()
        .map(|j| {
            let row = match &j.outcome {
                Outcome::Ok(r) => format!("ok:{}\n{}", r.row(), r.to_json().pretty()),
                Outcome::Retried { row, attempts } => {
                    format!(
                        "retried[{attempts}]:{}\n{}",
                        row.row(),
                        row.to_json().pretty()
                    )
                }
                Outcome::Faulted { reason, attempts } => {
                    format!("faulted[{attempts}]:{reason}")
                }
                Outcome::Panicked(msg) => format!("panicked:{msg}"),
            };
            (j.label.clone(), j.seed, format!("{:?}", j.sim_secs), row)
        })
        .collect()
}

#[test]
fn fig17_campaign_is_identical_for_1_and_4_workers() {
    let fig17 = || repro::exp75::staged_fig17(2, SEED).into_campaign(&StageMode::Inline);
    let a = fig17().run(1);
    let b = fig17().run(4);
    assert_eq!(a.workers, 1);
    assert!(b.workers > 1);
    assert_eq!(fingerprint(&a), fingerprint(&b));

    // The full report bodies also match once the wall-clock fields are
    // stripped (they are the only lines that may differ).
    let strip = |run: &harness::CampaignRun<_>| {
        report_json(run)
            .pretty()
            .lines()
            .filter(|l| !l.contains("wall_ms") && !l.contains("\"workers\""))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(strip(&a), strip(&b));
}

#[test]
fn background_campaign_is_identical_for_1_and_4_workers() {
    // 1-hour quick variant of the §7.3 sweep: exercises timed_job and the
    // scaled-duration path `--quick` uses.
    let fig10 = || repro::exp73::staged_fig10_11(1, SEED).into_campaign(&StageMode::Inline);
    let a = fig10().run(1);
    let b = fig10().run(4);
    assert_eq!(fingerprint(&a), fingerprint(&b));
    assert!(a.jobs.iter().all(|j| j.sim_secs == Some(3600.0)));
}

#[test]
fn panicking_job_fails_alone() {
    // Silence the default panic hook for the deliberate panic below.
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));

    let mut c: Campaign<repro::exp75::WatchRun> = Campaign::new("fig17_with_failure");
    c.job("ok/before", SEED, move || {
        repro::exp75::run_watch(repro::NetKind::Lte, 1, SEED)
    });
    c.job("boom", SEED ^ 1, || panic!("injected failure"));
    c.job("ok/after", SEED ^ 2, move || {
        repro::exp75::run_watch(repro::NetKind::Umts3g, 1, SEED ^ 2)
    });
    let run = c.run(4);
    std::panic::set_hook(prev);

    assert_eq!(run.jobs.len(), 3);
    assert_eq!(run.failed(), 1);
    assert!(run.jobs[0].outcome.is_ok());
    assert!(
        matches!(&run.jobs[1].outcome, Outcome::Panicked(msg) if msg.contains("injected failure"))
    );
    assert!(run.jobs[2].outcome.is_ok());

    // The report records the failure as data, not as an abort.
    let doc = report_json(&run).pretty();
    assert!(doc.contains("\"jobs_failed\": 1"));
    assert!(doc.contains("\"panic\": \"injected failure\""));
}
