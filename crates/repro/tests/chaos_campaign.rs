//! The chaos campaign's two robustness guarantees, end-to-end: a fixed-seed
//! run is byte-identical whatever the worker count, and a crash-looping app
//! exhausts the controller's retries into a `faulted` record while every
//! other cell of the same campaign completes normally.
//!
//! Uses a reduced grid (one healthy video cell, one recoverable crash, the
//! crash loop, one page fault) so the test stays fast; the full grid runs
//! under `repro chaos`.

use faults::{FaultKind, FaultLayer, FaultPlan, Window};
use harness::{report_json, Campaign, Outcome, Record};
use repro::chaos::{page_cell, video_cell, ChaosRow};
use repro::NetKind;
use simcore::{SimDuration, SimTime};

const SEED: u64 = 20140705;

/// Everything deterministic about a finished job (wall-clock excluded).
fn fingerprint(run: &harness::CampaignRun<ChaosRow>) -> Vec<(String, u64, String, String)> {
    run.jobs
        .iter()
        .map(|j| {
            let row = match &j.outcome {
                Outcome::Ok(r) => format!("ok:{}\n{}", r.row(), r.to_json().pretty()),
                Outcome::Faulted(reason) => format!("faulted:{reason}"),
                Outcome::Panicked(msg) => format!("panicked:{msg}"),
            };
            (j.label.clone(), j.seed, format!("{:?}", j.sim_secs), row)
        })
        .collect()
}

/// A four-cell slice of the chaos grid, including the crash loop.
fn small_campaign(seed: u64) -> Campaign<ChaosRow> {
    let mut c = Campaign::new("chaos_small");
    c.sim_cap(SimDuration::from_secs(3_600));
    let net = NetKind::LteThrottled(900e3);

    let baseline = FaultPlan::new();
    c.fallible_job("video/baseline", seed, move || {
        video_cell("baseline".into(), None, &baseline, net, seed)
    });

    // One crash mid-loading: the controller's re-search + re-click recovers.
    let crash = FaultPlan::new().with_kind(FaultKind::AppCrash {
        at: SimTime::from_secs(17),
        relaunch: SimDuration::from_millis(2_500),
    });
    c.fallible_job("video/app_crash", seed, move || {
        video_cell(
            "app_crash".into(),
            Some(FaultLayer::Device),
            &crash,
            net,
            seed,
        )
    });

    // Crash every 5 s: loading (~7 s on the throttled link) never fits in
    // the ~3.5 s of uptime, so every controller attempt fails and the
    // harness faults the cell.
    let mut loop_plan = FaultPlan::new();
    for at in (16..1_200).step_by(5) {
        loop_plan = loop_plan.with_kind(FaultKind::AppCrash {
            at: SimTime::from_secs(at),
            relaunch: SimDuration::from_millis(1_500),
        });
    }
    c.fallible_job("video/crash_loop", seed, move || {
        video_cell(
            "crash_loop".into(),
            Some(FaultLayer::Device),
            &loop_plan,
            net,
            seed,
        )
    });

    let dns = FaultPlan::new().with_kind(FaultKind::DnsOutage {
        window: Window::span_secs(2, 14),
    });
    c.job("page/dns_outage", seed, move || {
        page_cell("dns_outage".into(), Some(FaultLayer::Network), &dns, seed)
    });
    c
}

#[test]
fn chaos_campaign_is_identical_for_1_and_4_workers() {
    let a = small_campaign(SEED).run(1);
    let b = small_campaign(SEED).run(4);
    assert_eq!(a.workers, 1);
    assert!(b.workers > 1);
    assert_eq!(fingerprint(&a), fingerprint(&b));

    // Full report bodies match once the wall-clock fields are stripped.
    let strip = |run: &harness::CampaignRun<ChaosRow>| {
        report_json(run)
            .pretty()
            .lines()
            .filter(|l| !l.contains("wall_ms") && !l.contains("\"workers\""))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(strip(&a), strip(&b));

    // The crash loop lands as a faulted record — controller retries
    // exhausted, reason preserved — while the other three cells complete.
    assert_eq!(a.jobs.len(), 4);
    assert_eq!(a.faulted(), 1);
    assert_eq!(a.failed(), 0);
    assert!(matches!(
        &a.jobs[2].outcome,
        Outcome::Faulted(reason) if reason.contains("no measurement after 3 attempts")
    ));
    assert!(a.jobs[0].outcome.is_ok());
    assert!(a.jobs[1].outcome.is_ok());
    assert!(a.jobs[3].outcome.is_ok());

    // The recovered crash cell shows the resilience machinery in its row:
    // a second controller attempt after one observed crash.
    let crash_row = a.jobs[1].outcome.ok().expect("app_crash cell completed");
    assert_eq!(crash_row.crashes, 1);
    assert!(crash_row.attempts > 1);
    assert_eq!(crash_row.attributed, "device");
}
