//! Differential test of the controller's wait-condition memo.
//!
//! `Controller` evaluates a wait condition only on a pass whose observed
//! UI revision differs from the last evaluated one, and reuses that
//! verdict otherwise. The reference wait loops here re-implement the
//! controller's call for call but evaluate `WaitCondition::holds` on every
//! pass. Both drive the same session scripts: a one-video throttled Fig. 17
//! cell (also with its monitor deadline at the end of a stall), the chaos
//! video UI-freeze cell (watchdog armed), and a chaos page session whose
//! first load is cut by an app crash and then retried. The bundles they
//! save must be byte-identical.

use device::apps::VideoSpec;
use device::UiEvent;
use faults::{FaultKind, FaultPlan};
use qoe_doctor::replay::{self, PAGE_LOAD, VIDEO_INITIAL_LOADING};
use qoe_doctor::{
    BehaviorRecord, Calendar, Collection, ControlError, Controller, PlaybackReport, StartKind,
    WaitCondition,
};
use repro::scenario::{browser_world, video_dataset, youtube_world, PAGE_URL};
use repro::{chaos, exp75, NetKind};
use simcore::{DetRng, SimDuration, SimTime};
use std::path::{Path, PathBuf};
use trace::{BundleArtifact, BundleMeta};

const SEEDS: [u64; 2] = [20140705, 4242017];

/// How a reference wait ended.
enum End {
    Met,
    TimedOut,
    Frozen(SimDuration),
}

struct Waited {
    pass_end: SimTime,
    mean_parse: SimDuration,
    end: End,
}

impl Waited {
    fn met(&self) -> bool {
        matches!(self.end, End::Met)
    }
}

/// `Controller::wait_for`, evaluating `cond` on every pass.
fn wait_for(doctor: &mut Controller, cond: &WaitCondition, timeout: SimTime) -> Waited {
    let mut parse_total = SimDuration::ZERO;
    let mut parses = 0u64;
    let mut last_rev = doctor.world.phone.ui_revision(doctor.now);
    let mut last_change = doctor.now;
    loop {
        let (snapshot, cost) = doctor.world.phone.parse_ui(doctor.now);
        parse_total += cost;
        parses += 1;
        doctor.advance_to(doctor.now + cost);
        let pass_end = doctor.now;
        let mean_parse = parse_total / parses;
        let waited = |end| Waited {
            pass_end,
            mean_parse,
            end,
        };
        if cond.holds(&snapshot) {
            return waited(End::Met);
        }
        let rev = doctor.world.phone.ui_revision(doctor.now);
        if rev != last_rev {
            last_rev = rev;
            last_change = doctor.now;
        } else if let Some(threshold) = doctor.watchdog {
            let frozen_for = doctor.now.saturating_since(last_change);
            if frozen_for >= threshold {
                return waited(End::Frozen(frozen_for));
            }
        }
        if pass_end >= timeout {
            return waited(End::TimedOut);
        }
    }
}

/// `Controller::try_measure_after`.
fn try_measure_after(
    doctor: &mut Controller,
    action: &str,
    trigger: &UiEvent,
    cond: &WaitCondition,
    timeout: SimDuration,
) -> Result<BehaviorRecord, ControlError> {
    let start = doctor.now;
    doctor.interact(trigger);
    let w = wait_for(doctor, cond, start + timeout);
    let record = BehaviorRecord {
        action: action.to_string(),
        start,
        end: w.pass_end,
        start_kind: StartKind::Trigger,
        mean_parse: w.mean_parse,
        timed_out: !w.met(),
    };
    doctor.log.push(w.pass_end, record.clone());
    match w.end {
        End::Met => Ok(record),
        End::TimedOut => Err(ControlError::Timeout {
            action: action.to_string(),
            waited: record.raw(),
        }),
        End::Frozen(frozen_for) => Err(ControlError::UiFrozen {
            action: action.to_string(),
            frozen_for,
        }),
    }
}

/// `chaos::page_session`'s retried load, as a plain loop: type the URL and
/// load the page, at most three times; before each retry, back off (5 s,
/// doubling) and wait for a crashed app to relaunch.
fn retried_page_load(
    doctor: &mut Controller,
    type_url: &UiEvent,
    cond: &WaitCondition,
    timeout: SimDuration,
) -> (Result<BehaviorRecord, ControlError>, u32) {
    let mut backoff = SimDuration::from_secs(5);
    let mut attempt = 1;
    loop {
        doctor.interact(type_url);
        let result = try_measure_after(doctor, PAGE_LOAD, &UiEvent::KeyEnter, cond, timeout);
        if result.is_ok() || attempt == 3 {
            return (result, attempt);
        }
        doctor.advance(backoff);
        backoff = backoff * 2;
        if let Some(at) = doctor.world.phone.relaunch_at() {
            doctor.advance_to(at);
        }
        attempt += 1;
    }
}

/// `replay::monitor_playback`, evaluating both status conditions on
/// every pass.
fn monitor_playback(doctor: &mut Controller, action: &str, timeout: SimDuration) -> PlaybackReport {
    let playback_start = doctor.now;
    let deadline = doctor.now + timeout;
    let mut report = PlaybackReport::default();
    let status = |value: &str| WaitCondition::TextIs {
        id: "player_status".into(),
        value: value.into(),
    };
    let (finished, stalled) = (status("finished"), status("rebuffering"));
    let mut last_rev = doctor.world.phone.ui_revision(doctor.now);
    let mut last_change = doctor.now;
    loop {
        let mut timed_out = true;
        while doctor.now < deadline {
            let (snapshot, cost) = doctor.world.phone.parse_ui(doctor.now);
            doctor.advance_to(doctor.now + cost);
            let rev = doctor.world.phone.ui_revision(doctor.now);
            if rev != last_rev {
                last_rev = rev;
                last_change = doctor.now;
            } else if let Some(threshold) = doctor.watchdog {
                if doctor.now.saturating_since(last_change) >= threshold {
                    report.ui_frozen = true;
                    break;
                }
            }
            if finished.holds(&snapshot) {
                report.finished = true;
                timed_out = false;
                break;
            }
            if stalled.holds(&snapshot) {
                timed_out = false;
                break;
            }
        }
        if report.finished || report.ui_frozen || timed_out {
            break;
        }
        let stall_start = doctor.now;
        let w = wait_for(doctor, &replay::player_ready(), deadline);
        let record = BehaviorRecord {
            action: format!("{action}:rebuffer"),
            start: stall_start,
            end: w.pass_end,
            start_kind: StartKind::Parse,
            mean_parse: w.mean_parse,
            timed_out: !w.met(),
        };
        doctor.log.push(w.pass_end, record.clone());
        report.stall += record.calibrated();
        report.stalls += 1;
        match w.end {
            End::Met => {
                last_rev = doctor.world.phone.ui_revision(doctor.now);
                last_change = doctor.now;
            }
            End::TimedOut => break,
            End::Frozen(_) => {
                report.ui_frozen = true;
                break;
            }
        }
    }
    doctor.log.push(
        doctor.now,
        BehaviorRecord {
            action: format!("{action}:playback"),
            start: playback_start,
            end: doctor.now,
            start_kind: StartKind::Parse,
            mean_parse: SimDuration::ZERO,
            timed_out: !report.finished,
        },
    );
    report.span = doctor.now.saturating_since(playback_start);
    report
}

/// Which wait loops a session script runs on.
#[derive(Clone, Copy)]
enum Loops {
    /// The controller's own, memoized.
    Controller,
    /// The reference loops above, evaluating every pass.
    Reference,
}

/// `exp75::watch_session` for one video, on `loops`; `budget` replaces the
/// monitor's budget.
fn watch_session(net: NetKind, seed: u64, loops: Loops, budget: Option<SimDuration>) -> Collection {
    let dataset = video_dataset(11);
    let mut order: Vec<usize> = (0..dataset.len()).collect();
    DetRng::seed_from_u64(777).shuffle(&mut order);
    let spec = dataset[order[0]].clone();
    let world = youtube_world(video_dataset(11), None, net, seed ^ 0xBEE, true);
    let mut doctor = Controller::new(world);
    doctor.advance(SimDuration::from_secs(5));
    replay::search_videos(&mut doctor);
    doctor.advance(SimDuration::from_secs(10));
    let (click, ready) = (replay::video_result(&spec.name), replay::player_ready());
    let timeout = SimDuration::from_secs(240);
    let loaded = match loops {
        Loops::Controller => {
            doctor.try_measure_after(VIDEO_INITIAL_LOADING, &click, &ready, timeout)
        }
        Loops::Reference => {
            try_measure_after(&mut doctor, VIDEO_INITIAL_LOADING, &click, &ready, timeout)
        }
    };
    if loaded.is_ok() {
        let budget = budget.unwrap_or(
            spec.duration * 2
                + SimDuration::from_secs_f64(spec.total_bytes() as f64 * 8.0 / 64e3)
                + SimDuration::from_secs(60),
        );
        match loops {
            Loops::Controller => replay::monitor_playback(&mut doctor, "video", budget),
            Loops::Reference => monitor_playback(&mut doctor, "video", budget),
        };
        doctor.advance(SimDuration::from_secs(3));
    }
    doctor.collect()
}

/// What a reference chaos session produced.
struct Cell {
    col: Collection,
    attempts: u32,
    ui_frozen: bool,
    crashes: u32,
}

/// `chaos::video_session`, on the reference wait loops.
fn chaos_video_session(plan: &FaultPlan, net: NetKind, seed: u64) -> Cell {
    let spec = VideoSpec {
        name: "chaosvid".into(),
        duration: SimDuration::from_secs(60),
        bitrate_bps: 420e3,
    };
    let mut world = youtube_world(vec![spec], None, net, seed, false);
    plan.arm(&mut world);
    let mut doctor = Controller::new(world).with_watchdog(SimDuration::from_secs(75));
    doctor.advance(SimDuration::from_secs(5));
    replay::search_videos(&mut doctor);
    doctor.advance(SimDuration::from_secs(10));
    let click = replay::video_result("chaosvid");
    let loaded = replay::player_playing();
    let timeout = SimDuration::from_secs(120);
    let mut attempts = 1u32;
    let mut ui_frozen = false;
    let mut measured =
        try_measure_after(&mut doctor, VIDEO_INITIAL_LOADING, &click, &loaded, timeout);
    while let Err(e) = &measured {
        if matches!(e, ControlError::UiFrozen { .. }) {
            ui_frozen = true;
        }
        if attempts >= 3 {
            break;
        }
        attempts += 1;
        doctor.advance(SimDuration::from_secs(5));
        replay::search_videos(&mut doctor);
        doctor.advance(SimDuration::from_secs(5));
        measured = try_measure_after(&mut doctor, VIDEO_INITIAL_LOADING, &click, &loaded, timeout);
    }
    if measured.is_ok() {
        let budget = SimDuration::from_secs(60) * 2 + SimDuration::from_secs(120);
        ui_frozen |= monitor_playback(&mut doctor, "video", budget).ui_frozen;
    }
    let crashes = doctor.world.phone.crashes;
    Cell {
        col: doctor.collect(),
        attempts,
        ui_frozen,
        crashes,
    }
}

/// `chaos::page_session`, on the reference wait loops.
fn chaos_page_session(plan: &FaultPlan, seed: u64) -> Cell {
    let mut world = browser_world(device::apps::BrowserConfig::chrome(), NetKind::Umts3g, seed);
    plan.arm(&mut world);
    let mut doctor = Controller::new(world).with_watchdog(SimDuration::from_secs(20));
    doctor.advance(SimDuration::from_secs(2));
    let type_url = replay::type_url(PAGE_URL);
    let (result, attempts) = retried_page_load(
        &mut doctor,
        &type_url,
        &replay::page_loaded(PAGE_URL),
        SimDuration::from_secs(60),
    );
    let ui_frozen = matches!(result, Err(ControlError::UiFrozen { .. }));
    doctor.advance(SimDuration::from_secs(25));
    doctor.interact(&type_url);
    try_measure_after(
        &mut doctor,
        PAGE_LOAD,
        &UiEvent::KeyEnter,
        &replay::page_loaded(PAGE_URL),
        SimDuration::from_secs(60),
    )
    .ok();
    let crashes = doctor.world.phone.crashes;
    Cell {
        col: doctor.collect(),
        attempts,
        ui_frozen,
        crashes,
    }
}

fn scratch_dir(label: &str) -> PathBuf {
    let safe: String = label
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    std::env::temp_dir().join(format!(
        "qoe-wait-memo-differential-{}-{safe}",
        std::process::id()
    ))
}

/// Every file under `dir`, relative path → bytes, in path order.
fn read_tree(dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d).expect("read bundle dir") {
            let path = entry.expect("dir entry").path();
            if path.is_dir() {
                stack.push(path);
            } else {
                let rel = path.strip_prefix(dir).expect("under dir").to_path_buf();
                out.push((rel, std::fs::read(&path).expect("read bundle file")));
            }
        }
    }
    out.sort();
    out
}

/// Save both collections as bundles and require identical bytes.
fn assert_same_bundles(label: &str, seed: u64, memo: &Collection, reference: &Collection) {
    let dir = scratch_dir(label);
    let meta = |end| BundleMeta {
        seed,
        config_digest: 0,
        scenario: label.to_string(),
        end,
    };
    let (memo_dir, ref_dir) = (dir.join("memo"), dir.join("reference"));
    memo.save_bundle(&memo_dir, &meta(memo.end))
        .expect("save controller bundle");
    reference
        .save_bundle(&ref_dir, &meta(reference.end))
        .expect("save reference bundle");
    let (a, b) = (read_tree(&memo_dir), read_tree(&ref_dir));
    let _ = std::fs::remove_dir_all(&dir);
    assert!(!a.is_empty(), "{label}: empty bundle");
    assert_eq!(
        a.iter().map(|(p, _)| p).collect::<Vec<_>>(),
        b.iter().map(|(p, _)| p).collect::<Vec<_>>(),
        "{label}: bundle file sets differ"
    );
    for ((path, x), (_, y)) in a.iter().zip(&b) {
        assert!(
            x == y,
            "{label}: {} differs from the reference",
            path.display()
        );
    }
    assert!(memo == reference, "{label}: collections differ");
}

#[test]
fn throttled_fig17_cell_matches_the_reference_waits() {
    for seed in SEEDS {
        let net = NetKind::LteThrottled(exp75::CAP_RATE);
        let label = format!("fig17/{}/{seed}", net.label());
        let memo = exp75::watch_session::<Calendar>(net, 1, seed);
        let reference = watch_session(net, seed, Loops::Reference, None);
        let playbacks = memo
            .behavior
            .iter()
            .filter(|(_, r)| r.action == "video:playback");
        assert_eq!(playbacks.count(), 1, "{label}: no playback");
        assert_same_bundles(&label, seed, &memo, &reference);
    }
}

#[test]
fn chaos_ui_freeze_cell_matches_the_reference_waits() {
    let (_, plan) = chaos::video_grid()
        .into_iter()
        .find(|(fault, _)| *fault == "ui_freeze")
        .expect("the video grid has a UI-freeze cell");
    let net = NetKind::LteThrottled(900e3);
    for seed in SEEDS {
        let label = format!("chaos/video/ui_freeze/{seed}");
        let memo = chaos::video_session::<Calendar>(&plan, net, seed);
        let reference = chaos_video_session(&plan, net, seed);
        assert!(memo.ui_frozen, "{label}: the watchdog never fired");
        assert_eq!(memo.ui_frozen, reference.ui_frozen, "{label}");
        assert_eq!(memo.attempts, reference.attempts, "{label}");
        assert_eq!(memo.crashes, reference.crashes, "{label}");
        assert_same_bundles(&label, seed, &memo.col, &reference.col);
    }
}

#[test]
fn crash_then_retry_page_session_matches_the_reference_waits() {
    // The first load starts at 2 s and the app crashes mid-load. Its blank
    // UI stays unchanged until the relaunch at 32.5 s, so the 20 s watchdog
    // ends the first attempt as frozen. After the 5 s backoff the retry
    // waits for the relaunch, so the second attempt types into the live
    // app and loads the page.
    let plan = FaultPlan::new().with_kind(FaultKind::AppCrash {
        at: SimTime::from_millis(2_500),
        relaunch: SimDuration::from_secs(30),
    });
    for seed in SEEDS {
        let label = format!("chaos/page/app_crash/{seed}");
        let memo = chaos::page_session::<Calendar>(&plan, seed);
        let reference = chaos_page_session(&plan, seed);
        assert_eq!(memo.crashes, 1, "{label}: the app never crashed");
        assert_eq!(memo.attempts, 2, "{label}: the load was not retried once");
        assert_eq!(memo.attempts, reference.attempts, "{label}");
        assert_eq!(memo.ui_frozen, reference.ui_frozen, "{label}");
        assert_eq!(memo.crashes, reference.crashes, "{label}");
        assert_same_bundles(&label, seed, &memo.col, &reference.col);
    }
}

#[test]
fn stall_wait_ending_at_the_monitor_deadline_matches_the_reference_waits() {
    // A stall wait always runs a pass, so it may end at or past the
    // monitor's deadline; no pass may start after it then. Put the deadline
    // at the end of the first met stall wait of a full session: the
    // trajectory up to it is unchanged, and the session ends there.
    let net = NetKind::LteThrottled(exp75::CAP_RATE);
    for seed in SEEDS {
        let label = format!("deadline/{}/{seed}", net.label());
        let full = watch_session(net, seed, Loops::Controller, None);
        let first = |col: &Collection, action: &str| {
            col.behavior
                .iter()
                .find(|(_, r)| r.action == action && !r.timed_out)
                .map(|(_, r)| r.clone())
        };
        let playback_start = first(&full, VIDEO_INITIAL_LOADING)
            .expect("the video loaded")
            .end;
        let stall_end = first(&full, "video:rebuffer")
            .expect("the video stalled")
            .end;
        let budget = stall_end.saturating_since(playback_start);
        let memo = watch_session(net, seed, Loops::Controller, Some(budget));
        let reference = watch_session(net, seed, Loops::Reference, Some(budget));
        let (_, summary) = memo
            .behavior
            .iter()
            .find(|(_, r)| r.action == "video:playback")
            .expect("a playback summary");
        assert_eq!(
            summary.end, stall_end,
            "{label}: a pass ran past the deadline"
        );
        assert!(summary.timed_out, "{label}");
        assert_same_bundles(&label, seed, &memo, &reference);
    }
}
