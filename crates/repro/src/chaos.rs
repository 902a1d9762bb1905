//! Chaos campaign — QoE under injected cross-layer faults.
//!
//! Not a figure of the paper but a direct exercise of its thesis: QoE
//! Doctor's cross-layer analysis should attribute a QoE degradation to the
//! layer that actually caused it. We replay the §7.5 video scenario and the
//! §7.7 page-load scenario over a grid of deterministic fault injections
//! (`faults` crate) — link outages, burst loss, latency spikes, DNS and
//! origin-server failures, inter-RAT handovers, RRC promotion failures, RLC
//! storms, app crashes, and ANR-style UI freezes — and for each cell report
//! the measured QoE delta plus the layer the diagnosis pins the worst user
//! wait on. The resilient controller (UI watchdog + retry/recovery) keeps
//! every cell terminating: a crashed app is recovered by re-issuing the
//! interactions, a crash-looping app exhausts its retry budget and lands as
//! a `faulted` campaign record instead of hanging or poisoning aggregates.

use std::fmt;

use crate::scenario::{browser_world, youtube_world, NetKind, PAGE_URL};
use device::apps::{BrowserConfig, VideoSpec, YOUTUBE_VIDEO_HOST};
use device::UiEvent;
use faults::{FaultKind, FaultLayer, FaultPlan, Window};
use harness::{Campaign, Json, Record};
use netstack::GilbertElliott;
use qoe_doctor::replay::{self, PAGE_LOAD, VIDEO_INITIAL_LOADING};
use qoe_doctor::{diagnose_worst, Calendar, Collection, ControlError, Controller, Kernel};
use radio::{RadioTech, RrcState};
use simcore::{SimDuration, SimTime};

/// One chaos cell's result row.
#[derive(Debug, Clone)]
pub struct ChaosRow {
    /// Scenario family: `"video"` or `"page"`.
    pub scenario: &'static str,
    /// Injected fault label, or `"baseline"`.
    pub fault: String,
    /// Layer the fault targets (`None` for the baseline).
    pub expected: Option<&'static str>,
    /// Worst calibrated user wait in the cell (seconds).
    pub latency_s: f64,
    /// Rebuffering ratio (video cells; 0 for page cells).
    pub rebuffering: f64,
    /// Controller-level attempts the worst measurement needed.
    pub attempts: u32,
    /// App crashes observed.
    pub crashes: u32,
    /// Whether the UI watchdog diagnosed a frozen layout tree.
    pub ui_frozen: bool,
    /// Layer the cross-layer diagnosis attributes the worst wait to.
    pub attributed: &'static str,
    /// Whether the attribution matches the injected layer (`None` for the
    /// baseline, which has nothing to attribute).
    pub attribution_ok: Option<bool>,
}

impl fmt::Display for ChaosRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let verdict = match self.attribution_ok {
            None => "-".into(),
            Some(true) => "OK".into(),
            Some(false) => format!("MISS (expected {})", self.expected.unwrap_or("?")),
        };
        write!(
            f,
            "{:<5} {:<18} wait {:>6.1}s  rebuf {:>4.2}  attempts {}  crashes {}  frozen {:<5}  -> {:<7} {}",
            self.scenario,
            self.fault,
            self.latency_s,
            self.rebuffering,
            self.attempts,
            self.crashes,
            self.ui_frozen,
            self.attributed,
            verdict
        )
    }
}

impl Record for ChaosRow {
    fn to_json(&self) -> Json {
        Json::obj([
            ("scenario", Json::from(self.scenario)),
            ("fault", Json::from(self.fault.as_str())),
            ("expected_layer", Json::from(self.expected)),
            ("latency_s", Json::Num(self.latency_s)),
            ("rebuffering", Json::Num(self.rebuffering)),
            ("attempts", Json::from(self.attempts as u64)),
            ("crashes", Json::from(self.crashes as u64)),
            ("ui_frozen", Json::from(self.ui_frozen)),
            ("attributed_layer", Json::from(self.attributed)),
            ("attribution_ok", Json::from(self.attribution_ok)),
        ])
    }

    fn sample_sets(&self) -> Vec<(&'static str, Vec<f64>)> {
        vec![
            ("latency_s", vec![self.latency_s]),
            ("rebuffering", vec![self.rebuffering]),
        ]
    }
}

fn is_lte(s: RrcState) -> bool {
    matches!(
        s,
        RrcState::LteIdle | RrcState::LteContinuous | RrcState::LteShortDrx | RrcState::LteLongDrx
    )
}

/// Attribute the worst wait to a layer using only collected evidence —
/// never the injected plan. Cascade: hard device evidence (watchdog-frozen
/// UI, app crashes) first, then radio evidence (an inter-RAT handover
/// inside the window, or an RRC/RLC-dominated network share), then a
/// network-bound verdict, else the device.
fn attribute(crashes: u32, ui_frozen: bool, worst: Option<&qoe_doctor::Diagnosis>) -> &'static str {
    if ui_frozen || crashes > 0 {
        return "device";
    }
    let Some(d) = worst else { return "none" };
    if d.rrc_transitions
        .iter()
        .any(|(_, tr)| is_lte(tr.from) != is_lte(tr.to))
    {
        return "radio";
    }
    // A healthy air interface retransmits almost nothing; a window where a
    // sizable share of RLC PDUs are retransmissions is first-hop loss.
    if d.rlc_retx_ratio > 0.15 {
        return "radio";
    }
    // OTA-dominated verdicts are deliberately NOT radio evidence: a core
    // outage also inflates poll→STATUS waits (the far side simply never
    // answers), while genuine air-interface loss shows up in the
    // retransmission ratio above.
    let v = d.verdict();
    if v.contains("RLC transmission") || v.contains("RRC promotion") {
        return "radio";
    }
    if v.starts_with("network-bound") {
        return "network";
    }
    "device"
}

const VIDEO_NAME: &str = "chaosvid";

/// What a chaos cell's controller session produced, before attribution.
pub struct CellSession {
    /// Everything the session recorded.
    pub col: Collection,
    /// Controller-level attempts the first measurement needed.
    pub attempts: u32,
    /// Whether the UI watchdog fired.
    pub ui_frozen: bool,
    /// App crashes suffered.
    pub crashes: u32,
    /// The first measured wait (calibrated seconds), or why none was taken.
    pub measured: Result<f64, ControlError>,
    /// Rebuffering ratio of the playback that followed (1.0 when the video
    /// never loaded; 0.0 for page cells).
    pub rebuffering: f64,
}

/// Record one video chaos session under `plan`, run by kernel `K`: search,
/// play one video, and recover as needed.
pub fn video_session<K: Kernel>(plan: &FaultPlan, net: NetKind, seed: u64) -> CellSession {
    let spec = VideoSpec {
        name: VIDEO_NAME.into(),
        duration: SimDuration::from_secs(60),
        bitrate_bps: 420e3,
    };
    // Full QxDM logging: radio attribution needs per-PDU records.
    let mut world = youtube_world(vec![spec], None, net, seed, false);
    plan.arm(&mut world);
    let mut doctor = Controller::<K>::with_kernel(world)
        // The player UI only redraws on phase transitions, so an unstalled
        // 60 s playback is legitimately static for its full duration; the
        // threshold must clear that, or every healthy cell reads as frozen.
        .with_watchdog(SimDuration::from_secs(75));
    doctor.advance(SimDuration::from_secs(5));
    replay::search_videos(&mut doctor);
    doctor.advance(SimDuration::from_secs(10));

    let click = replay::video_result(VIDEO_NAME);
    // The cell is frozen if any attempt froze.
    let mut ui_frozen = false;
    let (measured, attempts) = doctor.retry(|doctor, attempt| {
        if attempt > 1 {
            // A relaunched app forgot its search results: search again
            // before clicking.
            doctor.advance(SimDuration::from_secs(5));
            replay::search_videos(doctor);
            doctor.advance(SimDuration::from_secs(5));
        }
        let measured = doctor.try_measure_after(
            VIDEO_INITIAL_LOADING,
            &click,
            &replay::player_playing(),
            SimDuration::from_secs(120),
        );
        ui_frozen |= matches!(measured, Err(ControlError::UiFrozen { .. }));
        measured
    });

    let mut rebuffering = 1.0;
    if measured.is_ok() {
        let budget = SimDuration::from_secs(60) * 2 + SimDuration::from_secs(120);
        let report = replay::monitor_playback(&mut doctor, "video", budget);
        ui_frozen |= report.ui_frozen;
        rebuffering = report.rebuffering_ratio();
    }
    let crashes = doctor.world.phone.crashes;
    CellSession {
        col: doctor.collect(),
        attempts,
        ui_frozen,
        crashes,
        measured: measured.map(|m| m.calibrated().as_secs_f64()),
        rebuffering,
    }
}

/// Run one video chaos cell: search, play one video under `plan`, recover
/// as needed, and attribute the worst wait. Returns `Err` when the cell
/// could not produce a measurement within its retry budget (crash loops).
pub fn video_cell(
    fault: String,
    expected: Option<FaultLayer>,
    plan: &FaultPlan,
    net: NetKind,
    seed: u64,
) -> Result<ChaosRow, String> {
    let session = video_session::<Calendar>(plan, net, seed);
    let loading_s = match &session.measured {
        Ok(loading_s) => *loading_s,
        Err(e) if fault == "crash_loop" => {
            return Err(format!(
                "no measurement after {} attempts: {e}",
                session.attempts
            ));
        }
        Err(_) => f64::NAN,
    };
    let worst = diagnose_worst(&session.col);
    let attributed = attribute(session.crashes, session.ui_frozen, worst.as_ref());
    // Report the worst user wait in the cell — a fault that spares the
    // initial loading still shows up through its rebuffer records.
    let latency_s = worst
        .as_ref()
        .map(|d| d.user_latency.as_secs_f64())
        .unwrap_or(if loading_s.is_nan() { 0.0 } else { loading_s });
    Ok(ChaosRow {
        scenario: "video",
        fault,
        expected: expected.map(FaultLayer::label),
        latency_s,
        rebuffering: session.rebuffering,
        attempts: session.attempts,
        crashes: session.crashes,
        ui_frozen: session.ui_frozen,
        attributed,
        attribution_ok: expected.map(|l| l.label() == attributed),
    })
}

/// Record one page-load chaos session under `plan` on the default 3G
/// machine, run by kernel `K`: a retried load, then a fault-free one.
pub fn page_session<K: Kernel>(plan: &FaultPlan, seed: u64) -> CellSession {
    let mut world = browser_world(BrowserConfig::chrome(), NetKind::Umts3g, seed);
    plan.arm(&mut world);
    let mut doctor = Controller::<K>::with_kernel(world).with_watchdog(SimDuration::from_secs(20));
    doctor.advance(SimDuration::from_secs(2));
    let type_url = replay::type_url(PAGE_URL);
    let (result, attempts) = doctor.retry(|doctor, attempt| {
        if attempt > 1 {
            // Back off (5 s, doubling after each failed attempt), then let a
            // crashed app come back: events sent to a dead app are lost.
            doctor.advance(SimDuration::from_secs(5) * (1u64 << (attempt - 2)));
            if let Some(at) = doctor.world.phone.relaunch_at() {
                doctor.advance_to(at);
            }
        }
        // A relaunched browser forgot the URL: type it on every attempt.
        doctor.interact(&type_url);
        doctor.try_measure_after(
            PAGE_LOAD,
            &UiEvent::KeyEnter,
            &replay::page_loaded(PAGE_URL),
            SimDuration::from_secs(60),
        )
    });
    // Unlike a video cell, a page cell is frozen only if its last attempt
    // froze.
    let ui_frozen = matches!(result, Err(ControlError::UiFrozen { .. }));
    // A second, fault-free load for contrast in the log.
    doctor.advance(SimDuration::from_secs(25));
    doctor.interact(&type_url);
    replay::load_page(&mut doctor, PAGE_URL, SimDuration::from_secs(60));

    let crashes = doctor.world.phone.crashes;
    CellSession {
        col: doctor.collect(),
        attempts,
        ui_frozen,
        crashes,
        measured: result.map(|m| m.calibrated().as_secs_f64()),
        rebuffering: 0.0,
    }
}

/// Run one page-load chaos cell on the default 3G machine.
pub fn page_cell(
    fault: String,
    expected: Option<FaultLayer>,
    plan: &FaultPlan,
    seed: u64,
) -> ChaosRow {
    let session = page_session::<Calendar>(plan, seed);
    let worst = diagnose_worst(&session.col);
    let attributed = attribute(session.crashes, session.ui_frozen, worst.as_ref());
    ChaosRow {
        scenario: "page",
        fault,
        expected: expected.map(FaultLayer::label),
        latency_s: worst
            .as_ref()
            .map(|d| d.user_latency.as_secs_f64())
            .unwrap_or(0.0),
        rebuffering: 0.0,
        attempts: session.attempts,
        crashes: session.crashes,
        ui_frozen: session.ui_frozen,
        attributed,
        attribution_ok: expected.map(|l| l.label() == attributed),
    }
}

/// The video fault grid. Windows are placed to overlap the initial-loading
/// and early-playback phases (click lands at ~15 s of sim time).
pub fn video_grid() -> Vec<(&'static str, FaultPlan)> {
    let burst = GilbertElliott {
        good_to_bad: 0.05,
        bad_to_good: 0.3,
        loss_good: 0.0,
        loss_bad: 0.5,
    };
    vec![
        ("baseline", FaultPlan::new()),
        (
            "link_outage",
            FaultPlan::new().with_kind(FaultKind::LinkOutage {
                window: Window::span_secs(16, 28),
            }),
        ),
        (
            "burst_loss",
            FaultPlan::new().with_kind(FaultKind::BurstLoss {
                window: Window::span_secs(16, 46),
                model: burst,
            }),
        ),
        (
            "latency_spike",
            FaultPlan::new().with_kind(FaultKind::LatencySpike {
                window: Window::span_secs(16, 46),
                extra: SimDuration::from_millis(800),
            }),
        ),
        (
            "server_stall",
            FaultPlan::new().with_kind(FaultKind::ServerStall {
                server: YOUTUBE_VIDEO_HOST.into(),
                window: Window::span_secs(16, 31),
            }),
        ),
        (
            "tech_switch",
            FaultPlan::new().with_kind(FaultKind::TechSwitch {
                at: SimTime::from_secs(16),
                to: RadioTech::Umts3g,
            }),
        ),
        (
            "rlc_storm",
            FaultPlan::new().with_kind(FaultKind::RlcStorm {
                window: Window::span_secs(16, 36),
                loss: 0.35,
            }),
        ),
        (
            "app_crash",
            FaultPlan::new().with_kind(FaultKind::AppCrash {
                at: SimTime::from_secs(17),
                relaunch: SimDuration::from_millis(2_500),
            }),
        ),
        (
            "ui_freeze",
            // Long enough to outlast the 75 s watchdog from the last
            // pre-freeze redraw (~15 s), so the monitor flags it.
            FaultPlan::new().with_kind(FaultKind::UiFreeze {
                window: Window::span_secs(16, 110),
            }),
        ),
    ]
}

/// The page-load fault grid (first load starts at ~2 s of sim time).
pub fn page_grid() -> Vec<(&'static str, FaultPlan)> {
    vec![
        ("baseline", FaultPlan::new()),
        (
            "dns_outage",
            FaultPlan::new().with_kind(FaultKind::DnsOutage {
                window: Window::span_secs(2, 14),
            }),
        ),
        (
            "promotion_failure",
            FaultPlan::new().with_kind(FaultKind::PromotionFailure {
                count: 4,
                penalty: SimDuration::from_millis(1_500),
            }),
        ),
        (
            "server_stall",
            FaultPlan::new().with_kind(FaultKind::ServerStall {
                server: "www.example.com".into(),
                window: Window::span_secs(2, 12),
            }),
        ),
        (
            "ui_freeze",
            // Covers all three controller attempts (each trips the 20 s
            // watchdog, then backs off), so the cell ends in UiFrozen
            // rather than a lucky late success.
            FaultPlan::new().with_kind(FaultKind::UiFreeze {
                window: Window::span_secs(3, 90),
            }),
        ),
    ]
}

fn expected_layer(plan: &FaultPlan) -> Option<FaultLayer> {
    plan.layers().first().copied()
}

/// The chaos campaign: video + page fault grids, plus a crash-looping
/// video cell that exhausts the controller's retries and must land as
/// `faulted`.
pub fn campaign(seed: u64) -> Campaign<ChaosRow> {
    let mut c = Campaign::new("chaos");
    // Per-job sim watchdog: far above any cell's legitimate sim span
    // (~400 s), so a wedged cell is recorded instead of hanging.
    c.sim_cap(SimDuration::from_secs(3_600));
    // Policed LTE at ~1.4× the video bitrate: healthy playback never
    // stalls, but the buffer stays shallow enough that a mid-stream fault
    // produces a measurable QoE delta. Unthrottled LTE would download the
    // whole clip before the first fault window opens.
    let net = NetKind::LteThrottled(900e3);
    for (fault, plan) in video_grid() {
        let expected = expected_layer(&plan);
        c.fallible_job(format!("video/{fault}"), seed, move || {
            video_cell(fault.to_string(), expected, &plan, net, seed)
        });
    }
    // Crash loop: on a throttled link the ~7 s initial buffering never
    // fits inside the ~3.5 s of uptime between crashes, every
    // controller-level retry fails, and the harness records the cell as
    // faulted — without disturbing any other job.
    let mut loop_plan = FaultPlan::new();
    for at in (16..1_200).step_by(5) {
        loop_plan = loop_plan.with_kind(FaultKind::AppCrash {
            at: SimTime::from_secs(at),
            relaunch: SimDuration::from_millis(1_500),
        });
    }
    c.fallible_job("video/crash_loop", seed, move || {
        video_cell(
            "crash_loop".to_string(),
            Some(FaultLayer::Device),
            &loop_plan,
            NetKind::LteThrottled(900e3),
            seed,
        )
    });
    for (fault, plan) in page_grid() {
        let expected = expected_layer(&plan);
        c.job(format!("page/{fault}"), seed, move || {
            page_cell(fault.to_string(), expected, &plan, seed)
        });
    }
    c
}
