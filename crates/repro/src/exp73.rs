//! §7.3 — Facebook background traffic: data and energy (Figs. 10–13).
//!
//! Device B runs Facebook in the background on C1 3G for 16 hours. "Device
//! A" (the friend) is simulated by the push origin posting on a schedule;
//! time-sensitive notifications arrive over the persistent push channel,
//! while the periodic *refresh interval* fetch pulls non-time-sensitive
//! recommendation content. Data consumption comes from flow analysis over
//! the capture; network energy from RRC residencies against the power model.

use crate::scenario::{facebook_world, NetKind, PUSH_BYTES};
use device::apps::FbVersion;
use qoe_doctor::analyze::radio::{energy_breakdown, residencies};
use qoe_doctor::analyze::transport::TransportReport;
use qoe_doctor::{Collection, Controller};
use radio::power::PowerModel;
use radio::rrc::RrcState;
use simcore::{SimDuration, SimTime};
use std::fmt;

/// Duration of each background run at full scale (the paper's 16 h).
/// `--quick` runs pass a shorter duration through [`run_config`].
pub const RUN_HOURS: u64 = 16;

/// One bar of Figs. 10–13.
#[derive(Debug, Clone)]
pub struct BackgroundRow {
    /// Configuration label (push interval or refresh interval).
    pub label: String,
    /// Uplink kilobytes over the run.
    pub ul_kb: f64,
    /// Downlink kilobytes over the run.
    pub dl_kb: f64,
    /// Non-tail network energy (J).
    pub non_tail_j: f64,
    /// Tail network energy (J).
    pub tail_j: f64,
}

impl BackgroundRow {
    /// Total data in KB.
    pub fn total_kb(&self) -> f64 {
        self.ul_kb + self.dl_kb
    }

    /// Total energy in J.
    pub fn total_j(&self) -> f64 {
        self.non_tail_j + self.tail_j
    }
}

impl fmt::Display for BackgroundRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<8} data {:>7.0} KB (ul {:>6.0} / dl {:>6.0})   energy {:>6.0} J (non-tail {:>5.0} / tail {:>5.0})",
            self.label,
            self.total_kb(),
            self.ul_kb,
            self.dl_kb,
            self.total_j(),
            self.non_tail_j,
            self.tail_j
        )
    }
}

/// Run one background configuration for `hours` simulated hours (the
/// paper's experiment uses [`RUN_HOURS`]) and compute its row.
pub fn run_config(
    label: &str,
    push_interval: Option<SimDuration>,
    refresh_interval: Option<SimDuration>,
    hours: u64,
    seed: u64,
) -> BackgroundRow {
    background_row(
        &session(push_interval, refresh_interval, hours, seed),
        label,
    )
}

/// Record one background configuration for `hours` simulated hours.
fn session(
    push_interval: Option<SimDuration>,
    refresh_interval: Option<SimDuration>,
    hours: u64,
    seed: u64,
) -> Collection {
    // Backgrounded app: pushes are received but do not drive the visible UI
    // (auto-update on push belongs to the foreground §7.4 scenario).
    let world = facebook_world(
        FbVersion::ListView50,
        refresh_interval,
        false,
        push_interval,
        PUSH_BYTES,
        NetKind::Umts3g,
        seed,
        true, // per-PDU QxDM logging off; RRC transitions still recorded
    );
    let mut doctor = Controller::new(world);
    doctor.advance(SimDuration::from_hours(hours));
    doctor.collect()
}

/// Compute one Figs. 10–13 row from a recorded background session.
fn background_row(col: &Collection, label: &str) -> BackgroundRow {
    // Mobile data: all traffic to Facebook domains.
    let report = TransportReport::analyze(&col.trace);
    let (ul, dl) = report.volume_to("facebook");

    // Network energy from RRC residencies; data-activity timestamps come
    // from the packet capture.
    let qxdm = col.qxdm.as_ref().expect("cellular run");
    let res = residencies(qxdm, RrcState::Pch, SimTime::ZERO, col.end);
    let activity: Vec<SimTime> = col.trace.iter().map(|(at, _)| at).collect();
    let energy = energy_breakdown(&res, &activity, &PowerModel::default());

    BackgroundRow {
        label: label.to_string(),
        ul_kb: ul as f64 / 1e3,
        dl_kb: dl as f64 / 1e3,
        non_tail_j: energy.non_tail_j,
        tail_j: energy.tail_j,
    }
}

/// Figs. 10 and 11 as a two-stage campaign: sweep the friend's post-upload
/// frequency with the default 1 h refresh interval.
pub fn staged_fig10_11(
    hours: u64,
    seed: u64,
) -> harness::StagedCampaign<Collection, BackgroundRow> {
    let hour = SimDuration::from_hours(1);
    let mut c = harness::StagedCampaign::new("fig10_11");
    for (label, push) in [
        ("10 min", Some(SimDuration::from_mins(10))),
        ("30 min", Some(SimDuration::from_mins(30))),
        ("1 hr", Some(hour)),
        ("none", None),
    ] {
        c.timed_job(
            format!("push={label}"),
            seed,
            (hours * 3600) as f64,
            crate::stage::config_digest("fig10_11", &format!("push={label}"), &[hours]),
            move || session(push, Some(hour), hours, seed),
            move |col: &Collection| background_row(col, label),
        );
    }
    c
}

/// Figs. 12 and 13 as a two-stage campaign: sweep the refresh-interval
/// setting with the friend posting every 30 minutes.
pub fn staged_fig12_13(
    hours: u64,
    seed: u64,
) -> harness::StagedCampaign<Collection, BackgroundRow> {
    let push = Some(SimDuration::from_mins(30));
    let mut c = harness::StagedCampaign::new("fig12_13");
    for (label, refresh) in [
        ("30 min", SimDuration::from_mins(30)),
        ("1 hr", SimDuration::from_hours(1)),
        ("2 hr", SimDuration::from_hours(2)),
        ("4 hr", SimDuration::from_hours(4)),
    ] {
        c.timed_job(
            format!("refresh={label}"),
            seed,
            (hours * 3600) as f64,
            crate::stage::config_digest("fig12_13", &format!("refresh={label}"), &[hours]),
            move || session(push, Some(refresh), hours, seed),
            move |col: &Collection| background_row(col, label),
        );
    }
    c
}
