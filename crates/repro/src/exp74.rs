//! §7.4 — WebView vs ListView news feed update latency (Figs. 14–16).
//!
//! Device A posts a status every 2 minutes (simulated by the push server);
//! device B measures the news-feed update latency. The v5.0 ListView app
//! self-updates when a push arrives; the v1.8.3 WebView app needs the
//! controller's scroll gesture. Each run yields the update-latency
//! distribution (Fig. 14), the device/network breakdown (Fig. 15), and the
//! per-update network data consumption (Fig. 16).

use crate::scenario::{facebook_world, NetKind};
use device::apps::FbVersion;
use device::{UiEvent, ViewSignature};
use netstack::pcap::Direction;
use qoe_doctor::analyze::crosslayer::window_breakdown;
use qoe_doctor::bundle::{BEHAVIOR, TRACE};
use qoe_doctor::replay::{self, PULL_TO_UPDATE};
use qoe_doctor::{Collection, Controller};
use simcore::{Cdf, SimDuration, Summary};
use std::fmt;
use trace::Reads;

/// Notification payload for the §7.4 scenario (status-only posts).
const STATUS_PUSH_BYTES: u64 = 2_400;

/// Results of one (version × network) configuration.
#[derive(Debug, Clone)]
pub struct UpdateRun {
    /// Configuration label (e.g. `WV/LTE`).
    pub label: String,
    /// Calibrated update latencies in seconds (Fig. 14's CDF).
    pub latencies: Vec<f64>,
    /// Device-share summary (Fig. 15).
    pub device: Summary,
    /// Network-share summary (Fig. 15).
    pub network: Summary,
    /// Mean uplink bytes per update (Fig. 16).
    pub ul_bytes: f64,
    /// Mean downlink bytes per update (Fig. 16).
    pub dl_bytes: f64,
}

impl UpdateRun {
    /// CDF of the update latencies.
    pub fn cdf(&self) -> Cdf {
        Cdf::of(&self.latencies)
    }
}

impl fmt::Display for UpdateRun {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let cdf = self.cdf();
        write!(
            f,
            "{:<8} n={:<3} median {:>5.0} ms  p90 {:>5.0} ms | dev {:>5.2}s net {:>5.2}s | ul {:>5.1} KB dl {:>5.1} KB",
            self.label,
            self.latencies.len(),
            cdf.quantile(0.5) * 1e3,
            cdf.quantile(0.9) * 1e3,
            self.device.mean,
            self.network.mean,
            self.ul_bytes / 1e3,
            self.dl_bytes / 1e3,
        )
    }
}

/// Run one configuration: `updates` feed updates, posts every 2 minutes.
pub fn run_config(version: FbVersion, net: NetKind, updates: usize, seed: u64) -> UpdateRun {
    let label = format!("{}/{}", short_label(version), net.label());
    summarize(&session(version, net, updates, seed), label)
}

fn short_label(version: FbVersion) -> &'static str {
    match version {
        FbVersion::WebView18 => "WV",
        FbVersion::ListView50 => "LV",
    }
}

/// Record one configuration's session.
fn session(version: FbVersion, net: NetKind, updates: usize, seed: u64) -> Collection {
    let auto = version == FbVersion::ListView50;
    let world = facebook_world(
        version,
        None, // isolate the update action from background refresh
        auto,
        Some(SimDuration::from_mins(2)),
        STATUS_PUSH_BYTES,
        net,
        seed,
        false,
    );
    let mut doctor = Controller::new(world);
    doctor.advance(SimDuration::from_secs(20));
    for _ in 0..updates {
        if auto {
            // v5.0 self-updates when the push lands: watch for the progress
            // bar to appear on its own.
            replay::pull_to_update(&mut doctor, SimDuration::from_secs(180));
        } else {
            // v1.8.3 needs the scroll gesture; issue it on the post cadence.
            doctor.advance(SimDuration::from_secs(120));
            doctor.interact(&UiEvent::Scroll {
                target: ViewSignature::by_id("news_feed"),
            });
            replay::pull_to_update(&mut doctor, SimDuration::from_secs(60));
        }
    }
    doctor.collect()
}

/// What [`summarize`] reads: the behaviour log's windows over the packet
/// trace.
const UPDATE_READS: Reads = Reads::artifacts(&[BEHAVIOR, TRACE]);

fn summarize(col: &Collection, label: String) -> UpdateRun {
    let mut latencies = Vec::new();
    let mut device = Vec::new();
    let mut network = Vec::new();
    let mut ul = 0u64;
    let mut dl = 0u64;
    let mut n = 0u64;
    for (_, rec) in col.behavior.iter() {
        if rec.action != PULL_TO_UPDATE || rec.timed_out {
            continue;
        }
        let b = window_breakdown(rec, &col.trace);
        latencies.push(b.user_latency.as_secs_f64());
        device.push(b.device_latency.as_secs_f64());
        network.push(b.network_latency.as_secs_f64());
        // Fig. 16: bytes of the responsible (feed fetch) traffic in the
        // window — all TCP traffic in the window belongs to the update.
        for e in col.trace.window(rec.start, rec.end) {
            match e.record.dir {
                Direction::Uplink => ul += e.record.pkt.wire_len() as u64,
                Direction::Downlink => dl += e.record.pkt.wire_len() as u64,
            }
        }
        n += 1;
    }
    let n = n.max(1) as f64;
    UpdateRun {
        label,
        latencies,
        device: Summary::of(&device),
        network: Summary::of(&network),
        ul_bytes: ul as f64 / n,
        dl_bytes: dl as f64 / n,
    }
}

/// The §7.4 matrix as a two-stage campaign: one job per (network × app
/// version).
pub fn staged(updates: usize, seed: u64) -> harness::StagedCampaign<Collection, UpdateRun> {
    let mut c = harness::StagedCampaign::new("fig14_16");
    for net in [NetKind::Lte, NetKind::Wifi] {
        for version in [FbVersion::ListView50, FbVersion::WebView18] {
            let label = format!("{}/{}", short_label(version), net.label());
            let cfg = crate::stage::config_digest("fig14_16", &label, &[updates as u64]);
            let analyze_label = label.clone();
            c.job(
                label,
                seed,
                cfg,
                move || session(version, net, updates, seed),
                UPDATE_READS,
                move |col: &Collection| summarize(col, analyze_label),
            );
        }
    }
    c
}
