//! §7.2 — Facebook post uploading time breakdown (Figs. 7 and 8).
//!
//! Replays status / check-in / 2-photo posts on C1 3G and C1 LTE, splits
//! each QoE window into device vs network delay (Fig. 7), and for the
//! 2-photo upload breaks the network latency into IP-to-RLC, RLC
//! transmission, first-hop OTA and other delay via the long-jump mapping
//! (Fig. 8). Also reports the PDU-count comparison behind Finding 2.

use crate::scenario::{facebook_world, NetKind, PUSH_BYTES};
use device::apps::FbVersion;
use netstack::pcap::Direction;
use qoe_doctor::analyze::app::completed;
use qoe_doctor::analyze::crosslayer::{window_breakdown, NetLatencyBreakdown};
use qoe_doctor::bundle::{BEHAVIOR, QXDM, TRACE};
use qoe_doctor::{replay, Collection, Controller, Diagnoser};
use simcore::{SimDuration, Summary};
use std::fmt;
use trace::Reads;

/// The three post kinds of Fig. 7.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PostKind {
    /// Text status.
    Status,
    /// Check-in.
    Checkin,
    /// Two photos.
    Photos,
}

impl PostKind {
    fn composer_text(&self, rep: usize) -> String {
        match self {
            PostKind::Status => format!("status: qoe-doctor ts#{rep}"),
            PostKind::Checkin => format!("checkin: somewhere ts#{rep}"),
            PostKind::Photos => format!("photos: vacation ts#{rep}"),
        }
    }

    /// Label used in the behaviour log.
    pub fn label(&self) -> &'static str {
        match self {
            PostKind::Status => "upload_post:status",
            PostKind::Checkin => "upload_post:checkin",
            PostKind::Photos => "upload_post:photos",
        }
    }
}

/// Replay `reps` posts of `kind` and return the collection.
pub fn run_posts(kind: PostKind, net: NetKind, reps: usize, seed: u64) -> Collection {
    let world = facebook_world(
        FbVersion::ListView50,
        None, // background refresh off: §7.2 isolates the post action
        false,
        None,
        PUSH_BYTES,
        net,
        seed,
        false,
    );
    let mut doctor = Controller::new(world);
    // Let the app launch and the push channel settle, then go radio-idle.
    doctor.advance(SimDuration::from_secs(30));
    for rep in 0..reps {
        let text = kind.composer_text(rep);
        replay::upload_post(
            &mut doctor,
            kind.label(),
            &text,
            SimDuration::from_secs(120),
        );
        // The paper posts every 2 s, which keeps the radio in a high-power
        // state between posts.
        doctor.advance(SimDuration::from_secs(2));
    }
    // Let async uploads drain before collecting.
    doctor.advance(SimDuration::from_secs(30));
    doctor.collect()
}

/// One Fig. 7 bar: device/network split for an action on a network.
#[derive(Debug, Clone)]
pub struct PostBreakdownRow {
    /// Network label.
    pub net: String,
    /// Action label.
    pub action: &'static str,
    /// Calibrated user-perceived latency (seconds).
    pub user: Summary,
    /// Network share (seconds).
    pub network: Summary,
    /// Device share (seconds).
    pub device: Summary,
    /// Fraction of reps where the server response fell outside the window
    /// (local echo, Finding 1).
    pub response_outside: f64,
}

/// Compute a Fig. 7 row from a collection.
pub fn breakdown_rows(col: &Collection, net: &str, action: &'static str) -> PostBreakdownRow {
    let mut user = Vec::new();
    let mut network = Vec::new();
    let mut device = Vec::new();
    let mut outside = 0usize;
    let mut n = 0usize;
    for rec in completed(&col.behavior, action) {
        let b = window_breakdown(rec, &col.trace);
        user.push(b.user_latency.as_secs_f64());
        network.push(b.network_latency.as_secs_f64());
        device.push(b.device_latency.as_secs_f64());
        if b.response_outside_window {
            outside += 1;
        }
        n += 1;
    }
    PostBreakdownRow {
        net: net.to_string(),
        action,
        user: Summary::of(&user),
        network: Summary::of(&network),
        device: Summary::of(&device),
        response_outside: if n == 0 {
            0.0
        } else {
            outside as f64 / n as f64
        },
    }
}

impl fmt::Display for PostBreakdownRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<4} {:<22} user {:>6.2}s (sd {:>5.2})  net {:>6.2}s  dev {:>6.2}s  resp-outside {:>4.0}%",
            self.net,
            self.action,
            self.user.mean,
            self.user.std_dev,
            self.network.mean,
            self.device.mean,
            self.response_outside * 100.0
        )
    }
}

/// Fig. 8: the fine-grained network latency breakdown for photo uploads,
/// plus the PDU counts behind Finding 2.
#[derive(Debug, Clone)]
pub struct PhotoNetBreakdown {
    /// Network label.
    pub net: String,
    /// Mean component values across reps (seconds).
    pub ip_to_rlc: f64,
    /// RLC transmission delay.
    pub rlc_tx: f64,
    /// First-hop OTA waits.
    pub ota: f64,
    /// Everything else.
    pub other: f64,
    /// Mean total network latency.
    pub total: f64,
    /// Mean uplink PDUs per QoE window.
    pub ul_pdus_per_post: f64,
    /// Mean uplink IP packets per QoE window.
    pub ul_packets_per_post: f64,
}

impl fmt::Display for PhotoNetBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<4} ip-to-rlc {:>5.2}s  rlc-tx {:>5.2}s  ota {:>5.2}s  other {:>5.2}s  (total {:>5.2}s, {:.0} PDUs/post, {:.0} pkts/post)",
            self.net, self.ip_to_rlc, self.rlc_tx, self.ota, self.other, self.total,
            self.ul_pdus_per_post, self.ul_packets_per_post
        )
    }
}

/// Compute Fig. 8 for a photo-post collection: each post's uplink
/// breakdown is [`Diagnoser::radio_breakdown`] of its window.
pub fn photo_net_breakdown(col: &Collection, net: &str) -> Option<PhotoNetBreakdown> {
    let qxdm = col.qxdm.as_ref()?;
    // One uplink index serves every post's window.
    let diagnoser = Diagnoser::new(col);
    let mut acc = NetLatencyBreakdown::default();
    let mut pdus = 0usize;
    let mut pkts = 0usize;
    let mut n = 0usize;
    for rec in completed(&col.behavior, "upload_post:photos") {
        let b = window_breakdown(rec, &col.trace);
        let Some((nb, window_pkts)) =
            diagnoser.radio_breakdown(rec, Direction::Uplink, b.network_latency, |_| true)
        else {
            continue;
        };
        acc.ip_to_rlc += nb.ip_to_rlc;
        acc.rlc_tx += nb.rlc_tx;
        acc.ota += nb.ota;
        acc.other += nb.other;
        acc.total += nb.total;
        pdus += qxdm
            .pdus
            .window(rec.start, rec.end)
            .iter()
            .filter(|e| e.record.dir == Direction::Uplink)
            .count();
        pkts += window_pkts;
        n += 1;
    }
    if n == 0 {
        return None;
    }
    let k = n as f64;
    Some(PhotoNetBreakdown {
        net: net.to_string(),
        ip_to_rlc: acc.ip_to_rlc.as_secs_f64() / k,
        rlc_tx: acc.rlc_tx.as_secs_f64() / k,
        ota: acc.ota.as_secs_f64() / k,
        other: acc.other.as_secs_f64() / k,
        total: acc.total.as_secs_f64() / k,
        ul_pdus_per_post: pdus as f64 / k,
        ul_packets_per_post: pkts as f64 / k,
    })
}

/// What a check-in or status job reads: [`breakdown_rows`] splits the
/// behaviour log's windows over the packet trace.
const FIG7_READS: Reads = Reads::artifacts(&[BEHAVIOR, TRACE]);

/// What a photo job reads: Fig. 7's entries plus the QxDM log that
/// [`photo_net_breakdown`] maps the packets onto.
pub const PHOTO_READS: Reads = Reads::artifacts(&[BEHAVIOR, TRACE, QXDM]);

/// One §7.2 campaign job's output: a Fig. 7 row plus, for photo posts,
/// the Fig. 8 fine-grained network breakdown.
#[derive(Debug, Clone)]
pub struct PostRun {
    /// Device/network split (one Fig. 7 bar).
    pub fig7: PostBreakdownRow,
    /// Fine-grained network latency (photo posts on cellular only).
    pub fig8: Option<PhotoNetBreakdown>,
}

/// A post run's row is its Fig. 7 bar; the Fig. 8 rows print in a section
/// of their own.
impl fmt::Display for PostRun {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.fig7)
    }
}

/// The §7.2 matrix as a two-stage campaign: one job per (network × post
/// kind) cell, recording the post-session collection and analyzing the
/// Fig. 7 (and, for photos, Fig. 8) rows from it.
pub fn staged(reps: usize, seed: u64) -> harness::StagedCampaign<Collection, PostRun> {
    let mut c = harness::StagedCampaign::new("fig7_fig8");
    for net in [NetKind::Umts3g, NetKind::Lte] {
        for kind in [PostKind::Photos, PostKind::Checkin, PostKind::Status] {
            let job_seed = seed ^ kind.label().len() as u64;
            let label = format!("{}/{}", net.label(), kind.label());
            let cfg = crate::stage::config_digest("fig7_fig8", &label, &[reps as u64]);
            let reads = if kind == PostKind::Photos {
                PHOTO_READS
            } else {
                FIG7_READS
            };
            c.job(
                label,
                job_seed,
                cfg,
                move || run_posts(kind, net, reps, job_seed),
                reads,
                move |col: &Collection| {
                    let fig8 = if kind == PostKind::Photos {
                        photo_net_breakdown(col, &net.label())
                    } else {
                        None
                    };
                    PostRun {
                        fig7: breakdown_rows(col, &net.label(), kind.label()),
                        fig8,
                    }
                },
            );
        }
    }
    c
}
