//! Longitudinal QoE monitoring — `repro monitor`.
//!
//! The paper diagnoses one measurement; this module re-measures a grid of
//! (app-version × carrier-profile × tech) cells over consecutive epochs and
//! lets the `monitor` crate's statistics find the epochs where QoE
//! regressed and `core`'s cross-layer analyzer say which layer moved.
//! Three kinds of real-world change are injected halfway through the
//! history, each mirroring a paper scenario:
//!
//! * **`fb/app-update/LTE`** — an app update ships a heavier news-feed
//!   rendering path (and a fatter push payload): the §7.4 feed-update
//!   latency regresses on the *device* layer.
//! * **`video/throttle-onset/LTE`** — the carrier starts policing the
//!   bearer mid-history (§7.5): initial loading and rebuffering regress on
//!   the *network* layer.
//! * **`page/rrc-timers/3G`** — the carrier lengthens the PCH→FACH
//!   promotion timer (§7.7's RRC state-machine lever pulled the wrong
//!   way): page loads regress on the *radio* layer (state-promotion
//!   time).
//!
//! Each regression cell has a no-change control twin; the detector must
//! stay silent on all of them.

use std::path::Path;
use std::sync::Arc;

use crate::scenario::{youtube_world, NetKind, SLOW_PCH_TO_FACH};
use crate::{exp74, exp77};
use device::apps::{BrowserConfig, FacebookConfig, FbVersion, VideoSpec};
use monitor::{
    detect_cell, explain, histories, CellSpec, EpochMetrics, EpochRow, LayerShares, MonitorError,
    MonitorSpec,
};
use qoe_doctor::analyze::app::{completed, latencies_secs, playback_reports};
use qoe_doctor::analyze::crosslayer::rrc_transitions_in;
use qoe_doctor::replay::{self, PAGE_LOAD, PULL_TO_UPDATE, VIDEO_INITIAL_LOADING};
use qoe_doctor::{Calendar, Collection, Controller, Diagnoser};
use radio::rrc::{Rrc3gConfig, RrcState};
use simcore::SimDuration;

/// Updates measured per Facebook epoch.
const UPDATES_PER_EPOCH: usize = 3;
/// Videos watched per YouTube epoch.
const VIDEOS_PER_EPOCH: usize = 3;
/// Pages loaded per browser epoch.
const LOADS_PER_EPOCH: usize = 3;

/// Post-update push payload (the update inlines preview content); before
/// the update, pushes are §7.4's status-only ones.
const PUSH_BYTES_V2: u64 = 4_800;
/// Post-update feed parse/render time. The update replaces the compact
/// ListView renderer (240 ms) with a heavier main-thread path — the §7.4
/// WebView-vs-ListView device gap, re-created by an app update instead of
/// a version choice.
const UPDATED_FEED_PROC: SimDuration = SimDuration::from_millis(1_100);
/// Rate the carrier polices the LTE bearer at after the onset.
const THROTTLE_BPS: f64 = 300e3;

/// What one grid cell is expected to do: nothing (control), or regress and
/// be attributed to a specific layer.
pub struct CellInfo {
    /// Cell label.
    pub cell: &'static str,
    /// True for no-change control cells.
    pub control: bool,
    /// Layer the injected regression must be attributed to.
    pub expect_layer: Option<&'static str>,
}

/// The monitored grid: three injected regressions, three control twins.
pub const CELLS: &[CellInfo] = &[
    CellInfo {
        cell: "fb/app-update/LTE",
        control: false,
        expect_layer: Some("device"),
    },
    CellInfo {
        cell: "fb/control/LTE",
        control: true,
        expect_layer: None,
    },
    CellInfo {
        cell: "video/throttle-onset/LTE",
        control: false,
        expect_layer: Some("network"),
    },
    CellInfo {
        cell: "video/control/LTE",
        control: true,
        expect_layer: None,
    },
    CellInfo {
        cell: "page/rrc-timers/3G",
        control: false,
        expect_layer: Some("radio"),
    },
    CellInfo {
        cell: "page/control/3G",
        control: true,
        expect_layer: None,
    },
];

/// Look up a cell's expectations (panics on an unknown cell name — the
/// grid is static).
pub fn cell_info(cell: &str) -> &'static CellInfo {
    CELLS
        .iter()
        .find(|c| c.cell == cell)
        .expect("unknown monitor cell")
}

/// Record one Facebook epoch: §7.4's session ([`exp74::session`]) of
/// self-triggered feed updates on the v5.0 ListView app over LTE. After
/// the app update, pushes carry more payload and the feed renderer spends
/// [`UPDATED_FEED_PROC`] of main-thread time per update.
fn fb_session(updated: bool, seed: u64) -> Collection {
    let mut app = FacebookConfig::new(FbVersion::ListView50);
    let push_bytes = if updated {
        app.proc_feed_listview = UPDATED_FEED_PROC;
        PUSH_BYTES_V2
    } else {
        exp74::STATUS_PUSH_BYTES
    };
    exp74::session(app, push_bytes, NetKind::Lte, UPDATES_PER_EPOCH, seed)
}

/// The short clips every video epoch watches (fixed across epochs so the
/// only longitudinal variable is the bearer).
fn clips(count: usize) -> Vec<VideoSpec> {
    (0..count)
        .map(|i| VideoSpec {
            name: format!("mon{i}"),
            duration: SimDuration::from_secs(24 + 4 * i as u64),
            bitrate_bps: 420e3,
        })
        .collect()
}

/// Record one YouTube epoch: watch each clip to the end, on the plain or
/// the policed LTE bearer.
fn video_session(throttled: bool, videos: usize, seed: u64) -> Collection {
    let net = if throttled {
        NetKind::LteThrottled(THROTTLE_BPS)
    } else {
        NetKind::Lte
    };
    let clips = clips(videos);
    let world = youtube_world(clips.clone(), None, net, seed, true);
    let mut doctor = Controller::new(world);
    doctor.advance(SimDuration::from_secs(5));
    replay::search_videos(&mut doctor);
    doctor.advance(SimDuration::from_secs(10));
    for spec in &clips {
        let rec = replay::load_video(&mut doctor, &spec.name, SimDuration::from_secs(120));
        if rec.timed_out {
            continue;
        }
        // Enough budget to drain the whole clip through the throttle.
        let budget = spec.duration * 2
            + SimDuration::from_secs_f64(spec.total_bytes() as f64 * 8.0 / THROTTLE_BPS)
            + SimDuration::from_secs(30);
        replay::monitor_playback(&mut doctor, "video", budget);
        doctor.advance(SimDuration::from_secs(3));
    }
    doctor.collect()
}

/// Record one browser epoch: §7.7's Chrome session ([`exp77::session`]),
/// on the default 3G machine or the one with the lengthened promotion
/// timer.
fn page_session(drifted: bool, seed: u64) -> Collection {
    let net = if drifted {
        NetKind::Umts3gSlowPromo
    } else {
        NetKind::Umts3g
    };
    exp77::session::<Calendar>(BrowserConfig::chrome(), net, LOADS_PER_EPOCH, seed)
}

/// Mean per-record cross-layer shares of the `action` records, from the
/// full [`Diagnoser`] pipeline — the same attribution `repro chaos` uses.
fn shares_of(col: &Collection, action: &str) -> LayerShares {
    let diagnoser = Diagnoser::new(col);
    let mut s = LayerShares::default();
    let mut n = 0.0;
    for rec in completed(&col.behavior, action) {
        let d = diagnoser.diagnose(rec);
        s.device_s += d.split.device_latency.as_secs_f64();
        s.network_s += d.split.network_latency.as_secs_f64();
        s.promo_s += d
            .radio_breakdown
            .as_ref()
            .map(|rb| rb.ip_to_rlc.as_secs_f64())
            .unwrap_or(0.0);
        s.rlc_retx += d.rlc_retx_ratio;
        n += 1.0;
    }
    if n > 0.0 {
        s.device_s /= n;
        s.network_s /= n;
        s.promo_s /= n;
        s.rlc_retx /= n;
    }
    s
}

fn fb_metrics(epoch: usize, col: &Collection) -> EpochMetrics {
    EpochMetrics {
        epoch,
        metrics: vec![(
            "ui_update_s".to_string(),
            latencies_secs(&col.behavior, PULL_TO_UPDATE),
        )],
        layers: shares_of(col, PULL_TO_UPDATE),
    }
}

fn video_metrics(epoch: usize, col: &Collection) -> EpochMetrics {
    let rebuffer = playback_reports(&col.behavior, "video")
        .iter()
        .map(|r| r.rebuffering_ratio())
        .collect();
    EpochMetrics {
        epoch,
        metrics: vec![
            (
                "load_s".to_string(),
                latencies_secs(&col.behavior, VIDEO_INITIAL_LOADING),
            ),
            ("rebuffer".to_string(), rebuffer),
        ],
        layers: shares_of(col, VIDEO_INITIAL_LOADING),
    }
}

/// Mean per-load RRC promotion time, from the QxDM transition log and the
/// promotion timers the carrier ran in this epoch. The generic
/// [`Diagnoser`] share only books head-of-line promotion waits (the
/// mid-transfer FACH→DCH promotion hides inside the transfer), so the
/// page cell accounts promotions explicitly — a monitor that knows the
/// carrier's advertised timers can.
fn promo_time(col: &Collection, drifted: bool) -> f64 {
    let Some(qxdm) = &col.qxdm else { return 0.0 };
    let cfg = Rrc3gConfig::default();
    let pch_to_fach = if drifted {
        SLOW_PCH_TO_FACH
    } else {
        cfg.pch_to_fach
    };
    let mut total = 0.0;
    let mut n = 0.0;
    for rec in completed(&col.behavior, PAGE_LOAD) {
        for (_, tr) in rrc_transitions_in(qxdm, rec.start, rec.end) {
            total += match (tr.from, tr.to) {
                (RrcState::Pch, RrcState::Fach) => pch_to_fach,
                (RrcState::Fach, RrcState::Dch) => cfg.fach_to_dch,
                (RrcState::Pch, RrcState::Dch) => cfg.pch_to_dch,
                _ => SimDuration::ZERO,
            }
            .as_secs_f64();
        }
        n += 1.0;
    }
    if n > 0.0 {
        total / n
    } else {
        0.0
    }
}

fn page_metrics(epoch: usize, drifted: bool, col: &Collection) -> EpochMetrics {
    let mut layers = shares_of(col, PAGE_LOAD);
    layers.promo_s = promo_time(col, drifted);
    EpochMetrics {
        epoch,
        metrics: vec![(
            "page_load_s".to_string(),
            latencies_secs(&col.behavior, PAGE_LOAD),
        )],
        layers,
    }
}

/// Build one grid cell. `drift_at` is the epoch the real-world change
/// lands at (`None` for the control twin); the config digest tracks the
/// pre/post phase so the bundle cache can never serve a pre-change epoch
/// for a post-change one.
fn cell(
    info: &'static CellInfo,
    drift_at: Option<usize>,
    record: impl Fn(bool, u64) -> Collection + Send + Sync + 'static,
    analyze: impl Fn(usize, &Collection) -> EpochMetrics + Send + Sync + 'static,
) -> CellSpec<Collection> {
    let drifted = move |epoch: usize| drift_at.is_some_and(|c| epoch >= c);
    CellSpec {
        cell: info.cell.to_string(),
        control: info.control,
        record: Arc::new(move |epoch, seed| record(drifted(epoch), seed)),
        // Every cell's metrics are behaviour-log latencies plus
        // `shares_of`'s diagnosis (and the page cells' QxDM transitions).
        reads: Diagnoser::READS,
        analyze: Arc::new(analyze),
        config_digest: Arc::new(move |epoch| {
            crate::stage::config_digest("monitor", info.cell, &[u64::from(drifted(epoch))])
        }),
    }
}

/// The monitoring grid over `epochs` epochs; every injected change lands
/// at epoch `epochs / 2`.
pub fn spec(epochs: usize, seed: u64) -> MonitorSpec<Collection> {
    let change = epochs / 2;
    let cells = vec![
        cell(&CELLS[0], Some(change), fb_session, fb_metrics),
        cell(&CELLS[1], None, fb_session, fb_metrics),
        cell(
            &CELLS[2],
            Some(change),
            |drifted, seed| video_session(drifted, VIDEOS_PER_EPOCH, seed),
            video_metrics,
        ),
        cell(
            &CELLS[3],
            None,
            |drifted, seed| video_session(drifted, VIDEOS_PER_EPOCH, seed),
            video_metrics,
        ),
        cell(&CELLS[4], Some(change), page_session, move |epoch, col| {
            page_metrics(epoch, epoch >= change, col)
        }),
        cell(&CELLS[5], None, page_session, |epoch, col| {
            page_metrics(epoch, false, col)
        }),
    ];
    MonitorSpec {
        name: "monitor".to_string(),
        base_seed: seed,
        epochs,
        cells,
    }
}

/// Detect and explain every cell's history, rendering the detection lines
/// and the summary line CI greps for. `rows` must be the complete grid in
/// job order (the caller checks completeness first).
pub fn report(rows: Vec<EpochRow>) -> String {
    let mut out = String::new();
    let (mut hits, mut wanted, mut false_pos, mut controls) = (0usize, 0usize, 0usize, 0usize);
    for hist in histories(rows) {
        let info = cell_info(&hist.cell);
        let detections = detect_cell(&hist);
        if info.control {
            controls += 1;
            false_pos += detections.len();
        } else {
            wanted += 1;
        }
        if detections.is_empty() {
            out.push_str(&format!(
                "ok         {:<24} no regression across {} epochs\n",
                hist.cell,
                hist.epochs.len()
            ));
            continue;
        }
        let mut on_layer = false;
        for d in &detections {
            let diag = explain(&hist, d);
            if info.expect_layer == Some(diag.layer) {
                on_layer = true;
            }
            out.push_str(&format!(
                "REGRESSION {:<24} metric {}: first bad epoch {}  p {:.1e}  ks {:.2}  \
                 mean {:.3} -> {:.3}  layer {}  (dev {:+.3}s net {:+.3}s promo {:+.3}s retx {:+.3})\n",
                diag.cell,
                d.metric,
                d.first_bad_epoch,
                d.p_value,
                d.ks,
                d.pre_mean,
                d.post_mean,
                diag.layer,
                diag.deltas.device_s,
                diag.deltas.network_s,
                diag.deltas.promo_s,
                diag.deltas.rlc_retx,
            ));
        }
        if !info.control && on_layer {
            hits += 1;
        }
    }
    out.push_str(&format!(
        "monitor: {hits}/{wanted} injected regressions detected and attributed on-layer, \
         {false_pos} false positive(s) on {controls} control cells\n"
    ));
    out
}

/// Commit a cached run's bundles to the longitudinal [`monitor::EpochStore`]
/// rooted at the same directory. Returns how many entries were new (a
/// re-run of an already-committed history appends nothing).
pub fn commit_history(spec: &MonitorSpec<Collection>, root: &Path) -> Result<usize, MonitorError> {
    let store = monitor::EpochStore::open(root)?;
    let mut fresh = 0;
    for cell in &spec.cells {
        for epoch in 0..spec.epochs {
            let entry = spec.epoch_entry(root, cell, epoch);
            if store.append(&cell.cell, &entry)? {
                fresh += 1;
            }
        }
    }
    Ok(fresh)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_matches_cell_table() {
        let s = spec(4, 1);
        assert_eq!(s.cells.len(), CELLS.len());
        for (cell, info) in s.cells.iter().zip(CELLS) {
            assert_eq!(cell.cell, info.cell);
            assert_eq!(cell.control, info.control);
            // Controls never drift: the config digest is epoch-invariant.
            let d0 = (cell.config_digest)(0);
            let d3 = (cell.config_digest)(3);
            if info.control {
                assert_eq!(d0, d3, "{}", info.cell);
            } else {
                assert_ne!(d0, d3, "{} must drift at epoch 2", info.cell);
            }
        }
    }

    #[test]
    fn clip_set_is_stable() {
        let (a, b) = (clips(3), clips(3));
        assert_eq!(a.len(), 3);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.duration, y.duration);
        }
        assert_eq!(a[1].name, "mon1");
    }
}
