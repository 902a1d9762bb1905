//! §7.5 — Carrier throttling and YouTube QoE (Figs. 17–20).
//!
//! C1 throttles post-cap traffic instead of charging overages: 3G throttles
//! by token-bucket *shaping*, LTE by token-bucket *policing* (Finding 7).
//! We replay video watching over throttled and unthrottled bearers and
//! measure the initial loading time and rebuffering ratio from the player's
//! progress bar (Fig. 17), record the throughput signature of each
//! discipline (Fig. 18), and sweep the throttle rate (Figs. 19–20).

use crate::scenario::{video_dataset, youtube_world, NetKind};
use device::apps::VideoSpec;
use qoe_doctor::analyze::app::playback_reports;
use qoe_doctor::analyze::transport::{downlink_throughput, TransportReport};
use qoe_doctor::bundle::{BEHAVIOR, TRACE};
use qoe_doctor::replay::{self, VIDEO_INITIAL_LOADING};
use qoe_doctor::{Calendar, Collection, Controller, Kernel};
use simcore::{Cdf, DetRng, SimDuration};
use std::fmt;
use trace::Reads;

/// The post-cap throttle rate C1 applies (Fig. 17).
pub const CAP_RATE: f64 = 128e3;

/// Per-video measurements.
#[derive(Debug, Clone)]
pub struct VideoQoe {
    /// Video name.
    pub name: String,
    /// Calibrated initial loading time (seconds).
    pub initial_loading: f64,
    /// Rebuffering ratio after initial loading.
    pub rebuffering: f64,
    /// Whether playback finished within the watch timeout.
    pub finished: bool,
}

/// One configuration's results.
#[derive(Debug, Clone)]
pub struct WatchRun {
    /// Configuration label.
    pub label: String,
    /// Per-video results.
    pub videos: Vec<VideoQoe>,
}

impl WatchRun {
    /// CDF of initial loading times.
    pub fn loading_cdf(&self) -> Cdf {
        Cdf::of(
            &self
                .videos
                .iter()
                .map(|v| v.initial_loading)
                .collect::<Vec<_>>(),
        )
    }

    /// CDF of rebuffering ratios.
    pub fn rebuffer_cdf(&self) -> Cdf {
        Cdf::of(
            &self
                .videos
                .iter()
                .map(|v| v.rebuffering)
                .collect::<Vec<_>>(),
        )
    }
}

impl fmt::Display for WatchRun {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let load = self.loading_cdf();
        let rebuf = self.rebuffer_cdf();
        write!(
            f,
            "{:<22} n={:<3} loading p50 {:>6.1}s p90 {:>6.1}s | rebuffer p50 {:>5.2} p90 {:>5.2}",
            self.label,
            self.videos.len(),
            load.quantile(0.5),
            load.quantile(0.9),
            rebuf.quantile(0.5),
            rebuf.quantile(0.9),
        )
    }
}

/// Watch `count` randomly-chosen dataset videos on `net`.
pub fn run_watch(net: NetKind, count: usize, seed: u64) -> WatchRun {
    watch_run_from(
        &watch_session::<Calendar>(net, count, seed),
        net.label(),
        count,
    )
}

/// The pinned random video subset each watch session plays, independent of
/// the run seed so every configuration (and every sweep point) watches the
/// same videos. Both the record stage (to drive the UI) and the analyze
/// stage (to name the videos) recompute this.
fn picks(count: usize) -> Vec<VideoSpec> {
    let dataset = video_dataset(11);
    let mut order: Vec<usize> = (0..dataset.len()).collect();
    let mut rng = DetRng::seed_from_u64(777);
    rng.shuffle(&mut order);
    order[..count.min(order.len())]
        .iter()
        .map(|i| dataset[*i].clone())
        .collect()
}

/// Record a watch session: play each picked video to the end (or timeout),
/// run by kernel `K`.
pub fn watch_session<K: Kernel>(net: NetKind, count: usize, seed: u64) -> Collection {
    let picks = picks(count);
    let world = youtube_world(video_dataset(11), None, net, seed ^ 0xBEE, true);
    let mut doctor = Controller::<K>::with_kernel(world);
    doctor.advance(SimDuration::from_secs(5));
    // One search populates the results list for the whole session.
    replay::search_videos(&mut doctor);
    doctor.advance(SimDuration::from_secs(10));

    for spec in &picks {
        let rec = replay::load_video(&mut doctor, &spec.name, SimDuration::from_secs(240));
        if rec.timed_out {
            continue;
        }
        // Watch to the end, recording stalls. Generous budget: a throttled
        // link needs total_bytes / throttle_rate to drain.
        let budget = spec.duration * 2
            + SimDuration::from_secs_f64(spec.total_bytes() as f64 * 8.0 / 64e3)
            + SimDuration::from_secs(60);
        replay::monitor_playback(&mut doctor, "video", budget);
        doctor.advance(SimDuration::from_secs(3));
    }
    doctor.collect()
}

/// What the Fig. 17 and Figs. 19/20 analyzers read: the behaviour log
/// alone.
pub const WATCH_READS: Reads = Reads::artifacts(&[BEHAVIOR]);

/// Rebuild a [`WatchRun`] from a recorded session: the i-th
/// `video:initial_loading` record belongs to the i-th pick, and each
/// non-timed-out video contributed exactly one playback summary record.
fn watch_run_from(col: &Collection, label: String, count: usize) -> WatchRun {
    let picks = picks(count);
    let loading: Vec<_> = col
        .behavior
        .iter()
        .filter(|(_, r)| r.action == VIDEO_INITIAL_LOADING)
        .map(|(_, r)| r)
        .collect();
    let reports = playback_reports(&col.behavior, "video");
    let mut report_iter = reports.iter();
    let mut videos = Vec::new();
    for (spec, rec) in picks.iter().zip(loading.iter()) {
        if rec.timed_out {
            videos.push(VideoQoe {
                name: spec.name.clone(),
                initial_loading: rec.calibrated().as_secs_f64(),
                rebuffering: 1.0,
                finished: false,
            });
            continue;
        }
        let report = report_iter
            .next()
            .expect("one playback report per non-timed-out video");
        videos.push(VideoQoe {
            name: spec.name.clone(),
            initial_loading: rec.calibrated().as_secs_f64(),
            rebuffering: report.rebuffering_ratio(),
            finished: report.finished,
        });
    }
    WatchRun { label, videos }
}

/// Fig. 17 as a two-stage campaign: one job per bearer configuration.
pub fn staged_fig17(count: usize, seed: u64) -> harness::StagedCampaign<Collection, WatchRun> {
    let mut c = harness::StagedCampaign::new("fig17");
    for net in [
        NetKind::Umts3g,
        NetKind::Lte,
        NetKind::Umts3gThrottled(CAP_RATE),
        NetKind::LteThrottled(CAP_RATE),
    ] {
        let label = net.label();
        let cfg = crate::stage::config_digest("fig17", &label, &[count as u64]);
        c.job(
            label,
            seed,
            cfg,
            move || watch_session::<Calendar>(net, count, seed),
            WATCH_READS,
            move |col: &Collection| watch_run_from(col, net.label(), count),
        );
    }
    c
}

/// One Fig. 18 trace: per-second downlink throughput plus TCP health.
#[derive(Debug, Clone)]
pub struct ThroughputTrace {
    /// Configuration label.
    pub label: String,
    /// Per-second throughput samples (bits/s).
    pub series: Vec<f64>,
    /// Mean throughput (bits/s).
    pub mean_bps: f64,
    /// Standard deviation of per-second throughput.
    pub std_bps: f64,
    /// TCP retransmissions observed in the trace.
    pub retransmissions: u32,
}

impl fmt::Display for ThroughputTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<22} mean {:>6.3} Mb/s  sd {:>6.3} Mb/s  retx {:>4}",
            self.label,
            self.mean_bps / 1e6,
            self.std_bps / 1e6,
            self.retransmissions
        )
    }
}

/// Fig. 18: stream one long video through one throttle discipline.
fn trace_session(net: NetKind, seed: u64) -> Collection {
    let spec = VideoSpec {
        name: "trace".into(),
        duration: SimDuration::from_secs(280),
        bitrate_bps: 420e3,
    };
    let world = youtube_world(vec![spec], None, net, seed, true);
    let mut doctor = Controller::new(world);
    doctor.advance(SimDuration::from_secs(5));
    replay::search_videos(&mut doctor);
    doctor.advance(SimDuration::from_secs(5));
    doctor.interact(&replay::video_result("trace"));
    doctor.advance(SimDuration::from_secs(300));
    doctor.collect()
}

/// What [`throughput_trace`] reads: the packet trace alone.
const THROUGHPUT_READS: Reads = Reads::artifacts(&[TRACE]);

/// Compute the downlink throughput profile of a recorded Fig. 18 session.
fn throughput_trace(col: &Collection, label: String) -> ThroughputTrace {
    let series = downlink_throughput(&col.trace, 1.0);
    let report = TransportReport::analyze(&col.trace);
    ThroughputTrace {
        label,
        series: series.bins.clone(),
        mean_bps: series.mean(),
        std_bps: series.std_dev(),
        retransmissions: report.total_retx(),
    }
}

/// Fig. 18 as a two-stage campaign: one job per throttle discipline.
pub fn staged_fig18(seed: u64) -> harness::StagedCampaign<Collection, ThroughputTrace> {
    let mut c = harness::StagedCampaign::new("fig18");
    for net in [
        NetKind::Umts3gThrottled(CAP_RATE),
        NetKind::LteThrottled(CAP_RATE),
    ] {
        let label = net.label();
        let cfg = crate::stage::config_digest("fig18", &label, &[]);
        c.job(
            label,
            seed,
            cfg,
            move || trace_session(net, seed),
            THROUGHPUT_READS,
            move |col: &Collection| throughput_trace(col, net.label()),
        );
    }
    c
}

/// One Figs. 19/20 sweep point.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Throttle rate (bits/s).
    pub rate_bps: f64,
    /// Technology label.
    pub label: String,
    /// Mean rebuffering ratio.
    pub rebuffering: f64,
    /// Mean initial loading time (seconds).
    pub initial_loading: f64,
}

impl fmt::Display for SweepPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<4} @ {:>3.0} kb/s  rebuffer {:>5.2}  loading {:>6.1}s",
            self.label,
            self.rate_bps / 1e3,
            self.rebuffering,
            self.initial_loading
        )
    }
}

/// Figs. 19/20 as a two-stage campaign: one job per (rate × technology)
/// sweep point.
pub fn staged_sweep(
    videos_per_point: usize,
    seed: u64,
) -> harness::StagedCampaign<Collection, SweepPoint> {
    let mut c = harness::StagedCampaign::new("fig19_20");
    for rate in [100e3, 200e3, 300e3, 400e3, 500e3] {
        for (label, net) in [
            ("3G", NetKind::Umts3gThrottled(rate)),
            ("LTE", NetKind::LteThrottled(rate)),
        ] {
            let job_seed = seed ^ rate as u64;
            let job_label = format!("{label}@{}kbps", rate / 1e3);
            let cfg = crate::stage::config_digest_rate(
                "fig19_20",
                &job_label,
                &[videos_per_point as u64],
                rate,
            );
            c.job(
                job_label,
                job_seed,
                cfg,
                move || watch_session::<Calendar>(net, videos_per_point, job_seed),
                WATCH_READS,
                move |col: &Collection| {
                    let run = watch_run_from(col, net.label(), videos_per_point);
                    let n = run.videos.len().max(1) as f64;
                    SweepPoint {
                        rate_bps: rate,
                        label: label.into(),
                        rebuffering: run.videos.iter().map(|v| v.rebuffering).sum::<f64>() / n,
                        initial_loading: run.videos.iter().map(|v| v.initial_loading).sum::<f64>()
                            / n,
                    }
                },
            );
        }
    }
    c
}
