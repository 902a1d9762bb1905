//! §7.1 — Tool accuracy and overhead (Table 3 and Fig. 6).
//!
//! Each of the five user-perceived latency metrics is replayed repeatedly;
//! the calibrated measurement is compared against the on-screen ground
//! truth (the paper's 60 fps camera; here the simulator's draw log). The
//! section also reports the IP→RLC mapping ratios of §5.4.2 and the
//! controller's CPU overhead.

use crate::exp72::{run_posts, PostKind};
use crate::scenario::{browser_world, facebook_world, youtube_world, NetKind, PAGE_URL};
use device::apps::{BrowserConfig, FbVersion, VideoSpec};
use netstack::pcap::Direction;
use netstack::IpPacket;
use qoe_doctor::analyze::app::{accuracy_span, accuracy_trigger, completed, AccuracySample};
use qoe_doctor::analyze::crosslayer::{
    long_jump_map, score_mapping, MapperOptions, MappingScore, PduIndex, TruthCovers,
};
use qoe_doctor::bundle::{BEHAVIOR, CAMERA, CPU, PDUS, QXDM, TRACE};
use qoe_doctor::replay::{self, PAGE_LOAD, PULL_TO_UPDATE, VIDEO_INITIAL_LOADING};
use qoe_doctor::{Collection, Controller};
use simcore::{par, SimDuration, SimTime};
use std::fmt;
use trace::Reads;

/// Accuracy for one latency metric (one Fig. 6 bar).
#[derive(Debug, Clone)]
pub struct MetricAccuracy {
    /// Metric name.
    pub metric: &'static str,
    /// Number of comparable measurements.
    pub n: usize,
    /// Mean |measured − truth| in milliseconds.
    pub mean_error_ms: f64,
    /// Maximum |measured − truth| in milliseconds (Table 3's `t_d`).
    pub max_error_ms: f64,
    /// Upper bound of the error ratio, computed as the paper does: the
    /// mean error `t_d` over the *shortest* ground-truth latency observed.
    pub max_ratio_percent: f64,
}

impl fmt::Display for MetricAccuracy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<26} n={:<3} mean err {:>5.1} ms  max err {:>5.1} ms  ratio <= {:>4.2}%",
            self.metric, self.n, self.mean_error_ms, self.max_error_ms, self.max_ratio_percent
        )
    }
}

/// What every accuracy analyzer reads: the behaviour log, scored against
/// the camera truth.
const ACCURACY_READS: Reads = Reads::artifacts(&[BEHAVIOR]).and_truths(&[CAMERA]);

fn summarize(metric: &'static str, samples: &[AccuracySample]) -> MetricAccuracy {
    let n = samples.len();
    if n == 0 {
        return MetricAccuracy {
            metric,
            n,
            mean_error_ms: 0.0,
            max_error_ms: 0.0,
            max_ratio_percent: 0.0,
        };
    }
    let errors: Vec<f64> = samples
        .iter()
        .map(|s| s.error.as_secs_f64() * 1e3)
        .collect();
    let mean = errors.iter().sum::<f64>() / n as f64;
    let max = errors.iter().cloned().fold(0.0, f64::max);
    let min_truth = samples
        .iter()
        .map(|s| s.truth.as_secs_f64())
        .fold(f64::INFINITY, f64::min);
    MetricAccuracy {
        metric,
        n,
        mean_error_ms: mean,
        max_error_ms: max,
        // §7.1: "the average time difference t_d … the ratio of t_d to
        // t_screen … we use the shortest t_screen among all experiments".
        max_ratio_percent: if min_truth > 0.0 {
            mean / (min_truth * 1e3) * 100.0
        } else {
            0.0
        },
    }
}

/// Record the status-post accuracy session: status posts on LTE with the
/// screen ground truth enabled.
fn posts_session(reps: usize, seed: u64) -> Collection {
    let world = facebook_world(
        FbVersion::ListView50,
        None,
        false,
        None,
        crate::scenario::PUSH_BYTES,
        NetKind::Lte,
        seed,
        true,
    );
    let mut doctor = Controller::new(world);
    doctor.advance(SimDuration::from_secs(10));
    for rep in 0..reps {
        let text = format!("status: accuracy ts#{rep}");
        replay::upload_post(
            &mut doctor,
            "upload_post:status",
            &text,
            SimDuration::from_secs(60),
        );
        doctor.advance(SimDuration::from_secs(2));
    }
    doctor.collect()
}

/// Facebook post-update accuracy from a recorded session. The rep index of
/// each `upload_post:status` record (they log in replay order) rebuilds the
/// camera label the live controller knew.
fn posts_accuracy_from(col: &Collection) -> MetricAccuracy {
    let samples: Vec<AccuracySample> = col
        .behavior
        .iter()
        .filter(|(_, r)| r.action == "upload_post:status")
        .enumerate()
        .filter_map(|(rep, (_, rec))| {
            let label = format!("news_feed:item:status: accuracy ts#{rep}");
            accuracy_trigger(rec, &col.camera, &label)
        })
        .collect();
    summarize("Facebook post updates", &samples)
}

/// Record the pull-to-update accuracy session (span metric).
fn pull_session(reps: usize, seed: u64) -> Collection {
    let world = facebook_world(
        FbVersion::ListView50,
        None,
        true,
        Some(SimDuration::from_secs(30)),
        2_400,
        NetKind::Lte,
        seed,
        true,
    );
    let mut doctor = Controller::new(world);
    doctor.advance(SimDuration::from_secs(5));
    for _ in 0..reps {
        replay::pull_to_update(&mut doctor, SimDuration::from_secs(60));
    }
    doctor.collect()
}

/// Pull-to-update accuracy from a recorded session. `measure_span` logs
/// exactly the records it returns, so filtering the behaviour log by action
/// rebuilds the live record list.
fn pull_accuracy_from(col: &Collection) -> MetricAccuracy {
    let samples: Vec<AccuracySample> = col
        .behavior
        .iter()
        .filter(|(_, r)| r.action == PULL_TO_UPDATE)
        .filter_map(|(_, rec)| {
            accuracy_span(rec, &col.camera, "feed_progress:show", "feed_progress:hide")
        })
        .collect();
    summarize("Facebook pull-to-update", &samples)
}

/// Record the YouTube initial-loading + rebuffering accuracy session.
fn video_session(reps: usize, seed: u64) -> Collection {
    // Throttled 3G induces rebuffering events for the span metric.
    let videos: Vec<VideoSpec> = (0..reps)
        .map(|i| VideoSpec {
            name: format!("v{i}"),
            duration: SimDuration::from_secs(30),
            bitrate_bps: 400e3,
        })
        .collect();
    let world = youtube_world(
        videos.clone(),
        None,
        NetKind::Umts3gThrottled(200e3),
        seed,
        true,
    );
    let mut doctor = Controller::new(world);
    doctor.advance(SimDuration::from_secs(5));
    replay::search_videos(&mut doctor);
    doctor.advance(SimDuration::from_secs(10));
    for spec in &videos {
        replay::load_video(&mut doctor, &spec.name, SimDuration::from_secs(200));
        replay::monitor_playback(&mut doctor, "video", SimDuration::from_secs(200));
        doctor.advance(SimDuration::from_secs(3));
    }
    doctor.collect()
}

/// YouTube initial loading + rebuffering accuracy from a recorded session.
fn video_accuracy_from(col: &Collection) -> (MetricAccuracy, MetricAccuracy) {
    let loading: Vec<AccuracySample> = completed(&col.behavior, VIDEO_INITIAL_LOADING)
        .filter_map(|rec| accuracy_trigger(rec, &col.camera, "player_progress:hide"))
        .collect();
    let rebuffer: Vec<AccuracySample> = completed(&col.behavior, "video:rebuffer")
        .filter_map(|r| {
            accuracy_span(
                r,
                &col.camera,
                "player_progress:show",
                "player_progress:hide",
            )
        })
        // Exclude stream-end micro-stalls: the paper's rebuffering events
        // under carrier throttling were all multi-second.
        .filter(|s| s.truth >= SimDuration::from_secs(1))
        .collect();
    (
        summarize("YouTube initial loading", &loading),
        summarize("YouTube rebuffering", &rebuffer),
    )
}

/// Record the page-load accuracy session.
fn page_session(reps: usize, seed: u64) -> Collection {
    let world = browser_world(BrowserConfig::chrome(), NetKind::Wifi, seed);
    let mut doctor = Controller::new(world);
    doctor.advance(SimDuration::from_secs(2));
    doctor.interact(&replay::type_url(PAGE_URL));
    for _ in 0..reps {
        replay::load_page(&mut doctor, PAGE_URL, SimDuration::from_secs(60));
        doctor.advance(SimDuration::from_secs(5));
    }
    doctor.collect()
}

/// Page-load accuracy from a recorded session.
fn page_accuracy_from(col: &Collection) -> MetricAccuracy {
    let samples: Vec<AccuracySample> = completed(&col.behavior, PAGE_LOAD)
        .filter_map(|rec| accuracy_trigger(rec, &col.camera, "page_progress:hide"))
        .collect();
    summarize("Web page loading", &samples)
}

/// Mapping ratios and CPU overhead from a 3G photo-upload session.
#[derive(Debug, Clone)]
pub struct ToolOverhead {
    /// Uplink IP→RLC mapping score.
    pub ul_mapping: MappingScore,
    /// Downlink IP→RLC mapping score.
    pub dl_mapping: MappingScore,
    /// Controller CPU share of total CPU during the session (%).
    pub cpu_overhead_percent: f64,
}

impl fmt::Display for ToolOverhead {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "mapping ul {:>5.2}% (correct {:>5.1}%)  dl {:>5.2}% (correct {:>5.1}%)  cpu overhead {:>4.2}%",
            self.ul_mapping.mapped_ratio * 100.0,
            self.ul_mapping.correct_ratio * 100.0,
            self.dl_mapping.mapped_ratio * 100.0,
            self.dl_mapping.correct_ratio * 100.0,
            self.cpu_overhead_percent
        )
    }
}

/// What [`overhead_from`] reads: the packet trace, the QxDM log and the CPU
/// meter, scored against the PDU truth.
const OVERHEAD_READS: Reads = Reads::artifacts(&[TRACE, QXDM, CPU]).and_truths(&[PDUS]);

/// Table 3's mapping + overhead rows from a recorded photo-post session.
/// This is an evaluation-only analysis: it scores the mapper against the
/// `pdu_truth` ground truth, which the bundle format keeps segregated from
/// the observable artifacts.
pub fn overhead_from(col: &Collection) -> ToolOverhead {
    let qxdm = col.qxdm.as_ref().expect("cellular");
    let truth = col.pdu_truth.as_ref().expect("truth log");
    let map_dir = |dir: Direction| -> MappingScore {
        let pkts: Vec<(SimTime, &IpPacket)> = col
            .trace
            .iter()
            .filter(|(_, r)| r.dir == dir)
            .map(|(at, r)| (at, &r.pkt))
            .collect();
        let (index, covers) =
            par::join(|| PduIndex::new(qxdm, dir), || TruthCovers::new(truth, dir));
        let mapped = long_jump_map(&pkts, &index, MapperOptions::default());
        score_mapping(&mapped, &covers)
    };
    let cpu = col.cpu;
    let total = cpu.app_busy.as_secs_f64() + cpu.controller_busy.as_secs_f64();
    // Uplink and downlink are independent: an idle campaign worker, when
    // there is one, maps one of them.
    let (ul_mapping, dl_mapping) = par::join(
        || map_dir(Direction::Uplink),
        || map_dir(Direction::Downlink),
    );
    ToolOverhead {
        ul_mapping,
        dl_mapping,
        cpu_overhead_percent: if total > 0.0 {
            cpu.controller_busy.as_secs_f64() / total * 100.0
        } else {
            0.0
        },
    }
}

/// One §7.1 campaign job's output: Fig. 6 accuracy bars or the Table 3
/// mapping/overhead row.
#[derive(Debug, Clone)]
pub enum Table3Part {
    /// One or two Fig. 6 bars (the video job yields loading + rebuffering).
    Bars(Vec<MetricAccuracy>),
    /// The mapping-ratio and CPU-overhead row.
    Overhead(ToolOverhead),
}

impl fmt::Display for Table3Part {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Table3Part::Bars(bars) => crate::render::write_lines(f, bars),
            Table3Part::Overhead(o) => write!(f, "{o}"),
        }
    }
}

/// The §7.1 evaluation as a two-stage campaign: one job per metric
/// scenario plus the overhead session, in Fig. 6 bar order.
pub fn staged(reps: usize, seed: u64) -> harness::StagedCampaign<Collection, Table3Part> {
    let name = "table3_fig6";
    let mut c = harness::StagedCampaign::new(name);
    c.job(
        "accuracy/posts",
        seed,
        crate::stage::config_digest(name, "accuracy/posts", &[reps as u64]),
        move || posts_session(reps, seed),
        ACCURACY_READS,
        |col: &Collection| Table3Part::Bars(vec![posts_accuracy_from(col)]),
    );
    c.job(
        "accuracy/pull",
        seed ^ 1,
        crate::stage::config_digest(name, "accuracy/pull", &[reps as u64]),
        move || pull_session(reps, seed ^ 1),
        ACCURACY_READS,
        |col: &Collection| Table3Part::Bars(vec![pull_accuracy_from(col)]),
    );
    c.job(
        "accuracy/video",
        seed ^ 2,
        crate::stage::config_digest(name, "accuracy/video", &[reps.min(10) as u64]),
        move || video_session(reps.min(10), seed ^ 2),
        ACCURACY_READS,
        |col: &Collection| {
            let (loading, rebuffer) = video_accuracy_from(col);
            Table3Part::Bars(vec![loading, rebuffer])
        },
    );
    c.job(
        "accuracy/page",
        seed ^ 3,
        crate::stage::config_digest(name, "accuracy/page", &[reps as u64]),
        move || page_session(reps, seed ^ 3),
        ACCURACY_READS,
        |col: &Collection| Table3Part::Bars(vec![page_accuracy_from(col)]),
    );
    c.job(
        "overhead",
        seed ^ 4,
        crate::stage::config_digest(name, "overhead", &[reps.min(10) as u64]),
        move || run_posts(PostKind::Photos, NetKind::Umts3g, reps.min(10), seed ^ 4),
        OVERHEAD_READS,
        |col: &Collection| Table3Part::Overhead(overhead_from(col)),
    );
    c
}
