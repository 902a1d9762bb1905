//! Ablation studies of the design choices DESIGN.md calls out.
//!
//! * **Mapper mechanisms**: the long-jump mapping's two resync mechanisms —
//!   sequence-gap credit and LI-bridge rescue — each exist to survive QxDM
//!   record loss. Turning them off quantifies their contribution to the
//!   Table 3 mapping ratios (and shows the off-by-one cascade the gap
//!   credit prevents on identical-looking ACK chains).
//! * **Calibration**: raw vs §5.1-calibrated measurement error against the
//!   screen ground truth.
//! * **Throttle discipline**: the same token rate applied as shaping vs
//!   policing to the same video (the mechanism behind Finding 7, isolated
//!   from carrier-technology differences).

use crate::exp72::{run_posts, PostKind};
use crate::scenario::{youtube_world, NetKind};
use device::apps::VideoSpec;
use netstack::pcap::Direction;
use netstack::IpPacket;
use qoe_doctor::analyze::crosslayer::{
    long_jump_map, score_mapping, MapperOptions, MappingScore, PduIndex, TruthCovers,
};
use qoe_doctor::bundle::{BEHAVIOR, CAMERA, PDUS, QXDM, TRACE};
use qoe_doctor::{replay, Collection, CollectionSet, Controller};
use simcore::{SimDuration, SimTime};
use std::fmt;
use trace::Reads;

/// One mapper-ablation row.
#[derive(Debug, Clone)]
pub struct MapperAblationRow {
    /// Configuration label.
    pub config: &'static str,
    /// Uplink score.
    pub ul: MappingScore,
    /// Downlink score.
    pub dl: MappingScore,
}

impl fmt::Display for MapperAblationRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<28} ul mapped {:>5.1}% correct {:>5.1}% | dl mapped {:>5.1}% correct {:>5.1}%",
            self.config,
            self.ul.mapped_ratio * 100.0,
            self.ul.correct_ratio * 100.0,
            self.dl.mapped_ratio * 100.0,
            self.dl.correct_ratio * 100.0,
        )
    }
}

/// What [`mapper_rows`] reads: the packet trace and the QxDM log, scored
/// against the PDU truth.
const MAPPER_READS: Reads = Reads::artifacts(&[TRACE, QXDM]).and_truths(&[PDUS]);

/// Score the mapper configurations against a recorded photo-upload trace.
/// Evaluation-only: scoring reads the segregated `pdu_truth` ground truth.
fn mapper_rows(col: &Collection) -> Vec<MapperAblationRow> {
    let qxdm = col.qxdm.as_ref().expect("cellular");
    let truth = col.pdu_truth.as_ref().expect("truth");
    let configs: [(&'static str, MapperOptions); 4] = [
        ("full (gap credit + bridge)", MapperOptions::default()),
        (
            "no gap credit",
            MapperOptions {
                gap_credit: false,
                ..MapperOptions::default()
            },
        ),
        (
            "no bridge rescue",
            MapperOptions {
                bridge_rescue: false,
                ..MapperOptions::default()
            },
        ),
        (
            "neither",
            MapperOptions {
                gap_credit: false,
                bridge_rescue: false,
                ..MapperOptions::default()
            },
        ),
    ];
    // One index and one set of truth covers per direction, shared by
    // every configuration.
    let scores = |dir: Direction| -> Vec<MappingScore> {
        let pkts: Vec<(SimTime, &IpPacket)> = col
            .trace
            .iter()
            .filter(|(_, r)| r.dir == dir)
            .map(|(at, r)| (at, &r.pkt))
            .collect();
        let index = PduIndex::new(qxdm, dir);
        let covers = TruthCovers::new(truth, dir);
        configs
            .iter()
            .map(|(_, opts)| score_mapping(&long_jump_map(&pkts, &index, *opts), &covers))
            .collect()
    };
    let (ul, dl) = (scores(Direction::Uplink), scores(Direction::Downlink));
    configs
        .iter()
        .zip(ul.into_iter().zip(dl))
        .map(|((config, _), (ul, dl))| MapperAblationRow { config, ul, dl })
        .collect()
}

/// One calibration-ablation row: measurement error with and without the
/// §5.1 calibration.
#[derive(Debug, Clone)]
pub struct CalibrationRow {
    /// Samples.
    pub n: usize,
    /// Mean |raw − truth| in ms.
    pub raw_err_ms: f64,
    /// Mean |calibrated − truth| in ms.
    pub calibrated_err_ms: f64,
}

impl fmt::Display for CalibrationRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "calibration: n={} raw err {:>5.1} ms -> calibrated err {:>5.1} ms",
            self.n, self.raw_err_ms, self.calibrated_err_ms
        )
    }
}

/// What [`calibration_row`] reads: the behaviour log, scored against the
/// camera truth.
const CALIBRATION_READS: Reads = Reads::artifacts(&[BEHAVIOR]).and_truths(&[CAMERA]);

/// Compute raw-vs-calibrated error from a recorded status-post session.
fn calibration_row(col: &Collection) -> CalibrationRow {
    use qoe_doctor::analyze::app::screen_event_at;
    let mut raw = Vec::new();
    let mut cal = Vec::new();
    for (_, rec) in col.behavior.iter() {
        if rec.timed_out {
            continue;
        }
        let slack = SimDuration::from_millis(500);
        let Some(screen_end) =
            screen_event_at(&col.camera, "news_feed:item:", rec.start, rec.end + slack)
        else {
            continue;
        };
        let truth = screen_end.saturating_since(rec.start).as_secs_f64();
        raw.push((rec.raw().as_secs_f64() - truth).abs() * 1e3);
        cal.push((rec.calibrated().as_secs_f64() - truth).abs() * 1e3);
    }
    let n = raw.len();
    CalibrationRow {
        n,
        raw_err_ms: raw.iter().sum::<f64>() / n.max(1) as f64,
        calibrated_err_ms: cal.iter().sum::<f64>() / n.max(1) as f64,
    }
}

/// One throttle-discipline row: the throughput signature of Finding 7.
#[derive(Debug, Clone)]
pub struct DisciplineRow {
    /// Discipline label.
    pub label: &'static str,
    /// Mean downlink throughput (b/s).
    pub mean_bps: f64,
    /// Standard deviation of per-second throughput.
    pub std_bps: f64,
    /// TCP retransmissions observed in the trace.
    pub retx: u32,
    /// Rebuffering ratio over the watch.
    pub rebuffering: f64,
}

impl fmt::Display for DisciplineRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<22} mean {:>6.3} Mb/s  sd {:>6.3} Mb/s  retx {:>4}  rebuffering {:>5.2}",
            self.label,
            self.mean_bps / 1e6,
            self.std_bps / 1e6,
            self.retx,
            self.rebuffering
        )
    }
}

/// One ablation campaign job's output.
#[derive(Debug, Clone)]
pub enum AblationPart {
    /// Long-jump mapper resync mechanisms on/off.
    Mapper(Vec<MapperAblationRow>),
    /// Raw vs §5.1-calibrated error.
    Calibration(CalibrationRow),
    /// Shaping vs policing at the same token rate.
    Discipline(Vec<DisciplineRow>),
}

impl fmt::Display for AblationPart {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AblationPart::Mapper(rows) => crate::render::write_lines(f, rows),
            AblationPart::Calibration(row) => write!(f, "{row}"),
            AblationPart::Discipline(rows) => crate::render::write_lines(f, rows),
        }
    }
}

/// The three ablation studies as one two-stage campaign, in report order.
pub fn staged(
    mapper_reps: usize,
    cal_reps: usize,
    rate_bps: f64,
    seed: u64,
) -> harness::StagedCampaign<CollectionSet, AblationPart> {
    let mut c = harness::StagedCampaign::new("ablation");
    c.job(
        "mapper",
        seed,
        crate::stage::config_digest("ablation", "mapper", &[mapper_reps as u64]),
        move || {
            CollectionSet::single(run_posts(
                PostKind::Photos,
                NetKind::Umts3g,
                mapper_reps,
                seed,
            ))
        },
        MAPPER_READS,
        |set: &CollectionSet| {
            AblationPart::Mapper(mapper_rows(set.get("session").expect("mapper session")))
        },
    );
    c.job(
        "calibration",
        seed,
        crate::stage::config_digest("ablation", "calibration", &[cal_reps as u64]),
        move || CollectionSet::single(run_posts(PostKind::Status, NetKind::Lte, cal_reps, seed)),
        CALIBRATION_READS,
        |set: &CollectionSet| {
            AblationPart::Calibration(calibration_row(
                set.get("session").expect("calibration session"),
            ))
        },
    );
    c.job(
        "discipline",
        seed,
        crate::stage::config_digest_rate("ablation", "discipline", &[], rate_bps),
        move || discipline_sessions(rate_bps, seed),
        DISCIPLINE_READS,
        |set: &CollectionSet| AblationPart::Discipline(discipline_rows(set)),
    );
    c
}

/// Record one custom-bearer LTE watch session with `cfg` applied to both
/// directions.
fn discipline_session(cfg: netstack::ShaperConfig, seed: u64) -> Collection {
    use radio::bearer::BearerConfig;

    let mut bearer = BearerConfig::lte();
    bearer.limiter_dl = Some(cfg.clone());
    bearer.limiter_ul = Some(cfg);
    bearer.qxdm.log_pdus = false;
    let video = VideoSpec {
        name: "abl".into(),
        duration: SimDuration::from_secs(200),
        bitrate_bps: 450e3,
    };
    // Assemble via the scenario builder, then swap in the custom bearer.
    let mut world = youtube_world(vec![video], None, NetKind::Lte, seed, true);
    let mut rng = simcore::DetRng::seed_from_u64(seed ^ 0xD15C);
    world.phone.net =
        device::NetAttachment::Cell(Box::new(radio::bearer::CellBearer::new(bearer, &mut rng)));
    let mut doctor = Controller::new(world);
    doctor.advance(SimDuration::from_secs(5));
    replay::search_videos(&mut doctor);
    doctor.advance(SimDuration::from_secs(5));
    doctor.interact(&replay::video_result("abl"));
    replay::monitor_playback(&mut doctor, "video", SimDuration::from_secs(280));
    doctor.collect()
}

/// Record both discipline sessions as one named set.
fn discipline_sessions(rate_bps: f64, seed: u64) -> CollectionSet {
    use netstack::ShaperConfig;
    CollectionSet {
        items: vec![
            (
                "shaping".to_string(),
                discipline_session(ShaperConfig::shaping(rate_bps), seed),
            ),
            (
                "policing".to_string(),
                discipline_session(ShaperConfig::policing(rate_bps), seed),
            ),
        ],
    }
}

/// What [`discipline_row`] reads of each session: the packet trace and the
/// behaviour log.
const DISCIPLINE_READS: Reads = Reads::artifacts(&[BEHAVIOR, TRACE]);

/// Compute one discipline row from a recorded session; the rebuffering
/// ratio comes from the playback summary record in the behaviour log.
fn discipline_row(col: &Collection, label: &'static str) -> DisciplineRow {
    use qoe_doctor::analyze::app::playback_reports;
    use qoe_doctor::analyze::transport::{downlink_throughput, TransportReport};

    let series = downlink_throughput(&col.trace, 1.0);
    let tr = TransportReport::analyze(&col.trace);
    let rebuffering = playback_reports(&col.behavior, "video")
        .first()
        .map(|r| r.rebuffering_ratio())
        .unwrap_or(0.0);
    DisciplineRow {
        label,
        mean_bps: series.mean(),
        std_bps: series.std_dev(),
        retx: tr.total_retx(),
        rebuffering,
    }
}

/// Both discipline rows from a recorded session set, in report order.
fn discipline_rows(set: &CollectionSet) -> Vec<DisciplineRow> {
    vec![
        discipline_row(
            set.get("shaping").expect("shaping session"),
            "LTE + shaping",
        ),
        discipline_row(
            set.get("policing").expect("policing session"),
            "LTE + policing",
        ),
    ]
}
