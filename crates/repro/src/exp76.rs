//! §7.6 — Impact of video ads on user-perceived latency.
//!
//! A pre-roll ad is a second stream played before the main video; the main
//! video prefetches during ad playback. The paper's finding: ads *reduce*
//! the initial loading time of the main video, but on cellular networks the
//! total loading time (ad loading + main loading) roughly doubles.

use crate::scenario::{youtube_world, NetKind};
use device::apps::VideoSpec;
use device::{UiEvent, ViewSignature};
use qoe_doctor::bundle::BEHAVIOR;
use qoe_doctor::replay::{self, VIDEO_INITIAL_LOADING};
use qoe_doctor::{Collection, Controller, WaitCondition};
use simcore::{SimDuration, Summary};
use std::fmt;
use trace::Reads;

/// Results for one (network × ad) configuration.
#[derive(Debug, Clone)]
pub struct AdRun {
    /// Configuration label.
    pub label: String,
    /// With a pre-roll ad?
    pub with_ad: bool,
    /// Whether the controller skipped the ad when offered.
    pub skipped: bool,
    /// Ad initial loading time (zero without an ad).
    pub ad_loading: Summary,
    /// Main-video initial loading time.
    pub main_loading: Summary,
    /// Total loading time (ad + main).
    pub total_loading: Summary,
}

impl fmt::Display for AdRun {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<5} {:<12} ad-load {:>5.2}s  main-load {:>5.2}s  total-load {:>5.2}s",
            self.label,
            match (self.with_ad, self.skipped) {
                (false, _) => "no-ad",
                (true, true) => "ad (skipped)",
                (true, false) => "ad (watched)",
            },
            self.ad_loading.mean,
            self.main_loading.mean,
            self.total_loading.mean,
        )
    }
}

fn pre_roll() -> VideoSpec {
    VideoSpec {
        name: "ad".into(),
        duration: SimDuration::from_secs(20),
        bitrate_bps: 400e3,
    }
}

/// Watch `reps` videos with/without a pre-roll ad on `net`; when `skip` is
/// set the controller presses "Skip Ad" as soon as it is offered (§4.2.2).
pub fn run_config(net: NetKind, with_ad: bool, skip: bool, reps: usize, seed: u64) -> AdRun {
    ad_run_from(&session(net, with_ad, skip, reps, seed), net, with_ad, skip)
}

/// Record one (network × ad mode) session.
fn session(net: NetKind, with_ad: bool, skip: bool, reps: usize, seed: u64) -> Collection {
    let videos: Vec<VideoSpec> = (0..reps)
        .map(|i| VideoSpec {
            name: format!("v{i}"),
            duration: SimDuration::from_secs(45),
            bitrate_bps: 500e3,
        })
        .collect();
    let ad = with_ad.then(pre_roll);
    let world = youtube_world(videos.clone(), ad, net, seed, true);
    let mut doctor = Controller::new(world);
    doctor.advance(SimDuration::from_secs(5));
    replay::search_videos(&mut doctor);
    doctor.advance(SimDuration::from_secs(10));

    for spec in &videos {
        if with_ad {
            // First window: ad loading (click → progress hidden while the
            // ad buffers).
            doctor.measure_after(
                "ad:initial_loading",
                &replay::video_result(&spec.name),
                &replay::player_ready(),
                SimDuration::from_secs(120),
            );
            if skip {
                // The paper's controller skips ads whenever offered
                // (§4.2.2); the skip button appears 5 s into ad playback.
                doctor.advance(SimDuration::from_secs(6));
                doctor.interact(&UiEvent::Click {
                    target: ViewSignature::by_id("skip_ad"),
                });
            }
            // Second window: main-video loading after the (skipped) ad. The
            // prefetched buffer may make this nearly instantaneous; a
            // missed (sub-parse-interval) window leaves no record and
            // counts as zero at analysis time.
            doctor.measure_span(
                VIDEO_INITIAL_LOADING,
                &WaitCondition::Shown {
                    id: "player_progress".into(),
                },
                &replay::player_ready(),
                pre_roll().duration + SimDuration::from_secs(90),
            );
        } else {
            replay::load_video(&mut doctor, &spec.name, SimDuration::from_secs(120));
        }
        // Let the video finish before the next rep.
        doctor.monitor_playback(
            "video",
            SimDuration::from_secs(45 * 3 + 60) + pre_roll().duration * 2,
        );
        doctor.advance(SimDuration::from_secs(3));
    }
    doctor.collect()
}

/// Rebuild an [`AdRun`] from a recorded session. With an ad, each
/// `ad:initial_loading` record opens a rep and a following
/// `video:initial_loading` record (if any, before the next rep's ad)
/// supplies the main-video loading; the span measurement logs no record
/// when the progress bar never reappears, which counts as zero. Without an
/// ad each `video:initial_loading` record is one rep.
/// What [`ad_run_from`] reads: the behaviour log alone.
const AD_READS: Reads = Reads::artifacts(&[BEHAVIOR]);

fn ad_run_from(col: &Collection, net: NetKind, with_ad: bool, skip: bool) -> AdRun {
    let mut ad_loads = Vec::new();
    let mut main_loads = Vec::new();
    let mut totals = Vec::new();
    if with_ad {
        let mut current_ad: Option<f64> = None;
        for (_, rec) in col.behavior.iter() {
            match rec.action.as_str() {
                "ad:initial_loading" => {
                    if let Some(ad_load) = current_ad.take() {
                        ad_loads.push(ad_load);
                        main_loads.push(0.0);
                        totals.push(ad_load);
                    }
                    current_ad = Some(rec.calibrated().as_secs_f64());
                }
                VIDEO_INITIAL_LOADING => {
                    if let Some(ad_load) = current_ad.take() {
                        let main_load = rec.calibrated().as_secs_f64();
                        ad_loads.push(ad_load);
                        main_loads.push(main_load);
                        totals.push(ad_load + main_load);
                    }
                }
                _ => {}
            }
        }
        if let Some(ad_load) = current_ad {
            ad_loads.push(ad_load);
            main_loads.push(0.0);
            totals.push(ad_load);
        }
    } else {
        for (_, rec) in col.behavior.iter() {
            if rec.action == VIDEO_INITIAL_LOADING {
                let load = rec.calibrated().as_secs_f64();
                ad_loads.push(0.0);
                main_loads.push(load);
                totals.push(load);
            }
        }
    }
    AdRun {
        label: net.label(),
        with_ad,
        skipped: with_ad && skip,
        ad_loading: Summary::of(&ad_loads),
        main_loading: Summary::of(&main_loads),
        total_loading: Summary::of(&totals),
    }
}

/// The §7.6 matrix as a two-stage campaign: one job per (network × ad
/// mode).
pub fn staged(reps: usize, seed: u64) -> harness::StagedCampaign<Collection, AdRun> {
    let mut c = harness::StagedCampaign::new("exp76");
    for net in [NetKind::Wifi, NetKind::Lte, NetKind::Umts3g] {
        for (mode, with_ad, skip) in [
            ("no-ad", false, false),
            ("ad-skipped", true, true),
            ("ad-watched", true, false),
        ] {
            let label = format!("{}/{mode}", net.label());
            let cfg = crate::stage::config_digest("exp76", &label, &[reps as u64]);
            c.job(
                label,
                seed,
                cfg,
                move || session(net, with_ad, skip, reps, seed),
                AD_READS,
                move |col: &Collection| ad_run_from(col, net, with_ad, skip),
            );
        }
    }
    c
}
