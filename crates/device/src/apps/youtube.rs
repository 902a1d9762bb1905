//! The YouTube app model.
//!
//! Search for a video, click a result, play it (§4.2.2). The player is a
//! progressive-download buffer model: the stream arrives as fast as TCP
//! carries it, playback drains the buffer at the video bitrate, and the UI
//! progress bar (the controller's measurement anchor) is visible exactly
//! while the player is *loading* or *rebuffering*:
//!
//! * **initial loading time** — click on the result until the startup
//!   buffer fills and the progress bar disappears;
//! * **rebuffering ratio** — stall time over stall + play time after the
//!   initial load (§4.2.2).
//!
//! A pre-roll ad (§7.6) is a second stream played first; the main stream
//! starts when the ad ends (or is skipped via the "Skip Ad" button the
//! paper's controller always presses). Skipping early loads the main video
//! onto a still-promoted radio — the "ads reduce the main video's initial
//! loading time" effect — while watching the whole ad lets the RRC demotion
//! timers fire, so the main video loads cold and the total loading time on
//! cellular roughly doubles.

use std::sync::Arc;

use super::{YOUTUBE_AD_HOST, YOUTUBE_API_HOST, YOUTUBE_VIDEO_HOST};
use crate::phone::{App, AppCx, UiEvent};
use crate::rpc::Rpc;
use crate::ui::View;
use simcore::{SimDuration, SimTime};

/// One video in the dataset.
#[derive(Debug, Clone)]
pub struct VideoSpec {
    /// Title (search key).
    pub name: String,
    /// Play length.
    pub duration: SimDuration,
    /// Encoding bitrate in bits per second.
    pub bitrate_bps: f64,
}

impl VideoSpec {
    /// Total stream size in bytes.
    pub fn total_bytes(&self) -> u64 {
        (self.duration.as_secs_f64() * self.bitrate_bps / 8.0).ceil() as u64
    }
}

/// After this much ad playback a "Skip Ad" button appears. §4.2.2: the
/// controller is configured to skip ads whenever users are given that option.
pub const AD_SKIPPABLE_AFTER: SimDuration = SimDuration::from_secs(5);
/// Media buffered before playback starts. YouTube-era players prebuffered
/// aggressively: ~10 s of media before starting, ~5 s before resuming from a
/// stall.
pub const STARTUP_BUFFER: SimDuration = SimDuration::from_millis(10_000);
/// Media buffered before a stall resumes.
pub const RESUME_BUFFER: SimDuration = SimDuration::from_millis(5_000);
/// Search request bytes.
pub const SEARCH_REQ: u64 = 1_200;
/// Search response bytes.
pub const SEARCH_RESP: u64 = 9_000;

/// YouTube app parameters.
#[derive(Debug, Clone, Default)]
pub struct YouTubeConfig {
    /// The searchable dataset.
    pub videos: Vec<VideoSpec>,
    /// Pre-roll ad, when enabled.
    pub ad: Option<VideoSpec>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    AdLoading,
    AdPlaying,
    Loading,
    Playing,
    Rebuffering,
    Finished,
}

struct Player {
    spec: VideoSpec,
    /// The main video stream. Starts at click without an ad; with a
    /// pre-roll ad it starts when the ad finishes — the radio is then
    /// already promoted and the connection path warm, which is why ads
    /// *reduce* the main video's initial loading time (§7.6) even though
    /// the total loading time roughly doubles.
    main: Option<Rpc>,
    ad: Option<(VideoSpec, Rpc)>,
    phase: Phase,
    consumed: f64,
    ad_consumed: f64,
    last: SimTime,
}

impl Player {
    fn buffer_bytes(&self, received: u64) -> f64 {
        received as f64 - self.consumed
    }
}

/// The YouTube app.
pub struct YouTubeApp {
    cfg: YouTubeConfig,
    search_text: String,
    search_rpc: Option<Rpc>,
    player: Option<Player>,
    next_tag: u16,
    wake_at: Option<SimTime>,
}

impl YouTubeApp {
    /// Install the app.
    pub fn new(cfg: YouTubeConfig) -> YouTubeApp {
        YouTubeApp {
            cfg,
            search_text: String::new(),
            search_rpc: None,
            player: None,
            next_tag: 1,
            wake_at: None,
        }
    }

    fn tag(&mut self) -> u16 {
        self.next_tag = self.next_tag.wrapping_add(1).max(1);
        self.next_tag
    }

    fn start_playback(&mut self, name: &str, cx: &mut AppCx) {
        let Some(spec) = self.cfg.videos.iter().find(|v| v.name == name).cloned() else {
            return;
        };
        cx.ui.set_visible(cx.now, "player_progress", true);
        cx.ui.set_text(cx.now, "player_status", "loading");
        let ad = self.cfg.ad.clone().map(|ad_spec| {
            let ad_tag = self.tag();
            let rpc =
                Rpc::new(YOUTUBE_AD_HOST, 443, ad_tag, 1_200, ad_spec.total_bytes()).keep_open();
            (ad_spec, rpc)
        });
        let main = if ad.is_none() {
            let tag = self.tag();
            Some(Rpc::new(YOUTUBE_VIDEO_HOST, 443, tag, 1_500, spec.total_bytes()).keep_open())
        } else {
            None
        };
        let phase = if ad.is_some() {
            Phase::AdLoading
        } else {
            Phase::Loading
        };
        self.player = Some(Player {
            spec,
            main,
            ad,
            phase,
            consumed: 0.0,
            ad_consumed: 0.0,
            last: cx.now,
        });
    }

    fn drive_player(&mut self, cx: &mut AppCx) {
        let next_tag = {
            self.next_tag = self.next_tag.wrapping_add(1).max(1);
            self.next_tag
        };
        let Some(p) = &mut self.player else {
            self.wake_at = None;
            return;
        };
        // Keep the streams progressing.
        if let Some(main) = &mut p.main {
            main.poll(cx.host, cx.now);
        }
        if let Some((_, ad_rpc)) = &mut p.ad {
            ad_rpc.poll(cx.host, cx.now);
        }
        let dt = cx.now.saturating_since(p.last).as_secs_f64();
        p.last = cx.now;

        let total = p.spec.total_bytes();
        let rate = p.spec.bitrate_bps / 8.0;

        // Consume media for the elapsed interval (at most once per tick).
        match p.phase {
            Phase::AdPlaying => {
                let (ad_spec, ad_rpc) = p.ad.as_ref().expect("ad phase");
                let ad_received = ad_rpc.bytes_received(cx.host).min(ad_spec.total_bytes());
                let ad_rate = ad_spec.bitrate_bps / 8.0;
                p.ad_consumed = (p.ad_consumed + dt * ad_rate).min(ad_received as f64);
                let eligible = p.ad_consumed >= ad_rate * AD_SKIPPABLE_AFTER.as_secs_f64();
                let shown = cx.ui.root().find("skip_ad").is_some_and(|v| v.visible);
                if eligible && !shown {
                    cx.ui.set_visible(cx.now, "skip_ad", true);
                }
            }
            Phase::Playing => {
                let received = p
                    .main
                    .as_ref()
                    .map(|m| m.bytes_received(cx.host).min(total))
                    .unwrap_or(0);
                p.consumed = (p.consumed + dt * rate).min(received as f64);
            }
            _ => {}
        }

        // Evaluate phase transitions until stable: several can cascade at
        // one instant (ad ends → main loading → main already buffered →
        // playing), and no further network event may arrive to re-tick us.
        for _ in 0..8 {
            let received = p
                .main
                .as_ref()
                .map(|m| m.bytes_received(cx.host).min(total))
                .unwrap_or(0);
            let next = match p.phase {
                Phase::AdLoading | Phase::AdPlaying => {
                    let (ad_spec, ad_rpc) = p.ad.as_ref().expect("ad phases require an ad");
                    let ad_total = ad_spec.total_bytes();
                    let ad_rate = ad_spec.bitrate_bps / 8.0;
                    let ad_received = ad_rpc.bytes_received(cx.host).min(ad_total);
                    if p.ad_consumed >= ad_total as f64 {
                        // Ad over: start the main stream now (warm radio).
                        if cx.ui.root().find("skip_ad").is_some_and(|v| v.visible) {
                            cx.ui.set_visible(cx.now, "skip_ad", false);
                        }
                        if p.main.is_none() {
                            p.main = Some(
                                Rpc::new(YOUTUBE_VIDEO_HOST, 443, next_tag, 1_500, total)
                                    .keep_open(),
                            );
                            if let Some(main) = &mut p.main {
                                main.poll(cx.host, cx.now);
                            }
                        }
                        cx.ui.set_visible(cx.now, "player_progress", true);
                        cx.ui.set_text(cx.now, "player_status", "loading");
                        Some(Phase::Loading)
                    } else {
                        let startup = ad_rate * STARTUP_BUFFER.as_secs_f64();
                        let buffered = ad_received as f64 - p.ad_consumed;
                        match p.phase {
                            Phase::AdLoading if buffered >= startup || ad_received == ad_total => {
                                cx.ui.set_visible(cx.now, "player_progress", false);
                                cx.ui.set_text(cx.now, "player_status", "ad");
                                Some(Phase::AdPlaying)
                            }
                            Phase::AdPlaying if buffered <= 0.0 && ad_received < ad_total => {
                                cx.ui.set_visible(cx.now, "player_progress", true);
                                Some(Phase::AdLoading)
                            }
                            _ => None,
                        }
                    }
                }
                Phase::Loading => {
                    let startup = rate * STARTUP_BUFFER.as_secs_f64();
                    if p.main.is_some()
                        && (p.buffer_bytes(received) >= startup || received == total)
                    {
                        cx.ui.set_visible(cx.now, "player_progress", false);
                        cx.ui.set_text(cx.now, "player_status", "playing");
                        Some(Phase::Playing)
                    } else {
                        None
                    }
                }
                Phase::Playing => {
                    if p.consumed >= total as f64 {
                        cx.ui.set_text(cx.now, "player_status", "finished");
                        Some(Phase::Finished)
                    } else if p.buffer_bytes(received) <= 0.0 && received < total {
                        cx.ui.set_visible(cx.now, "player_progress", true);
                        cx.ui.set_text(cx.now, "player_status", "rebuffering");
                        Some(Phase::Rebuffering)
                    } else {
                        None
                    }
                }
                Phase::Rebuffering => {
                    let resume = rate * RESUME_BUFFER.as_secs_f64();
                    if p.buffer_bytes(received) >= resume || received == total {
                        cx.ui.set_visible(cx.now, "player_progress", false);
                        cx.ui.set_text(cx.now, "player_status", "playing");
                        Some(Phase::Playing)
                    } else {
                        None
                    }
                }
                Phase::Finished => None,
            };
            match next {
                Some(ph) => p.phase = ph,
                None => break,
            }
        }

        // Schedule the next playback event (buffer starvation or media end).
        self.wake_at = match p.phase {
            Phase::Playing => {
                let received = p
                    .main
                    .as_ref()
                    .map(|m| m.bytes_received(cx.host).min(total))
                    .unwrap_or(0);
                let playable = (received as f64 - p.consumed).max(0.0);
                let to_end = (total as f64 - p.consumed).max(0.0);
                let horizon = if received < total {
                    playable.min(to_end)
                } else {
                    to_end
                };
                Some(cx.now + SimDuration::from_secs_f64((horizon / rate).max(0.005)))
            }
            Phase::AdPlaying => {
                let (ad_spec, ad_rpc) = p.ad.as_ref().expect("ad phase");
                let ad_rate = ad_spec.bitrate_bps / 8.0;
                let ad_total = ad_spec.total_bytes() as f64;
                let ad_received = ad_rpc.bytes_received(cx.host).min(ad_spec.total_bytes()) as f64;
                let playable = (ad_received - p.ad_consumed).max(0.0);
                let to_end = (ad_total - p.ad_consumed).max(0.0);
                let mut horizon = if ad_received < ad_total {
                    playable.min(to_end)
                } else {
                    to_end
                };
                // Wake when the skip button becomes eligible, too.
                let to_skip = ad_rate * AD_SKIPPABLE_AFTER.as_secs_f64() - p.ad_consumed;
                if to_skip > 0.0 {
                    horizon = horizon.min(to_skip);
                }
                Some(cx.now + SimDuration::from_secs_f64((horizon / ad_rate).max(0.005)))
            }
            _ => None,
        };
    }
}

impl App for YouTubeApp {
    fn name(&self) -> &'static str {
        "com.google.android.youtube"
    }

    fn start(&mut self, cx: &mut AppCx) {
        let layout = View::new("LinearLayout", "yt_root")
            .with_child(View::new("android.widget.EditText", "search_box"))
            .with_child(View::new("android.widget.ListView", "results"))
            .with_child(View::new("TextView", "player_status").with_text("idle"))
            .with_child(
                View::new("android.widget.Button", "skip_ad")
                    .with_text("Skip Ad")
                    .with_visible(false),
            )
            .with_child(
                View::new("android.widget.ProgressBar", "player_progress").with_visible(false),
            );
        cx.ui.mutate(cx.now, "app:launch", |root| {
            root.children = Arc::new(vec![layout]);
        });
    }

    fn on_ui_event(&mut self, ev: &UiEvent, cx: &mut AppCx) {
        match ev {
            UiEvent::TypeText { target, text } => {
                if target.id == "search_box" {
                    self.search_text = text.clone();
                    cx.ui.set_text(cx.now, "search_box", text);
                }
            }
            UiEvent::KeyEnter => {
                let tag = self.tag();
                self.search_rpc = Some(Rpc::new(
                    YOUTUBE_API_HOST,
                    443,
                    tag,
                    SEARCH_REQ,
                    SEARCH_RESP,
                ));
            }
            UiEvent::Click { target } => {
                // Skip the pre-roll ad when the button is offered.
                let is_skip = cx
                    .ui
                    .root()
                    .find_signature(target)
                    .is_some_and(|v| v.id == "skip_ad" && v.visible);
                if is_skip {
                    if let Some(p) = &mut self.player {
                        if matches!(p.phase, Phase::AdLoading | Phase::AdPlaying) {
                            if let Some((ad_spec, _)) = &p.ad {
                                p.ad_consumed = ad_spec.total_bytes() as f64;
                            }
                        }
                    }
                    cx.ui.set_visible(cx.now, "skip_ad", false);
                    // Let the phase machine observe the skip immediately.
                    self.drive_player(cx);
                    return;
                }
                // Click on a result entry starts playback of that video.
                let name = cx
                    .ui
                    .root()
                    .find_signature(target)
                    .filter(|v| v.id.starts_with("result_"))
                    .map(|v| v.text.clone());
                if let Some(name) = name {
                    self.start_playback(&name, cx);
                }
            }
            UiEvent::Scroll { .. } => {}
        }
    }

    fn tick(&mut self, cx: &mut AppCx) {
        // Search completion populates the results list.
        if let Some(rpc) = &mut self.search_rpc {
            if rpc.poll(cx.host, cx.now) {
                self.search_rpc = None;
                let query = self.search_text.clone();
                let names: Vec<String> = self
                    .cfg
                    .videos
                    .iter()
                    .filter(|v| query.is_empty() || v.name.starts_with(&query))
                    .map(|v| v.name.clone())
                    .collect();
                cx.ui.mutate(cx.now, "results:populate", |root| {
                    if let Some(list) = root.find_mut("results") {
                        list.children = Arc::new(
                            names
                                .iter()
                                .map(|n| View::new("TextView", &format!("result_{n}")).with_text(n))
                                .collect(),
                        );
                    }
                });
            }
        }
        self.drive_player(cx);
    }

    fn next_wake(&self) -> Option<SimTime> {
        self.wake_at
    }

    /// Always: every tick advances the request-tag counter, and playback
    /// integrates consumption over the instants the app is ticked at, so the
    /// app must see every step of the world to reproduce a run.
    fn follows_every_step(&self) -> bool {
        true
    }

    fn reset(&mut self) {
        self.search_text.clear();
        self.search_rpc = None;
        self.player = None;
        self.next_tag = 1;
        self.wake_at = None;
    }
}
