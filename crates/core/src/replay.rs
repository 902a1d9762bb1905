//! The Table 1 user behaviours — the paper's control specifications (§4.1).
//!
//! The paper's controller replays *user interaction sequences* that name
//! views by signature rather than coordinates. Each behaviour of Table 1
//! is one function here: it drives a [`Controller`] through the behaviour's
//! interactions and waits, and returns the [`BehaviorRecord`] it logged.
//! Pauses between behaviours (the replayed inter-action timing) and
//! recovery from failed attempts ([`Controller::retry`]) stay with the
//! caller.
//!
//! This module is the only place that names the apps' views. The
//! controller is app-agnostic; the YouTube player's vocabulary — its
//! status strings, its progress bar, the skip-ad button — and playback
//! monitoring ([`monitor_playback`]), which reads the player's own UI
//! state, live here too.
//!
//! The fixed action labels the analyzers filter the behaviour log on are
//! the constants below; post uploads take their label from the caller.

use crate::analyze::app::{playback_report, PlaybackReport};
use crate::behavior::{BehaviorRecord, StartKind};
use crate::controller::{Controller, Kernel, WaitCondition, WaitEnd};
use device::ui::ViewSignature;
use device::UiEvent;
use simcore::SimDuration;

/// Action label of a page load ([`load_page`]).
pub const PAGE_LOAD: &str = "page_load";
/// Action label of a video's initial loading ([`load_video`]).
pub const VIDEO_INITIAL_LOADING: &str = "video:initial_loading";
/// Action label of a news-feed update ([`pull_to_update`]).
pub const PULL_TO_UPDATE: &str = "pull_to_update";

const SEARCH_BOX: &str = "search_box";
const PLAYER_PROGRESS: &str = "player_progress";
const PLAYER_STATUS: &str = "player_status";
const SKIP_AD: &str = "skip_ad";
const URL_BAR: &str = "url_bar";
const PAGE_PROGRESS: &str = "page_progress";
const PAGE_CONTENT: &str = "page_content";
const FEED_PROGRESS: &str = "feed_progress";
const COMPOSER: &str = "composer";
const POST_BUTTON: &str = "post_button";
const NEWS_FEED: &str = "news_feed";

/// YouTube: search the video list — type an empty query into the search
/// box and press ENTER, which lists every video as a `result_<name>` row.
pub fn search_videos<K: Kernel>(doctor: &mut Controller<K>) {
    doctor.interact(&UiEvent::TypeText {
        target: ViewSignature::by_id(SEARCH_BOX),
        text: String::new(),
    });
    doctor.interact(&UiEvent::KeyEnter);
}

/// The tap on the search result for the video named `video`.
pub fn video_result(video: &str) -> UiEvent {
    UiEvent::Click {
        target: ViewSignature::by_id(&format!("result_{video}")),
    }
}

/// The player's progress bar is hidden: loading is over.
pub fn player_ready() -> WaitCondition {
    WaitCondition::Hidden {
        id: PLAYER_PROGRESS.into(),
    }
}

/// The player's progress bar is shown: it is loading (an ad or the main
/// video) or rebuffering.
pub fn player_loading() -> WaitCondition {
    WaitCondition::Shown {
        id: PLAYER_PROGRESS.into(),
    }
}

/// The player's status reads `value` (`loading`, `ad`, `playing`,
/// `rebuffering` or `finished`).
fn player_status(value: &str) -> WaitCondition {
    WaitCondition::TextIs {
        id: PLAYER_STATUS.into(),
        value: value.into(),
    }
}

/// The player's status reads `playing`. Unlike [`player_ready`], this does
/// not hold on a crashed app's relaunched layout: that fresh layout has the
/// progress bar hidden too, so a dead player would read as a fast load.
pub fn player_playing() -> WaitCondition {
    player_status("playing")
}

/// The tap on the player's "Skip Ad" button, which it offers 5 s into a
/// pre-roll ad (§4.2.2).
pub fn skip_ad() -> UiEvent {
    UiEvent::Click {
        target: ViewSignature::by_id(SKIP_AD),
    }
}

/// YouTube: load a video — tap its search result and wait until the
/// player's progress bar is hidden.
pub fn load_video<K: Kernel>(
    doctor: &mut Controller<K>,
    video: &str,
    timeout: SimDuration,
) -> BehaviorRecord {
    doctor.measure_after(
        VIDEO_INITIAL_LOADING,
        &video_result(video),
        &player_ready(),
        timeout,
    )
}

/// YouTube: monitor a video that has finished initial loading — record
/// every rebuffering span until the player reports `finished` (or
/// `timeout` passes).
///
/// The session is a sequence of waits: for the player to finish or stall,
/// then, after a stall, for the progress bar to hide again (logged as a
/// `"{action}:rebuffer"` record). A stall is always measured, so its wait
/// may end at or past the deadline; no finish-or-stall wait starts there.
/// The watchdog cuts the monitor short if the layout tree stops updating
/// (a frozen player would otherwise read as one endless "playing" state).
///
/// The whole session is logged as a `"{action}:playback"` summary record,
/// and the report is read back from the log exactly as
/// [`playback_reports`](crate::analyze::app::playback_reports) reads it
/// offline; only `ui_frozen` comes from the waits.
pub fn monitor_playback<K: Kernel>(
    doctor: &mut Controller<K>,
    action: &str,
    timeout: SimDuration,
) -> PlaybackReport {
    let playback_start = doctor.now;
    let deadline = doctor.now + timeout;
    let finished = player_status("finished");
    let finished_or_stalled =
        WaitCondition::Any(vec![finished.clone(), player_status("rebuffering")]);
    let playing = player_ready();
    // How the wait that ended the session ended; `None` if the deadline
    // passed between waits. Only a finished player ends it as met.
    let mut ended = None;
    // `wait_for` always runs a pass, so the deadline is checked first.
    while doctor.now < deadline {
        let w = doctor.wait_for(&finished_or_stalled, deadline);
        if !w.met() || finished.holds(&w.snapshot) {
            ended = Some(w.end);
            break;
        }
        // In a stall: measure it.
        let stall_start = doctor.now;
        let w = doctor.wait_for(&playing, deadline);
        doctor.log_wait(
            format!("{action}:rebuffer"),
            stall_start,
            StartKind::Parse,
            &w,
        );
        if !w.met() {
            ended = Some(w.end);
            break;
        }
    }
    // `mean_parse` is zero: the span is bounded by controller-side
    // instants, not UI parses.
    let summary = BehaviorRecord {
        action: format!("{action}:playback"),
        start: playback_start,
        end: doctor.now,
        start_kind: StartKind::Parse,
        mean_parse: SimDuration::ZERO,
        timed_out: !matches!(ended, Some(WaitEnd::Met)),
    };
    let report = playback_report(&doctor.log, action, &summary);
    doctor.log.push(doctor.now, summary);
    PlaybackReport {
        ui_frozen: matches!(ended, Some(WaitEnd::Frozen { .. })),
        ..report
    }
}

/// Typing `url` into the browser's URL bar.
pub fn type_url(url: &str) -> UiEvent {
    UiEvent::TypeText {
        target: ViewSignature::by_id(URL_BAR),
        text: url.into(),
    }
}

/// The page's progress bar is hidden and its content shows `url`: the page
/// typed with [`type_url`] has loaded. The content check keeps a crashed
/// browser's relaunched blank layout, whose progress bar is hidden too,
/// from reading as a loaded page. A finished load sets both in one tick.
pub fn page_loaded(url: &str) -> WaitCondition {
    WaitCondition::All(vec![
        WaitCondition::Hidden {
            id: PAGE_PROGRESS.into(),
        },
        WaitCondition::TextIs {
            id: PAGE_CONTENT.into(),
            value: url.into(),
        },
    ])
}

/// Web browsing: load the page whose URL `url` was typed with
/// [`type_url`] — press ENTER and wait until [`page_loaded`] holds.
pub fn load_page<K: Kernel>(
    doctor: &mut Controller<K>,
    url: &str,
    timeout: SimDuration,
) -> BehaviorRecord {
    doctor.measure_after(PAGE_LOAD, &UiEvent::KeyEnter, &page_loaded(url), timeout)
}

/// Facebook: pull-to-update — the span from the feed's progress bar
/// appearing to it disappearing. `None` if it never appeared within
/// `timeout`.
pub fn pull_to_update<K: Kernel>(
    doctor: &mut Controller<K>,
    timeout: SimDuration,
) -> Option<BehaviorRecord> {
    doctor.measure_span(
        PULL_TO_UPDATE,
        &WaitCondition::Shown {
            id: FEED_PROGRESS.into(),
        },
        &WaitCondition::Hidden {
            id: FEED_PROGRESS.into(),
        },
        timeout,
    )
}

/// Facebook: upload a post — type `text` into the composer, tap the post
/// button, and wait until `text` appears in the news feed. Logged as
/// `action`, which names the post kind.
pub fn upload_post<K: Kernel>(
    doctor: &mut Controller<K>,
    action: &str,
    text: &str,
    timeout: SimDuration,
) -> BehaviorRecord {
    doctor.interact(&UiEvent::TypeText {
        target: ViewSignature::by_id(COMPOSER),
        text: text.into(),
    });
    doctor.measure_after(
        action,
        &UiEvent::Click {
            target: ViewSignature::by_id(POST_BUTTON),
        },
        &WaitCondition::TextAppears {
            container: NEWS_FEED.into(),
            needle: text.into(),
        },
        timeout,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use device::apps::{
        BrowserApp, BrowserConfig, FacebookApp, FacebookConfig, FbVersion, YouTubeApp,
        YouTubeConfig,
    };
    use device::{App, Internet, NetAttachment, Phone, World};
    use netstack::dns::DNS_PORT;
    use netstack::{IpAddr, SocketAddr};
    use simcore::DetRng;

    /// Launch `app` on a phone with no reachable servers and return the
    /// controller once its layout is up.
    fn launched(app: Box<dyn App>) -> Controller {
        let mut rng = DetRng::seed_from_u64(5);
        let resolver = SocketAddr::new(IpAddr::new(8, 8, 8, 8), DNS_PORT);
        let internet = Internet::new(resolver, rng.fork(1));
        let phone = Phone::new(
            IpAddr::new(10, 0, 0, 1),
            resolver,
            NetAttachment::wifi(&mut rng),
            app,
            rng.fork(2),
        );
        let mut doctor = Controller::new(World::new(phone, internet));
        doctor.advance(SimDuration::from_secs(1));
        doctor
    }

    #[test]
    fn builtin_specs_cover_table1() {
        // Every view a Table 1 behaviour addresses exists in the launched
        // layout of the app it replays.
        let apps: [(Box<dyn App>, &[&str]); 3] = [
            (
                Box::new(BrowserApp::new(BrowserConfig::chrome())),
                &[URL_BAR, PAGE_PROGRESS, PAGE_CONTENT],
            ),
            (
                Box::new(FacebookApp::new(FacebookConfig::new(FbVersion::ListView50))),
                &[COMPOSER, POST_BUTTON, NEWS_FEED, FEED_PROGRESS],
            ),
            (
                Box::new(YouTubeApp::new(YouTubeConfig::default())),
                &[SEARCH_BOX, PLAYER_STATUS, SKIP_AD, PLAYER_PROGRESS],
            ),
        ];
        for (app, ids) in apps {
            let name = app.name();
            let doctor = launched(app);
            let root = doctor.world.phone.ui.root();
            for id in ids {
                assert!(root.find(id).is_some(), "{name} has no view {id}");
            }
        }
    }
}
