//! The Table 1 user behaviours — the paper's control specifications (§4.1).
//!
//! The paper's controller replays *user interaction sequences* that name
//! views by signature rather than coordinates. Each behaviour of Table 1
//! is one function here: it drives a [`Controller`] through the behaviour's
//! interactions and waits, and returns the [`BehaviorRecord`] it logged.
//! Pauses between behaviours (the replayed inter-action timing) stay with
//! the caller, as does video playback monitoring
//! ([`Controller::monitor_playback`]).
//!
//! The fixed action labels the analyzers filter the behaviour log on are
//! the constants below; post uploads take their label from the caller.

use crate::behavior::BehaviorRecord;
use crate::controller::{Controller, Kernel, WaitCondition};
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
                &[SEARCH_BOX, PLAYER_PROGRESS],
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
