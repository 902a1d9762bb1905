//! The Facebook app model.
//!
//! Captures the behaviours the paper measures:
//!
//! * **Upload post** (§7.2): status / check-in / 2-photo posts from the
//!   composer. Status and check-in use the *local echo* optimization the
//!   paper discovered (Finding 1): the item appears on the news feed after
//!   device processing only, with the network upload proceeding
//!   asynchronously — the server ACK lands outside the QoE window. Photo
//!   posts wait for the server before showing the item, so the network is on
//!   the critical path.
//! * **Pull-to-update** (§7.4): a scroll gesture shows the feed progress
//!   bar, fetches an update whose downlink size and parse cost depend on the
//!   app version — the v1.8.3 WebView feed downloads HTML/CSS (large) and
//!   parses it on the main thread (slow); the v5.0 ListView feed downloads a
//!   compact delta and renders cheaply.
//! * **Background traffic** (§7.3): a persistent push channel delivers
//!   time-sensitive friend-post notifications, and a periodic background
//!   refresh (the "refresh interval" setting) fetches non-time-sensitive
//!   recommendation content.

use std::sync::Arc;

use super::{FACEBOOK_API_HOST, FACEBOOK_POST_HOST, FACEBOOK_PUSH_HOST};
use crate::phone::{App, AppCx, UiEvent};
use crate::proto::{self, Kind};
use crate::rpc::Rpc;
use crate::ui::View;
use netstack::SockId;
use simcore::{EventQueue, SimDuration, SimTime};

/// Which Facebook release is installed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FbVersion {
    /// v1.8.3: news feed rendered in an Android WebView.
    WebView18,
    /// v5.0.0.26.31: news feed rendered in a native ListView.
    ListView50,
}

/// Status post: uplink bytes.
pub const STATUS_REQ: u64 = 2_400;
/// Check-in post: uplink bytes.
pub const CHECKIN_REQ: u64 = 3_400;
/// Photo post: uplink bytes per photo.
pub const PHOTO_REQ: u64 = 230_000;
/// Server acknowledgement size for posts.
pub const POST_RESP: u64 = 900;
/// Pull-to-update request size.
pub const FEED_REQ: u64 = 1_800;
/// Pull-to-update response size (version-dependent; WebView needs
/// HTML/CSS/layout, ListView only a compact delta — Finding 5).
pub const FEED_RESP_WEBVIEW: u64 = 26_000;
/// ListView pull-to-update response size.
pub const FEED_RESP_LISTVIEW: u64 = 5_200;
/// Background refresh: uplink bytes.
pub const BG_REQ: u64 = 1_600;
/// Background refresh: downlink bytes (non-time-sensitive content).
pub const BG_RESP: u64 = 14_500;
/// Device processing time to place a status post on the feed.
pub const PROC_STATUS: SimDuration = SimDuration::from_millis(850);
/// Device processing time for a check-in.
pub const PROC_CHECKIN: SimDuration = SimDuration::from_millis(1_000);
/// Device processing time after photo upload completes.
pub const PROC_PHOTOS: SimDuration = SimDuration::from_millis(1_900);
/// Feed-update parse/render time: WebView (iterated content fetching +
/// HTML parsing on the main thread).
pub const PROC_FEED_WEBVIEW: SimDuration = SimDuration::from_millis(900);

/// Facebook app parameters.
#[derive(Debug, Clone)]
pub struct FacebookConfig {
    /// Installed version.
    pub version: FbVersion,
    /// Background news-feed refresh interval (the settings item of
    /// Finding 4). `None` disables background refresh.
    pub refresh_interval: Option<SimDuration>,
    /// v5.0 self-updates the visible feed when a push arrives.
    pub auto_update_on_push: bool,
    /// Feed-update render time: ListView.
    pub proc_feed_listview: SimDuration,
}

impl FacebookConfig {
    /// Defaults for a version, refresh interval 1 h (the app default).
    pub fn new(version: FbVersion) -> FacebookConfig {
        FacebookConfig {
            version,
            refresh_interval: Some(SimDuration::from_hours(1)),
            auto_update_on_push: version == FbVersion::ListView50,
            proc_feed_listview: SimDuration::from_millis(240),
        }
    }

    /// The fetch stages of one feed update as `(req_bytes, resp_bytes)`.
    /// The WebView feed performs *iterated content fetching* — an HTML
    /// shell, then content, then styling assets, sequentially — which is
    /// both where its extra downlink bytes and its extra network round
    /// trips come from (Finding 5). The ListView feed is a single compact
    /// delta fetch.
    fn feed_stages(&self) -> Vec<(u64, u64)> {
        match self.version {
            FbVersion::WebView18 => {
                let total = FEED_RESP_WEBVIEW;
                vec![
                    (FEED_REQ, total * 5 / 10),
                    (900, total * 3 / 10),
                    (700, total - total * 5 / 10 - total * 3 / 10),
                ]
            }
            FbVersion::ListView50 => vec![(FEED_REQ, FEED_RESP_LISTVIEW)],
        }
    }

    fn proc_feed(&self) -> SimDuration {
        match self.version {
            FbVersion::WebView18 => PROC_FEED_WEBVIEW,
            FbVersion::ListView50 => self.proc_feed_listview,
        }
    }
}

#[derive(Debug, Clone)]
enum FbTask {
    /// Place a post on the news feed (local echo or post-upload display).
    ShowPost(String),
    /// Feed update parsed; refresh the list and hide the progress bar.
    FeedProcessed,
    /// Periodic background refresh.
    BgRefresh,
}

enum FbRpc {
    /// Async post upload; no UI effect on completion.
    PostUpload,
    /// Photo upload: show the post after completion + processing.
    PhotoUpload(String),
    /// Pull-to-update fetch; the stage index drives the WebView's iterated
    /// content fetching.
    FeedUpdate(usize),
    /// Background refresh.
    Background,
}

enum PushChannel {
    Connecting,
    Active(SockId),
}

/// The Facebook app.
pub struct FacebookApp {
    cfg: FacebookConfig,
    tasks: EventQueue<FbTask>,
    rpcs: Vec<(FbRpc, Rpc)>,
    push: Option<PushChannel>,
    composer_text: String,
    next_tag: u16,
    feed_seq: u32,
    feed_updating: bool,
    /// Pushes received (time-sensitive friend posts).
    pub pushes_received: u64,
}

impl FacebookApp {
    /// Install the app.
    pub fn new(cfg: FacebookConfig) -> FacebookApp {
        FacebookApp {
            cfg,
            tasks: EventQueue::new(),
            rpcs: Vec::new(),
            push: None,
            composer_text: String::new(),
            next_tag: 1,
            feed_seq: 0,
            feed_updating: false,
            pushes_received: 0,
        }
    }

    fn tag(&mut self) -> u16 {
        self.next_tag = self.next_tag.wrapping_add(1).max(1);
        self.next_tag
    }

    fn feed_class(&self) -> &'static str {
        match self.cfg.version {
            FbVersion::WebView18 => "android.webkit.WebView",
            FbVersion::ListView50 => "android.widget.ListView",
        }
    }

    fn begin_feed_update(&mut self, cx: &mut AppCx) {
        if self.feed_updating {
            return;
        }
        self.feed_updating = true;
        cx.ui.set_visible(cx.now, "feed_progress", true);
        let tag = self.tag();
        let (req, resp) = self.cfg.feed_stages()[0];
        let rpc = Rpc::new(FACEBOOK_API_HOST, 443, tag, req, resp);
        self.rpcs.push((FbRpc::FeedUpdate(0), rpc));
    }

    fn drive_push_channel(&mut self, cx: &mut AppCx) {
        match &self.push {
            None => {
                if let Some(ip) = cx.host.resolve(FACEBOOK_PUSH_HOST, cx.now) {
                    let s = cx.host.connect(netstack::SocketAddr::new(ip, 8883));
                    cx.host.sock_mut(s).send_marked(180, proto::subscribe(1));
                    self.push = Some(PushChannel::Active(s));
                } else {
                    self.push = Some(PushChannel::Connecting);
                }
            }
            Some(PushChannel::Connecting) => {
                if let Some(ip) = cx.host.resolve(FACEBOOK_PUSH_HOST, cx.now) {
                    let s = cx.host.connect(netstack::SocketAddr::new(ip, 8883));
                    cx.host.sock_mut(s).send_marked(180, proto::subscribe(1));
                    self.push = Some(PushChannel::Active(s));
                }
            }
            Some(PushChannel::Active(s)) => {
                let s = *s;
                let markers = cx.host.sock_mut(s).take_markers();
                for m in markers {
                    if let Some((Kind::Push, _, _)) = proto::unpack(m) {
                        self.pushes_received += 1;
                        // Time-sensitive content: v5.0 self-updates the
                        // visible feed (the §7.4 passive-update behaviour).
                        if self.cfg.auto_update_on_push {
                            self.begin_feed_update(cx);
                        }
                    }
                }
            }
        }
    }
}

impl App for FacebookApp {
    fn name(&self) -> &'static str {
        "com.facebook.katana"
    }

    fn start(&mut self, cx: &mut AppCx) {
        let feed_class = self.feed_class();
        let layout = View::new("LinearLayout", "fb_root")
            .with_child(View::new("android.widget.EditText", "composer"))
            .with_child(View::new("android.widget.Button", "post_button").with_text("Post"))
            .with_child(View::new(feed_class, "news_feed"))
            .with_child(
                View::new("android.widget.ProgressBar", "feed_progress").with_visible(false),
            );
        cx.ui.mutate(cx.now, "app:launch", |root| {
            root.children = Arc::new(vec![layout]);
        });
        // Open the persistent push channel.
        self.drive_push_channel(cx);
        // Schedule background refresh.
        if let Some(iv) = self.cfg.refresh_interval {
            self.tasks.push(cx.now + iv, FbTask::BgRefresh);
        }
    }

    fn on_ui_event(&mut self, ev: &UiEvent, cx: &mut AppCx) {
        match ev {
            UiEvent::TypeText { target, text } => {
                if target.matches(cx.ui.root().find("composer").unwrap_or(&View::new("", ""))) {
                    self.composer_text = text.clone();
                    cx.ui.set_text(cx.now, "composer", text);
                }
            }
            UiEvent::Click { target } => {
                let is_post = cx
                    .ui
                    .root()
                    .find_signature(target)
                    .is_some_and(|v| v.id == "post_button");
                if !is_post {
                    return;
                }
                let text = self.composer_text.clone();
                let tag = self.tag();
                if text.starts_with("photos:") {
                    // Photo post: upload 2 photos; the item appears only
                    // after the server acknowledges (network on the critical
                    // path).
                    let rpc = Rpc::new(FACEBOOK_POST_HOST, 443, tag, 2 * PHOTO_REQ, POST_RESP);
                    self.rpcs.push((FbRpc::PhotoUpload(text.clone()), rpc));
                } else {
                    // Status / check-in: local echo after device processing;
                    // upload proceeds asynchronously.
                    let (req, proc) = if text.starts_with("checkin:") {
                        (CHECKIN_REQ, PROC_CHECKIN)
                    } else {
                        (STATUS_REQ, PROC_STATUS)
                    };
                    let proc = cx.rng.jittered(proc, 0.10);
                    cx.cpu.app_busy += proc;
                    self.tasks
                        .push(cx.now + proc, FbTask::ShowPost(text.clone()));
                    let rpc = Rpc::new(FACEBOOK_POST_HOST, 443, tag, req, POST_RESP);
                    self.rpcs.push((FbRpc::PostUpload, rpc));
                }
            }
            UiEvent::Scroll { target } => {
                let on_feed = cx
                    .ui
                    .root()
                    .find_signature(target)
                    .is_some_and(|v| v.id == "news_feed");
                if on_feed {
                    self.begin_feed_update(cx);
                }
            }
            UiEvent::KeyEnter => {}
        }
    }

    fn tick(&mut self, cx: &mut AppCx) {
        self.drive_push_channel(cx);

        // Fire due internal tasks.
        while let Some((_, task)) = self.tasks.pop_due(cx.now) {
            match task {
                FbTask::ShowPost(text) => {
                    cx.ui.prepend_item(cx.now, "news_feed", "TextView", &text);
                }
                FbTask::FeedProcessed => {
                    self.feed_seq += 1;
                    let text = format!("friend post #{}", self.feed_seq);
                    cx.ui.prepend_item(cx.now, "news_feed", "TextView", &text);
                    cx.ui.set_visible(cx.now, "feed_progress", false);
                    self.feed_updating = false;
                }
                FbTask::BgRefresh => {
                    let tag = self.tag();
                    let rpc = Rpc::new(FACEBOOK_API_HOST, 443, tag, BG_REQ, BG_RESP);
                    self.rpcs.push((FbRpc::Background, rpc));
                    if let Some(iv) = self.cfg.refresh_interval {
                        self.tasks.push(cx.now + iv, FbTask::BgRefresh);
                    }
                }
            }
        }

        // Drive RPCs; handle completions.
        let mut completed = Vec::new();
        for (i, (_, rpc)) in self.rpcs.iter_mut().enumerate() {
            if rpc.poll(cx.host, cx.now) {
                completed.push(i);
            }
        }
        for i in completed.into_iter().rev() {
            let (kind, _rpc) = self.rpcs.remove(i);
            match kind {
                FbRpc::PostUpload | FbRpc::Background => {}
                FbRpc::PhotoUpload(text) => {
                    let proc = cx.rng.jittered(PROC_PHOTOS, 0.10);
                    cx.cpu.app_busy += proc;
                    self.tasks.push(cx.now + proc, FbTask::ShowPost(text));
                }
                FbRpc::FeedUpdate(stage) => {
                    let stages = self.cfg.feed_stages();
                    if stage + 1 < stages.len() {
                        // Iterated content fetching: next stage.
                        let (req, resp) = stages[stage + 1];
                        let tag = self.tag();
                        let rpc = Rpc::new(FACEBOOK_API_HOST, 443, tag, req, resp);
                        self.rpcs.push((FbRpc::FeedUpdate(stage + 1), rpc));
                    } else {
                        let proc = cx.rng.jittered(self.cfg.proc_feed(), 0.20);
                        cx.cpu.app_busy += proc;
                        self.tasks.push(cx.now + proc, FbTask::FeedProcessed);
                    }
                }
            }
        }
    }

    fn next_wake(&self) -> Option<SimTime> {
        // Unfinished RPCs progress on packet arrival (the phone ticks the
        // app whenever the network delivers), so only internal timers need
        // a self-scheduled wake.
        self.tasks.next_at()
    }

    /// The next feed stage's request, created after the RPC loop of one
    /// tick, is first polled by the next.
    fn follows_every_step(&self) -> bool {
        self.rpcs.iter().any(|(_, rpc)| rpc.is_fresh())
    }
}
