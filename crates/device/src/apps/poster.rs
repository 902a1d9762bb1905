//! "Device A" — the posting peer of §7.3/§7.4.
//!
//! The paper's background-traffic experiments use two phones with mutually
//! exclusive friend lists: device A posts on a schedule, device B receives
//! the notifications. This headless app is device A: it uploads a status to
//! the Facebook write origin every `interval`, with no UI interaction
//! required. A post is the same size as the Facebook app's status post.

use std::sync::Arc;

use super::facebook::{POST_RESP, STATUS_REQ};
use super::FACEBOOK_POST_HOST;
use crate::phone::{App, AppCx, UiEvent};
use crate::rpc::Rpc;
use crate::ui::View;
use simcore::{SimDuration, SimTime};

/// Configuration for the posting peer.
#[derive(Debug, Clone)]
pub struct PosterConfig {
    /// Post period.
    pub interval: SimDuration,
}

impl PosterConfig {
    /// Post a status every `interval`.
    pub fn every(interval: SimDuration) -> PosterConfig {
        PosterConfig { interval }
    }
}

/// The posting peer app.
pub struct FacebookPoster {
    cfg: PosterConfig,
    next_post: Option<SimTime>,
    started: bool,
    rpcs: Vec<Rpc>,
    next_tag: u16,
    /// Posts uploaded so far.
    pub posts: u64,
}

impl FacebookPoster {
    /// Install the poster.
    pub fn new(cfg: PosterConfig) -> FacebookPoster {
        FacebookPoster {
            cfg,
            next_post: None,
            started: false,
            rpcs: Vec::new(),
            next_tag: 1,
            posts: 0,
        }
    }
}

impl App for FacebookPoster {
    fn name(&self) -> &'static str {
        "com.facebook.katana (device A)"
    }

    fn start(&mut self, cx: &mut AppCx) {
        cx.ui.mutate(cx.now, "app:launch", |root| {
            root.children = Arc::new(vec![View::new("LinearLayout", "poster_root")
                .with_child(View::new("TextView", "poster_status").with_text("idle"))]);
        });
        self.started = true;
        // The first post is de-phased from the receiver's timers.
        self.next_post = Some(cx.now + (self.cfg.interval / 2 + SimDuration::from_secs(7)));
    }

    fn on_ui_event(&mut self, _ev: &UiEvent, _cx: &mut AppCx) {}

    fn tick(&mut self, cx: &mut AppCx) {
        if let Some(at) = self.next_post {
            if cx.now >= at {
                self.next_tag = self.next_tag.wrapping_add(1).max(1);
                let rpc = Rpc::new(
                    FACEBOOK_POST_HOST,
                    443,
                    self.next_tag,
                    STATUS_REQ,
                    POST_RESP,
                );
                self.rpcs.push(rpc);
                self.posts += 1;
                self.next_post = Some(at + self.cfg.interval);
            }
        }
        let mut done = Vec::new();
        for (i, rpc) in self.rpcs.iter_mut().enumerate() {
            if rpc.poll(cx.host, cx.now) {
                done.push(i);
            }
        }
        for i in done.into_iter().rev() {
            self.rpcs.remove(i);
        }
    }

    fn next_wake(&self) -> Option<SimTime> {
        self.next_post
    }
}
