//! Web browser app models (Chrome, Firefox, stock "Internet").
//!
//! Replays the §4.2.3 behaviour: the controller types a URL into the URL
//! bar and presses ENTER; the page progress bar appears, the browser fetches
//! the HTML and then the page's sub-resources over a bounded pool of
//! parallel connections, renders, and the progress bar disappears — the
//! controller's page-load-time window.

use std::sync::Arc;

use crate::phone::{App, AppCx, UiEvent};
use crate::rpc::Rpc;
use crate::ui::View;
use simcore::{EventQueue, SimDuration, SimTime};

/// Main HTML document size of the test page.
pub const HTML_BYTES: u64 = 58_000;
/// Number of sub-resources (images, scripts, CSS) on the test page.
pub const SUB_COUNT: u32 = 8;
/// Bytes per sub-resource.
pub const SUB_BYTES: u64 = 16_000;
/// Request header size per fetch.
pub const REQ_BYTES: u64 = 900;

/// Browser parameters. Page weight is a property of the page, so it is
/// fixed above; connection handling is a property of the browser.
#[derive(Debug, Clone)]
pub struct BrowserConfig {
    /// Browser product name.
    pub name: &'static str,
    /// Maximum parallel connections.
    pub parallel: u32,
    /// Render time after the last resource arrives.
    pub render_delay: SimDuration,
}

impl BrowserConfig {
    /// Google Chrome.
    pub fn chrome() -> BrowserConfig {
        BrowserConfig {
            name: "chrome",
            parallel: 6,
            render_delay: SimDuration::from_millis(220),
        }
    }

    /// Mozilla Firefox.
    pub fn firefox() -> BrowserConfig {
        BrowserConfig {
            name: "firefox",
            parallel: 5,
            render_delay: SimDuration::from_millis(260),
        }
    }

    /// The stock Android browser ("Internet").
    pub fn stock() -> BrowserConfig {
        BrowserConfig {
            name: "internet",
            parallel: 4,
            render_delay: SimDuration::from_millis(320),
        }
    }
}

enum LoadState {
    Idle,
    Html(Rpc),
    Subs {
        active: Vec<Rpc>,
        remaining: u32,
        host_name: String,
    },
    Rendering,
}

enum BrowserTask {
    RenderDone,
}

/// A browser app.
pub struct BrowserApp {
    cfg: BrowserConfig,
    url_text: String,
    state: LoadState,
    tasks: EventQueue<BrowserTask>,
    next_tag: u16,
    /// Pages fully loaded.
    pub pages_loaded: u64,
}

impl BrowserApp {
    /// Install the browser.
    pub fn new(cfg: BrowserConfig) -> BrowserApp {
        BrowserApp {
            cfg,
            url_text: String::new(),
            state: LoadState::Idle,
            tasks: EventQueue::new(),
            next_tag: 1,
            pages_loaded: 0,
        }
    }

    fn tag(&mut self) -> u16 {
        self.next_tag = self.next_tag.wrapping_add(1).max(1);
        self.next_tag
    }

    fn host_of(url: &str) -> String {
        let stripped = url
            .strip_prefix("http://")
            .or_else(|| url.strip_prefix("https://"));
        let rest = stripped.unwrap_or(url);
        rest.split('/').next().unwrap_or(rest).to_string()
    }

    fn spawn_sub(&mut self, host_name: &str) -> Rpc {
        let tag = self.tag();
        Rpc::new(host_name, 80, tag, REQ_BYTES, SUB_BYTES)
    }
}

impl App for BrowserApp {
    fn name(&self) -> &'static str {
        self.cfg.name
    }

    fn start(&mut self, cx: &mut AppCx) {
        let layout = View::new("LinearLayout", "browser_root")
            .with_child(View::new("android.widget.EditText", "url_bar"))
            .with_child(
                View::new("android.widget.ProgressBar", "page_progress").with_visible(false),
            )
            .with_child(View::new("android.webkit.WebView", "page_content"));
        cx.ui.mutate(cx.now, "app:launch", |root| {
            root.children = Arc::new(vec![layout]);
        });
    }

    fn on_ui_event(&mut self, ev: &UiEvent, cx: &mut AppCx) {
        match ev {
            UiEvent::TypeText { target, text } => {
                if target.id == "url_bar" {
                    self.url_text = text.clone();
                    cx.ui.set_text(cx.now, "url_bar", text);
                }
            }
            UiEvent::KeyEnter => {
                if self.url_text.is_empty() {
                    return;
                }
                let host_name = Self::host_of(&self.url_text);
                cx.ui.set_visible(cx.now, "page_progress", true);
                let tag = self.tag();
                let rpc = Rpc::new(&host_name, 80, tag, REQ_BYTES, HTML_BYTES);
                self.state = LoadState::Html(rpc);
            }
            _ => {}
        }
    }

    fn tick(&mut self, cx: &mut AppCx) {
        while let Some((_, BrowserTask::RenderDone)) = self.tasks.pop_due(cx.now) {
            self.pages_loaded += 1;
            cx.ui.set_visible(cx.now, "page_progress", false);
            let url = self.url_text.clone();
            cx.ui.set_text(cx.now, "page_content", &url);
            self.state = LoadState::Idle;
        }
        let state = core::mem::replace(&mut self.state, LoadState::Idle);
        self.state = match state {
            LoadState::Idle => LoadState::Idle,
            LoadState::Rendering => LoadState::Rendering,
            LoadState::Html(mut rpc) => {
                if rpc.poll(cx.host, cx.now) {
                    let host_name = Self::host_of(&self.url_text);
                    let first_wave = self.cfg.parallel.min(SUB_COUNT);
                    let active: Vec<Rpc> = (0..first_wave)
                        .map(|_| self.spawn_sub(&host_name))
                        .collect();
                    LoadState::Subs {
                        active,
                        remaining: SUB_COUNT - first_wave,
                        host_name,
                    }
                } else {
                    LoadState::Html(rpc)
                }
            }
            LoadState::Subs {
                mut active,
                mut remaining,
                host_name,
            } => {
                let mut done_idx = Vec::new();
                for (i, rpc) in active.iter_mut().enumerate() {
                    if rpc.poll(cx.host, cx.now) {
                        done_idx.push(i);
                    }
                }
                let finished = done_idx.len() as u32;
                for i in done_idx.into_iter().rev() {
                    active.remove(i);
                }
                let refill = finished.min(remaining);
                remaining -= refill;
                for _ in 0..refill {
                    let sub = self.spawn_sub(&host_name);
                    active.push(sub);
                }
                if active.is_empty() && remaining == 0 {
                    let d = cx.rng.jittered(self.cfg.render_delay, 0.2);
                    cx.cpu.app_busy += d;
                    self.tasks.push(cx.now + d, BrowserTask::RenderDone);
                    LoadState::Rendering
                } else {
                    LoadState::Subs {
                        active,
                        remaining,
                        host_name,
                    }
                }
            }
        };
    }

    fn next_wake(&self) -> Option<SimTime> {
        self.tasks.next_at()
    }

    /// Sub-resource requests spawned by one tick are first polled by the
    /// next, whenever that comes.
    fn follows_every_step(&self) -> bool {
        match &self.state {
            LoadState::Html(rpc) => rpc.is_fresh(),
            LoadState::Subs { active, .. } => active.iter().any(Rpc::is_fresh),
            LoadState::Idle | LoadState::Rendering => false,
        }
    }

    fn reset(&mut self) {
        self.url_text.clear();
        self.state = LoadState::Idle;
        self.tasks = EventQueue::new();
        self.next_tag = 1;
    }
}
