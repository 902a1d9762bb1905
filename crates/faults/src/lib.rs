//! # faults — deterministic cross-layer fault injection
//!
//! A [`FaultPlan`] is a seeded, fully pre-computed schedule of fault events
//! targeting any layer of a QoE Doctor world:
//!
//! * **netstack** — total link outage windows, Gilbert–Elliott burst-loss
//!   windows, latency spikes, DNS failure windows, per-server stalls;
//! * **radio** — forced 3G↔LTE tech switches mid-flow, RRC promotion
//!   failures, RLC retransmission storms;
//! * **device** — app crashes with a relaunch cost, ANR/UI-freeze windows
//!   where the observable layout tree stops updating, slow-draw windows.
//!
//! Determinism guarantees: a plan is *armed* into a freshly built
//! [`World`] before the simulation starts. Arming only
//! installs schedules into the existing components — every fault fires off
//! the simulated clock, every random decision (burst-loss transitions)
//! draws from the component's own seeded [`DetRng`](simcore::DetRng)
//! stream, and no fault consults wall-clock time. Rerunning the same seed
//! with the same plan reproduces the same packet trace, byte for byte, at
//! any worker count.
//!
//! ```
//! use faults::{FaultEvent, FaultKind, FaultPlan, Window};
//! use simcore::SimTime;
//!
//! let plan = FaultPlan::new()
//!     .with(FaultEvent::new(
//!         FaultKind::LinkOutage {
//!             window: Window::span_secs(20, 30),
//!         },
//!     ))
//!     .with(FaultEvent::new(FaultKind::AppCrash {
//!         at: SimTime::from_secs(40),
//!         relaunch: simcore::SimDuration::from_millis(2_500),
//!     }));
//! assert_eq!(plan.events().len(), 2);
//! ```

#![warn(missing_docs)]

use device::{NetAttachment, World};
use netstack::GilbertElliott;
use radio::bearer::BearerConfig;
use radio::RadioTech;
use simcore::{SimDuration, SimTime};

/// A closed-open `[from, until)` window in simulated time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Window {
    /// Window start (inclusive).
    pub from: SimTime,
    /// Window end (exclusive).
    pub until: SimTime,
}

impl Window {
    /// A window spanning `[from, until)`.
    pub fn new(from: SimTime, until: SimTime) -> Window {
        assert!(
            from < until,
            "fault window must be non-empty: {from}..{until}"
        );
        Window { from, until }
    }

    /// Convenience: whole seconds.
    pub fn span_secs(from: u64, until: u64) -> Window {
        Window::new(SimTime::from_secs(from), SimTime::from_secs(until))
    }

    /// Window length.
    pub fn len(&self) -> SimDuration {
        self.until.saturating_since(self.from)
    }

    /// Always false: construction rejects empty windows.
    pub fn is_empty(&self) -> bool {
        self.from >= self.until
    }
}

/// The layer a fault targets — also the layer a correct cross-layer
/// diagnosis should attribute the resulting QoE degradation to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultLayer {
    /// IP transport and below the servers: links, DNS, origin servers.
    Network,
    /// The cellular control/data plane: RRC, RLC.
    Radio,
    /// The handset: app process and UI pipeline.
    Device,
}

impl FaultLayer {
    /// Stable lower-case label for reports.
    pub fn label(self) -> &'static str {
        match self {
            FaultLayer::Network => "network",
            FaultLayer::Radio => "radio",
            FaultLayer::Device => "device",
        }
    }
}

/// One injectable fault.
#[derive(Debug, Clone)]
pub enum FaultKind {
    /// Total access-link outage: every packet in the window is dropped
    /// (both directions).
    LinkOutage {
        /// When the link is down.
        window: Window,
    },
    /// Burst loss: a 2-state Gilbert–Elliott channel replaces the
    /// configured i.i.d. loss inside the window (both directions).
    BurstLoss {
        /// When the channel is bursty.
        window: Window,
        /// The burst model.
        model: GilbertElliott,
    },
    /// Added propagation delay on the access path (both directions).
    LatencySpike {
        /// When the spike applies.
        window: Window,
        /// Extra one-way delay.
        extra: SimDuration,
    },
    /// The DNS resolver goes unreachable: queries in the window are lost.
    DnsOutage {
        /// When the resolver is down.
        window: Window,
    },
    /// One origin server stops responding: packets to it are dropped in
    /// the window, so established connections hang and new ones time out.
    ServerStall {
        /// The server's registered DNS name.
        server: String,
        /// When the server is unresponsive.
        window: Window,
    },
    /// Forced inter-RAT handover at `at` (no-op on WiFi attachments).
    TechSwitch {
        /// Handover instant.
        at: SimTime,
        /// Technology to switch to.
        to: RadioTech,
    },
    /// The next `count` RRC promotions fail and retry after `penalty`.
    PromotionFailure {
        /// Number of failed attempts before one succeeds.
        count: u32,
        /// Delay added per failed attempt.
        penalty: SimDuration,
    },
    /// RLC retransmission storm: elevated PDU loss on both directions
    /// inside the window (cellular attachments only).
    RlcStorm {
        /// When the air interface degrades.
        window: Window,
        /// Effective PDU loss probability inside the window.
        loss: f64,
    },
    /// The app process dies at `at` and relaunches after `relaunch`.
    AppCrash {
        /// Crash instant.
        at: SimTime,
        /// Cold-start cost before the app is back.
        relaunch: SimDuration,
    },
    /// ANR-style UI freeze: the observable layout tree stops updating for
    /// the window.
    UiFreeze {
        /// When the UI thread is wedged.
        window: Window,
    },
    /// Slow rendering: draw delays are multiplied by `factor` in the
    /// window.
    ///
    /// Note the observable surface: the layout tree still mutates
    /// immediately (the screen catches up one draw delay later), so this
    /// degrades camera-derived metrics (Speed Index, frame cadence) but
    /// does **not** move `WaitCondition`-measured UI latency. To inject a
    /// device-side latency regression, stall the UI thread
    /// ([`FaultKind::UiFreeze`]) or slow the app's processing config
    /// instead.
    SlowDraw {
        /// When rendering degrades.
        window: Window,
        /// Draw-delay multiplier (>= 1).
        factor: f64,
    },
}

impl FaultKind {
    /// The layer this fault targets.
    pub fn layer(&self) -> FaultLayer {
        match self {
            FaultKind::LinkOutage { .. }
            | FaultKind::BurstLoss { .. }
            | FaultKind::LatencySpike { .. }
            | FaultKind::DnsOutage { .. }
            | FaultKind::ServerStall { .. } => FaultLayer::Network,
            FaultKind::TechSwitch { .. }
            | FaultKind::PromotionFailure { .. }
            | FaultKind::RlcStorm { .. } => FaultLayer::Radio,
            FaultKind::AppCrash { .. }
            | FaultKind::UiFreeze { .. }
            | FaultKind::SlowDraw { .. } => FaultLayer::Device,
        }
    }

    /// Stable lower-case label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::LinkOutage { .. } => "link_outage",
            FaultKind::BurstLoss { .. } => "burst_loss",
            FaultKind::LatencySpike { .. } => "latency_spike",
            FaultKind::DnsOutage { .. } => "dns_outage",
            FaultKind::ServerStall { .. } => "server_stall",
            FaultKind::TechSwitch { .. } => "tech_switch",
            FaultKind::PromotionFailure { .. } => "promotion_failure",
            FaultKind::RlcStorm { .. } => "rlc_storm",
            FaultKind::AppCrash { .. } => "app_crash",
            FaultKind::UiFreeze { .. } => "ui_freeze",
            FaultKind::SlowDraw { .. } => "slow_draw",
        }
    }
}

/// One scheduled fault.
#[derive(Debug, Clone)]
pub struct FaultEvent {
    /// What to inject.
    pub kind: FaultKind,
}

impl FaultEvent {
    /// Wrap a [`FaultKind`].
    pub fn new(kind: FaultKind) -> FaultEvent {
        FaultEvent { kind }
    }
}

/// A deterministic schedule of fault events.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Builder: add an event.
    pub fn with(mut self, ev: FaultEvent) -> FaultPlan {
        self.events.push(ev);
        self
    }

    /// Builder: add a bare kind.
    pub fn with_kind(self, kind: FaultKind) -> FaultPlan {
        self.with(FaultEvent::new(kind))
    }

    /// The scheduled events.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// The set of layers this plan touches.
    pub fn layers(&self) -> Vec<FaultLayer> {
        let mut out = Vec::new();
        for ev in &self.events {
            let l = ev.kind.layer();
            if !out.contains(&l) {
                out.push(l);
            }
        }
        out
    }

    /// Install every event into `world`'s components. Call once, after
    /// building the world and before running it; each component then
    /// applies its windows off the simulated clock.
    pub fn arm(&self, world: &mut World) {
        for ev in &self.events {
            match &ev.kind {
                FaultKind::LinkOutage { window } => match &mut world.phone.net {
                    NetAttachment::Cell(b) => b.add_outage(window.from, window.until),
                    NetAttachment::Wifi { up, down } => {
                        up.add_outage(window.from, window.until);
                        down.add_outage(window.from, window.until);
                    }
                },
                FaultKind::BurstLoss { window, model } => match &mut world.phone.net {
                    NetAttachment::Cell(b) => b.set_burst_loss(window.from, window.until, *model),
                    NetAttachment::Wifi { up, down } => {
                        up.set_burst_loss(window.from, window.until, *model);
                        down.set_burst_loss(window.from, window.until, *model);
                    }
                },
                FaultKind::LatencySpike { window, extra } => match &mut world.phone.net {
                    NetAttachment::Cell(b) => {
                        b.add_latency_spike(window.from, window.until, *extra)
                    }
                    NetAttachment::Wifi { up, down } => {
                        up.add_latency_spike(window.from, window.until, *extra);
                        down.add_latency_spike(window.from, window.until, *extra);
                    }
                },
                FaultKind::DnsOutage { window } => {
                    world.internet.fail_dns(window.from, window.until);
                }
                FaultKind::ServerStall { server, window } => {
                    world
                        .internet
                        .stall_server(server, window.from, window.until);
                }
                FaultKind::TechSwitch { at, to } => {
                    if let NetAttachment::Cell(b) = &world.phone.net {
                        if b.tech() != *to {
                            let cfg = match to {
                                RadioTech::Umts3g => BearerConfig::umts_3g(),
                                RadioTech::Lte => BearerConfig::lte(),
                            };
                            world.phone.schedule_tech_switch(*at, cfg);
                        }
                    }
                }
                FaultKind::PromotionFailure { count, penalty } => {
                    if let NetAttachment::Cell(b) = &mut world.phone.net {
                        b.inject_promotion_failures(*count, *penalty);
                    }
                }
                FaultKind::RlcStorm { window, loss } => {
                    if let NetAttachment::Cell(b) = &mut world.phone.net {
                        b.inject_rlc_storm(window.from, window.until, *loss);
                    }
                }
                FaultKind::AppCrash { at, relaunch } => {
                    world.phone.schedule_crash(*at, *relaunch);
                }
                FaultKind::UiFreeze { window } => {
                    world.phone.ui.add_freeze(window.from, window.until);
                }
                FaultKind::SlowDraw { window, factor } => {
                    world
                        .phone
                        .ui
                        .add_slow_draw(window.from, window.until, *factor);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layers_are_classified_correctly() {
        let net = FaultKind::LinkOutage {
            window: Window::span_secs(0, 1),
        };
        let radio = FaultKind::PromotionFailure {
            count: 1,
            penalty: SimDuration::from_secs(1),
        };
        let dev = FaultKind::UiFreeze {
            window: Window::span_secs(0, 1),
        };
        assert_eq!(net.layer(), FaultLayer::Network);
        assert_eq!(radio.layer(), FaultLayer::Radio);
        assert_eq!(dev.layer(), FaultLayer::Device);
        let plan = FaultPlan::new()
            .with_kind(net)
            .with_kind(radio)
            .with_kind(dev);
        assert_eq!(
            plan.layers(),
            vec![FaultLayer::Network, FaultLayer::Radio, FaultLayer::Device]
        );
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_windows_are_rejected() {
        Window::span_secs(5, 5);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(
            FaultKind::ServerStall {
                server: "x".into(),
                window: Window::span_secs(0, 1)
            }
            .label(),
            "server_stall"
        );
        assert_eq!(FaultLayer::Radio.label(), "radio");
    }
}
