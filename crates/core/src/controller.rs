//! The QoE-aware UI controller (§4).
//!
//! Follows the paper's *see–interact–wait* paradigm: the controller runs in
//! the app's process, injects UI interactions, and measures user-perceived
//! latency by parsing the UI layout tree in a tight loop — each parse pass
//! costs `t_parsing` of CPU, and the wait ends when the pass that observed
//! the wait-ending UI change completes (Fig. 4). Every measurement lands in
//! the [`AppBehaviorLog`].
//!
//! The controller owns the [`World`] and is the experiment's clock: it
//! advances simulated time while interleaving its own parsing work, exactly
//! as the real tool shares the device with the app under test.

use crate::behavior::{AppBehaviorLog, BehaviorRecord, StartKind};
use device::ui::View;
use device::world::World;
use device::UiEvent;
use simcore::{SimDuration, SimTime, Tick};
use std::fmt;

/// A structured failure from a measured wait: instead of silently returning
/// a timed-out measurement, the controller diagnoses *why* the wait did not
/// complete. The underlying [`BehaviorRecord`] is still appended to the log
/// (with `timed_out` set), so a failed wait never loses data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ControlError {
    /// The UI kept updating but the wait condition never held.
    Timeout {
        /// The action being measured.
        action: String,
        /// How long the controller waited.
        waited: SimDuration,
    },
    /// The layout tree stopped updating entirely: the watchdog saw no
    /// revision change for at least the configured threshold — the app is
    /// frozen (ANR), not slow.
    UiFrozen {
        /// The action being measured.
        action: String,
        /// How long the layout tree had been frozen when the watchdog fired.
        frozen_for: SimDuration,
    },
}

impl fmt::Display for ControlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ControlError::Timeout { action, waited } => {
                write!(f, "{action}: no UI response within {waited}")
            }
            ControlError::UiFrozen { action, frozen_for } => {
                write!(f, "{action}: layout tree frozen for {frozen_for}")
            }
        }
    }
}

impl std::error::Error for ControlError {}

/// Bounded-retry policy for [`Controller::measure_with_retry`]: how many
/// attempts, how long to back off between them (doubling each time), and
/// whether to force an app relaunch as the recovery action.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts (including the first). Must be at least 1.
    pub max_attempts: u32,
    /// Pause before the first retry; doubles after every failed attempt.
    pub backoff: SimDuration,
    /// If set, force-relaunch the app (with this relaunch cost) before each
    /// retry — the paper's recovery path for a crashed or wedged app.
    pub relaunch: Option<SimDuration>,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 3,
            backoff: SimDuration::from_secs(2),
            relaunch: None,
        }
    }
}

/// How a wait loop ended.
enum WaitEnd {
    /// The condition held.
    Met,
    /// The deadline passed while the UI was still updating.
    TimedOut,
    /// The watchdog saw no layout-tree revision change for the threshold.
    Frozen {
        /// Time since the last observed revision change.
        frozen_for: SimDuration,
    },
}

/// Everything a wait loop learned.
struct WaitOutcome {
    pass_start: SimTime,
    pass_end: SimTime,
    mean_parse: SimDuration,
    end: WaitEnd,
}

impl WaitOutcome {
    fn met(&self) -> bool {
        matches!(self.end, WaitEnd::Met)
    }
}

/// A UI condition the wait component watches for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WaitCondition {
    /// Some view's text in `container`'s subtree contains `needle`
    /// (e.g. the timestamped post string appearing in the news feed).
    TextAppears {
        /// Subtree root id.
        container: String,
        /// Needle to search for.
        needle: String,
    },
    /// The view `id` became visible (progress bar appears).
    Shown {
        /// View id.
        id: String,
    },
    /// The view `id` became invisible (progress bar disappears).
    Hidden {
        /// View id.
        id: String,
    },
    /// The view `id`'s text equals `value` (player status).
    TextIs {
        /// View id.
        id: String,
        /// Expected text.
        value: String,
    },
}

impl WaitCondition {
    /// Evaluate against a snapshot.
    pub fn holds(&self, snapshot: &View) -> bool {
        match self {
            WaitCondition::TextAppears { container, needle } => snapshot
                .find(container)
                .is_some_and(|v| v.any_text_contains(needle)),
            WaitCondition::Shown { id } => snapshot.find(id).is_some_and(|v| v.visible),
            WaitCondition::Hidden { id } => snapshot.find(id).is_some_and(|v| !v.visible),
            WaitCondition::TextIs { id, value } => {
                snapshot.find(id).is_some_and(|v| &v.text == value)
            }
        }
    }
}

/// The outcome of one measured wait.
#[derive(Debug, Clone)]
pub struct Measured {
    /// The record appended to the behaviour log.
    pub record: BehaviorRecord,
}

/// A summary of a monitored video playback (initial loading handled
/// separately via [`Controller::measure_after`]).
#[derive(Debug, Clone, Default)]
pub struct PlaybackReport {
    /// Total stall time after initial loading.
    pub stall: SimDuration,
    /// Total playing + stalling time after initial loading.
    pub span: SimDuration,
    /// Number of rebuffering events.
    pub stalls: u32,
    /// Whether the video reached the finished state within the timeout.
    pub finished: bool,
    /// Whether the UI watchdog cut monitoring short because the layout
    /// tree froze — a diagnosed device-layer fault, not a network stall.
    pub ui_frozen: bool,
}

impl PlaybackReport {
    /// The paper's rebuffering ratio: stall time over play + stall time.
    pub fn rebuffering_ratio(&self) -> f64 {
        let span = self.span.as_secs_f64();
        if span <= 0.0 {
            0.0
        } else {
            self.stall.as_secs_f64() / span
        }
    }
}

/// The controller: drives the world, injects interactions, measures waits.
pub struct Controller {
    /// The scenario under control.
    pub world: World,
    /// Current simulated time.
    pub now: SimTime,
    /// The behaviour log.
    pub log: AppBehaviorLog,
    /// UI watchdog threshold: if set, a wait aborts with
    /// [`ControlError::UiFrozen`] once the layout-tree revision has not
    /// changed for this long. `None` (the default) disables the watchdog
    /// and preserves the plain timeout behaviour.
    pub watchdog: Option<SimDuration>,
}

impl Controller {
    /// Take control of a world at t = 0.
    pub fn new(world: World) -> Controller {
        Controller {
            world,
            now: SimTime::ZERO,
            log: AppBehaviorLog::new(),
            watchdog: None,
        }
    }

    /// Builder-style watchdog configuration.
    pub fn with_watchdog(mut self, threshold: SimDuration) -> Controller {
        self.watchdog = Some(threshold);
        self
    }

    /// Advance the world to `target`, processing every due event.
    pub fn advance_to(&mut self, target: SimTime) {
        assert!(target >= self.now, "time goes forward");
        loop {
            // Settle work at the current instant.
            let mut settles = 0;
            while self.world.next_wake().is_some_and(|w| w <= self.now) {
                simcore::watchdog::observe(self.now);
                self.world.tick(self.now);
                settles += 1;
                assert!(
                    settles < 100_000,
                    "livelock at {}: {}",
                    self.now,
                    self.world.wake_report()
                );
            }
            match self.world.next_wake() {
                Some(w) if w <= target => self.now = w,
                // Nothing is due by `target`, and `next_wake` cannot change
                // before the next tick: jumping the clock there leaves no
                // work unsettled.
                _ => break,
            }
        }
        self.now = target;
    }

    /// Let the scenario run for `d` (idle data collection).
    pub fn advance(&mut self, d: SimDuration) {
        self.advance_to(self.now + d);
    }

    /// Inject a UI interaction right now.
    pub fn interact(&mut self, ev: &UiEvent) {
        self.world.phone.inject_ui(ev, self.now);
        // Force one tick so the app's immediate reaction (starting an RPC,
        // resolving a name) registers with the network stack, then settle.
        self.world.tick(self.now);
        self.advance_to(self.now);
    }

    /// One parse pass: returns the snapshot (taken at pass start) and
    /// advances time by the parse cost.
    pub fn parse_once(&mut self) -> View {
        let (snapshot, cost) = self.world.phone.parse_ui(self.now);
        self.advance_to(self.now + cost);
        snapshot
    }

    /// Wait until `cond` holds, parsing continuously. While waiting, the
    /// watchdog (if armed) tracks the layout-tree revision: a tree that
    /// stops changing for the threshold ends the wait as [`WaitEnd::Frozen`]
    /// instead of burning the rest of the timeout on a wedged app.
    fn wait_for(&mut self, cond: &WaitCondition, timeout: SimTime) -> WaitOutcome {
        let mut parse_total = SimDuration::ZERO;
        let mut parses = 0u64;
        let mut last_rev = self.world.phone.ui_revision(self.now);
        let mut last_change = self.now;
        loop {
            let pass_start = self.now;
            let (snapshot, cost) = self.world.phone.parse_ui(self.now);
            parse_total += cost;
            parses += 1;
            self.advance_to(self.now + cost);
            let pass_end = self.now;
            let mean_parse = parse_total / parses;
            if cond.holds(&snapshot) {
                return WaitOutcome {
                    pass_start,
                    pass_end,
                    mean_parse,
                    end: WaitEnd::Met,
                };
            }
            let rev = self.world.phone.ui_revision(self.now);
            if rev != last_rev {
                last_rev = rev;
                last_change = self.now;
            } else if let Some(threshold) = self.watchdog {
                let frozen_for = self.now.saturating_since(last_change);
                if frozen_for >= threshold {
                    return WaitOutcome {
                        pass_start,
                        pass_end,
                        mean_parse,
                        end: WaitEnd::Frozen { frozen_for },
                    };
                }
            }
            if pass_end >= timeout {
                return WaitOutcome {
                    pass_start,
                    pass_end,
                    mean_parse,
                    end: WaitEnd::TimedOut,
                };
            }
        }
    }

    fn measure_after_inner(
        &mut self,
        action: &str,
        trigger: &UiEvent,
        cond: &WaitCondition,
        timeout: SimDuration,
    ) -> (Measured, Option<ControlError>) {
        let start = self.now;
        self.interact(trigger);
        let deadline = start + timeout;
        let w = self.wait_for(cond, deadline);
        let record = BehaviorRecord {
            action: action.to_string(),
            start,
            end: w.pass_end,
            start_kind: StartKind::Trigger,
            mean_parse: w.mean_parse,
            timed_out: !w.met(),
        };
        self.log.push(w.pass_end, record.clone());
        let err = match w.end {
            WaitEnd::Met => None,
            WaitEnd::TimedOut => Some(ControlError::Timeout {
                action: action.to_string(),
                waited: record.raw(),
            }),
            WaitEnd::Frozen { frozen_for } => Some(ControlError::UiFrozen {
                action: action.to_string(),
                frozen_for,
            }),
        };
        (Measured { record }, err)
    }

    /// Measure a trigger-started latency: inject `trigger`, then wait for
    /// `cond`. Records and returns the measurement (Table 1's
    /// "press button → UI response" rows). Failures are folded into the
    /// record's `timed_out` flag; use [`Controller::try_measure_after`] for
    /// a structured error instead.
    pub fn measure_after(
        &mut self,
        action: &str,
        trigger: &UiEvent,
        cond: &WaitCondition,
        timeout: SimDuration,
    ) -> Measured {
        self.measure_after_inner(action, trigger, cond, timeout).0
    }

    /// Like [`Controller::measure_after`], but distinguishes *how* a wait
    /// failed: a plain deadline miss ([`ControlError::Timeout`]) versus a
    /// frozen layout tree caught by the watchdog
    /// ([`ControlError::UiFrozen`]). The behaviour record is logged either
    /// way.
    pub fn try_measure_after(
        &mut self,
        action: &str,
        trigger: &UiEvent,
        cond: &WaitCondition,
        timeout: SimDuration,
    ) -> Result<Measured, ControlError> {
        match self.measure_after_inner(action, trigger, cond, timeout) {
            (m, None) => Ok(m),
            (_, Some(e)) => Err(e),
        }
    }

    /// Measure with bounded retries and recovery (§4's resilient control
    /// loop): each attempt re-issues the `setup` interactions (e.g.
    /// re-typing a URL a crashed app forgot) and the `trigger`, and failed
    /// attempts optionally force-relaunch the app before backing off
    /// (doubling the pause each time). Returns the first successful
    /// measurement and the attempt count, or the last error once the
    /// policy is exhausted.
    pub fn measure_with_retry(
        &mut self,
        action: &str,
        setup: &[UiEvent],
        trigger: &UiEvent,
        cond: &WaitCondition,
        timeout: SimDuration,
        policy: &RetryPolicy,
    ) -> Result<(Measured, u32), ControlError> {
        assert!(policy.max_attempts >= 1, "at least one attempt");
        let mut backoff = policy.backoff;
        let mut last_err = None;
        for attempt in 1..=policy.max_attempts {
            for ev in setup {
                self.interact(ev);
            }
            match self.try_measure_after(action, trigger, cond, timeout) {
                Ok(m) => return Ok((m, attempt)),
                Err(e) => {
                    last_err = Some(e);
                    if attempt == policy.max_attempts {
                        break;
                    }
                    if let Some(cost) = policy.relaunch {
                        self.world.phone.force_relaunch(self.now, cost);
                        self.advance(cost);
                    }
                    self.advance(backoff);
                    backoff = backoff.mul_f64(2.0);
                }
            }
        }
        Err(last_err.expect("no attempt ran"))
    }

    /// Measure an app-triggered span: wait for `begin`, then for `end`
    /// (Table 1's "progress bar appears → disappears" rows). Returns `None`
    /// if `begin` never held within the timeout.
    pub fn measure_span(
        &mut self,
        action: &str,
        begin: &WaitCondition,
        end_cond: &WaitCondition,
        timeout: SimDuration,
    ) -> Option<Measured> {
        let deadline = self.now + timeout;
        let begin_wait = self.wait_for(begin, deadline);
        if !begin_wait.met() {
            return None;
        }
        let w = self.wait_for(end_cond, deadline);
        let record = BehaviorRecord {
            action: action.to_string(),
            start: begin_wait.pass_start,
            end: w.pass_end,
            start_kind: StartKind::Parse,
            mean_parse: w.mean_parse,
            timed_out: !w.met(),
        };
        self.log.push(w.pass_end, record.clone());
        Some(Measured { record })
    }

    /// Monitor a video that has finished initial loading: record every
    /// rebuffering span until the player reports `finished` (or timeout).
    /// Rebuffer spans are logged as `"{action}:rebuffer"` records.
    pub fn monitor_playback(&mut self, action: &str, timeout: SimDuration) -> PlaybackReport {
        let playback_start = self.now;
        let deadline = self.now + timeout;
        let mut report = PlaybackReport::default();
        let finished = WaitCondition::TextIs {
            id: "player_status".into(),
            value: "finished".into(),
        };
        let stalled = WaitCondition::TextIs {
            id: "player_status".into(),
            value: "rebuffering".into(),
        };
        let mut last_rev = self.world.phone.ui_revision(self.now);
        let mut last_change = self.now;
        loop {
            // Wait for either a stall or the end; the watchdog cuts the
            // monitor short if the layout tree stops updating (a frozen
            // player would otherwise read as one endless "playing" state).
            let mut timed_out = true;
            while self.now < deadline {
                let snapshot = self.parse_once();
                let rev = self.world.phone.ui_revision(self.now);
                if rev != last_rev {
                    last_rev = rev;
                    last_change = self.now;
                } else if let Some(threshold) = self.watchdog {
                    if self.now.saturating_since(last_change) >= threshold {
                        report.ui_frozen = true;
                        break;
                    }
                }
                if finished.holds(&snapshot) {
                    report.finished = true;
                    timed_out = false;
                    break;
                }
                if stalled.holds(&snapshot) {
                    timed_out = false;
                    break;
                }
            }
            if report.finished || report.ui_frozen || timed_out {
                break;
            }
            // In a stall: measure it.
            let stall_start = self.now;
            let playing = WaitCondition::Hidden {
                id: "player_progress".into(),
            };
            let w = self.wait_for(&playing, deadline);
            let record = BehaviorRecord {
                action: format!("{action}:rebuffer"),
                start: stall_start,
                end: w.pass_end,
                start_kind: StartKind::Parse,
                mean_parse: w.mean_parse,
                timed_out: !w.met(),
            };
            self.log.push(w.pass_end, record.clone());
            report.stall += record.calibrated();
            report.stalls += 1;
            match w.end {
                WaitEnd::Met => {
                    last_rev = self.world.phone.ui_revision(self.now);
                    last_change = self.now;
                }
                WaitEnd::TimedOut => break,
                WaitEnd::Frozen { .. } => {
                    report.ui_frozen = true;
                    break;
                }
            }
        }
        // Log the whole session as a `"{action}:playback"` summary record
        // so an offline analyzer can reconstruct the report (span, finish
        // state, and — via the `:rebuffer` records inside the span — the
        // stall total) from the behaviour log alone. `mean_parse` is zero:
        // the span is bounded by controller-side instants, not UI parses.
        self.log.push(
            self.now,
            BehaviorRecord {
                action: format!("{action}:playback"),
                start: playback_start,
                end: self.now,
                start_kind: StartKind::Parse,
                mean_parse: SimDuration::ZERO,
                timed_out: !report.finished,
            },
        );
        report.span = self.now.saturating_since(playback_start);
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use device::apps::{BrowserApp, BrowserConfig};
    use device::{Internet, NetAttachment, Phone, RpcServer, ViewSignature, World};
    use netstack::dns::DNS_PORT;
    use netstack::{IpAddr, SocketAddr};
    use simcore::DetRng;

    const URL: &str = "http://www.example.com/";

    fn browser_world(seed: u64) -> World {
        let mut rng = DetRng::seed_from_u64(seed);
        let resolver = SocketAddr::new(IpAddr::new(8, 8, 8, 8), DNS_PORT);
        let mut internet = Internet::new(resolver, rng.fork(1));
        internet.add_server(
            "www.example.com",
            IpAddr::new(93, 184, 0, 1),
            Box::new(RpcServer::new(&[80])),
        );
        let phone = Phone::new(
            IpAddr::new(10, 0, 0, 1),
            resolver,
            NetAttachment::wifi(&mut rng),
            Box::new(BrowserApp::new(BrowserConfig::chrome())),
            rng.fork(2),
        );
        World::new(phone, internet)
    }

    fn type_url() -> UiEvent {
        UiEvent::TypeText {
            target: ViewSignature::by_id("url_bar"),
            text: URL.into(),
        }
    }

    fn loaded() -> WaitCondition {
        WaitCondition::TextIs {
            id: "page_content".into(),
            value: URL.into(),
        }
    }

    #[test]
    fn timeout_yields_structured_error_and_still_logs() {
        let mut doctor = Controller::new(browser_world(11));
        doctor.advance(SimDuration::from_secs(1));
        // ENTER without a URL: nothing ever loads.
        let err = doctor
            .try_measure_after(
                "page_load",
                &UiEvent::KeyEnter,
                &loaded(),
                SimDuration::from_secs(2),
            )
            .unwrap_err();
        match &err {
            ControlError::Timeout { action, waited } => {
                assert_eq!(action, "page_load");
                assert!(*waited >= SimDuration::from_secs(2));
            }
            other => panic!("expected Timeout, got {other:?}"),
        }
        let records: Vec<_> = doctor.log.iter().collect();
        assert_eq!(records.len(), 1);
        assert!(records[0].1.timed_out);
    }

    #[test]
    fn watchdog_flags_frozen_layout_tree_early() {
        let mut doctor =
            Controller::new(browser_world(12)).with_watchdog(SimDuration::from_secs(1));
        doctor.advance(SimDuration::from_secs(1));
        doctor
            .world
            .phone
            .ui
            .add_freeze(doctor.now, SimTime::from_secs(300));
        doctor.interact(&type_url());
        let err = doctor
            .try_measure_after(
                "page_load",
                &UiEvent::KeyEnter,
                &loaded(),
                SimDuration::from_secs(60),
            )
            .unwrap_err();
        match &err {
            ControlError::UiFrozen { action, frozen_for } => {
                assert_eq!(action, "page_load");
                assert!(*frozen_for >= SimDuration::from_secs(1));
                assert!(format!("{err}").contains("frozen"));
            }
            other => panic!("expected UiFrozen, got {other:?}"),
        }
        // The watchdog fired well before the 60 s timeout would have.
        assert!(doctor.now < SimTime::from_secs(10));
    }

    #[test]
    fn retry_recovers_from_an_app_crash() {
        let mut doctor = Controller::new(browser_world(13));
        doctor.advance(SimDuration::from_secs(1));
        // Crash mid-load, well before the render delay can complete.
        doctor.world.phone.schedule_crash(
            doctor.now + SimDuration::from_millis(100),
            SimDuration::from_secs(1),
        );
        let policy = RetryPolicy {
            max_attempts: 3,
            backoff: SimDuration::from_secs(1),
            relaunch: None,
        };
        let (m, attempts) = doctor
            .measure_with_retry(
                "page_load",
                &[type_url()],
                &UiEvent::KeyEnter,
                &loaded(),
                SimDuration::from_secs(5),
                &policy,
            )
            .expect("second attempt should succeed after relaunch");
        assert_eq!(attempts, 2);
        assert_eq!(doctor.world.phone.crashes, 1);
        assert!(!m.record.timed_out);
        assert!(m.record.calibrated() > SimDuration::ZERO);
    }

    #[test]
    fn retry_policy_exhaustion_returns_last_error() {
        let mut doctor = Controller::new(browser_world(14));
        doctor.advance(SimDuration::from_secs(1));
        // No URL is ever typed, so every attempt times out.
        let policy = RetryPolicy {
            max_attempts: 2,
            backoff: SimDuration::from_millis(500),
            relaunch: Some(SimDuration::from_secs(1)),
        };
        let err = doctor
            .measure_with_retry(
                "page_load",
                &[],
                &UiEvent::KeyEnter,
                &loaded(),
                SimDuration::from_secs(2),
                &policy,
            )
            .unwrap_err();
        assert!(matches!(err, ControlError::Timeout { .. }));
        // The relaunch recovery action ran between the attempts.
        assert_eq!(doctor.world.phone.crashes, 1);
        assert_eq!(doctor.log.iter().count(), 2);
    }
}
