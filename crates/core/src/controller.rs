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
//!
//! It knows no app: views are named by the caller's [`WaitCondition`]s and
//! [`UiEvent`]s. The apps' vocabulary — the Table 1 behaviours, the
//! player's states, playback monitoring — lives in
//! [`replay`](crate::replay), and recovery from a failed attempt is the
//! caller's script, run by [`Controller::retry`].

use crate::behavior::{AppBehaviorLog, BehaviorRecord, StartKind};
use device::ui::View;
use device::world::World;
use device::UiEvent;
use simcore::{SimDuration, SimTime};
use std::fmt;
use std::marker::PhantomData;

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

/// How many attempts [`Controller::retry`] makes at most.
pub const MAX_ATTEMPTS: u32 = 3;

/// How a wait loop ended.
pub(crate) enum WaitEnd {
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
pub(crate) struct WaitOutcome {
    pass_start: SimTime,
    pass_end: SimTime,
    mean_parse: SimDuration,
    /// The last pass's snapshot: on [`WaitEnd::Met`], one the condition
    /// held on, so a caller can tell which part of an
    /// [`WaitCondition::Any`] it was.
    pub(crate) snapshot: View,
    pub(crate) end: WaitEnd,
}

impl WaitOutcome {
    pub(crate) fn met(&self) -> bool {
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
    /// Some listed condition holds (checked in listed order).
    Any(Vec<WaitCondition>),
    /// Every listed condition holds (checked in listed order).
    All(Vec<WaitCondition>),
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
            WaitCondition::Any(conds) => conds.iter().any(|c| c.holds(snapshot)),
            WaitCondition::All(conds) => conds.iter().all(|c| c.holds(snapshot)),
        }
    }
}

/// How a [`Controller`] runs its world between interactions.
pub trait Kernel {
    /// Run `world` from `now` until nothing is due at or before `target`.
    fn advance(world: &mut World, now: SimTime, target: SimTime);
}

/// The event-driven kernel: the world's wake calendar, stepped by
/// [`simcore::advance`]. The only kernel outside tests.
#[derive(Debug)]
pub enum Calendar {}

impl Kernel for Calendar {
    fn advance(world: &mut World, now: SimTime, target: SimTime) {
        simcore::advance(world, now, target);
    }
}

/// The controller: drives the world, injects interactions, measures waits.
pub struct Controller<K: Kernel = Calendar> {
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
    kernel: PhantomData<K>,
}

impl Controller {
    /// Take control of a world at t = 0.
    pub fn new(world: World) -> Controller {
        Controller::with_kernel(world)
    }
}

impl<K: Kernel> Controller<K> {
    /// Take control of a world at t = 0, running it with kernel `K`.
    pub fn with_kernel(world: World) -> Controller<K> {
        Controller {
            world,
            now: SimTime::ZERO,
            log: AppBehaviorLog::new(),
            watchdog: None,
            kernel: PhantomData,
        }
    }

    /// Builder-style watchdog configuration.
    pub fn with_watchdog(mut self, threshold: SimDuration) -> Controller<K> {
        self.watchdog = Some(threshold);
        self
    }

    /// Advance the world to `target`, processing every due event. Nothing
    /// is due by `target` afterwards, and no wake can change without a
    /// tick, so jumping the clock there leaves no work unsettled.
    pub fn advance_to(&mut self, target: SimTime) {
        assert!(target >= self.now, "time goes forward");
        K::advance(&mut self.world, self.now, target);
        self.now = target;
    }

    /// Let the scenario run for `d` (idle data collection).
    pub fn advance(&mut self, d: SimDuration) {
        self.advance_to(self.now + d);
    }

    /// Inject a UI interaction right now.
    pub fn interact(&mut self, ev: &UiEvent) {
        // Injection marks the app due now, so settling the instant runs its
        // immediate reaction (starting an RPC, resolving a name).
        self.world.phone.inject_ui(ev, self.now);
        self.advance_to(self.now);
    }

    /// Wait until `cond` holds, parsing continuously: the controller's one
    /// parse-pass loop (§4.1). Every pass runs at least once, so a caller
    /// that must not start a pass at or past its deadline checks that
    /// first. While waiting, the watchdog (if armed) tracks the layout-tree
    /// revision: a tree that stops changing for the threshold ends the wait
    /// as [`WaitEnd::Frozen`] instead of burning the rest of the timeout on
    /// a wedged app.
    ///
    /// The verdict is memoized on the observed revision: equal observed
    /// revisions mean equal snapshots, so a pass whose snapshot has the
    /// revision of the last evaluated one reuses that verdict instead of
    /// scanning the tree again. The revision read at the end of a pass is
    /// the next pass's key, since that pass starts at the same instant.
    ///
    /// A pass checks its verdict before the watchdog. The order is not
    /// observable: a true verdict ends the wait on the first pass of its
    /// revision, and `last_change` is that pass's start (the wait's entry,
    /// or the end of the pass that first read the revision), so the
    /// watchdog has seen one pass without a change and trips there only
    /// if its threshold is at most one parse cost.
    pub(crate) fn wait_for(&mut self, cond: &WaitCondition, timeout: SimTime) -> WaitOutcome {
        let mut parse_total = SimDuration::ZERO;
        let mut parses = 0u64;
        let mut last_rev = self.world.phone.ui_revision(self.now);
        let mut last_change = self.now;
        let mut memo: Option<(u64, bool)> = None;
        loop {
            // `last_rev` always holds the latest read, taken at this instant.
            let pass_rev = last_rev;
            let pass_start = self.now;
            let (snapshot, cost) = self.world.phone.parse_ui(self.now);
            parse_total += cost;
            parses += 1;
            self.advance_to(self.now + cost);
            let pass_end = self.now;
            let mean_parse = parse_total / parses;
            let met = match memo {
                Some((rev, verdict)) if rev == pass_rev => verdict,
                _ => {
                    let verdict = cond.holds(&snapshot);
                    memo = Some((pass_rev, verdict));
                    verdict
                }
            };
            let outcome = |end| WaitOutcome {
                pass_start,
                pass_end,
                mean_parse,
                snapshot,
                end,
            };
            if met {
                return outcome(WaitEnd::Met);
            }
            let rev = self.world.phone.ui_revision(self.now);
            if rev != last_rev {
                last_rev = rev;
                last_change = self.now;
            } else if let Some(threshold) = self.watchdog {
                let frozen_for = self.now.saturating_since(last_change);
                if frozen_for >= threshold {
                    return outcome(WaitEnd::Frozen { frozen_for });
                }
            }
            if pass_end >= timeout {
                return outcome(WaitEnd::TimedOut);
            }
        }
    }

    /// Log the record of the finished wait `w`, measured from `start`.
    pub(crate) fn log_wait(
        &mut self,
        action: String,
        start: SimTime,
        start_kind: StartKind,
        w: &WaitOutcome,
    ) -> BehaviorRecord {
        let record = BehaviorRecord {
            action,
            start,
            end: w.pass_end,
            start_kind,
            mean_parse: w.mean_parse,
            timed_out: !w.met(),
        };
        self.log.push(w.pass_end, record.clone());
        record
    }

    fn measure_after_inner(
        &mut self,
        action: &str,
        trigger: &UiEvent,
        cond: &WaitCondition,
        timeout: SimDuration,
    ) -> (BehaviorRecord, Option<ControlError>) {
        let start = self.now;
        self.interact(trigger);
        let w = self.wait_for(cond, start + timeout);
        let record = self.log_wait(action.to_string(), start, StartKind::Trigger, &w);
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
        (record, err)
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
    ) -> BehaviorRecord {
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
    ) -> Result<BehaviorRecord, ControlError> {
        match self.measure_after_inner(action, trigger, cond, timeout) {
            (m, None) => Ok(m),
            (_, Some(e)) => Err(e),
        }
    }

    /// Run the per-attempt script `attempt` until it succeeds, at most
    /// [`MAX_ATTEMPTS`] times (§4's resilient control loop). The script
    /// gets the controller and the attempt number, from 1; before a retry
    /// it does its own recovery (backing off, re-issuing the interactions a
    /// crashed app forgot). Returns the last attempt's result and the
    /// number of attempts made.
    pub fn retry<T>(
        &mut self,
        mut attempt: impl FnMut(&mut Self, u32) -> Result<T, ControlError>,
    ) -> (Result<T, ControlError>, u32) {
        let mut n = 1;
        loop {
            let result = attempt(self, n);
            if result.is_ok() || n == MAX_ATTEMPTS {
                return (result, n);
            }
            n += 1;
        }
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
    ) -> Option<BehaviorRecord> {
        let deadline = self.now + timeout;
        let begin_wait = self.wait_for(begin, deadline);
        if !begin_wait.met() {
            return None;
        }
        let w = self.wait_for(end_cond, deadline);
        Some(self.log_wait(
            action.to_string(),
            begin_wait.pass_start,
            StartKind::Parse,
            &w,
        ))
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
    fn any_and_all_combine_their_conditions() {
        let page = |content: &str| {
            View::new("LinearLayout", "browser_root")
                .with_child(View::new("ProgressBar", "page_progress").with_visible(false))
                .with_child(View::new("WebView", "page_content").with_text(content))
        };
        let hidden = WaitCondition::Hidden {
            id: "page_progress".into(),
        };
        let both = WaitCondition::All(vec![hidden.clone(), loaded()]);
        let either = WaitCondition::Any(vec![loaded(), hidden]);
        // A relaunched browser's blank page: the progress bar is hidden too.
        let (blank, shown) = (page(""), page(URL));
        assert!(!both.holds(&blank) && both.holds(&shown));
        assert!(either.holds(&blank) && either.holds(&shown));
        assert!(!WaitCondition::Any(vec![]).holds(&shown));
        assert!(WaitCondition::All(vec![]).holds(&blank));
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
        let (result, attempts) = doctor.retry(|doctor, attempt| {
            if attempt > 1 {
                // The relaunched browser forgot the URL: type it again.
                doctor.advance(SimDuration::from_secs(1));
            }
            doctor.interact(&type_url());
            doctor.try_measure_after(
                "page_load",
                &UiEvent::KeyEnter,
                &loaded(),
                SimDuration::from_secs(5),
            )
        });
        let m = result.expect("second attempt should succeed after relaunch");
        assert_eq!(attempts, 2);
        assert_eq!(doctor.world.phone.crashes, 1);
        assert!(!m.timed_out);
        assert!(m.calibrated() > SimDuration::ZERO);
    }

    #[test]
    fn retry_policy_exhaustion_returns_last_error() {
        let mut doctor = Controller::new(browser_world(14));
        doctor.advance(SimDuration::from_secs(1));
        // No URL is ever typed, so every attempt times out.
        let mut seen = Vec::new();
        let (result, attempts) = doctor.retry(|doctor, attempt| {
            seen.push(attempt);
            doctor.try_measure_after(
                "page_load",
                &UiEvent::KeyEnter,
                &loaded(),
                SimDuration::from_secs(2),
            )
        });
        assert!(matches!(result, Err(ControlError::Timeout { .. })));
        assert_eq!(attempts, MAX_ATTEMPTS);
        assert_eq!(seen, [1, 2, 3]);
        assert_eq!(doctor.log.iter().count(), 3);
    }
}
