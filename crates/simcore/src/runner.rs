//! Event-driven simulation loop.
//!
//! Components are passive state machines in the smoltcp style: each one
//! knows *when* it next has work and performs all work due at the current
//! instant when ticked. A scenario composes its components into one root
//! ([`Tick`]) that keeps their wakes in a [`WakeCalendar`], and [`advance`]
//! moves the shared clock from calendar head to calendar head. At each
//! instant the root is ticked once per settle step; a step runs only the
//! components that are due, and a component that hands work to another
//! (a packet crossing a zero-cost boundary) re-registers the receiver, so
//! the calendar's head is exact after every step and is read once per step.

use crate::time::SimTime;
use std::fmt::Write as _;

/// A simulation root driven by [`advance`].
pub trait Tick {
    /// Run every component due at or before `now`, and return the instant
    /// the step ended at: `now`, or a later instant no later than `target`
    /// when the root ran a component's own later wakes inside the step
    /// because nothing else had work before them (see DESIGN §7 "Kernel:
    /// wake calendar"). [`advance`] moves its clock there.
    fn tick(&mut self, now: SimTime, target: SimTime) -> SimTime;

    /// Earliest instant at which some component next has work, or `None`
    /// when idle. May return instants `<= now` while same-instant work
    /// remains. Only a tick (or [`Tick::resync`]) changes it.
    fn next_wake(&self) -> Option<SimTime>;

    /// Re-read every component's wake. [`advance`] calls this once on entry,
    /// because callers may mutate components directly between runs (inject a
    /// fault, queue a UI event) without going through the root.
    fn resync(&mut self) {}

    /// The components due at `now`, for the livelock panic.
    fn due_report(&self, now: SimTime) -> String {
        format!("next wake {:?} at {now}", self.next_wake())
    }
}

/// Combine two optional wake times into the earlier one.
pub fn earlier(a: Option<SimTime>, b: Option<SimTime>) -> Option<SimTime> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x.min(y)),
        (x, None) => x,
        (None, y) => y,
    }
}

/// Maximum number of same-instant settle steps before the runner declares a
/// livelock. Generous; real cascades settle in a handful.
const SETTLE_LIMIT: u32 = 100_000;

/// Run `root` from `now` until nothing is due at or before `target`.
/// Returns the instant the last step ended at (`now` if none ran).
///
/// Panics when one instant needs more than a generous number of steps (a
/// component that keeps asking for same-instant work); the message lists
/// the components due at the stuck instant.
pub fn advance<T: Tick + ?Sized>(root: &mut T, mut now: SimTime, target: SimTime) -> SimTime {
    root.resync();
    let mut settles = 0u32;
    while let Some(wake) = root.next_wake() {
        if wake > target {
            break;
        }
        if wake > now {
            now = wake;
            settles = 0;
        }
        crate::watchdog::observe(now);
        let ended = root.tick(now, target);
        if ended > now {
            now = ended;
            settles = 0;
        }
        settles += 1;
        if settles >= SETTLE_LIMIT {
            panic!(
                "livelock at {now}: components keep requesting work: {}",
                root.due_report(now)
            );
        }
    }
    now
}

/// Run `root` from t = 0 until the clock would pass `end` or the system goes
/// idle. Returns the time of the last processed instant.
pub fn run_until<T: Tick + ?Sized>(root: &mut T, end: SimTime) -> SimTime {
    advance(root, SimTime::ZERO, end)
}

/// Dense id of a component registered in a [`WakeCalendar`]. Ids double as
/// the run order at one instant: a root ticks due components by ascending
/// id.
pub type ComponentId = usize;

/// One wake slot per component.
///
/// Each component registers the instant it next has work, and the head of
/// the calendar is the next instant the root must tick. The calendar holds
/// wakes only: a component is due when its wake has come. A root that must
/// also run a component before its wake (DESIGN §7 "Kernel: wake calendar":
/// a device world's apps that follow every step) decides that itself.
///
/// Registration is one store and the head is a scan over the slots. That
/// is sized for today's worlds, 4 × phones + servers + 1 slots (under a
/// dozen), where the scan beats keeping an ordered set in step; many-phone
/// worlds (ROADMAP item 4's multi-UE cells) should revisit it.
#[derive(Debug, Default, Clone)]
pub struct WakeCalendar {
    wakes: Vec<Option<SimTime>>,
}

impl WakeCalendar {
    /// A calendar for `n` components, all idle.
    pub fn new(n: usize) -> WakeCalendar {
        WakeCalendar {
            wakes: vec![None; n],
        }
    }

    /// Number of component slots.
    pub fn len(&self) -> usize {
        self.wakes.len()
    }

    /// True when the calendar has no component slots.
    pub fn is_empty(&self) -> bool {
        self.wakes.is_empty()
    }

    /// Register `id`'s next wake, replacing its previous one.
    pub fn set(&mut self, id: ComponentId, wake: Option<SimTime>) {
        self.wakes[id] = wake;
    }

    /// Make `id` due at `now` unless it already is (a handoff to it).
    pub fn poke(&mut self, id: ComponentId, now: SimTime) {
        if !self.is_due(id, now) {
            self.wakes[id] = Some(now);
        }
    }

    /// True when `id`'s wake has come by `now`.
    pub fn is_due(&self, id: ComponentId, now: SimTime) -> bool {
        self.wakes[id].is_some_and(|w| w <= now)
    }

    /// The head: the earliest registered wake.
    pub fn next(&self) -> Option<SimTime> {
        self.wakes.iter().flatten().min().copied()
    }

    /// The earliest registered wake among every slot but `id`.
    pub fn others(&self, id: ComponentId) -> Option<SimTime> {
        let before = self.wakes[..id].iter().flatten().min();
        let after = self.wakes[id + 1..].iter().flatten().min();
        earlier(before.copied(), after.copied())
    }

    /// Every component due at `now`, by id, with its wake.
    pub fn due_at(&self, now: SimTime) -> Vec<(ComponentId, SimTime)> {
        self.wakes
            .iter()
            .enumerate()
            .filter_map(|(id, w)| w.filter(|w| *w <= now).map(|w| (id, w)))
            .collect()
    }

    /// Render [`WakeCalendar::due_at`] with a name per component.
    pub fn report(&self, now: SimTime, name: impl Fn(ComponentId) -> String) -> String {
        let mut out = String::new();
        for (id, wake) in self.due_at(now) {
            if !out.is_empty() {
                out.push_str(", ");
            }
            write!(out, "{} (wake {wake})", name(id)).expect("write to String");
        }
        if out.is_empty() {
            out.push_str("nothing due");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::EventQueue;
    use crate::time::{SimDuration, SimTime};

    /// A toy component: fires at fixed intervals, recording fire times, and
    /// on each Nth fire schedules an immediate same-instant follow-up.
    struct Periodic {
        q: EventQueue<&'static str>,
        fired: Vec<(SimTime, &'static str)>,
    }

    impl Tick for Periodic {
        fn tick(&mut self, now: SimTime, _target: SimTime) -> SimTime {
            while let Some((at, tag)) = self.q.pop_due(now) {
                self.fired.push((at, tag));
                if tag == "main" {
                    // Same-instant cascade.
                    self.q.push(now, "follow");
                    if self.fired.iter().filter(|(_, t)| *t == "main").count() < 3 {
                        self.q.push(now + SimDuration::from_secs(1), "main");
                    }
                }
            }
            now
        }
        fn next_wake(&self) -> Option<SimTime> {
            self.q.next_at()
        }
    }

    #[test]
    fn runs_periodic_events_with_cascades() {
        let mut p = Periodic {
            q: EventQueue::new(),
            fired: Vec::new(),
        };
        p.q.push(SimTime::from_secs(1), "main");
        let last = run_until(&mut p, SimTime::from_secs(100));
        assert_eq!(last, SimTime::from_secs(3));
        let tags: Vec<_> = p.fired.iter().map(|(_, t)| *t).collect();
        assert_eq!(
            tags,
            vec!["main", "follow", "main", "follow", "main", "follow"]
        );
    }

    #[test]
    fn stops_at_end_time() {
        let mut p = Periodic {
            q: EventQueue::new(),
            fired: Vec::new(),
        };
        p.q.push(SimTime::from_secs(5), "late");
        let last = run_until(&mut p, SimTime::from_secs(2));
        assert_eq!(last, SimTime::ZERO);
        assert!(p.fired.is_empty());
        assert_eq!(p.next_wake(), Some(SimTime::from_secs(5)));
    }

    #[test]
    fn advance_resumes_from_a_later_instant() {
        let mut p = Periodic {
            q: EventQueue::new(),
            fired: Vec::new(),
        };
        p.q.push(SimTime::from_secs(1), "main");
        let now = SimTime::from_millis(1500);
        let last = advance(&mut p, now, SimTime::from_secs(2));
        // The overdue event runs at the current instant; its successor, due
        // a second later, lies past the target.
        assert_eq!(last, now);
        assert_eq!(
            p.fired,
            vec![(SimTime::from_secs(1), "main"), (now, "follow")]
        );
        assert_eq!(p.next_wake(), Some(now + SimDuration::from_secs(1)));
    }

    /// A component that runs its own later wakes inside one step, up to
    /// the target, as a root with a private run does.
    struct Batched {
        wakes: Vec<SimTime>,
        ran: Vec<SimTime>,
    }

    impl Tick for Batched {
        fn tick(&mut self, now: SimTime, target: SimTime) -> SimTime {
            let mut at = now;
            while let Some(&w) = self.wakes.first() {
                if w > target {
                    break;
                }
                at = at.max(w);
                self.ran.push(at);
                self.wakes.remove(0);
            }
            at
        }
        fn next_wake(&self) -> Option<SimTime> {
            self.wakes.first().copied()
        }
    }

    #[test]
    fn advance_moves_its_clock_to_the_instant_a_step_ended_at() {
        let secs = |s: &[u64]| s.iter().map(|&s| SimTime::from_secs(s)).collect::<Vec<_>>();
        let mut b = Batched {
            wakes: secs(&[1, 2, 3, 9]),
            ran: Vec::new(),
        };
        let last = advance(&mut b, SimTime::ZERO, SimTime::from_secs(5));
        assert_eq!(last, SimTime::from_secs(3));
        assert_eq!(b.ran, secs(&[1, 2, 3]));
        assert_eq!(b.next_wake(), Some(SimTime::from_secs(9)));
    }

    struct Spinner;
    impl Tick for Spinner {
        fn tick(&mut self, now: SimTime, _target: SimTime) -> SimTime {
            now
        }
        fn next_wake(&self) -> Option<SimTime> {
            Some(SimTime::ZERO)
        }
        fn due_report(&self, _now: SimTime) -> String {
            "spinner (wake 0)".into()
        }
    }

    #[test]
    #[should_panic(expected = "livelock at 0.000000s: components keep requesting work: spinner")]
    fn livelock_panic_lists_due_components() {
        run_until(&mut Spinner, SimTime::from_secs(1));
    }

    #[test]
    fn earlier_combines() {
        let a = Some(SimTime::from_secs(1));
        let b = Some(SimTime::from_secs(2));
        assert_eq!(earlier(a, b), a);
        assert_eq!(earlier(None, b), b);
        assert_eq!(earlier(a, None), a);
        assert_eq!(earlier(None, None), None);
    }

    #[test]
    fn calendar_head_tracks_reregistration() {
        let mut cal = WakeCalendar::new(3);
        assert_eq!(cal.next(), None);
        cal.set(0, Some(SimTime::from_secs(5)));
        cal.set(2, Some(SimTime::from_secs(3)));
        assert_eq!(cal.next(), Some(SimTime::from_secs(3)));
        cal.set(2, Some(SimTime::from_secs(7)));
        assert_eq!(cal.next(), Some(SimTime::from_secs(5)));
        cal.set(0, None);
        assert_eq!(cal.next(), Some(SimTime::from_secs(7)));
        cal.poke(1, SimTime::from_secs(4));
        assert_eq!(cal.next(), Some(SimTime::from_secs(4)));
        // A poke never delays an earlier wake.
        cal.poke(1, SimTime::from_secs(6));
        assert!(cal.is_due(1, SimTime::from_secs(4)));
        let now = SimTime::from_secs(5);
        assert_eq!(cal.due_at(now), vec![(1, SimTime::from_secs(4))]);
        let report = cal.report(now, |id| format!("c{id}"));
        assert_eq!(report, "c1 (wake 4.000000s)");
    }

    #[test]
    fn others_skips_one_slot() {
        let mut cal = WakeCalendar::new(3);
        assert_eq!(cal.others(0), None);
        cal.set(0, Some(SimTime::from_secs(1)));
        cal.set(1, Some(SimTime::from_secs(4)));
        cal.set(2, Some(SimTime::from_secs(2)));
        assert_eq!(cal.others(0), Some(SimTime::from_secs(2)));
        assert_eq!(cal.others(2), Some(SimTime::from_secs(1)));
        cal.set(2, None);
        assert_eq!(cal.others(0), Some(SimTime::from_secs(4)));
        assert_eq!(cal.others(2), Some(SimTime::from_secs(1)));
    }
}
