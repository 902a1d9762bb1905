//! Property-based tests for the simulation core.

use proptest::prelude::*;
use simcore::{Cdf, EventQueue, RecordLog, SimDuration, SimTime, Summary, WakeCalendar};
use std::collections::BTreeSet;

/// The calendar as an ordered set of `(wake, id)` entries plus per-slot
/// wakes: the oracle for [`WakeCalendar`].
struct CalendarOracle {
    entries: BTreeSet<(SimTime, usize)>,
    wakes: Vec<Option<SimTime>>,
}

impl CalendarOracle {
    fn new(n: usize) -> CalendarOracle {
        CalendarOracle {
            entries: BTreeSet::new(),
            wakes: vec![None; n],
        }
    }

    fn set(&mut self, id: usize, wake: Option<SimTime>) {
        if let Some(t) = self.wakes[id] {
            self.entries.remove(&(t, id));
        }
        if let Some(t) = wake {
            self.entries.insert((t, id));
        }
        self.wakes[id] = wake;
    }

    fn poke(&mut self, id: usize, now: SimTime) {
        if self.wakes[id].is_none_or(|w| w > now) {
            self.set(id, Some(now));
        }
    }

    fn next(&self) -> Option<SimTime> {
        self.entries.first().map(|(t, _)| *t)
    }

    fn is_due(&self, id: usize, now: SimTime) -> bool {
        self.entries.iter().any(|&(t, i)| i == id && t <= now)
    }

    fn others(&self, id: usize) -> Option<SimTime> {
        self.entries
            .iter()
            .find(|&&(_, i)| i != id)
            .map(|(t, _)| *t)
    }

    fn due_at(&self, now: SimTime) -> Vec<(usize, SimTime)> {
        let mut due: Vec<_> = self
            .entries
            .range(..=(now, usize::MAX))
            .map(|&(t, id)| (id, t))
            .collect();
        due.sort_unstable();
        due
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The event queue pops in exactly sorted-stable order.
    #[test]
    fn event_queue_matches_stable_sort(times in prop::collection::vec(0u64..1_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, t) in times.iter().enumerate() {
            q.push(SimTime::from_micros(*t), i);
        }
        let mut expected: Vec<(u64, usize)> =
            times.iter().enumerate().map(|(i, t)| (*t, i)).collect();
        expected.sort_by_key(|(t, i)| (*t, *i)); // stable by construction order
        let mut got = Vec::new();
        while let Some((at, i)) = q.pop_due(SimTime::MAX) {
            got.push((at.as_micros(), i));
        }
        prop_assert_eq!(got, expected);
    }

    /// The event queue against an ordered `(time, push seq)` oracle, under
    /// mixed in-order and out-of-order pushes (so both the in-order run and
    /// the bucketed map hold events, often at the same instants) and
    /// interleaved `pop_due` / `pop_due_batch` drains.
    #[test]
    fn event_queue_matches_ordered_oracle(
        ops in prop::collection::vec((0u8..10, 0u64..16), 1..400),
    ) {
        let mut q = EventQueue::new();
        let mut oracle: BTreeSet<(SimTime, usize)> = BTreeSet::new();
        let mut now = SimTime::ZERO;
        let mut back = SimTime::ZERO;
        for (seq, (kind, v)) in ops.into_iter().enumerate() {
            match kind {
                // In order: at or after the latest in-order push.
                0..=3 => {
                    back = back.max(now) + SimDuration::from_micros(v % 3);
                    q.push(back, seq);
                    oracle.insert((back, seq));
                }
                // Anywhere from now on, usually before the in-order back.
                4..=5 => {
                    let at = now + SimDuration::from_micros(v);
                    q.push(at, seq);
                    oracle.insert((at, seq));
                }
                6..=7 => {
                    now += SimDuration::from_micros(v % 4);
                    let got = q.pop_due(now);
                    let want = oracle.first().copied().filter(|(at, _)| *at <= now);
                    if let Some(e) = want {
                        oracle.remove(&e);
                    }
                    prop_assert_eq!(got, want);
                }
                _ => {
                    now += SimDuration::from_micros(v % 6);
                    let mut got = vec![(SimTime::MAX, usize::MAX)];
                    let n = q.pop_due_batch(now, &mut got);
                    let mut want = vec![(SimTime::MAX, usize::MAX)];
                    while let Some(e) = oracle.first().copied().filter(|(at, _)| *at <= now) {
                        oracle.remove(&e);
                        want.push(e);
                    }
                    prop_assert_eq!(n, want.len() - 1);
                    prop_assert_eq!(got, want);
                }
            }
            prop_assert_eq!(q.len(), oracle.len());
            prop_assert_eq!(q.next_at(), oracle.first().map(|(at, _)| *at));
        }
        let mut rest = Vec::new();
        q.pop_due_batch(SimTime::MAX, &mut rest);
        prop_assert_eq!(rest, oracle.into_iter().collect::<Vec<_>>());
    }

    /// pop_due never returns events later than `now` and preserves the rest.
    #[test]
    fn pop_due_respects_deadline(
        times in prop::collection::vec(0u64..1_000, 1..100),
        deadline in 0u64..1_000,
    ) {
        let mut q = EventQueue::new();
        for t in &times {
            q.push(SimTime::from_micros(*t), *t);
        }
        let mut popped = Vec::new();
        while let Some((_, v)) = q.pop_due(SimTime::from_micros(deadline)) {
            popped.push(v);
        }
        prop_assert!(popped.iter().all(|t| *t <= deadline));
        let expected = times.iter().filter(|t| **t <= deadline).count();
        prop_assert_eq!(popped.len(), expected);
        prop_assert_eq!(q.len(), times.len() - expected);
    }

    /// Percentiles are bounded by min/max and monotone in p.
    #[test]
    fn percentile_bounds_and_monotonicity(
        xs in prop::collection::vec(-1e6f64..1e6, 1..100),
        q1 in 0.0f64..1.0,
        q2 in 0.0f64..1.0,
    ) {
        let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let c = Cdf::of(&xs);
        let a = c.quantile(q1.min(q2));
        let b = c.quantile(q1.max(q2));
        prop_assert!(a >= lo - 1e-9 && b <= hi + 1e-9);
        prop_assert!(a <= b + 1e-9);
    }

    /// Summary invariants: min <= median <= max, std_dev >= 0.
    #[test]
    fn summary_invariants(xs in prop::collection::vec(-1e5f64..1e5, 1..200)) {
        let s = Summary::of(&xs);
        prop_assert_eq!(s.n, xs.len());
        prop_assert!(s.min <= s.median + 1e-9);
        prop_assert!(s.median <= s.max + 1e-9);
        prop_assert!(s.std_dev >= 0.0);
        prop_assert!(s.mean >= s.min - 1e-9 && s.mean <= s.max + 1e-9);
    }

    /// CDF: fraction_at is monotone and hits 0/1 at the extremes.
    #[test]
    fn cdf_is_monotone(xs in prop::collection::vec(0.0f64..1e4, 1..100)) {
        let c = Cdf::of(&xs);
        let lo = c.quantile(0.0);
        let hi = c.quantile(1.0);
        prop_assert!((c.fraction_at(lo - 1.0) - 0.0).abs() < 1e-12);
        prop_assert!((c.fraction_at(hi) - 1.0).abs() < 1e-12);
        let mut prev = 0.0;
        for x in [lo, (lo + hi) / 2.0, hi] {
            let f = c.fraction_at(x);
            prop_assert!(f >= prev - 1e-12);
            prev = f;
        }
    }

    /// RecordLog windows agree with a filter over all entries.
    #[test]
    fn record_log_window_equals_filter(
        mut times in prop::collection::vec(0u64..10_000, 1..200),
        a in 0u64..10_000,
        b in 0u64..10_000,
    ) {
        times.sort_unstable();
        let mut log = RecordLog::new();
        for t in &times {
            log.push(SimTime::from_micros(*t), *t);
        }
        let (lo, hi) = (a.min(b), a.max(b));
        let w = log.window(SimTime::from_micros(lo), SimTime::from_micros(hi));
        let expected: Vec<u64> =
            times.iter().copied().filter(|t| *t >= lo && *t <= hi).collect();
        let got: Vec<u64> = w.iter().map(|e| e.record).collect();
        prop_assert_eq!(got, expected);
    }

    /// The slot-scan calendar agrees with an ordered-set oracle after every
    /// `set` and `poke`: same head, same due components, same earliest
    /// other wake per slot.
    #[test]
    fn wake_calendar_matches_an_ordered_set(
        slots in 1usize..17,
        ops in prop::collection::vec((0u8..3, 0usize..16, 0u64..64, 0u64..64), 1..120),
    ) {
        let mut cal = WakeCalendar::new(slots);
        let mut oracle = CalendarOracle::new(slots);
        for (kind, id, wake, now) in ops {
            let id = id % slots;
            let now = SimTime::from_micros(now);
            let wake = SimTime::from_micros(wake);
            match kind {
                0 => {
                    cal.set(id, Some(wake));
                    oracle.set(id, Some(wake));
                }
                1 => {
                    cal.set(id, None);
                    oracle.set(id, None);
                }
                _ => {
                    cal.poke(id, now);
                    oracle.poke(id, now);
                }
            }
            prop_assert_eq!(cal.next(), oracle.next());
            for id in 0..slots {
                prop_assert_eq!(cal.others(id), oracle.others(id));
            }
            for probe in [now, wake] {
                for id in 0..slots {
                    prop_assert_eq!(cal.is_due(id, probe), oracle.is_due(id, probe));
                }
                prop_assert_eq!(cal.due_at(probe), oracle.due_at(probe));
            }
        }
    }
}
