//! Property-based tests for the simulation core.

use proptest::prelude::*;
use simcore::{percentile, Cdf, EventQueue, RecordLog, SimTime, Summary};

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
        mut xs in prop::collection::vec(-1e6f64..1e6, 1..100),
        p1 in 0.0f64..100.0,
        p2 in 0.0f64..100.0,
    ) {
        let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let a = percentile(&xs, p1.min(p2));
        let b = percentile(&xs, p1.max(p2));
        prop_assert!(a >= lo - 1e-9 && b <= hi + 1e-9);
        prop_assert!(a <= b + 1e-9);
        xs.sort_by(|x, y| x.partial_cmp(y).unwrap());
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
}
