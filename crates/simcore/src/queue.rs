//! Deterministic event queue.
//!
//! Events live in two structures:
//!
//! * an **in-order run**, a `VecDeque` of `(instant, event)` for pushes at
//!   or after the run's back instant. Most producers schedule monotonically
//!   (pipe arrivals, RLC PDU completions, RLC in-sequence exits), so their
//!   events never leave the run: a push is a `push_back` and a pop a
//!   `pop_front`, with no ordered-map traffic at all;
//! * a **bucketed map** for out-of-order pushes: a `BTreeMap` keyed by
//!   [`SimTime`] whose values are FIFO batches of same-instant events.
//!   Buckets pay the ordered-map lookup once per distinct instant and `O(1)`
//!   per event after that, and [`EventQueue::pop_due_batch`] drains a whole
//!   due instant without re-touching the map per event. Drained buckets are
//!   pooled and reused so steady-state operation performs no allocation.
//!
//! A push joins the run when the run is empty or the push is at or after
//! its back; otherwise it goes to the map. So every map entry is earlier
//! than the run's back, and the back pops last: the map is empty whenever
//! the run is. A run push therefore never lands on an instant a map entry
//! holds, so at equal instants every run entry was pushed before every map
//! entry, and popping the run first keeps push order.
//!
//! ## Determinism invariant
//!
//! * Events pop in `(time, push order)` — FIFO tie-break at equal instants,
//!   exactly like a `(SimTime, seq)` binary heap.

use crate::time::SimTime;
use std::collections::{BTreeMap, VecDeque};

/// Most buckets hold a handful of events; keep a few warm to make the
/// steady state allocation-free without hoarding memory after a burst.
const POOL_LIMIT: usize = 32;

/// A time-ordered queue of `T` with FIFO tie-breaking.
pub struct EventQueue<T> {
    /// In-order pushes, sorted by instant (see the module docs).
    run: VecDeque<(SimTime, T)>,
    /// Out-of-order pushes, bucketed by instant.
    buckets: BTreeMap<SimTime, VecDeque<T>>,
    /// Empty, capacity-retaining buckets ready for reuse.
    pool: Vec<VecDeque<T>>,
    len: usize,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            run: VecDeque::new(),
            buckets: BTreeMap::new(),
            pool: Vec::new(),
            len: 0,
        }
    }

    /// Schedule `item` to fire at `at`.
    pub fn push(&mut self, at: SimTime, item: T) {
        self.len += 1;
        if self.run.back().is_none_or(|(back, _)| at >= *back) {
            debug_assert!(!self.run.is_empty() || self.buckets.is_empty());
            self.run.push_back((at, item));
        } else {
            self.buckets
                .entry(at)
                .or_insert_with(|| self.pool.pop().unwrap_or_default())
                .push_back(item);
        }
    }

    /// Time of the earliest pending event, if any.
    pub fn next_at(&self) -> Option<SimTime> {
        let run = self.run.front().map(|(at, _)| *at);
        let map = self.buckets.keys().next().copied();
        match (run, map) {
            (Some(r), Some(m)) => Some(r.min(m)),
            (r, m) => r.or(m),
        }
    }

    /// Retire an emptied front bucket, returning its allocation to the pool.
    fn retire_front(&mut self, at: SimTime) {
        if let Some(bucket) = self.buckets.remove(&at) {
            debug_assert!(bucket.is_empty());
            if self.pool.len() < POOL_LIMIT {
                self.pool.push(bucket);
            }
        }
    }

    /// Pop the earliest event if it is due at or before `now`.
    pub fn pop_due(&mut self, now: SimTime) -> Option<(SimTime, T)> {
        let run_at = self.run.front().map(|(at, _)| *at);
        let map_at = self.buckets.keys().next().copied();
        // At equal instants the run's entries were pushed first.
        let from_run = match (run_at, map_at) {
            (Some(r), Some(m)) => r <= m,
            (r, _) => r.is_some(),
        };
        if from_run {
            let &(at, _) = self.run.front()?;
            if at > now {
                return None;
            }
            self.len -= 1;
            return self.run.pop_front();
        }
        let at = map_at?;
        if at > now {
            return None;
        }
        let bucket = self.buckets.get_mut(&at).expect("front bucket exists");
        let item = bucket.pop_front().expect("buckets are never left empty");
        self.len -= 1;
        if bucket.is_empty() {
            self.retire_front(at);
        }
        Some((at, item))
    }

    /// Drain **every** event due at or before `now` into `out`, in
    /// `(time, push order)` — the exact sequence repeated
    /// [`EventQueue::pop_due`] calls would produce. Returns the number of
    /// events appended. Whole buckets are moved at once, so a burst of
    /// same-instant timers costs one map operation instead of one per event.
    ///
    /// Use only when handling a drained event cannot schedule new work due
    /// at the same call — otherwise the late additions would be processed a
    /// settle-iteration later than with a `pop_due` loop.
    pub fn pop_due_batch(&mut self, now: SimTime, out: &mut Vec<(SimTime, T)>) -> usize {
        let start = out.len();
        loop {
            let map_at = self.buckets.keys().next().copied().filter(|&at| at <= now);
            // Run entries up to the map's front instant (inclusive: ties go
            // to the run) come first.
            let bound = map_at.unwrap_or(now);
            while self.run.front().is_some_and(|(at, _)| *at <= bound) {
                out.push(self.run.pop_front().expect("front exists"));
            }
            let Some(at) = map_at else {
                break;
            };
            let mut bucket = self.buckets.remove(&at).expect("front bucket exists");
            out.extend(bucket.drain(..).map(|item| (at, item)));
            if self.pool.len() < POOL_LIMIT {
                self.pool.push(bucket);
            }
        }
        let n = out.len() - start;
        self.len -= n;
        n
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(t(3), "c");
        q.push(t(1), "a");
        q.push(t(2), "b");
        assert_eq!(q.pop_due(t(3)).unwrap(), (t(1), "a"));
        assert_eq!(q.pop_due(t(3)).unwrap(), (t(2), "b"));
        assert_eq!(q.pop_due(t(3)).unwrap(), (t(3), "c"));
        assert!(q.pop_due(t(3)).is_none());
    }

    #[test]
    fn ties_break_in_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(t(7), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop_due(t(7)).unwrap().1, i);
        }
    }

    #[test]
    fn pop_due_respects_now() {
        let mut q = EventQueue::new();
        q.push(t(5), "later");
        q.push(t(1), "now");
        assert_eq!(q.pop_due(t(1)).unwrap().1, "now");
        assert!(q.pop_due(t(1)).is_none());
        assert_eq!(q.pop_due(t(5)).unwrap().1, "later");
    }

    #[test]
    fn next_at_reports_earliest() {
        let mut q = EventQueue::new();
        assert!(q.next_at().is_none());
        q.push(t(9), ());
        q.push(t(4), ());
        assert_eq!(q.next_at(), Some(t(4)));
    }

    #[test]
    fn len_and_clear() {
        let mut q = EventQueue::new();
        q.push(t(1), 1);
        q.push(t(2), 2);
        assert_eq!(q.len(), 2);
        assert!(!q.is_empty());
        q.pop_due_batch(t(2), &mut Vec::new());
        assert!(q.is_empty());
    }

    #[test]
    fn pop_due_batch_preserves_fifo_tie_break() {
        // Interleave pushes for two instants; the batch drain must yield
        // (time, insertion order) — exactly what a pop_due loop gives.
        let mut q = EventQueue::new();
        q.push(t(2), "b0");
        q.push(t(1), "a0");
        q.push(t(2), "b1");
        q.push(t(1), "a1");
        q.push(t(3), "late");
        q.push(t(1), "a2");
        let mut out = Vec::new();
        assert_eq!(q.pop_due_batch(t(2), &mut out), 5);
        assert_eq!(
            out,
            vec![
                (t(1), "a0"),
                (t(1), "a1"),
                (t(1), "a2"),
                (t(2), "b0"),
                (t(2), "b1"),
            ]
        );
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop_due(t(3)).unwrap(), (t(3), "late"));
    }

    #[test]
    fn pop_due_batch_matches_pop_due_loop() {
        let mut batch = EventQueue::new();
        let mut loopy = EventQueue::new();
        for i in 0..500u64 {
            let at = SimTime::from_micros((i * 7919) % 50);
            batch.push(at, i);
            loopy.push(at, i);
        }
        let now = SimTime::from_micros(25);
        let mut got = Vec::new();
        batch.pop_due_batch(now, &mut got);
        let mut expect = Vec::new();
        while let Some(e) = loopy.pop_due(now) {
            expect.push(e);
        }
        assert_eq!(got, expect);
        assert_eq!(batch.len(), loopy.len());
    }

    #[test]
    fn pop_due_batch_appends_to_existing_buffer() {
        let mut q = EventQueue::new();
        q.push(t(1), 10);
        let mut out = vec![(t(0), 99)];
        assert_eq!(q.pop_due_batch(t(1), &mut out), 1);
        assert_eq!(out, vec![(t(0), 99), (t(1), 10)]);
    }

    #[test]
    fn bucket_pool_reuse_keeps_order_correct() {
        // Exercise retire/reuse heavily: repeated same-instant bursts.
        let mut q = EventQueue::new();
        for round in 0..50u64 {
            for i in 0..8u64 {
                q.push(SimTime::from_micros(round), round * 8 + i);
            }
            let mut out = Vec::new();
            q.pop_due_batch(SimTime::from_micros(round), &mut out);
            let vals: Vec<u64> = out.iter().map(|(_, v)| *v).collect();
            let expect: Vec<u64> = (round * 8..round * 8 + 8).collect();
            assert_eq!(vals, expect);
        }
        assert!(q.is_empty());
    }
}
