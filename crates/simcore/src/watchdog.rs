//! Per-job simulation watchdog.
//!
//! A campaign job that never terminates in *sim* time (a component that
//! keeps scheduling wakes forever, or a controller loop whose exit
//! condition a fault made unreachable) would hang the whole campaign:
//! wall-clock timeouts are useless because they are nondeterministic, and
//! the settle-limit assert only catches same-instant livelocks.
//!
//! The watchdog is a thread-local sim-time cap, armed by the harness while
//! a job of a campaign with a cap runs. The simulation loop reports
//! progress through [`observe`]; when the clock passes the cap the watchdog
//! panics with the [`PANIC_PREFIX`] marker, which the harness recognises
//! and classifies as a *faulted* job rather than a programming error.
//! Because the trip decision depends only on sim time, a tripped job trips
//! at exactly the same point on every rerun and under any worker count.

use crate::time::SimTime;
use std::cell::Cell;

/// Panic-message prefix for watchdog trips. The harness uses this to tell
/// "job exceeded its sim-time cap" apart from genuine panics.
pub const PANIC_PREFIX: &str = "sim-watchdog:";

thread_local! {
    static CAP: Cell<Option<SimTime>> = const { Cell::new(None) };
}

/// RAII guard for an armed watchdog; disarms on drop (including unwind).
pub struct SimGuard {
    _private: (),
}

impl Drop for SimGuard {
    fn drop(&mut self) {
        CAP.with(|c| c.set(None));
    }
}

/// Arm the watchdog on the current thread: the simulated clock may not
/// advance past `cap` until the returned guard drops.
pub fn arm(cap: SimTime) -> SimGuard {
    CAP.with(|c| c.set(Some(cap)));
    SimGuard { _private: () }
}

/// The cap armed on the current thread, if any: what a helper thread
/// re-arms so that work lent to it trips exactly where it would inline.
pub fn cap() -> Option<SimTime> {
    CAP.with(|c| c.get())
}

/// Report simulation progress. Panics with [`PANIC_PREFIX`] when the clock
/// has passed the armed cap; a no-op when the watchdog is disarmed.
pub fn observe(now: SimTime) {
    if let Some(cap) = cap() {
        if now > cap {
            panic!("{PANIC_PREFIX} sim time {now} exceeded cap {cap}");
        }
    }
}

/// True when `msg` is a watchdog trip message.
pub fn is_trip(msg: &str) -> bool {
    msg.starts_with(PANIC_PREFIX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn disarmed_watchdog_never_trips() {
        for s in 0..10_000u64 {
            observe(SimTime::from_secs(s));
        }
    }

    #[test]
    fn sim_cap_trips_past_the_cap_and_disarms_on_drop() {
        let guard = arm(SimTime::from_secs(5));
        observe(SimTime::from_secs(5)); // at the cap: fine
        let err = catch_unwind(AssertUnwindSafe(|| observe(SimTime::from_secs(6))))
            .expect_err("should trip");
        let msg = err.downcast_ref::<String>().unwrap();
        assert!(is_trip(msg), "unexpected message: {msg}");
        drop(guard);
        observe(SimTime::from_secs(100)); // disarmed again
    }
}
