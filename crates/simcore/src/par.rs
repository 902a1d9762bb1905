//! Fork-join help for analysis code, on idle campaign workers only.
//!
//! A campaign owns a fixed number of worker threads. Once the job list
//! runs dry, a worker that finds nothing left to take exits, and the
//! campaign hands its slot to a [`Pool`] as an idle *permit*. A job still
//! running on another worker can then lend independent parts of its work
//! to a helper thread through [`join`] or [`map`]: the helper takes a
//! permit, runs, and gives it back when it has exited. So at most as many
//! threads work at once as the campaign has workers.
//!
//! Without a permit — outside a campaign, under one worker, or while every
//! worker is busy — [`join`] runs both halves inline, left then right, on
//! the calling thread. The halves must therefore be pure functions of
//! shared (`&`) data: the result is the same whichever thread ran them,
//! which is what keeps every output byte independent of the worker count.
//! A world step never forks: the simulation itself stays single-threaded.

use std::cell::RefCell;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use crate::watchdog;

/// Idle permits of one campaign run: how many of its workers have run out
/// of jobs and may host a helper.
#[derive(Debug, Default)]
pub struct Pool {
    idle: AtomicUsize,
}

impl Pool {
    /// A pool with no idle permit yet.
    pub fn new() -> Arc<Pool> {
        Arc::new(Pool::default())
    }

    /// Add one idle permit: a worker has exited and its thread slot is
    /// free.
    pub fn release(&self) {
        self.idle.fetch_add(1, Ordering::AcqRel);
    }

    /// Idle permits not taken by a helper.
    #[cfg(test)]
    fn idle(&self) -> usize {
        self.idle.load(Ordering::Acquire)
    }

    fn try_take(self: &Arc<Pool>) -> Option<Permit> {
        self.idle
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| n.checked_sub(1))
            .ok()
            .map(|_| Permit(Arc::clone(self)))
    }
}

/// A taken idle permit; released on drop.
struct Permit(Arc<Pool>);

impl Drop for Permit {
    fn drop(&mut self) {
        self.0.release();
    }
}

thread_local! {
    static CURRENT: RefCell<Option<Arc<Pool>>> = const { RefCell::new(None) };
}

/// Guard of an installed pool; restores the previous one on drop.
pub struct Installed {
    prev: Option<Arc<Pool>>,
}

impl Drop for Installed {
    fn drop(&mut self) {
        let prev = self.prev.take();
        CURRENT.with(|c| *c.borrow_mut() = prev);
    }
}

/// Make `pool` the current thread's pool until the guard drops: the
/// [`join`]s of this thread may take its idle permits.
pub fn install(pool: Arc<Pool>) -> Installed {
    Installed {
        prev: CURRENT.with(|c| c.borrow_mut().replace(pool)),
    }
}

fn current() -> Option<Arc<Pool>> {
    CURRENT.with(|c| c.borrow().clone())
}

/// Run `a` and `b`, and return both results.
///
/// `b` runs on a helper thread when an idle permit of the current thread's
/// [`Pool`] is free; otherwise `a` runs and then `b`, inline. A helper
/// runs under the caller's pool (so it may fork in turn) and the caller's
/// [`watchdog`] cap. A panic in `b` is resumed on the caller once `a` has
/// returned; a panic in `a` wins over one in `b`, as it would inline.
/// The permit is given back only after the helper thread has exited, so
/// the next helper can reuse the memory it freed.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA,
    B: FnOnce() -> RB + Send,
    RB: Send,
{
    let Some(pool) = current() else {
        return (a(), b());
    };
    let Some(permit) = pool.try_take() else {
        return (a(), b());
    };
    let cap = watchdog::cap();
    let ran = std::thread::scope(|scope| {
        let helper = scope.spawn(move || {
            let _pool = install(pool);
            let _cap = cap.map(watchdog::arm);
            b()
        });
        let ra = a();
        (ra, helper.join())
    });
    drop(permit);
    match ran {
        (ra, Ok(rb)) => (ra, rb),
        (_, Err(payload)) => resume_unwind(payload),
    }
}

/// `f` of every item, in input order.
///
/// The items are halved recursively through [`join`], so a permit that
/// frees up while the first halves run is still used by a later split.
/// Without a pool this is a plain in-order loop.
pub fn map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    fn halves<T: Sync, R: Send, F: Fn(&T) -> R + Sync>(items: &[T], f: &F) -> Vec<R> {
        if items.len() <= 1 {
            return items.iter().map(f).collect();
        }
        let (left, right) = items.split_at(items.len() / 2);
        let (mut out, tail) = join(|| halves(left, f), || halves(right, f));
        out.extend(tail);
        out
    }
    if current().is_none() {
        return items.iter().map(f).collect();
    }
    halves(items, &f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::thread::{self, ThreadId};

    fn ids() -> (ThreadId, ThreadId) {
        join(|| thread::current().id(), || thread::current().id())
    }

    #[test]
    fn without_a_pool_join_stays_on_the_calling_thread() {
        let me = thread::current().id();
        assert_eq!(ids(), (me, me));
    }

    #[test]
    fn a_pool_without_permits_runs_inline_in_order() {
        let _pool = install(Pool::new());
        let me = thread::current().id();
        assert_eq!(ids(), (me, me));
        let step = AtomicUsize::new(0);
        let next = || step.fetch_add(1, Ordering::SeqCst);
        assert_eq!(join(next, next), (0, 1), "left, then right");
    }

    #[test]
    fn an_idle_permit_lends_a_helper_and_comes_back() {
        let pool = Pool::new();
        pool.release();
        let _installed = install(Arc::clone(&pool));
        let me = thread::current().id();
        let (a, b) = join(
            || {
                assert_eq!(pool.idle(), 0, "the helper holds the permit");
                thread::current().id()
            },
            || {
                // The helper forks under the caller's pool, which has no
                // permit left: inline on the helper.
                let (x, y) = ids();
                assert_eq!(x, y);
                x
            },
        );
        assert_eq!(a, me);
        assert_ne!(b, me);
        assert_eq!(pool.idle(), 1);
    }

    #[test]
    fn helper_panic_resumes_on_the_caller() {
        let pool = Pool::new();
        pool.release();
        let _installed = install(Arc::clone(&pool));
        let err = catch_unwind(AssertUnwindSafe(|| {
            join(|| 1, || -> u32 { panic!("helper went wrong") })
        }))
        .expect_err("the helper's panic reaches the caller");
        assert_eq!(err.downcast_ref::<&str>(), Some(&"helper went wrong"));
        assert_eq!(pool.idle(), 1, "the permit comes back after a panic");
    }

    #[test]
    fn helper_runs_under_the_callers_watchdog_cap() {
        let pool = Pool::new();
        pool.release();
        let _installed = install(pool);
        let _cap = watchdog::arm(SimTime::from_secs(5));
        let err = catch_unwind(AssertUnwindSafe(|| {
            join(|| (), || watchdog::observe(SimTime::from_secs(6)))
        }))
        .expect_err("the helper trips the caller's cap");
        let msg = err.downcast_ref::<String>().expect("trip message");
        assert!(watchdog::is_trip(msg), "unexpected message: {msg}");
    }

    #[test]
    fn map_keeps_input_order_at_every_length() {
        let pool = Pool::new();
        pool.release();
        pool.release();
        let _installed = install(pool);
        for n in 0..=17u64 {
            let items: Vec<u64> = (0..n).collect();
            let out = map(&items, |&i| i * i + 1);
            assert_eq!(out, items.iter().map(|&i| i * i + 1).collect::<Vec<_>>());
        }
    }
}
