//! Campaign specification and the work-sharing parallel executor.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use simcore::watchdog;
use simcore::{SimDuration, SimTime};

/// A job's work: called with the attempt number (1-based), it either
/// produces a row or fails softly with `Err(reason)`.
type Attempts<T> = Box<dyn FnMut(u32) -> Result<T, String> + Send>;

/// One cell of a campaign grid: a labelled, seeded unit of work producing a
/// result row of type `T`. Every job has the same shape: an attempt budget
/// and a closure that the executor calls once per attempt until it yields
/// a row or the budget runs out. The closure builds and runs its own
/// simulation world — jobs share nothing, which is what makes the campaign
/// order-independent and therefore safely parallel.
pub struct Job<T> {
    /// Human-readable label, unique within the campaign (e.g. `"lte/wv"`).
    pub label: String,
    /// Seed the job's world is built from.
    pub seed: u64,
    /// Simulated duration covered by this job, if known up front (seconds).
    pub sim_secs: Option<f64>,
    max_attempts: u32,
    run: Attempts<T>,
}

/// How a job ended.
#[derive(Debug)]
pub enum Outcome<T> {
    /// The job ran to completion on the first attempt and produced a row.
    Ok(T),
    /// The job produced a row, but only after one or more failed attempts
    /// (a fault-injection campaign's "recovered" case).
    Retried {
        /// The row the successful attempt produced.
        row: T,
        /// Total attempts, including the successful one (≥ 2).
        attempts: u32,
    },
    /// Every attempt failed softly (an `Err` from a fallible job, or a
    /// sim-watchdog trip): the job is recorded — with the last failure
    /// reason — instead of poisoning the campaign.
    Faulted {
        /// Reason from the last failed attempt.
        reason: String,
        /// Attempts made.
        attempts: u32,
    },
    /// The job panicked with a non-watchdog panic; the payload is the panic
    /// message. A panicking job is reported, not propagated — the rest of
    /// the campaign still runs.
    Panicked(String),
}

impl<T> Outcome<T> {
    /// The row, if the job produced one (first try or after retries).
    pub fn ok(&self) -> Option<&T> {
        match self {
            Outcome::Ok(v) | Outcome::Retried { row: v, .. } => Some(v),
            Outcome::Faulted { .. } | Outcome::Panicked(_) => None,
        }
    }

    /// Whether the job produced a row.
    pub fn is_ok(&self) -> bool {
        self.ok().is_some()
    }
}

/// A finished job: the spec's identity fields plus outcome and timing.
/// `wall` is host wall-clock and therefore nondeterministic; it goes to the
/// JSON journal only, never to stdout rows.
#[derive(Debug)]
pub struct JobResult<T> {
    /// Label copied from the [`Job`].
    pub label: String,
    /// Seed copied from the [`Job`].
    pub seed: u64,
    /// Simulated duration copied from the [`Job`].
    pub sim_secs: Option<f64>,
    /// Host wall-clock time the job took (nondeterministic).
    pub wall: Duration,
    /// The row, or how the job failed.
    pub outcome: Outcome<T>,
}

/// A named grid of [`Job`]s. Build with [`Campaign::job`], execute with
/// [`Campaign::run`].
pub struct Campaign<T> {
    /// Campaign name; becomes the JSON report's file stem.
    pub name: String,
    jobs: Vec<Job<T>>,
    sim_cap: Option<SimTime>,
    event_budget: Option<u64>,
    /// Shared record/analyze counters when this campaign was lowered from a
    /// [`crate::StagedCampaign`]; snapshotted into the run.
    pub(crate) stage_counters: Option<std::sync::Arc<crate::staged::StageCounters>>,
}

impl<T: Send> Campaign<T> {
    /// Empty campaign.
    pub fn new(name: impl Into<String>) -> Campaign<T> {
        Campaign {
            name: name.into(),
            jobs: Vec::new(),
            sim_cap: None,
            event_budget: None,
            stage_counters: None,
        }
    }

    /// Arm a per-job simulated-time watchdog: any attempt whose simulation
    /// clock passes `cap` is aborted (via [`simcore::watchdog`]) and the
    /// attempt counts as failed — a runaway job can never hang the
    /// campaign. The cap is simulated time, so it trips deterministically.
    pub fn sim_cap(&mut self, cap: SimDuration) -> &mut Self {
        self.sim_cap = Some(SimTime::ZERO + cap);
        self
    }

    /// Arm a per-job event budget: an attempt that ticks more than `budget`
    /// times is aborted the same way as a sim-time cap. Catches livelocks
    /// that spin without advancing the clock.
    pub fn event_budget(&mut self, budget: u64) -> &mut Self {
        self.event_budget = Some(budget);
        self
    }

    /// Append a single-attempt job. Jobs run in any order but their results
    /// always come back in append order. A sim-watchdog trip makes the job
    /// [`Outcome::Faulted`]; any other panic makes it [`Outcome::Panicked`].
    pub fn job(
        &mut self,
        label: impl Into<String>,
        seed: u64,
        run: impl FnOnce() -> T + Send + 'static,
    ) -> &mut Self {
        let mut run = Some(run);
        self.push(label.into(), seed, None, 1, move |_| {
            Ok(run.take().expect("single-attempt job ran twice")())
        })
    }

    /// Append a fault-aware job: the closure receives the attempt number
    /// (starting at 1) and may fail softly by returning `Err(reason)`. The
    /// executor retries up to `max_attempts` times; success after a failure
    /// becomes [`Outcome::Retried`], exhaustion becomes
    /// [`Outcome::Faulted`]. Sim-watchdog trips count as soft failures;
    /// any other panic is still terminal for the job.
    pub fn fallible_job(
        &mut self,
        label: impl Into<String>,
        seed: u64,
        max_attempts: u32,
        run: impl FnMut(u32) -> Result<T, String> + Send + 'static,
    ) -> &mut Self {
        self.push(label.into(), seed, None, max_attempts, run)
    }

    /// Append a job, optionally stamped with the simulated duration it
    /// covers (recorded in the run journal). Every public constructor and
    /// every staged lowering ends here.
    pub(crate) fn push(
        &mut self,
        label: String,
        seed: u64,
        sim_secs: Option<f64>,
        max_attempts: u32,
        run: impl FnMut(u32) -> Result<T, String> + Send + 'static,
    ) -> &mut Self {
        assert!(max_attempts >= 1, "at least one attempt");
        self.jobs.push(Job {
            label,
            seed,
            sim_secs,
            max_attempts,
            run: Box::new(run),
        });
        self
    }

    /// Number of jobs in the grid.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether the grid is empty.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Execute every job on up to `workers` scoped threads and return the
    /// results **in job order**, whatever order they finished in.
    ///
    /// Workers pull the next unclaimed job index from a shared atomic
    /// cursor (work-sharing: a free worker always takes the next job, so an
    /// uneven grid balances itself). Each attempt runs under `catch_unwind`
    /// with the campaign's sim watchdog armed; failures become
    /// [`Outcome::Faulted`] / [`Outcome::Panicked`] for that slot and the
    /// campaign carries on. Because jobs are independent, retries are
    /// job-local, and slots are positional, the returned sequence — and
    /// anything printed from it — is identical for `workers = 1` and
    /// `workers = N`.
    pub fn run(self, workers: usize) -> CampaignRun<T> {
        let Campaign {
            name,
            jobs,
            sim_cap,
            event_budget,
            stage_counters,
        } = self;
        let n = jobs.len();
        let workers = workers.max(1).min(n.max(1));
        let started = Instant::now();

        // Spec slots the workers take from; result slots they fill.
        let pending: Vec<Mutex<Option<Job<T>>>> =
            jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
        let done: Vec<Mutex<Option<JobResult<T>>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let cursor = AtomicUsize::new(0);

        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let idx = cursor.fetch_add(1, Ordering::Relaxed);
                    if idx >= n {
                        break;
                    }
                    let Job {
                        label,
                        seed,
                        sim_secs,
                        max_attempts,
                        run,
                    } = pending[idx]
                        .lock()
                        .unwrap()
                        .take()
                        .expect("job claimed twice");
                    let t0 = Instant::now();
                    let outcome = execute(max_attempts, run, sim_cap, event_budget);
                    *done[idx].lock().unwrap() = Some(JobResult {
                        label,
                        seed,
                        sim_secs,
                        wall: t0.elapsed(),
                        outcome,
                    });
                });
            }
        });

        CampaignRun {
            name,
            workers,
            wall: started.elapsed(),
            jobs: done
                .into_iter()
                .map(|slot| slot.into_inner().unwrap().expect("job never ran"))
                .collect(),
            stages: stage_counters.map(|c| c.snapshot()),
        }
    }
}

/// One guarded attempt: watchdog armed for its duration, panics caught.
fn attempt<T>(
    run: impl FnOnce() -> T,
    sim_cap: Option<SimTime>,
    event_budget: Option<u64>,
) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(|| {
        let _guard = watchdog::arm(sim_cap, event_budget);
        run()
    }))
    .map_err(|payload| panic_message(payload.as_ref()))
}

/// Run a job's attempts until one yields a row or the budget runs out.
fn execute<T>(
    max_attempts: u32,
    mut run: Attempts<T>,
    sim_cap: Option<SimTime>,
    event_budget: Option<u64>,
) -> Outcome<T> {
    let mut last_reason = String::new();
    for att in 1..=max_attempts {
        match attempt(|| run(att), sim_cap, event_budget) {
            Ok(Ok(row)) if att == 1 => return Outcome::Ok(row),
            Ok(Ok(row)) => return Outcome::Retried { row, attempts: att },
            Ok(Err(reason)) => last_reason = reason,
            // A watchdog trip is a *diagnosed* fault (the attempt overran
            // its sim budget), not a bug in the job.
            Err(msg) if watchdog::is_trip(&msg) => last_reason = msg,
            Err(msg) => return Outcome::Panicked(msg),
        }
    }
    Outcome::Faulted {
        reason: last_reason,
        attempts: max_attempts,
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// A completed campaign: every [`JobResult`] in job order, plus overall
/// wall-clock and the worker count used.
#[derive(Debug)]
pub struct CampaignRun<T> {
    /// Campaign name.
    pub name: String,
    /// Worker threads actually used.
    pub workers: usize,
    /// Wall-clock for the whole campaign (nondeterministic).
    pub wall: Duration,
    /// Per-job results, in job (not completion) order.
    pub jobs: Vec<JobResult<T>>,
    /// Record/analyze stage statistics when the campaign was lowered from a
    /// [`crate::StagedCampaign`]; `None` for plain campaigns.
    pub stages: Option<crate::staged::StageStats>,
}

impl<T> CampaignRun<T> {
    /// Rows of all jobs in job order, resuming the first panic if any job
    /// failed. This restores pre-harness semantics for callers (tests,
    /// library users) that treat any failure as a bug rather than a data
    /// point.
    pub fn into_outputs(self) -> Vec<T> {
        self.jobs
            .into_iter()
            .map(|j| match j.outcome {
                Outcome::Ok(v) | Outcome::Retried { row: v, .. } => v,
                Outcome::Faulted { reason, attempts } => {
                    panic!(
                        "job {} faulted after {attempts} attempts: {reason}",
                        j.label
                    )
                }
                Outcome::Panicked(msg) => panic!("job {} panicked: {msg}", j.label),
            })
            .collect()
    }

    /// Number of jobs whose outcome is [`Outcome::Panicked`].
    pub fn failed(&self) -> usize {
        self.jobs
            .iter()
            .filter(|j| matches!(j.outcome, Outcome::Panicked(_)))
            .count()
    }

    /// Number of jobs whose outcome is [`Outcome::Faulted`].
    pub fn faulted(&self) -> usize {
        self.jobs
            .iter()
            .filter(|j| matches!(j.outcome, Outcome::Faulted { .. }))
            .count()
    }

    /// Number of jobs that recovered after at least one failed attempt.
    pub fn retried(&self) -> usize {
        self.jobs
            .iter()
            .filter(|j| matches!(j.outcome, Outcome::Retried { .. }))
            .count()
    }
}

/// Number of workers to use when the user doesn't say: the host's available
/// parallelism, or 1 if that can't be determined.
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use simcore::{run_until, Tick};

    #[test]
    fn results_come_back_in_job_order() {
        let mut c: Campaign<usize> = Campaign::new("order");
        for i in 0..32 {
            // Earlier jobs sleep longer so completion order inverts job order.
            c.job(format!("j{i}"), i as u64, move || {
                std::thread::sleep(Duration::from_micros((32 - i) as u64 * 50));
                i
            });
        }
        let run = c.run(4);
        assert_eq!(run.workers, 4);
        let rows: Vec<usize> = run.into_outputs();
        assert_eq!(rows, (0..32).collect::<Vec<_>>());
    }

    #[test]
    fn single_worker_matches_many() {
        let build = || {
            let mut c: Campaign<u64> = Campaign::new("det");
            for i in 0..9u64 {
                c.job(format!("j{i}"), i, move || i * i + 1);
            }
            c
        };
        let a = build().run(1);
        let b = build().run(4);
        let key = |r: &CampaignRun<u64>| {
            r.jobs
                .iter()
                .map(|j| (j.label.clone(), j.seed, *j.outcome.ok().unwrap()))
                .collect::<Vec<_>>()
        };
        assert_eq!(key(&a), key(&b));
    }

    #[test]
    fn panic_becomes_failed_job_not_abort() {
        let mut c: Campaign<u32> = Campaign::new("panic");
        c.job("ok-a", 1, || 10);
        c.job("boom", 2, || panic!("deliberate test panic"));
        c.job("ok-b", 3, || 30);
        let run = c.run(2);
        assert_eq!(run.failed(), 1);
        assert_eq!(run.jobs[0].outcome.ok(), Some(&10));
        assert!(matches!(
            &run.jobs[1].outcome,
            Outcome::Panicked(msg) if msg.contains("deliberate test panic")
        ));
        assert_eq!(run.jobs[2].outcome.ok(), Some(&30));
        assert_eq!(rows(&run), vec![10, 30]);
    }

    #[test]
    fn zero_workers_clamps_to_one() {
        let mut c: Campaign<u8> = Campaign::new("clamp");
        c.job("only", 7, || 42);
        let run = c.run(0);
        assert_eq!(run.workers, 1);
        assert_eq!(run.into_outputs(), vec![42]);
    }

    #[test]
    fn empty_campaign_runs() {
        let c: Campaign<u8> = Campaign::new("empty");
        assert!(c.is_empty());
        let run = c.run(8);
        assert!(run.jobs.is_empty());
    }

    #[test]
    fn fallible_job_retries_then_recovers() {
        let mut c: Campaign<u32> = Campaign::new("retry");
        c.fallible_job("flaky", 1, 3, |attempt| {
            if attempt < 3 {
                Err(format!("injected failure on attempt {attempt}"))
            } else {
                Ok(99)
            }
        });
        c.fallible_job("steady", 2, 3, |_| Ok(7));
        let run = c.run(2);
        assert_eq!(run.retried(), 1);
        assert!(matches!(
            run.jobs[0].outcome,
            Outcome::Retried {
                row: 99,
                attempts: 3
            }
        ));
        assert!(matches!(run.jobs[1].outcome, Outcome::Ok(7)));
        assert_eq!(rows(&run), vec![99, 7]);
    }

    #[test]
    fn fallible_job_exhaustion_is_faulted_not_panicked() {
        let mut c: Campaign<u32> = Campaign::new("exhaust");
        c.fallible_job("doomed", 1, 2, |attempt| {
            Err(format!("attempt {attempt} failed"))
        });
        c.job("fine", 2, || 5);
        let run = c.run(1);
        assert_eq!(run.faulted(), 1);
        assert_eq!(run.failed(), 0);
        assert!(matches!(
            &run.jobs[0].outcome,
            Outcome::Faulted { reason, attempts: 2 } if reason.contains("attempt 2 failed")
        ));
        assert_eq!(rows(&run), vec![5]);
    }

    /// A component that always has more work.
    struct Endless {
        now: SimTime,
    }

    impl Tick for Endless {
        fn tick(&mut self, now: SimTime) {
            self.now = now;
        }
        fn next_wake(&self) -> Option<SimTime> {
            Some(self.now + SimDuration::from_millis(1))
        }
    }

    /// Drive an [`Endless`] component effectively forever in sim time:
    /// without a watchdog this would grind through ~10^14 wakes.
    pub(crate) fn run_forever() {
        let mut e = Endless { now: SimTime::ZERO };
        run_until(&mut e, SimTime::from_secs(100_000_000));
    }

    /// Rows of the jobs that produced one, in job order.
    fn rows<T: Copy>(run: &CampaignRun<T>) -> Vec<T> {
        run.jobs
            .iter()
            .filter_map(|j| j.outcome.ok().copied())
            .collect()
    }

    #[test]
    fn sim_cap_turns_runaway_job_into_faulted_record() {
        let mut c: Campaign<u64> = Campaign::new("cap");
        c.sim_cap(SimDuration::from_secs(5));
        c.job("runaway", 1, || {
            run_forever();
            0
        });
        c.job("bounded", 2, || 11);
        let run = c.run(2);
        assert_eq!(run.faulted(), 1);
        assert!(matches!(
            &run.jobs[0].outcome,
            Outcome::Faulted { reason, attempts: 1 } if watchdog::is_trip(reason)
        ));
        assert_eq!(run.jobs[1].outcome.ok(), Some(&11));
    }

    #[test]
    fn event_budget_catches_livelock_without_advancing_clock() {
        let mut c: Campaign<u64> = Campaign::new("budget");
        c.event_budget(10_000);
        c.fallible_job("spinner", 1, 2, |_| {
            run_forever();
            Ok(0)
        });
        let run = c.run(1);
        assert!(matches!(
            &run.jobs[0].outcome,
            Outcome::Faulted { reason, attempts: 2 } if watchdog::is_trip(reason)
        ));
    }
}
