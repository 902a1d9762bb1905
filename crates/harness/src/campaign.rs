//! Campaign specification and the work-sharing parallel executor.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use simcore::watchdog;
use simcore::{SimDuration, SimTime};

/// A job's work: called once, it either produces a row — with the
/// simulated seconds it measured, when it knows them — or fails softly
/// with `Err(reason)`.
type Work<T> = Box<dyn FnOnce() -> Result<(T, Option<f64>), String> + Send>;

/// One cell of a campaign grid: a labelled, seeded unit of work producing a
/// result row of type `T`. The executor calls its closure exactly once:
/// the closure builds and runs its own seeded simulation world, so a rerun
/// would replay the same result — recovery from app failures belongs to
/// the session's controller, not to the harness. Jobs share nothing, which
/// is what makes the campaign order-independent and therefore safely
/// parallel.
pub struct Job<T> {
    /// Human-readable label, unique within the campaign (e.g. `"lte/wv"`).
    pub label: String,
    /// Seed the job's world is built from.
    pub seed: u64,
    run: Work<T>,
}

/// How a job ended.
#[derive(Debug)]
pub enum Outcome<T> {
    /// The job ran to completion and produced a row.
    Ok(T),
    /// The job failed softly (an `Err` from a fallible job, or a
    /// sim-watchdog trip): it is recorded — with the failure reason —
    /// instead of poisoning the campaign.
    Faulted(String),
    /// The job panicked with a non-watchdog panic; the payload is the panic
    /// message. A panicking job is reported, not propagated — the rest of
    /// the campaign still runs.
    Panicked(String),
}

impl<T> Outcome<T> {
    /// The row, if the job produced one.
    pub fn ok(&self) -> Option<&T> {
        match self {
            Outcome::Ok(v) => Some(v),
            Outcome::Faulted(_) | Outcome::Panicked(_) => None,
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
    /// Simulated seconds the job measured: a staged job's recorded (or
    /// loaded) artifact end; `None` for plain jobs and for jobs that
    /// produced no row.
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
            stage_counters: None,
        }
    }

    /// Arm a per-job simulated-time watchdog: any job whose simulation
    /// clock passes `cap` is aborted (via [`simcore::watchdog`]) and
    /// recorded as [`Outcome::Faulted`] — a runaway job can never hang the
    /// campaign. The cap is simulated time, so it trips deterministically.
    pub fn sim_cap(&mut self, cap: SimDuration) -> &mut Self {
        self.sim_cap = Some(SimTime::ZERO + cap);
        self
    }

    /// Append a job. Jobs run in any order but their results always come
    /// back in append order. A sim-watchdog trip makes the job
    /// [`Outcome::Faulted`]; any other panic makes it [`Outcome::Panicked`].
    pub fn job(
        &mut self,
        label: impl Into<String>,
        seed: u64,
        run: impl FnOnce() -> T + Send + 'static,
    ) -> &mut Self {
        self.push(label.into(), seed, move || Ok((run(), None)))
    }

    /// Append a job that may fail softly by returning `Err(reason)`, which
    /// makes it [`Outcome::Faulted`] — as does a sim-watchdog trip; any
    /// other panic makes it [`Outcome::Panicked`].
    pub fn fallible_job(
        &mut self,
        label: impl Into<String>,
        seed: u64,
        run: impl FnOnce() -> Result<T, String> + Send + 'static,
    ) -> &mut Self {
        self.push(label.into(), seed, move || run().map(|row| (row, None)))
    }

    /// Append a job whose row comes with the simulated seconds it measured
    /// (recorded in the run journal). Every public constructor and every
    /// staged lowering ends here.
    pub(crate) fn push(
        &mut self,
        label: String,
        seed: u64,
        run: impl FnOnce() -> Result<(T, Option<f64>), String> + Send + 'static,
    ) -> &mut Self {
        self.jobs.push(Job {
            label,
            seed,
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
    /// uneven grid balances itself). Each job runs once under
    /// `catch_unwind` with the campaign's sim watchdog armed; failures
    /// become [`Outcome::Faulted`] / [`Outcome::Panicked`] for that slot
    /// and the campaign carries on. Because jobs are independent and slots
    /// are positional, the returned sequence — and anything printed from
    /// it — is identical for `workers = 1` and `workers = N`.
    pub fn run(self, workers: usize) -> CampaignRun<T> {
        let Campaign {
            name,
            jobs,
            sim_cap,
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
            let mut handles = Vec::with_capacity(workers);
            for _ in 0..workers {
                handles.push(scope.spawn(|| loop {
                    let idx = cursor.fetch_add(1, Ordering::Relaxed);
                    if idx >= n {
                        break;
                    }
                    let Job { label, seed, run } = pending[idx]
                        .lock()
                        .unwrap()
                        .take()
                        .expect("job claimed twice");
                    let t0 = Instant::now();
                    let (outcome, sim_secs) = execute(run, sim_cap);
                    *done[idx].lock().unwrap() = Some(JobResult {
                        label,
                        seed,
                        sim_secs,
                        wall: t0.elapsed(),
                        outcome,
                    });
                }));
            }
            // Join each worker explicitly: the scope's implicit join returns
            // once the closures finish, before the threads have exited and
            // handed their malloc arenas back, so the next campaign's
            // workers could find none free and create more, each keeping
            // its freed memory.
            for h in handles {
                if let Err(payload) = h.join() {
                    std::panic::resume_unwind(payload);
                }
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

/// Run a job once with the watchdog armed and panics caught; returns how
/// it ended and the simulated seconds it measured.
fn execute<T>(run: Work<T>, sim_cap: Option<SimTime>) -> (Outcome<T>, Option<f64>) {
    let ran = catch_unwind(AssertUnwindSafe(|| {
        let _guard = sim_cap.map(watchdog::arm);
        run()
    }));
    match ran {
        Ok(Ok((row, sim_secs))) => (Outcome::Ok(row), sim_secs),
        Ok(Err(reason)) => (Outcome::Faulted(reason), None),
        Err(payload) => match panic_message(payload.as_ref()) {
            // A watchdog trip is a *diagnosed* fault (the job overran its
            // sim-time cap), not a bug in the job.
            msg if watchdog::is_trip(&msg) => (Outcome::Faulted(msg), None),
            msg => (Outcome::Panicked(msg), None),
        },
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
                Outcome::Ok(v) => v,
                Outcome::Faulted(reason) => panic!("job {} faulted: {reason}", j.label),
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
            .filter(|j| matches!(j.outcome, Outcome::Faulted(_)))
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
    use std::sync::Arc;

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
    fn failing_fallible_job_runs_once_and_is_faulted_not_panicked() {
        let calls = Arc::new(AtomicUsize::new(0));
        let mut c: Campaign<u32> = Campaign::new("fault");
        let counted = Arc::clone(&calls);
        c.fallible_job("doomed", 1, move || {
            let n = counted.fetch_add(1, Ordering::Relaxed) + 1;
            Err(format!("call {n} failed"))
        });
        c.fallible_job("steady", 2, || Ok(7));
        c.job("fine", 3, || 5);
        let run = c.run(2);
        assert_eq!(calls.load(Ordering::Relaxed), 1, "a job runs exactly once");
        assert_eq!(run.faulted(), 1);
        assert_eq!(run.failed(), 0);
        assert!(matches!(
            &run.jobs[0].outcome,
            Outcome::Faulted(reason) if reason == "call 1 failed"
        ));
        assert!(matches!(run.jobs[1].outcome, Outcome::Ok(7)));
        assert_eq!(rows(&run), vec![7, 5]);
        assert!(run.jobs.iter().all(|j| j.sim_secs.is_none()));
    }

    /// A component that always has more work.
    struct Endless {
        now: SimTime,
    }

    impl Tick for Endless {
        fn tick(&mut self, now: SimTime, _target: SimTime) -> SimTime {
            self.now = now;
            now
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
            Outcome::Faulted(reason) if watchdog::is_trip(reason)
        ));
        assert_eq!(run.jobs[1].outcome.ok(), Some(&11));
    }
}
