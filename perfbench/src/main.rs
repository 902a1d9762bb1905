//! The repository's benchmark: three campaign workloads that each load a
//! different layer, run through the public `repro`/`harness` builders.
//!
//! Run from the repository root:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload video_throttled --seed 20140705 --seconds 15 --trace 0
//! ```
//!
//! * `video_throttled` — the Fig. 17 grid (3G, LTE, 3G shaped and LTE
//!   policed at 128 kb/s, four videos each) over two consecutive seeds.
//!   UI-tree polling dominates.
//! * `pageload_fleet` — the §7.7 page-load matrix over twelve consecutive
//!   seeds: 108 short jobs, dominated by the network/radio kernel.
//! * `replay_analyze` — offline analysis of bundles recorded in set-up;
//!   nothing is simulated in the timed region.
//!
//! The simulating workloads run each pass against a fresh, empty bundle
//! cache (`StageMode::Cached`), so every job records, saves its bundle and
//! analyzes it; the saved manifests give the simulated time covered.
//!
//! `--trace 0` times whole passes for `--seconds` and reports the
//! end-to-end metrics. `--trace 1` runs one pass, then re-drives every
//! cell the benchmark has a replica of through [`replica`], with spans
//! around the calls into each layer, and reports per-layer figures. Both
//! check the output: the rows' digest against the one pinned for the seed,
//! determinism across passes, the `StageStats` invariants of the mode, and
//! (traced) each replica's collection against the job's bundle.
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; a readable summary goes
//! to standard error. Scratch files live under
//! `.bench_build/perfbench-work-<pid>` and are removed on exit.

mod replica;
mod stats;

use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use device::apps::BrowserConfig;
use harness::{bundle_dir, Record, StageMode, StageStats, StagedCampaign};
use qoe_doctor::{Collection, CollectionSet, StartKind};
use repro::exp75::{WatchRun, CAP_RATE};
use repro::exp77::PageLoadRun;
use repro::stage::config_digest;
use repro::NetKind;
use simcore::SimTime;
use trace::{BundleArtifact, BundleMeta, BundleReader};

use replica::Layers;
use stats::DigestCheck;

/// Seed used when none is given.
const DEFAULT_SEED: u64 = 20140705;
/// Seed kept out of tuning, so a claimed gain can be re-checked on inputs
/// the change was not written against.
const HELD_OUT_SEED: u64 = 4_242_017;
/// Campaign workers (the reference host has two cores).
const WORKERS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Videos per Fig. 17 cell.
const VIDEOS: usize = 4;
/// Consecutive seeds in one `video_throttled` pass.
const VIDEO_SEEDS: u64 = 2;
/// Page loads per §7.7 cell.
const PAGE_REPS: usize = 12;
/// Consecutive seeds in one `pageload_fleet` pass.
const FLEET_SEEDS: u64 = 12;
/// Full-scale repetitions of the replayed campaigns, as the `repro` CLI
/// runs them: §7.1 accuracy runs, §7.2 posts (the mapper ablation caps
/// them at 8) and §7.6 ad runs.
const ACCURACY_REPS: usize = 30;
const POST_REPS: usize = 15;
const MAPPER_REPS: usize = 8;
const AD_REPS: usize = 8;

/// Row digests pinned per `(workload, seed)`, for the default and the
/// held-out seed.
const PINS: &[(&str, u64, u64)] = &[
    ("video_throttled", DEFAULT_SEED, 0x56c4_c2ca_8e9d_7192),
    ("video_throttled", HELD_OUT_SEED, 0x2a9a_0f13_3e34_6c32),
    ("pageload_fleet", DEFAULT_SEED, 0x0fa9_c3af_3eb7_9342),
    ("pageload_fleet", HELD_OUT_SEED, 0xba06_98c4_b4e2_f4f5),
    ("replay_analyze", DEFAULT_SEED, 0xf4f9_1212_fbe5_4e3e),
    ("replay_analyze", HELD_OUT_SEED, 0xc35e_9271_83b3_13b5),
];

/// The Fig. 17 cells, in `repro::exp75::staged_fig17` job order.
const FIG17_NETS: [NetKind; 4] = [
    NetKind::Umts3g,
    NetKind::Lte,
    NetKind::Umts3gThrottled(CAP_RATE),
    NetKind::LteThrottled(CAP_RATE),
];

/// The §7.7 networks, in `repro::exp77::staged` job order.
const EXP77_NETS: [NetKind; 3] = [NetKind::Umts3g, NetKind::Umts3gSimplified, NetKind::Lte];

/// The §7.7 browsers, in `repro::exp77::staged` job order.
fn browsers() -> [BrowserConfig; 3] {
    [
        BrowserConfig::chrome(),
        BrowserConfig::firefox(),
        BrowserConfig::stock(),
    ]
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    VideoThrottled,
    PageloadFleet,
    ReplayAnalyze,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::VideoThrottled,
        Workload::PageloadFleet,
        Workload::ReplayAnalyze,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::VideoThrottled => "video_throttled",
            Workload::PageloadFleet => "pageload_fleet",
            Workload::ReplayAnalyze => "replay_analyze",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <video_throttled|pageload_fleet|replay_analyze> \
[--seed N] [--seconds S] [--trace 0|1]";

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 15.0;
    let mut trace = false;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload: {value}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse::<f64>().map_err(|_| bad())?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag: {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Running tally of the output checks: jobs and checks attempted, and
/// failures (panicked or faulted jobs plus every check that did not hold).
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
}

impl Checks {
    fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {}", what());
        }
    }
}

/// Executor figures of one campaign run.
struct RunFigures {
    workers: usize,
    wall: Duration,
    jobs: Vec<Duration>,
    stages: StageStats,
}

/// What one pass over a workload produced.
#[derive(Default)]
struct Pass {
    runs: Vec<RunFigures>,
    rows: Vec<String>,
    /// Measured user actions whose results the rows report.
    actions: u64,
    /// Simulated (or, for replay, recorded) seconds the pass covered.
    sim_secs: f64,
}

impl Pass {
    fn wall_secs(&self) -> f64 {
        self.runs.iter().map(|r| r.wall.as_secs_f64()).sum()
    }

    fn record_ms(&self) -> f64 {
        self.runs
            .iter()
            .map(|r| r.stages.record_wall_ns as f64 / 1e6)
            .sum()
    }

    fn analyze_ms(&self) -> f64 {
        self.runs
            .iter()
            .map(|r| r.stages.analyze_wall_ns as f64 / 1e6)
            .sum()
    }
}

/// Run one staged campaign in `mode`, fold its rows and figures into
/// `pass`, and check the `StageStats` invariants of the mode.
fn run_staged<A, T>(
    staged: StagedCampaign<A, T>,
    mode: &StageMode,
    pass: &mut Pass,
    checks: &mut Checks,
    actions: impl Fn(&T) -> u64,
) where
    A: BundleArtifact + Send + 'static,
    T: Record + Send + 'static,
{
    let jobs = staged.len();
    let run = staged.into_campaign(mode).run(WORKERS);
    for j in &run.jobs {
        checks.require(j.outcome.is_ok(), || {
            format!("job {}/{} did not produce a row", run.name, j.label)
        });
        if let Some(row) = j.outcome.ok() {
            pass.rows.push(row.row());
            pass.actions += actions(row);
        }
    }
    let stages = run.stages.expect("a staged campaign reports stage stats");
    let invariant = match mode {
        StageMode::Cached(_) => {
            stages.simulated == jobs && stages.cache_misses == jobs && stages.cache_hits == 0
        }
        StageMode::Analyze(_) => stages.simulated == 0 && stages.cache_hits == jobs,
        StageMode::Inline => stages.simulated == jobs,
    };
    checks.require(invariant, || {
        format!(
            "{} stage counters off for {jobs} jobs: {stages:?}",
            run.name
        )
    });
    pass.runs.push(RunFigures {
        workers: run.workers,
        wall: run.wall,
        jobs: run.jobs.iter().map(|j| j.wall).collect(),
        stages,
    });
}

/// Record one full-scale campaign's bundles under `root`; returns the
/// record-stage wall time in nanoseconds.
fn record<A, T>(staged: StagedCampaign<A, T>, root: &Path, checks: &mut Checks) -> u64
where
    A: BundleArtifact + Send + 'static,
    T: Record + Send + 'static,
{
    let run = staged.into_record_campaign(root).run(WORKERS);
    for j in &run.jobs {
        checks.require(j.outcome.is_ok(), || {
            format!("recording {}/{} failed", run.name, j.label)
        });
    }
    run.stages.map_or(0, |s| s.record_wall_ns)
}

/// Bundle directories under `root`, one level per campaign, sorted.
fn bundle_dirs(root: &Path) -> Vec<PathBuf> {
    let mut dirs = Vec::new();
    for campaign in fs::read_dir(root).into_iter().flatten().flatten() {
        dirs.extend(
            fs::read_dir(campaign.path())
                .into_iter()
                .flatten()
                .flatten()
                .map(|e| e.path()),
        );
    }
    dirs.sort();
    dirs
}

/// Simulated seconds covered by the bundles under `root`, from their
/// manifests alone.
fn manifest_secs(root: &Path, checks: &mut Checks) -> f64 {
    let mut secs = 0.0;
    for dir in bundle_dirs(root) {
        match BundleReader::open(&dir) {
            Ok(r) => secs += r.meta().end.as_secs_f64(),
            Err(e) => checks.require(false, || format!("{}: {e}", dir.display())),
        }
    }
    secs
}

/// A cold pass of a simulating workload: a fresh cache under `root`.
fn simulate_pass(workload: Workload, seed: u64, root: &Path, checks: &mut Checks) -> Pass {
    let mode = StageMode::Cached(root.to_path_buf());
    let mut pass = Pass::default();
    match workload {
        Workload::VideoThrottled => {
            for s in seed..seed + VIDEO_SEEDS {
                run_staged(
                    repro::exp75::staged_fig17(VIDEOS, s),
                    &mode,
                    &mut pass,
                    checks,
                    |r: &WatchRun| r.videos.len() as u64,
                );
            }
        }
        Workload::PageloadFleet => {
            for s in seed..seed + FLEET_SEEDS {
                run_staged(
                    repro::exp77::staged(PAGE_REPS, s),
                    &mode,
                    &mut pass,
                    checks,
                    |r: &PageLoadRun| r.loads.n as u64,
                );
            }
        }
        Workload::ReplayAnalyze => unreachable!("replay_analyze does not simulate"),
    }
    pass.sim_secs = manifest_secs(root, checks);
    pass
}

/// The bundle set `replay_analyze` reads, recorded at full scale.
struct Recorded {
    root: PathBuf,
    /// Record-stage wall time of the whole set, in nanoseconds.
    record_ns: u64,
    /// The part of `record_ns` spent on the §7.7 cells.
    exp77_record_ns: u64,
    /// Completed trigger-started measurements in the recorded sessions.
    actions: u64,
    /// Recorded seconds, summed over every session.
    secs: f64,
}

/// Record the replay bundle set under `root` and scan it once.
fn record_replay_set(seed: u64, root: &Path, checks: &mut Checks) -> Recorded {
    let exp77_record_ns = record(repro::exp77::staged(PAGE_REPS, seed), root, checks);
    let record_ns = exp77_record_ns
        + record(repro::exp71::staged(ACCURACY_REPS, seed), root, checks)
        + record(repro::exp72::staged(POST_REPS, seed), root, checks)
        + record(
            repro::ablation::staged(MAPPER_REPS, ACCURACY_REPS, CAP_RATE, seed),
            root,
            checks,
        )
        + record(repro::exp76::staged(AD_REPS, seed), root, checks);
    let mut recorded = Recorded {
        root: root.to_path_buf(),
        record_ns,
        exp77_record_ns,
        actions: 0,
        secs: 0.0,
    };
    for dir in bundle_dirs(root) {
        match scan_sessions(&dir) {
            Ok((actions, secs)) => {
                recorded.actions += actions;
                recorded.secs += secs;
            }
            Err(e) => checks.require(false, || format!("{}: {e}", dir.display())),
        }
    }
    recorded
}

/// Completed trigger-started measurements and recorded seconds in the
/// bundle at `dir`, descending into the nested bundles of a set.
fn scan_sessions(dir: &Path) -> Result<(u64, f64), trace::TraceError> {
    let reader = BundleReader::open(dir)?;
    let subs = reader.sub_names();
    if subs.is_empty() {
        let (col, _) = Collection::load(dir)?;
        let actions = col
            .behavior
            .iter()
            .filter(|(_, r)| r.start_kind == StartKind::Trigger && !r.timed_out)
            .count() as u64;
        return Ok((actions, col.end.as_secs_f64()));
    }
    let mut total = (0, 0.0);
    for name in subs {
        let (a, s) = scan_sessions(&reader.sub_path(name)?)?;
        total.0 += a;
        total.1 += s;
    }
    Ok(total)
}

/// Rows of the replayed campaigns carry no action counts of their own;
/// [`Recorded::actions`] has them.
fn no_actions<T>(_: &T) -> u64 {
    0
}

/// One analysis pass over the recorded set.
fn replay_pass(seed: u64, rec: &Recorded, checks: &mut Checks) -> Pass {
    let mode = StageMode::Analyze(rec.root.clone());
    let mut pass = Pass::default();
    run_staged(
        repro::exp71::staged(ACCURACY_REPS, seed),
        &mode,
        &mut pass,
        checks,
        no_actions,
    );
    run_staged(
        repro::exp72::staged(POST_REPS, seed),
        &mode,
        &mut pass,
        checks,
        no_actions,
    );
    run_staged(
        repro::ablation::staged(MAPPER_REPS, ACCURACY_REPS, CAP_RATE, seed),
        &mode,
        &mut pass,
        checks,
        no_actions,
    );
    run_staged(
        repro::exp76::staged(AD_REPS, seed),
        &mode,
        &mut pass,
        checks,
        no_actions,
    );
    run_staged(
        repro::exp77::staged(PAGE_REPS, seed),
        &mode,
        &mut pass,
        checks,
        no_actions,
    );
    pass.actions = rec.actions;
    pass.sim_secs = rec.secs;
    pass
}

/// Everything done before the timed region. The simulating workloads
/// create their work directory and run one short warm-up session, so lazy
/// start-up costs land here; the warm-up always uses the default seed, so
/// set-up time does not vary with the inputs. `replay_analyze` records its
/// bundles.
fn set_up(workload: Workload, seed: u64, dir: &Path, checks: &mut Checks) -> Option<Recorded> {
    let _ = fs::remove_dir_all(dir);
    if let Err(e) = fs::create_dir_all(dir) {
        checks.require(false, || format!("cannot create {}: {e}", dir.display()));
    }
    match workload {
        Workload::VideoThrottled => {
            let run = repro::exp75::run_watch(NetKind::Lte, VIDEOS, DEFAULT_SEED);
            checks.require(run.videos.len() == VIDEOS, || {
                "warm-up video missing".into()
            });
            None
        }
        Workload::PageloadFleet => {
            for browser in browsers() {
                let run =
                    repro::exp77::run_config(browser, NetKind::Umts3g, PAGE_REPS, DEFAULT_SEED);
                checks.require(run.loads.n == PAGE_REPS, || {
                    "warm-up page loads missing".into()
                });
            }
            None
        }
        Workload::ReplayAnalyze => Some(record_replay_set(seed, dir, checks)),
    }
}

fn run_pass(
    workload: Workload,
    seed: u64,
    dir: &Path,
    rec: Option<&Recorded>,
    checks: &mut Checks,
) -> Pass {
    match rec {
        Some(rec) => replay_pass(seed, rec, checks),
        None => {
            let _ = fs::remove_dir_all(dir);
            let pass = simulate_pass(workload, seed, dir, checks);
            let _ = fs::remove_dir_all(dir);
            pass
        }
    }
}

/// The output gate: every pass renders the same rows, and their digest
/// matches the one pinned for the seed.
fn gate(workload: Workload, seed: u64, passes: &[Pass], checks: &mut Checks) {
    let digest = stats::rows_digest(&passes[0].rows);
    for (i, p) in passes.iter().enumerate().skip(1) {
        checks.require(stats::rows_digest(&p.rows) == digest, || {
            format!("pass {i} rendered different rows than pass 0")
        });
    }
    let pinned = PINS
        .iter()
        .find(|(w, s, _)| *w == workload.name() && *s == seed)
        .map(|p| p.2);
    let required = seed == DEFAULT_SEED || seed == HELD_OUT_SEED;
    match stats::check_digest(digest, pinned, required) {
        Ok(DigestCheck::Matched) => {
            checks.require(true, String::new);
            eprintln!("perfbench: rows digest {digest:016x} matches the pin for seed {seed}");
        }
        Ok(DigestCheck::Unchecked) => {
            eprintln!("perfbench: rows digest {digest:016x} unchecked (no pin for seed {seed})")
        }
        Err(e) => checks.require(false, || e),
    }
}

type Metric = (&'static str, f64, &'static str);

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The untraced run: set up `SETUPS` times, then time whole passes for
/// `seconds`.
fn end_to_end(args: &Args, work: &Path, checks: &mut Checks) -> Vec<Metric> {
    let mut setup_secs = Vec::new();
    let mut rec = None;
    for i in 0..SETUPS {
        if let Some(old) = rec.take().map(|r: Recorded| r.root) {
            let _ = fs::remove_dir_all(old);
        }
        let t0 = Instant::now();
        rec = set_up(
            args.workload,
            args.seed,
            &work.join(format!("setup{i}")),
            checks,
        );
        setup_secs.push(t0.elapsed().as_secs_f64());
    }
    let started = Instant::now();
    let mut passes = Vec::new();
    while passes.is_empty() || started.elapsed().as_secs_f64() < args.seconds {
        let dir = work.join(format!("pass{}", passes.len()));
        passes.push(run_pass(
            args.workload,
            args.seed,
            &dir,
            rec.as_ref(),
            checks,
        ));
    }
    gate(args.workload, args.seed, &passes, checks);
    let rate = |f: &dyn Fn(&Pass) -> f64| {
        stats::median(
            &passes
                .iter()
                .map(|p| ratio(f(p), p.wall_secs()))
                .collect::<Vec<_>>(),
        )
    };
    eprintln!(
        "perfbench: {} passes, {} actions and {:.1} simulated s per pass",
        passes.len(),
        passes[0].actions,
        passes[0].sim_secs
    );
    vec![
        ("sessions_per_s", rate(&|p| p.actions as f64), "1/s"),
        ("sim_s_per_s", rate(&|p| p.sim_secs), "s/s"),
        ("peak_rss_mb", stats::peak_rss_mb().unwrap_or(0.0), "MB"),
        ("setup_s", stats::median(&setup_secs), "s"),
    ]
}

/// Re-drive one cell through its replica, compare the replica's
/// collection with the job's bundle at `job_dir`, and save the replica
/// under `out`.
fn check_replica(
    cell: &mut Layers,
    replica: Collection,
    job_dir: &Path,
    out: &Path,
    checks: &mut Checks,
) {
    match cell.load::<Collection>(job_dir) {
        Ok(job) => {
            let diff = replica::collection_diff(&replica, &job);
            checks.require(diff.is_none(), || {
                format!(
                    "replica of {} differs from the job in its {}",
                    job_dir.display(),
                    diff.unwrap_or_default()
                )
            });
        }
        Err(e) => checks.require(false, || format!("{}: {e}", job_dir.display())),
    }
    let meta = BundleMeta {
        seed: 0,
        config_digest: 0,
        scenario: "replica".into(),
        end: SimTime::ZERO,
    };
    if let Err(e) = cell.save(&replica, out, &meta) {
        checks.require(false, || e);
    }
}

fn share(part: f64, whole: f64) -> String {
    format!("{:.0}%", 100.0 * ratio(part, whole))
}

/// Report one replayed cell's layer shares on standard error.
fn report_cell(label: &str, cell: &Layers) {
    let session = cell.session.ms();
    eprintln!(
        "perfbench: {label:<24} session {session:>8.1} ms  device {:>4}  kernel {:>4}",
        share(cell.parse.ms() + cell.revision.ms(), session),
        share(cell.advance.ms(), session),
    );
}

/// The traced run: one untraced pass, then every replica cell.
fn traced(args: &Args, work: &Path, checks: &mut Checks) -> Vec<Metric> {
    let seed = args.seed;
    let rec = set_up(args.workload, seed, &work.join("setup"), checks);
    let root = work.join("pass");
    let pass = match &rec {
        Some(rec) => replay_pass(seed, rec, checks),
        None => simulate_pass(args.workload, seed, &root, checks),
    };
    gate(args.workload, seed, std::slice::from_ref(&pass), checks);
    let replicas = work.join("replica");
    let mut layers = Layers::default();
    // Record-stage time of the untraced campaigns, and of the cells the
    // replicas re-drive (the base of the tracing overhead).
    let mut untraced_record_ms = pass.record_ms();
    let mut replicated_record_ms = untraced_record_ms;
    let mut n = 0;
    let mut out = || {
        n += 1;
        replicas.join(n.to_string())
    };
    match args.workload {
        Workload::VideoThrottled => {
            for (s, net) in (seed..seed + VIDEO_SEEDS).flat_map(|s| FIG17_NETS.map(|n| (s, n))) {
                let label = net.label();
                let cfg = config_digest("fig17", &label, &[VIDEOS as u64]);
                let dir = bundle_dir(&root, "fig17", &label, s, cfg);
                let mut cell = Layers::default();
                let col = replica::watch_session(net, VIDEOS, s, &mut cell);
                check_replica(&mut cell, col, &dir, &out(), checks);
                report_cell(&format!("{label} seed {s}"), &cell);
                layers.merge(&cell);
            }
        }
        Workload::PageloadFleet => {
            for s in seed..seed + FLEET_SEEDS {
                page_replicas(&root, s, &mut layers, &mut out, checks);
            }
        }
        Workload::ReplayAnalyze => {
            let rec = rec.as_ref().expect("replay set recorded");
            // The trace read path: decode every bundle of the set as the
            // analysis pass does.
            for dir in bundle_dirs(&rec.root) {
                let loaded = if dir.parent().is_some_and(|p| p.ends_with("ablation")) {
                    layers.load::<CollectionSet>(&dir).map(drop)
                } else {
                    layers.load::<Collection>(&dir).map(drop)
                };
                if let Err(e) = loaded {
                    checks.require(false, || format!("{}: {e}", dir.display()));
                }
            }
            let pass_ms = pass.wall_secs() * 1e3;
            let jobs_ms: f64 = pass
                .runs
                .iter()
                .flat_map(|r| &r.jobs)
                .map(|d| d.as_secs_f64() * 1e3)
                .sum();
            eprintln!(
                "perfbench: analysis pass {pass_ms:.1} ms (job time {jobs_ms:.1} ms): \
                 bundle decode {:.1} ms, analyze {:.1} ms = {} of job time",
                layers.load.ms(),
                pass.analyze_ms(),
                share(layers.load.ms() + pass.analyze_ms(), jobs_ms)
            );
            // The exp77 sessions of the set are the cells with a replica.
            let mut cells = Layers::default();
            page_replicas(&rec.root, seed, &mut cells, &mut out, checks);
            layers.merge(&cells);
            untraced_record_ms = rec.record_ns as f64 / 1e6;
            replicated_record_ms = rec.exp77_record_ns as f64 / 1e6;
        }
    }
    let session_ms = layers.session.ms();
    eprintln!(
        "perfbench: replicas {session_ms:.1} ms traced against {replicated_record_ms:.1} ms untraced \
         record time ({} of the replicas in the device layer, {} in the kernel)",
        share(layers.parse.ms() + layers.revision.ms(), session_ms),
        share(layers.advance.ms(), session_ms)
    );

    let jobs_ms: Vec<f64> = pass
        .runs
        .iter()
        .flat_map(|r| &r.jobs)
        .map(|d| d.as_secs_f64() * 1e3)
        .collect();
    let p50 = stats::percentile(&jobs_ms, 50.0);
    let p90 = stats::percentile(&jobs_ms, 90.0);
    let idle = stats::idle_frac(pass.runs.iter().map(|r| (r.workers, r.wall, &r.jobs[..])));
    let mb = |bytes: u64| bytes as f64 / (1024.0 * 1024.0);
    vec![
        (
            "device.parse_calls",
            (layers.parse.calls + layers.revision.calls) as f64,
            "count",
        ),
        (
            "device.views_per_parse",
            ratio(layers.parsed_views as f64, layers.parse.calls as f64),
            "count",
        ),
        (
            "device.parse_ms",
            layers.parse.ms() + layers.revision.ms(),
            "ms",
        ),
        (
            "device.parse_share",
            ratio(layers.parse.ms() + layers.revision.ms(), session_ms),
            "ratio",
        ),
        ("device.interact_ms", layers.interact.ms(), "ms"),
        ("sim.advance_calls", layers.advance.calls as f64, "count"),
        ("sim.advance_ms", layers.advance.ms(), "ms"),
        (
            "sim.advance_share",
            ratio(layers.advance.ms(), session_ms),
            "ratio",
        ),
        (
            "sim.packets_per_s",
            ratio(layers.packets as f64, layers.advance.busy.as_secs_f64()),
            "1/s",
        ),
        ("netstack.packets", layers.packets as f64, "count"),
        ("netstack.retx", layers.retx as f64, "count"),
        ("radio.pdu_records", layers.pdu_records as f64, "count"),
        (
            "radio.rrc_transitions",
            layers.rrc_transitions as f64,
            "count",
        ),
        ("trace.write_ms", layers.save.ms(), "ms"),
        ("trace.write_mb", mb(layers.saved_bytes), "MB"),
        ("trace.read_ms", layers.load.ms(), "ms"),
        ("trace.read_mb", mb(layers.loaded_bytes), "MB"),
        ("core.analyze_ms", pass.analyze_ms(), "ms"),
        ("harness.record_ms", untraced_record_ms, "ms"),
        ("harness.job_p50_ms", p50.value, "ms"),
        ("harness.job_p90_ms", p90.value, "ms"),
        ("harness.job_samples", p50.samples as f64, "count"),
        (
            "harness.job_max_ms",
            jobs_ms.iter().copied().fold(0.0, f64::max),
            "ms",
        ),
        ("harness.idle_frac", idle, "ratio"),
        ("bench.replica_ms", session_ms, "ms"),
        (
            "bench.trace_overhead",
            ratio(session_ms, replicated_record_ms),
            "ratio",
        ),
    ]
}

/// Replay the nine §7.7 cells of `seed` whose bundles lie under `root`.
fn page_replicas(
    root: &Path,
    seed: u64,
    layers: &mut Layers,
    out: &mut impl FnMut() -> PathBuf,
    checks: &mut Checks,
) {
    for browser in browsers() {
        for net in EXP77_NETS {
            let label = format!("{}/{}", browser.name, net.label());
            let cfg = config_digest("exp77", &label, &[PAGE_REPS as u64]);
            let dir = bundle_dir(root, "exp77", &label, seed, cfg);
            let mut cell = Layers::default();
            let col = replica::page_session(browser.clone(), net, PAGE_REPS, seed, &mut cell);
            check_replica(&mut cell, col, &dir, &out(), checks);
            layers.merge(&cell);
        }
    }
}

/// A scratch directory removed when dropped.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let work = WorkDir(PathBuf::from(format!(
        ".bench_build/perfbench-work-{}",
        std::process::id()
    )));
    let mut checks = Checks::default();
    let metrics = if args.trace {
        traced(&args, &work.0, &mut checks)
    } else {
        end_to_end(&args, &work.0, &mut checks)
    };
    drop(work);

    eprintln!(
        "perfbench: {} seed {}: {} of {} checks failed (fail_ratio {})",
        args.workload.name(),
        args.seed,
        checks.failed,
        checks.attempted,
        ratio(checks.failed as f64, checks.attempted as f64)
    );
    for (name, value, unit) in &metrics {
        eprintln!("perfbench: {name:<24} {value:>14.4} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failed == 0,
        checks.attempted.max(1),
        checks.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}
