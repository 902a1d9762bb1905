//! `repro` — regenerate every table and figure of the QoE Doctor paper.
//!
//! ```text
//! repro [experiment] [--quick] [--jobs N] [--json DIR] [--cache DIR]
//! repro record [experiment] --out DIR [--quick] [--jobs N] [--json DIR]
//! repro analyze DIR [experiment] [--quick] [--jobs N] [--json DIR]
//!
//! experiments:
//!   table1 table2 table3 fig6 fig7 fig8 fig10 fig11 fig12 fig13
//!   fig14 fig15 fig16 fig17 fig18 fig19 fig20 exp76 exp77 ablation
//!   chaos monitor all
//! other:
//!   list
//! ```
//!
//! Every experiment runs as a `harness` campaign: a grid of independent
//! seeded simulation worlds executed on `--jobs` worker threads. Results
//! are collected in job order, so the printed rows are byte-identical for
//! `--jobs 1` and `--jobs N`. `--quick` runs reduced repetition counts
//! (used by CI); the default counts match EXPERIMENTS.md. `--json DIR`
//! additionally writes one machine-readable campaign report (run
//! journal + merged aggregates) per campaign.
//!
//! `record` simulates each campaign job and persists its trace bundle
//! under `--out DIR` without analyzing; `analyze DIR` re-runs only the
//! analysis stage against those bundles and prints exactly what the
//! inline run would have printed. `--cache DIR` fuses the two: bundles
//! are keyed by (format version, seed, config digest), hits skip the
//! simulation, misses record through the cache.

use std::env;
use std::path::PathBuf;
use std::process::ExitCode;

use harness::{Campaign, Outcome, Record, StageMode, StagedCampaign};
use trace::BundleArtifact;

struct Scale {
    accuracy_reps: usize,
    post_reps: usize,
    bg_hours: u64,
    updates: usize,
    videos: usize,
    sweep_videos: usize,
    ad_reps: usize,
    page_reps: usize,
    monitor_epochs: usize,
}

const FULL: Scale = Scale {
    accuracy_reps: 30,
    post_reps: 15,
    bg_hours: repro::exp73::RUN_HOURS,
    updates: 30,
    videos: 24,
    sweep_videos: 6,
    ad_reps: 8,
    page_reps: 12,
    monitor_epochs: 10,
};

const QUICK: Scale = Scale {
    accuracy_reps: 6,
    post_reps: 4,
    bg_hours: 2,
    updates: 6,
    videos: 4,
    sweep_videos: 2,
    ad_reps: 2,
    page_reps: 3,
    monitor_epochs: 6,
};

const SEED: u64 = 20140705;

const USAGE: &str = "\
usage: repro [experiment] [--quick] [--jobs N] [--json DIR] [--cache DIR]
       repro record [experiment] --out DIR [--quick] [--jobs N] [--json DIR]
       repro analyze DIR [experiment] [--quick] [--jobs N] [--json DIR]

experiments:
  table1 table2 table3 fig6 fig7 fig8 fig10 fig11 fig12 fig13
  fig14 fig15 fig16 fig17 fig18 fig19 fig20 exp76 exp77 ablation
  chaos monitor all          (`repro list` prints one-line descriptions)

subcommands:
  record       simulate and persist each campaign job's trace bundle under
               --out DIR; no analysis runs
  analyze      load the bundles under DIR and re-run only the analysis;
               output matches the inline run byte for byte

other:
  list         print every experiment id with a one-line description
  monitor      longitudinal monitoring: re-measure a scenario grid over
               epochs, detect QoE regressions, attribute them to a layer

flags:
  --quick      reduced repetition counts (CI scale)
  --jobs N     worker threads per campaign (default: available parallelism)
  --json DIR   write machine-readable campaign reports under DIR
  --out DIR    bundle root for `record`
  --cache DIR  content-addressed bundle cache: hits skip the simulation
               (with `monitor`: also commits the epoch history index)
  --epochs N   monitoring history length (monitor only; default 10, 6 with
               --quick)
";

/// How the record and analyze stages of each campaign are executed.
enum RunMode {
    /// Record bundles under the root; skip analysis.
    Record(PathBuf),
    /// Produce analysis rows through a staged-campaign lowering (inline,
    /// analyze-from-disk, or cached).
    Staged(StageMode),
}

struct Opts {
    scale: Scale,
    jobs: usize,
    json: Option<PathBuf>,
    mode: RunMode,
    epochs: Option<usize>,
}

fn usage_error(msg: &str) -> ! {
    eprintln!("repro: {msg}\n\n{USAGE}");
    std::process::exit(2);
}

fn parse_args(args: Vec<String>) -> (String, Opts) {
    let mut quick = false;
    let mut jobs: Option<usize> = None;
    let mut epochs: Option<usize> = None;
    let mut json: Option<PathBuf> = None;
    let mut out: Option<PathBuf> = None;
    let mut cache: Option<PathBuf> = None;
    let mut positional: Vec<String> = Vec::new();

    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        // Accept both `--flag value` and `--flag=value`.
        let (flag, inline) = match arg.split_once('=') {
            Some((f, v)) if f.starts_with("--") => (f.to_string(), Some(v.to_string())),
            _ => (arg.clone(), None),
        };
        let mut value = |name: &str| -> String {
            inline.clone().or_else(|| it.next()).unwrap_or_else(|| {
                usage_error(&format!("{name} requires a value"));
            })
        };
        let no_value = |name: &str| {
            if inline.is_some() {
                usage_error(&format!("{name} takes no value"));
            }
        };
        match flag.as_str() {
            "--quick" => {
                no_value("--quick");
                quick = true;
            }
            "--jobs" => {
                let v = value("--jobs");
                match v.parse::<usize>() {
                    Ok(n) if n > 0 => jobs = Some(n),
                    _ => usage_error(&format!("invalid --jobs value: {v:?}")),
                }
            }
            "--epochs" => {
                let v = value("--epochs");
                match v.parse::<usize>() {
                    Ok(n) if n > 0 => epochs = Some(n),
                    _ => usage_error(&format!("invalid --epochs value: {v:?}")),
                }
            }
            "--json" => json = Some(PathBuf::from(value("--json"))),
            "--out" => out = Some(PathBuf::from(value("--out"))),
            "--cache" => cache = Some(PathBuf::from(value("--cache"))),
            "--help" | "-h" => {
                no_value(&flag);
                print!("{USAGE}");
                std::process::exit(0);
            }
            f if f.starts_with('-') => usage_error(&format!("unknown flag: {f}")),
            _ => positional.push(arg),
        }
    }

    let mut pos = positional.into_iter();
    let (what, mode) = match pos.next().as_deref() {
        Some("record") => {
            let root = out
                .take()
                .unwrap_or_else(|| usage_error("record requires --out DIR"));
            if cache.is_some() {
                usage_error("--cache cannot be combined with record");
            }
            (
                pos.next().unwrap_or_else(|| "all".to_string()),
                RunMode::Record(root),
            )
        }
        Some("analyze") => {
            let root = pos
                .next()
                .unwrap_or_else(|| usage_error("analyze requires a bundle directory"));
            if out.is_some() || cache.is_some() {
                usage_error("--out/--cache cannot be combined with analyze");
            }
            (
                pos.next().unwrap_or_else(|| "all".to_string()),
                RunMode::Staged(StageMode::Analyze(PathBuf::from(root))),
            )
        }
        first => {
            if out.is_some() {
                usage_error("--out only applies to `record`");
            }
            let what = first
                .map(str::to_string)
                .unwrap_or_else(|| "all".to_string());
            let mode = match cache.take() {
                Some(dir) => StageMode::Cached(dir),
                None => StageMode::Inline,
            };
            (what, RunMode::Staged(mode))
        }
    };
    if let Some(extra) = pos.next() {
        usage_error(&format!("unexpected extra argument: {extra}"));
    }

    let opts = Opts {
        scale: if quick { QUICK } else { FULL },
        jobs: jobs.unwrap_or_else(harness::default_workers),
        json,
        mode,
        epochs,
    };
    (what, opts)
}

fn main() -> ExitCode {
    let (what, opts) = parse_args(env::args().skip(1).collect());

    let mut failed = 0usize;
    match what.as_str() {
        "all" => {
            for name in repro::cli::ALL {
                failed += run(name, &opts);
            }
        }
        name => failed += run(name, &opts),
    }

    if failed > 0 {
        eprintln!("repro: {failed} campaign job(s) failed (reported above)");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn header(name: &str, paper: &str) {
    println!("\n=== {name} — {paper} ===");
}

/// Run one campaign on the configured worker count, write its JSON report
/// if `--json` was given, report panicked jobs on stderr, and hand back the
/// successful rows in job order. Returns the rows plus the failed-job count.
fn campaign_rows<T: Record + Send>(c: Campaign<T>, opts: &Opts, failed: &mut usize) -> Vec<T> {
    let run = c.run(opts.jobs);
    if let Some(dir) = &opts.json {
        match harness::write_report(dir, &run) {
            Ok(path) => eprintln!("wrote {}", path.display()),
            Err(e) => eprintln!("repro: failed to write report for {}: {e}", run.name),
        }
    }
    *failed += run.failed();
    if !matches!(opts.mode, RunMode::Staged(StageMode::Inline)) {
        // A faulted job in a staged mode means a bundle was missing, stale
        // or unreadable — that must fail the invocation, not just skip a
        // row (inline campaigns have their own fault policy).
        *failed += run.faulted();
    }
    run.jobs
        .into_iter()
        .filter_map(|j| match j.outcome {
            Outcome::Ok(row) => Some(row),
            Outcome::Faulted(reason) => {
                eprintln!(
                    "repro: job {}/{} (seed {}) faulted: {reason}",
                    run.name, j.label, j.seed
                );
                None
            }
            Outcome::Panicked(msg) => {
                eprintln!(
                    "repro: job {}/{} (seed {}) panicked: {msg}",
                    run.name, j.label, j.seed
                );
                None
            }
        })
        .collect()
}

/// Lower a staged campaign according to the run mode. In `record` mode the
/// bundle rows are printed here and `None` is returned (there are no
/// analysis rows to print); otherwise the analysis rows come back for the
/// caller's experiment-specific rendering, which is shared verbatim by the
/// inline, analyze and cached modes.
fn staged_rows<A, T>(
    staged: StagedCampaign<A, T>,
    opts: &Opts,
    failed: &mut usize,
) -> Option<Vec<T>>
where
    A: BundleArtifact + Send + 'static,
    T: Record + Send + 'static,
{
    match &opts.mode {
        RunMode::Record(root) => {
            for row in campaign_rows(staged.into_record_campaign(root), opts, failed) {
                println!("{}", row.row());
            }
            None
        }
        RunMode::Staged(mode) => Some(campaign_rows(staged.into_campaign(mode), opts, failed)),
    }
}

fn run(name: &str, opts: &Opts) -> usize {
    let s = &opts.scale;
    let mut failed = 0usize;
    let recording = matches!(opts.mode, RunMode::Record(_));
    if opts.epochs.is_some() && name != "monitor" {
        usage_error("--epochs only applies to `monitor`");
    }
    match name {
        "list" => {
            repro::cli::print_list();
        }
        "monitor" => {
            let stage = match &opts.mode {
                RunMode::Staged(mode @ (StageMode::Inline | StageMode::Cached(_))) => mode,
                _ => usage_error("monitor supports only inline and --cache runs"),
            };
            header(
                name,
                "Longitudinal QoE monitoring: epoch regressions + attribution",
            );
            let epochs = opts.epochs.unwrap_or(s.monitor_epochs);
            let spec = repro::monitor::spec(epochs, SEED);
            let rows = campaign_rows(spec.build().into_campaign(stage), opts, &mut failed);
            for r in &rows {
                println!("{}", r.row());
            }
            if rows.len() == spec.epochs * spec.cells.len() {
                print!("{}", repro::monitor::report(rows));
                if let StageMode::Cached(root) = stage {
                    // The epoch-history index is longitudinal state, not
                    // campaign output: report it on stderr so stdout stays
                    // byte-identical across runs and worker counts.
                    match repro::monitor::commit_history(&spec, root) {
                        Ok(fresh) => eprintln!(
                            "monitor: committed {fresh} new epoch entr{} to {}",
                            if fresh == 1 { "y" } else { "ies" },
                            root.join("index").display()
                        ),
                        Err(e) => {
                            eprintln!("repro: epoch history commit failed: {e}");
                            failed += 1;
                        }
                    }
                }
            } else {
                eprintln!("repro: monitor history incomplete; skipping detection");
            }
        }
        "table1" => {
            // Static tables have nothing to record; in the staged modes they
            // print exactly as inline so `analyze` output stays comparable.
            if !recording {
                header("table1", "Replayed behaviours and latency anchors");
                repro::tables::print_table1();
            }
        }
        "table2" => {
            if !recording {
                header("table2", "Experiment goals");
                repro::tables::print_table2();
            }
        }
        "table3" | "fig6" => {
            header(name, "Tool accuracy and overhead (§7.1)");
            if let Some(parts) = staged_rows(
                repro::exp71::staged(s.accuracy_reps, SEED),
                opts,
                &mut failed,
            ) {
                for part in parts {
                    println!("{}", part.row());
                }
            }
        }
        "fig7" | "fig8" => {
            header(name, "Post uploading breakdown (§7.2)");
            if let Some(runs) =
                staged_rows(repro::exp72::staged(s.post_reps, SEED), opts, &mut failed)
            {
                println!("-- Fig 7: device vs network delay --");
                for r in &runs {
                    println!("{}", r.fig7);
                }
                println!("-- Fig 8: fine-grained network latency (2 photos) --");
                for r in &runs {
                    if let Some(nb) = &r.fig8 {
                        println!("{nb}");
                    }
                }
            }
        }
        "fig10" | "fig11" => {
            header(name, "Background data/energy vs post frequency (§7.3)");
            if let Some(rows) = staged_rows(
                repro::exp73::staged_fig10_11(s.bg_hours, SEED),
                opts,
                &mut failed,
            ) {
                for r in rows {
                    println!("{r}");
                }
            }
        }
        "fig12" | "fig13" => {
            header(name, "Background data/energy vs refresh interval (§7.3)");
            if let Some(rows) = staged_rows(
                repro::exp73::staged_fig12_13(s.bg_hours, SEED),
                opts,
                &mut failed,
            ) {
                for r in rows {
                    println!("{r}");
                }
            }
        }
        "fig14" | "fig15" | "fig16" => {
            header(name, "WebView vs ListView news feed updates (§7.4)");
            if let Some(rows) =
                staged_rows(repro::exp74::staged(s.updates, SEED), opts, &mut failed)
            {
                for r in rows {
                    println!("{r}");
                    let cdf = r.cdf();
                    println!(
                        "         cdf: {}  {}",
                        repro::render::cdf_strip(&cdf, 1e3, "ms"),
                        repro::render::sparkline(&cdf.values)
                    );
                }
            }
        }
        "fig17" => {
            header(name, "Throttled vs unthrottled video QoE (§7.5)");
            if let Some(rows) = staged_rows(
                repro::exp75::staged_fig17(s.videos, SEED),
                opts,
                &mut failed,
            ) {
                for r in rows {
                    println!("{r}");
                    println!(
                        "         loading cdf: {}",
                        repro::render::cdf_strip(&r.loading_cdf(), 1.0, "s")
                    );
                }
            }
        }
        "fig18" => {
            header(name, "Shaping vs policing throughput signature (§7.5)");
            if let Some(traces) = staged_rows(repro::exp75::staged_fig18(SEED), opts, &mut failed) {
                let hi = traces
                    .iter()
                    .flat_map(|t| t.series.iter().cloned())
                    .fold(0.0f64, f64::max);
                for r in traces {
                    println!("{r}");
                    let ds = repro::render::downsample(&r.series, 64);
                    println!("         {}", repro::render::sparkline_in(&ds, 0.0, hi));
                }
            }
        }
        "fig19" | "fig20" => {
            header(name, "QoE vs throttled bandwidth sweep (§7.5)");
            if let Some(rows) = staged_rows(
                repro::exp75::staged_sweep(s.sweep_videos, SEED),
                opts,
                &mut failed,
            ) {
                for r in rows {
                    println!("{r}");
                }
            }
        }
        "exp76" => {
            header(name, "Video ads and loading time (§7.6)");
            if let Some(rows) =
                staged_rows(repro::exp76::staged(s.ad_reps, SEED), opts, &mut failed)
            {
                for r in rows {
                    println!("{r}");
                }
            }
        }
        "ablation" => {
            header(
                name,
                "Ablations: mapper mechanisms, calibration, throttle discipline",
            );
            if let Some(parts) = staged_rows(
                repro::ablation::staged(s.post_reps.min(8), s.accuracy_reps, 128e3, SEED),
                opts,
                &mut failed,
            ) {
                for part in parts {
                    match &part {
                        repro::ablation::AblationPart::Mapper(_) => {
                            println!("-- long-jump mapper resync mechanisms --")
                        }
                        repro::ablation::AblationPart::Calibration(_) => {
                            println!("-- §5.1 calibration --")
                        }
                        repro::ablation::AblationPart::Discipline(_) => {
                            println!("-- token-bucket discipline at 128 kb/s on LTE --")
                        }
                    }
                    println!("{}", part.row());
                }
            }
        }
        "chaos" => {
            if !matches!(opts.mode, RunMode::Staged(StageMode::Inline)) {
                usage_error("chaos does not support record/analyze/cache (it must run inline)");
            }
            header(name, "Fault injection: QoE deltas + layer attribution");
            let rows = campaign_rows(repro::chaos::campaign(SEED), opts, &mut failed);
            let misses = rows
                .iter()
                .filter(|r| r.attribution_ok == Some(false))
                .count();
            let judged = rows.iter().filter(|r| r.attribution_ok.is_some()).count();
            for r in &rows {
                println!("{}", r.row());
            }
            println!(
                "attribution: {}/{judged} fault cells on-layer",
                judged - misses
            );
        }
        "exp77" => {
            header(name, "RRC state machine design and page loads (§7.7)");
            if let Some(rows) =
                staged_rows(repro::exp77::staged(s.page_reps, SEED), opts, &mut failed)
            {
                for r in &rows {
                    println!("{r}");
                }
                println!(
                    "3G simplification reduces page load time by {:.1}% (paper: 22.8%)",
                    repro::exp77::reduction_percent(&rows)
                );
            }
        }
        other => {
            let mut msg = format!("unknown experiment: {other}");
            if let Some(suggestion) = repro::cli::closest_experiment(other) {
                msg.push_str(&format!(" (did you mean `{suggestion}`?)"));
            }
            usage_error(&msg);
        }
    }
    failed
}
