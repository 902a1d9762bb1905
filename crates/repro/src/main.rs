//! `repro` — regenerate every table and figure of the QoE Doctor paper.
//!
//! ```text
//! repro [experiment] [--quick] [--jobs N] [--json DIR] [--cache DIR]
//! repro record [experiment] --out DIR [--quick] [--jobs N] [--json DIR]
//! repro analyze DIR [experiment] [--quick] [--jobs N] [--json DIR]
//! ```
//!
//! `repro list` prints every experiment id with a one-line description;
//! the ids, their headers and what `all` runs are declared once, in
//! [`repro::cli::EXPERIMENTS`]. This binary parses the arguments and looks
//! the ids up there.
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

use harness::StageMode;
use repro::cli::{self, RunMode, Runner};

const USAGE_HEAD: &str = "\
usage: repro [experiment] [--quick] [--jobs N] [--json DIR] [--cache DIR]
       repro record [experiment] --out DIR [--quick] [--jobs N] [--json DIR]
       repro analyze DIR [experiment] [--quick] [--jobs N] [--json DIR]

experiments:
";

const USAGE_TAIL: &str = "
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

/// The usage text: its experiment block is read from the index.
fn usage() -> String {
    format!("{USAGE_HEAD}{}{USAGE_TAIL}", cli::usage_ids())
}

fn usage_error(msg: &str) -> ! {
    eprintln!("repro: {msg}\n\n{}", usage());
    std::process::exit(2);
}

fn parse_args(args: Vec<String>) -> (String, Runner) {
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
        let positive = |name: &str, v: String| match v.parse::<usize>() {
            Ok(n) if n > 0 => Some(n),
            _ => usage_error(&format!("invalid {name} value: {v:?}")),
        };
        match flag.as_str() {
            "--quick" => {
                no_value("--quick");
                quick = true;
            }
            "--jobs" => jobs = positive("--jobs", value("--jobs")),
            "--epochs" => epochs = positive("--epochs", value("--epochs")),
            "--json" => json = Some(PathBuf::from(value("--json"))),
            "--out" => out = Some(PathBuf::from(value("--out"))),
            "--cache" => cache = Some(PathBuf::from(value("--cache"))),
            "--help" | "-h" => {
                no_value(&flag);
                print!("{}", usage());
                std::process::exit(0);
            }
            f if f.starts_with('-') => usage_error(&format!("unknown flag: {f}")),
            _ => positional.push(arg),
        }
    }

    let mut pos = positional.into_iter();
    let mut what = pos.next();
    let mode = match what.as_deref() {
        Some("record") => {
            let root = out.unwrap_or_else(|| usage_error("record requires --out DIR"));
            if cache.is_some() {
                usage_error("--cache cannot be combined with record");
            }
            what = pos.next();
            RunMode::Record(root)
        }
        Some("analyze") => {
            let root = pos
                .next()
                .unwrap_or_else(|| usage_error("analyze requires a bundle directory"));
            what = pos.next();
            if out.is_some() || cache.is_some() {
                usage_error("--out/--cache cannot be combined with analyze");
            }
            RunMode::Staged(StageMode::Analyze(PathBuf::from(root)))
        }
        _ => {
            if out.is_some() {
                usage_error("--out only applies to `record`");
            }
            RunMode::Staged(cache.map_or(StageMode::Inline, StageMode::Cached))
        }
    };
    if let Some(extra) = pos.next() {
        usage_error(&format!("unexpected extra argument: {extra}"));
    }

    let what = what.unwrap_or_else(|| "all".to_string());
    let runner = Runner {
        quick,
        jobs: jobs.unwrap_or_else(harness::default_workers),
        json,
        mode,
        epochs,
        failed: 0,
    };
    (what, runner)
}

fn main() -> ExitCode {
    let (what, mut runner) = parse_args(env::args().skip(1).collect());

    let selection = cli::select(&what, &runner).unwrap_or_else(|msg| usage_error(&msg));
    if selection.is_empty() {
        cli::print_list();
    }
    for (id, e) in selection {
        runner.run(id, e);
    }

    if runner.failed > 0 {
        eprintln!(
            "repro: {} campaign job(s) failed (reported above)",
            runner.failed
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
