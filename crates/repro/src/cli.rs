//! The experiment index and its runner. [`EXPERIMENTS`] declares every
//! experiment the `repro` binary accepts, once: its ids and `repro list`
//! lines, its header title, whether `repro all` runs it, the run modes it
//! supports, and the function that builds its campaign and prints its rows.
//! Dispatch, `all`, `repro list`, the usage text and the closest-match
//! suggestion on typos all read that table.

use std::path::PathBuf;

use harness::{Campaign, Outcome, Record, StageMode, StagedCampaign};
use trace::BundleArtifact;

use crate::ablation::AblationPart;
use crate::exp73::RUN_HOURS;
use crate::render;

/// The seed every experiment derives its job seeds from.
const SEED: u64 = 20140705;

/// How the record and analyze stages of each campaign are executed.
pub enum RunMode {
    /// Record bundles under the root; skip analysis.
    Record(PathBuf),
    /// Produce analysis rows through a staged-campaign lowering (inline,
    /// analyze-from-disk, or cached).
    Staged(StageMode),
}

/// The run modes an experiment supports. `repro all` runs the experiments
/// that support every mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Modes {
    /// Static text: printed as inline in every analysis mode, so `analyze`
    /// output stays comparable; `record` has nothing to record and skips it.
    Static,
    /// A staged campaign: inline, `record`, `analyze` and `--cache`.
    Staged,
    /// An epoch history: inline and `--cache` runs only, and `--epochs`
    /// sets its length.
    Longitudinal,
    /// Inline runs only.
    Inline,
}

/// One experiment of the index.
pub struct Experiment {
    /// Its ids, each with its `repro list` line. The first is the id `all`
    /// runs; the rest are aliases.
    pub ids: &'static [(&'static str, &'static str)],
    /// The title its header prints.
    pub title: &'static str,
    /// The run modes it supports.
    pub modes: Modes,
    /// Build its campaign and print its rows.
    pub run: fn(&mut Runner),
}

/// Every experiment, in `repro list` order; `repro all` runs the ones that
/// support every run mode, in this order.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        ids: &[("table1", "Replayed behaviours and latency anchors")],
        title: "Replayed behaviours and latency anchors",
        modes: Modes::Static,
        run: |_| crate::tables::print_table1(),
    },
    Experiment {
        ids: &[("table2", "Experiment goals")],
        title: "Experiment goals",
        modes: Modes::Static,
        run: |_| crate::tables::print_table2(),
    },
    Experiment {
        ids: &[
            ("table3", "Tool accuracy and overhead (§7.1)"),
            ("fig6", "Alias of table3: accuracy and overhead (§7.1)"),
        ],
        title: "Tool accuracy and overhead (§7.1)",
        modes: Modes::Staged,
        run: |r| r.print_staged(crate::exp71::staged(r.scaled(30, 6), SEED)),
    },
    Experiment {
        ids: &[
            ("fig7", "Post uploading: device vs network delay (§7.2)"),
            (
                "fig8",
                "Fine-grained network latency of a 2-photo post (§7.2)",
            ),
        ],
        title: "Post uploading breakdown (§7.2)",
        modes: Modes::Staged,
        run: post_breakdown,
    },
    Experiment {
        ids: &[
            ("fig10", "Background data vs post frequency (§7.3)"),
            ("fig11", "Background energy vs post frequency (§7.3)"),
        ],
        title: "Background data/energy vs post frequency (§7.3)",
        modes: Modes::Staged,
        run: |r| r.print_staged(crate::exp73::staged_fig10_11(r.scaled(RUN_HOURS, 2), SEED)),
    },
    Experiment {
        ids: &[
            ("fig12", "Background data vs refresh interval (§7.3)"),
            ("fig13", "Background energy vs refresh interval (§7.3)"),
        ],
        title: "Background data/energy vs refresh interval (§7.3)",
        modes: Modes::Staged,
        run: |r| r.print_staged(crate::exp73::staged_fig12_13(r.scaled(RUN_HOURS, 2), SEED)),
    },
    Experiment {
        ids: &[
            (
                "fig14",
                "News feed update latency, WebView vs ListView (§7.4)",
            ),
            ("fig15", "Feed update device/network breakdown (§7.4)"),
            ("fig16", "Network data per feed update (§7.4)"),
        ],
        title: "WebView vs ListView news feed updates (§7.4)",
        modes: Modes::Staged,
        run: feed_updates,
    },
    Experiment {
        ids: &[("fig17", "Throttled vs unthrottled video QoE (§7.5)")],
        title: "Throttled vs unthrottled video QoE (§7.5)",
        modes: Modes::Staged,
        run: video_qoe,
    },
    Experiment {
        ids: &[("fig18", "Shaping vs policing throughput signature (§7.5)")],
        title: "Shaping vs policing throughput signature (§7.5)",
        modes: Modes::Staged,
        run: throughput_signature,
    },
    Experiment {
        ids: &[
            ("fig19", "Rebuffering vs throttled bandwidth sweep (§7.5)"),
            (
                "fig20",
                "Initial loading vs throttled bandwidth sweep (§7.5)",
            ),
        ],
        title: "QoE vs throttled bandwidth sweep (§7.5)",
        modes: Modes::Staged,
        run: |r| r.print_staged(crate::exp75::staged_sweep(r.scaled(6, 2), SEED)),
    },
    Experiment {
        ids: &[("exp76", "Video ads and loading time (§7.6)")],
        title: "Video ads and loading time (§7.6)",
        modes: Modes::Staged,
        run: |r| r.print_staged(crate::exp76::staged(r.scaled(8, 2), SEED)),
    },
    Experiment {
        ids: &[("exp77", "RRC state machine design and page loads (§7.7)")],
        title: "RRC state machine design and page loads (§7.7)",
        modes: Modes::Staged,
        run: rrc_page_loads,
    },
    Experiment {
        ids: &[(
            "ablation",
            "Mapper, calibration and throttle-discipline ablations",
        )],
        title: "Ablations: mapper mechanisms, calibration, throttle discipline",
        modes: Modes::Staged,
        run: ablations,
    },
    Experiment {
        ids: &[("chaos", "Fault injection: QoE deltas + layer attribution")],
        title: "Fault injection: QoE deltas + layer attribution",
        modes: Modes::Inline,
        run: chaos_grid,
    },
    Experiment {
        ids: &[(
            "monitor",
            "Longitudinal monitoring: epoch regressions + layer attribution",
        )],
        title: "Longitudinal QoE monitoring: epoch regressions + attribution",
        modes: Modes::Longitudinal,
        run: monitoring,
    },
];

/// The commands `repro list` prints after the experiments.
pub const COMMANDS: &[(&str, &str)] = &[
    ("list", "Print this experiment index"),
    (
        "all",
        "Every experiment above except chaos and monitor, aliases once",
    ),
];

/// Every id and command with its `repro list` line, in list order.
fn index() -> impl Iterator<Item = &'static (&'static str, &'static str)> {
    EXPERIMENTS.iter().flat_map(|e| e.ids).chain(COMMANDS)
}

/// The experiments `what` selects, each with the id it is invoked by:
/// none for `list`, the first id of each one that supports every run mode
/// for `all`, else the one `what` names. The error is a usage message: an
/// unknown id (with the closest match), or a run mode or flag of `runner`
/// that a selected experiment does not support.
pub fn select<'a>(
    what: &'a str,
    runner: &Runner,
) -> Result<Vec<(&'a str, &'static Experiment)>, String> {
    let selection = match what {
        "list" => Vec::new(),
        "all" => EXPERIMENTS
            .iter()
            .filter(|e| matches!(e.modes, Modes::Static | Modes::Staged))
            .map(|e| (e.ids[0].0, e))
            .collect(),
        id => match EXPERIMENTS
            .iter()
            .find(|e| e.ids.iter().any(|(i, _)| *i == id))
        {
            Some(e) => vec![(id, e)],
            None => {
                return Err(match closest_experiment(id) {
                    Some(s) => format!("unknown experiment: {id} (did you mean `{s}`?)"),
                    None => format!("unknown experiment: {id}"),
                })
            }
        },
    };
    let longitudinal = |(_, e): &(&str, &Experiment)| e.modes == Modes::Longitudinal;
    if runner.epochs.is_some() && (selection.is_empty() || !selection.iter().all(longitudinal)) {
        return Err("--epochs only applies to `monitor`".into());
    }
    let inline = matches!(runner.mode, RunMode::Staged(StageMode::Inline));
    let cached = matches!(runner.mode, RunMode::Staged(StageMode::Cached(_)));
    for (id, e) in &selection {
        let msg = match e.modes {
            Modes::Longitudinal if !(inline || cached) => "supports only inline and --cache runs",
            Modes::Inline if !inline => {
                "does not support record/analyze/cache (it must run inline)"
            }
            _ => continue,
        };
        return Err(format!("{id} {msg}"));
    }
    Ok(selection)
}

/// Print the experiment index, one `id  description` line per entry.
pub fn print_list() {
    for (id, desc) in index() {
        println!("{id:<10} {desc}");
    }
}

/// The experiment block of the usage text: every experiment id, then
/// `all`, ten to a line.
pub fn usage_ids() -> String {
    let ids: Vec<&str> = EXPERIMENTS
        .iter()
        .flat_map(|e| e.ids.iter().map(|(id, _)| *id))
        .chain(["all"])
        .collect();
    let mut lines: Vec<String> = ids
        .chunks(10)
        .map(|c| format!("  {}\n", c.join(" ")))
        .collect();
    if let Some(last) = lines.last_mut() {
        *last = format!(
            "{:<29}(`repro list` prints one-line descriptions)\n",
            last.trim_end()
        );
    }
    lines.concat()
}

/// Levenshtein edit distance (insert/delete/substitute, unit costs).
fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    // One rolling row of the DP matrix.
    let mut row: Vec<usize> = (0..=b.len()).collect();
    for (i, &ca) in a.iter().enumerate() {
        let mut prev_diag = row[0];
        row[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev_diag + usize::from(ca != cb);
            prev_diag = row[j + 1];
            row[j + 1] = sub.min(row[j] + 1).min(prev_diag + 1);
        }
    }
    row[b.len()]
}

/// The closest experiment id to `input`, if any is close enough to be a
/// plausible typo (distance at most 2, and strictly less than the length
/// of the input so that arbitrary short strings don't match).
fn closest_experiment(input: &str) -> Option<&'static str> {
    index()
        .map(|(c, _)| (edit_distance(input, c), *c))
        .min_by_key(|(d, _)| *d)
        .filter(|(d, _)| *d <= 2 && *d < input.chars().count())
        .map(|(_, c)| c)
}

/// One invocation's settings and its tally of failed campaign jobs.
pub struct Runner {
    /// Whether to run the reduced `--quick` counts (CI scale) instead of
    /// the counts EXPERIMENTS.md records.
    pub quick: bool,
    /// Worker threads per campaign.
    pub jobs: usize,
    /// Where campaign reports go, if anywhere.
    pub json: Option<PathBuf>,
    /// How staged campaigns are lowered.
    pub mode: RunMode,
    /// Monitoring history length, if given.
    pub epochs: Option<usize>,
    /// Failed campaign jobs so far.
    pub failed: usize,
}

impl Runner {
    /// `full`, or `quick` under `--quick`.
    fn scaled<T>(&self, full: T, quick: T) -> T {
        if self.quick {
            quick
        } else {
            full
        }
    }

    /// Print `exp`'s header, titled with the `id` it was invoked by, and
    /// run it. A static experiment has nothing to record, so `record`
    /// skips it, header included.
    pub fn run(&mut self, id: &str, exp: &Experiment) {
        if exp.modes == Modes::Static && matches!(self.mode, RunMode::Record(_)) {
            return;
        }
        println!("\n=== {id} — {} ===", exp.title);
        (exp.run)(self);
    }

    /// Run one campaign on the configured worker count, write its JSON
    /// report if `--json` was given, report failed jobs on stderr, and hand
    /// back the successful rows in job order.
    fn rows<T: Record + Send>(&mut self, c: Campaign<T>) -> Vec<T> {
        let run = c.run(self.jobs);
        if let Some(dir) = &self.json {
            match harness::write_report(dir, &run) {
                Ok(path) => eprintln!("wrote {}", path.display()),
                Err(e) => eprintln!("repro: failed to write report for {}: {e}", run.name),
            }
        }
        self.failed += run.failed();
        if !matches!(self.mode, RunMode::Staged(StageMode::Inline)) {
            // A faulted job in a staged mode means a bundle was missing,
            // stale or unreadable — that must fail the invocation, not just
            // skip a row (inline campaigns have their own fault policy).
            self.failed += run.faulted();
        }
        run.jobs
            .into_iter()
            .filter_map(|j| {
                let (how, msg) = match j.outcome {
                    Outcome::Ok(row) => return Some(row),
                    Outcome::Faulted(reason) => ("faulted", reason),
                    Outcome::Panicked(msg) => ("panicked", msg),
                };
                eprintln!(
                    "repro: job {}/{} (seed {}) {how}: {msg}",
                    run.name, j.label, j.seed
                );
                None
            })
            .collect()
    }

    /// Lower a staged campaign according to the run mode. In `record` mode
    /// the bundle rows are printed here and `None` is returned (there are
    /// no analysis rows to print); otherwise the analysis rows come back
    /// for the experiment's own printing, which the inline, analyze and
    /// cached modes share verbatim.
    fn staged<A, T>(&mut self, staged: StagedCampaign<A, T>) -> Option<Vec<T>>
    where
        A: BundleArtifact + Send + 'static,
        T: Record + Send + 'static,
    {
        match &self.mode {
            RunMode::Record(root) => {
                let c = staged.into_record_campaign(root);
                for row in self.rows(c) {
                    println!("{row}");
                }
                None
            }
            RunMode::Staged(mode) => {
                let c = staged.into_campaign(mode);
                Some(self.rows(c))
            }
        }
    }

    /// Lower a staged campaign and print each of its rows.
    fn print_staged<A, T>(&mut self, staged: StagedCampaign<A, T>)
    where
        A: BundleArtifact + Send + 'static,
        T: Record + Send + 'static,
    {
        for row in self.staged(staged).into_iter().flatten() {
            println!("{row}");
        }
    }
}

fn post_breakdown(r: &mut Runner) {
    let Some(runs) = r.staged(crate::exp72::staged(r.scaled(15, 4), SEED)) else {
        return;
    };
    println!("-- Fig 7: device vs network delay --");
    for run in &runs {
        println!("{run}");
    }
    println!("-- Fig 8: fine-grained network latency (2 photos) --");
    for nb in runs.iter().filter_map(|run| run.fig8.as_ref()) {
        println!("{nb}");
    }
}

fn feed_updates(r: &mut Runner) {
    let Some(runs) = r.staged(crate::exp74::staged(r.scaled(30, 6), SEED)) else {
        return;
    };
    for run in runs {
        println!("{run}");
        let cdf = run.cdf();
        println!(
            "         cdf: {}  {}",
            render::cdf_strip(&cdf, 1e3, "ms"),
            render::sparkline(&cdf.values)
        );
    }
}

fn video_qoe(r: &mut Runner) {
    let Some(runs) = r.staged(crate::exp75::staged_fig17(r.scaled(24, 4), SEED)) else {
        return;
    };
    for run in runs {
        println!("{run}");
        println!(
            "         loading cdf: {}",
            render::cdf_strip(&run.loading_cdf(), 1.0, "s")
        );
    }
}

fn throughput_signature(r: &mut Runner) {
    let Some(traces) = r.staged(crate::exp75::staged_fig18(SEED)) else {
        return;
    };
    let hi = traces
        .iter()
        .flat_map(|t| t.series.iter().cloned())
        .fold(0.0f64, f64::max);
    for t in traces {
        println!("{t}");
        let ds = render::downsample(&t.series, 64);
        println!("         {}", render::sparkline_in(&ds, 0.0, hi));
    }
}

fn rrc_page_loads(r: &mut Runner) {
    let Some(rows) = r.staged(crate::exp77::staged(r.scaled(12, 3), SEED)) else {
        return;
    };
    for row in &rows {
        println!("{row}");
    }
    println!(
        "3G simplification reduces page load time by {:.1}% (paper: 22.8%)",
        crate::exp77::reduction_percent(&rows)
    );
}

fn ablations(r: &mut Runner) {
    let staged = crate::ablation::staged(r.scaled(8, 4), r.scaled(30, 6), 128e3, SEED);
    for part in r.staged(staged).into_iter().flatten() {
        println!(
            "{}",
            match part {
                AblationPart::Mapper(_) => "-- long-jump mapper resync mechanisms --",
                AblationPart::Calibration(_) => "-- §5.1 calibration --",
                AblationPart::Discipline(_) => "-- token-bucket discipline at 128 kb/s on LTE --",
            }
        );
        println!("{part}");
    }
}

fn chaos_grid(r: &mut Runner) {
    let rows = r.rows(crate::chaos::campaign(SEED));
    for row in &rows {
        println!("{row}");
    }
    let verdicts: Vec<bool> = rows.iter().filter_map(|row| row.attribution_ok).collect();
    let on_layer = verdicts.iter().filter(|ok| **ok).count();
    println!(
        "attribution: {on_layer}/{} fault cells on-layer",
        verdicts.len()
    );
}

fn monitoring(r: &mut Runner) {
    let RunMode::Staged(stage) = &r.mode else {
        unreachable!("`check` admits only inline and cached monitor runs")
    };
    let stage = stage.clone();
    let spec = crate::monitor::spec(r.epochs.unwrap_or(r.scaled(10, 6)), SEED);
    let rows = r.rows(spec.build().into_campaign(&stage));
    for row in &rows {
        println!("{row}");
    }
    if rows.len() != spec.epochs * spec.cells.len() {
        eprintln!("repro: monitor history incomplete; skipping detection");
        return;
    }
    print!("{}", crate::monitor::report(rows));
    if let StageMode::Cached(root) = &stage {
        // The epoch-history index is longitudinal state, not campaign
        // output: report it on stderr so stdout stays byte-identical across
        // runs and worker counts.
        match crate::monitor::commit_history(&spec, root) {
            Ok(fresh) => eprintln!(
                "monitor: committed {fresh} new epoch entr{} to {}",
                if fresh == 1 { "y" } else { "ies" },
                root.join("index").display()
            ),
            Err(e) => {
                eprintln!("repro: epoch history commit failed: {e}");
                r.failed += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_basics() {
        assert_eq!(edit_distance("fig17", "fig17"), 0);
        assert_eq!(edit_distance("fig17", "fig7"), 1);
        assert_eq!(edit_distance("", "abc"), 3);
        assert_eq!(edit_distance("kitten", "sitting"), 3);
    }

    #[test]
    fn suggests_plausible_typos_only() {
        assert_eq!(closest_experiment("fig71"), Some("fig7"));
        assert_eq!(closest_experiment("tabel3"), Some("table3"));
        assert_eq!(closest_experiment("ablatoin"), Some("ablation"));
        assert_eq!(closest_experiment("chaoss"), Some("chaos"));
        assert_eq!(closest_experiment("monitr"), Some("monitor"));
        assert_eq!(closest_experiment("lsit"), Some("list"));
        // Nothing resembles this; no suggestion.
        assert_eq!(closest_experiment("zzzzzzzzz"), None);
        // Exact ids are obviously their own closest match.
        assert_eq!(closest_experiment("fig17"), Some("fig17"));
    }

    #[test]
    fn index_has_descriptions_for_every_id() {
        for (id, desc) in index() {
            assert!(!id.is_empty() && !desc.is_empty());
        }
        for e in EXPERIMENTS {
            assert!(!e.ids.is_empty() && !e.title.is_empty());
        }
        // Ids are unique.
        let mut ids: Vec<&str> = index().map(|(id, _)| *id).collect();
        let n = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), n);
    }

    fn runner(mode: RunMode, epochs: Option<usize>) -> Runner {
        Runner {
            quick: true,
            jobs: 1,
            json: None,
            mode,
            epochs,
            failed: 0,
        }
    }

    fn ids(what: &str, runner: &Runner) -> Result<Vec<&'static str>, String> {
        select(what, runner).map(|sel| sel.iter().map(|(_, e)| e.ids[0].0).collect())
    }

    #[test]
    fn all_runs_one_id_per_campaign_in_report_order() {
        let inline = runner(RunMode::Staged(StageMode::Inline), None);
        assert_eq!(
            ids("all", &inline).unwrap(),
            [
                "table1", "table2", "table3", "fig7", "fig10", "fig12", "fig14", "fig17", "fig18",
                "fig19", "exp76", "exp77", "ablation"
            ]
        );
        // `record all` selects only what can be recorded.
        let record = runner(RunMode::Record(PathBuf::from("bundles")), None);
        assert!(ids("all", &record).is_ok());
    }

    #[test]
    fn aliases_select_their_experiment_under_their_own_id() {
        let inline = runner(RunMode::Staged(StageMode::Inline), None);
        let sel = select("fig16", &inline).unwrap();
        assert_eq!(sel.len(), 1);
        assert_eq!((sel[0].0, sel[0].1.ids[0].0), ("fig16", "fig14"));
        assert_eq!(ids("fig6", &inline).unwrap(), ["table3"]);
        assert_eq!(ids("list", &inline).unwrap(), Vec::<&str>::new());
    }

    #[test]
    fn selection_errors_keep_their_wording() {
        let inline = runner(RunMode::Staged(StageMode::Inline), None);
        assert_eq!(
            ids("tabel3", &inline).unwrap_err(),
            "unknown experiment: tabel3 (did you mean `table3`?)"
        );
        let epochs = runner(RunMode::Staged(StageMode::Inline), Some(3));
        assert!(ids("monitor", &epochs).is_ok());
        for what in ["all", "list", "chaos"] {
            assert_eq!(
                ids(what, &epochs).unwrap_err(),
                "--epochs only applies to `monitor`"
            );
        }
        let analyze = runner(RunMode::Staged(StageMode::Analyze("b".into())), None);
        assert_eq!(
            ids("monitor", &analyze).unwrap_err(),
            "monitor supports only inline and --cache runs"
        );
        let cached = runner(RunMode::Staged(StageMode::Cached("b".into())), None);
        assert!(ids("monitor", &cached).is_ok());
        assert_eq!(
            ids("chaos", &cached).unwrap_err(),
            "chaos does not support record/analyze/cache (it must run inline)"
        );
    }

    #[test]
    fn usage_lists_every_id_ten_to_a_line() {
        assert_eq!(
            usage_ids(),
            "  table1 table2 table3 fig6 fig7 fig8 fig10 fig11 fig12 fig13\n  \
             fig14 fig15 fig16 fig17 fig18 fig19 fig20 exp76 exp77 ablation\n  \
             chaos monitor all          (`repro list` prints one-line descriptions)\n"
        );
    }
}
