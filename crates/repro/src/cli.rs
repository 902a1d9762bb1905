//! CLI helpers: the experiment index (`repro list`) and experiment-name
//! matching for friendlier usage errors.

/// Every experiment id the binary accepts (including aliases), with a
/// one-line description. This is the single source of truth for both
/// `repro list` and the closest-match suggestion on typos.
pub const EXPERIMENTS: &[(&str, &str)] = &[
    ("table1", "Replayed behaviours and latency anchors"),
    ("table2", "Experiment goals"),
    ("table3", "Tool accuracy and overhead (§7.1)"),
    ("fig6", "Alias of table3: accuracy and overhead (§7.1)"),
    ("fig7", "Post uploading: device vs network delay (§7.2)"),
    (
        "fig8",
        "Fine-grained network latency of a 2-photo post (§7.2)",
    ),
    ("fig10", "Background data vs post frequency (§7.3)"),
    ("fig11", "Background energy vs post frequency (§7.3)"),
    ("fig12", "Background data vs refresh interval (§7.3)"),
    ("fig13", "Background energy vs refresh interval (§7.3)"),
    (
        "fig14",
        "News feed update latency, WebView vs ListView (§7.4)",
    ),
    ("fig15", "Feed update device/network breakdown (§7.4)"),
    ("fig16", "Network data per feed update (§7.4)"),
    ("fig17", "Throttled vs unthrottled video QoE (§7.5)"),
    ("fig18", "Shaping vs policing throughput signature (§7.5)"),
    ("fig19", "Rebuffering vs throttled bandwidth sweep (§7.5)"),
    (
        "fig20",
        "Initial loading vs throttled bandwidth sweep (§7.5)",
    ),
    ("exp76", "Video ads and loading time (§7.6)"),
    ("exp77", "RRC state machine design and page loads (§7.7)"),
    (
        "ablation",
        "Mapper, calibration and throttle-discipline ablations",
    ),
    ("chaos", "Fault injection: QoE deltas + layer attribution"),
    (
        "monitor",
        "Longitudinal monitoring: epoch regressions + layer attribution",
    ),
    ("list", "Print this experiment index"),
    (
        "all",
        "Every experiment above except chaos and monitor, aliases once",
    ),
];

/// The experiments `repro all` runs, in order: one id per campaign, so
/// aliases (`fig6`, `fig8`, `fig11`, `fig13`, `fig15`, `fig16`, `fig20`)
/// are covered by the id they alias. `chaos` and `monitor` run only on
/// request.
pub const ALL: &[&str] = &[
    "table1", "table2", "table3", "fig7", "fig10", "fig12", "fig14", "fig17", "fig18", "fig19",
    "exp76", "exp77", "ablation",
];

/// Print the experiment index, one `id  description` line per entry.
pub fn print_list() {
    for (name, desc) in EXPERIMENTS {
        println!("{name:<10} {desc}");
    }
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
pub fn closest_experiment(input: &str) -> Option<&'static str> {
    EXPERIMENTS
        .iter()
        .map(|(c, _)| (edit_distance(input, c), *c))
        .min_by_key(|(d, _)| *d)
        .filter(|(d, _)| *d <= 2 && *d < input.chars().count())
        .map(|(_, c)| c)
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
        // Nothing resembles this; no suggestion.
        assert_eq!(closest_experiment("zzzzzzzzz"), None);
        // Exact ids are obviously their own closest match.
        assert_eq!(closest_experiment("fig17"), Some("fig17"));
    }

    #[test]
    fn index_has_descriptions_for_every_id() {
        for (name, desc) in EXPERIMENTS {
            assert!(!name.is_empty() && !desc.is_empty());
        }
        // Ids are unique.
        let mut names: Vec<&str> = EXPERIMENTS.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), EXPERIMENTS.len());
    }
}
