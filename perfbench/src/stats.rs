//! The benchmark's own metric arithmetic: order statistics, executor idle
//! time, peak-memory parsing and the output-digest gate. Kept free of any
//! simulation code so the unit tests below run at a tiny input scale.

use std::time::Duration;

/// Median of `values` (mean of the middle pair for even counts).
///
/// # Panics
/// On an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A nearest-rank percentile together with the sample count it rests on,
/// so a p90 over four jobs is never mistaken for one over a thousand.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The percentile value.
    pub value: f64,
    /// How many samples it was taken from.
    pub samples: usize,
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `values`.
///
/// # Panics
/// On an empty slice or a `p` outside (0, 100].
pub fn percentile(values: &[f64], p: f64) -> Percentile {
    assert!(!values.is_empty(), "percentile of no samples");
    assert!(p > 0.0 && p <= 100.0, "percentile {p} out of range");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p / 100.0 * v.len() as f64).ceil() as usize;
    Percentile {
        value: v[rank.clamp(1, v.len()) - 1],
        samples: v.len(),
    }
}

/// Share of worker capacity the executor left unused:
/// `1 − Σ job wall / Σ (workers × makespan)` over one or more campaign runs,
/// each given as `(workers, makespan, job walls)`.
pub fn idle_frac<'a>(runs: impl IntoIterator<Item = (usize, Duration, &'a [Duration])>) -> f64 {
    let mut busy = 0.0;
    let mut capacity = 0.0;
    for (workers, makespan, jobs) in runs {
        busy += jobs.iter().map(Duration::as_secs_f64).sum::<f64>();
        capacity += workers as f64 * makespan.as_secs_f64();
    }
    if capacity <= 0.0 {
        0.0
    } else {
        1.0 - busy / capacity
    }
}

/// Peak resident set size in MiB from the text of `/proc/<pid>/status`
/// (its `VmHWM:` line, which the kernel reports in kB).
pub fn parse_vmhwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let kb: f64 = fields.next()?.parse().ok()?;
    match fields.next() {
        Some("kB") => Some(kb / 1024.0),
        _ => None,
    }
}

/// This process's peak resident set size in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    parse_vmhwm_mb(&std::fs::read_to_string("/proc/self/status").ok()?)
}

/// Order-sensitive FNV-1a digest of a workload's rendered result rows.
pub fn rows_digest<S: AsRef<str>>(rows: &[S]) -> u64 {
    rows.iter()
        .fold(trace::Digest::new().u64(rows.len() as u64), |d, r| {
            d.str(r.as_ref())
        })
        .finish()
}

/// What the digest gate concluded about one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DigestCheck {
    /// The rows hash to the digest pinned for the seed.
    Matched,
    /// No digest is pinned for the seed, so the rows were not compared;
    /// only the run's other checks apply.
    Unchecked,
}

/// Compare a run's row digest against the digest pinned for its seed.
/// A `required` seed (the default or the held-out one) must have a pin:
/// a missing pin fails exactly like a mismatch.
pub fn check_digest(
    found: u64,
    pinned: Option<u64>,
    required: bool,
) -> Result<DigestCheck, String> {
    match pinned {
        Some(want) if want == found => Ok(DigestCheck::Matched),
        Some(want) => Err(format!(
            "row digest {found:016x} differs from the pinned {want:016x}"
        )),
        None if required => Err(format!(
            "no digest pinned for this seed (rows hash to {found:016x})"
        )),
        None => Ok(DigestCheck::Unchecked),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn percentiles_carry_their_sample_count() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(
            percentile(&v, 50.0),
            Percentile {
                value: 5.0,
                samples: 10
            }
        );
        assert_eq!(percentile(&v, 90.0).value, 9.0);
        assert_eq!(percentile(&v, 100.0).value, 10.0);
        // Four jobs: p90 is simply the slowest, and says so.
        let four = [40.0, 10.0, 30.0, 20.0];
        assert_eq!(
            percentile(&four, 90.0),
            Percentile {
                value: 40.0,
                samples: 4
            }
        );
        assert_eq!(percentile(&four, 50.0).value, 20.0);
    }

    #[test]
    fn idle_frac_counts_straggler_tails() {
        let ms = Duration::from_millis;
        // Two workers, 10 ms makespan, jobs of 10 and 4 ms: 6 of 20 idle.
        let jobs = [ms(10), ms(4)];
        let f = idle_frac([(2, ms(10), &jobs[..])]);
        assert!((f - 0.3).abs() < 1e-12, "{f}");
        // Perfectly packed: no idle time.
        let packed = [ms(5), ms(5)];
        assert!(idle_frac([(2, ms(5), &packed[..])]).abs() < 1e-12);
        // Several runs pool their busy time and capacity.
        let f = idle_frac([(2, ms(10), &jobs[..]), (2, ms(5), &packed[..])]);
        assert!((f - 6.0 / 30.0).abs() < 1e-12, "{f}");
        assert_eq!(idle_frac(std::iter::empty()), 0.0);
    }

    #[test]
    fn vmhwm_parsing() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  300000 kB\nVmHWM:\t   51200 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_vmhwm_mb(status), Some(50.0));
        assert_eq!(parse_vmhwm_mb("VmRSS:\t1024 kB\n"), None);
        assert_eq!(parse_vmhwm_mb("VmHWM:\t12 MB\n"), None);
        assert_eq!(parse_vmhwm_mb("VmHWM:\tlots kB\n"), None);
        assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
    }

    #[test]
    fn digest_gate_rejects_altered_rows() {
        let rows = ["3G  n=4 loading p50 1.0s", "LTE n=4 loading p50 0.5s"];
        let pinned = rows_digest(&rows);
        assert_eq!(
            check_digest(rows_digest(&rows), Some(pinned), true),
            Ok(DigestCheck::Matched)
        );
        let altered = ["3G  n=4 loading p50 1.1s", "LTE n=4 loading p50 0.5s"];
        assert!(check_digest(rows_digest(&altered), Some(pinned), false).is_err());
        // Order and row boundaries are part of the digest.
        let swapped = [rows[1], rows[0]];
        assert!(check_digest(rows_digest(&swapped), Some(pinned), false).is_err());
        let merged = [format!("{}{}", rows[0], rows[1])];
        assert_ne!(rows_digest(&merged), pinned);
    }

    #[test]
    fn digest_gate_without_a_pin() {
        let found = rows_digest(&["LTE n=4 loading p50 0.5s"]);
        // A seed that must be pinned fails when it is not.
        assert!(check_digest(found, None, true).is_err());
        // Any other seed is reported as unchecked, never as matched.
        assert_eq!(check_digest(found, None, false), Ok(DigestCheck::Unchecked));
    }
}
