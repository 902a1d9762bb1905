//! Statistics helpers for experiment reporting.
//!
//! The paper reports results as means with standard deviations, CDFs
//! (Figs. 14 and 17), and throughput time series (Fig. 18). These small
//! containers compute exactly those summaries.

/// Summary statistics over a set of f64 samples.
///
/// # Empty input
///
/// `Summary::of(&[])` (and merging only empty parts) is well-defined and
/// returns the all-zero summary: `n = 0` and every statistic — mean,
/// std_dev, min, max, median — equal to `0.0`. Callers must branch on
/// `n == 0` before interpreting the other fields; a zero min/max of an
/// empty set is a placeholder, not an observation.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Arithmetic mean, 0 when empty.
    pub mean: f64,
    /// Population standard deviation, 0 when empty.
    pub std_dev: f64,
    /// Minimum, 0 when empty.
    pub min: f64,
    /// Maximum, 0 when empty.
    pub max: f64,
    /// Median (50th percentile), 0 when empty.
    pub median: f64,
}

impl Summary {
    /// Merge summaries of disjoint sample sets, as the campaign harness does
    /// when combining per-job results. `n`, `mean`, `std_dev`, `min` and
    /// `max` are exact (pooled moments); the merged `median` is the
    /// sample-count-weighted mean of the part medians, an approximation —
    /// merge [`Cdf`]s instead when an exact quantile is needed.
    pub fn merge(parts: &[Summary]) -> Summary {
        let n: usize = parts.iter().map(|p| p.n).sum();
        if n == 0 {
            return Summary::of(&[]);
        }
        let nf = n as f64;
        let mean = parts.iter().map(|p| p.mean * p.n as f64).sum::<f64>() / nf;
        // E[x^2] pooled from each part's mean and variance.
        let ex2 = parts
            .iter()
            .map(|p| (p.std_dev.powi(2) + p.mean.powi(2)) * p.n as f64)
            .sum::<f64>()
            / nf;
        let occupied = parts.iter().filter(|p| p.n > 0);
        Summary {
            n,
            mean,
            std_dev: (ex2 - mean.powi(2)).max(0.0).sqrt(),
            min: occupied
                .clone()
                .map(|p| p.min)
                .fold(f64::INFINITY, f64::min),
            max: occupied
                .clone()
                .map(|p| p.max)
                .fold(f64::NEG_INFINITY, f64::max),
            median: occupied.map(|p| p.median * p.n as f64).sum::<f64>() / nf,
        }
    }

    /// Compute summary statistics of `samples`.
    pub fn of(samples: &[f64]) -> Summary {
        SortedSamples::of(samples).summary()
    }
}

/// A sample set sorted **once**, from which every order statistic — summary,
/// percentiles, CDF — is derived without re-sorting.
///
/// [`Summary::of`], [`percentile`] and [`Cdf::of`] each sort their input;
/// code that needs more than one of them from the same samples (the campaign
/// report does all three per sample set) used to pay one `to_vec` + sort per
/// call. Build a `SortedSamples` instead and every further question is
/// `O(1)` or `O(log n)`.
#[derive(Debug, Clone, PartialEq)]
pub struct SortedSamples {
    sorted: Vec<f64>,
}

impl SortedSamples {
    /// Copy and sort `samples` (the one and only sort).
    pub fn of(samples: &[f64]) -> SortedSamples {
        SortedSamples::from_vec(samples.to_vec())
    }

    /// Take ownership of `samples` and sort in place — no copy at all.
    pub fn from_vec(mut samples: Vec<f64>) -> SortedSamples {
        samples.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
        SortedSamples { sorted: samples }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True when no samples were given.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Percentile via [`percentile_sorted`] — no re-sort.
    pub fn percentile(&self, p: f64) -> f64 {
        percentile_sorted(&self.sorted, p)
    }

    /// Summary statistics. Min/max/median read the sorted ends directly;
    /// mean and variance are one linear pass.
    pub fn summary(&self) -> Summary {
        if self.sorted.is_empty() {
            return Summary {
                n: 0,
                mean: 0.0,
                std_dev: 0.0,
                min: 0.0,
                max: 0.0,
                median: 0.0,
            };
        }
        let n = self.sorted.len();
        let mean = self.sorted.iter().sum::<f64>() / n as f64;
        let var = self.sorted.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        Summary {
            n,
            mean,
            std_dev: var.sqrt(),
            min: self.sorted[0],
            max: self.sorted[n - 1],
            median: percentile_sorted(&self.sorted, 50.0),
        }
    }

    /// The empirical CDF, reusing this sort (consumes self; no copy).
    pub fn into_cdf(self) -> Cdf {
        Cdf {
            values: self.sorted,
        }
    }
}

/// Percentile of an ascending-sorted slice using linear interpolation.
/// `p` is in `[0, 100]`. Panics if the slice is empty.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of empty slice");
    let p = p.clamp(0.0, 100.0);
    if sorted.len() == 1 {
        return sorted[0];
    }
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

/// Percentile of an unsorted slice. Copies and sorts per call — callers that
/// already hold sorted data (a [`Cdf`], a [`SortedSamples`]) must use
/// [`percentile_sorted`] instead, and callers needing several percentiles of
/// the same samples should sort once via [`SortedSamples`].
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    percentile_sorted(&sorted, p)
}

/// Midranks of `samples`: element `i` of the result is the 1-based rank of
/// `samples[i]` in ascending order, with tied values all assigned the mean
/// of the ranks they occupy (the standard tie treatment for rank tests such
/// as Mann–Whitney). Empty input yields an empty vector. Panics on NaN.
pub fn midranks(samples: &[f64]) -> Vec<f64> {
    let mut order: Vec<usize> = (0..samples.len()).collect();
    order.sort_by(|&a, &b| samples[a].partial_cmp(&samples[b]).expect("NaN sample"));
    let mut ranks = vec![0.0; samples.len()];
    let mut i = 0;
    while i < order.len() {
        let mut j = i + 1;
        while j < order.len() && samples[order[j]] == samples[order[i]] {
            j += 1;
        }
        // Ranks i+1 ..= j occupied by this tie group; assign their mean.
        let rank = (i + 1 + j) as f64 / 2.0;
        for &idx in &order[i..j] {
            ranks[idx] = rank;
        }
        i = j;
    }
    ranks
}

/// An empirical CDF: sorted samples plus cumulative fractions.
#[derive(Debug, Clone, PartialEq)]
pub struct Cdf {
    /// Sorted sample values.
    pub values: Vec<f64>,
}

impl Cdf {
    /// Build a CDF from samples.
    pub fn of(samples: &[f64]) -> Cdf {
        let mut values = samples.to_vec();
        values.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
        Cdf { values }
    }

    /// Exact merge of CDFs over disjoint sample sets: the CDF of the
    /// concatenated samples.
    pub fn merge(parts: &[Cdf]) -> Cdf {
        let mut values: Vec<f64> = parts
            .iter()
            .flat_map(|p| p.values.iter().copied())
            .collect();
        values.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
        Cdf { values }
    }

    /// Fraction of samples `<= x`.
    pub fn fraction_at(&self, x: f64) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        let count = self.values.partition_point(|v| *v <= x);
        count as f64 / self.values.len() as f64
    }

    /// Value at cumulative fraction `q` in `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        percentile_sorted(&self.values, q * 100.0)
    }

    /// Iterate `(value, cumulative_fraction)` points for plotting.
    pub fn points(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        let n = self.values.len();
        self.values
            .iter()
            .enumerate()
            .map(move |(i, v)| (*v, (i + 1) as f64 / n as f64))
    }
}

/// Fixed-interval time series accumulator (e.g. per-second throughput).
#[derive(Debug, Clone)]
pub struct BinSeries {
    /// Width of each bin in seconds.
    pub bin_secs: f64,
    /// Accumulated value per bin.
    pub bins: Vec<f64>,
}

impl BinSeries {
    /// New series with the given bin width in seconds.
    pub fn new(bin_secs: f64) -> BinSeries {
        assert!(bin_secs > 0.0);
        BinSeries {
            bin_secs,
            bins: Vec::new(),
        }
    }

    /// Add `value` at time `t_secs`, growing the series as needed.
    pub fn add(&mut self, t_secs: f64, value: f64) {
        assert!(t_secs >= 0.0);
        let idx = (t_secs / self.bin_secs) as usize;
        if idx >= self.bins.len() {
            self.bins.resize(idx + 1, 0.0);
        }
        self.bins[idx] += value;
    }

    /// Iterate `(bin_start_secs, value)` pairs.
    pub fn points(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        self.bins
            .iter()
            .enumerate()
            .map(move |(i, v)| (i as f64 * self.bin_secs, *v))
    }

    /// Mean of the bin values, 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.bins.is_empty() {
            0.0
        } else {
            self.bins.iter().sum::<f64>() / self.bins.len() as f64
        }
    }

    /// Population standard deviation of bin values, 0 when empty.
    pub fn std_dev(&self) -> f64 {
        if self.bins.is_empty() {
            return 0.0;
        }
        let m = self.mean();
        (self.bins.iter().map(|v| (v - m).powi(2)).sum::<f64>() / self.bins.len() as f64).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basics() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.n, 4);
        assert!((s.mean - 2.5).abs() < 1e-12);
        assert!((s.median - 2.5).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert!((s.std_dev - (1.25f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn summary_empty() {
        let s = Summary::of(&[]);
        assert_eq!(s.n, 0);
        assert_eq!(s.mean, 0.0);
    }

    #[test]
    fn summary_merge_matches_whole_except_median() {
        let a = [1.0, 5.0, 2.0];
        let b = [9.0, 3.0, 4.0, 8.0];
        let merged = Summary::merge(&[Summary::of(&a), Summary::of(&b)]);
        let whole: Vec<f64> = a.iter().chain(b.iter()).copied().collect();
        let expected = Summary::of(&whole);
        assert_eq!(merged.n, expected.n);
        assert!((merged.mean - expected.mean).abs() < 1e-12);
        assert!((merged.std_dev - expected.std_dev).abs() < 1e-12);
        assert_eq!(merged.min, expected.min);
        assert_eq!(merged.max, expected.max);
    }

    #[test]
    fn summary_merge_skips_empty_parts() {
        let merged = Summary::merge(&[Summary::of(&[]), Summary::of(&[2.0, 4.0])]);
        assert_eq!(merged.n, 2);
        assert_eq!(merged.min, 2.0);
        assert_eq!(merged.max, 4.0);
        assert!((merged.mean - 3.0).abs() < 1e-12);
        assert_eq!(Summary::merge(&[]).n, 0);
    }

    #[test]
    fn sorted_samples_agree_with_ad_hoc_paths() {
        let raw = [5.0, 1.0, 4.0, 2.0, 3.0];
        let s = SortedSamples::of(&raw);
        assert_eq!(s.len(), 5);
        assert_eq!(s.summary(), Summary::of(&raw));
        assert!((s.percentile(50.0) - percentile(&raw, 50.0)).abs() < 1e-12);
        assert_eq!(s.sorted, [1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(s.clone().into_cdf(), Cdf::of(&raw));
        let empty = SortedSamples::of(&[]);
        assert!(empty.is_empty());
        assert_eq!(empty.summary(), Summary::of(&[]));
    }

    #[test]
    fn sorted_samples_from_vec_avoids_copy() {
        let s = SortedSamples::from_vec(vec![2.0, 1.0]);
        assert_eq!(s.sorted, [1.0, 2.0]);
        assert_eq!(s.into_cdf().values, vec![1.0, 2.0]);
    }

    #[test]
    fn cdf_merge_is_exact() {
        let merged = Cdf::merge(&[Cdf::of(&[3.0, 1.0]), Cdf::of(&[2.0]), Cdf::of(&[])]);
        assert_eq!(merged.values, vec![1.0, 2.0, 3.0]);
        assert_eq!(merged, Cdf::of(&[1.0, 2.0, 3.0]));
    }

    #[test]
    fn percentile_interpolates() {
        let v = [10.0, 20.0, 30.0, 40.0];
        assert!((percentile(&v, 0.0) - 10.0).abs() < 1e-12);
        assert!((percentile(&v, 100.0) - 40.0).abs() < 1e-12);
        assert!((percentile(&v, 50.0) - 25.0).abs() < 1e-12);
    }

    #[test]
    fn cdf_fraction_and_quantile() {
        let c = Cdf::of(&[3.0, 1.0, 2.0, 4.0]);
        assert!((c.fraction_at(2.0) - 0.5).abs() < 1e-12);
        assert!((c.fraction_at(0.5) - 0.0).abs() < 1e-12);
        assert!((c.fraction_at(9.0) - 1.0).abs() < 1e-12);
        assert!((c.quantile(0.0) - 1.0).abs() < 1e-12);
        assert!((c.quantile(1.0) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn cdf_points_are_monotone() {
        let c = Cdf::of(&[5.0, 1.0, 3.0]);
        let pts: Vec<_> = c.points().collect();
        assert_eq!(pts.len(), 3);
        assert!(pts.windows(2).all(|w| w[0].0 <= w[1].0 && w[0].1 < w[1].1));
        assert!((pts.last().unwrap().1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn midranks_handle_ties() {
        assert_eq!(midranks(&[]), Vec::<f64>::new());
        assert_eq!(midranks(&[7.0]), vec![1.0]);
        // Distinct values: plain 1-based ranks in value order.
        assert_eq!(midranks(&[30.0, 10.0, 20.0]), vec![3.0, 1.0, 2.0]);
        // Tie group [2.0, 2.0] occupies ranks 2 and 3 -> both 2.5.
        assert_eq!(midranks(&[2.0, 1.0, 2.0, 5.0]), vec![2.5, 1.0, 2.5, 4.0]);
        // All tied: every rank is the mean of 1..=n.
        assert_eq!(midranks(&[4.0, 4.0, 4.0]), vec![2.0, 2.0, 2.0]);
    }

    #[test]
    fn bin_series_accumulates() {
        let mut s = BinSeries::new(1.0);
        s.add(0.2, 100.0);
        s.add(0.9, 50.0);
        s.add(2.5, 10.0);
        assert_eq!(s.bins, vec![150.0, 0.0, 10.0]);
        assert!((s.mean() - 160.0 / 3.0).abs() < 1e-9);
    }
}
