//! Regression detection over per-epoch QoE metric distributions.
//!
//! For each metric of a cell, the detector:
//!
//! 1. runs [`cusum_change_point`] over the per-epoch means to propose the
//!    single most likely split point,
//! 2. pools the raw samples before and after the split and tests them with
//!    [`mann_whitney_u`] (significance) and [`ks_distance`] (shape of the
//!    effect), and
//! 3. reports a [`Detection`] only when *all three* gates pass **and** the
//!    metric moved in the bad direction (every monitored metric is
//!    larger-is-worse).
//!
//! The CUSUM-selected split is re-tested on the same data, which inflates
//! the nominal type-I rate of the rank test — that is exactly why the
//! detector is a conjunction of a strict [`ALPHA`], a minimum KS distance
//! ([`MIN_KS`]) and a minimum relative effect ([`MIN_EFFECT`]) rather than a
//! lone p-value threshold. These thresholds hold zero false positives on the
//! repo's no-change control cells while catching every injected regression.

use crate::stats::{cusum_change_point, ks_distance, mann_whitney_u};

/// Mean per-record seconds each layer contributed in one epoch, computed by
/// re-running `core`'s cross-layer attribution over the epoch's records.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LayerShares {
    /// Device-side share (UI/rendering/CPU) in seconds.
    pub device_s: f64,
    /// Network share (TCP/HTTP transfer) in seconds.
    pub network_s: f64,
    /// RRC state-promotion share in seconds (part of the radio layer).
    pub promo_s: f64,
    /// RLC retransmission ratio (radio-layer health, unitless).
    pub rlc_retx: f64,
}

/// One epoch of one cell: the raw samples of every monitored metric plus
/// the epoch's cross-layer attribution.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochMetrics {
    /// Epoch number, contiguous from 0.
    pub epoch: usize,
    /// `(metric name, raw samples)` — same names, same order, every epoch.
    pub metrics: Vec<(String, Vec<f64>)>,
    /// Cross-layer attribution of this epoch.
    pub layers: LayerShares,
}

/// The full recorded history of one grid cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellHistory {
    /// Cell label, e.g. `fb/app-update/LTE`.
    pub cell: String,
    /// Epochs, oldest first.
    pub epochs: Vec<EpochMetrics>,
}

impl CellHistory {
    /// Pool the raw samples of `metric` over epochs `range`.
    pub fn pooled(&self, metric: &str, range: std::ops::Range<usize>) -> Vec<f64> {
        self.epochs[range]
            .iter()
            .flat_map(|e| {
                e.metrics
                    .iter()
                    .find(|(name, _)| name == metric)
                    .map(|(_, v)| v.as_slice())
                    .unwrap_or(&[])
                    .iter()
                    .copied()
            })
            .collect()
    }

    /// Per-epoch means of `metric` (0.0 for an epoch with no samples).
    pub fn epoch_means(&self, metric: &str) -> Vec<f64> {
        self.epochs
            .iter()
            .map(|e| {
                e.metrics
                    .iter()
                    .find(|(name, _)| name == metric)
                    .map(|(_, v)| {
                        if v.is_empty() {
                            0.0
                        } else {
                            v.iter().sum::<f64>() / v.len() as f64
                        }
                    })
                    .unwrap_or(0.0)
            })
            .collect()
    }
}

// Detection thresholds. All three statistical gates must pass at once —
// see the module docs for why the conjunction is what keeps control cells
// quiet.

/// Two-sided Mann–Whitney significance level.
pub const ALPHA: f64 = 0.005;
/// Minimum two-sample KS distance between pre and post pools.
pub const MIN_KS: f64 = 0.5;
/// Minimum relative increase of the post-split mean over the pre-split
/// mean.
pub const MIN_EFFECT: f64 = 0.15;
/// Minimum history length (epochs) before the detector will speak at all.
pub const MIN_EPOCHS: usize = 4;

/// A flagged regression on one metric of one cell.
#[derive(Debug, Clone, PartialEq)]
pub struct Detection {
    /// Metric that regressed.
    pub metric: String,
    /// First epoch after the level shift — the first bad epoch.
    pub first_bad_epoch: usize,
    /// Two-sided Mann–Whitney p-value of pre vs post pools.
    pub p_value: f64,
    /// Two-sample KS distance between pre and post pools.
    pub ks: f64,
    /// Mean of the pooled pre-split samples.
    pub pre_mean: f64,
    /// Mean of the pooled post-split samples.
    pub post_mean: f64,
    /// Normalized CUSUM peak magnitude at the split.
    pub cusum: f64,
}

/// Scan every metric of `history` for a level shift for the worse.
///
/// Returns at most one detection per metric (the CUSUM split is the single
/// best change-point candidate), in the cell's metric order — fully
/// deterministic for a given history.
pub fn detect_cell(history: &CellHistory) -> Vec<Detection> {
    if history.epochs.len() < MIN_EPOCHS {
        return Vec::new();
    }
    let n = history.epochs.len();
    let metric_names: Vec<String> = history
        .epochs
        .first()
        .map(|e| e.metrics.iter().map(|(name, _)| name.clone()).collect())
        .unwrap_or_default();
    let mut out = Vec::new();
    for metric in &metric_names {
        let means = history.epoch_means(metric);
        let Some(cusum) = cusum_change_point(&means) else {
            continue; // flat or degenerate series: nothing moved
        };
        let k = cusum.change_point;
        let pre = history.pooled(metric, 0..k);
        let post = history.pooled(metric, k..n);
        if pre.is_empty() || post.is_empty() {
            continue;
        }
        let pre_mean = pre.iter().sum::<f64>() / pre.len() as f64;
        let post_mean = post.iter().sum::<f64>() / post.len() as f64;
        if post_mean <= pre_mean {
            continue; // moved, but for the better: not a regression
        }
        let mwu = mann_whitney_u(&pre, &post);
        let ks = ks_distance(&pre, &post);
        let rel = (post_mean - pre_mean) / pre_mean.max(1e-9);
        if mwu.p <= ALPHA && ks >= MIN_KS && rel >= MIN_EFFECT {
            out.push(Detection {
                metric: metric.clone(),
                first_bad_epoch: k,
                p_value: mwu.p,
                ks,
                pre_mean,
                post_mean,
                cusum: cusum.magnitude,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A history with one metric whose per-record samples jump at `shift`.
    fn history(epochs: usize, shift: usize, lo: f64, hi: f64) -> CellHistory {
        let epochs = (0..epochs)
            .map(|e| {
                let base = if e < shift { lo } else { hi };
                // Small deterministic within-epoch spread.
                let samples = (0..5).map(|i| base + 0.01 * i as f64).collect();
                EpochMetrics {
                    epoch: e,
                    metrics: vec![("ui_update_s".to_string(), samples)],
                    layers: LayerShares::default(),
                }
            })
            .collect();
        CellHistory {
            cell: "fb/app-update/LTE".to_string(),
            epochs,
        }
    }

    #[test]
    fn detects_injected_shift_at_the_right_epoch() {
        let h = history(8, 4, 1.0, 2.5);
        let det = detect_cell(&h);
        assert_eq!(det.len(), 1, "{det:?}");
        assert_eq!(det[0].metric, "ui_update_s");
        assert_eq!(det[0].first_bad_epoch, 4);
        assert!(det[0].post_mean > det[0].pre_mean);
        assert!(det[0].ks >= 0.5);
    }

    #[test]
    fn steady_history_is_quiet() {
        let h = history(8, 8, 1.0, 1.0);
        assert!(detect_cell(&h).is_empty());
    }

    #[test]
    fn improvement_is_not_a_regression() {
        let h = history(8, 4, 2.5, 1.0);
        assert!(detect_cell(&h).is_empty());
    }

    #[test]
    fn short_history_is_quiet() {
        let h = history(3, 1, 1.0, 5.0);
        assert!(detect_cell(&h).is_empty());
    }
}
