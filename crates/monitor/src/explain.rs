//! Cross-layer explanation of a detected regression.
//!
//! Detection says *that* a metric regressed and *when*; explanation says
//! *where in the stack* it came from, the paper's core contribution. The
//! explainer compares the mean cross-layer attribution of the epochs before
//! the first bad epoch against the epochs from it onward, and names the
//! layer whose contribution moved: radio (RLC retransmission storms, RRC
//! state-promotion overhead), network (TCP/HTTP transfer), or device
//! (UI/rendering/CPU).

use crate::detect::{CellHistory, Detection, LayerShares};

/// How each layer's mean per-record contribution changed across the split
/// (post − pre, seconds except `rlc_retx`).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LayerDeltas {
    /// Device-side change in seconds.
    pub device_s: f64,
    /// Network change in seconds.
    pub network_s: f64,
    /// RRC promotion change in seconds.
    pub promo_s: f64,
    /// RLC retransmission-ratio change.
    pub rlc_retx: f64,
}

/// A detected regression together with its cross-layer explanation.
#[derive(Debug, Clone, PartialEq)]
pub struct RegressionDiagnosis {
    /// Cell the regression was found in.
    pub cell: String,
    /// The statistical detection being explained.
    pub detection: Detection,
    /// Layer the regression is attributed to: `"device"`, `"network"`, or
    /// `"radio"`.
    pub layer: &'static str,
    /// Per-layer movement across the split.
    pub deltas: LayerDeltas,
}

fn mean_shares(epochs: &[crate::detect::EpochMetrics]) -> LayerShares {
    if epochs.is_empty() {
        return LayerShares::default();
    }
    let n = epochs.len() as f64;
    LayerShares {
        device_s: epochs.iter().map(|e| e.layers.device_s).sum::<f64>() / n,
        network_s: epochs.iter().map(|e| e.layers.network_s).sum::<f64>() / n,
        promo_s: epochs.iter().map(|e| e.layers.promo_s).sum::<f64>() / n,
        rlc_retx: epochs.iter().map(|e| e.layers.rlc_retx).sum::<f64>() / n,
    }
}

/// Attribute a detection to the layer whose contribution moved.
///
/// The cascade mirrors the paper's diagnosis order — radio evidence first
/// (it silently masquerades as network latency at the TCP layer), then the
/// network/device split from the latency breakdown:
///
/// 1. RLC retransmission ratio rose by more than 0.10 → **radio**.
/// 2. RRC promotion time rose by more than 50 ms *and* accounts for at
///    least half of the network-side movement → **radio**.
/// 3. Network share moved more than the device share → **network**.
/// 4. Otherwise → **device**.
pub fn explain(history: &CellHistory, detection: &Detection) -> RegressionDiagnosis {
    let k = detection.first_bad_epoch.min(history.epochs.len());
    let pre = mean_shares(&history.epochs[..k]);
    let post = mean_shares(&history.epochs[k..]);
    let deltas = LayerDeltas {
        device_s: post.device_s - pre.device_s,
        network_s: post.network_s - pre.network_s,
        promo_s: post.promo_s - pre.promo_s,
        rlc_retx: post.rlc_retx - pre.rlc_retx,
    };
    let layer = if deltas.rlc_retx > 0.10
        || (deltas.promo_s > 0.05 && deltas.promo_s >= 0.5 * deltas.network_s.max(0.0))
    {
        "radio"
    } else if deltas.network_s > deltas.device_s {
        "network"
    } else {
        "device"
    };
    RegressionDiagnosis {
        cell: history.cell.clone(),
        detection: detection.clone(),
        layer,
        deltas,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::EpochMetrics;

    fn history(shares: Vec<LayerShares>) -> CellHistory {
        CellHistory {
            cell: "cell".to_string(),
            epochs: shares
                .into_iter()
                .enumerate()
                .map(|(epoch, layers)| EpochMetrics {
                    epoch,
                    metrics: Vec::new(),
                    layers,
                })
                .collect(),
        }
    }

    fn detection(first_bad: usize) -> Detection {
        Detection {
            metric: "m".to_string(),
            first_bad_epoch: first_bad,
            p_value: 0.001,
            ks: 1.0,
            pre_mean: 1.0,
            post_mean: 2.0,
            cusum: 1.0,
        }
    }

    fn shares(device_s: f64, network_s: f64, promo_s: f64, rlc_retx: f64) -> LayerShares {
        LayerShares {
            device_s,
            network_s,
            promo_s,
            rlc_retx,
        }
    }

    #[test]
    fn device_jump_is_device() {
        let h = history(vec![
            shares(0.3, 0.5, 0.0, 0.02),
            shares(0.3, 0.5, 0.0, 0.02),
            shares(1.5, 0.5, 0.0, 0.02),
            shares(1.5, 0.5, 0.0, 0.02),
        ]);
        let d = explain(&h, &detection(2));
        assert_eq!(d.layer, "device");
        assert!((d.deltas.device_s - 1.2).abs() < 1e-9);
    }

    #[test]
    fn network_jump_is_network() {
        let h = history(vec![
            shares(0.3, 0.5, 0.0, 0.02),
            shares(0.3, 0.5, 0.0, 0.02),
            shares(0.3, 2.5, 0.0, 0.02),
            shares(0.3, 2.5, 0.0, 0.02),
        ]);
        assert_eq!(explain(&h, &detection(2)).layer, "network");
    }

    #[test]
    fn rlc_storm_beats_network_delta() {
        let h = history(vec![
            shares(0.3, 0.5, 0.0, 0.02),
            shares(0.3, 2.5, 0.0, 0.40),
        ]);
        assert_eq!(explain(&h, &detection(1)).layer, "radio");
    }

    #[test]
    fn promotion_growth_is_radio() {
        let h = history(vec![
            shares(0.3, 0.5, 0.1, 0.02),
            shares(0.3, 1.0, 0.9, 0.02),
        ]);
        // Network moved 0.5 s but 0.8 s of it is promotion time.
        assert_eq!(explain(&h, &detection(1)).layer, "radio");
    }
}
