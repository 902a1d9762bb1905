//! Differential properties: the production statistics in `monitor::stats`
//! must agree with naive brute-force references. The production code uses
//! the rank-sum identity (MWU), a merge-scan (KS), and an incremental
//! prefix sum (CUSUM); the references below count pairs, probe every
//! candidate point, and recompute prefix sums from scratch. Samples are
//! drawn from a coarse quantized grid so tie groups are common — the
//! tie-handling paths are exactly what these properties pin down.

use monitor::stats::{cusum_change_point, ks_distance, mann_whitney_u, normal_sf};
use proptest::prelude::*;

/// Brute-force U of `a`: count pairs `(x, y)` with `x > y`, ties as ½.
fn brute_u(a: &[f64], b: &[f64]) -> f64 {
    let mut u = 0.0;
    for &x in a {
        for &y in b {
            if x > y {
                u += 1.0;
            } else if x == y {
                u += 0.5;
            }
        }
    }
    u
}

/// Brute-force two-sided MWU p-value: per-element midranks by counting,
/// tie term over distinct pooled values, tie-corrected variance, 0.5
/// continuity correction, normal approximation.
fn brute_mwu_p(a: &[f64], b: &[f64]) -> f64 {
    let (n1, n2) = (a.len() as f64, b.len() as f64);
    if a.is_empty() || b.is_empty() {
        return 1.0;
    }
    let pooled: Vec<f64> = a.iter().chain(b.iter()).copied().collect();
    let n = n1 + n2;
    // Midrank of x = #(pooled < x) + (#(pooled == x) + 1) / 2.
    let midrank = |x: f64| {
        let less = pooled.iter().filter(|&&v| v < x).count() as f64;
        let eq = pooled.iter().filter(|&&v| v == x).count() as f64;
        less + (eq + 1.0) / 2.0
    };
    let r1: f64 = a.iter().map(|&x| midrank(x)).sum();
    let u1 = r1 - n1 * (n1 + 1.0) / 2.0;
    let mut distinct = pooled.clone();
    distinct.sort_by(|x, y| x.partial_cmp(y).unwrap());
    distinct.dedup();
    let tie_term: f64 = distinct
        .iter()
        .map(|&v| {
            let t = pooled.iter().filter(|&&x| x == v).count() as f64;
            t * t * t - t
        })
        .sum();
    let var = n1 * n2 / 12.0 * ((n + 1.0) - tie_term / (n * (n - 1.0)));
    if var <= 0.0 {
        return 1.0;
    }
    let diff = u1 - n1 * n2 / 2.0;
    let corrected = diff - 0.5 * diff.signum() * f64::from(diff != 0.0);
    (2.0 * normal_sf((corrected / var.sqrt()).abs())).min(1.0)
}

/// Brute-force KS distance: probe `|F_a(x) − F_b(x)|` at every sample
/// point of either side (the sup of a pair of step functions is attained
/// at a step).
fn brute_ks(a: &[f64], b: &[f64]) -> f64 {
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let (n, m) = (a.len() as f64, b.len() as f64);
    a.iter()
        .chain(b.iter())
        .map(|&x| {
            let fa = a.iter().filter(|&&v| v <= x).count() as f64 / n;
            let fb = b.iter().filter(|&&v| v <= x).count() as f64 / m;
            (fa - fb).abs()
        })
        .fold(0.0, f64::max)
}

/// From-scratch prefix deviations `S_k = Σ_{i≤k} x_i − (k+1)·x̄` over the
/// interior prefixes (the only ones that split the series in two).
fn brute_cusum_devs(series: &[f64]) -> Vec<f64> {
    let n = series.len() as f64;
    let mean = series.iter().sum::<f64>() / n;
    (0..series.len() - 1)
        .map(|k| series[..=k].iter().sum::<f64>() - (k + 1) as f64 * mean)
        .collect()
}

/// Coarse-grid samples: quarter-integer values in [0, 5), so tie groups
/// are common and every value is exactly representable.
fn grid(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec((0u32..20).prop_map(|v| v as f64 * 0.25), len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The rank-sum U equals the pair-counting U exactly (both are sums
    /// of halves, exactly representable), including under heavy ties.
    #[test]
    fn mwu_u_equals_pair_count(a in grid(1..25), b in grid(1..25)) {
        prop_assert_eq!(mann_whitney_u(&a, &b).u, brute_u(&a, &b));
    }

    /// The p-value matches a from-scratch recomputation of the
    /// tie-corrected normal approximation.
    #[test]
    fn mwu_p_equals_reference(a in grid(0..25), b in grid(0..25)) {
        let fast = mann_whitney_u(&a, &b).p;
        let brute = brute_mwu_p(&a, &b);
        prop_assert!((fast - brute).abs() < 1e-12, "{fast} vs {brute}");
    }

    /// U is antisymmetric around n1·n2/2 and p is symmetric in the order
    /// of the samples.
    #[test]
    fn mwu_symmetry(a in grid(1..20), b in grid(1..20)) {
        let ab = mann_whitney_u(&a, &b);
        let ba = mann_whitney_u(&b, &a);
        prop_assert_eq!(ab.u + ba.u, (a.len() * b.len()) as f64);
        prop_assert!((ab.p - ba.p).abs() < 1e-12);
    }

    /// The merge-scan KS equals the probe-every-point reference exactly
    /// (both are differences of small-integer fractions).
    #[test]
    fn ks_equals_reference(a in grid(0..25), b in grid(0..25)) {
        prop_assert_eq!(ks_distance(&a, &b), brute_ks(&a, &b));
    }

    /// KS is symmetric and bounded in [0, 1].
    #[test]
    fn ks_symmetry_and_range(a in grid(1..20), b in grid(1..20)) {
        let d = ks_distance(&a, &b);
        prop_assert_eq!(d, ks_distance(&b, &a));
        prop_assert!((0.0..=1.0).contains(&d));
    }

    /// The incremental CUSUM picks a true argmax of the from-scratch
    /// prefix deviations, and its magnitude matches the recomputed peak.
    #[test]
    fn cusum_matches_reference(series in grid(2..30)) {
        let devs = brute_cusum_devs(&series);
        let peak = devs.iter().map(|d| d.abs()).fold(0.0, f64::max);
        match cusum_change_point(&series) {
            None => {
                // Degenerate only when the series never deviates.
                prop_assert!(peak < 1e-9, "flat verdict on {series:?}");
            }
            Some(r) => {
                prop_assert!(r.change_point >= 1 && r.change_point < series.len());
                prop_assert!(
                    devs[r.change_point - 1].abs() >= peak - 1e-9,
                    "cp {} dev {} < peak {}", r.change_point,
                    devs[r.change_point - 1].abs(), peak
                );
                let n = series.len() as f64;
                let mean = series.iter().sum::<f64>() / n;
                let var = series.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
                prop_assert!((r.magnitude - peak / (var.sqrt() * n.sqrt())).abs() < 1e-9);
            }
        }
    }

    /// A clean step series is located exactly: the change point is the
    /// first index of the higher level.
    #[test]
    fn cusum_locates_a_clean_step(pre in 1usize..10, post in 1usize..10) {
        let mut series = vec![1.0; pre];
        series.extend(std::iter::repeat_n(4.0, post));
        let r = cusum_change_point(&series).unwrap();
        prop_assert_eq!(r.change_point, pre);
    }
}

/// Deterministic edge cases the proptests can't force reliably.
#[test]
fn degenerate_inputs() {
    // Empty sides: MWU abstains (p = 1), KS sees no evidence (D = 0).
    assert_eq!(mann_whitney_u(&[], &[]).p, 1.0);
    assert_eq!(mann_whitney_u(&[], &[1.0, 2.0]).p, 1.0);
    assert_eq!(ks_distance(&[], &[]), 0.0);
    // All-ties pool: zero rank variance, MWU abstains.
    assert_eq!(mann_whitney_u(&[3.0; 4], &[3.0; 7]).p, 1.0);
    assert_eq!(ks_distance(&[3.0; 4], &[3.0; 7]), 0.0);
    // Constant or too-short series have no change point.
    assert!(cusum_change_point(&[]).is_none());
    assert!(cusum_change_point(&[5.0]).is_none());
    assert!(cusum_change_point(&[5.0; 12]).is_none());
}
