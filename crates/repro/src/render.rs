//! Terminal rendering helpers: sparklines for time series and bar strips
//! for CDFs, so `repro` output reads like the paper's figures.

use std::fmt;

/// Write `items` one per line, with no trailing newline: the row text of a
/// campaign job that yields several rows.
pub fn write_lines<T: fmt::Display>(f: &mut fmt::Formatter<'_>, items: &[T]) -> fmt::Result {
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            writeln!(f)?;
        }
        write!(f, "{item}")?;
    }
    Ok(())
}

/// Render `values` as a unicode sparkline, auto-scaled to its own range.
pub fn sparkline(values: &[f64]) -> String {
    let lo = values.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    sparkline_in(values, lo, hi)
}

/// Render `values` as a unicode sparkline against an explicit `[lo, hi]`
/// range — use one range across several series to make them comparable.
pub fn sparkline_in(values: &[f64], lo: f64, hi: f64) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    if values.is_empty() {
        return String::new();
    }
    let span = (hi - lo).max(f64::MIN_POSITIVE);
    values
        .iter()
        .map(|v| {
            let idx =
                (((v - lo) / span).clamp(0.0, 1.0) * (BARS.len() - 1) as f64).round() as usize;
            BARS[idx.min(BARS.len() - 1)]
        })
        .collect()
}

/// Downsample `values` to at most `width` points by bucket-averaging.
pub fn downsample(values: &[f64], width: usize) -> Vec<f64> {
    if values.len() <= width || width == 0 {
        return values.to_vec();
    }
    let mut out = Vec::with_capacity(width);
    let chunk = values.len() as f64 / width as f64;
    for i in 0..width {
        let lo = (i as f64 * chunk) as usize;
        let hi = (((i + 1) as f64 * chunk) as usize)
            .min(values.len())
            .max(lo + 1);
        let slice = &values[lo..hi];
        out.push(slice.iter().sum::<f64>() / slice.len() as f64);
    }
    out
}

/// Render a CDF as quantile markers over a fixed-width strip, e.g.
/// `p10 ▏534  p50 ▍609  p90 ▉721 (ms)`.
pub fn cdf_strip(cdf: &simcore::Cdf, unit_scale: f64, unit: &str) -> String {
    if cdf.values.is_empty() {
        return "(empty)".into();
    }
    let qs = [0.10, 0.25, 0.50, 0.75, 0.90];
    let parts: Vec<String> = qs
        .iter()
        .map(|q| {
            format!(
                "p{:.0}={:.0}{}",
                q * 100.0,
                cdf.quantile(*q) * unit_scale,
                unit
            )
        })
        .collect();
    parts.join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::Cdf;

    #[test]
    fn sparkline_maps_extremes() {
        let s = sparkline(&[0.0, 1.0]);
        let chars: Vec<char> = s.chars().collect();
        assert_eq!(chars.len(), 2);
        assert_eq!(chars[0], '▁');
        assert_eq!(chars[1], '█');
    }

    #[test]
    fn sparkline_handles_flat_and_empty() {
        assert_eq!(sparkline(&[]), "");
        let flat = sparkline(&[5.0, 5.0, 5.0]);
        assert_eq!(flat.chars().count(), 3);
    }

    #[test]
    fn shared_scale_makes_series_comparable() {
        let small = sparkline_in(&[0.5, 0.5], 0.0, 1.0);
        let big = sparkline_in(&[1.0, 1.0], 0.0, 1.0);
        assert!(small.chars().all(|c| c == '▄' || c == '▅'), "{small}");
        assert!(big.chars().all(|c| c == '█'), "{big}");
    }

    #[test]
    fn downsample_preserves_mean_roughly() {
        let values: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let ds = downsample(&values, 10);
        assert_eq!(ds.len(), 10);
        let mean_orig = values.iter().sum::<f64>() / values.len() as f64;
        let mean_ds = ds.iter().sum::<f64>() / ds.len() as f64;
        assert!((mean_orig - mean_ds).abs() < 1.0);
        // Short inputs pass through.
        assert_eq!(downsample(&values[..5], 10), values[..5].to_vec());
    }

    #[test]
    fn cdf_strip_formats_quantiles() {
        let c = Cdf::of(&[0.1, 0.2, 0.3, 0.4, 0.5]);
        let s = cdf_strip(&c, 1e3, "ms");
        assert!(s.contains("p50=300ms"), "{s}");
        assert!(s.contains("p90="), "{s}");
    }
}
