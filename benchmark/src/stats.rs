//! Order statistics over latency samples.

/// The `p`-quantile (`0.0..=1.0`) of `samples` by linear interpolation
/// between closest ranks; `NaN` for an empty slice.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// The interquartile mean: the mean of the samples from the first to
/// the third quartile (by rank). As robust to tails as the median, but
/// it moves smoothly when the samples sit on a lattice.
pub fn midmean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let (lo, hi) = (sorted.len() / 4, sorted.len() - sorted.len() / 4);
    sorted[lo..hi].iter().sum::<f64>() / (hi - lo) as f64
}

/// The geometric mean of strictly positive values; `NaN` if empty.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&s), 2.5);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 1.0), 4.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn midmean_moves_smoothly_where_the_median_jumps() {
        // 88/92/96 ms lattice: moving two samples in a hundred across
        // the middle jumps the median by a whole tick, the midmean by a
        // fraction of one.
        let mut s = vec![88.0; 10];
        s.extend(vec![92.0; 41]);
        s.extend(vec![96.0; 49]);
        let (m0, mm0) = (median(&s), midmean(&s));
        s[49] = 96.0;
        s[50] = 96.0;
        let (m1, mm1) = (median(&s), midmean(&s));
        assert_eq!((m0, m1), (92.0, 96.0));
        assert!((mm1 - mm0).abs() < 0.25, "{mm0} {mm1}");
        assert!(midmean(&[]).is_nan());
        assert_eq!(midmean(&[1.0, 2.0, 3.0, 100.0]), 2.5);
    }

    #[test]
    fn geomean_weighs_kinds_equally() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
    }
}
