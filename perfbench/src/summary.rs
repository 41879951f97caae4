//! The arithmetic every reported number goes through: medians of rounds,
//! pooled latency percentiles, and how much worse one median is than another.

/// Sorts a copy of `values` ascending (NaN-free by construction: every value
/// is a measured duration, count or ratio of positive counts).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("measurements are never NaN"));
    v
}

/// The median (mean of the two middle values for an even count); 0 for no
/// values, which only happens for a metric no round produced.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `p` in (0, 100] of the pooled samples.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// By how much `second` is worse than `first`, as a share of `first`
/// (negative when it is better).
pub fn worsening(first: f64, second: f64, higher_is_better: bool) -> f64 {
    if higher_is_better {
        (first - second) / first
    } else {
        (second - first) / first
    }
}

/// Keeps at most `cap` samples by taking every k-th one in arrival order: a
/// deterministic thinning that leaves the distribution's percentiles intact
/// (arrival order is independent of latency rank).
pub fn thin(samples: Vec<f64>, cap: usize) -> Vec<f64> {
    if samples.len() <= cap {
        return samples;
    }
    let step = samples.len().div_ceil(cap);
    samples.into_iter().step_by(step).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn worsening_respects_direction() {
        assert!((worsening(100.0, 90.0, true) - 0.1).abs() < 1e-12);
        assert!((worsening(100.0, 110.0, false) - 0.1).abs() < 1e-12);
        assert!(worsening(100.0, 110.0, true) < 0.0);
    }

    #[test]
    fn thinning_caps_and_keeps_order() {
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        let t = thin(v.clone(), 100);
        assert!(t.len() <= 100 && t.len() >= 90);
        assert!(t.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(thin(v.clone(), 5000), v);
    }
}
