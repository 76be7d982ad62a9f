//! Summary statistics: medians, quartiles and the tail-percentile rule.

/// Samples needed before a tail is reported; below this only the median
/// means anything.
pub const MIN_TAIL_SAMPLES: usize = 40;
/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// The median (mean of the middle two for an even count); `None` when
/// empty.
pub fn median(v: &[f64]) -> Option<f64> {
    if v.is_empty() {
        return None;
    }
    let s = sorted(v);
    let n = s.len();
    Some(if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    })
}

/// The interquartile mean: the mean of the middle half of the samples
/// (a quarter trimmed from each end; all of them below four). Latencies
/// here form steps, one per query, and the median jumps between
/// neighbouring steps on small shifts; this mean moves smoothly with them
/// and still ignores the tails. 0 when empty.
pub fn iqm(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let s = sorted(v);
    let cut = s.len() / 4;
    let mid = &s[cut..s.len() - cut];
    mid.iter().sum::<f64>() / mid.len() as f64
}

/// The three quartile cut points, computed as Python's
/// `statistics.quantiles(v, n=4)` does (its default "exclusive" method);
/// `None` below two samples.
pub fn quartiles(v: &[f64]) -> Option<[f64; 3]> {
    if v.len() < 2 {
        return None;
    }
    let s = sorted(v);
    let m = s.len() + 1;
    let mut out = [0.0; 3];
    for (k, slot) in out.iter_mut().enumerate() {
        let i = k + 1;
        let j = (i * m / 4).clamp(1, s.len() - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    Some(out)
}

/// A tail percentile: its rank, value, and how many samples lie beyond
/// it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub percentile: u32,
    pub value: f64,
    pub samples: usize,
    pub beyond: usize,
}

/// The highest whole percentile (nearest-rank) with at least
/// [`TAIL_BEYOND`] samples beyond it; `None` below [`MIN_TAIL_SAMPLES`]
/// samples, where a "tail" would be a handful of points.
pub fn tail(v: &[f64]) -> Option<Tail> {
    let n = v.len();
    if n < MIN_TAIL_SAMPLES {
        return None;
    }
    let s = sorted(v);
    (50..=99u32).rev().find_map(|p| {
        // Nearest rank: the smallest value with at least p% of the
        // samples at or below it.
        let rank = (p as usize * n).div_ceil(100).max(1);
        let beyond = n - rank;
        (beyond >= TAIL_BEYOND).then(|| Tail {
            percentile: p,
            value: s[rank - 1],
            samples: n,
            beyond,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
    }

    #[test]
    fn interquartile_mean_trims_a_quarter_from_each_end() {
        assert_eq!(iqm(&[]), 0.0);
        assert_eq!(iqm(&[3.0, 1.0, 2.0]), 2.0);
        let v: Vec<f64> = (1..=8).rev().map(f64::from).collect();
        assert_eq!(iqm(&v), 4.5);
        // Tails do not move it.
        let mut w = v.clone();
        w[0] = 1e9;
        assert_eq!(iqm(&w), 4.5);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([5, 1, 3], n=4) == [1.0, 3.0, 5.0]
        assert_eq!(quartiles(&[5.0, 1.0, 3.0]), Some([1.0, 3.0, 5.0]));
    }

    #[test]
    fn tail_needs_forty_samples() {
        let v: Vec<f64> = (1..=39).map(f64::from).collect();
        assert_eq!(tail(&v), None);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_beyond() {
        // 40 samples: p75 has rank 30 and 10 beyond; p76 has rank 31.
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        let t = tail(&v).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (75, 30.0, 10));
        // 1000 samples: p99 has rank 990 and 10 beyond.
        let v: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let t = tail(&v).unwrap();
        assert_eq!(
            (t.percentile, t.value, t.beyond, t.samples),
            (99, 990.0, 10, 1000)
        );
        // 200 samples: p95 has rank 190 and 10 beyond; p96 only 8.
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        let t = tail(&v).unwrap();
        assert_eq!((t.percentile, t.value), (95, 190.0));
    }
}
