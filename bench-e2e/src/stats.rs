//! Order statistics for timings, and the rules the benchmark applies
//! to them.

/// The `p`-th percentile (0 ≤ p ≤ 100) of an ascending-sorted slice,
/// linearly interpolated between the two nearest ranks.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = p.clamp(0.0, 100.0) / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// A sorted copy of the sample, for repeated percentile queries.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(values: &[f64]) -> f64 {
    percentile_sorted(&sorted(values), 50.0)
}

pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Windows a timing sample of `n` is cut into: at least twenty timings
/// each (two beyond a window's p90), at most 45 windows — short ones, so
/// that a disturbance spoils few of them — and an odd number, so that
/// their median is one window's value.
pub fn window_count(n: usize) -> usize {
    let k = (n / 20).clamp(1, 45);
    k - (1 - k % 2)
}

/// The sample in `window_count` consecutive stretches of near-equal
/// length, in the order it was taken.
pub fn windows(values: &[f64]) -> impl Iterator<Item = &[f64]> {
    let (n, k) = (values.len(), window_count(values.len()));
    (0..k).map(move |w| &values[w * n / k..(w + 1) * n / k])
}

/// The median over the run's windows of each window's `p`-th
/// percentile.  The machine is shared: a neighbour that slows a few
/// seconds of a run moves every tail percentile of the whole sample, but
/// only the windows it touched — and the median ignores those while they
/// are under half of the run.  `values` are in the order they were taken.
pub fn windowed_percentile(values: &[f64], p: f64) -> f64 {
    let per_window: Vec<f64> = windows(values)
        .map(|w| percentile_sorted(&sorted(w), p))
        .collect();
    median(&per_window)
}

/// The candidate tail percentiles, lowest first, in tenths of a percent
/// (so that "ten samples beyond" is decided in whole numbers).
const TAILS_PER_MILLE: [usize; 5] = [500, 900, 950, 990, 999];

/// The highest candidate percentile that still has at least ten samples
/// beyond it in a sample of `n` — the tail a sample of that size
/// supports.  A sample under 20 supports none and gets the median.
pub fn tail_percentile(n: usize) -> f64 {
    let supported = TAILS_PER_MILLE
        .iter()
        .rev()
        .find(|&&p| n * (1000 - p) >= 10 * 1000);
    *supported.unwrap_or(&TAILS_PER_MILLE[0]) as f64 / 10.0
}

/// The distance between the first and third quartile as a share of the
/// median — the run-to-run spread `compare` sets against a metric's
/// bound.  Quartiles follow Python's `statistics.quantiles(v, n=4)`
/// (the exclusive method), so the number matches what the driver
/// computes from the same values.  Needs at least two values.
pub fn iqr_share(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    assert!(n >= 2, "quartiles need two values");
    let quartile = |k: usize| {
        // Position k(n+1)/4 in 1-based ranks, clamped to the sample.
        let pos = (k * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    (quartile(3) - quartile(1)).abs() / median(values).abs()
}

/// Whether a queue sampled at even intervals grew over a step: the mean
/// of the last third is more than double the mean of the first third
/// and at least four requests above it.  A steady queue of any depth is
/// not growth; a queue that keeps climbing is.
pub fn backlog_growing(in_flight: &[usize]) -> bool {
    let third = in_flight.len() / 3;
    if third == 0 {
        return false;
    }
    let avg = |s: &[usize]| s.iter().sum::<usize>() as f64 / s.len() as f64;
    let first = avg(&in_flight[..third]);
    let last = avg(&in_flight[in_flight.len() - third..]);
    last > 2.0 * first && last >= first + 4.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let v: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 0.0), 1.0);
        assert_eq!(percentile_sorted(&v, 50.0), 3.0);
        assert_eq!(percentile_sorted(&v, 100.0), 5.0);
        assert_eq!(percentile_sorted(&v, 90.0), 4.6);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(percentile_sorted(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn windows_are_odd_in_number_and_hold_twenty_timings_or_more() {
        assert_eq!(window_count(0), 1);
        assert_eq!(window_count(59), 1);
        assert_eq!(window_count(65), 3);
        assert_eq!(window_count(320), 15);
        assert_eq!(window_count(899), 43);
        assert_eq!(window_count(900), 45);
        assert_eq!(window_count(100_000), 45);
        let v: Vec<f64> = (0..67).map(f64::from).collect();
        let lens: Vec<usize> = windows(&v).map(<[f64]>::len).collect();
        assert_eq!(lens, [22, 22, 23]);
    }

    #[test]
    fn a_slow_stretch_under_half_the_run_leaves_windowed_percentiles_alone() {
        // 900 timings of 1 ms; a neighbour triples timings 200..500.
        let mut v = vec![1.0; 900];
        v[200..500].fill(3.0);
        assert_eq!(percentile_sorted(&sorted(&v), 90.0), 3.0);
        assert_eq!(windowed_percentile(&v, 90.0), 1.0);
        assert_eq!(windowed_percentile(&v, 50.0), 1.0);
        // A change that slows every operation moves them in full.
        assert_eq!(windowed_percentile(&vec![3.0; 900], 90.0), 3.0);
        // A short sample is one window: the plain percentile.
        assert_eq!(windowed_percentile(&[1.0, 2.0, 3.0, 4.0, 5.0], 90.0), 4.6);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(5), 50.0);
        assert_eq!(tail_percentile(20), 50.0);
        assert_eq!(tail_percentile(99), 50.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(199), 90.0);
        assert_eq!(tail_percentile(200), 95.0);
        assert_eq!(tail_percentile(1_000), 99.0);
        assert_eq!(tail_percentile(9_999), 99.0);
        assert_eq!(tail_percentile(10_000), 99.9);
    }

    #[test]
    fn iqr_matches_python_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([10, 12], n=4) == [9.5, 11.0, 12.5]
        assert!((iqr_share(&[12.0, 10.0]) - 3.0 / 11.0).abs() < 1e-12);
        assert_eq!(iqr_share(&[3.0, 3.0, 3.0, 3.0]), 0.0);
    }

    #[test]
    fn backlog_growth_needs_a_climb_not_a_depth() {
        assert!(!backlog_growing(&[]));
        assert!(!backlog_growing(&[3, 2]));
        assert!(!backlog_growing(&[40, 41, 39, 40, 42, 40]));
        assert!(!backlog_growing(&[0, 0, 1, 0, 2, 1]));
        assert!(backlog_growing(&[1, 2, 10, 20, 40, 80]));
        assert!(backlog_growing(&[0, 0, 3, 5, 6, 9]));
    }
}
