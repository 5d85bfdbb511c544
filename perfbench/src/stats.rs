//! Percentiles from raw samples.
//!
//! Every latency the benchmark reports is computed here from its own raw
//! timestamps, never from the service's bucketed histogram. A percentile is
//! only reported when at least [`MIN_BEYOND`] samples lie beyond it, so a
//! p99 needs 1000 samples and a p90 needs 100.

/// Samples that must lie strictly beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// A sorted sample of durations in milliseconds.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    sorted: Vec<f64>,
}

impl Samples {
    /// Sort `values` (NaNs are a bug in the caller and panic).
    pub fn new(mut values: Vec<f64>) -> Samples {
        values.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
        Samples { sorted: values }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// The nearest-rank `q`-quantile (`0 < q < 1`), or `None` when fewer
    /// than [`MIN_BEYOND`] samples lie beyond it.
    pub fn percentile(&self, q: f64) -> Option<f64> {
        let n = self.sorted.len();
        if n == 0 || !(0.0..1.0).contains(&q) {
            return None;
        }
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        (n - rank >= MIN_BEYOND).then(|| self.sorted[rank - 1])
    }

    /// Sum of all samples.
    pub fn total(&self) -> f64 {
        self.sorted.iter().fold(0.0, |a, b| a + b)
    }
}

/// Pool consecutive repetitions (blocks, rounds, cycles) of a run into
/// windows of `per_window` repetitions each; a short tail joins the last
/// window.
pub fn windows(reps: Vec<Vec<f64>>, per_window: usize) -> Vec<Samples> {
    let mut pooled: Vec<Vec<f64>> = Vec::new();
    let full = (reps.len() / per_window.max(1)).max(1);
    for (i, rep) in reps.into_iter().enumerate() {
        let w = (i / per_window.max(1)).min(full - 1);
        if w == pooled.len() {
            pooled.push(Vec::new());
        }
        pooled[w].extend(rep);
    }
    pooled.into_iter().map(Samples::new).collect()
}

/// The median over windows of each window's `q`-quantile, or `None` when
/// some window cannot support it. A contention burst on a shared host
/// confined to a few windows cannot move it, where it would move the
/// percentile of the pooled samples.
pub fn windowed_percentile(windows: &[Samples], q: f64) -> Option<f64> {
    let each: Option<Vec<f64>> = windows.iter().map(|w| w.percentile(q)).collect();
    each.filter(|e| !e.is_empty()).map(|e| median(&e))
}

/// Median of a handful of values (repeated set-ups, repeated loads): no
/// tail rule applies, since it is not a latency percentile.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("values are never NaN"));
    let n = sorted.len();
    assert!(n > 0, "median of nothing");
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// `part / whole`, or 0 when nothing happened.
pub fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Samples {
        Samples::new((1..=n).rev().map(|i| i as f64).collect())
    }

    #[test]
    fn nearest_rank_on_a_ramp() {
        let s = ramp(1000);
        assert_eq!(s.percentile(0.5), Some(500.0));
        assert_eq!(s.percentile(0.9), Some(900.0));
        assert_eq!(s.percentile(0.99), Some(990.0));
        assert_eq!(s.total(), 500_500.0);
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(ramp(999).percentile(0.99), None);
        assert_eq!(ramp(1000).percentile(0.99), Some(990.0));
        assert_eq!(ramp(99).percentile(0.9), None);
        assert_eq!(ramp(100).percentile(0.9), Some(90.0));
        assert_eq!(ramp(19).percentile(0.5), None);
        assert_eq!(ramp(20).percentile(0.5), Some(10.0));
        assert_eq!(Samples::new(Vec::new()).percentile(0.5), None);
    }

    #[test]
    fn percentile_of_a_skewed_sample() {
        // 990 fast samples and 10 slow ones: p99 is still fast, p98 too.
        let mut values = vec![1.0; 990];
        values.extend([100.0; 10]);
        let s = Samples::new(values);
        assert_eq!(s.percentile(0.99), Some(1.0));
        assert_eq!(s.percentile(0.5), Some(1.0));
    }

    #[test]
    fn windowed_percentiles_shrug_off_one_slow_window() {
        let fast = || (1..=100).map(f64::from).collect::<Vec<_>>();
        let slow: Vec<f64> = (1..=100).map(|i| f64::from(i) * 10.0).collect();
        let reps = vec![fast(), fast(), slow, fast(), fast()];
        let w = windows(reps.clone(), 1);
        assert_eq!(w.len(), 5);
        assert_eq!(windowed_percentile(&w, 0.5), Some(50.0));
        assert_eq!(windowed_percentile(&w, 0.9), Some(90.0));
        // Two repetitions per window, the fifth joins the second window.
        let w = windows(reps, 2);
        assert_eq!(
            w.iter().map(Samples::len).collect::<Vec<_>>(),
            vec![200, 300]
        );
        // Windows too small for a percentile report nothing.
        assert_eq!(windowed_percentile(&windows(vec![fast()], 1), 0.99), None);
    }

    #[test]
    fn median_and_ratio() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(ratio(1, 4), 0.25);
        assert_eq!(ratio(3, 0), 0.0);
    }
}
