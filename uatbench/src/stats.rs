//! Order statistics over run samples, and the metric-name rule.

/// Percentiles considered for a tail figure, highest first.
const TAIL_LADDER: [f64; 4] = [0.999, 0.99, 0.9, 0.5];

/// Samples that must lie beyond a percentile before it is reported.
const TAIL_MIN_BEYOND: f64 = 10.0;

/// Median of `xs`: the middle value, or the mean of the two middle
/// values for an even count. Panics on an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The `n - 1` cut points dividing `xs` into `n` groups, computed
/// exactly as Python's `statistics.quantiles(xs, n=n)` (the default
/// "exclusive" method), so spreads printed here match the ones a
/// Python script computes from the same values. Panics on an empty
/// slice or `n < 2`.
pub fn quantiles(xs: &[f64], n: usize) -> Vec<f64> {
    assert!(!xs.is_empty(), "quantiles of no samples");
    assert!(n >= 2, "need at least two groups");
    let s = sorted(xs);
    let ld = s.len();
    if ld == 1 {
        return vec![s[0]; n - 1];
    }
    let m = ld + 1;
    (1..n)
        .map(|i| {
            let j = (i * m / n).clamp(1, ld - 1);
            // Negative when the clamp raised `j`: extrapolation, as in Python.
            let delta = (i * m) as f64 - (j * n) as f64;
            (s[j - 1] * (n as f64 - delta) + s[j] * delta) / n as f64
        })
        .collect()
}

/// The highest percentile (as a fraction, e.g. `0.99`) with at least
/// ten of `count` samples beyond it, or `None` below twenty samples.
pub fn tail_percentile(count: usize) -> Option<f64> {
    TAIL_LADDER
        .into_iter()
        .find(|p| count as f64 * (1.0 - p) >= TAIL_MIN_BEYOND - 1e-9)
}

/// Nearest-rank percentile `p` (fraction) of `xs`. Panics on empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of no samples");
    let s = sorted(xs);
    let rank = ((p * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

/// A sample set as it is reported: count, median, quartiles, and the
/// tail percentile when there are enough samples for one.
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    pub fn of(xs: &[f64]) -> Summary {
        let q = quantiles(xs, 4);
        Summary {
            n: xs.len(),
            median: median(xs),
            q1: q[0],
            q3: q[2],
            tail: tail_percentile(xs.len()).map(|p| (p, percentile(xs, p))),
        }
    }

    /// `n=.. median=.. iqr=[..,..] p..=..` with values printed by `fmt`.
    pub fn line(&self, fmt: impl Fn(f64) -> String) -> String {
        let tail = match self.tail {
            Some((p, v)) => format!("p{}={}", p * 100.0, fmt(v)),
            None => "tail=n/a(<20 samples)".to_string(),
        };
        format!(
            "n={} median={} iqr=[{}, {}] spread={:.3} {tail}",
            self.n,
            fmt(self.median),
            fmt(self.q1),
            fmt(self.q3),
            (self.q3 - self.q1) / self.median.abs()
        )
    }
}

/// Whether `name` is a legal metric name: 1 to 64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    (1..=64).contains(&name.len())
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantiles(&xs, 4), vec![2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quantiles(&[3.0, 1.0, 2.0], 4), vec![1.0, 2.0, 3.0]);
        // statistics.quantiles([5, 1], n=4) == [0.0, 3.0, 6.0]
        assert_eq!(quantiles(&[5.0, 1.0], 4), vec![0.0, 3.0, 6.0]);
        assert_eq!(quantiles(&[4.0], 4), vec![4.0, 4.0, 4.0]);
        // Middle cut point is the median.
        let ys = [9.0, 2.0, 7.0, 4.0, 5.0, 1.0];
        assert_eq!(quantiles(&ys, 4)[1], median(&ys));
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(0.5));
        assert_eq!(tail_percentile(99), Some(0.5));
        assert_eq!(tail_percentile(100), Some(0.9));
        assert_eq!(tail_percentile(999), Some(0.9));
        assert_eq!(tail_percentile(1_000), Some(0.99));
        assert_eq!(tail_percentile(10_000), Some(0.999));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.9), 90.0);
        assert_eq!(percentile(&xs, 0.5), 50.0);
        assert_eq!(percentile(&xs, 1.0), 100.0);
        let s = Summary::of(&xs);
        assert_eq!(s.tail, Some((0.9, 90.0)));
        assert_eq!(s.n, 100);
    }

    #[test]
    fn metric_names() {
        for ok in ["setup_s", "native.w1.units_per_s", "9lives", "a-b_c.d"] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in [
            "",
            ".lead",
            "_lead",
            "sp ace",
            "slash/no",
            "ünï",
            long.as_str(),
        ] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }
}
