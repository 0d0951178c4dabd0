//! Order statistics for the reported timings.

/// Nearest-rank percentile `p` (0–100] of `sorted` (ascending, non-empty).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v.to_vec());
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The tail percentile a sample of `n` supports: the highest of p99, p95,
/// p90 and p75 that leaves at least ten samples beyond it; p50 when none
/// does.
pub fn tail_percentile(n: usize) -> f64 {
    for p in [99.0, 95.0, 90.0, 75.0] {
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        if n >= rank + 10 {
            return p;
        }
    }
    50.0
}

/// A timing summary: median and supported tail, with the sample count.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub tail_p: f64,
    pub tail: f64,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "a summary needs at least one sample");
        let s = sorted(samples.to_vec());
        let (p50, tail_p) = (median(&s), tail_percentile(s.len()));
        let tail = if tail_p == 50.0 { p50 } else { percentile(&s, tail_p) };
        Self { n: s.len(), p50, tail_p, tail }
    }
}

/// Least-squares slope of `ys` over `xs`.
pub fn slope(xs: &[f64], ys: &[f64]) -> f64 {
    let n = xs.len() as f64;
    if xs.len() < 2 {
        return 0.0;
    }
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let (mut sxy, mut sxx) = (0.0, 0.0);
    for (x, y) in xs.iter().zip(ys) {
        sxy += (x - mx) * (y - my);
        sxx += (x - mx) * (x - mx);
    }
    if sxx == 0.0 {
        0.0
    } else {
        sxy / sxx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        assert_eq!(tail_percentile(5), 50.0);
        assert_eq!(tail_percentile(40), 75.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(1000), 99.0);
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!((s.p50, s.tail_p, s.tail), (500.5, 99.0, 990.0));
    }

    #[test]
    fn slope_of_a_line() {
        let xs = [0.0, 1.0, 2.0, 3.0];
        let ys = [1.0, 3.0, 5.0, 7.0];
        assert_eq!(slope(&xs, &ys), 2.0);
    }
}
