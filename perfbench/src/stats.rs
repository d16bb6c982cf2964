//! Order statistics over latency samples.

use crate::json::Json;

/// Candidate tail percentiles, highest first.
const TAIL_LADDER: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// Minimum samples strictly beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The `p`-th percentile (0–100) by nearest rank over sorted `xs`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted values.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

/// Arithmetic mean (0 for no values).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// A tail summary: the percentile used and the samples it rests on.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    pub percentile: f64,
    pub value: f64,
    pub samples: usize,
    pub beyond: usize,
    /// True when the run had too few samples for the workload's fixed
    /// tail percentile and a lower one was used.
    pub fallback: bool,
}

impl Tail {
    pub fn to_json(self) -> Json {
        Json::obj()
            .with("percentile", self.percentile)
            .with("samples", self.samples)
            .with("beyond", self.beyond)
            .with("fallback", self.fallback)
    }
}

/// Samples strictly above the `p`-th percentile.
fn beyond(sorted: &[f64], p: f64) -> usize {
    let v = percentile(sorted, p);
    sorted.len() - sorted.partition_point(|x| *x <= v)
}

/// The tail at `want` (a fixed per-workload percentile, so runs of two
/// commits compare the same quantile). If fewer than [`TAIL_BEYOND`]
/// samples lie beyond it, the highest ladder percentile that has them
/// is used instead and the fallback is recorded.
pub fn tail(xs: &[f64], want: f64) -> Tail {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pick = |p: f64, fallback: bool| Tail {
        percentile: p,
        value: percentile(&v, p),
        samples: v.len(),
        beyond: beyond(&v, p),
        fallback,
    };
    if beyond(&v, want) >= TAIL_BEYOND {
        return pick(want, false);
    }
    TAIL_LADDER
        .iter()
        .copied()
        .filter(|&p| p < want)
        .find(|&p| beyond(&v, p) >= TAIL_BEYOND)
        .map_or_else(|| pick(50.0, true), |p| pick(p, true))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        let t = tail(&xs, 95.0);
        assert_eq!(t.percentile, 95.0);
        assert_eq!(t.value, 190.0);
        assert_eq!(t.beyond, 10);
        let t = tail(&xs, 99.0);
        assert!(t.fallback);
        assert_eq!(t.percentile, 95.0);
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.0);
    }
}
