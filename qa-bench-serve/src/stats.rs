//! Percentiles that say how many samples support them, by the workspace's
//! one nearest-rank rule, [`qa_obs::percentile_sorted`].

/// Percentiles the tail helper tries, highest first.
const LADDER: [f64; 4] = [99.9, 99.0, 90.0, 50.0];

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// A percentile of a sample, with the sample count behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Pct {
    /// Which percentile `value` is (e.g. `99.0`).
    pub pct: f64,
    /// The sample at that percentile.
    pub value: u64,
    /// Number of samples.
    pub samples: usize,
}

/// Percentile `pct` (0–100) of an ascending slice; `None` when empty.
pub fn percentile(sorted: &[u64], pct: f64) -> Option<Pct> {
    (!sorted.is_empty()).then(|| Pct {
        pct,
        value: qa_obs::percentile_sorted(sorted, pct / 100.0),
        samples: sorted.len(),
    })
}

/// The median of an ascending slice.
pub fn median(sorted: &[u64]) -> Option<Pct> {
    percentile(sorted, 50.0)
}

/// The highest percentile, at most `max_pct`, that has at least
/// [`MIN_BEYOND`] samples beyond it. A sample too small to support even
/// the median yields `None`.
pub fn tail(sorted: &[u64], max_pct: f64) -> Option<Pct> {
    let n = sorted.len();
    LADDER
        .iter()
        .copied()
        .filter(|&p| p <= max_pct)
        .find(|&p| n > 0 && n - 1 - rank(n, p) >= MIN_BEYOND)
        .and_then(|p| percentile(sorted, p))
}

/// The 0-based rank `percentile_sorted` picks for `pct` among `n` samples.
fn rank(n: usize, pct: f64) -> usize {
    (((n as f64 - 1.0) * (pct / 100.0)).round() as usize).min(n - 1)
}

/// The interquartile mean of an ascending slice: the mean of its middle
/// half, with a quarter of the samples dropped at each end (none when
/// fewer than four). `None` when empty.
pub fn interquartile_mean(sorted: &[u64]) -> Option<f64> {
    let cut = sorted.len() / 4;
    let middle = &sorted[cut..sorted.len() - cut];
    (!middle.is_empty()).then(|| middle.iter().sum::<u64>() as f64 / middle.len() as f64)
}

/// Sort a sample ascending.
pub fn sorted(mut values: Vec<u64>) -> Vec<u64> {
    values.sort_unstable();
    values
}
