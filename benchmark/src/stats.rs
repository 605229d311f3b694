//! Order statistics for the benchmark's reports.

/// Median of `v` (mean of the two middle values for even counts);
/// `NaN` for an empty slice so a missing sample set can never pass for
/// a measurement.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        0.5 * (s[m - 1] + s[m])
    }
}

/// Nearest-rank `p`-th percentile (`0 < p <= 100`) of `v`.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    // The small slack keeps products like 0.8 x 60 = 48.000000000000007
    // from rounding up a rank.
    let rank = (p * s.len() as f64 / 100.0 - 1e-9).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// Percentiles a tail metric may be reported at, in rising order.
pub const TAIL_LADDER: [u32; 6] = [50, 75, 80, 90, 95, 99];

/// The reporting rule: the highest percentile of [`TAIL_LADDER`] that
/// still has at least ten samples beyond its nearest-rank position among
/// `n` samples. Falls back to the median when even p75 has fewer.
pub fn tail_percentile(n: usize) -> f64 {
    let mut best = TAIL_LADDER[0];
    for &p in &TAIL_LADDER[1..] {
        let rank = (p as usize * n).div_ceil(100);
        if n - rank >= 10 {
            best = p;
        }
    }
    f64::from(best)
}

/// Interquartile range of `v` as a share of its median — the spread the
/// comparison rule is stated in. Uses the same exclusive quartile method
/// as Python's `statistics.quantiles(v, n=4)`. Zero for fewer than two
/// samples.
pub fn iqr_share(v: &[f64]) -> f64 {
    if v.len() < 2 {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let q = |k: f64| {
        let pos = k * (s.len() as f64 + 1.0) / 4.0;
        let lo = (pos.floor() as usize).clamp(1, s.len() - 1);
        // Like Python, extrapolate rather than clamp when the position
        // falls outside the sample range (tiny sample counts).
        let frac = pos - lo as f64;
        s[lo - 1] + frac * (s[lo] - s[lo - 1])
    };
    let med = median(&s);
    if med == 0.0 {
        return 0.0;
    }
    ((q(3.0) - q(1.0)) / med).abs()
}
