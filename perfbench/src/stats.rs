//! Order statistics and process facts shared by every workload.

/// Median of `values` (mean of the two middle values for even counts);
/// `0.0` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `q` (0–100) of an ascending slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), q)]
}

/// Index of the nearest-rank `q`-th percentile among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q / 100.0 * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// The tail latency a run can support: the highest percentile of the
/// ladder that still leaves at least [`TAIL_MIN_BEYOND`] samples above
/// it, so the figure never rests on a handful of outliers.
///
/// The ladder stops at p90. On a shared 2-vCPU host, deschedules of
/// tens of milliseconds land in every run; p95 and above then swing by
/// more than 50 % from run to run, so they cannot bound a regression.
/// Runs still print p99 and p99.9 beside the tail.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    /// The percentile chosen (e.g. 90.0).
    pub pct: f64,
    /// Its value.
    pub value: f64,
    /// Samples strictly beyond it.
    pub beyond: usize,
}

/// Minimum number of samples a tail percentile must have beyond it.
pub const TAIL_MIN_BEYOND: usize = 10;

const TAIL_LADDER: [f64; 3] = [90.0, 75.0, 50.0];

/// Picks the [`Tail`] of an ascending slice.
pub fn tail(sorted: &[f64]) -> Tail {
    let n = sorted.len();
    if n == 0 {
        return Tail {
            pct: 50.0,
            value: 0.0,
            beyond: 0,
        };
    }
    let pct = TAIL_LADDER
        .into_iter()
        .find(|&q| n - rank(n, q) > TAIL_MIN_BEYOND)
        .unwrap_or(50.0);
    Tail {
        pct,
        value: percentile(sorted, pct),
        beyond: n.saturating_sub(rank(n, pct) + 1),
    }
}

/// Peak resident set of this process in MB (`VmHWM`), or `0.0` where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!(t.pct, 90.0);
        assert_eq!(t.beyond, 100);
        let small: Vec<f64> = (1..=30).map(f64::from).collect();
        assert_eq!(tail(&small).pct, 50.0);
    }
}
