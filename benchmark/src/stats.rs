//! Order statistics over raw samples.
//!
//! The benchmark keeps every timing as a raw nanosecond sample and reduces
//! with nearest-rank percentiles; it never goes through the engine's
//! log-linear `Histogram`, whose bucket edges hide a 3–6% change.
//!
//! The end-to-end timings are *quiet-window* statistics. The host this runs
//! on is shared: for seconds or minutes at a time another tenant makes
//! everything 25–60% slower, and a whole-run percentile then says what the
//! neighbour did. Interference only ever adds time, so a run is cut into
//! windows of consecutive ops, each window is reduced on its own, and the
//! run reports the value its quietest tenth of windows reach
//! ([`quiet_decile`]). A change to the program moves every window, the quiet
//! ones too; a stall of the program's own that spares a tenth of the windows
//! does not show, which is the price (the run artifact keeps the whole-run
//! numbers beside these for that reason).

/// Nearest-rank percentile (`p` in 0..=100) of an ascending slice.
///
/// # Panics
///
/// Panics on an empty slice: every caller sizes its loop for at least one
/// sample, so an empty one is a harness bug.
pub fn percentile<T: Copy>(sorted: &[T], p: f64) -> T {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `samples` in place and returns its nearest-rank percentile.
pub fn percentile_of(samples: &mut [u64], p: f64) -> u64 {
    samples.sort_unstable();
    percentile(samples, p)
}

/// Consecutive ops in one window of a closed loop: enough for a window's
/// p95 to rest on its second-slowest op, and about half a second of work.
pub const WINDOW_OPS: usize = 32;

/// `stat` of every full window of `window` consecutive samples.
pub fn per_window(samples: &[u64], window: usize, stat: impl Fn(&mut [u64]) -> u64) -> Vec<u64> {
    samples
        .chunks_exact(window)
        .map(|chunk| stat(&mut chunk.to_vec()))
        .collect()
}

/// What the quietest tenth of the windows reach: the nearest-rank first
/// decile of the per-window values (all of them times, so lower is quieter).
pub fn quiet_decile(per_window: &[u64]) -> u64 {
    let mut sorted = per_window.to_vec();
    percentile_of(&mut sorted, 10.0)
}

/// How long each full window of `window` consecutive completions took, from
/// the completion stamps of a loop that started at stamp 0.
pub fn window_spans(done_ns: &[u64], window: usize) -> Vec<u64> {
    let ends = done_ns.iter().skip(window - 1).step_by(window);
    let starts = std::iter::once(&0).chain(ends.clone());
    starts.zip(ends).map(|(start, end)| end - start).collect()
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method) gives them —
/// the rule the benchmark's acceptance check uses.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Distance between the quartiles as a share of the median.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

pub fn ns_to_ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

pub fn ns_to_us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 95.0), 95);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&[7u64], 95.0), 7);
    }

    #[test]
    fn windows() {
        let samples: Vec<u64> = (1..=10).collect();
        // Two full windows of four; the last two samples make no window.
        let p50 = per_window(&samples, 4, |w| percentile_of(w, 50.0));
        assert_eq!(p50, [2, 6]);
        assert_eq!(quiet_decile(&p50), 2);
        assert_eq!(
            window_spans(&[3, 5, 9, 10, 20, 21, 22, 30, 31], 4),
            [10, 20]
        );
    }

    #[test]
    fn quartiles_match_python() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]);
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
    }
}
