//! Harness statistics: warm-up discard, median, quartiles, the tail-percentile
//! rule and self time of nested spans.

/// One timed interval around a call into a layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `<layer>.<operation>`, or `pass` for the root span of a pass.
    pub name: &'static str,
    /// Nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the recorder's epoch; never before `start_ns`.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// The pass (or probe round) the span belongs to.
    pub pass: u32,
}

/// The samples that count: everything after the first `warmup` ones.
pub fn after_warmup(samples: &[f64], warmup: usize) -> &[f64] {
    &samples[warmup.min(samples.len())..]
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The smallest value; 0 for an empty sample. Interference from outside the
/// process only ever adds time, so the fastest pass is the steadiest estimate
/// of what the work costs.
pub fn min(values: &[f64]) -> f64 {
    values.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// Median; 0 for an empty sample so that a layer a workload never calls
/// reads as zero time.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First quartile, median and third quartile, by the rule of Python's
/// `statistics.quantiles(values, n=4)` (the driver's rule), so that a spread
/// computed here reads the same as the one the driver computes.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        let only = v.first().copied().unwrap_or(0.0);
        return (only, only, only);
    }
    let cut = |i: usize| {
        // Python: j = i*(n+1) // 4 clamped to 1..=n-1, delta = i*(n+1) - 4j.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (4 * j) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// The highest of p50/p75/p90/p95/p99 that still has at least ten samples
/// beyond it; p50 when fewer than twenty samples leave no such percentile.
pub fn tail_percentile(samples: usize) -> u32 {
    [99u32, 95, 90, 75, 50]
        .into_iter()
        .find(|p| samples * (100 - *p as usize) >= 10 * 100)
        .unwrap_or(50)
}

/// The `pct`-th percentile by nearest rank.
pub fn percentile(values: &[f64], pct: u32) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let rank = (v.len() * pct as usize).div_ceil(100).clamp(1, v.len());
    v[rank - 1]
}

/// Self time of every span: its duration minus the part of that interval its
/// direct children cover (overlapping children are counted once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p as usize].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(cursor);
                let end = end.min(s.end_ns);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warmup_is_discarded() {
        assert_eq!(after_warmup(&[9.0, 1.0, 2.0], 1), [1.0, 2.0]);
        assert!(after_warmup(&[9.0], 3).is_empty());
    }

    #[test]
    fn min_of_values_and_empty() {
        assert_eq!(min(&[3.0, 1.5, 2.0]), 1.5);
        assert_eq!(min(&[]), 0.0);
    }

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 4.0, 12.0));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(5), 50);
        assert_eq!(tail_percentile(19), 50);
        assert_eq!(tail_percentile(20), 50);
        assert_eq!(tail_percentile(39), 50);
        assert_eq!(tail_percentile(40), 75);
        assert_eq!(tail_percentile(100), 90);
        assert_eq!(tail_percentile(200), 95);
        assert_eq!(tail_percentile(1000), 99);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50), 50.0);
        assert_eq!(percentile(&v, 90), 90.0);
        assert_eq!(percentile(&[5.0, 1.0], 50), 1.0);
    }

    fn span(start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            name: "t",
            start_ns,
            end_ns,
            parent,
            pass: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_once() {
        let spans = [
            span(0, 100, None),    // root: children cover 10..40 and 30..60 => 50
            span(10, 40, Some(0)), // grandchild covers 20..30 => self 20
            span(30, 60, Some(0)),
            span(20, 30, Some(1)),
            span(200, 250, None), // unrelated root
        ];
        assert_eq!(self_times_ns(&spans), [50, 20, 30, 10, 50]);
    }
}
