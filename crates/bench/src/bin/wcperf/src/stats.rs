//! Order statistics and the two-commit comparison rule.

/// Median of `values` (mean of the middle pair for an even count);
/// `0.0` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The three cut points of Python's `statistics.quantiles(values, n=4)`
/// (the default "exclusive" method), so a spread computed here matches
/// one computed from the printed values. A single value is its own
/// quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let v = sorted(values);
    match v.len() {
        0 => (0.0, 0.0, 0.0),
        1 => (v[0], v[0], v[0]),
        n => {
            let m = n + 1;
            let cut = |i: usize| {
                let j = (i * m / 4).clamp(1, n - 1);
                let delta = (i * m) as f64 / 4.0 - j as f64;
                v[j - 1] + (v[j] - v[j - 1]) * delta
            };
            (cut(1), cut(2), cut(3))
        }
    }
}

/// Nearest-rank percentile `p` (0–100, in steps of 0.1) of `values`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    v[rank(v.len(), p).max(1) - 1]
}

/// The 1-based nearest rank of percentile `p` among `n` samples, in
/// integer per-mille arithmetic so `p99` of 1000 samples is exactly
/// rank 990.
fn rank(n: usize, p: f64) -> usize {
    let per_mille = (p * 10.0).round() as usize;
    (per_mille * n).div_ceil(1000).min(n)
}

/// Samples strictly above the nearest-rank percentile `p` of `n`.
fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// The highest percentile of the ladder that still has at least ten
/// samples beyond it, so the tail it reports is not a single outlier;
/// `None` below twenty samples, where not even the median has.
pub fn reportable_percentile(n: usize) -> Option<f64> {
    [99.9, 99.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .find(|&p| beyond(n, p) >= 10)
}

/// One pass's time: the sum over ops of each op's fastest latency
/// across passes. Other work on the host only ever adds time to an op,
/// so its fastest repetition is the steadiest estimate of its cost.
pub fn pass_seconds(per_op: &[Vec<f64>]) -> f64 {
    per_op
        .iter()
        .filter_map(|s| s.iter().copied().min_by(f64::total_cmp))
        .sum()
}

/// The latency samples the percentiles are taken over: each op's `k`
/// fastest repetitions, `k` the smallest count that yields at least
/// `min_total` samples (or all of an op's repetitions, when fewer).
pub fn fastest_samples(per_op: &[Vec<f64>], min_total: usize) -> Vec<f64> {
    let ops = per_op.iter().filter(|s| !s.is_empty()).count().max(1);
    let k = min_total.div_ceil(ops).max(1);
    per_op
        .iter()
        .flat_map(|s| sorted(s).into_iter().take(k))
        .collect()
}

/// Interquartile range as a share of the median's magnitude.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(values);
    if q2 == 0.0 {
        if q3 == q1 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (q3 - q1) / q2.abs()
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// Whether `to` is strictly better than `from`.
    pub fn improves(self, from: f64, to: f64) -> bool {
        match self {
            Better::Lower => to < from,
            Better::Higher => to > from,
        }
    }

    /// How much worse `change` is than `parent`, as a share of the
    /// parent (negative when it is better).
    pub fn worsening(self, parent: f64, change: f64) -> f64 {
        let delta = match self {
            Better::Lower => change - parent,
            Better::Higher => parent - change,
        };
        if parent == 0.0 {
            if delta == 0.0 {
                0.0
            } else {
                delta.signum() * f64::INFINITY
            }
        } else {
            delta / parent.abs()
        }
    }
}

/// The outcome of comparing one (metric, workload) pair of two commits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// At least ten pairs, the change won nine tenths of them, and the
    /// medians differ by more than the parent's interquartile range.
    Gain,
    /// Within the bound and no gain shown.
    Unchanged,
    /// The change's median is worse than the parent's by more than the
    /// bound.
    Regression,
    /// The run-to-run spread is wider than the bound, and the change
    /// does not read better on every run.
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Gain => "gain",
            Verdict::Unchanged => "unchanged",
            Verdict::Regression => "REGRESSION",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Both sides' quartiles, the pairwise tally and the verdict.
#[derive(Clone, Copy, Debug)]
pub struct Comparison {
    pub parent: (f64, f64, f64),
    pub change: (f64, f64, f64),
    /// Pairs (in run order) the change won; ties count for neither.
    pub wins: usize,
    pub pairs: usize,
    /// How much worse the change's median is, as a share of the
    /// parent's median.
    pub worsening: f64,
    pub verdict: Verdict,
}

/// Fewest parent/change pairs a gain may rest on.
pub const MIN_PAIRS: usize = 10;

/// Compares the runs of the parent and the change of one metric.
/// `parent[i]` and `change[i]` form pair `i`.
pub fn compare(parent: &[f64], change: &[f64], better: Better, bound: f64) -> Comparison {
    let p = quartiles(parent);
    let c = quartiles(change);
    let pairs = parent.len().min(change.len());
    let wins = parent
        .iter()
        .zip(change)
        .filter(|(&a, &b)| better.improves(a, b))
        .count();
    let worsening = better.worsening(p.1, c.1);
    let every_run_better = !parent.is_empty()
        && parent
            .iter()
            .all(|&a| change.iter().all(|&b| better.improves(a, b)));
    let gain = pairs >= MIN_PAIRS
        && wins * 10 >= pairs * 9
        && better.improves(p.1, c.1)
        && (c.1 - p.1).abs() > p.2 - p.0;
    let verdict = if spread(parent).max(spread(change)) > bound && !every_run_better {
        Verdict::Unresolved
    } else if worsening > bound {
        Verdict::Regression
    } else if gain {
        Verdict::Gain
    } else {
        Verdict::Unchanged
    };
    Comparison {
        parent: p,
        change: c,
        wins,
        pairs,
        worsening,
        verdict,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn percentile_rule_keeps_ten_samples_beyond() {
        assert_eq!(reportable_percentile(19), None);
        assert_eq!(reportable_percentile(20), Some(50.0));
        assert_eq!(reportable_percentile(100), Some(90.0));
        assert_eq!(reportable_percentile(200), Some(95.0));
        assert_eq!(reportable_percentile(432), Some(95.0));
        assert_eq!(reportable_percentile(1000), Some(99.0));
        assert_eq!(reportable_percentile(10_000), Some(99.9));
        for n in [20, 57, 200, 999, 2020, 50_000] {
            let p = reportable_percentile(n).expect("at least ten samples");
            assert!(beyond(n, p) >= 10, "p{p} of {n}");
        }
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 95.0), 190.0);
        assert_eq!(v.iter().filter(|&&x| x > 190.0).count(), 10);
    }

    #[test]
    fn pass_time_sums_per_op_fastest_repetitions() {
        // A contended repetition (9.0) moves neither op's fastest time;
        // an op that never succeeded adds nothing.
        let per_op = vec![vec![1.5, 9.0, 1.0], vec![2.5, 2.0, 3.0], vec![]];
        assert_eq!(pass_seconds(&per_op), 3.0);
    }

    #[test]
    fn latency_samples_keep_each_ops_fastest_repetitions() {
        let per_op = vec![
            vec![4.0, 1.0, 3.0, 2.0],
            vec![8.0, 5.0, 7.0, 6.0],
            vec![12.0, 9.0, 11.0, 10.0],
        ];
        // Six samples from three ops: the two fastest of each.
        assert_eq!(
            fastest_samples(&per_op, 6),
            vec![1.0, 2.0, 5.0, 6.0, 9.0, 10.0]
        );
        assert_eq!(fastest_samples(&per_op, 1), vec![1.0, 5.0, 9.0]);
        // More samples than repetitions: every repetition, once.
        assert_eq!(fastest_samples(&per_op, 100).len(), 12);
    }

    #[test]
    fn compare_verdicts_on_synthetic_samples() {
        let parent = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.1, 9.9, 10.0];
        // A clear gain on a lower-is-better metric.
        let faster: Vec<f64> = parent.iter().map(|v| v * 0.8).collect();
        let c = compare(&parent, &faster, Better::Lower, 0.10);
        assert_eq!((c.verdict, c.wins, c.pairs), (Verdict::Gain, 10, 10));
        // The same numbers on a higher-is-better metric regress.
        assert_eq!(
            compare(&parent, &faster, Better::Higher, 0.10).verdict,
            Verdict::Regression
        );
        // Inside the bound and no consistent win: unchanged.
        let same: Vec<f64> = parent.iter().rev().copied().collect();
        assert_eq!(
            compare(&parent, &same, Better::Lower, 0.10).verdict,
            Verdict::Unchanged
        );
        // 5 % slower stays inside a 10 % bound but is no gain.
        let slower: Vec<f64> = parent.iter().map(|v| v * 1.05).collect();
        assert_eq!(
            compare(&parent, &slower, Better::Lower, 0.10).verdict,
            Verdict::Unchanged
        );
        // 20 % slower breaks it.
        let slower: Vec<f64> = parent.iter().map(|v| v * 1.2).collect();
        let c = compare(&parent, &slower, Better::Lower, 0.10);
        assert_eq!(c.verdict, Verdict::Regression);
        assert!((c.worsening - 0.2).abs() < 1e-9);
        // A noisy parent leaves the answer open...
        let noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0];
        assert_eq!(
            compare(&noisy, &parent, Better::Lower, 0.10).verdict,
            Verdict::Unresolved
        );
        // ...unless every change run beats every parent run.
        let far: Vec<f64> = noisy.iter().map(|_| 1.0).collect();
        assert_eq!(
            compare(&noisy, &far, Better::Lower, 0.10).verdict,
            Verdict::Gain
        );
        // Winning 8 of 10 pairs is not enough for a gain.
        let mut mixed = faster.clone();
        mixed[0] = 11.0;
        mixed[1] = 11.0;
        let c = compare(&parent, &mixed, Better::Lower, 0.30);
        assert_eq!((c.wins, c.verdict), (8, Verdict::Unchanged));
        // Five pairs are too few for a gain, however clear.
        let c = compare(&parent[..5], &faster[..5], Better::Lower, 0.10);
        assert_eq!((c.wins, c.verdict), (5, Verdict::Unchanged));
    }
}
