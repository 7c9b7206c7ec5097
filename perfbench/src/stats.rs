//! The metric maths: order statistics, interval coverage, self time,
//! request accounting and the blocking-path ledger. Pure functions over
//! plain numbers and span records, so each rule is unit-tested here.

use obs::trace::SpanNode;

/// Median of `values` (mean of the middle pair for even counts); `NaN`
/// when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A tail percentile: the value and which percentile it is.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The order statistic.
    pub value: f64,
    /// Its percentile, in percent.
    pub percentile: f64,
}

/// The tail rule: the 99th percentile (nearest rank) when at least ten
/// samples lie beyond it, otherwise the highest percentile that still has
/// ten samples beyond it. `None` below eleven samples.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let n = values.len();
    if n < 11 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let p99_rank = (0.99 * n as f64).ceil() as usize;
    let rank = p99_rank.min(n - 10);
    Some(Tail {
        value: v[rank - 1],
        percentile: 100.0 * rank as f64 / n as f64,
    })
}

/// Total length covered by the union of half-open intervals `[a, b)`.
pub fn covered(intervals: &[(u64, u64)]) -> u64 {
    let mut v: Vec<(u64, u64)> = intervals.iter().copied().filter(|(a, b)| b > a).collect();
    v.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in v {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

/// Clips `intervals` to `[lo, hi)`, dropping what falls outside.
pub fn clip(intervals: &[(u64, u64)], lo: u64, hi: u64) -> Vec<(u64, u64)> {
    intervals
        .iter()
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .filter(|(a, b)| b > a)
        .collect()
}

/// Every node of a forest, pre-order.
pub fn walk(forest: &[SpanNode]) -> Vec<&SpanNode> {
    let mut out = Vec::new();
    let mut stack: Vec<&SpanNode> = forest.iter().rev().collect();
    while let Some(node) = stack.pop() {
        out.push(node);
        stack.extend(node.children.iter().rev());
    }
    out
}

/// Share of the blocking path `[lo, hi)` that no named layer covers.
/// Layers are the spans of `forest` whose `(target, name)` satisfies
/// `named`, plus any extra intervals the caller measured itself.
pub fn unattributed_frac(
    lo: u64,
    hi: u64,
    forest: &[SpanNode],
    named: impl Fn(&str, &str) -> bool,
    extra: &[(u64, u64)],
) -> f64 {
    if hi <= lo {
        return 0.0;
    }
    let mut layers: Vec<(u64, u64)> = walk(forest)
        .into_iter()
        .filter(|n| named(n.record.target, n.record.name))
        .map(|n| (n.record.start_ns, n.record.end_ns))
        .collect();
    layers.extend_from_slice(extra);
    let path = hi - lo;
    (path - covered(&clip(&layers, lo, hi))) as f64 / path as f64
}

/// What came back for one served request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// `ok`, executed on a board.
    Miss,
    /// `ok`, answered from the result store.
    Hit,
    /// Not `ok` (shed, timeout, error), unanswered, or a wrong result.
    Failed,
}

/// Request accounting for one served phase.
#[derive(Debug, Clone, PartialEq)]
pub struct Tally {
    /// Requests sent.
    pub attempted: usize,
    /// Requests that failed (see [`Status::Failed`]).
    pub failed: usize,
    /// `ok` responses within the latency limit.
    pub good: usize,
}

impl Tally {
    /// Counts `(status, latency_ms)` outcomes against `limit_ms`. A failed
    /// request also counts as missing the limit, whatever its latency.
    pub fn of(outcomes: &[(Status, f64)], limit_ms: f64) -> Tally {
        let failed = outcomes
            .iter()
            .filter(|(s, _)| *s == Status::Failed)
            .count();
        let good = outcomes
            .iter()
            .filter(|(s, ms)| *s != Status::Failed && *ms <= limit_ms)
            .count();
        Tally {
            attempted: outcomes.len(),
            failed,
            good,
        }
    }

    /// Failed over attempted.
    pub fn fail_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Good responses per second of the arrival schedule.
    pub fn goodput_rps(&self, schedule_s: f64) -> f64 {
        self.good as f64 / schedule_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::trace::{build_forest, SpanRecord};

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_is_p99_only_with_ten_samples_beyond_it() {
        let values: Vec<f64> = (1..=2000).map(f64::from).collect();
        let t = tail(&values).unwrap();
        assert_eq!((t.value, t.percentile), (1980.0, 99.0));
        // 1000 samples: p99 is rank 990, exactly ten beyond.
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&values).unwrap().value, 990.0);
        // 100 samples: p99 has one beyond it, so fall back to rank 90.
        let values: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let t = tail(&values).unwrap();
        assert_eq!((t.value, t.percentile), (90.0, 90.0));
        assert_eq!(tail(&values[..11]).unwrap().value, 90.0);
        assert_eq!(tail(&values[..10]), None);
    }

    #[test]
    fn covered_merges_overlaps_once() {
        assert_eq!(covered(&[(0, 10), (5, 15), (20, 25), (24, 24)]), 20);
        assert_eq!(covered(&[(3, 4), (0, 10)]), 10);
        assert_eq!(covered(&[]), 0);
    }

    fn span(id: u64, parent: Option<u64>, start: u64, end: u64) -> SpanRecord {
        SpanRecord {
            trace_id: 1,
            span_id: id,
            parent,
            seq: id,
            target: "t",
            name: if parent.is_none() { "root" } else { "layer" },
            start_ns: start,
            end_ns: end,
            links: Vec::new(),
            notes: Vec::new(),
        }
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        // root [0, 100); children [10, 40) and [30, 60) overlap by 10, and
        // [90, 120) sticks out past the root's end.
        let forest = build_forest(&[
            span(1, None, 0, 100),
            span(2, Some(1), 10, 40),
            span(3, Some(1), 30, 60),
            span(4, Some(1), 90, 120),
        ]);
        // The root's self time is the part of it no other span covers.
        let children = |_: &str, name: &str| name != "root";
        let self_ns = unattributed_frac(0, 100, &forest, children, &[]) * 100.0;
        assert!((self_ns - (100.0 - 50.0 - 10.0)).abs() < 1e-9, "{self_ns}");
    }

    #[test]
    fn fail_frac_and_goodput_count_refusals_as_misses_of_the_limit() {
        let outcomes = [
            (Status::Hit, 0.4),
            (Status::Miss, 12.0),
            (Status::Miss, 900.0), // ok but over the limit
            (Status::Failed, 0.1), // shed: fast, still a failure
            (Status::Failed, 5.0), // timeout
            (Status::Failed, 2.0), // error
        ];
        let t = Tally::of(&outcomes, 250.0);
        assert_eq!((t.attempted, t.failed, t.good), (6, 3, 2));
        assert_eq!(t.fail_frac(), 0.5);
        assert_eq!(t.goodput_rps(4.0), 0.5);
    }

    #[test]
    fn ledger_unattributed_share_on_a_hand_built_forest() {
        // Blocking path [0, 100). Named layers: queue [5, 20), exec
        // [20, 70) with a nested child [30, 40) and an unnamed sibling
        // [70, 80). The caller adds its own respond interval [90, 100).
        let forest = build_forest(&[
            span(1, None, 0, 100),
            SpanRecord {
                name: "queue",
                ..span(2, Some(1), 5, 20)
            },
            SpanRecord {
                name: "exec",
                ..span(3, Some(1), 20, 70)
            },
            SpanRecord {
                name: "exec",
                ..span(5, Some(3), 30, 40)
            },
            SpanRecord {
                name: "encode",
                ..span(4, Some(1), 70, 80)
            },
        ]);
        let named = |_: &str, name: &str| matches!(name, "queue" | "exec");
        let frac = unattributed_frac(0, 100, &forest, named, &[(90, 100)]);
        // Covered: 15 + 50 + 10 = 75; unattributed 25 of 100.
        assert!((frac - 0.25).abs() < 1e-12, "{frac}");
        // Everything named: nothing left over.
        assert_eq!(unattributed_frac(0, 100, &forest, |_, _| true, &[]), 0.0);
    }
}
