//! Group-separability analysis for quantized side-channel observations.
//!
//! Figure 4 of the paper shows that the FPGA *current* channel separates all
//! 17 RSA key Hamming-weight groups while the *power* channel — truncated to
//! a 25 mW LSB — collapses them into roughly 5 groups. This module provides
//! the clustering logic that turns per-group sample distributions into a
//! "number of distinguishable groups" verdict.

use crate::{Result, StatsError, Summary};

/// Distribution summary for one labelled group of observations.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupSummary {
    /// Caller-supplied label (e.g. the key's Hamming weight).
    pub label: String,
    /// Descriptive statistics of the group's samples.
    pub summary: Summary,
}

/// Result of a separability analysis over several groups.
#[derive(Debug, Clone, PartialEq)]
pub struct Separability {
    /// Per-group summaries, in the caller's group order.
    pub groups: Vec<GroupSummary>,
    /// Cluster index assigned to each group (same order as `groups`).
    /// Groups sharing an index are statistically indistinguishable.
    pub cluster_of: Vec<usize>,
    /// Number of distinct clusters.
    pub distinguishable: usize,
}

impl Separability {
    /// Groups per cluster, as lists of group indices.
    pub fn clusters(&self) -> Vec<Vec<usize>> {
        let mut out: Vec<Vec<usize>> = vec![Vec::new(); self.distinguishable];
        for (g, &c) in self.cluster_of.iter().enumerate() {
            out[c].push(g);
        }
        out
    }
}

/// Analyzes whether labelled sample groups are pairwise distinguishable.
///
/// Two *adjacent* groups (in the caller-supplied order, which should be the
/// natural ordering of the underlying secret, e.g. increasing Hamming
/// weight) are merged into one cluster when the difference of their means is
/// smaller than `z * pooled standard error` — i.e. when a mean-difference
/// test at roughly the given z-score cannot tell them apart.
///
/// # Errors
///
/// * [`StatsError::Empty`] if `groups` is empty or any group is empty.
/// * [`StatsError::InvalidParameter`] if `z` is not positive.
///
/// # Examples
///
/// ```
/// use trace_stats::separability::separability;
///
/// let low: Vec<f64> = (0..100).map(|i| 10.0 + (i % 3) as f64 * 0.01).collect();
/// let high: Vec<f64> = (0..100).map(|i| 20.0 + (i % 3) as f64 * 0.01).collect();
/// let result = separability(&[("low", low.as_slice()), ("high", &high)], 3.0).unwrap();
/// assert_eq!(result.distinguishable, 2);
/// ```
pub fn separability(groups: &[(&str, &[f64])], z: f64) -> Result<Separability> {
    separability_quantized(groups, z, 0.0)
}

/// Like [`separability`], but for channels quantized to a known
/// `resolution` (the channel's LSB): a group only starts a new cluster when
/// its mean has moved at least `max(z * SE, resolution)` away from the
/// current cluster's first group. This is what collapses the paper's 17
/// RSA Hamming-weight groups to ~5 on the 25 mW power channel while the
/// 1 mA current channel keeps all 17 apart.
///
/// Summarizes each group and defers to [`from_summaries`].
///
/// # Errors
///
/// Same conditions as [`separability`]; additionally rejects a negative
/// `resolution`.
pub fn separability_quantized(
    groups: &[(&str, &[f64])],
    z: f64,
    resolution: f64,
) -> Result<Separability> {
    let summaries = groups
        .iter()
        .map(|(label, samples)| {
            Ok(GroupSummary {
                label: (*label).to_owned(),
                summary: Summary::from_samples(samples)?,
            })
        })
        .collect::<Result<_>>()?;
    from_summaries(summaries, z, resolution)
}

/// [`separability_quantized`] over already-summarized groups, for callers
/// that reduce each group's samples as they are captured instead of
/// keeping them.
///
/// # Errors
///
/// [`StatsError::Empty`] if `groups` is empty;
/// [`StatsError::InvalidParameter`] if `z` is not positive or
/// `resolution` is negative.
pub fn from_summaries(groups: Vec<GroupSummary>, z: f64, resolution: f64) -> Result<Separability> {
    if groups.is_empty() {
        return Err(StatsError::Empty);
    }
    if z <= 0.0 {
        return Err(StatsError::InvalidParameter("z must be positive"));
    }
    if resolution < 0.0 {
        return Err(StatsError::InvalidParameter(
            "resolution must be non-negative",
        ));
    }
    let mut cluster_of = Vec::with_capacity(groups.len());
    let mut current = 0usize;
    let mut cluster_start = &groups[0].summary;
    cluster_of.push(0);
    for g in &groups[1..] {
        if means_distinguishable(cluster_start, &g.summary, z, resolution) {
            current += 1;
            cluster_start = &g.summary;
        }
        cluster_of.push(current);
    }
    Ok(Separability {
        groups,
        cluster_of,
        distinguishable: current + 1,
    })
}

/// Mean-difference test against both the statistical and the quantization
/// floor.
fn means_distinguishable(a: &Summary, b: &Summary, z: f64, resolution: f64) -> bool {
    let se = (a.variance / a.count as f64 + b.variance / b.count as f64).sqrt();
    let delta = (a.mean - b.mean).abs();
    if se == 0.0 && resolution == 0.0 {
        // Noise-free unquantized channels: distinguishable iff the latched
        // values differ at all.
        return a.mean != b.mean;
    }
    delta > (z * se).max(resolution)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spread(center: f64, n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| center + ((i % 7) as f64 - 3.0) * 0.1)
            .collect()
    }

    #[test]
    fn well_separated_groups_all_distinguishable() {
        let a = spread(0.0, 50);
        let b = spread(10.0, 50);
        let c = spread(20.0, 50);
        let r = separability(&[("a", &a), ("b", &b), ("c", &c)], 3.0).unwrap();
        assert_eq!(r.distinguishable, 3);
        assert_eq!(r.cluster_of, vec![0, 1, 2]);
    }

    #[test]
    fn identical_groups_collapse() {
        let a = spread(5.0, 50);
        let r = separability(&[("a", &a), ("b", &a), ("c", &a)], 3.0).unwrap();
        assert_eq!(r.distinguishable, 1);
    }

    #[test]
    fn quantized_channel_merges_neighbors() {
        // Simulate a 25-unit LSB: groups 0..5 quantize to only two values.
        let groups: Vec<Vec<f64>> = (0..5)
            .map(|g| {
                let raw = g as f64 * 8.0; // 8 units apart, LSB = 25
                let q = (raw / 25.0).round() * 25.0;
                vec![q; 40]
            })
            .collect();
        let refs: Vec<(&str, &[f64])> = ["g0", "g1", "g2", "g3", "g4"]
            .iter()
            .zip(&groups)
            .map(|(l, g)| (*l, g.as_slice()))
            .collect();
        let r = separability(&refs, 3.0).unwrap();
        assert!(r.distinguishable < 5, "quantization must merge groups");
        assert!(r.distinguishable >= 2);
    }

    #[test]
    fn clusters_partition_groups() {
        let a = spread(0.0, 30);
        let b = spread(0.01, 30);
        let c = spread(50.0, 30);
        let r = separability(&[("a", &a), ("b", &b), ("c", &c)], 3.0).unwrap();
        let clusters = r.clusters();
        let total: usize = clusters.iter().map(Vec::len).sum();
        assert_eq!(total, 3);
        assert_eq!(clusters.len(), r.distinguishable);
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(separability(&[], 3.0).is_err());
        let a = spread(0.0, 10);
        assert!(separability(&[("a", &a)], 0.0).is_err());
        assert!(separability(&[("a", &[])], 3.0).is_err());
    }

    fn summarize(groups: &[(&str, &[f64])]) -> Vec<GroupSummary> {
        groups
            .iter()
            .map(|(label, samples)| GroupSummary {
                label: (*label).to_owned(),
                summary: Summary::from_samples(samples).unwrap(),
            })
            .collect()
    }

    /// Both entry points on the same groups; they must agree exactly.
    fn both(groups: &[(&str, &[f64])], z: f64, resolution: f64) -> Separability {
        let direct = separability_quantized(groups, z, resolution).unwrap();
        let summarized = from_summaries(summarize(groups), z, resolution).unwrap();
        assert_eq!(direct, summarized);
        summarized
    }

    #[test]
    fn from_summaries_matches_the_sample_path() {
        let a = spread(0.0, 40);
        let b = spread(0.05, 40);
        let c = spread(30.0, 40);
        both(&[("a", &a), ("b", &b), ("c", &c)], 3.0, 0.0);
        both(&[("a", &a), ("b", &b), ("c", &c)], 3.0, 25.0);
        both(&[("a", &a), ("c", &c)], 0.5, 1.0);
        // Constant groups: zero variance, so at resolution 0 the verdict
        // falls to the exact mean comparison.
        let (k1, k2, k3) = (vec![5.0; 20], vec![5.0; 20], vec![7.0; 20]);
        let zero_var = both(&[("k1", &k1), ("k2", &k2), ("k3", &k3)], 3.0, 0.0);
        assert_eq!(zero_var.cluster_of, vec![0, 0, 1]);
        assert_eq!(
            both(&[("k1", &k1), ("k3", &k3)], 3.0, 5.0).distinguishable,
            1
        );
        assert!(from_summaries(Vec::new(), 3.0, 0.0).is_err());
        assert!(from_summaries(summarize(&[("a", &a)]), 0.0, 0.0).is_err());
        assert!(from_summaries(summarize(&[("a", &a)]), 3.0, -1.0).is_err());
    }

    #[test]
    fn single_group_is_one_cluster() {
        let a = spread(1.0, 10);
        let r = separability(&[("a", &a)], 3.0).unwrap();
        assert_eq!(r.distinguishable, 1);
        assert_eq!(r.cluster_of, vec![0]);
    }

    sim_rt::prop_check! {
        fn distinguishable_never_exceeds_group_count(
            centers in sim_rt::check::vec_of(-100.0f64..100.0, 1..10),
            z in 0.5f64..5.0
        ) {
            let groups: Vec<Vec<f64>> = centers.iter().map(|&c| spread(c, 20)).collect();
            let labels: Vec<String> = (0..groups.len()).map(|i| format!("g{i}")).collect();
            let refs: Vec<(&str, &[f64])> = labels
                .iter()
                .zip(&groups)
                .map(|(l, g)| (l.as_str(), g.as_slice()))
                .collect();
            let r = separability(&refs, z).unwrap();
            assert!(r.distinguishable >= 1);
            assert!(r.distinguishable <= groups.len());
            assert_eq!(r.cluster_of.len(), groups.len());
        }
    }
}
