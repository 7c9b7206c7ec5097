use sim_rt::rng::{Rng, SimRng, SliceShuffle};

use crate::Dataset;

/// Configuration of a single CART decision tree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TreeConfig {
    /// Maximum depth (paper: 32).
    pub max_depth: usize,
    /// Minimum samples required to attempt a split.
    pub min_samples_split: usize,
    /// Number of candidate features examined per split; `None` means all
    /// (forests use sqrt(d)).
    pub features_per_split: Option<usize>,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig {
            max_depth: 32,
            min_samples_split: 2,
            features_per_split: None,
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
enum Node {
    Leaf {
        /// Class vote distribution at this leaf.
        counts: Vec<u32>,
    },
    Split {
        feature: usize,
        threshold: f64,
        left: usize,
        right: usize,
    },
}

/// A CART decision tree with Gini-impurity splits.
///
/// # Examples
///
/// ```
/// use rforest::{Dataset, DecisionTree, TreeConfig};
///
/// let data = Dataset::new(
///     vec![vec![0.0], vec![1.0], vec![10.0], vec![11.0]],
///     vec![0, 0, 1, 1],
/// )?;
/// let tree = DecisionTree::fit(&data, &TreeConfig::default(), 1);
/// assert_eq!(tree.predict(&[0.5]), 0);
/// assert_eq!(tree.predict(&[10.5]), 1);
/// # Ok::<(), rforest::DatasetError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionTree {
    nodes: Vec<Node>,
    n_classes: usize,
}

impl DecisionTree {
    /// Trains a tree on `data`.
    pub fn fit(data: &Dataset, config: &TreeConfig, seed: u64) -> Self {
        Self::fit_rows(data, (0..data.len()).collect(), config, seed)
    }

    /// Trains a tree on the rows `indices` of `data`, in that order and
    /// with repetition allowed: the tree [`fit`](Self::fit) builds on
    /// `data.subset(&indices)`, without copying a row.
    pub(crate) fn fit_rows(
        data: &Dataset,
        indices: Vec<usize>,
        config: &TreeConfig,
        seed: u64,
    ) -> Self {
        let mut rng = SimRng::seed_from_u64(seed);
        let mut tree = DecisionTree {
            nodes: Vec::new(),
            n_classes: data.n_classes(),
        };
        tree.build(data, indices, config, 0, &mut rng);
        tree
    }

    fn class_counts(&self, data: &Dataset, indices: &[usize]) -> Vec<u32> {
        let mut counts = vec![0u32; self.n_classes];
        for &i in indices {
            counts[data.label_of(i)] += 1;
        }
        counts
    }

    fn build(
        &mut self,
        data: &Dataset,
        indices: Vec<usize>,
        config: &TreeConfig,
        depth: usize,
        rng: &mut SimRng,
    ) -> usize {
        let counts = self.class_counts(data, &indices);
        let pure = counts.iter().filter(|&&c| c > 0).count() <= 1;
        if pure || depth >= config.max_depth || indices.len() < config.min_samples_split {
            let id = self.nodes.len();
            self.nodes.push(Node::Leaf { counts });
            return id;
        }
        match self.best_split(data, &indices, &counts, config, rng) {
            Some((feature, threshold)) => {
                let (left_idx, right_idx): (Vec<usize>, Vec<usize>) = indices
                    .iter()
                    .partition(|&&i| data.features_of(i)[feature] <= threshold);
                if left_idx.is_empty() || right_idx.is_empty() {
                    let id = self.nodes.len();
                    self.nodes.push(Node::Leaf { counts });
                    return id;
                }
                let id = self.nodes.len();
                // Placeholder; children are appended after.
                self.nodes.push(Node::Split {
                    feature,
                    threshold,
                    left: 0,
                    right: 0,
                });
                let left = self.build(data, left_idx, config, depth + 1, rng);
                let right = self.build(data, right_idx, config, depth + 1, rng);
                if let Node::Split {
                    left: l, right: r, ..
                } = &mut self.nodes[id]
                {
                    *l = left;
                    *r = right;
                }
                id
            }
            None => {
                let id = self.nodes.len();
                self.nodes.push(Node::Leaf { counts });
                id
            }
        }
    }

    /// Finds the `(feature, threshold)` pair minimizing weighted Gini
    /// impurity over a random feature subset. `counts` are the class
    /// counts of `indices`.
    ///
    /// The search is built to pick exactly the split a plain scan would:
    /// sort the node's samples by each candidate feature, try a threshold
    /// between every pair of unequal neighbours in ascending order, and
    /// keep the first lowest score. Labels are renumbered over the node's
    /// present classes (in ascending class order), so the Gini sums skip
    /// only zero terms, and a zero term leaves the sum unchanged bit for
    /// bit. The order of equal values after the unstable sort cannot
    /// matter, since no threshold falls between them.
    fn best_split(
        &self,
        data: &Dataset,
        indices: &[usize],
        counts: &[u32],
        config: &TreeConfig,
        rng: &mut SimRng,
    ) -> Option<(usize, f64)> {
        let d = data.n_features();
        let k = config.features_per_split.unwrap_or(d).clamp(1, d);
        let mut features: Vec<usize> = (0..d).collect();
        features.shuffle(rng);
        features.truncate(k);

        // Class id -> dense id over the classes present at this node.
        let mut dense = vec![usize::MAX; self.n_classes];
        let mut node_counts = Vec::new();
        for (class, &c) in counts.iter().enumerate() {
            if c > 0 {
                dense[class] = node_counts.len();
                node_counts.push(c);
            }
        }
        let labels: Vec<usize> = indices.iter().map(|&i| dense[data.label_of(i)]).collect();
        let mut sorted: Vec<(f64, usize)> = Vec::with_capacity(indices.len());
        let mut left_counts = vec![0u32; node_counts.len()];
        let mut right_counts = node_counts.clone();

        let mut best: Option<(f64, usize, f64)> = None;
        let total = indices.len() as f64;
        for &f in &features {
            sorted.clear();
            sorted.extend(
                indices
                    .iter()
                    .zip(&labels)
                    .map(|(&i, &label)| (data.features_of(i)[f], label)),
            );
            sorted.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
            left_counts.fill(0);
            right_counts.copy_from_slice(&node_counts);
            let mut n_left = 0.0;
            for pair in sorted.windows(2) {
                let ((v_here, label), (v_next, _)) = (pair[0], pair[1]);
                left_counts[label] += 1;
                right_counts[label] -= 1;
                n_left += 1.0;
                if v_here == v_next {
                    continue; // can't split between equal values
                }
                let n_right = total - n_left;
                let (gini_left, gini_right) =
                    gini_pair(&left_counts, n_left, &right_counts, n_right);
                let score = n_left / total * gini_left + n_right / total * gini_right;
                if best.is_none_or(|(s, _, _)| score < s) {
                    best = Some((score, f, (v_here + v_next) / 2.0));
                }
            }
        }
        best.map(|(_, f, t)| (f, t))
    }

    fn leaf_for(&self, x: &[f64]) -> &[u32] {
        let mut node = 0usize;
        loop {
            match &self.nodes[node] {
                Node::Leaf { counts } => return counts,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    node = if x[*feature] <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }

    /// Per-class vote distribution for a sample.
    ///
    /// # Panics
    ///
    /// Panics if `x` has fewer features than the training data.
    pub fn vote_counts(&self, x: &[f64]) -> &[u32] {
        self.leaf_for(x)
    }

    /// Predicted class (majority of the reached leaf; ties go to the
    /// higher class id, the last maximum `max_by_key` returns).
    pub fn predict(&self, x: &[f64]) -> usize {
        let counts = self.leaf_for(x);
        counts
            .iter()
            .enumerate()
            .max_by_key(|&(_, &c)| c)
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    /// Number of nodes in the tree.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Every node's shape as words, in node order: feature, threshold
    /// bits and child ids for a split; the class counts for a leaf.
    #[cfg(test)]
    pub(crate) fn structure_words(&self) -> Vec<u64> {
        let mut words = Vec::new();
        for node in &self.nodes {
            match node {
                Node::Leaf { counts } => {
                    words.push(u64::MAX);
                    words.extend(counts.iter().map(|&c| u64::from(c)));
                }
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => words.extend([
                    *feature as u64,
                    threshold.to_bits(),
                    *left as u64,
                    *right as u64,
                ]),
            }
        }
        words
    }

    /// Depth of the tree (0 for a single leaf).
    pub fn depth(&self) -> usize {
        fn walk(nodes: &[Node], id: usize) -> usize {
            match &nodes[id] {
                Node::Leaf { .. } => 0,
                Node::Split { left, right, .. } => 1 + walk(nodes, *left).max(walk(nodes, *right)),
            }
        }
        walk(&self.nodes, 0)
    }
}

/// Gini impurities `(gini(left, n_left), gini(right, n_right))` of the
/// two sides of a split, bit for bit: the same two subtraction chains in
/// the same class order, run side by side. Both sides must be non-empty.
fn gini_pair(left: &[u32], n_left: f64, right: &[u32], n_right: f64) -> (f64, f64) {
    let (mut g_left, mut g_right) = (1.0, 1.0);
    for (&l, &r) in left.iter().zip(right) {
        let p_left = l as f64 / n_left;
        let p_right = r as f64 / n_right;
        g_left -= p_left * p_left;
        g_right -= p_right * p_right;
    }
    (g_left, g_right)
}

/// Gini impurity of a class-count vector with `n` samples: the reference
/// [`gini_pair`] is checked against.
#[cfg(test)]
fn gini(counts: &[u32], n: f64) -> f64 {
    if n <= 0.0 {
        return 0.0;
    }
    let mut g = 1.0;
    for &c in counts {
        let p = c as f64 / n;
        g -= p * p;
    }
    g
}

/// Draws a bootstrap resample (n samples with replacement).
pub(crate) fn bootstrap_indices(n: usize, rng: &mut SimRng) -> Vec<usize> {
    (0..n).map(|_| rng.gen_range(0..n)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xor_dataset() -> Dataset {
        // XOR is not linearly separable; a depth>=2 tree handles it.
        let mut features = Vec::new();
        let mut labels = Vec::new();
        for _ in 0..10 {
            for (a, b) in [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)] {
                features.push(vec![a, b]);
                labels.push(((a as u8) ^ (b as u8)) as usize);
            }
        }
        Dataset::new(features, labels).unwrap()
    }

    #[test]
    fn gini_of_pure_and_even() {
        assert_eq!(gini(&[10, 0], 10.0), 0.0);
        assert!((gini(&[5, 5], 10.0) - 0.5).abs() < 1e-12);
        assert_eq!(gini(&[0, 0], 0.0), 0.0);
    }

    #[test]
    fn predict_breaks_leaf_ties_to_the_higher_class() {
        // Equal features cannot split, so both samples share one leaf.
        let data = Dataset::new(vec![vec![5.0], vec![5.0]], vec![0, 1]).unwrap();
        let tree = DecisionTree::fit(&data, &TreeConfig::default(), 0);
        assert_eq!(tree.vote_counts(&[5.0]), &[1, 1]);
        assert_eq!(tree.predict(&[5.0]), 1);
    }

    #[test]
    fn fit_rows_matches_fit_on_the_subset() {
        let data = xor_dataset();
        let mut rng = SimRng::seed_from_u64(4);
        let idx = bootstrap_indices(data.len(), &mut rng);
        let config = TreeConfig {
            features_per_split: Some(1),
            ..TreeConfig::default()
        };
        assert_eq!(
            DecisionTree::fit_rows(&data, idx.clone(), &config, 9),
            DecisionTree::fit(&data.subset(&idx), &config, 9)
        );
    }

    #[test]
    fn learns_xor_perfectly() {
        let data = xor_dataset();
        let tree = DecisionTree::fit(&data, &TreeConfig::default(), 0);
        for (x, want) in [
            (vec![0.0, 0.0], 0),
            (vec![0.0, 1.0], 1),
            (vec![1.0, 0.0], 1),
            (vec![1.0, 1.0], 0),
        ] {
            assert_eq!(tree.predict(&x), want, "xor({x:?})");
        }
        assert!(tree.depth() >= 2);
    }

    #[test]
    fn depth_limit_is_respected() {
        let data = xor_dataset();
        let stump = DecisionTree::fit(
            &data,
            &TreeConfig {
                max_depth: 1,
                ..TreeConfig::default()
            },
            0,
        );
        assert!(stump.depth() <= 1);
    }

    #[test]
    fn single_class_yields_single_leaf() {
        let data = Dataset::new(vec![vec![1.0], vec![2.0], vec![3.0]], vec![0, 0, 0]).unwrap();
        let tree = DecisionTree::fit(&data, &TreeConfig::default(), 0);
        assert_eq!(tree.node_count(), 1);
        assert_eq!(tree.predict(&[99.0]), 0);
    }

    #[test]
    fn constant_features_yield_leaf() {
        let data = Dataset::new(vec![vec![5.0], vec![5.0]], vec![0, 1]).unwrap();
        let tree = DecisionTree::fit(&data, &TreeConfig::default(), 0);
        // No split possible between equal values.
        assert_eq!(tree.node_count(), 1);
    }

    #[test]
    fn vote_counts_sum_to_leaf_population() {
        let data = xor_dataset();
        let tree = DecisionTree::fit(&data, &TreeConfig::default(), 3);
        let votes = tree.vote_counts(&[0.0, 0.0]);
        assert_eq!(votes.iter().sum::<u32>(), 10);
    }

    #[test]
    fn bootstrap_is_full_size_with_replacement() {
        let mut rng = SimRng::seed_from_u64(1);
        let idx = bootstrap_indices(100, &mut rng);
        assert_eq!(idx.len(), 100);
        assert!(idx.iter().all(|&i| i < 100));
        // With replacement: some duplicates are overwhelmingly likely.
        let unique: std::collections::BTreeSet<usize> = idx.iter().copied().collect();
        assert!(unique.len() < 100);
    }

    sim_rt::prop_check! {
        cases = 32;

        fn training_accuracy_is_high_on_separable_data(
            seed in 0u64..100, gap in 2.0f64..10.0
        ) {
            let mut features = Vec::new();
            let mut labels = Vec::new();
            for i in 0..30 {
                let wiggle = (i as f64 * 0.618).fract();
                features.push(vec![wiggle]);
                labels.push(0);
                features.push(vec![gap + wiggle]);
                labels.push(1);
            }
            let data = Dataset::new(features, labels).unwrap();
            let tree = DecisionTree::fit(&data, &TreeConfig::default(), seed);
            let correct = (0..data.len())
                .filter(|&i| tree.predict(data.features_of(i)) == data.label_of(i))
                .count();
            assert_eq!(correct, data.len());
        }

        fn gini_pair_matches_two_gini_calls_bit_for_bit(
            sides in sim_rt::check::vec_of((0u32..50, 0u32..50), 1..40usize)
        ) {
            let (mut left, mut right): (Vec<u32>, Vec<u32>) = sides.into_iter().unzip();
            // Both sides of a real split are non-empty.
            left[0] += 1;
            right[0] += 1;
            let n_left = left.iter().sum::<u32>() as f64;
            let n_right = right.iter().sum::<u32>() as f64;
            let (g_left, g_right) = gini_pair(&left, n_left, &right, n_right);
            assert_eq!(g_left.to_bits(), gini(&left, n_left).to_bits());
            assert_eq!(g_right.to_bits(), gini(&right, n_right).to_bits());
        }

        fn gini_is_bounded(counts in sim_rt::check::vec_of(0u32..100, 1..10usize)) {
            let n: u32 = counts.iter().sum();
            let g = gini(&counts, n as f64);
            assert!((0.0..=1.0).contains(&g));
        }
    }
}
