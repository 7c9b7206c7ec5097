use std::fmt;

/// Error constructing a [`Dataset`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DatasetError {
    /// The dataset has no samples.
    Empty,
    /// Feature and label counts differ.
    LengthMismatch {
        /// Number of feature vectors.
        features: usize,
        /// Number of labels.
        labels: usize,
    },
    /// A feature vector has a different dimensionality than the first.
    RaggedFeatures {
        /// Index of the offending sample.
        index: usize,
        /// Expected dimensionality.
        expected: usize,
        /// Actual dimensionality.
        actual: usize,
    },
    /// A feature value is NaN or infinite.
    NonFiniteFeature {
        /// Index of the offending sample.
        index: usize,
    },
}

impl fmt::Display for DatasetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DatasetError::Empty => write!(f, "dataset has no samples"),
            DatasetError::LengthMismatch { features, labels } => {
                write!(
                    f,
                    "feature count {features} does not match label count {labels}"
                )
            }
            DatasetError::RaggedFeatures {
                index,
                expected,
                actual,
            } => write!(
                f,
                "sample {index} has {actual} features, expected {expected}"
            ),
            DatasetError::NonFiniteFeature { index } => {
                write!(f, "sample {index} contains a non-finite feature")
            }
        }
    }
}

impl std::error::Error for DatasetError {}

/// A labelled classification dataset.
///
/// Labels are arbitrary `usize` class ids; the number of classes is
/// `max(label) + 1`.
///
/// # Examples
///
/// ```
/// use rforest::Dataset;
///
/// let d = Dataset::new(vec![vec![1.0], vec![2.0]], vec![0, 1])?;
/// assert_eq!(d.len(), 2);
/// assert_eq!(d.n_classes(), 2);
/// assert_eq!(d.n_features(), 1);
/// # Ok::<(), rforest::DatasetError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    features: Vec<Vec<f64>>,
    labels: Vec<usize>,
    n_classes: usize,
}

impl Dataset {
    /// Creates a dataset from feature vectors and class labels.
    ///
    /// # Errors
    ///
    /// Returns a [`DatasetError`] if the dataset is empty, lengths
    /// mismatch, features are ragged, or any feature is non-finite.
    pub fn new(features: Vec<Vec<f64>>, labels: Vec<usize>) -> Result<Self, DatasetError> {
        if features.is_empty() {
            return Err(DatasetError::Empty);
        }
        if features.len() != labels.len() {
            return Err(DatasetError::LengthMismatch {
                features: features.len(),
                labels: labels.len(),
            });
        }
        let dim = features[0].len();
        for (i, row) in features.iter().enumerate() {
            if row.len() != dim {
                return Err(DatasetError::RaggedFeatures {
                    index: i,
                    expected: dim,
                    actual: row.len(),
                });
            }
            if row.iter().any(|v| !v.is_finite()) {
                return Err(DatasetError::NonFiniteFeature { index: i });
            }
        }
        let n_classes = labels.iter().copied().max().unwrap_or(0) + 1;
        Ok(Dataset {
            features,
            labels,
            n_classes,
        })
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the dataset is empty (never true for a constructed dataset).
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Feature dimensionality.
    pub fn n_features(&self) -> usize {
        self.features[0].len()
    }

    /// Number of classes (`max(label) + 1`).
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Feature vector of sample `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn features_of(&self, i: usize) -> &[f64] {
        &self.features[i]
    }

    /// Label of sample `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn label_of(&self, i: usize) -> usize {
        self.labels[i]
    }

    /// All labels.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Builds a sub-dataset from sample indices (with repetition allowed).
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn subset(&self, indices: &[usize]) -> Dataset {
        Dataset {
            features: indices.iter().map(|&i| self.features[i].clone()).collect(),
            labels: indices.iter().map(|&i| self.labels[i]).collect(),
            n_classes: self.n_classes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_construction() {
        let d = Dataset::new(vec![vec![1.0, 2.0], vec![3.0, 4.0]], vec![0, 2]).unwrap();
        assert_eq!(d.len(), 2);
        assert_eq!(d.n_features(), 2);
        assert_eq!(d.n_classes(), 3);
        assert_eq!(d.features_of(1), &[3.0, 4.0]);
        assert_eq!(d.label_of(1), 2);
        assert!(!d.is_empty());
    }

    #[test]
    fn rejects_empty() {
        assert_eq!(Dataset::new(vec![], vec![]), Err(DatasetError::Empty));
    }

    #[test]
    fn rejects_length_mismatch() {
        assert_eq!(
            Dataset::new(vec![vec![1.0]], vec![0, 1]),
            Err(DatasetError::LengthMismatch {
                features: 1,
                labels: 2
            })
        );
    }

    #[test]
    fn rejects_ragged() {
        assert!(matches!(
            Dataset::new(vec![vec![1.0], vec![1.0, 2.0]], vec![0, 1]),
            Err(DatasetError::RaggedFeatures {
                index: 1,
                expected: 1,
                actual: 2
            })
        ));
    }

    #[test]
    fn rejects_non_finite() {
        assert_eq!(
            Dataset::new(vec![vec![f64::NAN]], vec![0]),
            Err(DatasetError::NonFiniteFeature { index: 0 })
        );
        assert_eq!(
            Dataset::new(vec![vec![f64::INFINITY]], vec![0]),
            Err(DatasetError::NonFiniteFeature { index: 0 })
        );
    }

    #[test]
    fn subset_with_repetition() {
        let d = Dataset::new(vec![vec![1.0], vec![2.0], vec![3.0]], vec![0, 1, 2]).unwrap();
        let s = d.subset(&[2, 2, 0]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.features_of(0), &[3.0]);
        assert_eq!(s.label_of(2), 0);
        // Class count is inherited, not recomputed.
        assert_eq!(s.n_classes(), 3);
    }

    #[test]
    fn error_display() {
        assert!(DatasetError::Empty.to_string().contains("no samples"));
    }
}
