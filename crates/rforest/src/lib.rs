//! From-scratch random-forest classifier.
//!
//! The fingerprinting attack of Table III is "essentially a classification
//! task with straightforward features", evaluated with a random forest of
//! 100 trees, maximum depth 32, Gini impurity splits, bootstrap sampling,
//! and 10-fold cross-validation. This crate implements exactly that
//! pipeline so the reproduction has no Python/scikit-learn dependency:
//!
//! * [`Dataset`] — labelled feature vectors with validation.
//! * [`DecisionTree`] — CART trees split on Gini impurity.
//! * [`RandomForest`] — bagged ensemble with feature subsampling and
//!   majority voting; exposes vote counts for top-k scoring.
//! * [`stratified_k_fold`] / [`cross_validate`] — the 10-fold evaluation
//!   protocol (9 folds train, 1 fold test, rotating).
//!
//! # Split search
//!
//! Each node counts its classes once, renumbers them over the classes
//! present, and for every candidate feature sorts one contiguous
//! `(value, label)` buffer, then scores each threshold between unequal
//! neighbours with both sides' Gini impurity in one pass. Forest trees
//! train on their bootstrap row indices directly, without copying rows.
//! This builds exactly the trees of a plain scan that re-sorts indices,
//! recounts classes and sums Gini over every class:
//!
//! * a class absent from the node adds the term `g -= 0.0`, which leaves
//!   `g` unchanged bit for bit;
//! * thresholds fall only between unequal neighbours, so the left counts
//!   at each candidate, and the order candidates are scanned in, do not
//!   depend on the order of equal values (−0.0 and +0.0 included);
//! * `(−0.0 + x) / 2 == (0.0 + x) / 2` for any x ≠ 0, so a threshold next
//!   to a signed zero is unchanged;
//! * a tree built over the indices `idx` sees the same rows in the same
//!   order as a tree built over `data.subset(&idx)`.
//!
//! # Examples
//!
//! ```
//! use rforest::{Dataset, ForestConfig, RandomForest};
//!
//! // Two trivially separable classes.
//! let features = vec![
//!     vec![0.0, 0.1], vec![0.2, 0.0], vec![0.1, 0.2],
//!     vec![5.0, 5.1], vec![5.2, 5.0], vec![5.1, 5.2],
//! ];
//! let labels = vec![0, 0, 0, 1, 1, 1];
//! let data = Dataset::new(features, labels)?;
//! let forest = RandomForest::fit(&data, &ForestConfig::default());
//! assert_eq!(forest.predict(&[0.05, 0.05]), 0);
//! assert_eq!(forest.predict(&[5.05, 5.05]), 1);
//! # Ok::<(), rforest::DatasetError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cv;
mod dataset;
mod forest;
mod tree;

pub use cv::{cross_validate, cross_validate_with, stratified_k_fold, CvReport};
pub use dataset::{Dataset, DatasetError};
pub use forest::{ForestConfig, RandomForest};
pub use tree::{DecisionTree, TreeConfig};
