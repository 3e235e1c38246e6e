//! CART decision trees (Gini impurity), multi-class, with rule extraction.
//!
//! Used three ways in LinkLens: as the base learner of
//! [`crate::forest::RandomForest`], as the §4.3 multi-class
//! network→best-metric selector (Figure 6), and as the per-algorithm binary
//! "when is this metric good" classifier whose extracted rules the paper
//! reports (e.g. *Rescal: degree std-dev > 60.3*).

use crate::data::Dataset;
use crate::Classifier;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Tree growth limits.
#[derive(Clone, Copy, Debug)]
pub struct TreeConfig {
    /// Maximum tree depth (root = depth 0).
    pub max_depth: usize,
    /// Minimum samples a leaf may hold.
    pub min_samples_leaf: usize,
    /// Minimum samples required to attempt a split.
    pub min_samples_split: usize,
    /// When `Some(k)`, each split considers only `k` random features
    /// (random-forest mode); `None` considers all features.
    pub feature_subsample: Option<usize>,
    /// Seed for feature subsampling.
    pub seed: u64,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig {
            max_depth: 8,
            min_samples_leaf: 1,
            min_samples_split: 2,
            feature_subsample: None,
            seed: 42,
        }
    }
}

#[derive(Clone, Debug)]
enum Node {
    Leaf { counts: Vec<usize> },
    Split { feature: usize, threshold: f64, left: usize, right: usize },
}

/// A fitted CART decision tree.
#[derive(Clone, Debug)]
pub struct DecisionTree {
    /// Growth limits used at fit time.
    pub config: TreeConfig,
    nodes: Vec<Node>,
    n_classes: usize,
}

impl Default for DecisionTree {
    fn default() -> Self {
        Self::new(TreeConfig::default())
    }
}

impl DecisionTree {
    /// Creates an unfitted tree.
    pub fn new(config: TreeConfig) -> Self {
        DecisionTree { config, nodes: Vec::new(), n_classes: 0 }
    }

    /// Fits the tree on a dataset with arbitrarily many classes.
    pub fn fit_multiclass(&mut self, data: &Dataset) {
        assert!(!data.is_empty(), "cannot fit on an empty dataset");
        self.n_classes = data.n_classes().max(2);
        self.nodes.clear();
        let indices: Vec<usize> = (0..data.len()).collect();
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        self.grow(data, indices, 0, &mut rng);
    }

    fn class_counts(&self, data: &Dataset, indices: &[usize]) -> Vec<usize> {
        let mut counts = vec![0usize; self.n_classes];
        for &i in indices {
            counts[data.label(i) as usize] += 1;
        }
        counts
    }

    fn grow(
        &mut self,
        data: &Dataset,
        indices: Vec<usize>,
        depth: usize,
        rng: &mut StdRng,
    ) -> usize {
        let counts = self.class_counts(data, &indices);
        let node_id = self.nodes.len();
        let pure = counts.iter().filter(|&&c| c > 0).count() <= 1;
        if pure || depth >= self.config.max_depth || indices.len() < self.config.min_samples_split {
            self.nodes.push(Node::Leaf { counts });
            return node_id;
        }
        let Some((feature, threshold)) = self.best_split(data, &indices, rng) else {
            self.nodes.push(Node::Leaf { counts });
            return node_id;
        };
        let (left_idx, right_idx): (Vec<usize>, Vec<usize>) =
            indices.into_iter().partition(|&i| data.row(i)[feature] <= threshold);
        if left_idx.len() < self.config.min_samples_leaf
            || right_idx.len() < self.config.min_samples_leaf
        {
            self.nodes.push(Node::Leaf { counts });
            return node_id;
        }
        // Reserve the split slot, then grow children.
        self.nodes.push(Node::Leaf { counts: Vec::new() });
        let left = self.grow(data, left_idx, depth + 1, rng);
        let right = self.grow(data, right_idx, depth + 1, rng);
        self.nodes[node_id] = Node::Split { feature, threshold, left, right };
        node_id
    }

    /// Finds the (feature, threshold) minimizing weighted Gini impurity.
    fn best_split(
        &self,
        data: &Dataset,
        indices: &[usize],
        rng: &mut StdRng,
    ) -> Option<(usize, f64)> {
        let d = data.n_features();
        let features: Vec<usize> = match self.config.feature_subsample {
            Some(k) if k < d => {
                let mut all: Vec<usize> = (0..d).collect();
                for i in 0..k {
                    let j = rng.random_range(i..d);
                    all.swap(i, j);
                }
                all.truncate(k);
                all
            }
            _ => (0..d).collect(),
        };

        let total = indices.len() as f64;
        let parent_counts = self.class_counts(data, indices);
        let parent_gini = gini(&parent_counts, indices.len());
        let mut best: Option<(f64, usize, f64)> = None; // (impurity drop, feature, thr)

        let mut sorted = indices.to_vec();
        for &f in &features {
            sorted.sort_by(|&a, &b| data.row(a)[f].total_cmp(&data.row(b)[f]));
            let mut left_counts = vec![0usize; self.n_classes];
            let mut right_counts = parent_counts.clone();
            for k in 0..sorted.len() - 1 {
                let i = sorted[k];
                let c = data.label(i) as usize;
                left_counts[c] += 1;
                right_counts[c] -= 1;
                let x_here = data.row(i)[f];
                let x_next = data.row(sorted[k + 1])[f];
                if x_here == x_next {
                    continue; // can't split between equal values
                }
                let nl = (k + 1) as f64;
                let nr = total - nl;
                let g = (nl / total) * gini(&left_counts, k + 1)
                    + (nr / total) * gini(&right_counts, sorted.len() - k - 1);
                // Zero-gain splits are accepted (as in scikit-learn's
                // CART): XOR-like targets need them to make progress, and
                // recursion still terminates because both children are
                // strictly smaller.
                let drop = parent_gini - g;
                if drop >= -1e-12 && best.is_none_or(|(bd, _, _)| drop > bd) {
                    best = Some((drop, f, 0.5 * (x_here + x_next)));
                }
            }
        }
        best.map(|(_, f, t)| (f, t))
    }

    /// Class counts of the leaf a row descends to. Returning the counts
    /// slice directly (rather than the node) keeps the callers total:
    /// the descent loop itself proves the result is a leaf.
    fn leaf_counts(&self, row: &[f64]) -> &[usize] {
        let mut id = 0usize;
        loop {
            match &self.nodes[id] {
                Node::Leaf { counts } => return counts,
                Node::Split { feature, threshold, left, right } => {
                    id = if row[*feature] <= *threshold { *left } else { *right };
                }
            }
        }
    }

    /// Predicted class for a row (majority class of the reached leaf).
    pub fn predict_class(&self, row: &[f64]) -> u32 {
        assert!(!self.nodes.is_empty(), "predict before fit");
        self.leaf_counts(row)
            .iter()
            .enumerate()
            .max_by_key(|&(_, &c)| c)
            .map(|(c, _)| c as u32)
            .unwrap_or(0)
    }

    /// `P(class | x)` estimated from leaf class frequencies.
    pub fn class_probability(&self, row: &[f64], class: u32) -> f64 {
        let counts = self.leaf_counts(row);
        let total: usize = counts.iter().sum();
        if total == 0 {
            0.0
        } else {
            counts.get(class as usize).copied().unwrap_or(0) as f64 / total as f64
        }
    }

    /// Depth of the fitted tree (root-only tree has depth 0).
    pub fn depth(&self) -> usize {
        fn rec(nodes: &[Node], id: usize) -> usize {
            match &nodes[id] {
                Node::Leaf { .. } => 0,
                Node::Split { left, right, .. } => 1 + rec(nodes, *left).max(rec(nodes, *right)),
            }
        }
        if self.nodes.is_empty() {
            0
        } else {
            rec(&self.nodes, 0)
        }
    }

    /// Extracts one human-readable rule per leaf:
    /// `"degree_std > 60.30 → class Rescal (12/13)"`.
    /// `feature_names` and `class_names` label the columns and classes.
    pub fn rules(&self, feature_names: &[&str], class_names: &[&str]) -> Vec<String> {
        let mut out = Vec::new();
        let mut path: Vec<String> = Vec::new();
        self.rules_rec(0, &mut path, feature_names, class_names, &mut out);
        out
    }

    fn rules_rec(
        &self,
        id: usize,
        path: &mut Vec<String>,
        fnames: &[&str],
        cnames: &[&str],
        out: &mut Vec<String>,
    ) {
        match &self.nodes[id] {
            Node::Leaf { counts } => {
                let total: usize = counts.iter().sum();
                let (class, &majority) =
                    counts.iter().enumerate().max_by_key(|&(_, &c)| c).expect("non-empty counts");
                let cond =
                    if path.is_empty() { "(always)".to_string() } else { path.join(" and ") };
                out.push(format!(
                    "{cond} → class {} ({majority}/{total})",
                    cnames.get(class).copied().unwrap_or("?")
                ));
            }
            Node::Split { feature, threshold, left, right } => {
                let name = fnames.get(*feature).copied().unwrap_or("?");
                path.push(format!("{name} <= {threshold:.3}"));
                self.rules_rec(*left, path, fnames, cnames, out);
                path.pop();
                path.push(format!("{name} > {threshold:.3}"));
                self.rules_rec(*right, path, fnames, cnames, out);
                path.pop();
            }
        }
    }
}

/// Gini impurity of a class-count vector.
fn gini(counts: &[usize], total: usize) -> f64 {
    if total == 0 {
        return 0.0;
    }
    let t = total as f64;
    1.0 - counts.iter().map(|&c| (c as f64 / t).powi(2)).sum::<f64>()
}

impl Classifier for DecisionTree {
    fn fit(&mut self, data: &Dataset) {
        self.fit_multiclass(data);
    }

    fn decision(&self, row: &[f64]) -> f64 {
        self.class_probability(row, 1) - 0.5
    }

    fn name(&self) -> &'static str {
        "DT"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xor_data() -> Dataset {
        // XOR needs depth ≥ 2 — a classic linear-model failure case.
        let mut d = Dataset::new(2);
        for _ in 0..10 {
            d.push(&[0.0, 0.0], 0);
            d.push(&[1.0, 1.0], 0);
            d.push(&[0.0, 1.0], 1);
            d.push(&[1.0, 0.0], 1);
        }
        d
    }

    #[test]
    fn learns_xor() {
        let mut t = DecisionTree::default();
        t.fit_multiclass(&xor_data());
        assert_eq!(t.predict_class(&[0.0, 0.0]), 0);
        assert_eq!(t.predict_class(&[1.0, 1.0]), 0);
        assert_eq!(t.predict_class(&[0.0, 1.0]), 1);
        assert_eq!(t.predict_class(&[1.0, 0.0]), 1);
    }

    #[test]
    fn pure_leaves_give_extreme_probabilities() {
        let mut t = DecisionTree::default();
        t.fit_multiclass(&xor_data());
        assert_eq!(t.class_probability(&[0.0, 1.0], 1), 1.0);
        assert_eq!(t.class_probability(&[0.0, 0.0], 1), 0.0);
    }

    #[test]
    fn max_depth_zero_is_a_stump() {
        let cfg = TreeConfig { max_depth: 0, ..Default::default() };
        let mut t = DecisionTree::new(cfg);
        t.fit_multiclass(&xor_data());
        assert_eq!(t.depth(), 0);
        // Majority prediction everywhere (tie → lowest class wins).
        assert_eq!(t.predict_class(&[0.0, 1.0]), t.predict_class(&[0.0, 0.0]));
    }

    #[test]
    fn multiclass_three_bands() {
        let mut d = Dataset::new(1);
        for i in 0..30 {
            let x = i as f64;
            let c = if x < 10.0 {
                0
            } else if x < 20.0 {
                1
            } else {
                2
            };
            d.push(&[x], c);
        }
        let mut t = DecisionTree::default();
        t.fit_multiclass(&d);
        assert_eq!(t.predict_class(&[5.0]), 0);
        assert_eq!(t.predict_class(&[15.0]), 1);
        assert_eq!(t.predict_class(&[25.0]), 2);
    }

    #[test]
    fn min_samples_leaf_limits_splits() {
        let cfg = TreeConfig { min_samples_leaf: 25, ..Default::default() };
        let mut t = DecisionTree::new(cfg);
        t.fit_multiclass(&xor_data()); // 40 samples; any split leaves < 25 on one side... 20/20 split allowed? no: 20 < 25.
        assert_eq!(t.depth(), 0, "leaf minimum should forbid splitting 40 into 20+20");
    }

    #[test]
    fn rules_name_features_and_classes() {
        let mut d = Dataset::new(2);
        for i in 0..20 {
            d.push(&[i as f64, 0.0], u32::from(i >= 10));
        }
        let mut t = DecisionTree::default();
        t.fit_multiclass(&d);
        let rules = t.rules(&["degree_std", "clustering"], &["bad", "good"]);
        assert_eq!(rules.len(), 2);
        assert!(rules[0].contains("degree_std <= 9.5"), "got {rules:?}");
        assert!(rules[1].contains("class good"));
    }

    #[test]
    fn classifier_interface_decision_sign() {
        let mut d = Dataset::new(1);
        for i in 0..20 {
            d.push(&[i as f64], u32::from(i >= 10));
        }
        let mut t = DecisionTree::default();
        t.fit(&d);
        assert!(t.decision(&[15.0]) > 0.0);
        assert!(t.decision(&[5.0]) < 0.0);
    }

    #[test]
    fn constant_features_yield_single_leaf() {
        let mut d = Dataset::new(2);
        d.push(&[1.0, 1.0], 0);
        d.push(&[1.0, 1.0], 1);
        let mut t = DecisionTree::default();
        t.fit_multiclass(&d);
        assert_eq!(t.depth(), 0, "no valid split exists between equal values");
    }
}
