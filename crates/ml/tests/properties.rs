//! Property tests for the ML substrate: classifiers must learn separable
//! data regardless of scale/offset, trees must respect their structural
//! invariants, and the data utilities must preserve sample integrity.

use osn_ml::data::Dataset;
use osn_ml::forest::RandomForest;
use osn_ml::logistic::LogisticRegression;
use osn_ml::naive_bayes::GaussianNaiveBayes;
use osn_ml::svm::LinearSvm;
use osn_ml::tree::{DecisionTree, TreeConfig};
use osn_ml::Classifier;
use proptest::prelude::*;

/// Separable two-feature data with arbitrary affine placement.
fn separable(n_per_class: usize, center: f64, gap: f64, scale: f64, noise_seed: u64) -> Dataset {
    let mut d = Dataset::new(2);
    let mut s = noise_seed.max(1);
    let mut next = move || {
        s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
        ((s >> 33) as f64 / (1u64 << 31) as f64) - 0.5
    };
    for i in 0..n_per_class * 2 {
        let y = i % 2 == 0;
        let c = center + if y { gap } else { -gap };
        d.push(&[c * scale + next() * 0.2 * gap * scale, next()], u32::from(y));
    }
    d
}

fn train_accuracy<C: Classifier>(clf: &mut C, d: &Dataset) -> f64 {
    // Standardize as the pipeline does.
    let scaler = d.fit_scaler();
    let scaled = d.scaled_by(&scaler);
    clf.fit(&scaled);
    let correct =
        (0..scaled.len()).filter(|&i| clf.predict(scaled.row(i)) == scaled.label_bool(i)).count();
    correct as f64 / d.len() as f64
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn svm_learns_any_affine_placement(center in -50.0f64..50.0, gap in 0.5f64..5.0,
                                       scale in 0.1f64..10.0, seed in 1u64..500) {
        let d = separable(60, center, gap, scale, seed);
        let mut svm = LinearSvm::seeded(seed);
        prop_assert!(train_accuracy(&mut svm, &d) > 0.9);
    }

    #[test]
    fn logistic_learns_any_affine_placement(center in -50.0f64..50.0, gap in 0.5f64..5.0,
                                            scale in 0.1f64..10.0, seed in 1u64..500) {
        let d = separable(60, center, gap, scale, seed);
        let mut lr = LogisticRegression::seeded(seed);
        prop_assert!(train_accuracy(&mut lr, &d) > 0.9);
    }

    #[test]
    fn nb_learns_any_affine_placement(center in -50.0f64..50.0, gap in 1.0f64..5.0,
                                      scale in 0.1f64..10.0, seed in 1u64..500) {
        let d = separable(60, center, gap, scale, seed);
        let mut nb = GaussianNaiveBayes::new();
        prop_assert!(train_accuracy(&mut nb, &d) > 0.9);
    }

    #[test]
    fn forest_learns_any_affine_placement(center in -20.0f64..20.0, gap in 1.0f64..5.0,
                                          seed in 1u64..200) {
        let d = separable(40, center, gap, 1.0, seed);
        let mut rf = RandomForest::seeded(seed);
        rf.n_trees = 15;
        rf.max_depth = 6;
        prop_assert!(train_accuracy(&mut rf, &d) > 0.9);
    }

    #[test]
    fn tree_depth_respects_config(max_depth in 0usize..6, seed in 1u64..100) {
        let d = separable(30, 0.0, 2.0, 1.0, seed);
        let mut tree = DecisionTree::new(TreeConfig { max_depth, ..Default::default() });
        tree.fit_multiclass(&d);
        prop_assert!(tree.depth() <= max_depth);
    }

    #[test]
    fn tree_probabilities_are_probabilities(seed in 1u64..100) {
        let d = separable(30, 0.0, 1.0, 1.0, seed);
        let mut tree = DecisionTree::default();
        tree.fit_multiclass(&d);
        for i in 0..d.len() {
            let p0 = tree.class_probability(d.row(i), 0);
            let p1 = tree.class_probability(d.row(i), 1);
            prop_assert!((p0 + p1 - 1.0).abs() < 1e-12);
            prop_assert!((0.0..=1.0).contains(&p0));
        }
    }

    #[test]
    fn scaler_is_invertible_information(seed in 1u64..100) {
        let d = separable(20, 5.0, 2.0, 3.0, seed);
        let scaler = d.fit_scaler();
        let s = d.scaled_by(&scaler);
        // Relative order along each feature is preserved.
        for f in 0..2 {
            for i in 1..d.len() {
                let before = d.row(i)[f].total_cmp(&d.row(i - 1)[f]);
                let after = s.row(i)[f].total_cmp(&s.row(i - 1)[f]);
                prop_assert_eq!(before, after);
            }
        }
    }
}
