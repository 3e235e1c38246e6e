//! Classifier evaluation utilities: accuracy and ROC AUC.

/// Fraction of predictions matching the truth.
///
/// # Panics
/// Panics on length mismatch or empty input.
pub fn accuracy(predictions: &[bool], truth: &[bool]) -> f64 {
    assert_eq!(predictions.len(), truth.len());
    assert!(!truth.is_empty(), "no samples");
    let correct = predictions.iter().zip(truth).filter(|(p, t)| p == t).count();
    correct as f64 / truth.len() as f64
}

/// ROC AUC via the rank statistic (Mann–Whitney U), with tie correction.
/// Returns 0.5 when either class is absent.
///
/// Returns `NaN` when any score is `NaN`: ranking is undefined for NaN, and
/// the tie-averaging pass below groups equal scores with `==`, under which
/// NaN never equals itself — NaNs would land at both ends of the
/// `total_cmp` order (by sign bit) with arbitrary distinct ranks, silently
/// skewing the statistic instead of flagging the bad input.
pub fn roc_auc(scores: &[f64], truth: &[bool]) -> f64 {
    assert_eq!(scores.len(), truth.len());
    if scores.iter().any(|s| s.is_nan()) {
        return f64::NAN;
    }
    let n_pos = truth.iter().filter(|&&t| t).count();
    let n_neg = truth.len() - n_pos;
    if n_pos == 0 || n_neg == 0 {
        return 0.5;
    }
    // Rank all scores (average ranks for ties).
    let mut order: Vec<usize> = (0..scores.len()).collect();
    order.sort_by(|&a, &b| scores[a].total_cmp(&scores[b]));
    let mut ranks = vec![0.0f64; scores.len()];
    let mut i = 0;
    while i < order.len() {
        let mut j = i;
        while j + 1 < order.len() && scores[order[j + 1]] == scores[order[i]] {
            j += 1;
        }
        let avg_rank = (i + j) as f64 / 2.0 + 1.0;
        for &k in &order[i..=j] {
            ranks[k] = avg_rank;
        }
        i = j + 1;
    }
    let rank_sum_pos: f64 = truth.iter().zip(&ranks).filter(|&(&t, _)| t).map(|(_, &r)| r).sum();
    let u = rank_sum_pos - (n_pos as f64 * (n_pos as f64 + 1.0)) / 2.0;
    u / (n_pos as f64 * n_neg as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_basic() {
        assert_eq!(accuracy(&[true, false, true], &[true, true, true]), 2.0 / 3.0);
        assert_eq!(accuracy(&[true], &[true]), 1.0);
    }

    #[test]
    fn auc_perfect_ranking() {
        let scores = [0.1, 0.2, 0.8, 0.9];
        let truth = [false, false, true, true];
        assert_eq!(roc_auc(&scores, &truth), 1.0);
    }

    #[test]
    fn auc_inverted_ranking() {
        let scores = [0.9, 0.8, 0.2, 0.1];
        let truth = [false, false, true, true];
        assert_eq!(roc_auc(&scores, &truth), 0.0);
    }

    #[test]
    fn auc_random_is_half() {
        let scores = [0.5, 0.5, 0.5, 0.5];
        let truth = [true, false, true, false];
        assert_eq!(roc_auc(&scores, &truth), 0.5);
    }

    #[test]
    fn auc_single_class_is_half() {
        assert_eq!(roc_auc(&[0.1, 0.9], &[true, true]), 0.5);
    }

    #[test]
    fn auc_nan_scores_yield_nan_not_a_skewed_rank() {
        // A NaN score must poison the result. Before the guard, -NaN and
        // +NaN sorted to opposite ends under total_cmp and (never being ==)
        // each kept a private rank, producing a plausible-looking AUC.
        let scores = [0.1, f64::NAN, 0.9];
        let truth = [false, true, true];
        assert!(roc_auc(&scores, &truth).is_nan());
        let neg_nan = f64::NAN.copysign(-1.0);
        assert!(roc_auc(&[neg_nan, 0.5, f64::NAN], &[true, false, true]).is_nan());
        // Finite inputs are unaffected.
        assert_eq!(roc_auc(&[0.1, 0.2, 0.9], &[false, false, true]), 1.0);
    }

    #[test]
    fn auc_with_ties_partial() {
        let scores = [0.0, 0.5, 0.5, 1.0];
        let truth = [false, true, false, true];
        // Pairs: (pos .5 vs neg 0): win; (pos .5 vs neg .5): tie 0.5;
        // (pos 1 vs both negs): 2 wins → (1 + 0.5 + 2) / 4 = 0.875.
        assert!((roc_auc(&scores, &truth) - 0.875).abs() < 1e-12);
    }
}
