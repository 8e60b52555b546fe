//! Weighted precision / recall / F-measure over cell predictions (§V-A2).
//!
//! The evaluation universe is the union of (a) cells labelled dirty (they
//! need repair) and (b) cells that received a prediction. Per truth class
//! `l`:
//!
//! * `TP_l` — predicted `l` and the truth is `l`;
//! * `FP_l` — predicted `l` but the truth differs;
//! * `FN_l` — truth is `l`, cell is in the universe, and the prediction is
//!   absent or different.
//!
//! Class scores are averaged weighted by class frequency in the universe
//! (the paper's `|ŷ_l|` weights), matching scikit-learn's `average="weighted"`
//! convention the original implementation used. The weighted sums run over
//! the classes in code order, so the result is bit-reproducible: the same
//! cells give the same bits whatever the row order and in every process.

use er_table::Code;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Weighted precision / recall / F-measure plus raw counts.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WeightedPrf {
    /// Weighted precision.
    pub precision: f64,
    /// Weighted recall.
    pub recall: f64,
    /// Weighted F-measure.
    pub f1: f64,
    /// Number of cells in the evaluation universe.
    pub evaluated: usize,
    /// Number of predictions made (on universe cells).
    pub predicted: usize,
    /// Number of correct predictions.
    pub correct: usize,
}

impl WeightedPrf {
    /// All-zero metrics (empty universe).
    pub fn zero() -> Self {
        WeightedPrf {
            precision: 0.0,
            recall: 0.0,
            f1: 0.0,
            evaluated: 0,
            predicted: 0,
            correct: 0,
        }
    }
}

/// Evaluate predictions against ground truth.
///
/// * `truth[row]` — the true `Y` code of each input row;
/// * `dirty[row]` — whether the cell is erroneous/missing in the input and
///   therefore *needs* repair;
/// * `predictions[row]` — the predicted fix, if any.
///
/// All three slices must be row-aligned.
///
/// # Panics
/// Panics if the slice lengths differ.
pub fn evaluate_repairs(
    truth: &[Code],
    dirty: &[bool],
    predictions: &[Option<Code>],
) -> WeightedPrf {
    assert_eq!(truth.len(), dirty.len());
    assert_eq!(truth.len(), predictions.len());

    #[derive(Default, Clone, Copy)]
    struct ClassCounts {
        tp: usize,
        fp: usize,
        fn_: usize,
        weight: usize,
    }
    // Ordered by code: a fixed summation order below.
    let mut classes: BTreeMap<Code, ClassCounts> = BTreeMap::new();
    let mut evaluated = 0usize;
    let mut predicted = 0usize;
    let mut correct = 0usize;

    for row in 0..truth.len() {
        let in_universe = dirty[row] || predictions[row].is_some();
        if !in_universe {
            continue;
        }
        evaluated += 1;
        let t = truth[row];
        classes.entry(t).or_default().weight += 1;
        match predictions[row] {
            Some(p) => {
                predicted += 1;
                if p == t {
                    correct += 1;
                    classes.entry(t).or_default().tp += 1;
                } else {
                    classes.entry(p).or_default().fp += 1;
                    classes.entry(t).or_default().fn_ += 1;
                }
            }
            None => {
                // Dirty cell nobody repaired: a miss for the truth class.
                classes.entry(t).or_default().fn_ += 1;
            }
        }
    }

    let total_weight: usize = classes.values().map(|c| c.weight).sum();
    if total_weight == 0 {
        return WeightedPrf::zero();
    }
    let mut precision = 0.0;
    let mut recall = 0.0;
    let mut f1 = 0.0;
    for counts in classes.values() {
        let w = counts.weight as f64 / total_weight as f64;
        let p = safe_div(counts.tp, counts.tp + counts.fp);
        let r = safe_div(counts.tp, counts.tp + counts.fn_);
        let f = if p + r > 0.0 {
            2.0 * p * r / (p + r)
        } else {
            0.0
        };
        precision += w * p;
        recall += w * r;
        f1 += w * f;
    }
    WeightedPrf {
        // Each metric is a convex combination of per-class values in [0, 1],
        // so mathematically it lies in [0, 1] — but inexact class weights
        // can round a sum of weights 1 to just above 1.0. Clamp away that
        // float dust.
        precision: precision.clamp(0.0, 1.0),
        recall: recall.clamp(0.0, 1.0),
        f1: f1.clamp(0.0, 1.0),
        evaluated,
        predicted,
        correct,
    }
}

fn safe_div(num: usize, den: usize) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_never_exceed_one_with_inexact_class_weights() {
        // Three classes of weight 1/3 each: the weights are inexact in
        // binary, and before the output clamp an unlucky class-map
        // iteration order could sum a perfect score to just above 1.0
        // (the source of a flaky property-test failure). Perfect
        // predictions must report metrics ≤ 1 in every process.
        let truth: Vec<Code> = (0..21).map(|i| i % 3).collect();
        let dirty = vec![true; truth.len()];
        let preds: Vec<Option<Code>> = truth.iter().map(|&t| Some(t)).collect();
        let m = evaluate_repairs(&truth, &dirty, &preds);
        assert!(m.precision <= 1.0 && m.recall <= 1.0 && m.f1 <= 1.0);
        assert!((m.precision - 1.0).abs() < 1e-9);
        assert!((m.recall - 1.0).abs() < 1e-9);
        assert!((m.f1 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn scores_are_bit_equal_across_calls_and_row_orders() {
        // Many classes of uneven, inexact weights: under a hash-ordered
        // class sum the low bits of f1 varied from call to call.
        let rows = 600usize;
        let truth: Vec<Code> = (0..rows).map(|i| ((i * 7919) % 41) as Code).collect();
        let dirty: Vec<bool> = (0..rows).map(|i| i % 5 != 0).collect();
        let preds: Vec<Option<Code>> = (0..rows)
            .map(|i| match i % 4 {
                0 => None,
                1 => Some(((i * 31) % 43) as Code),
                _ => Some(truth[i]),
            })
            .collect();
        let first = evaluate_repairs(&truth, &dirty, &preds);
        for _ in 0..20 {
            let again = evaluate_repairs(&truth, &dirty, &preds);
            assert_eq!(again.f1.to_bits(), first.f1.to_bits());
            assert_eq!(again.precision.to_bits(), first.precision.to_bits());
            assert_eq!(again.recall.to_bits(), first.recall.to_bits());
        }
        // Reversed and strided row orders hold the same cells.
        let reversed: Vec<usize> = (0..rows).rev().collect();
        let strided: Vec<usize> = (0..7).flat_map(|k| (k..rows).step_by(7)).collect();
        for order in [reversed, strided] {
            let permuted = evaluate_repairs(
                &order.iter().map(|&i| truth[i]).collect::<Vec<_>>(),
                &order.iter().map(|&i| dirty[i]).collect::<Vec<_>>(),
                &order.iter().map(|&i| preds[i]).collect::<Vec<_>>(),
            );
            assert_eq!(permuted.f1.to_bits(), first.f1.to_bits());
            assert_eq!(permuted.precision.to_bits(), first.precision.to_bits());
            assert_eq!(permuted.recall.to_bits(), first.recall.to_bits());
        }
    }

    #[test]
    fn perfect_predictions() {
        let truth = vec![1, 2, 1];
        let dirty = vec![true, true, true];
        let preds = vec![Some(1), Some(2), Some(1)];
        let m = evaluate_repairs(&truth, &dirty, &preds);
        assert_eq!(m.precision, 1.0);
        assert_eq!(m.recall, 1.0);
        assert_eq!(m.f1, 1.0);
        assert_eq!(m.evaluated, 3);
        assert_eq!(m.correct, 3);
    }

    #[test]
    fn missed_dirty_cells_hurt_recall_not_precision() {
        let truth = vec![1, 1, 1, 1];
        let dirty = vec![true, true, true, true];
        let preds = vec![Some(1), Some(1), None, None];
        let m = evaluate_repairs(&truth, &dirty, &preds);
        assert_eq!(m.precision, 1.0);
        assert!((m.recall - 0.5).abs() < 1e-12);
    }

    #[test]
    fn wrong_predictions_hurt_both() {
        let truth = vec![1, 1];
        let dirty = vec![true, true];
        let preds = vec![Some(1), Some(2)];
        let m = evaluate_repairs(&truth, &dirty, &preds);
        // Class 1 (weight 2): tp=1, fp=0, fn=1 → p=1, r=0.5.
        // Class 2 appears only as a wrong prediction (weight 0).
        assert!((m.precision - 1.0).abs() < 1e-12);
        assert!((m.recall - 0.5).abs() < 1e-12);
    }

    #[test]
    fn predictions_on_clean_cells_enter_universe() {
        let truth = vec![1, 2];
        let dirty = vec![false, false];
        let preds = vec![Some(1), Some(3)];
        let m = evaluate_repairs(&truth, &dirty, &preds);
        assert_eq!(m.evaluated, 2);
        assert_eq!(m.correct, 1);
        // Class 1: perfect. Class 2: fn=1 (pred 3). Weighted p = 0.5·1 + 0.5·0.
        assert!((m.precision - 0.5).abs() < 1e-12);
    }

    #[test]
    fn clean_unpredicted_cells_ignored() {
        let truth = vec![1, 1, 1];
        let dirty = vec![true, false, false];
        let preds = vec![Some(1), None, None];
        let m = evaluate_repairs(&truth, &dirty, &preds);
        assert_eq!(m.evaluated, 1);
        assert_eq!(m.f1, 1.0);
    }

    #[test]
    fn empty_universe_is_zero() {
        let m = evaluate_repairs(&[1, 2], &[false, false], &[None, None]);
        assert_eq!(m, WeightedPrf::zero());
    }

    #[test]
    fn weights_follow_class_frequency() {
        // Class 1 ×3 all correct; class 2 ×1 wrong → weighted precision
        // = 0.75·1 + 0.25·0 = 0.75.
        let truth = vec![1, 1, 1, 2];
        let dirty = vec![true; 4];
        let preds = vec![Some(1), Some(1), Some(1), Some(9)];
        let m = evaluate_repairs(&truth, &dirty, &preds);
        assert!((m.precision - 0.75).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn misaligned_slices_panic() {
        evaluate_repairs(&[1], &[true, false], &[None]);
    }
}
