//! The rule mask (Algorithm 1).
//!
//! Given the current rule (state) and the set of rules already generated,
//! the mask marks which actions remain legal:
//!
//! * **Local mask** (lines 3–11): for every attribute pair `(A, A_m)` already
//!   in `LHS(φ)`, all LHS dimensions of attribute `A` are masked (an
//!   attribute appears at most once in `X`); for every condition `(A, v)`
//!   already in `t_p`, all condition dimensions of `A` are masked (one
//!   condition per pattern attribute).
//! * **Global mask** (lines 12–17): any action whose resulting rule was
//!   already generated in this tree is masked, so the agent never wastes a
//!   step re-discovering a rule. The tree keys every generated rule by its
//!   action set, so this is one probe of `key(φ) ∪ {a}` per action
//!   ([`crate::tree`]); no child rule is built.
//! * The stop action (last dimension) is **never** masked.

use crate::encoding::{Refinement, StateEncoder};
use crate::tree::{NodeId, RuleTree};
use er_rules::EditingRule;
use std::collections::HashSet;

/// Compute the action mask for `rule` (Algorithm 1).
///
/// `visited` names the tree and the node holding `rule`; its visited set
/// drives the global mask. Pass `None` to apply the local mask only (the
/// ablation of §"global mask off"). Each action costs a few array reads and
/// at most one probe of the tree's action-set table; no rule is built.
pub fn compute_mask(
    encoder: &StateEncoder,
    rule: &EditingRule,
    visited: Option<(&RuleTree, NodeId)>,
) -> Vec<bool> {
    let mut mask = vec![true; encoder.action_dim()];

    // Local mask: attributes already used on the LHS.
    for &(a, _) in rule.lhs() {
        for &dim in encoder.lhs_actions_of_attr(a) {
            mask[dim] = false;
        }
    }
    // Local mask: attributes already constrained in the pattern.
    for cond in rule.pattern() {
        for &dim in encoder.condition_actions_of_attr(cond.attr) {
            mask[dim] = false;
        }
    }

    // Global mask: a slot stays on iff the local mask allows it AND the
    // refinement is structurally valid (it does not touch the target
    // attribute) AND the resulting rule was not generated before.
    if let Some((tree, node)) = visited {
        for (action, slot) in mask.iter_mut().enumerate() {
            *slot = *slot && !encoder.refines_target(action) && !tree.child_visited(node, action);
        }
    }

    // The stop action is always available (Algorithm 1, line 1).
    let stop = encoder.stop_action();
    mask[stop] = true;
    mask
}

/// Algorithm 1 written out rule by rule: the oracle [`compute_mask`] is
/// checked against. The local mask asks the rule whether each action's
/// attribute is taken; with `visited` (the rules generated so far), the
/// global mask builds every child with [`StateEncoder::apply`] and looks it
/// up. Slow — one rule per action — and meant for tests and audits.
pub fn reference_mask(
    encoder: &StateEncoder,
    rule: &EditingRule,
    visited: Option<&HashSet<EditingRule>>,
) -> Vec<bool> {
    (0..encoder.action_dim())
        .map(|action| {
            let local = match encoder.refinement(action) {
                Refinement::Stop => return true,
                Refinement::Lhs(a, _) => !rule.lhs_contains_input(a),
                Refinement::Pattern(cond) => !rule.pattern_contains(cond.attr),
            };
            match visited {
                None => local,
                Some(visited) => {
                    local
                        && encoder
                            .apply(rule, action)
                            .is_some_and(|child| !visited.contains(&child))
                }
            }
        })
        .collect()
}

/// Check a computed action mask against [`reference_mask`], available under
/// the `debug-invariants` feature: same width, stop on, and every action's
/// verdict equal to the one Algorithm 1 gives when each child rule is built
/// and looked up in `visited` (`None` = local mask only).
///
/// Panics on violation; meant for debug builds and tests.
#[cfg(feature = "debug-invariants")]
pub fn check_mask_invariants(
    encoder: &StateEncoder,
    rule: &EditingRule,
    visited: Option<&HashSet<EditingRule>>,
    mask: &[bool],
) {
    assert_eq!(
        mask.len(),
        encoder.action_dim(),
        "mask: wrong action dimension"
    );
    assert!(
        mask[encoder.stop_action()],
        "mask: stop action must never be masked"
    );
    let reference = reference_mask(encoder, rule, visited);
    if let Some(action) = (0..mask.len()).find(|&a| mask[a] != reference[a]) {
        panic!(
            "mask: action {action} is {} but Algorithm 1 says {}",
            if mask[action] { "on" } else { "off" },
            if reference[action] { "on" } else { "off" },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::RuleTree;
    use er_datagen::figure1;
    use er_rules::{ConditionSpaceConfig, Measures};

    fn setup() -> (er_rules::Task, StateEncoder) {
        let s = figure1();
        let enc = StateEncoder::new(&s.task, ConditionSpaceConfig::default());
        (s.task, enc)
    }

    #[test]
    fn root_mask_allows_everything() {
        let (task, enc) = setup();
        let root = EditingRule::root(task.target());
        let mask = compute_mask(&enc, &root, None);
        assert!(mask.iter().all(|&m| m));
    }

    #[test]
    fn stop_never_masked() {
        let (task, enc) = setup();
        let root = EditingRule::root(task.target());
        // Even with every rule visited, stop stays on.
        let tree = RuleTree::new(root.clone(), Measures::zero(), vec![]);
        let mask = compute_mask(&enc, &root, Some((&tree, 0)));
        assert!(mask[enc.stop_action()]);
    }

    #[test]
    fn local_mask_blocks_used_lhs_attr() {
        let (task, enc) = setup();
        let (a, am) = task.candidate_lhs_pairs()[0];
        let rule = EditingRule::root(task.target()).with_lhs_pair(a, am);
        let mask = compute_mask(&enc, &rule, None);
        for &dim in enc.lhs_actions_of_attr(a) {
            assert!(!mask[dim], "dim {dim} for used attr {a} must be masked");
        }
        // Conditions on that attribute remain allowed (X and X_p may overlap).
        for &dim in enc.condition_actions_of_attr(a) {
            assert!(mask[dim]);
        }
    }

    #[test]
    fn local_mask_blocks_constrained_pattern_attr() {
        let (task, enc) = setup();
        let cond = enc.conditions()[0].clone();
        let attr = cond.attr;
        let rule = EditingRule::root(task.target()).with_condition(cond);
        let mask = compute_mask(&enc, &rule, None);
        for &dim in enc.condition_actions_of_attr(attr) {
            assert!(
                !mask[dim],
                "condition dim {dim} on attr {attr} must be masked"
            );
        }
        // LHS dims of the same attribute stay allowed.
        for &dim in enc.lhs_actions_of_attr(attr) {
            assert!(mask[dim]);
        }
    }

    #[test]
    fn global_mask_blocks_existing_rules() {
        let (task, enc) = setup();
        let root = EditingRule::root(task.target());
        let mut tree = RuleTree::new(root.clone(), Measures::zero(), vec![]);
        // Pretend the child via action 0 was already generated.
        let child = enc.apply(&root, 0).unwrap();
        tree.add_child(0, 0, child.clone(), Measures::zero(), vec![]);
        let mask = compute_mask(&enc, &root, Some((&tree, 0)));
        assert!(!mask[0], "action 0 recreates an existing rule");
        // A sibling action stays allowed.
        assert!(mask[1]);
        let visited = HashSet::from([root.clone(), child]);
        assert_eq!(mask, reference_mask(&enc, &root, Some(&visited)));
    }

    #[test]
    fn masked_rule_with_everything_used_only_stops() {
        let (task, enc) = setup();
        // Build a rule using every LHS pair and one condition per attribute.
        let mut rule = EditingRule::root(task.target());
        for &(a, am) in task.candidate_lhs_pairs().iter() {
            if !rule.lhs_contains_input(a) {
                rule = rule.with_lhs_pair(a, am);
            }
        }
        let mut used = std::collections::HashSet::new();
        for cond in enc.conditions() {
            if used.insert(cond.attr) {
                rule = rule.with_condition(cond.clone());
            }
        }
        let mask = compute_mask(&enc, &rule, None);
        let allowed: Vec<usize> = mask
            .iter()
            .enumerate()
            .filter(|(_, &m)| m)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(allowed, vec![enc.stop_action()]);
    }
}
