//! State and action encoding (§IV-A, §IV-B).
//!
//! The state of a rule `φ` is a one-hot vector `s = [s_l; s_p]` (Eq. 6):
//! `s_l` has one dimension per matched attribute pair `(A, A_m)` (Eq. 7) and
//! `s_p` one dimension per candidate pattern condition (Eq. 8) — continuous
//! attributes contribute `N_split` range dimensions, large categorical
//! domains are reduced to common-prefix groups ([`er_rules::ConditionSpace`]
//! does both). The action vector appends a single *stop* dimension
//! (Eqs. 9–12), so `action_dim = state_dim + 1`.

use er_rules::{Condition, ConditionSpace, ConditionSpaceConfig, EditingRule, Task};
use er_table::AttrId;
use std::collections::HashMap;

/// What an action index means (the transition function `T` of Definition 5).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Refinement<'a> {
    /// Add `(A, A_m)` to `LHS(φ)`.
    Lhs(AttrId, AttrId),
    /// Add a condition to the pattern `t_p`.
    Pattern(&'a Condition),
    /// Stop refining the current node and move on (`a_stop`).
    Stop,
}

/// Bidirectional mapping between rules and one-hot state/action vectors.
///
/// Built once per mining task; RLMiner-ft reuses the encoder across the
/// incremental data versions so the value network's dimensions stay fixed.
#[derive(Debug, Clone)]
pub struct StateEncoder {
    /// Matched LHS pairs, in dimension order.
    lhs_pairs: Vec<(AttrId, AttrId)>,
    /// Candidate conditions, in dimension order (offset by `lhs_pairs.len()`).
    conditions: Vec<Condition>,
    lhs_index: HashMap<(AttrId, AttrId), usize>,
    cond_index: HashMap<Condition, usize>,
    target: (AttrId, AttrId),
    /// Per input attribute: the action indices of its LHS pairs.
    lhs_of_attr: Vec<Vec<usize>>,
    /// Per input attribute: the action indices of its conditions.
    conditions_of_attr: Vec<Vec<usize>>,
    /// Per action: whether it refines the target attribute `Y` (a
    /// Definition 1 violation whatever the rule).
    refines_target: Vec<bool>,
}

impl StateEncoder {
    /// Build the encoder for `task`'s matched pairs and condition space.
    pub fn new(task: &Task, space_config: ConditionSpaceConfig) -> Self {
        let space = ConditionSpace::build(task, space_config);
        let lhs_pairs = task.candidate_lhs_pairs();
        let conditions: Vec<Condition> = space.iter().map(|(_, _, c)| c.clone()).collect();
        let lhs_index = lhs_pairs.iter().enumerate().map(|(i, &p)| (p, i)).collect();
        let cond_index = conditions
            .iter()
            .enumerate()
            .map(|(i, c)| (c.clone(), i))
            .collect();
        let (y, _) = task.target();
        let width = lhs_pairs
            .iter()
            .map(|&(a, _)| a)
            .chain(conditions.iter().map(|c| c.attr))
            .max()
            .map_or(0, |a| a + 1);
        let mut lhs_of_attr = vec![Vec::new(); width];
        for (action, &(a, _)) in lhs_pairs.iter().enumerate() {
            lhs_of_attr[a].push(action);
        }
        let mut conditions_of_attr = vec![Vec::new(); width];
        for (i, c) in conditions.iter().enumerate() {
            conditions_of_attr[c.attr].push(lhs_pairs.len() + i);
        }
        let refines_target = lhs_pairs
            .iter()
            .map(|&(a, _)| a == y)
            .chain(conditions.iter().map(|c| c.attr == y))
            .chain([false]) // the stop action
            .collect();
        StateEncoder {
            lhs_pairs,
            conditions,
            lhs_index,
            cond_index,
            target: task.target(),
            lhs_of_attr,
            conditions_of_attr,
            refines_target,
        }
    }

    /// `dim(s_l)` (Eq. 7).
    pub fn lhs_dim(&self) -> usize {
        self.lhs_pairs.len()
    }

    /// `dim(s_p)` (Eq. 8).
    pub fn pattern_dim(&self) -> usize {
        self.conditions.len()
    }

    /// `dim(s)` — the value-network input width.
    pub fn state_dim(&self) -> usize {
        self.lhs_dim() + self.pattern_dim()
    }

    /// `dim(a) = dim(s) + 1` — the value-network output width
    /// (the last dimension is the stop action).
    pub fn action_dim(&self) -> usize {
        self.state_dim() + 1
    }

    /// Index of the stop action.
    pub fn stop_action(&self) -> usize {
        self.state_dim()
    }

    /// The target pair the encoder was built for.
    pub fn target(&self) -> (AttrId, AttrId) {
        self.target
    }

    /// The matched LHS pairs in dimension order.
    pub fn lhs_pairs(&self) -> &[(AttrId, AttrId)] {
        &self.lhs_pairs
    }

    /// The candidate conditions in dimension order.
    pub fn conditions(&self) -> &[Condition] {
        &self.conditions
    }

    /// One-hot encode a rule. LHS pairs or conditions outside the encoder's
    /// universe are ignored (they cannot appear on rules the encoder itself
    /// produced).
    pub fn encode(&self, rule: &EditingRule) -> Vec<f32> {
        let mut s = vec![0.0f32; self.state_dim()];
        for pair in rule.lhs() {
            if let Some(&i) = self.lhs_index.get(pair) {
                s[i] = 1.0;
            }
        }
        for cond in rule.pattern() {
            if let Some(&i) = self.cond_index.get(cond) {
                s[self.lhs_dim() + i] = 1.0;
            }
        }
        s
    }

    /// Decode an action index into a [`Refinement`].
    ///
    /// # Panics
    /// Panics if `action > state_dim()` (out of the action space).
    pub fn refinement(&self, action: usize) -> Refinement<'_> {
        if action == self.stop_action() {
            return Refinement::Stop;
        }
        if action < self.lhs_dim() {
            let (a, am) = self.lhs_pairs[action];
            Refinement::Lhs(a, am)
        } else {
            Refinement::Pattern(&self.conditions[action - self.lhs_dim()])
        }
    }

    /// Apply an action to a rule, producing the refined rule (`None` for
    /// stop). Actions that would violate Definition 1 (duplicate attribute)
    /// also return `None`; the mask prevents the agent from selecting them.
    pub fn apply(&self, rule: &EditingRule, action: usize) -> Option<EditingRule> {
        if self.refines_target(action) {
            return None;
        }
        match self.refinement(action) {
            Refinement::Stop => None,
            Refinement::Lhs(a, am) => {
                (!rule.lhs_contains_input(a)).then(|| rule.with_lhs_pair(a, am))
            }
            Refinement::Pattern(cond) => {
                (!rule.pattern_contains(cond.attr)).then(|| rule.with_condition(cond.clone()))
            }
        }
    }

    /// Whether `action` adds the target attribute `Y` to the LHS or the
    /// pattern, which no rule may do (Definition 1).
    ///
    /// # Panics
    /// Panics if `action > state_dim()` (out of the action space).
    pub fn refines_target(&self, action: usize) -> bool {
        self.refines_target[action]
    }

    /// Action index of an LHS pair, if it is in the encoder's universe.
    pub fn lhs_action(&self, a: AttrId, am: AttrId) -> Option<usize> {
        self.lhs_index.get(&(a, am)).copied()
    }

    /// Action index of a pattern condition, if it is in the universe.
    pub fn condition_action(&self, cond: &Condition) -> Option<usize> {
        self.cond_index.get(cond).map(|&i| i + self.lhs_dim())
    }

    /// Action indices whose dimension belongs to attribute `a`'s conditions.
    pub fn condition_actions_of_attr(&self, a: AttrId) -> &[usize] {
        self.conditions_of_attr.get(a).map_or(&[], Vec::as_slice)
    }

    /// Action indices of all LHS dims for input attribute `a`
    /// (all `(a, A'_m)`, `A'_m ∈ M(a)` — what Algorithm 1 lines 6–8 mask).
    pub fn lhs_actions_of_attr(&self, a: AttrId) -> &[usize] {
        self.lhs_of_attr.get(a).map_or(&[], Vec::as_slice)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_datagen::figure1;

    fn encoder() -> (er_rules::Task, StateEncoder) {
        let s = figure1();
        let enc = StateEncoder::new(&s.task, ConditionSpaceConfig::default());
        (s.task, enc)
    }

    #[test]
    fn dims_follow_eqs_7_and_8() {
        let (task, enc) = encoder();
        // Figure 1: matched pairs excluding Y.
        let expected_lhs = task.candidate_lhs_pairs().len();
        assert_eq!(enc.lhs_dim(), expected_lhs);
        assert!(enc.pattern_dim() > 0);
        assert_eq!(enc.state_dim(), enc.lhs_dim() + enc.pattern_dim());
        assert_eq!(enc.action_dim(), enc.state_dim() + 1);
        assert_eq!(enc.stop_action(), enc.state_dim());
    }

    #[test]
    fn encode_decode_round_trip() {
        let (task, enc) = encoder();
        let (a, am) = task.candidate_lhs_pairs()[0];
        let cond = enc.conditions()[0].clone();
        let rule = EditingRule::new(vec![(a, am)], task.target(), vec![cond.clone()]);
        let s = enc.encode(&rule);
        assert_eq!(s.iter().filter(|&&x| x == 1.0).count(), 2);
        assert_eq!(s[enc.lhs_action(a, am).unwrap()], 1.0);
        assert_eq!(s[enc.condition_action(&cond).unwrap()], 1.0);
    }

    #[test]
    fn root_encodes_to_zeros() {
        let (task, enc) = encoder();
        let s = enc.encode(&EditingRule::root(task.target()));
        assert!(s.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn refinement_decodes_every_action() {
        let (_, enc) = encoder();
        for a in 0..enc.action_dim() {
            let r = enc.refinement(a);
            if a == enc.stop_action() {
                assert_eq!(r, Refinement::Stop);
            } else {
                assert_ne!(r, Refinement::Stop);
            }
        }
    }

    #[test]
    fn apply_builds_children() {
        let (task, enc) = encoder();
        let root = EditingRule::root(task.target());
        let child = enc.apply(&root, 0).expect("lhs refinement");
        assert_eq!(child.lhs_len(), 1);
        // Applying the same action again is a no-op (duplicate attr).
        assert_eq!(enc.apply(&child, 0), None);
        // Stop maps to None.
        assert_eq!(enc.apply(&root, enc.stop_action()), None);
    }

    #[test]
    fn per_attr_action_lookup() {
        let (task, enc) = encoder();
        let (a, _) = task.candidate_lhs_pairs()[0];
        let lhs_dims = enc.lhs_actions_of_attr(a);
        assert!(!lhs_dims.is_empty());
        for &d in lhs_dims {
            match enc.refinement(d) {
                Refinement::Lhs(x, _) => assert_eq!(x, a),
                other => panic!("expected LHS refinement, got {other:?}"),
            }
        }
        // Every non-stop action sits in exactly one list, its attribute's;
        // no action of this universe refines the target.
        let mut listed = vec![0; enc.action_dim()];
        for attr in 0..task.input().num_attrs() {
            for &d in enc.lhs_actions_of_attr(attr) {
                assert!(matches!(enc.refinement(d), Refinement::Lhs(x, _) if x == attr));
                listed[d] += 1;
            }
            for &d in enc.condition_actions_of_attr(attr) {
                assert!(matches!(enc.refinement(d), Refinement::Pattern(c) if c.attr == attr));
                listed[d] += 1;
            }
        }
        assert_eq!(listed.pop(), Some(0), "the stop action is in no list");
        assert!(listed.iter().all(|&n| n == 1));
        assert!((0..enc.action_dim()).all(|d| !enc.refines_target(d)));
    }
}
