//! Property-based tests for RLMiner's encoding and masking layers, and the
//! oracle test of the action-set global mask against Algorithm 1 built rule
//! by rule.

// Test code: a panic is the failure report; fixture helpers sit outside
// any #[test] fn, so the clippy.toml test exemption does not reach them.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use er_datagen::{figure1, DatasetKind, ScenarioConfig};
use er_rlminer::{compute_mask, reference_mask, MinerEnv, RewardConfig, StateEncoder};
use er_rules::{ConditionSpaceConfig, EditingRule, Task};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::collections::HashSet;
use std::sync::OnceLock;

/// A task, its encoder, and its scenario's support threshold.
type Fixture = (Task, StateEncoder, usize);

fn fixture() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let s = DatasetKind::Covid.build(ScenarioConfig {
            input_size: 200,
            master_size: 120,
            seed: 99,
            ..DatasetKind::Covid.paper_config()
        });
        let enc = StateEncoder::new(&s.task, ConditionSpaceConfig::default());
        (s.task.clone(), enc, s.support_threshold)
    })
}

fn figure1_fixture() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let s = figure1();
        let enc = StateEncoder::new(&s.task, ConditionSpaceConfig::default());
        (s.task, enc, 1)
    })
}

/// Drive a `MinerEnv` with `choices` and, at every step, compare its mask
/// with [`reference_mask`] over a visited-rule set this test collects on its
/// own: every child rule a step builds, the root after every reset. A choice
/// picks among the allowed actions, except that one in eight picks any
/// action, masked or not, as a buggy agent might.
fn drive_against_reference(
    (task, enc, eta): &Fixture,
    global_mask: bool,
    choices: &[u32],
) -> Result<(), TestCaseError> {
    let reward = RewardConfig {
        global_mask,
        ..RewardConfig::new(*eta)
    };
    let mut env = MinerEnv::new(task, enc, reward, 12);
    let root = EditingRule::root(task.target());
    let mut visited = HashSet::from([root.clone()]);
    for (step, &choice) in choices.iter().enumerate() {
        let mask = env.mask();
        let expected = reference_mask(enc, env.current_rule(), global_mask.then_some(&visited));
        prop_assert_eq!(&mask, &expected, "step {}", step);
        let choice = choice as usize;
        let action = if choice.is_multiple_of(8) {
            choice / 8 % enc.action_dim()
        } else {
            let allowed: Vec<usize> = (0..mask.len()).filter(|&a| mask[a]).collect();
            allowed[choice % allowed.len()]
        };
        if let Some(child) = enc.apply(env.current_rule(), action) {
            visited.insert(child);
        }
        if env.step(action).done {
            env.reset();
            visited = HashSet::from([root.clone()]);
        }
    }
    Ok(())
}

/// Build a random valid rule by applying a random action sequence from the
/// root (skipping invalid/stop actions).
fn arb_rule() -> impl Strategy<Value = EditingRule> {
    let (task, enc, _) = fixture();
    let dim = enc.action_dim();
    prop::collection::vec(0..dim, 0..6).prop_map(move |actions| {
        let mut rule = EditingRule::root(task.target());
        for a in actions {
            if a == enc.stop_action() {
                continue;
            }
            if let Some(child) = enc.apply(&rule, a) {
                rule = child;
            }
        }
        rule
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// encode → one bit per LHS pair + per condition; decode-by-action is
    /// consistent: every set bit corresponds to a masked (unavailable)
    /// action under the local mask.
    #[test]
    fn encoding_bits_match_rule_structure(rule in arb_rule()) {
        let (_, enc, _) = fixture();
        let s = enc.encode(&rule);
        let set_bits = s.iter().filter(|&&x| x == 1.0).count();
        prop_assert_eq!(set_bits, rule.lhs_len() + rule.pattern_len());
        let mask = compute_mask(enc, &rule, None);
        for (i, &bit) in s.iter().enumerate() {
            if bit == 1.0 {
                prop_assert!(!mask[i], "dim {i} is in the rule but not locally masked");
            }
        }
    }

    /// The mask never blocks the stop action, and every allowed non-stop
    /// action produces a strictly refined, valid rule.
    #[test]
    fn allowed_actions_produce_valid_children(rule in arb_rule()) {
        let (_, enc, _) = fixture();
        let mask = compute_mask(enc, &rule, None);
        prop_assert!(mask[enc.stop_action()]);
        for (a, &allowed) in mask.iter().enumerate() {
            if !allowed || a == enc.stop_action() {
                continue;
            }
            let child = enc.apply(&rule, a);
            prop_assert!(child.is_some(), "allowed action {a} failed to apply");
            let child = child.unwrap();
            prop_assert_eq!(child.lhs_len() + child.pattern_len(),
                            rule.lhs_len() + rule.pattern_len() + 1);
            prop_assert!(er_rules::dominates(&rule, &child) || rule.lhs_len() + rule.pattern_len() == 0);
        }
    }

    /// Masked actions on the same attribute: once an attribute is
    /// constrained in the pattern, every condition dim of that attribute is
    /// masked.
    #[test]
    fn pattern_attr_exclusivity(rule in arb_rule()) {
        let (_, enc, _) = fixture();
        let mask = compute_mask(enc, &rule, None);
        for cond in rule.pattern() {
            for &dim in enc.condition_actions_of_attr(cond.attr) {
                prop_assert!(!mask[dim]);
            }
        }
        for &(a, _) in rule.lhs() {
            for &dim in enc.lhs_actions_of_attr(a) {
                prop_assert!(!mask[dim]);
            }
        }
    }

    /// The local mask alone equals Algorithm 1's for any reachable rule.
    #[test]
    fn local_mask_matches_reference(rule in arb_rule()) {
        let (_, enc, _) = fixture();
        prop_assert_eq!(compute_mask(enc, &rule, None), reference_mask(enc, &rule, None));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The environment's mask, global mask on, equals Algorithm 1 built
    /// rule by rule, at every step of a random walk on Covid.
    #[test]
    fn covid_global_mask_matches_reference(choices in prop::collection::vec(any::<u32>(), 1..60)) {
        drive_against_reference(fixture(), true, &choices)?;
    }

    /// The same walk with the global mask off (the ablation): local only.
    #[test]
    fn covid_local_mask_matches_reference(choices in prop::collection::vec(any::<u32>(), 1..60)) {
        drive_against_reference(fixture(), false, &choices)?;
    }

    /// Figure 1's small action space: episodes end and reset often, and
    /// the walk revisits rules through different refinement orders.
    #[test]
    fn figure1_mask_matches_reference(
        choices in prop::collection::vec(any::<u32>(), 1..80),
        global_mask in any::<bool>(),
    ) {
        drive_against_reference(figure1_fixture(), global_mask, &choices)?;
    }
}
