//! Invariant-checker exercises (`debug-invariants` feature).
//!
//! The feature compiles `check_invariants()` into the index layer
//! (`er-table`), the evaluator (`er-rules`), and the rule tree / action mask /
//! environment (`er-rlminer`), and makes both miners self-audit: EnuMiner
//! checks the evaluator caches after every `mine()` run, and `MinerEnv`
//! re-checks the whole environment after every `step()`. These tests drive
//! both miners with the checkers live and also probe each structure directly.
//!
//! Run with: `cargo test --features debug-invariants --test invariants`
#![cfg(feature = "debug-invariants")]
// Test code: a panic is the failure report; fixture helpers sit outside
// any #[test] fn, so the clippy.toml test exemption does not reach them.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use er_datagen::{figure1, DatasetKind, ScenarioConfig};
use er_enuminer::{mine, EnuMinerConfig};
use er_rlminer::{
    check_mask_invariants, compute_mask, MinerEnv, RewardConfig, RlMiner, RlMinerConfig, RuleTree,
    StateEncoder,
};
use er_rules::{ConditionSpaceConfig, EditingRule, Evaluator, Measures};
use er_table::{GroupIndex, KeyIndex, Pli};
use std::collections::HashSet;

#[test]
fn enuminer_passes_invariant_audit() {
    // mine() ends with ev.check_invariants() under this feature; a violation
    // in the group indexes or cached measures would panic here.
    let s = figure1();
    let result = mine(&s.task, EnuMinerConfig::new(1));
    assert!(!result.rules.is_empty());
}

#[test]
fn enuminer_audit_holds_on_a_generated_scenario() {
    let kind = DatasetKind::Location;
    let s = kind.build(ScenarioConfig {
        input_size: 200,
        master_size: 100,
        seed: 7,
        ..kind.paper_config()
    });
    let result = mine(&s.task, EnuMinerConfig::h3(s.support_threshold));
    assert!(result.evaluated > 0);
}

#[test]
fn rlminer_env_checks_after_every_step() {
    // Every step() call re-runs the tree, evaluator, and mask checkers.
    let s = figure1();
    let enc = StateEncoder::new(&s.task, ConditionSpaceConfig::default());
    let mut env = MinerEnv::new(&s.task, &enc, RewardConfig::new(1), 5);
    env.check_invariants();
    for _ in 0..50 {
        let mask = env.mask();
        // Greedy walk: first allowed refinement, else stop.
        let action = (0..enc.action_dim())
            .find(|&a| mask[a] && a != enc.stop_action())
            .unwrap_or(enc.stop_action());
        if env.step(action).done {
            break;
        }
    }
    env.check_invariants();
}

#[test]
fn rlminer_training_runs_under_the_checkers() {
    let s = figure1();
    let mut config = RlMinerConfig::new(1);
    config.k = 3;
    config.train_steps = 60;
    config.max_inference_steps = 60;
    let mut miner = RlMiner::new(&s.task, config);
    miner.train(&s.task);
    let _ = miner.mine(&s.task);
}

#[test]
fn rule_tree_invariants_hold_while_growing() {
    let root = EditingRule::root((9, 9));
    let mut tree = RuleTree::new(root, Measures::zero(), vec![0, 1, 2]);
    tree.check_invariants();
    let a = tree.add_child(
        0,
        0,
        EditingRule::new(vec![(0, 0)], (9, 9), vec![]),
        Measures::zero(),
        vec![0],
    );
    let b = tree.add_child(
        0,
        1,
        EditingRule::new(vec![(1, 1)], (9, 9), vec![]),
        Measures::zero(),
        vec![1],
    );
    tree.add_child(
        a,
        1,
        EditingRule::new(vec![(0, 0), (1, 1)], (9, 9), vec![]),
        Measures::zero(),
        vec![],
    );
    tree.mark_visited(b, 2);
    tree.enqueue(a);
    tree.enqueue(b);
    tree.enqueue(a); // idempotent
    tree.check_invariants();
    tree.next_node();
    tree.set_current(b);
    tree.check_invariants();
}

#[test]
fn mask_invariants_hold_with_and_without_tree() {
    let s = figure1();
    let enc = StateEncoder::new(&s.task, ConditionSpaceConfig::default());
    let root = EditingRule::root(s.task.target());
    let mask = compute_mask(&enc, &root, None);
    check_mask_invariants(&enc, &root, None, &mask);

    // Grow a tree so the global mask has something to forbid.
    let mut tree = RuleTree::new(root.clone(), Measures::zero(), vec![]);
    let child = enc.apply(&root, 0).expect("action 0 applies at the root");
    tree.add_child(0, 0, child.clone(), Measures::zero(), vec![]);
    let mask = compute_mask(&enc, &root, Some((&tree, 0)));
    assert!(!mask[0]);
    let visited = HashSet::from([root.clone(), child]);
    check_mask_invariants(&enc, &root, Some(&visited), &mask);
}

#[test]
fn index_invariants_hold_on_real_relations() {
    let s = figure1();
    let master = s.task.master();
    let idx = KeyIndex::build(master, &[2, 8]);
    idx.check_invariants(master.num_rows());

    let g = GroupIndex::build(master, &[2], 7);
    g.check_invariants();

    let p2 = Pli::build(master, 2);
    let p8 = Pli::build(master, 8);
    p2.check_invariants();
    p8.check_invariants();
    let both = p2.intersect(&p8);
    both.check_invariants();
    // The intersection is a disjoint cover refining both operands.
    assert!(both.refines(&p2.intersect(&both)));
}

#[test]
fn evaluator_invariants_hold_after_evaluation() {
    let s = figure1();
    let ev = Evaluator::new(&s.task);
    let root = EditingRule::root(s.task.target());
    ev.eval(&root, None);
    for &(a, am) in s.task.candidate_lhs_pairs().iter() {
        ev.eval(
            &EditingRule::new(vec![(a, am)], s.task.target(), vec![]),
            None,
        );
    }
    ev.check_invariants();
}
