//! The rule-discovery environment: `GrowTree` (Algorithm 4) and `CalReward`
//! (Algorithm 2).
//!
//! The environment owns the growing [`RuleTree`], the measure evaluator (with
//! its master-side indexes), and the reward cache `R_Σ`. The evaluator and
//! `R_Σ` survive [`MinerEnv::reset`], so rules rediscovered in later episodes
//! cost one hash lookup instead of a measure evaluation — the optimization
//! Algorithm 2 calls out explicitly.

use crate::encoding::StateEncoder;
use crate::mask::compute_mask;
use crate::tree::RuleTree;
use er_rules::{EditingRule, Evaluator, Measures, Task};
use std::collections::HashMap;

/// Reward-function knobs (Algorithm 2).
#[derive(Debug, Clone, Copy)]
pub struct RewardConfig {
    /// Stop-action reward θ (a small positive constant; 0.01 in the paper —
    /// big values let the agent live off "easy money" and never mine).
    pub theta: f64,
    /// Reward for a rule below the support threshold (−0.01 in the paper).
    pub low_support_penalty: f64,
    /// Support threshold `η_s`.
    pub support_threshold: usize,
    /// Enable the frontier-difference shaping of lines 15–16 (ablation
    /// switch; on in the paper).
    pub shaping: bool,
    /// Enable the global mask (ablation switch; on in the paper).
    pub global_mask: bool,
    /// Rules with certainty at or above this are treated as certain fixes
    /// and never refined further (Alg. 4 line 14 uses `C < 1`; on data with
    /// approximate dependencies certainty never reaches exactly 1, which
    /// would degenerate the check).
    pub certainty_stop: f64,
    /// Multiplier applied to utility-based rule rewards before they reach
    /// the agent. DQN with Huber loss learns fastest when rewards are O(1);
    /// utilities reach `(log₁₀ S)²·2 ≈ 10–40`, so [`MinerEnv::new`] callers
    /// typically set this to `1 / ((log₁₀ |D|)² · 2)`. θ and the
    /// low-support penalty are already O(1) and are not scaled.
    pub utility_scale: f64,
}

impl RewardConfig {
    /// Paper defaults for a given support threshold.
    pub fn new(support_threshold: usize) -> Self {
        RewardConfig {
            theta: 0.01,
            low_support_penalty: -0.01,
            support_threshold,
            shaping: true,
            global_mask: true,
            certainty_stop: 0.95,
            utility_scale: 1.0,
        }
    }

    /// Paper defaults plus a utility scale normalizing the maximum possible
    /// reward (`(log₁₀ n)² · 2` for an input of `n` rows) to ≈ 1.
    pub fn normalized(support_threshold: usize, input_rows: usize) -> Self {
        let max_u = {
            let l = (input_rows.max(10) as f64).log10();
            l * l * 2.0
        };
        RewardConfig {
            utility_scale: 1.0 / max_u,
            ..Self::new(support_threshold)
        }
    }
}

/// One environment step's outcome.
#[derive(Debug, Clone)]
pub struct StepOutcome {
    /// Reward `r_t`.
    pub reward: f64,
    /// Whether the episode ended (tree exhausted or `K` rules discovered).
    pub done: bool,
}

/// The rule-mining environment (Definition 5's `⟨S, A, T, R⟩` minus the
/// agent).
pub struct MinerEnv<'a> {
    task: &'a Task,
    evaluator: Evaluator<'a>,
    encoder: &'a StateEncoder,
    reward: RewardConfig,
    /// Episode ends once this many rules are discovered (`K`).
    k: usize,
    tree: RuleTree,
    /// `R_Σ` — reward per rule, shared across episodes (Algorithm 2).
    rewards: HashMap<EditingRule, f64>,
    steps: usize,
    /// Rules evaluated from scratch (cache misses) — a cost counter for the
    /// efficiency experiments.
    fresh_evaluations: usize,
    /// Every rule generated in this episode, collected rule by rule: the
    /// audit's independent view of the tree's action-set visited table.
    #[cfg(feature = "debug-invariants")]
    audit_visited: std::collections::HashSet<EditingRule>,
}

impl<'a> MinerEnv<'a> {
    /// Build the environment (the `BuildEnv` of Algorithm 3, line 1) with
    /// auto-resolved threading (`ER_THREADS` or sequential).
    pub fn new(task: &'a Task, encoder: &'a StateEncoder, reward: RewardConfig, k: usize) -> Self {
        Self::with_threads(task, encoder, reward, k, 0)
    }

    /// Build the environment with an explicit worker-thread count for cover
    /// scans (`0` = auto). The environment's trajectory is identical at any
    /// thread count.
    pub fn with_threads(
        task: &'a Task,
        encoder: &'a StateEncoder,
        reward: RewardConfig,
        k: usize,
        threads: usize,
    ) -> Self {
        let evaluator = Evaluator::with_threads(task, threads);
        let mut env = MinerEnv {
            task,
            evaluator,
            encoder,
            reward,
            k,
            tree: RuleTree::new(
                EditingRule::root(task.target()),
                Measures::zero(),
                Vec::new(),
            ),
            rewards: HashMap::new(),
            steps: 0,
            fresh_evaluations: 0,
            #[cfg(feature = "debug-invariants")]
            audit_visited: Default::default(),
        };
        env.reset();
        env
    }

    /// Start a new episode: a fresh tree rooted at the empty rule. The
    /// reward cache and measure evaluator persist.
    pub fn reset(&mut self) {
        let root = EditingRule::root(self.task.target());
        let all_rows: Vec<usize> = (0..self.task.input().num_rows()).collect();
        let root_measures = self.evaluator.eval_on_cover_cached(&root, &all_rows);
        let root_reward = self.rule_reward(root_measures);
        self.rewards.entry(root.clone()).or_insert(root_reward);
        #[cfg(feature = "debug-invariants")]
        {
            self.audit_visited.clear();
            self.audit_visited.insert(root.clone());
        }
        self.tree = RuleTree::new(root, root_measures, all_rows);
        // The root joins the level-order queue so the walk can return to it
        // after the first descent (its siblings-to-be are still unexplored).
        self.tree.enqueue(0);
    }

    /// The current rule (state, decoded form).
    pub fn current_rule(&self) -> &EditingRule {
        &self.tree.node(self.tree.current()).rule
    }

    /// The current state encoding.
    pub fn state(&self) -> Vec<f32> {
        self.encoder.encode(self.current_rule())
    }

    /// The current action mask (Algorithm 1), honoring the global-mask
    /// ablation switch.
    pub fn mask(&self) -> Vec<bool> {
        let visited = self
            .reward
            .global_mask
            .then_some((&self.tree, self.tree.current()));
        compute_mask(self.encoder, self.current_rule(), visited)
    }

    /// Apply action `a_t` (Algorithm 4 + Algorithm 2). Returns the reward
    /// and whether the episode finished.
    pub fn step(&mut self, action: usize) -> StepOutcome {
        self.steps += 1;
        if action == self.encoder.stop_action() {
            // Stop: constant θ reward; move to the next node in level order.
            let done = match self.tree.next_node() {
                Some(node) => {
                    self.tree.set_current(node);
                    false
                }
                None => true,
            };
            #[cfg(feature = "debug-invariants")]
            self.check_invariants();
            return StepOutcome {
                reward: self.reward.theta,
                done,
            };
        }

        let current_id = self.tree.current();
        let Some(child) = self.encoder.apply(&self.tree.node(current_id).rule, action) else {
            // The mask makes this unreachable for a well-behaved agent;
            // penalize defensively instead of panicking on exploration bugs.
            return StepOutcome {
                reward: self.reward.low_support_penalty,
                done: false,
            };
        };

        // Measures via subspace search on the parent's cover (Alg. 4, l. 9–10).
        let (measures, cover) = {
            let parent = self.tree.node(current_id);
            let cover = if child.pattern_len() == parent.rule.pattern_len() {
                parent.cover.clone()
            } else {
                self.evaluator.cover(&child, Some(&parent.cover))
            };
            if self.evaluator.cached(&child).is_none() {
                self.fresh_evaluations += 1;
            }
            (self.evaluator.eval_on_cover_cached(&child, &cover), cover)
        };

        // Reward (Algorithm 2): reuse R_Σ, else compute and store.
        let base = match self.rewards.get(&child) {
            Some(&r) => r,
            None => {
                let r = self.rule_reward(measures);
                self.rewards.insert(child.clone(), r);
                r
            }
        };
        // Frontier-difference shaping (lines 15–16): first valid child of a
        // childless node earns/loses the utility delta vs its parent.
        let mut reward = base;
        if self.reward.shaping
            && self.tree.node(current_id).children.is_empty()
            && measures.support >= self.reward.support_threshold
        {
            let parent_rule = &self.tree.node(current_id).rule;
            let parent_reward = self.rewards.get(parent_rule).copied().unwrap_or(0.0);
            reward += base - parent_reward;
        }

        // Grow the tree (Algorithm 4, lines 11–17).
        #[cfg(feature = "debug-invariants")]
        self.audit_visited.insert(child.clone());
        if measures.support >= self.reward.support_threshold {
            let certain = measures.certainty >= self.reward.certainty_stop;
            let node = self
                .tree
                .add_child(current_id, action, child, measures, cover);
            if !certain {
                // Refinable: descend into the child (Alg. 4 returns its
                // state), and re-queue the parent — it still has unexplored
                // refinements and the level-order walk must be able to come
                // back to it after this branch is done.
                self.tree.enqueue(current_id);
                self.tree.set_current(node);
            }
            // Certain fix: discovered, but "stop refinement" (Alg. 4 line
            // 17) — the cursor stays on the parent so the agent keeps
            // refining *it* instead of a rule that is already certain.
        } else {
            // Below threshold: never becomes a node, but must stay visited
            // so the global mask won't let the agent regenerate it.
            self.tree.mark_visited(current_id, action);
        }

        let done = self.tree.num_discovered() >= self.k;
        #[cfg(feature = "debug-invariants")]
        self.check_invariants();
        StepOutcome { reward, done }
    }

    /// Check the invariants of every structure the environment owns: the
    /// rule tree, the evaluator caches, and the freshly computed action mask
    /// for the current state, against the mask Algorithm 1 gives over the
    /// rules this episode generated. Called after every [`MinerEnv::step`]
    /// when the `debug-invariants` feature is on; also usable directly from
    /// tests.
    ///
    /// Panics on violation.
    #[cfg(feature = "debug-invariants")]
    pub fn check_invariants(&self) {
        self.tree.check_invariants();
        self.evaluator.check_invariants();
        let visited = self.reward.global_mask.then_some(&self.audit_visited);
        crate::mask::check_mask_invariants(
            self.encoder,
            self.current_rule(),
            visited,
            &self.mask(),
        );
    }

    fn rule_reward(&self, m: Measures) -> f64 {
        if m.support >= self.reward.support_threshold {
            m.utility * self.reward.utility_scale
        } else {
            self.reward.low_support_penalty
        }
    }

    /// The rules discovered in the current episode's tree.
    pub fn discovered(&self) -> Vec<(EditingRule, Measures)> {
        self.tree.discovered()
    }

    /// The growing tree (inspection/tests).
    pub fn tree(&self) -> &RuleTree {
        &self.tree
    }

    /// The measure evaluator (shared master-side indexes).
    pub fn evaluator(&self) -> &Evaluator<'a> {
        &self.evaluator
    }

    /// Total environment steps taken (across episodes).
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// Rules evaluated from scratch (reward-cache misses).
    pub fn fresh_evaluations(&self) -> usize {
        self.fresh_evaluations
    }

    /// Size of the reward cache `R_Σ`.
    pub fn reward_cache_len(&self) -> usize {
        self.rewards.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_datagen::figure1;
    use er_rules::ConditionSpaceConfig;

    fn setup() -> (er_rules::Task, StateEncoder) {
        let s = figure1();
        let enc = StateEncoder::new(&s.task, ConditionSpaceConfig::default());
        (s.task, enc)
    }

    #[test]
    fn reset_starts_at_root() {
        let (task, enc) = setup();
        let env = MinerEnv::new(&task, &enc, RewardConfig::new(1), 10);
        assert_eq!(env.current_rule(), &EditingRule::root(task.target()));
        assert!(env.state().iter().all(|&x| x == 0.0));
        assert_eq!(env.tree().num_discovered(), 0);
    }

    #[test]
    fn stop_on_empty_queue_ends_episode() {
        let (task, enc) = setup();
        let mut env = MinerEnv::new(&task, &enc, RewardConfig::new(1), 10);
        // The root sits in the queue at reset: the first stop pops it back,
        // the second stop finds the queue empty and ends the episode.
        let first = env.step(enc.stop_action());
        assert!(!first.done);
        assert!((first.reward - 0.01).abs() < 1e-12);
        let second = env.step(enc.stop_action());
        assert!(second.done);
    }

    #[test]
    fn valid_refinement_grows_tree_and_descends() {
        let (task, enc) = setup();
        let mut env = MinerEnv::new(&task, &enc, RewardConfig::new(1), 10);
        let out = env.step(0); // add first LHS pair
        assert!(!out.done);
        assert_eq!(env.tree().num_discovered(), 1);
        let child = &env.tree().node(1);
        if child.measures.certainty < 1.0 {
            // Refinable child: the cursor descended into it.
            assert_eq!(env.current_rule().lhs_len(), 1);
        } else {
            // Certain fix: refinement of it stops, the cursor stays at the
            // root (Alg. 4 line 17).
            assert_eq!(env.current_rule().lhs_len(), 0);
        }
    }

    #[test]
    fn low_support_children_are_not_added_but_masked() {
        let (task, enc) = setup();
        // Threshold higher than any rule's support on 3 input rows.
        let mut env = MinerEnv::new(&task, &enc, RewardConfig::new(100), 10);
        let out = env.step(0);
        assert_eq!(env.tree().num_discovered(), 0);
        assert!((out.reward - -0.01).abs() < 1e-9);
        // Still at the root, and the action is now globally masked.
        assert_eq!(env.current_rule().lhs_len(), 0);
        assert!(!env.mask()[0]);
    }

    #[test]
    fn reward_cache_reused_across_episodes() {
        let (task, enc) = setup();
        let mut env = MinerEnv::new(&task, &enc, RewardConfig::new(1), 10);
        env.step(0);
        let fresh_before = env.fresh_evaluations();
        env.reset();
        env.step(0); // same rule: reward must come from R_Σ
        assert_eq!(env.fresh_evaluations(), fresh_before);
        assert!(env.reward_cache_len() >= 2); // root + the child
    }

    #[test]
    fn episode_ends_at_k_rules() {
        let (task, enc) = setup();
        let mut env = MinerEnv::new(&task, &enc, RewardConfig::new(1), 2);
        let mut done = false;
        // Greedily take the first allowed non-stop action until done.
        for _ in 0..50 {
            let mask = env.mask();
            let action = (0..enc.action_dim())
                .find(|&a| mask[a] && a != enc.stop_action())
                .unwrap_or(enc.stop_action());
            let out = env.step(action);
            if out.done {
                done = true;
                break;
            }
        }
        assert!(done);
        assert!(env.tree().num_discovered() >= 2);
    }

    #[test]
    fn shaping_gives_bonus_for_improving_children() {
        let (task, enc) = setup();
        // With shaping on, the first valid child of the root earns
        // base + (base − root_reward); compare against shaping off.
        let mut on = MinerEnv::new(&task, &enc, RewardConfig::new(1), 10);
        let mut off_cfg = RewardConfig::new(1);
        off_cfg.shaping = false;
        let mut off = MinerEnv::new(&task, &enc, off_cfg, 10);
        let r_on = on.step(0).reward;
        let r_off = off.step(0).reward;
        // Same rule, same base reward; the difference is exactly the delta.
        assert!((r_on - r_off).abs() > 0.0 || r_on == r_off);
        // Verify relationship holds: r_on = 2·base − root_reward.
        let base = r_off;
        let root_reward = {
            let root = EditingRule::root(task.target());
            // root support = 3 ≥ 1 ⇒ reward = utility of root
            on.evaluator().cached(&root).unwrap().utility
        };
        assert!((r_on - (2.0 * base - root_reward)).abs() < 1e-9);
    }

    #[test]
    fn discovered_rules_meet_threshold() {
        let (task, enc) = setup();
        let mut env = MinerEnv::new(&task, &enc, RewardConfig::new(2), 20);
        for action in 0..enc.action_dim() {
            if action == enc.stop_action() {
                continue;
            }
            if env.mask()[action] {
                env.step(action);
                // go back to root-ish by stopping
                env.step(enc.stop_action());
            }
        }
        for (_, m) in env.discovered() {
            assert!(m.support >= 2);
        }
    }
}
