//! RLMiner: the training loop (Algorithm 3), greedy inference, and
//! incremental fine-tuning (RLMiner-ft, §V-D3).

use crate::encoding::StateEncoder;
use crate::env::{MinerEnv, RewardConfig};
use er_rl::{DqnAgent, DqnConfig, Transition};
use er_rules::{select_top_k, ConditionSpaceConfig, EditingRule, Measures, Task};
use std::time::{Duration, Instant};

/// RLMiner configuration (defaults follow §V-A: `K = 50`, 5000 training
/// steps, θ = 0.01).
#[derive(Debug, Clone)]
pub struct RlMinerConfig {
    /// Support threshold `η_s`.
    pub support_threshold: usize,
    /// Number of rules to return.
    pub k: usize,
    /// Training steps (the paper trains for a fixed 5000 steps, after
    /// Liang et al.'s neural packet classification setup).
    pub train_steps: usize,
    /// Fine-tuning steps for RLMiner-ft (fewer than `train_steps`).
    pub finetune_steps: usize,
    /// Hard cap on inference steps (the paper observes ≈150 for `K = 50`).
    pub max_inference_steps: usize,
    /// Training-episode truncation: reset the tree after this many steps.
    /// Long wandering episodes starve the agent of root-state visits; the
    /// paper counts training in *steps* (5000), so truncation only changes
    /// how often the tree restarts.
    pub max_episode_steps: usize,
    /// Stop-action reward θ.
    pub theta: f64,
    /// Reward for below-threshold rules.
    pub low_support_penalty: f64,
    /// Frontier-difference reward shaping (Alg. 2 lines 15–16; ablation).
    pub shaping: bool,
    /// Global mask (Alg. 1 lines 12–17; ablation).
    pub global_mask: bool,
    /// Normalize utility rewards to O(1) for network stability (see
    /// [`crate::env::RewardConfig::utility_scale`]).
    pub normalize_rewards: bool,
    /// Certainty at or above this counts as a certain fix (no further
    /// refinement); see [`crate::env::RewardConfig::certainty_stop`].
    pub certainty_stop: f64,
    /// Condition-space construction (`N_split`, prefix reduction).
    pub condition_space: ConditionSpaceConfig,
    /// Value-network hidden widths.
    pub hidden: Vec<usize>,
    /// Adam learning rate.
    pub lr: f32,
    /// Discount factor.
    pub gamma: f32,
    /// Exploration schedule: start/end/decay-steps.
    pub epsilon: (f32, f32, usize),
    /// Replay batch size.
    pub batch_size: usize,
    /// Replay capacity.
    pub replay_capacity: usize,
    /// Learn steps between target-network syncs.
    pub target_sync_every: usize,
    /// Use Double DQN bootstrapping in the value network.
    pub double_dqn: bool,
    /// Use prioritized experience replay — helps against the sparse-reward
    /// structure of rule discovery.
    pub prioritized_replay: bool,
    /// RNG seed.
    pub seed: u64,
    /// Worker threads for cover scans and harvest re-evaluation (`0` =
    /// auto: `ER_THREADS` or sequential). Mining output is identical at any
    /// thread count.
    pub threads: usize,
}

impl RlMinerConfig {
    /// Paper defaults for a given support threshold.
    pub fn new(support_threshold: usize) -> Self {
        RlMinerConfig {
            support_threshold,
            k: 50,
            train_steps: 5000,
            finetune_steps: 1500,
            max_inference_steps: 400,
            max_episode_steps: 150,
            theta: 0.01,
            low_support_penalty: -0.01,
            shaping: true,
            global_mask: true,
            normalize_rewards: true,
            certainty_stop: 0.95,
            condition_space: ConditionSpaceConfig::default(),
            hidden: vec![128, 128],
            lr: 3e-3,
            gamma: 0.95,
            epsilon: (1.0, 0.08, 3000),
            batch_size: 32,
            replay_capacity: 10_000,
            target_sync_every: 100,
            double_dqn: false,
            prioritized_replay: false,
            seed: 7,
            threads: 0,
        }
    }

    fn reward_config(&self, input_rows: usize) -> RewardConfig {
        let base = if self.normalize_rewards {
            RewardConfig::normalized(self.support_threshold, input_rows)
        } else {
            RewardConfig::new(self.support_threshold)
        };
        RewardConfig {
            theta: self.theta,
            low_support_penalty: self.low_support_penalty,
            shaping: self.shaping,
            global_mask: self.global_mask,
            certainty_stop: self.certainty_stop,
            ..base
        }
    }
}

/// Statistics of a training (or fine-tuning) run.
#[derive(Debug, Clone)]
pub struct TrainStats {
    /// Environment steps taken.
    pub steps: usize,
    /// Episodes completed (tree builds from scratch).
    pub episodes: usize,
    /// Wall-clock time.
    pub elapsed: Duration,
    /// Mean TD loss over learn steps (`None` before the replay warm-up).
    pub mean_loss: Option<f64>,
    /// Sum of rewards collected.
    pub reward_sum: f64,
    /// Distinct rules measure-evaluated from scratch during this run —
    /// compare with EnuMiner's `evaluated` to see the enumeration avoided.
    pub fresh_evaluations: usize,
}

/// Result of an inference (mining) pass.
#[derive(Debug, Clone)]
pub struct MineResult {
    /// The non-redundant top-K rules with measures, best first.
    pub rules: Vec<(EditingRule, Measures)>,
    /// Inference steps used.
    pub steps: usize,
    /// Rules in the final tree before top-K selection.
    pub discovered: usize,
    /// Wall-clock time of the inference pass.
    pub elapsed: Duration,
}

impl MineResult {
    /// Just the rules, discarding measures.
    pub fn rules_only(&self) -> Vec<EditingRule> {
        self.rules.iter().map(|(r, _)| r.clone()).collect()
    }
}

/// The RL-based editing rule miner.
///
/// The encoder (and hence the value network's dimensions) is fixed at
/// construction; [`RlMiner::fine_tune`] can then adapt the same agent to an
/// enriched version of the data without retraining from scratch, as long as
/// the relations share the construction task's value pool.
pub struct RlMiner {
    encoder: StateEncoder,
    agent: DqnAgent,
    config: RlMinerConfig,
    /// Valid rules (S ≥ η_s, non-empty LHS) seen in any training episode's
    /// tree. The paper returns "the rules in leaf nodes" after training —
    /// the trees grown *while* training count, not only the final greedy
    /// inference tree.
    seen_rules: std::collections::HashMap<EditingRule, Measures>,
}

impl RlMiner {
    /// Build the miner: encoder from `task`, freshly-initialized agent.
    pub fn new(task: &Task, config: RlMinerConfig) -> Self {
        let encoder = StateEncoder::new(task, config.condition_space);
        let dqn = DqnConfig {
            state_dim: encoder.state_dim(),
            action_dim: encoder.action_dim(),
            hidden: config.hidden.clone(),
            lr: config.lr,
            gamma: config.gamma,
            epsilon_start: config.epsilon.0,
            epsilon_end: config.epsilon.1,
            epsilon_decay_steps: config.epsilon.2,
            batch_size: config.batch_size,
            replay_capacity: config.replay_capacity,
            target_sync_every: config.target_sync_every,
            learn_start: config.batch_size * 2,
            double_dqn: config.double_dqn,
            prioritized_replay: config.prioritized_replay,
            seed: config.seed,
        };
        RlMiner {
            encoder,
            agent: DqnAgent::new(dqn),
            config,
            seen_rules: Default::default(),
        }
    }

    /// The state encoder (dimension bookkeeping).
    pub fn encoder(&self) -> &StateEncoder {
        &self.encoder
    }

    /// The configuration.
    pub fn config(&self) -> &RlMinerConfig {
        &self.config
    }

    /// Update the support threshold `η_s` — used when fine-tuning on an
    /// enriched data version whose scaled threshold differs from the one
    /// the miner was created with.
    pub fn set_support_threshold(&mut self, eta: usize) {
        self.config.support_threshold = eta;
    }

    /// Train for `config.train_steps` environment steps (Algorithm 3).
    pub fn train(&mut self, task: &Task) -> TrainStats {
        self.train_for(task, self.config.train_steps)
    }

    /// Fine-tune the existing agent on (an enriched version of) the task for
    /// `config.finetune_steps` — RLMiner-ft. Exploration stays at its
    /// annealed level, so fine-tuning mostly exploits what was learned.
    pub fn fine_tune(&mut self, task: &Task) -> TrainStats {
        self.train_for(task, self.config.finetune_steps)
    }

    /// The training loop of Algorithm 3, for an explicit step budget.
    pub fn train_for(&mut self, task: &Task, steps: usize) -> TrainStats {
        let start = Instant::now();
        let mut env = MinerEnv::with_threads(
            task,
            &self.encoder,
            self.config.reward_config(task.input().num_rows()),
            self.config.k,
            self.config.threads,
        );
        let mut n = 0usize;
        let mut episodes = 0usize;
        let mut reward_sum = 0.0f64;
        let mut loss_sum = 0.0f64;
        let mut loss_count = 0usize;

        'train: while n < steps {
            env.reset();
            let mut episode_steps = 0usize;
            let (mut state, mut mask) = (env.state(), env.mask());
            loop {
                let action = self.agent.select_action(&state, &mask);
                let out = env.step(action);
                reward_sum += out.reward;
                episode_steps += 1;
                let truncated = episode_steps >= self.config.max_episode_steps;
                // Truncation is not termination: bootstrap from the next
                // state as usual so the value function stays unbiased.
                let next = (!out.done).then(|| (env.state(), env.mask()));
                self.agent.observe(Transition {
                    state,
                    action,
                    reward: out.reward as f32,
                    next: next.clone(),
                });
                if let Some(loss) = self.agent.learn() {
                    loss_sum += loss as f64;
                    loss_count += 1;
                }
                n += 1;
                if out.done || truncated {
                    episodes += 1;
                    break;
                }
                if n >= steps {
                    break 'train;
                }
                // Not done, so `next` holds the post-step state and mask:
                // the next step's input, computed once.
                (state, mask) = next.unwrap_or_default();
            }
            Self::harvest_into(&mut self.seen_rules, self.config.support_threshold, &env);
        }
        Self::harvest_into(&mut self.seen_rules, self.config.support_threshold, &env);
        TrainStats {
            steps: n,
            episodes,
            elapsed: start.elapsed(),
            mean_loss: (loss_count > 0).then(|| loss_sum / loss_count as f64),
            reward_sum,
            fresh_evaluations: env.fresh_evaluations(),
        }
    }

    /// Record the valid rules of the environment's current tree.
    /// (Associated fn with explicit field borrows: `env` holds a reference
    /// to `self.encoder` for its whole lifetime.)
    fn harvest_into(
        pool: &mut std::collections::HashMap<EditingRule, Measures>,
        eta: usize,
        env: &MinerEnv<'_>,
    ) {
        for (rule, m) in env.discovered() {
            if rule.lhs_len() >= 1 && m.support >= eta {
                pool.insert(rule, m);
            }
        }
    }

    /// Rules harvested from training episodes so far.
    pub fn seen_rules(&self) -> usize {
        self.seen_rules.len()
    }

    /// Greedy inference: build one rule tree with the learned policy and
    /// return the non-redundant top-K rules, merged with the rules
    /// harvested from the training trees (the paper's "rules in leaf
    /// nodes").
    pub fn mine(&self, task: &Task) -> MineResult {
        let start = Instant::now();
        let mut env = MinerEnv::with_threads(
            task,
            &self.encoder,
            self.config.reward_config(task.input().num_rows()),
            self.config.k,
            self.config.threads,
        );
        let mut steps = 0usize;
        while steps < self.config.max_inference_steps {
            let state = env.state();
            let mask = env.mask();
            let action = self.agent.greedy_action(&state, &mask);
            steps += 1;
            if env.step(action).done {
                break;
            }
        }
        // Pattern-only tree nodes (empty LHS) are exploration scaffolding,
        // not applicable editing rules — Definition 1 needs X to reference
        // the master data. Keep rules with at least one LHS pair, merged
        // with the training-tree harvest. Harvested measures may be stale
        // (fine-tuning mines a *newer* data version than the one a rule was
        // seen on), so pooled rules are re-evaluated against this task.
        let mut scored: std::collections::HashMap<EditingRule, Measures> =
            std::collections::HashMap::new();
        for (rule, m) in env.discovered() {
            if rule.lhs_len() >= 1 {
                scored.insert(rule, m);
            }
        }
        // Re-evaluate the training-tree harvest in parallel: each rule's
        // measures are independent, and `scored` is keyed by rule, so the
        // merged map is identical at any thread count.
        let pending: Vec<&EditingRule> = self
            .seen_rules
            .keys()
            .filter(|rule| !scored.contains_key(*rule))
            .collect();
        let evaluator = env.evaluator();
        let measures = evaluator
            .pool()
            .map(&pending, |rule| evaluator.eval(rule, None));
        for (rule, m) in pending.into_iter().zip(measures) {
            if m.support >= self.config.support_threshold {
                scored.insert(rule.clone(), m);
            }
        }
        let discovered: Vec<_> = scored.into_iter().collect();
        let num = discovered.len();
        let rules = select_top_k(discovered, self.config.k);
        MineResult {
            rules,
            steps,
            discovered: num,
            elapsed: start.elapsed(),
        }
    }

    /// Train then mine, returning both stats (the common call pattern).
    pub fn train_and_mine(&mut self, task: &Task) -> (TrainStats, MineResult) {
        let stats = self.train(task);
        let result = self.mine(task);
        (stats, result)
    }

    /// Serialize the trained value network to JSON. Pair with
    /// [`RlMiner::load_network`] to persist an agent between sessions (e.g.
    /// an overnight RLMiner-ft refresh pipeline).
    pub fn save_network(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        let json = serde_json::to_string(&self.agent.export_network())
            .map_err(|e| std::io::Error::other(e.to_string()))?;
        std::fs::write(path, json)
    }

    /// Load value-network weights saved by [`RlMiner::save_network`] into
    /// this miner (exploration continues from the current schedule).
    ///
    /// # Errors
    /// I/O or JSON errors; and the architectures must match (`hidden` and
    /// the task's encoding dimensions), which otherwise panics.
    pub fn load_network(&mut self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        let json = std::fs::read_to_string(path)?;
        let net: er_rl::Mlp =
            serde_json::from_str(&json).map_err(|e| std::io::Error::other(e.to_string()))?;
        self.agent.import_network(&net);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_datagen::{figure1, DatasetKind, ScenarioConfig};
    use er_rules::{apply_rules, dominates};

    fn quick_config(support_threshold: usize) -> RlMinerConfig {
        let mut c = RlMinerConfig::new(support_threshold);
        c.train_steps = 2000;
        c.finetune_steps = 400;
        c.epsilon = (1.0, 0.05, 1200);
        c.hidden = vec![64];
        c.k = 20;
        c
    }

    fn small(kind: DatasetKind) -> er_datagen::Scenario {
        kind.build(ScenarioConfig {
            input_size: 300,
            master_size: 150,
            seed: 11,
            ..kind.paper_config()
        })
    }

    #[test]
    fn trains_and_mines_on_figure1() {
        let s = figure1();
        let mut miner = RlMiner::new(&s.task, quick_config(1));
        let stats = miner.train(&s.task);
        assert_eq!(stats.steps, 2000);
        assert!(stats.episodes > 0);
        let result = miner.mine(&s.task);
        assert!(!result.rules.is_empty());
        assert!(result.steps <= miner.config.max_inference_steps);
    }

    #[test]
    fn discovered_rules_meet_support_threshold() {
        let s = small(DatasetKind::Covid);
        let mut miner = RlMiner::new(&s.task, quick_config(s.support_threshold));
        miner.train(&s.task);
        let result = miner.mine(&s.task);
        for (rule, m) in &result.rules {
            assert!(
                m.support >= s.support_threshold,
                "{rule:?} support {}",
                m.support
            );
        }
    }

    #[test]
    fn result_is_non_redundant() {
        let s = small(DatasetKind::Covid);
        let mut miner = RlMiner::new(&s.task, quick_config(s.support_threshold));
        miner.train(&s.task);
        let result = miner.mine(&s.task);
        for (i, (a, _)) in result.rules.iter().enumerate() {
            for (j, (b, _)) in result.rules.iter().enumerate() {
                if i != j {
                    assert!(!dominates(a, b));
                }
            }
        }
    }

    #[test]
    fn location_mining_repairs_well() {
        // Location needs a bit more data and training than the other quick
        // tests: at 300 rows the per-value pattern supports sit right at the
        // threshold and the reward signal is too noisy to learn reliably.
        let s = DatasetKind::Location.build(ScenarioConfig {
            input_size: 800,
            master_size: 500,
            seed: 11,
            ..DatasetKind::Location.paper_config()
        });
        let mut c = RlMinerConfig::new(s.support_threshold);
        c.train_steps = 4000;
        c.finetune_steps = 800;
        c.epsilon = (1.0, 0.05, 2500);
        c.hidden = vec![64];
        c.k = 20;
        let mut miner = RlMiner::new(&s.task, c);
        miner.train(&s.task);
        let result = miner.mine(&s.task);
        assert!(!result.rules.is_empty());
        let report = apply_rules(&s.task, &result.rules_only());
        let prf = s.evaluate(&report);
        assert!(prf.f1 > 0.5, "f1 {}", prf.f1);
    }

    #[test]
    fn mining_is_deterministic_after_training() {
        let s = small(DatasetKind::Covid);
        let mut miner = RlMiner::new(&s.task, quick_config(s.support_threshold));
        miner.train(&s.task);
        let a = miner.mine(&s.task);
        let b = miner.mine(&s.task);
        assert_eq!(a.rules_only(), b.rules_only());
    }

    #[test]
    fn fine_tune_uses_fewer_steps() {
        let s = small(DatasetKind::Covid);
        let mut miner = RlMiner::new(&s.task, quick_config(s.support_threshold));
        let t = miner.train(&s.task);
        let ft = miner.fine_tune(&s.task);
        assert!(ft.steps < t.steps);
        // Fine-tuning re-walks known rules: almost everything served from
        // the evaluator/reward caches of the *new* env is impossible to
        // check directly (fresh env), but it must still produce rules.
        let result = miner.mine(&s.task);
        assert!(!result.rules.is_empty());
    }

    #[test]
    fn rlminer_avoids_enumeration() {
        let s = small(DatasetKind::Adult);
        let mut miner = RlMiner::new(&s.task, quick_config(s.support_threshold));
        let stats = miner.train(&s.task);
        // EnuMiner evaluates tens of thousands of rules here; RLMiner's
        // fresh evaluations are bounded by its training steps.
        assert!(
            stats.fresh_evaluations <= stats.steps,
            "fresh {} vs steps {}",
            stats.fresh_evaluations,
            stats.steps
        );
    }

    #[test]
    fn mine_includes_training_harvest() {
        let s = small(DatasetKind::Covid);
        let mut miner = RlMiner::new(&s.task, quick_config(s.support_threshold));
        miner.train(&s.task);
        assert!(miner.seen_rules() > 0, "training should harvest rules");
        let result = miner.mine(&s.task);
        // No returned rule has an empty LHS.
        assert!(result.rules.iter().all(|(r, _)| r.lhs_len() >= 1));
        assert!(result.discovered > 0);
    }

    #[test]
    fn harvested_measures_are_refreshed_on_new_version() {
        // Train on a small prefix, mine on the full version: every reported
        // support must be consistent with the *full* version's data.
        let s = DatasetKind::Covid.build(ScenarioConfig {
            input_size: 600,
            master_size: 300,
            seed: 11,
            ..DatasetKind::Covid.paper_config()
        });
        let half = s.with_input_prefix(300);
        let mut miner = RlMiner::new(&half.task, quick_config(half.support_threshold));
        miner.train(&half.task);
        miner.set_support_threshold(s.support_threshold);
        let result = miner.mine(&s.task);
        let ev = er_rules::Evaluator::new(&s.task);
        for (rule, m) in &result.rules {
            let fresh = ev.eval(rule, None);
            assert_eq!(fresh.support, m.support, "stale support for {rule:?}");
        }
    }

    #[test]
    fn network_round_trips_through_disk() {
        let s = figure1();
        let mut a = RlMiner::new(&s.task, quick_config(1));
        a.train(&s.task);
        let dir = std::env::temp_dir().join("erminer_net_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("net.json");
        a.save_network(&path).unwrap();

        // Loaded agents restore the policy: two independent loads mine
        // identically (the training-tree harvest stays with `a`).
        let mut b = RlMiner::new(&s.task, quick_config(1));
        b.load_network(&path).unwrap();
        let mut c = RlMiner::new(&s.task, quick_config(1));
        c.load_network(&path).unwrap();
        assert_eq!(b.mine(&s.task).rules_only(), c.mine(&s.task).rules_only());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn seeded_training_is_reproducible() {
        let s = figure1();
        let run = || {
            let mut miner = RlMiner::new(&s.task, quick_config(1));
            miner.train(&s.task);
            miner.mine(&s.task).rules_only()
        };
        assert_eq!(run(), run());
    }
}
