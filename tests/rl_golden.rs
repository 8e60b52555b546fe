//! Golden bits of the value-network hot path.
//!
//! The DQN kernels (`er_rl::tensor`, `nn`, `optim`, `dqn`) may be rewritten
//! for speed only if every float they produce keeps its exact bits. This
//! suite pins them: a seeded `DqnAgent` at Covid dimensions (210-wide
//! one-hot states with 2–6 active dims, 211 actions, hidden `[128, 128]`,
//! batch 32) runs 300 learn steps under uniform replay, Double DQN and
//! prioritized replay, and a seeded `RlMiner` trains and mines a small
//! Covid scenario. Each run is reduced to FNV-1a hashes of `to_bits()`
//! values: every loss, every action taken, the final online parameters, and
//! the mined rule document. The pinned values were taken before the kernels
//! were rewritten; a change that moves one bit anywhere fails here. A
//! paper-length 5000-step training, long enough for Adam moments to decay
//! into the subnormal range, is pinned the same way at the release profile.

// Test code: a panic is the failure report; fixture helpers sit outside
// any #[test] fn, so the clippy.toml test exemption does not reach them.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use erminer::prelude::*;
use erminer::rl::{DqnAgent, DqnConfig, Transition};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const STATE_DIM: usize = 210;
const ACTION_DIM: usize = 211;
const LEARN_STEPS: usize = 300;

/// FNV-1a over a stream of 32-bit words: stable across Rust releases and
/// platforms, unlike `DefaultHasher`.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn word(&mut self, w: u32) {
        self.bytes(&w.to_le_bytes());
    }
}

/// A Covid-shaped state: 2–6 of the 210 dims set to 1.0.
fn one_hot_state(rng: &mut StdRng) -> Vec<f32> {
    let mut s = vec![0.0f32; STATE_DIM];
    for _ in 0..rng.gen_range(2..7usize) {
        s[rng.gen_range(0..STATE_DIM)] = 1.0;
    }
    s
}

/// A random action mask; the last action (the miner's stop action) is
/// always allowed, as in `compute_mask`.
fn mask(rng: &mut StdRng) -> Vec<bool> {
    let mut m: Vec<bool> = (0..ACTION_DIM)
        .map(|_| rng.gen_range(0..2u8) == 1)
        .collect();
    m[ACTION_DIM - 1] = true;
    m
}

/// Hashes of one seeded agent run: (losses, actions, final parameters).
fn drive(double_dqn: bool, prioritized_replay: bool) -> (u64, u64, u64) {
    let mut cfg = DqnConfig::new(STATE_DIM, ACTION_DIM);
    cfg.hidden = vec![128, 128];
    cfg.batch_size = 32;
    cfg.lr = 3e-3;
    cfg.epsilon_decay_steps = 200;
    cfg.double_dqn = double_dqn;
    cfg.prioritized_replay = prioritized_replay;
    cfg.seed = 15;
    let mut agent = DqnAgent::new(cfg);
    let mut env = StdRng::seed_from_u64(0x5eed);
    let (mut losses, mut actions) = (Fnv::new(), Fnv::new());
    let mut state = one_hot_state(&mut env);
    let mut allowed = mask(&mut env);
    while agent.learn_steps() < LEARN_STEPS {
        let action = agent.select_action(&state, &allowed);
        actions.word(action as u32);
        let reward = if env.gen_range(0..10u8) == 0 {
            env.gen_range(0.0f32..1.0)
        } else {
            -0.01
        };
        let next = if env.gen_range(0..12u8) == 0 {
            None
        } else {
            Some((one_hot_state(&mut env), mask(&mut env)))
        };
        let (next_state, next_mask) = next
            .clone()
            .unwrap_or_else(|| (one_hot_state(&mut env), mask(&mut env)));
        agent.observe(Transition {
            state,
            action,
            reward,
            next,
        });
        if let Some(loss) = agent.learn() {
            losses.word(loss.to_bits());
        }
        state = next_state;
        allowed = next_mask;
    }
    let mut params = Fnv::new();
    agent.export_network().visit_params(|_, p, _| {
        for v in p.iter() {
            params.word(v.to_bits());
        }
    });
    (losses.0, actions.0, params.0)
}

#[test]
fn dqn_uniform_replay_bits() {
    assert_eq!(
        drive(false, false),
        (
            0xf44a_6b42_78bb_60ea,
            0xb22c_4d8f_db34_c5bd,
            0x448e_72f9_40e5_d730
        ),
        "uniform replay: (loss, action, parameter) hashes moved"
    );
}

#[test]
fn dqn_double_dqn_bits() {
    assert_eq!(
        drive(true, false),
        (
            0xd725_e9ba_59a0_05d8,
            0xb03b_39ca_bb63_3011,
            0x5a69_66f9_0458_8f61
        ),
        "Double DQN: (loss, action, parameter) hashes moved"
    );
}

#[test]
fn dqn_prioritized_replay_bits() {
    assert_eq!(
        drive(false, true),
        (
            0x03ab_d579_6fa7_dd6a,
            0xd342_cc70_8ad9_470d,
            0x2fdc_2242_69da_f26e
        ),
        "prioritized replay: (loss, action, parameter) hashes moved"
    );
}

#[test]
fn rlminer_train_and_mine_bits() {
    let s = DatasetKind::Covid.build(ScenarioConfig {
        input_size: 400,
        master_size: 250,
        seed: 15,
        ..DatasetKind::Covid.paper_config()
    });
    let mut config = RlMinerConfig::new(s.support_threshold);
    config.train_steps = 300;
    config.epsilon = (1.0, 0.08, 180);
    let mut miner = RlMiner::new(&s.task, config);
    let (stats, result) = miner.train_and_mine(&s.task);
    let doc = rules_to_json(&result.rules, &s.task);
    let mut rules = Fnv::new();
    rules.bytes(doc.as_bytes());
    assert_eq!(
        (
            stats.steps,
            stats.reward_sum.to_bits(),
            stats.mean_loss.map(f64::to_bits),
            result.rules.len(),
            rules.0,
        ),
        // reward_sum -2.127984571966254, mean_loss 0.007506914253168315.
        (
            300,
            0xc001_061c_c677_e6a5,
            Some(0x3f7e_bf91_f361_3717),
            4,
            0xc186_6999_db64_563e,
        ),
        "RlMiner: (steps, reward_sum, mean_loss, rules, rule document) moved"
    );
}

/// Algorithm 3 at the paper's length, rebuilt from the public environment
/// and agent calls so every loss is visible: a seeded 5000-step training on
/// a small Covid scenario with the paper's exploration schedule. Returns
/// hashes of (every loss, every action, the final online parameters) and the
/// number of learn steps.
fn train_5000(s: &Scenario) -> (u64, u64, u64, usize) {
    use erminer::rlminer::{MinerEnv, RewardConfig, StateEncoder};
    let config = RlMinerConfig::new(s.support_threshold);
    let encoder = StateEncoder::new(&s.task, config.condition_space);
    let mut dqn = DqnConfig::new(encoder.state_dim(), encoder.action_dim());
    dqn.hidden = config.hidden.clone();
    dqn.lr = config.lr;
    dqn.gamma = config.gamma;
    (dqn.epsilon_start, dqn.epsilon_end, dqn.epsilon_decay_steps) = config.epsilon;
    dqn.batch_size = config.batch_size;
    dqn.replay_capacity = config.replay_capacity;
    dqn.target_sync_every = config.target_sync_every;
    dqn.learn_start = config.batch_size * 2;
    dqn.seed = config.seed;
    let mut agent = DqnAgent::new(dqn);
    let reward = RewardConfig {
        theta: config.theta,
        low_support_penalty: config.low_support_penalty,
        ..RewardConfig::normalized(config.support_threshold, s.task.input().num_rows())
    };
    let mut env = MinerEnv::with_threads(&s.task, &encoder, reward, config.k, 1);
    let (mut losses, mut actions, mut learned) = (Fnv::new(), Fnv::new(), 0usize);
    let mut n = 0usize;
    while n < config.train_steps {
        env.reset();
        let mut episode_steps = 0usize;
        loop {
            let state = env.state();
            let action = agent.select_action(&state, &env.mask());
            actions.word(action as u32);
            let out = env.step(action);
            episode_steps += 1;
            let next = (!out.done).then(|| (env.state(), env.mask()));
            agent.observe(Transition {
                state,
                action,
                reward: out.reward as f32,
                next,
            });
            if let Some(loss) = agent.learn() {
                losses.word(loss.to_bits());
                learned += 1;
            }
            n += 1;
            if out.done || episode_steps >= config.max_episode_steps || n >= config.train_steps {
                break;
            }
        }
    }
    let mut params = Fnv::new();
    agent.export_network().visit_params(|_, p, _| {
        for v in p.iter() {
            params.word(v.to_bits());
        }
    });
    (losses.0, actions.0, params.0, learned)
}

/// The paper-length run: by step 3000 tens of thousands of Adam moments of
/// parameters that stopped receiving gradient have decayed into the
/// subnormal range. Release profile only (`cargo test --release --test
/// rl_golden`): at the debug profile the run takes minutes.
#[test]
#[cfg_attr(debug_assertions, ignore = "release-profile golden")]
fn rlminer_5000_step_training_bits() {
    let s = DatasetKind::Covid.build(ScenarioConfig {
        input_size: 400,
        master_size: 250,
        seed: 15,
        ..DatasetKind::Covid.paper_config()
    });
    assert_eq!(
        train_5000(&s),
        (
            0xd448_7085_a9d8_146f,
            0x430c_d348_e288_bed9,
            0x11c6_7e92_e559_00c3,
            4937
        ),
        "5000-step training: (loss, action, parameter) hashes moved"
    );
}
