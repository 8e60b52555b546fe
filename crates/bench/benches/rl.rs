//! Micro-benchmarks for the RL substrate and RLMiner's per-step machinery:
//! value-network forward/backward, DQN learn steps, state encoding, and
//! mask computation.

// Bench harness: a panic aborts the run loudly, which is what we want.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use er_datagen::{DatasetKind, ScenarioConfig};
use er_rl::{DqnAgent, DqnConfig, Mat, Mlp, Transition};
use er_rlminer::{compute_mask, MinerEnv, RewardConfig, StateEncoder};
use er_rules::{ConditionSpaceConfig, EditingRule};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn bench_mlp(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(4);
    let mut mlp = Mlp::new(&[256, 128, 128, 257], &mut rng);
    let x = Mat::from_vec(
        32,
        256,
        (0..32 * 256).map(|i| (i % 7) as f32 / 7.0).collect(),
    );
    c.bench_function("rl/mlp_forward_batch32", |b| {
        b.iter(|| black_box(mlp.forward(&x)))
    });
    c.bench_function("rl/mlp_forward_backward_batch32", |b| {
        b.iter(|| {
            let y = mlp.forward_train(&x);
            let grad = Mat::from_vec(32, 257, vec![0.01; 32 * 257]);
            mlp.backward(&grad);
            black_box(y.get(0, 0))
        })
    });
}

fn bench_dqn(c: &mut Criterion) {
    let mut cfg = DqnConfig::new(256, 257);
    cfg.seed = 5;
    let mut agent = DqnAgent::new(cfg);
    let mask = vec![true; 257];
    let state = vec![0.5f32; 256];
    for _ in 0..128 {
        agent.observe(Transition {
            state: state.clone(),
            action: 3,
            reward: 0.5,
            next: Some((state.clone(), mask.clone())),
        });
    }
    c.bench_function("rl/dqn_select_action", |b| {
        b.iter(|| black_box(agent.select_action(&state, &mask)))
    });
    c.bench_function("rl/dqn_learn_step_batch32", |b| {
        b.iter(|| black_box(agent.learn()))
    });
}

/// The traffic RLMiner feeds the agent on Covid: 210-wide states with 2–6
/// active one-hot dims, 211 actions, random masks, one terminal transition
/// in twelve. The dense states above never let a kernel skip a zero input.
fn bench_dqn_onehot(c: &mut Criterion) {
    let (state_dim, action_dim) = (210, 211);
    let mut rng = StdRng::seed_from_u64(7);
    let one_hot = |rng: &mut StdRng| {
        let mut s = vec![0.0f32; state_dim];
        for _ in 0..rng.gen_range(2..7usize) {
            s[rng.gen_range(0..state_dim)] = 1.0;
        }
        s
    };
    let mut cfg = DqnConfig::new(state_dim, action_dim);
    cfg.seed = 7;
    let mut agent = DqnAgent::new(cfg);
    for _ in 0..512 {
        let state = one_hot(&mut rng);
        let next = (rng.gen_range(0..12u8) != 0).then(|| {
            let mut mask: Vec<bool> = (0..action_dim)
                .map(|_| rng.gen_range(0..2u8) == 1)
                .collect();
            mask[action_dim - 1] = true;
            (one_hot(&mut rng), mask)
        });
        agent.observe(Transition {
            state,
            action: rng.gen_range(0..action_dim),
            reward: -0.01,
            next,
        });
    }
    c.bench_function("rl/dqn_learn_step_onehot_covid", |b| {
        b.iter(|| black_box(agent.learn()))
    });
}

fn bench_rlminer_step(c: &mut Criterion) {
    let s = DatasetKind::Covid.build(ScenarioConfig {
        input_size: 1000,
        master_size: 700,
        seed: 6,
        ..DatasetKind::Covid.paper_config()
    });
    let enc = StateEncoder::new(&s.task, ConditionSpaceConfig::default());
    c.bench_function("rlminer/state_encode", |b| {
        let rule = EditingRule::root(s.task.target());
        b.iter(|| black_box(enc.encode(&rule)))
    });
    c.bench_function("rlminer/mask_at_root", |b| {
        let env = MinerEnv::new(&s.task, &enc, RewardConfig::new(10), 50);
        let rule = EditingRule::root(s.task.target());
        b.iter(|| black_box(compute_mask(&enc, &rule, Some((env.tree(), 0)))))
    });
    c.bench_function("rlminer/env_episode_50_random_steps", |b| {
        b.iter(|| {
            let mut env = MinerEnv::new(&s.task, &enc, RewardConfig::normalized(10, 1000), 50);
            let mut taken = 0;
            'outer: for a in 0..enc.action_dim() {
                if a == enc.stop_action() {
                    continue;
                }
                let out = env.step(a);
                taken += 1;
                if out.done || taken >= 50 {
                    break 'outer;
                }
            }
            black_box(env.tree().num_discovered())
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_secs(1));
    targets = bench_mlp, bench_dqn, bench_dqn_onehot, bench_rlminer_step
}
criterion_main!(benches);
