//! The saved-network format.
//!
//! `RlMiner::save_network` writes `serde_json::to_string` of the exported
//! online network, and `load_network` reads it back. A layer's weights are
//! `out × in` in that document whatever layout `Linear` keeps them in
//! memory, and a square hidden layer (128 × 128 in RLMiner) would pass
//! every shape check if loaded transposed. This suite pins the document of
//! a small seeded agent after a few learn steps, byte for byte, and the
//! forward outputs of the network loaded from it, bit for bit.

// Test code: a panic is the failure report; fixture helpers sit outside
// any #[test] fn, so the clippy.toml test exemption does not reach them.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use er_rl::{DqnAgent, DqnConfig, Mat, Mlp, Transition};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const STATE_DIM: usize = 9;
const ACTION_DIM: usize = 5;

/// FNV-1a over bytes: stable across Rust releases, unlike `DefaultHasher`.
fn fnv(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn one_hot(rng: &mut StdRng) -> Vec<f32> {
    let mut s = vec![0.0f32; STATE_DIM];
    for _ in 0..rng.gen_range(1..4usize) {
        s[rng.gen_range(0..STATE_DIM)] = 1.0;
    }
    s
}

/// A seeded agent with two square 8 × 8 hidden layers, after 12 learn
/// steps of batch 4 (its gradients are those of the last step).
fn trained_agent() -> DqnAgent {
    let mut cfg = DqnConfig::new(STATE_DIM, ACTION_DIM);
    cfg.hidden = vec![8, 8];
    cfg.batch_size = 4;
    cfg.learn_start = 4;
    cfg.lr = 1e-2;
    cfg.seed = 25;
    let mut agent = DqnAgent::new(cfg);
    let mut env = StdRng::seed_from_u64(0xf0f0);
    while agent.learn_steps() < 12 {
        let state = one_hot(&mut env);
        let action = agent.select_action(&state, &[true; ACTION_DIM]);
        let next =
            (env.gen_range(0..4u8) != 0).then(|| (one_hot(&mut env), vec![true; ACTION_DIM]));
        agent.observe(Transition {
            state,
            action,
            reward: env.gen_range(-1.0f32..1.0),
            next,
        });
        agent.learn();
    }
    agent
}

/// Six probe inputs, every fourth entry drawn from `[-1, 1)` and the rest
/// `+0.0`.
fn probes() -> Mat {
    let mut rng = StdRng::seed_from_u64(7);
    let data = (0..6 * STATE_DIM)
        .map(|i| {
            if i % 4 == 0 {
                rng.gen_range(-1.0f32..1.0)
            } else {
                0.0
            }
        })
        .collect();
    Mat::from_vec(6, STATE_DIM, data)
}

fn output_bits(net: &Mlp) -> u64 {
    fnv(net
        .forward(&probes())
        .data()
        .iter()
        .flat_map(|v| v.to_bits().to_le_bytes()))
}

#[test]
fn saved_network_document_is_pinned() {
    let json = serde_json::to_string(&trained_agent().export_network()).unwrap();
    assert_eq!(
        (json.len(), fnv(json.bytes())),
        (6659, 0x284b_fef8_9d77_5684),
        "the saved-network JSON moved"
    );
}

#[test]
fn loaded_network_reproduces_forward_bits() {
    let agent = trained_agent();
    let saved = agent.export_network();
    let json = serde_json::to_string(&saved).unwrap();
    let loaded: Mlp = serde_json::from_str(&json).unwrap();
    assert_eq!(output_bits(&loaded), output_bits(&saved));
    assert_eq!(
        output_bits(&loaded),
        0xbf48_6d21_508d_0af2,
        "forward outputs of the loaded network moved"
    );
    assert_eq!(serde_json::to_string(&loaded).unwrap(), json);

    let mut fresh = DqnAgent::new(agent.config().clone());
    fresh.import_network(&loaded);
    let state = one_hot(&mut StdRng::seed_from_u64(3));
    let bits = |a: &DqnAgent| {
        a.q_values(&state)
            .iter()
            .map(|v| v.to_bits())
            .collect::<Vec<_>>()
    };
    assert_eq!(bits(&fresh), bits(&agent));
}
