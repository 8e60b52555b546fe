#![forbid(unsafe_code)]
//! # er-rl — a minimal deep-RL substrate
//!
//! The Rust deep-RL ecosystem is thin, and RLMiner needs only a small, fully
//! deterministic slice of it: a feed-forward value network, an optimizer, a
//! replay buffer, and a DQN loop with *action masking*. This crate implements
//! that slice from scratch:
//!
//! * [`tensor::Mat`] — a dense row-major `f32` matrix with the handful of
//!   ops an MLP needs: a forward kernel and the two gradient kernels, all
//!   bit-exact against a dot-product reference.
//! * [`nn::Mlp`] — a multi-layer perceptron with ReLU hidden activations,
//!   manual backpropagation, and He initialization.
//! * [`optim::Adam`] — the Adam optimizer (Kingma & Ba) over the MLP's
//!   parameter tensors.
//! * [`replay::ReplayBuffer`] — a fixed-capacity ring buffer with uniform
//!   sampling.
//! * [`dqn::DqnAgent`] — DQN (Mnih et al. 2013) with a target network
//!   (its Q rows cached per replay slot between syncs), ε-greedy
//!   exploration, Huber loss, and mask-aware action selection and
//!   bootstrapping — the paper's masked value network (§IV-C) plugs its rule
//!   mask straight into [`dqn::DqnAgent::select_action`].
//!
//! Everything is seeded: two runs with the same seed take identical actions.

pub mod dqn;
pub mod nn;
pub mod optim;
pub mod per;
pub mod replay;
pub mod tensor;

pub use dqn::{DqnAgent, DqnConfig, LearnProfile, Transition};
pub use nn::Mlp;
pub use optim::Adam;
pub use per::PrioritizedReplay;
pub use replay::ReplayBuffer;
pub use tensor::Mat;
