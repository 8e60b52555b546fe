#![forbid(unsafe_code)]
//! # er-rlminer — RLMiner: editing rule discovery by deep reinforcement
//! learning (the paper's contribution, §III–§IV)
//!
//! RLMiner models rule discovery as a Markov Decision Process (Definition 5):
//! a state is an editing rule (a node of the growing rule tree), an action
//! refines the rule by adding an LHS attribute pair or a pattern condition —
//! or stops and moves to the next tree node — and the reward is shaped from
//! the rule utility measure. A masked DQN learns which refinements are worth
//! exploring, so the miner never enumerates the condition space the way
//! EnuMiner does.
//!
//! Module map (each implements one piece of §IV):
//!
//! * [`encoding`] — the one-hot state `s = [s_l; s_p]` and action space
//!   `a = [a_l; a_p; a_stop]` (Eqs. 6–12), including `N_split` continuous
//!   ranges and common-prefix domain reduction via
//!   [`er_rules::ConditionSpace`].
//! * [`mask`] — the rule mask (Algorithm 1): the local mask forbids
//!   re-constraining attributes already in `LHS(φ)`/`t_p`, the global mask
//!   forbids actions that would re-create an already-considered rule.
//! * [`tree`] — the rule tree (Figure 3) with level-order traversal and
//!   per-node input covers for subspace search (Algorithm 4, lines 9–10).
//! * [`env`] — the environment: `GrowTree` (Algorithm 4) and `CalReward`
//!   (Algorithm 2) with the reward cache `R_Σ` and the frontier-difference
//!   shaping of lines 15–16.
//! * [`miner`] — the training loop (Algorithm 3), greedy inference, and
//!   **RLMiner-ft** incremental fine-tuning (§V-D3).
//!
//! ```no_run
//! use er_rlminer::{RlMiner, RlMinerConfig};
//! # let scenario = er_datagen::figure1();
//! let mut miner = RlMiner::new(&scenario.task, RlMinerConfig::new(1));
//! miner.train(&scenario.task);
//! let result = miner.mine(&scenario.task);
//! for (rule, measures) in &result.rules {
//!     println!("{measures:?}");
//! }
//! ```

pub mod encoding;
pub mod env;
pub mod mask;
pub mod miner;
pub mod tree;

pub use encoding::{Refinement, StateEncoder};
pub use env::{MinerEnv, RewardConfig, StepOutcome};
#[cfg(feature = "debug-invariants")]
pub use mask::check_mask_invariants;
pub use mask::{compute_mask, reference_mask};
pub use miner::{MineResult, RlMiner, RlMinerConfig, TrainStats};
pub use tree::RuleTree;
