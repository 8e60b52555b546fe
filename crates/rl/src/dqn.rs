//! Deep Q-Network with action masking.
//!
//! A faithful, small DQN (Mnih et al. 2013): ε-greedy behaviour policy,
//! uniform experience replay, a periodically-synced target network, and
//! Huber-loss TD updates. The distinguishing feature needed by RLMiner is
//! that *both* action selection and bootstrapping respect a boolean action
//! mask: the masked value network of §IV-C assigns `-∞` logits to forbidden
//! actions, which here is implemented by restricting the arg-max/max to the
//! allowed set.

use crate::nn::Mlp;
use crate::optim::Adam;
use crate::per::PrioritizedReplay;
use crate::replay::ReplayBuffer;
use crate::tensor::Mat;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// One environment transition.
#[derive(Debug, Clone)]
pub struct Transition {
    /// State the action was taken in.
    pub state: Vec<f32>,
    /// Index of the action taken.
    pub action: usize,
    /// Immediate reward.
    pub reward: f32,
    /// Next state and its action mask; `None` when the episode terminated.
    pub next: Option<(Vec<f32>, Vec<bool>)>,
}

/// DQN hyperparameters.
#[derive(Debug, Clone)]
pub struct DqnConfig {
    /// State vector length.
    pub state_dim: usize,
    /// Number of actions.
    pub action_dim: usize,
    /// Hidden layer widths.
    pub hidden: Vec<usize>,
    /// Adam learning rate.
    pub lr: f32,
    /// Discount factor γ.
    pub gamma: f32,
    /// Initial exploration rate.
    pub epsilon_start: f32,
    /// Final exploration rate.
    pub epsilon_end: f32,
    /// Environment steps over which ε anneals linearly.
    pub epsilon_decay_steps: usize,
    /// Batch size per learn step.
    pub batch_size: usize,
    /// Replay buffer capacity.
    pub replay_capacity: usize,
    /// Learn steps between target-network syncs.
    pub target_sync_every: usize,
    /// Minimum transitions in the replay buffer before learning starts.
    pub learn_start: usize,
    /// Use Double DQN bootstrapping (van Hasselt et al.): the online network
    /// picks the next action, the target network scores it — reduces the
    /// max-operator's overestimation bias.
    pub double_dqn: bool,
    /// Use proportional prioritized experience replay (Schaul et al.) —
    /// valuable for sparse-reward problems like rule discovery, where most
    /// transitions carry the small below-threshold penalty.
    pub prioritized_replay: bool,
    /// RNG seed.
    pub seed: u64,
}

impl DqnConfig {
    /// Reasonable defaults for small discrete problems.
    pub fn new(state_dim: usize, action_dim: usize) -> Self {
        DqnConfig {
            state_dim,
            action_dim,
            hidden: vec![128, 128],
            lr: 1e-3,
            gamma: 0.95,
            epsilon_start: 1.0,
            epsilon_end: 0.05,
            epsilon_decay_steps: 2000,
            batch_size: 32,
            replay_capacity: 10_000,
            target_sync_every: 100,
            learn_start: 64,
            double_dqn: false,
            prioritized_replay: false,
            seed: 0,
        }
    }
}

enum Replay {
    Uniform(ReplayBuffer<Transition>),
    Prioritized(PrioritizedReplay<Transition>),
}

impl Replay {
    fn len(&self) -> usize {
        match self {
            Replay::Uniform(r) => r.len(),
            Replay::Prioritized(r) => r.len(),
        }
    }

    fn push(&mut self, t: Transition) -> usize {
        match self {
            Replay::Uniform(r) => r.push(t),
            Replay::Prioritized(r) => r.push(t),
        }
    }

    fn get(&self, slot: usize) -> &Transition {
        match self {
            Replay::Uniform(r) => r.get(slot),
            Replay::Prioritized(r) => r.get(slot),
        }
    }
}

/// Cumulative time and work of [`DqnAgent::learn`], by stage.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LearnProfile {
    /// Drawing the batch (and its importance weights under PER).
    pub sample: Duration,
    /// The online network's training forward pass over the batch's states.
    pub forward: Duration,
    /// Bootstrapped targets: missing target-network rows, the online
    /// forward over next states under Double DQN, the masked max.
    pub bootstrap: Duration,
    /// Huber loss, output gradient and backpropagation.
    pub backward: Duration,
    /// The Adam step, PER priority updates and target syncs.
    pub optimize: Duration,
    /// Target-network Q rows computed for sampled next states.
    pub bootstrap_rows_computed: u64,
    /// Sampled next states whose target-network Q row was already cached.
    pub bootstrap_rows_reused: u64,
}

/// The target network's Q row of each replay slot's next state. A row is
/// computed the first time its slot is sampled after a target sync, and
/// dropped when the slot is overwritten or the target network changes, so
/// every fresh row equals a target forward of its slot's next state now.
#[derive(Debug, Default)]
struct BootstrapCache {
    /// Slot `s`'s row at `s * width`; grown with the replay occupancy.
    rows: Vec<f32>,
    /// Whether slot `s`'s row is current.
    fresh: Vec<bool>,
    width: usize,
}

impl BootstrapCache {
    fn new(width: usize) -> Self {
        BootstrapCache {
            width,
            ..Self::default()
        }
    }

    fn forget(&mut self, slot: usize) {
        if let Some(f) = self.fresh.get_mut(slot) {
            *f = false;
        }
    }

    fn clear(&mut self) {
        self.fresh.fill(false);
    }

    fn row(&self, slot: usize) -> &[f32] {
        &self.rows[slot * self.width..(slot + 1) * self.width]
    }

    /// Make every sampled non-terminal slot's row current, computing the
    /// missing ones in one target forward (rows are independent, so each
    /// equals its own 1×n pass). Returns the rows computed and reused.
    fn fill(&mut self, target: &Mlp, slots: &[usize], batch: &[&Transition]) -> (u64, u64) {
        let (mut missing, mut reused) = (Vec::new(), 0);
        for (&slot, t) in slots.iter().zip(batch) {
            if let Some((next_state, _)) = &t.next {
                if slot >= self.fresh.len() {
                    self.fresh.resize(slot + 1, false);
                    self.rows.resize((slot + 1) * self.width, 0.0);
                }
                if self.fresh[slot] {
                    reused += 1;
                } else {
                    self.fresh[slot] = true;
                    missing.push((slot, next_state.as_slice()));
                }
            }
        }
        if !missing.is_empty() {
            let states = stack_rows(target.in_dim(), missing.iter().map(|&(_, s)| s));
            let q = target.forward(&states);
            for (r, &(slot, _)) in missing.iter().enumerate() {
                self.rows[slot * self.width..(slot + 1) * self.width].copy_from_slice(q.row(r));
            }
        }
        (missing.len() as u64, reused)
    }
}

/// A DQN agent with masked action selection.
pub struct DqnAgent {
    config: DqnConfig,
    online: Mlp,
    target: Mlp,
    adam: Adam,
    replay: Replay,
    bootstrap: BootstrapCache,
    profile: LearnProfile,
    rng: StdRng,
    env_steps: usize,
    learn_steps: usize,
}

impl DqnAgent {
    /// Build an agent from `config`.
    pub fn new(config: DqnConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut dims = vec![config.state_dim];
        dims.extend_from_slice(&config.hidden);
        dims.push(config.action_dim);
        let online = Mlp::new(&dims, &mut rng);
        let mut target = Mlp::new(&dims, &mut rng);
        target.copy_params_from(&online);
        let adam = Adam::new(config.lr);
        let replay = if config.prioritized_replay {
            Replay::Prioritized(PrioritizedReplay::new(config.replay_capacity))
        } else {
            Replay::Uniform(ReplayBuffer::new(config.replay_capacity))
        };
        DqnAgent {
            bootstrap: BootstrapCache::new(config.action_dim),
            profile: LearnProfile::default(),
            config,
            online,
            target,
            adam,
            replay,
            rng,
            env_steps: 0,
            learn_steps: 0,
        }
    }

    /// Current exploration rate (linear anneal by environment steps).
    pub fn epsilon(&self) -> f32 {
        let c = &self.config;
        if self.env_steps >= c.epsilon_decay_steps {
            return c.epsilon_end;
        }
        let frac = self.env_steps as f32 / c.epsilon_decay_steps as f32;
        c.epsilon_start + (c.epsilon_end - c.epsilon_start) * frac
    }

    /// Online-network Q-values for a state.
    pub fn q_values(&self, state: &[f32]) -> Vec<f32> {
        self.online.forward(&Mat::row_vector(state)).data().to_vec()
    }

    /// ε-greedy action among the allowed (`mask[a] == true`) actions,
    /// advancing the exploration schedule.
    ///
    /// # Panics
    /// Panics if no action is allowed.
    pub fn select_action(&mut self, state: &[f32], mask: &[bool]) -> usize {
        self.env_steps += 1;
        let eps = self.epsilon();
        if self.rng.gen_range(0.0..1.0) < eps {
            let allowed: Vec<usize> = mask
                .iter()
                .enumerate()
                .filter(|(_, &m)| m)
                .map(|(i, _)| i)
                .collect();
            assert!(!allowed.is_empty(), "no allowed action");
            allowed[self.rng.gen_range(0..allowed.len())]
        } else {
            self.greedy_action(state, mask)
        }
    }

    /// Purely greedy masked action (inference policy).
    ///
    /// # Panics
    /// Panics if no action is allowed.
    pub fn greedy_action(&self, state: &[f32], mask: &[bool]) -> usize {
        let q = self.q_values(state);
        // Invariant: the environment's mask always leaves the stop action
        // allowed (Algorithm 1, line 1), so an argmax exists.
        #[allow(clippy::expect_used)]
        masked_argmax(&q, mask).expect("no allowed action")
    }

    /// Store a transition in the replay buffer.
    pub fn observe(&mut self, t: Transition) {
        debug_assert_eq!(t.state.len(), self.config.state_dim);
        let slot = self.replay.push(t);
        self.bootstrap.forget(slot);
    }

    /// One TD learning step (a minibatch). Returns the batch Huber loss, or
    /// `None` while the buffer is warming up.
    pub fn learn(&mut self) -> Option<f32> {
        if self.replay.len() < self.config.learn_start.max(self.config.batch_size) {
            return None;
        }
        let bs = self.config.batch_size;
        let started = Instant::now();
        // Sample the batch's slots (with importance weights under PER).
        let (slots, weights): (Vec<usize>, Vec<f32>) = match &mut self.replay {
            Replay::Uniform(r) => (r.sample(bs, &mut self.rng), vec![1.0; bs]),
            Replay::Prioritized(r) => {
                // Anneal β toward 1 over the ε-decay horizon.
                let frac = (self.learn_steps as f64
                    / self.config.epsilon_decay_steps.max(1) as f64)
                    .min(1.0);
                r.beta = 0.4 + 0.6 * frac;
                let picks = r.sample(bs, &mut self.rng);
                picks.into_iter().unzip()
            }
        };
        let replay = &self.replay;
        let batch: Vec<&Transition> = slots.iter().map(|&s| replay.get(s)).collect();
        let sampled = Instant::now();

        // Q(s, ·) for the batch.
        let states = stack_rows(
            self.config.state_dim,
            batch.iter().map(|t| t.state.as_slice()),
        );
        let q = self.online.forward_train(&states);
        let forwarded = Instant::now();

        // Bootstrapped targets, masked: the target network's cached rows and,
        // under Double DQN, one online forward over the non-terminal next
        // states.
        let (computed, reused) = self.bootstrap.fill(&self.target, &slots, &batch);
        self.profile.bootstrap_rows_computed += computed;
        self.profile.bootstrap_rows_reused += reused;
        let qo = self.config.double_dqn.then(|| {
            let next_states = stack_rows(
                self.config.state_dim,
                batch
                    .iter()
                    .filter_map(|t| t.next.as_ref().map(|(ns, _)| ns.as_slice())),
            );
            self.online.forward(&next_states)
        });
        let gamma = self.config.gamma;
        let mut row = 0;
        let mut targets = vec![0.0f32; bs];
        for (i, (t, &slot)) in batch.iter().zip(&slots).enumerate() {
            targets[i] = t.reward
                + match &t.next {
                    None => 0.0,
                    Some((_, mask)) => {
                        let qn = self.bootstrap.row(slot);
                        let bootstrap = match &qo {
                            // Online net selects, target net evaluates.
                            Some(qo) => masked_argmax(qo.row(row), mask)
                                .map(|a| qn[a])
                                .unwrap_or(0.0),
                            None => masked_max(qn, mask).unwrap_or(0.0),
                        };
                        row += 1;
                        gamma * bootstrap
                    }
                };
        }
        let bootstrapped = Instant::now();

        // Huber loss on the taken actions only (importance-weighted under
        // PER), and refreshed priorities from the new TD errors.
        let mut grad = Mat::zeros(bs, self.config.action_dim);
        let mut loss = 0.0f32;
        let mut td_errors = Vec::with_capacity(bs);
        for (i, t) in batch.iter().enumerate() {
            let diff = q.get(i, t.action) - targets[i];
            td_errors.push(diff);
            let w = weights[i];
            loss += w * if diff.abs() <= 1.0 {
                0.5 * diff * diff
            } else {
                diff.abs() - 0.5
            };
            grad.set(i, t.action, w * diff.clamp(-1.0, 1.0) / bs as f32);
        }
        self.online.backward(&grad);
        let backpropagated = Instant::now();

        self.adam.step(&mut self.online);
        if let Replay::Prioritized(r) = &mut self.replay {
            for (&idx, &err) in slots.iter().zip(&td_errors) {
                r.update_priority(idx, err as f64);
            }
        }
        self.learn_steps += 1;
        if self
            .learn_steps
            .is_multiple_of(self.config.target_sync_every)
        {
            self.target.copy_params_from(&self.online);
            self.bootstrap.clear();
        }
        let p = &mut self.profile;
        p.sample += sampled - started;
        p.forward += forwarded - sampled;
        p.bootstrap += bootstrapped - forwarded;
        p.backward += backpropagated - bootstrapped;
        p.optimize += backpropagated.elapsed();
        Some(loss / bs as f32)
    }

    /// Cumulative time and work of [`DqnAgent::learn`] by stage.
    pub fn learn_profile(&self) -> LearnProfile {
        self.profile
    }

    /// Environment steps taken (drives the ε schedule).
    pub fn env_steps(&self) -> usize {
        self.env_steps
    }

    /// Learn steps taken.
    pub fn learn_steps(&self) -> usize {
        self.learn_steps
    }

    /// Replay buffer occupancy.
    pub fn replay_len(&self) -> usize {
        self.replay.len()
    }

    /// Freeze exploration (sets ε to its final value immediately) — used
    /// when switching to the inference phase.
    pub fn freeze_exploration(&mut self) {
        self.env_steps = self.env_steps.max(self.config.epsilon_decay_steps);
    }

    /// The agent's configuration.
    pub fn config(&self) -> &DqnConfig {
        &self.config
    }

    /// A copy of the online value network (for persistence).
    pub fn export_network(&self) -> Mlp {
        self.online.clone()
    }

    /// Replace the online (and target) network parameters with `net`'s.
    ///
    /// # Panics
    /// Panics if the architectures differ.
    pub fn import_network(&mut self, net: &Mlp) {
        self.online.copy_params_from(net);
        self.target.copy_params_from(net);
        self.bootstrap.clear();
    }
}

/// `cols`-wide rows stacked into one matrix.
fn stack_rows<'a>(cols: usize, rows: impl Iterator<Item = &'a [f32]>) -> Mat {
    let data: Vec<f32> = rows.flatten().copied().collect();
    Mat::from_vec(data.len() / cols.max(1), cols, data)
}

/// Arg-max over allowed actions; `None` if none allowed.
pub fn masked_argmax(q: &[f32], mask: &[bool]) -> Option<usize> {
    debug_assert_eq!(q.len(), mask.len());
    let mut best: Option<(usize, f32)> = None;
    for (i, (&v, &m)) in q.iter().zip(mask).enumerate() {
        if m && best.is_none_or(|(_, bv)| v > bv) {
            best = Some((i, v));
        }
    }
    best.map(|(i, _)| i)
}

/// Max over allowed actions; `None` if none allowed.
pub fn masked_max(q: &[f32], mask: &[bool]) -> Option<f32> {
    masked_argmax(q, mask).map(|i| q[i])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// After every learn step, each cached target row equals a fresh target
    /// forward of its slot's next state, bit for bit, under uniform replay,
    /// Double DQN and PER, through ring wrap-arounds (a 20-slot buffer fed
    /// 300 transitions), target syncs every 7 learn steps, and an
    /// `import_network` mid-run.
    #[test]
    fn bootstrap_cache_matches_fresh_target_rows() {
        let one_hot = |rng: &mut StdRng| {
            let mut s = vec![0.0f32; 12];
            for _ in 0..rng.gen_range(1..4usize) {
                s[rng.gen_range(0..12)] = 1.0;
            }
            s
        };
        for (double_dqn, prioritized_replay) in [(false, false), (true, false), (false, true)] {
            let mut cfg = DqnConfig::new(12, 5);
            cfg.hidden = vec![16, 16];
            cfg.batch_size = 8;
            cfg.learn_start = 8;
            cfg.replay_capacity = 20;
            cfg.target_sync_every = 7;
            cfg.double_dqn = double_dqn;
            cfg.prioritized_replay = prioritized_replay;
            cfg.seed = 3;
            let mut agent = DqnAgent::new(cfg);
            let imported = DqnAgent::new(DqnConfig {
                seed: 4,
                ..agent.config().clone()
            })
            .export_network();
            let mut env = StdRng::seed_from_u64(11);
            let mut checked = 0;
            for step in 0..300 {
                let state = one_hot(&mut env);
                let mut mask: Vec<bool> = (0..5).map(|_| env.gen_range(0..2u8) == 1).collect();
                mask[4] = true;
                let action = agent.select_action(&state, &mask);
                let next = (env.gen_range(0..4u8) != 0).then(|| (one_hot(&mut env), mask));
                agent.observe(Transition {
                    state,
                    action,
                    reward: env.gen_range(-1.0f32..1.0),
                    next,
                });
                agent.learn();
                if step == 150 {
                    agent.import_network(&imported);
                }
                for slot in 0..agent.bootstrap.fresh.len() {
                    if !agent.bootstrap.fresh[slot] {
                        continue;
                    }
                    let (next_state, _) = agent.replay.get(slot).next.as_ref().unwrap();
                    let want = agent.target.forward(&Mat::row_vector(next_state));
                    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(
                        bits(agent.bootstrap.row(slot)),
                        bits(want.data()),
                        "slot {slot} stale at step {step} (double {double_dqn}, PER {prioritized_replay})"
                    );
                    checked += 1;
                }
            }
            let p = agent.learn_profile();
            assert!(agent.learn_steps() >= 5 * 7, "too few target syncs");
            assert!(checked > 1000, "only {checked} cached rows audited");
            assert!(p.bootstrap_rows_reused > 0 && p.bootstrap_rows_computed > 0);
        }
    }

    #[test]
    fn masked_argmax_respects_mask() {
        let q = [5.0, 9.0, 1.0];
        assert_eq!(masked_argmax(&q, &[true, true, true]), Some(1));
        assert_eq!(masked_argmax(&q, &[true, false, true]), Some(0));
        assert_eq!(masked_argmax(&q, &[false, false, true]), Some(2));
        assert_eq!(masked_argmax(&q, &[false, false, false]), None);
    }

    #[test]
    fn select_action_never_picks_masked() {
        let mut agent = DqnAgent::new(DqnConfig::new(2, 3));
        let mask = [false, true, false];
        for _ in 0..200 {
            assert_eq!(agent.select_action(&[0.0, 1.0], &mask), 1);
        }
    }

    #[test]
    fn epsilon_anneals_linearly() {
        let mut cfg = DqnConfig::new(1, 2);
        cfg.epsilon_decay_steps = 100;
        let mut agent = DqnAgent::new(cfg);
        let e0 = agent.epsilon();
        for _ in 0..50 {
            agent.select_action(&[0.0], &[true, true]);
        }
        let e50 = agent.epsilon();
        for _ in 0..100 {
            agent.select_action(&[0.0], &[true, true]);
        }
        let e_end = agent.epsilon();
        assert!(e0 > e50);
        assert!(e50 > e_end);
        assert!((e_end - 0.05).abs() < 1e-6);
    }

    /// A 5-state corridor: start at 0, action 1 moves right, action 0 moves
    /// left; reaching state 4 pays +1 and terminates. DQN must learn to
    /// always move right.
    #[test]
    fn learns_corridor_policy() {
        let n = 5usize;
        let encode = |s: usize| {
            let mut v = vec![0.0f32; n];
            v[s] = 1.0;
            v
        };
        let mut cfg = DqnConfig::new(n, 2);
        cfg.hidden = vec![32];
        cfg.epsilon_decay_steps = 1500;
        cfg.lr = 5e-3;
        cfg.seed = 42;
        cfg.target_sync_every = 50;
        let mut agent = DqnAgent::new(cfg);
        let mask = vec![true, true];
        for _ in 0..300 {
            let mut s = 0usize;
            for _ in 0..30 {
                let a = agent.select_action(&encode(s), &mask);
                let ns = if a == 1 { s + 1 } else { s.saturating_sub(1) };
                let done = ns == n - 1;
                let reward = if done { 1.0 } else { -0.01 };
                agent.observe(Transition {
                    state: encode(s),
                    action: a,
                    reward,
                    next: if done {
                        None
                    } else {
                        Some((encode(ns), mask.clone()))
                    },
                });
                agent.learn();
                if done {
                    break;
                }
                s = ns;
            }
        }
        agent.freeze_exploration();
        for s in 0..n - 1 {
            assert_eq!(
                agent.greedy_action(&encode(s), &mask),
                1,
                "state {s} should go right"
            );
        }
    }

    #[test]
    fn double_dqn_learns_corridor_too() {
        let n = 5usize;
        let encode = |s: usize| {
            let mut v = vec![0.0f32; n];
            v[s] = 1.0;
            v
        };
        let mut cfg = DqnConfig::new(n, 2);
        cfg.hidden = vec![32];
        cfg.epsilon_decay_steps = 1500;
        cfg.lr = 5e-3;
        cfg.seed = 42;
        cfg.target_sync_every = 50;
        cfg.double_dqn = true;
        let mut agent = DqnAgent::new(cfg);
        let mask = vec![true, true];
        for _ in 0..300 {
            let mut s = 0usize;
            for _ in 0..30 {
                let a = agent.select_action(&encode(s), &mask);
                let ns = if a == 1 { s + 1 } else { s.saturating_sub(1) };
                let done = ns == n - 1;
                let reward = if done { 1.0 } else { -0.01 };
                agent.observe(Transition {
                    state: encode(s),
                    action: a,
                    reward,
                    next: if done {
                        None
                    } else {
                        Some((encode(ns), mask.clone()))
                    },
                });
                agent.learn();
                if done {
                    break;
                }
                s = ns;
            }
        }
        agent.freeze_exploration();
        for s in 0..n - 1 {
            assert_eq!(
                agent.greedy_action(&encode(s), &mask),
                1,
                "state {s} should go right"
            );
        }
    }

    #[test]
    fn learn_waits_for_warmup() {
        let mut agent = DqnAgent::new(DqnConfig::new(2, 2));
        assert!(agent.learn().is_none());
        for _ in 0..100 {
            agent.observe(Transition {
                state: vec![0.0, 1.0],
                action: 0,
                reward: 1.0,
                next: None,
            });
        }
        assert!(agent.learn().is_some());
        assert_eq!(agent.learn_steps(), 1);
    }

    #[test]
    fn deterministic_runs_with_same_seed() {
        let run = || {
            let mut cfg = DqnConfig::new(3, 2);
            cfg.seed = 9;
            let mut agent = DqnAgent::new(cfg);
            let mask = vec![true, true];
            let mut actions = Vec::new();
            for i in 0..50 {
                let s = vec![i as f32 / 50.0, 0.0, 1.0];
                let a = agent.select_action(&s, &mask);
                actions.push(a);
                agent.observe(Transition {
                    state: s,
                    action: a,
                    reward: a as f32,
                    next: None,
                });
                agent.learn();
            }
            actions
        };
        assert_eq!(run(), run());
    }
}
