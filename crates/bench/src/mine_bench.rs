//! `mine_bench` — RLMiner's train-and-mine time, end to end and per stage.
//!
//! Two workloads, each a seeded paper-length run (`--train-steps`, 5000 by
//! default) on the first Table III scenario of its dataset:
//!
//! * `covid` — the paper-size Covid scenario, the dataset of the paper's
//!   runtime claim;
//! * `adult` — the largest action space Table III mines at the default
//!   scale, where the global mask has the most actions to check per step.
//!
//! Each workload first runs `RlMiner::train` then `mine` (timed end to end),
//! then a staged replica of the training loop built from the public
//! environment and agent calls, with a clock around each call: state
//! encoding, the action mask, action selection, the environment step, and
//! the learn step. The agent's own [`LearnProfile`] splits the learn step
//! further (sample, forward, bootstrap, backward, optimize) and counts the
//! target rows it computed and reused. The replica must reproduce the
//! training statistics bit for bit, and the mined rules must hash the same
//! as the trajectory's last full entry for the same workload and step
//! count, before any time is reported: a speed-up that changed the rules
//! would not count.
//!
//! Besides `results/mine_bench.json`, a full (non-`--quick`) run appends one
//! entry per workload to the repo-root `BENCH_mine.json` trajectory file;
//! both modes then validate that the trajectory is well-formed.

use crate::trajectory::{append_trajectory, validate_trajectory};
use crate::ExperimentConfig;
use er_datagen::{DatasetKind, Scenario};
use er_rl::{DqnAgent, DqnConfig, LearnProfile, Transition};
use er_rlminer::{MinerEnv, RewardConfig, RlMiner, RlMinerConfig, StateEncoder, TrainStats};
use er_rules::rules_to_json;
use serde::Serialize;
use serde_json::Value as Json;
use std::time::{Duration, Instant};

/// Repo-root perf trajectory artifact; one entry per workload per full run.
const TRAJECTORY: &str = "BENCH_mine.json";

/// Scenario and agent seed: the first Table III repetition.
const SEED: u64 = 11;

/// One workload of one run (also one trajectory entry).
#[derive(Debug, Clone, Serialize)]
pub struct MineBench {
    /// `covid` or `adult`.
    pub workload: String,
    /// Input rows of the scenario.
    pub input_rows: usize,
    /// Master rows of the scenario.
    pub master_rows: usize,
    /// The agent's action-space width (`state_dim + 1`).
    pub action_dim: usize,
    /// Training steps.
    pub train_steps: usize,
    /// Worker threads for the miner (`0` = auto).
    pub threads: usize,
    /// `std::thread::available_parallelism` of the host that ran it.
    pub host_parallelism: usize,
    /// `RlMiner::train` wall-clock seconds.
    pub train_seconds: f64,
    /// `RlMiner::mine` wall-clock seconds (greedy inference and harvest
    /// re-evaluation): the `infer` stage.
    pub infer_seconds: f64,
    /// Replica: seconds encoding states.
    pub state_seconds: f64,
    /// Replica: seconds computing action masks.
    pub mask_seconds: f64,
    /// Replica: seconds selecting actions (ε-greedy forward pass).
    pub select_seconds: f64,
    /// Replica: seconds in environment steps (measures, reward, tree).
    pub step_seconds: f64,
    /// Replica: seconds in learn steps (replay sample, forward, backward,
    /// Adam).
    pub learn_seconds: f64,
    /// Replica, inside `learn`: seconds drawing batches.
    pub learn_sample_seconds: f64,
    /// Replica, inside `learn`: seconds in the online training forward.
    pub learn_forward_seconds: f64,
    /// Replica, inside `learn`: seconds building bootstrapped targets
    /// (target rows, the Double DQN online forward, the masked max).
    pub learn_bootstrap_seconds: f64,
    /// Replica, inside `learn`: seconds in the loss and backpropagation.
    pub learn_backward_seconds: f64,
    /// Replica, inside `learn`: seconds in Adam, priority updates and
    /// target syncs.
    pub learn_optimize_seconds: f64,
    /// Replica: target-network Q rows computed for sampled next states.
    pub bootstrap_rows_computed: u64,
    /// Replica: sampled next states served from the bootstrap cache.
    pub bootstrap_rows_reused: u64,
    /// Rules mined.
    pub rules: usize,
    /// FNV-1a hash of the mined rule document, as hex.
    pub rules_fnv: String,
    /// What was measured.
    pub note: String,
    /// Whether this was a `--quick` smoke run (quick runs do not enter the
    /// trajectory).
    pub quick: bool,
    /// Wall-clock seconds since the Unix epoch when the run finished.
    pub unix_seconds: u64,
}

/// Per-stage clocks of the staged replica.
#[derive(Default)]
struct Stages {
    state: Duration,
    mask: Duration,
    select: Duration,
    step: Duration,
    learn: Duration,
}

fn timed<T>(clock: &mut Duration, f: impl FnOnce() -> T) -> T {
    let started = Instant::now();
    let out = f();
    *clock += started.elapsed();
    out
}

/// The miner configuration `experiments table3` uses for this scenario.
fn config(s: &Scenario, cfg: &ExperimentConfig) -> RlMinerConfig {
    let mut c = RlMinerConfig::new(s.support_threshold);
    c.train_steps = cfg.train_steps;
    c.epsilon.2 = cfg.train_steps * 3 / 5;
    c.seed = SEED;
    c.threads = cfg.threads;
    c
}

/// Algorithm 3 rebuilt from the public environment and agent calls, as
/// `RlMiner::train` runs it, with a clock around each call.
fn staged_train(task: &er_rules::Task, c: &RlMinerConfig) -> (TrainStats, Stages, LearnProfile) {
    let encoder = StateEncoder::new(task, c.condition_space);
    let mut agent = DqnAgent::new(DqnConfig {
        state_dim: encoder.state_dim(),
        action_dim: encoder.action_dim(),
        hidden: c.hidden.clone(),
        lr: c.lr,
        gamma: c.gamma,
        epsilon_start: c.epsilon.0,
        epsilon_end: c.epsilon.1,
        epsilon_decay_steps: c.epsilon.2,
        batch_size: c.batch_size,
        replay_capacity: c.replay_capacity,
        target_sync_every: c.target_sync_every,
        learn_start: c.batch_size * 2,
        double_dqn: c.double_dqn,
        prioritized_replay: c.prioritized_replay,
        seed: c.seed,
    });
    let base = if c.normalize_rewards {
        RewardConfig::normalized(c.support_threshold, task.input().num_rows())
    } else {
        RewardConfig::new(c.support_threshold)
    };
    let reward = RewardConfig {
        theta: c.theta,
        low_support_penalty: c.low_support_penalty,
        shaping: c.shaping,
        global_mask: c.global_mask,
        certainty_stop: c.certainty_stop,
        ..base
    };
    let started = Instant::now();
    let mut env = MinerEnv::with_threads(task, &encoder, reward, c.k, c.threads);
    let mut t = Stages::default();
    let (mut n, mut episodes, mut reward_sum) = (0usize, 0usize, 0.0f64);
    let (mut loss_sum, mut loss_count) = (0.0f64, 0usize);
    'train: while n < c.train_steps {
        env.reset();
        let mut episode_steps = 0usize;
        let mut state = timed(&mut t.state, || env.state());
        let mut mask = timed(&mut t.mask, || env.mask());
        loop {
            let action = timed(&mut t.select, || agent.select_action(&state, &mask));
            let out = timed(&mut t.step, || env.step(action));
            reward_sum += out.reward;
            episode_steps += 1;
            let truncated = episode_steps >= c.max_episode_steps;
            let next = if out.done {
                None
            } else {
                let s = timed(&mut t.state, || env.state());
                let m = timed(&mut t.mask, || env.mask());
                Some((s, m))
            };
            agent.observe(Transition {
                state,
                action,
                reward: out.reward as f32,
                next: next.clone(),
            });
            if let Some(loss) = timed(&mut t.learn, || agent.learn()) {
                loss_sum += f64::from(loss);
                loss_count += 1;
            }
            n += 1;
            if out.done || truncated {
                episodes += 1;
                break;
            }
            if n >= c.train_steps {
                break 'train;
            }
            (state, mask) = next.unwrap_or_default();
        }
    }
    let stats = TrainStats {
        steps: n,
        episodes,
        elapsed: started.elapsed(),
        mean_loss: (loss_count > 0).then(|| loss_sum / loss_count as f64),
        reward_sum,
        fresh_evaluations: env.fresh_evaluations(),
    };
    (stats, t, agent.learn_profile())
}

/// FNV-1a over bytes: stable across Rust releases, unlike `DefaultHasher`.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The rule hash of the trajectory's last full entry for this workload and
/// step count, if any.
fn previous_rules_fnv(workload: &str, train_steps: usize) -> Option<String> {
    let text = std::fs::read_to_string(TRAJECTORY).ok()?;
    let doc = serde_json::from_str::<Json>(&text).ok()?;
    doc.get("entries")?
        .as_array()?
        .iter()
        .rev()
        .find(|e| {
            e.get("workload").and_then(Json::as_str) == Some(workload)
                && matches!(e.get("train_steps"), Some(Json::Int(n)) if *n == train_steps as i64)
                && matches!(e.get("quick"), Some(Json::Bool(false)))
        })?
        .get("rules_fnv")?
        .as_str()
        .map(str::to_string)
}

fn run_workload(cfg: &ExperimentConfig, workload: &str, kind: DatasetKind) -> MineBench {
    let s = cfg.scenario(kind, SEED);
    let task = &s.task;
    let c = config(&s, cfg);

    let mut miner = RlMiner::new(task, c.clone());
    let started = Instant::now();
    let stats = miner.train(task);
    let train_seconds = started.elapsed().as_secs_f64();
    let result = miner.mine(task);
    let infer_seconds = result.elapsed.as_secs_f64();
    let doc = rules_to_json(&result.rules, task);
    let rules_fnv = format!("{:016x}", fnv(doc.as_bytes()));

    let (replica, stages, learn) = staged_train(task, &c);
    assert!(
        replica.steps == stats.steps
            && replica.episodes == stats.episodes
            && replica.reward_sum.to_bits() == stats.reward_sum.to_bits()
            && replica.mean_loss.map(f64::to_bits) == stats.mean_loss.map(f64::to_bits)
            && replica.fresh_evaluations == stats.fresh_evaluations,
        "mine_bench: {workload}: the staged replica ({replica:?}) diverged from RlMiner::train ({stats:?})"
    );
    if !cfg.quick {
        if let Some(previous) = previous_rules_fnv(workload, c.train_steps) {
            assert_eq!(
                previous, rules_fnv,
                "mine_bench: {workload}: the mined rules differ from the last {TRAJECTORY} entry"
            );
        }
    }
    println!(
        "  {workload}: {} rules (fnv {rules_fnv}), replica reproduces RlMiner::train, rules identical to the trajectory",
        result.rules.len()
    );
    let encoder = miner.encoder();
    MineBench {
        workload: workload.to_string(),
        input_rows: task.input().num_rows(),
        master_rows: task.master().num_rows(),
        action_dim: encoder.action_dim(),
        train_steps: c.train_steps,
        threads: cfg.threads,
        host_parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
        train_seconds,
        infer_seconds,
        state_seconds: stages.state.as_secs_f64(),
        mask_seconds: stages.mask.as_secs_f64(),
        select_seconds: stages.select.as_secs_f64(),
        step_seconds: stages.step.as_secs_f64(),
        learn_seconds: stages.learn.as_secs_f64(),
        learn_sample_seconds: learn.sample.as_secs_f64(),
        learn_forward_seconds: learn.forward.as_secs_f64(),
        learn_bootstrap_seconds: learn.bootstrap.as_secs_f64(),
        learn_backward_seconds: learn.backward.as_secs_f64(),
        learn_optimize_seconds: learn.optimize.as_secs_f64(),
        bootstrap_rows_computed: learn.bootstrap_rows_computed,
        bootstrap_rows_reused: learn.bootstrap_rows_reused,
        rules: result.rules.len(),
        rules_fnv,
        note: "weights stored and trained as Wᵀ; target bootstrap rows cached per replay slot"
            .to_string(),
        quick: cfg.quick,
        unix_seconds: std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0),
    }
}

/// Benchmark RLMiner training and mining; see the module docs.
pub fn mine_bench(cfg: &ExperimentConfig) -> Vec<MineBench> {
    println!(
        "== mine_bench: RLMiner train ({} steps) and mine, per stage ==",
        cfg.train_steps
    );
    let mut results = Vec::new();
    for (workload, kind) in [("covid", DatasetKind::Covid), ("adult", DatasetKind::Adult)] {
        let r = run_workload(cfg, workload, kind);
        println!(
            "  {workload} ({} actions): train {:.3} s, infer {:.3} s | state {:.3} s, mask {:.3} s, select {:.3} s, step {:.3} s, learn {:.3} s (host parallelism {})",
            r.action_dim,
            r.train_seconds,
            r.infer_seconds,
            r.state_seconds,
            r.mask_seconds,
            r.select_seconds,
            r.step_seconds,
            r.learn_seconds,
            r.host_parallelism
        );
        println!(
            "    learn: sample {:.3} s, forward {:.3} s, bootstrap {:.3} s, backward {:.3} s, optimize {:.3} s | bootstrap rows {} computed, {} reused",
            r.learn_sample_seconds,
            r.learn_forward_seconds,
            r.learn_bootstrap_seconds,
            r.learn_backward_seconds,
            r.learn_optimize_seconds,
            r.bootstrap_rows_computed,
            r.bootstrap_rows_reused
        );
        results.push(r);
    }
    cfg.write_json("mine_bench", &results);
    if cfg.quick {
        println!("  [--quick: not appended to {TRAJECTORY}]");
    } else {
        for r in &results {
            append_trajectory(TRAJECTORY, "mine_bench", r);
        }
    }
    if std::path::Path::new(TRAJECTORY).exists() {
        match validate_trajectory(
            TRAJECTORY,
            &[
                "train_steps",
                "train_seconds",
                "infer_seconds",
                "mask_seconds",
                "learn_seconds",
            ],
        ) {
            Ok(entries) => println!("  [{TRAJECTORY}: {entries} trajectory entries, well-formed]"),
            Err(e) => panic!("mine_bench: {TRAJECTORY} is malformed: {e}"),
        }
    } else {
        println!("  [{TRAJECTORY}: no trajectory yet, well-formed output deferred to a full run]");
    }
    results
}
