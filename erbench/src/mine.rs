//! `mine`: a seeded RLMiner `train` followed by a greedy `mine` on the
//! paper-size Covid scenario, repeated with fresh miners. One operation is
//! one train-and-mine run; every run must mine byte-identical rules.

use crate::calib::{self, Timings};
use crate::common::{self, Counts};
use crate::metrics::Outcome;
use crate::stats;
use crate::trace::Tracer;
use er_datagen::Scenario;
use er_rl::{DqnAgent, DqnConfig, Transition};
use er_rlminer::{MinerEnv, RewardConfig, RlMiner, RlMinerConfig, StateEncoder, TrainStats};
use er_rules::{rules_to_json, Task};
use serde_json::Value as Json;
use std::time::{Duration, Instant};

/// Training steps per operation: one full training episode
/// (`max_episode_steps`). The paper trains for 5000 steps; a run here
/// repeats this shorter run over many scenarios instead, so its median
/// samples the seed-to-seed spread of the work rather than one draw of it.
pub const TRAIN_STEPS: usize = 150;

/// A train-and-mine run whose calibrated time exceeds this misses the
/// latency limit: twice the median wall-clock run in the slowest phase of
/// the 2-vCPU reference host seen (0.5 s; 0.35 s in its fastest), about
/// three times the calibrated median (0.3 s). Before the calibration, a
/// limit of 0.5 s read 0.51 to 0.99 over five seeds, a measure of the host,
/// not of the code.
pub const LIMIT_US: f64 = 1_000_000.0;

/// Fewest scenarios per run; a run mines three scenarios per second of its
/// budget beyond that. The count does not depend on how fast they go, so
/// every build does the same work for a seed.
const MIN_SCENARIOS: u64 = 20;

/// Reference scenarios: the first scenarios of [`common::RULES_SEED`]. Every
/// run mines them first, twice each, whatever its seed; their rules make up
/// the committed serving rule set and their F1 is the run's `f1`. The
/// serving layer's start-up analysis grows with the square of the rule
/// count, so the set stays near a dozen rules.
const RULE_SCENARIOS: u64 = 3;

/// Traced trainings in the traced run, each paired with an untraced one.
const TRACE_ROUNDS: usize = 3;

/// `RlMiner::new` calls in the traced run.
const SETUP_REPS: usize = 15;

/// The paper's RLMiner configuration, with the exploration schedule scaled
/// to [`TRAIN_STEPS`] (3000 of 5000 steps in the paper).
pub fn config(scenario: &Scenario) -> RlMinerConfig {
    let mut c = RlMinerConfig::new(scenario.support_threshold);
    c.train_steps = TRAIN_STEPS;
    c.epsilon = (c.epsilon.0, c.epsilon.1, TRAIN_STEPS * 3 / 5);
    c.threads = common::nproc();
    c
}

/// The `j`-th paper-size Covid scenario of run seed `seed`.
fn scenario(seed: u64, j: u64) -> Scenario {
    let paper = er_datagen::DatasetKind::Covid.paper_config();
    let data_seed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(j);
    common::covid(data_seed, paper.input_size, paper.master_size)
}

/// One operation: build a fresh miner, train it, then mine greedily.
struct Op {
    stats: TrainStats,
    /// The mined rules as a portable document.
    doc: String,
    /// `RlMiner::new`: the set-up.
    setup: Duration,
    /// `train` alone.
    train: Duration,
    /// `train` then `mine`: the mining time.
    total: Duration,
}

fn train_and_mine(task: &Task, config: &RlMinerConfig) -> Op {
    let built = Instant::now();
    let mut miner = RlMiner::new(task, config.clone());
    let setup = built.elapsed();
    let started = Instant::now();
    let stats = miner.train(task);
    let train = started.elapsed();
    let result = miner.mine(task);
    let total = started.elapsed();
    Op {
        stats,
        doc: rules_to_json(&result.rules, task),
        setup,
        train,
        total,
    }
}

/// Rules mined from several scenarios, as one portable document: every
/// distinct rule (LHS, target and pattern) once, first occurrence first.
fn union_rules(docs: &[String]) -> Result<String, String> {
    let mut seen = std::collections::HashSet::new();
    let mut union = Vec::new();
    for doc in docs {
        let rules: Json = serde_json::from_str(doc).map_err(|e| format!("rules: {e}"))?;
        for rule in rules.as_array().unwrap_or(&[]) {
            let shape = Json::Array(
                ["lhs", "target", "pattern"]
                    .iter()
                    .map(|k| rule.get(k).cloned().unwrap_or(Json::Null))
                    .collect(),
            );
            let key = serde_json::to_string(&shape).map_err(|e| e.to_string())?;
            if seen.insert(key) {
                union.push(rule.clone());
            }
        }
    }
    serde_json::to_string_pretty(&Json::Array(union)).map_err(|e| e.to_string())
}

/// The rule set the `mine` workload mines at run seed `seed`: the union
/// over its first [`RULE_SCENARIOS`] scenarios.
pub fn emit_rules(seed: u64) -> Result<String, String> {
    let docs: Vec<String> = (0..RULE_SCENARIOS)
        .map(|j| {
            let s = scenario(seed, j);
            train_and_mine(&s.task, &config(&s)).doc
        })
        .collect();
    union_rules(&docs)
}

fn same_stats(a: &TrainStats, b: &TrainStats) -> bool {
    a.steps == b.steps
        && a.episodes == b.episodes
        && a.reward_sum.to_bits() == b.reward_sum.to_bits()
        && a.fresh_evaluations == b.fresh_evaluations
}

/// Weighted F1 of the repairs the mined rule document makes on its
/// scenario.
fn rules_f1(s: &Scenario, doc: &str) -> Result<f64, String> {
    let rules = er_rules::rules_from_json(doc, &s.task).map_err(|e| e.to_string())?;
    common::repair_f1(s, &rules)
}

pub fn run(seed: u64, seconds: u64, tracer: Option<&mut Tracer>) -> Result<Outcome, String> {
    let first = scenario(seed, 0);
    let config = config(&first);
    println!(
        "mine: covid, {} input rows, {} master rows, eta {}, {TRAIN_STEPS} train steps, {} threads",
        first.task.input().num_rows(),
        first.task.master().num_rows(),
        first.support_threshold,
        config.threads
    );
    common::release_freed_memory();
    common::reset_peak_rss();

    if let Some(tracer) = tracer {
        return traced(&first, &config, tracer);
    }

    // Every scenario is mined by a fresh miner; the reference scenarios
    // first and twice, and the repetition must agree byte for byte. Each
    // miner's construction is a set-up sample, so set-up is sampled across
    // the whole run. A calibration pass precedes each operation, and its
    // times are reported scaled by it (see `calib`). `f1` is the mean over
    // the reference scenarios, which do not depend on the seed: over the
    // seeded ones it spread by 6% from seed to seed, too much for a bound
    // that catches a loss of quality.
    let mut out = Outcome::default();
    let mut counts = Counts::default();
    let mut setup = Timings::default();
    let mut times = Timings::default();
    let mut f1s = Vec::new();
    let mut docs = Vec::new();
    for j in 0..MIN_SCENARIOS.max(3 * seconds) {
        let s = if j < RULE_SCENARIOS {
            scenario(common::RULES_SEED, j)
        } else {
            scenario(seed, j)
        };
        let config = self::config(&s);
        let mut ops = vec![(calib::factor(), train_and_mine(&s.task, &config))];
        if j < RULE_SCENARIOS {
            ops.push((calib::factor(), train_and_mine(&s.task, &config)));
            if !same_stats(&ops[0].1.stats, &ops[1].1.stats) || ops[0].1.doc != ops[1].1.doc {
                counts.attempted += 2;
                counts.error += 2;
                println!("mine: MISMATCH: scenario {j} mined differently on repetition");
                break;
            }
            docs.push(ops[0].1.doc.clone());
        }
        f1s.push(rules_f1(&s, &ops[0].1.doc)?);
        for (factor, op) in ops {
            counts.attempted += 1;
            counts.ok += 1;
            setup.push(op.setup.as_secs_f64(), factor);
            times.push(op.total.as_secs_f64() * 1e6, factor);
        }
    }
    if docs.len() == RULE_SCENARIOS as usize
        && union_rules(&docs)?.trim() != common::MINED_RULES.trim()
    {
        counts.error += 1;
        println!("mine: MISMATCH: rules differ from the committed rules/covid_mined.json");
    }
    counts.print();
    out.correct = counts.failed() == 0;
    out.attempted = counts.attempted;
    out.failed = counts.failed();
    if !out.correct {
        return Ok(out);
    }
    let summary =
        stats::summarize(&times.scaled).ok_or("mine: too few operations for a tail")?;
    let within = times.scaled.iter().filter(|&&t| t <= LIMIT_US).count();
    let mean = |f: &[f64]| f.iter().sum::<f64>() / f.len() as f64;
    let (reference, seeded) = f1s.split_at(RULE_SCENARIOS as usize);
    let f1 = mean(reference);
    println!(
        "mine: mine_s p50 {} over {} runs on {} scenarios (wall clock {}); tail p{} {} us; {} within {LIMIT_US} us; f1 {f1} on the reference scenarios, {} on the seeded ones",
        summary.p50 * 1e-6,
        summary.n,
        f1s.len(),
        stats::median(&times.wall) * 1e-6,
        summary.tail_p,
        summary.tail,
        within as f64 / counts.attempted as f64,
        mean(seeded)
    );
    println!(
        "mine: setup_s {} (wall clock {}) over {} RlMiner::new calls",
        stats::median(&setup.scaled),
        stats::median(&setup.wall),
        setup.wall.len()
    );
    out.set("setup_s", stats::median(&setup.scaled));
    out.set("latency_p50_us", summary.p50);
    out.set("latency_tail_us", summary.tail);
    out.set(
        "within_limit_share",
        within as f64 / counts.attempted as f64,
    );
    out.set("ok_share", counts.ok_share());
    out.set("f1", f1);
    out.set("peak_rss_mib", common::peak_rss_mib());
    Ok(out)
}

/// The reward configuration `RlMiner` derives from its config.
fn reward_config(c: &RlMinerConfig, input_rows: usize) -> RewardConfig {
    let base = if c.normalize_rewards {
        RewardConfig::normalized(c.support_threshold, input_rows)
    } else {
        RewardConfig::new(c.support_threshold)
    };
    RewardConfig {
        theta: c.theta,
        low_support_penalty: c.low_support_penalty,
        shaping: c.shaping,
        global_mask: c.global_mask,
        certainty_stop: c.certainty_stop,
        ..base
    }
}

/// The agent `RlMiner::new` builds for this encoder.
fn dqn_config(c: &RlMinerConfig, encoder: &StateEncoder) -> DqnConfig {
    DqnConfig {
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
    }
}

/// Algorithm 3 rebuilt from the public environment and agent calls, with a
/// span around each call; must reproduce `RlMiner::train` exactly.
fn traced_train(task: &Task, c: &RlMinerConfig, tracer: &mut Tracer) -> TrainStats {
    // Built outside the span, as `RlMiner::new` builds them before `train`.
    let encoder = StateEncoder::new(task, c.condition_space);
    let mut agent = DqnAgent::new(dqn_config(c, &encoder));
    let started = Instant::now();
    let root = tracer.begin("rlminer.train", None, 0);
    let mut env = MinerEnv::with_threads(
        task,
        &encoder,
        reward_config(c, task.input().num_rows()),
        c.k,
        c.threads,
    );
    let (mut n, mut episodes, mut reward_sum) = (0usize, 0usize, 0.0f64);
    let mut harvest = std::collections::HashMap::new();
    let p = Some(root);
    'train: while n < c.train_steps {
        env.reset();
        let mut episode_steps = 0usize;
        loop {
            let state = tracer.time("rlminer.state", p, n as u64, || env.state());
            let mask = tracer.time("rlminer.mask", p, n as u64, || env.mask());
            let action = tracer.time("rl.select_action", p, n as u64, || {
                agent.select_action(&state, &mask)
            });
            let outcome = tracer.time("rlminer.step", p, n as u64, || env.step(action));
            reward_sum += outcome.reward;
            episode_steps += 1;
            let truncated = episode_steps >= c.max_episode_steps;
            let next = if outcome.done {
                None
            } else {
                let s = tracer.time("rlminer.state", p, n as u64, || env.state());
                let m = tracer.time("rlminer.mask", p, n as u64, || env.mask());
                Some((s, m))
            };
            tracer.time("rl.observe", p, n as u64, || {
                agent.observe(Transition {
                    state,
                    action,
                    reward: outcome.reward as f32,
                    next,
                })
            });
            tracer.time("rl.learn", p, n as u64, || agent.learn());
            n += 1;
            if outcome.done || truncated {
                episodes += 1;
                break;
            }
            if n >= c.train_steps {
                break 'train;
            }
        }
        tracer.time("rlminer.harvest", p, n as u64, || {
            for (rule, m) in env.discovered() {
                if rule.lhs_len() >= 1 && m.support >= c.support_threshold {
                    harvest.insert(rule, m);
                }
            }
        });
    }
    tracer.end(root);
    TrainStats {
        steps: n,
        episodes,
        elapsed: started.elapsed(),
        mean_loss: None,
        reward_sum,
        fresh_evaluations: env.fresh_evaluations(),
    }
}

fn traced(s: &Scenario, config: &RlMinerConfig, tracer: &mut Tracer) -> Result<Outcome, String> {
    let task = &s.task;
    let mut out = Outcome::default();
    for _ in 0..SETUP_REPS {
        let miner = tracer.time("rlminer.setup", None, 0, || {
            RlMiner::new(task, config.clone())
        });
        drop(miner);
    }
    // The same seeded training, untraced and traced in turn: the gap between
    // the totals is the tracing overhead. Per-layer times are per training.
    let reference = train_and_mine(task, config);
    let (mut untraced_s, mut ok) = (reference.train.as_secs_f64(), true);
    let mut replica = None;
    for round in 0..TRACE_ROUNDS {
        let traced = traced_train(task, config, tracer);
        ok &= same_stats(&traced, &reference.stats);
        if round + 1 < TRACE_ROUNDS {
            untraced_s += train_and_mine(task, config).train.as_secs_f64();
        }
        replica = Some(traced);
    }
    let replica = replica.ok_or("no traced training")?;
    if !ok {
        println!(
            "mine: MISMATCH: traced replica ({} steps, {} episodes, reward {:e}, {} fresh) != RlMiner::train",
            replica.steps, replica.episodes, replica.reward_sum, replica.fresh_evaluations
        );
    }
    let mut miner = RlMiner::new(task, config.clone());
    miner.train(task);
    let result = tracer.time("rlminer.infer", None, 0, || miner.mine(task));
    ok &= rules_to_json(&result.rules, task) == reference.doc;
    out.correct = ok;
    out.attempted = 1;
    out.failed = u64::from(!ok);
    let rounds = TRACE_ROUNDS as f64;
    for (metric, span) in [
        ("rl.learn_s", "rl.learn"),
        ("rl.select_action_s", "rl.select_action"),
        ("rlminer.state_s", "rlminer.state"),
        ("rlminer.mask_s", "rlminer.mask"),
        ("rlminer.step_s", "rlminer.step"),
    ] {
        out.set(metric, tracer.total_s(span) / rounds);
    }
    out.set("rlminer.infer_s", tracer.total_s("rlminer.infer"));
    out.set(
        "rlminer.setup_s",
        stats::median(&tracer.durations_s("rlminer.setup")),
    );
    out.set(
        "rlminer.fresh_evaluations",
        replica.fresh_evaluations as f64,
    );
    let traced_s = tracer.total_s("rlminer.train");
    out.set("trace.overhead_share", (traced_s - untraced_s) / untraced_s);
    println!("mine: untraced train {untraced_s} s, traced train {traced_s} s");
    Ok(out)
}
