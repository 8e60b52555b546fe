//! Thread-count invariance: mining the same task at 1, 2, and 8 worker
//! threads must produce byte-identical results — the same rules in the same
//! order with the same measures, and the same work counters. Parallelism is
//! a wall-clock optimisation only; it must never change what is mined.

// Test code: a panic is the failure report; fixture helpers sit outside
// any #[test] fn, so the clippy.toml test exemption does not reach them.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use er_analyze::AnalyzeConfig;
use er_datagen::{DatasetKind, Scenario, ScenarioConfig};
use er_enuminer::EnuMinerConfig;
use er_rlminer::{RlMiner, RlMinerConfig};
use er_rules::{BatchRepairer, EditingRule, TargetRules};

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn covid() -> Scenario {
    DatasetKind::Covid.build(ScenarioConfig {
        input_size: 400,
        master_size: 200,
        seed: 11,
        ..DatasetKind::Covid.paper_config()
    })
}

#[test]
fn enuminer_output_is_thread_count_invariant() {
    let s = covid();
    let runs: Vec<_> = THREAD_COUNTS
        .iter()
        .map(|&threads| {
            let mut config = EnuMinerConfig::new(s.support_threshold);
            config.threads = threads;
            er_enuminer::mine(&s.task, config)
        })
        .collect();
    let base = &runs[0];
    assert!(!base.rules.is_empty(), "fixture must discover rules");
    for (run, threads) in runs.iter().zip(THREAD_COUNTS).skip(1) {
        assert_eq!(
            run.rules, base.rules,
            "rule list diverged at {threads} threads"
        );
        assert_eq!(
            run.evaluated, base.evaluated,
            "evaluated counter diverged at {threads} threads"
        );
        assert_eq!(
            run.expanded, base.expanded,
            "expanded counter diverged at {threads} threads"
        );
    }
}

/// Budget truncation cuts the run mid-level; the cut point (and therefore
/// every counter) must land on the same candidate at any thread count.
#[test]
fn enuminer_budget_truncation_is_thread_count_invariant() {
    let s = covid();
    let runs: Vec<_> = THREAD_COUNTS
        .iter()
        .map(|&threads| {
            let mut config = EnuMinerConfig::new(s.support_threshold);
            config.max_rules_evaluated = Some(50);
            config.threads = threads;
            er_enuminer::mine(&s.task, config)
        })
        .collect();
    let base = &runs[0];
    assert!(base.evaluated <= 50);
    for (run, threads) in runs.iter().zip(THREAD_COUNTS).skip(1) {
        assert_eq!(
            (&run.rules, run.evaluated, run.expanded),
            (&base.rules, base.evaluated, base.expanded),
            "budget-truncated run diverged at {threads} threads"
        );
    }
}

/// The analyzer's conflict and reachability passes fan out over the worker
/// pool; the rendered report — witnesses, findings, and all — must be
/// byte-identical at any thread count.
#[test]
fn analyzer_report_is_thread_count_invariant() {
    let s = er_datagen::figure1();
    // Figure-1 attribute ids: input Name=0 City=1 ZIP=2 AC=3, Case=6;
    // master FN=0 City=2 ZIP=3 AC=4, Case=7. A mix rich enough to light up
    // every pass: comparable pairs (conflicts), a City → ZIP → AC chain
    // (termination order), and several candidate pairs for the fan-out.
    let targets = vec![
        TargetRules {
            target: (6, 7),
            rules: vec![
                EditingRule::new(vec![(0, 0)], (6, 7), vec![]),
                EditingRule::new(vec![(0, 0), (1, 2)], (6, 7), vec![]),
                EditingRule::new(vec![(1, 2)], (6, 7), vec![]),
                EditingRule::new(vec![(1, 2), (2, 3)], (6, 7), vec![]),
            ],
        },
        TargetRules {
            target: (2, 3),
            rules: vec![EditingRule::new(vec![(1, 2)], (2, 3), vec![])],
        },
        TargetRules {
            target: (3, 4),
            rules: vec![EditingRule::new(vec![(2, 3)], (3, 4), vec![])],
        },
    ];
    let input_schema = s.task.input().schema();
    let master = s.task.master();
    let reports: Vec<_> = THREAD_COUNTS
        .iter()
        .map(|&threads| {
            er_analyze::analyze(
                input_schema,
                master,
                &targets,
                &AnalyzeConfig::with_threads(threads),
            )
        })
        .collect();
    let base = &reports[0];
    assert!(
        !base.conflicts.is_empty(),
        "fixture must exercise the conflict fan-out"
    );
    assert!(base.termination.certified);
    for (report, threads) in reports.iter().zip(THREAD_COUNTS).skip(1) {
        assert_eq!(
            report.render_json(),
            base.render_json(),
            "analysis JSON diverged at {threads} threads"
        );
        assert_eq!(
            report.render_text(),
            base.render_text(),
            "analysis text diverged at {threads} threads"
        );
    }
}

/// The diff pass fans its per-signature verdict recomputation out over the
/// worker pool; the rendered edit-scope report — changed signatures,
/// witnesses, ER011/ER012 findings — must be byte-identical at any thread
/// count.
#[test]
fn diff_report_is_thread_count_invariant() {
    let s = er_datagen::figure1();
    let old_json = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/figure1_rules.json"
    ))
    .unwrap();
    let new_json = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/figure1_rules_v2.json"
    ))
    .unwrap();
    // A scope narrower than the actual edit, so the reports carry both
    // ER011 infos and ER012 errors.
    let scope = er_analyze::EditScope::from_json(r#"{"Date":"2021-10"}"#).unwrap();
    let reports: Vec<_> = THREAD_COUNTS
        .iter()
        .map(|&threads| {
            er_analyze::diff_json(
                &old_json,
                &new_json,
                &s.task,
                Some(&scope),
                &AnalyzeConfig::with_threads(threads),
            )
            .unwrap()
        })
        .collect();
    let base = &reports[0];
    assert_eq!(base.changes.len(), 2, "fixture must exercise the fan-out");
    assert!(base.errors() > 0, "scope must be violated in this fixture");
    for (report, threads) in reports.iter().zip(THREAD_COUNTS).skip(1) {
        assert_eq!(
            report.render_json(),
            base.render_json(),
            "diff JSON diverged at {threads} threads"
        );
        assert_eq!(
            report.render_text(),
            base.render_text(),
            "diff text diverged at {threads} threads"
        );
    }
}

/// The signature-batched repair path fans its LHS groups out over the
/// worker pool; the report — predictions, scores *bit for bit*, candidate
/// counts — must be byte-identical at any thread count, and identical to
/// the row-at-a-time reference path.
#[test]
fn batched_repair_is_thread_count_invariant() {
    let s = covid();
    let task = &s.task;
    let target = task.target();
    let pairs = task.candidate_lhs_pairs();
    let mut rules: Vec<EditingRule> = pairs
        .iter()
        .map(|&p| EditingRule::new(vec![p], target, vec![]))
        .collect();
    for window in pairs.windows(2) {
        rules.push(EditingRule::new(window.to_vec(), target, vec![]));
    }
    let runs: Vec<_> = THREAD_COUNTS
        .iter()
        .map(|&threads| {
            let repairer =
                BatchRepairer::new(task.master().clone(), target, rules.clone(), threads).unwrap();
            let batched = repairer.repair_batch(task.input()).unwrap();
            let reference = repairer.repair_batch_reference(task.input()).unwrap();
            (batched, reference)
        })
        .collect();
    let (base, _) = &runs[0];
    assert!(base.num_predictions() > 0, "fixture must predict something");
    let bits =
        |r: &er_rules::RepairReport| r.scores.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for ((batched, reference), threads) in runs.iter().zip(THREAD_COUNTS) {
        assert_eq!(
            batched.predictions, base.predictions,
            "predictions diverged at {threads} threads"
        );
        assert_eq!(
            bits(batched),
            bits(base),
            "scores diverged bitwise at {threads} threads"
        );
        assert_eq!(
            batched.candidates, base.candidates,
            "candidate counts diverged at {threads} threads"
        );
        assert_eq!(
            bits(batched),
            bits(reference),
            "batched and reference paths diverged at {threads} threads"
        );
        assert_eq!(batched.predictions, reference.predictions);
    }
}

/// Repair `input` at every shard count × thread count combination and
/// demand answers byte-identical to the unsharded 1-thread `BatchRepairer`.
fn assert_shard_matrix(
    master: &er_table::Relation,
    input: &er_table::Relation,
    target: (usize, usize),
    rules: &[EditingRule],
) {
    const SHARD_COUNTS: [usize; 3] = [1, 2, 8];
    let reference = BatchRepairer::new(master.clone(), target, rules.to_vec(), 1)
        .unwrap()
        .repair_batch(input)
        .unwrap();
    assert!(reference.num_predictions() > 0, "fixture must predict");
    let bits = |scores: &[f64]| scores.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for shards in SHARD_COUNTS {
        for threads in THREAD_COUNTS {
            let engine = er_shard::ShardedEngine::new(
                master.clone(),
                target,
                rules.to_vec(),
                threads,
                shards,
            )
            .unwrap();
            let run = engine.repair_batch(input, None).unwrap();
            assert_eq!(
                run.predictions, reference.predictions,
                "predictions diverged at {shards} shards / {threads} threads"
            );
            assert_eq!(
                bits(&run.scores),
                bits(&reference.scores),
                "scores diverged bitwise at {shards} shards / {threads} threads"
            );
            assert_eq!(
                run.candidates, reference.candidates,
                "candidate counts diverged at {shards} shards / {threads} threads"
            );
        }
    }
}

/// The sharded serving tier partitions the master by the rules' common LHS
/// routing pair and fans requests out per shard; at every shard count ×
/// thread count combination the answers must be byte-identical to the
/// unsharded `BatchRepairer` — including for a rule set the er-analyze
/// confluence pass refuses to certify, since the one ordered repair path
/// needs no certificate.
#[test]
fn sharded_repair_is_shard_and_thread_count_invariant() {
    let s = covid();
    let task = &s.task;
    let target = task.target();
    let pairs = task.candidate_lhs_pairs();
    // Anchor every rule on pairs[0] so the set has a common routing pair
    // and multi-shard placement is non-degenerate.
    let mut rules = vec![EditingRule::new(vec![pairs[0]], target, vec![])];
    for &p in &pairs[1..] {
        rules.push(EditingRule::new(vec![pairs[0], p], target, vec![]));
    }
    assert_shard_matrix(task.master(), task.input(), target, &rules);

    // The divergent (ER013) set of `rule_order.rs`: on the joint witness
    // (k0, a0) the K-rule's modal is t1 and the A-rule's is t0.
    use er_table::{Attribute, Pool, RelationBuilder, Schema, Value};
    use std::sync::Arc;
    let pool = Arc::new(Pool::new());
    let schema = |name: &str| {
        Arc::new(Schema::new(
            name,
            vec![
                Attribute::categorical("K"),
                Attribute::categorical("A"),
                Attribute::categorical("T"),
            ],
        ))
    };
    let in_schema = schema("in");
    let v = |x: &str| Value::str(x.to_string());
    let mut bm = RelationBuilder::new(schema("m"), Arc::clone(&pool));
    bm.push_row(vec![v("k0"), v("a0"), v("t0")]).unwrap();
    bm.push_row(vec![v("k0"), v("a1"), v("t1")]).unwrap();
    bm.push_row(vec![v("k0"), v("a1"), v("t1")]).unwrap();
    let master = bm.finish();
    let mut bi = RelationBuilder::new(Arc::clone(&in_schema), pool);
    for (k, a) in [("k0", "a0"), ("k0", "a1"), ("k1", "a0"), ("k0", "a2")] {
        bi.push_row(vec![v(k), v(a), Value::Null]).unwrap();
    }
    bi.push_row(vec![Value::Null, v("a0"), Value::Null])
        .unwrap();
    let input = bi.finish();
    let target = (2, 2);
    let rules = vec![
        EditingRule::new(vec![(0, 0)], target, vec![]),
        EditingRule::new(vec![(1, 1)], target, vec![]),
    ];
    let report = er_analyze::analyze(
        &in_schema,
        &master,
        &[TargetRules {
            target,
            rules: rules.clone(),
        }],
        &AnalyzeConfig::with_threads(2),
    );
    assert!(
        !report.confluence.certified,
        "the divergent set must not certify: {}",
        report.render_text()
    );
    assert_shard_matrix(&master, &input, target, &rules);
}

/// A rule set the er-analyze confluence pass certifies honestly (zero
/// divergent critical pairs), with a NULL routing key that exercises the
/// broadcast merge: every shard count × thread count combination must
/// still match the 1-shard/1-thread reference bitwise.
#[test]
fn certified_set_is_shard_and_thread_count_invariant() {
    use er_table::{Attribute, Pool, RelationBuilder, Schema, Value};
    use std::sync::Arc;

    let pool = Arc::new(Pool::new());
    let attrs = || {
        vec![
            Attribute::categorical("K"),
            Attribute::categorical("A"),
            Attribute::categorical("T"),
        ]
    };
    let in_schema = Arc::new(Schema::new("in", attrs()));
    let m_schema = Arc::new(Schema::new("m", attrs()));
    let s = |v: String| Value::str(v);
    // Master where T is a function of the routing key K: every critical
    // pair joins (any joint witness agrees on the modal), so the set
    // certifies honestly — the pass below must find zero divergences.
    let mut bm = RelationBuilder::new(m_schema, Arc::clone(&pool));
    for k in 0..8 {
        for a in 0..4 {
            for _ in 0..(1 + (k + a) % 3) {
                bm.push_row(vec![
                    s(format!("k{k}")),
                    s(format!("a{a}")),
                    s(format!("t{}", k % 5)),
                ])
                .unwrap();
            }
        }
    }
    let master = bm.finish();
    let mut bi = RelationBuilder::new(Arc::clone(&in_schema), pool);
    for row in 0..48 {
        let k = row % 8;
        bi.push_row(vec![
            s(format!("k{k}")),
            s(format!("a{}", row % 4)),
            Value::Null,
        ])
        .unwrap();
    }
    // A NULL routing key exercises the broadcast path.
    bi.push_row(vec![Value::Null, s("a0".into()), Value::Null])
        .unwrap();
    let input = bi.finish();
    let target = (2, 2);
    // Every rule anchors the routing pair (K, K), so multi-shard placement
    // is non-degenerate and the pairwise unifications are non-trivial.
    let rules = vec![
        EditingRule::new(vec![(0, 0)], target, vec![]),
        EditingRule::new(vec![(0, 0), (1, 1)], target, vec![]),
        EditingRule::new(vec![(1, 1), (0, 0)], target, vec![]),
    ];
    let targets = [TargetRules {
        target,
        rules: rules.clone(),
    }];
    for threads in THREAD_COUNTS {
        let report = er_analyze::analyze(
            &in_schema,
            &master,
            &targets,
            &AnalyzeConfig::with_threads(threads),
        );
        assert!(
            report.confluence.certified,
            "functionally determined fixture must certify at {threads} threads: {}",
            report.render_text()
        );
    }
    assert_shard_matrix(&master, &input, target, &rules);
}

/// The RLMiner path: training (mask refresh via the evaluator pool) and the
/// greedy re-evaluation sweep in `mine` both fan out; with a fixed seed the
/// whole train-then-mine pipeline must be identical at any thread count.
#[test]
fn rlminer_output_is_thread_count_invariant() {
    let s = covid();
    let runs: Vec<_> = THREAD_COUNTS
        .iter()
        .map(|&threads| {
            let mut config = RlMinerConfig::new(s.support_threshold);
            config.train_steps = 300;
            config.hidden = vec![32];
            config.seed = 7;
            config.threads = threads;
            let mut miner = RlMiner::new(&s.task, config);
            let stats = miner.train(&s.task);
            (stats.fresh_evaluations, miner.mine(&s.task))
        })
        .collect();
    let (base_fresh, base) = &runs[0];
    assert!(!base.rules.is_empty(), "fixture must discover rules");
    for ((fresh, run), threads) in runs.iter().zip(THREAD_COUNTS).skip(1) {
        assert_eq!(
            run.rules, base.rules,
            "rule list diverged at {threads} threads"
        );
        assert_eq!(
            fresh, base_fresh,
            "fresh-evaluation counter diverged at {threads} threads"
        );
        assert_eq!(
            run.discovered, base.discovered,
            "discovered counter diverged at {threads} threads"
        );
    }
}
