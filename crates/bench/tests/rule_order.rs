//! Rule-order invariance under a confluence certificate: what certifying a
//! rule set (ER013/ER014 clean) proves is that the repair result does not
//! depend on the order rules are listed. This property test shuffles the
//! rule list with a seeded RNG and demands bitwise-identical repair output
//! on every permutation. A deliberately non-confluent set guards against
//! vacuity: the pass must refuse to certify it.

// Test code: a panic is the failure report; fixture helpers sit outside
// any #[test] fn, so the clippy.toml test exemption does not reach them.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use er_analyze::AnalyzeConfig;
use er_lint::DiagnosticCode;
use er_rules::{BatchRepairer, EditingRule, RepairReport, TargetRules};
use er_table::{Attribute, Pool, Relation, RelationBuilder, Schema, Value};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::sync::Arc;

fn schema(name: &str) -> Arc<Schema> {
    Arc::new(Schema::new(
        name,
        vec![
            Attribute::categorical("K"),
            Attribute::categorical("A"),
            Attribute::categorical("T"),
        ],
    ))
}

/// A master where T is a function of K and every group size is a power of
/// two (8 rows per K, 2 per (K, A)): each rule's vote contribution is an
/// exact dyadic rational, so score sums are exact in f64 and a bitwise
/// comparison across summation orders is meaningful, not luck.
fn confluent_fixture() -> (Arc<Schema>, Relation, Relation) {
    let pool = Arc::new(Pool::new());
    let in_schema = schema("in");
    let s = |v: String| Value::str(v);
    let mut bm = RelationBuilder::new(schema("m"), Arc::clone(&pool));
    for k in 0..8 {
        for a in 0..4 {
            for _ in 0..2 {
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
    for row in 0..40 {
        bi.push_row(vec![
            s(format!("k{}", row % 8)),
            s(format!("a{}", row % 4)),
            Value::Null,
        ])
        .unwrap();
    }
    let input = bi.finish();
    (in_schema, master, input)
}

fn repair(master: &Relation, rules: &[EditingRule]) -> BatchRepairer {
    BatchRepairer::new(master.clone(), (2, 2), rules.to_vec(), 2).unwrap()
}

#[test]
fn certified_set_is_rule_order_invariant() {
    let (in_schema, master, input) = confluent_fixture();
    let target = (2, 2);
    let rules = vec![
        EditingRule::new(vec![(0, 0)], target, vec![]),
        EditingRule::new(vec![(0, 0), (1, 1)], target, vec![]),
        EditingRule::new(vec![(1, 1), (0, 0)], target, vec![]),
    ];
    let baseline = repair(&master, &rules).repair_batch(&input).unwrap();
    assert!(baseline.num_predictions() > 0, "fixture must predict");
    let bits = |r: &RepairReport| r.scores.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let mut rng = StdRng::seed_from_u64(20260809);
    let mut order: Vec<usize> = (0..rules.len()).collect();
    for round in 0..8 {
        order.shuffle(&mut rng);
        let shuffled: Vec<EditingRule> = order.iter().map(|&i| rules[i].clone()).collect();
        // Certify the *shuffled* listing: the certificate itself must not
        // depend on rule order.
        let report = er_analyze::analyze(
            &in_schema,
            &master,
            &[TargetRules {
                target,
                rules: shuffled.clone(),
            }],
            &AnalyzeConfig::with_threads(2),
        );
        assert!(
            report.confluence.certified,
            "round {round}: shuffle {order:?} must still certify"
        );
        let run = repair(&master, &shuffled).repair_batch(&input).unwrap();
        assert_eq!(
            run.predictions, baseline.predictions,
            "round {round}: predictions diverged under order {order:?}"
        );
        assert_eq!(
            bits(&run),
            bits(&baseline),
            "round {round}: scores diverged bitwise under order {order:?}"
        );
        assert_eq!(
            run.candidates, baseline.candidates,
            "round {round}: candidate counts diverged under order {order:?}"
        );
    }
}

/// Non-vacuity guard: a set whose critical pair genuinely diverges must be
/// refused a certificate (with an ER013 witness), otherwise the shuffle
/// test above proves nothing about what certification guarantees.
#[test]
fn divergent_set_is_refused_a_certificate() {
    let pool = Arc::new(Pool::new());
    let in_schema = schema("in");
    let s = |v: &str| Value::str(v.to_string());
    // Joint witness (k0, a0): the K-rule's group is {t0, t1, t1} (modal t1)
    // while the A-rule's group is {t0} (modal t0), and the exact
    // cross-multiplied vote picks t0 strictly — a two-order counterexample.
    let mut bm = RelationBuilder::new(schema("m"), pool);
    bm.push_row(vec![s("k0"), s("a0"), s("t0")]).unwrap();
    bm.push_row(vec![s("k0"), s("a1"), s("t1")]).unwrap();
    bm.push_row(vec![s("k0"), s("a1"), s("t1")]).unwrap();
    let master = bm.finish();
    let target = (2, 2);
    let rules = vec![
        EditingRule::new(vec![(0, 0)], target, vec![]),
        EditingRule::new(vec![(1, 1)], target, vec![]),
    ];
    let report = er_analyze::analyze(
        &in_schema,
        &master,
        &[TargetRules { target, rules }],
        &AnalyzeConfig::with_threads(2),
    );
    assert!(
        !report.confluence.certified,
        "divergent pair must deny the certificate: {}",
        report.render_text()
    );
    assert!(
        !report.confluence.divergent.is_empty(),
        "the refusal must carry a two-order witness"
    );
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.code == DiagnosticCode::Er013),
        "ER013 must be reported: {}",
        report.render_text()
    );
}
