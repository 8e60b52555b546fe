//! Confluence pass: critical pairs of rules joined symbolically, with a
//! machine-checkable certificate when every pair joins.
//!
//! The chase applies rules one at a time and freezes each repaired cell, so
//! the *order* rules fire in matters exactly when two rules prescribe
//! different values for the same target cell: whichever applies first wins.
//! The conflict pass (ER009) only examines pairs with comparable evidence
//! (strict-subset LHS); this pass closes the classic critical-pair property
//! for the whole set. A **critical pair** is any two distinct rules on the
//! same target whose LHS patterns unify — some input tuple can fire both —
//! witnessed concretely by a master row that pins both LHS keys NULL-free
//! with every pattern condition satisfied. For each witness the two one-step
//! chase states are joined symbolically:
//!
//! - both modal prescriptions agree → the pair **joins** on this witness;
//! - they differ and the combined two-rule certainty vote strictly favors
//!   one value → the states are **not joinable** (each order commits its own
//!   value and freezing prevents re-repair) — ER013 (Error) with the row and
//!   both order outcomes as the counterexample;
//! - they differ but the combined vote ties exactly → both orders converge
//!   only because the deterministic smaller-code tie-break picks the same
//!   winner — ER014 (Warning): verdict-equivalent but order-fragile.
//!
//! When every pair joins outright the pass issues a
//! [`ConfluenceCertificate`] stamped with the master generation: proof that
//! rule order cannot change a repair over that master. The certificate is
//! analysis output (`experiments prove`, the serve `reload`/`append`
//! analysis gate); the repair engines always fold votes in rule order and
//! need no license. Appends bump the generation, so a certificate speaks
//! only for the master it was issued on. Vote comparisons use
//! exact integer cross-multiplication (`cnt/total` fractions over a common
//! denominator), never floats, so the verdict is itself order-independent.

use crate::conflict::{modal, preds_overlap};
use er_par::WorkerPool;
use er_rules::{EditingRule, TargetRules};
use er_table::{AttrId, Code, GroupIndex, Relation, NULL_CODE};
use std::collections::HashMap;

/// The confluence pass's outcome: the certificate when every critical pair
/// joins, the counterexamples when not.
#[derive(Debug, Clone)]
pub struct ConfluenceCertificate {
    /// Whether every critical pair joins outright (no ER013 divergence and
    /// no ER014 tie-break dependence).
    pub certified: bool,
    /// Critical pairs examined (unifiable LHS patterns on a shared target).
    pub pairs: usize,
    /// Per-pair joinability proofs: how many concrete witness rows each
    /// pair was joined on (present for joining pairs, including vacuous
    /// ones with zero joint witnesses).
    pub proofs: Vec<JoinProof>,
    /// Non-joinable pairs (ER013): the two orders commit different values.
    pub divergent: Vec<OrderWitness>,
    /// Tie-break-dependent pairs (ER014): verdict-equivalent, order-fragile.
    pub tie_broken: Vec<OrderWitness>,
    /// Master generation the pass ran against. The certificate is valid
    /// only while the engine's master is at this generation — appends
    /// invalidate it until the pass is re-run.
    pub generation: u64,
    /// Rules in the analyzed set (a cheap identity check alongside the
    /// generation stamp).
    pub num_rules: usize,
}

/// Joinability evidence for one critical pair.
#[derive(Debug, Clone)]
pub struct JoinProof {
    /// Higher-indexed rule of the pair.
    pub rule: usize,
    /// Lower-indexed rule of the pair.
    pub related: usize,
    /// Master rows that fire both rules; on every one the prescriptions
    /// agreed (0 = the pair never fires jointly on the current master).
    pub witness_rows: usize,
}

/// A concrete two-order counterexample for a critical pair.
#[derive(Debug, Clone)]
pub struct OrderWitness {
    /// Higher-indexed rule of the pair (the finding anchors here).
    pub rule: usize,
    /// Lower-indexed rule of the pair.
    pub related: usize,
    /// First master row witnessing the divergence.
    pub master_row: usize,
    /// The witness tuple's rendered values, master attribute order.
    pub master_tuple: Vec<String>,
    /// Value committed when rule `related` applies first.
    pub first_value: String,
    /// Value committed when rule `rule` applies first.
    pub second_value: String,
    /// Master rows witnessing this pair's divergence (the reported row is
    /// the first).
    pub rows: usize,
}

/// How one critical pair resolved.
enum PairVerdict {
    Joins { witness_rows: usize },
    Diverges(RawWitness),
    TieBreaks(RawWitness),
}

struct RawWitness {
    master_row: usize,
    first: Code,
    second: Code,
    rows: usize,
}

/// Run the confluence pass over every target group. `display` maps a rule's
/// position in the concatenated `targets` order to its reported index.
pub(crate) fn confluence_pass(
    master: &Relation,
    targets: &[TargetRules],
    pool: &WorkerPool,
    display: &dyn Fn(usize) -> usize,
) -> ConfluenceCertificate {
    let num_rules: usize = targets.iter().map(|t| t.rules.len()).sum();
    let mut cert = ConfluenceCertificate {
        certified: true,
        pairs: 0,
        proofs: Vec::new(),
        divergent: Vec::new(),
        tie_broken: Vec::new(),
        generation: master.generation(),
        num_rules,
    };
    let mut g = 0usize;
    for t in targets {
        let rules: Vec<(usize, &EditingRule)> = t
            .rules
            .iter()
            .map(|r| {
                let idx = display(g);
                g += 1;
                (idx, r)
            })
            .collect();
        // Critical-pair candidates: every unordered pair whose patterns can
        // hold simultaneously (conditions on attributes pinned by neither
        // LHS must overlap; pinned attributes are checked per master row).
        type IndexedRule<'a> = (usize, &'a EditingRule);
        let mut pairs: Vec<(IndexedRule<'_>, IndexedRule<'_>)> = Vec::new();
        for (pa, &(i, ri)) in rules.iter().enumerate() {
            for &(j, rj) in rules.iter().skip(pa + 1) {
                let (lo, hi) = if i < j {
                    ((i, ri), (j, rj))
                } else {
                    ((j, rj), (i, ri))
                };
                if patterns_unify(master, lo.1, hi.1) {
                    pairs.push((lo, hi));
                }
            }
        }
        if pairs.is_empty() {
            continue;
        }
        cert.pairs += pairs.len();
        // One warmed group index per distinct X_m, shared by every pair.
        let mut indexes: HashMap<Vec<AttrId>, GroupIndex> = HashMap::new();
        for &(_, r) in &rules {
            indexes
                .entry(r.xm())
                .or_insert_with(|| GroupIndex::build(master, &r.xm(), t.target.1));
        }
        let verdicts = pool.map(&pairs, |&((_, ra), (_, rb))| {
            join_pair(master, ra, rb, &indexes)
        });
        for (verdict, &((i, _), (j, _))) in verdicts.iter().zip(&pairs) {
            match verdict {
                PairVerdict::Joins { witness_rows } => cert.proofs.push(JoinProof {
                    rule: j,
                    related: i,
                    witness_rows: *witness_rows,
                }),
                PairVerdict::Diverges(w) => {
                    cert.certified = false;
                    cert.divergent.push(order_witness(master, i, j, w));
                }
                PairVerdict::TieBreaks(w) => {
                    cert.certified = false;
                    cert.tie_broken.push(order_witness(master, i, j, w));
                }
            }
        }
    }
    cert
}

fn order_witness(master: &Relation, i: usize, j: usize, w: &RawWitness) -> OrderWitness {
    OrderWitness {
        rule: j,
        related: i,
        master_row: w.master_row,
        master_tuple: (0..master.schema().arity())
            .map(|a| master.value(w.master_row, a).to_string())
            .collect(),
        first_value: master.pool().value(w.first).to_string(),
        second_value: master.pool().value(w.second).to_string(),
        rows: w.rows,
    }
}

/// Whether the two rules' patterns can hold on one input tuple. Conditions
/// on attributes pinned by either LHS are checked per master row in
/// [`join_pair`]; here only the *free* attributes constrain unifiability.
fn patterns_unify(master: &Relation, a: &EditingRule, b: &EditingRule) -> bool {
    let pinned = |attr| a.lhs_contains_input(attr) || b.lhs_contains_input(attr);
    for ca in a.pattern() {
        if pinned(ca.attr) {
            continue;
        }
        for cb in b.pattern() {
            if cb.attr == ca.attr && !preds_overlap(master, &ca.pred, &cb.pred) {
                return false;
            }
        }
    }
    true
}

/// Join one critical pair over every concrete witness row of the master.
fn join_pair(
    master: &Relation,
    a: &EditingRule,
    b: &EditingRule,
    indexes: &HashMap<Vec<AttrId>, GroupIndex>,
) -> PairVerdict {
    let idx_a = &indexes[&a.xm()];
    let idx_b = &indexes[&b.xm()];
    let mut joined = 0usize;
    let mut diverge: Option<RawWitness> = None;
    let mut ties: Option<RawWitness> = None;
    'rows: for row in 0..master.num_rows() {
        // Pin both LHS keys NULL-free, and require shared input attributes
        // to pin to one consistent value (an input tuple has one value per
        // attribute; two rules reading it through different master columns
        // only co-fire when those columns agree on this row).
        let mut pins: Vec<(AttrId, Code)> = Vec::new();
        for &(attr, am) in a.lhs().iter().chain(b.lhs()) {
            let c = master.code(row, am);
            if c == NULL_CODE {
                continue 'rows;
            }
            match pins.iter().find(|&&(pa, _)| pa == attr) {
                Some(&(_, prev)) if prev != c => continue 'rows,
                Some(_) => {}
                None => pins.push((attr, c)),
            }
        }
        // Pattern conditions on pinned attributes must hold for the pinned
        // value (free attributes were checked for overlap up front).
        for cond in a.pattern().iter().chain(b.pattern()) {
            let Some(&(_, c)) = pins.iter().find(|&&(pa, _)| pa == cond.attr) else {
                continue;
            };
            if !cond.pred.matches(c, master.pool().value(c).as_f64()) {
                continue 'rows;
            }
        }
        let key = |r: &EditingRule| -> Vec<Code> {
            r.lhs()
                .iter()
                .map(|&(_, am)| master.code(row, am))
                .collect()
        };
        let entries_a = idx_a.get(&key(a));
        let entries_b = idx_b.get(&key(b));
        let (Some(va), Some(vb)) = (modal(entries_a), modal(entries_b)) else {
            continue;
        };
        if va == vb {
            joined += 1;
            continue;
        }
        // Divergent prescriptions: join the states through the combined
        // two-rule certainty vote, compared exactly (cnt/total fractions
        // over the common denominator — integers, no float rounding).
        let tally = |entries: &[(Code, u32)], v: Code| -> (u64, u64) {
            let mut hit = 0u64;
            let mut total = 0u64;
            for &(c, n) in entries {
                if c == NULL_CODE {
                    continue;
                }
                total += u64::from(n);
                if c == v {
                    hit += u64::from(n);
                }
            }
            (hit, total)
        };
        let (a_va, tot_a) = tally(entries_a, va);
        let (b_va, _) = tally(entries_b, va);
        let (a_vb, _) = tally(entries_a, vb);
        let (b_vb, tot_b) = tally(entries_b, vb);
        // score(v) = cnt_a(v)/tot_a + cnt_b(v)/tot_b, cross-multiplied.
        let score_va = a_va * tot_b + b_va * tot_a;
        let score_vb = a_vb * tot_b + b_vb * tot_a;
        let slot = if score_va == score_vb {
            &mut ties
        } else {
            &mut diverge
        };
        match slot {
            Some(w) => w.rows += 1,
            None => {
                *slot = Some(RawWitness {
                    master_row: row,
                    first: va,
                    second: vb,
                    rows: 1,
                })
            }
        }
    }
    // A genuine divergence outranks a tie-break dependence for the pair's
    // verdict; either one denies the certificate.
    if let Some(w) = diverge {
        PairVerdict::Diverges(w)
    } else if let Some(w) = ties {
        PairVerdict::TieBreaks(w)
    } else {
        PairVerdict::Joins {
            witness_rows: joined,
        }
    }
}
