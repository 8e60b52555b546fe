#![forbid(unsafe_code)]
//! # er-analyze — whole-rule-set static analysis
//!
//! The lint layer (`er-lint`) checks rules one by one and pairwise against
//! the *observed input*. This crate treats an editing-rule set as a
//! **program** and asks the three questions a cleaning program must answer
//! before it is trusted in production serving:
//!
//! 1. **Does it terminate?** ([`graph`]) The chase re-runs rules round after
//!    round because fixes cascade; the attribute-level read/write dependency
//!    graph decides statically whether that cascade bottoms out. Acyclic ⇒ a
//!    weak-acyclicity certificate with an explicit round bound, and
//!    [`er_rules::ChaseConfig::uncapped`] is sound. Cyclic ⇒ ER008 (Error)
//!    with the offending rule chain as witness, and the round cap becomes an
//!    explicit diagnosed fallback ([`cap_finding`] reports actual cap hits
//!    at runtime as an ER008 Warning).
//! 2. **Does it contradict itself?** ([`conflict`]) Two rules with
//!    comparable evidence (strict-subset LHS) prescribing different certain
//!    fixes is a contradiction, certified by a concrete master tuple —
//!    ER009 (Error).
//! 3. **Does order matter?** ([`confluence`]) Every critical pair — two
//!    rules on a shared target whose LHS patterns unify — is joined
//!    symbolically over concrete master witnesses: a non-joinable pair is
//!    ER013 (Error) with a two-order counterexample row, a pair that joins
//!    only via the smaller-code tie-break is ER014 (Warning), and a set
//!    where every pair joins outright earns a [`ConfluenceCertificate`]
//!    (generation-stamped): rule order cannot change its repairs.
//! 4. **Can every rule fire?** ([`reach`]) Rules dead against the current
//!    master domains ([`MasterProfile`], generation-aware per-column
//!    [`er_table::ColumnStats`]) — ER010 (Warning).
//! 5. **What does a change do?** ([`diff`]) Given an (old, new) version
//!    pair, the diff pass computes the **edit scope** symbolically: the
//!    master code signatures whose repair verdict differs, each with a
//!    concrete master-row witness — ER011 (Info) per changed signature,
//!    ER012 (Error) when a change lands outside a caller-declared
//!    [`EditScope`], and an equivalence certificate when nothing changes.
//!
//! `er-serve` gates `reload` and `append` on [`AnalysisReport::gate_clean`]
//! (no ER008/ER009): a rejected load returns a typed NDJSON error and never
//! swaps the live engine. The `experiments analyze` CLI prints the
//! [`AnalysisReport`] as text or JSON (`results/analyze.json`).
//!
//! Both passes that fan out ([`conflict`] pairs, [`reach`] rules) use
//! [`er_par::WorkerPool::map`], so reports are byte-identical at any thread
//! count (enforced by `crates/bench/tests/par_determinism.rs`).

mod conflict;
mod confluence;
mod diff;
mod graph;
mod portable;
mod reach;
mod report;

pub use conflict::ConflictWitness;
pub use confluence::{ConfluenceCertificate, JoinProof, OrderWitness};
pub use diff::{diff, diff_json, diff_portable, DiffReport, EditScope, VerdictChange};
pub use graph::{CycleWitness, TerminationCertificate};
pub use portable::{analyze_json, analyze_portable};
pub use reach::{MasterProfile, UnreachableRule};
pub use report::AnalysisReport;

use er_lint::{DiagnosticCode, Finding, Severity};
use er_par::WorkerPool;
use er_rules::{ChaseConfig, ChaseResult, TargetRules};
use er_table::{Relation, Schema};
use std::sync::Arc;

/// Analyzer configuration.
#[derive(Debug, Clone, Copy, Default)]
pub struct AnalyzeConfig {
    /// Worker threads for the conflict and reachability fan-outs (`0` =
    /// auto: `ER_THREADS` or sequential). Reports are byte-identical at any
    /// count.
    pub threads: usize,
}

impl AnalyzeConfig {
    /// Config with an explicit thread count.
    pub fn with_threads(threads: usize) -> Self {
        AnalyzeConfig { threads }
    }
}

/// Run all three passes over a resolved multi-target rule set.
///
/// `input_schema` is the input relation's schema (rules reference input
/// attributes; no input *data* is needed — the analysis is against the
/// master). Rule indexes in witnesses and findings count through `targets`
/// in concatenation order.
///
/// # Panics
/// Panics if a rule's target differs from its [`TargetRules::target`].
pub fn analyze(
    input_schema: &Arc<Schema>,
    master: &Relation,
    targets: &[TargetRules],
    config: &AnalyzeConfig,
) -> AnalysisReport {
    analyze_with_display(input_schema, master, targets, config, None)
}

/// [`analyze`] with an optional concatenation-position → reported-index
/// map (used by [`analyze_portable`] to report file-order indexes).
pub(crate) fn analyze_with_display(
    input_schema: &Arc<Schema>,
    master: &Relation,
    targets: &[TargetRules],
    config: &AnalyzeConfig,
    display_map: Option<&[usize]>,
) -> AnalysisReport {
    for t in targets {
        for r in &t.rules {
            assert_eq!(r.target(), t.target, "rule target mismatch in TargetRules");
        }
    }
    let display = |g: usize| display_map.map_or(g, |m| m[g]);
    let pool = WorkerPool::new(er_par::resolve_threads(config.threads));
    let num_rules: usize = targets.iter().map(|t| t.rules.len()).sum();

    let termination = graph::termination_pass(input_schema, targets, &display);
    let conflicts = conflict::conflict_pass(master, targets, &pool, &display);
    let confluence = confluence::confluence_pass(master, targets, &pool, &display);
    let profile = MasterProfile::new(master);
    let unreachable =
        reach::reachability_pass(input_schema, master, &profile, targets, &pool, &display);

    // Spans need a relation over the input schema for the rule printer; the
    // master's pool holds every interned value.
    let empty_input = Relation::empty(Arc::clone(input_schema), Arc::clone(master.pool()));
    let mut spans: std::collections::HashMap<usize, String> = Default::default();
    let mut g = 0usize;
    for t in targets {
        for r in &t.rules {
            spans.insert(
                display(g),
                r.display(&empty_input, master.schema()).to_string(),
            );
            g += 1;
        }
    }
    let span = |idx: usize| spans.get(&idx).cloned().unwrap_or_default();
    let findings =
        report::build_findings(&termination, &conflicts, &confluence, &unreachable, &span);
    AnalysisReport {
        num_rules,
        num_targets: targets.len(),
        master_rows: master.num_rows(),
        generation: master.generation(),
        termination,
        conflicts,
        confluence,
        unreachable,
        findings,
    }
}

/// The runtime side of ER008: `None` when the chase converged, otherwise a
/// Warning finding reporting that [`er_rules::ChaseConfig::max_rounds`] cut
/// the chase off before a fixpoint — the situation the static certificate
/// exists to rule out.
pub fn cap_finding(result: &ChaseResult, config: &ChaseConfig) -> Option<Finding> {
    if result.converged {
        return None;
    }
    Some(Finding {
        code: DiagnosticCode::Er008,
        severity: Severity::Warning,
        rule: 0,
        related: None,
        span: "<chase>".to_string(),
        message: format!(
            "chase stopped at the round cap ({} round{}) without reaching a fixpoint; \
             {} fix{} committed, more may remain",
            config.max_rounds,
            if config.max_rounds == 1 { "" } else { "s" },
            result.fixes.len(),
            if result.fixes.len() == 1 { "" } else { "es" },
        ),
        note: Some(
            "certify termination with er-analyze and run ChaseConfig::uncapped(), or raise \
             max_rounds"
                .to_string(),
        ),
    })
}
