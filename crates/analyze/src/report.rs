//! The analysis report: certificates, witnesses, findings, and the two
//! renderings (text and JSON).

use crate::conflict::ConflictWitness;
use crate::confluence::{ConfluenceCertificate, JoinProof, OrderWitness};
use crate::graph::{CycleWitness, TerminationCertificate};
use crate::reach::UnreachableRule;
use er_lint::{DiagnosticCode, Finding, Severity};
use serde::Serialize;
use serde_json::Value;

/// The outcome of analyzing a rule set: the three passes' certificates plus
/// the same findings re-expressed in the lint diagnostic model (ER008–ER010)
/// so downstream tooling sees one vocabulary.
#[derive(Debug, Clone)]
pub struct AnalysisReport {
    /// Rules analyzed.
    pub num_rules: usize,
    /// Target groups analyzed.
    pub num_targets: usize,
    /// Master rows the analysis ran against.
    pub master_rows: usize,
    /// Master generation the analysis ran against (reachability is
    /// generation-aware; re-analyze after appends).
    pub generation: u64,
    /// The termination pass's certificate.
    pub termination: TerminationCertificate,
    /// Every proven conflict (ER009).
    pub conflicts: Vec<ConflictWitness>,
    /// The confluence pass's certificate (ER013/ER014 witnesses inside).
    pub confluence: ConfluenceCertificate,
    /// Every dead rule (ER010).
    pub unreachable: Vec<UnreachableRule>,
    /// The passes' findings, sorted by `(rule, code, related)`.
    pub findings: Vec<Finding>,
}

impl AnalysisReport {
    /// Number of error-severity findings.
    pub fn errors(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Error)
            .count()
    }

    /// Number of warning-severity findings.
    pub fn warnings(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Warning)
            .count()
    }

    /// Whether the set passes the serve gate: no ER008 cycle and no ER009
    /// conflict (ER010 warnings do not block a load). ER013 non-confluence
    /// is an error in the report but does not block the gate either: a
    /// non-confluent set still serves correctly on the deterministic
    /// rule-order repair path — it is only refused the confluence
    /// certificate.
    pub fn gate_clean(&self) -> bool {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Error)
            .all(|f| f.code == er_lint::DiagnosticCode::Er013)
    }

    /// The findings as a plain lint [`er_lint::Report`] (e.g. to merge with
    /// linter output).
    pub fn lint_report(&self) -> er_lint::Report {
        er_lint::Report {
            num_rules: self.num_rules,
            findings: self.findings.clone(),
        }
    }

    /// Render the certificates and findings as text.
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "analysis: {} rule{} over {} target{}; master: {} row{} (generation {})",
            self.num_rules,
            plural(self.num_rules),
            self.num_targets,
            plural(self.num_targets),
            self.master_rows,
            plural(self.master_rows),
            self.generation,
        );
        let t = &self.termination;
        if t.certified {
            let _ = writeln!(
                out,
                "termination: CERTIFIED — dependency graph is acyclic ({} attrs, {} edges, \
                 depth {}); chase reaches its fixpoint within {} round{}, uncapped runs are safe",
                t.attrs,
                t.edges,
                t.depth,
                t.rounds_bound.unwrap_or(1),
                plural(t.rounds_bound.unwrap_or(1)),
            );
            if !t.order.is_empty() {
                let _ = writeln!(out, "  order: {}", t.order.join(" → "));
            }
        } else if let Some(cycle) = &t.cycle {
            let _ = writeln!(
                out,
                "termination: NOT CERTIFIED — dependency cycle {} (via rule{} {})",
                cycle.chain(),
                plural(cycle.rules.len()),
                cycle
                    .rules
                    .iter()
                    .map(|r| format!("#{r}"))
                    .collect::<Vec<_>>()
                    .join(", "),
            );
        }
        match self.conflicts.len() {
            0 => {
                let _ = writeln!(out, "conflicts: none");
            }
            n => {
                let _ = writeln!(out, "conflicts: {n} contradicting pair{}", plural(n));
            }
        }
        let c = &self.confluence;
        if c.certified {
            let _ = writeln!(
                out,
                "confluence: CERTIFIED — {} critical pair{} join on the current master \
                 (generation {}); rule order cannot change a repair",
                c.pairs,
                plural(c.pairs),
                c.generation,
            );
        } else {
            let _ = writeln!(
                out,
                "confluence: NOT CERTIFIED — {} of {} critical pair{} diverge{}, {} join{} \
                 only by tie-break; rule order may change a repair",
                c.divergent.len(),
                c.pairs,
                plural(c.pairs),
                if c.divergent.len() == 1 { "s" } else { "" },
                c.tie_broken.len(),
                if c.tie_broken.len() == 1 { "s" } else { "" },
            );
        }
        match self.unreachable.len() {
            0 => {
                let _ = writeln!(out, "reachability: every rule can fire");
            }
            n => {
                let _ = writeln!(out, "reachability: {n} dead rule{}", plural(n));
            }
        }
        out.push('\n');
        out.push_str(&self.lint_report().render_text());
        out
    }

    /// Render the full report — certificates included — as JSON.
    pub fn render_json(&self) -> String {
        // A pure value tree; serialization is infallible by construction.
        #[allow(clippy::expect_used)]
        serde_json::to_string_pretty(self).expect("analysis report serializes")
    }
}

fn plural(n: usize) -> &'static str {
    if n == 1 {
        ""
    } else {
        "s"
    }
}

impl Serialize for TerminationCertificate {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("certified".to_string(), Value::Bool(self.certified)),
            ("attrs".to_string(), Value::Int(self.attrs as i64)),
            ("edges".to_string(), Value::Int(self.edges as i64)),
            ("depth".to_string(), Value::Int(self.depth as i64)),
            (
                "rounds_bound".to_string(),
                match self.rounds_bound {
                    Some(b) => Value::Int(b as i64),
                    None => Value::Null,
                },
            ),
            (
                "order".to_string(),
                Value::Array(self.order.iter().map(|a| Value::Str(a.clone())).collect()),
            ),
            (
                "cycle".to_string(),
                match &self.cycle {
                    Some(c) => c.to_value(),
                    None => Value::Null,
                },
            ),
        ])
    }
}

impl Serialize for CycleWitness {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            (
                "attrs".to_string(),
                Value::Array(self.attrs.iter().map(|a| Value::Str(a.clone())).collect()),
            ),
            (
                "rules".to_string(),
                Value::Array(self.rules.iter().map(|&r| Value::Int(r as i64)).collect()),
            ),
            ("chain".to_string(), Value::Str(self.chain())),
        ])
    }
}

impl Serialize for ConflictWitness {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("rule".to_string(), Value::Int(self.rule as i64)),
            ("related".to_string(), Value::Int(self.related as i64)),
            ("master_row".to_string(), Value::Int(self.master_row as i64)),
            (
                "master_tuple".to_string(),
                Value::Array(
                    self.master_tuple
                        .iter()
                        .map(|v| Value::Str(v.clone()))
                        .collect(),
                ),
            ),
            (
                "narrow_value".to_string(),
                Value::Str(self.narrow_value.clone()),
            ),
            (
                "broad_value".to_string(),
                Value::Str(self.broad_value.clone()),
            ),
            (
                "conflicting_rows".to_string(),
                Value::Int(self.conflicting_rows as i64),
            ),
        ])
    }
}

impl Serialize for ConfluenceCertificate {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("certified".to_string(), Value::Bool(self.certified)),
            ("pairs".to_string(), Value::Int(self.pairs as i64)),
            (
                "proofs".to_string(),
                Value::Array(self.proofs.iter().map(Serialize::to_value).collect()),
            ),
            (
                "divergent".to_string(),
                Value::Array(self.divergent.iter().map(Serialize::to_value).collect()),
            ),
            (
                "tie_broken".to_string(),
                Value::Array(self.tie_broken.iter().map(Serialize::to_value).collect()),
            ),
            ("generation".to_string(), Value::UInt(self.generation)),
            ("num_rules".to_string(), Value::Int(self.num_rules as i64)),
        ])
    }
}

impl Serialize for JoinProof {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("rule".to_string(), Value::Int(self.rule as i64)),
            ("related".to_string(), Value::Int(self.related as i64)),
            (
                "witness_rows".to_string(),
                Value::Int(self.witness_rows as i64),
            ),
        ])
    }
}

impl Serialize for OrderWitness {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("rule".to_string(), Value::Int(self.rule as i64)),
            ("related".to_string(), Value::Int(self.related as i64)),
            ("master_row".to_string(), Value::Int(self.master_row as i64)),
            (
                "master_tuple".to_string(),
                Value::Array(
                    self.master_tuple
                        .iter()
                        .map(|v| Value::Str(v.clone()))
                        .collect(),
                ),
            ),
            (
                "first_value".to_string(),
                Value::Str(self.first_value.clone()),
            ),
            (
                "second_value".to_string(),
                Value::Str(self.second_value.clone()),
            ),
            ("rows".to_string(), Value::Int(self.rows as i64)),
        ])
    }
}

impl Serialize for UnreachableRule {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("rule".to_string(), Value::Int(self.rule as i64)),
            ("reason".to_string(), Value::Str(self.reason.clone())),
        ])
    }
}

impl Serialize for AnalysisReport {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("num_rules".to_string(), Value::Int(self.num_rules as i64)),
            (
                "num_targets".to_string(),
                Value::Int(self.num_targets as i64),
            ),
            (
                "master_rows".to_string(),
                Value::Int(self.master_rows as i64),
            ),
            ("generation".to_string(), Value::Int(self.generation as i64)),
            ("errors".to_string(), Value::Int(self.errors() as i64)),
            ("warnings".to_string(), Value::Int(self.warnings() as i64)),
            ("termination".to_string(), self.termination.to_value()),
            (
                "conflicts".to_string(),
                Value::Array(self.conflicts.iter().map(Serialize::to_value).collect()),
            ),
            ("confluence".to_string(), self.confluence.to_value()),
            (
                "unreachable".to_string(),
                Value::Array(self.unreachable.iter().map(Serialize::to_value).collect()),
            ),
            (
                "findings".to_string(),
                Value::Array(self.findings.iter().map(Serialize::to_value).collect()),
            ),
        ])
    }
}

/// Build the lint-model findings from the three passes' outputs. `spans`
/// maps *reported* rule indexes to rendered rules.
pub(crate) fn build_findings(
    termination: &TerminationCertificate,
    conflicts: &[ConflictWitness],
    confluence: &ConfluenceCertificate,
    unreachable: &[UnreachableRule],
    span: &dyn Fn(usize) -> String,
) -> Vec<Finding> {
    let mut findings = Vec::new();
    if let Some(cycle) = &termination.cycle {
        let anchor = cycle.rules.iter().copied().min().unwrap_or(0);
        findings.push(Finding {
            code: DiagnosticCode::Er008,
            severity: Severity::Error,
            rule: anchor,
            related: None,
            span: span(anchor),
            message: format!(
                "rule set's dependency graph is cyclic: {} — no termination certificate",
                cycle.chain()
            ),
            note: Some(format!(
                "cycle induced by rule{} {}; the chase's round cap is the only bound — \
                 break the cycle or keep the cap",
                plural(cycle.rules.len()),
                cycle
                    .rules
                    .iter()
                    .map(|r| format!("#{r}"))
                    .collect::<Vec<_>>()
                    .join(", "),
            )),
        });
    }
    for c in conflicts {
        findings.push(Finding {
            code: DiagnosticCode::Er009,
            severity: Severity::Error,
            rule: c.rule,
            related: Some(c.related),
            span: span(c.rule),
            message: format!(
                "prescribes {:?} where rule #{} (a strict-subset LHS) prescribes {:?} — \
                 contradictory certain fixes on {} master-witnessed tuple{}",
                c.narrow_value,
                c.related,
                c.broad_value,
                c.conflicting_rows,
                plural(c.conflicting_rows),
            ),
            note: Some(format!(
                "witness: master row {} ({})",
                c.master_row,
                c.master_tuple.join(", ")
            )),
        });
    }
    for w in &confluence.divergent {
        findings.push(Finding {
            code: DiagnosticCode::Er013,
            severity: Severity::Error,
            rule: w.rule,
            related: Some(w.related),
            span: span(w.rule),
            message: format!(
                "critical pair with rule #{} is not joinable: applying #{} first commits \
                 {:?}, applying #{} first commits {:?} — {} master-witnessed divergence{}",
                w.related,
                w.related,
                w.first_value,
                w.rule,
                w.second_value,
                w.rows,
                plural(w.rows),
            ),
            note: Some(format!(
                "two-order witness: master row {} ({}); no confluence certificate — the \
                 two orders commit different fixes",
                w.master_row,
                w.master_tuple.join(", ")
            )),
        });
    }
    for w in &confluence.tie_broken {
        findings.push(Finding {
            code: DiagnosticCode::Er014,
            severity: Severity::Warning,
            rule: w.rule,
            related: Some(w.related),
            span: span(w.rule),
            message: format!(
                "critical pair with rule #{} joins only by tie-break: {:?} and {:?} carry \
                 exactly equal combined evidence on {} master row{}",
                w.related,
                w.first_value,
                w.second_value,
                w.rows,
                plural(w.rows),
            ),
            note: Some(format!(
                "witness: master row {} ({}); verdict-equivalent but order-fragile — the \
                 set stays on the ordered merge path",
                w.master_row,
                w.master_tuple.join(", ")
            )),
        });
    }
    for u in unreachable {
        findings.push(Finding {
            code: DiagnosticCode::Er010,
            severity: Severity::Warning,
            rule: u.rule,
            related: None,
            span: span(u.rule),
            message: format!(
                "rule can never fire against the current master: {}",
                u.reason
            ),
            note: Some(
                "generation-aware: master appends can revive the rule; re-analyze after \
                 appends or drop it"
                    .to_string(),
            ),
        });
    }
    findings.sort_by_key(|f| (f.rule, f.code, f.related));
    findings
}
