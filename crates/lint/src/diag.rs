//! The diagnostic model: stable codes, severities, findings, and the report
//! with its two renderings (rustc-style text and machine-readable JSON).

use serde::Serialize;
use serde_json::Value;

/// Stable diagnostic codes. Codes are append-only: a code never changes
/// meaning across versions, so downstream tooling can match on the string
/// form (`"ER001"`, ...) safely.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DiagnosticCode {
    /// Dangling attribute reference: a rule names an attribute that does not
    /// exist in the input or master schema.
    Er001,
    /// Unsatisfiable pattern: the pattern can never match any input tuple
    /// (contradictory conditions, an empty range or value set, or a constant
    /// outside the attribute's observed domain).
    Er002,
    /// Exact duplicate: the rule is structurally identical to an earlier
    /// rule in the set.
    Er003,
    /// Dominated rule: an earlier or later rule dominates this one
    /// (Definition 3), making it redundant (Definition 4).
    Er004,
    /// Repair conflict: two rules cover a common input tuple but prescribe
    /// different target values, making the certainty-score vote order- or
    /// tie-break-sensitive on those tuples.
    Er005,
    /// Ill-formed rule: a Definition 1 violation (target inside the LHS or
    /// pattern, repeated attributes) or a target that differs from the
    /// task's target. Such a rule cannot be resolved at all.
    Er006,
    /// Stale rule set: the master relation has grown past the generation the
    /// rules were mined (or last refreshed) at, so support/confidence
    /// measures and fill-rate statistics no longer reflect the data the
    /// rules will repair against.
    Er007,
    /// Non-terminating dependency cycle: the rule set's attribute-level
    /// read/write dependency graph is cyclic, so no weak-acyclicity
    /// termination certificate exists and the chase's round cap is the only
    /// thing bounding it. Emitted as an Error by the static pass (with the
    /// offending rule chain as witness) and as a Warning at runtime when a
    /// chase actually hits the cap without reaching a fixpoint.
    Er008,
    /// Conflicting repairs: two rules with comparable evidence (one rule's
    /// LHS is a strict subset of the other's) prescribe *different* certain
    /// fixes for the same target attribute on overlapping pattern regions,
    /// witnessed by a concrete master tuple. Loading such a set would make
    /// repairs depend on vote tie-breaks instead of agreement.
    Er009,
    /// Unreachable rule: the rule can never fire against the *current*
    /// master data — an LHS master column or the target column is entirely
    /// NULL, or a pattern condition on an LHS attribute excludes every value
    /// the matching master column holds. Generation-aware: appends can both
    /// create and clear this finding.
    Er010,
    /// Verdict-changed signature: between two rule-set versions, the repair
    /// verdict (prescribed value, or no-fix) of one master-derived LHS code
    /// signature differs, witnessed by a concrete master row. Informational:
    /// this is what an edit *does*, not necessarily what is wrong with it.
    Er011,
    /// Behavior-preservation violation: a verdict change (ER011) lies
    /// *outside* the edit scope the caller declared for the change. The
    /// model-editing discipline: an edit may change behavior inside its
    /// declared scope and must preserve it everywhere else.
    Er012,
    /// Non-confluent rule pair: two rules on the same target form a critical
    /// pair whose one-step chase states do not join — applying them in the
    /// two possible orders commits *different* certain fixes on a concrete
    /// master row. No confluence certificate exists for the set.
    Er013,
    /// Tie-break-dependent confluence: a critical pair's divergent
    /// prescriptions carry exactly equal combined evidence, so the chase
    /// converges only because the deterministic smaller-code tie-break picks
    /// the same value in both orders. Verdict-equivalent but order-fragile;
    /// such sets are refused the confluence certificate.
    Er014,
}

impl DiagnosticCode {
    /// Every code in the registry, in numeric order. This is the single
    /// source of truth for "which diagnostics exist": renderers, the README
    /// diagnostics table (checked by `scripts/check_docs.sh`), and tests all
    /// enumerate this instead of hand-maintaining string lists.
    pub const ALL: [DiagnosticCode; 14] = [
        DiagnosticCode::Er001,
        DiagnosticCode::Er002,
        DiagnosticCode::Er003,
        DiagnosticCode::Er004,
        DiagnosticCode::Er005,
        DiagnosticCode::Er006,
        DiagnosticCode::Er007,
        DiagnosticCode::Er008,
        DiagnosticCode::Er009,
        DiagnosticCode::Er010,
        DiagnosticCode::Er011,
        DiagnosticCode::Er012,
        DiagnosticCode::Er013,
        DiagnosticCode::Er014,
    ];

    /// Look a code up by its stable string form (`"ER009"` -> `Er009`).
    pub fn parse(s: &str) -> Option<DiagnosticCode> {
        DiagnosticCode::ALL
            .iter()
            .copied()
            .find(|c| c.as_str() == s)
    }

    /// The stable string form, e.g. `"ER001"`.
    pub fn as_str(self) -> &'static str {
        match self {
            DiagnosticCode::Er001 => "ER001",
            DiagnosticCode::Er002 => "ER002",
            DiagnosticCode::Er003 => "ER003",
            DiagnosticCode::Er004 => "ER004",
            DiagnosticCode::Er005 => "ER005",
            DiagnosticCode::Er006 => "ER006",
            DiagnosticCode::Er007 => "ER007",
            DiagnosticCode::Er008 => "ER008",
            DiagnosticCode::Er009 => "ER009",
            DiagnosticCode::Er010 => "ER010",
            DiagnosticCode::Er011 => "ER011",
            DiagnosticCode::Er012 => "ER012",
            DiagnosticCode::Er013 => "ER013",
            DiagnosticCode::Er014 => "ER014",
        }
    }

    /// Short human title of the diagnostic class.
    pub fn title(self) -> &'static str {
        match self {
            DiagnosticCode::Er001 => "dangling attribute reference",
            DiagnosticCode::Er002 => "unsatisfiable pattern",
            DiagnosticCode::Er003 => "exact duplicate rule",
            DiagnosticCode::Er004 => "dominated (redundant) rule",
            DiagnosticCode::Er005 => "repair conflict",
            DiagnosticCode::Er006 => "ill-formed rule",
            DiagnosticCode::Er007 => "stale rule set",
            DiagnosticCode::Er008 => "non-terminating dependency cycle",
            DiagnosticCode::Er009 => "conflicting repairs",
            DiagnosticCode::Er010 => "unreachable rule",
            DiagnosticCode::Er011 => "verdict-changed signature",
            DiagnosticCode::Er012 => "behavior-preservation violation",
            DiagnosticCode::Er013 => "non-confluent rule pair",
            DiagnosticCode::Er014 => "tie-break-dependent confluence",
        }
    }
}

impl std::fmt::Display for DiagnosticCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl Serialize for DiagnosticCode {
    fn to_value(&self) -> Value {
        Value::Str(self.as_str().to_string())
    }
}

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Nothing is wrong: the finding describes an observed fact (e.g. an
    /// ER011 verdict change) the caller asked to be surfaced.
    Info,
    /// The rule set is still usable, but this rule wastes work or makes
    /// repairs harder to predict.
    Warning,
    /// The rule can never fire or cannot even be resolved against the task.
    Error,
}

impl Severity {
    /// Lowercase label used in both report formats.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
            Severity::Info => "info",
        }
    }
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl Serialize for Severity {
    fn to_value(&self) -> Value {
        Value::Str(self.as_str().to_string())
    }
}

/// One linter finding, anchored to a rule index in the linted set.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    /// Stable diagnostic code.
    pub code: DiagnosticCode,
    /// Severity of this particular finding (a code can surface at different
    /// severities: e.g. ER002 is an error for a contradiction but a warning
    /// for an out-of-domain constant, which only proves the rule dead on the
    /// *observed* data).
    pub severity: Severity,
    /// Zero-based index of the offending rule in the linted set.
    pub rule: usize,
    /// The other rule involved, for pairwise diagnostics (ER003–ER005).
    pub related: Option<usize>,
    /// Human-readable rendering of the offending rule (the "span").
    pub span: String,
    /// What is wrong.
    pub message: String,
    /// Optional elaboration (the contradicting condition, the dominating
    /// rule, an example conflicting tuple, ...).
    pub note: Option<String>,
}

impl Serialize for Finding {
    fn to_value(&self) -> Value {
        let obj = vec![
            ("code".to_string(), self.code.to_value()),
            ("severity".to_string(), self.severity.to_value()),
            ("rule".to_string(), Value::Int(self.rule as i64)),
            (
                "related".to_string(),
                match self.related {
                    Some(r) => Value::Int(r as i64),
                    None => Value::Null,
                },
            ),
            ("span".to_string(), Value::Str(self.span.clone())),
            ("message".to_string(), Value::Str(self.message.clone())),
            (
                "note".to_string(),
                match &self.note {
                    Some(n) => Value::Str(n.clone()),
                    None => Value::Null,
                },
            ),
        ];
        Value::Object(obj)
    }
}

/// The result of linting a rule set.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Number of rules that were linted.
    pub num_rules: usize,
    /// All findings, sorted by (rule, code).
    pub findings: Vec<Finding>,
}

impl Report {
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

    /// Whether the set produced no findings at all.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// All findings with a given code.
    pub fn with_code(&self, code: DiagnosticCode) -> Vec<&Finding> {
        self.findings.iter().filter(|f| f.code == code).collect()
    }

    /// Canonical ordering: by rule index, then code, then related rule.
    pub(crate) fn sort(&mut self) {
        self.findings.sort_by_key(|f| (f.rule, f.code, f.related));
    }

    /// Render the report in a rustc-style text format:
    ///
    /// ```text
    /// warning[ER004]: dominated (redundant) rule
    ///   --> rule #2: ((City, City)) -> (Case, Infection), t_p(City="HZ")
    ///   = note: dominated by rule #0
    ///
    /// rule set: 3 rules, 0 errors, 1 warning
    /// ```
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for f in &self.findings {
            let _ = writeln!(out, "{}[{}]: {}", f.severity, f.code, f.message);
            let _ = writeln!(out, "  --> rule #{}: {}", f.rule, f.span);
            if let Some(note) = &f.note {
                let _ = writeln!(out, "  = note: {note}");
            }
            out.push('\n');
        }
        let _ = writeln!(
            out,
            "rule set: {} rule{}, {} error{}, {} warning{}",
            self.num_rules,
            plural(self.num_rules),
            self.errors(),
            plural(self.errors()),
            self.warnings(),
            plural(self.warnings()),
        );
        out
    }

    /// Render the report as a machine-readable JSON document.
    pub fn render_json(&self) -> String {
        // Serializing a pure value tree (no maps, no user Display impls)
        // cannot fail; the Result is an artifact of the serde_json signature.
        #[allow(clippy::expect_used)]
        serde_json::to_string_pretty(self).expect("report serializes")
    }
}

impl Serialize for Report {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("num_rules".to_string(), Value::Int(self.num_rules as i64)),
            ("errors".to_string(), Value::Int(self.errors() as i64)),
            ("warnings".to_string(), Value::Int(self.warnings() as i64)),
            (
                "findings".to_string(),
                Value::Array(self.findings.iter().map(Serialize::to_value).collect()),
            ),
        ])
    }
}

fn plural(n: usize) -> &'static str {
    if n == 1 {
        ""
    } else {
        "s"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn registry_is_complete_unique_and_well_formed() {
        // Every string form is distinct and follows the ERxxx shape.
        let strings: Vec<&str> = DiagnosticCode::ALL.iter().map(|c| c.as_str()).collect();
        let unique: BTreeSet<&str> = strings.iter().copied().collect();
        assert_eq!(
            unique.len(),
            DiagnosticCode::ALL.len(),
            "duplicate code strings"
        );
        for s in &strings {
            assert_eq!(s.len(), 5, "{s} is not ERxxx");
            assert!(s.starts_with("ER"), "{s} is not ERxxx");
            assert!(
                s[2..].chars().all(|c| c.is_ascii_digit()),
                "{s} is not ERxxx"
            );
        }
        // Codes are append-only and numbered densely from ER001.
        for (i, s) in strings.iter().enumerate() {
            assert_eq!(
                s[2..].parse::<usize>().ok(),
                Some(i + 1),
                "{s} out of order"
            );
        }
        // Titles are distinct, non-empty, and every code round-trips
        // through the string lookup.
        let titles: BTreeSet<&str> = DiagnosticCode::ALL.iter().map(|c| c.title()).collect();
        assert_eq!(titles.len(), DiagnosticCode::ALL.len(), "duplicate titles");
        for code in DiagnosticCode::ALL {
            assert!(!code.title().is_empty());
            assert_eq!(DiagnosticCode::parse(code.as_str()), Some(code));
            assert_eq!(format!("{code}"), code.as_str());
            assert_eq!(code.to_value(), Value::Str(code.as_str().to_string()));
        }
        assert_eq!(DiagnosticCode::parse("ER999"), None);
    }
}
