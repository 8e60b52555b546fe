#![forbid(unsafe_code)]
//! Delta maintenance for growing master data.
//!
//! The paper's RLMiner-ft (§V-D3) exists because master relations grow
//! after deployment; this crate supplies the substrate that makes those
//! appends first-class instead of rebuild-the-world events. It builds on
//! two lower layers:
//!
//! * [`er_table::Relation::generation`] — a monotonic counter bumped once
//!   per appended row, stamped into every index at build time;
//! * `apply_append(rel, from_row)` on [`er_table::KeyIndex`],
//!   [`er_table::GroupIndex`] and [`er_table::Pli`] — in-place delta
//!   updates whose result is identical to a fresh rebuild over the grown
//!   relation (this crate's equivalence suite enforces that at 1/2/8
//!   worker threads).
//!
//! [`IncrEngine`] is the serving-facing piece: it wraps an
//! [`er_rules::BatchRepairer`] and routes master appends through
//! [`er_rules::BatchRepairer::append_master`], so the warmed per-`X_m`
//! group indexes are updated in place rather than rebuilt. It also tracks
//! *rule staleness*: the generation the current rule set was mined or
//! refreshed at, versus the master's current generation — the quantity the
//! ER007 lint reports and the serve `stats` op exposes. When the drift
//! grows large, callers re-mine (e.g. RLMiner-ft fine-tuning over the
//! grown master) and install the result via [`IncrEngine::refresh_rules`].

use er_rules::{BatchError, BatchRepairer, EditingRule, RepairReport, VoteStats};
use er_table::{AttrId, Relation, Value};
use std::time::Instant;

/// What one successful [`IncrEngine::append_rows`] did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppendOutcome {
    /// Rows appended to the master.
    pub appended: usize,
    /// Master row count after the append.
    pub master_rows: usize,
    /// Master generation after the append.
    pub generation: u64,
    /// Warmed group indexes that were delta-updated in place.
    pub indexes_updated: usize,
}

/// Lifetime counters of an [`IncrEngine`]: how often the warm state was
/// maintained incrementally versus rebuilt from scratch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IncrCounters {
    /// Appends absorbed by in-place index delta updates.
    pub incremental_updates: u64,
    /// Full engine rebuilds ([`IncrEngine::refresh_rules`]).
    pub rebuilds: u64,
}

/// An append-aware repair engine: a warmed [`BatchRepairer`] plus the
/// bookkeeping that keeps it honest as the master grows.
pub struct IncrEngine {
    repairer: BatchRepairer,
    threads: usize,
    /// Master generation the current rule set was installed at.
    rules_generation: u64,
    counters: IncrCounters,
}

impl std::fmt::Debug for IncrEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IncrEngine")
            .field("repairer", &self.repairer)
            .field("generation", &self.generation())
            .field("rules_generation", &self.rules_generation)
            .field("counters", &self.counters)
            .finish()
    }
}

impl IncrEngine {
    /// Build an engine over `master` for `rules` targeting the input/master
    /// pair `target`; the warmed indexes are built once here, fanning out
    /// over up to `threads` workers (`0` = auto).
    pub fn new(
        master: Relation,
        target: (AttrId, AttrId),
        rules: Vec<EditingRule>,
        threads: usize,
    ) -> Result<Self, BatchError> {
        let repairer = BatchRepairer::new(master, target, rules, threads)?;
        let rules_generation = repairer.master().generation();
        Ok(IncrEngine {
            repairer,
            threads,
            rules_generation,
            counters: IncrCounters::default(),
        })
    }

    /// Append rows (master-schema attribute order) to the master and
    /// delta-update every warmed index in place. All-or-nothing: a bad row
    /// rejects the whole batch and leaves the engine untouched.
    pub fn append_rows(&mut self, rows: &[Vec<Value>]) -> Result<AppendOutcome, BatchError> {
        let appended = self.repairer.append_master(rows)?;
        self.counters.incremental_updates += 1;
        Ok(AppendOutcome {
            appended,
            master_rows: self.repairer.master().num_rows(),
            generation: self.generation(),
            indexes_updated: self.repairer.num_indexes(),
        })
    }

    /// Install a new rule set (e.g. freshly fine-tuned over the grown
    /// master) and rebuild the warm state for it. Resets rule staleness to
    /// zero and counts as one rebuild.
    pub fn refresh_rules(&mut self, rules: Vec<EditingRule>) -> Result<(), BatchError> {
        let master = self.repairer.master().clone();
        let target = self.repairer.target();
        self.repairer = BatchRepairer::new(master, target, rules, self.threads)?;
        self.rules_generation = self.repairer.master().generation();
        self.counters.rebuilds += 1;
        Ok(())
    }

    /// Repair one batch against the current warm state (see
    /// [`BatchRepairer::repair_batch`]).
    pub fn repair_batch(&self, batch: &Relation) -> Result<RepairReport, BatchError> {
        self.repairer.repair_batch(batch)
    }

    /// Deadline-bounded repair (see [`BatchRepairer::repair_batch_deadline`]).
    pub fn repair_batch_deadline(
        &self,
        batch: &Relation,
        deadline: Instant,
    ) -> Result<RepairReport, BatchError> {
        self.repairer.repair_batch_deadline(batch, deadline)
    }

    /// The master relation the engine serves from.
    pub fn master(&self) -> &Relation {
        self.repairer.master()
    }

    /// Current master generation.
    pub fn generation(&self) -> u64 {
        self.repairer.master().generation()
    }

    /// Master generation the current rule set was installed at.
    pub fn rules_generation(&self) -> u64 {
        self.rules_generation
    }

    /// How many rows the master has grown since the rule set was installed —
    /// the drift ER007 reports.
    pub fn staleness(&self) -> u64 {
        self.generation().saturating_sub(self.rules_generation)
    }

    /// Lifetime incremental-vs-rebuild counters.
    pub fn counters(&self) -> IncrCounters {
        self.counters
    }

    /// Lifetime vote-batching counters of the underlying repairer (rows
    /// grouped vs. distinct signature probes). Reset by
    /// [`IncrEngine::refresh_rules`], which replaces the repairer.
    pub fn vote_stats(&self) -> VoteStats {
        self.repairer.vote_stats()
    }

    /// The loaded rules.
    pub fn rules(&self) -> &[EditingRule] {
        self.repairer.rules()
    }

    /// Number of loaded rules.
    pub fn num_rules(&self) -> usize {
        self.repairer.rules().len()
    }

    /// Number of warmed per-`X_m` group indexes.
    pub fn num_indexes(&self) -> usize {
        self.repairer.num_indexes()
    }

    /// The `(Y, Y_m)` target pair.
    pub fn target(&self) -> (AttrId, AttrId) {
        self.repairer.target()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_table::{Attribute, Pool, RelationBuilder, Schema};
    use std::sync::Arc;

    fn master() -> Relation {
        let pool = Arc::new(Pool::new());
        let schema = Arc::new(Schema::new(
            "m",
            vec![
                Attribute::categorical("City"),
                Attribute::categorical("Infection"),
            ],
        ));
        let s = Value::str;
        let mut b = RelationBuilder::new(schema, pool);
        for (city, inf) in [("HZ", "patient"), ("BJ", "imports"), ("BJ", "imports")] {
            b.push_row(vec![s(city), s(inf)]).unwrap();
        }
        b.finish()
    }

    fn engine() -> IncrEngine {
        let rules = vec![EditingRule::new(vec![(0, 0)], (1, 1), vec![])];
        IncrEngine::new(master(), (1, 1), rules, 0).unwrap()
    }

    fn input_batch(e: &IncrEngine, cities: &[&str]) -> Relation {
        let schema = Arc::new(Schema::new(
            "in",
            vec![
                Attribute::categorical("City"),
                Attribute::categorical("Case"),
            ],
        ));
        let mut b = RelationBuilder::new(schema, Arc::clone(e.master().pool()));
        for c in cities {
            b.push_row(vec![Value::str(*c), Value::Null]).unwrap();
        }
        b.finish()
    }

    #[test]
    fn appends_update_generation_and_counters() {
        let mut e = engine();
        let g0 = e.generation();
        assert_eq!(e.staleness(), 0);
        let s = Value::str;
        let out = e
            .append_rows(&[
                vec![s("SZ"), s("no symptoms")],
                vec![s("SZ"), s("no symptoms")],
            ])
            .unwrap();
        assert_eq!(out.appended, 2);
        assert_eq!(out.master_rows, 5);
        assert_eq!(out.generation, g0 + 2);
        assert_eq!(e.staleness(), 2);
        assert_eq!(e.counters().incremental_updates, 1);
        assert_eq!(e.counters().rebuilds, 0);
    }

    #[test]
    fn appended_rows_are_immediately_served() {
        let mut e = engine();
        let batch = input_batch(&e, &["SZ"]);
        let before = e.repair_batch(&batch).unwrap();
        assert!(before.predictions[0].is_none());
        let s = Value::str;
        e.append_rows(&[vec![s("SZ"), s("no symptoms")]]).unwrap();
        let after = e.repair_batch(&batch).unwrap();
        let code = after.predictions[0].unwrap();
        assert_eq!(e.master().pool().value(code), Value::str("no symptoms"));
    }

    #[test]
    fn refresh_rules_resets_staleness() {
        let mut e = engine();
        let s = Value::str;
        e.append_rows(&[vec![s("SZ"), s("no symptoms")]]).unwrap();
        assert_eq!(e.staleness(), 1);
        let rules = e.rules().to_vec();
        e.refresh_rules(rules).unwrap();
        assert_eq!(e.staleness(), 0);
        assert_eq!(e.counters().rebuilds, 1);
    }

    #[test]
    fn failed_append_leaves_the_engine_untouched() {
        let mut e = engine();
        let rows = e.master().num_rows();
        let g = e.generation();
        let err = e
            .append_rows(&[vec![Value::str("SZ")]]) // wrong arity
            .unwrap_err();
        assert!(matches!(err, BatchError::AppendRow { row: 0, .. }));
        assert_eq!(e.master().num_rows(), rows);
        assert_eq!(e.generation(), g);
        assert_eq!(e.counters().incremental_updates, 0);
    }
}
