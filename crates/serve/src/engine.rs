//! The warmed repair engine behind every front-end.
//!
//! [`RepairEngine`] binds the long-lived state together: the input schema
//! (incoming rows must match its attribute order), the shared value pool,
//! and an [`er_incr::IncrEngine`] whose master-side group indexes were
//! built once at load time. A `repair` call materializes the incoming rows
//! as a throwaway [`Relation`] over the *shared* pool — unseen values are
//! interned as fresh codes that by construction match nothing in the master
//! indexes, which is exactly the right semantics for foreign data — and
//! runs the certainty-score vote of §V-B2 against the warm indexes. An
//! `append` call grows the master in place: the warmed indexes are
//! delta-updated rather than rebuilt, and the engine's generation counter
//! advances so `stats` (and the ER007 lint) can report rule staleness.

use er_analyze::{
    analyze, analyze_json, diff_json, AnalysisReport, AnalyzeConfig, DiffReport, EditScope,
};
use er_incr::{AppendOutcome, IncrCounters};
use er_rules::{
    rules_from_json, rules_to_json, BatchError, EditingRule, Measures, SchemaMatch, TargetRules,
    Task, VoteStats,
};
use er_shard::{AppendGuard, ShardStats, ShardedEngine};
use er_table::{AttrId, Code, Pool, Relation, Schema, Value};
use std::sync::Arc;
use std::time::Instant;

/// One cell a repair would change.
#[derive(Debug, Clone, PartialEq)]
pub struct RepairedCell {
    /// Row index within the request batch.
    pub row: usize,
    /// Target attribute name (the engine's `Y`).
    pub attr: String,
    /// The repaired value, rendered the way the CSV writer renders it.
    pub value: String,
    /// Accumulated certainty score of the winning candidate.
    pub score: f64,
}

/// One cell a repair would change, before rendering: the code the vote
/// chose for the target attribute of a batch row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CodeFix {
    /// Row index within the batch.
    pub row: usize,
    /// The repaired value's code in the engine's pool.
    pub code: Code,
    /// Accumulated certainty score of the winning candidate.
    pub score: f64,
}

/// The result of repairing one batch.
#[derive(Debug, Clone)]
pub struct RepairOutcome {
    /// Number of rows in the batch.
    pub rows: usize,
    /// Cells whose predicted value differs from the value sent (predictions
    /// that merely confirm the current value are not repairs).
    pub cells: Vec<RepairedCell>,
}

impl RepairOutcome {
    /// Number of cells a repair would change.
    pub fn fixed(&self) -> usize {
        self.cells.len()
    }
}

/// Errors from building or running a [`RepairEngine`].
#[derive(Debug)]
pub enum EngineError {
    /// The rule set failed to parse or resolve against the task.
    Rules(String),
    /// A batch-level failure from the underlying repairer.
    Batch(BatchError),
    /// One request row could not be mapped onto the input schema.
    Row {
        /// Index of the offending row within the batch.
        row: usize,
        /// What was wrong with it.
        message: String,
    },
    /// The rule set failed the static-analysis gate (ER008 cycle or ER009
    /// conflict); the full report carries the certificates and witnesses.
    Analysis(Box<AnalysisReport>),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Rules(msg) => write!(f, "rule set rejected: {msg}"),
            EngineError::Batch(e) => write!(f, "batch repair failed: {e}"),
            EngineError::Row { row, message } => write!(f, "row {row}: {message}"),
            EngineError::Analysis(report) => write!(
                f,
                "rule set rejected by static analysis: {} error{}",
                report.errors(),
                if report.errors() == 1 { "" } else { "s" },
            ),
        }
    }
}

impl std::error::Error for EngineError {}

/// A loaded, warmed repair engine: input schema + shared pool + a sharded
/// batch repairer with pre-built master indexes. With one shard (the
/// default) this is exactly the unsharded engine; with N it partitions the
/// master by the deterministic LHS routing hash and stays bitwise identical
/// (see `er-shard`).
pub struct RepairEngine {
    schema: Arc<Schema>,
    pool: Arc<Pool>,
    matching: SchemaMatch,
    /// Canonical copy of the installed rules/target: immutable for the
    /// engine's lifetime, so analysis and JSON rendering need no shard locks.
    rules: Vec<EditingRule>,
    target: (AttrId, AttrId),
    engine: ShardedEngine,
}

impl std::fmt::Debug for RepairEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RepairEngine")
            .field("schema", &self.schema.name())
            .field("engine", &self.engine)
            .finish()
    }
}

impl RepairEngine {
    /// Build a single-shard engine from already-resolved rules. The task
    /// supplies the input schema, the shared pool, the master relation and
    /// the target.
    pub fn new(task: &Task, rules: Vec<EditingRule>, threads: usize) -> Result<Self, EngineError> {
        Self::with_shards(task, rules, threads, 1)
    }

    /// Build an engine over `shards` master partitions (0 and 1 both mean
    /// unsharded). Placement and routing follow the common LHS routing pair
    /// of the rule set; see `er-shard` for the exactness argument.
    pub fn with_shards(
        task: &Task,
        rules: Vec<EditingRule>,
        threads: usize,
        shards: usize,
    ) -> Result<Self, EngineError> {
        let engine = ShardedEngine::new(
            task.master().clone(),
            task.target(),
            rules.clone(),
            threads,
            shards,
        )
        .map_err(EngineError::Batch)?;
        Ok(RepairEngine {
            schema: Arc::clone(task.input().schema()),
            pool: Arc::clone(task.input().pool()),
            matching: task.matching().clone(),
            rules,
            target: task.target(),
            engine,
        })
    }

    /// Build an engine from a rule-set JSON document (the format
    /// [`er_rules::rules_to_json`] writes and the miners emit).
    pub fn from_json(task: &Task, rules_json: &str, threads: usize) -> Result<Self, EngineError> {
        Self::from_json_sharded(task, rules_json, threads, 1)
    }

    /// [`RepairEngine::from_json`] over `shards` master partitions.
    pub fn from_json_sharded(
        task: &Task,
        rules_json: &str,
        threads: usize,
        shards: usize,
    ) -> Result<Self, EngineError> {
        let rules =
            rules_from_json(rules_json, task).map_err(|e| EngineError::Rules(e.to_string()))?;
        Self::with_shards(task, rules, threads, shards)
    }

    /// [`RepairEngine::from_json`] behind the static-analysis gate: the
    /// document is analyzed *before* single-target resolution (so a
    /// multi-target document with an ER008 cycle is diagnosed as such, not
    /// as a target mismatch), and a set with analysis errors is rejected
    /// with [`EngineError::Analysis`] carrying the full report.
    pub fn from_json_gated(
        task: &Task,
        rules_json: &str,
        threads: usize,
    ) -> Result<Self, EngineError> {
        Self::from_json_gated_sharded(task, rules_json, threads, 1)
    }

    /// [`RepairEngine::from_json_gated`] over `shards` master partitions.
    pub fn from_json_gated_sharded(
        task: &Task,
        rules_json: &str,
        threads: usize,
        shards: usize,
    ) -> Result<Self, EngineError> {
        let report = analyze_json(rules_json, task, &AnalyzeConfig::with_threads(threads))
            .map_err(EngineError::Rules)?;
        if !report.gate_clean() {
            return Err(EngineError::Analysis(Box::new(report)));
        }
        Self::from_json_sharded(task, rules_json, threads, shards)
    }

    /// Number of loaded rules.
    pub fn num_rules(&self) -> usize {
        self.rules.len()
    }

    /// Number of pre-built master-side group indexes (identical per shard).
    pub fn num_indexes(&self) -> usize {
        self.engine.read_view().num_indexes()
    }

    /// The input schema incoming rows must follow.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// The value pool the engine shares with its master: a batch handed to
    /// [`repair_relation`](Self::repair_relation) must be encoded through
    /// it.
    pub fn pool(&self) -> &Arc<Pool> {
        &self.pool
    }

    /// Distinct values in the engine's dictionary ([`Pool::len`]). Every
    /// repaired batch interns its unseen values there for good.
    pub fn pool_values(&self) -> usize {
        self.pool.len()
    }

    /// A consistent snapshot of the full master relation the warmed indexes
    /// cover, rows in global arrival order (reassembled across shards under
    /// all shard read locks).
    pub fn master_snapshot(&self) -> Relation {
        self.engine.read_view().combined_master()
    }

    /// Number of master partitions.
    pub fn shards(&self) -> usize {
        self.engine.num_shards()
    }

    /// Aggregate shard counters (routing, broadcast, placement skew).
    pub fn shard_stats(&self) -> ShardStats {
        self.engine.shard_stats()
    }

    /// Statically analyze the loaded rule set against the engine's current
    /// master (termination, conflicts, confluence, reachability — see
    /// `er-analyze`).
    pub fn analyze(&self) -> AnalysisReport {
        self.analyze_with_master(&self.master_snapshot())
    }

    /// [`RepairEngine::analyze`] against an explicit master relation — used
    /// by the serve `append` gate to analyze a preview of the grown master
    /// before committing the rows.
    pub fn analyze_with_master(&self, master: &Relation) -> AnalysisReport {
        let targets = [TargetRules {
            target: self.target,
            rules: self.rules.clone(),
        }];
        analyze(&self.schema, master, &targets, &AnalyzeConfig::default())
    }

    /// A task equivalent to the one the engine was loaded with, rebuilt from
    /// the engine's own state (empty input over the live schema and pool —
    /// neither the diff pass nor portable resolution reads input *data*).
    fn probe_task(&self) -> Task {
        Task::new(
            Relation::empty(Arc::clone(&self.schema), Arc::clone(&self.pool)),
            self.master_snapshot(),
            self.matching.clone(),
            self.target,
        )
    }

    /// The live rule set rendered back to the portable JSON document format
    /// (the canonical bytes committed to the version store).
    pub fn rules_json(&self) -> String {
        let rules: Vec<(EditingRule, Measures)> = self
            .rules
            .iter()
            .map(|r| (r.clone(), Measures::zero()))
            .collect();
        rules_to_json(&rules, &self.probe_task())
    }

    /// Compute the edit scope of replacing the live rule set with
    /// `candidate_json` (a portable rule-set document), against the engine's
    /// current master. With a declared `scope`, verdict changes outside it
    /// are ER012 errors and [`DiffReport::gate_clean`] fails — the serve
    /// `reload` gate refuses such a promotion.
    pub fn diff_against(
        &self,
        candidate_json: &str,
        scope: Option<&EditScope>,
    ) -> Result<DiffReport, EngineError> {
        diff_json(
            &self.rules_json(),
            candidate_json,
            &self.probe_task(),
            scope,
            &AnalyzeConfig::default(),
        )
        .map_err(EngineError::Rules)
    }

    /// Name of the target attribute `Y` repairs are written to.
    pub fn target_attr(&self) -> &str {
        &self.schema.attr(self.target.0).name
    }

    /// Current master generation (rows the master has grown by since it was
    /// first built), aggregated across shards.
    pub fn generation(&self) -> u64 {
        self.engine.read_view().generation()
    }

    /// How many rows the master has grown since the rule set was installed.
    pub fn staleness(&self) -> u64 {
        self.engine.read_view().staleness()
    }

    /// Lifetime incremental-vs-rebuild counters, summed across shards.
    pub fn counters(&self) -> IncrCounters {
        self.engine.read_view().counters()
    }

    /// Lifetime vote-batching counters (rows grouped vs. distinct signature
    /// probes), summed across shards — the `signature_dedup` payoff the
    /// `stats` op reports. Exact: every routed row is grouped on exactly one
    /// shard and NULL-keyed rows on none.
    pub fn vote_stats(&self) -> VoteStats {
        self.engine.read_view().vote_stats()
    }

    /// Append rows (master-schema attribute order) to the master, updating
    /// the warmed indexes in place. All-or-nothing across all shards: a bad
    /// row rejects the whole batch and leaves every shard unchanged.
    pub fn append(&self, rows: &[Vec<Value>]) -> Result<AppendOutcome, EngineError> {
        self.begin_append().commit(rows)
    }

    /// Take every shard write lock for a gated append: the caller can
    /// preview the combined post-append master for the analysis gate and
    /// then commit under the *same* locks — no TOCTOU window between gate
    /// and mutation, and readers never observe a partial fan-out.
    pub fn begin_append(&self) -> AppendTxn<'_> {
        AppendTxn {
            guard: self.engine.begin_append(),
        }
    }

    /// Repair one batch of rows (input-schema attribute order). With a
    /// deadline, the vote is abandoned between rule chunks once the clock
    /// expires.
    pub fn repair(
        &self,
        rows: &[Vec<Value>],
        deadline: Option<Instant>,
    ) -> Result<RepairOutcome, EngineError> {
        let mut batch = Relation::empty(Arc::clone(&self.schema), Arc::clone(&self.pool));
        for (i, row) in rows.iter().enumerate() {
            batch.push_row_ref(row).map_err(|e| EngineError::Row {
                row: i,
                message: e.to_string(),
            })?;
        }
        let fixes = self.repair_relation(&batch, deadline)?;
        let attr = self.target_attr();
        let cells = fixes
            .iter()
            .map(|fix| RepairedCell {
                row: fix.row,
                attr: attr.to_string(),
                value: self.pool.value(fix.code).render().into_owned(),
                score: fix.score,
            })
            .collect();
        Ok(RepairOutcome {
            rows: rows.len(),
            cells,
        })
    }

    /// Repair a batch already encoded through the engine's [`pool`](Self::pool)
    /// in input-schema attribute order, returning the cells the vote would
    /// change, in row order, unrendered. The deadline works as in
    /// [`repair`](Self::repair).
    pub fn repair_relation(
        &self,
        batch: &Relation,
        deadline: Option<Instant>,
    ) -> Result<Vec<CodeFix>, EngineError> {
        let report = self
            .engine
            .repair_batch(batch, deadline)
            .map_err(EngineError::Batch)?;
        let (y, _) = self.target;
        let target = batch.column(y);
        Ok(report
            .predictions
            .iter()
            .zip(&report.scores)
            .zip(target)
            .enumerate()
            // A prediction that confirms the value sent is not a repair.
            .filter_map(|(row, ((pred, &score), &sent))| {
                pred.filter(|&code| code != sent)
                    .map(|code| CodeFix { row, code, score })
            })
            .collect())
    }
}

/// An in-progress append holding every shard write lock (see
/// [`RepairEngine::begin_append`]).
pub struct AppendTxn<'a> {
    guard: AppendGuard<'a>,
}

impl AppendTxn<'_> {
    /// The combined master with `rows` appended — the analysis-gate
    /// preview. `None` if any row fails schema validation; committing then
    /// reports the per-row error.
    pub fn preview(&self, rows: &[Vec<Value>]) -> Option<Relation> {
        self.guard.preview(rows)
    }

    /// Commit the rows to their home shards, all-or-nothing.
    pub fn commit(self, rows: &[Vec<Value>]) -> Result<AppendOutcome, EngineError> {
        self.guard.commit(rows).map_err(|e| match e {
            BatchError::AppendRow { row, message } => EngineError::Row { row, message },
            other => EngineError::Batch(other),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_rules::SchemaMatch;
    use er_table::{Attribute, Pool, RelationBuilder};

    pub(crate) fn covid_task() -> Task {
        let pool = Arc::new(Pool::new());
        let in_schema = Arc::new(Schema::new(
            "in",
            vec![
                Attribute::categorical("City"),
                Attribute::categorical("Case"),
            ],
        ));
        let m_schema = Arc::new(Schema::new(
            "m",
            vec![
                Attribute::categorical("City"),
                Attribute::categorical("Infection"),
            ],
        ));
        let s = Value::str;
        let mut b = RelationBuilder::new(in_schema, Arc::clone(&pool));
        b.push_row(vec![s("HZ"), Value::Null]).unwrap();
        let input = b.finish();
        let mut bm = RelationBuilder::new(m_schema, pool);
        bm.push_row(vec![s("HZ"), s("patient")]).unwrap();
        bm.push_row(vec![s("BJ"), s("imports")]).unwrap();
        bm.push_row(vec![s("BJ"), s("imports")]).unwrap();
        bm.push_row(vec![s("BJ"), s("patient")]).unwrap();
        let master = bm.finish();
        Task::new(
            input,
            master,
            SchemaMatch::from_pairs(2, &[(0, 0), (1, 1)]),
            (1, 1),
        )
    }

    fn engine() -> RepairEngine {
        let task = covid_task();
        let rules = vec![EditingRule::new(vec![(0, 0)], (1, 1), vec![])];
        RepairEngine::new(&task, rules, 0).unwrap()
    }

    #[test]
    fn repairs_a_batch_of_external_rows() {
        let e = engine();
        let rows = vec![
            vec![Value::str("HZ"), Value::Null],
            vec![Value::str("BJ"), Value::Null],
            vec![Value::str("Nowhere"), Value::Null],
        ];
        let out = e.repair(&rows, None).unwrap();
        assert_eq!(out.rows, 3);
        assert_eq!(out.fixed(), 2);
        assert_eq!(out.cells[0].row, 0);
        assert_eq!(out.cells[0].value, "patient");
        assert_eq!(out.cells[1].row, 1);
        assert_eq!(out.cells[1].value, "imports");
        assert_eq!(out.cells[0].attr, "Case");
    }

    #[test]
    fn confirming_predictions_are_not_fixes() {
        let e = engine();
        let rows = vec![vec![Value::str("HZ"), Value::str("patient")]];
        let out = e.repair(&rows, None).unwrap();
        assert_eq!(out.fixed(), 0);
    }

    #[test]
    fn wrong_arity_rows_are_row_errors() {
        let e = engine();
        let rows = vec![vec![Value::str("HZ"), Value::Null], vec![Value::str("BJ")]];
        let err = e.repair(&rows, None).unwrap_err();
        match err {
            EngineError::Row { row, .. } => assert_eq!(row, 1),
            other => panic!("expected a row error, got {other:?}"),
        }
    }

    #[test]
    fn unseen_values_intern_without_matching_anything() {
        let e = engine();
        let before = e.pool.len();
        let rows = vec![vec![Value::str("Atlantis"), Value::Null]];
        let out = e.repair(&rows, None).unwrap();
        assert_eq!(out.fixed(), 0);
        assert!(e.pool.len() > before, "foreign value should intern");
    }

    #[test]
    fn expired_deadline_is_a_batch_error() {
        let e = engine();
        let rows = vec![vec![Value::str("HZ"), Value::Null]];
        let expired = Instant::now() - std::time::Duration::from_millis(1);
        let err = e.repair(&rows, Some(expired)).unwrap_err();
        assert!(matches!(
            err,
            EngineError::Batch(BatchError::DeadlineExceeded)
        ));
    }

    #[test]
    fn append_updates_the_served_vote() {
        let e = engine();
        let rows = vec![vec![Value::str("SZ"), Value::Null]];
        assert_eq!(e.repair(&rows, None).unwrap().fixed(), 0);
        let g0 = e.generation();
        let out = e
            .append(&[
                vec![Value::str("SZ"), Value::str("no symptoms")],
                vec![Value::str("SZ"), Value::str("no symptoms")],
            ])
            .unwrap();
        assert_eq!(out.appended, 2);
        assert_eq!(out.generation, g0 + 2);
        assert_eq!(e.staleness(), 2);
        assert_eq!(e.counters().incremental_updates, 1);
        let fixed = e.repair(&rows, None).unwrap();
        assert_eq!(fixed.fixed(), 1);
        assert_eq!(fixed.cells[0].value, "no symptoms");
    }

    #[test]
    fn append_rejects_bad_rows_atomically() {
        let e = engine();
        let g0 = e.generation();
        let err = e
            .append(&[
                vec![Value::str("SZ"), Value::str("no symptoms")],
                vec![Value::str("too-short")],
            ])
            .unwrap_err();
        match err {
            EngineError::Row { row, .. } => assert_eq!(row, 1),
            other => panic!("expected a row error, got {other:?}"),
        }
        assert_eq!(e.generation(), g0);
    }

    #[test]
    fn er010_reachability_refires_across_append_generations() {
        use er_lint::DiagnosticCode;
        use er_rules::Condition;
        let task = covid_task();
        let sz = task.input().pool().intern(Value::str("SZ"));
        // City → Case only where City = "SZ": dead against the load-time
        // master (no SZ row), so the analysis warns ER010 — and the warning
        // must clear once an append gives the pattern master support.
        let rules = vec![EditingRule::new(
            vec![(0, 0)],
            (1, 1),
            vec![Condition::eq(0, sz)],
        )];
        let e = RepairEngine::new(&task, rules, 0).unwrap();
        let report = e.analyze();
        assert_eq!(report.unreachable.len(), 1);
        assert!(report
            .findings
            .iter()
            .any(|f| f.code == DiagnosticCode::Er010));
        assert!(report.gate_clean(), "ER010 is a warning, not a gate error");
        let g0 = e.generation();
        e.append(&[vec![Value::str("SZ"), Value::str("no symptoms")]])
            .unwrap();
        let report = e.analyze();
        assert_eq!(
            report.generation,
            g0 + 1,
            "analysis must see the new generation"
        );
        assert!(
            report.unreachable.is_empty(),
            "the appended SZ row revives the rule: {:?}",
            report.unreachable
        );
        assert!(report
            .findings
            .iter()
            .all(|f| f.code != DiagnosticCode::Er010));
        // The revived rule actually serves.
        let out = e
            .repair(&[vec![Value::str("SZ"), Value::Null]], None)
            .unwrap();
        assert_eq!(out.fixed(), 1);
        assert_eq!(out.cells[0].value, "no symptoms");
    }

    #[test]
    fn diff_against_certifies_the_live_set_and_flags_narrowing() {
        use er_analyze::EditScope;
        let e = engine();
        // The engine's own document is equivalent by construction.
        let report = e.diff_against(&e.rules_json(), None).unwrap();
        assert!(report.equivalent());
        assert!(report.certificate().is_some());
        // Narrowing the rule to City="HZ" drops BJ's repair: one change,
        // and with a declared HZ-only scope it is an ER012 error.
        let narrowed = r#"[{"lhs":[["City","City"]],"target":["Case","Infection"],
            "pattern":[{"Eq":{"attr":"City","value":"HZ","numeric":false}}],"measures":null}]"#;
        let report = e.diff_against(narrowed, None).unwrap();
        assert_eq!(report.changes.len(), 1);
        assert!(report.gate_clean(), "no scope declared, no ER012");
        let scope = EditScope::from_json(r#"{"City":"HZ"}"#).unwrap();
        let report = e.diff_against(narrowed, Some(&scope)).unwrap();
        assert_eq!(report.errors(), 1);
        assert!(!report.gate_clean());
    }

    #[test]
    fn sharded_engines_repair_and_append_like_the_single_engine() {
        let task = covid_task();
        let rules = vec![EditingRule::new(vec![(0, 0)], (1, 1), vec![])];
        let single = RepairEngine::new(&task, rules.clone(), 0).unwrap();
        let sharded = RepairEngine::with_shards(&task, rules, 0, 4).unwrap();
        assert_eq!(sharded.shards(), 4);
        let rows = vec![
            vec![Value::str("HZ"), Value::Null],
            vec![Value::str("BJ"), Value::Null],
            vec![Value::Null, Value::Null], // broadcast row
        ];
        let a = single.repair(&rows, None).unwrap();
        let b = sharded.repair(&rows, None).unwrap();
        assert_eq!(a.cells, b.cells);
        assert_eq!(single.generation(), sharded.generation());
        let extra = vec![vec![Value::str("SZ"), Value::str("no symptoms")]];
        let oa = single.append(&extra).unwrap();
        let ob = sharded.append(&extra).unwrap();
        assert_eq!(oa, ob);
        let stats = sharded.shard_stats();
        assert_eq!(stats.shards, 4);
        assert_eq!(stats.broadcast, 1);
        assert_eq!(stats.routed, 2);
        // The gate preview sees the combined master in arrival order.
        let txn = sharded.begin_append();
        let preview = txn.preview(&extra).unwrap();
        assert_eq!(preview.num_rows(), 6);
        drop(txn);
        let snap = sharded.master_snapshot();
        let want = single.master_snapshot();
        assert_eq!(snap.num_rows(), want.num_rows());
        for row in 0..snap.num_rows() {
            for attr in 0..snap.num_attrs() {
                assert_eq!(snap.code(row, attr), want.code(row, attr));
            }
        }
    }

    #[test]
    fn from_json_round_trips_the_miner_format() {
        let task = covid_task();
        let rules = [EditingRule::new(vec![(0, 0)], (1, 1), vec![])];
        let json = er_rules::rules_to_json(
            &rules
                .iter()
                .map(|r| (r.clone(), er_rules::Measures::zero()))
                .collect::<Vec<_>>(),
            &task,
        );
        let e = RepairEngine::from_json(&task, &json, 0).unwrap();
        assert_eq!(e.num_rules(), 1);
        assert_eq!(e.target_attr(), "Case");
    }
}
