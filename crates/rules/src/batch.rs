//! Task-free batch repair for long-lived serving.
//!
//! [`crate::apply_rules`] is built for one-shot mining runs: it borrows a
//! [`crate::Task`] that owns both relations, and its [`crate::Evaluator`]
//! builds the master-side group indexes lazily per call site. A serving
//! process inverts that shape — the master relation and rule set are loaded
//! once and live for the lifetime of the process, while input batches
//! stream in and out. [`BatchRepairer`] holds exactly the long-lived half:
//! the master relation, the resolved rules, and one pre-built
//! [`GroupIndex`] per distinct `X_m` list (warmed at construction, shared
//! by every request), so a `repair_batch` call touches only the incoming
//! rows.
//!
//! # The signature-batched hot path
//!
//! The certainty vote of §V-B2 is embarrassingly regular: every row with
//! the same LHS code signature gets the same index probe and the same
//! candidate distribution. Instead of probing row by row, `repair` works
//! per *LHS group* (rules sharing the same `(X, X_m)` attribute list — they
//! reuse one grouping and one probe per signature):
//!
//! 1. **group** — one pass over the batch interns each row's `X` code
//!    tuple into a first-occurrence signature id, writing a row-major
//!    signature vector (`sigs[row]`, with [`NO_SIG`] for rows whose key
//!    contains a NULL). Single-attribute keys index a dense table by code;
//!    two-attribute keys pack into one `u64` probe; wider keys fall back to
//!    a generic open-addressing interner. Ids are assigned in row order, so
//!    hashing never influences the output.
//! 2. **probe** — one [`GroupIndex`] probe per distinct signature, with the
//!    distribution's `1.0/total` reciprocal computed once and the
//!    `(candidate, score)` run appended to a shared candidate arena;
//!    `ranges[sig]` records the run's bounds.
//! 3. **fan out** — each rule of the group emits a [`RuleVotes`]: the
//!    shared signature vector, candidate arena, and ranges behind `Arc`s.
//!    Pattern-free rules share them wholesale; a pattern rule clones the
//!    signature vector and blanks failing rows to [`NO_SIG`]. The grouped
//!    fold in [`crate::repair`] then expands per-signature candidate runs
//!    in tight branch-free inner loops (padded dense delta matrices when
//!    the signature count is small enough).
//!
//! The voting semantics are identical to [`crate::apply_rules_with`]: the
//! per-rule contributions are collected in parallel over the worker pool
//! and folded sequentially in rule order. Within one rule every row
//! receives at most one add per candidate, so the per-`(row, candidate)`
//! sums — and therefore the report — are byte-identical to the one-shot
//! path at any thread count, regardless of the order signature groups are
//! visited in. Scores are computed as `count * (1.0/total)` in *both*
//! paths, because a precomputed reciprocal rounds differently than a fresh
//! division.
//!
//! The previous row-at-a-time implementation is kept as
//! [`BatchRepairer::repair_batch_reference`] behind
//! `cfg(any(test, feature = "reference-path"))`, so the equivalence suite
//! and `experiments repair_bench` can assert byte-identity and measure the
//! speedup.

use crate::repair::{fold_votes, Contribution, RepairReport, RuleVotes, NO_SIG};
use crate::rule::EditingRule;
use er_par::WorkerPool;
use er_table::{AttrId, Code, GroupIndex, Relation, RowId, Value, NULL_CODE};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// LHS groups per worker-pool fan-out between deadline checks: small enough
/// that an expired deadline is noticed promptly, large enough that the
/// handoff overhead stays negligible.
const GROUP_CHUNK: usize = 8;

/// Signature groups processed between deadline checks *inside* one LHS
/// group, so a single rule over a high-cardinality batch cannot blow past
/// the deadline by the whole group's work.
const DEADLINE_STRIDE: usize = 64;

/// Largest value-pool size for which a single-attribute LHS group uses a
/// direct code→signature table (16 MiB of `u32`s) instead of the hashing
/// interner.
const DENSE_SIG_TABLE_MAX: usize = 1 << 22;

/// Errors from building a [`BatchRepairer`] or repairing a batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchError {
    /// A rule's target differs from the repairer's target pair.
    MixedTargets {
        /// Index of the offending rule.
        rule: usize,
    },
    /// The target's master attribute is out of range for the master schema.
    TargetOutOfRange,
    /// The batch relation does not share the repairer's value pool, so its
    /// dictionary codes would be meaningless against the master indexes.
    PoolMismatch,
    /// The batch relation's arity is too small to contain the target `Y` or
    /// a rule's LHS/pattern attribute.
    BatchArity {
        /// Required minimum arity.
        needed: usize,
        /// The batch's actual arity.
        got: usize,
    },
    /// The per-request deadline expired before the repair finished.
    DeadlineExceeded,
    /// An appended master row failed validation (arity or type); nothing
    /// was committed.
    AppendRow {
        /// Index of the offending row within the append batch.
        row: usize,
        /// What was wrong with it.
        message: String,
    },
}

impl std::fmt::Display for BatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BatchError::MixedTargets { rule } => {
                write!(f, "rule #{rule} has a different target than the repairer")
            }
            BatchError::TargetOutOfRange => write!(f, "target Y_m out of range for the master"),
            BatchError::PoolMismatch => {
                write!(f, "batch does not share the repairer's value pool")
            }
            BatchError::BatchArity { needed, got } => {
                write!(f, "batch has {got} attributes, rules reference {needed}")
            }
            BatchError::DeadlineExceeded => write!(f, "deadline exceeded"),
            BatchError::AppendRow { row, message } => {
                write!(f, "append rejected at row {row}: {message}")
            }
        }
    }
}

impl std::error::Error for BatchError {}

/// Lifetime vote-batching counters of a [`BatchRepairer`]: how many
/// NULL-free rows entered signature grouping versus how many distinct
/// signature probes actually hit the master indexes. Their ratio is the
/// batching payoff the serve `stats` op reports as `signature_dedup`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VoteStats {
    /// Rows that entered signature grouping (counted once per LHS group).
    pub rows: u64,
    /// Distinct-signature index probes performed.
    pub probes: u64,
}

impl VoteStats {
    /// Rows handled per distinct signature probe (`0.0` before any repair).
    pub fn dedup_ratio(&self) -> f64 {
        if self.probes == 0 {
            0.0
        } else {
            self.rows as f64 / self.probes as f64
        }
    }
}

/// Rules sharing one `(X, X_m)` LHS attribute list: they reuse a single
/// signature grouping of the batch and a single probe per distinct
/// signature, instead of regrouping per rule.
struct LhsGroup {
    /// Input-side LHS attributes (the signature key).
    x: Vec<AttrId>,
    /// Master-side LHS attributes (the warmed-index key).
    xm: Vec<AttrId>,
    /// Indices into the rule list, ascending.
    rules: Vec<usize>,
}

/// What one LHS group's worker produced.
struct GroupOutcome {
    /// Per-rule grouped votes, tagged with the rule's index.
    votes: Vec<(usize, RuleVotes)>,
    /// Rows that survived the NULL filter into grouping.
    rows: u64,
    /// Distinct signature probes performed.
    probes: u64,
}

/// Open-addressing interner assigning dense first-occurrence ids to code
/// signatures. The row-scan insertion order fixes the ids, so the hash
/// function never influences the output — it only has to be fast, and a
/// multiplicative mix over the codes beats SipHash several-fold on the
/// 1–3-code keys of real rule sets.
struct SigInterner {
    /// `slot = sig_id + 1`, `0` = empty.
    slots: Vec<u32>,
    mask: usize,
}

impl SigInterner {
    fn with_capacity(rows: usize) -> Self {
        // ≤ 50% load factor keeps probe chains short.
        let cap = (rows.max(4) * 2).next_power_of_two();
        SigInterner {
            slots: vec![0; cap],
            mask: cap - 1,
        }
    }

    fn hash(key: &[Code]) -> u64 {
        let mut h: u64 = 0x9E37_79B9_7F4A_7C15;
        for &c in key {
            h = (h ^ u64::from(c)).wrapping_mul(0xFF51_AFD7_ED55_8CCD);
            h ^= h >> 33;
        }
        h
    }

    /// Id of the `xl`-code signature at `keys[i*xl..]`, assigning the next
    /// dense id (`rep.len()`) on first occurrence. Existing entries are
    /// compared against the key slice of their representative row in `rep`,
    /// so the interner itself stores only slot tags.
    fn intern(&mut self, i: usize, keys: &[Code], xl: usize, rep: &[usize]) -> usize {
        let key = &keys[i * xl..(i + 1) * xl];
        let mut idx = Self::hash(key) as usize & self.mask;
        loop {
            let slot = self.slots[idx];
            if slot == 0 {
                let id = rep.len();
                // Invariant: capacity is ≥ 2× the row count and ids are
                // only minted once per row, so id + 1 fits in u32 whenever
                // the batch does.
                self.slots[idx] = id as u32 + 1;
                return id;
            }
            let id = (slot - 1) as usize;
            if keys[rep[id] * xl..rep[id] * xl + xl] == *key {
                return id;
            }
            idx = (idx + 1) & self.mask;
        }
    }
}

/// Deadline checks amortized over [`DEADLINE_STRIDE`] ticks, so the clock
/// is read between signature groups without a syscall per group.
struct DeadlineTicker {
    deadline: Option<Instant>,
    ticks: usize,
}

impl DeadlineTicker {
    fn new(deadline: Option<Instant>) -> Self {
        DeadlineTicker { deadline, ticks: 0 }
    }

    fn tick(&mut self) -> Result<(), BatchError> {
        self.ticks += 1;
        if self.ticks >= DEADLINE_STRIDE {
            self.ticks = 0;
            if self.deadline.is_some_and(|d| Instant::now() >= d) {
                return Err(BatchError::DeadlineExceeded);
            }
        }
        Ok(())
    }
}

/// A warmed, long-lived repair engine: master relation + rule set + one
/// pre-built group index per distinct `X_m`, amortized across every
/// [`BatchRepairer::repair_batch`] call.
pub struct BatchRepairer {
    master: Relation,
    target: (AttrId, AttrId),
    rules: Vec<EditingRule>,
    /// Pre-built master-side indexes keyed by the `X_m` attribute list.
    indexes: HashMap<Vec<AttrId>, Arc<GroupIndex>>,
    /// Rules grouped by identical `(X, X_m)` LHS list, in first-occurrence
    /// order — the unit of signature grouping and probe dedup.
    lhs_groups: Vec<LhsGroup>,
    /// Minimum input arity any rule (or the target) references.
    min_arity: usize,
    pool: WorkerPool,
    /// Lifetime [`VoteStats`] counters (relaxed atomics: `repair` is `&self`
    /// and runs concurrently behind the serve read lock).
    vote_rows: AtomicU64,
    signature_probes: AtomicU64,
}

impl std::fmt::Debug for BatchRepairer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchRepairer")
            .field("master_rows", &self.master.num_rows())
            .field("target", &self.target)
            .field("rules", &self.rules.len())
            .field("indexes", &self.indexes.len())
            .field("lhs_groups", &self.lhs_groups.len())
            .finish()
    }
}

impl BatchRepairer {
    /// Build a repairer for `rules` over `master`, targeting the input/master
    /// attribute pair `target`. Every distinct `X_m` group index is built
    /// here — the serve-mode "warm indexes once" step — fanning out over up
    /// to `threads` workers (`0` = auto: `ER_THREADS` or sequential).
    pub fn new(
        master: Relation,
        target: (AttrId, AttrId),
        rules: Vec<EditingRule>,
        threads: usize,
    ) -> Result<Self, BatchError> {
        if target.1 >= master.num_attrs() {
            return Err(BatchError::TargetOutOfRange);
        }
        let mut min_arity = target.0 + 1;
        for (i, rule) in rules.iter().enumerate() {
            if rule.target() != target {
                return Err(BatchError::MixedTargets { rule: i });
            }
            let rule_max = rule
                .x()
                .iter()
                .chain(rule.pattern_attrs().iter())
                .max()
                .map_or(0, |&a| a + 1);
            min_arity = min_arity.max(rule_max);
        }
        // Group rules by their full LHS pair list (same list ⇒ same X and
        // X_m), in first-occurrence order for a deterministic layout.
        let mut lhs_groups: Vec<LhsGroup> = Vec::new();
        let mut group_of: HashMap<Vec<(AttrId, AttrId)>, usize> = HashMap::new();
        for (i, rule) in rules.iter().enumerate() {
            let next = lhs_groups.len();
            let gi = *group_of.entry(rule.lhs().to_vec()).or_insert(next);
            if gi == next {
                lhs_groups.push(LhsGroup {
                    x: rule.x(),
                    xm: rule.xm(),
                    rules: Vec::new(),
                });
            }
            lhs_groups[gi].rules.push(i);
        }
        let pool = WorkerPool::new(threads);
        let mut xms: Vec<Vec<AttrId>> = rules.iter().map(|r| r.xm()).collect();
        xms.sort();
        xms.dedup();
        let built: Vec<Arc<GroupIndex>> = pool.map(&xms, |xm| {
            Arc::new(GroupIndex::build(&master, xm, target.1))
        });
        let indexes = xms.into_iter().zip(built).collect();
        Ok(BatchRepairer {
            master,
            target,
            rules,
            indexes,
            lhs_groups,
            min_arity,
            pool,
            vote_rows: AtomicU64::new(0),
            signature_probes: AtomicU64::new(0),
        })
    }

    /// The master relation the repairer serves from.
    pub fn master(&self) -> &Relation {
        &self.master
    }

    /// The loaded rules.
    pub fn rules(&self) -> &[EditingRule] {
        &self.rules
    }

    /// The `(Y, Y_m)` target pair.
    pub fn target(&self) -> (AttrId, AttrId) {
        self.target
    }

    /// Number of pre-built group indexes (distinct `X_m` lists).
    pub fn num_indexes(&self) -> usize {
        self.indexes.len()
    }

    /// Number of LHS groups (distinct `(X, X_m)` lists) the rules share —
    /// the unit of signature grouping and probe dedup.
    pub fn num_lhs_groups(&self) -> usize {
        self.lhs_groups.len()
    }

    /// Lifetime vote-batching counters: rows grouped vs. distinct signature
    /// probes, across every repair served so far.
    pub fn vote_stats(&self) -> VoteStats {
        VoteStats {
            rows: self.vote_rows.load(Ordering::Relaxed),
            probes: self.signature_probes.load(Ordering::Relaxed),
        }
    }

    /// Append rows (master-schema attribute order) to the master relation
    /// and delta-update every warmed group index in place — the incremental
    /// alternative to rebuilding the repairer when master data grows.
    ///
    /// Validation is all-or-nothing: every row is checked against the master
    /// schema before any is committed, so a failed append leaves the master
    /// and the indexes untouched. Returns the number of rows appended. The
    /// resulting indexes are identical to the ones a fresh
    /// [`BatchRepairer::new`] over the grown master would build (the
    /// `er-incr` equivalence suite enforces this at several thread counts).
    pub fn append_master(&mut self, rows: &[Vec<Value>]) -> Result<usize, BatchError> {
        for (i, row) in rows.iter().enumerate() {
            self.master
                .validate_row(row)
                .map_err(|e| BatchError::AppendRow {
                    row: i,
                    message: e.to_string(),
                })?;
        }
        let from_row = self
            .master
            .push_rows(rows)
            .map_err(|e| BatchError::AppendRow {
                row: 0,
                message: e.to_string(),
            })?;
        // Sequential delta updates: each index's apply_append is itself
        // deterministic, and the repair fan-out stays the only threaded part.
        for index in self.indexes.values_mut() {
            // Clone-on-write if a reader still holds an Arc from a previous
            // engine snapshot; the serving layer holds a write lock here.
            Arc::make_mut(index)
                .apply_append(&self.master, from_row)
                .map_err(|e| BatchError::AppendRow {
                    row: 0,
                    message: e.to_string(),
                })?;
        }
        Ok(rows.len())
    }

    /// Repair one batch of input rows. The report is identical to
    /// [`crate::apply_rules`] on a task built from the same batch and master.
    pub fn repair_batch(&self, batch: &Relation) -> Result<RepairReport, BatchError> {
        self.repair(batch, None)
    }

    /// Like [`BatchRepairer::repair_batch`] with a hard deadline: the LHS
    /// group fan-out is chunked and the clock is checked between chunks
    /// *and* between signature groups inside each chunk, so an overloaded
    /// server abandons a request within one stride's work even when a
    /// single rule covers an arbitrarily large batch.
    pub fn repair_batch_deadline(
        &self,
        batch: &Relation,
        deadline: Instant,
    ) -> Result<RepairReport, BatchError> {
        self.repair(batch, Some(deadline))
    }

    /// Reject batches the warm state cannot serve (shared by the batched
    /// and reference paths).
    fn validate_batch(&self, batch: &Relation) -> Result<(), BatchError> {
        if !Arc::ptr_eq(batch.pool(), self.master.pool()) {
            return Err(BatchError::PoolMismatch);
        }
        if batch.num_attrs() < self.min_arity {
            return Err(BatchError::BatchArity {
                needed: self.min_arity,
                got: batch.num_attrs(),
            });
        }
        Ok(())
    }

    fn repair(
        &self,
        batch: &Relation,
        deadline: Option<Instant>,
    ) -> Result<RepairReport, BatchError> {
        self.validate_batch(batch)?;
        // Placeholder contributions, overwritten below: every rule belongs
        // to exactly one LHS group and every group reports every rule.
        let mut contributions: Vec<Contribution> = (0..self.rules.len())
            .map(|_| Contribution::Flat(Vec::new()))
            .collect();
        let mut rows_grouped = 0u64;
        let mut probes = 0u64;
        for chunk in self.lhs_groups.chunks(GROUP_CHUNK) {
            if deadline.is_some_and(|d| Instant::now() >= d) {
                return Err(BatchError::DeadlineExceeded);
            }
            let results = self.pool.map(chunk, |group| {
                self.group_contribution(group, batch, deadline)
            });
            for result in results {
                let outcome = result?;
                rows_grouped += outcome.rows;
                probes += outcome.probes;
                for (rule, votes) in outcome.votes {
                    contributions[rule] = Contribution::Grouped(votes);
                }
            }
        }
        self.vote_rows.fetch_add(rows_grouped, Ordering::Relaxed);
        self.signature_probes.fetch_add(probes, Ordering::Relaxed);
        let report = fold_votes(batch.num_rows(), contributions);
        #[cfg(feature = "debug-invariants")]
        self.audit_report(&report);
        Ok(report)
    }

    /// Signature-batched votes of every rule in one LHS group: group the
    /// batch by LHS code signature once, probe the warmed index once per
    /// distinct signature, and emit per-rule row-major signature vectors
    /// over the shared candidate arena.
    fn group_contribution(
        &self,
        group: &LhsGroup,
        batch: &Relation,
        deadline: Option<Instant>,
    ) -> Result<GroupOutcome, BatchError> {
        let n = batch.num_rows();
        let xl = group.x.len();
        // Invariant: `new` built an index for every rule's X_m list.
        #[allow(clippy::unwrap_used)]
        let index = self.indexes.get(&group.xm).unwrap();
        // Catch silent stale reads: `append_master` must have delta-updated
        // every index to the master's current generation.
        #[cfg(feature = "debug-invariants")]
        index.assert_fresh(&self.master);

        // Pass 1 — intern every row's LHS code signature into a dense
        // first-occurrence id, row-major (`NO_SIG` where any key code is
        // NULL), working over raw column slices (no per-cell accessor
        // calls, no per-row `Vec`s). Single-attribute groups — the common
        // case — index a direct code→signature table and never hash at
        // all; wider groups go through the open-addressing interner.
        let cols: Vec<&[Code]> = group.x.iter().map(|&a| batch.column(a)).collect();
        let mut sigs: Vec<u32> = vec![NO_SIG; n];
        // Signature-key arena: the `xl` codes of signature `s` live at
        // `s*xl..(s+1)*xl`, in first-occurrence order (the probe keys).
        let mut sig_keys: Vec<Code> = Vec::new();
        let mut voting_rows = 0u64;
        let num_sigs;
        let pool_len = batch.pool().len();
        if xl == 1 && pool_len <= DENSE_SIG_TABLE_MAX {
            let col = cols[0];
            // Non-NULL codes are dense in 0..pool_len, so the code itself
            // addresses the table; u32::MAX = unseen.
            let mut table: Vec<u32> = vec![u32::MAX; pool_len];
            for (row, &c) in col.iter().enumerate() {
                if c == NULL_CODE {
                    continue;
                }
                let slot = &mut table[c as usize];
                if *slot == u32::MAX {
                    // Invariant: distinct signatures ≤ pool_len < u32::MAX.
                    *slot = sig_keys.len() as u32;
                    sig_keys.push(c);
                }
                sigs[row] = *slot;
                voting_rows += 1;
            }
            num_sigs = sig_keys.len();
        } else if xl == 2 {
            // Two-attribute groups pack both codes into one u64 and keep
            // the keys inline in the open-addressing table — one load per
            // probe, no arena indirection. `u64::MAX` can never collide
            // with a real key because the high half is a non-NULL code.
            let (ca, cb) = (cols[0], cols[1]);
            let cap = (n.max(4) * 2).next_power_of_two();
            let mask = cap - 1;
            let mut key_slots: Vec<u64> = vec![u64::MAX; cap];
            let mut id_slots: Vec<u32> = vec![0; cap];
            for row in 0..n {
                let (a, b) = (ca[row], cb[row]);
                if a == NULL_CODE || b == NULL_CODE {
                    continue;
                }
                let key = (u64::from(a) << 32) | u64::from(b);
                let mut h = (key ^ 0x9E37_79B9_7F4A_7C15).wrapping_mul(0xFF51_AFD7_ED55_8CCD);
                h ^= h >> 33;
                let mut idx = (h as usize) & mask;
                // First-occurrence ids: the hash function and table layout
                // never influence which id a signature gets.
                let id = loop {
                    let slot = key_slots[idx];
                    if slot == key {
                        break id_slots[idx];
                    }
                    if slot == u64::MAX {
                        // Invariant: distinct signatures ≤ rows < u32::MAX.
                        let id = (sig_keys.len() / 2) as u32;
                        key_slots[idx] = key;
                        id_slots[idx] = id;
                        sig_keys.push(a);
                        sig_keys.push(b);
                        break id;
                    }
                    idx = (idx + 1) & mask;
                };
                sigs[row] = id;
                voting_rows += 1;
            }
            num_sigs = sig_keys.len() / 2;
        } else {
            let mut keys: Vec<Code> = Vec::with_capacity(n * xl);
            let mut kept: Vec<RowId> = Vec::with_capacity(n);
            'rows: for row in 0..n {
                let base = keys.len();
                for col in &cols {
                    let c = col[row];
                    if c == NULL_CODE {
                        keys.truncate(base);
                        continue 'rows;
                    }
                    keys.push(c);
                }
                kept.push(row);
            }
            let mut interner = SigInterner::with_capacity(kept.len());
            // First filtered-row index carrying each signature.
            let mut rep: Vec<usize> = Vec::new();
            for (i, &row) in kept.iter().enumerate() {
                let id = interner.intern(i, &keys, xl, &rep);
                if id == rep.len() {
                    rep.push(i);
                }
                // Invariant: distinct signatures ≤ batch rows < u32::MAX.
                sigs[row] = id as u32;
            }
            num_sigs = rep.len();
            sig_keys.reserve(num_sigs * xl);
            for &i in &rep {
                sig_keys.extend_from_slice(&keys[i * xl..(i + 1) * xl]);
            }
            voting_rows = kept.len() as u64;
        }

        // Pass 2 — probe once per distinct signature: total and reciprocal
        // computed once, the NULL-free `(candidate, score)` run appended to
        // a shared arena in master-distribution order. The clock is checked
        // between signature groups so one huge rule cannot blow past the
        // deadline.
        let mut ticker = DeadlineTicker::new(deadline);
        let mut cands: Vec<(Code, f64)> = Vec::new();
        let mut ranges: Vec<(u32, u32)> = Vec::with_capacity(num_sigs);
        for s in 0..num_sigs {
            ticker.tick()?;
            let key = &sig_keys[s * xl..(s + 1) * xl];
            let dist = index.get(key);
            let total: u32 = dist
                .iter()
                .filter(|&&(c, _)| c != NULL_CODE)
                .map(|&(_, m)| m)
                .sum();
            // Invariant: the arena is bounded by signatures × master Y_m
            // values, far below u32::MAX for any batch the engine accepts.
            let start = cands.len() as u32;
            if total > 0 {
                let recip = 1.0 / total as f64;
                for &(code, count) in dist {
                    if code == NULL_CODE {
                        continue;
                    }
                    cands.push((code, count as f64 * recip));
                }
            }
            ranges.push((start, cands.len() as u32));
        }
        let sigs = Arc::new(sigs);
        let cands = Arc::new(cands);
        let ranges = Arc::new(ranges);

        // Fan out per rule: pattern-free rules share the signature vector
        // and arenas wholesale; pattern rules clone the vector and blank
        // the rows their pattern rejects. Each condition's attribute kind
        // is resolved *once* here, so the per-row loop is plain code
        // compares plus a numeric decode only where a range condition
        // demands one.
        let mut votes = Vec::with_capacity(group.rules.len());
        for &ri in &group.rules {
            let rule = &self.rules[ri];
            if rule.pattern().is_empty() {
                votes.push((
                    ri,
                    RuleVotes {
                        sigs: Arc::clone(&sigs),
                        cands: Arc::clone(&cands),
                        ranges: Arc::clone(&ranges),
                        // Every signature has ≥ 1 row, so the rule votes
                        // iff any signature found candidates.
                        live: !cands.is_empty(),
                    },
                ));
            } else {
                let conds: Vec<(&[Code], AttrId, &crate::rule::Pred, bool)> = rule
                    .pattern()
                    .iter()
                    .map(|c| {
                        (
                            batch.column(c.attr),
                            c.attr,
                            &c.pred,
                            batch.schema().attr(c.attr).is_continuous(),
                        )
                    })
                    .collect();
                let matches = |row: RowId| {
                    conds.iter().all(|&(col, attr, pred, continuous)| {
                        let numeric = if continuous {
                            batch.value(row, attr).as_f64()
                        } else {
                            None
                        };
                        pred.matches(col[row], numeric)
                    })
                };
                let mut own: Vec<u32> = (*sigs).clone();
                let mut live = false;
                for (row, s) in own.iter_mut().enumerate() {
                    if *s == NO_SIG {
                        continue;
                    }
                    ticker.tick()?;
                    let (cs, ce) = ranges[*s as usize];
                    // Candidate-free signatures are blanked without even
                    // evaluating the pattern: they emit no votes either way.
                    if cs == ce || !matches(row) {
                        *s = NO_SIG;
                    } else {
                        live = true;
                    }
                }
                votes.push((
                    ri,
                    RuleVotes {
                        sigs: Arc::new(own),
                        cands: Arc::clone(&cands),
                        ranges: Arc::clone(&ranges),
                        live,
                    },
                ));
            }
        }
        Ok(GroupOutcome {
            votes,
            rows: voting_rows,
            probes: num_sigs as u64,
        })
    }

    /// The row-at-a-time reference implementation the signature-batched
    /// path replaced: per row, per rule — pattern check, key build, index
    /// probe, vote emission. Kept behind a cfg so the equivalence suite and
    /// `experiments repair_bench` can assert byte-identity and measure the
    /// speedup; it is not part of the serving surface.
    #[cfg(any(test, feature = "reference-path"))]
    pub fn repair_batch_reference(&self, batch: &Relation) -> Result<RepairReport, BatchError> {
        self.validate_batch(batch)?;
        let contributions: Vec<Contribution> = self
            .pool
            .map(&self.rules, |rule| {
                Contribution::Flat(self.contribution_reference(rule, batch))
            })
            .into_iter()
            .collect();
        Ok(fold_votes(batch.num_rows(), contributions))
    }

    /// One rule's `(row, candidate, certainty)` votes over the batch, row
    /// at a time — the same contributions [`crate::apply_rules_with`]
    /// collects, with the pattern cover computed inline.
    #[cfg(any(test, feature = "reference-path"))]
    fn contribution_reference(
        &self,
        rule: &EditingRule,
        batch: &Relation,
    ) -> Vec<(RowId, Code, f64)> {
        let numeric = |attr: AttrId, row: RowId| {
            if batch.schema().attr(attr).is_continuous() {
                batch.value(row, attr).as_f64()
            } else {
                None
            }
        };
        let x = rule.x();
        // Invariant: `new` built an index for every rule's X_m list.
        #[allow(clippy::unwrap_used)]
        let group = self.indexes.get(&rule.xm()).unwrap();
        let mut out = Vec::new();
        let mut key = Vec::with_capacity(x.len());
        'rows: for row in 0..batch.num_rows() {
            if !rule.pattern_matches(batch, row, numeric) {
                continue;
            }
            key.clear();
            for &a in &x {
                let c = batch.code(row, a);
                if c == NULL_CODE {
                    continue 'rows;
                }
                key.push(c);
            }
            let dist = group.get(&key);
            let total: u32 = dist
                .iter()
                .filter(|&&(c, _)| c != NULL_CODE)
                .map(|&(_, n)| n)
                .sum();
            if total == 0 {
                continue;
            }
            // The same arithmetic shape as the batched path (see the module
            // docs): `count * (1/total)`, reciprocal computed once.
            let recip = 1.0 / total as f64;
            for &(code, count) in dist {
                if code == NULL_CODE {
                    continue;
                }
                out.push((row, code, count as f64 * recip));
            }
        }
        out
    }

    /// Certain-fix audit: every prediction must copy a value actually
    /// present in the master's `Y_m` column — the repair engine only ever
    /// transfers master data, never invents values.
    #[cfg(feature = "debug-invariants")]
    fn audit_report(&self, report: &RepairReport) {
        let valid: std::collections::HashSet<Code> = self
            .master
            .column(self.target.1)
            .iter()
            .copied()
            .filter(|&c| c != NULL_CODE)
            .collect();
        for (row, pred) in report.predictions.iter().enumerate() {
            if let Some(code) = pred {
                assert!(
                    valid.contains(code),
                    "BatchRepairer: prediction for row {row} is not a master Y_m value"
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matching::SchemaMatch;
    use crate::repair::apply_rules;
    use crate::rule::Condition;
    use crate::task::Task;
    use er_table::{Attribute, Pool, RelationBuilder, Schema, Value};

    fn fixture() -> (Relation, Relation) {
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
        b.push_row(vec![s("BJ"), s("imports")]).unwrap();
        b.push_row(vec![s("SZ"), s("patient")]).unwrap();
        let input = b.finish();
        let mut bm = RelationBuilder::new(m_schema, pool);
        bm.push_row(vec![s("HZ"), s("patient")]).unwrap();
        bm.push_row(vec![s("HZ"), s("patient")]).unwrap();
        bm.push_row(vec![s("BJ"), s("imports")]).unwrap();
        bm.push_row(vec![s("BJ"), s("imports")]).unwrap();
        bm.push_row(vec![s("BJ"), s("patient")]).unwrap();
        let master = bm.finish();
        (input, master)
    }

    fn rules(input: &Relation) -> Vec<EditingRule> {
        let bj = input.pool().code_of(&Value::str("BJ")).unwrap();
        vec![
            EditingRule::new(vec![(0, 0)], (1, 1), vec![]),
            EditingRule::new(vec![(0, 0)], (1, 1), vec![Condition::eq(0, bj)]),
        ]
    }

    fn assert_reports_bitwise_equal(a: &RepairReport, b: &RepairReport) {
        assert_eq!(a.predictions, b.predictions);
        let bits = |r: &RepairReport| r.scores.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(a), bits(b), "scores diverged bitwise");
        assert_eq!(a.candidates, b.candidates);
        assert_eq!(a.rules_applied, b.rules_applied);
    }

    #[test]
    fn matches_one_shot_apply_rules() {
        let (input, master) = fixture();
        let rules = rules(&input);
        let repairer = BatchRepairer::new(master.clone(), (1, 1), rules.clone(), 0).unwrap();
        let report = repairer.repair_batch(&input).unwrap();

        let task = Task::new(
            input,
            master,
            SchemaMatch::from_pairs(2, &[(0, 0), (1, 1)]),
            (1, 1),
        );
        let oneshot = apply_rules(&task, &rules);
        assert_reports_bitwise_equal(&report, &oneshot);
    }

    #[test]
    fn matches_the_row_at_a_time_reference() {
        let (input, master) = fixture();
        let repairer = BatchRepairer::new(master, (1, 1), rules(&input), 0).unwrap();
        let batched = repairer.repair_batch(&input).unwrap();
        let reference = repairer.repair_batch_reference(&input).unwrap();
        assert_reports_bitwise_equal(&batched, &reference);
        assert_eq!(batched.num_predictions(), 2);
    }

    #[test]
    fn indexes_warm_once_and_are_shared() {
        let (input, master) = fixture();
        let repairer = BatchRepairer::new(master, (1, 1), rules(&input), 0).unwrap();
        // Both rules share X_m = [0] — one index serves them both, and one
        // LHS group means one signature grouping serves them both too.
        assert_eq!(repairer.num_indexes(), 1);
        assert_eq!(repairer.num_lhs_groups(), 1);
    }

    #[test]
    fn vote_stats_count_rows_and_probes() {
        let (input, master) = fixture();
        let repairer = BatchRepairer::new(master, (1, 1), rules(&input), 0).unwrap();
        assert_eq!(repairer.vote_stats(), VoteStats::default());
        repairer.repair_batch(&input).unwrap();
        // One LHS group, 3 NULL-free rows, 3 distinct city signatures.
        let stats = repairer.vote_stats();
        assert_eq!(stats, VoteStats { rows: 3, probes: 3 });
        assert!((stats.dedup_ratio() - 1.0).abs() < 1e-12);
        // Counters are cumulative across repairs.
        repairer.repair_batch(&input).unwrap();
        assert_eq!(repairer.vote_stats(), VoteStats { rows: 6, probes: 6 });
    }

    #[test]
    fn shared_signatures_dedup_probes() {
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
        for _ in 0..10 {
            b.push_row(vec![s("HZ"), Value::Null]).unwrap();
        }
        let input = b.finish();
        let mut bm = RelationBuilder::new(m_schema, pool);
        bm.push_row(vec![s("HZ"), s("patient")]).unwrap();
        let master = bm.finish();
        let rules = vec![EditingRule::new(vec![(0, 0)], (1, 1), vec![])];
        let repairer = BatchRepairer::new(master, (1, 1), rules, 0).unwrap();
        repairer.repair_batch(&input).unwrap();
        // Ten identical rows collapse to a single probe.
        let stats = repairer.vote_stats();
        assert_eq!(
            stats,
            VoteStats {
                rows: 10,
                probes: 1
            }
        );
        assert!((stats.dedup_ratio() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn repeated_batches_reuse_the_warm_state() {
        let (input, master) = fixture();
        let repairer = BatchRepairer::new(master, (1, 1), rules(&input), 0).unwrap();
        let first = repairer.repair_batch(&input).unwrap();
        let gathered = input.gather(&[2, 0]);
        let second = repairer.repair_batch(&gathered).unwrap();
        assert_eq!(second.predictions[1], first.predictions[0]);
        assert_eq!(second.predictions[0], first.predictions[2]);
    }

    #[test]
    fn mixed_targets_rejected() {
        let (input, master) = fixture();
        let mut rs = rules(&input);
        rs.push(EditingRule::new(vec![(1, 1)], (0, 0), vec![]));
        assert_eq!(
            BatchRepairer::new(master, (1, 1), rs, 0).unwrap_err(),
            BatchError::MixedTargets { rule: 2 }
        );
    }

    #[test]
    fn foreign_pool_rejected() {
        let (input, master) = fixture();
        let repairer = BatchRepairer::new(master, (1, 1), rules(&input), 0).unwrap();
        let foreign = Relation::empty(Arc::clone(input.schema()), Arc::new(Pool::new()));
        assert_eq!(
            repairer.repair_batch(&foreign).unwrap_err(),
            BatchError::PoolMismatch
        );
    }

    #[test]
    fn narrow_batch_rejected() {
        let (input, master) = fixture();
        let repairer = BatchRepairer::new(master.clone(), (1, 1), rules(&input), 0).unwrap();
        let narrow = input.project("slim", &[0]);
        assert_eq!(
            repairer.repair_batch(&narrow).unwrap_err(),
            BatchError::BatchArity { needed: 2, got: 1 }
        );
    }

    #[test]
    fn expired_deadline_is_reported() {
        let (input, master) = fixture();
        let repairer = BatchRepairer::new(master, (1, 1), rules(&input), 0).unwrap();
        let expired = Instant::now() - std::time::Duration::from_millis(1);
        assert_eq!(
            repairer.repair_batch_deadline(&input, expired).unwrap_err(),
            BatchError::DeadlineExceeded
        );
        // A generous deadline succeeds.
        let generous = Instant::now() + std::time::Duration::from_secs(60);
        assert!(repairer.repair_batch_deadline(&input, generous).is_ok());
    }

    /// Regression for the deadline-granularity fix: with a *single* rule
    /// there is only one fan-out chunk, so the old between-chunks check
    /// alone would run the entire rule to completion. The per-signature
    /// ticker must abandon the repair from inside the rule instead.
    #[test]
    fn deadline_expires_inside_a_single_huge_rule() {
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
        let mut b = RelationBuilder::new(in_schema, Arc::clone(&pool));
        // Every row a distinct signature: tens of thousands of probes
        // inside one rule, far more than 100µs of work.
        for i in 0..60_000 {
            b.push_row(vec![Value::str(format!("C{i}")), Value::Null])
                .unwrap();
        }
        let input = b.finish();
        let mut bm = RelationBuilder::new(m_schema, pool);
        bm.push_row(vec![Value::str("C0"), Value::str("patient")])
            .unwrap();
        let master = bm.finish();
        let rules = vec![EditingRule::new(vec![(0, 0)], (1, 1), vec![])];
        let repairer = BatchRepairer::new(master, (1, 1), rules, 0).unwrap();
        let tight = Instant::now() + std::time::Duration::from_micros(100);
        assert_eq!(
            repairer.repair_batch_deadline(&input, tight).unwrap_err(),
            BatchError::DeadlineExceeded
        );
        // Without a deadline the same batch completes.
        assert!(repairer.repair_batch(&input).is_ok());
    }

    #[test]
    fn append_master_matches_rebuilt_repairer() {
        let (input, master) = fixture();
        let rules = rules(&input);
        let mut incremental = BatchRepairer::new(master.clone(), (1, 1), rules.clone(), 0).unwrap();
        let s = Value::str;
        // Flip HZ's majority to "imports" and introduce a brand-new city.
        let extra = vec![
            vec![s("HZ"), s("imports")],
            vec![s("HZ"), s("imports")],
            vec![s("HZ"), s("imports")],
            vec![s("SZ"), s("no symptoms")],
        ];
        assert_eq!(incremental.append_master(&extra).unwrap(), 4);

        let mut grown = master;
        grown.push_rows(&extra).unwrap();
        let rebuilt = BatchRepairer::new(grown, (1, 1), rules, 0).unwrap();

        let a = incremental.repair_batch(&input).unwrap();
        let b = rebuilt.repair_batch(&input).unwrap();
        assert_reports_bitwise_equal(&a, &b);
        // The append genuinely changed the vote: SZ now has master support.
        assert!(a.predictions[2].is_some());
    }

    #[test]
    fn append_master_is_atomic_on_bad_rows() {
        let (input, master) = fixture();
        let mut repairer = BatchRepairer::new(master, (1, 1), rules(&input), 0).unwrap();
        let before = repairer.master().num_rows();
        let s = Value::str;
        let bad = vec![vec![s("HZ"), s("patient")], vec![s("only-one-cell")]];
        match repairer.append_master(&bad).unwrap_err() {
            BatchError::AppendRow { row, .. } => assert_eq!(row, 1),
            other => panic!("expected AppendRow, got {other:?}"),
        }
        assert_eq!(repairer.master().num_rows(), before);
        // The warm state still serves correctly after the rejected append.
        assert!(repairer.repair_batch(&input).is_ok());
    }

    #[test]
    fn repair_is_thread_count_invariant_bitwise() {
        let (input, master) = fixture();
        let sequential = BatchRepairer::new(master.clone(), (1, 1), rules(&input), 1).unwrap();
        let expect = sequential.repair_batch(&input).unwrap();
        for threads in [2, 8] {
            let pooled =
                BatchRepairer::new(master.clone(), (1, 1), rules(&input), threads).unwrap();
            let got = pooled.repair_batch(&input).unwrap();
            assert_reports_bitwise_equal(&got, &expect);
            assert_eq!(pooled.vote_stats(), sequential.vote_stats());
        }
    }

    #[test]
    fn empty_rule_set_predicts_nothing() {
        let (input, master) = fixture();
        let repairer = BatchRepairer::new(master, (1, 1), Vec::new(), 0).unwrap();
        let report = repairer.repair_batch(&input).unwrap();
        assert_eq!(report.num_predictions(), 0);
        assert_eq!(repairer.vote_stats(), VoteStats::default());
    }
}
