//! The sharded engine: N independent [`IncrEngine`]s behind per-shard
//! read/write locks, a global row-order ledger for reconstructing the
//! combined master, and the fan-out/merge logic for repairs and appends.
//!
//! A repair fans the non-empty shard sub-batches out over an
//! [`er_par::WorkerPool`] (one worker per shard) and merges the answers in
//! ascending shard order. A request that routes to one shard runs inline on
//! the caller's thread; when several shards run, each shard's own group
//! fan-out runs inline inside its pool worker (the pool never nests).
//!
//! Lock discipline (deadlock freedom): every multi-lock acquisition takes
//! the order ledger first, then the shard locks in ascending shard id.
//! Repairs take only individual shard read locks; appends take everything.

use crate::plan::{Route, ShardPlan};
use er_incr::{AppendOutcome, IncrCounters, IncrEngine};
use er_par::WorkerPool;
use er_rules::{BatchError, EditingRule, RepairReport, VoteStats};
use er_table::{AttrId, Code, Relation, RelationBuilder, Value};
use parking_lot::{RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Result of a sharded repair: per-row predictions, winning scores and
/// candidate counts, bitwise identical to the single-engine
/// [`RepairReport`] on the same batch. The single engine's `rules_applied`
/// counter is *not* exactly mergeable across shards (a rule may apply on
/// several shards) and is deliberately absent.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedRepair {
    /// Predicted `Y` code per input row (`None` = no rule applied).
    pub predictions: Vec<Option<Code>>,
    /// Accumulated certainty-score mass of the winning candidate per row.
    pub scores: Vec<f64>,
    /// Distinct candidate fixes that received votes per row.
    pub candidates: Vec<usize>,
}

impl From<RepairReport> for ShardedRepair {
    fn from(report: RepairReport) -> Self {
        ShardedRepair {
            predictions: report.predictions,
            scores: report.scores,
            candidates: report.candidates,
        }
    }
}

/// Aggregate shard-level counters for the serve `stats` op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardStats {
    /// Number of shards.
    pub shards: usize,
    /// Request rows routed to exactly one shard (lifetime).
    pub routed: u64,
    /// Request rows broadcast to every shard (lifetime).
    pub broadcast: u64,
    /// Master rows on the fullest shard.
    pub rows_max: u64,
    /// Master rows across all shards.
    pub rows_total: u64,
}

impl ShardStats {
    /// Placement skew: `rows_max * shards / rows_total`. 1.0 is a perfect
    /// spread, `shards as f64` means everything landed on one shard (the
    /// degenerate no-common-pair plan reports exactly that).
    pub fn imbalance(&self) -> f64 {
        if self.rows_total == 0 {
            1.0
        } else {
            (self.rows_max * self.shards as u64) as f64 / self.rows_total as f64
        }
    }
}

/// N independent engines plus the placement plan that keeps them exact.
pub struct ShardedEngine {
    plan: ShardPlan,
    /// Generation the original master had when the shards were carved out
    /// of it (`gather` resets per-shard generations to 0, so the aggregate
    /// generation is `base + Σ per-shard`). 0 in the single-shard case,
    /// which keeps the engine byte-compatible with the unsharded path.
    base_generation: u64,
    shards: Vec<RwLock<IncrEngine>>,
    /// Home shard of every master row in global arrival order; the key to
    /// rebuilding the combined master exactly as the single engine saw it.
    order: RwLock<Vec<u32>>,
    routed: AtomicU64,
    broadcast: AtomicU64,
}

impl std::fmt::Debug for ShardedEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedEngine")
            .field("plan", &self.plan)
            .field("base_generation", &self.base_generation)
            .field("shards", &self.shards.len())
            .finish()
    }
}

impl ShardedEngine {
    /// Partition `master` into `shards` engines for `rules` targeting
    /// `target`, each repairing with up to `threads` workers (0 = auto).
    ///
    /// `shards <= 1` keeps the original relation (and its generation)
    /// intact on a single shard — exactly the unsharded engine.
    pub fn new(
        master: Relation,
        target: (AttrId, AttrId),
        rules: Vec<EditingRule>,
        threads: usize,
        shards: usize,
    ) -> Result<Self, BatchError> {
        let plan = ShardPlan::new(shards, &rules);
        let n = plan.shards();
        let (base_generation, order, masters) = if n == 1 {
            (0, vec![0u32; master.num_rows()], vec![master])
        } else {
            let mut order = Vec::with_capacity(master.num_rows());
            let mut rows_per: Vec<Vec<usize>> = vec![Vec::new(); n];
            for row in 0..master.num_rows() {
                let shard = match plan.key() {
                    Some((_, xm)) => plan.place(&master.value(row, xm)),
                    None => 0,
                };
                order.push(shard as u32);
                rows_per[shard].push(row);
            }
            let masters = rows_per.iter().map(|rows| master.gather(rows)).collect();
            (master.generation(), order, masters)
        };
        let shards = masters
            .into_iter()
            .map(|sub| IncrEngine::new(sub, target, rules.clone(), threads).map(RwLock::new))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ShardedEngine {
            plan,
            base_generation,
            shards,
            order: RwLock::new(order),
            routed: AtomicU64::new(0),
            broadcast: AtomicU64::new(0),
        })
    }

    /// The placement plan.
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Lifetime count of request rows routed to exactly one shard.
    pub fn routed(&self) -> u64 {
        self.routed.load(Ordering::Relaxed)
    }

    /// Lifetime count of request rows broadcast to every shard.
    pub fn broadcast(&self) -> u64 {
        self.broadcast.load(Ordering::Relaxed)
    }

    /// Repair one batch: route each row by the plan, fan the non-empty
    /// sub-batches out to their shards over the worker pool, and merge the
    /// answers in ascending shard order — bitwise identical to the single
    /// engine on the same batch. The first shard error in shard order wins;
    /// the choice matters only for the inherently timing-dependent
    /// `DeadlineExceeded`, since every other error is identical across
    /// shards (same rules, schema, and pool everywhere).
    pub fn repair_batch(
        &self,
        batch: &Relation,
        deadline: Option<Instant>,
    ) -> Result<ShardedRepair, BatchError> {
        let n = self.shards.len();
        if n == 1 {
            self.routed
                .fetch_add(batch.num_rows() as u64, Ordering::Relaxed);
            let shard = self.shards[0].read();
            return Ok(run_repair(&shard, batch, deadline)?.into());
        }
        let rows = batch.num_rows();
        let key_x = self.plan.key().map(|(x, _)| x);
        let mut lists: Vec<Vec<usize>> = vec![Vec::new(); n];
        let (mut routed, mut broadcast) = (0u64, 0u64);
        for row in 0..rows {
            let route = match key_x {
                None => Route::To(0),
                Some(x) => self.plan.route(&batch.value(row, x)),
            };
            match route {
                Route::To(s) => {
                    routed += 1;
                    lists[s].push(row);
                }
                Route::Broadcast => {
                    broadcast += 1;
                    for list in &mut lists {
                        list.push(row);
                    }
                }
            }
        }
        self.routed.fetch_add(routed, Ordering::Relaxed);
        self.broadcast.fetch_add(broadcast, Ordering::Relaxed);

        let busy: Vec<usize> = (0..n).filter(|&s| !lists[s].is_empty()).collect();
        let results = WorkerPool::new(n).map(&busy, |&s| {
            run_repair(&self.shards[s].read(), &batch.gather(&lists[s]), deadline)
        });
        let mut merged = ShardedRepair {
            predictions: vec![None; rows],
            scores: vec![0.0; rows],
            candidates: vec![0; rows],
        };
        // A routed row is in exactly one shard's list. A broadcast row — NULL
        // routing key, and the routing pair is in every rule's LHS — fires
        // no rule on any shard, so every shard answers it with the same
        // `(None, 0.0, 0)` and overwriting it changes nothing.
        for (&s, result) in busy.iter().zip(results) {
            let report = result?;
            for (local, &row) in lists[s].iter().enumerate() {
                merged.predictions[row] = report.predictions[local];
                merged.scores[row] = report.scores[local];
                merged.candidates[row] = report.candidates[local];
            }
        }
        Ok(merged)
    }

    /// Take every write lock (order ledger first, shards ascending) for an
    /// all-or-nothing append. The guard lets the caller preview the
    /// combined post-append master for analysis gates under the *same*
    /// locks the commit will use — no TOCTOU window.
    pub fn begin_append(&self) -> AppendGuard<'_> {
        AppendGuard {
            plan: &self.plan,
            base_generation: self.base_generation,
            order: self.order.write(),
            shards: self.shards.iter().map(|s| s.write()).collect(),
        }
    }

    /// Append without a gate: two-phase validate-then-commit.
    pub fn append_rows(&self, rows: &[Vec<Value>]) -> Result<AppendOutcome, BatchError> {
        self.begin_append().commit(rows)
    }

    /// Take every read lock for consistent aggregate reads.
    pub fn read_view(&self) -> ReadView<'_> {
        ReadView {
            base_generation: self.base_generation,
            order: self.order.read(),
            shards: self.shards.iter().map(|s| s.read()).collect(),
        }
    }

    /// Aggregate shard counters (takes the read locks briefly).
    pub fn shard_stats(&self) -> ShardStats {
        let view = self.read_view();
        let mut rows_max = 0u64;
        let mut rows_total = 0u64;
        for shard in &view.shards {
            let rows = shard.master().num_rows() as u64;
            rows_max = rows_max.max(rows);
            rows_total += rows;
        }
        ShardStats {
            shards: view.shards.len(),
            routed: self.routed(),
            broadcast: self.broadcast(),
            rows_max,
            rows_total,
        }
    }
}

fn run_repair(
    engine: &IncrEngine,
    batch: &Relation,
    deadline: Option<Instant>,
) -> Result<RepairReport, BatchError> {
    match deadline {
        Some(deadline) => engine.repair_batch_deadline(batch, deadline),
        None => engine.repair_batch(batch),
    }
}

/// Rebuild the master as the single engine would see it: rows in global
/// arrival order, codes re-pushed through a builder over the shared
/// schema/pool (no re-interning; generation ends at the row count, which is
/// what builder-built masters report on the serve path anyway).
fn combined(order: &[u32], masters: &[&Relation]) -> Relation {
    if masters.len() == 1 {
        return masters[0].clone();
    }
    let schema = masters[0].schema().clone();
    let pool = masters[0].pool().clone();
    let arity = masters[0].num_attrs();
    let mut builder = RelationBuilder::new(schema, pool);
    let mut cursors = vec![0usize; masters.len()];
    let mut codes: Vec<Code> = vec![0; arity];
    for &shard in order {
        let shard = shard as usize;
        let row = cursors[shard];
        for (attr, slot) in codes.iter_mut().enumerate() {
            *slot = masters[shard].code(row, attr);
        }
        builder.push_codes(&codes);
        cursors[shard] += 1;
    }
    builder.finish()
}

/// All shard write locks, held for the duration of one gated append.
pub struct AppendGuard<'a> {
    plan: &'a ShardPlan,
    base_generation: u64,
    order: RwLockWriteGuard<'a, Vec<u32>>,
    shards: Vec<RwLockWriteGuard<'a, IncrEngine>>,
}

impl AppendGuard<'_> {
    /// The combined master under the held locks.
    pub fn combined_master(&self) -> Relation {
        let masters: Vec<&Relation> = self.shards.iter().map(|s| s.master()).collect();
        combined(&self.order, &masters)
    }

    /// Combined master with `rows` appended — the analysis-gate preview.
    /// `None` if any row fails schema validation; the caller then calls
    /// [`AppendGuard::commit`] anyway and reports its per-row error.
    pub fn preview(&self, rows: &[Vec<Value>]) -> Option<Relation> {
        let mut master = self.combined_master();
        for row in rows {
            master.push_row_ref(row).ok()?;
        }
        Some(master)
    }

    /// Two-phase commit: validate every row in global order (phase 1, so
    /// the first offending row is reported exactly as the single engine
    /// would), then partition and commit per shard (phase 2 — infallible
    /// after phase 1, since `validate_row` is the complete append
    /// precondition and warm group indexes absorb appends in place).
    pub fn commit(mut self, rows: &[Vec<Value>]) -> Result<AppendOutcome, BatchError> {
        let n = self.shards.len();
        if n == 1 {
            let outcome = self.shards[0].append_rows(rows)?;
            self.order.extend(std::iter::repeat_n(0, rows.len()));
            return Ok(outcome);
        }
        for (i, row) in rows.iter().enumerate() {
            self.shards[0]
                .master()
                .validate_row(row)
                .map_err(|e| BatchError::AppendRow {
                    row: i,
                    message: e.to_string(),
                })?;
        }
        let mut per: Vec<Vec<Vec<Value>>> = vec![Vec::new(); n];
        let mut homes: Vec<u32> = Vec::with_capacity(rows.len());
        for row in rows {
            let shard = match self.plan.key() {
                Some((_, xm)) => self.plan.place(&row[xm]),
                None => 0,
            };
            per[shard].push(row.clone());
            homes.push(shard as u32);
        }
        for (shard, sub) in per.iter().enumerate() {
            if !sub.is_empty() {
                self.shards[shard].append_rows(sub)?;
            }
        }
        self.order.extend(homes);
        let mut master_rows = 0;
        let mut generation = self.base_generation;
        for shard in &self.shards {
            master_rows += shard.master().num_rows();
            generation += shard.generation();
        }
        Ok(AppendOutcome {
            appended: rows.len(),
            master_rows,
            generation,
            // Same warm indexes on every shard (same rule set); report the
            // per-engine count the single path reports.
            indexes_updated: self.shards[0].num_indexes(),
        })
    }
}

/// All shard read locks, for consistent aggregate reads.
pub struct ReadView<'a> {
    base_generation: u64,
    order: RwLockReadGuard<'a, Vec<u32>>,
    shards: Vec<RwLockReadGuard<'a, IncrEngine>>,
}

impl ReadView<'_> {
    /// The combined master in global arrival order.
    pub fn combined_master(&self) -> Relation {
        let masters: Vec<&Relation> = self.shards.iter().map(|s| s.master()).collect();
        combined(&self.order, &masters)
    }

    /// Total master rows across shards.
    pub fn master_rows(&self) -> usize {
        self.shards.iter().map(|s| s.master().num_rows()).sum()
    }

    /// Master rows per shard, ascending shard id.
    pub fn shard_rows(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.master().num_rows()).collect()
    }

    /// Aggregate master generation: what the single engine would report
    /// after the same construction + append history.
    pub fn generation(&self) -> u64 {
        self.base_generation + self.shards.iter().map(|s| s.generation()).sum::<u64>()
    }

    /// Aggregate rule staleness (appends since the rules were installed).
    pub fn staleness(&self) -> u64 {
        self.shards.iter().map(|s| s.staleness()).sum()
    }

    /// Summed incremental-vs-rebuild counters.
    pub fn counters(&self) -> IncrCounters {
        let mut total = IncrCounters::default();
        for shard in &self.shards {
            let c = shard.counters();
            total.incremental_updates += c.incremental_updates;
            total.rebuilds += c.rebuilds;
        }
        total
    }

    /// Summed vote statistics. Exact: every non-NULL-keyed request row is
    /// grouped and probed on exactly one shard, and NULL-keyed rows are
    /// counted on none (their signatures are NO_SIG everywhere).
    pub fn vote_stats(&self) -> VoteStats {
        let mut total = VoteStats::default();
        for shard in &self.shards {
            let v = shard.vote_stats();
            total.rows += v.rows;
            total.probes += v.probes;
        }
        total
    }

    /// Warm group indexes per shard (identical on every shard).
    pub fn num_indexes(&self) -> usize {
        self.shards[0].num_indexes()
    }

    /// Rules installed (identical on every shard).
    pub fn num_rules(&self) -> usize {
        self.shards[0].num_rules()
    }

    /// The installed rule set (identical on every shard).
    pub fn rules(&self) -> &[EditingRule] {
        self.shards[0].rules()
    }

    /// The repair target pair.
    pub fn target(&self) -> (AttrId, AttrId) {
        self.shards[0].target()
    }
}
