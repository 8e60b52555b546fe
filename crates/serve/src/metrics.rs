//! Serving metrics: counters plus a sliding latency window.
//!
//! Counters are lock-free atomics; repair latencies go into a fixed-size
//! ring (the last [`WINDOW`] requests) from which the `stats` op computes
//! p50/p99. Everything is monotonic except the gauges: queue depth, which
//! the server samples at snapshot time, live connections, and the engine
//! mirrors.

use crate::lock;
use serde_json::Value as Json;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Latency window size: large enough for stable tail percentiles, small
/// enough that a snapshot's sort is negligible.
const WINDOW: usize = 4096;

/// Ring buffer of the most recent repair latencies, in microseconds.
struct Reservoir {
    buf: Vec<u64>,
    next: usize,
}

impl Reservoir {
    fn push(&mut self, micros: u64) {
        if self.buf.len() < WINDOW {
            self.buf.push(micros);
        } else {
            self.buf[self.next] = micros;
        }
        self.next = (self.next + 1) % WINDOW;
    }
}

/// Shared serving metrics. One instance per [`crate::Server`], updated from
/// every front-end thread.
pub struct Metrics {
    requests: AtomicU64,
    repairs: AtomicU64,
    repaired_cells: AtomicU64,
    errors: AtomicU64,
    /// Unwinds caught at the request boundary (also counted in `errors`).
    panics: AtomicU64,
    /// Gauge: live TCP connection threads.
    connections: AtomicU64,
    overloaded: AtomicU64,
    reloads: AtomicU64,
    appends: AtomicU64,
    diffs: AtomicU64,
    rejected: AtomicU64,
    ingested_rows: AtomicU64,
    ingest_chunks: AtomicU64,
    /// Gauge, not a counter: the engine's master generation, stored after
    /// every engine-mutating op so `stats` can report it lock-free.
    engine_generation: AtomicU64,
    /// Gauges mirroring the engine's lifetime vote-batching counters
    /// (rows grouped vs. distinct signature probes), stored after every
    /// successful repair so `stats` can report the batching payoff
    /// (`signature_dedup`) lock-free.
    vote_rows: AtomicU64,
    signature_probes: AtomicU64,
    /// Shard gauges mirroring the sharded engine's counters (shard count,
    /// routed/broadcast request rows, fullest-shard and total master rows),
    /// stored after repairs and appends. `shard_imbalance` is computed from
    /// the row gauges at render time.
    shards: AtomicU64,
    shard_routed: AtomicU64,
    shard_broadcast: AtomicU64,
    shard_rows_max: AtomicU64,
    shard_rows_total: AtomicU64,
    /// Per-diagnostic-code breakdown of gate rejections, so `stats` can
    /// attribute *why* promotions were refused (BTreeMap: deterministic
    /// rendering order).
    rejected_by_code: Mutex<BTreeMap<String, u64>>,
    latencies: Mutex<Reservoir>,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics::new()
    }
}

impl Metrics {
    /// Fresh all-zero metrics.
    pub fn new() -> Self {
        Metrics {
            requests: AtomicU64::new(0),
            repairs: AtomicU64::new(0),
            repaired_cells: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            panics: AtomicU64::new(0),
            connections: AtomicU64::new(0),
            overloaded: AtomicU64::new(0),
            reloads: AtomicU64::new(0),
            appends: AtomicU64::new(0),
            diffs: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            ingested_rows: AtomicU64::new(0),
            ingest_chunks: AtomicU64::new(0),
            engine_generation: AtomicU64::new(0),
            vote_rows: AtomicU64::new(0),
            signature_probes: AtomicU64::new(0),
            shards: AtomicU64::new(1),
            shard_routed: AtomicU64::new(0),
            shard_broadcast: AtomicU64::new(0),
            shard_rows_max: AtomicU64::new(0),
            shard_rows_total: AtomicU64::new(0),
            rejected_by_code: Mutex::new(BTreeMap::new()),
            latencies: Mutex::new(Reservoir {
                buf: Vec::new(),
                next: 0,
            }),
        }
    }

    /// Count one incoming request; returns the new total (used for the
    /// periodic log line).
    pub fn record_request(&self) -> u64 {
        self.requests.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Count one completed repair with its latency and changed-cell count.
    pub fn record_repair(&self, elapsed: Duration, fixed: usize) {
        self.repairs.fetch_add(1, Ordering::Relaxed);
        self.repaired_cells
            .fetch_add(fixed as u64, Ordering::Relaxed);
        let micros = u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX);
        lock(&self.latencies).push(micros);
    }

    /// Count one request answered with an error response.
    pub fn record_error(&self) {
        self.errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one unwind caught while handling a request.
    pub(crate) fn record_panic(&self) {
        self.panics.fetch_add(1, Ordering::Relaxed);
    }

    /// A connection thread started (paired with [`Self::connection_closed`]
    /// by the TCP front-end's per-connection guard).
    pub(crate) fn connection_opened(&self) {
        self.connections.fetch_add(1, Ordering::Relaxed);
    }

    /// A connection thread ended.
    pub(crate) fn connection_closed(&self) {
        self.connections.fetch_sub(1, Ordering::Relaxed);
    }

    /// Count one request refused with the backpressure response.
    pub fn record_overloaded(&self) {
        self.overloaded.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one successful engine reload.
    pub fn record_reload(&self) {
        self.reloads.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one successful master append.
    pub fn record_append(&self) {
        self.appends.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one served `diff` comparison.
    pub fn record_diff(&self) {
        self.diffs.fetch_add(1, Ordering::Relaxed);
    }

    /// Count the rows and chunks one `repair_csv` op streamed through the
    /// chunked ingest reader.
    pub fn record_ingest(&self, rows: u64, chunks: u64) {
        self.ingested_rows.fetch_add(rows, Ordering::Relaxed);
        self.ingest_chunks.fetch_add(chunks, Ordering::Relaxed);
    }

    /// Count one reload or append refused by an analysis gate, attributing
    /// the rejection to the diagnostic codes that caused it (each distinct
    /// code counts once per rejection).
    pub fn record_rejected(&self, codes: &[&str]) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
        if !codes.is_empty() {
            let mut by_code = lock(&self.rejected_by_code);
            for code in codes {
                *by_code.entry((*code).to_string()).or_insert(0) += 1;
            }
        }
    }

    /// Update the engine-generation gauge (after load, reload, or append).
    pub fn set_engine_generation(&self, generation: u64) {
        self.engine_generation.store(generation, Ordering::Relaxed);
    }

    /// Update the vote-batching gauges from the engine's lifetime counters
    /// (after a successful repair).
    pub fn set_vote_stats(&self, rows: u64, probes: u64) {
        self.vote_rows.store(rows, Ordering::Relaxed);
        self.signature_probes.store(probes, Ordering::Relaxed);
    }

    /// Update the shard gauges from the sharded engine's counters (at load
    /// and after repairs/appends).
    pub fn set_shard_stats(
        &self,
        shards: u64,
        routed: u64,
        broadcast: u64,
        rows_max: u64,
        rows_total: u64,
    ) {
        self.shards.store(shards.max(1), Ordering::Relaxed);
        self.shard_routed.store(routed, Ordering::Relaxed);
        self.shard_broadcast.store(broadcast, Ordering::Relaxed);
        self.shard_rows_max.store(rows_max, Ordering::Relaxed);
        self.shard_rows_total.store(rows_total, Ordering::Relaxed);
    }

    /// A consistent-enough snapshot for reporting (counters are read
    /// individually; exactness across counters is not required).
    /// `pool_values` is the serving engine's dictionary size, which the
    /// caller reads from the engine.
    pub fn snapshot(&self, queue_depth: usize, pool_values: u64) -> Snapshot {
        let (p50_us, p99_us) = {
            let reservoir = lock(&self.latencies);
            let mut sorted = reservoir.buf.clone();
            drop(reservoir);
            sorted.sort_unstable();
            (percentile(&sorted, 0.50), percentile(&sorted, 0.99))
        };
        Snapshot {
            requests: self.requests.load(Ordering::Relaxed),
            repairs: self.repairs.load(Ordering::Relaxed),
            repaired_cells: self.repaired_cells.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            panics: self.panics.load(Ordering::Relaxed),
            connections: self.connections.load(Ordering::Relaxed),
            overloaded: self.overloaded.load(Ordering::Relaxed),
            reloads: self.reloads.load(Ordering::Relaxed),
            appends: self.appends.load(Ordering::Relaxed),
            diffs: self.diffs.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            ingested_rows: self.ingested_rows.load(Ordering::Relaxed),
            ingest_chunks: self.ingest_chunks.load(Ordering::Relaxed),
            rejected_by_code: lock(&self.rejected_by_code)
                .iter()
                .map(|(code, n)| (code.clone(), *n))
                .collect(),
            engine_generation: self.engine_generation.load(Ordering::Relaxed),
            vote_rows: self.vote_rows.load(Ordering::Relaxed),
            signature_probes: self.signature_probes.load(Ordering::Relaxed),
            shards: self.shards.load(Ordering::Relaxed),
            shard_routed: self.shard_routed.load(Ordering::Relaxed),
            shard_broadcast: self.shard_broadcast.load(Ordering::Relaxed),
            shard_rows_max: self.shard_rows_max.load(Ordering::Relaxed),
            shard_rows_total: self.shard_rows_total.load(Ordering::Relaxed),
            pool_values,
            queue_depth,
            p50_us,
            p99_us,
        }
    }
}

/// Nearest-rank percentile over an ascending-sorted window; 0 when empty.
fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// One point-in-time view of the metrics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// Total requests received (all ops, including rejected ones).
    pub requests: u64,
    /// Completed repair requests.
    pub repairs: u64,
    /// Total cells those repairs would change.
    pub repaired_cells: u64,
    /// Requests answered with an error response.
    pub errors: u64,
    /// Panics caught while handling a request (each also counts in
    /// `errors`).
    pub panics: u64,
    /// Live TCP connections, each served by its own thread.
    pub connections: u64,
    /// Requests refused with the backpressure response.
    pub overloaded: u64,
    /// Successful engine reloads.
    pub reloads: u64,
    /// Successful master appends.
    pub appends: u64,
    /// Served `diff` comparisons.
    pub diffs: u64,
    /// Reloads and appends refused by the static-analysis gate.
    pub rejected: u64,
    /// Rows streamed through `repair_csv`'s chunked ingest reader.
    pub ingested_rows: u64,
    /// Chunks those streamed rows arrived in.
    pub ingest_chunks: u64,
    /// Gate rejections attributed per diagnostic code, sorted by code.
    pub rejected_by_code: Vec<(String, u64)>,
    /// The engine's master generation at the last engine-mutating op.
    pub engine_generation: u64,
    /// Rows that entered signature grouping across all repairs (engine
    /// lifetime counter, sampled at the last successful repair).
    pub vote_rows: u64,
    /// Distinct-signature index probes those rows collapsed to.
    pub signature_probes: u64,
    /// Master partitions the engine serves from (1 = unsharded).
    pub shards: u64,
    /// Request rows routed to exactly one shard (engine lifetime counter).
    pub shard_routed: u64,
    /// Request rows broadcast to every shard (NULL routing keys).
    pub shard_broadcast: u64,
    /// Master rows on the fullest shard.
    pub shard_rows_max: u64,
    /// Master rows across all shards.
    pub shard_rows_total: u64,
    /// Distinct values in the serving engine's dictionary (`Pool::len`).
    /// Every `repair` and `repair_csv` interns the values it has not seen
    /// there for good, so traffic of novel values grows it.
    pub pool_values: u64,
    /// Repair requests in flight when the snapshot was taken.
    pub queue_depth: usize,
    /// Median repair latency over the window, microseconds.
    pub p50_us: u64,
    /// 99th-percentile repair latency over the window, microseconds.
    pub p99_us: u64,
}

impl Snapshot {
    /// Rows handled per distinct signature probe — the batching payoff of
    /// the signature-batched repair path on live traffic (`0.0` before any
    /// repair). Computed, not stored, so the snapshot stays `Eq`.
    pub fn signature_dedup(&self) -> f64 {
        if self.signature_probes == 0 {
            0.0
        } else {
            self.vote_rows as f64 / self.signature_probes as f64
        }
    }

    /// Master placement skew: `shard_rows_max * shards / shard_rows_total`.
    /// 1.0 is a perfect spread; equal to `shards` when everything landed on
    /// one shard (e.g. the degenerate no-common-LHS-pair plan). Computed,
    /// not stored, so the snapshot stays `Eq`.
    pub fn shard_imbalance(&self) -> f64 {
        if self.shard_rows_total == 0 {
            1.0
        } else {
            (self.shard_rows_max * self.shards) as f64 / self.shard_rows_total as f64
        }
    }

    /// JSON object for the `stats` response.
    pub fn to_value(&self) -> Json {
        Json::Object(vec![
            ("requests".to_string(), Json::UInt(self.requests)),
            ("repairs".to_string(), Json::UInt(self.repairs)),
            (
                "repaired_cells".to_string(),
                Json::UInt(self.repaired_cells),
            ),
            ("errors".to_string(), Json::UInt(self.errors)),
            ("panics".to_string(), Json::UInt(self.panics)),
            ("connections".to_string(), Json::UInt(self.connections)),
            ("overloaded".to_string(), Json::UInt(self.overloaded)),
            ("reloads".to_string(), Json::UInt(self.reloads)),
            ("appends".to_string(), Json::UInt(self.appends)),
            ("diffs".to_string(), Json::UInt(self.diffs)),
            ("rejected".to_string(), Json::UInt(self.rejected)),
            ("ingested_rows".to_string(), Json::UInt(self.ingested_rows)),
            ("ingest_chunks".to_string(), Json::UInt(self.ingest_chunks)),
            (
                "rejected_by_code".to_string(),
                Json::Object(
                    self.rejected_by_code
                        .iter()
                        .map(|(code, n)| (code.clone(), Json::UInt(*n)))
                        .collect(),
                ),
            ),
            (
                "engine_generation".to_string(),
                Json::UInt(self.engine_generation),
            ),
            ("vote_rows".to_string(), Json::UInt(self.vote_rows)),
            (
                "signature_probes".to_string(),
                Json::UInt(self.signature_probes),
            ),
            (
                "signature_dedup".to_string(),
                Json::Float(self.signature_dedup()),
            ),
            ("shards".to_string(), Json::UInt(self.shards)),
            ("shard_routed".to_string(), Json::UInt(self.shard_routed)),
            (
                "shard_broadcast".to_string(),
                Json::UInt(self.shard_broadcast),
            ),
            (
                "shard_imbalance".to_string(),
                Json::Float(self.shard_imbalance()),
            ),
            ("pool_values".to_string(), Json::UInt(self.pool_values)),
            (
                "queue_depth".to_string(),
                Json::UInt(self.queue_depth as u64),
            ),
            ("p50_us".to_string(), Json::UInt(self.p50_us)),
            ("p99_us".to_string(), Json::UInt(self.p99_us)),
        ])
    }

    /// One human-readable line for the periodic stderr log.
    pub fn log_line(&self) -> String {
        format!(
            "serve: requests={} repairs={} fixed={} errors={} panics={} conns={} overloaded={} reloads={} appends={} rejected={} gen={} pool={} dedup={:.1} queue={} p50={}us p99={}us",
            self.requests,
            self.repairs,
            self.repaired_cells,
            self.errors,
            self.panics,
            self.connections,
            self.overloaded,
            self.reloads,
            self.appends,
            self.rejected,
            self.engine_generation,
            self.pool_values,
            self.signature_dedup(),
            self.queue_depth,
            self.p50_us,
            self.p99_us
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_lint::DiagnosticCode;

    #[test]
    fn counters_accumulate() {
        let m = Metrics::new();
        m.record_request();
        m.record_request();
        m.record_repair(Duration::from_micros(100), 3);
        m.record_error();
        m.record_panic();
        m.record_overloaded();
        m.connection_opened();
        m.connection_opened();
        m.connection_closed();
        let s = m.snapshot(1, 0);
        assert_eq!(s.requests, 2);
        assert_eq!(s.repairs, 1);
        assert_eq!(s.repaired_cells, 3);
        assert_eq!(s.errors, 1);
        assert_eq!(s.panics, 1);
        assert_eq!(s.connections, 1, "a gauge: two opened, one closed");
        assert_eq!(s.overloaded, 1);
        assert_eq!(s.queue_depth, 1);
        assert_eq!(s.p50_us, 100);
    }

    #[test]
    fn maintenance_counters_and_generation_gauge() {
        let m = Metrics::new();
        m.record_reload();
        m.record_append();
        m.record_append();
        m.record_diff();
        m.record_rejected(&[DiagnosticCode::Er009.as_str()]);
        m.record_rejected(&[
            DiagnosticCode::Er009.as_str(),
            DiagnosticCode::Er012.as_str(),
        ]);
        m.set_engine_generation(42);
        let s = m.snapshot(0, 0);
        assert_eq!(s.reloads, 1);
        assert_eq!(s.appends, 2);
        assert_eq!(s.diffs, 1);
        assert_eq!(s.rejected, 2);
        assert_eq!(
            s.rejected_by_code,
            vec![
                (DiagnosticCode::Er009.to_string(), 2),
                (DiagnosticCode::Er012.to_string(), 1)
            ]
        );
        assert_eq!(s.engine_generation, 42);
        // The gauge tracks the latest value, it does not accumulate.
        m.set_engine_generation(7);
        assert_eq!(m.snapshot(0, 0).engine_generation, 7);
        let line = serde_json::to_string(&s.to_value()).unwrap();
        assert!(line.contains("\"appends\""));
        assert!(line.contains("\"engine_generation\""));
        assert!(line.contains("\"rejected_by_code\":{\"ER009\":2,\"ER012\":1}"));
    }

    #[test]
    fn vote_stats_gauges_and_dedup_ratio() {
        let m = Metrics::new();
        let fresh = m.snapshot(0, 0);
        assert_eq!(fresh.vote_rows, 0);
        assert_eq!(fresh.signature_probes, 0);
        assert_eq!(fresh.signature_dedup(), 0.0);
        m.set_vote_stats(120, 30);
        let s = m.snapshot(0, 0);
        assert_eq!(s.vote_rows, 120);
        assert_eq!(s.signature_probes, 30);
        assert!((s.signature_dedup() - 4.0).abs() < 1e-12);
        // Gauges track the latest engine counters, they do not accumulate.
        m.set_vote_stats(200, 40);
        assert_eq!(m.snapshot(0, 0).vote_rows, 200);
        let line = serde_json::to_string(&s.to_value()).unwrap();
        assert!(line.contains("\"vote_rows\":120"));
        assert!(line.contains("\"signature_probes\":30"));
        assert!(line.contains("\"signature_dedup\":4"));
        assert!(s.log_line().contains("dedup=4.0"));
    }

    #[test]
    fn shard_gauges_and_imbalance() {
        let m = Metrics::new();
        let fresh = m.snapshot(0, 0);
        assert_eq!(fresh.shards, 1);
        assert_eq!(fresh.shard_imbalance(), 1.0, "empty master reports 1.0");
        // 4 shards, fullest holds 60 of 120 rows: imbalance 2.0.
        m.set_shard_stats(4, 100, 7, 60, 120);
        let s = m.snapshot(0, 0);
        assert_eq!(s.shards, 4);
        assert_eq!(s.shard_routed, 100);
        assert_eq!(s.shard_broadcast, 7);
        assert!((s.shard_imbalance() - 2.0).abs() < 1e-12);
        let line = serde_json::to_string(&s.to_value()).unwrap();
        assert!(line.contains("\"shards\":4"));
        assert!(line.contains("\"shard_routed\":100"));
        assert!(line.contains("\"shard_broadcast\":7"));
        assert!(line.contains("\"shard_imbalance\":2"));
        // Gauges track the latest engine counters, they do not accumulate.
        m.set_shard_stats(4, 120, 9, 30, 120);
        let s = m.snapshot(0, 0);
        assert_eq!(s.shard_routed, 120);
        assert!((s.shard_imbalance() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ingest_counters_accumulate() {
        let m = Metrics::new();
        m.record_ingest(1000, 4);
        m.record_ingest(24, 1);
        let s = m.snapshot(0, 0);
        assert_eq!(s.ingested_rows, 1024);
        assert_eq!(s.ingest_chunks, 5);
        let line = serde_json::to_string(&s.to_value()).unwrap();
        assert!(line.contains("\"ingested_rows\":1024"));
        assert!(line.contains("\"ingest_chunks\":5"));
    }

    #[test]
    fn percentiles_over_the_window() {
        let m = Metrics::new();
        for us in 1..=100u64 {
            m.record_repair(Duration::from_micros(us), 0);
        }
        let s = m.snapshot(0, 0);
        assert_eq!(s.p50_us, 51); // nearest-rank on 1..=100
        assert_eq!(s.p99_us, 99);
    }

    #[test]
    fn window_is_bounded() {
        let m = Metrics::new();
        for _ in 0..(WINDOW + 500) {
            m.record_repair(Duration::from_micros(7), 0);
        }
        assert_eq!(lock(&m.latencies).buf.len(), WINDOW);
        assert_eq!(m.snapshot(0, 0).p99_us, 7);
    }

    #[test]
    fn empty_window_reports_zero() {
        let s = Metrics::new().snapshot(0, 0);
        assert_eq!(s.p50_us, 0);
        assert_eq!(s.p99_us, 0);
    }

    #[test]
    fn snapshot_serializes() {
        let s = Metrics::new().snapshot(0, 0);
        let line = serde_json::to_string(&s.to_value()).unwrap();
        assert!(line.contains("\"requests\""));
        assert!(line.contains("\"panics\":0"));
        assert!(line.contains("\"connections\":0"));
        assert!(!s.log_line().is_empty());
    }
}
