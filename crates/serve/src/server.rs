//! The transport-agnostic server core and the pipe front-end.
//!
//! [`Server`] owns the engine, the configuration, the metrics, and the two
//! pieces of cross-cutting serving state: the in-flight counter that
//! implements backpressure and the draining flag that implements graceful
//! shutdown. Both front-ends run the one session loop here,
//! [`serve_pipe`]: over stdin/stdout in pipe mode, over each accepted
//! socket in [`crate::tcp`]. It reads lines, calls [`Server::handle_line`]
//! and writes the response line back; everything protocol-level lives in
//! one place.

use crate::engine::{EngineError, RepairEngine, RepairOutcome};
use crate::lock;
use crate::metrics::{Metrics, Snapshot};
use crate::proto::{self, Request, RowBatch};
use er_analyze::EditScope;
use er_ingest::{DataChunk, Format, IngestConfig, RowStream, SchemaMode};
use er_lint::Severity;
use er_rules::RuleStore;
use er_table::Value;
use std::io::{self, BufRead, Write};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Serving configuration, shared by pipe and socket mode.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Optional per-request repair deadline. `None` = unbounded.
    pub deadline: Option<Duration>,
    /// Maximum repair requests in flight. In socket mode it also counts
    /// toward the cap on live connections, `workers + queue_capacity`.
    /// Excess requests and connections receive the `overloaded`
    /// backpressure response immediately.
    pub queue_capacity: usize,
    /// Maximum request line length in bytes; longer lines are consumed and
    /// answered with an error without being buffered.
    pub max_line_bytes: usize,
    /// Maximum rows one `repair` request may carry.
    pub max_batch_rows: usize,
    /// Socket mode only: counts toward the cap on live connections,
    /// `workers + queue_capacity`. Each admitted connection is served by
    /// its own thread.
    pub workers: usize,
    /// Emit the metrics log line to stderr every N requests (0 = never).
    pub log_every: u64,
    /// Gate `reload` and `append` on a clean static analysis (no ER008
    /// cycle, no ER009 conflict): a dirty reload never swaps the live
    /// engine, a dirty append never commits its rows.
    pub analysis_gate: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            deadline: None,
            queue_capacity: 64,
            max_line_bytes: 1 << 20,
            max_batch_rows: 4096,
            workers: 4,
            log_every: 0,
            analysis_gate: true,
        }
    }
}

/// Why a `reload` did not swap the engine.
#[derive(Debug)]
pub enum ReloadError {
    /// Rebuilding the engine failed outright (unreadable rules file,
    /// unresolvable rules, ...).
    Failed(String),
    /// The candidate rule set failed the static-analysis gate; the engine
    /// was never built or never offered for the swap.
    Analysis(Box<er_analyze::AnalysisReport>),
}

/// Rebuilds the engine for the `reload` op (e.g. re-reading the rules file).
pub type Reloader = Box<dyn Fn() -> Result<RepairEngine, ReloadError> + Send + Sync>;

/// The long-lived server core.
pub struct Server {
    engine: parking_lot::RwLock<RepairEngine>,
    reloader: Option<Reloader>,
    config: ServeConfig,
    metrics: Metrics,
    /// The rule version store: the initially loaded set is version 1; every
    /// promoted reload commits the candidate's canonical document on top.
    store: Mutex<RuleStore>,
    in_flight: AtomicUsize,
    draining: AtomicBool,
}

/// Distinct error-severity diagnostic codes of a report, for the
/// per-code rejection breakdown in `stats`.
fn error_codes(findings: &[er_lint::Finding]) -> Vec<&'static str> {
    let mut codes: Vec<&'static str> = findings
        .iter()
        .filter(|f| f.severity == Severity::Error)
        .map(|f| f.code.as_str())
        .collect();
    codes.sort_unstable();
    codes.dedup();
    codes
}

impl Server {
    /// Wrap a loaded engine with a serving configuration.
    pub fn new(engine: RepairEngine, config: ServeConfig) -> Self {
        let metrics = Metrics::new();
        metrics.set_engine_generation(engine.generation());
        let stats = engine.shard_stats();
        metrics.set_shard_stats(
            stats.shards as u64,
            stats.routed,
            stats.broadcast,
            stats.rows_max,
            stats.rows_total,
        );
        let mut store = RuleStore::new();
        store.commit(&engine.rules_json(), "initial load");
        Server {
            engine: parking_lot::RwLock::new(engine),
            reloader: None,
            config,
            metrics,
            store: Mutex::new(store),
            in_flight: AtomicUsize::new(0),
            draining: AtomicBool::new(false),
        }
    }

    /// Configure the `reload` op.
    pub fn with_reloader(mut self, reloader: Reloader) -> Self {
        self.reloader = Some(reloader);
        self
    }

    /// The serving configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// The serving metrics.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Metrics snapshot including the current queue depth.
    pub fn snapshot(&self) -> Snapshot {
        let pool_values = self.engine.read().pool_values() as u64;
        self.metrics
            .snapshot(self.in_flight.load(Ordering::Relaxed), pool_values)
    }

    /// Copy the engine's shard counters into the metrics gauges (the same
    /// pattern as the vote-stats gauges: written after ops, so `stats`
    /// stays lock-free).
    fn publish_shard_stats(&self, engine: &RepairEngine) {
        let stats = engine.shard_stats();
        self.metrics.set_shard_stats(
            stats.shards as u64,
            stats.routed,
            stats.broadcast,
            stats.rows_max,
            stats.rows_total,
        );
    }

    /// Whether a graceful drain has begun.
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Begin a graceful drain: front-ends stop accepting new work, finish
    /// the requests they have fully read, and close.
    pub fn begin_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
    }

    /// Handle one request line. `batch` is the session's reusable row
    /// buffer: `repair`/`append` rows are decoded into it instead of fresh
    /// per-request vectors. Returns the response line (without the trailing
    /// newline) and whether the session should close after sending it.
    ///
    /// This is the request boundary: a panic while handling the line (a
    /// bug, or a panicking reloader) is caught here, counted in `errors`
    /// and `panics`, and answered with [`proto::internal_error`], so neither
    /// the pipe session nor the TCP connection thread dies with it. Locks
    /// are released by unwinding, and in-flight slots by their guards.
    pub fn handle_line(&self, line: &str, batch: &mut RowBatch) -> (String, bool) {
        let handled =
            std::panic::catch_unwind(AssertUnwindSafe(|| self.dispatch_line(line, batch)));
        handled.unwrap_or_else(|payload| {
            self.metrics.record_error();
            self.metrics.record_panic();
            let message = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "unknown panic".to_string());
            (proto::internal_error(&message), false)
        })
    }

    fn dispatch_line(&self, line: &str, batch: &mut RowBatch) -> (String, bool) {
        let seen = self.metrics.record_request();
        if self.config.log_every > 0 && seen.is_multiple_of(self.config.log_every) {
            eprintln!("{}", self.snapshot().log_line());
        }
        match proto::parse_request(line, self.config.max_batch_rows, batch) {
            Err(message) => {
                self.metrics.record_error();
                (proto::error(&message), false)
            }
            Ok(Request::Ping) => (proto::ok_ping(), false),
            Ok(Request::Stats) => (proto::ok_stats(&self.snapshot()), false),
            Ok(Request::Shutdown) => {
                self.begin_drain();
                (proto::ok_shutdown(), true)
            }
            Ok(Request::Reload { scope }) => self.handle_reload(scope.as_ref()),
            Ok(Request::Repair) => self.handle_repair(batch.rows()),
            Ok(Request::Append) => self.handle_append(batch.rows()),
            Ok(Request::RepairCsv { path, chunk_bytes }) => {
                self.handle_repair_csv(&path, chunk_bytes)
            }
            Ok(Request::Diff { rules_json, scope }) => {
                self.handle_diff(&rules_json, scope.as_ref())
            }
            Ok(Request::Versions) => (proto::ok_versions(&lock(&self.store)), false),
        }
    }

    fn handle_reload(&self, scope: Option<&EditScope>) -> (String, bool) {
        let Some(reload) = &self.reloader else {
            self.metrics.record_error();
            return (
                proto::error("reload is not configured for this server"),
                false,
            );
        };
        match reload() {
            Ok(engine) => {
                let mut diff = None;
                if self.config.analysis_gate {
                    let report = engine.analyze();
                    if !report.gate_clean() {
                        self.metrics.record_rejected(&error_codes(&report.findings));
                        return (proto::analysis_rejected("reload", &report), false);
                    }
                    // The edit-scope gate: diff the live set against the
                    // candidate's canonical document. ER012 (a verdict
                    // change outside the declared scope) refuses the swap.
                    let candidate_json = engine.rules_json();
                    match self.engine.read().diff_against(&candidate_json, scope) {
                        Ok(report) => {
                            if !report.gate_clean() {
                                self.metrics.record_rejected(&error_codes(&report.findings));
                                return (proto::diff_rejected("reload", &report), false);
                            }
                            diff = Some(report);
                        }
                        Err(e) => {
                            self.metrics.record_error();
                            return (proto::error(&format!("reload diff failed: {e}")), false);
                        }
                    }
                }
                let rules = engine.num_rules();
                let candidate_json = engine.rules_json();
                self.metrics.set_engine_generation(engine.generation());
                *self.engine.write() = engine;
                self.metrics.record_reload();
                let note = match &diff {
                    Some(report) => match report.certificate() {
                        Some(cert) => format!("promoted: {cert}"),
                        None => format!(
                            "promoted: {} signature(s) change verdict",
                            report.changes.len()
                        ),
                    },
                    None => "promoted without diff gate".to_string(),
                };
                let version = lock(&self.store).commit(&candidate_json, &note);
                (proto::ok_reload(rules, Some(version), diff.as_ref()), false)
            }
            Err(ReloadError::Analysis(report)) => {
                self.metrics.record_rejected(&error_codes(&report.findings));
                (proto::analysis_rejected("reload", &report), false)
            }
            Err(ReloadError::Failed(message)) => {
                self.metrics.record_error();
                (proto::error(&format!("reload failed: {message}")), false)
            }
        }
    }

    fn handle_diff(&self, rules_json: &str, scope: Option<&EditScope>) -> (String, bool) {
        match self.engine.read().diff_against(rules_json, scope) {
            Ok(report) => {
                self.metrics.record_diff();
                (proto::ok_diff(&report), false)
            }
            Err(e) => {
                self.metrics.record_error();
                (proto::error(&e.to_string()), false)
            }
        }
    }

    fn handle_append(&self, rows: &[Vec<Value>]) -> (String, bool) {
        // Appends hold every *shard* write lock (via the append
        // transaction): in-flight repairs finish first, and every later
        // repair sees the delta-updated indexes on every shard. The
        // analysis gate previews the combined grown master under the same
        // locks, so no other append can slip between the check and the
        // commit; the outer engine lock is only read-held, letting the
        // reloader (the sole outer writer) stay exclusive with us.
        let engine = self.engine.read();
        let txn = engine.begin_append();
        if self.config.analysis_gate {
            // A row the preview cannot take will fail the real append with
            // its proper row error; only a clean preview is analyzed.
            if let Some(preview) = txn.preview(rows) {
                let report = engine.analyze_with_master(&preview);
                if !report.gate_clean() {
                    drop(txn);
                    drop(engine);
                    self.metrics.record_rejected(&error_codes(&report.findings));
                    return (proto::analysis_rejected("append", &report), false);
                }
            }
        }
        let result = txn.commit(rows);
        match result {
            Ok(outcome) => {
                self.metrics.record_append();
                self.metrics.set_engine_generation(outcome.generation);
                self.publish_shard_stats(&engine);
                drop(engine);
                (proto::ok_append(&outcome), false)
            }
            Err(e) => {
                drop(engine);
                self.metrics.record_error();
                (proto::error(&e.to_string()), false)
            }
        }
    }

    fn handle_repair(&self, rows: &[Vec<Value>]) -> (String, bool) {
        // Admission control: claim an in-flight slot or push back.
        let Some(slot) = self.try_claim_slot() else {
            self.metrics.record_overloaded();
            return (proto::overloaded(), false);
        };
        match self.repair_in_slot(rows, slot) {
            Ok(outcome) => (proto::ok_repair(&outcome), false),
            Err(e) => {
                self.metrics.record_error();
                (proto::error(&e.to_string()), false)
            }
        }
    }

    /// Repair `rows` under a claimed in-flight `slot`, released as soon as
    /// the engine answers. The read guard is held across the repair *and*
    /// the stats read, so the vote-batching gauges reflect the engine that
    /// served this request.
    fn repair_in_slot(
        &self,
        rows: &[Vec<Value>],
        slot: Slot<'_>,
    ) -> Result<RepairOutcome, EngineError> {
        let started = Instant::now();
        let deadline = self.config.deadline.map(|d| started + d);
        let (result, votes) = {
            let engine = self.engine.read();
            let result = engine.repair(rows, deadline);
            self.publish_shard_stats(&engine);
            (result, engine.vote_stats())
        };
        drop(slot);
        let outcome = result?;
        self.metrics
            .record_repair(started.elapsed(), outcome.fixed());
        self.metrics.set_vote_stats(votes.rows, votes.probes);
        Ok(outcome)
    }

    /// Try to claim one in-flight backpressure slot; `None` = at capacity.
    fn try_claim_slot(&self) -> Option<Slot<'_>> {
        Slot::claim(&self.in_flight, self.config.queue_capacity)
    }

    /// Claim a slot, waiting for one to free up instead of refusing —
    /// used between `repair_csv` chunks, where the file as a whole was
    /// already admitted. Gives up (`None`) once a drain begins.
    fn claim_slot_waiting(&self) -> Option<Slot<'_>> {
        loop {
            if let Some(slot) = self.try_claim_slot() {
                return Some(slot);
            }
            if self.is_draining() {
                return None;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// Stream a server-side CSV through the chunked ingest reader and
    /// repair it chunk by chunk. Admission is decided once, up front (a
    /// bulk file at a full queue is refused like any other request), but
    /// the in-flight slot is *released and re-claimed per chunk* so a long
    /// file cannot starve interactive `repair` requests between chunks.
    /// The configured deadline is applied per chunk — a bounded deadline
    /// bounds each chunk's vote, not the whole (arbitrarily long) file.
    fn handle_repair_csv(&self, path: &str, chunk_bytes: Option<usize>) -> (String, bool) {
        // The admission claim is given back at once: between chunks the
        // stream loop claims its own slot, so it never double-counts.
        if self.try_claim_slot().is_none() {
            self.metrics.record_overloaded();
            return (proto::overloaded(), false);
        }
        let result = self.repair_csv_stream(path, chunk_bytes);
        match result {
            Ok((rows, chunks, fixed)) => (proto::ok_repair_csv(rows, chunks, fixed), false),
            Err(message) => {
                self.metrics.record_error();
                (proto::error(&message), false)
            }
        }
    }

    /// The `repair_csv` streaming loop: returns `(rows, chunks, fixed)`
    /// totals. The CSV header must match the engine's input schema (the
    /// explicit-schema mode of the ingest stream enforces it). Each chunk
    /// takes the engine read lock independently, so reloads and appends can
    /// interleave with a long-running bulk repair.
    fn repair_csv_stream(
        &self,
        path: &str,
        chunk_bytes: Option<usize>,
    ) -> Result<(usize, usize, usize), String> {
        let file = std::fs::File::open(path)
            .map_err(|e| format!("repair_csv: cannot open {path}: {e}"))?;
        let schema = std::sync::Arc::clone(self.engine.read().schema());
        let mut config = IngestConfig {
            format: Format::Csv,
            schema: SchemaMode::Explicit(schema),
            ..IngestConfig::default()
        };
        if let Some(bytes) = chunk_bytes {
            config.chunk.chunk_bytes = bytes;
        }
        let mut stream = RowStream::new("repair_csv", file, &config);
        let mut fixed = 0usize;
        loop {
            // Read the chunk first: waiting on a slow source holds neither
            // a backpressure slot nor the engine lock.
            let chunk = match stream.next_chunk() {
                Ok(Some(chunk)) => chunk,
                Ok(None) => break,
                Err(e) => return Err(format!("repair_csv: {e}")),
            };
            // One backpressure slot per chunk: between chunks the slot is
            // free and interactive repairs can slip in (waiting here, not
            // refusing — the file itself was admitted up front).
            let Some(slot) = self.claim_slot_waiting() else {
                return Err("repair_csv: server is draining".into());
            };
            fixed += self.repair_chunk(&mut stream, &chunk, slot)?;
        }
        let stats = stream.stats();
        self.metrics
            .record_ingest(stats.rows as u64, stats.chunks as u64);
        Ok((stats.rows, stats.chunks, fixed))
    }

    /// Encode a chunk of `stream` straight to codes and repair it, under a
    /// claimed in-flight `slot` and one engine read guard: a reload between
    /// chunks cannot leave a chunk encoded through one engine's pool and
    /// repaired by another. Returns how many cells the repair would change
    /// (counted, not rendered: the op answers totals). The deadline bounds
    /// the vote, as for a `repair` request.
    fn repair_chunk<R: io::Read>(
        &self,
        stream: &mut RowStream<R>,
        chunk: &DataChunk,
        slot: Slot<'_>,
    ) -> Result<usize, String> {
        let (result, votes, started) = {
            let engine = self.engine.read();
            let batch = stream
                .encode_chunk(chunk, engine.pool())
                .map_err(|e| format!("repair_csv: {e}"))?;
            let started = Instant::now();
            let deadline = self.config.deadline.map(|d| started + d);
            let result = engine.repair_relation(&batch, deadline);
            self.publish_shard_stats(&engine);
            (result, engine.vote_stats(), started)
        };
        drop(slot);
        let fixed = result.map_err(|e| format!("repair_csv: {e}"))?.len();
        self.metrics.record_repair(started.elapsed(), fixed);
        self.metrics.set_vote_stats(votes.rows, votes.probes);
        Ok(fixed)
    }
}

/// One claimed in-flight backpressure slot, released when dropped — also
/// when a panic unwinds through the request, so a caught panic cannot leak
/// queue capacity.
struct Slot<'a>(&'a AtomicUsize);

impl<'a> Slot<'a> {
    /// Claim a slot of `in_flight` unless `capacity` are already held.
    fn claim(in_flight: &'a AtomicUsize, capacity: usize) -> Option<Self> {
        let depth = in_flight.fetch_add(1, Ordering::SeqCst);
        let slot = Slot(in_flight);
        // Over capacity: dropping the guard gives the claim back.
        (depth < capacity).then_some(slot)
    }
}

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// One bounded line read.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum LineRead {
    /// A complete line (newline stripped, lossy UTF-8).
    Line(String),
    /// The line exceeded the limit; it was consumed without being buffered.
    TooLong,
    /// End of stream.
    Eof,
}

/// Read one `\n`-terminated line, buffering at most `max` bytes. Oversized
/// lines are drained to their newline so the session can continue — a
/// misbehaving client costs bounded memory, not the connection.
pub(crate) fn read_bounded_line(reader: &mut impl BufRead, max: usize) -> io::Result<LineRead> {
    let mut buf: Vec<u8> = Vec::new();
    let mut overflow = false;
    loop {
        let chunk = reader.fill_buf()?;
        if chunk.is_empty() {
            // EOF: a trailing unterminated line still counts as a line.
            return Ok(if overflow {
                LineRead::TooLong
            } else if buf.is_empty() {
                LineRead::Eof
            } else {
                LineRead::Line(String::from_utf8_lossy(&buf).into_owned())
            });
        }
        match chunk.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                if !overflow && buf.len() + pos <= max {
                    buf.extend_from_slice(&chunk[..pos]);
                } else {
                    overflow = true;
                }
                reader.consume(pos + 1);
                return Ok(if overflow {
                    LineRead::TooLong
                } else {
                    LineRead::Line(String::from_utf8_lossy(&buf).into_owned())
                });
            }
            None => {
                let len = chunk.len();
                if !overflow {
                    if buf.len() + len <= max {
                        buf.extend_from_slice(chunk);
                    } else {
                        overflow = true;
                        buf.clear();
                    }
                }
                reader.consume(len);
            }
        }
    }
}

/// Pipe mode: serve the line protocol over any reader/writer pair (stdin
/// and stdout in the CLI, a socket in [`crate::TcpServer`]). Returns at
/// EOF, after a `shutdown` op, or at the first line read once a drain has
/// begun; every request it started has been answered by then. Each response
/// line goes out in one `write_all`, then the writer is flushed.
pub fn serve_pipe<R: BufRead, W: Write>(
    server: &Server,
    reader: &mut R,
    writer: &mut W,
) -> io::Result<()> {
    // One reusable row buffer for the whole session: request row vectors
    // are decoded into it in place instead of being reallocated per line.
    let mut batch = RowBatch::new();
    let max_line = server.config().max_line_bytes;
    loop {
        let (mut response, stop) = match read_bounded_line(reader, max_line)? {
            LineRead::Eof => break,
            // A drain starts no new request: nothing was promised for it.
            _ if server.is_draining() => break,
            LineRead::TooLong => {
                server.metrics().record_error();
                let message = format!("line exceeds {max_line} bytes");
                (proto::error(&message), false)
            }
            LineRead::Line(line) if line.trim().is_empty() => continue,
            LineRead::Line(line) => server.handle_line(&line, &mut batch),
        };
        response.push('\n');
        writer.write_all(response.as_bytes())?;
        writer.flush()?;
        if stop {
            break;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn slot_held_across_a_caught_panic_is_released() {
        let in_flight = AtomicUsize::new(0);
        let caught = std::panic::catch_unwind(|| {
            let _slot = Slot::claim(&in_flight, 1).unwrap();
            assert_eq!(in_flight.load(Ordering::SeqCst), 1);
            panic!("mid-repair");
        });
        assert!(caught.is_err());
        assert_eq!(in_flight.load(Ordering::SeqCst), 0, "queue depth back to 0");
        // The capacity is whole again: a claim succeeds, a second is refused
        // and leaves the depth untouched.
        let slot = Slot::claim(&in_flight, 1).unwrap();
        assert!(Slot::claim(&in_flight, 1).is_none());
        assert_eq!(in_flight.load(Ordering::SeqCst), 1);
        drop(slot);
        assert_eq!(in_flight.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn bounded_reader_splits_lines() {
        let mut r = Cursor::new(b"one\ntwo\nthree".to_vec());
        assert_eq!(
            read_bounded_line(&mut r, 100).unwrap(),
            LineRead::Line("one".into())
        );
        assert_eq!(
            read_bounded_line(&mut r, 100).unwrap(),
            LineRead::Line("two".into())
        );
        // Unterminated trailing line still arrives.
        assert_eq!(
            read_bounded_line(&mut r, 100).unwrap(),
            LineRead::Line("three".into())
        );
        assert_eq!(read_bounded_line(&mut r, 100).unwrap(), LineRead::Eof);
    }

    #[test]
    fn bounded_reader_rejects_and_skips_long_lines() {
        let mut data = vec![b'x'; 50];
        data.push(b'\n');
        data.extend_from_slice(b"ok\n");
        let mut r = Cursor::new(data);
        assert_eq!(read_bounded_line(&mut r, 10).unwrap(), LineRead::TooLong);
        // The oversized line was consumed; the session continues.
        assert_eq!(
            read_bounded_line(&mut r, 10).unwrap(),
            LineRead::Line("ok".into())
        );
    }

    #[test]
    fn bounded_reader_is_lossy_on_invalid_utf8() {
        let mut r = Cursor::new(b"M\xFCnchen\n".to_vec());
        assert_eq!(
            read_bounded_line(&mut r, 100).unwrap(),
            LineRead::Line("M\u{FFFD}nchen".into())
        );
    }

    #[test]
    fn exact_limit_is_allowed() {
        let mut r = Cursor::new(b"12345\n".to_vec());
        assert_eq!(
            read_bounded_line(&mut r, 5).unwrap(),
            LineRead::Line("12345".into())
        );
        let mut r = Cursor::new(b"123456\n".to_vec());
        assert_eq!(read_bounded_line(&mut r, 5).unwrap(), LineRead::TooLong);
    }
}
