//! `ingest_bench` — throughput of the chunked out-of-core CSV ingest path.
//!
//! Builds a large CSV in memory (quoted fields with embedded commas and
//! newlines, NULL cells, mixed `\n`/`\r\n` terminators — the shapes the
//! record scanner has to get right), loads it once through the whole-file
//! loader and once through [`er_ingest::ingest_relation`]'s chunked
//! streaming path, asserts the two relations and their value pools are
//! **byte-identical**, and only then times the chunked path, reporting
//! rows/s, MiB/s, the peak resident chunk-buffer bytes (the bounded-memory
//! claim, measured rather than asserted), and the seconds per pass spent in
//! each stage the stream times itself: framing, split and parse, and the
//! intern commit.
//!
//! Besides `results/ingest_bench.json`, a full (non-`--quick`) run appends
//! one entry to the repo-root `BENCH_ingest.json` trajectory file; both
//! modes then validate that the trajectory exists and is well-formed, which
//! is what `scripts/check.sh` and CI rely on.

use crate::trajectory::{append_trajectory, validate_trajectory};
use crate::ExperimentConfig;
use er_ingest::{ChunkConfig, Format, IngestConfig, SchemaMode};
use er_table::{csv, Pool, Relation};
use serde::Serialize;
use std::io::Cursor;
use std::sync::Arc;
use std::time::Instant;

/// Repo-root perf trajectory artifact; one entry appended per full run.
const TRAJECTORY: &str = "BENCH_ingest.json";

/// Result of one ingest benchmark run (also one trajectory entry).
#[derive(Debug, Clone, Serialize)]
pub struct IngestBench {
    /// Data rows in the synthetic CSV (header excluded).
    pub rows: usize,
    /// Total CSV bytes streamed per iteration.
    pub bytes: usize,
    /// Chunks the reader split the file into.
    pub chunks: usize,
    /// Configured chunk size in bytes.
    pub chunk_bytes: usize,
    /// High-water mark of the raw chunk buffer — the peak resident bytes of
    /// the out-of-core path, independent of file size.
    pub peak_buffer_bytes: usize,
    /// Timed iterations of the chunked path.
    pub iters: usize,
    /// Chunked path: rows ingested per second.
    pub rows_per_second: f64,
    /// Chunked path: input MiB consumed per second.
    pub mib_per_second: f64,
    /// Worker threads for intra-chunk parsing (`0` = auto).
    pub threads: usize,
    /// `std::thread::available_parallelism` of the host that ran it.
    pub host_parallelism: usize,
    /// Seconds per pass spent framing records (read, boundary scan, UTF-8).
    pub frame_seconds: f64,
    /// Seconds per pass spent splitting records and looking cells up.
    pub split_parse_seconds: f64,
    /// Seconds per pass spent interning distinct cells and laying out
    /// columns.
    pub intern_commit_seconds: f64,
    /// What was measured.
    pub note: String,
    /// Whether this was a `--quick` smoke run (quick runs do not enter the
    /// trajectory).
    pub quick: bool,
    /// Wall-clock seconds since the Unix epoch when the run finished.
    pub unix_seconds: u64,
}

/// Deterministic synthetic CSV with the record shapes the scanner must
/// handle: quoted fields with embedded commas and line breaks, NULL cells,
/// and mixed `\n`/`\r\n` terminators.
fn big_csv(rows: usize) -> String {
    let mut text = String::with_capacity(rows * 48);
    text.push_str("City,Region,Case,Detail\n");
    for i in 0..rows {
        let city = i % 997;
        let region = city % 31;
        match i % 1000 {
            7 => {
                text.push_str(&format!(
                    "\"C{city}, north\",R{region},patient,\"line one\nline two\"\r\n"
                ));
            }
            13 => {
                text.push_str(&format!("C{city},R{region},,\n"));
            }
            _ => {
                text.push_str(&format!("C{city},R{region},none,d{}\n", i % 17));
            }
        }
    }
    text
}

/// The byte-identity gate: every cell code and every pool slot must match
/// between the whole-file and the chunked build before timing starts.
fn assert_identical(whole: &Relation, chunked: &Relation) {
    assert_eq!(
        whole.num_rows(),
        chunked.num_rows(),
        "ingest_bench: row count diverges"
    );
    assert_eq!(
        whole.num_attrs(),
        chunked.num_attrs(),
        "ingest_bench: schema diverges"
    );
    for row in 0..whole.num_rows() {
        for attr in 0..whole.num_attrs() {
            assert_eq!(
                whole.code(row, attr),
                chunked.code(row, attr),
                "ingest_bench: cell ({row},{attr}) diverges between loaders"
            );
        }
    }
    assert_eq!(
        whole.pool().len(),
        chunked.pool().len(),
        "ingest_bench: pool size diverges"
    );
    for code in 0..u32::try_from(whole.pool().len()).unwrap_or(u32::MAX) {
        assert_eq!(
            whole.pool().value(code),
            chunked.pool().value(code),
            "ingest_bench: pool code {code} diverges between loaders"
        );
    }
}

/// Benchmark the chunked streaming ingest path; see the module docs.
pub fn ingest_bench(cfg: &ExperimentConfig) -> IngestBench {
    println!("== ingest_bench: chunked out-of-core CSV ingest ==");
    let (rows, iters) = if cfg.quick {
        (32_768usize, 2usize)
    } else {
        (262_144usize, 4usize)
    };
    let chunk_bytes = 256 * 1024;
    let text = big_csv(rows);
    let bytes = text.len();
    let config = IngestConfig {
        format: Format::Csv,
        schema: SchemaMode::Infer,
        chunk: ChunkConfig {
            chunk_bytes,
            ..ChunkConfig::default()
        },
        threads: cfg.threads,
    };

    // Correctness first: the chunked build must match the whole-file build
    // bit for bit before any number is worth reporting.
    let whole_pool = Arc::new(Pool::new());
    let whole = csv::read_str("bench", &text, Arc::clone(&whole_pool))
        .unwrap_or_else(|e| panic!("ingest_bench: whole-file load failed: {e}"));
    let (chunked, stats) = er_ingest::ingest_relation(
        "bench",
        Cursor::new(text.as_bytes()),
        Arc::new(Pool::new()),
        &config,
    )
    .unwrap_or_else(|e| panic!("ingest_bench: chunked load failed: {e}"));
    assert_identical(&whole, &chunked);
    assert_eq!(stats.rows, rows);
    println!(
        "  {} rows / {:.1} MiB in {} chunks: chunked build byte-identical to the whole-file loader",
        rows,
        bytes as f64 / (1024.0 * 1024.0),
        stats.chunks
    );

    let started = Instant::now();
    let mut stages = [0.0f64; 3];
    for _ in 0..iters {
        let (rel, stats) = er_ingest::ingest_relation(
            "bench",
            Cursor::new(text.as_bytes()),
            Arc::new(Pool::new()),
            &config,
        )
        .unwrap_or_else(|e| panic!("ingest_bench: chunked load failed: {e}"));
        assert_eq!(rel.num_rows(), rows);
        let times = [stats.frame_time, stats.split_parse_time, stats.commit_time];
        for (stage, time) in stages.iter_mut().zip(times) {
            *stage += time.as_secs_f64() / iters as f64;
        }
    }
    let seconds = started.elapsed().as_secs_f64().max(1e-9);

    let result = IngestBench {
        rows,
        bytes,
        chunks: stats.chunks,
        chunk_bytes,
        peak_buffer_bytes: stats.peak_buffer_bytes,
        iters,
        rows_per_second: (rows * iters) as f64 / seconds,
        mib_per_second: (bytes * iters) as f64 / (1024.0 * 1024.0) / seconds,
        threads: cfg.threads,
        host_parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
        frame_seconds: stages[0],
        split_parse_seconds: stages[1],
        intern_commit_seconds: stages[2],
        note: "ingest_relation, CSV straight to codes (RowStream::next_relation)".to_string(),
        quick: cfg.quick,
        unix_seconds: std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0),
    };
    println!(
        "  chunked ingest {:.0} rows/s ({:.1} MiB/s) over {} iters, peak buffer {} bytes (chunk {} bytes)",
        result.rows_per_second,
        result.mib_per_second,
        result.iters,
        result.peak_buffer_bytes,
        result.chunk_bytes
    );
    println!(
        "  per pass: frame {:.4} s, split+parse {:.4} s, intern commit {:.4} s (host parallelism {})",
        result.frame_seconds,
        result.split_parse_seconds,
        result.intern_commit_seconds,
        result.host_parallelism
    );
    cfg.write_json("ingest_bench", &result);
    if result.quick {
        println!("  [--quick: not appended to {TRAJECTORY}]");
    } else {
        append_trajectory(TRAJECTORY, "ingest_bench", &result);
    }
    // A quick run on a fresh checkout may predate the first committed
    // trajectory entry; only an existing-but-malformed file is fatal.
    if std::path::Path::new(TRAJECTORY).exists() {
        match validate_trajectory(
            TRAJECTORY,
            &[
                "rows",
                "rows_per_second",
                "mib_per_second",
                "peak_buffer_bytes",
            ],
        ) {
            Ok(entries) => println!("  [{TRAJECTORY}: {entries} trajectory entries, well-formed]"),
            Err(e) => panic!("ingest_bench: {TRAJECTORY} is malformed: {e}"),
        }
    } else {
        println!("  [{TRAJECTORY}: no trajectory yet, well-formed output deferred to a full run]");
    }
    result
}
