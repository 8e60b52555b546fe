//! The chunked-equals-whole-file suite.
//!
//! Out-of-core ingestion is only trustworthy if it is *invisible*: a master
//! built by streaming a ≥256k-row file in bounded-memory chunks — with
//! intra-chunk parsing fanned out across 1, 2, and 8 worker threads — must
//! be byte-identical (dictionary order, column codes, generation counters,
//! and the repair behaviour of delta-updated indexes) to the master built by
//! the in-memory whole-file loader. Peak buffer memory must stay bounded by
//! the configured chunk size regardless of input size.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use er_datagen::{covid, NoiseConfig, Scenario, ScenarioConfig};
use er_incr::IncrEngine;
use er_ingest::{
    ingest_append, ingest_relation, ChunkConfig, Format, IngestConfig, RowStream, SchemaMode,
};
use er_rules::EditingRule;
use er_table::{csv, Pool, Relation, RelationBuilder, Value};
use std::sync::Arc;

const ROWS: usize = 256 * 1024;
const CHUNK_BYTES: usize = 64 * 1024;
const SCRATCH_BYTES: usize = 64 * 1024;

/// A skewed synthetic CSV big enough to span many chunks, spiced with the
/// hard cases: quoted fields with embedded delimiters and newlines, empty
/// (NULL) cells, and CRLF terminators.
fn big_csv() -> String {
    let mut text = String::with_capacity(ROWS * 32);
    text.push_str("City,Region,Code,Flag\n");
    for i in 0..ROWS {
        let city = i % 512;
        let region = city % 32;
        match i % 1000 {
            7 => {
                // Quoted field with an embedded comma and newline.
                text.push_str(&format!(
                    "\"city,{city}\nx\",region{region},{i},f{}\r\n",
                    i % 7
                ));
            }
            13 => {
                // NULL cell.
                text.push_str(&format!("city{city},,{i},f{}\n", i % 7));
            }
            _ => {
                text.push_str(&format!("city{city},region{region},{i},f{}\n", i % 7));
            }
        }
    }
    text
}

fn assert_relations_identical(a: &Relation, b: &Relation, context: &str) {
    assert_eq!(a.num_rows(), b.num_rows(), "{context}: row count");
    assert_eq!(a.generation(), b.generation(), "{context}: generation");
    assert_eq!(
        a.schema().attributes().len(),
        b.schema().attributes().len(),
        "{context}: arity"
    );
    for row in 0..a.num_rows() {
        for attr in 0..a.num_attrs() {
            assert_eq!(
                a.code(row, attr),
                b.code(row, attr),
                "{context}: code at ({row},{attr})"
            );
        }
    }
}

fn assert_pools_identical(a: &Pool, b: &Pool, context: &str) {
    assert_eq!(a.len(), b.len(), "{context}: pool size");
    for code in 0..a.len() as u32 {
        assert_eq!(
            a.value(code),
            b.value(code),
            "{context}: pool value at code {code}"
        );
    }
}

#[test]
fn chunked_csv_build_is_byte_identical_to_whole_file_at_1_2_8_threads() {
    let text = big_csv();
    let whole_pool = Arc::new(Pool::new());
    let whole = csv::read_str("big", &text, Arc::clone(&whole_pool)).unwrap();
    assert_eq!(whole.num_rows(), ROWS);

    for threads in [1usize, 2, 8] {
        let pool = Arc::new(Pool::new());
        let config = IngestConfig {
            format: Format::Csv,
            schema: SchemaMode::Infer,
            chunk: ChunkConfig {
                chunk_bytes: CHUNK_BYTES,
                max_record_bytes: 4096,
            },
            threads,
        };
        let (rel, stats) =
            ingest_relation("big", text.as_bytes(), Arc::clone(&pool), &config).unwrap();
        let context = format!("{threads} threads");
        assert_relations_identical(&whole, &rel, &context);
        assert_pools_identical(&whole_pool, &pool, &context);
        assert_eq!(stats.rows, ROWS, "{context}: stats rows");
        assert!(stats.chunks > 10, "{context}: should span many chunks");
        // The bounded-memory claim: the raw buffer never exceeds the chunk
        // target plus one record plus one read, no matter the file size.
        assert!(
            stats.peak_buffer_bytes <= CHUNK_BYTES + 4096 + SCRATCH_BYTES,
            "{context}: peak buffer {} bytes exceeds the bound",
            stats.peak_buffer_bytes
        );
        assert!(stats.peak_buffer_bytes > 0, "{context}: peak not tracked");

        // `ingest_relation` encodes straight to codes (`next_relation`);
        // the Value path (`next_batch`, parsed across the worker pool, then
        // interned row by row) must build the same bytes.
        let pool = Arc::new(Pool::new());
        let mut stream = RowStream::new("big", text.as_bytes(), &config);
        let mut rel: Option<Relation> = None;
        while let Some(rows) = stream.next_batch().unwrap() {
            let schema = Arc::clone(stream.schema().unwrap());
            let mut chunk = Relation::empty(schema, Arc::clone(&pool));
            for row in &rows {
                chunk.push_row_ref(row).unwrap();
            }
            match rel.as_mut() {
                Some(rel) => rel.append(&chunk),
                None => rel = Some(chunk),
            }
        }
        let context = format!("next_batch at {threads} threads");
        assert_relations_identical(&whole, &rel.unwrap(), &context);
        assert_pools_identical(&whole_pool, &pool, &context);
    }
}

#[test]
fn chunked_ndjson_build_is_byte_identical_across_thread_counts() {
    let mut text = String::new();
    for i in 0..20_000 {
        match i % 100 {
            3 => text.push_str(&format!(
                "{{\"a\":\"v{}\",\"b\":null,\"c\":\"\"}}\n",
                i % 37
            )),
            _ => text.push_str(&format!(
                "{{\"a\":\"v{}\",\"b\":\"w{}\",\"c\":\"x{}\"}}\n",
                i % 37,
                i % 11,
                i % 5
            )),
        }
    }
    // Reference: one giant chunk, sequential.
    let ref_pool = Arc::new(Pool::new());
    let ref_config = IngestConfig {
        format: Format::Ndjson,
        schema: SchemaMode::Infer,
        chunk: ChunkConfig {
            chunk_bytes: usize::MAX / 2,
            max_record_bytes: usize::MAX / 2,
        },
        threads: 1,
    };
    let (reference, _) =
        ingest_relation("nd", text.as_bytes(), Arc::clone(&ref_pool), &ref_config).unwrap();
    assert_eq!(reference.num_rows(), 20_000);

    for threads in [1usize, 2, 8] {
        let pool = Arc::new(Pool::new());
        let config = IngestConfig {
            format: Format::Ndjson,
            schema: SchemaMode::Infer,
            chunk: ChunkConfig {
                chunk_bytes: 8 * 1024,
                max_record_bytes: 4096,
            },
            threads,
        };
        let (rel, stats) =
            ingest_relation("nd", text.as_bytes(), Arc::clone(&pool), &config).unwrap();
        let context = format!("ndjson {threads} threads");
        assert_relations_identical(&reference, &rel, &context);
        assert_pools_identical(&ref_pool, &pool, &context);
        assert!(stats.chunks > 10, "{context}: should span many chunks");
    }
}

// ---- engine-level equivalence: chunked appends into a warm IncrEngine ----

const BASE_ROWS: usize = 120;

fn scenario() -> Scenario {
    covid(ScenarioConfig {
        input_size: 150,
        master_size: 600,
        noise: NoiseConfig::rate(0.2),
        duplicate_rate: None,
        seed: 23,
        labelled: false,
    })
}

fn rules_for(s: &Scenario) -> Vec<EditingRule> {
    let target = s.task.target();
    let pairs = s.task.candidate_lhs_pairs();
    let mut rules: Vec<EditingRule> = pairs
        .iter()
        .map(|&p| EditingRule::new(vec![p], target, vec![]))
        .collect();
    for window in pairs.windows(2) {
        rules.push(EditingRule::new(window.to_vec(), target, vec![]));
    }
    rules.truncate(8);
    rules
}

/// The delta rows (beyond `BASE_ROWS`) rendered as a CSV file in master
/// schema order, plus the same rows as in-memory values.
fn delta_csv_and_rows(s: &Scenario) -> (String, Vec<Vec<Value>>) {
    let master = s.task.master();
    let rows: Vec<Vec<Value>> = (BASE_ROWS..master.num_rows())
        .map(|r| master.row_values(r))
        .collect();
    let mut delta = RelationBuilder::new(Arc::clone(master.schema()), Arc::clone(master.pool()));
    for row in &rows {
        delta.push_row(row.clone()).unwrap();
    }
    (csv::write_str(&delta.finish()), rows)
}

#[test]
fn chunked_append_matches_one_shot_append_at_1_2_8_threads() {
    // Two independently generated (deterministic, identical) scenarios so
    // the chunked and one-shot paths own separate pools — pool identity is
    // then a real assertion, not an artifact of sharing.
    for threads in [1usize, 2, 8] {
        let chunked_scn = scenario();
        let oneshot_scn = scenario();
        let (csv_text, delta_rows) = delta_csv_and_rows(&chunked_scn);

        let base = |s: &Scenario| s.with_master_prefix(BASE_ROWS);
        let chunked_base = base(&chunked_scn);
        let oneshot_base = base(&oneshot_scn);

        let mut chunked_engine = IncrEngine::new(
            chunked_base.task.master().clone(),
            chunked_base.task.target(),
            rules_for(&chunked_base),
            threads,
        )
        .unwrap();
        let mut oneshot_engine = IncrEngine::new(
            oneshot_base.task.master().clone(),
            oneshot_base.task.target(),
            rules_for(&oneshot_base),
            threads,
        )
        .unwrap();

        let config = IngestConfig {
            format: Format::Csv,
            chunk: ChunkConfig {
                chunk_bytes: 512, // force many chunks over a small delta
                max_record_bytes: 4096,
            },
            threads,
            ..IngestConfig::default()
        };
        let stats = ingest_append(&mut chunked_engine, csv_text.as_bytes(), &config).unwrap();
        assert_eq!(stats.rows, delta_rows.len());
        assert!(stats.chunks > 1, "delta should span multiple chunks");
        oneshot_engine.append_rows(&delta_rows).unwrap();

        let context = format!("append {threads} threads");
        assert_relations_identical(chunked_engine.master(), oneshot_engine.master(), &context);
        assert_pools_identical(
            chunked_engine.master().pool(),
            oneshot_engine.master().pool(),
            &context,
        );
        assert_eq!(
            chunked_engine.generation(),
            oneshot_engine.generation(),
            "{context}: engine generation"
        );

        // Delta-updated indexes must behave identically: replay the same
        // probe batch through both engines and demand identical reports.
        let chunked_report = chunked_engine
            .repair_batch(chunked_scn.task.input())
            .unwrap();
        let oneshot_report = oneshot_engine
            .repair_batch(oneshot_scn.task.input())
            .unwrap();
        assert_eq!(
            chunked_report.predictions, oneshot_report.predictions,
            "{context}: predictions"
        );
        assert_eq!(
            chunked_report.scores, oneshot_report.scores,
            "{context}: scores"
        );
        assert_eq!(
            chunked_report.candidates, oneshot_report.candidates,
            "{context}: candidates"
        );
    }
}
