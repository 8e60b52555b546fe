//! Straight-to-codes parity: [`RowStream::next_relation`] must answer every
//! input exactly as the Value path it replaced on the bulk paths —
//! [`RowStream::next_batch`] followed by [`Relation::push_row_ref`] of each
//! row — with the same [`IngestError`] (variant, record number and
//! message), or the same columns, generation and pool dictionary order.
//! Each case runs at an 8-byte chunk budget (about one record per chunk)
//! and at the default, under an explicit schema with a continuous column
//! and under inference.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use er_ingest::{ChunkConfig, Format, IngestConfig, IngestError, RowStream, SchemaMode};
use er_table::{Attribute, Pool, Relation, Schema, Value};
use std::sync::Arc;

/// What one path made of an input: the rows it committed (one relation per
/// chunk, concatenated), the pool's values in code order, and the error
/// that ended the stream, if any.
#[derive(Debug, PartialEq)]
struct Outcome {
    codes: Vec<Vec<u32>>,
    generation: u64,
    pool: Vec<Value>,
    error: Option<String>,
}

fn outcome(rel: Option<Relation>, pool: &Pool, error: Option<IngestError>) -> Outcome {
    let (codes, generation) = match &rel {
        Some(rel) => (
            (0..rel.num_attrs())
                .map(|a| rel.column(a).to_vec())
                .collect(),
            rel.generation(),
        ),
        None => (Vec::new(), 0),
    };
    Outcome {
        codes,
        generation,
        pool: (0..pool.len() as u32).map(|c| pool.value(c)).collect(),
        error: error.map(|e| format!("{e:?}")),
    }
}

fn append(acc: &mut Option<Relation>, chunk: Relation) {
    match acc {
        Some(rel) => rel.append(&chunk),
        None => *acc = Some(chunk),
    }
}

/// The Value path: typed rows per chunk, interned row by row.
fn value_path(text: &[u8], config: &IngestConfig) -> Outcome {
    let pool = Arc::new(Pool::new());
    let mut stream = RowStream::new("t", text, config);
    let mut acc = None;
    let error = loop {
        match stream.next_batch() {
            Ok(Some(rows)) => {
                let schema = Arc::clone(stream.schema().unwrap());
                let mut rel = Relation::empty(schema, Arc::clone(&pool));
                for row in &rows {
                    rel.push_row_ref(row).unwrap();
                }
                append(&mut acc, rel);
            }
            Ok(None) => break None,
            Err(e) => break Some(e),
        }
    };
    outcome(acc, &pool, error)
}

/// The codes path.
fn codes_path(text: &[u8], config: &IngestConfig) -> Outcome {
    let pool = Arc::new(Pool::new());
    let mut stream = RowStream::new("t", text, config);
    let mut acc = None;
    let error = loop {
        match stream.next_relation(&pool) {
            Ok(Some(rel)) => append(&mut acc, rel),
            Ok(None) => break None,
            Err(e) => break Some(e),
        }
    };
    outcome(acc, &pool, error)
}

fn schema() -> Arc<Schema> {
    Arc::new(Schema::new(
        "t",
        vec![
            Attribute::categorical("City"),
            Attribute::continuous("Age"),
            Attribute::categorical("Case"),
        ],
    ))
}

/// The table: a name, the input, and the error the Value path must end
/// with (`None` = a clean load), as a Debug-string prefix.
fn cases() -> Vec<(&'static str, Vec<u8>, Option<&'static str>)> {
    let mut oversized = b"City,Age,Case\nHZ,1,a\n".to_vec();
    oversized.extend(std::iter::repeat_n(b'x', 200_000));
    oversized.extend_from_slice(b",2,b\nBJ,3,c\n");
    vec![
        (
            "bad_utf8",
            b"City,Age,Case\nHZ,1,a\nM\xFCnchen,2,b\n".to_vec(),
            Some("BadUtf8 { record: 3 }"),
        ),
        (
            "unterminated_quote",
            b"City,Age,Case\nHZ,1,a\n\"open,2,b\n".to_vec(),
            Some("TruncatedRecord { record: 3 }"),
        ),
        (
            "quote_inside_unquoted_field",
            b"City,Age,Case\nHZ,1,a\nH\"Z\",2,b\n".to_vec(),
            Some("Csv { record: 3, message: \"quote inside unquoted field\" }"),
        ),
        (
            "escaped_quotes",
            b"City,Age,Case\n\"H\"\"Z\",1,\"say \"\"hi\"\"\"\nHZ,2,\"\"\"\"\n".to_vec(),
            None,
        ),
        (
            "text_after_closing_quote",
            b"City,Age,Case\n\"ab\"c,1,\"\"d\nabc,2,d\n".to_vec(),
            None,
        ),
        (
            "arity_mismatch",
            b"City,Age,Case\nHZ,1,a\nBJ,2\nSZ,3,c\n".to_vec(),
            Some("ArityMismatch { record: 3, expected: 3, got: 2 }"),
        ),
        (
            "oversized_record",
            oversized,
            Some("OversizedRecord { record: 3, limit: 64 }"),
        ),
        (
            "cr_only_terminators",
            b"City,Age,Case\rHZ,1,a\rBJ,2,b\r".to_vec(),
            None,
        ),
        (
            "crlf_terminators",
            b"City,Age,Case\r\nHZ,1,a\r\nBJ,2,\"x\r\ny\"\r\n".to_vec(),
            None,
        ),
        (
            "blank_and_whitespace_cells",
            b"City,Age,Case\n  ,, \t\n HZ , 7 ,a \nHZ,7,a\n,,\n".to_vec(),
            None,
        ),
        (
            "unparsable_continuous_cells",
            b"City,Age,Case\nHZ,abc,a\nBJ, 4.5 ,b\nSZ,4.5x,c\nHZ,07,a\nHZ,7,a\n".to_vec(),
            None,
        ),
    ]
}

#[test]
fn next_relation_answers_every_case_like_next_batch() {
    for (name, text, want_error) in cases() {
        // The oversized case needs a record budget below its long record,
        // which also outgrows one 64 KiB read at the default chunk size.
        let max_record_bytes = if name == "oversized_record" {
            64
        } else {
            ChunkConfig::default().max_record_bytes
        };
        for chunk_bytes in [8, ChunkConfig::default().chunk_bytes] {
            for explicit in [true, false] {
                let config = IngestConfig {
                    format: Format::Csv,
                    schema: if explicit {
                        SchemaMode::Explicit(schema())
                    } else {
                        SchemaMode::Infer
                    },
                    chunk: ChunkConfig {
                        chunk_bytes,
                        max_record_bytes,
                    },
                    threads: 1,
                };
                let context = format!("{name} at chunk_bytes {chunk_bytes}, explicit {explicit}");
                let want = value_path(&text, &config);
                let got = codes_path(&text, &config);
                match (want_error, &want.error) {
                    (Some(prefix), Some(error)) => {
                        assert!(error.starts_with(prefix), "{context}: {error}")
                    }
                    (None, None) => assert!(!want.codes.is_empty(), "{context}: no rows"),
                    (want_error, error) => {
                        panic!("{context}: expected {want_error:?}, the Value path gave {error:?}")
                    }
                }
                assert_eq!(got, want, "{context}");
            }
        }
    }
}

#[test]
fn continuous_cells_parse_like_the_value_path() {
    // Spot-check the decoded values of the trickiest case, beyond parity.
    let config = IngestConfig {
        schema: SchemaMode::Explicit(schema()),
        ..IngestConfig::default()
    };
    let pool = Arc::new(Pool::new());
    let text = b"City,Age,Case\nHZ,abc,a\nBJ, 4.5 ,b\nHZ,07,a\n  ,,\n";
    let mut stream = RowStream::new("t", &text[..], &config);
    let rel = stream.next_relation(&pool).unwrap().unwrap();
    assert!(stream.next_relation(&pool).unwrap().is_none());
    assert!(rel.is_null(0, 1), "unparsable numeric reads NULL");
    assert_eq!(rel.value(1, 1), Value::float(4.5));
    assert_eq!(rel.value(2, 1), Value::int(7));
    assert_eq!(rel.value(2, 0), Value::str("HZ"));
    assert!((0..3).all(|a| rel.is_null(3, a)), "blank cells read NULL");
    assert_eq!(stream.stats().rows, 4);
}
