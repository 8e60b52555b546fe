//! Format-aware streaming: chunked records → dictionary codes or typed rows.
//!
//! [`RowStream`] resolves a schema from the first record (or validates an
//! explicit one), then turns each [`ChunkReader`] chunk into one of two
//! things:
//!
//! * [`RowStream::next_relation`] — a [`Relation`] over the caller's pool.
//!   CSV records go straight to dictionary codes: fields are split as
//!   slices of the chunk ([`split_fields`]) and a per-column map caches
//!   each distinct cell's code, so a cell is parsed and interned once per
//!   chunk ([`CellEncoder`]). The bulk paths (`ingest_relation`, er-serve's
//!   `repair_csv`) use this one.
//! * [`RowStream::next_batch`] — rows of [`Value`]s, for callers that need
//!   values (NDJSON, `ingest_append`). Record parsing fans out across an
//!   er-par [`WorkerPool`]; parsing touches no shared state, so any thread
//!   count yields the same rows in the same order.
//!
//! Either way, interning happens sequentially in record order, in the
//! order a row-by-row build would intern, which is what makes chunked
//! ingest byte-identical to a whole-file build (DESIGN.md §15).

use crate::chunk::{Chunk, ChunkConfig, ChunkReader};
use crate::error::IngestError;
use er_incr::IncrEngine;
use er_par::WorkerPool;
use er_table::csv::{check_header, parse_field, split_fields, split_record, CellEncoder};
use er_table::{Attribute, Pool, Relation, RelationBuilder, Schema, Value};
use serde_json::Value as Json;
use std::borrow::Cow;
use std::io::Read;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Input wire format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// RFC-4180 CSV with a mandatory header record.
    Csv,
    /// Newline-delimited JSON: one object (or, under an explicit schema,
    /// one positional array) per line.
    Ndjson,
}

/// Where the schema comes from.
#[derive(Debug, Clone)]
pub enum SchemaMode {
    /// Infer an all-categorical schema from the CSV header or the first
    /// NDJSON object's key order.
    Infer,
    /// Use this schema; the CSV header (or NDJSON keys) must match its
    /// attribute names, and continuous attributes parse numerically.
    Explicit(Arc<Schema>),
}

/// Knobs for one streaming load.
#[derive(Debug, Clone)]
pub struct IngestConfig {
    /// Wire format. Default CSV.
    pub format: Format,
    /// Schema source. Default inference.
    pub schema: SchemaMode,
    /// Chunking and record-size bounds.
    pub chunk: ChunkConfig,
    /// Worker threads for intra-chunk record parsing into values
    /// ([`RowStream::next_batch`], and NDJSON everywhere); 0 = `ER_THREADS`
    /// or sequential. Output is identical at any setting. CSV encoding
    /// straight to codes runs on the calling thread: its one pass of split
    /// and cache lookup costs less than the fan-out it would feed.
    pub threads: usize,
}

impl Default for IngestConfig {
    fn default() -> Self {
        IngestConfig {
            format: Format::Csv,
            schema: SchemaMode::Infer,
            chunk: ChunkConfig::default(),
            threads: 0,
        }
    }
}

/// Counters for one completed (or in-flight) load.
#[derive(Debug, Clone, Default)]
pub struct IngestStats {
    /// Data rows produced (header excluded).
    pub rows: usize,
    /// Chunks committed.
    pub chunks: usize,
    /// Input bytes consumed.
    pub bytes: usize,
    /// High-water mark of the raw byte buffer (the bounded-memory claim).
    pub peak_buffer_bytes: usize,
    /// Largest number of rows resident in a single chunk batch.
    pub peak_chunk_rows: usize,
    /// Time spent framing: reading the source, finding record boundaries
    /// and checking UTF-8 ([`ChunkReader::next_chunk`]).
    pub frame_time: Duration,
    /// Time spent splitting records into fields and parsing them: into
    /// values, or into per-chunk code-cache lookups on the codes path.
    pub split_parse_time: Duration,
    /// Time spent committing to the pool: interning each chunk's distinct
    /// cells and laying out its columns (codes path), or interning rows
    /// of values (NDJSON on the codes path). Zero on the Value path, where
    /// the caller interns.
    pub commit_time: Duration,
}

/// A record-level parse failure, attributed to a record number by the
/// sequential commit loop (the parallel parse phase has no global indices).
enum RecordError {
    Csv(String),
    Json(String),
    Arity { expected: usize, got: usize },
    Cell { attr: usize, message: String },
}

impl RecordError {
    fn at(self, record: usize) -> IngestError {
        match self {
            RecordError::Csv(message) => IngestError::Csv { record, message },
            RecordError::Json(message) => IngestError::Json { record, message },
            RecordError::Arity { expected, got } => IngestError::ArityMismatch {
                record,
                expected,
                got,
            },
            RecordError::Cell { attr, message } => IngestError::UnparseableCell {
                record,
                attr,
                message,
            },
        }
    }
}

/// A chunk of data records read by [`RowStream::next_chunk`], waiting to
/// be encoded.
#[derive(Debug)]
pub struct DataChunk {
    chunk: Chunk,
    /// Leading header records (1 in a CSV file's first chunk).
    skip: usize,
}

/// Streams a byte source as schema-typed row batches.
pub struct RowStream<R> {
    reader: ChunkReader<R>,
    format: Format,
    requested: SchemaMode,
    name: String,
    pool: WorkerPool,
    schema: Option<Arc<Schema>>,
    header_seen: bool,
    stats: IngestStats,
}

impl<R: Read> RowStream<R> {
    /// Wrap a byte source. `name` names the inferred schema (explicit
    /// schemas keep their own name).
    pub fn new(name: &str, src: R, config: &IngestConfig) -> Self {
        let reader = match config.format {
            Format::Csv => ChunkReader::new(src, config.chunk.clone()),
            Format::Ndjson => ChunkReader::new_lines(src, config.chunk.clone()),
        };
        RowStream {
            reader,
            format: config.format,
            requested: config.schema.clone(),
            name: name.to_string(),
            pool: WorkerPool::new(config.threads),
            schema: None,
            header_seen: false,
            stats: IngestStats::default(),
        }
    }

    /// The resolved schema — available once the first batch (or a
    /// header-only file) has been read.
    pub fn schema(&self) -> Option<&Arc<Schema>> {
        self.schema.as_ref()
    }

    /// Counters so far. `peak_buffer_bytes` is live even mid-stream.
    pub fn stats(&self) -> IngestStats {
        let mut stats = self.stats.clone();
        stats.peak_buffer_bytes = self.reader.peak_buffer_bytes();
        stats
    }

    /// Pull the next batch of typed rows, or `None` at end of input.
    /// Batches arrive in file order; rows within a batch in record order.
    pub fn next_batch(&mut self) -> Result<Option<Vec<Vec<Value>>>, IngestError> {
        let Some(data) = self.next_chunk()? else {
            return Ok(None);
        };
        let rows = self.parse_chunk(&data.chunk, data.skip)?;
        self.count_chunk(rows.len());
        Ok(Some(rows))
    }

    /// Pull the next chunk as a [`Relation`] encoded through `pool`, or
    /// `None` at end of input: [`next_chunk`](Self::next_chunk) then
    /// [`encode_chunk`](Self::encode_chunk). Chunks arrive in file order;
    /// rows within a chunk in record order.
    pub fn next_relation(&mut self, pool: &Arc<Pool>) -> Result<Option<Relation>, IngestError> {
        match self.next_chunk()? {
            Some(chunk) => self.encode_chunk(&chunk, pool).map(Some),
            None => Ok(None),
        }
    }

    /// Read the next chunk that holds data records, framed and checked as
    /// UTF-8 but not yet parsed; `None` at end of input. Resolves the
    /// schema from the first chunk and counts header-only chunks as they
    /// pass. Splitting the read from [`encode_chunk`](Self::encode_chunk)
    /// lets a caller wait on a slow source without holding what the
    /// encoding needs (er-serve's engine lock and backpressure slot).
    pub fn next_chunk(&mut self) -> Result<Option<DataChunk>, IngestError> {
        loop {
            let started = Instant::now();
            let chunk = self.reader.next_chunk();
            self.stats.frame_time += started.elapsed();
            let Some(chunk) = chunk? else {
                if !self.header_seen {
                    // A zero-record CSV has no header to infer from; an
                    // explicit schema makes an empty file a valid empty load.
                    match &self.requested {
                        SchemaMode::Explicit(schema) => {
                            self.schema = Some(Arc::clone(schema));
                            self.header_seen = true;
                        }
                        SchemaMode::Infer => {
                            return Err(IngestError::Schema {
                                message: "empty input: nothing to infer a schema from".to_string(),
                            });
                        }
                    }
                }
                return Ok(None);
            };
            self.stats.bytes += chunk.bytes;
            let skip = if self.header_seen {
                0
            } else {
                let skip = self.resolve_schema(&chunk)?;
                self.header_seen = true;
                skip
            };
            if chunk.len() <= skip {
                self.stats.chunks += 1;
                continue; // header-only chunk: keep pulling
            }
            return Ok(Some(DataChunk { chunk, skip }));
        }
    }

    /// Encode a chunk from [`next_chunk`](Self::next_chunk) as a
    /// [`Relation`] through `pool`. The codes and the pool's dictionary
    /// order are those [`next_batch`](Self::next_batch) followed by
    /// [`Relation::push_row_ref`] of every row would give, and so are the
    /// errors; a chunk that fails interns nothing.
    pub fn encode_chunk(
        &mut self,
        data: &DataChunk,
        pool: &Arc<Pool>,
    ) -> Result<Relation, IngestError> {
        let schema = Arc::clone(self.resolved()?);
        let rel = match self.format {
            Format::Csv => encode_csv_chunk(&data.chunk, data.skip, schema, pool, &mut self.stats)?,
            Format::Ndjson => {
                let rows = self.parse_chunk(&data.chunk, data.skip)?;
                let started = Instant::now();
                let mut rel = Relation::empty(schema, Arc::clone(pool));
                for (i, row) in rows.iter().enumerate() {
                    rel.push_row_ref(row).map_err(|e| IngestError::Append {
                        message: format!("row {}: {e}", self.stats.rows + i + 1),
                    })?;
                }
                self.stats.commit_time += started.elapsed();
                rel
            }
        };
        self.count_chunk(rel.num_rows());
        Ok(rel)
    }

    /// Count one committed chunk of `rows` data rows.
    fn count_chunk(&mut self, rows: usize) {
        self.stats.chunks += 1;
        self.stats.rows += rows;
        self.stats.peak_chunk_rows = self.stats.peak_chunk_rows.max(rows);
    }

    fn resolved(&self) -> Result<&Arc<Schema>, IngestError> {
        self.schema.as_ref().ok_or_else(|| IngestError::Schema {
            message: "internal: parse before schema resolution".to_string(),
        })
    }

    /// Resolve the schema from the first chunk; returns how many leading
    /// records of that chunk are header (1 for CSV, 0 for NDJSON).
    fn resolve_schema(&mut self, chunk: &Chunk) -> Result<usize, IngestError> {
        match self.format {
            Format::Csv => {
                let header = split_record(chunk.record(0), 1).map_err(|e| IngestError::Csv {
                    record: chunk.first_record,
                    message: csv_message(e),
                })?;
                match &self.requested {
                    SchemaMode::Explicit(schema) => {
                        check_against_schema(&header, schema)?;
                        self.schema = Some(Arc::clone(schema));
                    }
                    SchemaMode::Infer => {
                        check_header(&header).map_err(|e| IngestError::Schema {
                            message: csv_message(e),
                        })?;
                        self.schema = Some(Arc::new(Schema::new(
                            &self.name,
                            header
                                .iter()
                                .map(|h| Attribute::categorical(h.trim()))
                                .collect(),
                        )));
                    }
                }
                Ok(1)
            }
            Format::Ndjson => {
                match &self.requested {
                    SchemaMode::Explicit(schema) => self.schema = Some(Arc::clone(schema)),
                    SchemaMode::Infer => {
                        let json: Json = serde_json::from_str(chunk.record(0)).map_err(|e| {
                            IngestError::Json {
                                record: chunk.first_record,
                                message: e.to_string(),
                            }
                        })?;
                        let Some(fields) = json.as_object() else {
                            return Err(IngestError::Schema {
                                message: format!(
                                    "schema inference needs an object record, got {}",
                                    json.kind()
                                ),
                            });
                        };
                        let keys: Vec<String> = fields.iter().map(|(k, _)| k.clone()).collect();
                        check_header(&keys).map_err(|e| IngestError::Schema {
                            message: csv_message(e),
                        })?;
                        self.schema = Some(Arc::new(Schema::new(
                            &self.name,
                            keys.iter()
                                .map(|k| Attribute::categorical(k.as_str()))
                                .collect(),
                        )));
                    }
                }
                Ok(0)
            }
        }
    }

    fn parse_chunk(&mut self, chunk: &Chunk, skip: usize) -> Result<Vec<Vec<Value>>, IngestError> {
        let started = Instant::now();
        let schema = self.resolved()?;
        let format = self.format;
        let records: Vec<&str> = chunk.records().skip(skip).collect();
        let parsed: Vec<Result<Vec<Value>, RecordError>> = self
            .pool
            .map(&records, |body| parse_record(body, format, schema));
        let mut rows = Vec::with_capacity(parsed.len());
        for (i, row) in parsed.into_iter().enumerate() {
            rows.push(row.map_err(|e| e.at(chunk.first_record + skip + i))?);
        }
        self.stats.split_parse_time += started.elapsed();
        Ok(rows)
    }
}

/// Encode the data records of a CSV chunk straight to codes: split each
/// record into slices of the chunk, check its arity, and look each cell up
/// in the chunk's per-column code cache. Nothing is interned until every
/// record has split, so the first bad record fails the chunk as it fails
/// [`RowStream::next_batch`], with the pool untouched.
fn encode_csv_chunk(
    chunk: &Chunk,
    skip: usize,
    schema: Arc<Schema>,
    pool: &Arc<Pool>,
    stats: &mut IngestStats,
) -> Result<Relation, IngestError> {
    let started = Instant::now();
    let mut encoder = CellEncoder::new(&schema);
    let mut fields = Vec::with_capacity(schema.arity());
    for (i, body) in chunk.records().enumerate().skip(skip) {
        let record = chunk.first_record + i;
        split_fields(body, 1, &mut fields).map_err(|e| IngestError::Csv {
            record,
            message: csv_message(e),
        })?;
        if fields.len() != schema.arity() {
            return Err(IngestError::ArityMismatch {
                record,
                expected: schema.arity(),
                got: fields.len(),
            });
        }
        encoder.push_row(fields.drain(..));
    }
    let committing = Instant::now();
    stats.split_parse_time += committing - started;
    let mut builder = RelationBuilder::new(schema, Arc::clone(pool));
    encoder.commit(&mut builder);
    stats.commit_time += committing.elapsed();
    Ok(builder.finish())
}

/// Extract the message of a table-layer CSV error without its line number —
/// the streaming path reports record numbers, which stay meaningful across
/// chunk boundaries where intra-record line numbers do not.
fn csv_message(e: er_table::Error) -> String {
    match e {
        er_table::Error::Csv { message, .. } => message,
        other => other.to_string(),
    }
}

fn check_against_schema(header: &[Cow<'_, str>], schema: &Schema) -> Result<(), IngestError> {
    if header.len() != schema.arity() {
        return Err(IngestError::Schema {
            message: format!(
                "header has {} columns, schema expects {}",
                header.len(),
                schema.arity()
            ),
        });
    }
    for (i, h) in header.iter().enumerate() {
        if h.trim() != schema.attr(i).name {
            return Err(IngestError::Schema {
                message: format!(
                    "header column {} is {:?}, schema expects {:?}",
                    i,
                    h.trim(),
                    schema.attr(i).name
                ),
            });
        }
    }
    Ok(())
}

fn parse_record(body: &str, format: Format, schema: &Schema) -> Result<Vec<Value>, RecordError> {
    match format {
        Format::Csv => parse_csv_record(body, schema),
        Format::Ndjson => parse_ndjson_record(body, schema),
    }
}

fn parse_csv_record(body: &str, schema: &Schema) -> Result<Vec<Value>, RecordError> {
    let fields = split_record(body, 1).map_err(|e| RecordError::Csv(csv_message(e)))?;
    if fields.len() != schema.arity() {
        return Err(RecordError::Arity {
            expected: schema.arity(),
            got: fields.len(),
        });
    }
    Ok(fields
        .iter()
        .enumerate()
        .map(|(attr, raw)| parse_field(raw, schema.attr(attr).is_continuous()))
        .collect())
}

fn parse_ndjson_record(body: &str, schema: &Schema) -> Result<Vec<Value>, RecordError> {
    let json: Json = serde_json::from_str(body).map_err(|e| RecordError::Json(e.to_string()))?;
    match &json {
        Json::Array(items) => {
            if items.len() != schema.arity() {
                return Err(RecordError::Arity {
                    expected: schema.arity(),
                    got: items.len(),
                });
            }
            items
                .iter()
                .enumerate()
                .map(|(attr, v)| {
                    json_cell(v, schema.attr(attr).is_continuous())
                        .map_err(|message| RecordError::Cell { attr, message })
                })
                .collect()
        }
        Json::Object(fields) => {
            for (key, _) in fields {
                if !schema.attributes().iter().any(|a| a.name == *key) {
                    return Err(RecordError::Json(format!("unknown key {key:?}")));
                }
            }
            schema
                .attributes()
                .iter()
                .enumerate()
                .map(|(attr, a)| match json.get(&a.name) {
                    None => Ok(Value::Null),
                    Some(v) => json_cell(v, a.is_continuous())
                        .map_err(|message| RecordError::Cell { attr, message }),
                })
                .collect()
        }
        other => Err(RecordError::Json(format!(
            "expected object or array record, got {}",
            other.kind()
        ))),
    }
}

/// Convert one NDJSON cell, normalizing NULLs exactly like the CSV path:
/// JSON `null` and blank strings both become [`Value::Null`], and string
/// cells go through the same [`parse_field`] the CSV loader uses.
fn json_cell(v: &Json, continuous: bool) -> Result<Value, String> {
    match v {
        Json::Null => Ok(Value::Null),
        Json::Str(s) => Ok(parse_field(s, continuous)),
        Json::Int(i) => Ok(if continuous {
            Value::Int(*i)
        } else {
            Value::str(i.to_string())
        }),
        Json::UInt(u) => match i64::try_from(*u) {
            Ok(i) => Ok(if continuous {
                Value::Int(i)
            } else {
                Value::str(i.to_string())
            }),
            Err(_) => Err(format!("integer {u} out of i64 range")),
        },
        Json::Float(f) => Ok(if continuous {
            Value::Float(*f)
        } else {
            Value::str(format!("{f}"))
        }),
        Json::Bool(_) | Json::Array(_) | Json::Object(_) => {
            Err(format!("cannot ingest a {} cell", v.kind()))
        }
    }
}

/// Stream a source into a fresh [`Relation`] chunk by chunk.
///
/// Each chunk is encoded through [`RowStream::next_relation`] and appended
/// in file order, so the result (dictionary order, column codes,
/// generation) is byte-identical to [`er_table::csv::read_str`] on the
/// concatenated file at any chunk size and thread count.
pub fn ingest_relation<R: Read>(
    name: &str,
    src: R,
    pool: Arc<Pool>,
    config: &IngestConfig,
) -> Result<(Relation, IngestStats), IngestError> {
    let mut stream = RowStream::new(name, src, config);
    let mut rel: Option<Relation> = None;
    while let Some(chunk) = stream.next_relation(&pool)? {
        match rel.as_mut() {
            Some(rel) => rel.append(&chunk),
            None => rel = Some(chunk),
        }
    }
    let rel = match (rel, stream.schema()) {
        (Some(rel), _) => rel,
        // Header-only file (or empty NDJSON under an explicit schema): a
        // valid zero-row relation.
        (None, Some(schema)) => Relation::empty(Arc::clone(schema), pool),
        (None, None) => {
            return Err(IngestError::Schema {
                message: "no schema resolved from empty input".to_string(),
            })
        }
    };
    Ok((rel, stream.stats()))
}

/// Stream a source into a warm [`IncrEngine`] chunk by chunk.
///
/// The source must carry master-schema records; each chunk commits through
/// [`IncrEngine::append_rows`], delta-updating the warmed indexes. The
/// resulting master (pool, columns, generation, indexes) is byte-identical
/// to appending all rows at once, and — by `apply_append`'s
/// equals-rebuild contract — to a whole-file rebuild.
pub fn ingest_append<R: Read>(
    engine: &mut IncrEngine,
    src: R,
    config: &IngestConfig,
) -> Result<IngestStats, IngestError> {
    let schema = Arc::clone(engine.master().schema());
    let mut config = config.clone();
    config.schema = SchemaMode::Explicit(schema);
    let mut stream = RowStream::new("append", src, &config);
    while let Some(rows) = stream.next_batch()? {
        engine.append_rows(&rows).map_err(|e| IngestError::Append {
            message: e.to_string(),
        })?;
    }
    Ok(stream.stats())
}
