#![forbid(unsafe_code)]
//! er-ingest — out-of-core streaming ingestion and the dataset registry.
//!
//! The layer between raw bytes and the repair engine. Three pieces:
//!
//! * [`ChunkReader`] — splits any byte source into chunks of whole records
//!   under a memory bound, using the *same* record-boundary state machine as
//!   the in-memory CSV loader ([`er_table::csv::RecordScanner`]), with typed
//!   [`IngestError`]s for bad UTF-8, truncated input, and oversized records.
//! * [`RowStream`] / [`ingest_relation`] / [`ingest_append`] — format-aware
//!   (CSV or NDJSON) streaming with schema inference or an explicit-schema
//!   override. [`RowStream::next_relation`] takes CSV straight to
//!   dictionary codes: records split into slices of the chunk, and a
//!   per-column cache parses and interns each distinct cell once per
//!   chunk, in first-occurrence order. [`RowStream::next_batch`] yields
//!   rows of values instead (NDJSON, appends), parsing records across an
//!   er-par pool. Every pool interning and index update happens
//!   sequentially in record order, so a chunked load is byte-identical to
//!   a whole-file build at any chunk size and thread count (enforced by
//!   `tests/equivalence.rs` at 1/2/8 threads and `tests/parity.rs`).
//! * [`DatasetRegistry`] — named dataset configs (generator shape, error
//!   model, scale knob, or an on-disk CSV pair) behind one [`Dataset`]
//!   trait, so `experiments` and `er-serve` sweep scenarios by name.
//!
//! DESIGN.md §15 documents the pipeline (frame, split, code cache,
//! commit) and why the dictionary order holds.

mod chunk;
mod error;
mod registry;
mod stream;

pub use chunk::{Chunk, ChunkConfig, ChunkReader};
pub use error::IngestError;
pub use registry::{Dataset, DatasetRegistry, ScaleKnobs};
pub use stream::{
    ingest_append, ingest_relation, DataChunk, Format, IngestConfig, IngestStats, RowStream,
    SchemaMode,
};
