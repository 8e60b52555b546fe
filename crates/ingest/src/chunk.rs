//! Bounded-memory record chunking.
//!
//! [`ChunkReader`] pulls bytes from any [`Read`] source and yields chunks of
//! whole records, never holding more than roughly one chunk plus one record
//! in memory. Record boundaries come from [`er_table::csv::RecordScanner`] —
//! the same state machine the in-memory loader uses — so the chunked and
//! whole-file paths agree byte-for-byte on where records end. NDJSON reuses
//! the same reader: a line-delimited format is a degenerate CSV for boundary
//! purposes, except that `"` does not open a multi-line field, so the
//! scanner's quote tracking is disabled there (a JSON string can contain an
//! unbalanced quote only via `\"`, which never spans lines).

use crate::error::IngestError;
use er_table::csv::RecordScanner;
use std::io::Read;

/// How much to buffer and how big one record may get.
#[derive(Debug, Clone)]
pub struct ChunkConfig {
    /// Target consumed bytes per chunk. A chunk closes at the first record
    /// boundary at or past this many bytes. Default 1 MiB.
    pub chunk_bytes: usize,
    /// Hard cap on a single record. A record with no terminator within this
    /// budget (a body of at least this many bytes) aborts the load with
    /// [`IngestError::OversizedRecord`] instead of buffering without bound,
    /// whatever the chunking. Default 1 MiB.
    pub max_record_bytes: usize,
}

impl Default for ChunkConfig {
    fn default() -> Self {
        ChunkConfig {
            chunk_bytes: 1 << 20,
            max_record_bytes: 1 << 20,
        }
    }
}

/// One chunk of whole records.
#[derive(Debug)]
pub struct Chunk {
    /// 1-based record number of the first record in this chunk (the header
    /// of a CSV file is record 1).
    pub first_record: usize,
    /// Consumed input bytes, terminators included.
    pub bytes: usize,
    /// The record bodies back to back, terminators stripped, validated
    /// UTF-8: one buffer per chunk instead of one `String` per record.
    text: String,
    /// End offset in `text` of each record.
    ends: Vec<usize>,
}

impl Chunk {
    /// Number of records.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether the chunk holds no record.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// The body of record `i` (0-based within the chunk).
    ///
    /// # Panics
    /// Panics if `i >= self.len()`.
    pub fn record(&self, i: usize) -> &str {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.text[start..self.ends[i]]
    }

    /// The record bodies in file order.
    pub fn records(&self) -> impl ExactSizeIterator<Item = &str> + '_ {
        (0..self.len()).map(|i| self.record(i))
    }
}

/// Streams a byte source as chunks of whole records under a memory bound.
#[derive(Debug)]
pub struct ChunkReader<R> {
    src: R,
    config: ChunkConfig,
    /// Read window: `buf[pos..]` is unconsumed and grows only until the
    /// next record boundary. Consumed bytes are dropped once, before the
    /// next refill, not after every record.
    buf: Vec<u8>,
    pos: usize,
    scratch: Vec<u8>,
    scanner: RecordScanner,
    /// Scanner quote tracking applies (CSV). NDJSON boundaries ignore quotes.
    quoted: bool,
    /// Resume offset for line-mode scanning (the quote-free counterpart of
    /// the scanner's internal resume state).
    line_scanned: usize,
    eof: bool,
    /// Records yielded so far (1-based numbering for the next one).
    records_out: usize,
    peak_buffer_bytes: usize,
}

const SCRATCH_BYTES: usize = 64 * 1024;
/// Initial capacity of a chunk's text buffer, at most: a chunk target of
/// `usize::MAX` must not reserve it.
const TEXT_CAPACITY: usize = 1 << 20;

impl<R: Read> ChunkReader<R> {
    /// A reader for a quote-aware (CSV) source.
    pub fn new(src: R, config: ChunkConfig) -> Self {
        Self::build(src, config, true)
    }

    /// A reader for a line-delimited (NDJSON) source: every `\n`, `\r\n`, or
    /// lone `\r` ends a record, with no quote tracking.
    pub fn new_lines(src: R, config: ChunkConfig) -> Self {
        Self::build(src, config, false)
    }

    fn build(src: R, config: ChunkConfig, quoted: bool) -> Self {
        let scratch = config.chunk_bytes.clamp(1, SCRATCH_BYTES);
        ChunkReader {
            src,
            config,
            buf: Vec::new(),
            pos: 0,
            scratch: vec![0u8; scratch],
            scanner: RecordScanner::new(),
            quoted,
            line_scanned: 0,
            eof: false,
            records_out: 0,
            peak_buffer_bytes: 0,
        }
    }

    /// High-water mark of the internal byte buffer — the bounded-memory
    /// claim, measurable: stays under `chunk-target + max_record_bytes +
    /// one read` regardless of input size.
    pub fn peak_buffer_bytes(&self) -> usize {
        self.peak_buffer_bytes
    }

    /// Records yielded so far.
    pub fn records_read(&self) -> usize {
        self.records_out
    }

    /// Pull the next chunk of whole records, or `None` at end of input.
    pub fn next_chunk(&mut self) -> Result<Option<Chunk>, IngestError> {
        let mut chunk = Chunk {
            first_record: self.records_out + 1,
            bytes: 0,
            text: String::with_capacity(self.config.chunk_bytes.min(TEXT_CAPACITY)),
            ends: Vec::new(),
        };
        loop {
            match self.find_boundary() {
                Some(span) if span.end >= self.config.max_record_bytes => {
                    // The record ended inside the buffer, but its body
                    // reaches the cap: the same answer as when its bytes
                    // arrive a few at a time and the cap trips before the
                    // terminator does.
                    return Err(self.oversized());
                }
                Some(span) => {
                    let body = &self.buf[self.pos..self.pos + span.end];
                    let body = std::str::from_utf8(body).map_err(|_| IngestError::BadUtf8 {
                        record: self.records_out + 1,
                    })?;
                    chunk.text.push_str(body);
                    chunk.ends.push(chunk.text.len());
                    self.pos += span.next;
                    self.records_out += 1;
                    chunk.bytes += span.next;
                    if chunk.bytes >= self.config.chunk_bytes {
                        return Ok(Some(chunk));
                    }
                }
                None if self.eof => {
                    if self.scanner.in_quotes() {
                        return Err(IngestError::TruncatedRecord {
                            record: self.records_out + 1,
                        });
                    }
                    return Ok((!chunk.is_empty()).then_some(chunk));
                }
                None => {
                    // No boundary in more than the cap: the record body is at
                    // least the cap long (a trailing `\r` may still be the
                    // start of its terminator).
                    if self.buf.len() - self.pos > self.config.max_record_bytes {
                        return Err(self.oversized());
                    }
                    // Drop the consumed prefix: one move per refill. The
                    // scanners resume relative to the record start, which
                    // stays at `pos`.
                    self.buf.drain(..self.pos);
                    self.pos = 0;
                    let n = self.src.read(&mut self.scratch)?;
                    if n == 0 {
                        self.eof = true;
                    } else {
                        self.buf.extend_from_slice(&self.scratch[..n]);
                        self.peak_buffer_bytes = self.peak_buffer_bytes.max(self.buf.len());
                    }
                }
            }
        }
    }

    /// The error for a record whose body reaches `max_record_bytes`.
    fn oversized(&self) -> IngestError {
        IngestError::OversizedRecord {
            record: self.records_out + 1,
            limit: self.config.max_record_bytes,
        }
    }

    fn find_boundary(&mut self) -> Option<er_table::csv::RecordSpan> {
        let buf = &self.buf[self.pos..];
        if self.quoted {
            return self.scanner.find(buf, self.eof);
        }
        // Line mode: pure line-break scanning, no quote tracking. A raw `"`
        // count means nothing in NDJSON (`\"` inside a JSON string is an odd
        // raw quote), so the CSV scanner's state machine must not be used.
        let mut i = self.line_scanned;
        while i < buf.len() {
            match buf[i] {
                b'\n' => {
                    self.line_scanned = 0;
                    return Some(er_table::csv::RecordSpan {
                        end: i,
                        next: i + 1,
                    });
                }
                b'\r' => {
                    if i + 1 < buf.len() {
                        let next = i + 1 + usize::from(buf[i + 1] == b'\n');
                        self.line_scanned = 0;
                        return Some(er_table::csv::RecordSpan { end: i, next });
                    }
                    if self.eof {
                        self.line_scanned = 0;
                        return Some(er_table::csv::RecordSpan {
                            end: i,
                            next: i + 1,
                        });
                    }
                    self.line_scanned = i;
                    return None;
                }
                _ => i += 1,
            }
        }
        if self.eof && !buf.is_empty() {
            self.line_scanned = 0;
            return Some(er_table::csv::RecordSpan {
                end: buf.len(),
                next: buf.len(),
            });
        }
        self.line_scanned = buf.len();
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A reader that returns at most `step` bytes per call, to exercise
    /// partial reads and chunk-boundary-mid-record paths.
    struct Dribble<'a> {
        data: &'a [u8],
        pos: usize,
        step: usize,
    }

    impl Read for Dribble<'_> {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            let n = self.step.min(out.len()).min(self.data.len() - self.pos);
            out[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    fn drain(mut reader: ChunkReader<impl Read>) -> Vec<String> {
        let mut all = Vec::new();
        while let Some(chunk) = reader.next_chunk().unwrap() {
            all.extend(chunk.records().map(str::to_owned));
        }
        all
    }

    #[test]
    fn splits_on_record_boundaries() {
        let text = b"A,B\nx,\"q\nz\"\ny,w\n";
        let reader = ChunkReader::new(
            Dribble {
                data: text,
                pos: 0,
                step: 3,
            },
            ChunkConfig {
                chunk_bytes: 4,
                max_record_bytes: 64,
            },
        );
        assert_eq!(drain(reader), vec!["A,B", "x,\"q\nz\"", "y,w"]);
    }

    #[test]
    fn oversized_record_is_a_typed_error() {
        let text = b"A\n0123456789012345678901234567890123456789\n";
        let mut reader = ChunkReader::new(
            &text[..],
            ChunkConfig {
                chunk_bytes: 8,
                max_record_bytes: 16,
            },
        );
        // The error carries the record number even though the chunk never
        // completes: the whole load aborts, partial records are not leaked.
        match reader.next_chunk() {
            Err(IngestError::OversizedRecord {
                record: 2,
                limit: 16,
            }) => {}
            other => panic!("expected OversizedRecord, got {other:?}"),
        }
    }

    #[test]
    fn record_cap_holds_at_every_chunking() {
        // A body one byte under the cap passes; one at the cap, or past it,
        // fails — whether the record's terminator arrives in the same read
        // as the cap or many reads later, and in both boundary modes.
        const LIMIT: usize = 64;
        for body in [LIMIT - 1, LIMIT, LIMIT + 17] {
            for tail in [&b"\nafter\n"[..], b"\r\n", b""] {
                let mut text = b"A\nshort\n".to_vec();
                text.extend(std::iter::repeat_n(b'x', body));
                text.extend_from_slice(tail);
                for chunk_bytes in [1, 3, 8, 64, 100, 1 << 20] {
                    for quoted in [true, false] {
                        let config = ChunkConfig {
                            chunk_bytes,
                            max_record_bytes: LIMIT,
                        };
                        let mut reader = if quoted {
                            ChunkReader::new(&text[..], config)
                        } else {
                            ChunkReader::new_lines(&text[..], config)
                        };
                        let mut outcome = Ok(0);
                        while let Ok(n) = outcome {
                            outcome = match reader.next_chunk() {
                                Ok(Some(chunk)) => Ok(n + chunk.len()),
                                Ok(None) => break,
                                Err(e) => Err(e),
                            };
                        }
                        let case = format!("body {body}, tail {tail:?}, chunk {chunk_bytes}");
                        if body < LIMIT {
                            let records = 3 + usize::from(tail.len() > 2);
                            assert_eq!(outcome.ok(), Some(records), "{case}");
                        } else {
                            assert!(
                                matches!(
                                    outcome,
                                    Err(IngestError::OversizedRecord {
                                        record: 3,
                                        limit: LIMIT
                                    })
                                ),
                                "{case}: {outcome:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn bad_utf8_is_a_typed_error() {
        let mut reader = ChunkReader::new(&b"A\nM\xFC\n"[..], ChunkConfig::default());
        match reader.next_chunk() {
            Err(IngestError::BadUtf8 { record: 2 }) => {}
            other => panic!("expected BadUtf8, got {other:?}"),
        }
    }

    #[test]
    fn truncated_quote_is_a_typed_error() {
        let mut reader = ChunkReader::new(&b"A\n\"cut off"[..], ChunkConfig::default());
        match reader.next_chunk() {
            Err(IngestError::TruncatedRecord { record: 2 }) => {}
            other => panic!("expected TruncatedRecord, got {other:?}"),
        }
    }

    #[test]
    fn empty_input_yields_no_chunks() {
        let mut reader = ChunkReader::new(&b""[..], ChunkConfig::default());
        assert!(reader.next_chunk().unwrap().is_none());
    }

    #[test]
    fn line_mode_ignores_quotes() {
        let text = b"{\"a\":\"odd \\\" quote\"}\n{\"a\":2}\n";
        let reader = ChunkReader::new_lines(&text[..], ChunkConfig::default());
        let recs = drain(reader);
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[1], "{\"a\":2}");
    }

    #[test]
    fn peak_buffer_stays_bounded() {
        let mut data = Vec::new();
        data.extend_from_slice(b"A,B\n");
        for i in 0..10_000 {
            data.extend_from_slice(format!("row{i},value{i}\n").as_bytes());
        }
        let config = ChunkConfig {
            chunk_bytes: 4096,
            max_record_bytes: 256,
        };
        let mut reader = ChunkReader::new(&data[..], config);
        while reader.next_chunk().unwrap().is_some() {}
        // One scratch read past the target is the worst case.
        assert!(reader.peak_buffer_bytes() <= 4096 + 256 + SCRATCH_BYTES);
        assert!(reader.peak_buffer_bytes() > 0);
    }
}
