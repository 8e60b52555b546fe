//! Dependency-free CSV reader/writer.
//!
//! Supports RFC-4180-style quoting (embedded commas, quotes, and newlines),
//! a mandatory header row, and two loading modes:
//!
//! * [`read_str`] — every attribute is categorical; empty fields become NULL.
//! * [`read_str_with_schema`] — the caller supplies a [`Schema`]; fields of
//!   continuous attributes are parsed as integers/floats.
//!
//! Both split records with [`split_record`], whose fields borrow from the
//! text, and encode them with [`CellEncoder`], which parses and interns
//! each distinct cell once. er-ingest's chunked reader uses the same
//! [`RecordScanner`], splitter and encoder, chunk by chunk.
//!
//! The paper's real datasets (Adult, Covid-19, Nursery, Location) can be
//! loaded through this module when their CSVs are on disk; the experiment
//! harness falls back to the synthetic generators otherwise.

use crate::error::{Error, Result};
use crate::pool::{Code, Pool, NULL_CODE};
use crate::relation::{Relation, RelationBuilder};
use crate::schema::{Attribute, Schema};
use crate::value::Value;
use std::borrow::Cow;
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};
use std::path::Path;
use std::sync::Arc;

/// The terminator of one record found by [`RecordScanner::find`].
///
/// `buf[..end]` is the record body (terminator excluded); `buf[..next]` is
/// the consumed prefix including the terminator (`\n`, `\r\n`, or a lone
/// `\r`). `end == next` only for a final record with no trailing newline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordSpan {
    /// Byte offset one past the record body.
    pub end: usize,
    /// Byte offset one past the record terminator.
    pub next: usize,
}

/// Incremental, quote-aware record-boundary scanner.
///
/// Both the in-memory [`read_str`] path and er-ingest's chunked reader split
/// input into records with this scanner, so the two paths agree byte-for-byte
/// on where records end — the chunked-equals-whole-file identity holds by
/// construction, not by parallel maintenance of two state machines.
///
/// The scanner only finds boundaries; it does not validate quoting. It
/// toggles quote state on every `"` byte, which classifies escaped quotes
/// (`""`) correctly for boundary purposes: the pair toggles twice and no
/// line break can intervene. Field-level validation (stray quotes inside
/// unquoted fields, escape pairs) happens in [`split_record`].
///
/// Call [`find`](Self::find) on a growing buffer: on `None`, append more
/// bytes to the *same* buffer and call again — scanning resumes where it
/// stopped rather than rescanning. On `Some(span)`, the next record starts
/// at `span.next`: pass the buffer from there on the next call.
#[derive(Debug, Default, Clone)]
pub struct RecordScanner {
    in_quotes: bool,
    scanned: usize,
}

impl RecordScanner {
    /// A scanner at the start of a record, outside any quoted field.
    pub fn new() -> Self {
        Self::default()
    }

    /// Find the terminator of the first record in `buf`.
    ///
    /// `eof` means no further bytes will ever arrive: a trailing record
    /// without a newline is then returned, and a trailing `\r` is a complete
    /// terminator (with more data pending it could be half of a `\r\n`, so
    /// the scanner waits). Returns `None` when the buffer holds no complete
    /// record — either more data is needed, or (`eof` with
    /// [`in_quotes`](Self::in_quotes) true) a quoted field never closed.
    pub fn find(&mut self, buf: &[u8], eof: bool) -> Option<RecordSpan> {
        let mut i = self.scanned;
        while let Some(at) = next_special(buf, i, self.in_quotes) {
            i = at;
            match buf[i] {
                b'"' => self.in_quotes = !self.in_quotes,
                b'\n' => {
                    self.scanned = 0;
                    return Some(RecordSpan {
                        end: i,
                        next: i + 1,
                    });
                }
                // `next_special` stops at nothing else outside quotes.
                _ => {
                    if i + 1 < buf.len() {
                        let next = i + 1 + usize::from(buf[i + 1] == b'\n');
                        self.scanned = 0;
                        return Some(RecordSpan { end: i, next });
                    }
                    if eof {
                        self.scanned = 0;
                        return Some(RecordSpan {
                            end: i,
                            next: i + 1,
                        });
                    }
                    // The \r may be half of a CRLF split across reads:
                    // resume here once the next byte is visible.
                    self.scanned = i;
                    return None;
                }
            }
            i += 1;
        }
        if eof && !buf.is_empty() && !self.in_quotes {
            self.scanned = 0;
            return Some(RecordSpan {
                end: buf.len(),
                next: buf.len(),
            });
        }
        self.scanned = buf.len();
        None
    }

    /// True when the last scanned byte sits inside an open quoted field.
    pub fn in_quotes(&self) -> bool {
        self.in_quotes
    }
}

/// The first byte at or after `from` that can change the scanner's state:
/// a quote inside a quoted field; a quote, `\n` or `\r` outside one.
fn next_special(buf: &[u8], from: usize, in_quotes: bool) -> Option<usize> {
    if in_quotes {
        find_any(buf, from, [b'"'])
    } else {
        find_any(buf, from, [b'"', b'\n', b'\r'])
    }
}

/// The first index at or after `from` holding one of `needles`. Tests
/// eight bytes per step with the SWAR zero-byte trick: in each needle's
/// mask the lowest flagged byte is a true match (a false flag needs a
/// borrow from a true match below it), so the lowest flag of their union
/// is the first match.
fn find_any<const N: usize>(buf: &[u8], from: usize, needles: [u8; N]) -> Option<usize> {
    const ONES: u64 = 0x0101_0101_0101_0101;
    const HIGHS: u64 = 0x8080_8080_8080_8080;
    let mut i = from;
    while let Some(bytes) = buf.get(i..i + 8) {
        let mut w = [0u8; 8];
        w.copy_from_slice(bytes);
        let word = u64::from_le_bytes(w);
        let hits = needles.iter().fold(0, |hits, &needle| {
            let x = word ^ (ONES * u64::from(needle));
            hits | (x.wrapping_sub(ONES) & !x & HIGHS)
        });
        if hits != 0 {
            return Some(i + hits.trailing_zeros() as usize / 8);
        }
        i += 8;
    }
    let rest = buf.get(i..)?;
    rest.iter().position(|b| needles.contains(b)).map(|p| i + p)
}

/// Split one record body (terminator already stripped by [`RecordScanner`])
/// into fields that borrow from `record`, validating RFC-4180 quoting.
/// `base_line` is the 1-based line number where the record starts, used in
/// error reports; line breaks inside quoted fields advance it.
///
/// Every parse path splits with this function: the whole-file loaders here
/// and er-ingest's chunked reader.
pub fn split_record(record: &str, base_line: usize) -> Result<Vec<Cow<'_, str>>> {
    let mut fields = Vec::new();
    split_fields(record, base_line, &mut fields)?;
    Ok(fields)
}

/// [`split_record`] appending to a caller-owned vector, so a loop over many
/// records reuses one allocation. A field is a borrowed slice of `record`
/// unless its text is not contiguous there: a quoted field holding a `""`
/// escape, or one continued after its closing quote (`"ab"c` reads `abc`).
/// On error `out` is left as it was.
pub fn split_fields<'a>(
    record: &'a str,
    base_line: usize,
    out: &mut Vec<Cow<'a, str>>,
) -> Result<()> {
    let mark = out.len();
    let split = split_into(record, base_line, out);
    if split.is_err() {
        out.truncate(mark);
    }
    split
}

fn split_into<'a>(record: &'a str, base_line: usize, out: &mut Vec<Cow<'a, str>>) -> Result<()> {
    let bytes = record.as_bytes();
    let mut line = base_line;
    let mut field = FieldText::default();
    let mut i = 0;
    loop {
        // An unquoted run: up to the next delimiter, quote or line break.
        // Every byte searched for is ASCII, so each cut is a char boundary.
        let stop = find_any(bytes, i, [b',', b'"', b'\r', b'\n']).unwrap_or(bytes.len());
        field.push(record, i, stop);
        match bytes.get(stop) {
            None => {
                out.push(field.take(record));
                return Ok(());
            }
            Some(b',') => {
                out.push(field.take(record));
                i = stop + 1;
            }
            Some(b'"') => {
                if !field.is_empty() {
                    return Err(csv_error(line, "quote inside unquoted field"));
                }
                // A quoted run: up to the closing quote, `""` reading as one
                // literal quote.
                let mut j = stop + 1;
                loop {
                    let Some(q) = find_any(bytes, j, [b'"']) else {
                        line += count_newlines(&bytes[j..]);
                        return Err(csv_error(line, "unterminated quoted field"));
                    };
                    line += count_newlines(&bytes[j..q]);
                    if bytes.get(q + 1) == Some(&b'"') {
                        field.push(record, j, q + 1);
                        j = q + 2;
                    } else {
                        field.push(record, j, q);
                        i = q + 1;
                        break;
                    }
                }
            }
            // Unreachable from scanner-delimited bodies (a line break outside
            // quotes terminates the record), but a caller passing raw text
            // deserves a typed error, not data loss.
            Some(_) => return Err(csv_error(line, "bare line break inside record")),
        }
    }
}

fn csv_error(line: usize, message: &str) -> Error {
    Error::Csv {
        line,
        message: message.to_string(),
    }
}

fn count_newlines(bytes: &[u8]) -> usize {
    bytes.iter().filter(|&&b| b == b'\n').count()
}

/// The text of one field under construction: a byte range of the record
/// while it is contiguous there, an owned copy once it is not.
#[derive(Default)]
struct FieldText {
    start: usize,
    end: usize,
    owned: Option<String>,
}

impl FieldText {
    fn push(&mut self, record: &str, start: usize, end: usize) {
        if start == end {
            return;
        }
        match &mut self.owned {
            Some(text) => text.push_str(&record[start..end]),
            None if self.start == self.end => (self.start, self.end) = (start, end),
            None if self.end == start => self.end = end,
            None => {
                let mut text = String::with_capacity(self.end - self.start + end - start);
                text.push_str(&record[self.start..self.end]);
                text.push_str(&record[start..end]);
                self.owned = Some(text);
            }
        }
    }

    /// No text yet (an owned copy is only made of two nonempty pieces).
    fn is_empty(&self) -> bool {
        self.owned.is_none() && self.start == self.end
    }

    fn take<'a>(&mut self, record: &'a str) -> Cow<'a, str> {
        let text = match self.owned.take() {
            Some(text) => Cow::Owned(text),
            None => Cow::Borrowed(&record[self.start..self.end]),
        };
        (self.start, self.end) = (0, 0);
        text
    }
}

/// The owned, char-at-a-time splitter [`split_record`] replaced, kept as
/// the reference its property tests compare against: the same fields, or
/// the same error with the same message and line. Not on any parse path.
pub fn split_record_reference(record: &str, base_line: usize) -> Result<Vec<String>> {
    let mut fields = Vec::new();
    let mut field = String::new();
    let mut in_quotes = false;
    let mut line = base_line;
    let mut chars = record.chars().peekable();
    while let Some(c) = chars.next() {
        if in_quotes {
            match c {
                '"' => {
                    if chars.peek() == Some(&'"') {
                        chars.next();
                        field.push('"');
                    } else {
                        in_quotes = false;
                    }
                }
                '\n' => {
                    line += 1;
                    field.push(c);
                }
                _ => field.push(c),
            }
        } else {
            match c {
                '"' => {
                    if !field.is_empty() {
                        return Err(csv_error(line, "quote inside unquoted field"));
                    }
                    in_quotes = true;
                }
                ',' => fields.push(std::mem::take(&mut field)),
                '\r' | '\n' => return Err(csv_error(line, "bare line break inside record")),
                _ => field.push(c),
            }
        }
    }
    if in_quotes {
        return Err(csv_error(line, "unterminated quoted field"));
    }
    fields.push(field);
    Ok(fields)
}

/// Straight-to-codes encoding of split records.
///
/// Each column keeps a map from the trimmed raw cell to an id local to the
/// encoder, so a distinct cell is parsed ([`parse_field`]) and interned
/// once per encoder rather than once per occurrence. Interning waits for
/// [`commit`](Self::commit), which interns the distinct cells in the order
/// they first occurred, row-major: the order a row-by-row [`Value`] build
/// interns them in. So the pool's dictionary order and every code are the
/// same as on that path, and an encoder dropped on an error (a later
/// record failing to split) leaves the pool untouched.
///
/// The maps borrow their keys from the records, so an encoder lives as
/// long as one batch of them: a chunk in er-ingest, the whole text here.
pub struct CellEncoder<'a> {
    continuous: Vec<bool>,
    /// Per column: trimmed raw cell → encoder-local id.
    seen: Vec<CellMap<&'a str>>,
    /// The same for cells the splitter had to copy (`""` escapes). A text
    /// in both maps gets two ids, which intern to one code.
    seen_owned: Vec<CellMap<String>>,
    /// Encoder-local id → (column, trimmed raw cell), in first-occurrence
    /// order.
    distinct: Vec<(usize, Cow<'a, str>)>,
    /// Per column, the encoder-local id of each row's cell; [`BLANK`] for
    /// cells that trim to empty.
    ids: Vec<Vec<u32>>,
    rows: usize,
}

type CellMap<K> = HashMap<K, u32, CellHashSeed>;

/// The encoder-local id of a cell that trims to empty (NULL).
const BLANK: u32 = u32::MAX;

impl<'a> CellEncoder<'a> {
    /// An empty encoder for rows of `schema`.
    pub fn new(schema: &Schema) -> Self {
        let arity = schema.arity();
        CellEncoder {
            continuous: schema
                .attributes()
                .iter()
                .map(Attribute::is_continuous)
                .collect(),
            seen: (0..arity).map(|_| CellMap::default()).collect(),
            seen_owned: (0..arity).map(|_| CellMap::default()).collect(),
            distinct: Vec::new(),
            ids: vec![Vec::new(); arity],
            rows: 0,
        }
    }

    /// Encode one row of raw fields, in attribute order.
    ///
    /// # Panics
    /// Panics unless there is exactly one field per attribute: callers
    /// check a record's arity before encoding it.
    pub fn push_row(&mut self, fields: impl IntoIterator<Item = Cow<'a, str>>) {
        let mut fields = fields.into_iter();
        for attr in 0..self.ids.len() {
            let Some(raw) = fields.next() else {
                panic!("encoded row is shorter than the schema");
            };
            let id = match raw {
                Cow::Borrowed(raw) => {
                    let raw = trim(raw);
                    match self.seen[attr].get(raw) {
                        Some(&id) => id,
                        None if raw.is_empty() => BLANK,
                        None => {
                            let id = self.next_id(attr, Cow::Borrowed(raw));
                            self.seen[attr].insert(raw, id);
                            id
                        }
                    }
                }
                Cow::Owned(raw) => {
                    let raw = trim(&raw);
                    match self.seen_owned[attr].get(raw) {
                        Some(&id) => id,
                        None if raw.is_empty() => BLANK,
                        None => {
                            let id = self.next_id(attr, Cow::Owned(raw.to_string()));
                            self.seen_owned[attr].insert(raw.to_string(), id);
                            id
                        }
                    }
                }
            };
            self.ids[attr].push(id);
        }
        assert!(
            fields.next().is_none(),
            "encoded row is longer than the schema"
        );
        self.rows += 1;
    }

    fn next_id(&mut self, attr: usize, raw: Cow<'a, str>) -> u32 {
        // There are fewer distinct cells than cells, and a batch of 2^32
        // cells does not fit in memory first.
        let id = self.distinct.len() as u32;
        self.distinct.push((attr, raw));
        id
    }

    /// Intern the distinct cells in first-occurrence order through the
    /// builder's pool and append the rows to `builder`.
    pub fn commit(self, builder: &mut RelationBuilder) {
        let pool = Arc::clone(builder.pool());
        let codes: Vec<Code> = self
            .distinct
            .iter()
            .map(|(attr, raw)| pool.intern(parse_field(raw, self.continuous[*attr])))
            .collect();
        let mut columns = self.ids;
        for column in &mut columns {
            for id in column.iter_mut() {
                *id = if *id == BLANK {
                    NULL_CODE
                } else {
                    codes[*id as usize]
                };
            }
        }
        builder.push_columns(columns, self.rows);
    }
}

/// `raw` without surrounding whitespace ([`str::trim`]), skipping the
/// Unicode scan when both ends are printable ASCII, as nearly every cell's
/// are.
fn trim(raw: &str) -> &str {
    let solid = |b: &u8| (b'!'..=b'~').contains(b);
    match raw.as_bytes() {
        [first, .., last] if solid(first) && solid(last) => raw,
        [only] if solid(only) => raw,
        _ => raw.trim(),
    }
}

/// FxHash, the rustc hasher: one rotate-xor-multiply per 8 input bytes.
/// The cell maps hash millions of short strings per file, where SipHash
/// made a whole `repair_csv` a fifth to a third slower. Cells come from
/// outside the program, so each map starts from a random seed
/// ([`CellHashSeed`]) and colliding cells cannot be prepared offline
/// against a known layout; a map also lives for one chunk, which bounds
/// what collisions can cost. Nothing reads a map's iteration order, so
/// the seed never reaches the output.
#[derive(Clone, Copy)]
struct CellHasher(u64);

/// The random seed of one cell map's [`CellHasher`]s.
#[derive(Clone, Copy)]
struct CellHashSeed(u64);

impl Default for CellHashSeed {
    fn default() -> Self {
        CellHashSeed(RandomState::new().build_hasher().finish())
    }
}

impl BuildHasher for CellHashSeed {
    type Hasher = CellHasher;

    fn build_hasher(&self) -> CellHasher {
        CellHasher(self.0)
    }
}

impl CellHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for CellHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            let mut w = [0u8; 8];
            w.copy_from_slice(word);
            self.add(u64::from_le_bytes(w));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut w = [0u8; 8];
            w[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(w));
        }
    }

    fn write_u8(&mut self, b: u8) {
        self.add(u64::from(b));
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    fn finish(&self) -> u64 {
        // The multiply leaves its entropy in the high bits; the table
        // indexes by the low ones.
        self.0.rotate_left(26)
    }
}

/// Parse CSV text into the fields of each record. The first record is the
/// header. Empty input yields an error. Records end on `\n`, `\r\n`, or a
/// lone `\r` (classic-Mac exports) — previously lone `\r` was swallowed,
/// silently merging every record into one.
fn parse_records(text: &str) -> Result<Vec<Vec<Cow<'_, str>>>> {
    let bytes = text.as_bytes();
    let mut records = Vec::new();
    let mut scanner = RecordScanner::new();
    let mut pos = 0usize;
    let mut line = 1usize;
    while pos < bytes.len() {
        let rest = &bytes[pos..];
        let Some(span) = scanner.find(rest, true) else {
            // Only reachable when a quoted field never closes before EOF.
            let line = line + count_newlines(rest);
            return Err(csv_error(line, "unterminated quoted field"));
        };
        records.push(split_record(&text[pos..pos + span.end], line)?);
        line += count_newlines(&rest[..span.next]);
        pos += span.next;
    }
    if records.is_empty() {
        return Err(csv_error(1, "empty csv input"));
    }
    Ok(records)
}

/// Validate an inferred header before handing it to [`Schema::new`] (which
/// treats duplicates as caller bugs and panics): untrusted CSV input must
/// surface schema-inference failures as typed errors instead.
pub fn check_header<S: AsRef<str>>(header: &[S]) -> Result<()> {
    for (i, h) in header.iter().enumerate() {
        let name = h.as_ref().trim();
        if name.is_empty() {
            return Err(Error::Csv {
                line: 1,
                message: format!("header column {} has an empty name", i + 1),
            });
        }
        if header[..i].iter().any(|prev| prev.as_ref().trim() == name) {
            return Err(Error::Csv {
                line: 1,
                message: format!("duplicate header column {name:?}"),
            });
        }
    }
    Ok(())
}

/// Read CSV text with an inferred all-categorical schema named `name`.
/// Empty fields become NULL. Malformed headers (duplicate or empty column
/// names) are reported as [`Error::Csv`] rather than panicking.
pub fn read_str(name: &str, text: &str, pool: Arc<Pool>) -> Result<Relation> {
    let records = parse_records(text)?;
    let header = &records[0];
    check_header(header)?;
    let schema = Arc::new(Schema::new(
        name,
        header
            .iter()
            .map(|h| Attribute::categorical(h.trim()))
            .collect(),
    ));
    build_rows(schema, &records[1..], pool)
}

/// Read CSV text against an explicit schema. The header must match the
/// schema's attribute names in order. Continuous attributes are parsed
/// numerically (integer first, then float).
pub fn read_str_with_schema(text: &str, schema: Arc<Schema>, pool: Arc<Pool>) -> Result<Relation> {
    let records = parse_records(text)?;
    let header = &records[0];
    if header.len() != schema.arity() {
        return Err(Error::Csv {
            line: 1,
            message: format!(
                "header has {} columns, schema expects {}",
                header.len(),
                schema.arity()
            ),
        });
    }
    for (i, h) in header.iter().enumerate() {
        if h.trim() != schema.attr(i).name {
            return Err(Error::Csv {
                line: 1,
                message: format!(
                    "header column {} is {:?}, schema expects {:?}",
                    i,
                    h.trim(),
                    schema.attr(i).name
                ),
            });
        }
    }
    build_rows(schema, &records[1..], pool)
}

/// Encode the data records straight to codes. A record of the wrong arity
/// stops the load with the rows before it committed, as a row-by-row build
/// would leave them.
fn build_rows(
    schema: Arc<Schema>,
    records: &[Vec<Cow<'_, str>>],
    pool: Arc<Pool>,
) -> Result<Relation> {
    let mut encoder = CellEncoder::new(&schema);
    let mut ragged = None;
    for (i, rec) in records.iter().enumerate() {
        if rec.len() != schema.arity() {
            ragged = Some(Error::Csv {
                line: i + 2,
                message: format!("row has {} fields, expected {}", rec.len(), schema.arity()),
            });
            break;
        }
        encoder.push_row(rec.iter().map(|f| Cow::Borrowed(f.as_ref())));
    }
    let mut b = RelationBuilder::new(schema, pool);
    encoder.commit(&mut b);
    match ragged {
        Some(e) => Err(e),
        None => Ok(b.finish()),
    }
}

/// Parse one raw field into a [`Value`]: trimmed, empty means NULL, and
/// continuous attributes try integer then float (unparsable numerics become
/// NULL — real-world CSVs are dirty, that is the point). Shared with
/// er-ingest so the chunked path normalizes cells identically.
pub fn parse_field(raw: &str, continuous: bool) -> Value {
    let raw = raw.trim();
    if raw.is_empty() {
        return Value::Null;
    }
    if continuous {
        if let Ok(v) = raw.parse::<i64>() {
            return Value::Int(v);
        }
        if let Ok(v) = raw.parse::<f64>() {
            return Value::Float(v);
        }
        // Unparsable numeric cell: treat as missing rather than aborting the
        // whole load — real-world CSVs are dirty, that is the point.
        return Value::Null;
    }
    Value::str(raw)
}

/// Read a CSV file with an inferred all-categorical schema. Bytes that are
/// not valid UTF-8 are decoded lossily (invalid sequences become U+FFFD)
/// instead of failing the load — real-world exports mix encodings, and a
/// replacement character in one cell beats rejecting the whole file.
pub fn read_path(path: impl AsRef<Path>, pool: Arc<Pool>) -> Result<Relation> {
    let path = path.as_ref();
    let bytes = std::fs::read(path)?;
    let text = String::from_utf8_lossy(&bytes);
    let name = path
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("relation");
    read_str(name, &text, pool)
}

/// Serialize a relation back to CSV text (header + rows, NULL as empty).
pub fn write_str(rel: &Relation) -> String {
    let mut out = String::new();
    let header: Vec<&str> = rel
        .schema()
        .attributes()
        .iter()
        .map(|a| a.name.as_str())
        .collect();
    write_record(&mut out, header.iter().copied());
    for row in 0..rel.num_rows() {
        let values: Vec<String> = (0..rel.num_attrs())
            .map(|a| rel.value(row, a).render().into_owned())
            .collect();
        write_record(&mut out, values.iter().map(String::as_str));
    }
    out
}

/// Write a relation to a CSV file.
pub fn write_path(rel: &Relation, path: impl AsRef<Path>) -> Result<()> {
    std::fs::write(path, write_str(rel))?;
    Ok(())
}

fn write_record<'a>(out: &mut String, fields: impl Iterator<Item = &'a str>) {
    let mut first = true;
    for f in fields {
        if !first {
            out.push(',');
        }
        first = false;
        if f.contains(',') || f.contains('"') || f.contains('\n') || f.contains('\r') {
            out.push('"');
            out.push_str(&f.replace('"', "\"\""));
            out.push('"');
        } else {
            out.push_str(f);
        }
    }
    out.push('\n');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::DataType;

    #[test]
    fn simple_read() {
        let pool = Arc::new(Pool::new());
        let r = read_str("t", "City,ZIP\nHZ,31200\nBJ,10021\n", pool).unwrap();
        assert_eq!(r.num_rows(), 2);
        assert_eq!(r.schema().attr(0).name, "City");
        assert_eq!(r.value(1, 1), Value::str("10021"));
    }

    #[test]
    fn empty_fields_are_null() {
        let pool = Arc::new(Pool::new());
        let r = read_str("t", "A,B\nx,\n,y\n", pool).unwrap();
        assert!(r.is_null(0, 1));
        assert!(r.is_null(1, 0));
    }

    #[test]
    fn quoted_fields() {
        let pool = Arc::new(Pool::new());
        let r = read_str(
            "t",
            "A,B\n\"a,b\",\"he said \"\"hi\"\"\"\n\"multi\nline\",z\n",
            pool,
        )
        .unwrap();
        assert_eq!(r.value(0, 0), Value::str("a,b"));
        assert_eq!(r.value(0, 1), Value::str("he said \"hi\""));
        assert_eq!(r.value(1, 0), Value::str("multi\nline"));
    }

    #[test]
    fn crlf_line_endings() {
        let pool = Arc::new(Pool::new());
        let r = read_str("t", "A,B\r\nx,y\r\n", pool).unwrap();
        assert_eq!(r.num_rows(), 1);
        assert_eq!(r.value(0, 1), Value::str("y"));
    }

    #[test]
    fn cr_only_line_endings_split_records() {
        // Classic-Mac / legacy-export line endings. The old reader swallowed
        // lone \r, silently merging every record into one giant row — a
        // silent arity change. Each \r must terminate a record.
        let pool = Arc::new(Pool::new());
        let r = read_str("t", "A,B\rx,y\rz,w\r", pool).unwrap();
        assert_eq!(r.num_rows(), 2);
        assert_eq!(r.value(0, 0), Value::str("x"));
        assert_eq!(r.value(1, 1), Value::str("w"));
    }

    #[test]
    fn cr_only_without_trailing_terminator() {
        let pool = Arc::new(Pool::new());
        let r = read_str("t", "A,B\rx,y\rz,w", pool).unwrap();
        assert_eq!(r.num_rows(), 2);
        assert_eq!(r.value(1, 0), Value::str("z"));
    }

    #[test]
    fn mixed_line_endings() {
        let pool = Arc::new(Pool::new());
        let r = read_str("t", "A,B\r\nx,y\rz,w\n", pool).unwrap();
        assert_eq!(r.num_rows(), 2);
        assert_eq!(r.value(0, 1), Value::str("y"));
        assert_eq!(r.value(1, 0), Value::str("z"));
    }

    #[test]
    fn quoted_cr_stays_literal_and_round_trips() {
        let pool = Arc::new(Pool::new());
        let r = read_str("t", "A,B\n\"has\rcr\",y\n", Arc::clone(&pool)).unwrap();
        assert_eq!(r.num_rows(), 1);
        assert_eq!(r.value(0, 0), Value::str("has\rcr"));
        // The writer must quote \r, or the round trip re-splits the record.
        let out = write_str(&r);
        let r2 = read_str("t", &out, pool).unwrap();
        assert_eq!(r2.num_rows(), 1);
        assert_eq!(r2.value(0, 0), Value::str("has\rcr"));
    }

    #[test]
    fn scanner_resumes_across_partial_reads() {
        // A CRLF split across two reads must not yield a phantom empty
        // record, and a quoted newline must not end the record.
        let mut scanner = RecordScanner::new();
        let mut buf: Vec<u8> = b"a,\"x\ny\"\r".to_vec();
        assert_eq!(scanner.find(&buf, false), None); // trailing \r: wait
        buf.extend_from_slice(b"\nb,c\n");
        let span = scanner.find(&buf, false).unwrap();
        assert_eq!(&buf[..span.end], b"a,\"x\ny\"");
        assert_eq!(span.next, span.end + 2); // consumed both \r and \n
        buf.drain(..span.next);
        let span = scanner.find(&buf, false).unwrap();
        assert_eq!(&buf[..span.end], b"b,c");
    }

    #[test]
    fn scanner_flushes_final_record_at_eof() {
        let mut scanner = RecordScanner::new();
        let buf = b"tail,rec";
        assert_eq!(scanner.find(buf, false), None);
        let span = scanner.find(buf, true).unwrap();
        assert_eq!((span.end, span.next), (8, 8));
        assert_eq!(scanner.find(&[], true), None); // nothing after the tail
    }

    #[test]
    fn scanner_reports_open_quote_at_eof() {
        let mut scanner = RecordScanner::new();
        assert_eq!(scanner.find(b"\"oops", true), None);
        assert!(scanner.in_quotes());
    }

    #[test]
    fn missing_trailing_newline() {
        let pool = Arc::new(Pool::new());
        let r = read_str("t", "A\nx\ny", pool).unwrap();
        assert_eq!(r.num_rows(), 2);
    }

    #[test]
    fn ragged_row_rejected() {
        let pool = Arc::new(Pool::new());
        let err = read_str("t", "A,B\nx\n", pool).unwrap_err();
        assert!(matches!(err, Error::Csv { line: 2, .. }));
    }

    #[test]
    fn schema_read_parses_numbers() {
        let pool = Arc::new(Pool::new());
        let schema = Arc::new(Schema::new(
            "t",
            vec![Attribute::categorical("Name"), Attribute::continuous("Age")],
        ));
        let r = read_str_with_schema(
            "Name,Age\nkevin,30\nrobin,29.5\nnull-age,\nbad,xx\n",
            schema,
            pool,
        )
        .unwrap();
        assert_eq!(r.value(0, 1), Value::int(30));
        assert_eq!(r.value(1, 1), Value::float(29.5));
        assert!(r.is_null(2, 1));
        assert!(r.is_null(3, 1)); // unparsable numeric → NULL
        assert_eq!(r.schema().attr(1).dtype, DataType::Continuous);
    }

    #[test]
    fn schema_read_rejects_wrong_header() {
        let pool = Arc::new(Pool::new());
        let schema = Arc::new(Schema::new("t", vec![Attribute::categorical("A")]));
        assert!(read_str_with_schema("B\nx\n", schema, pool).is_err());
    }

    #[test]
    fn round_trip() {
        let pool = Arc::new(Pool::new());
        let text = "A,B\nx,\"a,b\"\n,plain\n";
        let r = read_str("t", text, Arc::clone(&pool)).unwrap();
        let out = write_str(&r);
        let r2 = read_str("t", &out, pool).unwrap();
        assert_eq!(r2.num_rows(), r.num_rows());
        for row in 0..r.num_rows() {
            for a in 0..r.num_attrs() {
                assert_eq!(r.value(row, a), r2.value(row, a));
            }
        }
    }

    #[test]
    fn empty_input_rejected() {
        let pool = Arc::new(Pool::new());
        assert!(read_str("t", "", pool).is_err());
    }

    #[test]
    fn unterminated_quote_rejected() {
        let pool = Arc::new(Pool::new());
        assert!(read_str("t", "A\n\"oops\n", pool).is_err());
    }

    #[test]
    fn duplicate_header_is_a_typed_error() {
        let pool = Arc::new(Pool::new());
        let err = read_str("t", "City,ZIP,City\nHZ,31200,HZ\n", pool).unwrap_err();
        match err {
            Error::Csv { line: 1, message } => assert!(message.contains("duplicate")),
            other => panic!("expected Csv error, got {other:?}"),
        }
    }

    #[test]
    fn empty_header_name_is_a_typed_error() {
        let pool = Arc::new(Pool::new());
        let err = read_str("t", "City,,ZIP\nHZ,x,31200\n", pool).unwrap_err();
        assert!(matches!(err, Error::Csv { line: 1, .. }));
    }

    #[test]
    fn non_utf8_file_loads_lossily() {
        let dir = std::env::temp_dir().join(format!("er_csv_lossy_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("latin1.csv");
        // "City\nMünchen\n" in Latin-1: 0xFC is not valid UTF-8.
        std::fs::write(&path, b"City\nM\xFCnchen\n").unwrap();
        let pool = Arc::new(Pool::new());
        let r = read_path(&path, pool).unwrap();
        assert_eq!(r.num_rows(), 1);
        assert_eq!(r.value(0, 0), Value::str("M\u{FFFD}nchen"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
