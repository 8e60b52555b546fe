//! Property-based tests for the relational substrate.

// Test code: a panic is the failure report; fixture helpers sit outside
// any #[test] fn, so the clippy.toml test exemption does not reach them.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use er_table::{csv, Attribute, Pool, RelationBuilder, Schema, Value};
use proptest::prelude::*;
use std::sync::Arc;

/// Arbitrary cell values, biased toward collisions (shared pool codes).
fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        2 => Just(Value::Null),
        4 => (0i64..20).prop_map(Value::Int),
        2 => (0u8..10).prop_map(|v| Value::Float(v as f64 / 2.0)),
        6 => "[a-z]{0,6}".prop_map(Value::str),
        // CSV-hostile strings: quotes, commas, newlines.
        2 => prop::sample::select(vec!["a,b", "he said \"hi\"", "multi\nline", ""])
            .prop_map(Value::str),
    ]
}

fn arb_rows(cols: usize) -> impl Strategy<Value = Vec<Vec<Value>>> {
    prop::collection::vec(prop::collection::vec(arb_value(), cols), 1..30)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Interning is stable: the same value always gets the same code, and
    /// decode(intern(v)) == v.
    #[test]
    fn pool_round_trip(values in prop::collection::vec(arb_value(), 1..100)) {
        let pool = Pool::new();
        let codes: Vec<_> = values.iter().map(|v| pool.intern(v.clone())).collect();
        for (v, &c) in values.iter().zip(&codes) {
            prop_assert_eq!(pool.intern(v.clone()), c);
            prop_assert_eq!(pool.value(c), v.clone());
        }
        // Equal values share codes; distinct values don't.
        for (i, a) in values.iter().enumerate() {
            for (j, b) in values.iter().enumerate() {
                prop_assert_eq!(codes[i] == codes[j], a == b, "{:?} vs {:?}", values[i], values[j]);
            }
        }
    }

    /// Relation cells decode to exactly what was inserted.
    #[test]
    fn relation_cells_round_trip(rows in arb_rows(3)) {
        let pool = Arc::new(Pool::new());
        let schema = Arc::new(Schema::new(
            "t",
            vec![
                Attribute::categorical("A"),
                Attribute::categorical("B"),
                Attribute::categorical("C"),
            ],
        ));
        let mut b = RelationBuilder::new(schema, pool);
        for row in &rows {
            b.push_row(row.clone()).unwrap();
        }
        let rel = b.finish();
        for (r, row) in rows.iter().enumerate() {
            for (a, v) in row.iter().enumerate() {
                prop_assert_eq!(rel.value(r, a), v.clone());
            }
        }
    }

    /// gather is a faithful projection of the chosen rows.
    #[test]
    fn gather_projects_rows(rows in arb_rows(2), picks in prop::collection::vec(0usize..29, 0..10)) {
        let pool = Arc::new(Pool::new());
        let schema = Arc::new(Schema::new(
            "t",
            vec![Attribute::categorical("A"), Attribute::categorical("B")],
        ));
        let mut b = RelationBuilder::new(schema, pool);
        for row in &rows {
            b.push_row(row.clone()).unwrap();
        }
        let rel = b.finish();
        let picks: Vec<usize> = picks.into_iter().filter(|&p| p < rel.num_rows()).collect();
        let g = rel.gather(&picks);
        prop_assert_eq!(g.num_rows(), picks.len());
        for (i, &p) in picks.iter().enumerate() {
            for a in 0..2 {
                prop_assert_eq!(g.code(i, a), rel.code(p, a));
            }
        }
    }

    /// CSV write→read round-trips every relation, including quotes, commas
    /// and newlines in values. (Numeric values come back as strings —
    /// compare by rendering, which is what CSV can promise.)
    #[test]
    fn csv_round_trip(rows in arb_rows(3)) {
        let pool = Arc::new(Pool::new());
        let schema = Arc::new(Schema::new(
            "t",
            vec![
                Attribute::categorical("A"),
                Attribute::categorical("B"),
                Attribute::categorical("C"),
            ],
        ));
        let mut b = RelationBuilder::new(schema, pool);
        for row in &rows {
            b.push_row(row.clone()).unwrap();
        }
        let rel = b.finish();
        let text = csv::write_str(&rel);
        let pool2 = Arc::new(Pool::new());
        let back = csv::read_str("t", &text, pool2).unwrap();
        prop_assert_eq!(back.num_rows(), rel.num_rows());
        for r in 0..rel.num_rows() {
            for a in 0..3 {
                // NULL and "" both render as "", which CSV cannot tell apart.
                let got = back.value(r, a).render().into_owned();
                let want = rel.value(r, a).render().into_owned();
                prop_assert_eq!(got, want, "cell ({}, {})", r, a);
            }
        }
    }

    /// KeyIndex::get returns exactly the rows whose key matches.
    #[test]
    fn key_index_is_exact(rows in arb_rows(2)) {
        let pool = Arc::new(Pool::new());
        let schema = Arc::new(Schema::new(
            "t",
            vec![Attribute::categorical("A"), Attribute::categorical("B")],
        ));
        let mut b = RelationBuilder::new(schema, pool);
        for row in &rows {
            b.push_row(row.clone()).unwrap();
        }
        let rel = b.finish();
        let idx = er_table::KeyIndex::build(&rel, &[0, 1]);
        for r in 0..rel.num_rows() {
            let c0 = rel.code(r, 0);
            let c1 = rel.code(r, 1);
            if c0 == er_table::NULL_CODE || c1 == er_table::NULL_CODE {
                continue;
            }
            let hits = idx.get(&[c0, c1]);
            prop_assert!(hits.contains(&r), "row {} missing from its own key", r);
            for &h in hits {
                prop_assert_eq!(rel.code(h, 0), c0);
                prop_assert_eq!(rel.code(h, 1), c1);
            }
        }
    }

    /// PLI classes partition exactly the rows sharing a value, and
    /// intersection equals building on the pair.
    #[test]
    fn pli_intersection_consistent(rows in arb_rows(2)) {
        let pool = Arc::new(Pool::new());
        let schema = Arc::new(Schema::new(
            "t",
            vec![Attribute::categorical("A"), Attribute::categorical("B")],
        ));
        let mut b = RelationBuilder::new(schema, pool);
        for row in &rows {
            b.push_row(row.clone()).unwrap();
        }
        let rel = b.finish();
        let pa = er_table::Pli::build(&rel, 0);
        let pb = er_table::Pli::build(&rel, 1);
        let pab = pa.intersect(&pb);
        // Every class of the intersection agrees on both columns.
        for class in pab.classes() {
            let first = class[0];
            for &r in class {
                prop_assert_eq!(rel.code(r, 0), rel.code(first, 0));
                prop_assert_eq!(rel.code(r, 1), rel.code(first, 1));
            }
        }
        // error(π_AB) ≤ min(error(π_A), error(π_B)).
        prop_assert!(pab.error() <= pa.error().min(pb.error()));
    }
}

/// Property cases for the splitter suites: a quick budget under the debug
/// test profile, a larger one when the suite is built `--release`.
const SPLIT_CASES: u32 = if cfg!(debug_assertions) {
    2_000
} else {
    100_000
};

/// Strings over the bytes the splitter treats specially, plus a plain
/// letter, a space and a multi-byte char.
fn arb_record() -> impl Strategy<Value = String> {
    prop::collection::vec(
        prop::sample::select(vec!['a', ',', '"', ' ', '\r', '\n', 'é']),
        0..24,
    )
    .prop_map(|chars| chars.into_iter().collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(SPLIT_CASES))]

    /// The borrowed splitter returns the reference splitter's fields, or
    /// its error with the same message and line.
    #[test]
    fn borrowed_splitter_matches_the_reference(record in arb_record(), line in 1usize..5) {
        let got = csv::split_record(&record, line)
            .map(|fields| fields.into_iter().map(|f| f.into_owned()).collect::<Vec<_>>());
        let want = csv::split_record_reference(&record, line);
        prop_assert_eq!(got, want, "record {:?}", record);
    }

    /// Without quotes every field is a borrowed slice of the record.
    #[test]
    fn unquoted_fields_are_borrowed(record in arb_record()) {
        let record = record.replace('"', "");
        if let Ok(fields) = csv::split_record(&record, 1) {
            for field in &fields {
                prop_assert!(matches!(field, std::borrow::Cow::Borrowed(_)), "{:?}", record);
            }
        }
    }

    /// Whole-file loading straight to codes builds the relation and pool a
    /// row-by-row Value build over the reference splitter builds, or fails
    /// with its error: same codes, same dictionary order.
    #[test]
    fn read_str_matches_a_row_by_row_value_build(
        rows in prop::collection::vec(prop::collection::vec(arb_record(), 2), 0..8),
    ) {
        let mut text = String::from("A,B\n");
        for row in &rows {
            text.push_str(&row.join(","));
            text.push('\n');
        }
        let schema = Arc::new(Schema::new(
            "t",
            vec![Attribute::categorical("A"), Attribute::continuous("B")],
        ));
        let got_pool = Arc::new(Pool::new());
        let got = csv::read_str_with_schema(&text, Arc::clone(&schema), Arc::clone(&got_pool));
        // The reference: split every record first, then push row by row.
        let want_pool = Arc::new(Pool::new());
        let want = (|| {
            let mut records = Vec::new();
            let mut scanner = csv::RecordScanner::new();
            let (mut pos, mut line) = (0usize, 1usize);
            while pos < text.len() {
                let rest = &text.as_bytes()[pos..];
                let Some(span) = scanner.find(rest, true) else {
                    let line = line + rest.iter().filter(|&&b| b == b'\n').count();
                    return Err(er_table::Error::Csv { line, message: "unterminated quoted field".into() });
                };
                records.push(csv::split_record_reference(&text[pos..pos + span.end], line)?);
                line += rest[..span.next].iter().filter(|&&b| b == b'\n').count();
                pos += span.next;
            }
            let mut b = RelationBuilder::new(Arc::clone(&schema), Arc::clone(&want_pool));
            for (i, rec) in records[1..].iter().enumerate() {
                if rec.len() != 2 {
                    return Err(er_table::Error::Csv {
                        line: i + 2,
                        message: format!("row has {} fields, expected 2", rec.len()),
                    });
                }
                b.push_row(vec![csv::parse_field(&rec[0], false), csv::parse_field(&rec[1], true)])?;
            }
            Ok(b.finish())
        })();
        match (got, want) {
            (Ok(got), Ok(want)) => {
                prop_assert_eq!(got.num_rows(), want.num_rows());
                prop_assert_eq!(got.generation(), want.generation());
                for r in 0..want.num_rows() {
                    for a in 0..2 {
                        prop_assert_eq!(got.code(r, a), want.code(r, a));
                    }
                }
            }
            (got, want) => prop_assert_eq!(got.err(), want.err()),
        }
        // Failed loads intern exactly what the row-by-row build interned.
        prop_assert_eq!(got_pool.len(), want_pool.len());
        for code in 0..want_pool.len() as u32 {
            prop_assert_eq!(got_pool.value(code), want_pool.value(code));
        }
    }
}

/// The byte-at-a-time record scanner the SWAR one replaced: the reference
/// its property test compares against.
#[derive(Default)]
struct ReferenceScanner {
    in_quotes: bool,
    scanned: usize,
}

impl ReferenceScanner {
    fn find(&mut self, buf: &[u8], eof: bool) -> Option<csv::RecordSpan> {
        let mut i = self.scanned;
        while i < buf.len() {
            let b = buf[i];
            if self.in_quotes {
                if b == b'"' {
                    self.in_quotes = false;
                }
            } else {
                match b {
                    b'"' => self.in_quotes = true,
                    b'\n' => {
                        self.scanned = 0;
                        return Some(csv::RecordSpan {
                            end: i,
                            next: i + 1,
                        });
                    }
                    b'\r' => {
                        if i + 1 < buf.len() {
                            let next = i + 1 + usize::from(buf[i + 1] == b'\n');
                            self.scanned = 0;
                            return Some(csv::RecordSpan { end: i, next });
                        }
                        if eof {
                            self.scanned = 0;
                            return Some(csv::RecordSpan {
                                end: i,
                                next: i + 1,
                            });
                        }
                        self.scanned = i;
                        return None;
                    }
                    _ => {}
                }
            }
            i += 1;
        }
        if eof && !buf.is_empty() && !self.in_quotes {
            self.scanned = 0;
            return Some(csv::RecordSpan {
                end: buf.len(),
                next: buf.len(),
            });
        }
        self.scanned = buf.len();
        None
    }
}

/// Drive a scanner the way the chunked reader does: bytes arrive `step` at
/// a time, each found record is consumed, and the answers are logged with
/// the in-quotes state after each call.
fn scan_log(
    text: &[u8],
    step: usize,
    mut find: impl FnMut(&[u8], bool) -> (Option<csv::RecordSpan>, bool),
) -> Vec<(Option<csv::RecordSpan>, bool)> {
    let (mut log, mut start, mut end) = (Vec::new(), 0, 0);
    loop {
        let eof = end == text.len();
        let (span, in_quotes) = find(&text[start..end], eof);
        log.push((span, in_quotes));
        match span {
            Some(span) => start += span.next,
            None if eof => return log,
            None => end = (end + step).min(text.len()),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(SPLIT_CASES))]

    /// The eight-bytes-a-step scanner finds the reference's records, with
    /// the same resume and CRLF-across-reads behaviour, at any read size.
    #[test]
    fn swar_scanner_matches_the_reference(
        chars in prop::collection::vec(
            prop::sample::select(vec!['a', ',', '"', ' ', '\r', '\n', 'é']), 0..64),
        step in 1usize..20,
    ) {
        let text: String = chars.into_iter().collect();
        let mut swar = csv::RecordScanner::new();
        let mut reference = ReferenceScanner::default();
        let got = scan_log(text.as_bytes(), step, |buf, eof| {
            (swar.find(buf, eof), swar.in_quotes())
        });
        let want = scan_log(text.as_bytes(), step, |buf, eof| {
            (reference.find(buf, eof), reference.in_quotes)
        });
        prop_assert_eq!(got, want, "text {:?}", text);
    }
}
