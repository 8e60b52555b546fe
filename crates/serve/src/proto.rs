//! The wire protocol: newline-delimited JSON.
//!
//! One request object per line, one response object per line, in request
//! order. The grammar (§10 of DESIGN.md):
//!
//! ```text
//! request  := {"op":"ping"}
//!           | {"op":"stats"}
//!           | {"op":"reload"}
//!           | {"op":"reload","scope":scope}     // gate on a declared edit scope
//!           | {"op":"shutdown"}
//!           | {"op":"repair","rows":[row...]}   // input-schema order
//!           | {"op":"append","rows":[row...]}   // master-schema order
//!           | {"op":"repair_csv","path":string} // stream a server-side CSV
//!           | {"op":"repair_csv","path":string,"chunk_bytes":number}
//!           | {"op":"diff","rules":[rule...]}   // candidate portable rules
//!           | {"op":"diff","rules":[rule...],"scope":scope}
//!           | {"op":"versions"}
//! row      := [cell...]             // one cell per schema attribute
//! cell     := null | string | number
//! scope    := {attr:value,...} | [{attr:value,...}...]   // see er-analyze EditScope
//! response := {"ok":true,"op":...,...} | {"ok":false,"error":string,...}
//! ```
//!
//! Every parse failure is answered with an error response on the same
//! connection — a malformed line never tears the session down.

use crate::engine::RepairOutcome;
use crate::metrics::Snapshot;
use er_analyze::{DiffReport, EditScope};
use er_rules::RuleStore;
use er_table::Value as Cell;
use serde_json::Value as Json;

/// A reusable decoded-rows buffer, one per serving session.
///
/// `repair`/`append` requests arrive as JSON row arrays every few
/// milliseconds on a busy session; decoding each into a fresh
/// `Vec<Vec<Cell>>` allocates one vector per row per request. This buffer
/// keeps both the outer vector and every inner row vector alive across
/// requests — [`RowBatch::clear`] resets the logical length without
/// releasing capacity, and the parser refills the same slots in place.
#[derive(Debug, Default)]
pub struct RowBatch {
    rows: Vec<Vec<Cell>>,
    len: usize,
}

impl RowBatch {
    /// An empty buffer (no capacity until the first request).
    pub fn new() -> Self {
        RowBatch::default()
    }

    /// Forget the decoded rows but keep every allocation for reuse.
    pub fn clear(&mut self) {
        self.len = 0;
    }

    /// Number of decoded rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the batch holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The decoded rows, in request order.
    pub fn rows(&self) -> &[Vec<Cell>] {
        &self.rows[..self.len]
    }

    /// Hand out the next reusable row slot, cleared but with its capacity
    /// intact.
    fn next_row(&mut self) -> &mut Vec<Cell> {
        if self.len == self.rows.len() {
            self.rows.push(Vec::new());
        }
        let row = &mut self.rows[self.len];
        row.clear();
        self.len += 1;
        row
    }
}

/// A decoded request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Metrics snapshot.
    Stats,
    /// Rebuild the engine from its configured source (rules file). With a
    /// declared scope, the promotion is additionally gated on the edit-scope
    /// diff: verdict changes outside the scope reject the reload (ER012).
    Reload {
        /// The declared edit scope, if any.
        scope: Option<EditScope>,
    },
    /// Begin a graceful drain and close the session.
    Shutdown,
    /// Repair a batch of rows laid out in input-schema attribute order. The
    /// rows themselves are decoded into the session's [`RowBatch`].
    Repair,
    /// Append rows (master-schema attribute order) to the master relation,
    /// delta-updating the warmed indexes in place. The rows are decoded
    /// into the session's [`RowBatch`].
    Append,
    /// Stream a server-side CSV file through the chunked ingest reader and
    /// repair it chunk by chunk (bulk repair without per-row JSON).
    RepairCsv {
        /// Path of the CSV file, resolved on the server's filesystem. Its
        /// header must match the engine's input schema.
        path: String,
        /// Optional chunk-size override in bytes.
        chunk_bytes: Option<usize>,
    },
    /// Compare the live rule set against a candidate document without
    /// promoting anything: report the edit scope of the would-be change.
    Diff {
        /// The candidate rule set as a portable JSON document.
        rules_json: String,
        /// The declared edit scope, if any (out-of-scope changes → ER012).
        scope: Option<EditScope>,
    },
    /// Report the rule version store: lineage, hashes, promotion notes.
    Versions,
}

/// Parse one request line. `max_rows` bounds the batch size a single
/// `repair` request may carry; `repair`/`append` rows are decoded into
/// `batch` (cleared first), so the caller can reuse one buffer per session.
pub fn parse_request(line: &str, max_rows: usize, batch: &mut RowBatch) -> Result<Request, String> {
    batch.clear();
    let value: Json = serde_json::from_str(line).map_err(|e| format!("malformed JSON: {e}"))?;
    let op = value
        .get("op")
        .and_then(Json::as_str)
        .ok_or_else(|| "missing \"op\" field".to_string())?;
    match op {
        "ping" => Ok(Request::Ping),
        "stats" => Ok(Request::Stats),
        "reload" => Ok(Request::Reload {
            scope: parse_scope(&value)?,
        }),
        "shutdown" => Ok(Request::Shutdown),
        "repair" => {
            parse_rows(&value, "repair", max_rows, batch)?;
            Ok(Request::Repair)
        }
        "append" => {
            parse_rows(&value, "append", max_rows, batch)?;
            Ok(Request::Append)
        }
        "repair_csv" => {
            let path = value
                .get("path")
                .and_then(Json::as_str)
                .ok_or_else(|| "repair_csv needs a \"path\" string".to_string())?
                .to_string();
            let chunk_bytes = match value.get("chunk_bytes") {
                None | Some(Json::Null) => None,
                Some(Json::Int(i)) if *i > 0 => Some(*i as usize),
                Some(Json::UInt(u)) if *u > 0 => usize::try_from(*u)
                    .map(Some)
                    .map_err(|_| "oversized \"chunk_bytes\"".to_string())?,
                Some(_) => return Err("\"chunk_bytes\" must be a positive integer".to_string()),
            };
            Ok(Request::RepairCsv { path, chunk_bytes })
        }
        "diff" => {
            let rules = value
                .get("rules")
                .ok_or_else(|| "diff needs a \"rules\" array".to_string())?;
            if !matches!(rules, Json::Array(_)) {
                return Err("diff needs a \"rules\" array".to_string());
            }
            Ok(Request::Diff {
                rules_json: serde_json::to_string(rules)
                    .map_err(|e| format!("unserializable rules: {e}"))?,
                scope: parse_scope(&value)?,
            })
        }
        "versions" => Ok(Request::Versions),
        other => Err(format!("unknown op {other:?}")),
    }
}

/// Decode the optional `"scope"` field shared by `reload` and `diff`.
fn parse_scope(value: &Json) -> Result<Option<EditScope>, String> {
    match value.get("scope") {
        None | Some(Json::Null) => Ok(None),
        Some(raw) => EditScope::from_json_value(raw).map(Some),
    }
}

/// Decode the `"rows"` array shared by the `repair` and `append` ops into
/// the session's reusable batch buffer. On error the batch is cleared, so a
/// rejected request never leaks half-decoded rows into the next one.
fn parse_rows(value: &Json, op: &str, max_rows: usize, batch: &mut RowBatch) -> Result<(), String> {
    let fill = |batch: &mut RowBatch| -> Result<(), String> {
        let rows = value
            .get("rows")
            .and_then(Json::as_array)
            .ok_or_else(|| format!("{op} needs a \"rows\" array"))?;
        if rows.len() > max_rows {
            return Err(format!(
                "batch of {} rows exceeds the {max_rows}-row limit",
                rows.len()
            ));
        }
        for (i, row) in rows.iter().enumerate() {
            let cells = row
                .as_array()
                .ok_or_else(|| format!("row {i} is not an array"))?;
            let tuple = batch.next_row();
            for (j, cell) in cells.iter().enumerate() {
                tuple.push(
                    decode_cell(cell).map_err(|kind| format!("row {i} column {j}: {kind} cell"))?,
                );
            }
        }
        Ok(())
    };
    fill(batch).inspect_err(|_| batch.clear())
}

/// Map one JSON scalar to a table cell. Booleans and nested containers have
/// no dictionary representation and are rejected.
fn decode_cell(value: &Json) -> Result<Cell, &'static str> {
    match value {
        Json::Null => Ok(Cell::Null),
        Json::Str(s) => Ok(Cell::str(s.as_str())),
        Json::Int(i) => Ok(Cell::int(*i)),
        Json::UInt(u) => i64::try_from(*u)
            .map(Cell::int)
            .map_err(|_| "oversized integer"),
        Json::Float(f) => Ok(Cell::float(*f)),
        Json::Bool(_) => Err("unsupported boolean"),
        Json::Array(_) => Err("unsupported array"),
        Json::Object(_) => Err("unsupported object"),
    }
}

fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Render a response value as one compact line. Responses are built from
/// finite scalars only, so serialization cannot fail; the fallback keeps
/// the protocol well-formed even if that ever changes.
fn render(value: &Json) -> String {
    serde_json::to_string(value)
        .unwrap_or_else(|_| "{\"ok\":false,\"error\":\"response serialization failed\"}".into())
}

/// `ping` response.
pub fn ok_ping() -> String {
    render(&obj(vec![
        ("ok", Json::Bool(true)),
        ("op", Json::Str("ping".into())),
    ]))
}

/// `shutdown` acknowledgement (sent before the drain closes the session).
pub fn ok_shutdown() -> String {
    render(&obj(vec![
        ("ok", Json::Bool(true)),
        ("op", Json::Str("shutdown".into())),
    ]))
}

/// `reload` acknowledgement: reloaded rule count, the version id the
/// promotion committed to the store, and (when the diff gate ran) the
/// edit-scope summary of what the promotion changes.
pub fn ok_reload(num_rules: usize, version: Option<u64>, diff: Option<&DiffReport>) -> String {
    let mut fields = vec![
        ("ok", Json::Bool(true)),
        ("op", Json::Str("reload".into())),
        ("rules", Json::Int(num_rules as i64)),
    ];
    if let Some(v) = version {
        fields.push(("version", Json::UInt(v)));
    }
    if let Some(report) = diff {
        fields.push(("diff", diff_summary(report)));
    }
    render(&obj(fields))
}

/// The compact edit-scope summary embedded in `reload` and rejection
/// responses: counts plus the certificate when the change is a no-op.
fn diff_summary(report: &DiffReport) -> Json {
    obj(vec![
        ("equivalent", Json::Bool(report.equivalent())),
        ("added", Json::Int(report.added as i64)),
        ("removed", Json::Int(report.removed as i64)),
        ("changes", Json::Int(report.changes.len() as i64)),
        ("infos", Json::Int(report.infos() as i64)),
        ("errors", Json::Int(report.errors() as i64)),
        (
            "certificate",
            match report.certificate() {
                Some(c) => Json::Str(c),
                None => Json::Null,
            },
        ),
    ])
}

/// `diff` response: the full edit-scope report (summary, verdict changes
/// with witnesses, findings) for the live-vs-candidate comparison.
pub fn ok_diff(report: &DiffReport) -> String {
    use serde::Serialize as _;
    render(&obj(vec![
        ("ok", Json::Bool(true)),
        ("op", Json::Str("diff".into())),
        ("summary", diff_summary(report)),
        ("report", report.to_value()),
    ]))
}

/// `versions` response: the rule version store (head id plus each version's
/// id, parent, content hash and promotion note).
pub fn ok_versions(store: &RuleStore) -> String {
    use serde::Serialize as _;
    render(&obj(vec![
        ("ok", Json::Bool(true)),
        ("op", Json::Str("versions".into())),
        ("store", store.to_value()),
    ]))
}

/// Edit-scope gate rejection: the `reload` was refused because the
/// candidate changes repair verdicts outside the declared edit scope
/// (ER012). The response carries the full diff report — every out-of-scope
/// signature with its master-row witness — and the live engine is
/// untouched.
pub fn diff_rejected(op: &str, report: &DiffReport) -> String {
    use serde::Serialize as _;
    render(&obj(vec![
        ("ok", Json::Bool(false)),
        (
            "error",
            Json::Str(format!(
                "{op} rejected by edit-scope analysis: {} verdict change{} outside the declared scope",
                report.errors(),
                if report.errors() == 1 { "" } else { "s" },
            )),
        ),
        ("op", Json::Str(op.to_string())),
        ("rejected", Json::Bool(true)),
        ("summary", diff_summary(report)),
        ("report", report.to_value()),
    ]))
}

/// `stats` response wrapping a metrics snapshot.
pub fn ok_stats(snapshot: &Snapshot) -> String {
    render(&obj(vec![
        ("ok", Json::Bool(true)),
        ("op", Json::Str("stats".into())),
        ("stats", snapshot.to_value()),
    ]))
}

/// `repair` response: the number of cells a repair would change and each
/// changed cell as `{"row":i,"attr":name,"value":rendered,"score":s}`.
pub fn ok_repair(outcome: &RepairOutcome) -> String {
    let cells: Vec<Json> = outcome
        .cells
        .iter()
        .map(|c| {
            obj(vec![
                ("row", Json::Int(c.row as i64)),
                ("attr", Json::Str(c.attr.clone())),
                ("value", Json::Str(c.value.clone())),
                ("score", Json::Float(c.score)),
            ])
        })
        .collect();
    render(&obj(vec![
        ("ok", Json::Bool(true)),
        ("op", Json::Str("repair".into())),
        ("rows", Json::Int(outcome.rows as i64)),
        ("fixed", Json::Int(outcome.fixed() as i64)),
        ("cells", Json::Array(cells)),
    ]))
}

/// `repair_csv` response: totals only (rows streamed, chunks committed,
/// cells a repair would change) — a bulk file can carry millions of rows,
/// so per-cell detail stays with the row-level `repair` op.
pub fn ok_repair_csv(rows: usize, chunks: usize, fixed: usize) -> String {
    render(&obj(vec![
        ("ok", Json::Bool(true)),
        ("op", Json::Str("repair_csv".into())),
        ("rows", Json::Int(rows as i64)),
        ("chunks", Json::Int(chunks as i64)),
        ("fixed", Json::Int(fixed as i64)),
    ]))
}

/// `append` acknowledgement: rows appended, the master's new row count,
/// and its new generation.
pub fn ok_append(outcome: &er_incr::AppendOutcome) -> String {
    render(&obj(vec![
        ("ok", Json::Bool(true)),
        ("op", Json::Str("append".into())),
        ("appended", Json::Int(outcome.appended as i64)),
        ("master_rows", Json::Int(outcome.master_rows as i64)),
        ("generation", Json::UInt(outcome.generation)),
    ]))
}

/// Static-analysis gate rejection: the op (`reload` or `append`) was
/// refused because the resulting rule-set/master combination fails the
/// analysis gate (ER008 cycle or ER009 conflict). The response carries the
/// analysis findings so the client can see *why* — the certificates and
/// witnesses — without a second round trip; the live engine is untouched.
pub fn analysis_rejected(op: &str, report: &er_analyze::AnalysisReport) -> String {
    use serde::Serialize as _;
    let findings: Vec<Json> = report.findings.iter().map(|f| f.to_value()).collect();
    render(&obj(vec![
        ("ok", Json::Bool(false)),
        (
            "error",
            Json::Str(format!(
                "{op} rejected by static analysis: {} error{}",
                report.errors(),
                if report.errors() == 1 { "" } else { "s" },
            )),
        ),
        ("op", Json::Str(op.to_string())),
        ("rejected", Json::Bool(true)),
        ("errors", Json::Int(report.errors() as i64)),
        ("warnings", Json::Int(report.warnings() as i64)),
        ("certified", Json::Bool(report.termination.certified)),
        ("findings", Json::Array(findings)),
    ]))
}

/// Generic error response.
pub fn error(message: &str) -> String {
    render(&obj(vec![
        ("ok", Json::Bool(false)),
        ("error", Json::Str(message.to_string())),
    ]))
}

/// Internal-error response: handling the request panicked (the server
/// caught it and keeps serving); the fault is the server's, not the
/// request's.
pub fn internal_error(message: &str) -> String {
    render(&obj(vec![
        ("ok", Json::Bool(false)),
        ("error", Json::Str(format!("internal error: {message}"))),
        ("internal", Json::Bool(true)),
    ]))
}

/// Backpressure response: the in-flight queue is full; the client should
/// retry after a backoff.
pub fn overloaded() -> String {
    render(&obj(vec![
        ("ok", Json::Bool(false)),
        ("error", Json::Str("overloaded".into())),
        ("retry", Json::Bool(true)),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parse with a throwaway batch, for tests that don't inspect rows.
    fn parse(line: &str, max_rows: usize) -> Result<Request, String> {
        parse_request(line, max_rows, &mut RowBatch::new())
    }

    #[test]
    fn parses_simple_ops() {
        assert_eq!(parse("{\"op\":\"ping\"}", 10), Ok(Request::Ping));
        assert_eq!(parse("{\"op\":\"stats\"}", 10), Ok(Request::Stats));
        assert_eq!(
            parse("{\"op\":\"reload\"}", 10),
            Ok(Request::Reload { scope: None })
        );
        assert_eq!(parse("{\"op\":\"shutdown\"}", 10), Ok(Request::Shutdown));
        assert_eq!(parse("{\"op\":\"versions\"}", 10), Ok(Request::Versions));
    }

    #[test]
    fn parses_reload_scope_and_diff() {
        let req = parse("{\"op\":\"reload\",\"scope\":{\"Date\":\"2021-12\"}}", 10).unwrap();
        let Request::Reload { scope: Some(scope) } = req else {
            panic!("expected a scoped reload");
        };
        assert!(scope.contains(&[("Date".to_string(), "2021-12".to_string())]));
        // A null scope means no scope was declared.
        assert_eq!(
            parse("{\"op\":\"reload\",\"scope\":null}", 10),
            Ok(Request::Reload { scope: None })
        );
        let req = parse(
            "{\"op\":\"diff\",\"rules\":[{\"x\":1}],\"scope\":[{\"City\":\"HZ\"}]}",
            10,
        )
        .unwrap();
        let Request::Diff { rules_json, scope } = req else {
            panic!("expected a diff request");
        };
        assert_eq!(rules_json, "[{\"x\":1}]");
        assert!(scope.is_some());
        let err = parse("{\"op\":\"diff\"}", 10).unwrap_err();
        assert!(err.contains("diff needs"), "{err}");
        let err = parse("{\"op\":\"diff\",\"rules\":7}", 10).unwrap_err();
        assert!(err.contains("diff needs"), "{err}");
        let err = parse("{\"op\":\"reload\",\"scope\":7}", 10).unwrap_err();
        assert!(err.contains("scope"), "{err}");
    }

    #[test]
    fn parses_repair_rows_into_the_batch() {
        let mut batch = RowBatch::new();
        let req = parse_request(
            "{\"op\":\"repair\",\"rows\":[[\"HZ\",null],[\"BJ\",\"imports\"]]}",
            10,
            &mut batch,
        )
        .unwrap();
        assert_eq!(req, Request::Repair);
        assert_eq!(batch.len(), 2);
        assert_eq!(batch.rows()[0], vec![Cell::str("HZ"), Cell::Null]);
        assert_eq!(batch.rows()[1], vec![Cell::str("BJ"), Cell::str("imports")]);
    }

    #[test]
    fn parses_append_rows() {
        let mut batch = RowBatch::new();
        let req = parse_request(
            "{\"op\":\"append\",\"rows\":[[\"SZ\",\"no symptoms\"]]}",
            10,
            &mut batch,
        )
        .unwrap();
        assert_eq!(req, Request::Append);
        assert_eq!(
            batch.rows(),
            &[vec![Cell::str("SZ"), Cell::str("no symptoms")]]
        );
        // The same row-array rules apply as for repair.
        let err = parse("{\"op\":\"append\",\"rows\":[[1],[2],[3]]}", 2).unwrap_err();
        assert!(err.contains("exceeds"), "{err}");
        let err = parse("{\"op\":\"append\"}", 10).unwrap_err();
        assert!(err.contains("append needs"), "{err}");
    }

    #[test]
    fn batch_buffer_is_reused_across_requests() {
        let mut batch = RowBatch::new();
        parse_request(
            "{\"op\":\"repair\",\"rows\":[[\"a\"],[\"b\"],[\"c\"]]}",
            10,
            &mut batch,
        )
        .unwrap();
        assert_eq!(batch.len(), 3);
        // A smaller follow-up request truncates the logical view but keeps
        // the old slots allocated for reuse.
        parse_request(
            "{\"op\":\"repair\",\"rows\":[[\"z\",\"y\"]]}",
            10,
            &mut batch,
        )
        .unwrap();
        assert_eq!(batch.len(), 1);
        assert_eq!(batch.rows(), &[vec![Cell::str("z"), Cell::str("y")]]);
        // Row-less ops clear the batch outright.
        parse_request("{\"op\":\"ping\"}", 10, &mut batch).unwrap();
        assert!(batch.is_empty());
        // A rejected request never leaks half-decoded rows.
        parse_request(
            "{\"op\":\"repair\",\"rows\":[[\"ok\"],[true]]}",
            10,
            &mut batch,
        )
        .unwrap_err();
        assert!(batch.is_empty());
    }

    #[test]
    fn parses_repair_csv() {
        let req = parse("{\"op\":\"repair_csv\",\"path\":\"in.csv\"}", 10).unwrap();
        assert_eq!(
            req,
            Request::RepairCsv {
                path: "in.csv".to_string(),
                chunk_bytes: None
            }
        );
        let req = parse(
            "{\"op\":\"repair_csv\",\"path\":\"in.csv\",\"chunk_bytes\":4096}",
            10,
        )
        .unwrap();
        assert_eq!(
            req,
            Request::RepairCsv {
                path: "in.csv".to_string(),
                chunk_bytes: Some(4096)
            }
        );
        let err = parse("{\"op\":\"repair_csv\"}", 10).unwrap_err();
        assert!(err.contains("path"), "{err}");
        let err = parse(
            "{\"op\":\"repair_csv\",\"path\":\"x\",\"chunk_bytes\":0}",
            10,
        )
        .unwrap_err();
        assert!(err.contains("chunk_bytes"), "{err}");
    }

    #[test]
    fn repair_csv_response_shape() {
        let resp = ok_repair_csv(1000, 4, 37);
        let parsed: Json = serde_json::from_str(&resp).unwrap();
        assert_eq!(parsed.get("rows"), Some(&Json::Int(1000)));
        assert_eq!(parsed.get("chunks"), Some(&Json::Int(4)));
        assert_eq!(parsed.get("fixed"), Some(&Json::Int(37)));
    }

    #[test]
    fn append_response_shape() {
        let resp = ok_append(&er_incr::AppendOutcome {
            appended: 2,
            master_rows: 6,
            generation: 9,
            indexes_updated: 1,
        });
        let parsed: Json = serde_json::from_str(&resp).unwrap();
        assert_eq!(parsed.get("appended"), Some(&Json::Int(2)));
        assert_eq!(parsed.get("master_rows"), Some(&Json::Int(6)));
        assert_eq!(parsed.get("generation"), Some(&Json::Int(9)));
    }

    #[test]
    fn numbers_decode_to_typed_cells() {
        let mut batch = RowBatch::new();
        let req = parse_request("{\"op\":\"repair\",\"rows\":[[3,2.5]]}", 10, &mut batch).unwrap();
        assert_eq!(req, Request::Repair);
        assert_eq!(batch.rows()[0], vec![Cell::int(3), Cell::float(2.5)]);
    }

    #[test]
    fn malformed_json_is_an_error() {
        assert!(parse("{\"op\":", 10).is_err());
        assert!(parse("not json at all", 10).is_err());
    }

    #[test]
    fn unknown_and_missing_ops_are_errors() {
        let err = parse("{\"op\":\"frobnicate\"}", 10).unwrap_err();
        assert!(err.contains("unknown op"), "{err}");
        let err = parse("{\"rows\":[]}", 10).unwrap_err();
        assert!(err.contains("missing"), "{err}");
    }

    #[test]
    fn oversized_batches_are_rejected() {
        let err = parse("{\"op\":\"repair\",\"rows\":[[1],[2],[3]]}", 2).unwrap_err();
        assert!(err.contains("exceeds"), "{err}");
    }

    #[test]
    fn unsupported_cells_are_rejected_with_position() {
        let err = parse("{\"op\":\"repair\",\"rows\":[[\"x\",true]]}", 10).unwrap_err();
        assert!(err.contains("row 0 column 1"), "{err}");
    }

    #[test]
    fn responses_are_single_lines() {
        for resp in [
            ok_ping(),
            ok_shutdown(),
            ok_reload(3, Some(2), None),
            error("x"),
            overloaded(),
        ] {
            assert!(!resp.contains('\n'), "{resp}");
            let parsed: Json = serde_json::from_str(&resp).unwrap();
            assert!(parsed.get("ok").is_some());
        }
    }
}
