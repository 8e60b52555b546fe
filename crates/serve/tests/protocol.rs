//! Pipe-mode protocol tests: every abuse a client can commit over the line
//! protocol is answered with an error response on the same session, and
//! well-formed traffic round-trips.

// Test code: a panic is the failure report; fixture helpers sit outside
// any #[test] fn, so the clippy.toml test exemption does not reach them.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use er_lint::DiagnosticCode;
use er_rules::{EditingRule, SchemaMatch, Task};
use er_serve::{serve_pipe, ReloadError, RepairEngine, ServeConfig, Server};
use er_table::{Attribute, Pool, RelationBuilder, Schema, Value};
use serde_json::Value as Json;
use std::io::Cursor;
use std::sync::Arc;

fn covid_task() -> Task {
    let pool = Arc::new(Pool::new());
    let in_schema = Arc::new(Schema::new(
        "in",
        vec![
            Attribute::categorical("City"),
            Attribute::categorical("Case"),
        ],
    ));
    let m_schema = Arc::new(Schema::new(
        "m",
        vec![
            Attribute::categorical("City"),
            Attribute::categorical("Infection"),
        ],
    ));
    let s = Value::str;
    let mut b = RelationBuilder::new(in_schema, Arc::clone(&pool));
    b.push_row(vec![s("HZ"), Value::Null]).unwrap();
    let input = b.finish();
    let mut bm = RelationBuilder::new(m_schema, pool);
    bm.push_row(vec![s("HZ"), s("patient")]).unwrap();
    bm.push_row(vec![s("BJ"), s("imports")]).unwrap();
    bm.push_row(vec![s("BJ"), s("imports")]).unwrap();
    bm.push_row(vec![s("BJ"), s("patient")]).unwrap();
    let master = bm.finish();
    Task::new(
        input,
        master,
        SchemaMatch::from_pairs(2, &[(0, 0), (1, 1)]),
        (1, 1),
    )
}

/// A three-attribute task (input City/ZIP/Case, master City/ZIP/Infection)
/// for the analysis-gate tests: wide enough that a strict-subset rule pair
/// can contradict on a master tuple. `rows` are the master tuples.
fn covid3_task(rows: &[(&str, &str, &str)]) -> Task {
    let pool = Arc::new(Pool::new());
    let in_schema = Arc::new(Schema::new(
        "in",
        vec![
            Attribute::categorical("City"),
            Attribute::categorical("ZIP"),
            Attribute::categorical("Case"),
        ],
    ));
    let m_schema = Arc::new(Schema::new(
        "m",
        vec![
            Attribute::categorical("City"),
            Attribute::categorical("ZIP"),
            Attribute::categorical("Infection"),
        ],
    ));
    let s = Value::str;
    let mut b = RelationBuilder::new(in_schema, Arc::clone(&pool));
    b.push_row(vec![s("HZ"), Value::Null, Value::Null]).unwrap();
    let input = b.finish();
    let mut bm = RelationBuilder::new(m_schema, pool);
    for &(city, zip, inf) in rows {
        bm.push_row(vec![s(city), s(zip), s(inf)]).unwrap();
    }
    let master = bm.finish();
    Task::new(
        input,
        master,
        SchemaMatch::from_pairs(3, &[(0, 0), (1, 1), (2, 2)]),
        (2, 2),
    )
}

/// City → Case alone is clean; adding (City, ZIP) → Case over this master
/// makes a proven ER009 conflict: for City=HZ the broad modal is "flu"
/// (2–1) but pinning ZIP=31200 prescribes "patient".
const CONFLICT_MASTER: &[(&str, &str, &str)] = &[
    ("HZ", "31200", "patient"),
    ("HZ", "99999", "flu"),
    ("HZ", "99999", "flu"),
];

fn server(config: ServeConfig) -> Server {
    let task = covid_task();
    let rules = vec![EditingRule::new(vec![(0, 0)], (1, 1), vec![])];
    Server::new(RepairEngine::new(&task, rules, 0).unwrap(), config)
}

/// Run a scripted session through the pipe front-end and return the parsed
/// response objects, one per request line.
fn session(server: &Server, script: &str) -> Vec<Json> {
    let mut reader = Cursor::new(script.as_bytes().to_vec());
    let mut out: Vec<u8> = Vec::new();
    serve_pipe(server, &mut reader, &mut out).unwrap();
    String::from_utf8(out)
        .unwrap()
        .lines()
        .map(|l| serde_json::from_str(l).unwrap())
        .collect()
}

fn ok(v: &Json) -> bool {
    matches!(v.get("ok"), Some(Json::Bool(true)))
}

fn error_of(v: &Json) -> &str {
    v.get("error").and_then(Json::as_str).unwrap_or("")
}

/// Numeric field accessor tolerant of the parser's Int/UInt split.
fn num(v: &Json, key: &str) -> i64 {
    match v.get(key) {
        Some(Json::Int(i)) => *i,
        Some(Json::UInt(u)) => *u as i64,
        other => panic!("field {key} is not a number: {other:?}"),
    }
}

/// Float field accessor tolerant of the parser narrowing whole floats to
/// integers on the round trip.
fn float(v: &Json, key: &str) -> f64 {
    match v.get(key) {
        Some(Json::Float(f)) => *f,
        Some(Json::Int(i)) => *i as f64,
        Some(Json::UInt(u)) => *u as f64,
        other => panic!("field {key} is not a number: {other:?}"),
    }
}

#[test]
fn ping_repair_shutdown_round_trip() {
    let s = server(ServeConfig::default());
    let responses = session(
        &s,
        "{\"op\":\"ping\"}\n\
         {\"op\":\"repair\",\"rows\":[[\"HZ\",null],[\"BJ\",null],[\"??\",null]]}\n\
         {\"op\":\"shutdown\"}\n",
    );
    assert_eq!(responses.len(), 3);
    assert!(responses.iter().all(ok));
    let repair = &responses[1];
    assert_eq!(repair.get("fixed"), Some(&Json::Int(2)));
    let cells = repair.get("cells").and_then(Json::as_array).unwrap();
    assert_eq!(cells[0].get("attr").and_then(Json::as_str), Some("Case"));
    assert_eq!(
        cells[0].get("value").and_then(Json::as_str),
        Some("patient")
    );
    assert_eq!(
        cells[1].get("value").and_then(Json::as_str),
        Some("imports")
    );
    assert!(s.is_draining(), "shutdown op must start the drain");
}

#[test]
fn malformed_json_keeps_the_session_alive() {
    let s = server(ServeConfig::default());
    let responses = session(
        &s,
        "this is not json\n\
         {\"op\":\n\
         {\"op\":\"ping\"}\n",
    );
    assert_eq!(responses.len(), 3);
    assert!(!ok(&responses[0]));
    assert!(!ok(&responses[1]));
    assert!(ok(&responses[2]), "session must survive malformed lines");
}

#[test]
fn unknown_op_is_reported() {
    let s = server(ServeConfig::default());
    let responses = session(&s, "{\"op\":\"frobnicate\"}\n");
    assert!(!ok(&responses[0]));
    assert!(error_of(&responses[0]).contains("unknown op"));
}

#[test]
fn over_long_line_is_rejected_but_consumed() {
    let s = server(ServeConfig {
        max_line_bytes: 64,
        ..ServeConfig::default()
    });
    let long = format!(
        "{{\"op\":\"repair\",\"rows\":[[\"{}\",null]]}}",
        "x".repeat(200)
    );
    let responses = session(&s, &format!("{long}\n{{\"op\":\"ping\"}}\n"));
    assert_eq!(responses.len(), 2);
    assert!(!ok(&responses[0]));
    assert!(error_of(&responses[0]).contains("exceeds"));
    assert!(
        ok(&responses[1]),
        "the oversized line must be skipped, not fatal"
    );
}

#[test]
fn missing_and_extra_columns_are_row_errors() {
    let s = server(ServeConfig::default());
    let responses = session(
        &s,
        "{\"op\":\"repair\",\"rows\":[[\"HZ\"]]}\n\
         {\"op\":\"repair\",\"rows\":[[\"HZ\",null,\"extra\"]]}\n\
         {\"op\":\"repair\",\"rows\":[[\"HZ\",null],[\"BJ\"]]}\n",
    );
    assert!(responses.iter().all(|r| !ok(r)));
    assert!(error_of(&responses[2]).contains("row 1"), "{responses:?}");
}

#[test]
fn unsupported_cell_types_are_rejected() {
    let s = server(ServeConfig::default());
    let responses = session(&s, "{\"op\":\"repair\",\"rows\":[[\"HZ\",true]]}\n");
    assert!(!ok(&responses[0]));
    assert!(error_of(&responses[0]).contains("row 0 column 1"));
}

#[test]
fn oversized_batches_hit_the_row_limit() {
    let s = server(ServeConfig {
        max_batch_rows: 2,
        ..ServeConfig::default()
    });
    let responses = session(
        &s,
        "{\"op\":\"repair\",\"rows\":[[\"HZ\",null],[\"BJ\",null],[\"SZ\",null]]}\n",
    );
    assert!(!ok(&responses[0]));
    assert!(error_of(&responses[0]).contains("exceeds"));
}

#[test]
fn stats_reflect_traffic() {
    let s = server(ServeConfig::default());
    let responses = session(
        &s,
        "{\"op\":\"repair\",\"rows\":[[\"HZ\",null]]}\n\
         nonsense\n\
         {\"op\":\"stats\"}\n",
    );
    let stats = responses[2].get("stats").unwrap();
    assert_eq!(num(stats, "requests"), 3);
    assert_eq!(num(stats, "repairs"), 1);
    assert_eq!(num(stats, "repaired_cells"), 1);
    assert_eq!(num(stats, "errors"), 1);
    assert_eq!(num(stats, "queue_depth"), 0);
    // The signature-batched repair path surfaces its payoff: one NULL-free
    // row grouped, one distinct signature probed → dedup ratio 1.0.
    assert_eq!(num(stats, "vote_rows"), 1);
    assert_eq!(num(stats, "signature_probes"), 1);
    assert!((float(stats, "signature_dedup") - 1.0).abs() < 1e-12);
}

#[test]
fn signature_dedup_collapses_duplicate_rows() {
    let s = server(ServeConfig::default());
    let responses = session(
        &s,
        "{\"op\":\"repair\",\"rows\":[[\"HZ\",null],[\"HZ\",null],[\"HZ\",null],[\"BJ\",null]]}\n\
         {\"op\":\"stats\"}\n",
    );
    let stats = responses[1].get("stats").unwrap();
    // Four NULL-free rows collapse to two distinct city signatures.
    assert_eq!(num(stats, "vote_rows"), 4);
    assert_eq!(num(stats, "signature_probes"), 2);
    assert!((float(stats, "signature_dedup") - 2.0).abs() < 1e-12);
}

#[test]
fn append_round_trip_changes_later_repairs() {
    let s = server(ServeConfig::default());
    let responses = session(
        &s,
        "{\"op\":\"repair\",\"rows\":[[\"SZ\",null]]}\n\
         {\"op\":\"append\",\"rows\":[[\"SZ\",\"no symptoms\"],[\"SZ\",\"no symptoms\"]]}\n\
         {\"op\":\"repair\",\"rows\":[[\"SZ\",null]]}\n\
         {\"op\":\"stats\"}\n",
    );
    assert_eq!(responses.len(), 4);
    // Before the append SZ has no master support.
    assert_eq!(responses[0].get("fixed"), Some(&Json::Int(0)));
    let append = &responses[1];
    assert!(ok(append), "{append:?}");
    assert_eq!(num(append, "appended"), 2);
    assert_eq!(num(append, "master_rows"), 6);
    assert_eq!(num(append, "generation"), 6);
    // After the append the same request is repaired from the grown master.
    assert_eq!(responses[2].get("fixed"), Some(&Json::Int(1)));
    let cells = responses[2].get("cells").and_then(Json::as_array).unwrap();
    assert_eq!(
        cells[0].get("value").and_then(Json::as_str),
        Some("no symptoms")
    );
    let stats = responses[3].get("stats").unwrap();
    assert_eq!(num(stats, "appends"), 1);
    assert_eq!(num(stats, "reloads"), 0);
    assert_eq!(num(stats, "engine_generation"), 6);
}

#[test]
fn append_rejects_bad_rows_and_counts_an_error() {
    let s = server(ServeConfig::default());
    let responses = session(
        &s,
        "{\"op\":\"append\",\"rows\":[[\"SZ\",\"ok\"],[\"short\"]]}\n\
         {\"op\":\"stats\"}\n",
    );
    assert!(!ok(&responses[0]));
    assert!(error_of(&responses[0]).contains("row 1"), "{responses:?}");
    let stats = responses[1].get("stats").unwrap();
    assert_eq!(num(stats, "appends"), 0);
    assert_eq!(num(stats, "errors"), 1);
    // The engine stays at its load-time generation (4 master rows).
    assert_eq!(num(stats, "engine_generation"), 4);
}

#[test]
fn append_honours_the_batch_row_limit() {
    let s = server(ServeConfig {
        max_batch_rows: 1,
        ..ServeConfig::default()
    });
    let responses = session(
        &s,
        "{\"op\":\"append\",\"rows\":[[\"a\",\"b\"],[\"c\",\"d\"]]}\n",
    );
    assert!(!ok(&responses[0]));
    assert!(error_of(&responses[0]).contains("exceeds"));
}

#[test]
fn reload_updates_the_maintenance_counters() {
    let task = covid_task();
    let rules = vec![EditingRule::new(vec![(0, 0)], (1, 1), vec![])];
    let engine = RepairEngine::new(&task, rules, 0).unwrap();
    let reload_task = covid_task();
    let s = Server::new(engine, ServeConfig::default()).with_reloader(Box::new(move || {
        RepairEngine::new(&reload_task, Vec::new(), 0)
            .map_err(|e| ReloadError::Failed(e.to_string()))
    }));
    let responses = session(&s, "{\"op\":\"reload\"}\n{\"op\":\"stats\"}\n");
    assert!(ok(&responses[0]));
    let stats = responses[1].get("stats").unwrap();
    assert_eq!(num(stats, "reloads"), 1);
    assert_eq!(num(stats, "engine_generation"), 4);
}

#[test]
fn reload_without_a_reloader_is_an_error() {
    let s = server(ServeConfig::default());
    let responses = session(&s, "{\"op\":\"reload\"}\n");
    assert!(!ok(&responses[0]));
    assert!(error_of(&responses[0]).contains("not configured"));
}

#[test]
fn reload_swaps_the_engine() {
    let task = covid_task();
    let rules = vec![EditingRule::new(vec![(0, 0)], (1, 1), vec![])];
    let engine = RepairEngine::new(&task, rules, 0).unwrap();
    let reload_task = covid_task();
    let s = Server::new(engine, ServeConfig::default()).with_reloader(Box::new(move || {
        RepairEngine::new(&reload_task, Vec::new(), 0)
            .map_err(|e| ReloadError::Failed(e.to_string()))
    }));
    let responses = session(
        &s,
        "{\"op\":\"reload\"}\n{\"op\":\"repair\",\"rows\":[[\"HZ\",null]]}\n",
    );
    assert!(ok(&responses[0]));
    assert_eq!(responses[0].get("rules"), Some(&Json::Int(0)));
    // The empty reloaded rule set fixes nothing.
    assert_eq!(responses[1].get("fixed"), Some(&Json::Int(0)));
}

#[test]
fn panicking_reload_answers_an_internal_error_and_the_session_continues() {
    let s = server(ServeConfig::default()).with_reloader(Box::new(|| panic!("reloader exploded")));
    let responses = session(
        &s,
        "{\"op\":\"reload\"}\n{\"op\":\"ping\"}\n{\"op\":\"stats\"}\n",
    );
    assert_eq!(responses.len(), 3);
    assert!(!ok(&responses[0]));
    assert_eq!(responses[0].get("internal"), Some(&Json::Bool(true)));
    assert!(error_of(&responses[0]).contains("reloader exploded"));
    assert!(ok(&responses[1]));
    let stats = responses[2].get("stats").unwrap();
    assert_eq!(num(stats, "errors"), 1);
    assert_eq!(num(stats, "panics"), 1);
    assert_eq!(num(stats, "reloads"), 0);
}

#[test]
fn eof_ends_the_session_after_answering_everything() {
    let s = server(ServeConfig::default());
    // No shutdown op, no trailing newline: EOF drains cleanly and the last
    // request is still answered.
    let responses = session(&s, "{\"op\":\"ping\"}\n{\"op\":\"ping\"}");
    assert_eq!(responses.len(), 2);
    assert!(responses.iter().all(ok));
}

#[test]
fn stats_track_appends_with_and_without_the_gate() {
    // A single rule has zero critical pairs, so the gated append passes;
    // the gate-less one commits unchecked. Either way the next `stats`
    // sees the grown master, and no confluence license is reported.
    for analysis_gate in [true, false] {
        let s = server(ServeConfig {
            analysis_gate,
            ..ServeConfig::default()
        });
        let raw = session_raw(
            &s,
            "{\"op\":\"stats\"}\n\
             {\"op\":\"append\",\"rows\":[[\"SZ\",\"no symptoms\"]]}\n\
             {\"op\":\"stats\"}\n",
        );
        assert!(!raw.contains("\"confluence"), "{raw}");
        let responses: Vec<Json> = raw
            .lines()
            .map(|l| serde_json::from_str(l).unwrap())
            .collect();
        assert!(ok(&responses[1]), "{:?}", responses[1]);
        let stats = |r: &Json| r.get("stats").cloned().unwrap();
        let (before, after) = (stats(&responses[0]), stats(&responses[2]));
        assert_eq!(
            num(&after, "engine_generation"),
            num(&before, "engine_generation") + 1,
            "gate={analysis_gate}"
        );
    }
}

#[test]
fn conflicting_reload_is_rejected_and_the_old_engine_keeps_serving() {
    // The live engine holds the clean single rule City → Case; the reloader
    // offers a set whose strict-subset pair contradicts on a master tuple.
    let task = covid3_task(CONFLICT_MASTER);
    let rules = vec![EditingRule::new(vec![(0, 0)], (2, 2), vec![])];
    let engine = RepairEngine::new(&task, rules, 0).unwrap();
    let reload_task = covid3_task(CONFLICT_MASTER);
    let s = Server::new(engine, ServeConfig::default()).with_reloader(Box::new(move || {
        let rules = vec![
            EditingRule::new(vec![(0, 0)], (2, 2), vec![]),
            EditingRule::new(vec![(0, 0), (1, 1)], (2, 2), vec![]),
        ];
        RepairEngine::new(&reload_task, rules, 0).map_err(|e| ReloadError::Failed(e.to_string()))
    }));
    let responses = session(
        &s,
        "{\"op\":\"reload\"}\n\
         {\"op\":\"repair\",\"rows\":[[\"HZ\",null,null]]}\n\
         {\"op\":\"stats\"}\n",
    );
    let reject = &responses[0];
    assert!(!ok(reject), "{reject:?}");
    assert!(error_of(reject).contains("static analysis"), "{reject:?}");
    assert_eq!(reject.get("rejected"), Some(&Json::Bool(true)));
    // The contradicting pair trips both the subset-conflict pass (ER009) and
    // the critical-pair confluence pass (ER013).
    assert_eq!(num(reject, "errors"), 2);
    let findings = reject.get("findings").and_then(Json::as_array).unwrap();
    assert_eq!(
        findings[0].get("code").and_then(Json::as_str),
        Some(DiagnosticCode::Er009.as_str()),
        "{findings:?}"
    );
    assert!(
        findings.iter().any(|f| {
            f.get("code").and_then(Json::as_str) == Some(DiagnosticCode::Er013.as_str())
        }),
        "{findings:?}"
    );
    // The previous engine still serves: HZ repairs to the broad modal "flu".
    let repair = &responses[1];
    assert!(ok(repair), "{repair:?}");
    assert_eq!(repair.get("fixed"), Some(&Json::Int(1)));
    let cells = repair.get("cells").and_then(Json::as_array).unwrap();
    assert_eq!(cells[0].get("value").and_then(Json::as_str), Some("flu"));
    let stats = responses[2].get("stats").unwrap();
    assert_eq!(num(stats, "rejected"), 1);
    assert_eq!(num(stats, "reloads"), 0);
    let by_code = stats.get("rejected_by_code").unwrap();
    assert_eq!(
        num(by_code, DiagnosticCode::Er009.as_str()),
        1,
        "{by_code:?}"
    );
}

#[test]
fn conflict_inducing_append_is_rejected_without_committing() {
    // Both rules are clean over the starting master (every HZ key agrees on
    // "patient"); the appended rows would flip the narrow (City, ZIP) modal
    // to "flu" while leaving the broad City modal at "patient".
    let task = covid3_task(&[("HZ", "1", "patient"), ("HZ", "2", "patient")]);
    let rules = vec![
        EditingRule::new(vec![(0, 0)], (2, 2), vec![]),
        EditingRule::new(vec![(0, 0), (1, 1)], (2, 2), vec![]),
    ];
    let s = Server::new(
        RepairEngine::new(&task, rules, 0).unwrap(),
        ServeConfig::default(),
    );
    let responses = session(
        &s,
        "{\"op\":\"append\",\"rows\":[[\"HZ\",\"2\",\"flu\"],[\"HZ\",\"2\",\"flu\"]]}\n\
         {\"op\":\"stats\"}\n\
         {\"op\":\"repair\",\"rows\":[[\"HZ\",null,null]]}\n",
    );
    let reject = &responses[0];
    assert!(!ok(reject), "{reject:?}");
    assert_eq!(reject.get("rejected"), Some(&Json::Bool(true)));
    assert_eq!(reject.get("op").and_then(Json::as_str), Some("append"));
    let stats = responses[1].get("stats").unwrap();
    // Nothing was committed: no append counted, generation still load-time.
    assert_eq!(num(stats, "appends"), 0);
    assert_eq!(num(stats, "rejected"), 1);
    assert_eq!(num(stats, "engine_generation"), 2);
    // And the engine still serves from the unmodified master.
    let repair = &responses[2];
    assert!(ok(repair), "{repair:?}");
    let cells = repair.get("cells").and_then(Json::as_array).unwrap();
    assert_eq!(
        cells[0].get("value").and_then(Json::as_str),
        Some("patient")
    );
}

#[test]
fn cyclic_rule_file_is_rejected_by_the_gated_loader() {
    // A multi-target document with a City ↔ ZIP dependency cycle: the gated
    // loader diagnoses ER008 before single-target resolution can even
    // complain about the mixed targets.
    let task = covid3_task(CONFLICT_MASTER);
    let json = r#"[
        {"lhs": [["City", "City"]], "target": ["ZIP", "ZIP"], "pattern": [], "measures": null},
        {"lhs": [["ZIP", "ZIP"]], "target": ["City", "City"], "pattern": [], "measures": null}
    ]"#;
    let err = RepairEngine::from_json_gated(&task, json, 0).unwrap_err();
    let er_serve::EngineError::Analysis(report) = err else {
        panic!("expected an analysis rejection, got {err}");
    };
    assert!(!report.termination.certified);
    assert!(report.termination.cycle.is_some());

    // Over the reload path the rejection is a typed protocol response and
    // the live engine survives.
    let rules = vec![EditingRule::new(vec![(0, 0)], (2, 2), vec![])];
    let engine = RepairEngine::new(&task, rules, 0).unwrap();
    let reload_task = covid3_task(CONFLICT_MASTER);
    let json_owned = json.to_string();
    let s = Server::new(engine, ServeConfig::default()).with_reloader(Box::new(move || {
        RepairEngine::from_json_gated(&reload_task, &json_owned, 0).map_err(|e| match e {
            er_serve::EngineError::Analysis(report) => ReloadError::Analysis(report),
            other => ReloadError::Failed(other.to_string()),
        })
    }));
    let responses = session(
        &s,
        "{\"op\":\"reload\"}\n{\"op\":\"repair\",\"rows\":[[\"HZ\",null,null]]}\n",
    );
    let reject = &responses[0];
    assert!(!ok(reject), "{reject:?}");
    assert_eq!(reject.get("rejected"), Some(&Json::Bool(true)));
    assert_eq!(reject.get("certified"), Some(&Json::Bool(false)));
    let findings = reject.get("findings").and_then(Json::as_array).unwrap();
    assert_eq!(
        findings[0].get("code").and_then(Json::as_str),
        Some(DiagnosticCode::Er008.as_str()),
        "{findings:?}"
    );
    assert!(ok(&responses[1]), "{responses:?}");
}

/// The live covid rule (City → Case, no pattern) as a portable document
/// fragment, and the same rule narrowed to the pattern City = "HZ" —
/// narrowing removes BJ's repair, so the diff reports exactly one changed
/// signature with the BJ master rows as witness.
const BROAD_RULE: &str =
    r#"{"lhs":[["City","City"]],"target":["Case","Infection"],"pattern":[],"measures":null}"#;
const NARROWED_RULE: &str = r#"{"lhs":[["City","City"]],"target":["Case","Infection"],"pattern":[{"Eq":{"attr":"City","value":"HZ","numeric":false}}],"measures":null}"#;

#[test]
fn diff_reports_the_edit_scope_without_promoting() {
    let s = server(ServeConfig::default());
    let responses = session(
        &s,
        &format!(
            "{{\"op\":\"diff\",\"rules\":[{BROAD_RULE}]}}\n\
             {{\"op\":\"diff\",\"rules\":[{NARROWED_RULE}]}}\n\
             {{\"op\":\"repair\",\"rows\":[[\"BJ\",null]]}}\n\
             {{\"op\":\"stats\"}}\n"
        ),
    );
    // Identical candidate: certified equivalent.
    let same = &responses[0];
    assert!(ok(same), "{same:?}");
    let summary = same.get("summary").unwrap();
    assert_eq!(summary.get("equivalent"), Some(&Json::Bool(true)));
    assert!(
        summary
            .get("certificate")
            .and_then(Json::as_str)
            .unwrap()
            .contains("structurally identical"),
        "{summary:?}"
    );
    // Narrowed candidate: one signature (City=BJ) loses its repair.
    let changed = &responses[1];
    assert!(ok(changed), "{changed:?}");
    let summary = changed.get("summary").unwrap();
    assert_eq!(summary.get("equivalent"), Some(&Json::Bool(false)));
    assert_eq!(num(summary, "changes"), 1);
    assert_eq!(num(summary, "errors"), 0, "no scope declared, no ER012");
    let report = changed.get("report").unwrap();
    let changes = report.get("changes").and_then(Json::as_array).unwrap();
    let sig = changes[0].get("signature").unwrap();
    assert_eq!(sig.get("City").and_then(Json::as_str), Some("BJ"));
    assert_eq!(
        changes[0].get("old").and_then(Json::as_str),
        Some("imports")
    );
    assert_eq!(changes[0].get("new"), Some(&Json::Null));
    // Nothing was promoted: the live engine still repairs BJ.
    let repair = &responses[2];
    assert_eq!(repair.get("fixed"), Some(&Json::Int(1)));
    let stats = responses[3].get("stats").unwrap();
    assert_eq!(num(stats, "diffs"), 2);
    assert_eq!(num(stats, "reloads"), 0);
}

#[test]
fn unresolvable_diff_candidates_are_errors() {
    let s = server(ServeConfig::default());
    let responses = session(
        &s,
        "{\"op\":\"diff\",\"rules\":[{\"not\":\"a rule\"}]}\n\
         {\"op\":\"diff\",\"rules\":\"nope\"}\n\
         {\"op\":\"stats\"}\n",
    );
    assert!(!ok(&responses[0]), "{responses:?}");
    assert!(!ok(&responses[1]), "{responses:?}");
    assert!(
        error_of(&responses[1]).contains("diff needs"),
        "{responses:?}"
    );
    let stats = responses[2].get("stats").unwrap();
    assert_eq!(num(stats, "diffs"), 0);
    assert_eq!(num(stats, "errors"), 2);
}

#[test]
fn out_of_scope_reload_is_rejected_and_in_scope_promotes() {
    let task = covid_task();
    let rules = vec![EditingRule::new(vec![(0, 0)], (1, 1), vec![])];
    let engine = RepairEngine::new(&task, rules, 0).unwrap();
    let reload_task = covid_task();
    let narrowed = format!("[{NARROWED_RULE}]");
    let s = Server::new(engine, ServeConfig::default()).with_reloader(Box::new(move || {
        RepairEngine::from_json(&reload_task, &narrowed, 0)
            .map_err(|e| ReloadError::Failed(e.to_string()))
    }));
    let responses = session(
        &s,
        "{\"op\":\"reload\",\"scope\":{\"City\":\"HZ\"}}\n\
         {\"op\":\"repair\",\"rows\":[[\"BJ\",null]]}\n\
         {\"op\":\"reload\",\"scope\":[{\"City\":\"HZ\"},{\"City\":\"BJ\"}]}\n\
         {\"op\":\"repair\",\"rows\":[[\"BJ\",null]]}\n\
         {\"op\":\"stats\"}\n",
    );
    // The candidate drops BJ's repair but the declared scope only covers
    // HZ: ER012, no swap.
    let reject = &responses[0];
    assert!(!ok(reject), "{reject:?}");
    assert!(error_of(reject).contains("edit-scope"), "{reject:?}");
    assert_eq!(reject.get("rejected"), Some(&Json::Bool(true)));
    let summary = reject.get("summary").unwrap();
    assert_eq!(num(summary, "errors"), 1);
    let report = reject.get("report").unwrap();
    let findings = report.get("findings").and_then(Json::as_array).unwrap();
    assert!(
        findings
            .iter()
            .any(|f| f.get("code").and_then(Json::as_str) == Some(DiagnosticCode::Er012.as_str())),
        "{findings:?}"
    );
    // The live engine survived the rejection.
    assert_eq!(responses[1].get("fixed"), Some(&Json::Int(1)));
    // Widening the scope to cover BJ admits the same candidate.
    let promote = &responses[2];
    assert!(ok(promote), "{promote:?}");
    assert_eq!(num(promote, "version"), 2);
    let summary = promote.get("diff").unwrap();
    assert_eq!(num(summary, "changes"), 1);
    assert_eq!(num(summary, "errors"), 0);
    // Now the narrowed set serves: BJ is out of pattern, nothing fixed.
    assert_eq!(responses[3].get("fixed"), Some(&Json::Int(0)));
    let stats = responses[4].get("stats").unwrap();
    assert_eq!(num(stats, "reloads"), 1);
    assert_eq!(num(stats, "rejected"), 1);
    let by_code = stats.get("rejected_by_code").unwrap();
    assert_eq!(num(by_code, DiagnosticCode::Er012.as_str()), 1);
}

#[test]
fn versions_track_the_promotion_lineage() {
    let task = covid_task();
    let rules = vec![EditingRule::new(vec![(0, 0)], (1, 1), vec![])];
    let engine = RepairEngine::new(&task, rules, 0).unwrap();
    let reload_task = covid_task();
    let narrowed = format!("[{NARROWED_RULE}]");
    let s = Server::new(engine, ServeConfig::default()).with_reloader(Box::new(move || {
        RepairEngine::from_json(&reload_task, &narrowed, 0)
            .map_err(|e| ReloadError::Failed(e.to_string()))
    }));
    let responses = session(
        &s,
        "{\"op\":\"versions\"}\n\
         {\"op\":\"reload\"}\n\
         {\"op\":\"versions\"}\n",
    );
    let store = responses[0].get("store").unwrap();
    assert_eq!(num(store, "head"), 1);
    let versions = store.get("versions").and_then(Json::as_array).unwrap();
    assert_eq!(versions.len(), 1);
    assert_eq!(
        versions[0].get("note").and_then(Json::as_str),
        Some("initial load")
    );
    assert_eq!(versions[0].get("parent"), Some(&Json::Null));
    assert!(ok(&responses[1]), "{responses:?}");
    let store = responses[2].get("store").unwrap();
    assert_eq!(num(store, "head"), 2);
    let versions = store.get("versions").and_then(Json::as_array).unwrap();
    assert_eq!(versions.len(), 2);
    assert_eq!(num(&versions[1], "parent"), 1);
    assert_eq!(
        versions[1].get("parent_hash"),
        versions[0].get("hash"),
        "lineage hashes must chain"
    );
    assert!(
        versions[1]
            .get("note")
            .and_then(Json::as_str)
            .unwrap()
            .contains("1 signature(s) change verdict"),
        "{versions:?}"
    );
}

/// Write `text` to a unique temp file and return its path as a JSON string
/// literal ready to splice into a request line.
fn temp_csv(tag: &str, text: &str) -> (std::path::PathBuf, String) {
    let path = std::env::temp_dir().join(format!("er_serve_{tag}_{}.csv", std::process::id()));
    std::fs::write(&path, text).unwrap();
    let literal = serde_json::to_string(&path.display().to_string()).unwrap();
    (path, literal)
}

#[test]
fn repair_csv_streams_a_server_side_file() {
    let s = server(ServeConfig::default());
    let (path, literal) = temp_csv("stream", "City,Case\nHZ,\nBJ,\n??,\n");
    let responses = session(
        &s,
        &format!("{{\"op\":\"repair_csv\",\"path\":{literal}}}\n{{\"op\":\"stats\"}}\n"),
    );
    std::fs::remove_file(&path).ok();
    let bulk = &responses[0];
    assert!(ok(bulk), "{bulk:?}");
    assert_eq!(bulk.get("op").and_then(Json::as_str), Some("repair_csv"));
    assert_eq!(num(bulk, "rows"), 3);
    assert_eq!(num(bulk, "chunks"), 1);
    // HZ → patient, BJ → imports; ?? has no master support.
    assert_eq!(num(bulk, "fixed"), 2);
    let stats = responses[1].get("stats").unwrap();
    assert_eq!(num(stats, "ingested_rows"), 3);
    assert_eq!(num(stats, "ingest_chunks"), 1);
    assert_eq!(num(stats, "repairs"), 1);
}

#[test]
fn repair_csv_small_chunks_split_the_stream() {
    let s = server(ServeConfig::default());
    // Each record is ~7 bytes; a 8-byte chunk budget forces one row per
    // chunk, exercising the per-chunk commit/deadline path.
    let (path, literal) = temp_csv("chunked", "City,Case\nHZ,\nBJ,\nHZ,\n");
    let responses = session(
        &s,
        &format!(
            "{{\"op\":\"repair_csv\",\"path\":{literal},\"chunk_bytes\":8}}\n{{\"op\":\"stats\"}}\n"
        ),
    );
    std::fs::remove_file(&path).ok();
    let bulk = &responses[0];
    assert!(ok(bulk), "{bulk:?}");
    assert_eq!(num(bulk, "rows"), 3);
    assert!(num(bulk, "chunks") > 1, "{bulk:?}");
    assert_eq!(num(bulk, "fixed"), 3);
    let stats = responses[1].get("stats").unwrap();
    assert_eq!(num(stats, "ingested_rows"), 3);
    assert_eq!(num(stats, "ingest_chunks"), num(&responses[0], "chunks"));
}

#[test]
fn repair_csv_rejects_missing_files_and_foreign_headers() {
    let s = server(ServeConfig::default());
    let (path, literal) = temp_csv("badhdr", "Town,Case\nHZ,\n");
    let responses = session(
        &s,
        &format!(
            "{{\"op\":\"repair_csv\",\"path\":\"/nonexistent/input.csv\"}}\n\
             {{\"op\":\"repair_csv\",\"path\":{literal}}}\n\
             {{\"op\":\"repair_csv\"}}\n\
             {{\"op\":\"stats\"}}\n"
        ),
    );
    std::fs::remove_file(&path).ok();
    assert!(!ok(&responses[0]), "{responses:?}");
    assert!(
        error_of(&responses[0]).contains("cannot open"),
        "{responses:?}"
    );
    // A header that does not match the engine's input schema is a typed
    // ingest error, not a silent misalignment.
    assert!(!ok(&responses[1]), "{responses:?}");
    // Missing path is a parse error.
    assert!(!ok(&responses[2]), "{responses:?}");
    let stats = responses[3].get("stats").unwrap();
    assert_eq!(num(stats, "errors"), 3);
    assert_eq!(num(stats, "ingested_rows"), 0);
}

#[test]
fn disabling_the_gate_lets_a_conflicting_append_through() {
    let task = covid3_task(&[("HZ", "1", "patient"), ("HZ", "2", "patient")]);
    let rules = vec![
        EditingRule::new(vec![(0, 0)], (2, 2), vec![]),
        EditingRule::new(vec![(0, 0), (1, 1)], (2, 2), vec![]),
    ];
    let s = Server::new(
        RepairEngine::new(&task, rules, 0).unwrap(),
        ServeConfig {
            analysis_gate: false,
            ..ServeConfig::default()
        },
    );
    let responses = session(
        &s,
        "{\"op\":\"append\",\"rows\":[[\"HZ\",\"2\",\"flu\"],[\"HZ\",\"2\",\"flu\"]]}\n",
    );
    assert!(ok(&responses[0]), "{responses:?}");
    assert_eq!(num(&responses[0], "appended"), 2);
}

/// Run a scripted session and return the raw response bytes (no parsing):
/// the sharded byte-identity tests compare responses verbatim.
fn session_raw(server: &Server, script: &str) -> String {
    let mut reader = Cursor::new(script.as_bytes().to_vec());
    let mut out: Vec<u8> = Vec::new();
    serve_pipe(server, &mut reader, &mut out).unwrap();
    String::from_utf8(out).unwrap()
}

/// A wider master (seven cities, three rows each plus one 3:1 split) so a
/// four-way partition actually spreads rows across shards.
fn sharded_task() -> Task {
    let pool = Arc::new(Pool::new());
    let schema = |name: &str| {
        Arc::new(Schema::new(
            name,
            vec![
                Attribute::categorical("City"),
                Attribute::categorical("Case"),
            ],
        ))
    };
    let s = |v: &str| Value::str(v);
    let mut bm = RelationBuilder::new(schema("m"), Arc::clone(&pool));
    for city in 0..7 {
        for _ in 0..3 {
            bm.push_row(vec![s(&format!("C{city}")), s(&format!("case{city}"))])
                .unwrap();
        }
    }
    bm.push_row(vec![s("C5"), s("case0")]).unwrap();
    let master = bm.finish();
    let mut bi = RelationBuilder::new(schema("in"), pool);
    bi.push_row(vec![s("C0"), Value::Null]).unwrap();
    let input = bi.finish();
    Task::new(
        input,
        master,
        SchemaMatch::from_pairs(2, &[(0, 0), (1, 1)]),
        (1, 1),
    )
}

#[test]
fn sharded_servers_answer_byte_identically_over_the_protocol() {
    // The same scripted session — repairs (including a NULL routing key
    // that broadcasts), an append, and a repair over the grown master —
    // must produce byte-identical responses whether the engine runs
    // unsharded or over four shards.
    let task = sharded_task();
    let rules = vec![EditingRule::new(vec![(0, 0)], (1, 1), vec![])];
    let script =
        "{\"op\":\"repair\",\"rows\":[[\"C0\",null],[\"C5\",null],[null,null],[\"C6\",null]]}\n\
                  {\"op\":\"append\",\"rows\":[[\"C5\",\"case5\"],[\"C5\",\"case5\"]]}\n\
                  {\"op\":\"repair\",\"rows\":[[\"C5\",null],[null,null]]}\n";
    let answers: Vec<String> = [1usize, 4]
        .iter()
        .map(|&shards| {
            let engine = RepairEngine::with_shards(&task, rules.clone(), 0, shards).unwrap();
            assert_eq!(engine.shards(), shards);
            let server = Server::new(engine, ServeConfig::default());
            session_raw(&server, script)
        })
        .collect();
    assert!(
        answers[0].contains("\"ok\":true"),
        "the reference session must succeed: {}",
        answers[0]
    );
    assert_eq!(
        answers[0], answers[1],
        "four shards must answer byte-identically to one"
    );
}

#[test]
fn stats_report_shard_routing_counters() {
    let task = sharded_task();
    let rules = vec![EditingRule::new(vec![(0, 0)], (1, 1), vec![])];
    let engine = RepairEngine::with_shards(&task, rules, 0, 4).unwrap();
    let server = Server::new(engine, ServeConfig::default());
    let responses = session(
        &server,
        "{\"op\":\"repair\",\"rows\":[[\"C0\",null],[null,null]]}\n{\"op\":\"stats\"}\n",
    );
    assert!(ok(&responses[0]), "{responses:?}");
    let stats = responses[1].get("stats").unwrap();
    assert_eq!(num(stats, "shards"), 4);
    assert_eq!(num(stats, "shard_routed"), 1, "one row had a routable key");
    assert_eq!(num(stats, "shard_broadcast"), 1, "the NULL key broadcasts");
    assert!(
        float(stats, "shard_imbalance") >= 1.0,
        "imbalance is a max/mean ratio: {stats:?}"
    );
}

#[test]
fn stats_pool_values_grow_by_the_novel_values_a_repair_interns() {
    // Every repair interns the values it has not seen into the engine's
    // shared pool for good: three novel values (Atlantis, sunk, lost) grow
    // it by three, and repeating them grows it by nothing.
    let s = server(ServeConfig::default());
    let repair = "{\"op\":\"repair\",\"rows\":[[\"Atlantis\",\"sunk\"],[\"Atlantis\",null],[\"HZ\",\"lost\"]]}";
    let responses = session(
        &s,
        &format!("{{\"op\":\"stats\"}}\n{repair}\n{{\"op\":\"stats\"}}\n{repair}\n{{\"op\":\"stats\"}}\n"),
    );
    let pool_values = |i: usize| num(responses[i].get("stats").unwrap(), "pool_values");
    assert!(ok(&responses[1]), "{responses:?}");
    assert_eq!(pool_values(0), 4, "HZ, BJ, patient and imports");
    assert_eq!(pool_values(2), pool_values(0) + 3);
    assert_eq!(pool_values(4), pool_values(2));
}

/// A task whose input carries a continuous attribute (Age), for the
/// unparsable-numeric `repair_csv` case.
fn age_task() -> Task {
    let pool = Arc::new(Pool::new());
    let schema = |name: &str, y: &str| {
        Arc::new(Schema::new(
            name,
            vec![
                Attribute::categorical("City"),
                Attribute::continuous("Age"),
                Attribute::categorical(y),
            ],
        ))
    };
    let s = Value::str;
    let mut bm = RelationBuilder::new(schema("m", "Infection"), Arc::clone(&pool));
    bm.push_row(vec![s("HZ"), Value::int(30), s("patient")])
        .unwrap();
    bm.push_row(vec![s("BJ"), Value::int(41), s("imports")])
        .unwrap();
    let master = bm.finish();
    let mut bi = RelationBuilder::new(schema("in", "Case"), pool);
    bi.push_row(vec![s("HZ"), Value::Null, Value::Null])
        .unwrap();
    let input = bi.finish();
    Task::new(
        input,
        master,
        SchemaMatch::from_pairs(3, &[(0, 0), (1, 1), (2, 2)]),
        (2, 2),
    )
}

/// `repair_csv` over `text` in a fresh session, at the default chunking and
/// at an 8-byte chunk budget: each answer line verbatim, followed by the
/// `stats` counters the op moves.
fn repair_csv_answers(task: &Task, config: &ServeConfig, tag: &str, text: &[u8]) -> Vec<String> {
    let path = std::env::temp_dir().join(format!("er_serve_pin_{tag}_{}.csv", std::process::id()));
    std::fs::write(&path, text).unwrap();
    let literal = serde_json::to_string(&path.display().to_string()).unwrap();
    let rules = vec![EditingRule::new(vec![(0, 0)], task.target(), vec![])];
    let mut answers = Vec::new();
    for chunk in ["", ",\"chunk_bytes\":8"] {
        let server = Server::new(
            RepairEngine::new(task, rules.clone(), 0).unwrap(),
            config.clone(),
        );
        let raw = session_raw(
            &server,
            &format!("{{\"op\":\"repair_csv\",\"path\":{literal}{chunk}}}\n{{\"op\":\"stats\"}}\n"),
        );
        let mut lines = raw.lines();
        answers.push(lines.next().unwrap().to_string());
        let stats: Json = serde_json::from_str(lines.next().unwrap()).unwrap();
        let stats = stats.get("stats").unwrap();
        answers.push(format!(
            "repairs={} ingest_chunks={} ingested_rows={} errors={}",
            num(stats, "repairs"),
            num(stats, "ingest_chunks"),
            num(stats, "ingested_rows"),
            num(stats, "errors"),
        ));
    }
    std::fs::remove_file(&path).ok();
    answers
}

#[test]
fn repair_csv_answers_are_pinned() {
    let mut oversized = b"City,Case\nHZ,\n".to_vec();
    oversized.extend(std::iter::repeat_n(b'x', (1 << 20) + 16));
    oversized.extend_from_slice(b",\n");
    let cases: Vec<(&str, Vec<u8>)> = vec![
        ("bad_utf8", b"City,Case\nHZ,xxxxxx\nM\xFC,\n".to_vec()),
        ("unterminated", b"City,Case\nHZ,\n\"oops,\n".to_vec()),
        ("stray_quote", b"City,Case\nHZ,\na\"b\",\n".to_vec()),
        (
            "escapes",
            b"City,Case\n\"H\"\"Z\",\nHZ,\"x\"\"\"\n".to_vec(),
        ),
        (
            "quoted_then_plain",
            b"City,Case\n\"H\"Z,\n\"B\"J,\n".to_vec(),
        ),
        ("arity", b"City,Case\nHZ,xxxxxx\nBJ\nHZ,\n".to_vec()),
        ("oversized", oversized),
        ("cr_only", b"City,Case\rHZ,\rBJ,\r".to_vec()),
        ("crlf", b"City,Case\r\nHZ,\r\nBJ,\r\n".to_vec()),
        ("blanks", b"City,Case\n  ,\n HZ ,  \nBJ,\t\n".to_vec()),
    ];
    let mut got = Vec::new();
    for (tag, text) in &cases {
        got.push(format!("# {tag}"));
        got.extend(repair_csv_answers(
            &covid_task(),
            &ServeConfig::default(),
            tag,
            text,
        ));
    }
    got.push("# continuous".to_string());
    got.extend(repair_csv_answers(
        &age_task(),
        &ServeConfig::default(),
        "continuous",
        b"City,Age,Case\nHZ,abc,\nBJ, 41 ,\nHZ,4.5x,\n",
    ));
    got.push("# zero_deadline".to_string());
    got.extend(repair_csv_answers(
        &covid_task(),
        &ServeConfig {
            deadline: Some(std::time::Duration::ZERO),
            ..ServeConfig::default()
        },
        "zero_deadline",
        b"City,Case\nHZ,\nBJ,\n",
    ));
    assert_eq!(got, PINNED_REPAIR_CSV);
}

/// The `repair_csv` answers of the row-by-row Value ingest path, recorded
/// before the straight-to-codes path replaced it: each case's answer and
/// counters at the default chunking, then at `chunk_bytes` 8. One answer
/// was later corrected: the oversized record at the default chunking was
/// first pinned as `ok`, because a record that ended inside the buffered
/// bytes skipped the `max_record_bytes` cap; it now fails at both chunkings.
const PINNED_REPAIR_CSV: &[&str] = &[
    r#"# bad_utf8"#,
    r#"{"ok":false,"error":"repair_csv: record 3: invalid UTF-8"}"#,
    r#"repairs=0 ingest_chunks=0 ingested_rows=0 errors=1"#,
    r#"{"ok":false,"error":"repair_csv: record 3: invalid UTF-8"}"#,
    r#"repairs=1 ingest_chunks=0 ingested_rows=0 errors=1"#,
    r#"# unterminated"#,
    r#"{"ok":false,"error":"repair_csv: record 3: input truncated inside a quoted field"}"#,
    r#"repairs=0 ingest_chunks=0 ingested_rows=0 errors=1"#,
    r#"{"ok":false,"error":"repair_csv: record 3: input truncated inside a quoted field"}"#,
    r#"repairs=0 ingest_chunks=0 ingested_rows=0 errors=1"#,
    r#"# stray_quote"#,
    r#"{"ok":false,"error":"repair_csv: record 3: quote inside unquoted field"}"#,
    r#"repairs=0 ingest_chunks=0 ingested_rows=0 errors=1"#,
    r#"{"ok":false,"error":"repair_csv: record 3: quote inside unquoted field"}"#,
    r#"repairs=0 ingest_chunks=0 ingested_rows=0 errors=1"#,
    r#"# escapes"#,
    r#"{"ok":true,"op":"repair_csv","rows":2,"chunks":1,"fixed":1}"#,
    r#"repairs=1 ingest_chunks=1 ingested_rows=2 errors=0"#,
    r#"{"ok":true,"op":"repair_csv","rows":2,"chunks":3,"fixed":1}"#,
    r#"repairs=2 ingest_chunks=3 ingested_rows=2 errors=0"#,
    r#"# quoted_then_plain"#,
    r#"{"ok":true,"op":"repair_csv","rows":2,"chunks":1,"fixed":2}"#,
    r#"repairs=1 ingest_chunks=1 ingested_rows=2 errors=0"#,
    r#"{"ok":true,"op":"repair_csv","rows":2,"chunks":2,"fixed":2}"#,
    r#"repairs=1 ingest_chunks=2 ingested_rows=2 errors=0"#,
    r#"# arity"#,
    r#"{"ok":false,"error":"repair_csv: record 3: has 1 fields, expected 2"}"#,
    r#"repairs=0 ingest_chunks=0 ingested_rows=0 errors=1"#,
    r#"{"ok":false,"error":"repair_csv: record 3: has 1 fields, expected 2"}"#,
    r#"repairs=1 ingest_chunks=0 ingested_rows=0 errors=1"#,
    r#"# oversized"#,
    r#"{"ok":false,"error":"repair_csv: record 3: no terminator within 1048576 bytes"}"#,
    r#"repairs=0 ingest_chunks=0 ingested_rows=0 errors=1"#,
    r#"{"ok":false,"error":"repair_csv: record 3: no terminator within 1048576 bytes"}"#,
    r#"repairs=0 ingest_chunks=0 ingested_rows=0 errors=1"#,
    r#"# cr_only"#,
    r#"{"ok":true,"op":"repair_csv","rows":2,"chunks":1,"fixed":2}"#,
    r#"repairs=1 ingest_chunks=1 ingested_rows=2 errors=0"#,
    r#"{"ok":true,"op":"repair_csv","rows":2,"chunks":2,"fixed":2}"#,
    r#"repairs=1 ingest_chunks=2 ingested_rows=2 errors=0"#,
    r#"# crlf"#,
    r#"{"ok":true,"op":"repair_csv","rows":2,"chunks":1,"fixed":2}"#,
    r#"repairs=1 ingest_chunks=1 ingested_rows=2 errors=0"#,
    r#"{"ok":true,"op":"repair_csv","rows":2,"chunks":2,"fixed":2}"#,
    r#"repairs=1 ingest_chunks=2 ingested_rows=2 errors=0"#,
    r#"# blanks"#,
    r#"{"ok":true,"op":"repair_csv","rows":3,"chunks":1,"fixed":2}"#,
    r#"repairs=1 ingest_chunks=1 ingested_rows=3 errors=0"#,
    r#"{"ok":true,"op":"repair_csv","rows":3,"chunks":3,"fixed":2}"#,
    r#"repairs=2 ingest_chunks=3 ingested_rows=3 errors=0"#,
    r#"# continuous"#,
    r#"{"ok":true,"op":"repair_csv","rows":3,"chunks":1,"fixed":3}"#,
    r#"repairs=1 ingest_chunks=1 ingested_rows=3 errors=0"#,
    r#"{"ok":true,"op":"repair_csv","rows":3,"chunks":4,"fixed":3}"#,
    r#"repairs=3 ingest_chunks=4 ingested_rows=3 errors=0"#,
    r#"# zero_deadline"#,
    r#"{"ok":false,"error":"repair_csv: batch repair failed: deadline exceeded"}"#,
    r#"repairs=0 ingest_chunks=0 ingested_rows=0 errors=1"#,
    r#"{"ok":false,"error":"repair_csv: batch repair failed: deadline exceeded"}"#,
    r#"repairs=0 ingest_chunks=0 ingested_rows=0 errors=1"#,
];
