//! Socket-mode tests: concurrent clients receive exactly the answers the
//! single-threaded repair path computes, a socket frames bytes exactly as
//! the pipe does, backpressure refuses excess connections, and the drain
//! answers every request it has started.

// Test code: a panic is the failure report; fixture helpers sit outside
// any #[test] fn, so the clippy.toml test exemption does not reach them.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use er_rules::{apply_rules, EditingRule, SchemaMatch, Task};
use er_serve::{serve_pipe, RepairEngine, ServeConfig, Server, TcpServer};
use er_table::{Attribute, Pool, RelationBuilder, Schema, Value};
use serde_json::Value as Json;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::Arc;

/// Cities 0..6 map to one area code each in the master, except city "C5"
/// which is split 3:1 — the vote must resolve it the same way everywhere.
fn fixture() -> (Task, Vec<Vec<Value>>) {
    let pool = Arc::new(Pool::new());
    let schema = |name: &str| {
        Arc::new(Schema::new(
            name,
            vec![Attribute::categorical("City"), Attribute::categorical("AC")],
        ))
    };
    let mut bm = RelationBuilder::new(schema("m"), Arc::clone(&pool));
    for city in 0..6 {
        for _ in 0..3 {
            bm.push_row(vec![
                Value::str(format!("C{city}")),
                Value::str(format!("ac{city}")),
            ])
            .unwrap();
        }
    }
    bm.push_row(vec![Value::str("C5"), Value::str("ac0")])
        .unwrap();
    let master = bm.finish();

    let batch: Vec<Vec<Value>> = (0..8)
        .map(|i| vec![Value::str(format!("C{}", i % 7)), Value::Null])
        .collect();
    let mut bi = RelationBuilder::new(schema("in"), pool);
    for row in &batch {
        bi.push_row(row.clone()).unwrap();
    }
    let input = bi.finish();
    let task = Task::new(
        input,
        master,
        SchemaMatch::from_pairs(2, &[(0, 0), (1, 1)]),
        (1, 1),
    );
    (task, batch)
}

fn rules() -> Vec<EditingRule> {
    vec![EditingRule::new(vec![(0, 0)], (1, 1), vec![])]
}

fn start(config: ServeConfig) -> (Arc<Server>, TcpServer, Vec<Vec<Value>>, String) {
    let (task, batch) = fixture();
    // The reference answer comes from the one-shot single-threaded path.
    let reference = apply_rules(&task, &rules());
    let pool = task.input().pool();
    let expected_cells: Vec<Json> = reference
        .predictions
        .iter()
        .enumerate()
        .filter_map(|(row, pred)| {
            pred.filter(|&code| code != task.input().code(row, 1))
                .map(|code| {
                    Json::Object(vec![
                        ("row".to_string(), Json::Int(row as i64)),
                        ("attr".to_string(), Json::Str("AC".into())),
                        (
                            "value".to_string(),
                            Json::Str(pool.value(code).render().into_owned()),
                        ),
                        ("score".to_string(), Json::Float(reference.scores[row])),
                    ])
                })
        })
        .collect();
    let expected = serde_json::to_string(&Json::Array(expected_cells)).unwrap();

    let engine = RepairEngine::new(&task, rules(), 0).unwrap();
    let server = Arc::new(Server::new(engine, config));
    let tcp = TcpServer::bind(Arc::clone(&server), "127.0.0.1:0").unwrap();
    (server, tcp, batch, expected)
}

fn batch_request(batch: &[Vec<Value>]) -> String {
    let rows: Vec<Json> = batch
        .iter()
        .map(|row| {
            Json::Array(
                row.iter()
                    .map(|v| match v {
                        Value::Null => Json::Null,
                        other => Json::Str(other.render().into_owned()),
                    })
                    .collect(),
            )
        })
        .collect();
    serde_json::to_string(&Json::Object(vec![
        ("op".to_string(), Json::Str("repair".into())),
        ("rows".to_string(), Json::Array(rows)),
    ]))
    .unwrap()
}

#[test]
fn concurrent_clients_match_the_single_threaded_repair() {
    let (_server, tcp, batch, expected) = start(ServeConfig {
        workers: 4,
        ..ServeConfig::default()
    });
    let addr = tcp.local_addr();
    let request = batch_request(&batch);

    let clients: Vec<_> = (0..6)
        .map(|_| {
            let request = request.clone();
            let expected = expected.clone();
            std::thread::spawn(move || {
                let stream = TcpStream::connect(addr).unwrap();
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let mut writer = stream;
                for _ in 0..5 {
                    writeln!(writer, "{request}").unwrap();
                    let mut line = String::new();
                    reader.read_line(&mut line).unwrap();
                    let response: Json = serde_json::from_str(&line).unwrap();
                    assert_eq!(response.get("ok"), Some(&Json::Bool(true)), "{line}");
                    let cells = response.get("cells").unwrap();
                    assert_eq!(
                        serde_json::to_string(cells).unwrap(),
                        expected,
                        "served cells must match the one-shot apply_rules answer"
                    );
                }
            })
        })
        .collect();
    for c in clients {
        c.join().unwrap();
    }

    // Drain via the protocol and wait for every thread.
    let stream = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    writeln!(writer, "{{\"op\":\"shutdown\"}}").unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let response: Json = serde_json::from_str(&line).unwrap();
    assert_eq!(response.get("ok"), Some(&Json::Bool(true)));
    tcp.join();
}

#[test]
fn shutdown_answers_before_closing_and_join_returns() {
    let (server, tcp, batch, _) = start(ServeConfig::default());
    let addr = tcp.local_addr();

    let stream = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    // A real request first, then shutdown on the same connection.
    writeln!(writer, "{}", batch_request(&batch)).unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("\"ok\":true"), "{line}");
    writeln!(writer, "{{\"op\":\"shutdown\"}}").unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert!(
        line.contains("\"shutdown\""),
        "the shutdown op must be acknowledged before the close: {line}"
    );
    tcp.join();
    assert!(server.is_draining());
    // The connection is closed after the drain: the next read returns EOF.
    line.clear();
    assert_eq!(reader.read_line(&mut line).unwrap(), 0);
}

#[test]
fn external_shutdown_unblocks_idle_connections() {
    let (_server, tcp, _batch, _) = start(ServeConfig::default());
    let addr = tcp.local_addr();
    // An idle client parks a worker in read; shutdown() must unblock it.
    let idle = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(idle.try_clone().unwrap());
    // Give the worker a moment to pick the connection up.
    std::thread::sleep(std::time::Duration::from_millis(50));
    tcp.shutdown();
    tcp.join();
    let mut line = String::new();
    assert_eq!(reader.read_line(&mut line).unwrap(), 0, "idle conn closed");
}

#[test]
fn stats_reads_stay_monotone_under_concurrent_mutation() {
    // One connection appends, one repairs, and a third polls `stats` the
    // whole time: every counter must move monotonically and no read may be
    // torn (the served generation can never exceed base + appended rows).
    const MUTATIONS: u64 = 25;
    let (server, tcp, batch, _) = start(ServeConfig {
        workers: 4,
        ..ServeConfig::default()
    });
    let addr = tcp.local_addr();
    let base_generation = server.snapshot().engine_generation;

    let appender = std::thread::spawn(move || {
        let stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        for _ in 0..MUTATIONS {
            writeln!(writer, "{{\"op\":\"append\",\"rows\":[[\"C0\",\"ac0\"]]}}").unwrap();
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert!(line.contains("\"ok\":true"), "{line}");
        }
    });
    let repairer = {
        let request = batch_request(&batch);
        std::thread::spawn(move || {
            let stream = TcpStream::connect(addr).unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut writer = stream;
            for _ in 0..MUTATIONS {
                writeln!(writer, "{request}").unwrap();
                let mut line = String::new();
                reader.read_line(&mut line).unwrap();
                assert!(line.contains("\"ok\":true"), "{line}");
            }
        })
    };

    let stream = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let read_stats = |writer: &mut TcpStream, reader: &mut BufReader<TcpStream>| {
        writeln!(writer, "{{\"op\":\"stats\"}}").unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let response: Json = serde_json::from_str(&line).unwrap();
        let stats = response.get("stats").cloned().unwrap();
        let field = |name: &str| match stats.get(name) {
            Some(Json::Int(i)) => *i as u64,
            Some(Json::UInt(u)) => *u,
            other => panic!("stats field {name} is not a number: {other:?}"),
        };
        (
            field("appends"),
            field("repairs"),
            field("engine_generation"),
            field("requests"),
        )
    };
    let mut prev = read_stats(&mut writer, &mut reader);
    while !(appender.is_finished() && repairer.is_finished()) {
        let next = read_stats(&mut writer, &mut reader);
        assert!(
            next.0 >= prev.0 && next.1 >= prev.1 && next.2 >= prev.2 && next.3 >= prev.3,
            "counters went backwards: {prev:?} -> {next:?}"
        );
        // Each append commits exactly one row, and the generation gauge is
        // only advanced after the append counter: a generation observed now
        // can never exceed base + the append count observed later.
        assert!(
            prev.2 <= base_generation + next.0,
            "torn read: generation {} with appends {} (base {base_generation})",
            prev.2,
            next.0,
        );
        prev = next;
    }
    appender.join().unwrap();
    repairer.join().unwrap();

    let last = read_stats(&mut writer, &mut reader);
    assert_eq!(last.0, MUTATIONS, "every append acknowledged is counted");
    assert_eq!(last.1, MUTATIONS, "every repair acknowledged is counted");
    assert_eq!(
        last.2,
        base_generation + MUTATIONS,
        "one generation step per appended row"
    );
    tcp.shutdown();
    tcp.join();
}

#[test]
fn repair_csv_yields_its_slot_to_interactive_repairs_between_chunks() {
    // With a single backpressure slot, a long bulk repair must not starve
    // interactive clients: the slot is released between chunks, so a
    // `repair` issued mid-file succeeds instead of bouncing `overloaded`
    // until the file completes. `ingested_rows` is only published once the
    // stream finishes, so a success observed while it is still zero proves
    // the interleaving.
    const FIFO_ROWS: usize = 200;
    let (server, tcp, batch, _) = start(ServeConfig {
        workers: 2,
        queue_capacity: 1,
        ..ServeConfig::default()
    });
    let addr = tcp.local_addr();

    // A FIFO makes the chunk source genuinely slow: `next_batch` blocks on
    // the pipe while the writer dribbles rows, and the slot must be free
    // during those waits.
    let path = std::env::temp_dir().join(format!("er_serve_slow_csv_{}.fifo", std::process::id()));
    std::fs::remove_file(&path).ok();
    let status = std::process::Command::new("mkfifo")
        .arg(&path)
        .status()
        .expect("mkfifo must be runnable");
    assert!(status.success(), "mkfifo failed");
    let literal = serde_json::to_string(&path.display().to_string()).unwrap();

    let feeder = {
        let path = path.clone();
        std::thread::spawn(move || {
            // Opens once the server opens the read side.
            let mut fifo = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
            fifo.write_all(b"City,AC\n").unwrap();
            for _ in 0..FIFO_ROWS {
                fifo.write_all(b"C0,\n").unwrap();
                fifo.flush().unwrap();
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        })
    };
    let bulk = {
        let request = format!("{{\"op\":\"repair_csv\",\"path\":{literal},\"chunk_bytes\":8}}");
        std::thread::spawn(move || {
            let stream = TcpStream::connect(addr).unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut writer = stream;
            writeln!(writer, "{request}").unwrap();
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            line
        })
    };

    // Wait until the bulk repair is demonstrably mid-file (chunk repairs
    // tick the `repairs` counter; the test has sent none of its own yet).
    while server.snapshot().repairs < 5 {
        std::thread::sleep(std::time::Duration::from_micros(200));
    }
    let stream = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let request = batch_request(&batch[..1]);
    let mut served_mid_file = false;
    for _ in 0..200_000 {
        writeln!(writer, "{request}").unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        if line.contains("\"ok\":true") {
            served_mid_file = server.snapshot().ingested_rows == 0;
            break;
        }
        assert!(line.contains("overloaded"), "{line}");
        std::thread::sleep(std::time::Duration::from_micros(200));
    }
    assert!(
        served_mid_file,
        "an interactive repair must be served while the csv stream is still running"
    );

    feeder.join().unwrap();
    let bulk_response = bulk.join().unwrap();
    std::fs::remove_file(&path).ok();
    assert!(bulk_response.contains("\"ok\":true"), "{bulk_response}");
    assert!(
        bulk_response.contains(&format!("\"rows\":{FIFO_ROWS}")),
        "{bulk_response}"
    );
    tcp.shutdown();
    tcp.join();
}

#[test]
fn full_accept_queue_is_refused_with_backpressure() {
    // One worker and a tiny queue: with the worker parked on an idle
    // connection and the queue full, the next connection is refused.
    let (server, tcp, _batch, _) = start(ServeConfig {
        workers: 1,
        queue_capacity: 1,
        ..ServeConfig::default()
    });
    let addr = tcp.local_addr();
    let _busy = TcpStream::connect(addr).unwrap(); // picked up by the worker
    std::thread::sleep(std::time::Duration::from_millis(50));
    let _queued = TcpStream::connect(addr).unwrap(); // fills the queue
    std::thread::sleep(std::time::Duration::from_millis(50));
    let refused = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(refused);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let response: Json = serde_json::from_str(&line).unwrap();
    assert_eq!(
        response.get("error").and_then(Json::as_str),
        Some("overloaded")
    );
    assert_eq!(response.get("retry"), Some(&Json::Bool(true)));
    assert!(server.snapshot().overloaded >= 1);
    tcp.shutdown();
    tcp.join();
}

/// A panic inside request handling is caught at the request boundary: the
/// client gets an internal-error line, the error and the panic are
/// counted, and the connection's thread survives to answer the next request
/// on the same connection.
#[test]
fn panicking_reload_answers_an_error_and_the_connection_keeps_serving() {
    let (task, batch) = fixture();
    let engine = RepairEngine::new(&task, rules(), 0).unwrap();
    let config = ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    };
    let server = Arc::new(
        Server::new(engine, config).with_reloader(Box::new(|| panic!("reloader exploded"))),
    );
    let tcp = TcpServer::bind(Arc::clone(&server), "127.0.0.1:0").unwrap();
    let stream = TcpStream::connect(tcp.local_addr()).unwrap();
    // A dead connection thread would leave the reply pending forever: fail
    // instead.
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let mut ask = |request: &str| -> Json {
        writeln!(writer, "{request}").unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        serde_json::from_str(&line).unwrap()
    };

    let reload = ask("{\"op\":\"reload\"}");
    assert_eq!(reload.get("ok"), Some(&Json::Bool(false)), "{reload:?}");
    assert_eq!(
        reload.get("internal"),
        Some(&Json::Bool(true)),
        "{reload:?}"
    );
    let message = reload.get("error").and_then(Json::as_str).unwrap();
    assert!(message.contains("reloader exploded"), "{message}");

    let ping = ask("{\"op\":\"ping\"}");
    assert_eq!(ping.get("ok"), Some(&Json::Bool(true)), "{ping:?}");
    let repair = ask(&batch_request(&batch));
    assert_eq!(repair.get("ok"), Some(&Json::Bool(true)), "{repair:?}");
    let stats = ask("{\"op\":\"stats\"}");
    let stats = stats.get("stats").unwrap();
    let num = |key: &str| match stats.get(key) {
        Some(Json::Int(i)) => *i,
        Some(Json::UInt(u)) => *u as i64,
        other => panic!("{key}: {other:?}"),
    };
    assert_eq!(num("errors"), 1);
    assert_eq!(num("panics"), 1);
    assert_eq!(num("connections"), 1, "this connection's thread is live");
    assert_eq!(num("queue_depth"), 0);

    ask("{\"op\":\"shutdown\"}");
    tcp.join();
}

/// The socket frames a byte stream exactly as the pipe does: pipelined
/// requests, a blank line, an oversized line, invalid UTF-8, malformed
/// JSON and an unterminated final request, sent in one write and followed
/// by a half-close, get the same answer bytes as `serve_pipe` over the same
/// bytes, and the socket closes after the last answer.
#[test]
fn socket_answers_equal_pipe_answers_on_the_same_bytes() {
    let config = || ServeConfig {
        max_line_bytes: 256,
        ..ServeConfig::default()
    };
    let (_server, tcp, batch, _) = start(config());
    let repair = batch_request(&batch);
    assert!(repair.len() <= 256, "the repair line must fit the limit");
    let mut script = Vec::new();
    for line in [
        "{\"op\":\"ping\"}",
        &repair,
        "{\"op\":\"ping\"}",
        &repair,
        "",
        &"x".repeat(300),
        "{\"op\":\"ping\"}",
    ] {
        script.extend_from_slice(line.as_bytes());
        script.push(b'\n');
    }
    script.extend_from_slice(b"{\"op\":\"M\xFCnchen\"}\n");
    script.extend_from_slice(b"{\"op\":\"repair\",\"rows\":[\n");
    script.extend_from_slice(repair.as_bytes());

    let (task, _) = fixture();
    let pipe_server = Server::new(RepairEngine::new(&task, rules(), 0).unwrap(), config());
    let mut piped = Vec::new();
    serve_pipe(&pipe_server, &mut script.as_slice(), &mut piped).unwrap();
    assert_eq!(
        piped.iter().filter(|&&b| b == b'\n').count(),
        9,
        "every non-blank line is answered: {}",
        String::from_utf8_lossy(&piped)
    );

    let mut stream = TcpStream::connect(tcp.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .unwrap();
    stream.write_all(&script).unwrap();
    stream.shutdown(Shutdown::Write).unwrap();
    let mut socketed = Vec::new();
    // read_to_end returns only once the server closes the connection.
    stream.read_to_end(&mut socketed).unwrap();
    // Answers are JSON, so UTF-8: compare bytes, print text.
    assert_eq!(
        String::from_utf8(socketed).unwrap(),
        String::from_utf8(piped).unwrap()
    );
    tcp.shutdown();
    tcp.join();
}

/// A drain completes even while a peer keeps streaming one endless line:
/// once draining, the connection's reads end, so its thread closes instead
/// of consuming the stream for ever.
#[test]
fn drain_completes_while_a_peer_keeps_sending() {
    let (_server, tcp, _batch, _) = start(ServeConfig::default());
    let mut stream = TcpStream::connect(tcp.local_addr()).unwrap();
    let sender = std::thread::spawn(move || {
        let chunk = [b'x'; 4096];
        // Runs until the server closes the connection.
        while stream.write_all(&chunk).is_ok() {}
    });
    tcp.shutdown();
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        tcp.join();
        done_tx.send(()).unwrap();
    });
    assert!(
        done_rx
            .recv_timeout(std::time::Duration::from_secs(20))
            .is_ok(),
        "join must return while the peer is still sending"
    );
    sender.join().unwrap();
}
