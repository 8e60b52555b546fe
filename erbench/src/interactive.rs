//! `serve-interactive`: an open loop of `repair` requests over TCP against
//! a two-shard engine whose Covid master outgrows L2.
//!
//! Requests carry a seeded mix of 1 to 64 rows and are due at a fixed rate.
//! The generator sends each on schedule whatever the replies do and times
//! it from its due time. Every response must be byte-identical to the
//! answer an unsharded engine gives in process, and so must a pipe replay
//! of the requests against the served engine.

use crate::common::{self, Counts};
use crate::metrics::Outcome;
use crate::stats;
use crate::trace::Tracer;
use er_datagen::Scenario;
use er_rules::{BatchRepairer, EditingRule};
use er_serve::{parse_request, proto, serve_pipe, RepairEngine, RowBatch, Server, TcpServer};
use er_shard::ShardedEngine;
use er_table::{Relation, Value};
use serde_json::Value as Json;
use std::io::{BufRead, BufReader, Cursor, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Master rows: large enough that the group indexes outgrow L2 and the
/// engine build is a real set-up cost.
pub const MASTER_ROWS: usize = 200_000;
/// Input rows the requests cycle through.
const INPUT_ROWS: usize = 20_000;
/// Master partitions of the served engine.
pub const SHARDS: usize = 2;
/// Largest request batch.
const MAX_BATCH: usize = 64;
/// Offered load, requests per second: 30% of the closed-loop capacity
/// `--capacity` measured at the seed commit on the 2-vCPU reference host
/// (about 1490 requests/s over 2 connections). At 40% (600/s), two runs in
/// a ten-seed set backed up for seconds when the shared host slowed (p50
/// 286 ms in one); the queue drains at capacity minus this rate.
pub const RATE_PER_S: f64 = 450.0;
/// Latency limit per request, from its due time: about 1.5 times the p90
/// measured at 600/s (1.6 to 2.2 ms over the host's phases), so the share
/// within it sits just below 1.
pub const LIMIT_US: f64 = 3_000.0;
/// The tail percentile. On a shared 2-vCPU host the window p99 of this
/// open loop varied by half its median from run to run, beyond any bound
/// the benchmark may set, so the tail is taken at p90; p99 is printed.
const TAIL_P: f64 = 90.0;
/// Length of the windows the tail is taken over.
const WINDOW_S: f64 = 3.0;
/// Distinct requests; the stream cycles through them. The answer key then
/// has the same size whatever the run length, and it is built before the
/// peak-RSS mark is reset, so the benchmark's own buffers stay out of
/// `peak_rss_mib`. The traced run replays each through every layer.
const DISTINCT_REQUESTS: usize = 6_000;
/// A send later than this after its due time counts as late.
const LATE_US: f64 = 1_000.0;
/// Engine builds per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Requests replayed closed-loop over the socket before timing.
const WARMUP: usize = 200;
/// How long the generator waits for replies after its last send.
const DRAIN: Duration = Duration::from_secs(2);

/// SplitMix64: the batch-size stream.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Log-uniform batch size in `1..=MAX_BATCH`. No measured caller mix
    /// exists for this server, so every doubling range of sizes (1, 2-3,
    /// 4-7, ..., 32-64 rows) gets the same share: single-row lookups and
    /// full 64-row pages both occur in every window. The mean is 15 rows.
    fn batch(&mut self) -> usize {
        let u = (self.next() >> 11) as f64 / (1u64 << 53) as f64;
        ((MAX_BATCH as f64 + 1.0).powf(u) as usize).clamp(1, MAX_BATCH)
    }
}

fn cell(value: &Value) -> Json {
    match value {
        Value::Null => Json::Null,
        Value::Int(i) => Json::Int(*i),
        Value::Float(f) => Json::Float(*f),
        Value::Str(s) => Json::Str(s.to_string()),
    }
}

/// `count` pre-rendered repair request lines cycling through the input rows.
fn render_requests(input: &Relation, count: usize, seed: u64) -> Vec<String> {
    let mut mix = Mix(seed);
    let mut next_row = 0usize;
    (0..count)
        .map(|_| {
            let cells: Vec<Json> = (0..mix.batch())
                .map(|_| {
                    let row = next_row;
                    next_row = (next_row + 1) % input.num_rows();
                    Json::Array(input.row_values(row).iter().map(cell).collect())
                })
                .collect();
            serde_json::to_string(&Json::Object(vec![
                ("op".to_string(), Json::Str("repair".into())),
                ("rows".to_string(), Json::Array(cells)),
            ]))
            .unwrap_or_default()
        })
        .collect()
}

/// A writer that compares what it is given with `expected`, storing
/// nothing.
struct Compare<'a> {
    expected: &'a [u8],
    equal: bool,
}

impl Write for Compare<'_> {
    fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
        let n = bytes.len().min(self.expected.len());
        self.equal &= n == bytes.len() && bytes == &self.expected[..n];
        self.expected = &self.expected[n..];
        Ok(bytes.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Whether a pipe replay of `requests` answers exactly `expected`, line by
/// line.
fn pipe_replay_matches(
    server: &Server,
    requests: &[String],
    expected: &[String],
) -> Result<bool, String> {
    let script: String = requests.iter().map(|r| format!("{r}\n")).collect();
    let want: String = expected.iter().map(|r| format!("{r}\n")).collect();
    let mut out = Compare {
        expected: want.as_bytes(),
        equal: true,
    };
    serve_pipe(server, &mut Cursor::new(script.into_bytes()), &mut out)
        .map_err(|e| format!("pipe replay: {e}"))?;
    Ok(out.equal && out.expected.is_empty())
}

fn connect(addr: SocketAddr) -> Result<TcpStream, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_nodelay(true)
        .map_err(|e| format!("nodelay: {e}"))?;
    Ok(stream)
}

/// Closed-loop replay of the first requests on one connection; every
/// answer must match the reference.
fn warm_up(addr: SocketAddr, requests: &[String], expected: &[String]) -> Result<bool, String> {
    let stream = connect(addr)?;
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    let mut writer = stream;
    let mut line = String::new();
    for (req, want) in requests.iter().zip(expected).take(WARMUP) {
        writeln!(writer, "{req}").map_err(|e| format!("warm-up write: {e}"))?;
        line.clear();
        reader
            .read_line(&mut line)
            .map_err(|e| format!("warm-up read: {e}"))?;
        if line.trim_end_matches('\n') != want {
            return Ok(false);
        }
    }
    Ok(true)
}

/// How a reply compared with the answer key.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Reply {
    Ok,
    Overloaded,
    Mismatch,
}

/// What one generator connection saw.
#[derive(Default)]
struct Seen {
    /// (request index, latency from due time in µs, verdict)
    replies: Vec<(usize, f64, Reply)>,
    /// Send lag behind the due time per request, µs.
    lags: Vec<f64>,
    unanswered: usize,
}

/// Longest nap between polls of the reply socket. Socket read timeouts
/// round up to a scheduler tick, so the generator polls a non-blocking
/// socket and sleeps on the high-resolution timer in between.
const POLL: Duration = Duration::from_micros(200);

/// One generator thread: sends its share of the stream at their due times
/// on its own connection and reads replies in between, without ever
/// waiting for a reply before a send. Request `i` of the stream is
/// `requests[i % requests.len()]`; each reply is checked on arrival.
fn generate(
    addr: SocketAddr,
    requests: &[String],
    expected: &[String],
    mine: Vec<usize>,
    start: Instant,
) -> Result<Seen, String> {
    let due = |i: usize| start + Duration::from_secs_f64(i as f64 / RATE_PER_S);
    let mut stream = connect(addr)?;
    stream
        .set_nonblocking(true)
        .map_err(|e| format!("nonblocking: {e}"))?;
    let mut seen = Seen::default();
    let mut pending = std::collections::VecDeque::new();
    let mut buf: Vec<u8> = Vec::with_capacity(1 << 16);
    let mut chunk = vec![0u8; 1 << 16];
    let mut next = 0usize;
    let mut drain_until: Option<Instant> = None;
    loop {
        let now = Instant::now();
        if next < mine.len() && now >= due(mine[next]) {
            let i = mine[next];
            seen.lags.push((now - due(i)).as_secs_f64() * 1e6);
            send(
                &mut stream,
                format!("{}\n", requests[i % requests.len()]).as_bytes(),
            )?;
            pending.push_back(i);
            next += 1;
            continue;
        }
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                let at = Instant::now();
                buf.extend_from_slice(&chunk[..n]);
                while let Some(pos) = buf.iter().position(|&b| b == b'\n') {
                    let line: Vec<u8> = buf.drain(..=pos).collect();
                    let Some(i) = pending.pop_front() else {
                        return Err("reply without a request".into());
                    };
                    let reply = &line[..pos];
                    let verdict = if reply == expected[i % expected.len()].as_bytes() {
                        Reply::Ok
                    } else if String::from_utf8_lossy(reply).contains("\"overloaded\"") {
                        Reply::Overloaded
                    } else {
                        Reply::Mismatch
                    };
                    seen.replies
                        .push((i, (at - due(i)).as_secs_f64() * 1e6, verdict));
                }
                continue;
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {}
            Err(e) => return Err(format!("receive: {e}")),
        }
        if next == mine.len() {
            if pending.is_empty() {
                break;
            }
            if now >= *drain_until.get_or_insert(now + DRAIN) {
                break;
            }
        }
        let nap = match mine.get(next) {
            Some(&i) => due(i).saturating_duration_since(now).min(POLL),
            None => POLL,
        };
        std::thread::sleep(nap);
    }
    seen.unanswered = pending.len();
    Ok(seen)
}

/// Write all of `bytes` to a non-blocking socket.
fn send(stream: &mut TcpStream, mut bytes: &[u8]) -> Result<(), String> {
    while !bytes.is_empty() {
        match stream.write(bytes) {
            Ok(n) => bytes = &bytes[n..],
            Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::sleep(POLL),
            Err(e) => return Err(format!("send: {e}")),
        }
    }
    Ok(())
}

/// The open loop of `count` requests over `nproc` connections, one
/// generator thread each.
fn open_loop(
    addr: SocketAddr,
    requests: &[String],
    expected: &[String],
    count: usize,
) -> Result<Seen, String> {
    let threads = common::nproc();
    let start = Instant::now() + Duration::from_millis(20);
    let parts: Vec<Result<Seen, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|k| {
                let mine: Vec<usize> = (k..count).step_by(threads).collect();
                scope.spawn(move || generate(addr, requests, expected, mine, start))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("generator panicked".into()))
            })
            .collect()
    });
    let mut all = Seen::default();
    for part in parts {
        let mut part = part?;
        all.replies.append(&mut part.replies);
        all.lags.append(&mut part.lags);
        all.unanswered += part.unanswered;
    }
    all.replies.sort_by_key(|r| r.0);
    Ok(all)
}

/// Requests the capacity probe cycles through.
const CAPACITY_REQUESTS: usize = 20_000;

/// Closed-loop capacity of the served engine under this workload's request
/// mix: `nproc` connections, each sending its next request as soon as the
/// previous answer is in, for `seconds`. [`RATE_PER_S`] is a stated share
/// of it (see README.md); rerun this to re-derive the rate.
pub fn capacity(seed: u64, seconds: u64) -> Result<String, String> {
    let s = common::covid(seed, INPUT_ROWS, MASTER_ROWS);
    let requests = render_requests(s.task.input(), CAPACITY_REQUESTS, seed);
    let rules = common::mined_rules(&s.task)?;
    let (_, server) = common::set_up_server(1, None, || {
        RepairEngine::with_shards(&s.task, rules.clone(), common::nproc(), SHARDS)
    })?;
    let tcp = TcpServer::bind(Arc::new(server), "127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = tcp.local_addr();
    let threads = common::nproc();
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let requests = &requests;
    let answered: Vec<Result<Vec<f64>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|k| {
                scope.spawn(move || {
                    let stream = connect(addr)?;
                    let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
                    let mut writer = stream;
                    let mut line = String::new();
                    let mut times = Vec::new();
                    for req in requests.iter().skip(k).step_by(threads).cycle() {
                        if Instant::now() >= deadline {
                            break;
                        }
                        let t = Instant::now();
                        writeln!(writer, "{req}").map_err(|e| format!("send: {e}"))?;
                        line.clear();
                        reader
                            .read_line(&mut line)
                            .map_err(|e| format!("receive: {e}"))?;
                        if !line.starts_with("{\"ok\":true") {
                            return Err(format!("capacity probe answered {}", line.trim_end()));
                        }
                        times.push(t.elapsed().as_secs_f64() * 1e6);
                    }
                    Ok(times)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("caller panicked".into())))
            .collect()
    });
    tcp.shutdown();
    tcp.join();
    let mut times = Vec::new();
    for part in answered {
        times.append(&mut part?);
    }
    let rate = times.len() as f64 / seconds as f64;
    Ok(format!(
        "capacity: {rate:.0} requests/s closed loop over {threads} connections, p50 {} us; the workload offers {RATE_PER_S}/s, {:.0}% of it",
        stats::median(&times),
        100.0 * RATE_PER_S / rate
    ))
}

/// The answer key: each request decoded, repaired by an unsharded engine
/// and encoded, in process.
fn unsharded_answers(
    s: &Scenario,
    rules: &[EditingRule],
    requests: &[String],
) -> Result<Vec<String>, String> {
    let engine =
        RepairEngine::new(&s.task, rules.to_vec(), common::nproc()).map_err(|e| e.to_string())?;
    let max_rows = common::serve_config().max_batch_rows;
    let mut batch = RowBatch::new();
    requests
        .iter()
        .map(|req| {
            parse_request(req, max_rows, &mut batch)?;
            let outcome = engine
                .repair(batch.rows(), None)
                .map_err(|e| e.to_string())?;
            Ok(proto::ok_repair(&outcome))
        })
        .collect()
}

pub fn run(seed: u64, seconds: u64, tracer: Option<&mut Tracer>) -> Result<Outcome, String> {
    let s = common::covid(seed, INPUT_ROWS, MASTER_ROWS);
    let count = (RATE_PER_S * seconds as f64).ceil() as usize;
    let requests = render_requests(s.task.input(), DISTINCT_REQUESTS.min(count), seed);
    let rules = common::mined_rules(&s.task)?;
    println!(
        "serve-interactive: covid seed {seed}, {} master rows, {SHARDS} shards, {count} requests at {RATE_PER_S}/s over {} connections, limit {LIMIT_US} us",
        s.task.master().num_rows(),
        common::nproc()
    );
    // The answer key, from an unsharded engine, and f1 come first: their
    // engines are gone before the peak mark is reset and the served engine
    // is built.
    let expected = unsharded_answers(&s, &rules, &requests)?;
    let f1 = common::served_f1(INPUT_ROWS, MASTER_ROWS)?;
    println!(
        "serve-interactive: f1 {f1} at data seed {}; {} on this seed's input",
        common::RULES_SEED,
        common::repair_f1(&s, &rules)?
    );
    common::release_freed_memory();
    common::reset_peak_rss();
    let mut tracer = tracer;
    let (setup, server) = common::set_up_server(SETUP_REPS, tracer.as_deref_mut(), || {
        RepairEngine::with_shards(&s.task, rules.clone(), common::nproc(), SHARDS)
    })?;
    let server = Arc::new(server);
    println!(
        "serve-interactive: shard imbalance {} (1 = even, {SHARDS} = all master rows on one shard)",
        server.snapshot().shard_imbalance()
    );

    // Correctness before timing: the served engine's pipe replay must equal
    // the unsharded answers, and then so must every socket answer.
    if !pipe_replay_matches(&server, &requests, &expected)? {
        println!("serve-interactive: MISMATCH: the two-shard pipe replay differs from the unsharded engine");
        return Ok(Outcome::default());
    }

    let tcp =
        TcpServer::bind(Arc::clone(&server), "127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = tcp.local_addr();
    let mut out = Outcome::default();
    let warm = warm_up(addr, &requests, &expected);
    let seen = match warm {
        Ok(true) => open_loop(addr, &requests, &expected, count),
        Ok(false) => Err("warm-up answer differs from the answer key".into()),
        Err(e) => Err(e),
    };
    tcp.shutdown();
    tcp.join();
    let seen = seen?;

    let mut counts = Counts {
        attempted: count as u64,
        timed_out: seen.unanswered as u64,
        ..Counts::default()
    };
    let per_window = (RATE_PER_S * WINDOW_S) as usize;
    let windows = count.div_ceil(per_window);
    let mut latencies = Vec::with_capacity(seen.replies.len());
    let mut window_latencies = vec![Vec::new(); windows];
    let mut mismatched = 0u64;
    for &(i, latency, reply) in &seen.replies {
        match reply {
            Reply::Ok => {
                counts.ok += 1;
                latencies.push(latency);
                window_latencies[i / per_window].push(latency);
            }
            Reply::Overloaded => counts.overloaded += 1,
            Reply::Mismatch => {
                counts.error += 1;
                mismatched += 1;
            }
        }
    }
    counts.print();
    let mut lags = seen.lags.clone();
    lags.sort_by(f64::total_cmp);
    let lag_p99 = stats::percentile(&lags, 99.0);
    let late = seen.lags.iter().filter(|&&l| l > LATE_US).count();
    println!(
        "gen: send_lag_p99_us {lag_p99} late {late} of {} sends",
        lags.len()
    );
    out.correct = mismatched == 0 && counts.error == 0;
    if mismatched > 0 {
        println!(
            "serve-interactive: MISMATCH: {mismatched} socket answers differ from the answer key"
        );
    }
    out.attempted = counts.attempted;
    out.failed = counts.failed();
    let summary = stats::summarize(&latencies).ok_or("too few answered requests")?;
    // The tail per window, then its median over the windows: a host stall
    // spoils one window, not the run.
    let mut tails = Vec::with_capacity(windows);
    let mut p99s = Vec::with_capacity(windows);
    for lat in &window_latencies {
        let mut sorted = lat.clone();
        sorted.sort_by(f64::total_cmp);
        if stats::beyond(TAIL_P, sorted.len()) < stats::MIN_BEYOND {
            return Err("too few answered requests in a window".into());
        }
        tails.push(stats::percentile(&sorted, TAIL_P));
        p99s.push(stats::percentile(&sorted, 99.0));
    }
    // Refused, failed and unanswered requests miss the limit.
    let within =
        latencies.iter().filter(|&&l| l <= LIMIT_US).count() as f64 / counts.attempted as f64;
    println!(
        "serve-interactive: latency p50 {} us over {} answered requests; p{TAIL_P} {} us and p99 {} us, medians over {windows} windows of {per_window} requests; {within} within {LIMIT_US} us",
        summary.p50,
        summary.n,
        stats::median(&tails),
        stats::median(&p99s)
    );
    println!(
        "serve-interactive: setup_s {} (wall clock {}) over {} engine builds",
        stats::median(&setup.scaled),
        stats::median(&setup.wall),
        setup.wall.len()
    );

    if let Some(tracer) = tracer {
        layers(&s, &rules, &server, &requests, &expected, tracer, &mut out)?;
        out.set(
            "serve.tcp_p50_us",
            summary.p50 - out.values["serve.handle_line_p50_us"],
        );
        out.set("gen.send_lag_p99_us", lag_p99);
        out.set("gen.late", late as f64);
        return Ok(out);
    }
    // The engine builds are calibrated, the open loop's latencies are not:
    // see `calib` for why.
    out.set("setup_s", stats::median(&setup.scaled));
    out.set("latency_p50_us", summary.p50);
    out.set("latency_tail_us", stats::median(&tails));
    out.set("within_limit_share", within);
    out.set("ok_share", counts.ok_share());
    out.set("f1", f1);
    out.set("peak_rss_mib", common::peak_rss_mib());
    Ok(out)
}

fn p50_us(tracer: &Tracer, span: &str) -> f64 {
    stats::median(&tracer.durations_s(span)) * 1e6
}

/// The traced passes: the same request stream replayed in process through
/// each layer's public entry point.
fn layers(
    s: &Scenario,
    rules: &[EditingRule],
    server: &Server,
    requests: &[String],
    expected: &[String],
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    let mut batch = RowBatch::new();
    // Whole-request handling, each request once untraced and once traced,
    // in alternating order so both see the same host and cache: the gap
    // between the totals is the tracing overhead.
    let (mut untraced, mut traced) = (0.0, 0.0);
    for (i, req) in requests.iter().enumerate() {
        for with_span in [i % 2 == 0, i % 2 == 1] {
            let t = Instant::now();
            if with_span {
                let (reply, _) = tracer.time("serve.handle_line", None, i as u64, || {
                    server.handle_line(req, &mut batch)
                });
                traced += t.elapsed().as_secs_f64();
                if reply != expected[i] {
                    out.correct = false;
                }
            } else {
                std::hint::black_box(server.handle_line(req, &mut batch));
                untraced += t.elapsed().as_secs_f64();
            }
        }
    }
    out.set("trace.overhead_share", (traced - untraced) / untraced);

    // The same requests split into decode, engine and encode. Each layer
    // gets a pass of its own, so only its own indexes compete for cache, as
    // in the server.
    let engine = RepairEngine::with_shards(&s.task, rules.to_vec(), common::nproc(), SHARDS)
        .map_err(|e| e.to_string())?;
    let max_rows = server.config().max_batch_rows;
    let input = s.task.input();
    let mut relations = Vec::with_capacity(requests.len());
    for (i, req) in requests.iter().enumerate() {
        let id = i as u64;
        let root = tracer.begin("serve.request", None, id);
        tracer
            .time("serve.parse", Some(root), id, || {
                parse_request(req, max_rows, &mut batch)
            })
            .map_err(|e| format!("parse: {e}"))?;
        let outcome = tracer
            .time("serve.engine_repair", Some(root), id, || {
                engine.repair(batch.rows(), None)
            })
            .map_err(|e| e.to_string())?;
        let reply = tracer.time("serve.render", Some(root), id, || {
            proto::ok_repair(&outcome)
        });
        tracer.end(root);
        if reply != expected[i] {
            out.correct = false;
        }
        let mut rel = Relation::empty(Arc::clone(input.schema()), Arc::clone(input.pool()));
        for row in batch.rows() {
            rel.push_row_ref(row).map_err(|e| e.to_string())?;
        }
        relations.push(rel);
    }
    drop(engine);

    // The repair core on the same batches: two shards, then unsharded.
    let master = s.task.master();
    let sharded = ShardedEngine::new(
        master.clone(),
        s.task.target(),
        rules.to_vec(),
        common::nproc(),
        SHARDS,
    )
    .map_err(|e| e.to_string())?;
    let mut two = Vec::with_capacity(relations.len());
    for (i, rel) in relations.iter().enumerate() {
        let report = tracer
            .time("shard.repair_batch", None, i as u64, || {
                sharded.repair_batch(rel, None)
            })
            .map_err(|e| e.to_string())?;
        two.push(report.predictions);
    }
    let shard = sharded.shard_stats();
    drop(sharded);
    let unsharded = BatchRepairer::new(
        master.clone(),
        s.task.target(),
        rules.to_vec(),
        common::nproc(),
    )
    .map_err(|e| e.to_string())?;
    for (i, rel) in relations.iter().enumerate() {
        let one = tracer
            .time("rules.repair_batch", None, i as u64, || {
                unsharded.repair_batch(rel)
            })
            .map_err(|e| e.to_string())?;
        if one.predictions != two[i] {
            out.correct = false;
        }
    }
    if !out.correct {
        println!("serve-interactive: MISMATCH in the in-process replay");
    }
    let votes = unsharded.vote_stats();
    out.set(
        "serve.setup_s",
        stats::median(&tracer.durations_s("serve.setup")),
    );
    out.set(
        "serve.start_s",
        stats::median(&tracer.durations_s("serve.start")),
    );
    out.set(
        "serve.handle_line_p50_us",
        p50_us(tracer, "serve.handle_line"),
    );
    out.set("serve.parse_p50_us", p50_us(tracer, "serve.parse"));
    out.set("serve.render_p50_us", p50_us(tracer, "serve.render"));
    out.set(
        "serve.engine_repair_p50_us",
        p50_us(tracer, "serve.engine_repair"),
    );
    out.set(
        "shard.repair_batch_p50_us",
        p50_us(tracer, "shard.repair_batch"),
    );
    out.set(
        "rules.repair_batch_p50_us",
        p50_us(tracer, "rules.repair_batch"),
    );
    out.set(
        "rules.probes_per_row",
        votes.probes as f64 / votes.rows.max(1) as f64,
    );
    out.set(
        "shard.broadcast_share",
        shard.broadcast as f64 / (shard.routed + shard.broadcast).max(1) as f64,
    );
    Ok(())
}
