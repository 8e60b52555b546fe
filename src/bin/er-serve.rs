//! `er-serve` — the long-lived repair service CLI.
//!
//! Loads a dataset scenario (or a CSV pair) and a mined rule-set JSON file,
//! warms the master-side indexes once, and serves the newline-delimited
//! JSON repair protocol over stdin/stdout (default) or a TCP socket
//! (`--tcp ADDR`). See DESIGN.md §10 for the protocol grammar.

use er_serve::{
    serve_pipe, EngineError, ReloadError, RepairEngine, ServeConfig, Server, TcpServer,
};
use std::io::{BufReader, BufWriter};
use std::sync::Arc;
use std::time::Duration;

const USAGE: &str = "\
usage: er-serve --rules FILE [options]
data source (pick one):
  --dataset NAME     any dataset-registry name: figure1 (default), adult,
                     covid, nursery, location, or one from --registry
  --registry PATH    JSON config of extra named datasets (generator
                     variants or chunk-streamed CSV pairs); see
                     examples/datasets.json
  --seed N           scenario seed for the generated datasets (default 1)
  --input CSV --master CSV --target Y[:Y_m]
                     serve over your own CSV pair (shared value pool);
                     Y is the input target attribute, Y_m the master one
                     (defaults to Y)
transport:
  --tcp ADDR         socket mode (e.g. 127.0.0.1:7777); default is pipe
                     mode over stdin/stdout
tuning:
  --threads N        repair worker threads (default 0 = ER_THREADS or 1)
  --shards N         partition the master into N independent engine shards
                     keyed by the rules' common LHS routing pair (default 1
                     = unsharded); answers are byte-identical at any shard
                     count; stats reports shards, shard_routed,
                     shard_broadcast and shard_imbalance
  --deadline-ms N    per-request repair deadline (default: none)
  --queue N          max in-flight repairs (default 64); TCP: also counts
                     toward the live-connection cap
  --max-rows N       max rows per repair request (default 4096)
  --max-line-bytes N max request line length (default 1048576)
  --workers N        TCP: counts toward the live-connection cap,
                     workers + queue (default 4); each connection is
                     served by its own thread
  --log-every N      stderr metrics line every N requests (default 0 = off)
  --no-analysis-gate load, reload and append without the er-analyze gate
                     (default: rule sets with an ER008 dependency cycle or
                     an ER009 conflict are refused; stats counts rejected)
protocol (one JSON object per line):
  {\"op\":\"ping\"} | {\"op\":\"stats\"} | {\"op\":\"reload\"} | {\"op\":\"shutdown\"}
  {\"op\":\"repair\",\"rows\":[[cell,...],...]}   cells in input-schema order
  {\"op\":\"append\",\"rows\":[[cell,...],...]}   cells in master-schema order;
                     grows the master in place, delta-updating the warm
                     indexes (stats reports appends + engine_generation)
  {\"op\":\"repair_csv\",\"path\":PATH,\"chunk_bytes\":N?}  stream a server-side
                     CSV (header must match the input schema) through the
                     engine chunk by chunk under one backpressure slot and
                     a per-chunk deadline; answers totals only
                     ({rows, chunks, fixed}; stats: ingested_rows,
                     ingest_chunks)
  {\"op\":\"reload\",\"scope\":SCOPE}            gate the promotion on a declared
                     edit scope: verdict changes outside SCOPE are ER012
                     and the reload is refused (stats: rejected_by_code)
  {\"op\":\"diff\",\"rules\":[...],\"scope\":SCOPE?}  compare the live rule set
                     against a candidate portable document without
                     promoting: reports changed signatures with witnesses
  {\"op\":\"versions\"}  the rule version store: lineage, content hashes and
                     promotion notes (reloads commit new versions)
  SCOPE := {attr:value,...} or a list of such conjunctions
shutdown: send {\"op\":\"shutdown\"} or close stdin (pipe mode); every fully
read request is answered before the service exits";

struct Args {
    rules: Option<String>,
    dataset: String,
    registry: Option<String>,
    seed: u64,
    input: Option<String>,
    master: Option<String>,
    target: Option<String>,
    tcp: Option<String>,
    threads: usize,
    shards: usize,
    config: ServeConfig,
}

fn parse_args() -> Args {
    let mut args = Args {
        rules: None,
        dataset: "figure1".to_string(),
        registry: None,
        seed: 1,
        input: None,
        master: None,
        target: None,
        tcp: None,
        threads: 0,
        shards: 1,
        config: ServeConfig::default(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--rules" => args.rules = Some(need(&mut it, "--rules")),
            "--dataset" => args.dataset = need(&mut it, "--dataset"),
            "--registry" => args.registry = Some(need(&mut it, "--registry")),
            "--seed" => args.seed = need_num(&mut it, "--seed"),
            "--input" => args.input = Some(need(&mut it, "--input")),
            "--master" => args.master = Some(need(&mut it, "--master")),
            "--target" => args.target = Some(need(&mut it, "--target")),
            "--tcp" => args.tcp = Some(need(&mut it, "--tcp")),
            "--threads" => args.threads = need_num(&mut it, "--threads"),
            "--shards" => args.shards = need_num(&mut it, "--shards"),
            "--deadline-ms" => {
                let ms: u64 = need_num(&mut it, "--deadline-ms");
                args.config.deadline = (ms > 0).then(|| Duration::from_millis(ms));
            }
            "--queue" => args.config.queue_capacity = need_num(&mut it, "--queue"),
            "--max-rows" => args.config.max_batch_rows = need_num(&mut it, "--max-rows"),
            "--max-line-bytes" => {
                args.config.max_line_bytes = need_num(&mut it, "--max-line-bytes")
            }
            "--workers" => args.config.workers = need_num(&mut it, "--workers"),
            "--log-every" => args.config.log_every = need_num(&mut it, "--log-every"),
            "--no-analysis-gate" => args.config.analysis_gate = false,
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => die(&format!("unknown flag {other}")),
        }
    }
    args
}

fn need(it: &mut impl Iterator<Item = String>, flag: &str) -> String {
    it.next()
        .unwrap_or_else(|| die(&format!("{flag} needs a value")))
}

fn need_num<T: std::str::FromStr>(it: &mut impl Iterator<Item = String>, flag: &str) -> T {
    need(it, flag)
        .parse()
        .unwrap_or_else(|_| die(&format!("{flag} needs a number")))
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}\n{USAGE}");
    std::process::exit(2);
}

fn load_scenario(args: &Args) -> er_datagen::Scenario {
    if let (Some(input), Some(master)) = (&args.input, &args.master) {
        let target = args
            .target
            .clone()
            .unwrap_or_else(|| die("--input/--master mode needs --target Y[:Y_m]"));
        let (y, ym) = match target.split_once(':') {
            Some((a, b)) => (a.to_string(), b.to_string()),
            None => (target.clone(), target.clone()),
        };
        let options = er_datagen::CsvScenarioOptions::new("csv", y, ym);
        match er_datagen::scenario_from_csv(input, master, &options) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: loading CSVs: {e}");
                std::process::exit(1);
            }
        }
    } else {
        let mut registry = er_ingest::DatasetRegistry::builtin();
        if let Some(path) = &args.registry {
            if let Err(e) = registry.load_config(path) {
                die(&format!("--registry {path}: {e}"));
            }
        }
        let knobs = er_ingest::ScaleKnobs {
            scale: 1.0,
            seed: args.seed,
        };
        match registry.build(&args.dataset, &knobs) {
            Ok(s) => s,
            Err(e) => die(&e.to_string()),
        }
    }
}

fn main() {
    let args = parse_args();
    let Some(rules_path) = args.rules.clone() else {
        die("--rules FILE is required");
    };
    let scenario = load_scenario(&args);
    let task = scenario.task.clone();
    let json = match std::fs::read_to_string(&rules_path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot read {rules_path}: {e}");
            std::process::exit(1);
        }
    };
    let load = if args.config.analysis_gate {
        RepairEngine::from_json_gated_sharded(&task, &json, args.threads, args.shards)
    } else {
        RepairEngine::from_json_sharded(&task, &json, args.threads, args.shards)
    };
    let engine = match load {
        Ok(e) => e,
        Err(EngineError::Analysis(report)) => {
            eprintln!("error: rule set rejected by static analysis");
            eprint!("{}", report.render_text());
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    eprintln!(
        "er-serve: {} rules, {} warm indexes, target {:?}, master {} rows, {} shard(s)",
        engine.num_rules(),
        engine.num_indexes(),
        engine.target_attr(),
        task.master().num_rows(),
        engine.shards()
    );
    let reload_task = task.clone();
    let threads = args.threads;
    let shards = args.shards;
    let gated = args.config.analysis_gate;
    let server = Server::new(engine, args.config.clone()).with_reloader(Box::new(move || {
        let json =
            std::fs::read_to_string(&rules_path).map_err(|e| ReloadError::Failed(e.to_string()))?;
        let load = if gated {
            RepairEngine::from_json_gated_sharded(&reload_task, &json, threads, shards)
        } else {
            RepairEngine::from_json_sharded(&reload_task, &json, threads, shards)
        };
        load.map_err(|e| match e {
            EngineError::Analysis(report) => ReloadError::Analysis(report),
            other => ReloadError::Failed(other.to_string()),
        })
    }));

    match &args.tcp {
        Some(addr) => {
            let server = Arc::new(server);
            let tcp = match TcpServer::bind(Arc::clone(&server), addr.as_str()) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("error: cannot bind {addr}: {e}");
                    std::process::exit(1);
                }
            };
            eprintln!("er-serve: listening on {}", tcp.local_addr());
            tcp.join();
            eprintln!("er-serve: drained; {}", server.snapshot().log_line());
        }
        None => {
            let stdin = std::io::stdin();
            let stdout = std::io::stdout();
            let mut reader = BufReader::new(stdin.lock());
            let mut writer = BufWriter::new(stdout.lock());
            if let Err(e) = serve_pipe(&server, &mut reader, &mut writer) {
                eprintln!("error: pipe transport failed: {e}");
                std::process::exit(1);
            }
            eprintln!("er-serve: drained; {}", server.snapshot().log_line());
        }
    }
}
