//! `erbench` — the repository benchmark.
//!
//! ```text
//! erbench --workload <mine|serve-interactive|bulk-csv> --seed <n> --seconds <s> --trace <0|1>
//! erbench --emit-rules --seed <n>     # print the rule set the mine workload mines
//! erbench --capacity --seed <n> --seconds <s>   # closed-loop capacity of serve-interactive
//! ```
//!
//! Generates the workload's inputs from the seed, checks the program's
//! outputs, measures for the given seconds and prints, as its last line,
//! one JSON object with the end-to-end metrics (`--trace 0`) or the
//! per-layer metrics from a traced run (`--trace 1`). See README.md.

mod bulk;
mod calib;
mod common;
mod interactive;
mod metrics;
mod mine;
mod stats;
mod trace;

use metrics::{Outcome, END_TO_END, PER_LAYER};
use std::process::ExitCode;
use trace::Tracer;

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["mine", "serve-interactive", "bulk-csv"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    emit_rules: bool,
    capacity: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        emit_rules: false,
        capacity: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--emit-rules" || flag == "--capacity" {
            args.emit_rules |= flag == "--emit-rules";
            args.capacity |= flag == "--capacity";
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => args.trace = number()? != 0,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !args.emit_rules && !args.capacity && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

fn run(args: &Args) -> Result<(Outcome, Option<Tracer>), String> {
    let mut tracer = args.trace.then(Tracer::new);
    let outcome = match args.workload.as_str() {
        "mine" => mine::run(args.seed, args.seconds, tracer.as_mut()),
        "serve-interactive" => interactive::run(args.seed, args.seconds, tracer.as_mut()),
        "bulk-csv" => bulk::run(args.seed, args.seconds, tracer.as_mut()),
        other => Err(format!("unknown workload {other}")),
    }?;
    Ok((outcome, tracer))
}

/// Write the spans and print each span name's count, total and self time.
fn dump_trace(tracer: &Tracer, args: &Args) -> Result<(), String> {
    let path = common::work_dir()?.join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
    std::fs::write(&path, tracer.to_jsonl())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!(
        "trace: {} spans written to {}",
        tracer.spans().len(),
        path.display()
    );
    for (name, count, total, own) in tracer.summary() {
        println!("trace: {name:<28} n={count:<8} total_s={total:.6} self_s={own:.6}");
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("erbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.emit_rules || args.capacity {
        let printed = if args.emit_rules {
            mine::emit_rules(args.seed)
        } else {
            interactive::capacity(args.seed, args.seconds)
        };
        return match printed {
            Ok(doc) => {
                println!("{doc}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("erbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let (mut outcome, tracer) = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("erbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let defs = match &tracer {
        Some(tracer) => {
            if let Err(e) = dump_trace(tracer, &args) {
                eprintln!("erbench: {e}");
                return ExitCode::FAILURE;
            }
            // Layers this workload never calls read 0.
            for d in PER_LAYER {
                outcome.values.entry(d.name).or_insert(0.0);
            }
            PER_LAYER
        }
        None => END_TO_END,
    };
    match outcome.render(defs) {
        Ok(line) => {
            println!("{line}");
            if outcome.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("erbench: {e}");
            ExitCode::FAILURE
        }
    }
}
