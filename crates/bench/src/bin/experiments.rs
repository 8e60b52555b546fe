//! Experiment driver reproducing every table and figure of the paper.
//!
//! ```text
//! cargo run -p er-bench --release --bin experiments -- all
//! cargo run -p er-bench --release --bin experiments -- table3 fig8
//! cargo run -p er-bench --release --bin experiments -- --paper-scale table3
//! cargo run -p er-bench --release --bin experiments -- --quick all
//! ```
//!
//! Results are printed and also saved as JSON under `results/`.

use er_bench::ExperimentConfig;

const USAGE: &str = "\
usage: experiments [--paper-scale|--quick] [--repeats N] [--train-steps N] [--threads N] <ids...>
       experiments lint [--dataset NAME] [--seed N] [--json] [--fix [--out PATH]] <rules.json>
       experiments analyze [--dataset NAME] [--seed N] [--threads N] [--json] [--out PATH] <rules.json>
       experiments diff [--dataset NAME] [--seed N] [--threads N] [--scope JSON] [--json] [--out PATH] <old.json> <new.json>
       experiments prove [--dataset NAME] [--seed N] [--threads N] [--json] [--out PATH] <rules.json>
  ids: all table1 table2 table3 fig6 fig7 fig8 fig9 fig10 fig11 fig12 ablate par_sweep serve_bench shard_bench incr_bench repair_bench ingest_bench mine_bench
  --paper-scale   run at the paper's dataset sizes (EnuMiner may take hours)
  --quick         smoke-test scale (shorter training, tighter budgets)
  --repeats N     repetitions for mean±std tables (default 3, paper 5)
  --train-steps N RLMiner training steps (default 5000)
  --threads N     miner worker threads (default 0 = ER_THREADS env or 1);
                  results are identical at any thread count
lint: statically analyze a rule-set JSON file against a dataset scenario
  --dataset NAME  any dataset-registry name: figure1 (default), adult,
                  covid, nursery, location, or one defined by --registry
  --registry PATH JSON config of extra named datasets (generator variants
                  or chunk-streamed CSV pairs); see examples/datasets.json
  --seed N        scenario seed for the generated datasets (default 1)
  --json          emit the machine-readable JSON report instead of text
  --fix           remove rules flagged ER003/ER004 (mechanically safe) and
                  write the cleaned rule set to --out (default: stdout)
  --out PATH      where --fix writes the cleaned JSON
analyze: whole-rule-set static analysis (er-analyze) against a scenario:
  chase-termination certificate (ER008), conflicting repairs with master
  witnesses (ER009), dead rules vs. the master domains (ER010)
  --dataset/--seed as for lint; --threads N for the analysis fan-out
  --json          print the JSON report instead of text
  --out PATH      also save the JSON report (default: results/analyze.json)
  exits 1 when the report contains errors, 2 on usage/IO problems
diff: edit-scope analysis of a rule-set change (er-analyze diff pass):
  which master signatures change repair verdict between the two versions,
  each with a concrete master-row witness (ER011), or an equivalence
  certificate when none do; with --scope, changes outside the declared
  scope are ER012 errors (exit 1) — the serve promotion gate
  --scope JSON    declared edit scope: {attr:value,...} or a list of such
                  conjunctions of input-attribute equalities
  --dataset/--seed/--threads/--json as for analyze
  --out PATH      also save the JSON report (default: results/diff.json)
  exits 1 when the report contains errors, 2 on usage/IO problems
prove: confluence certification (er-analyze critical-pair pass): join every
  critical pair of the rule set over concrete master witnesses and print the
  machine-checkable ConfluenceCertificate, the ER013 two-order divergence
  counterexamples, or the ER014 tie-break dependences
  --dataset/--seed/--threads/--json as for analyze
  --out PATH      also save the full JSON report (default: results/prove.json)
  exits 0 only when the certificate is issued, 1 otherwise, 2 on usage/IO";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!("{USAGE}");
        std::process::exit(2);
    }
    if args[0] == "lint" {
        lint_main(&args[1..]);
        return;
    }
    if args[0] == "analyze" {
        analyze_main(&args[1..]);
        return;
    }
    if args[0] == "diff" {
        diff_main(&args[1..]);
        return;
    }
    if args[0] == "prove" {
        prove_main(&args[1..]);
        return;
    }
    let mut cfg = ExperimentConfig::default();
    let mut ids: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--paper-scale" => {
                cfg = ExperimentConfig {
                    out_dir: cfg.out_dir.clone(),
                    ..ExperimentConfig::paper()
                }
            }
            "--quick" => {
                cfg = ExperimentConfig {
                    out_dir: cfg.out_dir.clone(),
                    ..ExperimentConfig::quick()
                }
            }
            "--repeats" => {
                cfg.repeats = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--repeats needs a number"));
            }
            "--train-steps" => {
                cfg.train_steps = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--train-steps needs a number"));
            }
            "--threads" => {
                cfg.threads = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--threads needs a number"));
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            id if !id.starts_with('-') => ids.push(id.to_string()),
            other => die(&format!("unknown flag {other}")),
        }
    }
    if ids.iter().any(|i| i == "all") {
        ids = [
            "table1", "table2", "table3", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
            "fig12", "ablate",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
    }
    println!(
        "scale={:?} repeats={} train_steps={} enu_budget={:?}\n",
        cfg.scale, cfg.repeats, cfg.train_steps, cfg.enu_budget
    );
    for id in &ids {
        let start = std::time::Instant::now();
        match id.as_str() {
            "table1" => {
                er_bench::table1(&cfg);
            }
            "table2" => {
                er_bench::table2(&cfg);
            }
            "table3" => {
                er_bench::table3(&cfg);
            }
            "fig6" => {
                er_bench::fig6(&cfg);
            }
            "fig7" => {
                er_bench::fig7(&cfg);
            }
            "fig8" => {
                er_bench::fig8(&cfg);
            }
            "fig9" => {
                er_bench::fig9(&cfg);
            }
            "fig10" => {
                er_bench::fig10(&cfg);
            }
            "fig11" => {
                er_bench::fig11(&cfg);
            }
            "fig12" => {
                er_bench::fig12(&cfg);
            }
            "ablate" => {
                er_bench::ablate(&cfg);
            }
            "par_sweep" => {
                er_bench::par_sweep(&cfg);
            }
            "serve_bench" => {
                er_bench::serve_bench(&cfg);
            }
            "shard_bench" => {
                er_bench::shard_bench(&cfg);
            }
            "incr_bench" => {
                er_bench::incr_bench(&cfg);
            }
            "repair_bench" => {
                er_bench::repair_bench(&cfg);
            }
            "ingest_bench" => {
                er_bench::ingest_bench(&cfg);
            }
            "mine_bench" => {
                er_bench::mine_bench(&cfg);
            }
            other => die(&format!("unknown experiment id {other}")),
        }
        println!("[{} finished in {:.1?}]\n", id, start.elapsed());
    }
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}\n{USAGE}");
    std::process::exit(2);
}

/// Build the named dataset scenario shared by the `lint`, `analyze`, and
/// `diff` subcommands. Every name resolves through the er-ingest
/// [`DatasetRegistry`](er_ingest::DatasetRegistry): the built-in catalog
/// (figure1 + the four paper generators) optionally extended by a
/// `--registry` JSON config of named dataset definitions.
fn load_scenario(registry_config: Option<&str>, dataset: &str, seed: u64) -> er_datagen::Scenario {
    let mut registry = er_ingest::DatasetRegistry::builtin();
    if let Some(path) = registry_config {
        if let Err(e) = registry.load_config(path) {
            die(&format!("--registry {path}: {e}"));
        }
    }
    let knobs = er_ingest::ScaleKnobs { scale: 1.0, seed };
    registry
        .build(dataset, &knobs)
        .unwrap_or_else(|e| die(&e.to_string()))
}

/// The `analyze` subcommand: run the er-analyze passes over a rule-set JSON
/// file against the named dataset scenario, print the certificates, and
/// save the JSON report.
fn analyze_main(args: &[String]) {
    let mut dataset = "figure1".to_string();
    let mut seed = 1u64;
    let mut threads = 0usize;
    let mut json_out = false;
    let mut registry: Option<String> = None;
    let mut out = "results/analyze.json".to_string();
    let mut file: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--dataset" => {
                dataset = it
                    .next()
                    .cloned()
                    .unwrap_or_else(|| die("--dataset needs a name"));
            }
            "--registry" => {
                registry = Some(
                    it.next()
                        .cloned()
                        .unwrap_or_else(|| die("--registry needs a path")),
                );
            }
            "--seed" => {
                seed = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--seed needs a number"));
            }
            "--threads" => {
                threads = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--threads needs a number"));
            }
            "--json" => json_out = true,
            "--out" => {
                out = it
                    .next()
                    .cloned()
                    .unwrap_or_else(|| die("--out needs a path"));
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            path if !path.starts_with('-') => file = Some(path.to_string()),
            other => die(&format!("unknown flag {other}")),
        }
    }
    let Some(path) = file else {
        die("analyze needs a rules.json path")
    };
    let scenario = load_scenario(registry.as_deref(), &dataset, seed);
    let json = match std::fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot read {path}: {e}");
            std::process::exit(2);
        }
    };
    let config = er_analyze::AnalyzeConfig::with_threads(threads);
    let report = match er_analyze::analyze_json(&json, &scenario.task, &config) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {path}: {e}");
            std::process::exit(2);
        }
    };
    let rendered_json = report.render_json();
    if json_out {
        println!("{rendered_json}");
    } else {
        print!("{}", report.render_text());
    }
    if let Some(dir) = std::path::Path::new(&out).parent() {
        if !dir.as_os_str().is_empty() {
            let _ = std::fs::create_dir_all(dir);
        }
    }
    match std::fs::write(&out, rendered_json + "\n") {
        Ok(()) => eprintln!("analyze: saved {out}"),
        Err(e) => eprintln!("warning: cannot write {out}: {e}"),
    }
    if report.errors() > 0 {
        std::process::exit(1);
    }
}

/// The `prove` subcommand: run the full er-analyze pipeline but report the
/// confluence half — the certificate when every critical pair joins, the
/// ER013/ER014 witnesses when not. Exit 0 only with a certificate in hand.
fn prove_main(args: &[String]) {
    let mut dataset = "figure1".to_string();
    let mut seed = 1u64;
    let mut threads = 0usize;
    let mut json_out = false;
    let mut registry: Option<String> = None;
    let mut out = "results/prove.json".to_string();
    let mut file: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--dataset" => {
                dataset = it
                    .next()
                    .cloned()
                    .unwrap_or_else(|| die("--dataset needs a name"));
            }
            "--registry" => {
                registry = Some(
                    it.next()
                        .cloned()
                        .unwrap_or_else(|| die("--registry needs a path")),
                );
            }
            "--seed" => {
                seed = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--seed needs a number"));
            }
            "--threads" => {
                threads = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--threads needs a number"));
            }
            "--json" => json_out = true,
            "--out" => {
                out = it
                    .next()
                    .cloned()
                    .unwrap_or_else(|| die("--out needs a path"));
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            path if !path.starts_with('-') => file = Some(path.to_string()),
            other => die(&format!("unknown flag {other}")),
        }
    }
    let Some(path) = file else {
        die("prove needs a rules.json path")
    };
    let scenario = load_scenario(registry.as_deref(), &dataset, seed);
    let json = match std::fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot read {path}: {e}");
            std::process::exit(2);
        }
    };
    let config = er_analyze::AnalyzeConfig::with_threads(threads);
    let report = match er_analyze::analyze_json(&json, &scenario.task, &config) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {path}: {e}");
            std::process::exit(2);
        }
    };
    let cert = &report.confluence;
    if json_out {
        println!("{}", serde_json::to_string_pretty(cert).unwrap_or_default());
    } else if cert.certified {
        println!(
            "confluence: CERTIFIED — {} rules, {} critical pair(s) join on the current \
             master (generation {}); rule order cannot change a repair",
            cert.num_rules, cert.pairs, cert.generation
        );
        for p in &cert.proofs {
            println!(
                "  pair (#{}, #{}): joins on {} witness row(s)",
                p.related, p.rule, p.witness_rows
            );
        }
    } else {
        println!(
            "confluence: NOT CERTIFIED — {} divergent pair(s), {} tie-break-dependent \
             pair(s) of {} checked; rule order may change a repair",
            cert.divergent.len(),
            cert.tie_broken.len(),
            cert.pairs
        );
        // The certificate-relevant findings carry the rendered two-order
        // witnesses; everything else stays in `analyze`'s report.
        for f in report.findings.iter().filter(|f| {
            matches!(
                f.code,
                er_lint::DiagnosticCode::Er013 | er_lint::DiagnosticCode::Er014
            )
        }) {
            println!("{}[{}]: {}", f.severity, f.code, f.message);
            println!("  --> rule #{}: {}", f.rule, f.span);
            if let Some(note) = &f.note {
                println!("  = note: {note}");
            }
        }
    }
    if let Some(dir) = std::path::Path::new(&out).parent() {
        if !dir.as_os_str().is_empty() {
            let _ = std::fs::create_dir_all(dir);
        }
    }
    match std::fs::write(&out, report.render_json() + "\n") {
        Ok(()) => eprintln!("prove: saved {out}"),
        Err(e) => eprintln!("warning: cannot write {out}: {e}"),
    }
    if !cert.certified {
        std::process::exit(1);
    }
}

/// The `diff` subcommand: run the er-analyze edit-scope diff over two
/// rule-set JSON files against the named dataset scenario, print the
/// changed signatures (or the equivalence certificate), and save the JSON
/// report.
fn diff_main(args: &[String]) {
    let mut dataset = "figure1".to_string();
    let mut seed = 1u64;
    let mut threads = 0usize;
    let mut json_out = false;
    let mut registry: Option<String> = None;
    let mut out = "results/diff.json".to_string();
    let mut scope_json: Option<String> = None;
    let mut files: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--dataset" => {
                dataset = it
                    .next()
                    .cloned()
                    .unwrap_or_else(|| die("--dataset needs a name"));
            }
            "--registry" => {
                registry = Some(
                    it.next()
                        .cloned()
                        .unwrap_or_else(|| die("--registry needs a path")),
                );
            }
            "--seed" => {
                seed = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--seed needs a number"));
            }
            "--threads" => {
                threads = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--threads needs a number"));
            }
            "--json" => json_out = true,
            "--out" => {
                out = it
                    .next()
                    .cloned()
                    .unwrap_or_else(|| die("--out needs a path"));
            }
            "--scope" => {
                scope_json = Some(
                    it.next()
                        .cloned()
                        .unwrap_or_else(|| die("--scope needs a JSON document")),
                );
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            path if !path.starts_with('-') => files.push(path.to_string()),
            other => die(&format!("unknown flag {other}")),
        }
    }
    let [old_path, new_path] = files.as_slice() else {
        die("diff needs exactly two rules.json paths (old, new)")
    };
    let scope = scope_json.map(|s| {
        er_analyze::EditScope::from_json(&s).unwrap_or_else(|e| {
            eprintln!("error: --scope: {e}");
            std::process::exit(2);
        })
    });
    let scenario = load_scenario(registry.as_deref(), &dataset, seed);
    let read = |path: &String| match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot read {path}: {e}");
            std::process::exit(2);
        }
    };
    let (old_json, new_json) = (read(old_path), read(new_path));
    let config = er_analyze::AnalyzeConfig::with_threads(threads);
    let report = match er_analyze::diff_json(
        &old_json,
        &new_json,
        &scenario.task,
        scope.as_ref(),
        &config,
    ) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let rendered_json = report.render_json();
    if json_out {
        println!("{rendered_json}");
    } else {
        print!("{}", report.render_text());
    }
    if let Some(dir) = std::path::Path::new(&out).parent() {
        if !dir.as_os_str().is_empty() {
            let _ = std::fs::create_dir_all(dir);
        }
    }
    match std::fs::write(&out, rendered_json + "\n") {
        Ok(()) => eprintln!("diff: saved {out}"),
        Err(e) => eprintln!("warning: cannot write {out}: {e}"),
    }
    if report.errors() > 0 {
        std::process::exit(1);
    }
}

/// The `lint` subcommand: run er-lint over a rule-set JSON file against the
/// named dataset scenario and render the report.
fn lint_main(args: &[String]) {
    let mut dataset = "figure1".to_string();
    let mut seed = 1u64;
    let mut json_out = false;
    let mut registry: Option<String> = None;
    let mut fix = false;
    let mut out: Option<String> = None;
    let mut file: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--dataset" => {
                dataset = it
                    .next()
                    .cloned()
                    .unwrap_or_else(|| die("--dataset needs a name"));
            }
            "--registry" => {
                registry = Some(
                    it.next()
                        .cloned()
                        .unwrap_or_else(|| die("--registry needs a path")),
                );
            }
            "--seed" => {
                seed = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--seed needs a number"));
            }
            "--json" => json_out = true,
            "--fix" => fix = true,
            "--out" => {
                out = Some(
                    it.next()
                        .cloned()
                        .unwrap_or_else(|| die("--out needs a path")),
                );
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            path if !path.starts_with('-') => file = Some(path.to_string()),
            other => die(&format!("unknown flag {other}")),
        }
    }
    let Some(path) = file else {
        die("lint needs a rules.json path")
    };

    let scenario = load_scenario(registry.as_deref(), &dataset, seed);

    let json = match std::fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot read {path}: {e}");
            std::process::exit(2);
        }
    };
    let rules: Vec<er_rules::PortableRule> = match serde_json::from_str(&json) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {path}: not a rule-set document: {e}");
            std::process::exit(2);
        }
    };
    let report = er_lint::lint_portable(&rules, &scenario.task);
    if fix {
        let outcome = er_lint::apply_fixes(&rules, &report);
        let cleaned = match serde_json::to_string_pretty(&outcome.kept) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: cannot serialize the cleaned rule set: {e}");
                std::process::exit(2);
            }
        };
        eprintln!(
            "fix: removed {} of {} rules (ER003/ER004), kept {}",
            outcome.removed.len(),
            rules.len(),
            outcome.kept.len()
        );
        match &out {
            Some(dest) => {
                if let Err(e) = std::fs::write(dest, cleaned + "\n") {
                    eprintln!("error: cannot write {dest}: {e}");
                    std::process::exit(2);
                }
                eprintln!("fix: wrote {dest}");
            }
            None => println!("{cleaned}"),
        }
    } else if json_out {
        println!("{}", report.render_json());
    } else {
        print!("{}", report.render_text());
    }
    if report.errors() > 0 {
        std::process::exit(1);
    }
}
