//! Pieces shared by the workloads.

use crate::calib::{self, Timings};
use crate::trace::{span, Tracer};
use er_datagen::{DatasetKind, Scenario, ScenarioConfig};
use er_rules::{rules_from_json, BatchRepairer, EditingRule, Task};
use er_serve::{EngineError, RepairEngine, ServeConfig, Server};
use std::collections::HashSet;
use std::path::PathBuf;
use std::time::Instant;

/// The rule set the serving workloads load: the output of the `mine`
/// workload's run at [`RULES_SEED`] (regenerate with `--emit-rules`).
pub const MINED_RULES: &str = include_str!("../rules/covid_mined.json");

/// The `--seed` whose `mine` run produced [`MINED_RULES`].
pub const RULES_SEED: u64 = 1;

/// The served configuration: `nproc` workers, rule set loaded ungated.
pub fn serve_config() -> ServeConfig {
    ServeConfig {
        workers: nproc(),
        analysis_gate: false,
        ..ServeConfig::default()
    }
}

/// Build the engine `builds` times, each build dropped before the next
/// starts and preceded by a calibration pass, then start a server (with its
/// start-up analysis) on the last one. Returns the build times, whose
/// scaled median is the set-up time, and the server.
pub fn set_up_server(
    builds: usize,
    mut tracer: Option<&mut Tracer>,
    build: impl Fn() -> Result<RepairEngine, EngineError>,
) -> Result<(Timings, Server), String> {
    let mut times = Timings::default();
    let mut last = None;
    for _ in 0..builds {
        drop(last.take());
        let factor = calib::factor();
        let t = Instant::now();
        let engine = span(tracer.as_deref_mut(), "serve.setup", 0, &build)
            .map_err(|e| format!("engine: {e}"))?;
        times.push(t.elapsed().as_secs_f64(), factor);
        last = Some(engine);
    }
    let engine = last.ok_or("no engine built")?;
    let server = span(tracer, "serve.start", 0, || {
        Server::new(engine, serve_config())
    });
    Ok((times, server))
}

/// Worker threads for pools and servers, and the generator's thread and
/// connection budget: the host's parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Scratch directory for generated files and trace dumps, inside the
/// benchmark's own directory.
pub fn work_dir() -> Result<PathBuf, String> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("work");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// The Covid scenario at the paper's noise rate with explicit sizes.
pub fn covid(seed: u64, input_size: usize, master_size: usize) -> Scenario {
    DatasetKind::Covid.build(ScenarioConfig {
        input_size,
        master_size,
        seed,
        ..DatasetKind::Covid.paper_config()
    })
}

/// Resolve the committed rule set against `task`, printing its shape.
pub fn mined_rules(task: &Task) -> Result<Vec<EditingRule>, String> {
    let rules = rules_from_json(MINED_RULES, task).map_err(|e| format!("mined rules: {e}"))?;
    let groups: HashSet<_> = rules.iter().map(|r| r.lhs().to_vec()).collect();
    let patterned = rules
        .iter()
        .filter(|r| !r.pattern_attrs().is_empty())
        .count();
    println!(
        "rules: {} mined rules (seed {RULES_SEED}), {} LHS groups, {patterned} with patterns",
        rules.len(),
        groups.len()
    );
    Ok(rules)
}

fn status_kib(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    fn malloc_trim(pad: usize) -> i32;
}

/// Hand the heap pages freed so far back to the kernel, such as those of
/// the input generator and the answer keys: glibc keeps them otherwise,
/// and they would count as the program's resident memory.
pub fn release_freed_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    // SAFETY: malloc_trim only releases free heap memory; it has no
    // preconditions.
    unsafe {
        malloc_trim(0);
    }
}

/// Reset the kernel's peak-RSS mark to the current RSS, so the peak read
/// later covers only what runs from now on.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size since the last reset, MiB.
pub fn peak_rss_mib() -> f64 {
    status_kib("VmHWM:").map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Resident set size now, MiB.
pub fn rss_mib() -> f64 {
    status_kib("VmRSS:").map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Weighted F1 (the paper's measure) of the repairs `rules` make to the
/// scenario's input, against its ground truth, by the unsharded repair core
/// the served answers are checked against.
pub fn repair_f1(s: &Scenario, rules: &[EditingRule]) -> Result<f64, String> {
    let repairer = BatchRepairer::new(
        s.task.master().clone(),
        s.task.target(),
        rules.to_vec(),
        nproc(),
    )
    .map_err(|e| format!("repairer: {e}"))?;
    let report = repairer
        .repair_batch(s.task.input())
        .map_err(|e| format!("repair: {e}"))?;
    Ok(s.evaluate(&report).f1)
}

/// The serving workloads' `f1`: [`repair_f1`] of the served rule set on the
/// Covid scenario of the workload's sizes at data seed [`RULES_SEED`], the
/// seed the rules were mined at. It does not depend on `--seed`, so it
/// repeats from run to run and only a change to the repair core can move
/// it; on the seeded inputs the served rules meet foreign data and their F1
/// spreads by 5 to 8% from seed to seed.
pub fn served_f1(input_size: usize, master_size: usize) -> Result<f64, String> {
    let s = covid(RULES_SEED, input_size, master_size);
    let rules = rules_from_json(MINED_RULES, &s.task).map_err(|e| format!("mined rules: {e}"))?;
    repair_f1(&s, &rules)
}

/// Operation counts of one run.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    pub attempted: u64,
    pub ok: u64,
    pub error: u64,
    pub overloaded: u64,
    pub timed_out: u64,
}

impl Counts {
    pub fn failed(&self) -> u64 {
        self.error + self.overloaded + self.timed_out
    }

    pub fn ok_share(&self) -> f64 {
        self.ok as f64 / self.attempted.max(1) as f64
    }

    pub fn print(&self) {
        println!(
            "ops: attempted={} ok={} error={} overloaded={} timed_out={} failed_share={}",
            self.attempted,
            self.ok,
            self.error,
            self.overloaded,
            self.timed_out,
            self.failed() as f64 / self.attempted.max(1) as f64
        );
    }
}
