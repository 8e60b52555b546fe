#![forbid(unsafe_code)]
//! # er-bench — the experiment harness
//!
//! One runner per table/figure of the paper's evaluation (§V). Each runner
//! prints the same rows/series the paper reports and returns a
//! serde-serializable result that the `experiments` binary also writes to
//! `results/<id>.json`.
//!
//! | id | paper artefact |
//! |----|----------------|
//! | `table1` | Table I — dataset summary |
//! | `table2` | Table II — rule length statistics |
//! | `table3` | Table III — repair P/R/F1 per method |
//! | `fig6`   | Fig. 6 — varying noise rate (Adult) |
//! | `fig7`   | Fig. 7 — varying duplicate rate |
//! | `fig8`   | Fig. 8 — varying input size |
//! | `fig9`   | Fig. 9 — varying master size |
//! | `fig10`  | Fig. 10 — incremental input data (RLMiner-ft) |
//! | `fig11`  | Fig. 11 — incremental master data (RLMiner-ft) |
//! | `fig12`  | Fig. 12 — training & inference time |
//! | `ablate` | design-choice ablations (reward shaping, global mask, θ) |
//!
//! Scales: `Scale::Small` (default) divides the heavy datasets (Adult,
//! Nursery) by 16 and keeps Covid/Location at their already-small paper
//! sizes, so `experiments all` finishes on a laptop; `Scale::Paper`
//! restores everything. The *relative* behaviour of the miners (who wins,
//! where the crossovers are) is preserved at both scales.

pub mod incr_bench;
pub mod ingest_bench;
pub mod methods;
pub mod mine_bench;
pub mod repair_bench;
pub mod runners;
pub mod serve_bench;
pub mod shard_bench;
pub mod stats;
pub mod trajectory;

pub use incr_bench::{incr_bench, IncrBench};
pub use ingest_bench::{ingest_bench, IngestBench};
pub use methods::{ctane_method, enuminer_method, rlminer_method, MethodOutcome};
pub use mine_bench::{mine_bench, MineBench};
pub use repair_bench::{repair_bench, RepairBench};
pub use runners::*;
pub use serve_bench::{serve_bench, ServeBench};
pub use shard_bench::{shard_bench, ShardBench};
pub use stats::{mean_std, MeanStd};
pub use trajectory::{append_trajectory, validate_trajectory};

use er_datagen::{DatasetKind, Scenario, ScenarioConfig};
use serde::Serialize;

/// Experiment scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The paper's dataset sizes (EnuMiner runs can take a long time).
    Paper,
    /// Heavy datasets divided by 16 — same relative behaviour, laptop-fast.
    Small,
}

/// Global experiment configuration.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Dataset sizing.
    pub scale: Scale,
    /// Repetitions for mean ± std rows (the paper uses 5).
    pub repeats: usize,
    /// RLMiner training steps (paper: 5000).
    pub train_steps: usize,
    /// Safety valve on EnuMiner candidate evaluations (None = exhaustive).
    pub enu_budget: Option<usize>,
    /// Worker threads for the miners (`0` = auto: `ER_THREADS` or
    /// sequential). Mining results are identical at any thread count.
    pub threads: usize,
    /// Where JSON results are written.
    pub out_dir: std::path::PathBuf,
    /// Smoke-test mode (`--quick`): runners shrink their workloads, and
    /// `repair_bench` skips appending to the `BENCH_repair.json` trajectory.
    pub quick: bool,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            scale: Scale::Small,
            repeats: 3,
            train_steps: 5000,
            enu_budget: Some(1_000_000),
            threads: 0,
            out_dir: std::path::PathBuf::from("results"),
            quick: false,
        }
    }
}

impl ExperimentConfig {
    /// The paper-faithful configuration (`--paper-scale`).
    pub fn paper() -> Self {
        ExperimentConfig {
            scale: Scale::Paper,
            repeats: 5,
            enu_budget: None,
            ..Default::default()
        }
    }

    /// A fast smoke configuration (`--quick`): 1/16 sizes, short training.
    pub fn quick() -> Self {
        ExperimentConfig {
            repeats: 2,
            train_steps: 2000,
            enu_budget: Some(200_000),
            quick: true,
            ..Default::default()
        }
    }

    /// The scenario config for `kind` at this scale, seeded by `seed`.
    pub fn scenario_config(&self, kind: DatasetKind, seed: u64) -> ScenarioConfig {
        let paper = kind.paper_config();
        let divide = |v: usize, by: usize, floor: usize| (v / by).max(floor);
        let sized = match (self.scale, kind) {
            (Scale::Paper, _) => paper,
            // Covid and Location are already small in the paper.
            (Scale::Small, DatasetKind::Covid) | (Scale::Small, DatasetKind::Location) => paper,
            (Scale::Small, _) => ScenarioConfig {
                input_size: divide(paper.input_size, 16, 500),
                master_size: divide(paper.master_size, 16, 250),
                ..paper
            },
        };
        ScenarioConfig { seed, ..sized }
    }

    /// Build a scenario for `kind` with this config's scale.
    pub fn scenario(&self, kind: DatasetKind, seed: u64) -> Scenario {
        kind.build(self.scenario_config(kind, seed))
    }

    /// Write a result as pretty JSON under `out_dir`.
    pub fn write_json<T: Serialize>(&self, id: &str, value: &T) {
        if let Err(e) = std::fs::create_dir_all(&self.out_dir) {
            eprintln!("warn: cannot create {}: {e}", self.out_dir.display());
            return;
        }
        let path = self.out_dir.join(format!("{id}.json"));
        match serde_json::to_string_pretty(value) {
            Ok(json) => {
                if let Err(e) = std::fs::write(&path, json) {
                    eprintln!("warn: cannot write {}: {e}", path.display());
                } else {
                    println!("[saved {}]", path.display());
                }
            }
            Err(e) => eprintln!("warn: cannot serialize {id}: {e}"),
        }
    }
}
