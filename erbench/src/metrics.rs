//! The metric registry and the result line.
//!
//! Every metric the benchmark can print is declared here with its unit and
//! direction; `BENCHMARK.json` must list the same names, units and
//! directions (checked by this module's tests).

use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

// Directions and name validity are checked against BENCHMARK.json by the
// tests below; the run itself prints names and units only.
#[cfg_attr(not(test), allow(dead_code))]
impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A declared metric.
#[derive(Debug, Clone, Copy)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: Better,
}

const fn def(name: &'static str, unit: &'static str, better: Better) -> Def {
    Def { name, unit, better }
}

use Better::{Higher, Lower};

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: &[Def] = &[
    def("setup_s", "s", Lower),
    def("latency_p50_us", "us", Lower),
    def("latency_tail_us", "us", Lower),
    def("within_limit_share", "ratio", Higher),
    def("ok_share", "ratio", Higher),
    def("f1", "ratio", Higher),
    def("peak_rss_mib", "MiB", Lower),
];

/// Per-layer metrics, printed by every traced run. A layer a workload does
/// not call reads 0 there.
pub const PER_LAYER: &[Def] = &[
    def("rl.learn_s", "s", Lower),
    def("rl.select_action_s", "s", Lower),
    def("rlminer.state_s", "s", Lower),
    def("rlminer.mask_s", "s", Lower),
    def("rlminer.step_s", "s", Lower),
    def("rlminer.fresh_evaluations", "count", Lower),
    def("rlminer.infer_s", "s", Lower),
    def("rlminer.setup_s", "s", Lower),
    def("serve.setup_s", "s", Lower),
    def("serve.start_s", "s", Lower),
    def("serve.handle_line_p50_us", "us", Lower),
    def("serve.tcp_p50_us", "us", Lower),
    def("serve.parse_p50_us", "us", Lower),
    def("serve.render_p50_us", "us", Lower),
    def("serve.engine_repair_p50_us", "us", Lower),
    def("shard.repair_batch_p50_us", "us", Lower),
    def("rules.repair_batch_p50_us", "us", Lower),
    def("rules.probes_per_row", "ratio", Lower),
    def("shard.broadcast_share", "ratio", Lower),
    def("gen.send_lag_p99_us", "us", Lower),
    def("gen.late", "count", Lower),
    def("ingest.next_batch_s", "s", Lower),
    def("ingest.mib_per_s", "MiB/s", Higher),
    def("ingest.peak_buffer_bytes", "bytes", Lower),
    def("serve.engine_repair_s", "s", Lower),
    def("rules.repair_batch_s", "s", Lower),
    def("serve.repair_csv_s", "s", Lower),
    def("trace.overhead_share", "ratio", Lower),
];

/// Whether `name` is a valid metric or workload name: starts with a letter
/// or digit, at most 64 letters, digits, `_`, `.` and `-`.
#[cfg_attr(not(test), allow(dead_code))]
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// What one run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub values: BTreeMap<&'static str, f64>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// The result line: every metric of `defs`, in declaration order.
    /// Errors name a metric the run did not measure or measured as a
    /// non-finite number.
    pub fn render(&self, defs: &[Def]) -> Result<String, String> {
        let mut metrics = Vec::with_capacity(defs.len());
        for d in defs {
            let v = *self
                .values
                .get(d.name)
                .ok_or_else(|| format!("metric {} was not measured", d.name))?;
            if !v.is_finite() {
                return Err(format!("metric {} is not finite: {v}", d.name));
            }
            metrics.push(format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                d.name, d.unit
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn manifest() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        serde_json::from_str(&text).expect("BENCHMARK.json parses")
    }

    fn listed(manifest: &Value, key: &str) -> Vec<(String, String, String)> {
        manifest
            .get(key)
            .and_then(Value::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key}"))
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Value::as_str).unwrap_or("").to_string();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    #[test]
    fn metric_names_are_valid_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(d.name), "invalid metric name {}", d.name);
            assert!(seen.insert(d.name), "duplicate metric name {}", d.name);
            assert!(
                !d.unit.is_empty() && d.unit.len() <= 16,
                "unit of {}",
                d.name
            );
        }
        assert!(!valid_name("-lead"));
        assert!(!valid_name("has space"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_name("rl.learn_s"));
    }

    #[test]
    fn every_printed_metric_is_in_benchmark_json() {
        let manifest = manifest();
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = listed(&manifest, key);
            let declared: Vec<(String, String, String)> = defs
                .iter()
                .map(|d| (d.name.into(), d.unit.into(), d.better.as_str().into()))
                .collect();
            assert_eq!(listed, declared, "{key} differs from the registry");
        }
        let workloads: Vec<String> = manifest
            .get("workloads")
            .and_then(Value::as_array)
            .expect("workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Value::as_str)
                    .unwrap_or("")
                    .to_string()
            })
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
        for w in &workloads {
            assert!(valid_name(w), "invalid workload name {w}");
        }
        let e2e = manifest
            .get("end_to_end")
            .and_then(Value::as_array)
            .unwrap();
        let setup = e2e
            .iter()
            .find(|m| m.get("name").and_then(Value::as_str) == Some("setup_s"))
            .expect("setup_s is an end-to-end metric");
        let bound = |m: &Value| match m.get("bound") {
            Some(Value::Float(b)) => *b,
            Some(Value::Int(b)) => *b as f64,
            other => panic!("bound {other:?}"),
        };
        for m in e2e {
            assert!(bound(m) > 0.0 && bound(m) <= 0.25);
            assert!(
                bound(m) <= bound(setup),
                "setup_s must carry the largest bound"
            );
        }
    }

    #[test]
    fn render_prints_every_metric_with_its_unit() {
        let mut o = Outcome {
            correct: true,
            attempted: 3,
            failed: 0,
            ..Outcome::default()
        };
        for (i, d) in END_TO_END.iter().enumerate() {
            o.set(d.name, 0.5 + i as f64);
        }
        let line = o.render(END_TO_END).unwrap();
        let v: Value = serde_json::from_str(&line).unwrap();
        let metrics = v.get("metrics").and_then(Value::as_object).unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(
            v.get("metrics")
                .and_then(|m| m.get("setup_s"))
                .and_then(|m| m.get("unit"))
                .and_then(Value::as_str),
            Some("s")
        );
        assert!(o.render(PER_LAYER).is_err());
        o.set("setup_s", f64::NAN);
        assert!(o.render(END_TO_END).is_err());
    }
}
