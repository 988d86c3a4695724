//! Metric names, the per-run outcome and the result line.
//!
//! The two tables below are the benchmark's interface: `BENCHMARK.json`
//! lists the same names and units, and a test keeps them in step.

use std::collections::BTreeMap;
use telemetry::json::{self, JsonObject};

/// End-to-end metrics, reported by every untraced run of every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("pass_ref", "ref"),
    ("sim_kinst_per_ref", "kinst/ref"),
    ("point_ref_p50", "ref"),
    ("point_ref_p99", "ref"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by every traced run. A layer a workload
/// does not exercise in its timed phase reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("trace.gen_ns_per_inst", "ns"),
    ("core.config_ms_p50", "ms"),
    ("core.config_ms_p99", "ms"),
    ("core.ns_per_sim_cycle", "ns"),
    ("core.sim_cycles", "count"),
    ("cache.l1d_miss_ratio", "ratio"),
    ("cache.l2_miss_ratio", "ratio"),
    ("cache.l3_miss_ratio", "ratio"),
    ("tlb.dtlb_misses", "count"),
    ("bpred.mispredict_ratio", "ratio"),
    ("sweep.busy_s", "s"),
    ("sweep.parallel_eff", "ratio"),
    ("dse.table_ms", "ms"),
    ("fit.train_ms.NN-E", "ms"),
    ("fit.train_ms.NN-S", "ms"),
    ("fit.train_ms.LR-B", "ms"),
    ("cv.estimate_ms.NN-E", "ms"),
    ("cv.estimate_ms.NN-S", "ms"),
    ("cv.estimate_ms.LR-B", "ms"),
    ("predict.ns_per_row", "ns"),
    ("serve.parse_us_per_req", "us"),
    ("serve.predict_us_per_row", "us"),
    ("serve.reload_ms", "ms"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.batch_rows", "count"),
    ("serve.max_queue_depth", "count"),
    ("serve.shed", "count"),
    ("serve.degraded_rejects", "count"),
    ("self_s.bench", "s"),
    ("self_s.sweep", "s"),
    ("self_s.cpusim", "s"),
    ("self_s.dse", "s"),
    ("self_s.mlmodels", "s"),
    ("self_s.serve", "s"),
    ("tracing.overhead_s", "s"),
];

/// What one run measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted: simulations, fits and request frames.
    pub attempted: u64,
    /// Operations that failed: non-finite simulations, dropped fits, and
    /// shed, expired, degraded, invalid or unanswered frames.
    pub failed: u64,
    /// Output checks that did not hold.
    pub problems: Vec<String>,
    values: BTreeMap<String, f64>,
    /// Report lines printed before the result line.
    pub lines: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.lines.push(line.into());
    }

    /// Record a check; a failed one makes the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    /// The result line: the end-to-end metrics for an untraced run, the
    /// per-layer metrics for a traced one.
    pub fn result_line(&mut self, traced: bool) -> String {
        let table = if traced { PER_LAYER } else { END_TO_END };
        let mut metrics = JsonObject::new();
        for &(name, unit) in table {
            let value = match self.values.get(name) {
                Some(v) if v.is_finite() => *v,
                Some(v) => {
                    self.problems
                        .push(format!("metric {name} is not finite ({v})"));
                    0.0
                }
                // Layers a workload does not exercise read 0.
                None if traced => 0.0,
                None => {
                    self.problems
                        .push(format!("metric {name} was not measured"));
                    0.0
                }
            };
            let entry = JsonObject::new()
                .raw("value", &json::number(value))
                .str("unit", unit)
                .finish();
            metrics = metrics.raw(name, &entry);
        }
        JsonObject::new()
            .bool("correct", self.problems.is_empty())
            .uint("attempted", self.attempted.max(1))
            .uint("failed", self.failed)
            .raw("metrics", &metrics.finish())
            .finish()
    }

    /// Human-readable value lines for every metric of the run's table.
    pub fn metric_lines(&self, traced: bool) -> Vec<String> {
        let table = if traced { PER_LAYER } else { END_TO_END };
        table
            .iter()
            .filter_map(|&(name, unit)| {
                self.values
                    .get(name)
                    .map(|v| format!("  {name:<24} {v:>14.6} {unit}"))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use telemetry::json::Value;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn metric_names_and_units_are_well_formed_and_unique() {
        assert!(END_TO_END.len() <= 16, "at most 16 end-to-end metrics");
        assert!(PER_LAYER.len() <= 128, "at most 128 per-layer metrics");
        let mut seen = std::collections::BTreeSet::new();
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "bad metric name {name:?}");
            assert!(valid_unit(unit), "bad unit {unit:?} for {name}");
            assert!(seen.insert(name), "metric {name} listed twice");
        }
        assert!(!valid_name("a b") && !valid_name("-x") && !valid_name("é"));
    }

    fn listed(doc: &Value, key: &str) -> Vec<(String, String)> {
        let Some(Value::Arr(items)) = doc.get(key) else {
            panic!("BENCHMARK.json has no {key} list");
        };
        items
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Value::as_str).expect(k).to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed(&doc, "end_to_end"), own(END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), own(PER_LAYER));
    }

    #[test]
    fn result_line_reports_every_metric_of_its_table() {
        let mut out = Outcome::default();
        for &(name, _) in END_TO_END {
            out.set(name, 1.5);
        }
        let line = out.result_line(false);
        let v = json::parse(&line).expect("result line is JSON");
        assert_eq!(v.get("correct"), Some(&Value::Bool(true)));
        for &(name, unit) in END_TO_END {
            let m = v.get("metrics").and_then(|m| m.get(name)).expect(name);
            assert_eq!(m.get("value").and_then(Value::as_f64), Some(1.5));
            assert_eq!(m.get("unit").and_then(Value::as_str), Some(unit));
        }
        // A traced run fills unexercised layers with 0.
        let traced = json::parse(&out.result_line(true)).expect("JSON");
        let metrics = traced.get("metrics").expect("metrics");
        assert!(PER_LAYER.iter().all(|(n, _)| metrics.get(n).is_some()));
    }

    #[test]
    fn a_missing_or_non_finite_end_to_end_metric_makes_the_run_incorrect() {
        let mut out = Outcome::default();
        out.set("pass_ref", f64::NAN);
        let v = json::parse(&out.result_line(false)).expect("JSON");
        assert_eq!(v.get("correct"), Some(&Value::Bool(false)));
        assert!(out.problems.iter().any(|p| p.contains("pass_ref")));
        assert!(out.problems.iter().any(|p| p.contains("setup_s")));
    }
}
