//! Metric names and units, a run's outcome, and the result line.
//!
//! The two tables below define the benchmark's output and are mirrored in
//! `BENCHMARK.json` (a test keeps them in step).  An untraced run reports
//! every end-to-end metric; a traced run reports every per-layer metric.  A
//! layer a workload does not exercise reports 0 and is listed as idle.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::gate::Gate;

/// End-to-end metrics, reported by every workload with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("query_p50_ms", "ms"),
    ("query_p90_ms", "ms"),
    ("qps", "1/s"),
    ("io_blocks_per_query", "blocks"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by every workload with tracing on.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("em.prepare_ms", "ms"),
    ("em.prepare_io", "blocks"),
    ("em.reads_per_query", "blocks"),
    ("em.writes_per_query", "blocks"),
    ("em.pool_hit_rate", "ratio"),
    ("sweep.transform_ms", "ms"),
    ("sweep.transform_io", "blocks"),
    ("sweep.distribution_ms", "ms"),
    ("sweep.distribution_io", "blocks"),
    ("sweep.extract_ms", "ms"),
    ("sweep.canonicalize_ms", "ms"),
    ("sweep.canonicalize_io", "blocks"),
    ("sweep.topk_over_maxrs", "ratio"),
    ("serve.submit_us", "us"),
    ("serve.execute_ms", "ms"),
    ("serve.wait_ms", "ms"),
    ("serve.mean_batch", "queries"),
    ("serve.groups_per_query", "ratio"),
    ("serve.shed", "count"),
    ("serve.gen_late_ms", "ms"),
    ("shard.prepare_ms", "ms"),
    ("shard.imbalance", "ratio"),
    ("shard.touched_per_query", "shards"),
    ("cluster.rpc.describe.calls", "calls/query"),
    ("cluster.rpc.describe.ms", "ms"),
    ("cluster.rpc.distribute.calls", "calls/query"),
    ("cluster.rpc.distribute.ms", "ms"),
    ("cluster.rpc.solve.calls", "calls/query"),
    ("cluster.rpc.solve.ms", "ms"),
    ("cluster.rpc.breakpoint.calls", "calls/query"),
    ("cluster.rpc.breakpoint.ms", "ms"),
    ("cluster.rpc.evaluate.calls", "calls/query"),
    ("cluster.rpc.evaluate.ms", "ms"),
    ("cluster.rpc.fetch_objects.calls", "calls/query"),
    ("cluster.rpc.fetch_objects.ms", "ms"),
    ("cluster.rpc_failures", "count"),
    ("cluster.encode_us", "us"),
    ("cluster.request_bytes_per_query", "bytes"),
    ("cluster.response_bytes_per_query", "bytes"),
    ("cluster.server_ms", "ms"),
    ("cluster.coordinator_self_ms", "ms"),
    ("cluster.fan_out", "servers"),
    ("delta.apply_us_per_event", "us"),
    ("delta.compactions", "count"),
    ("delta.compaction_ms", "ms"),
    ("delta.compaction_io", "blocks"),
    ("delta.pending_mean", "records"),
    ("delta.space_amp", "ratio"),
    ("stream.apply_us_per_event", "us"),
    ("stream.cells_swept_ratio", "ratio"),
    ("ingest_eps", "1/s"),
    ("stream_ingest_eps", "1/s"),
    ("stream_answer_p50_ms", "ms"),
    ("trace.query_p50_ms", "ms"),
];

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map_or("", |(_, unit)| unit)
}

/// One measured value with the number of samples behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Value {
    /// The figure.
    pub value: f64,
    /// Samples it was computed from (1 for a single measurement or count).
    pub samples: usize,
}

/// What a workload measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Storage backend of the workload's datasets.
    pub backend: &'static str,
    /// Correctness gate of the run.
    pub gate: Gate,
    /// Every measured metric by name.
    pub metrics: BTreeMap<&'static str, Value>,
    /// Free-form lines for the readable report (sizes, rates, I/O repeats).
    pub notes: Vec<String>,
}

impl Outcome {
    /// An outcome for a workload on `backend`.
    pub fn new(backend: &'static str) -> Self {
        Outcome {
            backend,
            ..Outcome::default()
        }
    }

    /// Records a metric.
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        self.metrics.insert(name, Value { value, samples });
    }

    /// Adds a line to the readable report.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// The readable report: every measured metric with unit and sample
    /// count, the gate's failures and the notes.
    pub fn readable(&self, traced: bool) -> String {
        let mut out = String::new();
        for (name, v) in &self.metrics {
            let _ = writeln!(
                out,
                "# {name:<34} {:>16.4} {:<12} n={}",
                v.value,
                unit_of(name),
                v.samples
            );
        }
        let _ = writeln!(
            out,
            "# {:<34} {:>16.4} {:<12} n={}",
            "error_rate",
            self.gate.error_rate(),
            "ratio",
            self.gate.attempted()
        );
        if traced {
            let idle: Vec<&str> = PER_LAYER
                .iter()
                .map(|(n, _)| *n)
                .filter(|n| !self.metrics.contains_key(n))
                .collect();
            if !idle.is_empty() {
                let _ = writeln!(out, "# idle here (reported as 0): {}", idle.join(", "));
            }
        }
        for f in self.gate.failures() {
            let _ = writeln!(out, "# FAILED: {f}");
        }
        for n in &self.notes {
            let _ = writeln!(out, "# {n}");
        }
        out
    }

    /// The result line: `correct`, `attempted`, `failed` and the metrics of
    /// the selected table.  Errors if an end-to-end metric is missing or
    /// any reported value is not finite.
    pub fn result_line(&self, traced: bool) -> Result<String, String> {
        let table = if traced { PER_LAYER } else { END_TO_END };
        let mut metrics = Vec::with_capacity(table.len());
        for (name, unit) in table {
            let value = match self.metrics.get(name) {
                Some(v) => v.value,
                None if traced => 0.0,
                None => return Err(format!("end-to-end metric {name} was not measured")),
            };
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            metrics.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.gate.failed() == 0 && self.gate.attempted() > 0,
            self.gate.attempted(),
            self.gate.failed(),
            metrics.join(", ")
        ))
    }
}

/// A finite float as a JSON number with every digit of its shortest
/// round-trip representation.
fn json_number(v: f64) -> String {
    let s = format!("{v}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names_in_benchmark_json(section: &str) -> Vec<String> {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits at the repository root");
        let start = json
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("section closes")];
        body.split("\"name\"")
            .skip(1)
            .map(|rest| rest.split('"').nth(1).expect("quoted name").to_string())
            .collect()
    }

    #[test]
    fn tables_match_benchmark_json() {
        let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        let layers: Vec<String> = PER_LAYER.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(names_in_benchmark_json("end_to_end"), e2e);
        assert_eq!(names_in_benchmark_json("per_layer"), layers);
    }

    #[test]
    fn a_failed_gate_reports_incorrect() {
        let mut outcome = Outcome::new("sim");
        for (name, _) in END_TO_END {
            outcome.set(name, 1.5, 1);
        }
        outcome.gate.attempt();
        let line = outcome.result_line(false).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0,"));
        outcome.gate.check("q", &1, &2);
        let line = outcome.result_line(false).unwrap();
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 1, \"failed\": 1,"));
    }

    #[test]
    fn missing_end_to_end_metric_is_an_error_and_idle_layers_are_zero() {
        let outcome = Outcome::new("sim");
        assert!(outcome.result_line(false).is_err());
        let line = outcome.result_line(true).unwrap();
        assert!(line.contains("\"cluster.fan_out\": {\"value\": 0.0, \"unit\": \"servers\"}"));
    }
}
