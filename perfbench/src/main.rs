//! The maxrs benchmark: four seeded workloads, end-to-end metrics from
//! untraced runs and a per-layer split from traced runs.
//!
//! ```text
//! maxrs-perfbench --workload <paper-sim|serve-sharded|cluster-tcp|live-updates>
//!                 --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//! ```
//!
//! Every answer is checked against a reference computed outside the timed
//! region.  The last line of standard output is the result object; the lines
//! before it (prefixed `#`) are the readable report and the provenance.
//! With `--trace 1` the spans are written to `<out>/trace-<workload>-<seed>.jsonl`.
//! See `README.md` in this directory for the workloads and metrics.

mod cluster_tcp;
mod common;
#[cfg(test)]
mod defects;
mod gate;
mod live_updates;
mod paper_sim;
mod report;
mod serve_sharded;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use crate::report::Outcome;
use crate::trace::Tracer;

/// Fewest queries a run answers: p90 then has ten samples beyond it.
pub const MIN_QUERIES: usize = 100;

/// A seed kept out of development runs, for confirming a later claim on
/// inputs the change was not tuned on.
pub const HELD_OUT_SEED: u64 = 424_242;

/// The workloads, by name.
pub const WORKLOADS: [&str; 4] = ["paper-sim", "serve-sharded", "cluster-tcp", "live-updates"];

/// What one invocation runs.
#[derive(Debug)]
pub struct RunConfig {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: Duration,
    /// Span recorder (disabled for untraced runs).
    pub tracer: Arc<Tracer>,
    /// Where traced runs write their spans.
    pub out_dir: PathBuf,
}

fn parse_args() -> Result<RunConfig, String> {
    let mut args = std::env::args().skip(1);
    let mut flags = BTreeMap::new();
    while let Some(flag) = args.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag}"))?
            .to_string();
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(key, value);
    }
    let take = |flags: &mut BTreeMap<String, String>, key: &str| {
        flags.remove(key).ok_or_else(|| format!("missing --{key}"))
    };
    let workload = take(&mut flags, "workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seed = take(&mut flags, "seed")?
        .parse::<u64>()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds = take(&mut flags, "seconds")?
        .parse::<f64>()
        .ok()
        .filter(|s| s.is_finite() && *s > 0.0)
        .ok_or("--seconds must be a positive number")?;
    let traced = match take(&mut flags, "trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    let out_dir = PathBuf::from(
        flags
            .remove("out")
            .unwrap_or_else(|| ".perfbench-out".into()),
    );
    if let Some(extra) = flags.keys().next() {
        return Err(format!("unknown flag --{extra}"));
    }
    Ok(RunConfig {
        workload,
        seed,
        seconds: Duration::from_secs_f64(seconds),
        tracer: Arc::new(Tracer::new(traced)),
        out_dir,
    })
}

fn provenance(cfg: &RunConfig, backend: &str) -> String {
    let env = |key: &str| std::env::var(key).unwrap_or_else(|_| "unknown".into());
    let cores = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    format!(
        "# provenance {{\"workload\": \"{}\", \"seed\": {}, \"held_out_seed\": {HELD_OUT_SEED}, \
         \"cores\": {cores}, \"backend\": \"{backend}\", \"profile\": \"{}\", \"git_rev\": \"{}\", \
         \"rustc\": \"{}\", \"trace\": {}, \"seconds\": {}}}",
        cfg.workload,
        cfg.seed,
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        env("PERFBENCH_GIT_REV"),
        env("PERFBENCH_RUSTC"),
        u8::from(cfg.tracer.enabled()),
        cfg.seconds.as_secs_f64(),
    )
}

fn main() -> ExitCode {
    let cfg = match parse_args() {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("maxrs-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result: Result<Outcome, String> = match cfg.workload.as_str() {
        "paper-sim" => paper_sim::run(&cfg),
        "serve-sharded" => serve_sharded::run(&cfg),
        "cluster-tcp" => cluster_tcp::run(&cfg),
        "live-updates" => live_updates::run(&cfg),
        _ => unreachable!("validated by parse_args"),
    };
    let mut outcome = match result {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("maxrs-perfbench: {}: {e}", cfg.workload);
            return ExitCode::from(1);
        }
    };
    outcome.set("peak_rss_mb", common::peak_rss_mb(), 1);
    let traced = cfg.tracer.enabled();
    if traced {
        if let Some(p50) = outcome.metrics.get("query_p50_ms").copied() {
            outcome.set("trace.query_p50_ms", p50.value, p50.samples);
        }
        let path = cfg
            .out_dir
            .join(format!("trace-{}-{}.jsonl", cfg.workload, cfg.seed));
        if let Err(e) = cfg.tracer.write_jsonl(&path) {
            eprintln!("maxrs-perfbench: writing {}: {e}", path.display());
            return ExitCode::from(1);
        }
        outcome.note(format!(
            "{} spans written to {}",
            cfg.tracer.spans().len(),
            path.display()
        ));
    }
    print!("{}", outcome.readable(traced));
    println!("{}", provenance(&cfg, outcome.backend));
    match outcome.result_line(traced) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("maxrs-perfbench: {e}");
            return ExitCode::from(1);
        }
    }
    if outcome.gate.failed() > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
