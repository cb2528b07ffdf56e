//! Running one algorithm on one dataset under one EM configuration.

use std::time::Instant;

use maxrs_baselines::{asb_tree_sweep, naive_sweep, Algorithm};
use maxrs_core::{
    exact_max_rs, load_objects, max_k_rs_in_memory, EngineOptions, EngineRun, ExactMaxRsOptions,
    MaxRsEngine, MaxRsResult, Query, QueryAnswer, QueryBatch, QueryRun,
};
use maxrs_em::{EmConfig, EmContext, IoSnapshot};
use maxrs_geometry::{RectSize, WeightedPoint};

use crate::json::Value;

/// Outcome of one algorithm run: the answer and the I/O it cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AlgorithmRun {
    /// Which algorithm ran.
    pub algorithm: Algorithm,
    /// The MaxRS answer it produced.
    pub result: MaxRsResult,
    /// Blocks transferred while solving (dataset loading excluded, exactly as
    /// the paper measures query processing only).
    pub io: IoSnapshot,
}

/// Runs `algorithm` on `objects` under a fresh EM context with the given
/// configuration and query rectangle, measuring only the solving phase.
pub fn run_algorithm(
    algorithm: Algorithm,
    config: EmConfig,
    objects: &[WeightedPoint],
    size: RectSize,
) -> maxrs_core::Result<AlgorithmRun> {
    let ctx = EmContext::new(config);
    let file = load_objects(&ctx, objects)?;
    // Loading the dataset is not part of the measured query cost.
    ctx.reset_stats();
    let result = match algorithm {
        Algorithm::NaiveSweep => naive_sweep(&ctx, &file, size)?,
        Algorithm::AsbTree => asb_tree_sweep(&ctx, &file, size)?,
        // The figures reproduce the *paper's* sequential sweep, so the
        // parallel slab stage is pinned off here regardless of the host's
        // core count; `run_engine` below measures the parallel variant.
        Algorithm::ExactMaxRs => exact_max_rs(&ctx, &file, size, &ExactMaxRsOptions::sequential())?,
    };
    let io = ctx.stats();
    Ok(AlgorithmRun {
        algorithm,
        result,
        io,
    })
}

/// Runs a MaxRS query through the [`MaxRsEngine`] facade under a fresh EM
/// context, measuring only the solving phase (dataset loading excluded).
///
/// `parallelism` caps the worker threads of the parallel slab stage; `1`
/// forces the engine's external-sequential path for datasets that exceed the
/// memory budget, making `run_engine(cfg, objs, size, 1)` vs.
/// `run_engine(cfg, objs, size, n)` a direct sequential-vs-parallel
/// comparison.
pub fn run_engine(
    config: EmConfig,
    objects: &[WeightedPoint],
    size: RectSize,
    parallelism: usize,
) -> maxrs_core::Result<EngineRun> {
    let engine = MaxRsEngine::with_options(EngineOptions {
        em_config: config,
        exact: ExactMaxRsOptions {
            parallelism,
            ..Default::default()
        },
        force_strategy: None,
    });
    let ctx = EmContext::new(config);
    let file = load_objects(&ctx, objects)?;
    // The engine reports I/O as a delta across the solve, so the load above
    // is already excluded from the returned EngineRun.
    engine.solve_file(&ctx, &file, size)
}

/// Runs any [`Query`] variant through the [`MaxRsEngine`] under a fresh EM
/// context, measuring only the query phase (dataset loading excluded) — the
/// variant-polymorphic sibling of [`run_engine`] behind the `engine_variants`
/// bench rows.
pub fn run_query(
    config: EmConfig,
    objects: &[WeightedPoint],
    query: &Query,
    parallelism: usize,
) -> maxrs_core::Result<QueryRun> {
    let engine = MaxRsEngine::with_options(EngineOptions {
        em_config: config,
        exact: ExactMaxRsOptions {
            parallelism,
            ..Default::default()
        },
        force_strategy: None,
    });
    let ctx = EmContext::new(config);
    let file = load_objects(&ctx, objects)?;
    // As in `run_engine`, the engine reports I/O as a delta across the query,
    // which already excludes the load above.
    engine.run_file(&ctx, &file, query)
}

/// One cold-vs-prepared comparison: the same query answered by a stateless
/// [`MaxRsEngine::run_file`] (pays the external sort every time) and by the
/// second run on a [`PreparedDataset`](maxrs_core::PreparedDataset) (sort
/// paid once at prepare time), with wall-clock and I/O for every phase and
/// the storage-backend name recorded alongside.
#[derive(Debug, Clone, PartialEq)]
pub struct PreparedReuseRun {
    /// Storage-backend name of the context ("sim", "fs").
    pub backend: String,
    /// Short name of the query variant measured.
    pub query: String,
    /// Dataset cardinality.
    pub n: u64,
    /// Wall-clock of the cold single-shot query, in nanoseconds.
    pub cold_ns: u128,
    /// Wall-clock of the one-time preparation (external x-sort).
    pub prepare_ns: u128,
    /// Wall-clock of the *second* query on the prepared dataset (the first
    /// warm run is discarded as pool warm-up).
    pub warm_ns: u128,
    /// Blocks transferred by the cold query.
    pub cold_io: IoSnapshot,
    /// Blocks transferred by the preparation.
    pub prepare_io: IoSnapshot,
    /// Blocks transferred by the measured warm query.
    pub warm_io: IoSnapshot,
}

impl PreparedReuseRun {
    /// Serializes the comparison for the experiment harness's JSON output.
    pub fn to_value(&self) -> Value {
        Value::object(vec![
            ("id", Value::String("prepared_reuse".into())),
            ("backend", Value::String(self.backend.clone())),
            ("query", Value::String(self.query.clone())),
            ("n", Value::Number(self.n as f64)),
            ("cold_ns", Value::Number(self.cold_ns as f64)),
            ("prepare_ns", Value::Number(self.prepare_ns as f64)),
            ("warm_ns", Value::Number(self.warm_ns as f64)),
            ("cold_io", Value::Number(self.cold_io.total() as f64)),
            ("prepare_io", Value::Number(self.prepare_io.total() as f64)),
            ("warm_io", Value::Number(self.warm_io.total() as f64)),
            (
                "io_saved_per_query",
                Value::Number(self.cold_io.total_delta(&self.warm_io) as f64),
            ),
        ])
    }
}

/// Measures cold-vs-prepared execution of `query` under a fresh EM context
/// (dataset loading excluded from every phase, as usual).
pub fn run_prepared_reuse(
    config: EmConfig,
    objects: &[WeightedPoint],
    query: &Query,
    parallelism: usize,
) -> maxrs_core::Result<PreparedReuseRun> {
    let engine = MaxRsEngine::with_options(EngineOptions {
        em_config: config,
        exact: ExactMaxRsOptions {
            parallelism,
            ..Default::default()
        },
        force_strategy: None,
    });
    let ctx = EmContext::new(config);
    let file = load_objects(&ctx, objects)?;

    let t = Instant::now();
    let cold = engine.run_file(&ctx, &file, query)?;
    let cold_ns = t.elapsed().as_nanos();

    let t = Instant::now();
    let prepared = engine.prepare_file(&ctx, &file)?;
    let prepare_ns = t.elapsed().as_nanos();

    // First warm run fills the buffer pool; the second is the steady state a
    // repeated-query workload observes.
    let _ = prepared.run(query)?;
    let t = Instant::now();
    let warm = prepared.run(query)?;
    let warm_ns = t.elapsed().as_nanos();

    Ok(PreparedReuseRun {
        backend: ctx.backend_name().to_string(),
        query: query.name().to_string(),
        n: file.len(),
        cold_ns,
        prepare_ns,
        warm_ns,
        cold_io: cold.io,
        prepare_io: prepared.prepare_io(),
        warm_io: warm.io,
    })
}

/// One batched-vs-independent comparison over a shared
/// [`PreparedDataset`](maxrs_core::PreparedDataset): the same M queries
/// answered by one `run_batch` (shared sweep passes) and by M independent
/// `run` calls, with wall-clock, I/O, throughput and the per-query I/O
/// attribution recorded for the experiment harness.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchRun {
    /// Storage-backend name of the context ("sim", "fs").
    pub backend: String,
    /// Dataset cardinality.
    pub n: u64,
    /// Short names of the batched queries, in batch order.
    pub queries: Vec<String>,
    /// Number of shared sweep groups the batch planned into.
    pub groups: usize,
    /// Wall-clock of the one `run_batch` call, in nanoseconds.
    pub batch_ns: u128,
    /// Blocks transferred by the batch.
    pub batch_io: IoSnapshot,
    /// Wall-clock of the M independent `run` calls, in nanoseconds.
    pub independent_ns: u128,
    /// Blocks transferred by the independent runs.
    pub independent_io: IoSnapshot,
    /// Per-query I/O attribution of the batch (leader-attributed shared
    /// passes; sums to `batch_io`).
    pub per_query_io: Vec<IoSnapshot>,
    /// Whether every batched answer was bit-identical to its independent run,
    /// and every top-k answer to the in-memory greedy
    /// ([`max_k_rs_in_memory`]).
    pub verified: bool,
}

impl BatchRun {
    /// Queries per second achieved by the batched path.
    pub fn batch_qps(&self) -> f64 {
        self.queries.len() as f64 / (self.batch_ns.max(1) as f64 / 1e9)
    }

    /// Queries per second achieved by the independent path.
    pub fn independent_qps(&self) -> f64 {
        self.queries.len() as f64 / (self.independent_ns.max(1) as f64 / 1e9)
    }

    /// Serializes the comparison for the experiment harness's JSON output:
    /// queries/sec for both paths plus a per-query I/O row per batched query.
    pub fn to_value(&self) -> Value {
        let per_query: Vec<Value> = self
            .queries
            .iter()
            .zip(&self.per_query_io)
            .map(|(name, io)| {
                Value::object(vec![
                    ("query", Value::String(name.clone())),
                    ("io", Value::Number(io.total() as f64)),
                    ("reads", Value::Number(io.reads as f64)),
                    ("writes", Value::Number(io.writes as f64)),
                ])
            })
            .collect();
        Value::object(vec![
            ("id", Value::String("batch".into())),
            ("backend", Value::String(self.backend.clone())),
            ("n", Value::Number(self.n as f64)),
            ("queries", Value::Number(self.queries.len() as f64)),
            ("groups", Value::Number(self.groups as f64)),
            ("batch_ns", Value::Number(self.batch_ns as f64)),
            ("batch_io", Value::Number(self.batch_io.total() as f64)),
            ("batch_qps", Value::Number(self.batch_qps())),
            ("independent_ns", Value::Number(self.independent_ns as f64)),
            (
                "independent_io",
                Value::Number(self.independent_io.total() as f64),
            ),
            ("independent_qps", Value::Number(self.independent_qps())),
            (
                "io_saved",
                Value::Number(self.independent_io.total_delta(&self.batch_io) as f64),
            ),
            ("per_query", Value::Array(per_query)),
            ("verified", Value::Bool(self.verified)),
        ])
    }
}

/// Measures batched vs. independent execution of `queries` over one prepared
/// dataset under a fresh EM context (dataset loading and the one-time
/// preparation excluded from both measured paths, as usual).  The batch runs
/// first, so buffer-pool warmth favors the independent baseline and the
/// reported savings stay conservative.
pub fn run_query_batch(
    config: EmConfig,
    objects: &[WeightedPoint],
    queries: &[Query],
    parallelism: usize,
) -> maxrs_core::Result<BatchRun> {
    let engine = MaxRsEngine::with_options(EngineOptions {
        em_config: config,
        exact: ExactMaxRsOptions {
            parallelism,
            ..Default::default()
        },
        force_strategy: None,
    });
    let ctx = EmContext::new(config);
    let file = load_objects(&ctx, objects)?;
    let prepared = engine.prepare_file(&ctx, &file)?;
    let batch = QueryBatch::new(queries)?;

    let before = ctx.stats();
    let t = Instant::now();
    let batched = prepared.run_planned(&batch)?;
    let batch_ns = t.elapsed().as_nanos();
    let batch_io = ctx.stats().delta(&before);

    let before = ctx.stats();
    let t = Instant::now();
    let independent: Vec<QueryRun> = queries
        .iter()
        .map(|q| prepared.run(q))
        .collect::<maxrs_core::Result<_>>()?;
    let independent_ns = t.elapsed().as_nanos();
    let independent_io = ctx.stats().delta(&before);

    // Batched and per-query runs share one executor, so top-k answers are
    // also checked against the independent in-memory greedy.
    let verified = batched
        .iter()
        .zip(&independent)
        .zip(queries)
        .all(|((b, s), q)| {
            b.answer == s.answer
                && match *q {
                    Query::TopK { size, k } => {
                        b.answer == QueryAnswer::TopK(max_k_rs_in_memory(objects, size, k))
                    }
                    _ => true,
                }
        });
    Ok(BatchRun {
        backend: ctx.backend_name().to_string(),
        n: file.len(),
        queries: queries.iter().map(|q| q.name().to_string()).collect(),
        groups: batch.num_groups(),
        batch_ns,
        batch_io,
        independent_ns,
        independent_io,
        per_query_io: batched.iter().map(|r| r.io).collect(),
        verified,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use maxrs_datagen::{Dataset, DatasetKind};

    #[test]
    fn all_algorithms_agree_and_are_ordered_by_io() {
        let ds = Dataset::generate(DatasetKind::Uniform, 600, 11);
        let config = EmConfig::new(4096, 8 * 4096).unwrap();
        let size = RectSize::square(50_000.0);
        let runs: Vec<AlgorithmRun> = Algorithm::ALL
            .iter()
            .map(|&a| run_algorithm(a, config, &ds.objects, size).unwrap())
            .collect();
        let weights: Vec<f64> = runs.iter().map(|r| r.result.total_weight).collect();
        assert_eq!(weights[0], weights[1]);
        assert_eq!(weights[1], weights[2]);
        assert!(weights[0] >= 1.0);
        let naive = runs[0].io.total();
        let asb = runs[1].io.total();
        let exact = runs[2].io.total();
        assert!(
            exact < asb && asb < naive,
            "expected ExactMaxRS < aSB-tree < Naive, got {exact} / {asb} / {naive}"
        );
    }

    #[test]
    fn run_query_answers_every_variant_with_one_substrate() {
        use maxrs_core::Query;
        use maxrs_geometry::Rect;

        let ds = Dataset::generate(DatasetKind::Uniform, 1500, 17);
        let config = EmConfig::new(512, 64 * 512).unwrap();
        let size = RectSize::square(60_000.0);
        let domain = Rect::new(100_000.0, 900_000.0, 100_000.0, 900_000.0);

        let max = run_query(config, &ds.objects, &Query::max_rs(size), 1).unwrap();
        let top = run_query(config, &ds.objects, &Query::top_k(size, 3), 1).unwrap();
        let min = run_query(config, &ds.objects, &Query::min_rs(size, domain), 1).unwrap();
        let crs = run_query(config, &ds.objects, &Query::approx_max_crs(60_000.0), 1).unwrap();

        // 1500 objects exceed the tiny buffer: every variant went external.
        for run in [&max, &top, &min, &crs] {
            assert_ne!(run.strategy, maxrs_core::ExecutionStrategy::InMemory);
            assert!(run.io.total() > 0);
        }
        // Shapes and cross-variant consistency.
        let best = max.answer.as_max_rs().unwrap().total_weight;
        let placements = top.answer.placements().unwrap();
        assert_eq!(placements[0].total_weight, best, "top-1 equals MaxRS");
        assert!(min.answer.as_max_rs().unwrap().total_weight <= best);
        assert!(crs.answer.as_max_crs().unwrap().total_weight <= best + 1e-9);
    }

    #[test]
    fn prepared_reuse_records_backend_and_beats_cold_io() {
        let ds = Dataset::generate(DatasetKind::Uniform, 2000, 7);
        let config = EmConfig::new(512, 32 * 512).unwrap();
        let run = run_prepared_reuse(
            config,
            &ds.objects,
            &Query::max_rs(RectSize::square(50_000.0)),
            1,
        )
        .unwrap();
        assert_eq!(run.backend, config.backend.name());
        assert_eq!(run.n, 2000);
        assert!(run.prepare_io.total() > 0, "the x-sort does I/O");
        assert!(
            run.warm_io.total() < run.cold_io.total(),
            "warm {} must beat cold {}",
            run.warm_io,
            run.cold_io
        );
        let json = run.to_value();
        assert_eq!(
            json.get("backend").unwrap().as_str(),
            Some(run.backend.as_str())
        );
        assert_eq!(json.get("query").unwrap().as_str(), Some("max-rs"));
        assert!(json.get("warm_ns").unwrap().as_f64().unwrap() >= 0.0);
        assert_eq!(
            json.get("io_saved_per_query").unwrap().as_f64().unwrap(),
            run.cold_io.total_delta(&run.warm_io) as f64
        );
    }

    #[test]
    fn batch_run_verifies_and_beats_independent_io() {
        use maxrs_geometry::Rect;

        let ds = Dataset::generate(DatasetKind::Uniform, 2500, 13);
        let config = EmConfig::new(512, 32 * 512).unwrap();
        let size = RectSize::square(60_000.0);
        let queries = vec![
            Query::max_rs(size),
            Query::top_k(size, 2),
            Query::approx_max_crs(60_000.0),
            Query::min_rs(size, Rect::new(100_000.0, 900_000.0, 100_000.0, 900_000.0)),
        ];
        let run = run_query_batch(config, &ds.objects, &queries, 1).unwrap();
        assert!(run.verified, "batched answers diverged");
        assert_eq!(run.backend, config.backend.name());
        assert_eq!(run.queries.len(), 4);
        assert_eq!(run.groups, 2, "three variants share one sweep group");
        assert!(
            run.batch_io.total() < run.independent_io.total(),
            "batch {} vs independent {}",
            run.batch_io,
            run.independent_io
        );
        // Leader attribution sums to the measured batch total.
        let attributed: u64 = run.per_query_io.iter().map(|io| io.total()).sum();
        assert_eq!(attributed, run.batch_io.total());

        let json = run.to_value();
        assert_eq!(json.get("id").unwrap().as_str(), Some("batch"));
        assert_eq!(json.get("groups").unwrap().as_f64(), Some(2.0));
        assert!(json.get("batch_qps").unwrap().as_f64().unwrap() > 0.0);
        assert_eq!(
            json.get("io_saved").unwrap().as_f64().unwrap(),
            run.independent_io.total_delta(&run.batch_io) as f64
        );
    }

    #[test]
    fn io_excludes_dataset_loading() {
        let ds = Dataset::generate(DatasetKind::Gaussian, 2000, 2);
        let config = EmConfig::new(4096, 8 * 4096).unwrap();
        let run = run_algorithm(
            Algorithm::ExactMaxRs,
            config,
            &ds.objects,
            RectSize::square(10_000.0),
        )
        .unwrap();
        // The solve phase of a dataset larger than the buffer must do real I/O,
        // but far less than the data would need if it were re-read per event.
        assert!(run.io.total() > 0);
        let rect_blocks = config.blocks_for::<maxrs_core::RectRecord>(2000);
        assert!(run.io.total() < 100 * rect_blocks);
        assert_eq!(run.algorithm, Algorithm::ExactMaxRs);
    }
}
