//! `paper-sim`: the paper's own setting.  A uniform dataset several times
//! the buffer is prepared once with the default ExactMaxRS options
//! (external-parallel, two workers) on the RAM backend, then one closed-loop
//! client sends a seeded sequence of MaxRS, top-k(3), MinRS(whole space) and
//! ApproxMaxCRS queries at two rectangle sides.
//!
//! The EM sort, buffer pool and the sweep kernel do nearly all the work here;
//! serving, sharding, the cluster and the delta do none.  The same workload
//! on the filesystem backend (`paper-fs`) was dropped: it slowed down run
//! after run when repeated back to back (see `README.md`).  The filesystem
//! backend still computes the reference answers.

use std::collections::BTreeMap;
use std::time::Instant;

use maxrs::datagen::{Dataset, DatasetKind};
use maxrs::{ExactMaxRsOptions, Query, QueryAnswer, RectSize, StorageBackend, SweepPass};

use crate::common::{
    engine, io_repeat_note, mean, median, ms_since, nearest_rank, ratio, repeated_setup,
    whole_domain, Rng, ENGINE_WORKERS,
};
use crate::report::Outcome;
use crate::trace::{durations, Tracer};
use crate::RunConfig;

/// Objects in the dataset: about 4.6 M, where M holds 6,553 rectangles.
pub const OBJECTS: usize = 30_000;
/// Query rectangle sides.
const SIDES: [f64; 2] = [1000.0, 5000.0];
/// Set-ups timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Repetitions of the traced stage-by-stage MaxRS per side.
const STAGE_REPS: usize = 3;

/// The distinct queries of the mix; each pass sends all of them once in a
/// seeded order.
fn query_mix() -> Vec<Query> {
    SIDES
        .iter()
        .flat_map(|&side| {
            let size = RectSize::square(side);
            [
                Query::max_rs(size),
                Query::top_k(size, 3),
                Query::min_rs(size, whole_domain()),
                Query::approx_max_crs(side),
            ]
        })
        .collect()
}

pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let tracer = &cfg.tracer;
    let objects = Dataset::generate(DatasetKind::Uniform, OBJECTS, cfg.seed).objects;
    let sim = engine(StorageBackend::Sim, ENGINE_WORKERS);
    let (setup_s, prepared) = repeated_setup(SETUP_REPS, || {
        tracer.in_span("em.prepare", 0, None, || sim.prepare(&objects))
    })
    .map_err(|e| format!("prepare: {e}"))?;
    let (ctx, _) = prepared
        .external_parts()
        .ok_or("the paper-sim dataset must exceed the buffer")?;
    let mut out = Outcome::new(ctx.backend_name());
    out.set("setup_s", setup_s, SETUP_REPS);

    // Reference answers: an unsharded prepare with the same options on the
    // filesystem backend, outside the timed region.  (Only the same buffer
    // and worker count reproduce the whole-space MinRS max-region; see
    // `defects.rs`.)
    let mix = query_mix();
    let expected: Vec<QueryAnswer> = {
        let reference = engine(StorageBackend::Fs, ENGINE_WORKERS)
            .prepare(&objects)
            .map_err(|e| format!("reference prepare: {e}"))?;
        mix.iter()
            .map(|q| reference.run(q).map(|r| r.answer))
            .collect::<Result<_, _>>()
            .map_err(|e| format!("reference run: {e}"))?
    };

    out.gate
        .warm_up(&mix, &expected, |q| prepared.run(q).map(|r| r.answer));
    let (hits0, misses0) = ctx.pool_hit_stats();
    let mut rng = Rng::new(cfg.seed, 1);
    let mut latencies = Vec::new();
    let mut by_query: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    let mut io_seen: BTreeMap<usize, Vec<u64>> = BTreeMap::new();
    let (mut reads, mut writes) = (Vec::new(), Vec::new());
    let mut request = 0u64;
    let start = Instant::now();
    while latencies.len() < crate::MIN_QUERIES || start.elapsed() < cfg.seconds {
        let mut order: Vec<usize> = (0..mix.len()).collect();
        rng.shuffle(&mut order);
        for i in order {
            request += 1;
            out.gate.attempt();
            let t = Instant::now();
            let result =
                tracer.in_span("core.prepared.run", request, None, || prepared.run(&mix[i]));
            let elapsed = ms_since(t);
            match result {
                Ok(run) => {
                    latencies.push(elapsed);
                    by_query.entry(i).or_default().push(elapsed);
                    io_seen.entry(i).or_default().push(run.io.total());
                    reads.push(run.io.reads as f64);
                    writes.push(run.io.writes as f64);
                    out.gate.check(mix[i].name(), &run.answer, &expected[i]);
                }
                Err(e) => out.gate.fail(format!("{}: {e}", mix[i].name())),
            }
        }
    }
    let wall = start.elapsed().as_secs_f64();
    let (hits, misses) = ctx.pool_hit_stats();

    let n = latencies.len();
    out.set("query_p50_ms", nearest_rank(&latencies, 0.5), n);
    out.set("query_p90_ms", nearest_rank(&latencies, 0.9), n);
    out.set("qps", n as f64 / wall, n);
    let io: Vec<f64> = reads.iter().zip(&writes).map(|(r, w)| r + w).collect();
    out.set("io_blocks_per_query", mean(&io), n);
    out.note(io_repeat_note(&io_seen));
    out.note(format!(
        "paper-sim: {OBJECTS} uniform objects on sim, closed loop, 1 client, {} distinct queries",
        mix.len()
    ));

    if tracer.enabled() {
        out.set(
            "em.prepare_ms",
            median(&durations(&tracer.spans(), "em.prepare")),
            SETUP_REPS,
        );
        out.set("em.prepare_io", prepared.prepare_io().total() as f64, 1);
        out.set("em.reads_per_query", mean(&reads), n);
        out.set("em.writes_per_query", mean(&writes), n);
        let (hits, misses) = ((hits - hits0) as f64, (misses - misses0) as f64);
        out.set("em.pool_hit_rate", ratio(hits, hits + misses), n);
        let median_of = |query: Query| {
            mix.iter()
                .position(|q| *q == query)
                .map_or(0.0, |i| median(&by_query[&i]))
        };
        let topk_over: Vec<f64> = SIDES
            .iter()
            .map(|&side| {
                let size = RectSize::square(side);
                ratio(
                    median_of(Query::top_k(size, 3)),
                    median_of(Query::max_rs(size)),
                )
            })
            .collect();
        out.set("sweep.topk_over_maxrs", mean(&topk_over), SIDES.len());
        stage_split(cfg, &prepared, &mix, &expected, request, &mut out)?;
    }
    Ok(out)
}

/// Runs MaxRS stage by stage through [`SweepPass`] on the prepared file
/// (transform → distribution sweep → extract → canonicalize), times and
/// meters each stage, and gates the composed answer against the reference.
fn stage_split(
    cfg: &RunConfig,
    prepared: &maxrs::PreparedDataset<'static>,
    mix: &[Query],
    expected: &[QueryAnswer],
    mut request: u64,
    out: &mut Outcome,
) -> Result<(), String> {
    let tracer: &Tracer = &cfg.tracer;
    let (ctx, sorted) = prepared.external_parts().expect("checked by the caller");
    let opts = ExactMaxRsOptions {
        parallelism: ENGINE_WORKERS,
        ..ExactMaxRsOptions::default()
    };
    let pass = SweepPass::presorted(ctx, &opts);
    let mut io = BTreeMap::<&str, Vec<f64>>::new();
    let err = |e: maxrs::core::CoreError| format!("stage split: {e}");
    for (i, query) in mix.iter().enumerate() {
        let Query::MaxRs { size } = *query else {
            continue;
        };
        for _ in 0..STAGE_REPS {
            request += 1;
            let root = tracer.open("sweep.max_rs", request, None);
            let stage = |name: &'static str| {
                let before = ctx.stats();
                let open = tracer.open(name, request, root.as_ref());
                (before, open)
            };
            let mut finish = |name: &'static str, (before, open): (maxrs::IoSnapshot, _)| {
                tracer.close(open);
                io.entry(name)
                    .or_default()
                    .push(ctx.stats().since(&before).total() as f64);
            };
            let s = stage("sweep.transform");
            let rects = pass.transform(sorted, size).map_err(err)?;
            finish("sweep.transform", s);
            let s = stage("sweep.distribution");
            let slabs = pass.sweep_rects(rects).map_err(err)?;
            finish("sweep.distribution", s);
            let s = stage("sweep.extract");
            let best = pass.extract_best(&slabs).map_err(err)?;
            ctx.delete_file(slabs)
                .map_err(|e| format!("stage split: {e}"))?;
            finish("sweep.extract", s);
            let s = stage("sweep.canonicalize");
            let best = pass.canonicalize(sorted, size, best).map_err(err)?;
            finish("sweep.canonicalize", s);
            tracer.close(root);
            out.gate.attempt();
            out.gate.check(
                "stage-decomposed max-rs",
                &QueryAnswer::MaxRs(best),
                &expected[i],
            );
        }
    }
    let spans = tracer.spans();
    for (stage, ms_name, io_name) in [
        (
            "sweep.transform",
            "sweep.transform_ms",
            Some("sweep.transform_io"),
        ),
        (
            "sweep.distribution",
            "sweep.distribution_ms",
            Some("sweep.distribution_io"),
        ),
        ("sweep.extract", "sweep.extract_ms", None),
        (
            "sweep.canonicalize",
            "sweep.canonicalize_ms",
            Some("sweep.canonicalize_io"),
        ),
    ] {
        let times = durations(&spans, stage);
        out.set(ms_name, median(&times), times.len());
        if let Some(io_name) = io_name {
            out.set(io_name, median(&io[stage]), io[stage].len());
        }
    }
    Ok(())
}
