//! `live-updates`: writes beside reads.  A seeded event stream (inserts,
//! deletes, ticks, snapped coordinate ties) under a sliding window is
//! preloaded until the live set is steady and several times the buffer; then
//! fixed-size event chunks go into a `DeltaDataset` with a `DeltaThreshold`
//! compaction policy, each followed by a MaxRS or top-k(3) query (three
//! MaxRS to one top-k).  The same
//! chunks are then replayed into a `StreamEngine` maintaining MaxRS, which
//! answers after each chunk.
//!
//! Compaction stalls, the delta merge, `LiveSet` and `FrontierMap` do the
//! work here.  The window keeps the live set stationary, so how many chunks
//! a run gets through does not change what a query costs.

use std::time::Instant;

use maxrs::datagen::{event_stream, EventStreamConfig};
use maxrs::{
    CompactionPolicy, DeltaDataset, DeltaOptions, Event, MaxRsEngine, Query, QueryAnswer, RectSize,
    StorageBackend, StreamConfig, StreamEngine, WeightedPoint,
};

use crate::common::{
    em_config, engine, mean, median, ms_since, nearest_rank, ratio, repeated_setup, Rng,
    ENGINE_WORKERS, EXTENT,
};
use crate::report::Outcome;
use crate::trace::durations;
use crate::RunConfig;

/// Sliding window in stream time units (one unit per event on average).
const WINDOW: f64 = 40_000.0;
/// Events replayed before measuring: one and a half windows, so the live
/// set (about 13k objects, twice the buffer) is steady.
const PRELOAD_EVENTS: usize = 60_000;
/// Events per chunk; a query follows every chunk.
const CHUNK: usize = 500;
/// Most chunks a run may apply (the generated stream's length): 60 s.
const MAX_CHUNKS: usize = 480;
/// Pending delta records that trigger a compaction.
const MAX_DELTA: u64 = 4_000;
/// Query rectangle side.
const SIDE: f64 = 5000.0;
/// Every this many chunks, the survivors are kept and the query answer is
/// checked against a from-scratch prepare after the run.
const CHECK_EVERY: usize = 20;
/// Set-ups timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Chunks per second of `--seconds`: the count is fixed by the run length,
/// not by how fast the program gets through them, so every run measures the
/// same compaction cycles.  On a 2-core host the delta side takes about 60%
/// of the run at this rate and the stream replay most of the rest.
const CHUNKS_PER_SECOND: f64 = 8.0;

fn stream_config() -> EventStreamConfig {
    EventStreamConfig {
        events: PRELOAD_EVENTS + CHUNK * MAX_CHUNKS,
        extent: EXTENT,
        ..EventStreamConfig::default()
    }
}

fn delta_engine() -> MaxRsEngine {
    engine(StorageBackend::Sim, ENGINE_WORKERS)
}

fn preload(events: &[Event]) -> maxrs::core::Result<DeltaDataset> {
    let mut delta = DeltaDataset::new(
        &delta_engine(),
        DeltaOptions {
            policy: CompactionPolicy::DeltaThreshold {
                max_delta: MAX_DELTA,
            },
            window: Some(WINDOW),
        },
    )?;
    delta.apply(events)?;
    delta.compact()?;
    Ok(delta)
}

/// A checkpoint kept for the after-run correctness check.
struct Checkpoint {
    survivors: Vec<WeightedPoint>,
    query: Query,
    answer: QueryAnswer,
}

pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let tracer = &cfg.tracer;
    let events = event_stream(&stream_config(), cfg.seed);
    let (preload_events, live_events) = events.split_at(PRELOAD_EVENTS);
    let (setup_s, mut delta) = repeated_setup(SETUP_REPS, || {
        tracer.in_span("em.prepare", 0, None, || preload(preload_events))
    })
    .map_err(|e| format!("preload: {e}"))?;
    let ctx = delta.context();
    let mut out = Outcome::new(ctx.backend_name());
    out.set("setup_s", setup_s, SETUP_REPS);
    let prepare_io = ctx.stats().total();
    let base_after_preload = delta.base_len();

    let size = RectSize::square(SIDE);
    // Queries come in seeded rounds of three MaxRS and one top-k(3), so every
    // run asks the same mix: p50 falls among the MaxRS queries and p90 among
    // the top-k ones, never on the edge between the two.
    let round = [
        Query::max_rs(size),
        Query::max_rs(size),
        Query::max_rs(size),
        Query::top_k(size, 3),
    ];
    let mut rng = Rng::new(cfg.seed, 4);
    let mut queries = Vec::new();
    let (hits0, misses0) = ctx.pool_hit_stats();
    let compactions0 = delta.compactions();
    let mut latencies = Vec::new();
    let mut io = Vec::new();
    let (mut reads, mut writes) = (Vec::new(), Vec::new());
    let (mut apply_ms, mut compaction_ms, mut compaction_io) = (0.0, Vec::new(), Vec::new());
    let (mut pending, mut space_amp) = (Vec::new(), Vec::new());
    let mut checkpoints = Vec::new();
    let mut busy_ms = 0.0;
    let chunks = crate::MIN_QUERIES
        .max((CHUNKS_PER_SECOND * cfg.seconds.as_secs_f64()).ceil() as usize)
        .min(MAX_CHUNKS);
    let replayed = &live_events[..chunks * CHUNK];
    for (c, chunk) in replayed.chunks(CHUNK).enumerate() {
        let request = c as u64 + 1;
        out.gate.attempt();
        let before = (delta.compactions(), delta.context().stats());
        let t = Instant::now();
        let applied = tracer.in_span("delta.apply", request, None, || delta.apply(chunk));
        let elapsed = ms_since(t);
        apply_ms += elapsed;
        if let Err(e) = applied {
            out.gate.fail(format!("apply: {e}"));
            continue;
        }
        if delta.compactions() > before.0 {
            compaction_ms.push(elapsed);
            compaction_io.push(delta.context().stats().since(&before.1).total() as f64);
        }

        if queries.is_empty() {
            queries.extend(round);
            rng.shuffle(&mut queries);
        }
        let query = queries.pop().expect("refilled above");
        out.gate.attempt();
        let t = Instant::now();
        let result = tracer.in_span("delta.run", request, None, || delta.run(&query));
        let elapsed = ms_since(t);
        busy_ms += elapsed;
        match result {
            Ok(run) => {
                latencies.push(elapsed);
                io.push(run.io.total() as f64);
                reads.push(run.io.reads as f64);
                writes.push(run.io.writes as f64);
                pending.push(delta.delta_len() as f64);
                let live_blocks = em_config(StorageBackend::Sim)
                    .blocks_for::<maxrs::core::ObjectRecord>(delta.len())
                    .max(1);
                space_amp.push(delta.context().disk_blocks() as f64 / live_blocks as f64);
                if c % CHECK_EVERY == 0 {
                    checkpoints.push(Checkpoint {
                        survivors: delta.survivors(),
                        query,
                        answer: run.answer,
                    });
                }
            }
            Err(e) => out.gate.fail(format!("{}: {e}", query.name())),
        }
    }
    busy_ms += apply_ms;
    let (hits, misses) = delta.context().pool_hit_stats();
    let compactions = delta.compactions() - compactions0;

    let n = latencies.len();
    out.set("query_p50_ms", nearest_rank(&latencies, 0.5), n);
    out.set("query_p90_ms", nearest_rank(&latencies, 0.9), n);
    out.set("qps", n as f64 / (busy_ms / 1e3), n);
    out.set("io_blocks_per_query", mean(&io), n);
    out.set(
        "ingest_eps",
        replayed.len() as f64 / (apply_ms / 1e3),
        chunks,
    );

    // The stream side: the same preload, then the same chunks.
    let mut stream = StreamEngine::new(StreamConfig::max_rs(size).with_window(WINDOW))
        .map_err(|e| format!("stream engine: {e}"))?;
    let t = Instant::now();
    stream
        .apply_all(preload_events)
        .map_err(|e| format!("stream preload: {e}"))?;
    let stream_preload_s = t.elapsed().as_secs_f64();
    stream.answer();
    let (mut stream_apply_ms, mut answer_ms) = (0.0, Vec::new());
    let (mut swept, mut cells) = (0usize, 0usize);
    for (c, chunk) in replayed.chunks(CHUNK).enumerate() {
        let request = c as u64 + 1;
        out.gate.attempt();
        let t = Instant::now();
        let applied = tracer.in_span("stream.apply", request, None, || stream.apply_all(chunk));
        stream_apply_ms += ms_since(t);
        if let Err(e) = applied {
            out.gate.fail(format!("stream apply: {e}"));
        }
        let t = Instant::now();
        let answer = tracer.in_span("stream.answer", request, None, || stream.answer());
        answer_ms.push(ms_since(t));
        swept += answer.stats.cells_swept;
        cells += answer.stats.cells_total;
    }
    out.set(
        "stream_ingest_eps",
        replayed.len() as f64 / (stream_apply_ms / 1e3),
        chunks,
    );
    out.set(
        "stream_answer_p50_ms",
        nearest_rank(&answer_ms, 0.5),
        answer_ms.len(),
    );

    // Correctness, outside every timed region: delta checkpoints against a
    // from-scratch prepare over the same survivors, the final stream answer
    // against the batch engine, and the two engines' live sets.
    let reference = delta_engine();
    for cp in &checkpoints {
        let want = reference
            .prepare(&cp.survivors)
            .and_then(|p| p.run(&cp.query))
            .map_err(|e| format!("reference: {e}"))?;
        out.gate.check("delta checkpoint", &cp.answer, &want.answer);
    }
    let survivors = stream.survivors();
    let final_answer = stream.answer().run.answer;
    let want = reference
        .run(&survivors, &Query::max_rs(size))
        .map_err(|e| format!("reference: {e}"))?;
    out.gate.attempt();
    out.gate
        .check("final stream answer", &final_answer, &want.answer);
    out.gate
        .check("stream and delta live sets", &survivors, &delta.survivors());

    out.note(format!(
        "live-updates: window {WINDOW}, preload {PRELOAD_EVENTS} events (compacted base {} \
         objects), {chunks} chunks of {CHUNK} events, {compactions} compactions at {MAX_DELTA} \
         pending, {} checkpoints verified, stream preload {stream_preload_s:.3} s",
        base_after_preload,
        checkpoints.len()
    ));

    if tracer.enabled() {
        let spans = tracer.spans();
        out.set(
            "em.prepare_ms",
            median(&durations(&spans, "em.prepare")),
            SETUP_REPS,
        );
        out.set("em.prepare_io", prepare_io as f64, 1);
        out.set("em.reads_per_query", mean(&reads), n);
        out.set("em.writes_per_query", mean(&writes), n);
        let (hits, misses) = ((hits - hits0) as f64, (misses - misses0) as f64);
        out.set("em.pool_hit_rate", ratio(hits, hits + misses), n);
        out.set(
            "delta.apply_us_per_event",
            apply_ms * 1e3 / replayed.len() as f64,
            chunks,
        );
        out.set("delta.compactions", compactions as f64, 1);
        out.set(
            "delta.compaction_ms",
            mean(&compaction_ms),
            compaction_ms.len(),
        );
        out.set(
            "delta.compaction_io",
            mean(&compaction_io),
            compaction_io.len(),
        );
        out.set("delta.pending_mean", mean(&pending), n);
        out.set("delta.space_amp", mean(&space_amp), n);
        out.set(
            "stream.apply_us_per_event",
            stream_apply_ms * 1e3 / replayed.len() as f64,
            chunks,
        );
        out.set(
            "stream.cells_swept_ratio",
            ratio(swept as f64, cells as f64),
            chunks,
        );
    }
    Ok(out)
}
