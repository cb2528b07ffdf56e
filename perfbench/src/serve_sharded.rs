//! `serve-sharded`: a 4-shard dataset behind `DatasetRegistry::insert_sharded` and `MaxRsServer` on the RAM
//! backend, two workers, micro-batching on, and a bounded queue that sheds
//! on overload.  Load is open-loop: one generator thread submits on a
//! seeded Poisson schedule at a fixed rate well under capacity, and latency
//! runs from each query's due time, so a stall also charges the queries
//! queued behind it.
//!
//! The serve queue and batcher, the `QueryBatch` planner and the shard
//! distribute/solve steps do most of the work here.

use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use maxrs::datagen::{Dataset, DatasetKind};
use maxrs::serve::{ServedDataset, Ticket};
use maxrs::{
    DatasetRegistry, MaxRsServer, OverloadPolicy, Query, QueryAnswer, RectSize, ServeConfig,
    ServeError, ShardLayout, StorageBackend,
};

use crate::common::{
    engine, mean, median, ms, ms_since, nearest_rank, ratio, repeated_setup, Rng, ENGINE_WORKERS,
};
use crate::report::Outcome;
use crate::trace::{durations, Open};
use crate::RunConfig;

/// Objects in the dataset.  Each of the 4 shards holds about 5,000 (0.76 M):
/// stored externally, with sweeps that fit the buffer.  At 30,000 objects
/// (1.1 M a shard) queueing made p50 too unsteady across seeds (README).
pub const OBJECTS: usize = 20_000;
/// Shards of the x-partition.
const SHARDS: usize = 4;
/// Offered load in queries per second, well under what the two workers
/// sustain on a 2-core host, so the queue stays short.
pub const RATE_QPS: f64 = 6.0;
/// Query rectangle sides; the pool repeats them so batches share sweeps.
const SIDES: [f64; 2] = [2000.0, 8000.0];
/// Set-ups timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Standalone executions per distinct query for `serve.execute_ms`.
const EXECUTE_REPS: usize = 3;
/// How often the collector polls outstanding tickets.
const POLL: Duration = Duration::from_micros(200);

/// The batching window: about one arrival in seventeen finds an open batch
/// at this rate (with the 2 ms default, almost none did; with 25 ms, p90
/// spread across seeds doubled).
const WINDOW: Duration = Duration::from_millis(10);

fn serve_config() -> ServeConfig {
    ServeConfig {
        window: WINDOW,
        max_batch: 8,
        workers: 2,
        queue_capacity: 64,
        overload: OverloadPolicy::Shed,
    }
}

fn query_pool() -> Vec<Query> {
    SIDES
        .iter()
        .flat_map(|&side| {
            let size = RectSize::square(side);
            [
                Query::max_rs(size),
                Query::top_k(size, 3),
                Query::approx_max_crs(side),
            ]
        })
        .collect()
}

/// What the generator hands the collector per arrival.
struct Submitted {
    query: usize,
    due: Instant,
    late_ms: f64,
    submit_us: f64,
    span: Option<Open>,
    ticket: Result<Ticket, ServeError>,
}

/// An admitted query awaiting its reply.
struct Pending {
    query: usize,
    due: Instant,
    span: Option<Open>,
    ticket: Ticket,
}

pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let tracer = &cfg.tracer;
    let objects = Dataset::generate(DatasetKind::Uniform, OBJECTS, cfg.seed).objects;
    let layout = ShardLayout::new(SHARDS);
    let (setup_s, (registry, server)) = repeated_setup(SETUP_REPS, || {
        let registry = Arc::new(DatasetRegistry::new(engine(
            StorageBackend::Sim,
            ENGINE_WORKERS,
        )));
        tracer.in_span("shard.prepare", 0, None, || {
            registry.insert_sharded("bench", &objects, &layout)
        })?;
        let server = MaxRsServer::start(Arc::clone(&registry), serve_config())?;
        Ok::<_, ServeError>((registry, server))
    })
    .map_err(|e| format!("set-up: {e}"))?;
    let handle = registry.get("bench").ok_or("dataset vanished")?;
    let ServedDataset::Sharded(sharded) = &*handle else {
        return Err("expected a sharded dataset".into());
    };
    let mut out = Outcome::new(sharded.backend_name());
    out.set("setup_s", setup_s, SETUP_REPS);

    let pool = query_pool();
    let expected: Vec<QueryAnswer> = {
        let reference = engine(StorageBackend::Sim, ENGINE_WORKERS)
            .prepare(&objects)
            .map_err(|e| format!("reference prepare: {e}"))?;
        pool.iter()
            .map(|q| reference.run(q).map(|r| r.answer))
            .collect::<Result<_, _>>()
            .map_err(|e| format!("reference run: {e}"))?
    };

    out.gate.warm_up(&pool, &expected, |q| {
        server.query("bench", *q).map(|r| r.run.answer)
    });
    let warm = server.stats();

    // The schedule: a Poisson process of `arrivals` events conditioned on
    // its count, i.e. sorted uniform offsets over `arrivals / RATE_QPS`.
    // Queries come in seeded rounds that each hold every pool query once, so
    // every run sends the same mix.
    let mut rng = Rng::new(cfg.seed, 2);
    let wanted = crate::MIN_QUERIES.max((RATE_QPS * cfg.seconds.as_secs_f64()).ceil() as usize);
    let arrivals = wanted.div_ceil(pool.len()) * pool.len();
    let span_s = arrivals as f64 / RATE_QPS;
    let mut offsets: Vec<f64> = (0..arrivals).map(|_| rng.next_f64() * span_s).collect();
    offsets.sort_unstable_by(f64::total_cmp);
    let mut order = Vec::with_capacity(arrivals);
    while order.len() < arrivals {
        let mut round: Vec<usize> = (0..pool.len()).collect();
        rng.shuffle(&mut round);
        order.extend(round);
    }
    let schedule: Vec<(Duration, usize)> = offsets
        .into_iter()
        .map(Duration::from_secs_f64)
        .zip(order)
        .collect();

    let (tx, rx) = mpsc::channel::<Submitted>();
    let start = Instant::now() + Duration::from_millis(20);
    let mut latencies = Vec::with_capacity(arrivals);
    let mut io = Vec::new();
    let (mut reads, mut writes) = (Vec::new(), Vec::new());
    let (mut late, mut submit_us) = (Vec::new(), Vec::new());
    let mut served: Vec<usize> = Vec::new();
    let mut last_reply = start;
    std::thread::scope(|scope| {
        let server = &server;
        let pool = &pool;
        scope.spawn(move || {
            for (request, (offset, query)) in schedule.into_iter().enumerate() {
                let due = start + offset;
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let span = tracer.open_at("serve.request", request as u64 + 1, None, due);
                let sent = Instant::now();
                let submit = tracer.open_at(
                    "serve.submit",
                    request as u64 + 1,
                    span.as_ref().map(Open::id),
                    sent,
                );
                let ticket = server.submit("bench", pool[query]);
                let submit_us = sent.elapsed().as_secs_f64() * 1e6;
                tracer.close(submit);
                let late_ms = ms(sent.saturating_duration_since(due));
                let msg = Submitted {
                    query,
                    due,
                    late_ms,
                    submit_us,
                    ticket,
                    span,
                };
                if tx.send(msg).is_err() {
                    return;
                }
            }
        });

        let mut pending: Vec<Pending> = Vec::new();
        let mut generator_done = false;
        while !generator_done || !pending.is_empty() {
            loop {
                match rx.try_recv() {
                    Ok(s) => {
                        out.gate.attempt();
                        late.push(s.late_ms);
                        submit_us.push(s.submit_us);
                        match s.ticket {
                            Ok(ticket) => pending.push(Pending {
                                query: s.query,
                                due: s.due,
                                span: s.span,
                                ticket,
                            }),
                            Err(e) => {
                                out.gate.fail(format!("submit: {e}"));
                                tracer.close(s.span);
                            }
                        }
                    }
                    Err(mpsc::TryRecvError::Empty) => break,
                    Err(mpsc::TryRecvError::Disconnected) => {
                        generator_done = true;
                        break;
                    }
                }
            }
            let mut i = 0;
            while i < pending.len() {
                let Some(reply) = pending[i].ticket.try_wait() else {
                    i += 1;
                    continue;
                };
                let now = Instant::now();
                let p = pending.swap_remove(i);
                tracer.close(p.span);
                match reply {
                    Ok(response) => {
                        latencies.push(ms(now - p.due));
                        served.push(p.query);
                        io.push(response.run.io.total() as f64);
                        reads.push(response.run.io.reads as f64);
                        writes.push(response.run.io.writes as f64);
                        last_reply = last_reply.max(now);
                        out.gate
                            .check("served query", &response.query, &pool[p.query]);
                        out.gate.check(
                            pool[p.query].name(),
                            &response.run.answer,
                            &expected[p.query],
                        );
                    }
                    Err(e) => out.gate.fail(format!("reply: {e}")),
                }
            }
            std::thread::sleep(POLL);
        }
    });
    let stats = server.stats();
    server.shutdown();

    let n = latencies.len();
    out.set("query_p50_ms", nearest_rank(&latencies, 0.5), n);
    out.set("query_p90_ms", nearest_rank(&latencies, 0.9), n);
    let window = last_reply.saturating_duration_since(start).as_secs_f64();
    out.set("qps", ratio(n as f64, window), n);
    out.set("io_blocks_per_query", mean(&io), n);
    out.set("serve.gen_late_ms", mean(&late), late.len());
    out.note(format!(
        "serve-sharded: {OBJECTS} uniform objects in {SHARDS} shards on sim, open loop at \
         {RATE_QPS} qps ({arrivals} arrivals), 2 workers, window {WINDOW:?}, max batch 8, queue 64 (shed)"
    ));
    out.note(format!(
        "generator lateness: mean {:.3} ms, max {:.3} ms",
        mean(&late),
        late.iter().copied().fold(0.0, f64::max)
    ));

    if tracer.enabled() {
        let spans = tracer.spans();
        out.set(
            "em.prepare_ms",
            median(&durations(&spans, "shard.prepare")),
            SETUP_REPS,
        );
        out.set(
            "shard.prepare_ms",
            median(&durations(&spans, "shard.prepare")),
            SETUP_REPS,
        );
        out.set("em.prepare_io", sharded.prepare_io().total() as f64, 1);
        out.set("em.reads_per_query", mean(&reads), n);
        out.set("em.writes_per_query", mean(&writes), n);
        out.set("serve.submit_us", mean(&submit_us), submit_us.len());
        let lens: Vec<f64> = sharded.shard_lens().iter().map(|&l| l as f64).collect();
        out.set(
            "shard.imbalance",
            ratio(lens.iter().copied().fold(0.0, f64::max), mean(&lens)),
            lens.len(),
        );
        let touched: Vec<f64> = served
            .iter()
            .map(|&q| sharded.shards_touched(&pool[q]) as f64)
            .collect();
        out.set("shard.touched_per_query", mean(&touched), n);
        // Counters of the timed phase only (the warm-up went through the
        // same server).
        let batches = stats.batches - warm.batches;
        let completed = stats.completed - warm.completed;
        out.set(
            "serve.mean_batch",
            ratio(
                (stats.batched_queries - warm.batched_queries) as f64,
                batches as f64,
            ),
            batches as usize,
        );
        out.set(
            "serve.groups_per_query",
            ratio(
                (stats.sweep_groups - warm.sweep_groups) as f64,
                completed as f64,
            ),
            completed as usize,
        );
        out.set("serve.shed", (stats.shed - warm.shed) as f64, 1);

        // Execution alone: the same queries through `ShardedDataset::run`
        // with no queue, no batching and no concurrent load.
        let mut execute = vec![0.0; pool.len()];
        for (i, q) in pool.iter().enumerate() {
            let mut times = Vec::with_capacity(EXECUTE_REPS);
            for _ in 0..EXECUTE_REPS {
                let t = Instant::now();
                let run = sharded.run(q).map_err(|e| format!("standalone run: {e}"))?;
                times.push(ms_since(t));
                out.gate.attempt();
                out.gate
                    .check("standalone sharded run", &run.answer, &expected[i]);
            }
            execute[i] = median(&times);
        }
        let exec_served: Vec<f64> = served.iter().map(|&q| execute[q]).collect();
        let waits: Vec<f64> = latencies
            .iter()
            .zip(&exec_served)
            .map(|(l, e)| l - e)
            .collect();
        out.set("serve.execute_ms", mean(&exec_served), n);
        out.set("serve.wait_ms", mean(&waits), n);
    }
    Ok(out)
}
