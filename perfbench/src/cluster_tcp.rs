//! `cluster-tcp`: a Gaussian dataset in 4 shards, each small enough to fit
//! the buffer, hosted on 2 `ShardServer`s behind `serve_tcp`; a
//! `ClusterCoordinator` reaches them over `TcpTransport` on loopback.  One
//! closed-loop client cycles whole-space MaxRS, top-k(3) and ApproxMaxCRS
//! (fan-out 2) and a narrow MinRS inside one shard (fan-out 1).  A
//! whole-space MinRS is left out: its zero-weight max-region differs from
//! the unsharded answer on some seeds, a program defect (see `README.md`).
//!
//! RPC encode, wire and decode are a large share of latency here and the EM
//! layer does little.  Every RPC passes through [`TracedTransport`], a
//! benchmark-owned wrapper that records one span per call when tracing is on.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use maxrs::cluster::protocol::{Request, Response};
use maxrs::cluster::{partition_objects, serve_tcp, TcpServerHandle, TransportError};
use maxrs::datagen::{Dataset, DatasetKind};
use maxrs::{
    ClusterConfig, ClusterCoordinator, Query, QueryAnswer, Rect, RectSize, ShardServer,
    StorageBackend, TcpTransport, Transport,
};

use crate::common::{
    engine, io_repeat_note, mean, median, ms_since, nearest_rank, ratio, repeated_setup, Rng,
    ENGINE_WORKERS,
};
use crate::report::Outcome;
use crate::trace::{durations, self_durations, self_ms, SpanId, Tracer};
use crate::RunConfig;

/// Objects in the dataset; each of the 4 shards (about 5,000 objects) fits
/// the 6,553-rectangle buffer.
pub const OBJECTS: usize = 20_000;
/// Shards of the x-partition.
const SHARDS: usize = 4;
/// Shard servers, each on its own loopback port; shards are hosted
/// round-robin, so every server holds two.
const SERVERS: usize = 2;
/// Query rectangle side.
const SIDE: f64 = 5000.0;
/// Boundary sample of the partitioner (the `ShardLayout` default).
const BOUNDARY_SAMPLE: usize = 8192;
/// Set-ups timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Repetitions when timing encodes and direct `ShardServer::handle` calls.
const REPLAY_REPS: usize = 3;

/// Per protocol verb: its span name and its calls-per-query and ms-per-call
/// metrics.
const VERBS: [(&str, &str, &str); 6] = [
    (
        "cluster.rpc.describe",
        "cluster.rpc.describe.calls",
        "cluster.rpc.describe.ms",
    ),
    (
        "cluster.rpc.distribute",
        "cluster.rpc.distribute.calls",
        "cluster.rpc.distribute.ms",
    ),
    (
        "cluster.rpc.solve",
        "cluster.rpc.solve.calls",
        "cluster.rpc.solve.ms",
    ),
    (
        "cluster.rpc.breakpoint",
        "cluster.rpc.breakpoint.calls",
        "cluster.rpc.breakpoint.ms",
    ),
    (
        "cluster.rpc.evaluate",
        "cluster.rpc.evaluate.calls",
        "cluster.rpc.evaluate.ms",
    ),
    (
        "cluster.rpc.fetch_objects",
        "cluster.rpc.fetch_objects.calls",
        "cluster.rpc.fetch_objects.ms",
    ),
];

/// The index of `request`'s verb in [`VERBS`].
fn verb(request: &Request) -> usize {
    match request {
        Request::Describe => 0,
        Request::Distribute(_) => 1,
        Request::Solve { .. } => 2,
        Request::Breakpoint { .. } => 3,
        Request::Evaluate { .. } => 4,
        Request::FetchObjects => 5,
    }
}

/// One RPC kept for the after-run replay.
struct Recorded {
    server: usize,
    request_id: u64,
    request: Request,
    response: Response,
}

/// State the client shares with every [`TracedTransport`].
struct RpcLog {
    tracer: Arc<Tracer>,
    /// The request id and root span of the query in flight.
    current: Mutex<(u64, Option<SpanId>)>,
    calls: [AtomicU64; 6],
    failures: AtomicU64,
    /// While set, calls are kept (request and reply) for the replay.
    recording: AtomicBool,
    recorded: Mutex<Vec<Recorded>>,
}

/// A `Transport` that forwards to `TcpTransport` and records a span per
/// call, counts calls and failures, and optionally keeps the exchanged
/// messages.
struct TracedTransport {
    index: usize,
    inner: TcpTransport,
    log: Arc<RpcLog>,
}

impl Transport for TracedTransport {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn call(&self, request: &Request, timeout: Duration) -> Result<Response, TransportError> {
        let log = &self.log;
        let v = verb(request);
        let (request_id, parent) = *log.current.lock().expect("rpc log poisoned");
        let span = log
            .tracer
            .open_at(VERBS[v].0, request_id, parent, Instant::now());
        let result = self.inner.call(request, timeout);
        log.tracer.close(span);
        log.calls[v].fetch_add(1, Ordering::Relaxed);
        match &result {
            Ok(response) if log.recording.load(Ordering::Relaxed) => {
                log.recorded
                    .lock()
                    .expect("rpc log poisoned")
                    .push(Recorded {
                        server: self.index,
                        request_id,
                        request: request.clone(),
                        response: response.clone(),
                    });
            }
            Ok(_) => {}
            Err(_) => {
                log.failures.fetch_add(1, Ordering::Relaxed);
            }
        }
        result
    }
}

/// A running cluster: the servers (kept for the direct-handle replay), their
/// TCP listeners and the connected coordinator.
struct Cluster {
    coordinator: ClusterCoordinator,
    hosts: Vec<Arc<ShardServer>>,
    _listeners: Vec<TcpServerHandle>,
}

fn start_cluster(objects: &[maxrs::WeightedPoint], log: &Arc<RpcLog>) -> Result<Cluster, String> {
    let opts = *engine(StorageBackend::Sim, ENGINE_WORKERS).options();
    let tracer = &log.tracer;
    let hosts = tracer.in_span("shard.prepare", 0, None, || {
        let (boundaries, parts) = partition_objects(objects, SHARDS, BOUNDARY_SAMPLE);
        let mut hosts: Vec<ShardServer> = (0..SERVERS)
            .map(|_| ShardServer::new(opts, boundaries.clone()))
            .collect();
        for (id, part) in parts.iter().enumerate() {
            hosts[id % SERVERS]
                .host(id, part)
                .map_err(|e| format!("host shard {id}: {e}"))?;
        }
        Ok::<_, String>(hosts.into_iter().map(Arc::new).collect::<Vec<_>>())
    })?;
    let mut listeners = Vec::with_capacity(SERVERS);
    let mut transports: Vec<Box<dyn Transport>> = Vec::with_capacity(SERVERS);
    for (index, host) in hosts.iter().enumerate() {
        let listener =
            serve_tcp(Arc::clone(host), "127.0.0.1:0").map_err(|e| format!("serve_tcp: {e}"))?;
        transports.push(Box::new(TracedTransport {
            index,
            inner: TcpTransport::new(format!("server-{index}"), listener.addr()),
            log: Arc::clone(log),
        }));
        listeners.push(listener);
    }
    let coordinator = ClusterCoordinator::connect(opts, ClusterConfig::default(), transports)
        .map_err(|e| format!("connect: {e}"))?;
    Ok(Cluster {
        coordinator,
        hosts,
        _listeners: listeners,
    })
}

/// The query cycle: three variants over the whole space (every server
/// engaged) and a MinRS whose domain sits inside one shard.
fn query_mix(coordinator: &ClusterCoordinator) -> Result<Vec<Query>, String> {
    let size = RectSize::square(SIDE);
    let b = coordinator.boundaries();
    let center = (b[0] + b[1]) / 2.0;
    let narrow = Rect::new(center - SIDE, center + SIDE, 490_000.0, 510_000.0);
    let mix = vec![
        Query::max_rs(size),
        Query::top_k(size, 3),
        Query::approx_max_crs(SIDE),
        Query::min_rs(size, narrow),
    ];
    for q in &mix {
        let want = if matches!(q, Query::MinRs { domain, .. } if *domain == narrow) {
            1
        } else {
            SERVERS
        };
        if coordinator.fan_out(q) != want {
            return Err(format!(
                "{} fans out to {} servers, not {want}",
                q.name(),
                coordinator.fan_out(q)
            ));
        }
    }
    Ok(mix)
}

pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let tracer = &cfg.tracer;
    let objects = Dataset::generate(DatasetKind::Gaussian, OBJECTS, cfg.seed).objects;
    let log = Arc::new(RpcLog {
        tracer: Arc::clone(tracer),
        current: Mutex::new((0, None)),
        calls: Default::default(),
        failures: AtomicU64::new(0),
        recording: AtomicBool::new(false),
        recorded: Mutex::new(Vec::new()),
    });
    let (setup_s, cluster) = repeated_setup(SETUP_REPS, || start_cluster(&objects, &log))?;
    let coordinator = &cluster.coordinator;
    let mut out = Outcome::new("sim");
    out.set("setup_s", setup_s, SETUP_REPS);

    let mix = query_mix(coordinator)?;
    let expected: Vec<QueryAnswer> = {
        let reference = engine(StorageBackend::Sim, ENGINE_WORKERS)
            .prepare(&objects)
            .map_err(|e| format!("reference prepare: {e}"))?;
        mix.iter()
            .map(|q| reference.run(q).map(|r| r.answer))
            .collect::<Result<_, _>>()
            .map_err(|e| format!("reference run: {e}"))?
    };

    out.gate
        .warm_up(&mix, &expected, |q| coordinator.run(q).map(|r| r.answer));
    let calls_before: Vec<u64> = log
        .calls
        .iter()
        .map(|c| c.load(Ordering::Relaxed))
        .collect();
    let failures_before = log.failures.load(Ordering::Relaxed);
    let mut rng = Rng::new(cfg.seed, 3);
    let mut latencies = Vec::new();
    let mut io_seen: BTreeMap<usize, Vec<u64>> = BTreeMap::new();
    let (mut reads, mut writes, mut fan_out, mut touched) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut request = 0u64;
    let start = Instant::now();
    let mut first_pass = true;
    while latencies.len() < crate::MIN_QUERIES || start.elapsed() < cfg.seconds {
        let mut order: Vec<usize> = (0..mix.len()).collect();
        rng.shuffle(&mut order);
        log.recording
            .store(tracer.enabled() && first_pass, Ordering::Relaxed);
        first_pass = false;
        for i in order {
            request += 1;
            out.gate.attempt();
            let root = tracer.open("cluster.query", request, None);
            *log.current.lock().expect("rpc log poisoned") =
                (request, root.as_ref().map(|o| o.id()));
            let t = Instant::now();
            let result = coordinator.run(&mix[i]);
            let elapsed = ms_since(t);
            tracer.close(root);
            match result {
                Ok(run) => {
                    latencies.push(elapsed);
                    io_seen.entry(i).or_default().push(run.io.total());
                    reads.push(run.io.reads as f64);
                    writes.push(run.io.writes as f64);
                    fan_out.push(coordinator.fan_out(&mix[i]) as f64);
                    touched.push(coordinator.shards_touched(&mix[i]) as f64);
                    out.gate.check(mix[i].name(), &run.answer, &expected[i]);
                }
                Err(e) => out.gate.fail(format!("{}: {e}", mix[i].name())),
            }
        }
    }
    let wall = start.elapsed().as_secs_f64();
    log.recording.store(false, Ordering::Relaxed);

    let n = latencies.len();
    out.set("query_p50_ms", nearest_rank(&latencies, 0.5), n);
    out.set("query_p90_ms", nearest_rank(&latencies, 0.9), n);
    out.set("qps", n as f64 / wall, n);
    let io: Vec<f64> = reads.iter().zip(&writes).map(|(r, w)| r + w).collect();
    out.set("io_blocks_per_query", mean(&io), n);
    out.note(io_repeat_note(&io_seen));
    out.note(format!(
        "cluster-tcp: {OBJECTS} gaussian objects in {SHARDS} shards on {SERVERS} TCP loopback \
         servers (sim), closed loop, 1 client, {} distinct queries",
        mix.len()
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
        out.set("em.prepare_io", coordinator.prepare_io().total() as f64, 1);
        out.set("em.reads_per_query", mean(&reads), n);
        out.set("em.writes_per_query", mean(&writes), n);
        let lens: Vec<f64> = coordinator.shard_lens().iter().map(|&l| l as f64).collect();
        out.set(
            "shard.imbalance",
            ratio(lens.iter().copied().fold(0.0, f64::max), mean(&lens)),
            lens.len(),
        );
        out.set("shard.touched_per_query", mean(&touched), n);
        out.set("cluster.fan_out", mean(&fan_out), n);
        out.set(
            "cluster.rpc_failures",
            (log.failures.load(Ordering::Relaxed) - failures_before) as f64,
            1,
        );
        for (v, &(span, calls_key, ms_key)) in VERBS.iter().enumerate() {
            let calls = log.calls[v].load(Ordering::Relaxed) - calls_before[v];
            let times = durations(&spans, span);
            out.set(calls_key, calls as f64 / n as f64, n);
            out.set(ms_key, mean(&times), times.len());
        }
        let own = self_ms(&spans);
        let coordinator_self = self_durations(&spans, &own, "cluster.query");
        out.set(
            "cluster.coordinator_self_ms",
            mean(&coordinator_self),
            coordinator_self.len(),
        );
        replay(&cluster, &log, &mut out);
    }
    Ok(out)
}

/// Replays the RPCs of the first pass (one query of each kind) outside the
/// timed region: request encode time, bytes on the wire each way (4-byte
/// frame headers included) and the time `ShardServer::handle` takes for the
/// same requests with no transport at all.
fn replay(cluster: &Cluster, log: &RpcLog, out: &mut Outcome) {
    let recorded = log.recorded.lock().expect("rpc log poisoned");
    let mut per_query: BTreeMap<u64, [f64; 4]> = BTreeMap::new();
    for r in recorded.iter() {
        let mut encode = Vec::with_capacity(REPLAY_REPS);
        let mut server = Vec::with_capacity(REPLAY_REPS);
        let mut request_bytes = 0;
        for _ in 0..REPLAY_REPS {
            let t = Instant::now();
            request_bytes = std::hint::black_box(r.request.encode()).len();
            encode.push(ms_since(t) * 1e3);
            let t = Instant::now();
            std::hint::black_box(cluster.hosts[r.server].handle(&r.request));
            server.push(ms_since(t));
        }
        let q = per_query.entry(r.request_id).or_default();
        q[0] += median(&encode);
        q[1] += (request_bytes + 4) as f64;
        q[2] += (r.response.encode().len() + 4) as f64;
        q[3] += median(&server);
    }
    let column = |c: usize| -> Vec<f64> { per_query.values().map(|q| q[c]).collect() };
    let queries = per_query.len();
    out.set("cluster.encode_us", mean(&column(0)), queries);
    out.set("cluster.request_bytes_per_query", mean(&column(1)), queries);
    out.set(
        "cluster.response_bytes_per_query",
        mean(&column(2)),
        queries,
    );
    out.set("cluster.server_ms", mean(&column(3)), queries);
}
