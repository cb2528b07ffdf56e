//! The cluster coordinator: shard routing, concurrent sub-query fan-out,
//! canonical merging, and failure handling.
//!
//! [`ClusterCoordinator`] is the multi-node twin of the single-machine
//! [`ShardedDataset`](maxrs_core::ShardedDataset): the same engaged-shard
//! routing, the same boundary-spanning crop + span-event decomposition, the
//! same canonical [`merge_sweep`] and min-next-breakpoint widening — with
//! the per-shard work pushed to [`ShardServer`](crate::ShardServer)s behind
//! a pluggable [`Transport`].  Every accumulation that touches floats
//! happens in **global shard order**, so all four [`Query`] variants are
//! bit-identical to the unsharded [`PreparedDataset::run`]
//! (maxrs_core::PreparedDataset::run) — proven by the determinism suite on
//! both transports and both storage backends.
//!
//! ## Robustness
//!
//! Each request runs under a per-attempt timeout with bounded retries and
//! exponential backoff ([`ClusterConfig`]).  A server that exhausts its
//! retry budget fails the query with
//! [`ClusterError::ShardUnavailable`] naming the server and its shards —
//! never a hang, never a silently wrong answer — and accumulates toward a
//! per-server failure threshold after which the coordinator fails fast
//! without touching the network ([`ShardHealth::Dead`]) until
//! [`revive`](ClusterCoordinator::revive)d.  Server-side errors
//! ([`ClusterError::Remote`]) are deterministic and are not retried.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Duration;

use maxrs_core::shard::shard_slab;
use maxrs_core::sweep::extract_best;
use maxrs_core::{
    best_candidate, candidate_points, merge_sweep, min_rs_in_memory, min_strip_scan, parallel_map,
    EngineOptions, ExecutionStrategy, MaxCrsResult, MaxRsResult, ObjectRecord, Query, QueryAnswer,
    QueryBatch, QueryRun, SlabPartition, SlabTuple, SpanEvent,
};
use maxrs_em::{external_sort_by_key, EmContext, IoSnapshot, TupleFile};
use maxrs_geometry::{Interval, Point, Rect, RectSize, WeightedPoint};

use crate::error::{ClusterError, Result};
use crate::protocol::{PassSpec, PieceSet, Request, Response};
use crate::transport::Transport;

/// Timeout, retry and health policy of a coordinator.
#[derive(Debug, Clone, Copy)]
pub struct ClusterConfig {
    /// Per-attempt timeout of every request.
    pub request_timeout: Duration,
    /// Retries after the first failed attempt (so `retries + 1` attempts
    /// per request).
    pub retries: u32,
    /// Base backoff before the first retry; doubles per subsequent retry.
    /// `Duration::ZERO` disables sleeping (deterministic tests).
    pub backoff: Duration,
    /// Consecutive failed **requests** (each already through its retry
    /// budget) after which a server is marked dead and fails fast.
    pub failure_threshold: u32,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            request_timeout: Duration::from_secs(5),
            retries: 2,
            backoff: Duration::from_millis(10),
            failure_threshold: 3,
        }
    }
}

/// Health of one server as tracked by the coordinator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardHealth {
    /// Last request succeeded.
    Healthy,
    /// At least one recent request failed, but the failure threshold has
    /// not been reached.
    Degraded,
    /// The failure threshold was crossed: requests fail fast until
    /// [`ClusterCoordinator::revive`].
    Dead,
}

#[derive(Default)]
struct HealthState {
    consecutive_failures: u32,
    dead: bool,
}

struct Member {
    transport: Box<dyn Transport>,
    shards: Vec<usize>,
    health: Mutex<HealthState>,
}

struct ShardRef {
    server: usize,
    slab: Interval,
    len: u64,
    prepare_io: IoSnapshot,
}

/// Fronts a set of shard servers as one queryable dataset.
pub struct ClusterCoordinator {
    opts: EngineOptions,
    config: ClusterConfig,
    members: Vec<Member>,
    boundaries: Vec<f64>,
    shards: Vec<ShardRef>,
    merge_ctx: EmContext,
    backend: String,
    len: u64,
}

impl std::fmt::Debug for ClusterCoordinator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterCoordinator")
            .field("servers", &self.members.len())
            .field("shards", &self.shards.len())
            .field("len", &self.len)
            .finish()
    }
}

impl ClusterCoordinator {
    /// Connects to the given servers: performs the `Describe` handshake on
    /// every transport, validates that all servers agree on the shard
    /// boundaries, and that the global shards `0..K` are hosted exactly
    /// once across the cluster.
    pub fn connect(
        opts: EngineOptions,
        config: ClusterConfig,
        transports: Vec<Box<dyn Transport>>,
    ) -> Result<Self> {
        if transports.is_empty() {
            return Err(ClusterError::Topology {
                detail: "a cluster needs at least one server".to_string(),
            });
        }
        let merge_ctx = EmContext::new(opts.em_config);
        let mut coordinator = ClusterCoordinator {
            opts,
            config,
            members: transports
                .into_iter()
                .map(|transport| Member {
                    transport,
                    shards: Vec::new(),
                    health: Mutex::new(HealthState::default()),
                })
                .collect(),
            boundaries: Vec::new(),
            shards: Vec::new(),
            merge_ctx,
            backend: String::new(),
            len: 0,
        };

        let mut shard_map: Vec<Option<ShardRef>> = Vec::new();
        for i in 0..coordinator.members.len() {
            let agg = Mutex::new(IoSnapshot::default());
            let resp = coordinator.rpc(i, &Request::Describe, &agg)?;
            let Response::Described {
                boundaries,
                backend,
                shards,
            } = resp
            else {
                return Err(ClusterError::Protocol {
                    detail: format!(
                        "server '{}' answered the handshake with the wrong reply",
                        coordinator.members[i].transport.name()
                    ),
                });
            };
            if i == 0 {
                shard_map = (0..boundaries.len() + 1).map(|_| None).collect();
                coordinator.boundaries = boundaries;
            } else if boundaries != coordinator.boundaries {
                return Err(ClusterError::Topology {
                    detail: format!(
                        "server '{}' disagrees on the shard boundaries",
                        coordinator.members[i].transport.name()
                    ),
                });
            }
            for info in shards {
                let id = info.shard as usize;
                if id >= shard_map.len() {
                    return Err(ClusterError::Topology {
                        detail: format!(
                            "server '{}' hosts shard {id} but the cluster only has {} shards",
                            coordinator.members[i].transport.name(),
                            shard_map.len()
                        ),
                    });
                }
                if let Some(prev) = &shard_map[id] {
                    return Err(ClusterError::Topology {
                        detail: format!(
                            "shard {id} hosted by both '{}' and '{}'",
                            coordinator.members[prev.server].transport.name(),
                            coordinator.members[i].transport.name()
                        ),
                    });
                }
                shard_map[id] = Some(ShardRef {
                    server: i,
                    slab: shard_slab(&coordinator.boundaries, id),
                    len: info.len,
                    prepare_io: info.prepare_io,
                });
                coordinator.members[i].shards.push(id);
            }
            if coordinator.backend.is_empty() {
                coordinator.backend = backend;
            }
        }

        for (id, slot) in shard_map.iter().enumerate() {
            if slot.is_none() {
                return Err(ClusterError::Topology {
                    detail: format!("shard {id} is hosted by no server"),
                });
            }
        }
        coordinator.shards = shard_map.into_iter().map(|s| s.expect("checked")).collect();
        coordinator.len = coordinator.shards.iter().map(|s| s.len).sum();
        Ok(coordinator)
    }

    // ---- dataset-shaped accessors ------------------------------------------

    /// The engine options the coordinator (and its merge device) runs with.
    pub fn options(&self) -> EngineOptions {
        self.opts
    }

    /// Total objects across the cluster.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// `true` when the cluster holds no objects.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of global shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Number of servers.
    pub fn num_servers(&self) -> usize {
        self.members.len()
    }

    /// Global interior shard boundaries (`K - 1` values).
    pub fn boundaries(&self) -> &[f64] {
        &self.boundaries
    }

    /// Objects per global shard.
    pub fn shard_lens(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.len).collect()
    }

    /// Summed preparation I/O reported by the servers at handshake.
    pub fn prepare_io(&self) -> IoSnapshot {
        self.shards
            .iter()
            .fold(IoSnapshot::default(), |acc, s| acc + s.prepare_io)
    }

    /// Storage backend name reported by the servers (first non-empty).
    pub fn backend_name(&self) -> &str {
        &self.backend
    }

    /// How many shards `query` routes to — same inflated-slab rule as the
    /// single-machine
    /// [`ShardedDataset::shards_touched`](maxrs_core::ShardedDataset::shards_touched).
    pub fn shards_touched(&self, query: &Query) -> usize {
        let (size, root) = query_root(query);
        self.engaged_sources(size, root).len()
    }

    /// How many servers the sweep passes of `query` fan out to.
    pub fn fan_out(&self, query: &Query) -> usize {
        let (size, root) = query_root(query);
        self.engaged_servers(&self.engaged_sources(size, root))
            .len()
    }

    /// Current health of every server, by transport name.
    pub fn health(&self) -> Vec<(String, ShardHealth)> {
        self.members
            .iter()
            .map(|m| {
                let h = m.health.lock().expect("health lock");
                let state = if h.dead {
                    ShardHealth::Dead
                } else if h.consecutive_failures > 0 {
                    ShardHealth::Degraded
                } else {
                    ShardHealth::Healthy
                };
                (m.transport.name().to_string(), state)
            })
            .collect()
    }

    /// Clears the dead flag and failure count of the named server so it is
    /// tried again (e.g. after an operator restarted it).  Returns `false`
    /// when no server has that name.
    pub fn revive(&self, server: &str) -> bool {
        for m in &self.members {
            if m.transport.name() == server {
                let mut h = m.health.lock().expect("health lock");
                h.dead = false;
                h.consecutive_failures = 0;
                return true;
            }
        }
        false
    }

    // ---- query execution ----------------------------------------------------

    /// Answers one query, bit-identical to the unsharded
    /// [`PreparedDataset::run`](maxrs_core::PreparedDataset::run).
    pub fn run(&self, query: &Query) -> Result<QueryRun> {
        query.validate()?;
        let before = self.merge_ctx.stats();
        let agg = Mutex::new(IoSnapshot::default());
        let answer = self.answer(query, &agg)?;
        let remote = *agg.lock().expect("io lock");
        let io = remote + self.merge_ctx.stats().delta(&before);
        let workers = self.members.len();
        let strategy = if workers > 1 {
            ExecutionStrategy::ExternalParallel
        } else {
            ExecutionStrategy::ExternalSequential
        };
        Ok(QueryRun {
            answer,
            strategy,
            workers,
            io,
        })
    }

    /// Validates and answers a batch of queries, one after another.
    ///
    /// Unlike the single-machine batch executor the cluster does not share
    /// sweep passes between queries of the same rectangle size yet — each
    /// query runs its own fan-out (answers are identical either way; only
    /// the I/O sharing differs).
    pub fn run_batch(&self, queries: &[Query]) -> Result<Vec<QueryRun>> {
        QueryBatch::new(queries)?;
        queries.iter().map(|q| self.run(q)).collect()
    }

    /// Answers an already planned batch query-by-query (see
    /// [`run_batch`](ClusterCoordinator::run_batch) for the sharing caveat).
    pub fn run_planned(&self, batch: &QueryBatch) -> Result<Vec<QueryRun>> {
        batch.queries().iter().map(|q| self.run(q)).collect()
    }

    fn answer(&self, query: &Query, agg: &Mutex<IoSnapshot>) -> Result<QueryAnswer> {
        match *query {
            Query::MaxRs { size } => Ok(QueryAnswer::MaxRs(self.cluster_max_rs(size, &[], agg)?)),
            Query::TopK { size, k } => Ok(QueryAnswer::TopK(self.top_k(size, k, agg)?)),
            Query::ApproxMaxCrs { diameter, .. } => {
                let sigma = query.sigma_fraction().expect("approx variant has a sigma");
                Ok(QueryAnswer::MaxCrs(
                    self.approx_max_crs(diameter, sigma, agg)?,
                ))
            }
            Query::MinRs { size, domain } => {
                Ok(QueryAnswer::MinRs(self.min_rs(size, domain, agg)?))
            }
        }
    }

    // ---- routing ------------------------------------------------------------

    /// Engaged source shards: same strictly-out-of-reach rule as the
    /// single-machine dataset.
    fn engaged_sources(&self, size: RectSize, root: Interval) -> Vec<usize> {
        let half = size.width / 2.0;
        (0..self.shards.len())
            .filter(|&i| {
                let s = self.shards[i].slab;
                !(s.hi + half < root.lo || s.lo - half > root.hi)
            })
            .collect()
    }

    fn clipped_partition(&self, root: Interval) -> SlabPartition {
        let mut bounds = Vec::with_capacity(self.boundaries.len() + 2);
        bounds.push(root.lo);
        for &b in &self.boundaries {
            if b > root.lo && b < root.hi {
                bounds.push(b);
            }
        }
        bounds.push(root.hi);
        SlabPartition::new(bounds)
    }

    fn slab_owners(&self, partition: &SlabPartition) -> Vec<usize> {
        (0..partition.num_slabs())
            .map(|t| {
                self.boundaries
                    .partition_point(|&b| b <= partition.boundaries[t])
                    .min(self.shards.len() - 1)
            })
            .collect()
    }

    /// Server indices hosting any of the given shards, ascending, deduped.
    fn engaged_servers(&self, shards: &[usize]) -> Vec<usize> {
        let mut servers: Vec<usize> = shards.iter().map(|&s| self.shards[s].server).collect();
        servers.sort_unstable();
        servers.dedup();
        servers
    }

    fn all_servers(&self) -> Vec<usize> {
        (0..self.members.len()).collect()
    }

    // ---- rpc plumbing -------------------------------------------------------

    /// One request with the full robustness treatment: fast-fail on dead
    /// servers, per-attempt timeout, bounded retries with exponential
    /// backoff, health bookkeeping, remote I/O aggregation.
    fn rpc(&self, server: usize, request: &Request, agg: &Mutex<IoSnapshot>) -> Result<Response> {
        let member = &self.members[server];
        {
            let h = member.health.lock().expect("health lock");
            if h.dead {
                return Err(ClusterError::ShardUnavailable {
                    server: member.transport.name().to_string(),
                    shards: member.shards.clone(),
                    attempts: 0,
                    detail: "server is marked dead by the health tracker".to_string(),
                });
            }
        }
        let attempts = self.config.retries + 1;
        let mut last = String::new();
        for attempt in 0..attempts {
            if attempt > 0 && !self.config.backoff.is_zero() {
                self.sleep_backoff(attempt);
            }
            match member.transport.call(request, self.config.request_timeout) {
                Ok(Response::Error { message }) => {
                    // Deterministic server-side failure: retrying cannot
                    // help, and the server itself is alive.
                    return Err(ClusterError::Remote {
                        server: member.transport.name().to_string(),
                        detail: message,
                    });
                }
                Ok(response) => {
                    member
                        .health
                        .lock()
                        .expect("health lock")
                        .consecutive_failures = 0;
                    let mut total = agg.lock().expect("io lock");
                    *total = *total + response.io();
                    return Ok(response);
                }
                Err(e) => last = e.to_string(),
            }
        }
        {
            let mut h = member.health.lock().expect("health lock");
            h.consecutive_failures += 1;
            if h.consecutive_failures >= self.config.failure_threshold {
                h.dead = true;
            }
        }
        Err(ClusterError::ShardUnavailable {
            server: member.transport.name().to_string(),
            shards: member.shards.clone(),
            attempts,
            detail: last,
        })
    }

    fn sleep_backoff(&self, attempt: u32) {
        let factor = 2u32.saturating_pow(attempt.saturating_sub(1));
        std::thread::sleep(self.config.backoff.saturating_mul(factor));
    }

    /// Fans the prepared `(server, request)` pairs out concurrently and
    /// collects the replies in the same order.
    fn fan_out_requests(
        &self,
        requests: Vec<(usize, Request)>,
        agg: &Mutex<IoSnapshot>,
    ) -> Result<Vec<Response>> {
        let workers = requests.len().max(1);
        let outs = parallel_map(workers, requests, |_, (server, request)| {
            self.rpc(server, &request, agg)
        });
        let mut responses = Vec::with_capacity(outs.len());
        let mut first_err = None;
        for out in outs {
            match out {
                Ok(r) => responses.push(r),
                Err(e) => first_err = first_err.or(Some(e)),
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(responses),
        }
    }

    fn fan_out_same(
        &self,
        servers: &[usize],
        request: &Request,
        agg: &Mutex<IoSnapshot>,
    ) -> Result<Vec<Response>> {
        self.fan_out_requests(servers.iter().map(|&s| (s, request.clone())).collect(), agg)
    }

    // ---- the distributed sweep ----------------------------------------------

    /// One `(size, weight_scale, root)` pass over the cluster: the
    /// two-round distribute/solve protocol (see [`crate::protocol`]) plus
    /// the canonical [`merge_sweep`] on the coordinator's merge device.
    /// Returns the merged root slab-file, exactly the file the
    /// single-machine `sharded_slab_file` produces.
    fn cluster_slab_file(
        &self,
        size: RectSize,
        weight_scale: f64,
        root: Interval,
        suppressed: &[Rect],
        agg: &Mutex<IoSnapshot>,
    ) -> Result<TupleFile<SlabTuple>> {
        let partition = self.clipped_partition(root);
        let owners = self.slab_owners(&partition);
        let m = partition.num_slabs();
        let engaged = self.engaged_sources(size, root);
        let servers = self.engaged_servers(&engaged);
        let pass = PassSpec {
            size,
            weight_scale,
            root,
            bounds: partition.boundaries.clone(),
            owners: owners.iter().map(|&o| o as u32).collect(),
            engaged: engaged.iter().map(|&s| s as u32).collect(),
            suppressed: suppressed.to_vec(),
        };

        // Round 1 — distribute: spans and cross-server piece exports.
        let responses = self.fan_out_same(&servers, &Request::Distribute(pass.clone()), agg)?;
        let mut span_sets: Vec<(u32, Vec<SpanEvent>)> = Vec::new();
        let mut exports: BTreeMap<(u32, u32), Vec<maxrs_core::RectRecord>> = BTreeMap::new();
        for response in responses {
            let Response::Distributed {
                spans, exported, ..
            } = response
            else {
                return Err(wrong_reply("Distribute"));
            };
            span_sets.extend(spans);
            for ps in exported {
                if exports.insert((ps.source, ps.slab), ps.rects).is_some() {
                    return Err(ClusterError::Protocol {
                        detail: format!(
                            "piece set (source {}, slab {}) exported twice",
                            ps.source, ps.slab
                        ),
                    });
                }
            }
        }

        // Round 2 — solve: route each export to the server hosting the
        // owner shard of its slab.
        let mut imported: BTreeMap<usize, Vec<PieceSet>> = BTreeMap::new();
        for ((source, slab), rects) in exports {
            let owner = owners[slab as usize];
            imported
                .entry(self.shards[owner].server)
                .or_default()
                .push(PieceSet {
                    source,
                    slab,
                    rects,
                });
        }
        let requests: Vec<(usize, Request)> = servers
            .iter()
            .map(|&s| {
                (
                    s,
                    Request::Solve {
                        pass: pass.clone(),
                        imported: imported.remove(&s).unwrap_or_default(),
                    },
                )
            })
            .collect();
        let responses = self.fan_out_requests(requests, agg)?;

        let mut slab_tuples: Vec<Option<Vec<SlabTuple>>> = (0..m).map(|_| None).collect();
        for response in responses {
            let Response::Solved { slabs, .. } = response else {
                return Err(wrong_reply("Solve"));
            };
            for (t, tuples) in slabs {
                let t = t as usize;
                if t >= m || slab_tuples[t].replace(tuples).is_some() {
                    return Err(ClusterError::Protocol {
                        detail: format!("global slab {t} solved zero or two times"),
                    });
                }
            }
        }
        let mut resolved = Vec::with_capacity(m);
        for (t, tuples) in slab_tuples.into_iter().enumerate() {
            match tuples {
                Some(ts) => resolved.push(ts),
                None => {
                    return Err(ClusterError::Protocol {
                        detail: format!("no server solved global slab {t}"),
                    })
                }
            }
        }

        // Merge on the coordinator's device: per-slab files + y-sorted span
        // events through the canonical MergeSweep.
        let mut slab_files: Vec<TupleFile<SlabTuple>> = Vec::with_capacity(m);
        let body = (|| -> Result<TupleFile<SlabTuple>> {
            for tuples in &resolved {
                slab_files.push(self.merge_ctx.write_all(tuples)?);
            }
            span_sets.sort_by_key(|&(source, _)| source);
            let all_spans: Vec<SpanEvent> = span_sets
                .iter()
                .flat_map(|(_, events)| events.iter().copied())
                .collect();
            let unsorted = self.merge_ctx.write_all(&all_spans)?;
            let sorted = external_sort_by_key(&self.merge_ctx, &unsorted, |e| e.y);
            self.merge_ctx.delete_file(unsorted)?;
            let sorted = sorted?;
            let merged = merge_sweep(&self.merge_ctx, &slab_files, &partition.slabs(), &sorted);
            self.merge_ctx.delete_file(sorted)?;
            Ok(merged?)
        })();
        for f in slab_files.drain(..) {
            let _ = self.merge_ctx.delete_file(f);
        }
        body
    }

    /// The full distributed MaxRS pipeline: sweep → extract → canonicalize.
    fn cluster_max_rs(
        &self,
        size: RectSize,
        suppressed: &[Rect],
        agg: &Mutex<IoSnapshot>,
    ) -> Result<MaxRsResult> {
        if self.len == 0 {
            return Ok(MaxRsResult::empty());
        }
        let merged = self.cluster_slab_file(size, 1.0, Interval::UNBOUNDED, suppressed, agg)?;
        let result = extract_best(&self.merge_ctx, &merged);
        self.merge_ctx.delete_file(merged)?;
        self.canonicalize(size, Interval::UNBOUNDED, suppressed, result?, agg)
    }

    /// Min-next-breakpoint canonicalization across the cluster: every
    /// server reports the minimum over its hosted shards, the coordinator
    /// takes the minimum across servers — together exactly the all-shards
    /// loop of the single-machine canonicalize.
    fn canonicalize(
        &self,
        size: RectSize,
        root: Interval,
        suppressed: &[Rect],
        result: MaxRsResult,
        agg: &Mutex<IoSnapshot>,
    ) -> Result<MaxRsResult> {
        if !result.region.x_lo.is_finite() && !result.region.x_hi.is_finite() {
            // The empty-dataset sentinel; nothing to widen.
            return Ok(result);
        }
        let hi = self.min_breakpoint(size, root, result.region.x_lo, suppressed, agg)?;
        let x = Interval::new(result.region.x_lo, hi);
        Ok(MaxRsResult {
            center: Point::new(x.representative(), result.center.y),
            total_weight: result.total_weight,
            region: Rect::new(x.lo, x.hi, result.region.y_lo, result.region.y_hi),
        })
    }

    fn min_breakpoint(
        &self,
        size: RectSize,
        root: Interval,
        after_x: f64,
        suppressed: &[Rect],
        agg: &Mutex<IoSnapshot>,
    ) -> Result<f64> {
        let request = Request::Breakpoint {
            size,
            root,
            after_x,
            suppressed: suppressed.to_vec(),
        };
        let responses = self.fan_out_same(&self.all_servers(), &request, agg)?;
        let mut hi = f64::INFINITY;
        for response in responses {
            let Response::Breakpoint { hi: h, .. } = response else {
                return Err(wrong_reply("Breakpoint"));
            };
            hi = hi.min(h);
        }
        Ok(hi)
    }

    /// Greedy suppression rounds; each round is a full distributed MaxRS
    /// over the objects not strictly inside any already-chosen rectangle
    /// (carried statelessly in every request).
    fn top_k(&self, size: RectSize, k: usize, agg: &Mutex<IoSnapshot>) -> Result<Vec<MaxRsResult>> {
        let mut results = Vec::new();
        let mut suppressed: Vec<Rect> = Vec::new();
        for _ in 0..k {
            let best = self.cluster_max_rs(size, &suppressed, agg)?;
            if best.total_weight <= 0.0 {
                break;
            }
            suppressed.push(Rect::centered_at(best.center, size));
            results.push(best);
        }
        Ok(results)
    }

    /// Steps 1–3 of ApproxMaxCRS: distributed MaxRS on the MBR transform,
    /// then the five-candidate refinement with per-shard sums accumulated
    /// in shard order (the same order the single-machine refine uses).
    fn approx_max_crs(
        &self,
        diameter: f64,
        sigma_fraction: f64,
        agg: &Mutex<IoSnapshot>,
    ) -> Result<MaxCrsResult> {
        if self.len == 0 {
            return Ok(MaxCrsResult::empty());
        }
        let best = self.cluster_max_rs(RectSize::square(diameter), &[], agg)?;
        let candidates = candidate_points(best.center, diameter, sigma_fraction);
        let request = Request::Evaluate {
            candidates: candidates.to_vec(),
            diameter,
        };
        let responses = self.fan_out_same(&self.all_servers(), &request, agg)?;
        let mut per_shard: BTreeMap<u32, Vec<f64>> = BTreeMap::new();
        for response in responses {
            let Response::Evaluated { sums, .. } = response else {
                return Err(wrong_reply("Evaluate"));
            };
            for (shard, s) in sums {
                per_shard.insert(shard, s);
            }
        }
        let mut totals = vec![0.0f64; candidates.len()];
        for shard in 0..self.shards.len() as u32 {
            if let Some(sums) = per_shard.get(&shard) {
                for (t, s) in totals.iter_mut().zip(sums.iter()) {
                    *t += s;
                }
            }
        }
        Ok(best_candidate(&candidates, &totals))
    }

    /// MinRS: the weight-negated pass over the domain's x-slab, the strip
    /// scan on the merged slab-file, and the canonical finalization — all
    /// mirroring the single-machine MinRS group.
    fn min_rs(&self, size: RectSize, domain: Rect, agg: &Mutex<IoSnapshot>) -> Result<MaxRsResult> {
        if domain.x_lo == domain.x_hi || domain.y_lo == domain.y_hi {
            return self.degenerate_min_rs(size, domain, agg);
        }
        if self.len == 0 {
            return Ok(MaxRsResult {
                center: domain.center(),
                total_weight: 0.0,
                region: domain,
            });
        }
        let slab = Interval::new(domain.x_lo, domain.x_hi);
        let slab_file = self.cluster_slab_file(size, -1.0, slab, &[], agg)?;
        let best = {
            let mut reader = self.merge_ctx.open_reader(&slab_file);
            let tuples = std::iter::from_fn(|| match reader.next_record() {
                Ok(Some(t)) => Some(Ok(t)),
                Ok(None) => None,
                Err(e) => Some(Err(e.into())),
            });
            min_strip_scan(tuples, slab, domain)
        };
        self.merge_ctx.delete_file(slab_file)?;
        match best? {
            None => {
                // Defensive mirror of the in-memory fallback: evaluate the
                // domain center over the full object stream, fetched and
                // scanned in shard order so the accumulation is exactly the
                // single-machine all-shards scan.
                let center = domain.center();
                let query_rect = Rect::centered_at(center, size);
                let mut total = 0.0;
                for record in self.fetch_all_objects(agg)? {
                    if query_rect.contains_open(&record.0.point) {
                        total += record.0.weight;
                    }
                }
                Ok(MaxRsResult {
                    center,
                    total_weight: total,
                    region: domain,
                })
            }
            Some((negated_sum, x, y, from_tuple)) => {
                let x = if from_tuple {
                    let hi = self.min_breakpoint(size, slab, x.lo, &[], agg)?;
                    Interval::new(x.lo, hi)
                } else {
                    x
                };
                let center = Point::new(
                    x.representative().clamp(domain.x_lo, domain.x_hi),
                    y.representative().clamp(domain.y_lo, domain.y_hi),
                );
                Ok(MaxRsResult {
                    center,
                    // `0.0 - x` so an uncovered minimum reports +0.0
                    // (mirrors `min_rs_in_memory`).
                    total_weight: 0.0 - negated_sum,
                    region: Rect::new(x.lo, x.hi, y.lo, y.hi),
                })
            }
        }
    }

    /// Degenerate-domain MinRS: fetch every shard's records in shard order
    /// and delegate to the in-memory reference, exactly like the sharded
    /// executor's one-scan delegate.
    fn degenerate_min_rs(
        &self,
        size: RectSize,
        domain: Rect,
        agg: &Mutex<IoSnapshot>,
    ) -> Result<MaxRsResult> {
        if self.len == 0 {
            return Ok(MaxRsResult {
                center: domain.center(),
                total_weight: 0.0,
                region: domain,
            });
        }
        let records = self.fetch_all_objects(agg)?;
        let points: Vec<WeightedPoint> = records.iter().map(|r| r.0).collect();
        Ok(min_rs_in_memory(&points, size, domain))
    }

    /// Every shard's object records concatenated in global shard order.
    fn fetch_all_objects(&self, agg: &Mutex<IoSnapshot>) -> Result<Vec<ObjectRecord>> {
        let responses = self.fan_out_same(&self.all_servers(), &Request::FetchObjects, agg)?;
        let mut per_shard: BTreeMap<u32, Vec<ObjectRecord>> = BTreeMap::new();
        for response in responses {
            let Response::Objects { objects, .. } = response else {
                return Err(wrong_reply("FetchObjects"));
            };
            for (shard, records) in objects {
                per_shard.insert(shard, records);
            }
        }
        let mut all = Vec::with_capacity(self.len as usize);
        for shard in 0..self.shards.len() as u32 {
            if let Some(records) = per_shard.remove(&shard) {
                all.extend(records);
            }
        }
        Ok(all)
    }
}

fn query_root(query: &Query) -> (RectSize, Interval) {
    match *query {
        Query::MaxRs { size } | Query::TopK { size, .. } => (size, Interval::UNBOUNDED),
        Query::MinRs { size, domain } => (size, Interval::new(domain.x_lo, domain.x_hi)),
        Query::ApproxMaxCrs { diameter, .. } => (RectSize::square(diameter), Interval::UNBOUNDED),
    }
}

fn wrong_reply(expected: &str) -> ClusterError {
    ClusterError::Protocol {
        detail: format!("a server answered {expected} with the wrong reply variant"),
    }
}
