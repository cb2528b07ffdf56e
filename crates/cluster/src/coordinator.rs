//! The cluster coordinator: shard routing, concurrent sub-query fan-out,
//! canonical merging, and failure handling.
//!
//! [`ClusterCoordinator`] is the multi-node twin of the single-machine
//! [`ShardedDataset`](maxrs_core::ShardedDataset): the same
//! [`ShardMap`] routing, the same boundary-spanning crop + span-event
//! decomposition, the same canonical [`merge_sweep`] — with the per-shard
//! work pushed to [`ShardServer`](crate::ShardServer)s behind a pluggable
//! [`Transport`].  The coordinator implements only the pass
//! ([`SweepSource`]); every query variant runs in the one batch executor
//! ([`QueryBatch::execute`]), so a batch shares one distributed pass per
//! sweep group exactly like a local batch.  Every accumulation that touches
//! floats happens in **global shard order**, so all four [`Query`]
//! variants are bit-identical to the unsharded
//! [`PreparedDataset::run`](maxrs_core::PreparedDataset::run) — proven by
//! the determinism suite on both transports and both storage backends.
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

use maxrs_core::{
    merge_sweep, merge_sweep_bests, parallel_map, EngineOptions, ObjectRecord, Query, QueryBatch,
    QueryRun, ShardMap, SlabBest, SlabTuple, SpanEvent, SweepSource,
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
    len: u64,
    prepare_io: IoSnapshot,
}

/// Fronts a set of shard servers as one queryable dataset.
pub struct ClusterCoordinator {
    opts: EngineOptions,
    config: ClusterConfig,
    members: Vec<Member>,
    map: ShardMap,
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
            map: ShardMap::new(Vec::new()),
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
                coordinator.map = ShardMap::new(boundaries);
                shard_map = (0..coordinator.map.num_shards()).map(|_| None).collect();
            } else if boundaries != coordinator.map.boundaries() {
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
        self.map.boundaries()
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
        self.map.touched(query).len()
    }

    /// How many servers the sweep passes of `query` fan out to.
    pub fn fan_out(&self, query: &Query) -> usize {
        self.engaged_servers(&self.map.touched(query)).len()
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
        let mut runs = self.run_batch(std::slice::from_ref(query))?;
        Ok(runs.pop().expect("one query in, one run out"))
    }

    /// Validates and plans `queries` into sweep groups, then answers them —
    /// the cluster counterpart of
    /// [`PreparedDataset::run_batch`](maxrs_core::PreparedDataset::run_batch),
    /// sharing one distributed pass per group.
    pub fn run_batch(&self, queries: &[Query]) -> Result<Vec<QueryRun>> {
        self.run_planned(&QueryBatch::new(queries)?)
    }

    /// Executes an already planned batch through the batch executor
    /// ([`QueryBatch::execute`]), groups one after another.  Each run's I/O
    /// sums the blocks its phases moved on the servers and on the
    /// coordinator's merge device.
    pub fn run_planned(&self, batch: &QueryBatch) -> Result<Vec<QueryRun>> {
        batch.execute(&ClusterPass {
            cluster: self,
            remote: Mutex::new(IoSnapshot::default()),
        })
    }

    // ---- routing ------------------------------------------------------------

    /// Server indices hosting any of the given shards, ascending, deduped.
    fn engaged_servers(&self, shards: &[usize]) -> Vec<usize> {
        let mut servers: Vec<usize> = shards.iter().map(|&s| self.shards[s].server).collect();
        servers.sort_unstable();
        servers.dedup();
        servers
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
}

/// One batch's view of the cluster: the coordinator plus the remote I/O
/// its requests reported, which together with the merge device's counters
/// is the meter the batch executor attributes per query.
struct ClusterPass<'a> {
    cluster: &'a ClusterCoordinator,
    remote: Mutex<IoSnapshot>,
}

impl SweepSource for ClusterPass<'_> {
    type Error = ClusterError;

    fn merge_ctx(&self) -> &EmContext {
        &self.cluster.merge_ctx
    }

    fn num_objects(&self) -> u64 {
        self.cluster.len
    }

    /// The per-slab bests of the canonical merge over the solved slabs.
    fn slab_bests(
        &self,
        size: RectSize,
        root: Interval,
        suppressed: &[Rect],
    ) -> Result<Vec<SlabBest>> {
        let ctx = &self.cluster.merge_ctx;
        self.pass((size, 1.0), root, suppressed, |files, slabs, spans| {
            merge_sweep_bests(ctx, files, slabs, spans)
        })
    }

    /// The canonical [`merge_sweep`] over the solved slabs: exactly the file
    /// the single-machine sharded pass produces.
    fn negated_slab_file(&self, size: RectSize, root: Interval) -> Result<TupleFile<SlabTuple>> {
        let ctx = &self.cluster.merge_ctx;
        self.pass((size, -1.0), root, &[], |files, slabs, spans| {
            merge_sweep(ctx, files, slabs, spans)
        })
    }

    /// Every server reports the minimum over its hosted shards; the
    /// coordinator takes the minimum across servers, in each direction.
    fn next_edges(
        &self,
        size: RectSize,
        root: Interval,
        after: Point,
        suppressed: &[Rect],
    ) -> Result<(f64, f64)> {
        let request = Request::Breakpoint {
            size,
            root,
            after_x: after.x,
            after_y: after.y,
            suppressed: suppressed.to_vec(),
        };
        let (mut hi, mut next_y) = (f64::INFINITY, f64::INFINITY);
        for response in self.ask_all(&request)? {
            let Response::Breakpoint {
                hi: x, next_y: y, ..
            } = response
            else {
                return Err(wrong_reply("Breakpoint"));
            };
            hi = hi.min(x);
            next_y = next_y.min(y);
        }
        Ok((hi, next_y))
    }

    /// Per-shard sums accumulated in shard order, the order of the
    /// single-machine scan.  Only the shards `0..K` of the topology checked
    /// at connect are read; a reply's other shard ids are ignored.
    fn candidate_sums(&self, candidates: &[Point], diameter: f64) -> Result<Vec<f64>> {
        let request = Request::Evaluate {
            candidates: candidates.to_vec(),
            diameter,
        };
        let mut per_shard: BTreeMap<u32, Vec<f64>> = BTreeMap::new();
        for response in self.ask_all(&request)? {
            let Response::Evaluated { sums, .. } = response else {
                return Err(wrong_reply("Evaluate"));
            };
            per_shard.extend(sums);
        }
        let mut totals = vec![0.0f64; candidates.len()];
        for shard in 0..self.cluster.shards.len() as u32 {
            if let Some(sums) = per_shard.get(&shard) {
                for (t, s) in totals.iter_mut().zip(sums) {
                    *t += s;
                }
            }
        }
        Ok(totals)
    }

    /// Every shard's objects concatenated in shard order, shards `0..K`
    /// only (as for [`candidate_sums`](SweepSource::candidate_sums)).
    fn objects(&self) -> Result<Vec<WeightedPoint>> {
        let mut per_shard: BTreeMap<u32, Vec<ObjectRecord>> = BTreeMap::new();
        for response in self.ask_all(&Request::FetchObjects)? {
            let Response::Objects { objects, .. } = response else {
                return Err(wrong_reply("FetchObjects"));
            };
            per_shard.extend(objects);
        }
        Ok((0..self.cluster.shards.len() as u32)
            .filter_map(|shard| per_shard.remove(&shard))
            .flatten()
            .map(|r| r.0)
            .collect())
    }

    fn io(&self) -> IoSnapshot {
        *self.remote.lock().expect("io lock") + self.cluster.merge_ctx.stats()
    }

    fn group_workers(&self) -> usize {
        1
    }

    fn workers(&self) -> usize {
        self.cluster.members.len()
    }
}

impl ClusterPass<'_> {
    /// One pass: the two-round distribute/solve protocol (see
    /// [`crate::protocol`]), then `merge` over the solved global slab-files
    /// and the y-sorted span events on the coordinator's merge device —
    /// exactly the inputs of the single-machine sharded pass's merge.
    fn pass<T>(
        &self,
        (size, weight_scale): (RectSize, f64),
        root: Interval,
        suppressed: &[Rect],
        merge: impl FnOnce(
            &[TupleFile<SlabTuple>],
            &[Interval],
            &TupleFile<SpanEvent>,
        ) -> maxrs_core::Result<T>,
    ) -> Result<T> {
        let (c, agg) = (self.cluster, &self.remote);
        let partition = c.map.clipped_partition(root);
        let owners = c.map.slab_owners(&partition);
        let m = partition.num_slabs();
        let engaged = c.map.engaged(size, root);
        let servers = c.engaged_servers(&engaged);
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
        let responses = c.fan_out_same(&servers, &Request::Distribute(pass.clone()), agg)?;
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
                .entry(c.shards[owner].server)
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
        let responses = c.fan_out_requests(requests, agg)?;

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
        let body = (|| -> Result<T> {
            for tuples in &resolved {
                slab_files.push(c.merge_ctx.write_all(tuples)?);
            }
            span_sets.sort_by_key(|&(source, _)| source);
            let all_spans: Vec<SpanEvent> = span_sets
                .iter()
                .flat_map(|(_, events)| events.iter().copied())
                .collect();
            let unsorted = c.merge_ctx.write_all(&all_spans)?;
            let sorted = external_sort_by_key(&c.merge_ctx, &unsorted, |e| e.y);
            c.merge_ctx.delete_file(unsorted)?;
            let sorted = sorted?;
            let merged = merge(&slab_files, &partition.slabs(), &sorted);
            c.merge_ctx.delete_file(sorted)?;
            Ok(merged?)
        })();
        for f in slab_files.drain(..) {
            let _ = c.merge_ctx.delete_file(f);
        }
        body
    }

    /// Sends `request` to every server, metering the replies' I/O.
    fn ask_all(&self, request: &Request) -> Result<Vec<Response>> {
        let servers: Vec<usize> = (0..self.cluster.members.len()).collect();
        self.cluster.fan_out_same(&servers, request, &self.remote)
    }
}

fn wrong_reply(expected: &str) -> ClusterError {
    ClusterError::Protocol {
        detail: format!("a server answered {expected} with the wrong reply variant"),
    }
}
