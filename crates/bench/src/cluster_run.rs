//! Scale-out measurements of the multi-node cluster layer
//! ([`maxrs_cluster::ClusterCoordinator`]): the same fixed input is split
//! into a fixed number of shards and hosted on an increasing number of
//! servers, so query latency and queries/sec vs server count is the curve
//! — plus one row over real TCP loopback to show the wire adds transport
//! cost but changes no answer.  Per sample the row records how many shards
//! the router engaged (`shards_touched`) and how many servers the
//! coordinator actually contacted (`fan_out`).  The same queries then run
//! once more as one mixed batch through
//! [`ClusterCoordinator::run_batch`], which shares one distributed pass per
//! sweep group.  Every answer, sampled or batched, is verified bit-identical
//! to an unsharded
//! [`PreparedDataset::run`](maxrs_core::PreparedDataset::run).  The
//! measurements behind the `cluster` command of the experiment harness.

use std::sync::Arc;
use std::time::Instant;

use maxrs_cluster::{
    partition_objects, serve_tcp, ClusterConfig, ClusterCoordinator, ClusterError,
    InProcessTransport, ShardServer, TcpTransport, Transport,
};
use maxrs_core::{EngineOptions, ExactMaxRsOptions, MaxRsEngine, Query, QueryAnswer};
use maxrs_em::EmConfig;
use maxrs_geometry::WeightedPoint;

use crate::json::Value;

/// How many x-sample points the partitioner draws when choosing shard
/// boundaries — the [`maxrs_core::ShardLayout`] default.
const BOUNDARY_SAMPLE: usize = 8192;

/// Which transport a cluster row was measured over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterTransport {
    /// Direct in-process calls — isolates coordinator/merge overhead.
    InProcess,
    /// Real `std::net` TCP over loopback — adds framing + socket cost.
    Tcp,
}

impl ClusterTransport {
    /// Short name used in printed rows and JSON ("in-process", "tcp").
    pub fn name(self) -> &'static str {
        match self {
            ClusterTransport::InProcess => "in-process",
            ClusterTransport::Tcp => "tcp",
        }
    }
}

/// One measured query against a cluster: routing breadth and answer cost.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterQuerySample {
    /// Short name of the query variant ("max-rs", "min-rs", ...).
    pub query: String,
    /// Shards the rect-size-inflated query was routed to.
    pub shards_touched: usize,
    /// Servers the coordinator engaged for those shards.
    pub fan_out: usize,
    /// Wall-clock of the query, in nanoseconds.
    pub query_ns: u128,
    /// Logical blocks transferred across all engaged servers.
    pub query_io: u64,
}

/// Outcome of hosting one fixed input (at one fixed shard count) on one
/// server count over one transport: the verified query samples plus the
/// sustained rate of answering them back to back.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterRun {
    /// Storage-backend name of the shard contexts ("sim", "fs").
    pub backend: String,
    /// Transport the row was measured over ("in-process", "tcp").
    pub transport: String,
    /// Objects in the fixed input.
    pub n: usize,
    /// Shards the input was split into (after boundary dedupe).
    pub shards: usize,
    /// Servers the shards were hosted on (round-robin).
    pub servers: usize,
    /// Objects per shard, in x order.
    pub shard_lens: Vec<u64>,
    /// Wall-clock of answering every sampled query once, in nanoseconds.
    pub wall_ns: u128,
    /// The query samples, one per measured variant.
    pub samples: Vec<ClusterQuerySample>,
    /// Wall-clock of answering the sampled queries as one batch, in
    /// nanoseconds.
    pub batch_ns: u128,
    /// Logical blocks the batch transferred, summed over its runs.
    pub batch_io: u64,
    /// `true` when every sampled and every batched answer was bit-identical
    /// to an unsharded [`MaxRsEngine::prepare`] over the same input.
    pub verified: bool,
}

impl ClusterRun {
    /// Sustained rate of the back-to-back sample loop, in queries/sec.
    pub fn qps(&self) -> f64 {
        self.samples.len() as f64 / (self.wall_ns.max(1) as f64 / 1e9)
    }

    /// Serializes the run for the experiment harness's JSON output.
    pub fn to_value(&self) -> Value {
        let samples: Vec<Value> = self
            .samples
            .iter()
            .map(|s| {
                Value::object(vec![
                    ("query", Value::String(s.query.clone())),
                    ("shards_touched", Value::Number(s.shards_touched as f64)),
                    ("fan_out", Value::Number(s.fan_out as f64)),
                    ("query_ns", Value::Number(s.query_ns as f64)),
                    ("query_io", Value::Number(s.query_io as f64)),
                ])
            })
            .collect();
        let lens: Vec<Value> = self
            .shard_lens
            .iter()
            .map(|&l| Value::Number(l as f64))
            .collect();
        Value::object(vec![
            ("id", Value::String("cluster".into())),
            ("backend", Value::String(self.backend.clone())),
            ("transport", Value::String(self.transport.clone())),
            ("n", Value::Number(self.n as f64)),
            ("shards", Value::Number(self.shards as f64)),
            ("servers", Value::Number(self.servers as f64)),
            ("shard_lens", Value::Array(lens)),
            ("wall_ns", Value::Number(self.wall_ns as f64)),
            ("qps", Value::Number(self.qps())),
            ("samples", Value::Array(samples)),
            ("batch_ns", Value::Number(self.batch_ns as f64)),
            ("batch_io", Value::Number(self.batch_io as f64)),
            ("verified", Value::Bool(self.verified)),
        ])
    }
}

fn engine_options(config: EmConfig) -> EngineOptions {
    EngineOptions {
        em_config: config,
        exact: ExactMaxRsOptions {
            parallelism: 1,
            ..ExactMaxRsOptions::default()
        },
        force_strategy: None,
    }
}

/// Splits `objects` into `shards` x-ranges, hosts them round-robin on
/// `servers` [`ShardServer`]s reached over `transport`, answers every query
/// in `queries` one by one and then as one batch, and verifies each answer
/// against `expected` (the unsharded answers in the same order).
pub fn run_cluster(
    config: EmConfig,
    objects: &[WeightedPoint],
    shards: usize,
    servers: usize,
    transport: ClusterTransport,
    queries: &[Query],
    expected: &[QueryAnswer],
) -> maxrs_cluster::Result<ClusterRun> {
    let opts = engine_options(config);
    let (boundaries, parts) = partition_objects(objects, shards, BOUNDARY_SAMPLE);
    let servers = servers.max(1).min(parts.len());
    let mut hosts: Vec<ShardServer> = (0..servers)
        .map(|_| ShardServer::new(opts, boundaries.clone()))
        .collect();
    for (t, part) in parts.iter().enumerate() {
        hosts[t % servers].host(t, part)?;
    }

    // Keep TCP listeners alive for the whole measurement; shut down after.
    let mut tcp_handles = Vec::new();
    let transports: Vec<Box<dyn Transport>> = hosts
        .into_iter()
        .enumerate()
        .map(|(i, host)| -> maxrs_cluster::Result<Box<dyn Transport>> {
            let name = format!("server-{i}");
            let host = Arc::new(host);
            match transport {
                ClusterTransport::InProcess => Ok(Box::new(InProcessTransport::new(name, host))),
                ClusterTransport::Tcp => {
                    let handle =
                        serve_tcp(host, "127.0.0.1:0").map_err(|e| ClusterError::Topology {
                            detail: format!("failed to serve on loopback: {e}"),
                        })?;
                    let t = TcpTransport::new(name, handle.addr());
                    tcp_handles.push(handle);
                    Ok(Box::new(t))
                }
            }
        })
        .collect::<maxrs_cluster::Result<_>>()?;
    let cluster = ClusterCoordinator::connect(opts, ClusterConfig::default(), transports)?;

    let mut samples = Vec::with_capacity(queries.len());
    let mut verified = true;
    let loop_start = Instant::now();
    for (query, want) in queries.iter().zip(expected) {
        let shards_touched = cluster.shards_touched(query);
        let fan_out = cluster.fan_out(query);
        let t = Instant::now();
        let run = cluster.run(query)?;
        samples.push(ClusterQuerySample {
            query: query.name().to_string(),
            shards_touched,
            fan_out,
            query_ns: t.elapsed().as_nanos(),
            query_io: run.io.total(),
        });
        verified &= run.answer == *want;
    }
    let wall_ns = loop_start.elapsed().as_nanos();

    let batch_start = Instant::now();
    let batch = cluster.run_batch(queries)?;
    let batch_ns = batch_start.elapsed().as_nanos();
    verified &= batch.iter().map(|r| &r.answer).eq(expected);
    let batch_io = batch.iter().map(|r| r.io.total()).sum();

    let row = ClusterRun {
        backend: cluster.backend_name().to_string(),
        transport: transport.name().to_string(),
        n: objects.len(),
        shards: cluster.num_shards(),
        servers: cluster.num_servers(),
        shard_lens: cluster.shard_lens(),
        wall_ns,
        samples,
        batch_ns,
        batch_io,
        verified,
    };
    drop(cluster);
    for mut handle in tcp_handles {
        handle.shutdown();
    }
    Ok(row)
}

/// The scale-out curve: one unsharded prepare establishes the reference
/// answers, then the **same** input at the **same** shard count is hosted
/// on every server count in `server_counts` over the in-process transport,
/// plus one final row over real TCP loopback at the largest server count.
/// Every sampled answer of every row is verified bit-identical to the
/// unsharded reference.
pub fn run_cluster_curve(
    config: EmConfig,
    objects: &[WeightedPoint],
    shards: usize,
    server_counts: &[usize],
    queries: &[Query],
) -> maxrs_cluster::Result<Vec<ClusterRun>> {
    let reference = MaxRsEngine::with_options(engine_options(config)).prepare(objects)?;
    let expected: Vec<QueryAnswer> = queries
        .iter()
        .map(|q| reference.run(q).map(|r| r.answer))
        .collect::<maxrs_core::Result<_>>()?;
    drop(reference);

    let mut rows = Vec::with_capacity(server_counts.len() + 1);
    for &servers in server_counts {
        rows.push(run_cluster(
            config,
            objects,
            shards,
            servers,
            ClusterTransport::InProcess,
            queries,
            &expected,
        )?);
    }
    let tcp_servers = server_counts.iter().copied().max().unwrap_or(1);
    rows.push(run_cluster(
        config,
        objects,
        shards,
        tcp_servers,
        ClusterTransport::Tcp,
        queries,
        &expected,
    )?);
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use maxrs_datagen::{Dataset, DatasetKind};
    use maxrs_geometry::{Rect, RectSize};

    #[test]
    fn curve_is_verified_on_both_transports() {
        let config = EmConfig::new(512, 32 * 512).unwrap();
        let ds = Dataset::generate(DatasetKind::Uniform, 1_500, 7);
        let size = RectSize::square(40_000.0);
        let queries = vec![
            Query::max_rs(size),
            Query::top_k(size, 3),
            Query::min_rs(size, Rect::new(450_000.0, 470_000.0, 0.0, 1_000_000.0)),
        ];
        let rows = run_cluster_curve(config, &ds.objects, 4, &[1, 2, 4], &queries).unwrap();
        assert_eq!(rows.len(), 4);
        for row in &rows {
            assert!(
                row.verified,
                "{} x{} answers diverged",
                row.transport, row.servers
            );
            assert_eq!(row.shards, 4);
            assert_eq!(row.samples.len(), queries.len());
            assert_eq!(row.shard_lens.iter().sum::<u64>(), 1_500);
            assert!(row.qps() > 0.0);
            // max-rs and top-k share one pass in the batch.
            let sampled_io: u64 = row.samples.iter().map(|s| s.query_io).sum();
            assert!(
                row.batch_io < sampled_io,
                "{} x{}",
                row.transport,
                row.servers
            );
            for s in &row.samples {
                assert!(s.shards_touched >= 1 && s.shards_touched <= row.shards);
                assert!(s.fan_out >= 1 && s.fan_out <= row.servers);
                // A server fans out at most once per hosted-and-engaged
                // shard set, so fan-out never exceeds shards touched.
                assert!(s.fan_out <= s.shards_touched);
            }
        }
        assert_eq!(rows[0].servers, 1);
        assert_eq!(rows[2].servers, 4);
        assert_eq!(rows[3].transport, "tcp");
        assert_eq!(rows[3].servers, 4);
        // Narrow-domain min-rs touches fewer shards than the whole-domain
        // variants, and the router agrees across server counts.
        let narrow = |row: &ClusterRun| row.samples[2].shards_touched;
        assert!(narrow(&rows[0]) <= rows[0].samples[0].shards_touched);
        assert_eq!(narrow(&rows[0]), narrow(&rows[2]));

        let json = rows[3].to_value();
        assert_eq!(json.get("id").unwrap().as_str(), Some("cluster"));
        assert_eq!(json.get("transport").unwrap().as_str(), Some("tcp"));
        assert_eq!(json.get("verified").unwrap(), &Value::Bool(true));
        assert_eq!(json.get("shards").unwrap().as_f64(), Some(4.0));
        assert!(json.get("qps").unwrap().as_f64().unwrap() > 0.0);
        assert!(json.get("samples").unwrap().as_array().is_some());
    }
}
