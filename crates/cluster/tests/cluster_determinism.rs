//! Cluster-execution regression tests: a [`ClusterCoordinator`] must answer
//! **bit-identically** to the unsharded [`PreparedDataset`] — all four
//! [`Query`] variants, on the in-process transport and over real TCP
//! loopback, on both storage backends, with rectangles wider than a whole
//! shard (so answers cross server boundaries through the exported-piece and
//! span-event decomposition) and tie-heavy data whose x-coordinates sit
//! exactly on shard boundaries.  Degenerate shapes are pinned too: K = 1
//! equals the single prepared dataset, one server hosting every shard
//! equals the single-machine [`ShardedDataset`], empty datasets and
//! tie-collapsed (empty) shards answer like the unsharded pipeline.  The
//! aggregated `IoSnapshot` of a cluster query is invariant across server
//! topologies, transports and storage backends.

use std::sync::Arc;
use std::time::Duration;

use maxrs_cluster::{
    partition_objects, serve_tcp, ClusterConfig, ClusterCoordinator, InProcessTransport,
    ShardServer, TcpServerHandle, TcpTransport, Transport,
};
use maxrs_core::{
    max_k_rs_in_memory, EngineOptions, ExactMaxRsOptions, MaxRsEngine, PreparedDataset, Query,
    QueryAnswer, QueryRun, ShardLayout,
};
use maxrs_datagen::{Dataset, DatasetKind, SPACE_EXTENT};
use maxrs_em::{EmConfig, IoSnapshot, StorageBackend};
use maxrs_geometry::{Rect, RectSize, WeightedPoint};

fn pseudo_random_objects(n: usize, seed: u64, extent: f64) -> Vec<WeightedPoint> {
    let mut state = seed.max(1);
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..n)
        .map(|_| {
            WeightedPoint::at(
                next() * extent,
                next() * extent,
                1.0 + (next() * 4.0).floor(),
            )
        })
        .collect()
}

/// Coordinates snapped to a coarse grid: heavy duplicate mass on x, so shard
/// boundaries (quantiles of those x-values) coincide exactly with object
/// coordinates and rectangle edges.
fn tie_heavy_objects(n: usize, seed: u64) -> Vec<WeightedPoint> {
    let mut state = seed.max(1);
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..n)
        .map(|i| {
            let x = (next() * 40.0).floor() * 25.0;
            let y = (next() * 40.0).floor() * 25.0;
            let w = if i % 5 == 0 {
                0.0
            } else {
                1.0 + (next() * 3.0).floor()
            };
            WeightedPoint::at(x, y, w)
        })
        .collect()
}

fn options_with(backend: StorageBackend) -> EngineOptions {
    EngineOptions {
        em_config: EmConfig::new(512, 32 * 512).unwrap().with_backend(backend),
        exact: ExactMaxRsOptions {
            parallelism: 1,
            ..Default::default()
        },
        force_strategy: None,
    }
}

/// No backoff sleeps in tests: retries (when a test injects faults) are
/// immediate, and healthy paths never sleep anyway.
fn test_config() -> ClusterConfig {
    ClusterConfig {
        backoff: Duration::ZERO,
        ..Default::default()
    }
}

/// Splits `objects` into `k` shards and hosts them round-robin on
/// `num_servers` servers (capped at the actual shard count).
fn build_servers(
    opts: EngineOptions,
    objects: &[WeightedPoint],
    k: usize,
    num_servers: usize,
) -> Vec<ShardServer> {
    let (boundaries, parts) = partition_objects(objects, k, 8192);
    let num_servers = num_servers.min(parts.len()).max(1);
    let mut servers: Vec<ShardServer> = (0..num_servers)
        .map(|_| ShardServer::new(opts, boundaries.clone()))
        .collect();
    for (i, part) in parts.iter().enumerate() {
        servers[i % num_servers].host(i, part).unwrap();
    }
    servers
}

fn in_process_cluster(
    opts: EngineOptions,
    objects: &[WeightedPoint],
    k: usize,
    num_servers: usize,
) -> ClusterCoordinator {
    let transports: Vec<Box<dyn Transport>> = build_servers(opts, objects, k, num_servers)
        .into_iter()
        .enumerate()
        .map(|(i, s)| {
            Box::new(InProcessTransport::new(format!("srv{i}"), Arc::new(s))) as Box<dyn Transport>
        })
        .collect();
    ClusterCoordinator::connect(opts, test_config(), transports).unwrap()
}

fn tcp_cluster(
    opts: EngineOptions,
    objects: &[WeightedPoint],
    k: usize,
    num_servers: usize,
) -> (ClusterCoordinator, Vec<TcpServerHandle>) {
    let mut handles = Vec::new();
    let mut transports: Vec<Box<dyn Transport>> = Vec::new();
    for (i, server) in build_servers(opts, objects, k, num_servers)
        .into_iter()
        .enumerate()
    {
        let handle = serve_tcp(Arc::new(server), "127.0.0.1:0").unwrap();
        transports.push(Box::new(TcpTransport::new(
            format!("srv{i}"),
            handle.addr(),
        )));
        handles.push(handle);
    }
    let cluster = ClusterCoordinator::connect(opts, test_config(), transports).unwrap();
    (cluster, handles)
}

/// All four variants at a size comparable to a shard's width plus a second
/// set at a size **wider than any shard**, so optimal placements straddle
/// boundaries (and servers).
fn variant_queries(extent: f64) -> Vec<Query> {
    let domain = Rect::new(0.1 * extent, 0.9 * extent, 0.1 * extent, 0.9 * extent);
    let narrow = Rect::new(0.05 * extent, 0.2 * extent, 0.2 * extent, 0.7 * extent);
    vec![
        Query::max_rs(RectSize::square(0.12 * extent)),
        Query::top_k(RectSize::square(0.12 * extent), 3),
        Query::min_rs(RectSize::square(0.12 * extent), domain),
        Query::approx_max_crs(0.12 * extent),
        Query::max_rs(RectSize::square(0.4 * extent)),
        Query::top_k(RectSize::square(0.4 * extent), 2),
        Query::min_rs(RectSize::square(0.4 * extent), narrow),
        Query::approx_max_crs(0.4 * extent),
    ]
}

fn assert_cluster_matches(
    cluster: &ClusterCoordinator,
    prepared: &PreparedDataset<'_>,
    queries: &[Query],
    tag: &str,
) {
    for query in queries {
        assert_eq!(
            cluster.run(query).unwrap().answer,
            prepared.run(query).unwrap().answer,
            "{tag}: cluster {} diverged from unsharded run",
            query.name()
        );
    }
    let cluster_runs = cluster.run_batch(queries).unwrap();
    let unsharded_runs = prepared.run_batch(queries).unwrap();
    for ((query, c), u) in queries.iter().zip(&cluster_runs).zip(&unsharded_runs) {
        assert_eq!(
            c.answer,
            u.answer,
            "{tag}: cluster {} diverged from unsharded batch",
            query.name()
        );
    }
}

#[test]
fn in_process_cluster_is_bit_identical_on_both_backends() {
    let extent = 1000.0;
    let queries = variant_queries(extent);
    for backend in [StorageBackend::Sim, StorageBackend::Fs] {
        let opts = options_with(backend);
        let objects = pseudo_random_objects(1800, 11, extent);
        let prepared = MaxRsEngine::with_options(opts).prepare(&objects).unwrap();
        assert!(prepared.is_external());
        for (k, servers) in [(1usize, 1usize), (2, 2), (7, 3)] {
            let cluster = in_process_cluster(opts, &objects, k, servers);
            assert_eq!(cluster.num_shards(), k);
            assert_eq!(cluster.len(), prepared.len());
            assert_cluster_matches(
                &cluster,
                &prepared,
                &queries,
                &format!("{} K={k} servers={servers}", backend.name()),
            );
        }
    }
}

#[test]
fn tcp_loopback_cluster_is_bit_identical_on_both_backends() {
    let extent = 1000.0;
    let queries = variant_queries(extent);
    for backend in [StorageBackend::Sim, StorageBackend::Fs] {
        let opts = options_with(backend);
        let objects = pseudo_random_objects(1200, 23, extent);
        let prepared = MaxRsEngine::with_options(opts).prepare(&objects).unwrap();
        let (cluster, _handles) = tcp_cluster(opts, &objects, 5, 3);
        assert_eq!(cluster.num_servers(), 3);
        assert_eq!(cluster.backend_name(), backend.name());
        assert_cluster_matches(
            &cluster,
            &prepared,
            &queries,
            &format!("tcp {} K=5", backend.name()),
        );
    }
}

#[test]
fn cluster_is_bit_identical_on_tie_heavy_data() {
    let objects = tie_heavy_objects(2400, 7);
    let opts = options_with(StorageBackend::Sim);
    let prepared = MaxRsEngine::with_options(opts).prepare(&objects).unwrap();
    let queries = variant_queries(1000.0);
    for (k, servers) in [(2usize, 2usize), (7, 3)] {
        let cluster = in_process_cluster(opts, &objects, k, servers);
        assert_cluster_matches(
            &cluster,
            &prepared,
            &queries,
            &format!("tie-heavy K={k} servers={servers}"),
        );
    }
}

#[test]
fn one_server_hosting_every_shard_matches_the_sharded_dataset() {
    let extent = 1000.0;
    let objects = pseudo_random_objects(1500, 31, extent);
    let opts = options_with(StorageBackend::Sim);
    let engine = MaxRsEngine::with_options(opts);
    let sharded = engine
        .prepare_sharded(&objects, &ShardLayout::new(4))
        .unwrap();
    let cluster = in_process_cluster(opts, &objects, 4, 1);
    assert_eq!(cluster.num_servers(), 1);
    assert_eq!(cluster.num_shards(), sharded.num_shards());
    assert_eq!(cluster.len(), sharded.len());
    for query in variant_queries(extent) {
        assert_eq!(
            cluster.run(&query).unwrap().answer,
            sharded.run(&query).unwrap().answer,
            "single-server cluster {} diverged from ShardedDataset",
            query.name()
        );
        assert_eq!(
            cluster.shards_touched(&query),
            sharded.shards_touched(&query),
            "{}: routing diverged",
            query.name()
        );
    }
}

#[test]
fn k1_cluster_matches_the_single_prepared_dataset() {
    let extent = 1000.0;
    let objects = pseudo_random_objects(900, 41, extent);
    let opts = options_with(StorageBackend::Sim);
    let prepared = MaxRsEngine::with_options(opts).prepare(&objects).unwrap();
    let cluster = in_process_cluster(opts, &objects, 1, 1);
    assert_eq!(cluster.num_shards(), 1);
    assert_cluster_matches(&cluster, &prepared, &variant_queries(extent), "K=1");
}

#[test]
fn empty_datasets_and_tie_collapsed_shards_answer_like_the_unsharded_pipeline() {
    let opts = options_with(StorageBackend::Sim);
    let queries = variant_queries(1000.0);

    // A completely empty cluster.
    let empty = in_process_cluster(opts, &[], 3, 2);
    assert!(empty.is_empty());
    let prepared_empty = MaxRsEngine::with_options(opts).prepare(&[]).unwrap();
    assert_cluster_matches(&empty, &prepared_empty, &queries, "empty");

    // All mass on two x-columns with hand-picked boundaries carving out
    // interior shards that hold **no objects** — the shape quantile
    // selection collapses into when x-ties swallow boundaries.  The
    // cluster must still cover every slab (empty shards included) and
    // answer identically.
    let two_columns: Vec<WeightedPoint> = (0..600)
        .map(|i| {
            let x = if i % 2 == 0 { 100.0 } else { 900.0 };
            WeightedPoint::at(x, (i % 37) as f64 * 27.0, 1.0 + (i % 3) as f64)
        })
        .collect();
    let boundaries = vec![200.0, 500.0, 800.0];
    let mut parts: Vec<Vec<WeightedPoint>> = (0..4).map(|_| Vec::new()).collect();
    for o in &two_columns {
        parts[boundaries.partition_point(|&b| b <= o.point.x)].push(*o);
    }
    assert!(parts[1].is_empty() && parts[2].is_empty());
    let mut alpha = ShardServer::new(opts, boundaries.clone());
    alpha.host(0, &parts[0]).unwrap();
    alpha.host(2, &parts[2]).unwrap();
    let mut beta = ShardServer::new(opts, boundaries);
    beta.host(1, &parts[1]).unwrap();
    beta.host(3, &parts[3]).unwrap();
    let transports: Vec<Box<dyn Transport>> = vec![
        Box::new(InProcessTransport::new("alpha", Arc::new(alpha))),
        Box::new(InProcessTransport::new("beta", Arc::new(beta))),
    ];
    let cluster = ClusterCoordinator::connect(opts, test_config(), transports).unwrap();
    assert_eq!(cluster.num_shards(), 4);
    assert_eq!(cluster.shard_lens(), vec![300, 0, 0, 300]);
    let prepared = MaxRsEngine::with_options(opts)
        .prepare(&two_columns)
        .unwrap();
    assert_cluster_matches(&cluster, &prepared, &queries, "empty-shards");
}

#[test]
fn io_snapshot_is_invariant_across_topology_transport_and_backend() {
    let extent = 1000.0;
    let objects = pseudo_random_objects(1400, 53, extent);
    let queries = variant_queries(extent);

    let runs = |cluster: &ClusterCoordinator| -> Vec<IoSnapshot> {
        queries.iter().map(|q| cluster.run(q).unwrap().io).collect()
    };

    let opts = options_with(StorageBackend::Sim);
    let reference = runs(&in_process_cluster(opts, &objects, 6, 1));
    assert!(
        reference.iter().any(|io| io.total() > 0),
        "cluster queries must report I/O"
    );

    // Same shards spread over more servers: identical logical transfers.
    for servers in [2usize, 3, 6] {
        let spread = runs(&in_process_cluster(opts, &objects, 6, servers));
        assert_eq!(
            reference, spread,
            "topology changed the I/O ({servers} servers)"
        );
    }

    // Same topology over TCP loopback: the transport moves bytes, not
    // blocks — the snapshot must not change.
    let (tcp, _handles) = tcp_cluster(opts, &objects, 6, 3);
    assert_eq!(reference, runs(&tcp), "TCP changed the I/O");

    // Same cluster on the filesystem backend: logical I/O is
    // backend-invariant.
    let fs = runs(&in_process_cluster(
        options_with(StorageBackend::Fs),
        &objects,
        6,
        3,
    ));
    assert_eq!(reference, fs, "backend changed the I/O");
}

/// A cluster batch shares one distributed pass per sweep group: MaxRS,
/// top-k and ApproxMaxCRS of one size answer exactly as per-query runs do,
/// while the batch's summed I/O is strictly below the per-query sum.
#[test]
fn cluster_batch_shares_sweep_passes() {
    let extent = 1000.0;
    let objects = pseudo_random_objects(1600, 61, extent);
    let cluster = in_process_cluster(options_with(StorageBackend::Sim), &objects, 4, 2);
    let side = 0.12 * extent;
    let size = RectSize::square(side);
    let queries = [
        Query::max_rs(size),
        Query::top_k(size, 3),
        Query::approx_max_crs(side),
    ];
    let single: Vec<QueryRun> = queries.iter().map(|q| cluster.run(q).unwrap()).collect();
    let batch = cluster.run_batch(&queries).unwrap();
    for ((query, s), b) in queries.iter().zip(&single).zip(&batch) {
        assert_eq!(s.answer, b.answer, "batched {} diverged", query.name());
    }
    let total = |runs: &[QueryRun]| {
        runs.iter()
            .fold(IoSnapshot::default(), |acc, r| acc + r.io)
            .total()
    };
    assert!(
        total(&batch) < total(&single),
        "batch moved {} blocks, per-query runs {}",
        total(&batch),
        total(&single)
    );
}

/// Deep top-k on tie-heavy data — k = 40, and a k larger than the number of
/// placements the greedy finds — is bit-identical on five paths: the single
/// sorted file, a K = 4 sharded dataset, a 2-server in-process cluster, a
/// 2-server TCP cluster and the in-memory greedy.
#[test]
fn deep_top_k_is_bit_identical_across_five_paths() {
    let objects = tie_heavy_objects(1500, 19);
    let opts = options_with(StorageBackend::Sim);
    let engine = MaxRsEngine::with_options(opts);
    let prepared = engine.prepare(&objects).unwrap();
    assert!(prepared.is_external());
    let sharded = engine
        .prepare_sharded(&objects, &ShardLayout::new(4))
        .unwrap();
    let in_process = in_process_cluster(opts, &objects, 4, 2);
    let (tcp, _handles) = tcp_cluster(opts, &objects, 4, 2);
    for (size, k) in [
        (RectSize::square(60.0), 40),
        (RectSize::square(300.0), 5000),
    ] {
        let query = Query::top_k(size, k);
        let reference = max_k_rs_in_memory(&objects, size, k);
        if k == 40 {
            assert_eq!(reference.len(), 40, "k = 40 must run all rounds");
        } else {
            assert!(reference.len() < k, "k must exceed the placements");
        }
        let reference = QueryAnswer::TopK(reference);
        let paths = [
            ("prepared", prepared.run(&query).unwrap().answer),
            ("sharded", sharded.run(&query).unwrap().answer),
            ("in-process cluster", in_process.run(&query).unwrap().answer),
            ("tcp cluster", tcp.run(&query).unwrap().answer),
        ];
        for (path, answer) in paths {
            assert_eq!(
                answer, reference,
                "{path} top-{k} diverged from the in-memory greedy"
            );
        }
    }
}

/// Heavy clusters on the x-quartiles of the data — where the shards split,
/// and where the top-level slabs of a fan-out-4 sweep over the sorted file
/// split — with lighter copies 45 units to their right.
fn straddling_objects() -> Vec<WeightedPoint> {
    let mut objects: Vec<WeightedPoint> = (0..4000)
        .map(|i| WeightedPoint::at(i as f64, (i as f64 * 7.31) % 4000.0, 1.0))
        .collect();
    for (b, heavy) in [(1000.0, 9.0), (2000.0, 8.0), (3000.0, 7.0)] {
        for j in 0..6 {
            let d = j as f64 * 3.0 - 7.5;
            objects.push(WeightedPoint::at(b + d, 1000.0 + d, heavy));
            objects.push(WeightedPoint::at(b + 45.0 + d, 1000.0 - d, heavy - 1.0));
        }
    }
    objects
}

/// Incremental top-k rounds re-sweep only the slabs near the last
/// placement.  Here the chosen rectangles straddle the top-level slab and
/// shard boundaries, and later windows overlap slabs an earlier round
/// already re-swept; the single sorted file, K = 4 shards and a 2-server
/// in-process cluster must still answer exactly like the in-memory greedy.
#[test]
fn straddling_top_k_matches_the_in_memory_greedy_on_every_layout() {
    let objects = straddling_objects();
    let opts = EngineOptions {
        em_config: EmConfig::new(512, 16 * 512).unwrap(),
        exact: ExactMaxRsOptions {
            fanout: Some(4),
            ..ExactMaxRsOptions::default()
        },
        force_strategy: None,
    };
    let engine = MaxRsEngine::with_options(opts);
    let prepared = engine.prepare(&objects).unwrap();
    assert!(prepared.is_external());
    let sharded = engine
        .prepare_sharded(&objects, &ShardLayout::new(4))
        .unwrap();
    let cluster = in_process_cluster(opts, &objects, 4, 2);
    // The shards split at the x-quartiles, exactly where the top-level slabs
    // of the fan-out-4 sweep over the sorted file split.
    let boundaries = sharded.boundaries().to_vec();
    assert_eq!(boundaries, cluster.boundaries());
    assert_eq!(boundaries.len(), 3);
    for (side, k) in [(40.0, 8), (60.0, 12)] {
        let size = RectSize::square(side);
        let reference = max_k_rs_in_memory(&objects, size, k);
        assert_eq!(reference.len(), k);
        for b in &boundaries {
            assert!(
                reference
                    .iter()
                    .any(|p| p.center.x - side / 2.0 < *b && *b < p.center.x + side / 2.0),
                "side {side}: no placement straddles the boundary {b}"
            );
        }
        assert!(
            reference.iter().enumerate().any(|(i, p)| reference[..i]
                .iter()
                .any(|q| (p.center.x - q.center.x).abs() < 2.0 * side)),
            "side {side}: no window overlaps an earlier one"
        );
        let reference = QueryAnswer::TopK(reference);
        let query = Query::top_k(size, k);
        let paths = [
            ("prepared", prepared.run(&query).unwrap().answer),
            ("sharded", sharded.run(&query).unwrap().answer),
            ("in-process cluster", cluster.run(&query).unwrap().answer),
        ];
        for (path, answer) in paths {
            assert_eq!(answer, reference, "{path}, side {side}");
        }
    }
}

/// Whole-space MinRS over sparse data ties at 0 in many arrangement cells;
/// the cluster must report the same max-region as the unsharded run, not a
/// wider cell that depends on where the shard and slab boundaries fall.
#[test]
fn whole_space_min_rs_is_the_same_on_a_cluster() {
    let objects = Dataset::generate(DatasetKind::Gaussian, 20_000, 3).objects;
    let query = Query::min_rs(
        RectSize::square(5000.0),
        Rect::new(0.0, SPACE_EXTENT, 0.0, SPACE_EXTENT),
    );
    let opts = EngineOptions {
        em_config: EmConfig::new(4096, 256 * 1024).unwrap(),
        exact: ExactMaxRsOptions::with_parallelism(2),
        force_strategy: None,
    };
    let cluster = in_process_cluster(opts, &objects, 4, 2);
    let unsharded = MaxRsEngine::with_options(opts).prepare(&objects).unwrap();
    assert_eq!(
        cluster.run(&query).unwrap().answer,
        unsharded.run(&query).unwrap().answer
    );
}
