//! Program defects the benchmark's correctness gate found.  Each test
//! reproduces one and is ignored until the program is fixed; run them with
//! `cargo test --release --manifest-path perfbench/Cargo.toml -- --ignored`.
//!
//! Both concern MinRS over the whole space of sparse data, where the minimum
//! is 0 and many arrangement cells tie: the reported max-region is not the
//! same across execution paths, although the program promises bit-identical
//! answers.  The workloads therefore gate the whole-space MinRS against a
//! reference with the same buffer and worker count on the other storage
//! backend (paper-sim), or leave it out (cluster-tcp).

use std::sync::Arc;

use maxrs::cluster::partition_objects;
use maxrs::datagen::{Dataset, DatasetKind};
use maxrs::{
    ClusterConfig, ClusterCoordinator, InProcessTransport, Query, RectSize, ShardServer,
    StorageBackend, Transport,
};

use crate::common::{engine, whole_domain};

#[test]
#[ignore = "program defect: whole-space MinRS max-region differs between strategies"]
fn whole_space_min_rs_is_the_same_sequential_and_parallel() {
    let objects = Dataset::generate(DatasetKind::Uniform, 30_000, 2).objects;
    let query = Query::min_rs(RectSize::square(1000.0), whole_domain());
    let answer = |workers| {
        engine(StorageBackend::Sim, workers)
            .prepare(&objects)
            .unwrap()
            .run(&query)
            .unwrap()
            .answer
    };
    assert_eq!(answer(1), answer(2));
}

#[test]
#[ignore = "program defect: whole-space MinRS max-region differs between cluster and unsharded"]
fn whole_space_min_rs_is_the_same_on_a_cluster() {
    let objects = Dataset::generate(DatasetKind::Gaussian, 20_000, 3).objects;
    let query = Query::min_rs(RectSize::square(5000.0), whole_domain());
    let engine = engine(StorageBackend::Sim, 2);
    let (boundaries, parts) = partition_objects(&objects, 4, 8192);
    let mut hosts: Vec<ShardServer> = (0..2)
        .map(|_| ShardServer::new(*engine.options(), boundaries.clone()))
        .collect();
    for (id, part) in parts.iter().enumerate() {
        hosts[id % 2].host(id, part).unwrap();
    }
    let transports: Vec<Box<dyn Transport>> = hosts
        .into_iter()
        .enumerate()
        .map(|(i, h)| {
            Box::new(InProcessTransport::new(format!("server-{i}"), Arc::new(h)))
                as Box<dyn Transport>
        })
        .collect();
    let cluster =
        ClusterCoordinator::connect(*engine.options(), ClusterConfig::default(), transports)
            .unwrap();
    let unsharded = engine
        .prepare(&objects)
        .unwrap()
        .run(&query)
        .unwrap()
        .answer;
    assert_eq!(cluster.run(&query).unwrap().answer, unsharded);
}
