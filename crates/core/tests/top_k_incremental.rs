//! Incremental top-k rounds: every round after the first re-sweeps only the
//! slabs within one rectangle width of the last placement, and must still
//! answer exactly like the in-memory greedy.
//!
//! The I/O pin: on the paper's setting (30k uniform objects, 4 KB blocks, a
//! 256 KB buffer, 2 workers) a prepared top-k(3) moves less than twice the
//! blocks of MaxRS at the same size.  Repeating the full pass in every round
//! costs three times as much.  (The answers of straddling rounds are checked
//! in `maxrs-cluster`'s determinism suite, on every layout.)

use maxrs_core::{EngineOptions, ExactMaxRsOptions, MaxRsEngine, Query};
use maxrs_datagen::{Dataset, DatasetKind};
use maxrs_em::EmConfig;
use maxrs_geometry::RectSize;

#[test]
fn top_k_moves_less_than_twice_the_blocks_of_max_rs() {
    let objects = Dataset::generate(DatasetKind::Uniform, 30_000, 1).objects;
    let engine = MaxRsEngine::with_options(EngineOptions {
        em_config: EmConfig::new(4096, 256 * 1024).unwrap(),
        exact: ExactMaxRsOptions::with_parallelism(2),
        force_strategy: None,
    });
    let prepared = engine.prepare(&objects).unwrap();
    assert!(prepared.is_external());
    for side in [1000.0, 5000.0] {
        let size = RectSize::square(side);
        // Warm the buffer pool the same way for both queries.
        prepared.run(&Query::max_rs(size)).unwrap();
        let max_rs = prepared.run(&Query::max_rs(size)).unwrap().io.total();
        let top_k = prepared.run(&Query::top_k(size, 3)).unwrap();
        assert_eq!(top_k.answer.placements().unwrap().len(), 3);
        let ratio = top_k.io.total() as f64 / max_rs as f64;
        assert!(
            ratio < 2.0,
            "side {side}: top-k(3) moved {} blocks, {ratio:.2}x MaxRS's {max_rs}",
            top_k.io.total()
        );
    }
}
