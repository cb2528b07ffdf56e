//! Regression test for the whole-space MinRS max-region.
//!
//! Over the whole space of sparse data the minimum is 0 and many arrangement
//! cells tie at it.  The MergeSweep seeds every sub-slab with a whole-slab
//! placeholder tuple of sum 0, so such a placeholder can win the tie; the
//! canonical widening must then report exactly the arrangement cell that
//! starts at the placeholder's left end, never the placeholder's wider
//! span.  Otherwise the max-region depends on the slab layout, and with it
//! on the worker count and the execution strategy.

use maxrs_core::{EngineOptions, ExactMaxRsOptions, ExecutionStrategy, MaxRsEngine, Query};
use maxrs_datagen::{Dataset, DatasetKind, SPACE_EXTENT};
use maxrs_em::EmConfig;
use maxrs_geometry::{Rect, RectSize};

/// 4 KB blocks and a 256 KB buffer: 30k objects recurse one level.
fn engine(workers: usize, force_strategy: Option<ExecutionStrategy>) -> MaxRsEngine {
    MaxRsEngine::with_options(EngineOptions {
        em_config: EmConfig::new(4096, 256 * 1024).unwrap(),
        exact: ExactMaxRsOptions::with_parallelism(workers),
        force_strategy,
    })
}

#[test]
fn whole_space_min_rs_is_the_same_sequential_parallel_and_in_memory() {
    let objects = Dataset::generate(DatasetKind::Uniform, 30_000, 2).objects;
    let query = Query::min_rs(
        RectSize::square(1000.0),
        Rect::new(0.0, SPACE_EXTENT, 0.0, SPACE_EXTENT),
    );
    let answer = |engine: MaxRsEngine| engine.prepare(&objects).unwrap().run(&query).unwrap();

    let sequential = answer(engine(1, None));
    let parallel = answer(engine(2, None));
    let in_memory = answer(engine(1, Some(ExecutionStrategy::InMemory)));
    assert_eq!(sequential.strategy, ExecutionStrategy::ExternalSequential);
    assert_eq!(parallel.strategy, ExecutionStrategy::ExternalParallel);
    assert_eq!(sequential.answer, in_memory.answer);
    assert_eq!(parallel.answer, in_memory.answer);
}
