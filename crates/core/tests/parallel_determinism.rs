//! Regression tests for the parallel slab stage: `parallelism = 1` (the
//! paper's sequential distribution sweep) and `parallelism = N` (children
//! solved concurrently, then the same flat MergeSweep) must return the
//! **identical** [`MaxRsResult`] — location, weight and max-region — on
//! synthetic datasets, for integer and non-integer weights alike.  One more
//! test pins the I/O of a one-level sweep to a single merge pass, for both
//! worker counts.

use maxrs_core::{
    exact_max_rs_from_objects, load_objects, max_rs_in_memory, sort_objects_by_x,
    ExactMaxRsOptions, MaxRsResult, RectRecord, SlabTuple, SweepPass,
};
use maxrs_datagen::{Dataset, DatasetKind};
use maxrs_em::{EmConfig, EmContext};
use maxrs_geometry::{RectSize, WeightedPoint};

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
            let x = next() * extent;
            let y = next() * extent;
            let w = 1.0 + (next() * 4.0).floor(); // integer weights 1..=5
            WeightedPoint::at(x, y, w)
        })
        .collect()
}

/// A context whose buffer is large enough that `effective_parallelism` does
/// not cap the worker count back to 1 (64 pool blocks -> up to 8 workers).
fn parallel_ctx() -> EmContext {
    EmContext::new(EmConfig::new(256, 64 * 256).unwrap())
}

fn run(objects: &[WeightedPoint], size: RectSize, opts: &ExactMaxRsOptions) -> MaxRsResult {
    let ctx = parallel_ctx();
    exact_max_rs_from_objects(&ctx, objects, size, opts).unwrap()
}

#[test]
fn parallel_and_sequential_results_are_identical() {
    for (n, seed, extent, side) in [
        (300usize, 7u64, 1000.0, 90.0),
        (500, 42, 2500.0, 200.0),
        (800, 1234, 800.0, 35.0),
    ] {
        let objects = pseudo_random_objects(n, seed, extent);
        let size = RectSize::square(side);
        // Force several recursion levels regardless of the roomy pool.
        let base = ExactMaxRsOptions {
            memory_rects: Some(48),
            fanout: Some(4),
            ..Default::default()
        };
        let sequential = run(
            &objects,
            size,
            &ExactMaxRsOptions {
                parallelism: 1,
                ..base
            },
        );
        for workers in [2usize, 3, 8] {
            let parallel = run(
                &objects,
                size,
                &ExactMaxRsOptions {
                    parallelism: workers,
                    ..base
                },
            );
            assert_eq!(
                parallel, sequential,
                "n={n} seed={seed} workers={workers}: parallel result diverged"
            );
        }
        // Both agree with the in-memory reference on the achieved weight.
        let reference = max_rs_in_memory(&objects, size);
        assert_eq!(sequential.total_weight, reference.total_weight);
    }
}

#[test]
fn parallel_results_are_stable_across_repeated_runs() {
    // Thread scheduling varies between runs; the answer must not.
    let objects = pseudo_random_objects(600, 99, 1500.0);
    let size = RectSize::square(120.0);
    let opts = ExactMaxRsOptions {
        memory_rects: Some(32),
        fanout: Some(6),
        parallelism: 8,
        ..Default::default()
    };
    let first = run(&objects, size, &opts);
    for round in 0..5 {
        assert_eq!(run(&objects, size, &opts), first, "round {round} diverged");
    }
}

#[test]
fn parallel_path_handles_duplicate_x_coordinates() {
    // Heavy ties on x collapse slab boundaries; the parallel path must take
    // the same fallback as the sequential one.
    let mut objects = Vec::new();
    for i in 0..200 {
        let x = [10.0, 20.0, 30.0][i % 3];
        objects.push(WeightedPoint::at(x, i as f64, 1.0));
    }
    let size = RectSize::new(5.0, 400.0);
    let base = ExactMaxRsOptions {
        memory_rects: Some(20),
        fanout: Some(4),
        ..Default::default()
    };
    let sequential = run(
        &objects,
        size,
        &ExactMaxRsOptions {
            parallelism: 1,
            ..base
        },
    );
    let parallel = run(
        &objects,
        size,
        &ExactMaxRsOptions {
            parallelism: 4,
            ..base
        },
    );
    assert_eq!(parallel, sequential);
}

#[test]
fn parallel_path_cleans_up_temporaries() {
    let ctx = parallel_ctx();
    let objects = pseudo_random_objects(500, 11, 900.0);
    let opts = ExactMaxRsOptions {
        memory_rects: Some(40),
        fanout: Some(5),
        parallelism: 4,
        ..Default::default()
    };
    let before_files = ctx.num_files();
    let _ = exact_max_rs_from_objects(&ctx, &objects, RectSize::square(60.0), &opts).unwrap();
    assert_eq!(
        ctx.num_files(),
        before_files,
        "parallel run must delete every temporary file"
    );
    assert_eq!(ctx.disk_blocks(), 0);
}

/// The final slab-file of a presorted sweep, every field as raw bits.
fn slab_file_bits(
    ctx: &EmContext,
    objects: &[WeightedPoint],
    size: RectSize,
    opts: &ExactMaxRsOptions,
) -> Vec<[u64; 4]> {
    let file = load_objects(ctx, objects).unwrap();
    let sorted = sort_objects_by_x(ctx, &file).unwrap();
    let pass = SweepPass::presorted(ctx, opts);
    let slab_file = pass.slab_file(&sorted, size).unwrap();
    let tuples: Vec<SlabTuple> = ctx.read_all(&slab_file).unwrap();
    for f in [file, sorted] {
        ctx.delete_file(f).unwrap();
    }
    ctx.delete_file(slab_file).unwrap();
    tuples
        .iter()
        .map(|t| [t.y, t.x_lo, t.x_hi, t.sum].map(f64::to_bits))
        .collect()
}

#[test]
fn non_integer_weights_give_bit_identical_parallel_and_sequential_sweeps() {
    // Weights whose sums are not exactly representable: any change in the
    // order of the additions shows up in the last bits.
    let objects: Vec<WeightedPoint> = pseudo_random_objects(900, 314, 1200.0)
        .into_iter()
        .enumerate()
        .map(|(i, o)| WeightedPoint::at(o.point.x, o.point.y, 0.1 + 0.37 * (i % 7) as f64))
        .collect();
    let size = RectSize::square(150.0);
    for fanout in [Some(3), Some(16), None] {
        let base = ExactMaxRsOptions {
            memory_rects: Some(40),
            fanout,
            ..Default::default()
        };
        let sequential = ExactMaxRsOptions {
            parallelism: 1,
            ..base
        };
        let want = slab_file_bits(&parallel_ctx(), &objects, size, &sequential);
        let want_result = run(&objects, size, &sequential);
        for workers in [2usize, 4] {
            let parallel = ExactMaxRsOptions {
                parallelism: workers,
                ..base
            };
            assert_eq!(
                slab_file_bits(&parallel_ctx(), &objects, size, &parallel),
                want,
                "fanout={fanout:?} workers={workers}: slab-file diverged"
            );
            assert_eq!(run(&objects, size, &parallel), want_result);
        }
    }
}

#[test]
fn one_level_sweep_reads_and_writes_the_slab_stream_once() {
    // 30k objects against a 256 KB buffer: one recursion level.  A single
    // MergeSweep keeps the whole sweep (distribution, child sweeps, merge)
    // within a small multiple of the rectangle file; a log-depth pairwise
    // merge re-reads and rewrites the slab-tuple stream once per level and
    // lands well above it.
    let config = EmConfig::new(4096, 256 * 1024).unwrap();
    let objects = Dataset::generate(DatasetKind::Uniform, 30_000, 1).objects;
    let rect_blocks = config.blocks_for::<RectRecord>(objects.len() as u64);
    for workers in [1usize, 2] {
        let ctx = EmContext::new(config);
        let opts = ExactMaxRsOptions::with_parallelism(workers);
        let file = load_objects(&ctx, &objects).unwrap();
        let sorted = sort_objects_by_x(&ctx, &file).unwrap();
        let pass = SweepPass::presorted(&ctx, &opts);
        let rects = pass.transform(&sorted, RectSize::square(1000.0)).unwrap();
        let before = ctx.stats();
        let slab_file = pass.sweep_rects(rects).unwrap();
        let io = ctx.stats().total_delta(&before);
        assert!(
            io < 12 * rect_blocks,
            "workers={workers}: sweep_rects moved {io} blocks for a {rect_blocks}-block rectangle file"
        );
        ctx.delete_file(slab_file).unwrap();
    }
}
