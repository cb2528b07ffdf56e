//! Static inputs are validated at every entry point that builds a dataset
//! from a `WeightedPoint` slice: a non-finite coordinate or a negative or
//! non-finite weight is a typed `CoreError::InvalidObject` carrying the
//! object's index — never a panic, never a NaN flowing into a sweep.

use maxrs_core::{CoreError, EngineOptions, ExactMaxRsOptions, MaxRsEngine, Query, ShardLayout};
use maxrs_em::EmConfig;
use maxrs_geometry::{Point, RectSize, WeightedPoint};
use proptest::prelude::*;

/// The four kinds of bad object.  Built field by field, because
/// `WeightedPoint::new` itself debug-asserts a valid weight.
fn bad_object(kind: usize) -> WeightedPoint {
    let (x, y, weight) = match kind {
        0 => (f64::NAN, 1.0, 1.0),
        1 => (1.0, f64::INFINITY, 1.0),
        2 => (1.0, 1.0, -0.5),
        _ => (1.0, 1.0, f64::NAN),
    };
    WeightedPoint {
        point: Point { x, y },
        weight,
    }
}

fn engines() -> [MaxRsEngine; 2] {
    [
        // Small inputs answer in memory.
        MaxRsEngine::new(),
        // A tiny buffer sends every input external.
        MaxRsEngine::with_options(EngineOptions {
            em_config: EmConfig::new(512, 16 * 512).unwrap(),
            exact: ExactMaxRsOptions::default(),
            force_strategy: None,
        }),
    ]
}

fn assert_invalid_at<T: std::fmt::Debug>(result: Result<T, CoreError>, index: usize, path: &str) {
    match result {
        Err(CoreError::InvalidObject { index: got, .. }) => {
            assert_eq!(got, index, "{path} reported the wrong index")
        }
        other => panic!("{path}: expected InvalidObject at {index}, got {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_static_entry_point_rejects_a_bad_object(
        n in 1usize..400,
        at in any::<usize>(),
        kind in 0usize..4,
    ) {
        let mut objects: Vec<WeightedPoint> = (0..n)
            .map(|i| WeightedPoint::at((i % 37) as f64, (i / 37) as f64, 1.0))
            .collect();
        let index = at % (n + 1);
        objects.insert(index, bad_object(kind));
        let query = Query::top_k(RectSize::square(3.0), 2);
        for engine in engines() {
            assert_invalid_at(engine.run(&objects, &query), index, "run");
            assert_invalid_at(engine.prepare(&objects), index, "prepare");
            assert_invalid_at(
                engine.prepare_sharded(&objects, &ShardLayout::new(3)),
                index,
                "prepare_sharded",
            );
        }
    }
}

#[test]
fn the_error_names_the_object() {
    let objects = [WeightedPoint::unit(0.0, 0.0), bad_object(0)];
    let err = MaxRsEngine::new().prepare(&objects).unwrap_err();
    let message = err.to_string();
    assert!(message.contains("object 1"), "{message}");
    assert!(std::error::Error::source(&err).is_some());
}
