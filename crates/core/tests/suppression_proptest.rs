//! Property tests for top-k suppression: a pass that skips the objects
//! strictly inside the chosen rectangles ([`SweepPass::with_suppressed`])
//! answers exactly like the same pass over a file from which those objects
//! were filtered — for the transform, the full MaxRS pipeline and the
//! canonicalization edges.  Objects on a grid put many of them exactly
//! on rectangle edges and corners, where they must *not* be suppressed, and
//! chosen rectangles may overlap or repeat.

use maxrs_core::{load_objects, next_edges_after, ExactMaxRsOptions, SweepPass};
use maxrs_em::{EmConfig, EmContext};
use maxrs_geometry::{Interval, Point, Rect, RectSize, WeightedPoint};
use proptest::prelude::*;

/// Objects on a half-unit grid: with integer centers and integer sizes every
/// chosen rectangle's edge lies on this grid.
fn objects() -> impl Strategy<Value = Vec<WeightedPoint>> {
    prop::collection::vec((0u32..48, 0u32..48, 1u32..4), 1..120).prop_map(|v| {
        v.into_iter()
            .map(|(x, y, w)| WeightedPoint::at(x as f64 * 0.5, y as f64 * 0.5, w as f64))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn skipping_suppressed_objects_equals_filtering_them(
        data in objects(),
        centers in prop::collection::vec((0u32..24, 0u32..24), 0..12),
        wh in (1u32..9, 1u32..9),
        after_x in 0u32..48,
    ) {
        let size = RectSize::new(wh.0 as f64, wh.1 as f64);
        let chosen: Vec<Rect> = centers
            .iter()
            .map(|&(x, y)| Rect::centered_at(Point::new(x as f64, y as f64), size))
            .collect();
        let kept: Vec<WeightedPoint> = data
            .iter()
            .copied()
            .filter(|o| !chosen.iter().any(|r| r.contains_open(&o.point)))
            .collect();

        let ctx = EmContext::new(EmConfig::new(512, 16 * 512).unwrap());
        let all_file = load_objects(&ctx, &data).unwrap();
        let kept_file = load_objects(&ctx, &kept).unwrap();
        let opts = ExactMaxRsOptions::default();
        let skipping = SweepPass::new(&ctx, &opts).with_suppressed(&chosen);
        let plain = SweepPass::new(&ctx, &opts);

        let skipped = skipping.transform(&all_file, size).unwrap();
        let filtered = plain.transform(&kept_file, size).unwrap();
        prop_assert_eq!(ctx.read_all(&skipped).unwrap(), ctx.read_all(&filtered).unwrap());

        prop_assert_eq!(
            skipping.max_rs(&all_file, size).unwrap(),
            plain.max_rs(&kept_file, size).unwrap()
        );

        let after = Point::new(after_x as f64 * 0.5, after_x as f64 * 0.25);
        prop_assert_eq!(
            next_edges_after(&ctx, &all_file, size, Interval::UNBOUNDED, after, &chosen).unwrap(),
            next_edges_after(&ctx, &kept_file, size, Interval::UNBOUNDED, after, &[]).unwrap()
        );
    }
}
