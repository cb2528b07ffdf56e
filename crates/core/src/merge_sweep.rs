//! MergeSweep: combining the slab-files of `m` sub-slabs (Algorithm 1).
//!
//! The merge sweeps a conceptual horizontal line bottom-to-top across the `m`
//! child slab-files and the file of spanning rectangles, maintaining
//!
//! * `up_sum[i]` — the total weight of spanning rectangles currently covering
//!   sub-slab `i`, and
//! * `tslab[i]` — the most recent max-interval tuple of sub-slab `i`,
//!
//! and emits, at every event y, the best max-interval over the union slab.
//! Every recursion node combines all of its children in this **one** pass,
//! whether the children were solved sequentially or concurrently, which is
//! what keeps the whole algorithm at `O((N/B) log_{M/B}(N/B))` I/Os.
//!
//! Two refinements over the paper's pseudo-code:
//!
//! * an output tuple is emitted at spanning-rectangle events as well, because
//!   the location-weight of the union slab changes there even though no child
//!   slab-file has a tuple at that y;
//! * ties between sub-slabs are broken by taking the first (leftmost)
//!   max-interval instead of merging touching intervals (`GetMaxInterval`).
//!   Under open-boundary semantics a merged interval can contain points that
//!   do not attain the maximum (exactly on a shared rectangle edge), whereas
//!   the interior of a single sub-slab max-interval always does; the reported
//!   maximum value is identical either way.  See [`crate::plane_sweep`].
//!
//! # Cost per event
//!
//! The in-memory work per event is `O(log m)` rather than two `O(m)` scans,
//! so a wide fan-out costs no more CPU than a narrow one:
//!
//! * the next event y comes from a min-heap of the reader heads, keyed by
//!   [`total_order_bits`] of their y, and only the readers whose head sits at
//!   that y are touched;
//! * the best sub-slab comes from a leftmost-argmax tree over
//!   `tslab[i].sum + up_sum[i]`, refreshed only along the slabs the event
//!   changed (one leaf per consumed tuple, the covered range per spanning
//!   event).
//!
//! Each total is computed exactly as a linear scan would compute it and ties
//! go to the leftmost sub-slab, so the output is tuple-for-tuple the one of
//! the plain scan over all `m` sub-slabs.

use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;

use maxrs_em::{EmContext, TupleFile, TupleReader, TupleWriter};
use maxrs_geometry::Interval;

use crate::error::{CoreError, Result};
use crate::events::total_order_bits;
use crate::records::{SlabTuple, SpanEvent};

/// Merges the slab-files `slab_files` (one per sub-slab, y-sorted) and the
/// y-sorted spanning events into the slab-file of the union slab.
pub fn merge_sweep(
    ctx: &EmContext,
    slab_files: &[TupleFile<SlabTuple>],
    slabs: &[Interval],
    span_events: &TupleFile<SpanEvent>,
) -> Result<TupleFile<SlabTuple>> {
    merge_into_file(ctx, |writer| {
        merge_sweep_readers(
            open_readers(ctx, slab_files),
            slabs,
            ctx.open_reader(span_events),
            Some(writer),
        )
    })
}

/// Runs `merge` into a fresh slab-file on `ctx`; a failed merge deletes the
/// partial file, so no orphan is left on a long-lived context.
pub(crate) fn merge_into_file(
    ctx: &EmContext,
    merge: impl FnOnce(&mut TupleWriter<'_, SlabTuple>) -> Result<Vec<SlabBest>>,
) -> Result<TupleFile<SlabTuple>> {
    let mut writer = ctx.create_writer::<SlabTuple>()?;
    let merged = merge(&mut writer);
    let file = writer.finish()?;
    match merged {
        Ok(_) => Ok(file),
        Err(e) => {
            let _ = ctx.delete_file(file);
            Err(e)
        }
    }
}

/// The same merge as [`merge_sweep`], reduced to the best tuple of each
/// input slab ([`SlabBest`]); no merged slab-file is written.
pub fn merge_sweep_bests(
    ctx: &EmContext,
    slab_files: &[TupleFile<SlabTuple>],
    slabs: &[Interval],
    span_events: &TupleFile<SpanEvent>,
) -> Result<Vec<SlabBest>> {
    merge_sweep_readers(
        open_readers(ctx, slab_files),
        slabs,
        ctx.open_reader(span_events),
        None,
    )
}

fn open_readers<'c>(
    ctx: &'c EmContext,
    files: &[TupleFile<SlabTuple>],
) -> Vec<TupleReader<'c, SlabTuple>> {
    files.iter().map(|f| ctx.open_reader(f)).collect()
}

/// One slab's best tuple in a sweep pass: the first event `y` at which the
/// slab reaches its maximum location-weight, the slab's leftmost
/// max-interval at that `y`, and that maximum — or `None` when the pass had
/// no event.
///
/// [`best_of`] reduces the bests of a pass's slabs to the tuple
/// [`extract_best`](crate::sweep::extract_best) finds in the merged
/// slab-file.  Bests of disjoint slabs from different passes combine the
/// same way, which is what lets top-k rounds re-sweep only the slabs a
/// placement touched.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlabBest {
    /// The slab's x-interval.
    pub slab: Interval,
    /// Its best tuple.
    pub best: Option<SlabTuple>,
}

/// The best tuple over `bests`: the greatest sum, then the lowest `y`, then
/// the leftmost slab (`bests` in x order).
pub fn best_of(bests: &[SlabBest]) -> Option<SlabTuple> {
    bests
        .iter()
        .filter_map(|b| b.best)
        .fold(None, |acc: Option<SlabTuple>, t| {
            if acc.is_none_or(|a| t.sum > a.sum || (t.sum == a.sum && t.y < a.y)) {
                Some(t)
            } else {
                acc
            }
        })
}

/// Reader-level core of [`merge_sweep`]: merges `m` y-sorted slab-tuple
/// streams plus a y-sorted spanning-event stream, writing the slab-file of
/// the union slab to `out` (when given) and returning the best tuple of
/// every input slab.
///
/// The readers may come from **different contexts** (each borrows only the
/// context its file lives on) — this is what lets the sharded dataset layer
/// ([`crate::shard`]) combine per-shard slab-files that live on per-shard
/// block devices into one answer without first copying them to a common
/// device.
pub(crate) fn merge_sweep_readers(
    mut readers: Vec<TupleReader<'_, SlabTuple>>,
    slabs: &[Interval],
    mut span_reader: TupleReader<'_, SpanEvent>,
    mut out: Option<&mut TupleWriter<'_, SlabTuple>>,
) -> Result<Vec<SlabBest>> {
    if readers.len() != slabs.len() {
        return Err(CoreError::Internal(format!(
            "merge_sweep got {} slab readers but {} slabs",
            readers.len(),
            slabs.len()
        )));
    }
    let m = readers.len();

    // Sweep state.
    let mut up_sum = vec![0.0f64; m];
    let mut tslab: Vec<SlabTuple> = slabs
        .iter()
        .map(|s| SlabTuple::new(f64::NEG_INFINITY, s.lo, s.hi, 0.0))
        .collect();
    let mut best = ArgmaxTree::new(m);
    let mut bests: Vec<SlabBest> = slabs
        .iter()
        .map(|&slab| SlabBest { slab, best: None })
        .collect();
    // Slabs whose total the current event changed; every slab at the first.
    let mut touched: Vec<usize> = (0..m).collect();

    // Reader heads, smallest y first.
    let mut heads = BinaryHeap::with_capacity(m);
    for (i, reader) in readers.iter_mut().enumerate() {
        if let Some(t) = reader.peek()? {
            heads.push(Reverse((total_order_bits(t.y), i)));
        }
    }

    loop {
        // The next event y is the smallest head y over all inputs.
        let slab_y = match heads.peek() {
            Some(&Reverse((_, i))) => readers[i].peek()?.map(|t| t.y),
            None => None,
        };
        let span_y = span_reader.peek()?.map(|e| e.y);
        let y = match (slab_y, span_y) {
            (Some(a), Some(b)) => a.min(b),
            (Some(y), None) | (None, Some(y)) => y,
            (None, None) => break,
        };

        // Consume every record at exactly this y.
        while let Some(e) = span_reader.peek()? {
            if e.y > y {
                break;
            }
            let e = span_reader.next_record()?.expect("peeked span event");
            let hi = (e.slab_hi as usize).min(m.saturating_sub(1));
            // Events beyond the slab range are tolerated as no-ops, matching
            // the clamp on `slab_hi`.
            let lo = e.slab_lo as usize;
            if lo <= hi {
                for sum in &mut up_sum[lo..=hi] {
                    *sum += e.delta();
                }
                best.refresh(lo, hi, |i| tslab[i].sum + up_sum[i]);
                touched.extend(lo..=hi);
            }
        }
        while let Some(mut head) = heads.peek_mut() {
            let Reverse((_, i)) = *head;
            let reader = &mut readers[i];
            if reader.peek()?.is_some_and(|t| t.y > y) {
                break;
            }
            while reader.peek()?.is_some_and(|t| t.y <= y) {
                tslab[i] = reader.next_record()?.expect("peeked slab tuple");
            }
            // Re-key the head in place (one sift), or drop the exhausted reader.
            match reader.peek()? {
                Some(t) => *head = Reverse((total_order_bits(t.y), i)),
                None => {
                    PeekMut::pop(head);
                }
            }
            best.refresh(i, i, |i| tslab[i].sum + up_sum[i]);
            touched.push(i);
        }

        // A slab's total changes only at the events that touch it, so its
        // first maximum is found among them (strictly greater keeps the
        // first).  Totals are read as the argmax tree reads them.
        for i in touched.drain(..) {
            let total = leaf_value(tslab[i].sum + up_sum[i]);
            if bests[i].best.is_none_or(|b| total > b.sum) {
                bests[i].best = Some(SlabTuple::new(y, tslab[i].x_lo, tslab[i].x_hi, total));
            }
        }

        // Emit the leftmost best sub-slab's max-interval.
        if let Some(writer) = out.as_deref_mut() {
            let (best_idx, total) = best.leftmost_max();
            let winner = &tslab[best_idx];
            writer.push(&SlabTuple::new(y, winner.x_lo, winner.x_hi, total))?;
        }
    }
    Ok(bests)
}

/// How the argmax tree reads a total: `NaN` never wins.
fn leaf_value(v: f64) -> f64 {
    if v.is_nan() {
        f64::NEG_INFINITY
    } else {
        v
    }
}

/// A leftmost-argmax tournament tree over `m` leaf values.
///
/// Leaves live at `nodes[cap..cap + m]` of an implicit binary tree (`cap` a
/// power of two); each node holds the `(value, leaf)` winner of its subtree,
/// the right child winning only when **strictly** greater.  That is exactly
/// the answer of a left-to-right scan keeping the first strict maximum, so
/// ties (including `-0.0` vs `0.0`) go to the leftmost leaf.  `NaN` leaves
/// never win, as in the scan.
#[derive(Debug)]
struct ArgmaxTree {
    cap: usize,
    nodes: Vec<(f64, usize)>,
}

impl ArgmaxTree {
    /// A tree over `m` leaves, all holding `0.0` — the sum of the initial
    /// whole-slab placeholder tuples.  Padding leaves right of the real ones
    /// hold `-inf`, so they never win.
    fn new(m: usize) -> Self {
        let cap = m.max(1).next_power_of_two();
        let mut tree = ArgmaxTree {
            cap,
            nodes: vec![(f64::NEG_INFINITY, 0); 2 * cap],
        };
        if m > 0 {
            tree.refresh(0, m - 1, |_| 0.0);
        }
        tree
    }

    fn pull(&mut self, v: usize) {
        let (l, r) = (self.nodes[2 * v], self.nodes[2 * v + 1]);
        self.nodes[v] = if r.0 > l.0 { r } else { l };
    }

    /// Re-reads leaves `lo..=hi` from `value` and repairs their ancestors:
    /// `O((hi - lo) + log m)`.
    fn refresh(&mut self, lo: usize, hi: usize, value: impl Fn(usize) -> f64) {
        for i in lo..=hi {
            self.nodes[self.cap + i] = (leaf_value(value(i)), i);
        }
        let (mut lo, mut hi) = ((self.cap + lo) / 2, (self.cap + hi) / 2);
        while lo >= 1 {
            for v in lo..=hi {
                self.pull(v);
            }
            lo /= 2;
            hi /= 2;
        }
    }

    /// The leftmost leaf holding the maximum, and that maximum.
    fn leftmost_max(&self) -> (usize, f64) {
        let (value, leaf) = self.nodes[1];
        (leaf, value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plane_sweep::{best_region_from_tuples, plane_sweep_slab};
    use crate::records::RectRecord;
    use crate::result::MaxRsResult;
    use crate::sweep::extract_best;
    use maxrs_em::EmConfig;
    use maxrs_geometry::Rect;

    fn ctx() -> EmContext {
        EmContext::new(EmConfig::new(256, 4096).unwrap())
    }

    fn rect(x_lo: f64, x_hi: f64, y_lo: f64, y_hi: f64, w: f64) -> RectRecord {
        RectRecord::new(Rect::new(x_lo, x_hi, y_lo, y_hi), w)
    }

    /// Merging the slab-files of a vertical split must give the same best
    /// region as sweeping everything in one slab.
    #[test]
    fn merge_matches_single_slab_sweep() {
        let ctx = ctx();
        let rects = vec![
            rect(0.0, 4.0, 0.0, 4.0, 1.0),
            rect(2.0, 6.0, 1.0, 5.0, 1.0),
            rect(3.0, 7.0, 2.0, 6.0, 1.0),
            rect(11.0, 13.0, 0.0, 2.0, 1.0),
            rect(12.0, 14.0, 1.0, 3.0, 1.0),
        ];
        // Reference: sweep the whole plane at once.
        let reference = plane_sweep_slab(&rects, Interval::UNBOUNDED);
        let expected = best_region_from_tuples(&reference).unwrap();

        // Split at x = 5: rectangles are cropped, none spans the whole slab.
        let boundary = 5.0;
        let left_slab = Interval::new(f64::NEG_INFINITY, boundary);
        let right_slab = Interval::new(boundary, f64::INFINITY);
        let left_tuples = plane_sweep_slab(&rects, left_slab);
        let right_tuples = plane_sweep_slab(&rects, right_slab);

        let left_file = ctx.write_all(&left_tuples).unwrap();
        let right_file = ctx.write_all(&right_tuples).unwrap();
        let no_spans = ctx.write_all::<SpanEvent>(&[]).unwrap();

        let merged = merge_sweep(
            &ctx,
            &[left_file, right_file],
            &[left_slab, right_slab],
            &no_spans,
        )
        .unwrap();
        let merged_tuples = ctx.read_all(&merged).unwrap();
        let got = best_region_from_tuples(&merged_tuples).unwrap();
        assert_eq!(got.total_weight, expected.total_weight);
    }

    /// Spanning rectangles must raise the sums of the slabs they cover, even
    /// when those slabs have no tuples of their own at that y.
    #[test]
    fn spanning_rectangles_contribute_up_sum() {
        let ctx = ctx();
        // Two sub-slabs [0,10) and [10,20). A single rectangle lives in the
        // right slab; a spanning rectangle covers the left slab entirely
        // between y=0 and y=10 with weight 5.
        let left_slab = Interval::new(0.0, 10.0);
        let right_slab = Interval::new(10.0, 20.0);
        let right_tuples = plane_sweep_slab(&[rect(12.0, 15.0, 2.0, 4.0, 2.0)], right_slab);
        let left_file = ctx.write_all::<SlabTuple>(&[]).unwrap();
        let right_file = ctx.write_all(&right_tuples).unwrap();
        let spans: Vec<SpanEvent> = SpanEvent::pair(0.0, 10.0, 5.0, 0, 0).to_vec();
        let span_file = ctx.write_all(&spans).unwrap();

        let merged = merge_sweep(
            &ctx,
            &[left_file, right_file],
            &[left_slab, right_slab],
            &span_file,
        )
        .unwrap();
        let tuples = ctx.read_all(&merged).unwrap();
        let best = best_region_from_tuples(&tuples).unwrap();
        // The best achievable sum is the spanning weight 5 over the left slab
        // (the right slab's own rectangle only reaches 2).
        assert_eq!(best.total_weight, 5.0);
        assert!(best.region.x_hi <= 10.0);
        // The sweep must emit tuples at the span edges y=0 and y=10 as well as
        // at the right-slab h-lines.
        let ys: Vec<f64> = tuples.iter().map(|t| t.y).collect();
        assert!(ys.contains(&0.0));
        assert!(ys.contains(&10.0));
        assert!(ys.contains(&2.0));
        assert!(ys.contains(&4.0));
        // After y=10 the spanning weight is gone.
        let after = tuples.iter().find(|t| t.y == 10.0).unwrap();
        assert!(after.sum <= 2.0);
    }

    /// When adjacent sub-slabs tie, the leftmost max-interval wins; its
    /// interior is guaranteed to attain the reported sum.
    #[test]
    fn ties_between_adjacent_slabs_pick_the_leftmost_interval() {
        let ctx = ctx();
        // One rectangle [2, 18] x [0, 4] with weight 3 split at x = 10.
        let left_slab = Interval::new(f64::NEG_INFINITY, 10.0);
        let right_slab = Interval::new(10.0, f64::INFINITY);
        let left_tuples = plane_sweep_slab(&[rect(2.0, 10.0, 0.0, 4.0, 3.0)], left_slab);
        let right_tuples = plane_sweep_slab(&[rect(10.0, 18.0, 0.0, 4.0, 3.0)], right_slab);
        let left_file = ctx.write_all(&left_tuples).unwrap();
        let right_file = ctx.write_all(&right_tuples).unwrap();
        let no_spans = ctx.write_all::<SpanEvent>(&[]).unwrap();
        let merged = merge_sweep(
            &ctx,
            &[left_file, right_file],
            &[left_slab, right_slab],
            &no_spans,
        )
        .unwrap();
        let tuples = ctx.read_all(&merged).unwrap();
        let at_bottom = tuples.iter().find(|t| t.y == 0.0).unwrap();
        assert_eq!(at_bottom.sum, 3.0);
        assert_eq!(at_bottom.x_lo, 2.0);
        assert_eq!(at_bottom.x_hi, 10.0, "leftmost tying interval is reported");
    }

    #[test]
    fn empty_inputs_produce_empty_output() {
        let ctx = ctx();
        let files = [
            ctx.write_all::<SlabTuple>(&[]).unwrap(),
            ctx.write_all::<SlabTuple>(&[]).unwrap(),
        ];
        let spans = ctx.write_all::<SpanEvent>(&[]).unwrap();
        let merged = merge_sweep(
            &ctx,
            &files,
            &[Interval::new(0.0, 1.0), Interval::new(1.0, 2.0)],
            &spans,
        )
        .unwrap();
        assert!(merged.is_empty());
    }

    #[test]
    fn mismatched_inputs_are_rejected() {
        let ctx = ctx();
        let files = [ctx.write_all::<SlabTuple>(&[]).unwrap()];
        let spans = ctx.write_all::<SpanEvent>(&[]).unwrap();
        let err = merge_sweep(&ctx, &files, &[], &spans).unwrap_err();
        assert!(matches!(err, CoreError::Internal(_)));
    }

    /// The plain MergeSweep: two `O(m)` scans per event, one for the next
    /// event y and one for the best sub-slab.  The reference the heap and
    /// argmax-tree merge must reproduce tuple for tuple.
    fn merge_sweep_linear(
        ctx: &EmContext,
        slab_files: &[TupleFile<SlabTuple>],
        slabs: &[Interval],
        span_events: &TupleFile<SpanEvent>,
    ) -> Vec<SlabTuple> {
        let mut readers: Vec<_> = slab_files.iter().map(|f| ctx.open_reader(f)).collect();
        let mut span_reader = ctx.open_reader(span_events);
        let m = readers.len();
        let mut out = Vec::new();
        let mut up_sum = vec![0.0f64; m];
        let mut tslab: Vec<SlabTuple> = slabs
            .iter()
            .map(|s| SlabTuple::new(f64::NEG_INFINITY, s.lo, s.hi, 0.0))
            .collect();
        loop {
            let mut next_y: Option<f64> = None;
            for reader in readers.iter_mut() {
                if let Some(t) = reader.peek().unwrap() {
                    next_y = Some(next_y.map_or(t.y, |y: f64| y.min(t.y)));
                }
            }
            if let Some(e) = span_reader.peek().unwrap() {
                next_y = Some(next_y.map_or(e.y, |y: f64| y.min(e.y)));
            }
            let Some(y) = next_y else { break };
            while let Some(e) = span_reader.peek().unwrap() {
                if e.y > y {
                    break;
                }
                let e = span_reader.next_record().unwrap().unwrap();
                let hi = (e.slab_hi as usize).min(m.saturating_sub(1));
                if (e.slab_lo as usize) <= hi {
                    for sum in &mut up_sum[e.slab_lo as usize..=hi] {
                        *sum += e.delta();
                    }
                }
            }
            for (i, reader) in readers.iter_mut().enumerate() {
                while let Some(t) = reader.peek().unwrap() {
                    if t.y > y {
                        break;
                    }
                    tslab[i] = reader.next_record().unwrap().unwrap();
                }
            }
            let mut best_idx = 0usize;
            let mut best = f64::NEG_INFINITY;
            for i in 0..m {
                let total = tslab[i].sum + up_sum[i];
                if total > best {
                    best = total;
                    best_idx = i;
                }
            }
            let winner = &tslab[best_idx];
            out.push(SlabTuple::new(y, winner.x_lo, winner.x_hi, best));
        }
        out
    }

    /// Tuple-for-tuple equality: intervals and sums bit for bit, `y` by
    /// value (an event at `±0.0` may carry either zero, as in the scan's
    /// `f64::min`).
    fn assert_same_tuples(got: &[SlabTuple], want: &[SlabTuple], case: &str) {
        assert_eq!(got.len(), want.len(), "{case}: tuple count");
        for (k, (g, w)) in got.iter().zip(want).enumerate() {
            assert!(
                g.y == w.y
                    && g.x_lo.to_bits() == w.x_lo.to_bits()
                    && g.x_hi.to_bits() == w.x_hi.to_bits()
                    && g.sum.to_bits() == w.sum.to_bits(),
                "{case}: tuple {k} is {g:?}, the linear scan gives {w:?}"
            );
        }
    }

    /// A random merge input over `m` unit-width slabs: per-slab y-sorted
    /// tuple streams (some empty) and spanning pairs over nested multi-slab
    /// ranges.  Every y comes from a small grid that includes both `-0.0`
    /// and `0.0`, so heads of different children often tie; sums mix
    /// integers, non-integers, negatives and both zeros, so argmax ties and
    /// inexact additions both occur.  With `all_zero`, every sum and span
    /// weight is zero, so every slab ties everywhere.
    fn random_merge_input(
        m: usize,
        all_zero: bool,
        rng: &mut proptest::TestRng,
    ) -> (Vec<Interval>, Vec<Vec<SlabTuple>>, Vec<SpanEvent>) {
        const YS: [f64; 9] = [-3.5, -1.0, -0.0, 0.0, 0.25, 1.0, 2.0, 2.5, 7.0];
        const SUMS: [f64; 8] = [0.0, -0.0, 1.0, 2.0, 0.1, 0.7, -0.3, 3.3];
        let slabs: Vec<Interval> = (0..m)
            .map(|i| Interval::new(i as f64, i as f64 + 1.0))
            .collect();
        let children = slabs
            .iter()
            .map(|slab| {
                if rng.below(4) == 0 {
                    return Vec::new();
                }
                let mut ys: Vec<f64> = (0..rng.below(12))
                    .map(|_| YS[rng.below(YS.len())])
                    .collect();
                ys.sort_by(|a, b| a.partial_cmp(b).unwrap());
                ys.into_iter()
                    .map(|y| {
                        let a = slab.lo + rng.next_f64() * 0.5;
                        let b = a + rng.next_f64() * 0.5;
                        let sum = SUMS[rng.below(SUMS.len())];
                        SlabTuple::new(y, a, b, if all_zero { 0.0 } else { sum })
                    })
                    .collect()
            })
            .collect();
        let mut spans = Vec::new();
        for _ in 0..rng.below(3 * m + 1) {
            let lo = rng.below(m);
            let hi = lo + rng.below(m - lo);
            let (a, b) = (YS[rng.below(YS.len())], YS[rng.below(YS.len())]);
            let weight = if all_zero {
                0.0
            } else {
                SUMS[rng.below(SUMS.len())] + 0.5
            };
            spans.extend(SpanEvent::pair(
                a.min(b),
                a.max(b),
                weight,
                lo as u32,
                hi as u32,
            ));
        }
        spans.sort_by(|a, b| a.y.partial_cmp(&b.y).unwrap());
        (slabs, children, spans)
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(120))]

        /// The heap / argmax-tree merge reproduces the linear scan tuple for
        /// tuple at every fan-out from 1 to 80.
        #[test]
        fn heap_merge_matches_the_linear_scan(m in 1usize..81, seed in proptest::any::<u64>()) {
            let ctx = ctx();
            let mut rng = proptest::TestRng::from_name(&seed.to_string());
            let (slabs, children, spans) = random_merge_input(m, false, &mut rng);
            let files: Vec<_> = children.iter().map(|c| ctx.write_all(c).unwrap()).collect();
            let span_file = ctx.write_all(&spans).unwrap();
            let want = merge_sweep_linear(&ctx, &files, &slabs, &span_file);
            let merged = merge_sweep(&ctx, &files, &slabs, &span_file).unwrap();
            let got = ctx.read_all(&merged).unwrap();
            assert_same_tuples(&got, &want, &format!("m = {m}, seed = {seed}"));
        }

        /// The per-slab bests of a merge reduce, by the answer rule of
        /// [`best_of`], to exactly the tuple `extract_best` picks from the
        /// file the same merge writes.
        #[test]
        fn slab_bests_reduce_to_the_best_of_the_merged_file(
            m in 1usize..81,
            seed in proptest::any::<u64>(),
            all_zero in proptest::any::<bool>(),
        ) {
            let ctx = ctx();
            let mut rng = proptest::TestRng::from_name(&seed.to_string());
            let (slabs, children, spans) = random_merge_input(m, all_zero, &mut rng);
            let files: Vec<_> = children.iter().map(|c| ctx.write_all(c).unwrap()).collect();
            let span_file = ctx.write_all(&spans).unwrap();
            let bests = merge_sweep_bests(&ctx, &files, &slabs, &span_file).unwrap();
            let merged = merge_sweep(&ctx, &files, &slabs, &span_file).unwrap();
            let want = extract_best(&ctx, &merged).unwrap();
            let case = format!("m = {m}, seed = {seed}, all_zero = {all_zero}");
            assert_eq!(bests.iter().map(|b| b.slab).collect::<Vec<_>>(), slabs, "{case}");
            match best_of(&bests) {
                None => assert_eq!(want, MaxRsResult::empty(), "{case}"),
                Some(t) => assert!(
                    t.sum.to_bits() == want.total_weight.to_bits()
                        && t.y.to_bits() == want.region.y_lo.to_bits()
                        && t.x_lo.to_bits() == want.region.x_lo.to_bits()
                        && t.x_hi.to_bits() == want.region.x_hi.to_bits(),
                    "{case}: the bests give {t:?}, the merged file {want:?}"
                ),
            }
        }
    }

    /// Equal heads at `-0.0` and `0.0` in different children, with a
    /// spanning event at the other zero, are consumed as one event.
    #[test]
    fn signed_zero_heads_form_one_event() {
        let ctx = ctx();
        let slabs = [Interval::new(0.0, 1.0), Interval::new(1.0, 2.0)];
        let files = [
            ctx.write_all(&[SlabTuple::new(-0.0, 0.1, 0.2, 1.0)])
                .unwrap(),
            ctx.write_all(&[SlabTuple::new(0.0, 1.1, 1.2, 1.5)])
                .unwrap(),
        ];
        let spans = ctx
            .write_all(&SpanEvent::pair(-0.0, 3.0, 1.0, 0, 0))
            .unwrap();
        let merged = merge_sweep(&ctx, &files, &slabs, &spans).unwrap();
        let got = ctx.read_all(&merged).unwrap();
        let want = merge_sweep_linear(&ctx, &files, &slabs, &spans);
        assert_same_tuples(&got, &want, "signed zeros");
        assert_eq!(got.len(), 2);
        assert_eq!((got[0].x_lo, got[0].sum), (0.1, 2.0));
    }
}
