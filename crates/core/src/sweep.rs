//! The **sweep kernel**: one parameterized distribution-sweep pipeline that
//! every query variant and every execution strategy instantiates.
//!
//! Historically the crate carried the pipeline four times — `exact_max_rs`
//! vs. `exact_max_rs_presorted`, `distribution_sweep` vs.
//! `distribution_sweep_presorted` — plus per-variant re-implementations in
//! the engine.  [`SweepPass`] collapses them into one parameterized object
//! with the pipeline's four stages as composable methods:
//!
//! 1. **transform** — stream the object file into query-sized rectangles
//!    ([`SweepPass::transform`]), optionally scaling weights (`-1` is the
//!    MinRS reduction);
//! 2. **slab partition + strip sweep** — the distribution-sweep recursion
//!    over the rectangles ([`SweepPass::sweep_rects`]), preceded by the
//!    external center-x sort exactly when the pass's [`InputOrder`] says the
//!    input needs one;
//! 3. **extract** — the best tuple of the final slab-file
//!    ([`SweepPass::extract_best`]);
//! 4. **canonicalize** — widen the winning interval back to the full
//!    arrangement cell ([`SweepPass::canonicalize`]) so every strategy and
//!    every input order reports the identical max-region.
//!
//! [`SweepPass::max_rs`] composes all four; the batched executor
//! ([`crate::batch`]) runs the stages separately so several queries can share
//! stages 1–2 of one pass.
//!
//! # Canonical max-regions
//!
//! The distribution sweep reports the same *maximum weight* as the in-memory
//! plane sweep, but its slab boundaries subdivide the x-axis more finely than
//! the rectangle-edge arrangement alone, so the winning tuple's x-interval
//! can be a strict sub-interval of the arrangement cell the in-memory sweep
//! would report.  Stage 4 therefore *widens* the winning interval back to the
//! full arrangement cell with one extra `O(N/B)` scan of the object file
//! (see [`next_edges_after`]): both sweeps break ties leftmost-first and
//! agree on the winning event `y`, so after widening the external result —
//! center, weight **and** max-region — is bit-for-bit identical to
//! [`max_rs_in_memory`](crate::plane_sweep::max_rs_in_memory()).  The unified
//! query layer ([`crate::engine::MaxRsEngine::run`]) relies on this to give
//! every `Query` variant strategy-independent answers.

use maxrs_em::{external_sort_by_key, EmContext, TupleFile};
use maxrs_geometry::{Interval, Point, Rect, RectSize};

use crate::error::{CoreError, Result};
use crate::exact::ExactMaxRsOptions;
use crate::merge_sweep::{merge_sweep, merge_sweep_bests, SlabBest};
use crate::parallel::parallel_map;
use crate::plane_sweep::{with_sweep_scratch, SweepScratch};
use crate::records::{ObjectRecord, RectRecord, SlabTuple};
use crate::result::MaxRsResult;
use crate::slab::{compute_partition, distribute, BoundarySource};

/// Whether a pass's object file is already in the order the sweep needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InputOrder {
    /// Arbitrary order: the kernel pays the
    /// `O((N/B) log_{M/B}(N/B))` external center-x sort before sweeping.
    Unsorted,
    /// Already sorted by object x (see
    /// [`sort_objects_by_x`](crate::exact::sort_objects_by_x)); transformed
    /// rectangles are centered at their objects, so the rectangle file is in
    /// center-x order for *every* query size and the sort is skipped.  This
    /// is the fast path of [`PreparedDataset`](crate::PreparedDataset).
    PresortedByX,
}

/// One parameterized distribution-sweep pass: the sweep kernel.
///
/// A pass captures everything the pipeline varies over — the EM context, the
/// tuning [`ExactMaxRsOptions`], the input [`InputOrder`], a weight scale
/// (`-1.0` turns MaxRS into MinRS) and a root slab (the query domain's
/// x-interval for MinRS, unbounded otherwise) — so callers state *what* to
/// sweep and never re-implement *how*:
///
/// ```
/// use maxrs_core::{load_objects, ExactMaxRsOptions, SweepPass};
/// use maxrs_em::{EmConfig, EmContext};
/// use maxrs_geometry::{RectSize, WeightedPoint};
///
/// let ctx = EmContext::new(EmConfig::paper_synthetic());
/// let objects = load_objects(
///     &ctx,
///     &[
///         WeightedPoint::unit(1.0, 1.0),
///         WeightedPoint::unit(1.5, 1.2),
///         WeightedPoint::unit(9.0, 9.0),
///     ],
/// )
/// .unwrap();
///
/// let pass = SweepPass::new(&ctx, &ExactMaxRsOptions::default());
/// let best = pass.max_rs(&objects, RectSize::square(2.0)).unwrap();
/// assert_eq!(best.total_weight, 2.0);
/// # ctx.delete_file(objects).unwrap();
/// ```
#[derive(Debug, Clone, Copy)]
pub struct SweepPass<'a> {
    ctx: &'a EmContext,
    opts: ExactMaxRsOptions,
    order: InputOrder,
    weight_scale: f64,
    root: Interval,
    suppressed: &'a [Rect],
}

impl<'a> SweepPass<'a> {
    /// A pass over an arbitrarily ordered object file: identity weights,
    /// unbounded root slab — the classic ExactMaxRS configuration.
    pub fn new(ctx: &'a EmContext, opts: &ExactMaxRsOptions) -> Self {
        SweepPass {
            ctx,
            opts: *opts,
            order: InputOrder::Unsorted,
            weight_scale: 1.0,
            root: Interval::UNBOUNDED,
            suppressed: &[],
        }
    }

    /// A pass over an object file already sorted by x: the sort-free pipeline
    /// of [`PreparedDataset`](crate::PreparedDataset).
    pub fn presorted(ctx: &'a EmContext, opts: &ExactMaxRsOptions) -> Self {
        SweepPass {
            order: InputOrder::PresortedByX,
            ..SweepPass::new(ctx, opts)
        }
    }

    /// Sets the input order explicitly.
    pub fn with_order(mut self, order: InputOrder) -> Self {
        self.order = order;
        self
    }

    /// Multiplies every object weight by `scale` during the transform scan.
    /// `-1.0` is the MinRS reduction: the maximum of the negated instance is
    /// the negated minimum of the original one, so the unmodified pipeline
    /// answers MinRS queries.
    pub fn with_weight_scale(mut self, scale: f64) -> Self {
        self.weight_scale = scale;
        self
    }

    /// Restricts the sweep (and the canonicalization) to a root x-slab — the
    /// query domain's x-interval for MinRS.  Default: unbounded.
    pub fn with_root(mut self, root: Interval) -> Self {
        self.root = root;
        self
    }

    /// Skips every object strictly inside one of the `suppressed` rectangles
    /// in the transform and canonicalization scans — the top-k suppression
    /// of later rounds (the placements chosen so far), applied without
    /// writing a filtered object file.
    pub fn with_suppressed(mut self, suppressed: &'a [Rect]) -> Self {
        self.suppressed = suppressed;
        self
    }

    /// The context this pass runs against.
    pub fn ctx(&self) -> &'a EmContext {
        self.ctx
    }

    /// The tuning options of this pass.
    pub fn options(&self) -> &ExactMaxRsOptions {
        &self.opts
    }

    /// The root x-slab of this pass.
    pub fn root(&self) -> Interval {
        self.root
    }

    /// Stage 1 — streams the object file into a rectangle file of the query
    /// size, scaling weights by the pass's weight scale and dropping
    /// suppressed objects and rectangles that miss the root slab (the sweep
    /// would clip them away).  One transform-aware scan
    /// ([`EmContext::filter_map_file`]): `O(N/B)` I/Os, no intermediate
    /// staging.  The input file is left untouched.
    pub fn transform(
        &self,
        objects: &TupleFile<ObjectRecord>,
        size: RectSize,
    ) -> Result<TupleFile<RectRecord>> {
        self.ctx
            .filter_map_file(objects, |rec: ObjectRecord| {
                let p = rec.0.point;
                let rect = rec.0.to_rect(size);
                (rect.clip_x(&self.root).is_some()
                    && !self.suppressed.iter().any(|r| r.contains_open(&p)))
                .then(|| RectRecord::new(rect, self.weight_scale * rec.0.weight))
            })
            .map_err(CoreError::from)
    }

    /// Stages 2–3 — sorts the rectangles by center x (skipped for
    /// [`InputOrder::PresortedByX`]) and runs the distribution-sweep
    /// recursion, returning the final slab-file of the pass's root slab (the
    /// y-sorted `⟨y, max-interval, sum⟩` tuples).  The input file is
    /// consumed; rectangle weights may be negative (only `WeightedPoint`
    /// insists on non-negativity).  `opts.parallelism` bounds how many
    /// sub-slabs of the top recursion node are solved concurrently; every
    /// node combines its children with one flat MergeSweep, so the output is
    /// the same for every worker count.
    pub fn sweep_rects(&self, rects: TupleFile<RectRecord>) -> Result<TupleFile<SlabTuple>> {
        Ok(self.sweep(rects, Output::File)?.into_file())
    }

    fn sweep(&self, rects: TupleFile<RectRecord>, output: Output) -> Result<Solved> {
        let sorted = match self.order {
            InputOrder::Unsorted => {
                let sorted = external_sort_by_key(self.ctx, &rects, |r| r.center_x())?;
                self.ctx.delete_file(rects)?;
                sorted
            }
            InputOrder::PresortedByX => rects,
        };
        let runner = Runner {
            ctx: self.ctx,
            opts: self.opts,
            workers: self.opts.effective_parallelism(self.ctx.config()),
        };
        runner.solve_node(sorted, self.root, true, output, true)
    }

    /// Stages 1–3 composed: transform, then sweep.
    pub fn slab_file(
        &self,
        objects: &TupleFile<ObjectRecord>,
        size: RectSize,
    ) -> Result<TupleFile<SlabTuple>> {
        let rects = self.transform(objects, size)?;
        self.sweep_rects(rects)
    }

    /// Stages 1–3 reduced to their answer: the best tuple of every top-level
    /// sub-slab of the root ([`SlabBest`], in x order), read off the root's
    /// MergeSweep instead of writing and re-scanning the root slab-file.
    /// A root solved in memory is one slab.
    pub fn slab_bests(
        &self,
        objects: &TupleFile<ObjectRecord>,
        size: RectSize,
    ) -> Result<Vec<SlabBest>> {
        let rects = self.transform(objects, size)?;
        match self.sweep(rects, Output::Bests)? {
            Solved::Bests(bests) => Ok(bests),
            Solved::File(_) => unreachable!("a bests sweep returns bests"),
        }
    }

    /// Stage 4a — scans a final slab-file for the best tuple and converts it
    /// into a (not yet canonicalized) result.
    pub fn extract_best(&self, slab_file: &TupleFile<SlabTuple>) -> Result<MaxRsResult> {
        extract_best(self.ctx, slab_file)
    }

    /// Stage 4b — widens a sweep result's max-interval to the full
    /// arrangement cell of the pass's root slab so it matches the in-memory
    /// sweep's report (module docs, "Canonical max-regions").  The winning
    /// `y`-strip and weight are already canonical; only the interval's upper
    /// bound (and with it the representative center) can sit on a slab
    /// boundary instead of a rectangle edge.
    pub fn canonicalize(
        &self,
        objects: &TupleFile<ObjectRecord>,
        size: RectSize,
        result: MaxRsResult,
    ) -> Result<MaxRsResult> {
        if !result.region.x_lo.is_finite() && !result.region.x_hi.is_finite() {
            return Ok(result);
        }
        let (x_lo, y_lo) = (result.region.x_lo, result.region.y_lo);
        let (x_hi, _) = next_edges_after(
            self.ctx,
            objects,
            size,
            self.root,
            Point::new(x_lo, y_lo),
            self.suppressed,
        )?;
        let x = Interval::new(x_lo, x_hi);
        Ok(tuple_result(
            result.total_weight,
            x,
            y_lo,
            result.region.y_hi,
        ))
    }

    /// The full pipeline: transform → (sort) → sweep → extract →
    /// canonicalize.  Returns the optimal location, the maximum range sum and
    /// the canonical max-region; all temporary files are deleted before
    /// returning and the input file is left untouched.
    pub fn max_rs(&self, objects: &TupleFile<ObjectRecord>, size: RectSize) -> Result<MaxRsResult> {
        if objects.is_empty() {
            return Ok(MaxRsResult::empty());
        }
        let slab_file = self.slab_file(objects, size)?;
        let result = self.extract_best(&slab_file)?;
        self.ctx.delete_file(slab_file)?;
        self.canonicalize(objects, size, result)
    }
}

/// The canonical MaxRS result of a pass's best tuple (stages 4a and 4b in
/// one, shared by every layout): `next_edges` at the tuple's lower-left
/// corner gives the next x-breakpoint, which closes the max-interval, and
/// the next y-edge, which closes the winning strip exactly where the next
/// tuple of the merged slab-file would ([`next_edges_after`]).  No tuple
/// means no object: the empty result.
pub(crate) fn canonical_result<E>(
    best: Option<SlabTuple>,
    next_edges: impl FnOnce(Point) -> std::result::Result<(f64, f64), E>,
) -> std::result::Result<MaxRsResult, E> {
    let Some(best) = best else {
        return Ok(MaxRsResult::empty());
    };
    let (x_hi, y_hi) = next_edges(Point::new(best.x_lo, best.y))?;
    let x = if best.x_lo.is_finite() || best.x_hi.is_finite() {
        Interval::new(best.x_lo, x_hi)
    } else {
        best.interval()
    };
    Ok(tuple_result(best.sum, x, best.y, y_hi))
}

/// A result from its weight, max-interval and strip `[y_lo, next_y)`; a
/// strip with no edge above it gets unit height.
fn tuple_result(sum: f64, x: Interval, y_lo: f64, next_y: f64) -> MaxRsResult {
    let y_hi = if next_y > y_lo && next_y.is_finite() {
        next_y
    } else {
        y_lo + 1.0
    };
    MaxRsResult {
        center: Point::new(x.representative(), (y_lo + y_hi) / 2.0),
        total_weight: sum,
        region: Rect::new(x.lo, x.hi, y_lo, y_hi),
    }
}

/// Streams an object file into a rectangle file of the query size (stage 1 of
/// the kernel with identity weights) — kept as a free function for callers
/// outside the pipeline.
pub fn transform_to_rect_file(
    ctx: &EmContext,
    objects: &TupleFile<ObjectRecord>,
    size: RectSize,
) -> Result<TupleFile<RectRecord>> {
    SweepPass::new(ctx, &ExactMaxRsOptions::default()).transform(objects, size)
}

/// The next arrangement edges after `after`, as `(x, y)`:
///
/// * `x` — the smallest x-breakpoint strictly greater than `after.x`: the
///   edge of a transformed rectangle (clipped to `slab`) or the slab's upper
///   bound, whichever comes first;
/// * `y` — the smallest y-edge strictly greater than `after.y` of a
///   transformed rectangle that meets `slab`.
///
/// Either is `+∞` when nothing lies beyond.  Objects strictly inside a
/// `suppressed` rectangle take no part (see [`SweepPass::with_suppressed`]).
///
/// The x-breakpoints are exactly the leaf boundaries of the in-memory plane
/// sweep over `slab` (see [`crate::plane_sweep::plane_sweep_slab`]), and the
/// y-edges exactly the event `y`s of the slab's merged slab-file (every
/// rectangle meeting the slab contributes both of its y-edges as events),
/// both computed here with one sequential `O(N/B)` scan of the object file
/// instead of materializing the arrangement.  Used to widen
/// distribution-sweep max-intervals back to full arrangement cells and to
/// close the winning strip (stage 4 of the kernel).
pub fn next_edges_after(
    ctx: &EmContext,
    objects: &TupleFile<ObjectRecord>,
    size: RectSize,
    slab: Interval,
    after: Point,
    suppressed: &[Rect],
) -> Result<(f64, f64)> {
    let mut next_x = f64::INFINITY;
    if slab.hi > after.x {
        next_x = slab.hi;
    }
    let mut next_y = f64::INFINITY;
    let mut reader = ctx.open_reader(objects);
    while let Some(rec) = reader.next_record()? {
        if suppressed.iter().any(|r| r.contains_open(&rec.0.point)) {
            continue;
        }
        if let Some(clipped) = rec.0.to_rect(size).clip_x(&slab) {
            for edge in [clipped.x_lo, clipped.x_hi] {
                if edge > after.x && edge < next_x {
                    next_x = edge;
                }
            }
            for edge in [clipped.y_lo, clipped.y_hi] {
                if edge > after.y && edge < next_y {
                    next_y = edge;
                }
            }
        }
    }
    Ok((next_x, next_y))
}

/// Runs the distribution-sweep recursion over an **already distributed**
/// rectangle file: the caller has cropped the rectangles to `slab` (and
/// routed away anything outside it), so no transform and no top-level sort
/// happen here.  `sorted` says whether the file is in center-x order (exact
/// boundary selection) or not (sampled boundaries, as for recursion
/// children).  This is the per-shard entry point of the sharded dataset
/// layer ([`crate::shard`]), which runs one such solve per shard and then
/// combines the shard slab-files through the same span-event MergeSweep the
/// recursion itself uses.
pub fn solve_rects(
    ctx: &EmContext,
    opts: &ExactMaxRsOptions,
    rects: TupleFile<RectRecord>,
    slab: Interval,
    sorted: bool,
    workers: usize,
) -> Result<TupleFile<SlabTuple>> {
    let runner = Runner {
        ctx,
        opts: *opts,
        workers: workers.max(1),
    };
    runner.solve(rects, slab, sorted)
}

/// How full, as a divisor of the in-memory budget `M`, a default fan-out
/// aims to make each child: children of about `M/2` rectangles leave room
/// for the uneven split of sampled boundaries and for the cropped pieces of
/// rectangles crossing a boundary, so they are solved in memory without
/// recursing again.
const CHILD_FILL_DIVISOR: usize = 2;

/// What a recursion node hands back: its slab-file, or — at the root of a
/// pass that needs only the answer — the best tuple of each top-level
/// sub-slab.
#[derive(Clone, Copy)]
enum Output {
    File,
    Bests,
}

enum Solved {
    File(TupleFile<SlabTuple>),
    Bests(Vec<SlabBest>),
}

impl Solved {
    fn into_file(self) -> TupleFile<SlabTuple> {
        match self {
            Solved::File(file) => file,
            Solved::Bests(_) => unreachable!("a file node returns its file"),
        }
    }
}

struct Runner<'a> {
    ctx: &'a EmContext,
    opts: ExactMaxRsOptions,
    /// Worker threads available to this recursion node; children run with 1
    /// (the top-level slabs are the coarsest — and therefore best — unit of
    /// parallel work).
    workers: usize,
}

impl<'a> Runner<'a> {
    fn memory_rects(&self) -> usize {
        self.opts
            .memory_rects
            .unwrap_or_else(|| self.ctx.config().mem_records::<RectRecord>())
            .max(4)
    }

    /// The fan-out of a node holding `n` rectangles: the explicit override
    /// if one is set, otherwise just enough sub-slabs for each to hold about
    /// `M / CHILD_FILL_DIVISOR` rectangles — `⌈2n/M⌉`, at least 2 and at
    /// most the paper's `m = Θ(M/B)`.  Inputs above `m·M/2` get `m`, as in
    /// the paper; smaller ones get fewer child files to merge.
    fn fanout(&self, n: usize) -> usize {
        match self.opts.fanout {
            Some(f) => f.max(2),
            None => (CHILD_FILL_DIVISOR * n)
                .div_ceil(self.memory_rects())
                .clamp(2, self.ctx.config().fanout().max(2)),
        }
    }

    /// Solves one recursion node: consumes `input` (the rectangles of `slab`)
    /// and returns the slab-file of `slab`.
    fn solve(
        &self,
        input: TupleFile<RectRecord>,
        slab: Interval,
        sorted: bool,
    ) -> Result<TupleFile<SlabTuple>> {
        Ok(self
            .solve_node(input, slab, sorted, Output::File, true)?
            .into_file())
    }

    /// [`solve`](Runner::solve) with the node's output chosen by `output`;
    /// `top` is set for the top node of a recursion.
    fn solve_node(
        &self,
        input: TupleFile<RectRecord>,
        slab: Interval,
        sorted: bool,
        output: Output,
        top: bool,
    ) -> Result<Solved> {
        let n = input.len() as usize;
        if n <= self.memory_rects() {
            return self.solve_in_memory(input, slab, output, top);
        }

        // Divide the slab into m sub-slabs with roughly equal rectangle counts.
        let source = if sorted {
            BoundarySource::SortedExact
        } else {
            BoundarySource::Sampled(self.opts.boundary_sample)
        };
        let partition = compute_partition(self.ctx, &input, slab, self.fanout(n), source)?;
        if partition.num_slabs() < 2 {
            // Heavy ties on x: no vertical split can make progress.  Fall back
            // to the in-memory sweep (documented guard; never triggered by the
            // paper's workloads).
            return self.solve_in_memory(input, slab, output, top);
        }

        let dist = distribute(self.ctx, &input, &partition)?;
        if !self.opts.keep_intermediates {
            self.ctx.delete_file(input)?;
        }

        // Conquer each sub-slab.  `solve_child` guards against the pathological
        // case where a child is as large as its parent (extreme ties on x).
        // With workers to spare, the sub-slabs — independent by construction —
        // are solved concurrently, each child running sequentially inside its
        // worker.  Any failure deletes the files this node still owns —
        // including the span events — so a failed run leaves no orphans on a
        // long-lived context.
        let workers = self.workers.min(partition.num_slabs());
        let merge_result = self.conquer_and_combine(
            dist.slab_inputs,
            &partition,
            &dist.span_events,
            workers,
            n,
            output,
        );
        let merged = match merge_result {
            Ok(merged) => merged,
            Err(e) => {
                let _ = self.ctx.delete_file(dist.span_events);
                return Err(e);
            }
        };
        self.ctx.delete_file(dist.span_events)?;
        Ok(merged)
    }

    /// Solves every sub-slab (in parallel when `workers > 1`) and combines the
    /// child slab-files with the span events in one MergeSweep, into the
    /// node's slab-file or its sub-slabs' bests.  On failure, all
    /// successfully produced child files are deleted before the error is
    /// returned; the span-events file stays with the caller.
    fn conquer_and_combine(
        &self,
        slab_inputs: Vec<TupleFile<RectRecord>>,
        partition: &crate::slab::SlabPartition,
        span_events: &TupleFile<crate::records::SpanEvent>,
        workers: usize,
        parent_size: usize,
        output: Output,
    ) -> Result<Solved> {
        let outcomes = if workers > 1 {
            let child = Runner {
                ctx: self.ctx,
                opts: self.opts,
                workers: 1,
            };
            parallel_map(workers, slab_inputs, |i, child_input| {
                child.solve_child(child_input, partition.slab(i), parent_size)
            })
        } else {
            slab_inputs
                .into_iter()
                .enumerate()
                .map(|(i, child_input)| {
                    self.solve_child(child_input, partition.slab(i), parent_size)
                })
                .collect()
        };

        let mut child_files = Vec::with_capacity(outcomes.len());
        let mut first_err = None;
        for outcome in outcomes {
            match outcome {
                Ok(file) => child_files.push(file),
                Err(e) => {
                    first_err.get_or_insert(e);
                }
            }
        }
        if let Some(e) = first_err {
            for f in child_files {
                let _ = self.ctx.delete_file(f);
            }
            return Err(e);
        }

        // One flat MergeSweep over all children, whichever way they were
        // solved: the output is the same for every worker count.
        let slabs = partition.slabs();
        let merged = match output {
            Output::File => {
                merge_sweep(self.ctx, &child_files, &slabs, span_events).map(Solved::File)
            }
            Output::Bests => {
                merge_sweep_bests(self.ctx, &child_files, &slabs, span_events).map(Solved::Bests)
            }
        };
        for f in child_files {
            let deleted = self.ctx.delete_file(f);
            if merged.is_ok() {
                deleted?;
            }
        }
        merged
    }

    /// Recurses into a child slab, guarding against pathological inputs where
    /// the child is as large as the parent (possible only under extreme ties);
    /// such children are solved in memory to guarantee termination.
    fn solve_child(
        &self,
        input: TupleFile<RectRecord>,
        slab: Interval,
        parent_size: usize,
    ) -> Result<TupleFile<SlabTuple>> {
        let solved =
            if input.len() as usize >= parent_size && input.len() as usize > self.memory_rects() {
                self.solve_in_memory(input, slab, Output::File, false)?
            } else {
                self.solve_node(input, slab, false, Output::File, false)?
            };
        Ok(solved.into_file())
    }

    fn solve_in_memory(
        &self,
        input: TupleFile<RectRecord>,
        slab: Interval,
        output: Output,
        top: bool,
    ) -> Result<Solved> {
        let rects = self.ctx.read_all(&input)?;
        if !self.opts.keep_intermediates {
            self.ctx.delete_file(input)?;
        }
        match output {
            Output::File => {
                let mut writer = self.ctx.create_writer::<SlabTuple>()?;
                with_node_scratch(top, |scratch| -> Result<()> {
                    for t in scratch.sweep(&rects, slab) {
                        writer.push(t)?;
                    }
                    Ok(())
                })?;
                Ok(Solved::File(writer.finish()?))
            }
            Output::Bests => {
                let best = with_node_scratch(top, |scratch| first_max(scratch.sweep(&rects, slab)));
                Ok(Solved::Bests(vec![SlabBest { slab, best }]))
            }
        }
    }
}

/// Calls `f` with the sweep scratch of a node solved in memory.  Nodes below
/// the top borrow their worker thread's scratch: the recursion sweeps one
/// slab after another there, and the breakpoint / event / segment-tree
/// buffers are reused across all of them.  The top node usually runs on the
/// caller's long-lived thread (a top-k window, one shard's slab), so it gets
/// a scratch of its own, freed with it, instead of leaving buffers for up to
/// `M` rectangles on that thread after the query.
fn with_node_scratch<R>(top: bool, f: impl FnOnce(&mut SweepScratch) -> R) -> R {
    if top {
        f(&mut SweepScratch::new())
    } else {
        with_sweep_scratch(f)
    }
}

/// The first tuple of greatest sum in a y-sorted slab-file's tuples.
fn first_max<'t>(tuples: impl IntoIterator<Item = &'t SlabTuple>) -> Option<SlabTuple> {
    tuples.into_iter().fold(None, |best, &t| {
        if best.is_none_or(|b| t.sum > b.sum) {
            Some(t)
        } else {
            best
        }
    })
}

/// Scans the final slab-file for the best tuple and converts it into a result.
pub fn extract_best(ctx: &EmContext, slab_file: &TupleFile<SlabTuple>) -> Result<MaxRsResult> {
    let mut reader = ctx.open_reader(slab_file);
    let mut best: Option<SlabTuple> = None;
    let mut best_next_y: Option<f64> = None;
    let mut awaiting_next = false;
    while let Some(t) = reader.next_record()? {
        if awaiting_next {
            best_next_y = Some(t.y);
            awaiting_next = false;
        }
        if best.is_none_or(|b| t.sum > b.sum) {
            best = Some(t);
            best_next_y = None;
            awaiting_next = true;
        }
    }
    Ok(match best {
        Some(b) => tuple_result(
            b.sum,
            b.interval(),
            b.y,
            best_next_y.unwrap_or(f64::INFINITY),
        ),
        None => MaxRsResult::empty(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::{load_objects, sort_objects_by_x};
    use crate::plane_sweep::max_rs_in_memory;
    use maxrs_em::EmConfig;
    use maxrs_geometry::WeightedPoint;

    fn tiny_ctx() -> EmContext {
        EmContext::new(EmConfig::new(256, 1024).unwrap())
    }

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

    #[test]
    fn presorted_pass_equals_unsorted_pass_bit_for_bit() {
        let ctx = tiny_ctx();
        let objects = pseudo_random_objects(400, 13, 700.0);
        let size = RectSize::square(90.0);
        let opts = ExactMaxRsOptions::sequential();

        let file = load_objects(&ctx, &objects).unwrap();
        let unsorted = SweepPass::new(&ctx, &opts).max_rs(&file, size).unwrap();

        let sorted = sort_objects_by_x(&ctx, &file).unwrap();
        let presorted = SweepPass::presorted(&ctx, &opts)
            .max_rs(&sorted, size)
            .unwrap();

        assert_eq!(unsorted, presorted);
        assert_eq!(unsorted, max_rs_in_memory(&objects, size));
        ctx.delete_file(file).unwrap();
        ctx.delete_file(sorted).unwrap();
    }

    #[test]
    fn weight_scale_negates_the_objective() {
        let ctx = tiny_ctx();
        let objects = pseudo_random_objects(200, 5, 300.0);
        let size = RectSize::square(40.0);
        let opts = ExactMaxRsOptions::sequential();
        let file = load_objects(&ctx, &objects).unwrap();

        // A weight scale of -1 turns the max into the (negated) min; over an
        // unbounded root the least-covered placement covers nothing.
        let negated = SweepPass::new(&ctx, &opts)
            .with_weight_scale(-1.0)
            .max_rs(&file, size)
            .unwrap();
        assert_eq!(negated.total_weight, 0.0);
        ctx.delete_file(file).unwrap();
    }

    #[test]
    fn root_slab_restricts_the_sweep() {
        let ctx = tiny_ctx();
        // Two clusters; the root slab admits only the lighter right one.
        let mut objects = Vec::new();
        for i in 0..30 {
            objects.push(WeightedPoint::at(10.0 + (i % 5) as f64, i as f64, 2.0));
        }
        for i in 0..10 {
            objects.push(WeightedPoint::at(500.0 + (i % 3) as f64, i as f64, 1.0));
        }
        let size = RectSize::new(20.0, 100.0);
        let opts = ExactMaxRsOptions {
            memory_rects: Some(8),
            ..ExactMaxRsOptions::sequential()
        };
        let file = load_objects(&ctx, &objects).unwrap();
        let everywhere = SweepPass::new(&ctx, &opts).max_rs(&file, size).unwrap();
        let right_only = SweepPass::new(&ctx, &opts)
            .with_root(Interval::new(400.0, 600.0))
            .max_rs(&file, size)
            .unwrap();
        assert_eq!(everywhere.total_weight, 60.0);
        assert_eq!(right_only.total_weight, 10.0);
        assert!(right_only.center.x >= 400.0 && right_only.center.x <= 600.0);
        ctx.delete_file(file).unwrap();
    }

    /// The canonicalization scan's next y-edge is exactly the upper bound
    /// `extract_best` reads off the next tuple of the merged root
    /// slab-file, and the per-slab bests canonicalized by the scan equal
    /// the write-then-scan pipeline — with the root solved in memory and
    /// through a recursion.
    #[test]
    fn scan_edges_close_the_winning_strip_like_the_merged_file() {
        let ctx = tiny_ctx();
        for (seed, memory_rects) in [(3, 1000), (5, 16), (8, 40), (13, 7)] {
            let objects = pseudo_random_objects(350, seed, 600.0);
            let file = load_objects(&ctx, &objects).unwrap();
            let sorted = sort_objects_by_x(&ctx, &file).unwrap();
            let opts = ExactMaxRsOptions {
                memory_rects: Some(memory_rects),
                ..ExactMaxRsOptions::sequential()
            };
            let pass = SweepPass::presorted(&ctx, &opts);
            let size = RectSize::new(70.0, 45.0);

            let slab_file = pass.slab_file(&sorted, size).unwrap();
            let extracted = pass.extract_best(&slab_file).unwrap();
            ctx.delete_file(slab_file).unwrap();
            let corner = Point::new(extracted.region.x_lo, extracted.region.y_lo);
            let scan =
                |p: Point| next_edges_after(&ctx, &sorted, size, Interval::UNBOUNDED, p, &[]);
            let (_, next_y) = scan(corner).unwrap();
            assert_eq!(extracted.region.y_hi, next_y, "seed {seed}");

            let bests = pass.slab_bests(&sorted, size).unwrap();
            assert_eq!(bests.len() > 1, memory_rects < 350, "seed {seed}");
            let incremental = canonical_result(crate::best_of(&bests), scan).unwrap();
            assert_eq!(
                incremental,
                pass.max_rs(&sorted, size).unwrap(),
                "seed {seed}"
            );
            assert_eq!(incremental, max_rs_in_memory(&objects, size), "seed {seed}");
            ctx.delete_file(file).unwrap();
            ctx.delete_file(sorted).unwrap();
        }
    }

    #[test]
    fn staged_execution_equals_the_composed_pipeline() {
        let ctx = tiny_ctx();
        let objects = pseudo_random_objects(300, 7, 500.0);
        let size = RectSize::square(60.0);
        let opts = ExactMaxRsOptions::sequential();
        let file = load_objects(&ctx, &objects).unwrap();
        let pass = SweepPass::new(&ctx, &opts);

        let composed = pass.max_rs(&file, size).unwrap();

        let slab_file = pass.slab_file(&file, size).unwrap();
        let extracted = pass.extract_best(&slab_file).unwrap();
        ctx.delete_file(slab_file).unwrap();
        let staged = pass.canonicalize(&file, size, extracted).unwrap();

        assert_eq!(composed, staged);
        ctx.delete_file(file).unwrap();
    }
}
