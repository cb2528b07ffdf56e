//! Sharded datasets: x-partitioned parallel prepare and shard-routed queries.
//!
//! [`ShardedDataset`] splits the x-domain into `K` coarse shards at
//! boundaries picked by a sampling pass (so the shards hold roughly equal
//! object counts), then ingests and external-sorts every shard **concurrently**
//! on the [`parallel_map`] pool — the one-time `O((N/B) log_{M/B}(N/B))` sort
//! of [`MaxRsEngine::prepare`] becomes `K` independent sorts of `N/K` records
//! each, so prepare wall-clock scales with cores.  Each shard owns its own
//! [`PreparedDataset`] and block device: with [`ShardLayout::directories`]
//! the shards spread over different directories (and hence disks).
//!
//! ## Queries stay exact — and bit-identical
//!
//! A query rectangle can cover objects from several shards, and an *optimal*
//! placement can straddle a shard boundary.  Queries therefore do not solve
//! shards independently and pick the best: they run the **same distribution
//! sweep** the unsharded pipeline runs, with the shard partition as the
//! top-level slab partition:
//!
//! 1. every shard whose objects' rectangles can reach the query's root slab
//!    is scanned (shard routing: a rect-size-inflated root selects the
//!    shards touched), its transformed rectangles cropped against the shard
//!    boundaries exactly like [`distribute`](crate::slab::distribute) —
//!    end pieces go to the two end shards, fully-spanned shards receive a
//!    [`SpanEvent`] pair instead of `O(K)` rectangle copies;
//! 2. each shard solves its cropped rectangle file locally (the ordinary
//!    recursion of [`crate::sweep`], running on the shard's own device);
//! 3. the per-shard slab-files and the y-sorted spanning events merge
//!    through the canonical MergeSweep ([`mod@crate::merge_sweep`]) — the
//!    same one-pass merge every recursion node uses, reading each shard's
//!    slab-file straight off its own device;
//! 4. the winning tuple is widened to its full arrangement cell
//!    (canonical max-regions, see [`crate::sweep`]) by taking the minimum
//!    next-breakpoint over the shards.
//!
//! Because canonical max-regions are partition-independent, the answers are
//! **bit-identical** to an unsharded [`PreparedDataset::run`] for every
//! [`Query`] variant — with one caveat: the shard boundaries regroup the
//! slabs, so for arbitrary float weights the regrouped additions can differ
//! in the last bits; for integer-valued weights equality is exact.
//!
//! ```
//! use maxrs_core::{MaxRsEngine, Query, ShardLayout};
//! use maxrs_geometry::{RectSize, WeightedPoint};
//!
//! let objects: Vec<WeightedPoint> = (0..3000)
//!     .map(|i| WeightedPoint::unit((i % 60) as f64 * 5.0, (i / 60) as f64 * 6.0))
//!     .collect();
//! let engine = MaxRsEngine::new();
//! let sharded = engine.prepare_sharded(&objects, &ShardLayout::new(4)).unwrap();
//! assert_eq!(sharded.num_shards(), 4);
//!
//! // Same answer as the unsharded prepared dataset, bit for bit.
//! let query = Query::max_rs(RectSize::square(12.0));
//! let unsharded = engine.prepare(&objects).unwrap();
//! assert_eq!(
//!     sharded.run(&query).unwrap().answer,
//!     unsharded.run(&query).unwrap().answer,
//! );
//! ```

use std::path::PathBuf;

use maxrs_em::{external_sort_by_key, EmContext, FsDisk, IoSnapshot, TupleFile, TupleWriter};
use maxrs_geometry::{Interval, Point, Rect, RectSize, WeightedPoint};

use crate::approx::{best_candidate, candidate_points, evaluate_candidates};
use crate::batch::{GroupKind, MemberOut, QueryBatch};
use crate::engine::{EngineOptions, ExecutionStrategy, MaxRsEngine};
use crate::error::Result;
use crate::exact::{load_objects, sort_objects_by_x, ExactMaxRsOptions};
use crate::extensions::{min_rs_in_memory, min_strip_scan, MinStrip};
use crate::merge_sweep::merge_sweep_readers;
use crate::parallel::{available_parallelism, parallel_map};
use crate::prepared::PreparedDataset;
use crate::query::{Query, QueryAnswer, QueryRun};
use crate::records::{ObjectRecord, RectRecord, SlabTuple, SpanEvent};
use crate::result::{MaxCrsResult, MaxRsResult};
use crate::slab::SlabPartition;
use crate::sweep::{extract_best, next_breakpoint_after, solve_rects};

/// How a [`ShardedDataset`] is laid out: how many shards, where their block
/// devices live, and how boundary selection samples the input.
#[derive(Debug, Clone)]
pub struct ShardLayout {
    /// Requested number of x-shards (`K`); at least 1.  Duplicate quantiles
    /// (tie-heavy x) can reduce the actual shard count — see
    /// [`ShardedDataset::num_shards`].
    pub shards: usize,
    /// Directories the shards' devices are created in, assigned round-robin
    /// (`shard i` → `directories[i % len]`), so shards can live on different
    /// disks.  Each shard gets its **own** [`FsDisk`] with a unique file
    /// prefix, so directories may be shared.  Empty (the default) puts every
    /// shard on a fresh device of the configured
    /// [`StorageBackend`](maxrs_em::StorageBackend).
    pub directories: Vec<PathBuf>,
    /// Sampling cap of the boundary-selection pass: datasets up to this size
    /// are quantiled exactly, larger ones through a deterministic reservoir
    /// sample of this size (mirroring
    /// [`BoundarySource::Sampled`](crate::slab::BoundarySource)).
    pub boundary_sample: usize,
}

impl Default for ShardLayout {
    fn default() -> Self {
        ShardLayout {
            shards: available_parallelism(),
            directories: Vec::new(),
            boundary_sample: 8192,
        }
    }
}

impl ShardLayout {
    /// A layout of `shards` shards on the configured backend.
    pub fn new(shards: usize) -> Self {
        ShardLayout {
            shards,
            ..Default::default()
        }
    }

    /// Spreads the shards' devices over `directories`, round-robin.
    pub fn with_directories(mut self, directories: Vec<PathBuf>) -> Self {
        self.directories = directories;
        self
    }

    /// Overrides the boundary-selection sampling cap.
    pub fn with_boundary_sample(mut self, boundary_sample: usize) -> Self {
        self.boundary_sample = boundary_sample.max(1);
        self
    }
}

/// One shard: its prepared (x-sorted, externally stored) objects and the
/// x-interval it owns.
struct Shard {
    data: PreparedDataset<'static>,
    /// `[-∞, b₁)`, `[b₁, b₂)`, …, `[b_{K-1}, +∞)` — objects at a boundary
    /// belong to the right shard, mirroring [`SlabPartition::locate`].
    slab: Interval,
    prepare_io: IoSnapshot,
}

/// A shard's context and retained x-sorted object file, as the sweep
/// machinery consumes them.
type ShardFile<'a> = (&'a EmContext, &'a TupleFile<ObjectRecord>);

/// Phase-1 output of one source shard: per-global-slab rectangle pieces
/// (written on the owning shard's context) plus its spanning events (written
/// on the merge context, unsorted).
struct SourceOut {
    pieces: Vec<Option<TupleFile<RectRecord>>>,
    spans: Option<TupleFile<SpanEvent>>,
}

/// An x-sharded dataset: `K` independently prepared shards answering every
/// [`Query`] variant through one shard-routed distribution sweep — see the
/// [module docs](crate::shard) for the pipeline and the bit-identity
/// guarantee.  Built by [`MaxRsEngine::prepare_sharded`].
pub struct ShardedDataset {
    opts: EngineOptions,
    /// Interior shard boundaries, strictly increasing (`num_shards - 1`).
    boundaries: Vec<f64>,
    shards: Vec<Shard>,
    /// Where spanning events and merged slab-files live: the cross-shard
    /// scratch device.
    merge_ctx: EmContext,
    len: u64,
}

impl std::fmt::Debug for ShardedDataset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedDataset")
            .field("len", &self.len)
            .field("shards", &self.shards.len())
            .field("boundaries", &self.boundaries)
            .finish_non_exhaustive()
    }
}

impl MaxRsEngine {
    /// Partitions `objects` into [`ShardLayout::shards`] x-shards (boundaries
    /// picked by a sampling pass so the shards are balanced) and prepares
    /// every shard **concurrently** on the [`parallel_map`] pool — the
    /// parallel counterpart of [`prepare`](MaxRsEngine::prepare), with each
    /// shard external-sorting `~N/K` records on its own block device.
    ///
    /// Answers from the returned [`ShardedDataset`] are bit-identical to the
    /// unsharded [`PreparedDataset`]'s for every query variant (integer
    /// weights; see the [module docs](crate::shard)).
    pub fn prepare_sharded(
        &self,
        objects: &[WeightedPoint],
        layout: &ShardLayout,
    ) -> Result<ShardedDataset> {
        ShardedDataset::prepare(self, objects, layout)
    }
}

impl ShardedDataset {
    pub(crate) fn prepare(
        engine: &MaxRsEngine,
        objects: &[WeightedPoint],
        layout: &ShardLayout,
    ) -> Result<ShardedDataset> {
        let opts = *engine.options();
        let k = layout.shards.max(1);
        let boundaries = select_shard_boundaries(objects, k, layout.boundary_sample);
        let num = boundaries.len() + 1;

        // Route each object to its shard: x on a boundary goes right,
        // mirroring `SlabPartition::locate` (so cross-checks against the
        // sweep's own routing agree on ties).
        let mut parts: Vec<Vec<WeightedPoint>> = (0..num).map(|_| Vec::new()).collect();
        for o in objects {
            let idx = boundaries.partition_point(|&b| b <= o.point.x);
            parts[idx].push(*o);
        }

        let workers = opts.exact.parallelism.max(1).min(num);
        let built = parallel_map(workers, parts, |i, part| {
            build_shard(opts, layout, i, &part)
        });

        let mut shards = Vec::with_capacity(num);
        for (i, outcome) in built.into_iter().enumerate() {
            let (data, prepare_io) = outcome?;
            shards.push(Shard {
                data,
                slab: shard_slab(&boundaries, i),
                prepare_io,
            });
        }
        Ok(ShardedDataset {
            opts,
            boundaries,
            shards,
            merge_ctx: EmContext::new(opts.em_config),
            len: objects.len() as u64,
        })
    }

    /// Total number of objects across all shards.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// `true` when the dataset holds no objects.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Actual number of shards: the requested [`ShardLayout::shards`] unless
    /// boundary quantiles collapsed on tie-heavy x (all-equal x yields one
    /// shard, `n < K` distinct values yield at most `n` shards).
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The interior shard boundaries, strictly increasing
    /// (`num_shards() - 1` values; shard `i` owns `[b_{i-1}, b_i)`).
    pub fn boundaries(&self) -> &[f64] {
        &self.boundaries
    }

    /// Object count per shard, in x-order — the balance the sampling pass
    /// achieved.
    pub fn shard_lens(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.data.len()).collect()
    }

    /// Blocks transferred by the one-time preprocessing, summed over the
    /// shards (each shard's external x-sort plus its flush; loading is
    /// excluded exactly as in [`PreparedDataset::prepare_io`]).
    pub fn prepare_io(&self) -> IoSnapshot {
        self.shards
            .iter()
            .fold(IoSnapshot::default(), |acc, s| acc + s.prepare_io)
    }

    /// Per-shard preprocessing I/O, in x-order.
    pub fn prepare_io_per_shard(&self) -> Vec<IoSnapshot> {
        self.shards.iter().map(|s| s.prepare_io).collect()
    }

    /// The short backend name of the shard devices ("sim", "fs").
    pub fn backend_name(&self) -> &'static str {
        self.shards
            .first()
            .and_then(|s| s.data.backend_name())
            .unwrap_or_else(|| self.merge_ctx.backend_name())
    }

    /// Estimated resident bytes: the retained sorted files of all shards.
    pub fn resident_bytes(&self) -> u64 {
        self.shards.iter().map(|s| s.data.resident_bytes()).sum()
    }

    /// Per-shard resident bytes, in x-order — the terms
    /// [`resident_bytes`](ShardedDataset::resident_bytes) sums, exposed so
    /// cache accounting (e.g. the serving registry's memory budget) can be
    /// audited shard by shard.
    pub fn resident_bytes_per_shard(&self) -> Vec<u64> {
        self.shards
            .iter()
            .map(|s| s.data.resident_bytes())
            .collect()
    }

    /// How many shards `query` routes to: the shards whose objects'
    /// transformed rectangles can reach the query's root slab once it is
    /// inflated by half the rectangle width.  `num_shards()` for the
    /// unbounded-root variants (MaxRS, top-k, ApproxMaxCRS), possibly fewer
    /// for MinRS over a narrow center domain.
    pub fn shards_touched(&self, query: &Query) -> usize {
        let (size, root) = match *query {
            Query::MaxRs { size } | Query::TopK { size, .. } => (size, Interval::UNBOUNDED),
            Query::MinRs { size, domain } => (size, Interval::new(domain.x_lo, domain.x_hi)),
            Query::ApproxMaxCrs { diameter, .. } => {
                (RectSize::square(diameter), Interval::UNBOUNDED)
            }
        };
        self.engaged_sources(size, root).len()
    }

    /// Answers one query — see [`run_batch`](ShardedDataset::run_batch).
    pub fn run(&self, query: &Query) -> Result<QueryRun> {
        let mut runs = self.run_batch(std::slice::from_ref(query))?;
        Ok(runs.pop().expect("one query in, one run out"))
    }

    /// Validates and plans `queries` into sweep groups, then answers them —
    /// the sharded counterpart of [`PreparedDataset::run_batch`], with the
    /// same grouping and the same per-variant answers.
    pub fn run_batch(&self, queries: &[Query]) -> Result<Vec<QueryRun>> {
        self.run_planned(&QueryBatch::new(queries)?)
    }

    /// Executes an already planned batch: groups run one after another (so
    /// per-query I/O attribution uses plain counter deltas over all shard
    /// devices), while **within** every sweep phase the shards run
    /// concurrently on the [`parallel_map`] pool.
    pub fn run_planned(&self, batch: &QueryBatch) -> Result<Vec<QueryRun>> {
        let workers = self.opts.exact.parallelism.max(1).min(self.shards.len());
        let strategy = if workers > 1 {
            ExecutionStrategy::ExternalParallel
        } else {
            ExecutionStrategy::ExternalSequential
        };
        let files = self.shard_files();

        let mut runs: Vec<Option<QueryRun>> = batch.queries().iter().map(|_| None).collect();
        for group in batch.groups() {
            let outs = match group.kind {
                GroupKind::Shared { size } => {
                    self.run_shared_group(&files, size, &group.members, batch)?
                }
                GroupKind::MinRs { size, slab } => {
                    self.run_min_rs_group(&files, size, slab, &group.members, batch)?
                }
                GroupKind::DegenerateMinRs => {
                    self.run_degenerate_min_rs(&files, group.members[0], batch)?
                }
            };
            for m in outs {
                runs[m.index] = Some(QueryRun {
                    answer: m.answer,
                    strategy,
                    workers,
                    io: m.io,
                });
            }
        }
        Ok(runs
            .into_iter()
            .map(|r| r.expect("every query belongs to exactly one group"))
            .collect())
    }

    // ---- internals -------------------------------------------------------

    fn shard_files(&self) -> Vec<ShardFile<'_>> {
        self.shards
            .iter()
            .map(|s| s.data.external_parts().expect("shards are always external"))
            .collect()
    }

    /// Transfers across every shard device plus the merge device — the
    /// dataset-wide counter the query phases meter against.
    fn stats_total(&self) -> IoSnapshot {
        self.shards
            .iter()
            .filter_map(|s| s.data.external_parts())
            .fold(self.merge_ctx.stats(), |acc, (ctx, _)| acc + ctx.stats())
    }

    fn measured<R>(&self, f: impl FnOnce() -> Result<R>) -> Result<(R, IoSnapshot)> {
        let before = self.stats_total();
        let out = f()?;
        Ok((out, self.stats_total().delta(&before)))
    }

    fn phase_workers(&self, n: usize) -> usize {
        self.opts.exact.parallelism.max(1).min(n.max(1))
    }

    /// The source shards whose objects' rectangles can reach `root`: shard
    /// slab inflated by half the rectangle width, kept unless **strictly**
    /// out of reach (degenerate touching stays in, so boundary ties are
    /// routed exactly like the unsharded sweep clips them).
    fn engaged_sources(&self, size: RectSize, root: Interval) -> Vec<usize> {
        let half = size.width / 2.0;
        (0..self.shards.len())
            .filter(|&i| {
                let s = self.shards[i].slab;
                !(s.hi + half < root.lo || s.lo - half > root.hi)
            })
            .collect()
    }

    /// The top-level slab partition of a sharded sweep: the shard boundaries
    /// that fall strictly inside `root`, with `root`'s own bounds as the
    /// outer walls.  Every global slab is owned by exactly one shard.
    fn clipped_partition(&self, root: Interval) -> SlabPartition {
        let mut bounds = Vec::with_capacity(self.boundaries.len() + 2);
        bounds.push(root.lo);
        for &b in &self.boundaries {
            if b > root.lo && b < root.hi {
                bounds.push(b);
            }
        }
        bounds.push(root.hi);
        SlabPartition::new(bounds)
    }

    /// Which shard owns each global slab of `partition`.
    fn slab_owners(&self, partition: &SlabPartition) -> Vec<usize> {
        (0..partition.num_slabs())
            .map(|t| {
                self.boundaries
                    .partition_point(|&b| b <= partition.boundaries[t])
                    .min(self.shards.len() - 1)
            })
            .collect()
    }

    /// The sharded distribution sweep for one `(size, weight_scale, root)`
    /// pass: distribute (per source shard, concurrent) → solve (per global
    /// slab inside its owner shard, concurrent) → MergeSweep over per-shard
    /// readers.  Returns the merged root slab-file on the merge context.
    fn sharded_slab_file(
        &self,
        files: &[ShardFile<'_>],
        size: RectSize,
        weight_scale: f64,
        root: Interval,
    ) -> Result<TupleFile<SlabTuple>> {
        let partition = self.clipped_partition(root);
        let owners = self.slab_owners(&partition);
        let m = partition.num_slabs();
        let engaged = self.engaged_sources(size, root);

        // Phase 1 — shard routing: every engaged source crops its rectangles
        // against the global partition, writing end pieces into the owner
        // shards' devices and span-event pairs onto the merge device.
        let outs = parallel_map(self.phase_workers(engaged.len()), engaged, |_, s| {
            self.distribute_source(files, s, &partition, &owners, size, weight_scale)
        });
        let mut sources: Vec<SourceOut> = Vec::with_capacity(outs.len());
        let mut first_err = None;
        for out in outs {
            match out {
                Ok(o) => sources.push(o),
                Err(e) => first_err = first_err.or(Some(e)),
            }
        }
        if let Some(e) = first_err {
            for src in sources {
                self.discard_source_out(files, &owners, src);
            }
            return Err(e);
        }

        // Phase 2 — per-shard solves: concatenate each global slab's pieces
        // (fixed source order keeps the stream deterministic) and run the
        // ordinary recursion inside the owner shard.
        let slab_outs = parallel_map(self.phase_workers(m), (0..m).collect(), |_, t| {
            self.solve_slab(files, &owners, &partition, t, &sources)
        });
        let mut slab_files: Vec<TupleFile<SlabTuple>> = Vec::with_capacity(m);
        let mut first_err = None;
        for out in slab_outs {
            match out {
                Ok(f) => slab_files.push(f),
                Err(e) => first_err = first_err.or(Some(e)),
            }
        }
        let spans = if first_err.is_none() {
            match self.collect_spans(&sources) {
                Ok(f) => Some(f),
                Err(e) => {
                    first_err = Some(e);
                    None
                }
            }
        } else {
            for src in &sources {
                if let Some(f) = &src.spans {
                    let _ = self.merge_ctx.delete_file(f.clone());
                }
            }
            None
        };
        if let Some(e) = first_err {
            for (t, f) in slab_files.into_iter().enumerate() {
                let _ = files[owners[t]].0.delete_file(f);
            }
            if let Some(f) = spans {
                let _ = self.merge_ctx.delete_file(f);
            }
            return Err(e);
        }
        let spans = spans.expect("span file collected");

        // Phase 3 — MergeSweep straight over per-shard readers: each reader
        // borrows only the device its slab-file lives on.
        let slabs = partition.slabs();
        let readers = slab_files
            .iter()
            .enumerate()
            .map(|(t, f)| files[owners[t]].0.open_reader(f))
            .collect();
        let span_reader = self.merge_ctx.open_reader(&spans);
        let merged = merge_sweep_readers(&self.merge_ctx, readers, &slabs, span_reader);

        for (t, f) in slab_files.into_iter().enumerate() {
            let delete = files[owners[t]].0.delete_file(f);
            if merged.is_ok() {
                delete?;
            }
        }
        let delete = self.merge_ctx.delete_file(spans);
        if merged.is_ok() {
            delete?;
        }
        merged
    }

    /// Phase 1 for one source shard: the exact cropping rule of
    /// [`distribute`](crate::slab::distribute), streamed from the shard's
    /// sorted objects with the transform fused in.
    fn distribute_source(
        &self,
        files: &[ShardFile<'_>],
        source: usize,
        partition: &SlabPartition,
        owners: &[usize],
        size: RectSize,
        weight_scale: f64,
    ) -> Result<SourceOut> {
        let m = partition.num_slabs();
        let (src_ctx, src_file) = files[source];
        let mut writers: Vec<Option<TupleWriter<'_, RectRecord>>> = (0..m).map(|_| None).collect();
        let mut span_writer: Option<TupleWriter<'_, SpanEvent>> = None;

        let mut reader = src_ctx.open_reader(src_file);
        let body = (|| -> Result<()> {
            while let Some(rec) = reader.next_record()? {
                let record = RectRecord::new(rec.0.to_rect(size), weight_scale * rec.0.weight);
                let j = partition.locate(record.rect.x_lo);
                let k = partition.locate(record.rect.x_hi);
                if j == k {
                    push_piece(files, owners, &mut writers, j, &record)?;
                } else {
                    let left = RectRecord::new(
                        Rect::new(
                            record.rect.x_lo,
                            partition.boundaries[j + 1],
                            record.rect.y_lo,
                            record.rect.y_hi,
                        ),
                        record.weight,
                    );
                    push_piece(files, owners, &mut writers, j, &left)?;
                    let right = RectRecord::new(
                        Rect::new(
                            partition.boundaries[k],
                            record.rect.x_hi,
                            record.rect.y_lo,
                            record.rect.y_hi,
                        ),
                        record.weight,
                    );
                    push_piece(files, owners, &mut writers, k, &right)?;
                    if k > j + 1 {
                        let writer = match span_writer.as_mut() {
                            Some(w) => w,
                            None => {
                                span_writer.insert(self.merge_ctx.create_writer::<SpanEvent>()?)
                            }
                        };
                        for e in SpanEvent::pair(
                            record.rect.y_lo,
                            record.rect.y_hi,
                            record.weight,
                            (j + 1) as u32,
                            (k - 1) as u32,
                        ) {
                            writer.push(&e)?;
                        }
                    }
                }
            }
            Ok(())
        })();

        // Materialize every writer even on error, so cleanup deals with real
        // files instead of leaking half-written ones on long-lived devices.
        let mut first_err = body.err();
        let mut pieces: Vec<Option<TupleFile<RectRecord>>> = Vec::with_capacity(m);
        for w in writers {
            match w {
                Some(w) => match w.finish() {
                    Ok(f) => pieces.push(Some(f)),
                    Err(e) => {
                        first_err = first_err.or(Some(e.into()));
                        pieces.push(None);
                    }
                },
                None => pieces.push(None),
            }
        }
        let spans = match span_writer {
            Some(w) => match w.finish() {
                Ok(f) => Some(f),
                Err(e) => {
                    first_err = first_err.or(Some(e.into()));
                    None
                }
            },
            None => None,
        };
        let out = SourceOut { pieces, spans };
        match first_err {
            Some(e) => {
                self.discard_source_out(files, owners, out);
                Err(e)
            }
            None => Ok(out),
        }
    }

    fn discard_source_out(&self, files: &[ShardFile<'_>], owners: &[usize], out: SourceOut) {
        for (t, f) in out.pieces.into_iter().enumerate() {
            if let Some(f) = f {
                let _ = files[owners[t]].0.delete_file(f);
            }
        }
        if let Some(f) = out.spans {
            let _ = self.merge_ctx.delete_file(f);
        }
    }

    /// Phase 2 for one global slab: concatenate its pieces in source order on
    /// the owner shard's device and run the ordinary (sequential, sampled-
    /// boundary) recursion there — exactly what the unsharded parallel slab
    /// stage does per child.
    fn solve_slab(
        &self,
        files: &[ShardFile<'_>],
        owners: &[usize],
        partition: &SlabPartition,
        t: usize,
        sources: &[SourceOut],
    ) -> Result<TupleFile<SlabTuple>> {
        let ctx = files[owners[t]].0;
        let mut writer = ctx.create_writer::<RectRecord>()?;
        for src in sources {
            if let Some(f) = &src.pieces[t] {
                let mut reader = ctx.open_reader(f);
                while let Some(rec) = reader.next_record()? {
                    writer.push(&rec)?;
                }
            }
        }
        let rects = writer.finish()?;
        for src in sources {
            if let Some(f) = &src.pieces[t] {
                ctx.delete_file(f.clone())?;
            }
        }
        let opts = ExactMaxRsOptions {
            parallelism: 1,
            ..self.opts.exact
        };
        solve_rects(ctx, &opts, rects, partition.slab(t), false, 1)
    }

    /// Concatenates the per-source span files in source order and y-sorts the
    /// result on the merge device — the sharded mirror of the span sort in
    /// [`distribute`](crate::slab::distribute).
    fn collect_spans(&self, sources: &[SourceOut]) -> Result<TupleFile<SpanEvent>> {
        let mut writer = self.merge_ctx.create_writer::<SpanEvent>()?;
        for src in sources {
            if let Some(f) = &src.spans {
                let mut reader = self.merge_ctx.open_reader(f);
                while let Some(e) = reader.next_record()? {
                    writer.push(&e)?;
                }
            }
        }
        let unsorted = writer.finish()?;
        for src in sources {
            if let Some(f) = &src.spans {
                let _ = self.merge_ctx.delete_file(f.clone());
            }
        }
        let sorted = external_sort_by_key(&self.merge_ctx, &unsorted, |e| e.y);
        self.merge_ctx.delete_file(unsorted)?;
        Ok(sorted?)
    }

    /// The full sharded MaxRS pipeline over the given per-shard files:
    /// sweep → extract → canonicalize, all temporaries deleted.
    fn sharded_max_rs(&self, files: &[ShardFile<'_>], size: RectSize) -> Result<MaxRsResult> {
        if files.iter().all(|(_, f)| f.is_empty()) {
            return Ok(MaxRsResult::empty());
        }
        let merged = self.sharded_slab_file(files, size, 1.0, Interval::UNBOUNDED)?;
        let result = extract_best(&self.merge_ctx, &merged);
        self.merge_ctx.delete_file(merged)?;
        self.canonicalize(files, size, Interval::UNBOUNDED, result?)
    }

    /// Stage 4b of the kernel, sharded: the arrangement breakpoint after the
    /// winning interval's lower bound is the **minimum** of the per-shard
    /// breakpoints — each shard scans only its own objects, together exactly
    /// the one-file scan of [`SweepPass::canonicalize`](crate::sweep::SweepPass).
    fn canonicalize(
        &self,
        files: &[ShardFile<'_>],
        size: RectSize,
        root: Interval,
        result: MaxRsResult,
    ) -> Result<MaxRsResult> {
        if !result.region.x_lo.is_finite() && !result.region.x_hi.is_finite() {
            // The empty-dataset sentinel; nothing to widen.
            return Ok(result);
        }
        let mut hi = f64::INFINITY;
        for &(ctx, file) in files {
            hi = hi.min(next_breakpoint_after(
                ctx,
                file,
                size,
                root,
                result.region.x_lo,
            )?);
        }
        let x = Interval::new(result.region.x_lo, hi);
        Ok(MaxRsResult {
            center: Point::new(x.representative(), result.center.y),
            total_weight: result.total_weight,
            region: Rect::new(x.lo, x.hi, result.region.y_lo, result.region.y_hi),
        })
    }

    /// The positive-weight group (MaxRS / top-k / ApproxMaxCRS of one size):
    /// the sharded mirror of the batch executor's shared group, same sharing
    /// and same leader I/O attribution.
    fn run_shared_group(
        &self,
        files: &[ShardFile<'_>],
        size: RectSize,
        members: &[usize],
        batch: &QueryBatch,
    ) -> Result<Vec<MemberOut>> {
        let queries = batch.queries();
        let max_k = members
            .iter()
            .filter_map(|&i| match queries[i] {
                Query::TopK { k, .. } => Some(k),
                _ => None,
            })
            .max();
        let needs_pass = members
            .iter()
            .any(|&i| !matches!(queries[i], Query::TopK { k, .. } if k == 0));
        if !needs_pass || self.len == 0 {
            return members
                .iter()
                .map(|&i| {
                    let answer = match queries[i] {
                        Query::MaxRs { .. } => QueryAnswer::MaxRs(MaxRsResult::empty()),
                        Query::TopK { .. } => QueryAnswer::TopK(Vec::new()),
                        Query::ApproxMaxCrs { .. } => QueryAnswer::MaxCrs(MaxCrsResult::empty()),
                        Query::MinRs { .. } => unreachable!("MinRS plans into its own group"),
                    };
                    Ok(MemberOut {
                        index: i,
                        answer,
                        io: IoSnapshot::default(),
                    })
                })
                .collect();
        }

        let (best, shared_io) = self.measured(|| self.sharded_max_rs(files, size))?;
        let (rounds, rounds_io) = match max_k {
            Some(max_k) if max_k > 0 => {
                self.measured(|| self.top_k_rounds(files, size, max_k, best))?
            }
            _ => (Vec::new(), IoSnapshot::default()),
        };

        let mut out = Vec::with_capacity(members.len());
        let mut shared_io = Some(shared_io);
        let mut rounds_io = Some(rounds_io);
        for &i in members {
            let (answer, mut io) = match queries[i] {
                Query::MaxRs { .. } => (QueryAnswer::MaxRs(best), IoSnapshot::default()),
                Query::TopK { k, .. } => (
                    QueryAnswer::TopK(rounds[..k.min(rounds.len())].to_vec()),
                    rounds_io.take().unwrap_or_default(),
                ),
                Query::ApproxMaxCrs { diameter, .. } => {
                    let sigma = queries[i]
                        .sigma_fraction()
                        .expect("approx variant has a sigma");
                    let (crs, refine_io) =
                        self.measured(|| self.refine_crs(files, best.center, diameter, sigma))?;
                    (QueryAnswer::MaxCrs(crs), refine_io)
                }
                Query::MinRs { .. } => unreachable!("MinRS plans into its own group"),
            };
            io = io + shared_io.take().unwrap_or_default();
            out.push(MemberOut {
                index: i,
                answer,
                io,
            });
        }
        Ok(out)
    }

    /// Steps 2–3 of ApproxMaxCRS over the shards: each shard scans its own
    /// objects for the five candidates' partial sums, accumulated in shard
    /// (= x) order so the stream matches the unsharded single-file scan.
    fn refine_crs(
        &self,
        files: &[ShardFile<'_>],
        p0: Point,
        diameter: f64,
        sigma_fraction: f64,
    ) -> Result<MaxCrsResult> {
        let candidates = candidate_points(p0, diameter, sigma_fraction);
        let mut totals = vec![0.0f64; candidates.len()];
        for &(ctx, file) in files {
            let sums = evaluate_candidates(ctx, file, &candidates, diameter)?;
            for (t, s) in totals.iter_mut().zip(sums) {
                *t += s;
            }
        }
        Ok(best_candidate(&candidates, &totals))
    }

    /// Greedy top-k suppression rounds, sharded: the per-round filter runs on
    /// each shard's file (preserving per-shard x-order and the shard routing
    /// itself), the per-round MaxRS is the full sharded pipeline — the same
    /// rounds as the unsharded executor, shard-parallel.
    fn top_k_rounds(
        &self,
        files: &[ShardFile<'_>],
        size: RectSize,
        max_k: usize,
        first_best: MaxRsResult,
    ) -> Result<Vec<MaxRsResult>> {
        let mut results = Vec::with_capacity(max_k.min(self.len as usize));
        let mut current: Option<Vec<TupleFile<ObjectRecord>>> = None;
        let outcome =
            self.top_k_rounds_inner(files, size, max_k, first_best, &mut results, &mut current);
        // The last suppression files are temporaries either way.
        if let Some(fs) = current.take() {
            for (&(ctx, _), f) in files.iter().zip(fs) {
                let _ = ctx.delete_file(f);
            }
        }
        outcome.map(|()| results)
    }

    fn top_k_rounds_inner(
        &self,
        files: &[ShardFile<'_>],
        size: RectSize,
        max_k: usize,
        first_best: MaxRsResult,
        results: &mut Vec<MaxRsResult>,
        current: &mut Option<Vec<TupleFile<ObjectRecord>>>,
    ) -> Result<()> {
        for round in 0..max_k {
            let remaining: Vec<ShardFile<'_>> = match current {
                Some(fs) => files
                    .iter()
                    .zip(fs.iter())
                    .map(|(&(ctx, _), f)| (ctx, f))
                    .collect(),
                None => files.to_vec(),
            };
            if remaining.iter().all(|(_, f)| f.is_empty()) {
                break;
            }
            let best = if round == 0 {
                first_best
            } else {
                self.sharded_max_rs(&remaining, size)?
            };
            if best.total_weight <= 0.0 {
                break;
            }
            let chosen = Rect::centered_at(best.center, size);
            let mut next = Vec::with_capacity(files.len());
            for &(ctx, f) in &remaining {
                next.push(ctx.filter_map_file(f, |rec: ObjectRecord| {
                    if chosen.contains_open(&rec.0.point) {
                        None
                    } else {
                        Some(rec)
                    }
                })?);
            }
            if let Some(fs) = current.take() {
                for (&(ctx, _), f) in files.iter().zip(fs) {
                    ctx.delete_file(f)?;
                }
            }
            *current = Some(next);
            results.push(best);
        }
        Ok(())
    }

    /// The MinRS group, sharded: one weight-negated pass with the domain
    /// x-slab as root (only the shards it touches participate), then the
    /// same per-member strip scans and canonical finalization as the batch
    /// executor.
    fn run_min_rs_group(
        &self,
        files: &[ShardFile<'_>],
        size: RectSize,
        slab: Interval,
        members: &[usize],
        batch: &QueryBatch,
    ) -> Result<Vec<MemberOut>> {
        let queries = batch.queries();
        let domain_of = |i: usize| match queries[i] {
            Query::MinRs { domain, .. } => domain,
            _ => unreachable!("MinRS groups hold MinRS queries"),
        };
        if self.len == 0 {
            return Ok(members
                .iter()
                .map(|&i| {
                    let domain = domain_of(i);
                    MemberOut {
                        index: i,
                        answer: QueryAnswer::MinRs(MaxRsResult {
                            center: domain.center(),
                            total_weight: 0.0,
                            region: domain,
                        }),
                        io: IoSnapshot::default(),
                    }
                })
                .collect());
        }

        let (slab_file, shared_io) =
            self.measured(|| self.sharded_slab_file(files, size, -1.0, slab))?;

        let mut scans: Vec<(usize, Option<MinStrip>, IoSnapshot)> =
            Vec::with_capacity(members.len());
        let mut scan_err = None;
        for &i in members {
            let domain = domain_of(i);
            let scanned = self.measured(|| {
                let mut reader = self.merge_ctx.open_reader(&slab_file);
                let tuples = std::iter::from_fn(|| match reader.next_record() {
                    Ok(Some(t)) => Some(Ok(t)),
                    Ok(None) => None,
                    Err(e) => Some(Err(e.into())),
                });
                min_strip_scan(tuples, slab, domain)
            });
            match scanned {
                Ok((best, io)) => scans.push((i, best, io)),
                Err(e) => {
                    scan_err = Some(e);
                    break;
                }
            }
        }
        self.merge_ctx.delete_file(slab_file)?;
        if let Some(e) = scan_err {
            return Err(e);
        }

        let mut out = Vec::with_capacity(scans.len());
        let mut shared_io = Some(shared_io);
        for (i, best, scan_io) in scans {
            let domain = domain_of(i);
            let (result, finalize_io) =
                self.measured(|| self.finalize_min_rs(files, size, slab, domain, best))?;
            out.push(MemberOut {
                index: i,
                answer: QueryAnswer::MinRs(result),
                io: scan_io + finalize_io + shared_io.take().unwrap_or_default(),
            });
        }
        Ok(out)
    }

    /// The sharded mirror of the batch executor's MinRS finalization, with
    /// the breakpoint widening taking the minimum over the shards.
    fn finalize_min_rs(
        &self,
        files: &[ShardFile<'_>],
        size: RectSize,
        slab: Interval,
        domain: Rect,
        best: Option<MinStrip>,
    ) -> Result<MaxRsResult> {
        match best {
            None => {
                // Defensive mirror of the in-memory fallback: evaluate the
                // domain center directly with one scan per shard.
                let center = domain.center();
                let query_rect = Rect::centered_at(center, size);
                let mut total = 0.0;
                for &(ctx, file) in files {
                    let mut reader = ctx.open_reader(file);
                    while let Some(rec) = reader.next_record()? {
                        if query_rect.contains_open(&rec.0.point) {
                            total += rec.0.weight;
                        }
                    }
                }
                Ok(MaxRsResult {
                    center,
                    total_weight: total,
                    region: domain,
                })
            }
            Some((negated_sum, x, y, from_tuple)) => {
                let x = if from_tuple {
                    let mut hi = f64::INFINITY;
                    for &(ctx, file) in files {
                        hi = hi.min(next_breakpoint_after(ctx, file, size, slab, x.lo)?);
                    }
                    Interval::new(x.lo, hi)
                } else {
                    x
                };
                let center = Point::new(
                    x.representative().clamp(domain.x_lo, domain.x_hi),
                    y.representative().clamp(domain.y_lo, domain.y_hi),
                );
                Ok(MaxRsResult {
                    center,
                    // `0.0 - x` so an uncovered minimum reports +0.0 (mirrors
                    // `min_rs_in_memory`).
                    total_weight: 0.0 - negated_sum,
                    region: Rect::new(x.lo, x.hi, y.lo, y.hi),
                })
            }
        }
    }

    /// Degenerate-domain MinRS: concatenate the shards' records in shard
    /// (= x) order and delegate to the in-memory reference, exactly like the
    /// unsharded executor's one-scan delegate.
    fn run_degenerate_min_rs(
        &self,
        files: &[ShardFile<'_>],
        index: usize,
        batch: &QueryBatch,
    ) -> Result<Vec<MemberOut>> {
        let (size, domain) = match batch.queries()[index] {
            Query::MinRs { size, domain } => (size, domain),
            _ => unreachable!("degenerate groups hold MinRS queries"),
        };
        let (answer, io) = self.measured(|| {
            if self.len == 0 {
                return Ok(MaxRsResult {
                    center: domain.center(),
                    total_weight: 0.0,
                    region: domain,
                });
            }
            let mut points: Vec<WeightedPoint> = Vec::with_capacity(self.len as usize);
            for &(ctx, file) in files {
                let records = ctx.read_all(file)?;
                points.extend(records.iter().map(|r| r.0));
            }
            Ok(min_rs_in_memory(&points, size, domain))
        })?;
        Ok(vec![MemberOut {
            index,
            answer: QueryAnswer::MinRs(answer),
            io,
        }])
    }
}

/// Lazily opens the piece writer of global slab `t` on its owner's device.
fn push_piece<'a>(
    files: &[ShardFile<'a>],
    owners: &[usize],
    writers: &mut [Option<TupleWriter<'a, RectRecord>>],
    t: usize,
    record: &RectRecord,
) -> Result<()> {
    let writer = match writers[t].as_mut() {
        Some(w) => w,
        None => {
            let w = files[owners[t]].0.create_writer::<RectRecord>()?;
            writers[t].insert(w)
        }
    };
    writer.push(record)?;
    Ok(())
}

/// Builds one shard of a [`ShardedDataset`], resolving its directory from
/// the layout's round-robin assignment.
fn build_shard(
    opts: EngineOptions,
    layout: &ShardLayout,
    index: usize,
    objects: &[WeightedPoint],
) -> Result<(PreparedDataset<'static>, IoSnapshot)> {
    let dir = if layout.directories.is_empty() {
        None
    } else {
        Some(layout.directories[index % layout.directories.len()].as_path())
    };
    prepare_shard(opts, dir, objects)
}

/// Prepares one shard on its own context (optionally on a dedicated
/// directory): load, external x-sort, flush — the per-shard body of
/// [`MaxRsEngine::prepare`], measured identically (loading excluded).  The
/// shard is always stored externally, so its
/// [`external_parts`](PreparedDataset::external_parts) are available to
/// sweep machinery spanning several shards — this is the building block both
/// [`ShardedDataset`] and the remote shard servers of `maxrs-cluster` build
/// their shards with.
pub fn prepare_shard(
    opts: EngineOptions,
    directory: Option<&std::path::Path>,
    objects: &[WeightedPoint],
) -> Result<(PreparedDataset<'static>, IoSnapshot)> {
    let ctx = match directory {
        None => Box::new(EmContext::new(opts.em_config)),
        Some(dir) => {
            let disk = FsDisk::new_in(dir, opts.em_config.block_size)?;
            Box::new(EmContext::with_device(opts.em_config, Box::new(disk)))
        }
    };
    let raw = load_objects(&ctx, objects)?;
    let before = ctx.stats();
    let sorted = sort_objects_by_x(&ctx, &raw)?;
    ctx.delete_file(raw)?;
    ctx.flush_file(&sorted)?;
    let prepare_io = ctx.stats().since(&before);
    Ok((
        PreparedDataset::from_sorted_owned(opts, ctx, sorted, prepare_io),
        prepare_io,
    ))
}

/// The x-interval shard `i` owns, given the interior boundaries: shard 0
/// owns `(-∞, b₁)`, the last shard `[b_{K-1}, +∞)`, and objects exactly on a
/// boundary belong to the shard on its right (mirroring
/// [`SlabPartition::locate`]).
pub fn shard_slab(boundaries: &[f64], i: usize) -> Interval {
    let lo = if i == 0 {
        f64::NEG_INFINITY
    } else {
        boundaries[i - 1]
    };
    let hi = if i == boundaries.len() {
        f64::INFINITY
    } else {
        boundaries[i]
    };
    Interval::new(lo, hi)
}

/// Picks up to `k - 1` strictly increasing interior boundaries from the
/// x-quantiles of a deterministic sample, so the shards hold roughly equal
/// object counts even on skewed inputs.  Datasets within the sampling cap
/// are quantiled exactly; larger ones go through the same xorshift reservoir
/// idiom as [`compute_partition`](crate::slab::compute_partition), so the
/// result is a pure function of the input.  Shared by [`ShardedDataset`] and
/// the cluster layer, so a remote partition splits exactly like a local one.
pub fn select_shard_boundaries(objects: &[WeightedPoint], k: usize, sample_cap: usize) -> Vec<f64> {
    if k <= 1 || objects.len() < 2 {
        return Vec::new();
    }
    let cap = sample_cap.max(k * 4);
    let mut sample: Vec<f64> = if objects.len() <= cap {
        objects.iter().map(|o| o.point.x).collect()
    } else {
        let mut state =
            0x9E3779B97F4A7C15u64 ^ (objects.len() as u64).wrapping_mul(0x2545F4914F6CDD1D);
        let mut next_rand = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut sample = Vec::with_capacity(cap);
        for (seen, o) in objects.iter().enumerate() {
            if sample.len() < cap {
                sample.push(o.point.x);
            } else {
                let j = (next_rand() % (seen as u64 + 1)) as usize;
                if j < cap {
                    sample[j] = o.point.x;
                }
            }
        }
        sample
    };
    sample.sort_unstable_by(f64::total_cmp);
    let len = sample.len();
    // Quantile boundaries, deduplicated to a strictly increasing run; a
    // boundary at the global minimum would leave an empty leading shard
    // (objects at a boundary go right), so `last` starts there.
    let mut boundaries = Vec::with_capacity(k - 1);
    let mut last = sample[0];
    for i in 1..k {
        let b = sample[(i * len / k).min(len - 1)];
        if b > last {
            boundaries.push(b);
            last = b;
        }
    }
    boundaries
}

#[cfg(test)]
mod tests {
    use super::*;
    use maxrs_em::EmConfig;

    fn small_engine() -> MaxRsEngine {
        MaxRsEngine::with_options(EngineOptions {
            em_config: EmConfig::new(512, 32 * 512).unwrap(),
            exact: ExactMaxRsOptions::default(),
            force_strategy: None,
        })
    }

    fn grid_objects(n: usize) -> Vec<WeightedPoint> {
        (0..n)
            .map(|i| WeightedPoint::unit((i % 97) as f64 * 3.0, (i / 97) as f64 * 2.0))
            .collect()
    }

    fn ratio(lens: &[u64]) -> f64 {
        let max = *lens.iter().max().unwrap() as f64;
        let min = *lens.iter().min().unwrap() as f64;
        max / min.max(1.0)
    }

    #[test]
    fn boundaries_balance_clustered_input() {
        // Three tight clusters of very different mass: equal-width splits
        // would starve two shards; quantile splits keep counts balanced.
        let objects = maxrs_datagen::clustered(6_000, 1_000.0, 11);
        let engine = small_engine();
        let layout = ShardLayout::new(4).with_boundary_sample(16_384);
        let sharded = engine.prepare_sharded(&objects, &layout).unwrap();
        assert_eq!(sharded.num_shards(), 4);
        let lens = sharded.shard_lens();
        assert_eq!(lens.iter().sum::<u64>(), 6_000);
        assert!(
            ratio(&lens) <= 1.5,
            "clustered split unbalanced: {lens:?} (ratio {})",
            ratio(&lens)
        );
    }

    #[test]
    fn boundaries_balance_zipf_input() {
        let objects = maxrs_datagen::zipf_x(6_000, 1_000.0, 1.1, 13);
        let engine = small_engine();
        let layout = ShardLayout::new(4).with_boundary_sample(16_384);
        let sharded = engine.prepare_sharded(&objects, &layout).unwrap();
        let lens = sharded.shard_lens();
        assert_eq!(lens.iter().sum::<u64>(), 6_000);
        // Zipf x has heavy duplicate mass at the hot values; everything that
        // shares an x must share a shard, so allow a looser bound.
        assert!(
            sharded.num_shards() >= 2,
            "zipf input should still split: {lens:?}"
        );
        assert!(
            ratio(&lens) <= 4.0,
            "zipf split unbalanced: {lens:?} (ratio {})",
            ratio(&lens)
        );
    }

    #[test]
    fn all_equal_x_collapses_to_one_shard() {
        let objects: Vec<WeightedPoint> = (0..500)
            .map(|i| WeightedPoint::unit(42.0, i as f64))
            .collect();
        let sharded = small_engine()
            .prepare_sharded(&objects, &ShardLayout::new(8))
            .unwrap();
        assert_eq!(sharded.num_shards(), 1);
        assert_eq!(sharded.shard_lens(), vec![500]);
        assert!(sharded.boundaries().is_empty());
    }

    #[test]
    fn fewer_objects_than_shards() {
        let objects = vec![
            WeightedPoint::unit(1.0, 0.0),
            WeightedPoint::unit(2.0, 0.0),
            WeightedPoint::unit(3.0, 0.0),
        ];
        let sharded = small_engine()
            .prepare_sharded(&objects, &ShardLayout::new(16))
            .unwrap();
        assert!(sharded.num_shards() <= 3, "{} shards", sharded.num_shards());
        assert_eq!(sharded.len(), 3);
        assert_eq!(sharded.shard_lens().iter().sum::<u64>(), 3);
    }

    #[test]
    fn k1_layout_matches_unsharded_answers() {
        let objects = grid_objects(1_500);
        let engine = small_engine();
        let sharded = engine
            .prepare_sharded(&objects, &ShardLayout::new(1))
            .unwrap();
        assert_eq!(sharded.num_shards(), 1);
        let prepared = engine.prepare(&objects).unwrap();
        let query = Query::max_rs(RectSize::square(10.0));
        assert_eq!(
            sharded.run(&query).unwrap().answer,
            prepared.run(&query).unwrap().answer
        );
    }

    #[test]
    fn empty_dataset_answers_all_variants() {
        let sharded = small_engine()
            .prepare_sharded(&[], &ShardLayout::new(4))
            .unwrap();
        assert!(sharded.is_empty());
        assert_eq!(sharded.num_shards(), 1);
        let domain = Rect::new(0.0, 10.0, 0.0, 10.0);
        let runs = sharded
            .run_batch(&[
                Query::max_rs(RectSize::square(2.0)),
                Query::top_k(RectSize::square(2.0), 3),
                Query::min_rs(RectSize::square(2.0), domain),
                Query::approx_max_crs(2.0),
            ])
            .unwrap();
        assert_eq!(runs[0].answer, QueryAnswer::MaxRs(MaxRsResult::empty()));
        assert_eq!(runs[1].answer, QueryAnswer::TopK(Vec::new()));
        assert_eq!(runs[2].answer.as_max_rs().unwrap().center, domain.center());
        assert_eq!(runs[3].answer, QueryAnswer::MaxCrs(MaxCrsResult::empty()));
    }

    #[test]
    fn shards_touched_routes_min_rs_by_domain() {
        let objects = grid_objects(4_000);
        let sharded = small_engine()
            .prepare_sharded(&objects, &ShardLayout::new(4))
            .unwrap();
        assert_eq!(sharded.num_shards(), 4);
        // Unbounded-root variants touch every shard.
        assert_eq!(
            sharded.shards_touched(&Query::max_rs(RectSize::square(4.0))),
            4
        );
        // A narrow MinRS domain reaches only the shards near it.
        let narrow = Rect::new(0.0, 1.0, 0.0, 50.0);
        let touched = sharded.shards_touched(&Query::min_rs(RectSize::square(4.0), narrow));
        assert!(touched < 4, "narrow domain touched all {touched} shards");
        assert!(touched >= 1);
    }

    #[test]
    fn directories_layout_puts_shards_on_fs_devices() {
        let tmp = std::env::temp_dir().join(format!(
            "maxrs-shard-test-{}-{}",
            std::process::id(),
            line!()
        ));
        let objects = grid_objects(1_200);
        let engine = small_engine();
        let layout = ShardLayout::new(2).with_directories(vec![tmp.clone()]);
        let sharded = engine.prepare_sharded(&objects, &layout).unwrap();
        assert_eq!(sharded.backend_name(), "fs");
        assert!(tmp.exists(), "shard directory was not created");
        let query = Query::max_rs(RectSize::square(9.0));
        let prepared = engine.prepare(&objects).unwrap();
        assert_eq!(
            sharded.run(&query).unwrap().answer,
            prepared.run(&query).unwrap().answer
        );
        drop(sharded);
        let _ = std::fs::remove_dir_all(&tmp);
    }
}
