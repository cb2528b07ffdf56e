//! Batched multi-query execution: answer M queries in shared sweep passes,
//! wherever the data lives.
//!
//! A serving workload rarely asks one question of a dataset — it asks many:
//! MaxRS at a few rectangle sizes, top-k follow-ups, a MinRS sanity check, a
//! circular variant.  Per-query execution pays one full distribution sweep
//! per question even though queries of the *same* rectangle size share their
//! transform, their slab recursion and their winning strip.  [`QueryBatch`]
//! plans a slice of [`Query`]s into **sweep groups** — queries whose answers
//! fall out of one pass — and [`QueryBatch::execute`] runs each group's
//! kernel pass once:
//!
//! * [`Query::MaxRs`], [`Query::TopK`] and [`Query::ApproxMaxCrs`] of one
//!   rectangle size (a circle's MBR is the `d × d` square) share one
//!   positive-weight pass: MaxRS answers *are* the pass's canonical best,
//!   top-k piggybacks its first round on it (later suppression rounds are
//!   shared up to the largest requested `k`), and ApproxMaxCRS refines the
//!   shared centroid with its own 5-candidate scan.  The pass writes no
//!   merged slab-file: its root MergeSweep hands back the best tuple of
//!   each top-level slab ([`SlabBest`]), and the answer is the best of
//!   those.
//! * [`Query::MinRs`] queries sharing a size and a domain x-slab share one
//!   weight-negated pass; each member streams its own domain-clipped strip
//!   scan over the shared slab-file.
//!
//! # Incremental top-k
//!
//! Suppressing a placement centered at `c` removes only objects whose
//! rectangles lie within `(c.x − w, c.x + w)`, `w` the rectangle width, so
//! every slab outside that window keeps its best.  The rounds keep the
//! bests of the first pass as a list of slabs covering the x-axis; each
//! later round re-sweeps only the contiguous run of slabs meeting the
//! window, with that run's union as the pass root, and splices the new
//! bests in.  The round's answer is the best over the whole list,
//! canonicalized by one scan of all objects — so a later round still scans
//! every object, but sweeps only the window.
//!
//! # One executor, three layouts
//!
//! The variant logic above is written once, over the [`SweepSource`] trait:
//! a layout supplies only the per-slab bests of a pass, the merged
//! slab-file of a weight-negated MinRS pass, the next arrangement edges over
//! its data, the candidate sums of ApproxMaxCRS, its objects in x order and
//! its I/O meter.  The single x-sorted file of
//! [`PreparedDataset`](crate::PreparedDataset) and
//! [`DeltaDataset`](crate::DeltaDataset) runs a presorted
//! [`SweepPass`]; [`ShardedDataset`](crate::ShardedDataset) runs its
//! concurrent shard-routed pass; `maxrs-cluster`'s coordinator runs the
//! distribute/solve protocol against its servers.  Top-k suppression has
//! one form everywhere: the list of chosen rectangles, whose interiors
//! every scan of a later round's pass skips — no filtered object file is
//! ever written.
//!
//! On the single file, independent groups execute concurrently on the
//! [`parallel_map`] worker pool; the sharded
//! [`IoStats`](maxrs_em::IoStats) keep the global count exact, and
//! [`measure_thread_io`] attributes each group's transfers to its queries.
//! Answers are **bit-identical** to per-query `run` calls — the per-query
//! path *is* a batch of one, so the single-query and batched code can never
//! diverge.
//!
//! # I/O attribution
//!
//! Each [`QueryRun::io`] reports the query's marginal cost (its exclusive
//! scans and rounds); a group's shared pass is charged to the group's first
//! query in batch order.  Summing the runs therefore reproduces the batch's
//! exact total — nothing is double-counted and nothing is dropped.

use std::collections::HashMap;

use maxrs_em::{measure_thread_io, EmContext, IoSnapshot, TupleFile};
use maxrs_geometry::{Interval, Point, Rect, RectSize, WeightedPoint};

use crate::approx::{best_candidate, candidate_points, evaluate_candidates};
use crate::engine::ExecutionStrategy;
use crate::error::{CoreError, Result};
use crate::exact::ExactMaxRsOptions;
use crate::extensions::{min_rs_in_memory, min_strip_scan, MinStrip};
use crate::merge_sweep::{best_of, SlabBest};
use crate::parallel::parallel_map;
use crate::query::{Query, QueryAnswer, QueryRun};
use crate::records::{ObjectRecord, SlabTuple};
use crate::result::{MaxCrsResult, MaxRsResult};
use crate::sweep::{canonical_result, next_edges_after, SweepPass};

/// A validated slice of queries planned into shared sweep groups.
///
/// Construction validates every query (the batch analogue of
/// [`Query::validate`]) and groups them by *sweep key*: the transform size
/// plus, for MinRS, the weight negation and the domain x-slab.  The executor
/// then pays one kernel pass per group instead of one per query.
///
/// ```
/// use maxrs_core::{Query, QueryBatch};
/// use maxrs_geometry::{Rect, RectSize};
///
/// let size = RectSize::square(10.0);
/// let batch = QueryBatch::new(&[
///     Query::max_rs(size),
///     Query::top_k(size, 3),
///     Query::approx_max_crs(10.0),              // MBR = the same 10 x 10 square
///     Query::min_rs(size, Rect::new(0.0, 50.0, 0.0, 50.0)),
/// ])
/// .unwrap();
/// // Three variants share one sweep; MinRS needs its own negated pass.
/// assert_eq!(batch.len(), 4);
/// assert_eq!(batch.num_groups(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct QueryBatch {
    queries: Vec<Query>,
    groups: Vec<SweepGroup>,
}

/// One shared pass and the batch positions it answers.
#[derive(Debug, Clone)]
struct SweepGroup {
    kind: GroupKind,
    /// Indices into the batch's query list, in batch order.
    members: Vec<usize>,
}

#[derive(Debug, Clone)]
enum GroupKind {
    /// Positive-weight pass over the unbounded root: MaxRS, top-k and
    /// ApproxMaxCRS of one rectangle size.
    Shared { size: RectSize },
    /// Weight-negated pass over a domain x-slab: MinRS queries sharing a
    /// size and an x-slab (their y-domains may differ).
    MinRs { size: RectSize, slab: Interval },
    /// A degenerate-domain MinRS (point or segment of admissible centers),
    /// answered by the in-memory delegate; always a singleton group.
    DegenerateMinRs,
}

/// Hashable sweep key (f64 bit patterns; validation has rejected NaN).
type SweepKey = (u8, u64, u64, u64, u64);

impl QueryBatch {
    /// Validates every query and plans the batch into sweep groups.
    ///
    /// Returns the first query's validation error, if any; an empty slice is
    /// a valid (empty) batch.
    pub fn new(queries: &[Query]) -> Result<Self> {
        let mut groups: Vec<SweepGroup> = Vec::new();
        let mut by_key: HashMap<SweepKey, usize> = HashMap::new();
        for (i, query) in queries.iter().enumerate() {
            query.validate()?;
            let (key, kind) = match *query {
                Query::MaxRs { size } | Query::TopK { size, .. } => (
                    Some((0u8, size.width.to_bits(), size.height.to_bits(), 0, 0)),
                    GroupKind::Shared { size },
                ),
                Query::ApproxMaxCrs { diameter, .. } => {
                    let size = RectSize::square(diameter);
                    (
                        Some((0u8, size.width.to_bits(), size.height.to_bits(), 0, 0)),
                        GroupKind::Shared { size },
                    )
                }
                Query::MinRs { size, domain } => {
                    if domain.x_lo == domain.x_hi || domain.y_lo == domain.y_hi {
                        (None, GroupKind::DegenerateMinRs)
                    } else {
                        let slab = Interval::new(domain.x_lo, domain.x_hi);
                        (
                            Some((
                                1u8,
                                size.width.to_bits(),
                                size.height.to_bits(),
                                slab.lo.to_bits(),
                                slab.hi.to_bits(),
                            )),
                            GroupKind::MinRs { size, slab },
                        )
                    }
                }
            };
            match key.and_then(|k| by_key.get(&k).copied()) {
                Some(g) => groups[g].members.push(i),
                None => {
                    if let Some(k) = key {
                        by_key.insert(k, groups.len());
                    }
                    groups.push(SweepGroup {
                        kind,
                        members: vec![i],
                    });
                }
            }
        }
        Ok(QueryBatch {
            queries: queries.to_vec(),
            groups,
        })
    }

    /// The queries of the batch, in input order.
    pub fn queries(&self) -> &[Query] {
        &self.queries
    }

    /// Number of queries in the batch.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// `true` when the batch holds no queries.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// Number of sweep groups — the number of kernel passes the executor will
    /// pay.  `num_groups() < len()` is the amortization a batch exists for.
    pub fn num_groups(&self) -> usize {
        self.groups.len()
    }
}

/// Where the data of a batch lives: the few pieces of a sweep pass that
/// depend on the storage layout, and nothing else.
///
/// [`QueryBatch::execute`] writes every query variant once over this trait
/// — the shared MaxRS / top-k / ApproxMaxCRS group with its incremental
/// top-k rounds, the MinRS group, the degenerate-MinRS delegate, the one
/// answer rule over per-slab bests, canonicalization and leader I/O
/// attribution.  Three layouts implement it: one x-sorted object file
/// ([`PreparedDataset`](crate::PreparedDataset) and
/// [`DeltaDataset`](crate::DeltaDataset)), the in-process shards of a
/// [`ShardedDataset`](crate::ShardedDataset), and the remote shard servers
/// behind `maxrs-cluster`'s coordinator.
///
/// Every method that scans objects in x order must accumulate floats in
/// that order (x order is shard order for sharded layouts), which is what
/// keeps the answers bit-identical across layouts.
pub trait SweepSource: Sync {
    /// The error of the layout's operations.
    type Error: From<CoreError> + Send;

    /// The context merged slab-files live on: the executor scans them there
    /// and deletes them there.
    fn merge_ctx(&self) -> &EmContext;

    /// Number of objects in the dataset.
    fn num_objects(&self) -> u64;

    /// The per-slab bests of one positive-weight pass: every unsuppressed
    /// object whose `size` rectangle meets the x-slab `root`, swept over
    /// `root`, and the root's MergeSweep reduced to the best tuple of each
    /// top-level slab ([`SlabBest`], in x order, covering `root`).  No merged
    /// slab-file is written.
    fn slab_bests(
        &self,
        size: RectSize,
        root: Interval,
        suppressed: &[Rect],
    ) -> std::result::Result<Vec<SlabBest>, Self::Error>;

    /// The merged root slab-file of one MinRS pass on [`merge_ctx`], which
    /// the members' strip scans read: every object transformed to a `size`
    /// rectangle with its weight negated, swept over the x-slab `root`.
    ///
    /// [`merge_ctx`]: SweepSource::merge_ctx
    fn negated_slab_file(
        &self,
        size: RectSize,
        root: Interval,
    ) -> std::result::Result<TupleFile<SlabTuple>, Self::Error>;

    /// The minimum over the data of [`next_edges_after`], in each
    /// direction: the next x-breakpoint and the next y-edge after `after`.
    fn next_edges(
        &self,
        size: RectSize,
        root: Interval,
        after: Point,
        suppressed: &[Rect],
    ) -> std::result::Result<(f64, f64), Self::Error>;

    /// The open-disk weight sum of every candidate
    /// ([`evaluate_candidates`]),
    /// summed in x order.
    fn candidate_sums(
        &self,
        candidates: &[Point],
        diameter: f64,
    ) -> std::result::Result<Vec<f64>, Self::Error>;

    /// Every object, in x order.
    fn objects(&self) -> std::result::Result<Vec<WeightedPoint>, Self::Error>;

    /// The layout's I/O meter: blocks moved so far, over every device a
    /// pass touches.
    fn io(&self) -> IoSnapshot;

    /// How many sweep groups may run at once.  Above 1, groups share the
    /// [`parallel_map`] pool and meter their I/O per thread, so every pass
    /// must then run on the calling thread.
    fn group_workers(&self) -> usize;

    /// The worker count every run of a batch reports; above 1 the runs
    /// report [`ExecutionStrategy::ExternalParallel`].
    fn workers(&self) -> usize;
}

impl QueryBatch {
    /// Answers the batch over `source`: one pass per sweep group, groups
    /// concurrent when the source allows it.  Runs come back in query order;
    /// each reports I/O under the leader-attribution rule (module docs).
    pub fn execute<S: SweepSource>(
        &self,
        source: &S,
    ) -> std::result::Result<Vec<QueryRun>, S::Error> {
        let group_workers = source.group_workers().min(self.groups.len());
        let exec = Executor {
            source,
            batch: self,
            meter: if group_workers > 1 {
                Meter::ThreadLocal
            } else {
                Meter::GlobalDelta
            },
        };
        // `parallel_map` runs the groups in order on this thread when
        // `group_workers` is 1.
        let outcomes = parallel_map(group_workers, self.groups.iter().collect(), |_, group| {
            exec.run_group(group)
        });

        let workers = source.workers();
        let strategy = if workers > 1 {
            ExecutionStrategy::ExternalParallel
        } else {
            ExecutionStrategy::ExternalSequential
        };
        let mut runs: Vec<Option<QueryRun>> = self.queries.iter().map(|_| None).collect();
        for outcome in outcomes {
            for m in outcome? {
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
}

/// One member's outcome: the answer plus the I/O attributed to it.
struct MemberOut {
    index: usize,
    answer: QueryAnswer,
    io: IoSnapshot,
}

/// How group phases measure their I/O: the source's meter when groups run
/// one after another, per-thread meters when groups share the worker pool.
#[derive(Clone, Copy)]
enum Meter {
    GlobalDelta,
    ThreadLocal,
}

/// The variant layer: runs one batch's groups over a [`SweepSource`].
struct Executor<'s, S> {
    source: &'s S,
    batch: &'s QueryBatch,
    meter: Meter,
}

type Res<T, S> = std::result::Result<T, <S as SweepSource>::Error>;

impl<S: SweepSource> Executor<'_, S> {
    fn measured<R>(&self, f: impl FnOnce() -> Res<R, S>) -> Res<(R, IoSnapshot), S> {
        match self.meter {
            Meter::ThreadLocal => {
                let (out, io) = measure_thread_io(f);
                Ok((out?, io))
            }
            Meter::GlobalDelta => {
                let before = self.source.io();
                let out = f()?;
                Ok((out, self.source.io().delta(&before)))
            }
        }
    }

    fn run_group(&self, group: &SweepGroup) -> Res<Vec<MemberOut>, S> {
        match group.kind {
            GroupKind::Shared { size } => self.run_shared_group(size, &group.members),
            GroupKind::MinRs { size, slab } => self.run_min_rs_group(size, slab, &group.members),
            GroupKind::DegenerateMinRs => self.run_degenerate_min_rs(group.members[0]),
        }
    }

    /// The answer rule, one for every layout: the best of the per-slab
    /// `bests` (greatest sum, then lowest y, then leftmost slab — the tuple
    /// `extract_best` finds in a merged slab-file), canonicalized by the
    /// next edges over all unsuppressed objects (see `crate::sweep`).
    fn answer(
        &self,
        size: RectSize,
        bests: &[SlabBest],
        suppressed: &[Rect],
    ) -> Res<MaxRsResult, S> {
        canonical_result(best_of(bests), |corner| {
            self.source
                .next_edges(size, Interval::UNBOUNDED, corner, suppressed)
        })
    }

    /// The positive-weight group: one MaxRS kernel pass shared by every
    /// member.
    fn run_shared_group(&self, size: RectSize, members: &[usize]) -> Res<Vec<MemberOut>, S> {
        let queries = &self.batch.queries;
        // Top-k rounds are shared up to the largest requested k; a batch of
        // only `k = 0` top-k queries (and nothing else) never needs the pass.
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
        if !needs_pass || self.source.num_objects() == 0 {
            // Mirror the per-query empty/trivial answers at zero I/O.
            return Ok(members
                .iter()
                .map(|&i| MemberOut {
                    index: i,
                    answer: match queries[i] {
                        Query::MaxRs { .. } => QueryAnswer::MaxRs(MaxRsResult::empty()),
                        Query::TopK { .. } => QueryAnswer::TopK(Vec::new()),
                        Query::ApproxMaxCrs { .. } => QueryAnswer::MaxCrs(MaxCrsResult::empty()),
                        Query::MinRs { .. } => unreachable!("MinRS plans into its own group"),
                    },
                    io: IoSnapshot::default(),
                })
                .collect());
        }

        // The shared phase: one pass over the unbounded root, charged to the
        // leader.
        let ((best, bests), shared_io) = self.measured(|| {
            let bests = self.source.slab_bests(size, Interval::UNBOUNDED, &[])?;
            Ok((self.answer(size, &bests, &[])?, bests))
        })?;
        // Shared top-k suppression rounds (round 1 is the shared best).
        let (rounds, rounds_io) = match max_k {
            Some(max_k) if max_k > 0 => {
                self.measured(|| self.top_k_rounds(size, max_k, best, bests))?
            }
            _ => (Vec::new(), IoSnapshot::default()),
        };

        let mut out = Vec::with_capacity(members.len());
        let mut shared_io = Some(shared_io);
        let mut rounds_io = Some(rounds_io);
        for &i in members {
            let (answer, io) = match queries[i] {
                Query::MaxRs { .. } => (QueryAnswer::MaxRs(best), IoSnapshot::default()),
                Query::TopK { k, .. } => (
                    QueryAnswer::TopK(rounds[..k.min(rounds.len())].to_vec()),
                    // The shared rounds are charged to the first top-k member.
                    rounds_io.take().unwrap_or_default(),
                ),
                Query::ApproxMaxCrs { diameter, .. } => {
                    // Steps 2–3 of ApproxMaxCRS on the shared centroid.
                    let sigma = queries[i]
                        .sigma_fraction()
                        .expect("approx variant has a sigma");
                    let candidates = candidate_points(best.center, diameter, sigma);
                    let (sums, refine_io) =
                        self.measured(|| self.source.candidate_sums(&candidates, diameter))?;
                    (
                        QueryAnswer::MaxCrs(best_candidate(&candidates, &sums)),
                        refine_io,
                    )
                }
                Query::MinRs { .. } => unreachable!("MinRS plans into its own group"),
            };
            out.push(MemberOut {
                index: i,
                answer,
                // The pass itself is charged to the group's first query.
                io: io + shared_io.take().unwrap_or_default(),
            });
        }
        Ok(out)
    }

    /// Greedy MaxkRS suppression rounds, round 1 supplied by the group's
    /// shared pass together with its per-slab `bests`.
    ///
    /// Each further round solves MaxRS over the objects outside every
    /// placement chosen so far: the rounds' passes skip them in their scans
    /// ([`SweepPass::with_suppressed`]) — the external analogue of
    /// [`max_k_rs_in_memory`](crate::extensions::max_k_rs_in_memory)'s
    /// `retain`, with the same answers, because canonical max-regions make
    /// every round's center layout-independent.  Only the slabs within one
    /// rectangle width of the last center are re-swept (module docs,
    /// "Incremental top-k").  Rounds do not depend on `k`, so one shared
    /// sequence serves every top-k member (each takes its prefix).
    fn top_k_rounds(
        &self,
        size: RectSize,
        max_k: usize,
        first_best: MaxRsResult,
        mut bests: Vec<SlabBest>,
    ) -> Res<Vec<MaxRsResult>, S> {
        // At most one placement per object exists, so a huge k must not
        // pre-allocate k slots (mirrors `max_k_rs_in_memory`).
        let mut results = Vec::with_capacity(max_k.min(self.source.num_objects() as usize));
        let mut suppressed: Vec<Rect> = Vec::new();
        let mut best = first_best;
        for round in 0..max_k {
            if round > 0 {
                // The slabs `lo..hi` meet the window `[c.x - w, c.x + w]`;
                // the bests cover the x-axis in order, so the run is
                // contiguous and never empty.
                let c = best.center;
                let lo = bests.partition_point(|b| b.slab.hi < c.x - size.width);
                let hi = bests.partition_point(|b| b.slab.lo <= c.x + size.width);
                let root = Interval::new(bests[lo].slab.lo, bests[hi - 1].slab.hi);
                let fresh = self.source.slab_bests(size, root, &suppressed)?;
                bests.splice(lo..hi, fresh);
                best = self.answer(size, &bests, &suppressed)?;
            }
            if best.total_weight <= 0.0 {
                break;
            }
            suppressed.push(Rect::centered_at(best.center, size));
            results.push(best);
        }
        Ok(results)
    }

    /// The MinRS group: one weight-negated kernel pass over the shared
    /// domain x-slab, then one domain-clipped strip scan per member —
    /// streamed over the shared slab-file, exactly the scan
    /// [`min_rs_in_memory`](crate::extensions::min_rs_in_memory) performs
    /// over its in-memory tuple list.
    fn run_min_rs_group(
        &self,
        size: RectSize,
        slab: Interval,
        members: &[usize],
    ) -> Res<Vec<MemberOut>, S> {
        let queries = &self.batch.queries;
        let domain_of = |i: usize| match queries[i] {
            Query::MinRs { domain, .. } => domain,
            _ => unreachable!("MinRS groups hold MinRS queries"),
        };
        if self.source.num_objects() == 0 {
            return Ok(members
                .iter()
                .map(|&i| MemberOut {
                    index: i,
                    answer: QueryAnswer::MinRs(uncovered(domain_of(i))),
                    io: IoSnapshot::default(),
                })
                .collect());
        }

        let ctx = self.source.merge_ctx();
        // The shared phase — negated transform + sweep — charged to the
        // leader.
        let (slab_file, shared_io) = self.measured(|| self.source.negated_slab_file(size, slab))?;

        // Per-member strip scans over the shared slab-file.
        let mut scans: Vec<(usize, Option<MinStrip>, IoSnapshot)> =
            Vec::with_capacity(members.len());
        let mut scan_err = None;
        for &i in members {
            let scanned = self.measured(|| {
                let mut reader = ctx.open_reader(&slab_file);
                let tuples = std::iter::from_fn(|| match reader.next_record() {
                    Ok(Some(t)) => Some(Ok(t)),
                    Ok(None) => None,
                    Err(e) => Some(Err(e.into())),
                });
                Ok(min_strip_scan(tuples, slab, domain_of(i))?)
            });
            match scanned {
                Ok((best, io)) => scans.push((i, best, io)),
                Err(e) => {
                    scan_err = Some(e);
                    break;
                }
            }
        }
        // Delete the slab file before propagating a scan error so a failed
        // query leaves no orphans on a long-lived context.
        ctx.delete_file(slab_file).map_err(CoreError::from)?;
        if let Some(e) = scan_err {
            return Err(e);
        }

        let mut out = Vec::with_capacity(scans.len());
        let mut shared_io = Some(shared_io);
        for (i, best, scan_io) in scans {
            let (result, finalize_io) =
                self.measured(|| self.finalize_min_rs(size, slab, domain_of(i), best))?;
            out.push(MemberOut {
                index: i,
                answer: QueryAnswer::MinRs(result),
                io: scan_io + finalize_io + shared_io.take().unwrap_or_default(),
            });
        }
        Ok(out)
    }

    /// Converts a member's winning strip into the canonical MinRS answer
    /// (widening sweep cells back to full arrangement cells of the domain
    /// slab).
    fn finalize_min_rs(
        &self,
        size: RectSize,
        slab: Interval,
        domain: Rect,
        best: Option<MinStrip>,
    ) -> Res<MaxRsResult, S> {
        match best {
            None => {
                // Unreachable for a non-degenerate domain (the strips
                // partition the plane, so one of them clips to positive
                // height), but kept as a defensive mirror of the in-memory
                // fallback: evaluate the domain center directly.
                let center = domain.center();
                let query_rect = Rect::centered_at(center, size);
                let total = self
                    .source
                    .objects()?
                    .iter()
                    .filter(|o| query_rect.contains_open(&o.point))
                    .fold(0.0, |acc, o| acc + o.weight);
                Ok(MaxRsResult {
                    center,
                    total_weight: total,
                    region: domain,
                })
            }
            Some((negated_sum, x, y, from_tuple)) => {
                let x = if from_tuple {
                    // Widen the refined cell back to the full arrangement
                    // cell of the domain slab (see `crate::sweep`).
                    let (hi, _) =
                        self.source
                            .next_edges(size, slab, Point::new(x.lo, y.lo), &[])?;
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
                    // `0.0 - x` rather than `-x`: an uncovered minimum is
                    // +0.0, not the confusing "-0" a plain negation would
                    // display (mirrors `min_rs_in_memory`).
                    total_weight: 0.0 - negated_sum,
                    region: Rect::new(x.lo, x.hi, y.lo, y.hi),
                })
            }
        }
    }

    /// A degenerate domain — a point or a segment of admissible centers —
    /// has no positive-area arrangement cell for the sweep to report.
    /// Delegate to the in-memory reference after one scan: its 1D segment
    /// sweep needs the stabbed intervals, whose count the EM model does not
    /// bound by M.  Acceptable for this corner case, and exact parity with
    /// `min_rs_in_memory` by construction.
    fn run_degenerate_min_rs(&self, index: usize) -> Res<Vec<MemberOut>, S> {
        let (size, domain) = match self.batch.queries[index] {
            Query::MinRs { size, domain } => (size, domain),
            _ => unreachable!("degenerate groups hold MinRS queries"),
        };
        let (answer, io) = self.measured(|| {
            if self.source.num_objects() == 0 {
                return Ok(uncovered(domain));
            }
            Ok(min_rs_in_memory(&self.source.objects()?, size, domain))
        })?;
        Ok(vec![MemberOut {
            index,
            answer: QueryAnswer::MinRs(answer),
            io,
        }])
    }
}

/// The MinRS answer over no objects: the domain center, weight 0.
fn uncovered(domain: Rect) -> MaxRsResult {
    MaxRsResult {
        center: domain.center(),
        total_weight: 0.0,
        region: domain,
    }
}

/// One object file **already sorted by x** on one context — the retained
/// file of a [`PreparedDataset`](crate::PreparedDataset), or the merged
/// base + delta stream of a [`DeltaDataset`](crate::DeltaDataset).
struct SortedFile<'a> {
    ctx: &'a EmContext,
    sorted: &'a TupleFile<ObjectRecord>,
    /// Options of every pass; sequential when groups run concurrently.
    opts: ExactMaxRsOptions,
    workers: usize,
    group_workers: usize,
}

impl SweepSource for SortedFile<'_> {
    type Error = CoreError;

    fn merge_ctx(&self) -> &EmContext {
        self.ctx
    }

    fn num_objects(&self) -> u64 {
        self.sorted.len()
    }

    fn slab_bests(
        &self,
        size: RectSize,
        root: Interval,
        suppressed: &[Rect],
    ) -> Result<Vec<SlabBest>> {
        SweepPass::presorted(self.ctx, &self.opts)
            .with_root(root)
            .with_suppressed(suppressed)
            .slab_bests(self.sorted, size)
    }

    fn negated_slab_file(&self, size: RectSize, root: Interval) -> Result<TupleFile<SlabTuple>> {
        SweepPass::presorted(self.ctx, &self.opts)
            .with_weight_scale(-1.0)
            .with_root(root)
            .slab_file(self.sorted, size)
    }

    fn next_edges(
        &self,
        size: RectSize,
        root: Interval,
        after: Point,
        suppressed: &[Rect],
    ) -> Result<(f64, f64)> {
        next_edges_after(self.ctx, self.sorted, size, root, after, suppressed)
    }

    fn candidate_sums(&self, candidates: &[Point], diameter: f64) -> Result<Vec<f64>> {
        evaluate_candidates(self.ctx, self.sorted, candidates, diameter)
    }

    fn objects(&self) -> Result<Vec<WeightedPoint>> {
        Ok(self
            .ctx
            .read_all(self.sorted)?
            .iter()
            .map(|r| r.0)
            .collect())
    }

    fn io(&self) -> IoSnapshot {
        self.ctx.stats()
    }

    fn group_workers(&self) -> usize {
        self.group_workers
    }

    fn workers(&self) -> usize {
        self.workers
    }
}

/// Executes a planned batch over an object file **already sorted by x**:
/// one kernel pass per sweep group, groups concurrent on the `parallel_map`
/// pool when more than one group and more than one worker exist.
pub(crate) fn run_batch_external(
    ctx: &EmContext,
    sorted: &TupleFile<ObjectRecord>,
    batch: &QueryBatch,
    strategy: ExecutionStrategy,
    workers: usize,
    base: &ExactMaxRsOptions,
) -> Result<Vec<QueryRun>> {
    let exact_opts = ExactMaxRsOptions {
        parallelism: if strategy == ExecutionStrategy::ExternalParallel {
            workers
        } else {
            1
        },
        ..*base
    };
    // Report the batch-level execution: even a forced ExternalParallel
    // degrades to sequential when the buffer-size cap leaves one worker (see
    // `ExactMaxRsOptions::effective_parallelism`), and the runs must say so
    // rather than echo the request.  With several groups, `actual_workers`
    // is the pool the *groups* ran on — each group's inner sweep is then
    // sequential (see below), and every run of the batch reports the shared
    // batch-level strategy/worker count, not its group's inner sweep shape.
    let actual_workers = exact_opts.effective_parallelism(ctx.config());
    // With several groups and workers to spare, the groups — independent by
    // construction — run concurrently, each group's sweep sequential inside
    // its worker (the groups are the coarsest unit of parallel work, exactly
    // like the slab stage's children).  A single group keeps the full
    // parallel slab stage instead.
    let parallel_groups = actual_workers > 1 && batch.groups.len() > 1;
    let source = SortedFile {
        ctx,
        sorted,
        opts: ExactMaxRsOptions {
            parallelism: if parallel_groups {
                1
            } else {
                exact_opts.parallelism
            },
            ..exact_opts
        },
        workers: actual_workers,
        group_workers: if parallel_groups { actual_workers } else { 1 },
    };
    batch.execute(&source)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn planning_groups_by_sweep_key() {
        let size = RectSize::square(10.0);
        let other = RectSize::square(20.0);
        let domain = Rect::new(0.0, 50.0, 0.0, 50.0);
        let batch = QueryBatch::new(&[
            Query::max_rs(size),
            Query::top_k(size, 3),
            Query::approx_max_crs(10.0),
            Query::max_rs(other),
            Query::min_rs(size, domain),
            Query::min_rs(size, Rect::new(0.0, 50.0, 10.0, 40.0)), // same x-slab
            Query::min_rs(size, Rect::new(5.0, 45.0, 0.0, 50.0)),  // different x-slab
        ])
        .unwrap();
        assert_eq!(batch.len(), 7);
        // {maxrs, topk, crs} @ 10 | maxrs @ 20 | minrs slab [0,50] x2 | minrs slab [5,45]
        assert_eq!(batch.num_groups(), 4);
        assert!(!batch.is_empty());
        assert_eq!(batch.queries().len(), 7);
    }

    #[test]
    fn degenerate_min_rs_domains_get_singleton_groups() {
        let size = RectSize::square(4.0);
        let point = Rect::new(1.0, 1.0, 2.0, 2.0);
        let batch = QueryBatch::new(&[
            Query::min_rs(size, point),
            Query::min_rs(size, point), // identical, but degenerate: no sharing
        ])
        .unwrap();
        assert_eq!(batch.num_groups(), 2);
    }

    #[test]
    fn empty_batch_is_valid() {
        let batch = QueryBatch::new(&[]).unwrap();
        assert!(batch.is_empty());
        assert_eq!(batch.num_groups(), 0);
    }

    #[test]
    fn invalid_queries_fail_planning() {
        assert!(QueryBatch::new(&[Query::MaxRs {
            size: RectSize {
                width: -1.0,
                height: 1.0,
            },
        }])
        .is_err());
    }
}
