//! Batched multi-query execution: answer M queries over one
//! [`PreparedDataset`](crate::PreparedDataset) in shared sweep passes.
//!
//! A serving workload rarely asks one question of a dataset — it asks many:
//! MaxRS at a few rectangle sizes, top-k follow-ups, a MinRS sanity check, a
//! circular variant.  Per-query execution pays one full distribution sweep
//! per question even though queries of the *same* rectangle size share their
//! transform, their slab recursion and their winning strip.  [`QueryBatch`]
//! plans a slice of [`Query`]s into **sweep groups** — queries whose answers
//! fall out of one [`SweepPass`] — and the executor
//! runs each group's kernel pass once:
//!
//! * [`Query::MaxRs`], [`Query::TopK`] and [`Query::ApproxMaxCrs`] of one
//!   rectangle size (a circle's MBR is the `d × d` square) share one
//!   positive-weight pass: MaxRS answers *are* the pass's canonical best,
//!   top-k piggybacks its first round on it (later suppression rounds are
//!   shared up to the largest requested `k`), and ApproxMaxCRS refines the
//!   shared centroid with its own 5-candidate scan.
//! * [`Query::MinRs`] queries sharing a size and a domain x-slab share one
//!   weight-negated pass; each member streams its own domain-clipped strip
//!   scan over the shared slab-file.
//!
//! Independent groups execute concurrently on the existing
//! [`parallel_map`](crate::parallel::parallel_map()) worker pool; the sharded
//! [`IoStats`](maxrs_em::IoStats) keep the global count exact, and
//! [`measure_thread_io`](maxrs_em::measure_thread_io()) attributes each group's
//! transfers to its queries.  Answers are **bit-identical** to per-query
//! [`PreparedDataset::run`](crate::PreparedDataset::run) calls — in fact the
//! per-query path *is* a batch of one, so the single-query and batched code
//! can never diverge.  When several groups run concurrently, each group's
//! sweep solves its sub-slabs on one thread instead of several; both combine
//! them with the same flat [`merge_sweep`](crate::merge_sweep()), so the
//! answers are identical for any weights.
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

use crate::approx::refine_from_p0;
use crate::engine::ExecutionStrategy;
use crate::error::Result;
use crate::exact::ExactMaxRsOptions;
use crate::extensions::{min_rs_in_memory, min_strip_scan, MinStrip};
use crate::parallel::parallel_map;
use crate::query::{Query, QueryAnswer, QueryRun};
use crate::records::ObjectRecord;
use crate::result::{MaxCrsResult, MaxRsResult};
use crate::sweep::{next_breakpoint_after, SweepPass};

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
pub(crate) struct SweepGroup {
    pub(crate) kind: GroupKind,
    /// Indices into the batch's query list, in batch order.
    pub(crate) members: Vec<usize>,
}

#[derive(Debug, Clone)]
pub(crate) enum GroupKind {
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

    /// The planned sweep groups, for executors outside this module (the
    /// sharded dataset layer reuses the plan, shard-routing each group).
    pub(crate) fn groups(&self) -> &[SweepGroup] {
        &self.groups
    }
}

/// One member's outcome: the answer plus the I/O attributed to it.
pub(crate) struct MemberOut {
    pub(crate) index: usize,
    pub(crate) answer: QueryAnswer,
    pub(crate) io: IoSnapshot,
}

/// How group phases measure their I/O: global counter deltas when groups run
/// one after another, per-thread meters when groups share the worker pool.
#[derive(Clone, Copy)]
enum Meter {
    GlobalDelta,
    ThreadLocal,
}

fn measured<R>(
    ctx: &EmContext,
    meter: Meter,
    f: impl FnOnce() -> Result<R>,
) -> Result<(R, IoSnapshot)> {
    match meter {
        Meter::ThreadLocal => {
            let (out, io) = measure_thread_io(f);
            Ok((out?, io))
        }
        Meter::GlobalDelta => {
            let before = ctx.stats();
            let out = f()?;
            Ok((out, ctx.stats().delta(&before)))
        }
    }
}

/// Executes a planned batch over an object file **already sorted by x** (the
/// retained file of a [`PreparedDataset`](crate::PreparedDataset)): one
/// kernel pass per sweep group, groups concurrent on the `parallel_map` pool
/// when more than one group and more than one worker exist.  Reports I/O per
/// query under the leader-attribution rule (module docs).
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
    let actual_strategy = if actual_workers > 1 {
        ExecutionStrategy::ExternalParallel
    } else {
        ExecutionStrategy::ExternalSequential
    };

    // With several groups and workers to spare, the groups — independent by
    // construction — run concurrently, each group's sweep sequential inside
    // its worker (the groups are the coarsest unit of parallel work, exactly
    // like the slab stage's children).  A single group keeps the full
    // parallel slab stage instead.
    let parallel_groups = actual_workers > 1 && batch.groups.len() > 1;
    let outcomes: Vec<Result<Vec<MemberOut>>> = if parallel_groups {
        let group_opts = ExactMaxRsOptions {
            parallelism: 1,
            ..exact_opts
        };
        parallel_map(
            actual_workers.min(batch.groups.len()),
            batch.groups.iter().collect(),
            |_, group| run_group(ctx, sorted, group, batch, &group_opts, Meter::ThreadLocal),
        )
    } else {
        batch
            .groups
            .iter()
            .map(|group| run_group(ctx, sorted, group, batch, &exact_opts, Meter::GlobalDelta))
            .collect()
    };

    let mut runs: Vec<Option<QueryRun>> = batch.queries.iter().map(|_| None).collect();
    for outcome in outcomes {
        for m in outcome? {
            runs[m.index] = Some(QueryRun {
                answer: m.answer,
                strategy: actual_strategy,
                workers: actual_workers,
                io: m.io,
            });
        }
    }
    Ok(runs
        .into_iter()
        .map(|r| r.expect("every query belongs to exactly one group"))
        .collect())
}

fn run_group(
    ctx: &EmContext,
    sorted: &TupleFile<ObjectRecord>,
    group: &SweepGroup,
    batch: &QueryBatch,
    opts: &ExactMaxRsOptions,
    meter: Meter,
) -> Result<Vec<MemberOut>> {
    match group.kind {
        GroupKind::Shared { size } => {
            run_shared_group(ctx, sorted, size, &group.members, batch, opts, meter)
        }
        GroupKind::MinRs { size, slab } => {
            run_min_rs_group(ctx, sorted, size, slab, &group.members, batch, opts, meter)
        }
        GroupKind::DegenerateMinRs => {
            let index = group.members[0];
            let (size, domain) = match batch.queries[index] {
                Query::MinRs { size, domain } => (size, domain),
                _ => unreachable!("degenerate groups hold MinRS queries"),
            };
            // A degenerate domain — a point or a segment of admissible
            // centers — has no positive-area arrangement cell for the sweep
            // to report.  Delegate to the in-memory reference after one scan:
            // its 1D segment sweep needs the stabbed intervals, whose count
            // the EM model does not bound by M.  Acceptable for this corner
            // case, and exact parity with `min_rs_in_memory` by construction.
            let (answer, io) = measured(ctx, meter, || {
                if sorted.is_empty() {
                    return Ok(MaxRsResult {
                        center: domain.center(),
                        total_weight: 0.0,
                        region: domain,
                    });
                }
                let records = ctx.read_all(sorted)?;
                let points: Vec<WeightedPoint> = records.iter().map(|r| r.0).collect();
                Ok(min_rs_in_memory(&points, size, domain))
            })?;
            Ok(vec![MemberOut {
                index,
                answer: QueryAnswer::MinRs(answer),
                io,
            }])
        }
    }
}

/// The positive-weight group: one MaxRS kernel pass shared by every member.
fn run_shared_group(
    ctx: &EmContext,
    sorted: &TupleFile<ObjectRecord>,
    size: RectSize,
    members: &[usize],
    batch: &QueryBatch,
    opts: &ExactMaxRsOptions,
    meter: Meter,
) -> Result<Vec<MemberOut>> {
    let queries = &batch.queries;
    // Top-k rounds are shared up to the largest requested k; a batch of only
    // `k = 0` top-k queries (and nothing else) never needs the pass at all.
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
    if !needs_pass || sorted.is_empty() {
        // Mirror the per-query empty/trivial answers at zero incremental I/O.
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

    let pass = SweepPass::presorted(ctx, opts);
    // The shared phase: the full kernel pipeline once, charged to the leader.
    let (best, shared_io) = measured(ctx, meter, || pass.max_rs(sorted, size))?;

    // Shared top-k suppression rounds (round 1 is the shared best).
    let (rounds, rounds_io) = match max_k {
        Some(max_k) if max_k > 0 => measured(ctx, meter, || {
            top_k_rounds(ctx, sorted, size, max_k, best, &pass)
        })?,
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
                // The shared rounds are charged to the first top-k member.
                rounds_io.take().unwrap_or_default(),
            ),
            Query::ApproxMaxCrs { diameter, .. } => {
                let sigma = queries[i]
                    .sigma_fraction()
                    .expect("approx variant has a sigma");
                let (crs, refine_io) = measured(ctx, meter, || {
                    refine_from_p0(ctx, sorted, best.center, diameter, sigma)
                })?;
                (QueryAnswer::MaxCrs(crs), refine_io)
            }
            Query::MinRs { .. } => unreachable!("MinRS plans into its own group"),
        };
        // The pass itself is charged to the group's first query.
        io = io + shared_io.take().unwrap_or_default();
        out.push(MemberOut {
            index: i,
            answer,
            io,
        });
    }
    Ok(out)
}

/// Greedy MaxkRS suppression rounds over the EM pipeline, with round 1
/// supplied by the group's shared pass.
///
/// Each further round solves MaxRS on the remaining objects, then one
/// transform-aware scan ([`EmContext::filter_map_file`]) suppresses the
/// objects covered by the chosen placement — the external analogue of
/// [`max_k_rs_in_memory`](crate::extensions::max_k_rs_in_memory)'s `retain`,
/// and the same answers: round `r` sees exactly the objects the in-memory
/// greedy sees, because canonical max-regions make every round's center
/// strategy-independent.  The input is sorted by x and the suppression filter
/// preserves that order, so *no* round pays an external sort.  Rounds do not
/// depend on `k`, so one shared sequence serves every top-k member (each
/// takes its prefix).
fn top_k_rounds(
    ctx: &EmContext,
    objects: &TupleFile<ObjectRecord>,
    size: RectSize,
    max_k: usize,
    first_best: MaxRsResult,
    pass: &SweepPass<'_>,
) -> Result<Vec<MaxRsResult>> {
    // At most one placement per object exists, so a huge k must not
    // pre-allocate k slots (mirrors `max_k_rs_in_memory`).
    let mut results = Vec::with_capacity(max_k.min(objects.len() as usize));
    let mut current: Option<TupleFile<ObjectRecord>> = None;
    let mut rounds = || -> Result<()> {
        for round in 0..max_k {
            let remaining = current.as_ref().unwrap_or(objects);
            if remaining.is_empty() {
                break;
            }
            let best = if round == 0 {
                first_best
            } else {
                pass.max_rs(remaining, size)?
            };
            if best.total_weight <= 0.0 {
                break;
            }
            let chosen = Rect::centered_at(best.center, size);
            let next = ctx.filter_map_file(remaining, |rec: ObjectRecord| {
                if chosen.contains_open(&rec.0.point) {
                    None
                } else {
                    Some(rec)
                }
            })?;
            if let Some(f) = current.take() {
                ctx.delete_file(f)?;
            }
            current = Some(next);
            results.push(best);
        }
        Ok(())
    };
    let outcome = rounds();
    // The last suppression file is a temporary either way.
    if let Some(f) = current.take() {
        let _ = ctx.delete_file(f);
    }
    outcome.map(|()| results)
}

/// The MinRS group: one weight-negated kernel pass over the shared domain
/// x-slab, then one domain-clipped strip scan per member — streamed over the
/// shared slab-file, exactly the scan
/// [`min_rs_in_memory`](crate::extensions::min_rs_in_memory) performs over
/// its in-memory tuple list.
#[allow(clippy::too_many_arguments)]
fn run_min_rs_group(
    ctx: &EmContext,
    sorted: &TupleFile<ObjectRecord>,
    size: RectSize,
    slab: Interval,
    members: &[usize],
    batch: &QueryBatch,
    opts: &ExactMaxRsOptions,
    meter: Meter,
) -> Result<Vec<MemberOut>> {
    let queries = &batch.queries;
    let domain_of = |i: usize| match queries[i] {
        Query::MinRs { domain, .. } => domain,
        _ => unreachable!("MinRS groups hold MinRS queries"),
    };
    if sorted.is_empty() {
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

    let pass = SweepPass::presorted(ctx, opts)
        .with_weight_scale(-1.0)
        .with_root(slab);
    // The shared phase — negated transform + sweep — charged to the leader.
    let (slab_file, shared_io) = measured(ctx, meter, || pass.slab_file(sorted, size))?;

    // Per-member strip scans over the shared slab-file.
    let mut scans: Vec<(usize, Option<MinStrip>, IoSnapshot)> = Vec::with_capacity(members.len());
    let mut scan_err = None;
    for &i in members {
        let domain = domain_of(i);
        let scanned = measured(ctx, meter, || {
            let mut reader = ctx.open_reader(&slab_file);
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
    // Delete the slab file before propagating a scan error so a failed query
    // leaves no orphans on a long-lived context.
    ctx.delete_file(slab_file)?;
    if let Some(e) = scan_err {
        return Err(e);
    }

    let mut out = Vec::with_capacity(scans.len());
    let mut shared_io = Some(shared_io);
    for (i, best, scan_io) in scans {
        let domain = domain_of(i);
        let (result, finalize_io) = measured(ctx, meter, || {
            finalize_min_rs(ctx, sorted, size, slab, domain, best)
        })?;
        out.push(MemberOut {
            index: i,
            answer: QueryAnswer::MinRs(result),
            io: scan_io + finalize_io + shared_io.take().unwrap_or_default(),
        });
    }
    Ok(out)
}

/// Converts a member's winning strip into the canonical MinRS answer
/// (widening sweep cells back to full arrangement cells of the domain slab).
fn finalize_min_rs(
    ctx: &EmContext,
    objects: &TupleFile<ObjectRecord>,
    size: RectSize,
    slab: Interval,
    domain: Rect,
    best: Option<MinStrip>,
) -> Result<MaxRsResult> {
    match best {
        None => {
            // Unreachable for a non-degenerate domain (the strips partition
            // the plane, so one of them clips to positive height), but kept
            // as a defensive mirror of the in-memory fallback: evaluate the
            // domain center directly with one scan of the object file.
            let center = domain.center();
            let query_rect = Rect::centered_at(center, size);
            let mut total = 0.0;
            let mut reader = ctx.open_reader(objects);
            while let Some(rec) = reader.next_record()? {
                if query_rect.contains_open(&rec.0.point) {
                    total += rec.0.weight;
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
                // Widen the refined cell back to the full arrangement cell of
                // the domain slab (see `crate::sweep`, canonical max-regions).
                let hi = next_breakpoint_after(ctx, objects, size, slab, x.lo)?;
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
                // `0.0 - x` rather than `-x`: an uncovered minimum is +0.0,
                // not the confusing "-0" a plain negation would display
                // (mirrors `min_rs_in_memory`).
                total_weight: 0.0 - negated_sum,
                region: Rect::new(x.lo, x.hi, y.lo, y.hi),
            })
        }
    }
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
