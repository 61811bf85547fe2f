//! Pipeline compilation and morsel-parallel fragment execution.
//!
//! A fragment instance's operator chain is split into a *parallel region*
//! — a spine of vectorized operators over a single `TableScan` leaf
//! (filter, project, hash-join probe, partial hash aggregate) — and a
//! sequential *post chain* of order/merge-sensitive sinks above it (sort,
//! limit, final aggregate merge). The region is replicated into lanes,
//! one per pool worker, each pulling morsels from the shared
//! [`MorselSupply`]; the post chain runs once on the fragment's driver
//! thread over the lanes' combined output:
//!
//! * **Hash joins**: build sides are resolved before the lanes start —
//!   scan-chain build subtrees are themselves built in parallel (per-lane
//!   partial batch runs merged into one table under the build barrier) —
//!   and lanes probe the shared, read-only table through
//!   [`SharedProbeExec`].
//! * **Aggregates**: a splittable `Complete` aggregate is rewritten into
//!   per-lane `Partial` aggregates whose state rows the driver merges
//!   with a `Final` aggregate at the drain barrier; unsplittable ones
//!   (COUNT DISTINCT) aggregate the lanes' raw output on the driver.
//! * **Sorts**: each lane sorts its own share, the driver k-way merges
//!   the sorted runs order-preservingly ([`MergeRunsSource`]).
//! * **No post chain**: lanes stream straight into the shared instance
//!   sink — the exchange stage coalesces sub-batch outputs *across*
//!   lanes exactly as the sequential sender coalesces across batches.
//!
//! Fragments that don't fit this shape (row-internal joins/aggregates,
//! index scans, receiver-fed spines, a bare LIMIT that profits from
//! sequential early-exit, fewer than two morsels) fall back to the
//! sequential single-thread path unchanged. Receivers never run inside
//! lanes: every exchange consumed by a fragment is drained either on the
//! driver (sequential spine) or before the lanes start (join build
//! sides), so the producer-drains-consumer liveness argument of the
//! thread-per-fragment model carries over unchanged.

use crate::analyze::OpIndex;
use crate::kernels::ColJoinTable;
use crate::operators::{
    segment_rows, ControlBlock, FilterExec, HashAggExec, LimitExec, ProjectExec, RowSource,
    SharedProbeExec, SortExec, TracedSource,
};
use crate::pool::{Latch, LatchGuard, Morsel, MorselSupply, SitePools, WorkerPool};
use crate::runtime::{BuildCtx, InstanceSink};
use ic_common::hash::FxHashMap;
use ic_common::obs::SpanId;
use ic_common::row::BATCH_SIZE;
use ic_common::{ColumnBatch, ColumnBuilder, IcError, IcResult};
use ic_plan::ops::{AggPhase, PhysOp, PhysPlan, SortKey};
use ic_storage::PartStore;
use std::cmp::Ordering;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

type BoxedSource = Box<dyn RowSource>;

fn locked<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One sequential step the driver applies above the lanes' output,
/// outermost first. Each carries its original plan node for tracing.
enum PostOp {
    /// Blocking sort on the driver (a blocking aggregate below already
    /// broke lane ordering, so lanes can't pre-sort for it).
    Sort(Arc<PhysPlan>),
    /// Innermost sort: lanes pre-sort their share, the driver merges the
    /// sorted runs.
    MergeSorted(Arc<PhysPlan>),
    Limit(Arc<PhysPlan>),
    /// Splittable `Complete` aggregate: lanes ran the synthetic `Partial`
    /// half, the driver merges state rows with the `Final` half.
    FinalAgg(Arc<PhysPlan>),
    /// Unsplittable aggregate: the driver aggregates the lanes' raw rows.
    CompleteAgg(Arc<PhysPlan>),
}

/// The parallel region: a spine of lane-replicable operators over one
/// `TableScan` leaf.
struct Region {
    root: Arc<PhysPlan>,
    /// The scan leaf (its table feeds the morsel supply).
    scan: Arc<PhysPlan>,
    /// `HashJoin` spine nodes whose build sides the driver resolves
    /// before the lanes start.
    joins: Vec<Arc<PhysPlan>>,
    /// `Some(complete_node)`: lanes wrap the region in the synthetic
    /// `Partial` half of this `Complete` aggregate.
    partial_of: Option<Arc<PhysPlan>>,
    /// Lanes append a sort on these keys (feeding a `MergeSorted` post).
    presort: Option<Vec<SortKey>>,
}

struct PipelineSpec {
    post: Vec<PostOp>,
    region: Region,
}

/// Walk a region spine: only vectorized, lane-replicable operators over
/// exactly one `TableScan` leaf. Build sides of hash joins may be
/// arbitrary subtrees (the driver resolves them), so only the probe spine
/// is constrained. Returns the scan leaf.
fn region_of(node: &Arc<PhysPlan>, joins: &mut Vec<Arc<PhysPlan>>) -> Option<Arc<PhysPlan>> {
    match &node.op {
        PhysOp::TableScan { .. } => Some(node.clone()),
        PhysOp::Filter { input, .. } | PhysOp::Project { input, .. } => region_of(input, joins),
        PhysOp::HashAggregate { input, phase: AggPhase::Partial, aggs, .. }
            if aggs.iter().all(|a| a.func.splittable()) =>
        {
            region_of(input, joins)
        }
        PhysOp::HashJoin { left, .. } => {
            joins.push(node.clone());
            region_of(left, joins)
        }
        _ => None,
    }
}

/// Compile a fragment's operator chain into a pipeline, or `None` when
/// the shape doesn't profit from (or doesn't support) morsel parallelism.
fn compile(root: &Arc<PhysPlan>) -> Option<PipelineSpec> {
    let mut post = Vec::new();
    let mut node = root.clone();
    let mut partial_of = None;
    loop {
        match &node.op {
            PhysOp::Sort { input, .. } => {
                post.push(PostOp::Sort(node.clone()));
                node = input.clone();
            }
            PhysOp::Limit { input, .. } => {
                post.push(PostOp::Limit(node.clone()));
                node = input.clone();
            }
            PhysOp::HashAggregate { input, aggs, phase: AggPhase::Complete, .. } => {
                if aggs.iter().all(|a| a.func.splittable()) {
                    post.push(PostOp::FinalAgg(node.clone()));
                    partial_of = Some(node.clone());
                } else {
                    post.push(PostOp::CompleteAgg(node.clone()));
                }
                node = input.clone();
                break;
            }
            _ => break,
        }
    }
    // A bare LIMIT directly over the region early-exits sequentially (it
    // stops pulling after `fetch` rows); parallel lanes would scan
    // everything for nothing.
    if matches!(post.last(), Some(PostOp::Limit(_))) {
        return None;
    }
    // Innermost sort: lanes pre-sort their own share, the driver merges.
    let mut presort = None;
    if let Some(PostOp::Sort(s)) = post.last() {
        if let PhysOp::Sort { keys, .. } = &s.op {
            presort = Some(keys.clone());
            let s = s.clone();
            post.pop();
            post.push(PostOp::MergeSorted(s));
        }
    }
    let mut joins = Vec::new();
    let scan = region_of(&node, &mut joins)?;
    Some(PipelineSpec { post, region: Region { root: node, scan, joins, partial_of, presort } })
}

/// Everything a lane needs to build and run its operator chain.
struct LaneShared {
    region: Arc<PhysPlan>,
    partial_of: Option<Arc<PhysPlan>>,
    presort: Option<Vec<SortKey>>,
    partitions: Arc<Vec<PartStore>>,
    supply: Arc<MorselSupply>,
    split: Option<(usize, usize)>,
    /// Shared build tables, keyed by `HashJoin` node identity.
    tables: Arc<FxHashMap<usize, Arc<ColJoinTable>>>,
    ctrl: Arc<ControlBlock>,
    obs_index: Option<Arc<OpIndex>>,
    /// The owning fragment instance's span: operator spans from lanes —
    /// including stolen morsels — parent here, never to anything on the
    /// thief worker's own lane, so `Trace::validate` sees one consistent
    /// tree no matter which worker ran which morsel.
    parent_span: Option<SpanId>,
}

fn node_key(n: &Arc<PhysPlan>) -> usize {
    Arc::as_ptr(n) as usize
}

/// Build one lane's operator chain over the shared morsel supply. Mirrors
/// `BuildCtx::build` for the region's operator subset; `lane_idx` keys
/// morsel accounting, `worker_lane` is the trace lane of the executing
/// worker.
fn build_lane(
    sh: &LaneShared,
    node: &Arc<PhysPlan>,
    lane_idx: usize,
    worker_lane: u32,
) -> IcResult<BoxedSource> {
    let src: BoxedSource = match &node.op {
        PhysOp::TableScan { .. } => Box::new(MorselScanSource::new(
            sh.partitions.clone(),
            sh.supply.clone(),
            lane_idx,
            sh.split,
            sh.ctrl.clone(),
        )),
        PhysOp::Filter { input, predicate } => Box::new(FilterExec::new(
            build_lane(sh, input, lane_idx, worker_lane)?,
            predicate.clone(),
            sh.ctrl.clone(),
        )),
        PhysOp::Project { input, exprs, .. } => Box::new(ProjectExec::new(
            build_lane(sh, input, lane_idx, worker_lane)?,
            exprs.clone(),
            sh.ctrl.clone(),
        )),
        PhysOp::HashAggregate { input, group, aggs, phase: AggPhase::Partial } => {
            Box::new(HashAggExec::new(
                build_lane(sh, input, lane_idx, worker_lane)?,
                group.clone(),
                aggs.clone(),
                AggPhase::Partial,
                sh.ctrl.clone(),
            ))
        }
        PhysOp::HashJoin { left, kind, left_keys, residual, .. } => {
            let table = sh
                .tables
                .get(&node_key(node))
                .cloned()
                .ok_or_else(|| IcError::Internal("pipeline: missing shared build table".into()))?;
            Box::new(SharedProbeExec::new(
                build_lane(sh, left, lane_idx, worker_lane)?,
                table,
                *kind,
                left_keys.clone(),
                residual.clone(),
                sh.ctrl.clone(),
            ))
        }
        _ => return Err(IcError::Internal("pipeline: non-region operator in lane".into())),
    };
    if let Some(index) = &sh.obs_index {
        if let Some(idx) = index.of(node) {
            return Ok(Box::new(TracedSource::new(
                src,
                sh.ctrl.clone(),
                idx,
                node.label(),
                worker_lane,
                sh.parent_span,
            )));
        }
    }
    Ok(src)
}

/// The full per-lane chain: region spine, then the synthetic partial
/// aggregate and/or pre-sort demanded by the post chain. The synthetic
/// halves are untraced — the driver's merge half owns the plan node's
/// spans and row counts.
fn build_full_lane(sh: &LaneShared, lane_idx: usize, worker_lane: u32) -> IcResult<BoxedSource> {
    let mut src = build_lane(sh, &sh.region, lane_idx, worker_lane)?;
    if let Some(node) = &sh.partial_of {
        let PhysOp::HashAggregate { group, aggs, .. } = &node.op else {
            return Err(IcError::Internal("pipeline: partial_of is not an aggregate".into()));
        };
        src = Box::new(HashAggExec::new(
            src,
            group.clone(),
            aggs.clone(),
            AggPhase::Partial,
            sh.ctrl.clone(),
        ));
    }
    if let Some(keys) = &sh.presort {
        src = Box::new(SortExec::new(src, keys.clone(), sh.ctrl.clone()));
    }
    Ok(src)
}

/// What lanes do with their output.
enum LaneSink {
    /// Stream into the shared instance sink (no post chain).
    Stream(InstanceSink),
    /// Collect per-lane batch runs for the driver's post chain.
    Collect(Arc<Mutex<Vec<Vec<ColumnBatch>>>>),
}

/// Record the first lane error and cancel the query; later errors are
/// teardown noise of that cancellation.
fn lane_fail(slot: &Mutex<Option<IcError>>, ctrl: &ControlBlock, e: IcError) {
    if !matches!(&e, IcError::Exec(m) if m == "query cancelled") {
        let mut s = locked(slot);
        if s.is_none() {
            *s = Some(e);
        }
    }
    ctrl.cancel();
}

/// Fan `lanes` lane tasks out over the pool and wait at the barrier.
/// Returns the first lane error. The driver polls its control block while
/// waiting, so a revoked/cancelled query converges even when lanes are
/// blocked in backpressured sends (the exchange abort hook unblocks
/// those).
fn run_lanes(
    pool: &WorkerPool,
    lanes: usize,
    sh: &Arc<LaneShared>,
    sink: LaneSink,
    ctrl: &Arc<ControlBlock>,
) -> IcResult<()> {
    let error: Arc<Mutex<Option<IcError>>> = Arc::new(Mutex::new(None));
    let latch = Latch::new(lanes);
    let (stream, collect) = match sink {
        LaneSink::Stream(s) => (Some(s), None),
        LaneSink::Collect(c) => {
            locked(&c).resize_with(lanes, Vec::new);
            (None, Some(c))
        }
    };
    for lane_idx in 0..lanes {
        let sh = sh.clone();
        let error = error.clone();
        let latch = latch.clone();
        let collect = collect.clone();
        let stream = stream.clone();
        let ctrl = ctrl.clone();
        pool.submit(Box::new(move |worker_lane| {
            let _guard = LatchGuard(latch);
            let body = || -> IcResult<()> {
                let mut src = build_full_lane(&sh, lane_idx, worker_lane)?;
                let mut run: Vec<ColumnBatch> = Vec::new();
                while let Some(b) = src.next_batch()? {
                    match &stream {
                        Some(s) => s.push(b)?,
                        None => {
                            // Collected runs are buffered state: account
                            // them against the query's memory lease
                            // before holding on to them (L006).
                            ctrl.reserve_batch(&b)?;
                            run.push(b);
                        }
                    }
                }
                if let Some(c) = &collect {
                    locked(c)[lane_idx] = run;
                }
                Ok(())
            };
            match std::panic::catch_unwind(std::panic::AssertUnwindSafe(body)) {
                Ok(Ok(())) => {}
                Ok(Err(e)) => lane_fail(&error, &ctrl, e),
                Err(payload) => {
                    let msg = if let Some(s) = payload.downcast_ref::<&str>() {
                        (*s).to_string()
                    } else if let Some(s) = payload.downcast_ref::<String>() {
                        s.clone()
                    } else {
                        "non-string panic payload".to_string()
                    };
                    lane_fail(&error, &ctrl, IcError::Exec(format!("pipeline lane panicked: {msg}")));
                }
            }
        }));
    }
    latch.wait(|| {
        if ctrl.check().is_err() {
            ctrl.cancel();
        }
    });
    if let Some(e) = locked(&error).take() {
        return Err(e);
    }
    ctrl.check()
}

/// Lane count for a morsel supply: never more lanes than morsels, never
/// more than workers.
fn lane_count(partitions: &[PartStore], morsel_rows: usize, threads: usize) -> usize {
    let rows: usize = partitions.iter().map(PartStore::len).sum();
    rows.div_ceil(morsel_rows.max(64)).min(threads)
}

/// Resolve the build side of every region hash join into a shared
/// [`ColJoinTable`] before the lanes start. Scan-chain build subtrees are
/// built in parallel: lanes collect partial batch runs, the build barrier
/// fires, and the driver merges the runs into one table. Anything else
/// (receivers, row-internal operators) builds sequentially through the
/// instance's own `BuildCtx` — which also keeps every receiver drain on
/// the driver thread.
fn resolve_builds(
    ctx: &mut BuildCtx<'_>,
    spec: &PipelineSpec,
    pool: &WorkerPool,
    morsel_rows: usize,
) -> IcResult<Arc<FxHashMap<usize, Arc<ColJoinTable>>>> {
    let mut tables = FxHashMap::default();
    for join in &spec.region.joins {
        let PhysOp::HashJoin { right, right_keys, .. } = &join.op else {
            return Err(IcError::Internal("pipeline: join list holds non-join".into()));
        };
        let mut table = ColJoinTable::new(right_keys.clone(), right.schema.arity());
        let mut sub_joins = Vec::new();
        let build_scan = region_of(right, &mut sub_joins).filter(|_| sub_joins.is_empty());
        let mut built_parallel = false;
        if let Some(scan) = build_scan {
            let PhysOp::TableScan { table: tid, .. } = &scan.op else { unreachable!() };
            let partitions = Arc::new(ctx.table_partitions(*tid)?);
            let lanes = lane_count(&partitions, morsel_rows, pool.threads());
            if lanes >= 2 {
                let supply = Arc::new(MorselSupply::new(&partitions, morsel_rows, lanes));
                let split = ctx.split_for(ctx.vplan.scan_mode(&scan));
                let sh = Arc::new(LaneShared {
                    region: right.clone(),
                    partial_of: None,
                    presort: None,
                    partitions,
                    supply,
                    split,
                    tables: Arc::new(FxHashMap::default()),
                    ctrl: ctx.ctrl.clone(),
                    obs_index: ctx.obs_index.clone(),
                    parent_span: ctx.parent_span,
                });
                let runs: Arc<Mutex<Vec<Vec<ColumnBatch>>>> = Arc::new(Mutex::new(Vec::new()));
                run_lanes(pool, lanes, &sh, LaneSink::Collect(runs.clone()), &ctx.ctrl)?;
                // Build barrier: merge the per-lane partial runs into the
                // shared table.
                for run in locked(&runs).drain(..) {
                    for b in &run {
                        table.insert_batch(b);
                    }
                }
                built_parallel = true;
            }
        }
        if !built_parallel {
            let mut src = ctx.build(right)?;
            while let Some(b) = src.next_batch()? {
                ctx.ctrl.check()?;
                ctx.ctrl.reserve_batch(&b)?;
                table.insert_batch(&b);
            }
        }
        table.finish_build();
        ic_common::obs::MetricsRegistry::global()
            .counter("exec.join.build_rows")
            .add(table.len() as u64);
        tables.insert(node_key(join), Arc::new(table));
    }
    Ok(Arc::new(tables))
}

/// Run one fragment instance: pipeline-parallel when the plan shape, the
/// pool, and the input size allow it, else the classic sequential chain.
/// All output goes through `sink`; exchange staging/EOF handling stays
/// with the caller.
pub(crate) fn run_instance(
    ctx: &mut BuildCtx<'_>,
    root: &Arc<PhysPlan>,
    pools: Option<&SitePools>,
    morsel_rows: usize,
    sink: &InstanceSink,
) -> IcResult<()> {
    if let Some(pools) = pools.filter(|p| p.threads() >= 1) {
        if let Some(spec) = compile(root) {
            let PhysOp::TableScan { table, .. } = &spec.region.scan.op else {
                return Err(IcError::Internal("pipeline: region leaf not a scan".into()));
            };
            let partitions = Arc::new(ctx.table_partitions(*table)?);
            let rows: usize = partitions.iter().map(PartStore::len).sum();
            if rows.div_ceil(morsel_rows.max(64)) >= 2 {
                let pool = pools.for_site(ctx.site);
                let lanes = lane_count(&partitions, morsel_rows, pool.threads()).max(1);
                return run_parallel(ctx, spec, &pool, lanes, partitions, morsel_rows, sink);
            }
        }
    }
    // Sequential fallback: the pre-pool execution model, unchanged.
    let src = ctx.build(root)?;
    sink.drain_from(src)
}

fn run_parallel(
    ctx: &mut BuildCtx<'_>,
    spec: PipelineSpec,
    pool: &Arc<WorkerPool>,
    lanes: usize,
    partitions: Arc<Vec<PartStore>>,
    morsel_rows: usize,
    sink: &InstanceSink,
) -> IcResult<()> {
    // Phase 1: resolve join build sides (parallel where possible).
    let tables = resolve_builds(ctx, &spec, pool, morsel_rows)?;
    // Phase 2: the scan/probe lanes over the shared morsel supply.
    let supply = Arc::new(MorselSupply::new(&partitions, morsel_rows, lanes));
    let split = ctx.split_for(ctx.vplan.scan_mode(&spec.region.scan));
    let sh = Arc::new(LaneShared {
        region: spec.region.root.clone(),
        partial_of: spec.region.partial_of.clone(),
        presort: spec.region.presort.clone(),
        partitions,
        supply,
        split,
        tables,
        ctrl: ctx.ctrl.clone(),
        obs_index: ctx.obs_index.clone(),
        parent_span: ctx.parent_span,
    });
    if spec.post.is_empty() {
        return run_lanes(pool, lanes, &sh, LaneSink::Stream(sink.clone()), &ctx.ctrl);
    }
    // Drain barrier, then the post chain once on the driver.
    let runs: Arc<Mutex<Vec<Vec<ColumnBatch>>>> = Arc::new(Mutex::new(Vec::new()));
    run_lanes(pool, lanes, &sh, LaneSink::Collect(runs.clone()), &ctx.ctrl)?;
    let runs: Vec<Vec<ColumnBatch>> = locked(&runs).drain(..).collect();
    let mut src: BoxedSource = match spec.post.last() {
        Some(PostOp::MergeSorted(node)) => {
            let PhysOp::Sort { keys, .. } = &node.op else {
                return Err(IcError::Internal("pipeline: merge-sorted over non-sort".into()));
            };
            let sorted: Vec<ColumnBatch> = runs
                .iter()
                .filter(|r| !r.is_empty())
                .map(|r| ColumnBatch::concat(r))
                .collect();
            wrap_traced(
                ctx,
                node,
                Box::new(MergeRunsSource::new(sorted, keys.clone(), ctx.ctrl.clone())),
            )
        }
        _ => Box::new(RunsSource::new(runs, ctx.ctrl.clone())),
    };
    // Apply post ops innermost-first (the vec is outermost-first); the
    // innermost MergeSorted was consumed as the source above.
    for op in spec.post.iter().rev().skip(usize::from(matches!(
        spec.post.last(),
        Some(PostOp::MergeSorted(_))
    ))) {
        src = match op {
            PostOp::MergeSorted(_) => {
                return Err(IcError::Internal("pipeline: merge-sorted not innermost".into()))
            }
            PostOp::Sort(node) => {
                let PhysOp::Sort { keys, .. } = &node.op else {
                    return Err(IcError::Internal("pipeline: sort post over non-sort".into()));
                };
                wrap_traced(ctx, node, Box::new(SortExec::new(src, keys.clone(), ctx.ctrl.clone())))
            }
            PostOp::Limit(node) => {
                let PhysOp::Limit { fetch, offset, .. } = &node.op else {
                    return Err(IcError::Internal("pipeline: limit post over non-limit".into()));
                };
                wrap_traced(
                    ctx,
                    node,
                    Box::new(LimitExec::new(src, *fetch, *offset, ctx.ctrl.clone())),
                )
            }
            PostOp::FinalAgg(node) => {
                let PhysOp::HashAggregate { group, aggs, .. } = &node.op else {
                    return Err(IcError::Internal("pipeline: final agg over non-agg".into()));
                };
                // Lane Partial output rows are (keys.., states..): group
                // on the leading key positions, merge the states.
                wrap_traced(
                    ctx,
                    node,
                    Box::new(HashAggExec::new(
                        src,
                        (0..group.len()).collect(),
                        aggs.clone(),
                        AggPhase::Final,
                        ctx.ctrl.clone(),
                    )),
                )
            }
            PostOp::CompleteAgg(node) => {
                let PhysOp::HashAggregate { group, aggs, .. } = &node.op else {
                    return Err(IcError::Internal("pipeline: complete agg over non-agg".into()));
                };
                wrap_traced(
                    ctx,
                    node,
                    Box::new(HashAggExec::new(
                        src,
                        group.clone(),
                        aggs.clone(),
                        AggPhase::Complete,
                        ctx.ctrl.clone(),
                    )),
                )
            }
        };
    }
    while let Some(b) = src.next_batch()? {
        sink.push(b)?;
    }
    Ok(())
}

/// Trace-wrap a driver-side post operator under the fragment span (same
/// policy as `BuildCtx::build`).
fn wrap_traced(ctx: &BuildCtx<'_>, node: &Arc<PhysPlan>, src: BoxedSource) -> BoxedSource {
    if let Some(index) = &ctx.obs_index {
        if let Some(idx) = index.of(node) {
            return Box::new(TracedSource::new(
                src,
                ctx.ctrl.clone(),
                idx,
                node.label(),
                ctx.lane,
                ctx.parent_span,
            ));
        }
    }
    src
}

// --------------------------------------------------------------- sources

/// Scan source over the shared morsel supply: pulls a morsel and emits the
/// stored segments it covers — whole, or sliced where the morsel starts or
/// ends inside one — then pulls the next. `ControlBlock::check` runs at
/// every batch boundary — the morsel/batch boundary is the revocation
/// point, never mid-kernel.
struct MorselScanSource {
    partitions: Arc<Vec<PartStore>>,
    supply: Arc<MorselSupply>,
    lane: usize,
    cur: Option<(Morsel, usize)>,
    split: Option<(usize, usize)>,
    ctrl: Arc<ControlBlock>,
}

impl MorselScanSource {
    fn new(
        partitions: Arc<Vec<PartStore>>,
        supply: Arc<MorselSupply>,
        lane: usize,
        split: Option<(usize, usize)>,
        ctrl: Arc<ControlBlock>,
    ) -> MorselScanSource {
        MorselScanSource { partitions, supply, lane, cur: None, split, ctrl }
    }
}

impl RowSource for MorselScanSource {
    fn next_batch(&mut self) -> IcResult<Option<ColumnBatch>> {
        loop {
            self.ctrl.check()?;
            let (m, offset) = match &mut self.cur {
                Some(cur) => (cur.0, &mut cur.1),
                None => match self.supply.pull(self.lane) {
                    Some(m) => {
                        let start = m.start;
                        let cur = self.cur.insert((m, start));
                        (cur.0, &mut cur.1)
                    }
                    None => return Ok(None),
                },
            };
            let found = self.partitions[m.part].segment_at(*offset);
            let Some((seg, seg_start)) = found.filter(|_| *offset < m.end) else {
                self.cur = None;
                continue;
            };
            let from = *offset;
            let to = (seg_start + seg.len()).min(m.end);
            *offset = to;
            // Absolute row index ≡ the sequential scan's counter, so the
            // splitter keeps exactly the same tuples no matter which lane
            // processes the morsel, or when.
            let base = m.base + (from - m.start);
            if let Some(b) = segment_rows(seg, from - seg_start, to - seg_start, base, self.split) {
                return Ok(Some(b));
            }
        }
    }
}

/// Replays the lanes' collected batch runs to the driver's post chain.
struct RunsSource {
    batches: VecDeque<ColumnBatch>,
    ctrl: Arc<ControlBlock>,
}

impl RunsSource {
    fn new(runs: Vec<Vec<ColumnBatch>>, ctrl: Arc<ControlBlock>) -> RunsSource {
        RunsSource { batches: runs.into_iter().flatten().collect(), ctrl }
    }
}

impl RowSource for RunsSource {
    fn next_batch(&mut self) -> IcResult<Option<ColumnBatch>> {
        self.ctrl.check()?;
        Ok(self.batches.pop_front())
    }
}

/// Order-preserving k-way merge of per-lane sorted runs (each dense).
/// The comparator matches `sort_permutation`'s total order — `cmp_at`
/// NULLs-first semantics, `DESC` reversal per key — with the run index as
/// the tie-break, so merged output is deterministic given the runs.
struct MergeRunsSource {
    runs: Vec<ColumnBatch>,
    cursors: Vec<usize>,
    keys: Vec<SortKey>,
    ctrl: Arc<ControlBlock>,
}

impl MergeRunsSource {
    fn new(runs: Vec<ColumnBatch>, keys: Vec<SortKey>, ctrl: Arc<ControlBlock>) -> MergeRunsSource {
        let cursors = vec![0; runs.len()];
        MergeRunsSource { runs, cursors, keys, ctrl }
    }

    fn run_cmp(&self, a: usize, b: usize) -> Ordering {
        let (ra, rb) = (&self.runs[a], &self.runs[b]);
        let (ia, ib) = (self.cursors[a], self.cursors[b]);
        for k in &self.keys {
            let mut ord = ra.col(k.col).cmp_at(ia, rb.col(k.col), ib);
            if k.desc {
                ord = ord.reverse();
            }
            if ord != Ordering::Equal {
                return ord;
            }
        }
        a.cmp(&b)
    }
}

impl RowSource for MergeRunsSource {
    fn next_batch(&mut self) -> IcResult<Option<ColumnBatch>> {
        self.ctrl.check()?;
        let width = self.runs.first().map_or(0, ColumnBatch::width);
        let mut builders: Vec<ColumnBuilder> = (0..width).map(|_| ColumnBuilder::new()).collect();
        let mut n = 0usize;
        while n < BATCH_SIZE {
            // Linear min-scan: k = lane count, single digits.
            let mut best: Option<usize> = None;
            for r in 0..self.runs.len() {
                if self.cursors[r] >= self.runs[r].num_rows() {
                    continue;
                }
                best = Some(match best {
                    Some(b) if self.run_cmp(r, b) != Ordering::Less => b,
                    _ => r,
                });
            }
            let Some(r) = best else { break };
            let i = self.cursors[r];
            for (c, bld) in builders.iter_mut().enumerate() {
                bld.push_from_column(self.runs[r].col(c), i);
            }
            self.cursors[r] = i + 1;
            n += 1;
        }
        if n == 0 {
            return Ok(None);
        }
        let cols = builders.into_iter().map(|b| Arc::new(b.finish())).collect();
        Ok(Some(ColumnBatch::new(cols, n)))
    }
}
