//! Physical operator implementations: pull-based batch iterators
//! (Volcano-style execution, batched to amortize channel overhead).
//!
//! The data plane is columnar end to end: every operator exchanges
//! [`ColumnBatch`]es — typed column vectors with validity bitmaps and an
//! optional selection vector — so filters shrink the selection instead of
//! materializing output, projections share column `Arc`s, and the join/agg/
//! sort kernels in [`crate::kernels`] run tight per-column loops. Scans hand
//! out the stored column segments themselves ([`ScanSource`]) or gather from
//! them ([`MergingIndexScan`]); rows exist only at the client rowset
//! ([`drain`] and the root sink convert once, with `to_rows`).
//!
//! Joins share one output path ([`emit_join`]: residual, per-probe-row
//! regrouping, LEFT null extension, SEMI/ANTI selection, batch-sized
//! segments) and differ only in how they generate `(probe row, build row)`
//! pairs: hash chains ([`HashJoinExec`], [`SharedProbeExec`]), a merge cursor
//! over a sorted arena ([`MergeJoinExec`]), or a bounded cross product
//! ([`NestedLoopJoinExec`]). Both aggregates fold through the same
//! [`ColGroupTable`] loops; they differ only in how rows find their group
//! slot (hashing vs comparing with the previous row's key).

use crate::kernels::{
    cross_pairs, gather_join_output, merge_join_pairs, ColGroupTable, ColJoinTable, NIL,
};
use ic_common::agg::Accumulator;
use ic_common::eval::{eval_expr, eval_filter_sel};
use ic_common::obs::{AttemptStats, Counter, SpanId, Trace};
use ic_common::row::BATCH_SIZE;
use ic_common::{
    Column, ColumnBatch, ColumnBuilder, Datum, Expr, IcError, IcResult, MemoryLease, MemoryPool,
    Row,
};
use ic_plan::ops::{AggCall, AggPhase, JoinKind, SortKey};
use ic_storage::{PartStore, Segment, SortedRun};
use std::collections::VecDeque;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Per-query observability context, attached to the [`ControlBlock`] when
/// the caller requested a trace. Carries the trace (clock + span store),
/// the current attempt's per-operator aggregate table, and pre-resolved
/// global metric handles so hot paths never take the registry lock.
#[derive(Debug, Clone)]
pub struct ExecObs {
    /// The query's trace; also the clock all operator spans are keyed to.
    pub trace: Arc<Trace>,
    /// Estimated-vs-actual table for the current execution attempt.
    pub attempt: Arc<AttemptStats>,
    /// Global `exec.op.rows` counter (resolved once per query).
    pub op_rows: Arc<Counter>,
    /// Global `exec.op.batches` counter (resolved once per query).
    pub op_batches: Arc<Counter>,
    /// Global `exec.batch.batches` counter: column batches emitted.
    pub batch_batches: Arc<Counter>,
    /// Global `exec.batch.rows` counter: logical rows emitted (after
    /// selection). `rows / batches` is the mean rows-per-batch.
    pub batch_rows: Arc<Counter>,
    /// Global `exec.batch.phys_rows` counter: physical rows backing those
    /// batches. `rows / phys_rows` is the mean selection density.
    pub batch_phys_rows: Arc<Counter>,
}

impl ExecObs {
    /// Build an obs context for one attempt, resolving the global metric
    /// handles up front.
    pub fn new(trace: Arc<Trace>, attempt: Arc<AttemptStats>) -> ExecObs {
        let reg = ic_common::obs::MetricsRegistry::global();
        ExecObs {
            trace,
            attempt,
            op_rows: reg.counter("exec.op.rows"),
            op_batches: reg.counter("exec.op.batches"),
            batch_batches: reg.counter("exec.batch.batches"),
            batch_rows: reg.counter("exec.batch.rows"),
            batch_phys_rows: reg.counter("exec.batch.phys_rows"),
        }
    }
}

/// Shared per-query control: wall-clock deadline (the paper's runtime
/// limit), a cancellation flag set when any fragment fails, and the
/// query's [`MemoryLease`] on the cluster's shared pool. All buffered
/// operator state is accounted through the lease — never through a
/// private counter (ic-lint rule L006).
#[derive(Debug)]
pub struct ControlBlock {
    pub deadline: Option<Instant>,
    pub cancelled: AtomicBool,
    pub limit_ms: u64,
    lease: MemoryLease,
    obs: Option<ExecObs>,
}

impl ControlBlock {
    pub fn new(deadline: Option<Instant>, limit_ms: u64) -> Arc<ControlBlock> {
        Self::with_memory_limit(deadline, limit_ms, u64::MAX)
    }

    /// Standalone form: a private unbounded pool so only the per-query
    /// limit applies (tests, direct `execute_plan` callers without a
    /// governor).
    pub fn with_memory_limit(
        deadline: Option<Instant>,
        limit_ms: u64,
        memory_limit_rows: u64,
    ) -> Arc<ControlBlock> {
        Self::with_lease(deadline, limit_ms, MemoryPool::unbounded().lease(memory_limit_rows))
    }

    /// Governed form: account this query against a shared-pool lease.
    pub fn with_lease(
        deadline: Option<Instant>,
        limit_ms: u64,
        lease: MemoryLease,
    ) -> Arc<ControlBlock> {
        Self::with_lease_obs(deadline, limit_ms, lease, None)
    }

    /// Governed + traced form: as [`ControlBlock::with_lease`], with an
    /// optional observability context the operator open/next/close hooks
    /// report into.
    pub fn with_lease_obs(
        deadline: Option<Instant>,
        limit_ms: u64,
        lease: MemoryLease,
        obs: Option<ExecObs>,
    ) -> Arc<ControlBlock> {
        Arc::new(ControlBlock {
            deadline,
            cancelled: AtomicBool::new(false),
            limit_ms,
            lease,
            obs,
        })
    }

    /// Account for a batch buffered in operator state (cells = rows × width).
    pub fn reserve_batch(&self, batch: &ColumnBatch) -> IcResult<()> {
        self.reserve(batch.cells())
    }

    /// Account for `n` buffered cells against the query's memory lease.
    /// A failed reservation (per-query limit, pool exhaustion, or lease
    /// revocation) cancels the whole query.
    pub fn reserve(&self, n: usize) -> IcResult<()> {
        match self.lease.reserve(n as u64) {
            Ok(()) => Ok(()),
            Err(e) => {
                self.cancel();
                Err(e)
            }
        }
    }

    /// Check for revocation/timeout/cancellation; call this in every
    /// operator loop — it is the cooperative batch-boundary point where a
    /// revoked query notices and unwinds.
    pub fn check(&self) -> IcResult<()> {
        if self.lease.is_revoked() {
            self.cancel();
            return Err(self.lease.revoked_error());
        }
        if self.cancelled.load(Ordering::Relaxed) {
            return Err(IcError::Exec("query cancelled".into()));
        }
        if let Some(d) = self.deadline {
            // ic-lint: allow(L007) because the deadline check reads the wall clock that defines the runtime cap, not a span timestamp
            if Instant::now() > d {
                return Err(IcError::ExecTimeout { limit_ms: self.limit_ms });
            }
        }
        Ok(())
    }

    /// The query's memory lease (for telemetry and final error mapping).
    pub fn lease(&self) -> &MemoryLease {
        &self.lease
    }

    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Relaxed);
    }

    /// Non-failing form of [`ControlBlock::check`]: has the query been
    /// cancelled or its deadline passed? Polled by in-flight network
    /// transfers so a long bandwidth sleep stops at the deadline.
    pub fn is_stopped(&self) -> bool {
        if self.cancelled.load(Ordering::Relaxed) {
            return true;
        }
        // ic-lint: allow(L007) because the deadline check reads the wall clock that defines the runtime cap, not a span timestamp
        self.deadline.is_some_and(|d| Instant::now() > d)
    }

    // ------------------------------------------- operator tracing hooks

    /// The query's observability context, if tracing is enabled.
    pub fn obs(&self) -> Option<&ExecObs> {
        self.obs.as_ref()
    }

    /// Open hook: the current trace-clock reading in nanoseconds (0 when
    /// untraced). Operators take this before and after work to attribute
    /// busy time; the trace clock is the only sanctioned time source here
    /// (ic-lint rule L007).
    pub fn op_now_ns(&self) -> u64 {
        self.obs.as_ref().map_or(0, |o| o.trace.now_ns())
    }

    /// Next hook: charge one `next_batch` call against plan node `node` —
    /// `rows` emitted, `busy_ns` inside the subtree, `produced` whether a
    /// batch came back. No-op when untraced.
    pub fn op_next(&self, node: u32, rows: u64, busy_ns: u64, produced: bool) {
        if let Some(o) = &self.obs {
            o.attempt.record_next(node, rows, busy_ns, produced);
        }
    }

    /// Close hook: record the operator instance's lifetime span and flush
    /// its totals to the global metrics registry. No-op when untraced.
    #[allow(clippy::too_many_arguments)]
    pub fn op_close(
        &self,
        node: u32,
        label: &str,
        lane: u32,
        parent: Option<SpanId>,
        open_ns: u64,
        rows: u64,
        batches: u64,
        busy_ns: u64,
    ) {
        if let Some(o) = &self.obs {
            o.op_rows.add(rows);
            o.op_batches.add(batches);
            o.trace.record_span(
                label,
                "operator",
                parent,
                lane,
                open_ns,
                o.trace.now_ns(),
                vec![("node", u64::from(node)), ("rows", rows), ("batches", batches), ("busy_ns", busy_ns)],
            );
        }
    }
}

/// Transparent tracing wrapper: decorates any [`RowSource`] with the
/// open/next/close hooks on the shared [`ControlBlock`]. Built only when
/// the query is traced, so untraced execution pays nothing.
pub struct TracedSource {
    inner: BoxedSource,
    ctrl: Arc<ControlBlock>,
    node: u32,
    label: String,
    lane: u32,
    parent: Option<SpanId>,
    open_ns: u64,
    rows: u64,
    batches: u64,
    /// Physical rows backing the emitted batches; `rows / phys_rows` is
    /// this operator's output selection density.
    phys_rows: u64,
    busy_ns: u64,
}

impl TracedSource {
    /// Wrap `inner` (the operator instance for plan node `node`), counting
    /// it as one runtime instance and opening its lifetime span.
    pub fn new(
        inner: BoxedSource,
        ctrl: Arc<ControlBlock>,
        node: u32,
        label: String,
        lane: u32,
        parent: Option<SpanId>,
    ) -> TracedSource {
        if let Some(o) = ctrl.obs() {
            o.attempt.record_instance(node);
        }
        let open_ns = ctrl.op_now_ns();
        TracedSource {
            inner,
            ctrl,
            node,
            label,
            lane,
            parent,
            open_ns,
            rows: 0,
            batches: 0,
            phys_rows: 0,
            busy_ns: 0,
        }
    }
}

impl RowSource for TracedSource {
    fn next_batch(&mut self) -> IcResult<Option<ColumnBatch>> {
        let t0 = self.ctrl.op_now_ns();
        let result = self.inner.next_batch();
        let dt = self.ctrl.op_now_ns().saturating_sub(t0);
        self.busy_ns += dt;
        let (rows, phys, produced) = match &result {
            Ok(Some(b)) => (b.num_rows() as u64, b.phys_rows() as u64, true),
            _ => (0, 0, false),
        };
        self.rows += rows;
        self.phys_rows += phys;
        self.batches += u64::from(produced);
        self.ctrl.op_next(self.node, rows, dt, produced);
        result
    }
}

impl Drop for TracedSource {
    fn drop(&mut self) {
        if let Some(o) = self.ctrl.obs() {
            if self.batches > 0 {
                o.batch_batches.add(self.batches);
                o.batch_rows.add(self.rows);
                o.batch_phys_rows.add(self.phys_rows);
            }
        }
        self.ctrl.op_close(
            self.node,
            &self.label,
            self.lane,
            self.parent,
            self.open_ns,
            self.rows,
            self.batches,
            self.busy_ns,
        );
    }
}

/// A pull-based columnar batch stream — the one interface between
/// operators.
pub trait RowSource: Send {
    /// The next batch, or `None` at end of stream.
    fn next_batch(&mut self) -> IcResult<Option<ColumnBatch>>;
}

pub type BoxedSource = Box<dyn RowSource>;

/// Drain a source into a row vector (the client rowset: each batch converts
/// to rows once, here).
pub fn drain(mut src: BoxedSource) -> IcResult<Vec<Row>> {
    let mut out = Vec::new();
    while let Some(b) = src.next_batch()? {
        out.extend(b.to_rows());
    }
    Ok(out)
}

// ----------------------------------------------------------------- sources

/// In-memory source (tests, Values): converts rows to columns at the
/// boundary, one batch per `BATCH_SIZE` chunk.
pub struct VecSource {
    rows: Vec<Row>,
    pos: usize,
}

impl VecSource {
    pub fn new(rows: Vec<Row>) -> VecSource {
        VecSource { rows, pos: 0 }
    }
}

impl RowSource for VecSource {
    fn next_batch(&mut self) -> IcResult<Option<ColumnBatch>> {
        if self.pos >= self.rows.len() {
            return Ok(None);
        }
        let end = (self.pos + BATCH_SIZE).min(self.rows.len());
        let batch = ColumnBatch::from_rows(&self.rows[self.pos..end]);
        self.pos = end;
        Ok(Some(batch))
    }
}

/// Scan over partition snapshots: each stored segment goes out as it is —
/// its columns `Arc`-cloned, nothing copied. Under §5.3.2 variant splitting
/// a splitter reads the whole partition but passes only every `n`-th tuple,
/// as a selection vector over the segment.
pub struct ScanSource {
    segments: Vec<Arc<Segment>>,
    next: usize,
    /// Scan-wide index of the first row of `segments[next]`.
    base: usize,
    /// (variant_id, total_variants); `None` passes everything.
    split: Option<(usize, usize)>,
    ctrl: Arc<ControlBlock>,
}

impl ScanSource {
    pub fn new(
        partitions: Vec<PartStore>,
        split: Option<(usize, usize)>,
        ctrl: Arc<ControlBlock>,
    ) -> ScanSource {
        let segments = partitions.iter().flat_map(|p| p.segments.iter().cloned()).collect();
        ScanSource { segments, next: 0, base: 0, split, ctrl }
    }
}

impl RowSource for ScanSource {
    fn next_batch(&mut self) -> IcResult<Option<ColumnBatch>> {
        while let Some(seg) = self.segments.get(self.next) {
            self.ctrl.check()?;
            self.next += 1;
            let base = self.base;
            self.base += seg.len();
            if let Some(b) = segment_rows(seg, 0, seg.len(), base, self.split) {
                return Ok(Some(b));
            }
        }
        Ok(None)
    }
}

/// Rows `[lo, hi)` of a stored segment as a batch: the stored columns
/// themselves when the whole segment passes, else a selection over them.
/// `base` is the scan-wide index of row `lo`; a splitter `(vid, n)` keeps
/// the rows whose scan-wide index is `vid` mod `n`, so the same tuples pass
/// whichever lane reads them. `None` when no row passes.
pub(crate) fn segment_rows(
    seg: &Segment,
    lo: usize,
    hi: usize,
    base: usize,
    split: Option<(usize, usize)>,
) -> Option<ColumnBatch> {
    match split {
        None if lo == 0 && hi == seg.len() => Some(seg.batch.clone()),
        None => Some(seg.batch.slice_logical(lo, hi - lo)),
        Some((vid, n)) => {
            let sel: Vec<u32> =
                (lo..hi).filter(|i| (base + i - lo) % n == vid).map(|i| i as u32).collect();
            (!sel.is_empty()).then(|| seg.batch.with_sel(sel))
        }
    }
}

/// K-way merge over per-partition index runs (index scans at sites holding
/// several partitions), gathering the rows from the stored columns.
/// Variant splitting preserves order (a subsequence of a sorted run is
/// sorted).
pub struct MergingIndexScan {
    /// Each run with the snapshot its positions index, and its cursor.
    runs: Vec<(Arc<SortedRun>, PartStore, usize)>,
    split: Option<(usize, usize)>,
    counter: usize,
    ctrl: Arc<ControlBlock>,
}

impl MergingIndexScan {
    pub fn new(
        runs: Vec<(Arc<SortedRun>, PartStore)>,
        split: Option<(usize, usize)>,
        ctrl: Arc<ControlBlock>,
    ) -> MergingIndexScan {
        let runs = runs.into_iter().map(|(run, store)| (run, store, 0)).collect();
        MergingIndexScan { runs, split, counter: 0, ctrl }
    }

    /// The run holding the smallest current key; the earliest run wins
    /// ties. A linear scan: runs are the partitions of one site.
    fn min_run(&self) -> Option<usize> {
        let mut best: Option<usize> = None;
        for (r, (run, _, pos)) in self.runs.iter().enumerate() {
            let Some(&at) = run.positions.get(*pos) else { continue };
            best = match best {
                Some(b) => {
                    let (brun, _, bpos) = &self.runs[b];
                    Some(if run.cmp(at, brun, brun.positions[*bpos]).is_lt() { r } else { b })
                }
                None => Some(r),
            };
        }
        best
    }
}

impl MergingIndexScan {
    /// The next batch's rows in merge order, as `(run, segment, row)`.
    fn pick(&mut self) -> IcResult<Vec<(usize, u32, u32)>> {
        self.ctrl.check()?;
        let mut picked = Vec::with_capacity(BATCH_SIZE);
        while picked.len() < BATCH_SIZE {
            let Some(r) = self.min_run() else { break };
            let (run, _, pos) = &mut self.runs[r];
            let (s, i) = run.positions[*pos];
            *pos += 1;
            let keep = self.split.is_none_or(|(vid, n)| self.counter % n == vid);
            self.counter += 1;
            if keep {
                picked.push((r, s, i));
            }
        }
        Ok(picked)
    }

    fn segment(&self, r: usize, s: u32) -> &ColumnBatch {
        &self.runs[r].1.segments[s as usize].batch
    }
}

impl RowSource for MergingIndexScan {
    fn next_batch(&mut self) -> IcResult<Option<ColumnBatch>> {
        let picked = self.pick()?;
        let Some(&(r0, s0, _)) = picked.first() else { return Ok(None) };
        let columns = (0..self.segment(r0, s0).width())
            .map(|c| {
                let mut b = ColumnBuilder::new();
                for &(r, s, i) in &picked {
                    b.push_from_column(self.segment(r, s).col(c), i as usize);
                }
                Arc::new(b.finish())
            })
            .collect();
        Ok(Some(ColumnBatch::new(columns, picked.len())))
    }
}

// ------------------------------------------------------------ row shapers

/// Filter: vectorized predicate evaluation that never materializes — the
/// surviving rows are expressed as a (composed) selection vector over the
/// input batch's physical columns.
pub struct FilterExec {
    pub input: BoxedSource,
    pub predicate: Expr,
    pub ctrl: Arc<ControlBlock>,
}

impl FilterExec {
    pub fn new(input: BoxedSource, predicate: Expr, ctrl: Arc<ControlBlock>) -> FilterExec {
        FilterExec { input, predicate, ctrl }
    }
}

impl RowSource for FilterExec {
    fn next_batch(&mut self) -> IcResult<Option<ColumnBatch>> {
        loop {
            self.ctrl.check()?;
            let Some(batch) = self.input.next_batch()? else { return Ok(None) };
            let sel = eval_filter_sel(&self.predicate, &batch)?;
            if sel.len() == batch.num_rows() {
                return Ok(Some(batch));
            }
            if !sel.is_empty() {
                return Ok(Some(batch.select_logical(&sel)));
            }
        }
    }
}

/// Projection: bare column references share the input column `Arc`s (and
/// keep the selection vector untouched); computed expressions run through
/// the vectorized evaluator one output column at a time.
pub struct ProjectExec {
    pub input: BoxedSource,
    pub exprs: Vec<Expr>,
    pub ctrl: Arc<ControlBlock>,
    /// When every expression is a bare column reference, the column indices
    /// — projection is then an `Arc` clone per column, no evaluator
    /// dispatch and no data movement.
    cols: Option<Vec<usize>>,
}

impl ProjectExec {
    pub fn new(input: BoxedSource, exprs: Vec<Expr>, ctrl: Arc<ControlBlock>) -> ProjectExec {
        let cols = exprs
            .iter()
            .map(|e| match e {
                Expr::Col(c) => Some(*c),
                _ => None,
            })
            .collect::<Option<Vec<usize>>>();
        ProjectExec { input, exprs, ctrl, cols }
    }
}

impl RowSource for ProjectExec {
    fn next_batch(&mut self) -> IcResult<Option<ColumnBatch>> {
        self.ctrl.check()?;
        let Some(batch) = self.input.next_batch()? else { return Ok(None) };
        if let Some(cols) = &self.cols {
            return Ok(Some(batch.project_cols(cols)));
        }
        let out: Vec<Arc<Column>> =
            self.exprs.iter().map(|e| eval_expr(e, &batch)).collect::<IcResult<_>>()?;
        Ok(Some(ColumnBatch::new(out, batch.num_rows())))
    }
}

// ----------------------------------------------------------------- joins

/// Push `pairs[start..]` through [`gather_join_output`] in batch-sized
/// segments, cutting only at probe-row boundaries so one probe row's match
/// run is never split across output batches.
fn emit_pair_segments(
    probe: &ColumnBatch,
    pks: &[u32],
    arena: &ColumnBatch,
    bis: &[u32],
    out: &mut VecDeque<ColumnBatch>,
) {
    let mut start = 0;
    while start < pks.len() {
        let mut end = (start + BATCH_SIZE).min(pks.len());
        while end < pks.len() && pks[end] == pks[end - 1] {
            end += 1;
        }
        out.push_back(gather_join_output(probe, &pks[start..end], arena, &bis[start..end]));
        start = end;
    }
}

/// The output half every join shares. `pks`/`bis` are the key matches of
/// probe rows `rows` (logical indices into `probe`), in probe-row order,
/// with build rows indexing `arena` — whichever pair generator found them.
/// The residual runs vectorized over the gathered pairs; the survivors are
/// regrouped per probe row, where LEFT joins null-extend a row with no
/// surviving match (a `NIL` build index) and SEMI/ANTI joins keep a
/// selection over the probe batch instead of materializing pairs.
fn emit_join(
    kind: JoinKind,
    probe: &ColumnBatch,
    rows: Range<usize>,
    (pks, bis): (Vec<u32>, Vec<u32>),
    arena: &ColumnBatch,
    residual: Option<&Expr>,
    out: &mut VecDeque<ColumnBatch>,
) -> IcResult<()> {
    let pass = match residual {
        Some(res) => {
            let joined = gather_join_output(probe, &pks, arena, &bis);
            let mut pass = vec![false; pks.len()];
            for j in eval_filter_sel(res, &joined)? {
                pass[j as usize] = true;
            }
            Some(pass)
        }
        None => None,
    };
    if kind == JoinKind::Inner && pass.is_none() {
        emit_pair_segments(probe, &pks, arena, &bis, out);
        return Ok(());
    }
    let passed = |i: usize| pass.as_ref().is_none_or(|p| p[i]);
    let (mut out_pks, mut out_bis) = (Vec::new(), Vec::new());
    let mut i = 0;
    for k in rows {
        let k = k as u32;
        let mut any = false;
        while i < pks.len() && pks[i] == k {
            if passed(i) {
                any = true;
                if matches!(kind, JoinKind::Inner | JoinKind::Left) {
                    out_pks.push(k);
                    out_bis.push(bis[i]);
                }
            }
            i += 1;
        }
        match kind {
            JoinKind::Left if !any => {
                out_pks.push(k);
                out_bis.push(NIL);
            }
            JoinKind::Semi | JoinKind::Anti if any == (kind == JoinKind::Semi) => out_pks.push(k),
            _ => {}
        }
    }
    match kind {
        JoinKind::Inner | JoinKind::Left => emit_pair_segments(probe, &out_pks, arena, &out_bis, out),
        JoinKind::Semi | JoinKind::Anti if !out_pks.is_empty() => {
            out.push_back(probe.select_logical(&out_pks));
        }
        JoinKind::Semi | JoinKind::Anti => {}
    }
    Ok(())
}

/// Buffer a join's right input as one dense arena, accounted against the
/// query's memory lease.
fn buffer_arena(src: &mut BoxedSource, width: usize, ctrl: &ControlBlock) -> IcResult<ColumnBatch> {
    let mut batches = Vec::new();
    while let Some(b) = src.next_batch()? {
        ctrl.check()?;
        ctrl.reserve_batch(&b)?;
        batches.push(b);
    }
    Ok(if batches.is_empty() { ColumnBatch::empty(width) } else { ColumnBatch::concat(&batches) })
}

/// `None` for an always-true join condition (no residual to evaluate).
fn residual_of(e: Expr) -> Option<Expr> {
    (!e.is_true_literal()).then_some(e)
}

/// The left batch a streaming join (merge, nested loop) is working through
/// and the next row of it to pair, refilled from `left` once every row is
/// paired; `None` at the end of the left input.
fn left_rows<'a>(
    current: &'a mut Option<(ColumnBatch, usize)>,
    left: &mut BoxedSource,
) -> IcResult<Option<&'a mut (ColumnBatch, usize)>> {
    if current.as_ref().is_none_or(|(b, pos)| *pos >= b.num_rows()) {
        match left.next_batch()? {
            Some(b) => *current = Some((b, 0)),
            None => return Ok(None),
        }
    }
    Ok(current.as_mut())
}

/// Nested-loop join: buffers the right side as an arena and streams the
/// left. Each step pairs a chunk of `max(1, BATCH_SIZE / right rows)` left
/// rows with every right row and evaluates `on` over those pairs as the
/// (vectorized) residual, so neither the pairs nor the output of one step
/// exceed `max(BATCH_SIZE, right rows)` rows.
pub struct NestedLoopJoinExec {
    left: BoxedSource,
    right: BoxedSource,
    kind: JoinKind,
    on: Option<Expr>,
    right_arity: usize,
    arena: Option<ColumnBatch>,
    /// The left batch being joined and the next row of it to pair.
    current: Option<(ColumnBatch, usize)>,
    output: VecDeque<ColumnBatch>,
    ctrl: Arc<ControlBlock>,
}

impl NestedLoopJoinExec {
    pub fn new(
        left: BoxedSource,
        right: BoxedSource,
        kind: JoinKind,
        on: Expr,
        right_arity: usize,
        ctrl: Arc<ControlBlock>,
    ) -> Self {
        NestedLoopJoinExec {
            left,
            right,
            kind,
            on: residual_of(on),
            right_arity,
            arena: None,
            current: None,
            output: VecDeque::new(),
            ctrl,
        }
    }
}

impl RowSource for NestedLoopJoinExec {
    fn next_batch(&mut self) -> IcResult<Option<ColumnBatch>> {
        if self.arena.is_none() {
            self.arena = Some(buffer_arena(&mut self.right, self.right_arity, &self.ctrl)?);
        }
        let Some(arena) = self.arena.as_ref() else {
            return Err(IcError::Internal("nested-loop join: arena missing after build phase".into()));
        };
        loop {
            self.ctrl.check()?;
            if let Some(b) = self.output.pop_front() {
                return Ok(Some(b));
            }
            let Some((batch, pos)) = left_rows(&mut self.current, &mut self.left)? else {
                return Ok(None);
            };
            let chunk = match arena.num_rows() {
                0 => batch.num_rows(),
                n => (BATCH_SIZE / n).max(1),
            };
            let rows = *pos..(*pos + chunk).min(batch.num_rows());
            *pos = rows.end;
            let pairs = cross_pairs(rows.clone(), arena.num_rows());
            emit_join(self.kind, batch, rows, pairs, arena, self.on.as_ref(), &mut self.output)?;
        }
    }
}

/// Hash join (§5.1.2): builds on the right input, probes with the left —
/// fully columnar on both sides.
///
/// The build side goes into a [`ColJoinTable`]: batches are appended
/// column-wise into a contiguous arena and chained by 64-bit key hash, so
/// the build loop never clones a key datum. Probes hash the key columns
/// vectorized and walk each chain with typed column-vs-column equality to
/// produce `(probe row, arena row)` pairs for [`emit_join`]. SEMI/ANTI joins
/// without a residual skip pairs entirely — one match flag per probe row.
/// Chains preserve build insertion order, so output order is deterministic.
pub struct HashJoinExec {
    pub left: BoxedSource,
    pub right: BoxedSource,
    pub kind: JoinKind,
    pub left_keys: Vec<usize>,
    pub right_keys: Vec<usize>,
    residual: Option<Expr>,
    pub right_arity: usize,
    table: Option<ColJoinTable>,
    /// Output batches for the probe batch being processed (pairs are
    /// segmented at batch-size boundaries without splitting a probe row's
    /// match run).
    output: VecDeque<ColumnBatch>,
    /// Probe rows consumed so far; flushed to `exec.join.probe_rows` once
    /// on drop so the hot loop only bumps a local integer.
    probed: u64,
    pub ctrl: Arc<ControlBlock>,
}

impl HashJoinExec {
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        left: BoxedSource,
        right: BoxedSource,
        kind: JoinKind,
        left_keys: Vec<usize>,
        right_keys: Vec<usize>,
        residual: Expr,
        right_arity: usize,
        ctrl: Arc<ControlBlock>,
    ) -> Self {
        HashJoinExec {
            left,
            right,
            kind,
            left_keys,
            right_keys,
            residual: residual_of(residual),
            right_arity,
            table: None,
            output: VecDeque::new(),
            probed: 0,
            ctrl,
        }
    }
}

impl Drop for HashJoinExec {
    fn drop(&mut self) {
        if self.probed > 0 {
            ic_common::obs::MetricsRegistry::global()
                .counter("exec.join.probe_rows")
                .add(self.probed);
        }
    }
}

/// Probe one batch against the build table, appending output batches.
fn probe_batch(
    table: &ColJoinTable,
    kind: JoinKind,
    left_keys: &[usize],
    residual: Option<&Expr>,
    batch: &ColumnBatch,
    out: &mut VecDeque<ColumnBatch>,
) -> IcResult<()> {
    if residual.is_none() && matches!(kind, JoinKind::Semi | JoinKind::Anti) {
        // Selection-only path: a match flag per probe row, no pairs.
        let want = kind == JoinKind::Semi;
        let keep: Vec<u32> = table
            .probe_matched(batch, left_keys)
            .iter()
            .enumerate()
            .filter_map(|(k, &m)| (m == want).then_some(k as u32))
            .collect();
        if !keep.is_empty() {
            out.push_back(batch.select_logical(&keep));
        }
        return Ok(());
    }
    let pairs = table.probe_pairs(batch, left_keys);
    emit_join(kind, batch, 0..batch.num_rows(), pairs, table.arena(), residual, out)
}

impl RowSource for HashJoinExec {
    fn next_batch(&mut self) -> IcResult<Option<ColumnBatch>> {
        if self.table.is_none() {
            // Build phase: batches append column-wise into the arena; rows
            // with NULL key columns are skipped (they never match).
            let mut table = ColJoinTable::new(self.right_keys.clone(), self.right_arity);
            while let Some(b) = self.right.next_batch()? {
                self.ctrl.check()?;
                self.ctrl.reserve_batch(&b)?;
                table.insert_batch(&b);
            }
            table.finish_build();
            ic_common::obs::MetricsRegistry::global()
                .counter("exec.join.build_rows")
                .add(table.len() as u64);
            self.table = Some(table);
        }
        loop {
            self.ctrl.check()?;
            if let Some(b) = self.output.pop_front() {
                return Ok(Some(b));
            }
            let Some(batch) = self.left.next_batch()? else { return Ok(None) };
            self.probed += batch.num_rows() as u64;
            let Some(table) = self.table.as_ref() else {
                return Err(IcError::Internal("hash join: hash table missing after build phase".into()));
            };
            probe_batch(table, self.kind, &self.left_keys, self.residual.as_ref(), &batch, &mut self.output)?;
        }
    }
}

/// Probe side of a hash join whose build table is shared, read-only,
/// across pipeline lanes (morsel-parallel execution): the driver resolves
/// the build once behind the build barrier, every lane probes the same
/// [`ColJoinTable`] through the same vectorized [`probe_batch`] path as
/// [`HashJoinExec`].
pub struct SharedProbeExec {
    input: BoxedSource,
    table: Arc<ColJoinTable>,
    kind: JoinKind,
    left_keys: Vec<usize>,
    residual: Option<Expr>,
    output: VecDeque<ColumnBatch>,
    /// Probe rows consumed; flushed to `exec.join.probe_rows` on drop.
    probed: u64,
    ctrl: Arc<ControlBlock>,
}

impl SharedProbeExec {
    pub fn new(
        input: BoxedSource,
        table: Arc<ColJoinTable>,
        kind: JoinKind,
        left_keys: Vec<usize>,
        residual: Expr,
        ctrl: Arc<ControlBlock>,
    ) -> SharedProbeExec {
        SharedProbeExec {
            input,
            table,
            kind,
            left_keys,
            residual: residual_of(residual),
            output: VecDeque::new(),
            probed: 0,
            ctrl,
        }
    }
}

impl Drop for SharedProbeExec {
    fn drop(&mut self) {
        if self.probed > 0 {
            ic_common::obs::MetricsRegistry::global()
                .counter("exec.join.probe_rows")
                .add(self.probed);
        }
    }
}

impl RowSource for SharedProbeExec {
    fn next_batch(&mut self) -> IcResult<Option<ColumnBatch>> {
        loop {
            self.ctrl.check()?;
            if let Some(b) = self.output.pop_front() {
                return Ok(Some(b));
            }
            let Some(batch) = self.input.next_batch()? else { return Ok(None) };
            self.probed += batch.num_rows() as u64;
            probe_batch(
                &self.table,
                self.kind,
                &self.left_keys,
                self.residual.as_ref(),
                &batch,
                &mut self.output,
            )?;
        }
    }
}

/// Merge join: both inputs sorted ascending on the keys. The right side is
/// buffered once as a dense arena; the left streams batch by batch while a
/// cursor walks the arena with typed `cmp_at`/`eq_at` comparisons (ordering
/// values as `Datum::cmp` does; NULL keys match nothing). Output follows
/// left order, so the collation the planner promised still holds above the
/// join. Each step pairs left rows until about `BATCH_SIZE` pairs are found,
/// and the emitted batches are charged to the query's lease: a many-to-many
/// merge over a low-cardinality key is where join output explodes, and the
/// lease turns that into `MemoryLimit` instead of host memory exhaustion.
pub struct MergeJoinExec {
    left: BoxedSource,
    right: BoxedSource,
    kind: JoinKind,
    left_keys: Vec<usize>,
    right_keys: Vec<usize>,
    residual: Option<Expr>,
    right_arity: usize,
    arena: Option<ColumnBatch>,
    /// First arena row whose key is not below the last probed left key.
    cursor: usize,
    /// The left batch being joined and the next row of it to pair.
    current: Option<(ColumnBatch, usize)>,
    output: VecDeque<ColumnBatch>,
    ctrl: Arc<ControlBlock>,
}

impl MergeJoinExec {
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        left: BoxedSource,
        right: BoxedSource,
        kind: JoinKind,
        left_keys: Vec<usize>,
        right_keys: Vec<usize>,
        residual: Expr,
        right_arity: usize,
        ctrl: Arc<ControlBlock>,
    ) -> Self {
        MergeJoinExec {
            left,
            right,
            kind,
            left_keys,
            right_keys,
            residual: residual_of(residual),
            right_arity,
            arena: None,
            cursor: 0,
            current: None,
            output: VecDeque::new(),
            ctrl,
        }
    }
}

impl RowSource for MergeJoinExec {
    fn next_batch(&mut self) -> IcResult<Option<ColumnBatch>> {
        if self.arena.is_none() {
            self.arena = Some(buffer_arena(&mut self.right, self.right_arity, &self.ctrl)?);
        }
        let Some(arena) = self.arena.as_ref() else {
            return Err(IcError::Internal("merge join: arena missing after build phase".into()));
        };
        loop {
            self.ctrl.check()?;
            if let Some(b) = self.output.pop_front() {
                return Ok(Some(b));
            }
            let Some((batch, pos)) = left_rows(&mut self.current, &mut self.left)? else {
                return Ok(None);
            };
            let (pairs, end) =
                merge_join_pairs(batch, *pos, &self.left_keys, arena, &self.right_keys, &mut self.cursor);
            let rows = *pos..end;
            *pos = end;
            let emitted = self.output.len();
            emit_join(self.kind, batch, rows, pairs, arena, self.residual.as_ref(), &mut self.output)?;
            for b in self.output.range(emitted..) {
                self.ctrl.reserve_batch(b)?;
            }
        }
    }
}

// ------------------------------------------------------------- aggregates

/// Fold one input batch into `groups`, given each row's group slot: typed
/// per-column loops for `Complete`/`Partial`, a row-wise merge of the
/// accumulator states for `Final` (state rows are short and heterogeneous).
fn fold_batch(
    phase: AggPhase,
    group_len: usize,
    aggs: &[AggCall],
    groups: &mut ColGroupTable,
    batch: &ColumnBatch,
    slots: &[u32],
) -> IcResult<()> {
    match phase {
        AggPhase::Complete | AggPhase::Partial => {
            for (j, call) in aggs.iter().enumerate() {
                match &call.arg {
                    // Physical input columns fold directly through the
                    // batch's selection vector.
                    Some(Expr::Col(c)) => groups.accumulate(j, batch.col(*c), batch.selection(), slots)?,
                    // Computed arguments evaluate vectorized into a
                    // logically dense column first.
                    Some(e) => groups.accumulate(j, &*eval_expr(e, batch)?, None, slots)?,
                    None => groups.accumulate_count_star(j, slots)?,
                }
            }
        }
        AggPhase::Final => {
            // Row layout: group keys then accumulator states.
            for (k, &slot) in slots.iter().enumerate() {
                let row = batch.row_at(k);
                let mut pos = group_len;
                for (acc, call) in groups.accs_mut(slot as usize).iter_mut().zip(aggs) {
                    let w = Accumulator::state_width(call.func);
                    acc.merge(Accumulator::from_state(call.func, &row.0[pos..pos + w])?)?;
                    pos += w;
                }
            }
        }
    }
    Ok(())
}

/// Emit groups `slots` of `groups` as one batch: key columns, then the
/// finished values (`Complete`/`Final`) or the accumulator states
/// (`Partial`).
fn emit_groups(phase: AggPhase, groups: &mut ColGroupTable, slots: Range<usize>) -> ColumnBatch {
    let n = slots.len();
    let mut builders: Vec<ColumnBuilder> = Vec::new();
    for slot in slots {
        let (key, accs) = groups.take_group(slot);
        let mut c = 0;
        let mut push = |d: Datum| {
            if c == builders.len() {
                builders.push(ColumnBuilder::new());
            }
            builders[c].push_datum(d);
            c += 1;
        };
        key.into_iter().for_each(&mut push);
        for acc in accs {
            match phase {
                AggPhase::Complete | AggPhase::Final => push(acc.finish()),
                AggPhase::Partial => acc.to_state().into_iter().for_each(&mut push),
            }
        }
    }
    ColumnBatch::new(builders.into_iter().map(|b| Arc::new(b.finish())).collect(), n)
}

/// Hash aggregate in any phase (§3.2's map-reduce split) — columnar build.
///
/// Groups live in a [`ColGroupTable`]: each input batch is resolved to
/// group slots in one vectorized-hash pass (key datums are cloned exactly
/// once, at first sight of each group), then [`fold_batch`] folds it. Output
/// is emitted lazily in batch-sized chunks, one per `next_batch` call, so
/// buffered state stays at the (already reserved) group table instead of
/// doubling into an output queue.
pub struct HashAggExec {
    pub input: BoxedSource,
    pub group: Vec<usize>,
    pub aggs: Vec<AggCall>,
    pub phase: AggPhase,
    pub ctrl: Arc<ControlBlock>,
    groups: Option<ColGroupTable>,
    emit_pos: usize,
}

impl HashAggExec {
    pub fn new(
        input: BoxedSource,
        group: Vec<usize>,
        aggs: Vec<AggCall>,
        phase: AggPhase,
        ctrl: Arc<ControlBlock>,
    ) -> Self {
        HashAggExec { input, group, aggs, phase, ctrl, groups: None, emit_pos: 0 }
    }

    fn build(&mut self) -> IcResult<ColGroupTable> {
        let mut groups = ColGroupTable::new(self.group.clone(), self.aggs.len());
        let mut slots: Vec<u32> = Vec::new();
        while let Some(batch) = self.input.next_batch()? {
            self.ctrl.check()?;
            let before = groups.len();
            groups.slots_for_batch(&batch, &self.aggs, &mut slots);
            fold_batch(self.phase, self.group.len(), &self.aggs, &mut groups, &batch, &slots)?;
            let width = self.group.len() + self.aggs.len() * 2 + 1;
            self.ctrl.reserve((groups.len() - before) * width)?;
        }
        // Scalar aggregates emit one row even on empty input.
        if self.group.is_empty() {
            groups.ensure_scalar_group(&self.aggs);
        }
        ic_common::obs::MetricsRegistry::global()
            .counter("exec.agg.groups")
            .add(groups.len() as u64);
        Ok(groups)
    }
}

impl RowSource for HashAggExec {
    fn next_batch(&mut self) -> IcResult<Option<ColumnBatch>> {
        if self.groups.is_none() {
            self.groups = Some(self.build()?);
        }
        self.ctrl.check()?;
        let Some(groups) = self.groups.as_mut() else {
            return Err(IcError::Internal("hash agg: group table missing after build phase".into()));
        };
        if self.emit_pos >= groups.len() {
            return Ok(None);
        }
        let end = (self.emit_pos + BATCH_SIZE).min(groups.len());
        let out = emit_groups(self.phase, groups, self.emit_pos..end);
        self.emit_pos = end;
        Ok(Some(out))
    }
}

/// Streaming aggregate over input sorted on the group keys (the paper's
/// "sort-based aggregation on an already sorted input", §6.2.1 / Q14). Rows
/// find their group by comparing keys with the previous row's (typed, no
/// hashing) and fold through the same [`fold_batch`] loops as
/// [`HashAggExec`]. After each input batch the groups that closed are
/// emitted, so the state between batches is one open group, which a group
/// straddling the batch boundary continues.
pub struct SortAggExec {
    input: BoxedSource,
    group: Vec<usize>,
    aggs: Vec<AggCall>,
    phase: AggPhase,
    groups: ColGroupTable,
    slots: Vec<u32>,
    exhausted: bool,
    ctrl: Arc<ControlBlock>,
}

impl SortAggExec {
    pub fn new(
        input: BoxedSource,
        group: Vec<usize>,
        aggs: Vec<AggCall>,
        phase: AggPhase,
        ctrl: Arc<ControlBlock>,
    ) -> Self {
        let groups = ColGroupTable::new(group.clone(), aggs.len());
        SortAggExec { input, group, aggs, phase, groups, slots: Vec::new(), exhausted: false, ctrl }
    }
}

impl RowSource for SortAggExec {
    fn next_batch(&mut self) -> IcResult<Option<ColumnBatch>> {
        while !self.exhausted {
            self.ctrl.check()?;
            let Some(batch) = self.input.next_batch()? else {
                self.exhausted = true;
                if self.group.is_empty() {
                    self.groups.ensure_scalar_group(&self.aggs);
                }
                let open = self.groups.len();
                return Ok((open > 0).then(|| emit_groups(self.phase, &mut self.groups, 0..open)));
            };
            self.groups.slots_for_sorted_batch(&batch, &self.aggs, &mut self.slots);
            fold_batch(self.phase, self.group.len(), &self.aggs, &mut self.groups, &batch, &self.slots)?;
            let closed = self.groups.len().saturating_sub(1);
            if closed > 0 {
                let out = emit_groups(self.phase, &mut self.groups, 0..closed);
                self.groups.retain_last_group();
                return Ok(Some(out));
            }
        }
        Ok(None)
    }
}

// ------------------------------------------------------- sort/limit/values

/// Sort: concatenates input batches column-wise into one dense batch,
/// computes a sort permutation over the key columns (typed `cmp_at`
/// comparisons, no key decoration buffer), and emits batch-sized selection
/// views over the dense batch — output batches share the sorted data via
/// `Arc`, nothing is re-materialized.
pub struct SortExec {
    pub input: BoxedSource,
    pub keys: Vec<SortKey>,
    pub ctrl: Arc<ControlBlock>,
    done: bool,
    output: VecDeque<ColumnBatch>,
}

impl SortExec {
    pub fn new(input: BoxedSource, keys: Vec<SortKey>, ctrl: Arc<ControlBlock>) -> SortExec {
        SortExec { input, keys, ctrl, done: false, output: Default::default() }
    }
}

impl RowSource for SortExec {
    fn next_batch(&mut self) -> IcResult<Option<ColumnBatch>> {
        if !self.done {
            let mut builders: Option<Vec<ColumnBuilder>> = None;
            let mut total = 0usize;
            while let Some(b) = self.input.next_batch()? {
                self.ctrl.check()?;
                self.ctrl.reserve_batch(&b)?;
                let bs = builders
                    .get_or_insert_with(|| (0..b.width()).map(|_| ColumnBuilder::new()).collect());
                for (bld, col) in bs.iter_mut().zip(b.columns()) {
                    bld.append_column(col, b.selection());
                }
                total += b.num_rows();
            }
            if let Some(bs) = builders {
                let cols: Vec<Arc<Column>> =
                    bs.into_iter().map(|b| Arc::new(b.finish())).collect();
                let dense = ColumnBatch::new(cols, total);
                let order = crate::kernels::sort_permutation(&dense, &self.keys);
                for chunk in order.chunks(BATCH_SIZE) {
                    self.output.push_back(dense.with_sel(chunk.to_vec()));
                }
            }
            self.done = true;
        }
        Ok(self.output.pop_front())
    }
}

/// Limit/offset: pure slicing of the logical row range — no data movement.
pub struct LimitExec {
    pub input: BoxedSource,
    pub fetch: Option<u64>,
    pub offset: u64,
    skipped: u64,
    emitted: u64,
    pub ctrl: Arc<ControlBlock>,
}

impl LimitExec {
    pub fn new(input: BoxedSource, fetch: Option<u64>, offset: u64, ctrl: Arc<ControlBlock>) -> Self {
        LimitExec { input, fetch, offset, skipped: 0, emitted: 0, ctrl }
    }
}

impl RowSource for LimitExec {
    fn next_batch(&mut self) -> IcResult<Option<ColumnBatch>> {
        loop {
            self.ctrl.check()?;
            if let Some(f) = self.fetch {
                if self.emitted >= f {
                    return Ok(None);
                }
            }
            let Some(batch) = self.input.next_batch()? else { return Ok(None) };
            let n = batch.num_rows() as u64;
            let skip = (self.offset - self.skipped).min(n);
            self.skipped += skip;
            let mut take = n - skip;
            if let Some(f) = self.fetch {
                take = take.min(f - self.emitted);
            }
            if take == 0 {
                continue;
            }
            self.emitted += take;
            return Ok(Some(batch.slice_logical(skip as usize, take as usize)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctrl() -> Arc<ControlBlock> {
        ControlBlock::new(None, 0)
    }

    fn rows(vals: &[&[i64]]) -> Vec<Row> {
        vals.iter()
            .map(|r| Row(r.iter().map(|&v| Datum::Int(v)).collect()))
            .collect()
    }

    fn src(vals: &[&[i64]]) -> BoxedSource {
        Box::new(VecSource::new(rows(vals)))
    }

    #[test]
    fn filter_and_project() {
        let f = FilterExec::new(
            src(&[&[1, 10], &[2, 20], &[3, 30]]),
            Expr::binary(ic_common::BinOp::Gt, Expr::col(0), Expr::lit(1i64)),
            ctrl(),
        );
        // Bare-column projection exercises the fast path.
        let p = ProjectExec::new(Box::new(f), vec![Expr::col(1)], ctrl());
        assert_eq!(drain(Box::new(p)).unwrap(), rows(&[&[20], &[30]]));
    }

    #[test]
    fn project_expression_path() {
        let p = ProjectExec::new(
            src(&[&[1, 10], &[2, 20]]),
            vec![Expr::binary(ic_common::BinOp::Add, Expr::col(0), Expr::col(1))],
            ctrl(),
        );
        assert_eq!(drain(Box::new(p)).unwrap(), rows(&[&[11], &[22]]));
    }

    #[test]
    fn hash_join_kinds() {
        let mk = |kind| {
            HashJoinExec::new(
                src(&[&[1], &[2], &[3]]),
                src(&[&[2, 20], &[3, 30], &[3, 31]]),
                kind,
                vec![0],
                vec![0],
                Expr::lit(true),
                2,
                ctrl(),
            )
        };
        assert_eq!(
            drain(Box::new(mk(JoinKind::Inner))).unwrap(),
            rows(&[&[2, 2, 20], &[3, 3, 30], &[3, 3, 31]])
        );
        let left = drain(Box::new(mk(JoinKind::Left))).unwrap();
        assert_eq!(left.len(), 4);
        assert!(left[0].0[1].is_null()); // 1 null-extended
        assert_eq!(drain(Box::new(mk(JoinKind::Semi))).unwrap(), rows(&[&[2], &[3]]));
        assert_eq!(drain(Box::new(mk(JoinKind::Anti))).unwrap(), rows(&[&[1]]));
    }

    #[test]
    fn hash_join_residual() {
        let hj = HashJoinExec::new(
            src(&[&[1, 5]]),
            src(&[&[1, 3], &[1, 9]]),
            JoinKind::Inner,
            vec![0],
            vec![0],
            // l.c1 > r.c1  (cols: l0 l1 r0 r1)
            Expr::binary(ic_common::BinOp::Gt, Expr::col(1), Expr::col(3)),
            2,
            ctrl(),
        );
        assert_eq!(drain(Box::new(hj)).unwrap(), rows(&[&[1, 5, 1, 3]]));
    }

    #[test]
    fn nlj_matches_hash_join() {
        let on = Expr::eq(Expr::col(0), Expr::col(1));
        let nlj = NestedLoopJoinExec::new(
            src(&[&[1], &[2], &[3]]),
            src(&[&[2], &[3]]),
            JoinKind::Inner,
            on,
            1,
            ctrl(),
        );
        assert_eq!(drain(Box::new(nlj)).unwrap(), rows(&[&[2, 2], &[3, 3]]));
    }

    #[test]
    fn merge_join_sorted_inputs() {
        let mj = MergeJoinExec::new(
            src(&[&[1], &[2], &[2], &[4]]),
            src(&[&[2, 20], &[3, 30], &[4, 40]]),
            JoinKind::Inner,
            vec![0],
            vec![0],
            Expr::lit(true),
            2,
            ctrl(),
        );
        assert_eq!(
            drain(Box::new(mj)).unwrap(),
            rows(&[&[2, 2, 20], &[2, 2, 20], &[4, 4, 40]])
        );
        // Anti join keeps unmatched left rows.
        let mj = MergeJoinExec::new(
            src(&[&[1], &[2], &[4]]),
            src(&[&[2, 0]]),
            JoinKind::Anti,
            vec![0],
            vec![0],
            Expr::lit(true),
            2,
            ctrl(),
        );
        assert_eq!(drain(Box::new(mj)).unwrap(), rows(&[&[1], &[4]]));
    }

    #[test]
    fn merge_join_output_is_charged_to_the_lease() {
        // 2 000 × 2 000 rows on one key: 4 M output rows. Charging the
        // emitted batches stops the join long before that.
        let same: Vec<Row> = (0..2000i64).map(|i| Row(vec![Datum::Int(7), Datum::Int(i)])).collect();
        let ctrl = ControlBlock::with_memory_limit(None, 0, 100_000);
        let mj = MergeJoinExec::new(
            Box::new(VecSource::new(same.clone())),
            Box::new(VecSource::new(same)),
            JoinKind::Inner,
            vec![0],
            vec![0],
            Expr::lit(true),
            2,
            ctrl,
        );
        assert!(matches!(drain(Box::new(mj)), Err(IcError::MemoryLimit { .. })));
    }

    #[test]
    fn hash_agg_complete() {
        use ic_common::agg::AggFunc;
        let agg = HashAggExec::new(
            src(&[&[1, 10], &[1, 20], &[2, 5]]),
            vec![0],
            vec![AggCall { func: AggFunc::Sum, arg: Some(Expr::col(1)), name: "s".into() }],
            AggPhase::Complete,
            ctrl(),
        );
        let mut out = drain(Box::new(agg)).unwrap();
        out.sort();
        assert_eq!(out, rows(&[&[1, 30], &[2, 5]]));
    }

    #[test]
    fn partial_final_roundtrip() {
        use ic_common::agg::AggFunc;
        let aggs = vec![
            AggCall { func: AggFunc::Avg, arg: Some(Expr::col(1)), name: "a".into() },
            AggCall { func: AggFunc::CountStar, arg: None, name: "c".into() },
        ];
        // Two partials over disjoint halves.
        let p1 = HashAggExec::new(
            src(&[&[1, 10], &[2, 8]]),
            vec![0],
            aggs.clone(),
            AggPhase::Partial,
            ctrl(),
        );
        let p2 = HashAggExec::new(
            src(&[&[1, 30]]),
            vec![0],
            aggs.clone(),
            AggPhase::Partial,
            ctrl(),
        );
        let mut partial_rows = drain(Box::new(p1)).unwrap();
        partial_rows.extend(drain(Box::new(p2)).unwrap());
        let fin = HashAggExec::new(
            Box::new(VecSource::new(partial_rows)),
            vec![0],
            aggs,
            AggPhase::Final,
            ctrl(),
        );
        let mut out = drain(Box::new(fin)).unwrap();
        out.sort();
        assert_eq!(
            out,
            vec![
                Row(vec![Datum::Int(1), Datum::Double(20.0), Datum::Int(2)]),
                Row(vec![Datum::Int(2), Datum::Double(8.0), Datum::Int(1)]),
            ]
        );
    }

    #[test]
    fn scalar_agg_empty_input() {
        use ic_common::agg::AggFunc;
        let agg = HashAggExec::new(
            src(&[]),
            vec![],
            vec![AggCall { func: AggFunc::CountStar, arg: None, name: "c".into() }],
            AggPhase::Complete,
            ctrl(),
        );
        assert_eq!(drain(Box::new(agg)).unwrap(), rows(&[&[0]]));
    }

    #[test]
    fn sort_agg_streams_groups() {
        use ic_common::agg::AggFunc;
        let agg = SortAggExec::new(
            src(&[&[1, 10], &[1, 20], &[2, 5], &[3, 1]]),
            vec![0],
            vec![AggCall { func: AggFunc::Max, arg: Some(Expr::col(1)), name: "m".into() }],
            AggPhase::Complete,
            ctrl(),
        );
        assert_eq!(drain(Box::new(agg)).unwrap(), rows(&[&[1, 20], &[2, 5], &[3, 1]]));
    }

    #[test]
    fn sort_and_limit() {
        let s = SortExec::new(
            src(&[&[3], &[1], &[2]]),
            vec![SortKey::desc(0)],
            ctrl(),
        );
        let l = LimitExec::new(Box::new(s), Some(2), 1, ctrl());
        assert_eq!(drain(Box::new(l)).unwrap(), rows(&[&[2], &[1]]));
    }

    fn store(rows: &[Row]) -> PartStore {
        PartStore::default().appended(rows)
    }

    #[test]
    fn scan_hands_out_stored_segments() {
        let data: Vec<Row> = (0..2500i64).map(|i| Row(vec![Datum::Int(i)])).collect();
        let part = store(&data);
        let mut s = ScanSource::new(vec![part.clone()], None, ctrl());
        let first = s.next_batch().unwrap().unwrap();
        assert!(Arc::ptr_eq(first.col(0), part.segments[0].batch.col(0)), "no copy");
        assert_eq!(drain(Box::new(s)).unwrap(), data[BATCH_SIZE..].to_vec());
    }

    #[test]
    fn scan_variant_splitting_partitions_rows() {
        let data: Vec<Row> = (0..10i64).map(|i| Row(vec![Datum::Int(i)])).collect();
        let parts = vec![store(&data[..3]), store(&data[3..])];
        let v0 = ScanSource::new(parts.clone(), Some((0, 2)), ctrl());
        let v1 = ScanSource::new(parts, Some((1, 2)), ctrl());
        let r0 = drain(Box::new(v0)).unwrap();
        let r1 = drain(Box::new(v1)).unwrap();
        // The split counts rows across partitions, as one scan.
        assert_eq!(r0, rows(&[&[0], &[2], &[4], &[6], &[8]]));
        assert_eq!(r1, rows(&[&[1], &[3], &[5], &[7], &[9]]));
    }

    #[test]
    fn merging_index_scan_merges_runs() {
        let def = ic_storage::IndexDef {
            id: ic_storage::IndexId(0),
            name: "ix".into(),
            table: ic_storage::TableId(0),
            columns: vec![0],
        };
        let ix = ic_storage::Index::new(&def, 2);
        let a = store(&rows(&[&[7], &[1], &[4]]));
        let b = store(&rows(&[&[2], &[9], &[3]]));
        let runs = vec![(ix.sorted(0, &a), a), (ix.sorted(1, &b), b)];
        let m = MergingIndexScan::new(runs, None, ctrl());
        let out = drain(Box::new(m)).unwrap();
        let vals: Vec<i64> = out.iter().map(|r| r.0[0].as_int().unwrap()).collect();
        assert_eq!(vals, vec![1, 2, 3, 4, 7, 9]);
    }

    #[test]
    fn timeout_aborts() {
        let ctrl = ControlBlock::new(Some(Instant::now() - std::time::Duration::from_secs(1)), 5);
        let mut s = ScanSource::new(vec![store(&rows(&[&[1]]))], None, ctrl);
        assert!(matches!(s.next_batch(), Err(IcError::ExecTimeout { .. })));
    }

    #[test]
    fn cancellation_aborts() {
        let c = ctrl();
        c.cancel();
        let mut s = ScanSource::new(vec![store(&rows(&[&[1]]))], None, c);
        assert!(s.next_batch().is_err());
    }

    #[test]
    fn filter_composes_selection_without_materializing() {
        // Two stacked filters: the surviving rows must still be a selection
        // view over the original physical columns.
        let f1 = FilterExec::new(
            src(&[&[1], &[2], &[3], &[4], &[5], &[6]]),
            Expr::binary(ic_common::BinOp::Gt, Expr::col(0), Expr::lit(1i64)),
            ctrl(),
        );
        let mut f2 = FilterExec::new(
            Box::new(f1),
            Expr::binary(ic_common::BinOp::Lt, Expr::col(0), Expr::lit(6i64)),
            ctrl(),
        );
        let b = f2.next_batch().unwrap().unwrap();
        assert_eq!(b.num_rows(), 4);
        assert_eq!(b.phys_rows(), 6, "filter must shrink the selection, not copy columns");
        assert_eq!(b.to_rows(), rows(&[&[2], &[3], &[4], &[5]]));
    }

    #[test]
    fn limit_slices_across_batches() {
        let many: Vec<Row> = (0..3000i64).map(|i| Row(vec![Datum::Int(i)])).collect();
        let l = LimitExec::new(Box::new(VecSource::new(many)), Some(10), 1500, ctrl());
        let out = drain(Box::new(l)).unwrap();
        let vals: Vec<i64> = out.iter().map(|r| r.0[0].as_int().unwrap()).collect();
        assert_eq!(vals, (1500..1510).collect::<Vec<i64>>());
    }
}
