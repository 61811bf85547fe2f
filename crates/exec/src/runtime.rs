//! Query runtime: instantiate fragments at their sites (× variants), wire
//! exchanges through the simulated network, and collect the root
//! fragment's rows.
//!
//! Each fragment instance has a *driver* thread (§3.2.3's one-thread-per-
//! fragment model is the degenerate case), but the driver no longer
//! executes the operator chain by itself: when the chain compiles into a
//! pipeline ([`crate::pipeline`]) the driver splits its scan input into
//! morsels and fans lanes out over the site's [`crate::pool::WorkerPool`]
//! (`ExecOptions::worker_threads` workers per site), keeping for itself
//! the sequential work — exchange receivers, join build barriers, and the
//! order-sensitive merge/sort/final-aggregate steps above the parallel
//! region. Chains that don't fit (row-internal operators, receiver-fed
//! spines, early-exit limits) run sequentially on the driver exactly as
//! before; `worker_threads = 0` disables pools entirely and restores the
//! pre-morsel runtime. Lanes stream into a shared [`InstanceSink`] — the
//! staging half of [`ExchangeCore`] coalesces sub-batch outputs across
//! workers the same way the sequential sender coalesced across batches —
//! and the driver alone sends the exchange EOFs after the drain barrier.

use crate::analyze::{enumerate_ops, OpIndex};
use crate::fragment::{fragment_plan, ExchangeId, ExchangeRegistry, Sink};
use crate::operators::*;
use crate::pipeline;
use crate::pool::SitePools;
use crate::variant::{plan_variants, SourceMode, VariantPlan};
use ic_common::obs::{AttemptStats, SpanId, Trace};
use ic_common::row::BATCH_SIZE;
use ic_common::{ColumnBatch, IcError, IcResult, Row};
use ic_net::{
    net_channel, AbortFn, Assignment, FailoverError, NetError, NetObs, NetReceiver, NetSender,
    Network, SiteId, SiteState, WireSize,
};
use ic_plan::ops::{PhysOp, PhysPlan};
use ic_plan::Distribution;
use ic_storage::{Catalog, PartStore, TableDistribution};
use ic_common::hash::FxHashMap;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Execution options.
#[derive(Debug, Clone)]
pub struct ExecOptions {
    /// Variant fragments per eligible fragment (§5.3); 1 disables.
    pub variant_fragments: usize,
    /// Wall-clock execution limit (the paper's runtime cap).
    pub timeout: Option<Duration>,
    /// Exchange backpressure window, in batches.
    pub channel_window: usize,
    /// Buffered-cell (rows × columns) memory budget per query (Ignite's
    /// resource limit).
    pub memory_limit_rows: u64,
    /// Shared cluster memory pool to lease the query's buffer budget from.
    /// `None` (standalone executor use) accounts against a private
    /// unbounded pool, so only `memory_limit_rows` applies.
    pub pool: Option<Arc<ic_common::MemoryPool>>,
    /// Per-query trace to record spans and per-operator actuals into.
    /// `None` (the default) executes fully uninstrumented.
    pub trace: Option<Arc<Trace>>,
    /// Parent span (e.g. the coordinator's `attempt` span) for everything
    /// this execution records.
    pub trace_parent: Option<SpanId>,
    /// Morsel-pool workers **per site**: fragment instances whose chains
    /// compile into pipelines fan out over this many lanes at their site.
    /// `0` disables pooled execution entirely (the pre-morsel sequential
    /// runtime); `1` keeps the pool active with deterministic lane order.
    pub worker_threads: usize,
    /// Rows per morsel (the work-stealing granule and the revocation/
    /// cancellation check interval). Clamped to ≥64.
    pub morsel_rows: usize,
}

/// Default morsel size: ~64k rows, i.e. 64 `ColumnBatch`es per morsel —
/// large enough to amortize scheduling, small enough that steal balancing
/// and revocation checks stay fine-grained.
pub const DEFAULT_MORSEL_ROWS: usize = 64 * 1024;

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            variant_fragments: 1,
            timeout: None,
            channel_window: 16,
            memory_limit_rows: 60_000_000,
            pool: None,
            trace: None,
            trace_parent: None,
            worker_threads: std::thread::available_parallelism().map_or(1, |n| n.get()).min(4),
            morsel_rows: DEFAULT_MORSEL_ROWS,
        }
    }
}

/// Telemetry for one query execution.
#[derive(Debug, Clone, Default)]
pub struct QueryStats {
    pub fragments: usize,
    pub threads: usize,
    pub net_messages: u64,
    pub net_bytes: u64,
    pub elapsed: Duration,
    /// Failover replans performed by the coordinator (0 = first attempt
    /// succeeded). Filled by `Cluster::query`, not by `execute_plan`.
    pub retries: u32,
    /// Time the query spent queued in the admission controller before its
    /// slot was granted. Filled by `Cluster::query`.
    pub queue_wait: Duration,
    /// High-water mark of buffered cells (rows × columns) held by this
    /// query's blocking operators, as accounted by its memory lease.
    pub peak_buffered_rows: u64,
}

/// A message on an exchange link. Batches cross the wire in the
/// column-contiguous framing (`ic_net::wire::encode_columns`), whose exact
/// size [`WireSize`] reports — selection vectors are resolved by the frame,
/// so only selected rows are charged to `net.transfer.bytes`.
pub enum Msg {
    Batch(ColumnBatch),
    Eof,
}

impl WireSize for Msg {
    fn wire_size(&self) -> usize {
        match self {
            Msg::Batch(b) => b.wire_size(),
            Msg::Eof => 8,
        }
    }
}

/// Deep-copy a plan so that every node has a unique identity — the
/// optimizer's memo can share subtrees (e.g. self-joins), but each
/// occurrence must become its own fragment/exchange at runtime.
fn uniquify(plan: &Arc<PhysPlan>) -> Arc<PhysPlan> {
    let op = match &plan.op {
        PhysOp::TableScan { .. } | PhysOp::IndexScan { .. } | PhysOp::Values { .. } => {
            plan.op.clone()
        }
        PhysOp::Filter { input, predicate } => PhysOp::Filter {
            input: uniquify(input),
            predicate: predicate.clone(),
        },
        PhysOp::Project { input, exprs, names } => PhysOp::Project {
            input: uniquify(input),
            exprs: exprs.clone(),
            names: names.clone(),
        },
        PhysOp::NestedLoopJoin { left, right, kind, on } => PhysOp::NestedLoopJoin {
            left: uniquify(left),
            right: uniquify(right),
            kind: *kind,
            on: on.clone(),
        },
        PhysOp::HashJoin { left, right, kind, left_keys, right_keys, residual } => {
            PhysOp::HashJoin {
                left: uniquify(left),
                right: uniquify(right),
                kind: *kind,
                left_keys: left_keys.clone(),
                right_keys: right_keys.clone(),
                residual: residual.clone(),
            }
        }
        PhysOp::MergeJoin { left, right, kind, left_keys, right_keys, residual } => {
            PhysOp::MergeJoin {
                left: uniquify(left),
                right: uniquify(right),
                kind: *kind,
                left_keys: left_keys.clone(),
                right_keys: right_keys.clone(),
                residual: residual.clone(),
            }
        }
        PhysOp::HashAggregate { input, group, aggs, phase } => PhysOp::HashAggregate {
            input: uniquify(input),
            group: group.clone(),
            aggs: aggs.clone(),
            phase: *phase,
        },
        PhysOp::SortAggregate { input, group, aggs, phase } => PhysOp::SortAggregate {
            input: uniquify(input),
            group: group.clone(),
            aggs: aggs.clone(),
            phase: *phase,
        },
        PhysOp::Sort { input, keys } => PhysOp::Sort { input: uniquify(input), keys: keys.clone() },
        PhysOp::Limit { input, fetch, offset } => PhysOp::Limit {
            input: uniquify(input),
            fetch: *fetch,
            offset: *offset,
        },
        PhysOp::Exchange { input, to } => PhysOp::Exchange {
            input: uniquify(input),
            to: to.clone(),
        },
    };
    Arc::new(PhysPlan { op, ..(**plan).clone() })
}

/// Classify a network failure: dead sites and lost exchange messages are
/// *retryable* ([`IcError::SiteUnavailable`]) — the coordinator replans
/// against the surviving topology — while plumbing failures stay terminal.
fn net_err(dst: SiteId, e: NetError) -> IcError {
    match e {
        NetError::SiteDead(s) => IcError::SiteUnavailable {
            site: s.0,
            detail: format!("{s} crashed during an exchange transfer"),
        },
        NetError::LinkFault => IcError::SiteUnavailable {
            site: dst.0,
            detail: format!("link to {dst} dropped an exchange message"),
        },
        NetError::Aborted => {
            IcError::Exec("exchange transfer aborted by deadline/cancellation".into())
        }
        NetError::Disconnected => IcError::Exec("exchange link disconnected".into()),
        NetError::Timeout => IcError::Exec("exchange send timed out".into()),
    }
}

/// Classify a failed assignment: no survivable placement exists right now,
/// which the retry loop may still recover from (a transient crash ends) or
/// turn into [`IcError::RetriesExhausted`].
fn failover_err(e: FailoverError) -> IcError {
    match e {
        FailoverError::NoLiveSites { coordinator } => {
            IcError::SiteUnavailable { site: coordinator.0, detail: e.to_string() }
        }
        FailoverError::PartitionLost { primary, .. } => {
            IcError::SiteUnavailable { site: primary.0, detail: e.to_string() }
        }
    }
}

/// Coalescing buffer shared by an instance's lanes: sub-batch outputs
/// stage here until a batch-size's worth of rows has accumulated.
struct Stage {
    pending: Vec<ColumnBatch>,
    rows: usize,
}

/// The sending side of one fragment instance's sink, shared by every lane
/// of the instance's pipeline (and used solo by sequential drivers). All
/// methods take `&self`: staging is guarded by a short lock, but batches
/// are dispatched *outside* it, so concurrent lanes overlap their wire
/// time (latency + bandwidth sleeps of the simulated network) instead of
/// serializing behind the stage.
pub(crate) struct ExchangeCore {
    to: Distribution,
    assignment: Arc<Assignment>,
    /// (consumer site, consumer variant, sender pre-bound to that endpoint)
    endpoints: Vec<(SiteId, usize, NetSender<Msg>)>,
    mode: SourceMode,
    /// Splitter round-robin cursor (atomic: lanes dispatch concurrently).
    rr: AtomicUsize,
    /// Sub-batch-size outputs (selective filters, sparse join matches)
    /// coalesce here before shipping — the simulated network charges
    /// latency per message, so many tiny batches would otherwise multiply
    /// the wire cost regardless of payload size. Coalescing across *lanes*
    /// is what PR 7's sequential sender did across batches.
    stage: Mutex<Stage>,
}

impl ExchangeCore {
    fn new(
        to: Distribution,
        assignment: Arc<Assignment>,
        endpoints: Vec<(SiteId, usize, NetSender<Msg>)>,
        mode: SourceMode,
    ) -> ExchangeCore {
        ExchangeCore {
            to,
            assignment,
            endpoints,
            mode,
            rr: AtomicUsize::new(0),
            stage: Mutex::named(Stage { pending: Vec::new(), rows: 0 }, "exec.exchange.stage"),
        }
    }

    /// Attach transfer-span recording to every endpoint (traced queries).
    /// Called before the core is shared with any lane.
    fn set_obs(&mut self, obs: NetObs) {
        for (_, _, tx) in &mut self.endpoints {
            tx.set_obs(obs.clone());
        }
    }

    fn endpoints_at(&self, site: SiteId) -> Vec<&NetSender<Msg>> {
        self.endpoints
            .iter()
            .filter(|(s, _, _)| *s == site)
            .map(|(_, _, tx)| tx)
            .collect()
    }

    /// Ship one batch to a site, honoring the consumer's splitter/
    /// duplicator mode (batch-level round-robin realizes the splitter's
    /// arbitrary disjoint partitioning).
    fn ship_to_site(&self, site: SiteId, batch: ColumnBatch) -> IcResult<()> {
        let eps = self.endpoints_at(site);
        if eps.is_empty() {
            return Err(IcError::Exec(format!("no exchange endpoint at {site}")));
        }
        match self.mode {
            SourceMode::Duplicator => {
                for tx in eps {
                    tx.send(Msg::Batch(batch.clone())).map_err(|e| net_err(site, e))?;
                }
            }
            SourceMode::Splitter => {
                let pick = self.rr.fetch_add(1, Ordering::Relaxed) % eps.len();
                eps[pick].send(Msg::Batch(batch)).map_err(|e| net_err(site, e))?;
            }
        }
        Ok(())
    }

    pub(crate) fn send_batch(&self, batch: ColumnBatch) -> IcResult<()> {
        if batch.num_rows() == 0 {
            return Ok(());
        }
        let ready = {
            let mut stage = self.stage.lock();
            stage.rows += batch.num_rows();
            stage.pending.push(batch);
            if stage.rows >= BATCH_SIZE {
                stage.rows = 0;
                Some(std::mem::take(&mut stage.pending))
            } else {
                None
            }
        };
        match ready {
            Some(pending) => self.dispatch(ColumnBatch::concat(&pending)),
            None => Ok(()),
        }
    }

    /// Ship everything still staged as one dense batch — once, by the
    /// driver, after the drain barrier.
    pub(crate) fn flush(&self) -> IcResult<()> {
        let pending = {
            let mut stage = self.stage.lock();
            stage.rows = 0;
            std::mem::take(&mut stage.pending)
        };
        if pending.is_empty() {
            return Ok(());
        }
        self.dispatch(ColumnBatch::concat(&pending))
    }

    fn dispatch(&self, batch: ColumnBatch) -> IcResult<()> {
        match &self.to {
            Distribution::Single => {
                let site = self.endpoints[0].0;
                self.ship_to_site(site, batch)
            }
            Distribution::Broadcast => {
                let sites: Vec<SiteId> = {
                    let mut s: Vec<SiteId> = self.endpoints.iter().map(|(s, _, _)| *s).collect();
                    s.sort();
                    s.dedup();
                    s
                };
                for site in sites {
                    self.ship_to_site(site, batch.clone())?;
                }
                Ok(())
            }
            Distribution::Hash(keys) => {
                // Vectorized key hashing, then one selection view per
                // destination site (bit-identical to `Row::hash_key`).
                // The slots are per-dispatch scratch (a handful of sites,
                // scanned linearly); each site's rows ship as a selection
                // view over the batch — no row materialization.
                let hashes = batch.hash_keys(keys);
                let mut slots: Vec<(SiteId, Vec<u32>)> = Vec::new();
                for (k, &hash) in hashes.iter().enumerate().take(batch.num_rows()) {
                    let site = self.assignment.site_for_hash(hash);
                    match slots.iter_mut().find(|(s, _)| *s == site) {
                        Some((_, keep)) => keep.push(k as u32),
                        None => slots.push((site, vec![k as u32])),
                    }
                }
                for (site, keep) in slots {
                    self.ship_to_site(site, batch.select_logical(&keep))?;
                }
                Ok(())
            }
            Distribution::Random => Err(IcError::Exec("cannot exchange to random".into())),
        }
    }

    /// Every producer instance signals EOF to every endpoint so receivers
    /// can count down. Driver-only, after `flush`.
    fn finish(&self) {
        for (_, _, tx) in &self.endpoints {
            let _ = tx.send(Msg::Eof);
        }
    }
}

/// Where a fragment instance's output rows go. Shared by the instance's
/// driver and all its pipeline lanes; both variants are safe for
/// concurrent pushes.
#[derive(Clone)]
pub(crate) enum InstanceSink {
    /// Non-root instances: into the exchange's shared coalescing stage.
    Exchange(Arc<ExchangeCore>),
    /// The root instance: straight into the client rowset.
    Rows(Arc<Mutex<Vec<Row>>>),
}

impl InstanceSink {
    pub(crate) fn push(&self, batch: ColumnBatch) -> IcResult<()> {
        match self {
            InstanceSink::Exchange(core) => core.send_batch(batch),
            InstanceSink::Rows(rows) => {
                let mut b = batch.to_rows();
                rows.lock().append(&mut b);
                Ok(())
            }
        }
    }

    /// Drain a sequential source into the sink. The rowset side pulls in
    /// row format (`next_rows`) so row-native chains skip the column
    /// round-trip, exactly as the pre-pool root driver did.
    pub(crate) fn drain_from(&self, mut src: BoxedSource) -> IcResult<()> {
        match self {
            InstanceSink::Exchange(core) => {
                while let Some(b) = src.next_batch()? {
                    core.send_batch(b)?;
                }
                Ok(())
            }
            InstanceSink::Rows(rows) => {
                while let Some(mut b) = src.next_rows()? {
                    rows.lock().append(&mut b);
                }
                Ok(())
            }
        }
    }
}

/// The receiving end of an exchange inside a fragment instance.
pub(crate) struct ReceiverSource {
    rx: NetReceiver<Msg>,
    remaining_eofs: usize,
    ctrl: Arc<ControlBlock>,
    /// Sites hosting this exchange's producer instances, polled between
    /// receive timeouts: a producer that dies mid-run will never deliver
    /// its EOF, and without the check the receiver would wait out the
    /// whole query deadline instead of failing over.
    producers: Vec<SiteId>,
    network: Arc<Network>,
    /// When traced: (attempt table, Exchange node index) to credit shipped
    /// bytes to — the consumer side observes exactly what crossed the wire.
    obs: Option<(Arc<AttemptStats>, u32)>,
}

impl RowSource for ReceiverSource {
    fn next_batch(&mut self) -> IcResult<Option<ColumnBatch>> {
        loop {
            self.ctrl.check()?;
            if self.remaining_eofs == 0 {
                return Ok(None);
            }
            match self.rx.recv_timeout(Duration::from_millis(50)) {
                Ok(Msg::Batch(b)) => {
                    if let Some((attempt, node)) = &self.obs {
                        attempt.record_shipped(*node, b.wire_size() as u64);
                    }
                    return Ok(Some(b));
                }
                Ok(Msg::Eof) => {
                    self.remaining_eofs -= 1;
                }
                Err(NetError::Timeout) => {
                    // Crashed (or suspect) producers cannot deliver their
                    // remaining batches/EOFs — messages from them are
                    // dropped — so surface the loss retryably now. A
                    // producer that already finished trips this too, but
                    // that only costs one replan against the surviving
                    // topology.
                    self.network.refresh_liveness();
                    let liveness = self.network.liveness();
                    if let Some(dead) = self
                        .producers
                        .iter()
                        .find(|s| liveness.state(**s) != SiteState::Alive)
                    {
                        return Err(IcError::SiteUnavailable {
                            site: dead.0,
                            detail: format!(
                                "{dead} stopped responding mid-exchange (producer lost)"
                            ),
                        });
                    }
                    continue;
                }
                Err(_) => {
                    return Err(IcError::Exec(
                        "exchange peer disconnected before EOF (upstream failure)".into(),
                    ))
                }
            }
        }
    }
}

/// Per-instance build context. Shared with [`crate::pipeline`], which
/// borrows it on the driver thread to resolve build sides, split scans
/// into morsels, and construct per-lane operator chains.
pub(crate) struct BuildCtx<'a> {
    pub(crate) catalog: &'a Catalog,
    /// The surviving-site partition map this query attempt executes under.
    pub(crate) assignment: &'a Assignment,
    pub(crate) site: SiteId,
    pub(crate) vid: usize,
    pub(crate) nvariants: usize,
    pub(crate) vplan: &'a VariantPlan,
    pub(crate) registry: &'a ExchangeRegistry,
    pub(crate) receivers: FxHashMap<ExchangeId, ReceiverSource>,
    pub(crate) ctrl: Arc<ControlBlock>,
    /// Plan-node index for tracing; `None` when the query is untraced.
    pub(crate) obs_index: Option<Arc<OpIndex>>,
    /// Trace lane of this fragment instance's driver thread.
    pub(crate) lane: u32,
    /// The fragment-instance span every operator span parents to.
    pub(crate) parent_span: Option<SpanId>,
}

impl BuildCtx<'_> {
    pub(crate) fn split_for(&self, mode: SourceMode) -> Option<(usize, usize)> {
        if self.nvariants > 1 && mode == SourceMode::Splitter {
            Some((self.vid, self.nvariants))
        } else {
            None
        }
    }

    /// This site's snapshot of each partition of `table` it scans, with
    /// the partition ids, in scan order. A hash-partitioned table is read
    /// from the site's own replica: a per-partition version snapshot (Arc
    /// of a frozen store), so concurrent DML batches are observed
    /// all-or-nothing. A missing replica means ownership moved between
    /// planning and execution — surface retryably and replan.
    fn partition_snapshots(&self, table: ic_storage::TableId) -> IcResult<Vec<(usize, PartStore)>> {
        let def = self
            .catalog
            .table_def(table)
            .ok_or_else(|| IcError::Exec(format!("unknown table {table}")))?;
        let data = self
            .catalog
            .table_data(table)
            .ok_or_else(|| IcError::Exec(format!("no data handle for table {table}")))?;
        match def.distribution {
            TableDistribution::Replicated => Ok(vec![(0, data.store(0))]),
            TableDistribution::HashPartitioned { .. } => self
                .assignment
                .partitions_of(self.site)
                .into_iter()
                .map(|p| match data.replica(p, self.site) {
                    Some(store) => Ok((p, store)),
                    None => Err(IcError::RebalanceInProgress { partition: p }),
                })
                .collect(),
        }
    }

    /// [`partition_snapshots`](Self::partition_snapshots) without the ids.
    pub(crate) fn table_partitions(&self, table: ic_storage::TableId) -> IcResult<Vec<PartStore>> {
        Ok(self.partition_snapshots(table)?.into_iter().map(|(_, s)| s).collect())
    }

    pub(crate) fn build(&mut self, node: &Arc<PhysPlan>) -> IcResult<BoxedSource> {
        let src: BoxedSource = match &node.op {
            PhysOp::TableScan { table, .. } => {
                let mode = self.vplan.scan_mode(node);
                Box::new(ScanSource::new(
                    self.table_partitions(*table)?,
                    self.split_for(mode),
                    self.ctrl.clone(),
                ))
            }
            PhysOp::IndexScan { table, index, .. } => {
                let mode = self.vplan.scan_mode(node);
                let ix = self
                    .catalog
                    .index(*index)
                    .ok_or_else(|| IcError::Exec("unknown index".into()))?;
                // Sorted positions over the very snapshots a table scan
                // would read, so every committed write is visible.
                let runs = self
                    .partition_snapshots(*table)?
                    .into_iter()
                    .map(|(p, store)| (ix.sorted(p, &store), store))
                    .collect();
                Box::new(MergingIndexScan::new(runs, self.split_for(mode), self.ctrl.clone()))
            }
            PhysOp::Values { rows, .. } => Box::new(VecSource::new(rows.clone())),
            PhysOp::Filter { input, predicate } => Box::new(FilterExec::new(
                self.build(input)?,
                predicate.clone(),
                self.ctrl.clone(),
            )),
            PhysOp::Project { input, exprs, .. } => Box::new(ProjectExec::new(
                self.build(input)?,
                exprs.clone(),
                self.ctrl.clone(),
            )),
            PhysOp::NestedLoopJoin { left, right, kind, on } => {
                let right_arity = right.schema.arity();
                Box::new(NestedLoopJoinExec::new(
                    self.build(left)?,
                    self.build(right)?,
                    *kind,
                    on.clone(),
                    right_arity,
                    self.ctrl.clone(),
                ))
            }
            PhysOp::HashJoin { left, right, kind, left_keys, right_keys, residual } => {
                let right_arity = right.schema.arity();
                Box::new(HashJoinExec::new(
                    self.build(left)?,
                    self.build(right)?,
                    *kind,
                    left_keys.clone(),
                    right_keys.clone(),
                    residual.clone(),
                    right_arity,
                    self.ctrl.clone(),
                ))
            }
            PhysOp::MergeJoin { left, right, kind, left_keys, right_keys, residual } => {
                let right_arity = right.schema.arity();
                Box::new(MergeJoinExec::new(
                    self.build(left)?,
                    self.build(right)?,
                    *kind,
                    left_keys.clone(),
                    right_keys.clone(),
                    residual.clone(),
                    right_arity,
                    self.ctrl.clone(),
                ))
            }
            PhysOp::HashAggregate { input, group, aggs, phase } => Box::new(HashAggExec::new(
                self.build(input)?,
                group.clone(),
                aggs.clone(),
                *phase,
                self.ctrl.clone(),
            )),
            PhysOp::SortAggregate { input, group, aggs, phase } => Box::new(SortAggExec::new(
                self.build(input)?,
                group.clone(),
                aggs.clone(),
                *phase,
                self.ctrl.clone(),
            )),
            PhysOp::Sort { input, keys } => {
                Box::new(SortExec::new(self.build(input)?, keys.clone(), self.ctrl.clone()))
            }
            PhysOp::Limit { input, fetch, offset } => Box::new(LimitExec::new(
                self.build(input)?,
                *fetch,
                *offset,
                self.ctrl.clone(),
            )),
            PhysOp::Exchange { .. } => {
                let id = self.registry.id_of(node).ok_or_else(|| {
                    IcError::Internal("exchange node not registered".into())
                })?;
                let rx = self.receivers.remove(&id).ok_or_else(|| {
                    IcError::Exec(format!("missing receiver for exchange {id:?}"))
                })?;
                Box::new(rx)
            }
        };
        // Traced queries wrap every operator in the open/next/close hooks;
        // untraced queries return the bare operator (zero overhead).
        if let Some(index) = &self.obs_index {
            if let Some(idx) = index.of(node) {
                return Ok(Box::new(TracedSource::new(
                    src,
                    self.ctrl.clone(),
                    idx,
                    node.label(),
                    self.lane,
                    self.parent_span,
                )));
            }
        }
        Ok(src)
    }
}

/// Execute an optimized physical plan on the simulated cluster, returning
/// the result rows and execution telemetry.
pub fn execute_plan(
    plan: &Arc<PhysPlan>,
    catalog: &Arc<Catalog>,
    network: &Arc<Network>,
    opts: &ExecOptions,
) -> IcResult<(Vec<Row>, QueryStats)> {
    // ic-lint: allow(L004) because the exec timeout is the paper's wall-clock runtime cap, not simulated time
    let start = Instant::now();
    let (msgs0, bytes0, _) = network.stats.snapshot();
    // Plan placement against the *surviving* topology: dead/suspect sites
    // are excluded and their partitions served by backup owners. Fails
    // retryably when a partition has no live copy.
    network.refresh_liveness();
    let down = network.liveness().down_sites();
    let assignment =
        Arc::new(catalog.membership().assignment(&down).map_err(failover_err)?);
    let plan = uniquify(plan);
    let (fragments, registry) = fragment_plan(&plan, &assignment);
    let registry = Arc::new(registry);
    let vplans: Vec<VariantPlan> = fragments
        .iter()
        .map(|f| plan_variants(f, &registry, opts.variant_fragments))
        .collect();

    // Traced queries: enumerate the (uniquified) plan in pre-order, register
    // this attempt's estimated-vs-actual table, and resolve metric handles
    // once so operator hot paths never touch the registry lock.
    let obs_ctx: Option<(ExecObs, Arc<OpIndex>)> = opts.trace.as_ref().map(|trace| {
        let (metas, index) = enumerate_ops(&plan, &registry);
        let attempt = trace.register_attempt(metas);
        (ExecObs::new(trace.clone(), attempt), Arc::new(index))
    });
    let mut exec_span = opts
        .trace
        .as_ref()
        .map(|t| t.span("execute", "exec", opts.trace_parent, Trace::COORD_LANE));
    let exec_span_id = exec_span.as_ref().map(|g| g.id());

    let deadline = opts.timeout.map(|t| start + t);
    let limit_ms = opts.timeout.map(|t| t.as_millis() as u64).unwrap_or(0);
    // Lease the query's buffer budget: from the shared governor pool when
    // one is configured, else from a private unbounded pool (per-query
    // limit only). Each failover attempt gets a fresh lease, so budget is
    // never double-counted across replans.
    let lease = match &opts.pool {
        Some(pool) => pool.lease(opts.memory_limit_rows),
        None => ic_common::MemoryPool::unbounded().lease(opts.memory_limit_rows),
    };
    let ctrl =
        ControlBlock::with_lease_obs(deadline, limit_ms, lease, obs_ctx.as_ref().map(|(o, _)| o.clone()));
    // Polled by in-flight transfers so bandwidth sleeps stop at the
    // deadline instead of overshooting it.
    let abort: Arc<AbortFn> = {
        let ctrl = ctrl.clone();
        Arc::new(move || ctrl.is_stopped())
    };

    // --- wire exchanges -------------------------------------------------
    // Producer fragment of each exchange.
    let mut producer_of: FxHashMap<ExchangeId, usize> = FxHashMap::default();
    for (fi, f) in fragments.iter().enumerate() {
        if let Sink::Exchange { id, .. } = &f.sink {
            producer_of.insert(*id, fi);
        }
    }
    // Consumer fragment of each exchange.
    let mut consumer_of: FxHashMap<ExchangeId, usize> = FxHashMap::default();
    for (fi, f) in fragments.iter().enumerate() {
        for id in f.receiver_exchanges(&registry) {
            consumer_of.insert(id, fi);
        }
    }
    // Receiver endpoints per (exchange, site, variant) and sender
    // prototypes per exchange.
    let mut rx_map: FxHashMap<(ExchangeId, SiteId, usize), NetReceiver<Msg>> = FxHashMap::default();
    let mut tx_protos: FxHashMap<ExchangeId, Vec<(SiteId, usize, NetSender<Msg>)>> =
        FxHashMap::default();
    let mut eof_count: FxHashMap<ExchangeId, usize> = FxHashMap::default();
    for (&ex, &ci) in &consumer_of {
        let consumer = &fragments[ci];
        let cvars = vplans[ci].variants;
        let mut protos = Vec::new();
        for &site in &consumer.sites {
            for v in 0..cvars {
                let (tx, rx) =
                    net_channel::<Msg>(network.clone(), SiteId(usize::MAX), site, opts.channel_window);
                rx_map.insert((ex, site, v), rx);
                protos.push((site, v, tx));
            }
        }
        tx_protos.insert(ex, protos);
        let pi = producer_of
            .get(&ex)
            .copied()
            .ok_or_else(|| IcError::Exec("exchange without producer".into()))?;
        eof_count.insert(ex, fragments[pi].sites.len() * vplans[pi].variants);
    }

    // --- spawn non-root fragment instances ------------------------------
    // One lazily-populated worker pool per site for this execution; `None`
    // (worker_threads = 0) keeps every fragment on the sequential path.
    let pools: Option<Arc<SitePools>> = (opts.worker_threads > 0)
        .then(|| Arc::new(SitePools::new(opts.worker_threads, opts.trace.clone())));
    let morsel_rows = opts.morsel_rows;
    let error_slot: Arc<Mutex<Option<IcError>>> = Arc::new(Mutex::named(None, "exec.error_slot"));
    let mut handles: Vec<(usize, SiteId, usize, std::thread::JoinHandle<()>)> = Vec::new();
    let mut threads = 0usize;
    for (fi, fragment) in fragments.iter().enumerate() {
        if fragment.is_root() {
            continue;
        }
        let Sink::Exchange { id: sink_id, to } = fragment.sink.clone() else { unreachable!() };
        let consumer_fi = consumer_of[&sink_id];
        let consumer_mode = vplans[consumer_fi].receiver_mode(sink_id);
        for &site in &fragment.sites {
            for vid in 0..vplans[fi].variants {
                threads += 1;
                // Collect this instance's receivers.
                let mut receivers = FxHashMap::default();
                for ex in fragment.receiver_exchanges(&registry) {
                    let rx = rx_map
                        .remove(&(ex, site, vid))
                        .ok_or_else(|| IcError::Exec("receiver endpoint missing".into()))?;
                    receivers.insert(
                        ex,
                        ReceiverSource {
                            rx,
                            remaining_eofs: eof_count[&ex],
                            ctrl: ctrl.clone(),
                            producers: fragments[producer_of[&ex]].sites.clone(),
                            network: network.clone(),
                            obs: obs_ctx.as_ref().and_then(|(o, ix)| {
                                ix.of_exchange(ex).map(|n| (o.attempt.clone(), n))
                            }),
                        },
                    );
                }
                let endpoints: Vec<(SiteId, usize, NetSender<Msg>)> = tx_protos[&sink_id]
                    .iter()
                    .map(|(s, v, tx)| (*s, *v, tx.with_src(site).with_abort(abort.clone())))
                    .collect();
                let mut core =
                    ExchangeCore::new(to.clone(), assignment.clone(), endpoints, consumer_mode);
                let root = fragment.root.clone();
                let catalog = catalog.clone();
                let registry = registry.clone();
                let ctrl2 = ctrl.clone();
                let vplan = vplans[fi].clone();
                let nvariants = vplans[fi].variants;
                let error_slot = error_slot.clone();
                let assignment2 = assignment.clone();
                let obs_thread = obs_ctx.clone();
                let pools2 = pools.clone();
                handles.push((fi, site, vid, std::thread::spawn(move || {
                    // One trace lane + fragment span per instance thread;
                    // declared before `run` so it closes after every
                    // operator (and its span) has been dropped.
                    let (lane, frag_span) = match &obs_thread {
                        Some((o, _)) => {
                            let lane = o.trace.lane(format!("f{fi} @{site} v{vid}"));
                            let span = o.trace.span(
                                format!("fragment f{fi} @{site} v{vid}"),
                                "fragment",
                                exec_span_id,
                                lane,
                            );
                            (lane, Some(span))
                        }
                        None => (Trace::COORD_LANE, None),
                    };
                    if let Some((o, _)) = &obs_thread {
                        core.set_obs(NetObs {
                            trace: o.trace.clone(),
                            lane,
                            parent: frag_span.as_ref().map(|g| g.id()),
                        });
                    }
                    let core = Arc::new(core);
                    let sink = InstanceSink::Exchange(core.clone());
                    let run = || -> IcResult<()> {
                        let mut ctx = BuildCtx {
                            catalog: &catalog,
                            assignment: &assignment2,
                            site,
                            vid,
                            nvariants,
                            vplan: &vplan,
                            registry: &registry,
                            receivers,
                            ctrl: ctrl2.clone(),
                            obs_index: obs_thread.as_ref().map(|(_, ix)| ix.clone()),
                            lane,
                            parent_span: frag_span.as_ref().map(|g| g.id()),
                        };
                        pipeline::run_instance(
                            &mut ctx,
                            &root,
                            pools2.as_deref(),
                            morsel_rows,
                            &sink,
                        )?;
                        core.flush()
                    };
                    match run() {
                        Ok(()) => core.finish(),
                        // ic-lint: allow(L009) because the enclosing loop spawns one worker per fragment lane; this arm records the first error and cancels the query, it never re-runs the failed work
                        Err(e) => {
                            // A worker that merely observed cancellation is
                            // teardown noise: the real cause lives elsewhere
                            // (the root's own error, another worker's slot
                            // entry — always recorded before its cancel() —
                            // or a root that already finished its answer).
                            if !matches!(&e, IcError::Exec(m) if m == "query cancelled") {
                                let mut slot = error_slot.lock();
                                if slot.is_none() {
                                    *slot = Some(e);
                                }
                            }
                            ctrl2.cancel();
                        }
                    }
                })));
            }
        }
    }

    // --- run the root fragment on this thread ---------------------------
    let root = &fragments[0];
    debug_assert!(root.is_root());
    let root_span = obs_ctx.as_ref().map(|(o, _)| {
        o.trace.span(
            format!("fragment f0 @{} (root)", assignment.coordinator()),
            "fragment",
            exec_span_id,
            Trace::COORD_LANE,
        )
    });
    let mut receivers = FxHashMap::default();
    let mut root_result: IcResult<Vec<Row>> = (|| {
        for ex in root.receiver_exchanges(&registry) {
            let rx = rx_map
                .remove(&(ex, assignment.coordinator(), 0))
                .ok_or_else(|| IcError::Exec("root receiver missing".into()))?;
            receivers.insert(
                ex,
                ReceiverSource {
                    rx,
                    remaining_eofs: eof_count[&ex],
                    ctrl: ctrl.clone(),
                    producers: fragments[producer_of[&ex]].sites.clone(),
                    network: network.clone(),
                    obs: obs_ctx.as_ref().and_then(|(o, ix)| {
                        ix.of_exchange(ex).map(|n| (o.attempt.clone(), n))
                    }),
                },
            );
        }
        let mut ctx = BuildCtx {
            catalog,
            assignment: &assignment,
            site: assignment.coordinator(),
            vid: 0,
            nvariants: 1,
            vplan: &VariantPlan::single(),
            registry: &registry,
            receivers,
            ctrl: ctrl.clone(),
            obs_index: obs_ctx.as_ref().map(|(_, ix)| ix.clone()),
            lane: Trace::COORD_LANE,
            parent_span: root_span.as_ref().map(|g| g.id()),
        };
        let collected: Arc<Mutex<Vec<Row>>> =
            Arc::new(Mutex::named(Vec::new(), "exec.root_rows"));
        let sink = InstanceSink::Rows(collected.clone());
        pipeline::run_instance(&mut ctx, &root.root, pools.as_deref(), morsel_rows, &sink)?;
        let rows = std::mem::take(&mut *collected.lock());
        Ok(rows)
    })();
    drop(root_span);

    // Stop the workers either way: on error the query is unwinding; on
    // success the root may have finished without draining its producers
    // (a bare LIMIT satisfied early), whose receivers are gone — cancel
    // instead of letting them grind until a send hits the dead channel.
    ctrl.cancel();
    for (fi, site, vid, h) in handles {
        if let Err(payload) = h.join() {
            // Downcast the panic payload so chaos failures are attributable
            // to a specific fragment instance.
            let msg = if let Some(s) = payload.downcast_ref::<&str>() {
                (*s).to_string()
            } else if let Some(s) = payload.downcast_ref::<String>() {
                s.clone()
            } else {
                "non-string panic payload".to_string()
            };
            let mut slot = error_slot.lock();
            if slot.is_none() {
                *slot = Some(IcError::Exec(format!(
                    "fragment {fi} at {site} (variant {vid}) panicked: {msg}"
                )));
            }
        }
    }
    // A worker error is the root cause; prefer it over secondary failures.
    // Unless the root already completed its answer: a producer that was
    // still shipping when the root stopped pulling (LIMIT satisfied) dies
    // on a disconnected channel or the cancellation above, and that
    // teardown noise must not fail a finished query.
    if root_result.is_ok() {
        error_slot.lock().take();
    } else if let Some(e) = error_slot.lock().take() {
        // ...and never let a non-retryable teardown symptom (a send that
        // died on a channel the unwinding root dropped) mask a retryable
        // root error — that would turn a clean failover into a hard fail.
        let root_retryable = root_result
            .as_ref()
            .err()
            .is_some_and(|r| r.is_failover_retryable());
        if !root_retryable || e.is_failover_retryable() {
            root_result = Err(e);
        }
    }
    // Secondary channel failures caused by cancellation are reported as
    // the root cause they really are: the memory limit that fired, the
    // lease revocation that cancelled us, or the deadline that passed.
    if let Err(err) = &root_result {
        // ic-lint: allow(L004) because the deadline check measures the same wall-clock runtime cap
        let deadline_passed = deadline.is_some_and(|d| Instant::now() > d);
        if let Some(limit) = ctrl.lease().limit_hit() {
            if !matches!(err, IcError::MemoryLimit { .. }) {
                root_result = Err(IcError::MemoryLimit { limit_rows: limit });
            }
        } else if ctrl.lease().is_revoked()
            && !matches!(
                err,
                IcError::ResourcesRevoked { .. } | IcError::SiteUnavailable { .. }
            )
        {
            // A revoked query unwinds through cancellation; surface the
            // revocation, not whatever channel error it tripped over.
            // Site faults still win: failover handles those.
            root_result = Err(ctrl.lease().revoked_error());
        } else if deadline_passed
            && !matches!(
                err,
                IcError::ExecTimeout { .. }
                    | IcError::MemoryLimit { .. }
                    | IcError::SiteUnavailable { .. }
                    | IcError::ResourcesRevoked { .. }
            )
        {
            // Site faults keep their identity even when the deadline also
            // passed: they are retryable, a timeout is not.
            root_result = Err(IcError::ExecTimeout { limit_ms });
        }
    }
    // Pool workers joined before stats: spawned() is final, and worker
    // trace lanes are quiesced before the trace is read.
    let pool_threads = pools.as_ref().map_or(0, |p| p.spawned());
    drop(pools);
    let peak_buffered_rows = ctrl.lease().peak_used();
    if let Some(g) = &mut exec_span {
        g.arg("fragments", fragments.len() as u64);
        g.arg("threads", (threads + pool_threads) as u64 + 1);
        g.arg("peak_buffered_cells", peak_buffered_rows);
    }
    drop(exec_span);
    let rows = root_result?;
    let (msgs1, bytes1, _) = network.stats.snapshot();
    Ok((
        rows,
        QueryStats {
            fragments: fragments.len(),
            threads: threads + pool_threads + 1,
            net_messages: msgs1 - msgs0,
            net_bytes: bytes1 - bytes0,
            elapsed: start.elapsed(),
            retries: 0,
            queue_wait: Duration::ZERO,
            peak_buffered_rows,
        },
    ))
}
