//! Per-site worker pools and morsel scheduling for intra-fragment
//! parallelism.
//!
//! Each query execution owns one [`WorkerPool`] per site it touches
//! (created lazily through [`SitePools`]), mirroring the deployment model
//! where every site is a machine with its own cores. A fragment instance
//! whose operator chain compiles into a pipeline (see [`crate::pipeline`])
//! splits its scan input into [`Morsel`]s — contiguous chunks of a
//! partition snapshot, `ExecOptions::morsel_rows` rows each — and submits
//! one *lane* task per available worker. Lanes pull morsels from the
//! pipeline's shared [`MorselSupply`]; morsels are pre-assigned to lanes
//! round-robin, and a lane that outruns its own share pulls (steals) a
//! morsel assigned to a slower lane, so skew inside one pipeline and
//! across concurrent pipelines at the same site self-balances. The morsel
//! boundary is the cooperative revocation/cancellation point: lanes call
//! `ControlBlock::check` between morsels and batches, never mid-kernel.
//!
//! Fairness across concurrent queries stays where PR 4 put it: the
//! governor's admission slots bound how many queries hold pools at once,
//! and the memory lease revokes the buffers of a query that must yield —
//! a revoked query's lanes notice at the next morsel boundary and unwind.

use ic_common::obs::{Counter, Histogram, MetricsRegistry, Trace};
use ic_net::SiteId;
use ic_storage::PartStore;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Poison-tolerant lock (the governor's idiom): a panicked lane already
/// recorded its error and cancelled the query; the queue state itself is
/// still consistent.
fn locked<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One contiguous chunk of a scan partition, the unit of work a lane
/// claims. `base` is the absolute row index of `start` across the whole
/// scan (all partitions in scan order), so §5.3 splitter filtering
/// (`absolute_index % n == vid`) is independent of which lane processes
/// the morsel and in what order.
#[derive(Debug, Clone, Copy)]
pub struct Morsel {
    pub part: usize,
    pub start: usize,
    pub end: usize,
    pub base: usize,
    /// Lane this morsel was pre-assigned to (round-robin); a different
    /// lane pulling it counts as a steal.
    pub assigned: usize,
}

/// Pre-resolved `exec.morsel.*` / `exec.worker.*` metric handles — one
/// registry lookup per supply, not per pull.
struct MorselMetrics {
    dispatched: Arc<Counter>,
    stolen: Arc<Counter>,
    steal_attempts: Arc<Counter>,
    rows: Arc<Histogram>,
}

impl MorselMetrics {
    fn resolve() -> MorselMetrics {
        let reg = MetricsRegistry::global();
        MorselMetrics {
            dispatched: reg.counter("exec.morsel.dispatched"),
            stolen: reg.counter("exec.morsel.stolen"),
            steal_attempts: reg.counter("exec.worker.steal_attempts"),
            rows: reg.histogram("exec.morsel.rows"),
        }
    }
}

/// The shared morsel queue of one pipeline. Lanes pull from the front;
/// the pre-assignment is only a scheduling hint, so the queue never
/// starves while any lane is idle.
pub struct MorselSupply {
    queue: Mutex<VecDeque<Morsel>>,
    total: usize,
    metrics: MorselMetrics,
}

impl MorselSupply {
    /// Morselize partition snapshots: `morsel_rows`-row chunks, walked in
    /// the same partition/row order as the sequential `ScanSource`, with
    /// absolute row indices threaded through for splitter equivalence.
    pub fn new(partitions: &[PartStore], morsel_rows: usize, lanes: usize) -> MorselSupply {
        let step = morsel_rows.max(64);
        let mut queue = VecDeque::new();
        let mut base = 0usize;
        for (part, store) in partitions.iter().enumerate() {
            let rows = store.len();
            let mut start = 0usize;
            while start < rows {
                let end = (start + step).min(rows);
                queue.push_back(Morsel {
                    part,
                    start,
                    end,
                    base: base + start,
                    assigned: queue.len() % lanes.max(1),
                });
                start = end;
            }
            base += rows;
        }
        let total = queue.len();
        MorselSupply { queue: Mutex::new(queue), total, metrics: MorselMetrics::resolve() }
    }

    /// Total morsels at creation — the driver's parallelism cap (no point
    /// spawning more lanes than morsels).
    pub fn total(&self) -> usize {
        self.total
    }

    /// Claim the next morsel for `lane`. Pulling a morsel assigned to
    /// another lane is a steal (counted); pulling in general is a
    /// dispatch. Returns `None` when the pipeline's input is exhausted.
    pub fn pull(&self, lane: usize) -> Option<Morsel> {
        let m = locked(&self.queue).pop_front();
        match m {
            Some(m) => {
                self.metrics.dispatched.add(1);
                self.metrics.rows.record((m.end - m.start) as u64);
                if m.assigned != lane {
                    self.metrics.steal_attempts.add(1);
                    self.metrics.stolen.add(1);
                }
                Some(m)
            }
            None => {
                // The lane went looking for foreign work and found the
                // queue drained — an unsuccessful steal attempt.
                self.metrics.steal_attempts.add(1);
                None
            }
        }
    }
}

/// A lane task: runs one pipeline lane on a pool worker. The argument is
/// the worker's trace lane (for span attribution).
pub type Task = Box<dyn FnOnce(u32) + Send>;

struct PoolState {
    tasks: VecDeque<Task>,
    shutdown: bool,
}

/// A fixed-size worker pool for one site of one query execution. Workers
/// park on a condvar between tasks; busy/idle time is flushed to the
/// `exec.worker.*` counters at task granularity.
pub struct WorkerPool {
    state: Arc<(Mutex<PoolState>, Condvar)>,
    threads: usize,
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl WorkerPool {
    /// Spawn `threads` workers for `site`. When `trace` is given each
    /// worker registers its own trace lane (`worker @site #i`) so operator
    /// spans from lanes are attributed per worker.
    pub fn new(site: SiteId, threads: usize, trace: Option<Arc<Trace>>) -> Arc<WorkerPool> {
        let state = Arc::new((Mutex::new(PoolState { tasks: VecDeque::new(), shutdown: false }), Condvar::new()));
        let reg = MetricsRegistry::global();
        let busy_ns = reg.counter("exec.worker.busy_ns");
        let idle_ns = reg.counter("exec.worker.idle_ns");
        let mut handles = Vec::with_capacity(threads);
        for i in 0..threads {
            let state = state.clone();
            let trace = trace.clone();
            let busy_ns = busy_ns.clone();
            let idle_ns = idle_ns.clone();
            handles.push(std::thread::spawn(move || {
                let lane = trace
                    .as_ref()
                    .map_or(Trace::COORD_LANE, |t| t.lane(format!("worker @{site} #{i}")));
                loop {
                    let idle_from = Instant::now();
                    let task = {
                        let (m, cv) = &*state;
                        let mut st = locked(m);
                        loop {
                            if let Some(t) = st.tasks.pop_front() {
                                break t;
                            }
                            if st.shutdown {
                                return;
                            }
                            st = cv.wait(st).unwrap_or_else(PoisonError::into_inner);
                        }
                    };
                    idle_ns.add(idle_from.elapsed().as_nanos() as u64);
                    let busy_from = Instant::now();
                    // A panicking lane must not take the worker down with
                    // it: the lane wrapper records the error and cancels
                    // the query; the worker lives on for other pipelines.
                    let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| task(lane)));
                    busy_ns.add(busy_from.elapsed().as_nanos() as u64);
                }
            }));
        }
        Arc::new(WorkerPool { state, threads, handles: Mutex::new(handles) })
    }

    /// Worker count (the per-site parallelism degree).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Enqueue a lane task; any idle worker picks it up.
    pub fn submit(&self, task: Task) {
        let (m, cv) = &*self.state;
        locked(m).tasks.push_back(task);
        cv.notify_one();
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let (m, cv) = &*self.state;
            locked(m).shutdown = true;
            cv.notify_all();
        }
        for h in locked(&self.handles).drain(..) {
            let _ = h.join();
        }
    }
}

/// Lazily-created per-site pools for one query execution. Fragment
/// instances only pay the thread-spawn cost at sites where a pipeline
/// actually goes parallel; purely sequential fragments never touch this.
pub struct SitePools {
    threads: usize,
    trace: Option<Arc<Trace>>,
    pools: Mutex<Vec<(SiteId, Arc<WorkerPool>)>>,
    spawned: AtomicUsize,
}

impl SitePools {
    /// `threads` = workers per site (0 disables pooled execution entirely,
    /// in which case callers never construct `SitePools`).
    pub fn new(threads: usize, trace: Option<Arc<Trace>>) -> SitePools {
        SitePools { threads, trace, pools: Mutex::new(Vec::new()), spawned: AtomicUsize::new(0) }
    }

    /// Workers per site.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Total worker threads spawned so far (for `QueryStats::threads`).
    pub fn spawned(&self) -> usize {
        self.spawned.load(Ordering::Relaxed)
    }

    /// The pool for `site`, spawning it on first use.
    pub fn for_site(&self, site: SiteId) -> Arc<WorkerPool> {
        let mut pools = locked(&self.pools);
        if let Some((_, p)) = pools.iter().find(|(s, _)| *s == site) {
            return p.clone();
        }
        let pool = WorkerPool::new(site, self.threads, self.trace.clone());
        self.spawned.fetch_add(self.threads, Ordering::Relaxed);
        pools.push((site, pool.clone()));
        pool
    }
}

/// Count-down latch: the build/drain barrier between a pipeline's lanes
/// and its driver. Panic-safe — lanes count down through a guard.
pub struct Latch {
    state: Mutex<usize>,
    cv: Condvar,
}

impl Latch {
    pub fn new(n: usize) -> Arc<Latch> {
        Arc::new(Latch { state: Mutex::new(n), cv: Condvar::new() })
    }

    pub fn count_down(&self) {
        let mut n = locked(&self.state);
        *n = n.saturating_sub(1);
        if *n == 0 {
            self.cv.notify_all();
        }
    }

    /// Block until every lane has counted down. The driver polls its
    /// control block alongside so a revoked/cancelled query converges:
    /// `on_tick` (typically `ControlBlock::check` + `cancel`) fires every
    /// poll interval, and the wait still only returns once lanes are done
    /// touching shared pipeline state.
    pub fn wait(&self, mut on_tick: impl FnMut()) {
        let mut n = locked(&self.state);
        while *n > 0 {
            let (guard, _) = self
                .cv
                .wait_timeout(n, std::time::Duration::from_millis(10))
                .unwrap_or_else(PoisonError::into_inner);
            n = guard;
            on_tick();
        }
    }
}

/// Counts a lane down even when the lane body panics.
pub struct LatchGuard(pub Arc<Latch>);

impl Drop for LatchGuard {
    fn drop(&mut self) {
        self.0.count_down();
    }
}
