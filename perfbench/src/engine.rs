//! How benchmark clients run statements.
//!
//! Untraced, a statement is one call into the cluster facade
//! (`Cluster::query_as` / `Cluster::dml`). Traced, the benchmark composes
//! the same statement from each crate's public entry points and records one
//! span per call:
//!
//! | span             | call                                   | layer      |
//! |------------------|----------------------------------------|------------|
//! | `core.admit`     | `Governor::admit`                      | ic-core    |
//! | `sql.parse`      | `parse_sql`                            | ic-sql     |
//! | `sql.bind`       | `bind_statement` / `bind_dml`          | ic-sql     |
//! | `opt.hep`        | `hep::hep_stage` (timing probe)        | ic-opt     |
//! | `opt.optimize`   | `optimize_query` (Hep + Volcano)       | ic-opt     |
//! | `opt.dml_plan`   | `plan_dml`                             | ic-opt     |
//! | `exec.execute`   | `execute_plan`                         | ic-exec    |
//! | `storage.dml`    | `execute_dml` (apply + replicate)      | ic-storage |
//!
//! `optimize_query` runs the Hep stage itself, so the benchmark times Hep
//! with a separate `hep_stage` call whose output it discards; that probe is
//! tracing overhead and is left out of the statement time that layers are
//! charged against. Inside `execute_plan` the operator, fragment and
//! transfer detail comes from the engine's own per-query `Trace`, which must
//! pass `Trace::validate()`.

use ic_common::obs::{SpanRec, Trace};
use ic_common::{IcError, IcResult, Row};
use ic_core::Cluster;
use ic_exec::{execute_plan, ExecOptions, QueryStats};
use ic_plan::PlannerFlags;
use ic_sql::ast::Statement;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// The layers a statement's time is charged to, named after their crates.
pub const LAYERS: [&str; 6] = ["core", "sql", "opt", "exec", "net", "storage"];

/// The Hep timing probe: timed, but not charged to any layer.
const HEP_PROBE: &str = "opt.hep";

/// Totals of one kind of call (one span name).
#[derive(Debug, Default, Clone, Copy)]
pub struct CallTotals {
    pub calls: u64,
    pub ns: u64,
    pub failures: u64,
}

/// One layer's line of the layer table: calls, self time on the
/// statements' path, time spent waiting (admission queue, simulated wire)
/// and failed calls.
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerTotals {
    pub calls: u64,
    pub self_ns: u64,
    pub wait_ns: u64,
    pub failures: u64,
}

/// Everything the traced run accumulates: sums over all statements of the
/// traced window.
#[derive(Debug, Default)]
pub struct TraceTotals {
    pub queries: u64,
    pub writes: u64,
    /// Per span name: `core.admit`, `sql.parse`, …
    pub calls: BTreeMap<&'static str, CallTotals>,
    /// Statement wall time, minus the Hep timing probes.
    pub stmt_ns: u64,
    pub queue_wait_ns: u64,
    pub retries: u64,
    pub rule_firings: u64,
    pub exec_setup_ns: u64,
    pub fragments: u64,
    pub threads: u64,
    pub scan_rows: u64,
    pub result_rows: u64,
    pub scan_self_ns: u64,
    pub join_self_ns: u64,
    pub agg_self_ns: u64,
    pub sort_self_ns: u64,
    pub exchange_self_ns: u64,
    pub peak_buffered_cells: u64,
    pub transfers: u64,
    pub wire_wait_ns: u64,
    pub net_messages: u64,
    pub net_bytes: u64,
    /// `Trace::validate()` failures, with the statement that produced them.
    pub invalid_traces: Vec<String>,
}

impl TraceTotals {
    /// Total time of the calls named `name`.
    pub fn call_ns(&self, name: &str) -> u64 {
        self.calls.get(name).map_or(0, |c| c.ns)
    }

    /// The layer table line of `layer` (one of [`LAYERS`]). `ic-net` makes
    /// no call on the statement's path; its calls are transfers and its
    /// wait is their simulated sleep.
    pub fn layer(&self, layer: &str) -> LayerTotals {
        let mut t = LayerTotals::default();
        for (name, c) in &self.calls {
            if *name != HEP_PROBE && name.split('.').next() == Some(layer) {
                t.calls += c.calls;
                t.self_ns += c.ns;
                t.failures += c.failures;
            }
        }
        match layer {
            "core" => t.wait_ns = self.queue_wait_ns,
            "net" => {
                t.calls = self.transfers;
                t.wait_ns = self.wire_wait_ns;
            }
            _ => {}
        }
        t
    }
}

/// One recorded span: a benchmark-side call, or the statement itself
/// (`name` = `stmt.query` / `stmt.write`, the parent of its calls).
#[derive(Debug, Clone)]
pub struct SpanOut {
    pub stmt: u64,
    pub client: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub ok: bool,
}

/// Span recorder and totals for the traced run, shared by all clients.
pub struct Tracer {
    epoch: Instant,
    next_stmt: AtomicU64,
    state: Mutex<(TraceTotals, Vec<SpanOut>)>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            next_stmt: AtomicU64::new(0),
            state: Mutex::new((TraceTotals::default(), Vec::new())),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn lock(&self) -> MutexGuard<'_, (TraceTotals, Vec<SpanOut>)> {
        self.state
            .lock()
            .expect("tracer lock poisoned by a panicking client")
    }

    /// Take the totals and spans recorded so far.
    pub fn take(&self) -> (TraceTotals, Vec<SpanOut>) {
        std::mem::take(&mut *self.lock())
    }
}

/// One statement in flight on the traced path. Its spans are kept until it
/// ends; its counts go straight into the tracer's totals.
struct Stmt<'t> {
    tracer: &'t Tracer,
    id: u64,
    client: u64,
    start_ns: u64,
    probe_ns: u64,
    spans: Vec<SpanOut>,
}

impl<'t> Stmt<'t> {
    fn new(tracer: &'t Tracer, client: u64) -> Stmt<'t> {
        Stmt {
            tracer,
            id: tracer.next_stmt.fetch_add(1, Ordering::Relaxed),
            client,
            start_ns: tracer.now_ns(),
            probe_ns: 0,
            spans: Vec::new(),
        }
    }

    /// Time one call into a layer and record its span.
    fn call<T>(&mut self, name: &'static str, f: impl FnOnce() -> IcResult<T>) -> IcResult<T> {
        let start_ns = self.tracer.now_ns();
        let out = f();
        let end_ns = self.tracer.now_ns();
        let ok = out.is_ok();
        self.spans.push(SpanOut {
            stmt: self.id,
            client: self.client,
            name,
            start_ns,
            end_ns,
            ok,
        });
        if name == HEP_PROBE {
            self.probe_ns += end_ns - start_ns;
        }
        self.add(|t| {
            let c = t.calls.entry(name).or_default();
            c.calls += 1;
            c.ns += end_ns - start_ns;
            c.failures += u64::from(!ok);
        });
        out
    }

    /// Add to the totals under the tracer's lock.
    fn add(&self, f: impl FnOnce(&mut TraceTotals)) {
        f(&mut self.tracer.lock().0);
    }

    /// Close the statement. It ends where its last call ends, so the
    /// benchmark's own bookkeeping after that call is not charged to it.
    fn finish(mut self, name: &'static str, ok: bool) {
        let end_ns = self
            .spans
            .iter()
            .map(|s| s.end_ns)
            .max()
            .unwrap_or(self.start_ns);
        self.spans.push(SpanOut {
            stmt: self.id,
            client: self.client,
            name,
            start_ns: self.start_ns,
            end_ns,
            ok,
        });
        let mut st = self.tracer.lock();
        st.0.stmt_ns += (end_ns - self.start_ns).saturating_sub(self.probe_ns);
        st.1.append(&mut self.spans);
    }

    /// Fold the engine's trace of one `execute_plan` call into the totals.
    fn absorb_exec(&self, trace: &Trace, entry_ns: u64, stats: Option<&QueryStats>, rows: usize) {
        let invalid = trace.validate().err();
        let spans = trace.spans();
        let first_fragment = spans
            .iter()
            .filter(|s| s.cat == "fragment")
            .map(|s| s.start_ns)
            .min();
        let transfers: Vec<u64> = spans
            .iter()
            .filter(|s| s.cat == "net")
            .map(|s| s.end_ns - s.start_ns)
            .collect();
        let exchange_ns = fragment_self_ns(&spans);
        let attempt = trace.attempts().last().cloned();

        let mut st = self.tracer.lock();
        let a = &mut st.0;
        if let Some(e) = invalid {
            a.invalid_traces.push(format!("statement {}: {e}", self.id));
        }
        if let Some(first) = first_fragment {
            a.exec_setup_ns += first.saturating_sub(entry_ns);
        }
        a.transfers += transfers.len() as u64;
        a.wire_wait_ns += transfers.iter().sum::<u64>();
        a.exchange_self_ns += exchange_ns;
        if let Some(attempt) = attempt {
            for (i, op) in attempt.ops().iter().enumerate() {
                let node = i as u32;
                let self_ns = attempt.self_ns(node);
                let label = op.label.as_str();
                if label.starts_with("TableScan") || label.starts_with("IndexScan") {
                    a.scan_self_ns += self_ns;
                    a.scan_rows += attempt.rows(node);
                } else if label.contains("Join") {
                    a.join_self_ns += self_ns;
                } else if label.contains("Aggregate") {
                    a.agg_self_ns += self_ns;
                } else if label == "Sort" {
                    a.sort_self_ns += self_ns;
                }
            }
        }
        a.result_rows += rows as u64;
        if let Some(s) = stats {
            a.fragments += s.fragments as u64;
            a.threads += s.threads as u64;
            a.net_messages += s.net_messages;
            a.net_bytes += s.net_bytes;
            a.peak_buffered_cells = a.peak_buffered_cells.max(s.peak_buffered_rows);
        }
    }
}

/// Sender-side exchange time: for each fragment span, the part of its
/// interval that no operator or transfer span under it covers — the time
/// spent partitioning, encoding and handing batches to the channel.
fn fragment_self_ns(spans: &[SpanRec]) -> u64 {
    let mut total = 0;
    for f in spans.iter().filter(|s| s.cat == "fragment") {
        let mut kids: Vec<(u64, u64)> = spans
            .iter()
            .filter(|s| s.parent == Some(f.id) && (s.cat == "operator" || s.cat == "net"))
            .map(|s| (s.start_ns.max(f.start_ns), s.end_ns.min(f.end_ns)))
            .filter(|(a, b)| a < b)
            .collect();
        kids.sort_unstable();
        let mut covered = 0;
        let mut cur: Option<(u64, u64)> = None;
        for (a, b) in kids {
            match cur {
                Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                Some((ca, cb)) => {
                    covered += cb - ca;
                    cur = Some((a, b));
                }
                None => cur = Some((a, b)),
            }
        }
        if let Some((ca, cb)) = cur {
            covered += cb - ca;
        }
        total += (f.end_ns - f.start_ns).saturating_sub(covered);
    }
    total
}

/// A cluster plus, in the traced run, the tracer its statements record to.
pub struct Engine {
    pub cluster: Arc<Cluster>,
    flags: PlannerFlags,
    pub tracer: Option<Tracer>,
}

impl Engine {
    pub fn new(cluster: Arc<Cluster>, traced: bool) -> Engine {
        let mut flags = cluster.variant().flags();
        if let Some(b) = cluster.config().planner_budget {
            flags.planner_budget = b;
        }
        Engine {
            cluster,
            flags,
            tracer: traced.then(Tracer::new),
        }
    }

    /// Run a SELECT on behalf of `client`; returns its rows.
    pub fn query(&self, client: u64, sql: &str) -> IcResult<Vec<Row>> {
        match &self.tracer {
            None => self.cluster.query_as(client, sql).map(|r| r.rows),
            Some(t) => {
                let mut stmt = Stmt::new(t, client);
                stmt.add(|t| t.queries += 1);
                let out = self.traced_query(&mut stmt, client, sql);
                stmt.finish("stmt.query", out.is_ok());
                out
            }
        }
    }

    /// Run an INSERT/UPDATE/DELETE; returns the rows it affected.
    pub fn write(&self, sql: &str, client: u64) -> IcResult<usize> {
        match &self.tracer {
            None => self.cluster.dml(sql).map(|r| r.rows_affected),
            Some(t) => {
                let mut stmt = Stmt::new(t, client);
                stmt.add(|t| t.writes += 1);
                let out = self.traced_write(&mut stmt, sql);
                stmt.finish("stmt.write", out.is_ok());
                out
            }
        }
    }

    /// `Cluster::query_as`, one call at a time. Failover-retryable errors
    /// replan and retry as the facade does, without its backoff sleep.
    fn traced_query(&self, stmt: &mut Stmt<'_>, client: u64, sql: &str) -> IcResult<Vec<Row>> {
        let c = &self.cluster;
        let config = c.config();
        let deadline = config.exec_timeout.map(|t| Instant::now() + t);
        let admission = stmt.call("core.admit", || c.governor().admit(client, deadline))?;
        let wait = u64::try_from(admission.queue_wait().as_nanos()).unwrap_or(u64::MAX);
        stmt.add(|t| t.queue_wait_ns += wait);
        let mut attempt = 0;
        loop {
            let Statement::Query(ast) = stmt.call("sql.parse", || ic_sql::parse_sql(sql))? else {
                return Err(IcError::Exec("the benchmark's queries are SELECTs".into()));
            };
            let bound = stmt.call("sql.bind", || ic_sql::bind_statement(&ast, c.catalog()))?;
            stmt.call(HEP_PROBE, || {
                ic_opt::hep::hep_stage(bound.plan.clone(), &self.flags)
            })?;
            let optimized = stmt.call("opt.optimize", || {
                ic_opt::optimize_query(bound.plan.clone(), c.catalog(), &self.flags)
            })?;
            stmt.add(|t| t.rule_firings += optimized.rule_firings);
            let trace = Trace::new();
            let opts = ExecOptions {
                variant_fragments: self.flags.variant_fragments,
                timeout: config.exec_timeout,
                memory_limit_rows: config.memory_limit_rows,
                pool: Some(c.governor().pool().clone()),
                trace: Some(trace.clone()),
                trace_parent: None,
                worker_threads: config.worker_threads,
                morsel_rows: config.morsel_rows,
                ..ExecOptions::default()
            };
            let entry_ns = trace.now_ns();
            let out = stmt.call("exec.execute", || {
                execute_plan(&optimized.plan, c.catalog(), c.network(), &opts)
            });
            match out {
                Ok((rows, stats)) => {
                    stmt.absorb_exec(&trace, entry_ns, Some(&stats), rows.len());
                    return Ok(rows);
                }
                Err(e) if e.is_failover_retryable() && attempt < config.max_retries => {
                    stmt.absorb_exec(&trace, entry_ns, None, 0);
                    attempt += 1;
                    stmt.add(|t| t.retries += 1);
                    c.network().refresh_liveness();
                    c.repair();
                }
                Err(e) => {
                    stmt.absorb_exec(&trace, entry_ns, None, 0);
                    return Err(e);
                }
            }
        }
    }

    /// `Cluster::dml`, one call at a time, with the same retry rule as
    /// [`Engine::traced_query`].
    fn traced_write(&self, stmt: &mut Stmt<'_>, sql: &str) -> IcResult<usize> {
        let c = &self.cluster;
        let parsed = stmt.call("sql.parse", || ic_sql::parse_sql(sql))?;
        let bound = stmt.call("sql.bind", || ic_sql::bind_dml(&parsed, c.catalog()))?;
        let mut attempt = 0;
        loop {
            let plan = stmt.call("opt.dml_plan", || {
                ic_opt::plan_dml(c.catalog(), bound.clone())
            })?;
            let out = stmt.call("storage.dml", || {
                ic_storage::execute_dml(
                    c.catalog(),
                    c.network(),
                    plan.table,
                    &plan.op,
                    plan.pinned_partition(),
                )
            });
            match out {
                Ok(out) => {
                    if out.degraded {
                        c.repair();
                    }
                    return Ok(out.rows_affected);
                }
                Err(e) if e.is_failover_retryable() && attempt < c.config().max_retries => {
                    attempt += 1;
                    stmt.add(|t| t.retries += 1);
                    c.network().refresh_liveness();
                    c.repair();
                }
                Err(e) => return Err(e),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, cat: &'static str, start: u64, end: u64) -> SpanRec {
        SpanRec {
            id: ic_common::obs::SpanId(id),
            parent: parent.map(ic_common::obs::SpanId),
            name: String::new(),
            cat,
            lane: 0,
            start_ns: start,
            end_ns: end,
            args: Vec::new(),
        }
    }

    #[test]
    fn fragment_self_time_subtracts_covered_union() {
        let spans = vec![
            span(0, None, "fragment", 0, 100),
            // Two overlapping operator spans cover [10, 50).
            span(1, Some(0), "operator", 10, 40),
            span(2, Some(0), "operator", 20, 50),
            // A transfer covers [60, 70).
            span(3, Some(0), "net", 60, 70),
            // Spans of another category or parent do not count.
            span(4, Some(0), "exec", 70, 100),
            span(5, None, "operator", 0, 100),
        ];
        assert_eq!(fragment_self_ns(&spans), 100 - 40 - 10);
    }

    #[test]
    fn layers_sum_their_calls_but_not_the_hep_probe() {
        let mut t = TraceTotals::default();
        for (name, ns, failures) in [
            ("sql.parse", 10, 0),
            ("sql.bind", 20, 1),
            (HEP_PROBE, 5, 0),
            ("opt.optimize", 30, 0),
        ] {
            t.calls.insert(
                name,
                CallTotals {
                    calls: 1,
                    ns,
                    failures,
                },
            );
        }
        t.queue_wait_ns = 7;
        t.transfers = 3;
        t.wire_wait_ns = 9;
        let sql = t.layer("sql");
        assert_eq!((sql.calls, sql.self_ns, sql.failures), (2, 30, 1));
        assert_eq!(t.layer("opt").self_ns, 30);
        assert_eq!(t.call_ns(HEP_PROBE), 5);
        assert_eq!(t.layer("core").wait_ns, 7);
        let net = t.layer("net");
        assert_eq!((net.calls, net.self_ns, net.wait_ns), (3, 0, 9));
    }
}
