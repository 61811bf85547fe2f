//! The three workloads and the closed-loop driver they share.
//!
//! * `tpch` — one client repeats the 20 supported TPC-H queries (fig7).
//! * `kv` — two clients, 80 % primary-key point reads, 20 % single-row
//!   upserts over a 10k-row table.
//! * `htap` — one client runs the Table 3 AQL query set while a second
//!   rewrites `l_comment` of single lineitem rows.
//!
//! Every input (data, keys, query order) is derived from the seed.

use crate::check::{self, Canon};
use crate::engine::Engine;
use crate::json::Json;
use ic_common::{Datum, Row};
use ic_core::{Cluster, ClusterConfig, NetworkConfig, SystemVariant};
use ic_net::SplitMix64;
use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// TPC-H scale factor of `tpch` and `htap`.
pub const SF: f64 = 0.01;
/// The seed whose expected TPC-H results are stored with the benchmark.
pub const DEFAULT_SEED: u64 = 1;
/// Rows in the `kv` table.
const KV_ROWS: u64 = 10_000;

/// The paper's calibrated network: 200 µs per message, 100 MB/s.
fn calibrated_network() -> NetworkConfig {
    NetworkConfig {
        latency: Duration::from_micros(200),
        bandwidth_bytes_per_sec: 100_000_000,
    }
}

fn cluster_config(backups: usize, network: NetworkConfig) -> ClusterConfig {
    ClusterConfig {
        sites: 4,
        variant: SystemVariant::ICPlus,
        backups,
        network,
        ..ClusterConfig::default()
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock()
        .expect("benchmark state lock poisoned by a panicking client")
}

/// What one client saw in one window.
#[derive(Default)]
pub struct Tally {
    pub query_us: Vec<f64>,
    pub read_us: Vec<f64>,
    pub write_us: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub mismatches: Vec<String>,
}

impl Tally {
    fn absorb(&mut self, other: Tally) {
        self.query_us.extend_from_slice(&other.query_us);
        self.read_us.extend_from_slice(&other.read_us);
        self.write_us.extend_from_slice(&other.write_us);
        self.absorb_counts(&other);
    }

    /// Add another tally's counts, errors and mismatches, not its samples.
    pub fn absorb_counts(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.errors.extend_from_slice(&other.errors);
        self.mismatches.extend_from_slice(&other.mismatches);
    }

    fn fail(&mut self, what: &str, e: impl std::fmt::Display) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(format!("{what}: {e}"));
        }
    }

    fn mismatch(&mut self, m: String) {
        if self.mismatches.len() < 20 {
            self.mismatches.push(m);
        }
    }

    pub fn completed(&self) -> usize {
        self.query_us.len() + self.read_us.len() + self.write_us.len()
    }
}

/// A closed-loop client: each step issues one statement and waits for it.
pub trait Client: Send {
    fn step(&mut self, engine: &Engine, tally: &mut Tally);
}

/// Run every client until `seconds` have passed; returns the merged tally
/// and the window's wall time.
pub fn window(engine: &Engine, clients: &mut [Box<dyn Client>], seconds: f64) -> (Tally, f64) {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut total = Tally::default();
    std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|c| {
                s.spawn(move || {
                    let mut t = Tally::default();
                    while Instant::now() < deadline {
                        c.step(engine, &mut t);
                    }
                    t
                })
            })
            .collect();
        for h in handles {
            total.absorb(h.join().expect("client thread panicked"));
        }
    });
    (total, start.elapsed().as_secs_f64())
}

/// Run `steps` statements per client, one client after another.
pub fn warmup(engine: &Engine, clients: &mut [Box<dyn Client>], steps: usize) -> Tally {
    let mut t = Tally::default();
    for c in clients.iter_mut() {
        for _ in 0..steps {
            c.step(engine, &mut t);
        }
    }
    t
}

/// Checks run after the timed windows; returns the mismatches found and a
/// note on what the results were checked against.
pub type Check = Box<dyn FnOnce(&Engine) -> (Vec<String>, String)>;

/// A prepared workload: its loaded cluster, its clients and the set-up
/// times measured while preparing it.
pub struct Prepared {
    pub cluster: Arc<Cluster>,
    pub clients: Vec<Box<dyn Client>>,
    pub setup_s: Vec<f64>,
    pub warmup_steps: usize,
    /// Whether statements may fail (be refused or shed) without failing
    /// the run.
    pub failures_allowed: bool,
    pub config: Vec<(&'static str, Json)>,
    pub check: Check,
}

/// Build `reps` clusters with `build`, timing each, and keep the last.
fn timed_setups(
    reps: usize,
    mut build: impl FnMut() -> Result<(Cluster, f64), String>,
) -> Result<(Arc<Cluster>, Vec<f64>), String> {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        // Drop the previous cluster first so set-ups do not stack memory.
        drop(last.take());
        let (c, t) = build()?;
        times.push(t);
        last = Some(c);
    }
    Ok((Arc::new(last.expect("at least one set-up")), times))
}

/// Build a TPC-H cluster from pre-generated rows; returns it and the
/// seconds it took. Cloning the rows is not timed.
fn tpch_setup(
    config: &ClusterConfig,
    data: &[(&'static str, Vec<Row>)],
) -> Result<(Cluster, f64), String> {
    let rows = data.iter().map(|(n, r)| (*n, r.clone())).collect();
    let t0 = Instant::now();
    let cluster = Cluster::new(config.clone());
    check::load_tpch(&cluster, rows)?;
    Ok((cluster, t0.elapsed().as_secs_f64()))
}

fn net_config(config: &ClusterConfig) -> Vec<(&'static str, Json)> {
    vec![
        ("sites", config.sites.into()),
        ("backups", config.backups.into()),
        ("variant", Json::str(config.variant.label())),
        (
            "net_latency_us",
            (config.network.latency.as_micros() as u64).into(),
        ),
        (
            "net_bandwidth_bytes_s",
            config.network.bandwidth_bytes_per_sec.into(),
        ),
        ("worker_threads", config.worker_threads.into()),
    ]
}

/// A client that repeats a query set in a seeded random order per pass and
/// checks that every run of a query returns the same rows as its first.
struct QueryClient {
    id: u64,
    rng: SplitMix64,
    queries: Vec<(usize, String)>,
    order: Vec<usize>,
    seen: Arc<Mutex<BTreeMap<usize, Canon>>>,
}

impl QueryClient {
    fn new(
        id: u64,
        seed: u64,
        queries: &[usize],
        seen: Arc<Mutex<BTreeMap<usize, Canon>>>,
    ) -> QueryClient {
        QueryClient {
            id,
            rng: SplitMix64::new(seed ^ 0x5157_0000 ^ id),
            queries: queries
                .iter()
                .map(|&q| (q, ic_benchdata::tpch::query(q)))
                .collect(),
            order: Vec::new(),
            seen,
        }
    }
}

impl Client for QueryClient {
    fn step(&mut self, engine: &Engine, tally: &mut Tally) {
        if self.order.is_empty() {
            // A new pass: a seeded permutation, consumed from the back.
            self.order = (0..self.queries.len()).collect();
            for i in (1..self.order.len()).rev() {
                let j = self.rng.next_below(i as u64 + 1) as usize;
                self.order.swap(i, j);
            }
        }
        let (q, sql) = &self.queries[self.order.pop().expect("non-empty pass")];
        tally.attempted += 1;
        let t0 = Instant::now();
        let out = engine.query(self.id, sql);
        let us = t0.elapsed().as_secs_f64() * 1e6;
        match out {
            Ok(rows) => {
                tally.query_us.push(us);
                if let Some(v) = check::order_violation(check::tpch_order_by(*q), &rows) {
                    tally.mismatch(format!("Q{q}: {v}"));
                }
                let canon = Canon::new(rows);
                let mut seen = lock(&self.seen);
                match seen.get(q) {
                    Some(first) => {
                        if let Err(d) = canon.diff(first) {
                            tally.mismatch(format!("Q{q} changed between runs: {d}"));
                        }
                    }
                    None => {
                        seen.insert(*q, canon);
                    }
                }
            }
            Err(e) => tally.fail(&format!("Q{q}"), e),
        }
    }
}

/// Compare the first result of every query against the expected results:
/// the stored file at the default seed, a 1-site reference cluster
/// otherwise.
fn check_tpch_results(
    seen: &BTreeMap<usize, Canon>,
    queries: &[usize],
    seed: u64,
    expected_dir: &Path,
) -> (Vec<String>, String) {
    let (expected, note) = if seed == DEFAULT_SEED {
        let path = expected_dir.join(expected_file_name());
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                return (
                    vec![format!("cannot read {}: {e}", path.display())],
                    String::new(),
                )
            }
        };
        match check::decode_expected(&text) {
            Ok(m) => (m, format!("stored results {}", path.display())),
            Err(e) => return (vec![format!("{}: {e}", path.display())], String::new()),
        }
    } else {
        match check::reference_results(SF, seed, queries) {
            Ok(m) => (m, "1-site single-lane reference cluster".to_string()),
            Err(e) => return (vec![e], String::new()),
        }
    };
    let mut mismatches = Vec::new();
    for q in queries {
        match (seen.get(q), expected.get(q)) {
            (Some(got), Some(want)) => {
                if let Err(d) = got.diff(want) {
                    mismatches.push(format!("Q{q}: {d}"));
                }
            }
            (None, _) => mismatches.push(format!("Q{q} never completed")),
            (_, None) => mismatches.push(format!("Q{q} has no expected result")),
        }
    }
    (mismatches, note)
}

/// Name of the stored expected-results file.
pub fn expected_file_name() -> String {
    format!("tpch-sf{SF}-seed{DEFAULT_SEED}.tsv")
}

/// `tpch`: fig7's suite, one client, IC+ on 4 sites, calibrated network,
/// no backups.
pub fn tpch(seed: u64, expected_dir: &Path) -> Result<Prepared, String> {
    let config = cluster_config(0, calibrated_network());
    let data = check::tpch_data(SF, seed);
    let (cluster, setup_s) = timed_setups(5, || tpch_setup(&config, &data))?;
    let queries = check::tpch_queries();
    let seen = Arc::new(Mutex::new(BTreeMap::new()));
    let clients: Vec<Box<dyn Client>> =
        vec![Box::new(QueryClient::new(0, seed, &queries, seen.clone()))];
    let mut cfg = net_config(&config);
    cfg.extend([
        ("sf", SF.into()),
        ("clients", 1usize.into()),
        ("queries", queries.len().into()),
    ]);
    let dir = expected_dir.to_path_buf();
    Ok(Prepared {
        cluster,
        clients,
        setup_s,
        warmup_steps: queries.len(),
        failures_allowed: false,
        config: cfg,
        check: Box::new(move |_| check_tpch_results(&lock(&seen), &queries, seed, &dir)),
    })
}

/// Shared state of the `kv` clients: the seed that fixes every key's
/// initial value, and per client the last acknowledged value of each key
/// it wrote.
struct KvState {
    seed: u64,
    shadows: Vec<Mutex<HashMap<i64, (i64, String)>>>,
}

impl KvState {
    /// Initial `(v, s)` of key `k`: non-negative, so it never collides
    /// with a client's write (always negative).
    fn initial(&self, k: i64) -> (i64, String) {
        let v = (SplitMix64::new(self.seed ^ (k as u64).wrapping_mul(0x9e37)).next_u64()
            % 1_000_000) as i64;
        (v, format!("i{v}"))
    }

    /// Value client `client` writes with sequence number `seq`.
    fn written(client: u64, seq: u64) -> (i64, String) {
        (-1 - (seq * 2 + client) as i64, format!("c{client}-{seq}"))
    }

    fn owner(k: i64) -> usize {
        (k % 2) as usize
    }

    /// The value key `k` must hold once every write has been acknowledged.
    fn expected(&self, k: i64) -> (i64, String) {
        lock(&self.shadows[Self::owner(k)])
            .get(&k)
            .cloned()
            .unwrap_or_else(|| self.initial(k))
    }

    /// Check a value read from key `k` while clients may be writing: it is
    /// the key's initial value or a write by the key's owner, and its
    /// string matches its number.
    fn plausible(&self, k: i64, v: i64, s: &str) -> bool {
        if v >= 0 {
            return (v, s.to_string()) == self.initial(k);
        }
        let n = (-1 - v) as u64;
        let (client, seq) = (n % 2, n / 2);
        client as usize == Self::owner(k) && s == format!("c{client}-{seq}")
    }
}

struct KvClient {
    id: u64,
    rng: SplitMix64,
    seq: u64,
    state: Arc<KvState>,
}

fn kv_row(rows: &[Row]) -> Option<(i64, String)> {
    match rows {
        [Row(r)] => match r.as_slice() {
            [Datum::Int(v), Datum::Str(s)] => Some((*v, s.to_string())),
            _ => None,
        },
        _ => None,
    }
}

impl Client for KvClient {
    fn step(&mut self, engine: &Engine, tally: &mut Tally) {
        tally.attempted += 1;
        if self.rng.next_below(100) < 80 {
            let k = self.rng.next_below(KV_ROWS) as i64;
            let sql = format!("SELECT v, s FROM kv WHERE k = {k}");
            let t0 = Instant::now();
            let out = engine.query(self.id, &sql);
            let us = t0.elapsed().as_secs_f64() * 1e6;
            match out {
                Ok(rows) => {
                    tally.read_us.push(us);
                    let ok = match kv_row(&rows) {
                        // Own keys: read-your-writes, exactly.
                        Some(got) if KvState::owner(k) == self.id as usize => {
                            got == self.state.expected(k)
                        }
                        Some((v, s)) => self.state.plausible(k, v, &s),
                        None => false,
                    };
                    if !ok {
                        tally.mismatch(format!(
                            "kv read of key {k} by client {}: {rows:?}",
                            self.id
                        ));
                    }
                }
                Err(e) => tally.fail("kv read", e),
            }
        } else {
            // Upsert one of this client's own keys (k ≡ id mod 2).
            let k = (self.rng.next_below(KV_ROWS / 2) * 2 + self.id) as i64;
            self.seq += 1;
            let (v, s) = KvState::written(self.id, self.seq);
            let sql = format!("INSERT INTO kv (k, v, s) VALUES ({k}, {v}, '{s}')");
            let t0 = Instant::now();
            let out = engine.write(&sql, self.id);
            let us = t0.elapsed().as_secs_f64() * 1e6;
            match out {
                Ok(n) => {
                    tally.write_us.push(us);
                    if n != 1 {
                        tally.mismatch(format!("kv upsert of key {k} affected {n} rows"));
                    }
                    lock(&self.state.shadows[self.id as usize]).insert(k, (v, s));
                }
                Err(e) => tally.fail("kv upsert", e),
            }
        }
    }
}

/// `kv`: two clients of point reads and upserts, 4 sites, one backup,
/// default network.
pub fn kv(seed: u64) -> Result<Prepared, String> {
    let config = cluster_config(1, NetworkConfig::default());
    let state = Arc::new(KvState {
        seed,
        shadows: (0..2).map(|_| Mutex::new(HashMap::new())).collect(),
    });
    let rows: Vec<Row> = (0..KV_ROWS as i64)
        .map(|k| {
            let (v, s) = state.initial(k);
            Row(vec![Datum::Int(k), Datum::Int(v), Datum::str(s)])
        })
        .collect();
    let (cluster, setup_s) = timed_setups(41, || {
        let rows = rows.clone();
        let t0 = Instant::now();
        let cluster = Cluster::new(config.clone());
        cluster
            .run("CREATE TABLE kv (k BIGINT, v BIGINT, s VARCHAR, PRIMARY KEY (k))")
            .map_err(|e| e.to_string())?;
        cluster.insert("kv", rows).map_err(|e| e.to_string())?;
        cluster.analyze_all().map_err(|e| e.to_string())?;
        Ok((cluster, t0.elapsed().as_secs_f64()))
    })?;
    let clients: Vec<Box<dyn Client>> = (0..2u64)
        .map(|id| {
            Box::new(KvClient {
                id,
                rng: SplitMix64::new(seed ^ 0x4b56_0000 ^ id),
                seq: 0,
                state: state.clone(),
            }) as Box<dyn Client>
        })
        .collect();
    let mut cfg = net_config(&config);
    cfg.extend([
        ("rows", KV_ROWS.into()),
        ("clients", 2usize.into()),
        ("read_share", 0.8.into()),
    ]);
    Ok(Prepared {
        cluster,
        clients,
        setup_s,
        warmup_steps: 100,
        failures_allowed: false,
        config: cfg,
        check: Box::new(move |engine| {
            // Audit: every key holds its last acknowledged value.
            let rows = match engine.cluster.query("SELECT k, v, s FROM kv") {
                Ok(r) => r.rows,
                Err(e) => return (vec![format!("kv audit: {e}")], String::new()),
            };
            let mut mismatches = Vec::new();
            if rows.len() != KV_ROWS as usize {
                mismatches.push(format!("kv audit: {} rows, expected {KV_ROWS}", rows.len()));
            }
            for r in &rows {
                let ok = match r.0.as_slice() {
                    [Datum::Int(k), Datum::Int(v), Datum::Str(s)] => {
                        (*v, s.to_string()) == state.expected(*k)
                    }
                    _ => false,
                };
                if !ok && mismatches.len() < 20 {
                    mismatches.push(format!(
                        "kv audit: {r:?} is not the last acknowledged value"
                    ));
                }
            }
            (
                mismatches,
                "per-client read-your-writes shadow and final audit".to_string(),
            )
        }),
    })
}

/// The `htap` writer: rewrites `l_comment` of one seeded lineitem row per
/// statement and remembers the last comment acknowledged for each row.
struct CommentWriter {
    id: u64,
    rng: SplitMix64,
    seq: u64,
    keys: Arc<Vec<(i64, i64)>>,
    shadow: Arc<Mutex<HashMap<(i64, i64), u64>>>,
}

impl Client for CommentWriter {
    fn step(&mut self, engine: &Engine, tally: &mut Tally) {
        let (o, l) = self.keys[self.rng.next_below(self.keys.len() as u64) as usize];
        self.seq += 1;
        let sql = format!(
            "UPDATE lineitem SET l_comment = 'htap w{}' WHERE l_orderkey = {o} AND l_linenumber = {l}",
            self.seq
        );
        tally.attempted += 1;
        let t0 = Instant::now();
        let out = engine.write(&sql, self.id);
        let us = t0.elapsed().as_secs_f64() * 1e6;
        match out {
            Ok(n) => {
                tally.write_us.push(us);
                if n != 1 {
                    tally.mismatch(format!("update of lineitem ({o}, {l}) affected {n} rows"));
                }
                lock(&self.shadow).insert((o, l), self.seq);
            }
            Err(e) => tally.fail("lineitem update", e),
        }
    }
}

/// `htap`: the AQL query set on one client while another updates
/// lineitem comments; IC+ on 4 sites, calibrated network, one backup.
pub fn htap(seed: u64, expected_dir: &Path) -> Result<Prepared, String> {
    let config = cluster_config(1, calibrated_network());
    let data = check::tpch_data(SF, seed);
    let keys: Vec<(i64, i64)> = data
        .iter()
        .find(|(n, _)| *n == "lineitem")
        .map(|(_, rows)| {
            rows.iter()
                .filter_map(|r| match (&r.0[0], &r.0[3]) {
                    (Datum::Int(o), Datum::Int(l)) => Some((*o, *l)),
                    _ => None,
                })
                .collect()
        })
        .unwrap_or_default();
    if keys.is_empty() {
        return Err("generated TPC-H data has no lineitem keys".into());
    }
    let (cluster, setup_s) = timed_setups(5, || tpch_setup(&config, &data))?;
    let queries = check::aql_queries();
    let seen = Arc::new(Mutex::new(BTreeMap::new()));
    let shadow = Arc::new(Mutex::new(HashMap::new()));
    let clients: Vec<Box<dyn Client>> = vec![
        Box::new(QueryClient::new(0, seed, &queries, seen.clone())),
        Box::new(CommentWriter {
            id: 1,
            rng: SplitMix64::new(seed ^ 0x4854_0000),
            seq: 0,
            keys: Arc::new(keys),
            shadow: shadow.clone(),
        }),
    ];
    let mut cfg = net_config(&config);
    cfg.extend([
        ("sf", SF.into()),
        ("clients", 2usize.into()),
        ("queries", queries.len().into()),
    ]);
    let dir = expected_dir.to_path_buf();
    Ok(Prepared {
        cluster,
        clients,
        setup_s,
        warmup_steps: queries.len(),
        failures_allowed: true,
        config: cfg,
        check: Box::new(move |engine| {
            let (mut mismatches, note) = check_tpch_results(&lock(&seen), &queries, seed, &dir);
            // Audit: exactly the rows written hold their last comment.
            let sql = "SELECT l_orderkey, l_linenumber, l_comment FROM lineitem WHERE l_comment LIKE 'htap w%'";
            match engine.cluster.query(sql) {
                Ok(r) => {
                    let mut got = HashMap::new();
                    for row in &r.rows {
                        if let [Datum::Int(o), Datum::Int(l), Datum::Str(c)] = row.0.as_slice() {
                            let seq = c.strip_prefix("htap w").and_then(|n| n.parse::<u64>().ok());
                            got.insert((*o, *l), seq);
                        }
                    }
                    let want: HashMap<(i64, i64), Option<u64>> =
                        lock(&shadow).iter().map(|(k, v)| (*k, Some(*v))).collect();
                    if got != want {
                        mismatches.push(format!(
                            "lineitem audit: {} rewritten rows found, {} acknowledged, contents differ",
                            got.len(),
                            want.len()
                        ));
                    }
                }
                Err(e) => mismatches.push(format!("lineitem audit: {e}")),
            }
            (mismatches, format!("{note}; lineitem comment audit"))
        }),
    })
}
