//! Replay every minimized fuzz reproducer under `tests/regressions/`.
//!
//! Each `.fix` file is a self-contained scenario — schema, cluster shape,
//! fault schedule, SQL — distilled from a differential-fuzzing failure
//! (see `crates/fuzz`). Replaying them through the full oracle battery on
//! every `cargo test` keeps fixed bugs fixed; a red fixture prints its
//! governing seed and path so `ic-fuzz --replay-fixture` reproduces it
//! standalone.

use ic_fuzz::{Env, Fixture};
use std::path::PathBuf;

#[test]
fn all_regression_fixtures_replay_green() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/regressions");
    let mut paths: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("cannot list {}: {e}", dir.display()))
        .filter_map(|entry| {
            let p = entry.expect("readable dir entry").path();
            (p.extension().is_some_and(|x| x == "fix")).then_some(p)
        })
        .collect();
    paths.sort();
    assert!(
        paths.len() >= 2,
        "expected at least 2 regression fixtures in {}, found {}",
        dir.display(),
        paths.len()
    );

    let mut env = Env::new();
    for path in &paths {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
        let fixture = Fixture::parse(&text)
            .unwrap_or_else(|e| panic!("bad fixture {}: {e}", path.display()));
        let outcome = fixture
            .replay(&mut env)
            .unwrap_or_else(|e| panic!("fixture {} did not replay: {e}", path.display()));
        if let Some(d) = &outcome.disagreement {
            panic!(
                "regression fixture {} (seed {}) failed — replay with \
                 `cargo run -p ic-fuzz -- --replay-fixture {}`:\n{d}",
                path.display(),
                fixture.seed,
                path.display()
            );
        }
    }
}

/// DML-fuzz regressions: the governing seeds whose minimized streams
/// exposed real write-path bugs, replayed through the write-aware oracle
/// on every `cargo test` so the fixes stay fixed.
///
/// * seed 57 — a retried multi-partition DELETE legally undercounts
///   `rows_affected` (per-partition-batch atomicity); pinned the oracle's
///   retry-aware count semantics.
/// * seed 59 — a DELETE acked while its only surviving copy sat on a
///   site about to die (degraded replication window), then a stale
///   revived replica resurrected the deleted row; fixed by the
///   replication floor (no ack below `min(backups+1, live_members)`
///   confirmed copies) and resync-or-demote at every down→alive
///   transition.
#[test]
fn dml_regression_seeds_replay_green() {
    use ic_fuzz::{run_dml_scenario, DmlScenario};
    for seed in [57u64, 59] {
        let outcome = run_dml_scenario(&DmlScenario::from_seed(seed));
        if let Some(d) = &outcome.disagreement {
            panic!(
                "DML regression seed {seed} failed — replay with \
                 `cargo run -p ic-fuzz -- --dml-replay {seed}`:\n{d}"
            );
        }
    }
}

/// Secondary indexes follow writes. An index used to be a copy of the rows
/// taken at ANALYZE (or at CREATE INDEX), so no index scan ever saw later
/// DML. Reproduction at TPC-H SF 0.002 (seed 1) on 4 sites, IC+: raise one
/// line of order 7 to quantity 1000 — a table scan then sums 1099 for the
/// order — and Q18, planned through `IndexScan(lineitem.ix_l_pk)`, must
/// list order 7 among its large-volume orders.
#[test]
fn index_scans_see_committed_writes() {
    use ignite_calcite_rs::benchdata::tpch;
    use ignite_calcite_rs::{Cluster, ClusterConfig, Datum, NetworkConfig, SystemVariant};
    use std::time::Duration;

    let cluster = Cluster::new(ClusterConfig {
        sites: 4,
        variant: SystemVariant::ICPlus,
        network: NetworkConfig::instant(),
        exec_timeout: Some(Duration::from_secs(60)),
        planner_budget: None,
        memory_limit_rows: 20_000_000,
        ..ClusterConfig::default()
    });
    for ddl in tpch::DDL.iter().chain(tpch::INDEX_DDL) {
        cluster.run(ddl).unwrap();
    }
    for t in tpch::generate(0.002, 1) {
        cluster.insert(t.name, t.rows).unwrap();
    }
    cluster.analyze_all().unwrap();
    cluster
        .dml("UPDATE lineitem SET l_quantity = 1000 WHERE l_orderkey = 7 AND l_linenumber = 1")
        .unwrap();
    let total = cluster.query("SELECT sum(l_quantity) FROM lineitem WHERE l_orderkey = 7").unwrap();
    assert_eq!(total.rows[0].0[0].as_double(), Some(1099.0), "table scan sees the write");
    let q18 = tpch::query(18);
    let plan = cluster.explain(&q18).unwrap();
    assert!(plan.contains("IndexScan(lineitem.ix_l_pk)"), "Q18 no longer reads the index:\n{plan}");
    let rows = cluster.query(&q18).unwrap().rows;
    assert!(
        rows.iter().any(|r| r.0[2] == Datum::Int(7)),
        "Q18 through the index misses order 7: {rows:?}"
    );
}
