//! Chaos tests for the write path and elastic topology.
//!
//! The acceptance bar for online DML: with `backups = 1` and a seeded fault
//! plan that permanently kills a site **mid-stream of acknowledged writes**,
//!
//! * zero acknowledged writes are lost (promotion picks the
//!   highest-version live replica, which confirmed every ack),
//! * readers never observe a torn multi-row batch (snapshot stores commit
//!   all-or-nothing), and
//! * a repair pass returns every partition to the full replication factor,
//!
//! and the whole scenario replays identically from the same seed.

use ignite_calcite_rs::{
    Cluster, ClusterConfig, Datum, FaultPlan, NetworkConfig, SiteId, SystemVariant,
};
use std::collections::BTreeMap;
use std::time::Duration;

const BATCH: i64 = 5;
const BATCHES: i64 = 60;
const SEED: u64 = 4242;
/// Logical tick at which site 2 dies — early enough that most of the write
/// stream happens after it (the mid-stream kill the tentpole demands).
const CRASH_TICK: u64 = 25;

fn dml_cluster() -> Cluster {
    let cluster = Cluster::new(ClusterConfig {
        sites: 4,
        backups: 1,
        variant: SystemVariant::ICPlus,
        network: NetworkConfig::instant(),
        exec_timeout: Some(Duration::from_secs(30)),
        max_retries: 4,
        ..ClusterConfig::test_default()
    });
    cluster
        .run("CREATE TABLE kv (k BIGINT, v BIGINT, grp BIGINT, PRIMARY KEY (k))")
        .unwrap();
    cluster
}

/// Everything a determinism comparison needs from one scenario run: the
/// acked reference map, the final table contents, and the total failover
/// retries spent.
type ScenarioOutcome = (BTreeMap<i64, i64>, Vec<(i64, i64, i64)>, u32);

/// One full scenario run: stream acknowledged multi-row insert batches while
/// the fault plan kills site 2, interleaving reads.
fn run_scenario() -> ScenarioOutcome {
    let cluster = dml_cluster();
    cluster.install_faults(FaultPlan::new(SEED).crash(SiteId(2), CRASH_TICK));
    let mut acked: BTreeMap<i64, i64> = BTreeMap::new();
    let mut retries = 0u32;
    for batch in 0..BATCHES {
        let values: Vec<String> = (0..BATCH)
            .map(|j| {
                let k = batch * BATCH + j;
                format!("({k}, {}, {batch})", k * 10)
            })
            .collect();
        let sql = format!("INSERT INTO kv (k, v, grp) VALUES {}", values.join(", "));
        let r = cluster.dml(&sql).unwrap_or_else(|e| {
            panic!("write batch {batch} must eventually ack through repair: {e}")
        });
        retries += r.retries;
        for j in 0..BATCH {
            let k = batch * BATCH + j;
            acked.insert(k, k * 10);
        }
        // Interleaved torn-read probe: a batch shares one `grp` value and
        // commits per partition all-or-nothing; since rows of one batch can
        // span partitions, the invariant a reader may rely on is per
        // (grp, partition) atomicity — the aggregate count per grp over the
        // *acked* batches must be exactly BATCH.
        if batch % 10 == 9 {
            let q = cluster
                .query("SELECT grp, count(*) AS c FROM kv GROUP BY grp ORDER BY grp")
                .unwrap();
            for row in &q.rows {
                let c = row.0[1].as_int().unwrap();
                assert_eq!(c, BATCH, "torn batch visible for grp {:?}", row.0[0]);
            }
        }
    }
    // Repair to full replication factor, then verify nothing acked was lost.
    cluster.repair();
    let q = cluster.query("SELECT k, v, grp FROM kv ORDER BY k").unwrap();
    let rows: Vec<(i64, i64, i64)> = q
        .rows
        .iter()
        .map(|r| {
            (
                r.0[0].as_int().unwrap(),
                r.0[1].as_int().unwrap(),
                r.0[2].as_int().unwrap(),
            )
        })
        .collect();
    // Structural invariants before the cluster is dropped.
    let down = cluster.network().liveness().down_sites();
    assert!(down.contains(&SiteId(2)), "the seeded crash must have fired");
    let map = cluster.catalog().membership().snapshot();
    let data = cluster
        .catalog()
        .table_data(cluster.catalog().table_by_name("kv").unwrap())
        .unwrap();
    for p in 0..map.num_partitions() {
        let live: Vec<SiteId> =
            map.owners_of(p).iter().copied().filter(|s| !down.contains(s)).collect();
        assert!(
            live.len() >= 2,
            "partition {p} not back to full replication factor: {:?}",
            map.owners_of(p)
        );
        assert!(
            !down.contains(&map.primary_of(p)),
            "partition {p} primary still dead after repair"
        );
        // Every live replica converged to the same store.
        let stores: Vec<_> = live.iter().map(|&s| data.replica(p, s).unwrap()).collect();
        for s in &stores[1..] {
            assert_eq!(s.version, stores[0].version, "partition {p} replica version skew");
            assert_eq!(s.len(), stores[0].len(), "partition {p} replica row skew");
        }
    }
    (acked, rows, retries)
}

#[test]
fn killing_a_site_mid_stream_loses_no_acknowledged_write() {
    let (acked, rows, retries) = run_scenario();
    assert_eq!(acked.len() as i64, BATCH * BATCHES);
    assert_eq!(rows.len(), acked.len(), "acked rows lost or duplicated");
    for (k, v, _grp) in &rows {
        assert_eq!(acked.get(k), Some(v), "acked write k={k} corrupted");
    }
    assert!(retries >= 1, "the crash should have forced at least one failover retry");
}

/// The same seed replays the identical scenario: same acked set, same final
/// table contents, same retry spend.
#[test]
fn chaos_write_scenario_is_deterministic() {
    let a = run_scenario();
    let b = run_scenario();
    assert_eq!(a.0, b.0);
    assert_eq!(a.1, b.1);
    assert_eq!(a.2, b.2);
}

/// Concurrent snapshot readers during a live write stream never see a torn
/// batch inside one partition: a scan pinned to a single partition's store
/// observes whole committed versions only.
#[test]
fn readers_see_whole_batches_only() {
    let cluster = dml_cluster();
    let catalog = cluster.catalog().clone();
    let id = catalog.table_by_name("kv").unwrap();
    let data = catalog.table_data(id).unwrap();
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    // Set once the reader has scanned every partition: the writes start
    // only then, so they are sure to overlap the reads however fast they
    // commit.
    let reading = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let reader = {
        let data = data.clone();
        let stop = stop.clone();
        let reading = reading.clone();
        std::thread::spawn(move || {
            let mut observed = 0u64;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                for p in 0..data.num_partitions() {
                    let store = data.store(p);
                    // Each segment's columns and versions agree, and no row
                    // carries a version newer than its store: the snapshot
                    // is a committed prefix, never a torn write.
                    for seg in store.segments.iter() {
                        assert_eq!(seg.batch.num_rows(), seg.versions.len());
                        assert!(seg.versions.iter().all(|&v| v <= store.version));
                    }
                    observed += 1;
                }
                reading.store(true, std::sync::atomic::Ordering::Relaxed);
            }
            observed
        })
    };
    while !reading.load(std::sync::atomic::Ordering::Relaxed) {
        std::thread::yield_now();
    }
    for batch in 0..40i64 {
        let values: Vec<String> = (0..BATCH)
            .map(|j| format!("({}, {j}, {batch})", batch * BATCH + j))
            .collect();
        cluster
            .dml(&format!("INSERT INTO kv (k, v, grp) VALUES {}", values.join(", ")))
            .unwrap();
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let observed = reader.join().unwrap();
    assert!(observed > 0);
    assert_eq!(
        cluster.query("SELECT count(*) FROM kv").unwrap().rows[0].0[0],
        Datum::Int(40 * BATCH)
    );
}
