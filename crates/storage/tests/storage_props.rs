//! Property tests for the storage substrate: partition routing, statistics
//! vs brute force, indexes over the current snapshot, and segment writes vs
//! a row-vector shadow.

use ic_common::row::BATCH_SIZE;
use ic_common::{BinOp, DataType, Datum, Expr, Field, Row, Schema};
use ic_net::Topology;
use ic_storage::catalog::{IndexDef, IndexId, TableId};
use ic_storage::write::{apply_op, WriteOp};
use ic_storage::{Catalog, Index, PartStore, SortedRun, TableData, TableDistribution};
use proptest::prelude::*;
use std::sync::Arc;

fn schema() -> Schema {
    Schema::new(vec![
        Field::new("k", DataType::Int),
        Field::new("v", DataType::Int),
        Field::new("s", DataType::Str),
    ])
}

fn row(k: i64, v: i64) -> Row {
    Row(vec![Datum::Int(k), Datum::Int(v), Datum::str(format!("s{}", v.rem_euclid(3)))])
}

fn rows(data: &[(i64, i64)]) -> Vec<Row> {
    data.iter().map(|&(k, v)| row(k, v)).collect()
}

/// The rows an index run yields, in its order.
fn index_rows(run: &SortedRun, store: &PartStore) -> Vec<Row> {
    run.positions
        .iter()
        .map(|&(s, i)| store.segments[s as usize].batch.row_at(i as usize))
        .collect()
}

/// `store`'s rows stably sorted on `cols` — what an index must yield.
fn key_sorted(store: &PartStore, cols: &[usize]) -> Vec<Row> {
    let mut want = store.to_rows();
    want.sort_by_key(|r| r.project(cols));
    want
}

/// `lo <= k < hi` on column 0.
fn key_range(lo: i64, hi: i64) -> Expr {
    Expr::and(
        Expr::binary(BinOp::Ge, Expr::col(0), Expr::lit(lo)),
        Expr::binary(BinOp::Lt, Expr::col(0), Expr::lit(hi)),
    )
}

/// One random write against a single partition.
#[derive(Debug, Clone)]
enum Op {
    /// Upsert rows by key `k`.
    Insert(Vec<(i64, i64)>),
    /// `UPDATE SET v = v + delta WHERE lo <= k < hi`.
    Update { lo: i64, hi: i64, delta: i64 },
    /// `DELETE WHERE lo <= k < hi`.
    Delete { lo: i64, hi: i64 },
}

impl Op {
    fn write_op(&self) -> WriteOp {
        match self {
            Op::Insert(data) => WriteOp::Insert { rows: rows(data) },
            Op::Update { lo, hi, delta } => WriteOp::Update {
                assignments: vec![(1, Expr::binary(BinOp::Add, Expr::col(1), Expr::lit(*delta)))],
                predicate: Some(key_range(*lo, *hi)),
            },
            Op::Delete { lo, hi } => WriteOp::Delete { predicate: Some(key_range(*lo, *hi)) },
        }
    }

    /// Does the op touch the stored row `r`?
    fn matches(&self, r: &Row) -> bool {
        let k = r.0[0].as_int().unwrap();
        match self {
            Op::Insert(data) => data.iter().any(|&(nk, _)| nk == k),
            Op::Update { lo, hi, .. } | Op::Delete { lo, hi } => *lo <= k && k < *hi,
        }
    }

    /// Apply the op to the row-vector shadow (the old row store's rules).
    fn apply(&self, shadow: &mut Vec<Row>) {
        match self {
            Op::Insert(data) => {
                for &(k, v) in data {
                    match shadow.iter().position(|r| r.0[0] == Datum::Int(k)) {
                        Some(i) => shadow[i] = row(k, v),
                        None => shadow.push(row(k, v)),
                    }
                }
            }
            Op::Update { delta, .. } => {
                for r in shadow.iter_mut().filter(|r| self.matches(r)) {
                    r.0[1] = Datum::Int(r.0[1].as_int().unwrap() + delta);
                }
            }
            Op::Delete { .. } => shadow.retain(|r| !self.matches(r)),
        }
    }
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        proptest::collection::vec((0i64..1100, -50i64..50), 1..5).prop_map(Op::Insert),
        (0i64..1100, 0i64..40, 1i64..9).prop_map(|(lo, len, delta)| Op::Update {
            lo,
            hi: lo + len,
            delta
        }),
        (0i64..1100, 0i64..40).prop_map(|(lo, len)| Op::Delete { lo, hi: lo + len }),
    ]
}

fn index_on(columns: Vec<usize>) -> Index {
    Index::new(&IndexDef { id: IndexId(0), name: "ix".into(), table: TableId(0), columns }, 1)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Random write sequences on partitions of 0, 1, 1023, 1024 and 1025
    /// rows agree with a row-vector shadow, and after every write:
    /// untouched segments are shared by pointer, no row version exceeds the
    /// partition version, and every index yields key order over the
    /// current snapshot.
    #[test]
    fn segment_writes_match_row_shadow(
        size_pick in 0usize..5,
        ops in proptest::collection::vec(op_strategy(), 1..12),
    ) {
        let size = [0i64, 1, 1023, 1024, 1025][size_pick];
        let table = TableData::new(1, schema());
        let mut shadow: Vec<Row> = (0..size).map(|k| row(k, k % 7)).collect();
        if size > 0 {
            table.insert_into_partition(0, shadow.clone());
        }
        let mut store = table.store(0);
        let indexes = [index_on(vec![0]), index_on(vec![1, 0])];
        for op in &ops {
            let (next, affected) = apply_op(&store, &op.write_op(), &[0]).unwrap();
            let before = shadow.len();
            op.apply(&mut shadow);
            prop_assert!(next.to_rows() == shadow, "store diverged from the shadow after {:?}", op);
            if let Op::Delete { .. } = op {
                prop_assert_eq!(affected, before - shadow.len());
            }
            // An append may top up the last segment; nothing else unmatched
            // may be rebuilt.
            let appends = matches!(op, Op::Insert(_)) && shadow.len() > before;
            for (s, seg) in store.segments.iter().enumerate() {
                let topped_up = appends && s + 1 == store.segments.len() && seg.len() < BATCH_SIZE;
                if topped_up || seg.batch.to_rows().iter().any(|r| op.matches(r)) {
                    continue;
                }
                prop_assert!(
                    next.segments.iter().any(|n| Arc::ptr_eq(n, seg)),
                    "untouched segment {} rebuilt by {:?}", s, op
                );
            }
            if affected > 0 {
                store = next;
            }
            for seg in store.segments.iter() {
                prop_assert!(!seg.is_empty() && seg.len() <= BATCH_SIZE);
                prop_assert_eq!(seg.batch.num_rows(), seg.versions.len());
                prop_assert!(seg.versions.iter().all(|&v| v <= store.version));
            }
            for ix in &indexes {
                let run = ix.sorted(0, &store);
                prop_assert!(
                    index_rows(&run, &store) == key_sorted(&store, &ix.columns),
                    "index {:?} out of key order after {:?}", ix.columns, op
                );
            }
        }
    }

    /// Every inserted row lands in exactly one partition, and co-located
    /// keys land in the same partition regardless of insertion batch.
    #[test]
    fn partition_routing(data in proptest::collection::vec((0i64..500, -100i64..100), 1..120),
                         sites in 1usize..9) {
        let cat = Catalog::new(Topology::new(sites));
        let t = cat
            .create_table("t", schema(), vec![0], TableDistribution::HashPartitioned { key_cols: vec![0] })
            .unwrap();
        cat.insert(t, rows(&data)).unwrap();
        let table = cat.table_data(t).unwrap();
        prop_assert_eq!(table.total_rows(), data.len());
        // Same key -> same partition.
        for p in 0..table.num_partitions() {
            for row in table.store(p).to_rows() {
                let h = row.hash_key(&[0]);
                prop_assert_eq!(cat.topology().partition_of_hash(h), p);
            }
        }
    }

    /// Statistics equal brute-force counts.
    #[test]
    fn stats_match_brute_force(data in proptest::collection::vec((0i64..50, -10i64..10), 0..100)) {
        let cat = Catalog::new(Topology::new(4));
        let t = cat
            .create_table("t", schema(), vec![0], TableDistribution::HashPartitioned { key_cols: vec![0] })
            .unwrap();
        cat.insert(t, rows(&data)).unwrap();
        cat.analyze(t).unwrap();
        let stats = cat.table_stats(t).unwrap();
        prop_assert_eq!(stats.row_count as usize, data.len());
        if !data.is_empty() {
            let distinct_k: std::collections::HashSet<i64> = data.iter().map(|(k, _)| *k).collect();
            let distinct_v: std::collections::HashSet<i64> = data.iter().map(|(_, v)| *v).collect();
            let distinct_s: std::collections::HashSet<i64> =
                data.iter().map(|(_, v)| v.rem_euclid(3)).collect();
            prop_assert_eq!(stats.columns[0].ndv as usize, distinct_k.len());
            prop_assert_eq!(stats.columns[1].ndv as usize, distinct_v.len());
            prop_assert_eq!(stats.columns[2].ndv as usize, distinct_s.len());
            let min_v = data.iter().map(|(_, v)| *v).min().unwrap();
            prop_assert_eq!(stats.columns[1].min.clone(), Some(Datum::Int(min_v)));
            let max_s = distinct_s.iter().max().unwrap();
            prop_assert_eq!(stats.columns[2].max.clone(), Some(Datum::str(format!("s{max_s}"))));
        }
    }

    /// An index created before the load follows every later load: each
    /// partition's run is the current rows in key order.
    #[test]
    fn index_follows_later_loads(
        first in proptest::collection::vec((0i64..40, -40i64..40), 0..80),
        second in proptest::collection::vec((40i64..80, -40i64..40), 0..80),
    ) {
        let cat = Catalog::new(Topology::new(2));
        let t = cat
            .create_table("t", schema(), vec![0], TableDistribution::HashPartitioned { key_cols: vec![0] })
            .unwrap();
        let ix = cat.create_index("ix", t, vec![1, 0]).unwrap();
        let index = cat.index(ix).unwrap();
        let table = cat.table_data(t).unwrap();
        for data in [&first, &second] {
            cat.insert(t, rows(data)).unwrap();
            for p in 0..table.num_partitions() {
                let store = table.store(p);
                let run = index.sorted(p, &store);
                prop_assert!(index_rows(&run, &store) == key_sorted(&store, &[1, 0]));
            }
        }
    }
}
