//! Sorted secondary indexes.
//!
//! An index is, per partition, the partition's row positions sorted by the
//! index key — over the very snapshot a scan reads, never over a copy of the
//! rows. A scan through the index therefore delivers the current rows with
//! a *collation* trait the planner can use to elide sorts (the paper's Q14
//! improvement) or feed merge joins.
//!
//! Sorted runs are built on first use and cached per partition. A cached
//! run stays valid for a later snapshot as long as that snapshot still
//! shares every segment's key columns by pointer: a write that leaves the
//! key columns and row positions alone (an UPDATE of non-key columns)
//! keeps the run, anything else re-sorts the partition on the next scan.

use crate::catalog::IndexDef;
use crate::table::PartStore;
use ic_common::Column;
use parking_lot::Mutex;
use std::cmp::Ordering;
use std::sync::Arc;

/// One partition's index entries over one snapshot.
#[derive(Debug)]
pub struct SortedRun {
    /// The key columns of every segment of the snapshot, in segment order.
    /// Holding them keeps the pointers a later snapshot is compared with
    /// alive.
    keys: Vec<Vec<Arc<Column>>>,
    /// `(segment, row)` positions in key order; ties keep storage order.
    pub positions: Vec<(u32, u32)>,
}

impl SortedRun {
    fn build(store: &PartStore, columns: &[usize]) -> SortedRun {
        let keys: Vec<Vec<Arc<Column>>> = store
            .segments
            .iter()
            .map(|s| columns.iter().map(|&c| s.batch.col(c).clone()).collect())
            .collect();
        let mut positions: Vec<(u32, u32)> = Vec::with_capacity(store.len());
        for (s, seg) in store.segments.iter().enumerate() {
            positions.extend((0..seg.len() as u32).map(|i| (s as u32, i)));
        }
        let mut run = SortedRun { keys, positions: Vec::new() };
        positions.sort_by(|&a, &b| run.cmp(a, &run, b));
        run.positions = positions;
        run
    }

    /// Key order between position `a` of this run and position `b` of
    /// `other` (`Datum::cmp` semantics, column by column).
    pub fn cmp(&self, (sa, ia): (u32, u32), other: &SortedRun, (sb, ib): (u32, u32)) -> Ordering {
        let (ka, kb) = (&self.keys[sa as usize], &other.keys[sb as usize]);
        for (ca, cb) in ka.iter().zip(kb) {
            let ord = ca.cmp_at(ia as usize, cb, ib as usize);
            if ord != Ordering::Equal {
                return ord;
            }
        }
        Ordering::Equal
    }

    /// Does `store` still have exactly the segments and key columns this
    /// run was sorted over?
    fn covers(&self, store: &PartStore, columns: &[usize]) -> bool {
        self.keys.len() == store.segments.len()
            && self.keys.iter().zip(store.segments.iter()).all(|(keys, seg)| {
                keys.iter().zip(columns).all(|(k, &c)| Arc::ptr_eq(k, seg.batch.col(c)))
            })
    }
}

/// A secondary index: its key columns plus one cached sorted run per
/// partition.
pub struct Index {
    pub columns: Vec<usize>,
    runs: Mutex<Vec<Option<Arc<SortedRun>>>>,
}

impl Index {
    pub fn new(def: &IndexDef, num_partitions: usize) -> Index {
        Index {
            columns: def.columns.clone(),
            runs: Mutex::named(vec![None; num_partitions], "index.runs"),
        }
    }

    /// The index entries of `partition` over `store` (the snapshot the
    /// caller scans): the cached run when it still covers `store`, else a
    /// fresh sort that replaces it.
    pub fn sorted(&self, partition: usize, store: &PartStore) -> Arc<SortedRun> {
        if let Some(run) = &self.runs.lock()[partition] {
            if run.covers(store, &self.columns) {
                return run.clone();
            }
        }
        let run = Arc::new(SortedRun::build(store, &self.columns));
        self.runs.lock()[partition] = Some(run.clone());
        run
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{IndexId, TableId};
    use crate::write::{apply_op, WriteOp};
    use ic_common::{Datum, Expr, Row};

    fn key_order(run: &SortedRun, store: &PartStore) -> Vec<Row> {
        run.positions
            .iter()
            .map(|&(s, i)| store.segments[s as usize].batch.row_at(i as usize))
            .collect()
    }

    fn setup() -> (Index, PartStore) {
        let rows: Vec<Row> = [5, 1, 3, 2, 2]
            .iter()
            .enumerate()
            .map(|(i, &k)| Row(vec![Datum::Int(k), Datum::Int(i as i64)]))
            .collect();
        let store = PartStore::default().appended(&rows);
        let def =
            IndexDef { id: IndexId(0), name: "ix".into(), table: TableId(0), columns: vec![0] };
        (Index::new(&def, 1), store)
    }

    #[test]
    fn positions_follow_key_order_with_stable_ties() {
        let (ix, store) = setup();
        let run = ix.sorted(0, &store);
        let keys: Vec<(i64, i64)> = key_order(&run, &store)
            .iter()
            .map(|r| (r.0[0].as_int().unwrap(), r.0[1].as_int().unwrap()))
            .collect();
        assert_eq!(keys, vec![(1, 1), (2, 3), (2, 4), (3, 2), (5, 0)]);
    }

    #[test]
    fn run_is_reused_until_key_columns_change() {
        let (ix, store) = setup();
        let run = ix.sorted(0, &store);
        assert!(Arc::ptr_eq(&run, &ix.sorted(0, &store)));
        // A non-key update keeps the key columns, hence the run.
        let set_v = WriteOp::Update { assignments: vec![(1, Expr::lit(9i64))], predicate: None };
        let (updated, _) = apply_op(&store, &set_v, &[0]).unwrap();
        assert!(Arc::ptr_eq(&run, &ix.sorted(0, &updated)));
        // A key update re-sorts over the new snapshot.
        let set_k = WriteOp::Update { assignments: vec![(0, Expr::lit(0i64))], predicate: None };
        let (rekeyed, _) = apply_op(&updated, &set_k, &[]).unwrap();
        let fresh = ix.sorted(0, &rekeyed);
        assert!(!Arc::ptr_eq(&run, &fresh));
        assert_eq!(key_order(&fresh, &rekeyed), rekeyed.to_rows());
    }
}
