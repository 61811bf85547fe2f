//! Per-partition, per-replica columnar storage.
//!
//! Each partition keeps one [`PartStore`] *per owner site* (primary +
//! backups), so a backup really holds the data it may be promoted to serve.
//! A store is an immutable snapshot: an `Arc`-shared list of [`Segment`]s —
//! dense [`ColumnBatch`]es of at most `BATCH_SIZE` rows, each with a
//! parallel per-row version column — stamped with the partition version
//! that produced it. Scans hand the stored columns out as they are; a write
//! rebuilds only the segments it touches and shares every other one by
//! pointer. Writers build a new store and swap it in under the partition's
//! write mutex; readers clone the `Arc` and scan a frozen snapshot, so a
//! multi-row DML batch is visible all-or-nothing (no torn reads) and scans
//! never block writes.

use ic_common::hash::FxHashMap;
use ic_common::row::BATCH_SIZE;
use ic_common::{ColumnBatch, Row, Schema};
use ic_net::SiteId;
use parking_lot::{Mutex, MutexGuard, RwLock};
use std::sync::Arc;

/// An immutable run of at most `BATCH_SIZE` consecutive rows of one
/// partition, stored as columns.
#[derive(Debug)]
pub struct Segment {
    /// The rows: dense (no selection), one column per schema field.
    pub batch: ColumnBatch,
    /// Per-row: the partition version that inserted/last-updated the row.
    pub versions: Vec<u64>,
}

impl Segment {
    /// A segment of `rows`, every row stamped with `version`.
    fn from_rows(rows: &[Row], version: u64) -> Segment {
        Segment { batch: ColumnBatch::from_rows(rows), versions: vec![version; rows.len()] }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.versions.len()
    }

    /// Whether the segment holds no rows (stores never keep one).
    pub fn is_empty(&self) -> bool {
        self.versions.is_empty()
    }
}

/// One replica's frozen snapshot of a partition: its segments in row order
/// and the partition version counter itself.
#[derive(Debug, Clone, Default)]
pub struct PartStore {
    /// Partition version: bumps once per committed write batch.
    pub version: u64,
    pub segments: Arc<Vec<Arc<Segment>>>,
}

impl PartStore {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.segments.iter().map(|s| s.len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// The segment holding row `row`, with the row index of its first row.
    pub fn segment_at(&self, row: usize) -> Option<(&Arc<Segment>, usize)> {
        let mut start = 0;
        for seg in self.segments.iter() {
            if row < start + seg.len() {
                return Some((seg, start));
            }
            start += seg.len();
        }
        None
    }

    /// The rows in storage order (tests and the fuzz reference evaluator).
    pub fn to_rows(&self) -> Vec<Row> {
        self.segments.iter().flat_map(|s| s.batch.to_rows()).collect()
    }

    /// The successor store (version + 1) with `rows` appended: the last
    /// segment is topped up to `BATCH_SIZE`, the rest go to new segments,
    /// and every other segment is shared.
    pub fn appended(&self, rows: &[Row]) -> PartStore {
        let version = self.version + 1;
        let mut segments: Vec<Arc<Segment>> = (*self.segments).clone();
        push_rows(&mut segments, rows, version);
        PartStore { version, segments: Arc::new(segments) }
    }
}

/// Append `rows` stamped `version` to a segment list (see
/// [`PartStore::appended`]).
pub(crate) fn push_rows(segments: &mut Vec<Arc<Segment>>, rows: &[Row], version: u64) {
    let mut rest = rows;
    if let Some(last) = segments.last_mut() {
        let room = BATCH_SIZE.saturating_sub(last.len()).min(rest.len());
        if room > 0 {
            let (head, tail) = rest.split_at(room);
            let mut versions = last.versions.clone();
            versions.resize(last.len() + room, version);
            let batch = ColumnBatch::concat(&[last.batch.clone(), ColumnBatch::from_rows(head)]);
            *last = Arc::new(Segment { batch, versions });
            rest = tail;
        }
    }
    segments.extend(rest.chunks(BATCH_SIZE).map(|c| Arc::new(Segment::from_rows(c, version))));
}

/// One partition: its replica stores keyed by hosting site, plus the write
/// mutex that serializes writers (readers never take it).
struct Partition {
    replicas: RwLock<FxHashMap<usize, PartStore>>,
    write_lock: Mutex<()>,
}

impl Partition {
    fn hosted_on(sites: &[SiteId]) -> Partition {
        // One shared empty store, so replicas that advance together keep
        // sharing their segments.
        let empty = PartStore::default();
        let replicas = sites.iter().map(|s| (s.0, empty.clone())).collect();
        Partition {
            replicas: RwLock::named(replicas, "table.replicas"),
            write_lock: Mutex::named((), "table.write"),
        }
    }
}

/// The rows of one table, split into hash partitions (one partition for
/// replicated tables), each replicated onto its owner sites.
pub struct TableData {
    schema: Schema,
    partitions: Vec<Partition>,
}

impl TableData {
    /// Single-replica layout with partition `p` hosted on site `p` — the
    /// unit-test convenience constructor. Production tables are created via
    /// [`new_with_owners`](Self::new_with_owners) from the membership map.
    pub fn new(num_partitions: usize, schema: Schema) -> TableData {
        let owners: Vec<Vec<SiteId>> =
            (0..num_partitions.max(1)).map(|p| vec![SiteId(p)]).collect();
        TableData::new_with_owners(schema, &owners)
    }

    /// Layout with each partition hosted on the given owner sites (primary
    /// first, then backups), as decided by the membership replica map.
    pub fn new_with_owners(schema: Schema, owners: &[Vec<SiteId>]) -> TableData {
        assert!(!owners.is_empty(), "a table needs at least one partition");
        TableData {
            schema,
            partitions: owners.iter().map(|sites| Partition::hosted_on(sites)).collect(),
        }
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    pub fn num_partitions(&self) -> usize {
        self.partitions.len()
    }

    /// Append rows to every replica of a partition (bulk load: all copies
    /// advance together, no replication traffic is simulated). Replicas
    /// that shared a snapshot share the appended one too.
    pub fn insert_into_partition(&self, partition: usize, rows: Vec<Row>) {
        let part = &self.partitions[partition];
        let _w = part.write_lock.lock();
        let mut replicas = part.replicas.write();
        let mut built: Vec<(*const Vec<Arc<Segment>>, PartStore)> = Vec::new();
        for store in replicas.values_mut() {
            let key = Arc::as_ptr(&store.segments);
            let next = match built.iter().find(|(k, _)| *k == key) {
                Some((_, next)) => next.clone(),
                None => {
                    let next = store.appended(&rows);
                    built.push((key, next.clone()));
                    next
                }
            };
            *store = next;
        }
    }

    /// The authoritative store of a partition: the highest-version replica
    /// (all replicas agree when the partition is healthy). Used by stats
    /// and tests; the execution path reads a specific site's replica via
    /// [`replica`](Self::replica).
    pub fn store(&self, partition: usize) -> PartStore {
        let replicas = self.partitions[partition].replicas.read();
        replicas
            .values()
            .max_by_key(|s| s.version)
            .cloned()
            .unwrap_or_default()
    }

    /// The replica of `partition` hosted on `site`, if that site holds one.
    /// `None` means ownership moved (or is moving) — callers surface
    /// `RebalanceInProgress` and retry against a fresh assignment.
    pub fn replica(&self, partition: usize, site: SiteId) -> Option<PartStore> {
        self.partitions[partition].replicas.read().get(&site.0).cloned()
    }

    /// Sites currently holding a replica of `partition`, ascending.
    pub fn replica_sites(&self, partition: usize) -> Vec<SiteId> {
        let mut sites: Vec<usize> =
            self.partitions[partition].replicas.read().keys().copied().collect();
        sites.sort_unstable();
        sites.into_iter().map(SiteId).collect()
    }

    /// Install (or overwrite) a replica of `partition` on `site` — the
    /// final step of re-replication and chunked migration.
    pub fn install_replica(&self, partition: usize, site: SiteId, store: PartStore) {
        self.partitions[partition].replicas.write().insert(site.0, store);
    }

    /// Drop `site`'s replica of `partition` (graceful leave / post-migration
    /// cleanup).
    pub fn drop_replica(&self, partition: usize, site: SiteId) {
        self.partitions[partition].replicas.write().remove(&site.0);
    }

    /// Serialize writers of `partition`. Readers never take this lock; they
    /// snapshot whatever store is committed.
    pub fn write_guard(&self, partition: usize) -> MutexGuard<'_, ()> {
        self.partitions[partition].write_lock.lock()
    }

    /// Commit a new store to the listed replica sites of `partition`,
    /// provided every one of them is still at `expected_version` (the
    /// version the write was prepared against). On a mismatch nothing is
    /// changed and the diverging version is returned. Callers must hold the
    /// partition's [`write_guard`](Self::write_guard).
    pub fn commit(
        &self,
        partition: usize,
        sites: &[SiteId],
        expected_version: u64,
        store: PartStore,
    ) -> Result<(), u64> {
        let mut replicas = self.partitions[partition].replicas.write();
        for s in sites {
            match replicas.get(&s.0) {
                Some(r) if r.version == expected_version => {}
                Some(r) => return Err(r.version),
                // A replica vanished mid-write: ownership moved. Report the
                // new store's version as "found" so the caller retries.
                None => return Err(store.version),
            }
        }
        for s in sites {
            replicas.insert(s.0, store.clone());
        }
        Ok(())
    }

    /// Total rows across all partitions (authoritative replicas).
    pub fn total_rows(&self) -> usize {
        (0..self.partitions.len()).map(|p| self.store(p).len()).sum()
    }

    /// Every row, partition by partition (tests and the fuzz reference
    /// evaluator; production scans read segments).
    pub fn to_rows(&self) -> Vec<Row> {
        (0..self.partitions.len()).flat_map(|p| self.store(p).to_rows()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_common::{DataType, Datum, Field};

    fn schema() -> Schema {
        Schema::new(vec![Field::new("x", DataType::Int)])
    }

    fn ints(range: std::ops::Range<i64>) -> Vec<Row> {
        range.map(|i| Row(vec![Datum::Int(i)])).collect()
    }

    #[test]
    fn insert_and_scan() {
        let t = TableData::new(2, schema());
        t.insert_into_partition(0, ints(1..2));
        t.insert_into_partition(1, ints(2..4));
        assert_eq!(t.total_rows(), 3);
        assert_eq!(t.store(0).len(), 1);
        assert_eq!(t.to_rows(), ints(1..4));
    }

    #[test]
    fn appends_fill_segments_to_batch_size() {
        let t = TableData::new(1, schema());
        t.insert_into_partition(0, ints(0..1000));
        let first = t.store(0);
        t.insert_into_partition(0, ints(1000..2100));
        let store = t.store(0);
        let lens: Vec<usize> = store.segments.iter().map(|s| s.len()).collect();
        assert_eq!(lens, vec![BATCH_SIZE, BATCH_SIZE, 2100 - 2 * BATCH_SIZE]);
        assert_eq!(store.to_rows(), ints(0..2100));
        assert_eq!(*store.segments[0].versions, [vec![1; 1000], vec![2; 24]].concat());
        assert_eq!(store.segment_at(1500).map(|(_, start)| start), Some(BATCH_SIZE));
        assert!(store.segment_at(2100).is_none());
        // The older snapshot is untouched.
        assert_eq!(first.len(), 1000);
    }

    #[test]
    fn concurrent_scans() {
        let t = Arc::new(TableData::new(4, schema()));
        for p in 0..4 {
            t.insert_into_partition(p, ints(0..100));
        }
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let t = t.clone();
                std::thread::spawn(move || t.store(i % 4).len())
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), 100);
        }
    }

    #[test]
    fn replicas_advance_together_on_bulk_load() {
        let t = TableData::new_with_owners(schema(), &[vec![SiteId(0), SiteId(1)]]);
        t.insert_into_partition(0, vec![Row(vec![Datum::Int(7)])]);
        let primary = t.replica(0, SiteId(0)).unwrap();
        let backup = t.replica(0, SiteId(1)).unwrap();
        assert_eq!(primary.version, 1);
        assert_eq!(backup.version, 1);
        assert_eq!(primary.len(), 1);
        assert!(Arc::ptr_eq(&primary.segments, &backup.segments), "replicas share segments");
        assert_eq!(primary.segments[0].versions, vec![1]);
        assert!(t.replica(0, SiteId(2)).is_none());
        assert_eq!(t.replica_sites(0), vec![SiteId(0), SiteId(1)]);
    }

    #[test]
    fn commit_is_version_checked() {
        let t = TableData::new_with_owners(schema(), &[vec![SiteId(0), SiteId(1)]]);
        t.insert_into_partition(0, ints(1..2));
        let base = t.replica(0, SiteId(0)).unwrap();
        let next = base.appended(&ints(2..3));
        let sites = [SiteId(0), SiteId(1)];
        let _g = t.write_guard(0);
        assert_eq!(t.commit(0, &sites, base.version, next.clone()), Ok(()));
        assert_eq!(t.replica(0, SiteId(1)).unwrap().version, base.version + 1);
        // Committing against the stale base version is refused.
        assert_eq!(t.commit(0, &sites, base.version, next), Err(base.version + 1));
    }

    #[test]
    fn install_and_drop_replica() {
        let t = TableData::new_with_owners(schema(), &[vec![SiteId(0)]]);
        t.insert_into_partition(0, ints(1..2));
        let copy = t.replica(0, SiteId(0)).unwrap();
        t.install_replica(0, SiteId(3), copy);
        assert_eq!(t.replica_sites(0), vec![SiteId(0), SiteId(3)]);
        assert_eq!(t.replica(0, SiteId(3)).unwrap().len(), 1);
        t.drop_replica(0, SiteId(0));
        assert_eq!(t.replica_sites(0), vec![SiteId(3)]);
        // The surviving replica is now the authoritative store.
        assert_eq!(t.store(0).len(), 1);
    }
}
