//! Table and index metadata — Ignite's schema registry.

use crate::index::Index;
use crate::stats::TableStats;
use crate::table::TableData;
use ic_common::{IcError, IcResult, Row, Schema};
use ic_net::{Membership, SiteId, Topology};
use parking_lot::RwLock;
use ic_common::hash::{FxHashMap, FxHashSet};
use std::fmt;
use std::sync::Arc;

/// Stable table identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TableId(pub usize);

/// Stable index identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct IndexId(pub usize);

impl fmt::Display for TableId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// How a table's rows are placed across sites — Ignite's cache modes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TableDistribution {
    /// Hash-partitioned on the given key columns (partitioned cache mode;
    /// the topology's `backups` setting controls how many replica copies
    /// each partition keeps on other sites — the paper benchmarks zero).
    HashPartitioned { key_cols: Vec<usize> },
    /// Full copy on every site (replicated cache mode).
    Replicated,
}

/// A table definition.
#[derive(Debug, Clone)]
pub struct TableDef {
    pub id: TableId,
    pub name: String,
    pub schema: Schema,
    /// Primary-key column positions.
    pub primary_key: Vec<usize>,
    pub distribution: TableDistribution,
}

/// A secondary-index definition. Indexes are sorted on `columns` and give
/// scans a *collation* trait the planner can exploit (the paper's Q14 sort
/// order discussion, §6.2.1).
#[derive(Debug, Clone)]
pub struct IndexDef {
    pub id: IndexId,
    pub name: String,
    pub table: TableId,
    pub columns: Vec<usize>,
}

struct TableEntry {
    def: TableDef,
    data: Arc<TableData>,
    stats: Arc<TableStats>,
    indexes: Vec<IndexId>,
}

struct IndexEntry {
    def: IndexDef,
    index: Arc<Index>,
}

/// The cluster-wide catalog: schema metadata, data handles, statistics and
/// indexes. Shared (`Arc`) by every simulated site.
pub struct Catalog {
    topology: Topology,
    /// Elastic membership: the live replica map queries and writes route
    /// by. Seeded from `topology` and mutated by the rebalance controller
    /// as sites join, leave, and fail.
    membership: Arc<Membership>,
    tables: RwLock<Vec<TableEntry>>,
    table_names: RwLock<FxHashMap<String, TableId>>,
    indexes: RwLock<Vec<IndexEntry>>,
}

impl Catalog {
    pub fn new(topology: Topology) -> Arc<Catalog> {
        let membership = Arc::new(Membership::from_topology(&topology));
        Arc::new(Catalog {
            topology,
            membership,
            tables: RwLock::named(Vec::new(), "catalog.tables"),
            table_names: RwLock::named(FxHashMap::default(), "catalog.table_names"),
            indexes: RwLock::named(Vec::new(), "catalog.indexes"),
        })
    }

    /// The boot topology: fixes the partition count and the simulated
    /// network size. Ownership questions should go to
    /// [`membership`](Self::membership), which stays current under
    /// join/leave/failure.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The elastic replica map shared by planner, executor and the
    /// rebalance controller.
    pub fn membership(&self) -> &Arc<Membership> {
        &self.membership
    }

    /// CREATE TABLE.
    pub fn create_table(
        &self,
        name: &str,
        schema: Schema,
        primary_key: Vec<usize>,
        distribution: TableDistribution,
    ) -> IcResult<TableId> {
        let key = name.to_ascii_lowercase();
        let mut names = self.table_names.write();
        if names.contains_key(&key) {
            return Err(IcError::Catalog(format!("table '{name}' already exists")));
        }
        let mut tables = self.tables.write();
        let id = TableId(tables.len());
        let map = self.membership.snapshot();
        let owners: Vec<Vec<SiteId>> = match distribution {
            TableDistribution::HashPartitioned { .. } => {
                (0..map.num_partitions()).map(|p| map.owners_of(p).to_vec()).collect()
            }
            // One logical copy; the hosting key is nominal (reads take the
            // authoritative store, writes broadcast to all members).
            TableDistribution::Replicated => {
                vec![vec![map.members().first().copied().unwrap_or(SiteId(0))]]
            }
        };
        let def = TableDef {
            id,
            name: name.to_string(),
            schema: schema.clone(),
            primary_key,
            distribution,
        };
        tables.push(TableEntry {
            def,
            data: Arc::new(TableData::new_with_owners(schema, &owners)),
            stats: Arc::new(TableStats::empty()),
            indexes: Vec::new(),
        });
        names.insert(key, id);
        Ok(id)
    }

    /// CREATE INDEX on `columns` of `table`.
    pub fn create_index(&self, name: &str, table: TableId, columns: Vec<usize>) -> IcResult<IndexId> {
        let mut tables = self.tables.write();
        let entry = tables
            .get_mut(table.0)
            .ok_or_else(|| IcError::Catalog(format!("unknown table {table}")))?;
        for &c in &columns {
            if c >= entry.def.schema.arity() {
                return Err(IcError::Catalog(format!(
                    "index column {c} out of range for table '{}'",
                    entry.def.name
                )));
            }
        }
        let mut indexes = self.indexes.write();
        let id = IndexId(indexes.len());
        let def = IndexDef { id, name: name.to_string(), table, columns: columns.clone() };
        let index = Index::new(&def, entry.data.num_partitions());
        indexes.push(IndexEntry { def, index: Arc::new(index) });
        entry.indexes.push(id);
        Ok(id)
    }

    /// Insert rows, routing each to its partition by hashing the
    /// distribution key (replicated tables keep one logical copy).
    pub fn insert(&self, table: TableId, rows: Vec<Row>) -> IcResult<usize> {
        let tables = self.tables.read();
        let entry = tables
            .get(table.0)
            .ok_or_else(|| IcError::Catalog(format!("unknown table {table}")))?;
        let n = rows.len();
        match &entry.def.distribution {
            TableDistribution::Replicated => entry.data.insert_into_partition(0, rows),
            TableDistribution::HashPartitioned { key_cols } => {
                let nparts = self.topology.num_partitions();
                let mut per_part: Vec<Vec<Row>> = (0..nparts).map(|_| Vec::new()).collect();
                for row in rows {
                    let p = self.topology.partition_of_hash(row.hash_key(key_cols));
                    per_part[p].push(row);
                }
                for (p, batch) in per_part.into_iter().enumerate() {
                    if !batch.is_empty() {
                        entry.data.insert_into_partition(p, batch);
                    }
                }
            }
        }
        Ok(n)
    }

    /// ANALYZE: recompute statistics for a table. Run after bulk load,
    /// mirroring Ignite's `statistics enabled` setting. Indexes need no
    /// rebuild: they sort the snapshot each scan reads.
    pub fn analyze(&self, table: TableId) -> IcResult<()> {
        let mut tables = self.tables.write();
        let entry = tables
            .get_mut(table.0)
            .ok_or_else(|| IcError::Catalog(format!("unknown table {table}")))?;
        entry.stats = Arc::new(TableStats::compute(&entry.data));
        Ok(())
    }

    pub fn table_by_name(&self, name: &str) -> Option<TableId> {
        self.table_names.read().get(&name.to_ascii_lowercase()).copied()
    }

    pub fn table_def(&self, id: TableId) -> Option<TableDef> {
        self.tables.read().get(id.0).map(|e| e.def.clone())
    }

    pub fn table_data(&self, id: TableId) -> Option<Arc<TableData>> {
        self.tables.read().get(id.0).map(|e| e.data.clone())
    }

    pub fn table_stats(&self, id: TableId) -> Option<Arc<TableStats>> {
        self.tables.read().get(id.0).map(|e| e.stats.clone())
    }

    pub fn table_names(&self) -> Vec<String> {
        self.tables.read().iter().map(|e| e.def.name.clone()).collect()
    }

    pub fn index_def(&self, id: IndexId) -> Option<IndexDef> {
        self.indexes.read().get(id.0).map(|e| e.def.clone())
    }

    pub fn index(&self, id: IndexId) -> Option<Arc<Index>> {
        self.indexes.read().get(id.0).map(|e| e.index.clone())
    }

    /// All indexes defined on a table.
    pub fn indexes_of(&self, table: TableId) -> Vec<IndexDef> {
        let tables = self.tables.read();
        let Some(entry) = tables.get(table.0) else {
            return Vec::new();
        };
        let indexes = self.indexes.read();
        entry.indexes.iter().map(|id| indexes[id.0].def.clone()).collect()
    }

    /// Number of partition *sites* a scan of this table fans out over —
    /// the paper's `dataPartitionSites` in Algorithm 2 (1 for replicated).
    pub fn partition_sites(&self, table: TableId) -> usize {
        match self.table_def(table).map(|d| d.distribution) {
            Some(TableDistribution::HashPartitioned { .. }) => self.topology.num_sites(),
            _ => 1,
        }
    }

    /// All sites holding a copy of `partition` (primary first, then the
    /// backup replicas) — Ignite's affinity function, read from the live
    /// membership map so promotions and migrations are reflected.
    pub fn partition_owners(&self, partition: usize) -> Vec<SiteId> {
        self.membership.snapshot().owners_of(partition).to_vec()
    }

    /// Fold a committed write into the table's statistics without a full
    /// ANALYZE: exact row-count deltas, min/max widened by inserted values,
    /// NDV adjusted by bounded estimates. Keeps the Volcano cost model
    /// honest while writes stream in; `analyze` still computes exact stats.
    pub fn note_write(&self, table: TableId, inserted: &[Row], deleted: usize) {
        if inserted.is_empty() && deleted == 0 {
            return;
        }
        let mut tables = self.tables.write();
        let Some(entry) = tables.get_mut(table.0) else {
            return;
        };
        entry.stats = Arc::new(entry.stats.noting_write(inserted, deleted));
    }

    /// Resolve `partition` to a live owner, skipping sites in `down`.
    /// `None` when the primary and every backup copy are down.
    pub fn live_owner(&self, partition: usize, down: &FxHashSet<SiteId>) -> Option<SiteId> {
        self.partition_owners(partition).into_iter().find(|s| !down.contains(s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_common::{DataType, Datum, Field};

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("id", DataType::Int),
            Field::new("val", DataType::Str),
        ])
    }

    fn rows(n: i64) -> Vec<Row> {
        (0..n)
            .map(|i| Row(vec![Datum::Int(i), Datum::str(format!("v{i}"))]))
            .collect()
    }

    #[test]
    fn create_and_lookup() {
        let cat = Catalog::new(Topology::new(4));
        let id = cat
            .create_table("T", schema(), vec![0], TableDistribution::HashPartitioned { key_cols: vec![0] })
            .unwrap();
        assert_eq!(cat.table_by_name("t"), Some(id));
        assert_eq!(cat.table_by_name("T"), Some(id));
        assert!(cat.table_by_name("nope").is_none());
        assert!(cat
            .create_table("t", schema(), vec![0], TableDistribution::Replicated)
            .is_err());
    }

    #[test]
    fn insert_partitions_rows() {
        let cat = Catalog::new(Topology::new(4));
        let id = cat
            .create_table("t", schema(), vec![0], TableDistribution::HashPartitioned { key_cols: vec![0] })
            .unwrap();
        cat.insert(id, rows(1000)).unwrap();
        let data = cat.table_data(id).unwrap();
        assert_eq!(data.total_rows(), 1000);
        // Hash partitioning should spread rows over all 4 partitions.
        for p in 0..4 {
            let n = data.store(p).len();
            assert!(n > 150 && n < 350, "partition {p} has {n} rows");
        }
    }

    #[test]
    fn replicated_single_copy() {
        let cat = Catalog::new(Topology::new(4));
        let id = cat
            .create_table("r", schema(), vec![0], TableDistribution::Replicated)
            .unwrap();
        cat.insert(id, rows(10)).unwrap();
        let data = cat.table_data(id).unwrap();
        assert_eq!(data.num_partitions(), 1);
        assert_eq!(data.total_rows(), 10);
        assert_eq!(cat.partition_sites(id), 1);
    }

    #[test]
    fn analyze_computes_stats() {
        let cat = Catalog::new(Topology::new(2));
        let id = cat
            .create_table("t", schema(), vec![0], TableDistribution::HashPartitioned { key_cols: vec![0] })
            .unwrap();
        cat.insert(id, rows(100)).unwrap();
        cat.analyze(id).unwrap();
        let stats = cat.table_stats(id).unwrap();
        assert_eq!(stats.row_count, 100);
        assert_eq!(stats.columns[0].ndv, 100);
    }

    #[test]
    fn live_owner_resolution_uses_backups() {
        let cat = Catalog::new(Topology::with_backups(4, 1));
        assert_eq!(cat.partition_owners(2), vec![SiteId(2), SiteId(3)]);
        let none_down = FxHashSet::default();
        assert_eq!(cat.live_owner(2, &none_down), Some(SiteId(2)));
        let primary_down: FxHashSet<SiteId> = [SiteId(2)].into_iter().collect();
        assert_eq!(cat.live_owner(2, &primary_down), Some(SiteId(3)));
        let both_down: FxHashSet<SiteId> = [SiteId(2), SiteId(3)].into_iter().collect();
        assert_eq!(cat.live_owner(2, &both_down), None);
    }

    #[test]
    fn index_creation_covers_later_rows() {
        let cat = Catalog::new(Topology::new(2));
        let id = cat
            .create_table("t", schema(), vec![0], TableDistribution::HashPartitioned { key_cols: vec![0] })
            .unwrap();
        let idx = cat.create_index("t_id", id, vec![0]).unwrap();
        cat.insert(id, rows(50)).unwrap();
        // Created before the load, the index still covers every row.
        let index = cat.index(idx).unwrap();
        let data = cat.table_data(id).unwrap();
        let entries: usize = (0..2).map(|p| index.sorted(p, &data.store(p)).positions.len()).sum();
        assert_eq!(entries, 50);
        assert_eq!(cat.indexes_of(id).len(), 1);
        assert!(cat.create_index("bad", id, vec![99]).is_err());
    }
}
