//! Partitioned in-memory storage — the Apache Ignite substrate.
//!
//! Ignite stores each table ("cache") as hash-partitioned rows spread over
//! the cluster's sites, or fully replicated on every site. This crate
//! provides that store for the simulated cluster: a [`Catalog`] of table and
//! index definitions, per-partition columnar segment storage
//! ([`table::TableData`]), sorted secondary indexes over the current
//! snapshot ([`index::Index`]) and the per-table /
//! per-column [`stats::TableStats`] that Ignite serves to Calcite through
//! its metadata provider hooks (§3.2 of the paper).

pub mod catalog;
pub mod index;
pub mod stats;
pub mod table;
pub mod write;

pub use catalog::{Catalog, IndexDef, IndexId, TableDef, TableDistribution, TableId};
pub use index::{Index, SortedRun};
pub use stats::{ColumnStats, TableStats};
pub use table::{PartStore, Segment, TableData};
pub use write::{execute_dml, WriteOp, WriteOutcome};
