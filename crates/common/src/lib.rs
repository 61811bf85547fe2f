//! Shared substrate for the Ignite+Calcite reproduction.
//!
//! This crate defines the row/value model ([`Datum`], [`Row`]), schemas
//! ([`Schema`], [`Field`], [`DataType`]), scalar expressions and their
//! row and vectorized evaluators ([`expr::Expr`], [`eval`]), aggregate
//! functions ([`agg`]), date helpers ([`dates`]) and the common error type ([`IcError`]).
//!
//! Everything above this crate — storage, SQL frontend, planner, executor —
//! speaks these types, mirroring how Apache Calcite's `RexNode`/`RelDataType`
//! layer underpins the whole Ignite+Calcite stack.

#![deny(missing_docs)]

pub mod agg;
pub mod col;
pub mod datum;
pub mod dates;
pub mod error;
pub mod eval;
pub mod expr;
pub mod hash;
pub mod lease;
pub mod obs;
pub mod row;
pub mod schema;

pub use col::{Bitmap, Column, ColumnBatch, ColumnBuilder, ColumnData};
pub use datum::{DataType, Datum};
pub use error::{IcError, IcResult};
pub use expr::{BinOp, Expr, FuncKind};
pub use hash::{FlatMap, FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use lease::{MemoryLease, MemoryPool, LEASE_CHUNK_CELLS};
pub use row::{Batch, Row};
pub use schema::{Field, Schema};
