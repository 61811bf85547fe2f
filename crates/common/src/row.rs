//! Rows: the tuple format of client result sets, loads and the reference
//! evaluator (operators exchange `ColumnBatch`es), and the batch size.

use crate::datum::Datum;
use std::fmt;
use std::hash::{Hash, Hasher};

/// A single tuple. Cloning is cheap-ish: fixed-width datums copy, strings
/// bump a refcount.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Row(pub Vec<Datum>);

impl Row {
    /// Build a row from its datums.
    pub fn new(values: Vec<Datum>) -> Row {
        Row(values)
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.0.len()
    }

    /// The datum in column `i` (panics when out of range).
    pub fn get(&self, i: usize) -> &Datum {
        &self.0[i]
    }

    /// Approximate wire/memory size in bytes (used by the network simulator
    /// and the baseline byte-based cost model).
    pub fn byte_size(&self) -> usize {
        self.0.iter().map(Datum::byte_size).sum()
    }

    /// Concatenate two rows (join output).
    pub fn concat(&self, other: &Row) -> Row {
        let mut v = Vec::with_capacity(self.0.len() + other.0.len());
        v.extend_from_slice(&self.0);
        v.extend_from_slice(&other.0);
        Row(v)
    }

    /// Project the given column indices into a new row.
    pub fn project(&self, cols: &[usize]) -> Row {
        Row(cols.iter().map(|&c| self.0[c].clone()).collect())
    }

    /// Stable hash of a key projection, used for hash partitioning and hash
    /// joins. Must agree between the build and probe side and between the
    /// planner's hash-distribution routing and the executor — all three go
    /// through this one function, and [`crate::hash::FxHasher`] is
    /// deterministic, so swapping the hasher stays coherent across layers.
    /// `Datum`'s `Hash` impl canonicalizes equal numerics (Int 7, Double
    /// 7.0, dates) to the same bits, which this inherits.
    #[inline]
    pub fn hash_key(&self, cols: &[usize]) -> u64 {
        let mut h = crate::hash::FxHasher::default();
        for &c in cols {
            self.0[c].hash(&mut h);
        }
        h.finish()
    }
}

impl fmt::Debug for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "]")
    }
}

impl fmt::Display for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, d) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, "|")?;
            }
            write!(f, "{d}")?;
        }
        Ok(())
    }
}

impl From<Vec<Datum>> for Row {
    fn from(v: Vec<Datum>) -> Self {
        Row(v)
    }
}

/// A batch of rows in the row wire framing (`ic_net::wire::encode_batch`);
/// operators exchange `ColumnBatch`es.
pub type Batch = Vec<Row>;

/// Default number of rows per batch at exchange boundaries.
pub const BATCH_SIZE: usize = 1024;

#[cfg(test)]
mod tests {
    use super::*;

    fn r(vals: &[i64]) -> Row {
        Row(vals.iter().map(|&v| Datum::Int(v)).collect())
    }

    #[test]
    fn concat_and_project() {
        let a = r(&[1, 2]);
        let b = r(&[3]);
        let c = a.concat(&b);
        assert_eq!(c.arity(), 3);
        assert_eq!(c.project(&[2, 0]), r(&[3, 1]));
    }

    #[test]
    fn hash_key_depends_only_on_projection() {
        let a = Row(vec![Datum::Int(1), Datum::str("x")]);
        let b = Row(vec![Datum::Int(1), Datum::str("y")]);
        assert_eq!(a.hash_key(&[0]), b.hash_key(&[0]));
        assert_ne!(a.hash_key(&[1]), b.hash_key(&[1]));
    }

    #[test]
    fn byte_size_sums() {
        let a = Row(vec![Datum::Int(1), Datum::str("abc")]);
        assert_eq!(a.byte_size(), 11);
    }

    #[test]
    fn row_ordering() {
        assert!(r(&[1, 2]) < r(&[1, 3]));
        assert!(r(&[1]) < r(&[2]));
    }
}
