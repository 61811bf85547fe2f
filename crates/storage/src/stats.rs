//! Table statistics — the metadata Ignite serves to Calcite's provider
//! hooks (§3.1/§3.2 of the paper): row counts, per-column distinct-value
//! counts (NDV, used by the Eq. 3 join-size estimator), min/max, and null
//! fractions (used by selectivity estimation).

use crate::table::{PartStore, Segment, TableData};
use ic_common::hash::FxHashSet;
use ic_common::{Column, ColumnData, Datum, Row};

/// Statistics for one column.
#[derive(Debug, Clone)]
pub struct ColumnStats {
    /// Number of distinct non-null values.
    pub ndv: u64,
    pub null_count: u64,
    pub min: Option<Datum>,
    pub max: Option<Datum>,
}

/// Statistics for one table.
#[derive(Debug, Clone)]
pub struct TableStats {
    pub row_count: u64,
    pub columns: Vec<ColumnStats>,
}

impl TableStats {
    /// Stats for an empty/unanalyzed table.
    pub fn empty() -> TableStats {
        TableStats { row_count: 0, columns: Vec::new() }
    }

    /// Exact single-pass computation over all partitions, column by column
    /// over the stored segments. At the simulated scale exact NDV is cheap;
    /// Ignite uses sketches but serves the same quantities.
    pub fn compute(data: &TableData) -> TableStats {
        let stores: Vec<PartStore> = (0..data.num_partitions()).map(|p| data.store(p)).collect();
        let segments: Vec<&Segment> =
            stores.iter().flat_map(|s| s.segments.iter().map(|g| &**g)).collect();
        TableStats {
            row_count: segments.iter().map(|s| s.len() as u64).sum(),
            columns: (0..data.schema().arity())
                .map(|c| column_stats(segments.iter().map(|s| &**s.batch.col(c))))
                .collect(),
        }
    }

    /// NDV of a column, defaulting to row_count when unanalyzed (a column
    /// is at most all-distinct) — the provider-hook fallback behaviour.
    pub fn ndv(&self, col: usize) -> u64 {
        self.columns.get(col).map(|c| c.ndv).unwrap_or(self.row_count).max(1)
    }

    /// Incrementally fold a committed write batch into these stats. Exact
    /// where cheap (row count, null counts, min/max widening on inserts),
    /// bounded estimates where exactness would need a full pass (NDV grows
    /// by at most the inserted count and never exceeds the row count;
    /// deletes shrink it proportionally). `analyze` remains the exact
    /// recomputation.
    pub fn noting_write(&self, inserted: &[Row], deleted: usize) -> TableStats {
        let mut s = self.clone();
        if let Some(first) = inserted.first() {
            if s.columns.is_empty() {
                s.columns = first
                    .0
                    .iter()
                    .map(|_| ColumnStats { ndv: 0, null_count: 0, min: None, max: None })
                    .collect();
            }
        }
        let old_count = s.row_count.max(1);
        let new_count =
            (s.row_count + inserted.len() as u64).saturating_sub(deleted as u64);
        let mut added_non_null = vec![0u64; s.columns.len()];
        for row in inserted {
            for (c, v) in row.0.iter().enumerate() {
                let Some(col) = s.columns.get_mut(c) else {
                    continue;
                };
                if v.is_null() {
                    col.null_count += 1;
                    continue;
                }
                added_non_null[c] += 1;
                if col.min.as_ref().is_none_or(|m| v < m) {
                    col.min = Some(v.clone());
                }
                if col.max.as_ref().is_none_or(|m| v > m) {
                    col.max = Some(v.clone());
                }
            }
        }
        for (c, col) in s.columns.iter_mut().enumerate() {
            if deleted > 0 {
                let scaled = (col.ndv as f64 * new_count as f64 / old_count as f64).round();
                col.ndv = scaled as u64;
                col.null_count =
                    (col.null_count as f64 * new_count as f64 / old_count as f64).round() as u64;
            }
            col.ndv = (col.ndv + added_non_null[c]).min(new_count);
        }
        s.row_count = new_count;
        s
    }
}

/// Stats of one column from its per-segment pieces. Strings are counted
/// by borrowed `&str` so only distinct values are ever materialized.
fn column_stats<'a>(pieces: impl Iterator<Item = &'a Column>) -> ColumnStats {
    let mut strs: FxHashSet<&str> = FxHashSet::default();
    let mut others: FxHashSet<Datum> = FxHashSet::default();
    let (mut min, mut max): (Option<Datum>, Option<Datum>) = (None, None);
    let mut null_count = 0u64;
    let mut widen = |v: Datum| {
        if min.as_ref().is_none_or(|m| v < *m) {
            min = Some(v.clone());
        }
        if max.as_ref().is_none_or(|m| v > *m) {
            max = Some(v);
        }
    };
    for col in pieces {
        for i in 0..col.len() {
            if !col.is_valid(i) {
                null_count += 1;
                continue;
            }
            if let ColumnData::Str { .. } = col.data {
                let s = col.str_at(i);
                if strs.insert(s) {
                    widen(Datum::str(s));
                }
            } else {
                let v = col.datum_at(i);
                if others.insert(v.clone()) {
                    widen(v);
                }
            }
        }
    }
    // A string can sit in both sets when a mixed-type segment holds it.
    let both = others.iter().filter(|d| d.as_str().is_some_and(|s| strs.contains(s))).count();
    ColumnStats { ndv: (strs.len() + others.len() - both) as u64, null_count, min, max }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_common::{DataType, Field, Row, Schema};

    #[test]
    fn compute_counts() {
        let schema = Schema::new(vec![Field::new("a", DataType::Int), Field::new("b", DataType::Str)]);
        let data = TableData::new(2, schema);
        data.insert_into_partition(
            0,
            vec![
                Row(vec![Datum::Int(1), Datum::str("x")]),
                Row(vec![Datum::Int(2), Datum::Null]),
            ],
        );
        data.insert_into_partition(
            1,
            vec![
                Row(vec![Datum::Int(1), Datum::str("y")]),
                Row(vec![Datum::Int(3), Datum::str("x")]),
            ],
        );
        let s = TableStats::compute(&data);
        assert_eq!(s.row_count, 4);
        assert_eq!(s.columns[0].ndv, 3);
        assert_eq!(s.columns[1].ndv, 2);
        assert_eq!(s.columns[1].null_count, 1);
        assert_eq!(s.columns[0].min, Some(Datum::Int(1)));
        assert_eq!(s.columns[0].max, Some(Datum::Int(3)));
    }

    #[test]
    fn incremental_write_folding() {
        let schema = Schema::new(vec![Field::new("a", DataType::Int)]);
        let data = TableData::new(1, schema);
        data.insert_into_partition(0, (0..10).map(|i| Row(vec![Datum::Int(i)])).collect());
        let s = TableStats::compute(&data);
        // Insert widens min/max and grows count/ndv.
        let s2 = s.noting_write(&[Row(vec![Datum::Int(50)]), Row(vec![Datum::Null])], 0);
        assert_eq!(s2.row_count, 12);
        assert_eq!(s2.columns[0].max, Some(Datum::Int(50)));
        assert_eq!(s2.columns[0].min, Some(Datum::Int(0)));
        assert_eq!(s2.columns[0].null_count, 1);
        assert_eq!(s2.columns[0].ndv, 11);
        // Delete shrinks count and scales ndv down, capped by row count.
        let s3 = s2.noting_write(&[], 6);
        assert_eq!(s3.row_count, 6);
        assert!(s3.columns[0].ndv <= 6);
        // Writes against unanalyzed stats bootstrap the column vector.
        let s4 = TableStats::empty().noting_write(&[Row(vec![Datum::Int(1)])], 0);
        assert_eq!(s4.row_count, 1);
        assert_eq!(s4.columns[0].ndv, 1);
    }

    #[test]
    fn ndv_fallbacks() {
        let s = TableStats { row_count: 10, columns: Vec::new() };
        assert_eq!(s.ndv(5), 10);
        let s = TableStats::empty();
        assert_eq!(s.ndv(0), 1);
    }
}
