//! Columnar batches: typed column vectors with validity bitmaps and
//! selection vectors — the exec data plane's batch currency.
//!
//! A [`ColumnBatch`] holds one [`Column`] per output field. Each column
//! stores its values in a contiguous typed vector ([`ColumnData`]) plus an
//! optional validity [`Bitmap`] (absent ⇔ no NULLs), so kernels run tight
//! per-column loops over primitive buffers instead of walking `Vec<Row>`
//! datum-by-datum. Strings are stored as a shared offsets-plus-bytes blob;
//! columns whose values mix runtime types (legal in this dynamically typed
//! engine, e.g. an Int column fed a Double by a UNION-less untyped VALUES)
//! degrade to a boxed [`ColumnData::Any`] vector.
//!
//! **Selection vectors.** A batch may carry a selection vector — physical
//! row indices, in order. Filters never materialize survivors; they only
//! shrink the selection, and downstream kernels iterate logical rows
//! through it. Materialization (a *gather*) happens only where an operator
//! genuinely reorders or combines rows (join output, sort) or at the wire.
//!
//! **Row boundaries.** [`ColumnBatch::from_rows`] / [`ColumnBatch::to_rows`]
//! are the only row↔column conversion points, used where rows enter
//! storage (bulk load, inserts) and at the final client rowset. Type sniffing is per column: the
//! first non-NULL value fixes the typed representation, later mismatches
//! degrade that column to `Any`. Int is *not* promoted to Double — the two
//! display differently (`2` vs `2.0000`) and results must round-trip.
//!
//! **Hash contract.** [`ColumnBatch::hash_keys`] drives one [`FxHasher`]
//! per row through the exact same `Hash` write sequence as `Datum::hash`,
//! so vectorized hashing is bit-identical to `Row::hash_key` — planner
//! routing, storage partitioning and exchange hashing all share it (see the
//! pinned-value tests in `crates/exec/tests/kernel_props.rs`).

use crate::datum::Datum;
use crate::hash::FxHasher;
use crate::row::Row;
use std::cmp::Ordering;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Packed validity bitmap: bit `i` set ⇔ row `i` is valid (non-NULL).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

impl Bitmap {
    /// An empty bitmap.
    pub fn new() -> Bitmap {
        Bitmap::default()
    }

    /// Rebuild from packed words (wire decode). Bits past `len` must be 0.
    pub fn from_words(words: Vec<u64>, len: usize) -> Bitmap {
        Bitmap { words, len }
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the bitmap holds no bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bit `i` (true = valid).
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        (self.words[i >> 6] >> (i & 63)) & 1 == 1
    }

    /// Append one bit.
    #[inline]
    pub fn push(&mut self, valid: bool) {
        let w = self.len >> 6;
        if w == self.words.len() {
            self.words.push(0);
        }
        if valid {
            self.words[w] |= 1u64 << (self.len & 63);
        }
        self.len += 1;
    }

    /// Number of set (valid) bits.
    pub fn count_valid(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The packed words (for wire encoding).
    pub fn words(&self) -> &[u64] {
        &self.words
    }
}

/// Typed value storage for one column.
#[derive(Debug, Clone)]
pub enum ColumnData {
    /// 64-bit integers.
    Int(Vec<i64>),
    /// 64-bit floats.
    Double(Vec<f64>),
    /// Booleans.
    Bool(Vec<bool>),
    /// Dates as epoch-day numbers.
    Date(Vec<i32>),
    /// Strings: value `i` is `bytes[offsets[i] .. offsets[i + 1]]`.
    Str {
        /// `len + 1` cumulative byte offsets (`offsets[0] == 0`).
        offsets: Vec<u32>,
        /// Concatenated UTF-8 payload.
        bytes: Vec<u8>,
    },
    /// Mixed-type fallback: boxed datums.
    Any(Vec<Datum>),
}

impl ColumnData {
    /// Number of physical values.
    pub fn len(&self) -> usize {
        match self {
            ColumnData::Int(v) => v.len(),
            ColumnData::Double(v) => v.len(),
            ColumnData::Bool(v) => v.len(),
            ColumnData::Date(v) => v.len(),
            ColumnData::Str { offsets, .. } => offsets.len().saturating_sub(1),
            ColumnData::Any(v) => v.len(),
        }
    }

    /// Whether the storage holds no values.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One column: typed values plus an optional validity bitmap
/// (`None` ⇔ every row is valid).
#[derive(Debug, Clone)]
pub struct Column {
    /// The typed value storage.
    pub data: ColumnData,
    /// Validity bitmap; absent means no NULLs.
    pub validity: Option<Bitmap>,
}

impl Column {
    /// Build a column from owned datums (used by the vectorized evaluator).
    pub fn from_datums(vals: Vec<Datum>) -> Column {
        let mut b = ColumnBuilder::new();
        for d in vals {
            b.push_datum(d);
        }
        b.finish()
    }

    /// Number of physical rows.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the column holds no rows.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Is physical row `i` non-NULL?
    #[inline]
    pub fn is_valid(&self, i: usize) -> bool {
        match &self.validity {
            None => true,
            Some(b) => b.get(i),
        }
    }

    /// String value at physical row `i`; only meaningful for
    /// [`ColumnData::Str`] columns with a valid row.
    #[inline]
    // ic-lint: allow(L001) because offsets/bytes are only ever written by push_str, which stores validated UTF-8
    pub fn str_at(&self, i: usize) -> &str {
        match &self.data {
            ColumnData::Str { offsets, bytes } => {
                let (s, e) = (offsets[i] as usize, offsets[i + 1] as usize);
                std::str::from_utf8(&bytes[s..e]).expect("column stores valid UTF-8")
            }
            _ => "",
        }
    }

    /// Materialize physical row `i` as a [`Datum`] (allocates for strings).
    pub fn datum_at(&self, i: usize) -> Datum {
        if !self.is_valid(i) {
            return Datum::Null;
        }
        match &self.data {
            ColumnData::Int(v) => Datum::Int(v[i]),
            ColumnData::Double(v) => Datum::Double(v[i]),
            ColumnData::Bool(v) => Datum::Bool(v[i]),
            ColumnData::Date(v) => Datum::Date(v[i]),
            ColumnData::Str { .. } => Datum::str(self.str_at(i)),
            ColumnData::Any(v) => v[i].clone(),
        }
    }

    /// SQL value equality between `self[i]` and `other[j]`, matching
    /// `Datum::eq`: NULL == NULL (group-key semantics), mixed Int/Double
    /// and Date/Int coerce, everything else compares typed.
    #[inline]
    pub fn eq_at(&self, i: usize, other: &Column, j: usize) -> bool {
        match (self.is_valid(i), other.is_valid(j)) {
            (false, false) => return true,
            (true, true) => {}
            _ => return false,
        }
        match (&self.data, &other.data) {
            (ColumnData::Int(a), ColumnData::Int(b)) => a[i] == b[j],
            (ColumnData::Double(a), ColumnData::Double(b)) => a[i] == b[j],
            (ColumnData::Int(a), ColumnData::Double(b)) => a[i] as f64 == b[j],
            (ColumnData::Double(a), ColumnData::Int(b)) => a[i] == b[j] as f64,
            (ColumnData::Date(a), ColumnData::Date(b)) => a[i] == b[j],
            (ColumnData::Date(a), ColumnData::Int(b)) => a[i] as i64 == b[j],
            (ColumnData::Int(a), ColumnData::Date(b)) => a[i] == b[j] as i64,
            (ColumnData::Bool(a), ColumnData::Bool(b)) => a[i] == b[j],
            (ColumnData::Str { .. }, ColumnData::Str { .. }) => {
                self.str_at(i) == other.str_at(j)
            }
            _ => self.datum_at(i) == other.datum_at(j),
        }
    }

    /// SQL value equality between `self[i]` and a materialized datum,
    /// matching `Datum::eq` (NULL == NULL).
    #[inline]
    pub fn eq_datum(&self, i: usize, d: &Datum) -> bool {
        if !self.is_valid(i) {
            return d.is_null();
        }
        match (&self.data, d) {
            (_, Datum::Null) => false,
            (ColumnData::Int(a), Datum::Int(b)) => a[i] == *b,
            (ColumnData::Int(a), Datum::Double(b)) => a[i] as f64 == *b,
            (ColumnData::Int(a), Datum::Date(b)) => a[i] == *b as i64,
            (ColumnData::Double(a), Datum::Double(b)) => a[i] == *b,
            (ColumnData::Double(a), Datum::Int(b)) => a[i] == *b as f64,
            (ColumnData::Date(a), Datum::Date(b)) => a[i] == *b,
            (ColumnData::Date(a), Datum::Int(b)) => a[i] as i64 == *b,
            (ColumnData::Bool(a), Datum::Bool(b)) => a[i] == *b,
            (ColumnData::Str { .. }, Datum::Str(b)) => self.str_at(i) == b.as_ref(),
            _ => &self.datum_at(i) == d,
        }
    }

    /// Total order between `self[i]` and `other[j]`, matching `Datum::cmp`
    /// (NULL first, SQL comparison, type-rank fallback). Used by sort and
    /// merge kernels.
    #[inline]
    pub fn cmp_at(&self, i: usize, other: &Column, j: usize) -> Ordering {
        match (self.is_valid(i), other.is_valid(j)) {
            (false, false) => return Ordering::Equal,
            (false, true) => return Ordering::Less,
            (true, false) => return Ordering::Greater,
            _ => {}
        }
        match (&self.data, &other.data) {
            (ColumnData::Int(a), ColumnData::Int(b)) => a[i].cmp(&b[j]),
            (ColumnData::Double(a), ColumnData::Double(b)) => {
                // sql_cmp on NaN yields None, and Datum::cmp then falls back
                // to type-rank (equal for Double/Double).
                a[i].partial_cmp(&b[j]).unwrap_or(Ordering::Equal)
            }
            (ColumnData::Date(a), ColumnData::Date(b)) => a[i].cmp(&b[j]),
            (ColumnData::Bool(a), ColumnData::Bool(b)) => a[i].cmp(&b[j]),
            (ColumnData::Str { .. }, ColumnData::Str { .. }) => {
                self.str_at(i).cmp(other.str_at(j))
            }
            _ => self.datum_at(i).cmp(&other.datum_at(j)),
        }
    }

    /// Feed physical row `i` into `h` with the exact write sequence of
    /// `Datum::hash` — the cross-layer hash contract.
    #[inline]
    pub fn hash_at(&self, i: usize, h: &mut FxHasher) {
        if !self.is_valid(i) {
            0u8.hash(h);
            return;
        }
        match &self.data {
            ColumnData::Int(v) => {
                2u8.hash(h);
                (v[i] as f64).to_bits().hash(h);
            }
            ColumnData::Double(v) => {
                2u8.hash(h);
                v[i].to_bits().hash(h);
            }
            ColumnData::Date(v) => {
                2u8.hash(h);
                (v[i] as f64).to_bits().hash(h);
            }
            ColumnData::Bool(v) => {
                1u8.hash(h);
                v[i].hash(h);
            }
            ColumnData::Str { .. } => {
                3u8.hash(h);
                self.str_at(i).hash(h);
            }
            ColumnData::Any(v) => v[i].hash(h),
        }
    }

    /// Drive every hasher in `hashers` through this column: hasher `k`
    /// receives logical row `k` (physical `sel[k]` when a selection is
    /// present). Column-major so each `match` on the type happens once.
    fn hash_into(&self, sel: Option<&[u32]>, hashers: &mut [FxHasher]) {
        match sel {
            None => {
                for (i, h) in hashers.iter_mut().enumerate() {
                    self.hash_at(i, h);
                }
            }
            Some(s) => {
                for (k, h) in hashers.iter_mut().enumerate() {
                    self.hash_at(s[k] as usize, h);
                }
            }
        }
    }

    /// Approximate heap byte size of one physical row's value.
    pub fn value_byte_size(&self, i: usize) -> usize {
        if !self.is_valid(i) {
            return 1;
        }
        match &self.data {
            ColumnData::Int(_) | ColumnData::Double(_) => 8,
            ColumnData::Bool(_) => 1,
            ColumnData::Date(_) => 4,
            ColumnData::Str { offsets, .. } => (offsets[i + 1] - offsets[i]) as usize,
            ColumnData::Any(v) => v[i].byte_size(),
        }
    }
}

/// Incremental [`Column`] builder with per-value type sniffing.
///
/// The first non-NULL value fixes the typed representation; a later value
/// of a different runtime type degrades the column to [`ColumnData::Any`].
/// Leading NULLs are backfilled with placeholder values once the type is
/// known (the validity bitmap masks them).
#[derive(Debug)]
pub struct ColumnBuilder {
    data: Option<ColumnData>,
    validity: Bitmap,
    has_null: bool,
}

impl Default for ColumnBuilder {
    fn default() -> Self {
        ColumnBuilder::new()
    }
}

impl ColumnBuilder {
    /// An empty builder.
    pub fn new() -> ColumnBuilder {
        ColumnBuilder { data: None, validity: Bitmap::new(), has_null: false }
    }

    /// Rows pushed so far.
    pub fn len(&self) -> usize {
        self.validity.len()
    }

    /// Whether no rows were pushed yet.
    pub fn is_empty(&self) -> bool {
        self.validity.is_empty()
    }

    /// Append a NULL.
    #[inline]
    pub fn push_null(&mut self) {
        self.validity.push(false);
        self.has_null = true;
        match &mut self.data {
            None => {}
            Some(ColumnData::Int(v)) => v.push(0),
            Some(ColumnData::Double(v)) => v.push(0.0),
            Some(ColumnData::Bool(v)) => v.push(false),
            Some(ColumnData::Date(v)) => v.push(0),
            Some(ColumnData::Str { offsets, bytes }) => offsets.push(bytes.len() as u32),
            Some(ColumnData::Any(v)) => v.push(Datum::Null),
        }
    }

    /// Append an owned datum.
    pub fn push_datum(&mut self, d: Datum) {
        match d {
            Datum::Null => self.push_null(),
            Datum::Int(x) => {
                self.ensure_kind(Kind::Int);
                match &mut self.data {
                    Some(ColumnData::Int(v)) => v.push(x),
                    Some(ColumnData::Any(v)) => v.push(Datum::Int(x)),
                    _ => unreachable!("ensure_kind fixed the representation"),
                }
                self.validity.push(true);
            }
            Datum::Double(x) => {
                self.ensure_kind(Kind::Double);
                match &mut self.data {
                    Some(ColumnData::Double(v)) => v.push(x),
                    Some(ColumnData::Any(v)) => v.push(Datum::Double(x)),
                    _ => unreachable!("ensure_kind fixed the representation"),
                }
                self.validity.push(true);
            }
            Datum::Bool(x) => {
                self.ensure_kind(Kind::Bool);
                match &mut self.data {
                    Some(ColumnData::Bool(v)) => v.push(x),
                    Some(ColumnData::Any(v)) => v.push(Datum::Bool(x)),
                    _ => unreachable!("ensure_kind fixed the representation"),
                }
                self.validity.push(true);
            }
            Datum::Date(x) => {
                self.ensure_kind(Kind::Date);
                match &mut self.data {
                    Some(ColumnData::Date(v)) => v.push(x),
                    Some(ColumnData::Any(v)) => v.push(Datum::Date(x)),
                    _ => unreachable!("ensure_kind fixed the representation"),
                }
                self.validity.push(true);
            }
            Datum::Str(s) => {
                self.ensure_kind(Kind::Str);
                match &mut self.data {
                    Some(ColumnData::Str { offsets, bytes }) => {
                        bytes.extend_from_slice(s.as_bytes());
                        offsets.push(bytes.len() as u32);
                    }
                    Some(ColumnData::Any(v)) => v.push(Datum::Str(s)),
                    _ => unreachable!("ensure_kind fixed the representation"),
                }
                self.validity.push(true);
            }
        }
    }

    /// Append a datum by reference — string bytes copy straight into the
    /// arena without an intermediate owned `Datum` (one copy, not two, as
    /// rows enter storage).
    #[inline]
    pub fn push_datum_ref(&mut self, d: &Datum) {
        if let Datum::Str(s) = d {
            self.ensure_kind(Kind::Str);
            match &mut self.data {
                Some(ColumnData::Str { offsets, bytes }) => {
                    bytes.extend_from_slice(s.as_bytes());
                    offsets.push(bytes.len() as u32);
                }
                Some(ColumnData::Any(v)) => v.push(d.clone()),
                _ => unreachable!("ensure_kind fixed the representation"),
            }
            self.validity.push(true);
        } else {
            self.push_datum(d.clone()); // scalar clones are plain copies
        }
    }

    /// Append `col[i]` without constructing a [`Datum`] when the typed
    /// representations line up.
    #[inline]
    pub fn push_from_column(&mut self, col: &Column, i: usize) {
        if !col.is_valid(i) {
            self.push_null();
            return;
        }
        if self.data.is_none() {
            self.init_from(&col.data);
        }
        match (&mut self.data, &col.data) {
            (Some(ColumnData::Int(v)), ColumnData::Int(s)) => {
                v.push(s[i]);
                self.validity.push(true);
            }
            (Some(ColumnData::Double(v)), ColumnData::Double(s)) => {
                v.push(s[i]);
                self.validity.push(true);
            }
            (Some(ColumnData::Bool(v)), ColumnData::Bool(s)) => {
                v.push(s[i]);
                self.validity.push(true);
            }
            (Some(ColumnData::Date(v)), ColumnData::Date(s)) => {
                v.push(s[i]);
                self.validity.push(true);
            }
            (
                Some(ColumnData::Str { offsets, bytes }),
                ColumnData::Str { offsets: so, bytes: sb },
            ) => {
                let (a, b) = (so[i] as usize, so[i + 1] as usize);
                bytes.extend_from_slice(&sb[a..b]);
                offsets.push(bytes.len() as u32);
                self.validity.push(true);
            }
            _ => self.push_datum(col.datum_at(i)),
        }
    }

    /// Bulk-append a column, optionally through a physical selection.
    pub fn append_column(&mut self, col: &Column, sel: Option<&[u32]>) {
        match sel {
            None => {
                // Dense same-kind appends take typed bulk copies.
                if self.data.is_none() && !col.is_empty() {
                    self.init_from(&col.data);
                }
                match (&mut self.data, &col.data, &col.validity) {
                    (Some(ColumnData::Int(v)), ColumnData::Int(s), None) => {
                        v.extend_from_slice(s);
                        for _ in 0..s.len() {
                            self.validity.push(true);
                        }
                    }
                    (Some(ColumnData::Double(v)), ColumnData::Double(s), None) => {
                        v.extend_from_slice(s);
                        for _ in 0..s.len() {
                            self.validity.push(true);
                        }
                    }
                    (Some(ColumnData::Date(v)), ColumnData::Date(s), None) => {
                        v.extend_from_slice(s);
                        for _ in 0..s.len() {
                            self.validity.push(true);
                        }
                    }
                    _ => {
                        for i in 0..col.len() {
                            self.push_from_column(col, i);
                        }
                    }
                }
            }
            Some(s) => {
                for &i in s {
                    self.push_from_column(col, i as usize);
                }
            }
        }
    }

    /// Finish into an immutable [`Column`].
    pub fn finish(self) -> Column {
        let len = self.validity.len();
        let data = self.data.unwrap_or(ColumnData::Int(vec![0; len]));
        Column { data, validity: if self.has_null { Some(self.validity) } else { None } }
    }

    // ic-lint: allow(L012) because this runs once per column at the first typed append, not per element
    fn init_from(&mut self, like: &ColumnData) {
        debug_assert!(self.data.is_none());
        let n = self.validity.len();
        self.data = Some(match like {
            ColumnData::Int(_) => ColumnData::Int(vec![0; n]),
            ColumnData::Double(_) => ColumnData::Double(vec![0.0; n]),
            ColumnData::Bool(_) => ColumnData::Bool(vec![false; n]),
            ColumnData::Date(_) => ColumnData::Date(vec![0; n]),
            ColumnData::Str { .. } => {
                ColumnData::Str { offsets: vec![0; n + 1], bytes: Vec::new() }
            }
            ColumnData::Any(_) => ColumnData::Any(vec![Datum::Null; n]),
        });
    }

    // ic-lint: allow(L012) because allocation happens only on the None->typed transition, once per column
    fn ensure_kind(&mut self, kind: Kind) {
        match &self.data {
            None => {
                let n = self.validity.len();
                self.data = Some(match kind {
                    Kind::Int => ColumnData::Int(vec![0; n]),
                    Kind::Double => ColumnData::Double(vec![0.0; n]),
                    Kind::Bool => ColumnData::Bool(vec![false; n]),
                    Kind::Date => ColumnData::Date(vec![0; n]),
                    Kind::Str => ColumnData::Str { offsets: vec![0; n + 1], bytes: Vec::new() },
                });
            }
            Some(d) => {
                let matches = matches!(
                    (d, kind),
                    (ColumnData::Int(_), Kind::Int)
                        | (ColumnData::Double(_), Kind::Double)
                        | (ColumnData::Bool(_), Kind::Bool)
                        | (ColumnData::Date(_), Kind::Date)
                        | (ColumnData::Str { .. }, Kind::Str)
                        | (ColumnData::Any(_), _)
                );
                if !matches {
                    self.degrade_to_any();
                }
            }
        }
    }

    /// Re-materialize the current values as boxed datums (mixed-type column).
    // ic-lint: allow(L012) because degrading to Any is a one-time fallback when a column first sees mixed types
    fn degrade_to_any(&mut self) {
        let n = self.validity.len();
        let old = Column {
            data: self.data.take().unwrap_or(ColumnData::Int(vec![0; n])),
            validity: Some(self.validity.clone()),
        };
        let vals: Vec<Datum> = (0..n).map(|i| old.datum_at(i)).collect();
        self.data = Some(ColumnData::Any(vals));
    }
}

#[derive(Clone, Copy)]
enum Kind {
    Int,
    Double,
    Bool,
    Date,
    Str,
}

/// A batch of rows in columnar form: one [`Column`] per field plus an
/// optional selection vector of physical row indices.
#[derive(Debug, Clone)]
pub struct ColumnBatch {
    columns: Vec<Arc<Column>>,
    /// Physical row count (every column's length). Tracked separately so
    /// zero-width batches (`SELECT count(*)` inputs) still carry rows.
    nrows: usize,
    /// Selection: logical row `k` is physical row `sel[k]`. `None` ⇔ dense.
    sel: Option<Arc<Vec<u32>>>,
}

impl ColumnBatch {
    /// Assemble a dense batch from finished columns.
    pub fn new(columns: Vec<Arc<Column>>, nrows: usize) -> ColumnBatch {
        debug_assert!(columns.iter().all(|c| c.len() == nrows));
        ColumnBatch { columns, nrows, sel: None }
    }

    /// An empty batch of the given width.
    pub fn empty(width: usize) -> ColumnBatch {
        let col = Arc::new(Column { data: ColumnData::Int(Vec::new()), validity: None });
        ColumnBatch { columns: vec![col; width], nrows: 0, sel: None }
    }

    /// Convert row-major input (storage appends, `VALUES` inputs).
    pub fn from_rows(rows: &[Row]) -> ColumnBatch {
        let width = rows.first().map_or(0, |r| r.arity());
        let mut builders: Vec<ColumnBuilder> = (0..width).map(|_| ColumnBuilder::new()).collect();
        for r in rows {
            debug_assert_eq!(r.arity(), width, "ragged batch");
            for (b, d) in builders.iter_mut().zip(&r.0) {
                b.push_datum_ref(d);
            }
        }
        ColumnBatch {
            columns: builders.into_iter().map(|b| Arc::new(b.finish())).collect(),
            nrows: rows.len(),
            sel: None,
        }
    }

    /// Concatenate batches into one dense batch, resolving any selection
    /// vectors (per-column typed bulk appends). Used where many small
    /// batches would each pay a fixed cost downstream — e.g. per-message
    /// network latency at an exchange.
    pub fn concat(batches: &[ColumnBatch]) -> ColumnBatch {
        if batches.len() == 1 && batches[0].sel.is_none() {
            return batches[0].clone();
        }
        let width = batches.first().map_or(0, ColumnBatch::width);
        let nrows = batches.iter().map(ColumnBatch::num_rows).sum();
        let mut cols = Vec::with_capacity(width);
        for c in 0..width {
            let mut b = ColumnBuilder::new();
            for batch in batches {
                b.append_column(batch.col(c), batch.selection());
            }
            cols.push(Arc::new(b.finish()));
        }
        ColumnBatch { columns: cols, nrows, sel: None }
    }

    /// Materialize as rows, honouring the selection (the client-rowset shim).
    pub fn to_rows(&self) -> Vec<Row> {
        let n = self.num_rows();
        let mut out = Vec::with_capacity(n);
        for k in 0..n {
            out.push(self.row_at(k));
        }
        out
    }

    /// Materialize logical row `k` as a [`Row`].
    pub fn row_at(&self, k: usize) -> Row {
        let i = self.phys_index(k);
        Row(self.columns.iter().map(|c| c.datum_at(i)).collect())
    }

    /// Materialize one value: logical row `k` of column `c`.
    pub fn datum_at(&self, c: usize, k: usize) -> Datum {
        self.columns[c].datum_at(self.phys_index(k))
    }

    /// Logical row count (selection length when present).
    #[inline]
    pub fn num_rows(&self) -> usize {
        match &self.sel {
            None => self.nrows,
            Some(s) => s.len(),
        }
    }

    /// Physical row count of the underlying columns.
    #[inline]
    pub fn phys_rows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    #[inline]
    pub fn width(&self) -> usize {
        self.columns.len()
    }

    /// The columns.
    #[inline]
    pub fn columns(&self) -> &[Arc<Column>] {
        &self.columns
    }

    /// Column `c`.
    #[inline]
    pub fn col(&self, c: usize) -> &Arc<Column> {
        &self.columns[c]
    }

    /// The selection vector, if any.
    #[inline]
    pub fn selection(&self) -> Option<&[u32]> {
        self.sel.as_deref().map(|s| s.as_slice())
    }

    /// Physical index of logical row `k`.
    #[inline]
    pub fn phys_index(&self, k: usize) -> usize {
        match &self.sel {
            None => k,
            Some(s) => s[k] as usize,
        }
    }

    /// Replace the selection with `sel` (physical indices). The caller has
    /// already resolved any previous selection (filters produce physical
    /// indices directly).
    pub fn with_sel(&self, sel: Vec<u32>) -> ColumnBatch {
        debug_assert!(sel.iter().all(|&i| (i as usize) < self.nrows));
        ColumnBatch { columns: self.columns.clone(), nrows: self.nrows, sel: Some(Arc::new(sel)) }
    }

    /// Keep the logical rows listed in `keep` (logical indices, in order).
    pub fn select_logical(&self, keep: &[u32]) -> ColumnBatch {
        let sel: Vec<u32> = match &self.sel {
            None => keep.to_vec(),
            Some(s) => keep.iter().map(|&k| s[k as usize]).collect(),
        };
        self.with_sel(sel)
    }

    /// Logical rows `[start, start + len)` as a (selection-sliced) batch.
    pub fn slice_logical(&self, start: usize, len: usize) -> ColumnBatch {
        let sel: Vec<u32> = match &self.sel {
            None => (start as u32..(start + len) as u32).collect(),
            Some(s) => s[start..start + len].to_vec(),
        };
        self.with_sel(sel)
    }

    /// Keep a subset of columns (cheap: shares the column arcs and selection).
    pub fn project_cols(&self, cols: &[usize]) -> ColumnBatch {
        ColumnBatch {
            columns: cols.iter().map(|&c| self.columns[c].clone()).collect(),
            nrows: self.nrows,
            sel: self.sel.clone(),
        }
    }

    /// Densify: gather the selected rows into fresh contiguous columns.
    /// A dense batch is returned as-is (columns stay shared).
    pub fn gather(&self) -> ColumnBatch {
        match &self.sel {
            None => self.clone(),
            Some(s) => {
                let nrows = s.len();
                let columns = self
                    .columns
                    .iter()
                    .map(|c| {
                        let mut b = ColumnBuilder::new();
                        b.append_column(c, Some(s));
                        Arc::new(b.finish())
                    })
                    .collect();
                ColumnBatch { columns, nrows, sel: None }
            }
        }
    }

    /// Per-logical-row key hashes over `cols`, bit-identical to
    /// `Row::hash_key` (one fresh [`FxHasher`] per row, columns in order).
    pub fn hash_keys(&self, cols: &[usize]) -> Vec<u64> {
        let n = self.num_rows();
        let mut hashers = vec![FxHasher::default(); n];
        let sel = self.selection();
        for &c in cols {
            self.columns[c].hash_into(sel, &mut hashers);
        }
        hashers.iter().map(|h| h.finish()).collect()
    }

    /// Memory-accounting cells: `width.max(1) × logical rows` (matches the
    /// row plane's `arity.max(1) × len`).
    pub fn cells(&self) -> usize {
        self.width().max(1) * self.num_rows()
    }

    /// Approximate byte size of the selected payload (cost/lease estimates).
    pub fn byte_size(&self) -> usize {
        let n = self.num_rows();
        let mut total = 0usize;
        for c in &self.columns {
            for k in 0..n {
                total += c.value_byte_size(self.phys_index(k));
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(vals: &[&[Datum]]) -> Vec<Row> {
        vals.iter().map(|v| Row(v.to_vec())).collect()
    }

    #[test]
    fn row_roundtrip_typed() {
        let input = rows(&[
            &[Datum::Int(1), Datum::str("a"), Datum::Double(1.5)],
            &[Datum::Null, Datum::str(""), Datum::Null],
            &[Datum::Int(-3), Datum::Null, Datum::Double(2.5)],
        ]);
        let b = ColumnBatch::from_rows(&input);
        assert_eq!(b.num_rows(), 3);
        assert_eq!(b.width(), 3);
        assert!(matches!(b.col(0).data, ColumnData::Int(_)));
        assert!(matches!(b.col(1).data, ColumnData::Str { .. }));
        assert_eq!(b.to_rows(), input);
    }

    #[test]
    fn mixed_types_degrade_to_any() {
        let input = rows(&[&[Datum::Int(1)], &[Datum::str("x")], &[Datum::Double(0.5)]]);
        let b = ColumnBatch::from_rows(&input);
        assert!(matches!(b.col(0).data, ColumnData::Any(_)));
        assert_eq!(b.to_rows(), input);
    }

    #[test]
    fn int_double_mix_not_promoted() {
        // Display distinguishes Int(2) ("2") from Double(2.0) ("2.0000"),
        // so conversion must preserve the variants exactly.
        let input = rows(&[&[Datum::Int(2)], &[Datum::Double(2.0)]]);
        let b = ColumnBatch::from_rows(&input);
        assert_eq!(b.to_rows(), input);
        assert!(matches!(b.datum_at(0, 0), Datum::Int(2)));
        assert!(matches!(b.datum_at(0, 1), Datum::Double(_)));
    }

    #[test]
    fn all_null_column_roundtrips() {
        let input = rows(&[&[Datum::Null], &[Datum::Null]]);
        let b = ColumnBatch::from_rows(&input);
        assert_eq!(b.to_rows(), input);
    }

    #[test]
    fn selection_views_and_gather() {
        let input = rows(&[
            &[Datum::Int(0)],
            &[Datum::Int(1)],
            &[Datum::Int(2)],
            &[Datum::Int(3)],
        ]);
        let b = ColumnBatch::from_rows(&input);
        let filtered = b.with_sel(vec![1, 3]);
        assert_eq!(filtered.num_rows(), 2);
        assert_eq!(filtered.phys_rows(), 4);
        assert_eq!(filtered.row_at(1), Row(vec![Datum::Int(3)]));
        // Narrowing an existing selection resolves through it.
        let narrowed = filtered.select_logical(&[1]);
        assert_eq!(narrowed.to_rows(), rows(&[&[Datum::Int(3)]]));
        let dense = filtered.gather();
        assert_eq!(dense.phys_rows(), 2);
        assert!(dense.selection().is_none());
        assert_eq!(dense.to_rows(), rows(&[&[Datum::Int(1)], &[Datum::Int(3)]]));
    }

    #[test]
    fn hash_matches_row_hash_key() {
        let input = rows(&[
            &[Datum::Int(7), Datum::str("line"), Datum::Double(0.25), Datum::Date(42)],
            &[Datum::Null, Datum::str(""), Datum::Double(-1.0), Datum::Date(0)],
            &[Datum::Int(0), Datum::str("ORDERS"), Datum::Null, Datum::Null],
        ]);
        let b = ColumnBatch::from_rows(&input);
        for cols in [vec![0usize], vec![1], vec![0, 1, 2, 3], vec![3, 2]] {
            let hashes = b.hash_keys(&cols);
            for (k, r) in input.iter().enumerate() {
                assert_eq!(hashes[k], r.hash_key(&cols), "cols {cols:?} row {k}");
            }
        }
        // Through a selection too.
        let selected = b.with_sel(vec![2, 0]);
        let hashes = selected.hash_keys(&[0, 1]);
        assert_eq!(hashes[0], input[2].hash_key(&[0, 1]));
        assert_eq!(hashes[1], input[0].hash_key(&[0, 1]));
    }

    #[test]
    fn eq_and_cmp_match_datum_semantics() {
        let a = ColumnBatch::from_rows(&rows(&[&[Datum::Int(2)], &[Datum::Null]]));
        let d = ColumnBatch::from_rows(&rows(&[&[Datum::Double(2.0)], &[Datum::Null]]));
        assert!(a.col(0).eq_at(0, d.col(0), 0)); // Int(2) == Double(2.0)
        assert!(a.col(0).eq_at(1, d.col(0), 1)); // NULL == NULL (group keys)
        assert!(!a.col(0).eq_at(0, d.col(0), 1));
        assert!(a.col(0).eq_datum(0, &Datum::Double(2.0)));
        assert!(a.col(0).eq_datum(1, &Datum::Null));
        assert!(!a.col(0).eq_datum(0, &Datum::Null));
        // NULL sorts first, as in Datum::cmp.
        assert_eq!(a.col(0).cmp_at(1, a.col(0), 0), Ordering::Less);
        assert_eq!(a.col(0).cmp_at(0, d.col(0), 0), Ordering::Equal);
        // Date/Int coercion.
        let dt = ColumnBatch::from_rows(&rows(&[&[Datum::Date(2)]]));
        assert!(dt.col(0).eq_at(0, a.col(0), 0));
        assert!(dt.col(0).eq_datum(0, &Datum::Int(2)));
    }

    #[test]
    fn zero_width_batches_track_rows() {
        let input = rows(&[&[], &[], &[]]);
        let b = ColumnBatch::from_rows(&input);
        assert_eq!(b.width(), 0);
        assert_eq!(b.num_rows(), 3);
        assert_eq!(b.cells(), 3);
        assert_eq!(b.to_rows(), input);
    }

    #[test]
    fn builder_degrades_after_nulls() {
        let mut b = ColumnBuilder::new();
        b.push_null();
        b.push_datum(Datum::str("s"));
        b.push_datum(Datum::Int(4));
        let col = b.finish();
        assert!(matches!(col.data, ColumnData::Any(_)));
        assert_eq!(col.datum_at(0), Datum::Null);
        assert_eq!(col.datum_at(1), Datum::str("s"));
        assert_eq!(col.datum_at(2), Datum::Int(4));
    }

    #[test]
    fn bitmap_packing() {
        let mut bm = Bitmap::new();
        for i in 0..130 {
            bm.push(i % 3 == 0);
        }
        assert_eq!(bm.len(), 130);
        for i in 0..130 {
            assert_eq!(bm.get(i), i % 3 == 0);
        }
        assert_eq!(bm.count_valid(), (0..130).filter(|i| i % 3 == 0).count());
        let rebuilt = Bitmap::from_words(bm.words().to_vec(), bm.len());
        assert_eq!(rebuilt, bm);
    }
}
