//! Property tests for the batch-at-a-time kernels: hash join against the
//! nested-loop reference and hash aggregation against streaming sort
//! aggregation under NULL-heavy, duplicate-heavy keys — the inputs most
//! likely to expose differences between the arena/chain hash table and the
//! operators it replaced — plus the cross-layer hash contract: planner
//! routing, storage partitioning and executor probing all hash through
//! `Row::hash_key`, and its values are pinned so an accidental divergence
//! (or hasher change on one side only) fails loudly.

use ic_common::agg::{Accumulator, AggFunc};
use ic_common::{BinOp, ColumnBatch, Datum, Expr, Row};
use ic_common::eval::eval_filter_sel;
use ic_exec::kernels::ColGroupTable;
use ic_exec::operators::{
    drain, BoxedSource, ControlBlock, HashAggExec, HashJoinExec, NestedLoopJoinExec,
    SortAggExec, VecSource,
};
use ic_net::topology::Topology;
use ic_plan::ops::{AggCall, AggPhase, JoinKind};
use proptest::prelude::*;
use ic_common::hash::FxHashSet;

fn src(data: Vec<Row>) -> BoxedSource {
    Box::new(VecSource::new(data))
}

fn canon(mut v: Vec<Row>) -> Vec<Row> {
    v.sort();
    v
}

/// Join/group keys skewed toward collisions: NULLs are common and the live
/// domain is tiny (guaranteeing duplicate keys), with equal numerics split
/// between Int and Double so the canonical hash paths get exercised. Date is
/// excluded here: Date-vs-Double comparison is ill-typed (the binder would
/// reject it), which both errors in `Expr::eq` and makes datum equality
/// non-transitive — not a shape a well-typed plan can produce.
fn arb_key() -> impl Strategy<Value = Datum> {
    prop_oneof![
        Just(Datum::Null),
        Just(Datum::Null), // NULL-heavy: double weight
        (-2i64..4).prop_map(Datum::Int),
        (-2i64..4).prop_map(|v| Datum::Double(v as f64)),
    ]
}

/// Full key domain for hash-invariant and routing tests, where Date is fine
/// (it canonicalizes through the same numeric hash path as Int/Double).
fn arb_any_key() -> impl Strategy<Value = Datum> {
    prop_oneof![
        Just(Datum::Null),
        (-2i64..4).prop_map(Datum::Int),
        (-2i64..4).prop_map(|v| Datum::Double(v as f64)),
        (0i32..4).prop_map(Datum::Date),
    ]
}

fn arb_rows(max: usize) -> impl Strategy<Value = Vec<Row>> {
    proptest::collection::vec((arb_key(), -20i64..20), 0..max)
        .prop_map(|kvs| kvs.into_iter().map(|(k, v)| Row(vec![k, Datum::Int(v)])).collect())
}

proptest! {
    /// HashJoinExec (arena + chained hash table) ≡ NestedLoopJoinExec for
    /// every join kind, under NULL-heavy duplicate-heavy keys. NULL keys
    /// must match nothing (SQL equi-join semantics) and Int/Double/Date
    /// keys that compare equal must join.
    #[test]
    fn hash_join_matches_nested_loop((l, r) in (arb_rows(32), arb_rows(32))) {
        for kind in [JoinKind::Inner, JoinKind::Left, JoinKind::Semi, JoinKind::Anti] {
            let on = Expr::eq(Expr::col(0), Expr::col(2));
            let nlj = NestedLoopJoinExec::new(
                src(l.clone()), src(r.clone()), kind, on, 2, ControlBlock::new(None, 0));
            let hj = HashJoinExec::new(
                src(l.clone()), src(r.clone()), kind, vec![0], vec![0],
                Expr::lit(true), 2, ControlBlock::new(None, 0));
            prop_assert_eq!(
                canon(drain(Box::new(nlj)).unwrap()),
                canon(drain(Box::new(hj)).unwrap()),
                "{:?}", kind
            );
        }
    }

    /// HashAggExec (GroupTable) ≡ SortAggExec (streaming over sorted input)
    /// with NULL group keys and duplicate-heavy groups, including the
    /// partial phase whose output rows carry accumulator states.
    #[test]
    fn hash_agg_matches_sort_agg(data in arb_rows(64)) {
        let aggs = vec![
            AggCall { func: AggFunc::Sum, arg: Some(Expr::col(1)), name: "s".into() },
            AggCall { func: AggFunc::CountStar, arg: None, name: "c".into() },
            AggCall { func: AggFunc::Min, arg: Some(Expr::col(1)), name: "m".into() },
        ];
        for phase in [AggPhase::Complete, AggPhase::Partial] {
            let hash = HashAggExec::new(
                src(data.clone()), vec![0], aggs.clone(), phase,
                ControlBlock::new(None, 0));
            let mut sorted = data.clone();
            sorted.sort();
            let sort = SortAggExec::new(
                src(sorted), vec![0], aggs.clone(), phase, ControlBlock::new(None, 0));
            prop_assert_eq!(
                canon(drain(Box::new(hash)).unwrap()),
                canon(drain(Box::new(sort)).unwrap()),
                "{:?}", phase
            );
        }
    }

    /// Datums that compare equal hash equal — the invariant that lets the
    /// probe side hash its own columns without materializing the build
    /// side's representation (Int 2 probing a Double 2.0 build key must
    /// land in the same bucket).
    #[test]
    fn equal_datums_hash_equal(a in arb_any_key(), b in arb_any_key()) {
        let (ra, rb) = (Row(vec![a]), Row(vec![b]));
        if ra.0[0] == rb.0[0] {
            prop_assert_eq!(ra.hash_key(&[0]), rb.hash_key(&[0]));
        }
    }

    /// Partition routing agrees across layers: the storage/topology route
    /// (`partition_of_hash` + primary placement) and the exchange route
    /// (`Assignment::site_for_hash`) send every key to the same site when
    /// all sites are live — both feed off the same `Row::hash_key`.
    #[test]
    fn routing_consistent_across_layers(key in arb_any_key(), payload in -50i64..50) {
        let row = Row(vec![key, Datum::Int(payload)]);
        let h = row.hash_key(&[0]);
        let topo = Topology::with_partitions_per_site(4, 8);
        let assignment = topo.assignment(&FxHashSet::default()).unwrap();
        prop_assert_eq!(
            topo.site_of_partition(topo.partition_of_hash(h)),
            assignment.site_for_hash(h)
        );
    }
}

/// Deterministic cell constructor for the columnar properties: `ty` picks
/// the column's type (5 = mixed, exercising the `Any` fallback column) and
/// `bits` the value, with a 25% NULL rate so validity bitmaps are never
/// trivial. The shim proptest has no `prop_flat_map`, so tests generate raw
/// `(types, bits)` and build typed rows here.
fn cell(ty: u8, bits: u64) -> Datum {
    const WORDS: [&str; 6] = ["", "a", "order", "clerk#7", "línea", "Σφ"];
    if bits.is_multiple_of(4) {
        return Datum::Null;
    }
    match ty {
        0 => Datum::Int((bits % 2000) as i64 - 1000),
        1 => Datum::Double(((bits % 2000) as i64 - 1000) as f64 / 4.0),
        2 => Datum::Bool(bits & 1 == 1),
        3 => Datum::Date((bits % 9999) as i32),
        4 => Datum::str(WORDS[(bits % 6) as usize]),
        // Mixed column: per-row type. `| 1` keeps the value non-NULL so the
        // NULL rate stays at the top-level 25%.
        _ => cell((bits % 5) as u8, bits | 1),
    }
}

fn build_rows(types: &[u8], raw: &[Vec<u64>]) -> Vec<Row> {
    raw.iter()
        .map(|r| Row(types.iter().enumerate().map(|(c, &t)| cell(t, r[c])).collect()))
        .collect()
}

/// Indices selected by a boolean keep-mask, as a logical selection vector.
fn keep_list(keep: &[bool], n: usize) -> Vec<u32> {
    (0..n).filter(|&i| keep[i]).map(|i| i as u32).collect()
}

proptest! {
    /// Row→column→row identity over every column type (typed columns with
    /// validity bitmaps plus the mixed `Any` fallback), and through a
    /// selection view: `select_logical(keep)` must read back exactly the
    /// kept rows without disturbing the physical columns.
    #[test]
    fn columnar_row_round_trip(
        types in collection::vec(0u8..6, 1..5),
        raw in collection::vec(collection::vec(any::<u64>(), 6), 0..24),
        keep in collection::vec(any::<bool>(), 24),
    ) {
        let rows = build_rows(&types, &raw);
        let batch = ColumnBatch::from_rows(&rows);
        prop_assert_eq!(batch.num_rows(), rows.len());
        prop_assert_eq!(batch.to_rows(), rows.clone());

        let sel = keep_list(&keep, rows.len());
        let view = batch.select_logical(&sel);
        let expect: Vec<Row> =
            sel.iter().map(|&i| rows[i as usize].clone()).collect();
        prop_assert_eq!(view.to_rows(), expect);
        // Selection is a view: the physical rows are untouched.
        prop_assert_eq!(view.phys_rows(), rows.len());
    }

    /// `eval_filter_sel` over a (possibly already-selected) batch keeps
    /// exactly the rows the row-at-a-time `Expr::eval_filter` keeps, without
    /// materializing: the surviving batch still carries every physical row.
    #[test]
    fn filter_selection_matches_row_filter(
        rows in arb_rows(32),
        keep in collection::vec(any::<bool>(), 32),
        opc in 0u8..6,
        c in 0usize..2,
        k in -3i64..5,
        shape in 0u8..3,
    ) {
        let ops = [BinOp::Eq, BinOp::Ne, BinOp::Lt, BinOp::Le, BinOp::Gt, BinOp::Ge];
        let cmp = Expr::binary(ops[opc as usize], Expr::col(c), Expr::lit(Datum::Int(k)));
        let other = Expr::binary(BinOp::Ge, Expr::col(1), Expr::lit(Datum::Int(0)));
        let pred = match shape {
            0 => cmp,
            1 => Expr::and(cmp, other),
            _ => Expr::or(cmp, other),
        };

        // `from_rows` on an empty slice has no arity for `Expr::col` to see.
        if rows.is_empty() {
            return Ok(());
        }
        // Stack the filter on top of an existing selection so composed
        // selection vectors are exercised, not just the dense case.
        let sel = keep_list(&keep, rows.len());
        let view = ColumnBatch::from_rows(&rows).select_logical(&sel);

        let pass = eval_filter_sel(&pred, &view).unwrap();
        let filtered = view.select_logical(&pass);

        let expect: Vec<Row> = sel
            .iter()
            .map(|&i| rows[i as usize].clone())
            .filter(|r| pred.eval_filter(r).unwrap())
            .collect();
        prop_assert_eq!(filtered.to_rows(), expect);
        prop_assert_eq!(filtered.phys_rows(), rows.len());
    }

    /// `ColGroupTable` over validity-masked columns and a selection view ≡ a
    /// row-at-a-time reference that groups by datum equality and feeds the
    /// same `Accumulator`s: NULL values must be skipped (except COUNT(*)),
    /// NULL keys must group together, and masked-out rows must not leak in.
    #[test]
    fn masked_agg_matches_row_reference(
        kt in 0u8..5,
        vt in 0u8..2,
        raw in collection::vec(collection::vec(any::<u64>(), 6), 0..32),
        keep in collection::vec(any::<bool>(), 32),
    ) {
        // Key column over every type; value column numeric (Int/Double) so
        // SUM is well-typed, as the binder guarantees for real plans.
        let rows = build_rows(&[kt, vt], &raw);
        if rows.is_empty() {
            return Ok(());
        }
        let aggs = vec![
            AggCall { func: AggFunc::Sum, arg: Some(Expr::col(1)), name: "s".into() },
            AggCall { func: AggFunc::Min, arg: Some(Expr::col(1)), name: "m".into() },
            AggCall { func: AggFunc::CountStar, arg: None, name: "c".into() },
        ];

        let sel = keep_list(&keep, rows.len());
        let view = ColumnBatch::from_rows(&rows).select_logical(&sel);
        let mut table = ColGroupTable::new(vec![0], aggs.len());
        let mut slots = Vec::new();
        table.slots_for_batch(&view, &aggs, &mut slots);
        table.accumulate(0, view.col(1), view.selection(), &slots).unwrap();
        table.accumulate(1, view.col(1), view.selection(), &slots).unwrap();
        table.accumulate_count_star(2, &slots).unwrap();
        let mut got: Vec<Row> = Vec::new();
        for slot in 0..table.len() {
            let (key, accs) = table.take_group(slot);
            let mut out = key;
            out.extend(accs.iter().map(|a| a.finish()));
            got.push(Row(out));
        }

        let mut reference: Vec<(Datum, Vec<Accumulator>)> = Vec::new();
        for &i in &sel {
            let row = &rows[i as usize];
            let slot = match reference.iter().position(|(k, _)| *k == row.0[0]) {
                Some(s) => s,
                None => {
                    reference.push((
                        row.0[0].clone(),
                        aggs.iter().map(|a| Accumulator::new(a.func)).collect(),
                    ));
                    reference.len() - 1
                }
            };
            let accs = &mut reference[slot].1;
            accs[0].update(row.0[1].clone()).unwrap();
            accs[1].update(row.0[1].clone()).unwrap();
            accs[2].update(Datum::Int(1)).unwrap();
        }
        let expect: Vec<Row> = reference
            .into_iter()
            .map(|(k, accs)| {
                let mut out = vec![k];
                out.extend(accs.iter().map(|a| a.finish()));
                Row(out)
            })
            .collect();
        prop_assert_eq!(canon(got), canon(expect));
    }

    /// Column-contiguous wire framing is lossless and exactly sized: for any
    /// batch — every column type, NULLs, and a selection view — the encoding
    /// is `wire_size()` bytes, decodes to the same logical rows, and the
    /// decode is dense (selection resolved at the sender).
    #[test]
    fn wire_encode_decode_identity(
        types in collection::vec(0u8..6, 1..5),
        raw in collection::vec(collection::vec(any::<u64>(), 6), 0..24),
        keep in collection::vec(any::<bool>(), 24),
    ) {
        use ic_net::wire::{decode_columns, encode_columns};
        use ic_net::WireSize;

        let rows = build_rows(&types, &raw);
        let sel = keep_list(&keep, rows.len());
        let view = ColumnBatch::from_rows(&rows).select_logical(&sel);

        let enc = encode_columns(&view);
        prop_assert_eq!(enc.len(), view.wire_size());
        let dec = decode_columns(&enc).unwrap();
        prop_assert_eq!(dec.to_rows(), view.to_rows());
        prop_assert_eq!(dec.phys_rows(), view.num_rows());
    }

    /// The vectorized key hasher agrees with `Row::hash_key` on every
    /// logical row — the contract that lets the exchange route columnar
    /// batches and the probe side hash its own columns while storage
    /// partitioning keeps hashing rows.
    #[test]
    fn batch_hash_keys_match_row_hash(
        keys in collection::vec((arb_any_key(), -20i64..20), 0..32),
        keep in collection::vec(any::<bool>(), 32),
    ) {
        let rows: Vec<Row> =
            keys.into_iter().map(|(k, v)| Row(vec![k, Datum::Int(v)])).collect();
        if rows.is_empty() {
            return Ok(());
        }
        let sel = keep_list(&keep, rows.len());
        let view = ColumnBatch::from_rows(&rows).select_logical(&sel);
        for cols in [vec![0usize], vec![1], vec![0, 1]] {
            let hashes = view.hash_keys(&cols);
            prop_assert_eq!(hashes.len(), view.num_rows());
            for (k, &i) in sel.iter().enumerate() {
                prop_assert_eq!(hashes[k], rows[i as usize].hash_key(&cols));
            }
        }
    }
}

/// Pinned `Row::hash_key` values. Every layer that routes by hash — the
/// planner's distribution pruning, storage partitioning and the executor's
/// exchange/probe paths — shares this function; if its output drifts on any
/// side (a hasher tweak, a Datum canonicalization change) partitioned data
/// silently lands on the wrong site. Update these constants only with a
/// full-cluster data reload story.
#[test]
fn hash_key_values_are_pinned() {
    let cases: &[(Row, Vec<usize>, u64)] = &[
        (Row(vec![Datum::Int(0)]), vec![0], 9160104880031970547),
        (Row(vec![Datum::Int(42)]), vec![0], 15396849362009593539),
        (Row(vec![Datum::Double(42.0)]), vec![0], 15396849362009593539),
        (Row(vec![Datum::Date(42)]), vec![0], 15396849362009593539),
        (Row(vec![Datum::Null]), vec![0], 0),
        (Row(vec![Datum::Bool(true)]), vec![0], 17266848991485191722),
        (Row(vec![Datum::str("ORDERS")]), vec![0], 252917637784019938),
        (Row(vec![Datum::str("")]), vec![0], 7974167614923963878),
        (
            Row(vec![Datum::Int(7), Datum::str("line"), Datum::Double(0.25)]),
            vec![0, 1, 2],
            12269095741450630524,
        ),
        (Row(vec![Datum::Int(7), Datum::Int(9)]), vec![1], 14880668543911939867),
    ];
    for (row, cols, expected) in cases {
        assert_eq!(
            row.hash_key(cols),
            *expected,
            "hash_key changed for {row:?} over columns {cols:?}"
        );
    }
}
