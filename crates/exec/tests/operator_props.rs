//! Property tests for the physical operators: the three join algorithms
//! agree with a row-at-a-time reference on every join kind, distributed
//! aggregation equals single-site aggregation, and sort/limit obey their
//! contracts. A deterministic test drives the merge join, sort aggregate
//! and nested-loop join across batch boundaries.

mod reference;

use ic_common::agg::AggFunc;
use ic_common::row::BATCH_SIZE;
use ic_common::{BinOp, Datum, Expr, Row};
use ic_exec::operators::{
    drain, BoxedSource, ControlBlock, HashAggExec, HashJoinExec, LimitExec, MergeJoinExec,
    NestedLoopJoinExec, RowSource, SortAggExec, SortExec, VecSource,
};
use ic_plan::ops::{AggCall, AggPhase, JoinKind, SortKey};
use proptest::prelude::*;
use reference::{ref_agg, ref_join};

fn rows(keys: &[(i64, i64)]) -> Vec<Row> {
    keys.iter().map(|&(k, v)| Row(vec![Datum::Int(k), Datum::Int(v)])).collect()
}

fn src(data: Vec<Row>) -> BoxedSource {
    Box::new(VecSource::new(data))
}

fn canon(mut v: Vec<Row>) -> Vec<Row> {
    v.sort();
    v
}

#[allow(clippy::type_complexity)]
fn join_inputs() -> impl Strategy<Value = (Vec<(i64, i64)>, Vec<(i64, i64)>)> {
    (
        proptest::collection::vec((0i64..8, -20i64..20), 0..40),
        proptest::collection::vec((0i64..8, -20i64..20), 0..40),
    )
}

fn run_nlj(l: &[(i64, i64)], r: &[(i64, i64)], kind: JoinKind) -> Vec<Row> {
    let on = Expr::eq(Expr::col(0), Expr::col(2));
    let j = NestedLoopJoinExec::new(src(rows(l)), src(rows(r)), kind, on, 2, ControlBlock::new(None, 0));
    canon(drain(Box::new(j)).unwrap())
}

fn run_hash(l: &[(i64, i64)], r: &[(i64, i64)], kind: JoinKind) -> Vec<Row> {
    let j = HashJoinExec::new(
        src(rows(l)),
        src(rows(r)),
        kind,
        vec![0],
        vec![0],
        Expr::lit(true),
        2,
        ControlBlock::new(None, 0),
    );
    canon(drain(Box::new(j)).unwrap())
}

fn run_merge(l: &[(i64, i64)], r: &[(i64, i64)], kind: JoinKind) -> Vec<Row> {
    let mut ls = rows(l);
    let mut rs = rows(r);
    ls.sort_by_key(|r| r.0[0].as_int().unwrap());
    rs.sort_by_key(|r| r.0[0].as_int().unwrap());
    let j = MergeJoinExec::new(
        src(ls),
        src(rs),
        kind,
        vec![0],
        vec![0],
        Expr::lit(true),
        2,
        ControlBlock::new(None, 0),
    );
    canon(drain(Box::new(j)).unwrap())
}

proptest! {
    /// Hash join, nested-loop join and merge join each equal the row
    /// reference, for every join kind.
    #[test]
    fn join_algorithms_agree((l, r) in join_inputs()) {
        let on = Expr::eq(Expr::col(0), Expr::col(2));
        for kind in [JoinKind::Inner, JoinKind::Left, JoinKind::Semi, JoinKind::Anti] {
            let expected = canon(ref_join(&rows(&l), &rows(&r), kind, &on, 2));
            prop_assert_eq!(&run_nlj(&l, &r, kind), &expected, "nlj, {:?}", kind);
            prop_assert_eq!(&run_hash(&l, &r, kind), &expected, "hash, {:?}", kind);
            prop_assert_eq!(&run_merge(&l, &r, kind), &expected, "merge, {:?}", kind);
        }
    }

    /// Joins with a residual predicate: hash, merge and nested-loop each
    /// equal the row reference.
    #[test]
    fn residual_joins_agree((l, r) in join_inputs()) {
        let residual = Expr::binary(BinOp::Gt, Expr::col(1), Expr::col(3));
        let on = Expr::and(Expr::eq(Expr::col(0), Expr::col(2)), residual.clone());
        let (mut ls, mut rs) = (rows(&l), rows(&r));
        for kind in [JoinKind::Inner, JoinKind::Left, JoinKind::Semi, JoinKind::Anti] {
            let expected = canon(ref_join(&ls, &rs, kind, &on, 2));
            let nlj = NestedLoopJoinExec::new(
                src(ls.clone()), src(rs.clone()), kind, on.clone(), 2, ControlBlock::new(None, 0));
            let hj = HashJoinExec::new(
                src(ls.clone()), src(rs.clone()), kind, vec![0], vec![0],
                residual.clone(), 2, ControlBlock::new(None, 0));
            // Merge join needs both sides sorted on the key.
            ls.sort();
            rs.sort();
            let mj = MergeJoinExec::new(
                src(ls.clone()), src(rs.clone()), kind, vec![0], vec![0],
                residual.clone(), 2, ControlBlock::new(None, 0));
            prop_assert_eq!(&canon(drain(Box::new(nlj)).unwrap()), &expected, "nlj, {:?}", kind);
            prop_assert_eq!(&canon(drain(Box::new(hj)).unwrap()), &expected, "hash, {:?}", kind);
            prop_assert_eq!(&canon(drain(Box::new(mj)).unwrap()), &expected, "merge, {:?}", kind);
        }
    }

    /// Partial-per-partition + final ≡ complete, for any partitioning of
    /// the input (the §3.2 map-reduce aggregation invariant the §5.3
    /// variant fragments also rely on).
    #[test]
    fn distributed_aggregation_invariant(
        data in proptest::collection::vec((0i64..6, -50i64..50), 0..80),
        parts in 1usize..5,
    ) {
        let aggs = vec![
            AggCall { func: AggFunc::Sum, arg: Some(Expr::col(1)), name: "s".into() },
            AggCall { func: AggFunc::CountStar, arg: None, name: "c".into() },
            AggCall { func: AggFunc::Min, arg: Some(Expr::col(1)), name: "m".into() },
        ];
        let complete = HashAggExec::new(
            src(rows(&data)), vec![0], aggs.clone(), AggPhase::Complete,
            ControlBlock::new(None, 0));
        let expected = canon(drain(Box::new(complete)).unwrap());

        let mut partial_rows = Vec::new();
        for p in 0..parts {
            let slice: Vec<(i64, i64)> = data
                .iter()
                .enumerate()
                .filter(|(i, _)| i % parts == p)
                .map(|(_, kv)| *kv)
                .collect();
            let partial = HashAggExec::new(
                src(rows(&slice)), vec![0], aggs.clone(), AggPhase::Partial,
                ControlBlock::new(None, 0));
            partial_rows.extend(drain(Box::new(partial)).unwrap());
        }
        let fin = HashAggExec::new(
            src(partial_rows), vec![0], aggs.clone(), AggPhase::Final,
            ControlBlock::new(None, 0));
        let got = canon(drain(Box::new(fin)).unwrap());
        // Scalar groups: partials of empty slices still produce identity
        // rows; grouped aggregation over an empty slice produces nothing —
        // either way the merged result must equal the complete one.
        prop_assert_eq!(got, expected);
    }

    /// SortExec output equals std sort, for any mix of directions.
    #[test]
    fn sort_matches_std(data in proptest::collection::vec((-50i64..50, -50i64..50), 0..100),
                        desc0 in any::<bool>(), desc1 in any::<bool>()) {
        let keys = vec![SortKey { col: 0, desc: desc0 }, SortKey { col: 1, desc: desc1 }];
        let s = SortExec::new(src(rows(&data)), keys, ControlBlock::new(None, 0));
        let got = drain(Box::new(s)).unwrap();
        let mut expected = rows(&data);
        expected.sort_by(|a, b| {
            let o = a.0[0].cmp(&b.0[0]);
            let o = if desc0 { o.reverse() } else { o };
            o.then_with(|| {
                let o = a.0[1].cmp(&b.0[1]);
                if desc1 { o.reverse() } else { o }
            })
        });
        prop_assert_eq!(got, expected);
    }

    /// Limit with offset returns exactly the requested window.
    #[test]
    fn limit_window(n in 0usize..60, offset in 0u64..30, fetch in 0u64..30) {
        let data: Vec<(i64, i64)> = (0..n as i64).map(|i| (i, i)).collect();
        let l = LimitExec::new(src(rows(&data)), Some(fetch), offset, ControlBlock::new(None, 0));
        let got = drain(Box::new(l)).unwrap();
        let expected: Vec<Row> = rows(&data)
            .into_iter()
            .skip(offset as usize)
            .take(fetch as usize)
            .collect();
        prop_assert_eq!(got, expected);
    }
}

/// Pull every batch of `op`, asserting none exceeds `max_rows`.
fn drain_bounded(mut op: impl RowSource, max_rows: usize) -> Vec<Row> {
    let mut out = Vec::new();
    while let Some(b) = op.next_batch().unwrap() {
        assert!(b.num_rows() <= max_rows, "output batch of {} rows > {max_rows}", b.num_rows());
        out.extend(b.to_rows());
    }
    out
}

/// More than `BATCH_SIZE` rows through the three formerly row-internal
/// operators: a merge-join key group and a sort-aggregate group straddle
/// the input batch boundary, NULL keys sit on both sides, and a
/// nested-loop join's right side is larger than one batch.
#[test]
fn batch_boundaries_match_reference() {
    let key_row = |k: Option<i64>, v: i64| {
        Row(vec![k.map_or(Datum::Null, Datum::Int), Datum::Int(v)])
    };
    // Left: 10 NULL keys, then keys 0..22 in runs of 50 (rows 1010..1060
    // share key 20, across the 1024-row batch boundary).
    let left: Vec<Row> = (0..10)
        .map(|i| key_row(None, i))
        .chain((0..1100).map(|i| key_row(Some(i / 50), i % 7)))
        .collect();
    // Right: 6 NULL keys, then 65 rows per key for keys 0..22 except every
    // fourth — 1 111 rows, so the arena spans two input batches.
    let right: Vec<Row> = (0..6)
        .map(|i| key_row(None, i))
        .chain((0..22).filter(|k| k % 4 != 3).flat_map(|k| (0..65).map(move |v| key_row(Some(k), v % 9))))
        .collect();
    assert!(left.len() > BATCH_SIZE && right.len() > BATCH_SIZE);
    let residual = Expr::binary(BinOp::Gt, Expr::col(1), Expr::col(3));
    for (res, on) in [
        (Expr::lit(true), Expr::eq(Expr::col(0), Expr::col(2))),
        (residual.clone(), Expr::and(Expr::eq(Expr::col(0), Expr::col(2)), residual)),
    ] {
        for kind in [JoinKind::Inner, JoinKind::Left, JoinKind::Semi, JoinKind::Anti] {
            let mj = MergeJoinExec::new(
                src(left.clone()), src(right.clone()), kind, vec![0], vec![0], res.clone(), 2,
                ControlBlock::new(None, 0));
            // Merge join keeps left order: compare exactly, not as multisets.
            assert_eq!(
                drain(Box::new(mj)).unwrap(),
                ref_join(&left, &right, kind, &on, 2),
                "merge {kind:?} residual={res:?}"
            );
        }
    }

    // Sort aggregate over the sorted left side: the NULL group first, and
    // key 20's group straddling the batch boundary.
    let aggs = vec![
        AggCall { func: AggFunc::Sum, arg: Some(Expr::col(1)), name: "s".into() },
        AggCall { func: AggFunc::CountStar, arg: None, name: "c".into() },
        AggCall { func: AggFunc::Min, arg: Some(Expr::col(1)), name: "m".into() },
    ];
    for phase in [AggPhase::Complete, AggPhase::Partial] {
        let agg = SortAggExec::new(src(left.clone()), vec![0], aggs.clone(), phase, ControlBlock::new(None, 0));
        assert_eq!(drain(Box::new(agg)).unwrap(), ref_agg(&left, &[0], &aggs, phase), "{phase:?}");
    }

    // Nested-loop join whose right side exceeds one batch: a non-equi
    // condition with high fan-out; no output batch may exceed
    // max(BATCH_SIZE, right rows).
    let on = Expr::binary(BinOp::Ge, Expr::col(1), Expr::col(3));
    let probe = &left[..40];
    for kind in [JoinKind::Inner, JoinKind::Left, JoinKind::Semi, JoinKind::Anti] {
        let nlj = NestedLoopJoinExec::new(
            src(probe.to_vec()), src(right.clone()), kind, on.clone(), 2, ControlBlock::new(None, 0));
        let got = drain_bounded(nlj, BATCH_SIZE.max(right.len()));
        assert_eq!(got, ref_join(probe, &right, kind, &on, 2), "nlj {kind:?}");
    }
}
