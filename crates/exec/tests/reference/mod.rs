//! Row-at-a-time reference operators for the exec property tests. They
//! share no code with the operators under test: joins are a double loop
//! over `Row::concat` and the scalar `Expr::eval_filter`, aggregates a
//! `BTreeMap` group fold over `Accumulator`s.

use ic_common::agg::Accumulator;
use ic_common::{Datum, Expr, Row};
use ic_plan::ops::{AggCall, AggPhase, JoinKind};
use std::collections::BTreeMap;

/// Row-at-a-time join reference, independent of the operators' shared
/// emission code: every `(left, right)` pair concatenated and tested with
/// the scalar `Expr::eval_filter`, in left-then-right order.
pub fn ref_join(l: &[Row], r: &[Row], kind: JoinKind, on: &Expr, right_arity: usize) -> Vec<Row> {
    let mut out = Vec::new();
    for lrow in l {
        let matches: Vec<Row> = r
            .iter()
            .map(|rrow| lrow.concat(rrow))
            .filter(|joined| on.eval_filter(joined).unwrap())
            .collect();
        match kind {
            JoinKind::Inner => out.extend(matches),
            JoinKind::Left if matches.is_empty() => {
                out.push(lrow.concat(&Row(vec![Datum::Null; right_arity])));
            }
            JoinKind::Left => out.extend(matches),
            JoinKind::Semi if !matches.is_empty() => out.push(lrow.clone()),
            JoinKind::Anti if matches.is_empty() => out.push(lrow.clone()),
            JoinKind::Semi | JoinKind::Anti => {}
        }
    }
    out
}

/// Row-at-a-time aggregate reference: a `BTreeMap` fold over
/// `Accumulator`s, groups in key order (NULL first).
pub fn ref_agg(data: &[Row], group: &[usize], aggs: &[AggCall], phase: AggPhase) -> Vec<Row> {
    let mut groups: BTreeMap<Vec<Datum>, Vec<Accumulator>> = BTreeMap::new();
    for row in data {
        let key: Vec<Datum> = group.iter().map(|&c| row.0[c].clone()).collect();
        let accs = groups
            .entry(key)
            .or_insert_with(|| aggs.iter().map(|a| Accumulator::new(a.func)).collect());
        for (acc, call) in accs.iter_mut().zip(aggs) {
            let v = call.arg.as_ref().map_or(Ok(Datum::Int(1)), |e| e.eval(row)).unwrap();
            acc.update(v).unwrap();
        }
    }
    if group.is_empty() && groups.is_empty() {
        groups.insert(vec![], aggs.iter().map(|a| Accumulator::new(a.func)).collect());
    }
    groups
        .into_iter()
        .map(|(mut key, accs)| {
            for acc in &accs {
                match phase {
                    AggPhase::Partial => key.extend(acc.to_state()),
                    _ => key.push(acc.finish()),
                }
            }
            Row(key)
        })
        .collect()
}
