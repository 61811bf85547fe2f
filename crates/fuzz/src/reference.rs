//! Independent reference evaluator — oracle 2's "naive operators" side.
//!
//! Evaluates a bound [`LogicalPlan`] row-at-a-time over the catalog's full
//! row sets, sharing *no* code with the execution engine beyond the scalar
//! [`Expr::eval`] kernel and the [`Accumulator`] state machines (which the
//! per-operator tests already pin down independently). Joins are
//! nested-loop, aggregation is a [`BTreeMap`] over materialized group
//! keys, sorting is a stable sort on the [`Datum`] total order — the
//! simplest possible semantics, deliberately unlike the engine's hash
//! joins, two-phase aggregates, and distributed fragments.
//!
//! A cumulative row budget caps intermediate materialization so a
//! generated cross-product cannot wedge the fuzzer; blowing it returns
//! [`IcError::MemoryLimit`], which the oracle treats as "reference
//! unavailable" rather than a disagreement.

use ic_common::agg::Accumulator;
use ic_common::{Datum, IcError, IcResult, Row};
use ic_plan::ops::{JoinKind, LogicalPlan, RelOp};
use ic_storage::Catalog;
use std::collections::BTreeMap;

/// Default cumulative row budget (rows materialized across all operators).
pub const DEFAULT_ROW_BUDGET: u64 = 3_000_000;

/// Evaluate `plan` against the base tables in `catalog`.
pub fn eval_plan(plan: &LogicalPlan, catalog: &Catalog) -> IcResult<Vec<Row>> {
    let mut r = Reference { catalog, remaining: DEFAULT_ROW_BUDGET };
    r.rows(plan)
}

struct Reference<'a> {
    catalog: &'a Catalog,
    remaining: u64,
}

/// Collect `(left_col, right_col)` pairs from `Col = Col` conjuncts of a
/// join condition, with `left_col` below and `right_col` at/above the
/// left input's arity.
fn equi_key_cols(on: &ic_common::Expr, left_arity: usize) -> Vec<(usize, usize)> {
    use ic_common::{BinOp, Expr};
    fn walk(e: &Expr, left_arity: usize, out: &mut Vec<(usize, usize)>) {
        match e {
            Expr::Binary { op: BinOp::And, left, right } => {
                walk(left, left_arity, out);
                walk(right, left_arity, out);
            }
            Expr::Binary { op: BinOp::Eq, left, right } => {
                if let (Expr::Col(a), Expr::Col(b)) = (left.as_ref(), right.as_ref()) {
                    if *a < left_arity && *b >= left_arity {
                        out.push((*a, *b));
                    } else if *b < left_arity && *a >= left_arity {
                        out.push((*b, *a));
                    }
                }
            }
            _ => {}
        }
    }
    let mut out = Vec::new();
    walk(on, left_arity, &mut out);
    out
}

impl Reference<'_> {
    fn charge(&mut self, n: usize) -> IcResult<()> {
        let n = n as u64;
        if self.remaining < n {
            return Err(IcError::MemoryLimit { limit_rows: DEFAULT_ROW_BUDGET });
        }
        self.remaining -= n;
        Ok(())
    }

    fn rows(&mut self, plan: &LogicalPlan) -> IcResult<Vec<Row>> {
        match &plan.op {
            RelOp::Scan { table, name, .. } => {
                let data = self.catalog.table_data(*table).ok_or_else(|| {
                    IcError::Internal(format!("reference: no data for table '{name}'"))
                })?;
                let rows = data.to_rows();
                self.charge(rows.len())?;
                Ok(rows)
            }
            RelOp::Values { rows, .. } => {
                self.charge(rows.len())?;
                Ok(rows.clone())
            }
            RelOp::Filter { input, predicate } => {
                let mut out = Vec::new();
                for row in self.rows(input)? {
                    if predicate.eval_filter(&row)? {
                        out.push(row);
                    }
                }
                self.charge(out.len())?;
                Ok(out)
            }
            RelOp::Project { input, exprs, .. } => {
                let mut out = Vec::new();
                for row in self.rows(input)? {
                    let mut vals = Vec::with_capacity(exprs.len());
                    for e in exprs {
                        vals.push(e.eval(&row)?);
                    }
                    out.push(Row(vals));
                }
                self.charge(out.len())?;
                Ok(out)
            }
            RelOp::Join { left, right, kind, on, .. } => {
                let lrows = self.rows(left)?;
                let rrows = self.rows(right)?;
                let left_arity = left.schema.fields().len();
                let right_arity = right.schema.fields().len();
                // Index the right side on any `Col = Col` equi-conjuncts so
                // a candidate list replaces the full O(n²) inner loop. Every
                // candidate is still checked against the complete `on`
                // predicate row-at-a-time, so the index only prunes pairs
                // the predicate would reject anyway (the Datum total order
                // collates cross-type numeric equals together, and NULL
                // keys are rejected by the predicate re-check).
                let keys = equi_key_cols(on, left_arity);
                let mut index: BTreeMap<Vec<Datum>, Vec<usize>> = BTreeMap::new();
                if !keys.is_empty() {
                    for (ri, rrow) in rrows.iter().enumerate() {
                        let k: Vec<Datum> = keys
                            .iter()
                            .map(|&(_, rc)| rrow.0[rc - left_arity].clone())
                            .collect();
                        index.entry(k).or_default().push(ri);
                    }
                }
                let all: Vec<usize> = (0..rrows.len()).collect();
                let mut out = Vec::new();
                for lrow in &lrows {
                    let candidates: &[usize] = if keys.is_empty() {
                        &all
                    } else {
                        let k: Vec<Datum> =
                            keys.iter().map(|&(lc, _)| lrow.0[lc].clone()).collect();
                        index.get(&k).map(|v| v.as_slice()).unwrap_or(&[])
                    };
                    let mut matched = false;
                    for &ri in candidates {
                        let rrow = &rrows[ri];
                        let mut joined = lrow.0.clone();
                        joined.extend(rrow.0.iter().cloned());
                        let joined = Row(joined);
                        if on.eval_filter(&joined)? {
                            matched = true;
                            match kind {
                                JoinKind::Inner | JoinKind::Left => {
                                    self.charge(1)?;
                                    out.push(joined);
                                }
                                // Semi emits the left row once on first
                                // match; Anti emits only on zero matches.
                                JoinKind::Semi => break,
                                JoinKind::Anti => break,
                            }
                        }
                    }
                    match kind {
                        JoinKind::Left if !matched => {
                            let mut padded = lrow.0.clone();
                            padded.extend((0..right_arity).map(|_| Datum::Null));
                            self.charge(1)?;
                            out.push(Row(padded));
                        }
                        JoinKind::Semi if matched => {
                            self.charge(1)?;
                            out.push(lrow.clone());
                        }
                        JoinKind::Anti if !matched => {
                            self.charge(1)?;
                            out.push(lrow.clone());
                        }
                        _ => {}
                    }
                }
                Ok(out)
            }
            RelOp::Aggregate { input, group, aggs } => {
                let in_rows = self.rows(input)?;
                let mut groups: BTreeMap<Vec<Datum>, Vec<Accumulator>> = BTreeMap::new();
                for row in &in_rows {
                    let key: Vec<Datum> =
                        group.iter().map(|&g| row.0[g].clone()).collect();
                    let accs = groups.entry(key).or_insert_with(|| {
                        aggs.iter().map(|a| Accumulator::new(a.func)).collect()
                    });
                    for (acc, call) in accs.iter_mut().zip(aggs) {
                        let v = match &call.arg {
                            Some(e) => e.eval(row)?,
                            None => Datum::Int(1), // COUNT(*)
                        };
                        acc.update(v)?;
                    }
                }
                // Global aggregate over empty input still emits one row
                // (COUNT(*) = 0, SUM = NULL, ...).
                if groups.is_empty() && group.is_empty() {
                    groups.insert(
                        Vec::new(),
                        aggs.iter().map(|a| Accumulator::new(a.func)).collect(),
                    );
                }
                let mut out = Vec::new();
                for (key, accs) in groups {
                    let mut vals = key;
                    vals.extend(accs.iter().map(|a| a.finish()));
                    out.push(Row(vals));
                }
                self.charge(out.len())?;
                Ok(out)
            }
            RelOp::Sort { input, keys } => {
                let mut rows = self.rows(input)?;
                rows.sort_by(|a, b| {
                    for k in keys {
                        let ord = a.0[k.col].cmp(&b.0[k.col]);
                        let ord = if k.desc { ord.reverse() } else { ord };
                        if !ord.is_eq() {
                            return ord;
                        }
                    }
                    std::cmp::Ordering::Equal
                });
                Ok(rows)
            }
            RelOp::Limit { input, fetch, offset } => {
                let rows = self.rows(input)?;
                let it = rows.into_iter().skip(*offset as usize);
                Ok(match fetch {
                    Some(n) => it.take(*n as usize).collect(),
                    None => it.collect(),
                })
            }
        }
    }
}
