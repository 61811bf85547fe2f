//! Output checks: canonical result sets, the stored expected results of the
//! default seed, and the 1-site reference cluster used for every other
//! seed.

use ic_common::{Datum, Row};
use ic_core::{Cluster, ClusterConfig, NetworkConfig, SystemVariant};
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;

/// A result set in canonical order: rows sorted by their rendered values,
/// so plans that emit the same rows in another order compare equal.
#[derive(Debug, Clone, PartialEq)]
pub struct Canon(pub Vec<Row>);

fn sort_key(r: &Row) -> String {
    r.0.iter()
        .map(|d| match d {
            Datum::Double(f) => format!("{f:.6}"),
            other => other.to_string(),
        })
        .collect::<Vec<_>>()
        .join("|")
}

impl Canon {
    pub fn new(mut rows: Vec<Row>) -> Canon {
        rows.sort_by_cached_key(sort_key);
        Canon(rows)
    }

    /// Compare with another result set. Doubles match within a relative
    /// 1e-6, since plans sum in different orders; every other value must be
    /// equal. Returns the first difference.
    pub fn diff(&self, other: &Canon) -> Result<(), String> {
        if self.0.len() != other.0.len() {
            return Err(format!(
                "{} rows vs {} expected",
                self.0.len(),
                other.0.len()
            ));
        }
        for (a, b) in self.0.iter().zip(&other.0) {
            if a.0.len() != b.0.len() {
                return Err(format!(
                    "arity {} vs {}: {a:?} / {b:?}",
                    a.0.len(),
                    b.0.len()
                ));
            }
            for (x, y) in a.0.iter().zip(&b.0) {
                let same = match (x, y) {
                    (Datum::Double(x), Datum::Double(y)) => {
                        (x - y).abs() <= 1e-6 * x.abs().max(y.abs()).max(1.0)
                    }
                    _ => x == y,
                };
                if !same {
                    return Err(format!("{a:?} vs expected {b:?}"));
                }
            }
        }
        Ok(())
    }
}

/// The ORDER BY keys of TPC-H query `q` as (output column, descending).
/// Empty for queries without ORDER BY.
pub fn tpch_order_by(q: usize) -> &'static [(usize, bool)] {
    const ASC: bool = false;
    const DESC: bool = true;
    match q {
        1 => &[(0, ASC), (1, ASC)],
        2 => &[(0, DESC), (2, ASC), (1, ASC), (3, ASC)],
        3 => &[(1, DESC), (2, ASC)],
        4 | 8 | 12 | 22 => &[(0, ASC)],
        5 | 11 => &[(1, DESC)],
        7 => &[(0, ASC), (1, ASC), (2, ASC)],
        9 => &[(0, ASC), (1, DESC)],
        10 => &[(2, DESC)],
        13 => &[(1, DESC), (0, DESC)],
        16 => &[(3, DESC), (0, ASC), (1, ASC), (2, ASC)],
        18 => &[(4, DESC), (3, ASC)],
        21 => &[(1, DESC), (0, ASC)],
        _ => &[],
    }
}

/// Check that `rows` are in the order `keys` asks for. Rows that tie on
/// every key may come in any order. Returns the first pair out of order.
pub fn order_violation(keys: &[(usize, bool)], rows: &[Row]) -> Option<String> {
    let cmp = |a: &Row, b: &Row| {
        keys.iter()
            .map(|&(i, desc)| {
                let o = a.0[i].cmp(&b.0[i]);
                if desc {
                    o.reverse()
                } else {
                    o
                }
            })
            .find(|o| *o != Ordering::Equal)
            .unwrap_or(Ordering::Equal)
    };
    rows.windows(2).enumerate().find_map(|(i, w)| {
        (cmp(&w[0], &w[1]) == Ordering::Greater).then(|| {
            format!(
                "rows {i} and {} out of ORDER BY order: {:?} before {:?}",
                i + 1,
                w[0],
                w[1]
            )
        })
    })
}

/// The 20 TPC-H queries the engine supports (Q15 and Q20 are excluded).
pub fn tpch_queries() -> Vec<usize> {
    (1..=22)
        .filter(|q| !ic_benchdata::tpch::EXCLUDED_UNSUPPORTED.contains(q))
        .collect()
}

/// The Table 3 AQL set: the supported queries minus the six that fail on
/// the baseline planner.
pub fn aql_queries() -> Vec<usize> {
    tpch_queries()
        .into_iter()
        .filter(|q| !ic_benchdata::tpch::EXCLUDED_BASELINE_FAILING.contains(q))
        .collect()
}

fn encode_datum(out: &mut String, d: &Datum) {
    match d {
        Datum::Null => out.push('n'),
        Datum::Bool(b) => {
            let _ = write!(out, "b:{b}");
        }
        Datum::Int(i) => {
            let _ = write!(out, "i:{i}");
        }
        Datum::Double(f) => {
            let _ = write!(out, "d:{f:?}");
        }
        Datum::Date(d) => {
            let _ = write!(out, "t:{d}");
        }
        Datum::Str(s) => {
            out.push_str("s:");
            for c in s.chars() {
                match c {
                    '\\' => out.push_str("\\\\"),
                    '\t' => out.push_str("\\t"),
                    '\n' => out.push_str("\\n"),
                    c => out.push(c),
                }
            }
        }
    }
}

fn decode_datum(field: &str) -> Result<Datum, String> {
    let bad = || format!("bad value `{field}`");
    if field == "n" {
        return Ok(Datum::Null);
    }
    let (tag, body) = field.split_once(':').ok_or_else(bad)?;
    Ok(match tag {
        "b" => Datum::Bool(body.parse().map_err(|_| bad())?),
        "i" => Datum::Int(body.parse().map_err(|_| bad())?),
        "d" => Datum::Double(body.parse().map_err(|_| bad())?),
        "t" => Datum::Date(body.parse().map_err(|_| bad())?),
        "s" => {
            let mut s = String::with_capacity(body.len());
            let mut chars = body.chars();
            while let Some(c) = chars.next() {
                if c != '\\' {
                    s.push(c);
                    continue;
                }
                match chars.next() {
                    Some('\\') => s.push('\\'),
                    Some('t') => s.push('\t'),
                    Some('n') => s.push('\n'),
                    _ => return Err(bad()),
                }
            }
            Datum::str(s)
        }
        _ => return Err(bad()),
    })
}

/// Render expected results: a `Q<n> <rows>` header per query, then one
/// tab-separated line of tagged values per row.
pub fn encode_expected(header: &str, results: &BTreeMap<usize, Canon>) -> String {
    let mut out = String::new();
    for line in header.lines() {
        let _ = writeln!(out, "# {line}");
    }
    for (q, canon) in results {
        let _ = writeln!(out, "Q{q} {}", canon.0.len());
        for row in &canon.0 {
            for (i, d) in row.0.iter().enumerate() {
                if i > 0 {
                    out.push('\t');
                }
                encode_datum(&mut out, d);
            }
            out.push('\n');
        }
    }
    out
}

/// Parse the format written by [`encode_expected`].
pub fn decode_expected(text: &str) -> Result<BTreeMap<usize, Canon>, String> {
    let mut results = BTreeMap::new();
    let mut lines = text.lines().filter(|l| !l.starts_with('#'));
    while let Some(header) = lines.next() {
        let (q, n) = header
            .strip_prefix('Q')
            .and_then(|h| h.split_once(' '))
            .ok_or_else(|| format!("bad header `{header}`"))?;
        let q: usize = q
            .parse()
            .map_err(|_| format!("bad query number `{header}`"))?;
        let n: usize = n.parse().map_err(|_| format!("bad row count `{header}`"))?;
        let mut rows = Vec::with_capacity(n);
        for _ in 0..n {
            let line = lines.next().ok_or_else(|| format!("Q{q}: truncated"))?;
            let row = if line.is_empty() {
                Vec::new()
            } else {
                line.split('\t')
                    .map(decode_datum)
                    .collect::<Result<_, _>>()?
            };
            rows.push(Row(row));
        }
        results.insert(q, Canon(rows));
    }
    Ok(results)
}

/// TPC-H rows at `sf` generated from `seed`, by table.
pub fn tpch_data(sf: f64, seed: u64) -> Vec<(&'static str, Vec<Row>)> {
    ic_benchdata::tpch::generate(sf, seed)
        .into_iter()
        .map(|t| (t.name, t.rows))
        .collect()
}

/// Create the TPC-H schema and indexes, insert `data` and analyze
/// (statistics enabled, as in the paper's configuration).
pub fn load_tpch(cluster: &Cluster, data: Vec<(&'static str, Vec<Row>)>) -> Result<(), String> {
    for ddl in ic_benchdata::tpch::DDL
        .iter()
        .chain(ic_benchdata::tpch::INDEX_DDL)
    {
        cluster.run(ddl).map_err(|e| e.to_string())?;
    }
    for (name, rows) in data {
        cluster.insert(name, rows).map_err(|e| e.to_string())?;
    }
    cluster.analyze_all().map_err(|e| e.to_string())
}

fn reference_config(sites: usize, variant: SystemVariant, worker_threads: usize) -> ClusterConfig {
    ClusterConfig {
        sites,
        variant,
        network: NetworkConfig::instant(),
        exec_timeout: Some(Duration::from_secs(120)),
        backups: 0,
        worker_threads,
        ..ClusterConfig::default()
    }
}

/// Results of `queries` on a 1-site, single-lane IC+ cluster loaded from
/// the same seed: the oracle for seeds without stored results.
pub fn reference_results(
    sf: f64,
    seed: u64,
    queries: &[usize],
) -> Result<BTreeMap<usize, Canon>, String> {
    let cluster = Cluster::new(reference_config(1, SystemVariant::ICPlus, 1));
    load_tpch(&cluster, tpch_data(sf, seed))?;
    queries
        .iter()
        .map(|&q| {
            let r = cluster
                .query(&ic_benchdata::tpch::query(q))
                .map_err(|e| format!("reference Q{q}: {e}"))?;
            Ok((q, Canon::new(r.rows)))
        })
        .collect()
}

/// Compute expected results for `queries` at (`sf`, `seed`) on a 4-site
/// cluster and require IC, IC+ and IC+M to agree. The baseline IC fails to
/// plan some queries (the paper's planning failures); those are checked on
/// IC+ and IC+M only, and reported in the returned notes.
pub fn cross_checked_results(
    sf: f64,
    seed: u64,
    queries: &[usize],
) -> Result<(BTreeMap<usize, Canon>, Vec<String>), String> {
    let ic = Cluster::new(reference_config(4, SystemVariant::IC, 1));
    load_tpch(&ic, tpch_data(sf, seed))?;
    let plus = ic.with_variant(SystemVariant::ICPlus);
    let plus_m = ic.with_variant(SystemVariant::ICPlusM);
    let mut results = BTreeMap::new();
    let mut notes = Vec::new();
    for &q in queries {
        let sql = ic_benchdata::tpch::query(q);
        let run = |c: &Cluster| c.query(&sql).map(|r| Canon::new(r.rows));
        let a = run(&plus).map_err(|e| format!("IC+ Q{q}: {e}"))?;
        let b = run(&plus_m).map_err(|e| format!("IC+M Q{q}: {e}"))?;
        b.diff(&a).map_err(|e| format!("Q{q}: IC+M vs IC+: {e}"))?;
        match run(&ic) {
            Ok(c) => c.diff(&a).map_err(|e| format!("Q{q}: IC vs IC+: {e}"))?,
            Err(e) => notes.push(format!(
                "Q{q}: IC did not finish ({e}); checked IC+ against IC+M"
            )),
        }
        results.insert(q, a);
    }
    Ok((results, notes))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expected_format_round_trips() {
        let rows = vec![
            Row(vec![
                Datum::Int(-3),
                Datum::Double(0.1 + 0.2),
                Datum::str("a\tb\\c\nd"),
            ]),
            Row(vec![Datum::Null, Datum::Bool(true), Datum::Date(9000)]),
            Row(vec![]),
        ];
        let mut m = BTreeMap::new();
        m.insert(7, Canon::new(rows));
        let text = encode_expected("header\nsecond", &m);
        let back = decode_expected(&text).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn diff_tolerates_summation_order_only() {
        let a = Canon::new(vec![Row(vec![Datum::Int(1), Datum::Double(1000.0)])]);
        let b = Canon::new(vec![Row(vec![Datum::Int(1), Datum::Double(1000.0 + 1e-9)])]);
        let c = Canon::new(vec![Row(vec![Datum::Int(1), Datum::Double(1000.1)])]);
        assert!(a.diff(&b).is_ok());
        assert!(a.diff(&c).is_err());
        assert!(a.diff(&Canon::new(vec![])).is_err());
    }

    fn q1_row(flag: &str, status: &str, n: i64) -> Row {
        Row(vec![Datum::str(flag), Datum::str(status), Datum::Int(n)])
    }

    #[test]
    fn order_by_keys_are_checked() {
        let keys = tpch_order_by(1);
        let sorted = vec![
            q1_row("A", "F", 3),
            q1_row("N", "F", 1),
            q1_row("N", "O", 2),
            q1_row("R", "F", 4),
        ];
        assert_eq!(order_violation(keys, &sorted), None);
        let mut reversed = sorted.clone();
        reversed.reverse();
        assert!(order_violation(keys, &reversed).is_some());
        // Same rows, so the set comparison alone would pass.
        assert!(Canon::new(reversed).diff(&Canon::new(sorted)).is_ok());
    }

    #[test]
    fn order_by_desc_and_ties() {
        // Q13: ORDER BY custdist DESC, c_count DESC.
        let keys = tpch_order_by(13);
        let row = |c: i64, d: i64| Row(vec![Datum::Int(c), Datum::Int(d)]);
        assert_eq!(
            order_violation(keys, &[row(9, 5), row(3, 5), row(7, 2)]),
            None
        );
        assert!(order_violation(keys, &[row(3, 5), row(9, 5)]).is_some());
        assert!(order_violation(keys, &[row(7, 2), row(9, 5)]).is_some());
        // Rows tied on every key may come in either order.
        let keys = tpch_order_by(5);
        let r = |n: &str, v: f64| Row(vec![Datum::str(n), Datum::Double(v)]);
        assert_eq!(order_violation(keys, &[r("B", 2.0), r("A", 2.0)]), None);
        assert_eq!(order_violation(keys, &[r("A", 2.0), r("B", 2.0)]), None);
        assert!(order_violation(&[], &[r("B", 1.0), r("A", 2.0)]).is_none());
    }

    #[test]
    fn every_query_with_order_by_has_keys() {
        for q in tpch_queries() {
            let has = ic_benchdata::tpch::query(q).contains("order by");
            assert_eq!(has, !tpch_order_by(q).is_empty(), "Q{q}");
        }
    }

    #[test]
    fn row_order_does_not_matter() {
        let r1 = Row(vec![Datum::Int(1)]);
        let r2 = Row(vec![Datum::Int(2)]);
        let a = Canon::new(vec![r1.clone(), r2.clone()]);
        let b = Canon::new(vec![r2, r1]);
        assert!(a.diff(&b).is_ok());
    }
}
