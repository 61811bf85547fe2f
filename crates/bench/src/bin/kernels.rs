//! Operator-kernel microbenchmarks over the columnar data plane: the four
//! shapes every TPC-H plan is built from — filter+project through selection
//! vectors, `ColGroupTable` hash aggregation, `ColJoinTable` probe+gather,
//! and the column-permutation sort — plus the per-batch tracing overhead.
//!
//! Every shape checks its checksum against a value computed straight from
//! the generated data (plain loops over the source vectors, no kernel), so
//! a reported throughput over a wrong answer is impossible. With
//! `IC_BENCH_ASSERT=1` (the CI smoke) the run also fails unless every
//! shape clears its rows/s floor (`FLOORS`, a quarter of the reference
//! host's CI-size number; see EXPERIMENTS.md) and the tracing overhead
//! stays ≤ 5%.
//!
//! Env: `IC_BENCH_KERNEL_ROWS` (default 200000; `--smoke`: 60000),
//! `IC_BENCH_KERNEL_REPS` (default 3). Writes `BENCH_kernels.json` with
//! host, commit and config; `--smoke` writes
//! `target/bench-smoke/BENCH_kernels.json` instead.

use ic_bench::{bench_meta_json, bench_output_path};
use ic_common::agg::AggFunc;
use ic_common::eval::eval_filter_sel;
use ic_common::row::BATCH_SIZE;
use ic_common::{BinOp, Column, ColumnBatch, ColumnData, Datum, Expr};
use ic_exec::kernels::{gather_join_output, sort_permutation, ColGroupTable, ColJoinTable};
use ic_plan::ops::{AggCall, SortKey};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Rows/s floors per shape for `IC_BENCH_ASSERT=1`: a quarter of the
/// reference host's number at the CI size (60 000 rows, best of 3; 2-core
/// host, EXPERIMENTS.md "Kernel throughput floors").
const FLOORS: [(&str, f64); 4] = [
    ("filter_project", 18_000_000.0),
    ("hash_agg", 5_800_000.0),
    ("join_probe", 2_600_000.0),
    ("sort", 1_800_000.0),
];

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Run `f` `reps` times; `f` returns (measured duration, checksum).
/// Reports the best rep (least interference) and the last checksum.
fn bench(reps: usize, mut f: impl FnMut() -> (Duration, u64)) -> (f64, u64) {
    let mut best = f64::INFINITY;
    let mut sum = 0u64;
    for _ in 0..reps {
        let (dt, s) = f();
        sum = s;
        best = best.min(dt.as_secs_f64());
    }
    (best, sum)
}

/// Two int columns: keys drawn from `nkeys` distinct values in shuffled
/// order, and the row index as payload.
fn make_data(n: usize, nkeys: i64, seed: u64) -> (Vec<i64>, Vec<i64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let keys = (0..n).map(|_| rng.gen_range(0..nkeys)).collect();
    (keys, (0..n as i64).collect())
}

fn int_col(v: &[i64]) -> Arc<Column> {
    Arc::new(Column { data: ColumnData::Int(v.to_vec()), validity: None })
}

/// The columns cut into dense `BATCH_SIZE` batches.
fn to_batches(cols: &[&[i64]]) -> Vec<ColumnBatch> {
    let n = cols.first().map_or(0, |c| c.len());
    (0..n)
        .step_by(BATCH_SIZE)
        .map(|start| {
            let end = (start + BATCH_SIZE).min(n);
            ColumnBatch::new(cols.iter().map(|c| int_col(&c[start..end])).collect(), end - start)
        })
        .collect()
}

/// Checksum helper: sum an Int column over a batch's logical rows.
// ic-lint: allow(L010) because the checksum helper validity-gates every read; the microbenchmark measures exactly this hand-rolled loop
fn sum_int_col(batch: &ColumnBatch, c: usize) -> u64 {
    let col = batch.col(c);
    let mut sum = 0u64;
    if let ColumnData::Int(v) = &col.data {
        for k in 0..batch.num_rows() {
            let i = batch.phys_index(k);
            if col.is_valid(i) {
                sum = sum.wrapping_add(v[i] as u64);
            }
        }
    }
    sum
}

/// Per-group sums checksum of a finished `ColGroupTable`: group count
/// plus every group's SUM.
fn group_checksum(table: &mut ColGroupTable) -> u64 {
    let mut sum = table.len() as u64;
    for slot in 0..table.len() {
        let (_, accs) = table.take_group(slot);
        sum = sum.wrapping_add(accs[0].finish().as_int().unwrap_or(0) as u64);
    }
    sum
}

/// The hash-agg checksum computed from the data alone: distinct keys plus
/// the payload total.
fn agg_reference(keys: &[i64], vals: &[i64], nkeys: i64) -> u64 {
    let mut seen = vec![false; nkeys as usize];
    keys.iter().for_each(|&k| seen[k as usize] = true);
    let groups = seen.iter().filter(|&&s| s).count() as u64;
    vals.iter().fold(groups, |s, &v| s.wrapping_add(v as u64))
}

struct Outcome {
    name: &'static str,
    rows_per_sec: f64,
}

/// Filter+project: a ~50%-selective predicate over the key column,
/// projecting the payload — the scan→σ→π spine of every TPC-H query. The
/// filter shrinks a selection vector and the projection bumps a column
/// pointer; no value moves until the checksum reads the survivors.
fn bench_filter_project(n: usize, reps: usize) -> Outcome {
    let nkeys = (n as i64).max(1);
    let (keys, vals) = make_data(n, nkeys, 6);
    let pred = Expr::binary(BinOp::Lt, Expr::col(0), Expr::lit(Datum::Int(nkeys / 2)));
    let batches = to_batches(&[&keys, &vals]);
    let expected = keys
        .iter()
        .zip(&vals)
        .filter(|(&k, _)| k < nkeys / 2)
        .fold(0u64, |s, (_, &v)| s.wrapping_add(v as u64));
    let (t, sum) = bench(reps, || {
        let t = Instant::now();
        let mut sum = 0u64;
        for b in &batches {
            let sel = eval_filter_sel(&pred, b).unwrap();
            let projected = b.select_logical(&sel).project_cols(&[1]);
            sum = sum.wrapping_add(sum_int_col(&projected, 0));
        }
        (t.elapsed(), sum)
    });
    assert_eq!(sum, expected, "filter_project: checksum differs from the data");
    Outcome { name: "filter_project", rows_per_sec: n as f64 / t }
}

/// Hash aggregation: `ColGroupTable` resolves group slots per batch and
/// folds the argument column in a typed loop.
fn bench_hash_agg(n: usize, reps: usize) -> Outcome {
    let nkeys = (n / 16).max(8) as i64;
    let (keys, vals) = make_data(n, nkeys, 8);
    let aggs = vec![AggCall { func: AggFunc::Sum, arg: Some(Expr::col(1)), name: "s".into() }];
    let batches = to_batches(&[&keys, &vals]);
    let (t, sum) = bench(reps, || {
        let t = Instant::now();
        let mut table = ColGroupTable::new(vec![0], aggs.len());
        let mut slots = Vec::new();
        for b in &batches {
            table.slots_for_batch(b, &aggs, &mut slots);
            table.accumulate(0, b.col(1), b.selection(), &slots).unwrap();
        }
        (t.elapsed(), group_checksum(&mut table))
    });
    assert_eq!(sum, agg_reference(&keys, &vals, nkeys), "hash_agg: checksum differs from the data");
    Outcome { name: "hash_agg", rows_per_sec: n as f64 / t }
}

/// Join probe, PK-FK shape with materialized output: resolve (probe, build)
/// index pairs per batch and gather the joined batch column by column.
fn bench_join_probe(n: usize, reps: usize) -> Outcome {
    let build_n = (n / 8).max(1024);
    let nkeys = build_n as i64;
    let (bkeys, bvals) = make_data(build_n, nkeys, 9);
    let (pkeys, pvals) = make_data(n, nkeys, 10);
    let probe_batches = to_batches(&[&pkeys, &pvals]);
    let mut table = ColJoinTable::new(vec![0], 2);
    for b in to_batches(&[&bkeys, &bvals]) {
        table.insert_batch(&b);
    }
    table.finish_build();
    // Expected: each probe row contributes the payload total of its key's
    // build rows.
    let mut per_key = vec![0u64; nkeys as usize];
    for (&k, &v) in bkeys.iter().zip(&bvals) {
        per_key[k as usize] = per_key[k as usize].wrapping_add(v as u64);
    }
    let expected = pkeys.iter().fold(0u64, |s, &k| s.wrapping_add(per_key[k as usize]));
    let (t, sum) = bench(reps, || {
        let t = Instant::now();
        let mut sum = 0u64;
        for b in &probe_batches {
            let (pks, bis) = table.probe_pairs(b, &[0]);
            let joined = gather_join_output(b, &pks, table.arena(), &bis);
            sum = sum.wrapping_add(sum_int_col(&joined, 3));
        }
        (t.elapsed(), sum)
    });
    assert_eq!(sum, expected, "join_probe: checksum differs from the data");
    Outcome { name: "join_probe", rows_per_sec: n as f64 / t }
}

/// Sort, wide lineitem-like rows: a permutation over the key columns,
/// applied as a selection view — the ten payload columns never move.
// ic-lint: allow(L010) because the sort checksum hand-rolls its read of a generated non-null column
fn bench_sort(n: usize, reps: usize) -> Outcome {
    let nkeys = (n / 4).max(1) as i64;
    let (keys, ids) = make_data(n, nkeys, 11);
    let mut cols = vec![int_col(&keys), int_col(&ids)];
    cols.extend((0..10).map(|c| int_col(&vec![c; n])));
    let dense = ColumnBatch::new(cols, n);
    // Col 1 is unique, so the (0, 1) key is a total order and the
    // position-weighted checksum is well-defined.
    let mut order: Vec<(i64, i64)> = keys.iter().copied().zip(ids.iter().copied()).collect();
    order.sort_unstable();
    let weighted = |k: usize, id: i64| (k as u64).wrapping_mul(id as u64);
    let expected = order.iter().enumerate().fold(0u64, |s, (k, &(_, id))| s.wrapping_add(weighted(k, id)));
    let sort_keys = [SortKey::asc(0), SortKey::asc(1)];
    let (t, sum) = bench(reps, || {
        let t = Instant::now();
        let sorted = dense.with_sel(sort_permutation(&dense, &sort_keys));
        let mut sum = 0u64;
        if let ColumnData::Int(v) = &sorted.col(1).data {
            for k in 0..sorted.num_rows() {
                sum = sum.wrapping_add(weighted(k, v[sorted.phys_index(k)]));
            }
        }
        (t.elapsed(), sum)
    });
    assert_eq!(sum, expected, "sort: checksum differs from the data");
    Outcome { name: "sort", rows_per_sec: n as f64 / t }
}

/// Tracing-overhead microbenchmark: layer the exact per-batch
/// instrumentation a traced query adds in the executor — two
/// [`Trace::now_ns`] reads plus one [`AttemptStats::record_next`] per batch
/// — over the hash-aggregation kernel, and report the percent slowdown vs
/// the uninstrumented loop. OBSERVABILITY.md quotes this number; the
/// acceptance bar is ≤ 5%.
///
/// [`Trace::now_ns`]: ic_common::obs::Trace::now_ns
/// [`AttemptStats::record_next`]: ic_common::obs::AttemptStats::record_next
fn bench_trace_overhead(n: usize, reps: usize) -> (f64, f64) {
    use ic_common::obs::{OpMeta, Trace};

    // The effect being measured is sub-1%, far below run-to-run scheduler
    // noise: floor the input so each rep runs several milliseconds and
    // take best-of more draws than the throughput benches.
    let n = n.max(200_000);
    let reps = reps.max(7);
    let nkeys = (n / 16).max(8) as i64;
    let (keys, vals) = make_data(n, nkeys, 7);
    let batches = to_batches(&[&keys, &vals]);
    let aggs = vec![AggCall { func: AggFunc::Sum, arg: Some(Expr::col(1)), name: "s".into() }];
    let agg_batch = |table: &mut ColGroupTable, slots: &mut Vec<u32>, b: &ColumnBatch| {
        table.slots_for_batch(b, &aggs, slots);
        table.accumulate(0, b.col(1), b.selection(), slots).unwrap();
    };

    let run_plain = || {
        let t = Instant::now();
        let mut table = ColGroupTable::new(vec![0], aggs.len());
        let mut slots = Vec::new();
        for b in &batches {
            agg_batch(&mut table, &mut slots, b);
        }
        (t.elapsed(), group_checksum(&mut table))
    };
    let run_traced = || {
        let trace = Trace::new();
        let attempt = trace.register_attempt(vec![OpMeta {
            label: "HashAggregate".into(),
            detail: String::new(),
            parent: None,
            depth: 0,
            est_rows: n as f64,
        }]);
        let t = Instant::now();
        let mut table = ColGroupTable::new(vec![0], aggs.len());
        let mut slots = Vec::new();
        for b in &batches {
            let t0 = trace.now_ns();
            agg_batch(&mut table, &mut slots, b);
            attempt.record_next(0, b.num_rows() as u64, trace.now_ns() - t0, true);
        }
        (t.elapsed(), group_checksum(&mut table))
    };

    // Run the two sides back to back and compare within each pair: a load
    // burst or CPU-quota throttle slows both halves of a pair about
    // equally, so the per-pair ratio stays meaningful where comparing a
    // quiet plain window against a loud traced one would not. Tracing is a
    // fixed multiplicative cost and interference can only inflate a pair's
    // ratio, so the quietest pair is the bound the CI gate asserts on; the
    // median pair is the less-biased number to report and commit.
    let expected = agg_reference(&keys, &vals, nkeys);
    let mut ratios: Vec<f64> = (0..reps)
        .map(|_| {
            let (dt_p, plain_sum) = run_plain();
            let (dt_t, traced_sum) = run_traced();
            assert_eq!(plain_sum, expected, "trace overhead: plain checksum differs from the data");
            assert_eq!(traced_sum, expected, "trace overhead: traced checksum differs from the data");
            dt_t.as_secs_f64() / dt_p.as_secs_f64()
        })
        .collect();
    ratios.sort_by(f64::total_cmp);

    let min_pct = (ratios[0] - 1.0) * 100.0;
    let median_pct = (ratios[ratios.len() / 2] - 1.0) * 100.0;
    (min_pct, median_pct)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let n = env_usize("IC_BENCH_KERNEL_ROWS", if smoke { 60_000 } else { 200_000 });
    let reps = env_usize("IC_BENCH_KERNEL_REPS", 3);
    println!("kernel microbenchmarks: {n} rows, best of {reps} reps\n");
    println!("{:<16} {:>16} {:>14}", "shape", "rows/s", "floor rows/s");

    let outcomes = [
        bench_filter_project(n, reps),
        bench_hash_agg(n, reps),
        bench_join_probe(n, reps),
        bench_sort(n, reps),
    ];
    let (overhead_min_pct, overhead_pct) = bench_trace_overhead(n, reps);
    let floor_of = |name: &str| FLOORS.iter().find(|(f, _)| *f == name).map_or(0.0, |(_, v)| *v);

    let mut json = format!(
        "{{\n  {}, \"smoke\": {smoke},\n  \"rows\": {n},\n  \"reps\": {reps},\n  \
         \"trace_overhead_pct\": {overhead_pct:.2},\n  \"shapes\": [\n",
        bench_meta_json()
    );
    for (i, o) in outcomes.iter().enumerate() {
        println!("{:<16} {:>16.0} {:>14.0}", o.name, o.rows_per_sec, floor_of(o.name));
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"rows_per_sec\": {:.0}, \"floor_rows_per_sec\": {:.0}}}{}\n",
            o.name,
            o.rows_per_sec,
            floor_of(o.name),
            if i + 1 < outcomes.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    println!(
        "\ntracing overhead (2 clock reads + record_next per {BATCH_SIZE}-row batch): {overhead_pct:+.2}%"
    );
    let path = bench_output_path("kernels", smoke);
    std::fs::write(&path, &json).expect("write kernels bench record");
    println!("wrote {}", path.display());

    // CI gate (`IC_BENCH_ASSERT=1`): every shape clears its throughput
    // floor, and the per-batch tracing overhead stays within the ≤ 5%
    // budget OBSERVABILITY.md quotes.
    if std::env::var("IC_BENCH_ASSERT").is_ok_and(|v| v == "1") {
        for o in &outcomes {
            let floor = floor_of(o.name);
            assert!(
                o.rows_per_sec >= floor,
                "{} throughput {:.0} rows/s is below its {floor:.0} rows/s floor",
                o.name,
                o.rows_per_sec
            );
        }
        assert!(
            overhead_min_pct <= 5.0,
            "tracing overhead {overhead_min_pct:.2}% (quietest pair) exceeds the 5% budget"
        );
        println!("IC_BENCH_ASSERT: every shape above its rows/s floor, trace overhead <= 5%");
    }
}
