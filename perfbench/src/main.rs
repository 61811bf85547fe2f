//! The benchmark's measuring program. `run.py` builds and calls it; it can
//! also be run directly:
//!
//! ```text
//! perfbench --workload tpch|kv|htap --seed N --seconds S --trace 0|1
//!           [--expected DIR] [--spans FILE]
//! perfbench --write-expected DIR
//! ```
//!
//! A run sets the workload up several times (each set-up timed), warms it
//! up, measures one untraced window of `--seconds`, and with `--trace 1`
//! a second, traced window on the same cluster. It then checks every
//! output and prints one JSON object of raw samples and per-layer totals as
//! its last line; `run.py` turns that into metrics.

mod check;
mod engine;
mod json;
mod workloads;

use engine::{Engine, SpanOut, TraceTotals, LAYERS};
use ic_common::obs::MetricsRegistry;
use json::Json;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    expected: PathBuf,
    spans: Option<PathBuf>,
    write_expected: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: workloads::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        expected: PathBuf::from("perfbench/expected"),
        spans: None,
        write_expected: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => args.trace = value()? == "1",
            "--expected" => args.expected = value()?.into(),
            "--spans" => args.spans = Some(value()?.into()),
            "--write-expected" => args.write_expected = Some(value()?.into()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(args)
}

/// Registry counters whose deltas over the traced window feed per-layer
/// ratios.
const COUNTERS: [&str; 13] = [
    "core.query.retries",
    "core.admission.shed",
    "exec.batch.rows",
    "exec.batch.phys_rows",
    "exec.morsel.stolen",
    "exec.morsel.dispatched",
    "exec.worker.busy_ns",
    "exec.worker.idle_ns",
    "net.replicate.bytes",
    "net.replicate.messages",
    "storage.write.rows",
    "storage.write.batches",
    "storage.write.conflicts",
];

fn counters() -> Vec<u64> {
    let reg = MetricsRegistry::global();
    COUNTERS.iter().map(|n| reg.counter(n).get()).collect()
}

/// A memory figure of this process from `/proc/self/status`, in MB:
/// `VmHWM` (peak resident set size since the last reset) or `VmRSS`.
fn status_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Reset this process's peak resident set size to its current size, so
/// that `VmHWM` read later covers only what ran since.
fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("cannot reset the peak resident set size: {e}"))
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The per-layer metrics of the traced window. Times are per statement of
/// the kind that uses the layer (queries or writes), in microseconds.
fn per_layer(
    t: &TraceTotals,
    delta: &[u64],
    thr_untraced: f64,
    thr_traced: f64,
) -> Vec<(&'static str, f64)> {
    let d = |name: &str| {
        delta[COUNTERS
            .iter()
            .position(|c| *c == name)
            .expect("known counter")] as f64
    };
    let q = t.queries as f64;
    let w = t.writes as f64;
    let stmts = q + w;
    let us = |ns: u64, per: f64| ratio(ns as f64 / 1e3, per);
    let layer = |name: &str| t.layer(name);
    let self_sum: u64 = LAYERS.iter().map(|l| layer(l).self_ns).sum();
    let hep_ns = t.call_ns("opt.hep");
    let stmt_ns = t.stmt_ns as f64;
    let mut m = vec![
        ("core.admission_wait_us", us(layer("core").self_ns, q)),
        ("core.retries", t.retries as f64 + d("core.query.retries")),
        ("core.shed", d("core.admission.shed")),
        ("sql.parse_us", us(t.call_ns("sql.parse"), stmts)),
        ("sql.bind_us", us(t.call_ns("sql.bind"), stmts)),
        ("opt.hep_us", us(hep_ns, q)),
        (
            "opt.volcano_us",
            us(t.call_ns("opt.optimize").saturating_sub(hep_ns), q),
        ),
        ("opt.rule_firings", ratio(t.rule_firings as f64, q)),
        ("opt.dml_plan_us", us(t.call_ns("opt.dml_plan"), w)),
        ("exec.run_us", us(t.call_ns("exec.execute"), q)),
        ("exec.setup_us", us(t.exec_setup_ns, q)),
        ("exec.fragments", ratio(t.fragments as f64, q)),
        ("exec.threads", ratio(t.threads as f64, q)),
        (
            "exec.rows_scanned_per_row",
            ratio(t.scan_rows as f64, t.result_rows.max(1) as f64),
        ),
        ("exec.scan_self_us", us(t.scan_self_ns, q)),
        ("exec.join_self_us", us(t.join_self_ns, q)),
        ("exec.agg_self_us", us(t.agg_self_ns, q)),
        ("exec.sort_self_us", us(t.sort_self_ns, q)),
        ("exec.exchange_self_us", us(t.exchange_self_ns, q)),
        (
            "exec.selectivity",
            ratio(d("exec.batch.rows"), d("exec.batch.phys_rows")),
        ),
        (
            "exec.morsel.steal_ratio",
            ratio(d("exec.morsel.stolen"), d("exec.morsel.dispatched")),
        ),
        (
            "exec.worker.busy_ratio",
            ratio(
                d("exec.worker.busy_ns"),
                d("exec.worker.busy_ns") + d("exec.worker.idle_ns"),
            ),
        ),
        ("exec.peak_buffered_cells", t.peak_buffered_cells as f64),
        ("net.wire_wait_us", us(t.wire_wait_ns, q)),
        ("net.messages", ratio(t.net_messages as f64, q)),
        ("net.bytes", ratio(t.net_bytes as f64, q)),
        (
            "net.replicate_bytes_per_write",
            ratio(d("net.replicate.bytes"), w),
        ),
        (
            "net.replicate_messages",
            ratio(d("net.replicate.messages"), w),
        ),
        ("storage.dml_us", us(t.call_ns("storage.dml"), w)),
        ("storage.write_rows", ratio(d("storage.write.rows"), w)),
        (
            "storage.write_batches",
            ratio(d("storage.write.batches"), w),
        ),
        (
            "storage.conflict_ratio",
            ratio(d("storage.write.conflicts"), d("storage.write.batches")),
        ),
    ];
    for (name, l) in [
        ("layer.core.self_share", "core"),
        ("layer.sql.self_share", "sql"),
        ("layer.opt.self_share", "opt"),
        ("layer.exec.self_share", "exec"),
        ("layer.storage.self_share", "storage"),
    ] {
        m.push((name, ratio(layer(l).self_ns as f64, stmt_ns)));
    }
    m.push((
        "layer.net.wait_share",
        ratio(layer("net").wait_ns as f64, stmt_ns),
    ));
    m.push((
        "trace.unattributed_share",
        ratio(stmt_ns - self_sum as f64, stmt_ns),
    ));
    m.push(("trace.throughput_ratio", ratio(thr_traced, thr_untraced)));
    m
}

fn layer_table(t: &TraceTotals) -> Json {
    Json::Arr(
        LAYERS
            .iter()
            .map(|name| {
                let l = t.layer(name);
                Json::obj([
                    ("layer", Json::str(format!("ic-{name}"))),
                    ("calls", l.calls.into()),
                    ("self_us", (l.self_ns as f64 / 1e3).into()),
                    ("wait_us", (l.wait_ns as f64 / 1e3).into()),
                    ("failures", l.failures.into()),
                ])
            })
            .collect(),
    )
}

fn write_spans(path: &Path, spans: &[SpanOut]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = if s.name.starts_with("stmt.") {
            Json::Null
        } else {
            s.stmt.into()
        };
        let line = Json::obj([
            ("stmt", s.stmt.into()),
            ("client", s.client.into()),
            ("name", Json::str(s.name)),
            ("parent", parent),
            ("start_ns", s.start_ns.into()),
            ("end_ns", s.end_ns.into()),
            ("ok", s.ok.into()),
        ]);
        writeln!(out, "{line}")?;
    }
    out.flush()
}

fn run(args: &Args) -> Result<Json, String> {
    let prepared = match args.workload.as_str() {
        "tpch" => workloads::tpch(args.seed, &args.expected)?,
        "kv" => workloads::kv(args.seed)?,
        "htap" => workloads::htap(args.seed, &args.expected)?,
        other => return Err(format!("unknown workload `{other}` (tpch, kv, htap)")),
    };
    let workloads::Prepared {
        cluster,
        mut clients,
        setup_s,
        warmup_steps,
        failures_allowed,
        config,
        check,
    } = prepared;
    let engine = Engine::new(Arc::clone(&cluster), false);
    let mut all = workloads::warmup(&engine, &mut clients, warmup_steps);

    // The memory figure covers the timed window only: set-up (and the
    // generated rows it loaded) stays out of it.
    let setup_peak_rss = status_mb("VmHWM");
    reset_peak_rss()?;
    let window_start_rss = status_mb("VmRSS");
    let (untraced, elapsed) = workloads::window(&engine, &mut clients, args.seconds);
    let thr_untraced = untraced.completed() as f64 / elapsed;
    let rss = status_mb("VmHWM");
    all.absorb_counts(&untraced);

    let mut traced_out = Vec::new();
    if args.trace {
        let traced_engine = Engine::new(Arc::clone(&cluster), true);
        let before = counters();
        let (traced, t_elapsed) = workloads::window(&traced_engine, &mut clients, args.seconds);
        let delta: Vec<u64> = counters().iter().zip(&before).map(|(a, b)| a - b).collect();
        let thr_traced = traced.completed() as f64 / t_elapsed;
        all.absorb_counts(&traced);
        let (totals, spans) = traced_engine
            .tracer
            .as_ref()
            .expect("traced engine has a tracer")
            .take();
        for e in &totals.invalid_traces {
            all.mismatches
                .push(format!("engine trace failed Trace::validate(): {e}"));
        }
        if let Some(path) = &args.spans {
            write_spans(path, &spans).map_err(|e| format!("writing {}: {e}", path.display()))?;
        }
        let metrics = per_layer(&totals, &delta, thr_untraced, thr_traced);
        traced_out.push((
            "per_layer",
            Json::obj(metrics.into_iter().map(|(k, v)| (k, Json::Num(v)))),
        ));
        traced_out.push(("layer_table", layer_table(&totals)));
        traced_out.push(("traced_statements", (totals.queries + totals.writes).into()));
        traced_out.push(("spans", spans.len().into()));
    }

    let (mismatches, checked_against) = check(&engine);
    all.mismatches.extend(mismatches);
    if !failures_allowed && all.failed > 0 {
        all.mismatches.push(format!(
            "{} of {} statements failed; `{}` should see no failures",
            all.failed, all.attempted, args.workload
        ));
    }
    let mut out = vec![
        ("workload", Json::str(&args.workload)),
        ("seed", args.seed.into()),
        ("seconds", args.seconds.into()),
        ("trace", args.trace.into()),
        ("config", Json::obj(config)),
        ("setup_s", Json::nums(&setup_s)),
        ("elapsed_s", elapsed.into()),
        ("completed", untraced.completed().into()),
        ("query_us", Json::nums(&untraced.query_us)),
        ("read_us", Json::nums(&untraced.read_us)),
        ("write_us", Json::nums(&untraced.write_us)),
        ("attempted", all.attempted.into()),
        ("failed", all.failed.into()),
        (
            "errors",
            Json::Arr(all.errors.iter().map(Json::str).collect()),
        ),
        (
            "mismatches",
            Json::Arr(all.mismatches.iter().map(Json::str).collect()),
        ),
        ("checked_against", Json::str(checked_against)),
        ("peak_rss_mb", rss.into()),
        ("window_start_rss_mb", window_start_rss.into()),
        ("setup_peak_rss_mb", setup_peak_rss.into()),
    ];
    out.extend(traced_out);
    Ok(Json::obj(out))
}

fn write_expected(dir: &Path) -> Result<(), String> {
    let queries = check::tpch_queries();
    let (results, notes) =
        check::cross_checked_results(workloads::SF, workloads::DEFAULT_SEED, &queries)?;
    for n in &notes {
        eprintln!("{n}");
    }
    let header = format!(
        "Expected TPC-H results at SF {} and seed {}, one block per query.\n\
         IC, IC+ and IC+M on 4 sites agreed on every query; where IC could not\n\
         finish, IC+ and IC+M agreed. Regenerate with `perfbench --write-expected DIR`.",
        workloads::SF,
        workloads::DEFAULT_SEED
    );
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let path = dir.join(workloads::expected_file_name());
    std::fs::write(&path, check::encode_expected(&header, &results)).map_err(|e| e.to_string())?;
    eprintln!("wrote {}", path.display());
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Some(dir) = &args.write_expected {
        if let Err(e) = write_expected(dir) {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
        return;
    }
    match run(&args) {
        Ok(out) => println!("{out}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
