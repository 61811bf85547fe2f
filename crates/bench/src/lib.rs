//! Benchmark harness: data loading, measurement protocol (§6.1) and the
//! multi-client AQL driver (§6.3). The binaries in `src/bin/` use these to
//! regenerate each of the paper's tables and figures.

pub mod aql;
pub mod runner;
pub mod harness;
pub mod load;

pub use aql::{run_aql, AqlConfig, AqlResult};
pub use harness::{
    repetitions, scale_factors,
    geo_mean, measure_query, mean, MeasureOutcome, Measurement, DEFAULT_SCALE_FACTORS,
};
pub use load::{load_ssb, load_tpch};
pub use runner::{calibrated_network, mean_times, print_speedup_figure, sweep_ssb, sweep_tpch, RunPoint};

/// Where a bench binary writes its JSON record: the committed
/// `BENCH_<name>.json` for full-size runs, `target/bench-smoke/` for the
/// reduced CI-size runs, so a smoke never overwrites the committed numbers.
pub fn bench_output_path(name: &str, smoke: bool) -> std::path::PathBuf {
    let file = format!("BENCH_{name}.json");
    if !smoke {
        return file.into();
    }
    let dir = std::path::Path::new("target").join("bench-smoke");
    // A missing directory surfaces as the caller's write error.
    let _ = std::fs::create_dir_all(&dir);
    dir.join(file)
}

/// Host and build metadata for a BENCH record, as JSON object members:
/// `"nproc": N, "commit": "<short hash>"`, suffixed `-dirty` when the tree
/// has uncommitted changes (`"unknown"` outside a git checkout).
pub fn bench_meta_json() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let git = |args: &[&str]| std::process::Command::new("git").args(args).output().ok();
    let commit = git(&["rev-parse", "--short", "HEAD"])
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
    let dirty = git(&["diff", "--quiet", "HEAD"]).is_some_and(|o| o.status.code() == Some(1));
    format!("\"nproc\": {nproc}, \"commit\": \"{commit}{}\"", if dirty { "-dirty" } else { "" })
}
