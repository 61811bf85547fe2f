#!/usr/bin/env python3
"""Build and run the repository benchmark, check its outputs and print its
metrics.

One run (the form BENCHMARK.json declares):

    python3 perfbench/run.py --workload tpch|kv|htap|all --seed N \
        --seconds S --trace 0|1

prints a human report on stderr and, as the last stdout line, one JSON
object {"correct", "attempted", "failed", "metrics"}: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1. Every run
also writes a full record (host, commit, seeds, configuration, all
metrics with sample counts) under perfbench/runs/, which is not
committed; a traced run writes its spans there too.

Steadiness check over several seeds; with --parent-root, runs of another
checkout's build alternate with this checkout's, seed by seed, and
`compare` judges the change from those pairs (see perfbench/README.md):

    python3 perfbench/run.py steady --workload kv --seeds 1-10 --seconds 10
    python3 perfbench/run.py steady --workload all --parent-root ../parent --out pairs.json
    python3 perfbench/run.py compare pairs.json
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import stats  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = HERE / "runs"
WORKLOADS = ["tpch", "kv", "htap"]
# A run must end within 180 s; the measuring program gets what is left
# after the build.
RUN_TIMEOUT_S = 170


def log(msg=""):
    print(msg, file=sys.stderr, flush=True)


def benchmark_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def check_sources(root=ROOT):
    """The benchmark builds the engine from a checkout; fail fast when the
    engine's sources are not there."""
    missing = [p for p in ("Cargo.toml", "crates", "perfbench/Cargo.toml") if not (root / p).exists()]
    if missing:
        log(f"perfbench: engine sources missing from {root}: {', '.join(missing)}")
        sys.exit(2)


def build(root=ROOT, own_target=False):
    """Build the measuring program of the checkout at `root`; returns its
    path. It goes to $CARGO_TARGET_DIR when that is set, else to cargo's
    default for the manifest, perfbench/target; `own_target` forces the
    latter, so that two checkouts never build into one directory."""
    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR")
    target = Path(target) if target and not own_target else Path("perfbench/target")
    if not target.is_absolute():
        target = root / target
    env["CARGO_TARGET_DIR"] = str(target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", "perfbench/Cargo.toml"]
    if subprocess.run(cmd, cwd=root, env=env).returncode != 0:
        log(f"perfbench: build of {root} failed")
        sys.exit(2)
    return target / "release" / "perfbench"


def host():
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model, "os": platform.platform()}


def commit(root=ROOT):
    # Look for a repository at the checkout only, never in a directory above.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    git = dict(cwd=root, env=env, capture_output=True, text=True)
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], **git)
        if out.returncode == 0:
            dirty = subprocess.run(["git", "status", "--porcelain"], **git)
            return out.stdout.strip() + ("-dirty" if dirty.stdout.strip() else "")
    except OSError:
        pass
    return "unknown (not a git checkout)"


SOURCES = ["Cargo.toml", "Cargo.lock", "crates", "vendor", "perfbench/Cargo.toml", "perfbench/Cargo.lock",
           "perfbench/src"]


def source_digest(root=ROOT):
    """A digest of the sources the measuring program is built from, so that
    a record names the code it measured even outside a git checkout."""
    h = hashlib.sha256()
    for top in SOURCES:
        path = root / top
        files = [path] if path.is_file() else sorted(
            p for p in path.rglob("*") if p.is_file() and "target" not in p.relative_to(root).parts)
        for f in files:
            h.update(str(f.relative_to(root)).encode() + b"\0" + f.read_bytes() + b"\0")
    return h.hexdigest()[:16]


def measure(binary, root, workload, seed, seconds, trace, label):
    """Run the measuring program once; returns its raw JSON object."""
    RUNS.mkdir(exist_ok=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--expected", str(root / "perfbench" / "expected")]
    if trace:
        cmd += ["--spans", str(RUNS / f"{label}spans-{workload}-seed{seed}.jsonl")]
    try:
        out = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {workload} did not finish within {RUN_TIMEOUT_S} s")
        sys.exit(1)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        log(f"perfbench: {workload} failed (exit {out.returncode})")
        sys.exit(1)
    return json.loads(lines[-1])


def end_to_end(raw):
    """Every end-to-end metric of a run: name -> (value, unit, samples).
    The first five are the metrics BENCHMARK.json declares; the rest apply
    to some workloads only and are reported in the record and the report."""
    selects = raw["query_us"] + raw["read_us"]  # kv's point reads are its SELECTs
    p90, p90_pct, n = stats.tail_percentile(selects, 90)
    m = {
        "setup_s": (statistics.median(raw["setup_s"]), "s", len(raw["setup_s"])),
        "throughput_ops_s": (raw["completed"] / raw["elapsed_s"], "1/s", raw["completed"]),
        "query_p50_ms": (statistics.median(selects) / 1e3, "ms", n),
        "query_p90_ms": (p90 / 1e3, "ms", n),
        "peak_rss_mb": (raw["peak_rss_mb"], "MB", 1),
    }
    if p90_pct != 90:
        log(f"  note: query_p90_ms is p{p90_pct:.1f}, the highest percentile with 10 samples beyond it")
    for kind in ("read", "write"):
        xs = raw[f"{kind}_us"]
        if xs:
            p99, pct, n = stats.tail_percentile(xs, 99)
            m[f"{kind}_p50_us"] = (statistics.median(xs), "us", n)
            m[f"{kind}_p99_us"] = (p99, "us", n)
            if pct != 99:
                log(f"  note: {kind}_p99_us is p{pct:.1f}, the highest percentile with 10 samples beyond it")
    m["failed_ratio"] = (raw["failed"] / max(raw["attempted"], 1), "ratio", raw["attempted"])
    return m


def run_once(binary, workload, seed, seconds, trace, root=ROOT, label=""):
    """One benchmark run of the build at `binary`, made from the checkout
    at `root`: measure, report, record. Returns the result object printed
    on stdout and the full record. `label` prefixes the record's file name."""
    spec = benchmark_spec()
    prefix = f"{label}-" if label else ""
    raw = measure(binary, root, workload, seed, seconds, trace, prefix)
    log(f"== {prefix}{workload} seed={seed} seconds={seconds} trace={trace} config={json.dumps(raw['config'])}")
    e2e = end_to_end(raw)
    for name, (value, unit, n) in e2e.items():
        log(f"  {name:<22} {value:>14.4f} {unit:<6} (n={n})")
    log(f"  memory: {raw['setup_peak_rss_mb']:.1f} MB peak through set-up, {raw['window_start_rss_mb']:.1f} MB "
        f"at the window's start, {raw['peak_rss_mb']:.1f} MB peak in the window")
    if trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics = {name: {"value": raw["per_layer"][name], "unit": unit} for name, unit in units.items()}
        log(f"  traced window: {raw['traced_statements']} statements, {raw['spans']} spans")
        log(f"  {'layer':<12} {'calls':>9} {'self_us':>14} {'wait_us':>14} {'failures':>9}")
        for row in raw["layer_table"]:
            log(f"  {row['layer']:<12} {row['calls']:>9.0f} {row['self_us']:>14.1f} {row['wait_us']:>14.1f} "
                f"{row['failures']:>9.0f}")
        for name, m in metrics.items():
            log(f"  {name:<32} {m['value']:>14.4f} {m['unit']}")
    else:
        metrics = {m["name"]: {"value": e2e[m["name"]][0], "unit": m["unit"]} for m in spec["end_to_end"]}
    correct = not raw["mismatches"]
    log(f"  attempted={raw['attempted']} failed={raw['failed']} checked against: {raw['checked_against']}")
    for e in raw["errors"]:
        log(f"  error: {e}")
    for m in raw["mismatches"]:
        log(f"  MISMATCH: {m}")
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "host": host(),
        "commit": commit(root),
        "source_digest": source_digest(root),
        "config": raw["config"],
        "end_to_end": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in e2e.items()},
        "per_layer": raw.get("per_layer"),
        "layer_table": raw.get("layer_table"),
        "setup_s_runs": raw["setup_s"],
        "rss_mb": {k: raw[k] for k in ("setup_peak_rss_mb", "window_start_rss_mb", "peak_rss_mb")},
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "errors": raw["errors"],
        "mismatches": raw["mismatches"],
        "checked_against": raw["checked_against"],
    }
    RUNS.mkdir(exist_ok=True)
    with open(RUNS / f"{prefix}{workload}-seed{seed}-trace{trace}.json", "w") as f:
        json.dump(record, f, indent=1)
    result = {"correct": correct, "attempted": raw["attempted"], "failed": raw["failed"], "metrics": metrics}
    return result, record


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def cmd_steady(argv):
    ap = argparse.ArgumentParser(prog="run.py steady")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--parent-root", default=None,
                    help="checkout of the revision to compare against; its runs alternate with this checkout's")
    ap.add_argument("--out", default=None, help="where to write the series (default perfbench/runs/)")
    args = ap.parse_args(argv)
    spec = benchmark_spec()
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    # "change" is always this checkout; with --parent-root the two builds
    # alternate, each in a target directory of its own checkout.
    roots = {}
    if args.parent_root:
        roots["parent"] = Path(args.parent_root).resolve()
        check_sources(roots["parent"])
    roots["change"] = ROOT
    paired = len(roots) == 2
    binaries = {label: build(root, own_target=paired) for label, root in roots.items()}
    series = {"host": host(), "seconds": seconds, "seeds": parse_seeds(args.seeds),
              "builds": {label: {"commit": commit(root), "source_digest": source_digest(root)}
                         for label, root in roots.items()},
              "workloads": {}}
    ok = True
    for w in workloads:
        runs = []
        config = None
        for i, seed in enumerate(series["seeds"]):
            # Alternate which build goes first, so a drift in the host's
            # speed does not favour one of them.
            order = list(roots) if i % 2 == 0 else list(roots)[::-1]
            run = {"seed": seed, "order": order}
            for label in order:
                result, record = run_once(binaries[label], w, seed, seconds, 0, roots[label], label)
                ok &= result["correct"]
                config = record["config"]
                run[label] = {"metrics": {name: result["metrics"][name]["value"] for name in bounds},
                              "attempted": result["attempted"], "failed": result["failed"],
                              "correct": result["correct"]}
            runs.append(run)
        series["workloads"][w] = {"config": config, "runs": runs}
        for label in roots:
            log(f"== steadiness of {w} ({label}) over seeds {args.seeds}")
            log(f"  {'metric':<18} {'median':>12} {'spread':>8} {'bound':>6} {'spread/bound':>12}")
            for name, m in bounds.items():
                xs = [r[label]["metrics"][name] for r in runs]
                s = stats.spread(xs)
                log(f"  {name:<18} {statistics.median(xs):>12.4f} {s:>8.4f} {m['bound']:>6.2f} "
                    f"{s / m['bound']:>12.2f}")
    out = Path(args.out) if args.out else RUNS / f"steady-{args.workload}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as f:
        json.dump(series, f, indent=1)
    log(f"wrote {out}")
    if paired:
        compare(series, spec)
    return 0 if ok else 1


def compare(series, spec):
    """Print one verdict per (workload, metric) of a paired series."""
    print(f"{'workload':<8} {'metric':<18} {'parent':>12} {'change':>12} {'bound':>6}  verdict")
    for w, data in series["workloads"].items():
        runs = data["runs"]
        if not all("parent" in r and "change" in r for r in runs):
            log(f"perfbench: {w} has no parent/change pairs; make the series with steady --parent-root")
            return 1
        failed = {label: sum(r[label]["failed"] for r in runs) for label in ("parent", "change")}
        note = ""
        if failed["change"] > failed["parent"]:
            note = f"  (more failures: {failed['parent']} -> {failed['change']} statements)"
        for m in spec["end_to_end"]:
            a = [r["parent"]["metrics"][m["name"]] for r in runs]
            b = [r["change"]["metrics"][m["name"]] for r in runs]
            v = stats.verdict(a, b, m["better"], m["bound"], failed["parent"], failed["change"])
            print(f"{w:<8} {m['name']:<18} {statistics.median(a):>12.4f} {statistics.median(b):>12.4f} "
                  f"{m['bound']:>6.2f}  {v}{note}")
    return 0


def cmd_compare(argv):
    ap = argparse.ArgumentParser(prog="run.py compare",
                                 description="Judge a change from a series made with steady --parent-root.")
    ap.add_argument("series")
    args = ap.parse_args(argv)
    with open(args.series) as f:
        series = json.load(f)
    return compare(series, benchmark_spec())


def main(argv):
    if argv and argv[0] == "steady":
        check_sources()
        return cmd_steady(argv[1:])
    if argv and argv[0] == "compare":
        return cmd_compare(argv[1:])
    ap = argparse.ArgumentParser(description="Run one benchmark workload.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    check_sources()
    seconds = args.seconds or benchmark_spec()["run_seconds"]
    binary = build()
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    correct = True
    for w in workloads:
        result, _ = run_once(binary, w, args.seed, seconds, args.trace)
        correct &= result["correct"]
        print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
