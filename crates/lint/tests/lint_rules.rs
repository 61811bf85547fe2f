//! Integration tests: every seeded fixture trips exactly its rule, and the
//! real workspace is clean under `--deny-all` semantics.

use ic_lint::{lint_files, lint_files_with, lint_workspace, FileInput, LintOptions, ObsDoc};
use std::path::Path;

fn fixture(name: &str) -> String {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    std::fs::read_to_string(dir.join(name)).expect("fixture readable")
}

/// Feed a fixture through the engine under a virtual in-scope path.
fn lint_as(virtual_path: &str, fixture_name: &str) -> ic_lint::Report {
    lint_files(&[FileInput { path: virtual_path.into(), source: fixture(fixture_name) }])
}

#[test]
fn fixture_l001_unwrap_fails() {
    // crates/sql joined the scope so the fuzzer front end stays panic-free.
    for path in ["crates/net/src/fixture.rs", "crates/sql/src/fixture.rs"] {
        let r = lint_as(path, "l001_unwrap.rs");
        let hits: Vec<_> = r.violations.iter().filter(|v| v.rule == "L001").collect();
        assert_eq!(hits.len(), 2, "{path}: {:?}", r.violations);
        // The #[cfg(test)] unwrap must not be counted.
        assert!(hits.iter().all(|v| v.line < 8));
    }
}

#[test]
fn fixture_l002_hasher_fails() {
    let r = lint_as("crates/opt/src/fixture.rs", "l002_hasher.rs");
    assert!(
        r.violations.iter().any(|v| v.rule == "L002"),
        "{:?}",
        r.violations
    );
}

#[test]
fn fixture_l003_hashmap_fails() {
    let r = lint_as("crates/exec/src/fixture.rs", "l003_hashmap.rs");
    assert!(
        r.violations.iter().filter(|v| v.rule == "L003").count() >= 2,
        "{:?}",
        r.violations
    );
}

#[test]
fn fixture_l004_wallclock_fails() {
    let r = lint_as("crates/net/src/fixture.rs", "l004_wallclock.rs");
    let kinds: Vec<_> = r
        .violations
        .iter()
        .filter(|v| v.rule == "L004")
        .map(|v| v.message.clone())
        .collect();
    assert_eq!(kinds.len(), 3, "{kinds:?}");
}

#[test]
fn fixture_l005_inversion_fails() {
    let r = lint_as("crates/core/src/fixture.rs", "l005_inversion.rs");
    let cycles: Vec<_> = r.violations.iter().filter(|v| v.rule == "L005").collect();
    assert_eq!(cycles.len(), 1, "{:?}", r.violations);
    assert!(cycles[0].message.contains("registry"));
    assert!(cycles[0].message.contains("journal"));
}

#[test]
fn fixture_l006_buffer_counter_fails() {
    let r = lint_as("crates/exec/src/fixture.rs", "l006_buffer.rs");
    let hits: Vec<_> = r.violations.iter().filter(|v| v.rule == "L006").collect();
    // Field declaration fires once; the `fetch_add` line fires both the
    // ident and the atomic-update patterns.
    assert_eq!(hits.len(), 3, "{:?}", r.violations);
    // The pragma-covered `load` is suppressed, with its justification kept.
    assert_eq!(r.suppressed.len(), 1, "{:?}", r.suppressed);
    assert!(r.suppressed[0].justification.contains("fixture"));
}

#[test]
fn fixture_l007_wallclock_fails() {
    let r = lint_as("crates/common/src/obs/fixture.rs", "l007_wallclock.rs");
    let hits: Vec<_> = r.violations.iter().filter(|v| v.rule == "L007").collect();
    // `Instant::now()` + `SystemTime::now()` fire; the pragma-covered
    // epoch anchor is suppressed and the #[cfg(test)] read is exempt.
    assert_eq!(hits.len(), 2, "{:?}", r.violations);
    assert_eq!(r.suppressed.len(), 1, "{:?}", r.suppressed);
    assert!(r.suppressed[0].justification.contains("fixture"));

    // The exec operators file is the other traced surface in scope.
    let r = lint_as("crates/exec/src/operators.rs", "l007_wallclock.rs");
    assert_eq!(r.violations.iter().filter(|v| v.rule == "L007").count(), 2);
}

#[test]
fn fixture_l008_per_row_datum_fails() {
    let r = lint_as("crates/exec/src/kernels.rs", "l008_datum.rs");
    let hits: Vec<_> = r.violations.iter().filter(|v| v.rule == "L008").collect();
    // `datum_at` + `to_rows` fire; the pragma-covered `from_rows` is
    // suppressed and the #[cfg(test)] `to_rows` is exempt.
    assert_eq!(hits.len(), 2, "{:?}", r.violations);
    assert_eq!(r.suppressed.len(), 1, "{:?}", r.suppressed);
    assert!(r.suppressed[0].justification.contains("fixture"));
}

#[test]
fn fixture_l005_closure_inversion_fails() {
    // The closure's `beta` acquisition replays at the `pool_run` call site
    // (where `alpha` is held), closing the cycle against `direct`.
    let r = lint_as("crates/core/src/fixture.rs", "l005_closure.rs");
    let cycles: Vec<_> = r.violations.iter().filter(|v| v.rule == "L005").collect();
    assert_eq!(cycles.len(), 1, "{:?}", r.violations);
    assert!(cycles[0].message.contains("alpha"));
    assert!(cycles[0].message.contains("beta"));
}

#[test]
fn fixture_l009_retry_fails_red_then_green() {
    let r = lint_as("crates/common/src/fixture.rs", "l009_retry.rs");
    let hits: Vec<_> = r.violations.iter().filter(|v| v.rule == "L009").collect();
    // Classifier exhaustiveness: is_retryable misses Parse+Internal, and
    // is_failover_retryable both hides behind a wildcard and misses them.
    assert!(hits.iter().any(|v| v.message.contains("wildcard")), "{hits:?}");
    assert!(
        hits.iter().any(|v| v.message.contains("Parse") && v.message.contains("Internal")),
        "{hits:?}"
    );
    // Retry-loop soundness: one unguarded loop; the guarded one is clean.
    assert_eq!(
        hits.iter().filter(|v| v.message.contains("retry loop")).count(),
        1,
        "{hits:?}"
    );
    // Green half: the pragma'd copy of the same loop is suppressed — and
    // stripping the pragma makes it fail again.
    assert_eq!(r.suppressed.len(), 1, "{:?}", r.suppressed);
    let stripped = fixture("l009_retry.rs").replace("// ic-lint: allow(L009)", "//");
    let r = lint_files(&[FileInput { path: "crates/common/src/fixture.rs".into(), source: stripped }]);
    assert_eq!(
        r.violations.iter().filter(|v| v.message.contains("retry loop")).count(),
        2,
        "{:?}",
        r.violations
    );
}

#[test]
fn fixture_l010_indexing_fails_red_then_green() {
    let r = lint_as("crates/net/src/fixture.rs", "l010_indexing.rs");
    let hits: Vec<_> = r.violations.iter().filter(|v| v.rule == "L010").collect();
    // v[0], v.get(1).unwrap(), sel[0] — the accessor-based fn is clean.
    assert_eq!(hits.len(), 3, "{:?}", r.violations);
    assert!(hits.iter().any(|v| v.message.contains(".get().unwrap()")));
    assert_eq!(r.suppressed.len(), 1, "{:?}", r.suppressed);

    let stripped = fixture("l010_indexing.rs").replace("// ic-lint: allow(L010)", "//");
    let r = lint_files(&[FileInput { path: "crates/net/src/fixture.rs".into(), source: stripped }]);
    assert_eq!(r.violations.iter().filter(|v| v.rule == "L010").count(), 4);

    // The same raw reads inside the kernel plane are legal per se but must
    // consult validity — which `leak` never does.
    let r = lint_as("crates/common/src/eval.rs", "l010_indexing.rs");
    assert!(
        r.violations.iter().any(|v| v.rule == "L010" && v.message.contains("validity")),
        "{:?}",
        r.violations
    );
}

#[test]
fn fixture_l011_obsnames_fails_red_then_green() {
    let doc = ObsDoc::parse(
        "OBSERVABILITY.md",
        "Registered: `exec.fixture.documented` and `exec.fixture.orphan`.",
    );
    let input = |source: String| {
        vec![FileInput { path: "crates/exec/src/fixture.rs".into(), source }]
    };
    let opts = LintOptions { obs_doc: Some(doc.clone()), check_obs_unused: true };
    let r = lint_files_with(&input(fixture("l011_obsnames.rs")), &opts);
    let hits: Vec<_> = r.violations.iter().filter(|v| v.rule == "L011").collect();
    // Forward: `exec.fixture.rogue` is unregistered. Reverse: the registry
    // entry `exec.fixture.orphan` is never emitted (reported at the doc).
    assert_eq!(hits.len(), 2, "{:?}", r.violations);
    assert!(hits.iter().any(|v| v.message.contains("rogue")));
    assert!(hits.iter().any(|v| v.message.contains("orphan") && v.path == "OBSERVABILITY.md"));
    assert_eq!(r.suppressed.len(), 1, "{:?}", r.suppressed);

    let stripped = fixture("l011_obsnames.rs").replace("// ic-lint: allow(L011)", "//");
    let r = lint_files_with(&input(stripped), &opts);
    assert_eq!(r.violations.iter().filter(|v| v.rule == "L011").count(), 3);
}

#[test]
fn fixture_l012_alloc_fails_red_then_green() {
    let r = lint_as("crates/exec/src/kernels.rs", "l012_alloc.rs");
    let hits: Vec<_> = r.violations.iter().filter(|v| v.rule == "L012").collect();
    // vec! + format! in the loop; the with_capacity outside loops is fine.
    assert_eq!(hits.len(), 2, "{:?}", r.violations);
    assert_eq!(r.suppressed.len(), 1, "{:?}", r.suppressed);

    let stripped = fixture("l012_alloc.rs").replace("// ic-lint: allow(L012)", "//");
    let r = lint_files(&[FileInput { path: "crates/exec/src/kernels.rs".into(), source: stripped }]);
    assert_eq!(r.violations.iter().filter(|v| v.rule == "L012").count(), 3);
}

#[test]
fn fixture_reachability_flags_cold_file_helper() {
    // Together: the helper in crates/plan (out of every path scope) is
    // reachable from the kernel loop, so its unwrap, datum_at and format!
    // all fire — each message naming the reachability route.
    let both = vec![
        FileInput {
            path: "crates/exec/src/kernels.rs".into(),
            source: fixture("reach_kernel.rs"),
        },
        FileInput { path: "crates/plan/src/helper.rs".into(), source: fixture("reach_helper.rs") },
    ];
    let r = lint_files(&both);
    let at_helper: Vec<_> =
        r.violations.iter().filter(|v| v.path.contains("helper.rs")).collect();
    assert!(
        at_helper.iter().any(|v| v.rule == "L001" && v.message.contains("reachable")),
        "{:?}",
        r.violations
    );
    assert!(
        at_helper.iter().any(|v| v.rule == "L008" && v.message.contains("reachable")),
        "{:?}",
        r.violations
    );
    assert!(
        at_helper.iter().any(|v| v.rule == "L012" && v.message.contains("per-element")),
        "{:?}",
        r.violations
    );

    // Alone, the helper sits outside every scope: nothing fires.
    let r = lint_files(&[FileInput {
        path: "crates/plan/src/helper.rs".into(),
        source: fixture("reach_helper.rs"),
    }]);
    assert!(r.violations.is_empty(), "{:?}", r.violations);
}

#[test]
fn fixtures_out_of_scope_paths_pass() {
    // The same sources are fine where the rules don't apply.
    for (path, fixture_name) in [
        ("crates/plan/src/fixture.rs", "l001_unwrap.rs"),
        ("crates/net/src/fixture.rs", "l003_hashmap.rs"),
        ("crates/plan/src/fixture.rs", "l004_wallclock.rs"),
        ("crates/net/tests/fixture.rs", "l005_inversion.rs"),
        ("crates/core/src/fixture.rs", "l006_buffer.rs"),
        ("crates/exec/tests/fixture.rs", "l006_buffer.rs"),
        ("crates/common/src/lease.rs", "l007_wallclock.rs"),
        ("crates/common/tests/fixture.rs", "l007_wallclock.rs"),
        ("crates/exec/src/operators.rs", "l008_datum.rs"),
        ("crates/exec/tests/fixture.rs", "l008_datum.rs"),
    ] {
        let r = lint_as(path, fixture_name);
        assert!(
            r.violations.is_empty(),
            "{path} + {fixture_name}: {:?}",
            r.violations
        );
    }
}

#[test]
fn pragma_suppresses_with_justification() {
    let src = "// ic-lint: allow(L004) because the delay simulator is the wall-clock boundary\n\
               fn f() { std::thread::sleep(d); }";
    let r = lint_files(&[FileInput { path: "crates/net/src/x.rs".into(), source: src.into() }]);
    assert!(r.violations.is_empty(), "{:?}", r.violations);
    assert_eq!(r.suppressed.len(), 1);
}

#[test]
fn workspace_is_clean() {
    // The invariant the CI step enforces, also enforced under `cargo test`.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = lint_workspace(&root).expect("workspace scan");
    assert!(report.files_scanned > 20, "suspiciously few files scanned");
    let msgs: Vec<String> = report.violations.iter().map(|v| v.to_string()).collect();
    assert!(msgs.is_empty(), "workspace lint violations:\n{}", msgs.join("\n"));
}
