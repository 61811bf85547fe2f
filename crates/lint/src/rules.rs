//! The lint rules and their scopes.
//!
//! | Rule | Invariant |
//! |------|-----------|
//! | L001 | no `unwrap()`/`expect()` in non-test code of `ic-net`/`ic-exec`/`ic-core`/`ic-sql`/`ic-fuzz`/bench lib — **or in any fn reachable from a kernel/operator entry point** |
//! | L002 | single-hash contract: no hasher construction outside `ic_common::hash` |
//! | L003 | no std `HashMap`/`HashSet` in `ic-exec`/`ic-opt`/`ic-storage` hot paths |
//! | L004 | no wall-clock (`Instant::now`/`SystemTime`/`thread::sleep`) in simulation-clock code |
//! | L005 | no cycles in the cross-crate lock-acquisition-order graph (held sets flow through deferred closures) |
//! | L006 | buffering operators in `ic-exec` grow buffers only through the `MemoryLease` protocol (no private `buffered_rows`/`buffered_cells` counters) |
//! | L007 | traced code paths (`ic_common::obs`, `ic-exec` operators) read time only via `Trace::now_ns`, never `Instant::now`/`SystemTime` |
//! | L008 | no per-row `Datum` materialization in kernel hot paths — `ic_exec::kernels` itself plus every fn **call-graph-reachable** from a kernel |
//! | L009 | error-classification soundness: `IcError::is_retryable`/`is_failover_retryable` classify every variant explicitly (no `_` arm), and no retry loop can re-enter on an unclassified error |
//! | L010 | columnar-plane discipline: no raw `[]`/`get().unwrap()` indexing of column buffers or selection vectors outside `ic_common::col` + the kernel/eval plane; vectorized readers check validity |
//! | L011 | observability-name registry: every metric/event name literal appears in OBSERVABILITY.md and vice versa |
//! | L012 | no heap allocation reachable from kernel inner loops (the kernels-bench reuse contract) |
//!
//! L001/L008's hot-path classification is *semantic*: the engine parses every
//! file into items ([`crate::parser`]), builds a workspace symbol table
//! ([`crate::symbols`]) and call graph ([`crate::callgraph`]), and marks as
//! hot everything reachable from the kernel entry points
//! (`crates/exec/src/kernels.rs`, `crates/common/src/eval.rs`) and the operator
//! entry points (`next_batch`/`next_rows` in `operators.rs`). A helper in any
//! crate called from a kernel is policed like the kernel itself.
//!
//! Any rule except L005 can be suppressed per-site with a pragma that must
//! carry a justification:
//!
//! ```text
//! // ic-lint: allow(L001) because the invariant X makes this infallible
//! ```
//!
//! The pragma covers its own line and the next line. A pragma without a
//! justification (no `because ...`) is itself a violation (`L000`).

use crate::callgraph::CallGraph;
use crate::dataflow;
use crate::parser::{parse_tokens, ParsedFile};
use crate::symbols::SymbolTable;
use crate::tokenizer::{strip_test_regions, tokenize, Comment, Tok, TokKind};
use std::collections::{HashMap, HashSet};

pub const RULES: [&str; 12] = [
    "L001", "L002", "L003", "L004", "L005", "L006", "L007", "L008", "L009", "L010", "L011",
    "L012",
];

/// One lint finding.
#[derive(Debug, Clone)]
pub struct Violation {
    pub rule: &'static str,
    pub path: String,
    pub line: u32,
    pub message: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: {} {}", self.path, self.line, self.rule, self.message)
    }
}

/// A finding suppressed by a pragma, kept for `--verbose` reporting.
#[derive(Debug, Clone)]
pub struct Suppressed {
    pub violation: Violation,
    pub justification: String,
}

/// Result of linting a set of files.
#[derive(Debug, Default)]
pub struct Report {
    pub violations: Vec<Violation>,
    pub suppressed: Vec<Suppressed>,
    pub files_scanned: usize,
}

/// One source file handed to the engine. `path` should be workspace-relative
/// with forward slashes — rule scoping is derived from it.
#[derive(Debug, Clone)]
pub struct FileInput {
    pub path: String,
    pub source: String,
}

/// The observability-name registry (L011), parsed from OBSERVABILITY.md:
/// every backticked dotted lowercase name, with the line it appears on.
#[derive(Debug, Clone, Default)]
pub struct ObsDoc {
    pub path: String,
    pub names: Vec<(String, u32)>,
}

impl ObsDoc {
    pub fn parse(path: &str, content: &str) -> ObsDoc {
        let mut names = Vec::new();
        let mut seen = HashSet::new();
        for (idx, line) in content.lines().enumerate() {
            for (si, seg) in line.split('`').enumerate() {
                // Odd segments are inside backticks.
                if si % 2 == 1 && is_metric_name(seg) && seen.insert(seg.to_string()) {
                    names.push((seg.to_string(), idx as u32 + 1));
                }
            }
        }
        ObsDoc { path: path.to_string(), names }
    }

    fn contains(&self, name: &str) -> bool {
        self.names.iter().any(|(n, _)| n == name)
    }
}

/// A dotted lowercase metric/event name: `seg(.seg)+` where each segment is
/// `[a-z0-9_]+` and the first starts with a letter.
fn is_metric_name(s: &str) -> bool {
    if !s.contains('.') {
        return false;
    }
    let mut first = true;
    for part in s.split('.') {
        if part.is_empty() {
            return false;
        }
        let c0 = part.chars().next().unwrap();
        if first && !c0.is_ascii_lowercase() {
            return false;
        }
        if !part.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_') {
            return false;
        }
        first = false;
    }
    true
}

/// Engine options beyond the file list.
#[derive(Debug, Default)]
pub struct LintOptions {
    /// The L011 registry. When absent, L011 is skipped entirely.
    pub obs_doc: Option<ObsDoc>,
    /// Also report registry names never used in code (the reverse direction
    /// of L011). Only meaningful for full-workspace scans.
    pub check_obs_unused: bool,
}

/// Where a file sits in the workspace, for rule scoping.
#[derive(Debug, Clone)]
struct FileCtx {
    /// Crate directory name under `crates/` (e.g. "net"), if any.
    krate: Option<String>,
    /// True for non-test production code (`src/`, not `tests/`/`benches/`).
    is_src: bool,
    /// File name (last path component).
    file: String,
}

fn classify(path: &str) -> FileCtx {
    let p = path.replace('\\', "/");
    let file = p.rsplit('/').next().unwrap_or("").to_string();
    let mut krate = None;
    let mut is_src = false;
    if let Some(rest) = p.strip_prefix("crates/") {
        if let Some((name, tail)) = rest.split_once('/') {
            krate = Some(name.to_string());
            is_src = tail.starts_with("src/");
        }
    } else if p.starts_with("src/") {
        krate = Some("root".to_string());
        is_src = true;
    }
    FileCtx { krate, is_src, file }
}

fn in_scope(rule: &str, ctx: &FileCtx, path: &str) -> bool {
    let krate = match &ctx.krate {
        Some(k) => k.as_str(),
        None => return false,
    };
    if krate == "lint" {
        return false; // the tool does not police itself
    }
    let norm = path.replace('\\', "/");
    match rule {
        // Panic-freedom: the distributed stack, the SQL front end, the
        // fuzzer, and the bench *library* (bin/ harness entry points keep
        // the unwrap-on-setup convention).
        "L001" => {
            ctx.is_src
                && (matches!(krate, "net" | "exec" | "core" | "sql" | "fuzz")
                    || (krate == "bench" && !norm.contains("/bin/")))
        }
        "L002" => ctx.is_src && krate != "common",
        "L003" => ctx.is_src && matches!(krate, "exec" | "opt" | "storage"),
        "L004" => {
            (ctx.is_src && krate == "net")
                || norm.ends_with("crates/exec/src/runtime.rs")
                || (krate == "exec" && ctx.is_src && ctx.file == "runtime.rs")
        }
        "L005" => ctx.is_src,
        "L006" => ctx.is_src && krate == "exec",
        "L007" => {
            (ctx.is_src && krate == "common" && norm.contains("src/obs/"))
                || (ctx.is_src && krate == "exec" && ctx.file == "operators.rs")
        }
        "L008" => ctx.is_src && krate == "exec" && ctx.file == "kernels.rs",
        // Retry-loop soundness applies to all production code; the
        // classifier-exhaustiveness half anchors to the IcError definition.
        "L009" => ctx.is_src,
        "L010" => ctx.is_src,
        "L011" => ctx.is_src,
        "L012" => ctx.is_src,
        _ => false,
    }
}

/// Pragmas parsed from a file's line comments.
#[derive(Debug, Default)]
struct Pragmas {
    /// (rule, line) pairs covered by an `allow` pragma, with justification.
    allows: Vec<(String, u32, String)>,
    /// Malformed pragmas (missing justification / unknown rule).
    errors: Vec<(u32, String)>,
}

fn parse_pragmas(comments: &[Comment]) -> Pragmas {
    let mut out = Pragmas::default();
    for c in comments {
        let Some(pos) = c.text.find("ic-lint:") else { continue };
        let body = c.text[pos + "ic-lint:".len()..].trim();
        let Some(args) = body.strip_prefix("allow") else {
            out.errors.push((c.line, format!("unknown ic-lint directive: '{body}'")));
            continue;
        };
        let args = args.trim_start();
        let Some(close) = args.find(')') else {
            out.errors.push((c.line, "malformed allow pragma: missing ')'".into()));
            continue;
        };
        let rules_part = args
            .strip_prefix('(')
            .map(|s| &s[..close.saturating_sub(1)])
            .unwrap_or("");
        let tail = args[close + 1..].trim();
        let justification = match tail.strip_prefix("because") {
            Some(j) if !j.trim().is_empty() => j.trim().to_string(),
            _ => {
                out.errors.push((
                    c.line,
                    "allow pragma requires a justification: `// ic-lint: allow(L00x) because ...`"
                        .into(),
                ));
                continue;
            }
        };
        for rule in rules_part.split(',').map(str::trim).filter(|r| !r.is_empty()) {
            if !RULES.contains(&rule) {
                out.errors.push((c.line, format!("unknown rule '{rule}' in allow pragma")));
                continue;
            }
            out.allows.push((rule.to_string(), c.line, justification.clone()));
        }
    }
    out
}

impl Pragmas {
    /// Justification if `rule` is allowed at `line` (pragma on the same or
    /// the preceding line).
    fn allowed(&self, rule: &str, line: u32) -> Option<&str> {
        self.allows
            .iter()
            .find(|(r, l, _)| r == rule && (*l == line || l + 1 == line))
            .map(|(_, _, j)| j.as_str())
    }
}

fn is_kernel_file(path: &str) -> bool {
    path.replace('\\', "/").ends_with("crates/exec/src/kernels.rs")
}

fn is_eval_file(path: &str) -> bool {
    path.replace('\\', "/").ends_with("crates/common/src/eval.rs")
}

fn is_operators_file(path: &str) -> bool {
    path.replace('\\', "/").ends_with("crates/exec/src/operators.rs")
}

/// The columnar data layer itself — where the row/Datum shims are *defined*
/// and raw buffer access is the implementation, not a leak.
fn is_data_layer(path: &str) -> bool {
    let p = path.replace('\\', "/");
    p.ends_with("crates/common/src/col.rs")
        || p.ends_with("crates/common/src/datum.rs")
        || p.ends_with("crates/common/src/row.rs")
}

/// Files sanctioned for raw `[]` access to column buffers (L010): the data
/// layer plus the vectorized kernel/eval plane (which instead must prove it
/// checks validity).
fn l010_sanctioned(path: &str) -> bool {
    is_data_layer(path) || is_kernel_file(path) || is_eval_file(path)
}

/// Lint a set of files; rules are scoped by each file's path.
pub fn lint_files(files: &[FileInput]) -> Report {
    lint_files_with(files, &LintOptions::default())
}

/// Lint with options (observability registry, reverse-doc checking).
pub fn lint_files_with(files: &[FileInput], opts: &LintOptions) -> Report {
    let mut report = Report::default();

    // ---- Phase 1: parse every non-lint file into items. ----
    struct Entry {
        ctx: FileCtx,
        parsed: ParsedFile,
        pragmas: Pragmas,
    }
    let mut entries: Vec<Entry> = Vec::new();
    for f in files {
        let ctx = classify(&f.path);
        report.files_scanned += 1;
        if ctx.krate.as_deref() == Some("lint") {
            // The tool does not police itself (its sources and docs quote
            // the very patterns the rules ban).
            continue;
        }
        let (all_toks, comments) = tokenize(&f.source);
        let toks = strip_test_regions(&all_toks);
        let parsed = parse_tokens(&f.path, toks, comments);
        let pragmas = parse_pragmas(&parsed.comments);
        entries.push(Entry { ctx, parsed, pragmas });
    }

    // ---- Phase 2: symbol table, call graph, hot sets. ----
    let parsed_files: Vec<&ParsedFile> = entries.iter().map(|e| &e.parsed).collect();
    let syms = SymbolTable::build_refs(&parsed_files);
    let graph = CallGraph::build_refs(&parsed_files, &syms);

    let mut kernel_roots: Vec<usize> = Vec::new();
    let mut entry_roots: Vec<usize> = Vec::new();
    for (id, sym) in syms.fns.iter().enumerate() {
        if is_kernel_file(&sym.path) {
            kernel_roots.push(id);
            entry_roots.push(id);
        } else if is_eval_file(&sym.path)
            || (is_operators_file(&sym.path)
                && matches!(sym.name.as_str(), "next_batch" | "next_rows"))
        {
            entry_roots.push(id);
        }
    }
    let l001_hot = graph.reachable(&entry_roots);
    let l008_hot = graph.reachable(&kernel_roots);
    let loop_hot = graph.loop_hot(&kernel_roots);

    // fn ids per parsed-file index.
    let mut fns_of_file: HashMap<usize, Vec<usize>> = HashMap::new();
    for (id, sym) in syms.fns.iter().enumerate() {
        fns_of_file.entry(sym.file).or_default().push(id);
    }

    // ---- Phase 3: per-file findings. ----
    let mut lock_edges: Vec<crate::lockgraph::LockEdge> = Vec::new();
    let mut obs_names_used: HashSet<String> = HashSet::new();

    for (fi, e) in entries.iter().enumerate() {
        let path = &e.parsed.path;
        let ctx = &e.ctx;
        let toks = &e.parsed.toks;
        for (line, msg) in &e.pragmas.errors {
            report.violations.push(Violation {
                rule: "L000",
                path: path.clone(),
                line: *line,
                message: msg.clone(),
            });
        }

        let mut findings: Vec<(&'static str, u32, String)> = Vec::new();
        // Findings from per-fn semantic passes carry the enclosing fn's
        // signature line: a pragma above the `fn` covers the whole body.
        let mut fn_findings: Vec<(&'static str, u32, String, u32)> = Vec::new();
        if in_scope("L001", ctx, path) {
            findings.extend(rule_l001(toks));
        }
        if in_scope("L002", ctx, path) {
            findings.extend(rule_l002(toks));
        }
        if in_scope("L003", ctx, path) {
            findings.extend(rule_l003(toks));
        }
        if in_scope("L004", ctx, path) {
            findings.extend(rule_l004(toks));
        }
        if in_scope("L006", ctx, path) {
            findings.extend(rule_l006(toks));
        }
        if in_scope("L007", ctx, path) {
            findings.extend(rule_l007(toks));
        }
        if in_scope("L008", ctx, path) {
            findings.extend(rule_l008(toks));
        }
        if in_scope("L005", ctx, path) {
            lock_edges.extend(crate::lockgraph::extract_edges(path, toks));
        }

        // --- Semantic passes over this file's fns. ---
        let file_fn_ids: &[usize] = fns_of_file.get(&fi).map(|v| v.as_slice()).unwrap_or(&[]);
        for &id in file_fn_ids {
            let f = &e.parsed.fns[syms.fns[id].fn_idx];
            let Some(body) = f.body else { continue };

            // L001 via reachability: hot fns outside the path-scoped crates.
            if ctx.is_src && l001_hot.contains(&id) && !in_scope("L001", ctx, path) {
                for (_, line, msg) in rule_l001(&toks[body.0..body.1]) {
                    fn_findings.push((
                        "L001",
                        line,
                        format!("{msg} [fn `{}` is reachable from a kernel/operator entry point]", f.name),
                        f.line,
                    ));
                }
            }
            // L008 via reachability: hot fns outside kernels.rs, except the
            // data layer (defines the shims) and the operator boundary.
            if ctx.is_src
                && l008_hot.contains(&id)
                && !is_kernel_file(path)
                && !is_data_layer(path)
                && !is_operators_file(path)
            {
                for (_, line, msg) in rule_l008(&toks[body.0..body.1]) {
                    fn_findings.push((
                        "L008",
                        line,
                        format!("{msg} [fn `{}` is reachable from a kernel]", f.name),
                        f.line,
                    ));
                }
            }
            // L009 (b): retry loops must classify before re-entering.
            if in_scope("L009", ctx, path) {
                for (line, msg) in dataflow::retry_loop_findings(toks, body) {
                    fn_findings.push(("L009", line, msg, f.line));
                }
            }
            // L010: columnar-plane discipline.
            if in_scope("L010", ctx, path) {
                let facts = dataflow::column_facts(toks, body);
                if l010_sanctioned(path) {
                    // Inside the vectorized plane: raw reads are the point,
                    // but they must be validity-checked. The data layer
                    // (col.rs) defines the accessors and is fully exempt.
                    if (is_kernel_file(path) || is_eval_file(path))
                        && !facts.buf_vars.is_empty()
                        && !facts.index_sites.is_empty()
                        && !facts.mentions_validity
                    {
                        let (var, line, _) = &facts.index_sites[0];
                        fn_findings.push((
                            "L010",
                            *line,
                            format!(
                                "fn `{}` reads typed column buffer `{var}` without consulting \
                                 the validity bitmap (is_valid)",
                                f.name
                            ),
                            f.line,
                        ));
                    }
                } else {
                    for (var, line, kind) in &facts.index_sites {
                        let how = match kind {
                            dataflow::IndexKind::Bracket => "[]",
                            dataflow::IndexKind::GetUnwrap => ".get().unwrap()",
                        };
                        fn_findings.push((
                            "L010",
                            *line,
                            format!(
                                "raw {how} indexing of column buffer/selection `{var}` outside \
                                 ic_common::col and the kernel plane; use Column accessors or \
                                 sanctioned iteration helpers",
                            ),
                            f.line,
                        ));
                    }
                }
            }
            // L012: allocations in kernel loops, and anywhere in loop-hot fns.
            if ctx.is_src {
                if is_kernel_file(path) {
                    for lr in dataflow::loop_ranges(toks, body) {
                        for (line, what) in dataflow::alloc_sites(toks, lr) {
                            fn_findings.push((
                                "L012",
                                line,
                                format!("{what} inside a kernel inner loop (fn `{}`)", f.name),
                                f.line,
                            ));
                        }
                    }
                } else if loop_hot.contains(&id) {
                    for (line, what) in dataflow::alloc_sites(toks, body) {
                        fn_findings.push((
                            "L012",
                            line,
                            format!(
                                "{what} in fn `{}`, which runs per-element under a kernel loop",
                                f.name
                            ),
                            f.line,
                        ));
                    }
                }
            }
        }

        // L009 (a): classifier exhaustiveness, anchored to the IcError enum.
        if in_scope("L009", ctx, path) {
            findings.extend(rule_l009_classifiers(&e.parsed));
        }

        // L011 forward: metric/event name literals must be in the registry.
        if let Some(doc) = &opts.obs_doc {
            if in_scope("L011", ctx, path) {
                for (name, line) in metric_name_literals(toks) {
                    obs_names_used.insert(name.clone());
                    if !doc.contains(&name) {
                        findings.push((
                            "L011",
                            line,
                            format!(
                                "metric/event name \"{name}\" is not documented in {}; \
                                 register it or fix the drift",
                                doc.path
                            ),
                        ));
                    }
                }
            }
        }

        let mut all: Vec<(&'static str, u32, String, Option<u32>)> =
            findings.into_iter().map(|(r, l, m)| (r, l, m, None)).collect();
        all.extend(fn_findings.into_iter().map(|(r, l, m, fl)| (r, l, m, Some(fl))));
        for (rule, line, message, fn_line) in all {
            let v = Violation { rule, path: path.clone(), line, message };
            let just = e
                .pragmas
                .allowed(rule, line)
                .or_else(|| fn_line.and_then(|fl| e.pragmas.allowed(rule, fl)));
            match just {
                Some(j) => report
                    .suppressed
                    .push(Suppressed { violation: v, justification: j.to_string() }),
                None => report.violations.push(v),
            }
        }
    }

    // ---- Phase 4: cross-file rules. ----
    // L005: build the global lock graph and report cycles.
    for cycle in crate::lockgraph::find_cycles(&lock_edges) {
        report.violations.push(Violation {
            rule: "L005",
            path: cycle.path.clone(),
            line: cycle.line,
            message: cycle.message,
        });
    }
    // L011 reverse: registry names never emitted by any scanned file.
    if opts.check_obs_unused {
        if let Some(doc) = &opts.obs_doc {
            for (name, line) in &doc.names {
                if !obs_names_used.contains(name) {
                    report.violations.push(Violation {
                        rule: "L011",
                        path: doc.path.clone(),
                        line: *line,
                        message: format!(
                            "registry name `{name}` is not emitted anywhere in the scanned \
                             code; remove it from the doc or restore the instrumentation"
                        ),
                    });
                }
            }
        }
    }
    report
}

/// String literals passed as the first argument of a metric/event call:
/// `.counter("a.b", ...)`, `.gauge(`, `.histogram(`, `.event(`.
fn metric_name_literals(toks: &[Tok]) -> Vec<(String, u32)> {
    const SINKS: [&str; 4] = ["counter", "gauge", "histogram", "event"];
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if toks[i].is_punct('.')
            && toks.get(i + 1).is_some_and(|t| {
                t.kind == TokKind::Ident && SINKS.contains(&t.text.as_str())
            })
            && toks.get(i + 2).is_some_and(|t| t.is_punct('('))
        {
            if let Some(lit) = toks.get(i + 3).filter(|t| t.kind == TokKind::Lit) {
                if is_metric_name(&lit.text) {
                    out.push((lit.text.clone(), lit.line));
                }
            }
        }
    }
    out
}

/// L009 (a): the IcError classifiers must name every variant explicitly and
/// carry no wildcard arm, so adding a variant forces a classification
/// decision instead of silently defaulting to terminal (or worse, retryable).
fn rule_l009_classifiers(parsed: &ParsedFile) -> Vec<(&'static str, u32, String)> {
    let Some(en) = parsed.enums.iter().find(|e| e.name == "IcError") else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for clf in ["is_retryable", "is_failover_retryable"] {
        let Some(f) = parsed
            .fns
            .iter()
            .find(|f| f.name == clf && f.impl_type.as_deref() == Some("IcError"))
        else {
            out.push((
                "L009",
                en.line,
                format!("enum IcError has no `fn {clf}` classifier; every variant must be \
                         provably retryable or terminal"),
            ));
            continue;
        };
        let Some((bs, be)) = f.body else { continue };
        let body = &parsed.toks[bs..be];
        // Wildcard arm `_ =>` hides unclassified variants.
        for (k, t) in body.iter().enumerate() {
            if t.is_ident("_")
                && body.get(k + 1).is_some_and(|a| a.is_punct('='))
                && body.get(k + 2).is_some_and(|a| a.is_punct('>'))
            {
                out.push((
                    "L009",
                    t.line,
                    format!("wildcard `_` arm in {clf} hides unclassified IcError variants; \
                             match every variant explicitly"),
                ));
            }
        }
        let mentioned: HashSet<&str> = body
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.as_str())
            .collect();
        let missing: Vec<&str> = en
            .variants
            .iter()
            .map(String::as_str)
            .filter(|v| !mentioned.contains(v))
            .collect();
        if !missing.is_empty() {
            out.push((
                "L009",
                f.line,
                format!(
                    "{clf} does not explicitly classify IcError variant(s): {}",
                    missing.join(", ")
                ),
            ));
        }
    }
    out
}

/// L001: `.unwrap()` / `.expect(` calls.
fn rule_l001(toks: &[Tok]) -> Vec<(&'static str, u32, String)> {
    let mut out = Vec::new();
    for w in toks.windows(3) {
        if w[0].is_punct('.')
            && w[1].kind == TokKind::Ident
            && (w[1].text == "unwrap" || w[1].text == "expect")
            && w[2].is_punct('(')
        {
            out.push((
                "L001",
                w[1].line,
                format!(
                    ".{}() in non-test code; return a typed IcError instead (or justify \
                     with an allow pragma)",
                    w[1].text
                ),
            ));
        }
    }
    out
}

/// L002: hasher construction outside `ic_common::hash` — the whole stack
/// must agree on one hash function (`Row::hash_key`) because partition
/// routing computes `hash(key) % partitions` on every site.
fn rule_l002(toks: &[Tok]) -> Vec<(&'static str, u32, String)> {
    const BANNED: [&str; 6] = [
        "DefaultHasher",
        "RandomState",
        "SipHasher",
        "SipHasher13",
        "BuildHasherDefault",
        "FxHasher",
    ];
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind == TokKind::Ident && BANNED.contains(&t.text.as_str()) {
            out.push((
                "L002",
                t.line,
                format!(
                    "`{}` outside ic_common::hash breaks the single-hash contract; \
                     hash rows via Row::hash_key / FxHashMap",
                    t.text
                ),
            ));
        }
        // `std :: hash` path reference.
        if t.is_ident("std")
            && toks.get(i + 1).is_some_and(|a| a.is_punct(':'))
            && toks.get(i + 2).is_some_and(|b| b.is_punct(':'))
            && toks.get(i + 3).is_some_and(|c| c.is_ident("hash"))
        {
            out.push((
                "L002",
                t.line,
                "`std::hash` outside ic_common::hash breaks the single-hash contract".into(),
            ));
        }
    }
    out
}

/// L003: std `HashMap`/`HashSet` (SipHash + per-process random seed) in the
/// execution/planner/storage hot paths; use `FlatMap` in per-row kernels or
/// the deterministic `FxHashMap`/`FxHashSet` elsewhere.
fn rule_l003(toks: &[Tok]) -> Vec<(&'static str, u32, String)> {
    let mut out = Vec::new();
    for t in toks {
        if t.kind == TokKind::Ident && (t.text == "HashMap" || t.text == "HashSet") {
            out.push((
                "L003",
                t.line,
                format!(
                    "std `{}` in a hot-path crate; use FlatMap (kernels) or Fx{} \
                     from ic_common",
                    t.text, t.text
                ),
            ));
        }
    }
    out
}

/// L004: wall-clock time in simulation-clock code. `ic-net`'s fault layer
/// and the exchange tick space are driven by logical ticks; real time there
/// makes fault schedules nondeterministic and figures untrustworthy.
fn rule_l004(toks: &[Tok]) -> Vec<(&'static str, u32, String)> {
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.is_ident("SystemTime") {
            out.push(("L004", t.line, "`SystemTime` in simulation-clock code".into()));
        }
        let path2 = |a: &str, b: &str| {
            t.is_ident(a)
                && toks.get(i + 1).is_some_and(|x| x.is_punct(':'))
                && toks.get(i + 2).is_some_and(|x| x.is_punct(':'))
                && toks.get(i + 3).is_some_and(|x| x.is_ident(b))
        };
        if path2("Instant", "now") {
            out.push((
                "L004",
                t.line,
                "`Instant::now()` in simulation-clock code; use logical ticks".into(),
            ));
        }
        if path2("thread", "sleep") {
            out.push((
                "L004",
                t.line,
                "`thread::sleep` in simulation-clock code; advance the virtual clock".into(),
            ));
        }
    }
    out
}

/// L006: private buffer accounting in the execution crate. Every cell an
/// operator buffers must flow through the query's `MemoryLease` (via
/// `ControlBlock::reserve`/`reserve_batch`) so the cluster governor can see
/// — and revoke — it; a side-channel `buffered_rows` counter (the pre-lease
/// design) silently escapes the shared budget.
fn rule_l006(toks: &[Tok]) -> Vec<(&'static str, u32, String)> {
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind == TokKind::Ident && (t.text == "buffered_rows" || t.text == "buffered_cells") {
            out.push((
                "L006",
                t.line,
                format!(
                    "private `{}` counter in ic-exec; account buffered cells through the \
                     query's MemoryLease (ControlBlock::reserve) so the governor can revoke them",
                    t.text
                ),
            ));
        }
        // Atomic mutation of any *buffered* counter (`foo_buffered.fetch_add(...)`)
        // is the same escape hatch under a different name.
        if t.kind == TokKind::Ident
            && t.text.contains("buffered")
            && toks.get(i + 1).is_some_and(|a| a.is_punct('.'))
            && toks.get(i + 2).is_some_and(|b| {
                b.kind == TokKind::Ident && b.text.starts_with("fetch_")
            })
        {
            out.push((
                "L006",
                t.line,
                format!(
                    "direct atomic update of `{}` bypasses the MemoryLease protocol",
                    t.text
                ),
            ));
        }
    }
    out
}

/// L007: raw wall-clock reads in traced code paths. Span timestamps must
/// all derive from one clock — the trace epoch ([`Trace::now_ns`]) — or
/// span intervals stop nesting and `Trace::validate` (and every duration in
/// `EXPLAIN ANALYZE`) becomes untrustworthy. A second motivation is cost:
/// the traced hot path budget is two clock reads per batch, and stray
/// `Instant::now()` calls sprinkled into operators silently grow it.
///
/// [`Trace::now_ns`]: ../../ic_common/obs/struct.Trace.html#method.now_ns
fn rule_l007(toks: &[Tok]) -> Vec<(&'static str, u32, String)> {
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.is_ident("SystemTime") {
            out.push((
                "L007",
                t.line,
                "`SystemTime` in a traced code path; derive timestamps from Trace::now_ns".into(),
            ));
        }
        if t.is_ident("Instant")
            && toks.get(i + 1).is_some_and(|x| x.is_punct(':'))
            && toks.get(i + 2).is_some_and(|x| x.is_punct(':'))
            && toks.get(i + 3).is_some_and(|x| x.is_ident("now"))
        {
            out.push((
                "L007",
                t.line,
                "`Instant::now()` in a traced code path; use Trace::now_ns so every \
                 timestamp shares the trace epoch"
                    .into(),
            ));
        }
    }
    out
}

/// L008: per-row `Datum` materialization in the columnar kernels. The whole
/// point of `ic_exec::kernels` is that its inner loops are typed per-column
/// sweeps; a stray `datum_at`/`to_rows` call re-boxes every value into an
/// enum and quietly reverts the loop to row-at-a-time cost. Row shims belong
/// in the operators (scan boundary, final rowset), not here. The few
/// legitimate per-group (not per-row) materializations carry pragmas.
fn rule_l008(toks: &[Tok]) -> Vec<(&'static str, u32, String)> {
    const BANNED: [&str; 6] =
        ["datum_at", "row_at", "to_rows", "from_rows", "push_datum", "eval_datum"];
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind == TokKind::Ident
            && BANNED.contains(&t.text.as_str())
            && toks.get(i + 1).is_some_and(|p| p.is_punct('('))
        {
            out.push((
                "L008",
                t.line,
                format!(
                    "per-row `{}` in a kernel hot loop boxes a Datum per row; keep kernels \
                     as typed per-column loops (row shims live in the operators)",
                    t.text
                ),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_one(path: &str, src: &str) -> Report {
        lint_files(&[FileInput { path: path.into(), source: src.into() }])
    }

    #[test]
    fn l001_flags_and_pragma_suppresses() {
        let bad = "fn f() { x.unwrap(); y.expect(\"m\"); }";
        let r = lint_one("crates/net/src/a.rs", bad);
        assert_eq!(r.violations.len(), 2);
        assert_eq!(r.violations[0].rule, "L001");

        let ok = "// ic-lint: allow(L001) because infallible by construction\nfn f() { x.unwrap(); }";
        let r = lint_one("crates/net/src/a.rs", ok);
        assert!(r.violations.is_empty());
        assert_eq!(r.suppressed.len(), 1);
        assert!(r.suppressed[0].justification.contains("infallible"));
    }

    #[test]
    fn l001_pragma_requires_justification() {
        let src = "// ic-lint: allow(L001)\nfn f() { x.unwrap(); }";
        let r = lint_one("crates/net/src/a.rs", src);
        // Both the malformed pragma and the (unsuppressed) unwrap fire.
        assert!(r.violations.iter().any(|v| v.rule == "L000"));
        assert!(r.violations.iter().any(|v| v.rule == "L001"));
    }

    #[test]
    fn l001_out_of_scope_crates_ignored() {
        let src = "fn f() { x.unwrap(); }";
        assert!(lint_one("crates/plan/src/a.rs", src).violations.is_empty());
        assert!(lint_one("crates/net/tests/a.rs", src).violations.is_empty());
        // crates/sql joined the L001 scope with the fuzzer front end.
        assert!(!lint_one("crates/sql/src/a.rs", src).violations.is_empty());
        // The fuzzer and the bench library joined with the semantic engine;
        // bench bin/ harnesses keep the unwrap-on-setup convention.
        assert!(!lint_one("crates/fuzz/src/a.rs", src).violations.is_empty());
        assert!(!lint_one("crates/bench/src/load.rs", src).violations.is_empty());
        assert!(lint_one("crates/bench/src/bin/kernels.rs", src).violations.is_empty());
    }

    #[test]
    fn l001_reachability_flags_helpers_called_from_kernels() {
        // A helper in crates/plan (never path-scoped for L001) becomes hot
        // when a kernel fn calls it.
        let kernel = FileInput {
            path: "crates/exec/src/kernels.rs".into(),
            source: "pub fn probe_rows(n: usize) { for i in 0..n { plan_helper(i); } }".into(),
        };
        let helper = FileInput {
            path: "crates/plan/src/util.rs".into(),
            source: "pub fn plan_helper(i: usize) { table().get(i).unwrap(); }".into(),
        };
        let r = lint_files(&[kernel.clone(), helper.clone()]);
        assert!(
            r.violations
                .iter()
                .any(|v| v.rule == "L001" && v.path.contains("plan") && v.message.contains("reachable")),
            "{:?}",
            r.violations
        );
        // Without the kernel caller, the same helper is out of scope.
        let r = lint_files(&[helper]);
        assert!(r.violations.is_empty(), "{:?}", r.violations);
    }

    #[test]
    fn l002_flags_hashers() {
        let src = "use std::hash::Hasher; fn f() { let h = DefaultHasher::new(); }";
        let r = lint_one("crates/opt/src/a.rs", src);
        assert!(r.violations.iter().filter(|v| v.rule == "L002").count() >= 2);
        // ic_common::hash itself is exempt.
        let r = lint_one("crates/common/src/hash.rs", src);
        assert!(r.violations.is_empty());
    }

    #[test]
    fn l003_flags_std_maps_in_hot_crates() {
        let src = "use std::collections::HashMap; fn f() { let m: HashMap<u32, u32> = HashMap::new(); }";
        let r = lint_one("crates/exec/src/kernels.rs", src);
        assert!(r.violations.iter().all(|v| v.rule == "L003"));
        assert_eq!(r.violations.len(), 3);
        // FxHashMap is fine.
        let r = lint_one("crates/exec/src/kernels.rs", "fn f() { let m = FxHashMap::default(); }");
        assert!(r.violations.is_empty());
        // ic-net is not in L003 scope.
        let r = lint_one("crates/net/src/fault.rs", src);
        assert!(r.violations.is_empty());
    }

    #[test]
    fn l004_flags_wall_clock() {
        let src = "fn f() { let t = Instant::now(); std::thread::sleep(d); let s = SystemTime::now(); }";
        let r = lint_one("crates/net/src/fault.rs", src);
        assert_eq!(r.violations.iter().filter(|v| v.rule == "L004").count(), 3);
        let r = lint_one("crates/exec/src/runtime.rs", src);
        assert_eq!(r.violations.iter().filter(|v| v.rule == "L004").count(), 3);
        // Other exec files are out of L004 scope.
        let r = lint_one("crates/exec/src/operators.rs", src);
        assert!(r.violations.iter().all(|v| v.rule != "L004"));
    }

    #[test]
    fn l006_flags_private_buffer_counters_in_exec_only() {
        let src = "struct S { buffered_rows: AtomicU64 }\n\
                   fn f(s: &S) { s.total_buffered.fetch_add(1, Ordering::Relaxed); }";
        let r = lint_one("crates/exec/src/operators.rs", src);
        assert_eq!(r.violations.iter().filter(|v| v.rule == "L006").count(), 2);
        // Lease-mediated accounting and the QueryStats field are fine.
        let ok = "fn f(ctrl: &ControlBlock) { ctrl.reserve(n)?; let p = peak_buffered_rows; }";
        assert!(lint_one("crates/exec/src/operators.rs", ok).violations.is_empty());
        // Outside ic-exec src the rule does not apply.
        assert!(lint_one("crates/core/src/cluster.rs", src).violations.is_empty());
        assert!(lint_one("crates/exec/tests/a.rs", src).violations.is_empty());
    }

    #[test]
    fn l007_flags_wall_clock_in_traced_paths() {
        let src = "fn f() { let t = Instant::now(); let s = SystemTime::now(); }";
        let r = lint_one("crates/common/src/obs/trace.rs", src);
        assert_eq!(r.violations.iter().filter(|v| v.rule == "L007").count(), 2);
        let r = lint_one("crates/exec/src/operators.rs", src);
        assert_eq!(r.violations.iter().filter(|v| v.rule == "L007").count(), 2);
        // A bare `Instant` type reference (fields, signatures) is fine —
        // only the clock *read* is policed.
        let ok = "struct S { deadline: Option<Instant> } fn g(d: Instant) {}";
        assert!(lint_one("crates/exec/src/operators.rs", ok).violations.is_empty());
        // ic-common outside obs/ and other exec files are out of scope.
        assert!(lint_one("crates/common/src/lease.rs", src).violations.is_empty());
        assert!(lint_one("crates/exec/src/kernels.rs", src)
            .violations
            .iter()
            .all(|v| v.rule != "L007"));
    }

    #[test]
    fn l008_flags_per_row_datums_in_kernels_only() {
        let src = "fn f(b: &ColumnBatch) { let d = b.col(0).datum_at(i); let rs = b.to_rows(); }";
        let r = lint_one("crates/exec/src/kernels.rs", src);
        assert_eq!(r.violations.iter().filter(|v| v.rule == "L008").count(), 2);
        // A justified pragma suppresses, keeping the why.
        let ok = "// ic-lint: allow(L008) because group keys materialize once per group\n\
                  fn f(b: &ColumnBatch) { keys.push(b.col(0).datum_at(i)); }";
        let r = lint_one("crates/exec/src/kernels.rs", ok);
        assert!(r.violations.is_empty(), "{:?}", r.violations);
        assert_eq!(r.suppressed.len(), 1);
        // Row shims in the operators (and everywhere else) are fine.
        assert!(lint_one("crates/exec/src/operators.rs", src).violations.is_empty());
        assert!(lint_one("crates/exec/tests/kernel_props.rs", src).violations.is_empty());
        // A bare ident without a call (doc text, field name) does not fire.
        let bare = "struct S { to_rows: u32 }";
        assert!(lint_one("crates/exec/src/kernels.rs", bare).violations.is_empty());
    }

    #[test]
    fn l008_reachability_extends_beyond_kernels() {
        let kernel = FileInput {
            path: "crates/exec/src/kernels.rs".into(),
            source: "pub fn agg_sweep(n: usize) { for i in 0..n { agg_step(i); } }".into(),
        };
        let helper = FileInput {
            path: "crates/common/src/agg.rs".into(),
            source: "pub fn agg_step(i: usize) { let d = col.datum_at(i); }".into(),
        };
        let r = lint_files(&[kernel, helper]);
        assert!(
            r.violations
                .iter()
                .any(|v| v.rule == "L008" && v.path.contains("agg.rs")),
            "{:?}",
            r.violations
        );
    }

    #[test]
    fn l009_classifier_exhaustiveness() {
        let bad = "pub enum IcError { Parse(String), Overloaded { ms: u64 }, Internal(String) }\n\
                   impl IcError { pub fn is_retryable(&self) -> bool { matches!(self, IcError::Overloaded { .. }) }\n\
                   pub fn is_failover_retryable(&self) -> bool { match self { IcError::Overloaded { .. } => true, _ => false } } }";
        let r = lint_one("crates/common/src/error.rs", bad);
        // is_retryable misses Parse+Internal; is_failover_retryable has a
        // wildcard AND misses the same two.
        let l9: Vec<_> = r.violations.iter().filter(|v| v.rule == "L009").collect();
        assert!(l9.iter().any(|v| v.message.contains("wildcard")), "{l9:?}");
        assert!(l9.iter().any(|v| v.message.contains("Parse")), "{l9:?}");

        let good = "pub enum IcError { Parse(String), Overloaded { ms: u64 } }\n\
                    impl IcError { pub fn is_retryable(&self) -> bool { match self { IcError::Overloaded { .. } => true, IcError::Parse(_) => false } }\n\
                    pub fn is_failover_retryable(&self) -> bool { match self { IcError::Overloaded { .. } => true, IcError::Parse(_) => false } } }";
        let r = lint_one("crates/common/src/error.rs", good);
        assert!(r.violations.is_empty(), "{:?}", r.violations);
    }

    #[test]
    fn l009_retry_loop_soundness() {
        let bad = "fn q() -> IcResult<u32> { let mut attempt = 0; loop { attempt += 1;\n\
                   match run() { Ok(v) => return Ok(v), Err(e) => { last = Some(e); } } } }";
        let r = lint_one("crates/core/src/cluster.rs", bad);
        assert!(r.violations.iter().any(|v| v.rule == "L009"), "{:?}", r.violations);

        let good = "fn q() -> IcResult<u32> { let mut attempt = 0; loop { attempt += 1;\n\
                    match run() { Ok(v) => return Ok(v),\n\
                    Err(e) if e.is_failover_retryable() => { chain.push(e); }\n\
                    Err(e) => return Err(e), } } }";
        let r = lint_one("crates/core/src/cluster.rs", good);
        assert!(r.violations.is_empty(), "{:?}", r.violations);
    }

    #[test]
    fn l010_raw_indexing_outside_plane() {
        let bad = "fn f(c: &Column) { if let ColumnData::Int(v) = &c.data { let x = v[3]; } }";
        let r = lint_one("crates/net/src/wire.rs", bad);
        assert!(r.violations.iter().any(|v| v.rule == "L010"), "{:?}", r.violations);
        // The data layer is sanctioned.
        assert!(lint_one("crates/common/src/col.rs", bad).violations.is_empty());
        // Accessor-based reads are fine anywhere.
        let ok = "fn f(c: &Column, k: usize) { let x = c.datum_at(k); }";
        assert!(lint_one("crates/net/src/wire.rs", ok).violations.is_empty());
    }

    #[test]
    fn l010_validity_required_in_kernel_plane() {
        let bad = "fn f(c: &Column) { if let ColumnData::Int(v) = &c.data { out.push(v[0]); } }";
        let r = lint_one("crates/common/src/eval.rs", bad);
        assert!(
            r.violations.iter().any(|v| v.rule == "L010" && v.message.contains("validity")),
            "{:?}",
            r.violations
        );
        let ok = "fn f(c: &Column) { if let ColumnData::Int(v) = &c.data { if c.is_valid(0) { out.push(v[0]); } } }";
        assert!(lint_one("crates/common/src/eval.rs", ok).violations.is_empty());
    }

    #[test]
    fn l011_names_must_match_registry() {
        let doc = ObsDoc::parse("OBSERVABILITY.md", "Metrics: `exec.op.rows` and `net.fault`.");
        let opts = LintOptions { obs_doc: Some(doc.clone()), check_obs_unused: false };
        let src = "fn f(m: &Metrics) { m.counter(\"exec.op.rows\", 1); m.counter(\"exec.op.bogus\", 1); }";
        let r = lint_files_with(
            &[FileInput { path: "crates/exec/src/operators.rs".into(), source: src.into() }],
            &opts,
        );
        let l11: Vec<_> = r.violations.iter().filter(|v| v.rule == "L011").collect();
        assert_eq!(l11.len(), 1, "{:?}", r.violations);
        assert!(l11[0].message.contains("exec.op.bogus"));

        // Reverse direction: `net.fault` is documented but never emitted.
        let opts = LintOptions { obs_doc: Some(doc), check_obs_unused: true };
        let src_ok = "fn f(m: &Metrics) { m.counter(\"exec.op.rows\", 1); }";
        let r = lint_files_with(
            &[FileInput { path: "crates/exec/src/operators.rs".into(), source: src_ok.into() }],
            &opts,
        );
        let l11: Vec<_> = r.violations.iter().filter(|v| v.rule == "L011").collect();
        assert_eq!(l11.len(), 1, "{:?}", r.violations);
        assert!(l11[0].message.contains("net.fault"));
        assert_eq!(l11[0].path, "OBSERVABILITY.md");
    }

    #[test]
    fn l012_allocations_in_kernel_loops() {
        let bad = "pub fn sweep(n: usize) { for i in 0..n { let s = x.to_string(); } }";
        let r = lint_one("crates/exec/src/kernels.rs", bad);
        assert!(r.violations.iter().any(|v| v.rule == "L012"), "{:?}", r.violations);
        // Outside loops, allocation in a kernel fn is setup, not per-element.
        let ok = "pub fn sweep(n: usize) { let mut out = Vec::with_capacity(n); for i in 0..n { out.push(i); } }";
        assert!(lint_one("crates/exec/src/kernels.rs", ok).violations.is_empty());
    }

    #[test]
    fn l012_loop_hot_propagates_through_calls() {
        let kernel = FileInput {
            path: "crates/exec/src/kernels.rs".into(),
            source: "pub fn sweep(n: usize) { for i in 0..n { hot_helper(i); } }".into(),
        };
        let helper = FileInput {
            path: "crates/common/src/col.rs".into(),
            source: "pub fn hot_helper(i: usize) { let v = vec![0u8; i]; }".into(),
        };
        let r = lint_files(&[kernel, helper]);
        assert!(
            r.violations
                .iter()
                .any(|v| v.rule == "L012" && v.path.contains("col.rs") && v.message.contains("per-element")),
            "{:?}",
            r.violations
        );
    }

    #[test]
    fn strings_and_comments_never_fire() {
        let src = r#"
            // x.unwrap() in a comment
            fn f() { let s = "y.unwrap() and HashMap and Instant::now"; }
        "#;
        let r = lint_one("crates/exec/src/runtime.rs", src);
        assert!(r.violations.is_empty(), "{:?}", r.violations);
    }
}
