//! octopus-lint: workspace-specific determinism & panic-freedom analyzer.
//!
//! Ten lints (see DESIGN.md §"Statically enforced invariants"):
//!
//! | code | key                  | scope       | what it catches                           |
//! |------|----------------------|-------------|-------------------------------------------|
//! | L1   | `nondet-iter`        | kernel      | iterating `HashMap`/`HashSet` bindings    |
//! | L2   | `panic`              | library     | `unwrap`/`expect`/`panic!`/`todo!`/…      |
//! | L3   | `float-eq`           | library     | `==`/`!=` against float literals          |
//! | L4   | `wall-clock`         | kernel      | `Instant::now`/`SystemTime`/`thread_rng`  |
//! | L5   | `undocumented-unsafe`| all         | `unsafe` block/impl without `// SAFETY:`  |
//! | L6   | `btree-alloc`        | kernel      | fresh `BTreeMap`/`BTreeSet` construction  |
//! | L7   | `hot-alloc`          | kernel      | allocation reachable from an entry point  |
//! | L8   | `unchecked-arith`    | auction/memo| raw `+`/`*`/`<<` on price/value integers  |
//! | L9   | `atomic-ordering`    | kernel      | `Ordering::Relaxed` without a proof       |
//! | L10  | `env-once`           | kernel+lib  | `env::var` outside a `OnceLock` reader    |
//!
//! L1–L6 and L8–L10 are per-file token/parse checks. L7 is
//! *interprocedural*: every file is parsed into items ([`parser`]), the
//! workspace call graph is built ([`callgraph`]), and allocation sites are
//! flagged only in functions reachable from the kernel entry points
//! declared in `lint-entrypoints.toml` at the workspace root.
//!
//! Violations on a line carrying (or following) a
//! `// lint:allow(<key>) — <reason>` pragma are suppressed; everything else
//! is compared against the checked-in `lint-baseline.txt` and any count
//! above baseline fails the run.

pub mod baseline;
pub mod callgraph;
pub mod lexer;
pub mod lints;
pub mod parser;
pub mod report;

use baseline::Baseline;
use callgraph::{parse_entrypoints, CallGraph};
use lints::{analyze_file, Lint, Violation};
use report::{FileReport, Report};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// The entry-point manifest, relative to the workspace root.
const ENTRYPOINTS: &str = "lint-entrypoints.toml";

/// Directories never walked: build output, vendored stand-ins, VCS, and
/// `fixtures` (lint-test inputs that violate the lints on purpose).
const SKIP_DIRS: &[&str] = &[
    "target", "vendor", ".git", ".github", "results", "docs", "fixtures",
];

/// Recursively collects workspace `.rs` files, sorted by relative path.
pub fn collect_rs_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let mut entries: Vec<_> = std::fs::read_dir(&dir)?.collect::<Result<_, _>>()?;
        entries.sort_by_key(std::fs::DirEntry::file_name);
        for e in entries {
            let path = e.path();
            let name = e.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if !name.starts_with('.') && !SKIP_DIRS.contains(&name.as_ref()) {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    Ok(files)
}

/// The full workspace analysis: the baseline-tagged report plus the call
/// graph (for `--callgraph-dot` and the tests).
pub struct Analysis {
    /// Per-file findings tagged against the baseline.
    pub report: Report,
    /// The workspace call graph with reachability from the declared
    /// entry points.
    pub graph: CallGraph,
}

/// Lints every workspace file under `root` against `baseline`, including
/// the interprocedural pass.
///
/// Walks the workspace `.rs` files. Kernel entry points come from
/// `<root>/lint-entrypoints.toml`; if the manifest is absent the call
/// graph is still built but nothing is reachable, so L7 stays silent. A
/// spec that matches no workspace fn is an L7 finding on its manifest line
/// that no baseline tolerates.
pub fn analyze(root: &Path, baseline: &Baseline) -> std::io::Result<Analysis> {
    let files = collect_rs_files(root)?;

    // Pass 1: per-file lints + parses.
    let mut rels: Vec<String> = Vec::with_capacity(files.len());
    let mut analyses = Vec::with_capacity(files.len());
    for path in &files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        let src = std::fs::read_to_string(path)?;
        analyses.push(analyze_file(&rel, &src));
        rels.push(rel);
    }

    // Pass 2: call graph + reachability-gated L7.
    let manifest = std::fs::read_to_string(root.join(ENTRYPOINTS)).unwrap_or_default();
    let entry_specs = parse_entrypoints(&manifest);
    let parsed: Vec<(&str, &parser::ParsedFile)> = rels
        .iter()
        .zip(&analyses)
        .map(|(rel, a)| (rel.as_str(), &a.parsed))
        .collect();
    let graph = CallGraph::build(&parsed, &entry_specs);

    let mut report = Report::default();
    if !graph.unmatched.is_empty() {
        report.files.push(FileReport {
            path: ENTRYPOINTS.to_string(),
            violations: unmatched_entrypoints(&manifest, &graph),
        });
    }
    for (file_idx, (rel, analysis)) in rels.iter().zip(&analyses).enumerate() {
        let mut violations = analysis.violations.clone();
        violations.extend(hot_alloc_for_file(rel, file_idx, analysis, &graph));
        violations.sort_by(|a, b| a.line.cmp(&b.line).then(a.lint.cmp(&b.lint)));
        if violations.is_empty() {
            continue;
        }
        // Baseline comparison: within one (file, lint) cell the first
        // `allowance` findings (in line order) are tolerated, the rest are
        // new. Count-based rather than line-based so unrelated edits moving
        // lines around do not churn the baseline.
        let mut used: BTreeMap<Lint, u32> = BTreeMap::new();
        let tagged = violations
            .into_iter()
            .map(|v| {
                let u = used.entry(v.lint).or_insert(0);
                *u += 1;
                let is_new = *u > baseline.allowance(rel, v.lint);
                (v, is_new)
            })
            .collect();
        report.files.push(FileReport {
            path: rel.clone(),
            violations: tagged,
        });
    }
    report.files.sort_by(|a, b| a.path.cmp(&b.path));
    Ok(Analysis { report, graph })
}

/// One always-new L7 finding per entry spec that matched no workspace fn,
/// on the manifest line that declares it: a renamed or deleted entry point
/// would otherwise silently drop its hot path from L7.
fn unmatched_entrypoints(manifest: &str, graph: &CallGraph) -> Vec<(Violation, bool)> {
    graph
        .unmatched
        .iter()
        .map(|spec| {
            let quoted = format!("\"{spec}\"");
            let line = manifest
                .lines()
                .position(|l| l.split('#').next().unwrap_or("").contains(&quoted))
                .map_or(0, |i| i as u32 + 1);
            let message = format!(
                "entry point `{spec}` matches no workspace fn; L7 no longer covers \
                 its hot path (rename or remove the spec)"
            );
            let v = Violation {
                lint: Lint::HotAlloc,
                line,
                message,
            };
            (v, true)
        })
        .collect()
}

/// Lints every workspace file under `root` against `baseline`.
pub fn run(root: &Path, baseline: &Baseline) -> std::io::Result<Report> {
    analyze(root, baseline).map(|a| a.report)
}

/// Computes the L7 findings of one kernel file: allocation sites in every
/// reachable function, minus fn-level and line-level pragma waivers.
fn hot_alloc_for_file(
    rel: &str,
    file_idx: usize,
    analysis: &lints::FileAnalysis,
    graph: &CallGraph,
) -> Vec<Violation> {
    if !lints::classify(rel).kernel {
        return Vec::new();
    }
    let containers = lints::container_bindings(&analysis.tokens);
    let mut out = Vec::new();
    for (fn_idx, f) in analysis.parsed.fns.iter().enumerate() {
        let Some(body) = f.body else { continue };
        let Some(node) = graph.node_of(file_idx, fn_idx) else {
            continue;
        };
        if !graph.is_reachable(node) {
            continue;
        }
        // Fn-level waiver: a hot-alloc pragma on the `fn` line (or the line
        // above, which the pragma table maps onto it) covers the body.
        if analysis
            .allowed
            .get(&f.line)
            .is_some_and(|s| s.contains(&Lint::HotAlloc))
        {
            continue;
        }
        // Nested fns are their own nodes; exclude their spans.
        let nested: Vec<(usize, usize)> = analysis
            .parsed
            .fns
            .iter()
            .enumerate()
            .filter(|&(other, _)| other != fn_idx)
            .filter_map(|(_, o)| o.body)
            .filter(|&(s, e)| s > body.0 && e < body.1)
            .collect();
        let chain = graph.chain(node, 4);
        lints::hot_alloc_sites(
            &analysis.tokens,
            &analysis.test_mask,
            body,
            &nested,
            &containers,
            &chain,
            &mut out,
        );
    }
    // Line-level pragmas.
    out.retain(|v| {
        !analysis
            .allowed
            .get(&v.line)
            .is_some_and(|s| s.contains(&v.lint))
    });
    out
}

/// Current violation counts per `(file, lint)`, for `--update-baseline`.
pub fn current_counts(report: &Report) -> BTreeMap<(String, Lint), u32> {
    let mut counts: BTreeMap<(String, Lint), u32> = BTreeMap::new();
    // Unmatched entry points are never tolerated, so never baselined.
    for f in report.files.iter().filter(|f| f.path != ENTRYPOINTS) {
        for (v, _) in &f.violations {
            *counts.entry((f.path.clone(), v.lint)).or_insert(0) += 1;
        }
    }
    counts
}

/// Walks upward from `start` to the first directory whose `Cargo.toml`
/// declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}
