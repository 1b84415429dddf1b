//! Tests for the interprocedural layer: the item parser (stress fixture),
//! the workspace call graph and its resolution rules, reachability-gated
//! L7 on a mini-workspace with an entry-point manifest, the L8–L10
//! fixtures, the L7–L10 JSON golden file, and the binary's new surfaces
//! (`--summary-md`, `--callgraph-dot`, `--deny-baselined`).

use octopus_lint::baseline::Baseline;
use octopus_lint::callgraph::{parse_entrypoints, CallGraph};
use octopus_lint::lexer::lex;
use octopus_lint::lints::{check_file, Lint};
use octopus_lint::parser::{parse, ParsedFile};
use octopus_lint::run;
use std::path::PathBuf;

const KERNEL: &str = "crates/core/src/fixture.rs";
const AUCTION: &str = "crates/matching/src/auction.rs";

fn fixture(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(path).unwrap()
}

fn lints_of(rel: &str, src: &str) -> Vec<Lint> {
    check_file(rel, src).into_iter().map(|v| v.lint).collect()
}

fn pf(src: &str) -> ParsedFile {
    parse(&lex(src))
}

// --------------------------------------------------------------- parser

#[test]
fn parser_collects_fns_quals_and_body_spans() {
    let p = pf(&fixture("parser_stress.rs"));
    let sigs: Vec<(&str, Option<&str>, bool)> = p
        .fns
        .iter()
        .map(|f| (f.name.as_str(), f.qual.as_deref(), f.body.is_some()))
        .collect();
    assert_eq!(
        sigs,
        [
            ("plan", Some("Planner"), true),
            ("rank", Some("Planner"), true),
            ("dispatch", Some("Planner"), true),
            ("run", Some("Runner"), false), // bodyless trait signature
            ("twice", Some("Runner"), true),
            ("helper", None, true),
            ("outer", None, true),
            ("nested", None, true),
        ],
        "fn items drifted: {sigs:?}"
    );
    // `nested` is a nested fn: its body span sits strictly inside `outer`'s.
    let outer = p.fns.iter().find(|f| f.name == "outer").unwrap();
    let nested = p.fns.iter().find(|f| f.name == "nested").unwrap();
    let (os, oe) = outer.body.unwrap();
    let (ns, ne) = nested.body.unwrap();
    assert!(
        os < ns && ne < oe,
        "nested body not inside outer: {os}..{oe} vs {ns}..{ne}"
    );
}

#[test]
fn parser_records_calls_macros_and_imports() {
    let p = pf(&fixture("parser_stress.rs"));
    let find = |name: &str| p.calls.iter().find(|c| c.name == name).unwrap();

    // Turbofish call `helper::<T>(kept)` is a bare (unqualified) call.
    let helper = find("helper");
    assert!(helper.qual.is_none() && !helper.method);
    // `Self::rank(…)` keeps the literal `Self` for the graph to substitute.
    assert_eq!(find("rank").qual.as_deref(), Some("Self"));
    // Qualified path `<Planner<u32> as Clone>::clone(…)` → qualifier Planner.
    assert_eq!(find("clone").qual.as_deref(), Some("Planner"));
    // `Vec::new()` inside a struct literal is still a qualified call.
    assert_eq!(find("new").qual.as_deref(), Some("Vec"));
    // `.run(…)` appears three times (trait object + two default-method
    // self-calls), always in method position.
    let runs: Vec<_> = p.calls.iter().filter(|c| c.name == "run").collect();
    assert_eq!(runs.len(), 3);
    assert!(runs.iter().all(|c| c.method && c.qual.is_none()));

    // Macros are opaque sites, never calls: both `vec!` invocations are
    // recorded as macros attributed to `helper`, and no call named `vec`
    // exists.
    let helper_idx = p.fns.iter().position(|f| f.name == "helper").unwrap();
    let vecs: Vec<_> = p.macros.iter().filter(|m| m.name == "vec").collect();
    assert_eq!(vecs.len(), 2);
    assert!(vecs.iter().all(|m| m.caller == Some(helper_idx)));
    assert!(!p.calls.iter().any(|c| c.name == "vec"));

    // Use-tree: plain leaf, `as` alias, and glob.
    let import = |alias: &str| p.imports.iter().find(|i| i.alias == alias).unwrap();
    assert_eq!(import("select").path, ["octopus_core", "engine", "select"]);
    assert_eq!(
        import("do_commit").path,
        ["octopus_core", "engine", "commit"]
    );
    assert_eq!(import("*").path, ["octopus_net"]);
}

#[test]
fn parser_attributes_calls_to_the_innermost_enclosing_fn() {
    let p = pf(&fixture("parser_stress.rs"));
    let idx = |name: &str| p.fns.iter().position(|f| f.name == name).unwrap();
    let caller_of = |name: &str| p.calls.iter().find(|c| c.name == name).unwrap().caller;
    // `keep(x)` sits inside a closure inside `plan`.
    assert_eq!(caller_of("keep"), Some(idx("plan")));
    // `nested(…)` is called from `outer`'s body, after the nested fn item —
    // the innermost *containing* span is outer's, not nested's.
    assert_eq!(caller_of("nested"), Some(idx("outer")));
}

// ----------------------------------------------------------- call graph

#[test]
fn callgraph_bfs_reachability_and_chain_rendering() {
    let core = pf(
        "impl Engine {\n    pub fn select(&self) { stage_one(); }\n}\n\
         fn stage_one() { stage_two(); }\n\
         fn stage_two() {}\n\
         fn dead() { stage_two(); }\n",
    );
    let files = [("crates/core/src/engine.rs", &core)];
    let g = CallGraph::build(&files, &["Engine::select".to_string()]);
    let id = |name: &str| g.nodes.iter().position(|n| n.name == name).unwrap();

    assert_eq!(g.entries, [id("select")]);
    assert!(g.is_reachable(id("select")));
    assert!(g.is_reachable(id("stage_one")));
    assert!(g.is_reachable(id("stage_two")));
    assert!(!g.is_reachable(id("dead")), "dead fn must stay unreachable");

    assert_eq!(
        g.chain(id("stage_two"), 4),
        "Engine::select → stage_one → stage_two"
    );
    // Middle elision once the chain exceeds `max`.
    assert_eq!(
        g.chain(id("stage_two"), 2),
        "Engine::select → … → stage_two"
    );
}

#[test]
fn callgraph_resolves_cross_file_calls() {
    let entry = pf("use octopus_sim::runner::imported;\n\
         pub fn entry() {\n\
             same_crate();\n\
             missing_link();\n\
             imported();\n\
             state::tick();\n\
             octopus_net::far();\n\
         }\n");
    let b = pf("pub fn same_crate() {}\n");
    let state = pf("pub fn tick() {}\n");
    let matching = pf("pub fn missing_link() {}\n");
    let net = pf("pub fn far() {}\n");
    let sim = pf("pub fn imported() {}\n");
    let files = [
        ("crates/core/src/a.rs", &entry),
        ("crates/core/src/b.rs", &b),
        ("crates/core/src/state.rs", &state),
        ("crates/matching/src/lib.rs", &matching),
        ("crates/net/src/lib.rs", &net),
        ("crates/sim/src/runner.rs", &sim),
    ];
    let g = CallGraph::build(&files, &["entry".to_string()]);
    let id = |name: &str| g.nodes.iter().position(|n| n.name == name).unwrap();

    // Bare call, same crate, different file.
    assert!(g.is_reachable(id("same_crate")));
    // Module-file-qualified call (`state::tick` → state.rs).
    assert!(g.is_reachable(id("tick")));
    // Crate-qualified free fn (`octopus_net::far` → crates/net/).
    assert!(g.is_reachable(id("far")));
    // Bare call resolved workspace-wide only because of the `use` import.
    assert!(g.is_reachable(id("imported")));
    // Bare cross-crate call with no import: the documented blind spot —
    // unresolved, hence unreachable.
    assert!(!g.is_reachable(id("missing_link")));
}

#[test]
fn callgraph_method_calls_resolve_to_every_same_named_method() {
    let caller = pf("pub fn entry(x: &dyn Go) { x.go(0); }\n");
    let impls = pf("pub struct Alpha;\n\
         impl Alpha {\n    pub fn go(&self, n: u32) {}\n}\n\
         pub struct Beta;\n\
         impl Beta {\n    fn go(&self, n: u32) {}\n}\n\
         pub fn go(n: u32) {}\n");
    let files = [
        ("crates/core/src/a.rs", &caller),
        ("crates/core/src/b.rs", &impls),
    ];
    let g = CallGraph::build(&files, &["entry".to_string()]);
    let id = |qual: Option<&str>| {
        g.nodes
            .iter()
            .position(|n| n.name == "go" && n.qual.as_deref() == qual)
            .unwrap()
    };
    // Dyn dispatch over-approximates: every *method* named `go` is an edge
    // target, in any impl…
    assert!(g.is_reachable(id(Some("Alpha"))));
    assert!(g.is_reachable(id(Some("Beta"))));
    // …but the free fn of the same name is not a method-call target.
    assert!(!g.is_reachable(id(None)));
}

#[test]
fn callgraph_dot_renders_only_the_reachable_subgraph() {
    let core = pf(
        "impl Engine {\n    pub fn select(&self) { stage_one(); }\n}\n\
         fn stage_one() { stage_two(); }\n\
         fn stage_two() {}\n\
         fn dead_end() { stage_two(); }\n",
    );
    let files = [("crates/core/src/engine.rs", &core)];
    let g = CallGraph::build(&files, &["Engine::select".to_string()]);
    let dot = g.render_dot();
    assert!(dot.starts_with("digraph callgraph {"), "{dot}");
    assert!(dot.contains("Engine::select"), "{dot}");
    // Exactly one entry, double-circled.
    assert_eq!(dot.matches("peripheries=2").count(), 1, "{dot}");
    // select → stage_one → stage_two: two edges, and the unreachable fn is
    // absent entirely.
    assert_eq!(dot.matches(" -> ").count(), 2, "{dot}");
    assert!(!dot.contains("dead_end"), "{dot}");
}

#[test]
fn entrypoint_manifest_parsing() {
    let text = "# kernel entry points\n\
                entrypoints = [\n\
                    \"Engine::select\", # one per window\n\
                    \"helper\",\n\
                ]\n";
    assert_eq!(parse_entrypoints(text), ["Engine::select", "helper"]);
    // Single-line array form.
    assert_eq!(
        parse_entrypoints("entrypoints = [\"a\", \"b\"]\n"),
        ["a", "b"]
    );
    // Unrelated keys parse to nothing.
    assert!(parse_entrypoints("other = [\"x\"]\n").is_empty());
}

// ----------------------------------------- reachability-gated L7 (run())

/// Builds a throwaway mini-workspace with a kernel file and (optionally) an
/// entry-point manifest; returns its root.
fn mini_workspace(tag: &str, core_src: &str, entrypoints: Option<&str>) -> PathBuf {
    let root = std::env::temp_dir().join(format!("octopus-interproc-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(root.join("crates/core/src")).unwrap();
    std::fs::write(root.join("Cargo.toml"), "[workspace]\n").unwrap();
    std::fs::write(root.join("crates/core/src/lib.rs"), core_src).unwrap();
    if let Some(toml) = entrypoints {
        std::fs::write(root.join("lint-entrypoints.toml"), toml).unwrap();
    }
    root
}

/// One reachable allocating helper (true positive), one fn-level-waived
/// helper, and one dead allocating fn (true negative).
const REACH_SRC: &str = "pub struct Engine;\n\
impl Engine {\n\
    pub fn select(&self) -> usize {\n\
        hot_helper(3) + waived_helper().len()\n\
    }\n\
}\n\
fn hot_helper(n: usize) -> usize {\n\
    let buf: Vec<usize> = Vec::new();\n\
    buf.len() + n\n\
}\n\
// lint:allow(hot-alloc) — amortized: fixture waiver exercising the fn-level escape hatch\n\
fn waived_helper() -> Vec<usize> {\n\
    Vec::new()\n\
}\n\
fn dead_helper(n: usize) -> usize {\n\
    let buf: Vec<usize> = Vec::new();\n\
    buf.len() + n\n\
}\n";

#[test]
fn l7_flags_reachable_allocs_and_spares_dead_and_waived_fns() {
    let root = mini_workspace(
        "reach",
        REACH_SRC,
        Some("entrypoints = [\"Engine::select\"]\n"),
    );
    let report = run(&root, &Baseline::default()).unwrap();
    let hot: Vec<_> = report
        .files
        .iter()
        .flat_map(|f| &f.violations)
        .filter(|(v, _)| v.lint == Lint::HotAlloc)
        .collect();
    // Exactly the one site in `hot_helper` (line 8): the dead fn's identical
    // alloc and the waived fn's alloc are both spared.
    assert_eq!(hot.len(), 1, "expected one L7 finding: {hot:?}");
    assert_eq!(hot[0].0.line, 8);
    assert!(
        hot[0].0.message.contains("Engine::select → hot_helper"),
        "message must carry the reachability chain: {}",
        hot[0].0.message
    );
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn l7_rejects_an_entry_point_that_matches_nothing() {
    let root = mini_workspace(
        "unmatched",
        REACH_SRC,
        Some(
            "entrypoints = [\n\
             \"Engine::select\",\n\
             \"Gone::solve_reweighted\", # renamed away\n\
             \"select\",\n\
             ]\n",
        ),
    );
    let g = CallGraph::build(
        &[("crates/core/src/lib.rs", &pf(REACH_SRC))],
        &[
            "Engine::select".to_string(),
            "Gone::solve_reweighted".to_string(),
        ],
    );
    assert_eq!(g.unmatched, ["Gone::solve_reweighted"]);
    // Through run(): one new finding on the spec's manifest line, which no
    // baseline tolerates, next to the live entry's usual L7 finding.
    let report = run(&root, &Baseline::default()).unwrap();
    let manifest: Vec<_> = report
        .files
        .iter()
        .filter(|f| f.path == "lint-entrypoints.toml")
        .flat_map(|f| &f.violations)
        .collect();
    assert_eq!(
        manifest.len(),
        1,
        "expected one unmatched spec: {manifest:?}"
    );
    let (v, is_new) = manifest[0];
    assert!(*is_new && v.lint == Lint::HotAlloc && v.line == 3, "{v:?}");
    assert!(
        v.message.contains("`Gone::solve_reweighted`"),
        "{}",
        v.message
    );
    assert_eq!(report.new_count(), 2, "{}", report.render_text());
    let tolerant = Baseline::parse("hot-alloc 5 lint-entrypoints.toml\n").unwrap();
    let report = run(&root, &tolerant).unwrap();
    assert_eq!(report.new_count(), 2, "a baseline must not hide it");
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn l7_stays_silent_without_an_entrypoint_manifest() {
    let root = mini_workspace("noentry", REACH_SRC, None);
    let report = run(&root, &Baseline::default()).unwrap();
    assert_eq!(
        report.new_count(),
        0,
        "no manifest → nothing reachable → no findings: {}",
        report.render_text()
    );
    std::fs::remove_dir_all(&root).unwrap();
}

// ------------------------------------------------------- L8–L10 fixtures

#[test]
fn l8_fires_on_raw_price_arithmetic() {
    let found = lints_of(AUCTION, &fixture("l8_pos.rs"));
    assert_eq!(
        found.iter().filter(|l| **l == Lint::UncheckedArith).count(),
        4,
        "`+`, `*`, `<<`, `+=`: {found:?}"
    );
}

#[test]
fn l8_is_quiet_on_floats_casts_checked_ops_and_pragmas() {
    let found = lints_of(AUCTION, &fixture("l8_neg.rs"));
    assert!(
        !found.contains(&Lint::UncheckedArith),
        "false positives: {found:?}"
    );
}

#[test]
fn l8_only_applies_to_the_exact_kernels_scaling_files() {
    // Same source under a kernel path that is not auction.rs/memo.rs: quiet.
    let found = lints_of(KERNEL, &fixture("l8_pos.rs"));
    assert!(!found.contains(&Lint::UncheckedArith));
}

#[test]
fn l9_fires_on_relaxed_ordering_in_kernel_code() {
    let found = lints_of(KERNEL, &fixture("l9_pos.rs"));
    assert_eq!(
        found.iter().filter(|l| **l == Lint::AtomicOrdering).count(),
        2,
        "fetch_add + load: {found:?}"
    );
    // Every kernel crate is covered, not only octopus-core.
    let matching = lints_of("crates/matching/src/fixture.rs", &fixture("l9_pos.rs"));
    assert!(matching.contains(&Lint::AtomicOrdering));
}

#[test]
fn l9_is_quiet_on_proof_pragmas_stronger_orderings_and_tests() {
    let found = lints_of(KERNEL, &fixture("l9_neg.rs"));
    assert!(
        !found.contains(&Lint::AtomicOrdering),
        "false positives: {found:?}"
    );
}

#[test]
fn l9_does_not_apply_outside_kernel_files() {
    let found = lints_of("crates/traffic/src/fixture.rs", &fixture("l9_pos.rs"));
    assert!(!found.contains(&Lint::AtomicOrdering));
}

#[test]
fn l10_fires_on_unguarded_env_reads() {
    let found = lints_of(KERNEL, &fixture("l10_pos.rs"));
    assert_eq!(
        found.iter().filter(|l| **l == Lint::EnvOnce).count(),
        2,
        "var + var_os: {found:?}"
    );
    let net = lints_of("crates/net/src/fixture.rs", &fixture("l10_pos.rs"));
    assert!(net.contains(&Lint::EnvOnce));
}

#[test]
fn l10_is_quiet_inside_once_lock_readers() {
    let found = lints_of(KERNEL, &fixture("l10_neg.rs"));
    assert!(
        !found.contains(&Lint::EnvOnce),
        "false positives: {found:?}"
    );
}

#[test]
fn l10_does_not_apply_outside_the_library_surface() {
    let found = lints_of("crates/bench/src/lib.rs", &fixture("l10_pos.rs"));
    assert!(!found.contains(&Lint::EnvOnce));
}

// -------------------------------------------------- golden JSON + binary

/// Kernel file tripping L7 (reachable alloc), L9 (bare Relaxed), and L10
/// (unguarded env read).
const GOLDEN_CORE: &str = "use std::sync::atomic::{AtomicUsize, Ordering};\n\
\n\
pub struct Engine;\n\
\n\
impl Engine {\n\
    pub fn select(&self, gen: &AtomicUsize) -> usize {\n\
        gen.fetch_add(1, Ordering::Relaxed);\n\
        hot(2)\n\
    }\n\
}\n\
\n\
fn hot(n: usize) -> usize {\n\
    let names: Vec<String> = Vec::new();\n\
    names.len() + n + threads()\n\
}\n\
\n\
fn threads() -> usize {\n\
    std::env::var(\"OCTOPUS_THREADS\")\n\
        .ok()\n\
        .and_then(|v| v.parse().ok())\n\
        .unwrap_or(1)\n\
}\n";

/// Scaling file tripping L8 (raw shift on a price integer).
const GOLDEN_MEMO: &str = "pub fn rescale(price: i64, shift: u32) -> i64 {\n\
    price << shift\n\
}\n";

/// Builds the golden mini-workspace (L7+L9+L10 in lib.rs, L8 in memo.rs).
fn golden_workspace(tag: &str) -> PathBuf {
    let root = mini_workspace(
        tag,
        GOLDEN_CORE,
        Some("entrypoints = [\"Engine::select\"]\n"),
    );
    std::fs::write(root.join("crates/core/src/memo.rs"), GOLDEN_MEMO).unwrap();
    root
}

#[test]
fn interproc_json_report_matches_golden_file() {
    let root = golden_workspace("golden");
    let report = run(&root, &Baseline::default()).unwrap();
    let got = report.render_json();
    let golden_path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden_interproc.json");
    if std::env::var_os("OCTOPUS_LINT_BLESS").is_some() {
        std::fs::write(&golden_path, &got).unwrap();
    }
    let golden = std::fs::read_to_string(&golden_path).unwrap();
    assert_eq!(
        got, golden,
        "JSON report drifted from tests/fixtures/golden_interproc.json \
         (rerun with OCTOPUS_LINT_BLESS=1 to re-bless after an intentional change)"
    );
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn summary_md_covers_every_lint_with_a_verdict() {
    let root = golden_workspace("summary");
    let report = run(&root, &Baseline::default()).unwrap();
    let md = report.render_summary_md();
    for lint in Lint::ALL {
        assert!(
            md.contains(&format!("`{}`", lint.key())),
            "missing row for {}: {md}",
            lint.key()
        );
    }
    assert!(md.contains("| L7 | `hot-alloc` | 1 | 0 |"), "{md}");
    assert!(md.contains("| L8 | `unchecked-arith` | 1 | 0 |"), "{md}");
    assert!(md.contains("| L9 | `atomic-ordering` | 1 | 0 |"), "{md}");
    assert!(md.contains("| L10 | `env-once` | 1 | 0 |"), "{md}");
    assert!(md.contains("**4 new, 0 baselined** — gate FAILS"), "{md}");
    std::fs::remove_dir_all(&root).unwrap();
}

fn run_binary(root: &PathBuf, extra: &[&str]) -> std::process::Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_octopus-lint"))
        .arg("--root")
        .arg(root)
        .args(extra)
        .output()
        .unwrap()
}

#[test]
fn binary_callgraph_dot_exits_zero_even_with_findings() {
    let root = golden_workspace("dot");
    let out = run_binary(&root, &["--callgraph-dot"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.starts_with("digraph callgraph {"), "{stdout}");
    assert!(stdout.contains("Engine::select"), "{stdout}");
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn binary_summary_md_reports_the_gate_verdict() {
    let root = golden_workspace("md");
    let out = run_binary(&root, &["--summary-md"]);
    assert!(!out.status.success(), "4 new findings must fail the gate");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("gate FAILS"), "{stdout}");
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn binary_deny_baselined_is_a_hard_zero_gate() {
    let root = mini_workspace(
        "hardzero",
        "pub fn f(v: &[u32]) -> u32 {\n    *v.first().unwrap()\n}\n",
        None,
    );
    // Record the debt: --deny-new tolerates it, --deny-baselined does not.
    assert!(run_binary(&root, &["--update-baseline"]).status.success());
    assert!(run_binary(&root, &["--deny-new"]).status.success());
    assert!(!run_binary(&root, &["--deny-new", "--deny-baselined"])
        .status
        .success());
    // Paying the debt down (and emptying the baseline) turns it green.
    std::fs::write(root.join("crates/core/src/lib.rs"), "pub fn f() {}\n").unwrap();
    assert!(run_binary(&root, &["--update-baseline"]).status.success());
    assert!(run_binary(&root, &["--deny-new", "--deny-baselined"])
        .status
        .success());
    std::fs::remove_dir_all(&root).unwrap();
}
