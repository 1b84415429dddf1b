//! The ten workspace lints (L1–L10), run over a lexed token stream.
//!
//! See DESIGN.md §"Statically enforced invariants" for the rationale behind
//! each lint and the pragma syntax. L1–L6 and L8–L10 are per-file heuristic
//! token-stream matchers (L10 additionally consults the item parse for the
//! enclosing function); L7 (`hot-alloc`) is interprocedural and lives on
//! top of the workspace call graph — see [`crate::callgraph`] and
//! [`lint_hot_alloc`]. Lints are tuned to the idioms of this workspace, and
//! every rule supports a line-level `// lint:allow(<key>) — <reason>`
//! escape hatch for deliberate exceptions.

use crate::lexer::{lex, LexOutput, Token, TokenKind};
use crate::parser::{parse, ParsedFile};
use std::collections::{BTreeMap, BTreeSet};

/// Which of the ten lints a violation belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Lint {
    /// L1: iteration over a hash-ordered collection in kernel code.
    NondetIter,
    /// L2: panic path (`unwrap`/`expect`/`panic!`/…) in library code.
    Panic,
    /// L3: `==` / `!=` on floats.
    FloatEq,
    /// L4: wall clock or ambient RNG in kernel code.
    WallClock,
    /// L5: `unsafe` block/impl without a `// SAFETY:` comment.
    UndocumentedUnsafe,
    /// L6: fresh `BTreeMap`/`BTreeSet` allocation in kernel code.
    BtreeAlloc,
    /// L7: allocation site reachable from a kernel entry point.
    HotAlloc,
    /// L8: raw integer arithmetic on price/value variables in the exact
    /// kernels' scaling code.
    UncheckedArith,
    /// L9: `Ordering::Relaxed` atomic access without an ordering proof.
    AtomicOrdering,
    /// L10: `std::env::var` outside a `OnceLock`-guarded once-per-process
    /// reader.
    EnvOnce,
}

impl Lint {
    /// All lints, in L1..L10 order (for summaries and catalogues).
    pub const ALL: [Lint; 10] = [
        Lint::NondetIter,
        Lint::Panic,
        Lint::FloatEq,
        Lint::WallClock,
        Lint::UndocumentedUnsafe,
        Lint::BtreeAlloc,
        Lint::HotAlloc,
        Lint::UncheckedArith,
        Lint::AtomicOrdering,
        Lint::EnvOnce,
    ];

    /// The stable key used in pragmas, reports and the baseline file.
    pub fn key(self) -> &'static str {
        match self {
            Lint::NondetIter => "nondet-iter",
            Lint::Panic => "panic",
            Lint::FloatEq => "float-eq",
            Lint::WallClock => "wall-clock",
            Lint::UndocumentedUnsafe => "undocumented-unsafe",
            Lint::BtreeAlloc => "btree-alloc",
            Lint::HotAlloc => "hot-alloc",
            Lint::UncheckedArith => "unchecked-arith",
            Lint::AtomicOrdering => "atomic-ordering",
            Lint::EnvOnce => "env-once",
        }
    }

    /// The short L-code used in human-readable reports.
    pub fn code(self) -> &'static str {
        match self {
            Lint::NondetIter => "L1",
            Lint::Panic => "L2",
            Lint::FloatEq => "L3",
            Lint::WallClock => "L4",
            Lint::UndocumentedUnsafe => "L5",
            Lint::BtreeAlloc => "L6",
            Lint::HotAlloc => "L7",
            Lint::UncheckedArith => "L8",
            Lint::AtomicOrdering => "L9",
            Lint::EnvOnce => "L10",
        }
    }

    /// Parses a pragma/baseline key back into a lint.
    pub fn from_key(key: &str) -> Option<Lint> {
        Some(match key {
            "nondet-iter" => Lint::NondetIter,
            "panic" => Lint::Panic,
            "float-eq" => Lint::FloatEq,
            "wall-clock" => Lint::WallClock,
            "undocumented-unsafe" => Lint::UndocumentedUnsafe,
            "btree-alloc" => Lint::BtreeAlloc,
            "hot-alloc" => Lint::HotAlloc,
            "unchecked-arith" => Lint::UncheckedArith,
            "atomic-ordering" => Lint::AtomicOrdering,
            "env-once" => Lint::EnvOnce,
            _ => return None,
        })
    }
}

/// One finding: lint, 1-based line, and a short human message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which lint fired.
    pub lint: Lint,
    /// 1-based source line.
    pub line: u32,
    /// Human-readable description of what matched.
    pub message: String,
}

/// Which lint families apply to a file, derived from its workspace path.
#[derive(Debug, Clone, Copy, Default)]
pub struct FileClass {
    /// Scheduling-kernel code: L1, L4, L6, L7 and L8 apply.
    pub kernel: bool,
    /// Library (non-test, non-harness) code: L2, L3 and L10 apply.
    pub library: bool,
}

/// Classifies a workspace-relative path (`/`-separated).
///
/// * kernel crates' `src/` (minus `src/bin/`): `octopus-core`,
///   `octopus-matching`, `octopus-net` — the determinism-sensitive hot paths;
/// * library surface additionally includes `octopus-traffic`, `octopus-sim`,
///   `octopus-baselines`, `octopus-serve` and the facade's `src/lib.rs`;
/// * everything else (tests, benches, examples, binaries, the bench harness,
///   this linter) only gets L5, which applies to every walked file.
pub fn classify(rel: &str) -> FileClass {
    let in_bin = rel.contains("/bin/");
    let kernel = !in_bin
        && (rel.starts_with("crates/core/src/")
            || rel.starts_with("crates/matching/src/")
            || rel.starts_with("crates/net/src/"));
    let library = kernel
        || (!in_bin
            && (rel.starts_with("crates/traffic/src/")
                || rel.starts_with("crates/sim/src/")
                || rel.starts_with("crates/baselines/src/")
                || rel.starts_with("crates/serve/src/")
                || rel == "src/lib.rs"));
    FileClass { kernel, library }
}

/// Per-line pragma table: which lints are allowed on which lines.
struct Pragmas {
    allowed: BTreeMap<u32, BTreeSet<Lint>>,
    /// Lines carrying a `SAFETY:` comment.
    safety_lines: BTreeSet<u32>,
    /// Pragmas with a missing/empty reason (themselves violations).
    malformed: Vec<(u32, String)>,
}

fn parse_pragmas(lexed: &LexOutput) -> Pragmas {
    let mut p = Pragmas {
        allowed: BTreeMap::new(),
        safety_lines: BTreeSet::new(),
        malformed: Vec::new(),
    };
    for c in &lexed.comments {
        // Doc comments (`///`, `//!`) are prose, not directives — they may
        // legitimately *describe* the pragma syntax.
        let is_doc = c.text.starts_with('/') || c.text.starts_with('!');
        let t = c.text.trim_start_matches(['/', '!']).trim();
        if t.starts_with("SAFETY:") {
            p.safety_lines.insert(c.line);
        }
        if is_doc {
            continue;
        }
        let Some(idx) = t.find("lint:allow(") else {
            continue;
        };
        let rest = &t[idx + "lint:allow(".len()..];
        let Some(close) = rest.find(')') else {
            p.malformed
                .push((c.line, "unclosed lint:allow(".to_string()));
            continue;
        };
        let key = rest[..close].trim();
        let reason = rest[close + 1..]
            .trim_start_matches([' ', '\t', '—', '-', '–'])
            .trim();
        match Lint::from_key(key) {
            Some(lint) if !reason.is_empty() => {
                // A pragma on line N covers findings on N (trailing comment)
                // and N+1 (comment-above style).
                p.allowed.entry(c.line).or_default().insert(lint);
                p.allowed.entry(c.line + 1).or_default().insert(lint);
            }
            Some(_) => p
                .malformed
                .push((c.line, format!("lint:allow({key}) needs a reason"))),
            None => p
                .malformed
                .push((c.line, format!("unknown lint key `{key}`"))),
        }
    }
    p
}

/// The per-file analysis state the interprocedural layer builds on: the
/// syntactic violations (L1–L6, L8–L10, pragma-filtered), plus the token
/// stream, item parse, pragma table and test mask that [`lint_hot_alloc`]
/// needs to place L7 findings.
pub struct FileAnalysis {
    /// Pragma-filtered per-file findings, sorted by (line, lint).
    pub violations: Vec<Violation>,
    /// The item-level parse (fns, call sites, imports) of this file.
    pub parsed: ParsedFile,
    /// The file's token stream (the parse's body spans index into it).
    pub tokens: Vec<Token>,
    /// Lines on which each lint is pragma-allowed.
    pub allowed: BTreeMap<u32, BTreeSet<Lint>>,
    /// Per-token `#[cfg(test)]`/`#[test]` membership.
    pub test_mask: Vec<bool>,
}

/// Runs every per-file lint on one file's source text. Interprocedural L7
/// findings are appended later by the workspace pass (see [`crate::run`]).
pub fn analyze_file(rel: &str, src: &str) -> FileAnalysis {
    let class = classify(rel);
    let lexed = lex(src);
    let pragmas = parse_pragmas(&lexed);
    let parsed = parse(&lexed);
    let toks = &lexed.tokens;
    let test_mask = test_code_mask(toks);

    let mut out: Vec<Violation> = Vec::new();
    for (line, msg) in &pragmas.malformed {
        out.push(Violation {
            lint: Lint::Panic, // malformed pragmas are reported under L2's
            // family arbitrarily; they always count as new.
            line: *line,
            message: format!("malformed pragma: {msg}"),
        });
    }

    if class.kernel {
        lint_nondet_iter(toks, &test_mask, &mut out);
        lint_wall_clock(toks, &test_mask, &mut out);
        lint_btree_alloc(toks, &test_mask, &mut out);
    }
    if class.library {
        lint_panic(toks, &test_mask, &mut out);
        lint_float_eq(toks, &test_mask, &mut out);
    }
    if class.kernel && (rel.ends_with("/auction.rs") || rel.ends_with("/memo.rs")) {
        lint_unchecked_arith(toks, &test_mask, &mut out);
    }
    if class.kernel {
        lint_atomic_ordering(toks, &test_mask, &mut out);
    }
    if class.library {
        lint_env_once(toks, &test_mask, &parsed, &mut out);
    }
    lint_undocumented_unsafe(toks, &pragmas, &mut out);

    // Apply pragmas.
    out.retain(|v| {
        !pragmas
            .allowed
            .get(&v.line)
            .is_some_and(|s| s.contains(&v.lint))
    });
    out.sort_by(|a, b| a.line.cmp(&b.line).then(a.lint.cmp(&b.lint)));
    FileAnalysis {
        violations: out,
        parsed,
        tokens: lexed.tokens,
        allowed: pragmas.allowed,
        test_mask,
    }
}

/// Runs the per-file lints and returns just the violations — the historical
/// single-file API, used by the fixture tests. L7 requires the workspace
/// call graph and never fires here.
pub fn check_file(rel: &str, src: &str) -> Vec<Violation> {
    analyze_file(rel, src).violations
}

/// Marks tokens that belong to `#[cfg(test)]` / `#[test]` items, so L1–L4
/// skip test code. Returns a bool per token index.
fn test_code_mask(toks: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    let mut i = 0usize;
    while i < toks.len() {
        if !(toks[i].kind == TokenKind::Punct && toks[i].text == "#") {
            i += 1;
            continue;
        }
        // Parse `#[ … ]`, checking whether it is a test-ish attribute.
        let attr_start = i;
        let Some(open) = toks.get(i + 1).filter(|t| t.text == "[") else {
            i += 1;
            continue;
        };
        let _ = open;
        let mut depth = 1i32;
        let mut j = i + 2;
        let mut is_test_attr = false;
        // `#[test]`, `#[cfg(test)]`, `#[cfg(any(test, …))]`, and the proptest
        // macro wrapper `#[cfg(test)] mod …` all contain the bare ident
        // `test` at some point inside the brackets.
        while j < toks.len() && depth > 0 {
            match toks[j].text.as_str() {
                "[" => depth += 1,
                "]" => depth -= 1,
                "test" if toks[j].kind == TokenKind::Ident => is_test_attr = true,
                _ => {}
            }
            j += 1;
        }
        if !is_test_attr {
            i = j;
            continue;
        }
        // Skip any further attributes, then the item itself: everything up
        // to the matching close of its first `{ … }` (or a `;` for
        // item-less forms).
        let mut k = j;
        while k + 1 < toks.len() && toks[k].text == "#" && toks[k + 1].text == "[" {
            let mut d = 1i32;
            k += 2;
            while k < toks.len() && d > 0 {
                match toks[k].text.as_str() {
                    "[" => d += 1,
                    "]" => d -= 1,
                    _ => {}
                }
                k += 1;
            }
        }
        let body_start = k;
        let mut brace = 0i32;
        let mut entered = false;
        while k < toks.len() {
            match toks[k].text.as_str() {
                "{" => {
                    brace += 1;
                    entered = true;
                }
                "}" => brace -= 1,
                ";" if !entered => {
                    k += 1;
                    break;
                }
                _ => {}
            }
            k += 1;
            if entered && brace == 0 {
                break;
            }
        }
        for m in mask.iter_mut().take(k).skip(attr_start) {
            *m = true;
        }
        let _ = body_start;
        i = k;
    }
    mask
}

/// Names of hash-ordered collection types.
fn is_hash_type(name: &str) -> bool {
    matches!(name, "HashMap" | "HashSet" | "FxHashMap" | "FxHashSet")
}

/// Iteration methods whose order reflects the hasher.
fn is_iter_method(name: &str) -> bool {
    matches!(
        name,
        "iter" | "iter_mut" | "keys" | "values" | "values_mut" | "into_iter" | "drain" | "retain"
    )
}

/// L1: iteration over a `HashMap`/`HashSet` binding.
///
/// Two passes: first collect names bound to hash collections (let bindings,
/// struct fields, typed params — anything of the form `name : … HashMap …`
/// or `let name = … HashMap:: …`), then flag `name.iter()`-style calls and
/// `for … in name` loops over those names.
fn lint_nondet_iter(toks: &[Token], test_mask: &[bool], out: &mut Vec<Violation>) {
    let mut hash_names: BTreeSet<String> = BTreeSet::new();
    // Pass 1: collect bindings.
    for i in 0..toks.len() {
        if toks[i].kind != TokenKind::Ident {
            continue;
        }
        let name = &toks[i].text;
        // `name : <tokens containing HashMap before = ; { )>`
        if toks.get(i + 1).is_some_and(|t| t.text == ":")
            && !toks.get(i + 2).is_some_and(|t| t.text == ":")
        {
            let mut j = i + 2;
            let mut steps = 0;
            while let Some(t) = toks.get(j) {
                if steps > 40 || matches!(t.text.as_str(), "=" | ";" | "{" | ")") {
                    break;
                }
                if t.kind == TokenKind::Ident && is_hash_type(&t.text) {
                    hash_names.insert(name.clone());
                    break;
                }
                j += 1;
                steps += 1;
            }
        }
        // `let [mut] name = … HashMap:: …` (type inferred from constructor)
        if toks[i].text == "let" {
            let mut j = i + 1;
            if toks.get(j).is_some_and(|t| t.text == "mut") {
                j += 1;
            }
            let Some(bound) = toks.get(j).filter(|t| t.kind == TokenKind::Ident) else {
                continue;
            };
            let bound_name = bound.text.clone();
            if !toks.get(j + 1).is_some_and(|t| t.text == "=") {
                continue;
            }
            let mut k = j + 2;
            let mut steps = 0;
            while let Some(t) = toks.get(k) {
                if steps > 40 || t.text == ";" {
                    break;
                }
                if t.kind == TokenKind::Ident
                    && is_hash_type(&t.text)
                    && toks.get(k + 1).is_some_and(|n| n.text == "::")
                {
                    hash_names.insert(bound_name.clone());
                    break;
                }
                k += 1;
                steps += 1;
            }
        }
    }
    if hash_names.is_empty() {
        return;
    }
    // Pass 2: flag iteration.
    for i in 0..toks.len() {
        if test_mask[i] || toks[i].kind != TokenKind::Ident {
            continue;
        }
        // `name . iter ( )` / `self . name . keys ( )`
        if hash_names.contains(&toks[i].text)
            && toks.get(i + 1).is_some_and(|t| t.text == ".")
            && toks
                .get(i + 2)
                .is_some_and(|t| t.kind == TokenKind::Ident && is_iter_method(&t.text))
            && toks.get(i + 3).is_some_and(|t| t.text == "(")
        {
            out.push(Violation {
                lint: Lint::NondetIter,
                line: toks[i].line,
                message: format!(
                    "iteration over hash-ordered `{}` via `.{}()`",
                    toks[i].text,
                    toks[i + 2].text
                ),
            });
        }
        // `for pat in [&][mut] [self.]name {`
        if toks[i].text == "for" {
            // find `in` within a short window
            let mut j = i + 1;
            let mut steps = 0;
            while let Some(t) = toks.get(j) {
                if steps > 25 || t.text == "{" {
                    break;
                }
                if t.kind == TokenKind::Ident && t.text == "in" {
                    break;
                }
                j += 1;
                steps += 1;
            }
            if !toks.get(j).is_some_and(|t| t.text == "in") {
                continue;
            }
            let mut k = j + 1;
            while toks
                .get(k)
                .is_some_and(|t| matches!(t.text.as_str(), "&" | "mut"))
            {
                k += 1;
            }
            if toks.get(k).is_some_and(|t| t.text == "self")
                && toks.get(k + 1).is_some_and(|t| t.text == ".")
            {
                k += 2;
            }
            let Some(name_tok) = toks.get(k).filter(|t| t.kind == TokenKind::Ident) else {
                continue;
            };
            // Only a *bare* loop over the binding (next token opens the
            // body); `for x in name.values()` is caught by the rule above.
            if hash_names.contains(&name_tok.text) && toks.get(k + 1).is_some_and(|t| t.text == "{")
            {
                out.push(Violation {
                    lint: Lint::NondetIter,
                    line: toks[i].line,
                    message: format!("`for` loop over hash-ordered `{}`", name_tok.text),
                });
            }
        }
    }
}

/// L2: panic paths in library code.
fn lint_panic(toks: &[Token], test_mask: &[bool], out: &mut Vec<Violation>) {
    for i in 0..toks.len() {
        if test_mask[i] || toks[i].kind != TokenKind::Ident {
            continue;
        }
        let name = toks[i].text.as_str();
        // `.unwrap()` / `.expect(` — method position only.
        if matches!(name, "unwrap" | "expect")
            && i > 0
            && toks[i - 1].text == "."
            && toks.get(i + 1).is_some_and(|t| t.text == "(")
        {
            out.push(Violation {
                lint: Lint::Panic,
                line: toks[i].line,
                message: format!("`.{name}()` in library code"),
            });
        }
        // `panic!(` etc. — macro position only.
        if matches!(name, "panic" | "unreachable" | "todo" | "unimplemented")
            && toks.get(i + 1).is_some_and(|t| t.text == "!")
        {
            out.push(Violation {
                lint: Lint::Panic,
                line: toks[i].line,
                message: format!("`{name}!` in library code"),
            });
        }
    }
}

/// L3: `==` / `!=` where one side is a float literal, outside `total_cmp` /
/// epsilon-helper contexts. A literal-adjacency heuristic: full type-driven
/// detection needs rustc, but in practice float comparisons in this codebase
/// involve a literal on one side (`x == 0.0`). Only the tokens immediately
/// beside the operator are considered — a wider window misreads
/// `if idx == 0 { 0.0 }` as a float comparison.
fn lint_float_eq(toks: &[Token], test_mask: &[bool], out: &mut Vec<Violation>) {
    for i in 0..toks.len() {
        if test_mask[i]
            || toks[i].kind != TokenKind::Punct
            || !(toks[i].text == "==" || toks[i].text == "!=")
        {
            continue;
        }
        let near_float = (i > 0 && toks[i - 1].kind == TokenKind::FloatLit)
            || toks
                .get(i + 1)
                .is_some_and(|t| t.kind == TokenKind::FloatLit);
        let lo = i.saturating_sub(4);
        let hi = (i + 5).min(toks.len());
        let near_total_cmp = toks[lo..hi]
            .iter()
            .any(|t| t.text == "total_cmp" || t.text == "abs" || t.text == "EPSILON");
        if near_float && !near_total_cmp {
            out.push(Violation {
                lint: Lint::FloatEq,
                line: toks[i].line,
                message: format!(
                    "float `{}` comparison (use total_cmp or an epsilon)",
                    toks[i].text
                ),
            });
        }
    }
}

/// L4: wall clock and ambient RNG in kernel code.
fn lint_wall_clock(toks: &[Token], test_mask: &[bool], out: &mut Vec<Violation>) {
    for i in 0..toks.len() {
        if test_mask[i] || toks[i].kind != TokenKind::Ident {
            continue;
        }
        let name = toks[i].text.as_str();
        let flagged = match name {
            // `Instant::now` (plain `Instant` in type position is fine —
            // storing a caller-provided timestamp is deterministic).
            "Instant" => {
                toks.get(i + 1).is_some_and(|t| t.text == "::")
                    && toks.get(i + 2).is_some_and(|t| t.text == "now")
            }
            "SystemTime" | "thread_rng" => true,
            // `rand::random`
            "random" => i >= 2 && toks[i - 1].text == "::" && toks[i - 2].text == "rand",
            _ => false,
        };
        if flagged {
            out.push(Violation {
                lint: Lint::WallClock,
                line: toks[i].line,
                message: format!("`{name}` in kernel code breaks reproducibility"),
            });
        }
    }
}

/// Names of node-allocating ordered collection types. `VecMap` / the arena
/// snapshot are the flat replacements; a B-tree in a hot path is a
/// per-element allocation and pointer-chase regression (PR 6).
fn is_btree_type(name: &str) -> bool {
    matches!(name, "BTreeMap" | "BTreeSet")
}

/// L6: fresh `BTreeMap`/`BTreeSet` allocation in kernel code.
///
/// Three constructor shapes: a path call (`BTreeMap::new()` / `default` /
/// `from` / `from_iter`, with or without a `::<…>` turbofish), a `collect`
/// turbofish naming a B-tree, and a `let` binding whose type annotation
/// names one (catching `let x: BTreeMap<_, _> = iter.collect()`). Borrowed
/// annotations (`&BTreeMap`) are fine — only construction allocates.
fn lint_btree_alloc(toks: &[Token], test_mask: &[bool], out: &mut Vec<Violation>) {
    for i in 0..toks.len() {
        if test_mask[i] || toks[i].kind != TokenKind::Ident {
            continue;
        }
        let name = toks[i].text.as_str();
        // `BTreeMap::new(` — optionally `BTreeMap::<K, V>::new(`.
        if is_btree_type(name) && toks.get(i + 1).is_some_and(|t| t.text == "::") {
            let mut j = i + 2;
            if toks.get(j).is_some_and(|t| t.text == "<") {
                let mut depth = 1i32;
                j += 1;
                let mut steps = 0;
                while let Some(t) = toks.get(j) {
                    if steps > 40 || depth == 0 {
                        break;
                    }
                    match t.text.as_str() {
                        "<" => depth += 1,
                        ">" => depth -= 1,
                        _ => {}
                    }
                    j += 1;
                    steps += 1;
                }
                if !toks.get(j).is_some_and(|t| t.text == "::") {
                    continue;
                }
                j += 1;
            }
            if toks.get(j).is_some_and(|t| {
                t.kind == TokenKind::Ident
                    && matches!(t.text.as_str(), "new" | "default" | "from" | "from_iter")
            }) && toks.get(j + 1).is_some_and(|t| t.text == "(")
            {
                out.push(Violation {
                    lint: Lint::BtreeAlloc,
                    line: toks[i].line,
                    message: format!(
                        "`{name}::{}` allocates a node-based map in kernel code",
                        toks[j].text
                    ),
                });
            }
        }
        // `collect::<BTreeMap<…>>(` — turbofish naming a B-tree.
        if name == "collect"
            && toks.get(i + 1).is_some_and(|t| t.text == "::")
            && toks.get(i + 2).is_some_and(|t| t.text == "<")
        {
            let mut j = i + 3;
            let mut steps = 0;
            while let Some(t) = toks.get(j) {
                if steps > 40 || t.text == "(" {
                    break;
                }
                if t.kind == TokenKind::Ident && is_btree_type(&t.text) {
                    out.push(Violation {
                        lint: Lint::BtreeAlloc,
                        line: toks[i].line,
                        message: format!(
                            "`collect::<{}<…>>()` builds a node-based map in kernel code",
                            t.text
                        ),
                    });
                    break;
                }
                j += 1;
                steps += 1;
            }
        }
        // `let [mut] x: … BTreeMap … = …` — annotation-driven constructor
        // (plain `collect()`, `Default::default()`). Skipped when the
        // initializer is itself a B-tree path call (the first rule reports
        // that one) or when the annotation is a borrow.
        if name == "let" {
            let mut j = i + 1;
            if toks.get(j).is_some_and(|t| t.text == "mut") {
                j += 1;
            }
            if !toks.get(j).is_some_and(|t| t.kind == TokenKind::Ident)
                || !toks.get(j + 1).is_some_and(|t| t.text == ":")
            {
                continue;
            }
            let mut k = j + 2;
            let mut steps = 0;
            let mut hit: Option<&Token> = None;
            while let Some(t) = toks.get(k) {
                if steps > 40 || matches!(t.text.as_str(), "=" | ";" | "&") {
                    break;
                }
                if t.kind == TokenKind::Ident && is_btree_type(&t.text) {
                    hit = Some(t);
                    break;
                }
                k += 1;
                steps += 1;
            }
            let Some(ty) = hit else { continue };
            // Find the `=`; require an initializer and make sure it is not a
            // `BTreeMap::…(` call already reported above.
            let mut e = k + 1;
            let mut steps = 0;
            while let Some(t) = toks.get(e) {
                if steps > 40 || matches!(t.text.as_str(), "=" | ";") {
                    break;
                }
                e += 1;
                steps += 1;
            }
            if !toks.get(e).is_some_and(|t| t.text == "=") {
                continue;
            }
            if toks
                .get(e + 1)
                .is_some_and(|t| t.kind == TokenKind::Ident && is_btree_type(&t.text))
            {
                continue;
            }
            out.push(Violation {
                lint: Lint::BtreeAlloc,
                line: toks[i].line,
                message: format!(
                    "`let` binding builds a node-based `{}` in kernel code",
                    ty.text
                ),
            });
        }
    }
}

/// Allocating constructor owners for L7. `BTreeMap`/`BTreeSet` are
/// deliberately absent — fresh B-tree construction is L6's finding,
/// reachable or not.
fn is_alloc_type(name: &str) -> bool {
    matches!(
        name,
        "Vec" | "VecDeque" | "String" | "Box" | "Rc" | "Arc" | "HashMap" | "HashSet"
    )
}

/// Container types whose `.clone()` duplicates a heap allocation; used for
/// the L7 clone rule's binding inference.
fn is_container_type(name: &str) -> bool {
    matches!(
        name,
        "Vec"
            | "VecDeque"
            | "String"
            | "VecMap"
            | "HashMap"
            | "HashSet"
            | "BTreeMap"
            | "BTreeSet"
            | "LinkQueues"
            | "MultiAlphaEdges"
    )
}

/// Collects names bound (via `name : … Type …` annotations — let bindings,
/// struct fields, typed params) to a type accepted by `pred`.
fn typed_bindings(toks: &[Token], pred: fn(&str) -> bool) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for i in 0..toks.len() {
        if toks[i].kind != TokenKind::Ident {
            continue;
        }
        if toks.get(i + 1).is_some_and(|t| t.text == ":")
            && !toks.get(i + 2).is_some_and(|t| t.text == ":")
        {
            let mut j = i + 2;
            let mut steps = 0;
            while let Some(t) = toks.get(j) {
                if steps > 40 || matches!(t.text.as_str(), "=" | ";" | "{" | ")") {
                    break;
                }
                if t.kind == TokenKind::Ident && pred(&t.text) {
                    names.insert(toks[i].text.clone());
                    break;
                }
                j += 1;
                steps += 1;
            }
        }
    }
    names
}

/// L7: allocation sites inside one *reachable* function body.
///
/// Called by the workspace pass for every kernel-file function the call
/// graph marks reachable from a `lint-entrypoints.toml` entry. Matches the
/// allocation shapes that PR 3/PR 6 spent effort eliminating from the hot
/// path: fresh container constructors (`Vec::new`, `Box::new`, …, with or
/// without turbofish), `collect` (always allocates its collection),
/// `vec!`/`format!` macros, and `.clone()` on a container-typed binding.
/// `with_capacity` is deliberately *not* matched: pre-sizing a workspace
/// buffer in a constructor or reset is the sanctioned amortization idiom.
///
/// Suppression: a `// lint:allow(hot-alloc) — reason` pragma on the `fn`
/// line (or the line above it) waives the entire body — the idiom for
/// once-per-window cold paths that the over-approximate graph still
/// reaches; a line-level pragma waives one site.
#[allow(clippy::too_many_arguments)]
pub fn hot_alloc_sites(
    toks: &[Token],
    test_mask: &[bool],
    body: (usize, usize),
    skip_spans: &[(usize, usize)],
    container_bindings: &BTreeSet<String>,
    chain: &str,
    out: &mut Vec<Violation>,
) {
    let (start, end) = body;
    let mut i = start;
    'scan: while i <= end && i < toks.len() {
        // Nested fn bodies are their own graph nodes — skip their tokens.
        for &(s, e) in skip_spans {
            if i >= s && i <= e {
                i = e + 1;
                continue 'scan;
            }
        }
        let t = &toks[i];
        if test_mask[i] || t.kind != TokenKind::Ident {
            i += 1;
            continue;
        }
        let name = t.text.as_str();
        // `Vec::new(` / `Box::<T>::new(` / `Vec::from_iter(` …
        if is_alloc_type(name) && toks.get(i + 1).is_some_and(|n| n.text == "::") {
            let mut j = i + 2;
            if toks.get(j).is_some_and(|n| n.text == "<") {
                let mut depth = 1i32;
                j += 1;
                let mut steps = 0;
                while let Some(n) = toks.get(j) {
                    if steps > 40 || depth == 0 {
                        break;
                    }
                    match n.text.as_str() {
                        "<" => depth += 1,
                        ">" => depth -= 1,
                        _ => {}
                    }
                    j += 1;
                    steps += 1;
                }
                if !toks.get(j).is_some_and(|n| n.text == "::") {
                    i += 1;
                    continue;
                }
                j += 1;
            }
            if toks.get(j).is_some_and(|n| {
                n.kind == TokenKind::Ident
                    && matches!(n.text.as_str(), "new" | "from" | "from_iter" | "default")
            }) && toks.get(j + 1).is_some_and(|n| n.text == "(")
            {
                out.push(Violation {
                    lint: Lint::HotAlloc,
                    line: t.line,
                    message: format!(
                        "`{name}::{}` allocates on a kernel hot path (reachable: {chain})",
                        toks[j].text
                    ),
                });
            }
        }
        // `.collect(` / `.collect::<…>(` — building a collection allocates.
        if name == "collect" && i > 0 && toks[i - 1].text == "." {
            let mut j = i + 1;
            if toks.get(j).is_some_and(|n| n.text == "::") {
                j += 1; // turbofish: `::` `<` … — the `(` check below still gates
                let mut steps = 0;
                while let Some(n) = toks.get(j) {
                    if steps > 40 || n.text == "(" {
                        break;
                    }
                    j += 1;
                    steps += 1;
                }
            }
            if toks.get(j).is_some_and(|n| n.text == "(") {
                out.push(Violation {
                    lint: Lint::HotAlloc,
                    line: t.line,
                    message: format!(
                        "`.collect()` allocates on a kernel hot path (reachable: {chain})"
                    ),
                });
            }
        }
        // `vec!` / `format!`.
        if matches!(name, "vec" | "format")
            && toks.get(i + 1).is_some_and(|n| n.text == "!")
            && toks
                .get(i + 2)
                .is_some_and(|n| matches!(n.text.as_str(), "(" | "[" | "{"))
        {
            out.push(Violation {
                lint: Lint::HotAlloc,
                line: t.line,
                message: format!("`{name}!` allocates on a kernel hot path (reachable: {chain})"),
            });
        }
        // `binding.clone()` where the binding is container-typed.
        if name == "clone"
            && i > 1
            && toks[i - 1].text == "."
            && toks.get(i + 1).is_some_and(|n| n.text == "(")
            && toks[i - 2].kind == TokenKind::Ident
            && container_bindings.contains(&toks[i - 2].text)
        {
            out.push(Violation {
                lint: Lint::HotAlloc,
                line: t.line,
                message: format!(
                    "`{}.clone()` duplicates a container on a kernel hot path (reachable: {chain})",
                    toks[i - 2].text
                ),
            });
        }
        i += 1;
    }
}

/// Returns the container-typed binding names of a file, for the L7 clone
/// rule.
pub fn container_bindings(toks: &[Token]) -> BTreeSet<String> {
    typed_bindings(toks, is_container_type)
}

/// Identifier segments that mark a variable as carrying auction prices,
/// bids, scaled edge values or ε — the integers whose silent wrap would
/// void the ε = 1 exactness certificate (L8).
fn is_price_segment(seg: &str) -> bool {
    matches!(
        seg,
        "price"
            | "prices"
            | "bid"
            | "bids"
            | "val"
            | "vals"
            | "value"
            | "values"
            | "eps"
            | "epsilon"
            | "sval"
            | "certify"
            | "quantum"
    )
}

/// True if `name`'s snake_case segments mark it price/value-carrying.
fn is_price_ident(name: &str) -> bool {
    name.split('_').any(is_price_segment)
}

/// L8: raw `+`/`*`/`<<` (and their assign forms) where an adjacent operand
/// is a price/value identifier, in the exact kernels' integer scaling code
/// (`auction.rs`, `memo.rs`).
///
/// Overflow here is not a crash but a *silently wrong* optimality
/// certificate: the auction's ε = 1 termination proof assumes exact integer
/// arithmetic. Every surviving raw operation must either move to
/// `checked_*`/`wrapping_*` (with the wrap semantics argued) or carry a
/// `// lint:allow(unchecked-arith) — bound: …` pragma citing the bound that
/// keeps it in range. Float operands are excluded (floats saturate to ±∞
/// rather than wrapping): a literal float neighbour or an operand annotated
/// `f64`/`f32` disqualifies the site.
fn lint_unchecked_arith(toks: &[Token], test_mask: &[bool], out: &mut Vec<Violation>) {
    let float_bindings = typed_bindings(toks, |n| matches!(n, "f64" | "f32"));
    for i in 0..toks.len() {
        if test_mask[i]
            || toks[i].kind != TokenKind::Punct
            || !matches!(
                toks[i].text.as_str(),
                "+" | "*" | "<<" | "+=" | "*=" | "<<="
            )
        {
            continue;
        }
        let Some(prev) = i.checked_sub(1).map(|p| &toks[p]) else {
            continue;
        };
        // Binary position only: `*x` deref / `+` in bounds have no value
        // operand on the left.
        let binary = matches!(prev.kind, TokenKind::Ident | TokenKind::IntLit)
            || matches!(prev.text.as_str(), ")" | "]");
        if !binary {
            continue;
        }
        let next = toks.get(i + 1);
        if prev.kind == TokenKind::FloatLit || next.is_some_and(|n| n.kind == TokenKind::FloatLit) {
            continue;
        }
        // `x as f64 * price` / `price as f32 + y`: a float cast on either
        // side makes the whole expression float arithmetic, not integer
        // price math.
        let float_cast_after = |j: usize| {
            toks.get(j + 1).is_some_and(|t| t.text == "as")
                && toks
                    .get(j + 2)
                    .is_some_and(|t| matches!(t.text.as_str(), "f64" | "f32"))
        };
        let mut operand: Option<&str> = None;
        if prev.kind == TokenKind::Ident && is_price_ident(&prev.text) {
            operand = Some(prev.text.as_str());
        }
        if operand.is_none() {
            if let Some(n) = next.filter(|n| n.kind == TokenKind::Ident) {
                if is_price_ident(&n.text) && !float_cast_after(i + 1) {
                    operand = Some(n.text.as_str());
                }
            }
        }
        let Some(op_ident) = operand else { continue };
        if float_bindings.contains(op_ident) {
            continue;
        }
        out.push(Violation {
            lint: Lint::UncheckedArith,
            line: toks[i].line,
            message: format!(
                "raw `{}` on price/value integer `{op_ident}` (use checked_/wrapping_ or document the bound)",
                toks[i].text
            ),
        });
    }
}

/// L9: `Ordering::Relaxed` in kernel code without an ordering proof.
///
/// The kernel crates hold no atomics today; a new one must not arrive with
/// an unargued Relaxed. Relaxed is often correct (RMW claim counters,
/// monotone prune floors) — but "often" is how silent reordering bugs ship.
/// Every site must argue why Relaxed suffices in a
/// `// lint:allow(atomic-ordering) — <proof>` pragma, or use a stronger
/// ordering.
fn lint_atomic_ordering(toks: &[Token], test_mask: &[bool], out: &mut Vec<Violation>) {
    for i in 0..toks.len() {
        if test_mask[i] || toks[i].kind != TokenKind::Ident || toks[i].text != "Relaxed" {
            continue;
        }
        if i == 0 || toks[i - 1].text != "::" {
            continue;
        }
        out.push(Violation {
            lint: Lint::AtomicOrdering,
            line: toks[i].line,
            message: "`Ordering::Relaxed` without an ordering proof pragma".to_string(),
        });
    }
}

/// L10: `std::env::var` read outside a `OnceLock`-guarded reader.
///
/// The determinism contract says every env knob is read **once per
/// process** (so a mid-run `setenv`, or two disagreeing reads on two
/// threads, cannot fork the schedule). The sanctioned shape is a
/// `OnceLock`/`LazyLock` initializer; any `env::var`/`var_os` call whose
/// enclosing function body contains neither is flagged.
fn lint_env_once(
    toks: &[Token],
    test_mask: &[bool],
    parsed: &ParsedFile,
    out: &mut Vec<Violation>,
) {
    for i in 0..toks.len() {
        if test_mask[i]
            || toks[i].kind != TokenKind::Ident
            || !matches!(toks[i].text.as_str(), "var" | "var_os")
        {
            continue;
        }
        // `env :: var (` — with `env` possibly itself `std ::`-qualified.
        if !(i >= 2
            && toks[i - 1].text == "::"
            && toks[i - 2].text == "env"
            && toks.get(i + 1).is_some_and(|n| n.text == "("))
        {
            continue;
        }
        // Innermost enclosing fn body must contain a once-guard.
        let mut guarded = false;
        let mut best: Option<(usize, usize)> = None;
        for f in &parsed.fns {
            if let Some((s, e)) = f.body {
                if s < i && i < e {
                    match best {
                        Some((bs, be)) if be - bs <= e - s => {}
                        _ => best = Some((s, e)),
                    }
                }
            }
        }
        if let Some((s, e)) = best {
            guarded = toks[s..=e.min(toks.len() - 1)].iter().any(|t| {
                t.kind == TokenKind::Ident
                    && matches!(t.text.as_str(), "OnceLock" | "LazyLock" | "get_or_init")
            });
        }
        if !guarded {
            out.push(Violation {
                lint: Lint::EnvOnce,
                line: toks[i].line,
                message: format!(
                    "`env::{}` outside a OnceLock-guarded once-per-process reader",
                    toks[i].text
                ),
            });
        }
    }
}

/// L5: `unsafe` blocks and impls must carry a `// SAFETY:` comment on one of
/// the three preceding lines (or the same line). `unsafe fn` declarations
/// are exempt — the obligation sits at their call sites.
fn lint_undocumented_unsafe(toks: &[Token], pragmas: &Pragmas, out: &mut Vec<Violation>) {
    for i in 0..toks.len() {
        if toks[i].kind != TokenKind::Ident || toks[i].text != "unsafe" {
            continue;
        }
        let next = toks.get(i + 1);
        let is_block = next.is_some_and(|t| t.text == "{");
        let is_impl = next.is_some_and(|t| t.text == "impl");
        if !(is_block || is_impl) {
            continue;
        }
        let line = toks[i].line;
        let documented = (line.saturating_sub(3)..=line).any(|l| pragmas.safety_lines.contains(&l));
        if !documented {
            out.push(Violation {
                lint: Lint::UndocumentedUnsafe,
                line,
                message: format!(
                    "`unsafe {}` without a preceding `// SAFETY:` comment",
                    if is_block { "block" } else { "impl" }
                ),
            });
        }
    }
}
