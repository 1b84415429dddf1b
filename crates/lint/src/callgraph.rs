//! Workspace call graph and hot-path reachability.
//!
//! Built from the per-file parses ([`crate::parser`]): every `fn` item in
//! the workspace becomes a node, every call site becomes zero or more
//! edges, and reachability is computed by BFS from the kernel entry points
//! declared in `lint-entrypoints.toml`. Resolution is name-based and
//! deliberately *over-approximate* (see DESIGN.md §9):
//!
//! * `Type::name(…)` resolves to fns in an `impl Type`/`trait Type`, then
//!   (for `module::name(…)`) to fns defined in a file named `module.rs`,
//!   then to fns anywhere in the crate a `octopus_*` qualifier names;
//! * `.name(…)` method calls resolve to **every** workspace method with
//!   that name, regardless of receiver type — dyn dispatch and generics
//!   make anything narrower unsound without real type inference;
//! * bare `name(…)` resolves same-file first, then same-crate, then (only
//!   if a `use` import brings `name` into scope) workspace-wide;
//! * macro bodies are opaque: a call hidden inside a macro invocation is
//!   invisible (documented blind spot).
//!
//! Over-approximation is the right direction for L7 (`hot-alloc`): a false
//! edge can at worst demand one extra reviewed pragma; a missed edge would
//! silently let an allocation onto the hot path.

use crate::parser::ParsedFile;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// One graph node: a workspace `fn`.
#[derive(Debug, Clone)]
pub struct FnNode {
    /// Workspace-relative path of the defining file.
    pub file: String,
    /// Simple name.
    pub name: String,
    /// Enclosing impl/trait type, if any.
    pub qual: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Index of the file in the analysis file list.
    pub file_idx: usize,
    /// Index of the fn within that file's parse.
    pub fn_idx: usize,
}

impl FnNode {
    /// `Type::name` or plain `name`, for reports and DOT labels.
    pub fn display(&self) -> String {
        match &self.qual {
            Some(q) => format!("{q}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// The workspace call graph plus reachability from the declared entries.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// All workspace fns, in (file, source) order.
    pub nodes: Vec<FnNode>,
    /// Sorted, deduplicated adjacency per node.
    pub edges: Vec<Vec<usize>>,
    /// Entry node ids (every fn matched by some entry spec).
    pub entries: Vec<usize>,
    /// Entry specs that matched no workspace fn, in manifest order: a
    /// renamed or deleted entry point that would otherwise silently drop
    /// its hot path from L7.
    pub unmatched: Vec<String>,
    /// `reach[n]` is `Some(parent)` if `n` is reachable (entries point to
    /// themselves), `None` otherwise.
    pub reach: Vec<Option<usize>>,
}

/// Maps a workspace crate alias (as it appears in paths/imports) to the
/// directory its sources live in.
fn crate_dir(alias: &str) -> Option<&'static str> {
    Some(match alias {
        "octopus_core" => "crates/core/",
        "octopus_matching" => "crates/matching/",
        "octopus_net" => "crates/net/",
        "octopus_traffic" => "crates/traffic/",
        "octopus_sim" => "crates/sim/",
        "octopus_baselines" => "crates/baselines/",
        "octopus_serve" => "crates/serve/",
        _ => return None,
    })
}

/// The crate directory prefix of a workspace-relative path
/// (`crates/core/src/state.rs` → `crates/core/`).
fn crate_prefix(rel: &str) -> &str {
    if let Some(idx) = rel.find("/src/") {
        &rel[..idx + 1]
    } else {
        ""
    }
}

/// File stem (`crates/core/src/state.rs` → `state`), for resolving
/// module-qualified calls like `state::weighted_edges_multi`.
fn file_stem(rel: &str) -> &str {
    rel.rsplit('/')
        .next()
        .and_then(|f| f.strip_suffix(".rs"))
        .unwrap_or("")
}

impl CallGraph {
    /// Builds the graph from per-file parses and computes reachability from
    /// `entry_specs` (each `"name"` or `"Type::name"`).
    pub fn build(files: &[(&str, &ParsedFile)], entry_specs: &[String]) -> CallGraph {
        let mut g = CallGraph::default();
        // Node table + (file_idx, fn_idx) → node id.
        let mut by_pos: BTreeMap<(usize, usize), usize> = BTreeMap::new();
        for (file_idx, (rel, parsed)) in files.iter().enumerate() {
            for (fn_idx, f) in parsed.fns.iter().enumerate() {
                by_pos.insert((file_idx, fn_idx), g.nodes.len());
                g.nodes.push(FnNode {
                    file: (*rel).to_string(),
                    name: f.name.clone(),
                    qual: f.qual.clone(),
                    line: f.line,
                    file_idx,
                    fn_idx,
                });
            }
        }
        let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (id, n) in g.nodes.iter().enumerate() {
            by_name.entry(n.name.as_str()).or_default().push(id);
        }

        // Edges.
        let mut edges: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); g.nodes.len()];
        for (file_idx, (rel, parsed)) in files.iter().enumerate() {
            let imported: BTreeSet<&str> =
                parsed.imports.iter().map(|im| im.alias.as_str()).collect();
            for call in &parsed.calls {
                let Some(caller_fn) = call.caller else {
                    continue; // call in const/static position: no hot path
                };
                let Some(&caller) = by_pos.get(&(file_idx, caller_fn)) else {
                    continue;
                };
                let cands = by_name.get(call.name.as_str()).map_or(&[][..], |v| &v[..]);
                if cands.is_empty() {
                    continue; // external (std or vendored) — no node
                }
                let mut targets: Vec<usize> = Vec::new();
                if call.method {
                    // Any workspace method with this name.
                    targets.extend(cands.iter().filter(|&&c| g.nodes[c].qual.is_some()));
                } else if let Some(q) = &call.qual {
                    let q: &str = if q == "Self" {
                        g.nodes[caller].qual.as_deref().unwrap_or("Self")
                    } else {
                        q.as_str()
                    };
                    // impl/trait-qualified …
                    targets.extend(
                        cands
                            .iter()
                            .filter(|&&c| g.nodes[c].qual.as_deref() == Some(q)),
                    );
                    if targets.is_empty() {
                        // … then module-file-qualified …
                        targets.extend(cands.iter().filter(|&&c| file_stem(&g.nodes[c].file) == q));
                    }
                    if targets.is_empty() {
                        // … then crate-qualified free fns.
                        if let Some(dir) = crate_dir(q) {
                            targets.extend(
                                cands.iter().filter(|&&c| g.nodes[c].file.starts_with(dir)),
                            );
                        }
                    }
                } else {
                    // Bare call: same file, then same crate, then imported.
                    targets.extend(cands.iter().filter(|&&c| g.nodes[c].file_idx == file_idx));
                    if targets.is_empty() {
                        let prefix = crate_prefix(rel);
                        if !prefix.is_empty() {
                            targets.extend(
                                cands
                                    .iter()
                                    .filter(|&&c| g.nodes[c].file.starts_with(prefix)),
                            );
                        }
                    }
                    if targets.is_empty() && imported.contains(call.name.as_str()) {
                        targets.extend(cands.iter());
                    }
                }
                for t in targets {
                    if t != caller {
                        edges[caller].insert(t);
                    }
                }
            }
        }
        g.edges = edges.into_iter().map(|s| s.into_iter().collect()).collect();

        // Entries + BFS.
        g.reach = vec![None; g.nodes.len()];
        let mut queue: VecDeque<usize> = VecDeque::new();
        for spec in entry_specs {
            let (qual, name) = match spec.rsplit_once("::") {
                Some((q, n)) => (Some(q), n),
                None => (None, spec.as_str()),
            };
            let mut matched = false;
            for (id, n) in g.nodes.iter().enumerate() {
                let hit = n.name == name
                    && match qual {
                        Some(q) => n.qual.as_deref() == Some(q),
                        None => true,
                    };
                matched |= hit;
                if hit && g.reach[id].is_none() {
                    g.reach[id] = Some(id); // entries are their own parent
                    g.entries.push(id);
                    queue.push_back(id);
                }
            }
            if !matched {
                g.unmatched.push(spec.clone());
            }
        }
        while let Some(u) = queue.pop_front() {
            for &v in &g.edges[u] {
                if g.reach[v].is_none() {
                    g.reach[v] = Some(u);
                    queue.push_back(v);
                }
            }
        }
        g
    }

    /// True if node `id` is reachable from some entry point.
    pub fn is_reachable(&self, id: usize) -> bool {
        self.reach[id].is_some()
    }

    /// The node id of `(file_idx, fn_idx)`, if it exists.
    pub fn node_of(&self, file_idx: usize, fn_idx: usize) -> Option<usize> {
        // nodes are in (file, fn) order; binary search by key.
        self.nodes
            .binary_search_by_key(&(file_idx, fn_idx), |n| (n.file_idx, n.fn_idx))
            .ok()
    }

    /// Renders the chain entry → … → `id` (up to `max` hops, elided in the
    /// middle) for violation messages, e.g. `select → search → eval`.
    pub fn chain(&self, id: usize, max: usize) -> String {
        let mut names: Vec<String> = Vec::new();
        let mut cur = id;
        let mut guard = 0;
        while let Some(parent) = self.reach[cur] {
            names.push(self.nodes[cur].display());
            if parent == cur {
                break; // reached an entry
            }
            cur = parent;
            guard += 1;
            if guard > 64 {
                break;
            }
        }
        names.reverse();
        if names.len() > max && max >= 2 {
            let tail = names.split_off(names.len() - (max - 1));
            names.truncate(1);
            names.push("…".to_string());
            names.extend(tail);
        }
        names.join(" → ")
    }

    /// The reachable subgraph in Graphviz DOT, entries double-circled.
    pub fn render_dot(&self) -> String {
        let mut out =
            String::from("digraph callgraph {\n  rankdir=LR;\n  node [shape=box, fontsize=10];\n");
        let entry_set: BTreeSet<usize> = self.entries.iter().copied().collect();
        for (id, n) in self.nodes.iter().enumerate() {
            if !self.is_reachable(id) {
                continue;
            }
            let shape = if entry_set.contains(&id) {
                ", peripheries=2, style=bold"
            } else {
                ""
            };
            out.push_str(&format!(
                "  n{id} [label=\"{}\\n{}:{}\"{shape}];\n",
                n.display(),
                n.file,
                n.line
            ));
        }
        for (u, adj) in self.edges.iter().enumerate() {
            if !self.is_reachable(u) {
                continue;
            }
            for &v in adj {
                if self.is_reachable(v) {
                    out.push_str(&format!("  n{u} -> n{v};\n"));
                }
            }
        }
        out.push_str("}\n");
        out
    }
}

/// Parses `lint-entrypoints.toml`: a single `entrypoints = [ "…", … ]`
/// array of double-quoted specs, `#` comments allowed anywhere. A full
/// TOML parser would be a dependency; this file is machine-checked by the
/// fixtures and never grows beyond the one key.
pub fn parse_entrypoints(text: &str) -> Vec<String> {
    let mut specs = Vec::new();
    let mut in_array = false;
    for raw in text.lines() {
        let line = raw.split('#').next().unwrap_or("");
        if !in_array {
            if let Some(rest) = line.split_once("entrypoints").map(|(_, r)| r) {
                if rest.trim_start().starts_with('=') {
                    in_array = true;
                }
            }
        }
        if in_array {
            let mut rest = line;
            while let Some(start) = rest.find('"') {
                let after = &rest[start + 1..];
                let Some(end) = after.find('"') else { break };
                specs.push(after[..end].to_string());
                rest = &after[end + 1..];
            }
            if line.contains(']') {
                break;
            }
        }
    }
    specs
}
