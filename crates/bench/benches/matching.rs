//! Criterion micro-benchmarks for the matching kernels (the inner loop of
//! every scheduler iteration; Fig 10(a)'s story at kernel granularity).

// Bench harness boilerplate: criterion's closure-heavy style trips the
// workspace pedantic set, and `criterion_group!` expands to undocumented
// items. Benches are not library surface, so relax those lints here.
#![expect(clippy::semicolon_if_nothing_returned, missing_docs)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use octopus_matching::{
    greedy::{bucket_greedy_matching, greedy_matching},
    maximum_weight_matching, AssignmentSolver, WeightedBipartiteGraph,
};

/// Deterministic sparse instance shaped like an Octopus iteration: ~16 edges
/// per node with integral-ish weights bounded by the window.
fn instance(n: u32) -> WeightedBipartiteGraph {
    let mut state = 0x5eed_u64.wrapping_add(n as u64);
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut edges = Vec::new();
    for u in 0..n {
        for _ in 0..16 {
            let v = next() as u32 % n;
            let w = (1 + next() % 10_000) as f64;
            edges.push((u, v, w));
        }
    }
    WeightedBipartiteGraph::from_tuples(n, n, edges)
}

fn bench_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("matching");
    for n in [100u32, 300, 1000] {
        let g = instance(n);
        let ints: Vec<u64> = g.edges().iter().map(|e| e.weight as u64).collect();
        group.bench_with_input(BenchmarkId::new("exact_hungarian", n), &g, |b, g| {
            b.iter(|| maximum_weight_matching(g))
        });
        group.bench_with_input(BenchmarkId::new("greedy_sort", n), &g, |b, g| {
            b.iter(|| greedy_matching(g))
        });
        group.bench_with_input(BenchmarkId::new("bucket_greedy", n), &g, |b, g| {
            b.iter(|| bucket_greedy_matching(g, &ints))
        });
    }
    group.finish();
}

/// The exact kernel with and without workspace reuse: `one_shot` is the
/// historical `maximum_weight_matching` (a fresh solver per call),
/// `workspace_reuse` re-solves the same graph on one [`AssignmentSolver`],
/// and `reweighted` keeps the topology loaded and re-solves a weight column
/// in place — the batched α-sweep's steady state.
fn bench_workspace_reuse(c: &mut Criterion) {
    let mut group = c.benchmark_group("matching_workspace");
    for n in [100u32, 300, 1000] {
        let g = instance(n);
        group.bench_with_input(BenchmarkId::new("one_shot", n), &g, |b, g| {
            b.iter(|| maximum_weight_matching(g))
        });
        let mut solver = AssignmentSolver::new();
        group.bench_with_input(BenchmarkId::new("workspace_reuse", n), &g, |b, g| {
            b.iter(|| {
                solver.solve(g);
                solver.last_weight()
            })
        });
        // Fixed topology, column re-solves (weights scaled per call so the
        // matching stays identical while the floats differ).
        let edges: Vec<(u32, u32)> = g.edges().iter().map(|e| (e.u, e.v)).collect();
        let base: Vec<f64> = g.edges().iter().map(|e| e.weight).collect();
        let mut solver = AssignmentSolver::new();
        solver.load_topology(n, n, &edges);
        let mut col = base.clone();
        let mut flip = false;
        group.bench_function(BenchmarkId::new("reweighted", n), |b| {
            b.iter(|| {
                flip = !flip;
                let scale = if flip { 1.5 } else { 1.0 };
                for (w, &w0) in col.iter_mut().zip(&base) {
                    *w = w0 * scale;
                }
                solver.solve_reweighted(&col);
                solver.last_weight()
            })
        });
    }
    group.finish();
}

/// The exact kernel on dense columns: the Hungarian [`AssignmentSolver`]
/// loads a dense `n × n` topology once and re-solves integer weight columns
/// in place (`solve_reweighted`, the α-sweep's steady state). The group and
/// arm keep their names so earlier `exact_kernels/hungarian` tables stay
/// comparable. Its weights, drawn from 1..=4000, rarely tie; the
/// `hungarian_ties` arm solves tie-heavy Octopus-class columns, where the
/// kernel's tie rule decides how much each phase scans.
fn bench_exact_kernels(c: &mut Criterion) {
    const COLUMNS: usize = 4;
    let mut group = c.benchmark_group("exact_kernels");
    for n in [64u32, 128, 256, 512] {
        let edges: Vec<(u32, u32)> = (0..n).flat_map(|u| (0..n).map(move |v| (u, v))).collect();
        let mut state = 0x9E37_79B9_u64 ^ u64::from(n);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        // ~10 % disabled edges (w = 0), the rest 1..=4000.
        let cols: Vec<Vec<f64>> = (0..COLUMNS)
            .map(|_| {
                edges
                    .iter()
                    .map(|_| match next() {
                        r if r % 10 == 0 => 0.0,
                        r => (1 + r % 4000) as f64,
                    })
                    .collect()
            })
            .collect();

        let mut hungarian = AssignmentSolver::new();
        hungarian.load_topology(n, n, &edges);

        let mut k = 0;
        group.bench_function(BenchmarkId::new("hungarian", n), |b| {
            b.iter(|| {
                k = (k + 1) % COLUMNS;
                hungarian.solve_reweighted(&cols[k]);
                hungarian.last_weight()
            })
        });

        // Octopus-class columns: each link carries a few packets at hop
        // weight 1, 1/2 and 1/3, so most weights tie and most phases end at
        // distance 0; ~10 % disabled.
        let ties: Vec<Vec<f64>> = (0..COLUMNS)
            .map(|_| {
                edges
                    .iter()
                    .map(|_| match next() {
                        r if r % 10 == 0 => 0.0,
                        r => {
                            let r = r / 10;
                            (1 + r % 3) as f64 + (r / 3 % 3) as f64 / 2.0 + (r / 9 % 4) as f64 / 3.0
                        }
                    })
                    .collect()
            })
            .collect();
        group.bench_function(BenchmarkId::new("hungarian_ties", n), |b| {
            b.iter(|| {
                k = (k + 1) % COLUMNS;
                hungarian.solve_reweighted(&ties[k]);
                hungarian.last_weight()
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_kernels, bench_workspace_reuse, bench_exact_kernels, bench_blossom
}
criterion_main!(benches);

fn bench_blossom(c: &mut Criterion) {
    use octopus_matching::blossom::maximum_weight_matching_general;
    use octopus_matching::general::greedy_general_matching;
    let mut group = c.benchmark_group("general_matching");
    for n in [50u32, 100, 200] {
        let mut state = 0xb10_u64.wrapping_add(n as u64);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let edges: Vec<(u32, u32, i64)> = (0..(n as usize * 8))
            .map(|_| {
                (
                    next() as u32 % n,
                    next() as u32 % n,
                    (1 + next() % 10_000) as i64,
                )
            })
            .collect();
        let f_edges: Vec<(u32, u32, f64)> =
            edges.iter().map(|&(a, b, w)| (a, b, w as f64)).collect();
        group.bench_with_input(BenchmarkId::new("exact_blossom", n), &edges, |b, e| {
            b.iter(|| maximum_weight_matching_general(n, e))
        });
        group.bench_with_input(BenchmarkId::new("greedy_general", n), &f_edges, |b, e| {
            b.iter(|| greedy_general_matching(n, e))
        });
    }
    group.finish();
}
