//! Property-based tests (proptest) for the matching kernels: optimality,
//! approximation bounds, and cross-kernel agreement on random graphs.

use octopus_matching::{
    blossom::maximum_weight_matching_general,
    brute,
    general::{general_matching_brute, greedy_general_matching},
    greedy::{bucket_greedy_matching, greedy_matching, GreedyScratch},
    hopcroft_karp::hopcroft_karp,
    matching_weight, maximum_weight_matching, AssignmentSolver, WeightedBipartiteGraph,
};
use proptest::prelude::*;

/// Strategy: a small random weighted bipartite graph.
fn bipartite() -> impl Strategy<Value = (u32, u32, Vec<(u32, u32, f64)>)> {
    (1u32..7, 1u32..7).prop_flat_map(|(nl, nr)| {
        let edges = prop::collection::vec(
            (0..nl, 0..nr, 1u32..1000u32).prop_map(|(u, v, w)| (u, v, w as f64)),
            0..16,
        );
        (Just(nl), Just(nr), edges)
    })
}

/// Strategy: a fixed `(u, v)`-sorted topology plus several independent weight
/// columns (including non-positive entries, to exercise the `w <= 0` edge
/// dropping) and a chain of non-negative increments for monotone updates.
#[expect(clippy::type_complexity)]
fn topology_and_columns(
) -> impl Strategy<Value = (u32, u32, Vec<(u32, u32)>, Vec<Vec<f64>>, Vec<Vec<u64>>)> {
    (1u32..7, 1u32..7)
        .prop_flat_map(|(nl, nr)| {
            (
                Just(nl),
                Just(nr),
                prop::collection::vec((0..nl, 0..nr), 0..16),
            )
        })
        .prop_flat_map(|(nl, nr, mut raw)| {
            raw.sort_unstable();
            raw.dedup();
            let ne = raw.len();
            let cols = prop::collection::vec(prop::collection::vec(-400i64..8000, ne..=ne), 1..5);
            let deltas = prop::collection::vec(prop::collection::vec(0u64..64, ne..=ne), 0..4);
            (Just(nl), Just(nr), Just(raw), cols, deltas)
        })
        .prop_map(|(nl, nr, edges, cols, deltas)| {
            let cols: Vec<Vec<f64>> = cols
                .into_iter()
                .map(|c| c.into_iter().map(|w| w as f64 / 8.0).collect())
                .collect();
            (nl, nr, edges, cols, deltas)
        })
}

/// Cold reference: one-shot kernel on the positive-weight subgraph.
fn cold_solve(nl: u32, nr: u32, edges: &[(u32, u32)], col: &[f64]) -> Vec<(u32, u32)> {
    let tuples: Vec<(u32, u32, f64)> = edges
        .iter()
        .zip(col)
        .map(|(&(u, v), &w)| (u, v, w))
        .collect();
    maximum_weight_matching(&WeightedBipartiteGraph::from_tuples(nl, nr, tuples))
}

fn is_matching(m: &[(u32, u32)]) -> bool {
    let mut ls = std::collections::HashSet::new();
    let mut rs = std::collections::HashSet::new();
    m.iter().all(|&(u, v)| ls.insert(u) && rs.insert(v))
}

/// Strategy: an Octopus-class column over an `n`-port fabric's complete
/// link set (no self-loops), `n` drawn from `sizes`. A weight is a few
/// packets of hop weight `1`, `1/2` and `1/3`, so equal weights and
/// equal-weight optima abound; about one link in ten is disabled (`0` or
/// negative).
fn octopus_column(
    sizes: impl Strategy<Value = u32>,
) -> impl Strategy<Value = (u32, Vec<(u32, u32)>, Vec<f64>)> {
    sizes.prop_flat_map(|n| {
        let edges: Vec<(u32, u32)> = (0..n)
            .flat_map(|u| (0..n).filter(move |&v| v != u).map(move |v| (u, v)))
            .collect();
        let weight = (0u32..10, 0u32..3, 0u32..3, 0u32..4).prop_map(|(off, a, b, c)| match off {
            0 => -f64::from(a),
            _ => f64::from(a) + f64::from(b) / 2.0 + f64::from(c) / 3.0,
        });
        let col = prop::collection::vec(weight, edges.len()..=edges.len());
        (Just(n), Just(edges), col)
    })
}

/// The kernel's optimality certificate on one column: the right duals
/// `z ≥ 0` of [`AssignmentSolver::right_duals`], with the left duals they
/// imply, `y_u = max_v (w(u, v) − z_v)⁺`, are feasible on every enabled
/// edge (up to rounding), and `Σy + Σz` equals the returned matching's weight up to the
/// rounding of its `2n + 1` sums, padded as the α-search pads its dual
/// bounds. By weak duality no matching weighs more than `Σy + Σz`, so the
/// returned one is a maximum-weight matching.
fn assert_certified(n: u32, edges: &[(u32, u32)], col: &[f64]) {
    let mut solver = AssignmentSolver::new();
    solver.load_topology(n, n, edges);
    let m = solver.solve_reweighted(col).to_vec();
    assert!(is_matching(&m));
    let mut z = Vec::new();
    solver.right_duals(&mut z);
    assert_eq!(z.len(), n as usize);
    assert!(z.iter().all(|&x| x >= 0.0));
    let mut y = vec![0.0f64; n as usize];
    for (&(u, v), &w) in edges.iter().zip(col).filter(|&(_, &w)| w > 0.0) {
        y[u as usize] = y[u as usize].max(w - z[v as usize]);
    }
    let mut weight = 0.0;
    for &(u, v) in &m {
        let e = edges
            .binary_search(&(u, v))
            .expect("matched pair is a loaded edge");
        assert!(col[e] > 0.0, "({u}, {v}) is disabled");
        weight += col[e];
    }
    assert_eq!(weight.to_bits(), solver.last_weight().to_bits());
    for (&(u, v), &w) in edges.iter().zip(col).filter(|&(_, &w)| w > 0.0) {
        // Up to the rounding of `w − z_v` and of the sum.
        let (y, z) = (y[u as usize], z[v as usize]);
        assert!(
            w - (y + z) <= 2.0 * f64::EPSILON * (w + z),
            "({u}, {v}) infeasible: w {w}, y {y}, z {z}"
        );
    }
    let total = y.iter().sum::<f64>() + z.iter().sum::<f64>();
    let terms = 2 * n as usize + z.len() + 1;
    let tolerance = (terms + 2) as f64 * f64::EPSILON * total;
    assert!(
        (total - weight).abs() <= tolerance,
        "dual {total} vs matching {weight}: gap {:e} above {tolerance:e}",
        total - weight
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn exact_kernel_is_certified_on_octopus_columns((n, edges, col) in octopus_column(2u32..25)) {
        assert_certified(n, &edges, &col);
    }

    #[test]
    fn exact_bipartite_matches_brute_force((nl, nr, edges) in bipartite()) {
        let g = WeightedBipartiteGraph::from_tuples(nl, nr, edges);
        let m = maximum_weight_matching(&g);
        prop_assert!(is_matching(&m));
        let got = matching_weight(&g, &m);
        let want = brute::max_weight_matching_brute(&g);
        prop_assert!((got - want).abs() < 1e-6, "exact {got} vs brute {want}");
    }

    #[test]
    fn greedy_is_half_approximate((nl, nr, edges) in bipartite()) {
        let g = WeightedBipartiteGraph::from_tuples(nl, nr, edges);
        let greedy = matching_weight(&g, &greedy_matching(&g));
        let opt = brute::max_weight_matching_brute(&g);
        prop_assert!(greedy * 2.0 + 1e-9 >= opt);
        prop_assert!(greedy <= opt + 1e-9);
    }

    #[test]
    fn bucket_greedy_equals_sort_greedy_on_integers((nl, nr, edges) in bipartite()) {
        let g = WeightedBipartiteGraph::from_tuples(nl, nr, edges);
        let ints: Vec<u64> = g.edges().iter().map(|e| e.weight as u64).collect();
        prop_assert_eq!(bucket_greedy_matching(&g, &ints), greedy_matching(&g));
    }

    #[test]
    fn hopcroft_karp_is_maximum_cardinality((nl, nr, edges) in bipartite()) {
        let g = WeightedBipartiteGraph::from_tuples(nl, nr, edges);
        let hk = hopcroft_karp(&g);
        prop_assert!(is_matching(&hk));
        prop_assert_eq!(hk.len(), brute::max_cardinality_matching_brute(&g));
    }

    #[test]
    fn blossom_matches_brute_on_general_graphs(
        n in 2u32..8,
        raw in prop::collection::vec((0u32..8, 0u32..8, 1i64..500), 0..12),
    ) {
        let edges: Vec<(u32, u32, i64)> = raw
            .into_iter()
            .map(|(a, b, w)| (a % n, b % n, w))
            .collect();
        let m = maximum_weight_matching_general(n, &edges);
        prop_assert!(is_matching(&m));
        let got: i64 = m
            .iter()
            .map(|&(a, b)| {
                edges
                    .iter()
                    .filter(|&&(x, y, _)| (x.min(y), x.max(y)) == (a, b))
                    .map(|&(_, _, w)| w)
                    .max()
                    .unwrap_or(0)
            })
            .sum();
        let fedges: Vec<(u32, u32, f64)> =
            edges.iter().map(|&(a, b, w)| (a, b, w as f64)).collect();
        let want = general_matching_brute(n, &fedges);
        prop_assert!((got as f64 - want).abs() < 1e-9, "blossom {got} vs brute {want}");
        // And the greedy general matcher stays within its half bound.
        let gw: f64 = greedy_general_matching(n, &fedges)
            .iter()
            .map(|&(a, b)| {
                fedges
                    .iter()
                    .filter(|&&(x, y, _)| (x.min(y), x.max(y)) == (a, b))
                    .map(|&(_, _, w)| w)
                    .fold(0.0, f64::max)
            })
            .sum();
        prop_assert!(gw * 2.0 + 1e-9 >= want);
    }

    #[test]
    fn solver_reweighted_bit_identical_to_cold_solve(
        (nl, nr, edges, cols, deltas) in topology_and_columns()
    ) {
        let mut solver = AssignmentSolver::new();
        solver.load_topology(nl, nr, &edges);
        // Independent columns: the workspace result must be a pure function
        // of (topology, weights), whatever was solved before.
        for col in &cols {
            let warm = solver.solve_reweighted(col).to_vec();
            prop_assert_eq!(&warm, &cold_solve(nl, nr, &edges, col));
        }
        // Monotone updates: bump weights in place and re-solve each step.
        let mut col = cols.last().unwrap().clone();
        for delta in &deltas {
            for (w, d) in col.iter_mut().zip(delta) {
                *w += *d as f64;
            }
            let warm = solver.solve_reweighted(&col).to_vec();
            prop_assert_eq!(&warm, &cold_solve(nl, nr, &edges, &col));
        }
    }

    #[test]
    fn solver_reused_across_graphs_matches_one_shot(
        (nl1, nr1, edges1) in bipartite(),
        (nl2, nr2, edges2) in bipartite(),
    ) {
        let g1 = WeightedBipartiteGraph::from_tuples(nl1, nr1, edges1);
        let g2 = WeightedBipartiteGraph::from_tuples(nl2, nr2, edges2);
        let mut solver = AssignmentSolver::new();
        prop_assert_eq!(solver.solve(&g1).to_vec(), maximum_weight_matching(&g1));
        prop_assert!(
            (solver.last_weight() - matching_weight(&g1, solver.matching())).abs() == 0.0
        );
        // Buffer reuse across differently-shaped graphs must not leak state.
        prop_assert_eq!(solver.solve(&g2).to_vec(), maximum_weight_matching(&g2));
        prop_assert_eq!(solver.solve(&g1).to_vec(), maximum_weight_matching(&g1));
    }

    #[test]
    fn greedy_scratch_bit_identical_to_graph_greedy(
        (nl, nr, edges, cols, _d) in topology_and_columns()
    ) {
        let mut scratch = GreedyScratch::new();
        let mut out = Vec::new();
        for col in &cols {
            let tuples: Vec<(u32, u32, f64)> = edges
                .iter()
                .zip(col)
                .map(|(&(u, v), &w)| (u, v, w))
                .collect();
            let g = WeightedBipartiteGraph::from_tuples(nl, nr, tuples);
            scratch.greedy_on(nl, nr, &edges, col, &mut out);
            prop_assert_eq!(&out, &greedy_matching(&g));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The certificate at complete n = 64, 128 and 256; release-only (CI
    /// runs it).
    #[test]
    #[ignore = "release-mode certificate at n = 64-256"]
    fn exact_kernel_is_certified_at_real_sizes(
        (n, edges, col) in octopus_column((0usize..3).prop_map(|i| [64u32, 128, 256][i]))
    ) {
        assert_certified(n, &edges, &col);
    }
}
