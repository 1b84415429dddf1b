//! Greedy matching on **general** (non-bipartite) weighted graphs.
//!
//! The §7 generalization to bidirectional (full-duplex) links needs matchings
//! of a general undirected graph. The paper invokes Gabow–Tarjan's exact
//! algorithm; as documented in DESIGN.md we substitute the classic greedy
//! ½-approximation (the same trade the paper itself makes for Octopus-G on
//! the bipartite side), keeping the matcher pluggable.

/// An undirected weighted edge `{a, b}` with weight `w`.
pub type GeneralEdge = (u32, u32, f64);

/// Greedy maximum-weight matching on a general graph over `n` vertices:
/// repeatedly take the heaviest edge with both endpoints free.
///
/// Guarantees at least half the weight of the true maximum-weight matching
/// (Avis 1983). Ties are broken by normalized `(min, max)` endpoint pair, so
/// the result is deterministic. Self-loops and non-positive weights are
/// ignored. Returns edges as `(min, max)` pairs sorted ascending.
pub fn greedy_general_matching(n: u32, edges: &[GeneralEdge]) -> Vec<(u32, u32)> {
    let mut list: Vec<(u32, u32, f64)> = edges
        .iter()
        .filter(|&&(a, b, w)| a != b && w > 0.0 && a < n && b < n)
        .map(|&(a, b, w)| if a < b { (a, b, w) } else { (b, a, w) })
        .collect();
    list.sort_unstable_by(|x, y| y.2.total_cmp(&x.2).then((x.0, x.1).cmp(&(y.0, y.1))));
    let mut used = vec![false; n as usize];
    let mut out = Vec::new();
    for (a, b, _) in list {
        if !used[a as usize] && !used[b as usize] {
            used[a as usize] = true;
            used[b as usize] = true;
            out.push((a, b));
        }
    }
    out.sort_unstable();
    out
}

/// Exact maximum-weight matching on a general graph by exhaustive search —
/// exponential, for tests only.
///
/// # Panics
/// Panics if the graph has more than 24 positive edges.
pub fn general_matching_brute(n: u32, edges: &[GeneralEdge]) -> f64 {
    let list: Vec<(u32, u32, f64)> = edges
        .iter()
        .filter(|&&(a, b, w)| a != b && w > 0.0 && a < n && b < n)
        .copied()
        .collect();
    assert!(list.len() <= 24, "brute force limited to 24 edges");
    fn rec(list: &[(u32, u32, f64)], idx: usize, used: &mut [bool]) -> f64 {
        if idx == list.len() {
            return 0.0;
        }
        let skip = rec(list, idx + 1, used);
        let (a, b, w) = list[idx];
        if !used[a as usize] && !used[b as usize] {
            used[a as usize] = true;
            used[b as usize] = true;
            let take = w + rec(list, idx + 1, used);
            used[a as usize] = false;
            used[b as usize] = false;
            skip.max(take)
        } else {
            skip
        }
    }
    rec(&list, 0, &mut vec![false; n as usize])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn weight_of(edges: &[GeneralEdge], m: &[(u32, u32)]) -> f64 {
        m.iter()
            .map(|&(a, b)| {
                edges
                    .iter()
                    .filter(|&&(x, y, _)| (x, y) == (a, b) || (x, y) == (b, a))
                    .map(|&(_, _, w)| w)
                    .fold(0.0, f64::max)
            })
            .sum()
    }

    #[test]
    fn triangle_takes_heaviest_edge() {
        let edges = [(0, 1, 3.0), (1, 2, 2.0), (0, 2, 1.0)];
        let m = greedy_general_matching(3, &edges);
        assert_eq!(m, vec![(0, 1)]);
    }

    #[test]
    fn path_graph_alternation() {
        // Path 0-1-2-3 with middle edge heaviest: greedy takes middle only,
        // exact takes the two outer edges when they sum higher.
        let edges = [(0, 1, 2.0), (1, 2, 3.0), (2, 3, 2.0)];
        let m = greedy_general_matching(4, &edges);
        assert_eq!(m, vec![(1, 2)]);
        assert_eq!(general_matching_brute(4, &edges), 4.0);
        // Half-approximation holds: 3 >= 4/2.
        assert!(weight_of(&edges, &m) * 2.0 >= 4.0);
    }

    #[test]
    fn half_approximation_random() {
        let mut state = 99u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..300 {
            let n = 2 + (next() % 7) as u32;
            let ne = (next() % 10) as usize;
            let edges: Vec<GeneralEdge> = (0..ne)
                .map(|_| {
                    (
                        next() as u32 % n,
                        next() as u32 % n,
                        (1 + next() % 30) as f64,
                    )
                })
                .collect();
            let m = greedy_general_matching(n, &edges);
            // validity: node-disjoint
            let mut used = std::collections::HashSet::new();
            for &(a, b) in &m {
                assert!(used.insert(a));
                assert!(used.insert(b));
            }
            let got = weight_of(&edges, &m);
            let opt = general_matching_brute(n, &edges);
            assert!(got * 2.0 + 1e-9 >= opt, "greedy {got} vs opt {opt}");
        }
    }

    #[test]
    fn ignores_self_loops_and_nonpositive() {
        let edges = [(1, 1, 5.0), (0, 1, -2.0), (0, 1, 0.0)];
        assert!(greedy_general_matching(2, &edges).is_empty());
    }
}
