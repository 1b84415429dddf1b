//! Hopcroft–Karp maximum-cardinality bipartite matching, `O(E √V)`.
//!
//! The Solstice baseline uses it to find a perfect matching among the
//! demand-matrix entries above each threshold.

use crate::WeightedBipartiteGraph;

/// Computes a maximum-cardinality matching of `g` (weights ignored).
///
/// Returns `(left, right)` pairs sorted by left index.
///
/// ```
/// use octopus_matching::{hopcroft_karp::hopcroft_karp, WeightedBipartiteGraph};
/// let g = WeightedBipartiteGraph::from_tuples(
///     3, 3, [(0, 0, 1.0), (0, 1, 1.0), (1, 0, 1.0), (2, 2, 1.0)]);
/// assert_eq!(hopcroft_karp(&g).len(), 3);
/// ```
pub fn hopcroft_karp(g: &WeightedBipartiteGraph) -> Vec<(u32, u32)> {
    let nl = g.n_left() as usize;
    let nr = g.n_right() as usize;
    let mut match_l: Vec<Option<u32>> = vec![None; nl];
    let mut match_r: Vec<Option<u32>> = vec![None; nr];
    let mut dist: Vec<u32> = vec![u32::MAX; nl];

    loop {
        // BFS layering from free left vertices.
        let mut queue = std::collections::VecDeque::new();
        for u in 0..nl {
            if match_l[u].is_none() {
                dist[u] = 0;
                queue.push_back(u as u32);
            } else {
                dist[u] = u32::MAX;
            }
        }
        let mut found_free = false;
        while let Some(u) = queue.pop_front() {
            for e in g.edges_of(u) {
                match match_r[e.v as usize] {
                    None => found_free = true,
                    Some(u2) => {
                        if dist[u2 as usize] == u32::MAX {
                            dist[u2 as usize] = dist[u as usize] + 1;
                            queue.push_back(u2);
                        }
                    }
                }
            }
        }
        if !found_free {
            break;
        }
        // DFS augmentation along the layering.
        for u in 0..nl as u32 {
            if match_l[u as usize].is_none() {
                dfs(g, u, &mut match_l, &mut match_r, &mut dist);
            }
        }
    }

    let mut out: Vec<(u32, u32)> = match_l
        .iter()
        .enumerate()
        .filter_map(|(u, &v)| v.map(|v| (u as u32, v)))
        .collect();
    out.sort_unstable();
    out
}

fn dfs(
    g: &WeightedBipartiteGraph,
    u: u32,
    match_l: &mut [Option<u32>],
    match_r: &mut [Option<u32>],
    dist: &mut [u32],
) -> bool {
    for e in g.edges_of(u) {
        let v = e.v as usize;
        let ok = match match_r[v] {
            None => true,
            Some(u2) => {
                dist[u2 as usize] == dist[u as usize].saturating_add(1)
                    && dfs(g, u2, match_l, match_r, dist)
            }
        };
        if ok {
            match_l[u as usize] = Some(e.v);
            match_r[v] = Some(u);
            return true;
        }
    }
    dist[u as usize] = u32::MAX; // dead end: prune
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute;

    #[test]
    fn perfect_matching_on_identity() {
        let g = WeightedBipartiteGraph::from_tuples(
            4,
            4,
            (0..4).map(|i| (i, i, 1.0)).collect::<Vec<_>>(),
        );
        assert_eq!(hopcroft_karp(&g).len(), 4);
    }

    #[test]
    fn matches_kuhn_on_random_graphs() {
        let mut state = 3u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..300 {
            let nl = 1 + (next() % 8) as u32;
            let nr = 1 + (next() % 8) as u32;
            let ne = (next() % 24) as usize;
            let edges: Vec<(u32, u32, f64)> = (0..ne)
                .map(|_| (next() as u32 % nl, next() as u32 % nr, 1.0))
                .collect();
            let g = WeightedBipartiteGraph::from_tuples(nl, nr, edges);
            let hk = hopcroft_karp(&g);
            // validity
            let mut ls = std::collections::HashSet::new();
            let mut rs = std::collections::HashSet::new();
            for &(u, v) in &hk {
                assert!(ls.insert(u));
                assert!(rs.insert(v));
                assert!(g.weight(u, v) > 0.0, "matched a non-edge");
            }
            assert_eq!(hk.len(), brute::max_cardinality_matching_brute(&g));
        }
    }

    #[test]
    fn empty_graph() {
        let g = WeightedBipartiteGraph::from_tuples(3, 3, []);
        assert!(hopcroft_karp(&g).is_empty());
    }
}
