//! Greedy approximate matchings — the engine of **Octopus-G**.
//!
//! The classic greedy ("repeatedly take the heaviest edge whose endpoints are
//! both free") is a ½-approximation to maximum-weight matching (Avis 1983).
//! The paper's §8 observes that in the Octopus setting edge weights are
//! integral (after scaling packet weights by `lcm(1..=𝒟)`) and bounded by a
//! small multiple of the window `W`, so the sort can be a counting sort and
//! the whole matching runs in `O(max(W, |E|))` time — that is
//! [`bucket_greedy_matching`]. [`greedy_matching`] is the comparison-sort
//! variant for arbitrary `f64` weights.

use crate::WeightedBipartiteGraph;

/// Sort-based greedy matching: ½-approximation, `O(E log E)`.
///
/// Ties are broken by `(u, v)` so results are deterministic.
pub fn greedy_matching(g: &WeightedBipartiteGraph) -> Vec<(u32, u32)> {
    let mut order: Vec<usize> = (0..g.num_edges()).collect();
    let edges = g.edges();
    order.sort_unstable_by(|&a, &b| {
        edges[b]
            .weight
            .total_cmp(&edges[a].weight)
            .then((edges[a].u, edges[a].v).cmp(&(edges[b].u, edges[b].v)))
    });
    take_greedily(g, order.into_iter())
}

/// Counting-sort greedy matching for **integer** edge weights.
///
/// `weights` must contain, for each edge of `g` (in `g.edges()` order), its
/// integral weight. Runs in `O(max_weight + E)` time and space — the paper's
/// "incredibly simple … merely updating and accessing a W-size array"
/// implementation. Ties within a bucket are broken by edge order `(u, v)`.
///
/// # Panics
/// Panics if `weights.len() != g.num_edges()`.
pub fn bucket_greedy_matching(g: &WeightedBipartiteGraph, weights: &[u64]) -> Vec<(u32, u32)> {
    assert_eq!(
        weights.len(),
        g.num_edges(),
        "one integral weight per edge required"
    );
    let max_w = weights.iter().copied().max().unwrap_or(0) as usize;
    // buckets[w] = edge indices of weight w (edge order preserved, so ties
    // stay (u, v)-ordered because g.edges() is (u, v)-sorted).
    let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); max_w + 1];
    for (i, &w) in weights.iter().enumerate() {
        if w > 0 {
            buckets[w as usize].push(i as u32);
        }
    }
    let order = buckets
        .into_iter()
        .rev()
        .flatten()
        .map(|i| i as usize)
        .collect::<Vec<_>>();
    take_greedily(g, order.into_iter())
}

/// Reusable scratch for the slice-based greedy kernels.
///
/// The α-search evaluates many weight columns over one fixed edge topology
/// (see [`crate::AssignmentSolver`]); these variants take the topology as a
/// plain `(u, v)`-sorted slice plus a parallel weight column and reuse the
/// sort/marker buffers across calls, so a solve allocates nothing once the
/// buffers have warmed up. Results are bit-identical to [`greedy_matching`] /
/// [`bucket_greedy_matching`] on the graph built from the positive-weight
/// subset of the edges.
#[derive(Debug, Default)]
pub struct GreedyScratch {
    order: Vec<u32>,
    counts: Vec<u32>,
    used_l: Vec<bool>,
    used_r: Vec<bool>,
}

impl GreedyScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sort-based greedy over a fixed topology and weight column, writing the
    /// matching (sorted by `(u, v)`) into `out`.
    ///
    /// `edges` must be `(u, v)`-sorted and duplicate-free; `weights[i]` is
    /// edge `i`'s weight, with entries `<= 0.0` disabling their edge.
    /// Bit-identical to [`greedy_matching`] on the equivalent
    /// [`WeightedBipartiteGraph`].
    pub fn greedy_on(
        &mut self,
        n_left: u32,
        n_right: u32,
        edges: &[(u32, u32)],
        weights: &[f64],
        out: &mut Vec<(u32, u32)>,
    ) {
        assert_eq!(weights.len(), edges.len(), "one weight per edge required");
        self.order.clear();
        self.order
            .extend((0..edges.len() as u32).filter(|&i| weights[i as usize] > 0.0));
        // Keys (weight, u, v) are unique per edge, so the unstable sort is
        // deterministic and matches `greedy_matching`'s order exactly.
        self.order.sort_unstable_by(|&a, &b| {
            weights[b as usize]
                .total_cmp(&weights[a as usize])
                .then(edges[a as usize].cmp(&edges[b as usize]))
        });
        self.take_greedily_on(n_left, n_right, edges, out);
    }

    /// Counting-sort greedy over a fixed topology and **integral** weight
    /// column; the allocation-free analogue of [`bucket_greedy_matching`].
    ///
    /// `edges` must be `(u, v)`-sorted and duplicate-free; zero weights
    /// disable their edge. Runs in `O(max_weight + E)` with all buffers
    /// reused.
    pub fn bucket_greedy_on(
        &mut self,
        n_left: u32,
        n_right: u32,
        edges: &[(u32, u32)],
        weights: &[u64],
        out: &mut Vec<(u32, u32)>,
    ) {
        assert_eq!(weights.len(), edges.len(), "one weight per edge required");
        let max_w = weights.iter().copied().max().unwrap_or(0) as usize;
        // Counting sort by key = max_w - w (so heaviest first), stable in
        // edge index: the exact order `bucket_greedy_matching` produces.
        self.counts.clear();
        self.counts.resize(max_w + 1, 0);
        for &w in weights.iter().filter(|&&w| w > 0) {
            self.counts[max_w - w as usize] += 1;
        }
        let mut total = 0u32;
        for c in &mut self.counts {
            let here = *c;
            *c = total;
            total += here;
        }
        self.order.clear();
        self.order.resize(total as usize, 0);
        for (i, &w) in weights.iter().enumerate() {
            if w > 0 {
                let slot = &mut self.counts[max_w - w as usize];
                self.order[*slot as usize] = i as u32;
                *slot += 1;
            }
        }
        self.take_greedily_on(n_left, n_right, edges, out);
    }

    fn take_greedily_on(
        &mut self,
        n_left: u32,
        n_right: u32,
        edges: &[(u32, u32)],
        out: &mut Vec<(u32, u32)>,
    ) {
        self.used_l.clear();
        self.used_l.resize(n_left as usize, false);
        self.used_r.clear();
        self.used_r.resize(n_right as usize, false);
        out.clear();
        for &i in &self.order {
            let (u, v) = edges[i as usize];
            if !self.used_l[u as usize] && !self.used_r[v as usize] {
                self.used_l[u as usize] = true;
                self.used_r[v as usize] = true;
                out.push((u, v));
            }
        }
        out.sort_unstable();
    }
}

fn take_greedily(
    g: &WeightedBipartiteGraph,
    order: impl Iterator<Item = usize>,
) -> Vec<(u32, u32)> {
    let mut used_l = vec![false; g.n_left() as usize];
    let mut used_r = vec![false; g.n_right() as usize];
    let mut out = Vec::new();
    let edges = g.edges();
    for i in order {
        let e = edges[i];
        if !used_l[e.u as usize] && !used_r[e.v as usize] {
            used_l[e.u as usize] = true;
            used_r[e.v as usize] = true;
            out.push((e.u, e.v));
        }
    }
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{brute, matching_weight, maximum_weight_matching};

    #[test]
    fn greedy_takes_heaviest_first() {
        let g = WeightedBipartiteGraph::from_tuples(2, 2, [(0, 0, 1.0), (0, 1, 10.0), (1, 1, 2.0)]);
        // Greedy takes (0,1)=10, blocking (1,1); leaves (1,?) nothing... but
        // (1,1) shares right 1 — wait, (1,1) is left 1/right 1, blocked.
        assert_eq!(greedy_matching(&g), vec![(0, 1)]);
    }

    #[test]
    fn greedy_is_half_approximate() {
        let mut state = 42u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..300 {
            let nl = 1 + (next() % 6) as u32;
            let nr = 1 + (next() % 6) as u32;
            let ne = (next() % 12) as usize;
            let edges: Vec<(u32, u32, f64)> = (0..ne)
                .map(|_| {
                    (
                        next() as u32 % nl,
                        next() as u32 % nr,
                        1.0 + ((next() % 100) as f64),
                    )
                })
                .collect();
            let g = WeightedBipartiteGraph::from_tuples(nl, nr, edges);
            let greedy_w = matching_weight(&g, &greedy_matching(&g));
            let opt = brute::max_weight_matching_brute(&g);
            assert!(
                greedy_w * 2.0 + 1e-9 >= opt,
                "greedy {greedy_w} below half of optimum {opt}"
            );
            assert!(greedy_w <= opt + 1e-9);
        }
    }

    #[test]
    fn bucket_matches_sort_greedy_on_integer_weights() {
        let mut state = 7u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..200 {
            let nl = 1 + (next() % 8) as u32;
            let nr = 1 + (next() % 8) as u32;
            let ne = (next() % 20) as usize;
            let edges: Vec<(u32, u32, f64)> = (0..ne)
                .map(|_| {
                    (
                        next() as u32 % nl,
                        next() as u32 % nr,
                        (1 + next() % 50) as f64,
                    )
                })
                .collect();
            let g = WeightedBipartiteGraph::from_tuples(nl, nr, edges);
            let ints: Vec<u64> = g.edges().iter().map(|e| e.weight as u64).collect();
            assert_eq!(bucket_greedy_matching(&g, &ints), greedy_matching(&g));
        }
    }

    #[test]
    fn bucket_handles_empty_graph() {
        let g = WeightedBipartiteGraph::from_tuples(3, 3, []);
        assert!(bucket_greedy_matching(&g, &[]).is_empty());
    }

    #[test]
    fn scratch_variants_match_graph_variants() {
        let mut state = 0xfeed_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut scratch = GreedyScratch::new();
        let mut out = Vec::new();
        for _ in 0..200 {
            let nl = 1 + (next() % 8) as u32;
            let nr = 1 + (next() % 8) as u32;
            let mut edges: Vec<(u32, u32)> = (0..(next() % 20) as usize)
                .map(|_| (next() as u32 % nl, next() as u32 % nr))
                .collect();
            edges.sort_unstable();
            edges.dedup();
            // Integral weights with zeros mixed in to hit the disable path.
            let ints: Vec<u64> = edges.iter().map(|_| next() % 50).collect();
            let floats: Vec<f64> = ints.iter().map(|&w| w as f64).collect();
            let tuples: Vec<(u32, u32, f64)> = edges
                .iter()
                .zip(&floats)
                .map(|(&(u, v), &w)| (u, v, w))
                .collect();
            let g = WeightedBipartiteGraph::from_tuples(nl, nr, tuples);
            let g_ints: Vec<u64> = g.edges().iter().map(|e| e.weight as u64).collect();

            scratch.greedy_on(nl, nr, &edges, &floats, &mut out);
            assert_eq!(out, greedy_matching(&g));
            scratch.bucket_greedy_on(nl, nr, &edges, &ints, &mut out);
            assert_eq!(out, bucket_greedy_matching(&g, &g_ints));
        }
    }

    #[test]
    fn greedy_equals_exact_when_weights_unique_and_disjoint() {
        let g = WeightedBipartiteGraph::from_tuples(3, 3, [(0, 0, 9.0), (1, 1, 5.0), (2, 2, 3.0)]);
        assert_eq!(greedy_matching(&g), maximum_weight_matching(&g));
    }
}
