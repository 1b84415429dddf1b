/// A weighted edge between left vertex `u` and right vertex `v`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Edge {
    /// Left endpoint index.
    pub u: u32,
    /// Right endpoint index.
    pub v: u32,
    /// Edge weight (only `weight > 0` edges are useful for maximization).
    pub weight: f64,
}

/// A sparse weighted bipartite graph over `n_left` left and `n_right` right
/// vertices.
///
/// For the Octopus use-case, left vertices are output ports, right vertices
/// input ports (so `n_left == n_right == n`), and the weight of `(i, j)` is
/// `g(i, j, α)` — the maximum weight of α packets waiting to traverse that
/// link.
///
/// Edges with non-positive weight are dropped at construction: they can never
/// increase a maximum-weight matching and every kernel here assumes positive
/// weights. Duplicate `(u, v)` pairs keep the maximum weight.
#[derive(Debug, Clone, PartialEq)]
pub struct WeightedBipartiteGraph {
    n_left: u32,
    n_right: u32,
    edges: Vec<Edge>,
    /// Adjacency: for each left vertex, indices into `edges`, sorted by `v`.
    adj: Vec<Vec<u32>>,
}

impl WeightedBipartiteGraph {
    /// Builds a graph from an edge list.
    ///
    /// # Panics
    /// Panics if an endpoint is out of range or a weight is NaN.
    pub fn new<I>(n_left: u32, n_right: u32, edges: I) -> Self
    where
        I: IntoIterator<Item = Edge>,
    {
        let mut list: Vec<Edge> = edges
            .into_iter()
            .inspect(|e| {
                assert!(e.u < n_left, "left endpoint {} out of range", e.u);
                assert!(e.v < n_right, "right endpoint {} out of range", e.v);
                assert!(!e.weight.is_nan(), "edge weight must not be NaN");
            })
            .filter(|e| e.weight > 0.0)
            .collect();
        // Dedup keeping max weight per (u, v).
        list.sort_unstable_by(|a, b| {
            (a.u, a.v)
                .cmp(&(b.u, b.v))
                .then(b.weight.total_cmp(&a.weight))
        });
        list.dedup_by_key(|e| (e.u, e.v));
        let mut adj = vec![Vec::new(); n_left as usize];
        for (idx, e) in list.iter().enumerate() {
            adj[e.u as usize].push(idx as u32);
        }
        WeightedBipartiteGraph {
            n_left,
            n_right,
            edges: list,
            adj,
        }
    }

    /// Convenience constructor from `(u, v, weight)` tuples.
    pub fn from_tuples<I>(n_left: u32, n_right: u32, tuples: I) -> Self
    where
        I: IntoIterator<Item = (u32, u32, f64)>,
    {
        Self::new(
            n_left,
            n_right,
            tuples
                .into_iter()
                .map(|(u, v, weight)| Edge { u, v, weight }),
        )
    }

    /// Number of left vertices.
    #[inline]
    pub fn n_left(&self) -> u32 {
        self.n_left
    }

    /// Number of right vertices.
    #[inline]
    pub fn n_right(&self) -> u32 {
        self.n_right
    }

    /// All (positive-weight) edges, sorted by `(u, v)`.
    #[inline]
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Number of edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Edges incident to left vertex `u`.
    pub fn edges_of(&self, u: u32) -> impl Iterator<Item = &Edge> + '_ {
        self.adj[u as usize]
            .iter()
            .map(|&i| &self.edges[i as usize])
    }

    /// Weight of edge `(u, v)`, or `0.0` if absent.
    pub fn weight(&self, u: u32, v: u32) -> f64 {
        if u >= self.n_left {
            return 0.0;
        }
        self.edges_of(u)
            .find(|e| e.v == v)
            .map(|e| e.weight)
            .unwrap_or(0.0)
    }

    /// Largest edge weight, or `0.0` for an empty graph.
    pub fn max_weight(&self) -> f64 {
        self.edges.iter().map(|e| e.weight).fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drops_non_positive_and_dedups_to_max() {
        let g = WeightedBipartiteGraph::from_tuples(
            2,
            2,
            [(0, 0, 1.0), (0, 0, 3.0), (0, 1, 0.0), (1, 1, -2.0)],
        );
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.weight(0, 0), 3.0);
        assert_eq!(g.weight(0, 1), 0.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn panics_on_bad_endpoint() {
        let _ = WeightedBipartiteGraph::from_tuples(2, 2, [(2, 0, 1.0)]);
    }

    #[test]
    fn adjacency_iteration() {
        let g = WeightedBipartiteGraph::from_tuples(3, 3, [(1, 0, 1.0), (1, 2, 2.0)]);
        let vs: Vec<u32> = g.edges_of(1).map(|e| e.v).collect();
        assert_eq!(vs, vec![0, 2]);
        assert_eq!(g.max_weight(), 2.0);
    }
}
