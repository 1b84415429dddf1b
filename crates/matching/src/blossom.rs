//! Exact maximum-weight matching on **general** (non-bipartite) graphs:
//! the weighted blossom algorithm, `O(V³)`.
//!
//! This is the primal-dual algorithm of Edmonds in Galil's formulation,
//! maintaining dual variables on vertices and (contracted) blossoms and
//! growing alternating trees from unmatched vertices; when the tree meets
//! itself at an odd cycle the cycle is shrunk into a blossom vertex, and
//! blossoms with zero dual are expanded back. Weights are integers
//! (internally doubled so all duals stay integral).
//!
//! The §7 bidirectional-fabric generalization of the Octopus paper calls for
//! exactly this kernel (the paper cites Gabow–Tarjan; this implementation is
//! the classical `O(V³)` variant, ample for the fabric sizes involved). It
//! maximizes total weight over *all* matchings — vertices may stay
//! unmatched, and only strictly positive edges are ever matched.

/// Exact maximum-weight matching over `n` vertices (0-indexed) given
/// undirected integer-weighted edges `(a, b, w)`.
///
/// Self-loops, duplicate pairs (heaviest kept) and non-positive weights are
/// tolerated (the latter dropped). Returns matched pairs as `(min, max)`
/// sorted ascending.
///
/// ```
/// use octopus_matching::blossom::maximum_weight_matching_general;
/// // Path 0-1-2-3: greedy would take the heavy middle edge, the exact
/// // matching takes the two outer edges (2 + 2 > 3).
/// let m = maximum_weight_matching_general(4, &[(0, 1, 2), (1, 2, 3), (2, 3, 2)]);
/// assert_eq!(m, vec![(0, 1), (2, 3)]);
/// ```
#[expect(
    clippy::disallowed_types,
    reason = "cold path: one edge dedup per blossom call"
)]
pub fn maximum_weight_matching_general(n: u32, edges: &[(u32, u32, i64)]) -> Vec<(u32, u32)> {
    if n == 0 {
        return Vec::new();
    }
    let mut solver = Blossom::new(n as usize);
    for &(a, b, w) in edges {
        if a != b && a < n && b < n && w > 0 {
            solver.add_edge(a as usize + 1, b as usize + 1, w);
        }
    }
    solver
        .solve()
        .into_iter()
        .map(|(a, b)| {
            let (a, b) = ((a - 1) as u32, (b - 1) as u32);
            if a < b {
                (a, b)
            } else {
                (b, a)
            }
        })
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect()
}

const INF: i64 = i64::MAX / 4;

#[derive(Clone, Copy, Default)]
struct Edge {
    u: usize,
    v: usize,
    w: i64,
}

/// The classical O(V³) weighted-blossom solver (1-indexed internally;
/// indices `n+1..=2n` are contracted blossoms).
struct Blossom {
    n: usize,
    n_x: usize,
    g: Vec<Vec<Edge>>,
    lab: Vec<i64>,
    match_: Vec<usize>,
    slack: Vec<usize>,
    st: Vec<usize>,
    pa: Vec<usize>,
    flower_from: Vec<Vec<usize>>,
    flower: Vec<Vec<usize>>,
    s: Vec<i32>,
    vis: Vec<usize>,
    queue: std::collections::VecDeque<usize>,
    visit_stamp: usize,
}

impl Blossom {
    fn new(n: usize) -> Self {
        let m = 2 * n + 1;
        let mut g = vec![vec![Edge::default(); m]; m];
        for (u, row) in g.iter_mut().enumerate() {
            for (v, e) in row.iter_mut().enumerate() {
                e.u = u;
                e.v = v;
            }
        }
        Blossom {
            n,
            n_x: n,
            g,
            lab: vec![0; m],
            match_: vec![0; m],
            slack: vec![0; m],
            st: vec![0; m],
            pa: vec![0; m],
            flower_from: vec![vec![0; n + 1]; m],
            flower: vec![Vec::new(); m],
            s: vec![0; m],
            vis: vec![0; m],
            queue: std::collections::VecDeque::new(),
            visit_stamp: 0,
        }
    }

    fn add_edge(&mut self, u: usize, v: usize, w: i64) {
        // Doubled weights keep duals integral.
        let w2 = w * 2;
        if w2 > self.g[u][v].w {
            self.g[u][v].w = w2;
            self.g[v][u].w = w2;
        }
    }

    fn e_delta(&self, e: &Edge) -> i64 {
        self.lab[e.u] + self.lab[e.v] - self.g[e.u][e.v].w
    }

    fn update_slack(&mut self, u: usize, x: usize) {
        if self.slack[x] == 0
            || self.e_delta(&self.g[u][x]) < self.e_delta(&self.g[self.slack[x]][x])
        {
            self.slack[x] = u;
        }
    }

    fn set_slack(&mut self, x: usize) {
        self.slack[x] = 0;
        for u in 1..=self.n {
            if self.g[u][x].w > 0 && self.st[u] != x && self.s[self.st[u]] == 0 {
                self.update_slack(u, x);
            }
        }
    }

    fn q_push(&mut self, x: usize) {
        if x <= self.n {
            self.queue.push_back(x);
        } else {
            let children = self.flower[x].clone();
            for i in children {
                self.q_push(i);
            }
        }
    }

    fn set_st(&mut self, x: usize, b: usize) {
        self.st[x] = b;
        if x > self.n {
            let children = self.flower[x].clone();
            for i in children {
                self.set_st(i, b);
            }
        }
    }

    fn get_pr(&mut self, b: usize, xr: usize) -> usize {
        // `xr` is recorded in `flower_from[b]`, so it is a petal of `b` by
        // construction; fall back to the base petal rather than panic.
        let pr = self.flower[b].iter().position(|&y| y == xr).unwrap_or(0);
        if pr % 2 == 1 {
            self.flower[b][1..].reverse();
            self.flower[b].len() - pr
        } else {
            pr
        }
    }

    fn set_match(&mut self, u: usize, v: usize) {
        self.match_[u] = self.g[u][v].v;
        if u > self.n {
            let e = self.g[u][v];
            let xr = self.flower_from[u][e.u];
            let pr = self.get_pr(u, xr);
            for i in 0..pr {
                let (a, b) = (self.flower[u][i], self.flower[u][i ^ 1]);
                self.set_match(a, b);
            }
            self.set_match(xr, v);
            let mut fl = std::mem::take(&mut self.flower[u]);
            fl.rotate_left(pr);
            self.flower[u] = fl;
        }
    }

    fn augment(&mut self, mut u: usize, mut v: usize) {
        loop {
            let xnv = self.st[self.match_[u]];
            self.set_match(u, v);
            if xnv == 0 {
                return;
            }
            self.set_match(xnv, self.st[self.pa[xnv]]);
            u = self.st[self.pa[xnv]];
            v = xnv;
        }
    }

    fn get_lca(&mut self, mut u: usize, mut v: usize) -> usize {
        self.visit_stamp += 1;
        let stamp = self.visit_stamp;
        while u != 0 || v != 0 {
            if u != 0 {
                if self.vis[u] == stamp {
                    return u;
                }
                self.vis[u] = stamp;
                u = self.st[self.match_[u]];
                if u != 0 {
                    u = self.st[self.pa[u]];
                }
            }
            std::mem::swap(&mut u, &mut v);
        }
        0
    }

    fn add_blossom(&mut self, u: usize, lca: usize, v: usize) {
        let mut b = self.n + 1;
        while b <= self.n_x && self.st[b] != 0 {
            b += 1;
        }
        if b > self.n_x {
            self.n_x += 1;
        }
        self.lab[b] = 0;
        self.s[b] = 0;
        self.match_[b] = self.match_[lca];
        self.flower[b] = vec![lca];
        let mut x = u;
        while x != lca {
            self.flower[b].push(x);
            let y = self.st[self.match_[x]];
            self.flower[b].push(y);
            self.q_push(y);
            x = self.st[self.pa[y]];
        }
        self.flower[b][1..].reverse();
        let mut x = v;
        while x != lca {
            self.flower[b].push(x);
            let y = self.st[self.match_[x]];
            self.flower[b].push(y);
            self.q_push(y);
            x = self.st[self.pa[y]];
        }
        self.set_st(b, b);
        for x in 1..=self.n_x {
            self.g[b][x].w = 0;
            self.g[x][b].w = 0;
        }
        for x in 1..=self.n {
            self.flower_from[b][x] = 0;
        }
        let children = self.flower[b].clone();
        for &xs in &children {
            for x in 1..=self.n_x {
                if self.g[b][x].w == 0 || self.e_delta(&self.g[xs][x]) < self.e_delta(&self.g[b][x])
                {
                    self.g[b][x] = self.g[xs][x];
                    self.g[x][b] = self.g[x][xs];
                }
            }
            for x in 1..=self.n {
                if self.flower_from[xs][x] != 0 {
                    self.flower_from[b][x] = xs;
                }
            }
        }
        self.set_slack(b);
    }

    fn expand_blossom(&mut self, b: usize) {
        let children = self.flower[b].clone();
        for &i in &children {
            self.set_st(i, i);
        }
        let xr = self.flower_from[b][self.g[b][self.pa[b]].u];
        let pr = self.get_pr(b, xr);
        let mut i = 0;
        while i < pr {
            let xs = self.flower[b][i];
            let xns = self.flower[b][i + 1];
            self.pa[xs] = self.g[xns][xs].u;
            self.s[xs] = 1;
            self.s[xns] = 0;
            self.slack[xs] = 0;
            self.set_slack(xns);
            self.q_push(xns);
            i += 2;
        }
        self.s[xr] = 1;
        self.pa[xr] = self.pa[b];
        let flen = self.flower[b].len();
        let mut i = pr + 1;
        while i < flen {
            let xs = self.flower[b][i];
            self.s[xs] = -1;
            self.set_slack(xs);
            i += 1;
        }
        self.st[b] = 0;
        self.flower[b].clear();
    }

    /// Processes a tight edge found from the queue; returns true if an
    /// augmenting path was applied.
    fn on_found_edge(&mut self, e: Edge) -> bool {
        let u = self.st[e.u];
        let v = self.st[e.v];
        if self.s[v] == -1 {
            self.pa[v] = e.u;
            self.s[v] = 1;
            let nu = self.st[self.match_[v]];
            self.slack[v] = 0;
            self.slack[nu] = 0;
            self.s[nu] = 0;
            self.q_push(nu);
        } else if self.s[v] == 0 {
            let lca = self.get_lca(u, v);
            if lca == 0 {
                self.augment(u, v);
                self.augment(v, u);
                return true;
            }
            self.add_blossom(u, lca, v);
        }
        false
    }

    /// One phase: grow trees from every free vertex until an augmentation.
    fn matching_phase(&mut self) -> bool {
        for x in 1..=self.n_x {
            self.s[x] = -1;
            self.slack[x] = 0;
        }
        self.queue.clear();
        for x in 1..=self.n_x {
            if self.st[x] == x && self.match_[x] == 0 {
                self.pa[x] = 0;
                self.s[x] = 0;
                self.q_push(x);
            }
        }
        if self.queue.is_empty() {
            return false;
        }
        loop {
            while let Some(u) = self.queue.pop_front() {
                if self.s[self.st[u]] == 1 {
                    continue;
                }
                for v in 1..=self.n {
                    if self.g[u][v].w > 0 && self.st[u] != self.st[v] {
                        if self.e_delta(&self.g[u][v]) == 0 {
                            if self.on_found_edge(self.g[u][v]) {
                                return true;
                            }
                        } else {
                            let sv = self.st[v];
                            self.update_slack(u, sv);
                        }
                    }
                }
            }
            // Dual adjustment.
            let mut d = INF;
            for b in self.n + 1..=self.n_x {
                if self.st[b] == b && self.s[b] == 1 {
                    d = d.min(self.lab[b] / 2);
                }
            }
            for x in 1..=self.n_x {
                if self.st[x] == x && self.slack[x] != 0 {
                    let delta = self.e_delta(&self.g[self.slack[x]][x]);
                    if self.s[x] == -1 {
                        d = d.min(delta);
                    } else if self.s[x] == 0 {
                        d = d.min(delta / 2);
                    }
                }
            }
            for u in 1..=self.n {
                match self.s[self.st[u]] {
                    0 => {
                        if self.lab[u] <= d {
                            return false; // dual hits zero: maximum reached
                        }
                        self.lab[u] -= d;
                    }
                    1 => self.lab[u] += d,
                    _ => {}
                }
            }
            for b in self.n + 1..=self.n_x {
                if self.st[b] == b {
                    match self.s[b] {
                        0 => self.lab[b] += d * 2,
                        1 => self.lab[b] -= d * 2,
                        _ => {}
                    }
                }
            }
            self.queue.clear();
            for x in 1..=self.n_x {
                if self.st[x] == x
                    && self.slack[x] != 0
                    && self.st[self.slack[x]] != x
                    && self.e_delta(&self.g[self.slack[x]][x]) == 0
                {
                    let e = self.g[self.slack[x]][x];
                    if self.on_found_edge(e) {
                        return true;
                    }
                }
            }
            for b in self.n + 1..=self.n_x {
                if self.st[b] == b && self.s[b] == 1 && self.lab[b] == 0 {
                    self.expand_blossom(b);
                }
            }
        }
    }

    fn solve(&mut self) -> Vec<(usize, usize)> {
        for u in 0..=self.n {
            self.st[u] = u;
        }
        let mut w_max = 0i64;
        for u in 1..=self.n {
            for v in 1..=self.n {
                self.flower_from[u][v] = if u == v { u } else { 0 };
                w_max = w_max.max(self.g[u][v].w);
            }
        }
        for u in 1..=self.n {
            self.lab[u] = w_max;
        }
        while self.matching_phase() {}
        let mut out = Vec::new();
        for u in 1..=self.n {
            if self.match_[u] != 0 && self.match_[u] > u {
                out.push((u, self.match_[u]));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::general::general_matching_brute;

    fn weight_of(edges: &[(u32, u32, i64)], m: &[(u32, u32)]) -> i64 {
        m.iter()
            .map(|&(a, b)| {
                edges
                    .iter()
                    .filter(|&&(x, y, _)| (x.min(y), x.max(y)) == (a, b))
                    .map(|&(_, _, w)| w)
                    .max()
                    .unwrap_or(0)
            })
            .sum()
    }

    fn assert_valid(n: u32, m: &[(u32, u32)]) {
        let mut used = std::collections::HashSet::new();
        for &(a, b) in m {
            assert!(a < n && b < n && a != b);
            assert!(used.insert(a), "vertex {a} matched twice");
            assert!(used.insert(b), "vertex {b} matched twice");
        }
    }

    #[test]
    fn empty_and_trivial() {
        assert!(maximum_weight_matching_general(0, &[]).is_empty());
        assert!(maximum_weight_matching_general(3, &[]).is_empty());
        assert_eq!(
            maximum_weight_matching_general(2, &[(0, 1, 5)]),
            vec![(0, 1)]
        );
    }

    #[test]
    fn triangle_picks_heaviest() {
        let edges = [(0, 1, 3i64), (1, 2, 2), (0, 2, 1)];
        assert_eq!(maximum_weight_matching_general(3, &edges), vec![(0, 1)]);
    }

    #[test]
    fn path_beats_greedy() {
        // Greedy takes the 3-weight middle edge; the optimum takes the two
        // 2-weight outer edges.
        let edges = [(0, 1, 2i64), (1, 2, 3), (2, 3, 2)];
        let m = maximum_weight_matching_general(4, &edges);
        assert_eq!(m, vec![(0, 1), (2, 3)]);
    }

    #[test]
    fn odd_cycle_blossom() {
        // 5-cycle with uniform weights: maximum matching has 2 edges.
        let edges = [(0, 1, 5i64), (1, 2, 5), (2, 3, 5), (3, 4, 5), (4, 0, 5)];
        let m = maximum_weight_matching_general(5, &edges);
        assert_valid(5, &m);
        assert_eq!(weight_of(&edges, &m), 10);
    }

    #[test]
    fn blossom_with_stem() {
        // A triangle blossom hanging off a path — classic augmentation
        // through a shrunk blossom.
        let edges = [
            (0, 1, 4i64),
            (1, 2, 4),
            (2, 3, 4),
            (3, 1, 4),
            (3, 4, 4),
            (4, 5, 4),
        ];
        let m = maximum_weight_matching_general(6, &edges);
        assert_valid(6, &m);
        assert_eq!(weight_of(&edges, &m), 12, "perfect matching exists");
    }

    #[test]
    fn negative_and_zero_weights_ignored() {
        let edges = [(0, 1, -5i64), (1, 2, 0), (2, 3, 7)];
        assert_eq!(maximum_weight_matching_general(4, &edges), vec![(2, 3)]);
    }

    #[test]
    fn matches_brute_force_on_random_graphs() {
        let mut state = 0xb1055_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for trial in 0..800 {
            let n = 2 + (next() % 8) as u32;
            let ne = (next() % 14) as usize;
            let edges: Vec<(u32, u32, i64)> = (0..ne)
                .map(|_| (next() as u32 % n, next() as u32 % n, (next() % 100) as i64))
                .collect();
            let m = maximum_weight_matching_general(n, &edges);
            assert_valid(n, &m);
            let got = weight_of(&edges, &m) as f64;
            let brute_edges: Vec<(u32, u32, f64)> =
                edges.iter().map(|&(a, b, w)| (a, b, w as f64)).collect();
            let want = general_matching_brute(n, &brute_edges);
            assert!(
                (got - want).abs() < 1e-9,
                "trial {trial}: blossom {got} vs brute {want}; edges {edges:?}"
            );
        }
    }

    #[test]
    fn larger_dense_graphs_agree_with_brute() {
        let mut state = 0xdea1_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..60 {
            let n = 7u32;
            // Dense-ish: up to 21 edges, capped at brute's 24-edge limit.
            let mut edges = Vec::new();
            for a in 0..n {
                for b in (a + 1)..n {
                    if next() % 3 != 0 {
                        edges.push((a, b, (1 + next() % 50) as i64));
                    }
                }
            }
            edges.truncate(24);
            let m = maximum_weight_matching_general(n, &edges);
            assert_valid(n, &m);
            let got = weight_of(&edges, &m) as f64;
            let brute_edges: Vec<(u32, u32, f64)> =
                edges.iter().map(|&(a, b, w)| (a, b, w as f64)).collect();
            let want = general_matching_brute(n, &brute_edges);
            assert!((got - want).abs() < 1e-9, "blossom {got} vs brute {want}");
        }
    }
}

#[cfg(test)]
mod cross_validation {
    use super::*;
    use crate::{matching_weight, maximum_weight_matching, WeightedBipartiteGraph};

    /// Bipartite graphs are general graphs: the blossom must agree with the
    /// Hungarian algorithm on them (left vertex `u` ↦ `u`, right vertex `v`
    /// ↦ `n_left + v`).
    #[test]
    fn blossom_agrees_with_hungarian_on_bipartite_graphs() {
        let mut state = 0xb1fa_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for trial in 0..300 {
            let nl = 1 + (next() % 7) as u32;
            let nr = 1 + (next() % 7) as u32;
            let ne = (next() % 16) as usize;
            let tuples: Vec<(u32, u32, f64)> = (0..ne)
                .map(|_| {
                    (
                        next() as u32 % nl,
                        next() as u32 % nr,
                        (1 + next() % 500) as f64,
                    )
                })
                .collect();
            let g = WeightedBipartiteGraph::from_tuples(nl, nr, tuples.clone());
            let hungarian = maximum_weight_matching(&g);
            let hw = matching_weight(&g, &hungarian);

            let general: Vec<(u32, u32, i64)> = tuples
                .iter()
                .map(|&(u, v, w)| (u, nl + v, w as i64))
                .collect();
            let bm = maximum_weight_matching_general(nl + nr, &general);
            let bw: i64 = bm
                .iter()
                .map(|&(a, b)| {
                    general
                        .iter()
                        .filter(|&&(x, y, _)| (x.min(y), x.max(y)) == (a, b))
                        .map(|&(_, _, w)| w)
                        .max()
                        .unwrap_or(0)
                })
                .sum();
            assert!(
                (hw - bw as f64).abs() < 1e-9,
                "trial {trial}: hungarian {hw} vs blossom {bw}"
            );
        }
    }
}
