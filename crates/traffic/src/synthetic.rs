//! The paper's §8 synthetic workload generator.
//!
//! Traffic matrices are generated "exactly as in \[36\]" (Eclipse /
//! Solstice-style): the load is a **sum of random permutation matrices** —
//! `n_L` permutations of large flows and `n_S` permutations of small flows —
//! so every output port originates, and every input port terminates, exactly
//! `n_L` large and `n_S` small flows. With the paper's defaults for a
//! 100-node network: `n_L = 4`, `n_S = 12`, `c_L = 7000` (70% of the port's
//! traffic), `c_S = 3000`, `c_L + c_S = W = 10 000`.
//!
//! Each flow is then assigned a random route of 1–3 hops, with an equal
//! number of flows receiving 1-, 2- and 3-hop routes; Octopus+ experiments
//! instead attach several candidate routes per flow.

use crate::{Flow, FlowId, Route, TrafficLoad};
use octopus_net::{Network, NodeId};
use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Parameters of the synthetic generator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SyntheticConfig {
    /// Network size (flows are generated for nodes `0..n`).
    pub n: u32,
    /// Number of large flows per port (`n_L`).
    pub n_large: u32,
    /// Number of small flows per port (`n_S`).
    pub n_small: u32,
    /// Total traffic carried by the large flows of each port (`c_L`).
    pub c_large: u64,
    /// Total traffic carried by the small flows of each port (`c_S`).
    pub c_small: u64,
    /// Route lengths cycled across flows (paper default `[1, 2, 3]`).
    pub route_lengths: Vec<u32>,
}

impl SyntheticConfig {
    /// The paper's defaults for an `n`-node network and window `w`:
    /// `n_L`/`n_S` scale linearly from 4/12 at `n = 100`; `c_L = 0.7·w`,
    /// `c_S = 0.3·w`; route lengths 1–3 in equal proportion.
    pub fn paper_default(n: u32, w: u64) -> Self {
        let scale = |base: u32| ((base as u64 * n as u64 + 50) / 100).max(1) as u32;
        SyntheticConfig {
            n,
            n_large: scale(4),
            n_small: scale(12),
            c_large: w * 7 / 10,
            c_small: w * 3 / 10,
            route_lengths: vec![1, 2, 3],
        }
    }

    /// Sets the skew knob of Fig 4(c)/5(c): `frac = c_S / (c_S + c_L)` with
    /// the total per-port traffic held fixed.
    pub fn with_skew(mut self, frac: f64) -> Self {
        assert!((0.0..=1.0).contains(&frac), "skew fraction in [0, 1]");
        let total = self.c_large + self.c_small;
        self.c_small = (total as f64 * frac).round() as u64;
        self.c_large = total - self.c_small;
        self
    }

    /// Sets the sparsity knob of Fig 4(d)/5(d): total flows per port
    /// `n_L + n_S`, keeping the paper's 1:3 large:small ratio.
    pub fn with_flows_per_port(mut self, total: u32) -> Self {
        assert!(total >= 1, "at least one flow per port");
        self.n_large = (total / 4).max(1);
        self.n_small = total.saturating_sub(self.n_large).max(1);
        self
    }

    /// Uses one fixed route length for every flow (Fig 7(b)).
    pub fn with_uniform_route_length(mut self, hops: u32) -> Self {
        self.route_lengths = vec![hops];
        self
    }

    /// Size of one large flow (integer division; zero-size flows are
    /// dropped at generation time).
    pub fn large_flow_size(&self) -> u64 {
        self.c_large / self.n_large as u64
    }

    /// Size of one small flow.
    pub fn small_flow_size(&self) -> u64 {
        self.c_small / self.n_small as u64
    }
}

/// Generates a single-route traffic load per the configuration.
///
/// Flows are numbered in generation order: all large-permutation flows first
/// (so large flows get the lower IDs and thus higher priority on ties, as in
/// the paper's Example 1 convention of prioritizing by flow ID).
pub fn generate<R: Rng + ?Sized>(cfg: &SyntheticConfig, net: &Network, rng: &mut R) -> TrafficLoad {
    generate_with_routes(cfg, net, rng, 1)
}

/// Generates a traffic load with `route_choices` candidate routes per flow
/// (lengths drawn uniformly from `cfg.route_lengths`; duplicates removed).
/// `route_choices = 1` reproduces the single-route setting; the Fig 9(b)
/// experiment uses 10.
pub fn generate_with_routes<R: Rng + ?Sized>(
    cfg: &SyntheticConfig,
    net: &Network,
    rng: &mut R,
    route_choices: u32,
) -> TrafficLoad {
    assert!(route_choices >= 1);
    let mut flows = Vec::new();
    let mut next_id = 0u64;
    let mut len_cycle = cfg.route_lengths.iter().copied().cycle();

    let mut emit = |perm: &[u32], size: u64, flows: &mut Vec<Flow>, rng: &mut R| {
        if size == 0 {
            return;
        }
        for (src, &dst) in perm.iter().enumerate() {
            let (src, dst) = (NodeId(src as u32), NodeId(dst));
            let mut routes = Vec::new();
            if route_choices == 1 {
                let hops = len_cycle.next().unwrap_or(1);
                if let Some(r) = random_route(net, src, dst, hops, rng) {
                    routes.push(r);
                }
            } else {
                for _ in 0..route_choices {
                    let hops = cfg.route_lengths.choose(rng).copied().unwrap_or(1);
                    if let Some(r) = random_route(net, src, dst, hops, rng) {
                        if !routes.contains(&r) {
                            routes.push(r);
                        }
                    }
                }
            }
            // Fall back to any feasible short route so flows are never lost
            // on sparse fabrics.
            if routes.is_empty() {
                for hops in 1..=cfg.route_lengths.iter().copied().max().unwrap_or(3).max(3) {
                    if let Some(r) = random_route(net, src, dst, hops, rng) {
                        routes.push(r);
                        break;
                    }
                }
            }
            // Endpoints are consistent by construction; a rejected flow is
            // dropped rather than panicking the generator.
            if let Ok(flow) = Flow::new(FlowId(next_id), size, routes) {
                flows.push(flow);
                next_id += 1;
            }
        }
    };

    for _ in 0..cfg.n_large {
        let perm = random_derangement(cfg.n, rng);
        emit(&perm, cfg.large_flow_size(), &mut flows, rng);
    }
    for _ in 0..cfg.n_small {
        let perm = random_derangement(cfg.n, rng);
        emit(&perm, cfg.small_flow_size(), &mut flows, rng);
    }
    // IDs are sequential by construction, so this cannot reject.
    TrafficLoad::new(flows).unwrap_or_default()
}

/// Builds a single-route traffic load from a demand matrix (one flow per
/// non-zero entry), assigning random routes with lengths cycled from
/// `route_lengths`. Used by the trace-like workloads of Fig 6.
pub fn load_from_matrix<R: Rng + ?Sized>(
    matrix: &crate::DemandMatrix,
    net: &Network,
    route_lengths: &[u32],
    rng: &mut R,
) -> TrafficLoad {
    let mut flows = Vec::new();
    let mut len_cycle = route_lengths.iter().copied().cycle();
    let mut next_id = 0u64;
    for &(r, c, d) in &matrix.entries {
        if d == 0 || r == c {
            continue;
        }
        let hops = len_cycle.next().unwrap_or(1);
        let route = random_route(net, NodeId(r), NodeId(c), hops, rng)
            .or_else(|| (1..=3).find_map(|h| random_route(net, NodeId(r), NodeId(c), h, rng)));
        if let Some(route) = route {
            flows.push(Flow::single(FlowId(next_id), d, route));
            next_id += 1;
        }
    }
    // IDs are sequential by construction, so this cannot reject.
    TrafficLoad::new(flows).unwrap_or_default()
}

/// Samples a random route of exactly `hops` hops from `src` to `dst` in
/// `net`, or `None` if the sampler fails (after bounded retries) or no such
/// route exists.
///
/// For `hops = 1` this is just the direct edge. For longer routes, random
/// distinct intermediates are drawn and verified against the fabric; on a
/// complete fabric the first draw always succeeds.
pub fn random_route<R: Rng + ?Sized>(
    net: &Network,
    src: NodeId,
    dst: NodeId,
    hops: u32,
    rng: &mut R,
) -> Option<Route> {
    if src == dst {
        return None;
    }
    if hops == 1 {
        // `src != dst` was checked above, so the route is always accepted.
        return net
            .has_edge(src, dst)
            .then(|| Route::new([src, dst]))
            .and_then(Result::ok);
    }
    let n = net.num_nodes();
    if n < hops + 1 {
        return None;
    }
    const TRIES: u32 = 64;
    'outer: for _ in 0..TRIES {
        let mut nodes = Vec::with_capacity(hops as usize + 1);
        nodes.push(src);
        for _ in 0..hops - 1 {
            // Draw a fresh intermediate not already used and != dst.
            let mut cand;
            let mut guard = 0;
            loop {
                cand = NodeId(rng.gen_range(0..n));
                guard += 1;
                if guard > 8 * n {
                    continue 'outer;
                }
                if cand != dst && !nodes.contains(&cand) {
                    break;
                }
            }
            let Some(&tail) = nodes.last() else {
                continue 'outer;
            };
            if !net.has_edge(tail, cand) {
                continue 'outer;
            }
            nodes.push(cand);
        }
        let Some(&tail) = nodes.last() else {
            continue 'outer;
        };
        if net.has_edge(tail, dst) {
            nodes.push(dst);
            // Nodes are distinct by construction, so this cannot reject.
            return Route::new(nodes).ok();
        }
    }
    None
}

/// A uniformly random fixed-point-free permutation of `0..n` (so no flow is
/// sent from a node to itself).
pub fn random_derangement<R: Rng + ?Sized>(n: u32, rng: &mut R) -> Vec<u32> {
    assert!(n >= 2, "derangements need n >= 2");
    let mut perm: Vec<u32> = (0..n).collect();
    loop {
        perm.shuffle(rng);
        if perm.iter().enumerate().all(|(i, &p)| i as u32 != p) {
            return perm;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use octopus_net::topology;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn paper_defaults_match_section_8() {
        let cfg = SyntheticConfig::paper_default(100, 10_000);
        assert_eq!(cfg.n_large, 4);
        assert_eq!(cfg.n_small, 12);
        assert_eq!(cfg.c_large, 7_000);
        assert_eq!(cfg.c_small, 3_000);
        assert_eq!(cfg.large_flow_size(), 1_750);
        assert_eq!(cfg.small_flow_size(), 250);
        let c25 = SyntheticConfig::paper_default(25, 10_000);
        assert_eq!(c25.n_large, 1);
        assert_eq!(c25.n_small, 3);
    }

    #[test]
    fn generated_load_has_permutation_structure() {
        let mut rng = StdRng::seed_from_u64(11);
        let net = topology::complete(20);
        let cfg = SyntheticConfig::paper_default(20, 10_000);
        let load = generate(&cfg, &net, &mut rng);
        // Every port originates n_L + n_S flows.
        let per_port = cfg.n_large + cfg.n_small;
        assert_eq!(load.len(), (20 * per_port) as usize);
        let m = load.demand_matrix(20);
        let total_per_port =
            cfg.n_large as u64 * cfg.large_flow_size() + cfg.n_small as u64 * cfg.small_flow_size();
        for (i, (&r, &c)) in m.row_sums().iter().zip(m.col_sums().iter()).enumerate() {
            assert_eq!(r, total_per_port, "row {i}");
            assert_eq!(c, total_per_port, "col {i}");
        }
        load.validate(&net).unwrap();
    }

    #[test]
    fn route_lengths_are_balanced() {
        let mut rng = StdRng::seed_from_u64(5);
        let net = topology::complete(30);
        let cfg = SyntheticConfig::paper_default(30, 9_999);
        let load = generate(&cfg, &net, &mut rng);
        let mut counts = [0usize; 4];
        for f in load.flows() {
            counts[f.route().hops() as usize] += 1;
        }
        // Equal thirds (±1 per permutation boundary).
        let total: usize = counts.iter().sum();
        for (len, &count) in counts.iter().enumerate().skip(1) {
            assert!(
                (count as f64 - total as f64 / 3.0).abs() <= (total as f64 * 0.05),
                "length {len} count {count} of {total}"
            );
        }
    }

    #[test]
    fn skew_preserves_total() {
        let cfg = SyntheticConfig::paper_default(100, 10_000).with_skew(0.5);
        assert_eq!(cfg.c_large + cfg.c_small, 10_000);
        assert_eq!(cfg.c_small, 5_000);
        let zero = SyntheticConfig::paper_default(100, 10_000).with_skew(0.0);
        assert_eq!(zero.c_small, 0);
        assert_eq!(zero.small_flow_size(), 0);
    }

    #[test]
    fn zero_size_flows_are_dropped() {
        let mut rng = StdRng::seed_from_u64(3);
        let net = topology::complete(10);
        let cfg = SyntheticConfig::paper_default(10, 10_000).with_skew(0.0);
        let load = generate(&cfg, &net, &mut rng);
        assert!(load.flows().iter().all(|f| f.size > 0));
    }

    #[test]
    fn sparsity_knob() {
        let cfg = SyntheticConfig::paper_default(100, 10_000).with_flows_per_port(32);
        assert_eq!(cfg.n_large, 8);
        assert_eq!(cfg.n_small, 24);
        let tiny = SyntheticConfig::paper_default(100, 10_000).with_flows_per_port(4);
        assert_eq!(tiny.n_large + tiny.n_small, 4);
    }

    #[test]
    fn multi_route_generation() {
        let mut rng = StdRng::seed_from_u64(9);
        let net = topology::complete(20);
        let cfg = SyntheticConfig::paper_default(20, 10_000);
        let load = generate_with_routes(&cfg, &net, &mut rng, 10);
        load.validate(&net).unwrap();
        assert!(!load.is_single_route());
        // Routes per flow: deduplicated, between 1 and 10.
        for f in load.flows() {
            assert!((1..=10).contains(&f.routes.len()));
            let set: std::collections::HashSet<_> = f.routes.iter().collect();
            assert_eq!(set.len(), f.routes.len(), "duplicate routes in {}", f.id);
        }
    }

    #[test]
    fn random_route_on_sparse_fabric() {
        let mut rng = StdRng::seed_from_u64(2);
        let net = topology::ring(6).unwrap();
        // Only (0,1) exists as a 1-hop route from 0.
        assert!(random_route(&net, NodeId(0), NodeId(1), 1, &mut rng).is_some());
        assert!(random_route(&net, NodeId(0), NodeId(2), 1, &mut rng).is_none());
        // 0 -> 1 -> 2 is the unique 2-hop route.
        let r = random_route(&net, NodeId(0), NodeId(2), 2, &mut rng).unwrap();
        assert_eq!(r.nodes(), &[NodeId(0), NodeId(1), NodeId(2)]);
    }

    #[test]
    fn derangement_has_no_fixed_points() {
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..50 {
            let d = random_derangement(7, &mut rng);
            assert!(d.iter().enumerate().all(|(i, &p)| i as u32 != p));
            let mut sorted = d.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..7).collect::<Vec<_>>());
        }
    }

    #[test]
    fn load_from_matrix_assigns_routes() {
        let mut rng = StdRng::seed_from_u64(8);
        let net = topology::complete(10);
        let m = crate::DemandMatrix::new(10, [(0, 1, 50), (2, 3, 20), (4, 4, 9)]);
        let load = load_from_matrix(&m, &net, &[1, 2, 3], &mut rng);
        assert_eq!(load.len(), 2); // diagonal entry skipped
        assert_eq!(load.total_packets(), 70);
        load.validate(&net).unwrap();
    }
}
