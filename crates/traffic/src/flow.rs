use octopus_net::{Network, NodeId};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// Identifier of a traffic flow.
///
/// Besides identity, flow IDs participate in the paper's fixed
/// packet-prioritization rule (first by weight, then by flow ID), which makes
/// the routing of packets through a given configuration sequence fully
/// deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct FlowId(pub u64);

impl fmt::Display for FlowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

/// A route: the node sequence `(source, x₁, …, destination)`.
///
/// Cheaply cloneable (`Arc`-backed); always has at least two nodes and no
/// repeats. Consecutive pairs must be fabric edges — checked against a
/// [`Network`] at [`TrafficLoad::validate`] time.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct Route {
    nodes: Arc<[NodeId]>,
}

impl Route {
    /// Builds a route from a node sequence.
    ///
    /// # Errors
    /// Fails if fewer than two nodes or any node repeats.
    pub fn new<I>(nodes: I) -> Result<Self, TrafficError>
    where
        I: IntoIterator<Item = NodeId>,
    {
        let nodes: Arc<[NodeId]> = nodes.into_iter().collect();
        if nodes.len() < 2 {
            return Err(TrafficError::RouteTooShort);
        }
        match first_revisit(&nodes) {
            Some(v) => Err(TrafficError::RouteRevisitsNode(v)),
            None => Ok(Route { nodes }),
        }
    }

    /// Convenience constructor from raw u32 ids.
    pub fn from_ids<I: IntoIterator<Item = u32>>(ids: I) -> Result<Self, TrafficError> {
        Self::new(ids.into_iter().map(NodeId))
    }

    /// The node sequence.
    #[inline]
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Number of hops (`nodes − 1`).
    #[inline]
    pub fn hops(&self) -> u32 {
        (self.nodes.len() - 1) as u32
    }

    /// Source node.
    #[inline]
    pub fn src(&self) -> NodeId {
        self.nodes[0]
    }

    /// Destination node.
    #[inline]
    pub fn dst(&self) -> NodeId {
        match self.nodes.last() {
            Some(&n) => n,
            None => {
                debug_assert!(false, "routes have ≥ 2 nodes by construction");
                NodeId(0)
            }
        }
    }

    /// The directed link for hop `x` (0-based).
    #[inline]
    pub fn hop(&self, x: u32) -> (NodeId, NodeId) {
        (self.nodes[x as usize], self.nodes[x as usize + 1])
    }

    /// Whether the route is a single direct hop.
    #[inline]
    pub fn is_direct(&self) -> bool {
        self.nodes.len() == 2
    }
}

/// Routes up to this many nodes are checked for revisits pairwise, without
/// touching the heap; a longer one (a route read from a client may list
/// thousands of nodes) sorts a copy, so the check stays `O(len log len)`.
const PAIRWISE_ROUTE_NODES: usize = 16;

/// The node at the earliest position that repeats an earlier one, if any.
fn first_revisit(nodes: &[NodeId]) -> Option<NodeId> {
    if nodes.len() <= PAIRWISE_ROUTE_NODES {
        return (1..nodes.len())
            .find(|&k| nodes[..k].contains(&nodes[k]))
            .map(|k| nodes[k]);
    }
    // Sorted by node then position, every repeat follows an equal node,
    // and the smallest such position is the earliest revisit.
    let mut by_node: Vec<(NodeId, usize)> = nodes.iter().copied().zip(0..).collect();
    by_node.sort_unstable();
    by_node
        .windows(2)
        .filter(|w| w[0].0 == w[1].0)
        .map(|w| w[1].1)
        .min()
        .map(|k| nodes[k])
}

/// A traffic flow: `size` packets from `src` to `dst`, with one or more
/// candidate routes.
///
/// With a single route, the route is considered fixed (the §4 setting); with
/// several, route selection is part of the scheduling problem (§6,
/// Octopus+).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Flow {
    /// Unique flow identifier (also the priority tie-breaker).
    pub id: FlowId,
    /// Number of packets.
    pub size: u64,
    /// Candidate routes; all share the same source and destination.
    pub routes: Vec<Route>,
}

impl Flow {
    /// Builds a flow, checking route consistency.
    pub fn new(id: FlowId, size: u64, routes: Vec<Route>) -> Result<Self, TrafficError> {
        if routes.is_empty() {
            return Err(TrafficError::NoRoutes(id));
        }
        let (src, dst) = (routes[0].src(), routes[0].dst());
        for r in &routes {
            if r.src() != src || r.dst() != dst {
                return Err(TrafficError::InconsistentEndpoints(id));
            }
        }
        Ok(Flow { id, size, routes })
    }

    /// Single-route convenience constructor.
    pub fn single(id: FlowId, size: u64, route: Route) -> Self {
        Flow {
            id,
            size,
            routes: vec![route],
        }
    }

    /// Source node (shared by all routes).
    #[inline]
    pub fn src(&self) -> NodeId {
        self.routes[0].src()
    }

    /// Destination node (shared by all routes).
    #[inline]
    pub fn dst(&self) -> NodeId {
        self.routes[0].dst()
    }

    /// The route, for single-route flows.
    ///
    /// # Panics
    /// Panics if the flow has more than one candidate route.
    pub fn route(&self) -> &Route {
        assert_eq!(
            self.routes.len(),
            1,
            "flow {} has multiple candidate routes",
            self.id
        );
        &self.routes[0]
    }

    /// Length of the longest candidate route.
    pub fn max_hops(&self) -> u32 {
        self.routes.iter().map(Route::hops).max().unwrap_or(0)
    }

    /// Whether one of the candidate routes is the direct link.
    pub fn has_direct_route(&self) -> bool {
        self.routes.iter().any(Route::is_direct)
    }
}

/// A complete traffic load: the input `T` of the MHS problem.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct TrafficLoad {
    flows: Vec<Flow>,
}

impl TrafficLoad {
    /// Builds a load from flows; IDs must be unique.
    pub fn new(flows: Vec<Flow>) -> Result<Self, TrafficError> {
        let mut seen = std::collections::HashSet::new();
        for f in &flows {
            if !seen.insert(f.id) {
                return Err(TrafficError::DuplicateFlowId(f.id));
            }
        }
        Ok(TrafficLoad { flows })
    }

    /// The flows.
    #[inline]
    pub fn flows(&self) -> &[Flow] {
        &self.flows
    }

    /// Number of flows.
    #[inline]
    pub fn len(&self) -> usize {
        self.flows.len()
    }

    /// Whether the load is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.flows.is_empty()
    }

    /// Total packets across flows.
    pub fn total_packets(&self) -> u64 {
        self.flows.iter().map(|f| f.size).sum()
    }

    /// The maximum route length 𝒟 over all flows and candidate routes.
    pub fn max_route_hops(&self) -> u32 {
        self.flows.iter().map(Flow::max_hops).max().unwrap_or(0)
    }

    /// Whether every flow has exactly one candidate route.
    pub fn is_single_route(&self) -> bool {
        self.flows.iter().all(|f| f.routes.len() == 1)
    }

    /// Validates every candidate route against the fabric graph.
    pub fn validate(&self, net: &Network) -> Result<(), TrafficError> {
        for f in &self.flows {
            for r in &f.routes {
                net.validate_route(r.nodes())
                    .map_err(|e| TrafficError::InvalidRoute(f.id, e))?;
            }
        }
        Ok(())
    }

    /// Source–destination demand matrix (ignores routes), as sparse triples
    /// summed over flows.
    pub fn demand_matrix(&self, n: u32) -> DemandMatrix {
        let mut map = std::collections::BTreeMap::new();
        for f in &self.flows {
            *map.entry((f.src().0, f.dst().0)).or_insert(0u64) += f.size;
        }
        DemandMatrix {
            n,
            entries: map.into_iter().map(|((r, c), d)| (r, c, d)).collect(),
        }
    }

    /// The unordered **one-hop projection** `T^one` (§8): for every flow and
    /// every hop `(x, y)` of its (single) route, a one-hop demand of the
    /// flow's size on `(x, y)`, ignoring hop ordering. This is the input the
    /// Eclipse-Based baseline and the UB upper bound feed to the one-hop
    /// scheduler.
    ///
    /// # Panics
    /// Panics if any flow has multiple candidate routes (the projection is
    /// defined for the fixed-route setting).
    pub fn one_hop_projection(&self) -> Vec<(NodeId, NodeId, u64)> {
        let mut map = std::collections::BTreeMap::new();
        for f in &self.flows {
            let r = f.route();
            for x in 0..r.hops() {
                let (a, b) = r.hop(x);
                *map.entry((a, b)).or_insert(0u64) += f.size;
            }
        }
        map.into_iter().map(|((a, b), d)| (a, b, d)).collect()
    }

    /// Total packet-hops demanded: `Σ_f size_f · hops(route_f)` (single-route
    /// loads only). The absolute upper bound of §8 compares this with the
    /// fabric's hop capacity `n · W`.
    pub fn total_packet_hops(&self) -> u64 {
        self.flows
            .iter()
            .map(|f| f.size * f.route().hops() as u64)
            .sum()
    }
}

impl FromIterator<Flow> for TrafficLoad {
    /// Collects flows into a load, keeping the **first** flow per id:
    /// duplicate ids are a caller bug (debug-asserted) but degrade to a
    /// deterministic load instead of a panic. Use [`TrafficLoad::new`] to
    /// reject duplicates explicitly.
    fn from_iter<T: IntoIterator<Item = Flow>>(iter: T) -> Self {
        let mut ids = std::collections::HashSet::new();
        let flows: Vec<Flow> = iter
            .into_iter()
            .filter(|f| {
                let fresh = ids.insert(f.id);
                debug_assert!(fresh, "duplicate flow id {} in FromIterator", f.id);
                fresh
            })
            .collect();
        TrafficLoad { flows }
    }
}

/// A sparse `n×n` demand matrix (packets per source–destination pair).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DemandMatrix {
    /// Matrix dimension.
    pub n: u32,
    /// `(row, col, demand)` triples, sorted, strictly positive demands.
    pub entries: Vec<(u32, u32, u64)>,
}

impl DemandMatrix {
    /// Builds a matrix from triples (zero entries dropped, duplicates summed).
    pub fn new(n: u32, triples: impl IntoIterator<Item = (u32, u32, u64)>) -> Self {
        let mut map = std::collections::BTreeMap::new();
        for (r, c, d) in triples {
            assert!(r < n && c < n, "entry ({r},{c}) out of range for n={n}");
            if d > 0 {
                *map.entry((r, c)).or_insert(0u64) += d;
            }
        }
        DemandMatrix {
            n,
            entries: map.into_iter().map(|((r, c), d)| (r, c, d)).collect(),
        }
    }

    /// Total demand.
    pub fn total(&self) -> u64 {
        self.entries.iter().map(|&(_, _, d)| d).sum()
    }

    /// Largest single entry.
    pub fn max_entry(&self) -> u64 {
        self.entries.iter().map(|&(_, _, d)| d).max().unwrap_or(0)
    }

    /// Row sums (packets leaving each output port).
    pub fn row_sums(&self) -> Vec<u64> {
        let mut v = vec![0u64; self.n as usize];
        for &(r, _, d) in &self.entries {
            v[r as usize] += d;
        }
        v
    }

    /// Column sums (packets entering each input port).
    pub fn col_sums(&self) -> Vec<u64> {
        let mut v = vec![0u64; self.n as usize];
        for &(_, c, d) in &self.entries {
            v[c as usize] += d;
        }
        v
    }

    /// Selects a random `m×m` principal submatrix (same node subset for rows
    /// and columns, as the paper does for the real traces: "randomly select
    /// 100 rows and columns") and renumbers nodes `0..m`.
    pub fn subsample<R: rand::Rng + ?Sized>(&self, m: u32, rng: &mut R) -> DemandMatrix {
        use rand::seq::SliceRandom;
        assert!(m <= self.n, "cannot subsample {m} of {} nodes", self.n);
        let mut ids: Vec<u32> = (0..self.n).collect();
        ids.shuffle(rng);
        ids.truncate(m as usize);
        let index: std::collections::HashMap<u32, u32> = ids
            .iter()
            .enumerate()
            .map(|(new, &old)| (old, new as u32))
            .collect();
        DemandMatrix::new(
            m,
            self.entries
                .iter()
                .filter_map(|&(r, c, d)| match (index.get(&r), index.get(&c)) {
                    (Some(&nr), Some(&nc)) => Some((nr, nc, d)),
                    _ => None,
                }),
        )
    }

    /// Serializes as CSV with a `src,dst,packets` header — the interchange
    /// format of the CLI, and a drop-in target for real traces (e.g. an
    /// FBFlow export) once one has access to them.
    pub fn to_csv_string(&self) -> String {
        let mut out = String::from("src,dst,packets\n");
        for &(r, c, d) in &self.entries {
            out.push_str(&format!("{r},{c},{d}\n"));
        }
        out
    }

    /// Parses the CSV produced by [`DemandMatrix::to_csv_string`] (header
    /// optional; blank lines and `#` comments ignored). `n` is inferred as
    /// `1 + max node id` unless a larger `min_n` is given.
    ///
    /// ```
    /// use octopus_traffic::DemandMatrix;
    /// let m = DemandMatrix::from_csv_str("src,dst,packets\n0,1,500\n3,0,25\n", 0).unwrap();
    /// assert_eq!(m.n, 4);
    /// assert_eq!(m.total(), 525);
    /// ```
    pub fn from_csv_str(text: &str, min_n: u32) -> Result<Self, TrafficError> {
        let mut triples = Vec::new();
        let mut max_id = 0u32;
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if lineno == 0 && line.eq_ignore_ascii_case("src,dst,packets") {
                continue;
            }
            let mut parts = line.split(',').map(str::trim);
            let parse = |s: Option<&str>| -> Result<u64, TrafficError> {
                s.and_then(|v| v.parse().ok())
                    .ok_or(TrafficError::MalformedCsv(lineno + 1))
            };
            let r = parse(parts.next())? as u32;
            let c = parse(parts.next())? as u32;
            let d = parse(parts.next())?;
            if parts.next().is_some() {
                return Err(TrafficError::MalformedCsv(lineno + 1));
            }
            max_id = max_id.max(r).max(c);
            triples.push((r, c, d));
        }
        Ok(DemandMatrix::new(min_n.max(max_id + 1), triples))
    }

    /// Rescales so the largest entry equals `target_max` (flows scale
    /// proportionally, rounding down but keeping ≥ 1 packet for non-zero
    /// entries). No-op on an empty matrix.
    pub fn scale_max_to(&self, target_max: u64) -> DemandMatrix {
        let max = self.max_entry();
        if max == 0 {
            return self.clone();
        }
        DemandMatrix {
            n: self.n,
            entries: self
                .entries
                .iter()
                .map(|&(r, c, d)| {
                    let scaled = ((d as u128 * target_max as u128) / max as u128) as u64;
                    (r, c, scaled.max(1))
                })
                .collect(),
        }
    }
}

/// Errors in traffic construction or validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TrafficError {
    /// A route has fewer than two nodes.
    RouteTooShort,
    /// A route visits the same node twice.
    RouteRevisitsNode(NodeId),
    /// A flow has an empty candidate-route set.
    NoRoutes(FlowId),
    /// Candidate routes of one flow disagree on source or destination.
    InconsistentEndpoints(FlowId),
    /// Two flows share an ID.
    DuplicateFlowId(FlowId),
    /// A route uses a link absent from the fabric.
    InvalidRoute(FlowId, octopus_net::NetError),
    /// A CSV demand file has a malformed line (1-based line number).
    MalformedCsv(usize),
}

impl fmt::Display for TrafficError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrafficError::RouteTooShort => write!(f, "route needs at least two nodes"),
            TrafficError::RouteRevisitsNode(v) => write!(f, "route revisits node {v}"),
            TrafficError::NoRoutes(id) => write!(f, "flow {id} has no routes"),
            TrafficError::InconsistentEndpoints(id) => {
                write!(f, "routes of flow {id} disagree on endpoints")
            }
            TrafficError::DuplicateFlowId(id) => write!(f, "duplicate flow id {id}"),
            TrafficError::InvalidRoute(id, e) => write!(f, "invalid route for flow {id}: {e}"),
            TrafficError::MalformedCsv(line) => write!(f, "malformed CSV at line {line}"),
        }
    }
}

impl std::error::Error for TrafficError {}

#[cfg(test)]
mod tests {
    use super::*;
    use octopus_net::topology;

    fn r(ids: &[u32]) -> Route {
        Route::from_ids(ids.iter().copied()).unwrap()
    }

    #[test]
    fn route_basics() {
        let route = r(&[0, 1, 2]);
        assert_eq!(route.hops(), 2);
        assert_eq!(route.src(), NodeId(0));
        assert_eq!(route.dst(), NodeId(2));
        assert_eq!(route.hop(1), (NodeId(1), NodeId(2)));
        assert!(!route.is_direct());
        assert!(r(&[3, 4]).is_direct());
    }

    #[test]
    fn route_rejects_degenerate() {
        assert_eq!(Route::from_ids([1]), Err(TrafficError::RouteTooShort));
        assert_eq!(
            Route::from_ids([0, 1, 0]),
            Err(TrafficError::RouteRevisitsNode(NodeId(0)))
        );
    }

    #[test]
    fn flow_endpoint_consistency() {
        let ok = Flow::new(FlowId(1), 10, vec![r(&[0, 2]), r(&[0, 1, 2])]);
        assert!(ok.is_ok());
        assert!(ok.unwrap().has_direct_route());
        let bad = Flow::new(FlowId(2), 10, vec![r(&[0, 2]), r(&[0, 3])]);
        assert_eq!(bad, Err(TrafficError::InconsistentEndpoints(FlowId(2))));
    }

    #[test]
    fn load_rejects_duplicate_ids() {
        let f1 = Flow::single(FlowId(1), 5, r(&[0, 1]));
        let f2 = Flow::single(FlowId(1), 5, r(&[1, 2]));
        assert_eq!(
            TrafficLoad::new(vec![f1, f2]),
            Err(TrafficError::DuplicateFlowId(FlowId(1)))
        );
    }

    #[test]
    fn load_totals_and_projection() {
        let load = TrafficLoad::new(vec![
            Flow::single(FlowId(1), 100, r(&[0, 1, 2])),
            Flow::single(FlowId(2), 50, r(&[1, 2])),
        ])
        .unwrap();
        assert_eq!(load.total_packets(), 150);
        assert_eq!(load.max_route_hops(), 2);
        assert_eq!(load.total_packet_hops(), 250);
        let one = load.one_hop_projection();
        assert_eq!(
            one,
            vec![
                (NodeId(0), NodeId(1), 100),
                (NodeId(1), NodeId(2), 150), // 100 + 50 merged
            ]
        );
    }

    #[test]
    fn load_validates_against_network() {
        let net = topology::ring(4).unwrap();
        let ok = TrafficLoad::new(vec![Flow::single(FlowId(1), 1, r(&[0, 1, 2]))]).unwrap();
        assert!(ok.validate(&net).is_ok());
        let bad = TrafficLoad::new(vec![Flow::single(FlowId(1), 1, r(&[0, 2]))]).unwrap();
        assert!(bad.validate(&net).is_err());
    }

    #[test]
    fn demand_matrix_sums() {
        let m = DemandMatrix::new(3, [(0, 1, 5), (0, 1, 3), (2, 0, 1), (1, 2, 0)]);
        assert_eq!(
            m.entries,
            vec![(0, 1, 8), (1, 2, 0), (2, 0, 1)]
                .into_iter()
                .filter(|&(_, _, d)| d > 0)
                .collect::<Vec<_>>()
        );
        assert_eq!(m.total(), 9);
        assert_eq!(m.row_sums(), vec![8, 0, 1]);
        assert_eq!(m.col_sums(), vec![1, 8, 0]);
    }

    #[test]
    fn demand_matrix_scaling() {
        let m = DemandMatrix::new(2, [(0, 1, 10), (1, 0, 3)]);
        let s = m.scale_max_to(100);
        assert_eq!(s.max_entry(), 100);
        assert_eq!(s.entries, vec![(0, 1, 100), (1, 0, 30)]);
    }

    #[test]
    fn demand_matrix_csv_round_trip() {
        let m = DemandMatrix::new(5, [(0, 1, 50), (4, 2, 7), (1, 0, 3)]);
        let csv = m.to_csv_string();
        assert!(csv.starts_with("src,dst,packets\n"));
        let back = DemandMatrix::from_csv_str(&csv, 0).unwrap();
        assert_eq!(back, m);
        // min_n can widen the matrix.
        let wide = DemandMatrix::from_csv_str(&csv, 9).unwrap();
        assert_eq!(wide.n, 9);
        assert_eq!(wide.entries, m.entries);
    }

    #[test]
    fn demand_matrix_csv_tolerates_comments_and_errors() {
        let text = "# a comment\n0, 1, 10\n\n2,0,5\n";
        let m = DemandMatrix::from_csv_str(text, 0).unwrap();
        assert_eq!(m.total(), 15);
        assert_eq!(m.n, 3);
        assert_eq!(
            DemandMatrix::from_csv_str("0,1\n", 0),
            Err(TrafficError::MalformedCsv(1))
        );
        assert_eq!(
            DemandMatrix::from_csv_str("0,1,2,3\n", 0),
            Err(TrafficError::MalformedCsv(1))
        );
    }

    #[test]
    fn demand_matrix_subsample() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let m = DemandMatrix::new(10, (0..10u32).map(|i| (i, (i + 1) % 10, i as u64 + 1)));
        let s = m.subsample(4, &mut rng);
        assert_eq!(s.n, 4);
        for &(r, c, d) in &s.entries {
            assert!(r < 4 && c < 4 && d > 0);
        }
    }
}
