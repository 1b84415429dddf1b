//! Bidirectional (full-duplex) fabrics — the §7 generalization.
//!
//! Networks with full-duplex optical switches or bidirectional FSO links
//! (e.g. FireFly) are modeled as a **general undirected graph**: each node
//! has full-duplex ports and an active link carries traffic in both
//! directions at once. Valid configurations are matchings of the undirected
//! graph.
//!
//! A [`DuplexNetwork`] can be *projected* to a directed [`Network`]
//! (each undirected edge becomes two directed edges) so that traffic and
//! simulation machinery is shared; a [`DuplexMatching`] projects to a directed
//! [`Matching`] containing both directions of every chosen
//! edge — which is a valid directed matching because each node appears in at
//! most one undirected edge.

use crate::{Matching, NetError, Network, NodeId};
use serde::{Deserialize, Serialize};

/// An undirected general graph over `n` nodes with full-duplex links.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DuplexNetwork {
    n: u32,
    /// Sorted, deduplicated undirected edges stored as `(min, max)`.
    edges: Vec<(NodeId, NodeId)>,
}

impl DuplexNetwork {
    /// Builds a duplex network from undirected edges (order within a pair is
    /// irrelevant; duplicates collapse).
    pub fn from_edges<I, E>(n: u32, edges: I) -> Result<Self, NetError>
    where
        I: IntoIterator<Item = E>,
        E: Into<(u32, u32)>,
    {
        if n == 0 {
            return Err(NetError::EmptyNetwork);
        }
        let mut list = Vec::new();
        for e in edges {
            let (a, b) = e.into();
            if a == b {
                return Err(NetError::SelfLoop(NodeId(a)));
            }
            if a >= n {
                return Err(NetError::NodeOutOfRange { node: NodeId(a), n });
            }
            if b >= n {
                return Err(NetError::NodeOutOfRange { node: NodeId(b), n });
            }
            let (lo, hi) = if a < b { (a, b) } else { (b, a) };
            list.push((NodeId(lo), NodeId(hi)));
        }
        list.sort_unstable();
        list.dedup();
        Ok(DuplexNetwork { n, edges: list })
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> u32 {
        self.n
    }

    /// Undirected edges as `(min, max)` pairs, sorted.
    #[inline]
    pub fn edges(&self) -> &[(NodeId, NodeId)] {
        &self.edges
    }

    /// Whether the undirected edge `{a, b}` exists.
    pub fn has_edge(&self, a: NodeId, b: NodeId) -> bool {
        let key = if a < b { (a, b) } else { (b, a) };
        self.edges.binary_search(&key).is_ok()
    }

    /// Projects to the equivalent directed network: each undirected edge
    /// becomes the two directed edges `(a→b)` and `(b→a)`.
    pub fn to_directed(&self) -> Network {
        let projected = Network::from_edges(
            self.n,
            self.edges
                .iter()
                .flat_map(|&(a, b)| [(a.0, b.0), (b.0, a.0)]),
        );
        match projected {
            Ok(net) => net,
            Err(_) => {
                debug_assert!(false, "projection of a valid duplex network is valid");
                Network::from_sorted_edges(self.n, Vec::new())
            }
        }
    }
}

/// A matching of a [`DuplexNetwork`]: a set of undirected edges no two of
/// which share a node.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct DuplexMatching {
    edges: Vec<(NodeId, NodeId)>,
}

impl DuplexMatching {
    /// Builds and validates a duplex matching against a duplex network.
    pub fn new<I, E>(net: &DuplexNetwork, edges: I) -> Result<Self, NetError>
    where
        I: IntoIterator<Item = E>,
        E: Into<(u32, u32)>,
    {
        let mut list = Vec::new();
        for e in edges {
            let (a, b) = e.into();
            if a == b {
                return Err(NetError::SelfLoop(NodeId(a)));
            }
            let (lo, hi) = if a < b { (a, b) } else { (b, a) };
            if !net.has_edge(NodeId(lo), NodeId(hi)) {
                return Err(NetError::LinkNotInNetwork(NodeId(lo), NodeId(hi)));
            }
            list.push((NodeId(lo), NodeId(hi)));
        }
        list.sort_unstable();
        list.dedup();
        let mut seen = std::collections::HashSet::new();
        for &(a, b) in &list {
            if !seen.insert(a) {
                return Err(NetError::DuplexPortConflict(a));
            }
            if !seen.insert(b) {
                return Err(NetError::DuplexPortConflict(b));
            }
        }
        Ok(DuplexMatching { edges: list })
    }

    /// The matched undirected edges.
    #[inline]
    pub fn edges(&self) -> &[(NodeId, NodeId)] {
        &self.edges
    }

    /// Number of matched edges.
    #[inline]
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Whether the matching is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Projects to a directed matching with both directions of every edge
    /// active simultaneously (valid because every node is in ≤ 1 edge).
    pub fn to_directed(&self) -> Matching {
        let projected = Matching::new_free(
            self.edges
                .iter()
                .flat_map(|&(a, b)| [(a.0, b.0), (b.0, a.0)]),
        );
        let Ok(m) = projected else {
            debug_assert!(
                false,
                "projection of a duplex matching is a directed matching"
            );
            return Matching::default();
        };
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path4() -> DuplexNetwork {
        DuplexNetwork::from_edges(4, [(0u32, 1u32), (1, 2), (2, 3)]).unwrap()
    }

    #[test]
    fn edge_normalization() {
        let net = DuplexNetwork::from_edges(3, [(2u32, 0u32), (0, 2)]).unwrap();
        assert_eq!(net.edges(), &[(NodeId(0), NodeId(2))]);
        assert!(net.has_edge(NodeId(2), NodeId(0)));
    }

    #[test]
    fn matching_rejects_shared_node() {
        let net = path4();
        assert_eq!(
            DuplexMatching::new(&net, [(0u32, 1u32), (1, 2)]),
            Err(NetError::DuplexPortConflict(NodeId(1)))
        );
    }

    #[test]
    fn valid_matching_projects() {
        let net = path4();
        let m = DuplexMatching::new(&net, [(0u32, 1u32), (2, 3)]).unwrap();
        let d = m.to_directed();
        assert_eq!(d.len(), 4);
        assert!(d.contains(NodeId(1), NodeId(0)));
        assert!(d.contains(NodeId(0), NodeId(1)));
    }

    #[test]
    fn network_projects_to_directed() {
        let net = path4().to_directed();
        assert_eq!(net.num_edges(), 6);
        assert!(net.has_edge(NodeId(3), NodeId(2)));
    }

    #[test]
    fn rejects_non_edge_in_matching() {
        let net = path4();
        assert!(DuplexMatching::new(&net, [(0u32, 3u32)]).is_err());
    }
}
