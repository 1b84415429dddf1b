use crate::{NetError, Network, NodeId};
use serde::{Deserialize, Serialize};

/// A directed circuit link from the output port of `src` to the input port of
/// `dst`.
pub type Link = (NodeId, NodeId);

/// A set of links that can be active simultaneously: a matching of the
/// bipartite port graph (each output port and each input port is used by at
/// most one link).
///
/// Invariants are enforced at construction:
/// * no two links share a source (output port),
/// * no two links share a destination (input port),
/// * links are sorted by `(src, dst)` for deterministic iteration.
///
/// For the K-port generalization of §7, a configuration is a union of up to
/// `r` matchings; see `octopus-core`'s `kport` module, which composes plain
/// [`Matching`]s.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Matching {
    links: Vec<Link>,
}

impl Matching {
    /// Builds a matching and validates it against a network graph.
    pub fn new<I, E>(net: &Network, links: I) -> Result<Self, NetError>
    where
        I: IntoIterator<Item = E>,
        E: Into<(u32, u32)>,
    {
        let m = Self::new_free(links)?;
        for &(i, j) in &m.links {
            if !net.has_edge(i, j) {
                return Err(NetError::LinkNotInNetwork(i, j));
            }
        }
        Ok(m)
    }

    /// Builds a matching **without** requiring the links to be edges of a
    /// network graph (port-conflict invariants are still enforced).
    ///
    /// This is used for schedules over a hypothetical complete fabric — e.g.
    /// the RotorNet baseline, which the paper applies to the MHS problem "by
    /// assuming availability of all edges anyway".
    pub fn new_free<I, E>(links: I) -> Result<Self, NetError>
    where
        I: IntoIterator<Item = E>,
        E: Into<(u32, u32)>,
    {
        Self::new_free_with_capacity(links, 1)
    }

    /// Builds a **multi-port** link set for fabrics whose nodes have `r`
    /// input and `r` output ports each (§7 "K Ports per Node"): any set of
    /// distinct links with out-degree and in-degree at most `r` per node —
    /// i.e. the union of up to `r` matchings — is a valid configuration.
    ///
    /// The graph-membership check is the caller's responsibility (compose
    /// with [`Network::has_edge`]); port-capacity invariants are enforced
    /// here. `r = 1` is equivalent to [`Matching::new_free`].
    ///
    /// A rejected set names the port of its first overloading link in
    /// `(src, dst)` order, the output port when that link overloads both.
    /// Both overloads are found from sorted orders of the links alone, so
    /// nothing is hashed and nothing is sized by the largest node ID.
    pub fn new_free_with_capacity<I, E>(links: I, r: u32) -> Result<Self, NetError>
    where
        I: IntoIterator<Item = E>,
        E: Into<(u32, u32)>,
    {
        let links = links.into_iter();
        let mut list: Vec<Link> = Vec::with_capacity(links.size_hint().0);
        for e in links {
            let (i, j) = e.into();
            if i == j {
                return Err(NetError::SelfLoop(NodeId(i)));
            }
            list.push((NodeId(i), NodeId(j)));
        }
        // A link overloads a port when `r` links before it in `(src, dst)`
        // order share that port. Sorted by `(dst, src)`, a destination's
        // links sit together in that same order, so its overloading links
        // are those `r` places after a link with the same destination.
        let r = r as usize;
        list.sort_unstable_by_key(|&(i, j)| (j, i));
        list.dedup();
        let first_in = (r..list.len())
            .filter(|&k| list[k - r].1 == list[k].1)
            .map(|k| list[k])
            .min();
        list.sort_unstable();
        let first_out = (r..list.len())
            .find(|&k| list[k - r].0 == list[k].0)
            .map(|k| list[k]);
        match (first_out, first_in) {
            (Some(out), Some(inp)) if inp < out => Err(NetError::InputPortConflict(inp.1)),
            (Some((i, _)), _) => Err(NetError::OutputPortConflict(i)),
            (None, Some((_, j))) => Err(NetError::InputPortConflict(j)),
            (None, None) => Ok(Matching { links: list }),
        }
    }

    /// The empty matching.
    pub fn empty() -> Self {
        Matching::default()
    }

    /// Active links, sorted by `(src, dst)`.
    #[inline]
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Number of active links.
    #[inline]
    pub fn len(&self) -> usize {
        self.links.len()
    }

    /// Whether no link is active.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.links.is_empty()
    }

    /// Whether link `(i, j)` is active.
    pub fn contains(&self, i: NodeId, j: NodeId) -> bool {
        self.links.binary_search(&(i, j)).is_ok()
    }

    /// The destination this matching connects `i`'s output port to, if any.
    pub fn out_link(&self, i: NodeId) -> Option<NodeId> {
        let idx = self.links.partition_point(|&(s, _)| s < i);
        match self.links.get(idx) {
            Some(&(s, d)) if s == i => Some(d),
            _ => None,
        }
    }

    /// Union of two matchings, if they remain port-disjoint.
    ///
    /// Returns `Err` if the union would violate the matching property; this
    /// is how multi-matching (K-port) configurations detect conflicts.
    pub fn union(&self, other: &Matching) -> Result<Matching, NetError> {
        Self::new_free(
            self.links
                .iter()
                .chain(other.links.iter())
                .map(|&(i, j)| (i.0, j.0)),
        )
    }

    /// Whether the two matchings share no output port and no input port
    /// (their union is a 2-regular-or-less subgraph usable on 2-port nodes).
    pub fn port_disjoint(&self, other: &Matching) -> bool {
        let outs: std::collections::HashSet<_> = self.links.iter().map(|&(i, _)| i).collect();
        let ins: std::collections::HashSet<_> = self.links.iter().map(|&(_, j)| j).collect();
        other
            .links
            .iter()
            .all(|&(i, j)| !outs.contains(&i) && !ins.contains(&j))
    }
}

/// Fallible counterpart of `FromIterator`: collects links into a matching,
/// surfacing invariant violations as [`NetError`] instead of panicking.
/// (A panicking `FromIterator` impl used to live here; the library crates
/// deny `clippy::panic` and `clippy::unwrap_used`, so collection goes
/// through this.)
impl Matching {
    /// Collects an iterator of links into a matching, validating the
    /// port-disjointness invariants.
    pub fn try_from_links<T: IntoIterator<Item = Link>>(iter: T) -> Result<Self, NetError> {
        Matching::new_free(iter.into_iter().map(|(i, j)| (i.0, j.0)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net() -> Network {
        Network::from_edges(4, [(0u32, 1u32), (1, 2), (2, 3), (3, 0), (0, 2)]).unwrap()
    }

    #[test]
    fn valid_matching() {
        let m = Matching::new(&net(), [(0u32, 1u32), (2, 3)]).unwrap();
        assert_eq!(m.len(), 2);
        assert!(m.contains(NodeId(0), NodeId(1)));
        assert!(!m.contains(NodeId(1), NodeId(2)));
        assert_eq!(m.out_link(NodeId(2)), Some(NodeId(3)));
        assert_eq!(m.out_link(NodeId(1)), None);
    }

    #[test]
    fn rejects_output_conflict() {
        assert_eq!(
            Matching::new(&net(), [(0u32, 1u32), (0, 2)]),
            Err(NetError::OutputPortConflict(NodeId(0)))
        );
    }

    #[test]
    fn rejects_input_conflict() {
        // (3,0) and a hypothetical (1,0): input port of 0 used twice.
        let net = Network::from_edges(4, [(3u32, 0u32), (1, 0)]).unwrap();
        assert_eq!(
            Matching::new(&net, [(3u32, 0u32), (1, 0)]),
            Err(NetError::InputPortConflict(NodeId(0)))
        );
    }

    #[test]
    fn rejects_non_edge() {
        assert_eq!(
            Matching::new(&net(), [(1u32, 3u32)]),
            Err(NetError::LinkNotInNetwork(NodeId(1), NodeId(3)))
        );
    }

    #[test]
    fn new_free_skips_graph_check() {
        let m = Matching::new_free([(1u32, 3u32)]).unwrap();
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn union_detects_conflict() {
        let a = Matching::new_free([(0u32, 1u32)]).unwrap();
        let b = Matching::new_free([(0u32, 2u32)]).unwrap();
        assert!(a.union(&b).is_err());
        let c = Matching::new_free([(2u32, 3u32)]).unwrap();
        assert_eq!(a.union(&c).unwrap().len(), 2);
        assert!(a.port_disjoint(&c));
        assert!(!a.port_disjoint(&b));
    }

    #[test]
    fn dedup_keeps_matching_valid() {
        let m = Matching::new_free([(0u32, 1u32), (0, 1)]).unwrap();
        assert_eq!(m.len(), 1);
    }
}
