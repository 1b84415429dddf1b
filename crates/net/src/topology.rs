//! Constructors for common circuit-fabric topologies.
//!
//! The Octopus paper evaluates on networks where the bipartite port graph may
//! or may not be complete. These builders cover the cases used in the
//! evaluation and examples:
//!
//! * [`complete`] — the classic single-crossbar model (every ordered pair).
//! * [`random_regular`] — a random `d`-regular bipartite fabric built as a
//!   union of `d` random derangements, modeling FSO / multi-switch fabrics
//!   with limited reachability.
//! * [`ring`] / [`chordal_ring`] — deterministic sparse fabrics handy for
//!   tests and worked examples.
//! * [`multi_switch`] — a fabric stitched from several small optical
//!   switches (§3's second motivation for incomplete topologies).
//! * [`round_robin_matchings`] — the `n-1`/`n` canonical perfect matchings
//!   that partition the complete fabric, used by the RotorNet baseline.

use crate::{Matching, NetError, Network, NodeId};
use rand::seq::SliceRandom;
use rand::Rng;

/// Complete bipartite fabric: every `(i, j)` with `i ≠ j` is an edge.
///
/// This is the implicit topology of prior one-hop work (a single `n×n`
/// crossbar switch).
pub fn complete(n: u32) -> Network {
    let mut edges = Vec::with_capacity((n as usize) * (n as usize - 1));
    for i in 0..n {
        for j in 0..n {
            if i != j {
                edges.push((i, j));
            }
        }
    }
    match Network::from_edges(n, edges) {
        Ok(net) => net,
        Err(_) => {
            debug_assert!(false, "complete fabric is always valid");
            Network::from_sorted_edges(n, Vec::new())
        }
    }
}

/// Random `d`-regular bipartite fabric: union of `d` random derangements
/// (fixed-point-free permutations), so every node has out-degree and
/// in-degree exactly `d` (modulo collisions between derangements, which are
/// retried).
///
/// Returns an error if `d >= n` (a node cannot reach `n-1` distinct peers
/// with more than `n-1` distinct links) or `n < 2`.
pub fn random_regular<R: Rng + ?Sized>(n: u32, d: u32, rng: &mut R) -> Result<Network, NetError> {
    if n < 2 {
        return Err(NetError::EmptyNetwork);
    }
    if d >= n {
        return Err(NetError::NodeOutOfRange { node: NodeId(d), n });
    }
    // Greedily accumulate derangements whose edges are all new.
    let mut used = std::collections::HashSet::new();
    let mut edges = Vec::new();
    let mut rounds = 0;
    while rounds < d {
        if let Some(perm) = random_derangement_avoiding(n, &used, rng, 200) {
            for (i, &j) in perm.iter().enumerate() {
                used.insert((i as u32, j));
                edges.push((i as u32, j));
            }
            rounds += 1;
        } else {
            // Extremely unlikely for d << n; clear and restart.
            used.clear();
            edges.clear();
            rounds = 0;
        }
    }
    Network::from_edges(n, edges)
}

/// Random derangement of `0..n` avoiding a set of forbidden (i, π(i)) pairs.
fn random_derangement_avoiding<R: Rng + ?Sized>(
    n: u32,
    forbidden: &std::collections::HashSet<(u32, u32)>,
    rng: &mut R,
    max_tries: u32,
) -> Option<Vec<u32>> {
    let mut perm: Vec<u32> = (0..n).collect();
    for _ in 0..max_tries {
        perm.shuffle(rng);
        let ok = perm
            .iter()
            .enumerate()
            .all(|(i, &j)| i as u32 != j && !forbidden.contains(&(i as u32, j)));
        if ok {
            return Some(perm.clone());
        }
    }
    None
}

/// Multi-switch fabric (§3 motivation (ii)): the circuit network is built
/// from `k` optical switches of `port_count` ports each; switch `s` connects
/// a random subset of `port_count` nodes as a full bipartite clique among
/// them (any output port on the switch can reach any input port on it).
/// Nodes attached to no common switch cannot connect directly — the reason
/// multi-hop routing is unavoidable on such fabrics, since single optical
/// switches cannot scale to whole data centers (low port counts \[8\]).
///
/// Provided `switches · port_count ≥ n`, every node is attached to at least
/// one switch: the first `⌈n / port_count⌉` switches deterministically cover
/// consecutive node blocks (their remaining ports filled randomly), and any
/// further switches pick fully random subsets. Connectivity across switches
/// emerges from overlapping memberships.
pub fn multi_switch<R: Rng + ?Sized>(
    n: u32,
    switches: u32,
    port_count: u32,
    rng: &mut R,
) -> Result<Network, NetError> {
    if n < 2 {
        return Err(NetError::EmptyNetwork);
    }
    let port_count = port_count.min(n).max(2);
    let mut edges = Vec::new();
    let mut ids: Vec<u32> = (0..n).collect();
    let covering = n.div_ceil(port_count);
    for s in 0..switches.max(1) {
        ids.shuffle(rng);
        let mut members: Vec<u32> = if s < covering {
            // Coverage block: port_count consecutive nodes (mod n).
            (0..port_count).map(|k| (s * port_count + k) % n).collect()
        } else {
            Vec::new()
        };
        for &v in &ids {
            if members.len() >= port_count as usize {
                break;
            }
            if !members.contains(&v) {
                members.push(v);
            }
        }
        for &a in &members {
            for &b in &members {
                if a != b {
                    edges.push((a, b));
                }
            }
        }
    }
    Network::from_edges(n, edges)
}

/// Unidirectional ring: edges `(i, i+1 mod n)`.
pub fn ring(n: u32) -> Result<Network, NetError> {
    if n < 2 {
        return Err(NetError::EmptyNetwork);
    }
    Network::from_edges(n, (0..n).map(|i| (i, (i + 1) % n)))
}

/// Chordal ring: a ring plus chords at the given hop offsets
/// (e.g. `chordal_ring(16, &[4])` adds edges `(i, i+4 mod n)`).
pub fn chordal_ring(n: u32, chords: &[u32]) -> Result<Network, NetError> {
    if n < 2 {
        return Err(NetError::EmptyNetwork);
    }
    let mut edges: Vec<(u32, u32)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
    for &c in chords {
        let c = c % n;
        if c == 0 {
            continue;
        }
        for i in 0..n {
            edges.push((i, (i + c) % n));
        }
    }
    Network::from_edges(n, edges)
}

/// The canonical family of perfect matchings that together cover the complete
/// fabric, via the round-robin tournament ("circle") method.
///
/// For even `n` this yields `n-1` matchings, each with `n/2` bidirectional
/// pairs realized as two directed links `(a,b)` and `(b,a)` — but since our
/// links are unidirectional we emit, for every round, a full directed perfect
/// matching containing both directions of each pair; each node has exactly
/// one out-link and one in-link per round. For odd `n`, one node sits out per
/// round and `n` rounds are produced.
///
/// RotorNet cycles through exactly such a fixed matching family.
pub fn round_robin_matchings(n: u32) -> Vec<Matching> {
    if n < 2 {
        return Vec::new();
    }
    // Circle method on m = n (even) or n+1 (odd, with a phantom node).
    let m = if n % 2 == 0 { n } else { n + 1 };
    let rounds = m - 1;
    let mut result = Vec::with_capacity(rounds as usize);
    // positions[0] fixed; others rotate.
    let mut others: Vec<u32> = (1..m).collect();
    for _ in 0..rounds {
        let mut links: Vec<(u32, u32)> = Vec::with_capacity(n as usize);
        // Pair 0 with others[last]; pair others[i] with others[m-3-i].
        let mut pairs: Vec<(u32, u32)> = Vec::with_capacity((m / 2) as usize);
        pairs.push((0, others[(m - 2) as usize]));
        for i in 0..((m - 2) / 2) as usize {
            pairs.push((others[i], others[(m - 3) as usize - i]));
        }
        for (a, b) in pairs {
            // Skip pairs involving the phantom node (id n) for odd n.
            if a < n && b < n {
                links.push((a, b));
                links.push((b, a));
            }
        }
        let Ok(m) = Matching::new_free(links) else {
            debug_assert!(false, "round-robin rounds are matchings");
            others.rotate_right(1);
            continue;
        };
        result.push(m);
        others.rotate_right(1);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn complete_has_all_pairs() {
        let net = complete(5);
        assert_eq!(net.num_edges(), 20);
        assert_eq!(net.diameter(), Some(1));
    }

    #[test]
    fn random_regular_degrees() {
        let mut rng = StdRng::seed_from_u64(7);
        let net = random_regular(20, 4, &mut rng).unwrap();
        for v in net.nodes() {
            assert_eq!(net.out_neighbors(v).len(), 4, "out-degree of {v}");
            assert_eq!(net.in_neighbors(v).len(), 4, "in-degree of {v}");
        }
    }

    #[test]
    fn random_regular_rejects_bad_params() {
        let mut rng = StdRng::seed_from_u64(7);
        assert!(random_regular(4, 4, &mut rng).is_err());
        assert!(random_regular(1, 0, &mut rng).is_err());
    }

    #[test]
    fn ring_structure() {
        let net = ring(6).unwrap();
        assert_eq!(net.num_edges(), 6);
        assert_eq!(net.hop_distance(NodeId(0), NodeId(5)), Some(5));
    }

    #[test]
    fn chordal_ring_reduces_diameter() {
        let plain = ring(16).unwrap();
        let chorded = chordal_ring(16, &[4]).unwrap();
        assert!(chorded.diameter().unwrap() < plain.diameter().unwrap());
    }

    #[test]
    fn round_robin_covers_complete_graph_even() {
        let n = 6;
        let ms = round_robin_matchings(n);
        assert_eq!(ms.len(), (n - 1) as usize);
        let mut covered = std::collections::HashSet::new();
        for m in &ms {
            assert_eq!(m.len(), n as usize, "each round is a perfect matching");
            for &(i, j) in m.links() {
                covered.insert((i, j));
            }
        }
        assert_eq!(covered.len(), (n * (n - 1)) as usize);
    }

    #[test]
    fn round_robin_covers_complete_graph_odd() {
        let n = 5;
        let ms = round_robin_matchings(n);
        assert_eq!(ms.len(), n as usize);
        let mut covered = std::collections::HashSet::new();
        for m in &ms {
            for &(i, j) in m.links() {
                covered.insert((i, j));
            }
        }
        assert_eq!(covered.len(), (n * (n - 1)) as usize);
    }
}

#[cfg(test)]
mod multi_switch_tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn every_node_gets_attached() {
        let mut rng = StdRng::seed_from_u64(1);
        let net = multi_switch(30, 8, 8, &mut rng).unwrap();
        for v in net.nodes() {
            assert!(
                !net.out_neighbors(v).is_empty(),
                "node {v} has no out-links"
            );
            assert!(!net.in_neighbors(v).is_empty(), "node {v} has no in-links");
        }
    }

    #[test]
    fn fabric_is_incomplete_for_small_switches() {
        let mut rng = StdRng::seed_from_u64(2);
        let net = multi_switch(40, 6, 8, &mut rng).unwrap();
        let complete_edges = 40 * 39;
        assert!(
            net.num_edges() < complete_edges,
            "with few small switches the fabric must be incomplete"
        );
        assert!(net.diameter().unwrap_or(0) >= 2, "multi-hop is required");
    }

    #[test]
    fn port_count_clamped_to_n() {
        let mut rng = StdRng::seed_from_u64(3);
        let net = multi_switch(4, 2, 100, &mut rng).unwrap();
        assert_eq!(net.num_edges(), 12, "one switch already completes n=4");
    }
}
