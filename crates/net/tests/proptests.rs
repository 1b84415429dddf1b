//! Property-based tests for the network model: matchings, schedules and
//! topology builders.

use octopus_net::{topology, Configuration, Link, Matching, NetError, Network, NodeId, Schedule};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};

/// The port check `Matching::new_free_with_capacity` made with hash maps,
/// kept as the reference its sorted-order check must agree with: walk the
/// sorted, deduplicated links and stop at the first one that takes a port
/// past `r`, checking its output port first.
fn reference_with_capacity(links: &[(u32, u32)], r: u32) -> Result<Vec<Link>, NetError> {
    let mut list: Vec<Link> = Vec::new();
    for &(i, j) in links {
        if i == j {
            return Err(NetError::SelfLoop(NodeId(i)));
        }
        list.push((NodeId(i), NodeId(j)));
    }
    list.sort_unstable();
    list.dedup();
    let mut out_deg = HashMap::new();
    let mut in_deg = HashMap::new();
    for &(i, j) in &list {
        let o = out_deg.entry(i).or_insert(0u32);
        *o += 1;
        if *o > r {
            return Err(NetError::OutputPortConflict(i));
        }
        let d = in_deg.entry(j).or_insert(0u32);
        *d += 1;
        if *d > r {
            return Err(NetError::InputPortConflict(j));
        }
    }
    Ok(list)
}

/// The port check `Matching::new_free` made with two hash sets, kept as the
/// reference its sorted-order check must agree with.
fn reference_free(links: &[(u32, u32)]) -> Result<Vec<Link>, NetError> {
    let mut list: Vec<Link> = Vec::new();
    for &(i, j) in links {
        if i == j {
            return Err(NetError::SelfLoop(NodeId(i)));
        }
        list.push((NodeId(i), NodeId(j)));
    }
    list.sort_unstable();
    list.dedup();
    let mut out_seen = HashSet::new();
    let mut in_seen = HashSet::new();
    for &(i, j) in &list {
        if !out_seen.insert(i) {
            return Err(NetError::OutputPortConflict(i));
        }
        if !in_seen.insert(j) {
            return Err(NetError::InputPortConflict(j));
        }
    }
    Ok(list)
}

/// Node IDs that collide often (0..8) mixed with extremes up to `u32::MAX`.
fn node_id() -> impl Strategy<Value = u32> {
    (0u32..12, 0u32..=u32::MAX).prop_map(|(k, big)| match k {
        0..=7 => k,
        8 => u32::MAX,
        9 => u32::MAX - 1,
        10 => 1 << 31,
        _ => big,
    })
}

/// Link lists with self-loops, duplicates and conflicts on both port kinds.
fn link_list() -> impl Strategy<Value = Vec<(u32, u32)>> {
    prop::collection::vec((node_id(), node_id()), 0..14)
}

#[test]
fn a_link_to_the_largest_node_id_is_a_matching() {
    let m = Matching::new_free([(0u32, u32::MAX)]).unwrap();
    assert_eq!(m.links(), &[(NodeId(0), NodeId(u32::MAX))]);
    let k = Matching::new_free_with_capacity([(u32::MAX, 0u32), (u32::MAX, 1)], 2).unwrap();
    assert_eq!(k.len(), 2);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn new_free_agrees_with_the_hash_set_reference(links in link_list()) {
        let got = Matching::new_free(links.clone()).map(|m| m.links().to_vec());
        prop_assert_eq!(got, reference_free(&links), "links {:?}", links);
    }

    #[test]
    fn new_free_with_capacity_agrees_with_the_hash_map_reference(
        links in link_list(),
        r in (0u32..6).prop_map(|r| if r == 5 { u32::MAX } else { r }),
    ) {
        let got = Matching::new_free_with_capacity(links.clone(), r).map(|m| m.links().to_vec());
        prop_assert_eq!(got, reference_with_capacity(&links, r), "links {:?}, r = {}", links, r);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn matching_construction_enforces_port_uniqueness(
        links in prop::collection::vec((0u32..8, 0u32..8), 0..10)
    ) {
        let clean: Vec<(u32, u32)> = links.into_iter().filter(|&(a, b)| a != b).collect();
        match Matching::new_free(clean.clone()) {
            Ok(m) => {
                // Accepted: must genuinely be a matching.
                let mut outs = std::collections::HashSet::new();
                let mut ins = std::collections::HashSet::new();
                for &(i, j) in m.links() {
                    prop_assert!(outs.insert(i));
                    prop_assert!(ins.insert(j));
                }
            }
            Err(e) => {
                // Rejected: there must actually be a duplicate port.
                let mut outs = std::collections::HashSet::new();
                let mut ins = std::collections::HashSet::new();
                let mut dedup: Vec<(u32, u32)> = clean.clone();
                dedup.sort_unstable();
                dedup.dedup();
                let conflict = dedup
                    .iter()
                    .any(|&(a, b)| !outs.insert(a) | !ins.insert(b));
                prop_assert!(conflict, "spurious rejection {e:?} for {clean:?}");
            }
        }
    }

    #[test]
    fn multiport_capacity_is_respected(
        links in prop::collection::vec((0u32..6, 0u32..6), 0..14),
        r in 1u32..4,
    ) {
        let clean: Vec<(u32, u32)> = links.into_iter().filter(|&(a, b)| a != b).collect();
        if let Ok(m) = Matching::new_free_with_capacity(clean, r) {
            let mut out_deg = std::collections::HashMap::new();
            let mut in_deg = std::collections::HashMap::new();
            for &(i, j) in m.links() {
                *out_deg.entry(i).or_insert(0u32) += 1;
                *in_deg.entry(j).or_insert(0u32) += 1;
            }
            prop_assert!(out_deg.values().all(|&d| d <= r));
            prop_assert!(in_deg.values().all(|&d| d <= r));
        }
    }

    #[test]
    fn schedule_truncation_always_fits_window(
        alphas in prop::collection::vec(1u64..200, 1..8),
        window in 1u64..600,
        delta in 0u64..50,
    ) {
        let configs: Vec<Configuration> = alphas
            .iter()
            .enumerate()
            .map(|(i, &a)| {
                let i = i as u32 % 3;
                Configuration::new(
                    Matching::new_free([(2 * i, 2 * i + 1)]).unwrap(),
                    a,
                )
            })
            .collect();
        let mut s = Schedule::from(configs.clone());
        s.truncate_to_window(window, delta);
        prop_assert!(s.total_cost(delta) <= window, "cost {} > window {window}", s.total_cost(delta));
        prop_assert!(s.validate(None).is_ok(), "no zero-alpha configurations survive");
        // Truncation only shortens: every kept config matches the original
        // except possibly the last one's alpha.
        for (kept, orig) in s.configs().iter().zip(configs.iter()) {
            prop_assert_eq!(&kept.matching, &orig.matching);
            prop_assert!(kept.alpha <= orig.alpha);
        }
    }

    #[test]
    fn random_regular_has_exact_degrees(n in 4u32..20, seed in 0u64..500) {
        use rand::SeedableRng;
        let d = 2 + (seed % 3) as u32;
        prop_assume!(d < n);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let net = topology::random_regular(n, d, &mut rng).unwrap();
        for v in net.nodes() {
            prop_assert_eq!(net.out_neighbors(v).len(), d as usize);
            prop_assert_eq!(net.in_neighbors(v).len(), d as usize);
        }
    }

    #[test]
    fn round_robin_family_covers_all_pairs(n in 2u32..12) {
        let family = topology::round_robin_matchings(n);
        let mut covered = std::collections::HashSet::new();
        for m in &family {
            // Each round is a valid matching (construction enforces it).
            for &(i, j) in m.links() {
                covered.insert((i, j));
            }
        }
        prop_assert_eq!(covered.len() as u32, n * (n - 1));
    }

    #[test]
    fn routes_validate_iff_all_hops_exist(
        n in 3u32..8,
        hops in prop::collection::vec((0u32..8, 0u32..8), 1..6),
    ) {
        let edges: Vec<(u32, u32)> = hops
            .iter()
            .map(|&(a, b)| (a % n, b % n))
            .filter(|&(a, b)| a != b)
            .collect();
        prop_assume!(!edges.is_empty());
        let net = Network::from_edges(n, edges.clone()).unwrap();
        for &(a, b) in &edges {
            prop_assert!(net.has_edge(octopus_net::NodeId(a), octopus_net::NodeId(b)));
        }
        // A fabricated non-edge must be rejected.
        for a in 0..n {
            for b in 0..n {
                if a != b && !edges.contains(&(a, b)) {
                    prop_assert_eq!(
                        net.validate_route(&[octopus_net::NodeId(a), octopus_net::NodeId(b)]),
                        Err(NetError::LinkNotInNetwork(
                            octopus_net::NodeId(a),
                            octopus_net::NodeId(b)
                        ))
                    );
                }
            }
        }
    }
}
