//! Property-based tests for traffic generation: permutation structure,
//! sweep-knob conservation, route feasibility and CSV round-trips.

use octopus_net::topology;
use octopus_net::NodeId;
use octopus_traffic::{synthetic, synthetic::SyntheticConfig, DemandMatrix, Route, TrafficError};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The revisit check `Route::new` made with a hash set, kept as the
/// reference its hash-free check must agree with: the error names the
/// first node, in route order, seen before.
fn reference_route(ids: &[u32]) -> Result<Vec<NodeId>, TrafficError> {
    if ids.len() < 2 {
        return Err(TrafficError::RouteTooShort);
    }
    let mut seen = std::collections::HashSet::new();
    for &v in ids {
        if !seen.insert(v) {
            return Err(TrafficError::RouteRevisitsNode(NodeId(v)));
        }
    }
    Ok(ids.iter().map(|&v| NodeId(v)).collect())
}

/// Node IDs that repeat often (0..24) mixed with extremes up to `u32::MAX`.
fn node_id() -> impl Strategy<Value = u32> {
    (0u32..28, 0u32..=u32::MAX).prop_map(|(k, big)| match k {
        0..=23 => k,
        24 => u32::MAX,
        25 => u32::MAX - 1,
        26 => 1 << 31,
        _ => big,
    })
}

/// Routes of 0–40 nodes, so both the pairwise check (up to 16 nodes) and
/// the sorted one run: random lists (long ones nearly always revisit), and
/// distinct lists with one node optionally copied to another position.
fn route_ids() -> impl Strategy<Value = Vec<u32>> {
    let distinct = (0usize..40, 0u32..=u32::MAX, 0usize..80, 0usize..80, 0u32..2).prop_map(
        |(len, salt, from, to, repeat)| {
            let mut ids: Vec<u32> = (0..len as u32)
                .map(|k| k.wrapping_mul(2_654_435_761) ^ salt)
                .collect();
            if repeat == 1 && len > 0 {
                let v = ids[from % len];
                ids.insert(to % (len + 1), v);
            }
            ids
        },
    );
    (0u32..2, prop::collection::vec(node_id(), 0..40), distinct)
        .prop_map(|(pick, random, distinct)| if pick == 0 { random } else { distinct })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn route_new_agrees_with_the_hash_set_reference(ids in route_ids()) {
        let got = Route::from_ids(ids.iter().copied()).map(|r| r.nodes().to_vec());
        prop_assert_eq!(got, reference_route(&ids), "route {:?}", ids);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn generated_loads_have_balanced_port_sums(n in 4u32..24, seed in 0u64..1000) {
        let net = topology::complete(n);
        let cfg = SyntheticConfig::paper_default(n, 2_000);
        let mut rng = StdRng::seed_from_u64(seed);
        let load = synthetic::generate(&cfg, &net, &mut rng);
        load.validate(&net).unwrap();
        let m = load.demand_matrix(n);
        let expect = cfg.n_large as u64 * cfg.large_flow_size()
            + cfg.n_small as u64 * cfg.small_flow_size();
        for (i, (&r, &c)) in m.row_sums().iter().zip(m.col_sums().iter()).enumerate() {
            prop_assert_eq!(r, expect, "row {}", i);
            prop_assert_eq!(c, expect, "col {}", i);
        }
    }

    #[test]
    fn skew_knob_preserves_per_port_total(frac in 0.0f64..=1.0) {
        let cfg = SyntheticConfig::paper_default(100, 10_000).with_skew(frac);
        prop_assert_eq!(cfg.c_large + cfg.c_small, 10_000);
    }

    #[test]
    fn sparsity_knob_hits_requested_totals(total in 2u32..64) {
        let cfg = SyntheticConfig::paper_default(100, 10_000).with_flows_per_port(total);
        // Within rounding of the 1:3 split, and at least one of each kind.
        prop_assert!(cfg.n_large >= 1 && cfg.n_small >= 1);
        prop_assert!(cfg.n_large + cfg.n_small >= total.min(2));
        prop_assert!(cfg.n_large + cfg.n_small <= total.max(2));
    }

    #[test]
    fn routes_always_live_inside_the_fabric(n in 6u32..16, seed in 0u64..300) {
        // Sparse fabric: every sampled route must still validate.
        let mut rng = StdRng::seed_from_u64(seed);
        let d = 3.min(n - 1);
        let net = topology::random_regular(n, d, &mut rng).unwrap();
        let cfg = SyntheticConfig::paper_default(n, 500);
        let load = synthetic::generate(&cfg, &net, &mut rng);
        load.validate(&net).unwrap();
    }

    #[test]
    fn multi_route_flows_share_endpoints(n in 5u32..14, seed in 0u64..200) {
        let net = topology::complete(n);
        let cfg = SyntheticConfig::paper_default(n, 500);
        let mut rng = StdRng::seed_from_u64(seed);
        let load = synthetic::generate_with_routes(&cfg, &net, &mut rng, 6);
        for f in load.flows() {
            let (s, d) = (f.src(), f.dst());
            for r in &f.routes {
                prop_assert_eq!(r.src(), s);
                prop_assert_eq!(r.dst(), d);
            }
        }
    }

    #[test]
    fn csv_round_trip_is_identity(
        entries in prop::collection::vec((0u32..20, 0u32..20, 1u64..100_000), 0..30)
    ) {
        let m = DemandMatrix::new(20, entries);
        let back = DemandMatrix::from_csv_str(&m.to_csv_string(), 20).unwrap();
        prop_assert_eq!(back, m);
    }

    #[test]
    fn scaling_caps_the_max_entry(
        entries in prop::collection::vec((0u32..10, 0u32..10, 1u64..1_000_000), 1..20),
        target in 1u64..100_000,
    ) {
        let m = DemandMatrix::new(10, entries);
        prop_assume!(m.total() > 0);
        let s = m.scale_max_to(target);
        prop_assert!(s.max_entry() <= target.max(1));
        // Non-zero entries stay non-zero (floor of 1 packet).
        prop_assert_eq!(s.entries.len(), m.entries.len());
    }

    #[test]
    fn subsample_preserves_entry_subset(
        entries in prop::collection::vec((0u32..15, 0u32..15, 1u64..500), 0..25),
        m_small in 2u32..10,
        seed in 0u64..100,
    ) {
        let m = DemandMatrix::new(15, entries);
        let mut rng = StdRng::seed_from_u64(seed);
        let s = m.subsample(m_small, &mut rng);
        prop_assert_eq!(s.n, m_small);
        prop_assert!(s.total() <= m.total());
        for &(r, c, d) in &s.entries {
            prop_assert!(r < m_small && c < m_small && d > 0);
        }
    }
}
