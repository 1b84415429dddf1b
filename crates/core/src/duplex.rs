//! §7 generalization: **bidirectional (full-duplex) links**.
//!
//! Fabrics with full-duplex optical switches or bidirectional FSO links are
//! general undirected graphs whose valid configurations are matchings with
//! bidirectional links. Octopus carries over unchanged except that the
//! per-α matching is computed on the *undirected* graph, where edge `{a, b}`
//! is worth `g(a→b, α) + g(b→a, α)` (both directions serve traffic
//! simultaneously).
//!
//! The paper invokes exact general-graph matching (Gabow–Tarjan) here; the
//! default matcher is our exact `O(V³)` weighted blossom
//! ([`octopus_matching::blossom`]) on weights made integral by the
//! `lcm(1..=𝒟)` scale; [`GeneralMatcherKind::Greedy`] trades exactness for
//! speed, mirroring Octopus-G.

use crate::engine::{DuplexFabric, ScheduleEngine, SearchPolicy};
use crate::{check_window, OctopusConfig, OctopusOutput, RemainingTraffic, SchedError};
use octopus_net::duplex::DuplexNetwork;
use octopus_traffic::TrafficLoad;

/// Which general-graph matching kernel the duplex scheduler uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GeneralMatcherKind {
    /// Exact `O(V³)` weighted blossom on integrally-scaled weights.
    #[default]
    ExactBlossom,
    /// Sort-based greedy ½-approximation.
    Greedy,
}

/// Octopus on a duplex fabric with the exact blossom matcher.
pub fn octopus_duplex(
    net: &DuplexNetwork,
    load: &TrafficLoad,
    cfg: &OctopusConfig,
) -> Result<crate::OctopusOutput, SchedError> {
    octopus_duplex_with(net, load, cfg, GeneralMatcherKind::ExactBlossom)
}

/// Octopus on a duplex fabric with the chosen matching kernel.
pub fn octopus_duplex_with(
    net: &DuplexNetwork,
    load: &TrafficLoad,
    cfg: &OctopusConfig,
    matcher: GeneralMatcherKind,
) -> Result<crate::OctopusOutput, SchedError> {
    check_window(cfg.window, cfg.delta)?;
    let directed = net.to_directed();
    load.validate(&directed)?;
    let n = directed.num_nodes();
    // Scale factor that makes Uniform hop weights integral (for the exact
    // blossom's integer duals); ε-weights are rounded at 2^20 granularity.
    let scale = match cfg.weighting {
        octopus_traffic::HopWeighting::Uniform => {
            octopus_traffic::weight::weight_scale(load.max_route_hops().max(1)) as f64
        }
        octopus_traffic::HopWeighting::EpsilonLater { .. } => (1u64 << 20) as f64,
    };
    let mut tr = RemainingTraffic::new(load, cfg.weighting)?;
    let mut fabric = DuplexFabric {
        net,
        matcher,
        scale,
    };
    let run = ScheduleEngine::new(&mut tr, n, cfg.delta).plan_window(
        &mut fabric,
        &SearchPolicy::exhaustive(),
        cfg.window,
    )?;
    Ok(OctopusOutput::from_run(run, &tr))
}

#[cfg(test)]
mod tests {
    use super::*;
    use octopus_traffic::{Flow, FlowId, Route};

    fn cfg(window: u64, delta: u64) -> OctopusConfig {
        OctopusConfig {
            window,
            delta,
            ..OctopusConfig::default()
        }
    }

    #[test]
    fn duplex_serves_both_directions_at_once() {
        // Path 0-1 with traffic both ways: one duplex configuration carries
        // both flows simultaneously.
        let net = DuplexNetwork::from_edges(2, [(0u32, 1u32)]).unwrap();
        let load = TrafficLoad::new(vec![
            Flow::single(FlowId(1), 20, Route::from_ids([0, 1]).unwrap()),
            Flow::single(FlowId(2), 20, Route::from_ids([1, 0]).unwrap()),
        ])
        .unwrap();
        let out = octopus_duplex(&net, &load, &cfg(100, 5)).unwrap();
        assert_eq!(out.planned_delivered, 40);
        assert_eq!(out.iterations, 1);
        assert_eq!(out.schedule.configs()[0].matching.len(), 2);
    }

    #[test]
    fn duplex_matching_is_node_disjoint() {
        // Triangle with traffic on all three edges: only one edge can be
        // active per configuration.
        let net = DuplexNetwork::from_edges(3, [(0u32, 1u32), (1, 2), (0, 2)]).unwrap();
        let load = TrafficLoad::new(vec![
            Flow::single(FlowId(1), 10, Route::from_ids([0, 1]).unwrap()),
            Flow::single(FlowId(2), 10, Route::from_ids([1, 2]).unwrap()),
            Flow::single(FlowId(3), 10, Route::from_ids([2, 0]).unwrap()),
        ])
        .unwrap();
        let out = octopus_duplex(&net, &load, &cfg(200, 2)).unwrap();
        assert_eq!(out.planned_delivered, 30);
        assert!(out.iterations >= 3, "triangle needs three configurations");
    }

    #[test]
    fn multihop_over_duplex_path() {
        let net = DuplexNetwork::from_edges(3, [(0u32, 1u32), (1, 2)]).unwrap();
        let load = TrafficLoad::new(vec![Flow::single(
            FlowId(1),
            15,
            Route::from_ids([0, 1, 2]).unwrap(),
        )])
        .unwrap();
        let out = octopus_duplex(&net, &load, &cfg(300, 3)).unwrap();
        assert_eq!(out.planned_delivered, 15);
        assert!((out.planned_psi - 15.0).abs() < 1e-9);
    }

    #[test]
    fn route_not_in_duplex_graph_rejected() {
        let net = DuplexNetwork::from_edges(3, [(0u32, 1u32)]).unwrap();
        let load = TrafficLoad::new(vec![Flow::single(
            FlowId(4),
            1,
            Route::from_ids([0, 2]).unwrap(),
        )])
        .unwrap();
        assert_eq!(
            octopus_duplex(&net, &load, &cfg(100, 5)).err(),
            Some(SchedError::InvalidRoute(FlowId(4)))
        );
    }
}

#[cfg(test)]
mod matcher_kind_tests {
    use super::*;
    use octopus_traffic::{Flow, FlowId, Route};

    fn cfg(window: u64, delta: u64) -> OctopusConfig {
        OctopusConfig {
            window,
            delta,
            ..OctopusConfig::default()
        }
    }

    /// A 5-cycle where the greedy matcher is provably suboptimal but the
    /// blossom finds the two-edge matching.
    #[test]
    fn blossom_beats_greedy_on_odd_cycles() {
        let net =
            DuplexNetwork::from_edges(5, [(0u32, 1u32), (1, 2), (2, 3), (3, 4), (4, 0)]).unwrap();
        // Traffic on edges (0,1) and (2,3): a single configuration can carry
        // both (they are node-disjoint) — exact matching must find that.
        let load = TrafficLoad::new(vec![
            Flow::single(FlowId(1), 10, Route::from_ids([0, 1]).unwrap()),
            Flow::single(FlowId(2), 10, Route::from_ids([2, 3]).unwrap()),
        ])
        .unwrap();
        let exact =
            octopus_duplex_with(&net, &load, &cfg(100, 5), GeneralMatcherKind::ExactBlossom)
                .unwrap();
        assert_eq!(exact.planned_delivered, 20);
        assert_eq!(exact.iterations, 1, "one configuration serves both edges");
        let greedy =
            octopus_duplex_with(&net, &load, &cfg(100, 5), GeneralMatcherKind::Greedy).unwrap();
        assert!(greedy.planned_delivered == 20, "greedy also fine here");
        assert!(exact.planned_psi + 1e-9 >= greedy.planned_psi);
    }

    /// Weighted path where greedy grabs the middle edge and loses.
    #[test]
    fn exact_matcher_dominates_greedy_per_iteration() {
        let net = DuplexNetwork::from_edges(4, [(0u32, 1u32), (1, 2), (2, 3)]).unwrap();
        // Middle edge has slightly more traffic: greedy takes only it; exact
        // takes the two outer edges (combined > middle).
        let load = TrafficLoad::new(vec![
            Flow::single(FlowId(1), 10, Route::from_ids([0, 1]).unwrap()),
            Flow::single(FlowId(2), 12, Route::from_ids([1, 2]).unwrap()),
            Flow::single(FlowId(3), 10, Route::from_ids([2, 3]).unwrap()),
        ])
        .unwrap();
        let exact = octopus_duplex_with(
            &net,
            &load,
            &cfg(1_000, 50),
            GeneralMatcherKind::ExactBlossom,
        )
        .unwrap();
        let greedy =
            octopus_duplex_with(&net, &load, &cfg(1_000, 50), GeneralMatcherKind::Greedy).unwrap();
        // Both eventually deliver everything (window is large), but exact
        // needs fewer configurations (2 vs 3).
        assert_eq!(exact.planned_delivered, 32);
        assert!(exact.iterations <= greedy.iterations);
    }
}
