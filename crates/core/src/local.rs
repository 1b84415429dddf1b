//! **Localized reconfiguration** — an exploratory implementation of the
//! paper's primary future-work direction (§9, footnote 1).
//!
//! FSO-style fabrics can retrain individual links: switching from matching
//! `P` to `M` silences only the *changed* links for Δ slots, while links in
//! `P ∩ M` keep carrying traffic. The greedy benefit model extends
//! naturally: a persistent link gets `α + Δ` service slots instead of `α`,
//! so for a candidate duration α the matching graph carries weight
//!
//! ```text
//! w(i, j) = g(i, j, α + Δ)   if (i, j) ∈ P      (persists)
//!         = g(i, j, α)        otherwise          (retrains)
//! ```
//!
//! and the maximum-weight matching directly maximizes the localized benefit
//! per `(α + Δ)`-slot cost. No approximation factor is claimed — the paper
//! leaves the theory open — but the planner is consistent with
//! [`octopus_sim::ReconfigModel::Localized`], which realizes exactly this
//! transition behavior, so gains are measured honestly end to end.

use crate::engine::{LocalFabric, ScheduleEngine, SearchPolicy};
use crate::{
    check_window, AlphaSearch, OctopusConfig, OctopusOutput, RemainingTraffic, SchedError,
};
use octopus_net::Network;
use octopus_traffic::TrafficLoad;
use std::collections::HashSet;

/// Octopus with persistence-aware benefits for localized-reconfiguration
/// fabrics. Pair its schedule with
/// `SimConfig { reconfig: ReconfigModel::Localized, .. }` for evaluation.
pub fn octopus_local(
    net: &Network,
    load: &TrafficLoad,
    cfg: &OctopusConfig,
) -> Result<OctopusOutput, SchedError> {
    check_window(cfg.window, cfg.delta)?;
    load.validate(net)?;
    let mut tr = RemainingTraffic::new(load, cfg.weighting)?;
    // Ties break toward the *larger* α: with persistent service, a longer
    // configuration at equal per-slot value also leaves less unusable tail
    // at the end of the window.
    let policy = SearchPolicy {
        search: AlphaSearch::Exhaustive,
        parallel: false,
        prefer_larger_alpha: true,
        ..cfg.search_policy()
    };
    let mut fabric = LocalFabric {
        kind: cfg.matching,
        delta: cfg.delta,
        prev: HashSet::new(),
    };
    let run = ScheduleEngine::new(&mut tr, net.num_nodes(), cfg.delta).plan_window(
        &mut fabric,
        &policy,
        cfg.window,
        &mut (),
    )?;
    Ok(OctopusOutput::from_run(run, &tr))
}

#[cfg(test)]
mod tests {
    use super::*;
    use octopus_net::topology;
    use octopus_sim::{resolve, ReconfigModel, SimConfig, Simulator};
    use octopus_traffic::{Flow, FlowId, Route};

    fn cfg(window: u64, delta: u64) -> OctopusConfig {
        OctopusConfig {
            window,
            delta,
            ..OctopusConfig::default()
        }
    }

    #[test]
    fn exploits_persistent_links_under_heavy_delta() {
        // One dominant flow plus side traffic: the localized planner should
        // keep the heavy link alive across configurations and beat the
        // global planner when both are measured under localized hardware.
        let net = topology::complete(4);
        let load = TrafficLoad::new(vec![
            Flow::single(FlowId(1), 500, Route::from_ids([0, 1]).unwrap()),
            Flow::single(FlowId(2), 60, Route::from_ids([2, 3]).unwrap()),
            Flow::single(FlowId(3), 60, Route::from_ids([3, 2]).unwrap()),
        ])
        .unwrap();
        let c = cfg(300, 40);
        let local_plan = octopus_local(&net, &load, &c).unwrap();
        let global_plan = crate::octopus(&net, &load, &c).unwrap();
        let sim = Simulator::new(
            Some(&net),
            resolve(&load).unwrap(),
            SimConfig {
                delta: 40,
                reconfig: ReconfigModel::Localized,
                ..SimConfig::default()
            },
        )
        .unwrap();
        let r_local = sim.run(&local_plan.schedule).unwrap();
        let r_global = sim.run(&global_plan.schedule).unwrap();
        assert!(
            r_local.delivered >= r_global.delivered,
            "localized-aware {} vs global-aware {}",
            r_local.delivered,
            r_global.delivered
        );
        assert!(local_plan.schedule.total_cost(40) <= 300);
    }

    #[test]
    fn plan_matches_localized_simulation_totals() {
        let net = topology::complete(3);
        let load = TrafficLoad::new(vec![
            Flow::single(FlowId(1), 120, Route::from_ids([0, 1]).unwrap()),
            Flow::single(FlowId(2), 40, Route::from_ids([1, 2]).unwrap()),
        ])
        .unwrap();
        let c = cfg(200, 10);
        let out = octopus_local(&net, &load, &c).unwrap();
        let sim = Simulator::new(
            Some(&net),
            resolve(&load).unwrap(),
            SimConfig {
                delta: 10,
                reconfig: ReconfigModel::Localized,
                forwarding: octopus_sim::ForwardingMode::NextConfigOnly,
                ..SimConfig::default()
            },
        )
        .unwrap();
        let r = sim.run(&out.schedule).unwrap();
        // The localized simulator can only do at least as well as the plan
        // (transition service precedes the α slots the plan counted).
        assert!(
            r.delivered >= out.planned_delivered,
            "sim {} vs plan {}",
            r.delivered,
            out.planned_delivered
        );
    }

    #[test]
    fn reduces_to_octopus_when_delta_zero() {
        let net = topology::complete(4);
        let load = TrafficLoad::new(vec![
            Flow::single(FlowId(1), 30, Route::from_ids([0, 1, 2]).unwrap()),
            Flow::single(FlowId(2), 20, Route::from_ids([3, 0]).unwrap()),
        ])
        .unwrap();
        let c = cfg(500, 0);
        let a = octopus_local(&net, &load, &c).unwrap();
        let b = crate::octopus(&net, &load, &c).unwrap();
        assert_eq!(a.planned_delivered, b.planned_delivered);
        assert!((a.planned_psi - b.planned_psi).abs() < 1e-9);
    }

    #[test]
    fn window_respected() {
        let net = topology::complete(3);
        let load = TrafficLoad::new(vec![Flow::single(
            FlowId(1),
            10_000,
            Route::from_ids([0, 1]).unwrap(),
        )])
        .unwrap();
        let out = octopus_local(&net, &load, &cfg(150, 25)).unwrap();
        assert!(out.schedule.total_cost(25) <= 150);
    }
}
