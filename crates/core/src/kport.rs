//! §7 generalization: **K input/output ports per node**.
//!
//! In fabrics where each node has `r` transceivers (e.g. FSO racks with tens
//! of terminals), any `r`-regular-or-less subgraph — a union of `r`
//! matchings — is a valid configuration. The paper's recipe: for a given α,
//! greedily pick the best matching, commit its packets, recompute `g` on the
//! residual traffic, and repeat until `r` edge-disjoint matchings are
//! combined; this greedy is `(1 − 1/e)`-approximate per configuration,
//! degrading the overall guarantee to `(1 − e^{−(1−1/e)/𝒟}) · W/(W+Δ)`.

use crate::engine::{KPortFabric, ScheduleEngine, SearchPolicy};
use crate::{check_window, OctopusConfig, OctopusOutput, RemainingTraffic, SchedError};
use octopus_net::Network;
use octopus_traffic::TrafficLoad;

/// Octopus for fabrics with `r` ports per node.
///
/// Identical greedy outer loop to [`crate::octopus`]
/// ([`ScheduleEngine::plan_window`]), but each candidate configuration for a
/// given α is a union of up to `r` edge-disjoint matchings selected greedily
/// with intermediate `g` updates ([`KPortFabric`]). The α search is
/// exhaustive over the Procedure-1 candidate set; `cfg.alpha_search ==
/// AlphaSearch::Binary` switches to ternary search as in Octopus-B. The
/// search always runs sequentially, whatever `cfg.parallel` says.
pub fn octopus_kport(
    net: &Network,
    load: &TrafficLoad,
    cfg: &OctopusConfig,
    r: u32,
) -> Result<OctopusOutput, SchedError> {
    assert!(r >= 1, "at least one port per node");
    check_window(cfg.window, cfg.delta)?;
    load.validate(net)?;
    let mut tr = RemainingTraffic::new(load, cfg.weighting)?;
    let mut fabric = KPortFabric {
        kind: cfg.matching,
        r,
    };
    let policy = SearchPolicy {
        parallel: false,
        ..cfg.search_policy()
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
    use octopus_traffic::{Flow, FlowId, Route};

    fn cfg(window: u64, delta: u64) -> OctopusConfig {
        OctopusConfig {
            window,
            delta,
            ..OctopusConfig::default()
        }
    }

    #[test]
    fn two_ports_serve_two_flows_from_one_node() {
        // Node 0 sends to 1 and to 2; with r=2 both links activate at once.
        let net = topology::complete(3);
        let load = TrafficLoad::new(vec![
            Flow::single(FlowId(1), 30, Route::from_ids([0, 1]).unwrap()),
            Flow::single(FlowId(2), 30, Route::from_ids([0, 2]).unwrap()),
        ])
        .unwrap();
        let two = octopus_kport(&net, &load, &cfg(200, 10), 2).unwrap();
        assert_eq!(two.planned_delivered, 60);
        assert_eq!(two.iterations, 1, "one 2-port configuration suffices");
        assert_eq!(two.schedule.configs()[0].matching.len(), 2);

        let one = octopus_kport(&net, &load, &cfg(200, 10), 1).unwrap();
        assert_eq!(one.planned_delivered, 60);
        assert!(one.iterations >= 2, "single ports need two configurations");
    }

    #[test]
    fn kport_with_r1_matches_octopus() {
        let net = topology::complete(5);
        let load = TrafficLoad::new(vec![
            Flow::single(FlowId(1), 25, Route::from_ids([0, 1, 2]).unwrap()),
            Flow::single(FlowId(2), 15, Route::from_ids([3, 4]).unwrap()),
        ])
        .unwrap();
        let k = octopus_kport(&net, &load, &cfg(500, 5), 1).unwrap();
        let o = crate::octopus(&net, &load, &cfg(500, 5)).unwrap();
        assert_eq!(k.planned_delivered, o.planned_delivered);
        assert!((k.planned_psi - o.planned_psi).abs() < 1e-9);
    }

    #[test]
    fn higher_r_never_hurts_planned_throughput() {
        let net = topology::complete(6);
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(3);
        let synth = octopus_traffic::synthetic::SyntheticConfig::paper_default(6, 400);
        let load = octopus_traffic::synthetic::generate(&synth, &net, &mut rng);
        let r1 = octopus_kport(&net, &load, &cfg(400, 10), 1).unwrap();
        let r2 = octopus_kport(&net, &load, &cfg(400, 10), 2).unwrap();
        assert!(
            r2.planned_delivered + 5 >= r1.planned_delivered,
            "r=2 {} vs r=1 {}",
            r2.planned_delivered,
            r1.planned_delivered
        );
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
        let out = octopus_kport(&net, &load, &cfg(120, 10), 3).unwrap();
        assert!(out.schedule.total_cost(10) <= 120);
    }
}
