//! The main Octopus greedy loop (§4.1).

use crate::engine::{BipartiteFabric, ScheduleEngine, SearchPolicy, WindowRun};
use crate::{check_window, AlphaSearch, ExactKernel, MatchingKind, RemainingTraffic, SchedError};
use octopus_net::{Network, Schedule};
use octopus_traffic::{HopWeighting, TrafficLoad};
use serde::{Deserialize, Serialize};

/// Parameters of the Octopus scheduler family.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OctopusConfig {
    /// Reconfiguration delay Δ (slots).
    pub delta: u64,
    /// Scheduling window W (slots); the schedule's total cost `Σ(α+Δ)` never
    /// exceeds it.
    pub window: u64,
    /// Packet/hop weighting: `Uniform` is Octopus, `EpsilonLater` Octopus-e.
    pub weighting: HopWeighting,
    /// α-search strategy: `Exhaustive` is Octopus, `Binary` Octopus-B.
    pub alpha_search: AlphaSearch,
    /// Matching kernel: `Exact` is Octopus, `BucketGreedy` Octopus-G.
    pub matching: MatchingKind,
    /// Exact assignment algorithm backing [`MatchingKind::Exact`]:
    /// sequential Hungarian (default) or the parallel-bidding auction
    /// kernel. Absent fields in serialized configs deserialize to the
    /// default.
    #[serde(default)]
    pub kernel: ExactKernel,
    /// Fan candidate-α evaluation out over rayon's worker threads (the
    /// paper's multi-core controller; disables upper-bound pruning). The
    /// worker count defaults to the machine's available parallelism and can
    /// be pinned with the `OCTOPUS_THREADS` environment variable or
    /// `rayon::ThreadPoolBuilder`; the chosen schedule is bit-identical to
    /// the sequential search for every worker count.
    pub parallel: bool,
}

impl Default for OctopusConfig {
    fn default() -> Self {
        OctopusConfig {
            delta: 20,
            window: 10_000,
            weighting: HopWeighting::Uniform,
            alpha_search: AlphaSearch::Exhaustive,
            matching: MatchingKind::Exact,
            kernel: ExactKernel::Hungarian,
            parallel: false,
        }
    }
}

impl OctopusConfig {
    /// Convenience: the Octopus-G configuration for a load whose maximum
    /// route length is `max_hops`.
    pub fn octopus_g(mut self, max_hops: u32) -> Self {
        self.matching = MatchingKind::BucketGreedy {
            scale: octopus_traffic::weight::weight_scale(max_hops),
        };
        self
    }

    /// Convenience: the Octopus-B configuration.
    pub fn octopus_b(mut self) -> Self {
        self.alpha_search = AlphaSearch::Binary;
        self
    }

    /// Convenience: the Octopus-e configuration with bonus `eps`.
    pub fn octopus_e(mut self, eps: f64) -> Self {
        self.weighting = HopWeighting::EpsilonLater { eps };
        self
    }

    /// The α-search these knobs select, with smaller-α tie-breaks.
    pub fn search_policy(&self) -> SearchPolicy {
        SearchPolicy {
            search: self.alpha_search,
            parallel: self.parallel,
            prefer_larger_alpha: false,
            kernel: self.kernel,
        }
    }
}

/// Result of a scheduler run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OctopusOutput {
    /// The chosen configuration sequence; total cost ≤ `window`.
    pub schedule: Schedule,
    /// ψ value of the plan (equals the realized ψ when the simulator uses
    /// [`octopus_sim::ForwardingMode::NextConfigOnly`] semantics).
    pub planned_psi: f64,
    /// Packets the plan delivers to their destination.
    pub planned_delivered: u64,
    /// Greedy iterations executed (= configurations before truncation).
    pub iterations: usize,
    /// Total weighted matchings computed across all iterations.
    pub matchings_computed: usize,
}

impl OctopusOutput {
    /// The output of one planned window whose ψ and delivered figures are
    /// `tr`'s planned totals.
    pub(crate) fn from_run(run: WindowRun, tr: &RemainingTraffic) -> Self {
        OctopusOutput {
            schedule: run.schedule,
            planned_psi: tr.planned_psi(),
            planned_delivered: tr.planned_delivered(),
            iterations: run.iterations,
            matchings_computed: run.matchings_computed,
        }
    }
}

/// Runs the Octopus algorithm on a single-route load.
///
/// Greedy loop: each iteration selects the configuration `(M, α)` with the
/// highest benefit per unit cost against the current remaining traffic
/// `T^r`, appends it, and advances `T^r` (each selected packet moves one hop,
/// served in weight-then-flow-ID priority order). The loop stops when the
/// traffic is fully (planned-)delivered, no packet can move, or the window is
/// exhausted; a final configuration that overshoots the window is truncated,
/// as the paper prescribes.
pub fn octopus(
    net: &Network,
    load: &TrafficLoad,
    cfg: &OctopusConfig,
) -> Result<OctopusOutput, SchedError> {
    check_window(cfg.window, cfg.delta)?;
    load.validate(net)?;
    let mut tr = RemainingTraffic::new(load, cfg.weighting)?;
    let mut fabric = BipartiteFabric { kind: cfg.matching };
    let run = ScheduleEngine::new(&mut tr, net.num_nodes(), cfg.delta).plan_window(
        &mut fabric,
        &cfg.search_policy(),
        cfg.window,
    )?;
    Ok(OctopusOutput::from_run(run, &tr))
}

#[cfg(test)]
mod tests {
    use super::*;
    use octopus_net::topology;
    use octopus_sim::{resolve, SimConfig, Simulator};
    use octopus_traffic::{Flow, FlowId, Route};

    fn example1_net() -> Network {
        // Nodes a=0, b=1, c=2, d=3; the links used by Figure 1.
        Network::from_edges(4, [(3u32, 0u32), (0, 1), (2, 1), (1, 0), (1, 2)]).unwrap()
    }

    fn example1_load() -> TrafficLoad {
        TrafficLoad::new(vec![
            Flow::single(FlowId(1), 100, Route::from_ids([0, 1, 2]).unwrap()),
            Flow::single(FlowId(2), 50, Route::from_ids([3, 0, 1]).unwrap()),
            Flow::single(FlowId(3), 50, Route::from_ids([2, 1, 0]).unwrap()),
        ])
        .unwrap()
    }

    fn cfg(window: u64, delta: u64) -> OctopusConfig {
        OctopusConfig {
            window,
            delta,
            ..OctopusConfig::default()
        }
    }

    #[test]
    fn solves_example1_optimally() {
        // With Δ=0 and W=300, the optimum delivers all 200 packets (ψ=200).
        let out = octopus(&example1_net(), &example1_load(), &cfg(300, 0)).unwrap();
        assert!(
            out.planned_psi >= 200.0 - 1e-9,
            "Octopus should reach the optimal psi of 200, got {}",
            out.planned_psi
        );
        assert_eq!(out.planned_delivered, 200);
        assert!(out.schedule.total_cost(0) <= 300);
        // Confirm with the slot-level simulator.
        let sim = Simulator::new(
            Some(&example1_net()),
            resolve(&example1_load()).unwrap(),
            SimConfig {
                delta: 0,
                ..SimConfig::default()
            },
        )
        .unwrap();
        let r = sim.run(&out.schedule).unwrap();
        assert_eq!(r.delivered, 200);
    }

    #[test]
    fn single_flow_direct_link() {
        let net = topology::complete(3);
        let load = TrafficLoad::new(vec![Flow::single(
            FlowId(1),
            40,
            Route::from_ids([0, 1]).unwrap(),
        )])
        .unwrap();
        let out = octopus(&net, &load, &cfg(100, 5)).unwrap();
        assert_eq!(out.planned_delivered, 40);
        assert_eq!(out.iterations, 1);
        assert_eq!(out.schedule.configs()[0].alpha, 40);
        assert_eq!(out.schedule.configs()[0].matching.links().len(), 1);
    }

    #[test]
    fn window_is_respected_and_last_config_truncated() {
        let net = topology::complete(3);
        let load = TrafficLoad::new(vec![Flow::single(
            FlowId(1),
            1_000,
            Route::from_ids([0, 1]).unwrap(),
        )])
        .unwrap();
        let out = octopus(&net, &load, &cfg(100, 10)).unwrap();
        assert!(out.schedule.total_cost(10) <= 100);
        assert_eq!(out.planned_delivered, 90); // 100 - delta
    }

    #[test]
    fn window_too_small_errors() {
        let net = topology::complete(3);
        let load = TrafficLoad::new(vec![]).unwrap();
        assert_eq!(
            octopus(&net, &load, &cfg(10, 10)).err(),
            Some(SchedError::WindowTooSmall {
                window: 10,
                delta: 10
            })
        );
    }

    #[test]
    fn window_above_2_pow_53_errors() {
        let net = topology::complete(3);
        let load = TrafficLoad::new(vec![]).unwrap();
        assert!(octopus(&net, &load, &cfg(crate::MAX_WINDOW, 10)).is_ok());
        for window in [crate::MAX_WINDOW + 1, u64::MAX] {
            assert_eq!(
                octopus(&net, &load, &cfg(window, 10)).err(),
                Some(SchedError::WindowTooLarge { window })
            );
        }
    }

    #[test]
    fn empty_load_gives_empty_schedule() {
        let net = topology::complete(3);
        let load = TrafficLoad::new(vec![]).unwrap();
        let out = octopus(&net, &load, &cfg(100, 5)).unwrap();
        assert!(out.schedule.is_empty());
        assert_eq!(out.planned_delivered, 0);
    }

    #[test]
    fn route_outside_network_rejected() {
        let net = topology::ring(4).unwrap();
        let load = TrafficLoad::new(vec![Flow::single(
            FlowId(9),
            1,
            Route::from_ids([0, 2]).unwrap(),
        )])
        .unwrap();
        assert_eq!(
            octopus(&net, &load, &cfg(100, 5)).err(),
            Some(SchedError::InvalidRoute(FlowId(9)))
        );
    }

    #[test]
    fn multi_hop_chain_completes_across_iterations() {
        // 3-hop route on a ring: Octopus must emit >= 3 configurations.
        let net = topology::ring(4).unwrap();
        let load = TrafficLoad::new(vec![Flow::single(
            FlowId(1),
            10,
            Route::from_ids([0, 1, 2, 3]).unwrap(),
        )])
        .unwrap();
        let out = octopus(&net, &load, &cfg(1_000, 2)).unwrap();
        assert_eq!(out.planned_delivered, 10);
        assert!(out.iterations >= 3);
        assert!((out.planned_psi - 10.0).abs() < 1e-9);
    }

    #[test]
    fn variants_agree_on_easy_instances() {
        let net = topology::complete(6);
        let load = TrafficLoad::new(vec![
            Flow::single(FlowId(1), 30, Route::from_ids([0, 1]).unwrap()),
            Flow::single(FlowId(2), 30, Route::from_ids([2, 3]).unwrap()),
            Flow::single(FlowId(3), 30, Route::from_ids([4, 5]).unwrap()),
        ])
        .unwrap();
        let base = cfg(200, 5);
        let a = octopus(&net, &load, &base).unwrap();
        let b = octopus(&net, &load, &base.octopus_b()).unwrap();
        let g = octopus(&net, &load, &base.octopus_g(1)).unwrap();
        assert_eq!(a.planned_delivered, 90);
        assert_eq!(b.planned_delivered, 90);
        assert_eq!(g.planned_delivered, 90);
    }

    #[test]
    fn octopus_e_prefers_later_hops() {
        // Two contenders for link (1,2): flow 1's *second* hop vs flow 2's
        // first hop, both 2-hop routes (equal base weight). Octopus-e weights
        // the later hop higher.
        let net = topology::complete(4);
        let load = TrafficLoad::new(vec![
            Flow::single(FlowId(1), 10, Route::from_ids([0, 1, 2]).unwrap()),
            Flow::single(FlowId(2), 10, Route::from_ids([1, 2, 3]).unwrap()),
        ])
        .unwrap();
        let base = cfg(26, 1).octopus_e(0.1);
        let out = octopus(&net, &load, &base).unwrap();
        // Regardless of exact schedule, flow 1 (started first hop) must not
        // be abandoned: psi should reflect completed journeys.
        assert!(out.planned_psi > 0.0);
        let sim = Simulator::new(
            Some(&net),
            resolve(&load).unwrap(),
            SimConfig {
                delta: 1,
                weighting: HopWeighting::EpsilonLater { eps: 0.1 },
                ..SimConfig::default()
            },
        )
        .unwrap();
        let r = sim.run(&out.schedule).unwrap();
        assert!(r.conserves_packets());
    }

    #[test]
    fn greedy_beats_nothing_and_respects_matching_constraint() {
        let net = topology::complete(5);
        let mut rng_state = 77u64;
        let mut next = move || {
            rng_state ^= rng_state << 13;
            rng_state ^= rng_state >> 7;
            rng_state ^= rng_state << 17;
            rng_state
        };
        let mut flows = Vec::new();
        for id in 0..10u64 {
            let src = (next() % 5) as u32;
            let mut dst = (next() % 5) as u32;
            if dst == src {
                dst = (dst + 1) % 5;
            }
            flows.push(Flow::single(
                FlowId(id),
                1 + next() % 40,
                Route::from_ids([src, dst]).unwrap(),
            ));
        }
        let load = TrafficLoad::new(flows).unwrap();
        let out = octopus(&net, &load, &cfg(500, 3)).unwrap();
        assert!(out.planned_delivered > 0);
        out.schedule.validate(Some(&net)).unwrap();
    }
}
