//! The executable specification (`tests/spec/model.rs`, Procedures 1–2 of
//! §4.1 over a plain `Vec` of sub-flows) against every offline window the
//! engine plans.
//!
//! The proptest below plans random windows on every fabric (bipartite,
//! localized, K-port r = 1 and r = 2, duplex), with every kernel kind, both
//! searches, both tie preferences and both hop weightings (Octopus and
//! Octopus-e), and requires the public engine
//! ([`ScheduleEngine::plan_window`], and the `octopus*` entry points where
//! one plans that combination) to commit the same configurations, the same
//! ψ bits and the same delivered count, with no tolerance. An ignored twin
//! repeats it at n = 12–24, where the engine's pruning has many candidates
//! to cut; CI runs it in release.

#[allow(
    dead_code,
    reason = "the streaming half of the model is for the stream suites"
)]
#[path = "spec/model.rs"]
mod model;

use model::{configs_of, duplex_scale, instance_in, policies, FabricKind, Instance, Spec, Window};
use octopus_mhs::core::duplex::{octopus_duplex_with, GeneralMatcherKind};
use octopus_mhs::core::kport::octopus_kport;
use octopus_mhs::core::local::octopus_local;
use octopus_mhs::core::{
    octopus, AlphaSearch, BipartiteFabric, DuplexFabric, Fabric, KPortFabric, LocalFabric,
    MatchingKind, OctopusConfig, RemainingTraffic, ScheduleEngine, SearchPolicy,
};
use octopus_mhs::net::duplex::DuplexNetwork;
use octopus_mhs::net::{topology, Schedule};
use octopus_mhs::traffic::weight::weight_scale;
use octopus_mhs::traffic::HopWeighting;
use proptest::prelude::*;

/// The ψ bits, delivered count and configurations of a planned window.
fn window_of(schedule: &Schedule, psi: f64, delivered: u64) -> Window {
    (configs_of(schedule), psi.to_bits(), delivered)
}

/// The complete duplex fabric on `n` nodes.
fn complete_duplex(n: u32) -> DuplexNetwork {
    DuplexNetwork::from_edges(n, (0..n).flat_map(|a| (a + 1..n).map(move |b| (a, b))))
        .expect("complete duplex fabric")
}

/// One window of the public engine: the `octopus*` entry point that plans
/// this combination, or else [`ScheduleEngine::plan_window`] on the fabric.
/// The entry points break ties toward the smaller α, except
/// `octopus_local`, which searches exhaustively toward the larger.
fn engine_window(
    inst: &Instance,
    weighting: HopWeighting,
    fabric: FabricKind,
    policy: &SearchPolicy,
) -> Window {
    let (n, load, delta) = (inst.n, &inst.load, inst.delta);
    let cfg = |matching| OctopusConfig {
        window: inst.window,
        delta,
        weighting,
        alpha_search: policy.search,
        matching,
        ..OctopusConfig::default()
    };
    let (net, duplex) = (topology::complete(n), complete_duplex(n));
    let larger = policy.prefer_larger_alpha;
    let entry = match fabric {
        FabricKind::Bipartite(kind) if !larger => octopus(&net, load, &cfg(kind)),
        FabricKind::KPort(kind, r) if !larger => octopus_kport(&net, load, &cfg(kind), r),
        FabricKind::Duplex(matcher) if !larger => {
            octopus_duplex_with(&duplex, load, &cfg(MatchingKind::Exact), matcher)
        }
        FabricKind::Local(kind) if larger && policy.search == AlphaSearch::Exhaustive => {
            octopus_local(&net, load, &cfg(kind))
        }
        _ => {
            let mut fabric: Box<dyn Fabric + '_> = match fabric {
                FabricKind::Bipartite(kind) => Box::new(BipartiteFabric { kind }),
                FabricKind::Local(kind) => Box::new(LocalFabric {
                    kind,
                    delta,
                    prev: Default::default(),
                }),
                FabricKind::KPort(kind, r) => Box::new(KPortFabric { kind, r }),
                FabricKind::Duplex(matcher) => Box::new(DuplexFabric {
                    net: &duplex,
                    matcher,
                    scale: duplex_scale(load, weighting),
                }),
            };
            let tr = RemainingTraffic::new(load, weighting).expect("single-route load");
            let mut engine = ScheduleEngine::new(tr, n, delta);
            let run = engine
                .plan_window(&mut *fabric, policy, inst.window)
                .expect("realizable plan");
            let tr = engine.into_source();
            return window_of(&run.schedule, tr.planned_psi(), tr.planned_delivered());
        }
    }
    .expect("valid window");
    window_of(&entry.schedule, entry.planned_psi, entry.planned_delivered)
}

/// Plans `inst`'s window on the spec and on the public engine under every
/// combination of hop weighting (Octopus, and Octopus-e with `eps`),
/// fabric, kernel kind, search and α tie preference, and requires the
/// same window.
fn check_every_combination(inst: &Instance, eps: f64) {
    let scale = weight_scale(inst.load.max_route_hops().max(1));
    let kinds = [
        MatchingKind::Exact,
        MatchingKind::GreedySort,
        MatchingKind::BucketGreedy { scale },
    ];
    let fabrics = kinds
        .into_iter()
        .flat_map(|k| {
            let r = |r| FabricKind::KPort(k, r);
            [FabricKind::Bipartite(k), FabricKind::Local(k), r(1), r(2)]
        })
        .chain(
            [GeneralMatcherKind::ExactBlossom, GeneralMatcherKind::Greedy].map(FabricKind::Duplex),
        );
    for fabric in fabrics {
        for weighting in [HopWeighting::Uniform, HopWeighting::EpsilonLater { eps }] {
            for policy in policies() {
                let spec = Spec::of_load(inst.n, inst.delta, &inst.load, weighting, fabric);
                let want = spec.plan(&policy, inst.window);
                let got = engine_window(inst, weighting, fabric, &policy);
                assert_eq!(got, want, "{fabric:?}, {policy:?}, {weighting:?}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The engine plans every window exactly as the spec does.
    #[test]
    fn engine_plans_every_window_as_the_spec_does(
        inst in instance_in(4..9, 1..12),
        eps in 0.01f64..0.5,
    ) {
        check_every_combination(&inst, eps);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// [`engine_plans_every_window_as_the_spec_does`] at n = 12–24 with up
    /// to 47 flows, where many candidates survive the engine's eager bounds
    /// and its best-first order decides which get solved. Release-only (CI
    /// runs it).
    #[test]
    #[ignore = "release-mode spec at n = 12-24"]
    fn engine_plans_every_window_as_the_spec_does_at_larger_sizes(
        inst in instance_in(12..25, 12..48),
        eps in 0.01f64..0.5,
    ) {
        check_every_combination(&inst, eps);
    }
}
