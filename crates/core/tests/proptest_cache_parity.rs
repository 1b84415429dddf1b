//! The exact-replay schedule cache against the executable spec.
//!
//! Whether a window misses (planned and recorded) or hits (replayed
//! without a solve), its schedule, delivered count and ψ bits must be the
//! window of the spec's model (`tests/spec/model.rs` in the root package),
//! under every `SearchPolicy`. The twin leg plans a load, then a twin with
//! the same queues and interned links whose packets go elsewhere after the
//! first hop: the twin must get its own window, not the load's replay.

#[allow(dead_code, reason = "this suite plans offline windows only")]
#[path = "../../../tests/spec/model.rs"]
mod model;

use model::{instance_in, policies, FabricKind, Instance, Spec, Window};
use octopus_core::{
    plan_window_cached, BipartiteFabric, CacheOutcome, HopWeighting, MatchingKind,
    RemainingTraffic, ScheduleCache, ScheduleEngine, SearchPolicy,
};
use octopus_traffic::{Flow, FlowId, Route, TrafficLoad};
use proptest::prelude::*;

const EXACT: MatchingKind = MatchingKind::Exact;

/// A random window (`model::instance_in`) and a twin. Both end with two
/// flows of different sizes, `s → m → c` then `s → m → d` in the load and
/// `s → m → d` then `s → m → c` in the twin: the sizes in flow-ID order,
/// the queue on `(s, m)` (one weight class) and the set of links are
/// unchanged, the traffic bound for `c` and `d` is not.
fn twins_in(
    nodes: std::ops::Range<u32>,
    flows: std::ops::Range<usize>,
) -> impl Strategy<Value = (Instance, TrafficLoad)> {
    let pair = (0u32..16, 1u64..60, 1u64..30);
    (instance_in(nodes, flows), pair).prop_map(|(mut inst, (shift, x, dx))| {
        let node = |k: u32| (k + shift) % inst.n;
        let to = |last| Route::from_ids([node(0), node(1), node(last)]).expect("distinct nodes");
        let next = inst.load.len() as u64;
        let with = |(first, second)| {
            let mut flows = inst.load.flows().to_vec();
            flows.push(Flow::single(FlowId(next), x, to(first)));
            flows.push(Flow::single(FlowId(next + 1), x + dx, to(second)));
            TrafficLoad::new(flows).expect("sequential ids")
        };
        let twin = with((3, 2));
        inst.load = with((2, 3));
        (inst, twin)
    })
}

/// Plans one full window of `load` through `cache`: the emitted window
/// and the lookup outcome.
fn run_cached(
    inst: &Instance,
    load: &TrafficLoad,
    policy: &SearchPolicy,
    cache: &mut ScheduleCache,
) -> (Window, CacheOutcome) {
    let tr = RemainingTraffic::new(load, HopWeighting::Uniform).expect("validated load");
    let mut fabric = BipartiteFabric { kind: EXACT };
    let mut engine = ScheduleEngine::new(tr, inst.n, inst.delta);
    let plan = plan_window_cached(&mut engine, &mut fabric, policy, inst.window, cache)
        .expect("realizable plan");
    let (psi, delivered) = (
        engine.source().planned_psi(),
        engine.source().planned_delivered(),
    );
    ((plan.configs, psi.to_bits(), delivered), plan.outcome)
}

/// Plans `first`, then `second`, through one cache under every policy:
/// `first` must miss and `second` resolve as `outcome`, and each must be
/// the spec's window.
fn cached_windows_match_spec(inst: &Instance, second: &TrafficLoad, outcome: CacheOutcome) {
    for policy in policies() {
        let mut cache = ScheduleCache::new();
        for (load, outcome) in [(&inst.load, CacheOutcome::Miss), (second, outcome)] {
            let fabric = FabricKind::Bipartite(EXACT);
            let spec = Spec::of_load(inst.n, inst.delta, load, HopWeighting::Uniform, fabric);
            let want = (spec.plan(&policy, inst.window), outcome);
            assert_eq!(
                run_cached(inst, load, &policy, &mut cache),
                want,
                "{policy:?}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn replay_is_bit_identical_to_cold((inst, _twin) in twins_in(4..9, 0..10)) {
        cached_windows_match_spec(&inst, &inst.load, CacheOutcome::ExactHit);
    }

    #[test]
    fn downstream_twin_plans_cold((inst, twin) in twins_in(4..9, 0..10)) {
        cached_windows_match_spec(&inst, &twin, CacheOutcome::Miss);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    #[ignore = "release-mode spec at n = 12-16, up to 41 flows"]
    fn replay_matches_the_spec_at_larger_sizes((inst, _twin) in twins_in(12..17, 10..40)) {
        cached_windows_match_spec(&inst, &inst.load, CacheOutcome::ExactHit);
    }

    #[test]
    #[ignore = "release-mode spec at n = 12-16, up to 41 flows"]
    fn downstream_twin_matches_the_spec_at_larger_sizes((inst, twin) in twins_in(12..17, 10..40)) {
        cached_windows_match_spec(&inst, &twin, CacheOutcome::Miss);
    }
}
