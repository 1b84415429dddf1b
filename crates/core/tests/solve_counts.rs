//! Nothing but the snapshot carries from one select to the next: on a fixed
//! window, the solve count repeats exactly, and equals the sum of the same
//! iterations' selects each run on a freshly built snapshot.
//!
//! Which configurations the selects pick is pinned by the executable spec
//! (`tests/spec.rs` in the root package); this test pins how much work the
//! pruned search does to find them.

use octopus_core::engine::CandidateExtension;
use octopus_core::{
    BipartiteFabric, HopWeighting, MatchingKind, RemainingTraffic, ScheduleEngine, SearchPolicy,
};
use octopus_net::topology;
use octopus_traffic::{synthetic, synthetic::SyntheticConfig, TrafficLoad};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A fixed synthetic window on a complete 24-node fabric.
fn fixed_window() -> (u32, TrafficLoad, u64, u64) {
    let (n, window, delta) = (24u32, 3_000u64, 20u64);
    let net = topology::complete(n);
    let mut rng = StdRng::seed_from_u64(7);
    let load = synthetic::generate(&SyntheticConfig::paper_default(n, window), &net, &mut rng);
    (n, load, window, delta)
}

#[test]
fn solve_counts_depend_only_on_the_snapshot() {
    let (n, load, window, delta) = fixed_window();
    let policy = SearchPolicy::exhaustive();
    let fabric = BipartiteFabric {
        kind: MatchingKind::Exact,
    };
    let solves = || {
        let tr = RemainingTraffic::new(&load, HopWeighting::Uniform).expect("valid load");
        let mut engine = ScheduleEngine::new(tr, n, delta);
        let run = engine
            .plan_window(&mut fabric.clone(), &policy, window)
            .expect("realizable plan");
        (run.matchings_computed, run.schedule)
    };
    let (first, schedule) = solves();
    let (second, _) = solves();
    assert_eq!(first, second, "solve counts must repeat exactly");

    // The same iterations, each select run on a snapshot rebuilt from
    // scratch (`invalidate` drops the patched one).
    let tr = RemainingTraffic::new(&load, HopWeighting::Uniform).expect("valid load");
    let mut engine = ScheduleEngine::new(tr, n, delta);
    let mut standalone = 0usize;
    let mut used = 0u64;
    for config in schedule.configs() {
        engine.invalidate();
        let choice = engine
            .select(
                &fabric,
                window - used - delta,
                CandidateExtension::None,
                &policy,
            )
            .expect("same window, same winner");
        assert_eq!(choice.alpha, config.alpha);
        standalone += choice.matchings_computed;
        engine
            .commit(&fabric, &choice.matching, choice.alpha)
            .expect("realizable plan");
        used += choice.alpha + delta;
    }
    assert!(
        schedule.configs().len() > 1,
        "the window needs several iterations"
    );
    assert_eq!(
        first, standalone,
        "a select's solve count must depend on its snapshot alone"
    );
}
