//! Criterion benchmark of one full Octopus iteration (the Fig 10(a)
//! quantity): building the link queues and selecting the best configuration,
//! with the exact kernel vs the Octopus-G bucket greedy and the Octopus-B
//! ternary α-search. `early_select` times the first select of a daemon-sized
//! window alone, where a re-plan spends most of its select time.

// Bench harness boilerplate: criterion's closure-heavy style trips the
// workspace pedantic set, and `criterion_group!` expands to undocumented
// items. Benches are not library surface, so relax those lints here.
#![expect(clippy::semicolon_if_nothing_returned, missing_docs)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use octopus_bench::runners::synthetic_instance;
use octopus_bench::Env;
use octopus_core::engine::{BipartiteFabric, CandidateExtension, ScheduleEngine};
use octopus_core::{
    best_configuration, AlphaSearch, HopWeighting, MatchingKind, OctopusConfig, RemainingTraffic,
};
use octopus_traffic::{Flow, FlowId, Route, TrafficLoad};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn bench_iteration(c: &mut Criterion) {
    let mut group = c.benchmark_group("octopus_iteration");
    for n in [100u32, 300, 600] {
        let env = Env {
            n,
            window: 10_000,
            delta: 20,
            instances: 1,
            seed: 7,
        };
        let inst = synthetic_instance(&env, 0, |c| c);
        let tr = RemainingTraffic::new(&inst.load, HopWeighting::Uniform).unwrap();
        group.bench_with_input(BenchmarkId::new("exact", n), &tr, |b, tr| {
            b.iter(|| {
                let queues = tr.link_queues(n);
                best_configuration(
                    &queues,
                    20,
                    10_000,
                    AlphaSearch::Exhaustive,
                    MatchingKind::Exact,
                    false,
                )
            })
        });
        group.bench_with_input(BenchmarkId::new("octopus_g", n), &tr, |b, tr| {
            b.iter(|| {
                let queues = tr.link_queues(n);
                best_configuration(
                    &queues,
                    20,
                    10_000,
                    AlphaSearch::Exhaustive,
                    MatchingKind::BucketGreedy { scale: 12 },
                    false,
                )
            })
        });
        group.bench_with_input(BenchmarkId::new("octopus_b", n), &tr, |b, tr| {
            b.iter(|| {
                let queues = tr.link_queues(n);
                best_configuration(
                    &queues,
                    20,
                    10_000,
                    AlphaSearch::Binary,
                    MatchingKind::Exact,
                    false,
                )
            })
        });
    }
    group.finish();
}

/// One batch of `flows` flows on a complete `n`-node fabric, each on a
/// random 1–3-hop route with 1–64 packets: the shape of one `octopus-serve`
/// periodic window.
fn serve_batch(n: u32, flows: u64, seed: u64) -> TrafficLoad {
    let mut rng = StdRng::seed_from_u64(seed);
    let flows = (0..flows)
        .map(|id| {
            let hops = rng.gen_range(1..=3);
            let mut route = vec![rng.gen_range(0..n)];
            while route.len() <= hops {
                let next = rng.gen_range(0..n);
                if !route.contains(&next) {
                    route.push(next);
                }
            }
            let size = rng.gen_range(1..=64);
            Flow::single(FlowId(id), size, Route::from_ids(route).unwrap())
        })
        .collect();
    TrafficLoad::new(flows).unwrap()
}

/// The first select of a complete n = 64 window of 256 flows (horizon
/// 10 000, Δ = 20, the daemon's defaults): every select of a window's
/// first few has the most candidates and edges, so this is where a
/// re-plan's select time goes. The snapshot is built before timing, so
/// each iteration is the select alone: candidates, sweep, eager bounds,
/// columns, lazy bounds and solves.
fn bench_early_select(c: &mut Criterion) {
    let mut group = c.benchmark_group("early_select");
    let (n, window) = (64u32, 10_000u64);
    let cfg = OctopusConfig::default();
    let fabric = BipartiteFabric { kind: cfg.matching };
    let policy = cfg.search_policy();
    for seed in [1u64, 2] {
        let load = serve_batch(n, 256, seed);
        let mut tr = RemainingTraffic::new(&load, cfg.weighting).unwrap();
        let mut engine = ScheduleEngine::new(&mut tr, n, cfg.delta);
        engine.queues();
        let budget = window - cfg.delta;
        group.bench_function(BenchmarkId::new("serve_n64_256_flows", seed), |b| {
            b.iter(|| engine.select(&fabric, budget, CandidateExtension::None, &policy))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_iteration, bench_early_select
}
criterion_main!(benches);
