//! Criterion benchmark of one full Octopus iteration (the Fig 10(a)
//! quantity): building the link queues and selecting the best configuration,
//! with the exact kernel vs the Octopus-G bucket greedy and the Octopus-B
//! ternary α-search.

// Bench harness boilerplate: criterion's closure-heavy style trips the
// workspace pedantic set, and `criterion_group!` expands to undocumented
// items. Benches are not library surface, so relax those lints here.
#![expect(clippy::semicolon_if_nothing_returned, missing_docs)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use octopus_bench::runners::synthetic_instance;
use octopus_bench::Env;
use octopus_core::{best_configuration, AlphaSearch, HopWeighting, MatchingKind, RemainingTraffic};

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

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_iteration
}
criterion_main!(benches);
