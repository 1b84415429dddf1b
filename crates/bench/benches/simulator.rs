//! Criterion benchmark of the slot-level simulator: replaying an Octopus
//! schedule over the paper-default load (the measurement path every
//! experiment shares).

// Bench harness boilerplate: `criterion_group!` expands to undocumented
// items. Benches are not library surface, so relax that lint here.
#![expect(missing_docs)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use octopus_bench::runners::synthetic_instance;
use octopus_bench::Env;
use octopus_core::octopus;
use octopus_sim::{resolve, SimConfig, Simulator};

fn bench_simulator(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulator");
    for n in [50u32, 100] {
        let env = Env {
            n,
            window: 10_000,
            delta: 20,
            instances: 1,
            seed: 13,
        };
        let inst = synthetic_instance(&env, 0, |c| c);
        let out = octopus(&inst.net, &inst.load, &env.octopus_cfg()).unwrap();
        let sim = Simulator::new(
            Some(&inst.net),
            resolve(&inst.load).unwrap(),
            SimConfig {
                delta: 20,
                ..SimConfig::default()
            },
        )
        .unwrap();
        group.bench_with_input(
            BenchmarkId::new("replay_octopus_schedule", n),
            &(sim, out.schedule),
            |b, (sim, schedule)| b.iter(|| sim.run(schedule).unwrap()),
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_simulator
}
criterion_main!(benches);
