//! Cold vs exact-hit vs warm-start cost of the window-fingerprint schedule
//! cache (`octopus_core::memo`).
//!
//! Plans the same deterministic multihop backlog three ways on a complete
//! fabric:
//!
//! * **cold** — cache disabled, the full α × candidate grid every window;
//! * **exact hit** — a cache primed with the identical window, replaying
//!   the recorded schedule (zero matchings solved);
//! * **warm start** — a cache primed with the *unperturbed* window planning
//!   a slightly perturbed twin: the cached α floors the pruning cut and the
//!   harvested duals tighten every candidate bound, but the full search
//!   still runs (that's what keeps the output bit-identical), so the gain
//!   here is pruning work, not skipped windows.
//!
//! Every variant's emitted schedule is asserted bit-identical to its own
//! cold plan before any timing is trusted. Timings are best-of-`REPS`
//! single-threaded runs. Run with `--out <path>` to write
//! `BENCH_cache.json` at the workspace root.

use octopus_core::{
    plan_window_cached, AlphaSearch, BipartiteFabric, CacheConfig, CacheOutcome, ExactKernel,
    HopWeighting, MatchingKind, RemainingTraffic, ScheduleCache, ScheduleEngine, SearchPolicy,
};
use octopus_traffic::{Flow, FlowId, Route, TrafficLoad};
use serde::Serialize;
use std::time::Instant;

const N: u32 = 48;
const FLOWS: usize = 400;
const WINDOW: u64 = 4_000;
const DELTA: u64 = 20;
const REPS: usize = 5;

/// One timed arm of the report.
#[derive(Serialize)]
struct Arm {
    label: &'static str,
    best_us: u64,
    speedup_vs_cold: f64,
    matchings_computed: usize,
}

/// The whole JSON baseline (`BENCH_cache.json`).
#[derive(Serialize)]
struct Report {
    bench: &'static str,
    n: u32,
    flows: usize,
    window: u64,
    delta: u64,
    policy: &'static str,
    reps: usize,
    configs_per_window: usize,
    arms: Vec<Arm>,
}

/// Deterministic xorshift64* (same generator as the serve bench).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }
}

/// A deterministic multihop load; `perturb` bumps every 7th flow by one
/// packet (content hash moves, features stay within the near distance).
fn load(perturb: bool) -> TrafficLoad {
    let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
    let mut flows = Vec::with_capacity(FLOWS);
    for id in 0..FLOWS as u64 {
        let hops = 1 + rng.below(3) as usize;
        let mut nodes = vec![rng.below(u64::from(N)) as u32];
        while nodes.len() < hops + 1 {
            let next = rng.below(u64::from(N)) as u32;
            if !nodes.contains(&next) {
                nodes.push(next);
            }
        }
        let size = 1 + rng.below(64) + u64::from(perturb && id % 7 == 0);
        let route = Route::from_ids(nodes).expect("loop-free by construction");
        flows.push(Flow::single(FlowId(id), size, route));
    }
    TrafficLoad::new(flows).expect("sequential ids")
}

type PlanShape = Vec<(Vec<(u32, u32)>, u64)>;

/// Plans one full window through `cache`; returns the configs, the lookup
/// outcome, and the elapsed wall-clock.
fn plan_once(
    traffic: &TrafficLoad,
    policy: &SearchPolicy,
    cache: &mut ScheduleCache,
) -> (PlanShape, CacheOutcome, u64, usize) {
    let mut tr = RemainingTraffic::new(traffic, HopWeighting::Uniform).expect("validated load");
    let mut fabric = BipartiteFabric {
        kind: MatchingKind::Exact,
    };
    let mut engine = ScheduleEngine::new(&mut tr, N, DELTA);
    let start = Instant::now();
    let plan = plan_window_cached(&mut engine, &mut fabric, policy, WINDOW, cache, 0)
        .expect("realizable plan");
    let us = start.elapsed().as_micros() as u64;
    (plan.configs, plan.outcome, us, plan.matchings_computed)
}

/// Best-of-`REPS` timing of one arm under a per-rep fresh or shared cache.
fn best_of<F: FnMut() -> (PlanShape, CacheOutcome, u64, usize)>(
    mut f: F,
) -> (PlanShape, u64, usize) {
    let mut best = u64::MAX;
    let mut shape = Vec::new();
    let mut matchings = 0usize;
    for _ in 0..REPS {
        let (s, _, us, m) = f();
        best = best.min(us);
        shape = s;
        matchings = m;
    }
    (shape, best, matchings)
}

fn main() {
    let out_path = {
        let mut args = std::env::args().skip(1);
        let mut out = None;
        while let Some(a) = args.next() {
            match a.as_str() {
                "--out" => out = args.next(),
                other => {
                    eprintln!("unknown argument: {other} (expected --out <path>)");
                    std::process::exit(2);
                }
            }
        }
        out
    };

    let policy = SearchPolicy {
        search: AlphaSearch::Exhaustive,
        parallel: false,
        prefer_larger_alpha: false,
        kernel: ExactKernel::Hungarian,
    };
    let base = load(false);
    let twin = load(true);
    let wide = CacheConfig {
        quantum: 1,
        near_distance: 1 << 40,
        ..CacheConfig::default()
    };

    // Cold reference (cache disabled end to end).
    let mut off = ScheduleCache::new(CacheConfig::disabled());
    let (cold_shape, cold_us, cold_matchings) = best_of(|| plan_once(&base, &policy, &mut off));

    // Exact hit: prime once (miss, records + harvests), then replay.
    let mut cache = ScheduleCache::new(wide);
    let (_, outcome, _, _) = plan_once(&base, &policy, &mut cache);
    assert_eq!(outcome, CacheOutcome::Miss);
    let (hit_shape, hit_us, hit_matchings) = best_of(|| {
        let r = plan_once(&base, &policy, &mut cache);
        assert_eq!(r.1, CacheOutcome::ExactHit, "primed window must replay");
        r
    });
    assert_eq!(
        hit_shape, cold_shape,
        "replay must be bit-identical to cold"
    );

    // Warm start on the perturbed twin vs its own cold plan.
    let mut off_twin = ScheduleCache::new(CacheConfig::disabled());
    let (twin_cold_shape, twin_cold_us, twin_cold_matchings) =
        best_of(|| plan_once(&twin, &policy, &mut off_twin));
    let (warm_shape, warm_us, warm_matchings) = best_of(|| {
        // Fresh cache primed with the *base* window each rep: every timed
        // plan is a genuine near-hit warm-start, never an exact replay.
        let mut c = ScheduleCache::new(wide);
        let (_, primed, _, _) = plan_once(&base, &policy, &mut c);
        assert_eq!(primed, CacheOutcome::Miss);
        let r = plan_once(&twin, &policy, &mut c);
        assert!(
            matches!(r.1, CacheOutcome::NearHit(_)),
            "perturbed twin must near-hit, got {:?}",
            r.1
        );
        r
    });
    assert_eq!(
        warm_shape, twin_cold_shape,
        "warm-started plan must be bit-identical to the twin's cold plan"
    );

    let speedup = |us: u64, cold: u64| cold as f64 / us.max(1) as f64;
    let exact_speedup = speedup(hit_us, cold_us);
    let warm_speedup = speedup(warm_us, twin_cold_us);

    println!("cold       {cold_us:>8} us  {cold_matchings:>6} matchings  (reference)");
    println!("exact hit  {hit_us:>8} us  {hit_matchings:>6} matchings  ({exact_speedup:.1}x)");
    println!(
        "twin cold  {twin_cold_us:>8} us  {twin_cold_matchings:>6} matchings  (reference for warm)"
    );
    println!("warm start {warm_us:>8} us  {warm_matchings:>6} matchings  ({warm_speedup:.2}x vs twin cold)");
    assert_eq!(hit_matchings, 0, "an exact hit must not solve any matching");
    assert!(
        warm_matchings <= twin_cold_matchings,
        "warm seeds may only prune solver work, never add it: {warm_matchings} > {twin_cold_matchings}"
    );
    assert!(
        exact_speedup >= 5.0,
        "exact-hit replay must be >= 5x faster than cold, got {exact_speedup:.1}x"
    );

    let report = Report {
        bench: "schedule_cache",
        n: N,
        flows: FLOWS,
        window: WINDOW,
        delta: DELTA,
        policy: "exhaustive/hungarian/sequential",
        reps: REPS,
        configs_per_window: cold_shape.len(),
        arms: vec![
            Arm {
                label: "cold",
                best_us: cold_us,
                speedup_vs_cold: 1.0,
                matchings_computed: cold_matchings,
            },
            Arm {
                label: "exact_hit",
                best_us: hit_us,
                speedup_vs_cold: exact_speedup,
                matchings_computed: hit_matchings,
            },
            Arm {
                label: "twin_cold",
                best_us: twin_cold_us,
                speedup_vs_cold: 1.0,
                matchings_computed: twin_cold_matchings,
            },
            Arm {
                label: "warm_start",
                best_us: warm_us,
                speedup_vs_cold: warm_speedup,
                matchings_computed: warm_matchings,
            },
        ],
    };
    let text = serde_json::to_string_pretty(&report).expect("serializable report");
    match out_path {
        Some(p) => std::fs::write(&p, text + "\n").expect("write report"),
        None => println!("{text}"),
    }
}
