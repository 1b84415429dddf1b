//! Allocation + wall-clock comparison of the two α-search matching paths:
//!
//! * **legacy** — what every iteration did before the batched sweep: one
//!   `weighted_edges(α)` edge list, one [`WeightedBipartiteGraph`], and one
//!   `maximum_weight_matching` (internally a fresh solver) *per candidate α*.
//! * **batched** — one [`LinkQueues::weighted_edges_multi`] sweep per
//!   iteration plus an [`AssignmentSolver`] that loads the topology once and
//!   re-solves each α's weight column in place.
//!
//! Both paths are asserted to produce bit-identical matchings before any
//! timing happens. Run with `--out <path>` to write the JSON baseline
//! (`BENCH_matching.json` at the workspace root); numbers are single-threaded.
//!
//! Two further arms ride in the same report:
//!
//! * **auction** — the ε-scaling auction kernel vs the Hungarian solver on
//!   dense random integer weight columns at n ∈ {32..512}, both solving the
//!   same pre-loaded topology in place. The optimality gap is asserted to be
//!   exactly zero before timing (integer weights are within the auction's
//!   adaptive resolution, so it certifies exactness).
//! * **grid_steal** — the work-stealing α-search executor
//!   (`rayon::steal::map_reduce_filtered` over the candidate grid) vs the sequential
//!   sweep, on the same synthetic instances as the legacy/batched arm, with
//!   the winning `BestChoice` asserted bit-identical first.

use octopus_bench::runners::synthetic_instance;
use octopus_bench::Env;
use octopus_core::{
    AlphaSearch, BipartiteFabric, CandidateExtension, ExactKernel, HopWeighting, LinkQueues,
    MatchingKind, RemainingTraffic, ScheduleEngine, SearchPolicy,
};
use octopus_matching::{
    matching_weight, maximum_weight_matching, AssignmentSolver, AuctionSolver,
    WeightedBipartiteGraph,
};
use serde::Serialize;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// System allocator wrapped with allocation counters, so the two α-search
/// paths can be compared on exactly the metric the issue targets: heap
/// allocations per scheduling iteration.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: defers entirely to `System`; the counters are lock-free atomics.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn counters() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    )
}

/// Counters for one path of one case, as serialized into the JSON baseline.
#[derive(Serialize)]
struct PathStats {
    allocs: u64,
    bytes: u64,
    nanos: u64,
}

/// One `n` row of the JSON baseline.
#[derive(Serialize)]
struct Case {
    n: u32,
    candidates: usize,
    legacy: PathStats,
    batched: PathStats,
    alloc_ratio: f64,
    speedup: f64,
}

/// One `n` row of the auction-vs-Hungarian arm.
#[derive(Serialize)]
struct AuctionCase {
    n: u32,
    edges: usize,
    reps: usize,
    hungarian_nanos: u64,
    auction_nanos: u64,
    /// Hungarian time / auction time (>1 means the auction is faster).
    speedup_auction_over_hungarian: f64,
    /// Asserted to be exactly 0.0 before timing.
    optimality_gap: f64,
    auction_phases: usize,
    auction_rounds: usize,
}

/// One `n` row of the work-stealing α-search arm.
#[derive(Serialize)]
struct GridStealCase {
    n: u32,
    candidates: usize,
    sequential_nanos: u64,
    stolen_nanos: u64,
    /// Sequential time / stolen time (>1 means stealing is faster).
    speedup: f64,
    /// Pool size the stolen arm ran with (this baseline: 1 core).
    workers: usize,
}

/// The whole JSON baseline (`BENCH_matching.json`).
#[derive(Serialize)]
struct Report {
    bench: &'static str,
    kernel: &'static str,
    threads: u32,
    reps: usize,
    metric: &'static str,
    cases: Vec<Case>,
    auction: Vec<AuctionCase>,
    grid_steal: Vec<GridStealCase>,
}

/// One measured run: matchings produced per candidate α, with counters and
/// wall clock around the whole candidate loop.
struct Measured {
    matchings: Vec<Vec<(u32, u32)>>,
    benefits: Vec<f64>,
    allocs: u64,
    bytes: u64,
    nanos: u128,
}

/// The pre-PR path: a fresh edge list, graph, and solver for every α.
fn run_legacy(queues: &LinkQueues, candidates: &[u64]) -> Measured {
    let (a0, b0) = counters();
    let start = Instant::now();
    let mut matchings = Vec::with_capacity(candidates.len());
    let mut benefits = Vec::with_capacity(candidates.len());
    for &alpha in candidates {
        let g = WeightedBipartiteGraph::from_tuples(
            queues.n(),
            queues.n(),
            queues.weighted_edges(alpha),
        );
        let m = maximum_weight_matching(&g);
        benefits.push(matching_weight(&g, &m));
        matchings.push(m);
    }
    let nanos = start.elapsed().as_nanos();
    let (a1, b1) = counters();
    Measured {
        matchings,
        benefits,
        allocs: a1 - a0,
        bytes: b1 - b0,
        nanos,
    }
}

/// The batched path: one multi-α sweep, one topology load, in-place
/// re-solves. The `to_vec` per α stays — the schedule keeps every matching —
/// so the comparison charges both paths for their outputs.
fn run_batched(queues: &LinkQueues, candidates: &[u64], solver: &mut AssignmentSolver) -> Measured {
    let (a0, b0) = counters();
    let start = Instant::now();
    let sweep = queues.weighted_edges_multi(candidates);
    solver.load_topology(sweep.n(), sweep.n(), sweep.edges());
    let mut matchings = Vec::with_capacity(candidates.len());
    let mut benefits = Vec::with_capacity(candidates.len());
    for k in 0..candidates.len() {
        solver.solve_reweighted(sweep.column(k));
        matchings.push(solver.matching().to_vec());
        benefits.push(solver.last_weight());
    }
    let nanos = start.elapsed().as_nanos();
    let (a1, b1) = counters();
    Measured {
        matchings,
        benefits,
        allocs: a1 - a0,
        bytes: b1 - b0,
        nanos,
    }
}

/// xorshift64* — deterministic weight columns without an RNG dependency.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

/// Auction-vs-Hungarian arm: dense random integer columns on an `n×n`
/// topology loaded once per kernel, re-solved in place per rep (the engine's
/// steady state). Asserts a zero optimality gap on every column, then keeps
/// the fastest rep per kernel.
fn run_auction_cases() -> Vec<AuctionCase> {
    let mut out = Vec::new();
    for n in [32u32, 64, 128, 256, 512] {
        // Fewer reps at large n: the n = 512 auction run is tens of ms.
        let reps = match n {
            512 => 3,
            256 => 5,
            _ => 10,
        };
        let edges: Vec<(u32, u32)> = (0..n).flat_map(|u| (0..n).map(move |v| (u, v))).collect();
        let mut rng = XorShift(0x9E37_79B9 ^ u64::from(n));
        let cols: Vec<Vec<f64>> = (0..reps + 1)
            .map(|_| {
                edges
                    .iter()
                    .map(|_| {
                        // ~10% disabled edges (w = 0), the rest 1..=4000.
                        let r = rng.next();
                        if r % 10 == 0 {
                            0.0
                        } else {
                            (1 + r % 4000) as f64
                        }
                    })
                    .collect()
            })
            .collect();

        let mut hungarian = AssignmentSolver::new();
        let mut auction = AuctionSolver::new();
        hungarian.load_topology(n, n, &edges);
        auction.load_topology(n, n, &edges);

        let mut best_h = u64::MAX;
        let mut best_a = u64::MAX;
        let mut phases = 0;
        let mut rounds = 0;
        for (i, col) in cols.iter().enumerate() {
            let t = Instant::now();
            hungarian.solve_reweighted(col);
            let h_nanos = t.elapsed().as_nanos() as u64;
            let t = Instant::now();
            auction.solve_reweighted(col);
            let a_nanos = t.elapsed().as_nanos() as u64;
            let gap = hungarian.last_weight() - auction.last_weight();
            assert_eq!(gap, 0.0, "optimality gap at n = {n}, column {i}");
            if i == 0 {
                continue; // warmup: first solve sizes both workspaces
            }
            best_h = best_h.min(h_nanos);
            best_a = best_a.min(a_nanos);
            phases = auction.last_phases();
            rounds = auction.last_rounds();
        }

        let speedup = best_h as f64 / best_a.max(1) as f64;
        println!(
            "auction n={n:4}  hungarian {best_h:9} ns   auction {best_a:9} ns   x{speedup:.2}  ({phases} phases, {rounds} rounds)",
        );
        out.push(AuctionCase {
            n,
            edges: edges.len(),
            reps,
            hungarian_nanos: best_h,
            auction_nanos: best_a,
            speedup_auction_over_hungarian: speedup,
            optimality_gap: 0.0,
            auction_phases: phases,
            auction_rounds: rounds,
        });
    }
    out
}

/// Work-stealing arm: one `select` per policy on the same synthetic
/// instances as the legacy/batched arm, winners asserted bit-identical.
fn run_grid_steal_cases(reps: usize) -> Vec<GridStealCase> {
    let fabric = BipartiteFabric {
        kind: MatchingKind::Exact,
    };
    let mut out = Vec::new();
    for n in [32u32, 64, 128] {
        let env = Env {
            n,
            window: 10_000,
            delta: 20,
            instances: 1,
            seed: 11,
        };
        let inst = synthetic_instance(&env, 0, |c| c);
        let sequential = SearchPolicy {
            search: AlphaSearch::Exhaustive,
            parallel: false,
            prefer_larger_alpha: false,
            kernel: ExactKernel::Hungarian,
        };
        let stolen = SearchPolicy {
            parallel: true,
            ..sequential
        };
        let run = |policy: &SearchPolicy| {
            let mut tr = RemainingTraffic::new(&inst.load, HopWeighting::Uniform).unwrap();
            let mut engine = ScheduleEngine::new(&mut tr, n, env.delta);
            let t = Instant::now();
            let choice = engine
                .select(
                    &fabric,
                    env.window - env.delta,
                    CandidateExtension::None,
                    policy,
                )
                .expect("non-empty load has a configuration");
            (t.elapsed().as_nanos() as u64, choice)
        };

        // Winner fields must agree bit-for-bit; `matchings_computed` is
        // allowed to differ: both executors prune against a score bound, but
        // the stolen grid's cut depends on the order workers claim
        // candidates, so it may evaluate more (or fewer) than the strictly
        // ordered sequential sweep.
        let (_, seq_choice) = run(&sequential);
        let (_, stolen_choice) = run(&stolen);
        assert_eq!(
            (&seq_choice.matching, seq_choice.alpha),
            (&stolen_choice.matching, stolen_choice.alpha),
            "executors diverged at n = {n}"
        );
        assert_eq!(
            (seq_choice.benefit.to_bits(), seq_choice.score.to_bits()),
            (
                stolen_choice.benefit.to_bits(),
                stolen_choice.score.to_bits()
            ),
        );
        let candidates = stolen_choice.matchings_computed;

        let mut best_seq = u64::MAX;
        let mut best_stolen = u64::MAX;
        for _ in 0..reps {
            best_seq = best_seq.min(run(&sequential).0);
            best_stolen = best_stolen.min(run(&stolen).0);
        }
        let speedup = best_seq as f64 / best_stolen.max(1) as f64;
        let workers = rayon::current_num_threads();
        println!(
            "steal   n={n:4}  sequential {best_seq:9} ns   stolen {best_stolen:9} ns   x{speedup:.2}  ({workers} worker(s))",
        );
        out.push(GridStealCase {
            n,
            candidates,
            sequential_nanos: best_seq,
            stolen_nanos: best_stolen,
            speedup,
            workers,
        });
    }
    out
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

    const REPS: usize = 20;
    let mut cases = Vec::new();
    for n in [32u32, 64, 128] {
        let env = Env {
            n,
            window: 10_000,
            delta: 20,
            instances: 1,
            seed: 11,
        };
        let inst = synthetic_instance(&env, 0, |c| c);
        let tr = RemainingTraffic::new(&inst.load, HopWeighting::Uniform).unwrap();
        let queues = tr.link_queues(n);
        let candidates = queues.alpha_candidates(10_000);

        let mut solver = AssignmentSolver::new();
        // Correctness gate: identical matchings and benefits on both paths.
        let legacy = run_legacy(&queues, &candidates);
        let batched = run_batched(&queues, &candidates, &mut solver);
        assert_eq!(
            legacy.matchings, batched.matchings,
            "paths diverged at n = {n}"
        );
        assert_eq!(
            legacy
                .benefits
                .iter()
                .map(|b| b.to_bits())
                .collect::<Vec<_>>(),
            batched
                .benefits
                .iter()
                .map(|b| b.to_bits())
                .collect::<Vec<_>>(),
        );

        // Steady state: the batched path's workspace is warm (as in the
        // engine, where TLS workspaces persist across iterations); take the
        // best of REPS for both paths to damp scheduler noise.
        let mut best_legacy = legacy;
        let mut best_batched = batched;
        for _ in 0..REPS {
            let l = run_legacy(&queues, &candidates);
            if l.nanos < best_legacy.nanos {
                best_legacy = l;
            }
            let b = run_batched(&queues, &candidates, &mut solver);
            if b.nanos < best_batched.nanos {
                best_batched = b;
            }
        }

        let alloc_ratio = best_legacy.allocs as f64 / best_batched.allocs.max(1) as f64;
        let speedup = best_legacy.nanos as f64 / best_batched.nanos.max(1) as f64;
        println!(
            "n={n:4}  |A|={:3}  legacy: {:6} allocs {:9} B {:9} ns   batched: {:5} allocs {:8} B {:9} ns   alloc x{alloc_ratio:.1}  time x{speedup:.2}",
            candidates.len(),
            best_legacy.allocs,
            best_legacy.bytes,
            best_legacy.nanos,
            best_batched.allocs,
            best_batched.bytes,
            best_batched.nanos,
        );
        cases.push(Case {
            n,
            candidates: candidates.len(),
            legacy: PathStats {
                allocs: best_legacy.allocs,
                bytes: best_legacy.bytes,
                nanos: best_legacy.nanos as u64,
            },
            batched: PathStats {
                allocs: best_batched.allocs,
                bytes: best_batched.bytes,
                nanos: best_batched.nanos as u64,
            },
            alloc_ratio,
            speedup,
        });
    }

    let auction = run_auction_cases();
    let grid_steal = run_grid_steal_cases(REPS);

    let report = Report {
        bench: "alpha_search_matching_paths",
        kernel: "exact_hungarian",
        threads: 1,
        reps: REPS,
        metric: "min_over_reps",
        cases,
        auction,
        grid_steal,
    };
    let text = serde_json::to_string_pretty(&report).expect("serializable report");
    match out_path {
        Some(p) => std::fs::write(&p, text + "\n").expect("write report"),
        None => println!("{text}"),
    }
}
