//! Worker-count independence of the work-stealing α-search executor.
//!
//! The parallel exhaustive search draws candidates from a shared atomic bag
//! (`rayon::steal::map_reduce_filtered`): *which* worker claims which candidate is
//! scheduler-dependent, so the executor is only correct if the winner is a
//! pure function of the candidate set. This suite pins that: for every
//! worker count (the `rayon::ThreadPoolBuilder` override — the same knob
//! `OCTOPUS_THREADS` sets, which is read once per process and therefore
//! swept via the builder here and via the env var in CI), the work-stealing
//! search must return a `BestChoice` bit-identical to the sequential search,
//! under every combination of search strategy, tie preference, and exact
//! kernel.
//!
//! The per-worker claim counts surface in [`BestChoice::worker_evals`]; the
//! suite checks their sum always accounts for every evaluated candidate
//! while the equality contract ignores them (how the work was split is
//! allowed to vary; what was chosen is not).

use octopus_core::{
    AlphaSearch, BestChoice, BipartiteFabric, CandidateExtension, ExactKernel, MatchingKind,
    RemainingTraffic, ScheduleEngine, SearchPolicy,
};
use octopus_traffic::{Flow, FlowId, HopWeighting, Route, TrafficLoad};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::sync::Mutex;

/// The worker-count override is process-global (`ThreadPoolBuilder::
/// build_global` is last-call-wins), so tests that sweep it serialize here.
static GLOBAL_KNOB: Mutex<()> = Mutex::new(());

fn set_workers(n: usize) {
    rayon::ThreadPoolBuilder::new()
        .num_threads(n)
        .build_global()
        .expect("vendored builder never fails");
}

/// Random multihop load on an `n`-node fabric (same shape as the schedule
/// parity suite): up to 3-hop routes, sizes 1..60.
fn instance() -> impl Strategy<Value = (u32, TrafficLoad, u64, u64)> {
    (4u32..9)
        .prop_flat_map(|n| {
            let flows =
                prop::collection::vec((0u32..n, 0u32..n, 1u64..60, 0u32..3u32, 0u32..n), 1..10);
            (Just(n), flows, 150u64..1200, 0u64..30)
        })
        .prop_map(|(n, raw, window, delta)| {
            let mut flows = Vec::new();
            let mut id = 0u64;
            for (src, dst, size, extra_hops, via) in raw {
                if src == dst {
                    continue;
                }
                let mut nodes = vec![src];
                if extra_hops >= 1 && via != src && via != dst {
                    nodes.push(via);
                }
                if extra_hops >= 2 {
                    let w = (via + 1) % n;
                    if w != src && w != dst && !nodes.contains(&w) {
                        nodes.push(w);
                    }
                }
                nodes.push(dst);
                if let Ok(route) = Route::from_ids(nodes) {
                    flows.push(Flow::single(FlowId(id), size, route));
                    id += 1;
                }
            }
            (
                n,
                TrafficLoad::new(flows).expect("sequential ids"),
                window,
                delta,
            )
        })
        .prop_filter(
            "need at least one flow and room for a config",
            |(_, load, w, d)| !load.is_empty() && *w > *d + 1,
        )
}

/// One `select` under `policy` on a fresh engine over `load`.
fn select_once(
    n: u32,
    load: &TrafficLoad,
    window: u64,
    delta: u64,
    policy: &SearchPolicy,
) -> Option<BestChoice> {
    let mut tr = RemainingTraffic::new(load, HopWeighting::Uniform).expect("validated load");
    let fabric = BipartiteFabric {
        kind: MatchingKind::Exact,
    };
    let mut engine = ScheduleEngine::new(&mut tr, n, delta);
    engine.select(&fabric, window - delta, CandidateExtension::None, policy)
}

/// Bit-level equality: everything `PartialEq` covers, with the floats
/// compared by representation.
fn assert_bit_identical(a: &BestChoice, b: &BestChoice, ctx: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(&a.matching, &b.matching, "matching diverged: {}", ctx);
    prop_assert_eq!(a.alpha, b.alpha, "alpha diverged: {}", ctx);
    prop_assert_eq!(
        a.benefit.to_bits(),
        b.benefit.to_bits(),
        "benefit bits diverged: {}",
        ctx
    );
    prop_assert_eq!(
        a.score.to_bits(),
        b.score.to_bits(),
        "score bits diverged: {}",
        ctx
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Sequential vs work-stealing winners at worker counts 1, 2 and 4, for
    /// all 8 (search × tie preference × kernel) policy variants.
    #[test]
    fn stolen_search_is_bit_identical_across_worker_counts(
        (n, load, window, delta) in instance()
    ) {
        let _guard = GLOBAL_KNOB.lock().expect("no poisoned tests");
        for search in [AlphaSearch::Exhaustive, AlphaSearch::Binary] {
            for prefer_larger_alpha in [false, true] {
                for kernel in [ExactKernel::Hungarian, ExactKernel::Auction] {
                    let seq = SearchPolicy {
                        search,
                        parallel: false,
                        prefer_larger_alpha,
                        kernel,
                    };
                    set_workers(1);
                    let reference = select_once(n, &load, window, delta, &seq);
                    let par = SearchPolicy { parallel: true, ..seq };
                    for workers in [1usize, 2, 4] {
                        set_workers(workers);
                        let got = select_once(n, &load, window, delta, &par);
                        let ctx = format!(
                            "search {search:?}, prefer_larger {prefer_larger_alpha}, \
                             kernel {kernel:?}, workers {workers}"
                        );
                        match (&reference, &got) {
                            (None, None) => {}
                            (Some(a), Some(b)) => {
                                assert_bit_identical(a, b, &ctx)?;
                                // The claim counts must account for every
                                // evaluated candidate (ternary memoizes, so
                                // its executed count is what the evaluations
                                // reported).
                                let claimed: u64 =
                                    b.worker_evals.iter().map(|&c| u64::from(c)).sum();
                                prop_assert_eq!(
                                    claimed,
                                    b.matchings_computed as u64,
                                    "claim counts diverged: {}",
                                    ctx
                                );
                            }
                            _ => prop_assert!(false, "presence diverged: {}", ctx),
                        }
                    }
                }
            }
        }
        set_workers(0); // restore the default for other tests in this binary
    }

    /// Whole-schedule determinism: the greedy loop driven by the stolen
    /// search commits the identical configuration sequence at every worker
    /// count (both kernels).
    #[test]
    fn stolen_schedules_are_bit_identical(
        (n, load, window, delta) in instance()
    ) {
        let _guard = GLOBAL_KNOB.lock().expect("no poisoned tests");
        for kernel in [ExactKernel::Hungarian, ExactKernel::Auction] {
            let policy = SearchPolicy {
                search: AlphaSearch::Exhaustive,
                parallel: true,
                prefer_larger_alpha: false,
                kernel,
            };
            let mut reference: Option<Vec<(u64, Vec<(u32, u32)>)>> = None;
            for workers in [1usize, 2, 4] {
                set_workers(workers);
                let mut tr =
                    RemainingTraffic::new(&load, HopWeighting::Uniform).expect("validated load");
                let fabric = BipartiteFabric { kind: MatchingKind::Exact };
                let mut engine = ScheduleEngine::new(&mut tr, n, delta);
                let mut chosen = Vec::new();
                let mut used = 0u64;
                while !engine.is_drained() && used + delta < window {
                    let budget = window - used - delta;
                    let Some(c) =
                        engine.select(&fabric, budget, CandidateExtension::None, &policy)
                    else {
                        break;
                    };
                    engine.commit(&fabric, &c.matching, c.alpha).expect("valid matching");
                    used += c.alpha + delta;
                    chosen.push((c.alpha, c.matching));
                }
                match &reference {
                    None => reference = Some(chosen),
                    Some(want) => prop_assert_eq!(
                        want,
                        &chosen,
                        "schedule diverged at {} workers (kernel {:?})",
                        workers,
                        kernel
                    ),
                }
            }
        }
        set_workers(0);
    }
}
