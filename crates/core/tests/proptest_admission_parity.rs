//! Streaming-admission parity: **admit-then-solve ≡ cold rebuild**.
//!
//! PR 7 let the flat state layer grow mid-window: [`RemainingTraffic::
//! admit_subflows`] interns unseen links into the sorted key vector (with a
//! span remap of every live flow) and [`RemainingTraffic::cancel_flow`]
//! retires flows in place, while the persistent [`ScheduleEngine`] snapshot
//! is patched on exactly the dirty links. None of that may be observable:
//! after *any* interleaving of admissions, cancellations and commits, the
//! live engine must make bit-for-bit the same decisions as an engine built
//! cold from the merged sub-flows ([`RemainingTraffic::from_subflows`] on
//! [`RemainingTraffic::subflows`]).
//!
//! Following the shadow pattern of the PR 6 parity suite, every step of a
//! random op script compares the live (incrementally patched) engine's
//! [`ScheduleEngine::select`] against a cold-rebuilt one under **every**
//! [`SearchPolicy`] variant: {exhaustive, binary} ×
//! {smallest-α, largest-α tie-break}; ψ and delivered are accumulated from
//! the cold engines' per-commit gains and must match the live totals on
//! every `f64` bit.

use octopus_core::{
    AlphaSearch, BipartiteFabric, CandidateExtension, MatchingKind, RemainingTraffic,
    ScheduleEngine, SearchPolicy,
};
use octopus_traffic::{FlowId, HopWeighting, Route};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// One scripted daemon event.
#[derive(Debug, Clone)]
enum Op {
    /// Admit `size` packets of flow `id` at hop `pos` of a route.
    Admit {
        id: u64,
        nodes: Vec<u32>,
        pos: u32,
        size: u64,
    },
    /// Cancel every queued packet of flow `id` (possibly a no-op).
    Cancel { id: u64 },
    /// One greedy select + commit with slot budget `budget`.
    Commit { budget: u64 },
}

/// Strategy: a fabric size and a random interleaving of events. Raw tuples
/// are interpreted so that shrinking stays effective: `(kind, a, b, c, d)`
/// becomes an admission, cancellation or commit.
fn script() -> impl Strategy<Value = (u32, Vec<Op>)> {
    (4u32..9)
        .prop_flat_map(|n| {
            let raw = prop::collection::vec((0u32..10, 0u32..n, 0u32..n, 0u32..n, 1u64..60), 1..16);
            (Just(n), raw)
        })
        .prop_map(|(n, raw)| {
            let ops = raw
                .into_iter()
                .filter_map(|(kind, a, b, c, size)| match kind {
                    // Admissions dominate the mix so scripts build real load.
                    0..=5 => {
                        let (src, dst, via) = (a, b, c);
                        if src == dst {
                            return None;
                        }
                        let mut nodes = vec![src];
                        if via != src && via != dst && kind % 2 == 0 {
                            nodes.push(via);
                        }
                        nodes.push(dst);
                        let hops = nodes.len() as u32 - 1;
                        Some(Op::Admit {
                            // Few distinct ids, so reuse (top-up + merge
                            // into existing rows) happens often.
                            id: u64::from(a % 5),
                            nodes,
                            pos: c % hops,
                            size,
                        })
                    }
                    6 => Some(Op::Cancel {
                        id: u64::from(a % 5),
                    }),
                    _ => Some(Op::Commit {
                        budget: 20 + size * 4,
                    }),
                })
                .collect();
            (n, ops)
        })
}

/// Every `SearchPolicy` variant.
fn all_policies() -> Vec<SearchPolicy> {
    let mut out = Vec::new();
    for search in [AlphaSearch::Exhaustive, AlphaSearch::Binary] {
        for prefer_larger_alpha in [false, true] {
            out.push(SearchPolicy {
                search,
                prefer_larger_alpha,
                ..SearchPolicy::exhaustive()
            });
        }
    }
    out
}

/// Replays one script on a persistent engine, checking the live state
/// against a cold rebuild after every op.
fn assert_script_parity(n: u32, ops: &[Op], policy: &SearchPolicy) -> Result<(), TestCaseError> {
    const DELTA: u64 = 5;
    let fabric = BipartiteFabric {
        kind: MatchingKind::Exact,
    };
    let live = RemainingTraffic::from_subflows(std::iter::empty(), HopWeighting::Uniform);
    let mut engine = ScheduleEngine::new(live, n, DELTA);
    // ψ/delivered accumulated from the cold engines' per-commit gains, in
    // the same order the live plan accumulates them.
    let mut acc_psi = 0.0f64;
    let mut acc_delivered = 0u64;

    for (step, op) in ops.iter().enumerate() {
        match op {
            Op::Admit {
                id,
                nodes,
                pos,
                size,
            } => {
                let route = Route::from_ids(nodes.iter().copied()).expect("generated route");
                let dirty = engine
                    .source_mut()
                    .admit_subflows([(FlowId(*id), route, *pos, *size)])
                    .expect("generated position is within the route");
                engine.patch_links(&dirty);
            }
            Op::Cancel { id } => {
                let (_, dirty) = engine.source_mut().cancel_flow(FlowId(*id));
                engine.patch_links(&dirty);
            }
            Op::Commit { budget } => {
                let cold_tr = RemainingTraffic::from_subflows(
                    engine.source().subflows(),
                    HopWeighting::Uniform,
                );
                let mut cold = ScheduleEngine::new(cold_tr, n, DELTA);
                let ca = engine.select(&fabric, *budget, CandidateExtension::None, policy);
                let cb = cold.select(&fabric, *budget, CandidateExtension::None, policy);
                prop_assert_eq!(
                    &ca,
                    &cb,
                    "selection diverged at step {} under {:?}",
                    step,
                    policy
                );
                if let Some(choice) = ca {
                    engine
                        .commit(&fabric, &choice.matching, choice.alpha)
                        .unwrap();
                    cold.commit(&fabric, &choice.matching, choice.alpha)
                        .unwrap();
                    acc_psi += cold.source().planned_psi();
                    acc_delivered += cold.source().planned_delivered();
                }
            }
        }
        // The live totals must track the cold-accumulated ones bit-exactly
        // after *every* op, not just at the end.
        let tr = engine.source();
        prop_assert_eq!(tr.planned_delivered(), acc_delivered, "step {}", step);
        prop_assert_eq!(
            tr.planned_psi().to_bits(),
            acc_psi.to_bits(),
            "psi diverged at step {} under {:?}",
            step,
            policy
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn streamed_admissions_match_cold_rebuild_all_policies((n, ops) in script()) {
        for policy in all_policies() {
            assert_script_parity(n, &ops, &policy)?;
        }
    }
}
