//! Streaming admissions against the executable spec.
//!
//! A random script of admissions, cancellations and single commits runs on
//! a persistent [`ScheduleEngine`], which admits and cancels under
//! [`ScheduleEngine::update_source`] and patches its snapshot on the dirty
//! links, and on the spec's model (`tests/spec/model.rs` in the root
//! package). Under every [`SearchPolicy`], every commit must select the
//! spec's configuration, and after every op the removed count, backlog,
//! delivered count and ψ bits must match.

#[allow(dead_code, reason = "this suite drives the bipartite streams only")]
#[path = "../../../tests/spec/model.rs"]
mod model;

use model::{policies, sorted, FabricKind, Spec};
use octopus_core::{
    BipartiteFabric, CandidateExtension, MatchingKind, RemainingTraffic, ScheduleEngine,
    SearchPolicy,
};
use octopus_traffic::{FlowId, HopWeighting, Route};
use proptest::prelude::*;

/// One scripted daemon event.
#[derive(Debug, Clone)]
enum Op {
    /// Admit packets `(flow id, route, position, count)`.
    Admit(FlowId, Route, u32, u64),
    /// Cancel every queued packet of a flow ID (possibly a no-op).
    Cancel(FlowId),
    /// One select + commit within a slot budget.
    Commit(u64),
}

/// Strategy: a fabric size and `ops` random events. Two-hop routes start
/// on one of four links, `{0, 1} → {2, 3}`, IDs are few, and one ID often
/// arrives on two of them at once, so it waits on one link on two routes of
/// equal weight.
fn script_in(
    nodes: std::ops::Range<u32>,
    ops: std::ops::Range<usize>,
) -> impl Strategy<Value = (u32, Vec<Op>)> {
    nodes
        .prop_flat_map(move |n| {
            let raw = (0u32..10, 0u32..n, 0u32..n, 0u32..n, 0u64..3, 1u64..60);
            (Just(n), prop::collection::vec(raw, ops.clone()))
        })
        .prop_map(|(n, raw)| {
            let ops = raw
                .into_iter()
                .flat_map(|(kind, a, b, c, id, size)| {
                    let (id, hop) = (FlowId(id), [a % 2, 2 + b % 2]);
                    let admit = |nodes: &[u32], pos: u32| {
                        let route = Route::from_ids(nodes.iter().copied()).ok()?;
                        Some(Op::Admit(id, route, pos, size))
                    };
                    // Admissions dominate the mix so scripts build real load.
                    let ops = match kind {
                        // One ID on two routes sharing their first link.
                        0 => [c, (c + 1) % n]
                            .map(|d| admit(&[hop[0], hop[1], d], 0))
                            .to_vec(),
                        2 | 4 => vec![admit(&[hop[0], hop[1], c], kind / 2 - 1)],
                        1 | 3 | 5 => vec![admit(&[a, b], 0)],
                        6 => vec![Some(Op::Cancel(id))],
                        _ => vec![Some(Op::Commit(size * u64::from(kind - 6)))],
                    };
                    ops.into_iter().flatten()
                })
                .collect();
            (n, ops)
        })
}

/// Replays one script on a persistent engine and on the spec, comparing
/// them after every op.
fn assert_script_matches_spec(n: u32, ops: &[Op], policy: &SearchPolicy) {
    const DELTA: u64 = 5;
    let kind = MatchingKind::Exact;
    let fabric = BipartiteFabric { kind };
    let live = RemainingTraffic::from_subflows(std::iter::empty(), HopWeighting::Uniform);
    let mut engine = ScheduleEngine::new(live, n, DELTA);
    let mut spec = Spec::new(n, DELTA, HopWeighting::Uniform, FabricKind::Bipartite(kind));
    for (step, op) in ops.iter().enumerate() {
        let ctx = format!("step {step}, {op:?}, {policy:?}");
        match *op {
            Op::Admit(id, ref route, pos, size) => {
                let entry = [(id, route.clone(), pos, size)];
                engine
                    .update_source(|tr, dirty| tr.admit_subflows_into(entry, dirty))
                    .expect("generated position is within the route");
                spec.admit(id, route, pos, size);
            }
            Op::Cancel(id) => {
                let removed = engine.update_source(|tr, dirty| tr.cancel_flow_into(id, dirty));
                assert_eq!(removed, spec.cancel(id), "{ctx}");
            }
            Op::Commit(budget) => {
                let got = engine.select(&fabric, budget, CandidateExtension::None, policy);
                let want = spec.select(policy, budget);
                let shape = |links: &[(u32, u32)], alpha| (links.to_vec(), alpha);
                assert_eq!(
                    got.as_ref().map(|c| shape(&c.matching, c.alpha)),
                    want.as_ref().map(|c| shape(&c.links, c.alpha)),
                    "selection, {ctx}"
                );
                if let (Some(got), Some(want)) = (got, want) {
                    engine
                        .commit(&fabric, &got.matching, got.alpha)
                        .expect("realizable matching");
                    spec.commit_choice(want);
                }
            }
        }
        let tr = engine.source();
        assert_eq!(sorted(tr.subflows()), spec.subflows(), "sub-flows, {ctx}");
        assert_eq!(tr.remaining_packets(), spec.backlog(), "backlog, {ctx}");
        assert_eq!(tr.planned_delivered(), spec.delivered, "delivered, {ctx}");
        assert_eq!(tr.planned_psi().to_bits(), spec.psi.to_bits(), "psi, {ctx}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn streamed_admissions_match_cold_rebuild_all_policies((n, ops) in script_in(4..9, 1..16)) {
        policies().iter().for_each(|policy| assert_script_matches_spec(n, &ops, policy));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    #[ignore = "release-mode spec at n = 12-16, scripts of 16-63 ops"]
    fn streamed_admissions_match_the_spec_at_larger_sizes((n, ops) in script_in(12..17, 16..64)) {
        policies().iter().for_each(|policy| assert_script_matches_spec(n, &ops, policy));
    }
}
