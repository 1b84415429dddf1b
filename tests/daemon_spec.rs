//! Daemon sessions against the executable spec.
//!
//! Random sessions of `Arrival`, `Cancel` and `Replan` events run through
//! [`ServeState::handle`] under both policies, and on the spec's model
//! (`tests/spec/model.rs`): an `Octopus` re-plan is one window of
//! Procedure 2 over the horizon, a `Hysteresis` re-plan is the spec's
//! keep/switch rule. Every reply must be the spec's (backlog, removed
//! packets, configurations, ψ, delivered, whether it reconfigured), and the
//! session's final counters must carry the spec's ψ bits.
//!
//! A session is a list of fragments, each played twice in a row under
//! fresh flow IDs and each play followed by a `Cancel` of every ID it used.
//! The second play re-plans exactly the backlogs of the first, so under the
//! `Octopus` policy the schedule cache both misses and replays, and both
//! must emit the spec's windows.

#[allow(dead_code, reason = "the daemon plans on the bipartite fabric only")]
#[path = "spec/model.rs"]
mod model;

use model::{Config, FabricKind, Spec};
use octopus_core::{MatchingKind, OctopusConfig};
use octopus_net::topology;
use octopus_serve::{Event, PlanConfig, PolicyMode, Response, ServeConfig, ServeState};
use octopus_traffic::{FlowId, HopWeighting, Route};
use proptest::prelude::*;

/// Flow IDs one fragment uses: `0..IDS`, shifted per play.
const IDS: u64 = 3;

/// A fabric size, the horizon, Δ and η, and the session's fragments: each
/// a list of events over the flow IDs `0..IDS`, ending with a `Replan`.
/// Two-hop routes start on one of four links, `{0, 1} → {2, 3}`, and one
/// ID often arrives on two of them at once, so it waits on one link on two
/// routes of equal weight.
fn session_in(
    nodes: std::ops::Range<u32>,
    fragments: std::ops::Range<usize>,
    steps: std::ops::Range<usize>,
) -> impl Strategy<Value = (u32, u64, u64, f64, Vec<Vec<Event>>)> {
    nodes
        .prop_flat_map(move |n| {
            let step = (0u32..10, 0u32..n, 0u32..n, 0u32..n, 0u64..IDS, 1u64..60);
            let fragment = prop::collection::vec(step, steps.clone());
            (
                Just(n),
                30u64..150,
                0u64..25,
                0.0f64..0.5,
                prop::collection::vec(fragment, fragments.clone()),
            )
        })
        .prop_filter("horizon fits a configuration", |(_, h, d, _, _)| h > d)
        .prop_map(|(n, horizon, delta, eta, raw)| {
            let fragments = raw
                .into_iter()
                .map(|steps| {
                    let mut events: Vec<Event> = steps
                        .into_iter()
                        .flat_map(|(kind, a, b, c, id, size)| {
                            let hop = [a % 2, 2 + b % 2];
                            let arrival = |route: Vec<u32>| {
                                Route::from_ids(route.iter().copied()).ok()?;
                                Some(Event::Arrival { id, route, size })
                            };
                            let events = match kind {
                                // One ID on two routes sharing their first link.
                                0 | 1 => [c, (c + 1) % n]
                                    .map(|d| arrival(vec![hop[0], hop[1], d]))
                                    .to_vec(),
                                2 | 3 => vec![arrival(vec![hop[0], hop[1], c])],
                                4 => vec![arrival(vec![a, c, b])],
                                5 => vec![arrival(vec![a, b])],
                                6 | 7 => vec![Some(Event::Cancel { id })],
                                _ => vec![Some(Event::Replan)],
                            };
                            events.into_iter().flatten()
                        })
                        .collect();
                    events.push(Event::Replan);
                    events
                })
                .collect();
            (n, horizon, delta, eta, fragments)
        })
}

/// Every fragment played twice, each play under its own flow IDs and
/// followed by a `Cancel` of each of them.
fn session(fragments: &[Vec<Event>]) -> Vec<Event> {
    let mut events = Vec::new();
    for (play, fragment) in fragments.iter().flat_map(|f| [f, f]).enumerate() {
        let base = IDS * play as u64;
        events.extend(fragment.iter().map(|event| match event.clone() {
            Event::Arrival { id, route, size } => Event::Arrival {
                id: base + id,
                route,
                size,
            },
            Event::Cancel { id } => Event::Cancel { id: base + id },
            other => other,
        }));
        events.extend((0..IDS).map(|id| Event::Cancel { id: base + id }));
    }
    events
}

/// Runs `events` on a daemon under `mode` and on the spec, requiring the
/// spec's reply to every event.
fn session_matches_spec(
    n: u32,
    horizon: u64,
    delta: u64,
    eta: f64,
    mode: PolicyMode,
    events: &[Event],
) {
    let octopus = OctopusConfig::default();
    let cfg = ServeConfig {
        horizon,
        delta,
        eta,
        policy: mode,
        octopus,
    };
    let mut daemon = ServeState::new(topology::complete(n), cfg).expect("valid knobs");
    let fabric = FabricKind::Bipartite(MatchingKind::Exact);
    let mut spec = Spec::new(n, delta, HopWeighting::Uniform, fabric);
    let policy = octopus.search_policy();
    let mut incumbent = None;
    for (step, event) in events.iter().enumerate() {
        let (got, _) = daemon.handle(event.clone());
        let want = match *event {
            Event::Arrival {
                id,
                ref route,
                size,
            } => {
                let route = Route::from_ids(route.iter().copied()).expect("generated route");
                spec.admit(FlowId(id), &route, 0, size);
                Response::Admitted {
                    id,
                    backlog: spec.backlog(),
                }
            }
            Event::Cancel { id } => Response::Cancelled {
                id,
                removed: spec.cancel(FlowId(id)),
                backlog: spec.backlog(),
            },
            _ => {
                let (psi, delivered) = (spec.psi, spec.delivered);
                let configs: Vec<Config> = match mode {
                    PolicyMode::Octopus => spec.plan_window(&policy, horizon),
                    PolicyMode::Hysteresis => spec
                        .hysteresis(&policy, &mut incumbent, horizon, eta)
                        .filter(|&(_, switched)| switched)
                        .map(|(config, _)| config)
                        .into_iter()
                        .collect(),
                };
                let elapsed_us = match got {
                    Response::Plan { elapsed_us, .. } => elapsed_us,
                    _ => 0,
                };
                Response::Plan {
                    reconfigured: !configs.is_empty(),
                    configs: configs
                        .into_iter()
                        .map(|(links, alpha)| PlanConfig { links, alpha })
                        .collect(),
                    psi: spec.psi - psi,
                    delivered: spec.delivered - delivered,
                    backlog: spec.backlog(),
                    elapsed_us,
                }
            }
        };
        assert_eq!(got, want, "step {step}, {event:?}, {mode:?}");
    }
    let stats = daemon.stats();
    assert_eq!(stats.psi.to_bits(), spec.psi.to_bits(), "{mode:?}");
    assert_eq!(stats.delivered_packets, spec.delivered, "{mode:?}");
    let replayed = stats.cache_exact_hits > 0 && stats.cache_misses > 0;
    assert_eq!(replayed, mode == PolicyMode::Octopus, "{stats:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Both policies answer every event as the spec does, and the cache
    /// both misses and replays under `Octopus`.
    #[test]
    fn daemon_sessions_match_the_spec(
        (n, horizon, delta, eta, fragments) in session_in(4..9, 1..4, 1..10),
    ) {
        let events = session(&fragments);
        for mode in [PolicyMode::Octopus, PolicyMode::Hysteresis] {
            session_matches_spec(n, horizon, delta, eta, mode, &events);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// [`daemon_sessions_match_the_spec`] at n = 12–16 with up to 5
    /// fragments of up to 24 events. Release-only (CI runs it).
    #[test]
    #[ignore = "release-mode spec at n = 12-16"]
    fn daemon_sessions_match_the_spec_at_larger_sizes(
        (n, horizon, delta, eta, fragments) in session_in(12..17, 3..6, 8..25),
    ) {
        let events = session(&fragments);
        for mode in [PolicyMode::Octopus, PolicyMode::Hysteresis] {
            session_matches_spec(n, horizon, delta, eta, mode, &events);
        }
    }
}
