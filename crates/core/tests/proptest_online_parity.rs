//! Online-driver parity: **persistent engine ≡ per-epoch rebuild**.
//!
//! [`OnlineScheduler`] and [`HysteresisScheduler`] keep one
//! [`ScheduleEngine`] over the backlog across epochs, admitting each epoch's
//! arrivals into it and patching its queue snapshot. This suite replays
//! random arrival scripts against a reference that instead rebuilds `T^r`
//! cold every epoch ([`RemainingTraffic::from_subflows`] on the carried
//! [`RemainingTraffic::subflows`]) and plans on a fresh engine. Every
//! epoch's report must match: schedule, ψ bits, delivered, backlog.

use octopus_core::online::{hysteresis_replan, EpochReport, HysteresisScheduler, OnlineScheduler};
use octopus_core::{
    BipartiteFabric, OctopusConfig, OctopusOutput, RemainingTraffic, ScheduleEngine,
};
use octopus_net::{topology, Configuration, Matching, Network, Schedule};
use octopus_traffic::{Flow, FlowId, HopWeighting, Route, TrafficLoad};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// A fabric size, the epoch window and Δ, η, and each epoch's arrivals.
fn script() -> impl Strategy<Value = (u32, u64, u64, f64, Vec<TrafficLoad>)> {
    (4u32..8)
        .prop_flat_map(|n| {
            let epoch = prop::collection::vec((0u32..n, 0u32..n, 0u32..n, 1u64..50), 0..6);
            (
                Just(n),
                30u64..300,
                0u64..25,
                0.0f64..0.5,
                prop::collection::vec(epoch, 1..6),
            )
        })
        .prop_filter("window fits a configuration", |(_, w, d, _, _)| w > d)
        .prop_map(|(n, window, delta, eta, raw)| {
            let mut id = 0u64;
            let epochs = raw
                .into_iter()
                .map(|flows| {
                    let flows = flows
                        .into_iter()
                        .filter(|(src, dst, _, _)| src != dst)
                        .map(|(src, dst, via, size)| {
                            let mut nodes = vec![src];
                            if via != src && via != dst {
                                nodes.push(via);
                            }
                            nodes.push(dst);
                            id += 1;
                            let route = Route::from_ids(nodes).expect("distinct hops");
                            Flow::single(FlowId(id), size, route)
                        })
                        .collect();
                    TrafficLoad::new(flows).expect("unique ids")
                })
                .collect();
            (n, window, delta, eta, epochs)
        })
}

/// The backlog of the rebuild reference: the leftovers of the last epoch.
type Backlog = Vec<(FlowId, Route, u32, u64)>;

/// Starts a reference epoch: the carried backlog plus the arrivals, rebuilt
/// cold.
fn rebuild(backlog: &mut Backlog, arrivals: &TrafficLoad) -> RemainingTraffic {
    for f in arrivals.flows() {
        backlog.push((f.id, f.routes[0].clone(), 0, f.size));
    }
    RemainingTraffic::from_subflows(backlog.drain(..), HopWeighting::Uniform)
}

fn report(output: OctopusOutput, arrived: u64, tr: &RemainingTraffic) -> EpochReport {
    EpochReport {
        delivered: output.planned_delivered,
        output,
        arrived,
        backlog: tr.remaining_packets(),
    }
}

fn assert_same(got: &EpochReport, want: &EpochReport, epoch: usize) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        &got.output.schedule,
        &want.output.schedule,
        "epoch {}",
        epoch
    );
    prop_assert_eq!(
        got.output.planned_psi.to_bits(),
        want.output.planned_psi.to_bits(),
        "psi bits, epoch {}",
        epoch
    );
    prop_assert_eq!(got.output.planned_delivered, want.output.planned_delivered);
    prop_assert_eq!(got.output.iterations, want.output.iterations);
    prop_assert_eq!(
        got.output.matchings_computed,
        want.output.matchings_computed
    );
    prop_assert_eq!(got.arrived, want.arrived);
    prop_assert_eq!(got.delivered, want.delivered);
    prop_assert_eq!(got.backlog, want.backlog, "backlog, epoch {}", epoch);
    Ok(())
}

fn config(window: u64, delta: u64) -> OctopusConfig {
    OctopusConfig {
        window,
        delta,
        ..OctopusConfig::default()
    }
}

fn online_parity(
    net: &Network,
    cfg: OctopusConfig,
    epochs: &[TrafficLoad],
) -> Result<(), TestCaseError> {
    let mut live = OnlineScheduler::new(net.clone(), cfg);
    let mut backlog = Backlog::new();
    for (e, arrivals) in epochs.iter().enumerate() {
        let got = live.run_epoch(arrivals).expect("valid epoch");
        let mut tr = rebuild(&mut backlog, arrivals);
        let run = ScheduleEngine::new(&mut tr, net.num_nodes(), cfg.delta)
            .plan_window(
                &mut BipartiteFabric { kind: cfg.matching },
                &cfg.search_policy(),
                cfg.window,
            )
            .expect("realizable plan");
        let output = OctopusOutput {
            schedule: run.schedule,
            planned_psi: tr.planned_psi(),
            planned_delivered: tr.planned_delivered(),
            iterations: run.iterations,
            matchings_computed: run.matchings_computed,
        };
        let want = report(output, arrivals.total_packets(), &tr);
        assert_same(&got, &want, e)?;
        backlog = tr.subflows();
    }
    Ok(())
}

fn hysteresis_parity(
    net: &Network,
    cfg: OctopusConfig,
    eta: f64,
    epochs: &[TrafficLoad],
) -> Result<(), TestCaseError> {
    let mut live = HysteresisScheduler::new(net.clone(), cfg, eta).expect("valid knobs");
    let mut backlog = Backlog::new();
    let mut incumbent: Option<Matching> = None;
    for (e, arrivals) in epochs.iter().enumerate() {
        let got = live.run_epoch(arrivals).expect("valid epoch");
        let mut tr = rebuild(&mut backlog, arrivals);
        let mut engine = ScheduleEngine::new(&mut tr, net.num_nodes(), cfg.delta);
        let served = hysteresis_replan(
            &mut engine,
            &BipartiteFabric { kind: cfg.matching },
            &cfg.search_policy(),
            &mut incumbent,
            cfg.window,
            eta,
        )
        .expect("realizable matching");
        let mut schedule = Schedule::new();
        let (mut iterations, mut matchings_computed) = (0, 0);
        if let Some(step) = served {
            schedule.push(Configuration::new(step.matching, step.alpha));
            (iterations, matchings_computed) = (1, step.matchings_computed);
        }
        let output = OctopusOutput {
            schedule,
            planned_psi: tr.planned_psi(),
            planned_delivered: tr.planned_delivered(),
            iterations,
            matchings_computed,
        };
        let want = report(output, arrivals.total_packets(), &tr);
        assert_same(&got, &want, e)?;
        backlog = tr.subflows();
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn online_epochs_match_per_epoch_rebuild((n, window, delta, _eta, epochs) in script()) {
        online_parity(&topology::complete(n), config(window, delta), &epochs)?;
    }

    #[test]
    fn hysteresis_epochs_match_per_epoch_rebuild((n, window, delta, eta, epochs) in script()) {
        hysteresis_parity(&topology::complete(n), config(window, delta), eta, &epochs)?;
    }
}

#[test]
fn hysteresis_constructor_rejects_bad_knobs() {
    let net = topology::complete(4);
    for eta in [-5.0, f64::NAN] {
        let err = HysteresisScheduler::new(net.clone(), config(100, 10), eta).err();
        assert!(
            matches!(err, Some(octopus_core::SchedError::InvalidEta(_))),
            "eta {eta}"
        );
    }
    assert_eq!(
        HysteresisScheduler::new(net, config(10, 10), 0.1).err(),
        Some(octopus_core::SchedError::WindowTooSmall {
            window: 10,
            delta: 10
        })
    );
}
