//! The online drivers against the executable spec.
//!
//! [`OnlineScheduler`] and [`HysteresisScheduler`] keep one persistent
//! engine over the backlog across epochs. Random arrival scripts run on
//! them and on the spec's model (`tests/spec/model.rs` in the root
//! package), and every epoch's report must match the spec's: schedule, ψ
//! bits, delivered, arrived and backlog. The solve count, the engine's own
//! work, must equal a cold engine's over the spec's sub-flows.

#[allow(dead_code, reason = "this suite drives the bipartite streams only")]
#[path = "../../../tests/spec/model.rs"]
mod model;

use model::{configs_of, instance_in, Config, FabricKind, Instance, Spec};
use octopus_core::engine::CandidateExtension;
use octopus_core::online::{EpochReport, HysteresisScheduler, OnlineScheduler};
use octopus_core::{BipartiteFabric, OctopusConfig, RemainingTraffic, SchedError, ScheduleEngine};
use octopus_net::topology;
use octopus_traffic::{Flow, HopWeighting, TrafficLoad};
use proptest::prelude::*;

/// A random load (`model::instance_in`) split into `epochs` epochs of
/// arrivals and up to two quiet ones, η, and a window of Δ plus a sixth of
/// the instance's, so backlogs carry over and outgrow a horizon.
fn script_in(
    nodes: std::ops::Range<u32>,
    flows: std::ops::Range<usize>,
    epochs: std::ops::Range<usize>,
) -> impl Strategy<Value = (Instance, f64, Vec<TrafficLoad>)> {
    let split = (instance_in(nodes, flows), epochs, 0usize..3, 0.0f64..0.5);
    split.prop_map(|(mut inst, epochs, quiet, eta)| {
        inst.window = inst.delta + inst.window / 6;
        let per = inst.load.len().div_ceil(epochs);
        let busy = inst.load.flows().chunks(per).map(<[Flow]>::to_vec);
        let arrivals = busy.chain(vec![Vec::new(); quiet]);
        let loads = arrivals.map(|flows| TrafficLoad::new(flows).expect("unique ids"));
        let loads = loads.collect();
        (inst, eta, loads)
    })
}

fn config(window: u64, delta: u64) -> OctopusConfig {
    OctopusConfig {
        window,
        delta,
        ..OctopusConfig::default()
    }
}

/// The spec of an empty backlog under `cfg`.
fn spec_of(n: u32, cfg: &OctopusConfig) -> Spec {
    let fabric = FabricKind::Bipartite(cfg.matching);
    Spec::new(n, cfg.delta, HopWeighting::Uniform, fabric)
}

/// Starts the spec's epoch: ψ and delivered restart, the arrivals join at
/// their sources. Returns a cold plan of the epoch's sub-flows, whose solve
/// count the live epoch must repeat.
fn start_epoch(spec: &mut Spec, arrivals: &TrafficLoad) -> RemainingTraffic {
    spec.reset_epoch();
    for f in arrivals.flows() {
        spec.admit(f.id, &f.routes[0], 0, f.size);
    }
    RemainingTraffic::from_subflows(spec.subflows(), HopWeighting::Uniform)
}

/// Requires `got` to be the spec's epoch, which served `configs`, with the
/// cold engine's `solves`.
fn check(got: &EpochReport, spec: &Spec, arrived: u64, configs: &[Config], solves: usize) {
    let e = &got.output;
    assert_eq!(configs_of(&e.schedule), configs, "schedule");
    assert_eq!(e.planned_psi.to_bits(), spec.psi.to_bits(), "psi bits");
    assert_eq!(e.planned_delivered, spec.delivered);
    assert_eq!(e.iterations, configs.len());
    assert_eq!(e.matchings_computed, solves, "solves");
    assert_eq!(got.arrived, arrived);
    assert_eq!(got.delivered, spec.delivered);
    assert_eq!(got.backlog, spec.backlog(), "backlog");
}

fn online_matches_spec(n: u32, cfg: OctopusConfig, epochs: &[TrafficLoad]) {
    let mut live = OnlineScheduler::new(topology::complete(n), cfg);
    let mut spec = spec_of(n, &cfg);
    let (mut fabric, policy) = (BipartiteFabric { kind: cfg.matching }, cfg.search_policy());
    for arrivals in epochs {
        let got = live.run_epoch(arrivals).expect("valid epoch");
        let mut cold = ScheduleEngine::new(start_epoch(&mut spec, arrivals), n, cfg.delta);
        let cold = cold.plan_window(&mut fabric, &policy, cfg.window);
        let configs = spec.plan_window(&policy, cfg.window);
        let solves = cold.expect("realizable plan").matchings_computed;
        check(&got, &spec, arrivals.total_packets(), &configs, solves);
    }
}

fn hysteresis_matches_spec(n: u32, cfg: OctopusConfig, eta: f64, epochs: &[TrafficLoad]) {
    let mut live = HysteresisScheduler::new(topology::complete(n), cfg, eta).expect("valid knobs");
    let mut spec = spec_of(n, &cfg);
    let (fabric, policy) = (BipartiteFabric { kind: cfg.matching }, cfg.search_policy());
    let (none, mut incumbent) = (CandidateExtension::None, None);
    for arrivals in epochs {
        let got = live.run_epoch(arrivals).expect("valid epoch");
        let mut cold = ScheduleEngine::new(start_epoch(&mut spec, arrivals), n, cfg.delta);
        let cold = cold.select(&fabric, cfg.window - cfg.delta, none, &policy);
        let served = spec.hysteresis(&policy, &mut incumbent, cfg.window, eta);
        let configs: Vec<Config> = served.into_iter().map(|(config, _)| config).collect();
        let solves = cold.map_or(0, |c| c.matchings_computed);
        check(&got, &spec, arrivals.total_packets(), &configs, solves);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn online_epochs_match_per_epoch_rebuild((inst, _eta, epochs) in script_in(4..8, 1..24, 1..6)) {
        online_matches_spec(inst.n, config(inst.window, inst.delta), &epochs);
    }

    #[test]
    fn hysteresis_epochs_match_per_epoch_rebuild((inst, eta, epochs) in script_in(4..8, 1..24, 1..6)) {
        hysteresis_matches_spec(inst.n, config(inst.window, inst.delta), eta, &epochs);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    #[ignore = "release-mode spec at n = 12-16, up to 79 flows over up to 17 epochs"]
    fn online_epochs_match_the_spec_at_larger_sizes((inst, _eta, epochs) in script_in(12..17, 24..80, 6..16)) {
        online_matches_spec(inst.n, config(inst.window, inst.delta), &epochs);
    }

    #[test]
    #[ignore = "release-mode spec at n = 12-16, up to 79 flows over up to 17 epochs"]
    fn hysteresis_epochs_match_the_spec_at_larger_sizes((inst, eta, epochs) in script_in(12..17, 24..80, 6..16)) {
        hysteresis_matches_spec(inst.n, config(inst.window, inst.delta), eta, &epochs);
    }
}

#[test]
fn hysteresis_constructor_rejects_bad_knobs() {
    let net = topology::complete(4);
    for eta in [-5.0, f64::NAN] {
        let err = HysteresisScheduler::new(net.clone(), config(100, 10), eta).err();
        assert!(matches!(err, Some(SchedError::InvalidEta(_))), "eta {eta}");
    }
    assert_eq!(
        HysteresisScheduler::new(net, config(10, 10), 0.1).err(),
        Some(SchedError::WindowTooSmall {
            window: 10,
            delta: 10
        })
    );
}
