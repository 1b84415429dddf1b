//! Cross-crate integration tests for the §7/§9 generalizations, driven
//! through the public facade and verified with the slot-level simulator.

use octopus_mhs::core::{
    duplex::octopus_duplex,
    hybrid::{octopus_hybrid, PacketNetModel},
    kport::octopus_kport,
    local::octopus_local,
    multihop_config::octopus_multihop,
    octopus,
    online::OnlineScheduler,
    OctopusConfig,
};
use octopus_mhs::net::duplex::DuplexNetwork;
use octopus_mhs::net::topology;
use octopus_mhs::sim::{resolve, ReconfigModel, SimConfig, Simulator};
use octopus_mhs::traffic::{synthetic, synthetic::SyntheticConfig, Flow, FlowId, TrafficLoad};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn cfg(window: u64, delta: u64) -> OctopusConfig {
    OctopusConfig {
        window,
        delta,
        ..OctopusConfig::default()
    }
}

fn synthetic_world(n: u32, window: u64, seed: u64) -> (octopus_mhs::net::Network, TrafficLoad) {
    let net = topology::complete(n);
    let mut rng = StdRng::seed_from_u64(seed);
    let load = synthetic::generate(&SyntheticConfig::paper_default(n, window), &net, &mut rng);
    (net, load)
}

#[test]
fn kport_schedules_simulate_end_to_end() {
    let (net, load) = synthetic_world(12, 600, 1);
    let c = cfg(600, 10);
    let out = octopus_kport(&net, &load, &c, 2).unwrap();
    // The simulator serves any link set; 2-port configurations replay fine.
    let sim = Simulator::new(
        Some(&net),
        resolve(&load).unwrap(),
        SimConfig {
            delta: 10,
            ..SimConfig::default()
        },
    )
    .unwrap();
    let r = sim.run(&out.schedule).unwrap();
    assert!(r.conserves_packets());
    // Two ports should beat one on the same instance.
    let one = octopus(&net, &load, &c).unwrap();
    let r1 = sim.run(&one.schedule).unwrap();
    assert!(
        r.delivered as f64 >= 0.9 * r1.delivered as f64,
        "2-port {} vs 1-port {}",
        r.delivered,
        r1.delivered
    );
}

#[test]
fn duplex_schedules_simulate_on_projected_fabric() {
    // Duplex ring fabric with bidirectional traffic.
    let n = 8u32;
    let dnet = DuplexNetwork::from_edges(n, (0..n).map(|i| (i, (i + 1) % n))).unwrap();
    let directed = dnet.to_directed();
    let mut flows = Vec::new();
    for i in 0..n {
        flows.push(Flow::single(
            FlowId(i as u64),
            10,
            octopus_mhs::traffic::Route::from_ids([i, (i + 1) % n]).unwrap(),
        ));
        flows.push(Flow::single(
            FlowId((i + n) as u64),
            10,
            octopus_mhs::traffic::Route::from_ids([(i + 1) % n, i]).unwrap(),
        ));
    }
    let load = TrafficLoad::new(flows).unwrap();
    let out = octopus_duplex(&dnet, &load, &cfg(500, 5)).unwrap();
    let sim = Simulator::new(
        Some(&directed),
        resolve(&load).unwrap(),
        SimConfig {
            delta: 5,
            ..SimConfig::default()
        },
    )
    .unwrap();
    let r = sim.run(&out.schedule).unwrap();
    assert_eq!(r.delivered, load.total_packets(), "ample window serves all");
}

#[test]
fn hybrid_offload_plus_circuit_simulation() {
    let (net, load) = synthetic_world(10, 400, 2);
    let c = cfg(400, 30);
    let hy = octopus_hybrid(&net, &load, &c, PacketNetModel::default()).unwrap();
    // The circuit part must still be simulable on the residual load.
    let sim = Simulator::new(
        Some(&net),
        resolve(&hy.circuit_load).unwrap(),
        SimConfig {
            delta: 30,
            ..SimConfig::default()
        },
    )
    .unwrap();
    let r = sim.run(&hy.circuit.schedule).unwrap();
    assert!(r.conserves_packets());
    assert_eq!(
        hy.offloaded + hy.circuit_load.total_packets(),
        load.total_packets(),
        "offload partitions the load"
    );
}

/// Plans one window with `octopus_multihop` and replays it on the default
/// simulator, which chains packets across consecutive active links too.
/// The variant prices its configurations on the simulator's own per-slot
/// rule, so the replay delivers exactly what was planned. ψ agrees only to
/// rounding: the replay serves chain-free configurations in batches and
/// sums `w · take` per batch, the plan one packet at a time.
fn assert_chain_aware_plan_replays(
    net: &octopus_mhs::net::Network,
    load: &TrafficLoad,
    c: &OctopusConfig,
) {
    let out = octopus_multihop(net, load, c).unwrap();
    let sim = Simulator::new(
        Some(net),
        resolve(load).unwrap(),
        SimConfig {
            delta: c.delta,
            window: Some(c.window),
            ..SimConfig::default()
        },
    )
    .unwrap();
    let r = sim.run(&out.schedule).unwrap();
    assert_eq!(
        r.delivered, out.planned_delivered,
        "chain-aware plan replays exactly (same chaining semantics)"
    );
    assert!(
        (r.psi - out.planned_psi).abs() <= 1e-9 * out.planned_psi.max(1.0),
        "replayed psi {} vs planned {}",
        r.psi,
        out.planned_psi
    );
}

#[test]
fn chain_aware_variant_agrees_with_simulator_chaining() {
    let net = topology::ring(5).unwrap();
    let load = TrafficLoad::new(vec![
        Flow::single(
            FlowId(1),
            12,
            octopus_mhs::traffic::Route::from_ids([0, 1, 2]).unwrap(),
        ),
        Flow::single(
            FlowId(2),
            8,
            octopus_mhs::traffic::Route::from_ids([2, 3, 4]).unwrap(),
        ),
    ])
    .unwrap();
    assert_chain_aware_plan_replays(&net, &load, &cfg(400, 25));
    // Random small windows: fabric size, window and Δ drawn per case.
    let mut rng = StdRng::seed_from_u64(0x7e02);
    for _ in 0..8 {
        let n = rng.gen_range(4..=8);
        let window = rng.gen_range(200..=600);
        let delta = rng.gen_range(1..=30);
        let (net, load) = synthetic_world(n, window, rng.gen_range(0..u64::MAX));
        assert_chain_aware_plan_replays(&net, &load, &cfg(window, delta));
    }
}

/// One window at complete n = 16, where candidate edges outnumber the
/// small cases' many times over (about 1.5 s in release).
#[test]
#[ignore = "real-size oracle: run in release with --ignored"]
fn chain_aware_variant_agrees_with_simulator_chaining_at_real_size() {
    let (net, load) = synthetic_world(16, 1_000, 7);
    assert_chain_aware_plan_replays(&net, &load, &cfg(1_000, 15));
}

#[test]
fn localized_planner_round_trips_through_localized_simulator() {
    let (net, load) = synthetic_world(10, 500, 3);
    let c = cfg(500, 50);
    let out = octopus_local(&net, &load, &c).unwrap();
    let sim = Simulator::new(
        Some(&net),
        resolve(&load).unwrap(),
        SimConfig {
            delta: 50,
            reconfig: ReconfigModel::Localized,
            ..SimConfig::default()
        },
    )
    .unwrap();
    let r = sim.run(&out.schedule).unwrap();
    assert!(r.conserves_packets());
    assert!(
        r.delivered >= out.planned_delivered * 9 / 10,
        "sim {} vs plan {}",
        r.delivered,
        out.planned_delivered
    );
    // Persistence is what the planner optimizes for: its schedule should
    // show some (statistic available via Schedule::stats).
    let stats = out.schedule.stats().unwrap();
    assert!(stats.configurations >= 1);
}

#[test]
fn online_epochs_eventually_serve_everything() {
    let net = topology::complete(8);
    let mut sched = OnlineScheduler::new(net.clone(), cfg(200, 10));
    let mut rng = StdRng::seed_from_u64(4);
    let mut total = 0u64;
    for e in 0..3u64 {
        let burst = synthetic::generate(&SyntheticConfig::paper_default(8, 150), &net, &mut rng);
        // Re-id to avoid collisions across epochs.
        let flows: Vec<Flow> = burst
            .flows()
            .iter()
            .enumerate()
            .map(|(i, f)| Flow {
                id: FlowId(e * 10_000 + i as u64),
                size: f.size,
                routes: f.routes.clone(),
            })
            .collect();
        let arrivals = TrafficLoad::new(flows).unwrap();
        total += arrivals.total_packets();
        sched.run_epoch(&arrivals).unwrap();
    }
    // Drain with quiet epochs.
    for _ in 0..30 {
        if sched.backlog_packets() == 0 {
            break;
        }
        sched.run_epoch(&TrafficLoad::new(vec![]).unwrap()).unwrap();
    }
    assert_eq!(sched.backlog_packets(), 0, "backlog fully drained");
    assert_eq!(sched.lifetime_goodput(), 1.0);
    assert!(total > 0);
}
