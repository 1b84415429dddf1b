//! Cross-crate end-to-end tests on realistic (small) synthetic instances:
//! algorithm orderings, bounds, determinism and schedule validity.

use octopus_mhs::baselines::{
    absolute_upper_bound, eclipse_based_schedule, one_hop_schedule, rotornet_schedule, ub_evaluate,
    OneHopDemand,
};
use octopus_mhs::core::{
    duplex::octopus_duplex,
    hybrid::{octopus_hybrid, PacketNetModel},
    kport::octopus_kport,
    local::octopus_local,
    multihop_config::octopus_multihop,
    octopus,
    octopus_plus::{octopus_plus, PlusConfig},
    online::{HysteresisScheduler, OnlineScheduler},
    AlphaSearch, MatchingKind, OctopusConfig, OctopusOutput,
};
use octopus_mhs::net::{duplex::DuplexNetwork, topology, Schedule};
use octopus_mhs::sim::{resolve, SimConfig, Simulator};
use octopus_mhs::traffic::{synthetic, synthetic::SyntheticConfig, TrafficLoad};
use rand::rngs::StdRng;
use rand::SeedableRng;

struct World {
    net: octopus_mhs::net::Network,
    load: octopus_mhs::traffic::TrafficLoad,
    cfg: OctopusConfig,
}

fn world(seed: u64) -> World {
    sized_world(20, 1_200, seed)
}

fn sized_world(n: u32, window: u64, seed: u64) -> World {
    let delta = 15;
    let net = topology::complete(n);
    let mut rng = StdRng::seed_from_u64(seed);
    let load = synthetic::generate(&SyntheticConfig::paper_default(n, window), &net, &mut rng);
    World {
        net,
        load,
        cfg: OctopusConfig {
            window,
            delta,
            ..OctopusConfig::default()
        },
    }
}

fn simulate(w: &World, schedule: &octopus_mhs::net::Schedule) -> octopus_mhs::sim::SimReport {
    let sim = Simulator::new(
        Some(&w.net),
        resolve(&w.load).unwrap(),
        SimConfig {
            delta: w.cfg.delta,
            ..SimConfig::default()
        },
    )
    .unwrap();
    sim.run(schedule).unwrap()
}

#[test]
fn octopus_beats_eclipse_based_and_rotornet() {
    for seed in [1, 2, 3] {
        let w = world(seed);
        let oct = octopus(&w.net, &w.load, &w.cfg).unwrap();
        let r_oct = simulate(&w, &oct.schedule);

        let ecl = eclipse_based_schedule(&w.net, &w.load, &w.cfg).unwrap();
        let r_ecl = simulate(&w, &ecl);

        let rot = rotornet_schedule(w.net.num_nodes(), w.cfg.delta, w.cfg.window, 0);
        let sim_free = Simulator::new(
            None,
            resolve(&w.load).unwrap(),
            SimConfig {
                delta: w.cfg.delta,
                ..SimConfig::default()
            },
        )
        .unwrap();
        let r_rot = sim_free.run(&rot).unwrap();

        assert!(
            r_oct.delivered as f64 >= 0.95 * r_ecl.delivered as f64,
            "seed {seed}: octopus {} vs eclipse-based {}",
            r_oct.delivered,
            r_ecl.delivered
        );
        assert!(
            r_oct.delivered > r_rot.delivered,
            "seed {seed}: octopus {} vs rotornet {}",
            r_oct.delivered,
            r_rot.delivered
        );
        assert!(r_oct.link_utilization() > r_rot.link_utilization());
    }
}

#[test]
fn bounds_dominate_octopus() {
    for seed in [4, 5] {
        let w = world(seed);
        let oct = octopus(&w.net, &w.load, &w.cfg).unwrap();
        let r = simulate(&w, &oct.schedule);
        let abs = absolute_upper_bound(&w.net, &w.load, w.cfg.window);
        assert!(
            r.delivered_fraction() <= abs + 1e-9,
            "seed {seed}: delivered {} above absolute bound {}",
            r.delivered_fraction(),
            abs
        );
        let ub = ub_evaluate(&w.net, &w.load, &w.cfg);
        // UB relaxes ordering; it tracks or beats Octopus (both greedy, so a
        // small tolerance).
        assert!(
            ub.delivered_fraction() + 0.1 >= r.delivered_fraction(),
            "seed {seed}: UB {} vs octopus {}",
            ub.delivered_fraction(),
            r.delivered_fraction()
        );
    }
}

#[test]
fn schedules_are_valid_and_within_window() {
    let w = world(6);
    let oct = octopus(&w.net, &w.load, &w.cfg).unwrap();
    oct.schedule.validate(Some(&w.net)).unwrap();
    assert!(oct.schedule.total_cost(w.cfg.delta) <= w.cfg.window);
    let ecl = eclipse_based_schedule(&w.net, &w.load, &w.cfg).unwrap();
    ecl.validate(Some(&w.net)).unwrap();
    assert!(ecl.total_cost(w.cfg.delta) <= w.cfg.window);
}

/// One variant's output: its name, schedule and ψ bits.
type Row = (String, Schedule, u64);

fn row(name: &str, o: OctopusOutput) -> Row {
    (name.to_string(), o.schedule, o.planned_psi.to_bits())
}

/// Every scheduler entry point on one instance; the hybrid row's name
/// carries its packet-network offload.
fn every_variant(w: &World) -> Vec<Row> {
    let (net, load, cfg) = (&w.net, &w.load, &w.cfg);
    let hops = load.max_route_hops();
    let hybrid = octopus_hybrid(net, load, cfg, PacketNetModel::default()).unwrap();
    let mut out = vec![
        row("octopus", octopus(net, load, cfg).unwrap()),
        row("b", octopus(net, load, &cfg.octopus_b()).unwrap()),
        row("g", octopus(net, load, &cfg.octopus_g(hops)).unwrap()),
        row("e", octopus(net, load, &cfg.octopus_e(0.1)).unwrap()),
        row("kport", octopus_kport(net, load, cfg, 2).unwrap()),
        row("local", octopus_local(net, load, cfg).unwrap()),
        row("multihop", octopus_multihop(net, load, cfg).unwrap()),
        row(
            &format!("hybrid {:?}", hybrid.packet_offload),
            hybrid.circuit,
        ),
    ];

    let n = net.num_nodes();
    let duplex =
        DuplexNetwork::from_edges(n, (0..n).flat_map(|a| (a + 1..n).map(move |b| (a, b)))).unwrap();
    let mut rng = StdRng::seed_from_u64(7);
    let synth = SyntheticConfig::paper_default(n, cfg.window);
    let duplex_load = synthetic::generate(&synth, &duplex.to_directed(), &mut rng);
    out.push(row(
        "duplex",
        octopus_duplex(&duplex, &duplex_load, cfg).unwrap(),
    ));
    let multi_route = synthetic::generate_with_routes(&synth, net, &mut rng, 3);
    let plus_cfg = PlusConfig {
        base: *cfg,
        backtracking: true,
    };
    let plus = octopus_plus(net, &multi_route, &plus_cfg).unwrap();
    out.push(("plus".into(), plus.schedule, plus.planned_psi.to_bits()));

    // Three epochs of each online scheduler, each epoch's arrivals a third
    // of the flows.
    let mut online = OnlineScheduler::new(net.clone(), *cfg);
    let mut hysteresis = HysteresisScheduler::new(net.clone(), *cfg, 0.1).unwrap();
    for e in 0..3 {
        let flows = load.flows().iter().skip(e).step_by(3).cloned().collect();
        let arrivals = TrafficLoad::new(flows).unwrap();
        let epoch = online.run_epoch(&arrivals).unwrap();
        out.push(row(&format!("online/{e}"), epoch.output));
        let epoch = hysteresis.run_epoch(&arrivals).unwrap();
        out.push(row(&format!("hysteresis/{e}"), epoch.output));
    }

    // One demand per hop of every flow, weighted 1/hops.
    let demands: Vec<OneHopDemand> = load
        .flows()
        .iter()
        .flat_map(|f| {
            let route = &f.routes[0];
            let hops = route.hops();
            (0..hops).map(move |k| {
                let (src, dst) = route.hop(k);
                OneHopDemand {
                    src,
                    dst,
                    size: f.size,
                    weight: 1.0 / f64::from(hops),
                    tag: f.id.0 * 8 + u64::from(k),
                }
            })
        })
        .collect();
    let one_hop = one_hop_schedule(
        n,
        &demands,
        cfg.delta,
        cfg.window,
        AlphaSearch::Exhaustive,
        MatchingKind::Exact,
    );
    out.push(("one_hop".into(), one_hop.schedule, one_hop.psi.to_bits()));
    out
}

/// Each variant runs twice in this process on equal inputs. `RandomState`
/// keys every hash map differently, so a decision that reads hash order
/// shows up as a mismatch, including forms clippy cannot see, such as
/// `into_iter` on a `HashMap`. The variants run on a smaller instance than
/// plain `octopus()`: the chain-aware one simulates every candidate edge.
#[test]
fn everything_is_deterministic() {
    let w1 = world(7);
    let w2 = world(7);
    assert_eq!(w1.load, w2.load, "generation is seed-deterministic");
    let a = octopus(&w1.net, &w1.load, &w1.cfg).unwrap();
    let b = octopus(&w2.net, &w2.load, &w2.cfg).unwrap();
    assert_eq!(a.schedule, b.schedule, "scheduling is deterministic");
    assert_eq!(simulate(&w1, &a.schedule), simulate(&w2, &b.schedule));

    let first = every_variant(&sized_world(10, 400, 7));
    let second = every_variant(&sized_world(10, 400, 7));
    assert_eq!(first.len(), second.len());
    for (x, y) in first.iter().zip(&second) {
        assert!(!x.1.is_empty(), "{} planned nothing", x.0);
        assert_eq!(x, y, "{} is not deterministic", x.0);
    }
}

#[test]
fn variants_stay_close_to_octopus() {
    let w = world(8);
    let oct = simulate(&w, &octopus(&w.net, &w.load, &w.cfg).unwrap().schedule);
    let b = simulate(
        &w,
        &octopus(&w.net, &w.load, &w.cfg.octopus_b())
            .unwrap()
            .schedule,
    );
    let g = simulate(
        &w,
        &octopus(&w.net, &w.load, &w.cfg.octopus_g(w.load.max_route_hops()))
            .unwrap()
            .schedule,
    );
    // The paper: Octopus-B near-identical; Octopus-G >= 95% of Octopus.
    assert!(
        b.delivered as f64 >= 0.9 * oct.delivered as f64,
        "octopus-b {} vs {}",
        b.delivered,
        oct.delivered
    );
    assert!(
        g.delivered as f64 >= 0.85 * oct.delivered as f64,
        "octopus-g {} vs {}",
        g.delivered,
        oct.delivered
    );
}

#[test]
fn schedule_serde_round_trip() {
    let w = world(9);
    let out = octopus(&w.net, &w.load, &w.cfg).unwrap();
    let json = serde_json::to_string(&out.schedule).unwrap();
    let back: octopus_mhs::net::Schedule = serde_json::from_str(&json).unwrap();
    assert_eq!(out.schedule, back);
    // A deserialized schedule drives the simulator identically.
    assert_eq!(simulate(&w, &out.schedule), simulate(&w, &back));
}
