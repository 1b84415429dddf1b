//! Characterization of the scheduler variants' exact output: for two fixed
//! seeded instances each, a digest of the schedule, the planned ψ bits and
//! the planned delivered count are pinned for K-port, duplex, localized,
//! Octopus+ (3 routes with backtracking, 10 routes without) and the
//! one-hop (Eclipse) scheduler, for plain `octopus()`
//! on a larger fabric, and for the chain-aware Theorem 2 variant
//! (`octopus_multihop`) on a smaller one. A refactor of the shared
//! greedy loop must leave every pinned value unchanged; a deliberate change
//! of behaviour updates the table below and says why.

use octopus_mhs::baselines::{one_hop_schedule, OneHopDemand};
use octopus_mhs::core::{
    duplex::octopus_duplex,
    kport::octopus_kport,
    local::octopus_local,
    multihop_config::octopus_multihop,
    octopus,
    octopus_plus::{octopus_plus, PlusConfig},
    AlphaSearch, MatchingKind, OctopusConfig,
};
use octopus_mhs::net::duplex::DuplexNetwork;
use octopus_mhs::net::{topology, Network, Schedule};
use octopus_mhs::traffic::{synthetic, synthetic::SyntheticConfig, TrafficLoad};
use rand::rngs::StdRng;
use rand::SeedableRng;

const N: u32 = 10;
const WINDOW: u64 = 800;
const DELTA: u64 = 10;
const SEEDS: [u64; 2] = [11, 12];
/// Plain `octopus()` is pinned on a larger complete fabric: at N = 10 its
/// matchings have too few equal-weight optima for a change of the exact
/// kernel's tie choice to show.
const OCTOPUS_N: u32 = 48;
const OCTOPUS_WINDOW: u64 = 2_000;
/// The chain-aware variant prices every candidate edge set by simulating
/// it, so it is pinned on a small fabric. Seed 4 holds an exact tie between
/// two edges whose prices differ only in the order ψ is summed.
const MULTIHOP_N: u32 = 8;
const MULTIHOP_WINDOW: u64 = 800;
const MULTIHOP_DELTA: u64 = 15;
const MULTIHOP_SEEDS: [u64; 2] = [3, 4];

/// FNV-1a over every configuration's α and links, in serve order.
fn digest(schedule: &Schedule) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut word = |w: u64| {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for c in schedule.configs() {
        word(c.alpha);
        for &(i, j) in c.matching.links() {
            word(u64::from(i.0));
            word(u64::from(j.0));
        }
    }
    h
}

fn cfg() -> OctopusConfig {
    OctopusConfig {
        window: WINDOW,
        delta: DELTA,
        ..OctopusConfig::default()
    }
}

fn load(net: &Network, seed: u64, routes: u32) -> TrafficLoad {
    let mut rng = StdRng::seed_from_u64(seed);
    let synth = SyntheticConfig::paper_default(N, WINDOW);
    if routes == 1 {
        synthetic::generate(&synth, net, &mut rng)
    } else {
        synthetic::generate_with_routes(&synth, net, &mut rng, routes)
    }
}

fn complete_duplex() -> DuplexNetwork {
    let edges = (0..N).flat_map(|a| (a + 1..N).map(move |b| (a, b)));
    DuplexNetwork::from_edges(N, edges).expect("complete duplex fabric")
}

/// `(variant, seed) → (schedule digest, ψ bits, delivered)` for every
/// pinned variant and seed.
fn observed() -> Vec<(String, u64, u64, u64)> {
    let net = topology::complete(N);
    let duplex = complete_duplex();
    let mut out = Vec::new();
    for seed in SEEDS {
        let single = load(&net, seed, 1);
        let mut push = |name: &str, schedule: &Schedule, psi: f64, delivered: u64| {
            out.push((
                format!("{name}/{seed}"),
                digest(schedule),
                psi.to_bits(),
                delivered,
            ));
        };
        let k = octopus_kport(&net, &single, &cfg(), 2).expect("kport");
        push("kport", &k.schedule, k.planned_psi, k.planned_delivered);
        let d =
            octopus_duplex(&duplex, &load(&duplex.to_directed(), seed, 1), &cfg()).expect("duplex");
        push("duplex", &d.schedule, d.planned_psi, d.planned_delivered);
        let l = octopus_local(&net, &single, &cfg()).expect("local");
        push("local", &l.schedule, l.planned_psi, l.planned_delivered);
        let plus_cfg = PlusConfig {
            base: cfg(),
            backtracking: true,
        };
        let p = octopus_plus(&net, &load(&net, seed, 3), &plus_cfg).expect("plus");
        push("plus", &p.schedule, p.planned_psi, p.planned_delivered);
        let plus_cfg = PlusConfig {
            base: cfg(),
            backtracking: false,
        };
        let p = octopus_plus(&net, &load(&net, seed, 10), &plus_cfg).expect("plus_nobt");
        push("plus_nobt", &p.schedule, p.planned_psi, p.planned_delivered);
        // One demand per hop of every flow, weighted 1/hops as in the UB run.
        let demands: Vec<OneHopDemand> = single
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
        let o = one_hop_schedule(
            N,
            &demands,
            DELTA,
            WINDOW,
            AlphaSearch::Exhaustive,
            MatchingKind::Exact,
        );
        let served: u64 = o.served.iter().sum();
        push("one_hop", &o.schedule, o.psi, served);
    }
    let net = topology::complete(OCTOPUS_N);
    let synth = SyntheticConfig::paper_default(OCTOPUS_N, OCTOPUS_WINDOW);
    let cfg = OctopusConfig {
        window: OCTOPUS_WINDOW,
        ..cfg()
    };
    for seed in SEEDS {
        let load = synthetic::generate(&synth, &net, &mut StdRng::seed_from_u64(seed));
        let o = octopus(&net, &load, &cfg).expect("octopus");
        out.push((
            format!("octopus/{seed}"),
            digest(&o.schedule),
            o.planned_psi.to_bits(),
            o.planned_delivered,
        ));
    }
    let net = topology::complete(MULTIHOP_N);
    let synth = SyntheticConfig::paper_default(MULTIHOP_N, MULTIHOP_WINDOW);
    let cfg = OctopusConfig {
        window: MULTIHOP_WINDOW,
        delta: MULTIHOP_DELTA,
        ..OctopusConfig::default()
    };
    for seed in MULTIHOP_SEEDS {
        let load = synthetic::generate(&synth, &net, &mut StdRng::seed_from_u64(seed));
        let o = octopus_multihop(&net, &load, &cfg).expect("multihop");
        out.push((
            format!("multihop/{seed}"),
            digest(&o.schedule),
            o.planned_psi.to_bits(),
            o.planned_delivered,
        ));
    }
    out
}

#[test]
fn variant_outputs_match_the_pinned_table() {
    // The K-port rows were re-pinned when each union round stopped
    // re-weighting `g` against a shadow traffic copy that forwarded the
    // earlier rounds' packets: a configuration serves each packet one hop,
    // so those forwarded packets were claimed on downstream links that
    // realized nothing. Later rounds now match the same `g` minus the links
    // already taken, and every claimed benefit is realized.
    //
    // The K-port, one-hop and octopus rows were re-pinned again when the
    // exact kernel's phases began to end at the first free vertex reached
    // at the distance being expanded: every solve still returns a
    // maximum-weight matching, but a different one among equal-weight
    // optima. Before that change the rows read
    //   kport/11   0x1f932b7e53df39c1, 0x40b92d0000000000, 5630
    //   one_hop/11 0x80e162a5046ea95e, 0x40b2915555555556, 6960
    //   kport/12   0x0da2ed28c3ca5f0e, 0x40b8bd5555555555, 5660
    //   one_hop/12 0xc2d486b4edf5cfb8, 0x40b25c0000000000, 7000
    //   octopus/11 0xce5c85294f407e08, 0x40e972caaaaaaaab, 43190
    //   octopus/12 0x81c7f38bd626f7df, 0x40e970eaaaaaaaac, 41780
    // so each of these rows tells the two tie rules apart.
    let pinned: [(&str, u64, u64, u64); 16] = [
        ("kport/11", 0x107c3cb40531a0a7, 0x40ba14aaaaaaaaab, 5940),
        ("duplex/11", 0xf54f53bb6877fbd3, 0x40a7ac0000000000, 2580),
        ("local/11", 0x1b366c46be84d0e9, 0x40b1eaaaaaaaaaab, 3720),
        ("plus/11", 0xf515430348090cac, 0x40b8c0aaaaaaaaaa, 6020),
        ("plus_nobt/11", 0x20e97acbd5959e43, 0x40bd9c0000000000, 7360),
        ("one_hop/11", 0xaed551ce5900007d, 0x40b2915555555556, 6960),
        ("kport/12", 0x8f8f7c0c26fa0e48, 0x40b8a5ffffffffff, 5620),
        ("duplex/12", 0xabb6b02dfffcdfe8, 0x40a61c0000000000, 2130),
        ("local/12", 0xe7bc739ba439e029, 0x40b01d0000000000, 3380),
        ("plus/12", 0xba7948fec9fe6a45, 0x40b9640000000000, 6220),
        ("plus_nobt/12", 0xbcb942c539c55ec3, 0x40be780000000000, 7800),
        ("one_hop/12", 0x51d0a254c540169c, 0x40b1f80000000000, 6760),
        ("octopus/11", 0x457b033460f2af87, 0x40e952eaaaaaaaaa, 42250),
        ("octopus/12", 0xfeeaf114b1712f3c, 0x40e95f6aaaaaaaaa, 41010),
        ("multihop/3", 0x5c6c4ca5fa135d88, 0x40a936aaaaaaaaac, 3052),
        ("multihop/4", 0x3763f37b170ef73f, 0x40a7830000000000, 2824),
    ];
    let got = observed();
    let table: Vec<String> = got
        .iter()
        .map(|(name, d, psi, del)| format!("(\"{name}\", {d:#x}, {psi:#x}, {del}),"))
        .collect();
    let want: Vec<(String, u64, u64, u64)> = pinned
        .iter()
        .map(|&(name, d, psi, del)| (name.to_string(), d, psi, del))
        .collect();
    assert_eq!(got, want, "observed table:\n{}", table.join("\n"));
}
