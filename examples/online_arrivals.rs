//! Online operation: flows arrive epoch by epoch, leftovers roll forward —
//! the multi-window mode §4 of the paper sketches and §9 lists as future
//! work. Compares the Octopus-per-epoch scheduler against a
//! hysteresis-style single-matching policy (Wang–Javidi-flavored).
//!
//! Run with: `cargo run --release --example online_arrivals`

use octopus_mhs::core::online::{HysteresisScheduler, OnlineScheduler};
use octopus_mhs::core::OctopusConfig;
use octopus_mhs::net::topology;
use octopus_mhs::traffic::{synthetic, synthetic::SyntheticConfig, Flow, TrafficLoad};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let n = 16;
    let epoch = 600; // slots per epoch
    let delta = 20;
    let epochs = 12;
    let net = topology::complete(n);
    let cfg = OctopusConfig {
        window: epoch,
        delta,
        ..OctopusConfig::default()
    };

    let mut octopus = OnlineScheduler::new(net.clone(), cfg);
    let mut hysteresis =
        HysteresisScheduler::new(net.clone(), cfg, 0.1).expect("epoch fits a configuration");
    let mut rng = StdRng::seed_from_u64(77);
    let mut next_id = 0u64;

    println!("epoch | arrivals | octopus: served backlog | hysteresis: served backlog");
    for e in 0..epochs {
        // Bursty arrivals: quiet epochs interleaved with heavy ones.
        let arrivals = if e % 3 == 2 {
            TrafficLoad::new(vec![]).unwrap()
        } else {
            let burst = synthetic::generate(
                &SyntheticConfig::paper_default(n, epoch / 2),
                &net,
                &mut rng,
            );
            // Re-number so ids never collide across epochs; keep a random
            // subset to vary intensity.
            let flows: Vec<Flow> = burst
                .flows()
                .iter()
                .filter(|_| rng.gen_bool(0.4))
                .map(|f| {
                    let id = next_id;
                    next_id += 1;
                    Flow {
                        id: octopus_mhs::traffic::FlowId(id),
                        size: f.size,
                        routes: f.routes.clone(),
                    }
                })
                .collect();
            TrafficLoad::new(flows).unwrap()
        };
        let a = octopus.run_epoch(&arrivals).expect("valid arrivals");
        let h = hysteresis.run_epoch(&arrivals).expect("valid arrivals");
        println!(
            "{e:>5} | {:>8} | {:>15} {:>7} | {:>17} {:>8}",
            a.arrived, a.delivered, a.backlog, h.delivered, h.backlog
        );
    }
    println!(
        "\nlifetime goodput: octopus-online {:.1}%, hysteresis {:.1}%",
        octopus.lifetime_goodput() * 100.0,
        hysteresis.lifetime_goodput() * 100.0
    );
    println!(
        "remaining backlog: octopus-online {}, hysteresis {}",
        octopus.backlog_packets(),
        hysteresis.backlog_packets()
    );
}
