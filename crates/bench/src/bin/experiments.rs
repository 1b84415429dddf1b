//! Experiment harness: one subcommand per figure of the paper's evaluation.
//!
//! ```text
//! experiments <fig4|fig5|fig6|fig7a|fig7b|fig8|fig9a|fig9b|fig10a|fig10b|all|probe>
//!             [--instances N] [--seed S] [--out DIR] [--n N] [--window W] [--full]
//! ```
//!
//! Tables print to stdout; CSV lands in `--out` (default `results/`).
//! `--full` uses the paper's exact sweep ranges and 10 instances per point —
//! expect hours on a small machine; the defaults are trimmed to stay
//! tractable while preserving every trend.

use octopus_bench::runners::*;
use octopus_bench::table::Series;
use octopus_bench::{Env, Metrics};
use octopus_core::{octopus, MatchingKind};
use octopus_net::topology;
use octopus_traffic::{synthetic, synthetic::SyntheticConfig, traces::TraceKind};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

struct Opts {
    instances: u32,
    seed: u64,
    out: String,
    n: u32,
    window: u64,
    full: bool,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!("usage: experiments <fig4|fig5|fig6|fig7a|fig7b|fig8|fig9a|fig9b|fig10a|fig10b|all|probe> [--instances N] [--seed S] [--out DIR] [--n N] [--window W] [--full]");
        std::process::exit(2);
    }
    let cmd = args[0].clone();
    let mut opts = Opts {
        instances: 5,
        seed: 0xC0_FFEE,
        out: "results".into(),
        n: 100,
        window: 10_000,
        full: false,
    };
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--instances" => {
                opts.instances = args[i + 1].parse().expect("--instances N");
                i += 2;
            }
            "--seed" => {
                opts.seed = args[i + 1].parse().expect("--seed S");
                i += 2;
            }
            "--out" => {
                opts.out = args[i + 1].clone();
                i += 2;
            }
            "--n" => {
                opts.n = args[i + 1].parse().expect("--n N");
                i += 2;
            }
            "--window" => {
                opts.window = args[i + 1].parse().expect("--window W");
                i += 2;
            }
            "--full" => {
                opts.full = true;
                opts.instances = 10;
                i += 1;
            }
            other => {
                eprintln!("unknown option {other}");
                std::process::exit(2);
            }
        }
    }
    std::fs::create_dir_all(&opts.out).expect("create output dir");

    let t0 = Instant::now();
    let series: Vec<Series> = match cmd.as_str() {
        "probe" => {
            probe(&opts);
            Vec::new()
        }
        "fig4" | "fig5" => fig45(&opts),
        "fig6" => fig6(&opts),
        "fig7a" => fig7a(&opts),
        "fig7b" => fig7b(&opts),
        "fig8" => fig8(&opts),
        "fig9a" => fig9a(&opts),
        "fig9b" => fig9b(&opts),
        "fig10a" => fig10a(&opts),
        "fig10b" => fig10b(&opts),
        "ext-local" => ext_local(&opts),
        "all" => {
            let mut all = Vec::new();
            all.extend(fig45(&opts));
            all.extend(fig6(&opts));
            all.extend(fig7a(&opts));
            all.extend(fig7b(&opts));
            all.extend(fig8(&opts));
            all.extend(fig9a(&opts));
            all.extend(fig9b(&opts));
            all.extend(fig10a(&opts));
            all.extend(fig10b(&opts));
            all.extend(ext_local(&opts));
            all
        }
        other => {
            eprintln!("unknown subcommand {other}");
            std::process::exit(2);
        }
    };

    for s in &series {
        println!("{}", s.render(|m| m.delivered, "packets delivered"));
        if s.id.starts_with("fig4") || s.id.starts_with("fig8") || s.id == "fig6" {
            // Figure 5 plots the link utilization of the Figure 4 runs.
            println!("{}", s.render(|m| m.utilization, "link utilization"));
        }
        if s.id == "fig7a" {
            println!("{}", s.render(|m| m.delivered_over_psi, "delivered / psi"));
        }
        std::fs::write(format!("{}/{}.csv", opts.out, s.id), s.to_csv()).expect("write csv");
    }
    eprintln!("[experiments] {cmd} done in {:.1?}", t0.elapsed());
}

/// Extension experiment (not in the paper): localized reconfiguration.
/// Both planners are measured under localized hardware
/// (`ReconfigModel::Localized`); plain Octopus under *global* hardware is
/// the reference line. Gains grow with Δ, since that is the time persistent
/// links win back.
fn ext_local(opts: &Opts) -> Vec<Series> {
    use octopus_core::local::octopus_local;
    use octopus_sim::{ReconfigModel, SimConfig, Simulator};
    let base = env(opts);
    let deltas: &[u64] = if opts.full {
        &[10, 20, 50, 100, 200, 500]
    } else {
        &[20, 100, 500]
    };
    let mut s = Series::new(
        "ext-local",
        "Extension: localized reconfiguration (Octopus-L vs Octopus)",
        "delta",
        &[
            "Octopus (global hw)",
            "Octopus (local hw)",
            "Octopus-L (local hw)",
        ],
    );
    for &d in deltas {
        let e = Env { delta: d, ..base };
        eprintln!("[ext-local] delta={d}");
        let run = |i: u32, local_planner: bool, local_hw: bool| -> Metrics {
            let inst = synthetic_instance(&e, i, |c| c);
            let out = if local_planner {
                octopus_local(&inst.net, &inst.load, &e.octopus_cfg()).expect("valid")
            } else {
                octopus(&inst.net, &inst.load, &e.octopus_cfg()).expect("valid")
            };
            let sim = Simulator::new(
                Some(&inst.net),
                octopus_sim::resolve(&inst.load).expect("single-route"),
                SimConfig {
                    delta: d,
                    reconfig: if local_hw {
                        ReconfigModel::Localized
                    } else {
                        ReconfigModel::Global
                    },
                    ..SimConfig::default()
                },
            )
            .expect("valid");
            let r = sim.run(&out.schedule).expect("fits");
            Metrics {
                delivered: r.delivered_fraction(),
                utilization: r.link_utilization(),
                delivered_over_psi: r.delivered_over_psi(),
                psi_fraction: 0.0,
            }
        };
        let global_hw = avg(&e, |i| run(i, false, false));
        let global_plan_local_hw = avg(&e, |i| run(i, false, true));
        let local_plan_local_hw = avg(&e, |i| run(i, true, true));
        s.push(
            &d,
            vec![global_hw, global_plan_local_hw, local_plan_local_hw],
        );
    }
    vec![s]
}

fn env(opts: &Opts) -> Env {
    Env {
        n: opts.n,
        window: opts.window,
        delta: 20,
        instances: opts.instances,
        seed: opts.seed,
    }
}

/// Quick timing probe: one Octopus run at the paper's default scale.
fn probe(opts: &Opts) {
    let e = env(opts);
    let inst = synthetic_instance(&e, 0, |c| c);
    eprintln!(
        "[probe] n={} W={} delta={} flows={} packets={}",
        e.n,
        e.window,
        e.delta,
        inst.load.len(),
        inst.load.total_packets()
    );
    let t = Instant::now();
    let out = octopus(&inst.net, &inst.load, &e.octopus_cfg()).unwrap();
    eprintln!(
        "[probe] octopus: {:.2?} ({} iterations, {} matchings, planned {:.1}%)",
        t.elapsed(),
        out.iterations,
        out.matchings_computed,
        100.0 * out.planned_delivered as f64 / inst.load.total_packets() as f64
    );
    let t = Instant::now();
    let m = run_octopus(&e, &inst, &e.octopus_cfg());
    eprintln!(
        "[probe] octopus+sim: {:.2?} delivered {:.1}% util {:.1}%",
        t.elapsed(),
        m.delivered * 100.0,
        m.utilization * 100.0
    );
    let t = Instant::now();
    let m = run_eclipse_based(&e, &inst);
    eprintln!(
        "[probe] eclipse-based: {:.2?} delivered {:.1}%",
        t.elapsed(),
        m.delivered * 100.0
    );
    let t = Instant::now();
    let m = run_ub(&e, &inst);
    eprintln!(
        "[probe] ub: {:.2?} delivered {:.1}%",
        t.elapsed(),
        m.delivered * 100.0
    );
}

/// Averages a per-instance closure over `env.instances` runs.
fn avg(env: &Env, mut f: impl FnMut(u32) -> Metrics) -> Metrics {
    let samples: Vec<Metrics> = (0..env.instances).map(&mut f).collect();
    Metrics::mean(&samples)
}

const COLS_MAIN: [&str; 4] = ["Octopus", "Eclipse-Based", "UB", "Absolute"];

fn point_main(e: &Env, tweak: impl Fn(SyntheticConfig) -> SyntheticConfig + Copy) -> Vec<Metrics> {
    let oct = avg(e, |i| {
        run_octopus(e, &synthetic_instance(e, i, tweak), &e.octopus_cfg())
    });
    let ecl = avg(e, |i| {
        run_eclipse_based(e, &synthetic_instance(e, i, tweak))
    });
    let ub = avg(e, |i| run_ub(e, &synthetic_instance(e, i, tweak)));
    let abs = avg(e, |i| {
        run_absolute_bound(e, &synthetic_instance(e, i, tweak))
    });
    vec![oct, ecl, ub, abs]
}

/// Figures 4 and 5 share runs: packets delivered (%) and link utilization
/// (%) for four sweeps.
fn fig45(opts: &Opts) -> Vec<Series> {
    let base = env(opts);
    let mut out = Vec::new();

    // (a) number of nodes.
    let nodes: &[u32] = if opts.full {
        &[25, 50, 100, 150, 200, 250, 300]
    } else {
        &[25, 50, 100, 200, 300]
    };
    let mut s = Series::new(
        "fig4a",
        "Fig 4(a)/5(a): varying number of nodes",
        "nodes",
        &COLS_MAIN,
    );
    for &n in nodes {
        let e = Env { n, ..base };
        eprintln!("[fig4a] n={n}");
        s.push(&n, point_main(&e, |c| c));
    }
    out.push(s);

    // (b) reconfiguration delay.
    let deltas: &[u64] = if opts.full {
        &[1, 5, 10, 20, 50, 100, 200, 500, 1000]
    } else {
        &[1, 10, 20, 50, 100, 500, 1000]
    };
    let mut s = Series::new(
        "fig4b",
        "Fig 4(b)/5(b): varying reconfiguration delay",
        "delta",
        &COLS_MAIN,
    );
    for &d in deltas {
        let e = Env { delta: d, ..base };
        eprintln!("[fig4b] delta={d}");
        s.push(&d, point_main(&e, |c| c));
    }
    out.push(s);

    // (c) skew: c_S as % of total.
    let skews: &[u32] = &[0, 10, 20, 30, 40, 50];
    let mut s = Series::new(
        "fig4c",
        "Fig 4(c)/5(c): varying traffic skew (c_S %)",
        "skew%",
        &COLS_MAIN,
    );
    for &k in skews {
        eprintln!("[fig4c] skew={k}%");
        let frac = k as f64 / 100.0;
        s.push(&k, point_main(&base, move |c| c.with_skew(frac)));
    }
    out.push(s);

    // (d) sparsity: flows per port.
    let sparsity: &[u32] = &[4, 8, 16, 24, 32];
    let mut s = Series::new(
        "fig4d",
        "Fig 4(d)/5(d): varying sparsity (flows/port)",
        "flows",
        &COLS_MAIN,
    );
    for &k in sparsity {
        eprintln!("[fig4d] flows/port={k}");
        s.push(&k, point_main(&base, move |c| c.with_flows_per_port(k)));
    }
    out.push(s);
    out
}

/// Figure 6: trace-like workloads.
fn fig6(opts: &Opts) -> Vec<Series> {
    let e = env(opts);
    let mut s = Series::new(
        "fig6",
        "Fig 6: Facebook / Microsoft trace-like workloads",
        "trace",
        &COLS_MAIN,
    );
    for kind in TraceKind::ALL {
        eprintln!("[fig6] {}", kind.label());
        let oct = avg(&e, |i| {
            run_octopus(&e, &trace_instance(&e, i, kind), &e.octopus_cfg())
        });
        let ecl = avg(&e, |i| run_eclipse_based(&e, &trace_instance(&e, i, kind)));
        let ub = avg(&e, |i| run_ub(&e, &trace_instance(&e, i, kind)));
        let abs = avg(&e, |i| run_absolute_bound(&e, &trace_instance(&e, i, kind)));
        s.push(&kind.label(), vec![oct, ecl, ub, abs]);
    }
    vec![s]
}

/// Figure 7(a): delivered packets as % of ψ, for varying Δ.
fn fig7a(opts: &Opts) -> Vec<Series> {
    let base = env(opts);
    let deltas: &[u64] = if opts.full {
        &[1, 5, 10, 20, 50, 100, 200, 500, 1000]
    } else {
        &[1, 10, 20, 100, 500]
    };
    let mut s = Series::new(
        "fig7a",
        "Fig 7(a): delivered / psi for varying reconfiguration delay",
        "delta",
        &["Octopus", "Eclipse-Based", "UB"],
    );
    for &d in deltas {
        let e = Env { delta: d, ..base };
        eprintln!("[fig7a] delta={d}");
        let oct = avg(&e, |i| {
            run_octopus(&e, &synthetic_instance(&e, i, |c| c), &e.octopus_cfg())
        });
        let ecl = avg(&e, |i| {
            run_eclipse_based(&e, &synthetic_instance(&e, i, |c| c))
        });
        let ub = avg(&e, |i| run_ub(&e, &synthetic_instance(&e, i, |c| c)));
        s.push(&d, vec![oct, ecl, ub]);
    }
    vec![s]
}

/// Figure 7(b): uniform route lengths 1–3, Octopus vs Octopus-e vs UB.
fn fig7b(opts: &Opts) -> Vec<Series> {
    let base = env(opts);
    let mut s = Series::new(
        "fig7b",
        "Fig 7(b): uniform route length, Octopus vs Octopus-e vs UB",
        "hops",
        &["Octopus", "Octopus-e", "UB"],
    );
    for hops in 1..=3u32 {
        eprintln!("[fig7b] hops={hops}");
        let tweak = move |c: SyntheticConfig| c.with_uniform_route_length(hops);
        let oct = avg(&base, |i| {
            run_octopus(
                &base,
                &synthetic_instance(&base, i, tweak),
                &base.octopus_cfg(),
            )
        });
        let e_cfg = base.octopus_cfg().octopus_e(0.05);
        let octe = avg(&base, |i| {
            let inst = synthetic_instance(&base, i, tweak);
            run_octopus(&base, &inst, &e_cfg)
        });
        let ub = avg(&base, |i| {
            run_ub(&base, &synthetic_instance(&base, i, tweak))
        });
        s.push(&hops, vec![oct, octe, ub]);
    }
    vec![s]
}

/// Figure 8: Octopus vs RotorNet (delivered + utilization) for varying Δ.
fn fig8(opts: &Opts) -> Vec<Series> {
    let base = env(opts);
    let deltas: &[u64] = if opts.full {
        &[1, 5, 10, 20, 50, 100, 200]
    } else {
        &[1, 10, 20, 50, 100, 200]
    };
    let mut s = Series::new(
        "fig8",
        "Fig 8: Octopus vs RotorNet",
        "delta",
        &["Octopus", "RotorNet"],
    );
    for &d in deltas {
        let e = Env { delta: d, ..base };
        eprintln!("[fig8] delta={d}");
        let oct = avg(&e, |i| {
            run_octopus(&e, &synthetic_instance(&e, i, |c| c), &e.octopus_cfg())
        });
        let rot = avg(&e, |i| run_rotornet(&e, &synthetic_instance(&e, i, |c| c)));
        s.push(&d, vec![oct, rot]);
    }
    vec![s]
}

/// Figure 9(a): Octopus-B vs Octopus for varying Δ.
fn fig9a(opts: &Opts) -> Vec<Series> {
    let base = env(opts);
    let deltas: &[u64] = if opts.full {
        &[1, 5, 10, 20, 50, 100, 200, 500, 1000]
    } else {
        &[1, 10, 20, 100, 500]
    };
    let mut s = Series::new(
        "fig9a",
        "Fig 9(a): Octopus-B vs Octopus",
        "delta",
        &["Octopus", "Octopus-B"],
    );
    for &d in deltas {
        let e = Env { delta: d, ..base };
        eprintln!("[fig9a] delta={d}");
        let oct = avg(&e, |i| {
            run_octopus(&e, &synthetic_instance(&e, i, |c| c), &e.octopus_cfg())
        });
        let b_cfg = e.octopus_cfg().octopus_b();
        let octb = avg(&e, |i| {
            run_octopus(&e, &synthetic_instance(&e, i, |c| c), &b_cfg)
        });
        s.push(&d, vec![oct, octb]);
    }
    vec![s]
}

/// Figure 9(b): Octopus+ vs Octopus-random, 10 route choices per flow.
fn fig9b(opts: &Opts) -> Vec<Series> {
    let base = env(opts);
    let deltas: &[u64] = if opts.full {
        &[1, 5, 10, 20, 50, 100, 200]
    } else {
        &[1, 10, 20, 100]
    };
    let mut s = Series::new(
        "fig9b",
        "Fig 9(b): Octopus+ vs Octopus-random (10 route choices)",
        "delta",
        &["Octopus+", "Octopus-random"],
    );
    for &d in deltas {
        let e = Env { delta: d, ..base };
        eprintln!("[fig9b] delta={d}");
        let point = |i: u32, plus: bool| -> Metrics {
            let mut rng = StdRng::seed_from_u64(e.seed + i as u64);
            let net = topology::complete(e.n);
            let synth = SyntheticConfig::paper_default(e.n, e.window);
            let load = synthetic::generate_with_routes(&synth, &net, &mut rng, 10);
            if plus {
                run_octopus_plus(&e, &net, &load)
            } else {
                run_octopus_random(&e, &net, &load, e.seed ^ (i as u64) << 3)
            }
        };
        let plus = avg(&e, |i| point(i, true));
        let rand = avg(&e, |i| point(i, false));
        s.push(&d, vec![plus, rand]);
    }
    vec![s]
}

/// Figure 10(a): per-iteration execution time, Octopus vs Octopus-G, for
/// increasing network size. Reported in microseconds (one
/// best-configuration call on a fresh instance).
fn fig10a(opts: &Opts) -> Vec<Series> {
    let sizes: &[u32] = if opts.full {
        &[100, 200, 400, 600, 800, 1000]
    } else {
        &[100, 200, 400, 700, 1000]
    };
    let mut s = Series::new(
        "fig10a",
        "Fig 10(a): per-iteration time (table prints milliseconds)",
        "nodes",
        &["Octopus", "Octopus-G"],
    );
    for &n in sizes {
        eprintln!("[fig10a] n={n}");
        let e = Env {
            n,
            window: opts.window,
            delta: 20,
            instances: 1,
            seed: opts.seed,
        };
        let inst = synthetic_instance(&e, 0, |c| c);
        let time_once = |kind: MatchingKind| -> f64 {
            use octopus_core::{best_configuration, AlphaSearch, HopWeighting, RemainingTraffic};
            let tr = RemainingTraffic::new(&inst.load, HopWeighting::Uniform).unwrap();
            let queues = tr.link_queues(n);
            let t = Instant::now();
            let _ = best_configuration(&queues, 20, e.window, AlphaSearch::Exhaustive, kind, false);
            t.elapsed().as_secs_f64() * 1_000.0 // ms
        };
        let exact = time_once(MatchingKind::Exact);
        let greedy = time_once(MatchingKind::BucketGreedy { scale: 12 });
        // Store ms/100 in the delivered field: the percentage renderer
        // multiplies by 100, so the printed number is milliseconds.
        s.push(
            &n,
            vec![
                Metrics {
                    delivered: exact / 100.0,
                    ..Metrics::default()
                },
                Metrics {
                    delivered: greedy / 100.0,
                    ..Metrics::default()
                },
            ],
        );
    }
    vec![s]
}

/// Figure 10(b): Octopus-G vs Octopus delivered % for varying Δ at large n.
fn fig10b(opts: &Opts) -> Vec<Series> {
    let n = if opts.full { 1000 } else { 300 };
    let base = Env {
        n,
        window: opts.window,
        delta: 20,
        instances: opts.instances.min(if opts.full { 2 } else { 3 }),
        seed: opts.seed,
    };
    let deltas: &[u64] = if opts.full {
        &[1, 10, 20, 50, 100]
    } else {
        &[10, 100]
    };
    let mut s = Series::new(
        "fig10b",
        &format!("Fig 10(b): Octopus vs Octopus-G at n={n}"),
        "delta",
        &["Octopus", "Octopus-G"],
    );
    let max_hops = 3;
    for &d in deltas {
        let e = Env { delta: d, ..base };
        eprintln!("[fig10b] delta={d}");
        let oct = avg(&e, |i| {
            run_octopus(&e, &synthetic_instance(&e, i, |c| c), &e.octopus_cfg())
        });
        let g_cfg = e.octopus_cfg().octopus_g(max_hops);
        let octg = avg(&e, |i| {
            run_octopus(&e, &synthetic_instance(&e, i, |c| c), &g_cfg)
        });
        s.push(&d, vec![oct, octg]);
    }
    vec![s]
}
