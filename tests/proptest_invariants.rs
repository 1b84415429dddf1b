//! Property-based invariants across the whole stack: random small fabrics
//! and loads, checking schedule validity, packet conservation, objective
//! accounting and monotonicity.

use octopus_mhs::core::{
    best_configuration, duplex::GeneralMatcherKind, octopus, AlphaSearch, BipartiteFabric,
    CandidateExtension, DuplexFabric, Fabric, FusedBounds, HopWeighting, KPortFabric, LinkQueues,
    LocalFabric, MatchingKind, OctopusConfig, RemainingTraffic, ScheduleEngine, SearchPolicy,
};
use octopus_mhs::matching::{matching_weight, maximum_weight_matching, WeightedBipartiteGraph};
use octopus_mhs::net::duplex::DuplexNetwork;
use octopus_mhs::net::{topology, Configuration, Schedule};
use octopus_mhs::sim::{resolve, SimConfig, Simulator};
use octopus_mhs::traffic::{Flow, FlowId, Route, TrafficLoad};
use proptest::prelude::*;

/// Strategy: a small complete fabric plus a random single-route load on it.
fn instance() -> impl Strategy<Value = (u32, TrafficLoad, u64, u64)> {
    (4u32..10)
        .prop_flat_map(|n| {
            let flows =
                prop::collection::vec((0u32..n, 0u32..n, 1u64..80, 0u32..3u32, 0u32..n), 1..12);
            (Just(n), flows, 200u64..1500, 0u64..40)
        })
        .prop_map(|(n, raw, window, delta)| {
            let mut flows = Vec::new();
            let mut id = 0u64;
            for (src, dst, size, extra_hops, via) in raw {
                if src == dst {
                    continue;
                }
                // Build a route of 1..=3 hops through distinct nodes.
                let mut nodes = vec![src];
                if extra_hops >= 1 && via != src && via != dst {
                    nodes.push(via);
                }
                if extra_hops >= 2 {
                    let w = (via + 1) % n;
                    if w != src && w != dst && !nodes.contains(&w) {
                        nodes.push(w);
                    }
                }
                nodes.push(dst);
                if let Ok(route) = Route::from_ids(nodes) {
                    flows.push(Flow::single(FlowId(id), size, route));
                    id += 1;
                }
            }
            (
                n,
                TrafficLoad::new(flows).expect("sequential ids"),
                window,
                delta,
            )
        })
        .prop_filter(
            "need at least one flow and room for a config",
            |(_, load, w, d)| !load.is_empty() && *w > *d + 1,
        )
}

/// One Octopus window planned by [`ScheduleEngine::plan_window`]: the
/// schedule, ψ bits and solve count.
fn plan_once(n: u32, load: &TrafficLoad, window: u64, delta: u64) -> (Schedule, u64, usize) {
    let mut tr = RemainingTraffic::new(load, HopWeighting::Uniform).unwrap();
    let mut fabric = BipartiteFabric {
        kind: MatchingKind::Exact,
    };
    let run = ScheduleEngine::new(&mut tr, n, delta)
        .plan_window(&mut fabric, &SearchPolicy::exhaustive(), window)
        .unwrap();
    (
        run.schedule,
        tr.planned_psi().to_bits(),
        run.matchings_computed,
    )
}

/// [`plan_once`]'s window, planned by the same greedy loop as
/// `plan_window`, but each select and commit is separated by a select and
/// commit of a second engine over `other` on the same thread. The second
/// engine starts over whenever its own window is spent.
fn plan_interleaved(
    n: u32,
    load: &TrafficLoad,
    window: u64,
    delta: u64,
    other: &(u32, TrafficLoad, u64, u64),
) -> (Schedule, u64, usize) {
    let fabric = BipartiteFabric {
        kind: MatchingKind::Exact,
    };
    let policy = SearchPolicy::exhaustive();
    let (other_n, other_load, other_window, other_delta) = other;
    let fresh_other = || {
        let tr = RemainingTraffic::new(other_load, HopWeighting::Uniform).unwrap();
        (ScheduleEngine::new(tr, *other_n, *other_delta), 0u64)
    };
    let (mut second, mut second_used) = fresh_other();
    let tr = RemainingTraffic::new(load, HopWeighting::Uniform).unwrap();
    let mut engine = ScheduleEngine::new(tr, n, delta);
    let (mut schedule, mut used, mut computed) = (Schedule::new(), 0u64, 0usize);
    while !engine.is_drained() && used + delta < window {
        let choice = engine.select(
            &fabric,
            window - used - delta,
            CandidateExtension::None,
            &policy,
        );
        let budget = other_window.saturating_sub(second_used + other_delta);
        match second.select(&fabric, budget, CandidateExtension::None, &policy) {
            Some(c) => {
                second.commit(&fabric, &c.matching, c.alpha).unwrap();
                second_used += c.alpha + other_delta;
            }
            None => (second, second_used) = fresh_other(),
        }
        let Some(choice) = choice else {
            break;
        };
        computed += choice.matchings_computed;
        let matching = engine
            .commit(&fabric, &choice.matching, choice.alpha)
            .unwrap();
        schedule.push(Configuration::new(matching, choice.alpha));
        used += choice.alpha + delta;
    }
    let psi = engine.source().planned_psi();
    (schedule, psi.to_bits(), computed)
}

/// Plans one window on `fabric` with the greedy loop of `plan_window`,
/// panicking unless every select's claimed benefit equals the ψ its commit
/// adds (relative 1e-9).
fn claims_are_realized(
    n: u32,
    load: &TrafficLoad,
    weighting: HopWeighting,
    window: u64,
    delta: u64,
    fabric: &mut dyn Fabric,
    label: &str,
) {
    let tr = RemainingTraffic::new(load, weighting).unwrap();
    let mut engine = ScheduleEngine::new(tr, n, delta);
    let policy = SearchPolicy::exhaustive();
    let mut used = 0u64;
    while !engine.is_drained() && used + delta < window {
        let budget = window - used - delta;
        let Some(choice) = engine.select(&*fabric, budget, fabric.extension(), &policy) else {
            break;
        };
        let before = engine.source().planned_psi();
        engine
            .commit(&*fabric, &choice.matching, choice.alpha)
            .unwrap();
        fabric.committed(&choice.matching);
        let realized = engine.source().planned_psi() - before;
        assert!(
            (choice.benefit - realized).abs() <= 1e-9 * choice.benefit.abs().max(realized.abs()),
            "{} under {:?}: claimed {} but the commit realized {}",
            label,
            weighting,
            choice.benefit,
            realized
        );
        used += choice.alpha + delta;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn claimed_benefit_is_realized_on_every_fabric(
        (n, load, window, delta) in instance(),
    ) {
        // A configuration serves each packet at most one hop, so a
        // configuration's benefit is exactly the g of its own links. A
        // fabric that claims more (say, by counting packets an earlier
        // K-port round would forward onto a later round's link) misleads
        // the α-search about what it commits.
        let duplex = DuplexNetwork::from_edges(
            n,
            (0..n).flat_map(|a| (a + 1..n).map(move |b| (a, b))),
        )
        .unwrap();
        let hops = load.max_route_hops().max(1);
        for weighting in [HopWeighting::Uniform, HopWeighting::EpsilonLater { eps: 0.1 }] {
            let scale = match weighting {
                HopWeighting::Uniform => octopus_mhs::traffic::weight::weight_scale(hops) as f64,
                HopWeighting::EpsilonLater { .. } => (1u64 << 20) as f64,
            };
            let exact = MatchingKind::Exact;
            let mut fabrics: Vec<(String, Box<dyn Fabric + '_>)> = vec![
                ("bipartite".into(), Box::new(BipartiteFabric { kind: exact })),
                (
                    "local".into(),
                    Box::new(LocalFabric { kind: exact, delta, prev: Default::default() }),
                ),
                (
                    "duplex".into(),
                    Box::new(DuplexFabric {
                        net: &duplex,
                        matcher: GeneralMatcherKind::ExactBlossom,
                        scale,
                    }),
                ),
            ];
            for r in 1..=3 {
                fabrics.push((format!("kport r = {r}"), Box::new(KPortFabric { kind: exact, r })));
            }
            for (label, fabric) in &mut fabrics {
                claims_are_realized(n, &load, weighting, window, delta, &mut **fabric, label);
            }
        }
    }

    #[test]
    fn octopus_schedules_are_valid_and_conservative(
        (n, load, window, delta) in instance()
    ) {
        let net = topology::complete(n);
        let cfg = OctopusConfig { window, delta, ..OctopusConfig::default() };
        let out = octopus(&net, &load, &cfg).unwrap();

        // Schedule validity: matchings in the fabric, positive alphas,
        // window respected.
        out.schedule.validate(Some(&net)).unwrap();
        prop_assert!(out.schedule.total_cost(delta) <= window);

        // Simulator conservation (with the default within-configuration
        // chaining, which may deviate from the plan in either direction).
        let sim = Simulator::new(
            Some(&net),
            resolve(&load).unwrap(),
            SimConfig { delta, ..SimConfig::default() },
        ).unwrap();
        let r = sim.run(&out.schedule).unwrap();
        prop_assert!(r.conserves_packets());
        prop_assert!(r.delivered <= load.total_packets());

        // Under NextConfigOnly forwarding the simulator implements exactly
        // the plan's bookkeeping semantics: psi and delivered must agree.
        let sim_plan = Simulator::new(
            Some(&net),
            resolve(&load).unwrap(),
            SimConfig {
                delta,
                forwarding: octopus_mhs::sim::ForwardingMode::NextConfigOnly,
                ..SimConfig::default()
            },
        ).unwrap();
        let rp = sim_plan.run(&out.schedule).unwrap();
        prop_assert!(
            (rp.psi - out.planned_psi).abs() < 1e-6,
            "plan psi {} vs NextConfigOnly sim psi {}", out.planned_psi, rp.psi
        );
        prop_assert_eq!(rp.delivered, out.planned_delivered);
    }

    #[test]
    fn psi_is_monotone_under_schedule_extension(
        (n, load, window, delta) in instance()
    ) {
        let net = topology::complete(n);
        let cfg = OctopusConfig { window, delta, ..OctopusConfig::default() };
        let out = octopus(&net, &load, &cfg).unwrap();
        let sim = Simulator::new(
            Some(&net),
            resolve(&load).unwrap(),
            SimConfig { delta, ..SimConfig::default() },
        ).unwrap();
        // Every prefix of the schedule has psi <= the full schedule's psi.
        let configs: Vec<Configuration> = out.schedule.configs().to_vec();
        let mut prev = 0.0;
        for k in 0..=configs.len() {
            let prefix = Schedule::from(configs[..k].to_vec());
            let r = sim.run(&prefix).unwrap();
            prop_assert!(r.psi + 1e-9 >= prev, "psi dropped: {} -> {}", prev, r.psi);
            prev = r.psi;
        }
    }

    #[test]
    fn delivered_never_exceeds_psi_headroom(
        (n, load, window, delta) in instance()
    ) {
        // Every delivered packet contributes its full weight (1.0 summed
        // over hops) to psi, so delivered <= psi + epsilon.
        let net = topology::complete(n);
        let cfg = OctopusConfig { window, delta, ..OctopusConfig::default() };
        let out = octopus(&net, &load, &cfg).unwrap();
        let sim = Simulator::new(
            Some(&net),
            resolve(&load).unwrap(),
            SimConfig { delta, ..SimConfig::default() },
        ).unwrap();
        let r = sim.run(&out.schedule).unwrap();
        prop_assert!(r.delivered as f64 <= r.psi + 1e-6);
    }

    #[test]
    fn incremental_queue_patching_matches_full_rebuild(
        (n, load, window, delta) in instance()
    ) {
        // Drive the engine one commit at a time; after every commit the
        // incrementally patched snapshot must be identical to a cold one
        // (same links, and the same classes and g, bit for bit).
        let mut tr = RemainingTraffic::new(&load, HopWeighting::Uniform).unwrap();
        let fabric = BipartiteFabric { kind: MatchingKind::Exact };
        let policy = SearchPolicy::exhaustive();
        let mut engine = ScheduleEngine::new(&mut tr, n, delta);
        let mut used = 0u64;
        while !engine.is_drained() && used + delta < window {
            let budget = window - used - delta;
            let Some(choice) = engine.select(&fabric, budget, CandidateExtension::None, &policy)
            else {
                break;
            };
            engine.commit(&fabric, &choice.matching, choice.alpha).unwrap();
            used += choice.alpha + delta;

            let rebuilt = LinkQueues::from_source(engine.source(), n);
            let patched = engine.queues();
            let patched_links: Vec<(u32, u32)> = patched.links().collect();
            let rebuilt_links: Vec<(u32, u32)> = rebuilt.links().collect();
            prop_assert_eq!(&patched_links, &rebuilt_links);
            for (i, j) in rebuilt_links {
                let p = patched.queue(i, j).unwrap();
                let r = rebuilt.queue(i, j).unwrap();
                let bits = |c: &[(f64, u64)]| -> Vec<(u64, u64)> {
                    c.iter().map(|&(w, k)| (w.to_bits(), k)).collect()
                };
                prop_assert_eq!(
                    bits(p.classes()), bits(r.classes()), "classes differ on ({}, {})", i, j
                );
                for alpha in [1u64, 2, 5, choice.alpha.max(1)] {
                    prop_assert_eq!(
                        p.g(alpha).to_bits(), r.g(alpha).to_bits(),
                        "g differs on ({}, {}) at alpha {}", i, j, alpha
                    );
                }
            }
        }
    }

    #[test]
    fn alpha_search_is_identical_on_any_thread_and_workspace(
        (n, load, window, delta) in instance(),
        other in instance(),
    ) {
        // The search keeps its solver, the topology loaded into it (keyed
        // by a sweep id that workspace issues) and its scratch buffers in a
        // per-thread workspace; weight columns live in a block each select
        // owns. None of it may leak into a plan: the same window must come
        // out the same — schedule, ψ bits and solve count — when planned
        // twice on one thread, on a fresh thread with an empty workspace,
        // and one select at a time between the selects of a second engine
        // over different traffic on the same thread.
        let first = plan_once(n, &load, window, delta);
        prop_assert_eq!(&plan_once(n, &load, window, delta), &first, "second run");
        let fresh = std::thread::scope(|s| {
            s.spawn(|| plan_once(n, &load, window, delta))
                .join()
                .expect("planning thread panicked")
        });
        prop_assert_eq!(&fresh, &first, "fresh thread");
        let interleaved = plan_interleaved(n, &load, window, delta, &other);
        prop_assert_eq!(&interleaved, &first, "interleaved with a second engine");
    }

    #[test]
    fn tied_psi_rates_resolve_identically_across_paths(
        small in 1u64..40,
        factor in 2u64..6,
    ) {
        // Hand-crafted tie: two disjoint unit-weight links with counts c and
        // f·c, Δ = c. The candidate αs are {c, f·c} and both score exactly 1:
        //   α = c:    (c + c) / (c + Δ)     = 2c / 2c        = 1
        //   α = f·c:  (c + f·c) / (f·c + Δ) = c(1+f) / c(f+1) = 1
        // (bit-exact in f64: numerator equals denominator in both cases).
        // The exhaustive best-first search and the ternary search visit the
        // two candidates in different orders; the strict order must pick
        // the smaller α on both.
        let c = small;
        let big = c * factor;
        let delta = c;
        let q = LinkQueues::from_weighted_counts(
            4,
            [((0u32, 1u32), 1.0, c), ((2u32, 3u32), 1.0, big)],
        );
        let s1 = (c + c) as f64 / (c + delta) as f64;
        let s2 = (c + big) as f64 / (big + delta) as f64;
        prop_assert_eq!(s1.to_bits(), s2.to_bits());
        let exhaustive = best_configuration(
            &q, delta, u64::MAX, AlphaSearch::Exhaustive, MatchingKind::Exact, false,
        ).unwrap();
        let binary = best_configuration(
            &q, delta, u64::MAX, AlphaSearch::Binary, MatchingKind::Exact, false,
        ).unwrap();
        // Both paths must take the α tie-break: the smaller candidate.
        prop_assert_eq!(exhaustive.alpha, c);
        prop_assert_eq!(binary.alpha, c);
        prop_assert_eq!(exhaustive.matching, binary.matching);
        prop_assert_eq!(exhaustive.score.to_bits(), binary.score.to_bits());
    }

    #[test]
    fn multi_alpha_sweep_matches_per_alpha_derivation(
        (n, load, _window, _delta) in instance(),
        cap in 2u64..600,
    ) {
        // The batched sweep must reproduce, per candidate α, exactly the
        // edge list of the one-α-at-a-time derivation and the bound
        // min(Σᵢ maxⱼ g, Σⱼ maxᵢ g) recomputed here from g — bit-for-bit,
        // since the α search compares and prunes on these numbers — and the
        // bound must dominate the column's exact matching weight.
        let tr = RemainingTraffic::new(&load, HopWeighting::Uniform).unwrap();
        let queues = tr.link_queues(n);
        let candidates = queues.alpha_candidates(cap);
        let sweep = queues.weighted_edges_multi(&candidates);
        prop_assert_eq!(sweep.alphas(), &candidates[..]);
        let mut bounds = FusedBounds::default();
        sweep.fused_bounds(&mut bounds);
        for (k, &alpha) in candidates.iter().enumerate() {
            let positive: Vec<(u32, u32, f64)> = queues
                .links()
                .map(|(i, j)| (i, j, queues.g(i, j, alpha)))
                .filter(|&(_, _, w)| w > 0.0)
                .collect();
            prop_assert_eq!(sweep.edge_list(k), positive);
            let (mut row_max, mut col_max) = (vec![0.0f64; n as usize], vec![0.0f64; n as usize]);
            for (i, j) in queues.links() {
                let g = queues.g(i, j, alpha);
                row_max[i as usize] = row_max[i as usize].max(g);
                col_max[j as usize] = col_max[j as usize].max(g);
            }
            let rs: f64 = row_max.iter().sum();
            let bound = rs.min(col_max.iter().sum());
            prop_assert_eq!(
                bounds.row_col[k].to_bits(),
                bound.to_bits(),
                "upper bound differs at alpha {}", alpha
            );
            let g = WeightedBipartiteGraph::from_tuples(n, n, sweep.edge_list(k));
            let exact = matching_weight(&g, &maximum_weight_matching(&g));
            prop_assert!(
                bounds.row_col[k] + 1e-9 >= exact,
                "bound {} below the exact matching weight {} at alpha {}",
                bounds.row_col[k], exact, alpha
            );
        }
    }

    #[test]
    fn batched_select_matches_legacy_per_alpha_evaluation(
        (n, load, window, delta) in instance(),
    ) {
        // `ScheduleEngine::select` searches the batched sweep of every
        // candidate under its bounds; `ScheduleEngine::evaluate` solves a
        // sweep of one α, unbounded. For every kernel kind the winner must
        // carry that one-α evaluation's exact matching and benefit, and
        // must dominate every candidate's one-α score (i.e. pruning on the
        // batched bounds never discards the true winner).
        let scale = octopus_mhs::traffic::weight::weight_scale(
            load.max_route_hops().max(1),
        );
        for kind in [
            MatchingKind::Exact,
            MatchingKind::GreedySort,
            MatchingKind::BucketGreedy { scale },
        ] {
            let mut tr = RemainingTraffic::new(&load, HopWeighting::Uniform).unwrap();
            let fabric = BipartiteFabric { kind };
            let mut engine = ScheduleEngine::new(&mut tr, n, delta);
            let budget = window.saturating_sub(delta).max(1);
            let candidates = engine.candidates(budget, CandidateExtension::None);
            let selected =
                engine.select(&fabric, budget, CandidateExtension::None, &SearchPolicy::exhaustive());
            match selected {
                Some(sel) => {
                    let legacy = engine.evaluate(&fabric, sel.alpha);
                    prop_assert_eq!(&sel.matching, &legacy.matching, "kind {:?}", kind);
                    prop_assert_eq!(sel.benefit.to_bits(), legacy.benefit.to_bits());
                    prop_assert_eq!(sel.score.to_bits(), legacy.score.to_bits());
                    for alpha in candidates {
                        let other = engine.evaluate(&fabric, alpha);
                        prop_assert!(
                            other.score.total_cmp(&sel.score).is_le(),
                            "legacy eval at alpha {} out-scores the batched winner", alpha
                        );
                    }
                }
                None => {
                    for alpha in candidates {
                        prop_assert!(engine.evaluate(&fabric, alpha).benefit <= 0.0);
                    }
                }
            }
        }
    }

    #[test]
    fn local_fabric_sweep_matches_legacy_evaluation(
        (n, load, window, delta) in instance(),
    ) {
        // The persistence-aware fabric sweeps g(i, j, α + Δ) on links carried
        // over from the previous matching; each step's winner must agree with
        // the one-α evaluation at the same α and `prev` set.
        let mut tr = RemainingTraffic::new(&load, HopWeighting::Uniform).unwrap();
        let mut fabric = LocalFabric {
            kind: MatchingKind::Exact,
            delta,
            prev: std::collections::HashSet::new(),
        };
        let policy = SearchPolicy {
            prefer_larger_alpha: true,
            ..SearchPolicy::exhaustive()
        };
        let mut engine = ScheduleEngine::new(&mut tr, n, delta);
        let mut used = 0u64;
        for _ in 0..3 {
            if engine.is_drained() || used + delta >= window {
                break;
            }
            let budget = window - used - delta;
            let Some(sel) =
                engine.select(&fabric, budget, CandidateExtension::ShiftDown(delta), &policy)
            else {
                break;
            };
            let legacy = engine.evaluate(&fabric, sel.alpha);
            prop_assert_eq!(&sel.matching, &legacy.matching);
            prop_assert_eq!(sel.benefit.to_bits(), legacy.benefit.to_bits());
            engine.commit(&fabric, &sel.matching, sel.alpha).unwrap();
            fabric.prev = sel.matching.iter().copied().collect();
            used += sel.alpha + delta;
        }
    }

    #[test]
    fn variants_respect_the_same_invariants(
        (n, load, window, delta) in instance()
    ) {
        let net = topology::complete(n);
        let base = OctopusConfig { window, delta, ..OctopusConfig::default() };
        for cfg in [base.octopus_b(), base.octopus_g(load.max_route_hops().max(1))] {
            let out = octopus(&net, &load, &cfg).unwrap();
            out.schedule.validate(Some(&net)).unwrap();
            prop_assert!(out.schedule.total_cost(delta) <= window);
            prop_assert!(out.planned_delivered <= load.total_packets());
        }
    }
}
