//! Property-based invariants across the whole stack: random small fabrics
//! and loads, checking schedule validity, packet conservation, objective
//! accounting and monotonicity.

use octopus_mhs::core::{
    best_configuration, octopus, AlphaSearch, BipartiteFabric, CandidateExtension, HopWeighting,
    LinkQueues, LocalFabric, MatchingKind, OctopusConfig, RemainingTraffic, ScheduleEngine,
    SearchPolicy, TrafficSource,
};
use octopus_mhs::matching::{matching_weight, maximum_weight_matching, WeightedBipartiteGraph};
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

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
        // incrementally patched snapshot must be identical to a from-scratch
        // rebuild of the link queues (same links, same classes, same g).
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

            let rebuilt = engine.source().snapshot_queues(n);
            let patched = engine.queues();
            let patched_links: Vec<(u32, u32)> = patched.links().collect();
            let rebuilt_links: Vec<(u32, u32)> = rebuilt.links().collect();
            prop_assert_eq!(&patched_links, &rebuilt_links);
            for (i, j) in rebuilt_links {
                let p = patched.queue(i, j).unwrap();
                let r = rebuilt.queue(i, j).unwrap();
                prop_assert_eq!(p.classes(), r.classes(), "classes differ on ({}, {})", i, j);
                for alpha in [1u64, 2, 5, choice.alpha.max(1)] {
                    prop_assert!(
                        (p.g(alpha) - r.g(alpha)).abs() < 1e-12,
                        "g mismatch on ({}, {}) at alpha {}", i, j, alpha
                    );
                }
            }
        }
    }

    #[test]
    fn parallel_and_sequential_alpha_searches_agree(
        (n, load, _window, delta) in instance()
    ) {
        // The threaded exhaustive search must return the *same* winning
        // configuration as the sequential (pruned) one — same α, same
        // matching, same ψ-rate — for any instance and Δ. The tie-break is a
        // strict total order, so this holds for every worker count and
        // reduction shape. (matchings_computed may differ: pruning skips
        // dominated candidates, the parallel path evaluates all of them.)
        let tr = RemainingTraffic::new(&load, HopWeighting::Uniform).unwrap();
        let queues = tr.link_queues(n);
        for kind in [MatchingKind::Exact, MatchingKind::GreedySort] {
            for cap in [u64::MAX, 64, 7] {
                let seq = best_configuration(
                    &queues, delta, cap, AlphaSearch::Exhaustive, kind, false,
                );
                let par = best_configuration(
                    &queues, delta, cap, AlphaSearch::Exhaustive, kind, true,
                );
                match (seq, par) {
                    (None, None) => {}
                    (Some(s), Some(p)) => {
                        prop_assert_eq!(s.alpha, p.alpha, "kind {:?} cap {}", kind, cap);
                        prop_assert_eq!(&s.matching, &p.matching, "kind {:?} cap {}", kind, cap);
                        prop_assert_eq!(s.score.to_bits(), p.score.to_bits(),
                            "psi-rate differs: {} vs {}", s.score, p.score);
                        prop_assert_eq!(s.benefit.to_bits(), p.benefit.to_bits());
                    }
                    (s, p) => prop_assert!(false, "one path empty: seq {:?} par {:?}", s, p),
                }
            }
        }
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
        // A non-total tie-break would let the parallel reduction's chunk
        // shape pick either α; the strict order must pick the smaller one on
        // every path.
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
        let seq = best_configuration(
            &q, delta, u64::MAX, AlphaSearch::Exhaustive, MatchingKind::Exact, false,
        ).unwrap();
        let par = best_configuration(
            &q, delta, u64::MAX, AlphaSearch::Exhaustive, MatchingKind::Exact, true,
        ).unwrap();
        // Both paths must take the α tie-break: the smaller candidate.
        prop_assert_eq!(seq.alpha, c);
        prop_assert_eq!(par.alpha, c);
        prop_assert_eq!(seq.matching, par.matching);
        prop_assert_eq!(seq.score.to_bits(), par.score.to_bits());
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
        for (k, &alpha) in candidates.iter().enumerate() {
            prop_assert_eq!(sweep.edge_list(k), queues.weighted_edges(alpha));
            let (mut row_max, mut col_max) = (vec![0.0f64; n as usize], vec![0.0f64; n as usize]);
            for (i, j) in queues.links() {
                let g = queues.g(i, j, alpha);
                row_max[i as usize] = row_max[i as usize].max(g);
                col_max[j as usize] = col_max[j as usize].max(g);
            }
            let rs: f64 = row_max.iter().sum();
            let bound = rs.min(col_max.iter().sum());
            prop_assert_eq!(
                sweep.upper_bound(k).to_bits(),
                bound.to_bits(),
                "upper bound differs at alpha {}", alpha
            );
            let g = WeightedBipartiteGraph::from_tuples(n, n, sweep.edge_list(k));
            let exact = matching_weight(&g, &maximum_weight_matching(&g));
            prop_assert!(
                sweep.upper_bound(k) + 1e-9 >= exact,
                "bound {} below the exact matching weight {} at alpha {}",
                sweep.upper_bound(k), exact, alpha
            );
        }
    }

    #[test]
    fn batched_select_matches_legacy_per_alpha_evaluation(
        (n, load, window, delta) in instance(),
    ) {
        // `ScheduleEngine::select` runs the batched sweep on reusable
        // workspaces; `ScheduleEngine::evaluate` runs the historical
        // build-a-graph-per-α kernel. For every kernel kind the winner must
        // carry the legacy evaluation's exact matching and benefit, and must
        // dominate every candidate's legacy score (i.e. pruning on the
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
        // the legacy per-α evaluation at the same α and `prev` set.
        let mut tr = RemainingTraffic::new(&load, HopWeighting::Uniform).unwrap();
        let mut fabric = LocalFabric {
            kind: MatchingKind::Exact,
            delta,
            prev: std::collections::HashSet::new(),
        };
        let policy = SearchPolicy {
            search: AlphaSearch::Exhaustive,
            parallel: false,
            prefer_larger_alpha: true,
            kernel: octopus_core::ExactKernel::Hungarian,
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
