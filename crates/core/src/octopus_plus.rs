//! **Octopus+** — joint route selection and scheduling (§6), plus the
//! Octopus-random baseline of Fig 9(b).
//!
//! Each flow now carries a *set* of candidate routes. Octopus+ keeps the
//! greedy structure of Octopus but extends the `g`/`h` computations at every
//! link `(i, j)` to account for the choices a packet has:
//!
//! * packets **at their source** `i` count toward `(i, j)` if *any* candidate
//!   route starts with that hop (each packet counted once, at its best
//!   weight, even when several candidates share the first hop);
//! * packets **in flight** count toward their committed next hop, as before;
//! * with **backtracking** enabled, a packet already routed part-way counts
//!   toward the direct link `(source, destination)` wherever it currently
//!   sits — if that link is chosen, its earlier progress is annulled (the
//!   spent slots are *not* reclaimed, matching the paper's simplification)
//!   and the packet is planned over the direct link instead. Backtracking is
//!   what makes the Theorem 3 approximation guarantee go through.
//!
//! Route commitment happens at the first hop and — backtracking aside — is
//! final; different packets of one flow may commit to different routes
//! (out-of-order delivery is the receiver's problem, as the paper notes).
//!
//! The α search runs through the shared [`ScheduleEngine`] machinery.

use crate::engine::{BipartiteFabric, ScheduleEngine, TrafficSource};
use crate::flatmap::VecMap;
use crate::state::LinkQueues;
use crate::{check_window, OctopusConfig, SchedError};
use octopus_net::{Network, NodeId, Schedule};
use octopus_sim::ResolvedFlow;
use octopus_traffic::{Flow, FlowId, HopWeighting, Route, TrafficLoad, Weight};
use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::HashMap;

/// Extra knobs for Octopus+.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlusConfig {
    /// The shared Octopus knobs (window, Δ, kernels, …).
    pub base: OctopusConfig,
    /// Allow annulling a packet's partial progress in favor of its direct
    /// link (§6 "Backtracking"). Requires the direct link to exist in the
    /// fabric; flows without one simply never backtrack.
    pub backtracking: bool,
}

impl Default for PlusConfig {
    fn default() -> Self {
        PlusConfig {
            base: OctopusConfig::default(),
            backtracking: true,
        }
    }
}

/// Result of an Octopus+ run.
#[derive(Debug, Clone)]
pub struct PlusOutput {
    /// The chosen configuration sequence.
    pub schedule: Schedule,
    /// ψ of the plan (net of backtracking annulments).
    pub planned_psi: f64,
    /// Packets the plan delivers.
    pub planned_delivered: u64,
    /// Greedy iterations executed.
    pub iterations: usize,
    /// The plan's route commitments, usable directly by the simulator:
    /// one entry per (flow, chosen route) with the packet count that took it
    /// (undecided leftovers are assigned their best-weight candidate).
    pub resolved: Vec<ResolvedFlow>,
}

/// Where a group of packets currently sits in the plan.
///
/// `Ord` gives plan bookkeeping a fixed total order: candidate enumeration
/// walks `portions` in this order, and the serve-priority comparator uses it
/// as the final tie-break, so schedules cannot depend on map iteration order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum Portion {
    /// At the source, route not yet chosen.
    AtSource { flow: u32 },
    /// Committed to `routes[route]`, currently at route position `pos ≥ 1`.
    Routed { flow: u32, route: u32, pos: u32 },
}

/// What a link candidate would do with the packets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Action {
    /// Annul progress, deliver over the direct link (highest precedence, as
    /// §6 prescribes when both the direct and the next-hop link are active).
    Backtrack,
    /// Commit source packets to `route` and traverse its first hop.
    Commit(u32),
    /// Traverse the committed route's next hop.
    Advance,
}

/// One scheduling candidate: the link it uses, its priority weight, the
/// packets available, where they sit, and what taking it does.
type Candidate = ((u32, u32), Weight, u64, Portion, Action);

struct PlusState<'a> {
    flows: &'a [Flow],
    weighting: HopWeighting,
    /// Ordered: candidate enumeration and plan resolution iterate this map,
    /// and iteration order must be deterministic for schedules to be
    /// reproducible (`clippy::iter_over_hash_type`).
    portions: VecMap<Portion, u64>,
    /// Packets delivered per (flow, route index); u32::MAX = direct
    /// backtrack route. Ordered: aggregated into the resolved-flow output.
    delivered_via: VecMap<(u32, u32), u64>,
    delivered: u64,
    total: u64,
    psi: f64,
}

const DIRECT: u32 = u32::MAX;

impl<'a> PlusState<'a> {
    fn new(load: &'a TrafficLoad, weighting: HopWeighting) -> Self {
        let mut portions = VecMap::new();
        for (fi, f) in load.flows().iter().enumerate() {
            if f.size > 0 {
                portions.insert(Portion::AtSource { flow: fi as u32 }, f.size);
            }
        }
        PlusState {
            flows: load.flows(),
            weighting,
            portions,
            delivered_via: VecMap::new(),
            delivered: 0,
            total: load.total_packets(),
            psi: 0.0,
        }
    }

    fn is_drained(&self) -> bool {
        self.delivered == self.total
    }

    /// Weight of a source packet if sent over first hop `(i, j)`: the best
    /// (max) weight among candidate routes starting with that hop, with the
    /// winning route index (shortest route, then lowest index).
    fn best_commit(&self, flow: u32, i: u32, j: u32) -> Option<(u32, Weight)> {
        let f = &self.flows[flow as usize];
        f.routes
            .iter()
            .enumerate()
            .filter(|(_, r)| {
                let (a, b) = r.hop(0);
                (a.0, b.0) == (i, j)
            })
            .map(|(ri, r)| (ri as u32, self.weighting.hop_weight(r.hops(), 0)))
            .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
    }

    /// Enumerates `(link, weight, count, portion, action)` candidates for the
    /// current `T^r` (the Octopus+ `g`/`h` inputs).
    fn candidates(&self, net: &Network, backtracking: bool) -> Vec<Candidate> {
        let mut out = Vec::new();
        for &(portion, count) in self.portions.iter() {
            if count == 0 {
                continue;
            }
            match portion {
                Portion::AtSource { flow } => {
                    let f = &self.flows[flow as usize];
                    // One candidate per distinct first hop; each packet
                    // counted once per link ("the simple fix" of §6).
                    let mut hops_seen = std::collections::HashSet::new();
                    for r in &f.routes {
                        let (a, b) = r.hop(0);
                        if hops_seen.insert((a.0, b.0)) {
                            let Some((ri, w)) = self.best_commit(flow, a.0, b.0) else {
                                debug_assert!(false, "route with this first hop exists");
                                continue;
                            };
                            out.push(((a.0, b.0), w, count, portion, Action::Commit(ri)));
                        }
                    }
                }
                Portion::Routed { flow, route, pos } => {
                    let f = &self.flows[flow as usize];
                    let r = &f.routes[route as usize];
                    let (a, b) = r.hop(pos);
                    let w = self.weighting.hop_weight(r.hops(), pos);
                    out.push(((a.0, b.0), w, count, portion, Action::Advance));
                    if backtracking {
                        let (s, d) = (f.src(), f.dst());
                        if net.has_edge(s, d) {
                            out.push((
                                (s.0, d.0),
                                self.weighting.hop_weight(1, 0),
                                count,
                                portion,
                                Action::Backtrack,
                            ));
                        }
                    }
                }
            }
        }
        out
    }

    /// Applies `(M, α)` to the plan. Two-phase (decide, then commit) so no
    /// packet moves more than one hop per configuration, with per-portion
    /// `taken` accounting so a packet eligible on several links (next hop
    /// vs. direct) moves exactly once.
    fn apply(&mut self, net: &Network, links: &[(u32, u32)], alpha: u64, backtracking: bool) {
        type LinkCandidate = (Weight, FlowId, Action, Portion, u64);
        let mut per_link: HashMap<(u32, u32), Vec<LinkCandidate>> = HashMap::new();
        for (link, w, count, portion, action) in self.candidates(net, backtracking) {
            let flow_id = match portion {
                Portion::AtSource { flow } | Portion::Routed { flow, .. } => {
                    self.flows[flow as usize].id
                }
            };
            per_link
                .entry(link)
                .or_default()
                .push((w, flow_id, action, portion, count));
        }
        let mut taken: HashMap<Portion, u64> = HashMap::new();
        let mut moves: Vec<(Portion, Action, u64)> = Vec::new();
        let mut ordered: Vec<&(u32, u32)> = links.iter().collect();
        ordered.sort_unstable();
        for &&link in &ordered {
            let Some(mut cands) = per_link.remove(&link) else {
                continue;
            };
            // Weight desc, then flow ID asc, then Backtrack > Commit > Advance,
            // then portion order — a strict total order (a portion appears at
            // most once per (link, action)), so the serve order is unique.
            cands.sort_unstable_by(|a, b| {
                b.0.cmp(&a.0)
                    .then(a.1.cmp(&b.1))
                    .then(a.2.cmp(&b.2))
                    .then(a.3.cmp(&b.3))
            });
            let mut budget = alpha;
            for (_, _, action, portion, count) in cands {
                if budget == 0 {
                    break;
                }
                let used = taken.get(&portion).copied().unwrap_or(0);
                let avail = count.saturating_sub(used);
                let take = avail.min(budget);
                if take == 0 {
                    continue;
                }
                budget -= take;
                *taken.entry(portion).or_insert(0) += take;
                moves.push((portion, action, take));
            }
        }
        for (portion, action, take) in moves {
            self.commit_move(portion, action, take);
        }
    }

    fn commit_move(&mut self, portion: Portion, action: Action, take: u64) {
        let Some(c) = self.portions.get_mut(&portion) else {
            debug_assert!(false, "move names a portion absent from the plan");
            return;
        };
        debug_assert!(*c >= take);
        *c -= take;
        if *c == 0 {
            self.portions.remove(&portion);
        }
        match (portion, action) {
            (Portion::AtSource { flow }, Action::Commit(route)) => {
                let r = &self.flows[flow as usize].routes[route as usize];
                let hops = r.hops();
                self.psi += self.weighting.hop_weight(hops, 0).value() * take as f64;
                if hops == 1 {
                    self.delivered += take;
                    *self.delivered_via.get_or_insert((flow, route), 0) += take;
                } else {
                    *self.portions.get_or_insert(
                        Portion::Routed {
                            flow,
                            route,
                            pos: 1,
                        },
                        0,
                    ) += take;
                }
            }
            (Portion::Routed { flow, route, pos }, Action::Advance) => {
                let r = &self.flows[flow as usize].routes[route as usize];
                let hops = r.hops();
                self.psi += self.weighting.hop_weight(hops, pos).value() * take as f64;
                if pos + 1 == hops {
                    self.delivered += take;
                    *self.delivered_via.get_or_insert((flow, route), 0) += take;
                } else {
                    *self.portions.get_or_insert(
                        Portion::Routed {
                            flow,
                            route,
                            pos: pos + 1,
                        },
                        0,
                    ) += take;
                }
            }
            (Portion::Routed { flow, route, pos }, Action::Backtrack) => {
                // Annul the traversed prefix, deliver over the direct link.
                let r = &self.flows[flow as usize].routes[route as usize];
                let hops = r.hops();
                let annulled: f64 = (0..pos)
                    .map(|x| self.weighting.hop_weight(hops, x).value())
                    .sum();
                self.psi -= annulled * take as f64;
                self.psi += self.weighting.hop_weight(1, 0).value() * take as f64;
                self.delivered += take;
                *self.delivered_via.get_or_insert((flow, DIRECT), 0) += take;
            }
            (p, a) => debug_assert!(false, "invalid move {p:?} / {a:?}"),
        }
    }

    /// Resolves the plan to one concrete route per packet group, for
    /// simulation. Undecided source packets get their best-weight candidate
    /// (shortest route, lowest index).
    fn resolve(&self) -> Vec<ResolvedFlow> {
        let mut agg: VecMap<(u32, u32), u64> = self.delivered_via.clone();
        for &(portion, count) in self.portions.iter() {
            match portion {
                Portion::AtSource { flow } => {
                    let f = &self.flows[flow as usize];
                    let Some(best) = f
                        .routes
                        .iter()
                        .enumerate()
                        .min_by_key(|(ri, r)| (r.hops(), *ri))
                        .map(|(ri, _)| ri as u32)
                    else {
                        debug_assert!(false, "flows have at least one route");
                        continue;
                    };
                    *agg.get_or_insert((flow, best), 0) += count;
                }
                Portion::Routed { flow, route, .. } => {
                    *agg.get_or_insert((flow, route), 0) += count;
                }
            }
        }
        let mut out: Vec<ResolvedFlow> = agg
            .into_iter()
            .filter(|&(_, count)| count > 0)
            .filter_map(|((flow, route), count)| {
                let f = &self.flows[flow as usize];
                let r = if route == DIRECT {
                    let Ok(r) = Route::new([f.src(), f.dst()]) else {
                        debug_assert!(false, "direct link endpoints differ");
                        return None;
                    };
                    r
                } else {
                    f.routes[route as usize].clone()
                };
                Some(ResolvedFlow {
                    flow: f.id,
                    size: count,
                    route: r,
                })
            })
            .collect();
        out.sort_by_key(|r| (r.flow, r.route.hops(), r.route.nodes().to_vec()));
        out
    }
}

/// [`TrafficSource`] adapter over the Octopus+ plan state. The candidate
/// weights at a link depend on route commitments made *anywhere* (a source
/// packet's options collapse once its first hop is served), so per-link dirty
/// tracking is not worth it: every commit requests a full snapshot rebuild
/// by returning `false`.
struct PlusSource<'a> {
    net: &'a Network,
    st: PlusState<'a>,
    backtracking: bool,
}

impl TrafficSource for PlusSource<'_> {
    fn snapshot_queues(&self, n: u32) -> LinkQueues {
        LinkQueues::from_weighted_counts(
            n,
            self.st
                .candidates(self.net, self.backtracking)
                .into_iter()
                .map(|(link, w, count, _, _)| (link, w.value(), count)),
        )
    }

    fn apply_served(&mut self, served: &[(NodeId, NodeId, u64)], _dirty: &mut Vec<u32>) -> bool {
        let Some(&(_, _, alpha)) = served.first() else {
            return false;
        };
        debug_assert!(served.iter().all(|&(_, _, a)| a == alpha));
        let links: Vec<(u32, u32)> = served.iter().map(|&(i, j, _)| (i.0, j.0)).collect();
        self.st.apply(self.net, &links, alpha, self.backtracking);
        false
    }

    // `apply_served` always requests a full rebuild (returns `false`), so
    // the engine never patches this source's snapshot: each rebuild numbers
    // its links afresh, in key order (`LinkQueues::from_weighted_counts`).
    fn link_keys(&self) -> &[(u32, u32)] {
        &[]
    }

    fn refresh_link(&self, _li: u32, _out: &mut Vec<(f64, u64)>) {}

    fn is_drained(&self) -> bool {
        self.st.is_drained()
    }
}

/// Runs Octopus+ on a (possibly multi-route) load.
pub fn octopus_plus(
    net: &Network,
    load: &TrafficLoad,
    cfg: &PlusConfig,
) -> Result<PlusOutput, SchedError> {
    let base = &cfg.base;
    check_window(base.window, base.delta)?;
    load.validate(net)?;
    let mut fabric = BipartiteFabric {
        kind: base.matching,
    };
    let source = PlusSource {
        net,
        st: PlusState::new(load, base.weighting),
        backtracking: cfg.backtracking,
    };
    let mut engine = ScheduleEngine::new(source, net.num_nodes(), base.delta);
    let run = engine.plan_window(&mut fabric, &base.search_policy(), base.window)?;
    let st = engine.into_source().st;

    Ok(PlusOutput {
        schedule: run.schedule,
        planned_psi: st.psi,
        planned_delivered: st.delivered,
        iterations: run.iterations,
        resolved: st.resolve(),
    })
}

/// The Fig 9(b) baseline: pick one route per flow uniformly at random, then
/// run plain Octopus. Returns the scheduler output together with the
/// resolved single-route load it was computed for.
pub fn octopus_random<R: Rng + ?Sized>(
    net: &Network,
    load: &TrafficLoad,
    cfg: &OctopusConfig,
    rng: &mut R,
) -> Result<(crate::OctopusOutput, TrafficLoad), SchedError> {
    let mut flows: Vec<Flow> = Vec::with_capacity(load.len());
    for f in load.flows() {
        // Validated loads guarantee at least one route per flow.
        let Some(route) = f.routes.choose(rng) else {
            debug_assert!(false, "flows have at least one route");
            continue;
        };
        flows.push(Flow::single(f.id, f.size, route.clone()));
    }
    let resolved = TrafficLoad::new(flows)?;
    let out = crate::octopus(net, &resolved, cfg)?;
    Ok((out, resolved))
}

#[cfg(test)]
mod tests {
    use super::*;
    use octopus_net::topology;
    use octopus_sim::{SimConfig, Simulator};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cfg(window: u64, delta: u64) -> PlusConfig {
        PlusConfig {
            base: OctopusConfig {
                window,
                delta,
                ..OctopusConfig::default()
            },
            backtracking: true,
        }
    }

    fn r(ids: &[u32]) -> Route {
        Route::from_ids(ids.iter().copied()).unwrap()
    }

    #[test]
    fn single_route_flows_match_octopus() {
        let net = topology::complete(4);
        let load = TrafficLoad::new(vec![
            Flow::single(FlowId(1), 30, r(&[0, 1])),
            Flow::single(FlowId(2), 20, r(&[2, 3])),
        ])
        .unwrap();
        let plus = octopus_plus(&net, &load, &cfg(200, 5)).unwrap();
        let plain = crate::octopus(&net, &load, &cfg(200, 5).base).unwrap();
        assert_eq!(plus.planned_delivered, plain.planned_delivered);
        assert!((plus.planned_psi - plain.planned_psi).abs() < 1e-9);
    }

    #[test]
    fn chooses_the_good_route() {
        // Flow 0->3 with a direct route and a needlessly long one: the plan
        // must use the direct link.
        let net = topology::complete(4);
        let load = TrafficLoad::new(vec![Flow::new(
            FlowId(1),
            50,
            vec![r(&[0, 1, 2, 3]), r(&[0, 3])],
        )
        .unwrap()])
        .unwrap();
        let out = octopus_plus(&net, &load, &cfg(200, 5)).unwrap();
        assert_eq!(out.planned_delivered, 50);
        assert_eq!(out.iterations, 1, "direct route in a single configuration");
        assert_eq!(out.resolved.len(), 1);
        assert!(out.resolved[0].route.is_direct());
    }

    #[test]
    fn splits_across_routes_when_beneficial() {
        // Two flows contend for link (0,1); flow 2 also has (0,2,1): Octopus+
        // can serve both at once.
        let net = topology::complete(3);
        let load = TrafficLoad::new(vec![
            Flow::single(FlowId(1), 40, r(&[0, 1])),
            Flow::new(FlowId(2), 40, vec![r(&[0, 1]), r(&[0, 2, 1])]).unwrap(),
        ])
        .unwrap();
        let out = octopus_plus(&net, &load, &cfg(10_000, 2)).unwrap();
        assert_eq!(out.planned_delivered, 80);
    }

    #[test]
    fn backtracking_annuls_and_delivers_direct() {
        // Force a packet one hop down a 3-hop route, then make only the
        // direct link useful: with backtracking the plan delivers via (0,3).
        let net = topology::complete(4);
        let load = TrafficLoad::new(vec![Flow::new(
            FlowId(1),
            10,
            vec![r(&[0, 1, 2, 3]), r(&[0, 3])],
        )
        .unwrap()])
        .unwrap();
        let mut st = PlusState::new(&load, HopWeighting::Uniform);
        // Commit to the long route's first hop.
        st.apply(&net, &[(0, 1)], 10, true);
        assert_eq!(st.delivered, 0);
        let psi_after_first = st.psi;
        assert!(psi_after_first > 0.0);
        // Now the direct link: backtrack.
        st.apply(&net, &[(0, 3)], 10, true);
        assert_eq!(st.delivered, 10);
        assert!((st.psi - 10.0).abs() < 1e-9, "annulled prefix + direct hop");
        let resolved = st.resolve();
        assert_eq!(resolved.len(), 1);
        assert!(resolved[0].route.is_direct());
    }

    #[test]
    fn backtracking_disabled_keeps_progress() {
        let net = topology::complete(4);
        let load = TrafficLoad::new(vec![Flow::new(
            FlowId(1),
            10,
            vec![r(&[0, 1, 2, 3]), r(&[0, 3])],
        )
        .unwrap()])
        .unwrap();
        let mut st = PlusState::new(&load, HopWeighting::Uniform);
        st.apply(&net, &[(0, 1)], 10, false);
        st.apply(&net, &[(0, 3)], 10, false);
        assert_eq!(st.delivered, 0, "no backtracking, packets stay committed");
    }

    #[test]
    fn source_packets_counted_once_per_link() {
        // Two candidate routes share the first hop (0,1): g must count each
        // packet once.
        let net = topology::complete(4);
        let load = TrafficLoad::new(vec![Flow::new(
            FlowId(1),
            10,
            vec![r(&[0, 1, 2]), r(&[0, 1, 3, 2])],
        )
        .unwrap()])
        .unwrap();
        let st = PlusState::new(&load, HopWeighting::Uniform);
        let cands = st.candidates(&net, true);
        let on_link: Vec<_> = cands
            .iter()
            .filter(|(link, _, _, _, _)| *link == (0, 1))
            .collect();
        assert_eq!(on_link.len(), 1, "one candidate entry for the shared hop");
        // And it uses the better (shorter-route) weight 1/2.
        assert_eq!(on_link[0].1, Weight(0.5));
    }

    #[test]
    fn plan_simulates_consistently() {
        let net = topology::complete(8);
        let mut rng = StdRng::seed_from_u64(42);
        let synth = octopus_traffic::synthetic::SyntheticConfig::paper_default(8, 500);
        let load = octopus_traffic::synthetic::generate_with_routes(&synth, &net, &mut rng, 4);
        let out = octopus_plus(&net, &load, &cfg(500, 5)).unwrap();
        let total: u64 = out.resolved.iter().map(|f| f.size).sum();
        assert_eq!(total, load.total_packets(), "resolution conserves packets");
        let sim = Simulator::new(
            Some(&net),
            out.resolved.clone(),
            SimConfig {
                delta: 5,
                ..SimConfig::default()
            },
        )
        .unwrap();
        let rep = sim.run(&out.schedule).unwrap();
        assert!(rep.conserves_packets());
        // The physical run should deliver at least ~what the plan promises
        // (within-configuration chaining can only help; route resolution of
        // stranded packets can shift a little).
        assert!(
            rep.delivered as f64 >= 0.8 * out.planned_delivered as f64,
            "sim {} vs plan {}",
            rep.delivered,
            out.planned_delivered
        );
    }

    #[test]
    fn octopus_random_resolves_every_flow() {
        let net = topology::complete(6);
        let mut rng = StdRng::seed_from_u64(7);
        let synth = octopus_traffic::synthetic::SyntheticConfig::paper_default(6, 300);
        let load = octopus_traffic::synthetic::generate_with_routes(&synth, &net, &mut rng, 5);
        let (out, resolved) = octopus_random(&net, &load, &cfg(300, 5).base, &mut rng).unwrap();
        assert!(resolved.is_single_route());
        assert_eq!(resolved.len(), load.len());
        assert!(out.schedule.total_cost(5) <= 300);
    }
}
