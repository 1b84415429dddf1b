//! Multi-window (**online**) operation — the paper's future-work direction
//! that §4 already sketches: "packets undelivered after one application of
//! the algorithm can be considered for continued routing in the next time
//! window; thus, undelivered packets do not result in packet losses."
//!
//! [`OnlineScheduler`] runs Octopus epoch by epoch. Each epoch, newly
//! arrived flows join the backlog at their sources; the scheduler plans one
//! window over the combined state (carried-over packets keep their original
//! routes, positions and weights) and the epoch's leftovers roll forward.
//! This is the batch-arrival counterpart of the adaptive policies of Wang &
//! Javidi — traffic-aware, but requiring queue state only at epoch
//! boundaries rather than at every instant.
//!
//! Both schedulers here keep one persistent [`ScheduleEngine`] over the
//! backlog, as the serve daemon does: arrivals are admitted into it and its
//! queue snapshot is patched on the links they touch, instead of rebuilding
//! `T^r` every epoch.

use crate::engine::{BipartiteFabric, CandidateExtension, ScheduleEngine, SearchPolicy};
use crate::{check_window, OctopusConfig, OctopusOutput, RemainingTraffic, SchedError};
use octopus_net::{Configuration, Matching, Network, Schedule};
use octopus_traffic::TrafficLoad;

/// One epoch's outcome.
#[derive(Debug, Clone)]
pub struct EpochReport {
    /// The window scheduled for this epoch.
    pub output: OctopusOutput,
    /// Packets that arrived this epoch.
    pub arrived: u64,
    /// Packets delivered (planned) this epoch.
    pub delivered: u64,
    /// Backlog carried into the next epoch (at sources or mid-route).
    pub backlog: u64,
}

/// An empty persistent plan over `net` with `cfg`'s weighting and Δ.
fn empty_engine(net: &Network, cfg: &OctopusConfig) -> ScheduleEngine<RemainingTraffic> {
    let tr = RemainingTraffic::from_subflows(std::iter::empty(), cfg.weighting);
    ScheduleEngine::new(tr, net.num_nodes(), cfg.delta)
}

/// Starts an epoch on `engine`: checks the arrivals (single-route flows on
/// `net`), restarts the planned counters, and admits the arrivals at their
/// sources, patching the snapshot. Nothing is admitted on error. Returns
/// the packets that arrived.
fn admit_epoch(
    engine: &mut ScheduleEngine<RemainingTraffic>,
    net: &Network,
    arrivals: &TrafficLoad,
) -> Result<u64, SchedError> {
    arrivals.validate(net)?;
    let mut subflows = Vec::with_capacity(arrivals.len());
    for f in arrivals.flows() {
        let [route] = f.routes.as_slice() else {
            return Err(SchedError::MultiRouteFlow(f.id));
        };
        subflows.push((f.id, route.clone(), 0, f.size));
    }
    engine.source_mut().reset_planned();
    engine.update_source(|tr, dirty| tr.admit_subflows_into(subflows, dirty))?;
    Ok(arrivals.total_packets())
}

/// Epoch-by-epoch Octopus driver with backlog carry-over.
///
/// ```
/// use octopus_core::online::OnlineScheduler;
/// use octopus_core::OctopusConfig;
/// use octopus_net::topology;
/// use octopus_traffic::{Flow, FlowId, Route, TrafficLoad};
///
/// let cfg = OctopusConfig { window: 50, delta: 5, ..OctopusConfig::default() };
/// let mut sched = OnlineScheduler::new(topology::complete(4), cfg);
/// let arrivals = TrafficLoad::new(vec![Flow::single(
///     FlowId(1), 100, Route::from_ids([0, 1]).unwrap(),
/// )]).unwrap();
/// let r1 = sched.run_epoch(&arrivals).unwrap();
/// assert_eq!(r1.delivered + r1.backlog, 100); // leftovers roll forward
/// ```
#[derive(Debug)]
pub struct OnlineScheduler {
    net: Network,
    cfg: OctopusConfig,
    /// The backlog: packets awaiting service, at sources or mid-route.
    engine: ScheduleEngine<RemainingTraffic>,
    /// Lifetime counters.
    total_arrived: u64,
    total_delivered: u64,
    epochs: u32,
}

impl OnlineScheduler {
    /// Creates a scheduler over `net`; `cfg.window` is the per-epoch window.
    pub fn new(net: Network, cfg: OctopusConfig) -> Self {
        OnlineScheduler {
            engine: empty_engine(&net, &cfg),
            net,
            cfg,
            total_arrived: 0,
            total_delivered: 0,
            epochs: 0,
        }
    }

    /// Packets currently queued (at sources or stranded mid-route).
    pub fn backlog_packets(&self) -> u64 {
        self.engine.source().remaining_packets()
    }

    /// Lifetime delivered / arrived fraction.
    pub fn lifetime_goodput(&self) -> f64 {
        if self.total_arrived == 0 {
            return 0.0;
        }
        self.total_delivered as f64 / self.total_arrived as f64
    }

    /// Epochs processed so far.
    pub fn epochs(&self) -> u32 {
        self.epochs
    }

    /// Admits this epoch's arrivals (single-route flows; IDs must not clash
    /// with still-backlogged flows), schedules one window, and rolls the
    /// leftovers forward.
    pub fn run_epoch(&mut self, arrivals: &TrafficLoad) -> Result<EpochReport, SchedError> {
        check_window(self.cfg.window, self.cfg.delta)?;
        let arrived = admit_epoch(&mut self.engine, &self.net, arrivals)?;
        let mut fabric = BipartiteFabric {
            kind: self.cfg.matching,
        };
        let run =
            self.engine
                .plan_window(&mut fabric, &self.cfg.search_policy(), self.cfg.window)?;
        let output = OctopusOutput::from_run(run, self.engine.source());
        let delivered = output.planned_delivered;
        self.total_arrived += arrived;
        self.total_delivered += delivered;
        self.epochs += 1;
        Ok(EpochReport {
            output,
            arrived,
            delivered,
            backlog: self.backlog_packets(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use octopus_net::topology;
    use octopus_traffic::{Flow, FlowId, Route};

    fn cfg(window: u64, delta: u64) -> OctopusConfig {
        OctopusConfig {
            window,
            delta,
            ..OctopusConfig::default()
        }
    }

    fn load(flows: Vec<Flow>) -> TrafficLoad {
        TrafficLoad::new(flows).unwrap()
    }

    fn flow(id: u64, size: u64, route: &[u32]) -> Flow {
        Flow::single(
            FlowId(id),
            size,
            Route::from_ids(route.iter().copied()).unwrap(),
        )
    }

    #[test]
    fn backlog_carries_over_and_drains() {
        let net = topology::complete(4);
        // Window fits ~45 packets per epoch; first epoch brings 100.
        let mut sched = OnlineScheduler::new(net, cfg(50, 5));
        let r1 = sched.run_epoch(&load(vec![flow(1, 100, &[0, 1])])).unwrap();
        assert_eq!(r1.arrived, 100);
        assert_eq!(r1.delivered, 45);
        assert_eq!(r1.backlog, 55);
        // Quiet epochs drain the backlog.
        let r2 = sched.run_epoch(&load(vec![])).unwrap();
        assert_eq!(r2.delivered, 45);
        let r3 = sched.run_epoch(&load(vec![])).unwrap();
        assert_eq!(r3.delivered, 10);
        assert_eq!(r3.backlog, 0);
        assert_eq!(sched.lifetime_goodput(), 1.0);
        assert_eq!(sched.epochs(), 3);
    }

    #[test]
    fn mid_route_packets_resume_with_original_weights() {
        let net = topology::ring(3).unwrap();
        // One 2-hop flow; the epoch window only fits the first hop.
        let mut sched = OnlineScheduler::new(net, cfg(14, 2));
        let r1 = sched
            .run_epoch(&load(vec![flow(1, 12, &[0, 1, 2])]))
            .unwrap();
        assert_eq!(r1.delivered, 0, "first hop only");
        assert_eq!(r1.backlog, 12);
        // Next epoch finishes the journey.
        let r2 = sched.run_epoch(&load(vec![])).unwrap();
        assert_eq!(r2.delivered, 12);
        // psi across both epochs: 12 packets x 2 hops x 1/2 each.
        assert!((r1.output.planned_psi + r2.output.planned_psi - 12.0).abs() < 1e-9);
    }

    #[test]
    fn new_arrivals_compete_with_backlog_by_weight() {
        let net = topology::complete(3);
        let mut sched = OnlineScheduler::new(net, cfg(25, 2));
        // Epoch 1: a 2-hop flow gets half-way.
        sched
            .run_epoch(&load(vec![flow(1, 40, &[0, 2, 1])]))
            .unwrap();
        // Epoch 2: a 1-hop flow arrives on the link the stranded packets
        // need; weight 1 beats weight 1/2.
        let r2 = sched.run_epoch(&load(vec![flow(2, 23, &[2, 1])])).unwrap();
        // Greedy may split the window across configurations, but the
        // weight-1 arrivals dominate whatever link (2,1) carries.
        assert!(
            r2.delivered >= 20,
            "the heavier 1-hop arrivals go first, delivered {}",
            r2.delivered
        );
    }

    #[test]
    fn empty_epochs_are_fine() {
        let net = topology::complete(3);
        let mut sched = OnlineScheduler::new(net, cfg(100, 5));
        let r = sched.run_epoch(&load(vec![])).unwrap();
        assert_eq!(r.arrived + r.delivered + r.backlog, 0);
        assert_eq!(sched.lifetime_goodput(), 0.0);
    }

    #[test]
    fn rejects_multi_route_arrivals() {
        let net = topology::complete(3);
        let mut sched = OnlineScheduler::new(net, cfg(100, 5));
        let multi = load(vec![Flow::new(
            FlowId(1),
            5,
            vec![
                Route::from_ids([0, 1]).unwrap(),
                Route::from_ids([0, 2, 1]).unwrap(),
            ],
        )
        .unwrap()]);
        assert_eq!(
            sched.run_epoch(&multi).err(),
            Some(SchedError::MultiRouteFlow(FlowId(1)))
        );
    }
}

/// Checks a hysteresis policy's knobs: a `window` (epoch or horizon) that
/// passes [`check_window`], and a factor `eta ≥ 0`.
///
/// # Errors
/// [`SchedError::WindowTooSmall`] when `window ≤ delta`;
/// [`SchedError::WindowTooLarge`] when `window > MAX_WINDOW`;
/// [`SchedError::InvalidEta`] when `eta` is negative or NaN.
///
/// [`MAX_WINDOW`]: crate::MAX_WINDOW
pub fn check_hysteresis(window: u64, delta: u64, eta: f64) -> Result<(), SchedError> {
    check_window(window, delta)?;
    if eta.is_nan() || eta < 0.0 {
        return Err(SchedError::InvalidEta(eta));
    }
    Ok(())
}

/// The hysteresis keep/switch rule. The incumbent is valued serving the
/// whole `horizon`; the fresh candidate — the best configuration
/// [`ScheduleEngine::select`] finds within `horizon − Δ` slots — is valued
/// serving `horizon − Δ` (it pays the reconfiguration). The policy switches
/// only when the candidate is worth more than `1 + eta` times the
/// incumbent. The served matching is committed on `engine` for its duration
/// and becomes the new `incumbent`.
///
/// Returns what was served, or `None` when nothing is held and no packet
/// can move (the search then solves no matching).
///
/// # Errors
/// [`SchedError::Net`] when the search's winner is not a matching
/// (unreachable with the shipped kernels); nothing is committed then.
pub fn hysteresis_replan(
    engine: &mut ScheduleEngine<RemainingTraffic>,
    fabric: &BipartiteFabric,
    policy: &SearchPolicy,
    incumbent: &mut Option<Matching>,
    horizon: u64,
    eta: f64,
) -> Result<Option<HysteresisStep>, SchedError> {
    let alpha_if_kept = horizon;
    let alpha_if_changed = horizon.saturating_sub(engine.delta());
    let (candidate, matchings_computed) =
        match engine.select(fabric, alpha_if_changed, CandidateExtension::None, policy) {
            Some(best) => (
                Some(Matching::new_free(best.matching.iter().copied())?),
                best.matchings_computed,
            ),
            None => (None, 0),
        };
    // Each link is found by its `LinkId` in the plan's link table; a link
    // the plan has never seen holds nothing.
    let mut value = |m: &Matching, alpha: u64| -> f64 {
        m.links()
            .iter()
            .map(|&(i, j)| {
                let li = engine.source().link_id_of((i.0, j.0));
                li.and_then(|li| engine.queues().link(li))
                    .map_or(0.0, |q| q.g(alpha))
            })
            .sum()
    };
    let (serve, alpha, switched) = match (incumbent.take(), candidate) {
        (None, Some(cand)) => (cand, alpha_if_changed, true),
        (Some(inc), Some(cand)) => {
            if value(&cand, alpha_if_changed) > (1.0 + eta) * value(&inc, alpha_if_kept) {
                (cand, alpha_if_changed, true)
            } else {
                (inc, alpha_if_kept, false)
            }
        }
        (Some(inc), None) => (inc, alpha_if_kept, false),
        (None, None) => return Ok(None),
    };
    let budgets: Vec<_> = serve.links().iter().map(|&(i, j)| (i, j, alpha)).collect();
    engine.commit_budgets(&budgets);
    *incumbent = Some(serve.clone());
    Ok(Some(HysteresisStep {
        matching: serve,
        alpha,
        switched,
        matchings_computed,
    }))
}

/// What one [`hysteresis_replan`] served.
#[derive(Debug, Clone, PartialEq)]
pub struct HysteresisStep {
    /// The served matching, now the incumbent.
    pub matching: Matching,
    /// Its duration: the horizon when kept, `horizon − Δ` after a switch.
    pub alpha: u64,
    /// Whether it replaced the incumbent.
    pub switched: bool,
    /// Weighted matchings the search for a fresh candidate solved, whether
    /// or not the policy switched to it.
    pub matchings_computed: usize,
}

/// A quasi-static **hysteresis** policy in the spirit of Wang & Javidi's
/// adaptive schedulers (§2, ref. 37): hold one matching per epoch, and
/// reconfigure only when the best available matching beats the incumbent's
/// current backlog value by a factor `1 + eta` ([`hysteresis_replan`]).
/// Traffic-aware but much simpler than Octopus — it needs queue weights
/// only at epoch boundaries and pays at most one reconfiguration per epoch.
///
/// Serves as the online comparison point for [`OnlineScheduler`]; on
/// multi-hop traffic its single-matching epochs leave chained hops starved,
/// which is exactly the gap Octopus's per-window sequences close.
#[derive(Debug)]
pub struct HysteresisScheduler {
    net: Network,
    cfg: OctopusConfig,
    /// Hysteresis factor: reconfigure when `best > (1 + eta) * incumbent`.
    eta: f64,
    incumbent: Option<Matching>,
    /// The backlog: packets awaiting service, at sources or mid-route.
    engine: ScheduleEngine<RemainingTraffic>,
    total_arrived: u64,
    total_delivered: u64,
}

impl HysteresisScheduler {
    /// Creates the policy; `cfg.window` is the epoch length.
    ///
    /// # Errors
    /// See [`check_hysteresis`].
    pub fn new(net: Network, cfg: OctopusConfig, eta: f64) -> Result<Self, SchedError> {
        check_hysteresis(cfg.window, cfg.delta, eta)?;
        Ok(HysteresisScheduler {
            engine: empty_engine(&net, &cfg),
            net,
            cfg,
            eta,
            incumbent: None,
            total_arrived: 0,
            total_delivered: 0,
        })
    }

    /// Lifetime delivered / arrived fraction.
    pub fn lifetime_goodput(&self) -> f64 {
        if self.total_arrived == 0 {
            return 0.0;
        }
        self.total_delivered as f64 / self.total_arrived as f64
    }

    /// Packets currently queued.
    pub fn backlog_packets(&self) -> u64 {
        self.engine.source().remaining_packets()
    }

    /// Admits arrivals and serves one epoch with a single matching.
    pub fn run_epoch(&mut self, arrivals: &TrafficLoad) -> Result<EpochReport, SchedError> {
        let arrived = admit_epoch(&mut self.engine, &self.net, arrivals)?;
        let served = hysteresis_replan(
            &mut self.engine,
            &BipartiteFabric {
                kind: self.cfg.matching,
            },
            &self.cfg.search_policy(),
            &mut self.incumbent,
            self.cfg.window,
            self.eta,
        )?;
        let mut schedule = Schedule::new();
        let (iterations, matchings_computed) = match served {
            Some(step) => {
                schedule.push(Configuration::new(step.matching, step.alpha));
                (1, step.matchings_computed)
            }
            None => (0, 0),
        };
        let tr = self.engine.source();
        let delivered = tr.planned_delivered();
        self.total_arrived += arrived;
        self.total_delivered += delivered;
        Ok(EpochReport {
            output: OctopusOutput {
                schedule,
                planned_psi: tr.planned_psi(),
                planned_delivered: delivered,
                iterations,
                matchings_computed,
            },
            arrived,
            delivered,
            backlog: tr.remaining_packets(),
        })
    }
}

#[cfg(test)]
mod hysteresis_tests {
    use super::*;
    use octopus_net::topology;
    use octopus_traffic::synthetic::{self, SyntheticConfig};
    use octopus_traffic::{Flow, FlowId, Route};
    use rand::{rngs::StdRng, SeedableRng};

    fn cfg(window: u64, delta: u64) -> OctopusConfig {
        OctopusConfig {
            window,
            delta,
            ..OctopusConfig::default()
        }
    }

    fn flow(id: u64, size: u64, route: &[u32]) -> Flow {
        Flow::single(
            FlowId(id),
            size,
            Route::from_ids(route.iter().copied()).unwrap(),
        )
    }

    #[test]
    fn holds_matching_while_traffic_is_stable() {
        let net = topology::complete(4);
        let mut pol = HysteresisScheduler::new(net, cfg(100, 20), 0.2).unwrap();
        // Same heavy demand every epoch: after the first configuration, the
        // incumbent should be kept (no more reconfigurations).
        let arrivals = TrafficLoad::new(vec![flow(1, 80, &[0, 1])]).unwrap();
        let r1 = pol.run_epoch(&arrivals).unwrap();
        assert_eq!(r1.delivered, 80, "80-slot epoch after 20-slot reconfig");
        let arrivals2 = TrafficLoad::new(vec![flow(2, 80, &[0, 1])]).unwrap();
        let r2 = pol.run_epoch(&arrivals2).unwrap();
        // Incumbent kept: full 100 slots serve the queue.
        assert_eq!(r2.delivered, 80);
        assert_eq!(r2.output.schedule.configs()[0].alpha, 100);
    }

    #[test]
    fn switches_when_demand_shifts_enough() {
        let net = topology::complete(4);
        let mut pol = HysteresisScheduler::new(net, cfg(100, 10), 0.1).unwrap();
        pol.run_epoch(&TrafficLoad::new(vec![flow(1, 50, &[0, 1])]).unwrap())
            .unwrap();
        // Demand moves entirely to (2,3): the policy must switch.
        let r = pol
            .run_epoch(&TrafficLoad::new(vec![flow(2, 70, &[2, 3])]).unwrap())
            .unwrap();
        assert_eq!(r.delivered, 70);
        let m = &r.output.schedule.configs()[0].matching;
        assert!(m.contains(octopus_net::NodeId(2), octopus_net::NodeId(3)));
    }

    #[test]
    fn epoch_counts_the_selects_solves() {
        const N: u32 = 12;
        let (window, delta) = (1_000, 20);
        let net = topology::complete(N);
        let mut pol = HysteresisScheduler::new(net.clone(), cfg(window, delta), 0.1).unwrap();
        // Nothing waits: nothing is served and nothing is solved.
        let idle = pol
            .run_epoch(&TrafficLoad::new(Vec::new()).unwrap())
            .unwrap();
        assert_eq!(
            (idle.output.iterations, idle.output.matchings_computed),
            (0, 0)
        );
        // Epochs of the paper's synthetic load, flow ids kept apart.
        let epoch = |seed: u64| -> Vec<Flow> {
            let mut rng = StdRng::seed_from_u64(seed);
            let load =
                synthetic::generate(&SyntheticConfig::paper_default(N, window), &net, &mut rng);
            load.flows()
                .iter()
                .map(|f| Flow {
                    id: FlowId(f.id.0 + 1_000 * seed),
                    ..f.clone()
                })
                .collect()
        };
        let mut most = 0;
        for arrivals in [epoch(1), epoch(2), epoch(3)] {
            // The same snapshot, standalone: the backlog plus the arrivals.
            let mut waiting = pol.engine.source().subflows();
            waiting.extend(
                arrivals
                    .iter()
                    .map(|f| (f.id, f.routes[0].clone(), 0, f.size)),
            );
            let tr = RemainingTraffic::from_subflows(waiting, pol.cfg.weighting);
            let standalone = ScheduleEngine::new(tr, N, delta)
                .select(
                    &BipartiteFabric {
                        kind: pol.cfg.matching,
                    },
                    window - delta,
                    CandidateExtension::None,
                    &pol.cfg.search_policy(),
                )
                .unwrap();
            let r = pol.run_epoch(&TrafficLoad::new(arrivals).unwrap()).unwrap();
            assert_eq!(r.output.iterations, 1);
            assert_eq!(r.output.matchings_computed, standalone.matchings_computed);
            most = most.max(r.output.matchings_computed);
        }
        // A hard-coded count of one would pass every epoch but this.
        assert!(most > 1, "some epoch's search must solve several matchings");
    }

    #[test]
    fn octopus_online_beats_hysteresis_on_multihop_traffic() {
        // Multi-hop chains need alternating matchings within an epoch; the
        // single-matching policy starves later hops.
        let net = topology::ring(4).unwrap();
        let epoch_cfg = cfg(120, 10);
        let mut oct = OnlineScheduler::new(net.clone(), epoch_cfg);
        let mut hys = HysteresisScheduler::new(net, epoch_cfg, 0.1).unwrap();
        for e in 0..4u64 {
            let arrivals = TrafficLoad::new(vec![flow(e, 40, &[0, 1, 2])]).unwrap();
            oct.run_epoch(&arrivals).unwrap();
            hys.run_epoch(&arrivals).unwrap();
        }
        assert!(
            oct.lifetime_goodput() > hys.lifetime_goodput(),
            "octopus {} vs hysteresis {}",
            oct.lifetime_goodput(),
            hys.lifetime_goodput()
        );
    }
}
