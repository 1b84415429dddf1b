//! The **incremental scheduling engine** shared by every Octopus variant.
//!
//! All schedulers in this crate are instances of one greedy loop: snapshot
//! the per-link queues of the remaining traffic `T^r`, enumerate the
//! candidate durations α (Procedure 1), evaluate a matching for each
//! candidate on some *fabric*, commit the winner, repeat.
//! [`ScheduleEngine::plan_window`] is that loop, once; it runs on a
//! [`ScheduleEngine`], which owns the traffic source and a persistently
//! maintained [`LinkQueues`] snapshot:
//!
//! * [`TrafficSource`] abstracts the `T^r` bookkeeping. The canonical
//!   implementation is [`crate::RemainingTraffic`]; Octopus+ adapts its
//!   multi-route plan state through the same interface.
//! * [`Fabric`] abstracts what a *configuration* is — a plain bipartite
//!   matching ([`BipartiteFabric`]), a union of `r` edge-disjoint matchings
//!   ([`KPortFabric`]), a general-graph matching on an undirected duplex
//!   fabric ([`DuplexFabric`]), or a persistence-aware matching for
//!   localized reconfiguration ([`LocalFabric`]). Each hands the engine a
//!   multi-α weight sweep and the [`ColumnKernel`] that turns one column
//!   into its configuration, so every fabric is searched and pruned on the
//!   same path. A variant's quirks live on its fabric: extra α candidates
//!   ([`Fabric::extension`]) and state carried from one configuration to
//!   the next ([`Fabric::committed`]).
//! * [`ScheduleEngine::commit`] applies the chosen `(M, α)` and patches the
//!   queue snapshot **incrementally**: the source reports exactly which
//!   links gained or lost packets, by the `LinkId` it numbers them with,
//!   and only those links' `(weight, packets)` groups are re-read
//!   ([`TrafficSource::refresh_link`], into a buffer the engine reuses) and
//!   folded straight into the snapshot's arena ([`LinkQueues::set_link`])
//!   instead of rebuilding all `O(n²)` queues. A link's aggregated weight
//!   classes depend only on that link's waiting packets, so the patched
//!   snapshot is identical to a from-scratch rebuild (property-tested in
//!   `tests/proptest_invariants.rs`).
//!
//! The α search itself (exhaustive with upper-bound pruning, or ternary)
//! lives in `best_config` and is driven through [`SearchPolicy`].
//! The snapshot is the only state the engine keeps between selects: each
//! select bounds its candidates from the snapshot and its own solves alone,
//! so its solve count is a pure function of the snapshot.

use crate::best_config::{
    AlphaSearch, BestChoice, ColumnKernel, ExactKernel, MatchingKind, SweepContext,
};
use crate::duplex::GeneralMatcherKind;
use crate::state::{LinkQueues, MultiAlphaEdges};
use crate::SchedError;
use octopus_net::duplex::{DuplexMatching, DuplexNetwork};
use octopus_net::{Configuration, Matching, NodeId, Schedule};
use std::collections::HashSet;

/// How one iteration's α-candidate search runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchPolicy {
    /// Exhaustive or ternary (Octopus-B) candidate search.
    pub search: AlphaSearch,
    /// Selects nothing: the search always runs on the calling thread. It
    /// stays only because the stand-alone benchmark crate (`perfbench`)
    /// still names it in a [`SearchPolicy`] literal; the next change to the
    /// benchmark deletes it with `OctopusConfig::parallel`. A threaded
    /// search was measured slower at the daemon's fabric size and deleted
    /// (EXPERIMENTS.md, "α-search threading verdict").
    pub parallel: bool,
    /// Break score ties toward the *larger* α. The localized-reconfiguration
    /// planner prefers longer configurations (persistent links serve through
    /// Δ); every other variant prefers the smaller α.
    pub prefer_larger_alpha: bool,
    /// The exact assignment algorithm: [`ExactKernel`] has the one value
    /// `Hungarian`, so this selects nothing. It stays until the benchmark
    /// crate stops naming it (see [`ExactKernel`]).
    pub kernel: ExactKernel,
}

impl SearchPolicy {
    /// Sequential exhaustive search with smaller-α tie-breaks — the search
    /// the non-bipartite variants historically used.
    pub fn exhaustive() -> Self {
        SearchPolicy {
            search: AlphaSearch::Exhaustive,
            parallel: false,
            prefer_larger_alpha: false,
            kernel: ExactKernel::Hungarian,
        }
    }
}

/// Extra α candidates beyond the Procedure-1 class boundaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CandidateExtension {
    /// Just the class-boundary prefix counts.
    None,
    /// Each boundary also shifted *down* by Δ: links persisting from the
    /// previous configuration serve `α + Δ` slots, so their class boundaries
    /// are reached Δ slots early (localized reconfiguration).
    ShiftDown(u64),
    /// Each boundary also extended by `1..=lead` slots: chained packets lag
    /// one slot per upstream hop, so maxima can sit up to `𝒟 − 1` slots past
    /// a boundary (§5 multi-hop-per-configuration benefit).
    Lead(u64),
}

/// A `T^r` bookkeeping backend the engine can drive.
///
/// A source numbers its links with dense `LinkId`s, and its snapshot
/// ([`TrafficSource::snapshot_queues`]) numbers them the same way.
/// Implementations report, on every commit, the ids of the links whose
/// queues changed — or request a full snapshot rebuild (for
/// representations where dirty tracking is not worth it, like the
/// Octopus+ multi-route plan).
pub trait TrafficSource {
    /// Builds the full per-link queue snapshot for an `n`-node fabric,
    /// each link under the source's `LinkId`.
    fn snapshot_queues(&self, n: u32) -> LinkQueues;

    /// Applies one committed configuration as per-link slot budgets and
    /// fills `dirty`, handed in empty, with the sorted, deduplicated
    /// `LinkId`s whose queues changed. Returns `false` when the caller must
    /// rebuild the snapshot from scratch instead.
    fn apply_served(&mut self, served: &[(NodeId, NodeId, u64)], dirty: &mut Vec<u32>) -> bool;

    /// The key of every link the source numbers, indexed by `LinkId`: a
    /// patch takes on the links its snapshot has not seen yet from here
    /// ([`LinkQueues::intern`]). Sources that always request full rebuilds
    /// may return an empty slice.
    fn link_keys(&self) -> &[(u32, u32)];

    /// Fills `out`, handed in empty, with `LinkId` `li`'s `(weight,
    /// packets)` groups in the current state, in any order; groups holding
    /// no packets are ignored, and leaving `out` empty means the link is
    /// now empty. The engine folds them into its snapshot
    /// ([`LinkQueues::set_link`]). Called only for links reported dirty by
    /// [`TrafficSource::apply_served`] or handed to
    /// [`ScheduleEngine::patch_links`]; sources that always request full
    /// rebuilds can leave `out` empty, since no link is ever reported
    /// dirty.
    fn refresh_link(&self, li: u32, out: &mut Vec<(f64, u64)>);

    /// Whether every packet has (planned to) come home.
    fn is_drained(&self) -> bool;
}

impl<T: TrafficSource + ?Sized> TrafficSource for &mut T {
    fn snapshot_queues(&self, n: u32) -> LinkQueues {
        (**self).snapshot_queues(n)
    }

    fn apply_served(&mut self, served: &[(NodeId, NodeId, u64)], dirty: &mut Vec<u32>) -> bool {
        (**self).apply_served(served, dirty)
    }

    fn link_keys(&self) -> &[(u32, u32)] {
        (**self).link_keys()
    }

    fn refresh_link(&self, li: u32, out: &mut Vec<(f64, u64)>) {
        (**self).refresh_link(li, out);
    }

    fn is_drained(&self) -> bool {
        (**self).is_drained()
    }
}

/// What a *configuration* is on a given fabric: which weight column each
/// candidate α gets and how a column becomes a configuration
/// ([`Fabric::weight_sweep`]), and how a chosen link set is realized into a
/// [`Matching`] plus the per-link slot budgets `T^r` should serve.
pub trait Fabric {
    /// Turns the winning link set into the matching pushed onto the
    /// schedule, and fills `budgets`, handed in empty, with the `(src, dst,
    /// slots)` budgets applied to the traffic source, in serve order.
    ///
    /// # Errors
    /// [`SchedError::Net`] when the link set violates the fabric's port
    /// constraints — the matching kernel and the fabric model disagree,
    /// which a correct kernel never produces.
    fn realize(
        &self,
        links: &[(u32, u32)],
        alpha: u64,
        budgets: &mut Vec<(NodeId, NodeId, u64)>,
    ) -> Result<Matching, SchedError>;

    /// The batched multi-α weight sweep of `candidates`: the fixed topology
    /// over the snapshot, from which every candidate's bounds come in one
    /// pass and its weight column on demand
    /// ([`LinkQueues::weighted_edges_multi`]), and the [`ColumnKernel`]
    /// that turns a column into this fabric's configuration. The engine
    /// evaluates candidates on the thread's reusable matching workspace and
    /// prunes them with the per-column bounds.
    fn weight_sweep<'q>(
        &self,
        queues: &'q LinkQueues,
        candidates: &[u64],
    ) -> (MultiAlphaEdges<'q>, ColumnKernel);

    /// Extra α candidates beyond the Procedure-1 class boundaries for the
    /// next [`ScheduleEngine::plan_window`] iteration (default: none).
    fn extension(&self) -> CandidateExtension {
        CandidateExtension::None
    }

    /// Told the links [`ScheduleEngine::plan_window`] just committed, for
    /// fabrics whose next evaluation depends on the previous configuration
    /// (default: ignored).
    fn committed(&mut self, links: &[(u32, u32)]) {
        let _ = links;
    }
}

/// The plain bipartite fabric of core Octopus: one transceiver per port,
/// configurations are maximum-weight matchings of `g(i, j, α)`.
#[derive(Debug, Clone, Copy)]
pub struct BipartiteFabric {
    /// The matching kernel (exact Hungarian, sort-greedy, bucket-greedy).
    pub kind: MatchingKind,
}

impl Fabric for BipartiteFabric {
    fn realize(
        &self,
        links: &[(u32, u32)],
        alpha: u64,
        budgets: &mut Vec<(NodeId, NodeId, u64)>,
    ) -> Result<Matching, SchedError> {
        let matching = Matching::new_free(links.iter().copied())?;
        budgets.extend(links.iter().map(|&(i, j)| (NodeId(i), NodeId(j), alpha)));
        Ok(matching)
    }

    fn weight_sweep<'q>(
        &self,
        queues: &'q LinkQueues,
        candidates: &[u64],
    ) -> (MultiAlphaEdges<'q>, ColumnKernel) {
        (
            queues.weighted_edges_multi(candidates),
            ColumnKernel::Matching(self.kind),
        )
    }
}

/// The §7 K-port fabric: each node has `r` transceivers, a configuration is
/// a union of up to `r` edge-disjoint matchings built greedily on one `g`
/// column, each later round seeing the same `g` minus the links already
/// taken ([`ColumnKernel::Union`]).
#[derive(Debug, Clone, Copy)]
pub struct KPortFabric {
    /// The per-round matching kernel.
    pub kind: MatchingKind,
    /// Transceivers per node.
    pub r: u32,
}

impl Fabric for KPortFabric {
    fn realize(
        &self,
        links: &[(u32, u32)],
        alpha: u64,
        budgets: &mut Vec<(NodeId, NodeId, u64)>,
    ) -> Result<Matching, SchedError> {
        let matching = Matching::new_free_with_capacity(links.iter().copied(), self.r)?;
        budgets.extend(links.iter().map(|&(i, j)| (NodeId(i), NodeId(j), alpha)));
        Ok(matching)
    }

    fn weight_sweep<'q>(
        &self,
        queues: &'q LinkQueues,
        candidates: &[u64],
    ) -> (MultiAlphaEdges<'q>, ColumnKernel) {
        let kernel = ColumnKernel::Union {
            kind: self.kind,
            r: self.r,
        };
        (queues.weighted_edges_multi(candidates), kernel)
    }
}

/// The §7 full-duplex fabric: an undirected general graph where edge
/// `{a, b}` is worth `g(a→b, α) + g(b→a, α)` and configurations are
/// general-graph matchings (exact blossom or greedy,
/// [`ColumnKernel::Duplex`]).
#[derive(Debug, Clone, Copy)]
pub struct DuplexFabric<'a> {
    /// The undirected fabric the matchings must live on.
    pub net: &'a DuplexNetwork,
    /// General-graph matching kernel.
    pub matcher: GeneralMatcherKind,
    /// Scale making the rational edge weights integral for the blossom's
    /// integer duals.
    pub scale: f64,
}

impl Fabric for DuplexFabric<'_> {
    fn realize(
        &self,
        links: &[(u32, u32)],
        alpha: u64,
        budgets: &mut Vec<(NodeId, NodeId, u64)>,
    ) -> Result<Matching, SchedError> {
        let dm = DuplexMatching::new(self.net, links.iter().copied())?;
        let directed = dm.to_directed();
        budgets.extend(directed.links().iter().map(|&(i, j)| (i, j, alpha)));
        Ok(directed)
    }

    fn weight_sweep<'q>(
        &self,
        queues: &'q LinkQueues,
        candidates: &[u64],
    ) -> (MultiAlphaEdges<'q>, ColumnKernel) {
        let kernel = ColumnKernel::Duplex {
            matcher: self.matcher,
            scale: self.scale,
        };
        (queues.weighted_edges_multi(candidates), kernel)
    }
}

/// The localized-reconfiguration fabric (§9 future work): links persisting
/// from the previous matching keep serving through the Δ transition, so a
/// persistent link is worth `g(i, j, α + Δ)` and gets an `α + Δ` budget.
#[derive(Debug, Clone)]
pub struct LocalFabric {
    /// The matching kernel.
    pub kind: MatchingKind,
    /// Reconfiguration delay Δ (the persistent-link bonus).
    pub delta: u64,
    /// Links of the previously committed matching, updated through
    /// [`Fabric::committed`].
    pub prev: HashSet<(u32, u32)>,
}

impl LocalFabric {
    /// The slot budget link `(i, j)` serves under duration `alpha`.
    fn slots(&self, link: (u32, u32), alpha: u64) -> u64 {
        if self.prev.contains(&link) {
            alpha + self.delta
        } else {
            alpha
        }
    }
}

impl Fabric for LocalFabric {
    fn realize(
        &self,
        links: &[(u32, u32)],
        alpha: u64,
        budgets: &mut Vec<(NodeId, NodeId, u64)>,
    ) -> Result<Matching, SchedError> {
        let matching = Matching::new_free(links.iter().copied())?;
        budgets.extend(
            links
                .iter()
                .map(|&(i, j)| (NodeId(i), NodeId(j), self.slots((i, j), alpha))),
        );
        Ok(matching)
    }

    fn weight_sweep<'q>(
        &self,
        queues: &'q LinkQueues,
        candidates: &[u64],
    ) -> (MultiAlphaEdges<'q>, ColumnKernel) {
        // Persistent links serve through the Δ transition, so their column
        // entries are g(i, j, α + Δ) — a per-link slot bonus in the sweep.
        let sweep = queues.weighted_edges_multi_with(candidates, |link| {
            if self.prev.contains(&link) {
                self.delta
            } else {
                0
            }
        });
        (sweep, ColumnKernel::Matching(self.kind))
    }

    fn extension(&self) -> CandidateExtension {
        // Persistent links serve α + Δ slots, so boundaries shifted down by
        // Δ are also candidate maxima.
        if self.delta > 0 && !self.prev.is_empty() {
            CandidateExtension::ShiftDown(self.delta)
        } else {
            CandidateExtension::None
        }
    }

    fn committed(&mut self, links: &[(u32, u32)]) {
        self.prev = links.iter().copied().collect();
    }
}

/// One planned window: what [`ScheduleEngine::plan_window`] committed.
#[derive(Debug, Clone, Default)]
pub struct WindowRun {
    /// The committed configurations in serve order; `Σ(α + Δ) ≤ window`.
    pub schedule: Schedule,
    /// Greedy iterations run (one per committed configuration).
    pub iterations: usize,
    /// Weighted matchings solved across all iterations.
    pub matchings_computed: usize,
}

/// The shared greedy-iteration engine: a traffic source plus a persistently
/// maintained queue snapshot, patched link-by-link on every commit. The
/// budget, dirty-link and pair lists a commit or patch fills are buffers the
/// engine reuses, so once they have grown a commit allocates only the
/// matching it returns.
///
/// ```
/// use octopus_core::engine::{BipartiteFabric, CandidateExtension, ScheduleEngine, SearchPolicy};
/// use octopus_core::{MatchingKind, RemainingTraffic};
/// use octopus_traffic::{Flow, FlowId, HopWeighting, Route, TrafficLoad};
///
/// let load = TrafficLoad::new(vec![Flow::single(
///     FlowId(1), 10, Route::from_ids([0, 1]).unwrap(),
/// )]).unwrap();
/// let mut tr = RemainingTraffic::new(&load, HopWeighting::Uniform).unwrap();
/// let fabric = BipartiteFabric { kind: MatchingKind::Exact };
/// let mut engine = ScheduleEngine::new(&mut tr, 2, 0);
/// let choice = engine
///     .select(&fabric, 100, CandidateExtension::None, &SearchPolicy::exhaustive())
///     .unwrap();
/// assert_eq!(choice.alpha, 10);
/// engine.commit(&fabric, &choice.matching, choice.alpha).unwrap();
/// assert!(engine.is_drained());
/// ```
#[derive(Debug)]
pub struct ScheduleEngine<S: TrafficSource> {
    source: S,
    /// Lazily built, incrementally patched snapshot (`None` = needs rebuild).
    queues: Option<LinkQueues>,
    n: u32,
    delta: u64,
    /// A commit's realized `(src, dst, slots)` budgets.
    budgets: Vec<(NodeId, NodeId, u64)>,
    /// The `LinkId`s a commit or source update changed.
    dirty: Vec<u32>,
    /// One patched link's `(weight, packets)` groups.
    pairs: Vec<(f64, u64)>,
}

impl<S: TrafficSource> ScheduleEngine<S> {
    /// Creates an engine over `source` for an `n`-node fabric with
    /// reconfiguration delay `delta`.
    pub fn new(source: S, n: u32, delta: u64) -> Self {
        ScheduleEngine {
            source,
            queues: None,
            n,
            delta,
            budgets: Vec::new(),
            dirty: Vec::new(),
            pairs: Vec::new(),
        }
    }

    /// Fabric size the engine plans for.
    pub fn n(&self) -> u32 {
        self.n
    }

    /// The reconfiguration delay Δ.
    pub fn delta(&self) -> u64 {
        self.delta
    }

    /// Read access to the traffic source.
    pub fn source(&self) -> &S {
        &self.source
    }

    /// Mutable access to the traffic source. Callers that mutate the source
    /// behind the engine's back must [`ScheduleEngine::invalidate`] (or
    /// [`ScheduleEngine::patch_links`]) after.
    pub fn source_mut(&mut self) -> &mut S {
        &mut self.source
    }

    /// Consumes the engine, returning the traffic source.
    pub fn into_source(self) -> S {
        self.source
    }

    /// Whether the source has no packets left to move.
    pub fn is_drained(&self) -> bool {
        self.source.is_drained()
    }

    /// Drops the cached snapshot; the next access rebuilds from scratch.
    pub fn invalidate(&mut self) {
        self.queues = None;
    }

    /// The current queue snapshot (built on first use, patched afterwards).
    pub fn queues(&mut self) -> &LinkQueues {
        let Self {
            queues, source, n, ..
        } = self;
        queues.get_or_insert_with(|| source.snapshot_queues(*n))
    }

    /// The candidate α values for this iteration, capped by `budget` and
    /// extended per `ext`. Sorted ascending, deduplicated.
    pub fn candidates(&mut self, budget: u64, ext: CandidateExtension) -> Vec<u64> {
        let base = self.queues().alpha_candidates(budget);
        extend_candidates(base, budget, ext)
    }

    /// Evaluates one α on `fabric` against the current snapshot: a sweep of
    /// that one candidate, solved as a select solves any candidate.
    pub fn evaluate<F: Fabric + ?Sized>(&mut self, fabric: &F, alpha: u64) -> BestChoice {
        let delta = self.delta;
        let (sweep, kernel) = fabric.weight_sweep(self.queues(), &[alpha]);
        SweepContext::new(sweep, kernel).eval(alpha, delta)
    }

    /// One iteration's configuration selection: enumerates candidates,
    /// searches them under `policy` with upper-bound pruning over the
    /// fabric's [`Fabric::weight_sweep`], and returns the winner — or
    /// `None` when no configuration has positive benefit.
    ///
    /// One fused pass over the sweep bounds every α by its column's
    /// row/column maxima. Weight columns are built for the first solve
    /// alone, then, at the first refine, for every α whose eager bound
    /// reaches the first solve's score, in one more pass over the edges
    /// into a block the select owns; every later refine or solve reads that
    /// block, and the solves run on this thread's reusable workspace.
    /// Before each solve, a weak-duality bound under this select's own
    /// solved duals (the rows that bracket α) prunes too. Every bound goes
    /// through the fabric's [`ColumnKernel`], and every bound only skips
    /// provably dominated candidates, since the pruning cut is strict and
    /// only ever compares against exactly evaluated scores. The bounds are
    /// valid for the greedy kernels too (a greedy matching never out-weighs
    /// the exact optimum). Nothing outlives the select but the snapshot.
    pub fn select<F: Fabric + ?Sized>(
        &mut self,
        fabric: &F,
        budget: u64,
        ext: CandidateExtension,
        policy: &SearchPolicy,
    ) -> Option<BestChoice> {
        if budget == 0 {
            return None;
        }
        let delta = self.delta;
        let queues = self.queues();
        let candidates = extend_candidates(queues.alpha_candidates(budget), budget, ext);
        let (sweep, kernel) = fabric.weight_sweep(queues, &candidates);
        SweepContext::new(sweep, kernel).search(policy, delta)
    }

    /// Commits a chosen configuration: realizes it on `fabric`, applies the
    /// resulting budgets to the source, and patches the snapshot on exactly
    /// the dirty links. Returns the matching to push onto the schedule.
    ///
    /// # Errors
    /// [`SchedError::Net`] when realization fails (see [`Fabric::realize`]);
    /// the source and snapshot are untouched in that case.
    pub fn commit<F: Fabric + ?Sized>(
        &mut self,
        fabric: &F,
        links: &[(u32, u32)],
        alpha: u64,
    ) -> Result<Matching, SchedError> {
        let mut budgets = std::mem::take(&mut self.budgets);
        budgets.clear();
        let realized = fabric.realize(links, alpha, &mut budgets);
        if realized.is_ok() {
            self.commit_budgets(&budgets);
        }
        self.budgets = budgets;
        realized
    }

    /// Applies explicit per-link slot budgets to the source and patches the
    /// snapshot (used by the hysteresis baseline, which serves an incumbent
    /// matching rather than a freshly selected one).
    pub fn commit_budgets(&mut self, budgets: &[(NodeId, NodeId, u64)]) {
        let mut dirty = std::mem::take(&mut self.dirty);
        dirty.clear();
        if self.source.apply_served(budgets, &mut dirty) {
            self.patch_links(&dirty);
        } else {
            self.queues = None;
        }
        self.dirty = dirty;
    }

    /// Mutates the source on a link set it reports: `f` gets the source and
    /// an empty list to fill with the `LinkId` of every link whose queues
    /// it changed, and
    /// the snapshot is then patched on those links
    /// ([`ScheduleEngine::patch_links`]). The list is the engine's own,
    /// reused, so streaming admissions
    /// ([`crate::RemainingTraffic::admit_subflows_into`]) and cancellations
    /// ([`crate::RemainingTraffic::cancel_flow_into`]) allocate nothing here.
    pub fn update_source<R>(&mut self, f: impl FnOnce(&mut S, &mut Vec<u32>) -> R) -> R {
        let mut dirty = std::mem::take(&mut self.dirty);
        dirty.clear();
        let out = f(&mut self.source, &mut dirty);
        self.patch_links(&dirty);
        self.dirty = dirty;
        out
    }

    /// Brings the cached snapshot back in sync after the traffic source was
    /// mutated behind the engine's back on a known set of links, given by
    /// `LinkId` — the streaming admission/cancellation path
    /// ([`crate::RemainingTraffic::admit_subflows`] returns exactly this dirty
    /// set), the patch step of every commit and of
    /// [`ScheduleEngine::update_source`]. Links the source numbered since
    /// the snapshot last saw it are pushed onto the snapshot first
    /// ([`LinkQueues::intern`]); then each dirty link's `(weight, packets)`
    /// groups are re-read from the source into the engine's reused buffer
    /// and folded into the snapshot's arena at that id. A no-op when no
    /// snapshot is cached yet.
    ///
    /// Callers mutating the source on an *unknown* link set must use
    /// [`ScheduleEngine::invalidate`] instead.
    pub fn patch_links(&mut self, dirty: &[u32]) {
        let Self {
            queues,
            source,
            pairs,
            ..
        } = self;
        if let Some(queues) = queues.as_mut() {
            queues.intern(source.link_keys());
            for &li in dirty {
                pairs.clear();
                source.refresh_link(li, pairs);
                queues.set_link(li, pairs);
            }
        }
    }

    /// Plans one window with the greedy loop of Procedure 2: select the
    /// configuration with the best benefit per `α + Δ` on `fabric`, commit
    /// it, and repeat while packets remain, some configuration can move one,
    /// and the next `α + Δ` still fits the `window`. Every Octopus variant
    /// except the chain-aware one is this loop over its own [`Fabric`].
    ///
    /// # Errors
    /// [`SchedError::Net`] when a winner fails to realize on `fabric` (see
    /// [`Fabric::realize`]); the configurations committed before it stay
    /// applied to the source.
    pub fn plan_window<F: Fabric + ?Sized>(
        &mut self,
        fabric: &mut F,
        policy: &SearchPolicy,
        window: u64,
    ) -> Result<WindowRun, SchedError> {
        let delta = self.delta;
        let mut run = WindowRun::default();
        let mut used = 0u64;
        while !self.is_drained() && used + delta < window {
            let budget = window - used - delta;
            let Some(choice) = self.select(&*fabric, budget, fabric.extension(), policy) else {
                break;
            };
            run.iterations += 1;
            run.matchings_computed += choice.matchings_computed;
            let matching = self.commit(&*fabric, &choice.matching, choice.alpha)?;
            fabric.committed(&choice.matching);
            run.schedule
                .push(Configuration::new(matching, choice.alpha));
            used += choice.alpha + delta;
        }
        Ok(run)
    }
}

/// Extends the Procedure-1 candidate set per `ext`; result stays sorted
/// ascending and deduplicated, capped by `budget`.
fn extend_candidates(mut set: Vec<u64>, budget: u64, ext: CandidateExtension) -> Vec<u64> {
    match ext {
        CandidateExtension::None => return set,
        CandidateExtension::ShiftDown(delta) => {
            let shifted: Vec<u64> = set
                .iter()
                .filter_map(|&a| a.checked_sub(delta))
                .filter(|&a| a > 0)
                .collect();
            set.extend(shifted);
        }
        CandidateExtension::Lead(lead) => {
            let base = set.clone();
            for a in base {
                for l in 1..=lead {
                    if a + l <= budget {
                        set.push(a + l);
                    }
                }
            }
        }
    }
    set.sort_unstable();
    set.dedup();
    set
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RemainingTraffic;
    use octopus_traffic::{Flow, FlowId, HopWeighting, Route, TrafficLoad};

    fn load_example1() -> TrafficLoad {
        TrafficLoad::new(vec![
            Flow::single(FlowId(1), 100, Route::from_ids([0, 1, 2]).unwrap()),
            Flow::single(FlowId(2), 50, Route::from_ids([3, 0, 1]).unwrap()),
            Flow::single(FlowId(3), 50, Route::from_ids([2, 1, 0]).unwrap()),
        ])
        .unwrap()
    }

    /// The patched snapshot must equal a from-scratch rebuild after every
    /// commit (same links, same weight classes, same g values).
    fn assert_snapshot_matches_rebuild(engine: &mut ScheduleEngine<&mut RemainingTraffic>) {
        let n = engine.n();
        let rebuilt = engine.source().snapshot_queues(n);
        let patched = engine.queues();
        let patched_links: Vec<(u32, u32)> = patched.links().collect();
        let rebuilt_links: Vec<(u32, u32)> = rebuilt.links().collect();
        assert_eq!(patched_links, rebuilt_links);
        for (i, j) in rebuilt_links {
            let a = patched.queue(i, j).unwrap();
            let b = rebuilt.queue(i, j).unwrap();
            assert_eq!(a.classes(), b.classes(), "link ({i}, {j})");
        }
    }

    #[test]
    fn incremental_patch_matches_full_rebuild() {
        let mut tr = RemainingTraffic::new(&load_example1(), HopWeighting::Uniform).unwrap();
        let fabric = BipartiteFabric {
            kind: MatchingKind::Exact,
        };
        let policy = SearchPolicy::exhaustive();
        let mut engine = ScheduleEngine::new(&mut tr, 4, 5);
        let mut budget = 295u64;
        while let Some(choice) = engine.select(&fabric, budget, CandidateExtension::None, &policy) {
            engine
                .commit(&fabric, &choice.matching, choice.alpha)
                .unwrap();
            assert_snapshot_matches_rebuild(&mut engine);
            budget = budget.saturating_sub(choice.alpha + 5);
            if budget == 0 {
                break;
            }
        }
        assert!(engine.is_drained());
    }

    #[test]
    fn select_matches_best_configuration() {
        let mut tr = RemainingTraffic::new(&load_example1(), HopWeighting::Uniform).unwrap();
        let queues = tr.link_queues(4);
        let expected = crate::best_configuration(
            &queues,
            5,
            250,
            AlphaSearch::Exhaustive,
            MatchingKind::Exact,
            false,
        )
        .unwrap();
        let fabric = BipartiteFabric {
            kind: MatchingKind::Exact,
        };
        let mut engine = ScheduleEngine::new(&mut tr, 4, 5);
        let got = engine
            .select(
                &fabric,
                250,
                CandidateExtension::None,
                &SearchPolicy::exhaustive(),
            )
            .unwrap();
        assert_eq!(got, expected);
        // Both searches are sequential, so their solve counts are fixed too.
        assert_eq!(got.matchings_computed, expected.matchings_computed);
    }

    #[test]
    fn candidate_extensions_extend_and_dedup() {
        assert_eq!(
            extend_candidates(vec![10, 30], 100, CandidateExtension::None),
            vec![10, 30]
        );
        assert_eq!(
            extend_candidates(vec![10, 30], 100, CandidateExtension::ShiftDown(5)),
            vec![5, 10, 25, 30]
        );
        assert_eq!(
            extend_candidates(vec![10, 30], 31, CandidateExtension::Lead(2)),
            vec![10, 11, 12, 30, 31]
        );
    }

    #[test]
    fn commit_budgets_patches_served_links() {
        let mut tr = RemainingTraffic::new(&load_example1(), HopWeighting::Uniform).unwrap();
        let mut engine = ScheduleEngine::new(&mut tr, 4, 0);
        let before = engine.queues().queue(0, 1).unwrap().total_packets();
        assert_eq!(before, 100);
        engine.commit_budgets(&[(NodeId(3), NodeId(0), 50)]);
        // (3,0) emptied, its packets landed on (0,1).
        assert!(engine.queues().queue(3, 0).is_none());
        assert_eq!(engine.queues().queue(0, 1).unwrap().total_packets(), 150);
        assert_snapshot_matches_rebuild(&mut engine);
    }
}
