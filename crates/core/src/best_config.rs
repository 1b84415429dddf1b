//! Selecting the best configuration `(M, α)` — Procedure 2 of the paper.
//!
//! For a given α, the best matching is a maximum-weight matching of the
//! fabric graph weighted by `g(i, j, α)`. Only class-boundary α values need
//! to be considered (Procedure 1 / Lemma 3: benefit-per-unit-cost is
//! monotone between boundaries). This module holds the *search machinery*
//! shared by every scheduler variant via
//! [`crate::engine::ScheduleEngine`]:
//!
//! * [`AlphaSearch::Exhaustive`] finds the best of every candidate α —
//!   exact selection, the default **Octopus** behavior — but solves only
//!   candidates that certified score bounds cannot rule out (see *Pruning*
//!   below). With `parallel`, candidate
//!   evaluation fans out over rayon's worker threads (the paper's multi-core
//!   controller argument, §4.1); the worker count follows the machine's
//!   available parallelism and can be pinned via the `OCTOPUS_THREADS`
//!   environment variable or `rayon::ThreadPoolBuilder`. Parallel and
//!   sequential searches return bit-identical winners: the comparator is a
//!   strict total order, so the parallel reduction is shape-independent.
//! * [`AlphaSearch::Binary`] ternary-searches the candidate list — the
//!   **Octopus-B** variant, `O(log)` matchings per iteration at a (measured,
//!   §8 Fig 9a) negligible quality loss.
//! * [`MatchingKind`] switches the matching kernel: exact Hungarian,
//!   comparison-sort greedy, or the linear-time bucket greedy of
//!   **Octopus-G**.
//!
//! The search functions are generic over the per-α evaluation (a closure
//! returning a [`BestChoice`]), so fabrics other than the plain bipartite
//! one (K-port unions, duplex general graphs, persistence-aware local
//! reconfiguration, chained multihop) reuse the identical candidate
//! enumeration, pruning, tie-breaking and parallelism.
//!
//! # Pruning
//!
//! On a swept select ([`SweepContext`]) every candidate α starts with an
//! *eager* score bound: the sweep's row/column-max bound, tightened by the
//! weak-duality bound under the previous select's dual row nearest to α.
//! Every exact solve publishes its right-side duals into this select's
//! [`DualTable`], and `refine(α, incumbent)` bounds a candidate *lazily*
//! under them: [`DualTable::bracket`] interpolates the nearest published
//! rows on either side of α (or takes the one nearest row), and when the
//! bound under that row does not fall strictly below `incumbent`, one
//! descent step re-derives the right duals from the left ones and bounds
//! again.
//!
//! The sequential search is best-first: it repeatedly takes the unsolved
//! candidate with the highest current bound (smaller α on a tie), stops
//! when that bound is strictly below the incumbent's score, refreshes the
//! bound through `refine` when a row was published since the bound was
//! last refined, and otherwise solves it. The parallel search keeps a
//! bound-descending claim order and cuts against a shared floor.
//!
//! Why this stays exact: each bound is a weak-duality certificate derived
//! from scratch for the candidate's own column — the left duals are
//! re-derived from whatever `z ≥ 0` is at hand, so `(y, z)` is feasible
//! however the row was obtained — and padded outward for float rounding.
//! An interpolated (or stale, or another α's) row is therefore never
//! trusted; a poor guess only loosens the bound. Since a candidate is
//! skipped only when its bound is strictly below an exactly evaluated
//! score, it loses even on tie-breaks, and the winner, its matching and
//! every schedule are the same as an unbounded search's.

use crate::engine::SearchPolicy;
use crate::state::{LinkQueues, MultiAlphaEdges};
use octopus_matching::{
    greedy::{bucket_greedy_matching, greedy_matching, GreedyScratch},
    matching_weight, AssignmentSolver, AuctionSolver, WeightedBipartiteGraph,
};
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// How candidate α values are searched each iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum AlphaSearch {
    /// Evaluate all candidates (with upper-bound pruning): exact.
    #[default]
    Exhaustive,
    /// Ternary search over the sorted candidates (Octopus-B): finds *a*
    /// local maximum of benefit-per-cost with `O(log |A|)` matchings.
    Binary,
}

/// Which matching kernel computes the configuration for a given α.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum MatchingKind {
    /// Exact maximum-weight matching (Hungarian with potentials).
    #[default]
    Exact,
    /// Sort-based greedy ½-approximation.
    GreedySort,
    /// Linear-time counting-sort greedy (Octopus-G). `scale` converts the
    /// rational packet weights to integers — use
    /// `octopus_traffic::weight::weight_scale(𝒟)`.
    BucketGreedy {
        /// Integral scaling factor for edge weights.
        scale: u64,
    },
}

/// Which algorithm backs [`MatchingKind::Exact`] evaluations in a swept
/// select: both return maximum-weight matchings, but with different cost
/// profiles (see `octopus_matching`'s `auction.rs` for when the auction
/// wins) and possibly different — equally optimal — matchings on tie-heavy
/// instances. The kernel is therefore part of the [`SearchPolicy`]: a
/// schedule is only reproducible against runs using the same kernel.
/// Per-α evaluations outside a sweep (and the K-port union rounds) carry
/// no policy and always use the Hungarian solver.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum ExactKernel {
    /// Successive shortest augmenting paths with Johnson potentials
    /// ([`AssignmentSolver`]) — the sequential default.
    #[default]
    Hungarian,
    /// Forward auction with ε-scaling ([`AuctionSolver`]) — deterministic
    /// parallel bidding inside a single solve.
    Auction,
}

/// The winning configuration of one greedy iteration.
///
/// Equality compares what was chosen, not how the search ran: it ignores
/// [`BestChoice::matchings_computed`] and [`BestChoice::worker_evals`],
/// which the parallel search's shared pruning floor lets differ from run to
/// run.
#[derive(Debug, Clone)]
pub struct BestChoice {
    /// Links of the chosen matching.
    pub matching: Vec<(u32, u32)>,
    /// Chosen duration α.
    pub alpha: u64,
    /// Benefit `B((M, α), S)` — the ψ improvement.
    pub benefit: f64,
    /// Benefit per unit cost, `benefit / (α + Δ)`.
    pub score: f64,
    /// Number of weighted matchings computed to find this choice.
    pub matchings_computed: usize,
    /// Candidate evaluations per executor worker for the search that
    /// produced this choice: one entry per worker of the work-stealing
    /// parallel search (straggler imbalance shows up directly in the Debug
    /// output), a single entry for the sequential searches, empty for a
    /// direct per-α evaluation that went through no search.
    pub worker_evals: Vec<u32>,
}

impl PartialEq for BestChoice {
    fn eq(&self, other: &Self) -> bool {
        self.matching == other.matching
            && self.alpha == other.alpha
            && self.benefit == other.benefit
            && self.score == other.score
    }
}

/// Per-worker matching workspace: the exact solver (CSR topology, duals,
/// Dijkstra scratch), the greedy sort/marker buffers, and the integral-weight
/// and output scratch. One instance lives in each thread's TLS, so both the
/// sequential search and rayon's workers reuse buffers across every candidate
/// α they evaluate — and across iterations, since TLS outlives the search.
///
/// Solves are pure functions of `(topology, weights)` (see
/// [`AssignmentSolver`]'s no-warm-start contract), so which worker evaluates
/// which α cannot change any result — workspace reuse is determinism-safe.
#[derive(Default)]
struct KernelWorkspace {
    solver: AssignmentSolver,
    auction: AuctionSolver,
    greedy: GreedyScratch,
    ints: Vec<u64>,
    out: Vec<(u32, u32)>,
    /// Dual row scratch: a solve's right-side duals on their way into the
    /// search's [`DualTable`], or a table row on its way into a bound.
    z: Vec<f64>,
    /// Left duals `y` re-derived by the last [`SweepContext::dual_bound`],
    /// which the descent step ([`SweepContext::descent_bound`]) starts from.
    y: Vec<f64>,
    /// The descent step's right duals `z'`.
    z_descent: Vec<f64>,
    /// The sequential search's unsolved candidates ([`exhaustive_pruned`]),
    /// taken out for the search and put back after it.
    pending: Vec<Pending>,
    /// Id of the [`SweepContext`] whose topology `solver` currently holds
    /// (0 = none, or overwritten by a one-shot [`run_kernel`] call).
    loaded_sweep: u64,
    /// Same stamp for `auction` — the kernels load topologies independently,
    /// so switching kernels mid-process never reloads the other's CSR.
    loaded_sweep_auction: u64,
}

thread_local! {
    static KERNEL_WS: RefCell<KernelWorkspace> = RefCell::new(KernelWorkspace::default());
}

/// Sweep ids start at 1 so a fresh workspace (`loaded_sweep == 0`) never
/// aliases a real sweep.
static SWEEP_IDS: AtomicU64 = AtomicU64::new(1);

/// Pads a certified upper bound on a matching weight outward, so that the
/// strict α-search cut (`bound < incumbent score` ⇒ skip) stays sound in
/// floating point.
///
/// Each bound the cut compares — the sweep's row/column-max bound and the
/// weak-duality bound — is at least the kernel's matching weight in exact
/// arithmetic, but both sides are float sums, summed in different orders:
/// the bound of `m` rounded non-negative terms, the kernel's weight
/// (`last_weight`, summed in matching order) of at most `n` terms. The
/// recursive-summation error bound (Higham, *Accuracy and Stability of
/// Numerical Algorithms*, §4.2: `|fl(Σxᵢ) − Σxᵢ| ≤ γₖ Σ|xᵢ|`,
/// `γₖ = k·u / (1 − k·u)`, `u = ε/2`) puts the computed weight at most
/// `(1 + γₙ) / (1 − γₘ)` times the computed bound. With `terms ≥ m + n`,
/// the factor `1 + (terms + 2)·ε = 1 + 2(terms + 2)·u` covers that ratio
/// and the rounding of the product itself for every `terms·u ≪ 1` (any
/// real fabric). Without the pad a bound that is tight in exact arithmetic
/// (an α's own optimal duals, or a column whose row maxima form the optimal
/// matching) can land one ulp below the kernel's score, and under an exact
/// score tie the strict cut would then drop a winner. Dividing both sides by
/// the same `α + Δ` afterwards is monotone, so the score bound stays safe.
/// Weights are rational hop weights far above the subnormal range, so
/// underflow is not a concern.
fn outward(bound: f64, terms: usize) -> f64 {
    bound * (1.0 + (terms + 2) as f64 * f64::EPSILON)
}

/// The right-side duals `z ≥ 0` of every candidate α one search solved
/// exactly, one row of `n` entries per candidate (`alphas` ascending).
///
/// A row is written once, by whichever worker solved its α, and published
/// by its `ready` flag (release store / acquire load), so the bounds of
/// candidates evaluated later — on any worker — read only complete rows.
/// Rows are stored as `f64` bits in atomics only to make that sharing
/// data-race-free; nothing else synchronizes on them.
#[derive(Debug)]
pub(crate) struct DualTable {
    n: usize,
    alphas: Vec<u64>,
    z: Vec<AtomicU64>,
    ready: Vec<AtomicBool>,
}

impl DualTable {
    /// An empty table for the ascending candidates `alphas` of an `n`-port
    /// fabric. Callers allocate it *before* the sweep's weight matrix: the
    /// table outlives the select (the engine keeps it for the next one), and
    /// allocated after the matrix it would sit above the matrix's freed
    /// block and fragment the heap (peak RSS +13% on a 256-port window).
    // lint:allow(hot-alloc) — amortized: one K × n table per select, next to the sweep's K × E weight matrix
    pub(crate) fn new(alphas: &[u64], n: usize) -> Self {
        DualTable {
            n,
            alphas: alphas.to_vec(),
            z: (0..alphas.len() * n).map(|_| AtomicU64::new(0)).collect(),
            ready: (0..alphas.len()).map(|_| AtomicBool::new(false)).collect(),
        }
    }

    /// Stores `z` as row `k` and publishes it. A row of the wrong length (a
    /// kernel that carried no price signal) is not stored.
    fn publish(&self, k: usize, z: &[f64]) {
        if z.len() != self.n {
            return;
        }
        for (slot, &v) in self.z[k * self.n..(k + 1) * self.n].iter().zip(z) {
            // lint:allow(atomic-ordering) — proof: the row is published by the Release store of `ready[k]` below; readers load entries only after an Acquire load of that flag sees `true`.
            slot.store(v.to_bits(), Ordering::Relaxed);
        }
        self.ready[k].store(true, Ordering::Release);
    }

    fn is_ready(&self, k: usize) -> bool {
        self.ready[k].load(Ordering::Acquire)
    }

    /// Copies row `k` into `out` (which must have been seen ready).
    fn copy_row(&self, k: usize, out: &mut Vec<f64>) {
        out.clear();
        out.extend(self.row(k));
    }

    /// The entries of row `k` (which must have been seen ready).
    fn row(&self, k: usize) -> impl Iterator<Item = f64> + '_ {
        self.z[k * self.n..(k + 1) * self.n]
            .iter()
            // lint:allow(atomic-ordering) — proof: callers read a row only after `is_ready` (Acquire) saw it published; the Release store in `publish` orders these entries before the flag.
            .map(|slot| f64::from_bits(slot.load(Ordering::Relaxed)))
    }

    /// Copies into `out` the published row whose α is nearest to `alpha`
    /// (the smaller α on a tie) and returns `true`, or returns `false` when
    /// no row is published. Sorted αs make the nearest published row on
    /// each side the first one met scanning outward.
    pub(crate) fn nearest(&self, alpha: u64, out: &mut Vec<f64>) -> bool {
        let k = match self.neighbours(alpha) {
            (Some(lo), Some(hi)) => {
                if alpha - self.alphas[lo] <= self.alphas[hi] - alpha {
                    lo
                } else {
                    hi
                }
            }
            (Some(k), None) | (None, Some(k)) => k,
            (None, None) => return false,
        };
        self.copy_row(k, out);
        true
    }

    /// Copies into `out` a dual row for `alpha` bracketed by the published
    /// rows and returns `true`, or returns `false` when no row is published.
    /// With a row published on each side of `alpha` (and none at `alpha`
    /// itself), `z` is their α-interpolation `z_lo + t·(z_hi − z_lo)`,
    /// `t = (α − α_lo) / (α_hi − α_lo)`; otherwise it is the one nearest
    /// row. Every entry is clamped at 0, so the row is a valid `z ≥ 0` for
    /// [`SweepContext::dual_bound`] whatever was published: interpolation
    /// only has to be a good guess, never a trusted one.
    pub(crate) fn bracket(&self, alpha: u64, out: &mut Vec<f64>) -> bool {
        let (lo, hi, t) = match self.neighbours(alpha) {
            (Some(lo), Some(hi)) if self.alphas[hi] != alpha => {
                let span = (self.alphas[hi] - self.alphas[lo]) as f64;
                (lo, hi, (alpha - self.alphas[lo]) as f64 / span)
            }
            (_, Some(k)) | (Some(k), None) => (k, k, 0.0),
            (None, None) => return false,
        };
        out.clear();
        out.extend(
            self.row(lo)
                .zip(self.row(hi))
                .map(|(a, b)| (a + t * (b - a)).max(0.0)),
        );
        true
    }

    /// The nearest published rows below and at-or-above `alpha`.
    fn neighbours(&self, alpha: u64) -> (Option<usize>, Option<usize>) {
        let pos = self.alphas.partition_point(|&a| a < alpha);
        let below = (0..pos).rev().find(|&k| self.is_ready(k));
        let above = (pos..self.alphas.len()).find(|&k| self.is_ready(k));
        (below, above)
    }
}

/// One iteration's batched α-search context: the fixed edge topology with one
/// weight column and one matching-weight upper bound per candidate α
/// ([`LinkQueues::weighted_edges_multi`]), tagged with a process-unique id so
/// per-thread workspaces know when their loaded CSR topology is current.
///
/// It also carries the dual sources that tighten the search's bounds: the
/// table this search fills with each exact solve's right-side duals, and
/// the previous search's table (`prior`). Both enter only through the
/// weak-duality bound, which is valid for any `z ≥ 0`, so neither can
/// change the winner.
pub(crate) struct SweepContext<'p> {
    sweep: MultiAlphaEdges,
    id: u64,
    duals: DualTable,
    prior: Option<&'p DualTable>,
}

impl<'p> SweepContext<'p> {
    /// A context over `sweep` that records its solves' duals in `duals`, a
    /// fresh [`DualTable`] over the same candidates.
    pub(crate) fn new(
        sweep: MultiAlphaEdges,
        duals: DualTable,
        prior: Option<&'p DualTable>,
    ) -> Self {
        debug_assert_eq!(duals.alphas, sweep.alphas(), "table and sweep disagree");
        SweepContext {
            sweep,
            // lint:allow(atomic-ordering) — proof: fetch_add is a single atomic RMW; uniqueness of the returned ids is guaranteed at any ordering and nothing else is synchronized on it.
            id: SWEEP_IDS.fetch_add(1, Ordering::Relaxed),
            duals,
            prior,
        }
    }

    /// The swept α-search over this context's candidates under `policy`,
    /// whose kernel backs [`MatchingKind::Exact`]: candidates are bounded
    /// eagerly by [`SweepContext::score_upper_bound`], lazily by
    /// [`SweepContext::solved_score_bound`], and solved by
    /// [`SweepContext::eval`]. Returns the winner (`None` when no
    /// configuration has positive benefit) and the duals the search solved,
    /// for the next search to start from.
    pub(crate) fn search(
        self,
        policy: &SearchPolicy,
        kind: MatchingKind,
        delta: u64,
    ) -> (Option<BestChoice>, DualTable) {
        let ub = |alpha: u64| self.score_upper_bound(alpha, delta);
        let solved = |alpha: u64, incumbent: f64| self.solved_score_bound(alpha, delta, incumbent);
        let best = search_alpha(
            &self.duals.alphas,
            policy,
            Some(&ub),
            Some(&solved),
            &|alpha| self.eval(alpha, delta, kind, policy.kernel),
        )
        .filter(|c| c.benefit > 0.0);
        (best, self.duals)
    }

    /// The eager score bound of one swept candidate α, which seeds its
    /// place in the search: the sweep's row/column-max bound, tightened by
    /// the weak-duality bound under the previous search's duals of the
    /// nearest α.
    pub(crate) fn score_upper_bound(&self, alpha: u64, delta: u64) -> f64 {
        let k = self.sweep.index_of(alpha);
        let n = self.sweep.n() as usize;
        let mut ub = outward(self.sweep.upper_bound(k), 2 * n);
        if let Some(prior) = self.prior {
            ub = ub.min(KERNEL_WS.with(|ws| {
                let ws = &mut *ws.borrow_mut();
                if prior.nearest(alpha, &mut ws.z) {
                    self.dual_bound(k, &ws.z, None)
                } else {
                    f64::INFINITY
                }
            }));
        }
        ub / (alpha + delta) as f64
    }

    /// The lazy score bound of one swept candidate α under the duals this
    /// search already solved (`+∞` before the first exact solve): the
    /// weak-duality bound under [`DualTable::bracket`]'s row and, when that
    /// does not fall strictly below `incumbent`, also under one descent
    /// step from it ([`SweepContext::descent_bound`]), the smaller of the
    /// two. Each costs a pass over the column, so the search consults it
    /// only for the candidate it is about to solve.
    pub(crate) fn solved_score_bound(&self, alpha: u64, delta: u64, incumbent: f64) -> f64 {
        let k = self.sweep.index_of(alpha);
        let cost = (alpha + delta) as f64;
        KERNEL_WS.with(|ws| {
            let ws = &mut *ws.borrow_mut();
            if !self.duals.bracket(alpha, &mut ws.z) {
                return f64::INFINITY;
            }
            let bound = self.dual_bound(k, &ws.z, Some(&mut ws.y)) / cost;
            if bound < incumbent {
                return bound;
            }
            bound.min(self.descent_bound(k, &ws.y, &mut ws.z_descent) / cost)
        })
    }

    /// A certified weak-duality bound on every matching weight of column
    /// `k`, from dual prices `z ≥ 0` (one entry per right port), padded by
    /// [`outward`]: re-deriving `y_u := max_v (w(u,v) − z_v)⁺` from scratch
    /// (left in `y` when given, one entry per left port) makes `(y, z)`
    /// dual-feasible for **any** `z ≥ 0`, however stale, so
    /// `Σ_u y_u + Σ_v z_v` bounds the column's maximum matching weight.
    /// Duals from other columns or other iterations therefore tighten
    /// pruning without ever being trusted — a poor `z` merely loosens the
    /// bound.
    fn dual_bound(&self, k: usize, z: &[f64], mut y: Option<&mut Vec<f64>>) -> f64 {
        let n = self.sweep.n() as usize;
        if let Some(y) = y.as_deref_mut() {
            y.clear();
            y.resize(n, 0.0);
        }
        // Edges are `(u, v)`-sorted, so each left port's enabled entries
        // form one contiguous run: its maximum is kept in a register and
        // stored once, when the run ends.
        let mut y_total = 0.0f64;
        let mut end_run = |u: u32, y_u: f64| {
            if let Some(slot) = y.as_deref_mut().and_then(|y| y.get_mut(u as usize)) {
                *slot = y_u;
            }
            y_total += y_u;
        };
        let mut cur_u = u32::MAX;
        let mut cur_best = 0.0f64;
        for (&(u, v), &w) in self.sweep.edges().iter().zip(self.sweep.column(k)) {
            if w <= 0.0 {
                continue;
            }
            if u != cur_u {
                end_run(cur_u, cur_best);
                cur_u = u;
                cur_best = 0.0;
            }
            let slack = w - z.get(v as usize).copied().unwrap_or(0.0);
            if slack > cur_best {
                cur_best = slack;
            }
        }
        end_run(cur_u, cur_best);
        let z_total: f64 = z.iter().sum();
        // y: n rounded slacks summed; z: its own length; one final add;
        // plus the ≤ n terms of the kernel's weight.
        outward(y_total + z_total, 2 * n + z.len() + 1)
    }

    /// One coordinate-descent step on the dual of column `k`: from the left
    /// duals `y ≥ 0` that [`SweepContext::dual_bound`] re-derived, the
    /// least feasible right duals `z'_v := max_u (w(u,v) − y_u)⁺` (left in
    /// `z`), and the certified bound `Σ_u y_u + Σ_v z'_v`, padded by
    /// [`outward`]. `(y, z')` is dual-feasible for any `y ≥ 0`, and since
    /// `y` was derived from some `z ≥ 0`, `z' ≤ z` entrywise: the step
    /// never loosens the bound it starts from (up to rounding).
    fn descent_bound(&self, k: usize, y: &[f64], z: &mut Vec<f64>) -> f64 {
        let n = self.sweep.n() as usize;
        z.clear();
        z.resize(n, 0.0);
        for (&(u, v), &w) in self.sweep.edges().iter().zip(self.sweep.column(k)) {
            if w <= 0.0 {
                continue;
            }
            let slack = w - y.get(u as usize).copied().unwrap_or(0.0);
            if slack > z[v as usize] {
                z[v as usize] = slack;
            }
        }
        let y_total: f64 = y.iter().sum();
        let z_total: f64 = z.iter().sum();
        // y: its own length; z': n rounded slacks summed; one final add;
        // plus the ≤ n terms of the kernel's weight.
        outward(y_total + z_total, 2 * n + y.len() + 1)
    }

    /// Evaluates one swept candidate α on this thread's workspace: reloads
    /// the topology only when the workspace last solved a different sweep,
    /// then re-solves the α's weight column in place and, for the exact
    /// kernels, publishes the solve's right-side duals into this search's
    /// [`DualTable`]. Allocation-free after the first candidate except for
    /// the returned matching itself.
    ///
    /// Results are bit-identical to the per-α path
    /// ([`crate::BipartiteFabric`]'s `Fabric::evaluate`): same effective
    /// edge set (non-positive column entries are skipped inside the
    /// kernels), same algorithms, and the benefit is summed in the same
    /// matching order.
    // lint:allow(hot-alloc) — amortized: α-search driver allocates once per candidate α; dominated by the O(E√V) kernel work per candidate
    pub(crate) fn eval(
        &self,
        alpha: u64,
        delta: u64,
        kind: MatchingKind,
        kernel: ExactKernel,
    ) -> BestChoice {
        let k = self.sweep.index_of(alpha);
        let col = self.sweep.column(k);
        let edges = self.sweep.edges();
        let n = self.sweep.n();
        let (matching, benefit) = KERNEL_WS.with(|ws| {
            let ws = &mut *ws.borrow_mut();
            match kind {
                MatchingKind::Exact if kernel == ExactKernel::Auction => {
                    if ws.loaded_sweep_auction != self.id {
                        ws.auction.load_topology(n, n, edges);
                        ws.loaded_sweep_auction = self.id;
                    }
                    ws.auction.solve_reweighted(col);
                    ws.auction.right_prices(&mut ws.z);
                    self.duals.publish(k, &ws.z);
                    (ws.auction.matching().to_vec(), ws.auction.last_weight())
                }
                MatchingKind::Exact => {
                    if ws.loaded_sweep != self.id {
                        ws.solver.load_topology(n, n, edges);
                        ws.loaded_sweep = self.id;
                    }
                    ws.solver.solve_reweighted(col);
                    ws.solver.right_duals(&mut ws.z);
                    self.duals.publish(k, &ws.z);
                    (ws.solver.matching().to_vec(), ws.solver.last_weight())
                }
                MatchingKind::GreedySort => {
                    ws.greedy.greedy_on(n, n, edges, col, &mut ws.out);
                    let benefit = column_weight(edges, col, &ws.out);
                    (ws.out.clone(), benefit)
                }
                MatchingKind::BucketGreedy { scale } => {
                    ws.ints.clear();
                    ws.ints.extend(col.iter().map(|&w| {
                        if w > 0.0 {
                            (w * scale as f64).round() as u64
                        } else {
                            0
                        }
                    }));
                    ws.greedy
                        .bucket_greedy_on(n, n, edges, &ws.ints, &mut ws.out);
                    let benefit = column_weight(edges, col, &ws.out);
                    (ws.out.clone(), benefit)
                }
            }
        });
        BestChoice {
            matching,
            alpha,
            benefit,
            score: benefit / (alpha + delta) as f64,
            matchings_computed: 1,
            worker_evals: Vec::new(),
        }
    }
}

/// Total column weight of `matching`, summed in matching order — the same
/// order (and hence the same floating-point result) as
/// [`octopus_matching::matching_weight`] on the equivalent graph.
fn column_weight(edges: &[(u32, u32)], col: &[f64], matching: &[(u32, u32)]) -> f64 {
    matching
        .iter()
        .map(|&(u, v)| match edges.binary_search(&(u, v)) {
            Ok(idx) => col[idx],
            Err(_) => {
                debug_assert!(false, "matched edge {u}->{v} missing from the edge list");
                0.0
            }
        })
        .sum()
}

/// Runs one matching kernel on an explicit weighted edge list.
///
/// The exact kind runs the Hungarian solver on this thread's persistent
/// [`KernelWorkspace`] (reusing its scratch buffers), invalidating any sweep
/// topology the workspace held.
// lint:allow(hot-alloc) — amortized: α-search driver allocates once per candidate α; dominated by the O(E√V) kernel work per candidate
pub(crate) fn run_kernel(
    n: u32,
    edges: Vec<(u32, u32, f64)>,
    kind: MatchingKind,
) -> (Vec<(u32, u32)>, f64) {
    let g = WeightedBipartiteGraph::from_tuples(n, n, edges);
    match kind {
        MatchingKind::Exact => KERNEL_WS.with(|ws| {
            let ws = &mut *ws.borrow_mut();
            ws.loaded_sweep = 0;
            ws.solver.solve(&g);
            (ws.solver.matching().to_vec(), ws.solver.last_weight())
        }),
        MatchingKind::GreedySort => {
            let matching = greedy_matching(&g);
            let benefit = matching_weight(&g, &matching);
            (matching, benefit)
        }
        MatchingKind::BucketGreedy { scale } => {
            let ints: Vec<u64> = g
                .edges()
                .iter()
                .map(|e| (e.weight * scale as f64).round() as u64)
                .collect();
            let matching = bucket_greedy_matching(&g, &ints);
            let benefit = matching_weight(&g, &matching);
            (matching, benefit)
        }
    }
}

/// Picks the configuration with the highest benefit per unit cost.
///
/// `alpha_cap` bounds α by the remaining window budget (`W − used − Δ`).
/// Returns `None` when no configuration has positive benefit (i.e. no packet
/// can move on any fabric link).
pub fn best_configuration(
    queues: &LinkQueues,
    delta: u64,
    alpha_cap: u64,
    search: AlphaSearch,
    kind: MatchingKind,
    parallel: bool,
) -> Option<BestChoice> {
    if alpha_cap == 0 {
        return None;
    }
    let candidates = queues.alpha_candidates(alpha_cap);
    if candidates.is_empty() {
        return None;
    }
    let policy = SearchPolicy {
        search,
        parallel,
        prefer_larger_alpha: false,
        kernel: ExactKernel::default(),
    };
    let duals = DualTable::new(&candidates, queues.n() as usize);
    let sweep = queues.weighted_edges_multi(&candidates);
    SweepContext::new(sweep, duals, None)
        .search(&policy, kind, delta)
        .0
}

/// Strict total order on choices under `policy`, `Greater` = better:
/// ψ-rate (`score`, via `total_cmp` so NaN/−0.0 cannot break totality), then
/// α — smaller wins by default, larger with `prefer_larger_alpha` (used by
/// the localized reconfiguration planner, which keeps links busy during Δ) —
/// then the lexicographically smaller matching as a deterministic key.
///
/// Totality matters for the parallel search: `reduce_with` combines partial
/// winners in whatever shape the chunking produces, and only a total order
/// makes the reduction associative and commutative, i.e. the winner
/// independent of worker count and chunk boundaries. Within one search a
/// given α is evaluated to exactly one (deterministic) choice, so two
/// choices equal under this order are identical in every scheduled field.
fn choice_cmp(a: &BestChoice, b: &BestChoice, policy: &SearchPolicy) -> std::cmp::Ordering {
    a.score
        .total_cmp(&b.score)
        .then_with(|| {
            if policy.prefer_larger_alpha {
                a.alpha.cmp(&b.alpha)
            } else {
                b.alpha.cmp(&a.alpha)
            }
        })
        .then_with(|| b.matching.cmp(&a.matching))
}

/// Whether `a` is strictly better than `b` under [`choice_cmp`].
fn better(a: &BestChoice, b: &BestChoice, policy: &SearchPolicy) -> bool {
    choice_cmp(a, b, policy) == std::cmp::Ordering::Greater
}

/// Searches the sorted candidate α list for the best-scoring choice.
///
/// `ub` is an optional optimistic score bound per α, and `refine` an
/// optional lazy one, `refine(α, incumbent)`, that may tighten as the search
/// runs. On a swept select it is [`SweepContext::solved_score_bound`]: the
/// weak-duality bound under [`DualTable::bracket`]'s row, interpolated from
/// the duals solved so far, plus a descent step unless that bound already
/// falls strictly below `incumbent` (O(edges) per pass). Both must be true
/// upper bounds on the candidate's exact score — an interpolated row needs
/// no trust, since the bound re-derives a feasible dual from any `z ≥ 0` —
/// and a candidate is skipped only when a bound falls strictly below an
/// evaluated score, so bounds change how many candidates are evaluated,
/// never the winner.
///
/// The sequential exhaustive search runs best-first ([`exhaustive_pruned`]);
/// the parallel one claims candidates in decreasing `ub` order and skips
/// those whose `ub` or `refine` bound falls strictly below the best score
/// seen so far ([`exhaustive_parallel`]). Without bounds every bound is
/// `+∞`: candidates are visited in ascending α order and each is evaluated
/// exactly once. `eval` must be deterministic; its `matchings_computed`
/// values are summed into the winner (over *evaluated* candidates, so
/// pruned counts vary with visit order and worker interleaving; the winning
/// configuration itself is identical across all exhaustive paths).
pub(crate) fn search_alpha<E>(
    candidates: &[u64],
    policy: &SearchPolicy,
    ub: Option<&(dyn Fn(u64) -> f64 + Sync)>,
    refine: Option<&(dyn Fn(u64, f64) -> f64 + Sync)>,
    eval: &E,
) -> Option<BestChoice>
where
    E: Fn(u64) -> BestChoice + Sync,
{
    if candidates.is_empty() {
        return None;
    }
    match policy.search {
        AlphaSearch::Exhaustive if policy.parallel => {
            exhaustive_parallel(candidates, policy, ub, refine, eval)
        }
        AlphaSearch::Exhaustive => exhaustive_pruned(candidates, policy, ub, refine, eval),
        AlphaSearch::Binary => ternary(candidates, policy, eval),
    }
}

/// The candidates paired with their `ub` bounds (`+∞` without one), in
/// the parallel search's claim order: bound descending, then α ascending.
// lint:allow(hot-alloc) — amortized: one candidate-length list per search; dominated by the O(E√V) kernel work per candidate
fn bound_order(candidates: &[u64], ub: Option<&(dyn Fn(u64) -> f64 + Sync)>) -> Vec<(u64, f64)> {
    let mut order: Vec<(u64, f64)> = candidates
        .iter()
        .map(|&a| (a, ub.map_or(f64::INFINITY, |ub| ub(a))))
        .collect();
    order.sort_unstable_by(|x, y| y.1.total_cmp(&x.1).then(x.0.cmp(&y.0)));
    order
}

/// One unsolved candidate of the best-first search: its α, its current
/// score bound, and how many candidates had been evaluated when that bound
/// was last refined.
#[derive(Clone, Copy)]
struct Pending {
    alpha: u64,
    bound: f64,
    refined_at: usize,
}

/// Sequential best-first exhaustive search. Each step takes the unsolved
/// candidate with the highest current bound (the smaller α on a tie):
///
/// * if that bound is strictly below the incumbent's score, the search
///   stops — every remaining candidate is provably dominated, so it loses
///   even on tie-breaks;
/// * else, if a candidate was evaluated since its bound was last refined
///   (each exact evaluation publishes a dual row `refine` reads), the bound
///   drops to `min(bound, refine(α, incumbent))` and the step repeats;
/// * else the candidate is evaluated.
///
/// Bounds only ever fall, so each step either evaluates, stops, or refines
/// a candidate at most once per evaluation. The unsolved set lives in this
/// thread's [`KernelWorkspace`], so a search allocates nothing for it after
/// the first.
// lint:allow(hot-alloc) — amortized: α-search driver allocates once per candidate α; dominated by the O(E√V) kernel work per candidate
fn exhaustive_pruned<E: Fn(u64) -> BestChoice>(
    candidates: &[u64],
    policy: &SearchPolicy,
    ub: Option<&(dyn Fn(u64) -> f64 + Sync)>,
    refine: Option<&(dyn Fn(u64, f64) -> f64 + Sync)>,
    eval: &E,
) -> Option<BestChoice> {
    // Taken out of the workspace, not borrowed: `ub`, `refine` and `eval`
    // borrow the workspace themselves.
    let mut pending = KERNEL_WS.with(|ws| std::mem::take(&mut ws.borrow_mut().pending));
    pending.clear();
    pending.extend(candidates.iter().map(|&alpha| Pending {
        alpha,
        bound: ub.map_or(f64::INFINITY, |ub| ub(alpha)),
        refined_at: 0,
    }));

    let mut best: Option<BestChoice> = None;
    let mut computed = 0usize;
    let mut evaluated = 0usize;
    while let Some(i) = top(&pending) {
        let p = pending[i];
        let incumbent = best.as_ref().map_or(f64::NEG_INFINITY, |b| b.score);
        // Strict: at `bound == incumbent` the candidate could tie the score
        // and take the α tie-break.
        if p.bound < incumbent {
            break;
        }
        if let Some(rf) = refine {
            if p.refined_at < evaluated {
                pending[i].bound = p.bound.min(rf(p.alpha, incumbent));
                pending[i].refined_at = evaluated;
                continue;
            }
        }
        pending.swap_remove(i);
        let cand = eval(p.alpha);
        evaluated += 1;
        computed += cand.matchings_computed;
        if best.as_ref().map_or(true, |b| better(&cand, b, policy)) {
            best = Some(cand);
        }
    }
    KERNEL_WS.with(|ws| ws.borrow_mut().pending = pending);
    best.map(|mut b| {
        b.matchings_computed = computed;
        b.worker_evals = vec![computed as u32];
        b
    })
}

/// Index of the pending candidate with the highest bound, the smaller α on
/// a tie (`None` when none is left). Candidate αs are distinct, so the
/// order is total.
fn top(pending: &[Pending]) -> Option<usize> {
    (0..pending.len()).max_by(|&i, &j| {
        let (p, q) = (&pending[i], &pending[j]);
        p.bound.total_cmp(&q.bound).then(q.alpha.cmp(&p.alpha))
    })
}

/// Parallel exhaustive search over a shared work-stealing bag
/// ([`rayon::steal`]): candidates are claimed item-by-item from an atomic
/// cursor instead of static per-worker chunks, so an expensive straggler
/// candidate no longer serializes its whole chunk behind it; the per-worker
/// claim counts land in [`BestChoice::worker_evals`]. Because [`choice_cmp`]
/// is a strict total order, the reduction is associative *and* commutative,
/// and the winner is bit-identical to the sequential search regardless of
/// which worker claimed which candidate.
///
/// With a bound, candidates are ordered bound-descending and
/// checked against a shared atomic best-score **floor** before evaluation:
/// a candidate whose bound sits strictly below the floor is provably
/// dominated — its exact score ≤ bound < floor ≤ the eventual winner's
/// score — so it loses even on tie-breaks and skipping it cannot change the
/// winner. The floor only ever rises, and only to genuinely evaluated
/// scores, so the skip set is sound under every worker interleaving (which
/// candidates get skipped *does* vary run-to-run; `matchings_computed`
/// reports the evaluations that actually happened). Without a bound every
/// bound is `+∞`, so nothing is cut and every candidate is evaluated exactly
/// once (a unit test pins this).
// lint:allow(hot-alloc) — amortized: α-search driver allocates once per candidate α; dominated by the O(E√V) kernel work per candidate
fn exhaustive_parallel<E>(
    candidates: &[u64],
    policy: &SearchPolicy,
    ub: Option<&(dyn Fn(u64) -> f64 + Sync)>,
    refine: Option<&(dyn Fn(u64, f64) -> f64 + Sync)>,
    eval: &E,
) -> Option<BestChoice>
where
    E: Fn(u64) -> BestChoice + Sync,
{
    let reduce = |a: BestChoice, b: BestChoice| {
        let computed = a.matchings_computed + b.matchings_computed;
        let mut winner = if better(&a, &b, policy) { a } else { b };
        winner.matchings_computed = computed;
        winner
    };
    let order = bound_order(candidates, ub);
    // Shared best-score floor, stored as bits and raised through a CAS loop
    // under `total_cmp` (raw `u64` ordering disagrees with `f64` ordering
    // for negative values, so `fetch_max` on bits would be wrong).
    let floor = AtomicU64::new(f64::NEG_INFINITY.to_bits());
    let raise = |score: f64| {
        // lint:allow(atomic-ordering) — proof: seed read for the CAS loop; any stale value is corrected by compare_exchange_weak's returned `seen`.
        let mut cur = floor.load(Ordering::Relaxed);
        while score.total_cmp(&f64::from_bits(cur)) == std::cmp::Ordering::Greater {
            match floor.compare_exchange_weak(
                cur,
                score.to_bits(),
                Ordering::Relaxed, // lint:allow(atomic-ordering) — proof: the CAS publishes only the bits value itself (no other memory); monotonicity comes from re-checking total_cmp against `seen` on failure.
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    };
    let outcome = rayon::steal::map_reduce_filtered(
        &order,
        |&(alpha, bound)| {
            // lint:allow(atomic-ordering) — proof: the floor only prunes; a stale (lower) value admits an extra eval, never skips a winner, so no ordering is required.
            if bound < f64::from_bits(floor.load(Ordering::Relaxed)) {
                return None; // dominated: cannot beat an evaluated score
            }
            // Lazy second-tier bound, same strict cut against the floor.
            if let Some(rf) = refine {
                // lint:allow(atomic-ordering) — proof: same prune-only floor read as above; staleness is safe, no ordering needed.
                let floor = f64::from_bits(floor.load(Ordering::Relaxed));
                if rf(alpha, floor) < floor {
                    return None;
                }
            }
            let cand = eval(alpha);
            raise(cand.score);
            Some(cand)
        },
        reduce,
    )?;
    let mut best = outcome.value;
    best.worker_evals = outcome.worker_evals;
    Some(best)
}

// lint:allow(hot-alloc) — amortized: α-search driver allocates once per candidate α; dominated by the O(E√V) kernel work per candidate
fn ternary<E: Fn(u64) -> BestChoice>(
    candidates: &[u64],
    policy: &SearchPolicy,
    eval: &E,
) -> Option<BestChoice> {
    use std::collections::HashMap;

    /// Memoized probe: evaluates `alpha` at most once; repeated probes hand
    /// back a reference into the memo instead of cloning the choice (and its
    /// matching `Vec`) out.
    fn probe<'m, E: Fn(u64) -> BestChoice>(
        memo: &'m mut HashMap<u64, BestChoice>,
        alpha: u64,
        computed: &mut usize,
        eval: &E,
    ) -> &'m BestChoice {
        memo.entry(alpha).or_insert_with(|| {
            let c = eval(alpha);
            *computed += c.matchings_computed;
            c
        })
    }

    let mut computed = 0usize;
    let mut memo: HashMap<u64, BestChoice> = HashMap::new();
    let (mut lo, mut hi) = (0usize, candidates.len() - 1);
    while hi - lo > 2 {
        let m1 = lo + (hi - lo) / 3;
        let m2 = hi - (hi - lo) / 3;
        let s1 = probe(&mut memo, candidates[m1], &mut computed, eval).score;
        let s2 = probe(&mut memo, candidates[m2], &mut computed, eval).score;
        if s1 >= s2 {
            hi = m2 - 1;
        } else {
            lo = m1 + 1;
        }
    }
    let mut best_alpha: Option<u64> = None;
    for &alpha in &candidates[lo..=hi] {
        probe(&mut memo, alpha, &mut computed, eval);
        let is_better = match best_alpha {
            None => true,
            Some(ba) => better(&memo[&alpha], &memo[&ba], policy),
        };
        if is_better {
            best_alpha = Some(alpha);
        }
    }
    // The winner is *moved* out of the memo — the only clone-free exit.
    best_alpha.and_then(|a| memo.remove(&a)).map(|mut b| {
        b.matchings_computed = computed;
        b.worker_evals = vec![computed as u32];
        b
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::LinkQueues;
    use proptest::prelude::*;

    /// Two links from distinct ports, different weight profiles.
    fn sample_queues() -> LinkQueues {
        LinkQueues::from_weighted_counts(
            4,
            [((0, 1), 1.0, 100u64), ((0, 1), 0.5, 50), ((2, 3), 0.5, 80)],
        )
    }

    #[test]
    fn picks_alpha_maximizing_score() {
        // delta = 0: score is maximized by alpha = 100 on (0,1) (weight-1
        // packets only; adding the 0.5 tail lowers per-slot value), plus
        // whatever (2,3) contributes at that alpha.
        let q = sample_queues();
        let best = best_configuration(
            &q,
            0,
            10_000,
            AlphaSearch::Exhaustive,
            MatchingKind::Exact,
            false,
        )
        .unwrap();
        assert_eq!(best.alpha, 80);
        // benefit at alpha 80: g(0,1,80)=80, g(2,3,80)=40 -> 120; score 1.5.
        assert!((best.benefit - 120.0).abs() < 1e-9);
        assert!((best.score - 1.5).abs() < 1e-9);
        assert_eq!(best.matching.len(), 2);
    }

    #[test]
    fn delta_pushes_toward_longer_alphas() {
        // With a big delta, amortization favors the largest alpha.
        let q = sample_queues();
        let best = best_configuration(
            &q,
            1_000,
            10_000,
            AlphaSearch::Exhaustive,
            MatchingKind::Exact,
            false,
        )
        .unwrap();
        assert_eq!(best.alpha, 150);
    }

    #[test]
    fn respects_alpha_cap() {
        let q = sample_queues();
        let best = best_configuration(
            &q,
            0,
            60,
            AlphaSearch::Exhaustive,
            MatchingKind::Exact,
            false,
        )
        .unwrap();
        assert!(best.alpha <= 60);
    }

    #[test]
    fn empty_queues_yield_none() {
        let q = LinkQueues::from_weighted_counts(4, []);
        assert!(best_configuration(
            &q,
            0,
            100,
            AlphaSearch::Exhaustive,
            MatchingKind::Exact,
            false
        )
        .is_none());
        let q2 = sample_queues();
        assert!(best_configuration(
            &q2,
            0,
            0,
            AlphaSearch::Exhaustive,
            MatchingKind::Exact,
            false
        )
        .is_none());
    }

    #[test]
    fn parallel_matches_sequential() {
        let q = sample_queues();
        let a = best_configuration(
            &q,
            7,
            10_000,
            AlphaSearch::Exhaustive,
            MatchingKind::Exact,
            false,
        )
        .unwrap();
        let b = best_configuration(
            &q,
            7,
            10_000,
            AlphaSearch::Exhaustive,
            MatchingKind::Exact,
            true,
        )
        .unwrap();
        assert_eq!(a.alpha, b.alpha);
        assert_eq!(a.matching, b.matching);
        assert!((a.score - b.score).abs() < 1e-12);
    }

    #[test]
    fn parallel_evaluates_each_candidate_exactly_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let candidates: Vec<u64> = (1..=97).collect();
        let policy = SearchPolicy {
            search: AlphaSearch::Exhaustive,
            parallel: true,
            prefer_larger_alpha: false,
            kernel: ExactKernel::Hungarian,
        };
        let calls = AtomicUsize::new(0);
        let eval = |alpha: u64| {
            calls.fetch_add(1, Ordering::Relaxed);
            BestChoice {
                matching: vec![(0, 1)],
                alpha,
                benefit: alpha as f64,
                score: alpha as f64 / (alpha + 1) as f64,
                matchings_computed: 1,
                worker_evals: Vec::new(),
            }
        };
        let best = search_alpha(&candidates, &policy, None, None, &eval).unwrap();
        // One eval per candidate — both by the counter the reduction carries
        // and by the actual number of closure invocations.
        assert_eq!(best.matchings_computed, candidates.len());
        assert_eq!(calls.load(Ordering::Relaxed), candidates.len());
        assert_eq!(best.alpha, 97);
    }

    #[test]
    fn score_ties_break_identically_in_parallel_and_sequential() {
        // Two disjoint links sized so the candidate αs {10, 30} score exactly
        // equal at Δ = 10: α=10 → (10+10)/20 = 1, α=30 → (10+30)/40 = 1.
        let q = LinkQueues::from_weighted_counts(4, [((0, 1), 1.0, 10u64), ((2, 3), 1.0, 30)]);
        assert_eq!(q.alpha_candidates(10_000), vec![10, 30]);
        for parallel in [false, true] {
            let best = best_configuration(
                &q,
                10,
                10_000,
                AlphaSearch::Exhaustive,
                MatchingKind::Exact,
                parallel,
            )
            .unwrap();
            // Equal ψ-rate: the smaller α must win deterministically.
            assert_eq!(best.alpha, 10, "parallel = {parallel}");
            assert_eq!(best.matching, vec![(0, 1), (2, 3)]);
            assert!((best.score - 1.0).abs() < 1e-12);
        }
        // With prefer_larger_alpha the same tie resolves to α = 30 on both
        // paths (the localized-reconfiguration preference).
        for parallel in [false, true] {
            let policy = SearchPolicy {
                search: AlphaSearch::Exhaustive,
                parallel,
                prefer_larger_alpha: true,
                kernel: ExactKernel::Hungarian,
            };
            let fabric = crate::BipartiteFabric {
                kind: MatchingKind::Exact,
            };
            let eval = |alpha| crate::Fabric::<()>::evaluate(&fabric, &(), &q, alpha, 10);
            let candidates = q.alpha_candidates(10_000);
            let best = search_alpha(&candidates, &policy, None, None, &eval).unwrap();
            assert_eq!(best.alpha, 30, "parallel = {parallel}");
        }
    }

    #[test]
    fn binary_search_finds_a_good_local_maximum() {
        let q = sample_queues();
        let exact = best_configuration(
            &q,
            10,
            10_000,
            AlphaSearch::Exhaustive,
            MatchingKind::Exact,
            false,
        )
        .unwrap();
        let binary = best_configuration(
            &q,
            10,
            10_000,
            AlphaSearch::Binary,
            MatchingKind::Exact,
            false,
        )
        .unwrap();
        assert!(binary.score > 0.0);
        assert!(binary.score <= exact.score + 1e-12);
        assert!(binary.matchings_computed >= 1);
    }

    #[test]
    fn greedy_kernels_produce_valid_matchings() {
        let q = LinkQueues::from_weighted_counts(
            4,
            [
                ((0, 1), 1.0, 10u64),
                ((0, 2), 1.0, 12),
                ((1, 2), 0.5, 30),
                ((2, 3), 1.0 / 3.0, 60),
            ],
        );
        for kind in [
            MatchingKind::GreedySort,
            MatchingKind::BucketGreedy { scale: 6 },
        ] {
            let best =
                best_configuration(&q, 5, 10_000, AlphaSearch::Exhaustive, kind, false).unwrap();
            // matching property
            let mut outs = std::collections::HashSet::new();
            let mut ins = std::collections::HashSet::new();
            for &(i, j) in &best.matching {
                assert!(outs.insert(i));
                assert!(ins.insert(j));
            }
            assert!(best.benefit > 0.0);
        }
    }

    #[test]
    fn greedy_is_within_half_of_exact() {
        let q = sample_queues();
        let exact = best_configuration(
            &q,
            3,
            10_000,
            AlphaSearch::Exhaustive,
            MatchingKind::Exact,
            false,
        )
        .unwrap();
        let greedy = best_configuration(
            &q,
            3,
            10_000,
            AlphaSearch::Exhaustive,
            MatchingKind::GreedySort,
            false,
        )
        .unwrap();
        assert!(greedy.score * 2.0 + 1e-9 >= exact.score);
    }

    /// A synthetic choice whose exact score equals its upper bound, so
    /// pruning behavior is fully predictable.
    fn tight_choice(alpha: u64, score: f64) -> BestChoice {
        BestChoice {
            matching: vec![(0, alpha as u32)],
            alpha,
            benefit: score,
            score,
            matchings_computed: 1,
            worker_evals: Vec::new(),
        }
    }

    #[test]
    fn parallel_pruning_cuts_dominated_candidates() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        // Three candidates sit below MIN_PAR_LEN, so the work-stealing bag
        // takes its sequential fallback and the outcome is exact: the
        // bound-descending scan evaluates α = 10 (floor 10.0), then declines
        // 20 (bound 5.0) and 30 (bound 3.0) against the floor.
        let candidates = [10u64, 20, 30];
        let ub = |alpha: u64| match alpha {
            10 => 10.0,
            20 => 5.0,
            _ => 3.0,
        };
        let calls = AtomicUsize::new(0);
        let eval = |alpha: u64| {
            calls.fetch_add(1, Ordering::Relaxed);
            tight_choice(alpha, ub(alpha))
        };
        let policy = SearchPolicy {
            search: AlphaSearch::Exhaustive,
            parallel: true,
            prefer_larger_alpha: false,
            kernel: ExactKernel::Hungarian,
        };
        let best = search_alpha(&candidates, &policy, Some(&ub), None, &eval).expect("non-empty");
        assert_eq!(best.alpha, 10);
        assert_eq!(
            calls.load(Ordering::Relaxed),
            1,
            "dominated candidates must be declined"
        );
        assert_eq!(best.matchings_computed, 1);
        assert_eq!(best.worker_evals, vec![1]);
    }

    /// Tie-heavy `1/k` hop-weight links on up to 6 ports: `(link, k, count)`.
    fn tie_heavy_links() -> impl Strategy<Value = Vec<((u32, u32), u64, u64)>> {
        prop::collection::vec(((0u32..6, 0u32..6), 1u64..5, 1u64..40), 1..30)
    }

    proptest! {
        /// Every bound the strict cut compares stays at or above the
        /// kernel's float score, on columns full of exact score ties: the
        /// sweep bound, the eager bound, the lazy bound and its two halves
        /// (the bracketed row and the descent step from it), and the
        /// weak-duality bound under the column's own duals, its
        /// neighbours' duals, random `z ≥ 0`, and bracketed rows of either
        /// sign. Candidates are solved in a seeded shuffled order, so lazy
        /// bounds meet published rows on one side and on both sides.
        #[test]
        fn bounds_never_undercut_the_kernel_score(
            links in tie_heavy_links(),
            delta in 0u64..20,
            z_rand in prop::collection::vec(0.0f64..20.0, 6),
            seed in 0u64..u64::MAX,
        ) {
            let q = LinkQueues::from_weighted_counts(
                6,
                links
                    .iter()
                    .filter(|((i, j), _, _)| i != j)
                    .map(|&(link, k, c)| (link, 1.0 / k as f64, c)),
            );
            let alphas = q.alpha_candidates(10_000);
            prop_assume!(!alphas.is_empty());
            let mut order: Vec<usize> = (0..alphas.len()).collect();
            order.sort_by_key(|&k| (k as u64 ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let (mut z, mut y, mut z_descent) = (Vec::new(), Vec::new(), Vec::new());
            for kernel in [ExactKernel::Hungarian, ExactKernel::Auction] {
                let duals = DualTable::new(&alphas, 6);
                let ctx = SweepContext::new(q.weighted_edges_multi(&alphas), duals, None);
                let mut scores = vec![0.0; alphas.len()];
                for &k in &order {
                    let alpha = alphas[k];
                    let cost = (alpha + delta) as f64;
                    // The lazy bound under the duals solved so far, before
                    // this α's own solve; a −∞ incumbent forces the descent
                    // step.
                    let lazy = ctx.solved_score_bound(alpha, delta, f64::NEG_INFINITY);
                    let halves = ctx.duals.bracket(alpha, &mut z).then(|| {
                        let bracketed = ctx.dual_bound(k, &z, Some(&mut y)) / cost;
                        (bracketed, ctx.descent_bound(k, &y, &mut z_descent) / cost)
                    });
                    let s = ctx.eval(alpha, delta, MatchingKind::Exact, kernel).score;
                    prop_assert!(lazy >= s, "lazy bound {} < score {}", lazy, s);
                    if let Some((bracketed, descended)) = halves {
                        prop_assert!(bracketed >= s, "bracketed {} < score {}", bracketed, s);
                        prop_assert!(descended >= s, "descent {} < score {}", descended, s);
                    }
                    prop_assert!(ctx.score_upper_bound(alpha, delta) >= s);
                    prop_assert!(ctx.dual_bound(k, &z_rand, None) / cost >= s);
                    scores[k] = s;
                }
                for (k, &alpha) in alphas.iter().enumerate() {
                    let cost = (alpha + delta) as f64;
                    for r in [k.saturating_sub(1), k, (k + 1).min(alphas.len() - 1)] {
                        ctx.duals.copy_row(r, &mut z);
                        let b = ctx.dual_bound(k, &z, Some(&mut y)) / cost;
                        let d = ctx.descent_bound(k, &y, &mut z_descent) / cost;
                        prop_assert!(
                            b.min(d) >= scores[k],
                            "α {} under row {}: bound {} descent {} < score {}",
                            alpha, r, b, d, scores[k]
                        );
                    }
                }
                // Rows of either sign, published on every other candidate:
                // `bracket` must hand back a `z ≥ 0` all the same.
                let signed = DualTable::new(&alphas, 6);
                for k in (0..alphas.len()).step_by(2) {
                    let row: Vec<f64> = z_rand.iter().map(|&v| v - 10.0).collect();
                    signed.publish(k, &row);
                }
                for (k, &alpha) in alphas.iter().enumerate() {
                    prop_assert!(signed.bracket(alpha, &mut z));
                    let b = ctx.dual_bound(k, &z, None) / (alpha + delta) as f64;
                    prop_assert!(b >= scores[k], "signed row: bound {} < score {}", b, scores[k]);
                }
                // The next search, bounded by this one's duals.
                let next = SweepContext::new(
                    q.weighted_edges_multi(&alphas),
                    DualTable::new(&alphas, 6),
                    Some(&ctx.duals),
                );
                for (k, &alpha) in alphas.iter().enumerate() {
                    prop_assert!(next.score_upper_bound(alpha, delta) >= scores[k]);
                }
            }
        }
    }
}
