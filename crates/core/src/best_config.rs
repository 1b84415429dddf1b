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
//!   below).
//! * [`AlphaSearch::Binary`] ternary-searches the candidate list — the
//!   **Octopus-B** variant, `O(log)` matchings per iteration at a (measured,
//!   §8 Fig 9a) negligible quality loss.
//! * [`MatchingKind`] switches the matching kernel: exact Hungarian,
//!   comparison-sort greedy, or the linear-time bucket greedy of
//!   **Octopus-G**.
//!
//! Every fabric's candidates are swept and evaluated here: a fabric's
//! [`ColumnKernel`] turns one weight column into its configuration (a
//! bipartite matching, a K-port union of matchings, or a duplex general
//! matching) and scales the column's bounds to match, so K-port unions,
//! duplex general graphs and persistence-aware local reconfiguration share
//! the plain fabric's candidate enumeration, pruning and tie-breaking. The
//! search functions take the per-α evaluation as a closure returning a
//! [`BestChoice`], which is how the chain-aware multihop variant, whose
//! benefit comes from holding each configuration on the simulator, reuses
//! them unbounded.
//!
//! # Pruning
//!
//! On a swept select ([`SweepContext`]) every candidate α starts with an
//! *eager* score bound: the row/column-max bound of its `g` column. One
//! fused pass over the sweep's edges computes it for every candidate at
//! once ([`MultiAlphaEdges::fused_bounds`]) from the snapshot's link values
//! alone; no dual outlives its select. Weight columns are built only for
//! candidates the search can still refine or solve: the first solve's
//! column alone, then, at the first refine, every candidate whose eager
//! bound reaches the first solve's score, in one pass over the edges, into
//! a block that dies with the select.
//! Every exact solve publishes its right-side duals into this select's
//! [`DualTable`], and `refine(α, incumbent)` bounds a candidate *lazily*
//! under them: [`DualTable::bracket`] interpolates the nearest published
//! rows on either side of α (or takes the one nearest row), and when the
//! bound under that row does not fall strictly below `incumbent`, one
//! descent step re-derives the right duals from the left ones and bounds
//! again.
//!
//! These passes are straight-line. The fused pass keeps its row and column
//! maxima in select form (`m = if g > m { g } else { m }`), and both lazy
//! passes walk the sweep's CSR row index
//! ([`MultiAlphaEdges::row_ranges`]) one left port at a time with no
//! per-entry test: a disabled entry's slack is `≤ 0` and never beats a
//! maximum that starts at `+0.0`. Every sum is still taken in port order,
//! so each bound equals the per-edge loop's bit for bit.
//!
//! The search is best-first: it repeatedly takes the unsolved candidate
//! with the highest current bound (smaller α on a tie), stops when that
//! bound is strictly below the incumbent's score, refreshes the bound
//! through `refine` when a row was published since the bound was last
//! refined, and otherwise solves it. It runs on the calling thread, so the
//! winner, the solve count and every schedule are pure functions of the
//! snapshot.
//!
//! Why this stays exact: each bound is a weak-duality certificate derived
//! from scratch for the candidate's own column — the left duals are
//! re-derived from whatever `z ≥ 0` is at hand, so `(y, z)` is feasible
//! however the row was obtained — and padded outward for float rounding.
//! An interpolated (or another α's) row is therefore never
//! trusted; a poor guess only loosens the bound. Since a candidate is
//! skipped only when its bound is strictly below an exactly evaluated
//! score, it loses even on tie-breaks, and the winner, its matching and
//! every schedule are the same as an unbounded search's.

use crate::duplex::GeneralMatcherKind;
use crate::engine::SearchPolicy;
use crate::state::{FusedBounds, LinkQueues, MultiAlphaEdges};
use octopus_matching::blossom::maximum_weight_matching_general;
use octopus_matching::general::greedy_general_matching;
use octopus_matching::{greedy::GreedyScratch, AssignmentSolver};
use serde::{Deserialize, Serialize};
use std::cell::{Cell, Ref, RefCell};

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

/// How a fabric turns one weight column of a sweep into a configuration.
/// It also fixes how the column's certified bounds cover that
/// configuration: as they are for one bipartite or duplex matching, `r`
/// times over for a union of `r` matchings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ColumnKernel {
    /// One bipartite matching of the column.
    Matching(MatchingKind),
    /// A union of up to `r` edge-disjoint bipartite matchings (§7 K-port):
    /// each round matches the column with the links earlier rounds took
    /// zeroed, so every round sees the same `g` minus the taken links.
    Union {
        /// The per-round matching kernel.
        kind: MatchingKind,
        /// Rounds, one per transceiver.
        r: u32,
    },
    /// One general-graph matching of the column folded into undirected
    /// `{a, b}` weights `g(a→b) + g(b→a)` (§7 full duplex).
    Duplex {
        /// The general-graph matching kernel.
        matcher: GeneralMatcherKind,
        /// Scale making the weights integral for the blossom's integer
        /// duals.
        scale: f64,
    },
}

impl ColumnKernel {
    /// A certified bound on this kernel's configuration weight, from a
    /// certified bound `b` on the column's maximum bipartite matching
    /// weight. A duplex matching's directed form is itself a bipartite
    /// matching (each node sends once and receives once), so `b` bounds it
    /// as is. Each round of a union matches a column that is at most the
    /// original entrywise, so `r · b` bounds the union, padded by
    /// [`outward`] for the `r`-term sum.
    fn bound(self, b: f64) -> f64 {
        match self {
            ColumnKernel::Union { r, .. } => outward(b * f64::from(r), r as usize),
            ColumnKernel::Matching(_) | ColumnKernel::Duplex { .. } => b,
        }
    }
}

/// The algorithm backing [`MatchingKind::Exact`]: the Hungarian
/// [`AssignmentSolver`] is the one exact kernel, so this has one value and
/// selects nothing. It stays only because the stand-alone benchmark crate
/// (`perfbench`) still names it in a [`SearchPolicy`] literal, and keeps
/// `Default` and serde so configs written with `"kernel": "Hungarian"`
/// still parse. The next change to the benchmark deletes it with
/// [`SearchPolicy::kernel`] and `OctopusConfig::kernel`. An ε-scaling
/// auction kernel was measured slower on whole windows at every size and
/// deleted (EXPERIMENTS.md, "Auction kernel verdict").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum ExactKernel {
    /// Successive shortest augmenting paths with Johnson potentials
    /// ([`AssignmentSolver`]).
    #[default]
    Hungarian,
}

/// The winning configuration of one greedy iteration.
///
/// Equality compares what was chosen, not how much work finding it took:
/// it ignores [`BestChoice::matchings_computed`], which differs between the
/// pruned search, the ternary search and a direct per-α evaluation of the
/// same winner.
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
}

impl PartialEq for BestChoice {
    fn eq(&self, other: &Self) -> bool {
        self.matching == other.matching
            && self.alpha == other.alpha
            && self.benefit == other.benefit
            && self.score == other.score
    }
}

/// Per-thread matching workspace: the exact solver (CSR topology, duals,
/// Dijkstra scratch), the greedy sort/marker buffers, and the integral-weight
/// and output scratch. One instance lives in each thread's TLS, so the search
/// reuses buffers across every candidate α it evaluates — and across
/// iterations and engines, since TLS outlives the search.
///
/// Solves are pure functions of `(topology, weights)` (see
/// [`AssignmentSolver`]'s no-warm-start contract), and the cached topology
/// is keyed by a sweep id this workspace issued, so what the workspace last
/// held cannot change any result — reuse is determinism-safe.
#[derive(Default)]
struct KernelWorkspace {
    solver: AssignmentSolver,
    greedy: GreedyScratch,
    ints: Vec<u64>,
    out: Vec<(u32, u32)>,
    /// Dual row scratch: a solve's right-side duals on their way into the
    /// search's [`DualTable`], or a bracketed row on its way into a bound.
    z: Vec<f64>,
    /// Left duals `y` re-derived by the last [`SweepContext::dual_bound`],
    /// which the descent step ([`SweepContext::descent_bound`]) starts from.
    y: Vec<f64>,
    /// The descent step's right duals `z'`.
    z_descent: Vec<f64>,
    /// Each port's `r` heaviest entries ([`SweepContext::top_r_bound`]).
    top: Vec<f64>,
    /// The sequential search's unsolved candidates ([`exhaustive_pruned`]),
    /// taken out for the search and put back after it.
    pending: Vec<Pending>,
    /// The K-port union's column, with the links earlier rounds took
    /// zeroed ([`SweepContext::union`]).
    col: Vec<f64>,
    /// The candidates [`SweepContext::build_batch`] picks.
    picked: Vec<usize>,
    /// The fused eager-bound pass's results and scratch
    /// ([`SweepContext::new`]).
    bounds: FusedBounds,
    /// Id of the [`SweepContext`] whose topology `solver` currently holds
    /// (0 = none).
    loaded_sweep: u64,
    /// The last sweep id this workspace issued. Ids start at 1, so a fresh
    /// workspace (`loaded_sweep == 0`) never aliases a real sweep. A sweep
    /// is built and solved on one thread, so an id only has to be unique
    /// within that thread's workspace.
    last_sweep: u64,
}

thread_local! {
    static KERNEL_WS: RefCell<KernelWorkspace> = RefCell::new(KernelWorkspace::default());
}

/// Pads a certified upper bound on a matching weight outward, so that the
/// strict α-search cut (`bound < incumbent score` ⇒ skip) stays sound in
/// floating point.
///
/// Each bound the cut compares — a column's row/column-max bound and the
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
/// exactly, one row of `n` entries per candidate (`alphas` ascending). It
/// lives and dies with its [`SweepContext`].
///
/// A row is written once, when its α is solved, and marked by its `ready`
/// flag, so the bounds of candidates evaluated later read only complete
/// rows. The cells let [`SweepContext::eval`] publish through the shared
/// borrow the search's bound closures also hold.
#[derive(Debug)]
struct DualTable {
    n: usize,
    alphas: Vec<u64>,
    z: Vec<Cell<f64>>,
    ready: Vec<Cell<bool>>,
}

impl DualTable {
    /// An empty table for the ascending candidates `alphas` of an `n`-port
    /// fabric.
    fn new(alphas: &[u64], n: usize) -> Self {
        DualTable {
            n,
            alphas: alphas.to_vec(),
            z: vec![Cell::new(0.0); alphas.len() * n],
            ready: vec![Cell::new(false); alphas.len()],
        }
    }

    /// Stores `z` as row `k` and publishes it. A row of the wrong length (a
    /// kernel that carried no price signal) is not stored.
    fn publish(&self, k: usize, z: &[f64]) {
        if z.len() != self.n {
            return;
        }
        for (slot, &v) in self.z[k * self.n..(k + 1) * self.n].iter().zip(z) {
            slot.set(v);
        }
        self.ready[k].set(true);
    }

    fn is_ready(&self, k: usize) -> bool {
        self.ready[k].get()
    }

    /// The cells of row `k`.
    fn cells(&self, k: usize) -> &[Cell<f64>] {
        &self.z[k * self.n..(k + 1) * self.n]
    }

    /// The entries of row `k` (which must be ready).
    #[cfg(test)]
    fn row(&self, k: usize) -> impl Iterator<Item = f64> + '_ {
        self.cells(k).iter().map(Cell::get)
    }

    /// Copies into `out` a dual row for `alpha` bracketed by the published
    /// rows and returns `true`, or returns `false` when no row is published.
    /// With a row published on each side of `alpha` (and none at `alpha`
    /// itself), `z` is their α-interpolation `z_lo + t·(z_hi − z_lo)`,
    /// `t = (α − α_lo) / (α_hi − α_lo)`; otherwise it is the one nearest
    /// row. Every entry is clamped at 0, so the row is a valid `z ≥ 0` for
    /// [`SweepContext::dual_bound`] whatever was published: interpolation
    /// only has to be a good guess, never a trusted one.
    fn bracket(&self, alpha: u64, out: &mut Vec<f64>) -> bool {
        let (lo, hi, t) = match self.neighbours(alpha) {
            (Some(lo), Some(hi)) if self.alphas[hi] != alpha => {
                let span = (self.alphas[hi] - self.alphas[lo]) as f64;
                (lo, hi, (alpha - self.alphas[lo]) as f64 / span)
            }
            (_, Some(k)) | (Some(k), None) => (k, k, 0.0),
            (None, None) => return false,
        };
        out.clear();
        out.extend(self.cells(lo).iter().zip(self.cells(hi)).map(|(a, b)| {
            let (a, b) = (a.get(), b.get());
            (a + t * (b - a)).max(0.0)
        }));
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

/// The weight columns one search has built, back to back in one block
/// ([`MultiAlphaEdges::fill_columns`]). It lives and dies with its
/// [`SweepContext`].
#[derive(Debug, Default)]
struct ColumnBlock {
    /// Per candidate, the offset of its column in `columns`, or
    /// [`ColumnBlock::ABSENT`]; empty until the first column is built.
    offset: Vec<usize>,
    columns: Vec<f64>,
    /// Whether the search's first refine has built the batch
    /// ([`SweepContext::build_batch`]), after which every column it loads
    /// is already here.
    batched: bool,
}

impl ColumnBlock {
    const ABSENT: usize = usize::MAX;

    /// Whether candidate `k`'s column is built.
    fn has(&self, k: usize) -> bool {
        self.offset.get(k).is_some_and(|&o| o != Self::ABSENT)
    }

    /// Builds the columns of the ascending candidates `ks`, none of them
    /// built yet, in one pass over `sweep`.
    fn build(&mut self, sweep: &MultiAlphaEdges, ks: &[usize]) {
        let ne = sweep.edges().len();
        if self.offset.is_empty() {
            self.offset = vec![Self::ABSENT; sweep.alphas().len()];
        }
        for (s, &k) in ks.iter().enumerate() {
            self.offset[k] = self.columns.len() + s * ne;
        }
        self.columns.reserve_exact(ks.len() * ne);
        sweep.fill_columns(ks, &mut self.columns);
    }

    /// Candidate `k`'s column, which must be built.
    fn column(&self, k: usize, ne: usize) -> &[f64] {
        let o = self.offset[k];
        &self.columns[o..o + ne]
    }
}

/// One iteration's batched α-search context: the fixed edge topology of
/// every candidate α ([`LinkQueues::weighted_edges_multi`]) with each
/// candidate's eager bound and the fabric's [`ColumnKernel`], tagged with an
/// id unique within this thread's workspace, so the workspace knows when its
/// loaded CSR topology is current.
///
/// It builds weight columns only for candidates the search refines or
/// solves, into a [`ColumnBlock`] that dies with the context: the first
/// solve's column alone, then, at the first refine, in one pass over the
/// edges, the column of every candidate whose eager score bound does not
/// fall below the incumbent. Incumbents only rise and bounds only fall, so
/// every candidate the search refines or solves later is in that batch.
///
/// It also carries the table this search fills with each exact solve's
/// right-side duals, which tighten its lazy bounds. They enter only through
/// the weak-duality bound, which is valid for any `z ≥ 0`, so they cannot
/// change the winner.
pub(crate) struct SweepContext<'q> {
    sweep: MultiAlphaEdges<'q>,
    kernel: ColumnKernel,
    id: u64,
    duals: DualTable,
    /// Per candidate, its eager bound on the column's matching weight.
    eager: Vec<f64>,
    block: RefCell<ColumnBlock>,
}

impl<'q> SweepContext<'q> {
    /// A context that turns `sweep`'s columns into configurations with
    /// `kernel`, records its exact solves' duals in a fresh [`DualTable`]
    /// over the same candidates, and bounds every candidate eagerly
    /// ([`eager_bounds`]).
    pub(crate) fn new(sweep: MultiAlphaEdges<'q>, kernel: ColumnKernel) -> Self {
        let duals = DualTable::new(sweep.alphas(), sweep.n() as usize);
        let (id, eager) = KERNEL_WS.with(|ws| {
            let ws = &mut *ws.borrow_mut();
            ws.last_sweep += 1;
            (ws.last_sweep, eager_bounds(&sweep, ws))
        });
        SweepContext {
            sweep,
            kernel,
            id,
            duals,
            eager,
            block: RefCell::default(),
        }
    }

    /// The swept α-search over this context's candidates under `policy`:
    /// candidates are bounded
    /// eagerly by [`SweepContext::score_upper_bound`], lazily by
    /// [`SweepContext::solved_score_bound`], and solved by
    /// [`SweepContext::eval`]. Returns the winner (`None` when no
    /// configuration has positive benefit).
    pub(crate) fn search(&self, policy: &SearchPolicy, delta: u64) -> Option<BestChoice> {
        let ub = |alpha: u64| self.score_upper_bound(alpha, delta);
        let solved = |alpha: u64, incumbent: f64| self.solved_score_bound(alpha, delta, incumbent);
        search_alpha(
            self.sweep.alphas(),
            policy,
            Some(&ub),
            Some(&solved),
            &|alpha| self.eval(alpha, delta),
        )
        .filter(|c| c.benefit > 0.0)
    }

    /// The eager score bound of one swept candidate α, which seeds its
    /// place in the search: the row/column-max bound of its column
    /// ([`eager_bounds`]), through [`ColumnKernel::bound`].
    pub(crate) fn score_upper_bound(&self, alpha: u64, delta: u64) -> f64 {
        self.eager_score(self.sweep.index_of(alpha), delta)
    }

    /// [`SweepContext::score_upper_bound`] of candidate `k`.
    fn eager_score(&self, k: usize, delta: u64) -> f64 {
        let alpha = self.sweep.alphas()[k];
        self.kernel.bound(self.eager[k]) / (alpha + delta) as f64
    }

    /// Builds, once per search, the column of every candidate whose eager
    /// score bound does not fall below `incumbent` and that has none yet,
    /// in one pass over the edges. Called at every refine; the first, with
    /// the first solve's score as `incumbent`, builds the batch.
    fn build_batch(&self, delta: u64, incumbent: f64, ws: &mut KernelWorkspace) {
        let mut block = self.block.borrow_mut();
        if block.batched {
            return;
        }
        block.batched = true;
        ws.picked.clear();
        ws.picked.extend(
            (0..self.eager.len())
                .filter(|&k| !block.has(k) && self.eager_score(k, delta) >= incumbent),
        );
        block.build(&self.sweep, &ws.picked);
    }

    /// Candidate `k`'s weight column: from the block, or, before the batch
    /// exists (the first solve, and the refine-free ternary search and
    /// [`crate::engine::ScheduleEngine::evaluate`]), built on its own.
    fn load_column(&self, k: usize) -> Ref<'_, [f64]> {
        if !self.block.borrow().has(k) {
            let mut block = self.block.borrow_mut();
            debug_assert!(
                !block.batched,
                "candidate {k} was loaded but left out of the batch"
            );
            block.build(&self.sweep, &[k]);
        }
        let ne = self.sweep.edges().len();
        Ref::map(self.block.borrow(), |b| b.column(k, ne))
    }

    /// The lazy score bound of one swept candidate α under the duals this
    /// search already solved (`+∞` before the first exact solve): the
    /// weak-duality bound under [`DualTable::bracket`]'s row and, when that
    /// does not fall strictly below `incumbent`, also under one descent
    /// step from it ([`SweepContext::descent_bound`]), the smaller of the
    /// two, each through [`ColumnKernel::bound`]. A union of `r ≥ 2`
    /// matchings is also bounded by [`SweepContext::top_r_bound`], with or
    /// without duals. Each costs a pass over the column, so the search
    /// consults it only for the candidate it is about to solve.
    pub(crate) fn solved_score_bound(&self, alpha: u64, delta: u64, incumbent: f64) -> f64 {
        let k = self.sweep.index_of(alpha);
        let cost = (alpha + delta) as f64;
        KERNEL_WS.with(|ws| {
            let ws = &mut *ws.borrow_mut();
            self.build_batch(delta, incumbent, ws);
            let col = self.load_column(k);
            let top = |ws: &mut KernelWorkspace| match self.kernel {
                ColumnKernel::Union { r, .. } if r > 1 => {
                    self.top_r_bound(&col, r as usize, &mut ws.top) / cost
                }
                _ => f64::INFINITY,
            };
            if !self.duals.bracket(alpha, &mut ws.z) {
                return top(ws);
            }
            let bound = self.kernel.bound(self.dual_bound(&col, &ws.z, &mut ws.y)) / cost;
            if bound < incumbent {
                return bound;
            }
            let bound = bound.min(top(ws));
            if bound < incumbent {
                return bound;
            }
            let descent = self.descent_bound(&col, &ws.y, &mut ws.z_descent);
            bound.min(self.kernel.bound(descent) / cost)
        })
    }

    /// A certified bound on every union of `r` edge-disjoint matchings of
    /// the weight column `col`, padded by [`outward`]: each port carries at
    /// most `r` of the union's links, so the union weighs no more than the
    /// sum over left ports of each one's `r` heaviest entries, nor than the
    /// same sum over right ports. `top` is scratch.
    fn top_r_bound(&self, col: &[f64], r: usize, top: &mut Vec<f64>) -> f64 {
        let n = self.sweep.n() as usize;
        // `top[p * r..(p + 1) * r]` holds port p's heaviest entries,
        // descending: left ports first, then right ports at `n + v`.
        top.clear();
        top.resize(2 * n * r, 0.0);
        for (&(u, v), &w) in self.sweep.edges().iter().zip(col) {
            for p in [u as usize, n + v as usize] {
                let slots = &mut top[p * r..(p + 1) * r];
                if w > slots[r - 1] {
                    let mut i = r - 1;
                    while i > 0 && slots[i - 1] < w {
                        slots[i] = slots[i - 1];
                        i -= 1;
                    }
                    slots[i] = w;
                }
            }
        }
        let (left, right) = top.split_at(n * r);
        let (left, right): (f64, f64) = (left.iter().sum(), right.iter().sum());
        // n·r entries summed per side, plus the ≤ n·r terms of the union's
        // weight.
        outward(left.min(right), 2 * n * r + 1)
    }

    /// A certified weak-duality bound on every matching weight of the
    /// weight column `col`, from dual prices `z ≥ 0` (one entry per right
    /// port), padded by [`outward`]: re-deriving
    /// `y_u := max_v (w(u,v) − z_v)⁺` from scratch (left in `y`, one entry
    /// per left port) makes `(y, z)` dual-feasible for **any** `z ≥ 0`,
    /// however stale, so `Σ_u y_u + Σ_v z_v` bounds the column's maximum
    /// matching weight. Duals from other columns or other iterations
    /// therefore tighten pruning without ever being trusted — a poor `z`
    /// merely loosens the bound.
    ///
    /// Each port's entries are one slice of the sweep's row index
    /// ([`MultiAlphaEdges::row_ranges`]), and `y` is summed in port order. A
    /// disabled entry (`w ≤ 0`) needs no test: its slack `w − z_v ≤ 0`
    /// never beats the running maximum, which starts at `+0.0`.
    fn dual_bound(&self, col: &[f64], z: &[f64], y: &mut Vec<f64>) -> f64 {
        let n = self.sweep.n() as usize;
        debug_assert_eq!(z.len(), n, "one dual price per right port");
        let edges = self.sweep.edges();
        y.clear();
        let mut y_total = 0.0f64;
        for run in self.sweep.row_ranges() {
            let mut y_u = 0.0f64;
            for (&(_, v), &w) in edges[run.clone()].iter().zip(&col[run]) {
                let slack = w - z[v as usize];
                y_u = if slack > y_u { slack } else { y_u };
            }
            y.push(y_u);
            y_total += y_u;
        }
        let z_total: f64 = z.iter().sum();
        // y: n rounded slacks summed; z: its own length; one final add;
        // plus the ≤ n terms of the kernel's weight.
        outward(y_total + z_total, 2 * n + z.len() + 1)
    }

    /// One coordinate-descent step on the dual of the column `col`: from
    /// the left duals `y ≥ 0` that [`SweepContext::dual_bound`] re-derived,
    /// the least feasible right duals `z'_v := max_u (w(u,v) − y_u)⁺` (left
    /// in `z`), and the certified bound `Σ_u y_u + Σ_v z'_v`, padded by
    /// [`outward`]. `(y, z')` is dual-feasible for any `y ≥ 0`, and since
    /// `y` was derived from some `z ≥ 0`, `z' ≤ z` entrywise: the step
    /// never loosens the bound it starts from (up to rounding).
    ///
    /// The walk goes port by port over the sweep's row index, as
    /// [`SweepContext::dual_bound`]'s does; a disabled entry's slack
    /// `w − y_u ≤ 0` never beats `z'_v ≥ +0.0`, so it needs no test.
    fn descent_bound(&self, col: &[f64], y: &[f64], z: &mut Vec<f64>) -> f64 {
        let n = self.sweep.n() as usize;
        debug_assert_eq!(y.len(), n, "one dual price per left port");
        let edges = self.sweep.edges();
        z.clear();
        z.resize(n, 0.0);
        for (run, &y_u) in self.sweep.row_ranges().zip(y) {
            for (&(_, v), &w) in edges[run.clone()].iter().zip(&col[run]) {
                let slack = w - y_u;
                let z_v = &mut z[v as usize];
                *z_v = if slack > *z_v { slack } else { *z_v };
            }
        }
        let y_total: f64 = y.iter().sum();
        let z_total: f64 = z.iter().sum();
        // y: its own length; z': n rounded slacks summed; one final add;
        // plus the ≤ n terms of the kernel's weight.
        outward(y_total + z_total, 2 * n + y.len() + 1)
    }

    /// Evaluates one swept candidate α on this thread's workspace: loads
    /// its weight column ([`SweepContext::load_column`]) and turns it into a
    /// configuration with this context's [`ColumnKernel`], counting every
    /// matching solved. Allocation-free after the first candidate except for
    /// the returned matching, the column block and the duplex kernels' own
    /// buffers.
    pub(crate) fn eval(&self, alpha: u64, delta: u64) -> BestChoice {
        let k = self.sweep.index_of(alpha);
        let (matching, benefit, solves) = KERNEL_WS.with(|ws| {
            let ws = &mut *ws.borrow_mut();
            let col = self.load_column(k);
            match self.kernel {
                ColumnKernel::Matching(kind) => {
                    let benefit = self.match_column(kind, Some(k), &col, ws);
                    (ws.out.clone(), benefit, 1)
                }
                ColumnKernel::Union { kind, r } => self.union(k, &col, kind, r, ws),
                ColumnKernel::Duplex { matcher, scale } => self.duplex(matcher, scale, &col),
            }
        });
        BestChoice {
            matching,
            alpha,
            benefit,
            score: benefit / (alpha + delta) as f64,
            matchings_computed: solves,
        }
    }

    /// Matches the weight column `col` with `kind` (non-positive entries
    /// are absent), leaves the matching in `ws.out` and returns its weight.
    /// An exact solve reloads the topology only when the workspace last
    /// solved another sweep, re-solves in place, and with
    /// `publish = Some(k)` publishes its right-side duals as row `k` of this
    /// search's table.
    fn match_column(
        &self,
        kind: MatchingKind,
        publish: Option<usize>,
        col: &[f64],
        ws: &mut KernelWorkspace,
    ) -> f64 {
        let (edges, n) = (self.sweep.edges(), self.sweep.n());
        match kind {
            MatchingKind::Exact => {
                if ws.loaded_sweep != self.id {
                    ws.solver.load_topology(n, n, edges);
                    ws.loaded_sweep = self.id;
                }
                ws.solver.solve_reweighted(col);
                if let Some(k) = publish {
                    ws.solver.right_duals(&mut ws.z);
                    self.duals.publish(k, &ws.z);
                }
                ws.out.clear();
                ws.out.extend_from_slice(ws.solver.matching());
                ws.solver.last_weight()
            }
            MatchingKind::GreedySort => {
                ws.greedy.greedy_on(n, n, edges, col, &mut ws.out);
                column_weight(edges, col, &ws.out)
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
                column_weight(edges, col, &ws.out)
            }
        }
    }

    /// The §7 K-port union of candidate `k`'s column `col`: up to `r`
    /// rounds of [`SweepContext::match_column`] on a copy in `ws.col`, each
    /// later one with the links already taken zeroed (which keeps bucket
    /// weights integral). A configuration moves each packet one hop, so a
    /// round gains exactly its own links' `g`. Only the first round, on the
    /// column itself, publishes duals. Returns the sorted union, its weight
    /// and the rounds solved.
    fn union(
        &self,
        k: usize,
        col: &[f64],
        kind: MatchingKind,
        r: u32,
        ws: &mut KernelWorkspace,
    ) -> (Vec<(u32, u32)>, f64, usize) {
        let edges = self.sweep.edges();
        // Taken out of the workspace, which each round borrows mutably.
        let mut masked = std::mem::take(&mut ws.col);
        masked.clear();
        masked.extend_from_slice(col);
        let mut links = Vec::new();
        let mut total = 0.0;
        let mut solves = 0;
        for round in 0..r {
            if round > 0 {
                for link in &ws.out {
                    if let Ok(e) = edges.binary_search(link) {
                        masked[e] = 0.0;
                    }
                }
            }
            if !masked.iter().any(|&w| w > 0.0) {
                break;
            }
            total += self.match_column(kind, (round == 0).then_some(k), &masked, ws);
            solves += 1;
            links.extend_from_slice(&ws.out);
        }
        ws.col = masked;
        links.sort_unstable();
        (links, total, solves)
    }

    /// The §7 duplex configuration of the weight column `col`, one general
    /// matching where `{a, b}` weighs `g(a→b) + g(b→a)`, and its benefit.
    fn duplex(
        &self,
        matcher: GeneralMatcherKind,
        scale: f64,
        col: &[f64],
    ) -> (Vec<(u32, u32)>, f64, usize) {
        let edges = self.sweep.edges();
        // Canonicalize each positive directed edge to `(min, max)`,
        // stable-sort by key, then fold adjacent duplicates. Edges are
        // `(u, v)`-sorted, so for any pair {a, b} the `a → b` term precedes
        // `b → a` there and after the stable sort, and is added first.
        let mut undirected: Vec<((u32, u32), f64)> = edges
            .iter()
            .zip(col)
            .filter(|&(_, &w)| w > 0.0)
            .map(|(&(i, j), &w)| (if i < j { (i, j) } else { (j, i) }, w))
            .collect();
        undirected.sort_by_key(|&(key, _)| key);
        let mut folded: Vec<(u32, u32, f64)> = Vec::with_capacity(undirected.len());
        for ((a, b), w) in undirected {
            match folded.last_mut() {
                Some(last) if (last.0, last.1) == (a, b) => last.2 += w,
                _ => folded.push((a, b, w)),
            }
        }
        let n = self.sweep.n();
        let matching = match matcher {
            GeneralMatcherKind::Greedy => greedy_general_matching(n, &folded),
            GeneralMatcherKind::ExactBlossom => {
                let ints: Vec<(u32, u32, i64)> = folded
                    .iter()
                    .map(|&(a, b, w)| (a, b, (w * scale).round() as i64))
                    .collect();
                maximum_weight_matching_general(n, &ints)
            }
        };
        let entry = |a: u32, b: u32| edges.binary_search(&(a, b)).map_or(0.0, |e| col[e]);
        let benefit = matching
            .iter()
            .map(|&(a, b)| entry(a, b) + entry(b, a))
            .sum();
        (matching, benefit, 1)
    }
}

/// Every candidate's eager bound on its matching weight, from one fused pass
/// over `sweep` ([`MultiAlphaEdges::fused_bounds`]): the row/column-max
/// bound, padded by [`outward`]. It equals, bit for bit, what a pass over
/// each candidate's column computes, since the fused pass sums in the same
/// orders.
fn eager_bounds(sweep: &MultiAlphaEdges, ws: &mut KernelWorkspace) -> Vec<f64> {
    let n = sweep.n() as usize;
    sweep.fused_bounds(&mut ws.bounds);
    ws.bounds
        .row_col
        .iter()
        .map(|&b| outward(b, 2 * n))
        .collect()
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

/// Picks the configuration with the highest benefit per unit cost.
///
/// `alpha_cap` bounds α by the remaining window budget (`W − used − Δ`).
/// Returns `None` when no configuration has positive benefit (i.e. no packet
/// can move on any fabric link).
///
/// `parallel` selects nothing: the search always runs on the calling
/// thread. It stays only because the stand-alone benchmark crate
/// (`perfbench`) still passes it; the next change to the benchmark deletes
/// it with [`SearchPolicy::parallel`].
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
    let sweep = queues.weighted_edges_multi(&candidates);
    SweepContext::new(sweep, ColumnKernel::Matching(kind)).search(&policy, delta)
}

/// Strict total order on choices under `policy`, `Greater` = better:
/// ψ-rate (`score`, via `total_cmp` so NaN/−0.0 cannot break totality), then
/// α — smaller wins by default, larger with `prefer_larger_alpha` (used by
/// the localized reconfiguration planner, which keeps links busy during Δ) —
/// then the lexicographically smaller matching as a deterministic key.
///
/// Totality makes the winner independent of the order the search visits
/// candidates in: the best-first search visits them by bound, and it must
/// still agree with the unbounded ascending-α search. Within one search a given α is evaluated to
/// exactly one (deterministic) choice, so two choices equal under this order
/// are identical in every scheduled field.
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
/// The exhaustive search runs best-first ([`exhaustive_pruned`]). Without
/// bounds every bound is `+∞`: candidates are visited in ascending α order
/// and each is evaluated exactly once. `eval` must be deterministic; its
/// `matchings_computed` values are summed into the winner (over *evaluated*
/// candidates, so the count depends on the bounds; the winning
/// configuration itself is identical with and without them).
pub(crate) fn search_alpha<E>(
    candidates: &[u64],
    policy: &SearchPolicy,
    ub: Option<&dyn Fn(u64) -> f64>,
    refine: Option<&dyn Fn(u64, f64) -> f64>,
    eval: &E,
) -> Option<BestChoice>
where
    E: Fn(u64) -> BestChoice,
{
    if candidates.is_empty() {
        return None;
    }
    match policy.search {
        AlphaSearch::Exhaustive => exhaustive_pruned(candidates, policy, ub, refine, eval),
        AlphaSearch::Binary => ternary(candidates, policy, eval),
    }
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

/// Best-first exhaustive search. Each step takes the unsolved candidate
/// with the highest current bound (the smaller α on a tie):
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
fn exhaustive_pruned<E: Fn(u64) -> BestChoice>(
    candidates: &[u64],
    policy: &SearchPolicy,
    ub: Option<&dyn Fn(u64) -> f64>,
    refine: Option<&dyn Fn(u64, f64) -> f64>,
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
        b
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::LinkQueues;
    use crate::HopWeighting;
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
    fn unbounded_search_evaluates_each_candidate_exactly_once() {
        let candidates: Vec<u64> = (1..=97).collect();
        let calls = Cell::new(0usize);
        let eval = |alpha: u64| {
            calls.set(calls.get() + 1);
            BestChoice {
                matching: vec![(0, 1)],
                alpha,
                benefit: alpha as f64,
                score: alpha as f64 / (alpha + 1) as f64,
                matchings_computed: 1,
            }
        };
        let policy = SearchPolicy::exhaustive();
        let best = search_alpha(&candidates, &policy, None, None, &eval).unwrap();
        // One eval per candidate — both by the counter the search sums and
        // by the actual number of closure invocations.
        assert_eq!(best.matchings_computed, candidates.len());
        assert_eq!(calls.get(), candidates.len());
        assert_eq!(best.alpha, 97);
    }

    #[test]
    fn score_ties_break_on_alpha_per_policy() {
        // Two disjoint links sized so the candidate αs {10, 30} score exactly
        // equal at Δ = 10: α=10 → (10+10)/20 = 1, α=30 → (10+30)/40 = 1.
        let q = LinkQueues::from_weighted_counts(4, [((0, 1), 1.0, 10u64), ((2, 3), 1.0, 30)]);
        assert_eq!(q.alpha_candidates(10_000), vec![10, 30]);
        let best = best_configuration(
            &q,
            10,
            10_000,
            AlphaSearch::Exhaustive,
            MatchingKind::Exact,
            false,
        )
        .unwrap();
        // Equal ψ-rate: the smaller α must win deterministically.
        assert_eq!(best.alpha, 10);
        assert_eq!(best.matching, vec![(0, 1), (2, 3)]);
        assert!((best.score - 1.0).abs() < 1e-12);
        // With prefer_larger_alpha the same tie resolves to α = 30 (the
        // localized-reconfiguration preference).
        let policy = SearchPolicy {
            prefer_larger_alpha: true,
            ..SearchPolicy::exhaustive()
        };
        let candidates = q.alpha_candidates(10_000);
        let ctx = SweepContext::new(
            q.weighted_edges_multi(&candidates),
            ColumnKernel::Matching(MatchingKind::Exact),
        );
        let eval = |alpha| ctx.eval(alpha, 10);
        let best = search_alpha(&candidates, &policy, None, None, &eval).unwrap();
        assert_eq!(best.alpha, 30);
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
        }
    }

    #[test]
    fn pruning_stops_at_dominated_candidates() {
        // Best-first: α = 30 has the highest bound and is evaluated first
        // (score 10.0); the next-best bound, 5.0 at α = 20, falls strictly
        // below it, so the search stops without evaluating 10 or 20.
        let candidates = [10u64, 20, 30];
        let ub = |alpha: u64| match alpha {
            30 => 10.0,
            20 => 5.0,
            _ => 3.0,
        };
        let calls = Cell::new(0usize);
        let eval = |alpha: u64| {
            calls.set(calls.get() + 1);
            tight_choice(alpha, ub(alpha))
        };
        let policy = SearchPolicy::exhaustive();
        let best = search_alpha(&candidates, &policy, Some(&ub), None, &eval).expect("non-empty");
        assert_eq!(best.alpha, 30);
        assert_eq!(calls.get(), 1, "dominated candidates must be skipped");
        assert_eq!(best.matchings_computed, 1);
    }

    /// The plain bipartite fabric's exact kernel.
    const EXACT: ColumnKernel = ColumnKernel::Matching(MatchingKind::Exact);

    /// Candidate `k`'s weight column of `ctx`'s sweep, built on its own.
    fn column(ctx: &SweepContext, k: usize) -> Vec<f64> {
        let mut col = Vec::new();
        ctx.sweep.fill_columns(&[k], &mut col);
        col
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
            let ctx = SweepContext::new(q.weighted_edges_multi(&alphas), EXACT);
            let mut scores = vec![0.0; alphas.len()];
            let columns: Vec<Vec<f64>> = (0..alphas.len()).map(|k| column(&ctx, k)).collect();
            for &k in &order {
                let alpha = alphas[k];
                let cost = (alpha + delta) as f64;
                let col = &columns[k];
                // The lazy bound under the duals solved so far, before
                // this α's own solve; a −∞ incumbent forces the descent
                // step.
                let lazy = ctx.solved_score_bound(alpha, delta, f64::NEG_INFINITY);
                let halves = ctx.duals.bracket(alpha, &mut z).then(|| {
                    let bracketed = ctx.dual_bound(col, &z, &mut y) / cost;
                    (bracketed, ctx.descent_bound(col, &y, &mut z_descent) / cost)
                });
                let s = ctx.eval(alpha, delta).score;
                prop_assert!(lazy >= s, "lazy bound {} < score {}", lazy, s);
                if let Some((bracketed, descended)) = halves {
                    prop_assert!(bracketed >= s, "bracketed {} < score {}", bracketed, s);
                    prop_assert!(descended >= s, "descent {} < score {}", descended, s);
                }
                prop_assert!(ctx.score_upper_bound(alpha, delta) >= s);
                prop_assert!(ctx.dual_bound(col, &z_rand, &mut y) / cost >= s);
                scores[k] = s;
            }
            for (k, &alpha) in alphas.iter().enumerate() {
                let cost = (alpha + delta) as f64;
                for r in [k.saturating_sub(1), k, (k + 1).min(alphas.len() - 1)] {
                    z.clear();
                    z.extend(ctx.duals.row(r));
                    let b = ctx.dual_bound(&columns[k], &z, &mut y) / cost;
                    let d = ctx.descent_bound(&columns[k], &y, &mut z_descent) / cost;
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
                let b = ctx.dual_bound(&columns[k], &z, &mut y) / (alpha + delta) as f64;
                prop_assert!(b >= scores[k], "signed row: bound {} < score {}", b, scores[k]);
            }
        }
    }

    /// Every fabric's column kernel, for `1/k` hop weights with `k < 5`
    /// (integral at scale 12).
    const KERNELS: [ColumnKernel; 10] = [
        ColumnKernel::Matching(MatchingKind::Exact),
        ColumnKernel::Matching(MatchingKind::GreedySort),
        ColumnKernel::Matching(MatchingKind::BucketGreedy { scale: 12 }),
        ColumnKernel::Union {
            kind: MatchingKind::Exact,
            r: 1,
        },
        ColumnKernel::Union {
            kind: MatchingKind::Exact,
            r: 2,
        },
        ColumnKernel::Union {
            kind: MatchingKind::Exact,
            r: 3,
        },
        ColumnKernel::Union {
            kind: MatchingKind::GreedySort,
            r: 2,
        },
        ColumnKernel::Union {
            kind: MatchingKind::BucketGreedy { scale: 12 },
            r: 2,
        },
        ColumnKernel::Duplex {
            matcher: GeneralMatcherKind::ExactBlossom,
            scale: 12.0,
        },
        ColumnKernel::Duplex {
            matcher: GeneralMatcherKind::Greedy,
            scale: 12.0,
        },
    ];

    proptest! {
        /// Every fabric's eager and lazy score bounds stay at or above the
        /// score its kernel evaluates: plain, localized (a per-link α
        /// bonus), K-port unions of 1–3 rounds and duplex matchings, with
        /// exact and greedy kernels. Candidates are solved in a seeded
        /// shuffled order, so lazy bounds meet published rows on one side
        /// and on both.
        #[test]
        fn every_kernel_is_bounded_by_its_eager_and_lazy_bounds(
            links in tie_heavy_links(),
            delta in 0u64..20,
            seed in 0u64..u64::MAX,
            with_bonus in 0u32..2,
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
            let bonus = |(i, j): (u32, u32)| if with_bonus > 0 && (i + j) % 2 == 0 { delta } else { 0 };
            let mut order: Vec<usize> = (0..alphas.len()).collect();
            order.sort_by_key(|&k| (k as u64 ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            for kernel in KERNELS {
                let ctx = SweepContext::new(q.weighted_edges_multi_with(&alphas, bonus), kernel);
                for &k in &order {
                    let alpha = alphas[k];
                    let eager = ctx.score_upper_bound(alpha, delta);
                    let lazy = ctx.solved_score_bound(alpha, delta, f64::NEG_INFINITY);
                    let s = ctx.eval(alpha, delta).score;
                    prop_assert!(eager >= s, "{:?} α {}: eager {} < score {}", kernel, alpha, eager, s);
                    prop_assert!(lazy >= s, "{:?} α {}: lazy {} < score {}", kernel, alpha, lazy, s);
                }
            }
        }
    }

    /// The dense sweep that the fused pass and the on-demand columns
    /// replaced, kept as their reference: every candidate's `g` column over
    /// the live links, one merge-walk per link, and each column's
    /// row/column-max bound from a dense pass over it.
    struct DenseSweep {
        edges: Vec<(u32, u32)>,
        columns: Vec<Vec<f64>>,
        ubs: Vec<f64>,
    }

    fn dense_sweep(
        q: &LinkQueues,
        alphas: &[u64],
        extra: impl Fn((u32, u32)) -> u64,
    ) -> DenseSweep {
        let n = q.n() as usize;
        let edges: Vec<(u32, u32)> = q.links().collect();
        let mut columns = vec![vec![0.0; edges.len()]; alphas.len()];
        let mut row = vec![0.0; alphas.len()];
        for (e, &(i, j)) in edges.iter().enumerate() {
            let shifted: Vec<u64> = alphas.iter().map(|&a| a + extra((i, j))).collect();
            q.queue(i, j)
                .expect("live link")
                .g_multi(&shifted, &mut row);
            for (col, &g) in columns.iter_mut().zip(&row) {
                col[e] = g;
            }
        }
        let ubs = columns
            .iter()
            .map(|col| {
                let (mut row_max, mut col_max) = (vec![0.0f64; n], vec![0.0f64; n]);
                for (&(i, j), &g) in edges.iter().zip(col) {
                    if g > row_max[i as usize] {
                        row_max[i as usize] = g;
                    }
                    if g > col_max[j as usize] {
                        col_max[j as usize] = g;
                    }
                }
                let rs: f64 = row_max.iter().sum();
                let cs: f64 = col_max.iter().sum();
                rs.min(cs)
            })
            .collect();
        DenseSweep {
            edges,
            columns,
            ubs,
        }
    }

    /// [`DualTable::bracket`] entry by entry through [`DualTable::row`]:
    /// the interpolation the slice walk replaced, kept as its reference.
    fn reference_bracket(duals: &DualTable, alpha: u64, out: &mut Vec<f64>) -> bool {
        let (lo, hi, t) = match duals.neighbours(alpha) {
            (Some(lo), Some(hi)) if duals.alphas[hi] != alpha => {
                let span = (duals.alphas[hi] - duals.alphas[lo]) as f64;
                (lo, hi, (alpha - duals.alphas[lo]) as f64 / span)
            }
            (_, Some(k)) | (Some(k), None) => (k, k, 0.0),
            (None, None) => return false,
        };
        out.clear();
        out.extend(
            duals
                .row(lo)
                .zip(duals.row(hi))
                .map(|(a, b)| (a + t * (b - a)).max(0.0)),
        );
        true
    }

    /// [`SweepContext::dual_bound`] as the per-edge loop the row-index walk
    /// replaced, kept as its reference: it skips disabled entries and
    /// detects each left port's run of enabled entries as it goes, and
    /// stores a run's maximum (and adds it to the sum) when the run ends.
    fn reference_dual_bound(ctx: &SweepContext, col: &[f64], z: &[f64], y: &mut Vec<f64>) -> f64 {
        let n = ctx.sweep.n() as usize;
        y.clear();
        y.resize(n, 0.0);
        let mut y_total = 0.0f64;
        let mut end_run = |u: u32, y_u: f64| {
            if let Some(slot) = y.get_mut(u as usize) {
                *slot = y_u;
            }
            y_total += y_u;
        };
        let (mut cur_u, mut cur_best) = (u32::MAX, 0.0f64);
        for (&(u, v), &w) in ctx.sweep.edges().iter().zip(col) {
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
        outward(y_total + z_total, 2 * n + z.len() + 1)
    }

    /// [`SweepContext::descent_bound`] as the per-edge loop the row-index
    /// walk replaced, kept as its reference.
    fn reference_descent_bound(
        ctx: &SweepContext,
        col: &[f64],
        y: &[f64],
        z: &mut Vec<f64>,
    ) -> f64 {
        let n = ctx.sweep.n() as usize;
        z.clear();
        z.resize(n, 0.0);
        for (&(u, v), &w) in ctx.sweep.edges().iter().zip(col) {
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
        outward(y_total + z_total, 2 * n + y.len() + 1)
    }

    /// [`SweepContext::solved_score_bound`] on an explicit column, through
    /// the reference bracket and the reference bound loops, so it shares
    /// none of the passes it checks.
    fn reference_lazy(ctx: &SweepContext, col: &[f64], alpha: u64, delta: u64, inc: f64) -> f64 {
        let (mut z, mut y, mut z_descent) = (Vec::new(), Vec::new(), Vec::new());
        if !reference_bracket(&ctx.duals, alpha, &mut z) {
            return f64::INFINITY;
        }
        let cost = (alpha + delta) as f64;
        let bound = reference_dual_bound(ctx, col, &z, &mut y) / cost;
        if bound < inc {
            return bound;
        }
        bound.min(reference_descent_bound(ctx, col, &y, &mut z_descent) / cost)
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Candidate `k`'s column in `ctx`'s block, if built.
    fn block_column(ctx: &SweepContext, k: usize) -> Option<Vec<f64>> {
        let block = ctx.block.borrow();
        block
            .has(k)
            .then(|| block.column(k, ctx.sweep.edges().len()).to_vec())
    }

    /// Every column `ctx`'s block holds equals the dense reference bit for
    /// bit; returns how many it holds.
    fn assert_block_matches(ctx: &SweepContext, dense: &[Vec<f64>]) -> usize {
        let mut built = 0;
        for (k, want) in dense.iter().enumerate() {
            if let Some(col) = block_column(ctx, k) {
                assert_eq!(bits(&col), bits(want), "block column {k}");
                built += 1;
            }
        }
        built
    }

    /// Candidate `alphas` extended by
    /// [`crate::engine::CandidateExtension::ShiftDown`], as the local
    /// fabric gets them.
    fn shifted_down(alphas: &[u64], shift: u64) -> Vec<u64> {
        let mut set: Vec<u64> = alphas
            .iter()
            .flat_map(|&a| [a, a.saturating_sub(shift)])
            .filter(|&a| a > 0)
            .collect();
        set.sort_unstable();
        set.dedup();
        set
    }

    proptest! {
        /// The fused eager bounds, the single and block columns and
        /// everything bounded or solved from them equal the dense reference
        /// bit for bit: on `EpsilonLater { eps: −0.5 }` hop weights
        /// (multi-class links, zero-weight classes), with tombstoned links,
        /// links patched onto the arena tail or to zero weight, and a
        /// per-link α bonus. A second sweep over the same snapshot is
        /// evaluated between each refine and solve, so a column kept per
        /// candidate across sweeps would show. Then every column kernel's
        /// search (exact, both greedy kinds, the K-port union at `r = 2`,
        /// duplex, and the local fabric's bonus over
        /// [`crate::engine::CandidateExtension::ShiftDown`] candidates)
        /// builds its block
        /// from the first solve's incumbent, and every block column equals
        /// the reference; the block's coverage is debug-asserted on every
        /// load.
        #[test]
        fn fused_bounds_and_columns_match_the_dense_reference(
            links in prop::collection::vec(((0u32..7, 0u32..7), 1u32..4, 0u32..3, 1u64..40), 1..40),
            edits in prop::collection::vec((0usize..64, 0u32..4), 0..16),
            delta in 0u64..30,
        ) {
            let n = 7u32;
            let eps = HopWeighting::EpsilonLater { eps: -0.5 };
            let mut q = LinkQueues::from_weighted_counts(
                n,
                links
                    .iter()
                    .filter(|((i, j), ..)| i != j)
                    .map(|&(link, k, x, c)| (link, eps.hop_weight(k, x % k).value(), c)),
            );
            // Every link holds packets at load, so `LinkId` `k` is `keys[k]`.
            let keys: Vec<(u32, u32)> = q.links().collect();
            prop_assume!(!keys.is_empty());
            let mut bonus = Vec::new();
            for &(pick, action) in &edits {
                let li = pick % keys.len();
                let link = keys[li];
                let li = li as u32;
                match action {
                    0 => q.set_link(li, &mut []),
                    1 => q.set_link(
                        li,
                        &mut [
                            (eps.hop_weight(3, pick as u32 % 3).value(), 5 + pick as u64),
                            (1.0 / 3.0, 2),
                            (0.25, 7),
                        ],
                    ),
                    2 => bonus.push(link),
                    _ => q.set_link(li, &mut [(0.0, 4)]),
                }
            }
            let extra = |link| if bonus.contains(&link) { delta + 1 } else { 0 };
            let alphas = q.alpha_candidates(10_000);
            prop_assume!(!alphas.is_empty());
            let ctx = SweepContext::new(q.weighted_edges_multi_with(&alphas, extra), EXACT);
            let other = SweepContext::new(q.weighted_edges_multi(&alphas), EXACT);
            let DenseSweep {
                edges,
                columns: dense,
                ubs,
            } = dense_sweep(&q, &alphas, extra);
            prop_assert_eq!(ctx.sweep.edges(), &edges[..]);
            let nn = n as usize;
            for (k, &alpha) in alphas.iter().enumerate() {
                prop_assert_eq!(bits(&column(&ctx, k)), bits(&dense[k]), "column {}", k);
                let want = outward(ubs[k], 2 * nn);
                prop_assert_eq!(ctx.eager[k].to_bits(), want.to_bits(), "eager bound {}", k);
                let cost = (alpha + delta) as f64;
                prop_assert_eq!(
                    ctx.score_upper_bound(alpha, delta).to_bits(),
                    (want / cost).to_bits()
                );
            }
            // Solve in a strided order, so lazy bounds meet rows on one
            // side and on both.
            let order = (0..alphas.len()).map(|i| (i * 5 + 3) % alphas.len());
            let mut solver = AssignmentSolver::new();
            solver.load_topology(n, n, &edges);
            for k in order {
                let alpha = alphas[k];
                for inc in [f64::NEG_INFINITY, f64::INFINITY] {
                    let got = ctx.solved_score_bound(alpha, delta, inc);
                    let want = reference_lazy(&ctx, &dense[k], alpha, delta, inc);
                    prop_assert_eq!(got.to_bits(), want.to_bits(), "lazy bound {}", k);
                }
                other.solved_score_bound(alpha, delta, f64::NEG_INFINITY);
                other.eval(alpha, delta);
                let choice = ctx.eval(alpha, delta);
                solver.solve_reweighted(&dense[k]);
                prop_assert_eq!(&choice.matching[..], solver.matching());
                prop_assert_eq!(choice.benefit.to_bits(), solver.last_weight().to_bits());
            }
            // A −∞ incumbent batches every candidate.
            prop_assert_eq!(assert_block_matches(&ctx, &dense), alphas.len());
            let policy = SearchPolicy::exhaustive();
            let searched = [
                EXACT,
                ColumnKernel::Matching(MatchingKind::GreedySort),
                ColumnKernel::Matching(MatchingKind::BucketGreedy { scale: 12 }),
                ColumnKernel::Union {
                    kind: MatchingKind::Exact,
                    r: 2,
                },
                ColumnKernel::Duplex {
                    matcher: GeneralMatcherKind::ExactBlossom,
                    scale: 12.0,
                },
            ];
            let dense = dense_sweep(&q, &alphas, |_| 0).columns;
            for kernel in searched {
                let ctx = SweepContext::new(q.weighted_edges_multi(&alphas), kernel);
                ctx.search(&policy, delta);
                prop_assert!(assert_block_matches(&ctx, &dense) > 0, "{:?}", kernel);
            }
            let local = shifted_down(&alphas, delta + 1);
            let ctx = SweepContext::new(q.weighted_edges_multi_with(&local, extra), EXACT);
            ctx.search(&policy, delta);
            prop_assert!(assert_block_matches(&ctx, &dense_sweep(&q, &local, extra).columns) > 0);
        }
    }

    proptest! {
        /// The row-index passes equal the per-edge reference loops bit for
        /// bit: the bracketed row, the weak-duality bound with its left
        /// duals `y`, and the descent step with its right duals `z'`. The
        /// columns hold zero-weight classes and links patched to zero
        /// weight; port 7 and every port the links miss have no edge; the
        /// rows come from this sweep's own solves, from rows of either sign
        /// published on a random subset of candidates, and from a random
        /// `z ≥ 0` with exact zeros.
        #[test]
        fn lazy_bound_halves_match_the_per_edge_reference(
            links in prop::collection::vec(((0u32..7, 0u32..7), 1u32..4, 0u32..3, 1u64..40), 1..30),
            zeroed in prop::collection::vec(0usize..64, 0..6),
            signed in prop::collection::vec(
                (0u32..2, prop::collection::vec(-10.0f64..10.0, 8)),
                1..12,
            ),
            z_rand in prop::collection::vec((0u32..2, 0.0f64..20.0), 8),
        ) {
            let n = 8u32;
            let eps = HopWeighting::EpsilonLater { eps: -0.5 };
            let mut q = LinkQueues::from_weighted_counts(
                n,
                links
                    .iter()
                    .filter(|((i, j), ..)| i != j)
                    .map(|&(link, k, x, c)| (link, eps.hop_weight(k, x % k).value(), c)),
            );
            let links = q.links().count();
            prop_assume!(links > 0);
            for &pick in &zeroed {
                q.set_link((pick % links) as u32, &mut [(0.0, 3)]);
            }
            let alphas = q.alpha_candidates(10_000);
            prop_assume!(!alphas.is_empty());
            let ctx = SweepContext::new(q.weighted_edges_multi(&alphas), EXACT);
            let columns: Vec<Vec<f64>> = (0..alphas.len()).map(|k| column(&ctx, k)).collect();
            let table = DualTable::new(&alphas, n as usize);
            for (k, (publish, row)) in signed.iter().enumerate().take(alphas.len()) {
                if *publish > 0 {
                    table.publish(k, row);
                }
            }
            let z_rand: Vec<f64> = z_rand
                .iter()
                .map(|&(keep, z)| if keep > 0 { z } else { 0.0 })
                .collect();
            let (mut got, mut want) = (Vec::new(), Vec::new());
            let (mut y, mut y_ref) = (Vec::new(), Vec::new());
            let (mut zd, mut zd_ref) = (Vec::new(), Vec::new());
            let mut check = |col: &[f64], z: &[f64]| {
                let b = ctx.dual_bound(col, z, &mut y);
                let b_ref = reference_dual_bound(&ctx, col, z, &mut y_ref);
                assert_eq!(b.to_bits(), b_ref.to_bits(), "dual bound");
                assert_eq!(bits(&y), bits(&y_ref), "left duals");
                let d = ctx.descent_bound(col, &y, &mut zd);
                let d_ref = reference_descent_bound(&ctx, col, &y_ref, &mut zd_ref);
                assert_eq!(d.to_bits(), d_ref.to_bits(), "descent bound");
                assert_eq!(bits(&zd), bits(&zd_ref), "descent duals");
            };
            for (k, &alpha) in alphas.iter().enumerate() {
                check(&columns[k], &z_rand);
                for duals in [&table, &ctx.duals] {
                    let ready = duals.bracket(alpha, &mut got);
                    prop_assert_eq!(ready, reference_bracket(duals, alpha, &mut want));
                    if ready {
                        prop_assert_eq!(bits(&got), bits(&want), "bracketed row {}", k);
                        check(&columns[k], &got);
                    }
                }
                // Publish this α's own duals for the candidates after it.
                if k % 2 == 0 {
                    ctx.eval(alpha, 0);
                }
            }
        }
    }

    /// The block oracle at real size: every select of one `octopus()`
    /// window on complete n = 256 (`paper_default`, W = 10 000, Δ = 20)
    /// builds block columns, and bounds them lazily, exactly as the dense
    /// reference does, bit for bit.
    #[test]
    #[ignore = "release-mode oracle at complete n = 256"]
    fn block_columns_and_lazy_bounds_match_the_dense_reference_at_real_size() {
        use crate::engine::{BipartiteFabric, CandidateExtension, ScheduleEngine};
        use crate::{OctopusConfig, RemainingTraffic};
        use octopus_traffic::synthetic::{self, SyntheticConfig};
        use rand::SeedableRng;

        let (n, window) = (256u32, 10_000u64);
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let load = synthetic::generate(
            &SyntheticConfig::paper_default(n, window),
            &octopus_net::topology::complete(n),
            &mut rng,
        );
        let cfg = OctopusConfig {
            window,
            delta: 20,
            ..OctopusConfig::default()
        };
        let (delta, policy) = (cfg.delta, cfg.search_policy());
        let fabric = BipartiteFabric { kind: cfg.matching };
        let mut tr = RemainingTraffic::new(&load, cfg.weighting).unwrap();
        let mut engine = ScheduleEngine::new(&mut tr, n, delta);
        let (mut used, mut selects, mut checked) = (0, 0, 0);
        while !engine.is_drained() && used + delta < window {
            let budget = window - used - delta;
            let alphas = engine.candidates(budget, CandidateExtension::None);
            let queues = engine.queues();
            let ctx = SweepContext::new(queues.weighted_edges_multi(&alphas), EXACT);
            let Some(choice) = ctx.search(&policy, delta) else {
                break;
            };
            let dense = dense_sweep(queues, &alphas, |_| 0).columns;
            checked += assert_block_matches(&ctx, &dense);
            for (k, &alpha) in alphas.iter().enumerate() {
                if block_column(&ctx, k).is_none() {
                    continue;
                }
                for inc in [f64::NEG_INFINITY, choice.score, f64::INFINITY] {
                    let got = ctx.solved_score_bound(alpha, delta, inc);
                    let want = reference_lazy(&ctx, &dense[k], alpha, delta, inc);
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "select {selects}, lazy bound {k}"
                    );
                }
            }
            drop(ctx);
            engine
                .commit(&fabric, &choice.matching, choice.alpha)
                .unwrap();
            used += choice.alpha + delta;
            selects += 1;
        }
        assert!(
            selects > 10 && checked > selects,
            "{selects} selects, {checked} columns"
        );
    }
}
