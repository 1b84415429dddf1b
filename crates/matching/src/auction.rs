//! Forward-auction (Bertsekas) assignment kernel with ε-scaling.
//!
//! An alternative exact kernel to [`crate::AssignmentSolver`]'s successive
//! shortest augmenting paths: left vertices are *bidders*, right vertices
//! are *objects* carrying a price, and unassigned bidders repeatedly bid
//! `best-net-value − second-best-net-value + ε` on their most profitable
//! object. With ε-scaling (run the auction at a coarse ε, keep the learned
//! prices, rerun at ε/4, …, finish at ε = 1 on integer values) the kernel is
//! exactly optimal and runs in `O(E · √n · log(n·vmax))`-ish time in
//! practice. Its appeal over the Hungarian workspace is structural: within a
//! bidding round every bidder's (best, second-best) scan is an independent
//! read-only pass over a shared price vector, so the expensive part of each
//! round parallelizes across bidders — inside a *single* α-evaluation, where
//! the Hungarian kernel is inherently sequential.
//!
//! ## Determinism contract
//!
//! The result is a **pure function of `(topology, weights)`**, bit-identical
//! for every worker count and every repetition:
//!
//! * Weights are mapped to integers by an *adaptive power-of-two* scale
//!   (exact scaling, correctly-rounded product — no `log2`, no
//!   data-dependent rounding modes), then multiplied by `n_left + 1` so that
//!   ε = 1 certifies exact optimality of the scaled-integer problem. All
//!   prices and bids are `i64`; no float accumulates in the hot loop.
//! * Bidding is Jacobi-style: every active bidder computes its bid against
//!   the *same* price snapshot (sequentially, or in parallel via the
//!   position-deterministic [`rayon::steal::par_map_into`]), so bid values
//!   are independent of evaluation order.
//! * Conflict resolution is a sequential pass with a total tie-break: an
//!   object goes to the **highest bid, lowest bidder id on ties**; within a
//!   bidder's scan the implicit cheapest objects seed the running best, and
//!   real edges are scanned in ascending object order with a
//!   strictly-greater replacement rule, so equal nets resolve canonically.
//! * Like [`crate::AssignmentSolver`], solves never warm-start from a
//!   previous solve's prices — prices reset to zero per solve — for exactly
//!   the reasons spelled out in `solver.rs`: price-history-dependent
//!   tie-landing would break the bit-identical-α-search guarantee.
//!
//! ## Matching semantics
//!
//! Mirrors [`crate::AssignmentSolver`]: `load_topology` once per edge set,
//! `solve_reweighted` per weight column, weights `<= 0` disable their edge,
//! matched pairs come back sorted by left index.
//!
//! Internally the asymmetric problem (unmatched vertices allowed) is
//! embedded in a **complete symmetric** one — the only setting where
//! ε-scaling with price persistence is classically sound. With `N =
//! max(n_left, n_right)` bidders and objects, every pair not backed by an
//! enabled edge implicitly carries value 0 (this covers padding rows and
//! columns, disabled edges, and "stay unmatched", the role the Hungarian
//! kernel's dummy sink plays). Naïve dense bidding would cost `O(N)` per
//! bidder, but over the implicit 0-value objects a bidder's best and
//! second-best nets are just `−(two smallest prices)` — shared by *all*
//! bidders and computed once per Jacobi round — so a bid stays
//! `O(degree + 2)`. Every phase therefore ends with all `N` objects
//! assigned: no object is ever left free holding a stale price, which is
//! precisely the failure mode that makes forward-auction ε-scaling unsound
//! for the raw asymmetric problem (Bertsekas & Castañón treat that case
//! with combined forward/reverse auctions; the embedding sidesteps it).
//!
//! **Caveat:** on weights that are not exactly representable at the adaptive
//! integer resolution (≈38 significant bits), the kernel is exact for the
//! *rounded* problem, which may differ from the f64-optimal matching by the
//! rounding error. On integer-valued weight columns (and any column whose
//! values carry ≤ 38 significant bits, e.g. the benches' integer demands)
//! the scaling is exact and the optimal *value* matches
//! [`crate::AssignmentSolver`] bit-for-bit. The scheduler therefore treats
//! the kernel choice as part of the policy: comparisons are only ever made
//! between runs using the same kernel.

use crate::WeightedBipartiteGraph;

/// "Not assigned" marker in `match_l` / `owner`.
const UNMATCHED: u32 = u32::MAX;

/// Upper bound on the significant bits retained by the adaptive weight
/// scaling. The actual bit budget shrinks with the problem size so the
/// classical auction price bound `(N + 1) · (vmax_scaled + ε)` stays far
/// below `i64::MAX` (see [`value_bits_for`]).
const MAX_VALUE_BITS: i32 = 38;

/// Scaled-value bit budget for an `N × N` embedded problem: the price bound
/// is `≈ (N + 2) · vmax_scaled` with `vmax_scaled < (N + 1) · 2^bits`, so
/// we keep `(N + 2)² · 2^bits < 2^61`. At fabric-realistic sizes the budget
/// sits at the 38-bit cap; it only degrades (documented resolution loss)
/// beyond ~2^11 ports.
fn value_bits_for(n: usize) -> i32 {
    let n_bits = 64 - (n as u64 + 2).leading_zeros() as i32;
    (61 - 2 * n_bits).clamp(8, MAX_VALUE_BITS)
}

/// Reusable per-solve auction state: prices, bidder queues and scratch.
///
/// Buffers grow on first use and persist across solves — the auction
/// analogue of the Hungarian workspace's timestamped scratch; the hot loop
/// performs no allocation once warm.
#[derive(Debug, Default)]
pub struct AuctionWorkspace {
    /// Prices of the `N` embedded objects (real columns then padding), in
    /// scaled-integer units; reset to zero per solve, persisted across
    /// ε-phases within a solve.
    price: Vec<i64>,
    /// Object → owning bidder (`UNMATCHED` if free).
    owner: Vec<u32>,
    /// Bidder → object (`UNMATCHED` = still bidding).
    match_l: Vec<u32>,
    /// Bidder queue of the current round (ascending).
    active: Vec<u32>,
    /// Bidder queue being built for the next round.
    next_active: Vec<u32>,
    /// Per-active-bidder `(object, bid)` results of the bidding pass.
    bids: Vec<(u32, i64)>,
    /// Objects that received at least one bid this round.
    touched: Vec<u32>,
    /// Best bid per object this round (valid where `round_stamp == round`).
    best_bid: Vec<i64>,
    /// Bidder holding `best_bid` (lowest id on equal bids).
    best_bidder: Vec<u32>,
    /// Stamp marking `best_bid`/`best_bidder` entries of the current round.
    round_stamp: Vec<u32>,
    /// Current bidding round, the stamp value.
    round: u32,
    /// Diagnostics: ε-phases and total bidding rounds of the last solve.
    phases: usize,
    rounds: usize,
}

/// A reusable exact maximum-weight bipartite matching solver built on the
/// forward auction algorithm with ε-scaling.
///
/// Drop-in for [`crate::AssignmentSolver`]'s workspace surface
/// (`load_topology` / `solve_reweighted` / `solve` / `matching` /
/// `last_weight`); see the module docs for the determinism contract and the
/// integer-resolution caveat.
///
/// ```
/// use octopus_matching::AuctionSolver;
/// let mut solver = AuctionSolver::new();
/// solver.load_topology(2, 2, &[(0, 0), (0, 1), (1, 1)]);
/// // 6.0 alone loses to 5.0 + 4.0.
/// assert_eq!(solver.solve_reweighted(&[5.0, 6.0, 4.0]), &[(0, 0), (1, 1)]);
/// // Same topology, new weight column: no rebuild, no allocation.
/// assert_eq!(solver.solve_reweighted(&[1.0, 10.0, 2.0]), &[(0, 1)]);
/// assert_eq!(solver.last_weight(), 10.0);
/// ```
#[derive(Debug)]
pub struct AuctionSolver {
    nl: usize,
    nr: usize,
    /// CSR row offsets, length `nl + 1`.
    start: Vec<u32>,
    /// CSR right endpoints, ascending within each row.
    ev: Vec<u32>,
    /// CSR weights of the current solve (raw `f64`, for `last_weight`).
    ew: Vec<f64>,
    /// Scaled-integer edge values (`round(w · 2^k) · (nl + 1)`); `<= 0`
    /// disables the edge for this solve.
    val: Vec<i64>,
    /// Prices, queues and round scratch.
    ws: AuctionWorkspace,
    /// Run the bidding pass on the worker pool once this many bidders are
    /// active (below it, thread fan-out costs more than the scan).
    par_threshold: usize,
    out: Vec<(u32, u32)>,
    last_weight: f64,
    /// `mult · (N + 1)` of the most recent priced solve — converts the
    /// scaled integer prices back to weight units for
    /// [`AuctionSolver::right_prices`].
    last_scale: f64,
    /// Whether the most recent solve actually ran ε-phases (trivial solves
    /// — no enabled edge, or every weight rounding to zero — leave the
    /// price vector stale, and `right_prices` reports it empty).
    last_priced: bool,
}

impl Default for AuctionSolver {
    // lint:allow(hot-alloc) — amortized: empty Vec::new()s at workspace construction; buffers grow on first solve and are reused across solves — the reuse is the point of the workspace
    fn default() -> Self {
        AuctionSolver {
            nl: 0,
            nr: 0,
            start: Vec::new(),
            ev: Vec::new(),
            ew: Vec::new(),
            val: Vec::new(),
            ws: AuctionWorkspace::default(),
            par_threshold: 512,
            out: Vec::new(),
            last_weight: 0.0,
            last_scale: 1.0,
            last_priced: false,
        }
    }
}

impl AuctionSolver {
    /// Creates an empty workspace; buffers grow on first use and are reused
    /// afterwards.
    pub fn new() -> Self {
        Self::default()
    }

    /// Loads a fixed edge topology for subsequent
    /// [`AuctionSolver::solve_reweighted`] calls.
    ///
    /// `edges` must be sorted by `(u, v)` with no duplicate pairs — the same
    /// contract as [`crate::AssignmentSolver::load_topology`]. Weights are
    /// supplied per solve, in this exact edge order.
    ///
    /// # Panics
    /// Panics if an endpoint is out of range; debug-asserts sortedness.
    pub fn load_topology(&mut self, n_left: u32, n_right: u32, edges: &[(u32, u32)]) {
        debug_assert!(
            edges.windows(2).all(|w| w[0] < w[1]),
            "edges must be (u, v)-sorted and unique"
        );
        self.nl = n_left as usize;
        self.nr = n_right as usize;
        self.start.clear();
        self.start.resize(self.nl + 1, 0);
        for &(u, v) in edges {
            assert!(u < n_left, "left endpoint {u} out of range");
            assert!(v < n_right, "right endpoint {v} out of range");
            self.start[u as usize + 1] += 1;
        }
        for i in 0..self.nl {
            self.start[i + 1] += self.start[i];
        }
        self.ev.clear();
        self.ev.extend(edges.iter().map(|&(_, v)| v));
        self.ew.clear();
        self.ew.resize(edges.len(), 0.0);
        self.val.clear();
        self.val.resize(edges.len(), 0);
    }

    /// Number of edges in the loaded topology.
    pub fn num_edges(&self) -> usize {
        self.ev.len()
    }

    /// Overrides the active-bidder count above which the bidding pass runs
    /// on the worker pool (default 512). Results are bit-identical either
    /// way; tests force `1` to exercise the parallel path on small inputs.
    pub fn set_parallel_bidding_threshold(&mut self, threshold: usize) {
        self.par_threshold = threshold.max(1);
    }

    /// Solves with a fresh weight column over the loaded topology.
    ///
    /// `weights[i]` is the weight of the `i`-th edge passed to
    /// [`AuctionSolver::load_topology`]; entries `<= 0.0` disable their edge
    /// for this solve. Returns the matched `(left, right)` pairs sorted by
    /// left index; the result is a pure function of `(topology, weights)`,
    /// independent of any previous solve and of the worker count.
    ///
    /// # Panics
    /// Panics if `weights.len()` differs from the loaded edge count or a
    /// weight is NaN.
    pub fn solve_reweighted(&mut self, weights: &[f64]) -> &[(u32, u32)] {
        assert_eq!(
            weights.len(),
            self.ev.len(),
            "one weight per loaded edge required"
        );
        debug_assert!(
            weights.iter().all(|w| !w.is_nan()),
            "weights must not be NaN"
        );
        self.ew.copy_from_slice(weights);
        self.run()
    }

    /// Compatibility path: loads topology and weights from `g` (reusing all
    /// buffers) and solves.
    pub fn solve(&mut self, g: &WeightedBipartiteGraph) -> &[(u32, u32)] {
        self.nl = g.n_left() as usize;
        self.nr = g.n_right() as usize;
        let edges = g.edges();
        self.start.clear();
        self.start.resize(self.nl + 1, 0);
        for e in edges {
            self.start[e.u as usize + 1] += 1;
        }
        for i in 0..self.nl {
            self.start[i + 1] += self.start[i];
        }
        self.ev.clear();
        self.ev.extend(edges.iter().map(|e| e.v));
        self.ew.clear();
        self.ew.extend(edges.iter().map(|e| e.weight));
        self.val.clear();
        self.val.resize(self.ev.len(), 0);
        self.run()
    }

    /// The matching of the most recent solve (sorted by left index).
    pub fn matching(&self) -> &[(u32, u32)] {
        &self.out
    }

    /// Moves the most recent solve's matching out of the workspace (the
    /// output buffer is left empty and regrows on the next solve).
    pub fn take_matching(&mut self) -> Vec<(u32, u32)> {
        std::mem::take(&mut self.out)
    }

    /// Total weight of the most recent solve's matching, summed in matching
    /// order (the same accumulation order as
    /// [`crate::AssignmentSolver::last_weight`]).
    pub fn last_weight(&self) -> f64 {
        self.last_weight
    }

    /// ε-phases executed by the most recent solve (diagnostics).
    pub fn last_phases(&self) -> usize {
        self.ws.phases
    }

    /// Total bidding rounds across all phases of the most recent solve
    /// (diagnostics; the per-round bid pass is the parallelizable unit).
    pub fn last_rounds(&self) -> usize {
        self.ws.rounds
    }

    /// Fills `out` with the most recent solve's object prices, less the
    /// lowest price of the embedding, unscaled to weight units and clamped
    /// to `≥ 0` (one entry per *real* right node; embedding padding is
    /// dropped). Empty when the last solve terminated before any ε-phase ran
    /// (trivial instances carry no price signal).
    ///
    /// These prices exist for **certified weak-duality bounds only**: for
    /// any `z ≥ 0`, `Σ_u max_v (w(u,v) − z_v)⁺ + Σ_v z_v` upper-bounds every
    /// matching weight, no matter how stale `z` is. They must **never** seed
    /// a subsequent solve — the module docs explain why price warm-starts
    /// break the determinism contract.
    ///
    /// Why the shift: every object of the complete embedding is bid on
    /// before the auction ends, so all prices share a positive offset `m`
    /// (the lowest price). A bidder's profit `π_u = max_v (a_uv − p_v)` is
    /// then as low as `−m`, and clamping it to zero in the bound above adds
    /// up to `N·m`. Since `π_u ≥ −m` (every bidder may take the cheapest
    /// object at value ≥ 0), the shifted prices `p − m` bound the matching
    /// weight by at most `Σπ + Σp`, the auction's own ε-tight dual value.
    pub fn right_prices(&self, out: &mut Vec<f64>) {
        out.clear();
        if !self.last_priced {
            return;
        }
        let floor = self.ws.price.iter().copied().min().unwrap_or(0);
        out.extend(
            self.ws.price[..self.nr]
                .iter()
                .map(|&p| ((p - floor) as f64 / self.last_scale).max(0.0)),
        );
    }

    /// The embedded problem size: `max(nl, nr)` bidders and objects.
    fn embed_n(&self) -> usize {
        self.nl.max(self.nr)
    }

    /// Scales the weight column to integers and runs the ε-scaled auction
    /// on the `N × N` complete embedding.
    fn run(&mut self) -> &[(u32, u32)] {
        self.out.clear();
        self.last_weight = 0.0;
        self.last_priced = false;
        // Adaptive power-of-two scale: place the largest enabled weight just
        // under the size-dependent bit budget. Exponent via bit extraction,
        // not `log2()`, so the scale is an exact power of two chosen
        // deterministically.
        let vmax = self
            .ew
            .iter()
            .copied()
            .filter(|&w| w > 0.0)
            .fold(0.0f64, f64::max);
        if vmax <= 0.0 || self.nl == 0 || self.nr == 0 {
            return &self.out; // no enabled edge: empty matching
        }
        let n = self.embed_n();
        let exp = ((vmax.to_bits() >> 52) & 0x7ff) as i32 - 1023;
        // Largest shift the integer budget allows for this problem size.
        let k_budget = value_bits_for(n) - (exp + 1);
        // Smallest shift that represents *every* enabled weight exactly
        // (`i64::MAX` when none does, e.g. 1/3-style rationals): shifting
        // w = m·2^(e−52) by `52 − e − trailing_zeros(m)` makes it integral.
        // When that fits the budget, use it — fewer value bits mean fewer
        // ε-scaling phases at identical (exact) resolution. Integer weight
        // columns land at shift 0. Otherwise saturate the budget.
        let mut k_exact = i32::MIN;
        for &w in self.ew.iter().filter(|&&w| w > 0.0) {
            let bits = w.to_bits();
            let we = ((bits >> 52) & 0x7ff) as i32 - 1023;
            let mantissa = (bits & ((1u64 << 52) - 1)) | (1u64 << 52);
            let need = 52 - we - mantissa.trailing_zeros() as i32;
            k_exact = k_exact.max(need);
        }
        let k = if k_exact <= k_budget {
            k_exact.clamp(-1023, 1023)
        } else {
            // `powi` on 2.0 is exact for every in-range power of two; the
            // clamp keeps the finite range (subnormal vmax would otherwise
            // ask for 2^1060).
            k_budget.clamp(-1023, 1023)
        };
        let mult = 2.0f64.powi(k);
        let certify = n as i64 + 1;
        let mut sval_max = 0i64;
        for (dst, &w) in self.val.iter_mut().zip(&self.ew) {
            if w > 0.0 {
                // Correctly-rounded product with an exact power of two,
                // then ties-away rounding: deterministic on every IEEE-754
                // platform. Values scaled under the bit budget fit i64
                // comfortably even after the certification multiplier.
                // lint:allow(unchecked-arith) — bound: |w·mult| < 2^38 (value_bits_for) and certify = N+1, so the product stays under (N+2)²·2^38 < 2^61 « i64::MAX.
                let scaled = (w * mult).round() as i64 * certify;
                *dst = scaled;
                sval_max = sval_max.max(scaled);
            } else {
                *dst = 0;
            }
        }
        if sval_max == 0 {
            return &self.out; // every enabled weight rounded to zero
        }
        self.ws.price.clear();
        self.ws.price.resize(n, 0);
        self.ws.phases = 0;
        self.ws.rounds = 0;
        // ε-scaling schedule: coarse phases learn prices cheaply and
        // persist them; the final ε = 1 phase certifies exactness (values
        // are multiples of `N + 1`, so `N·ε` is below one value quantum).
        let mut eps = (sval_max / 4).max(1);
        loop {
            self.run_phase(eps);
            if eps == 1 {
                break;
            }
            eps = (eps / 4).max(1);
        }
        self.last_scale = mult * certify as f64;
        self.last_priced = true;
        for u in 0..self.nl as u32 {
            let obj = self.ws.match_l[u as usize];
            if obj == UNMATCHED || obj as usize >= self.nr {
                continue; // padding column = "stay unmatched"
            }
            let row =
                &self.ev[self.start[u as usize] as usize..self.start[u as usize + 1] as usize];
            let pos = row.partition_point(|&v| v < obj);
            // Enabled real edges strictly dominate their implicit 0-value
            // twin, so an assignment over an enabled edge always came from
            // that edge; anything else is an implicit 0-value pair, i.e.
            // unmatched in the original problem.
            if row.get(pos) == Some(&obj) {
                let idx = self.start[u as usize] as usize + pos;
                if self.val[idx] > 0 {
                    self.out.push((u, obj));
                    self.last_weight += self.ew[idx];
                }
            }
        }
        &self.out
    }

    /// One auction phase at a fixed ε: restart the assignment (prices
    /// persist) and run Jacobi bidding rounds until all `N` bidders of the
    /// complete embedding hold an object.
    fn run_phase(&mut self, eps: i64) {
        let n = self.embed_n();
        self.ws.phases += 1;
        self.ws.match_l.clear();
        self.ws.match_l.resize(n, UNMATCHED);
        self.ws.owner.clear();
        self.ws.owner.resize(n, UNMATCHED);
        self.ws.round_stamp.clear();
        self.ws.round_stamp.resize(n, 0);
        self.ws.best_bid.clear();
        self.ws.best_bid.resize(n, 0);
        self.ws.best_bidder.clear();
        self.ws.best_bidder.resize(n, UNMATCHED);
        self.ws.round = 0;

        // The queues move out of the workspace for the duration of the
        // phase so the bidding pass can borrow `self` immutably.
        let mut active = std::mem::take(&mut self.ws.active);
        let mut next = std::mem::take(&mut self.ws.next_active);
        let mut bids = std::mem::take(&mut self.ws.bids);
        active.clear();
        active.extend(0..n as u32);

        while !active.is_empty() {
            // Round snapshot of the two cheapest objects (lowest ids on
            // price ties): the best/second-best *implicit* 0-value
            // candidates of every bidder at once — what keeps a bid
            // O(degree) instead of O(N) on the complete embedding.
            let (cheap1, cheap2) = cheapest_two(&self.ws.price);
            bids.clear();
            bids.resize(active.len(), (UNMATCHED, 0));
            if active.len() >= self.par_threshold {
                rayon::steal::par_map_into(&active, &mut bids, |&u| {
                    self.bid_of(u, eps, cheap1, cheap2)
                });
            } else {
                for (dst, &u) in bids.iter_mut().zip(&active) {
                    *dst = self.bid_of(u, eps, cheap1, cheap2);
                }
            }

            // Sequential conflict resolution: highest bid wins each object,
            // lowest bidder id on ties — independent of queue order and
            // worker count.
            self.ws.round += 1;
            self.ws.rounds += 1;
            let round = self.ws.round;
            self.ws.touched.clear();
            for (&u, &(obj, bid)) in active.iter().zip(&bids) {
                let o = obj as usize;
                if self.ws.round_stamp[o] != round {
                    self.ws.round_stamp[o] = round;
                    self.ws.best_bid[o] = bid;
                    self.ws.best_bidder[o] = u;
                    self.ws.touched.push(obj);
                } else if bid > self.ws.best_bid[o]
                    || (bid == self.ws.best_bid[o] && u < self.ws.best_bidder[o])
                {
                    self.ws.best_bid[o] = bid;
                    self.ws.best_bidder[o] = u;
                }
            }

            next.clear();
            for i in 0..self.ws.touched.len() {
                let o = self.ws.touched[i] as usize;
                let winner = self.ws.best_bidder[o];
                self.ws.price[o] = self.ws.best_bid[o];
                let displaced = self.ws.owner[o];
                if displaced != UNMATCHED {
                    self.ws.match_l[displaced as usize] = UNMATCHED;
                    next.push(displaced);
                }
                self.ws.owner[o] = winner;
                self.ws.match_l[winner as usize] = self.ws.touched[i];
            }
            for &u in &active {
                if self.ws.match_l[u as usize] == UNMATCHED {
                    next.push(u);
                }
            }
            // Ascending queue order keeps the bidding pass cache-friendly
            // and canonical; correctness does not depend on it (the
            // resolution tie-break compares bidder ids explicitly).
            next.sort_unstable();
            std::mem::swap(&mut active, &mut next);
        }

        self.ws.active = active;
        self.ws.next_active = next;
        self.ws.bids = bids;
    }

    /// Computes bidder `u`'s bid against the current price snapshot: the
    /// best and second-best net values over its enabled edges plus the two
    /// cheapest implicit 0-value objects (`cheap1`, `cheap2` — precomputed
    /// per round). Read-only, hence safe to evaluate for many bidders in
    /// parallel.
    ///
    /// The seeded pair is exactly the top-2 of the implicit candidates, so
    /// together with the full CSR scan the result is the true best/second
    /// of the bidder's complete embedded row. (When a seed object is also
    /// an enabled edge of `u`, the edge's strictly larger value wins the
    /// best slot, and the 0-value twin at most *inflates* `second`, which
    /// only lowers the bid — ε-complementary slackness tolerates that.)
    ///
    /// Bids may ride on negative net values: in the complete embedding
    /// every bidder must land somewhere, and "stay unmatched" is just an
    /// implicit pair like any other. Bid = p(best) + (best_net −
    /// second_net) + ε = value(best) − second + ε: strictly above the old
    /// price by ≥ ε, so every round makes progress and prices stay under
    /// the classical `(N + 2) · vmax_scaled` bound the integer budget is
    /// sized for ([`value_bits_for`]).
    fn bid_of(&self, u: u32, eps: i64, cheap1: u32, cheap2: u32) -> (u32, i64) {
        let ui = u as usize;
        // Seed with the two cheapest implicit objects (value 0).
        let mut best_obj = cheap1;
        let mut best_val = 0i64;
        let mut best_net = -self.ws.price[cheap1 as usize];
        let mut second = -self.ws.price[cheap2 as usize];
        if ui < self.nl {
            for idx in self.start[ui] as usize..self.start[ui + 1] as usize {
                let sval = self.val[idx];
                if sval <= 0 {
                    continue;
                }
                let net = sval - self.ws.price[self.ev[idx] as usize];
                if net > best_net {
                    second = best_net;
                    best_net = net;
                    best_obj = self.ev[idx];
                    best_val = sval;
                } else if net > second {
                    second = net;
                }
            }
        }
        // lint:allow(unchecked-arith) — bound: |best_val|, |second|, eps ≤ (N+2)·vmax_scaled < 2^61 (doc comment above / value_bits_for), so the i64 sum cannot overflow.
        (best_obj, best_val - second + eps)
    }
}

/// Indices of the two smallest entries of `prices` (lowest index on ties);
/// returns the same index twice on a 1-element slice. `prices` is non-empty
/// (the solver bails out before phases when the embedding is empty).
fn cheapest_two(prices: &[i64]) -> (u32, u32) {
    let mut j1 = 0usize;
    let mut j2 = usize::MAX;
    for (j, &p) in prices.iter().enumerate().skip(1) {
        if p < prices[j1] {
            j2 = j1;
            j1 = j;
        } else if j2 == usize::MAX || p < prices[j2] {
            j2 = j;
        }
    }
    if j2 == usize::MAX {
        j2 = j1;
    }
    (j1 as u32, j2 as u32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{matching_weight, AssignmentSolver};

    /// Brute-force optimal weight by recursion over left vertices.
    fn brute_best(nl: u32, nr: u32, edges: &[(u32, u32)], w: &[f64]) -> f64 {
        fn rec(u: u32, nl: u32, used: &mut Vec<bool>, edges: &[(u32, u32)], w: &[f64]) -> f64 {
            if u == nl {
                return 0.0;
            }
            let mut best = rec(u + 1, nl, used, edges, w); // leave u unmatched
            for (i, &(eu, ev)) in edges.iter().enumerate() {
                if eu == u && w[i] > 0.0 && !used[ev as usize] {
                    used[ev as usize] = true;
                    best = best.max(w[i] + rec(u + 1, nl, used, edges, w));
                    used[ev as usize] = false;
                }
            }
            best
        }
        rec(0, nl, &mut vec![false; nr as usize], edges, w)
    }

    #[test]
    fn small_instances_are_optimal() {
        let edges = vec![(0, 0), (0, 1), (1, 0), (1, 2), (2, 1), (2, 2)];
        let mut solver = AuctionSolver::new();
        solver.load_topology(3, 3, &edges);
        let columns: Vec<Vec<f64>> = vec![
            vec![7.0, 8.0, 9.0, 2.0, 3.0, 4.0],
            vec![1.0, 1.0, 1.0, 1.0, 1.0, 1.0],
            vec![0.0, 5.0, -1.0, 2.0, 0.0, 8.0],
            vec![7.0, 8.0, 9.0, 2.0, 3.0, 4.0], // revisit an earlier column
        ];
        for col in &columns {
            let got = solver.solve_reweighted(col).to_vec();
            // Validity: each endpoint at most once, only enabled edges.
            let mut seen_l = vec![false; 3];
            let mut seen_r = vec![false; 3];
            for &(u, v) in &got {
                assert!(!seen_l[u as usize] && !seen_r[v as usize]);
                seen_l[u as usize] = true;
                seen_r[v as usize] = true;
                assert!(edges.iter().any(|&e| e == (u, v)));
            }
            let best = brute_best(3, 3, &edges, col);
            assert_eq!(solver.last_weight(), best, "column {col:?}");
        }
    }

    #[test]
    fn agrees_with_hungarian_on_integer_weights() {
        // Deterministic pseudo-random integer instances: the adaptive
        // power-of-two scaling is exact on integers, so the optimal value
        // must equal the Hungarian kernel's bit-for-bit.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for n in [4u32, 7, 12] {
            let mut edges = Vec::new();
            for u in 0..n {
                for v in 0..n {
                    if next() % 10 < 6 {
                        edges.push((u, v));
                    }
                }
            }
            let weights: Vec<f64> = edges.iter().map(|_| (next() % 1000) as f64).collect();
            let mut auction = AuctionSolver::new();
            auction.load_topology(n, n, &edges);
            let am = auction.solve_reweighted(&weights).to_vec();
            let mut hungarian = AssignmentSolver::new();
            hungarian.load_topology(n, n, &edges);
            hungarian.solve_reweighted(&weights);
            assert_eq!(
                auction.last_weight(),
                hungarian.last_weight(),
                "n = {n}, edges = {edges:?}, weights = {weights:?}"
            );
            // Validity of the auction matching.
            let mut seen_r = vec![false; n as usize];
            for &(u, v) in &am {
                assert!(!seen_r[v as usize], "object {v} matched twice");
                seen_r[v as usize] = true;
                let i = edges.iter().position(|&e| e == (u, v)).unwrap();
                assert!(weights[i] > 0.0);
            }
        }
    }

    #[test]
    fn parallel_bidding_is_bit_identical() {
        // Force the parallel bidding path (threshold 1) and sweep worker
        // counts: matchings must be identical to the sequential pass.
        let n = 16u32;
        let mut edges = Vec::new();
        for u in 0..n {
            for v in 0..n {
                if (u + 2 * v) % 3 != 0 {
                    edges.push((u, v));
                }
            }
        }
        let weights: Vec<f64> = edges
            .iter()
            .map(|&(u, v)| f64::from((u * 31 + v * 17) % 97 + 1))
            .collect();
        let mut reference = AuctionSolver::new();
        reference.load_topology(n, n, &edges);
        let expected = reference.solve_reweighted(&weights).to_vec();
        let expected_weight = reference.last_weight();
        for workers in [1usize, 2, 4, 8] {
            rayon::ThreadPoolBuilder::new()
                .num_threads(workers)
                .build_global()
                .unwrap();
            let mut solver = AuctionSolver::new();
            solver.load_topology(n, n, &edges);
            solver.set_parallel_bidding_threshold(1);
            let got = solver.solve_reweighted(&weights).to_vec();
            assert_eq!(got, expected, "workers = {workers}");
            assert_eq!(solver.last_weight().to_bits(), expected_weight.to_bits());
        }
        rayon::ThreadPoolBuilder::new().build_global().unwrap();
    }

    #[test]
    fn nonpositive_weights_disable_edges() {
        let mut solver = AuctionSolver::new();
        solver.load_topology(2, 2, &[(0, 0), (0, 1), (1, 1)]);
        assert_eq!(
            solver.solve_reweighted(&[0.0, -3.0, 0.0]),
            &[] as &[(u32, u32)]
        );
        assert_eq!(solver.last_weight(), 0.0);
        assert_eq!(solver.solve_reweighted(&[0.0, 2.0, 0.0]), &[(0, 1)]);
    }

    #[test]
    fn solve_compat_path_matches_graph_weight() {
        let g = WeightedBipartiteGraph::from_tuples(
            4,
            2,
            [
                (0, 0, 3.0),
                (1, 0, 4.0),
                (2, 1, 1.0),
                (3, 1, 2.0),
                (0, 1, 5.0),
            ],
        );
        let mut solver = AuctionSolver::new();
        let m = solver.solve(&g).to_vec();
        assert_eq!(matching_weight(&g, &m), solver.last_weight());
        assert_eq!(solver.last_weight(), 9.0); // (1,0)=4 + (0,1)=5
    }

    #[test]
    fn empty_and_degenerate_inputs() {
        let mut solver = AuctionSolver::new();
        solver.load_topology(0, 0, &[]);
        assert_eq!(solver.solve_reweighted(&[]), &[] as &[(u32, u32)]);
        solver.load_topology(3, 1, &[(0, 0), (1, 0), (2, 0)]);
        // All three bidders fight over one object; highest weight wins.
        assert_eq!(solver.solve_reweighted(&[1.0, 5.0, 2.0]), &[(1, 0)]);
        assert_eq!(solver.last_weight(), 5.0);
    }

    #[test]
    fn repeat_solves_are_pure() {
        // Prices must not leak between solves: identical inputs, identical
        // outputs, ten times in a row.
        let edges: Vec<(u32, u32)> = (0..6u32)
            .flat_map(|u| (0..6u32).map(move |v| (u, v)))
            .collect();
        let weights: Vec<f64> = edges
            .iter()
            .map(|&(u, v)| f64::from((u * 7 + v * 13) % 23))
            .collect();
        let mut solver = AuctionSolver::new();
        solver.load_topology(6, 6, &edges);
        let first = solver.solve_reweighted(&weights).to_vec();
        let first_weight = solver.last_weight();
        for _ in 0..10 {
            assert_eq!(solver.solve_reweighted(&weights), first.as_slice());
            assert_eq!(solver.last_weight().to_bits(), first_weight.to_bits());
        }
    }

    #[test]
    fn right_prices_bound_the_optimum_tightly() {
        // Weak-duality bound Σ_u max_v (w − z_v)⁺ + Σ_v z_v under the
        // solve's own prices: valid, and within the final ε-phase's slack
        // (below one weight unit on integer columns) of the optimum.
        let edges: Vec<(u32, u32)> = (0..6u32)
            .flat_map(|u| (0..6u32).map(move |v| (u, v)))
            .collect();
        let weights: Vec<f64> = edges
            .iter()
            .map(|&(u, v)| f64::from((u * 7 + v * 13) % 23))
            .collect();
        let mut solver = AuctionSolver::new();
        solver.load_topology(6, 6, &edges);
        solver.solve_reweighted(&weights);
        let best = solver.last_weight();
        let mut z = Vec::new();
        solver.right_prices(&mut z);
        assert_eq!(z.len(), 6);
        let mut y = [0.0f64; 6];
        for (&(u, v), &w) in edges.iter().zip(&weights) {
            y[u as usize] = y[u as usize].max(w - z[v as usize]);
        }
        let bound: f64 = y.iter().sum::<f64>() + z.iter().sum::<f64>();
        assert!(bound >= best, "bound {bound} below the optimum {best}");
        assert!(bound < best + 1.0, "bound {bound} loose against {best}");
    }
}
