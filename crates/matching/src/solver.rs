//! Reusable workspace for the exact assignment kernel.
//!
//! [`crate::maximum_weight_matching`] is correct but allocation-heavy when
//! called in a loop: every call re-sorts the edge tuples, rebuilds the
//! adjacency arrays and allocates ~10 scratch vectors before the first
//! Dijkstra phase runs. The Octopus α-search calls the kernel once per
//! candidate duration α, and all candidates of one greedy iteration share
//! the *same* edge topology — only the `g(i, j, α)` weight column differs.
//!
//! [`AssignmentSolver`] splits the kernel accordingly:
//!
//! * [`AssignmentSolver::load_topology`] ingests the shared edge list once,
//!   building a CSR adjacency in buffers that persist across solves;
//! * [`AssignmentSolver::solve_reweighted`] overwrites the weight column in
//!   place and re-runs the solve — zero heap allocation once the buffers
//!   have warmed up;
//! * [`AssignmentSolver::solve`] is the compatibility path: load topology
//!   and weights from a [`WeightedBipartiteGraph`] and solve, still reusing
//!   every buffer.
//!
//! Edges with non-positive weight are *skipped at solve time* rather than
//! filtered at construction, so one fixed topology serves weight columns
//! with different `g > 0` support. The skip reproduces exactly the edge set
//! [`WeightedBipartiteGraph`] would have kept, so results are bit-identical
//! to the one-shot kernel.
//!
//! ## Why every solve starts from canonical duals (no cross-α warm start)
//!
//! The tempting optimization — keep the previous α's dual potentials, repair
//! feasibility, and re-run phases only for vertices whose matched edge went
//! slack — is **unsound** under the determinism contract of this codebase.
//! The matching this algorithm returns is only unique up to ties, and which
//! optimal matching it lands on depends on the Dijkstra pop order, which
//! compares *reduced* distances `d_true + φ(s) − φ(v)`: different starting
//! potentials select different equal-weight optima. (Concretely: on the 2×2
//! complete graph with all weights equal, a cold solve matches the diagonal,
//! while a solver warm-started from weights favoring the anti-diagonal keeps
//! the anti-diagonal — same value, different matching.) Octopus weights are
//! rational hop weights with massive tie classes, so this is the common
//! case, not a corner. A history-dependent `eval(α)` would break the
//! guarantee that pruned and unbounded α-searches, on warm and cold
//! workspaces, return bit-identical schedules. Every solve therefore re-initializes
//! `φ_l(u) = max(0, max_v w(u, v))`, `φ_r = 0` — an `O(V)` fill, not an
//! allocation — making the result a pure function of `(topology, weights)`.
//!
//! ## Which optimum a phase returns: the first free vertex at the least distance
//!
//! Each phase runs Dijkstra from the inserted left vertex `s` over
//! alternating paths in reduced costs and augments along a shortest path to
//! a free extended-right vertex (a right vertex nobody is matched to, or a
//! left vertex's dummy sink). Any shortest path keeps the matching of
//! maximum weight and the potentials optimal; the phase takes the first one
//! it finds:
//!
//! * **The bound `ub`.** The phase keeps `ub`, the least tentative distance
//!   of any free extended-right vertex so far, and `ub_v`, the first vertex
//!   to reach it (s's own dummy sink is relaxed first, so `ub` is finite
//!   from the start). Reaching a free vertex only lowers `ub`; free
//!   vertices are never queued.
//! * **The stop.** The phase ends as soon as the distance being expanded
//!   reaches `ub`: at the first pop with `d ≥ ub`, or when the queue runs
//!   dry. No queued entry is then below `ub`, so `ub` is `ub_v`'s final
//!   distance `D`, and the phase augments to `ub_v`. A relaxation that
//!   reaches a free vertex at the expanding vertex's own distance drops
//!   `ub` to that distance, so the very next pop ends the phase. It pops
//!   nothing at `D`, so the Johnson update (`pot[x] -= D − d(x)` for every
//!   finalized `x`) moves only vertices finalized below `D`, and reduced
//!   costs stay non-negative.
//!
//! Most Octopus phases end at `D = 0`, often inside `s`'s own row. A rule
//! that instead augmented to the least `(D, v)` free vertex had to pop
//! every vertex at `D` with a smaller index first, and expand its match:
//! 29.1 rows per distance-0 phase at complete n = 256, against 3.5 here
//! (EXPERIMENTS.md, "Free-first augmentation").
//!
//! ## Why a free heaviest entry ends the phase in one step
//!
//! When `s`'s heaviest entry `(w, v)` (the head of its weight order) has
//! `v` free at potential 0, the solver matches `s` to `v` and runs no
//! phase: no stamp, queue, Johnson pass or predecessor walk. That is the
//! phase's own outcome, step for step. `s` is unmatched and was never
//! reached before its insertion, so `pot_l[s] = w > 0` and its dummy
//! sink's potential is still 0. The dummy is relaxed first and sets
//! `ub = pot_l[s] > 0`. The head entry's reduced cost is
//! `(−w + pot_l[s]) − 0 = +0.0`, so `v`, free, lands at distance 0 and
//! drops `ub` to 0, and every later entry of the row is cut
//! (`0 + max(0, pl − w') ≥ 0`). Nothing was queued, so the phase ends
//! with `D = 0` at `v`; the Johnson pass subtracts `0 − 0` from `pot_l[s]`
//! alone and finalized no right vertex, and the walk from `v` reaches `s`
//! in one step. So the matching, [`AssignmentSolver::last_weight`] and
//! [`AssignmentSolver::right_duals`] are unchanged bit for bit.
//!
//! The test is `pot_r[v] ≥ 0.0`, which under `pot_r ≤ 0` means 0 (and
//! keeps clear of a float equality). A free right vertex is in fact always
//! at 0: only matched vertices are queued and finalized, only finalized
//! ones move, and a matched vertex stays matched. When the head entry's
//! vertex is taken, the full phase runs, even if an equally heavy entry
//! later in the row is free: it finds that entry at distance 0 itself.
//! The step takes 47 % of all insertions on `serve-periodic`-shaped
//! windows (n = 64, 256 flows) and 29 % on one `paper_default` window at
//! complete n = 256 (EXPERIMENTS.md, "Branch-free select bounds").
//!
//! ## Why the cuts do not change the matching
//!
//! Two cuts skip the work that cannot change the target:
//!
//! * **Relaxations at or above `ub`.** A relaxation with `nd ≥ ub` is
//!   dropped: no stamp, no `dist_r`/`pred_r` write, no queue push. It cannot
//!   lower `ub`, its entry would pop at or after the stop, and it cannot
//!   change the outcome of a later relaxation of the same vertex below
//!   `ub`, since a tentative distance is only ever replaced by a strictly
//!   smaller one.
//! * **Rows by weight.** Every solve orders each row's positive entries by
//!   weight, heaviest first, and the scan of row `u` (potential
//!   `pl = pot_l[u]`) breaks at the first entry with
//!   `d_u + max(0, pl − w) ≥ ub`. Right potentials start at 0 and only
//!   decrease (each Johnson update subtracts a non-negative amount; a
//!   `debug_assert!` checks it), so `rc = (pl − w) − pot_r ≥ pl − w`, also
//!   in floating point, where rounding is monotone; a lighter entry's
//!   `pl − w` is no smaller. Every skipped entry would be dropped. Within
//!   the scan, an entry whose vertex is already finalized this phase is
//!   skipped before its reduced cost is computed: a finalized distance is
//!   never replaced, so its relaxation is a no-op.
//!
//! The scan order decides ties: the first relaxation to reach the least
//! distance sets `ub_v`. Each row scans its dummy sink first, then its
//! entries by the explicit key `(Reverse(w), v)`, not in whatever order an
//! unstable sort leaves equal weights; left vertices are expanded in the
//! queue's `(dist, v)` pop order. So the target of every phase, and with it
//! the matching, [`AssignmentSolver::last_weight`] and
//! [`AssignmentSolver::right_duals`], are a pure function of
//! `(topology, weights)`, and bit-identical to the same rule run without
//! cuts: a heap loop in this module's tests that queues every relaxation,
//! free vertices too.
//!
//! ## Why the bucket queue pops in the heap's order
//!
//! Dijkstra's queue is a monotone bucket queue, not a binary heap: the
//! Octopus hop weights `k/6` leave most tentative distances tied (most
//! phases end at distance 0), and a heap spends its `log` work ordering
//! exact ties. The queue keeps one bitset over the extended right vertices
//! per distinct distance, keyed by `f64::to_bits`, with the keys ascending
//! from a head cursor. A push finds or inserts its key and sets bit `v`; a
//! pop takes the lowest set bit of the head bucket, moving the head past
//! drained buckets first. That is the heap's `(dist, v)` order, pop for pop:
//!
//! * **Keys order as distances.** Every distance is a sum of `+0.0` and
//!   clamped reduced costs `max(rc, 0)`, so it is non-negative and never
//!   `−0.0` (IEEE addition gives `+0.0 + −0.0 = +0.0`); on such floats the
//!   bit patterns order as `total_cmp` does, and distinct distances never
//!   share a bucket.
//! * **The head holds the minimum.** A phase pops distance `d` only after
//!   every smaller one, and each push it makes meanwhile has
//!   `nd = d + max(rc, 0) ≥ d`, so it lands in the head bucket or behind
//!   it. Every queued entry of the head bucket therefore has the least
//!   queued distance, and its lowest set bit is the least `v` among them —
//!   also when a smaller `v` arrives at the current distance after a larger
//!   one was popped.
//! * **Sets, not multisets, change nothing.** A bit stands for one `(d, v)`
//!   entry, and the solver never pushes the same pair twice: a re-push needs
//!   a strictly smaller distance. A superseded entry stays in its old bucket
//!   and pops later as stale, skipped by the same `done_r`/`dist_r` checks
//!   that skipped it in the heap.
//!
//! So the expanded vertices, `pred_r`, `ub_v`, the Johnson updates, the
//! matchings, [`AssignmentSolver::last_weight`] and
//! [`AssignmentSolver::right_duals`] are the heap loop's, bit for bit (a
//! unit test drives the queue and a heap through the same scripts; the
//! reference loop in the tests keeps the heap). The bitsets live in one slab sized at load: each key a phase
//! inserts takes the next slot, and the next phase zeroes only the slots
//! this one used, so a solve allocates nothing after warm-up and a phase
//! pays no `O(V)` reset. A phase inserts at most one key per push; the
//! slab's size in practice is in EXPERIMENTS.md.

use crate::WeightedBipartiteGraph;

const UNMATCHED: u32 = u32::MAX;

/// A reusable exact maximum-weight bipartite matching solver.
///
/// Owns the CSR topology, Johnson potentials, timestamped Dijkstra scratch
/// and the output buffer; see the module docs for the reuse contract.
///
/// ```
/// use octopus_matching::AssignmentSolver;
/// let mut solver = AssignmentSolver::new();
/// solver.load_topology(2, 2, &[(0, 0), (0, 1), (1, 1)]);
/// // 6.0 alone loses to 5.0 + 4.0.
/// assert_eq!(solver.solve_reweighted(&[5.0, 6.0, 4.0]), &[(0, 0), (1, 1)]);
/// // Same topology, new weight column: no rebuild, no allocation.
/// assert_eq!(solver.solve_reweighted(&[1.0, 10.0, 2.0]), &[(0, 1)]);
/// assert_eq!(solver.last_weight(), 10.0);
/// ```
#[derive(Debug, Default)]
pub struct AssignmentSolver {
    nl: usize,
    nr: usize,
    /// CSR row offsets, length `nl + 1`.
    start: Vec<u32>,
    /// CSR right endpoints, ascending within each row.
    ev: Vec<u32>,
    /// CSR weights, parallel to `ev`; overwritten by each reweight.
    ew: Vec<f64>,
    /// Each row's positive entries as `(weight, right)`, heaviest first, in
    /// `start[u]..row_end[u]`; rebuilt by every solve, sized with `ev`.
    by_weight: Vec<(f64, u32)>,
    row_end: Vec<u32>,
    // Matching state (extended right ids: `0..nr` real, `nr + u` = dummy of u).
    match_l: Vec<u32>,
    match_r: Vec<u32>,
    pot_l: Vec<f64>,
    pot_r: Vec<f64>,
    // Timestamped scratch (avoids O(V) clears per phase).
    dist_l: Vec<f64>,
    dist_r: Vec<f64>,
    pred_r: Vec<u32>,
    stamp_r: Vec<u32>,
    done_r: Vec<bool>,
    phase: u32,
    /// The phase's bound: the least tentative distance of any free extended
    /// right vertex, and the first vertex to reach it (see the module docs).
    ub: f64,
    ub_v: u32,
    queue: BucketQueue,
    touched_l: Vec<u32>,
    touched_r: Vec<u32>,
    out: Vec<(u32, u32)>,
    last_weight: f64,
}

impl AssignmentSolver {
    /// Creates an empty workspace; buffers grow on first use and are reused
    /// afterwards.
    pub fn new() -> Self {
        Self::default()
    }

    /// Loads a fixed edge topology for subsequent
    /// [`AssignmentSolver::solve_reweighted`] calls.
    ///
    /// `edges` must be sorted by `(u, v)` with no duplicate pairs (the order
    /// [`WeightedBipartiteGraph::edges`] and the scheduler's link snapshots
    /// already produce). Weights are supplied per solve, in this exact edge
    /// order.
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
        self.size_buffers();
    }

    /// Sizes the weight-ordered row buffers and the Dijkstra queue for the
    /// loaded topology, so solves fill them in place.
    fn size_buffers(&mut self) {
        self.by_weight.clear();
        self.by_weight.resize(self.ev.len(), (0.0, 0));
        self.row_end.clear();
        self.row_end.resize(self.nl, 0);
        self.queue.reset(self.nr + self.nl);
    }

    /// Number of edges in the loaded topology.
    pub fn num_edges(&self) -> usize {
        self.ev.len()
    }

    /// Solves with a fresh weight column over the loaded topology.
    ///
    /// `weights[i]` is the weight of the `i`-th edge passed to
    /// [`AssignmentSolver::load_topology`]; entries `<= 0.0` disable their
    /// edge for this solve (mirroring [`WeightedBipartiteGraph`]'s dropping
    /// of non-positive edges). Returns the matched `(left, right)` pairs
    /// sorted by left index — bit-identical to
    /// [`crate::maximum_weight_matching`] on the equivalent graph; the
    /// result is a pure function of `(topology, weights)`, independent of
    /// any previous solve (see the module docs on warm starts).
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
    /// buffers) and solves. Bit-identical to
    /// [`crate::maximum_weight_matching`], which is now a thin wrapper over
    /// a fresh workspace.
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
        self.size_buffers();
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
    /// order (bit-identical to [`crate::matching_weight`] on the same
    /// matching).
    pub fn last_weight(&self) -> f64 {
        self.last_weight
    }

    /// Fills `out` with the most recent solve's right-side dual prices
    /// `z_v = max(0, −pot_r[v])` (one entry per real right node; dummy
    /// extensions are dropped). Empty before the first solve.
    ///
    /// The duals satisfy `w(u, v) ≤ pot_l[u] + z_v` on every edge, so for
    /// **any** `z ≥ 0` — these, or arbitrarily stale ones — the re-derived
    /// bound `Σ_u max_v (w(u,v) − z_v)⁺ + Σ_v z_v` upper-bounds every
    /// matching weight of any weight column (weak duality, re-proved from
    /// scratch each use). That is their only sanctioned use: the module
    /// docs explain why they must never seed a subsequent solve.
    pub fn right_duals(&self, out: &mut Vec<f64>) {
        out.clear();
        out.extend(
            self.pot_r[..self.nr.min(self.pot_r.len())]
                .iter()
                .map(|&p| (-p).max(0.0)),
        );
    }

    /// Resets per-solve state without touching the topology; O(V) fills over
    /// retained buffers, no allocation after warm-up.
    fn reset_state(&mut self) {
        let nr_ext = self.nr + self.nl;
        self.match_l.clear();
        self.match_l.resize(self.nl, UNMATCHED);
        self.match_r.clear();
        self.match_r.resize(nr_ext, UNMATCHED);
        // Canonical potentials: row maxima left, zero right (see module docs
        // for why these must not be warm-started across weight changes).
        // The row maximum heads the row's weight order.
        self.pot_l.clear();
        self.pot_l.reserve(self.nl);
        for u in 0..self.nl {
            let (lo, hi) = (self.start[u] as usize, self.start[u + 1] as usize);
            let mut end = lo;
            for idx in lo..hi {
                if self.ew[idx] > 0.0 {
                    self.by_weight[end] = (self.ew[idx], self.ev[idx]);
                    end += 1;
                }
            }
            let row = &mut self.by_weight[lo..end];
            // Entries are positive, and positive floats order as their bits;
            // ties go to the lower right index, so the order, and with it
            // the target each phase finds first, depends on the weights only.
            row.sort_unstable_by_key(|&(w, v)| (std::cmp::Reverse(w.to_bits()), v));
            self.row_end[u] = end as u32;
            self.pot_l.push(row.first().map_or(0.0, |&(w, _)| w));
        }
        self.pot_r.clear();
        self.pot_r.resize(nr_ext, 0.0);
        self.dist_l.clear();
        self.dist_l.resize(self.nl, f64::INFINITY);
        self.dist_r.clear();
        self.dist_r.resize(nr_ext, f64::INFINITY);
        self.pred_r.clear();
        self.pred_r.resize(nr_ext, u32::MAX);
        self.stamp_r.clear();
        self.stamp_r.resize(nr_ext, 0);
        self.done_r.clear();
        self.done_r.resize(nr_ext, false);
        self.phase = 0;
    }

    /// The successive-shortest-path assignment solve over the loaded CSR.
    ///
    /// Left vertices are inserted in index order; each insertion runs one
    /// Dijkstra over alternating paths in reduced costs (non-positive-weight
    /// edges skipped), bounded by the phase's `ub`, and augments to the
    /// first free extended-right vertex reached at the least distance;
    /// Johnson potentials keep reduced costs non-negative. The result is
    /// the uncut search's under the same rule (module docs).
    fn run(&mut self) -> &[(u32, u32)] {
        self.reset_state();
        let nl = self.nl;
        let nr = self.nr;

        for s in 0..nl as u32 {
            // A vertex with no positive edge stays unmatched (its potential
            // is exactly 0.0 iff every incident weight is <= 0).
            let si = s as usize;
            if self.pot_l[si] <= 0.0 {
                continue;
            }
            // One-step phase: s's heaviest entry reaches a free vertex at
            // potential 0 (`pot_r ≤ 0` always), which is the phase's own
            // outcome (module docs).
            let (_, v) = self.by_weight[self.start[si] as usize];
            if self.match_r[v as usize] == UNMATCHED && self.pot_r[v as usize] >= 0.0 {
                self.match_l[si] = v;
                self.match_r[v as usize] = s;
                continue;
            }
            self.phase += 1;
            let phase = self.phase;
            self.ub = f64::INFINITY;
            self.ub_v = UNMATCHED;
            self.queue.clear();
            self.touched_l.clear();
            self.touched_r.clear();

            // Seed with s at distance 0.
            self.dist_l[s as usize] = 0.0;
            self.touched_l.push(s);
            self.relax_left(s, 0.0, phase);

            // Dijkstra until the distance being expanded reaches `ub`: the
            // free vertex that set it is then final (module docs). Only
            // matched right vertices are queued, each reached left vertex
            // only through its match.
            while let Some((d, v)) = self.queue.pop() {
                if d >= self.ub {
                    break;
                }
                let vi = v as usize;
                if self.done_r[vi] || d > self.dist_r[vi] {
                    continue; // stale entry
                }
                self.done_r[vi] = true;
                let u = self.match_r[vi];
                debug_assert!(u != UNMATCHED, "free vertices are never queued");
                let ui = u as usize;
                self.dist_l[ui] = d;
                self.touched_l.push(u);
                self.relax_left(u, d, phase);
            }

            // s's dummy sink makes `ub` finite for every seeded vertex; if
            // it nonetheless is not, leave `s` unmatched rather than abort
            // the whole solve.
            let (t, big_d) = (self.ub_v, self.ub);
            if t == UNMATCHED {
                for &v in &self.touched_r {
                    self.done_r[v as usize] = false;
                }
                continue;
            }

            // Johnson potential update: every finalized vertex x with
            // d(x) <= D gets pot[x] -= (D - d(x)); this keeps reduced costs
            // >= 0 and makes the augmenting path tight.
            for &u in &self.touched_l {
                let ui = u as usize;
                if self.dist_l[ui] <= big_d {
                    self.pot_l[ui] -= big_d - self.dist_l[ui];
                }
            }
            for &v in &self.touched_r {
                let vi = v as usize;
                if self.done_r[vi] && self.dist_r[vi] <= big_d {
                    self.pot_r[vi] -= big_d - self.dist_r[vi];
                }
            }
            // `relax_left`'s row cut relies on right potentials never rising
            // above their initial 0.
            debug_assert!(self.pot_r.iter().all(|&p| p <= 0.0), "pot_r > 0");
            // Reset done flags for touched right vertices (stamps handle
            // dist).
            for &v in &self.touched_r {
                self.done_r[v as usize] = false;
            }

            // Augment: walk predecessor pointers from the target back to s.
            let mut v_cur = t;
            loop {
                let u = self.pred_r[v_cur as usize];
                let prev_v = self.match_l[u as usize];
                self.match_l[u as usize] = v_cur;
                self.match_r[v_cur as usize] = u;
                if prev_v == UNMATCHED {
                    break;
                }
                v_cur = prev_v;
            }
        }

        self.out.clear();
        self.last_weight = 0.0;
        for u in 0..nl {
            let v = self.match_l[u];
            if v != UNMATCHED && (v as usize) < nr {
                self.out.push((u as u32, v));
                // Row scan for the matched edge's weight (rows are short and
                // v-sorted); summed in output order for bit-parity with
                // `matching_weight`.
                let (lo, hi) = (self.start[u] as usize, self.start[u + 1] as usize);
                let idx = lo + self.ev[lo..hi].partition_point(|&x| x < v);
                self.last_weight += self.ew[idx];
            }
        }
        // match_l is filled in left order, so `out` is already sorted.
        &self.out
    }

    /// Relaxes left vertex `u`'s dummy sink and its positive-weight edges,
    /// heaviest first, given its finalized distance `d_u`; stops at the
    /// first edge that cannot come in under the phase bound.
    fn relax_left(&mut self, u: u32, d_u: f64, phase: u32) {
        let ui = u as usize;
        let pl = self.pot_l[ui];
        // Dummy sink of u (cost 0 edge) first: it is free unless u is matched
        // to it, so it can lower the bound before the row scan.
        let dv = self.nr + ui;
        let rc = pl - self.pot_r[dv];
        self.relax(u, dv, rc, d_u, phase);
        for idx in self.start[ui] as usize..self.row_end[ui] as usize {
            let (w, v) = self.by_weight[idx];
            // pot_r <= 0 makes rc >= pl - w, and every later entry of the
            // row weighs no more (module docs).
            if d_u + (pl - w).max(0.0) >= self.ub {
                break;
            }
            let v = v as usize;
            // A vertex finalized this phase keeps its distance: `relax`
            // would be a no-op.
            if self.stamp_r[v] == phase && self.done_r[v] {
                debug_assert!(
                    -w + pl - self.pot_r[v] >= -1e-9,
                    "reduced cost must stay non-negative"
                );
                continue;
            }
            let rc = -w + pl - self.pot_r[v];
            self.relax(u, v, rc, d_u, phase);
        }
    }

    #[inline]
    fn relax(&mut self, u: u32, v: usize, rc: f64, d_u: f64, phase: u32) {
        debug_assert!(rc >= -1e-9, "reduced cost must stay non-negative: {rc}");
        // `d_u` descends from the seed's `+0.0`, so `nd` is never `-0.0`.
        let nd = d_u + rc.max(0.0);
        if nd >= self.ub {
            return; // the phase ends before it expands distance `nd`
        }
        if self.stamp_r[v] != phase {
            self.stamp_r[v] = phase;
            self.done_r[v] = false;
            self.dist_r[v] = f64::INFINITY;
            self.touched_r.push(v as u32);
        }
        if !self.done_r[v] && nd < self.dist_r[v] {
            self.dist_r[v] = nd;
            self.pred_r[v] = u;
            if self.match_r[v] == UNMATCHED {
                // nd < ub: a cheaper free vertex, the target unless a
                // cheaper one follows. It is never queued.
                self.ub = nd;
                self.ub_v = v as u32;
            } else {
                self.queue.push(nd, v as u32);
            }
        }
    }
}

/// Monotone bucket queue over the extended right vertices: one bitset per
/// distinct tentative distance, popped in the `(dist, v)` order of a binary
/// heap as long as no push goes below the last popped distance (module
/// docs).
#[derive(Debug, Default)]
struct BucketQueue {
    /// `u64` words per bitset.
    words: usize,
    /// `(f64::to_bits(dist), slot)` pairs, ascending; `keys[head..]` are
    /// live, the buckets before `head` are drained.
    keys: Vec<(u64, u32)>,
    /// The bucket of the last pop, kept until a pop finds it empty, so a
    /// push at the current distance lands in it.
    head: usize,
    /// Bitset slab: slot `s` owns `bits[s * words..(s + 1) * words]`. The
    /// `k`-th key a phase inserts takes slot `k`, so the phase's bitsets
    /// are the slab's first `keys.len()` slots.
    bits: Vec<u64>,
    /// Key of the last pop: no push may go below it.
    floor: u64,
}

impl BucketQueue {
    /// Empties the queue and sizes it for vertices `0..n`, with room for
    /// `n` keys per phase before any regrowth.
    fn reset(&mut self, n: usize) {
        self.words = n.div_ceil(64).max(1);
        self.keys.clear();
        self.keys.reserve(n);
        self.bits.clear();
        self.bits.reserve(n * self.words);
        self.head = 0;
        self.floor = 0;
    }

    /// Empties the queue; zeroes only the slots the last phase used.
    fn clear(&mut self) {
        self.bits[..self.keys.len() * self.words].fill(0);
        self.keys.clear();
        self.head = 0;
        self.floor = 0;
    }

    /// Adds `v` at distance `d >= +0.0`, no smaller than the last popped
    /// distance. Pushing a `(d, v)` pair that is already queued is a no-op.
    fn push(&mut self, d: f64, v: u32) {
        debug_assert!(d.is_sign_positive() && !d.is_nan(), "bad distance {d}");
        let key = d.to_bits();
        debug_assert!(key >= self.floor, "push below the last pop");
        let live = &self.keys[self.head..];
        let slot = match live.binary_search_by_key(&key, |&(k, _)| k) {
            Ok(i) => live[i].1,
            Err(i) => {
                let slot = self.keys.len() as u32;
                let end = self.keys.len() * self.words + self.words;
                if self.bits.len() < end {
                    self.bits.resize(end, 0);
                }
                self.keys.insert(self.head + i, (key, slot));
                slot
            }
        };
        self.bits[slot as usize * self.words + v as usize / 64] |= 1 << (v % 64);
    }

    /// Removes and returns the least `(d, v)`: the lowest set bit of the
    /// first non-empty bucket.
    fn pop(&mut self) -> Option<(f64, u32)> {
        while let Some(&(key, slot)) = self.keys.get(self.head) {
            let s = slot as usize * self.words;
            let bucket = &mut self.bits[s..s + self.words];
            if let Some(i) = bucket.iter().position(|&w| w != 0) {
                let b = bucket[i].trailing_zeros();
                bucket[i] &= bucket[i] - 1;
                self.floor = key;
                return Some((f64::from_bits(key), (i * 64) as u32 + b));
            }
            self.head += 1;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{brute, matching_weight, maximum_weight_matching};
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// Total order wrapper so `f64` distances can live in a [`BinaryHeap`].
    #[derive(Debug, PartialEq)]
    struct OrdF64(f64);
    impl Eq for OrdF64 {}
    impl PartialOrd for OrdF64 {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for OrdF64 {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            self.0.total_cmp(&other.0)
        }
    }

    /// The kernel's phase loop without its cuts: fresh arrays per phase,
    /// every relaxation kept and queued, free vertices too. Rows are scanned
    /// as the kernel scans them (dummy sink, then `(Reverse(w), v)` order),
    /// and a phase ends at the first pop at or above the least free
    /// distance. Returns the matching, its weight and the right duals,
    /// computed as [`AssignmentSolver`] computes them.
    fn reference_solve(
        nl: usize,
        nr: usize,
        edges: &[(u32, u32)],
        weights: &[f64],
    ) -> (Vec<(u32, u32)>, f64, Vec<f64>) {
        let nx = nr + nl;
        let mut rows = vec![Vec::new(); nl];
        for (&(u, v), &w) in edges.iter().zip(weights) {
            if w > 0.0 {
                rows[u as usize].push((v as usize, w));
            }
        }
        for row in &mut rows {
            row.sort_by(|a: &(usize, f64), b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        }
        let mut pot_l: Vec<f64> = rows
            .iter()
            .map(|r| r.first().map_or(0.0, |e| e.1))
            .collect();
        let mut pot_r = vec![0.0; nx];
        let (mut match_l, mut match_r) = (vec![UNMATCHED; nl], vec![UNMATCHED; nx]);
        for s in 0..nl {
            if pot_l[s] <= 0.0 {
                continue;
            }
            let (mut dist_l, mut dist_r) = (vec![f64::INFINITY; nl], vec![f64::INFINITY; nx]);
            let (mut pred, mut done) = (vec![UNMATCHED; nx], vec![false; nx]);
            let mut heap = BinaryHeap::new();
            // The least tentative distance of a free vertex, and the first
            // vertex to reach it.
            let (mut ub, mut target) = (f64::INFINITY, UNMATCHED);
            dist_l[s] = 0.0;
            let mut reached = Some((s, 0.0));
            loop {
                if let Some((u, d_u)) = reached.take() {
                    let dummy = (nr + u, pot_l[u] - pot_r[nr + u]);
                    let row = rows[u].iter().map(|&(v, w)| (v, -w + pot_l[u] - pot_r[v]));
                    for (v, rc) in [dummy].into_iter().chain(row) {
                        let nd = d_u + f64::max(rc, 0.0);
                        if !done[v] && nd < dist_r[v] {
                            dist_r[v] = nd;
                            pred[v] = u as u32;
                            heap.push(Reverse((OrdF64(nd), v as u32)));
                            if match_r[v] == UNMATCHED && nd < ub {
                                (ub, target) = (nd, v as u32);
                            }
                        }
                    }
                }
                let Some(Reverse((OrdF64(d), v))) = heap.pop() else {
                    break;
                };
                let vi = v as usize;
                if d >= ub {
                    break;
                }
                if done[vi] || d > dist_r[vi] {
                    continue;
                }
                done[vi] = true;
                let u = match_r[vi] as usize;
                dist_l[u] = d;
                reached = Some((u, d));
            }
            if target == UNMATCHED {
                continue;
            }
            let big_d = ub;
            for (p, &d) in pot_l.iter_mut().zip(&dist_l) {
                if d <= big_d {
                    *p -= big_d - d;
                }
            }
            for v in 0..nx {
                if done[v] && dist_r[v] <= big_d {
                    pot_r[v] -= big_d - dist_r[v];
                }
            }
            let mut v_cur = target;
            loop {
                let u = pred[v_cur as usize];
                let prev_v = match_l[u as usize];
                match_l[u as usize] = v_cur;
                match_r[v_cur as usize] = u;
                if prev_v == UNMATCHED {
                    break;
                }
                v_cur = prev_v;
            }
        }
        let (mut out, mut weight) = (Vec::new(), 0.0);
        for (u, &v) in match_l.iter().enumerate() {
            if (v as usize) < nr {
                out.push((u as u32, v));
                weight += rows[u].iter().find(|&&(x, _)| x == v as usize).unwrap().1;
            }
        }
        let duals = pot_r[..nr].iter().map(|&p| (-p).max(0.0)).collect();
        (out, weight, duals)
    }

    #[test]
    fn reweighted_matches_cold_solve_on_fixed_topology() {
        let edges = vec![(0, 0), (0, 1), (1, 0), (1, 2), (2, 1), (2, 2)];
        let mut solver = AssignmentSolver::new();
        solver.load_topology(3, 3, &edges);
        let columns: Vec<Vec<f64>> = vec![
            vec![7.0, 8.0, 9.0, 2.0, 3.0, 4.0],
            vec![1.0, 1.0, 1.0, 1.0, 1.0, 1.0],
            vec![0.0, 5.0, -1.0, 2.0, 0.0, 8.0],
            vec![7.0, 8.0, 9.0, 2.0, 3.0, 4.0], // revisit an earlier column
        ];
        for col in &columns {
            let warm = solver.solve_reweighted(col).to_vec();
            let tuples: Vec<(u32, u32, f64)> = edges
                .iter()
                .zip(col)
                .map(|(&(u, v), &w)| (u, v, w))
                .collect();
            let g = WeightedBipartiteGraph::from_tuples(3, 3, tuples);
            assert_eq!(warm, maximum_weight_matching(&g), "column {col:?}");
            assert!((solver.last_weight() - matching_weight(&g, &warm)).abs() < 1e-12);
        }
    }

    #[test]
    fn solve_matches_one_shot_kernel() {
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
        let mut solver = AssignmentSolver::new();
        assert_eq!(solver.solve(&g), maximum_weight_matching(&g).as_slice());
        assert!((solver.last_weight() - matching_weight(&g, solver.matching())).abs() < 1e-12);
        // Reuse across differently-shaped graphs.
        let g2 = WeightedBipartiteGraph::from_tuples(2, 2, [(0, 0, 5.0), (0, 1, 6.0), (1, 1, 4.0)]);
        assert_eq!(solver.solve(&g2), maximum_weight_matching(&g2).as_slice());
    }

    #[test]
    fn nonpositive_weights_disable_edges() {
        let mut solver = AssignmentSolver::new();
        solver.load_topology(2, 2, &[(0, 0), (0, 1), (1, 1)]);
        assert_eq!(
            solver.solve_reweighted(&[0.0, -3.0, 0.0]),
            &[] as &[(u32, u32)]
        );
        assert_eq!(solver.last_weight(), 0.0);
        assert_eq!(solver.solve_reweighted(&[0.0, 2.0, 0.0]), &[(0, 1)]);
    }

    #[test]
    fn empty_topology() {
        let mut solver = AssignmentSolver::new();
        solver.load_topology(3, 3, &[]);
        assert!(solver.solve_reweighted(&[]).is_empty());
    }

    #[test]
    fn randomized_reweight_agrees_with_brute_force() {
        let mut next = xorshift(0x9e37_79b9);
        let mut solver = AssignmentSolver::new();
        for trial in 0..200 {
            let nl = 1 + (next() % 5) as u32;
            let nr = 1 + (next() % 5) as u32;
            let mut edges: Vec<(u32, u32)> = (0..(next() % 12) as usize)
                .map(|_| (next() as u32 % nl, next() as u32 % nr))
                .collect();
            edges.sort_unstable();
            edges.dedup();
            solver.load_topology(nl, nr, &edges);
            for _ in 0..4 {
                let col: Vec<f64> = edges
                    .iter()
                    .map(|_| ((next() % 100) as f64) - 20.0)
                    .collect();
                let got = solver.solve_reweighted(&col).to_vec();
                let tuples: Vec<(u32, u32, f64)> = edges
                    .iter()
                    .zip(&col)
                    .map(|(&(u, v), &w)| (u, v, w))
                    .collect();
                let g = WeightedBipartiteGraph::from_tuples(nl, nr, tuples);
                let want = brute::max_weight_matching_brute(&g);
                assert!(
                    (matching_weight(&g, &got) - want).abs() < 1e-6,
                    "trial {trial}: got weight {}, brute {want}",
                    matching_weight(&g, &got)
                );
                let (want_m, ..) = reference_solve(nl as usize, nr as usize, &edges, &col);
                assert_eq!(got, want_m, "trial {trial}");
            }
        }
    }

    /// Xorshift stream for the randomized tests.
    fn xorshift(mut state: u64) -> impl FnMut() -> u64 {
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        }
    }

    /// A tie-heavy weight as the Octopus sweep produces them: hop weights
    /// `k/6` times packet counts, sometimes summed over two packet classes,
    /// and about one entry in eight disabled (`w ≤ 0`).
    fn octopus_weight(next: &mut impl FnMut() -> u64) -> f64 {
        match next() % 8 {
            0 => [0.0, -1.0 / 3.0][(next() % 2) as usize],
            r => {
                let class = |next: &mut dyn FnMut() -> u64| {
                    (1 + next() % 6) as f64 / 6.0 * (1 + next() % 8) as f64
                };
                let w = class(next);
                if r == 1 {
                    w + class(next)
                } else {
                    w
                }
            }
        }
    }

    /// A tie-free weight: continuous in `[-1, 9)`, so a phase's tentative
    /// distances are nearly all distinct; about one entry in ten disabled.
    fn continuous_weight(next: &mut impl FnMut() -> u64) -> f64 {
        (next() >> 11) as f64 / (1u64 << 53) as f64 * 10.0 - 1.0
    }

    /// `n_oct` Octopus columns drawn from `next`, then `n_cont` tie-free
    /// ones from `cont`.
    fn columns(
        edges: &[(u32, u32)],
        (n_oct, n_cont): (usize, usize),
        next: &mut impl FnMut() -> u64,
        cont: &mut impl FnMut() -> u64,
    ) -> Vec<Vec<f64>> {
        let oct = (0..n_oct).map(|_| edges.iter().map(|_| octopus_weight(next)).collect());
        let tie_free = (0..n_cont).map(|_| edges.iter().map(|_| continuous_weight(cont)).collect());
        oct.chain(tie_free).collect()
    }

    /// Solves `columns` over one topology and asserts every result is the
    /// reference loop's, bit for bit.
    fn assert_matches_reference(
        solver: &mut AssignmentSolver,
        (nl, nr): (u32, u32),
        edges: &[(u32, u32)],
        columns: &[Vec<f64>],
    ) {
        solver.load_topology(nl, nr, edges);
        let mut duals = Vec::new();
        for (c, col) in columns.iter().enumerate() {
            let got = solver.solve_reweighted(col).to_vec();
            let (want, weight, want_duals) = reference_solve(nl as usize, nr as usize, edges, col);
            let ctx = format!("{nl}x{nr}, {} edges, column {c}", edges.len());
            assert_eq!(got, want, "{ctx}");
            assert_eq!(solver.last_weight().to_bits(), weight.to_bits(), "{ctx}");
            solver.right_duals(&mut duals);
            let bits = |d: &[f64]| d.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&duals), bits(&want_duals), "{ctx}");
        }
    }

    /// Complete `n × n` topology without self-loops, as a complete fabric's
    /// link set.
    fn complete_edges(n: u32) -> Vec<(u32, u32)> {
        (0..n)
            .flat_map(|u| (0..n).filter(move |&v| v != u).map(move |v| (u, v)))
            .collect()
    }

    #[test]
    fn bounded_search_matches_reference_bit_for_bit() {
        let mut next = xorshift(0x5eed_0c70_9a11);
        let mut cont = xorshift(0x7e1e_f4ee_c01d);
        let mut solver = AssignmentSolver::new();
        for trial in 0..120 {
            let (nl, nr) = (1 + (next() % 24) as u32, 1 + (next() % 24) as u32);
            let edges = if trial % 3 == 0 {
                let n = nl.max(nr);
                complete_edges(n)
                    .into_iter()
                    .filter(|&(u, v)| u < nl && v < nr)
                    .collect()
            } else {
                let mut e: Vec<(u32, u32)> = (0..next() % (4 * nl * nr) as u64)
                    .map(|_| (next() as u32 % nl, next() as u32 % nr))
                    .collect();
                e.sort_unstable();
                e.dedup();
                e
            };
            let columns = columns(&edges, (3, 2), &mut next, &mut cont);
            assert_matches_reference(&mut solver, (nl, nr), &edges, &columns);
        }
    }

    /// Solves one column against the reference loop (matching, bits of
    /// the weight and of the right duals) and returns how many full
    /// Dijkstra phases the solve ran; a one-step phase runs none.
    fn full_phases(nl: u32, nr: u32, edges: &[(u32, u32)], col: &[f64]) -> u32 {
        let mut solver = AssignmentSolver::new();
        assert_matches_reference(&mut solver, (nl, nr), edges, &[col.to_vec()]);
        // Every free real right vertex is still at potential +0.0: only
        // finalized vertices move, and those are matched for good.
        for v in 0..nr as usize {
            if solver.match_r[v] == UNMATCHED {
                assert_eq!(
                    solver.pot_r[v].to_bits(),
                    0.0f64.to_bits(),
                    "free vertex {v}"
                );
            }
        }
        solver.phase
    }

    /// (a) Each row's heaviest entry is a free vertex at potential 0, so
    /// every insertion is a one-step phase, however close the runner-up
    /// and however light the row; a column whose row 2 heads for a taken
    /// vertex runs exactly that one phase.
    #[test]
    fn one_step_phase_fires_on_a_free_heaviest_entry() {
        let edges = [(0, 0), (0, 1), (1, 0), (1, 1), (1, 2), (2, 1), (2, 2)];
        let col = [5.0, 1.0, 2.0, 4.0, 4.0 - 1e-9, 0.25, 0.5];
        assert_eq!(full_phases(3, 3, &edges, &col), 0);
        let contested = [5.0, 1.0, 2.0, 4.0, 4.0 - 1e-9, 3.0, 0.5];
        assert_eq!(full_phases(3, 3, &edges, &contested), 1);
    }

    /// (b) An earlier deep phase pushes a vertex below potential 0; a row
    /// whose heaviest entry is that vertex runs the full phase, and a later
    /// row whose heaviest entry is free at 0 still takes one step. A free
    /// vertex below 0 cannot arise (`full_phases` checks it after every
    /// solve), so the guard's other arm is never the reason a phase runs.
    #[test]
    fn one_step_phase_holds_off_after_a_deep_phase() {
        // Row 0 takes v0 in one step; row 1 wants v0 too and augments
        // 1→v0, 0→v1 at distance 1, which moves v0 to −1; row 2's heaviest
        // entry is v0 again (full phase); row 3's is v3, free at 0.
        let edges = [
            (0, 0),
            (0, 1),
            (1, 0),
            (1, 1),
            (2, 0),
            (2, 2),
            (3, 2),
            (3, 3),
        ];
        let col = [5.0, 4.0, 5.0, 1.0, 6.0, 2.0, 1.0, 3.0];
        assert_eq!(full_phases(4, 4, &edges, &col), 2);
    }

    /// (c) A weight tie heads the row: the lower-index vertex (first in
    /// the `(Reverse(w), v)` order) is taken, so the full phase runs and
    /// finds the free twin at distance 0.
    #[test]
    fn one_step_phase_skips_a_tied_head_that_is_taken() {
        let edges = [(0, 0), (1, 0), (1, 1), (1, 2)];
        let col = [5.0, 3.0, 3.0, 1.0];
        assert_eq!(full_phases(2, 3, &edges, &col), 1);
        let mut solver = AssignmentSolver::new();
        solver.load_topology(2, 3, &edges);
        assert_eq!(solver.solve_reweighted(&col), &[(0, 0), (1, 1)]);
    }

    /// The oracle on complete n = 64, 128 and 256 topologies with Octopus
    /// weight classes and tie-free columns, too slow for the debug suite;
    /// run with `cargo test --release -p octopus-matching -- --ignored`.
    #[test]
    #[ignore = "release-mode oracle at n = 64, 128 and 256"]
    fn bounded_search_matches_reference_at_real_sizes() {
        let mut next = xorshift(0xb00d_5ea7_c4a5);
        let mut cont = xorshift(0x2b1d_9e57_aa03);
        let mut solver = AssignmentSolver::new();
        for (n, counts) in [(64, (12, 2)), (128, (12, 2)), (256, (4, 2))] {
            let edges = complete_edges(n);
            let columns = columns(&edges, counts, &mut next, &mut cont);
            assert_matches_reference(&mut solver, (n, n), &edges, &columns);
        }
    }

    /// The queue against a `BinaryHeap` under the solver's discipline: a
    /// vertex is pushed only below its tentative distance and only until it
    /// is popped fresh, and no push goes below the last pop. Both must pop
    /// the same `(d, v)` sequence, stale entries included. The scripts pile
    /// up ties, nearly equal distances (one ulp, `1e-12`), stale entries and
    /// smaller `v` pushed at the current distance, over several widths and
    /// phases.
    #[test]
    fn bucket_queue_pops_in_heap_order() {
        let mut next = xorshift(0x0b0c_4e75_1dea);
        let mut queue = BucketQueue::default();
        for script in 0..300 {
            let n = 1 + (next() % 200) as usize;
            queue.reset(n);
            for _phase in 0..3 {
                queue.clear();
                let mut heap = BinaryHeap::new();
                let (mut dist, mut done) = (vec![f64::INFINITY; n], vec![false; n]);
                let mut floor = 0.0_f64;
                for pops in 0.. {
                    for _ in 0..next() % 6 {
                        let v = (next() % n as u64) as usize;
                        let d = match next() % 8 {
                            0..=2 => floor,
                            3 => f64::from_bits(floor.to_bits() + 1),
                            4 => floor + 1e-12,
                            5 => floor + [0.25, 1.0 / 3.0, 1.0][(next() % 3) as usize],
                            _ => floor + continuous_weight(&mut next).abs(),
                        };
                        if !done[v] && d < dist[v] {
                            dist[v] = d;
                            heap.push(Reverse((OrdF64(d), v as u32)));
                            queue.push(d, v as u32);
                        }
                    }
                    let want = heap.pop().map(|Reverse((OrdF64(d), v))| (d.to_bits(), v));
                    let got = queue.pop().map(|(d, v)| (d.to_bits(), v));
                    assert_eq!(got, want, "script {script}, n = {n}, pop {pops}");
                    let Some((bits, v)) = want else { break };
                    floor = f64::from_bits(bits);
                    // An entry above its vertex's tentative distance is stale.
                    done[v as usize] |= floor <= dist[v as usize];
                    if next() % 64 == 0 {
                        break; // end the phase early, leaving live buckets
                    }
                }
            }
        }
    }
}
