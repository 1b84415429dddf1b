//! **Solstice** (Liu et al., CoNEXT 2015) — the greedy one-hop scheduler for
//! hybrid circuit/packet networks that the Octopus paper builds on
//! historically (§2 "One-Hop Traffic Load").
//!
//! Solstice minimizes *evacuation time*: stuff the demand matrix so all row
//! and column sums are equal, then repeatedly extract a perfect matching
//! that covers the largest entries (scanning thresholds by halving) and hold
//! it for the smallest covered demand. Small residual demand is left to the
//! packet switch.
//!
//! This implementation follows the published algorithm structure:
//!
//! 1. **Stuffing** adds virtual demand until the matrix is perfectly
//!    schedulable (all row/column sums equal); virtual packets occupy slots
//!    but do not count as goodput.
//! 2. Each round picks threshold `t = 2^k` (largest with a perfect matching
//!    among entries ≥ `t` in the stuffed matrix), holds that matching for
//!    the minimum covered entry, and subtracts.
//!
//! Exposed as a schedule generator for one-hop demand matrices; each
//! threshold's perfect matching comes from `octopus-matching`'s
//! Hopcroft–Karp.

use octopus_matching::{hopcroft_karp::hopcroft_karp, WeightedBipartiteGraph};
use octopus_net::{Configuration, Matching, Schedule};
use octopus_traffic::DemandMatrix;
use std::collections::BTreeMap;

/// Result of a Solstice run.
#[derive(Debug, Clone)]
pub struct SolsticeOutput {
    /// The configuration sequence (durations include only α; add Δ per
    /// configuration for wall-clock cost).
    pub schedule: Schedule,
    /// Real (non-virtual) demand served per configuration, summed.
    pub real_served: u64,
    /// Virtual (stuffed) demand that occupied slots.
    pub virtual_served: u64,
    /// Residual real demand left for the packet switch.
    pub residual: u64,
}

/// Runs Solstice on a one-hop demand matrix.
///
/// `window`/`delta` bound the schedule like everywhere else; `min_alpha`
/// stops emitting configurations whose duration no longer amortizes the
/// reconfiguration delay (the paper's "leave small stuff to the packet
/// switch" rule; a common choice is `delta`).
pub fn solstice(demand: &DemandMatrix, window: u64, delta: u64, min_alpha: u64) -> SolsticeOutput {
    let n = demand.n;
    // Real demand per pair.
    let mut real: BTreeMap<(u32, u32), u64> = demand
        .entries
        .iter()
        .filter(|&&(r, c, d)| d > 0 && r != c)
        .map(|&(r, c, d)| ((r, c), d))
        .collect();
    // Stuffed matrix = real + virtual.
    let mut virt: BTreeMap<(u32, u32), u64> = BTreeMap::new();
    stuff(n, &real, &mut virt);

    let total =
        |m: &BTreeMap<(u32, u32), u64>, k: &(u32, u32)| -> u64 { m.get(k).copied().unwrap_or(0) };

    let mut schedule = Schedule::new();
    let mut used = 0u64;
    let mut real_served = 0u64;
    let mut virtual_served = 0u64;

    loop {
        if used + delta >= window {
            break;
        }
        let budget = window - used - delta;
        let max_entry = real
            .iter()
            .chain(virt.iter())
            .map(|(k, _)| total(&real, k) + total(&virt, k))
            .max()
            .unwrap_or(0);
        if max_entry == 0 {
            break;
        }
        // Largest power-of-two threshold admitting a perfect matching.
        let mut t = max_entry.next_power_of_two();
        if t > max_entry {
            t /= 2;
        }
        let mut chosen: Option<Vec<(u32, u32)>> = None;
        while t >= 1 {
            let combined: Vec<(u32, u32, f64)> = keys_with_at_least(&real, &virt, t);
            if combined.len() >= n as usize {
                let g = WeightedBipartiteGraph::from_tuples(n, n, combined);
                let m = hopcroft_karp(&g);
                if m.len() == n as usize {
                    chosen = Some(m);
                    break;
                }
            }
            t /= 2;
        }
        let matching = chosen.unwrap_or_else(|| {
            // No perfect matching at any threshold (imperfect stuffing):
            // fall back to a maximum-cardinality matching over everything.
            let g = WeightedBipartiteGraph::from_tuples(n, n, keys_with_at_least(&real, &virt, 1));
            hopcroft_karp(&g)
        });
        if matching.is_empty() {
            break;
        }
        let Some(alpha_full) = matching
            .iter()
            .map(|k| total(&real, k) + total(&virt, k))
            .min()
        else {
            debug_assert!(false, "emptiness checked above");
            break;
        };
        let alpha = alpha_full.min(budget);
        if alpha < min_alpha && !schedule.is_empty() {
            break; // remaining entries too small to amortize delta
        }
        if alpha == 0 {
            break;
        }
        for k in &matching {
            // Serve real demand first, then virtual filler.
            let mut left = alpha;
            if let Some(r) = real.get_mut(k) {
                let take = (*r).min(left);
                *r -= take;
                left -= take;
                real_served += take;
                if *r == 0 {
                    real.remove(k);
                }
            }
            if left > 0 {
                if let Some(v) = virt.get_mut(k) {
                    let take = (*v).min(left);
                    *v -= take;
                    virtual_served += take;
                    if *v == 0 {
                        virt.remove(k);
                    }
                }
            }
        }
        let Ok(m) = Matching::new_free(matching.iter().copied()) else {
            debug_assert!(false, "hopcroft-karp output is always a valid matching");
            break;
        };
        schedule.push(Configuration::new(m, alpha));
        used += alpha + delta;
    }

    SolsticeOutput {
        schedule,
        real_served,
        virtual_served,
        residual: real.values().sum(),
    }
}

fn keys_with_at_least(
    real: &BTreeMap<(u32, u32), u64>,
    virt: &BTreeMap<(u32, u32), u64>,
    t: u64,
) -> Vec<(u32, u32, f64)> {
    let mut combined: BTreeMap<(u32, u32), u64> = real.clone();
    for (&k, &v) in virt {
        *combined.entry(k).or_insert(0) += v;
    }
    combined
        .into_iter()
        .filter(|&(_, d)| d >= t)
        .map(|((r, c), d)| (r, c, d as f64))
        .collect()
}

/// Stuffing: adds virtual demand so every row and column sums to the same
/// value, making the matrix perfectly schedulable (Birkhoff–von Neumann),
/// while keeping the diagonal empty.
///
/// The placement is a transportation problem (row slack → column slack with
/// the diagonal forbidden), solved exactly with a small Dinic max-flow. If a
/// target is infeasible (all residual slack sits on one diagonal cell), the
/// target is raised and retried; each raise adds slack to *every* row and
/// column, so the Hall-type feasibility conditions are met after at most a
/// few rounds.
fn stuff(n: u32, real: &BTreeMap<(u32, u32), u64>, virt: &mut BTreeMap<(u32, u32), u64>) {
    if n < 2 {
        return;
    }
    let n = n as usize;
    let mut base_row = vec![0u64; n];
    let mut base_col = vec![0u64; n];
    for (&(r, c), &d) in real {
        base_row[r as usize] += d;
        base_col[c as usize] += d;
    }
    let mut target = base_row
        .iter()
        .chain(base_col.iter())
        .copied()
        .max()
        .unwrap_or(0);
    if target == 0 {
        return;
    }
    for _ in 0..64 {
        let row_slack: Vec<u64> = base_row.iter().map(|&x| target - x).collect();
        let col_slack: Vec<u64> = base_col.iter().map(|&x| target - x).collect();
        let need: u64 = row_slack.iter().sum();
        // Nodes: 0 = source, 1..=n rows, n+1..=2n cols, 2n+1 sink.
        let mut flow = Dinic::new(2 * n + 2);
        for (i, &s) in row_slack.iter().enumerate() {
            if s > 0 {
                flow.add_edge(0, 1 + i, s);
            }
        }
        for (j, &s) in col_slack.iter().enumerate() {
            if s > 0 {
                flow.add_edge(1 + n + j, 2 * n + 1, s);
            }
        }
        for (i, &rs) in row_slack.iter().enumerate() {
            for (j, &cs) in col_slack.iter().enumerate() {
                if i != j && rs > 0 && cs > 0 {
                    flow.add_edge(1 + i, 1 + n + j, rs.min(cs));
                }
            }
        }
        if flow.max_flow(0, 2 * n + 1) == need {
            virt.clear();
            for i in 0..n {
                for (to, f) in flow.flows_from(1 + i) {
                    if (1 + n..1 + 2 * n).contains(&to) && f > 0 {
                        *virt.entry((i as u32, (to - 1 - n) as u32)).or_insert(0) += f;
                    }
                }
            }
            return;
        }
        target += target.max(1); // double and retry
    }
    virt.clear(); // give up; the scheduler falls back to partial matchings
}

/// Minimal Dinic max-flow for the stuffing transportation problem.
struct Dinic {
    graph: Vec<Vec<usize>>,
    to: Vec<usize>,
    cap: Vec<u64>,
    level: Vec<i32>,
    iter: Vec<usize>,
}

impl Dinic {
    fn new(n: usize) -> Self {
        Dinic {
            graph: vec![Vec::new(); n],
            to: Vec::new(),
            cap: Vec::new(),
            level: vec![0; n],
            iter: vec![0; n],
        }
    }

    fn add_edge(&mut self, from: usize, to: usize, cap: u64) {
        self.graph[from].push(self.to.len());
        self.to.push(to);
        self.cap.push(cap);
        self.graph[to].push(self.to.len());
        self.to.push(from);
        self.cap.push(0);
    }

    fn bfs(&mut self, s: usize, t: usize) -> bool {
        self.level.fill(-1);
        let mut q = std::collections::VecDeque::from([s]);
        self.level[s] = 0;
        while let Some(u) = q.pop_front() {
            for &e in &self.graph[u] {
                if self.cap[e] > 0 && self.level[self.to[e]] < 0 {
                    self.level[self.to[e]] = self.level[u] + 1;
                    q.push_back(self.to[e]);
                }
            }
        }
        self.level[t] >= 0
    }

    fn dfs(&mut self, u: usize, t: usize, f: u64) -> u64 {
        if u == t {
            return f;
        }
        while self.iter[u] < self.graph[u].len() {
            let e = self.graph[u][self.iter[u]];
            let v = self.to[e];
            if self.cap[e] > 0 && self.level[v] == self.level[u] + 1 {
                let d = self.dfs(v, t, f.min(self.cap[e]));
                if d > 0 {
                    self.cap[e] -= d;
                    self.cap[e ^ 1] += d;
                    return d;
                }
            }
            self.iter[u] += 1;
        }
        0
    }

    fn max_flow(&mut self, s: usize, t: usize) -> u64 {
        let mut total = 0;
        while self.bfs(s, t) {
            self.iter.fill(0);
            loop {
                let f = self.dfs(s, t, u64::MAX);
                if f == 0 {
                    break;
                }
                total += f;
            }
        }
        total
    }

    /// Flow pushed along each original edge leaving `u` (reverse-edge cap).
    fn flows_from(&self, u: usize) -> Vec<(usize, u64)> {
        self.graph[u]
            .iter()
            .filter(|&&e| e % 2 == 0) // original edges only
            .map(|&e| (self.to[e], self.cap[e ^ 1]))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dm(n: u32, entries: &[(u32, u32, u64)]) -> DemandMatrix {
        DemandMatrix::new(n, entries.iter().copied())
    }

    #[test]
    fn permutation_demand_is_one_configuration() {
        let d = dm(3, &[(0, 1, 40), (1, 2, 40), (2, 0, 40)]);
        let out = solstice(&d, 1_000, 10, 1);
        assert_eq!(out.schedule.len(), 1);
        assert_eq!(out.schedule.configs()[0].alpha, 40);
        assert_eq!(out.real_served, 120);
        assert_eq!(out.residual, 0);
    }

    #[test]
    fn skewed_demand_is_fully_evacuated() {
        let d = dm(
            4,
            &[(0, 1, 100), (0, 2, 0), (1, 0, 30), (2, 3, 55), (3, 2, 5)],
        );
        let out = solstice(&d, 10_000, 5, 1);
        assert_eq!(out.residual, 0, "window is generous: everything evacuates");
        assert_eq!(out.real_served, 190);
        // Virtual stuffing occupied some slots but never counts as goodput.
        out.schedule.validate(None).unwrap();
    }

    #[test]
    fn stuffed_matrix_has_equal_sums() {
        let real: BTreeMap<(u32, u32), u64> = [((0, 1), 10), ((1, 0), 4), ((2, 0), 7)]
            .into_iter()
            .collect();
        let mut virt = BTreeMap::new();
        stuff(3, &real, &mut virt);
        let mut row = [0u64; 3];
        let mut col = [0u64; 3];
        for (&(r, c), &d) in real.iter().chain(virt.iter()) {
            assert_ne!(r, c, "no diagonal stuffing");
            row[r as usize] += d;
            col[c as usize] += d;
        }
        // All sums equal a common target (>= the max original sum, 11;
        // this instance is diagonal-blocked at 11, so the target was raised).
        let t = row[0];
        assert!(t >= 11);
        assert!(row.iter().all(|&x| x == t), "rows {row:?}");
        assert!(col.iter().all(|&x| x == t), "cols {col:?}");
    }

    #[test]
    fn window_respected_and_min_alpha_cuts_tail() {
        let d = dm(3, &[(0, 1, 500), (1, 2, 3), (2, 0, 2)]);
        let out = solstice(&d, 100, 10, 10);
        assert!(out.schedule.total_cost(10) <= 100);
        // The 2-3 packet dribble is left to the packet switch once the big
        // flow is (partially) served.
        assert!(out.residual > 0);
    }

    #[test]
    fn empty_demand() {
        let d = dm(3, &[]);
        let out = solstice(&d, 100, 10, 1);
        assert!(out.schedule.is_empty());
        assert_eq!(out.real_served + out.virtual_served + out.residual, 0);
    }

    #[test]
    fn serves_like_eclipse_on_one_hop_loads() {
        // Both one-hop schedulers should evacuate a balanced load fully in a
        // generous window; Solstice may pay more reconfigurations.
        use crate::one_hop::OneHopDemand;
        use octopus_net::NodeId;
        let entries = [(0u32, 1u32, 60u64), (1, 2, 45), (2, 3, 80), (3, 0, 70)];
        let d = dm(4, &entries);
        let sol = solstice(&d, 10_000, 10, 1);
        assert_eq!(sol.residual, 0);
        let demands: Vec<OneHopDemand> = entries
            .iter()
            .enumerate()
            .map(|(i, &(r, c, size))| OneHopDemand {
                src: NodeId(r),
                dst: NodeId(c),
                size,
                weight: 1.0,
                tag: i as u64,
            })
            .collect();
        let ecl = crate::eclipse_schedule(4, &demands, 10, 10_000);
        assert_eq!(ecl.served.iter().sum::<u64>(), 255);
        assert_eq!(sol.real_served, 255);
    }
}

#[cfg(test)]
mod stuffing_property_tests {
    use super::*;

    #[test]
    fn stuffing_balances_random_matrices() {
        let mut state = 0x57ff_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for trial in 0..200 {
            let n = 2 + (next() % 8) as u32;
            let mut real: BTreeMap<(u32, u32), u64> = BTreeMap::new();
            for _ in 0..(next() % 12) {
                let r = next() as u32 % n;
                let c = next() as u32 % n;
                if r != c {
                    *real.entry((r, c)).or_insert(0) += 1 + next() % 200;
                }
            }
            let mut virt = BTreeMap::new();
            stuff(n, &real, &mut virt);
            if real.is_empty() {
                assert!(virt.is_empty());
                continue;
            }
            let mut row = vec![0u64; n as usize];
            let mut col = vec![0u64; n as usize];
            for (&(r, c), &d) in real.iter().chain(virt.iter()) {
                assert_ne!(r, c, "trial {trial}: diagonal stuffing");
                row[r as usize] += d;
                col[c as usize] += d;
            }
            let t = row[0];
            assert!(
                row.iter().all(|&x| x == t) && col.iter().all(|&x| x == t),
                "trial {trial}: unbalanced rows {row:?} cols {col:?} (real {real:?}, virt {virt:?})"
            );
        }
    }

    #[test]
    fn solstice_evacuates_random_loads_given_time() {
        let mut state = 0xe4acu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..50 {
            let n = 3 + (next() % 6) as u32;
            let mut entries = Vec::new();
            for _ in 0..(next() % 10) {
                let r = next() as u32 % n;
                let c = next() as u32 % n;
                if r != c {
                    entries.push((r, c, 1 + next() % 100));
                }
            }
            let d = DemandMatrix::new(n, entries);
            let out = solstice(&d, 1_000_000, 5, 1);
            assert_eq!(out.residual, 0, "generous window evacuates everything");
            assert_eq!(out.real_served, d.total());
            out.schedule.validate(None).unwrap();
        }
    }
}
