//! Greedy Birkhoff–von-Neumann-style decomposition of a demand matrix.
//!
//! Classic crossbar scheduling (zero reconfiguration delay) decomposes a
//! doubly-stochastic-like demand matrix into a convex combination of
//! permutation matrices (Birkhoff–von Neumann). Solstice-style hybrid
//! schedulers use a greedy variant on sparse, non-doubly-stochastic demand.
//! This module provides such a greedy decomposition: repeatedly extract a
//! maximum-cardinality matching over the remaining positive entries, hold it
//! for the minimum entry it covers, and subtract.
//!
//! Termination: every round zeroes at least one positive entry, so at most
//! `nnz(D)` rounds are produced.

use crate::hopcroft_karp::hopcroft_karp;
use crate::WeightedBipartiteGraph;

/// One term of a decomposition: the matched `(row, col)` pairs and the
/// number of slots the matching is held.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BvnTerm {
    /// Matched (row, column) entries, sorted by row.
    pub matching: Vec<(u32, u32)>,
    /// Multiplicity (slots) of this matching.
    pub duration: u64,
}

/// Greedily decomposes a non-negative integer demand matrix (given as sparse
/// `(row, col, demand)` triples over an `n×n` grid) into matchings with
/// durations such that the sum of `duration × matching` exactly reconstructs
/// the matrix.
///
/// ```
/// use octopus_matching::bvn::{decompose, reconstruct};
/// let demand = [(0, 1, 4), (1, 2, 4), (2, 0, 4)];
/// let terms = decompose(3, &demand);
/// assert_eq!(terms.len(), 1, "a permutation matrix is a single term");
/// assert_eq!(reconstruct(3, &terms)[0][1], 4);
/// ```
pub fn decompose(n: u32, demand: &[(u32, u32, u64)]) -> Vec<BvnTerm> {
    #[expect(
        clippy::disallowed_types,
        reason = "cold path: one decomposition per demand matrix"
    )]
    let mut remaining: std::collections::BTreeMap<(u32, u32), u64> = demand
        .iter()
        .filter(|&&(_, _, d)| d > 0)
        .map(|&(r, c, d)| ((r, c), d))
        .collect();
    let mut out = Vec::new();
    while !remaining.is_empty() {
        let g = WeightedBipartiteGraph::from_tuples(
            n,
            n,
            remaining.iter().map(|(&(r, c), &d)| (r, c, d as f64)),
        );
        let matching = hopcroft_karp(&g);
        if matching.is_empty() {
            break; // defensive: cannot happen while entries remain
        }
        // Every matched pair came out of `remaining`'s support, so the
        // lookups cannot miss; degrade by stopping/skipping instead of
        // aborting the decomposition if that invariant ever broke.
        let Some(duration) = matching
            .iter()
            .filter_map(|rc| remaining.get(rc).copied())
            .min()
        else {
            break;
        };
        for rc in &matching {
            let Some(d) = remaining.get_mut(rc) else {
                continue;
            };
            *d -= duration;
            if *d == 0 {
                remaining.remove(rc);
            }
        }
        out.push(BvnTerm { matching, duration });
    }
    out
}

/// Reconstructs the dense matrix described by a decomposition (test helper).
pub fn reconstruct(n: u32, terms: &[BvnTerm]) -> Vec<Vec<u64>> {
    let mut m = vec![vec![0u64; n as usize]; n as usize];
    for t in terms {
        for &(r, c) in &t.matching {
            m[r as usize][c as usize] += t.duration;
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decomposition_reconstructs_matrix() {
        let demand = vec![(0, 1, 5u64), (1, 0, 3), (1, 2, 2), (2, 0, 7), (0, 2, 1)];
        let terms = decompose(3, &demand);
        let m = reconstruct(3, &terms);
        for &(r, c, d) in &demand {
            assert_eq!(m[r as usize][c as usize], d, "entry ({r},{c})");
        }
        // And nothing extra.
        let total: u64 = m.iter().flatten().sum();
        assert_eq!(total, demand.iter().map(|&(_, _, d)| d).sum::<u64>());
    }

    #[test]
    fn permutation_matrix_is_one_term() {
        let demand = vec![(0, 1, 4u64), (1, 2, 4), (2, 0, 4)];
        let terms = decompose(3, &demand);
        assert_eq!(terms.len(), 1);
        assert_eq!(terms[0].duration, 4);
        assert_eq!(terms[0].matching.len(), 3);
    }

    #[test]
    fn empty_demand() {
        assert!(decompose(3, &[]).is_empty());
        assert!(decompose(3, &[(0, 1, 0)]).is_empty());
    }

    #[test]
    fn bounded_term_count() {
        let mut state = 5u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..50 {
            let n = 2 + (next() % 5) as u32;
            let nnz = (next() % 10) as usize;
            let mut demand = Vec::new();
            let mut seen = std::collections::HashSet::new();
            for _ in 0..nnz {
                let r = next() as u32 % n;
                let c = next() as u32 % n;
                if r != c && seen.insert((r, c)) {
                    demand.push((r, c, 1 + next() % 100));
                }
            }
            let terms = decompose(n, &demand);
            assert!(terms.len() <= demand.len().max(1));
            let m = reconstruct(n, &terms);
            for &(r, c, d) in &demand {
                assert_eq!(m[r as usize][c as usize], d);
            }
        }
    }
}
