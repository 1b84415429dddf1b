//! Trace-*like* demand generators standing in for the real datasets of Fig 6.
//!
//! The paper evaluates on (i) traffic heatmaps from a Microsoft data center
//! (ProjecToR \[4\]) and (ii) the Facebook FBFlow dataset [2, 32] for three
//! cluster types — Hadoop, front-end web and database. Those datasets are
//! access-gated, so — per the substitution policy in DESIGN.md §5 — this
//! module synthesizes demand matrices with the *published characteristics*
//! that the paper's conclusions rest on:
//!
//! * traffic is **dominated by a small number of large flows** (heavy-tailed
//!   sizes), which drives Fig 6's low link utilization and near-100%
//!   absolute upper bound;
//! * **Hadoop** clusters show wide, near-all-to-all communication;
//! * **web** clusters concentrate traffic on a small set of cache nodes;
//! * **database** clusters are dominated by locality (within a cell) plus a
//!   few large cross-cell flows;
//! * the **Microsoft** heatmap exhibits strong row/column hot-spots and
//!   block structure.
//!
//! All generators return a [`DemandMatrix`] over a configurable cluster size;
//! the experiment harness then applies the paper's post-processing: randomly
//! select `100` rows/columns ([`DemandMatrix::subsample`]) and scale the
//! largest flow to the window `W` ([`DemandMatrix::scale_max_to`]).

use crate::DemandMatrix;
use rand::Rng;

/// Heavy-tailed flow size: Pareto with shape `alpha` and scale `x_m`,
/// truncated to `[1, cap]` and rounded.
fn pareto<R: Rng + ?Sized>(rng: &mut R, x_m: f64, alpha: f64, cap: f64) -> u64 {
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    (x_m / u.powf(1.0 / alpha)).min(cap).max(1.0) as u64
}

/// Log-normal flow size via Box–Muller, truncated to `[1, cap]`.
fn lognormal<R: Rng + ?Sized>(rng: &mut R, mu: f64, sigma: f64, cap: f64) -> u64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..std::f64::consts::TAU);
    let z = (-2.0 * u1.ln()).sqrt() * u2.cos();
    (mu + sigma * z).exp().min(cap).max(1.0) as u64
}

/// FB-1: Hadoop cluster — wide, near-all-to-all demand with heavy-tailed
/// sizes (Roy et al. report Hadoop traffic as widespread and not rack-local).
pub fn facebook_hadoop<R: Rng + ?Sized>(n: u32, rng: &mut R) -> DemandMatrix {
    let mut entries = Vec::new();
    for i in 0..n {
        for j in 0..n {
            if i != j && rng.gen_bool(0.6) {
                entries.push((i, j, lognormal(rng, 3.0, 2.2, 1e7)));
            }
        }
    }
    DemandMatrix::new(n, entries)
}

/// FB-2: front-end web cluster — most traffic heads to a small set of cache
/// nodes; the rest is sparse background chatter.
pub fn facebook_web<R: Rng + ?Sized>(n: u32, rng: &mut R) -> DemandMatrix {
    let n_hot = (n / 10).max(1);
    let mut entries = Vec::new();
    for i in 0..n {
        for h in 0..n_hot {
            // Hot destinations occupy the last ids.
            let j = n - 1 - h;
            if i != j {
                entries.push((i, j, pareto(rng, 500.0, 1.1, 1e7)));
            }
        }
        // Sparse light background.
        for j in 0..n {
            if i != j && j < n - n_hot && rng.gen_bool(0.03) {
                entries.push((i, j, pareto(rng, 10.0, 1.5, 1e4)));
            }
        }
    }
    DemandMatrix::new(n, entries)
}

/// FB-3: database cluster — dominated by locality within cells of ~10 nodes,
/// plus a few very large cross-cell flows.
pub fn facebook_database<R: Rng + ?Sized>(n: u32, rng: &mut R) -> DemandMatrix {
    let cell = 10u32;
    let mut entries = Vec::new();
    for i in 0..n {
        for j in 0..n {
            if i == j {
                continue;
            }
            let same_cell = i / cell == j / cell;
            if same_cell && rng.gen_bool(0.7) {
                entries.push((i, j, lognormal(rng, 5.0, 1.5, 1e7)));
            } else if !same_cell && rng.gen_bool(0.01) {
                entries.push((i, j, pareto(rng, 2000.0, 1.05, 1e7)));
            }
        }
    }
    DemandMatrix::new(n, entries)
}

/// MS: Microsoft heatmap — a handful of hot sources/sinks (dominant rows and
/// columns) over a sparse, block-structured background.
pub fn microsoft<R: Rng + ?Sized>(n: u32, rng: &mut R) -> DemandMatrix {
    let n_hot = (n / 20).max(1);
    let hot_rows: Vec<u32> = (0..n_hot).map(|_| rng.gen_range(0..n)).collect();
    let hot_cols: Vec<u32> = (0..n_hot).map(|_| rng.gen_range(0..n)).collect();
    let block = 8u32;
    let mut entries = Vec::new();
    for i in 0..n {
        for j in 0..n {
            if i == j {
                continue;
            }
            let hot = hot_rows.contains(&i) || hot_cols.contains(&j);
            let same_block = i / block == j / block;
            if hot && rng.gen_bool(0.5) {
                entries.push((i, j, pareto(rng, 3000.0, 1.1, 1e7)));
            } else if same_block && rng.gen_bool(0.4) {
                entries.push((i, j, lognormal(rng, 4.0, 1.5, 1e6)));
            } else if rng.gen_bool(0.005) {
                entries.push((i, j, pareto(rng, 5.0, 1.4, 1e4)));
            }
        }
    }
    DemandMatrix::new(n, entries)
}

/// The four Fig 6 workloads, by the paper's labels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// FB-1: Hadoop cluster.
    FbHadoop,
    /// FB-2: front-end web servers.
    FbWeb,
    /// FB-3: database cluster.
    FbDatabase,
    /// MS: Microsoft heatmap.
    Microsoft,
}

impl TraceKind {
    /// All four workloads in the paper's plotting order.
    pub const ALL: [TraceKind; 4] = [
        TraceKind::FbHadoop,
        TraceKind::FbWeb,
        TraceKind::FbDatabase,
        TraceKind::Microsoft,
    ];

    /// The paper's plot label.
    pub fn label(self) -> &'static str {
        match self {
            TraceKind::FbHadoop => "FB-1",
            TraceKind::FbWeb => "FB-2",
            TraceKind::FbDatabase => "FB-3",
            TraceKind::Microsoft => "MS",
        }
    }

    /// Generates a cluster-sized demand matrix of this kind.
    pub fn generate<R: Rng + ?Sized>(self, n: u32, rng: &mut R) -> DemandMatrix {
        match self {
            TraceKind::FbHadoop => facebook_hadoop(n, rng),
            TraceKind::FbWeb => facebook_web(n, rng),
            TraceKind::FbDatabase => facebook_database(n, rng),
            TraceKind::Microsoft => microsoft(n, rng),
        }
    }
}

/// The paper's post-processing: subsample `m` nodes and scale the largest
/// flow to the window `w`.
pub fn postprocess<R: Rng + ?Sized>(
    matrix: &DemandMatrix,
    m: u32,
    w: u64,
    rng: &mut R,
) -> DemandMatrix {
    matrix.subsample(m, rng).scale_max_to(w)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn gini(matrix: &DemandMatrix) -> f64 {
        // A crude dominance measure: share of total demand held by the top
        // 1% of entries.
        let mut sizes: Vec<u64> = matrix.entries.iter().map(|&(_, _, d)| d).collect();
        sizes.sort_unstable_by(|a, b| b.cmp(a));
        let total: u64 = sizes.iter().sum();
        let top = sizes.len().div_ceil(100);
        let top_sum: u64 = sizes.iter().take(top).sum();
        top_sum as f64 / total.max(1) as f64
    }

    #[test]
    fn all_kinds_generate_valid_matrices() {
        let mut rng = StdRng::seed_from_u64(1);
        for kind in TraceKind::ALL {
            let m = kind.generate(120, &mut rng);
            assert!(m.total() > 0, "{kind:?} is empty");
            for &(r, c, d) in &m.entries {
                assert!(r < 120 && c < 120 && r != c && d > 0);
            }
        }
    }

    #[test]
    fn traces_are_dominated_by_few_large_flows() {
        let mut rng = StdRng::seed_from_u64(2);
        for kind in [
            TraceKind::FbWeb,
            TraceKind::FbDatabase,
            TraceKind::Microsoft,
        ] {
            let m = kind.generate(120, &mut rng);
            assert!(
                gini(&m) > 0.1,
                "{kind:?}: top-1% share {} too uniform",
                gini(&m)
            );
        }
    }

    #[test]
    fn hadoop_is_widespread() {
        let mut rng = StdRng::seed_from_u64(3);
        let m = facebook_hadoop(100, &mut rng);
        // Most pairs communicate.
        assert!(m.entries.len() > 100 * 99 / 2);
    }

    #[test]
    fn web_concentrates_on_hot_set() {
        let mut rng = StdRng::seed_from_u64(4);
        let n = 100u32;
        let m = facebook_web(n, &mut rng);
        let cols = m.col_sums();
        let hot: u64 = cols[(n - 10) as usize..].iter().sum();
        let cold: u64 = cols[..(n - 10) as usize].iter().sum();
        assert!(hot > cold, "hot {hot} vs cold {cold}");
    }

    #[test]
    fn postprocess_caps_and_sizes() {
        let mut rng = StdRng::seed_from_u64(5);
        let m = microsoft(150, &mut rng);
        let p = postprocess(&m, 100, 10_000, &mut rng);
        assert_eq!(p.n, 100);
        assert_eq!(p.max_entry(), 10_000);
    }
}
