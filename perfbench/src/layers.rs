//! What the traced run shares across workloads: the traced greedy window
//! loop, the counters the spans cannot carry, and the one function that
//! turns spans and counters into the per-layer metrics.

use crate::measure::{Record, Samples, Tracer};
use octopus_core::{
    BipartiteFabric, CandidateExtension, OctopusConfig, SchedError, ScheduleEngine, SearchPolicy,
    TrafficSource,
};

/// One emitted configuration: the matching's links and its α.
pub type Config = (Vec<(u32, u32)>, u64);

/// Counts made where the work happens that spans do not already hold.
#[derive(Default)]
pub struct LayerCounts {
    /// Greedy iterations (`select` calls that returned a configuration).
    pub iterations: u64,
    /// α candidates offered to those selects.
    pub candidates: u64,
    /// Weighted matchings solved (`BestChoice::matchings_computed`).
    pub solves: u64,
    /// Interned links and live arena slots of the state at the end.
    pub interned_links: u64,
    pub arena_live: u64,
    /// Schedule-cache outcomes of the serve daemon's re-plans, with the
    /// re-plan latency of each outcome in ms.
    pub exact_hits: u64,
    pub near_hits: u64,
    pub misses: u64,
    pub replan_exact_ms: Samples,
    pub replan_near_ms: Samples,
    pub replan_miss_ms: Samples,
    /// Encoded reply bytes and replies.
    pub reply_bytes: u64,
    pub replies: u64,
}

/// The search policy and fabric of `cfg`, built as `octopus_on` builds them.
pub fn policy_of(cfg: &OctopusConfig) -> (BipartiteFabric, SearchPolicy) {
    (
        BipartiteFabric { kind: cfg.matching },
        SearchPolicy {
            search: cfg.alpha_search,
            parallel: cfg.parallel,
            prefer_larger_alpha: false,
            kernel: cfg.kernel,
        },
    )
}

/// The greedy select/commit loop of `octopus_on` (and of the schedule
/// cache's cold path) over `window` slots, with a span around each layer
/// call. Off the timed path it also enumerates the candidates and solves
/// the chosen α once more (`kernel.solve`) to price one solve. Returns the
/// configurations and the time spent off the path.
pub fn traced_window<S: TrafficSource + Sync>(
    t: &mut Tracer,
    req: u64,
    engine: &mut ScheduleEngine<S>,
    cfg: &OctopusConfig,
    window: u64,
    counts: &mut LayerCounts,
) -> Result<(Vec<Config>, f64), SchedError> {
    let (fabric, policy) = policy_of(cfg);
    let delta = engine.delta();
    let mut configs = Vec::new();
    let mut probe_s = 0.0;
    let mut used = 0u64;
    while !engine.is_drained() && used + delta < window {
        let budget = window - used - delta;
        let n = t.span("engine.candidates", req, |_| {
            engine.candidates(budget, CandidateExtension::None).len()
        });
        probe_s += t.last("engine.candidates").as_secs_f64();
        counts.candidates += n as u64;
        let Some(choice) = t.span("engine.select", req, |_| {
            engine.select(&fabric, budget, CandidateExtension::None, &policy)
        }) else {
            break;
        };
        counts.iterations += 1;
        counts.solves += choice.matchings_computed as u64;
        t.span("kernel.solve", req, |_| {
            engine.evaluate(&fabric, choice.alpha)
        });
        probe_s += t.last("kernel.solve").as_secs_f64();
        let matching = t.span("engine.commit", req, |_| {
            engine.commit(&fabric, &choice.matching, choice.alpha)
        })?;
        let links = matching.links().iter().map(|&(i, j)| (i.0, j.0)).collect();
        configs.push((links, choice.alpha));
        used += choice.alpha + delta;
    }
    Ok((configs, probe_s))
}

/// Every per-layer metric, derived the same way on every workload from the
/// spans and counters; a layer the workload bypasses reads 0.
pub fn per_layer(rec: &mut Record, t: &Tracer, c: &LayerCounts) {
    const MS: f64 = 1e-3;
    const US: f64 = 1e-6;
    let select = t.samples("engine.select", MS);
    let solve_ms = t.samples("kernel.solve", MS).pct(0.5);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };

    rec.layer(
        "traffic.generate_ms",
        t.samples("traffic.generate", MS).pct(0.5),
        "ms",
    );

    rec.layer(
        "state.build_ms",
        t.samples("state.build", MS).pct(0.5),
        "ms",
    );
    rec.layer(
        "state.snapshot_ms",
        t.samples("state.snapshot", MS).pct(0.5),
        "ms",
    );
    let admit = t.samples("state.admit", US);
    let cancel = t.samples("state.cancel", US);
    rec.layer("state.admit_us.p50", admit.pct(0.5), "us");
    rec.layer("state.admit_us.p99", admit.pct(0.99), "us");
    rec.layer("state.cancel_us.p50", cancel.pct(0.5), "us");
    rec.layer("state.cancel_us.p99", cancel.pct(0.99), "us");
    rec.layer("state.interned_links", c.interned_links as f64, "count");
    rec.layer("state.arena_live", c.arena_live as f64, "count");

    let iters = c.iterations as f64;
    let engine_allocs = t.allocs("engine.select") + t.allocs("engine.commit");
    rec.layer("engine.iterations", iters, "count");
    rec.layer("engine.candidates", c.candidates as f64, "count");
    rec.layer("engine.select_ms.p50", select.pct(0.5), "ms");
    rec.layer("engine.select_ms.p90", select.pct(0.9), "ms");
    rec.layer(
        "engine.commit_ms.total",
        t.samples("engine.commit", MS).sum(),
        "ms",
    );
    rec.layer(
        "engine.patch_us.p50",
        t.samples("engine.patch", US).pct(0.5),
        "us",
    );
    rec.layer(
        "engine.allocs_per_iter",
        ratio(engine_allocs as f64, iters),
        "count",
    );

    let solves = c.solves as f64;
    rec.layer("kernel.solves", solves, "count");
    rec.layer("kernel.solves_per_select", ratio(solves, iters), "count");
    rec.layer("kernel.solve_ms", solve_ms, "ms");
    rec.layer(
        "kernel.share_est",
        ratio(solves * solve_ms, select.sum()),
        "ratio",
    );

    let replans = (c.exact_hits + c.near_hits + c.misses) as f64;
    rec.layer("memo.exact_hits", c.exact_hits as f64, "count");
    rec.layer("memo.near_hits", c.near_hits as f64, "count");
    rec.layer("memo.misses", c.misses as f64, "count");
    rec.layer(
        "memo.hit_ratio",
        ratio((c.exact_hits + c.near_hits) as f64, replans),
        "ratio",
    );
    rec.layer("memo.replan_ms.exact.p50", c.replan_exact_ms.pct(0.5), "ms");
    rec.layer("memo.replan_ms.near.p50", c.replan_near_ms.pct(0.5), "ms");
    rec.layer("memo.replan_ms.miss.p50", c.replan_miss_ms.pct(0.5), "ms");

    let replan = t.samples("serve.replan", MS);
    let admits = t.samples("serve.admit", US);
    let cancels = t.samples("serve.cancel", US);
    let events = (admits.len() + cancels.len()) as f64;
    let event_allocs = (t.allocs("serve.admit") + t.allocs("serve.cancel")) as f64;
    rec.layer("serve.admit_us.p50", admits.pct(0.5), "us");
    rec.layer("serve.cancel_us.p50", cancels.pct(0.5), "us");
    rec.layer("serve.replan_ms.p50", replan.pct(0.5), "ms");
    rec.layer("serve.replan_ms.p95", replan.pct(0.95), "ms");
    rec.layer(
        "serve.allocs_per_event",
        ratio(event_allocs, events),
        "count",
    );

    rec.layer(
        "protocol.parse_us.p50",
        t.samples("protocol.parse", US).pct(0.5),
        "us",
    );
    rec.layer(
        "protocol.encode_us.p50",
        t.samples("protocol.encode", US).pct(0.5),
        "us",
    );
    rec.layer(
        "protocol.bytes_per_reply",
        ratio(c.reply_bytes as f64, c.replies as f64),
        "bytes",
    );
}
