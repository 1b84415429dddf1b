//! Exact-replay schedule memoization.
//!
//! Production traffic is self-similar across re-planning windows (the
//! hybrid-switching literature's persistent-skew argument): a daemon often
//! re-plans a backlog it has planned before. This module caches *windows*:
//! a bounded LRU [`ScheduleCache`] of emitted schedules, keyed by a 128-bit
//! FNV-1a hash of everything the greedy loop of
//! [`crate::ScheduleEngine::plan_window`] reads. Each cached planning call
//! has one of two outcomes:
//!
//! * **Exact hit** — the key matches a cached window, whose schedule is
//!   replayed through [`crate::ScheduleEngine::commit`] without solving a
//!   single matching.
//! * **Miss** — the window is planned cold and recorded.
//!
//! The key covers the planning context (search strategy, tie preference,
//! window, Δ and the bipartite fabric's matching kind), the fabric
//! size, and the traffic itself through [`RemainingTraffic::replay_key`]:
//! the interned-key generation, the hop weighting, and every waiting
//! sub-flow's position, hop count, packet count and remaining route suffix,
//! in packet-priority order. The per-link queues alone would not do: which
//! links a window serves after its first configuration depends on where
//! each served packet goes next, so two backlogs with equal queues but
//! different downstream routes plan different windows. With the whole
//! remaining route in the key, a replay is the plan a cold run would emit
//! (up to a 2⁻¹²⁸ hash collision). `tests/proptest_cache_parity.rs` pins
//! that both a miss and a replay emit the window of the executable spec
//! (`tests/spec/model.rs` in the root package), which plans every window
//! from scratch and caches nothing, and the root package's
//! `tests/daemon_spec.rs` does the same for the daemon's replayed
//! backlogs. Mid-window admissions that intern new links bump the
//! interned-key generation, so a backlog that *looks* identical after an
//! admit/cancel round-trip misses.

use crate::engine::{BipartiteFabric, ScheduleEngine, SearchPolicy, TrafficSource, WindowRun};
use crate::state::RemainingTraffic;
use crate::SchedError;
use crate::{AlphaSearch, MatchingKind};
use std::borrow::Borrow;

/// Windows a [`ScheduleCache`] holds before evicting the least recently
/// used.
const CAPACITY: usize = 32;

/// 128-bit FNV-1a, folded byte-by-byte over little-endian words — a
/// deterministic, dependency-free content hash (not cryptographic; a
/// collision would replay a wrong schedule, at ~2⁻¹²⁸ odds we accept).
struct Fnv128(u128);

impl Fnv128 {
    const OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
    const PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

    fn new() -> Self {
        Fnv128(Self::OFFSET)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u128::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }
}

/// Lifetime counters of one [`ScheduleCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Windows replayed from an exact key match.
    pub exact_hits: u64,
    /// Always 0: the cache has no near-hit tier any more. Kept until the
    /// benchmark, which still reads it, stops doing so.
    pub near_hits: u64,
    /// Windows planned cold and recorded.
    pub misses: u64,
    /// Entries evicted by the LRU bound.
    pub evictions: u64,
}

/// How one cached planning call resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// No entry under the window's key; planned cold and recorded.
    Miss,
    /// Replayed a cached schedule without solving anything.
    ExactHit,
}

#[derive(Debug)]
struct CacheEntry {
    key: u128,
    plan: PlannedConfigs,
    last_used: u64,
}

/// Bounded LRU cache of emitted window schedules, keyed by the hash
/// described in the module docs. Linear scans over at most 32 entries keep
/// every operation deterministic (no hasher iteration order anywhere near a
/// scheduling decision).
#[derive(Debug, Default)]
pub struct ScheduleCache {
    entries: Vec<CacheEntry>,
    tick: u64,
    stats: CacheStats,
}

impl ScheduleCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        ScheduleCache::default()
    }

    /// Lifetime counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// The entry under `key`, marked as just used.
    fn lookup(&mut self, key: u128) -> Option<&PlannedConfigs> {
        let i = self.entries.iter().position(|e| e.key == key)?;
        self.tick += 1;
        let entry = &mut self.entries[i];
        entry.last_used = self.tick;
        Some(&entry.plan)
    }

    /// Records a freshly planned window under a key the cache does not
    /// hold, evicting the least-recently-used entry at capacity.
    fn insert(&mut self, key: u128, plan: PlannedConfigs) {
        if self.entries.len() >= CAPACITY {
            if let Some(i) = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(i, _)| i)
            {
                self.entries.swap_remove(i);
                self.stats.evictions += 1;
            }
        }
        self.tick += 1;
        self.entries.push(CacheEntry {
            key,
            plan,
            last_used: self.tick,
        });
    }
}

/// The emitted window: one `(links, α)` configuration per greedy iteration.
pub type PlannedConfigs = Vec<(Vec<(u32, u32)>, u64)>;

/// The result of one cached window-planning call.
#[derive(Debug, Clone)]
pub struct WindowPlan {
    /// Emitted configurations in serve order: the committed matching's
    /// links plus its α.
    pub configs: PlannedConfigs,
    /// How the cache resolved this window.
    pub outcome: CacheOutcome,
    /// Matchings solved across the whole window (0 on an exact-hit replay).
    pub matchings_computed: usize,
}

/// The cache key of planning `window` slots from `traffic` on an `n`-node
/// bipartite fabric matched by `kind`: the planning knobs that select among
/// schedules (search strategy, tie preference, window, Δ, and the matching
/// kind with its bucket scale), then the traffic's
/// [`RemainingTraffic::replay_key`]. `SearchPolicy::parallel` selects
/// nothing, so it is not part of the key.
fn window_key(
    policy: &SearchPolicy,
    window: u64,
    delta: u64,
    kind: MatchingKind,
    n: u32,
    traffic: &RemainingTraffic,
) -> u128 {
    let mut h = Fnv128::new();
    h.word(match policy.search {
        AlphaSearch::Exhaustive => 0,
        AlphaSearch::Binary => 1,
    });
    h.word(u64::from(policy.prefer_larger_alpha));
    h.word(window);
    h.word(delta);
    match kind {
        MatchingKind::Exact => h.word(0),
        MatchingKind::GreedySort => h.word(1),
        MatchingKind::BucketGreedy { scale } => {
            h.word(2);
            h.word(scale);
        }
    }
    h.word(u64::from(n));
    traffic.replay_key(|w| h.word(w));
    h.0
}

/// Plans one window ([`ScheduleEngine::plan_window`] over `window` slots on
/// the bipartite `fabric`) through `cache`: an exact hit replays the cached
/// schedule, a miss plans cold and records. The emitted schedule is the
/// cold plan either way (see the module docs for why).
///
/// # Errors
/// [`SchedError::Net`] when a commit fails to realize (with the shipped
/// kernels this is unreachable on a miss; on an exact-hit replay it would
/// indicate a hash collision, which we surface rather than mask).
pub fn plan_window_cached<S>(
    engine: &mut ScheduleEngine<S>,
    fabric: &mut BipartiteFabric,
    policy: &SearchPolicy,
    window: u64,
    cache: &mut ScheduleCache,
) -> Result<WindowPlan, SchedError>
where
    S: TrafficSource + Borrow<RemainingTraffic>,
{
    let key = window_key(
        policy,
        window,
        engine.delta(),
        fabric.kind,
        engine.n(),
        engine.source().borrow(),
    );
    if let Some(plan) = cache.lookup(key).cloned() {
        cache.stats.exact_hits += 1;
        let mut configs = Vec::with_capacity(plan.len());
        for (links, alpha) in plan {
            let matching = engine.commit(fabric, &links, alpha)?;
            let links: Vec<(u32, u32)> =
                matching.links().iter().map(|&(i, j)| (i.0, j.0)).collect();
            configs.push((links, alpha));
        }
        return Ok(WindowPlan {
            configs,
            outcome: CacheOutcome::ExactHit,
            matchings_computed: 0,
        });
    }
    cache.stats.misses += 1;
    let run = engine.plan_window(fabric, policy, window)?;
    let configs = planned_configs(&run);
    cache.insert(key, configs.clone());
    Ok(WindowPlan {
        configs,
        outcome: CacheOutcome::Miss,
        matchings_computed: run.matchings_computed,
    })
}

/// The emitted window as `(links, α)` pairs.
fn planned_configs(run: &WindowRun) -> PlannedConfigs {
    run.schedule
        .configs()
        .iter()
        .map(|c| {
            let links = c
                .matching
                .links()
                .iter()
                .map(|&(i, j)| (i.0, j.0))
                .collect();
            (links, c.alpha)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut cache = ScheduleCache::new();
        for key in 0..CAPACITY as u128 {
            cache.insert(key, Vec::new());
        }
        assert!(cache.lookup(0).is_some());
        cache.insert(100, Vec::new()); // evicts key 1 (key 0 was touched)
        cache.insert(101, Vec::new()); // evicts key 2
        assert_eq!(cache.stats().evictions, 2);
        assert_eq!(cache.entries.len(), CAPACITY);
        assert!(cache.lookup(1).is_none() && cache.lookup(2).is_none());
        for key in [0, 3, 100, 101] {
            assert!(cache.lookup(key).is_some(), "key {key} must stay");
        }
    }

    #[test]
    fn context_separates_keys() {
        use crate::ScheduleEngine;
        use octopus_traffic::{Flow, FlowId, HopWeighting, Route, TrafficLoad};
        let load = TrafficLoad::new(vec![Flow::single(
            FlowId(1),
            10,
            Route::from_ids([0, 1, 2]).unwrap(),
        )])
        .unwrap();
        let tr = RemainingTraffic::new(&load, HopWeighting::Uniform).unwrap();
        let policy = SearchPolicy::exhaustive();
        let exact = MatchingKind::Exact;
        let key = window_key(&policy, 100, 5, exact, 4, &tr);
        assert_eq!(key, window_key(&policy, 100, 5, exact, 4, &tr));
        let binary = SearchPolicy {
            search: AlphaSearch::Binary,
            ..policy
        };
        let bucket = |scale| MatchingKind::BucketGreedy { scale };
        let others = [
            window_key(&binary, 100, 5, exact, 4, &tr),
            window_key(&policy, 101, 5, exact, 4, &tr),
            window_key(&policy, 100, 6, exact, 4, &tr),
            window_key(&policy, 100, 5, MatchingKind::GreedySort, 4, &tr),
            window_key(&policy, 100, 5, bucket(6), 4, &tr),
            window_key(&policy, 100, 5, exact, 5, &tr),
        ];
        assert!(others.iter().all(|&k| k != key));
        assert_ne!(
            window_key(&policy, 100, 5, bucket(6), 4, &tr),
            window_key(&policy, 100, 5, bucket(12), 4, &tr)
        );
        let parallel = SearchPolicy {
            parallel: true,
            ..policy
        };
        assert_eq!(key, window_key(&parallel, 100, 5, exact, 4, &tr));

        // One cache plans the same backlog under the exact kernel, then
        // under bucket greedy: the second window is planned, not replayed.
        let mut cache = ScheduleCache::new();
        for (kind, outcome) in [(exact, CacheOutcome::Miss), (bucket(6), CacheOutcome::Miss)] {
            let tr = RemainingTraffic::new(&load, HopWeighting::Uniform).unwrap();
            let mut engine = ScheduleEngine::new(tr, 4, 5);
            let mut fabric = BipartiteFabric { kind };
            let plan = plan_window_cached(&mut engine, &mut fabric, &policy, 100, &mut cache);
            assert_eq!(plan.unwrap().outcome, outcome, "{kind:?}");
        }
    }
}
