//! Window-fingerprint schedule memoization with dual/price warm-starts.
//!
//! Production traffic is self-similar across re-planning windows (the
//! hybrid-switching literature's persistent-skew argument), yet every
//! re-plan historically cold-solved the full α × candidate grid. This
//! module caches *windows*: a deterministic [`WindowFingerprint`] of the
//! remaining-traffic state (per-port demand marginals, hop-length
//! histogram, skew/diversity stats, and the interned-key generation) keys a
//! bounded LRU [`ScheduleCache`] of previously emitted schedules.
//!
//! Three lookup outcomes, three cost profiles:
//!
//! * **Exact hit** — the content hash, interned-key generation, feature
//!   vector and planning context all match. The cached schedule is replayed
//!   outright through [`crate::ScheduleEngine::commit`]: zero matchings are
//!   solved. Replay is sound by construction: the greedy loop is a pure
//!   function of the queue-snapshot content (which the 128-bit FNV-1a hash
//!   covers class-by-class) and the planning knobs (hashed into the
//!   context), so an identical window provably re-derives the identical
//!   schedule.
//! * **Near hit** — the quantized feature vectors lie within
//!   [`CacheConfig::near_distance`] (L1). The window is re-planned, but
//!   each iteration is *warm-started* from the cached plan: the cached
//!   winner's α is evaluated first (its exact score floors the pruning cut
//!   immediately) and the cached kernel duals/prices tighten every
//!   candidate's upper bound through a weak-duality bound that is re-proved
//!   from scratch on the current weights — cached values are **re-verified,
//!   never trusted**. The cached prices are one dual source among several:
//!   the engine bounds candidates with the duals of its own solves too.
//!   Both seeds are pure pruning aids: the emitted schedule is
//!   bit-identical to a cold solve (the pruning cut is strict, the
//!   tie-break a strict total order, and a final exact solve certifies
//!   every winner), which `tests/proptest_cache_parity.rs` pins across all
//!   8 `SearchPolicy` variants × both kernels.
//! * **Miss** — cold solve, recording the emitted steps (and, with warm
//!   starts enabled, each winner's right-side duals, copied from the
//!   engine's table of solved duals at no extra solve) into a fresh cache
//!   entry.
//!
//! Mid-window admissions that intern new links bump the interned-key
//! generation ([`RemainingTraffic::interned_links`]), which is part of the
//! fingerprint — so a daemon backlog that *looks* identical after an
//! admit/cancel round-trip still misses the exact path, exactly as the
//! invalidation contract requires.

use crate::best_config::ExactKernel;
use crate::engine::{Fabric, ScheduleEngine, SearchPolicy, TrafficSource, WindowHooks, WindowRun};
use crate::state::{LinkQueues, RemainingTraffic};
use crate::AlphaSearch;
use crate::SchedError;
use std::borrow::Borrow;
use std::sync::OnceLock;

/// Slots of the remaining-hops histogram feature (counts past the last
/// slot clamp into it).
const HIST_LEN: usize = 8;

/// How `OCTOPUS_CACHE` overrides the compiled-in cache configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CacheMode {
    Off,
    Exact,
    Warm,
}

/// Schedule-cache knobs. The `OCTOPUS_CACHE` environment variable (read
/// once per process, applied by [`CacheConfig::resolved`]) overrides the
/// mode: `off`/`0`/`false` disables caching, `exact` allows exact-hit
/// replay only, `on`/`1`/`warm`/`true` enables near-hit warm-starts too.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Master switch; `false` makes [`plan_window_cached`] plan cold.
    pub enabled: bool,
    /// Warm-start near hits (and record each planned winner's duals/prices
    /// for later ones). With `false` the cache replays exact hits only.
    pub warm: bool,
    /// Bounded LRU capacity in entries.
    pub capacity: usize,
    /// Quantization step for the packet-count features (marginals and
    /// histogram slots are divided by this before comparison), so windows
    /// differing by less than a quantum per feature still match exactly in
    /// feature space.
    pub quantum: u64,
    /// Maximum L1 distance between quantized feature vectors for a near
    /// hit.
    pub near_distance: u64,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            enabled: true,
            warm: true,
            capacity: 32,
            quantum: 16,
            near_distance: 64,
        }
    }
}

impl CacheConfig {
    /// A configuration with the cache switched off entirely.
    pub fn disabled() -> Self {
        CacheConfig {
            enabled: false,
            ..CacheConfig::default()
        }
    }

    /// Parses an `OCTOPUS_CACHE` value (case-insensitive); `None` means
    /// unrecognized. Split out of [`CacheConfig::resolved`] so the accepted
    /// grammar is unit-testable without touching the process environment.
    pub(crate) fn parse_env(v: &str) -> Option<CacheMode> {
        match v.to_ascii_lowercase().as_str() {
            "off" | "0" | "false" => Some(CacheMode::Off),
            "exact" => Some(CacheMode::Exact),
            "on" | "1" | "warm" | "true" => Some(CacheMode::Warm),
            _ => None,
        }
    }

    /// This configuration with the `OCTOPUS_CACHE` environment override
    /// applied. Unrecognized variable values warn loudly on stderr (once —
    /// the variable is read exactly once per process) and are then ignored.
    pub fn resolved(self) -> Self {
        static ENV: OnceLock<Option<CacheMode>> = OnceLock::new();
        let mode = ENV.get_or_init(|| {
            let v = std::env::var("OCTOPUS_CACHE").ok()?;
            let parsed = CacheConfig::parse_env(&v);
            if parsed.is_none() {
                eprintln!(
                    "octopus: ignoring unrecognized OCTOPUS_CACHE={v:?} \
                     (accepted values: off/0/false, exact, on/1/warm/true)"
                );
            }
            parsed
        });
        match mode {
            Some(CacheMode::Off) => CacheConfig {
                enabled: false,
                ..self
            },
            Some(CacheMode::Exact) => CacheConfig {
                enabled: true,
                warm: false,
                ..self
            },
            Some(CacheMode::Warm) => CacheConfig {
                enabled: true,
                warm: true,
                ..self
            },
            None => self,
        }
    }

    /// The default configuration with `OCTOPUS_CACHE` applied.
    pub fn from_env() -> Self {
        Self::default().resolved()
    }
}

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

/// Deterministic fingerprint of one planning window: an exact content hash
/// over the live queue snapshot plus a quantized feature vector for
/// similarity search. See the module docs for what each part guards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowFingerprint {
    /// FNV-1a 128 over `n`, the interned-key generation and every live
    /// link's `(i, j)` and full weight-class list (weights by bit pattern).
    exact: u128,
    /// [`RemainingTraffic::interned_links`] at snapshot time — mid-window
    /// interning bumps this, forcing an exact miss even on identical queue
    /// content.
    keygen: u64,
    /// Quantized features: per-port out/in marginals, the remaining-hops
    /// histogram, then skew/diversity scalars (live links, weight-class
    /// slots, peak marginal).
    features: Vec<u32>,
}

impl WindowFingerprint {
    /// Fingerprints a queue snapshot. `hist` is the source's remaining-hops
    /// histogram ([`RemainingTraffic::remaining_hops_histogram`]), `keygen`
    /// its interned-key generation, `quantum` the feature quantization step.
    // lint:allow(hot-alloc) — amortized: fingerprint rows built once per cache lookup; two Vecs of O(links) per re-plan
    pub fn from_queues(queues: &LinkQueues, keygen: u64, hist: &[u64], quantum: u64) -> Self {
        let n = queues.n() as usize;
        let q = quantum.max(1);
        let quantize = |x: u64| (x / q).min(u64::from(u32::MAX)) as u32;
        let mut h = Fnv128::new();
        h.word(n as u64);
        h.word(keygen);
        let mut out_m = vec![0u64; n];
        let mut in_m = vec![0u64; n];
        let mut live_links = 0u64;
        let mut class_slots = 0u64;
        for (i, j) in queues.links() {
            let Some(queue) = queues.queue(i, j) else {
                continue;
            };
            h.word(u64::from(i));
            h.word(u64::from(j));
            for &(w, c) in queue.classes() {
                h.word(w.to_bits());
                h.word(c);
                class_slots += 1;
            }
            let tp = queue.total_packets();
            out_m[i as usize] += tp;
            in_m[j as usize] += tp;
            live_links += 1;
        }
        let peak = out_m.iter().chain(in_m.iter()).copied().max().unwrap_or(0);
        let mut features = Vec::with_capacity(2 * n + hist.len() + 3);
        features.extend(out_m.iter().map(|&m| quantize(m)));
        features.extend(in_m.iter().map(|&m| quantize(m)));
        features.extend(hist.iter().map(|&c| quantize(c)));
        features.push(live_links.min(u64::from(u32::MAX)) as u32);
        features.push(class_slots.min(u64::from(u32::MAX)) as u32);
        features.push(quantize(peak));
        WindowFingerprint {
            exact: h.0,
            keygen,
            features,
        }
    }

    /// Whether `other` matches exactly: same content hash, same interned-key
    /// generation, same quantized features.
    pub fn exact_matches(&self, other: &WindowFingerprint) -> bool {
        self.exact == other.exact && self.keygen == other.keygen && self.features == other.features
    }

    /// L1 distance between the quantized feature vectors ([`u64::MAX`] when
    /// the vectors are incomparable, e.g. different fabric sizes).
    pub fn distance(&self, other: &WindowFingerprint) -> u64 {
        if self.features.len() != other.features.len() {
            return u64::MAX;
        }
        self.features
            .iter()
            .zip(&other.features)
            .map(|(&a, &b)| u64::from(a.abs_diff(b)))
            .sum()
    }

    /// The interned-key generation captured at fingerprint time.
    pub fn keygen(&self) -> u64 {
        self.keygen
    }
}

/// One emitted configuration of a cached window plan, plus the dual prices
/// of its winning column (empty when warm-starts are off or the solve
/// carried no price signal).
#[derive(Debug, Clone)]
pub struct PlannedStep {
    /// The committed matching's links.
    pub links: Vec<(u32, u32)>,
    /// Its duration α.
    pub alpha: u64,
    /// Right-port dual prices `z ≥ 0` of the winning weight column — used
    /// only inside re-verified weak-duality bounds, never to seed a solve.
    pub prices: Vec<f64>,
}

/// Lifetime counters of one [`ScheduleCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups performed (one per cached planning call while enabled).
    pub lookups: u64,
    /// Windows replayed from an exact fingerprint match.
    pub exact_hits: u64,
    /// Windows re-planned with warm-start seeds from a near match.
    pub near_hits: u64,
    /// Windows planned cold.
    pub misses: u64,
    /// Entries written (misses and near hits both record fresh plans).
    pub insertions: u64,
    /// Entries evicted by the LRU bound.
    pub evictions: u64,
}

/// How one cached planning call resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// The cache is disabled; the window was planned cold and not recorded.
    Disabled,
    /// No usable entry; planned cold and recorded.
    Miss,
    /// Warm-started from an entry at this feature distance; recorded.
    NearHit(u64),
    /// Replayed a cached schedule without solving anything.
    ExactHit,
}

#[derive(Debug)]
struct CacheEntry {
    fp: WindowFingerprint,
    context: u64,
    plan: Vec<PlannedStep>,
    last_used: u64,
}

enum Lookup {
    Exact(usize),
    Near(usize, u64),
    Miss,
}

/// Bounded LRU cache of emitted window schedules keyed by
/// [`WindowFingerprint`] + planning-context hash. Linear scans over at most
/// [`CacheConfig::capacity`] entries keep every operation deterministic (no
/// hasher iteration order anywhere near a scheduling decision).
#[derive(Debug)]
pub struct ScheduleCache {
    cfg: CacheConfig,
    entries: Vec<CacheEntry>,
    tick: u64,
    stats: CacheStats,
}

impl ScheduleCache {
    /// Creates an empty cache under `cfg` (callers wanting the
    /// `OCTOPUS_CACHE` override pass `cfg.resolved()`).
    pub fn new(cfg: CacheConfig) -> Self {
        ScheduleCache {
            cfg,
            entries: Vec::new(),
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    /// Lifetime counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Cached entries currently held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Drops every entry (counters are kept).
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    fn touch(&mut self, i: usize) {
        self.tick += 1;
        self.entries[i].last_used = self.tick;
    }

    /// Finds the best entry for `fp` under `context`: an exact match wins;
    /// otherwise the nearest same-context entry within
    /// [`CacheConfig::near_distance`] (ties broken toward the more recently
    /// used, then the lower index — all deterministic).
    fn lookup(&self, fp: &WindowFingerprint, context: u64) -> Lookup {
        let mut near: Option<(u64, u64, usize)> = None;
        for (i, e) in self.entries.iter().enumerate() {
            if e.context != context {
                continue;
            }
            if e.fp.exact_matches(fp) {
                return Lookup::Exact(i);
            }
            let d = e.fp.distance(fp);
            if d > self.cfg.near_distance {
                continue;
            }
            let cand = (d, u64::MAX - e.last_used, i);
            if near.map_or(true, |best| cand < best) {
                near = Some(cand);
            }
        }
        match near {
            Some((d, _, i)) => Lookup::Near(i, d),
            None => Lookup::Miss,
        }
    }

    /// Records a freshly planned window, replacing an exact-duplicate entry
    /// in place or evicting the least-recently-used entry at capacity.
    fn insert(&mut self, fp: WindowFingerprint, context: u64, plan: Vec<PlannedStep>) {
        self.stats.insertions += 1;
        if let Some(i) = self
            .entries
            .iter()
            .position(|e| e.context == context && e.fp.exact_matches(&fp))
        {
            self.entries[i].plan = plan;
            self.touch(i);
            return;
        }
        if self.cfg.capacity == 0 {
            return;
        }
        if self.entries.len() >= self.cfg.capacity {
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
            fp,
            context,
            plan,
            last_used: self.tick,
        });
    }
}

/// Warm-start seeds for one [`crate::ScheduleEngine::select_seeded`] call,
/// both optional and both *pruning aids only* — they cannot change the
/// selected winner (see the module docs).
#[derive(Debug, Clone, Copy, Default)]
pub struct WarmSeed<'a> {
    /// The cached winner's α, evaluated first to floor the pruning cut.
    pub alpha: Option<u64>,
    /// Cached right-port dual prices `z ≥ 0`, folded into each candidate's
    /// upper bound through the re-verified weak-duality bound.
    pub prices: Option<&'a [f64]>,
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
    /// Matchings solved across the whole window (0 on an exact-hit replay;
    /// on warm starts, how much work the seeds could not prune away).
    pub matchings_computed: usize,
}

/// Hashes the planning knobs that select among schedules: search strategy,
/// tie preference, the exact kernel, window, Δ, and a caller salt for
/// anything beyond the policy (e.g. the fabric's matching kind).
/// `SearchPolicy::parallel` is deliberately excluded — parallel and
/// sequential searches return bit-identical winners, so their schedules are
/// interchangeable.
fn context_hash(policy: &SearchPolicy, window: u64, delta: u64, salt: u64) -> u64 {
    let mut h = Fnv128::new();
    h.word(match policy.search {
        AlphaSearch::Exhaustive => 0,
        AlphaSearch::Binary => 1,
    });
    h.word(u64::from(policy.prefer_larger_alpha));
    h.word(match policy.kernel {
        ExactKernel::Hungarian => 0,
        ExactKernel::Auction => 1,
    });
    h.word(window);
    h.word(delta);
    h.word(salt);
    h.0 as u64
}

/// Plans one window ([`ScheduleEngine::plan_window`] over `window` slots)
/// through `cache`: exact hits replay the cached schedule, near hits
/// warm-start the α-search, misses plan cold and record. The emitted
/// schedule is bit-identical to an uncached run of the same loop in every
/// case (see the module docs for why), so callers may flip caching on and
/// off freely.
///
/// # Errors
/// [`SchedError::Net`] when a commit fails to realize (with the shipped
/// kernels this is unreachable on cold paths; on an exact-hit replay it
/// would indicate a content-hash collision, which we surface rather than
/// mask).
// lint:allow(hot-alloc) — amortized: once per re-plan / cache miss on the serve path; the buffers are the cached plan itself
pub fn plan_window_cached<S, F>(
    engine: &mut ScheduleEngine<S>,
    fabric: &mut F,
    policy: &SearchPolicy,
    window: u64,
    cache: &mut ScheduleCache,
    salt: u64,
) -> Result<WindowPlan, SchedError>
where
    S: TrafficSource + Borrow<RemainingTraffic> + Sync,
    F: Fabric<S> + Sync,
{
    if !cache.cfg.enabled {
        let run = engine.plan_window(fabric, policy, window, &mut ())?;
        return Ok(WindowPlan {
            configs: planned_configs(&run),
            outcome: CacheOutcome::Disabled,
            matchings_computed: run.matchings_computed,
        });
    }
    cache.stats.lookups += 1;
    let quantum = cache.cfg.quantum;
    let (keygen, hist) = {
        let tr: &RemainingTraffic = engine.source().borrow();
        (
            tr.interned_links() as u64,
            tr.remaining_hops_histogram(HIST_LEN),
        )
    };
    let fp = WindowFingerprint::from_queues(engine.queues(), keygen, &hist, quantum);
    let context = context_hash(policy, window, engine.delta(), salt);
    let warm = cache.cfg.warm;
    match cache.lookup(&fp, context) {
        Lookup::Exact(i) => {
            cache.stats.exact_hits += 1;
            cache.touch(i);
            let plan: Vec<(Vec<(u32, u32)>, u64)> = cache.entries[i]
                .plan
                .iter()
                .map(|s| (s.links.clone(), s.alpha))
                .collect();
            let mut configs = Vec::with_capacity(plan.len());
            for (links, alpha) in plan {
                let matching = engine.commit(fabric, &links, alpha)?;
                fabric.committed(&links);
                let links: Vec<(u32, u32)> =
                    matching.links().iter().map(|&(i, j)| (i.0, j.0)).collect();
                configs.push((links, alpha));
            }
            Ok(WindowPlan {
                configs,
                outcome: CacheOutcome::ExactHit,
                matchings_computed: 0,
            })
        }
        Lookup::Near(i, distance) if warm => {
            cache.stats.near_hits += 1;
            cache.touch(i);
            let seed_plan = cache.entries[i].plan.clone();
            let mut hooks = CacheHooks {
                seeds: &seed_plan,
                harvest: true,
                prices: Vec::new(),
            };
            let run = engine.plan_window(fabric, policy, window, &mut hooks)?;
            let configs = planned_configs(&run);
            cache.insert(fp, context, planned_steps(&configs, &hooks.prices));
            Ok(WindowPlan {
                configs,
                outcome: CacheOutcome::NearHit(distance),
                matchings_computed: run.matchings_computed,
            })
        }
        _ => {
            cache.stats.misses += 1;
            let mut hooks = CacheHooks {
                seeds: &[],
                harvest: warm,
                prices: Vec::new(),
            };
            let run = engine.plan_window(fabric, policy, window, &mut hooks)?;
            let configs = planned_configs(&run);
            cache.insert(fp, context, planned_steps(&configs, &hooks.prices));
            Ok(WindowPlan {
                configs,
                outcome: CacheOutcome::Miss,
                matchings_computed: run.matchings_computed,
            })
        }
    }
}

/// The cache's [`WindowHooks`]: each iteration's search is seeded from the
/// same iteration of `seeds` (a near entry's plan), and with `harvest` set
/// the winning column's right-side duals are collected into `prices`, one
/// vector per iteration (empty when the kernel left none: the greedy
/// kernels, or an auction solve with no price signal).
struct CacheHooks<'a> {
    seeds: &'a [PlannedStep],
    harvest: bool,
    prices: Vec<Vec<f64>>,
}

impl<S: TrafficSource> WindowHooks<S> for CacheHooks<'_> {
    fn seed(&self, iter: usize) -> Option<WarmSeed<'_>> {
        self.seeds.get(iter).map(|s| WarmSeed {
            alpha: Some(s.alpha),
            prices: (!s.prices.is_empty()).then_some(s.prices.as_slice()),
        })
    }

    fn before_commit(&mut self, engine: &mut ScheduleEngine<S>, alpha: u64) {
        if self.harvest {
            self.prices
                .push(engine.solved_duals(alpha).unwrap_or_default());
        }
    }
}

/// The emitted window as `(links, α)` pairs.
// lint:allow(hot-alloc) — amortized: once per re-plan / cache miss on the serve path; the buffers are the cached plan itself
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

/// The cache entry for an emitted window: configuration `k` carries
/// `prices[k]`, or no prices past the end of `prices`.
// lint:allow(hot-alloc) — amortized: once per re-plan / cache miss on the serve path; the buffers are the cached plan itself
fn planned_steps(configs: &PlannedConfigs, prices: &[Vec<f64>]) -> Vec<PlannedStep> {
    configs
        .iter()
        .enumerate()
        .map(|(k, (links, alpha))| PlannedStep {
            links: links.clone(),
            alpha: *alpha,
            prices: prices.get(k).cloned().unwrap_or_default(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::LinkQueues;

    #[test]
    fn cache_env_grammar_is_strict() {
        for on in ["on", "1", "warm", "true", "WARM", "True"] {
            assert_eq!(CacheConfig::parse_env(on), Some(CacheMode::Warm), "{on:?}");
        }
        for off in ["off", "0", "false", "OFF"] {
            assert_eq!(CacheConfig::parse_env(off), Some(CacheMode::Off), "{off:?}");
        }
        assert_eq!(CacheConfig::parse_env("exact"), Some(CacheMode::Exact));
        for bad in ["", "yes", "2", "warm ", "on,exact"] {
            assert_eq!(
                CacheConfig::parse_env(bad),
                None,
                "{bad:?} must be rejected"
            );
        }
    }

    fn queues_a() -> LinkQueues {
        LinkQueues::from_weighted_counts(
            4,
            [((0, 1), 1.0, 100u64), ((0, 1), 0.5, 50), ((2, 3), 0.5, 80)],
        )
    }

    #[test]
    fn identical_snapshots_fingerprint_identically() {
        let hist = [10u64, 20, 0, 0, 0, 0, 0, 0];
        let a = WindowFingerprint::from_queues(&queues_a(), 3, &hist, 16);
        let b = WindowFingerprint::from_queues(&queues_a(), 3, &hist, 16);
        assert!(a.exact_matches(&b));
        assert_eq!(a.distance(&b), 0);
    }

    #[test]
    fn keygen_bump_misses_exactly_but_stays_near() {
        let hist = [10u64, 20, 0, 0, 0, 0, 0, 0];
        let a = WindowFingerprint::from_queues(&queues_a(), 3, &hist, 16);
        let b = WindowFingerprint::from_queues(&queues_a(), 5, &hist, 16);
        assert!(!a.exact_matches(&b));
        assert_eq!(a.distance(&b), 0, "features ignore the generation");
    }

    #[test]
    fn content_changes_move_the_features() {
        let hist = [10u64, 20, 0, 0, 0, 0, 0, 0];
        let a = WindowFingerprint::from_queues(&queues_a(), 3, &hist, 1);
        let other = LinkQueues::from_weighted_counts(
            4,
            [((0, 1), 1.0, 140u64), ((0, 1), 0.5, 50), ((2, 3), 0.5, 80)],
        );
        let b = WindowFingerprint::from_queues(&other, 3, &hist, 1);
        assert!(!a.exact_matches(&b));
        let d = a.distance(&b);
        assert!(d > 0 && d < u64::MAX);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let cfg = CacheConfig {
            capacity: 2,
            ..CacheConfig::default()
        };
        let mut cache = ScheduleCache::new(cfg);
        let hist = [1u64; 8];
        let fp = |gen: u64| WindowFingerprint::from_queues(&queues_a(), gen, &hist, 16);
        cache.insert(fp(1), 0, Vec::new());
        cache.insert(fp(2), 0, Vec::new());
        let Lookup::Exact(i) = cache.lookup(&fp(1), 0) else {
            unreachable!("gen-1 entry must hit exactly");
        };
        cache.touch(i);
        cache.insert(fp(3), 0, Vec::new()); // evicts gen-2 (gen-1 was touched)
        assert_eq!(cache.stats().evictions, 1);
        assert!(matches!(cache.lookup(&fp(1), 0), Lookup::Exact(_)));
        assert!(matches!(cache.lookup(&fp(3), 0), Lookup::Exact(_)));
    }

    #[test]
    fn context_separates_entries() {
        let mut cache = ScheduleCache::new(CacheConfig::default());
        let hist = [1u64; 8];
        let fp = WindowFingerprint::from_queues(&queues_a(), 1, &hist, 16);
        cache.insert(fp.clone(), 7, Vec::new());
        assert!(matches!(cache.lookup(&fp, 7), Lookup::Exact(_)));
        assert!(matches!(cache.lookup(&fp, 8), Lookup::Miss));
    }

    #[test]
    fn recorded_prices_equal_a_fresh_solve_of_each_winner() {
        use crate::engine::{BipartiteFabric, CandidateExtension};
        use crate::MatchingKind;
        use octopus_matching::{AssignmentSolver, AuctionSolver, WeightedBipartiteGraph};
        use octopus_traffic::{Flow, FlowId, HopWeighting, Route, TrafficLoad};

        let flow = |id, size, route: &[u32]| {
            Flow::single(FlowId(id), size, Route::from_ids(route.to_vec()).unwrap())
        };
        let load = TrafficLoad::new(vec![
            flow(1, 90, &[0, 1, 2]),
            flow(2, 40, &[3, 0, 1]),
            flow(3, 60, &[2, 1, 0]),
            flow(4, 25, &[1, 3]),
        ])
        .unwrap();
        let tr = RemainingTraffic::new(&load, HopWeighting::Uniform).unwrap();
        let (n, delta, window) = (4, 5, 400);
        let mut fabric = BipartiteFabric {
            kind: MatchingKind::Exact,
        };
        for kernel in [ExactKernel::Hungarian, ExactKernel::Auction] {
            let policy = SearchPolicy {
                kernel,
                ..SearchPolicy::exhaustive()
            };

            // Replay the window by hand, solving each winner's column afresh.
            let mut probe = ScheduleEngine::new(tr.clone(), n, delta);
            let mut want = Vec::new();
            let mut used = 0;
            while let Some(choice) = probe.select(
                &fabric,
                window - used - delta,
                CandidateExtension::None,
                &policy,
            ) {
                let g = WeightedBipartiteGraph::from_tuples(
                    n,
                    n,
                    probe.queues().weighted_edges(choice.alpha),
                );
                let mut z = Vec::new();
                if kernel == ExactKernel::Auction {
                    let mut solver = AuctionSolver::new();
                    solver.solve(&g);
                    solver.right_prices(&mut z);
                } else {
                    let mut solver = AssignmentSolver::new();
                    solver.solve(&g);
                    solver.right_duals(&mut z);
                }
                want.push(z);
                probe
                    .commit(&fabric, &choice.matching, choice.alpha)
                    .unwrap();
                used += choice.alpha + delta;
                if probe.is_drained() || used + delta >= window {
                    break;
                }
            }

            let mut engine = ScheduleEngine::new(tr.clone(), n, delta);
            let mut cache = ScheduleCache::new(CacheConfig::default());
            let plan = plan_window_cached(&mut engine, &mut fabric, &policy, window, &mut cache, 0)
                .unwrap();
            assert_eq!(plan.outcome, CacheOutcome::Miss);
            let got: Vec<Vec<u64>> = cache.entries[0]
                .plan
                .iter()
                .map(|s| s.prices.iter().map(|p| p.to_bits()).collect())
                .collect();
            let want: Vec<Vec<u64>> = want
                .iter()
                .map(|z| z.iter().map(|p| p.to_bits()).collect())
                .collect();
            assert!(want.len() > 1 && want.iter().all(|z| z.len() == n as usize));
            assert_eq!(got, want, "{kernel:?}");
        }
    }

    #[test]
    fn env_modes_parse() {
        // Only the compiled-in default is exercised here (the env override
        // is a process-global OnceLock; CI sweeps it via OCTOPUS_CACHE).
        let cfg = CacheConfig::default();
        assert!(cfg.enabled && cfg.warm);
        assert!(!CacheConfig::disabled().enabled);
    }
}
