//! Allocation budgets of the scheduling hot path, measured by a counting
//! global allocator.
//!
//! * A warm [`AssignmentSolver::solve_reweighted`] allocates nothing: once a
//!   column set has grown the workspace to its high-water mark, solving the
//!   same columns again allocates 0 times.
//! * Every [`ScheduleEngine::select`] of an `octopus()` window stays within
//!   `SELECT_BASE + SELECT_PER_SOLVE · solves` allocations, once the
//!   thread's kernel workspace has reached its high-water mark, so no
//!   allocation may ride on a per-candidate or per-phase path.
//! * Every [`ScheduleEngine::commit`] stays within
//!   `COMMIT_BASE + COMMIT_PER_DIRTY · dirty`, `dirty` being the number of
//!   links the commit re-derives (the snapshot's generation step).
//! * Every warm canonical `Arrival` and `Cancel` line through
//!   `octopus_serve::serve_lines` stays within `ARRIVAL_LINE` and
//!   `CANCEL_LINE`: the wire codec adds only the parsed route, and the
//!   admission only its `Route`.
//! * A fresh daemon that learns every link of complete n = 64 one
//!   admission at a time stays within `FRESH_LINK_ADMISSIONS` in total: a
//!   new link costs a lookup in the plan's link table, not a rebuild of it.
//!
//! The counter is a `const`-initialised thread local, so tests running in
//! parallel on other threads never mix into a count.

use octopus_mhs::core::engine::{BipartiteFabric, CandidateExtension, ScheduleEngine};
use octopus_mhs::core::{OctopusConfig, RemainingTraffic};
use octopus_mhs::matching::AssignmentSolver;
use octopus_mhs::net::topology;
use octopus_mhs::traffic::{synthetic, synthetic::SyntheticConfig};
use octopus_serve::{serve_lines, Event, ServeConfig, ServeState};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with` fails only while the thread is being torn down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` unchanged. The counter is a
// thread-local `Cell` with a const initialiser and no destructor, so
// touching it neither allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f` and returns its result with the allocations it made on this
/// thread (reallocations included).
fn counted<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

#[test]
fn warm_solve_allocates_nothing() {
    let n = 64u32;
    let edges: Vec<(u32, u32)> = (0..n).flat_map(|u| (0..n).map(move |v| (u, v))).collect();
    // Octopus-like columns: a few weight classes, so ties are common, and
    // some disabled (zero-weight) edges.
    let columns: Vec<Vec<f64>> = (0..5u64)
        .map(|k| {
            (0..edges.len() as u64)
                .map(|e| {
                    let h = (e * 2_654_435_761 + k * 40_503) >> 7;
                    (h % 9) as f64 / (1 + k % 3) as f64
                })
                .collect()
        })
        .collect();
    let mut solver = AssignmentSolver::new();
    solver.load_topology(n, n, &edges);
    let cold: Vec<u64> = columns
        .iter()
        .map(|w| counted(|| solver.solve_reweighted(w).len()).1)
        .collect();
    let warm: Vec<u64> = columns
        .iter()
        .map(|w| counted(|| solver.solve_reweighted(w).len()).1)
        .collect();
    assert!(
        warm.iter().all(|&a| a == 0),
        "warm re-solves allocated {warm:?} times (cold pass: {cold:?})"
    );
}

/// Plans one `octopus()` window (complete `n`, `paper_default`,
/// W = 10 000, Δ = 20) through `select`/`commit` and returns, per
/// iteration, `(solves, select allocations, dirty links, commit
/// allocations)`. The queue snapshot, a once-per-window cost, is built
/// before the loop.
fn window_allocations(n: u32) -> Vec<(u64, u64, u64, u64)> {
    let window = 10_000;
    let net = topology::complete(n);
    let mut rng = StdRng::seed_from_u64(1);
    let load = synthetic::generate(&SyntheticConfig::paper_default(n, window), &net, &mut rng);
    let cfg = OctopusConfig {
        window,
        delta: 20,
        ..OctopusConfig::default()
    };
    let mut tr = RemainingTraffic::new(&load, cfg.weighting).unwrap();
    let fabric = BipartiteFabric { kind: cfg.matching };
    let policy = cfg.search_policy();
    let mut engine = ScheduleEngine::new(&mut tr, n, cfg.delta);
    let mut generation = engine.queues().generation();
    let mut used = 0;
    let mut rows = Vec::new();
    while !engine.is_drained() && used + cfg.delta < window {
        let budget = window - used - cfg.delta;
        let (choice, select) =
            counted(|| engine.select(&fabric, budget, CandidateExtension::None, &policy));
        let Some(choice) = choice else { break };
        let (matching, commit) = counted(|| engine.commit(&fabric, &choice.matching, choice.alpha));
        matching.unwrap();
        let dirty = engine.queues().generation() - generation;
        generation += dirty;
        rows.push((choice.matchings_computed as u64, select, dirty, commit));
        used += choice.alpha + cfg.delta;
    }
    rows
}

/// Allocations a select may make besides its solves: the candidate list,
/// the weight sweep's edge, span and bonus arrays, the dual table, the
/// column block and the search's bookkeeping, each sized once per select
/// (at most 12 today at n = 32–128).
const SELECT_BASE: u64 = 22;
/// Allocations per solve: the evaluated candidate's matching, cloned out of
/// the kernel workspace (one today; the bound leaves one spare).
const SELECT_PER_SOLVE: u64 = 2;
/// Allocations a commit may make besides re-deriving its dirty links: the
/// realized matching it returns, nothing else. Its budget, candidate,
/// move, dirty-link and pair lists are buffers the engine and the plan
/// reuse, and the served-link check scans the budget list in place; the
/// buffers' growth on a window's first commits falls within the per-dirty
/// term.
const COMMIT_BASE: u64 = 1;
/// Allocations per dirty link: a link's `(weight, packets)` groups are read
/// into the engine's reused buffer and folded straight into the snapshot's
/// arena, so what is left per link is amortized growth of the plan's rows,
/// of the arena and, on a window's first commits, of the reused buffers
/// (at most 0.53 per dirty link over the base today at n = 32–128: 1–41
/// allocations per commit for 25–199 dirty links).
const COMMIT_PER_DIRTY: u64 = 1;

#[test]
fn select_and_commit_stay_within_budget() {
    for n in [32u32, 64, 128] {
        // The first window grows this thread's kernel workspace to its
        // high-water mark, a once-per-thread cost; the second, on the same
        // input, is measured.
        window_allocations(n);
        let rows = window_allocations(n);
        assert!(rows.len() > 1, "n = {n}: the window planned {rows:?}");
        for (it, &(solves, select, dirty, commit)) in rows.iter().enumerate() {
            assert!(
                select <= SELECT_BASE + SELECT_PER_SOLVE * solves,
                "n = {n}, iteration {it}: select made {select} allocations for {solves} \
                 solves; (solves, select, dirty, commit) per iteration: {rows:?}"
            );
            assert!(
                commit <= COMMIT_BASE + COMMIT_PER_DIRTY * dirty,
                "n = {n}, iteration {it}: commit made {commit} allocations for {dirty} \
                 dirty links; (solves, select, dirty, commit) per iteration: {rows:?}"
            );
        }
    }
}

/// A writer for `serve_lines` that drops the reply bytes and records this
/// thread's allocation count at every `flush`, i.e. after every reply.
struct FlushCounts(Vec<u64>);

impl std::io::Write for FlushCounts {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.0.push(ALLOCS.with(Cell::get));
        Ok(())
    }
}

/// Allocations per warm canonical `Arrival` line through `serve_lines`,
/// parse and reply included: the codec's parsed route `Vec` (the reply is
/// written into a buffer reused from line to line), `Route::from_ids`' node
/// list, and now and then amortized growth of the snapshot's arena (2 on
/// most lines today, 3 at most). Admission merges into the flow's live row
/// through one keyed probe of the flow-ID index, on the plan's reused
/// buffers, and the patch reuses the engine's.
const ARRIVAL_LINE: u64 = 3;
/// Allocations per warm canonical `Cancel` line: none. The flow's rows are
/// walked along the index's row chain, and the dirty-link and pair lists
/// are the engine's reused buffers. The codec makes none either.
const CANCEL_LINE: u64 = 0;

#[test]
fn event_lines_stay_within_budget() {
    let n = 16u32;
    let mut rng = StdRng::seed_from_u64(3);
    let mut events = Vec::new();
    for id in 0..200u64 {
        let hops = rng.gen_range(1..=3usize);
        let mut route = vec![rng.gen_range(0..n)];
        while route.len() <= hops {
            let next = rng.gen_range(0..n);
            if !route.contains(&next) {
                route.push(next);
            }
        }
        let size = rng.gen_range(1..=64u64);
        events.push(Event::Arrival { id, route, size });
        if id % 5 == 4 {
            events.push(Event::Cancel { id: id - 2 });
        }
    }
    let lines: String = events
        .iter()
        .map(|e| serde_json::to_string(e).unwrap() + "\n")
        .collect();
    let mut state = ServeState::new(topology::complete(n), ServeConfig::default()).unwrap();
    // The first pass interns every link and grows the plan state; the
    // second, on the same lines, is measured. A line's count runs from the
    // previous reply's flush to its own, so the first line is not counted.
    let flushes = || FlushCounts(Vec::with_capacity(events.len()));
    serve_lines(lines.as_bytes(), flushes(), &mut state).unwrap();
    let mut counts = flushes();
    serve_lines(lines.as_bytes(), &mut counts, &mut state).unwrap();
    assert_eq!(counts.0.len(), events.len());
    for (k, w) in counts.0.windows(2).enumerate() {
        let (allocs, event) = (w[1] - w[0], &events[k + 1]);
        let budget = match event {
            Event::Arrival { .. } => ARRIVAL_LINE,
            _ => CANCEL_LINE,
        };
        assert!(
            allocs <= budget,
            "line {}: {event:?} made {allocs} allocations (budget {budget})",
            k + 1
        );
    }
}

/// Allocations of the 4 032 admissions in
/// `fresh_link_admissions_stay_within_budget`, as measured: per admission
/// the `Route`'s node list and the first packet group of its link's row
/// (8 064), plus amortized (doubling) growth of the plan's flow, hop,
/// link and flow-ID tables and of each source's adjacency in the link
/// table. No admission rebuilds a table as long as every link interned
/// so far.
const FRESH_LINK_ADMISSIONS: u64 = 8_464;

#[test]
fn fresh_link_admissions_stay_within_budget() {
    // As a daemon's set-up does: one admission per directed link of the
    // fabric on a fresh `ServeState` (no snapshot built yet), each on a
    // link the plan has never seen.
    let n = 64u32;
    let mut state = ServeState::new(topology::complete(n), ServeConfig::default()).unwrap();
    let links: Vec<(u32, u32)> = (0..n)
        .flat_map(|i| (0..n).filter(move |&j| j != i).map(move |j| (i, j)))
        .collect();
    let ((), allocs) = counted(|| {
        for (id, &(i, j)) in links.iter().enumerate() {
            state.admit(id as u64, &[i, j], 1).unwrap();
        }
    });
    assert_eq!(state.stats().interned_links, 4_032);
    assert!(
        allocs <= FRESH_LINK_ADMISSIONS,
        "4 032 fresh-link admissions made {allocs} allocations (budget {FRESH_LINK_ADMISSIONS})"
    );
}
