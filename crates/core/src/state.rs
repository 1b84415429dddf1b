//! Remaining-traffic bookkeeping `T^r` and the per-link queue snapshots that
//! the `g()`/`h()` functions of §4.1 are computed from.
//!
//! `T^r` represents the *planned* position of every packet after the
//! configurations chosen so far: a multiset of sub-flows
//! `(flow, position, count)` where `position` indexes the flow's route. The
//! scheduler never touches real packets — this is the controller-side
//! bookkeeping that makes the chosen schedule deterministic, thanks to the
//! fixed packet-prioritization rule (weight first, then flow ID, then the
//! order each `(flow id, route)` row was first admitted in).
//!
//! The multiset is stored *keyed by link*: a sub-flow at `(flow, position)`
//! waits on exactly one fabric link (`route.hop(position)`, routes never
//! revisit a node), so the row of link `(i, j)` holds everything queued on
//! `(i, j)`. That layout is what makes the incremental engine cheap —
//! applying a configuration touches only the links that lost or gained
//! packets, and [`RemainingTraffic::refresh_link`] can re-derive a single
//! link's queue without scanning the rest of the plan.
//!
//! # Cache-flat layout (no trees on the hot path)
//!
//! Both `T^r` and the [`LinkQueues`] snapshot are stored in sorted-vec /
//! arena form rather than `BTreeMap`s (see DESIGN.md §6):
//!
//! * every fabric link a route can cross is *interned* once under a stable
//!   dense `LinkId`, and each flow precomputes the `LinkId` of every hop.
//!   A cold load numbers its links in ascending key order; a link first
//!   seen mid-window (admitting a flow whose route crosses it,
//!   [`RemainingTraffic::admit_subflows`]) takes the next free id, and no
//!   stored id ever moves. Keys are found through `LinkTable`'s sorted
//!   per-source adjacency, the one key→id lookup, and every walk whose
//!   order can reach a schedule goes in key order:
//!   [`RemainingTraffic::subflows`] through that adjacency, the snapshot's
//!   sweep by sorting its live links when their ids are out of key order;
//! * `T^r` keeps one flat row `Vec<((flow index, position), count)>` per
//!   `LinkId`, sorted by `(flow index, position)`; walked in link-key order,
//!   the rows visit sub-flows in the same total order the old per-link
//!   `BTreeMap` iterated in, so schedules are bit-identical by construction;
//! * [`LinkQueues`] is an arena indexed by the same `LinkId`s: per id a key,
//!   an `(offset, len)` span and a live bit, and three contiguous arenas
//!   holding the weight classes and their prefix sums. Patching a link
//!   rewrites its span in place (or appends and later compacts).
//!
//! Determinism note (enforced by `clippy::iter_over_hash_type`,
//! `clippy::disallowed_methods` and `clippy::disallowed_types`): everything
//! that is ever *iterated* on a scheduling path walks these sorted vecs, the
//! link table's sorted index or the snapshot's live links in key order, so
//! iteration order is a fixed total order independent of hasher seeds and
//! of the order links were interned in.
//! `HashMap` remains only for pure point lookups (`from_subflows`' dedup
//! index and the lazy flow-ID index that admissions, cancellations and
//! chained commits look rows up through), which cannot observe iteration
//! order.
//!
//! # The event path: one keyed probe, no allocation
//!
//! The flow-ID index maps an ID to its *first* row only, under std's keyed
//! `RandomState` (flow IDs come from clients, and a fixed hash would let a
//! client force collisions); each row links to the next row with the same
//! ID, in admission order. Admitting a sub-flow is one `entry` probe, which
//! either finds the ID's chain (walked for the row whose route matches, or
//! extended by a new row) or claims the ID for a new row; a cancellation is
//! one `get` probe and a walk of the chain. Admissions and commits refill
//! buffers this struct keeps, and report the `LinkId`s they dirtied into a
//! list the caller owns ([`crate::ScheduleEngine::update_source`] hands in the
//! engine's), so once the buffers have grown, an admission that merges into
//! a live row, a cancellation and a commit allocate nothing here. A new
//! row's hops are looked up in the link table as they are filed, and a hop
//! on a link never seen before is interned right there: one key and one
//! row appended, one entry inserted into its source's adjacency. Nothing
//! already stored is renumbered, so a new link costs at most a memmove of
//! one node's adjacency (and of the source list, for a new source), never
//! a pass over every interned link.

use crate::engine::TrafficSource;
use crate::SchedError;
use octopus_net::NodeId;
use octopus_traffic::{FlowId, HopWeighting, Route, TrafficLoad, Weight};
use std::cell::Cell;
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// One waiting packet group as seen by a link queue: weight, flow ID (the
/// tie-breaker), flow index, route position, packet count.
type QueueEntry = (Weight, FlowId, u32, u32, u64);

/// Metadata of one (single-route) flow.
#[derive(Debug, Clone)]
struct FlowMeta {
    id: FlowId,
    route: Route,
    hops: u32,
    /// Offset of this flow's per-hop `LinkId`s in
    /// [`RemainingTraffic::flow_links`].
    link_off: u32,
}

/// End of a flow ID's row chain in [`FlowIndex::next_same`].
const NO_ROW: u32 = u32::MAX;

/// The flow-ID index of the streaming entry points. Point lookups only —
/// never iterated on a scheduling path, so hasher order cannot leak into
/// schedules.
#[derive(Debug, Clone)]
struct FlowIndex {
    /// Flow ID → its first row (index into `flows`).
    first: HashMap<FlowId, u32>,
    /// Per row: the next row with the same flow ID, in admission order, or
    /// [`NO_ROW`]. As long as `flows`.
    next_same: Vec<u32>,
}

impl FlowIndex {
    /// The index over `flows`, built on first use. Admissions keep it
    /// current afterwards; nothing else adds rows, so once built it never
    /// goes stale.
    fn ensure<'a>(index: &'a mut Option<FlowIndex>, flows: &[FlowMeta]) -> &'a mut FlowIndex {
        index.get_or_insert_with(|| {
            let mut first = HashMap::with_capacity(flows.len());
            let mut next_same = vec![NO_ROW; flows.len()];
            // Backwards, so each row links to the next later row of its ID.
            for (fi, m) in flows.iter().enumerate().rev() {
                next_same[fi] = first.insert(m.id, fi as u32).unwrap_or(NO_ROW);
            }
            FlowIndex { first, next_same }
        })
    }

    /// The rows of `id`, in admission order.
    fn rows_of(&self, id: FlowId) -> impl Iterator<Item = u32> + '_ {
        let mut next = self.first.get(&id).copied().unwrap_or(NO_ROW);
        std::iter::from_fn(move || {
            let fi = next;
            (fi != NO_ROW).then(|| {
                next = self.next_same[fi as usize];
                fi
            })
        })
    }
}

/// Buffers that admissions and commits refill on every call, kept so that
/// the event path stops allocating once they have grown. Their contents are
/// meaningless between calls.
#[derive(Debug, Clone, Default)]
struct Scratch {
    /// Admission: the batch's non-empty sub-flows.
    incoming: Vec<(FlowId, Route, u32, u64)>,
    /// Admission: `(row, position, count)` of every incoming sub-flow.
    staged: Vec<(u32, u32, u64)>,
    /// Commit: one served link's waiting groups.
    cands: Vec<QueueEntry>,
    /// Commit: the last apply's `(row, from-position, count, hop weight)`
    /// movements, in serve order.
    moves: Vec<(u32, u32, u64, f64)>,
}

/// The directed fabric link a route's `pos`-th hop crosses.
fn link_of(route: &Route, pos: u32) -> (u32, u32) {
    let (i, j) = route.hop(pos);
    (i.0, j.0)
}

/// Every link any route can cross, each under a stable dense `LinkId`,
/// with a sorted index over the keys. Grows on mid-window admission, one
/// key at a time; never shrinks, and never renumbers a link.
///
/// The index is the sorted list of distinct source nodes, each with its
/// `(destination, LinkId)` adjacency sorted by destination: a lookup is two
/// short binary searches, an insertion a memmove of one source's adjacency
/// (and, for a source never seen before, of the source list), and nothing
/// is sized by a node ID, which clients choose.
#[derive(Debug, Clone, Default)]
struct LinkTable {
    /// Per `LinkId`: its `(source, destination)` key.
    keys: Vec<(u32, u32)>,
    /// Distinct source nodes, ascending.
    sources: Vec<u32>,
    /// Per entry of `sources`: `(destination, LinkId)`, ascending.
    adjacency: Vec<Vec<(u32, u32)>>,
}

impl LinkTable {
    /// Links interned so far.
    fn len(&self) -> usize {
        self.keys.len()
    }

    /// The `LinkId` of `link`, if interned.
    fn id(&self, (i, j): (u32, u32)) -> Option<usize> {
        let adj = &self.adjacency[self.sources.binary_search(&i).ok()?];
        let d = adj.binary_search_by_key(&j, |&(dst, _)| dst).ok()?;
        Some(adj[d].1 as usize)
    }

    /// The `LinkId` of `link`, interning it under the next free id if new.
    fn intern(&mut self, (i, j): (u32, u32)) -> u32 {
        let s = self.sources.binary_search(&i).unwrap_or_else(|s| {
            self.sources.insert(s, i);
            self.adjacency.insert(s, Vec::new());
            s
        });
        let adj = &mut self.adjacency[s];
        match adj.binary_search_by_key(&j, |&(dst, _)| dst) {
            Ok(d) => adj[d].1,
            Err(d) => {
                let li = self.keys.len() as u32;
                adj.insert(d, (j, li));
                self.keys.push((i, j));
                li
            }
        }
    }

    /// Every `LinkId`, in ascending key order.
    fn in_key_order(&self) -> impl Iterator<Item = usize> + '_ {
        self.adjacency.iter().flatten().map(|&(_, li)| li as usize)
    }
}

/// The remaining traffic `T^r` for single-route loads.
#[derive(Debug, Clone)]
pub struct RemainingTraffic {
    flows: Vec<FlowMeta>,
    /// Interned `LinkId` of every flow's every hop, flow-major; flow `fi`'s
    /// hop `pos` lives at `flow_links[flows[fi].link_off + pos]`.
    flow_links: Vec<u32>,
    /// Every link any route can cross, under its stable `LinkId`. Every
    /// link walk that can reach a schedule goes through its key order.
    links: LinkTable,
    /// Per `LinkId`: `((flow index, position), packets)` planned to sit at
    /// `route[position]`, waiting to cross this link. Sorted by
    /// `(flow index, position)`; as long as `links`.
    rows: Vec<Vec<((u32, u32), u64)>>,
    weighting: HopWeighting,
    delivered: u64,
    total: u64,
    psi: f64,
    /// Lazy flow-ID index for the streaming entry points (admit, cancel,
    /// chained commits). Built on first use; `None` for pure batch runs.
    index: Option<FlowIndex>,
    scratch: Scratch,
}

impl RemainingTraffic {
    /// Interns the union of all route hops, numbering the links in
    /// ascending key order: returns the link table and the flow-major
    /// per-hop `LinkId` table, setting each flow's `link_off`.
    fn intern(flows: &mut [FlowMeta]) -> (LinkTable, Vec<u32>) {
        let total_hops: usize = flows.iter().map(|m| m.hops as usize).sum();
        let mut keys: Vec<(u32, u32)> = Vec::with_capacity(total_hops);
        for m in flows.iter() {
            for pos in 0..m.hops {
                keys.push(link_of(&m.route, pos));
            }
        }
        keys.sort_unstable();
        keys.dedup();
        let mut links = LinkTable::default();
        for &link in &keys {
            links.intern(link);
        }
        let mut flow_links = Vec::with_capacity(total_hops);
        for m in flows.iter_mut() {
            m.link_off = flow_links.len() as u32;
            for pos in 0..m.hops {
                flow_links.push(links.intern(link_of(&m.route, pos)));
            }
        }
        (links, flow_links)
    }

    /// Initializes `T^r = T` for a single-route load.
    pub fn new(load: &TrafficLoad, weighting: HopWeighting) -> Result<Self, SchedError> {
        let mut flows = Vec::with_capacity(load.len());
        for f in load.flows() {
            if f.routes.len() != 1 {
                return Err(SchedError::MultiRouteFlow(f.id));
            }
            let route = f.routes[0].clone();
            let hops = route.hops();
            flows.push(FlowMeta {
                id: f.id,
                route,
                hops,
                link_off: 0,
            });
        }
        let (links, flow_links) = Self::intern(&mut flows);
        let rows = vec![Vec::new(); links.len()];
        let mut tr = RemainingTraffic {
            flows,
            flow_links,
            links,
            rows,
            weighting,
            delivered: 0,
            total: load.total_packets(),
            psi: 0.0,
            index: None,
            scratch: Scratch::default(),
        };
        for (fi, f) in load.flows().iter().enumerate() {
            if f.size > 0 {
                tr.add(fi as u32, 0, f.size);
            }
        }
        Ok(tr)
    }

    /// Builds `T^r` directly from mid-route sub-flows `(flow id, full
    /// route, current position, count)` — the entry point for multi-window
    /// (online) operation, where packets left over from the previous window
    /// "can be considered for continued routing in the next time window"
    /// (§4). Weights stay tied to the *original* route length.
    ///
    /// Entries sharing `(flow id, route)` are merged per position; flow IDs
    /// shared across different routes are allowed (they arise from
    /// Octopus+ splits) but each (id, route) pair gets its own bookkeeping
    /// row.
    pub fn from_subflows(
        subflows: impl IntoIterator<Item = (FlowId, Route, u32, u64)>,
        weighting: HopWeighting,
    ) -> Self {
        let mut flows: Vec<FlowMeta> = Vec::new();
        let mut index: HashMap<(FlowId, Route), u32> = HashMap::new();
        let mut staged: Vec<(u32, u32, u64)> = Vec::new();
        let mut total = 0u64;
        for (id, route, pos, count) in subflows {
            if count == 0 {
                continue;
            }
            let hops = route.hops();
            assert!(pos < hops, "sub-flow position {pos} beyond route end");
            let fi = *index.entry((id, route.clone())).or_insert_with(|| {
                flows.push(FlowMeta {
                    id,
                    route,
                    hops,
                    link_off: 0,
                });
                (flows.len() - 1) as u32
            });
            staged.push((fi, pos, count));
            total += count;
        }
        let (links, flow_links) = Self::intern(&mut flows);
        let rows = vec![Vec::new(); links.len()];
        let mut tr = RemainingTraffic {
            flows,
            flow_links,
            links,
            rows,
            weighting,
            delivered: 0,
            total,
            psi: 0.0,
            index: None,
            scratch: Scratch::default(),
        };
        for (fi, pos, count) in staged {
            tr.add(fi, pos, count);
        }
        tr
    }

    /// Packets not yet (planned) delivered.
    pub fn remaining_packets(&self) -> u64 {
        self.total - self.delivered
    }

    /// Packets planned to reach their destination so far.
    pub fn planned_delivered(&self) -> u64 {
        self.delivered
    }

    /// The ψ value accumulated by the plan so far.
    pub fn planned_psi(&self) -> f64 {
        self.psi
    }

    /// Starts a new planning horizon over the waiting packets: ψ and the
    /// delivered count restart at zero and delivered packets leave the
    /// total, exactly as if `T^r` were rebuilt cold from
    /// [`RemainingTraffic::subflows`] — so the next horizon's figures are
    /// summed in the same floating-point order as on a rebuilt plan.
    pub fn reset_planned(&mut self) {
        self.total -= self.delivered;
        self.delivered = 0;
        self.psi = 0.0;
    }

    /// Whether every packet has (planned to) come home.
    pub fn is_drained(&self) -> bool {
        self.remaining_packets() == 0
    }

    /// The hop-weighting in force.
    pub fn weighting(&self) -> HopWeighting {
        self.weighting
    }

    /// Links interned into the link table so far. Seeded at load, grows on
    /// [`RemainingTraffic::admit_subflows`]; never shrinks.
    pub fn interned_links(&self) -> usize {
        self.links.len()
    }

    /// Feeds `word` everything about this plan that the greedy window loop
    /// reads, so two plans feeding the same words plan the same window: the
    /// interned-key generation, the hop weighting, and every waiting
    /// sub-flow in packet-priority tie-break order (flow ID, then row) as
    /// its position, hop count, packet count and remaining route suffix.
    /// Flow IDs themselves are left out, since only their order can steer a
    /// plan. The key of the schedule cache ([`crate::memo`]).
    pub fn replay_key(&self, mut word: impl FnMut(u64)) {
        word(self.links.len() as u64);
        match self.weighting {
            HopWeighting::Uniform => word(0),
            HopWeighting::EpsilonLater { eps } => {
                word(1);
                word(eps.to_bits());
            }
        }
        let mut waiting: Vec<(FlowId, u32, u32, u64)> = self
            .rows
            .iter()
            .flatten()
            .map(|&((fi, pos), count)| (self.flows[fi as usize].id, fi, pos, count))
            .collect();
        waiting.sort_unstable();
        for (_, fi, pos, count) in waiting {
            let meta = &self.flows[fi as usize];
            word(u64::from(pos));
            word(u64::from(meta.hops));
            word(count);
            for node in &meta.route.nodes()[pos as usize..] {
                word(u64::from(node.0));
            }
        }
    }

    /// The interned `LinkId` of `(fi, pos)`'s waiting link.
    fn link_id(&self, fi: u32, pos: u32) -> u32 {
        self.flow_links[self.flows[fi as usize].link_off as usize + pos as usize]
    }

    /// Adds packets at `(fi, pos)`, filing them under their waiting link.
    fn add(&mut self, fi: u32, pos: u32, count: u64) {
        if count == 0 {
            return;
        }
        let row = &mut self.rows
            [self.flow_links[self.flows[fi as usize].link_off as usize + pos as usize] as usize];
        match row.binary_search_by_key(&(fi, pos), |e| e.0) {
            Ok(k) => row[k].1 += count,
            Err(k) => row.insert(k, ((fi, pos), count)),
        }
    }

    /// Removes packets from `(fi, pos)`, dropping empty bookkeeping rows.
    fn sub(&mut self, fi: u32, pos: u32, count: u64) {
        let li = self.link_id(fi, pos) as usize;
        let row = &mut self.rows[li];
        let Ok(k) = row.binary_search_by_key(&(fi, pos), |e| e.0) else {
            debug_assert!(false, "packets wait at ({fi}, {pos})");
            return;
        };
        debug_assert!(row[k].1 >= count);
        row[k].1 -= count;
        if row[k].1 == 0 {
            row.remove(k);
        }
    }

    /// The `(weight, packets)` groups of `LinkId` `li`'s row.
    fn row_pairs(&self, li: usize) -> impl Iterator<Item = (f64, u64)> + '_ {
        self.rows[li].iter().map(|&((fi, pos), count)| {
            let meta = &self.flows[fi as usize];
            debug_assert!(pos < meta.hops, "delivered packets leave the rows");
            (self.weighting.hop_weight(meta.hops, pos).value(), count)
        })
    }

    /// Fills `out` with the queue entries currently waiting on `link`
    /// (empty when none do), reusing its allocation.
    fn entries_on(&self, link: (u32, u32), out: &mut Vec<QueueEntry>) {
        out.clear();
        let Some(li) = self.links.id(link) else {
            return;
        };
        out.extend(self.rows[li].iter().map(|&((fi, pos), count)| {
            let meta = &self.flows[fi as usize];
            debug_assert!(pos < meta.hops, "delivered packets leave the rows");
            (
                self.weighting.hop_weight(meta.hops, pos),
                meta.id,
                fi,
                pos,
                count,
            )
        }));
    }

    /// Builds the per-link queue snapshot used to compute `g`, `h` and the
    /// candidate α set for the current iteration
    /// ([`LinkQueues::from_source`]): the snapshot numbers every link as the
    /// plan does (those nothing queues on yet as tombstones).
    pub fn link_queues(&self, n: u32) -> LinkQueues {
        LinkQueues::from_source(self, n)
    }

    /// The `LinkId` of `link`, if interned.
    pub(crate) fn link_id_of(&self, link: (u32, u32)) -> Option<u32> {
        self.links.id(link).map(|li| li as u32)
    }

    /// Applies a chosen configuration `(M, α)` to the plan: on every link of
    /// `M`, the top-α waiting packets (by weight, then flow ID, then the
    /// order in which their `(flow id, route)` row was first admitted)
    /// advance one hop. Returns the benefit actually realized (the
    /// configuration's contribution to ψ).
    pub fn apply(&mut self, links: &[(NodeId, NodeId)], alpha: u64) -> f64 {
        let with_budgets: Vec<(NodeId, NodeId, u64)> =
            links.iter().map(|&(i, j)| (i, j, alpha)).collect();
        self.apply_budgets(&with_budgets)
    }

    /// Like [`RemainingTraffic::apply`], but with a per-link slot budget —
    /// used by the localized-reconfiguration extension, where links that
    /// persist from the previous configuration also serve during the Δ
    /// transition and thus get `α + Δ` slots.
    ///
    /// Each link serves its waiting packets by weight (heaviest first), then
    /// flow ID (lowest first), then the first admission of their
    /// `(flow id, route)` row: the row index, which a cancellation keeps
    /// and a re-admission of the same row reuses, so one ID's rows on one
    /// link keep the order they were first admitted in.
    pub fn apply_budgets(&mut self, links: &[(NodeId, NodeId, u64)]) -> f64 {
        // Movements are collected first so that chained links inside one
        // matching (e.g. (d,a) and (a,b)) do not let a packet traverse two
        // hops in one configuration — §4's bookkeeping moves each packet at
        // most one hop per configuration.
        let mut moves = std::mem::take(&mut self.scratch.moves);
        let mut cands = std::mem::take(&mut self.scratch.cands);
        moves.clear();
        // A link listed twice is served once, at its first occurrence.
        // Kernel matchings list their links in ascending order, which rules
        // a repeat out at once; any other list (a K-port union, a caller's
        // budgets) is scanned, over at most the `n · r` links of one
        // configuration.
        let ascending = links
            .windows(2)
            .all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1));
        for (k, &(i, j, link_budget)) in links.iter().enumerate() {
            if !ascending && links[..k].iter().any(|&(a, b, _)| (a, b) == (i, j)) {
                continue;
            }
            self.entries_on((i.0, j.0), &mut cands);
            cands.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
            let mut budget = link_budget;
            for &(w, _, fi, pos, count) in &cands {
                if budget == 0 {
                    break;
                }
                let take = count.min(budget);
                budget -= take;
                moves.push((fi, pos, take, w.value()));
            }
        }
        let mut gained = 0.0;
        for &(fi, pos, take, w) in &moves {
            self.sub(fi, pos, take);
            let hops = self.flows[fi as usize].hops;
            let new_pos = pos + 1;
            if new_pos == hops {
                self.delivered += take;
            } else {
                self.add(fi, new_pos, take);
            }
            gained += w * take as f64;
        }
        self.psi += gained;
        self.scratch.moves = moves;
        self.scratch.cands = cands;
        gained
    }

    /// Snapshot of the current sub-flows as `(flow id, route, position,
    /// count)` tuples, sorted deterministically: by flow ID and position,
    /// ties (one ID on several routes at one position) in link-key order,
    /// then row order. Used by the chain-aware configuration selection of
    /// §5 (Theorem 2).
    pub fn subflows(&self) -> Vec<(FlowId, Route, u32, u64)> {
        let mut v: Vec<(FlowId, Route, u32, u64)> = self
            .links
            .in_key_order()
            .flat_map(|li| self.rows[li].iter())
            .filter(|&&(_, c)| c > 0)
            .map(|&((fi, pos), count)| {
                let meta = &self.flows[fi as usize];
                (meta.id, meta.route.clone(), pos, count)
            })
            .collect();
        v.sort_by_key(|e| (e.0, e.2));
        v
    }

    /// Advances the plan by *chained* movements `(flow, route, from-position,
    /// hops-advanced, count)` — a packet may cross several hops in one
    /// configuration here (§5). Each movement applies to the `(flow,
    /// route)` row, found through the flow-ID index. ψ gains the weight of
    /// every traversed hop. Appends to `dirty` the `LinkId`s whose queues
    /// changed (origin and landing links; intermediate hops hold no packets
    /// before or after), leaving it sorted and deduplicated: run it through
    /// [`crate::ScheduleEngine::update_source`].
    pub(crate) fn advance_chained(
        &mut self,
        moves: &[(FlowId, Route, u32, u32, u64)],
        dirty: &mut Vec<u32>,
    ) {
        for &(id, ref route, pos, advanced, count) in moves {
            debug_assert!(advanced > 0);
            let index = FlowIndex::ensure(&mut self.index, &self.flows);
            let Some(fi) = index
                .rows_of(id)
                .find(|&fi| self.flows[fi as usize].route == *route)
            else {
                debug_assert!(false, "chained move names an unknown flow {id}");
                continue;
            };
            dirty.push(self.link_id(fi, pos));
            self.sub(fi, pos, count);
            let hops = self.flows[fi as usize].hops;
            for x in pos..pos + advanced {
                self.psi += self.weighting.hop_weight(hops, x).value() * count as f64;
            }
            let new_pos = pos + advanced;
            debug_assert!(new_pos <= hops);
            if new_pos == hops {
                self.delivered += count;
            } else {
                dirty.push(self.link_id(fi, new_pos));
                self.add(fi, new_pos, count);
            }
        }
        dirty.sort_unstable();
        dirty.dedup();
    }

    /// Admits sub-flows `(flow id, route, position, count)` into a live
    /// plan — the streaming counterpart of [`RemainingTraffic::from_subflows`].
    /// A hop on a link the plan has never seen interns it under the next
    /// free `LinkId`, one per-source lookup; no stored id moves. Entries
    /// matching an existing `(id, route)` row merge into it, so re-admitting
    /// traffic for a live flow accumulates bit-identically to having loaded
    /// the merged counts cold (`w*c1 + w*c2` summed per entry would not).
    ///
    /// Returns the `LinkId`s whose queues changed, sorted and deduplicated —
    /// feed them to [`crate::ScheduleEngine::patch_links`] to bring a live
    /// snapshot back in sync. [`RemainingTraffic::admit_subflows_into`]
    /// reports them into a caller's list instead.
    ///
    /// # Errors
    /// [`SchedError::PositionBeyondRoute`] if any entry's position is at or
    /// past its route's end, [`SchedError::PacketCountOverflow`] if the
    /// plan's packet total would pass `u64::MAX`; the plan is untouched on
    /// error.
    pub fn admit_subflows(
        &mut self,
        subflows: impl IntoIterator<Item = (FlowId, Route, u32, u64)>,
    ) -> Result<Vec<u32>, SchedError> {
        let mut dirty = Vec::new();
        self.admit_subflows_into(subflows, &mut dirty)?;
        Ok(dirty)
    }

    /// [`RemainingTraffic::admit_subflows`] that appends the `LinkId`s whose
    /// queues changed to `dirty`, leaving it sorted and deduplicated, and
    /// otherwise works on buffers the plan keeps: a sub-flow merging into a
    /// live row allocates nothing.
    ///
    /// # Errors
    /// As [`RemainingTraffic::admit_subflows`]; `dirty` and the plan are
    /// untouched on error.
    pub fn admit_subflows_into(
        &mut self,
        subflows: impl IntoIterator<Item = (FlowId, Route, u32, u64)>,
        dirty: &mut Vec<u32>,
    ) -> Result<(), SchedError> {
        let mut incoming = std::mem::take(&mut self.scratch.incoming);
        incoming.extend(subflows.into_iter().filter(|&(.., count)| count > 0));
        let admitted = self.admit_incoming(&mut incoming, dirty);
        incoming.clear();
        self.scratch.incoming = incoming;
        admitted
    }

    /// The body of [`RemainingTraffic::admit_subflows_into`] over the
    /// batch's non-empty sub-flows, which it drains on success.
    fn admit_incoming(
        &mut self,
        incoming: &mut Vec<(FlowId, Route, u32, u64)>,
        dirty: &mut Vec<u32>,
    ) -> Result<(), SchedError> {
        // Validate everything before mutating anything: an error mid-batch
        // must not leave a half-admitted plan.
        for &(id, ref route, pos, _) in incoming.iter() {
            if pos >= route.hops() {
                return Err(SchedError::PositionBeyondRoute { flow: id, pos });
            }
        }
        let total = incoming
            .iter()
            .try_fold(self.total, |t, &(.., count)| t.checked_add(count))
            .ok_or(SchedError::PacketCountOverflow)?;
        if incoming.is_empty() {
            return Ok(());
        }
        self.total = total;
        let mut staged = std::mem::take(&mut self.scratch.staged);
        let index = FlowIndex::ensure(&mut self.index, &self.flows);
        for (id, route, pos, count) in incoming.drain(..) {
            // One probe finds the ID's row chain, or claims the ID for the
            // row about to be added.
            let new_fi = self.flows.len() as u32;
            let found = match index.first.entry(id) {
                Entry::Vacant(slot) => {
                    slot.insert(new_fi);
                    None
                }
                Entry::Occupied(slot) => {
                    let mut fi = *slot.get();
                    loop {
                        if self.flows[fi as usize].route == route {
                            break Some(fi);
                        }
                        match index.next_same[fi as usize] {
                            NO_ROW => {
                                index.next_same[fi as usize] = new_fi;
                                break None;
                            }
                            next => fi = next,
                        }
                    }
                }
            };
            let fi = match found {
                Some(fi) => fi,
                None => {
                    // Each hop of a new row is looked up once, and interned
                    // there if the plan has never seen its link.
                    let hops = route.hops();
                    let link_off = self.flow_links.len() as u32;
                    for p in 0..hops {
                        self.flow_links.push(self.links.intern(link_of(&route, p)));
                    }
                    index.next_same.push(NO_ROW);
                    self.flows.push(FlowMeta {
                        id,
                        route,
                        hops,
                        link_off,
                    });
                    new_fi
                }
            };
            staged.push((fi, pos, count));
        }
        self.rows.resize_with(self.links.len(), Vec::new);
        for &(fi, pos, count) in &staged {
            self.add(fi, pos, count);
            dirty.push(self.link_id(fi, pos));
        }
        dirty.sort_unstable();
        dirty.dedup();
        staged.clear();
        self.scratch.staged = staged;
        Ok(())
    }

    /// Cancels every sub-flow of `id` still waiting in the plan: the
    /// packets vanish from `T^r` and from the total (they were never
    /// delivered, so ψ and the delivered count are untouched). The flow's
    /// bookkeeping row stays (indices are stable); a later re-admission of
    /// the same `(id, route)` reuses it.
    ///
    /// Returns `(packets removed, dirty links)` — the `LinkId`s, sorted and
    /// deduplicated, whose queues lost packets.
    /// [`RemainingTraffic::cancel_flow_into`] reports them into a caller's
    /// list instead.
    pub fn cancel_flow(&mut self, id: FlowId) -> (u64, Vec<u32>) {
        let mut dirty = Vec::new();
        let removed = self.cancel_flow_into(id, &mut dirty);
        (removed, dirty)
    }

    /// [`RemainingTraffic::cancel_flow`] that appends the `LinkId`s whose
    /// queues lost packets to `dirty`, leaving it sorted and deduplicated;
    /// returns the packets removed. Allocates nothing once the flow-ID
    /// index is built.
    pub fn cancel_flow_into(&mut self, id: FlowId, dirty: &mut Vec<u32>) -> u64 {
        let index = FlowIndex::ensure(&mut self.index, &self.flows);
        let mut removed = 0u64;
        for fi in index.rows_of(id) {
            let meta = &self.flows[fi as usize];
            for pos in 0..meta.hops {
                let li = self.flow_links[meta.link_off as usize + pos as usize];
                let row = &mut self.rows[li as usize];
                if let Ok(k) = row.binary_search_by_key(&(fi, pos), |e| e.0) {
                    removed += row[k].1;
                    row.remove(k);
                    dirty.push(li);
                }
            }
        }
        self.total -= removed;
        dirty.sort_unstable();
        dirty.dedup();
        removed
    }
}

impl TrafficSource for RemainingTraffic {
    /// [`RemainingTraffic::apply_budgets`], reporting each moved group's
    /// origin link and (unless delivered) the next hop's link.
    fn apply_served(&mut self, served: &[(NodeId, NodeId, u64)], dirty: &mut Vec<u32>) {
        self.apply_budgets(served);
        for &(fi, pos, _, _) in &self.scratch.moves {
            dirty.push(self.link_id(fi, pos));
            if pos + 1 < self.flows[fi as usize].hops {
                dirty.push(self.link_id(fi, pos + 1));
            }
        }
        dirty.sort_unstable();
        dirty.dedup();
    }

    fn link_keys(&self) -> &[(u32, u32)] {
        &self.links.keys
    }

    fn refresh_link(&self, li: u32, out: &mut Vec<(f64, u64)>) {
        out.extend(self.row_pairs(li as usize));
    }

    fn is_drained(&self) -> bool {
        RemainingTraffic::is_drained(self)
    }
}

/// Snapshot of all non-empty link queues for one scheduler iteration.
///
/// For each fabric link `(i, j)`, the queue aggregates waiting packets into
/// *weight classes* sorted by descending weight. From it derive:
///
/// * `g(i, j, α)` — maximum total weight of α waiting packets
///   ([`LinkQueueRef::g`]);
/// * the candidate α set of Procedure 1 — per-link prefix counts at class
///   boundaries ([`LinkQueues::alpha_candidates`]);
/// * the weighted graph `G'` whose maximum matching is the best
///   configuration for a given α, swept over every candidate α at once
///   ([`LinkQueues::weighted_edges_multi`]).
///
/// # Storage: an arena indexed by `LinkId`
///
/// The snapshot numbers its links as its source does. Per `LinkId` it
/// holds the link's `(i, j)` key, pushed once when the link first reaches
/// the snapshot, an `(offset, len)` span and a live bit; contiguous arenas
/// hold every link's weight classes and prefix sums back to back. Each
/// span's prefix sums restart at zero, so a span is one link's complete
/// queue laid out in shared storage; [`LinkQueues::link`] hands out a
/// borrowed [`LinkQueueRef`] view of it.
///
/// The snapshot can be patched link by link ([`LinkQueues::set_link`]): the
/// class list of a link depends only on that link's waiting packets, so an
/// incremental rebuild of the touched links yields exactly the snapshot a
/// full rebuild would. A patch folds its classes at the arena tail, the
/// one fold every builder shares; classes that fit the link's existing
/// span move into it, and a growing patch stays at the tail while the
/// stale span becomes garbage, reclaimed by compaction once garbage
/// outweighs live data. A link new to the snapshot is one push
/// ([`LinkQueues::intern`]), and a drained link keeps its id with a
/// zero-length **tombstone** span. The read paths that walk every live
/// link visit the set live bits only.
///
/// Ids follow key order after a cold load, not after streamed admissions.
/// The reads whose order can reach a schedule (the sweep's edges and row
/// index, [`LinkQueues::links`]) sort the live links by key when their ids
/// do not already visit them in key order.
#[derive(Debug, Clone)]
pub struct LinkQueues {
    n: u32,
    /// Per `LinkId`: its `(i, j)` key.
    keys: Vec<(u32, u32)>,
    /// Per `LinkId`: its `(offset, len)` span into the class arenas.
    spans: Vec<(u32, u32)>,
    /// `(weight, packets)` class arena; weight strictly descending within
    /// each span.
    classes: Vec<(f64, u64)>,
    /// Cumulative packet counts at class boundaries, restarting per span.
    prefix_counts: Vec<u64>,
    /// Cumulative weight at class boundaries, restarting per span.
    prefix_weights: Vec<f64>,
    /// Arena slots referenced by a span; `classes.len() - live` is garbage.
    live: usize,
    /// Bit `li` is set iff `spans[li]` is live (non-empty); bits past
    /// `keys.len()` are clear.
    live_links: Vec<u64>,
    /// Bumped on every [`LinkQueues::set_link`].
    generation: u64,
}

/// A borrowed view of one link's queue inside a [`LinkQueues`] arena.
#[derive(Debug, Clone, Copy)]
pub struct LinkQueueRef<'a> {
    classes: &'a [(f64, u64)],
    prefix_counts: &'a [u64],
    prefix_weights: &'a [f64],
}

impl<'a> LinkQueueRef<'a> {
    /// `g(α)`: maximum total weight of α waiting packets. The class holding
    /// the α-th packet is found by binary search, and `g` is the weight
    /// below it plus the α-th packet's share of it: the expression
    /// [`LinkQueueRef::g_multi`] evaluates, so both agree bit for bit.
    pub fn g(&self, alpha: u64) -> f64 {
        if alpha == 0 {
            return 0.0;
        }
        let idx = self.prefix_counts.partition_point(|&c| c < alpha);
        match self.classes.get(idx) {
            Some(&(w, _)) => {
                let (below_count, below_weight) = match idx.checked_sub(1) {
                    Some(b) => (self.prefix_counts[b], self.prefix_weights[b]),
                    None => (0, 0.0),
                };
                below_weight + (alpha - below_count) as f64 * w
            }
            None => self.prefix_weights.last().copied().unwrap_or(0.0),
        }
    }

    /// Batched `g(α)` over an **ascending** α list: one pass over the
    /// classes, each filling the run of αs that falls in it, instead of one
    /// binary search per α.
    ///
    /// Writes `g(alphas[k])` into `out[k]`; `O(classes + alphas.len())`.
    /// Bit for bit [`LinkQueueRef::g`] at each α.
    ///
    /// # Panics
    /// Panics if `out.len() != alphas.len()`; debug-asserts that `alphas` is
    /// ascending.
    pub fn g_multi(&self, alphas: &[u64], out: &mut [f64]) {
        self.g_multi_shifted(alphas, 0, out);
    }

    /// [`LinkQueueRef::g_multi`] at every α shifted by `extra` slots:
    /// `out[k] = g(alphas[k] + extra)`.
    fn g_multi_shifted(&self, alphas: &[u64], extra: u64, out: &mut [f64]) {
        assert_eq!(alphas.len(), out.len(), "one output slot per α required");
        debug_assert!(
            alphas.windows(2).all(|w| w[0] <= w[1]),
            "alphas must be ascending"
        );
        let mut k = 0;
        while k < alphas.len() && alphas[k] + extra == 0 {
            out[k] = 0.0;
            k += 1;
        }
        // Class `c` holds the αs in (its predecessor's prefix count, its own].
        let (mut below_count, mut below_weight) = (0u64, 0.0f64);
        let steps = self
            .classes
            .iter()
            .zip(self.prefix_counts)
            .zip(self.prefix_weights);
        for ((&(w, _), &count), &weight) in steps {
            while k < alphas.len() && alphas[k] + extra <= count {
                out[k] = below_weight + (alphas[k] + extra - below_count) as f64 * w;
                k += 1;
            }
            if k == alphas.len() {
                return;
            }
            (below_count, below_weight) = (count, weight);
        }
        // Past the last class: every packet, the last prefix weight.
        out[k..].fill(below_weight);
    }

    /// Total packets waiting on this link.
    pub fn total_packets(&self) -> u64 {
        *self.prefix_counts.last().unwrap_or(&0)
    }

    /// The per-link candidate α values (class-boundary prefix counts).
    pub fn boundary_alphas(&self) -> &'a [u64] {
        self.prefix_counts
    }

    /// The aggregated `(weight, packets)` classes, weight strictly
    /// descending. Exposed so equivalence tests can compare snapshots.
    pub fn classes(&self) -> &'a [(f64, u64)] {
        self.classes
    }
}

impl LinkQueues {
    /// An empty snapshot with pre-sized storage.
    fn with_capacity(n: u32, links: usize, slots: usize) -> Self {
        LinkQueues {
            n,
            keys: Vec::with_capacity(links),
            spans: Vec::with_capacity(links),
            classes: Vec::with_capacity(slots),
            prefix_counts: Vec::with_capacity(slots),
            prefix_weights: Vec::with_capacity(slots),
            live: 0,
            live_links: Vec::with_capacity(links.div_ceil(64)),
            generation: 0,
        }
    }

    /// Sorts `pairs` by descending weight and folds them into weight
    /// classes at the arena tail, equal weights merging and zero counts
    /// dropping out, with prefix sums restarting at zero. Returns the number
    /// of classes. The one class fold: every builder and every patch goes
    /// through it, so a link's span depends only on the multiset of its
    /// `(weight, packets)` groups.
    #[expect(
        clippy::float_cmp,
        reason = "equal weights merge into one class only when bit-equal"
    )]
    fn fold_classes(&mut self, pairs: &mut [(f64, u64)]) -> u32 {
        pairs.sort_unstable_by(|a, b| b.0.total_cmp(&a.0));
        let off = self.classes.len();
        for &(w, count) in pairs.iter().filter(|&&(_, c)| c > 0) {
            match self.classes[off..].last_mut() {
                Some((cw, cc)) if *cw == w => *cc += count,
                _ => self.classes.push((w, count)),
            }
        }
        // Prefix sums are computed after the merge, so each class
        // contributes exactly one `w * c` term.
        let (mut pc, mut pw) = (0u64, 0.0f64);
        for &(w, c) in &self.classes[off..] {
            pc += c;
            pw += w * c as f64;
            self.prefix_counts.push(pc);
            self.prefix_weights.push(pw);
        }
        (self.classes.len() - off) as u32
    }

    /// Numbers link `key` after the ones already held, its `(weight,
    /// packets)` groups folded into classes at the arena tail (none, or
    /// only empty groups, make a tombstone). The one builder step.
    fn push_link(&mut self, key: (u32, u32), pairs: &mut [(f64, u64)]) {
        let off = self.classes.len() as u32;
        let len = self.fold_classes(pairs);
        let li = self.keys.len();
        if li % 64 == 0 {
            self.live_links.push(0);
        }
        self.keys.push(key);
        self.spans.push((off, len));
        self.set_live(li, len > 0);
        self.live += len as usize;
    }

    /// Sets or clears the live bit of `LinkId` `li`.
    fn set_live(&mut self, li: usize, live: bool) {
        let (word, bit) = (li / 64, 1u64 << (li % 64));
        if live {
            self.live_links[word] |= bit;
        } else {
            self.live_links[word] &= !bit;
        }
    }

    /// The cold snapshot of `source` for an `n`-node fabric: every
    /// `LinkId` it numbers, in id order, holding the groups
    /// [`TrafficSource::refresh_link`] reports for it. So a cold snapshot is
    /// every link patched once, through the same class fold as every patch.
    pub fn from_source<S: TrafficSource + ?Sized>(source: &S, n: u32) -> Self {
        let keys = source.link_keys();
        let mut q = LinkQueues::with_capacity(n, keys.len(), 0);
        let mut pairs = Vec::new();
        for (li, &key) in keys.iter().enumerate() {
            pairs.clear();
            source.refresh_link(li as u32, &mut pairs);
            q.push_link(key, &mut pairs);
        }
        q
    }

    /// A fixture constructor for tests: a snapshot of `(link, weight,
    /// count)` triples, numbering every link named in ascending key order;
    /// a link whose triples hold no packets is a tombstone. Planning builds
    /// its snapshots from a [`TrafficSource`] ([`LinkQueues::from_source`]).
    pub fn from_weighted_counts(
        n: u32,
        triples: impl IntoIterator<Item = ((u32, u32), f64, u64)>,
    ) -> Self {
        let mut v: Vec<((u32, u32), f64, u64)> = triples.into_iter().collect();
        v.sort_by_key(|&(link, _, _)| link);
        let mut q = LinkQueues::with_capacity(n, 0, v.len());
        for group in v.chunk_by(|a, b| a.0 == b.0) {
            let mut pairs: Vec<(f64, u64)> = group.iter().map(|&(_, w, c)| (w, c)).collect();
            q.push_link(group[0].0, &mut pairs);
        }
        q
    }

    /// Takes on, as tombstones, the links of `keys` past the ones this
    /// snapshot numbers: `keys` holds a source's key of every `LinkId`, and
    /// the snapshot's own keys are a prefix of it. A link new to the
    /// snapshot is one push of its key, span and live bit; nothing already
    /// stored moves.
    pub fn intern(&mut self, keys: &[(u32, u32)]) {
        for &key in keys.get(self.keys.len()..).unwrap_or_default() {
            self.push_link(key, &mut []);
        }
    }

    /// Fabric size the snapshot was built for.
    pub fn n(&self) -> u32 {
        self.n
    }

    /// Whether any packet waits on any link.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// The patch count: bumped by every [`LinkQueues::set_link`], so the
    /// difference between two reads counts the links re-derived in
    /// between. A freshly built snapshot starts at 0.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Arena occupancy `(live slots, arena length, reserved capacity)`:
    /// live data, length including garbage awaiting compaction, and the
    /// allocation actually held. For memory accounting in benches and
    /// compaction tests.
    pub fn arena_usage(&self) -> (usize, usize, usize) {
        (self.live, self.classes.len(), self.classes.capacity())
    }

    /// The borrowed view of `LinkId` `li`'s span.
    fn view_at(&self, li: usize) -> LinkQueueRef<'_> {
        self.view_span(self.spans[li])
    }

    /// The borrowed view of one `(offset, len)` span of the class arenas.
    fn view_span(&self, (off, len): (u32, u32)) -> LinkQueueRef<'_> {
        let r = off as usize..(off + len) as usize;
        LinkQueueRef {
            classes: &self.classes[r.clone()],
            prefix_counts: &self.prefix_counts[r.clone()],
            prefix_weights: &self.prefix_weights[r],
        }
    }

    /// The queue of `LinkId` `li`, if non-empty.
    pub fn link(&self, li: u32) -> Option<LinkQueueRef<'_>> {
        let li = li as usize;
        (self.spans.get(li)?.1 > 0).then(|| self.view_at(li))
    }

    /// The queue of link `(i, j)`, if non-empty. A scan over every key the
    /// snapshot holds, for tests and one-off reads; the engine addresses
    /// links by id ([`LinkQueues::link`]).
    pub fn queue(&self, i: u32, j: u32) -> Option<LinkQueueRef<'_>> {
        let li = self.keys.iter().position(|&key| key == (i, j))?;
        self.link(li as u32)
    }

    /// Replaces `LinkId` `li`'s queue with the `(weight, packets)` groups in
    /// `pairs`, in any order (sorted in place) — the patch operation of the
    /// incremental engine. The groups fold into classes at the arena tail,
    /// as every builder folds them; classes that fit the link's current
    /// span move into it, so a shrinking queue leaves no garbage, and a
    /// growing one keeps its tail span. Groups holding no packets tombstone
    /// the link. Stale slots are reclaimed once they outnumber live ones.
    ///
    /// # Panics
    /// If the snapshot does not number `li` ([`LinkQueues::intern`]).
    pub fn set_link(&mut self, li: u32, pairs: &mut [(f64, u64)]) {
        self.generation += 1;
        let li = li as usize;
        let (off, old_len) = self.spans[li];
        let tail = self.classes.len();
        let len = self.fold_classes(pairs);
        if len <= old_len {
            // Fits (or drains to a tombstone): move the classes into the
            // old span, leaving no garbage behind.
            let new = tail..tail + len as usize;
            let o = off as usize;
            self.classes.copy_within(new.clone(), o);
            self.prefix_counts.copy_within(new.clone(), o);
            self.prefix_weights.copy_within(new, o);
            self.classes.truncate(tail);
            self.prefix_counts.truncate(tail);
            self.prefix_weights.truncate(tail);
            self.spans[li] = (off, len);
            self.live -= (old_len - len) as usize;
        } else {
            self.spans[li] = (tail as u32, len);
            self.live += (len - old_len) as usize;
        }
        self.set_live(li, len > 0);
        self.maybe_compact();
    }

    /// Rewrites the arenas span by span once garbage slots outnumber both the
    /// live data and the span table, restoring offset order and dropping the
    /// dead tail. A compaction pass costs `O(spans + live)`, so the threshold
    /// must cover both terms for patching to stay amortized `O(1)` per slot —
    /// with a live-only bound, a near-drained snapshot (tiny `live`, many
    /// tombstoned spans) would recompact every few patches. Views are
    /// relocated but bit-identical, so derived results are unchanged.
    fn maybe_compact(&mut self) {
        let garbage = self.classes.len() - self.live;
        if self.live == 0 {
            // Threshold edge: with nothing live the `spans.len()` term keeps
            // garbage parked just under the span count forever (an
            // all-drained snapshot never shrinks its arenas). Dropping dead
            // slots is O(spans) here — no data to copy — so a flat floor is
            // enough to keep it amortized.
            if garbage <= 32 {
                return;
            }
            self.classes.clear();
            self.prefix_counts.clear();
            self.prefix_weights.clear();
            // Every span is a tombstone, but offsets must still be in
            // bounds: `view_at` slices `classes[off..off]` even for len 0.
            for span in &mut self.spans {
                *span = (0, 0);
            }
            return;
        }
        if garbage <= self.live.max(self.spans.len()).max(32) {
            return;
        }
        let mut classes = Vec::with_capacity(self.live);
        let mut prefix_counts = Vec::with_capacity(self.live);
        let mut prefix_weights = Vec::with_capacity(self.live);
        for span in &mut self.spans {
            let (off, len) = *span;
            let r = off as usize..(off + len) as usize;
            let new_off = classes.len() as u32;
            classes.extend_from_slice(&self.classes[r.clone()]);
            prefix_counts.extend_from_slice(&self.prefix_counts[r.clone()]);
            prefix_weights.extend_from_slice(&self.prefix_weights[r]);
            *span = (new_off, len);
        }
        self.classes = classes;
        self.prefix_counts = prefix_counts;
        self.prefix_weights = prefix_weights;
    }

    /// `g(i, j, α)` of §4.1, through [`LinkQueues::queue`]'s scan.
    pub fn g(&self, i: u32, j: u32, alpha: u64) -> f64 {
        self.queue(i, j).map_or(0.0, |q| q.g(alpha))
    }

    /// The `LinkId`s whose spans are live, ascending: the set bits of the
    /// live bitset, so tombstones cost nothing to skip.
    fn live_indices(&self) -> impl Iterator<Item = usize> + '_ {
        self.live_links.iter().enumerate().flat_map(|(w, &word)| {
            let mut bits = word;
            std::iter::from_fn(move || {
                (bits != 0).then(|| {
                    let b = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    w * 64 + b
                })
            })
        })
    }

    /// The number of live links.
    fn live_count(&self) -> usize {
        self.live_links
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum()
    }

    /// Appends every live link's key and span to `keys` and `spans`, in
    /// ascending key order.
    fn live_links_by_key(&self, keys: &mut Vec<(u32, u32)>, spans: &mut Vec<(u32, u32)>) {
        let mut ascending = true;
        for li in self.live_indices() {
            let key = self.keys[li];
            ascending &= keys.last() < Some(&key);
            keys.push(key);
            spans.push(self.spans[li]);
        }
        if !ascending {
            let mut by_key: Vec<_> = keys.iter().copied().zip(spans.iter().copied()).collect();
            by_key.sort_unstable_by_key(|&(key, _)| key);
            for (k, (key, span)) in by_key.into_iter().enumerate() {
                (keys[k], spans[k]) = (key, span);
            }
        }
    }

    /// Iterates non-empty links (ascending).
    pub fn links(&self) -> impl Iterator<Item = (u32, u32)> {
        let (mut keys, mut spans) = (Vec::new(), Vec::new());
        self.live_links_by_key(&mut keys, &mut spans);
        keys.into_iter()
    }

    /// The candidate α set of Procedure 1: union of per-link class-boundary
    /// prefix counts, clamped to `cap` (α values above the remaining window
    /// budget collapse onto `cap`, since the last configuration is truncated
    /// anyway). Sorted ascending, deduplicated.
    pub fn alpha_candidates(&self, cap: u64) -> Vec<u64> {
        // One boundary per live class.
        let mut set = Vec::with_capacity(self.live);
        set.extend(
            self.live_indices()
                .flat_map(|li| self.view_at(li).boundary_alphas().iter().copied())
                .map(|a| a.min(cap))
                .filter(|&a| a > 0),
        );
        set.sort_unstable();
        set.dedup();
        set
    }

    /// The weighted edges of `G'` over an **ascending** candidate list: the
    /// fixed edge topology (every non-empty link) that
    /// [`octopus_matching::AssignmentSolver`] re-solves without rebuilding,
    /// with each link's span in this snapshot's class arena. No weight is
    /// evaluated here: [`MultiAlphaEdges`] computes `g(i, j, α)` on demand,
    /// one candidate's column or every candidate's bounds at a time.
    pub fn weighted_edges_multi(&self, alphas: &[u64]) -> MultiAlphaEdges<'_> {
        self.weighted_edges_multi_with(alphas, |_| 0)
    }

    /// [`LinkQueues::weighted_edges_multi`] with a per-link α bonus: link
    /// `(i, j)` is evaluated at `α + extra((i, j))` for every candidate α.
    /// Used by the localized-reconfiguration extension, where links kept from
    /// the previous configuration also serve during the Δ transition.
    ///
    /// The edges are the live links in key order, which fixes every sum
    /// and every tie of the select: walked in id order, and sorted only
    /// when the ids do not already visit the keys in ascending order.
    pub fn weighted_edges_multi_with(
        &self,
        alphas: &[u64],
        extra: impl Fn((u32, u32)) -> u64,
    ) -> MultiAlphaEdges<'_> {
        debug_assert!(
            alphas.windows(2).all(|w| w[0] <= w[1]),
            "alphas must be ascending"
        );
        let ne = self.live_count();
        let mut edges = Vec::with_capacity(ne);
        let mut spans = Vec::with_capacity(ne);
        self.live_links_by_key(&mut edges, &mut spans);
        let mut bonus = Vec::with_capacity(ne);
        let mut rows = SPARE_ROWS.try_with(Cell::take).unwrap_or_default();
        rows.clear();
        rows.reserve(self.n as usize + 1);
        for (e, &(i, j)) in edges.iter().enumerate() {
            debug_assert!(i < self.n && j < self.n, "link ({i}, {j}) out of fabric");
            // Edges are key-ordered, so left port i's edges start here.
            while rows.len() <= i as usize {
                rows.push(e as u32);
            }
            bonus.push(extra((i, j)));
        }
        rows.resize(self.n as usize + 1, edges.len() as u32);
        MultiAlphaEdges {
            queues: self,
            alphas: alphas.to_vec(),
            edges,
            rows,
            spans,
            bonus,
        }
    }
}

/// A batched multi-α sweep over a [`LinkQueues`] snapshot: one fixed
/// `(i, j)`-sorted edge topology shared by all candidate αs, plus what
/// `g(i, j, α)` needs per edge — its span in the snapshot's class arena and
/// its α bonus. It holds no weight matrix:
/// [`MultiAlphaEdges::fused_bounds`] bounds every candidate in one pass over
/// the edges, evaluating each edge at all candidates at once, and
/// [`MultiAlphaEdges::fill_columns`] builds the `g` columns of any set of
/// candidates in one such pass. A CSR row index over the edges lets every
/// per-port pass walk a left port's edges as one slice instead of
/// detecting where its run ends; it is built once per sweep, in a buffer
/// the thread reuses from sweep to sweep.
///
/// Columns may contain non-positive weights (a link whose queue holds only
/// zero-weight classes at some α); matching kernels consuming a column must
/// treat `w <= 0` edges as absent, which is exactly what
/// [`octopus_matching::AssignmentSolver::solve_reweighted`] and
/// [`octopus_matching::greedy::GreedyScratch`] do. [`MultiAlphaEdges::edge_list`]
/// applies the same filter for the one-shot kernels.
#[derive(Debug, Clone)]
pub struct MultiAlphaEdges<'q> {
    queues: &'q LinkQueues,
    alphas: Vec<u64>,
    edges: Vec<(u32, u32)>,
    /// CSR row offsets, `n + 1` of them: left port `u`'s edges are
    /// `edges[rows[u]..rows[u + 1]]`. Taken from and handed back to
    /// [`SPARE_ROWS`].
    rows: Vec<u32>,
    /// Per edge, its `(offset, len)` span in `queues`' class arenas.
    spans: Vec<(u32, u32)>,
    /// Per edge, the slots added to every candidate α.
    bonus: Vec<u64>,
}

thread_local! {
    /// The row index buffer of the last [`MultiAlphaEdges`] this thread
    /// dropped, so a sweep's index allocates nothing once the thread has
    /// seen its largest fabric. Every sweep rebuilds the index in full, so
    /// what the buffer held cannot reach a result.
    static SPARE_ROWS: Cell<Vec<u32>> = const { Cell::new(Vec::new()) };
}

impl Drop for MultiAlphaEdges<'_> {
    fn drop(&mut self) {
        let rows = std::mem::take(&mut self.rows);
        // A thread tearing down its locals just frees the buffer.
        let _ = SPARE_ROWS.try_with(|spare| spare.set(rows));
    }
}

/// The per-candidate bounds [`MultiAlphaEdges::fused_bounds`] computes,
/// with the pass's scratch. Reused across sweeps, so a warm pass allocates
/// nothing.
#[derive(Debug, Default)]
pub struct FusedBounds {
    /// Per candidate `k`: `min(Σᵢ maxⱼ g, Σⱼ maxᵢ g)` over column `k`, each
    /// sum taken in port order.
    pub row_col: Vec<f64>,
    /// One edge's `g` at every candidate.
    row: Vec<f64>,
    /// The current left port's row maximum, per candidate.
    run_max: Vec<f64>,
    /// `Σᵢ maxⱼ g` so far, per candidate.
    row_sum: Vec<f64>,
    /// Column maxima, port-major: `col_max[v * K + k]`.
    col_max: Vec<f64>,
}

/// Clears `buf` to `len` zeros, reusing its allocation.
fn zeroed(buf: &mut Vec<f64>, len: usize) {
    buf.clear();
    buf.resize(len, 0.0);
}

/// Adds each `run` entry into `sum` and resets it to zero.
fn fold_run(sum: &mut [f64], run: &mut [f64]) {
    for (s, r) in sum.iter_mut().zip(run) {
        *s += *r;
        *r = 0.0;
    }
}

impl MultiAlphaEdges<'_> {
    /// Fabric size the sweep was built for.
    pub fn n(&self) -> u32 {
        self.queues.n
    }

    /// The ascending candidate αs the sweep evaluates.
    pub fn alphas(&self) -> &[u64] {
        &self.alphas
    }

    /// The fixed `(u, v)`-sorted edge topology (every non-empty link).
    pub fn edges(&self) -> &[(u32, u32)] {
        &self.edges
    }

    /// The CSR row index over [`MultiAlphaEdges::edges`]: each left port's
    /// range of edges (and of column entries), in port order.
    pub(crate) fn row_ranges(&self) -> impl Iterator<Item = std::ops::Range<usize>> + '_ {
        self.rows.windows(2).map(|r| r[0] as usize..r[1] as usize)
    }

    /// The column index of candidate `alpha`.
    ///
    /// `alpha` comes from the sweep's own candidate list, so the lookup
    /// always succeeds; if a caller ever passes a foreign α the insertion
    /// point is clamped to a valid column (deterministic, debug-asserted)
    /// rather than panicking mid-schedule.
    pub fn index_of(&self, alpha: u64) -> usize {
        match self.alphas.binary_search(&alpha) {
            Ok(idx) => idx,
            Err(pos) => {
                debug_assert!(false, "alpha {alpha} was not swept as a candidate");
                pos.min(self.alphas.len().saturating_sub(1))
            }
        }
    }

    /// The queue of edge `e`.
    fn queue(&self, e: usize) -> LinkQueueRef<'_> {
        self.queues.view_span(self.spans[e])
    }

    /// Appends to `out` the weight column of each candidate in `ks`
    /// (ascending), one after the other, each in [`MultiAlphaEdges::edges`]
    /// order: column `s` is `out[base + s·E..base + (s + 1)·E]` for the
    /// `E` edges and `out`'s length `base` on entry.
    ///
    /// One pass over the edges walks each edge's classes once for up to 64
    /// candidates at a time ([`LinkQueueRef::g_multi`]), as
    /// [`MultiAlphaEdges::fused_bounds`] does, so every value equals
    /// [`LinkQueueRef::g`] bit for bit. Allocates nothing beyond `out`'s
    /// growth.
    pub fn fill_columns(&self, ks: &[usize], out: &mut Vec<f64>) {
        const CHUNK: usize = 64;
        debug_assert!(ks.windows(2).all(|w| w[0] < w[1]), "ks must be ascending");
        let ne = self.edges.len();
        let base = out.len();
        out.resize(base + ks.len() * ne, 0.0);
        let (mut alphas, mut row) = ([0u64; CHUNK], [0.0f64; CHUNK]);
        for (c, chunk) in ks.chunks(CHUNK).enumerate() {
            let (alphas, row) = (&mut alphas[..chunk.len()], &mut row[..chunk.len()]);
            for (a, &k) in alphas.iter_mut().zip(chunk) {
                *a = self.alphas[k];
            }
            let columns = &mut out[base + c * CHUNK * ne..];
            for e in 0..ne {
                self.queue(e).g_multi_shifted(alphas, self.bonus[e], row);
                for (s, &g) in row.iter().enumerate() {
                    columns[s * ne + e] = g;
                }
            }
        }
    }

    /// Candidate `k`'s positive-weight edges as `(i, j, g(i, j, α))`
    /// triples, `(i, j)`-sorted.
    pub fn edge_list(&self, k: usize) -> Vec<(u32, u32, f64)> {
        let mut col = Vec::new();
        self.fill_columns(&[k], &mut col);
        self.edges
            .iter()
            .zip(col)
            .filter(|&(_, w)| w > 0.0)
            .map(|(&(i, j), w)| (i, j, w))
            .collect()
    }

    /// Bounds every candidate in one pass over the edges, evaluating each
    /// edge at all candidates at once ([`LinkQueueRef::g_multi`]) and
    /// storing no column: [`FusedBounds::row_col`].
    ///
    /// Each sum is taken in the order a per-column pass takes it (ports in
    /// index order), so the results equal a column-by-column computation
    /// bit for bit. Row maxima are kept per left port, walked as one slice
    /// of the sweep's row index; a port without edges would add `+0.0` to
    /// a non-negative sum, which changes nothing, so it is skipped. Every
    /// maximum is updated in select form, `m = if g > m { g } else { m }`:
    /// the conditional store's value exactly, with no branch in the
    /// candidate loop.
    pub fn fused_bounds(&self, out: &mut FusedBounds) {
        let kk = self.alphas.len();
        let n = self.n() as usize;
        let FusedBounds {
            row_col,
            row,
            run_max,
            row_sum,
            col_max,
        } = out;
        for buf in [&mut *row, &mut *run_max, &mut *row_sum] {
            zeroed(buf, kk);
        }
        zeroed(col_max, n * kk);
        for run in self.row_ranges().filter(|run| !run.is_empty()) {
            for e in run {
                self.queue(e)
                    .g_multi_shifted(&self.alphas, self.bonus[e], row);
                let v = self.edges[e].1 as usize;
                let ports = v * kk..(v + 1) * kk;
                for ((&g, rm), cm) in row.iter().zip(run_max.iter_mut()).zip(&mut col_max[ports]) {
                    *rm = if g > *rm { g } else { *rm };
                    *cm = if g > *cm { g } else { *cm };
                }
            }
            fold_run(row_sum, run_max);
        }
        zeroed(row_col, kk);
        for maxima in col_max.chunks_exact(kk.max(1)) {
            for (s, &m) in row_col.iter_mut().zip(maxima) {
                *s += m;
            }
        }
        for (cs, &rs) in row_col.iter_mut().zip(row_sum.iter()) {
            *cs = rs.min(*cs);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ScheduleEngine;
    use octopus_traffic::Flow;

    fn load_example1() -> TrafficLoad {
        TrafficLoad::new(vec![
            Flow::single(FlowId(1), 100, Route::from_ids([0, 1, 2]).unwrap()),
            Flow::single(FlowId(2), 50, Route::from_ids([3, 0, 1]).unwrap()),
            Flow::single(FlowId(3), 50, Route::from_ids([2, 1, 0]).unwrap()),
        ])
        .unwrap()
    }

    #[test]
    fn initial_queues_match_first_hops() {
        let tr = RemainingTraffic::new(&load_example1(), HopWeighting::Uniform).unwrap();
        let q = tr.link_queues(4);
        assert_eq!(q.g(0, 1, 100), 50.0); // 100 packets of weight 1/2
        assert_eq!(q.g(3, 0, 50), 25.0);
        assert_eq!(q.g(3, 0, 200), 25.0); // saturates at queue size
        assert_eq!(q.g(1, 0, 10), 0.0); // nothing waits there yet
    }

    #[test]
    fn g_mixes_weight_classes() {
        // One link with 10 packets of weight 1 and 20 of weight 1/2.
        let q = LinkQueues::from_weighted_counts(4, [((0, 1), 1.0, 10u64), ((0, 1), 0.5, 20)]);
        assert_eq!(q.g(0, 1, 5), 5.0);
        assert_eq!(q.g(0, 1, 10), 10.0);
        assert_eq!(q.g(0, 1, 16), 13.0);
        assert_eq!(q.g(0, 1, 30), 20.0);
        assert_eq!(q.g(0, 1, 99), 20.0);
        let alphas = q.alpha_candidates(1_000);
        assert_eq!(alphas, vec![10, 30]);
    }

    #[test]
    fn alpha_candidates_clamp_to_cap() {
        let q = LinkQueues::from_weighted_counts(4, [((0, 1), 1.0, 500u64)]);
        assert_eq!(q.alpha_candidates(100), vec![100]);
    }

    #[test]
    fn apply_moves_top_alpha_and_respects_flow_priority() {
        // Example 1's second configuration: both f1 (id 1) and f2 (id 2) wait
        // at node 0 toward 1 with equal weight; f1 wins on flow ID.
        let mut tr = RemainingTraffic::new(&load_example1(), HopWeighting::Uniform).unwrap();
        tr.apply(&[(NodeId(3), NodeId(0))], 50); // f2 moves to node 0
        let q = tr.link_queues(4);
        assert_eq!(q.queue(0, 1).unwrap().total_packets(), 150);
        let gained = tr.apply(&[(NodeId(0), NodeId(1))], 100);
        assert!((gained - 50.0).abs() < 1e-12);
        // f1's packets moved (all 100); f2 still waits at node 0.
        let q = tr.link_queues(4);
        assert_eq!(q.queue(0, 1).unwrap().total_packets(), 50);
        assert_eq!(q.queue(1, 2).unwrap().total_packets(), 100);
    }

    #[test]
    fn apply_does_not_chain_within_one_configuration() {
        let load = TrafficLoad::new(vec![Flow::single(
            FlowId(1),
            10,
            Route::from_ids([0, 1, 2]).unwrap(),
        )])
        .unwrap();
        let mut tr = RemainingTraffic::new(&load, HopWeighting::Uniform).unwrap();
        tr.apply(&[(NodeId(0), NodeId(1)), (NodeId(1), NodeId(2))], 10);
        // Packets advanced exactly one hop despite both links being active.
        assert_eq!(tr.planned_delivered(), 0);
        let q = tr.link_queues(3);
        assert_eq!(q.queue(1, 2).unwrap().total_packets(), 10);
    }

    #[test]
    fn plan_psi_and_delivery_accounting() {
        let mut tr = RemainingTraffic::new(&load_example1(), HopWeighting::Uniform).unwrap();
        // Deliver f3 completely: (2,1) then (1,0).
        tr.apply(&[(NodeId(2), NodeId(1))], 50);
        tr.apply(&[(NodeId(1), NodeId(0))], 50);
        assert_eq!(tr.planned_delivered(), 50);
        assert!((tr.planned_psi() - 50.0).abs() < 1e-12);
        assert_eq!(tr.remaining_packets(), 150);
        assert!(!tr.is_drained());
    }

    /// The positive-weight `(i, j, g(i, j, α))` triples, link by link.
    fn positive_edges(q: &LinkQueues, alpha: u64) -> Vec<(u32, u32, f64)> {
        q.links()
            .map(|(i, j)| (i, j, q.g(i, j, alpha)))
            .filter(|&(_, _, w)| w > 0.0)
            .collect()
    }

    /// `min(Σᵢ maxⱼ g, Σⱼ maxᵢ g)` recomputed link by link from `g(i, j, α)`,
    /// summed in node order like the sweep's piggybacked bound.
    fn reference_upper_bound(q: &LinkQueues, alpha: u64) -> f64 {
        let n = q.n() as usize;
        let (mut row_max, mut col_max) = (vec![0.0f64; n], vec![0.0f64; n]);
        for (i, j) in q.links() {
            let g = q.g(i, j, alpha);
            row_max[i as usize] = row_max[i as usize].max(g);
            col_max[j as usize] = col_max[j as usize].max(g);
        }
        let rs: f64 = row_max.iter().sum();
        rs.min(col_max.iter().sum())
    }

    #[test]
    fn upper_bound_dominates_matching_weight() {
        let tr = RemainingTraffic::new(&load_example1(), HopWeighting::Uniform).unwrap();
        let q = tr.link_queues(4);
        let alphas = [1, 10, 50, 100];
        let sweep = q.weighted_edges_multi(&alphas);
        let mut bounds = FusedBounds::default();
        sweep.fused_bounds(&mut bounds);
        for (k, &alpha) in alphas.iter().enumerate() {
            let g = octopus_matching::WeightedBipartiteGraph::from_tuples(4, 4, sweep.edge_list(k));
            let m = octopus_matching::maximum_weight_matching(&g);
            let w = octopus_matching::matching_weight(&g, &m);
            assert!(bounds.row_col[k] + 1e-9 >= w, "α = {alpha}");
        }
    }

    #[test]
    fn g_multi_matches_per_alpha_g() {
        let q = LinkQueues::from_weighted_counts(4, [((0, 1), 1.0, 10u64), ((0, 1), 0.5, 20)]);
        let lq = q.queue(0, 1).unwrap();
        let alphas = [1u64, 5, 10, 11, 16, 30, 31, 99];
        let mut out = vec![0.0; alphas.len()];
        lq.g_multi(&alphas, &mut out);
        for (k, &a) in alphas.iter().enumerate() {
            assert_eq!(out[k], lq.g(a), "α = {a}");
        }
    }

    #[test]
    fn multi_sweep_matches_per_alpha_edges_and_bounds() {
        let tr = RemainingTraffic::new(&load_example1(), HopWeighting::Uniform).unwrap();
        let q = tr.link_queues(4);
        let alphas = q.alpha_candidates(1_000);
        let sweep = q.weighted_edges_multi(&alphas);
        assert_eq!(sweep.alphas(), alphas.as_slice());
        let mut bounds = FusedBounds::default();
        sweep.fused_bounds(&mut bounds);
        for (k, &a) in alphas.iter().enumerate() {
            assert_eq!(sweep.index_of(a), k);
            assert_eq!(sweep.edge_list(k), positive_edges(&q, a), "α = {a}");
            assert_eq!(
                bounds.row_col[k].to_bits(),
                reference_upper_bound(&q, a).to_bits(),
                "α = {a}"
            );
        }
    }

    #[test]
    fn multi_sweep_keeps_zero_weight_links_in_topology() {
        // A link whose only class has weight 0 appears in the topology but
        // must be dropped from every per-α edge list (the g > 0 boundary).
        let q = LinkQueues::from_weighted_counts(4, [((0, 1), 0.0, 5u64), ((2, 3), 2.0, 3)]);
        let alphas = q.alpha_candidates(1_000);
        let sweep = q.weighted_edges_multi(&alphas);
        assert_eq!(sweep.edges(), &[(0, 1), (2, 3)]);
        for (k, &a) in alphas.iter().enumerate() {
            assert_eq!(sweep.edge_list(k), positive_edges(&q, a), "α = {a}");
        }
    }

    #[test]
    fn multi_sweep_with_bonus_shifts_per_link() {
        let q = LinkQueues::from_weighted_counts(
            4,
            [((0, 1), 1.0, 10u64), ((0, 1), 0.5, 20), ((1, 2), 1.0, 7)],
        );
        let alphas = [5u64, 12];
        let delta = 6u64;
        let sweep =
            q.weighted_edges_multi_with(&alphas, |link| if link == (0, 1) { delta } else { 0 });
        let mut cols = Vec::new();
        sweep.fill_columns(&[0, 1], &mut cols);
        for (col, &a) in cols.chunks_exact(2).zip(&alphas) {
            assert_eq!(col[0], q.g(0, 1, a + delta));
            assert_eq!(col[1], q.g(1, 2, a));
        }
    }

    #[test]
    fn rejects_multi_route_load() {
        let load = TrafficLoad::new(vec![Flow::new(
            FlowId(1),
            5,
            vec![
                Route::from_ids([0, 1]).unwrap(),
                Route::from_ids([0, 2, 1]).unwrap(),
            ],
        )
        .unwrap()])
        .unwrap();
        assert_eq!(
            RemainingTraffic::new(&load, HopWeighting::Uniform).err(),
            Some(SchedError::MultiRouteFlow(FlowId(1)))
        );
    }

    #[test]
    fn tracked_apply_reports_moves_and_dirty_links() {
        let mut tr = RemainingTraffic::new(&load_example1(), HopWeighting::Uniform).unwrap();
        let dirty = served(
            &mut tr,
            &[(NodeId(3), NodeId(0), 50), (NodeId(2), NodeId(1), 10)],
        );
        // 50·½ + 10·½: f2 moved off (3,0) onto (0,1), f3 off (2,1) onto (1,0).
        assert!((tr.planned_psi() - 30.0).abs() < 1e-12);
        assert_eq!(tr.scratch.moves, vec![(1, 0, 50, 0.5), (2, 0, 10, 0.5)]);
        assert_eq!(keys_of(&tr, &dirty), vec![(0, 1), (1, 0), (2, 1), (3, 0)]);
        // Refreshing the dirty links matches a from-scratch rebuild.
        assert_eq!(refreshed_packets(&tr, (3, 0)), 0); // emptied
        assert_eq!(refreshed_packets(&tr, (0, 1)), 150);
        assert_eq!(refreshed_packets(&tr, (2, 1)), 40);
        assert_eq!(refreshed_packets(&tr, (1, 0)), 10);
    }

    #[test]
    fn a_link_listed_twice_is_served_once_at_its_first_occurrence() {
        let (a, b) = ((NodeId(3), NodeId(0)), (NodeId(2), NodeId(1)));
        for (listed, once) in [
            (vec![(a, 20), (b, 10), (a, 30)], vec![(a, 20), (b, 10)]),
            (vec![(b, 10), (a, 20), (a, 30)], vec![(b, 10), (a, 20)]),
        ] {
            let budgets = |l: &[((NodeId, NodeId), u64)]| -> Vec<(NodeId, NodeId, u64)> {
                l.iter().map(|&((i, j), s)| (i, j, s)).collect()
            };
            let mut tr = RemainingTraffic::new(&load_example1(), HopWeighting::Uniform).unwrap();
            let mut reference = tr.clone();
            let gained = tr.apply_budgets(&budgets(&listed));
            assert_eq!(gained, reference.apply_budgets(&budgets(&once)));
            assert_eq!(tr.scratch.moves, reference.scratch.moves);
            assert_eq!(waiting(&tr), waiting(&reference));
        }
    }

    /// Packets [`RemainingTraffic::refresh_link`] reports on `link`.
    fn refreshed_packets(tr: &RemainingTraffic, link: (u32, u32)) -> u64 {
        let mut pairs = Vec::new();
        tr.refresh_link(tr.link_id_of(link).unwrap(), &mut pairs);
        pairs.iter().map(|&(_, c)| c).sum()
    }

    /// The keys of the `LinkId`s `ids`, in key order.
    fn keys_of(tr: &RemainingTraffic, ids: &[u32]) -> Vec<(u32, u32)> {
        let mut keys: Vec<(u32, u32)> = ids.iter().map(|&li| tr.link_keys()[li as usize]).collect();
        keys.sort_unstable();
        keys
    }

    /// Applies `serve` to `tr` and returns the dirty links it reports.
    fn served(tr: &mut RemainingTraffic, serve: &[(NodeId, NodeId, u64)]) -> Vec<u32> {
        let mut dirty = Vec::new();
        tr.apply_served(serve, &mut dirty);
        dirty
    }

    /// Re-derives `dirty` from `tr` into `q`, as the engine's commit does.
    fn patch(q: &mut LinkQueues, tr: &RemainingTraffic, dirty: &[u32]) {
        q.intern(tr.link_keys());
        let mut pairs = Vec::new();
        for &li in dirty {
            pairs.clear();
            tr.refresh_link(li, &mut pairs);
            q.set_link(li, &mut pairs);
        }
    }

    // ---- arena patching (snapshot/restore and mid-window patching) ----

    /// One live link's key, classes and boundary αs.
    type LiveQueue<'a> = ((u32, u32), &'a [(f64, u64)], &'a [u64]);

    /// Every live link's [`LiveQueue`], in key order.
    fn live_queues(q: &LinkQueues) -> Vec<LiveQueue<'_>> {
        let mut v: Vec<_> = q
            .live_indices()
            .map(|li| {
                let view = q.view_at(li);
                (q.keys[li], view.classes(), view.boundary_alphas())
            })
            .collect();
        v.sort_unstable_by_key(|&(key, ..)| key);
        v
    }

    /// Structural equality of two snapshots: the same live links in key
    /// order, each with the same classes, and the same candidate αs.
    fn assert_snapshots_equal(a: &LinkQueues, b: &LinkQueues) {
        assert_eq!(a.links().collect::<Vec<_>>(), b.links().collect::<Vec<_>>());
        assert_eq!(live_queues(a), live_queues(b), "link queues differ");
        assert_eq!(a.alpha_candidates(u64::MAX), b.alpha_candidates(u64::MAX));
    }

    /// The live bitset marks exactly the non-empty spans: its set bits are
    /// the ids with `spans[li].1 > 0`, no bit is set past the last id, and
    /// every id has a key and a span.
    fn assert_live_bits_match_spans(q: &LinkQueues) {
        let want: Vec<usize> = (0..q.keys.len()).filter(|&li| q.spans[li].1 > 0).collect();
        assert_eq!(
            q.live_indices().collect::<Vec<_>>(),
            want,
            "live bits disagree with spans"
        );
        assert_eq!(q.live_count(), want.len());
        assert_eq!(q.spans.len(), q.keys.len());
        assert_eq!(q.live_links.len(), q.keys.len().div_ceil(64));
    }

    #[test]
    fn set_link_patches_match_full_rebuild_across_commit_cycles() {
        let mut tr = RemainingTraffic::new(&load_example1(), HopWeighting::Uniform).unwrap();
        let mut patched = tr.link_queues(4);
        let serves: &[&[(NodeId, NodeId, u64)]] = &[
            &[(NodeId(3), NodeId(0), 25)],
            &[(NodeId(0), NodeId(1), 60), (NodeId(2), NodeId(1), 50)],
            &[(NodeId(1), NodeId(2), 60), (NodeId(1), NodeId(0), 50)],
            &[(NodeId(0), NodeId(1), 500)],
            &[(NodeId(3), NodeId(0), 500)],
        ];
        for serve in serves {
            let dirty = served(&mut tr, serve);
            patch(&mut patched, &tr, &dirty);
            assert_live_bits_match_spans(&patched);
            assert_snapshots_equal(&patched, &tr.link_queues(4));
        }
    }

    #[test]
    fn set_link_handles_empty_and_duplicate_key_edges() {
        // Ids 0 and 1 are (0, 1) and (2, 3); id 2 is (1, 1), taken on empty.
        let mut q = LinkQueues::from_weighted_counts(4, [((0, 1), 1.0, 10u64), ((2, 3), 0.5, 4)]);
        q.intern(&[(0, 1), (2, 3), (1, 1)]);
        assert_eq!(q.links().collect::<Vec<_>>(), vec![(0, 1), (2, 3)]);
        // Emptying a link that holds nothing is a no-op.
        q.set_link(2, &mut []);
        assert_eq!(q.links().collect::<Vec<_>>(), vec![(0, 1), (2, 3)]);
        // Re-setting the same link replaces, never duplicates, its span.
        q.set_link(0, &mut [(1.0, 3)]);
        q.set_link(0, &mut [(1.0, 2), (2.0, 1)]);
        assert_eq!(q.links().collect::<Vec<_>>(), vec![(0, 1), (2, 3)]);
        assert_eq!(q.queue(0, 1).unwrap().classes(), &[(2.0, 1), (1.0, 2)]);
        // Emptying a link drops it from the live links.
        q.set_link(0, &mut []);
        assert_eq!(q.links().collect::<Vec<_>>(), vec![(2, 3)]);
        assert!(q.queue(0, 1).is_none());
        // Filling the link numbered last reads it in key order.
        q.set_link(2, &mut [(3.0, 7)]);
        assert_eq!(q.links().collect::<Vec<_>>(), vec![(1, 1), (2, 3)]);
        assert_eq!(q.queue(1, 1).unwrap().total_packets(), 7);
        // Unsorted groups with bit-equal duplicate weights and zero counts
        // fold to the span the snapshot builder makes of them, through a
        // shrink, a grow, a tombstone and a refill.
        let groups: [&[(f64, u64)]; 5] = [
            &[
                (0.5, 2),
                (1.0, 0),
                (2.0, 3),
                (0.5, 4),
                (2.0, 1),
                (1.0 / 3.0, 0),
            ],
            &[(0.5, 0), (2.0, 5), (2.0, 0)],
            &[(0.25, 1), (1.0, 2), (0.25, 3), (4.0, 0), (1.0, 1), (0.5, 6)],
            &[(1.0, 0), (0.5, 0)],
            &[(1.0 / 3.0, 2), (1.0 / 3.0, 1), (0.0, 4), (1.0 / 3.0, 0)],
        ];
        for group in groups {
            q.set_link(2, &mut group.to_vec());
            let expect = LinkQueues::from_weighted_counts(
                4,
                group
                    .iter()
                    .map(|&(w, c)| ((1, 1), w, c))
                    .chain([((2, 3), 0.5, 4)]),
            );
            assert_snapshots_equal(&q, &expect);
        }
    }

    #[test]
    fn generation_counts_every_patch() {
        let mut q = LinkQueues::from_weighted_counts(4, [((0, 1), 1.0, 10u64)]);
        assert_eq!(q.generation(), 0);
        q.set_link(0, &mut [(1.0, 5)]);
        assert_eq!(q.generation(), 1);
        q.set_link(0, &mut []);
        q.set_link(0, &mut []); // even a no-op patch advances the clock
        assert_eq!(q.generation(), 3);
    }

    #[test]
    fn snapshot_clone_restores_pre_patch_state() {
        // Snapshot/restore: a clone taken mid-window is a full checkpoint of
        // the arena; patching the original never disturbs it.
        let mut tr = RemainingTraffic::new(&load_example1(), HopWeighting::Uniform).unwrap();
        let mut q = tr.link_queues(4);
        let checkpoint = q.clone();
        let dirty = served(&mut tr, &[(NodeId(0), NodeId(1), 100)]);
        patch(&mut q, &tr, &dirty);
        // All 100 packets of f1 left (0, 1); the checkpoint still holds them.
        assert!(q.queue(0, 1).is_none());
        assert_eq!(checkpoint.queue(0, 1).unwrap().total_packets(), 100);
        // Rollback: the checkpoint still equals a fresh build of the old plan.
        let fresh = RemainingTraffic::new(&load_example1(), HopWeighting::Uniform)
            .unwrap()
            .link_queues(4);
        assert_snapshots_equal(&checkpoint, &fresh);
    }

    #[test]
    fn heavy_patch_churn_compacts_without_changing_answers() {
        // Grow-shrink churn on one link forces arena garbage past the
        // compaction threshold; every intermediate state must still answer
        // g/alpha queries exactly like a fresh build.
        let mut q = LinkQueues::from_weighted_counts(4, [((0, 1), 1.0, 1u64), ((3, 3), 4.0, 2)]);
        for round in 1..100u64 {
            let pairs: Vec<(f64, u64)> = (0..(round % 7) + 1)
                .map(|k| (1.0 + k as f64, round + k))
                .collect();
            q.set_link(0, &mut pairs.clone());
            assert_live_bits_match_spans(&q);
            let expect = LinkQueues::from_weighted_counts(
                4,
                pairs
                    .iter()
                    .map(|&(w, c)| ((0, 1), w, c))
                    .chain([((3, 3), 4.0, 2)]),
            );
            assert_snapshots_equal(&q, &expect);
        }
        assert_eq!(q.generation(), 99);
    }

    // ---- mid-window admission / cancellation ----

    #[test]
    fn admit_subflows_matches_cold_rebuild_on_merged_load() {
        // Admit-then-solve ≡ cold rebuild on the merged load: run a live
        // plan through serves and admissions (including routes over links
        // the plan has never interned), then rebuild cold from the merged
        // sub-flows at each step and compare snapshots.
        let mut tr = RemainingTraffic::new(&load_example1(), HopWeighting::Uniform).unwrap();
        tr.apply(&[(NodeId(3), NodeId(0))], 50);
        // New flow over known links plus a flow over brand-new links (4, 5).
        let dirty = tr
            .admit_subflows([
                (FlowId(9), Route::from_ids([2, 1, 0]).unwrap(), 1, 30),
                (FlowId(10), Route::from_ids([4, 5, 2]).unwrap(), 0, 7),
            ])
            .unwrap();
        assert_eq!(keys_of(&tr, &dirty), vec![(1, 0), (4, 5)]);
        let cold = RemainingTraffic::from_subflows(tr.subflows(), HopWeighting::Uniform);
        assert_snapshots_equal(&tr.link_queues(8), &cold.link_queues(8));
        // The merged plan keeps scheduling normally, including on the links
        // interned mid-window.
        tr.apply(&[(NodeId(4), NodeId(5))], 7);
        let q = tr.link_queues(8);
        assert_eq!(q.queue(5, 2).unwrap().total_packets(), 7);
    }

    #[test]
    fn admit_merges_existing_flow_rows_bit_exactly() {
        let mut tr = RemainingTraffic::new(&load_example1(), HopWeighting::Uniform).unwrap();
        // Top up flow 1 on its current first hop: same (id, route) row.
        tr.admit_subflows([(FlowId(1), Route::from_ids([0, 1, 2]).unwrap(), 0, 11)])
            .unwrap();
        assert_eq!(tr.remaining_packets(), 211);
        // One merged entry, not two: subflows reports (id 1, pos 0) once.
        let entries: Vec<_> = tr
            .subflows()
            .into_iter()
            .filter(|e| e.0 == FlowId(1))
            .collect();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].3, 111);
        // The snapshot aggregates into a single weight class.
        let q = tr.link_queues(4);
        assert_eq!(q.queue(0, 1).unwrap().classes().len(), 1);
    }

    #[test]
    fn admit_rejects_position_beyond_route_without_mutating() {
        let mut tr = RemainingTraffic::new(&load_example1(), HopWeighting::Uniform).unwrap();
        let before = tr.subflows();
        let err = tr
            .admit_subflows([
                (FlowId(7), Route::from_ids([0, 1]).unwrap(), 0, 5),
                (FlowId(8), Route::from_ids([0, 1]).unwrap(), 1, 5), // 1 hop: pos 1 invalid
            ])
            .unwrap_err();
        assert_eq!(
            err,
            SchedError::PositionBeyondRoute {
                flow: FlowId(8),
                pos: 1
            }
        );
        // The valid entry of the failed batch was not half-applied.
        assert_eq!(tr.subflows(), before);
        assert_eq!(tr.remaining_packets(), 200);
    }

    #[test]
    fn admit_rejects_packet_count_overflow_without_mutating() {
        let mut tr = RemainingTraffic::new(&load_example1(), HopWeighting::Uniform).unwrap();
        let before = tr.subflows();
        let route = Route::from_ids([0, 1]).unwrap();
        // Each size fits on its own; the batch's sum with the 200 waiting
        // packets does not.
        let err = tr
            .admit_subflows([
                (FlowId(7), route.clone(), 0, u64::MAX / 2),
                (FlowId(8), route.clone(), 0, u64::MAX / 2),
            ])
            .unwrap_err();
        assert_eq!(err, SchedError::PacketCountOverflow);
        assert_eq!(tr.subflows(), before);
        assert_eq!(tr.remaining_packets(), 200);
        assert_eq!(
            tr.admit_subflows([(FlowId(9), route, 0, u64::MAX)]),
            Err(SchedError::PacketCountOverflow)
        );
        assert_eq!(tr.subflows(), before);
    }

    fn replay_key(tr: &RemainingTraffic) -> Vec<u64> {
        let mut words = Vec::new();
        tr.replay_key(|w| words.push(w));
        words
    }

    #[test]
    fn replay_key_covers_downstream_routes_and_priority_order() {
        let flow = |id, size, route: [u32; 3]| {
            Flow::single(FlowId(id), size, Route::from_ids(route).unwrap())
        };
        let key_of = |flows: Vec<Flow>| {
            let load = TrafficLoad::new(flows).unwrap();
            replay_key(&RemainingTraffic::new(&load, HopWeighting::Uniform).unwrap())
        };
        let base = key_of(vec![flow(1, 10, [0, 1, 2]), flow(2, 20, [0, 1, 3])]);
        // Fresh IDs in the same order: the same plan, the same key.
        assert_eq!(
            base,
            key_of(vec![flow(5, 10, [0, 1, 2]), flow(9, 20, [0, 1, 3])])
        );
        // Same first-hop queue and links, swapped downstream routes.
        assert_ne!(
            base,
            key_of(vec![flow(1, 10, [0, 1, 3]), flow(2, 20, [0, 1, 2])])
        );
        // Same rows, swapped priority between the two flows.
        assert_ne!(
            base,
            key_of(vec![flow(2, 10, [0, 1, 2]), flow(1, 20, [0, 1, 3])])
        );
    }

    #[test]
    fn replay_key_covers_weighting_and_interned_links() {
        let tr = RemainingTraffic::new(&load_example1(), HopWeighting::Uniform).unwrap();
        let eps = RemainingTraffic::new(&load_example1(), HopWeighting::EpsilonLater { eps: 0.1 })
            .unwrap();
        assert_ne!(replay_key(&tr), replay_key(&eps));
        // Admitting then cancelling a flow on a fresh link restores the rows
        // but not the interned keys.
        let mut churned = tr.clone();
        churned
            .admit_subflows([(FlowId(7), Route::from_ids([3, 2]).unwrap(), 0, 5)])
            .unwrap();
        churned.cancel_flow(FlowId(7));
        assert_eq!(churned.subflows(), tr.subflows());
        assert_ne!(replay_key(&churned), replay_key(&tr));
    }

    #[test]
    fn cancel_flow_removes_packets_and_reports_dirty_links() {
        let mut tr = RemainingTraffic::new(&load_example1(), HopWeighting::Uniform).unwrap();
        // Split f2 across two positions first.
        tr.apply(&[(NodeId(3), NodeId(0))], 20);
        let (removed, dirty) = tr.cancel_flow(FlowId(2));
        assert_eq!(removed, 50);
        assert_eq!(keys_of(&tr, &dirty), vec![(0, 1), (3, 0)]);
        assert_eq!(tr.remaining_packets(), 150);
        assert_eq!(refreshed_packets(&tr, (3, 0)), 0);
        // Cancelling an unknown flow is a no-op.
        assert_eq!(tr.cancel_flow(FlowId(99)), (0, vec![]));
        // Re-admitting the cancelled flow reuses its row and schedules again.
        tr.admit_subflows([(FlowId(2), Route::from_ids([3, 0, 1]).unwrap(), 0, 8)])
            .unwrap();
        let cold = RemainingTraffic::from_subflows(tr.subflows(), HopWeighting::Uniform);
        assert_snapshots_equal(&tr.link_queues(4), &cold.link_queues(4));
    }

    /// Every waiting sub-flow as `(id, route, position, count)`, sorted.
    fn waiting(tr: &RemainingTraffic) -> Vec<(u64, Vec<u32>, u32, u64)> {
        let mut v: Vec<_> = tr
            .subflows()
            .into_iter()
            .map(|(id, route, pos, count)| {
                let nodes = route.nodes().iter().map(|v| v.0).collect();
                (id.0, nodes, pos, count)
            })
            .collect();
        v.sort();
        v
    }

    #[test]
    fn flow_index_chains_one_id_across_three_routes() {
        // One flow ID on three routes, with another ID's row between them,
        // so the ID's row chain skips a row. After every step the plan must
        // equal a cold rebuild of the expected sub-flows.
        let route = |ids: &[u32]| Route::from_ids(ids.iter().copied()).unwrap();
        let (a, b, c) = (route(&[0, 1, 2]), route(&[3, 4]), route(&[5, 3, 4, 0]));
        let id = FlowId(1);
        let mut tr = RemainingTraffic::from_subflows(std::iter::empty(), HopWeighting::Uniform);
        let mut expected = vec![(FlowId(7), route(&[1, 2]), 0, 4)];
        let check = |tr: &RemainingTraffic, expected: &[(FlowId, Route, u32, u64)]| {
            let cold = RemainingTraffic::from_subflows(expected.to_vec(), HopWeighting::Uniform);
            assert_eq!(waiting(tr), waiting(&cold));
            assert_eq!(tr.remaining_packets(), cold.remaining_packets());
            assert_snapshots_equal(&tr.link_queues(6), &cold.link_queues(6));
        };

        // Admit all three routes: the first alone, then the other ID, then
        // the second and third in one batch.
        let mut dirty = Vec::new();
        tr.admit_subflows_into([(id, a.clone(), 0, 10)], &mut dirty)
            .unwrap();
        assert_eq!(keys_of(&tr, &dirty), vec![(0, 1)]);
        let dirty = tr.admit_subflows(expected.clone()).unwrap();
        assert_eq!(keys_of(&tr, &dirty), vec![(1, 2)]);
        let batch = [(id, b.clone(), 0, 6), (id, c.clone(), 0, 5)];
        let dirty = tr.admit_subflows(batch.clone()).unwrap();
        assert_eq!(keys_of(&tr, &dirty), vec![(3, 4), (5, 3)]);
        expected.extend([(id, a.clone(), 0, 10)]);
        expected.extend(batch);
        assert_eq!(tr.flows.len(), 4);
        check(&tr, &expected);

        // Top up the second route: it merges into the ID's second row.
        let dirty = tr.admit_subflows([(id, b.clone(), 0, 3)]).unwrap();
        assert_eq!(keys_of(&tr, &dirty), vec![(3, 4)]);
        expected[2].3 += 3;
        assert_eq!(tr.flows.len(), 4);
        check(&tr, &expected);

        // Chain the third route's packets two hops: the row is found by
        // route through the index, not by ID alone.
        let mut dirty = Vec::new();
        tr.advance_chained(&[(id, c.clone(), 0, 2, 5)], &mut dirty);
        assert_eq!(keys_of(&tr, &dirty), vec![(4, 0), (5, 3)]);
        assert!((tr.planned_psi() - 5.0 * 2.0 / 3.0).abs() < 1e-12);
        expected[3].2 = 2;
        check(&tr, &expected);

        // Cancelling the ID empties all three of its rows.
        let mut dirty = Vec::new();
        assert_eq!(tr.cancel_flow_into(id, &mut dirty), 10 + 9 + 5);
        assert_eq!(keys_of(&tr, &dirty), vec![(0, 1), (3, 4), (4, 0)]);
        expected.retain(|e| e.0 != id);
        check(&tr, &expected);

        // Re-admitting the first route reuses its row, the ID's first.
        let dirty = tr.admit_subflows([(id, a.clone(), 0, 2)]).unwrap();
        assert_eq!(keys_of(&tr, &dirty), vec![(0, 1)]);
        expected.push((id, a, 0, 2));
        assert_eq!(tr.flows.len(), 4);
        let index = tr.index.as_ref().unwrap();
        assert_eq!(index.rows_of(id).collect::<Vec<_>>(), vec![0, 2, 3]);
        assert_eq!(index.rows_of(FlowId(7)).collect::<Vec<_>>(), vec![1]);
        check(&tr, &expected);
    }

    #[test]
    fn equal_rows_of_one_id_serve_in_first_admission_order() {
        // One ID on two 2-hop routes that share their first link: equal
        // weight, equal ID, so the row admitted first is served first, and
        // keeps its place after a cancel and a re-admission in the
        // opposite order.
        let route = |ids: &[u32]| Route::from_ids(ids.iter().copied()).unwrap();
        let (to_2, to_3) = (route(&[0, 1, 2]), route(&[0, 1, 3]));
        let id = FlowId(7);
        let serve_first_link = |tr: &mut RemainingTraffic| {
            tr.apply_budgets(&[(NodeId(0), NodeId(1), 5)]);
            waiting(tr)
        };
        let mut tr = RemainingTraffic::from_subflows(std::iter::empty(), HopWeighting::Uniform);
        tr.admit_subflows([(id, to_2.clone(), 0, 5), (id, to_3.clone(), 0, 5)])
            .unwrap();
        let served_to_2 = vec![(7, vec![0, 1, 2], 1, 5), (7, vec![0, 1, 3], 0, 5)];
        assert_eq!(serve_first_link(&mut tr), served_to_2);
        assert_eq!(tr.cancel_flow(id).0, 10);
        tr.admit_subflows([(id, to_3, 0, 5)]).unwrap();
        tr.admit_subflows([(id, to_2, 0, 5)]).unwrap();
        assert_eq!(serve_first_link(&mut tr), served_to_2);
    }

    #[test]
    fn all_drained_snapshot_releases_arena_garbage() {
        // Threshold edge (satellite of ISSUE 7): with every span tombstoned,
        // the `spans.len()` term used to park garbage just under the span
        // count forever. Drain 40 single-class links and require the arenas
        // to actually empty.
        let mut q =
            LinkQueues::from_weighted_counts(64, (0..40u32).map(|k| ((k, k + 1), 1.0, 5u64)));
        for k in 0..40u32 {
            q.set_link(k, &mut []);
            assert_live_bits_match_spans(&q);
        }
        let (live, len, _) = q.arena_usage();
        assert_eq!(live, 0);
        assert_eq!(len, 0, "all-drained snapshot must drop its garbage");
        assert!(q.is_empty());
        // The zeroed spans must still be patchable and readable.
        q.set_link(7, &mut [(2.0, 3)]);
        assert_live_bits_match_spans(&q);
        assert_eq!(q.queue(7, 8).unwrap().total_packets(), 3);
        assert_snapshots_equal(
            &q,
            &LinkQueues::from_weighted_counts(64, [((7, 8), 2.0, 3u64)]),
        );
    }

    #[test]
    fn single_giant_link_churn_keeps_garbage_amortized() {
        // One link owning almost the whole arena: growth patches append a
        // full copy each time. Pin the amortization invariant — after every
        // patch, garbage never exceeds max(live, spans, 32) — and that the
        // queue keeps answering exactly.
        let mut q = LinkQueues::from_weighted_counts(
            4,
            (0..100u64).map(|k| ((0, 1), 1.0 + k as f64, k + 1)),
        );
        for round in 0..50u64 {
            let n_classes = 50 + (round * 13) % 51; // 50..=100, hits both directions
            let pairs: Vec<(f64, u64)> = (0..n_classes).map(|k| (1.0 + k as f64, k + 1)).collect();
            q.set_link(0, &mut pairs.clone());
            let (live, len, _) = q.arena_usage();
            let garbage = len - live;
            assert!(
                garbage <= live.max(2).max(32),
                "round {round}: garbage {garbage} outgrew live {live}"
            );
            assert_snapshots_equal(
                &q,
                &LinkQueues::from_weighted_counts(4, pairs.iter().map(|&(w, c)| ((0, 1), w, c))),
            );
        }
    }

    // ---- stable link ids ----

    /// One event per link of complete `n`, in shuffled order: a flow of 1–3
    /// hops whose route crosses that link at a random hop, with 1–9
    /// packets waiting at a random position. Every fourth event reuses the
    /// ID of the event three before it on its own route, both waiting at
    /// position 0, so some IDs sit on two routes at one position.
    fn shuffled_link_admissions(n: u32, seed: u64) -> Vec<(FlowId, Route, u32, u64)> {
        use rand::seq::SliceRandom;
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut links: Vec<(u32, u32)> = (0..n)
            .flat_map(|i| (0..n).filter(move |&j| j != i).map(move |j| (i, j)))
            .collect();
        links.shuffle(&mut rng);
        let mut events: Vec<(FlowId, Route, u32, u64)> = Vec::with_capacity(links.len());
        for (k, &(i, j)) in links.iter().enumerate() {
            let hops = rng.gen_range(1..=3usize);
            let before = rng.gen_range(0..hops);
            let mut nodes = vec![i, j];
            let fresh = |nodes: &[u32], rng: &mut rand::rngs::StdRng| loop {
                let v = rng.gen_range(0..n);
                if !nodes.contains(&v) {
                    break v;
                }
            };
            for _ in 0..before {
                let v = fresh(&nodes, &mut rng);
                nodes.insert(0, v);
            }
            while nodes.len() <= hops {
                let v = fresh(&nodes, &mut rng);
                nodes.push(v);
            }
            let route = Route::from_ids(nodes).unwrap();
            let shared = k % 4 == 3;
            let id = if shared {
                events[k - 3].0
            } else {
                FlowId(k as u64)
            };
            let pos = if shared || k % 4 == 0 {
                0
            } else {
                rng.gen_range(0..route.hops())
            };
            events.push((id, route, pos, rng.gen_range(1..=9)));
        }
        events
    }

    /// One 300-slot window planned by `engine`, whose Δ is 10: its
    /// configurations and the plan's ψ bits.
    fn plan(engine: &mut ScheduleEngine<RemainingTraffic>) -> (octopus_net::Schedule, u64) {
        use crate::engine::BipartiteFabric;
        let cfg = crate::OctopusConfig {
            window: 300,
            delta: 10,
            ..crate::OctopusConfig::default()
        };
        assert_eq!(engine.delta(), cfg.delta);
        let run = engine
            .plan_window(
                &mut BipartiteFabric { kind: cfg.matching },
                &cfg.search_policy(),
                cfg.window,
            )
            .unwrap();
        (run.schedule, engine.source().planned_psi().to_bits())
    }

    /// One window planned on a copy of `tr` ([`plan`]).
    fn planned_window(tr: &RemainingTraffic, n: u32) -> (octopus_net::Schedule, u64) {
        plan(&mut ScheduleEngine::new(tr.clone(), n, 10))
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Asserts that `q` sweeps exactly as `cold` does over `cold`'s
    /// candidates, with a per-link bonus: the same edges and row index,
    /// and the same fused bounds and columns, bit for bit.
    fn assert_sweeps_equal(q: &LinkQueues, cold: &LinkQueues, at: &str) {
        let alphas = cold.alpha_candidates(400);
        assert_eq!(q.alpha_candidates(400), alphas, "{at}");
        let extra = |(i, j): (u32, u32)| u64::from((i + j) % 3 == 0) * 7;
        let a = q.weighted_edges_multi_with(&alphas, extra);
        let b = cold.weighted_edges_multi_with(&alphas, extra);
        assert_eq!(a.edges(), b.edges(), "{at}");
        assert!(a.row_ranges().eq(b.row_ranges()), "{at}");
        let (mut fa, mut fb) = (FusedBounds::default(), FusedBounds::default());
        a.fused_bounds(&mut fa);
        b.fused_bounds(&mut fb);
        assert_eq!(bits(&fa.row_col), bits(&fb.row_col), "{at}");
        let ks: Vec<usize> = (0..alphas.len()).collect();
        let (mut ca, mut cb) = (Vec::new(), Vec::new());
        a.fill_columns(&ks, &mut ca);
        b.fill_columns(&ks, &mut cb);
        assert_eq!(bits(&ca), bits(&cb), "{at}");
    }

    #[test]
    fn links_interned_out_of_key_order_sweep_like_a_cold_snapshot() {
        // A live snapshot starts on the links from sources 6..18 to even
        // destinations (over 128 ids, so three bitset words), every fifth
        // then drained to a tombstone. Every other link of complete n = 24
        // is then admitted one at a time in shuffled order, so a new key
        // sorts before, between or after the keys already held, and every
        // tenth admission is cancelled again. After every patch the live
        // snapshot, whose ids are out of key order, must sweep as a cold,
        // key-ordered load of the same sub-flows does.
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let n = 24u32;
        // Flow `k` on link (i, j): one hop, and on every third link also a
        // two-hop flow waiting at its second hop, which weighs half as much.
        let events = |k: usize, (i, j): (u32, u32)| {
            let id = FlowId(2 * k as u64);
            let mut v = vec![(id, Route::from_ids([i, j]).unwrap(), 0, 1 + k as u64 % 7)];
            if k % 3 == 0 {
                let m = (0..n).find(|&m| m != i && m != j).unwrap();
                let route = Route::from_ids([m, i, j]).unwrap();
                v.push((FlowId(2 * k as u64 + 1), route, 1, 2 + k as u64 % 5));
            }
            v
        };
        let (old, mut new): (Vec<_>, Vec<_>) = (0..n)
            .flat_map(|i| (0..n).filter(move |&j| j != i).map(move |j| (i, j)))
            .partition(|&(i, j)| (6..18).contains(&i) && j % 2 == 0);
        new.shuffle(&mut rand::rngs::StdRng::seed_from_u64(5));
        let tr = RemainingTraffic::from_subflows(
            old.iter()
                .enumerate()
                .flat_map(|(k, &link)| events(k, link)),
            HopWeighting::Uniform,
        );
        let mut engine = ScheduleEngine::new(tr, n, 10);
        assert!(engine.queues().keys.len() > 128);
        let check = |engine: &mut ScheduleEngine<RemainingTraffic>, at: &str| {
            let cold =
                RemainingTraffic::from_subflows(engine.source().subflows(), HopWeighting::Uniform)
                    .link_queues(n);
            let q = engine.queues();
            assert_live_bits_match_spans(q);
            assert_snapshots_equal(q, &cold);
            assert_sweeps_equal(q, &cold, at);
        };
        for &(i, j) in old.iter().step_by(5) {
            engine.commit_budgets(&[(NodeId(i), NodeId(j), 100)]);
            check(&mut engine, &format!("drained ({i}, {j})"));
        }
        for (k, &link) in new.iter().enumerate() {
            let k = old.len() + k;
            engine
                .update_source(|tr, dirty| tr.admit_subflows_into(events(k, link), dirty))
                .unwrap();
            check(&mut engine, &format!("admitted {link:?}"));
            if k % 10 == 0 {
                engine.update_source(|tr, dirty| tr.cancel_flow_into(FlowId(2 * k as u64), dirty));
                check(&mut engine, &format!("cancelled {link:?}"));
            }
        }
        let keys = &engine.queues().keys;
        assert_eq!(keys.len(), (n * (n - 1)) as usize);
        assert!(keys.windows(2).any(|w| w[0] > w[1]), "ids follow key order");
    }

    #[test]
    fn links_interned_one_admission_at_a_time_plan_like_a_cold_load() {
        // A plan that learns its fabric one admission at a time numbers its
        // links in admission order, a cold load in key order; everything
        // read from either must agree after every admission, with and
        // without a live snapshot patched along.
        for (n, seed) in [(8u32, 1u64), (10, 2), (12, 3)] {
            let events = shuffled_link_admissions(n, seed);
            for live in [false, true] {
                let tr = RemainingTraffic::from_subflows(std::iter::empty(), HopWeighting::Uniform);
                let mut engine = ScheduleEngine::new(tr, n, 10);
                if live {
                    assert!(engine.queues().is_empty());
                }
                for (k, event) in events.iter().enumerate() {
                    engine
                        .update_source(|tr, dirty| tr.admit_subflows_into([event.clone()], dirty))
                        .unwrap();
                    let cold = RemainingTraffic::from_subflows(
                        events[..=k].iter().cloned(),
                        HopWeighting::Uniform,
                    );
                    let tr = engine.source();
                    let at = format!("n = {n}, live = {live}, event {k}");
                    assert_eq!(tr.subflows(), cold.subflows(), "{at}");
                    assert_eq!(replay_key(tr), replay_key(&cold), "{at}");
                    assert_eq!(planned_window(tr, n), planned_window(&cold, n), "{at}");
                    let want = cold.link_queues(n);
                    assert_snapshots_equal(&tr.link_queues(n), &want);
                    if live {
                        let q = engine.queues();
                        assert_live_bits_match_spans(q);
                        assert_snapshots_equal(q, &want);
                    }
                }
                assert_eq!(engine.source().interned_links(), (n * (n - 1)) as usize);
            }
        }
    }

    #[test]
    #[ignore = "release-size oracle: 65 280 links interned one admission at a time"]
    fn links_interned_one_admission_at_a_time_at_real_size() {
        // The live snapshot numbers the links in admission order, so the
        // window planned on it sorts its sweep by key at every select.
        let n = 256u32;
        let events = shuffled_link_admissions(n, 7);
        let tr = RemainingTraffic::from_subflows(std::iter::empty(), HopWeighting::Uniform);
        let mut engine = ScheduleEngine::new(tr, n, 10);
        engine.queues();
        for event in &events {
            engine
                .update_source(|tr, dirty| tr.admit_subflows_into([event.clone()], dirty))
                .unwrap();
        }
        assert_eq!(engine.source().interned_links(), 65_280);
        let cold = RemainingTraffic::from_subflows(events, HopWeighting::Uniform);
        assert_eq!(engine.source().subflows(), cold.subflows());
        assert_snapshots_equal(engine.queues(), &cold.link_queues(n));
        let (schedule, psi) = plan(&mut engine);
        assert!(!schedule.is_empty());
        assert_eq!((schedule, psi), planned_window(&cold, n));
    }

    #[test]
    fn links_over_the_largest_node_ids_intern_look_up_and_cancel() {
        // Nothing in the link table is sized by a node ID: routes over the
        // top of the ID range intern, look up and cancel like any other,
        // and a fresh link never renumbers an interned one.
        let top = u32::MAX;
        let route = |ids: &[u32]| Route::from_ids(ids.iter().copied()).unwrap();
        let mut expected = vec![
            (FlowId(1), route(&[top - 1, top - 3, 0]), 0, 5),
            (FlowId(2), route(&[0, top]), 0, 3),
        ];
        let mut tr = RemainingTraffic::from_subflows(expected.clone(), HopWeighting::Uniform);
        let check = |tr: &RemainingTraffic, expected: &[(FlowId, Route, u32, u64)]| {
            let cold = RemainingTraffic::from_subflows(expected.to_vec(), HopWeighting::Uniform);
            assert_eq!(tr.subflows(), cold.subflows());
            assert_eq!(tr.remaining_packets(), cold.remaining_packets());
            assert_snapshots_equal(&tr.link_queues(0), &cold.link_queues(0));
        };
        let ids_before = tr.flow_links.clone();

        // New links below, between and above the interned ones, a new
        // source at the very top among them.
        let batch = [
            (FlowId(3), route(&[top, top - 1, 1]), 0, 4),
            (FlowId(1), route(&[top - 3, top - 2]), 0, 2),
        ];
        let dirty = tr.admit_subflows(batch.clone()).unwrap();
        assert_eq!(
            keys_of(&tr, &dirty),
            vec![(top - 3, top - 2), (top, top - 1)]
        );
        expected.extend(batch);
        assert_eq!(tr.flow_links[..ids_before.len()], ids_before[..]);
        assert_eq!(tr.interned_links(), 6);
        check(&tr, &expected);

        // Serving a link at the top looks it up through the table.
        let dirty = served(&mut tr, &[(NodeId(top), NodeId(top - 1), 3)]);
        assert_eq!(keys_of(&tr, &dirty), vec![(top - 1, 1), (top, top - 1)]);
        assert_eq!(refreshed_packets(&tr, (top, top - 1)), 1);
        assert_eq!(refreshed_packets(&tr, (top - 1, 1)), 3);
        expected[2].3 = 1;
        expected.push((FlowId(3), route(&[top, top - 1, 1]), 1, 3));
        check(&tr, &expected);

        // Cancelling flow 1 empties both of its routes.
        let (removed, dirty) = tr.cancel_flow(FlowId(1));
        assert_eq!(removed, 7);
        assert_eq!(
            keys_of(&tr, &dirty),
            vec![(top - 3, top - 2), (top - 1, top - 3)]
        );
        expected.retain(|e| e.0 != FlowId(1));
        check(&tr, &expected);
        assert_eq!(refreshed_packets(&tr, (top - 1, top - 3)), 0);
        assert_eq!(tr.interned_links(), 6);
    }
}
