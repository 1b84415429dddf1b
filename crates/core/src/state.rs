//! Remaining-traffic bookkeeping `T^r` and the per-link queue snapshots that
//! the `g()`/`h()` functions of §4.1 are computed from.
//!
//! `T^r` represents the *planned* position of every packet after the
//! configurations chosen so far: a multiset of sub-flows
//! `(flow, position, count)` where `position` indexes the flow's route. The
//! scheduler never touches real packets — this is the controller-side
//! bookkeeping that makes the chosen schedule deterministic, thanks to the
//! fixed packet-prioritization rule (weight first, then flow ID).
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
//! * every fabric link a route can cross is *interned* into a sorted
//!   `Vec<(u32, u32)>`; the dense index into that vec is the link's
//!   `LinkId`, and each flow precomputes the `LinkId` of every hop. The key
//!   vector is seeded at load and **may grow mid-window**: admitting a flow
//!   whose route crosses an unknown link sorted-inserts the new keys and
//!   remaps every stored `LinkId` in one pass
//!   ([`RemainingTraffic::admit_subflows`]);
//! * `T^r` keeps one flat row `Vec<((flow index, position), count)>` per
//!   `LinkId`, sorted by key — the same total order the old per-link
//!   `BTreeMap` iterated in, so schedules are bit-identical by construction;
//! * [`LinkQueues`] is a CSR: the sorted link keys in one vec, a parallel
//!   `(offset, len)` span per link, and three contiguous arenas holding the
//!   weight classes and their prefix sums. Patching a link rewrites its span
//!   in place (or appends and later compacts) instead of rebalancing a tree.
//!
//! Determinism note (enforced by `clippy::iter_over_hash_type`,
//! `clippy::disallowed_methods` and `clippy::disallowed_types`): everything
//! that is ever *iterated* on a scheduling path walks these sorted vecs, so
//! iteration order is a fixed total order independent of hasher seeds and
//! insertion history. `HashMap` remains only for pure point lookups
//! (`from_subflows`' dedup index, `advance_chained`'s flow-id index), which
//! cannot observe iteration order.

use crate::SchedError;
use octopus_net::NodeId;
use octopus_traffic::{FlowId, HopWeighting, Route, TrafficLoad, Weight};
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

/// The directed fabric link a route's `pos`-th hop crosses.
fn link_of(route: &Route, pos: u32) -> (u32, u32) {
    let (i, j) = route.hop(pos);
    (i.0, j.0)
}

/// The remaining traffic `T^r` for single-route loads.
#[derive(Debug, Clone)]
pub struct RemainingTraffic {
    flows: Vec<FlowMeta>,
    /// Interned `LinkId` of every flow's every hop, flow-major; flow `fi`'s
    /// hop `pos` lives at `flow_links[flows[fi].link_off + pos]`.
    flow_links: Vec<u32>,
    /// Every link any route can cross, sorted ascending. The index into
    /// this vec is the dense `LinkId`; the sorted order is what keeps every
    /// link iteration on the same fixed total order the old `BTreeMap` had.
    /// Grows on mid-window admission (with a full `LinkId` remap); never
    /// shrinks.
    link_keys: Vec<(u32, u32)>,
    /// Per `LinkId`: `((flow index, position), packets)` planned to sit at
    /// `route[position]`, waiting to cross this link. Sorted by key.
    rows: Vec<Vec<((u32, u32), u64)>>,
    weighting: HopWeighting,
    delivered: u64,
    total: u64,
    psi: f64,
    /// Lazy flow-ID index for the streaming entry points (admit/cancel):
    /// flow id → indices into `flows`. Point lookups only — never iterated
    /// on a scheduling path, so hasher order cannot leak into schedules
    /// (L1-safe). Built on first use; `None` for pure batch runs.
    index: Option<HashMap<FlowId, Vec<u32>>>,
}

impl RemainingTraffic {
    /// Interns the union of all route hops: returns the sorted link-key vec
    /// and the flow-major per-hop `LinkId` table, setting each flow's
    /// `link_off`.
    fn intern(flows: &mut [FlowMeta]) -> (Vec<(u32, u32)>, Vec<u32>) {
        let total_hops: usize = flows.iter().map(|m| m.hops as usize).sum();
        let mut keys: Vec<(u32, u32)> = Vec::with_capacity(total_hops);
        for m in flows.iter() {
            for pos in 0..m.hops {
                keys.push(link_of(&m.route, pos));
            }
        }
        keys.sort_unstable();
        keys.dedup();
        let mut flow_links = Vec::with_capacity(total_hops);
        for m in flows.iter_mut() {
            m.link_off = flow_links.len() as u32;
            for pos in 0..m.hops {
                let link = link_of(&m.route, pos);
                // Every hop was just inserted, so the search always hits;
                // `unwrap_or_else(|i| i)` keeps this panic-free by
                // construction rather than by `.expect`.
                let li = keys.binary_search(&link).unwrap_or_else(|i| i);
                debug_assert_eq!(keys.get(li), Some(&link));
                flow_links.push(li as u32);
            }
        }
        (keys, flow_links)
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
        let (link_keys, flow_links) = Self::intern(&mut flows);
        let rows = vec![Vec::new(); link_keys.len()];
        let mut tr = RemainingTraffic {
            flows,
            flow_links,
            link_keys,
            rows,
            weighting,
            delivered: 0,
            total: load.total_packets(),
            psi: 0.0,
            index: None,
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
        let (link_keys, flow_links) = Self::intern(&mut flows);
        let rows = vec![Vec::new(); link_keys.len()];
        let mut tr = RemainingTraffic {
            flows,
            flow_links,
            link_keys,
            rows,
            weighting,
            delivered: 0,
            total,
            psi: 0.0,
            index: None,
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

    /// Links interned into the key vector so far. Seeded at load, grows on
    /// [`RemainingTraffic::admit_subflows`]; never shrinks.
    pub fn interned_links(&self) -> usize {
        self.link_keys.len()
    }

    /// Feeds `word` everything about this plan that the greedy window loop
    /// reads, so two plans feeding the same words plan the same window: the
    /// interned-key generation, the hop weighting, and every waiting
    /// sub-flow in packet-priority tie-break order (flow ID, then row) as
    /// its position, hop count, packet count and remaining route suffix.
    /// Flow IDs themselves are left out, since only their order can steer a
    /// plan. The key of the schedule cache ([`crate::memo`]).
    pub fn replay_key(&self, mut word: impl FnMut(u64)) {
        word(self.link_keys.len() as u64);
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

    /// The queue entries currently waiting on `link`.
    fn entries_on(&self, link: (u32, u32)) -> Option<Vec<QueueEntry>> {
        let li = self.link_keys.binary_search(&link).ok()?;
        let row = &self.rows[li];
        if row.is_empty() {
            return None;
        }
        Some(
            row.iter()
                .map(|&((fi, pos), count)| {
                    let meta = &self.flows[fi as usize];
                    debug_assert!(pos < meta.hops, "delivered packets leave the rows");
                    (
                        self.weighting.hop_weight(meta.hops, pos),
                        meta.id,
                        fi,
                        pos,
                        count,
                    )
                })
                .collect(),
        )
    }

    /// Builds the per-link queue snapshot used to compute `g`, `h` and the
    /// candidate α set for the current iteration. One pass over the sorted
    /// link rows, appending straight into the snapshot's arena — no
    /// intermediate per-link maps.
    pub fn link_queues(&self, n: u32) -> LinkQueues {
        let slots: usize = self.rows.iter().map(Vec::len).sum();
        let mut q = LinkQueues::with_capacity(n, self.link_keys.len(), slots);
        let mut entries: Vec<QueueEntry> = Vec::new();
        for (li, row) in self.rows.iter().enumerate() {
            if row.is_empty() {
                // Intern the key even when nothing queues there yet: packets
                // advancing onto this link later then patch an existing span
                // in place instead of memmoving the sorted key vector.
                q.push_empty_link(self.link_keys[li]);
                continue;
            }
            entries.clear();
            entries.extend(row.iter().map(|&((fi, pos), count)| {
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
            q.push_link_entries(self.link_keys[li], &mut entries);
        }
        q
    }

    /// Re-derives the queue of a single link from the current plan, or
    /// `None` if nothing waits there any more. The incremental engine calls
    /// this for exactly the links touched by an applied configuration.
    pub(crate) fn refresh_link(&self, link: (u32, u32)) -> Option<LinkQueue> {
        self.entries_on(link).map(LinkQueue::from_entries)
    }

    /// Applies a chosen configuration `(M, α)` to the plan: on every link of
    /// `M`, the top-α waiting packets (by weight, then flow ID) advance one
    /// hop. Returns the benefit actually realized (the configuration's
    /// contribution to ψ).
    pub fn apply(&mut self, links: &[(NodeId, NodeId)], alpha: u64) -> f64 {
        let with_budgets: Vec<(NodeId, NodeId, u64)> =
            links.iter().map(|&(i, j)| (i, j, alpha)).collect();
        self.apply_budgets(&with_budgets)
    }

    /// Like [`RemainingTraffic::apply`], but with a per-link slot budget —
    /// used by the localized-reconfiguration extension, where links that
    /// persist from the previous configuration also serve during the Δ
    /// transition and thus get `α + Δ` slots.
    pub fn apply_budgets(&mut self, links: &[(NodeId, NodeId, u64)]) -> f64 {
        self.apply_budgets_tracked(links).0
    }

    /// [`RemainingTraffic::apply_budgets`] that also reports the movements
    /// it made as `(flow index, from-position, count, hop weight)` tuples,
    /// so the incremental engine can compute which links changed.
    pub(crate) fn apply_budgets_tracked(
        &mut self,
        links: &[(NodeId, NodeId, u64)],
    ) -> (f64, Vec<(u32, u32, u64, f64)>) {
        let mut gained = 0.0;
        // Movements are collected first so that chained links inside one
        // matching (e.g. (d,a) and (a,b)) do not let a packet traverse two
        // hops in one configuration — §4's bookkeeping moves each packet at
        // most one hop per configuration. A link listed twice is served once.
        let mut served: std::collections::HashSet<(NodeId, NodeId)> = Default::default();
        let mut moves: Vec<(u32, u32, u64, f64)> = Vec::new();
        for &(i, j, link_budget) in links {
            if !served.insert((i, j)) {
                continue;
            }
            let Some(mut cands) = self.entries_on((i.0, j.0)) else {
                continue;
            };
            cands.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
            let mut budget = link_budget;
            for (w, _, fi, pos, count) in cands {
                if budget == 0 {
                    break;
                }
                let take = count.min(budget);
                budget -= take;
                moves.push((fi, pos, take, w.value()));
            }
        }
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
        (gained, moves)
    }

    /// The links whose queues changed under the given movements: each moved
    /// group leaves its origin link and (unless delivered) lands on the next
    /// hop's link. Sorted, deduplicated.
    pub(crate) fn dirty_links(&self, moves: &[(u32, u32, u64, f64)]) -> Vec<(u32, u32)> {
        let mut dirty: Vec<(u32, u32)> = Vec::with_capacity(moves.len() * 2);
        for &(fi, pos, _, _) in moves {
            let meta = &self.flows[fi as usize];
            dirty.push(link_of(&meta.route, pos));
            if pos + 1 < meta.hops {
                dirty.push(link_of(&meta.route, pos + 1));
            }
        }
        dirty.sort_unstable();
        dirty.dedup();
        dirty
    }

    /// Snapshot of the current sub-flows as `(flow id, route, position,
    /// count)` tuples, sorted deterministically. Used by the chain-aware
    /// configuration selection of §5 (Theorem 2).
    pub fn subflows(&self) -> Vec<(FlowId, Route, u32, u64)> {
        let mut v: Vec<(FlowId, Route, u32, u64)> = self
            .rows
            .iter()
            .flat_map(|row| row.iter())
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
    /// configuration here (§5). ψ gains the weight of every traversed hop.
    /// Returns the links whose queues changed (origin and landing links;
    /// intermediate hops hold no packets before or after).
    pub(crate) fn advance_chained(
        &mut self,
        moves: &[(FlowId, Route, u32, u32, u64)],
    ) -> Vec<(u32, u32)> {
        let index: HashMap<FlowId, u32> = self
            .flows
            .iter()
            .enumerate()
            .map(|(i, m)| (m.id, i as u32))
            .collect();
        let mut dirty: Vec<(u32, u32)> = Vec::with_capacity(moves.len() * 2);
        for &(id, ref _route, pos, advanced, count) in moves {
            debug_assert!(advanced > 0);
            let Some(&fi) = index.get(&id) else {
                debug_assert!(false, "chained move names an unknown flow {id}");
                continue;
            };
            dirty.push(link_of(&self.flows[fi as usize].route, pos));
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
                dirty.push(link_of(&self.flows[fi as usize].route, new_pos));
                self.add(fi, new_pos, count);
            }
        }
        dirty.sort_unstable();
        dirty.dedup();
        dirty
    }

    /// Builds the flow-ID point-lookup index on first use. Admissions keep
    /// it current afterwards; nothing else mutates `flows`, so once built it
    /// never goes stale.
    fn ensure_index(&mut self) {
        if self.index.is_some() {
            return;
        }
        let mut idx: HashMap<FlowId, Vec<u32>> = HashMap::with_capacity(self.flows.len());
        for (fi, m) in self.flows.iter().enumerate() {
            idx.entry(m.id).or_default().push(fi as u32);
        }
        self.index = Some(idx);
    }

    /// The bookkeeping row for `(id, route)`, if one exists.
    fn flow_index_of(&self, id: FlowId, route: &Route) -> Option<u32> {
        self.index
            .as_ref()
            .and_then(|idx| idx.get(&id))
            .and_then(|cands| {
                cands
                    .iter()
                    .copied()
                    .find(|&fi| self.flows[fi as usize].route == *route)
            })
    }

    /// Interns link keys not yet present: one sorted merge into
    /// `link_keys`/`rows`, then a dense remap of every stored per-hop
    /// `LinkId` (an id at or past an insertion point shifts up by the number
    /// of fresh keys inserted before it). `O(links + hops)` per batch, not
    /// per key — the mid-window growth path the layout originally forbade.
    fn intern_new_links(&mut self, mut fresh: Vec<(u32, u32)>) {
        fresh.sort_unstable();
        fresh.dedup();
        fresh.retain(|k| self.link_keys.binary_search(k).is_err());
        if fresh.is_empty() {
            return;
        }
        let old_keys = std::mem::take(&mut self.link_keys);
        let old_rows = std::mem::take(&mut self.rows);
        // shift[i] = number of fresh keys sorting before old key `i`.
        let mut shift = vec![0u32; old_keys.len()];
        self.link_keys.reserve(old_keys.len() + fresh.len());
        self.rows.reserve(old_rows.len() + fresh.len());
        let mut fresh_it = fresh.into_iter().peekable();
        let mut inserted = 0u32;
        for (i, (key, row)) in old_keys.into_iter().zip(old_rows).enumerate() {
            while let Some(k) = fresh_it.next_if(|&k| k < key) {
                self.link_keys.push(k);
                self.rows.push(Vec::new());
                inserted += 1;
            }
            shift[i] = inserted;
            self.link_keys.push(key);
            self.rows.push(row);
        }
        for k in fresh_it {
            self.link_keys.push(k);
            self.rows.push(Vec::new());
        }
        for l in &mut self.flow_links {
            *l += shift[*l as usize];
        }
    }

    /// Admits sub-flows `(flow id, route, position, count)` into a live
    /// plan — the streaming counterpart of [`RemainingTraffic::from_subflows`].
    /// Routes crossing links the plan has never seen grow the interned key
    /// vector in place (see [`RemainingTraffic::intern_new_links`]). Entries
    /// matching an existing `(id, route)` row merge into it, so re-admitting
    /// traffic for a live flow accumulates bit-identically to having loaded
    /// the merged counts cold (`w*c1 + w*c2` summed per entry would not).
    ///
    /// Returns the links whose queues changed, sorted and deduplicated —
    /// feed them to [`crate::ScheduleEngine::patch_links`] to bring a live
    /// snapshot back in sync.
    ///
    /// # Errors
    /// [`SchedError::PositionBeyondRoute`] if any entry's position is at or
    /// past its route's end, [`SchedError::PacketCountOverflow`] if the
    /// plan's packet total would pass `u64::MAX`; the plan is untouched on
    /// error.
    pub fn admit_subflows(
        &mut self,
        subflows: impl IntoIterator<Item = (FlowId, Route, u32, u64)>,
    ) -> Result<Vec<(u32, u32)>, SchedError> {
        let incoming: Vec<(FlowId, Route, u32, u64)> = subflows
            .into_iter()
            .filter(|&(_, _, _, count)| count > 0)
            .collect();
        // Validate everything before mutating anything: an error mid-batch
        // must not leave a half-admitted plan.
        for &(id, ref route, pos, _) in &incoming {
            if pos >= route.hops() {
                return Err(SchedError::PositionBeyondRoute { flow: id, pos });
            }
        }
        let total = incoming
            .iter()
            .try_fold(self.total, |t, &(.., count)| t.checked_add(count))
            .ok_or(SchedError::PacketCountOverflow)?;
        if incoming.is_empty() {
            return Ok(Vec::new());
        }
        self.ensure_index();
        let first_new = self.flows.len();
        let mut staged: Vec<(u32, u32, u64)> = Vec::with_capacity(incoming.len());
        let mut fresh_keys: Vec<(u32, u32)> = Vec::new();
        for (id, route, pos, count) in incoming {
            let fi = match self.flow_index_of(id, &route) {
                Some(fi) => fi,
                None => {
                    let fi = self.flows.len() as u32;
                    let hops = route.hops();
                    for p in 0..hops {
                        fresh_keys.push(link_of(&route, p));
                    }
                    self.flows.push(FlowMeta {
                        id,
                        route,
                        hops,
                        // Assigned below, after the key merge: hop ids of a
                        // new flow are only meaningful post-remap.
                        link_off: u32::MAX,
                    });
                    if let Some(idx) = self.index.as_mut() {
                        idx.entry(id).or_default().push(fi);
                    }
                    fi
                }
            };
            staged.push((fi, pos, count));
        }
        self.total = total;
        self.intern_new_links(fresh_keys);
        for fi in first_new..self.flows.len() {
            let link_off = self.flow_links.len() as u32;
            let (hops, route) = {
                let m = &self.flows[fi];
                (m.hops, m.route.clone())
            };
            for pos in 0..hops {
                let link = link_of(&route, pos);
                // The key was just interned, so the search always hits;
                // `unwrap_or_else(|i| i)` keeps this panic-free by
                // construction (mirrors `intern`).
                let li = self.link_keys.binary_search(&link).unwrap_or_else(|i| i);
                debug_assert_eq!(self.link_keys.get(li), Some(&link));
                self.flow_links.push(li as u32);
            }
            self.flows[fi].link_off = link_off;
        }
        let mut dirty: Vec<(u32, u32)> = Vec::with_capacity(staged.len());
        for (fi, pos, count) in staged {
            self.add(fi, pos, count);
            dirty.push(self.link_keys[self.link_id(fi, pos) as usize]);
        }
        dirty.sort_unstable();
        dirty.dedup();
        Ok(dirty)
    }

    /// Cancels every sub-flow of `id` still waiting in the plan: the
    /// packets vanish from `T^r` and from the total (they were never
    /// delivered, so ψ and the delivered count are untouched). The flow's
    /// bookkeeping row stays (indices are stable); a later re-admission of
    /// the same `(id, route)` reuses it.
    ///
    /// Returns `(packets removed, dirty links)` — the links, sorted and
    /// deduplicated, whose queues lost packets.
    pub fn cancel_flow(&mut self, id: FlowId) -> (u64, Vec<(u32, u32)>) {
        self.ensure_index();
        let fis: Vec<u32> = self
            .index
            .as_ref()
            .and_then(|idx| idx.get(&id))
            .cloned()
            .unwrap_or_default();
        let mut removed = 0u64;
        let mut dirty: Vec<(u32, u32)> = Vec::new();
        for fi in fis {
            let hops = self.flows[fi as usize].hops;
            for pos in 0..hops {
                let li = self.link_id(fi, pos) as usize;
                let row = &mut self.rows[li];
                if let Ok(k) = row.binary_search_by_key(&(fi, pos), |e| e.0) {
                    removed += row[k].1;
                    row.remove(k);
                    dirty.push(self.link_keys[li]);
                }
            }
        }
        self.total -= removed;
        dirty.sort_unstable();
        dirty.dedup();
        (removed, dirty)
    }
}

/// Snapshot of all non-empty link queues for one scheduler iteration.
///
/// For each fabric link `(i, j)`, the queue aggregates waiting packets into
/// *weight classes* sorted by descending weight. From it derive:
///
/// * `g(i, j, α)` — maximum total weight of α waiting packets
///   ([`LinkQueues::g`]);
/// * the candidate α set of Procedure 1 — per-link prefix counts at class
///   boundaries ([`LinkQueues::alpha_candidates`]);
/// * the weighted graph `G'` whose maximum matching is the best
///   configuration for a given α, swept over every candidate α at once
///   ([`LinkQueues::weighted_edges_multi`]).
///
/// # Storage: CSR link index + class arena
///
/// The snapshot is three parallel pieces: the sorted link keys
/// (`links`), one `(offset, len)` span per link (`spans`), and contiguous
/// arenas holding every link's weight classes and prefix sums back to back.
/// Each span's prefix sums restart at zero, so a span *is* a complete
/// [`LinkQueue`] laid out in shared storage; [`LinkQueues::queue`] hands out
/// a borrowed [`LinkQueueRef`] view of it.
///
/// The snapshot can be patched link-by-link ([`LinkQueues::set_link`]): the
/// class list of a link depends only on that link's waiting packets, so an
/// incremental rebuild of the touched links yields exactly the snapshot a
/// full rebuild would. A patch that fits its link's existing span rewrites
/// it in place; a growing patch appends to the arena tail and the stale
/// span becomes garbage, reclaimed by compaction once garbage outweighs
/// live data. A drained link keeps its key with a zero-length **tombstone**
/// span (every read path skips those) rather than shifting the sorted key
/// vector — commit storms touch thousands of links, and `O(links)` memmoves
/// per drain/refill would make patching quadratic. Every patch bumps
/// [`LinkQueues::generation`] so derived caches can detect staleness.
#[derive(Debug, Clone)]
pub struct LinkQueues {
    n: u32,
    /// Sorted `(i, j)` link keys; the CSR index.
    links: Vec<(u32, u32)>,
    /// Per-link `(offset, len)` span into the class arenas.
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
    /// Bumped on every [`LinkQueues::set_link`]; see the type docs.
    generation: u64,
}

/// One link's aggregated queue, owned. Produced by incremental refreshes
/// ([`crate::TrafficSource::refresh_link`]); inside a [`LinkQueues`]
/// snapshot the same data lives in the shared arena and is viewed through
/// [`LinkQueueRef`].
#[derive(Debug, Clone)]
pub struct LinkQueue {
    /// `(weight, packets)` per class, weight strictly descending.
    classes: Vec<(f64, u64)>,
    /// Cumulative packet counts at class boundaries.
    prefix_counts: Vec<u64>,
    /// Cumulative weight at class boundaries.
    prefix_weights: Vec<f64>,
}

/// A borrowed view of one link's queue inside a [`LinkQueues`] arena.
/// Offers the same read API as [`LinkQueue`].
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

    /// Copies the view into an owned [`LinkQueue`].
    pub fn to_owned(&self) -> LinkQueue {
        LinkQueue {
            classes: self.classes.to_vec(),
            prefix_counts: self.prefix_counts.to_vec(),
            prefix_weights: self.prefix_weights.to_vec(),
        }
    }
}

impl LinkQueue {
    /// The borrowed view of this queue (shared read API with arena spans).
    pub fn view(&self) -> LinkQueueRef<'_> {
        LinkQueueRef {
            classes: &self.classes,
            prefix_counts: &self.prefix_counts,
            prefix_weights: &self.prefix_weights,
        }
    }

    pub(crate) fn from_entries(mut entries: Vec<QueueEntry>) -> Self {
        entries.sort_unstable_by_key(|e| std::cmp::Reverse(e.0));
        Self::from_sorted(entries.into_iter().map(|(w, _, _, _, count)| (w, count)))
    }

    /// Builds one link's queue from `(weight, packets)` pairs — for traffic
    /// sources outside this crate that patch snapshots incrementally
    /// ([`crate::TrafficSource::refresh_link`]). Returns `None` when no
    /// packets remain, matching the snapshot builders' omission of empty
    /// links.
    pub fn from_weighted_counts(pairs: impl IntoIterator<Item = (f64, u64)>) -> Option<Self> {
        let mut entries: Vec<(Weight, u64)> = pairs
            .into_iter()
            .filter(|&(_, c)| c > 0)
            .map(|(w, c)| (Weight(w), c))
            .collect();
        if entries.is_empty() {
            return None;
        }
        entries.sort_unstable_by_key(|&(w, _)| std::cmp::Reverse(w));
        Some(Self::from_sorted(entries))
    }

    /// Folds weight-descending `(weight, packets)` pairs into classes (equal
    /// weights merge) and their prefix sums.
    #[expect(
        clippy::float_cmp,
        reason = "equal weights merge into one class only when bit-equal"
    )]
    fn from_sorted(entries: impl IntoIterator<Item = (Weight, u64)>) -> Self {
        let mut classes: Vec<(f64, u64)> = Vec::new();
        for (w, count) in entries {
            match classes.last_mut() {
                Some((cw, cc)) if *cw == w.value() => *cc += count,
                _ => classes.push((w.value(), count)),
            }
        }
        let mut prefix_counts = Vec::with_capacity(classes.len());
        let mut prefix_weights = Vec::with_capacity(classes.len());
        let (mut pc, mut pw) = (0u64, 0.0f64);
        for &(w, c) in &classes {
            pc += c;
            pw += w * c as f64;
            prefix_counts.push(pc);
            prefix_weights.push(pw);
        }
        LinkQueue {
            classes,
            prefix_counts,
            prefix_weights,
        }
    }

    /// `g(α)`: maximum total weight of α waiting packets.
    pub fn g(&self, alpha: u64) -> f64 {
        self.view().g(alpha)
    }

    /// Total packets waiting on this link.
    pub fn total_packets(&self) -> u64 {
        self.view().total_packets()
    }

    /// The aggregated `(weight, packets)` classes, weight strictly
    /// descending. Exposed so equivalence tests can compare snapshots.
    pub fn classes(&self) -> &[(f64, u64)] {
        &self.classes
    }
}

impl LinkQueues {
    /// An empty snapshot with pre-sized storage.
    fn with_capacity(n: u32, links: usize, slots: usize) -> Self {
        LinkQueues {
            n,
            links: Vec::with_capacity(links),
            spans: Vec::with_capacity(links),
            classes: Vec::with_capacity(slots),
            prefix_counts: Vec::with_capacity(slots),
            prefix_weights: Vec::with_capacity(slots),
            live: 0,
            generation: 0,
        }
    }

    /// Appends one link's queue, aggregating `entries` into weight classes
    /// directly in the arena. Links must arrive in ascending key order (the
    /// builders iterate sorted rows, so this holds by construction).
    #[expect(
        clippy::float_cmp,
        reason = "equal weights merge into one class only when bit-equal"
    )]
    fn push_link_entries(&mut self, link: (u32, u32), entries: &mut [QueueEntry]) {
        debug_assert!(
            !self.links.last().is_some_and(|&l| l >= link),
            "links must be appended in ascending order"
        );
        debug_assert!(!entries.is_empty());
        entries.sort_unstable_by_key(|e| std::cmp::Reverse(e.0));
        let off = self.classes.len();
        for &(w, _, _, _, count) in entries.iter() {
            let wv = w.value();
            let top = self.classes.len();
            if top > off && self.classes[top - 1].0 == wv {
                self.classes[top - 1].1 += count;
            } else {
                self.classes.push((wv, count));
            }
        }
        // Prefix sums are computed after the merge, so each class
        // contributes exactly one `w * c` term — bit-identical to
        // [`LinkQueue::from_entries`].
        let (mut pc, mut pw) = (0u64, 0.0f64);
        for k in off..self.classes.len() {
            let (w, c) = self.classes[k];
            pc += c;
            pw += w * c as f64;
            self.prefix_counts.push(pc);
            self.prefix_weights.push(pw);
        }
        let len = self.classes.len() - off;
        self.links.push(link);
        self.spans.push((off as u32, len as u32));
        self.live += len;
    }

    /// Interns a key with an empty (tombstone) span: the link is known to
    /// the CSR index but queues nothing yet. Every read path skips it, so
    /// the snapshot behaves exactly as if the key were absent — but a later
    /// [`LinkQueues::set_link`] patch finds the key in place instead of
    /// memmoving the tail of the sorted key vector.
    fn push_empty_link(&mut self, link: (u32, u32)) {
        debug_assert!(
            !self.links.last().is_some_and(|&l| l >= link),
            "links must be appended in ascending order"
        );
        self.links.push(link);
        self.spans.push((self.classes.len() as u32, 0));
    }

    /// Builds a snapshot directly from `(link, weight, count)` triples —
    /// used by schedulers with their own `T^r` representation (Octopus+).
    pub fn from_weighted_counts(
        n: u32,
        triples: impl IntoIterator<Item = ((u32, u32), f64, u64)>,
    ) -> Self {
        let mut v: Vec<((u32, u32), f64, u64)> =
            triples.into_iter().filter(|&(_, _, c)| c > 0).collect();
        v.sort_by_key(|&(link, _, _)| link);
        let mut q = LinkQueues::with_capacity(n, 0, v.len());
        let mut entries: Vec<QueueEntry> = Vec::new();
        let mut idx = 0;
        while idx < v.len() {
            let link = v[idx].0;
            entries.clear();
            while idx < v.len() && v[idx].0 == link {
                entries.push((Weight(v[idx].1), FlowId(0), 0, 0, v[idx].2));
                idx += 1;
            }
            q.push_link_entries(link, &mut entries);
        }
        q
    }

    /// Fabric size the snapshot was built for.
    pub fn n(&self) -> u32 {
        self.n
    }

    /// Whether any packet waits on any link.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// The patch generation: bumped by every [`LinkQueues::set_link`], so
    /// state derived from a snapshot (sweeps, workspaces) can detect that
    /// the snapshot moved on. A freshly built snapshot starts at 0.
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

    /// The borrowed view of the span at CSR position `idx`.
    fn view_at(&self, idx: usize) -> LinkQueueRef<'_> {
        self.view_span(self.spans[idx])
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

    /// The queue of one link, if non-empty.
    pub fn queue(&self, i: u32, j: u32) -> Option<LinkQueueRef<'_>> {
        let idx = self.links.binary_search(&(i, j)).ok()?;
        (self.spans[idx].1 > 0).then(|| self.view_at(idx))
    }

    /// Replaces (or, with `None`, removes) one link's queue — the patch
    /// operation of the incremental engine. An update that fits the link's
    /// current span is written in place; a growing one appends to the arena
    /// tail. Stale slots are reclaimed once they outnumber live ones.
    pub fn set_link(&mut self, link: (u32, u32), queue: Option<LinkQueue>) {
        self.generation += 1;
        match (self.links.binary_search(&link), queue) {
            (Ok(idx), Some(q)) => {
                let (off, len) = self.spans[idx];
                let new_len = q.classes.len() as u32;
                if new_len <= len {
                    let o = off as usize;
                    let nl = new_len as usize;
                    self.classes[o..o + nl].copy_from_slice(&q.classes);
                    self.prefix_counts[o..o + nl].copy_from_slice(&q.prefix_counts);
                    self.prefix_weights[o..o + nl].copy_from_slice(&q.prefix_weights);
                    self.spans[idx] = (off, new_len);
                    self.live -= (len - new_len) as usize;
                } else {
                    let span = self.arena_append(&q);
                    self.spans[idx] = span;
                    self.live += new_len as usize;
                    self.live -= len as usize;
                }
            }
            (Ok(idx), None) => {
                // Tombstone: keep the key, zero the span. Removing would
                // memmove the tail of the sorted key vector on every drained
                // link — quadratic under commit storms.
                let (off, len) = self.spans[idx];
                self.spans[idx] = (off, 0);
                self.live -= len as usize;
            }
            (Err(idx), Some(q)) => {
                let span = self.arena_append(&q);
                self.links.insert(idx, link);
                self.spans.insert(idx, span);
                self.live += span.1 as usize;
            }
            (Err(_), None) => {}
        }
        self.maybe_compact();
    }

    /// Appends an owned queue's classes at the arena tail.
    fn arena_append(&mut self, q: &LinkQueue) -> (u32, u32) {
        let off = self.classes.len() as u32;
        self.classes.extend_from_slice(&q.classes);
        self.prefix_counts.extend_from_slice(&q.prefix_counts);
        self.prefix_weights.extend_from_slice(&q.prefix_weights);
        (off, q.classes.len() as u32)
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

    /// `g(i, j, α)` of §4.1.
    pub fn g(&self, i: u32, j: u32, alpha: u64) -> f64 {
        self.queue(i, j).map_or(0.0, |q| q.g(alpha))
    }

    /// CSR positions whose spans are live (ascending link order),
    /// skipping tombstones.
    fn live_indices(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.links.len()).filter(|&e| self.spans[e].1 > 0)
    }

    /// Iterates non-empty links (ascending).
    pub fn links(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.live_indices().map(|e| self.links[e])
    }

    /// The candidate α set of Procedure 1: union of per-link class-boundary
    /// prefix counts, clamped to `cap` (α values above the remaining window
    /// budget collapse onto `cap`, since the last configuration is truncated
    /// anyway). Sorted ascending, deduplicated.
    pub fn alpha_candidates(&self, cap: u64) -> Vec<u64> {
        let mut set: Vec<u64> = self
            .live_indices()
            .flat_map(|e| self.view_at(e).boundary_alphas().iter().copied())
            .map(|a| a.min(cap))
            .filter(|&a| a > 0)
            .collect();
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
    pub fn weighted_edges_multi_with(
        &self,
        alphas: &[u64],
        extra: impl Fn((u32, u32)) -> u64,
    ) -> MultiAlphaEdges<'_> {
        debug_assert!(
            alphas.windows(2).all(|w| w[0] <= w[1]),
            "alphas must be ascending"
        );
        let ne = self.live_indices().count();
        let mut edges = Vec::with_capacity(ne);
        let mut spans = Vec::with_capacity(ne);
        let mut bonus = Vec::with_capacity(ne);
        for idx in self.live_indices() {
            let (i, j) = self.links[idx];
            debug_assert!(i < self.n && j < self.n, "link ({i}, {j}) out of fabric");
            edges.push((i, j));
            spans.push(self.spans[idx]);
            bonus.push(extra((i, j)));
        }
        MultiAlphaEdges {
            queues: self,
            alphas: alphas.to_vec(),
            edges,
            spans,
            bonus,
        }
    }
}

/// A batched multi-α sweep over a [`LinkQueues`] snapshot: one fixed
/// `(i, j)`-sorted edge topology shared by all candidate αs, plus what
/// `g(i, j, α)` needs per edge — its span in the snapshot's class arena and
/// its α bonus. It holds no weight matrix: [`MultiAlphaEdges::fill_column`]
/// builds one candidate's `g` column on demand, and
/// [`MultiAlphaEdges::fused_bounds`] bounds every candidate in one pass over
/// the edges, evaluating each edge at all candidates at once.
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
    /// Per edge, its `(offset, len)` span in `queues`' class arenas.
    spans: Vec<(u32, u32)>,
    /// Per edge, the slots added to every candidate α.
    bonus: Vec<u64>,
}

/// The per-candidate bounds [`MultiAlphaEdges::fused_bounds`] computes,
/// with the pass's scratch. Reused across sweeps, so a warm pass allocates
/// nothing.
#[derive(Debug, Default)]
pub struct FusedBounds {
    /// Per candidate `k`: `min(Σᵢ maxⱼ g, Σⱼ maxᵢ g)` over column `k`, each
    /// sum taken in port order.
    pub row_col: Vec<f64>,
    /// Per candidate `k`, when the pass was given dual prices `z`:
    /// `Σᵤ maxᵥ (g(u, v) − z_v)⁺` over the positive entries of column `k`,
    /// summed in left-port order (all zero without prices).
    pub slack: Vec<f64>,
    /// One edge's `g` at every candidate.
    row: Vec<f64>,
    /// The current left port's row maximum, per candidate.
    run_max: Vec<f64>,
    /// The current left port's largest positive slack, per candidate.
    run_slack: Vec<f64>,
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

    /// Fills `out` with candidate `k`'s weight column, in
    /// [`MultiAlphaEdges::edges`] order.
    pub fn fill_column(&self, k: usize, out: &mut Vec<f64>) {
        let alpha = self.alphas[k];
        out.clear();
        out.extend((0..self.edges.len()).map(|e| self.queue(e).g(alpha + self.bonus[e])));
    }

    /// Candidate `k`'s positive-weight edges as `(i, j, g(i, j, α))`
    /// triples, `(i, j)`-sorted.
    pub fn edge_list(&self, k: usize) -> Vec<(u32, u32, f64)> {
        let mut col = Vec::new();
        self.fill_column(k, &mut col);
        self.edges
            .iter()
            .zip(col)
            .filter(|&(_, w)| w > 0.0)
            .map(|(&(i, j), w)| (i, j, w))
            .collect()
    }

    /// Bounds every candidate in one pass over the edges, evaluating each
    /// edge at all candidates at once ([`LinkQueueRef::g_multi`]) and
    /// storing no column: [`FusedBounds::row_col`] always and, with `z`,
    /// [`FusedBounds::slack`]. `z` holds one dual price per right port and
    /// candidate, port-major: `z[v * K + k]` for `K` candidates.
    ///
    /// Each sum is taken in the order a per-column pass takes it (ports in
    /// index order, left ports in edge order), so the results equal a
    /// column-by-column computation bit for bit. Row maxima and slacks are
    /// kept per left-port run, since a port's edges are contiguous; ports
    /// without edges add `+0.0` to a non-negative sum, which changes nothing.
    pub fn fused_bounds(&self, z: Option<&[f64]>, out: &mut FusedBounds) {
        let kk = self.alphas.len();
        let n = self.n() as usize;
        debug_assert!(z.map_or(true, |z| z.len() == n * kk), "z must be n × K");
        let FusedBounds {
            row_col,
            slack,
            row,
            run_max,
            run_slack,
            row_sum,
            col_max,
        } = out;
        for buf in [
            &mut *slack,
            &mut *row,
            &mut *run_max,
            &mut *run_slack,
            &mut *row_sum,
        ] {
            zeroed(buf, kk);
        }
        zeroed(col_max, n * kk);
        let mut cur_u = None;
        for (e, &(u, v)) in self.edges.iter().enumerate() {
            if cur_u != Some(u) {
                fold_run(row_sum, run_max);
                fold_run(slack, run_slack);
                cur_u = Some(u);
            }
            self.queue(e)
                .g_multi_shifted(&self.alphas, self.bonus[e], row);
            let ports = v as usize * kk..(v as usize + 1) * kk;
            for ((&g, rm), cm) in row
                .iter()
                .zip(run_max.iter_mut())
                .zip(&mut col_max[ports.clone()])
            {
                if g > *rm {
                    *rm = g;
                }
                if g > *cm {
                    *cm = g;
                }
            }
            if let Some(z) = z {
                for ((&g, &zv), best) in row.iter().zip(&z[ports]).zip(run_slack.iter_mut()) {
                    if g > 0.0 && g - zv > *best {
                        *best = g - zv;
                    }
                }
            }
        }
        fold_run(row_sum, run_max);
        fold_run(slack, run_slack);
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
        sweep.fused_bounds(None, &mut bounds);
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
        sweep.fused_bounds(None, &mut bounds);
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
        let mut col = Vec::new();
        for (k, &a) in alphas.iter().enumerate() {
            sweep.fill_column(k, &mut col);
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
        let (gained, moves) =
            tr.apply_budgets_tracked(&[(NodeId(3), NodeId(0), 50), (NodeId(2), NodeId(1), 10)]);
        assert!((gained - 30.0).abs() < 1e-12); // 50·½ + 10·½
                                                // f2 moved off (3,0) onto (0,1); f3 moved off (2,1) onto (1,0).
        let dirty = tr.dirty_links(&moves);
        assert_eq!(dirty, vec![(0, 1), (1, 0), (2, 1), (3, 0)]);
        // Refreshing the dirty links matches a from-scratch rebuild.
        assert!(tr.refresh_link((3, 0)).is_none()); // emptied
        assert_eq!(tr.refresh_link((0, 1)).unwrap().total_packets(), 150);
        assert_eq!(tr.refresh_link((2, 1)).unwrap().total_packets(), 40);
        assert_eq!(tr.refresh_link((1, 0)).unwrap().total_packets(), 10);
    }

    // ---- arena/CSR patching (snapshot/restore and mid-window patching) ----

    /// Structural equality of two snapshots through the public view API.
    fn assert_snapshots_equal(a: &LinkQueues, b: &LinkQueues) {
        let la: Vec<_> = a.links().collect();
        let lb: Vec<_> = b.links().collect();
        assert_eq!(la, lb, "link sets differ");
        for &(i, j) in &la {
            let qa = a.queue(i, j).unwrap();
            let qb = b.queue(i, j).unwrap();
            assert_eq!(qa.classes(), qb.classes(), "classes differ on ({i},{j})");
            assert_eq!(qa.boundary_alphas(), qb.boundary_alphas());
        }
        assert_eq!(a.alpha_candidates(u64::MAX), b.alpha_candidates(u64::MAX));
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
            let (_, moves) = tr.apply_budgets_tracked(serve);
            for link in tr.dirty_links(&moves) {
                patched.set_link(link, tr.refresh_link(link));
            }
            assert_snapshots_equal(&patched, &tr.link_queues(4));
        }
    }

    #[test]
    fn set_link_handles_empty_and_duplicate_key_edges() {
        let mut q = LinkQueues::from_weighted_counts(4, [((0, 1), 1.0, 10u64), ((2, 3), 0.5, 4)]);
        // Removing a link that holds nothing is a no-op.
        q.set_link((1, 2), None);
        assert_eq!(q.links().collect::<Vec<_>>(), vec![(0, 1), (2, 3)]);
        // Re-setting the same key replaces, never duplicates, the CSR entry.
        q.set_link((0, 1), LinkQueue::from_weighted_counts([(1.0, 3)]));
        q.set_link(
            (0, 1),
            LinkQueue::from_weighted_counts([(2.0, 1), (1.0, 2)]),
        );
        assert_eq!(q.links().collect::<Vec<_>>(), vec![(0, 1), (2, 3)]);
        assert_eq!(q.queue(0, 1).unwrap().classes(), &[(2.0, 1), (1.0, 2)]);
        // Emptying a link drops it from the index entirely.
        q.set_link((0, 1), None);
        assert_eq!(q.links().collect::<Vec<_>>(), vec![(2, 3)]);
        assert!(q.queue(0, 1).is_none());
        // Inserting a brand-new link lands in sorted position.
        q.set_link((1, 1), LinkQueue::from_weighted_counts([(3.0, 7)]));
        assert_eq!(q.links().collect::<Vec<_>>(), vec![(1, 1), (2, 3)]);
        assert_eq!(q.queue(1, 1).unwrap().total_packets(), 7);
    }

    #[test]
    fn generation_counts_every_patch() {
        let mut q = LinkQueues::from_weighted_counts(4, [((0, 1), 1.0, 10u64)]);
        assert_eq!(q.generation(), 0);
        q.set_link((0, 1), LinkQueue::from_weighted_counts([(1.0, 5)]));
        assert_eq!(q.generation(), 1);
        q.set_link((0, 1), None);
        q.set_link((2, 2), None); // even a no-op patch advances the clock
        assert_eq!(q.generation(), 3);
    }

    #[test]
    fn snapshot_clone_restores_pre_patch_state() {
        // Snapshot/restore: a clone taken mid-window is a full checkpoint of
        // the arena; patching the original never disturbs it.
        let mut tr = RemainingTraffic::new(&load_example1(), HopWeighting::Uniform).unwrap();
        let mut q = tr.link_queues(4);
        let checkpoint = q.clone();
        let (_, moves) = tr.apply_budgets_tracked(&[(NodeId(0), NodeId(1), 100)]);
        for link in tr.dirty_links(&moves) {
            q.set_link(link, tr.refresh_link(link));
        }
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
            q.set_link((0, 1), LinkQueue::from_weighted_counts(pairs.clone()));
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
        assert_eq!(dirty, vec![(1, 0), (4, 5)]);
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
        assert_eq!(dirty, vec![(0, 1), (3, 0)]);
        assert_eq!(tr.remaining_packets(), 150);
        assert!(tr.refresh_link((3, 0)).is_none());
        // Cancelling an unknown flow is a no-op.
        assert_eq!(tr.cancel_flow(FlowId(99)), (0, vec![]));
        // Re-admitting the cancelled flow reuses its row and schedules again.
        tr.admit_subflows([(FlowId(2), Route::from_ids([3, 0, 1]).unwrap(), 0, 8)])
            .unwrap();
        let cold = RemainingTraffic::from_subflows(tr.subflows(), HopWeighting::Uniform);
        assert_snapshots_equal(&tr.link_queues(4), &cold.link_queues(4));
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
            q.set_link((k, k + 1), None);
        }
        let (live, len, _) = q.arena_usage();
        assert_eq!(live, 0);
        assert_eq!(len, 0, "all-drained snapshot must drop its garbage");
        assert!(q.is_empty());
        // The zeroed spans must still be patchable and readable.
        q.set_link((7, 8), LinkQueue::from_weighted_counts([(2.0, 3)]));
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
            q.set_link((0, 1), LinkQueue::from_weighted_counts(pairs.clone()));
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
}
