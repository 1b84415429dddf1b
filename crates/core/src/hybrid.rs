//! §7: scheduling in a **hybrid** circuit + packet network.
//!
//! The paper's recipe: "first route as much of T as possible over the packet
//! network, and then use Octopus (or Octopus+) to route the remaining traffic
//! over the circuit network" — the guarantee carries over to the circuit
//! part.
//!
//! The packet network is modeled as in the hybrid literature (e.g. Solstice):
//! every node has one packet-switched port roughly an order of magnitude
//! slower than a circuit port, so over a window of `W` slots it can inject
//! (and absorb) `W / bandwidth_ratio` packets, with no reconfiguration
//! penalty. Offloading respects both the sender's and the receiver's packet
//! budget; flows are considered smallest-first, the classic
//! small-flows-to-the-packet-net split.

use crate::flatmap::VecMap;
use crate::{octopus, OctopusConfig, OctopusOutput, SchedError};
use octopus_net::Network;
use octopus_traffic::{Flow, FlowId, TrafficLoad};
use std::collections::HashMap;

/// The hybrid fabric's packet-network model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketNetModel {
    /// How many times slower a packet port is than a circuit port
    /// (the paper's setting: "an order of magnitude lower", i.e. 10).
    pub bandwidth_ratio: u64,
}

impl Default for PacketNetModel {
    fn default() -> Self {
        PacketNetModel {
            bandwidth_ratio: 10,
        }
    }
}

/// Outcome of hybrid scheduling.
#[derive(Debug, Clone)]
pub struct HybridOutput {
    /// Packets offloaded to the packet network, per flow (all assumed
    /// delivered within the window by construction of the budgets).
    pub packet_offload: Vec<(FlowId, u64)>,
    /// Total packets offloaded.
    pub offloaded: u64,
    /// The circuit-network load that remains after offloading.
    pub circuit_load: TrafficLoad,
    /// The Octopus result on the remaining load.
    pub circuit: OctopusOutput,
}

impl HybridOutput {
    /// Planned packets delivered across both networks.
    pub fn planned_delivered_total(&self) -> u64 {
        self.offloaded + self.circuit.planned_delivered
    }
}

/// Schedules a load over a hybrid network: greedy smallest-flow-first
/// offloading onto the packet network (within per-node ingress/egress
/// budgets of `W / bandwidth_ratio` packets), then Octopus on the rest.
pub fn octopus_hybrid(
    net: &Network,
    load: &TrafficLoad,
    cfg: &OctopusConfig,
    packet_net: PacketNetModel,
) -> Result<HybridOutput, SchedError> {
    assert!(packet_net.bandwidth_ratio >= 1);
    let budget_per_node = cfg.window / packet_net.bandwidth_ratio;
    let mut tx_budget: HashMap<u32, u64> = HashMap::new();
    let mut rx_budget: HashMap<u32, u64> = HashMap::new();

    // Smallest flows first: the packet network is for mice.
    let mut order: Vec<&Flow> = load.flows().iter().collect();
    order.sort_by_key(|f| (f.size, f.id));

    // Ordered map: drained into the output below, where a HashMap's order
    // would show. Clippy cannot see `into_iter` on a HashMap;
    // `everything_is_deterministic` (tests/end_to_end.rs) can.
    let mut offload: VecMap<FlowId, u64> = VecMap::new();
    for f in order {
        let s = f.src().0;
        let d = f.dst().0;
        let tx = tx_budget.entry(s).or_insert(budget_per_node);
        let rx = rx_budget.entry(d).or_insert(budget_per_node);
        let take = f.size.min(*tx).min(*rx);
        if take > 0 {
            *tx -= take;
            *rx -= take;
            offload.insert(f.id, take);
        }
    }

    let remaining: Vec<Flow> = load
        .flows()
        .iter()
        .filter_map(|f| {
            let off = offload.get(&f.id).copied().unwrap_or(0);
            let rest = f.size - off;
            (rest > 0).then(|| Flow {
                id: f.id,
                size: rest,
                routes: f.routes.clone(),
            })
        })
        .collect();
    let circuit_load = TrafficLoad::new(remaining)?;
    let circuit = octopus(net, &circuit_load, cfg)?;

    let offloaded: u64 = offload.values().sum();
    // Already (FlowId, _)-sorted: the VecMap drains in key order.
    let packet_offload: Vec<(FlowId, u64)> = offload.into_iter().collect();
    Ok(HybridOutput {
        packet_offload,
        offloaded,
        circuit_load,
        circuit,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use octopus_net::topology;
    use octopus_traffic::Route;

    fn cfg(window: u64, delta: u64) -> OctopusConfig {
        OctopusConfig {
            window,
            delta,
            ..OctopusConfig::default()
        }
    }

    #[test]
    fn small_flows_go_to_packet_network() {
        let net = topology::complete(4);
        let load = TrafficLoad::new(vec![
            Flow::single(FlowId(1), 5, Route::from_ids([0, 1]).unwrap()),
            Flow::single(FlowId(2), 500, Route::from_ids([0, 2]).unwrap()),
        ])
        .unwrap();
        // W = 100, ratio 10: packet budget 10 per node.
        let out = octopus_hybrid(&net, &load, &cfg(100, 5), PacketNetModel::default()).unwrap();
        assert_eq!(out.packet_offload, vec![(FlowId(1), 5), (FlowId(2), 5)]);
        assert_eq!(out.offloaded, 10);
        assert_eq!(out.circuit_load.total_packets(), 495);
        assert!(out.planned_delivered_total() > 10);
    }

    #[test]
    fn budgets_respect_receiver_side() {
        let net = topology::complete(4);
        // Three senders all target node 3: rx budget caps total offload.
        let load = TrafficLoad::new(vec![
            Flow::single(FlowId(1), 4, Route::from_ids([0, 3]).unwrap()),
            Flow::single(FlowId(2), 4, Route::from_ids([1, 3]).unwrap()),
            Flow::single(FlowId(3), 4, Route::from_ids([2, 3]).unwrap()),
        ])
        .unwrap();
        let out = octopus_hybrid(&net, &load, &cfg(100, 5), PacketNetModel::default()).unwrap();
        assert!(out.offloaded <= 10, "rx budget of node 3 is 10");
    }

    #[test]
    fn everything_offloaded_leaves_empty_circuit_load() {
        let net = topology::complete(3);
        let load = TrafficLoad::new(vec![Flow::single(
            FlowId(1),
            3,
            Route::from_ids([0, 1]).unwrap(),
        )])
        .unwrap();
        let out = octopus_hybrid(&net, &load, &cfg(1_000, 5), PacketNetModel::default()).unwrap();
        assert_eq!(out.offloaded, 3);
        assert!(out.circuit_load.is_empty() || out.circuit_load.total_packets() == 0);
        assert!(out.circuit.schedule.is_empty());
        assert_eq!(out.planned_delivered_total(), 3);
    }

    #[test]
    fn hybrid_beats_circuit_only_on_mice_heavy_loads() {
        let net = topology::complete(6);
        // Many tiny flows: reconfiguration delay makes the circuit net poor.
        let flows: Vec<Flow> = (0..12u64)
            .map(|i| {
                let s = (i % 6) as u32;
                let d = ((i + 1) % 6) as u32;
                Flow::single(FlowId(i), 2, Route::from_ids([s, d]).unwrap())
            })
            .collect();
        let load = TrafficLoad::new(flows).unwrap();
        let c = cfg(120, 30);
        let circuit_only = octopus(&net, &load, &c).unwrap();
        let hybrid = octopus_hybrid(&net, &load, &c, PacketNetModel::default()).unwrap();
        assert!(
            hybrid.planned_delivered_total() >= circuit_only.planned_delivered,
            "hybrid {} vs circuit {}",
            hybrid.planned_delivered_total(),
            circuit_only.planned_delivered
        );
    }
}
