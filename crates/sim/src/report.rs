use octopus_traffic::FlowId;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Measurements from one simulated schedule.
///
/// All the paper's evaluation metrics derive from this report:
///
/// * **packets delivered (%)** — [`SimReport::delivered_fraction`] (Figs 4,
///   6–10);
/// * **link utilization (%)** — [`SimReport::link_utilization`] (Figs 5, 8);
/// * **delivered as % of ψ** — [`SimReport::delivered_over_psi`] (Fig 7a).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimReport {
    /// Packets in the input load.
    pub total_packets: u64,
    /// Packets that reached their final destination.
    pub delivered: u64,
    /// Packets that moved at least one hop but did not finish (stranded at
    /// an intermediate node when the schedule ended).
    pub stranded: u64,
    /// Packets that never left their source.
    pub never_moved: u64,
    /// Total packet-hop traversals (unweighted).
    pub hops_traversed: u64,
    /// The surrogate objective ψ: weighted packet-hops traversed.
    pub psi: f64,
    /// Σ over configurations of `α · |M|` — link-slots offered.
    pub link_slots_offered: u64,
    /// Slots consumed by the schedule, `Σ (α + Δ)`.
    pub slots_used: u64,
    /// Packets delivered per flow.
    pub delivered_per_flow: HashMap<FlowId, u64>,
    /// For every flow whose packets were **all** delivered: the slot at
    /// which its last packet arrived (flow completion time, measured from
    /// the schedule's start).
    pub completion_slot: HashMap<FlowId, u64>,
}

impl SimReport {
    /// Fraction (0–1) of packets delivered — the paper's primary metric.
    pub fn delivered_fraction(&self) -> f64 {
        if self.total_packets == 0 {
            return 0.0;
        }
        self.delivered as f64 / self.total_packets as f64
    }

    /// Fraction (0–1) of offered link-slots that carried a packet — the
    /// paper's link-utilization metric ("ratio of total number of packets
    /// traversed to the sum of the number of active links over all time
    /// slots").
    pub fn link_utilization(&self) -> f64 {
        if self.link_slots_offered == 0 {
            return 0.0;
        }
        self.hops_traversed as f64 / self.link_slots_offered as f64
    }

    /// Delivered packets as a fraction of the objective value ψ (Fig 7a):
    /// close to 1 means few packets were left stranded mid-route.
    pub fn delivered_over_psi(&self) -> f64 {
        if self.psi <= 0.0 {
            return 0.0;
        }
        self.delivered as f64 / self.psi
    }

    /// Sanity invariant: every packet is delivered, stranded, or unmoved.
    pub fn conserves_packets(&self) -> bool {
        self.delivered + self.stranded + self.never_moved == self.total_packets
    }

    /// Mean flow completion time over fully-completed flows (slots), or
    /// `None` when no flow completed — the latency-side metric of
    /// ProjecToR-style evaluations.
    #[expect(
        clippy::disallowed_methods,
        reason = "sums integer-valued f64s, exact in any order below 2^53"
    )]
    pub fn mean_fct(&self) -> Option<f64> {
        if self.completion_slot.is_empty() {
            return None;
        }
        Some(
            self.completion_slot
                .values()
                .map(|&s| s as f64)
                .sum::<f64>()
                / self.completion_slot.len() as f64,
        )
    }

    /// Median flow completion time over fully-completed flows (slots).
    pub fn median_fct(&self) -> Option<u64> {
        if self.completion_slot.is_empty() {
            return None;
        }
        #[expect(clippy::disallowed_methods, reason = "sorted below")]
        let mut v: Vec<u64> = self.completion_slot.values().copied().collect();
        v.sort_unstable();
        Some(v[v.len() / 2])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> SimReport {
        SimReport {
            total_packets: 100,
            delivered: 60,
            stranded: 10,
            never_moved: 30,
            hops_traversed: 130,
            psi: 65.0,
            link_slots_offered: 200,
            slots_used: 300,
            delivered_per_flow: HashMap::new(),
            completion_slot: HashMap::new(),
        }
    }

    #[test]
    fn fct_metrics() {
        let mut r = base();
        assert_eq!(r.mean_fct(), None);
        r.completion_slot.insert(octopus_traffic::FlowId(1), 100);
        r.completion_slot.insert(octopus_traffic::FlowId(2), 200);
        r.completion_slot.insert(octopus_traffic::FlowId(3), 400);
        assert!((r.mean_fct().unwrap() - 233.333).abs() < 0.01);
        assert_eq!(r.median_fct(), Some(200));
    }

    #[test]
    fn derived_metrics() {
        let r = base();
        assert!((r.delivered_fraction() - 0.6).abs() < 1e-12);
        assert!((r.link_utilization() - 0.65).abs() < 1e-12);
        assert!((r.delivered_over_psi() - 60.0 / 65.0).abs() < 1e-12);
        assert!(r.conserves_packets());
    }

    #[test]
    fn zero_denominators_are_safe() {
        let r = SimReport {
            total_packets: 0,
            delivered: 0,
            stranded: 0,
            never_moved: 0,
            hops_traversed: 0,
            psi: 0.0,
            link_slots_offered: 0,
            slots_used: 0,
            delivered_per_flow: HashMap::new(),
            completion_slot: HashMap::new(),
        };
        assert_eq!(r.delivered_fraction(), 0.0);
        assert_eq!(r.link_utilization(), 0.0);
        assert_eq!(r.delivered_over_psi(), 0.0);
    }
}
