use octopus_traffic::{FlowId, TrafficError};
use std::fmt;

/// Scheduling errors.
#[derive(Debug, Clone, PartialEq)]
pub enum SchedError {
    /// A flow's route uses a link absent from the fabric.
    InvalidRoute(FlowId),
    /// The traffic load itself is malformed (bad routes, duplicate IDs, …).
    Traffic(TrafficError),
    /// The window is too small to fit even one configuration (`W ≤ Δ`).
    WindowTooSmall {
        /// Requested window.
        window: u64,
        /// Reconfiguration delay.
        delta: u64,
    },
    /// The window is longer than [`MAX_WINDOW`] slots.
    WindowTooLarge {
        /// Requested window.
        window: u64,
    },
    /// The hysteresis factor η is negative or NaN.
    InvalidEta(f64),
    /// The algorithm requires single-route flows but got route choices.
    MultiRouteFlow(FlowId),
    /// Makespan search exceeded its upper bound without serving the load.
    MakespanUnreachable {
        /// Largest window tried.
        tried: u64,
    },
    /// A streamed sub-flow admission names a position at or beyond its
    /// route's end.
    PositionBeyondRoute {
        /// The offending flow.
        flow: FlowId,
        /// The out-of-range position.
        pos: u32,
    },
    /// Admitting the packets would push a packet count past `u64::MAX`.
    PacketCountOverflow,
    /// A K-port fabric was given zero ports per node.
    NoPorts,
    /// A realized configuration violates the fabric's port constraints —
    /// the matching kernel and the fabric model disagree.
    Net(octopus_net::NetError),
}

impl fmt::Display for SchedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedError::InvalidRoute(id) => {
                write!(f, "route of flow {id} uses a link absent from the fabric")
            }
            SchedError::Traffic(e) => write!(f, "invalid traffic load: {e}"),
            SchedError::WindowTooSmall { window, delta } => write!(
                f,
                "window {window} cannot fit a configuration with delta {delta}"
            ),
            SchedError::WindowTooLarge { window } => write!(
                f,
                "window {window} exceeds the largest supported window of {MAX_WINDOW} slots (2^53)"
            ),
            SchedError::InvalidEta(eta) => {
                write!(f, "hysteresis factor eta {eta} must be a number >= 0")
            }
            SchedError::MultiRouteFlow(id) => write!(
                f,
                "flow {id} has multiple routes; use octopus_plus for joint routing"
            ),
            SchedError::MakespanUnreachable { tried } => {
                write!(f, "traffic not fully servable within window {tried}")
            }
            SchedError::PositionBeyondRoute { flow, pos } => {
                write!(
                    f,
                    "sub-flow of {flow} admitted at position {pos} beyond its route"
                )
            }
            SchedError::PacketCountOverflow => {
                write!(f, "admission would overflow the 64-bit packet count")
            }
            SchedError::NoPorts => write!(f, "a K-port fabric needs at least one port per node"),
            SchedError::Net(e) => {
                write!(f, "configuration violates fabric port constraints: {e}")
            }
        }
    }
}

impl std::error::Error for SchedError {}

/// The longest window a planner accepts, 2⁵³ slots. Every configuration's
/// `α + Δ` then fits the window, so the sum cannot wrap and its `f64` in a
/// score is exact.
pub const MAX_WINDOW: u64 = 1 << 53;

/// Checks that a `window` of slots fits at least one configuration under
/// reconfiguration delay `delta` and is at most [`MAX_WINDOW`] long.
///
/// # Errors
/// [`SchedError::WindowTooSmall`] when `window ≤ delta`;
/// [`SchedError::WindowTooLarge`] when `window > MAX_WINDOW`.
pub fn check_window(window: u64, delta: u64) -> Result<(), SchedError> {
    if window <= delta {
        return Err(SchedError::WindowTooSmall { window, delta });
    }
    if window > MAX_WINDOW {
        return Err(SchedError::WindowTooLarge { window });
    }
    Ok(())
}

impl From<octopus_net::NetError> for SchedError {
    fn from(e: octopus_net::NetError) -> Self {
        SchedError::Net(e)
    }
}

impl From<TrafficError> for SchedError {
    fn from(e: TrafficError) -> Self {
        match e {
            // Fabric-membership failures keep the specific scheduling error
            // (and the offending flow), everything else is a load problem.
            TrafficError::InvalidRoute(id, _) => SchedError::InvalidRoute(id),
            other => SchedError::Traffic(other),
        }
    }
}
