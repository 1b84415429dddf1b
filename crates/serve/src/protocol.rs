//! The wire protocol of the streaming scheduler daemon.
//!
//! # Framing
//!
//! Newline-delimited JSON (NDJSON): each line is one externally-tagged
//! [`Event`] from the client, answered by exactly one [`Response`] line from
//! the daemon, in order. The same framing runs over stdin/stdout and TCP;
//! there is no pipelining window — the daemon reads, handles, answers, then
//! reads again, so a slow re-plan back-pressures the client through the
//! socket buffer rather than through an unbounded internal queue.
//! A line that is not UTF-8 or is longer than [`crate::MAX_LINE_BYTES`] is
//! answered with [`Response::Error`], like any malformed event.
//!
//! # Event types
//!
//! ```json
//! {"Arrival":{"id":7,"route":[0,1,2],"size":100}}
//! {"Cancel":{"id":7}}
//! "Replan"
//! "Stats"
//! "Shutdown"
//! ```
//!
//! Unit events serialize as bare strings (externally-tagged serde form).
//! An `Arrival` whose `(id, route)` pair is already live tops up that flow's
//! queue at its source; distinct routes under one id are tracked separately.
//!
//! # The wire codec
//!
//! [`Event::parse_line`] and [`Response::write_line`] are the daemon's codec.
//! The serde derives on every type here define the wire format; the codec
//! is a fast path that must agree with them byte for byte.
//!
//! * **Canonical events.** The *canonical form* of an event is the compact
//!   text `serde_json::to_string(&event)` emits, followed by one `\n`: the
//!   five shapes above, keys in declaration order, no whitespace, integers
//!   in plain decimal (`0`, or a nonzero digit then digits; no sign,
//!   fraction or exponent) within their field's range (`u64` ids and sizes,
//!   `u32` node ids). `parse_line` reads a canonical line straight from its
//!   bytes with checked arithmetic.
//! * **Fallback.** Any other line (whitespace, reordered or repeated keys,
//!   leading zeros, signs, floats, out-of-range values, `\r\n`, no final
//!   newline, garbage) goes to `serde_json::from_str::<Event>` unchanged, so
//!   the set of accepted lines, the events they parse to and the error text
//!   of rejected ones are exactly serde's.
//! * **Replies.** `write_line` appends `serde_json::to_string(&response)`
//!   plus `\n`, byte for byte, writing integers, booleans and the fixed
//!   keys itself. `f64` and `String` fields are formatted by `serde_json`,
//!   which stays the one place that holds the float and escaping rules.
//!
//! `crates/serve/tests/codec.rs` checks both directions against serde.

use serde::{Deserialize, Serialize};

/// One client request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Event {
    /// A flow arrives: `size` packets to route along `route` (node ids).
    Arrival {
        /// Flow identifier (caller-chosen; reuse tops up the same flow).
        id: u64,
        /// The node sequence the packets must traverse.
        route: Vec<u32>,
        /// Packets to admit at the route's source.
        size: u64,
    },
    /// Cancel every still-queued packet of flow `id`.
    Cancel {
        /// Flow identifier given at arrival.
        id: u64,
    },
    /// Re-plan the rolling horizon now and emit the chosen schedule.
    Replan,
    /// Report lifetime counters.
    Stats,
    /// Close the session (the daemon answers [`Response::Bye`] and, in TCP
    /// mode, returns to accepting connections).
    Shutdown,
}

/// One configuration of an emitted plan: the matched links and how many
/// slots they serve.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanConfig {
    /// The directed links of the matching.
    pub links: Vec<(u32, u32)>,
    /// Slots served before the next reconfiguration.
    pub alpha: u64,
}

/// Lifetime counters of one daemon session.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ServeStats {
    /// Events handled (including this `Stats`).
    pub events: u64,
    /// Re-plans run.
    pub replans: u64,
    /// Packets admitted over all arrivals.
    pub admitted_packets: u64,
    /// Packets removed by cancellations.
    pub cancelled_packets: u64,
    /// Packets planned to destination so far.
    pub delivered_packets: u64,
    /// Weighted packet-hops ψ accumulated by the plan.
    pub psi: f64,
    /// Packets still waiting (at sources or mid-route).
    pub backlog: u64,
    /// Links interned into the flat state layer so far (grows on admission).
    pub interned_links: u64,
    /// Octopus re-plans replayed outright from the schedule cache.
    #[serde(default)]
    pub cache_exact_hits: u64,
    /// Octopus re-plans solved cold (no cached window under their key).
    #[serde(default)]
    pub cache_misses: u64,
}

/// One daemon reply; every request gets exactly one.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// The arrival was admitted into `T^r`.
    Admitted {
        /// Echo of the flow id.
        id: u64,
        /// Packets now waiting after the admission.
        backlog: u64,
    },
    /// The cancellation was applied.
    Cancelled {
        /// Echo of the flow id.
        id: u64,
        /// Packets removed from the plan.
        removed: u64,
        /// Packets still waiting after the cancellation.
        backlog: u64,
    },
    /// The schedule chosen by a re-plan.
    Plan {
        /// The configurations, in serve order (empty when nothing can move).
        configs: Vec<PlanConfig>,
        /// ψ gained by this plan.
        psi: f64,
        /// Packets newly planned to destination.
        delivered: u64,
        /// Packets still waiting after the plan.
        backlog: u64,
        /// Whether the incumbent configuration changed (hysteresis mode
        /// pays Δ only when this is `true`).
        reconfigured: bool,
        /// Wall-clock re-plan latency in microseconds.
        elapsed_us: u64,
    },
    /// Lifetime counters.
    Stats {
        /// The counters snapshot.
        stats: ServeStats,
    },
    /// The request could not be applied; the plan state is unchanged.
    Error {
        /// Human-readable cause.
        message: String,
    },
    /// Session end acknowledgement.
    Bye {
        /// Events handled over the session.
        events: u64,
    },
}

impl Event {
    /// Parses one event line, as read with its `\n`: a canonical line (see
    /// the [module docs](self)) directly, any other through
    /// `serde_json::from_str`, with the same result either way.
    ///
    /// # Errors
    /// Exactly when `serde_json::from_str::<Event>(line)` fails, with its
    /// error.
    pub fn parse_line(line: &str) -> serde_json::Result<Event> {
        match canonical_event(line.as_bytes()) {
            Some(event) => Ok(event),
            None => serde_json::from_str(line),
        }
    }
}

/// The event a canonical line encodes, or `None` if `line` is not canonical.
fn canonical_event(line: &[u8]) -> Option<Event> {
    let body = line.strip_suffix(b"\n")?;
    let mut c = Cursor(body);
    let event = if c.eat(br#"{"Arrival":{"id":"#) {
        let id = c.uint()?;
        c.expect(br#","route":["#)?;
        let mut route = Vec::new();
        if !c.eat(b"]") {
            loop {
                route.push(u32::try_from(c.uint()?).ok()?);
                if c.eat(b"]") {
                    break;
                }
                c.expect(b",")?;
            }
        }
        c.expect(br#","size":"#)?;
        let size = c.uint()?;
        c.expect(b"}}")?;
        Event::Arrival { id, route, size }
    } else if c.eat(br#"{"Cancel":{"id":"#) {
        let id = c.uint()?;
        c.expect(b"}}")?;
        Event::Cancel { id }
    } else {
        return match body {
            br#""Replan""# => Some(Event::Replan),
            br#""Stats""# => Some(Event::Stats),
            br#""Shutdown""# => Some(Event::Shutdown),
            _ => None,
        };
    };
    c.0.is_empty().then_some(event)
}

/// The unread rest of a canonical line.
struct Cursor<'a>(&'a [u8]);

impl Cursor<'_> {
    /// Consumes `lit` if the rest starts with it.
    fn eat(&mut self, lit: &[u8]) -> bool {
        match self.0.strip_prefix(lit) {
            Some(rest) => {
                self.0 = rest;
                true
            }
            None => false,
        }
    }

    /// Consumes `lit`, or fails.
    fn expect(&mut self, lit: &[u8]) -> Option<()> {
        self.eat(lit).then_some(())
    }

    /// Consumes a canonical `u64`: `0`, or a nonzero digit then digits,
    /// whose value fits.
    fn uint(&mut self) -> Option<u64> {
        let len = self.0.iter().take_while(|b| b.is_ascii_digit()).count();
        let (digits, rest) = self.0.split_at(len);
        if let [] | [b'0', _, ..] = digits {
            return None;
        }
        let mut value = 0u64;
        for &d in digits {
            value = value.checked_mul(10)?.checked_add(u64::from(d - b'0'))?;
        }
        self.0 = rest;
        Some(value)
    }
}

impl Response {
    /// Appends this reply's line to `out`: exactly the bytes of
    /// `serde_json::to_string(self)` followed by `\n` (see the
    /// [module docs](self)).
    ///
    /// # Errors
    /// When `serde_json` fails to format a float or string field (it does
    /// not for these types); `out` may then hold part of the line.
    pub fn write_line(&self, out: &mut Vec<u8>) -> serde_json::Result<()> {
        match self {
            Response::Admitted { id, backlog } => {
                out.extend_from_slice(br#"{"Admitted":{"id":"#);
                put_u64(out, *id);
                out.extend_from_slice(br#","backlog":"#);
                put_u64(out, *backlog);
            }
            Response::Cancelled {
                id,
                removed,
                backlog,
            } => {
                out.extend_from_slice(br#"{"Cancelled":{"id":"#);
                put_u64(out, *id);
                out.extend_from_slice(br#","removed":"#);
                put_u64(out, *removed);
                out.extend_from_slice(br#","backlog":"#);
                put_u64(out, *backlog);
            }
            Response::Plan {
                configs,
                psi,
                delivered,
                backlog,
                reconfigured,
                elapsed_us,
            } => {
                out.extend_from_slice(br#"{"Plan":{"configs":["#);
                for (k, PlanConfig { links, alpha }) in configs.iter().enumerate() {
                    if k > 0 {
                        out.push(b',');
                    }
                    out.extend_from_slice(br#"{"links":["#);
                    for (e, &(i, j)) in links.iter().enumerate() {
                        out.extend_from_slice(if e > 0 { b",[" } else { b"[" });
                        put_u64(out, u64::from(i));
                        out.push(b',');
                        put_u64(out, u64::from(j));
                        out.push(b']');
                    }
                    out.extend_from_slice(br#"],"alpha":"#);
                    put_u64(out, *alpha);
                    out.push(b'}');
                }
                out.extend_from_slice(br#"],"psi":"#);
                put_serde(out, psi)?;
                out.extend_from_slice(br#","delivered":"#);
                put_u64(out, *delivered);
                out.extend_from_slice(br#","backlog":"#);
                put_u64(out, *backlog);
                out.extend_from_slice(br#","reconfigured":"#);
                out.extend_from_slice(if *reconfigured { b"true" } else { b"false" });
                out.extend_from_slice(br#","elapsed_us":"#);
                put_u64(out, *elapsed_us);
            }
            Response::Stats { stats } => {
                let ServeStats {
                    events,
                    replans,
                    admitted_packets,
                    cancelled_packets,
                    delivered_packets,
                    psi,
                    backlog,
                    interned_links,
                    cache_exact_hits,
                    cache_misses,
                } = stats;
                out.extend_from_slice(br#"{"Stats":{"stats":{"events":"#);
                put_u64(out, *events);
                out.extend_from_slice(br#","replans":"#);
                put_u64(out, *replans);
                out.extend_from_slice(br#","admitted_packets":"#);
                put_u64(out, *admitted_packets);
                out.extend_from_slice(br#","cancelled_packets":"#);
                put_u64(out, *cancelled_packets);
                out.extend_from_slice(br#","delivered_packets":"#);
                put_u64(out, *delivered_packets);
                out.extend_from_slice(br#","psi":"#);
                put_serde(out, psi)?;
                out.extend_from_slice(br#","backlog":"#);
                put_u64(out, *backlog);
                out.extend_from_slice(br#","interned_links":"#);
                put_u64(out, *interned_links);
                out.extend_from_slice(br#","cache_exact_hits":"#);
                put_u64(out, *cache_exact_hits);
                out.extend_from_slice(br#","cache_misses":"#);
                put_u64(out, *cache_misses);
                out.push(b'}');
            }
            Response::Error { message } => {
                out.extend_from_slice(br#"{"Error":{"message":"#);
                put_serde(out, message)?;
            }
            Response::Bye { events } => {
                out.extend_from_slice(br#"{"Bye":{"events":"#);
                put_u64(out, *events);
            }
        }
        out.extend_from_slice(b"}}\n");
        Ok(())
    }
}

/// Appends `value` in decimal.
fn put_u64(out: &mut Vec<u8>, mut value: u64) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (value % 10) as u8;
        value /= 10;
        if value == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[start..]);
}

/// Appends `value` as `serde_json` formats it.
fn put_serde<T: Serialize + ?Sized>(out: &mut Vec<u8>, value: &T) -> serde_json::Result<()> {
    out.extend_from_slice(serde_json::to_string(value)?.as_bytes());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_lines_take_the_fast_path() {
        let events = [
            Event::Arrival {
                id: u64::MAX,
                route: vec![0, u32::MAX, 7],
                size: 0,
            },
            Event::Arrival {
                id: 0,
                route: vec![],
                size: u64::MAX,
            },
            Event::Cancel { id: 10 },
            Event::Replan,
            Event::Stats,
            Event::Shutdown,
        ];
        for event in events {
            let line = serde_json::to_string(&event).unwrap() + "\n";
            assert_eq!(canonical_event(line.as_bytes()), Some(event), "{line:?}");
        }
        for line in [
            "\"Replan\"",
            "\"Replan\"\r\n",
            "\"Replan\"\n\n",
            "{\"Cancel\":{\"id\":01}}\n",
            "{\"Cancel\":{\"id\":-1}}\n",
            "{\"Cancel\":{\"id\":1.0}}\n",
            "{\"Cancel\":{\"id\":1e2}}\n",
            "{\"Cancel\":{\"id\":18446744073709551616}}\n",
            "{\"Cancel\": {\"id\":1}}\n",
            "{\"Arrival\":{\"id\":1,\"route\":[4294967296],\"size\":1}}\n",
            "{\"Arrival\":{\"id\":1,\"route\":[1,],\"size\":1}}\n",
            "{\"Arrival\":{\"id\":1,\"route\":[1],\"size\":1}}}\n",
        ] {
            assert_eq!(canonical_event(line.as_bytes()), None, "{line:?}");
        }
    }
}
