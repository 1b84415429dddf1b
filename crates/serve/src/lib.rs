//! `octopus-serve`: the streaming scheduler daemon.
//!
//! Wraps the batch Octopus kernel ([`octopus_core`]) into a long-running
//! service: clients stream flow arrivals and cancellations as NDJSON
//! [`Event`]s (over stdin/stdout or TCP) and ask for rolling-horizon
//! re-plans; the daemon maintains `T^r` **incrementally** — admissions
//! intern unseen links into the flat state layer mid-window and patch the
//! engine's CSR queue snapshot on exactly the dirty links, so per-event
//! cost is proportional to the event, not to the backlog.
//!
//! Two re-plan policies are built in (see [`PolicyMode`]): the
//! online-hysteresis incumbent rule and the full Octopus greedy window.
//!
//! ```
//! use octopus_net::topology;
//! use octopus_serve::{PolicyMode, ServeConfig, ServeState};
//!
//! let net = topology::complete(4);
//! let cfg = ServeConfig {
//!     policy: PolicyMode::Octopus,
//!     ..ServeConfig::default()
//! };
//! let mut serve = ServeState::new(net, cfg).unwrap();
//! serve.admit(1, &[0, 2, 3], 50).unwrap();
//! let plan = serve.replan().unwrap();
//! assert_eq!(plan.delivered, 50); // both hops fit in one horizon
//! ```

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![cfg_attr(not(test), deny(clippy::float_cmp, clippy::disallowed_methods))]

mod daemon;
pub mod protocol;

pub use daemon::{PlanSummary, PolicyMode, ServeConfig, ServeState};
pub use protocol::{Event, PlanConfig, Response, ServeStats};

use std::io::{BufRead, Read, Write};

/// Longest event line the daemon reads, in bytes, newline excluded. A longer
/// line is skipped through its newline, never buffered whole, and answered
/// with a [`Response::Error`].
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Runs one NDJSON session: reads [`Event`] lines from `reader`, answers one
/// [`Response`] line each on `writer`, until `Shutdown`, EOF, or an I/O
/// error. Malformed lines — bad JSON, bytes that are not UTF-8, or more than
/// [`MAX_LINE_BYTES`] bytes — get a [`Response::Error`] and the session
/// continues; blank lines are skipped.
///
/// The loop is strictly read → handle → answer → read, so a slow re-plan
/// back-pressures the client through the transport instead of queueing
/// events internally.
///
/// # Errors
/// Propagates transport I/O errors; serialization failures (not expected for
/// these types) surface as [`std::io::Error`] too.
pub fn serve_lines<R: BufRead, W: Write>(
    mut reader: R,
    mut writer: W,
    state: &mut ServeState,
) -> std::io::Result<()> {
    let cap = MAX_LINE_BYTES as u64 + 1;
    let read_capped = |r: &mut R, buf: &mut Vec<u8>| r.by_ref().take(cap).read_until(b'\n', buf);
    let mut buf = Vec::new();
    loop {
        buf.clear();
        if read_capped(&mut reader, &mut buf)? == 0 {
            break;
        }
        let (response, done) = if buf.len() > MAX_LINE_BYTES && buf.last() != Some(&b'\n') {
            // Drop the rest of the line, one capped chunk at a time.
            while buf.last() != Some(&b'\n') {
                buf.clear();
                if read_capped(&mut reader, &mut buf)? == 0 {
                    break;
                }
            }
            let reason = format!("line exceeds {MAX_LINE_BYTES} bytes");
            (bad_event(reason), false)
        } else {
            match std::str::from_utf8(&buf) {
                Ok(line) if line.trim().is_empty() => continue,
                Ok(line) => match serde_json::from_str::<Event>(line) {
                    Ok(event) => state.handle(event),
                    Err(e) => (bad_event(e), false),
                },
                Err(e) => (bad_event(e), false),
            }
        };
        let payload = serde_json::to_string(&response).map_err(std::io::Error::other)?;
        writer.write_all(payload.as_bytes())?;
        writer.write_all(b"\n")?;
        writer.flush()?;
        if done {
            break;
        }
    }
    Ok(())
}

fn bad_event(reason: impl std::fmt::Display) -> Response {
    Response::Error {
        message: format!("bad event: {reason}"),
    }
}
