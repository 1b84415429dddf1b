//! Daemon robustness: **any byte stream, one answer per line, no lost
//! packets.**
//!
//! Random event streams go through [`serve_lines`] on a complete 6-node
//! fabric, under both re-plan policies. A stream mixes well-formed events
//! with the inputs a daemon must survive: extreme integers (`u64::MAX`
//! sizes and ids, out-of-range node ids, values past `u64`, negatives and
//! floats), duplicate and cancelled ids, non-UTF-8 garbage, lines of
//! exactly and of more than [`MAX_LINE_BYTES`] bytes, blank lines, a
//! missing final newline and an occasional early `Shutdown`. Every stream
//! ends with a `Stats` request. The properties:
//!
//! * the session returns without a panic or an I/O error;
//! * every non-blank line up to and including the first `Shutdown` gets
//!   exactly one well-formed [`Response`] line, and nothing more is written;
//! * every `Stats` reply conserves packets:
//!   `admitted = delivered + cancelled + backlog`.

use octopus_net::topology;
use octopus_serve::{serve_lines, PolicyMode, Response, ServeConfig, ServeState, MAX_LINE_BYTES};
use proptest::prelude::*;
use std::io::Cursor;

/// Nodes of the complete test fabric; ids from `NODES` up are invalid.
const NODES: u32 = 6;

/// An id from a small pool (so ids repeat) or an extreme one.
fn id(x: u64) -> String {
    match x % 6 {
        0 => u64::MAX.to_string(),
        1 => "0".to_string(),
        r => r.to_string(),
    }
}

/// A packet count: small, zero, or big enough to overflow the counters.
fn size(x: u64) -> String {
    match x % 5 {
        0 => u64::MAX.to_string(),
        1 => (u64::MAX / 2 + x % 3).to_string(),
        2 => "0".to_string(),
        _ => (1 + x % 50).to_string(),
    }
}

/// A route of 1–4 node ids: mostly distinct valid nodes, sometimes an
/// out-of-range id, a repeated node or a single node.
fn route(x: u64) -> String {
    let mut order: Vec<u32> = (0..NODES).collect();
    for k in (1..order.len()).rev() {
        order.swap(k, (x >> (4 * k)) as usize % (k + 1));
    }
    let len = if x % 8 == 0 {
        1
    } else {
        2 + (x >> 3) as usize % 3
    };
    let nodes: Vec<String> = order[..len]
        .iter()
        .enumerate()
        .map(|(k, &node)| match (x >> (40 + 5 * k)) % 24 {
            0 => u32::MAX.to_string(),
            1 => NODES.to_string(),
            2 => order[0].to_string(),
            _ => node.to_string(),
        })
        .collect();
    format!("[{}]", nodes.join(","))
}

/// One input line (without its newline) from a kind and three draws.
fn line(kind: u32, x: u64, y: u64, z: u64) -> Vec<u8> {
    let text = match kind {
        0..=3 => format!(
            r#"{{"Arrival":{{"id":{},"route":{},"size":{}}}}}"#,
            id(x),
            route(z),
            size(y)
        ),
        4 | 5 => format!(r#"{{"Cancel":{{"id":{}}}}}"#, id(x)),
        6 => "\"Replan\"".to_string(),
        7 => "\"Stats\"".to_string(),
        8 => [" ", "", "\t \r", "   "][(x % 4) as usize].to_string(),
        9 => {
            // Garbage bytes, newlines removed so the line stays one line.
            let bytes = [x, y, z].map(u64::to_le_bytes).concat();
            let len = 1 + (x % 24) as usize;
            return bytes
                .into_iter()
                .filter(|&b| b != b'\n')
                .take(len)
                .collect();
        }
        10 => [
            r#"{"Arrival":{"id":-1,"route":[0,1],"size":3}}"#,
            r#"{"Arrival":{"id":1,"route":[0,1],"size":18446744073709551616}}"#,
            r#"{"Arrival":{"id":1,"route":[0,4294967296],"size":3}}"#,
            r#"{"Arrival":{"id":1,"route":[0,1],"size":1e400}}"#,
            r#"{"Arrival":{"id":1,"route":[],"size":3}}"#,
            r#"{"Cancel":{"id":-9223372036854775808}}"#,
            r#"{"Cancel":{"id":2.5}}"#,
            r#"{"Replan":null}"#,
        ][(x % 8) as usize]
            .to_string(),
        _ => {
            // Exactly the limit (read, then rejected as JSON) or past it
            // (skipped through its newline).
            let len = MAX_LINE_BYTES + (x % 3) as usize;
            return vec![b'{'; len];
        }
    };
    text.into_bytes()
}

/// A session: the lines, whether an early `Shutdown` cuts it, whether the
/// last line lacks its newline, and the policy.
fn session() -> impl Strategy<Value = (Vec<Vec<u8>>, Option<usize>, bool, bool)> {
    let draw = (0u32..12, 0u64..=u64::MAX, 0u64..=u64::MAX, 0u64..=u64::MAX);
    (
        prop::collection::vec(draw, 0..40),
        0u64..=u64::MAX,
        0u32..2,
        0u32..2,
    )
        .prop_map(|(draws, cut, open_end, octopus)| {
            // Overlong lines cost a megabyte each: keep at most one.
            let mut long_seen = false;
            let mut lines: Vec<Vec<u8>> = draws
                .into_iter()
                .filter(|&(kind, ..)| kind < 11 || !std::mem::replace(&mut long_seen, true))
                .map(|(kind, x, y, z)| line(kind, x, y, z))
                .collect();
            // One stream in four ends early at a `Shutdown`.
            let shutdown = (cut % 4 == 0).then(|| (cut / 4) as usize % (lines.len() + 1));
            if let Some(at) = shutdown {
                lines.insert(at, b"\"Shutdown\"".to_vec());
            }
            lines.push(b"\"Stats\"".to_vec());
            (lines, shutdown, open_end == 1, octopus == 1)
        })
}

/// A line gets no reply iff it is valid UTF-8 and only whitespace.
fn is_blank(line: &[u8]) -> bool {
    std::str::from_utf8(line).is_ok_and(|s| s.trim().is_empty())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn any_stream_gets_one_reply_per_line_and_conserves_packets(
        (lines, shutdown, open_end, octopus) in session()
    ) {
        let policy = if octopus { PolicyMode::Octopus } else { PolicyMode::Hysteresis };
        let cfg = ServeConfig { policy, ..ServeConfig::default() };
        let mut state = ServeState::new(topology::complete(NODES), cfg).expect("valid config");
        let mut input = lines.join(&b'\n');
        if !open_end {
            input.push(b'\n');
        }
        let mut out = Vec::new();
        serve_lines(Cursor::new(input), &mut out, &mut state).expect("in-memory io");

        let answered = shutdown.map_or(&lines[..], |at| &lines[..=at]);
        let expected = answered.iter().filter(|l| !is_blank(l)).count();
        let replies: Vec<Response> = String::from_utf8(out)
            .expect("replies are UTF-8")
            .lines()
            .map(|l| serde_json::from_str(l).expect("well-formed reply"))
            .collect();
        prop_assert_eq!(replies.len(), expected);
        if shutdown.is_some() {
            prop_assert!(matches!(replies.last(), Some(Response::Bye { .. })));
        }
        for reply in &replies {
            if let Response::Stats { stats } = reply {
                let out = u128::from(stats.delivered_packets)
                    + u128::from(stats.cancelled_packets)
                    + u128::from(stats.backlog);
                prop_assert_eq!(u128::from(stats.admitted_packets), out, "{:?}", stats);
            }
        }
    }
}
