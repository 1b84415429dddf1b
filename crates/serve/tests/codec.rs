//! The daemon's wire codec against its oracle, the serde derives.
//!
//! * Every event, written by `serde_json::to_string` plus `\n`, parses back
//!   through [`Event::parse_line`] to itself.
//! * On mutations of canonical lines (whitespace, reordered keys, leading
//!   zeros, signs, fractions, exponents, over-long digit runs, `\r\n`, a
//!   missing newline, truncation, duplication), `parse_line` agrees with
//!   `serde_json::from_str::<Event>`: the same event, or an error with the
//!   same text.
//! * Every reply written by [`Response::write_line`] is byte for byte
//!   `serde_json::to_string` plus `\n`, for extreme integers, every kind of
//!   float (zeros, NaN, infinities, subnormals, random bit patterns) and
//!   messages with quotes, backslashes, control characters and non-ASCII
//!   text.

use octopus_serve::{Event, PlanConfig, Response, ServeStats};
use proptest::prelude::*;

/// A `u64`: an extreme or a random value.
fn int(x: u64) -> u64 {
    match x % 5 {
        0 => 0,
        1 => u64::MAX,
        2 => x % 1000,
        _ => x >> (x % 64),
    }
}

/// A node id: an extreme or a random value.
fn node(x: u64) -> u32 {
    match x % 4 {
        0 => 0,
        1 => u32::MAX,
        2 => (x % 64) as u32,
        _ => (x >> 32) as u32,
    }
}

/// An event of kind `kind % 5` from three draws; routes have 0–5 nodes.
fn event(kind: u32, x: u64, y: u64, z: u64) -> Event {
    match kind % 5 {
        0 => Event::Arrival {
            id: int(x),
            route: (0..z % 6)
                .map(|k| node(z.rotate_left(11 * k as u32) ^ y))
                .collect(),
            size: int(y),
        },
        1 => Event::Cancel { id: int(x) },
        2 => Event::Replan,
        3 => Event::Stats,
        _ => Event::Shutdown,
    }
}

/// Byte ranges of the digit runs in `text`.
fn digit_runs(text: &str) -> Vec<(usize, usize)> {
    let bytes = text.as_bytes();
    let mut runs = Vec::new();
    let mut k = 0;
    while k < bytes.len() {
        if bytes[k].is_ascii_digit() {
            let start = k;
            while k < bytes.len() && bytes[k].is_ascii_digit() {
                k += 1;
            }
            runs.push((start, k));
        } else {
            k += 1;
        }
    }
    runs
}

/// The canonical line of `event` changed by mutation `kind % 12`, placed
/// by the draw `at`.
fn mutate(event: &Event, kind: u32, at: u64) -> String {
    let text = serde_json::to_string(event).unwrap();
    let runs = digit_runs(&text);
    // A digit run to edit, or the end of the text when there is none.
    let (start, end) = match runs.len() {
        0 => (text.len(), text.len()),
        n => runs[at as usize % n],
    };
    let pos = at as usize % (text.len() + 1);
    let insert = |k: usize, s: &str| format!("{}{s}{}\n", &text[..k], &text[k..]);
    match kind % 12 {
        0 => insert(pos, [" ", "\t", "\r", "\n "][at as usize % 4]),
        1 => match event {
            Event::Arrival { id, route, size } => {
                let route = serde_json::to_string(route).unwrap();
                let fields = [
                    format!(r#""id":{id}"#),
                    format!(r#""route":{route}"#),
                    format!(r#""size":{size}"#),
                ];
                let order = [[2, 0, 1], [1, 2, 0], [0, 2, 1], [2, 1, 0]][at as usize % 4];
                let body: Vec<&str> = order.iter().map(|&k| fields[k].as_str()).collect();
                format!(r#"{{"Arrival":{{{}}}}}"#, body.join(",")) + "\n"
            }
            _ => format!("{{ {} }}\n", &text),
        },
        2 => insert(start, "0"),
        3 => insert(start, ["-", "+", "-0", "--"][at as usize % 4]),
        4 => insert(end, [".0", ".5", ".", "0.0"][at as usize % 4]),
        5 => insert(end, ["e0", "E1", "e-1", "e+400", "e"][at as usize % 5]),
        6 => insert(end, &"9".repeat(1 + at as usize % 24)),
        7 => format!("{text}\r\n"),
        8 => text,
        9 => text[..pos.min(text.len().saturating_sub(1))].to_string() + "\n",
        10 => format!("{text}{text}\n"),
        _ => {
            // Duplicate a slice in place (often a key or a whole field).
            let from = pos.min(start);
            let to = (from + 1 + at as usize % 12).min(text.len());
            insert(to, &text[from..to])
        }
    }
}

/// `parse_line`'s result, with errors as their text.
fn parsed(line: &str) -> Result<Event, String> {
    Event::parse_line(line).map_err(|e| e.to_string())
}

/// serde's result for the same line, with errors as their text.
fn oracle(line: &str) -> Result<Event, String> {
    serde_json::from_str::<Event>(line).map_err(|e| e.to_string())
}

/// A float: a special value, a large or tiny one, or a random bit pattern.
fn float(x: u64) -> f64 {
    match x % 10 {
        0 => 0.0,
        1 => -0.0,
        2 => f64::NAN,
        3 => f64::INFINITY,
        4 => f64::NEG_INFINITY,
        5 => 1e300,
        6 => f64::from_bits(1),
        7 => (x % 100_000) as f64 / 64.0,
        _ => f64::from_bits(x),
    }
}

/// A message drawn from quotes, backslashes, control characters,
/// non-ASCII text and plain letters.
fn message(x: u64) -> String {
    const PIECES: [&str; 16] = [
        "\"",
        "\\",
        "\n",
        "\r",
        "\t",
        "\u{8}",
        "\u{c}",
        "\u{0}",
        "\u{1f}",
        "\u{7f}",
        "é",
        "✓",
        "𝄞",
        "\u{2028}",
        "bad event: ",
        "/",
    ];
    (0..x % 12)
        .map(|k| PIECES[(x >> (4 * k)) as usize % PIECES.len()])
        .collect()
}

/// A reply of variant `kind % 6` from three draws.
fn response(kind: u32, x: u64, y: u64, z: u64) -> Response {
    match kind % 6 {
        0 => Response::Admitted {
            id: int(x),
            backlog: int(y),
        },
        1 => Response::Cancelled {
            id: int(x),
            removed: int(y),
            backlog: int(z),
        },
        2 => Response::Plan {
            configs: (0..x % 4)
                .map(|c| PlanConfig {
                    links: (0..(y >> c) % 5)
                        .map(|l| {
                            (
                                node(z.rotate_left(l as u32) ^ c),
                                node(z ^ y.rotate_left(7 * l as u32)),
                            )
                        })
                        .collect(),
                    alpha: int(z.rotate_left(c as u32)),
                })
                .collect(),
            psi: float(y),
            delivered: int(z),
            backlog: int(x ^ y),
            reconfigured: z % 2 == 0,
            elapsed_us: int(z >> 3),
        },
        3 => Response::Stats {
            stats: ServeStats {
                events: int(x),
                replans: int(y),
                admitted_packets: int(z),
                cancelled_packets: int(x ^ y),
                delivered_packets: int(y ^ z),
                psi: float(x ^ z),
                backlog: int(x.rotate_left(9)),
                interned_links: int(y.rotate_left(9)),
                cache_exact_hits: int(z.rotate_left(9)),
                cache_misses: int(x.rotate_left(17)),
            },
        },
        4 => Response::Error {
            message: message(x ^ y),
        },
        _ => Response::Bye { events: int(x) },
    }
}

/// A kind and three draws for `event` or `response`.
fn draws() -> impl Strategy<Value = (u32, u64, u64, u64)> {
    (0u32..60, 0u64..=u64::MAX, 0u64..=u64::MAX, 0u64..=u64::MAX)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn canonical_lines_parse_to_their_event((kind, x, y, z) in draws()) {
        let event = event(kind, x, y, z);
        let line = serde_json::to_string(&event).unwrap() + "\n";
        prop_assert_eq!(parsed(&line), Ok(event));
    }

    #[test]
    fn mutated_lines_parse_as_serde_parses_them(
        (kind, x, y, z) in draws(),
        (mutation, at) in (0u32..12, 0u64..=u64::MAX),
    ) {
        let line = mutate(&event(kind, x, y, z), mutation, at);
        prop_assert_eq!(parsed(&line), oracle(&line), "line {:?}", line);
    }

    #[test]
    fn replies_are_written_as_serde_writes_them((kind, x, y, z) in draws()) {
        let reply = response(kind, x, y, z);
        // `write_line` appends: a previous line in the buffer stays.
        let mut out = b"{}\n".to_vec();
        reply.write_line(&mut out).unwrap();
        let expected = format!("{{}}\n{}\n", serde_json::to_string(&reply).unwrap());
        prop_assert_eq!(String::from_utf8(out).unwrap(), expected);
    }
}

#[test]
fn extreme_integers_and_fixed_mutations_agree_with_serde() {
    let max = u64::MAX;
    let lines = [
        format!(
            "{{\"Arrival\":{{\"id\":{max},\"route\":[0,{}],\"size\":{max}}}}}\n",
            u32::MAX
        ),
        format!(
            "{{\"Arrival\":{{\"id\":1,\"route\":[0,{}],\"size\":1}}}}\n",
            u64::from(u32::MAX) + 1
        ),
        "{\"Arrival\":{\"id\":18446744073709551616,\"route\":[],\"size\":0}}\n".to_string(),
        "{\"Arrival\":{\"id\":00,\"route\":[1],\"size\":0}}\n".to_string(),
        "{\"Arrival\":{\"id\":-0,\"route\":[1],\"size\":0}}\n".to_string(),
        "{\"Arrival\": {\"size\": 5, \"route\": [1, 4], \"id\": 3}}\n".to_string(),
        "{\"Arrival\":{\"id\":1,\"id\":2,\"route\":[1],\"size\":0}}\n".to_string(),
        "{\"Cancel\":{\"id\":0}}".to_string(),
        "{\"Cancel\":{\"id\":1e3}}\n".to_string(),
        "{\"Replan\":null}\n".to_string(),
        "\"Replan\"\r\n".to_string(),
        "\"Stats\"\n\n".to_string(),
        " \"Shutdown\"\n".to_string(),
        "\"Unknown\"\n".to_string(),
    ];
    for line in &lines {
        assert_eq!(parsed(line), oracle(line), "line {line:?}");
    }
}
