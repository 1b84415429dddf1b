//! End-to-end smoke tests for the daemon: an in-process NDJSON session over
//! `Cursor`, a TCP round-trip against a real socket, and protocol edge
//! cases (malformed lines, invalid routes, blank lines, non-UTF-8 bytes,
//! overlong lines).

use octopus_net::topology;
use octopus_serve::{
    serve_lines, Event, PolicyMode, Response, ServeConfig, ServeState, MAX_LINE_BYTES,
};
use std::io::Cursor;

fn new_state(policy: PolicyMode) -> ServeState {
    let cfg = ServeConfig {
        policy,
        ..ServeConfig::default()
    };
    ServeState::new(topology::complete(6), cfg).expect("valid config")
}

fn run_script(state: &mut ServeState, script: &str) -> Vec<Response> {
    let mut out = Vec::new();
    serve_lines(Cursor::new(script.as_bytes()), &mut out, state).expect("in-memory io");
    String::from_utf8(out)
        .expect("utf8 output")
        .lines()
        .map(|l| serde_json::from_str(l).expect("well-formed response"))
        .collect()
}

#[test]
fn ndjson_session_admits_replans_and_shuts_down() {
    let mut state = new_state(PolicyMode::Octopus);
    let script = concat!(
        r#"{"Arrival":{"id":1,"route":[0,3,5],"size":100}}"#,
        "\n",
        r#"{"Arrival":{"id":2,"route":[2,3],"size":30}}"#,
        "\n",
        "\"Replan\"\n",
        "\"Stats\"\n",
        "\"Shutdown\"\n",
    );
    let responses = run_script(&mut state, script);
    assert_eq!(responses.len(), 5);
    assert_eq!(
        responses[0],
        Response::Admitted {
            id: 1,
            backlog: 100
        }
    );
    assert_eq!(
        responses[1],
        Response::Admitted {
            id: 2,
            backlog: 130
        }
    );
    let Response::Plan {
        delivered,
        backlog,
        reconfigured,
        ..
    } = &responses[2]
    else {
        panic!("expected Plan, got {:?}", responses[2]);
    };
    // Greedy mode drains everything the horizon allows: all 130 packets.
    assert_eq!(*delivered, 130);
    assert_eq!(*backlog, 0);
    assert!(reconfigured);
    let Response::Stats { stats } = &responses[3] else {
        panic!("expected Stats, got {:?}", responses[3]);
    };
    assert_eq!(stats.admitted_packets, 130);
    assert_eq!(stats.delivered_packets, 130);
    assert_eq!(stats.backlog, 0);
    assert_eq!(stats.replans, 1);
    assert_eq!(responses[4], Response::Bye { events: 5 });
}

#[test]
fn hysteresis_session_delivers_multihop_across_replans() {
    let mut state = new_state(PolicyMode::Hysteresis);
    // One 2-hop flow: the hysteresis policy serves one matching per
    // re-plan, so delivery takes two re-plans (one hop each).
    let script = concat!(
        r#"{"Arrival":{"id":9,"route":[1,4,2],"size":60}}"#,
        "\n",
        "\"Replan\"\n",
        "\"Replan\"\n",
        "\"Stats\"\n",
    );
    let responses = run_script(&mut state, script);
    assert_eq!(responses.len(), 4); // EOF ends the session without Bye
    let Response::Plan { delivered: d1, .. } = &responses[1] else {
        panic!("expected Plan, got {:?}", responses[1]);
    };
    let Response::Plan { delivered: d2, .. } = &responses[2] else {
        panic!("expected Plan, got {:?}", responses[2]);
    };
    assert_eq!(*d1, 0, "first re-plan only advances packets to the relay");
    assert_eq!(*d2, 60, "second re-plan brings them home");
    let Response::Stats { stats } = &responses[3] else {
        panic!("expected Stats, got {:?}", responses[3]);
    };
    assert_eq!(stats.delivered_packets, 60);
    assert_eq!(stats.backlog, 0);
}

#[test]
fn cancel_removes_queued_packets_and_unknown_ids_are_noops() {
    let mut state = new_state(PolicyMode::Hysteresis);
    let script = concat!(
        r#"{"Arrival":{"id":5,"route":[0,1],"size":25}}"#,
        "\n",
        r#"{"Cancel":{"id":5}}"#,
        "\n",
        r#"{"Cancel":{"id":77}}"#,
        "\n",
    );
    let responses = run_script(&mut state, script);
    assert_eq!(
        responses[1],
        Response::Cancelled {
            id: 5,
            removed: 25,
            backlog: 0
        }
    );
    assert_eq!(
        responses[2],
        Response::Cancelled {
            id: 77,
            removed: 0,
            backlog: 0
        }
    );
}

#[test]
fn bad_lines_get_errors_without_killing_the_session() {
    let mut state = new_state(PolicyMode::Hysteresis);
    let script = concat!(
        "this is not json\n",
        "\n",                                             // blank line: skipped, no response
        r#"{"Arrival":{"id":1,"route":[0,9],"size":5}}"#, // node 9 not in net
        "\n",
        r#"{"Arrival":{"id":1,"route":[0],"size":5}}"#, // single-node route
        "\n",
        r#"{"Arrival":{"id":1,"route":[0,1],"size":5}}"#, // fine
        "\n",
        "\"Stats\"\n",
    );
    let responses = run_script(&mut state, script);
    assert_eq!(responses.len(), 5);
    assert!(matches!(responses[0], Response::Error { .. }));
    assert!(matches!(responses[1], Response::Error { .. }));
    assert!(matches!(responses[2], Response::Error { .. }));
    assert_eq!(responses[3], Response::Admitted { id: 1, backlog: 5 });
    let Response::Stats { stats } = &responses[4] else {
        panic!("expected Stats, got {:?}", responses[4]);
    };
    // Failed admissions must not leak packets into the backlog.
    assert_eq!(stats.admitted_packets, 5);
    assert_eq!(stats.backlog, 5);
}

#[test]
fn garbage_bytes_and_overlong_lines_get_errors_without_killing_the_session() {
    let mut state = new_state(PolicyMode::Octopus);
    let mut script: Vec<u8> = Vec::new();
    script.extend_from_slice(b"\xff\xfe not utf-8\n\"Stats\"\n");
    script.extend(std::iter::repeat(b'x').take(MAX_LINE_BYTES + 1));
    script.extend_from_slice(b"\n\"Stats\"\n");
    script.extend_from_slice(b"\n\"Stats\"\n");
    // Exactly at the cap is still a line: a `Stats` padded with spaces.
    script.extend_from_slice(b"\"Stats\"");
    script.extend(std::iter::repeat(b' ').take(MAX_LINE_BYTES - 7));
    script.push(b'\n');
    script.extend_from_slice(b"\"Shutdown\"\n");

    let mut out = Vec::new();
    serve_lines(Cursor::new(script), &mut out, &mut state).expect("in-memory io");
    let responses: Vec<Response> = String::from_utf8(out)
        .expect("utf8 output")
        .lines()
        .map(|l| serde_json::from_str(l).expect("well-formed response"))
        .collect();
    let kinds: Vec<&str> = responses
        .iter()
        .map(|r| match r {
            Response::Error { .. } => "Error",
            Response::Stats { .. } => "Stats",
            Response::Bye { .. } => "Bye",
            other => panic!("unexpected {other:?}"),
        })
        .collect();
    assert_eq!(
        kinds,
        ["Error", "Stats", "Error", "Stats", "Stats", "Stats", "Bye"]
    );
}

#[test]
fn mid_window_links_are_interned_on_the_fly() {
    let mut state = new_state(PolicyMode::Octopus);
    // First arrival seeds the key vector; the second, admitted after a
    // re-plan, rides on links the state layer has never seen — the
    // headline bugfix path.
    let r1 = run_script(
        &mut state,
        concat!(
            r#"{"Arrival":{"id":1,"route":[0,1],"size":10}}"#,
            "\n",
            "\"Replan\"\n",
        ),
    );
    assert!(matches!(&r1[1], Response::Plan { delivered: 10, .. }));
    let r2 = run_script(
        &mut state,
        concat!(
            r#"{"Arrival":{"id":2,"route":[3,5,4],"size":20}}"#,
            "\n",
            "\"Replan\"\n",
            "\"Stats\"\n",
        ),
    );
    assert!(matches!(&r2[1], Response::Plan { delivered: 20, .. }));
    let Response::Stats { stats } = &r2[2] else {
        panic!("expected Stats, got {:?}", r2[2]);
    };
    assert_eq!(stats.delivered_packets, 30);
    assert_eq!(stats.interned_links, 3); // (0,1), (3,5), (5,4)
}

#[test]
fn tcp_round_trip_over_a_real_socket() {
    use std::io::{BufRead, BufReader, Write};
    use std::net::{TcpListener, TcpStream};

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().expect("local addr");
    let server = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept");
        let mut state = new_state(PolicyMode::Octopus);
        let reader = BufReader::new(stream.try_clone().expect("clone stream"));
        serve_lines(reader, stream, &mut state).expect("serve session");
    });

    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut ask = |event: &Event| -> Response {
        let line = serde_json::to_string(event).expect("serialize event");
        writeln!(stream, "{line}").expect("send");
        let mut answer = String::new();
        reader.read_line(&mut answer).expect("receive");
        serde_json::from_str(&answer).expect("well-formed response")
    };

    let reply = ask(&Event::Arrival {
        id: 1,
        route: vec![0, 2, 4],
        size: 64,
    });
    assert_eq!(reply, Response::Admitted { id: 1, backlog: 64 });
    let reply = ask(&Event::Replan);
    assert!(matches!(reply, Response::Plan { delivered: 64, .. }));
    let reply = ask(&Event::Shutdown);
    assert_eq!(reply, Response::Bye { events: 3 });
    server.join().expect("server thread");
}

#[test]
fn cache_replays_identical_windows_and_invalidates_on_interning() {
    let mut state = new_state(PolicyMode::Octopus);

    let plan_of = |responses: &[Response]| -> Vec<octopus_serve::PlanConfig> {
        match responses.last() {
            Some(Response::Plan { configs, .. }) => configs.clone(),
            other => panic!("expected a plan, got {other:?}"),
        }
    };

    // Window 1: one flow on (0, 1) — cold, recorded.
    let r1 = run_script(
        &mut state,
        "{\"Arrival\":{\"id\":1,\"route\":[0,1],\"size\":50}}\n\"Replan\"\n",
    );
    let p1 = plan_of(&r1);
    assert!(!p1.is_empty());
    assert_eq!(state.cache_stats().misses, 1);
    assert_eq!(state.cache_stats().exact_hits, 0);

    // Window 2: a different flow id, same route and size. The drained
    // backlog plus an identical admission reproduces the queue content and
    // no new link is interned, so the cache key matches exactly and the
    // daemon replays the cached schedule.
    let r2 = run_script(
        &mut state,
        "{\"Arrival\":{\"id\":2,\"route\":[0,1],\"size\":50}}\n\"Replan\"\n",
    );
    assert_eq!(plan_of(&r2), p1, "exact hit must replay the same schedule");
    assert_eq!(state.cache_stats().exact_hits, 1);
    assert_eq!(state.cache_stats().misses, 1);

    // Window 3: touch a never-seen link (2, 3), cancel it again, then admit
    // the same (0, 1) flow as before. The queue *content* is identical to
    // windows 1 and 2, but admitting (2, 3) interned a new link mid-window —
    // the key-generation bump must invalidate the exact match.
    let r3 = run_script(
        &mut state,
        concat!(
            "{\"Arrival\":{\"id\":3,\"route\":[2,3],\"size\":10}}\n",
            "{\"Cancel\":{\"id\":3}}\n",
            "{\"Arrival\":{\"id\":4,\"route\":[0,1],\"size\":50}}\n",
            "\"Replan\"\n",
        ),
    );
    assert_eq!(
        plan_of(&r3),
        p1,
        "the cold re-plan of identical content still emits the same schedule"
    );
    assert_eq!(
        state.cache_stats().misses,
        2,
        "interning mid-window must bump the key generation and miss"
    );
    assert_eq!(state.cache_stats().exact_hits, 1);

    // The protocol surfaces the counters.
    let r4 = run_script(&mut state, "\"Stats\"\n");
    match r4.last() {
        Some(Response::Stats { stats }) => {
            assert_eq!(stats.cache_exact_hits, 1);
            assert_eq!(stats.cache_misses, 2);
        }
        other => panic!("expected stats, got {other:?}"),
    }
}

/// Backlogs whose per-link queues match but whose packets go different
/// places next must not share a cached plan: the third window queues ten
/// packets on (0, 1) exactly like the second, with the same links interned,
/// yet they continue to 2, not to 3, so replaying the second window's plan
/// would deliver nothing.
#[test]
fn cache_never_replays_a_plan_for_different_downstream_routes() {
    let cfg = ServeConfig {
        policy: PolicyMode::Octopus,
        horizon: 200,
        delta: 5,
        ..ServeConfig::default()
    };
    let mut state = ServeState::new(topology::complete(4), cfg).expect("valid config");
    let mut plans = Vec::new();
    for (id, last) in [(1, 2), (2, 3), (3, 2), (4, 2)] {
        let script = format!(
            "{{\"Arrival\":{{\"id\":{id},\"route\":[0,1,{last}],\"size\":10}}}}\n\"Replan\"\n"
        );
        match run_script(&mut state, &script).last() {
            Some(Response::Plan {
                configs,
                delivered,
                backlog,
                ..
            }) => {
                assert_eq!((*delivered, *backlog), (10, 0), "flow {id}");
                plans.push(configs.clone());
            }
            other => panic!("expected a plan, got {other:?}"),
        }
    }
    // Flow 3 is planned cold: the same plan as flow 1, not flow 2's.
    assert_eq!(plans[2], plans[0]);
    assert_ne!(plans[2], plans[1]);
    assert_eq!(state.cache_stats().misses, 3);
    // Flow 4 repeats flow 3's window exactly and replays its plan.
    assert_eq!(state.cache_stats().exact_hits, 1);
    assert_eq!(plans[3], plans[2]);
}

/// Arrivals whose sizes sum past `u64::MAX` are refused with an error and
/// the session goes on with its counters intact.
#[test]
fn admission_overflow_is_an_error_that_keeps_the_session() {
    let mut state = new_state(PolicyMode::Octopus);
    let big = u64::MAX / 2 + 1;
    let script = format!(
        concat!(
            "{{\"Arrival\":{{\"id\":1,\"route\":[0,1],\"size\":{big}}}}}\n",
            "{{\"Arrival\":{{\"id\":2,\"route\":[2,3],\"size\":{big}}}}}\n",
            "{{\"Arrival\":{{\"id\":3,\"route\":[4,5],\"size\":7}}}}\n",
            "\"Stats\"\n",
        ),
        big = big
    );
    let responses = run_script(&mut state, &script);
    assert_eq!(responses.len(), 4);
    assert_eq!(
        responses[0],
        Response::Admitted {
            id: 1,
            backlog: big
        }
    );
    assert!(
        matches!(&responses[1], Response::Error { message } if message.contains("overflow")),
        "got {:?}",
        responses[1]
    );
    assert_eq!(
        responses[2],
        Response::Admitted {
            id: 3,
            backlog: big + 7
        }
    );
    let Response::Stats { stats } = &responses[3] else {
        panic!("expected Stats, got {:?}", responses[3]);
    };
    assert_eq!(stats.admitted_packets, big + 7);
    assert_eq!(
        stats.admitted_packets,
        stats.delivered_packets + stats.cancelled_packets + stats.backlog
    );
}

#[test]
fn binary_rejects_negative_and_nan_eta() {
    for eta in ["-5", "NaN"] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_octopus-serve"))
            .args(["--complete", "4", "--eta", eta])
            .stdin(std::process::Stdio::null())
            .output()
            .expect("daemon binary runs");
        assert!(!out.status.success(), "--eta {eta} must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("bad configuration"),
            "--eta {eta}: {stderr}"
        );
    }
}

#[test]
fn binary_rejects_a_horizon_above_2_pow_53() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_octopus-serve"))
        .args(["--complete", "4", "--horizon", "18446744073709551615"])
        .stdin(std::process::Stdio::null())
        .output()
        .expect("daemon binary runs");
    assert!(!out.status.success(), "--horizon u64::MAX must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("bad configuration") && stderr.contains("largest supported window"),
        "{stderr}"
    );
}

#[test]
fn constructor_rejects_negative_and_nan_eta() {
    for eta in [-5.0, f64::NAN] {
        let cfg = ServeConfig {
            eta,
            ..ServeConfig::default()
        };
        assert!(
            ServeState::new(topology::complete(4), cfg).is_err(),
            "eta {eta}"
        );
    }
}

/// An `octopus-serve` process with `args`, stderr piped, killed when the
/// test ends however it ends.
struct Daemon(std::process::Child);

impl Daemon {
    fn spawn(args: &[&str]) -> Self {
        let child = std::process::Command::new(env!("CARGO_BIN_EXE_octopus-serve"))
            .args(args)
            .stdin(std::process::Stdio::null())
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::piped())
            .spawn()
            .expect("daemon binary runs");
        Daemon(child)
    }

    /// Waits up to ten seconds for the daemon to exit.
    fn exit_status(&mut self) -> Option<std::process::ExitStatus> {
        for _ in 0..200 {
            if let Some(status) = self.0.try_wait().expect("poll daemon") {
                return Some(status);
            }
            std::thread::sleep(std::time::Duration::from_millis(50));
        }
        None
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn binary_rejects_a_bad_horizon_before_listening() {
    let mut daemon = Daemon::spawn(&[
        "--complete",
        "4",
        "--listen",
        "127.0.0.1:0",
        "--horizon",
        "18446744073709551615",
    ]);
    let status = daemon
        .exit_status()
        .expect("the daemon must exit without a client");
    assert!(!status.success());
    let mut stderr = String::new();
    std::io::Read::read_to_string(&mut daemon.0.stderr.take().expect("piped"), &mut stderr)
        .expect("read stderr");
    assert!(
        stderr.contains("bad configuration") && !stderr.contains("listening"),
        "{stderr}"
    );
}

#[test]
fn binary_serves_a_second_client_while_the_first_is_silent() {
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

    let mut daemon = Daemon::spawn(&["--complete", "4", "--listen", "127.0.0.1:0"]);
    let mut banner = String::new();
    BufReader::new(daemon.0.stderr.take().expect("piped"))
        .read_line(&mut banner)
        .expect("read banner");
    let addr = banner
        .trim()
        .strip_prefix("octopus-serve listening on ")
        .unwrap_or_else(|| panic!("unexpected banner {banner:?}"))
        .to_string();

    let _silent = TcpStream::connect(&addr).expect("first client connects");
    let mut stream = TcpStream::connect(&addr).expect("second client connects");
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .expect("client timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut ask = |line: &str| -> Response {
        writeln!(stream, "{line}").expect("send");
        let mut answer = String::new();
        reader
            .read_line(&mut answer)
            .expect("the second client gets a reply");
        serde_json::from_str(&answer).expect("well-formed response")
    };
    assert!(matches!(ask("\"Stats\""), Response::Stats { .. }));
    assert_eq!(ask("\"Shutdown\""), Response::Bye { events: 2 });
}
