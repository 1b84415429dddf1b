//! `octopus-serve` — the streaming scheduler daemon, as a process.
//!
//! ```text
//! octopus-serve [--complete N | --fabric FILE.json]
//!               [--listen ADDR] [--horizon H] [--delta D] [--eta E]
//!               [--policy hysteresis|octopus]
//! ```
//!
//! Without `--listen`, the daemon speaks NDJSON on stdin/stdout and exits at
//! `"Shutdown"` or EOF. With `--listen ADDR` (e.g. `127.0.0.1:4700`), it
//! checks its configuration, binds, and serves every TCP connection on a
//! thread of its own — each connection is a fresh session over a fresh
//! backlog, sharing nothing with the others — and keeps accepting after
//! `"Shutdown"` and after a failed accept. A connection that neither sends
//! a line nor takes a reply for [`IDLE_TIMEOUT`] is closed. At most
//! [`MAX_SESSIONS`] sessions run at once; a connection past the cap gets
//! one `Error` reply and is closed.
//!
//! A fabric file is `{"n": 4, "edges": [[0,1],[1,2],[2,3],[3,0]]}` (directed
//! links); `--complete N` builds the all-to-all fabric instead.

use octopus_core::SchedError;
use octopus_net::{topology, Network};
use octopus_serve::{serve_lines, PolicyMode, Response, ServeConfig, ServeState};
use serde::Deserialize;
use std::io::{BufReader, BufWriter, Write};
use std::net::{TcpListener, TcpStream};
use std::process::ExitCode;
use std::thread::JoinHandle;
use std::time::Duration;

/// How long a TCP session may wait on one read or one write before the
/// daemon closes it.
const IDLE_TIMEOUT: Duration = Duration::from_secs(300);

/// Most TCP sessions served at once, so a flood of idle clients holds at
/// most this many threads.
const MAX_SESSIONS: usize = 64;

/// How long the daemon waits after a failed `accept` before the next one.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(100);

/// On-disk fabric description (`Network`'s derived deserialize would skip
/// its adjacency caches, so the daemon rebuilds through `from_edges`).
#[derive(Deserialize)]
struct FabricFile {
    n: u32,
    edges: Vec<(u32, u32)>,
}

struct Args {
    net: Network,
    listen: Option<String>,
    cfg: ServeConfig,
}

fn usage() -> String {
    "usage: octopus-serve [--complete N | --fabric FILE.json] [--listen ADDR] \
     [--horizon H] [--delta D] [--eta E] [--policy hysteresis|octopus]"
        .to_string()
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut net: Option<Network> = None;
    let mut listen = None;
    let mut cfg = ServeConfig::default();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value\n{}", usage()))
        };
        match flag.as_str() {
            "--complete" => {
                let n: u32 = value("--complete")?
                    .parse()
                    .map_err(|e| format!("--complete: {e}"))?;
                if n < 2 {
                    return Err("--complete: need at least 2 nodes".to_string());
                }
                net = Some(topology::complete(n));
            }
            "--fabric" => {
                let path = value("--fabric")?;
                let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
                let file: FabricFile =
                    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
                net = Some(
                    Network::from_edges(file.n, file.edges).map_err(|e| format!("{path}: {e}"))?,
                );
            }
            "--listen" => listen = Some(value("--listen")?),
            "--horizon" => {
                cfg.horizon = value("--horizon")?
                    .parse()
                    .map_err(|e| format!("--horizon: {e}"))?;
            }
            "--delta" => {
                cfg.delta = value("--delta")?
                    .parse()
                    .map_err(|e| format!("--delta: {e}"))?;
            }
            "--eta" => {
                cfg.eta = value("--eta")?.parse().map_err(|e| format!("--eta: {e}"))?;
            }
            "--policy" => {
                cfg.policy = match value("--policy")?.as_str() {
                    "hysteresis" => PolicyMode::Hysteresis,
                    "octopus" => PolicyMode::Octopus,
                    other => return Err(format!("--policy: unknown mode {other:?}\n{}", usage())),
                };
            }
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown flag {other:?}\n{}", usage())),
        }
    }
    let net = net.ok_or_else(|| format!("a fabric is required\n{}", usage()))?;
    Ok(Args { net, listen, cfg })
}

fn run(args: Args) -> Result<(), String> {
    let fresh = |e: SchedError| format!("bad configuration: {e}");
    // Checks the configuration before anything is bound.
    let mut state = ServeState::new(args.net.clone(), args.cfg.clone()).map_err(fresh)?;
    let Some(addr) = args.listen else {
        let stdin = std::io::stdin();
        let stdout = std::io::stdout();
        return serve_lines(stdin.lock(), stdout.lock(), &mut state)
            .map_err(|e| format!("stdio session: {e}"));
    };
    let listener = TcpListener::bind(&addr).map_err(|e| format!("bind {addr}: {e}"))?;
    let local = listener
        .local_addr()
        .map_err(|e| format!("bind {addr}: {e}"))?;
    eprintln!("octopus-serve listening on {local}");
    let mut sessions: Vec<JoinHandle<()>> = Vec::new();
    for stream in listener.incoming() {
        // Join the sessions that ended, so a panicked one is reported.
        let (ended, live) = sessions.into_iter().partition(JoinHandle::is_finished);
        sessions = live;
        for session in ended {
            if session.join().is_err() {
                eprintln!("session panicked");
            }
        }
        let stream = match stream {
            Ok(stream) => stream,
            Err(e) => {
                eprintln!("accept: {e}");
                // Back off, so an error that persists (no file descriptors
                // left) does not spin the loop.
                std::thread::sleep(ACCEPT_BACKOFF);
                continue;
            }
        };
        if sessions.len() >= MAX_SESSIONS {
            if let Err(e) = refuse(stream) {
                eprintln!("refused connection: {e}");
            }
            continue;
        }
        // The configuration passed the check above, so this cannot fail.
        let state = ServeState::new(args.net.clone(), args.cfg.clone()).map_err(fresh)?;
        let session = std::thread::Builder::new().spawn(move || {
            if let Err(e) = serve_connection(stream, state) {
                eprintln!("session ended with error: {e}");
            }
        });
        match session {
            Ok(session) => sessions.push(session),
            Err(e) => eprintln!("session thread: {e}"),
        }
    }
    Ok(())
}

/// Answers a connection past [`MAX_SESSIONS`] with one `Error` line, then
/// closes it. The line is far smaller than a fresh socket's send buffer, so
/// the write cannot stall the accept loop.
fn refuse(mut stream: TcpStream) -> std::io::Result<()> {
    let reply = Response::Error {
        message: format!("too many sessions: {MAX_SESSIONS} open, try again later"),
    };
    let mut line = Vec::new();
    reply.write_line(&mut line).map_err(std::io::Error::other)?;
    stream.write_all(&line)
}

/// Serves one TCP session to its end under [`IDLE_TIMEOUT`].
fn serve_connection(stream: TcpStream, mut state: ServeState) -> std::io::Result<()> {
    stream.set_read_timeout(Some(IDLE_TIMEOUT))?;
    stream.set_write_timeout(Some(IDLE_TIMEOUT))?;
    let reader = BufReader::new(stream.try_clone()?);
    serve_lines(reader, BufWriter::new(stream), &mut state)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&argv).and_then(run) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
