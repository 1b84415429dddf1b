//! `serve-hysteresis` and `serve-periodic`: a pre-generated NDJSON stream
//! fed to `octopus_serve::serve_lines` on the complete n = 64 fabric, one
//! closed-loop client, no socket.

use crate::layers::{self, Config, LayerCounts};
use crate::measure::{Checks, Cpus, Digest, Fail, Record, Rng, Samples, Tracer};
use crate::{EndToEnd, Run};
use octopus_core::{best_configuration, RemainingTraffic, ScheduleEngine};
use octopus_net::{topology, NodeId};
use octopus_serve::{serve_lines, Event, PolicyMode, Response, ServeConfig, ServeState};
use octopus_traffic::{FlowId, Route};
use std::io::Write;
use std::time::Instant;

const N: u32 = 64;
/// Times the untraced run serves the stream, each time on a fresh
/// `ServeState` and on the next CPU the process may use. A line's latency
/// is its fastest answer over the replays, so a neighbour on a shared
/// machine that slows some replays, or one CPU, moves it less than it
/// moves a single pass.
const REPLAYS: usize = 10;
/// Flow events between two hysteresis re-plans.
const EVENTS_PER_REPLAN: usize = 1_000;
/// Hysteresis re-plans per second of `--seconds`, over all replays (each
/// costs more as the backlog grows).
const REPLANS_PER_S: u64 = 31;
/// Flows per periodic batch, templates, and rounds per second of `--seconds`
/// over all replays.
const BATCH: usize = 256;
const TEMPLATES: usize = 4;
const ROUNDS_PER_S: u64 = 100;
/// The templates are the fabric's recurring jobs, part of the workload like
/// `N` and `BATCH`: they are drawn from this fixed seed, so the cost of a
/// repeat is the same for every `--seed`, which draws the order of rounds,
/// the drift and the fresh batches.
const TEMPLATE_SEED: u64 = 0x0C70_9005;
/// First flow id of the periodic stream (pre-interning uses the ids below).
const FIRST_STREAM_ID: u64 = 1 << 20;

/// Which serve workload.
#[derive(Clone, Copy, PartialEq)]
pub enum Policy {
    Hysteresis,
    Periodic,
}

/// What a periodic round replays: one of the templates exactly, a template
/// with a few flows grown, or a fresh batch.
#[derive(Clone, Copy, PartialEq)]
enum Round {
    Exact(usize),
    Drift(usize),
    Fresh,
}

/// The generated session: events in order, their NDJSON encoding, and for
/// each `Replan` the periodic round it closes.
struct Stream {
    events: Vec<Event>,
    bytes: Vec<u8>,
    rounds: Vec<Round>,
}

fn random_route(rng: &mut Rng) -> Vec<u32> {
    let hops = 1 + rng.below(3) as usize;
    let mut route = Vec::with_capacity(hops + 1);
    route.push(rng.below(u64::from(N)) as u32);
    while route.len() < hops + 1 {
        let next = rng.below(u64::from(N)) as u32;
        if !route.contains(&next) {
            route.push(next);
        }
    }
    route
}

/// 80% arrivals on random 1–3-hop routes (1–64 packets), 20% cancels of
/// live flows, a `Replan` after every 1 000 flow events, a final `Stats`.
fn hysteresis_events(rng: &mut Rng, replans: u64) -> Vec<Event> {
    let mut events = Vec::with_capacity(replans as usize * (EVENTS_PER_REPLAN + 1) + 1);
    let mut live: Vec<u64> = Vec::new();
    let mut next_id = 1u64;
    for _ in 0..replans {
        for _ in 0..EVENTS_PER_REPLAN {
            if !live.is_empty() && rng.below(5) == 0 {
                let id = live.swap_remove(rng.below(live.len() as u64) as usize);
                events.push(Event::Cancel { id });
            } else {
                let route = random_route(rng);
                let size = 1 + rng.below(64);
                events.push(Event::Arrival {
                    id: next_id,
                    route,
                    size,
                });
                live.push(next_id);
                next_id += 1;
            }
        }
        events.push(Event::Replan);
    }
    events.push(Event::Stats);
    events
}

/// Round kinds dealt per ten rounds: 0 replays a template exactly, 1 grows
/// a template, 2 is a fresh batch.
const DECK: [u8; 10] = [0, 0, 0, 0, 1, 1, 1, 2, 2, 2];

/// Rounds of one 256-flow batch then `Replan`: 40% exact repeats of one of
/// four fixed templates, 30% templates with about 1/16 of flows grown by 0–4
/// packets, 30% fresh batches; a final `Stats`.
fn periodic_events(rng: &mut Rng, rounds: u64) -> (Vec<Event>, Vec<Round>) {
    let batch = |rng: &mut Rng| -> Vec<(Vec<u32>, u64)> {
        (0..BATCH)
            .map(|_| (random_route(rng), 1 + rng.below(64)))
            .collect()
    };
    let mut template_rng = Rng::new(TEMPLATE_SEED);
    let templates: Vec<_> = (0..TEMPLATES).map(|_| batch(&mut template_rng)).collect();
    let mut events = Vec::with_capacity(rounds as usize * (BATCH + 1) + 1);
    let mut kinds = Vec::with_capacity(rounds as usize);
    let mut next_id = FIRST_STREAM_ID;
    let mut deck = DECK;
    for r in 0..rounds as usize {
        // Each block of ten rounds deals the whole deck in a seeded order,
        // so the outcome mix is exact at every run length.
        let k = r % DECK.len();
        if k == 0 {
            for i in (1..deck.len()).rev() {
                deck.swap(i, rng.below(i as u64 + 1) as usize);
            }
        }
        let t = rng.below(TEMPLATES as u64) as usize;
        let (round, flows) = match deck[k] {
            0 => (Round::Exact(t), templates[t].clone()),
            1 => {
                let mut flows = templates[t].clone();
                for f in &mut flows {
                    if rng.below(16) == 0 {
                        f.1 += rng.below(5);
                    }
                }
                (Round::Drift(t), flows)
            }
            _ => (Round::Fresh, batch(rng)),
        };
        for (route, size) in flows {
            events.push(Event::Arrival {
                id: next_id,
                route,
                size,
            });
            next_id += 1;
        }
        events.push(Event::Replan);
        kinds.push(round);
    }
    events.push(Event::Stats);
    (events, kinds)
}

fn config(policy: Policy) -> ServeConfig {
    ServeConfig {
        policy: match policy {
            Policy::Hysteresis => PolicyMode::Hysteresis,
            Policy::Periodic => PolicyMode::Octopus,
        },
        ..ServeConfig::default()
    }
}

/// Every directed link of the fabric, interned once up front so that the
/// periodic windows' fingerprints do not move with the key generation.
fn all_links() -> impl Iterator<Item = (u32, u32)> {
    (0..N).flat_map(|i| (0..N).filter(move |&j| j != i).map(move |j| (i, j)))
}

/// Re-plans in one replay's stream when the run makes `total` over all.
fn per_replay(total: u64) -> u64 {
    (total / REPLAYS as u64).max(1)
}

fn generate(policy: Policy, seed: u64, seconds: u64) -> Stream {
    let mut rng = Rng::new(seed);
    let (events, rounds) = match policy {
        Policy::Hysteresis => (
            hysteresis_events(&mut rng, per_replay(seconds * REPLANS_PER_S)),
            Vec::new(),
        ),
        Policy::Periodic => periodic_events(&mut rng, per_replay(seconds * ROUNDS_PER_S)),
    };
    let mut bytes = Vec::with_capacity(events.len() * 48);
    for e in &events {
        let line = serde_json::to_string(e).expect("events serialize");
        bytes.extend_from_slice(line.as_bytes());
        bytes.push(b'\n');
    }
    Stream {
        events,
        bytes,
        rounds,
    }
}

/// Generates the session and a fresh daemon for it, adding the time taken
/// to `setups`.
fn set_up(policy: Policy, seed: u64, seconds: u64, setups: &mut Samples) -> (Stream, ServeState) {
    let t = Instant::now();
    let out = (generate(policy, seed, seconds), new_state(policy));
    setups.push(t.elapsed().as_secs_f64());
    out
}

fn new_state(policy: Policy) -> ServeState {
    let mut state = ServeState::new(topology::complete(N), config(policy)).expect("valid config");
    if policy == Policy::Periodic {
        for (id, (i, j)) in all_links().enumerate() {
            let id = id as u64 + 1;
            state.admit(id, &[i, j], 1).expect("fabric link");
            state.cancel(id);
        }
    }
    state
}

/// The writer handed to `serve_lines`: keeps the replies and the instant of
/// every flush, i.e. of every answered line.
struct ClockWriter {
    buf: Vec<u8>,
    flushes: Vec<Instant>,
}

impl Write for ClockWriter {
    fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
        self.buf.extend_from_slice(b);
        Ok(b.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.flushes.push(Instant::now());
        Ok(())
    }
}

/// A bench-owned engine fed the same events as the daemon, so the traced
/// run can time the state and engine layers under the daemon's load.
struct Replica {
    engine: ScheduleEngine<RemainingTraffic>,
    incumbent: Option<Vec<(u32, u32)>>,
    snapshot_built: bool,
}

impl Replica {
    fn new(policy: Policy) -> Self {
        let cfg = config(policy);
        let tr = RemainingTraffic::from_subflows(std::iter::empty(), cfg.octopus.weighting);
        let mut replica = Replica {
            engine: ScheduleEngine::new(tr, N, cfg.delta),
            incumbent: None,
            snapshot_built: false,
        };
        if policy == Policy::Periodic {
            for (id, (i, j)) in all_links().enumerate() {
                let id = FlowId(id as u64 + 1);
                let route = Route::from_ids([i, j]).expect("two distinct nodes");
                let src = replica.engine.source_mut();
                src.admit_subflows([(id, route, 0, 1)]).expect("position 0");
                src.cancel_flow(id);
            }
        }
        replica
    }

    fn admit(&mut self, t: &mut Tracer, req: u64, id: u64, route: &[u32], size: u64) -> bool {
        let Ok(route) = Route::from_ids(route.iter().copied()) else {
            return false;
        };
        let engine = &mut self.engine;
        let dirty = t.span("state.admit", req, |_| {
            engine
                .source_mut()
                .admit_subflows([(FlowId(id), route, 0, size)])
        });
        match dirty {
            Ok(dirty) => {
                t.span("engine.patch", req, |_| engine.patch_links(&dirty));
                true
            }
            Err(_) => false,
        }
    }

    fn cancel(&mut self, t: &mut Tracer, req: u64, id: u64) {
        let engine = &mut self.engine;
        let (_, dirty) = t.span("state.cancel", req, |_| {
            engine.source_mut().cancel_flow(FlowId(id))
        });
        t.span("engine.patch", req, |_| engine.patch_links(&dirty));
    }

    fn snapshot(&mut self, t: &mut Tracer, req: u64) {
        if !self.snapshot_built {
            let engine = &mut self.engine;
            t.span("state.snapshot", req, |_| {
                engine.queues();
            });
            self.snapshot_built = true;
        }
    }

    /// Mirrors one hysteresis re-plan: runs the daemon's α-search on the
    /// replica, checks that a switch picked the same matching, then serves
    /// what the daemon served.
    fn replan_hysteresis(
        &mut self,
        t: &mut Tracer,
        req: u64,
        plan: &[Config],
        reconfigured: bool,
        counts: &mut LayerCounts,
    ) -> bool {
        let cfg = config(Policy::Hysteresis);
        let (fabric, _) = layers::policy_of(&cfg.octopus);
        let cap = cfg.horizon.saturating_sub(cfg.delta).max(1);
        self.snapshot(t, req);
        let engine = &mut self.engine;
        let n = t.span("engine.candidates", req, |_| {
            engine
                .candidates(cap, octopus_core::CandidateExtension::None)
                .len()
        });
        counts.candidates += n as u64;
        let o = &cfg.octopus;
        let best = t.span("engine.select", req, |_| {
            best_configuration(
                engine.queues(),
                cfg.delta,
                cap,
                o.alpha_search,
                o.matching,
                o.parallel,
            )
        });
        let mut ok = true;
        if let Some(b) = &best {
            counts.iterations += 1;
            counts.solves += b.matchings_computed as u64;
            t.span("kernel.solve", req, |_| engine.evaluate(&fabric, b.alpha));
        }
        let served = match (reconfigured, plan.first()) {
            (true, Some((links, alpha))) => {
                let mut mine = best.map(|b| b.matching).unwrap_or_default();
                let mut theirs = links.clone();
                mine.sort_unstable();
                theirs.sort_unstable();
                ok &= mine == theirs;
                self.incumbent = Some(links.clone());
                Some((links.clone(), *alpha))
            }
            (true, None) => {
                ok = false;
                None
            }
            (false, _) => self.incumbent.clone().map(|l| (l, cfg.horizon)),
        };
        if let Some((links, alpha)) = served {
            let budgets: Vec<(NodeId, NodeId, u64)> = links
                .iter()
                .map(|&(i, j)| (NodeId(i), NodeId(j), alpha))
                .collect();
            t.span("engine.commit", req, |_| engine.commit_budgets(&budgets));
        }
        ok
    }

    /// Mirrors one Octopus-policy re-plan: plans the window cold on the
    /// replica and checks it equals the daemon's (possibly cached) plan.
    fn replan_octopus(
        &mut self,
        t: &mut Tracer,
        req: u64,
        plan: &[Config],
        counts: &mut LayerCounts,
    ) -> bool {
        let cfg = config(Policy::Periodic);
        self.snapshot(t, req);
        match layers::traced_window(t, req, &mut self.engine, &cfg.octopus, cfg.horizon, counts) {
            Ok((configs, _)) => configs == plan,
            Err(_) => false,
        }
    }
}

fn plan_configs(r: &Response) -> Vec<Config> {
    match r {
        Response::Plan { configs, .. } => {
            configs.iter().map(|c| (c.links.clone(), c.alpha)).collect()
        }
        _ => Vec::new(),
    }
}

/// What the checks of one session found, beyond pass/fail.
struct Outcome {
    checks: Checks,
    digest: Digest,
    /// Configurations each `Plan` selected or kept serving.
    configs_served: Vec<u64>,
    planned_frac: f64,
}

/// Checks every reply against its event, folds every reply into the
/// digest (a `Plan`'s wall-clock `elapsed_us` excepted), and counts the
/// configurations the plans served.
fn check_replies(
    policy: Policy,
    stream: &Stream,
    reply_buf: &[u8],
    replica_ok: &[bool],
) -> Outcome {
    let reply_count = reply_buf
        .split(|&b| b == b'\n')
        .filter(|l| !l.is_empty())
        .count();
    let mut replies = parse_replies(reply_buf);
    let cfg = config(policy);
    let mut checks = Checks::default();
    let mut digest = Digest::new();
    let mut configs_served = Vec::new();
    let mut planned_frac = 0.0;
    let mut has_incumbent = false;
    let mut first_plan: Vec<Option<Vec<Config>>> = vec![None; TEMPLATES];
    let mut replan_no = 0usize;
    for (k, event) in stream.events.iter().enumerate() {
        let mut fail = Fail::default();
        let Some(reply) = replies.next() else {
            fail.unless(false, "one reply per line");
            checks.op(&fail.0);
            continue;
        };
        let mut canonical = reply.clone();
        if let Response::Plan { elapsed_us, .. } = &mut canonical {
            *elapsed_us = 0;
        }
        digest.bytes(
            serde_json::to_string(&canonical)
                .unwrap_or_default()
                .as_bytes(),
        );
        fail.unless(!matches!(reply, Response::Error { .. }), "no Error reply");
        fail.unless(
            replica_ok.get(k).copied().unwrap_or(true),
            "replica agrees with daemon",
        );
        match (event, &reply) {
            (Event::Arrival { id, .. }, Response::Admitted { id: r, .. }) => {
                fail.unless(id == r, "Admitted echoes the id");
            }
            (Event::Cancel { id }, Response::Cancelled { id: r, .. }) => {
                fail.unless(id == r, "Cancelled echoes the id");
            }
            (
                Event::Replan,
                Response::Plan {
                    configs,
                    backlog,
                    reconfigured,
                    ..
                },
            ) => {
                match policy {
                    Policy::Hysteresis => {
                        has_incumbent |= *reconfigured;
                        configs_served.push(u64::from(has_incumbent));
                        let alpha_ok = configs.iter().all(|c| c.alpha == cfg.horizon - cfg.delta);
                        fail.unless(
                            configs.len() == usize::from(*reconfigured),
                            "one config per switch",
                        );
                        fail.unless(alpha_ok, "switch serves horizon - delta");
                    }
                    Policy::Periodic => {
                        configs_served.push(configs.len() as u64);
                        fail.unless(*backlog == 0, "round drains to backlog 0");
                        if let Some(Round::Exact(t)) = stream.rounds.get(replan_no) {
                            let mine = plan_configs(&reply);
                            match &first_plan[*t] {
                                Some(first) => fail.unless(
                                    *first == mine,
                                    "exact repeat replays the template plan",
                                ),
                                None => first_plan[*t] = Some(mine),
                            }
                        }
                    }
                }
                replan_no += 1;
            }
            (Event::Stats, Response::Stats { stats }) => {
                let identity = stats.admitted_packets
                    == stats.delivered_packets + stats.cancelled_packets + stats.backlog;
                fail.unless(identity, "admitted = delivered + cancelled + backlog");
                fail.unless(reply_count == stream.events.len(), "one reply per line");
                if policy == Policy::Periodic {
                    fail.unless(stats.cache_exact_hits > 0, "exact repeats hit the cache");
                }
                let kept = stats
                    .admitted_packets
                    .saturating_sub(stats.cancelled_packets);
                planned_frac = stats.delivered_packets as f64 / kept.max(1) as f64;
            }
            _ => fail.unless(false, "reply kind matches the event"),
        }
        checks.op(&fail.0);
    }
    Outcome {
        checks,
        digest,
        configs_served,
        planned_frac,
    }
}

fn parse_replies(buf: &[u8]) -> impl Iterator<Item = Response> + '_ {
    buf.split(|&b| b == b'\n')
        .filter(|l| !l.is_empty())
        .map(|l| {
            serde_json::from_slice::<Response>(l).unwrap_or_else(|e| Response::Error {
                message: format!("unparseable reply: {e}"),
            })
        })
}

pub fn run(policy: Policy, seed: u64, seconds: u64, traced: bool) -> Run {
    let name = match policy {
        Policy::Hysteresis => "serve-hysteresis",
        Policy::Periodic => "serve-periodic",
    };
    let mut setups = Samples::default();
    let (stream, mut state) = set_up(policy, seed, seconds, &mut setups);
    let lines = stream.events.len();
    let is_replan: Vec<bool> = stream.events.iter().map(|e| *e == Event::Replan).collect();
    let is_flow_event: Vec<bool> = stream
        .events
        .iter()
        .map(|e| matches!(e, Event::Arrival { .. } | Event::Cancel { .. }))
        .collect();

    let mut tracer = Tracer::new(if traced { lines * 8 } else { 0 });
    let mut counts = LayerCounts::default();
    let mut latency_us = vec![0.0; lines];
    let mut replica_ok = vec![true; lines];
    let mut reply_bufs: Vec<Vec<u8>> = Vec::with_capacity(REPLAYS);
    let mut same_inputs = true;
    if traced {
        // The body of `serve_lines`, one span per layer call, plus the
        // replica fed the same event after the line is answered.
        let mut replica = Replica::new(policy);
        let mut out: Vec<u8> = Vec::with_capacity(lines * 64);
        for (k, line) in stream.bytes.split(|&b| b == b'\n').take(lines).enumerate() {
            let req = k as u64;
            let before = state.cache_stats();
            let (reply, bytes) = tracer.span("serve.line", req, |t| {
                let event = t.span("protocol.parse", req, |_| {
                    std::str::from_utf8(line)
                        .map_err(|e| e.to_string())
                        .and_then(|s| serde_json::from_str::<Event>(s).map_err(|e| e.to_string()))
                });
                let response = match event {
                    Ok(event) => {
                        let layer = match &event {
                            Event::Arrival { .. } => "serve.admit",
                            Event::Cancel { .. } => "serve.cancel",
                            Event::Replan => "serve.replan",
                            Event::Stats => "serve.stats",
                            Event::Shutdown => "serve.shutdown",
                        };
                        t.span(layer, req, |_| state.handle(event)).0
                    }
                    Err(message) => Response::Error { message },
                };
                let payload = t.span("protocol.encode", req, |_| {
                    serde_json::to_string(&response).unwrap_or_default()
                });
                out.extend_from_slice(payload.as_bytes());
                out.push(b'\n');
                (response, payload.len())
            });
            let dt = tracer.last("serve.line").as_secs_f64();
            latency_us[k] = dt * 1e6;
            counts.replies += 1;
            counts.reply_bytes += bytes as u64;
            if is_replan[k] {
                let after = state.cache_stats();
                let ms = tracer.last("serve.replan").as_secs_f64() * 1e3;
                if after.exact_hits > before.exact_hits {
                    counts.exact_hits += 1;
                    counts.replan_exact_ms.push(ms);
                } else if after.near_hits > before.near_hits {
                    counts.near_hits += 1;
                    counts.replan_near_ms.push(ms);
                } else if after.misses > before.misses {
                    counts.misses += 1;
                    counts.replan_miss_ms.push(ms);
                }
            }
            replica_ok[k] = match (&stream.events[k], &reply) {
                (Event::Arrival { id, route, size }, _) => {
                    replica.admit(&mut tracer, req, *id, route, *size)
                }
                (Event::Cancel { id }, _) => {
                    replica.cancel(&mut tracer, req, *id);
                    true
                }
                (
                    Event::Replan,
                    Response::Plan {
                        reconfigured,
                        backlog,
                        ..
                    },
                ) => {
                    let plan = plan_configs(&reply);
                    let same = match policy {
                        Policy::Hysteresis => replica.replan_hysteresis(
                            &mut tracer,
                            req,
                            &plan,
                            *reconfigured,
                            &mut counts,
                        ),
                        Policy::Periodic => {
                            replica.replan_octopus(&mut tracer, req, &plan, &mut counts)
                        }
                    };
                    same && replica.engine.source().remaining_packets() == *backlog
                }
                _ => true,
            };
        }
        let tr = replica.engine.source();
        counts.interned_links = tr.interned_links() as u64;
        counts.arena_live = replica.engine.queues().arena_usage().0 as u64;
        reply_bufs.push(out);
    } else {
        latency_us.fill(f64::INFINITY);
        let cpus = Cpus::allowed();
        for replay in 0..REPLAYS {
            cpus.pin(replay);
            if replay > 0 {
                // Each replay sets up from scratch, so the set-ups that give
                // `setup_s` are spread over the run like the replays.
                let again;
                (again, state) = set_up(policy, seed, seconds, &mut setups);
                same_inputs &= again.bytes == stream.bytes;
            }
            let mut writer = ClockWriter {
                buf: Vec::with_capacity(lines * 64),
                flushes: Vec::with_capacity(lines),
            };
            let start = Instant::now();
            if let Err(e) = serve_lines(&stream.bytes[..], &mut writer, &mut state) {
                eprintln!("serve_lines failed: {e}");
            }
            let mut prev = start;
            for (k, &at) in writer.flushes.iter().enumerate().take(lines) {
                let us = at.duration_since(prev).as_secs_f64() * 1e6;
                latency_us[k] = latency_us[k].min(us);
                prev = at;
            }
            reply_bufs.push(writer.buf);
        }
        cpus.release();
    }

    let mut outcome = check_replies(policy, &stream, &reply_bufs[0], &replica_ok);
    for buf in &reply_bufs[1..] {
        let again = check_replies(policy, &stream, buf, &replica_ok);
        let mut fail = Fail::default();
        fail.unless(same_inputs, "every replay gets the same session");
        fail.unless(
            again.checks.failed == 0 && again.digest.hex() == outcome.digest.hex(),
            "every replay gives the same replies",
        );
        outcome.checks.op(&fail.0);
    }
    let mut windows = Vec::with_capacity(outcome.configs_served.len());
    let mut request_us = Samples::default();
    let mut event_us = Samples::default();
    let mut block_rate = Samples::default();
    let (mut block_lines, mut block_us) = (0u64, 0.0);
    for k in 0..lines {
        request_us.push(latency_us[k]);
        block_lines += 1;
        block_us += latency_us[k];
        if is_replan[k] {
            let configs = outcome
                .configs_served
                .get(windows.len())
                .copied()
                .unwrap_or(0);
            windows.push((latency_us[k] * 1e-3, configs));
            block_rate.push(block_lines as f64 / (block_us * 1e-6));
            (block_lines, block_us) = (0, 0.0);
        } else if is_flow_event[k] {
            event_us.push(latency_us[k]);
        }
    }

    let mut rec = Record::new(name, seed, traced);
    EndToEnd {
        setup_s: setups.pct(0.5),
        windows,
        request_us,
        block_rate,
        planned_frac: outcome.planned_frac,
    }
    .emit(&mut rec, &outcome.checks);
    rec.e2e("event_us.p50", event_us.pct(0.5), "us");
    rec.e2e("event_us.p99", event_us.pct(0.99), "us");
    if traced {
        layers::per_layer(&mut rec, &tracer, &counts);
    }
    Run {
        rec,
        checks: outcome.checks,
        digest: outcome.digest,
        tracer: traced.then_some(tracer),
    }
}
