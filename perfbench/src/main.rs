//! The octopus-mhs benchmark binary: runs one workload for one seed and
//! prints its result record as one JSON line. `perfbench/run.py` builds it,
//! stamps the record and prints the summary; see `perfbench/README.md`.
//!
//! ```text
//! perfbench --workload <offline-window|serve-hysteresis|serve-periodic>
//!           --seed <n> --seconds <s> --trace <0|1> [--spans <path>]
//! ```

mod layers;
mod measure;
mod offline;
mod serve;

use measure::{count_allocs, peak_rss_mb, Checks, CountingAlloc, Digest, Record, Samples, Tracer};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Repetitions of the offline set-up; `setup_s` is their median. A serve
/// session sets up once per replay instead.
pub const SETUP_REPS: usize = 15;

/// Environment variables that change the program being measured.
const REFUSED_ENV: [&str; 3] = ["OCTOPUS_THREADS", "OCTOPUS_KERNEL", "OCTOPUS_CACHE"];

/// One finished run.
pub struct Run {
    pub rec: Record,
    pub checks: Checks,
    pub digest: Digest,
    pub tracer: Option<Tracer>,
}

/// The end-to-end metrics every workload reports. A *window* is one
/// planning call over W = 10 000 slots: an `octopus()` call offline, a
/// `Replan` line in a serve session. A *request* is one `octopus()` call
/// or one NDJSON line. Rates and per-configuration times are medians over
/// windows, so one window slowed by a neighbour on the machine moves them
/// no more than it moves the window median.
pub struct EndToEnd {
    pub setup_s: f64,
    /// Each window's latency in ms and the configurations it selected or
    /// kept serving.
    pub windows: Vec<(f64, u64)>,
    pub request_us: Samples,
    /// Requests per second over each block of requests that ends with a
    /// window.
    pub block_rate: Samples,
    pub planned_frac: f64,
}

impl EndToEnd {
    pub fn emit(self, rec: &mut Record, checks: &Checks) {
        let mut window_ms = Samples::default();
        let mut per_config_ms = Samples::default();
        for &(ms, configs) in &self.windows {
            window_ms.push(ms);
            if configs > 0 {
                per_config_ms.push(ms / configs as f64);
            }
        }
        rec.e2e("setup_s", self.setup_s, "s");
        rec.e2e("window_ms.p50", window_ms.pct(0.5), "ms");
        rec.e2e("window_ms.p95", window_ms.pct(0.95), "ms");
        rec.e2e("iter_ms", per_config_ms.pct(0.5), "ms");
        rec.e2e("requests_per_s", self.block_rate.pct(0.5), "1/s");
        rec.e2e("request_us.p50", self.request_us.pct(0.5), "us");
        rec.e2e("request_us.p99", self.request_us.pct(0.99), "us");
        rec.e2e("planned_frac", self.planned_frac, "ratio");
        rec.e2e("peak_rss_mb", peak_rss_mb(), "MB");
        rec.e2e("error_frac", checks.error_frac(), "ratio");
        rec.e2e("windows", window_ms.len() as f64, "count");
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    spans: Option<std::path::PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut spans) =
        (None, None, None, false, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.max(1)),
            "--trace" => trace = num()? != 0,
            "--spans" => spans = Some(value.clone().into()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        spans,
    })
}

fn main() {
    if let Some(var) = REFUSED_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        eprintln!("perfbench: refusing to record with {var} set: it changes the program measured");
        std::process::exit(2);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    count_allocs(args.trace);
    let run = match args.workload.as_str() {
        "offline-window" => offline::run(args.seed, args.seconds, args.trace),
        "serve-hysteresis" => serve::run(
            serve::Policy::Hysteresis,
            args.seed,
            args.seconds,
            args.trace,
        ),
        "serve-periodic" => {
            serve::run(serve::Policy::Periodic, args.seed, args.seconds, args.trace)
        }
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    count_allocs(false);
    let Run {
        mut rec,
        checks,
        digest,
        tracer,
    } = run;
    if let Some(t) = &tracer {
        measure::finish_trace(&mut rec, t, args.spans.as_deref());
    }
    println!("{}", rec.to_json(&checks, &digest));
}
