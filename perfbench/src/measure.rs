//! The one measurement core every workload shares: the seeded RNG, the
//! percentile rule, the allocation counter, the span tracer, the output
//! digest and the result record.

use serde_json::Value;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Deterministic xorshift64* seeded through splitmix64, so that nearby
/// workload seeds still give unrelated streams. Every input of every
/// workload is drawn from one of these.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Rng((z ^ (z >> 31)) | 1)
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `0..bound` (`bound > 0`).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}

/// A set of samples of one quantity. The percentile rule is nearest rank:
/// the smallest sample with at least `p` of all samples at or below it.
#[derive(Default, Clone)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    /// Nearest-rank percentile, `0 < p <= 1`; 0 when there are no samples.
    pub fn pct(&self, p: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let mut sorted = self.0.clone();
        sorted.sort_by(f64::total_cmp);
        let rank = (p * sorted.len() as f64).ceil() as usize;
        sorted[rank.clamp(1, sorted.len()) - 1]
    }
}

/// Global allocator that counts allocations while [`count_allocs`] is on.
/// Only the traced run switches it on; otherwise each allocation pays one
/// relaxed load.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` unchanged; the counter is a
// statistic that publishes no other data, so `Relaxed` suffices.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

pub fn count_allocs(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Bits in the affinity masks below: enough for 1 024 CPUs.
const MASK_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// The CPUs this process may run on. On a shared machine one CPU can be
/// slowed by a neighbour for tens of seconds while another is not, so the
/// repeated passes of a run are spread over them.
pub struct Cpus {
    allowed: [u64; MASK_WORDS],
    ids: Vec<usize>,
}

impl Cpus {
    pub fn allowed() -> Self {
        let mut allowed = [0u64; MASK_WORDS];
        // SAFETY: the kernel writes at most `size` bytes into `allowed`.
        let ok = unsafe { sched_getaffinity(0, MASK_WORDS * 8, allowed.as_mut_ptr()) } == 0;
        let ids = if ok {
            (0..MASK_WORDS * 64)
                .filter(|&c| allowed[c / 64] >> (c % 64) & 1 == 1)
                .collect()
        } else {
            Vec::new()
        };
        Cpus { allowed, ids }
    }

    /// Pins the calling thread to the `i`-th allowed CPU, cycling; does
    /// nothing when the allowed set is unknown.
    pub fn pin(&self, i: usize) {
        if let Some(&c) = self.ids.get(i % self.ids.len().max(1)) {
            let mut one = [0u64; MASK_WORDS];
            one[c / 64] = 1 << (c % 64);
            set_affinity(&one);
        }
    }

    /// Lets the calling thread run on every allowed CPU again.
    pub fn release(&self) {
        if !self.ids.is_empty() {
            set_affinity(&self.allowed);
        }
    }
}

fn set_affinity(mask: &[u64; MASK_WORDS]) {
    // SAFETY: the kernel reads `size` bytes from `mask`. A refusal (say, a
    // CPU taken away since) leaves the thread where it was, which only
    // costs the spread.
    unsafe { sched_setaffinity(0, MASK_WORDS * 8, mask.as_ptr()) };
}

/// Runs `f` `reps` times and returns the last result with the median wall
/// time in seconds, so set-up time is reported as a median too.
pub fn median_of<T>(reps: usize, mut f: impl FnMut() -> T) -> (T, f64) {
    let mut times = Samples::default();
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        let t = Instant::now();
        last = Some(f());
        times.push(t.elapsed().as_secs_f64());
    }
    (last.expect("at least one repetition"), times.pct(0.5))
}

/// FNV-1a over the bytes of a run's outputs: two runs with equal digests
/// did identical work.
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }

    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0100_0000_01B3);
        }
    }

    pub fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

const NO_PARENT: u32 = u32::MAX;

/// One traced call: layer-qualified name, start and end since the tracer's
/// origin, the enclosing span, the request it served and the allocations
/// made inside it.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    req: u64,
    allocs: u64,
}

/// In-memory span recorder. Spans nest through [`Tracer::span`]; they are
/// written out only at the end of the run.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new(capacity: usize) -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
            open: Vec::with_capacity(16),
        }
    }

    /// Runs `f` inside a span named `name` serving request `req`.
    pub fn span<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let idx = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let a0 = allocs();
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            req,
            allocs: 0,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        let s = &mut self.spans[idx as usize];
        s.end_ns = end_ns;
        s.allocs = allocs() - a0;
        out
    }

    /// Duration of the most recently closed span named `name`.
    pub fn last(&self, name: &str) -> Duration {
        self.spans
            .iter()
            .rev()
            .find(|s| s.name == name)
            .map_or(Duration::ZERO, |s| {
                Duration::from_nanos(s.end_ns - s.start_ns)
            })
    }

    /// Durations (in units of `scale` seconds) of every span named `name`.
    pub fn samples(&self, name: &str, scale: f64) -> Samples {
        let mut out = Samples::default();
        for s in self.spans.iter().filter(|s| s.name == name) {
            out.push((s.end_ns - s.start_ns) as f64 * 1e-9 / scale);
        }
        out
    }

    /// Allocations made inside spans named `name`.
    pub fn allocs(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.allocs)
            .sum()
    }

    /// Self time per layer in ms: each span's duration minus the part its
    /// child spans cover, summed by the layer prefix of its name.
    pub fn self_time_ms(&self) -> Vec<(String, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: Vec<(String, f64)> = Vec::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            let layer = s.name.split('.').next().unwrap_or(s.name);
            let ms = (s.end_ns - s.start_ns).saturating_sub(c) as f64 * 1e-6;
            match out.iter_mut().find(|(l, _)| l == layer) {
                Some((_, v)) => *v += ms,
                None => out.push((layer.to_string(), ms)),
            }
        }
        out
    }

    /// Writes every span as NDJSON: `[name, start_ns, end_ns, parent, req,
    /// allocs]`, parent −1 for a root span.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<usize> {
        use std::io::Write;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(
                w,
                "[\"{}\",{},{},{},{},{}]",
                s.name, s.start_ns, s.end_ns, parent, s.req, s.allocs
            )?;
        }
        w.flush()?;
        Ok(self.spans.len())
    }
}

/// Counts operations and the ones that failed a check; a failed check
/// prints what failed (once per check name) to stderr.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    reported: Vec<&'static str>,
}

impl Checks {
    /// Records one operation whose checks all passed iff `ok` is empty.
    pub fn op(&mut self, failures: &[&'static str]) {
        self.attempted += 1;
        if !failures.is_empty() {
            self.failed += 1;
            for &f in failures {
                if !self.reported.contains(&f) {
                    self.reported.push(f);
                    eprintln!("check failed: {f}");
                }
            }
        }
    }

    pub fn error_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Collects `failures` for one operation: `fail.when(cond, "name")`.
#[derive(Default)]
pub struct Fail(pub Vec<&'static str>);

impl Fail {
    pub fn unless(&mut self, ok: bool, name: &'static str) {
        if !ok {
            self.0.push(name);
        }
    }
}

/// The result record of one run: named metrics with units, in the order
/// they were added, plus the checks, digest and trace summary.
pub struct Record {
    pub workload: &'static str,
    pub seed: u64,
    pub traced: bool,
    pub end_to_end: Vec<(&'static str, f64, &'static str)>,
    pub per_layer: Vec<(&'static str, f64, &'static str)>,
    pub extra: Vec<(&'static str, Value)>,
}

impl Record {
    pub fn new(workload: &'static str, seed: u64, traced: bool) -> Self {
        Record {
            workload,
            seed,
            traced,
            end_to_end: Vec::new(),
            per_layer: Vec::new(),
            extra: Vec::new(),
        }
    }

    pub fn e2e(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.end_to_end.push((name, value, unit));
    }

    pub fn layer(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.per_layer.push((name, value, unit));
    }

    pub fn to_json(&self, checks: &Checks, digest: &Digest) -> String {
        let metrics = |list: &[(&'static str, f64, &'static str)]| {
            Value::Object(
                list.iter()
                    .map(|&(n, v, u)| {
                        (
                            n.to_string(),
                            Value::Object(vec![
                                ("value".into(), Value::F64(v)),
                                ("unit".into(), Value::String(u.into())),
                            ]),
                        )
                    })
                    .collect(),
            )
        };
        let mut fields = vec![
            ("workload".to_string(), Value::String(self.workload.into())),
            ("seed".to_string(), Value::U64(self.seed)),
            ("traced".to_string(), Value::Bool(self.traced)),
            ("attempted".to_string(), Value::U64(checks.attempted)),
            ("failed".to_string(), Value::U64(checks.failed)),
            ("digest".to_string(), Value::String(digest.hex())),
            ("end_to_end".to_string(), metrics(&self.end_to_end)),
            ("per_layer".to_string(), metrics(&self.per_layer)),
        ];
        for (k, v) in &self.extra {
            fields.push((k.to_string(), v.clone()));
        }
        serde_json::to_string(&Value::Object(fields)).expect("a record serializes")
    }
}

/// Adds the trace summary (self time per layer, span count and file) to
/// `rec`, writing the spans to `path`.
pub fn finish_trace(rec: &mut Record, tracer: &Tracer, path: Option<&std::path::Path>) {
    let self_ms = tracer
        .self_time_ms()
        .into_iter()
        .map(|(l, ms)| (l, Value::F64(ms)))
        .collect();
    rec.extra.push(("self_time_ms", Value::Object(self_ms)));
    if let Some(p) = path {
        match tracer.write(p) {
            Ok(n) => rec.extra.push((
                "spans",
                Value::Object(vec![
                    ("count".into(), Value::U64(n as u64)),
                    ("path".into(), Value::String(p.display().to_string())),
                ]),
            )),
            Err(e) => eprintln!("could not write spans to {}: {e}", p.display()),
        }
    }
}
