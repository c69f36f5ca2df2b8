//! One round: one workload, run once, in this process.
//!
//! A round sets its workload up, times the workload's calls into the
//! program (the timed region), checks and digests the outputs, and — when
//! traced — drains the span ring and runs the per-layer probes after the
//! timed region. [`run`] turns all of it into one `ola.bench/v1` record.

use crate::layers::{self, Counters, ProbeSubject};
use crate::record::{Metric, Record};
use crate::Workload;
use ola_core::obs::json::JsonValue;
use ola_core::obs::sha256::Sha256;
use ola_core::obs::{self, SpanRecord};
use std::io::Write as _;
use std::time::Instant;

/// What a workload round is asked to do.
pub struct Ctx {
    /// The `--seed` every input derives from.
    pub seed: u64,
    /// Open `layer.*` spans around each call into the program.
    pub traced: bool,
    /// Shrink every size, for the determinism unit tests.
    pub tiny: bool,
}

impl Ctx {
    /// Runs `f`, inside a `name` span when the round is traced.
    pub fn layer<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let _span = self.traced.then(|| obs::span(name));
        f()
    }

    /// A sub-seed for input stream `tag`: distinct tags give independent
    /// streams, and every stream is a pure function of `--seed`.
    #[must_use]
    pub fn seed_for(&self, tag: u64) -> u64 {
        mix(self.seed, tag)
    }
}

/// The splitmix64 finalizer over `(seed, tag)`.
#[must_use]
pub fn mix(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Name of the span that marks a traced round's timed region.
pub const REGION_SPAN: &str = "bench.timed";

/// The line a round prints on stdout as its timed region begins, so the
/// process that spawned it can time the round's whole set-up.
pub const BEGIN_LINE: &str = "# timed region begins";

/// The round's clock: set-up runs from process start to [`Clock::begin`],
/// the timed region from there to [`Clock::end`]. The deterministic
/// counters cover the timed region only.
pub struct Clock {
    process: Instant,
    traced: bool,
    start: Option<(Instant, Counters, Option<obs::Span>)>,
    done: Option<(f64, f64, Counters)>,
}

impl Clock {
    fn new(process: Instant, traced: bool) -> Clock {
        Clock { process, traced, start: None, done: None }
    }

    /// Ends set-up and starts the timed region. A traced round drops every
    /// span recorded during set-up and marks the region with a span, so
    /// layer spans can be matched against it.
    pub fn begin(&mut self) {
        let marker = self.traced.then(|| {
            let _ = obs::drain_spans();
            obs::span(REGION_SPAN)
        });
        println!("{BEGIN_LINE}");
        let _ = std::io::stdout().flush();
        self.start = Some((Instant::now(), Counters::now(), marker));
    }

    /// Ends the timed region.
    pub fn end(&mut self) {
        let (start, before, marker) = self.start.take().expect("begin() precedes end()");
        let wall_s = start.elapsed().as_secs_f64();
        drop(marker);
        let setup_s = (start - self.process).as_secs_f64();
        self.done = Some((setup_s, wall_s, Counters::now().since(&before)));
    }
}

/// Everything a workload hands back after its timed region.
pub struct Outcome {
    /// SHA-256 over the workload's outputs.
    pub digest: Digest,
    /// Operations the workload attempted (calls, requests, checks).
    pub attempted: u64,
    /// What failed, one entry per failed operation.
    pub failed: Vec<String>,
    /// The workload's sizes, for the configuration block.
    pub sizes: Vec<(String, JsonValue)>,
    /// Workload-specific measurements recorded beside the metrics.
    pub extra: Vec<Metric>,
    /// Nets of the datapaths the workload built.
    pub nets: u64,
    /// What the traced probes run on (traced rounds only).
    pub probe: Option<ProbeSubject>,
    /// Spans a workload drained itself during the timed region (the
    /// serve workload drains often so the ring never fills).
    pub spans: Vec<SpanRecord>,
}

impl Outcome {
    /// An outcome with nothing attempted yet.
    #[must_use]
    pub fn new(sizes: Vec<(&str, u64)>) -> Outcome {
        Outcome {
            digest: Digest::default(),
            attempted: 0,
            failed: Vec::new(),
            sizes: sizes.into_iter().map(|(k, v)| (k.to_owned(), JsonValue::U64(v))).collect(),
            extra: Vec::new(),
            nets: 0,
            probe: None,
            spans: Vec::new(),
        }
    }

    /// Counts one checked operation, recording `what` when `ok` is false.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed.push(what());
        }
    }
}

/// Streaming SHA-256 over typed output values.
#[derive(Default)]
pub struct Digest(Sha256);

impl Digest {
    /// Absorbs an integer.
    pub fn u64(&mut self, v: u64) {
        self.0.update(&v.to_le_bytes());
    }

    /// Absorbs a float's exact bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Absorbs every float of `vs`, length first.
    pub fn f64s(&mut self, vs: &[f64]) {
        self.u64(vs.len() as u64);
        for &v in vs {
            self.f64(v);
        }
    }

    /// Absorbs a length-prefixed string.
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.0.update(s.as_bytes());
    }

    /// The lowercase hex digest.
    #[must_use]
    pub fn hex(self) -> String {
        self.0.finalize().iter().map(|b| format!("{b:02x}")).collect()
    }
}

/// Runs one round of `w` and returns its record.
pub fn run(w: &Workload, ctx: &Ctx, process: Instant) -> Record {
    obs::init();
    if ctx.traced {
        obs::set_recording(true);
    }
    let mut clock = Clock::new(process, ctx.traced);
    let mut outcome = (w.run)(ctx, &mut clock);
    let (setup_s, wall_s, counters) = clock.done.expect("every workload ends its timed region");

    let mut metrics = vec![
        Metric::new("wall_s", wall_s, "s"),
        Metric::new("setup_s", setup_s, "s"),
        Metric::new("peak_rss_mb", layers::peak_rss_mb(), "MB"),
    ];
    if ctx.traced {
        let mut spans = std::mem::take(&mut outcome.spans);
        spans.extend(obs::drain_spans());
        metrics.extend(layers::per_layer(&spans, &counters, &outcome));
    }
    metrics.append(&mut outcome.extra);
    Record::round(w, ctx.seed, ctx.traced, metrics, &counters, outcome)
}
