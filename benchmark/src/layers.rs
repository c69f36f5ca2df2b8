//! Per-layer measurement: span self times, deterministic counters, and
//! probes that time one public call of a layer on the workload's own
//! netlist and stimulus.
//!
//! Every per-layer metric is defined for every workload — a layer a
//! workload never enters reads a zero time or count, never a missing
//! value — so runs of different workloads report the same metric set.

use crate::record::Metric;
use crate::round::{Outcome, REGION_SPAN};
use crate::serve::Conn;
use crate::stats::median;
use ola_arith::synth::OnlineMultiplierCircuit;
use ola_core::cache::{CacheConfig, CacheKey, ContentCache};
use ola_core::empirical::datapath_gate_level_curve_with;
use ola_core::memo::{self, MemoStats};
use ola_core::obs::{self, MetricSnapshot, SpanRecord};
use ola_core::{InputModel, SimBackend, StaGate};
use ola_netlist::batch::{BatchProgram, LaneBlock, LaneFaultSet, LaneInputs};
use ola_netlist::{
    simulate_from_zero, DelayModel, FaultPlan, FpgaDelay, JitteredDelay, NetId, Netlist,
};
use ola_serve::{Server, ServerConfig};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Deterministic counters: `(record name, registry counter)`. Each is a
/// pure function of the workload and seed, identical across rounds and
/// across `OLA_THREADS`.
pub const COUNTERS: [(&str, &str); 8] = [
    ("event.vectors", "ola.sim.event.runs"),
    ("batch.runs", "ola.batch.runs"),
    ("batch.word_steps", "ola.batch.word_steps"),
    ("batch.lane_transitions", "ola.batch.lane_transitions"),
    ("empirical.sta_skipped_points", "ola.backend.sta_skipped_points"),
    ("memo.program_requests", "ola.memo.program_requests"),
    ("memo.cert_requests", "ola.memo.cert_requests"),
    ("cache.evictions", "ola.cache.evictions"),
];

/// Layers whose time the traced round attributes, as `(metric, spans)`:
/// the metric is the summed self time, in ms, of the named spans that
/// start inside the timed region, over every thread. `layer.*` spans are
/// the harness's own, opened around its calls; the rest are the program's.
const SELF_TIMES: [(&str, &[&str]); 11] = [
    ("arith.generate_ms", &["layer.arith"]),
    ("synth.optimize_ms", &["synth.optimize", "layer.synth.optimize"]),
    ("synth.elaborate_ms", &["synth.elaborate", "layer.synth.elaborate"]),
    ("synth.explore_ms", &["synth.explore", "synth.explore_mac"]),
    ("sta.analyze_ms", &["empirical.sta_analyze", "layer.sta"]),
    ("batch.compile_ms", &["empirical.batch_compile"]),
    ("empirical.sample_ms", &["empirical.sample"]),
    ("montecarlo.sweep_ms", &["mc.sweep", "layer.montecarlo"]),
    ("campaign.online_ms", &["campaign.online"]),
    ("campaign.conventional_ms", &["campaign.conventional"]),
    ("serve.query_ms", &["serve.query"]),
];

/// Fault classes whose campaigns the faults workload wraps in
/// `layer.campaign.<class>` spans; their times are inclusive (both
/// architectures' campaigns of the class).
const CLASS_TIMES: [(&str, &str); 4] = [
    ("campaign.stuck_at_0_ms", "layer.campaign.stuck_at_0"),
    ("campaign.stuck_at_1_ms", "layer.campaign.stuck_at_1"),
    ("campaign.transient_ms", "layer.campaign.transient"),
    ("campaign.delay_push_ms", "layer.campaign.delay_push"),
];

/// Spans whose inclusive time is simulation sampling: the denominator of
/// the parallel-efficiency estimates.
const SAMPLING_SPANS: [&str; 3] = ["empirical.sample", "campaign.online", "campaign.conventional"];

/// Registry counters and memo tallies at one instant, or a difference of
/// two such instants.
pub struct Counters {
    registry: MetricSnapshot,
    memo: MemoStats,
}

impl Counters {
    /// The process's counters now.
    #[must_use]
    pub fn now() -> Counters {
        Counters { registry: obs::registry().snapshot(), memo: memo::stats() }
    }

    /// What moved since `before`.
    #[must_use]
    pub fn since(&self, before: &Counters) -> Counters {
        let (a, b) = (&self.memo, &before.memo);
        Counters {
            registry: self.registry.diff(&before.registry),
            memo: MemoStats {
                program_hits: a.program_hits - b.program_hits,
                program_misses: a.program_misses - b.program_misses,
                program_uncached: a.program_uncached - b.program_uncached,
                cert_hits: a.cert_hits - b.cert_hits,
                cert_misses: a.cert_misses - b.cert_misses,
                cert_uncached: a.cert_uncached - b.cert_uncached,
            },
        }
    }

    /// The registry counter `name` (0 when it never moved).
    #[must_use]
    pub fn get(&self, name: &str) -> u64 {
        self.registry.counters.get(name).copied().unwrap_or(0)
    }

    /// The simulation engines that ran (`batch`, `event`, `batch+event`),
    /// or `none`.
    #[must_use]
    pub fn engines(&self) -> String {
        let ran: Vec<&str> = self
            .registry
            .counters
            .keys()
            .filter_map(|k| k.strip_prefix("ola.backend.selected."))
            .collect();
        if ran.is_empty() {
            "none".to_owned()
        } else {
            ran.join("+")
        }
    }

    /// The deterministic counters, by record name.
    #[must_use]
    pub fn deterministic(&self) -> Vec<(String, u64)> {
        let mut out: Vec<(String, u64)> =
            COUNTERS.iter().map(|&(name, key)| (name.to_owned(), self.get(key))).collect();
        out.push((
            "serve.non_200".to_owned(),
            self.get("ola.serve.responses_4xx") + self.get("ola.serve.responses_5xx"),
        ));
        out
    }
}

/// `VmHWM` (peak resident set) of this process in MB (2^20 bytes).
#[must_use]
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Lanes one batch pass carries in this process (a process setting,
/// `OLA_LANE_WORDS`), read off a one-sample batch sweep of a one-gate
/// netlist.
#[must_use]
pub fn lane_capacity() -> u64 {
    let mut nl = Netlist::new();
    let a = nl.input("a");
    let z = nl.not(a);
    nl.set_output("z", vec![z]);
    let fpga = FpgaDelay::default();
    let draw = |_: &mut ChaCha8Rng| vec![true];
    let judge = |s: &[bool], t: &[bool]| (s != t, 0.0);
    let (_, stats) = datapath_gate_level_curve_with(
        &nl,
        &[z],
        &fpga,
        &[100],
        1,
        0,
        SimBackend::Batch,
        StaGate::Off,
        draw,
        judge,
    );
    stats.lane_capacity
}

/// Self and inclusive time of one span name, summed over its spans.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LayerTime {
    /// Duration minus what child spans on the same thread cover, µs.
    pub self_us: u64,
    /// Plain duration, µs.
    pub incl_us: u64,
    /// Spans seen.
    pub count: u64,
}

/// Self time per span name. A span's self time is its duration minus the
/// part of it that its direct children on the same thread cover; work a
/// span hands to other threads stays in its self time, and those threads'
/// spans are attributed on their own.
#[must_use]
pub fn self_times(spans: &[SpanRecord]) -> BTreeMap<String, LayerTime> {
    let mut by_thread: BTreeMap<u64, Vec<&SpanRecord>> = BTreeMap::new();
    for s in spans {
        by_thread.entry(s.thread).or_default().push(s);
    }
    let mut out: BTreeMap<String, LayerTime> = BTreeMap::new();
    for mut list in by_thread.into_values() {
        // Parents start no later than their children; on a tie the
        // shallower span is the parent.
        list.sort_by_key(|s| (s.start_us, s.depth));
        let mut covered = vec![0u64; list.len()];
        let mut open: Vec<usize> = Vec::new();
        for (i, s) in list.iter().enumerate() {
            while let Some(&top) = open.last() {
                let t = list[top];
                if t.depth < s.depth && s.start_us < t.start_us + t.dur_us.max(1) {
                    break;
                }
                open.pop();
            }
            if let Some(&parent) = open.last() {
                let p = list[parent];
                if p.depth + 1 == s.depth {
                    let end = (s.start_us + s.dur_us).min(p.start_us + p.dur_us);
                    covered[parent] += end.saturating_sub(s.start_us);
                }
            }
            open.push(i);
        }
        for (s, c) in list.iter().zip(covered) {
            let t = out.entry(s.name.to_string()).or_default();
            t.self_us += s.dur_us.saturating_sub(c);
            t.incl_us += s.dur_us;
            t.count += 1;
        }
    }
    out
}

/// The spans that started inside the timed region (none when the region
/// marker is missing).
fn in_region(spans: &[SpanRecord]) -> Vec<SpanRecord> {
    let Some(region) = spans.iter().find(|s| s.name == REGION_SPAN) else {
        return Vec::new();
    };
    let (start, end) = (region.start_us, region.start_us + region.dur_us);
    spans
        .iter()
        .filter(|s| s.name != REGION_SPAN && s.start_us >= start && s.start_us <= end)
        .cloned()
        .collect()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Every per-layer metric of a traced round except `trace.overhead_ratio`
/// (which needs an untraced round to compare with).
#[must_use]
pub fn per_layer(spans: &[SpanRecord], counters: &Counters, outcome: &Outcome) -> Vec<Metric> {
    let times = self_times(&in_region(spans));
    let time = |name: &str| times.get(name).copied().unwrap_or_default();

    let mut out: Vec<Metric> = Vec::new();
    for (metric, names) in SELF_TIMES {
        let self_us: u64 = names.iter().map(|n| time(n).self_us).sum();
        let count: u64 = names.iter().map(|n| time(n).count).sum();
        out.push(Metric::new(metric, self_us as f64 / 1e3, "ms").with_samples(count));
    }
    for (metric, name) in CLASS_TIMES {
        let t = time(name);
        out.push(Metric::new(metric, t.incl_us as f64 / 1e3, "ms").with_samples(t.count));
    }

    for (name, value) in counters.deterministic() {
        out.push(Metric::new(&name, value as f64, "count"));
    }
    out.push(Metric::new("synth.nets", outcome.nets as f64, "count"));

    let lanes = counters.get("ola.batch.lanes") as f64;
    let runs = counters.get("ola.batch.runs") as f64;
    let capacity = lane_capacity() as f64;
    out.push(Metric::new("batch.lane_util", ratio(lanes, runs * capacity), "ratio"));
    let m = &counters.memo;
    out.push(Metric::new(
        "memo.program_hit_ratio",
        ratio(m.program_hits as f64, m.program_requests() as f64),
        "ratio",
    ));
    out.push(Metric::new(
        "memo.cert_hit_ratio",
        ratio(m.cert_hits as f64, m.cert_requests() as f64),
        "ratio",
    ));
    let (hits, misses) = (counters.get("ola.cache.hits"), counters.get("ola.cache.misses"));
    out.push(Metric::new("cache.hit_ratio", ratio(hits as f64, (hits + misses) as f64), "ratio"));
    out.push(Metric::new(
        "error_rate",
        ratio(outcome.failed.len() as f64, outcome.attempted as f64),
        "ratio",
    ));
    for (name, unit) in crate::serve::METRICS {
        if !outcome.extra.iter().any(|m| m.name == name) {
            out.push(Metric::new(name, 0.0, unit).with_samples(0));
        }
    }

    let probes = outcome.probe.as_ref().map(probe).unwrap_or_default();
    let threads = ola_core::parallel::thread_config().resolved as f64;
    let sampling_ms: f64 = SAMPLING_SPANS.iter().map(|n| time(n).incl_us as f64 / 1e3).sum();
    let event_work = counters.get("ola.sim.event.runs") as f64 * probes.event_ms_per_vector;
    let batch_work = counters.get("ola.batch.word_steps") as f64 * probes.batch_ms_per_word_step;
    out.push(Metric::new(
        "event.parallel_efficiency",
        ratio(event_work, threads * sampling_ms),
        "ratio",
    ));
    out.push(Metric::new(
        "batch.parallel_efficiency",
        ratio(batch_work, threads * sampling_ms),
        "ratio",
    ));
    out.extend(probes.metrics);
    out
}

/// What the traced probes run on: one representative netlist of the
/// workload, with the workload's own stimulus distribution.
pub struct ProbeSubject {
    /// The netlist.
    pub netlist: Netlist,
    /// Its sampled output bus.
    pub wires: Vec<NetId>,
    /// The workload's `Ts` grid on it.
    pub grid: Vec<u64>,
    /// At least 256 input vectors.
    pub stimulus: Vec<Vec<bool>>,
    /// The jittered model the workload's event simulations ran under.
    pub jitter: Option<JitteredDelay<FpgaDelay>>,
    /// Vectors the event probe simulates.
    pub event_vectors: usize,
    /// A query the HTTP probe serves from a warm cache.
    pub query: String,
}

impl ProbeSubject {
    /// The subject for a workload built on the online multiplier
    /// `circuit`: operands drawn digit-uniform, as the workload draws them.
    #[must_use]
    pub fn multiplier(
        circuit: &OnlineMultiplierCircuit,
        grid: Vec<u64>,
        jitter: Option<JitteredDelay<FpgaDelay>>,
        seed: u64,
    ) -> ProbeSubject {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let stimulus = (0..256)
            .map(|_| {
                let x = InputModel::UniformDigits.draw(&mut rng, circuit.n);
                let y = InputModel::UniformDigits.draw(&mut rng, circuit.n);
                circuit.encode_inputs(&x, &y)
            })
            .collect();
        ProbeSubject {
            netlist: circuit.netlist.clone(),
            wires: [circuit.netlist.output("zp"), circuit.netlist.output("zn")].concat(),
            grid,
            stimulus,
            jitter,
            event_vectors: 3,
            query: format!(r#"{{"kind":"sta","expr":"z = x * y","width":{}}}"#, circuit.n),
        }
    }
}

/// `count` input vectors of `inputs` uniform random bits — for synthesized
/// datapaths every bit pattern is a valid borrow-save operand encoding.
#[must_use]
pub fn random_stimulus(inputs: usize, count: usize, seed: u64) -> Vec<Vec<bool>> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..count).map(|_| (0..inputs).map(|_| rng.gen::<bool>()).collect()).collect()
}

#[derive(Default)]
struct Probes {
    metrics: Vec<Metric>,
    event_ms_per_vector: f64,
    batch_ms_per_word_step: f64,
}

/// Median milliseconds of `f` over at least `min_reps` calls, repeating
/// up to 50 calls or 250 ms.
fn time_ms<T>(min_reps: usize, mut f: impl FnMut() -> T) -> (f64, u64) {
    let mut samples = Vec::new();
    let started = Instant::now();
    while samples.len() < min_reps
        || (samples.len() < 50 && started.elapsed() < Duration::from_millis(250))
    {
        let t = Instant::now();
        std::hint::black_box(f());
        samples.push(t.elapsed().as_secs_f64() * 1e3);
    }
    (median(&samples).unwrap_or(0.0), samples.len() as u64)
}

fn probe(s: &ProbeSubject) -> Probes {
    let fpga = FpgaDelay::default();
    let mut out = Probes::default();
    let mut push = |name: &str, (value, reps): (f64, u64), unit: &str| {
        out.metrics.push(Metric::new(name, value, unit).with_samples(reps));
    };

    let prog = BatchProgram::compile(&s.netlist, &fpga).expect("FpgaDelay is batch-exact");
    let vectors = &s.stimulus[..256];
    let prev = LaneInputs::<LaneBlock<4>>::zeros(s.netlist.inputs().len(), 256).expect("256 lanes");
    let new = LaneInputs::<LaneBlock<4>>::pack(vectors).expect("full input vectors");
    let settle = time_ms(1, || prog.run(&prev, &new).expect("shapes match"));
    let clean = prog.run(&prev, &new).expect("shapes match");
    out.batch_ms_per_word_step = ratio(settle.0, clean.word_steps() as f64);
    push("batch.settle_ms_per_pass", settle, "ms");
    push(
        "batch.sample_ms_per_pass",
        time_ms(3, || clean.bus_waves(&s.wires).expect("bus nets exist").try_sweep(&s.grid)),
        "ms",
    );
    // One transient site per pass, as a fault campaign injects it.
    let gates: Vec<NetId> = s.netlist.nets().filter(|n| !s.netlist.inputs().contains(n)).collect();
    let site = gates[gates.len() / 2];
    let period = s.grid.last().copied().unwrap_or(1);
    let plans: Vec<FaultPlan> =
        (0..256).map(|i| FaultPlan::new().transient(site, period * i / 256, 150)).collect();
    let faults =
        LaneFaultSet::<LaneBlock<4>>::compile(&plans, s.netlist.len()).expect("site in range");
    push(
        "batch.incremental_ms_per_pass",
        time_ms(1, || {
            prog.run_incremental(&clean, &prev, &new, Some(&faults)).expect("same program")
        }),
        "ms",
    );

    let event_delay: &dyn DelayModel = match &s.jitter {
        Some(j) => j,
        None => &fpga,
    };
    let mut next = 0usize;
    let event = time_ms(s.event_vectors, || {
        next = (next + 1) % s.stimulus.len();
        simulate_from_zero(&s.netlist, event_delay, &s.stimulus[next])
    });
    out.event_ms_per_vector = event.0;
    push("event.ms_per_vector", event, "ms");

    let (http_us, body) = http_hit_us(&s.query);
    let cache = ContentCache::new(CacheConfig::default());
    let key = CacheKey::of(s.query.as_bytes());
    let fill = || Ok::<_, ()>(body.clone());
    let _ = cache.get_or_compute(&key, fill);
    let (get_ms, reps) = time_ms(200, || cache.get_or_compute(&key, fill));
    push("cache.get_hit_us", (get_ms * 1e3, reps), "us");
    push("http.hit_us", http_us, "us");
    push("http.hit_overhead_us", (http_us.0 - get_ms * 1e3, http_us.1), "us");
    out
}

/// Median µs of a hot `query` over a keep-alive connection to a fresh
/// one-worker server, and the response body it serves.
fn http_hit_us(query: &str) -> ((f64, u64), Vec<u8>) {
    let server = Server::start(ServerConfig { workers: 1, ..ServerConfig::default() })
        .expect("bind a loopback port");
    let mut conn = Conn::open(server.addr()).expect("connect to the probe server");
    let mut send = || conn.query(query).expect("the probe server answers");
    let body = send().body;
    let (ms, reps) = time_ms(200, &mut send);
    drop(conn);
    server.drain_and_join();
    ((ms * 1e3, reps), body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::borrow::Cow;

    fn span(name: &'static str, thread: u64, depth: u32, start_us: u64, dur_us: u64) -> SpanRecord {
        SpanRecord { name: Cow::Borrowed(name), thread, depth, start_unix_ms: 0, start_us, dur_us }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // outer [0,100) ⊃ mid [10,60) ⊃ leaf [20,30); second child [70,90).
        let spans = [
            span("leaf", 1, 2, 20, 10),
            span("mid", 1, 1, 10, 50),
            span("tail", 1, 1, 70, 20),
            span("outer", 1, 0, 0, 100),
        ];
        let t = self_times(&spans);
        assert_eq!(t["outer"].self_us, 100 - 50 - 20);
        assert_eq!(t["mid"].self_us, 50 - 10);
        assert_eq!(t["leaf"].self_us, 10);
        assert_eq!(t["tail"].self_us, 20);
        assert_eq!(t["outer"].incl_us, 100);
    }

    #[test]
    fn spans_on_other_threads_are_not_children() {
        // A worker thread's span overlaps the caller's in time but runs
        // elsewhere: the caller keeps its whole duration as self time.
        let spans = [
            span("caller", 1, 0, 0, 100),
            span("worker", 2, 0, 10, 80),
            span("worker", 3, 0, 10, 80),
        ];
        let t = self_times(&spans);
        assert_eq!(t["caller"].self_us, 100);
        assert_eq!(t["worker"].self_us, 160);
        assert_eq!(t["worker"].count, 2);
    }

    #[test]
    fn sibling_after_a_closed_span_is_not_its_child() {
        // Two consecutive roots, then a root whose child starts exactly
        // where the previous root ended.
        let spans = [span("a", 1, 0, 0, 10), span("b", 1, 0, 10, 10), span("c", 1, 1, 10, 5)];
        let t = self_times(&spans);
        assert_eq!(t["a"].self_us, 10);
        assert_eq!(t["b"].self_us, 5);
        assert_eq!(t["c"].self_us, 5);
    }

    #[test]
    fn region_filter_keeps_spans_that_start_inside() {
        let spans = [
            span("setup", 1, 0, 0, 5),
            span(REGION_SPAN, 1, 0, 10, 100),
            span("work", 1, 1, 20, 30),
            span("probe", 1, 0, 200, 5),
        ];
        let inside = in_region(&spans);
        assert_eq!(inside.len(), 1);
        assert_eq!(inside[0].name, "work");
    }
}
