//! `bench` — the one benchmark of the ola simulation and serving stack.
//!
//! It measures the stack end to end and layer by layer on four seeded
//! workloads, checks every output, and pins a SHA-256 digest of each
//! workload's results, so a faster build that changes an output fails.
//!
//! # Running
//!
//! ```sh
//! cargo run --release --manifest-path benchmark/Cargo.toml -- --list
//! cargo run --release --manifest-path benchmark/Cargo.toml -- fig4_jitter              # end to end
//! cargo run --release --manifest-path benchmark/Cargo.toml -- fig4_jitter --traced     # per layer
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload dsp_pack --seed 7 --seconds 30 --trace 0
//! cargo test --release --manifest-path benchmark/Cargo.toml
//! ```
//!
//! A run repeats *rounds* of one workload, each in a fresh child process,
//! so the compile memo (`ola_core::memo`), the metrics registry and the
//! span ring start empty and every round pays what a user's run pays. It
//! keeps starting rounds while they fit in `--seconds` (default 0): at
//! least three untraced rounds, or — traced — untraced and traced rounds
//! alternating, at least one of each. Set-up is short beside a round, so
//! before its rounds a run also starts up to 60 children (2 s at most)
//! that it stops as their timed regions begin, for more set-up samples.
//! Every round prints one `ola.bench/v1` record on stdout; the run then
//! prints their aggregate (each metric the median over the rounds that
//! report it, end-to-end numbers from untraced rounds only) and, as its
//! last line, `{"correct","attempted","failed","metrics"}` carrying the
//! end-to-end metrics of `BENCHMARK.json`, or its per-layer metrics when
//! traced.
//!
//! `--seed` (default 2014) derives every input; a run prints its digest
//! whatever the seed, and at 2014 compares it with the pinned one. Rounds
//! run with `OLA_THREADS=2` unless it is set. The exit status is 0 when
//! every check passed, 1 when one failed (a wrong output, a digest that
//! differs from the pinned one or between rounds, counters that differ
//! between rounds, a failed request), 2 on a usage error.
//!
//! A record holds every metric with its unit and sample count, the
//! deterministic counters of the timed region, the digest, and the
//! resolved configuration: `git describe`, `nproc`, the `OLA_THREADS`
//! resolution, the engines that ran, the batch lane capacity, every `OLA_*`
//! variable that is set, the seed and the workload's sizes.
//!
//! # Workloads
//!
//! All four are closed loops, sized so a 30-second run holds five to eight
//! rounds on a two-core machine.
//!
//! * `fig4_jitter` — stage-wave Monte-Carlo of the 8- and 12-digit online
//!   multipliers (1000 samples each), then the gate-level curve of the
//!   8-digit multiplier under `JitteredDelay(FpgaDelay, 15, 2014)`: 10 `Ts`
//!   points, 12 samples, `SimBackend::Auto`, `StaGate::On`. Jitter is not
//!   batch-exact, so this is the workload whose sweep the event engine
//!   (`ola_netlist::sim`) runs, on one thread (12 samples are one
//!   256-sample chunk), as `repro fig4` does. The case study (figures 6–7,
//!   tables 1–3) spends its time in the same multiplier event simulations.
//!   Making jitter batch-exact should move this workload; sharding a batch
//!   pass should not.
//! * `dsp_pack` — the `repro dsp` pack: FIR 4 taps (W4, W8), 8 taps (W8),
//!   16 taps (W8, W16), conv2d 3×3 (W4, W8), mat-vec 3×3 (W4, W8), each
//!   fused and unfused, through `optimize(BalancedTree)` →
//!   `elaborate(Online)` → `analyze` → `variant_error_curve(Batch)` over a
//!   20-point grid shared by the pair, 256 samples. Every sweep is one full
//!   256-lane pass on one thread, and batch settle dominates (the unfused
//!   16-tap, 16-digit FIR is the largest pass): sharding a
//!   pass should move it, lane packing should not.
//! * `faults12` — `online_fault_campaign_with_stats` and
//!   `array_fault_campaign_with_stats` at width 12, all four fault
//!   classes, 6 sites × 64 samples, `FpgaDelay`, `Auto`: small netlists,
//!   25% lane use, one clean pass plus one `run_incremental` dirty-cone
//!   pass per site, sites already parallel. Lane packing or the
//!   incremental kernel should move it; sharding a pass should not.
//! * `serve_mixed` — an in-process `ola_serve::Server` (2 workers, a
//!   64-entry result cache, no rate limit, no disk tier) and 2 keep-alive
//!   clients sending 1000 requests each. Every 20th request is cold: a
//!   fresh seeded query, kinds rotating sweep/sta/dsp/verify/pareto over
//!   dyadic-coefficient expressions of 2–4 terms at width 4–6, which
//!   misses the result cache and the compile memo. The rest cycle through
//!   16 hot queries warmed during set-up. The 116 distinct keys exceed the
//!   cache, so LRU eviction runs. The only workload on `ola_serve` and
//!   `ola_core::cache`: hits bypass simulation, cold requests run parse →
//!   passes → elaborate → STA → compile → sample on small netlists
//!   (including the synthesis Pareto sweep).
//!
//! A cold query's shape (kind, term count, width, kernel) is fixed by its
//! slot in the schedule and only its coefficients, signs and sampling
//! seed are drawn, so every seed asks for the same amount of work.
//!
//! # End-to-end metrics
//!
//! Every workload reports all of them; lower is better.
//!
//! * `wall_s` (s) — the timed region: everything the workload asks of the
//!   program, elaboration and compilation included, since users pay them
//!   on every run. For `serve_mixed`, the time both clients take to finish
//!   their schedules.
//! * `setup_s` (s) — from spawning the round's process to the start of its
//!   timed region: process start, input and query generation and, for
//!   `serve_mixed`, server start and hot-set warm-up.
//! * `peak_rss_mb` (MB, 2^20 bytes) — `VmHWM` at the end of the round.
//!
//! `serve_mixed` also measures what its clients see: `serve_qps` (1/s),
//! `serve_hit_p50_us` and `serve_hit_p99_us` (µs, over the 1900 hot
//! requests of a round), `serve_cold_p50_ms` and `serve_cold_p90_ms` (ms,
//! over its 100 cold requests) and `serve.cold_p50_ms.<kind>` (ms, 20
//! each). A tail percentile is reported only with at least ten samples
//! beyond it, so a round has no cold p99. These exist on one workload
//! only, so `BENCHMARK.json` lists them with the per-layer metrics, and
//! the other workloads report them as 0 from 0 samples.
//!
//! # Per-layer metrics
//!
//! From traced rounds. Every workload reports every one, so a layer a
//! workload never enters reads a zero time or count. A `_ms` time is the
//! summed self time of the layer's spans inside the timed region, over
//! every thread; a probe times one public call after the timed region, on
//! the workload's own netlist and stimulus. Each line names the
//! end-to-end number it should move.
//!
//! * `ola_netlist::sim`: `event.ms_per_vector` (probe:
//!   `simulate_from_zero`), `event.vectors`, `event.parallel_efficiency`
//!   (vectors × ms per vector / (threads × sampling time)) — `wall_s` on
//!   `fig4_jitter`.
//! * `ola_netlist::batch`: `batch.settle_ms_per_pass` (probe:
//!   `BatchProgram::run`, one 256-lane `LaneBlock<4>` pass),
//!   `batch.sample_ms_per_pass` (probe: `bus_waves` + `try_sweep`) —
//!   `wall_s` on `dsp_pack`; `batch.incremental_ms_per_pass` (probe:
//!   `run_incremental` with a one-site transient `LaneFaultSet`) —
//!   `wall_s` on `faults12`; `batch.runs`, `batch.word_steps`,
//!   `batch.lane_transitions` (the switching-activity energy proxy),
//!   `batch.lane_util`, `batch.parallel_efficiency` (word steps × probed
//!   ms per word step / (threads × sampling time)) — `wall_s` on
//!   `dsp_pack` and `faults12`.
//! * `ola_netlist::sta`: `sta.analyze_ms` — `serve_cold_p50_ms`, and
//!   `wall_s` on `dsp_pack`.
//! * `ola_core::memo`: `batch.compile_ms`, `memo.program_requests`,
//!   `memo.cert_requests`, `memo.program_hit_ratio`,
//!   `memo.cert_hit_ratio` — `serve_cold_p50_ms`.
//! * `ola_core::empirical`, `montecarlo`, `campaign`:
//!   `empirical.sample_ms`, `empirical.sta_skipped_points` — `wall_s` on
//!   `fig4_jitter` and `dsp_pack`; `montecarlo.sweep_ms` — on
//!   `fig4_jitter`; `campaign.online_ms`, `campaign.conventional_ms`,
//!   `campaign.{stuck_at_0,stuck_at_1,transient,delay_push}_ms` (each
//!   class's campaigns, inclusive) — on `faults12`.
//! * `ola_arith` / `ola_synth`: `arith.generate_ms`, `synth.optimize_ms`,
//!   `synth.elaborate_ms`, `synth.explore_ms`, `synth.nets` — `wall_s` on
//!   `dsp_pack`, and `serve_cold_p50_ms`.
//! * `ola_serve` / `ola_core::cache`: `serve.query_ms` and the cold
//!   latencies — `serve_cold_p50_ms` and `serve_cold_p90_ms`;
//!   `cache.hit_ratio`, `cache.evictions` — `serve_qps`;
//!   `cache.get_hit_us` (probe: a warm `ContentCache::get_or_compute`),
//!   `http.hit_us` (probe: a hot query over keep-alive),
//!   `http.hit_overhead_us` (`http.hit_us` − `cache.get_hit_us`) —
//!   `serve_hit_p50_us`; `serve.non_200`, `error_rate` — failed requests.
//! * `ola_core::obs`: `trace.overhead_ratio` — traced over untraced
//!   median `wall_s`.
//!
//! The harness opens `layer.*` spans around its own calls; the program's
//! `empirical.*`, `mc.sweep`, `campaign.*`, `synth.*` and `serve.query`
//! spans come with them. `serve_mixed` drains the span ring every 256
//! requests per client, so its 4096 entries never fill.
//!
//! # What it replaces
//!
//! It supersedes the single-purpose producers `batch_wide`
//! (`BENCH_batch.json`), `dsp_gate` (`BENCH_dsp.json`), the `ola-loadgen`
//! summary (`BENCH_serve.json`), `backend_speedup`, and the criterion
//! benches under `crates/bench/benches`.

mod dsp;
mod faults;
mod fig4;
mod layers;
mod record;
mod round;
mod serve;
mod stats;

use ola_core::obs::json::{self, JsonValue};
use record::Record;
use round::{Clock, Ctx, Outcome};
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

/// The `--seed` the pinned digests belong to.
pub const DEFAULT_SEED: u64 = 2014;

/// Untraced rounds a run makes at least, however short `--seconds` is.
const MIN_ROUNDS: usize = 3;

/// Set-up-only children a run starts before its rounds, unless they take
/// longer than [`SETUP_BUDGET`] together.
const SETUP_SAMPLES: usize = 60;
const SETUP_BUDGET: std::time::Duration = std::time::Duration::from_secs(2);

/// The metric lists of the benchmark definition at the repository root.
const DEFINITION: &str = include_str!("../../BENCHMARK.json");

/// One named workload.
pub struct Workload {
    /// Name, as given on the command line.
    pub name: &'static str,
    /// Why the benchmark has it, in one line.
    pub why: &'static str,
    /// SHA-256 of its outputs at [`DEFAULT_SEED`].
    pub pinned: &'static str,
    /// Runs one round.
    pub run: fn(&Ctx, &mut Clock) -> Outcome,
}

/// Every workload, in `--list` order.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "fig4_jitter",
        why: "Figure 4: stage-wave Monte-Carlo plus the jittered gate-level sweep, the one workload whose sweep runs on the event engine",
        pinned: "456b3041e52d8b13bdd43006c32cbe61bc2eea093b5789f7856dd4562c4cee3a",
        run: fig4::run,
    },
    Workload {
        name: "dsp_pack",
        why: "the repro dsp kernel pack, fused and unfused: compile, then one full 256-lane batch pass per variant, where batch settle dominates",
        pinned: "959c3a388da087e3308848c8d428738ac6c2855021c6ecd2a6667a19c09ac2ac",
        run: dsp::run,
    },
    Workload {
        name: "faults12",
        why: "width-12 fault campaigns in all four classes: small netlists, 25% lane use, one clean and one incremental dirty-cone pass per site",
        pinned: "296c14ab53127b6a853349bd81de9e5d3a75dbe87170004d1c19c17768c11da3",
        run: faults::run,
    },
    Workload {
        name: "serve_mixed",
        why: "two closed-loop clients on ola-serve: hits bypass simulation, and one request in 20 is cold, through parse, passes, STA, compile, sampling",
        pinned: "50b033e659f58649932ea78b36af64216f16e33f31884c7db0be7cfe329fc7a5",
        run: serve::run,
    },
];

/// The metric names BENCHMARK.json lists under `key`.
fn defined(key: &str) -> Vec<String> {
    let doc = json::parse(DEFINITION).expect("BENCHMARK.json is valid JSON");
    doc.get(key)
        .and_then(JsonValue::as_array)
        .expect("BENCHMARK.json lists metrics")
        .iter()
        .filter_map(|m| m.get("name").and_then(JsonValue::as_str).map(str::to_owned))
        .collect()
}

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    round: bool,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: bench <workload> [--seed N] [--seconds S] [--traced]\n\
         \x20      bench --workload <workload> [--seed N] [--seconds S] [--trace 0|1]\n\
         \x20      bench --list"
    );
    ExitCode::from(2)
}

fn parse_args(args: &[String]) -> Option<Args> {
    let mut workload = None;
    let mut parsed = Args {
        workload: &WORKLOADS[0],
        seed: DEFAULT_SEED,
        seconds: 0.0,
        traced: false,
        round: false,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" => parsed.seed = it.next()?.parse().ok()?,
            "--seconds" => parsed.seconds = it.next()?.parse().ok()?,
            "--traced" => parsed.traced = true,
            "--trace" => {
                parsed.traced = match it.next()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                }
            }
            "--round" => parsed.round = true,
            "--workload" => workload = Some(it.next()?.clone()),
            name if !name.starts_with('-') && workload.is_none() => {
                workload = Some(name.to_owned());
            }
            _ => return None,
        }
    }
    parsed.workload = WORKLOADS.iter().find(|w| Some(w.name) == workload.as_deref())?;
    Some(parsed)
}

fn main() -> ExitCode {
    let process = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--list") {
        for w in &WORKLOADS {
            println!("{:<12} {}", w.name, w.why);
        }
        return ExitCode::SUCCESS;
    }
    let Some(args) = parse_args(&args) else { return usage() };
    // Every workload runs on two worker threads unless told otherwise.
    if std::env::var_os("OLA_THREADS").is_none() {
        std::env::set_var("OLA_THREADS", "2");
    }
    let w = args.workload;
    if args.round {
        let ctx = Ctx { seed: args.seed, traced: args.traced, tiny: false };
        let record = round::run(w, &ctx, process);
        println!("{}", record.to_json().render());
        return if record.failed.is_empty() { ExitCode::SUCCESS } else { ExitCode::FAILURE };
    }
    drive(w, args.seed, args.seconds, args.traced)
}

/// A round of `w` started in a child process, with its stdout lines.
struct RoundProcess {
    process: std::process::Child,
    lines: std::io::Lines<BufReader<std::process::ChildStdout>>,
    spawned: Instant,
}

impl RoundProcess {
    fn spawn(exe: &Path, w: &Workload, seed: u64, traced: bool) -> Result<RoundProcess, String> {
        let spawned = Instant::now();
        let mut process = Command::new(exe)
            .args(["--round", w.name, "--seed", &seed.to_string()])
            .args(traced.then_some("--traced"))
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn: {e}"))?;
        let stdout = process.stdout.take().expect("stdout is piped");
        Ok(RoundProcess { process, lines: BufReader::new(stdout).lines(), spawned })
    }

    /// Seconds from the spawn to the round's [`round::BEGIN_LINE`]: its
    /// set-up time. `None` when the round ended without beginning.
    fn await_begin(&mut self) -> Result<Option<f64>, String> {
        for line in &mut self.lines {
            if line.map_err(|e| format!("read: {e}"))? == round::BEGIN_LINE {
                return Ok(Some(self.spawned.elapsed().as_secs_f64()));
            }
        }
        Ok(None)
    }
}

/// Starts a round, stops it as its timed region begins, and returns its
/// set-up seconds.
fn setup_only(exe: &Path, w: &Workload, seed: u64) -> Result<f64, String> {
    let mut child = RoundProcess::spawn(exe, w, seed, false)?;
    let setup_s = child.await_begin();
    // Killing a child that has already exited fails harmlessly; wait reaps it.
    let _ = child.process.kill();
    child.process.wait().map_err(|e| format!("wait: {e}"))?;
    setup_s?.ok_or_else(|| "the round ended during set-up".to_owned())
}

/// Runs one round in a child process and returns its record, with
/// `setup_s` measured from the spawn to the round's [`round::BEGIN_LINE`],
/// and the round's total seconds.
fn run_child(exe: &Path, w: &Workload, seed: u64, traced: bool) -> Result<(Record, f64), String> {
    let mut child = RoundProcess::spawn(exe, w, seed, traced)?;
    let setup_s = child.await_begin()?;
    let mut last = String::new();
    for line in &mut child.lines {
        let line = line.map_err(|e| format!("read: {e}"))?;
        if !line.is_empty() {
            last = line;
        }
    }
    let status = child.process.wait().map_err(|e| format!("wait: {e}"))?;
    let mut record = Record::parse(&last).map_err(|e| format!("{e} (exit status {status})"))?;
    if let (Some(m), Some(s)) = (record.metrics.iter_mut().find(|m| m.name == "setup_s"), setup_s) {
        m.value = s;
    }
    Ok((record, child.spawned.elapsed().as_secs_f64()))
}

/// Runs rounds of `w` in fresh child processes for `seconds` (at least
/// [`MIN_ROUNDS`] untraced ones, or one untraced and one traced), prints
/// each round's record, their aggregate, and the summary line. Set-up
/// alone is short beside a round, so the run first repeats it in extra
/// children, stopped as their timed regions begin, and reports the median
/// over those and the untraced rounds.
fn drive(w: &Workload, seed: u64, seconds: f64, trace: bool) -> ExitCode {
    let exe = std::env::current_exe().expect("the running executable has a path");
    let started = Instant::now();
    let mut crashed: Vec<String> = Vec::new();
    let mut setups: Vec<f64> = Vec::new();
    while setups.len() < SETUP_SAMPLES && started.elapsed() < SETUP_BUDGET {
        match setup_only(&exe, w, seed) {
            Ok(s) => setups.push(s),
            Err(e) => {
                crashed.push(format!("set-up {}: {e}", setups.len() + 1));
                break;
            }
        }
    }
    let mut rounds: Vec<Record> = Vec::new();
    let mut longest = 0.0f64;
    let min_rounds = if trace { 2 } else { MIN_ROUNDS };
    while crashed.is_empty()
        && (rounds.len() < min_rounds || started.elapsed().as_secs_f64() + longest <= seconds)
    {
        // Traced runs alternate untraced and traced rounds.
        let traced = trace && rounds.len() % 2 == 1;
        match run_child(&exe, w, seed, traced) {
            Ok((record, secs)) => {
                longest = longest.max(secs);
                println!("{}", record.to_json().render());
                rounds.push(record);
            }
            Err(e) => crashed.push(format!("round {}: {e}", rounds.len() + 1)),
        }
    }
    let Some(mut total) = Record::aggregate(&rounds) else {
        eprintln!("bench: no round finished: {crashed:?}");
        return ExitCode::FAILURE;
    };
    total.failed.extend(crashed);
    let untraced = rounds.iter().filter(|r| r.traced == 0);
    setups.extend(untraced.filter_map(|r| r.metric("setup_s")).map(|m| m.value));
    if let Some(m) = total.metrics.iter_mut().find(|m| m.name == "setup_s") {
        m.value = stats::median(&setups).unwrap_or(m.value);
        m.samples = setups.len() as u64;
    }
    println!("{}", total.to_json().render());
    for f in &total.failed {
        eprintln!("bench: FAILED: {f}");
    }
    let wanted = defined(if trace { "per_layer" } else { "end_to_end" });
    let summary = total.summary(&wanted);
    println!("{}", summary.render());
    if summary.get("correct") == Some(&JsonValue::Bool(true)) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, PoisonError};

    /// Rounds share the process-wide registry, compile memo, span ring and
    /// environment, so the tests that run them take turns.
    static ROUNDS: Mutex<()> = Mutex::new(());

    fn workload(name: &str) -> &'static Workload {
        WORKLOADS.iter().find(|w| w.name == name).expect("a defined workload")
    }

    fn tiny_round(w: &Workload, traced: bool, threads: &str) -> Record {
        std::env::set_var("OLA_THREADS", threads);
        round::run(w, &Ctx { seed: 7, traced, tiny: true }, Instant::now())
    }

    #[test]
    fn digests_and_counters_repeat_across_runs_and_thread_counts() {
        let _turn = ROUNDS.lock().unwrap_or_else(PoisonError::into_inner);
        for name in ["fig4_jitter", "dsp_pack", "faults12"] {
            let w = workload(name);
            let runs =
                [tiny_round(w, false, "2"), tiny_round(w, false, "2"), tiny_round(w, false, "1")];
            for r in &runs {
                assert!(r.failed.is_empty(), "{name}: {:?}", r.failed);
                assert!(r.counters.iter().any(|(_, v)| *v > 0), "{name}: no counter moved");
            }
            for r in &runs[1..] {
                assert_eq!(r.digest, runs[0].digest, "{name}: digest");
                assert_eq!(r.counters, runs[0].counters, "{name}: deterministic counters");
            }
        }
    }

    #[test]
    fn records_reparse_and_carry_every_defined_metric() {
        let _turn = ROUNDS.lock().unwrap_or_else(PoisonError::into_inner);
        let w = workload("faults12");
        let rounds = [tiny_round(w, false, "2"), tiny_round(w, true, "2")];
        let total = Record::aggregate(&rounds).expect("two rounds");
        let text = total.to_json().render();
        assert_eq!(Record::parse(&text), Ok(total.clone()), "the record reads back unchanged");

        let doc = json::parse(&text).expect("the record is JSON");
        let metrics = doc.get("metrics").expect("the record has metrics");
        let definition = json::parse(DEFINITION).expect("BENCHMARK.json is JSON");
        for key in ["end_to_end", "per_layer"] {
            let listed = definition.get(key).and_then(JsonValue::as_array).expect("metric lists");
            for m in listed {
                let name = m.get("name").and_then(JsonValue::as_str).expect("named");
                let got = metrics.get(name).unwrap_or_else(|| panic!("the record lacks {name}"));
                assert_eq!(got.get("unit"), m.get("unit"), "{name}: unit");
                assert!(
                    got.get("samples").and_then(JsonValue::as_u64).is_some(),
                    "{name}: samples"
                );
            }
            let summary = total.summary(&defined(key));
            assert_eq!(summary.get("correct"), Some(&JsonValue::Bool(true)), "{key}");
            let reported = summary.get("metrics").and_then(JsonValue::as_object).map(<[_]>::len);
            assert_eq!(reported, Some(listed.len()), "{key}: every listed metric is reported");
        }
    }

    #[test]
    fn the_definition_lists_these_workloads_and_reasons() {
        let definition = json::parse(DEFINITION).expect("BENCHMARK.json is JSON");
        let listed: Vec<(&str, &str)> = definition
            .get("workloads")
            .and_then(JsonValue::as_array)
            .expect("a workload list")
            .iter()
            .map(|w| {
                let field = |k| w.get(k).and_then(JsonValue::as_str).expect("name and why");
                (field("name"), field("why"))
            })
            .collect();
        let ours: Vec<(&str, &str)> = WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
        assert_eq!(listed, ours);
    }
}
