//! Regenerates the paper's tables and figures. See `ola-bench` crate docs.
//!
//! Every experiment runs in its own worker thread under `catch_unwind` and
//! a wall-clock budget. The budget is enforced *cooperatively*: the worker
//! carries a [`CancelToken`] with the budget as its deadline, every
//! simulation inner loop polls it, and a runaway experiment is cancelled —
//! it stops computing, its completed work units stay checkpointed, and its
//! cores come back — instead of being abandoned on a detached thread.
//!
//! Runs are crash-safe. Completed work units land in an append-only,
//! SHA-256-framed checkpoint at `results/checkpoints/repro.ckpt`;
//! `repro --resume` replays the valid frames and recomputes only the
//! remainder, producing bit-identical CSVs (the `chaos_check` binary
//! proves this under injected crashes, torn frames, and panics — see
//! `ola_core::resilience`).
//!
//! The exit code reflects completeness — `0` when every requested
//! experiment (and every CSV write) succeeded, `1` for partial results,
//! `2` for usage errors, `3` when the environment is unusable (the
//! `results/` output directory cannot be created), `86` when a chaos hook
//! aborted the process on purpose. `--list` enumerates the experiments and
//! exit codes. The gate-level workloads run on the batch engine only; the
//! `ola-bench` oracle tests hold what fig4, faults and dsp measure to the
//! event-driven reference simulator.
//!
//! Each experiment writes its CSVs as soon as it finishes and then emits a
//! run manifest at `results/manifests/<experiment>.json` — git revision,
//! master seeds, engine, `OLA_THREADS` resolution, tracing spans, the
//! metric-registry delta the experiment produced, and a SHA-256 of every
//! emitted CSV/PGM. `--trace {off,pretty,json}` overrides `OLA_TRACE` for
//! live span output on stderr.

use ola_bench::experiments::{self, CaseStudyContext, Scale};
use ola_bench::report::Table;
use ola_bench::resume::{ExperimentCtx, RunHeader, RunState};
use ola_core::obs::{self, AnnotationScope, OutputRecord, RunManifest, TraceMode};
use ola_core::resilience::{chaos, is_cancel_payload};
use ola_netlist::CancelToken;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// `(name, one-line description)` for every experiment, in run order.
const EXPERIMENTS: [(&str, &str); 14] = [
    ("sta", "static timing: critical paths, per-digit slack + certification (no simulation)"),
    ("lint", "netlist lint over every generated operator family (+ seeded-loop self-check)"),
    ("equiv", "formal verification: pass rewrites proved equivalent, online=conventional at settled Ts, absint error bounds vs measured"),
    ("synth", "datapath-synthesis Pareto sweep: style x allocation x width of a 1x3 kernel"),
    ("dsp", "fused vs unfused online MACs: FIR/conv2d/mat-vec area, latency, error + activity"),
    ("fig4", "overclocking error: model vs Monte-Carlo vs gate-level netlist (N=8,12)"),
    ("fig5", "per-chain-delay profile, analytic model next to Monte-Carlo (N=8..32)"),
    ("fig6", "image-filter MRE vs normalized frequency (case study)"),
    ("fig7", "overclocked filter output images + SNR table (case study)"),
    ("table1", "relative MRE reduction with online arithmetic"),
    ("table2", "SNR improvement (dB) with online arithmetic"),
    ("table3", "frequency headroom under error budgets"),
    ("table4", "LUT-area comparison of the synthesized operators"),
    ("faults", "single-fault campaigns: online vs conventional resilience"),
];

/// How long a cancelled worker gets to notice the token, checkpoint its
/// state and exit before the driver gives up on joining it.
const CANCEL_GRACE: Duration = Duration::from_secs(20);

fn print_usage() {
    eprintln!(
        "usage: repro [EXPERIMENT ...] [--quick] [--all] [--resume] [--trace off|pretty|json]"
    );
    eprintln!("       repro --list");
    eprintln!();
    eprintln!("experiments (default: all):");
    for (name, desc) in EXPERIMENTS {
        eprintln!("  {name:<8} {desc}");
    }
    eprintln!();
    eprintln!("flags:");
    eprintln!("  --quick            shrink sample counts and image sizes (CI scale)");
    eprintln!("  --all              extended lint coverage (more operand widths); the");
    eprintln!("                     CI gate runs `repro lint --all`");
    eprintln!("  --resume           replay completed work units from the checkpoint at");
    eprintln!("                     results/checkpoints/repro.ckpt and recompute only the");
    eprintln!("                     remainder; the resumed run's CSVs are bit-identical");
    eprintln!("                     to an uninterrupted run's (a checkpoint written with");
    eprintln!("                     different flags is discarded, not spliced)");
    eprintln!("  --trace MODE       live span output on stderr: off (default), pretty,");
    eprintln!("                     or json; overrides the OLA_TRACE environment variable");
    eprintln!("  --list             list experiments and exit codes, then exit");
    eprintln!("  --help, -h         this message");
    eprintln!();
    eprintln!("exit codes:");
    eprintln!("  0  every requested experiment (and every CSV/manifest write) succeeded");
    eprintln!("  1  partial results: at least one experiment or output write failed");
    eprintln!("  2  usage error (unknown experiment or flag)");
    eprintln!("  3  environment error: the results/ output directory cannot be created");
    eprintln!("  86 aborted on purpose by an OLA_CHAOS_* fault-injection hook");
}

/// Outcome of one experiment.
enum Outcome {
    Ok(Vec<Table>),
    Failed(String),
    TimedOut { budget: Duration, cooperative: bool },
}

/// One experiment body: receives its checkpoint context from the driver.
type Job = Box<dyn FnOnce(&ExperimentCtx) -> Result<Vec<Table>, String> + Send + 'static>;

fn decode(
    result: Result<Result<Vec<Table>, String>, Box<dyn std::any::Any + Send>>,
    budget: Duration,
) -> Outcome {
    match result {
        Ok(Ok(tables)) => Outcome::Ok(tables),
        Ok(Err(msg)) => Outcome::Failed(msg),
        Err(payload) => {
            // A worker whose deadline token fired before our timer did
            // unwinds with the typed cancellation payload: that is the
            // budget, not a crash.
            if is_cancel_payload(payload.as_ref()) {
                return Outcome::TimedOut { budget, cooperative: true };
            }
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            Outcome::Failed(format!("panicked: {msg}"))
        }
    }
}

/// Runs `job` on a worker thread under a cooperative wall-clock budget.
///
/// The worker installs a deadline [`CancelToken`] as its ambient token, so
/// every simulation loop underneath polls it (and `ola_core::parallel`
/// propagates it into its own worker pool), and `scope` as its annotation
/// sink, which the pool propagates too: even after a timeout, the worker
/// records only into this experiment's scope. On timeout the driver cancels
/// the token and waits [`CANCEL_GRACE`] for the worker to unwind — a
/// responsive worker checkpoints its completed units and frees its cores;
/// only a worker stuck outside any polling loop is left detached (the
/// process still terminates when `main` returns).
fn run_guarded(budget: Duration, ctx: ExperimentCtx, scope: AnnotationScope, job: Job) -> Outcome {
    let token = CancelToken::with_deadline(budget);
    let worker_token = token.clone();
    let (tx, rx) = mpsc::channel();
    let handle = std::thread::spawn(move || {
        let _ambient = ola_core::resilience::install_ambient(worker_token);
        let _scope = scope.install();
        let result = catch_unwind(AssertUnwindSafe(move || job(&ctx)));
        let _ = tx.send(result);
    });
    let outcome = match rx.recv_timeout(budget) {
        Ok(result) => decode(result, budget),
        Err(_) => {
            token.cancel();
            match rx.recv_timeout(CANCEL_GRACE) {
                Ok(_) => Outcome::TimedOut { budget, cooperative: true },
                // The worker never reached a cancellation point; abandon it
                // detached rather than blocking the remaining experiments.
                Err(_) => return Outcome::TimedOut { budget, cooperative: false },
            }
        }
    };
    let _ = handle.join();
    outcome
}

#[allow(clippy::too_many_lines)]
fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut all = false;
    let mut resume = false;
    let mut trace_override: Option<TraceMode> = None;
    let mut what: Vec<&str> = Vec::new();
    let mut i = 0usize;
    while i < args.len() {
        let arg = args[i].as_str();
        match arg {
            "--quick" => quick = true,
            "--all" => all = true,
            "--resume" => resume = true,
            "--help" | "-h" => {
                print_usage();
                return;
            }
            "--list" => {
                for (name, desc) in EXPERIMENTS {
                    println!("{name:<8} {desc}");
                }
                println!();
                println!(
                    "exit codes: 0 = complete, 1 = partial results, 2 = usage error, \
                     3 = environment error (cannot create results/), 86 = chaos-hook abort"
                );
                return;
            }
            "--trace" => {
                i += 1;
                let Some(value) = args.get(i).and_then(|v| TraceMode::parse(v)) else {
                    eprintln!("--trace needs one of: off, pretty, json");
                    std::process::exit(2);
                };
                trace_override = Some(value);
            }
            _ if arg.starts_with("--trace=") => {
                let Some(value) = TraceMode::parse(&arg["--trace=".len()..]) else {
                    eprintln!("--trace needs one of: off, pretty, json");
                    std::process::exit(2);
                };
                trace_override = Some(value);
            }
            _ if arg.starts_with("--") => {
                eprintln!("unknown flag {arg:?}");
                print_usage();
                std::process::exit(2);
            }
            name => what.push(name),
        }
        i += 1;
    }
    let scale = if quick { Scale::Quick } else { Scale::Full };
    let what = if what.is_empty() { vec!["all"] } else { what };
    if let Some(unknown) =
        what.iter().find(|w| **w != "all" && !EXPERIMENTS.iter().any(|(n, _)| n == *w))
    {
        eprintln!("unknown experiment {unknown:?}");
        print_usage();
        std::process::exit(2);
    }

    // Observability: wire the netlist observer into the metrics registry
    // and settle the trace mode before any experiment runs.
    obs::init();
    if let Some(mode) = trace_override {
        obs::set_mode(mode);
    }

    // The output directories are a precondition of the whole run: every
    // experiment that writes files (fig7's PGMs, every CSV, every
    // manifest) lands under `results/`. Creating them up front converts
    // a read-only working directory from a dozen confusing per-experiment
    // failures (historically: a panic backtrace out of fig7) into one
    // clear environment error with its own exit code.
    let out_dir = PathBuf::from("results");
    let manifest_dir = out_dir.join("manifests");
    if let Err(e) = std::fs::create_dir_all(&manifest_dir) {
        eprintln!(
            "cannot create output directory {}: {e}\n\
             (repro writes CSVs, PGM images, and run manifests there; \
             run from a writable directory)",
            manifest_dir.display()
        );
        std::process::exit(3);
    }

    // The checkpoint binds the run parameters that change what experiments
    // compute: resuming across a flag change discards it instead of
    // splicing tables from different sample counts.
    let ckpt_path = out_dir.join("checkpoints").join("repro.ckpt");
    let header = RunHeader { scale: if quick { "quick".into() } else { "full".into() }, all };
    // What opening the checkpoint records (a quarantined tail) goes into
    // every manifest of the run.
    let run_scope = AnnotationScope::new();
    let state = {
        let _scope = run_scope.install();
        if resume {
            RunState::resume(&ckpt_path, &header)
        } else {
            RunState::fresh(&ckpt_path, &header)
        }
    };
    let run_annotations = run_scope.drain();

    // Per-experiment wall-clock safety net; generous enough that only a
    // genuinely wedged experiment trips it.
    let budget = if quick { Duration::from_secs(1200) } else { Duration::from_secs(7200) };

    let wants = |k: &str| what.iter().any(|w| *w == "all" || *w == k);
    // The shared case-study context is only worth building if some case-
    // study experiment actually needs to *compute* (a fully checkpointed
    // one replays without touching it).
    let needs = |k: &str| wants(k) && !state.is_done(k);
    let ctx_needed =
        needs("fig6") || needs("fig7") || needs("table1") || needs("table2") || needs("table3");
    let ctx = ctx_needed.then(|| Arc::new(CaseStudyContext::new(scale)));

    // (name, job) pairs; each job is 'static so it can run on its own
    // guarded worker thread, and receives its checkpoint context there.
    let mut jobs: Vec<(&str, Job)> = Vec::new();
    if wants("sta") {
        jobs.push(("sta", Box::new(move |run| experiments::sta(run, scale))));
    }
    if wants("lint") {
        jobs.push(("lint", Box::new(move |run| experiments::lint(run, all))));
    }
    if wants("equiv") {
        jobs.push(("equiv", Box::new(move |run| experiments::equiv(run, scale, all))));
    }
    if wants("synth") {
        jobs.push(("synth", Box::new(move |run| experiments::synth(run, scale))));
    }
    if wants("dsp") {
        jobs.push(("dsp", Box::new(move |run| experiments::dsp(run, scale))));
    }
    if wants("fig4") {
        jobs.push(("fig4", Box::new(move |run| experiments::fig4(run, scale))));
    }
    if wants("fig5") {
        jobs.push(("fig5", Box::new(move |run| experiments::fig5(run, scale))));
    }
    if wants("fig6") {
        let ctx = ctx.clone();
        jobs.push((
            "fig6",
            Box::new(move |run| match &ctx {
                Some(ctx) => experiments::fig6(run, ctx),
                None => Ok(Vec::new()), // fully checkpointed: replayed below
            }),
        ));
    }
    if wants("fig7") {
        let ctx = ctx.clone();
        let dir = out_dir.clone();
        jobs.push((
            "fig7",
            Box::new(move |run| match &ctx {
                Some(ctx) => experiments::fig7(run, ctx, &dir),
                None => Ok(Vec::new()),
            }),
        ));
    }
    for (name, f) in [
        (
            "table1",
            experiments::table1
                as fn(&ExperimentCtx, &CaseStudyContext) -> Result<Vec<Table>, String>,
        ),
        ("table2", experiments::table2),
        ("table3", experiments::table3),
    ] {
        if wants(name) {
            let ctx = ctx.clone();
            jobs.push((
                name,
                Box::new(move |run| match &ctx {
                    Some(ctx) => f(run, ctx),
                    None => Ok(Vec::new()),
                }),
            ));
        }
    }
    if wants("table4") {
        jobs.push(("table4", Box::new(experiments::table4)));
    }
    if wants("faults") {
        jobs.push(("faults", Box::new(move |run| experiments::faults(run, scale))));
    }

    if jobs.is_empty() {
        print_usage();
        std::process::exit(2);
    }

    let git = obs::git_describe();
    let total = jobs.len();
    let mut failures: Vec<(String, String)> = Vec::new();
    let panic_target = chaos::panic_target(&EXPERIMENTS.map(|(name, _)| name));
    for (name, job) in jobs {
        // Attribute registry deltas and spans to this experiment: snapshot
        // + drain before, diff after; annotations and noted outputs land
        // in its own scope. (Shared case-study context work is attributed
        // to the first experiment that touches it.)
        let before = obs::registry().snapshot();
        let _ = obs::drain_spans();
        let scope = AnnotationScope::new();

        let start = Instant::now();
        let tables = if state.is_done(name) {
            // The experiment's `done` frame landed in a previous run: its
            // tables (and output-file registrations) come straight from
            // the checkpoint, bit-identical — nothing recomputes.
            let _scope = scope.install();
            let unit = state.replay_done(name);
            for (label, path) in unit.noted {
                obs::note_output(label, path);
            }
            obs::annotate("resilience.replayed", format_args!("true"));
            eprintln!("[{name}] replayed from checkpoint");
            unit.tables
        } else {
            let job: Job = if panic_target == Some(name) {
                Box::new(|_| panic!("injected by OLA_CHAOS_PANIC"))
            } else {
                job
            };
            let span = obs::span(format!("experiment.{name}"));
            let outcome =
                run_guarded(budget, ExperimentCtx::new(name, state.clone()), scope.clone(), job);
            drop(span);
            match outcome {
                Outcome::Ok(t) => {
                    eprintln!("[{name}] done in {:.1}s", start.elapsed().as_secs_f64());
                    state.mark_done(name);
                    t
                }
                Outcome::Failed(msg) => {
                    eprintln!("[{name}] FAILED after {:.1}s: {msg}", start.elapsed().as_secs_f64());
                    failures.push((name.to_string(), msg));
                    continue;
                }
                Outcome::TimedOut { budget, cooperative } => {
                    let msg = if cooperative {
                        format!(
                            "exceeded wall-clock budget of {}s (cancelled cooperatively; \
                             completed units are checkpointed — rerun with --resume)",
                            budget.as_secs()
                        )
                    } else {
                        format!(
                            "exceeded wall-clock budget of {}s and ignored cancellation \
                             for {}s (worker abandoned)",
                            budget.as_secs(),
                            CANCEL_GRACE.as_secs()
                        )
                    };
                    eprintln!("[{name}] TIMED OUT: {msg}");
                    failures.push((name.to_string(), msg));
                    continue;
                }
            }
        };

        // Persist this experiment's tables immediately so partial runs
        // still leave their completed CSVs (and manifests) behind.
        let mut emitted: Vec<(String, PathBuf)> = Vec::new();
        for t in &tables {
            println!("{}", t.render());
            match t.write_csv(&out_dir) {
                Ok(p) => {
                    eprintln!("  csv: {}", p.display());
                    emitted.push((p.display().to_string(), p));
                }
                Err(e) => {
                    eprintln!("  csv write failed: {e}");
                    failures.push((format!("csv:{}", t.title), e.to_string()));
                }
            }
        }
        // Files the experiment wrote itself (fig7's PGM images).
        emitted.extend(scope.drain_outputs());

        let mut outputs: Vec<OutputRecord> = Vec::new();
        for (label, path) in &emitted {
            match OutputRecord::capture(label, path) {
                Ok(rec) => outputs.push(rec),
                Err(e) => {
                    eprintln!("  hash of {} failed: {e}", path.display());
                    failures.push((format!("hash:{label}"), e.to_string()));
                }
            }
        }

        let metrics = obs::registry().snapshot().diff(&before);
        let manifest = RunManifest {
            experiment: name.to_string(),
            created_unix_ms: RunManifest::now_unix_ms(),
            git: git.clone(),
            backend: obs::engine_label(&metrics).to_string(),
            // Quick scale runs a tenth of the full Monte-Carlo depth.
            scale: if quick { 0.1 } else { 1.0 },
            seeds: experiments::master_seeds(name),
            ola_threads: ola_core::parallel::thread_config().record(),
            trace: obs::mode().label().to_string(),
            annotations: run_annotations.iter().cloned().chain(scope.drain()).collect(),
            spans: obs::drain_spans(),
            metrics,
            outputs,
        };
        match manifest.write(&manifest_dir) {
            Ok(p) => eprintln!("  manifest: {}", p.display()),
            Err(e) => {
                eprintln!("  manifest write failed: {e}");
                failures.push((format!("manifest:{name}"), e.to_string()));
            }
        }
    }

    if failures.is_empty() {
        eprintln!("all {total} experiment(s) completed");
    } else {
        eprintln!("PARTIAL RESULTS: {} of {total} experiment step(s) failed:", failures.len());
        for (name, msg) in &failures {
            eprintln!("  {name}: {msg}");
        }
        std::process::exit(1);
    }
}
