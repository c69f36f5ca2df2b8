//! Deterministic parallel Monte-Carlo accumulation.
//!
//! Every Monte-Carlo experiment in this crate samples through one loop,
//! [`parallel_accumulate_batched`]: samples are split into fixed-size
//! chunks, each chunk seeded purely by `(seed, chunk_index)`, drawn in
//! sample order, stepped in groups and folded in chunk order — so results
//! are bit-identical regardless of how many worker threads run or how
//! large the groups are.
//!
//! Worker panics are caught per work item and re-raised on the caller
//! thread with the chunk (or item) index and the original panic message
//! attached, so a poisoned experiment points at the exact unit of work
//! that failed instead of aborting with a bare join error. Mutex poisoning
//! while draining results is tolerated: the poisoned chunk is the one that
//! panicked and its slot is simply absent.
//!
//! ## Cancellation
//!
//! The caller's ambient [`CancelToken`] (see
//! [`crate::resilience::install_ambient`]) is captured before workers
//! spawn and re-installed inside each worker thread, so per-sample
//! [`crate::resilience::check_cancelled`] probes fire on worker threads
//! too. Workers stop pulling jobs once the token trips; a typed
//! [`Cancelled`] unwind is re-raised on the caller thread as-is (not
//! stringified into a worker-panic message), so it surfaces to
//! `run_guarded` as cancellation rather than a crash.
//!
//! ## Worker budget
//!
//! Each thread has a budget of worker threads ([`worker_budget`]). A
//! thread that no pool started has the resolved `OLA_THREADS`
//! ([`thread_config`]). A pool for `jobs` jobs runs `min(budget, jobs)`
//! threads and gives each of them `max(1, budget / threads)`
//! ([`budget_share`]), so nested parallelism never oversubscribes: a pool
//! of one job runs inline and leaves the whole budget to its job, which
//! spends it inside one batch pass (`BatchProgram::run_bus` on
//! [`pass_workers`]), while passes nested under a pool as wide as the
//! budget get one worker each. A long-lived pool that starts its own
//! threads (ola-serve's request workers) gives each its share with
//! [`set_worker_budget`]. Budgets change only how many threads run, never
//! a result or a counter.

use crate::resilience::{ambient_token, install_ambient, is_cancel_payload};
use ola_netlist::batch::LaneWord;
use ola_netlist::{CancelToken, Cancelled};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

const CHUNK: usize = 256;

/// Serializes tests that mutate the process environment (`OLA_THREADS`):
/// env vars are process-global, so readers racing a mutating test would be
/// flaky without this.
#[cfg(test)]
pub(crate) static ENV_LOCK: Mutex<()> = Mutex::new(());

/// Extracts a human-readable message from a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

thread_local! {
    /// This thread's worker budget when a pool started it (see the module
    /// docs); `None` on every other thread.
    static BUDGET: Cell<Option<usize>> = const { Cell::new(None) };
}

/// The number of worker threads the calling thread may use: its share of
/// the budget of the pool that started it, or the resolved `OLA_THREADS`
/// ([`thread_config`]) on any other thread. Always at least 1.
#[must_use]
pub fn worker_budget() -> usize {
    BUDGET.with(Cell::get).unwrap_or_else(|| thread_config().resolved)
}

/// Each thread's budget when `threads` threads split the calling thread's
/// [`worker_budget`]: `max(1, budget / threads)`.
#[must_use]
pub fn budget_share(threads: usize) -> usize {
    (worker_budget() / threads.max(1)).max(1)
}

/// Sets the calling thread's [`worker_budget`] to `budget` (at least 1),
/// as a pool does for each thread it starts.
pub fn set_worker_budget(budget: usize) {
    BUDGET.with(|b| b.set(Some(budget.max(1))));
}

/// How many workers one batch pass on lane word `B` runs on: the calling
/// thread's [`worker_budget`] on a word wider than 64 lanes, and one on a
/// 64-lane word, whose pass is too short to pay for helper threads.
#[must_use]
pub fn pass_workers<B: LaneWord>() -> usize {
    if B::LANES > u64::LANES {
        worker_budget()
    } else {
        1
    }
}

/// Runs `work(index)` for every index in `0..jobs` across up to
/// [`worker_budget`] worker threads (work-stealing via an atomic cursor),
/// each with an even share of the budget. Panics inside `work` are
/// collected and re-raised on the caller thread with the index of the
/// failing job and its panic message.
fn run_jobs<W>(jobs: usize, work: W)
where
    W: Fn(usize) + Sync,
{
    let threads = worker_budget().min(jobs.max(1));
    let share = budget_share(threads);
    // Job counts depend only on the workload (chunk math), never on the
    // worker-thread count, so this counter is snapshot-deterministic.
    crate::obs::registry().counter("ola.parallel.jobs").add(jobs as u64);
    let next = AtomicUsize::new(0);
    let failures: Mutex<Vec<(usize, String)>> = Mutex::new(Vec::new());
    let cancelled = AtomicBool::new(false);
    // Capture the caller's ambient token so worker threads (which have
    // their own empty thread-local stack) see the same cancellation scope.
    let ambient: Option<CancelToken> = ambient_token();
    // Same for the caller's annotation scope: annotations recorded inside
    // worker threads must land in the caller's per-request sink.
    let scope = crate::obs::current_scope();

    let worker = || {
        let _guard = ambient.clone().map(install_ambient);
        let _scope_guard = scope.as_ref().map(crate::obs::AnnotationScope::install);
        loop {
            if ambient.as_ref().is_some_and(CancelToken::is_cancelled) {
                cancelled.store(true, Ordering::Relaxed);
                break;
            }
            let j = next.fetch_add(1, Ordering::Relaxed);
            if j >= jobs {
                break;
            }
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| work(j))) {
                if is_cancel_payload(payload.as_ref()) {
                    cancelled.store(true, Ordering::Relaxed);
                    break;
                }
                let mut log = failures.lock().unwrap_or_else(PoisonError::into_inner);
                log.push((j, panic_message(payload.as_ref())));
            }
        }
    };

    if threads <= 1 {
        worker();
    } else {
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| {
                    set_worker_budget(share);
                    worker();
                });
            }
        });
    }

    let mut failures = failures.into_inner().unwrap_or_else(PoisonError::into_inner);
    if !failures.is_empty() {
        failures.sort_by_key(|(j, _)| *j);
        let (j, msg) = &failures[0];
        panic!(
            "parallel worker panicked in chunk {j} of {jobs} ({} failing chunk(s) total): {msg}",
            failures.len()
        );
    }
    if cancelled.load(Ordering::Relaxed) {
        // Re-raise the typed payload so callers (`run_guarded`) can tell
        // cancellation from a genuine worker crash.
        std::panic::panic_any(Cancelled);
    }
}

/// How the `OLA_THREADS` environment variable resolved to a worker count.
///
/// Produced by [`thread_config`]; the `repro` binary records it verbatim
/// in each run manifest's `ola_threads` field. The thread count is kept
/// *out* of the metrics registry on purpose — metric snapshots must be
/// bit-identical across thread counts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ThreadConfig {
    /// The raw environment value, if `OLA_THREADS` was set.
    pub raw: Option<String>,
    /// The worker count actually used (always ≥ 1).
    pub resolved: usize,
    /// True when `raw` was present but unusable (`0`, garbage, overflow)
    /// and the hardware default was substituted.
    pub fallback: bool,
}

impl ThreadConfig {
    /// This configuration as a manifest [`ThreadsRecord`].
    ///
    /// [`ThreadsRecord`]: crate::obs::ThreadsRecord
    #[must_use]
    pub fn record(&self) -> crate::obs::ThreadsRecord {
        crate::obs::ThreadsRecord {
            raw: self.raw.clone(),
            resolved: self.resolved as u64,
            fallback: self.fallback,
        }
    }
}

/// Resolves `OLA_THREADS` into a worker count.
///
/// * unset → the machine's available parallelism;
/// * a positive integer → that count;
/// * `0`, garbage, or an unparseable value → the hardware default, with a
///   single warning on stderr (the first time only) and
///   [`fallback`](ThreadConfig::fallback) set so run manifests record that
///   the request was ignored.
#[must_use]
pub fn thread_config() -> ThreadConfig {
    let hw = || std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let raw = std::env::var("OLA_THREADS").ok();
    match raw.as_deref().map(str::trim) {
        None => ThreadConfig { raw, resolved: hw(), fallback: false },
        Some(t) => match t.parse::<usize>() {
            Ok(n) if n > 0 => ThreadConfig { raw, resolved: n, fallback: false },
            _ => {
                let resolved = hw();
                crate::resilience::warn_once(
                    "OLA_THREADS",
                    t.as_ref(),
                    &format!("a positive integer; using the hardware default ({resolved})"),
                );
                ThreadConfig { raw, resolved, fallback: true }
            }
        },
    }
}

/// Runs `samples` independent draws and folds them into one accumulator.
///
/// Samples are split into chunks of 256, each with an rng seeded
/// by `(seed, chunk_index)`. A chunk calls `draw` once per sample, in
/// sample order, then hands the payloads to `step` in groups of up to
/// `batch` (the shape batch simulation wants, where one engine pass serves
/// a whole group), folding into a state created by `init`. The chunk
/// states fold in chunk order with `merge`. The random stream therefore
/// depends on neither the worker count nor `batch`.
///
/// # Panics
///
/// If `draw` or `step` panics, the panic is re-raised on the calling
/// thread annotated with the chunk index that failed.
pub fn parallel_accumulate_batched<A, T, I, G, F, M>(
    samples: usize,
    seed: u64,
    batch: usize,
    init: I,
    draw: G,
    step: F,
    merge: M,
) -> A
where
    A: Send,
    I: Fn() -> A + Sync,
    G: Fn(&mut ChaCha8Rng) -> T + Sync,
    F: Fn(&[T], &mut A) + Sync,
    M: Fn(A, &A) -> A,
{
    let batch = batch.max(1);
    let chunks = samples.div_ceil(CHUNK).max(1);
    let results: Vec<Mutex<Option<A>>> = (0..chunks).map(|_| Mutex::new(None)).collect();

    run_jobs(chunks, |c| {
        let count = if c == chunks - 1 { samples - c * CHUNK } else { CHUNK };
        let mut rng =
            ChaCha8Rng::seed_from_u64(seed ^ (c as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let items: Vec<T> = (0..count).map(|_| draw(&mut rng)).collect();
        let mut acc = init();
        for group in items.chunks(batch) {
            step(group, &mut acc);
        }
        *results[c].lock().unwrap_or_else(PoisonError::into_inner) = Some(acc);
    });

    let mut iter = results.into_iter().map(|m| {
        m.into_inner().unwrap_or_else(PoisonError::into_inner).expect("every chunk was processed")
    });
    let first = iter.next().expect("at least one chunk");
    iter.fold(first, |acc, state| merge(acc, &state))
}

/// Maps `f` over `items` in parallel, returning the results in the same
/// order as the input. Each call receives the item index, so callers can
/// derive deterministic per-item seeds; results are independent of the
/// worker-thread count.
///
/// # Panics
///
/// If `f` panics for some item, the panic is re-raised on the calling
/// thread annotated with the item index that failed.
pub fn parallel_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    if items.is_empty() {
        return Vec::new();
    }
    let results: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    run_jobs(items.len(), |i| {
        let value = f(i, &items[i]);
        *results[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(value);
    });
    results
        .into_iter()
        .map(|m| {
            m.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .expect("every item was processed")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    /// Sums `value(rng)` over `samples` draws, stepped one sample at a time.
    fn sum_draws(samples: usize, seed: u64, value: impl Fn(&mut ChaCha8Rng) -> u64 + Sync) -> u64 {
        parallel_accumulate_batched(
            samples,
            seed,
            1,
            || 0u64,
            value,
            |group, acc| *acc += group.iter().sum::<u64>(),
            |a, b| a + b,
        )
    }

    #[test]
    fn deterministic_regardless_of_chunking() {
        // Sum of fixed-seed uniform draws must be stable across runs.
        let run = || sum_draws(1000, 42, |rng| u64::from(rng.gen_range(0..100u32)));
        assert_eq!(run(), run());
    }

    #[test]
    fn processes_exactly_the_requested_samples() {
        for samples in [777, 3, 256] {
            assert_eq!(sum_draws(samples, 1, |_| 1), samples as u64);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let run = |seed| sum_draws(500, seed, |rng| u64::from(rng.gen_range(0..1000u32)));
        assert_ne!(run(1), run(2));
    }

    #[test]
    fn stream_does_not_depend_on_batch_size() {
        // A draw-only workload sees the same sample sequence whatever the
        // group size, and no group is larger than asked for.
        let stream = |batch: usize| {
            parallel_accumulate_batched(
                777,
                42,
                batch,
                Vec::new,
                |rng| rng.gen_range(0..1_000_000u32),
                |group, acc: &mut Vec<u32>| {
                    assert!(group.len() <= batch.max(1));
                    acc.extend_from_slice(group);
                },
                |mut a, b| {
                    a.extend_from_slice(b);
                    a
                },
            )
        };
        let single = stream(1);
        assert_eq!(single.len(), 777);
        for batch in [0usize, 7, 64, 300] {
            assert_eq!(stream(batch), single, "batch = {batch}");
        }
    }

    #[test]
    fn map_preserves_order() {
        let items: Vec<u32> = (0..1000).collect();
        let doubled = parallel_map(&items, |i, x| (i, x * 2));
        for (i, (j, y)) in doubled.into_iter().enumerate() {
            assert_eq!(i, j);
            assert_eq!(y, items[i] * 2);
        }
        assert!(parallel_map::<u32, u32, _>(&[], |_, x| *x).is_empty());
    }

    /// Regression (observability PR): `OLA_THREADS=0` or garbage used to be
    /// silently ignored with no record of the fallback; now the resolution
    /// is explicit and reportable. Env mutation is process-global, so this
    /// single test covers every case sequentially.
    #[test]
    fn thread_config_resolves_and_flags_fallback() {
        let _env = ENV_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        let original = std::env::var("OLA_THREADS").ok();

        std::env::set_var("OLA_THREADS", "3");
        let cfg = thread_config();
        assert_eq!(cfg, ThreadConfig { raw: Some("3".into()), resolved: 3, fallback: false });
        let rec = cfg.record();
        assert_eq!(rec.resolved, 3);
        assert!(!rec.fallback);

        for bad in ["0", "lots", "-2", "", " 4x "] {
            std::env::set_var("OLA_THREADS", bad);
            let cfg = thread_config();
            assert_eq!(cfg.raw.as_deref(), Some(bad));
            assert!(cfg.fallback, "OLA_THREADS={bad:?} must fall back");
            assert!(cfg.resolved >= 1, "fallback still yields a usable count");
        }

        // Whitespace around a valid number is tolerated.
        std::env::set_var("OLA_THREADS", " 2 ");
        let cfg = thread_config();
        assert_eq!(cfg.resolved, 2);
        assert!(!cfg.fallback);

        std::env::remove_var("OLA_THREADS");
        let cfg = thread_config();
        assert_eq!(cfg.raw, None);
        assert!(!cfg.fallback);
        assert!(cfg.resolved >= 1);

        match original {
            Some(v) => std::env::set_var("OLA_THREADS", v),
            None => std::env::remove_var("OLA_THREADS"),
        }
    }

    /// A pool splits its caller's budget evenly among its threads, leaves
    /// all of it to a lone job, and gives each thread at least one; a
    /// 256-lane pass gets the budget and a 64-lane pass one worker.
    #[test]
    fn pools_split_the_worker_budget() {
        let _env = ENV_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        let original = std::env::var("OLA_THREADS").ok();
        std::env::set_var("OLA_THREADS", "4");
        assert_eq!(worker_budget(), 4);
        let budgets = |jobs: usize| parallel_map(&vec![(); jobs], |_, ()| worker_budget());
        assert_eq!(budgets(1), [4]);
        assert_eq!(budgets(2), [2, 2]);
        assert_eq!(budgets(3), [1, 1, 1]);
        assert_eq!(budgets(9), [1; 9]);
        // Nested: a lone job's pool of two gets two each.
        let nested = parallel_map(&[()], |_, ()| parallel_map(&[(), ()], |_, ()| worker_budget()));
        assert_eq!(nested, [[2, 2]]);
        assert_eq!((budget_share(3), budget_share(8)), (1, 1));
        assert_eq!(pass_workers::<u64>(), 1);
        assert_eq!(pass_workers::<crate::backend::BatchLanes>(), 4);
        // A thread given a share by hand, as a long-lived pool's are.
        let own = std::thread::spawn(|| {
            set_worker_budget(budget_share(2));
            (worker_budget(), pass_workers::<crate::backend::BatchLanes>(), budget_share(0))
        });
        assert_eq!(own.join().unwrap(), (2, 2, 2));
        match original {
            Some(v) => std::env::set_var("OLA_THREADS", v),
            None => std::env::remove_var("OLA_THREADS"),
        }
    }

    #[test]
    fn cancellation_stops_workers_and_reraises_the_typed_payload() {
        let token = CancelToken::new();
        let processed = AtomicUsize::new(0);
        let _guard = install_ambient(token.clone());
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            sum_draws(10_000, 7, |_| {
                if processed.fetch_add(1, Ordering::Relaxed) == 300 {
                    token.cancel();
                }
                crate::resilience::check_cancelled();
                1
            })
        }));
        let payload = result.expect_err("cancellation must unwind");
        assert!(is_cancel_payload(payload.as_ref()), "payload must stay typed, not a string");
        // Far fewer samples than requested ran: workers stopped pulling jobs.
        assert!(processed.load(Ordering::Relaxed) < 10_000);
    }

    #[test]
    fn ambient_token_reaches_worker_threads() {
        // Workers have fresh thread-local stacks; run_jobs must re-install
        // the caller's ambient token inside each one.
        let token = CancelToken::new();
        let _guard = install_ambient(token.clone());
        let seen = parallel_map(&[0u8; 64], |_, _| ambient_token().is_some());
        assert!(seen.into_iter().all(|s| s), "every worker saw the ambient token");
    }

    #[test]
    fn worker_panic_is_annotated_with_chunk_index() {
        let result = std::panic::catch_unwind(|| {
            parallel_accumulate_batched(
                600,
                7,
                1,
                || 0usize,
                |_| (),
                |group, acc| {
                    *acc += group.len();
                    // Poison a chunk deterministically: the second chunk
                    // panics mid-way through its samples.
                    assert!(*acc < 100, "synthetic fault in step");
                },
                |a, b| a + b,
            )
        });
        let payload = result.expect_err("panic must propagate");
        let msg = panic_message(payload.as_ref());
        assert!(msg.contains("parallel worker panicked in chunk"), "got: {msg}");
        assert!(msg.contains("synthetic fault in step"), "got: {msg}");
    }
}
