//! Content-addressed memoization of batch compiles and STA certification.
//!
//! Levelizing a netlist into a [`BatchProgram`] and walking its structural
//! arrivals for a [`CertificationReport`] are both pure functions of
//! `(netlist, delay model)` — yet `repro`, the synthesis explorer, and
//! `ola-serve` each re-derive them for every sweep over the *same* design.
//! This module gives them a process-global memo that holds the results
//! themselves: shared [`BatchProgram`]s and per-digit arrival tables, each
//! kind in its own least-recently-used table of 256 entries.
//! Results are keyed by the SHA-256 of [`Netlist::canonical_bytes`]
//! combined with [`DelayModel::cache_key`], so a hit is sound by
//! construction (equal key ⇒ equal inputs ⇒ equal result). Models whose
//! `cache_key()` is `None` opt out and are always computed fresh. A
//! jittered model keys on its placement (amplitude, seed and inner model),
//! so the memo holds one program per placement.
//!
//! There is no single flight: concurrent misses on one key may each
//! compile, and the last one stored wins. Every result is equal, so which
//! one stays does not matter.
//!
//! # Determinism contract
//!
//! The memo must not make metric snapshots depend on cache temperature or
//! thread interleaving (`obs_determinism` enforces this). Three rules keep
//! it honest:
//!
//! 1. the memo keeps its values in its own tables, not in a
//!    [`ContentCache`](crate::cache::ContentCache), so no `ola.cache.*`
//!    counters move;
//! 2. the only registry counters this module touches
//!    (`ola.memo.program_requests`, `ola.memo.cert_requests`) count *calls*,
//!    which are workload-determined;
//! 3. a program-memo hit *replays* the `ola.batch.compiles` /
//!    `ola.batch.depth` observer effect the skipped compile would have had,
//!    so downstream counters are identical whether the cache was warm or
//!    cold.
//!
//! Hit/miss tallies still exist for benchmarks and tests — in process-local
//! atomics surfaced via [`stats`], outside the metrics registry.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use ola_netlist::batch::BatchProgram;
use ola_netlist::sta::{certify, CertificationReport};
use ola_netlist::{DelayModel, NetId, Netlist};

use crate::cache::{CacheKey, Store};

/// Entries kept per kind: compiled programs, and arrival tables.
const CAPACITY: usize = 256;

struct Memo {
    /// Compiled programs, shared with every caller that asked for them.
    programs: Mutex<Store<Arc<BatchProgram>>>,
    /// Per-digit arrival tables.
    arrivals: Mutex<Store<Vec<u64>>>,
    program_hits: AtomicU64,
    program_misses: AtomicU64,
    program_uncached: AtomicU64,
    cert_hits: AtomicU64,
    cert_misses: AtomicU64,
    cert_uncached: AtomicU64,
}

/// Locks a memo table. A thread that panicked while holding the lock left
/// the table whole (every update is one insert), so poisoning is absorbed.
fn lock<V>(table: &Mutex<Store<V>>) -> MutexGuard<'_, Store<V>> {
    table.lock().unwrap_or_else(PoisonError::into_inner)
}

static MEMO: OnceLock<Memo> = OnceLock::new();

fn memo() -> &'static Memo {
    MEMO.get_or_init(|| Memo::new(CAPACITY))
}

/// Process-lifetime tallies of memo traffic, for benchmarks and tests.
///
/// These live outside the metrics registry: hit/miss splits depend on cache
/// temperature, which the observability determinism contract excludes from
/// snapshots.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Program requests answered from the memo.
    pub program_hits: u64,
    /// Program requests that compiled and populated the memo.
    pub program_misses: u64,
    /// Program requests for models with no [`DelayModel::cache_key`],
    /// compiled fresh and never cached.
    pub program_uncached: u64,
    /// Certification requests answered from the memo.
    pub cert_hits: u64,
    /// Certification requests that analyzed and populated the memo.
    pub cert_misses: u64,
    /// Certification requests for models with no cache key.
    pub cert_uncached: u64,
}

impl MemoStats {
    /// Total program requests seen.
    #[must_use]
    pub fn program_requests(&self) -> u64 {
        self.program_hits + self.program_misses + self.program_uncached
    }

    /// Total certification requests seen.
    #[must_use]
    pub fn cert_requests(&self) -> u64 {
        self.cert_hits + self.cert_misses + self.cert_uncached
    }
}

/// Snapshot of the memo's hit/miss tallies since process start.
#[must_use]
pub fn stats() -> MemoStats {
    memo().stats()
}

fn program_key(netlist: &Netlist, delay_key: &str) -> CacheKey {
    let mut buf = netlist.canonical_bytes();
    buf.extend_from_slice(b"\nprogram/");
    buf.extend_from_slice(delay_key.as_bytes());
    CacheKey::of(&buf)
}

fn cert_key(netlist: &Netlist, delay_key: &str, digits: &[Vec<NetId>]) -> CacheKey {
    let mut buf = netlist.canonical_bytes();
    buf.extend_from_slice(b"\ncert/");
    buf.extend_from_slice(delay_key.as_bytes());
    for group in digits {
        // Group boundaries must be part of the key: [[a],[b]] and [[a,b]]
        // have different per-digit arrivals.
        buf.push(b'/');
        buf.extend_from_slice(&u32::try_from(group.len()).unwrap_or(u32::MAX).to_le_bytes());
        for net in group {
            buf.extend_from_slice(&u32::try_from(net.index()).unwrap_or(u32::MAX).to_le_bytes());
        }
    }
    CacheKey::of(&buf)
}

/// Replays the observer effect of the compile a memo hit skipped, so
/// `ola.batch.compiles` / `ola.batch.depth` do not depend on cache
/// temperature (see the module docs' determinism contract).
fn replay_compile_observation(program: &BatchProgram) {
    let reg = crate::obs::registry();
    reg.counter("ola.batch.compiles").inc();
    let depth = u64::from(program.depth()) + 1;
    reg.gauge("ola.batch.depth").set(i64::try_from(depth).unwrap_or(i64::MAX));
}

/// Compiles `netlist` under `delay`, memoized by content digest.
///
/// Models without a [`DelayModel::cache_key`] compile fresh on every call
/// (memoizing them would be unsound). A memo hit returns a shared program
/// equal — and therefore waveform-identical — to a fresh compile, and
/// replays the compile's observer effect so metric snapshots cannot
/// distinguish warm from cold caches.
#[must_use]
pub fn batch_program<M: DelayModel + ?Sized>(netlist: &Netlist, delay: &M) -> Arc<BatchProgram> {
    memo().batch_program(netlist, delay)
}

/// [`BatchProgram::compile`], whose `Result` has no error path: every
/// netlist the builder can make compiles.
fn compile<M: DelayModel + ?Sized>(netlist: &Netlist, delay: &M) -> Arc<BatchProgram> {
    Arc::new(BatchProgram::compile(netlist, delay).expect("every netlist compiles"))
}

/// Certifies `digits` against `ts_grid`, memoizing the per-digit arrival
/// table (the only netlist-dependent content of a [`CertificationReport`]).
///
/// The `Ts` grid is *not* part of the key: a report is rebuilt from the
/// cached arrivals via [`CertificationReport::from_parts`], so sweeping new
/// grids over an already-analyzed design costs no STA work at all.
#[must_use]
pub fn certification<M: DelayModel + ?Sized>(
    netlist: &Netlist,
    delay: &M,
    digits: &[Vec<NetId>],
    ts_grid: &[u64],
) -> CertificationReport {
    memo().certification(netlist, delay, digits, ts_grid)
}

impl Memo {
    fn new(capacity: usize) -> Memo {
        Memo {
            programs: Mutex::new(Store::new(capacity)),
            arrivals: Mutex::new(Store::new(capacity)),
            program_hits: AtomicU64::new(0),
            program_misses: AtomicU64::new(0),
            program_uncached: AtomicU64::new(0),
            cert_hits: AtomicU64::new(0),
            cert_misses: AtomicU64::new(0),
            cert_uncached: AtomicU64::new(0),
        }
    }

    fn stats(&self) -> MemoStats {
        MemoStats {
            program_hits: self.program_hits.load(Ordering::Relaxed),
            program_misses: self.program_misses.load(Ordering::Relaxed),
            program_uncached: self.program_uncached.load(Ordering::Relaxed),
            cert_hits: self.cert_hits.load(Ordering::Relaxed),
            cert_misses: self.cert_misses.load(Ordering::Relaxed),
            cert_uncached: self.cert_uncached.load(Ordering::Relaxed),
        }
    }

    fn batch_program<M: DelayModel + ?Sized>(
        &self,
        netlist: &Netlist,
        delay: &M,
    ) -> Arc<BatchProgram> {
        crate::obs::registry().counter("ola.memo.program_requests").inc();
        let Some(delay_key) = delay.cache_key() else {
            self.program_uncached.fetch_add(1, Ordering::Relaxed);
            return compile(netlist, delay);
        };
        let key = program_key(netlist, &delay_key);
        let hit = lock(&self.programs).get(key.hex()).map(Arc::clone);
        if let Some(program) = hit {
            self.program_hits.fetch_add(1, Ordering::Relaxed);
            replay_compile_observation(&program);
            return program;
        }
        let program = compile(netlist, delay);
        self.program_misses.fetch_add(1, Ordering::Relaxed);
        lock(&self.programs).insert(key.hex().to_owned(), Arc::clone(&program));
        program
    }

    fn certification<M: DelayModel + ?Sized>(
        &self,
        netlist: &Netlist,
        delay: &M,
        digits: &[Vec<NetId>],
        ts_grid: &[u64],
    ) -> CertificationReport {
        crate::obs::registry().counter("ola.memo.cert_requests").inc();
        let Some(delay_key) = delay.cache_key() else {
            self.cert_uncached.fetch_add(1, Ordering::Relaxed);
            return certify(netlist, delay, digits, ts_grid);
        };
        let key = cert_key(netlist, &delay_key, digits);
        let hit = lock(&self.arrivals).get(key.hex()).cloned();
        if let Some(arrivals) = hit {
            self.cert_hits.fetch_add(1, Ordering::Relaxed);
            return CertificationReport::from_parts(ts_grid.to_vec(), arrivals);
        }
        let report = certify(netlist, delay, digits, ts_grid);
        self.cert_misses.fetch_add(1, Ordering::Relaxed);
        lock(&self.arrivals).insert(key.hex().to_owned(), report.arrivals().to_vec());
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ola_netlist::batch::BatchInputs;
    use ola_netlist::{FpgaDelay, JitteredDelay, UnitDelay};

    fn sample_netlist(tag: u32) -> (Netlist, Vec<NetId>) {
        let mut nl = Netlist::new();
        let a = nl.input("a");
        let b = nl.input("b");
        let x = nl.xor(a, b);
        let y = nl.and(a, b);
        // `tag` perturbs structure so tests get distinct digests.
        let mut z = x;
        for _ in 0..tag {
            z = nl.not(z);
        }
        nl.set_output("s", vec![z, y]);
        (nl, vec![z, y])
    }

    #[test]
    fn memo_hit_equals_a_fresh_compile() {
        let (nl, _outs) = sample_netlist(11);
        let fresh = BatchProgram::compile(&nl, &UnitDelay).unwrap();
        let first = batch_program(&nl, &UnitDelay);
        let second = batch_program(&nl, &UnitDelay);
        assert_eq!(*first, fresh);
        assert_eq!(*second, fresh);

        // And waveform-identical on a real run.
        let prev = BatchInputs::pack(&[vec![false, false], vec![true, false]]).unwrap();
        let new = BatchInputs::pack(&[vec![true, true], vec![false, true]]).unwrap();
        let a = fresh.run(&prev, &new).unwrap();
        let b = second.run(&prev, &new).unwrap();
        for i in 0..nl.len() {
            assert_eq!(a.wave(nl.net(i)), b.wave(nl.net(i)));
        }
    }

    #[test]
    fn distinct_netlists_and_models_get_distinct_entries() {
        let (nl1, _o1) = sample_netlist(12);
        let (nl2, _o2) = sample_netlist(13);
        assert_ne!(nl1.canonical_bytes(), nl2.canonical_bytes());
        let unit = batch_program(&nl1, &UnitDelay);
        let fpga = batch_program(&nl1, &FpgaDelay::default());
        assert_ne!(unit, fpga, "delay key must split the memo");
    }

    #[test]
    fn jittered_models_memoize_one_program_per_placement() {
        let (nl, _outs) = sample_netlist(14);
        let placement = JitteredDelay::new(UnitDelay, 5, 7);
        let before = stats();
        let first = batch_program(&nl, &placement);
        // The same placement is a memo hit: the very same shared program.
        let again = batch_program(&nl, &JitteredDelay::new(UnitDelay, 5, 7));
        let after = stats();
        assert!(Arc::ptr_eq(&first, &again), "same placement must hit the memo");
        assert!(after.program_hits > before.program_hits);
        assert_eq!(*first, BatchProgram::compile(&nl, &placement).unwrap());
        // Another seed or amplitude is another placement: another program.
        let reseeded = batch_program(&nl, &JitteredDelay::new(UnitDelay, 5, 8));
        let wider = batch_program(&nl, &JitteredDelay::new(UnitDelay, 40, 7));
        assert_ne!(reseeded, first);
        assert_ne!(wider, first);
    }

    #[test]
    fn certification_memoizes_arrivals_across_grids() {
        let (nl, outs) = sample_netlist(15);
        let digits: Vec<Vec<NetId>> = outs.iter().map(|&n| vec![n]).collect();
        let grid1 = [0, 100, 300, 1000, 2000];
        let grid2 = [50, 150, 250];
        let before = stats();
        let rep1 = certification(&nl, &UnitDelay, &digits, &grid1);
        let rep2 = certification(&nl, &UnitDelay, &digits, &grid2);
        let after = stats();
        assert_eq!(after.cert_misses, before.cert_misses + 1);
        assert_eq!(after.cert_hits, before.cert_hits + 1, "new grid, same arrival table");
        let fresh = certify(&nl, &UnitDelay, &digits, &grid2);
        assert_eq!(rep2.arrivals(), fresh.arrivals());
        assert_eq!(rep1.arrivals(), fresh.arrivals());
        assert_eq!(rep2.ts_grid(), &grid2);
        for ts_index in 0..grid2.len() {
            assert_eq!(rep2.certified_count(ts_index), fresh.certified_count(ts_index));
        }
    }

    #[test]
    fn digit_grouping_is_part_of_the_cert_key() {
        let (nl, nets) = sample_netlist(16);
        let split: Vec<Vec<NetId>> = nets.iter().map(|&n| vec![n]).collect();
        let merged = vec![nets.clone()];
        let grid = [100];
        let a = certification(&nl, &UnitDelay, &split, &grid);
        let b = certification(&nl, &UnitDelay, &merged, &grid);
        assert_eq!(a.digits(), 2);
        assert_eq!(b.digits(), 1);
        assert_eq!(b.digit_arrival(0), a.arrivals().iter().copied().max().unwrap());
    }

    #[test]
    fn tables_evict_the_least_recently_used_entry_past_capacity() {
        // A memo of its own, so no other test in this process can evict
        // its entries or move its stats.
        let memo = Memo::new(3);
        let netlists: Vec<Netlist> = (20..24).map(|tag| sample_netlist(tag).0).collect();
        let filled: Vec<Arc<BatchProgram>> =
            netlists.iter().map(|nl| memo.batch_program(nl, &UnitDelay)).collect();
        assert_eq!(lock(&memo.programs).len(), 3, "the table holds its capacity");
        assert_eq!(memo.stats().program_misses, 4);

        // The most recent program is still held: a hit on the same Arc.
        let recent = memo.batch_program(&netlists[3], &UnitDelay);
        assert!(Arc::ptr_eq(&filled[3], &recent));
        let stats = memo.stats();
        assert_eq!((stats.program_hits, stats.program_misses), (1, 4));

        // The least recently used program was evicted: asking again
        // recompiles it, to a program equal to a fresh compile.
        let again = memo.batch_program(&netlists[0], &UnitDelay);
        assert!(!Arc::ptr_eq(&filled[0], &again), "an evicted program is compiled anew");
        assert_eq!(*again, BatchProgram::compile(&netlists[0], &UnitDelay).unwrap());
        let stats = memo.stats();
        assert_eq!((stats.program_hits, stats.program_misses), (1, 5));
        assert_eq!(stats.program_requests(), 6);
    }
}
