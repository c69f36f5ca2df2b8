//! Content-addressed memoization of batch compiles and STA certification.
//!
//! Levelizing a netlist into a [`BatchProgram`] and walking its structural
//! arrivals for a [`CertificationReport`] are both pure functions of
//! `(netlist, delay model)` — yet `repro`, the synthesis explorer, and
//! `ola-serve` each re-derive them for every sweep over the *same* design.
//! This module gives them a process-global memo backed by
//! [`ContentCache`]: results are keyed by the SHA-256 of
//! [`Netlist::canonical_bytes`] combined with [`DelayModel::cache_key`],
//! so a hit is sound by construction (equal key ⇒ equal inputs ⇒ equal
//! result). Models whose `cache_key()` is `None` opt out and are always
//! computed fresh. A jittered model keys on its placement (amplitude, seed
//! and inner model), so the memo holds one program per placement.
//!
//! # Determinism contract
//!
//! The memo must not make metric snapshots depend on cache temperature or
//! thread interleaving (`obs_determinism` enforces this). Three rules keep
//! it honest:
//!
//! 1. the backing [`ContentCache`] runs with [`CacheConfig::quiet`], so no
//!    `ola.cache.*` counters move;
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

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use ola_netlist::batch::BatchProgram;
use ola_netlist::sta::{certify, CertificationReport};
use ola_netlist::{BatchError, DelayModel, NetId, Netlist, StaError};

use crate::cache::{CacheConfig, CacheKey, ContentCache};

/// Entries kept in the in-memory bytes tier of the backing cache.
const BYTES_CAPACITY: usize = 256;

/// Decoded [`BatchProgram`]s kept in the typed front map before it is
/// cleared. Programs are shared via [`Arc`], so clearing only drops the
/// map's own references; callers keep theirs.
const FRONT_CAPACITY: usize = 256;

struct Memo {
    /// Serialized results (program bytes, arrival tables), content-keyed.
    bytes: ContentCache,
    /// Decoded programs, so repeat hits skip [`BatchProgram::from_bytes`].
    programs: Mutex<HashMap<String, Arc<BatchProgram>>>,
    program_hits: AtomicU64,
    program_misses: AtomicU64,
    program_uncached: AtomicU64,
    cert_hits: AtomicU64,
    cert_misses: AtomicU64,
    cert_uncached: AtomicU64,
}

static MEMO: OnceLock<Memo> = OnceLock::new();

fn memo() -> &'static Memo {
    MEMO.get_or_init(|| Memo {
        bytes: ContentCache::new(CacheConfig {
            capacity: BYTES_CAPACITY,
            quiet: true,
            ..CacheConfig::default()
        }),
        programs: Mutex::new(HashMap::new()),
        program_hits: AtomicU64::new(0),
        program_misses: AtomicU64::new(0),
        program_uncached: AtomicU64::new(0),
        cert_hits: AtomicU64::new(0),
        cert_misses: AtomicU64::new(0),
        cert_uncached: AtomicU64::new(0),
    })
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
    let m = memo();
    MemoStats {
        program_hits: m.program_hits.load(Ordering::Relaxed),
        program_misses: m.program_misses.load(Ordering::Relaxed),
        program_uncached: m.program_uncached.load(Ordering::Relaxed),
        cert_hits: m.cert_hits.load(Ordering::Relaxed),
        cert_misses: m.cert_misses.load(Ordering::Relaxed),
        cert_uncached: m.cert_uncached.load(Ordering::Relaxed),
    }
}

/// Content digest of a netlist — SHA-256 over [`Netlist::canonical_bytes`].
///
/// Two netlists share a digest iff they have identical structure (gates,
/// wiring, constants, output buses), which is exactly the compile- and
/// certification-relevant content.
#[must_use]
pub fn netlist_digest(netlist: &Netlist) -> CacheKey {
    CacheKey::of(&netlist.canonical_bytes())
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
/// that is byte-identical — and therefore waveform-identical — to a fresh
/// compile, and replays the compile's observer effect so metric snapshots
/// cannot distinguish warm from cold caches.
///
/// # Errors
///
/// Propagates [`BatchProgram::compile`] errors (e.g.
/// [`BatchError::TopologyBroken`]); failed compiles are never cached.
pub fn batch_program<M: DelayModel + ?Sized>(
    netlist: &Netlist,
    delay: &M,
) -> Result<Arc<BatchProgram>, BatchError> {
    crate::obs::registry().counter("ola.memo.program_requests").inc();
    let m = memo();
    let Some(delay_key) = delay.cache_key() else {
        m.program_uncached.fetch_add(1, Ordering::Relaxed);
        return Ok(Arc::new(BatchProgram::compile(netlist, delay)?));
    };
    let key = program_key(netlist, &delay_key);

    if let Some(program) = m.programs.lock().expect("memo front map poisoned").get(key.hex()) {
        m.program_hits.fetch_add(1, Ordering::Relaxed);
        replay_compile_observation(program);
        return Ok(Arc::clone(program));
    }

    // The fill closure stashes the compiled program so the thread that
    // populates the cache does not round-trip through serialization.
    let mut compiled: Option<Arc<BatchProgram>> = None;
    let (bytes, _lookup) = m.bytes.get_or_compute(&key, || {
        let program = BatchProgram::compile(netlist, delay)?;
        let encoded = program.to_bytes();
        compiled = Some(Arc::new(program));
        Ok::<_, BatchError>(encoded)
    })?;

    let program = match compiled {
        Some(program) => {
            m.program_misses.fetch_add(1, Ordering::Relaxed);
            program
        }
        None => {
            m.program_hits.fetch_add(1, Ordering::Relaxed);
            match BatchProgram::from_bytes(&bytes) {
                Ok(program) => {
                    replay_compile_observation(&program);
                    Arc::new(program)
                }
                // Integrity hashing makes this unreachable short of a
                // format-version skew; recompiling is always correct.
                Err(_) => Arc::new(BatchProgram::compile(netlist, delay)?),
            }
        }
    };

    let mut front = m.programs.lock().expect("memo front map poisoned");
    if front.len() >= FRONT_CAPACITY {
        front.clear();
    }
    front.insert(key.hex().to_owned(), Arc::clone(&program));
    Ok(program)
}

/// Certifies `digits` against `ts_grid`, memoizing the per-digit arrival
/// table (the only netlist-dependent content of a [`CertificationReport`]).
///
/// The `Ts` grid is *not* part of the key: a report is rebuilt from the
/// cached arrivals via [`CertificationReport::from_parts`], so sweeping new
/// grids over an already-analyzed design costs no STA work at all.
///
/// # Errors
///
/// Propagates [`certify()`] errors (e.g. [`StaError::NotTopological`]);
/// failures are never cached.
pub fn certification<M: DelayModel + ?Sized>(
    netlist: &Netlist,
    delay: &M,
    digits: &[Vec<NetId>],
    ts_grid: &[u64],
) -> Result<CertificationReport, StaError> {
    crate::obs::registry().counter("ola.memo.cert_requests").inc();
    let m = memo();
    let Some(delay_key) = delay.cache_key() else {
        m.cert_uncached.fetch_add(1, Ordering::Relaxed);
        return certify(netlist, delay, digits, ts_grid);
    };
    let key = cert_key(netlist, &delay_key, digits);

    let mut analyzed: Option<Vec<u64>> = None;
    let (bytes, _lookup) = m.bytes.get_or_compute(&key, || {
        let report = certify(netlist, delay, digits, ts_grid)?;
        let arrivals = report.arrivals().to_vec();
        let mut encoded = Vec::with_capacity(arrivals.len() * 8);
        for &a in &arrivals {
            encoded.extend_from_slice(&a.to_le_bytes());
        }
        analyzed = Some(arrivals);
        Ok::<_, StaError>(encoded)
    })?;

    let arrivals = match analyzed {
        Some(arrivals) => {
            m.cert_misses.fetch_add(1, Ordering::Relaxed);
            arrivals
        }
        None => {
            if bytes.len() != digits.len() * 8 {
                // Unreachable short of a format-version skew; re-analyze.
                return certify(netlist, delay, digits, ts_grid);
            }
            m.cert_hits.fetch_add(1, Ordering::Relaxed);
            bytes.chunks_exact(8).map(|c| u64::from_le_bytes(c.try_into().expect("8"))).collect()
        }
    };
    Ok(CertificationReport::from_parts(ts_grid.to_vec(), arrivals))
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
    fn memo_hit_is_byte_identical_to_fresh_compile() {
        let (nl, _outs) = sample_netlist(11);
        let fresh = BatchProgram::compile(&nl, &UnitDelay).unwrap();
        let first = batch_program(&nl, &UnitDelay).unwrap();
        let second = batch_program(&nl, &UnitDelay).unwrap();
        assert_eq!(first.to_bytes(), fresh.to_bytes());
        assert_eq!(second.to_bytes(), fresh.to_bytes());

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
        assert_ne!(netlist_digest(&nl1).hex(), netlist_digest(&nl2).hex());
        let unit = batch_program(&nl1, &UnitDelay).unwrap();
        let fpga = batch_program(&nl1, &FpgaDelay::default()).unwrap();
        assert_ne!(unit.to_bytes(), fpga.to_bytes(), "delay key must split the memo");
    }

    #[test]
    fn jittered_models_memoize_one_program_per_placement() {
        let (nl, _outs) = sample_netlist(14);
        let placement = JitteredDelay::new(UnitDelay, 5, 7);
        let before = stats();
        let first = batch_program(&nl, &placement).unwrap();
        // The same placement is a memo hit: the very same shared program.
        let again = batch_program(&nl, &JitteredDelay::new(UnitDelay, 5, 7)).unwrap();
        let after = stats();
        assert!(Arc::ptr_eq(&first, &again), "same placement must hit the memo");
        assert!(after.program_hits > before.program_hits);
        assert_eq!(first.to_bytes(), BatchProgram::compile(&nl, &placement).unwrap().to_bytes());
        // Another seed or amplitude is another placement: another program.
        let reseeded = batch_program(&nl, &JitteredDelay::new(UnitDelay, 5, 8)).unwrap();
        let wider = batch_program(&nl, &JitteredDelay::new(UnitDelay, 40, 7)).unwrap();
        assert_ne!(reseeded.to_bytes(), first.to_bytes());
        assert_ne!(wider.to_bytes(), first.to_bytes());
    }

    #[test]
    fn certification_memoizes_arrivals_across_grids() {
        let (nl, outs) = sample_netlist(15);
        let digits: Vec<Vec<NetId>> = outs.iter().map(|&n| vec![n]).collect();
        let grid1 = [0, 100, 300, 1000, 2000];
        let grid2 = [50, 150, 250];
        let before = stats();
        let rep1 = certification(&nl, &UnitDelay, &digits, &grid1).unwrap();
        let rep2 = certification(&nl, &UnitDelay, &digits, &grid2).unwrap();
        let after = stats();
        assert_eq!(after.cert_misses, before.cert_misses + 1);
        assert_eq!(after.cert_hits, before.cert_hits + 1, "new grid, same arrival table");
        let fresh = certify(&nl, &UnitDelay, &digits, &grid2).unwrap();
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
        let a = certification(&nl, &UnitDelay, &split, &grid).unwrap();
        let b = certification(&nl, &UnitDelay, &merged, &grid).unwrap();
        assert_eq!(a.digits(), 2);
        assert_eq!(b.digits(), 1);
        assert_eq!(b.digit_arrival(0), a.arrivals().iter().copied().max().unwrap());
    }
}
