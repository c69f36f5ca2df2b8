//! Content-addressed result cache with single-flight fills.
//!
//! The dedupe substrate for the `ola-serve` analysis service and the
//! `repro synth` CLI sweeps: analysis results are pure functions of their
//! query, so a result can be stored and served under the SHA-256 of the
//! query's canonical serialization ([`sha256`]). Three properties matter
//! and are all enforced here:
//!
//! * **Single-flight** — N identical in-flight queries cost exactly one
//!   computation. The first caller becomes the *leader* and runs the fill;
//!   the rest block on a condvar and receive the leader's bytes
//!   ([`Lookup::Coalesced`]). A failed fill wakes the waiters and the next
//!   one retries as leader, so an error never wedges a key.
//! * **Integrity** — every entry stores the SHA-256 of its payload,
//!   computed at fill time. Each hit (memory or disk) re-hashes the bytes
//!   before serving them; a mismatch is counted
//!   (`ola.cache.tamper_rejected`), the entry is dropped, and the value is
//!   recomputed — rotten bytes are never served. The chaos hook
//!   [`crate::resilience::chaos::CACHE_TAMPER`] flips a payload byte right
//!   after each fill so the `chaos_check` harness can prove this end to
//!   end.
//! * **Bounded memory** — the in-memory tier evicts least-recently-used
//!   entries past a configured capacity (`ola.cache.evictions`). The
//!   optional disk tier (used by `repro synth` so repeated CLI sweeps
//!   warm-hit across processes) is append-only and content-addressed:
//!   `<dir>/<key>.entry` holds the payload digest on its first line and
//!   the payload after it, written atomically.
//!
//! Metrics (process-global [`crate::obs::registry()`], `ola.cache.*`):
//! `hits`, `misses`, `fills`, `coalesced`, `evictions`, `disk_hits`,
//! `tamper_rejected`. These are *operational* counters — unlike the
//! simulation-domain metrics they depend on request interleaving, so they
//! are exempt from the cross-thread-count bit-identity contract (they
//! never appear in experiment manifest deltas asserted by the determinism
//! suite; `ola.cache.hits` from the single-threaded `repro synth` warm
//! path *is* deterministic and is asserted by its test).

use crate::obs::sha256;
use crate::resilience::atomic_write;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex, PoisonError};

/// A content-address: the lowercase-hex SHA-256 of a canonical query
/// serialization.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CacheKey(String);

impl CacheKey {
    /// The key for `bytes` (their SHA-256, lowercase hex).
    #[must_use]
    pub fn of(bytes: &[u8]) -> CacheKey {
        CacheKey(sha256::hex_digest(bytes))
    }

    /// Wraps an existing 64-hex-char digest. Returns `None` when `hex` is
    /// not a lowercase-hex SHA-256.
    #[must_use]
    pub fn from_hex(hex: &str) -> Option<CacheKey> {
        (hex.len() == 64 && hex.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f')))
            .then(|| CacheKey(hex.to_owned()))
    }

    /// The hex digest.
    #[must_use]
    pub fn hex(&self) -> &str {
        &self.0
    }
}

impl std::fmt::Display for CacheKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// How a [`ContentCache::get_or_compute`] call was satisfied.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Lookup {
    /// Served from the in-memory tier (integrity re-verified).
    Hit,
    /// Served from the disk tier (integrity verified, promoted to memory).
    DiskHit,
    /// This caller ran the fill computation.
    Miss,
    /// Another in-flight caller ran the fill; this caller waited for it.
    Coalesced,
}

impl Lookup {
    /// Stable wire label (`hit` / `disk-hit` / `miss` / `coalesced`).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Lookup::Hit => "hit",
            Lookup::DiskHit => "disk-hit",
            Lookup::Miss => "miss",
            Lookup::Coalesced => "coalesced",
        }
    }

    /// True for every outcome that did not run the fill computation.
    #[must_use]
    pub fn is_hit(self) -> bool {
        !matches!(self, Lookup::Miss)
    }
}

struct Entry {
    bytes: Arc<Vec<u8>>,
    /// SHA-256 of `bytes` at insertion time; re-checked on every hit.
    digest: String,
    /// Monotonic recency stamp for LRU eviction.
    stamp: u64,
}

#[derive(Default)]
struct Store {
    entries: HashMap<String, Entry>,
    clock: u64,
}

enum FlightState {
    Pending,
    Done(Arc<Vec<u8>>),
    Failed,
}

struct Flight {
    state: Mutex<FlightState>,
    cv: Condvar,
}

/// Configuration for a [`ContentCache`].
#[derive(Clone, Debug)]
pub struct CacheConfig {
    /// Maximum entries held in memory before LRU eviction (≥ 1).
    pub capacity: usize,
    /// Optional persistent tier: entries are mirrored to
    /// `<dir>/<key>.entry` and consulted on memory misses.
    pub disk_dir: Option<PathBuf>,
    /// Suppress the `ola.cache.*` registry counters for this cache.
    ///
    /// Used by caches whose hit/miss pattern depends on cross-run state
    /// (e.g. the compile-memoization tier, warm after the first workload):
    /// their counters would differ between otherwise identical runs and
    /// break the determinism contract asserted over full metric-snapshot
    /// deltas. Quiet caches expose their traffic through caller-owned
    /// stats instead.
    pub quiet: bool,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig { capacity: 1024, disk_dir: None, quiet: false }
    }
}

/// A content-addressed byte cache with single-flight fills, LRU memory
/// eviction, integrity re-verification on every hit, and an optional disk
/// tier. See the module docs for the guarantees.
pub struct ContentCache {
    config: CacheConfig,
    store: Mutex<Store>,
    inflight: Mutex<HashMap<String, Arc<Flight>>>,
}

impl ContentCache {
    /// A cache with the given configuration (capacity is clamped to ≥ 1).
    #[must_use]
    pub fn new(mut config: CacheConfig) -> ContentCache {
        config.capacity = config.capacity.max(1);
        ContentCache {
            config,
            store: Mutex::new(Store::default()),
            inflight: Mutex::new(HashMap::new()),
        }
    }

    /// Number of entries currently in the memory tier.
    ///
    /// # Panics
    ///
    /// Never: lock poisoning is absorbed.
    #[must_use]
    pub fn len(&self) -> usize {
        self.store.lock().unwrap_or_else(PoisonError::into_inner).entries.len()
    }

    /// True when the memory tier is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn counter(&self, name: &str) {
        if !self.config.quiet {
            crate::obs::registry().counter(name).inc();
        }
    }

    /// Looks `key` up in memory (verifying integrity), then on disk, and
    /// otherwise computes it with `fill` — guaranteeing at most one
    /// concurrent fill per key. Returns the payload bytes and how they
    /// were obtained.
    ///
    /// `fill` runs on the calling thread (so ambient cancellation and
    /// annotation scopes apply) and its payload is hashed, inserted into
    /// every configured tier, and handed to any coalesced waiters.
    ///
    /// # Errors
    ///
    /// Propagates `fill`'s error to the leader that ran it. Waiters never
    /// see another caller's error: on a failed fill the next waiter
    /// retries as leader.
    pub fn get_or_compute<E>(
        &self,
        key: &CacheKey,
        fill: impl FnOnce() -> Result<Vec<u8>, E>,
    ) -> Result<(Arc<Vec<u8>>, Lookup), E> {
        let mut fill = Some(fill);
        loop {
            // Tier 1: memory, with integrity re-verification.
            if let Some(bytes) = self.memory_get(key) {
                self.counter("ola.cache.hits");
                return Ok((bytes, Lookup::Hit));
            }
            // Tier 2: disk.
            if let Some(bytes) = self.disk_get(key) {
                self.counter("ola.cache.hits");
                self.counter("ola.cache.disk_hits");
                return Ok((bytes, Lookup::DiskHit));
            }
            // Single flight: first caller leads, the rest wait.
            let (flight, leader) = self.join_flight(key);
            if leader {
                self.counter("ola.cache.misses");
                // Panic safety: if `fill` unwinds (worker panic, chaos
                // injection, cooperative cancellation), the flight must
                // still settle as Failed — otherwise every coalesced
                // waiter blocks on the condvar forever.
                let unwind_guard = SettleOnUnwind { cache: self, key, flight: &flight };
                let result = fill.take().expect("leader fills at most once")();
                std::mem::forget(unwind_guard);
                return match result {
                    Ok(bytes) => {
                        let bytes = self.insert(key, bytes);
                        self.counter("ola.cache.fills");
                        self.settle_flight(key, &flight, FlightState::Done(Arc::clone(&bytes)));
                        Ok((bytes, Lookup::Miss))
                    }
                    Err(e) => {
                        self.settle_flight(key, &flight, FlightState::Failed);
                        Err(e)
                    }
                };
            }
            let mut state = flight.state.lock().unwrap_or_else(PoisonError::into_inner);
            loop {
                match &*state {
                    FlightState::Pending => {
                        state = flight.cv.wait(state).unwrap_or_else(PoisonError::into_inner);
                    }
                    FlightState::Done(bytes) => {
                        self.counter("ola.cache.hits");
                        self.counter("ola.cache.coalesced");
                        return Ok((Arc::clone(bytes), Lookup::Coalesced));
                    }
                    // The leader failed; retry from the top (this caller
                    // may become the new leader and run its own fill).
                    FlightState::Failed => break,
                }
            }
        }
    }

    /// Memory lookup with integrity verification; a tampered entry is
    /// dropped and reported as a miss.
    fn memory_get(&self, key: &CacheKey) -> Option<Arc<Vec<u8>>> {
        let mut store = self.store.lock().unwrap_or_else(PoisonError::into_inner);
        store.clock += 1;
        let stamp = store.clock;
        let entry = store.entries.get_mut(key.hex())?;
        if sha256::hex_digest(&entry.bytes) == entry.digest {
            entry.stamp = stamp;
            return Some(Arc::clone(&entry.bytes));
        }
        store.entries.remove(key.hex());
        drop(store);
        self.counter("ola.cache.tamper_rejected");
        // The disk mirror of a tampered memory entry is suspect too: it
        // was written from the same fill. Let the disk tier re-verify it
        // independently (it may still be sound).
        None
    }

    fn entry_path(&self, key: &CacheKey) -> Option<PathBuf> {
        self.config.disk_dir.as_ref().map(|d| d.join(format!("{}.entry", key.hex())))
    }

    /// Disk lookup: `<digest hex>\n<payload>`. Any structural or digest
    /// mismatch rejects (and removes) the file.
    fn disk_get(&self, key: &CacheKey) -> Option<Arc<Vec<u8>>> {
        let path = self.entry_path(key)?;
        let raw = std::fs::read(&path).ok()?;
        match parse_disk_entry(&raw) {
            Some((digest, payload)) if sha256::hex_digest(payload) == digest => {
                let bytes = Arc::new(payload.to_vec());
                self.insert_memory(key, Arc::clone(&bytes), digest);
                Some(bytes)
            }
            _ => {
                self.counter("ola.cache.tamper_rejected");
                let _ = std::fs::remove_file(&path);
                None
            }
        }
    }

    /// Inserts freshly computed bytes into every tier, applying the chaos
    /// tamper hook, and returns the (untampered) payload handed to the
    /// caller — tampering corrupts what is *stored*, never what the fill
    /// returns.
    fn insert(&self, key: &CacheKey, bytes: Vec<u8>) -> Arc<Vec<u8>> {
        let bytes = Arc::new(bytes);
        // The digest of record is always of the *clean* payload, computed
        // before any storage — so a tampered store cannot be
        // self-consistent and is caught on the next read.
        let digest = sha256::hex_digest(&bytes);
        let mut stored = Arc::clone(&bytes);
        if crate::resilience::chaos::cache_tamper_forced() && !stored.is_empty() {
            let mut rotten = (*stored).clone();
            let mid = rotten.len() / 2;
            rotten[mid] ^= 0x40;
            stored = Arc::new(rotten);
        }
        if let Some(path) = self.entry_path(key) {
            if let Some(dir) = path.parent() {
                let _ = std::fs::create_dir_all(dir);
            }
            let mut file = digest.clone().into_bytes();
            file.push(b'\n');
            file.extend_from_slice(&stored);
            let _ = atomic_write(&path, &file);
        }
        self.insert_memory(key, stored, digest);
        bytes
    }

    fn insert_memory(&self, key: &CacheKey, bytes: Arc<Vec<u8>>, digest: String) {
        let mut store = self.store.lock().unwrap_or_else(PoisonError::into_inner);
        store.clock += 1;
        let stamp = store.clock;
        store.entries.insert(key.hex().to_owned(), Entry { bytes, digest, stamp });
        let mut evicted = 0u64;
        while store.entries.len() > self.config.capacity {
            let Some(oldest) =
                store.entries.iter().min_by_key(|(_, e)| e.stamp).map(|(k, _)| k.clone())
            else {
                break;
            };
            store.entries.remove(&oldest);
            evicted += 1;
        }
        drop(store);
        if evicted > 0 && !self.config.quiet {
            crate::obs::registry().counter("ola.cache.evictions").add(evicted);
        }
    }

    /// Joins (or starts) the flight for `key`; `true` means this caller is
    /// the leader and must run the fill.
    fn join_flight(&self, key: &CacheKey) -> (Arc<Flight>, bool) {
        let mut inflight = self.inflight.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(f) = inflight.get(key.hex()) {
            (Arc::clone(f), false)
        } else {
            let f =
                Arc::new(Flight { state: Mutex::new(FlightState::Pending), cv: Condvar::new() });
            inflight.insert(key.hex().to_owned(), Arc::clone(&f));
            (f, true)
        }
    }

    fn settle_flight(&self, key: &CacheKey, flight: &Arc<Flight>, outcome: FlightState) {
        {
            let mut state = flight.state.lock().unwrap_or_else(PoisonError::into_inner);
            *state = outcome;
        }
        flight.cv.notify_all();
        let mut inflight = self.inflight.lock().unwrap_or_else(PoisonError::into_inner);
        inflight.remove(key.hex());
    }
}

/// Settles a flight as Failed when the leader's fill unwinds instead of
/// returning; defused with `mem::forget` on the normal path.
struct SettleOnUnwind<'a> {
    cache: &'a ContentCache,
    key: &'a CacheKey,
    flight: &'a Arc<Flight>,
}

impl Drop for SettleOnUnwind<'_> {
    fn drop(&mut self) {
        self.cache.settle_flight(self.key, self.flight, FlightState::Failed);
    }
}

/// Splits a disk entry into `(digest, payload)`.
fn parse_disk_entry(raw: &[u8]) -> Option<(String, &[u8])> {
    let nl = raw.iter().position(|&b| b == b'\n')?;
    let digest = std::str::from_utf8(&raw[..nl]).ok()?;
    CacheKey::from_hex(digest)?;
    Some((digest.to_owned(), &raw[nl + 1..]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::convert::Infallible;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;

    fn fill_ok(bytes: &[u8]) -> impl FnOnce() -> Result<Vec<u8>, Infallible> + '_ {
        move || Ok(bytes.to_vec())
    }

    #[test]
    fn miss_then_hit_roundtrips_bytes() {
        let cache = ContentCache::new(CacheConfig::default());
        let key = CacheKey::of(b"query-1");
        let (bytes, how) = cache.get_or_compute(&key, fill_ok(b"payload")).unwrap();
        assert_eq!(how, Lookup::Miss);
        assert_eq!(&**bytes, b"payload");
        let (bytes, how) = cache.get_or_compute(&key, fill_ok(b"IGNORED")).unwrap();
        assert_eq!(how, Lookup::Hit);
        assert!(how.is_hit());
        assert_eq!(&**bytes, b"payload", "hit serves the original fill");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn keys_are_hex_shas_and_labels_are_stable() {
        let key = CacheKey::of(b"abc");
        assert_eq!(key.hex().len(), 64);
        assert_eq!(CacheKey::from_hex(key.hex()), Some(key.clone()));
        assert_eq!(CacheKey::from_hex("xyz"), None);
        assert_eq!(CacheKey::from_hex(&"A".repeat(64)), None, "uppercase rejected");
        assert_eq!(format!("{key}"), key.hex());
        assert_eq!(Lookup::Miss.label(), "miss");
        assert_eq!(Lookup::Hit.label(), "hit");
        assert_eq!(Lookup::DiskHit.label(), "disk-hit");
        assert_eq!(Lookup::Coalesced.label(), "coalesced");
        assert!(!Lookup::Miss.is_hit());
        assert!(Lookup::DiskHit.is_hit());
        assert!(Lookup::Coalesced.is_hit());
    }

    #[test]
    fn lru_evicts_the_coldest_entry() {
        let cache = ContentCache::new(CacheConfig { capacity: 2, ..CacheConfig::default() });
        let (a, b, c) = (CacheKey::of(b"a"), CacheKey::of(b"b"), CacheKey::of(b"c"));
        cache.get_or_compute(&a, fill_ok(b"A")).unwrap();
        cache.get_or_compute(&b, fill_ok(b"B")).unwrap();
        // Touch `a` so `b` is the LRU entry when `c` arrives.
        assert_eq!(cache.get_or_compute(&a, fill_ok(b"!")).unwrap().1, Lookup::Hit);
        cache.get_or_compute(&c, fill_ok(b"C")).unwrap();
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get_or_compute(&a, fill_ok(b"!")).unwrap().1, Lookup::Hit);
        assert_eq!(cache.get_or_compute(&b, fill_ok(b"B2")).unwrap().1, Lookup::Miss, "b evicted");
    }

    #[test]
    fn single_flight_coalesces_concurrent_fills() {
        let cache = Arc::new(ContentCache::new(CacheConfig::default()));
        let key = CacheKey::of(b"expensive");
        let fills = AtomicUsize::new(0);
        let k = 8;
        let barrier = Barrier::new(k);
        let outcomes: Vec<Lookup> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..k)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        let (bytes, how) = cache
                            .get_or_compute(&key, || {
                                fills.fetch_add(1, Ordering::SeqCst);
                                std::thread::sleep(std::time::Duration::from_millis(50));
                                Ok::<_, Infallible>(b"answer".to_vec())
                            })
                            .unwrap();
                        assert_eq!(&**bytes, b"answer");
                        how
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(fills.load(Ordering::SeqCst), 1, "exactly one fill ran");
        assert_eq!(outcomes.iter().filter(|o| **o == Lookup::Miss).count(), 1);
        assert!(outcomes.iter().all(|o| *o == Lookup::Miss || o.is_hit()));
    }

    #[test]
    fn failed_fill_releases_waiters_to_retry() {
        let cache = Arc::new(ContentCache::new(CacheConfig::default()));
        let key = CacheKey::of(b"flaky");
        let attempts = AtomicUsize::new(0);
        let barrier = Barrier::new(4);
        let ok = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        cache.get_or_compute(&key, || {
                            // First fill attempt fails; a retry succeeds.
                            if attempts.fetch_add(1, Ordering::SeqCst) == 0 {
                                std::thread::sleep(std::time::Duration::from_millis(20));
                                Err("boom")
                            } else {
                                Ok(b"recovered".to_vec())
                            }
                        })
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect::<Vec<_>>()
        });
        let successes = ok.iter().filter(|r| r.is_ok()).count();
        assert!(successes >= 3, "only the failing leader errors; waiters recover");
        assert!(ok.iter().flatten().all(|(b, _)| &***b == b"recovered"));
    }

    #[test]
    fn disk_tier_survives_a_fresh_cache_and_rejects_rot() {
        let dir = std::env::temp_dir().join(format!("ola_cache_disk_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg =
            CacheConfig { capacity: 8, disk_dir: Some(dir.clone()), ..CacheConfig::default() };
        let key = CacheKey::of(b"persisted");

        let warm = ContentCache::new(cfg.clone());
        warm.get_or_compute(&key, fill_ok(b"on disk")).unwrap();

        // A brand-new cache (fresh process, conceptually) warm-hits disk.
        let cold = ContentCache::new(cfg.clone());
        let (bytes, how) = cold.get_or_compute(&key, fill_ok(b"SHOULD NOT RUN")).unwrap();
        assert_eq!(how, Lookup::DiskHit);
        assert_eq!(&**bytes, b"on disk");
        // And the disk hit was promoted to memory.
        assert_eq!(cold.get_or_compute(&key, fill_ok(b"!")).unwrap().1, Lookup::Hit);

        // Flip a payload byte on disk: the digest check must reject it and
        // recompute instead of serving rot.
        let path = dir.join(format!("{}.entry", key.hex()));
        let mut raw = std::fs::read(&path).unwrap();
        let last = raw.len() - 1;
        raw[last] ^= 0x01;
        std::fs::write(&path, &raw).unwrap();
        let rotten = ContentCache::new(cfg);
        let (bytes, how) = rotten.get_or_compute(&key, fill_ok(b"recomputed")).unwrap();
        assert_eq!(how, Lookup::Miss, "tampered disk entry is a miss");
        assert_eq!(&**bytes, b"recomputed");

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tampered_memory_entry_is_recomputed_not_served() {
        let cache = ContentCache::new(CacheConfig::default());
        let key = CacheKey::of(b"tamper-mem");
        cache.get_or_compute(&key, fill_ok(b"clean")).unwrap();
        // Corrupt the stored bytes behind the cache's back.
        {
            let mut store = cache.store.lock().unwrap();
            let entry = store.entries.get_mut(key.hex()).unwrap();
            entry.bytes = Arc::new(b"ROTTEN".to_vec());
        }
        let (bytes, how) = cache.get_or_compute(&key, fill_ok(b"clean")).unwrap();
        assert_eq!(how, Lookup::Miss, "integrity failure forces a recompute");
        assert_eq!(&**bytes, b"clean");
    }

    #[test]
    fn chaos_tamper_hook_corrupts_the_store_but_never_the_caller() {
        // Env mutation is process-global; the chaos var is unique to this
        // test within the ola-core test binary.
        std::env::set_var(crate::resilience::chaos::CACHE_TAMPER, "1");
        let cache = ContentCache::new(CacheConfig::default());
        let key = CacheKey::of(b"chaos");
        let (bytes, how) = cache.get_or_compute(&key, fill_ok(b"fresh")).unwrap();
        assert_eq!(how, Lookup::Miss);
        assert_eq!(&**bytes, b"fresh", "the fill's caller always gets clean bytes");
        std::env::remove_var(crate::resilience::chaos::CACHE_TAMPER);
        // The stored copy was tampered: the next lookup must detect the
        // digest mismatch and recompute rather than serve rot.
        let (bytes, how) = cache.get_or_compute(&key, fill_ok(b"fresh")).unwrap();
        assert_eq!(how, Lookup::Miss);
        assert_eq!(&**bytes, b"fresh");
        // With the hook off, the recomputed entry now hits cleanly.
        assert_eq!(cache.get_or_compute(&key, fill_ok(b"!")).unwrap().1, Lookup::Hit);
    }

    #[test]
    fn panicking_leader_releases_waiters() {
        let cache = Arc::new(ContentCache::new(CacheConfig::default()));
        let key = CacheKey::of(b"leader-panics");
        let attempts = AtomicUsize::new(0);
        let barrier = Barrier::new(4);
        let results = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            cache.get_or_compute(&key, || {
                                if attempts.fetch_add(1, Ordering::SeqCst) == 0 {
                                    std::thread::sleep(std::time::Duration::from_millis(20));
                                    panic!("synthetic worker crash");
                                }
                                Ok::<_, Infallible>(b"after crash".to_vec())
                            })
                        }))
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect::<Vec<_>>()
        });
        // Exactly one caller observed the panic; everyone else completed
        // (as retry-leader or coalesced) instead of hanging forever.
        let panicked = results.iter().filter(|r| r.is_err()).count();
        assert_eq!(panicked, 1, "only the crashing leader unwinds");
        for r in results.iter().flatten() {
            let (bytes, _) = r.as_ref().unwrap();
            assert_eq!(&***bytes, b"after crash");
        }
    }

    #[test]
    fn disk_entry_parser_rejects_malformed_files() {
        assert!(parse_disk_entry(b"").is_none());
        assert!(parse_disk_entry(b"no-newline").is_none());
        assert!(parse_disk_entry(b"shorthex\npayload").is_none());
        let good = format!("{}\npayload", sha256::hex_digest(b"payload"));
        let (digest, payload) = parse_disk_entry(good.as_bytes()).unwrap();
        assert_eq!(digest, sha256::hex_digest(b"payload"));
        assert_eq!(payload, b"payload");
    }
}
