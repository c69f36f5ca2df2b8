//! Per-peer token-bucket rate limiting.
//!
//! One bucket per peer IP: `capacity` tokens, refilled continuously at
//! `refill_per_sec`. A request spends one token; an empty bucket means
//! 429 with a `Retry-After` derived from the refill rate. Buckets are
//! created on first sight and pruned once full again and idle, so the map
//! stays bounded by the active peer set.
//!
//! Time is passed in explicitly (seconds since an arbitrary epoch), which
//! keeps the arithmetic testable without sleeping.

use std::collections::HashMap;
use std::net::IpAddr;
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// Token-bucket parameters.
#[derive(Clone, Copy, Debug)]
pub struct RateConfig {
    /// Bucket capacity (burst size), tokens. Must be ≥ 1.
    pub capacity: f64,
    /// Refill rate, tokens per second.
    pub refill_per_sec: f64,
}

impl Default for RateConfig {
    fn default() -> Self {
        RateConfig { capacity: 100.0, refill_per_sec: 2000.0 }
    }
}

struct Bucket {
    tokens: f64,
    last: f64,
}

/// The per-peer limiter. Cheap to share behind an `Arc`.
pub struct RateLimiter {
    cfg: RateConfig,
    epoch: Instant,
    buckets: Mutex<HashMap<IpAddr, Bucket>>,
}

/// Outcome of a rate-limit probe.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum RateDecision {
    /// Token granted.
    Allow,
    /// Bucket empty: retry after the given number of seconds (≥ 1,
    /// rounded up for the `Retry-After` header).
    Deny {
        /// Whole seconds until a token is available.
        retry_after_secs: u64,
    },
}

impl RateLimiter {
    /// A limiter with the given parameters (capacity clamped to ≥ 1
    /// token, refill to > 0).
    #[must_use]
    pub fn new(cfg: RateConfig) -> RateLimiter {
        let cfg = RateConfig {
            capacity: cfg.capacity.max(1.0),
            refill_per_sec: cfg.refill_per_sec.max(1e-6),
        };
        RateLimiter { cfg, epoch: Instant::now(), buckets: Mutex::new(HashMap::new()) }
    }

    /// Probes the bucket for `peer` at the current wall clock.
    pub fn check(&self, peer: IpAddr) -> RateDecision {
        self.check_at(peer, self.epoch.elapsed().as_secs_f64())
    }

    /// Probes the bucket for `peer` at explicit time `now` (seconds since
    /// the limiter's epoch) — the deterministic core [`check`][Self::check]
    /// wraps.
    pub fn check_at(&self, peer: IpAddr, now: f64) -> RateDecision {
        let mut buckets = self.buckets.lock().unwrap_or_else(PoisonError::into_inner);
        let bucket = buckets.entry(peer).or_insert(Bucket { tokens: self.cfg.capacity, last: now });
        let elapsed = (now - bucket.last).max(0.0);
        bucket.tokens = (bucket.tokens + elapsed * self.cfg.refill_per_sec).min(self.cfg.capacity);
        bucket.last = now;
        if bucket.tokens >= 1.0 {
            bucket.tokens -= 1.0;
            RateDecision::Allow
        } else {
            let deficit = 1.0 - bucket.tokens;
            let secs = (deficit / self.cfg.refill_per_sec).ceil().max(1.0);
            // Cap to something a client can sensibly honor.
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            let retry_after_secs = if secs >= 3600.0 { 3600 } else { secs as u64 };
            RateDecision::Deny { retry_after_secs }
        }
    }

    /// Drops buckets that have refilled completely — they carry no state a
    /// fresh bucket wouldn't. Called opportunistically by the server.
    pub fn prune(&self) {
        let now = self.epoch.elapsed().as_secs_f64();
        let mut buckets = self.buckets.lock().unwrap_or_else(PoisonError::into_inner);
        buckets.retain(|_, b| {
            let refilled = b.tokens + (now - b.last).max(0.0) * self.cfg.refill_per_sec;
            refilled < self.cfg.capacity
        });
    }

    /// Number of peers with a tracked bucket; [`RateLimiter::prune`]
    /// drops the full ones.
    #[cfg(test)]
    #[must_use]
    pub fn peers(&self) -> usize {
        self.buckets.lock().unwrap_or_else(PoisonError::into_inner).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn ip(last: u8) -> IpAddr {
        IpAddr::V4(Ipv4Addr::new(10, 0, 0, last))
    }

    #[test]
    fn burst_spends_capacity_then_denies_with_retry_after() {
        let rl = RateLimiter::new(RateConfig { capacity: 3.0, refill_per_sec: 1.0 });
        for _ in 0..3 {
            assert_eq!(rl.check_at(ip(1), 0.0), RateDecision::Allow);
        }
        match rl.check_at(ip(1), 0.0) {
            RateDecision::Deny { retry_after_secs } => assert!(retry_after_secs >= 1),
            RateDecision::Allow => panic!("bucket must be empty"),
        }
    }

    #[test]
    fn refill_restores_tokens_over_time() {
        let rl = RateLimiter::new(RateConfig { capacity: 2.0, refill_per_sec: 10.0 });
        assert_eq!(rl.check_at(ip(2), 0.0), RateDecision::Allow);
        assert_eq!(rl.check_at(ip(2), 0.0), RateDecision::Allow);
        assert!(matches!(rl.check_at(ip(2), 0.0), RateDecision::Deny { .. }));
        // 0.2 s at 10 tokens/s = 2 tokens, capped at capacity.
        assert_eq!(rl.check_at(ip(2), 0.2), RateDecision::Allow);
    }

    #[test]
    fn peers_are_isolated() {
        let rl = RateLimiter::new(RateConfig { capacity: 1.0, refill_per_sec: 0.001 });
        assert_eq!(rl.check_at(ip(3), 0.0), RateDecision::Allow);
        assert!(matches!(rl.check_at(ip(3), 0.0), RateDecision::Deny { .. }));
        assert_eq!(rl.check_at(ip(4), 0.0), RateDecision::Allow, "other peer unaffected");
        assert_eq!(rl.peers(), 2);
    }

    #[test]
    fn retry_after_is_bounded_and_positive() {
        let rl = RateLimiter::new(RateConfig { capacity: 1.0, refill_per_sec: 1e-6 });
        assert_eq!(rl.check_at(ip(5), 0.0), RateDecision::Allow);
        match rl.check_at(ip(5), 0.0) {
            RateDecision::Deny { retry_after_secs } => {
                assert!(retry_after_secs >= 1);
                assert!(retry_after_secs <= 3600, "capped for sane clients");
            }
            RateDecision::Allow => panic!("must deny"),
        }
    }

    #[test]
    fn prune_drops_only_full_buckets() {
        let rl = RateLimiter::new(RateConfig { capacity: 1.0, refill_per_sec: 1e9 });
        let _ = rl.check(ip(6));
        // At 1e9 tokens/s the bucket is instantly full again.
        std::thread::sleep(std::time::Duration::from_millis(2));
        rl.prune();
        assert_eq!(rl.peers(), 0, "refilled bucket pruned");
    }
}
