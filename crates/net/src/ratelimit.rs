//! Token-bucket rate limiting: the in-band way to model link capacity when
//! a component sends through a shared broker.

use parking_lot::Mutex;
use std::time::{Duration, Instant};

/// A token bucket dispensing bytes at a fixed rate.
///
/// `acquire(bytes)` blocks until the bucket can cover the request, which
/// reproduces a bottleneck link's serialisation delay for a producer
/// thread. The bucket's burst size bounds how far ahead a sender can run.
///
/// # Examples
///
/// ```
/// use approxiot_net::RateLimiter;
///
/// // 1 MB/s with a 64 KB burst allowance.
/// let limiter = RateLimiter::new(1_000_000, 64_000);
/// limiter.acquire(1000); // returns quickly: within the initial burst
/// ```
#[derive(Debug)]
pub struct RateLimiter {
    bytes_per_sec: f64,
    burst: f64,
    state: Mutex<BucketState>,
}

#[derive(Debug)]
struct BucketState {
    tokens: f64,
    last_refill: Instant,
}

impl RateLimiter {
    /// Creates a limiter dispensing `bytes_per_sec`, allowing bursts of up
    /// to `burst` bytes.
    ///
    /// # Panics
    ///
    /// Panics unless both arguments are positive.
    pub fn new(bytes_per_sec: u64, burst: u64) -> Self {
        assert!(bytes_per_sec > 0, "rate must be positive");
        assert!(burst > 0, "burst must be positive");
        RateLimiter {
            bytes_per_sec: bytes_per_sec as f64,
            burst: burst as f64,
            state: Mutex::new(BucketState {
                tokens: burst as f64,
                // analysis: allow(D1, reason = "token-bucket pacing of a real link; never used by the deterministic engines")
                #[allow(clippy::disallowed_methods)]
                last_refill: Instant::now(),
            }),
        }
    }

    /// The configured rate in bytes/second.
    pub fn rate(&self) -> u64 {
        self.bytes_per_sec as u64
    }

    /// Refills the bucket for the elapsed wall time and, if it now covers
    /// `needed`, consumes the tokens. Both acquire paths share this one
    /// refill so they agree on the oversized-frame policy: the bucket is
    /// allowed to fill up to `max(burst, needed)`, letting a frame larger
    /// than the burst accumulate enough tokens over time instead of being
    /// capped out forever.
    fn refill_and_take(&self, s: &mut BucketState, needed: f64) -> bool {
        // analysis: allow(D1, reason = "token-bucket pacing of a real link; never used by the deterministic engines")
        #[allow(clippy::disallowed_methods)]
        let now = Instant::now();
        let elapsed = now.duration_since(s.last_refill).as_secs_f64();
        s.tokens = (s.tokens + elapsed * self.bytes_per_sec).min(self.burst.max(needed));
        s.last_refill = now;
        if s.tokens >= needed {
            s.tokens -= needed;
            true
        } else {
            false
        }
    }

    /// Blocks until `bytes` tokens are available, then consumes them.
    ///
    /// **Oversized-frame policy**: requests larger than the burst size are
    /// still served — the bucket fills past the burst up to the request
    /// size while the caller waits — so oversized frames degrade to pure
    /// pacing rather than deadlocking. [`RateLimiter::try_acquire`] applies
    /// the same cap, so an oversized frame that keeps retrying eventually
    /// succeeds there too.
    pub fn acquire(&self, bytes: u64) {
        let needed = bytes as f64;
        loop {
            let wait = {
                let mut s = self.state.lock();
                if self.refill_and_take(&mut s, needed) {
                    return;
                }
                Duration::from_secs_f64(((needed - s.tokens) / self.bytes_per_sec).min(0.05))
            };
            std::thread::sleep(wait);
        }
    }

    /// Non-blocking variant: consumes and returns `true` when the bucket
    /// covers `bytes` right now.
    ///
    /// Shares [`RateLimiter::acquire`]'s oversized-frame policy: a request
    /// larger than the burst reports `false` until enough time has passed
    /// for the bucket to fill up to the request size, then succeeds —
    /// historically the refill here capped at `burst`, so the same frame
    /// `acquire` would pace through could never pass `try_acquire`.
    pub fn try_acquire(&self, bytes: u64) -> bool {
        self.refill_and_take(&mut self.state.lock(), bytes as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_is_served_immediately() {
        let limiter = RateLimiter::new(1_000, 10_000);
        let t0 = Instant::now();
        limiter.acquire(5_000);
        assert!(t0.elapsed() < Duration::from_millis(20));
    }

    #[test]
    fn sustained_rate_is_enforced() {
        // 100 KB/s, tiny burst; 10 KB should take ~100 ms.
        let limiter = RateLimiter::new(100_000, 1_000);
        let t0 = Instant::now();
        for _ in 0..10 {
            limiter.acquire(1_000);
        }
        let elapsed = t0.elapsed();
        assert!(elapsed >= Duration::from_millis(70), "elapsed {elapsed:?}");
        assert!(elapsed < Duration::from_millis(400), "elapsed {elapsed:?}");
    }

    #[test]
    fn oversized_request_does_not_deadlock() {
        let limiter = RateLimiter::new(1_000_000, 100);
        let t0 = Instant::now();
        limiter.acquire(10_000); // 100x the burst
        assert!(t0.elapsed() < Duration::from_millis(200));
    }

    #[test]
    fn try_acquire_serves_oversized_frames_like_acquire() {
        // 1 MB/s with a 100-byte burst; a 10 KB frame needs ~10 ms of
        // refill. It must start unavailable, then become available — the
        // same pacing policy acquire applies, not a permanent refusal.
        let limiter = RateLimiter::new(1_000_000, 100);
        limiter.acquire(100); // drain the initial burst
        assert!(!limiter.try_acquire(10_000), "not yet refilled");
        let t0 = Instant::now();
        while !limiter.try_acquire(10_000) {
            assert!(
                t0.elapsed() < Duration::from_millis(500),
                "oversized try_acquire never succeeded"
            );
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    #[test]
    fn try_acquire_reports_availability() {
        let limiter = RateLimiter::new(1_000, 1_000);
        assert!(limiter.try_acquire(500));
        assert!(limiter.try_acquire(500));
        assert!(!limiter.try_acquire(800), "bucket drained");
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn rejects_zero_rate() {
        RateLimiter::new(0, 1);
    }
}
