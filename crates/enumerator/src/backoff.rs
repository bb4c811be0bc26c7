//! Bounded exponential backoff for connection retries.
//!
//! The paper's enumerator could not afford to give up on a host after
//! one lost SYN, nor to retry forever against a blackhole (§III). This
//! schedule encodes the compromise: a fixed number of retries whose
//! delays double from `base` up to `cap`, so the worst-case time spent
//! on a dead host is a small, computable constant.

use netsim::SimDuration;

/// An exponential-backoff retry policy.
///
/// Retry `k` (zero-based) waits `min(base * 2^k, cap)`; after
/// `max_retries` failures the caller must give up. Delays are therefore
/// monotone non-decreasing and the total time added by the schedule is
/// bounded by [`RetrySchedule::worst_case_total`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetrySchedule {
    /// Delay before the first retry.
    pub base: SimDuration,
    /// Upper bound on any single delay.
    pub cap: SimDuration,
    /// Retries permitted after the initial attempt (0 = fail fast).
    pub max_retries: u32,
}

impl RetrySchedule {
    /// Delay before retry number `retry` (zero-based), or `None` once
    /// the retry budget is spent.
    pub fn delay_for(&self, retry: u32) -> Option<SimDuration> {
        if retry >= self.max_retries {
            return None;
        }
        // 2^retry, saturating well before u64 overflow.
        let factor = 1u64 << retry.min(32);
        Some(self.base.saturating_mul(factor).min(self.cap))
    }

    /// Total attempts a caller may make: the initial one plus retries.
    pub fn max_attempts(&self) -> u32 {
        1 + self.max_retries
    }

    /// Sum of every delay the schedule can impose — the extra time a
    /// completely dead host can cost beyond the connect timeouts.
    pub fn worst_case_total(&self) -> SimDuration {
        let mut total = SimDuration::ZERO;
        for k in 0..self.max_retries {
            if let Some(d) = self.delay_for(k) {
                total = total + d;
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CONNECT_RETRY;

    /// A schedule that never retries.
    const NONE: RetrySchedule = RetrySchedule { max_retries: 0, ..CONNECT_RETRY };

    #[test]
    fn attempts_are_bounded() {
        let s = CONNECT_RETRY;
        let mut granted = 0;
        for k in 0..1_000 {
            if s.delay_for(k).is_some() {
                granted += 1;
            }
        }
        assert_eq!(granted, s.max_retries);
        assert_eq!(s.max_attempts(), s.max_retries + 1);
        assert_eq!(NONE.delay_for(0), None);
    }

    #[test]
    fn delays_are_monotone_nondecreasing_and_capped() {
        let s = RetrySchedule {
            base: SimDuration::from_millis(250),
            cap: SimDuration::from_secs(4),
            max_retries: 10,
        };
        let mut prev = SimDuration::ZERO;
        for k in 0..s.max_retries {
            let d = s.delay_for(k).expect("within budget");
            assert!(d >= prev, "delay shrank at retry {k}");
            assert!(d <= s.cap, "delay exceeded cap at retry {k}");
            prev = d;
        }
        // The cap is actually reached (250ms * 2^4 = 4s).
        assert_eq!(s.delay_for(9), Some(s.cap));
    }

    #[test]
    fn huge_retry_indices_do_not_overflow() {
        let s = RetrySchedule {
            base: SimDuration::from_secs(1),
            cap: SimDuration::from_secs(30),
            max_retries: u32::MAX,
        };
        assert_eq!(s.delay_for(63), Some(s.cap));
        assert_eq!(s.delay_for(u32::MAX - 1), Some(s.cap));
    }

    #[test]
    fn worst_case_total_matches_sum() {
        let expected = SimDuration::from_secs(1) + SimDuration::from_secs(2);
        assert_eq!(CONNECT_RETRY.worst_case_total(), expected);
        assert_eq!(NONE.worst_case_total(), SimDuration::ZERO);
    }
}
