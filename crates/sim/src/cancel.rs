//! Cooperative cancellation.
//!
//! A [`CancelToken`] is a cheap, clonable flag a supervisor (deadline
//! watchdog, shutdown handler, client-disconnect detector) raises from
//! another thread. The machine never polls the clock itself: an
//! intercepting [`Observer`](crate::Observer) consults the token at the
//! per-instruction boundary where a [`FaultHook`](crate::FaultHook) runs,
//! in retirement order, identically in every engine tier. A run that
//! observes the token cancelled traps with
//! [`SimError::Cancelled`](crate::SimError) carrying the boundary ordinal,
//! so partial progress (retired count, counters) is deterministic for a
//! deterministic trip point.
//!
//! Two trip modes:
//!
//! * [`CancelToken::new`] — trips only when [`cancel`](CancelToken::cancel)
//!   is called (wall-clock deadlines, shutdown). Inherently timing
//!   dependent; digests built from cancelled runs must quarantine the
//!   boundary ordinal.
//! * [`CancelToken::after_checks`] — trips itself on the nth consultation.
//!   Fully deterministic; this is how the cross-tier parity tests pin a
//!   cancellation to an exact instruction boundary on Plan, Legacy, and
//!   Fused alike.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

#[derive(Debug, Default)]
struct Inner {
    cancelled: AtomicBool,
    /// Deterministic trip point: consultation ordinal at which the token
    /// cancels itself. 0 = disabled.
    trip_at: AtomicU64,
    /// Total consultations so far (across clones — one token is one run's
    /// budget when `trip_at` is armed).
    checks: AtomicU64,
}

/// A clonable cancellation flag checked cooperatively at instruction
/// boundaries. All clones share state.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

impl CancelToken {
    /// A token that cancels only when [`cancel`](Self::cancel) is called.
    pub fn new() -> Self {
        Self::default()
    }

    /// A token that cancels itself on the `n`th consultation (1-based):
    /// the first `n - 1` checks pass, the `n`th and all later ones trip.
    /// `n = 0` is clamped to 1 (cancelled at the first boundary).
    pub fn after_checks(n: u64) -> Self {
        let t = Self::default();
        t.inner.trip_at.store(n.max(1), Ordering::Relaxed);
        t
    }

    /// Raise the flag. Idempotent; safe from any thread.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Release);
    }

    /// Has the flag been raised? A peek — does not count as a
    /// consultation, so it never advances an [`after_checks`] trip point.
    ///
    /// [`after_checks`]: Self::after_checks
    pub fn is_cancelled(&self) -> bool {
        self.inner.cancelled.load(Ordering::Acquire)
    }

    /// Consult the token at an instruction boundary: counts the check,
    /// trips a deterministic [`after_checks`](Self::after_checks) point if
    /// one is armed, and returns whether the run should stop.
    pub fn check(&self) -> bool {
        let n = self.inner.checks.fetch_add(1, Ordering::Relaxed) + 1;
        let trip = self.inner.trip_at.load(Ordering::Relaxed);
        if trip != 0 && n >= trip {
            self.cancel();
        }
        self.is_cancelled()
    }

    /// How many consultations have happened so far.
    pub fn checks(&self) -> u64 {
        self.inner.checks.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manual_cancel_is_sticky_and_shared() {
        let t = CancelToken::new();
        let c = t.clone();
        assert!(!t.check());
        assert!(!t.is_cancelled());
        c.cancel();
        assert!(t.is_cancelled());
        assert!(t.check());
        assert!(t.check(), "cancel is sticky");
    }

    #[test]
    fn after_checks_trips_on_exact_ordinal() {
        let t = CancelToken::after_checks(3);
        assert!(!t.check());
        assert!(!t.check());
        assert!(!t.is_cancelled(), "peek must not trip");
        assert!(t.check(), "third consultation trips");
        assert!(t.is_cancelled());
        assert_eq!(t.checks(), 3);
    }

    #[test]
    fn after_zero_clamps_to_first_boundary() {
        let t = CancelToken::after_checks(0);
        assert!(t.check());
    }
}
