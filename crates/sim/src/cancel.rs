//! Cooperative cancellation.
//!
//! A [`CancelToken`] is a cheap, clonable flag a supervisor (deadline
//! watchdog, shutdown handler, client-disconnect detector) raises from
//! another thread. The machine never polls the clock itself: a polling
//! [`Observer`](crate::Observer) reads the flag at launch entry and after
//! each taken control transfer, the same boundaries in every engine tier.
//! Polling needs no per-instruction work, so a cancellable run keeps the
//! fused tier's windows. A run that observes the flag raised traps with
//! [`SimError::Cancelled`](crate::SimError) carrying the boundary ordinal
//! within the launch.
//!
//! Two trip modes:
//!
//! * [`CancelToken::new`] — trips only when [`cancel`](CancelToken::cancel)
//!   is called (wall-clock deadlines, shutdown). Inherently timing
//!   dependent; digests built from cancelled runs must quarantine the
//!   boundary ordinal.
//! * [`CancelToken::after_checks`] — trips itself at the nth instruction
//!   boundary the token's runs pass, counted across launches. Fully
//!   deterministic: the runner meters each launch with the fuel left
//!   before the trip point ([`passes_left`](CancelToken::passes_left)),
//!   and fuel lands on exact instruction boundaries in every tier, so the
//!   cross-tier parity tests pin a cancellation to the same boundary on
//!   Plan, Legacy, and Fused alike. After the launch the runner records
//!   the boundaries it passed ([`advance`](CancelToken::advance)).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

#[derive(Debug, Default)]
struct Inner {
    cancelled: AtomicBool,
    /// Deterministic trip point: boundary ordinal at which the token
    /// cancels itself. 0 = disabled.
    trip_at: AtomicU64,
    /// Boundaries recorded so far (across clones — one token is one run's
    /// budget when `trip_at` is armed).
    checks: AtomicU64,
}

/// A clonable cancellation flag polled cooperatively at control
/// transfers. All clones share state.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

impl CancelToken {
    /// A token that cancels only when [`cancel`](Self::cancel) is called.
    pub fn new() -> Self {
        Self::default()
    }

    /// A token that cancels itself at the `n`th instruction boundary
    /// (1-based): the first `n - 1` pass, the `n`th and all later ones
    /// trip. `n = 0` is clamped to 1 (cancelled at the first boundary).
    pub fn after_checks(n: u64) -> Self {
        let t = Self::default();
        t.inner.trip_at.store(n.max(1), Ordering::Relaxed);
        t
    }

    /// Raise the flag. Idempotent; safe from any thread.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Release);
    }

    /// Has the flag been raised? A peek — it never advances an
    /// [`after_checks`] trip point.
    ///
    /// [`after_checks`]: Self::after_checks
    pub fn is_cancelled(&self) -> bool {
        self.inner.cancelled.load(Ordering::Acquire)
    }

    /// How many more boundaries pass before a deterministic
    /// [`after_checks`](Self::after_checks) point trips, or `None` when no
    /// trip point is armed. `Some(0)` means the next boundary trips.
    pub fn passes_left(&self) -> Option<u64> {
        match self.inner.trip_at.load(Ordering::Relaxed) {
            0 => None,
            trip => Some(trip.saturating_sub(self.checks() + 1)),
        }
    }

    /// Record `n` instruction boundaries passed (the consulted boundary a
    /// launch stopped at included). Reaching an armed
    /// [`after_checks`](Self::after_checks) point raises the flag.
    pub fn advance(&self, n: u64) {
        let seen = self.inner.checks.fetch_add(n, Ordering::Relaxed) + n;
        let trip = self.inner.trip_at.load(Ordering::Relaxed);
        if trip != 0 && seen >= trip {
            self.cancel();
        }
    }

    /// How many boundaries have been recorded so far.
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
        assert_eq!(t.passes_left(), None, "no trip point armed");
        t.advance(1);
        assert!(!t.is_cancelled());
        c.cancel();
        assert!(t.is_cancelled());
        t.advance(1);
        assert!(t.is_cancelled(), "cancel is sticky");
    }

    #[test]
    fn after_checks_trips_on_exact_ordinal() {
        let t = CancelToken::after_checks(3);
        assert_eq!(t.passes_left(), Some(2));
        t.advance(1);
        assert_eq!(t.passes_left(), Some(1));
        t.advance(1);
        assert!(!t.is_cancelled(), "two boundaries pass");
        assert_eq!(t.passes_left(), Some(0), "the third trips");
        t.advance(1);
        assert!(t.is_cancelled());
        assert_eq!(t.checks(), 3);
        t.advance(1);
        assert!(t.is_cancelled(), "a trip is sticky");
        assert_eq!(t.passes_left(), Some(0));
    }

    #[test]
    fn after_zero_clamps_to_first_boundary() {
        let t = CancelToken::after_checks(0);
        assert_eq!(t.passes_left(), Some(0));
        t.advance(1);
        assert!(t.is_cancelled());
    }
}
