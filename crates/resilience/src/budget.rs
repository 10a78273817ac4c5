//! Execution budgets: deadline + work units + cooperative cancellation.
//!
//! A [`Budget`] is shared by reference (`&Budget`) between every stage of
//! one logical operation — all the probes of a period search, all the
//! workers of a parallel sweep — so the limits apply to the operation as
//! a whole, not per stage. The work-unit counter is the *deterministic*
//! limit: the same input under the same limit exhausts at the same point
//! on every run, which is what the exhaustion-soundness property tests
//! rely on. The deadline and the cancel token are the *wall-clock* limits
//! for production callers (`credc explore --deadline-ms`).

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How often (in work units) the deadline clock is sampled. Work-limit
/// and cancellation checks are exact; reading `Instant::now` per unit
/// would dominate the SPFA inner loop, so the deadline is polled every
/// `DEADLINE_STRIDE` units (and at every [`Budget::check`] call).
const DEADLINE_STRIDE: u64 = 64;

/// Cooperative cancellation flag, cloned freely across threads.
///
/// Cancelling is a request, not preemption: budgeted loops observe it at
/// their next [`Budget::charge`]/[`Budget::check`] and return
/// [`Exhausted::Cancelled`].
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Request cancellation. Idempotent; never blocks.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Has [`cancel`](Self::cancel) been called?
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// Typed budget exhaustion. A budgeted path that returns this delivered
/// *no* answer — never a partial or wrong one; the caller decides whether
/// to fail, retry bigger, or degrade to a fallback.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Exhausted {
    /// The wall-clock deadline passed.
    Deadline {
        /// The deadline that was configured.
        limit: Duration,
    },
    /// The deterministic work-unit limit was reached.
    WorkUnits {
        /// The configured limit.
        limit: u64,
    },
    /// The operation's [`CancelToken`] was tripped.
    Cancelled,
    /// A fail-point injected a fault at a budget-aware site (chaos
    /// testing only; see [`crate::failpoint`]).
    Injected {
        /// The fail-point site that fired.
        site: &'static str,
    },
}

impl fmt::Display for Exhausted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Exhausted::Deadline { limit } => write!(f, "deadline of {limit:?} exceeded"),
            Exhausted::WorkUnits { limit } => write!(f, "work limit of {limit} units exceeded"),
            Exhausted::Cancelled => write!(f, "cancelled"),
            Exhausted::Injected { site } => write!(f, "fault injected at {site}"),
        }
    }
}

impl std::error::Error for Exhausted {}

/// An execution budget. Construct with [`Budget::unlimited`] and tighten
/// with the `with_*` builders; pass by reference into budgeted APIs.
///
/// The counter lives in the budget itself, so one budget shared by many
/// threads bounds their *combined* work.
#[derive(Debug, Default)]
pub struct Budget {
    deadline: Option<InstantDeadline>,
    work_limit: Option<u64>,
    cancel: Option<CancelToken>,
    used: AtomicU64,
}

/// A deadline stored as (start, limit) so exhaustion errors can report
/// the configured limit rather than an absolute instant.
#[derive(Debug, Clone, Copy)]
struct InstantDeadline {
    at: Instant,
    limit: Duration,
}

impl Budget {
    /// A budget with no limits: every check passes, at the cost of one
    /// predictable branch.
    pub fn unlimited() -> Self {
        Budget::default()
    }

    /// Add a wall-clock deadline of `limit` from now.
    pub fn with_deadline(mut self, limit: Duration) -> Self {
        self.deadline = Some(InstantDeadline {
            at: Instant::now() + limit,
            limit,
        });
        self
    }

    /// Add a deterministic work-unit limit.
    pub fn with_work_limit(mut self, limit: u64) -> Self {
        self.work_limit = Some(limit);
        self
    }

    /// Attach a cancellation token (clone it for the cancelling side).
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// True when no limit of any kind is configured.
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none() && self.work_limit.is_none() && self.cancel.is_none()
    }

    /// Work units charged so far.
    pub fn work_used(&self) -> u64 {
        self.used.load(Ordering::Relaxed)
    }

    /// Charge `units` of work and verify every limit that is due.
    ///
    /// The work limit and the cancel token are checked on every call; the
    /// deadline is sampled every `DEADLINE_STRIDE` units. Returns
    /// `Err` the moment any limit is exceeded.
    #[inline]
    pub fn charge(&self, units: u64) -> Result<(), Exhausted> {
        if self.is_unlimited() {
            return Ok(());
        }
        let used = self.used.fetch_add(units, Ordering::Relaxed) + units;
        if let Some(limit) = self.work_limit {
            if used > limit {
                return Err(Exhausted::WorkUnits { limit });
            }
        }
        if let Some(tok) = &self.cancel {
            if tok.is_cancelled() {
                return Err(Exhausted::Cancelled);
            }
        }
        if let Some(d) = self.deadline {
            // Sample the clock when the counter crosses a stride boundary
            // (always true for charges of a stride or more).
            if used % DEADLINE_STRIDE < units && Instant::now() > d.at {
                return Err(Exhausted::Deadline { limit: d.limit });
            }
        }
        Ok(())
    }

    /// Check the deadline and cancel token *now*, without charging work.
    /// Call at stage boundaries so a blown deadline is observed before
    /// starting more work.
    pub fn check(&self) -> Result<(), Exhausted> {
        if let Some(tok) = &self.cancel {
            if tok.is_cancelled() {
                return Err(Exhausted::Cancelled);
            }
        }
        if let Some(d) = self.deadline {
            if Instant::now() > d.at {
                return Err(Exhausted::Deadline { limit: d.limit });
            }
        }
        if let Some(limit) = self.work_limit {
            if self.work_used() > limit {
                return Err(Exhausted::WorkUnits { limit });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_always_passes() {
        let b = Budget::unlimited();
        assert!(b.is_unlimited());
        for _ in 0..1000 {
            b.charge(10).unwrap();
        }
        b.check().unwrap();
        // Unlimited budgets skip even the counter.
        assert_eq!(b.work_used(), 0);
    }

    #[test]
    fn work_limit_is_deterministic_and_exact() {
        let b = Budget::unlimited().with_work_limit(5);
        for _ in 0..5 {
            b.charge(1).unwrap();
        }
        assert_eq!(b.charge(1).unwrap_err(), Exhausted::WorkUnits { limit: 5 });
        // Once exhausted, it stays exhausted.
        assert!(b.charge(1).is_err());
        assert!(b.check().is_err());
        assert_eq!(b.work_used(), 7);
    }

    #[test]
    fn cancel_token_trips_charge_and_check() {
        let tok = CancelToken::new();
        let b = Budget::unlimited().with_cancel(tok.clone());
        b.charge(1).unwrap();
        b.check().unwrap();
        tok.cancel();
        assert!(tok.is_cancelled());
        assert_eq!(b.charge(1).unwrap_err(), Exhausted::Cancelled);
        assert_eq!(b.check().unwrap_err(), Exhausted::Cancelled);
    }

    #[test]
    fn deadline_in_the_past_fails_check_immediately() {
        let b = Budget::unlimited().with_deadline(Duration::ZERO);
        // A zero deadline must be observed by the next stage boundary.
        std::thread::sleep(Duration::from_millis(1));
        assert!(matches!(b.check().unwrap_err(), Exhausted::Deadline { .. }));
        // And by charge() within one stride of work.
        let b = Budget::unlimited().with_deadline(Duration::ZERO);
        std::thread::sleep(Duration::from_millis(1));
        let mut tripped = false;
        for _ in 0..128 {
            if b.charge(1).is_err() {
                tripped = true;
                break;
            }
        }
        assert!(tripped, "deadline never sampled within two strides");
    }

    #[test]
    fn shared_budget_bounds_combined_work() {
        let b = Budget::unlimited().with_work_limit(1000);
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        let mut charged = 0u64;
                        while b.charge(1).is_ok() {
                            charged += 1;
                        }
                        charged
                    })
                })
                .collect();
            let total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
            assert!(total <= 1000, "combined work {total} exceeds the limit");
        });
    }

    #[test]
    fn errors_render_one_line() {
        assert_eq!(Exhausted::Cancelled.to_string(), "cancelled");
        assert_eq!(
            Exhausted::WorkUnits { limit: 9 }.to_string(),
            "work limit of 9 units exceeded"
        );
        assert!(Exhausted::Injected { site: "x.y" }
            .to_string()
            .contains("x.y"));
    }
}
