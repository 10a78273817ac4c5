//! # cred-resilience — budgets, typed degradation, fault injection
//!
//! The exploration pipeline (retime → unfold → collapse) is built from
//! optimal searches whose worst cases are far from their common cases: a
//! pathological DFG can keep the SPFA solver relaxing for a long time, and
//! a single panicking sweep worker used to poison the shared plan cache
//! for the whole process. This crate is the cross-cutting layer that makes
//! those paths *interruptible* and their failures *typed*:
//!
//! * [`Budget`] — a wall-clock deadline plus a deterministic work-unit
//!   counter plus a cooperative [`CancelToken`], shared by reference
//!   across threads. Hot loops call [`Budget::charge`] once per unit of
//!   work; an unlimited budget reduces to a single branch.
//! * [`Exhausted`] — the typed error every budgeted path returns instead
//!   of a partial answer. Exhaustion is a *resource* outcome, never a
//!   wrong result: callers either retry with a bigger budget or degrade.
//! * [`DegradationEvent`] / [`DegradeCause`] — the record a caller emits
//!   when it falls back to a slower-but-sound path (the degradation
//!   ladder in `cred-explore` falls from the warm-started SPFA solver to
//!   the dense Bellman–Ford reference solver). Degradations are reported,
//!   never silent.
//! * [`failpoint`] — a deterministic, feature-gated fail-point framework
//!   (`fail-rs` style): named sites in retime/explore/codegen/vm that a
//!   seeded [`failpoint::ChaosPlan`] can trip with a panic, a delay, or a
//!   typed error, armed only on the installing thread and the workers it
//!   hands the plan to. The chaos harness in `cred-verify` replays the
//!   differential oracle under random plans and asserts that every
//!   injected fault surfaces as a typed degradation or an isolated
//!   failure — no hangs, no silent corruption.

pub mod budget;
pub mod failpoint;

pub use budget::{Budget, CancelToken, Exhausted};

use std::fmt;

/// Why a caller abandoned its fast path and degraded to a fallback.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DegradeCause {
    /// The fast path ran out of budget.
    Exhausted(Exhausted),
    /// The fast path panicked (payload rendered when it was a string).
    Panicked(String),
}

impl fmt::Display for DegradeCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DegradeCause::Exhausted(e) => write!(f, "budget exhausted: {e}"),
            DegradeCause::Panicked(p) => write!(f, "panicked: {p}"),
        }
    }
}

/// One recorded fall-back: where it happened and why. Degradation is the
/// middle rung of the ladder — the result delivered afterwards is still
/// *correct* (the fallback is a sound reference implementation), just
/// obtained more slowly; the event exists so no degradation is silent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DegradationEvent {
    /// The operation that degraded (e.g. `"explore.plan f=3"`).
    pub site: String,
    /// What went wrong on the fast path.
    pub cause: DegradeCause,
}

impl fmt::Display for DegradationEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} degraded ({})", self.site, self.cause)
    }
}

/// Render a caught panic payload (`Box<dyn Any>`) for diagnostics.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}
