//! Deterministic fail points (`fail-rs` style, vendored and minimal).
//!
//! Library crates mark interesting spots in their hot paths with
//! [`hit`] / [`hit_infallible`] under a **named site**. In a normal build
//! the calls compile to an inlined `Ok(())` — the `failpoints` cargo
//! feature is off and no registry exists. With the feature on (enabled by
//! `cred-verify` for the chaos harness and through it by the CLI), a
//! [`ChaosPlan`] can be [`install`]ed that trips chosen sites with one of
//! three [`FaultAction`]s:
//!
//! * `Panic` — unwind from the site (tests worker isolation and lock
//!   poisoning);
//! * `Delay` — sleep briefly (tests deadlines and the absence of hangs);
//! * `Error` — surface a typed [`InjectedFault`] through the site's error
//!   channel (tests the degradation ladder). Sites without an error
//!   channel use [`hit_infallible`], which escalates `Error` to a panic.
//!
//! Plans are generated deterministically from a seed
//! ([`ChaosPlan::sample`]), so a failing chaos case reproduces from its
//! `(seed, case index)` alone. Installation is process-global and
//! serialized: [`install`] holds an exclusive guard for the plan's
//! lifetime, so concurrent tests cannot interleave plans.

use std::collections::BTreeMap;
use std::fmt;
use std::time::Duration;

/// What an armed fail point does when execution reaches it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultAction {
    /// Panic with a recognizable message.
    Panic,
    /// Sleep for the given duration, then continue normally.
    Delay(Duration),
    /// Return a typed [`InjectedFault`] from [`hit`].
    Error,
}

impl fmt::Display for FaultAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultAction::Panic => write!(f, "panic"),
            FaultAction::Delay(d) => write!(f, "delay {d:?}"),
            FaultAction::Error => write!(f, "error"),
        }
    }
}

/// The typed error an `Error`-armed site surfaces through its caller's
/// error channel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectedFault {
    /// The site that fired.
    pub site: &'static str,
}

impl fmt::Display for InjectedFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fault injected at {}", self.site)
    }
}

impl std::error::Error for InjectedFault {}

/// The catalog of named sites threaded through the workspace. A site not
/// in this list can still be tripped by name; the catalog is what
/// [`ChaosPlan::sample`] draws from, and what DESIGN.md documents.
pub mod sites {
    /// Inside the warm-started SPFA relaxation loop (`cred-retime`).
    pub const RETIME_SPFA: &str = "retime.spfa";
    /// Entry of the period binary search (`cred-retime`).
    pub const RETIME_MIN_PERIOD: &str = "retime.min_period";
    /// Before the fast (solver) path of a plan computation
    /// (`cred-explore`).
    pub const EXPLORE_PLAN_FAST: &str = "explore.plan.fast";
    /// Before the reference fallback of a plan computation
    /// (`cred-explore`).
    pub const EXPLORE_PLAN_REFERENCE: &str = "explore.plan.reference";
    /// Inside the sweep cache's locked insert section (`cred-explore`) —
    /// a panic here poisons the cache mutex on purpose.
    pub const EXPLORE_CACHE_INSERT: &str = "explore.cache.insert";
    /// Entry of CRED code generation (`cred-codegen`; no error channel).
    pub const CODEGEN_CRED: &str = "codegen.cred";
    /// Entry of retime+unfold code generation (`cred-codegen`; no error
    /// channel).
    pub const CODEGEN_UNFOLD: &str = "codegen.unfold";
    /// Once per loop iteration of the VM interpreter (`cred-vm`).
    pub const VM_EXEC: &str = "vm.exec";
    /// Entry of the tape compiler lowering a program (`cred-vm`).
    pub const VM_COMPILE: &str = "vm.compile";
    /// Once per branch-and-bound decision of the exact resource-
    /// constrained scheduler (`cred-exact`).
    pub const EXACT_BRANCH: &str = "exact.branch";

    /// Every site above, for plan sampling and documentation.
    pub const ALL: &[&str] = &[
        RETIME_SPFA,
        RETIME_MIN_PERIOD,
        EXPLORE_PLAN_FAST,
        EXPLORE_PLAN_REFERENCE,
        EXPLORE_CACHE_INSERT,
        CODEGEN_CRED,
        CODEGEN_UNFOLD,
        VM_EXEC,
        VM_COMPILE,
        EXACT_BRANCH,
    ];
}

/// A set of armed sites. Deterministic: iteration order is the site
/// name's, and sampling is a pure function of the seed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChaosPlan {
    actions: BTreeMap<String, FaultAction>,
}

impl ChaosPlan {
    /// An empty plan (no site fires).
    pub fn new() -> Self {
        Self::default()
    }

    /// Arm `site` with `action` (builder style).
    pub fn trip(mut self, site: &str, action: FaultAction) -> Self {
        self.actions.insert(site.to_string(), action);
        self
    }

    /// The action armed for `site`, if any.
    pub fn action_for(&self, site: &str) -> Option<&FaultAction> {
        self.actions.get(site)
    }

    /// Number of armed sites.
    pub fn len(&self) -> usize {
        self.actions.len()
    }

    /// True when no site is armed.
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }

    /// Armed `(site, action)` pairs in site-name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &FaultAction)> {
        self.actions.iter().map(|(s, a)| (s.as_str(), a))
    }

    /// Draw a random plan: each site in `catalog` is armed independently
    /// with probability `trip_percent`/100, with a uniformly chosen
    /// action (delays are 1..=`max_delay_ms` ms). Pure in `seed`.
    pub fn sample(seed: u64, catalog: &[&str], trip_percent: u32, max_delay_ms: u64) -> Self {
        let mut state = seed;
        let mut next = move || -> u64 {
            // splitmix64 — deterministic and dependency-free.
            state = state.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        };
        let mut plan = ChaosPlan::new();
        for &site in catalog {
            if next() % 100 >= trip_percent as u64 {
                continue;
            }
            let action = match next() % 3 {
                0 => FaultAction::Panic,
                1 => FaultAction::Delay(Duration::from_millis(1 + next() % max_delay_ms.max(1))),
                _ => FaultAction::Error,
            };
            plan = plan.trip(site, action);
        }
        plan
    }
}

#[cfg(feature = "failpoints")]
mod registry {
    use super::{ChaosPlan, FaultAction, InjectedFault};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Mutex, MutexGuard};

    /// Fast-path flag: `hit` is a single relaxed load unless a plan is
    /// installed.
    static ACTIVE: AtomicBool = AtomicBool::new(false);
    /// The installed plan plus the log of sites that actually fired.
    static STATE: Mutex<State> = Mutex::new(State {
        plan: None,
        fired: Vec::new(),
    });
    /// Serializes installations: the guard of the current plan holds this
    /// lock, so two tests (or threads) cannot interleave plans.
    static INSTALL: Mutex<()> = Mutex::new(());

    struct State {
        plan: Option<ChaosPlan>,
        fired: Vec<(String, FaultAction)>,
    }

    fn state() -> MutexGuard<'static, State> {
        // A panicking fail point cannot poison STATE (panics are raised
        // after the guard is dropped), but be tolerant anyway.
        STATE.lock().unwrap_or_else(|p| {
            STATE.clear_poison();
            p.into_inner()
        })
    }

    /// Exclusive handle to the installed plan; dropping it disarms every
    /// site and releases the installation lock.
    pub struct ChaosGuard {
        _install: MutexGuard<'static, ()>,
    }

    impl Drop for ChaosGuard {
        fn drop(&mut self) {
            ACTIVE.store(false, Ordering::SeqCst);
            state().plan = None;
        }
    }

    /// Install `plan` process-wide until the returned guard drops.
    pub fn install(plan: ChaosPlan) -> ChaosGuard {
        let install = INSTALL.lock().unwrap_or_else(|p| {
            INSTALL.clear_poison();
            p.into_inner()
        });
        {
            let mut st = state();
            st.plan = Some(plan);
            st.fired.clear();
        }
        ACTIVE.store(true, Ordering::SeqCst);
        ChaosGuard { _install: install }
    }

    /// Sites that fired since the last [`install`], in firing order.
    pub fn take_fired() -> Vec<(String, FaultAction)> {
        std::mem::take(&mut state().fired)
    }

    pub(super) fn consult(site: &'static str) -> Result<(), InjectedFault> {
        if !ACTIVE.load(Ordering::Relaxed) {
            return Ok(());
        }
        let action = {
            let mut st = state();
            let Some(action) = st.plan.as_ref().and_then(|p| p.action_for(site)).cloned() else {
                return Ok(());
            };
            st.fired.push((site.to_string(), action.clone()));
            action
        };
        match action {
            FaultAction::Panic => panic!("fail point '{site}': injected panic"),
            FaultAction::Delay(d) => {
                std::thread::sleep(d);
                Ok(())
            }
            FaultAction::Error => Err(InjectedFault { site }),
        }
    }
}

#[cfg(feature = "failpoints")]
pub use registry::{install, take_fired, ChaosGuard};

/// Reach the named site. Fires the installed plan's action, if any:
/// `Err(InjectedFault)` for `Error`, a panic for `Panic`, a sleep for
/// `Delay`. Compiles to an inlined `Ok(())` without the `failpoints`
/// feature.
#[inline]
pub fn hit(site: &'static str) -> Result<(), InjectedFault> {
    #[cfg(feature = "failpoints")]
    {
        registry::consult(site)
    }
    #[cfg(not(feature = "failpoints"))]
    {
        let _ = site;
        Ok(())
    }
}

/// [`hit`] for sites without an error channel: an `Error` action is
/// escalated to a panic (documented in the site catalog), so no injection
/// is ever silently swallowed.
#[inline]
pub fn hit_infallible(site: &'static str) {
    if let Err(f) = hit(site) {
        panic!("fail point '{site}': {f} (no error channel; escalated)");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_is_deterministic_and_respects_probability() {
        let a = ChaosPlan::sample(7, sites::ALL, 50, 3);
        let b = ChaosPlan::sample(7, sites::ALL, 50, 3);
        assert_eq!(a, b);
        assert!(ChaosPlan::sample(1, sites::ALL, 0, 3).is_empty());
        assert_eq!(
            ChaosPlan::sample(1, sites::ALL, 100, 3).len(),
            sites::ALL.len()
        );
    }

    #[test]
    fn plan_builder_arms_sites() {
        let p = ChaosPlan::new()
            .trip("a.b", FaultAction::Error)
            .trip("c.d", FaultAction::Panic);
        assert_eq!(p.len(), 2);
        assert_eq!(p.action_for("a.b"), Some(&FaultAction::Error));
        assert_eq!(p.action_for("nope"), None);
    }

    #[cfg(feature = "failpoints")]
    #[test]
    fn installed_plan_fires_and_disarms_on_drop() {
        {
            let _g = install(ChaosPlan::new().trip("t.error", FaultAction::Error));
            assert_eq!(hit("t.error"), Err(InjectedFault { site: "t.error" }));
            assert_eq!(hit("t.other"), Ok(()));
            let fired = take_fired();
            assert_eq!(fired.len(), 1);
            assert_eq!(fired[0].0, "t.error");
        }
        // Guard dropped: site is disarmed again.
        assert_eq!(hit("t.error"), Ok(()));
    }

    #[cfg(feature = "failpoints")]
    #[test]
    fn panic_action_unwinds_with_recognizable_message() {
        let _g = install(ChaosPlan::new().trip("t.panic", FaultAction::Panic));
        let err = std::panic::catch_unwind(|| hit("t.panic")).unwrap_err();
        let msg = crate::panic_message(err.as_ref());
        assert!(msg.contains("injected panic"), "{msg}");
    }

    #[test]
    fn uninstalled_sites_are_free() {
        assert_eq!(hit("never.installed"), Ok(()));
        hit_infallible("never.installed");
    }
}
