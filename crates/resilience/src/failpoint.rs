//! Deterministic fail points (`fail-rs` style, vendored and minimal).
//!
//! Library crates mark interesting spots in their hot paths with
//! [`hit`] / [`hit_infallible`] under a **named site**. In a normal build
//! the calls compile to an inlined `Ok(())` — the `failpoints` cargo
//! feature is off. With the feature on (enabled by `cred-verify` for the
//! chaos harness and through it by the CLI), a [`ChaosPlan`] can be
//! [`install`]ed that trips chosen sites with one of three
//! [`FaultAction`]s:
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
//! `(seed, case index)` alone. A plan is armed on the thread that
//! [`install`]s it and nowhere else; a pool working for that thread hands
//! it to its workers with [`current`] and [`adopt`]. On a disarmed thread
//! a site costs one thread-local load. The first plan armed installs one
//! panic hook for the process: silent on armed threads (injected panics
//! are expected and caught), the previous hook everywhere else.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt;
use std::marker::PhantomData;
use std::sync::{Arc, Once};
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

    /// Test-only mutant (read with [`armed`](super::armed), not in
    /// [`ALL`]): the exact scheduler's reservation check believes every
    /// class has one more unit than the machine declares.
    pub const MUTANT_RESERVATION_SLACK: &str = "exact.mutant.reservation_slack";
    /// Test-only mutant (read with [`armed`](super::armed), not in
    /// [`ALL`]): the exact scheduler's one-unit waste bound is a cycle
    /// too strict.
    pub const MUTANT_WASTE_TIGHTENING: &str = "exact.mutant.waste_tightening";
    /// Test-only mutant (read with [`armed`](super::armed), not in
    /// [`ALL`]): the exact scheduler's slot-refined walk bound is one
    /// stage too strict.
    pub const MUTANT_WALK_TIGHTENING: &str = "exact.mutant.walk_tightening";
    /// Test-only mutant (read with [`armed`](super::armed), not in
    /// [`ALL`]): the exact scheduler's packing screen sees a window one
    /// cycle short, so it rejects packings that need the last cycle.
    pub const MUTANT_PACKING_WINDOW: &str = "exact.mutant.packing_window";

    /// Every fault site above, for plan sampling and documentation.
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

thread_local! {
    /// Fast-path flag: true while a plan is armed on this thread.
    static ARMED: Cell<bool> = const { Cell::new(false) };
    /// The plan armed on this thread.
    static PLAN: RefCell<Option<Arc<ChaosPlan>>> = const { RefCell::new(None) };
}

/// Arms a plan on one thread; dropping it restores the plan that thread
/// had before (usually none). Not `Send`: it must drop on the thread it
/// armed.
#[must_use = "the plan is disarmed when the guard drops"]
pub struct ChaosGuard {
    previous: Option<Arc<ChaosPlan>>,
    _thread: PhantomData<*const ()>,
}

impl Drop for ChaosGuard {
    fn drop(&mut self) {
        ARMED.set(self.previous.is_some());
        PLAN.set(self.previous.take());
    }
}

/// Arm `plan` on the calling thread until the returned guard drops.
#[cfg(feature = "failpoints")]
pub fn install(plan: ChaosPlan) -> ChaosGuard {
    adopt(Some(Arc::new(plan)))
}

/// The plan armed on the calling thread, for a worker to [`adopt`].
pub fn current() -> Option<Arc<ChaosPlan>> {
    PLAN.with_borrow(Option::clone)
}

/// Arm `plan` (as read by [`current`] on another thread) on the calling
/// thread until the returned guard drops; with `None` the thread stays
/// disarmed.
pub fn adopt(plan: Option<Arc<ChaosPlan>>) -> ChaosGuard {
    if plan.is_some() {
        quiet_armed_threads();
    }
    ARMED.set(plan.is_some());
    ChaosGuard {
        previous: PLAN.replace(plan),
        _thread: PhantomData,
    }
}

/// Install, once per process, the panic hook that keeps injected panics
/// quiet: nothing on a thread with a plan armed, the previous hook on
/// every other thread.
fn quiet_armed_threads() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !ARMED.get() {
                previous(info);
            }
        }));
    });
}

/// The action the calling thread's plan arms at `site`, if any. Kept out
/// of line: sites sit in hot loops, and only armed threads get here.
#[cfg(feature = "failpoints")]
#[cold]
fn action(site: &str) -> Option<FaultAction> {
    PLAN.with_borrow(|p| p.as_ref()?.action_for(site).cloned())
}

#[cfg(feature = "failpoints")]
#[cold]
fn fire(site: &'static str) -> Result<(), InjectedFault> {
    match action(site) {
        None => Ok(()),
        Some(FaultAction::Panic) => panic!("fail point '{site}': injected panic"),
        Some(FaultAction::Delay(d)) => {
            std::thread::sleep(d);
            Ok(())
        }
        Some(FaultAction::Error) => Err(InjectedFault { site }),
    }
}

/// Reach the named site. Fires the calling thread's plan's action, if
/// any: `Err(InjectedFault)` for `Error`, a panic for `Panic`, a sleep for
/// `Delay`. Compiles to an inlined `Ok(())` without the `failpoints`
/// feature.
#[inline]
pub fn hit(site: &'static str) -> Result<(), InjectedFault> {
    #[cfg(feature = "failpoints")]
    if ARMED.get() {
        return fire(site);
    }
    let _ = site;
    Ok(())
}

/// True when the calling thread's plan arms `site`, whatever the action:
/// how the mutant sites are read. Compiles to `false` without the
/// `failpoints` feature.
#[inline]
pub fn armed(site: &'static str) -> bool {
    #[cfg(feature = "failpoints")]
    if ARMED.get() {
        return action(site).is_some();
    }
    let _ = site;
    false
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
        assert_eq!(ChaosPlan::sample(1, sites::ALL, 0, 3), ChaosPlan::new());
        let all = ChaosPlan::sample(1, sites::ALL, 100, 3);
        assert_eq!(all.iter().count(), sites::ALL.len());
    }

    #[test]
    fn plan_builder_arms_sites() {
        let p = ChaosPlan::new()
            .trip("a.b", FaultAction::Error)
            .trip("c.d", FaultAction::Panic);
        assert_eq!(p.iter().count(), 2);
        assert_eq!(p.action_for("a.b"), Some(&FaultAction::Error));
        assert_eq!(p.action_for("nope"), None);
    }

    #[cfg(feature = "failpoints")]
    #[test]
    fn installed_plan_fires_and_disarms_on_drop() {
        let fired = {
            let _g = install(ChaosPlan::new().trip("t.error", FaultAction::Error));
            (hit("t.error"), hit("t.other"), armed("t.error"))
        };
        let fault = Err(InjectedFault { site: "t.error" });
        assert_eq!(fired, (fault, Ok(()), true));
        // Guard dropped: site is disarmed again.
        assert_eq!((hit("t.error"), armed("t.error")), (Ok(()), false));
    }

    #[cfg(feature = "failpoints")]
    #[test]
    fn panic_action_unwinds_with_recognizable_message() {
        let err = {
            let _g = install(ChaosPlan::new().trip("t.panic", FaultAction::Panic));
            std::panic::catch_unwind(|| hit("t.panic")).unwrap_err()
        };
        let msg = crate::panic_message(err.as_ref());
        assert!(msg.contains("injected panic"), "{msg}");
    }

    #[cfg(feature = "failpoints")]
    #[test]
    fn plan_stays_on_its_thread_and_nests() {
        let plan = |site| ChaosPlan::new().trip(site, FaultAction::Error);
        let fault = |site| Err(InjectedFault { site });
        // The bystander looks between the two waits, while this thread
        // holds its plan, whatever order the threads run in.
        let barrier = std::sync::Barrier::new(2);
        let bystander = std::thread::scope(|s| {
            let seen = s.spawn(|| {
                barrier.wait();
                let seen = (hit("t.outer"), armed("t.outer"));
                barrier.wait();
                seen
            });
            let _g = install(plan("t.outer"));
            barrier.wait();
            barrier.wait();
            seen.join().unwrap()
        });
        assert_eq!(bystander, (Ok(()), false), "the plan leaked");

        let (adopted, nested, restored) = {
            let _g = install(plan("t.outer"));
            let outer = current();
            let adopted = std::thread::spawn(|| {
                let _w = adopt(outer);
                hit("t.outer")
            });
            let nested = {
                let _inner = install(plan("t.inner"));
                (hit("t.outer"), hit("t.inner"))
            };
            let restored = (hit("t.outer"), hit("t.inner"));
            (adopted.join().unwrap(), nested, restored)
        };
        assert_eq!(adopted, fault("t.outer"));
        assert_eq!(nested, (Ok(()), fault("t.inner")));
        assert_eq!(restored, (fault("t.outer"), Ok(())));
    }

    #[test]
    fn uninstalled_sites_are_free() {
        assert_eq!(hit("never.installed"), Ok(()));
        assert!(!armed("never.installed"));
        hit_infallible("never.installed");
    }
}
