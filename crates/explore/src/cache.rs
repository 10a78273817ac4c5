//! Per-sweep memoization of the expensive retiming passes, hardened
//! against runaway solves, worker panics, and cache corruption.
//!
//! Every trade-off point needs three retiming passes over the unfolded
//! graph (period search, span minimization, register compaction), each of
//! which — in the straightforward [`crate::sweep_reference`] path —
//! recomputes the same W/D matrices from scratch (one delay-layer sweep
//! per node, see [`WdMatrices::compute`]). The cache layer fixes both
//! redundancies:
//!
//! * within one factor, the W/D matrices are computed **once** and shared
//!   across all three passes (the `*_with` entry points in `cred-retime`);
//! * across calls, the finished [`FactorPlan`] is memoized under the key
//!   `(Dfg::fingerprint(), f)`, so sweeping the same kernel again — from
//!   another thread, another sweep, or a constrained search revisiting a
//!   factor — returns the stored plan without touching the solver.
//!
//! On top of the memoization, this module carries the explore side of the
//! resilience layer (`cred-resilience`):
//!
//! * [`compute_plan_budgeted`] runs the warm-started solver under a
//!   [`Budget`] and **degrades** to the dense [`ConstraintSystem`]
//!   reference solver when the fast path exhausts its budget or panics —
//!   recorded as a [`DegradationEvent`] in the returned [`PlanSource`],
//!   never a silent wrong answer (the reference is bit-identical by the
//!   solver's differential tests, just slower);
//! * [`SweepCache`] is bounded (LRU eviction above
//!   [`SweepCache::with_capacity`]), recovers from lock poisoning with
//!   clear-and-continue semantics instead of panicking every later
//!   caller, and verifies a stored plan's checksum on every hit, evicting
//!   and recomputing on mismatch (self-healing).
//!
//! The table is **sharded by DFG fingerprint**: entries land in one of a
//! power-of-two number of independent shards, each with its own lock, LRU
//! clock, and counters, so a thousand concurrent clients hammering
//! different kernels never serialize on one mutex. All the robustness
//! properties hold per shard (a poisoned shard clears only itself), and
//! every public counter is the rollup across shards.
//!
//! The cached plan holds only the *decisions* (projected retiming and
//! achieved period); code generation is deterministic given those, so
//! points produced from a cached plan are identical to freshly computed
//! ones, bit for bit.
//!
//! [`ConstraintSystem`]: cred_retime::ConstraintSystem

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use cred_dfg::algo::WdMatrices;
use cred_dfg::Dfg;
use cred_resilience::failpoint::{self, sites};
use cred_resilience::{panic_message, Budget, DegradationEvent, DegradeCause, Exhausted};
use cred_retime::minperiod::min_period_retiming_reference;
use cred_retime::span::{compact_values_wd, min_span_retiming_reference};
use cred_retime::{RetimeSolver, Retiming};
use cred_unfold::orders::project_retiming;
use cred_unfold::unfold;

/// Everything the sweep decides for one `(graph, f)` pair: the projected
/// (span-minimized, register-compacted) retiming and the rate-optimal
/// period of the `f`-unfolded graph. Code sizes are *not* stored — they
/// depend on the iteration count and decrement mode, and regenerating them
/// from the plan is cheap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FactorPlan {
    /// Retiming of the original graph, projected from the unfolded one
    /// (Theorem 4.5), span-minimized and value-compacted.
    pub projected: Retiming,
    /// Minimum cycle period of the `f`-unfolded graph.
    pub period: u64,
}

impl FactorPlan {
    /// Content checksum (FNV-1a over the retiming values and the period).
    /// Stored next to every cache entry and re-verified on each hit; a
    /// mismatch marks the entry corrupted and triggers self-healing
    /// eviction.
    pub fn checksum(&self) -> u64 {
        let mut h: u64 = 0xcbf29ce484222325;
        let mut mix = |x: u64| {
            for b in x.to_le_bytes() {
                h = (h ^ b as u64).wrapping_mul(0x100000001b3);
            }
        };
        mix(self.period);
        mix(self.projected.len() as u64);
        for &v in self.projected.values() {
            mix(v as u64);
        }
        h
    }
}

/// How a plan was obtained: the warm-started fast solver, or the dense
/// reference solver after the fast path degraded. Both produce
/// bit-identical plans; the distinction exists so degradations surface in
/// sweep reports and exit codes instead of disappearing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanSource {
    /// The warm-started SPFA solver finished within budget.
    Solver,
    /// The fast path was abandoned and the dense Bellman–Ford reference
    /// solver produced the plan. The event records why.
    Reference(DegradationEvent),
}

impl PlanSource {
    /// True when the fast path delivered the plan.
    pub fn is_fast(&self) -> bool {
        matches!(self, PlanSource::Solver)
    }
}

/// Compute a [`FactorPlan`] with a single shared W/D computation and one
/// warm-started solver.
///
/// This is the uncached fast path; [`SweepCache::plan`] wraps it with
/// memoization. It yields plans identical to the per-point pipeline of
/// [`crate::sweep_reference`] while doing strictly less work: the W/D
/// matrices are computed once instead of three times, and one
/// [`RetimeSolver`] carries its CSR graph and warm-start state from the
/// period search straight into the span minimization — the span pass
/// starts from the search's final feasible fixpoint instead of re-solving
/// the period system.
pub fn compute_plan(g: &Dfg, f: usize) -> FactorPlan {
    match plan_fast(g, f, &Budget::unlimited()) {
        Ok(plan) => plan,
        Err(e) => panic!("unlimited-budget plan cannot exhaust: {e}"),
    }
}

/// The budgeted fast path: warm-started solver pipeline, every pass
/// charging the same budget.
fn plan_fast(g: &Dfg, f: usize, budget: &Budget) -> Result<FactorPlan, Exhausted> {
    failpoint::hit(sites::EXPLORE_PLAN_FAST).map_err(|e| Exhausted::Injected { site: e.site })?;
    budget.check()?;
    let u = unfold(g, f);
    let wd = WdMatrices::compute(&u.graph);
    let mut solver = RetimeSolver::new(&u.graph, &wd);
    let opt = solver.min_period_budgeted(budget)?;
    let r_f = solver.min_span_from_base_budgeted(opt.period, &opt.retiming, budget)?;
    let r_f = compact_values_wd(&u.graph, &wd, opt.period, &r_f);
    let projected = project_retiming(&u, &r_f);
    Ok(FactorPlan {
        projected,
        period: opt.period,
    })
}

/// The degradation fallback: the dense reference pipeline (full
/// [`cred_retime::ConstraintSystem`] + edge-list Bellman–Ford per pass).
/// Guaranteed to terminate in `O(V * E)` rounds per solve — no warm-start
/// state, no SPFA heuristics — and bit-identical to the fast path by the
/// solver's differential tests.
fn plan_reference(g: &Dfg, f: usize) -> FactorPlan {
    failpoint::hit_infallible(sites::EXPLORE_PLAN_REFERENCE);
    let u = unfold(g, f);
    let wd = WdMatrices::compute(&u.graph);
    let opt = min_period_retiming_reference(&u.graph, &wd);
    let r_f = min_span_retiming_reference(&u.graph, &wd, opt.period)
        .expect("the optimal period is always span-feasible");
    let r_f = compact_values_wd(&u.graph, &wd, opt.period, &r_f);
    let projected = project_retiming(&u, &r_f);
    FactorPlan {
        projected,
        period: opt.period,
    }
}

/// Compute a plan under `budget`, degrading gracefully.
///
/// The ladder:
///
/// 1. run the warm-started solver pipeline under `budget`;
/// 2. if it exhausts (deadline, work units, injected fault) **or
///    panics**, fall back to the dense reference solver and record a
///    [`DegradationEvent`] in the returned [`PlanSource`];
/// 3. cancellation is never degraded around — the caller asked the whole
///    operation to stop, so `Err(Exhausted::Cancelled)` propagates.
///
/// A panic in the *reference* path (nothing left to fall back to)
/// propagates to the caller; the sweep behind [`crate::ExploreRequest`]
/// isolates it per point.
pub fn compute_plan_budgeted(
    g: &Dfg,
    f: usize,
    budget: &Budget,
) -> Result<(FactorPlan, PlanSource), Exhausted> {
    let cause = match catch_unwind(AssertUnwindSafe(|| plan_fast(g, f, budget))) {
        Ok(Ok(plan)) => return Ok((plan, PlanSource::Solver)),
        Ok(Err(Exhausted::Cancelled)) => return Err(Exhausted::Cancelled),
        Ok(Err(e)) => DegradeCause::Exhausted(e),
        Err(payload) => DegradeCause::Panicked(panic_message(payload.as_ref())),
    };
    let event = DegradationEvent {
        site: format!("explore.plan f={f}"),
        cause,
    };
    Ok((plan_reference(g, f), PlanSource::Reference(event)))
}

/// One stored plan plus its integrity and recency metadata.
#[derive(Debug)]
struct CacheEntry {
    plan: Arc<FactorPlan>,
    /// [`FactorPlan::checksum`] captured at insert time.
    checksum: u64,
    /// Logical timestamp of the last hit (for LRU eviction).
    last_used: u64,
}

#[derive(Debug, Default)]
struct CacheInner {
    plans: HashMap<(u64, usize), CacheEntry>,
    /// Monotonic logical clock driving `last_used`.
    tick: u64,
}

/// One independent slice of the table: its own lock, LRU clock, and
/// counters. Poisoning clears this shard only.
#[derive(Debug, Default)]
struct Shard {
    inner: Mutex<CacheInner>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    poison_recoveries: AtomicU64,
}

impl Shard {
    /// Lock this shard, recovering from poisoning: a panic under the lock
    /// (one crashed worker) clears the shard and un-poisons the mutex, so
    /// the cache keeps serving — conservatively cold — instead of
    /// bricking every later query. Other shards are untouched.
    fn lock(&self) -> MutexGuard<'_, CacheInner> {
        self.inner.lock().unwrap_or_else(|poisoned| {
            self.inner.clear_poison();
            self.poison_recoveries.fetch_add(1, Ordering::Relaxed);
            let mut guard = poisoned.into_inner();
            guard.plans.clear();
            guard
        })
    }
}

/// Per-shard counter snapshot (test and metrics observability).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardStats {
    /// Lookups this shard answered from its memo table.
    pub hits: u64,
    /// Lookups this shard sent to a solver.
    pub misses: u64,
    /// Entries this shard dropped (LRU bound or checksum self-healing).
    pub evictions: u64,
    /// Times this shard's lock was recovered after a panic under it.
    pub poison_recoveries: u64,
    /// Plans currently stored in this shard.
    pub len: usize,
}

/// Default shard count for unbounded caches ([`SweepCache::new`]).
const DEFAULT_SHARDS: usize = 16;

/// Thread-safe, bounded, self-healing, sharded memo table for
/// [`FactorPlan`]s, keyed by `(Dfg::fingerprint(), f)`.
///
/// Shared by reference between the workers of a sweep and, optionally,
/// across whole sweeps (the suite runner and the evaluation service keep
/// one cache for all kernels; fingerprints keep their entries apart).
/// Entries are distributed over independent shards by DFG fingerprint, so
/// concurrent lookups of different kernels take different locks; all the
/// factors of one kernel share a shard. Two threads racing on the same
/// key may both compute the plan; the first insert wins and both callers
/// observe the same `Arc`, so results stay deterministic.
///
/// Robustness properties (each holding per shard):
///
/// * **bounded** — at most `capacity` entries (unbounded by default);
///   inserting past a shard's bound evicts its least-recently-used entry
///   and bumps [`evictions`](Self::evictions);
/// * **poison-tolerant** — a worker that panics while holding a shard
///   lock poisons it once; the next caller recovers the lock and clears
///   *that shard* (a panicking writer may have left it mid-update),
///   counted by [`poison_recoveries`](Self::poison_recoveries), instead
///   of propagating panics to every later query forever;
/// * **self-healing** — every hit re-verifies the entry's checksum; a
///   corrupted entry is evicted and recomputed instead of served, without
///   disturbing any other entry.
#[derive(Debug)]
pub struct SweepCache {
    shards: Box<[Shard]>,
    /// Entry bound per shard (`None` = unbounded).
    shard_capacity: Option<usize>,
}

impl Default for SweepCache {
    fn default() -> Self {
        Self::with_layout(DEFAULT_SHARDS, None)
    }
}

impl SweepCache {
    /// Fresh, empty, unbounded cache with the default shard count.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fresh cache holding at most (approximately) `capacity` plans, LRU
    /// per shard. The shard count is derived from the capacity — small
    /// caches stay single-sharded so the LRU behaves globally; large
    /// caches spread over up to 16 shards (the [`SweepCache::new`]
    /// layout), each bounded by `capacity / shards` (the global bound
    /// rounds down to a multiple of the shard count).
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity >= 1, "a zero-capacity cache cannot memoize");
        // Keep at least 8 entries per shard so one kernel's factor range
        // cannot thrash a tiny shard.
        let shards = (capacity / 8).clamp(1, DEFAULT_SHARDS).next_power_of_two();
        let shards = if shards * 8 > capacity {
            shards / 2
        } else {
            shards
        }
        .max(1);
        Self::with_layout(shards, Some(capacity))
    }

    /// Fully explicit layout: `shards` (rounded up to a power of two) and
    /// an optional *total* capacity, split evenly across shards. The
    /// single-shard layout reproduces the pre-sharding cache exactly —
    /// one lock, one global LRU order.
    ///
    /// # Panics
    /// Panics if `shards` is zero, or a capacity is given that leaves a
    /// shard with no room (`capacity < shards`).
    pub fn with_layout(shards: usize, capacity: Option<usize>) -> Self {
        assert!(shards >= 1, "a cache needs at least one shard");
        let shards = shards.next_power_of_two();
        let shard_capacity = capacity.map(|cap| {
            assert!(
                cap >= shards,
                "capacity {cap} leaves some of the {shards} shards empty"
            );
            cap / shards
        });
        SweepCache {
            shards: (0..shards).map(|_| Shard::default()).collect(),
            shard_capacity,
        }
    }

    /// The shard owning `fingerprint`. The fingerprint is already a
    /// 64-bit hash; one multiplicative mix spreads structurally similar
    /// kernels (whose fingerprints may share low bits) across shards.
    fn shard_of(&self, fingerprint: u64) -> &Shard {
        let mix = fingerprint.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        &self.shards[(mix >> 32) as usize & (self.shards.len() - 1)]
    }

    /// How many shards this cache spreads over.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The counters of shard `i` (panics when out of range). The rollup
    /// getters below sum these; tests assert the two views agree.
    pub fn shard_stats(&self, i: usize) -> ShardStats {
        let s = &self.shards[i];
        ShardStats {
            hits: s.hits.load(Ordering::Relaxed),
            misses: s.misses.load(Ordering::Relaxed),
            evictions: s.evictions.load(Ordering::Relaxed),
            poison_recoveries: s.poison_recoveries.load(Ordering::Relaxed),
            len: s.lock().plans.len(),
        }
    }

    /// The plan for `(g, f)`, computed on first use and memoized after.
    pub fn plan(&self, g: &Dfg, f: usize) -> Arc<FactorPlan> {
        match self.plan_budgeted(g, f, &Budget::unlimited()) {
            Ok((plan, _)) => plan,
            Err(e) => panic!("unlimited-budget plan cannot exhaust: {e}"),
        }
    }

    /// The plan for `(g, f)` under `budget`, with the degradation ladder
    /// of [`compute_plan_budgeted`] on the miss path. Cache hits never
    /// degrade: the stored plan is bit-identical whichever solver
    /// produced it, so a hit reports [`PlanSource::Solver`].
    pub fn plan_budgeted(
        &self,
        g: &Dfg,
        f: usize,
        budget: &Budget,
    ) -> Result<(Arc<FactorPlan>, PlanSource), Exhausted> {
        let key = (g.fingerprint(), f);
        let shard = self.shard_of(key.0);
        {
            let mut inner = shard.lock();
            inner.tick += 1;
            let tick = inner.tick;
            if let Some(entry) = inner.plans.get_mut(&key) {
                if entry.plan.checksum() == entry.checksum {
                    entry.last_used = tick;
                    shard.hits.fetch_add(1, Ordering::Relaxed);
                    return Ok((Arc::clone(&entry.plan), PlanSource::Solver));
                }
                // Self-healing: the stored plan no longer matches its
                // insert-time checksum. Serving it would be silent
                // corruption; evict and fall through to recompute.
                inner.plans.remove(&key);
                shard.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        shard.misses.fetch_add(1, Ordering::Relaxed);
        // No lock is held while solving: plans can take milliseconds, and
        // other workers should keep making progress on other factors.
        let (plan, source) = compute_plan_budgeted(g, f, budget)?;
        let plan = Arc::new(plan);
        let checksum = plan.checksum();
        let mut inner = shard.lock();
        // A chaos plan can panic here, *while the lock is held* — that is
        // exactly the scenario the poison recovery above exists for.
        failpoint::hit_infallible(sites::EXPLORE_CACHE_INSERT);
        inner.tick += 1;
        let tick = inner.tick;
        let stored = match inner.plans.entry(key) {
            std::collections::hash_map::Entry::Occupied(e) => Arc::clone(&e.get().plan),
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(CacheEntry {
                    plan: Arc::clone(&plan),
                    checksum,
                    last_used: tick,
                });
                plan
            }
        };
        if let Some(cap) = self.shard_capacity {
            while inner.plans.len() > cap {
                let oldest = inner
                    .plans
                    .iter()
                    .min_by_key(|(_, e)| e.last_used)
                    .map(|(k, _)| *k)
                    .expect("len > cap >= 1 implies non-empty");
                inner.plans.remove(&oldest);
                shard.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        Ok((stored, source))
    }

    /// Lookups answered from the memo table (all shards).
    pub fn hits(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.hits.load(Ordering::Relaxed))
            .sum()
    }

    /// Lookups that had to run the solver (all shards).
    pub fn misses(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.misses.load(Ordering::Relaxed))
            .sum()
    }

    /// Entries dropped — by a shard's LRU capacity bound or by checksum
    /// self-healing (all shards).
    pub fn evictions(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.evictions.load(Ordering::Relaxed))
            .sum()
    }

    /// Times a shard lock was recovered (and that shard cleared) after a
    /// worker panicked while holding it.
    pub fn poison_recoveries(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.poison_recoveries.load(Ordering::Relaxed))
            .sum()
    }

    /// Number of distinct `(fingerprint, f)` plans currently stored.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().plans.len()).sum()
    }

    /// `true` when no plan has been stored yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Test hook: overwrite the stored checksum of `(g, f)`'s entry so
    /// the next hit sees a corrupted entry. Returns `false` when the
    /// entry is absent. Not part of the stable API.
    #[doc(hidden)]
    pub fn corrupt_entry_for_test(&self, g: &Dfg, f: usize) -> bool {
        let key = (g.fingerprint(), f);
        let mut inner = self.shard_of(key.0).lock();
        match inner.plans.get_mut(&key) {
            Some(e) => {
                e.checksum ^= 0xDEAD_BEEF;
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cred_dfg::gen;

    #[test]
    fn plan_is_memoized_per_graph_and_factor() {
        let g = gen::chain_with_feedback(6, 3);
        let cache = SweepCache::new();
        let a = cache.plan(&g, 2);
        let b = cache.plan(&g, 2);
        assert!(Arc::ptr_eq(&a, &b), "second lookup must hit the memo");
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        // A different factor is a different entry.
        let _ = cache.plan(&g, 3);
        assert_eq!(cache.misses(), 2);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 0);
        assert_eq!(cache.poison_recoveries(), 0);
    }

    #[test]
    fn distinct_graphs_do_not_collide() {
        let g1 = gen::chain_with_feedback(6, 3);
        let g2 = gen::chain_with_feedback(5, 2);
        let cache = SweepCache::new();
        let a = cache.plan(&g1, 1);
        let b = cache.plan(&g2, 1);
        assert_eq!(cache.misses(), 2, "different fingerprints, two solves");
        assert!(!Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn cached_plan_matches_uncached_pipeline() {
        use cred_retime::min_period_retiming;
        use cred_retime::span::{compact_values, min_span_retiming};
        use cred_unfold::{orders::project_retiming, unfold};

        let g = gen::chain_with_feedback(7, 3);
        for f in 1..=3 {
            let plan = compute_plan(&g, f);
            // The original three-solve pipeline, each pass recomputing W/D.
            let u = unfold(&g, f);
            let opt = min_period_retiming(&u.graph);
            let r_f = min_span_retiming(&u.graph, opt.period).unwrap();
            let r_f = compact_values(&u.graph, opt.period, &r_f);
            assert_eq!(plan.period, opt.period, "f = {f}");
            assert_eq!(plan.projected, project_retiming(&u, &r_f), "f = {f}");
        }
    }

    #[test]
    fn capacity_bound_evicts_least_recently_used() {
        let g = gen::chain_with_feedback(6, 3);
        let cache = SweepCache::with_capacity(2);
        cache.plan(&g, 1);
        cache.plan(&g, 2);
        // Touch f = 1 so f = 2 is the LRU entry.
        cache.plan(&g, 1);
        cache.plan(&g, 3); // evicts f = 2
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 1);
        // f = 1 survived (recently used): hitting it is free.
        let hits = cache.hits();
        cache.plan(&g, 1);
        assert_eq!(cache.hits(), hits + 1);
        // f = 2 was evicted: it is a miss again, and still correct.
        let misses = cache.misses();
        let again = cache.plan(&g, 2);
        assert_eq!(cache.misses(), misses + 1);
        assert_eq!(*again, compute_plan(&g, 2));
    }

    #[test]
    fn corrupted_entry_is_evicted_and_recomputed() {
        let g = gen::chain_with_feedback(6, 3);
        let cache = SweepCache::new();
        let original = cache.plan(&g, 2);
        assert!(cache.corrupt_entry_for_test(&g, 2));
        // The next lookup must detect the checksum mismatch, evict, and
        // recompute — never serve the corrupted entry silently.
        let healed = cache.plan(&g, 2);
        assert_eq!(cache.evictions(), 1);
        assert_eq!(cache.misses(), 2);
        assert_eq!(*healed, *original, "healed entry is the true plan");
        // Entry is healthy again afterwards.
        let hits = cache.hits();
        cache.plan(&g, 2);
        assert_eq!(cache.hits(), hits + 1);
    }

    #[test]
    fn budgeted_plan_reports_degradation_instead_of_failing() {
        let g = gen::chain_with_feedback(7, 3);
        // A 0-unit work budget exhausts inside the first SPFA probe; the
        // ladder must fall back to the reference solver and say so.
        let budget = Budget::unlimited().with_work_limit(0);
        let cache = SweepCache::new();
        let (plan, source) = cache.plan_budgeted(&g, 2, &budget).unwrap();
        match &source {
            PlanSource::Reference(event) => {
                assert!(
                    matches!(
                        event.cause,
                        DegradeCause::Exhausted(Exhausted::WorkUnits { .. })
                    ),
                    "{event}"
                );
            }
            PlanSource::Solver => panic!("0-unit budget cannot finish the fast path"),
        }
        // Degraded, but bit-identical to the unconstrained plan.
        assert_eq!(*plan, compute_plan(&g, 2));
        // And the *cached* plan now serves fast-path hits.
        let (_, source) = cache.plan_budgeted(&g, 2, &budget).unwrap();
        assert!(source.is_fast(), "cache hit must not re-degrade");
    }

    #[test]
    fn cancellation_propagates_without_fallback() {
        let g = gen::chain_with_feedback(5, 2);
        let tok = cred_resilience::CancelToken::new();
        tok.cancel();
        let budget = Budget::unlimited().with_cancel(tok);
        let cache = SweepCache::new();
        assert_eq!(
            cache.plan_budgeted(&g, 1, &budget).unwrap_err(),
            Exhausted::Cancelled
        );
        assert!(cache.is_empty(), "cancelled lookups store nothing");
    }

    #[test]
    fn capacity_derives_a_sane_shard_layout() {
        // Small caches stay single-sharded so the LRU is global...
        assert_eq!(SweepCache::with_capacity(2).shard_count(), 1);
        assert_eq!(SweepCache::with_capacity(15).shard_count(), 1);
        // ...larger ones spread, always keeping >= 8 entries per shard.
        for cap in [16, 100, 1024, 4096] {
            let cache = SweepCache::with_capacity(cap);
            let shards = cache.shard_count();
            assert!(shards.is_power_of_two(), "cap {cap}: {shards} shards");
            assert!(shards <= DEFAULT_SHARDS);
            assert!(cap / shards >= 8, "cap {cap}: {shards} shards");
        }
        assert_eq!(SweepCache::with_capacity(1024).shard_count(), 16);
    }

    #[test]
    fn shard_counters_roll_up_to_the_totals() {
        let cache = SweepCache::with_layout(8, None);
        assert_eq!(cache.shard_count(), 8);
        // A handful of structurally distinct kernels spread across
        // shards; every getter must equal the sum over shard_stats.
        let graphs: Vec<_> = (3..9).map(|k| gen::chain_with_feedback(k, 2)).collect();
        for g in &graphs {
            cache.plan(g, 1);
            cache.plan(g, 2);
            cache.plan(g, 1); // hit
        }
        let (mut hits, mut misses, mut evictions, mut len) = (0, 0, 0, 0);
        for i in 0..cache.shard_count() {
            let s = cache.shard_stats(i);
            hits += s.hits;
            misses += s.misses;
            evictions += s.evictions;
            len += s.len;
        }
        assert_eq!(hits, cache.hits());
        assert_eq!(misses, cache.misses());
        assert_eq!(evictions, cache.evictions());
        assert_eq!(len, cache.len());
        assert_eq!(misses, 2 * graphs.len() as u64);
        assert_eq!(hits, graphs.len() as u64);
    }

    #[test]
    fn factors_of_one_kernel_share_a_shard() {
        // Sharding is by fingerprint alone, so a kernel's whole factor
        // range colocates: exactly one shard is non-empty.
        let cache = SweepCache::with_layout(16, None);
        let g = gen::chain_with_feedback(6, 3);
        for f in 1..=4 {
            cache.plan(&g, f);
        }
        let occupied = (0..cache.shard_count())
            .filter(|&i| cache.shard_stats(i).len > 0)
            .count();
        assert_eq!(occupied, 1);
        assert_eq!(cache.len(), 4);
    }

    #[test]
    fn single_shard_layout_matches_the_unsharded_lru() {
        // with_layout(1, cap) is the pre-sharding cache: one lock, one
        // global LRU order (the with_capacity LRU test above exercises
        // the same layout via capacity derivation).
        let g = gen::chain_with_feedback(6, 3);
        let cache = SweepCache::with_layout(1, Some(2));
        assert_eq!(cache.shard_count(), 1);
        cache.plan(&g, 1);
        cache.plan(&g, 2);
        cache.plan(&g, 1);
        cache.plan(&g, 3); // evicts the LRU entry, f = 2
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 1);
        let hits = cache.hits();
        cache.plan(&g, 1);
        assert_eq!(cache.hits(), hits + 1, "f = 1 must have survived");
    }

    #[test]
    fn checksum_is_content_determined() {
        let g = gen::chain_with_feedback(6, 3);
        let a = compute_plan(&g, 2);
        let b = compute_plan(&g, 2);
        assert_eq!(a.checksum(), b.checksum());
        let c = compute_plan(&g, 3);
        assert_ne!(a.checksum(), c.checksum(), "distinct plans, distinct sums");
    }
}
