//! Per-sweep memoization of the expensive retiming passes and of the
//! points built from them, hardened against runaway solves, worker
//! panics, and cache corruption.
//!
//! Every trade-off point needs two retiming passes over the unfolded graph
//! (the period search, whose answer already has minimum span, and register
//! compaction), each of which — in the straightforward
//! [`crate::sweep_reference`] path — recomputes the same W/D matrices from
//! scratch (one delay-layer sweep per node of the unfolded graph, see
//! [`WdMatrices::compute`]). The cache layer fixes both redundancies:
//!
//! * within one factor, the W/D matrices are computed **once**, in the
//!   residue form of the unfolding ([`WdMatrices::compute_unfolded`]: one
//!   delay-layer sweep per *original* node, `f·V²` entries instead of
//!   `(fV)²`), and shared by both passes: the solver keeps one
//!   period row per original node, and compaction checks the legality
//!   edges plus the active prefix of the activation order. The unfolding
//!   itself is never built: the solver and compaction take the original
//!   graph and read the unfolding's edges off
//!   [`cred_dfg::algo::unfolded_edges`], and the projection sums each
//!   node's copies ([`project_copies`]);
//! * across calls, the finished [`FactorPlan`] is memoized under the key
//!   `(Dfg::fingerprint(), f)`, so sweeping the same kernel again — from
//!   another thread, another sweep, or a constrained search revisiting a
//!   factor — returns the stored plan without touching the solver.
//!
//! A plan fixes a configuration's objectives. Turning it into a
//! [`ParetoPoint`] reads both code sizes off their closed forms
//! ([`cred_codegen::ExpectedCounts`]) and schedules the kernel for maxlive.
//! Each entry also keeps the finished points requests asked of its plan,
//! keyed by trip count and decrement mode, at most four of them, the
//! oldest replaced first, so a repeated `(graph, f, n, mode)` is answered
//! from the entry without recomputing anything: rebuilding every hit's
//! point from its plan, maxlive included, measured about 5% slower on
//! served requests whose plans all hit. A request whose every factor has
//! its point stored is answered under one lock of the kernel's shard
//! ([`crate::ExploreRequest::run_memoized`]).
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
//!   caller, and verifies the checksum of the plan or point it serves on
//!   every hit, evicting and recomputing the entry on mismatch
//!   (self-healing).
//!
//! The table is **sharded by DFG fingerprint**: entries land in one of a
//! power-of-two number of independent shards, each with its own lock, LRU
//! clock, and counters, so a thousand concurrent clients hammering
//! different kernels never serialize on one mutex. All the robustness
//! properties hold per shard (a poisoned shard clears only itself), and
//! every public counter is the rollup across shards.
//!
//! The size formulas and the maxlive analysis are deterministic given a
//! plan, so points served from an entry are identical to freshly computed
//! ones, bit for bit.
//!
//! [`ConstraintSystem`]: cred_retime::ConstraintSystem

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use cred_codegen::DecMode;
use cred_dfg::algo::WdMatrices;
use cred_dfg::Dfg;
use cred_resilience::failpoint::{self, sites};
use cred_resilience::{panic_message, Budget, DegradationEvent, DegradeCause, Exhausted};
use cred_retime::minperiod::{constraints_for_period, min_period_retiming_reference};
use cred_retime::span::{compact_values_wd, compact_values_with};
use cred_retime::{RetimeSolver, Retiming};
use cred_unfold::orders::{project_copies, project_retiming};
use cred_unfold::unfold;

use crate::api::mode_code;
use crate::ParetoPoint;

/// Finished points one entry keeps at most. A client sweeping `n` over
/// one kernel replaces the oldest point instead of growing the entry.
const POINTS_PER_ENTRY: usize = 4;

/// Everything the sweep decides for one `(graph, f)` pair: the projected
/// (span-minimized, register-compacted) retiming and the rate-optimal
/// period of the `f`-unfolded graph. Code sizes are not part of the plan:
/// they also depend on the trip count and decrement mode, and follow from
/// the plan's `M_r` and `P_r` by closed forms. A [`SweepCache`] entry keeps
/// the finished points, maxlive schedule included, next to its plan.
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
        let head = [self.period, self.projected.len() as u64];
        fnv(head
            .into_iter()
            .chain(self.projected.values().iter().map(|&v| v as u64)))
    }
}

/// FNV-1a over the little-endian bytes of `words`.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for x in words {
        for b in x.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x100000001b3);
        }
    }
    h
}

/// Content checksum of a point memoized under `(n, mode)`: FNV-1a over
/// the key and every field, so a changed key or value both show.
fn point_checksum(n: u64, mode: DecMode, p: &ParetoPoint) -> u64 {
    let o = &p.objectives;
    fnv([
        n,
        mode_code(mode) as u64,
        p.f as u64,
        p.m_r as u64,
        p.plain_size as u64,
        o.cred_size as u64,
        o.iteration_period.num() as u64,
        o.iteration_period.den() as u64,
        o.cond_registers as u64,
        o.maxlive as u64,
    ])
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

/// Compute a [`FactorPlan`] with a single shared residue-form W/D
/// computation and one warm-started solver, on the original graph: the
/// `f`-unfolding is never built.
///
/// This is the uncached fast path; [`SweepCache::plan`] wraps it with
/// memoization. It yields plans identical to the per-point pipeline of
/// [`crate::sweep_reference`] while doing strictly less work: the W/D
/// matrices are computed once instead of twice, and the period search is
/// the only solve. Its answer is already the minimum-span retiming of the
/// optimal period (see [`RetimeSolver::retime_to_period`]), so compaction
/// starts from it.
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
    let wd = WdMatrices::compute_unfolded(g, f);
    let mut solver = RetimeSolver::new(g, &wd);
    let opt = solver.min_period_budgeted(budget)?;
    let r_f = compact_values_wd(g, &wd, opt.period, &opt.retiming);
    let projected = project_copies(f, &r_f);
    Ok(FactorPlan {
        projected,
        period: opt.period,
    })
}

/// The degradation fallback: the dense reference pipeline (full
/// [`cred_retime::ConstraintSystem`] + edge-list Bellman–Ford per pass,
/// on the full-form W/D matrices of the built unfolding). Guaranteed to
/// terminate in `O(V * E)` rounds per solve — no warm-start state, no SPFA
/// heuristics — and bit-identical to the fast path by the solver's
/// differential tests. It shares none of the fast path's residue-form
/// code. [`cred_retime::ConstraintSystem::solve`] also returns the
/// pointwise-maximal solution, so its period search's answer has minimum
/// span too.
fn plan_reference(g: &Dfg, f: usize) -> FactorPlan {
    failpoint::hit_infallible(sites::EXPLORE_PLAN_REFERENCE);
    let u = unfold(g, f);
    let wd = WdMatrices::compute(&u.graph);
    let opt = min_period_retiming_reference(&u.graph, &wd);
    let sys = constraints_for_period(&u.graph, &wd, opt.period as i64);
    let r_f = compact_values_with(&sys, &opt.retiming);
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

/// One finished point memoized under the `(n, mode)` it was asked for.
#[derive(Debug)]
struct StoredPoint {
    n: u64,
    mode: DecMode,
    point: ParetoPoint,
    /// [`point_checksum`] captured at insert time.
    checksum: u64,
}

/// One stored plan, the points built from it, and their integrity and
/// recency metadata.
#[derive(Debug)]
struct CacheEntry {
    plan: Arc<FactorPlan>,
    /// [`FactorPlan::checksum`] captured at insert time.
    checksum: u64,
    /// Logical timestamp of the last hit (for LRU eviction).
    last_used: u64,
    /// Oldest first, at most [`POINTS_PER_ENTRY`].
    points: Vec<StoredPoint>,
}

/// What a cache hit serves.
enum Hit {
    /// The memoized point that was asked for.
    Point(ParetoPoint),
    /// The plan: no point was asked for, or it is not memoized yet.
    Plan(Arc<FactorPlan>),
}

impl CacheEntry {
    /// What this entry serves for `want`, or `None` when the point or
    /// plan it would serve fails its checksum.
    fn serve(&self, want: Option<(u64, DecMode)>) -> Option<Hit> {
        let stored =
            want.and_then(|(n, mode)| self.points.iter().find(|s| s.n == n && s.mode == mode));
        match stored {
            Some(s) => (point_checksum(s.n, s.mode, &s.point) == s.checksum)
                .then(|| Hit::Point(s.point.clone())),
            None => {
                (self.plan.checksum() == self.checksum).then(|| Hit::Plan(Arc::clone(&self.plan)))
            }
        }
    }

    /// Keep `point` for `(n, mode)`, replacing the oldest point when the
    /// entry is full. A point a racing caller stored first is kept.
    fn memoize(&mut self, n: u64, mode: DecMode, point: ParetoPoint) {
        if self.points.iter().any(|s| s.n == n && s.mode == mode) {
            return;
        }
        if self.points.len() == POINTS_PER_ENTRY {
            self.points.remove(0);
        }
        self.points.push(StoredPoint {
            checksum: point_checksum(n, mode, &point),
            n,
            mode,
            point,
        });
    }
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

    /// Look `key` up, counting exactly one hit or one miss. `want` names
    /// the memoized point to serve; without one, a hit serves the plan.
    /// An entry whose served point or plan fails its checksum is evicted
    /// and the lookup is a miss: serving it would be silent corruption.
    fn lookup(&self, key: (u64, usize), want: Option<(u64, DecMode)>) -> Option<Hit> {
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(entry) = inner.plans.get_mut(&key) {
            if let Some(hit) = entry.serve(want) {
                entry.last_used = tick;
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Some(hit);
            }
            inner.plans.remove(&key);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        None
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
/// [`FactorPlan`]s, keyed by `(Dfg::fingerprint(), f)`. Each entry also
/// keeps up to four finished [`ParetoPoint`]s built from its plan, keyed
/// by trip count and decrement mode, so a repeated request is answered
/// without recomputing sizes or maxlive.
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
/// Every lookup of one factor counts exactly one hit or one miss, whether
/// it is served a point or a plan: a miss means the solver ran. A request
/// answered whole from memoized points counts one hit per factor, as its
/// per-factor lookups would have.
///
/// Robustness properties (each holding per shard):
///
/// * **bounded** — at most `capacity` entries (unbounded by default),
///   each with at most four points;
///   inserting past a shard's bound evicts its least-recently-used entry
///   and bumps [`evictions`](Self::evictions);
/// * **poison-tolerant** — a worker that panics while holding a shard
///   lock poisons it once; the next caller recovers the lock and clears
///   *that shard*, points included (a panicking writer may have left it
///   mid-update), counted by
///   [`poison_recoveries`](Self::poison_recoveries), instead of
///   propagating panics to every later query forever;
/// * **self-healing** — every hit re-verifies the checksum of the point
///   or plan it serves; a corrupted entry is evicted and recomputed
///   instead of served, without disturbing any other entry.
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
        if let Some(Hit::Plan(plan)) = shard.lookup(key, None) {
            return Ok((plan, PlanSource::Solver));
        }
        // No lock is held while solving: plans can take milliseconds, and
        // other workers should keep making progress on other factors.
        let (plan, source) = compute_plan_budgeted(g, f, budget)?;
        Ok((self.store(shard, key, Arc::new(plan), None), source))
    }

    /// The point of factor `f` at trip count `n` in `mode`, for the graph
    /// `g` whose [`Dfg::fingerprint`] is `fingerprint`. A memoized point
    /// is served as is; otherwise the point is built from the stored plan,
    /// or from a plan solved under `budget` as in
    /// [`plan_budgeted`](Self::plan_budgeted), and memoized. A plan solved
    /// here is stored with its point under one lock.
    pub(crate) fn point_budgeted(
        &self,
        g: &Dfg,
        fingerprint: u64,
        f: usize,
        n: u64,
        mode: DecMode,
        budget: &Budget,
    ) -> Result<(ParetoPoint, PlanSource), Exhausted> {
        let key = (fingerprint, f);
        let shard = self.shard_of(fingerprint);
        let (plan, source) = match shard.lookup(key, Some((n, mode))) {
            Some(Hit::Point(point)) => return Ok((point, PlanSource::Solver)),
            Some(Hit::Plan(plan)) => (plan, PlanSource::Solver),
            None => {
                let (plan, source) = compute_plan_budgeted(g, f, budget)?;
                (Arc::new(plan), source)
            }
        };
        // A panic while building the point stores nothing, so the next
        // lookup finds the cache as this one did.
        let point = crate::point_from_plan(g, f, &plan, n, mode);
        self.store(shard, key, plan, Some((n, mode, point.clone())));
        Ok((point, source))
    }

    /// The memoized points of factors `1..=max_f` at trip count `n` in
    /// `mode`, for the graph whose [`Dfg::fingerprint`] is `fingerprint`,
    /// in factor order: one lock of the kernel's shard, no solve, no
    /// point built.
    ///
    /// Answers only when every factor's point is stored and passes its
    /// checksum. Then it counts exactly what `max_f` point lookups count:
    /// one hit, one clock tick and one recency update per factor, in
    /// factor order. Otherwise it returns `None` and changes nothing, not
    /// even the clock; a corrupt entry is left for the lookup that evicts
    /// it.
    pub(crate) fn memoized_points(
        &self,
        fingerprint: u64,
        max_f: usize,
        n: u64,
        mode: DecMode,
    ) -> Option<Vec<ParetoPoint>> {
        let shard = self.shard_of(fingerprint);
        let mut inner = shard.lock();
        let mut points = Vec::with_capacity(max_f);
        for f in 1..=max_f {
            match inner.plans.get(&(fingerprint, f))?.serve(Some((n, mode))) {
                Some(Hit::Point(point)) => points.push(point),
                _ => return None,
            }
        }
        for f in 1..=max_f {
            inner.tick += 1;
            let tick = inner.tick;
            if let Some(entry) = inner.plans.get_mut(&(fingerprint, f)) {
                entry.last_used = tick;
            }
        }
        shard.hits.fetch_add(max_f as u64, Ordering::Relaxed);
        Some(points)
    }

    /// Store `plan` under `key` unless a racing caller stored it first,
    /// memoize `point` (with the `(n, mode)` it was asked for) in the
    /// entry, and enforce the shard's capacity. Returns the stored plan.
    fn store(
        &self,
        shard: &Shard,
        key: (u64, usize),
        plan: Arc<FactorPlan>,
        point: Option<(u64, DecMode, ParetoPoint)>,
    ) -> Arc<FactorPlan> {
        let checksum = plan.checksum();
        let mut inner = shard.lock();
        // A chaos plan can panic here, *while the lock is held* — that is
        // exactly the scenario the poison recovery above exists for.
        failpoint::hit_infallible(sites::EXPLORE_CACHE_INSERT);
        inner.tick += 1;
        let tick = inner.tick;
        let entry = inner.plans.entry(key).or_insert_with(|| CacheEntry {
            plan,
            checksum,
            last_used: tick,
            points: Vec::new(),
        });
        if let Some((n, mode, point)) = point {
            entry.memoize(n, mode, point);
        }
        let stored = Arc::clone(&entry.plan);
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
        stored
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

    /// Test hook: corrupt `(g, f)`'s entry so the next hit sees it,
    /// whether it asks for a point or for the plan. The plan's stored
    /// checksum is overwritten, and every memoized point's `plain_size`
    /// is changed under its old checksum. Returns `false` when the entry
    /// is absent. Not part of the stable API.
    #[doc(hidden)]
    pub fn corrupt_entry_for_test(&self, g: &Dfg, f: usize) -> bool {
        let key = (g.fingerprint(), f);
        let mut inner = self.shard_of(key.0).lock();
        match inner.plans.get_mut(&key) {
            Some(e) => {
                e.checksum ^= 0xDEAD_BEEF;
                for s in &mut e.points {
                    s.point.plain_size += 1;
                }
                true
            }
            None => false,
        }
    }
}

/// One entry as a test sees it: key, recency, plan checksum, and the
/// `(n, mode, checksum)` of each memoized point, oldest first.
#[cfg(test)]
pub(crate) type EntryState = ((u64, usize), u64, u64, Vec<(u64, DecMode, u64)>);

#[cfg(test)]
impl SweepCache {
    /// Everything a lookup can change, shard by shard: the counters, the
    /// clock, and every entry sorted by key. Two caches with equal states
    /// serve and evict alike from then on.
    pub(crate) fn state(&self) -> Vec<(ShardStats, u64, Vec<EntryState>)> {
        (0..self.shards.len())
            .map(|i| {
                let stats = self.shard_stats(i);
                let inner = self.shards[i].lock();
                let mut entries: Vec<EntryState> = inner
                    .plans
                    .iter()
                    .map(|(&key, e)| {
                        let points = e.points.iter().map(|s| (s.n, s.mode, s.checksum));
                        (key, e.last_used, e.checksum, points.collect())
                    })
                    .collect();
                entries.sort_unstable_by_key(|e| e.0);
                (stats, inner.tick, entries)
            })
            .collect()
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
        use cred_retime::span::{compact_values, min_span_retiming_reference};
        use cred_unfold::{orders::project_retiming, unfold};

        let g = gen::chain_with_feedback(7, 3);
        for f in 1..=3 {
            let plan = compute_plan(&g, f);
            // The original three-solve pipeline, each pass recomputing W/D,
            // with the dense span search between the other two.
            let u = unfold(&g, f);
            let opt = min_period_retiming(&u.graph);
            let wd = WdMatrices::compute(&u.graph);
            let r_f = min_span_retiming_reference(&u.graph, &wd, opt.period).unwrap();
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

    /// The `(n, mode)` keys of the points memoized for `(g, f)`, oldest
    /// first.
    fn memoized(cache: &SweepCache, g: &Dfg, f: usize) -> Vec<(u64, DecMode)> {
        let key = (g.fingerprint(), f);
        let inner = cache.shard_of(key.0).lock();
        inner.plans[&key]
            .points
            .iter()
            .map(|s| (s.n, s.mode))
            .collect()
    }

    #[test]
    fn an_entry_keeps_at_most_four_points_oldest_replaced_first() {
        let g = gen::chain_with_feedback(6, 3);
        let (fp, f) = (g.fingerprint(), 2);
        let cache = SweepCache::new();
        let unlimited = Budget::unlimited();
        let asked: Vec<(u64, DecMode)> = [3, 40, 101]
            .into_iter()
            .flat_map(|n| [(n, DecMode::Bulk), (n, DecMode::PerCopy)])
            .collect();
        for (i, &(n, mode)) in asked.iter().enumerate() {
            let (point, source) = cache
                .point_budgeted(&g, fp, f, n, mode, &unlimited)
                .unwrap();
            assert!(source.is_fast());
            assert_eq!(point, crate::sweep_reference(&g, f, n, mode)[f - 1]);
            let kept = memoized(&cache, &g, f);
            assert_eq!(kept.len(), (i + 1).min(POINTS_PER_ENTRY), "{kept:?}");
            assert_eq!(kept.last(), Some(&(n, mode)));
        }
        // Six distinct (n, mode): the two oldest were replaced.
        assert_eq!(memoized(&cache, &g, f), asked[2..]);
        // One solve, then one hit per lookup, however the point was found.
        assert_eq!((cache.misses(), cache.hits()), (1, 5));
        assert_eq!(cache.len(), 1, "points do not count against capacity");
        // A replaced point is rebuilt from the stored plan, still correct,
        // and replaces the now-oldest point.
        let (n, mode) = asked[0];
        let (point, _) = cache
            .point_budgeted(&g, fp, f, n, mode, &unlimited)
            .unwrap();
        assert_eq!(point, crate::sweep_reference(&g, f, n, mode)[f - 1]);
        assert_eq!((cache.misses(), cache.hits()), (1, 6));
        assert_eq!(
            memoized(&cache, &g, f)[..],
            [asked[3], asked[4], asked[5], asked[0]]
        );
        assert_eq!(cache.evictions(), 0);
    }

    #[test]
    fn poison_recovery_clears_the_points_with_the_shard() {
        let g = gen::chain_with_feedback(6, 3);
        let cache = SweepCache::with_layout(1, None);
        let unlimited = Budget::unlimited();
        cache
            .point_budgeted(&g, g.fingerprint(), 1, 60, DecMode::Bulk, &unlimited)
            .unwrap();
        assert_eq!(memoized(&cache, &g, 1).len(), 1);
        let shard = &cache.shards[0];
        let poisoner = std::thread::scope(|s| {
            s.spawn(|| {
                let _guard = shard.inner.lock().expect("not yet poisoned");
                panic!("deliberate poison");
            })
            .join()
        });
        assert!(poisoner.is_err(), "the poisoner must panic");
        assert!(cache.is_empty(), "recovery clears plans and points");
        assert_eq!(cache.poison_recoveries(), 1);
        let (point, _) = cache
            .point_budgeted(&g, g.fingerprint(), 1, 60, DecMode::Bulk, &unlimited)
            .unwrap();
        assert_eq!(point, crate::sweep_reference(&g, 1, 60, DecMode::Bulk)[0]);
        assert_eq!(cache.misses(), 2, "the cleared point is recomputed");
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
