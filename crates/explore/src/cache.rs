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
//!   `(fV)²`), and one solver serves both passes: it keeps one period
//!   row per original node, holding only the pairs at or above its
//!   closed-walk bound, and compaction ([`RetimeSolver::compact`]) checks
//!   its legality edges plus the active prefix at the plan's period. The
//!   unfolding itself is never built: the solver takes the original graph
//!   and reads the unfolding's edges off
//!   [`cred_dfg::algo::unfolded_edges`], and the projection sums each
//!   node's copies ([`project_copies`]);
//! * across factors, the buffers are allocated **once per request**: each
//!   sweep worker plans its factors in one `PlanWorkspace`, sized on its
//!   first plan for the request's graph at its largest factor, which owns
//!   the W/D rows and the sweep's arcs, ranks, bitset and heap, the
//!   solver's constraint graph, labels, queue and compaction sets, and the
//!   maxlive arrays. A factor then allocates only what it returns: its
//!   retimings, its plan and point, and the cache entry holding them. The
//!   workspace carries capacity, not state: every use resets what it
//!   reads, so a fault that cuts a plan off half-way (and the reference
//!   fallback, which allocates its own) leaves nothing for the next
//!   factor. It lives on the worker's stack and dies with the request;
//!   [`compute_plan`], [`compute_plan_budgeted`] and [`SweepCache::plan`]
//!   run the same code in a workspace of their own;
//! * across calls, the finished [`FactorPlan`] is memoized under the key
//!   `(Dfg::fingerprint(), f)`, so sweeping the same kernel again — from
//!   another thread, another sweep, or a constrained search revisiting a
//!   factor — returns the stored plan without touching the solver.
//!
//! A plan fixes a configuration's objectives. Turning it into a
//! [`ParetoPoint`] reads both code sizes off their closed forms
//! ([`cred_codegen::ExpectedCounts`]) and counts maxlive on one copy of
//! the sequential kernel ([`cred_schedule::sequential_maxlive`]: every
//! factor's kernel has the pressure of one copy).
//! Each entry also keeps the finished points requests asked of its plan,
//! keyed by trip count and decrement mode, at most four of them, the
//! oldest replaced first, so a repeated `(graph, f, n, mode)` is answered
//! from the entry without recomputing anything: rebuilding every hit's
//! point from its plan, maxlive included, measured about 5% slower on
//! served requests whose plans all hit. A request whose every factor has
//! its point stored is answered under one lock of the cache
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
use cred_dfg::algo::{WdMatrices, WdScratch};
use cred_dfg::Dfg;
use cred_resilience::failpoint::{self, sites};
use cred_resilience::{panic_message, Budget, DegradationEvent, DegradeCause, Exhausted};
use cred_retime::minperiod::{constraints_for_period, min_period_retiming_reference};
use cred_retime::span::compact_values_with;
use cred_retime::{RetimeSolver, Retiming, SolverScratch};
use cred_schedule::MaxliveScratch;
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

/// Every buffer one factor's plan and point need, reused across the
/// factors one sweep worker plans: the W/D matrices and the sweep's
/// buffers, the solver's constraint graph, labels, queue and compaction
/// sets, and the maxlive arrays.
///
/// A worker creates one per request, sized on first use for the request's
/// graph at its largest factor, so planning a factor allocates only what
/// the factor returns. It carries capacity only: every use resets what it
/// reads, so a fault or panic that cuts a plan off half-way leaves nothing
/// for the next factor to trip on. It never outlives the request.
#[derive(Debug)]
pub(crate) struct PlanWorkspace {
    /// The largest factor the request plans.
    max_f: usize,
    /// The plan's buffers, sized for `max_f` on the first plan: a request
    /// whose plans all hit the cache never creates them.
    plan: Option<PlanBuffers>,
    maxlive: MaxliveScratch,
}

/// The buffers of [`plan_fast`].
#[derive(Debug)]
struct PlanBuffers {
    wd: WdMatrices,
    sweep: WdScratch,
    solver: SolverScratch,
}

impl PlanWorkspace {
    /// An empty workspace for a request that plans factors up to `max_f`.
    pub(crate) fn new(max_f: usize) -> Self {
        PlanWorkspace {
            max_f,
            plan: None,
            maxlive: MaxliveScratch::default(),
        }
    }

    /// The plan buffers, sized for `g`'s `max_f`-unfolding when first
    /// asked for.
    fn plan_buffers(&mut self, g: &Dfg) -> &mut PlanBuffers {
        let max_f = self.max_f;
        self.plan.get_or_insert_with(|| PlanBuffers {
            wd: WdMatrices::with_capacity_for(g, max_f),
            sweep: WdScratch::with_capacity_for(g, max_f),
            solver: SolverScratch::with_capacity_for(g, max_f),
        })
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
/// starts from it. It runs in a workspace of its own; a sweep plans every
/// factor of a request in one.
pub fn compute_plan(g: &Dfg, f: usize) -> FactorPlan {
    match plan_fast(g, f, &Budget::unlimited(), &mut PlanWorkspace::new(f)) {
        Ok(plan) => plan,
        Err(e) => panic!("unlimited-budget plan cannot exhaust: {e}"),
    }
}

/// The budgeted fast path in `ws`: warm-started solver pipeline, every
/// pass charging the same budget.
fn plan_fast(
    g: &Dfg,
    f: usize,
    budget: &Budget,
    ws: &mut PlanWorkspace,
) -> Result<FactorPlan, Exhausted> {
    failpoint::hit(sites::EXPLORE_PLAN_FAST).map_err(|e| Exhausted::Injected { site: e.site })?;
    budget.check()?;
    let PlanBuffers { wd, sweep, solver } = ws.plan_buffers(g);
    wd.recompute_unfolded(g, f, sweep);
    // The solver owns the scratch while it runs and hands it back after;
    // a panic drops it with the solver, and the next plan regrows one.
    let mut s = RetimeSolver::with_scratch(g, wd, std::mem::take(solver));
    let plan = s.min_period_budgeted(budget).map(|opt| FactorPlan {
        projected: project_copies(f, &s.compact(opt.period, &opt.retiming)),
        period: opt.period,
    });
    *solver = s.into_scratch();
    plan
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
    plan_in(g, f, budget, &mut PlanWorkspace::new(f))
}

/// [`compute_plan_budgeted`] with the fast path planning in `ws`.
fn plan_in(
    g: &Dfg,
    f: usize,
    budget: &Budget,
    ws: &mut PlanWorkspace,
) -> Result<(FactorPlan, PlanSource), Exhausted> {
    let cause = match catch_unwind(AssertUnwindSafe(|| plan_fast(g, f, budget, ws))) {
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

/// Thread-safe, bounded, self-healing memo table for [`FactorPlan`]s,
/// keyed by `(Dfg::fingerprint(), f)`. Each entry also keeps up to four
/// finished [`ParetoPoint`]s built from its plan, keyed by trip count and
/// decrement mode, so a repeated request is answered without recomputing
/// sizes or maxlive.
///
/// Shared by reference between the workers of a sweep and, optionally,
/// across whole sweeps (the suite runner and the evaluation service keep
/// one cache for all kernels; fingerprints keep their entries apart).
/// One lock guards the table, and no solve or point build runs under it.
/// Two threads racing on the same key may both compute the plan; the
/// first insert wins and both callers observe the same `Arc`, so results
/// stay deterministic.
///
/// Every lookup of one factor counts exactly one hit or one miss, whether
/// it is served a point or a plan: a miss means the solver ran. A request
/// answered whole from memoized points counts one hit per factor, as its
/// per-factor lookups would have.
///
/// Robustness properties:
///
/// * **bounded** — at most `capacity` entries (unbounded by default),
///   each with at most four points; inserting past the bound evicts the
///   least-recently-used entry and bumps
///   [`evictions`](Self::evictions);
/// * **poison-tolerant** — a worker that panics while holding the lock
///   poisons it once; the next caller recovers the lock and clears the
///   cache, points included (a panicking writer may have left it
///   mid-update), counted by
///   [`poison_recoveries`](Self::poison_recoveries), instead of
///   propagating panics to every later query forever;
/// * **self-healing** — every hit re-verifies the checksum of the point
///   or plan it serves; a corrupted entry is evicted and recomputed
///   instead of served, without disturbing any other entry.
#[derive(Debug, Default)]
pub struct SweepCache {
    inner: Mutex<CacheInner>,
    /// Entry bound (`None` = unbounded).
    capacity: Option<usize>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    poison_recoveries: AtomicU64,
}

impl SweepCache {
    /// Fresh, empty, unbounded cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fresh cache holding at most `capacity` plans, the least recently
    /// used evicted first.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity >= 1, "a zero-capacity cache cannot memoize");
        SweepCache {
            capacity: Some(capacity),
            ..Self::default()
        }
    }

    /// Lock the table, recovering from poisoning: a panic under the lock
    /// (one crashed worker) clears the table and un-poisons the mutex, so
    /// the cache keeps serving — conservatively cold — instead of
    /// bricking every later query.
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
        if let Some(Hit::Plan(plan)) = self.lookup(key, None) {
            return Ok((plan, PlanSource::Solver));
        }
        // No lock is held while solving: plans can take milliseconds, and
        // other workers should keep making progress on other factors.
        let (plan, source) = compute_plan_budgeted(g, f, budget)?;
        Ok((self.store(key, Arc::new(plan), None), source))
    }

    /// The point of factor `f` at trip count `n` in `mode`, for the graph
    /// `g` whose [`Dfg::fingerprint`] is `fingerprint`. A memoized point
    /// is served as is; otherwise the point is built from the stored plan,
    /// or from a plan solved under `budget` as in
    /// [`plan_budgeted`](Self::plan_budgeted), and memoized. A plan solved
    /// here is stored with its point under one lock. Planning and the
    /// point's maxlive run in `ws`.
    pub(crate) fn point_budgeted(
        &self,
        g: &Dfg,
        fingerprint: u64,
        f: usize,
        (n, mode): (u64, DecMode),
        budget: &Budget,
        ws: &mut PlanWorkspace,
    ) -> Result<(ParetoPoint, PlanSource), Exhausted> {
        let key = (fingerprint, f);
        let (plan, source) = match self.lookup(key, Some((n, mode))) {
            Some(Hit::Point(point)) => return Ok((point, PlanSource::Solver)),
            Some(Hit::Plan(plan)) => (plan, PlanSource::Solver),
            None => {
                let (plan, source) = plan_in(g, f, budget, ws)?;
                (Arc::new(plan), source)
            }
        };
        // A panic while building the point stores nothing, so the next
        // lookup finds the cache as this one did.
        let point = crate::point_from_plan(g, f, &plan, n, mode, &mut ws.maxlive);
        self.store(key, plan, Some((n, mode, point.clone())));
        Ok((point, source))
    }

    /// The memoized points of factors `1..=max_f` at trip count `n` in
    /// `mode`, for the graph whose [`Dfg::fingerprint`] is `fingerprint`,
    /// in factor order: one lock, no solve, no point built.
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
        let mut inner = self.lock();
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
        self.hits.fetch_add(max_f as u64, Ordering::Relaxed);
        Some(points)
    }

    /// Store `plan` under `key` unless a racing caller stored it first,
    /// memoize `point` (with the `(n, mode)` it was asked for) in the
    /// entry, and enforce the capacity. Returns the stored plan.
    fn store(
        &self,
        key: (u64, usize),
        plan: Arc<FactorPlan>,
        point: Option<(u64, DecMode, ParetoPoint)>,
    ) -> Arc<FactorPlan> {
        let checksum = plan.checksum();
        let mut inner = self.lock();
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
        if let Some(cap) = self.capacity {
            while inner.plans.len() > cap {
                let oldest = inner
                    .plans
                    .iter()
                    .min_by_key(|(_, e)| e.last_used)
                    .map(|(k, _)| *k)
                    .expect("len > cap >= 1 implies non-empty");
                inner.plans.remove(&oldest);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        stored
    }

    /// Lookups answered from the memo table.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that had to run the solver.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries dropped — by the LRU capacity bound or by checksum
    /// self-healing.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Times the lock was recovered (and the cache cleared) after a
    /// worker panicked while holding it.
    pub fn poison_recoveries(&self) -> u64 {
        self.poison_recoveries.load(Ordering::Relaxed)
    }

    /// Number of distinct `(fingerprint, f)` plans currently stored.
    pub fn len(&self) -> usize {
        self.lock().plans.len()
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
        let mut inner = self.lock();
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
    /// Everything a lookup can change: the counters, the clock, and every
    /// entry sorted by key. Two caches with equal states serve and evict
    /// alike from then on.
    pub(crate) fn state(&self) -> (crate::CacheStats, u64, Vec<EntryState>) {
        let stats = crate::CacheStats::of(self);
        let inner = self.lock();
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
    fn a_plan_cut_off_half_way_leaves_nothing_in_the_workspace() {
        use cred_resilience::failpoint::{install, ChaosPlan, FaultAction};
        // The paper's Figure 3 loop, which needs a retiming to reach its
        // period, so its solve does work.
        let g = cred_lang::parse(
            "loop { A[i] = E[i-4] + 9; B[i] = A[i] * 5; C[i] = A[i] + B[i-2];
                    D[i] = A[i] * C[i]; E[i] = D[i] + 30; }",
        )
        .unwrap();
        let unlimited = Budget::unlimited();
        let mut ws = PlanWorkspace::new(4);
        // A panic in the solve drops the solver's scratch with the solver.
        let guard = install(ChaosPlan::new().trip(sites::RETIME_SPFA, FaultAction::Panic));
        let (panicked, panic_source) = plan_in(&g, 4, &unlimited, &mut ws).unwrap();
        drop(guard);
        // A budget that lasts through the bound's scan (one unit per
        // legality edge) and runs out half-way through the solve: the
        // solver hands its scratch back with labels, a queue and active
        // rows still live.
        let metered = Budget::unlimited().with_work_limit(u64::MAX);
        plan_in(&g, 3, &metered, &mut PlanWorkspace::new(3)).unwrap();
        let (scan, total) = ((g.edge_count() * 3) as u64, metered.work_used());
        assert!(total > scan + 1, "the solve charges {total} units");
        let limit = scan + (total - scan) / 2;
        let starved = Budget::unlimited().with_work_limit(limit);
        let (cut, cut_source) = plan_in(&g, 3, &starved, &mut ws).unwrap();
        let cause = |source: &PlanSource| match source {
            PlanSource::Reference(e) => Some(e.cause.clone()),
            PlanSource::Solver => None,
        };
        assert!(
            matches!(cause(&panic_source), Some(DegradeCause::Panicked(_))),
            "{panic_source:?}"
        );
        let exhausted = DegradeCause::Exhausted(Exhausted::WorkUnits { limit });
        assert_eq!(cause(&cut_source), Some(exhausted));
        assert_eq!((panicked, cut), (compute_plan(&g, 4), compute_plan(&g, 3)));
        // The next plans in the same workspace see none of it.
        for f in [4, 1, 3, 2] {
            let (plan, source) = plan_in(&g, f, &unlimited, &mut ws).unwrap();
            assert!(source.is_fast(), "f = {f}: {source:?}");
            assert_eq!(plan, compute_plan(&g, f), "f = {f}");
        }
    }

    /// The point of `(g, f)` at `(n, mode)` through the cache, unbudgeted,
    /// planned in a workspace of its own.
    fn point_of(
        cache: &SweepCache,
        g: &Dfg,
        f: usize,
        want: (u64, DecMode),
    ) -> (ParetoPoint, PlanSource) {
        let mut ws = PlanWorkspace::new(f);
        let unlimited = Budget::unlimited();
        cache
            .point_budgeted(g, g.fingerprint(), f, want, &unlimited, &mut ws)
            .unwrap()
    }

    /// The `(n, mode)` keys of the points memoized for `(g, f)`, oldest
    /// first.
    fn memoized(cache: &SweepCache, g: &Dfg, f: usize) -> Vec<(u64, DecMode)> {
        let inner = cache.lock();
        inner.plans[&(g.fingerprint(), f)]
            .points
            .iter()
            .map(|s| (s.n, s.mode))
            .collect()
    }

    #[test]
    fn an_entry_keeps_at_most_four_points_oldest_replaced_first() {
        let g = gen::chain_with_feedback(6, 3);
        let f = 2;
        let cache = SweepCache::new();
        let asked: Vec<(u64, DecMode)> = [3, 40, 101]
            .into_iter()
            .flat_map(|n| [(n, DecMode::Bulk), (n, DecMode::PerCopy)])
            .collect();
        for (i, &(n, mode)) in asked.iter().enumerate() {
            let (point, source) = point_of(&cache, &g, f, (n, mode));
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
        let (point, _) = point_of(&cache, &g, f, (n, mode));
        assert_eq!(point, crate::sweep_reference(&g, f, n, mode)[f - 1]);
        assert_eq!((cache.misses(), cache.hits()), (1, 6));
        assert_eq!(
            memoized(&cache, &g, f)[..],
            [asked[3], asked[4], asked[5], asked[0]]
        );
        assert_eq!(cache.evictions(), 0);
    }

    #[test]
    fn poison_recovery_clears_the_points_with_the_plans() {
        let g = gen::chain_with_feedback(6, 3);
        let cache = SweepCache::new();
        point_of(&cache, &g, 1, (60, DecMode::Bulk));
        assert_eq!(memoized(&cache, &g, 1).len(), 1);
        let poisoner = std::thread::scope(|s| {
            s.spawn(|| {
                let _guard = cache.inner.lock().expect("not yet poisoned");
                panic!("deliberate poison");
            })
            .join()
        });
        assert!(poisoner.is_err(), "the poisoner must panic");
        assert!(cache.is_empty(), "recovery clears plans and points");
        assert_eq!(cache.poison_recoveries(), 1);
        let (point, _) = point_of(&cache, &g, 1, (60, DecMode::Bulk));
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
