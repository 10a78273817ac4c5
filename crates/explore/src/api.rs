//! The exploration front door: one request, one response.
//!
//! [`ExploreRequest`] is a builder holding the kernel, the sweep
//! parameters ([`ExploreOptions`]), and the resource limits (deadline /
//! work units / cancellation), evaluated by [`run`] or [`run_with`] into
//! an [`ExploreResponse`] carrying the points, the four-axis
//! non-dominated frontier, the per-factor outcome report, and cache
//! statistics. The CLI, the suite runner, and the evaluation server
//! (`cred-service`) all speak this API.
//!
//! Results are bit-identical across every path: the engine underneath is
//! the budgeted, panic-isolating resilient sweep, whose points are proven
//! equal to the serial reference pipeline ([`crate::sweep_reference`]) by
//! differential tests.
//!
//! The wire helpers at the bottom ([`point_json`], [`exact_json`]) emit
//! the schema v3 shapes shared by the suite report, the CLI, and the
//! service.
//!
//! [`run`]: ExploreRequest::run
//! [`run_with`]: ExploreRequest::run_with

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

use cred_codegen::DecMode;
use cred_dfg::Dfg;
use cred_exact::{exact_schedule_budgeted, MachineModel};
use cred_resilience::{Budget, CancelToken, DegradationEvent, DegradeCause, Exhausted};
use cred_schedule::KernelSchedule;

use crate::cache::{PlanSource, SweepCache};
use crate::error::CredError;
use crate::{frontier, resilient_sweep, ParetoPoint, PointOutcome, PointStatus, SweepReport};

/// Largest unfolding factor `max_f` an [`ExploreRequest`] accepts. Each
/// factor costs more than the last to plan; 16 is far beyond the paper's
/// design space.
pub const MAX_MAX_F: usize = 16;

/// Largest trip count `n` an [`ExploreRequest`] accepts (2^40), far past
/// any real loop; near `u64::MAX` the plain code size formula wraps.
pub const MAX_N: u64 = 1 << 40;

/// The sweep parameters of an [`ExploreRequest`]: everything that shapes
/// *what* is computed (and therefore everything a cache or coalescing key
/// must include), as opposed to the resource limits, which only shape how
/// long the computation may run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExploreOptions {
    /// Largest unfolding factor to evaluate (`1..=max_f`), at most
    /// [`MAX_MAX_F`].
    pub max_f: usize,
    /// Trip count `n` the code sizes are computed for (it sets the
    /// remainder and degenerate-window terms of the plain size), at most
    /// [`MAX_N`].
    pub n: u64,
    /// Decrement placement mode for the CRED transformation.
    pub mode: DecMode,
    /// Worker threads for the sweep (factors are work-stolen).
    pub threads: usize,
    /// Refuse degraded evaluation: when `true`, a response containing any
    /// degraded point is a [`CredError::DegradedUnderStrict`] via
    /// [`ExploreResponse::strict_violation`].
    pub strict: bool,
    /// Optional machine model: when set, the exact resource-constrained
    /// scheduler additionally proves the kernel's minimum initiation
    /// interval on this machine, reported as
    /// [`ExploreResponse::exact`]. `None` skips the exact pass entirely
    /// (the historical, retiming-only behavior).
    pub machine: Option<MachineModel>,
    /// Cap on total registers (conditional + maxlive): points exceeding
    /// it are excluded from [`ExploreResponse::frontier`] (they still
    /// appear in `points`, so the caller sees what the cap rejected).
    /// `None` leaves the frontier uncapped.
    pub max_registers: Option<usize>,
}

impl Default for ExploreOptions {
    fn default() -> Self {
        ExploreOptions {
            max_f: 4,
            n: 101,
            mode: DecMode::Bulk,
            threads: 1,
            strict: false,
            machine: None,
            max_registers: None,
        }
    }
}

/// A stable small integer per [`DecMode`], for cache and coalescing keys
/// (the enum itself carries no discriminant guarantees we want to lean
/// on in a wire-visible key).
pub fn mode_code(mode: DecMode) -> u8 {
    match mode {
        DecMode::PerCopy => 0,
        DecMode::Bulk => 1,
    }
}

/// One exploration query: a kernel plus options plus resource limits.
///
/// ```
/// use cred_explore::{ExploreRequest, ExploreOptions};
///
/// let g = cred_dfg::gen::chain_with_feedback(6, 3);
/// let resp = ExploreRequest::new(g)
///     .max_f(3)
///     .trip_count(60)
///     .run()
///     .expect("unlimited budget cannot exhaust");
/// assert_eq!(resp.points.len(), 3);
/// assert!(!resp.frontier.is_empty());
/// assert!(resp.report.is_clean());
/// ```
#[derive(Debug)]
pub struct ExploreRequest {
    graph: Arc<Dfg>,
    /// `graph`'s [`Dfg::fingerprint`], hashed once here instead of once
    /// per key and per factor lookup (the graph cannot change after `new`).
    fingerprint: u64,
    opts: ExploreOptions,
    deadline: Option<Duration>,
    work_limit: Option<u64>,
    cancel: Option<CancelToken>,
}

impl ExploreRequest {
    /// A request over `graph` with default [`ExploreOptions`] and no
    /// resource limits. `graph` is anything that converts into an
    /// `Arc<Dfg>`: a [`Dfg`] moves in, and a shared `Arc<Dfg>` is taken
    /// without copying the graph, so a caller keeping a table of kernels
    /// builds each request for the cost of a reference count.
    pub fn new(graph: impl Into<Arc<Dfg>>) -> Self {
        let graph = graph.into();
        ExploreRequest {
            fingerprint: graph.fingerprint(),
            graph,
            opts: ExploreOptions::default(),
            deadline: None,
            work_limit: None,
            cancel: None,
        }
    }

    /// Parse a loop-kernel source into a request.
    pub fn from_source(src: &str) -> Result<Self, CredError> {
        let g = cred_lang::parse(src).map_err(|e| CredError::Parse(e.to_string()))?;
        Ok(Self::new(g))
    }

    /// Replace the whole option block at once.
    pub fn options(mut self, opts: ExploreOptions) -> Self {
        self.opts = opts;
        self
    }

    /// Largest unfolding factor to evaluate.
    pub fn max_f(mut self, max_f: usize) -> Self {
        self.opts.max_f = max_f;
        self
    }

    /// Trip count `n` the code sizes are computed for (it sets the
    /// remainder and degenerate-window terms of the plain size).
    pub fn trip_count(mut self, n: u64) -> Self {
        self.opts.n = n;
        self
    }

    /// Decrement placement mode.
    pub fn mode(mut self, mode: DecMode) -> Self {
        self.opts.mode = mode;
        self
    }

    /// Worker threads for the sweep.
    pub fn threads(mut self, threads: usize) -> Self {
        self.opts.threads = threads;
        self
    }

    /// Refuse degraded evaluation (see [`ExploreOptions::strict`]).
    pub fn strict(mut self, strict: bool) -> Self {
        self.opts.strict = strict;
        self
    }

    /// Prove the exact resource-constrained II on `machine` alongside the
    /// sweep (see [`ExploreOptions::machine`]).
    pub fn machine(mut self, machine: MachineModel) -> Self {
        self.opts.machine = Some(machine);
        self
    }

    /// Cap total registers for the frontier (see
    /// [`ExploreOptions::max_registers`]).
    pub fn max_registers(mut self, cap: usize) -> Self {
        self.opts.max_registers = Some(cap);
        self
    }

    /// Wall-clock budget for the whole request, measured from
    /// [`run`](Self::run).
    pub fn deadline(mut self, limit: Duration) -> Self {
        self.deadline = Some(limit);
        self
    }

    /// Deterministic work-unit budget for the whole request.
    pub fn work_limit(mut self, limit: u64) -> Self {
        self.work_limit = Some(limit);
        self
    }

    /// Cooperative cancellation: the caller keeps a clone of `token` and
    /// may cancel the request mid-flight.
    pub fn cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// The kernel under exploration.
    pub fn graph(&self) -> &Dfg {
        &self.graph
    }

    /// The sweep parameters.
    pub fn opts(&self) -> &ExploreOptions {
        &self.opts
    }

    /// The deduplication key of this request: two requests with equal
    /// keys compute bit-identical responses *as long as no budget binds*,
    /// so a cache or an in-flight coalescer may serve one computation to
    /// both. Deliberately excludes the resource limits and
    /// `threads`/`strict`, which do not affect the computed points — but
    /// that also means an outcome shaped by a binding budget (an
    /// [`CredError::BudgetExhausted`] error, or degradations caused by
    /// [`cred_resilience::Exhausted`]) is specific to the request that
    /// computed it and must not be served to another key-equal request
    /// with different limits; a sharing layer has to recompute those
    /// (see the service's coalescer).
    pub fn coalesce_key(&self) -> (u64, usize, u64, u8, u64, u64) {
        (
            self.fingerprint,
            self.opts.max_f,
            self.opts.n,
            mode_code(self.opts.mode),
            // 0 = no exact pass requested; a requested machine keys by
            // its structural fingerprint, so two requests naming
            // different machines never share an exact summary.
            self.opts
                .machine
                .as_ref()
                .map_or(0, MachineModel::fingerprint),
            // The register cap shapes the embedded frontier; 0 encodes
            // "uncapped" and real caps are shifted by one.
            self.opts.max_registers.map_or(0, |cap| cap as u64 + 1),
        )
    }

    /// Evaluate with a private, request-local [`SweepCache`].
    pub fn run(&self) -> Result<ExploreResponse, CredError> {
        self.run_with(&SweepCache::new())
    }

    /// Evaluate against a shared [`SweepCache`] (the long-running service
    /// passes one process-wide cache so concurrent clients deduplicate
    /// work by DFG fingerprint).
    ///
    /// Failure modes:
    ///
    /// * `Err(`[`CredError::Protocol`]`)` — unevaluable options
    ///   (`max_f` outside `1..=`[`MAX_MAX_F`], `n` above [`MAX_N`], or
    ///   `threads == 0`);
    /// * `Err(`[`CredError::BudgetExhausted`]`)` — the budget was gone
    ///   before *any* point was produced (all-or-nothing; a partially
    ///   truncated sweep still returns `Ok` with the surviving points and
    ///   the degradation events saying what was cut);
    /// * `Ok(response)` otherwise — including degraded and failed points,
    ///   which the caller inspects via the response (and
    ///   [`ExploreResponse::strict_violation`] when strictness was
    ///   requested).
    pub fn run_with(&self, cache: &SweepCache) -> Result<ExploreResponse, CredError> {
        let budget = self.admit()?;
        let report = resilient_sweep(&self.graph, self.fingerprint, &self.opts, cache, &budget);
        if report.outcomes.iter().all(|o| o.point.is_none()) {
            // Nothing was produced. If any factor was cut off by the
            // budget, the whole request is a typed budget error rather
            // than an empty success.
            let exhausted = report.outcomes.iter().find_map(|o| match &o.status {
                PointStatus::Degraded(ev) => match &ev.cause {
                    DegradeCause::Exhausted(e) => Some(e.clone()),
                    _ => None,
                },
                _ => None,
            });
            if let Some(e) = exhausted {
                return Err(CredError::BudgetExhausted(e));
            }
        }
        let exact = match &self.opts.machine {
            None => None,
            Some(m) => Some(exact_summary(&self.graph, m, &budget)?),
        };
        Ok(self.response(report, cache, exact))
    }

    /// The response [`run_with`](Self::run_with) gives when `cache`
    /// already holds the memoized point of every factor asked for, read
    /// under one cache lock: nothing is solved, sized or scheduled. Its
    /// report is all [`PointStatus::Ok`], it carries no exact summary,
    /// and it counts `max_f` cache hits, as the per-factor lookups would.
    /// The service's event loop answers warm requests with it.
    ///
    /// `None` when any point is missing or fails its checksum, and then
    /// `cache` is left exactly as it was. Also `None` for a request that
    /// names a machine (its exact summary is computed per request), for
    /// unevaluable options, and for a budget that is already gone;
    /// `run_with` answers those.
    pub fn run_memoized(&self, cache: &SweepCache) -> Option<ExploreResponse> {
        if self.opts.machine.is_some() {
            return None;
        }
        self.admit().ok()?;
        let ExploreOptions { max_f, n, mode, .. } = self.opts;
        let points = cache.memoized_points(self.fingerprint, max_f, n, mode)?;
        let outcomes = points
            .into_iter()
            .map(|point| PointOutcome {
                f: point.f,
                status: PointStatus::Ok,
                point: Some(point),
            })
            .collect();
        Some(self.response(SweepReport { outcomes }, cache, None))
    }

    /// Admission: check the options and build the request's budget. A
    /// budget that is already gone fails typed, before any lookup or
    /// solve.
    fn admit(&self) -> Result<Budget, CredError> {
        if !(1..=MAX_MAX_F).contains(&self.opts.max_f) {
            return Err(CredError::Protocol(format!(
                "max_f must be in 1..={MAX_MAX_F}"
            )));
        }
        if self.opts.n > MAX_N {
            return Err(CredError::Protocol(format!("n must be at most {MAX_N}")));
        }
        if self.opts.threads < 1 {
            return Err(CredError::Protocol("threads must be at least 1".into()));
        }
        let mut budget = Budget::unlimited();
        if let Some(d) = self.deadline {
            budget = budget.with_deadline(d);
        }
        if let Some(w) = self.work_limit {
            budget = budget.with_work_limit(w);
        }
        if let Some(tok) = &self.cancel {
            budget = budget.with_cancel(tok.clone());
        }
        budget.check().map_err(CredError::BudgetExhausted)?;
        Ok(budget)
    }

    /// The response over `report`'s points, with the cache counters read
    /// now.
    fn response(
        &self,
        report: SweepReport,
        cache: &SweepCache,
        exact: Option<ExactSummary>,
    ) -> ExploreResponse {
        let points = report.points();
        ExploreResponse {
            frontier: frontier(&points, self.opts.max_registers),
            points,
            report,
            cache: CacheStats::of(cache),
            opts: self.opts.clone(),
            exact,
        }
    }
}

/// Run the exact scheduler under `budget`, degrading gracefully.
///
/// The ladder mirrors [`crate::cache::compute_plan_budgeted`]:
///
/// 1. run the branch-and-bound search under `budget`; on success the
///    summary carries the proven II *and* the maxlive of the proven
///    modulo schedule;
/// 2. if it exhausts (deadline, work units, injected fault) **or
///    panics**, fall back to the resource-*blind* retiming minimum of the
///    graph under `m`'s latencies ([`cred_exact::retiming_bound`]) — the
///    II every schedule on `m` can only match or exceed — and record a
///    [`DegradationEvent`] in [`ExactSummary::source`] so the caller
///    knows the number is a lower bound, not a proof (no schedule exists
///    on this path, so `maxlive` is absent);
/// 3. cancellation propagates: the caller asked the whole request to
///    stop.
fn exact_summary(g: &Dfg, m: &MachineModel, budget: &Budget) -> Result<ExactSummary, CredError> {
    let cause = match catch_unwind(AssertUnwindSafe(|| exact_schedule_budgeted(g, m, budget))) {
        Ok(Ok(sched)) => {
            let maxlive = KernelSchedule::modulo(g, &sched.slot, &sched.stage, sched.ii)
                .maxlive()
                .maxlive;
            return Ok(ExactSummary {
                machine: m.name.clone(),
                ii: sched.ii,
                maxlive: Some(maxlive),
                source: PlanSource::Solver,
            });
        }
        Ok(Err(Exhausted::Cancelled)) => {
            return Err(CredError::BudgetExhausted(Exhausted::Cancelled))
        }
        Ok(Err(e)) => DegradeCause::Exhausted(e),
        Err(payload) => DegradeCause::Panicked(cred_resilience::panic_message(payload.as_ref())),
    };
    let event = DegradationEvent {
        site: format!("explore.exact machine={}", m.name),
        cause,
    };
    Ok(ExactSummary {
        machine: m.name.clone(),
        ii: cred_exact::retiming_bound(g, m),
        maxlive: None,
        source: PlanSource::Reference(event),
    })
}

/// The exact scheduler's verdict for one request, reported when
/// [`ExploreOptions::machine`] was set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExactSummary {
    /// Name of the machine model the II was proven on.
    pub machine: String,
    /// The proven-minimal initiation interval — or, when
    /// [`source`](Self::source) is degraded, the resource-blind retiming
    /// lower bound the ladder fell back to.
    pub ii: u64,
    /// Peak data-register pressure of the proven modulo schedule; absent
    /// when the degradation ladder substituted the unconstrained
    /// fallback (a lower bound has no schedule to measure).
    pub maxlive: Option<usize>,
    /// Whether the exact search finished ([`PlanSource::Solver`]) or the
    /// degradation ladder substituted the unconstrained fallback
    /// ([`PlanSource::Reference`], carrying the event that says why).
    pub source: PlanSource,
}

/// Snapshot of a [`SweepCache`]'s counters. For a request-local cache the
/// numbers describe this request alone; for a shared (service) cache they
/// are process-wide totals at response time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Plan lookups answered from the memo table.
    pub hits: u64,
    /// Plan lookups that ran a solver.
    pub misses: u64,
    /// Entries dropped (LRU bound or checksum self-healing).
    pub evictions: u64,
    /// Lock-poisoning recoveries.
    pub poison_recoveries: u64,
}

impl CacheStats {
    /// Read the counters of `cache` now.
    pub fn of(cache: &SweepCache) -> Self {
        CacheStats {
            hits: cache.hits(),
            misses: cache.misses(),
            evictions: cache.evictions(),
            poison_recoveries: cache.poison_recoveries(),
        }
    }
}

/// Everything one evaluated [`ExploreRequest`] produced.
#[derive(Debug, Clone)]
pub struct ExploreResponse {
    /// The produced trade-off points, in factor order. Factors whose
    /// evaluation failed or was cut off by the budget are absent (see
    /// [`report`](Self::report)).
    pub points: Vec<ParetoPoint>,
    /// The non-dominated subset of [`points`](Self::points) over the
    /// four objective axes, capped by
    /// [`ExploreOptions::max_registers`] when one was set.
    pub frontier: Vec<ParetoPoint>,
    /// Per-factor outcomes, including degradation events and isolated
    /// failures.
    pub report: SweepReport,
    /// Cache counters at response time.
    pub cache: CacheStats,
    /// Echo of the options the response was computed under.
    pub opts: ExploreOptions,
    /// Exact-scheduler verdict, present iff the request named a machine.
    pub exact: Option<ExactSummary>,
}

impl ExploreResponse {
    /// The degradation events recorded while producing this response.
    pub fn degradations(&self) -> Vec<&DegradationEvent> {
        self.report
            .outcomes
            .iter()
            .filter_map(|o| match &o.status {
                PointStatus::Degraded(ev) => Some(ev),
                _ => None,
            })
            .collect()
    }

    /// The factors whose workers failed even on the fallback path, with
    /// their panic messages.
    pub fn failures(&self) -> Vec<(usize, &str)> {
        self.report
            .outcomes
            .iter()
            .filter_map(|o| match &o.status {
                PointStatus::Failed(msg) => Some((o.f, msg.as_str())),
                _ => None,
            })
            .collect()
    }

    /// When the request demanded strict evaluation and anything degraded,
    /// the error the front end must surface instead of a success.
    pub fn strict_violation(&self) -> Option<CredError> {
        let degraded = self.degradations().len();
        (self.opts.strict && degraded > 0).then_some(CredError::DegradedUnderStrict { degraded })
    }
}

/// Serialize one point in the schema v3 JSON shape shared by the suite
/// report and the service wire format: the sweep coordinates plus a
/// nested `objectives` object.
pub fn point_json(p: &ParetoPoint) -> String {
    format!(
        "{{ \"f\": {}, \"m_r\": {}, \"plain_size\": {}, \"objectives\": {{ \
         \"cred_size\": {}, \"period\": {{ \"num\": {}, \"den\": {} }}, \
         \"cond_registers\": {}, \"maxlive\": {} }} }}",
        p.f,
        p.m_r,
        p.plain_size,
        p.objectives.cred_size,
        p.objectives.iteration_period.num(),
        p.objectives.iteration_period.den(),
        p.objectives.cond_registers,
        p.objectives.maxlive
    )
}

/// Serialize an [`ExactSummary`] in the schema v3 JSON shape shared by
/// the CLI and the service wire format. `source` renders as `"solver"`
/// or as a degradation object naming the site and cause; `maxlive` is
/// `null` exactly when the source is a fallback.
pub fn exact_json(e: &ExactSummary) -> String {
    let source = match &e.source {
        PlanSource::Solver => "\"solver\"".to_string(),
        PlanSource::Reference(ev) => format!(
            "{{ \"fallback\": \"retiming-lower-bound\", \"site\": {:?}, \"cause\": {:?} }}",
            ev.site,
            ev.cause.to_string()
        ),
    };
    let maxlive = match e.maxlive {
        Some(m) => m.to_string(),
        None => "null".to_string(),
    };
    format!(
        "{{ \"machine\": {:?}, \"ii\": {}, \"maxlive\": {}, \"source\": {} }}",
        e.machine, e.ii, maxlive, source
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use cred_dfg::gen;

    fn sample() -> Dfg {
        gen::chain_with_feedback(6, 3)
    }

    #[test]
    fn request_matches_reference_sweep() {
        let g = sample();
        let resp = ExploreRequest::new(g.clone())
            .max_f(4)
            .trip_count(60)
            .run()
            .unwrap();
        assert_eq!(
            resp.points,
            crate::sweep_reference(&g, 4, 60, DecMode::Bulk)
        );
        assert_eq!(resp.frontier, frontier(&resp.points, None));
        assert!(resp.report.is_clean());
        assert!(resp.degradations().is_empty() && resp.failures().is_empty());
        assert_eq!(resp.cache.misses, 4);
    }

    #[test]
    fn shared_cache_answers_repeat_requests() {
        let g = sample();
        let cache = SweepCache::new();
        let req = ExploreRequest::new(g).max_f(3).trip_count(60);
        let a = req.run_with(&cache).unwrap();
        let b = req.run_with(&cache).unwrap();
        assert_eq!(a.points, b.points);
        assert_eq!(b.cache.misses, 3, "second run must be all hits");
        assert!(b.cache.hits >= 3);
    }

    #[test]
    fn memoized_response_equals_the_sweep_on_a_warm_cache() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../kernels");
        let kernels = crate::suite::load_kernels(&dir).expect("bundled kernels parse");
        assert_eq!(kernels.len(), 10);
        for (name, g) in kernels {
            let g = Arc::new(g);
            for mode in [DecMode::Bulk, DecMode::PerCopy] {
                let request = |max_f, cap: Option<usize>| {
                    let req = ExploreRequest::new(Arc::clone(&g))
                        .max_f(max_f)
                        .trip_count(60)
                        .mode(mode);
                    match cap {
                        Some(cap) => req.max_registers(cap),
                        None => req,
                    }
                };
                // Two caches warmed alike: one answers through the
                // per-factor lookups, the other through the probe.
                let (swept, probed) = (SweepCache::new(), SweepCache::new());
                let warm = request(4, None).run_with(&swept).unwrap();
                request(4, None).run_with(&probed).unwrap();
                for max_f in 1..=4 {
                    // Uncapped, and capped at the least total registers.
                    let tight = warm.points[..max_f]
                        .iter()
                        .map(|p| p.objectives.total_registers())
                        .min();
                    for cap in [None, tight] {
                        let req = request(max_f, cap);
                        let hits = swept.hits();
                        let want = req.run_with(&swept).unwrap();
                        let got = req.run_memoized(&probed).expect("every point is memoized");
                        let ctx = format!("{name}, {mode:?}, max_f {max_f}, cap {cap:?}");
                        assert_eq!(got.points, want.points, "{ctx}");
                        assert_eq!(got.frontier, want.frontier, "{ctx}");
                        assert_eq!(got.report, want.report, "{ctx}");
                        assert!(got.report.is_clean(), "{ctx}");
                        assert_eq!(got.opts, want.opts, "{ctx}");
                        assert_eq!((&got.exact, &want.exact), (&None, &None), "{ctx}");
                        assert_eq!(got.cache, want.cache, "{ctx}");
                        assert_eq!(got.cache.hits, hits + max_f as u64, "{ctx}");
                        assert_eq!(got.cache.misses, 4, "{ctx}");
                        assert_eq!(probed.state(), swept.state(), "{ctx}");
                    }
                }
            }
        }
    }

    #[test]
    fn run_memoized_refuses_without_touching_the_cache() {
        let g = Arc::new(sample());
        let request = |max_f| {
            ExploreRequest::new(Arc::clone(&g))
                .max_f(max_f)
                .trip_count(60)
        };
        let refuses = |req: &ExploreRequest, cache: &SweepCache, why: &str| {
            let before = cache.state();
            assert!(req.run_memoized(cache).is_none(), "{why}");
            assert_eq!(cache.state(), before, "{why}");
        };
        let cache = SweepCache::new();
        refuses(&request(3), &cache, "cold cache");
        // Factors 1..=3 memoized, 4 asked.
        request(3).run_with(&cache).unwrap();
        refuses(&request(4), &cache, "partly warm");
        // Plans stored, but no point at this trip count or mode...
        refuses(&request(3).trip_count(61), &cache, "other n");
        refuses(&request(3).mode(DecMode::PerCopy), &cache, "other mode");
        // ...or no point at all.
        let plans_only = SweepCache::new();
        for f in 1..=3 {
            plans_only.plan(&g, f);
        }
        refuses(&request(3), &plans_only, "plans only");
        // A machine, invalid options and a spent budget are run_with's
        // to answer, even on a warm cache.
        let scalar = MachineModel::builtin("scalar").unwrap();
        refuses(&request(3).machine(scalar), &cache, "machine");
        for (req, why) in [
            (request(3).threads(0), "threads 0"),
            (request(0), "max_f 0"),
            (request(MAX_MAX_F + 1), "max_f too large"),
            (request(3).trip_count(MAX_N + 1), "n too large"),
        ] {
            refuses(&req, &cache, why);
            assert_eq!(
                req.run_with(&cache).unwrap_err().code(),
                "protocol",
                "{why}"
            );
        }
        let tok = CancelToken::new();
        tok.cancel();
        let cancelled = request(3).cancel(tok);
        refuses(&cancelled, &cache, "cancelled");
        assert_eq!(
            cancelled.run_with(&cache).unwrap_err(),
            CredError::BudgetExhausted(Exhausted::Cancelled)
        );
        assert!(request(3).run_memoized(&cache).is_some(), "warm");
        // A corrupt entry is left for the lookup, which evicts it once
        // and misses once.
        assert!(cache.corrupt_entry_for_test(&g, 2));
        refuses(&request(3), &cache, "corrupted");
        let (hits, misses, evictions) = (cache.hits(), cache.misses(), cache.evictions());
        let healed = request(3).run_with(&cache).unwrap();
        assert_eq!(
            healed.points,
            crate::sweep_reference(&g, 3, 60, DecMode::Bulk)
        );
        assert_eq!(
            (cache.hits(), cache.misses(), cache.evictions()),
            (hits + 2, misses + 1, evictions + 1)
        );
    }

    #[test]
    fn probe_and_lookups_evict_the_same_entry() {
        // Four entries under one global LRU order.
        let graphs: Vec<Arc<Dfg>> = (4..7)
            .map(|k| Arc::new(gen::chain_with_feedback(k, 2)))
            .collect();
        let request = |i: usize, max_f| {
            ExploreRequest::new(Arc::clone(&graphs[i]))
                .max_f(max_f)
                .trip_count(60)
        };
        let swept = SweepCache::with_capacity(4);
        let probed = SweepCache::with_capacity(4);
        for cache in [&swept, &probed] {
            request(0, 2).run_with(cache).unwrap();
            request(1, 2).run_with(cache).unwrap();
        }
        // Graph 0 is asked again, so graph 1's f = 1 becomes the least
        // recently used entry.
        request(0, 2).run_with(&swept).unwrap();
        request(0, 2)
            .run_memoized(&probed)
            .expect("graph 0 is memoized");
        assert_eq!(probed.state(), swept.state());
        for cache in [&swept, &probed] {
            request(2, 1).run_with(cache).unwrap();
            assert_eq!(cache.evictions(), 1);
        }
        assert_eq!(probed.state(), swept.state());
        let keys: Vec<(u64, usize)> = probed.state().2.iter().map(|e| e.0).collect();
        assert_eq!(keys.len(), 4);
        assert!(!keys.contains(&(graphs[1].fingerprint(), 1)), "{keys:?}");
    }

    #[test]
    fn threads_do_not_change_the_answer() {
        let g = sample();
        let serial = ExploreRequest::new(g.clone()).max_f(4).run().unwrap();
        for threads in [2, 4, 8] {
            let par = ExploreRequest::new(g.clone())
                .max_f(4)
                .threads(threads)
                .run()
                .unwrap();
            assert_eq!(par.points, serial.points, "{threads} threads");
        }
    }

    #[test]
    fn register_cap_shapes_the_frontier_not_the_points() {
        let g = sample();
        let open = ExploreRequest::new(g.clone()).max_f(4).run().unwrap();
        let cap = open
            .points
            .iter()
            .map(|p| p.objectives.total_registers())
            .min()
            .unwrap();
        let capped = ExploreRequest::new(g)
            .max_f(4)
            .max_registers(cap)
            .run()
            .unwrap();
        // Points are the cap-independent sweep; only the frontier shrinks.
        assert_eq!(capped.points, open.points);
        assert!(!capped.frontier.is_empty());
        for p in &capped.frontier {
            assert!(p.objectives.total_registers() <= cap);
        }
        assert!(capped.frontier.len() <= open.points.len());
    }

    #[test]
    fn exhausted_admission_is_a_typed_error() {
        let tok = CancelToken::new();
        tok.cancel();
        let err = ExploreRequest::new(sample()).cancel(tok).run().unwrap_err();
        assert_eq!(err, CredError::BudgetExhausted(Exhausted::Cancelled));
        assert_eq!(err.code(), "budget-exhausted");
    }

    #[test]
    fn zero_work_budget_degrades_but_still_answers() {
        // The degradation ladder falls back to the reference solver, so a
        // starved budget yields a complete, degraded, correct response.
        let g = sample();
        let resp = ExploreRequest::new(g.clone())
            .max_f(2)
            .trip_count(60)
            .work_limit(0)
            .run()
            .unwrap();
        assert_eq!(
            resp.points,
            crate::sweep_reference(&g, 2, 60, DecMode::Bulk)
        );
        assert!(!resp.degradations().is_empty());
        assert!(resp.strict_violation().is_none(), "not strict by default");
    }

    #[test]
    fn strict_surfaces_degradation_as_error() {
        let resp = ExploreRequest::new(sample())
            .max_f(2)
            .trip_count(60)
            .strict(true)
            .work_limit(0)
            .run()
            .unwrap();
        let err = resp.strict_violation().expect("degraded under strict");
        assert_eq!(err.code(), "degraded-under-strict");
        assert_eq!(err.exit_code(), 2);
    }

    #[test]
    fn invalid_options_are_protocol_errors() {
        for req in [
            ExploreRequest::new(sample()).max_f(0),
            ExploreRequest::new(sample()).max_f(MAX_MAX_F + 1),
            ExploreRequest::new(sample()).trip_count(MAX_N + 1),
            ExploreRequest::new(sample()).threads(0),
        ] {
            assert_eq!(
                req.run().unwrap_err().code(),
                "protocol",
                "{:?}",
                req.opts()
            );
        }
        // The bounds themselves, and a zero trip count, are evaluable.
        let resp = ExploreRequest::new(sample())
            .max_f(1)
            .trip_count(MAX_N)
            .run()
            .unwrap();
        assert_eq!(resp.points.len(), 1);
        ExploreRequest::new(sample())
            .max_f(1)
            .trip_count(0)
            .run()
            .unwrap();
    }

    #[test]
    fn from_source_maps_parse_failures() {
        assert!(ExploreRequest::from_source("loop { a = a").is_err());
        let err = ExploreRequest::from_source("not a kernel").unwrap_err();
        assert_eq!(err.code(), "parse");
    }

    #[test]
    fn coalesce_key_sees_compute_inputs_only() {
        let g = sample();
        let base = ExploreRequest::new(g.clone()).max_f(3);
        let key = base.coalesce_key();
        // Limits, threads, and strictness do not change the key...
        let limited = ExploreRequest::new(g.clone())
            .max_f(3)
            .threads(8)
            .strict(true)
            .work_limit(10)
            .deadline(Duration::from_secs(1));
        assert_eq!(limited.coalesce_key(), key);
        // ...but every compute input does.
        assert_ne!(ExploreRequest::new(g.clone()).max_f(2).coalesce_key(), key);
        assert_ne!(
            ExploreRequest::new(g.clone())
                .max_f(3)
                .trip_count(7)
                .coalesce_key(),
            key
        );
        assert_ne!(
            ExploreRequest::new(g.clone())
                .max_f(3)
                .mode(DecMode::PerCopy)
                .coalesce_key(),
            key
        );
        // The register cap shapes the response's frontier, so it splits
        // the key too.
        assert_ne!(
            ExploreRequest::new(g.clone())
                .max_f(3)
                .max_registers(8)
                .coalesce_key(),
            key
        );
        // A cap of zero is a real cap, distinct from "uncapped".
        assert_ne!(
            ExploreRequest::new(g.clone())
                .max_f(3)
                .max_registers(0)
                .coalesce_key(),
            key
        );
        // The machine is a compute input too: naming one changes the
        // key, and different machines get different keys.
        let scalar = ExploreRequest::new(g.clone())
            .max_f(3)
            .machine(MachineModel::builtin("scalar").unwrap());
        assert_ne!(scalar.coalesce_key(), key);
        assert_ne!(
            ExploreRequest::new(g)
                .max_f(3)
                .machine(MachineModel::builtin("vliw2").unwrap())
                .coalesce_key(),
            scalar.coalesce_key()
        );
    }

    #[test]
    fn machine_request_reports_proven_exact_ii() {
        // Without a machine the response carries no exact summary.
        let plain = ExploreRequest::new(sample()).max_f(2).run().unwrap();
        assert!(plain.exact.is_none());
        // With one, the II is the solver's proof — equal to what the
        // standalone exact entry point computes — and the proven modulo
        // schedule's register pressure rides along.
        let m = MachineModel::builtin("scalar").unwrap();
        let resp = ExploreRequest::new(sample())
            .max_f(2)
            .machine(m.clone())
            .run()
            .unwrap();
        let exact = resp.exact.expect("machine was named");
        assert_eq!(exact.machine, "scalar");
        let sched = cred_exact::exact_schedule(&sample(), &m);
        assert_eq!(exact.ii, sched.ii);
        assert!(exact.source.is_fast());
        let expected = KernelSchedule::modulo(&sample(), &sched.slot, &sched.stage, sched.ii)
            .maxlive()
            .maxlive;
        assert_eq!(exact.maxlive, Some(expected));
        // The unconstrained machine degenerates to the retiming minimum.
        let un = ExploreRequest::new(sample())
            .machine(MachineModel::unconstrained())
            .run()
            .unwrap();
        assert_eq!(
            un.exact.unwrap().ii,
            cred_retime::min_period_retiming(&sample()).period
        );
    }

    #[test]
    fn starved_exact_pass_falls_back_to_retiming_lower_bound() {
        // A zero work budget exhausts inside the exact search; the
        // degradation ladder substitutes the resource-blind retiming
        // bound under the machine's latencies and says so in the source.
        let mac = cred_lang::parse("loop { B[i] = 5; A[i] = A[i-1] * B[i] + 1 @ 3; }").unwrap();
        let vliw2 = MachineModel::builtin("vliw2").unwrap();
        // vliw2's 2-cycle MAC latency overrides the multiply's own time of
        // 3, so its bound lies below the kernel's own minimum period.
        assert!(
            cred_exact::retiming_bound(&mac, &vliw2)
                < cred_retime::min_period_retiming(&mac).period
        );
        let scalar = MachineModel::builtin("scalar").unwrap();
        for (g, m) in [(sample(), scalar), (mac, vliw2)] {
            let resp = ExploreRequest::new(g.clone())
                .max_f(2)
                .machine(m.clone())
                .work_limit(0)
                .run()
                .unwrap();
            let exact = resp.exact.expect("machine was named");
            let bound = cred_exact::retiming_bound(&g, &m);
            assert_eq!(exact.ii, bound, "{}", m.name);
            assert!(bound <= cred_exact::exact_schedule(&g, &m).ii, "{}", m.name);
            assert_eq!(exact.maxlive, None, "a lower bound has no schedule");
            match &exact.source {
                PlanSource::Reference(ev) => {
                    assert!(ev.site.contains("explore.exact"), "{}", ev.site);
                    assert!(matches!(ev.cause, DegradeCause::Exhausted(_)));
                }
                PlanSource::Solver => panic!("starved search cannot claim a proof"),
            }
            // The summary JSON names the fallback and nulls maxlive.
            let j = exact_json(&exact);
            assert!(j.contains("retiming-lower-bound"), "{j}");
            assert!(j.contains("\"maxlive\": null"), "{j}");
        }
        // A proven summary renders its source as "solver".
        let solver_json = exact_json(&ExactSummary {
            machine: "scalar".into(),
            ii: 5,
            maxlive: Some(4),
            source: PlanSource::Solver,
        });
        assert!(solver_json.contains("\"solver\""), "{solver_json}");
        assert!(solver_json.contains("\"maxlive\": 4"), "{solver_json}");
    }

    #[test]
    fn point_json_nests_the_four_objectives() {
        let g = sample();
        let resp = ExploreRequest::new(g)
            .max_f(3)
            .trip_count(60)
            .run()
            .unwrap();
        let v3 = point_json(&resp.points[0]);
        assert!(v3.contains("\"objectives\""), "{v3}");
        assert!(v3.contains("\"cond_registers\""), "{v3}");
        assert!(v3.contains("\"maxlive\""), "{v3}");
    }
}
