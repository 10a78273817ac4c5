//! The differential oracle: run one [`Case`] through every generator its
//! transformation order covers, execute the results on `cred-vm`, and
//! check five independent layers of predictions:
//!
//! 1. **static** — code size, compute count, register count, and trip
//!    count against `cred-codegen`'s closed-form [`ExpectedCounts`];
//! 2. **values** — every array element against
//!    [`Dfg::reference_execution`](cred_dfg::Dfg::reference_execution)
//!    via the VM's strict semantics (structured
//!    [`DiffReport`] on mismatch);
//! 3. **dynamic** — executed/nullified instruction counts reported by the
//!    VM against the same closed forms (Theorems 4.1/4.2/4.6);
//! 4. **trace** — the guard-state dry run ([`trace_loop`]) must agree
//!    with both the static schedule (`trip * body computes` events) and
//!    the dynamic counts;
//! 5. **exact** — the case's kernel is rescheduled from scratch by the
//!    exact resource-constrained scheduler (`cred-exact`) under the
//!    case's sampled [`MachineModel`](cred_exact::MachineModel): the
//!    schedule must pass the independent legality checker (window,
//!    resources, dependences), the rejected-II ladder must be contiguous
//!    with an arithmetically verified witness per rung (II-optimality),
//!    the II must be at least the retiming minimum period of the
//!    machine-effective graph and **bit-identical** to it on a machine
//!    that caps no class and no issue width, no rung below that bound
//!    may be certified by exhaustion, and the schedule's stage retiming is
//!    lowered into a pipelined program and pushed through layers 1–4 like
//!    every other generator.
//!
//! Each case is derived once, into one `CaseDerivation`: the
//! retime-unfold plan's retiming or the unfold-then-retime optimum
//! (`Unfolded`, `MinPeriodResult`), the generated programs with their
//! closed-form expectations, and the guard traces layer 4 computes for the
//! CRED programs. Layers 1–4 run on every program in it. Once they pass,
//! the paper's theorem checkers (`cred_core::theorems`) read the same
//! derivation instead of regenerating it:
//!
//! * 4.1 and 4.2 read the trace of the `cred` program, and 4.3 its
//!   register count and code size;
//! * 4.6 reads the trace of the case's own CRED program, and 4.7 compares
//!   its register count with the `cred` program's;
//! * 4.4 reads the generated unfold-retime program, and 4.5 the
//!   unfold-then-retime optimum. A retime-unfold case derives no such
//!   optimum, so its theorem layer computes one for 4.5, with the W/D
//!   solver on the built unfolding, and fails the case when the plan's
//!   period differs from it. The plan comes from the FEAS planner, so
//!   every retime-unfold case is a differential test of the two
//!   algorithms, at no extra solve.
//!
//! The claim of 4.3, 4.6 and 4.7 that the programs compute the same
//! results is layer 2's verified diff, on the selected executor, so the
//! theorem layer executes nothing. 4.6 and 4.7 check the case's program in
//! whichever decrement mode the case drew, not an extra `DecMode::Bulk`
//! copy: both modes enable the same instances at the same loop indices.
//! That choice held with no failure on the first 5,000 cases of seed 0
//! and on 20,000-case streams at seeds 4 and 5.

use crate::case::{Case, TransformOrder};
use cred_codegen::cred::{cred_pipelined, cred_retime_unfold, cred_unfold_retime};
use cred_codegen::pipeline::{original_program, pipelined_program};
use cred_codegen::unfolded::{retime_unfold_program, unfold_retime_program};
use cred_codegen::{ExpectedCounts, Inst, LoopProgram};
use cred_core::theorems;
use cred_exact::{check as exact_check, exact_schedule_budgeted};
use cred_explore::cache::{compute_plan, FactorPlan};
use cred_resilience::Budget;
use cred_retime::{min_period_retiming, MinPeriodResult, Retiming};
use cred_schedule::{sequential_maxlive, KernelSchedule, MaxliveScratch};
use cred_unfold::{unfold, Unfolded};
use cred_vm::{compile, execute, execute_tape, trace_loop, value_diff, DiffReport, TraceEvent};
use std::fmt;

/// Which `cred-vm` executor the oracle's execution layer runs.
///
/// [`Executor::Tape`] (the default) compiles each program once into a
/// flat instruction tape and runs that, with the runtime discipline
/// checks proved away at compile time. Every generated program must
/// compile: one whose tape would fall back to the tree-walker
/// (`Tape::preverified` false) fails the static layer, so a generator
/// change that knocks programs off the compiled path fails the fuzz
/// suite instead of quietly slowing it down. A mutated program may fall
/// back; its faults then come from the tree-walker.
/// [`Executor::Tree`] is the tree-walking interpreter, kept as the
/// reference semantics; the two are held equivalent by
/// `cred_vm::cross_check_executors` and the differential proptests, so
/// running the oracle under `Tree` (`credc verify --executor tree`) is a
/// cross-check of the tape compiler itself, not a different oracle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Executor {
    /// Compile to a flat tape, then execute (default).
    #[default]
    Tape,
    /// Tree-walk the program directly (reference semantics).
    Tree,
}

/// Which oracle layer rejected the case.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// Static instruction counts deviate from the closed forms.
    Static,
    /// The VM faulted or produced values differing from the reference.
    Values,
    /// Executed/nullified counts deviate from the closed forms.
    Dynamic,
    /// The guard-state trace disagrees with the schedule or the counts.
    Trace,
    /// A `cred-core` theorem checker rejected the case.
    Theorem,
    /// The exact scheduler's product failed re-validation: illegal
    /// schedule, broken II ladder, bogus infeasibility witness, or a
    /// period diverging from the retiming solvers.
    Exact,
    /// The closed-form maxlive (register pressure) of a kernel schedule
    /// disagrees with the brute-force live-interval replay.
    Maxlive,
}

/// A rejected case: which program, which oracle layer, and a rendered
/// diagnostic.
#[derive(Debug, Clone)]
pub struct VerifyFailure {
    /// Generator tag of the failing program (`"cred"`, `"pipelined"`,
    /// ...), or `"theorems"` for a theorem-layer failure.
    pub program: String,
    /// The oracle layer that fired.
    pub kind: FailureKind,
    /// Human-readable diagnostic (VM site/diff reports included).
    pub detail: String,
}

impl fmt::Display for VerifyFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{:?}] {}: {}", self.kind, self.program, self.detail)
    }
}

impl std::error::Error for VerifyFailure {}

/// Per-program summary of a passing case. `PartialEq` so the chaos
/// harness can compare a run under fault injection bit-for-bit against
/// its fault-free baseline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProgramReport {
    /// Generator tag.
    pub name: String,
    /// Static code size.
    pub code_size: usize,
    /// Conditional registers used.
    pub registers: usize,
    /// Guard-enabled compute executions.
    pub computes_executed: u64,
    /// Guard-disabled compute executions.
    pub computes_nullified: u64,
}

/// Everything a passing case established.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CaseReport {
    /// The case's provenance tag.
    pub label: String,
    /// Minimum cycle period of the (unfolded) graph the pipeline found.
    pub period: u64,
    /// Optimal initiation interval the exact scheduler proved for the
    /// kernel under the case's machine model (layer 5).
    pub exact_ii: u64,
    /// One entry per program the oracle generated and executed.
    pub programs: Vec<ProgramReport>,
}

fn computes(insts: &[Inst]) -> u64 {
    insts
        .iter()
        .filter(|i| matches!(i, Inst::Compute { .. }))
        .count() as u64
}

/// A generated program and its closed-form expectations.
struct Generated {
    program: LoopProgram,
    expect: ExpectedCounts,
    /// Whether a theorem checker reads this program's guard trace.
    keeps_trace: bool,
    /// Layer 4's guard trace when `keeps_trace`; filled once layers 1–4
    /// pass the program, empty otherwise.
    trace: Vec<TraceEvent>,
}

impl Generated {
    fn new(program: LoopProgram, expect: ExpectedCounts) -> Self {
        Generated {
            program,
            expect,
            keeps_trace: false,
            trace: Vec::new(),
        }
    }

    /// A program whose guard trace a theorem checker reads.
    fn traced(program: LoopProgram, expect: ExpectedCounts) -> Self {
        Generated {
            keeps_trace: true,
            ..Generated::new(program, expect)
        }
    }
}

/// What a case's transformation order derives beyond the original
/// program.
enum Derived {
    RetimeUnfold {
        /// The production plan: its projected retiming generates every
        /// program below.
        plan: FactorPlan,
        pipelined: Generated,
        retime_unfold: Generated,
        /// The case's CRED program, in the case's decrement mode. At
        /// `f = 1` it is named `cred` and is instruction-identical to
        /// `cred_pipelined` in both modes.
        cred_retime_unfold: Generated,
        /// `cred_pipelined`, generated separately only when `f > 1`.
        cred: Option<Box<Generated>>,
    },
    UnfoldRetime {
        /// The `f`-unfolding.
        unfolded: Unfolded,
        /// Its minimum-period retiming, which generates both programs
        /// below.
        optimum: MinPeriodResult,
        unfold_retime: Generated,
        cred_unfold_retime: Generated,
    },
}

/// Everything the oracle derives for one case, built once: the plan
/// retiming or the unfold-then-retime optimum, the generated programs with
/// their closed-form expectations, and the guard traces the theorem
/// checkers read. Layers 1–4 run on every program in it; the maxlive and
/// theorem layers read it only after they pass.
struct CaseDerivation {
    original: Generated,
    order: Derived,
}

impl CaseDerivation {
    /// Generate every program the case's transformation order produces.
    fn generate(case: &Case) -> Self {
        let g = &case.graph;
        let (n, f) = (case.n, case.f);
        let original = Generated::new(original_program(g, n), ExpectedCounts::original(g, n));
        let order = match case.order {
            TransformOrder::RetimeUnfold => {
                // The production path under attack: the FEAS planner
                // behind `cred explore` (period search from the iteration
                // bound, whose answer has minimum span, register
                // compaction, Theorem 4.5 projection).
                let plan = compute_plan(g, f);
                let r = &plan.projected;
                Derived::RetimeUnfold {
                    pipelined: Generated::new(
                        pipelined_program(g, r, n),
                        ExpectedCounts::pipelined(g, r, n),
                    ),
                    retime_unfold: Generated::new(
                        retime_unfold_program(g, r, f, n),
                        ExpectedCounts::retime_unfold(g, r, f, n),
                    ),
                    cred_retime_unfold: Generated::traced(
                        cred_retime_unfold(g, r, f, n, case.mode),
                        ExpectedCounts::cred_retime_unfold(g, r, f, n, case.mode),
                    ),
                    // Also collapse the un-unfolded pipelined loop, so
                    // every case attacks the f = 1 CRED path as well.
                    cred: (f > 1).then(|| {
                        Box::new(Generated::traced(
                            cred_pipelined(g, r, n),
                            ExpectedCounts::cred_pipelined(g, r, n),
                        ))
                    }),
                    plan,
                }
            }
            TransformOrder::UnfoldRetime => {
                let unfolded = unfold(g, f);
                let optimum = min_period_retiming(&unfolded.graph);
                let (u, r_f) = (&unfolded, &optimum.retiming);
                Derived::UnfoldRetime {
                    unfold_retime: Generated::new(
                        unfold_retime_program(g, u, r_f, n),
                        ExpectedCounts::unfold_retime(g, u, r_f, n),
                    ),
                    cred_unfold_retime: Generated::new(
                        cred_unfold_retime(g, u, r_f, n),
                        ExpectedCounts::cred_unfold_retime(g, u, r_f, n),
                    ),
                    unfolded,
                    optimum,
                }
            }
        };
        CaseDerivation { original, order }
    }

    /// The programs in report order.
    fn programs_mut(&mut self) -> Vec<&mut Generated> {
        let mut out = vec![&mut self.original];
        match &mut self.order {
            Derived::RetimeUnfold {
                pipelined,
                retime_unfold,
                cred_retime_unfold,
                cred,
                ..
            } => {
                out.extend([pipelined, retime_unfold, cred_retime_unfold]);
                out.extend(cred.as_deref_mut());
            }
            Derived::UnfoldRetime {
                unfold_retime,
                cred_unfold_retime,
                ..
            } => out.extend([unfold_retime, cred_unfold_retime]),
        }
        out
    }

    /// Minimum cycle period of the (unfolded) graph the pipeline found.
    fn period(&self) -> u64 {
        match &self.order {
            Derived::RetimeUnfold { plan, .. } => plan.period,
            Derived::UnfoldRetime { optimum, .. } => optimum.period,
        }
    }

    /// The retime-unfold plan's projected retiming (`None` for an
    /// unfold-retime case).
    fn plan(&self) -> Option<&Retiming> {
        match &self.order {
            Derived::RetimeUnfold { plan, .. } => Some(&plan.projected),
            Derived::UnfoldRetime { .. } => None,
        }
    }
}

/// Layers 1–4 on one program. Returns its report and layer 4's guard
/// trace (empty for a program without a loop).
fn verify_program(
    case: &Case,
    p: &LoopProgram,
    expect: &ExpectedCounts,
    reference: &[Vec<i64>],
    executor: Executor,
    mutated: bool,
) -> Result<(ProgramReport, Vec<TraceEvent>), VerifyFailure> {
    let fail = |kind, detail: String| VerifyFailure {
        program: p.name.clone(),
        kind,
        detail,
    };
    // Layer 1: static counts. Skipped for mutated programs — a mutation
    // is free to change the static shape; what matters is that the
    // execution layers below catch it.
    if !mutated {
        expect
            .check_static(p)
            .map_err(|e| fail(FailureKind::Static, e))?;
    }
    // Layer 2: strict execution + full value diff against the case's
    // (precomputed) reference recurrence, on the selected executor. A
    // generated program must take the compiled tape path.
    let exec_fail = |e| fail(FailureKind::Values, DiffReport::Exec(e).to_string());
    let res = match executor {
        Executor::Tape if !mutated => {
            let tape = compile(p).map_err(exec_fail)?;
            if !tape.preverified() {
                return Err(fail(
                    FailureKind::Static,
                    "generated program did not compile to a tape (it would run on the \
                     tree-walker)"
                        .into(),
                ));
            }
            tape.execute()
        }
        Executor::Tape => execute_tape(p),
        Executor::Tree => execute(p),
    }
    .map_err(exec_fail)?;
    let cells = value_diff(&case.graph, p.n as usize, &res.arrays, reference);
    if !cells.is_empty() {
        return Err(fail(
            FailureKind::Values,
            DiffReport::Values { cells }.to_string(),
        ));
    }
    // Layer 3: dynamic counts.
    expect
        .check_dynamic(res.computes_executed, res.computes_nullified)
        .map_err(|e| fail(FailureKind::Dynamic, e))?;
    // Layer 4: the guard-state trace agrees with the static schedule and
    // with the dynamic counts (straight-line pre/post computes always
    // execute and are not traced).
    let mut ev = Vec::new();
    if let Some(l) = &p.body {
        ev = trace_loop(p);
        let want_events = l.trip_count() * computes(&l.body);
        if ev.len() as u64 != want_events {
            return Err(fail(
                FailureKind::Trace,
                format!(
                    "trace produced {} events, schedule says trip * body = {}",
                    ev.len(),
                    want_events
                ),
            ));
        }
        let enabled = ev.iter().filter(|e| e.enabled).count() as u64;
        let straight_line = computes(&p.pre) + computes(&p.post);
        if enabled + straight_line != expect.computes_executed {
            return Err(fail(
                FailureKind::Trace,
                format!(
                    "trace enabled {enabled} + straight-line {straight_line} != expected executed {}",
                    expect.computes_executed
                ),
            ));
        }
    }
    let report = ProgramReport {
        name: p.name.clone(),
        code_size: p.code_size(),
        registers: p.register_count(),
        computes_executed: res.computes_executed,
        computes_nullified: res.computes_nullified,
    };
    Ok((report, ev))
}

/// Layer 5: reschedule the kernel exactly under the case's machine model
/// and re-validate everything the solver claims. Returns the proven
/// schedule and the [`ProgramReport`] of the pipelined program generated
/// from its stage retiming (executed through layers 1–4).
fn check_exact(
    case: &Case,
    reference: &[Vec<i64>],
    executor: Executor,
) -> Result<(cred_exact::ExactSchedule, ProgramReport), VerifyFailure> {
    let g = &case.graph;
    let m = &case.machine;
    let fail = |detail: String| VerifyFailure {
        program: "exact".into(),
        kind: FailureKind::Exact,
        detail,
    };
    // Budgeted entry so an armed `exact.branch` fail point surfaces as a
    // typed degradation instead of a panic (the chaos harness depends on
    // this; an unlimited budget itself never binds).
    let sched = exact_schedule_budgeted(g, m, &Budget::unlimited())
        .map_err(|e| fail(format!("search interrupted: {e}")))?;
    exact_check::check_schedule(g, m, &sched)
        .map_err(|e| fail(format!("illegal schedule at II {}: {e}", sched.ii)))?;
    // II-optimality: the ladder below the achieved II must be complete,
    // contiguous, and certified rung by rung.
    if sched.rejected.len() as u64 != sched.ii - 1 {
        return Err(fail(format!(
            "II {} claimed optimal but only {} rungs were rejected",
            sched.ii,
            sched.rejected.len()
        )));
    }
    for (i, rung) in sched.rejected.iter().enumerate() {
        if rung.ii != i as u64 + 1 {
            return Err(fail(format!(
                "ladder not contiguous: rung {i} claims II {}",
                rung.ii
            )));
        }
        exact_check::check_witness(g, m, rung)
            .map_err(|e| fail(format!("witness for II {}: {e}", rung.ii)))?;
    }
    // Differential agreement with the retiming solvers on the
    // machine-effective graph: a hard lower bound on every machine, met
    // exactly when the machine caps no class and no issue width (latency
    // overrides only change the op times). Below the bound the period
    // constraints alone must have rejected every rung the screens passed,
    // so no rung there may rest on an exhausted search.
    let bound = cred_exact::retiming_bound(g, m);
    let caps_nothing =
        m.issue_width.is_none() && cred_dfg::OpClass::ALL.iter().all(|&c| m.units(c).is_none());
    if sched.ii < bound {
        return Err(fail(format!(
            "II {} beats the resource-free lower bound {bound}",
            sched.ii
        )));
    }
    if caps_nothing && sched.ii != bound {
        return Err(fail(format!(
            "II {} on a machine that caps nothing != retiming min period {bound}",
            sched.ii
        )));
    }
    if let Some(rung) = sched
        .rejected
        .iter()
        .find(|r| r.ii < bound && matches!(r.witness, cred_exact::Infeasible::Exhausted { .. }))
    {
        return Err(fail(format!(
            "II {} below the retiming bound {bound} rests on an exhausted search",
            rung.ii
        )));
    }
    // Lower the exact schedule into the code-generation pipeline: its
    // stage retiming must be a legal retiming, and the pipelined program
    // built from it must survive the four VM-facing layers like any
    // other generator's output.
    let r = sched.stage_retiming();
    if !r.is_legal(g) {
        return Err(fail("stage retiming is not a legal retiming".into()));
    }
    let mut p = pipelined_program(g, &r, case.n);
    p.name = "exact-pipelined".into();
    let expect = ExpectedCounts::pipelined(g, &r, case.n);
    let (report, _) = verify_program(case, &p, &expect, reference, executor, false)?;
    Ok((sched, report))
}

/// Maxlive layer: the closed-form steady-state register-pressure count
/// (the fourth explore objective) must agree with an explicit
/// live-interval replay on the same kernel schedule — both for the
/// production retime+unfold sequential kernel and for the exact modulo
/// schedule when one exists. The sequential kernel's report at the case's
/// `f` must also equal the one-copy computation the explore engine
/// reports ([`sequential_maxlive`]), which holds because the pressure does
/// not depend on `f`.
fn check_maxlive(
    case: &Case,
    plan: Option<&Retiming>,
    exact: Option<&cred_exact::ExactSchedule>,
) -> Result<(), VerifyFailure> {
    let g = &case.graph;
    let fail = |detail: String| VerifyFailure {
        program: "maxlive".into(),
        kind: FailureKind::Maxlive,
        detail,
    };
    if let Some(r) = plan {
        let k = KernelSchedule::sequential(g, r, case.f);
        let report = k.maxlive();
        let closed = report.maxlive;
        let replayed = k.replay_maxlive();
        if closed != replayed {
            return Err(fail(format!(
                "sequential kernel (f = {}): closed-form maxlive {closed} != replayed {replayed}",
                case.f
            )));
        }
        let one_copy = sequential_maxlive(g, r, case.f, &mut MaxliveScratch::default());
        if one_copy != report {
            return Err(fail(format!(
                "sequential kernel (f = {}): closed form {report:?} != one copy {one_copy:?}",
                case.f
            )));
        }
    }
    if let Some(sched) = exact {
        let k = KernelSchedule::modulo(g, &sched.slot, &sched.stage, sched.ii);
        let closed = k.maxlive().maxlive;
        let replayed = k.replay_maxlive();
        if closed != replayed {
            return Err(fail(format!(
                "modulo kernel (II = {}): closed-form maxlive {closed} != replayed {replayed}",
                sched.ii
            )));
        }
    }
    Ok(())
}

/// The paper's theorem checkers, over the case's derivation once layers
/// 1–4 have passed on every program in it. The CRED programs' results
/// are the ones layer 2 diffed against the recurrence, so the checkers
/// do not run them again.
fn check_theorems(case: &Case, d: &CaseDerivation) -> Result<(), VerifyFailure> {
    let g = &case.graph;
    let (n, f) = (case.n, case.f);
    let fail = |detail: String| VerifyFailure {
        program: "theorems".into(),
        kind: FailureKind::Theorem,
        detail,
    };
    let retime_unfold = |r: &Retiming| retime_unfold_program(g, r, f, n);
    match &d.order {
        Derived::RetimeUnfold {
            plan,
            cred_retime_unfold,
            cred,
            ..
        } => {
            let r = &plan.projected;
            let cred = cred.as_deref().unwrap_or(cred_retime_unfold);
            theorems::check_4_1(g, r, n, &cred.trace).map_err(&fail)?;
            theorems::check_4_2(g, r, n, &cred.trace).map_err(&fail)?;
            theorems::check_4_3(g, r, &cred.program).map_err(&fail)?;
            // No other layer of a retime-unfold case builds the
            // unfold-then-retime optimum, so Theorem 4.5 computes it here.
            // The W/D solver finds it on the built unfolding, independently
            // of the FEAS planner behind the plan, so the plan's period is
            // checked against it too.
            let u = unfold(g, f);
            let optimum = min_period_retiming(&u.graph);
            if plan.period != optimum.period {
                return Err(fail(format!(
                    "plan period {} against the unfold-then-retime optimum {}",
                    plan.period, optimum.period
                )));
            }
            theorems::check_4_5(g, n, &u, &optimum, retime_unfold).map_err(&fail)?;
            theorems::check_4_6(g, r, n, &cred_retime_unfold.trace).map_err(&fail)?;
            theorems::check_4_7(&cred.program, &cred_retime_unfold.program).map_err(&fail)?;
        }
        Derived::UnfoldRetime {
            unfolded,
            optimum,
            unfold_retime,
            ..
        } => {
            theorems::check_4_4(g, f, n, &optimum.retiming, &unfold_retime.program)
                .map_err(&fail)?;
            theorems::check_4_5(g, n, unfolded, optimum, retime_unfold).map_err(&fail)?;
        }
    }
    Ok(())
}

/// Run the full oracle on one case (on the default [`Executor::Tape`]).
pub fn verify_case(case: &Case) -> Result<CaseReport, VerifyFailure> {
    verify_case_with(case, None, Executor::default())
}

/// Run the full oracle on one case with an explicit execution backend.
pub fn verify_case_on(case: &Case, executor: Executor) -> Result<CaseReport, VerifyFailure> {
    verify_case_with(case, None, executor)
}

/// Run the oracle with a program mutator injected between code generation
/// and execution — the mutation-testing entry point. The mutator sees
/// every generated program (filter on `p.name` to target one). Layer 1's
/// static counts are skipped for the mutated programs; layers 2–4 and the
/// theorem checkers read them, traces included. The exact and maxlive
/// layers build their own schedules, which no program mutator reaches, so
/// both are skipped and the report's `exact_ii` is 0.
pub fn verify_case_mutated(
    case: &Case,
    mutate: &dyn Fn(&mut LoopProgram),
) -> Result<CaseReport, VerifyFailure> {
    verify_case_with(case, Some(mutate), Executor::default())
}

/// The bare programs the case's transformation order generates — the
/// differential-testing surface. Exposed so cross-executor tests (the
/// `execute_tape == execute` proptests, dual-executor corpus replay) can
/// run both VM backends over exactly the programs the oracle would.
pub fn case_programs(case: &Case) -> Vec<LoopProgram> {
    CaseDerivation::generate(case)
        .programs_mut()
        .into_iter()
        .map(|gen| gen.program.clone())
        .collect()
}

fn verify_case_with(
    case: &Case,
    mutate: Option<&dyn Fn(&mut LoopProgram)>,
    executor: Executor,
) -> Result<CaseReport, VerifyFailure> {
    let mut d = CaseDerivation::generate(case);
    let mut programs = d.programs_mut();
    if let Some(m) = mutate {
        for gen in &mut programs {
            m(&mut gen.program);
        }
    }
    // Every generated program is diffed against the same recurrence, so
    // evaluate it once per case rather than once per program.
    let reference = case.graph.reference_execution(case.n as usize);
    let mut reports = Vec::with_capacity(programs.len() + 1);
    for gen in programs {
        let (report, trace) = verify_program(
            case,
            &gen.program,
            &gen.expect,
            &reference,
            executor,
            mutate.is_some(),
        )?;
        reports.push(report);
        if gen.keeps_trace {
            gen.trace = trace;
        }
    }
    // Layer 5 and the maxlive layer schedule the kernel themselves, so a
    // program mutator cannot reach them — skip both under mutation (the
    // exact layer has its own mutation hook inside the solver).
    let exact_ii = if mutate.is_none() {
        let (sched, exact_report) = check_exact(case, &reference, executor)?;
        reports.push(exact_report);
        check_maxlive(case, d.plan(), Some(&sched))?;
        sched.ii
    } else {
        0
    };
    check_theorems(case, &d)?;
    Ok(CaseReport {
        label: case.label.clone(),
        period: d.period(),
        exact_ii,
        programs: reports,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::case::{random_case, CaseConfig};
    use cred_codegen::DecMode;
    use cred_dfg::gen;
    use cred_exact::MachineModel;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn chain_case(order: TransformOrder) -> Case {
        Case {
            label: "chain".into(),
            graph: gen::chain_with_feedback(5, 2),
            n: 17,
            f: 2,
            order,
            mode: DecMode::Bulk,
            machine: MachineModel::unconstrained(),
        }
    }

    #[test]
    fn chain_passes_both_orders() {
        for order in [TransformOrder::RetimeUnfold, TransformOrder::UnfoldRetime] {
            let rep = verify_case(&chain_case(order)).unwrap();
            assert!(rep.programs.len() >= 3);
            // The original program is always first and unguarded.
            assert_eq!(rep.programs[0].name, "original");
            assert_eq!(rep.programs[0].computes_nullified, 0);
        }
    }

    #[test]
    fn random_cases_pass() {
        let mut rng = StdRng::seed_from_u64(99);
        let cfg = CaseConfig::default();
        for i in 0..25 {
            let c = random_case(&mut rng, format!("t{i}"), &cfg);
            verify_case(&c).unwrap_or_else(|e| panic!("{c}: {e}"));
        }
    }

    #[test]
    fn guard_offset_mutation_is_caught() {
        let case = chain_case(TransformOrder::RetimeUnfold);
        let err = verify_case_mutated(&case, &|p| {
            if !p.name.starts_with("cred") {
                return;
            }
            if let Some(l) = &mut p.body {
                for inst in &mut l.body {
                    if let cred_codegen::Inst::Compute { guard: Some(g), .. } = inst {
                        g.offset += 1;
                        return;
                    }
                }
            }
        })
        .unwrap_err();
        // The shifted guard window mis-masks the prologue: the VM layers
        // must catch it (as a fault, a value diff, or a count deviation).
        assert!(
            matches!(
                err.kind,
                FailureKind::Values | FailureKind::Dynamic | FailureKind::Trace
            ),
            "{err}"
        );
    }

    #[test]
    fn exact_layer_runs_on_every_machine() {
        // The same kernel rescheduled under every builtin: the scalar
        // machine must serialize the five ops (II = 5 on a 5-node chain
        // with issue width 1), while unconstrained matches the retiming
        // period; every report carries the exact-pipelined program.
        for name in MachineModel::BUILTIN_NAMES {
            let mut case = chain_case(TransformOrder::RetimeUnfold);
            case.machine = MachineModel::builtin(name).unwrap();
            let rep = verify_case(&case).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(rep.exact_ii >= 1, "{name}");
            assert!(
                rep.programs.iter().any(|p| p.name == "exact-pipelined"),
                "{name}: {rep:?}"
            );
            if name == "scalar" {
                assert_eq!(rep.exact_ii, 5, "width-1 machine must serialize");
            }
            if name == "unconstrained" {
                assert_eq!(rep.exact_ii, min_period_retiming(&case.graph).period);
            }
        }
    }

    #[test]
    fn generated_program_off_the_compiled_tape_fails_static() {
        // The original program with its loop body reversed passes the
        // static counts, but the discipline proof rejects it (reads come
        // before their writes), so its tape would run on the tree-walker.
        let case = chain_case(TransformOrder::RetimeUnfold);
        let g = &case.graph;
        let mut p = original_program(g, case.n);
        p.body.as_mut().unwrap().body.reverse();
        let expect = ExpectedCounts::original(g, case.n);
        let reference = g.reference_execution(case.n as usize);
        let run =
            |executor| verify_program(&case, &p, &expect, &reference, executor, false).unwrap_err();
        let tape = run(Executor::Tape);
        assert_eq!(tape.kind, FailureKind::Static, "{tape}");
        assert_eq!(tape.program, "original", "{tape}");
        let tree = run(Executor::Tree);
        assert_eq!(tree.kind, FailureKind::Values, "{tree}");
    }

    #[test]
    fn identity_mutation_passes() {
        let case = chain_case(TransformOrder::UnfoldRetime);
        verify_case_mutated(&case, &|_| {}).unwrap();
    }

    #[test]
    fn executor_backends_agree_on_reports() {
        let mut rng = StdRng::seed_from_u64(4242);
        let cfg = CaseConfig::default();
        for i in 0..10 {
            let c = random_case(&mut rng, format!("x{i}"), &cfg);
            let tape = verify_case_on(&c, Executor::Tape).unwrap_or_else(|e| panic!("{c}: {e}"));
            let tree = verify_case_on(&c, Executor::Tree).unwrap_or_else(|e| panic!("{c}: {e}"));
            assert_eq!(tape, tree, "{c}");
        }
    }
}
