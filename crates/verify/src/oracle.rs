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
//!    on an unconstrained machine the II must be **bit-identical** to the
//!    retiming minimum period, and the schedule's stage retiming is
//!    lowered into a pipelined program and pushed through layers 1–4 like
//!    every other generator.
//!
//! On top of the per-program checks, the paper's theorem checkers
//! (`cred-core::theorems`, the S_ret / S_{r,f} / S_{f,r} size formulas)
//! run against the case's graph, retiming, and factor.

use crate::case::{Case, TransformOrder};
use cred_codegen::cred::{cred_pipelined, cred_retime_unfold, cred_unfold_retime};
use cred_codegen::pipeline::{original_program, pipelined_program};
use cred_codegen::unfolded::{retime_unfold_program, unfold_retime_program};
use cred_codegen::{ExpectedCounts, Inst, LoopProgram};
use cred_core::theorems;
use cred_exact::{check as exact_check, exact_schedule_budgeted};
use cred_explore::cache::compute_plan;
use cred_resilience::Budget;
use cred_retime::min_period_retiming;
use cred_schedule::KernelSchedule;
use cred_unfold::unfold;
use cred_vm::{execute, execute_tape, trace_loop, value_diff, DiffReport};
use std::fmt;

/// Which `cred-vm` executor the oracle's execution layer runs.
///
/// [`Executor::Tape`] (the default) compiles each program once into a
/// flat instruction tape and runs that — the fast path that lets CI
/// afford 50x the differential-testing budget. [`Executor::Tree`] is the
/// original tree-walking interpreter, kept as the reference semantics;
/// the two are held equivalent by `cred_vm::cross_check_executors` and
/// the differential proptests, so running the oracle under `Tree`
/// (`credc verify --executor tree`) is a cross-check of the tape
/// compiler itself, not a different oracle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Executor {
    /// Compile to a flat tape, then execute (fast path, default).
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

/// All programs the case's transformation order produces, paired with
/// their closed-form expectations, plus the achieved period.
fn programs_for(case: &Case) -> (Vec<(LoopProgram, ExpectedCounts)>, u64) {
    let g = &case.graph;
    let (n, f) = (case.n, case.f);
    let mut out = vec![(original_program(g, n), ExpectedCounts::original(g, n))];
    match case.order {
        TransformOrder::RetimeUnfold => {
            // The production path under attack: the warm-started solver
            // pipeline behind `cred explore` (period search, span
            // minimization, register compaction, Theorem 4.5 projection).
            let plan = compute_plan(g, f);
            let r = &plan.projected;
            out.push((
                pipelined_program(g, r, n),
                ExpectedCounts::pipelined(g, r, n),
            ));
            out.push((
                retime_unfold_program(g, r, f, n),
                ExpectedCounts::retime_unfold(g, r, f, n),
            ));
            out.push((
                cred_retime_unfold(g, r, f, n, case.mode),
                ExpectedCounts::cred_retime_unfold(g, r, f, n, case.mode),
            ));
            if f > 1 {
                // Also collapse the un-unfolded pipelined loop, so every
                // case attacks the f = 1 CRED path as well.
                out.push((
                    cred_pipelined(g, r, n),
                    ExpectedCounts::cred_pipelined(g, r, n),
                ));
            }
            (out, plan.period)
        }
        TransformOrder::UnfoldRetime => {
            let u = unfold(g, f);
            let opt = min_period_retiming(&u.graph);
            let r_f = &opt.retiming;
            out.push((
                unfold_retime_program(g, &u, r_f, n),
                ExpectedCounts::unfold_retime(g, &u, r_f, n),
            ));
            out.push((
                cred_unfold_retime(g, &u, r_f, n),
                ExpectedCounts::cred_unfold_retime(g, &u, r_f, n),
            ));
            (out, opt.period)
        }
    }
}

fn verify_program(
    case: &Case,
    p: &LoopProgram,
    expect: &ExpectedCounts,
    reference: &[Vec<i64>],
    executor: Executor,
    mutated: bool,
) -> Result<ProgramReport, VerifyFailure> {
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
    // (precomputed) reference recurrence, on the selected executor.
    let res = match executor {
        Executor::Tape => execute_tape(p),
        Executor::Tree => execute(p),
    }
    .map_err(|e| fail(FailureKind::Values, DiffReport::Exec(e).to_string()))?;
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
    if let Some(l) = &p.body {
        let ev = trace_loop(p);
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
    Ok(ProgramReport {
        name: p.name.clone(),
        code_size: p.code_size(),
        registers: p.register_count(),
        computes_executed: res.computes_executed,
        computes_nullified: res.computes_nullified,
    })
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
    // Differential agreement with the retiming solvers: bit-identical on
    // an unconstrained machine, a hard lower bound whenever the machine
    // keeps the paper's op times (resources only ever push the II up).
    let no_overrides = cred_dfg::OpClass::ALL
        .iter()
        .all(|&c| m.latency_override(c).is_none());
    if no_overrides {
        let opt = min_period_retiming(g);
        if m.is_unconstrained() && sched.ii != opt.period {
            return Err(fail(format!(
                "unconstrained II {} != retiming min period {}",
                sched.ii, opt.period
            )));
        }
        if sched.ii < opt.period {
            return Err(fail(format!(
                "II {} beats the resource-free lower bound {}",
                sched.ii, opt.period
            )));
        }
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
    let report = verify_program(case, &p, &expect, reference, executor, false)?;
    Ok((sched, report))
}

/// Maxlive layer: the closed-form steady-state register-pressure count
/// (the fourth explore objective) must agree with an explicit
/// live-interval replay on the same kernel schedule — both for the
/// production retime+unfold sequential kernel and for the exact modulo
/// schedule when one exists.
fn check_maxlive(
    case: &Case,
    exact: Option<&cred_exact::ExactSchedule>,
) -> Result<(), VerifyFailure> {
    let g = &case.graph;
    let fail = |detail: String| VerifyFailure {
        program: "maxlive".into(),
        kind: FailureKind::Maxlive,
        detail,
    };
    if case.order == TransformOrder::RetimeUnfold {
        let r = compute_plan(g, case.f).projected;
        let k = KernelSchedule::sequential(g, &r, case.f);
        let closed = k.maxlive().maxlive;
        let replayed = k.replay_maxlive();
        if closed != replayed {
            return Err(fail(format!(
                "sequential kernel (f = {}): closed-form maxlive {closed} != replayed {replayed}",
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

fn check_theorems(case: &Case) -> Result<(), VerifyFailure> {
    let g = &case.graph;
    let (n, f) = (case.n, case.f);
    let fail = |detail: String| VerifyFailure {
        program: "theorems".into(),
        kind: FailureKind::Theorem,
        detail,
    };
    match case.order {
        TransformOrder::RetimeUnfold => {
            let r = compute_plan(g, f).projected;
            theorems::theorem_4_1(g, &r, n).map_err(&fail)?;
            theorems::theorem_4_2(g, &r, n).map_err(&fail)?;
            theorems::theorem_4_3(g, &r, n).map_err(&fail)?;
            theorems::theorem_4_5(g, f, n).map_err(&fail)?;
            theorems::theorem_4_6(g, &r, f, n).map_err(&fail)?;
            theorems::theorem_4_7(g, &r, f, n).map_err(&fail)?;
        }
        TransformOrder::UnfoldRetime => {
            theorems::theorem_4_4(g, f, n).map_err(&fail)?;
            theorems::theorem_4_5(g, f, n).map_err(&fail)?;
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
/// every generated program (filter on `p.name` to target one); theorem
/// checks are skipped since they regenerate their own programs.
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
    programs_for(case).0.into_iter().map(|(p, _)| p).collect()
}

fn verify_case_with(
    case: &Case,
    mutate: Option<&dyn Fn(&mut LoopProgram)>,
    executor: Executor,
) -> Result<CaseReport, VerifyFailure> {
    let (mut programs, period) = programs_for(case);
    if let Some(m) = mutate {
        for (p, _) in &mut programs {
            m(p);
        }
    }
    // Every generated program is diffed against the same recurrence, so
    // evaluate it once per case rather than once per program.
    let reference = case.graph.reference_execution(case.n as usize);
    let mut reports = Vec::with_capacity(programs.len());
    for (p, expect) in &programs {
        reports.push(verify_program(
            case,
            p,
            expect,
            &reference,
            executor,
            mutate.is_some(),
        )?);
    }
    // Layer 5 and the theorem checkers regenerate their own programs, so
    // a program mutator cannot reach them — skip both under mutation
    // (the exact layer has its own mutation hook inside the solver).
    let exact_ii = if mutate.is_none() {
        let (sched, exact_report) = check_exact(case, &reference, executor)?;
        reports.push(exact_report);
        check_maxlive(case, Some(&sched))?;
        check_theorems(case)?;
        sched.ii
    } else {
        0
    };
    Ok(CaseReport {
        label: case.label.clone(),
        period,
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
