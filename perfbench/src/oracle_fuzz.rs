//! `oracle_fuzz`: one fuzz case through the differential oracle per op.
//!
//! The case pool is the first [`POOL`] cases of the stream `credc verify
//! --seed 0` draws (default `CaseConfig`), generated before timing; each
//! pass replays the whole pool in a seeded order. The pool does not depend
//! on `--seed`: the exact scheduler's branch-and-bound makes case cost
//! heavy-tailed (on a 2-vCPU x86-64 VM, in 20000-case streams of seeds
//! 0..=5 the slowest case took 0.8 s to 91 s and a stream's total 12 s to
//! 103 s), so drawing cases per seed would turn throughput into a lottery
//! over which blow-ups a seed happens to hit. The pool is what CI's
//! verify-smoke job runs first.
//!
//! The traced replay calls, per case, the public functions `verify_case`
//! is built from, in its order: program generation (with the plans it
//! computes), the reference recurrence, per program the static counts,
//! tape compile and execute, value diff, dynamic counts and guard trace;
//! then the exact schedule and its certificate checks, the maxlive
//! cross-check and the theorem checks.

use std::time::Instant;

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
use cred_verify::{random_case, verify_case, Case, CaseConfig, TransformOrder};
use cred_vm::{compile, trace_loop, value_diff};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::affinity::Rotation;
use crate::clock;
use crate::ops::{self, Fnv};
use crate::trace::Tracer;
use crate::{timed_setups, Ctx, Measured};

/// Cases in the pool.
const POOL: usize = 5000;
/// Seed of the CI verify stream the pool is taken from.
const POOL_SEED: u64 = 0;
/// Pool cases verified, untimed, as the warm-up.
const WARM_UP: usize = 250;
/// Nominal oracle rate on a 2-core host: sizes the op count per second.
const OPS_PER_SECOND: u64 = 1500;

/// The pool, exactly as `fuzz_suite` draws it for seed 0.
fn pool() -> Vec<Case> {
    let mut rng = StdRng::seed_from_u64(POOL_SEED);
    let cfg = CaseConfig::default();
    (0..POOL)
        .map(|i| random_case(&mut rng, format!("seed{POOL_SEED}-case{i}"), &cfg))
        .collect()
}

fn setup() -> Result<Vec<Case>, String> {
    let cases = pool();
    for c in &cases[..WARM_UP] {
        verify_case(c).map_err(|e| format!("warm-up {c}: {e}"))?;
    }
    Ok(cases)
}

fn computes(insts: &[Inst]) -> u64 {
    insts
        .iter()
        .filter(|i| matches!(i, Inst::Compute { .. }))
        .count() as u64
}

fn plan(t: &mut Tracer, case: &Case) -> cred_retime::Retiming {
    t.count("explore.plan_calls", 1);
    t.span("explore.plan", |_| compute_plan(&case.graph, case.f))
        .projected
}

/// The programs the case's transformation order generates, with their
/// closed-form expectations.
fn programs(t: &mut Tracer, case: &Case) -> Vec<(LoopProgram, ExpectedCounts)> {
    let (g, n, f) = (&case.graph, case.n, case.f);
    let mut out = vec![(original_program(g, n), ExpectedCounts::original(g, n))];
    match case.order {
        TransformOrder::RetimeUnfold => {
            let r = plan(t, case);
            out.push((
                pipelined_program(g, &r, n),
                ExpectedCounts::pipelined(g, &r, n),
            ));
            out.push((
                retime_unfold_program(g, &r, f, n),
                ExpectedCounts::retime_unfold(g, &r, f, n),
            ));
            out.push((
                cred_retime_unfold(g, &r, f, n, case.mode),
                ExpectedCounts::cred_retime_unfold(g, &r, f, n, case.mode),
            ));
            if f > 1 {
                out.push((
                    cred_pipelined(g, &r, n),
                    ExpectedCounts::cred_pipelined(g, &r, n),
                ));
            }
        }
        TransformOrder::UnfoldRetime => {
            let u = t.span("unfold.unfold", |_| unfold(g, f));
            let opt = t.span("retime.solve", |_| min_period_retiming(&u.graph));
            out.push((
                unfold_retime_program(g, &u, &opt.retiming, n),
                ExpectedCounts::unfold_retime(g, &u, &opt.retiming, n),
            ));
            out.push((
                cred_unfold_retime(g, &u, &opt.retiming, n),
                ExpectedCounts::cred_unfold_retime(g, &u, &opt.retiming, n),
            ));
        }
    }
    out
}

/// Oracle layers 1-4 on one program.
fn check_program(
    t: &mut Tracer,
    case: &Case,
    p: &LoopProgram,
    expect: &ExpectedCounts,
    reference: &[Vec<i64>],
) -> Result<(), String> {
    let at = |e: String| format!("{}: {e}", p.name);
    t.span("codegen.counts", |_| expect.check_static(p))
        .map_err(at)?;
    let tape = t
        .span("vm.compile", |_| compile(p))
        .map_err(|e| at(e.to_string()))?;
    t.count("vm.tapes", 1);
    t.count("vm.preverified", u64::from(tape.preverified()));
    let res = t
        .span("vm.execute", |_| tape.execute())
        .map_err(|e| at(e.to_string()))?;
    t.count(
        "vm.dyn_computes",
        res.computes_executed + res.computes_nullified,
    );
    let cells = t.span("vm.diff", |_| {
        value_diff(&case.graph, p.n as usize, &res.arrays, reference)
    });
    if !cells.is_empty() {
        return Err(at(format!("{} cells differ", cells.len())));
    }
    t.span("codegen.counts", |_| {
        expect.check_dynamic(res.computes_executed, res.computes_nullified)
    })
    .map_err(at)?;
    if let Some(l) = &p.body {
        t.span("vm.trace", |_| {
            let ev = trace_loop(p);
            let enabled = ev.iter().filter(|e| e.enabled).count() as u64;
            let straight = computes(&p.pre) + computes(&p.post);
            if ev.len() as u64 != l.trip_count() * computes(&l.body)
                || enabled + straight != expect.computes_executed
            {
                return Err(at("guard trace disagrees with the schedule".into()));
            }
            Ok(())
        })?;
    }
    Ok(())
}

/// `verify_case` on the tape executor, one public call per span.
fn traced_case(t: &mut Tracer, case: &Case) -> Result<(), String> {
    let (g, m) = (&case.graph, &case.machine);
    let programs = t.span("codegen.programs", |t| programs(t, case));
    let reference = t.span("dfg.reference", |_| g.reference_execution(case.n as usize));
    for (p, expect) in &programs {
        check_program(t, case, p, expect, &reference)?;
    }

    // Layer 5: the exact scheduler and its certificates.
    let sched = t
        .span("exact.schedule", |_| {
            exact_schedule_budgeted(g, m, &Budget::unlimited())
        })
        .map_err(|e| format!("exact: {e}"))?;
    t.count("exact.branches", sched.branches);
    t.span("exact.check", |_| {
        exact_check::check_schedule(g, m, &sched)?;
        if sched.rejected.len() as u64 != sched.ii - 1 {
            return Err("II ladder incomplete".to_string());
        }
        for (i, rung) in sched.rejected.iter().enumerate() {
            if rung.ii != i as u64 + 1 {
                return Err("II ladder not contiguous".into());
            }
            exact_check::check_witness(g, m, rung)?;
        }
        Ok(())
    })
    .map_err(|e| format!("exact: {e}"))?;
    let no_overrides = cred_dfg::OpClass::ALL
        .iter()
        .all(|&c| m.latency_override(c).is_none());
    if no_overrides {
        let opt = t.span("retime.solve", |_| min_period_retiming(g));
        if (m.is_unconstrained() && sched.ii != opt.period) || sched.ii < opt.period {
            return Err(format!(
                "exact II {} vs retiming period {}",
                sched.ii, opt.period
            ));
        }
    }
    let (legal, p, expect) = t.span("codegen.programs", |_| {
        let r = sched.stage_retiming();
        let mut p = pipelined_program(g, &r, case.n);
        p.name = "exact-pipelined".into();
        (r.is_legal(g), p, ExpectedCounts::pipelined(g, &r, case.n))
    });
    if !legal {
        return Err("stage retiming is not legal".into());
    }
    check_program(t, case, &p, &expect, &reference)?;

    // Maxlive: closed form against the interval replay.
    let r = (case.order == TransformOrder::RetimeUnfold).then(|| plan(t, case));
    t.span("schedule.maxlive", |_| {
        let mut kernels = vec![KernelSchedule::modulo(
            g,
            &sched.slot,
            &sched.stage,
            sched.ii,
        )];
        if let Some(r) = &r {
            kernels.push(KernelSchedule::sequential(g, r, case.f));
        }
        for k in kernels {
            if k.maxlive().maxlive != k.replay_maxlive() {
                return Err("maxlive closed form disagrees with the replay".to_string());
            }
        }
        Ok(())
    })?;

    // The paper's theorem checkers.
    let (n, f) = (case.n, case.f);
    let r = (case.order == TransformOrder::RetimeUnfold).then(|| plan(t, case));
    t.span("core.theorems", |_| match &r {
        Some(r) => {
            theorems::theorem_4_1(g, r, n)?;
            theorems::theorem_4_2(g, r, n)?;
            theorems::theorem_4_3(g, r, n)?;
            theorems::theorem_4_5(g, f, n)?;
            theorems::theorem_4_6(g, r, f, n)?;
            theorems::theorem_4_7(g, r, f, n)
        }
        None => {
            theorems::theorem_4_4(g, f, n)?;
            theorems::theorem_4_5(g, f, n)
        }
    })
}

fn case_hash(c: &Case) -> u64 {
    Fnv::default()
        .str(&cred_verify::corpus::to_text(c))
        .finish()
}

fn traced_op(t: &mut Tracer, m: &mut Measured, id: usize, case: &Case) {
    let verdict = t.op(id as u32, "oracle_fuzz.op", |t| traced_case(t, case));
    m.attempted += 1;
    if let Err(e) = verdict {
        m.fail(format!("traced {case}: {e}"));
    }
}

pub fn run(ctx: &Ctx, trace: bool) -> Result<Measured, String> {
    let rotation = Rotation::new();
    let (cases, setup_s) = timed_setups(
        |rep| {
            rotation.pin(rep);
            setup()
        },
        |_| Ok(()),
    )?;
    let passes = ops::passes_for(ctx.seconds, OPS_PER_SECOND, cases.len());
    let seq = ops::permuted_passes(cases.len(), passes, ctx.seed);
    let mut m = Measured {
        setup_s,
        passes,
        pass_len: cases.len(),
        ..Measured::default()
    };
    let hashes: Vec<u64> = cases.iter().map(case_hash).collect();
    (m.input_fingerprint, m.pool_fingerprint) = ops::fingerprints(&hashes, &seq);

    // Timed phase. A traced run also replays every case through the
    // traced decomposition, alternating which of the two goes first, so
    // host-speed drift and warm caches favour neither.
    let mut t = Tracer::new();
    m.op_us.reserve(seq.len());
    let segment = (cases.len() / 4).max(1);
    let start = Instant::now();
    let stolen = rotation.stolen_s();
    for (id, &i) in seq.iter().enumerate() {
        if id % segment == 0 {
            rotation.pin(id / segment);
        }
        let case = &cases[i];
        let traced_first = trace && id % 2 == 1;
        if traced_first {
            traced_op(&mut t, &mut m, id, case);
        }
        let t0 = clock::thread_cpu_ns();
        let verdict = verify_case(case);
        m.op_us.push((clock::thread_cpu_ns() - t0) as f64 / 1e3);
        m.attempted += 1;
        if let Err(e) = verdict {
            m.fail(format!("{case}: {e}"));
        }
        if trace && !traced_first {
            traced_op(&mut t, &mut m, id, case);
        }
    }
    if trace {
        m.wall_s = m.op_us.iter().sum::<f64>() / 1e6;
    } else {
        m.wall_s = start.elapsed().as_secs_f64();
        m.stolen_s = rotation.stolen_s() - stolen;
    }
    if !trace {
        return Ok(m);
    }
    m.layers.insert(
        "vm.preverified_ratio",
        t.counter("vm.preverified") as f64 / t.counter("vm.tapes").max(1) as f64,
    );
    m.finish_trace(t);
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_case_accepts_what_the_oracle_accepts() {
        let mut t = Tracer::new();
        for c in &pool()[..60] {
            verify_case(c).unwrap();
            t.op(0, "oracle_fuzz.op", |t| traced_case(t, c))
                .unwrap_or_else(|e| panic!("{c}: {e}"));
        }
        assert!(t.counter("exact.branches") > 0);
        assert!(t.counter("vm.dyn_computes") > 0);
    }

    #[test]
    fn pool_fingerprint_is_stable() {
        let a: Vec<u64> = pool()[..50].iter().map(case_hash).collect();
        let b: Vec<u64> = pool()[..50].iter().map(case_hash).collect();
        assert_eq!(a, b);
    }
}
