//! Mutation testing of the oracle itself: inject a classic off-by-one into
//! the generated CRED code — shift a conditional guard's static offset —
//! and require that (a) the differential oracle catches it and (b) the
//! shrinker reduces the reproducer to a tiny case.
//!
//! If the oracle ever goes blind to this bug class (guard windows
//! mis-masking the hidden prologue), this test fails, not the fuzzer.
//!
//! A second mutation, a setup of a register nothing reads, leaves every
//! value, count and guard trace intact: only the theorem layer's register
//! and size claims can see it.

use cred_codegen::ir::PredId;
use cred_codegen::{Inst, LoopProgram};
use cred_verify::{
    random_case, shrink, verify_case_mutated, Case, CaseConfig, FailureKind, TransformOrder,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Bump the static offset of the first guarded compute in the kernel of
/// every CRED-collapsed program.
fn bump_guard_offset(p: &mut LoopProgram) {
    if !p.name.starts_with("cred") {
        return;
    }
    if let Some(l) = &mut p.body {
        for inst in &mut l.body {
            if let Inst::Compute { guard: Some(g), .. } = inst {
                g.offset += 1;
                return;
            }
        }
    }
}

/// The mutation only bites when the case actually emits a guarded kernel,
/// so hunt the deterministic case stream for cases the oracle rejects
/// under the mutation.
fn failing_cases(count: usize) -> Vec<Case> {
    let mut rng = StdRng::seed_from_u64(0);
    let cfg = CaseConfig::default();
    let mut out = Vec::new();
    for i in 0..500 {
        let c = random_case(&mut rng, format!("mut{i}"), &cfg);
        if verify_case_mutated(&c, &bump_guard_offset).is_err() {
            out.push(c);
            if out.len() == count {
                break;
            }
        }
    }
    out
}

#[test]
fn guard_offset_bug_is_caught_often() {
    let failing = failing_cases(20);
    assert!(
        failing.len() >= 20,
        "expected at least 20 of 500 cases to expose the guard-offset bug, got {}",
        failing.len()
    );
    // Both transformation orders must be represented among the catches.
    assert!(failing
        .iter()
        .any(|c| c.order == TransformOrder::RetimeUnfold));
    assert!(failing
        .iter()
        .any(|c| c.order == TransformOrder::UnfoldRetime));
}

#[test]
fn guard_offset_bug_shrinks_to_tiny_case() {
    let seed = &failing_cases(1)[0];
    let still_fails = |c: &Case| verify_case_mutated(c, &bump_guard_offset).is_err();
    let small = shrink(seed, &still_fails);
    assert!(still_fails(&small));
    assert!(
        small.graph.node_count() <= 4,
        "shrunk case still has {} nodes: {small}",
        small.graph.node_count()
    );
    // The minimized case must fail in an execution-visible way, not a
    // static-size way (static checks are skipped under mutation).
    let err = verify_case_mutated(&small, &bump_guard_offset).unwrap_err();
    assert!(
        matches!(
            err.kind,
            FailureKind::Values | FailureKind::Dynamic | FailureKind::Trace
        ),
        "{err}"
    );
}

/// Append a setup of a fresh register, which no guard or decrement reads,
/// to the `pre` of the f = 1 CRED program.
fn setup_unread_register(p: &mut LoopProgram) {
    if p.name != "cred" {
        return;
    }
    let fresh = PredId(p.register_count() as u32);
    p.pre.push(Inst::Setup {
        reg: fresh,
        init: 0,
        bound: -(p.n as i64),
    });
}

#[test]
fn unread_register_setup_is_caught_by_the_theorem_layer() {
    let mut rng = StdRng::seed_from_u64(0);
    let cfg = CaseConfig::default();
    let mut caught = 0;
    for i in 0..200 {
        let c = random_case(&mut rng, format!("setup{i}"), &cfg);
        let verdict = verify_case_mutated(&c, &setup_unread_register);
        if c.order == TransformOrder::UnfoldRetime {
            // No `cred` program: nothing was mutated.
            verdict.unwrap_or_else(|e| panic!("{c}: {e}"));
            continue;
        }
        // Layers 1-4 pass the mutated program (static counts are skipped
        // under mutation); Theorem 4.3's register count must not.
        let err = verdict.expect_err("an unread register setup went unnoticed");
        assert_eq!(err.kind, FailureKind::Theorem, "{c}: {err}");
        assert!(err.detail.starts_with("Thm 4.3:"), "{c}: {err}");
        caught += 1;
    }
    assert!(caught > 0, "no retime-unfold case among 200");
}
