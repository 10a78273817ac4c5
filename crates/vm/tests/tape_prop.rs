//! The tape compiler as part of the oracle: on fuzzed cases, the
//! preresolved tape executor must be indistinguishable from the
//! tree-walking reference — `execute_tape == execute` on every program
//! the verification pipeline generates, and still indistinguishable
//! after seeded mutations drive the programs into every fault path.

use cred_codegen::ir::PredId;
use cred_codegen::{Guard, Index, Inst, LoopProgram};
use cred_dfg::OpKind;
use cred_verify::{case_programs, random_case, CaseConfig};
use cred_vm::{
    compile, cross_check_executors, diff_against_reference, diff_against_reference_tape,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Clean path: every program of a fuzzed case compiles (no fall-back
    /// to the tree-walker) and runs bit-identically on both executors
    /// (same values, same dynamic counts).
    #[test]
    fn execute_tape_equals_execute(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let case = random_case(&mut rng, format!("tape-{seed}"), &CaseConfig::default());
        for p in case_programs(&case) {
            prop_assert!(
                compile(&p).unwrap().preverified(),
                "{case}: {}: generated program did not compile",
                p.name
            );
            if let Err(divergence) = cross_check_executors(&p) {
                return Err(TestCaseError::Fail(format!("{case}: {}: {divergence}", p.name)));
            }
        }
    }

    /// Fault paths: mutate each generated program into (usually) broken
    /// shapes covering every `ExecError` variant; both executors must
    /// report the *same* error at the *same* site, or the same success.
    #[test]
    fn executors_agree_on_mutated_programs(seed in any::<u64>(), knob in 0..8usize) {
        let mut rng = StdRng::seed_from_u64(seed);
        let case = random_case(&mut rng, format!("mut-{seed}"), &CaseConfig::default());
        for mut p in case_programs(&case) {
            mutate(&mut p, knob);
            if let Err(divergence) = cross_check_executors(&p) {
                return Err(TestCaseError::Fail(
                    format!("{case}: {} knob {knob}: {divergence}", p.name),
                ));
            }
        }
    }
}

/// Deterministic program corruptions, one per knob value. Each targets a
/// distinct executor code path (value corruption, guard windows, loop
/// bounds, ordering, register binding, write discipline, completeness,
/// loop validation).
fn mutate(p: &mut LoopProgram, knob: usize) {
    let Some(l) = &mut p.body else {
        return;
    };
    match knob {
        // Corrupt the first compute's op: a pure value diff, no fault.
        0 => {
            for inst in &mut l.body {
                if let Inst::Compute { op, .. } = inst {
                    *op = OpKind::Add(1000);
                    return;
                }
            }
        }
        // Shift the first guard window: mis-masked prologue/epilogue.
        1 => {
            for inst in &mut l.body {
                if let Inst::Compute { guard: Some(g), .. } = inst {
                    g.offset += 1;
                    return;
                }
            }
        }
        // Run one iteration too many: out-of-range writes.
        2 => l.hi += l.step,
        // Reverse the schedule: use-before-def.
        3 => l.body.reverse(),
        // Decrement a register nothing ever set up.
        4 => l.body.push(Inst::Dec {
            reg: PredId(97),
            by: 1,
        }),
        // Duplicate the whole body: double writes.
        5 => {
            let dup = l.body.clone();
            l.body.extend(dup);
        }
        // Drop the last instruction: incompleteness (or a read fault).
        6 => {
            l.body.pop();
        }
        // Break the loop structure itself.
        _ => l.step = 0,
    }
}

/// The structured diff reports (the oracle's layer-2 evidence) are also
/// identical between the two paths, on clean and corrupted programs.
#[test]
fn diff_reports_are_identical_across_executors() {
    let mut rng = StdRng::seed_from_u64(2002);
    for i in 0..12 {
        let case = random_case(&mut rng, format!("diff-{i}"), &CaseConfig::default());
        for mut p in case_programs(&case) {
            match (
                diff_against_reference(&case.graph, &p),
                diff_against_reference_tape(&case.graph, &p),
            ) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a.arrays, b.arrays, "{case}: {}", p.name);
                    assert_eq!(a.computes_executed, b.computes_executed);
                    assert_eq!(a.computes_nullified, b.computes_nullified);
                }
                (tree, tape) => panic!(
                    "{case}: {}: clean program rejected (tree {:?}, tape {:?})",
                    p.name,
                    tree.err(),
                    tape.err()
                ),
            }
            // Corrupt and compare the failure reports byte for byte.
            mutate(&mut p, i % 8);
            let tree = diff_against_reference(&case.graph, &p);
            let tape = diff_against_reference_tape(&case.graph, &p);
            match (tree, tape) {
                (Ok(_), Ok(_)) => {} // mutation happened to be harmless
                (Err(a), Err(b)) => assert_eq!(a, b, "{case}: {}", p.name),
                (a, b) => panic!(
                    "{case}: {}: outcome divergence (tree ok={}, tape ok={})",
                    p.name,
                    a.is_ok(),
                    b.is_ok()
                ),
            }
        }
    }
}

/// A guarded instruction whose register is bound mid-loop (setup inside
/// the body) exercises the executors' iteration order. Its guard has no
/// affine window, so the program does not compile: the fault-free
/// program runs on the reference tree-walker.
#[test]
fn mid_loop_setup_window_matches() {
    use cred_codegen::ir::{LoopSpec, Ref};
    let p = LoopProgram {
        name: "mid-setup".into(),
        n: 6,
        arrays: vec!["A".into()],
        pre: vec![],
        body: Some(LoopSpec {
            lo: 1,
            hi: 6,
            step: 1,
            body: vec![
                Inst::Setup {
                    reg: PredId(0),
                    init: 2,
                    bound: -4,
                },
                Inst::Compute {
                    guard: Some(Guard {
                        reg: PredId(0),
                        offset: 2,
                    }),
                    dest: Ref {
                        array: 0,
                        index: Index::i_plus(0),
                    },
                    op: OpKind::Input(3),
                    srcs: vec![],
                },
            ],
            auto_dec: Some(1),
        }),
        post: vec![],
    };
    cross_check_executors(&p).unwrap();
    assert!(!compile(&p).unwrap().preverified());
}
