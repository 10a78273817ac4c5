//! Cross-crate equivalence battery: every program form every generator can
//! emit must execute bit-identically to the direct DFG recurrence, for a
//! grid of trip counts and unfolding factors including the awkward cases
//! (`n mod f = 0`, `n < M_r`, `f > M_r`, `f > n`).
//!
//! This is the mechanical verification of Theorems 4.1, 4.2, 4.6, and 4.7:
//! the CRED kernels replace prologue, epilogue, and remainder code exactly.

use cred::codegen::cred::{cred_pipelined, cred_retime_unfold, cred_unfold_retime, cred_unfolded};
use cred::codegen::pipeline::{original_program, pipelined_program};
use cred::codegen::unfolded::{retime_unfold_program, unfold_retime_program, unfolded_program};
use cred::codegen::DecMode;
use cred::dfg::{gen, Dfg};
use cred::retime::{min_period_retiming, Retiming};
use cred::unfold::unfold;
use cred::vm::check_against_reference;
use rand::{rngs::StdRng, SeedableRng};

fn sample_graphs(seed: u64, count: usize, nodes: usize) -> Vec<Dfg> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            gen::random_dfg(
                &mut rng,
                &gen::RandomDfgConfig {
                    nodes,
                    max_delay: 3,
                    back_edges: 2,
                    forward_edge_prob: 0.35,
                    max_time: 1,
                },
            )
        })
        .collect()
}

const NS: &[u64] = &[1, 2, 3, 4, 5, 7, 9, 12, 100, 101];
const FS: &[usize] = &[1, 2, 3, 4, 5];

#[test]
fn original_matches_reference() {
    for g in sample_graphs(1, 8, 6) {
        for &n in NS {
            check_against_reference(&g, &original_program(&g, n))
                .unwrap_or_else(|e| panic!("original n={n}: {e}"));
        }
    }
}

#[test]
fn pipelined_matches_reference() {
    for g in sample_graphs(2, 8, 6) {
        let r = min_period_retiming(&g).retiming;
        for &n in NS {
            check_against_reference(&g, &pipelined_program(&g, &r, n))
                .unwrap_or_else(|e| panic!("pipelined n={n}: {e}"));
        }
    }
}

#[test]
fn cred_pipelined_matches_reference() {
    for g in sample_graphs(3, 8, 6) {
        let r = min_period_retiming(&g).retiming;
        for &n in NS {
            check_against_reference(&g, &cred_pipelined(&g, &r, n))
                .unwrap_or_else(|e| panic!("cred n={n} r={:?}: {e}", r.values()));
        }
    }
}

#[test]
fn unfolded_matches_reference() {
    for g in sample_graphs(4, 6, 5) {
        for &f in FS {
            for &n in NS {
                check_against_reference(&g, &unfolded_program(&g, f, n))
                    .unwrap_or_else(|e| panic!("unfolded f={f} n={n}: {e}"));
            }
        }
    }
}

#[test]
fn cred_unfolded_matches_reference_both_modes() {
    for g in sample_graphs(5, 6, 5) {
        for &f in FS {
            for &n in NS {
                for mode in [DecMode::PerCopy, DecMode::Bulk] {
                    check_against_reference(&g, &cred_unfolded(&g, f, n, mode))
                        .unwrap_or_else(|e| panic!("cred-unfolded f={f} n={n} {mode:?}: {e}"));
                }
            }
        }
    }
}

#[test]
fn retime_unfold_matches_reference() {
    for g in sample_graphs(6, 6, 5) {
        let r = min_period_retiming(&g).retiming;
        for &f in FS {
            for &n in NS {
                check_against_reference(&g, &retime_unfold_program(&g, &r, f, n))
                    .unwrap_or_else(|e| panic!("retime-unfold f={f} n={n}: {e}"));
            }
        }
    }
}

#[test]
fn cred_retime_unfold_matches_reference_both_modes() {
    for g in sample_graphs(7, 6, 5) {
        let r = min_period_retiming(&g).retiming;
        for &f in FS {
            for &n in NS {
                for mode in [DecMode::PerCopy, DecMode::Bulk] {
                    check_against_reference(&g, &cred_retime_unfold(&g, &r, f, n, mode))
                        .unwrap_or_else(|e| {
                            panic!(
                                "cred-retime-unfold f={f} n={n} {mode:?} r={:?}: {e}",
                                r.values()
                            )
                        });
                }
            }
        }
    }
}

#[test]
fn unfold_retime_matches_reference() {
    for g in sample_graphs(8, 5, 5) {
        for &f in &[1usize, 2, 3, 4] {
            let u = unfold(&g, f);
            let r_f = min_period_retiming(&u.graph).retiming;
            for &n in NS {
                check_against_reference(&g, &unfold_retime_program(&g, &u, &r_f, n))
                    .unwrap_or_else(|e| panic!("unfold-retime f={f} n={n}: {e}"));
            }
        }
    }
}

#[test]
fn cred_unfold_retime_matches_reference() {
    for g in sample_graphs(9, 5, 5) {
        for &f in &[1usize, 2, 3] {
            let u = unfold(&g, f);
            let r_f = min_period_retiming(&u.graph).retiming;
            for &n in NS {
                check_against_reference(&g, &cred_unfold_retime(&g, &u, &r_f, n))
                    .unwrap_or_else(|e| panic!("cred-unfold-retime f={f} n={n}: {e}"));
            }
        }
    }
}

#[test]
fn zero_retiming_cred_equals_original_semantics() {
    // CRED with the identity retiming must still be a correct (if
    // pointless) program: one register, window exactly 1..=n.
    for g in sample_graphs(10, 4, 4) {
        for &n in NS {
            let r = Retiming::zero(g.node_count());
            check_against_reference(&g, &cred_pipelined(&g, &r, n)).unwrap();
        }
    }
}

#[test]
fn hand_retimings_also_verify() {
    // Not just OPT retimings: any legal normalized retiming must produce
    // correct programs. Use rotation-scheduling retimings as a second
    // source.
    use cred::dfg::MachineModel;
    use cred::schedule::rotation_schedule;
    for g in sample_graphs(11, 5, 6) {
        let rot = rotation_schedule(&g, &MachineModel::with_units(2, 1), 25);
        let r = rot.retiming;
        for &n in &[1u64, 5, 23] {
            check_against_reference(&g, &pipelined_program(&g, &r, n)).unwrap();
            check_against_reference(&g, &cred_pipelined(&g, &r, n)).unwrap();
            for &f in &[2usize, 3] {
                check_against_reference(&g, &cred_retime_unfold(&g, &r, f, n, DecMode::Bulk))
                    .unwrap();
            }
        }
    }
}

#[test]
fn cred_rotating_matches_reference() {
    // The IA-64-style rotating-predicate variant (hardware auto-decrement,
    // no Dec instructions) must be execution-equivalent too.
    use cred::codegen::cred::cred_rotating;
    for g in sample_graphs(12, 6, 5) {
        let r = min_period_retiming(&g).retiming;
        for &f in FS {
            for &n in NS {
                check_against_reference(&g, &cred_rotating(&g, &r, f, n))
                    .unwrap_or_else(|e| panic!("cred-rotating f={f} n={n}: {e}"));
            }
        }
    }
}

#[test]
fn partial_collapses_match_reference() {
    // The ref-[4]-style half measures (straight-line prologue OR epilogue,
    // predication for the other half) must also be exact.
    use cred::codegen::collapse::{collapse_epilogue, collapse_prologue};
    for g in sample_graphs(13, 6, 5) {
        let r = min_period_retiming(&g).retiming;
        for &n in NS {
            if (n as i64) < r.max_value() {
                continue; // straight-line halves assume n >= M_r
            }
            check_against_reference(&g, &collapse_epilogue(&g, &r, n))
                .unwrap_or_else(|e| panic!("collapse-epilogue n={n}: {e}"));
            check_against_reference(&g, &collapse_prologue(&g, &r, n))
                .unwrap_or_else(|e| panic!("collapse-prologue n={n}: {e}"));
        }
    }
}
