//! End-to-end: modulo scheduling (the TI-style software-pipelining flow of
//! the paper's reference \[4\]) feeds CRED exactly like OPT retiming does —
//! the stage retiming of an exact modulo schedule is legal, the CRED
//! kernel verifies, and the code size is `L + 2 * P`.

use cred::codegen::cred::{cred_pipelined, cred_retime_unfold};
use cred::codegen::DecMode;
use cred::dfg::{gen, Dfg, MachineModel};
use cred::exact::{check, exact_schedule, retiming_bound, ExactSchedule};
use cred::kernels::all_benchmarks;
use cred::vm::check_against_reference;
use rand::{rngs::StdRng, SeedableRng};

/// The exact schedule of `g` on `m`, independently checked: the schedule
/// is legal, and every smaller II is refuted by a valid witness.
fn checked_schedule(name: &str, g: &Dfg, m: &MachineModel) -> ExactSchedule {
    let s = exact_schedule(g, m);
    check::check_schedule(g, m, &s).unwrap_or_else(|e| panic!("{name}: {e}"));
    assert_eq!(s.rejected.len() as u64, s.ii - 1, "{name}: II ladder");
    for rung in &s.rejected {
        check::check_witness(g, m, rung).unwrap_or_else(|e| panic!("{name} II {}: {e}", rung.ii));
    }
    s
}

#[test]
fn modulo_stage_retiming_feeds_cred_on_benchmarks() {
    let m = MachineModel::with_units(4, 2);
    for (name, g) in all_benchmarks() {
        let s = checked_schedule(name, &g, &m);
        assert!(s.ii >= retiming_bound(&g, &m), "{name}");
        let r = s.stage_retiming();
        assert!(r.is_legal(&g), "{name}");
        let prog = cred_pipelined(&g, &r, 101);
        assert_eq!(
            prog.code_size(),
            g.node_count() + 2 * r.register_count(),
            "{name}"
        );
        check_against_reference(&g, &prog).unwrap_or_else(|e| panic!("{name}: {e}"));
    }
}

#[test]
fn modulo_cred_with_unfolding() {
    let m = MachineModel::with_units(4, 2);
    for (name, g) in all_benchmarks().into_iter().take(3) {
        let r = checked_schedule(name, &g, &m).stage_retiming();
        for f in [2usize, 3] {
            for mode in [DecMode::Bulk, DecMode::PerCopy] {
                let prog = cred_retime_unfold(&g, &r, f, 50, mode);
                check_against_reference(&g, &prog)
                    .unwrap_or_else(|e| panic!("{name} f={f} {mode:?}: {e}"));
            }
        }
    }
}

#[test]
fn modulo_cred_on_random_graphs() {
    let mut rng = StdRng::seed_from_u64(2112);
    let m = MachineModel::with_units(2, 1);
    for i in 0..25 {
        let g = gen::random_dfg(
            &mut rng,
            &gen::RandomDfgConfig {
                nodes: 8,
                max_delay: 3,
                max_time: 2,
                ..Default::default()
            },
        );
        // The exact scheduler's II ladder always ends, so every graph is
        // covered.
        let r = checked_schedule(&format!("graph {i}"), &g, &m).stage_retiming();
        let prog = cred_pipelined(&g, &r, 33);
        check_against_reference(&g, &prog).unwrap();
    }
}

#[test]
fn modulo_ii_comparable_to_retiming_period() {
    // With 8 units per class the resources never bind on these kernels,
    // so the minimal II is the retiming bound, which without latency
    // overrides is the OPT retiming period.
    let m = MachineModel::with_units(8, 8);
    for (name, g) in all_benchmarks() {
        let s = checked_schedule(name, &g, &m);
        let opt = cred::retime::min_period_retiming(&g);
        assert_eq!(retiming_bound(&g, &m), opt.period, "{name}");
        assert_eq!(
            s.ii, opt.period,
            "{name}: II {} vs period {}",
            s.ii, opt.period
        );
    }
}
