//! The retiming solver validated end-to-end: `cred-verify` drives every
//! solver product (period search at minimum span, register
//! compaction, Theorem 4.5 projection) through code generation and
//! strict VM execution, so an illegal or non-minimal retiming surfaces
//! as a concrete wrong value or count — not just a violated invariant.

use cred_retime::min_period_retiming;
use cred_unfold::unfold;
use cred_verify::{fuzz_suite, random_case, CaseConfig, Executor, FuzzConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn solver_products_execute_correctly_across_the_pipeline() {
    let report = fuzz_suite(&FuzzConfig {
        cases: 80,
        seed: 17,
        case: CaseConfig::default(),
        shrink_failures: false,
        executor: Executor::Tape,
    });
    if let Some(f) = report.failures.first() {
        panic!("{}: {}", f.case, f.error);
    }
    assert!(report.by_order[0] > 0 && report.by_order[1] > 0);
}

#[test]
fn achieved_periods_never_regress_under_unfolding() {
    // The verifier reports the achieved period per case; the solver must
    // satisfy period(G_f) <= f * period(G) (unfolding can only help).
    let mut rng = StdRng::seed_from_u64(5);
    let cfg = CaseConfig::default();
    for i in 0..30 {
        let c = random_case(&mut rng, format!("p{i}"), &cfg);
        let base = min_period_retiming(&c.graph).period;
        let unfolded = min_period_retiming(&unfold(&c.graph, c.f).graph).period;
        assert!(
            unfolded <= c.f as u64 * base,
            "{c}: period(G_f) = {unfolded} > f * period(G) = {}",
            c.f as u64 * base
        );
    }
}
