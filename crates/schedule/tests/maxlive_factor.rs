//! The sequential kernel's register pressure does not depend on the
//! unfolding factor: for every legal retiming, the `f`-copy kernel of
//! `KernelSchedule::sequential` has the one-copy kernel's maxlive and
//! first peak cycle (the proof is in the `maxlive` module docs), the
//! replay agrees with the closed form at every `f`, and
//! `sequential_maxlive`, which the explore engine calls, returns the
//! `f`-copy report from one copy. Checked on random well-formed graphs
//! with the plans the explore engine produces and with random legal
//! retimings.

use cred_dfg::gen::{self, RandomDfgConfig};
use cred_dfg::Dfg;
use cred_explore::cache::compute_plan;
use cred_retime::Retiming;
use cred_schedule::{sequential_maxlive, KernelSchedule, MaxliveScratch};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// A random legal retiming of `g`: random values, then raised until
/// every edge `u -> v` keeps `d(e) + r(u) - r(v) >= 0`. The raises
/// follow longest paths over weights `-d(e)`, and every cycle of a
/// well-formed graph carries a delay, so they stop.
fn random_legal_retiming(g: &Dfg, rng: &mut StdRng, spread: i64) -> Retiming {
    let mut r: Vec<i64> = (0..g.node_count())
        .map(|_| rng.random_range(0..=spread))
        .collect();
    loop {
        let mut changed = false;
        for e in g.edge_ids() {
            let ed = g.edge(e);
            let need = r[ed.dst.index()] - ed.delay as i64;
            if r[ed.src.index()] < need {
                r[ed.src.index()] = need;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    let mut r = Retiming::from_values(r);
    r.normalize();
    assert!(r.is_legal(g));
    r
}

/// Every factor's sequential kernel against the one-copy kernel.
fn check_every_factor(g: &Dfg, r: &Retiming, what: &str) -> Result<(), TestCaseError> {
    let one = KernelSchedule::sequential(g, r, 1).maxlive();
    let mut scratch = MaxliveScratch::default();
    for f in 1..=8usize {
        let k = KernelSchedule::sequential(g, r, f);
        let report = k.maxlive();
        prop_assert_eq!(report.ii, (f * g.node_count()) as u64, "{} f = {}", what, f);
        prop_assert_eq!(
            (report.maxlive, report.peak_cycle),
            (one.maxlive, one.peak_cycle),
            "{} f = {}: the f-copy kernel differs from one copy",
            what,
            f
        );
        prop_assert_eq!(
            k.replay_maxlive(),
            report.maxlive,
            "{} f = {}: replay",
            what,
            f
        );
        prop_assert_eq!(
            sequential_maxlive(g, r, f, &mut scratch),
            report,
            "{} f = {}: one-copy computation",
            what,
            f
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn maxlive_is_the_same_for_every_factor(
        seed in 0..u64::MAX,
        nodes in 1..10usize,
        back_edges in 0..4usize,
        max_delay in 0..4u32,
        spread in 0..5i64,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = gen::random_dfg(
            &mut rng,
            &RandomDfgConfig { nodes, back_edges, max_delay, max_time: 3, ..Default::default() },
        );
        for f in [1, 2, 3, 5] {
            let plan = compute_plan(&g, f);
            check_every_factor(&g, &plan.projected, &format!("plan of f = {f}"))?;
        }
        for i in 0..3 {
            let r = random_legal_retiming(&g, &mut rng, spread);
            check_every_factor(&g, &r, &format!("random retiming {i}"))?;
        }
    }
}
