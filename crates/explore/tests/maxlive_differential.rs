//! Differential pinning of the `maxlive` objective on the ten committed
//! benchmark kernels at f = 1..8: the closed-form modulo-lifetime count
//! that the explore pipeline reports for every sweep point must equal a
//! brute-force liveness replay that materializes each value's live
//! interval over an unrolled window of the steady-state kernel and
//! counts overlaps cycle by cycle.
//!
//! The closed form and the replay share only the schedule (cycle
//! assignments + dependence distances) — the counting logic is fully
//! independent, so agreement on every kernel, factor, and cycle pins the
//! arithmetic (modulo lifetimes, kernel-crossing intervals, rem_euclid
//! wraparound) rather than one implementation against itself.

use std::path::Path;

use cred_explore::cache::compute_plan;
use cred_explore::suite::load_kernels;
use cred_explore::ExploreRequest;
use cred_schedule::KernelSchedule;

#[test]
fn reported_maxlive_matches_brute_force_replay_on_all_committed_kernels() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../kernels");
    let kernels = load_kernels(&dir).expect("bundled kernels parse");
    assert_eq!(kernels.len(), 10, "the paper suite has ten kernels");
    for (name, g) in &kernels {
        let resp = ExploreRequest::new(g.clone())
            .max_f(8)
            .trip_count(60)
            .run()
            .expect("unlimited sweep");
        assert_eq!(resp.points.len(), 8, "{name}");
        for p in &resp.points {
            // Rebuild the exact kernel schedule the point was measured
            // on: the plan cache is keyed structurally, so this is the
            // same retiming the sweep projected.
            let plan = compute_plan(g, p.f);
            let k = KernelSchedule::sequential(g, &plan.projected, p.f);
            let replayed = k.replay_maxlive();
            assert_eq!(
                p.objectives.maxlive, replayed,
                "{name} f={}: reported maxlive {} != replayed {}",
                p.f, p.objectives.maxlive, replayed
            );
            // Sanity: a kernel with any inter-iteration dependence keeps
            // at least one value live.
            assert!(p.objectives.maxlive >= 1, "{name} f={}", p.f);
        }
    }
}

#[test]
fn maxlive_is_stable_across_factors_on_the_paper_example() {
    // The paper's running example (figure 3): unfolding replicates the
    // kernel body but the steady-state pressure of each copy is the same
    // schedule stretched by f, so maxlive stays within a small band
    // rather than growing linearly with f. Pin the committed values so a
    // regression in the lifetime arithmetic shows up as a diff here.
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../kernels");
    let kernels = load_kernels(&dir).expect("bundled kernels parse");
    let (_, g) = kernels
        .iter()
        .find(|(n, _)| n == "figure3")
        .expect("figure3.loop is committed");
    let resp = ExploreRequest::new(g.clone())
        .max_f(3)
        .trip_count(31)
        .run()
        .unwrap();
    let maxlive: Vec<usize> = resp.points.iter().map(|p| p.objectives.maxlive).collect();
    assert_eq!(maxlive, vec![8, 9, 8], "figure3 maxlive drifted");
}
