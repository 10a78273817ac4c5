//! Replay of the resource-constrained corpus entries: every committed
//! machine-tagged `.case` file is rescheduled by the exact solver, and
//! this test pins the II it must prove optimal and the shape of the
//! infeasibility witness on the topmost rejected rung. A solver change
//! that shifts any recorded II or downgrades a closed-form certificate
//! to a brute-force `Exhausted` one fails here, not silently in CI.
//!
//! Four entries are the default fuzz cases that once took the search 9 to
//! 100 seconds (`seed<S>-case<I>`, named after their `credc verify`
//! stream). They pin the period-cycle certificates below the retiming
//! bound and the seeded, forward-checked search at and above it. Three
//! more led the search's tail in the oracle_fuzz pool until the walk
//! bounds and the packing screen: they pin those cuts' witnesses and
//! trial counts.

use cred_exact::{check, exact_schedule, retiming_bound, Infeasible, MachineModel};
use cred_retime::min_period_retiming;
use cred_verify::corpus;
use std::path::Path;

fn corpus_dir() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/corpus")
}

/// Coarse witness shape for pinning (the full arithmetic is re-checked
/// by `check_witness` on every rung).
fn witness_tag(w: &Infeasible) -> &'static str {
    match w {
        Infeasible::OpExceedsWindow { .. } => "window",
        Infeasible::ResourceCap { .. } => "resource-cap",
        Infeasible::IssueWidth { .. } => "issue-width",
        Infeasible::PeriodCycle { .. } => "period-cycle",
        Infeasible::Packing { .. } => "packing",
        Infeasible::Exhausted { .. } => "exhausted",
    }
}

#[test]
fn machine_corpus_replays_with_recorded_ii_and_witness() {
    // stem -> (proven-optimal II, witness tag of the last rejected rung).
    let expected: &[(&str, u64, &str)] = &[
        ("scalar-parallel-loops", 2, "issue-width"),
        ("scalar-mac-chain", 3, "resource-cap"),
        ("scalar-issue-bound", 3, "issue-width"),
        ("vliw2-mac-latency", 2, "window"),
        ("vliw2-mixed", 4, "resource-cap"),
        // II 2 satisfies every closed-form screen (occupancy 3 <= 4,
        // issue 6 <= 8, cycle 6 <= 6) but the alternating zero-delay
        // chain forces all three ops of one class into the same slot —
        // only the search itself can prove that, so the witness is the
        // certificate-by-search.
        ("vliw4-balanced", 3, "exhausted"),
        // The custom latency override stretches the mac to 2 cycles, so
        // II 1 already fails the per-op window screen.
        ("custom-tight", 2, "window"),
        ("scalar-unfold-retime", 4, "issue-width"),
        ("vliw2-percopy", 4, "period-cycle"),
        // Same shape as vliw4-balanced one size up: at II 2 the ring's
        // strict slot alternation puts all four ops of each class in one
        // slot, which only the search can rule out.
        ("vliw4-wide-ring", 3, "exhausted"),
        // Former blow-ups: the rungs up to the retiming bound are
        // certified without search, and the search at the bound starts
        // from the retimed ASAP slots.
        ("seed5-case15913", 12, "period-cycle"),
        ("seed0-case10009", 17, "period-cycle"),
        // The scalar machine's worst packing case: the ALU's occupancy is
        // the II, so its unit must be busy every cycle, which the
        // one-unit waste check enforces during the search.
        ("seed0-case3132", 13, "resource-cap"),
        // Former tail searches. At II 10 and 9 the ops pack, and only the
        // dependences rule every packing out, so those rungs stay
        // certificates by search, cut short by the walk bounds.
        ("seed0-case3405", 11, "exhausted"),
        ("seed0-case4728", 10, "exhausted"),
        // Here the ops do not pack into 11 slots at all, which the
        // packing screen certifies before any slot search.
        ("seed0-case3640", 12, "packing"),
    ];
    for &(stem, want_ii, want_tag) in expected {
        let path = corpus_dir().join(format!("{stem}.case"));
        let case = corpus::load_case(&path).unwrap_or_else(|e| panic!("{stem}: {e}"));
        assert!(
            !case.machine.is_unconstrained(),
            "{stem}: expected a resource-constrained corpus entry"
        );
        let sched = exact_schedule(&case.graph, &case.machine);
        assert_eq!(sched.ii, want_ii, "{stem}: II drifted");
        check::check_schedule(&case.graph, &case.machine, &sched)
            .unwrap_or_else(|e| panic!("{stem}: {e}"));
        assert_eq!(sched.rejected.len() as u64, sched.ii - 1, "{stem}");
        let bound = retiming_bound(&case.graph, &case.machine);
        for rung in &sched.rejected {
            check::check_witness(&case.graph, &case.machine, rung)
                .unwrap_or_else(|e| panic!("{stem} II {}: {e}", rung.ii));
            assert!(
                rung.ii >= bound || witness_tag(&rung.witness) != "exhausted",
                "{stem}: II {} below the bound {bound} was searched",
                rung.ii
            );
        }
        let last = sched
            .rejected
            .last()
            .unwrap_or_else(|| panic!("{stem}: II 1 accepted, no witness to pin"));
        assert_eq!(
            witness_tag(&last.witness),
            want_tag,
            "{stem}: witness at II {} is {:?}",
            last.ii,
            last.witness
        );
    }
}

/// The former tail searches stay cheap: each ceiling has headroom over
/// today's trial count and sits far below the count before the walk bounds
/// and the packing screen (138,829, 53,399 and 22,421 trials).
#[test]
fn tail_searches_stay_under_their_trial_ceilings() {
    for (stem, ceiling) in [
        ("seed0-case3405", 5_000),
        ("seed0-case4728", 10_000),
        ("seed0-case3640", 1_000),
    ] {
        let case = corpus::load_case(&corpus_dir().join(format!("{stem}.case"))).unwrap();
        let sched = exact_schedule(&case.graph, &case.machine);
        assert!(
            sched.branches <= ceiling,
            "{stem}: {} trials, ceiling {ceiling}",
            sched.branches
        );
    }
}

/// The unconstrained former blow-up: every rung below the retiming bound
/// of 12 carries a closed-form or period-cycle certificate, and the
/// bound itself is scheduled with one slot trial per node.
#[test]
fn unconstrained_blowup_replays_without_search() {
    let case = corpus::load_case(&corpus_dir().join("seed4-case17498.case")).unwrap();
    assert_eq!(case.machine, MachineModel::unconstrained());
    let sched = exact_schedule(&case.graph, &case.machine);
    assert_eq!(sched.ii, 12);
    assert_eq!(sched.ii, min_period_retiming(&case.graph).period);
    check::check_schedule(&case.graph, &case.machine, &sched).unwrap();
    assert_eq!(sched.rejected.len(), 11);
    for rung in &sched.rejected {
        check::check_witness(&case.graph, &case.machine, rung)
            .unwrap_or_else(|e| panic!("II {}: {e}", rung.ii));
        assert!(
            matches!(
                rung.witness,
                Infeasible::OpExceedsWindow { .. } | Infeasible::PeriodCycle { .. }
            ),
            "II {}: {}",
            rung.ii,
            rung.witness
        );
    }
    assert_eq!(witness_tag(&sched.rejected[10].witness), "period-cycle");
    assert_eq!(sched.branches, case.graph.node_count() as u64);
}

/// At least one committed case must show the headline phenomenon: a
/// machine whose exact II strictly exceeds the retiming-only minimum
/// period — resources, not dependences, set the rate.
#[test]
fn corpus_contains_resource_bound_kernels() {
    let mut strictly_above = 0;
    for case in corpus::load_dir(&corpus_dir()).unwrap() {
        if case.machine.is_unconstrained() {
            continue;
        }
        let sched = exact_schedule(&case.graph, &case.machine);
        if sched.ii > min_period_retiming(&case.graph).period {
            strictly_above += 1;
        }
    }
    assert!(
        strictly_above >= 1,
        "no committed case has exact II strictly above the retiming period"
    );
}
