//! Differential test of the exact scheduler's pruning: on small graphs
//! its II must equal a brute-force enumeration's (see `reference`). The
//! oracle's fifth layer cannot see an II that is too high on a
//! constrained machine, since an over-eager cut only turns a feasible rung
//! into an `Exhausted` one; this comparison can.

mod reference;

#[test]
fn exact_ii_matches_brute_force_on_small_graphs() {
    let graphs = reference::graphs(300);
    let bad = reference::disagreements(&graphs);
    assert!(
        bad.is_empty(),
        "(graph, machine, exact II, brute II): {bad:?}"
    );
}
