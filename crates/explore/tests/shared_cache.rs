//! Properties of one [`SweepCache`] shared by several kernels: threads on
//! disjoint kernels count exactly what a serial replay counts, checksum
//! self-healing evicts *only* the corrupted entry, and the capacity bound
//! is exact, with one least-recently-used order across every kernel.

use std::path::Path;

use cred_dfg::{gen, Dfg};
use cred_explore::cache::SweepCache;
use proptest::prelude::*;

/// Structurally distinct kernels (distinct fingerprints), cheap to solve.
fn graphs(count: usize, depth: u32) -> Vec<Dfg> {
    (0..count)
        .map(|i| gen::chain_with_feedback(4 + i, depth))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn concurrent_disjoint_kernels_match_the_serial_replay(
        count in 3..7usize,
        depth in 1..4u32,
        threads in 2..5usize,
        max_f in 1..3usize,
    ) {
        let shared = SweepCache::new();
        let gs = graphs(count, depth);
        // Each thread owns a disjoint subset of the kernels, so the
        // per-key hit/miss counts are deterministic even though the
        // threads hammer the cache concurrently.
        std::thread::scope(|s| {
            for t in 0..threads {
                let shared = &shared;
                let gs = &gs;
                s.spawn(move || {
                    for (i, g) in gs.iter().enumerate() {
                        if i % threads != t {
                            continue;
                        }
                        for f in 1..=max_f {
                            shared.plan(g, f); // miss
                            shared.plan(g, f); // hit
                        }
                    }
                });
            }
        });
        let serial = SweepCache::new();
        for g in &gs {
            for f in 1..=max_f {
                serial.plan(g, f);
                serial.plan(g, f);
            }
        }
        prop_assert_eq!(shared.hits(), serial.hits());
        prop_assert_eq!(shared.misses(), serial.misses());
        prop_assert_eq!(shared.evictions(), serial.evictions());
        prop_assert_eq!(shared.len(), serial.len());
        prop_assert_eq!(shared.evictions(), 0, "unbounded caches never evict");
        prop_assert_eq!(shared.poison_recoveries(), 0);
    }

    #[test]
    fn checksum_healing_evicts_only_the_corrupt_entry(
        count in 3..7usize,
        depth in 1..4u32,
        victim in 0..64usize,
    ) {
        let cache = SweepCache::new();
        let gs = graphs(count, depth);
        for g in &gs {
            for f in 1..=2 {
                cache.plan(g, f);
            }
        }
        let len = cache.len();
        let misses = cache.misses();
        let victim = victim % gs.len();
        let truth = (*cache.plan(&gs[victim], 1)).clone();
        prop_assert!(cache.corrupt_entry_for_test(&gs[victim], 1));
        // Re-plan everything: exactly one lookup — the corrupted one —
        // may go back to the solver; every other entry must still hit.
        for g in &gs {
            for f in 1..=2 {
                cache.plan(g, f);
            }
        }
        prop_assert_eq!(cache.evictions(), 1, "healing evicts one entry");
        prop_assert_eq!(cache.misses(), misses + 1, "one recompute");
        prop_assert_eq!(cache.len(), len, "the healed entry is re-stored");
        // The healed plan is the true plan, and healthy thereafter.
        let healed = (*cache.plan(&gs[victim], 1)).clone();
        prop_assert_eq!(healed, truth);
    }
}

#[test]
fn capacity_is_exact_and_evicts_the_global_lru() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../kernels");
    let kernels = cred_explore::suite::load_kernels(&dir).expect("bundled kernels parse");
    assert_eq!(kernels.len(), 10);
    let plans: Vec<(&Dfg, usize)> = kernels
        .iter()
        .flat_map(|(_, g)| (1..=8).map(move |f| (g, f)))
        .collect();
    // 80 plans under a bound of 81: nothing is evicted.
    let cache = SweepCache::with_capacity(81);
    for &(g, f) in &plans {
        cache.plan(g, f);
    }
    assert_eq!(
        (cache.len(), cache.evictions(), cache.misses()),
        (80, 0, 80)
    );
    // Touch the oldest plan, so the second oldest is the least recently
    // used one of all ten kernels.
    cache.plan(plans[0].0, plans[0].1);
    let extra = gen::chain_with_feedback(6, 3);
    cache.plan(&extra, 1);
    assert_eq!((cache.len(), cache.evictions()), (81, 0), "81 plans fit");
    cache.plan(&extra, 2);
    assert_eq!(
        (cache.len(), cache.evictions()),
        (81, 1),
        "the 82nd evicts one"
    );
    // Every plan but the second oldest is still stored.
    let (hits, misses) = (cache.hits(), cache.misses());
    for (i, &(g, f)) in plans.iter().enumerate() {
        if i != 1 {
            cache.plan(g, f);
        }
    }
    cache.plan(&extra, 1);
    cache.plan(&extra, 2);
    assert_eq!((cache.hits(), cache.misses()), (hits + 81, misses));
    cache.plan(plans[1].0, plans[1].1);
    assert_eq!(
        cache.misses(),
        misses + 1,
        "the least recently used was evicted"
    );
}
