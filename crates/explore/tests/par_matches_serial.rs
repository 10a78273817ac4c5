//! Differential tests: the parallel, memoized sweep must be
//! indistinguishable from the serial reference sweep — on random graphs,
//! on every bundled kernel, and through a shared cache.

use std::path::Path;

use cred_codegen::DecMode;
use cred_dfg::gen::{self, RandomDfgConfig};
use cred_dfg::Dfg;
use cred_explore::cache::SweepCache;
use cred_explore::suite::load_kernels;
use cred_explore::{sweep_reference, ExploreRequest, ParetoPoint};
use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};

/// The points of one `ExploreRequest` over `cache`.
fn explore(
    g: &Dfg,
    max_f: usize,
    n: u64,
    mode: DecMode,
    threads: usize,
    cache: &SweepCache,
) -> Vec<ParetoPoint> {
    ExploreRequest::new(g.clone())
        .max_f(max_f)
        .trip_count(n)
        .mode(mode)
        .threads(threads)
        .run_with(cache)
        .expect("unlimited budget cannot exhaust")
        .points
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn request_matches_reference_on_random_dfgs(
        seed in 0..u64::MAX,
        nodes in 3..9usize,
        back_edges in 1..3usize,
        max_f in 1..4usize,
        threads in 1..5usize,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = gen::random_dfg(
            &mut rng,
            &RandomDfgConfig {
                nodes,
                back_edges,
                ..Default::default()
            },
        );
        let serial = sweep_reference(&g, max_f, 60, DecMode::Bulk);
        let single = explore(&g, max_f, 60, DecMode::Bulk, 1, &SweepCache::new());
        prop_assert_eq!(&serial, &single);
        let parallel = explore(&g, max_f, 60, DecMode::Bulk, threads, &SweepCache::new());
        prop_assert_eq!(serial, parallel);
    }

    #[test]
    fn cached_resweep_is_answered_from_the_memo(
        seed in 0..u64::MAX,
        nodes in 3..8usize,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = gen::random_dfg(
            &mut rng,
            &RandomDfgConfig { nodes, ..Default::default() },
        );
        let cache = SweepCache::new();
        let first = explore(&g, 3, 60, DecMode::PerCopy, 1, &cache);
        let misses_after_first = cache.misses();
        let second = explore(&g, 3, 60, DecMode::PerCopy, 1, &cache);
        prop_assert_eq!(first, second);
        prop_assert_eq!(cache.misses(), misses_after_first,
            "re-sweeping the same graph must not run the solver again");
        prop_assert!(cache.hits() >= 3);
    }
}

#[test]
fn request_matches_reference_on_all_bundled_kernels() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../kernels");
    let kernels = load_kernels(&dir).expect("bundled kernels parse");
    assert_eq!(kernels.len(), 10);
    let cache = SweepCache::new();
    for (name, g) in &kernels {
        let serial = sweep_reference(g, 3, 100, DecMode::Bulk);
        assert_eq!(
            serial,
            explore(g, 3, 100, DecMode::Bulk, 1, &SweepCache::new()),
            "kernel {name}"
        );
        for threads in [1, 2, 4, 8] {
            let parallel = explore(g, 3, 100, DecMode::Bulk, threads, &cache);
            assert_eq!(serial, parallel, "kernel {name} at {threads} threads");
        }
    }
    // 10 kernels * 3 factors solved once each; the re-runs at higher
    // thread counts all hit the shared cache.
    assert_eq!(cache.misses(), 30);
    assert_eq!(cache.hits(), 90);
}
