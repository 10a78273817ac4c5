//! Differential tests: the parallel, memoized sweep must be
//! indistinguishable from the serial reference sweep — on random graphs,
//! on every bundled kernel, and through a shared cache, whose entries
//! memoize finished points as well as plans.

use std::path::Path;

use cred_codegen::DecMode;
use cred_dfg::gen::{self, RandomDfgConfig};
use cred_dfg::Dfg;
use cred_explore::cache::SweepCache;
use cred_explore::suite::load_kernels;
use cred_explore::{sweep_reference, ExploreRequest, ParetoPoint};
use proptest::prelude::*;
use rand::{rngs::StdRng, RngExt, SeedableRng};

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
        // Trip counts from 0 through the degenerate windows (no kernel
        // chunk fits, `n - M_r < f`), or well past them.
        small_n in 0..12u64,
        large_n in 40..120u64,
        small in any::<bool>(),
        per_copy in any::<bool>(),
    ) {
        let n = if small { small_n } else { large_n };
        let mut rng = StdRng::seed_from_u64(seed);
        let g = gen::random_dfg(
            &mut rng,
            &RandomDfgConfig {
                nodes,
                back_edges,
                ..Default::default()
            },
        );
        let mode = if per_copy { DecMode::PerCopy } else { DecMode::Bulk };
        let serial = sweep_reference(&g, max_f, n, mode);
        let single = explore(&g, max_f, n, mode, 1, &SweepCache::new());
        prop_assert_eq!(&serial, &single);
        let parallel = explore(&g, max_f, n, mode, threads, &SweepCache::new());
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

#[test]
fn interleaved_requests_on_one_cache_match_reference() {
    // Every kernel x max_f 1..=4 x both modes x n in {3, 40, 101}, in a
    // seeded interleaved order, on one shared cache. Each (g, f) entry is
    // asked six distinct (n, mode) points, more than it keeps, so the memo
    // replaces points while it answers; every response must still be the
    // reference sweep.
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../kernels");
    let kernels = load_kernels(&dir).expect("bundled kernels parse");
    let modes = [DecMode::Bulk, DecMode::PerCopy];
    let ns = [3, 40, 101];
    let mut grid = Vec::new();
    for k in 0..kernels.len() {
        for max_f in 1..=4 {
            for m in 0..modes.len() {
                for n in ns {
                    grid.push((k, max_f, m, n));
                }
            }
        }
    }
    let mut rng = StdRng::seed_from_u64(18);
    for i in (1..grid.len()).rev() {
        grid.swap(i, rng.random_range(0..=i));
    }
    // The reference at max_f 4; a smaller max_f sweeps a prefix of it.
    let reference: Vec<Vec<Vec<Vec<ParetoPoint>>>> = kernels
        .iter()
        .map(|(_, g)| {
            modes
                .iter()
                .map(|&mode| ns.iter().map(|&n| sweep_reference(g, 4, n, mode)).collect())
                .collect()
        })
        .collect();
    let cache = SweepCache::new();
    for (i, &(k, max_f, m, n)) in grid.iter().enumerate() {
        let (name, g) = &kernels[k];
        let got = explore(g, max_f, n, modes[m], 1 + i % 2, &cache);
        let ni = ns.iter().position(|&x| x == n).expect("n is from ns");
        assert_eq!(
            got,
            reference[k][m][ni][..max_f],
            "kernel {name}, max_f {max_f}, {:?}, n {n}",
            modes[m]
        );
    }
    // One solve per (kernel, f); every other factor lookup is a hit.
    let lookups: u64 = grid.iter().map(|&(_, max_f, _, _)| max_f as u64).sum();
    assert_eq!(cache.misses(), kernels.len() as u64 * 4);
    assert_eq!(cache.hits(), lookups - cache.misses());
    assert_eq!(cache.evictions(), 0);
}
