//! Seeded op sequences, input fingerprints, and the committed kernels.
//!
//! Every workload replays a fixed multiset of ops (a grid of request keys,
//! or a pool of fuzz cases) in whole passes. Each pass is a permutation of
//! the multiset drawn from `--seed`, so the mix, and with it where p99
//! lands, is identical on every run; only the order depends on the seed.
//! The op count is a function of `--seconds` alone, never of elapsed time.

use std::path::Path;

/// splitmix64: a tiny seeded generator for op order, kept separate from
/// the program's own generators so that changing them cannot reorder a
/// workload.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; modulo bias is irrelevant at these sizes).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// `passes` concatenated seeded permutations of the indices `0..len`.
pub fn permuted_passes(len: usize, passes: usize, seed: u64) -> Vec<usize> {
    let mut rng = SplitMix::new(seed);
    let mut out = Vec::with_capacity(len * passes);
    for _ in 0..passes {
        let mut pass: Vec<usize> = (0..len).collect();
        for i in (1..len).rev() {
            pass.swap(i, rng.below(i + 1));
        }
        out.extend(pass);
    }
    out
}

/// Whole passes needed to replay about `ops_per_second * seconds` ops
/// (at least one).
pub fn passes_for(seconds: u64, ops_per_second: u64, pass_len: usize) -> usize {
    let want = seconds.saturating_mul(ops_per_second) as usize;
    want.div_ceil(pass_len).max(1)
}

/// FNV-1a 64, for input fingerprints.
#[derive(Debug, Clone)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, b: &[u8]) -> &mut Self {
        for &x in b {
            self.0 = (self.0 ^ u64::from(x)).wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    pub fn u64(&mut self, x: u64) -> &mut Self {
        self.bytes(&x.to_le_bytes())
    }

    pub fn str(&mut self, s: &str) -> &mut Self {
        self.u64(s.len() as u64).bytes(s.as_bytes())
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// A run's input fingerprints, from each distinct op's hash: the ops in
/// replay order (`seq` indexes `items`), and the multiset in canonical
/// order, which does not depend on the seed.
pub fn fingerprints(items: &[u64], seq: &[usize]) -> (u64, u64) {
    let mut input = Fnv::default();
    for &i in seq {
        input.u64(items[i]);
    }
    let mut pool = Fnv::default();
    for &h in items {
        pool.u64(h);
    }
    (input.finish(), pool.finish())
}

/// One committed kernel: its file stem and source text.
#[derive(Debug, Clone)]
pub struct Kernel {
    pub name: String,
    pub source: String,
}

/// Read every `*.loop` file of `dir`, sorted by name.
pub fn load_kernels(dir: &Path) -> Result<Vec<Kernel>, String> {
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("reading {}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "loop"))
        .collect();
    paths.sort();
    if paths.is_empty() {
        return Err(format!("no .loop kernels in {}", dir.display()));
    }
    paths
        .into_iter()
        .map(|p| {
            let source =
                std::fs::read_to_string(&p).map_err(|e| format!("reading {}: {e}", p.display()))?;
            let name = p
                .file_stem()
                .expect("filtered on extension")
                .to_string_lossy()
                .into_owned();
            Ok(Kernel { name, source })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passes_are_permutations_and_seeded() {
        let a = permuted_passes(80, 3, 7);
        assert_eq!(a, permuted_passes(80, 3, 7));
        assert_ne!(a, permuted_passes(80, 3, 8));
        for pass in a.chunks(80) {
            let mut p = pass.to_vec();
            p.sort_unstable();
            assert_eq!(p, (0..80).collect::<Vec<_>>());
        }
    }

    #[test]
    fn op_count_depends_on_seconds_only() {
        assert_eq!(passes_for(10, 300, 480), 7);
        assert_eq!(passes_for(0, 300, 480), 1);
        assert_eq!(passes_for(1, 8000, 80), 100);
    }
}
