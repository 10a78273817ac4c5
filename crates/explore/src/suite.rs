//! Batch exploration over a directory of `.loop` kernels.
//!
//! [`explore_suite`] runs the parallel, memoized sweep over every bundled
//! benchmark in one call and returns a [`SuiteReport`] that serializes to
//! machine-readable JSON — the document `credc explore <dir> --json`
//! prints and CI uploads. One [`SweepCache`] is shared across the whole
//! suite; the structural fingerprint in the cache key keeps the kernels'
//! entries apart.

use std::io;
use std::path::Path;

use cred_codegen::DecMode;
use cred_dfg::Dfg;

use crate::api::{point_json, ExploreOptions, ExploreRequest};
use crate::cache::SweepCache;
use crate::ParetoPoint;

/// JSON schema version stamped into [`SuiteReport::to_json`] and into
/// every `cred-service` response. v2 added the optional `machine` request
/// parameter and the `exact` response object; v3 replaced the flat
/// per-point fields with a nested `objectives` object (adding `maxlive`)
/// and renamed the response's `pareto` array to `frontier` (non-dominated
/// over four axes). The service answers only this version and refuses a
/// request naming any other with a `protocol` error.
pub const SCHEMA_VERSION: u32 = 3;

/// The sweep of one kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelReport {
    /// Kernel name (the `.loop` file stem).
    pub name: String,
    /// Nodes in the kernel's DFG.
    pub nodes: usize,
    /// One point per unfolding factor `1..=max_f`.
    pub points: Vec<ParetoPoint>,
}

/// The full suite run: inputs, per-kernel sweeps, and cache statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SuiteReport {
    /// Largest unfolding factor swept.
    pub max_f: usize,
    /// Iteration count the code sizes are computed for.
    pub n: u64,
    /// Decrement placement mode.
    pub mode: DecMode,
    /// Worker threads per sweep.
    pub threads: usize,
    /// Per-kernel results, in input order.
    pub kernels: Vec<KernelReport>,
    /// Plan lookups answered from the shared memo table.
    pub cache_hits: u64,
    /// Plan lookups that ran the solver.
    pub cache_misses: u64,
}

/// Load every `*.loop` file in `dir`, sorted by file name so the suite
/// order is stable across platforms. Parse failures surface as
/// [`io::ErrorKind::InvalidData`] naming the offending file.
pub fn load_kernels(dir: &Path) -> io::Result<Vec<(String, Dfg)>> {
    let mut paths: Vec<_> = std::fs::read_dir(dir)?
        .collect::<io::Result<Vec<_>>>()?
        .into_iter()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "loop"))
        .collect();
    paths.sort();
    let mut kernels = Vec::with_capacity(paths.len());
    for p in paths {
        let name = p
            .file_stem()
            .expect("filtered on extension")
            .to_string_lossy()
            .into_owned();
        let src = std::fs::read_to_string(&p)?;
        let g = cred_lang::parse(&src).map_err(|e| {
            io::Error::new(io::ErrorKind::InvalidData, format!("{}: {e}", p.display()))
        })?;
        kernels.push((name, g));
    }
    Ok(kernels)
}

/// Sweep every kernel through one [`ExploreRequest`] per kernel, sharing
/// one cache across the whole suite.
///
/// # Panics
/// Panics if the request refuses the options: `max_f` outside
/// `1..=`[`MAX_MAX_F`](crate::MAX_MAX_F), `n` above
/// [`MAX_N`](crate::MAX_N), or `threads == 0`.
pub fn explore_suite(
    kernels: &[(String, Dfg)],
    max_f: usize,
    n: u64,
    mode: DecMode,
    threads: usize,
) -> SuiteReport {
    let cache = SweepCache::new();
    let opts = ExploreOptions {
        max_f,
        n,
        mode,
        threads,
        ..ExploreOptions::default()
    };
    let reports = kernels
        .iter()
        .map(|(name, g)| {
            let resp = ExploreRequest::new(g.clone())
                .options(opts.clone())
                .run_with(&cache)
                .expect("an unlimited budget cannot exhaust, so only out-of-range options fail");
            KernelReport {
                name: name.clone(),
                nodes: g.node_count(),
                points: resp.points,
            }
        })
        .collect();
    SuiteReport {
        max_f,
        n,
        mode,
        threads,
        kernels: reports,
        cache_hits: cache.hits(),
        cache_misses: cache.misses(),
    }
}

impl SuiteReport {
    /// Serialize to JSON (two-space indent, stable key order). The format
    /// is hand-rolled — the workspace builds hermetically, without serde.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"schema_version\": {},\n", SCHEMA_VERSION));
        out.push_str(&format!("  \"max_f\": {},\n", self.max_f));
        out.push_str(&format!("  \"n\": {},\n", self.n));
        let mode = match self.mode {
            DecMode::PerCopy => "per-copy",
            DecMode::Bulk => "bulk",
        };
        out.push_str(&format!("  \"mode\": \"{mode}\",\n"));
        out.push_str(&format!("  \"threads\": {},\n", self.threads));
        out.push_str(&format!(
            "  \"cache\": {{ \"hits\": {}, \"misses\": {} }},\n",
            self.cache_hits, self.cache_misses
        ));
        out.push_str("  \"kernels\": [");
        for (i, k) in self.kernels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {\n");
            out.push_str(&format!("      \"name\": {},\n", json_string(&k.name)));
            out.push_str(&format!("      \"nodes\": {},\n", k.nodes));
            out.push_str("      \"points\": [");
            for (j, p) in k.points.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str("\n        ");
                out.push_str(&point_json(p));
            }
            out.push_str("\n      ]\n    }");
        }
        out.push_str("\n  ]\n}\n");
        out
    }
}

/// Minimal JSON string encoder (kernel names are file stems, but escape
/// defensively anyway).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cred_dfg::gen;

    #[test]
    fn suite_covers_every_kernel_and_factor() {
        let kernels = vec![
            ("a".to_string(), gen::chain_with_feedback(5, 2)),
            ("b".to_string(), gen::chain_with_feedback(6, 3)),
        ];
        let report = explore_suite(&kernels, 3, 60, DecMode::Bulk, 2);
        assert_eq!(report.kernels.len(), 2);
        for k in &report.kernels {
            assert_eq!(k.points.len(), 3);
        }
        // Every plan solved exactly once: 2 kernels * 3 factors.
        assert_eq!(report.cache_misses, 6);
    }

    #[test]
    fn suite_points_match_serial_sweep() {
        let kernels = vec![("k".to_string(), gen::chain_with_feedback(6, 3))];
        let report = explore_suite(&kernels, 4, 60, DecMode::PerCopy, 4);
        let serial = crate::sweep_reference(&kernels[0].1, 4, 60, DecMode::PerCopy);
        assert_eq!(report.kernels[0].points, serial);
    }

    #[test]
    fn json_is_well_formed_enough() {
        let kernels = vec![("k\"1".to_string(), gen::chain_with_feedback(4, 2))];
        let report = explore_suite(&kernels, 2, 31, DecMode::Bulk, 1);
        let j = report.to_json();
        assert!(j.starts_with("{\n"));
        assert!(j.ends_with("}\n"));
        assert!(j.contains("\"k\\\"1\""));
        assert!(j.contains("\"cache\""));
        assert_eq!(
            j.matches('{').count(),
            j.matches('}').count(),
            "balanced braces"
        );
    }

    #[test]
    fn load_kernels_reads_the_bundled_suite() {
        // CARGO_MANIFEST_DIR = crates/explore; kernels/ sits at the root.
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../kernels");
        let kernels = load_kernels(&dir).expect("bundled kernels parse");
        assert_eq!(kernels.len(), 10, "the paper suite has ten kernels");
        let names: Vec<_> = kernels.iter().map(|(n, _)| n.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted, "kernels are returned in stable name order");
        assert!(names.contains(&"elliptic") && names.contains(&"volterra"));
    }
}
