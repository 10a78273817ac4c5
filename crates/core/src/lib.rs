//! # cred-core — the CRED framework as a library
//!
//! The paper's primary contribution packaged behind one type:
//! [`CodeSizeReducer`] takes a DFG and produces, in one call, the whole
//! family of transformed loop programs (software-pipelined, unfolded,
//! combined, and their CRED-reduced forms), each one *verified* against
//! the DFG recurrence by `cred-vm`, together with a code-size report.
//!
//! [`theorems`] contains the paper's seven theorems as executable, checked
//! propositions: each theorem has one checker over derived artifacts
//! (generated programs, their guard traces, the unfold-then-retime
//! optimum) and a wrapper that derives them from a concrete
//! `(G, r, f, n)` instance and returns a diagnostic error if the claim
//! fails — the integration tests run the wrappers across benchmark and
//! random graphs, and the differential oracle in `cred-verify` runs the
//! checkers on the artifacts of each fuzz case.

pub mod theorems;

use cred_codegen::cred::{cred_pipelined, cred_retime_unfold, cred_unfolded};
use cred_codegen::pipeline::{original_program, pipelined_program};
use cred_codegen::unfolded::{retime_unfold_program, unfolded_program};
use cred_codegen::{DecMode, LoopProgram};
use cred_dfg::Dfg;
use cred_retime::span::compact_values;
use cred_retime::{min_period_retiming, Retiming};
use cred_vm::{check_against_reference, ExecError};

/// Configuration for [`CodeSizeReducer`].
#[derive(Debug, Clone)]
pub struct ReducerConfig {
    /// Unfolding factor (`1` = software pipelining only).
    pub unfold_factor: usize,
    /// Trip count the programs are generated and verified for.
    pub trip_count: u64,
    /// Decrement placement (see [`DecMode`]).
    pub dec_mode: DecMode,
    /// Verify every generated program against the DFG recurrence
    /// (recommended; costs `O(n * L)` per program).
    pub verify: bool,
}

impl Default for ReducerConfig {
    fn default() -> Self {
        ReducerConfig {
            unfold_factor: 1,
            trip_count: 101,
            dec_mode: DecMode::Bulk,
            verify: true,
        }
    }
}

/// The produced program family and its measurements.
#[derive(Debug, Clone)]
pub struct Reduction {
    /// The retiming used (rate-optimal period, minimized span, compacted
    /// register set).
    pub retiming: Retiming,
    /// The rate-optimal cycle period achieved by retiming alone.
    pub period: u64,
    /// The untransformed loop.
    pub original: LoopProgram,
    /// Software-pipelined loop (prologue + kernel + epilogue).
    pub pipelined: LoopProgram,
    /// CRED-reduced software-pipelined loop.
    pub cred: LoopProgram,
    /// Plain unfolded loop (present when `unfold_factor > 1`).
    pub unfolded: Option<LoopProgram>,
    /// Retimed-and-unfolded loop (present when `unfold_factor > 1`).
    pub retime_unfold: Option<LoopProgram>,
    /// CRED-reduced retimed-and-unfolded loop (when `unfold_factor > 1`).
    pub cred_retime_unfold: Option<LoopProgram>,
}

impl Reduction {
    /// Summarize code sizes: `(name, size)` for every generated program.
    pub fn sizes(&self) -> Vec<(String, usize)> {
        let mut out = vec![
            (self.original.name.clone(), self.original.code_size()),
            (self.pipelined.name.clone(), self.pipelined.code_size()),
            (self.cred.name.clone(), self.cred.code_size()),
        ];
        for p in [
            &self.unfolded,
            &self.retime_unfold,
            &self.cred_retime_unfold,
        ]
        .into_iter()
        .flatten()
        {
            out.push((p.name.clone(), p.code_size()));
        }
        out
    }

    /// The paper's headline metric: reduction from the pipelined (and
    /// unfolded) baseline to its CRED form, in percent.
    pub fn reduction_percent(&self) -> f64 {
        let (before, after) = match (&self.retime_unfold, &self.cred_retime_unfold) {
            (Some(b), Some(a)) => (b.code_size(), a.code_size()),
            _ => (self.pipelined.code_size(), self.cred.code_size()),
        };
        cred_codegen::size::reduction_percent(before as u64, after as u64)
    }
}

/// The façade: run the full CRED pipeline on a DFG.
///
/// ```
/// use cred_core::{CodeSizeReducer, ReducerConfig};
/// use cred_kernels::iir_filter;
///
/// let red = CodeSizeReducer::new(iir_filter())
///     .with_config(ReducerConfig { unfold_factor: 3, ..Default::default() })
///     .run()
///     .expect("all generated programs verify");
/// assert!(red.cred.code_size() < red.pipelined.code_size());
/// ```
#[derive(Debug, Clone)]
pub struct CodeSizeReducer {
    graph: Dfg,
    config: ReducerConfig,
}

impl CodeSizeReducer {
    /// Start from a well-formed DFG.
    ///
    /// # Panics
    /// Panics if the graph fails validation.
    pub fn new(graph: Dfg) -> Self {
        graph
            .validate()
            .expect("CodeSizeReducer requires a well-formed DFG");
        CodeSizeReducer {
            graph,
            config: ReducerConfig::default(),
        }
    }

    /// Replace the configuration.
    pub fn with_config(mut self, config: ReducerConfig) -> Self {
        assert!(config.unfold_factor >= 1);
        self.config = config;
        self
    }

    /// Access the graph.
    pub fn graph(&self) -> &Dfg {
        &self.graph
    }

    /// Run retiming, code generation, CRED, and (optionally) verification.
    pub fn run(&self) -> Result<Reduction, ExecError> {
        let g = &self.graph;
        let cfg = &self.config;
        let opt = min_period_retiming(g);
        let r = compact_values(g, opt.period, &opt.retiming);
        let n = cfg.trip_count;
        let f = cfg.unfold_factor;

        let original = original_program(g, n);
        let pipelined = pipelined_program(g, &r, n);
        let cred = cred_pipelined(g, &r, n);
        let (unfolded, retime_unfold, cred_ru) = if f > 1 {
            (
                Some(unfolded_program(g, f, n)),
                Some(retime_unfold_program(g, &r, f, n)),
                Some(cred_retime_unfold(g, &r, f, n, cfg.dec_mode)),
            )
        } else {
            (None, None, None)
        };
        if cfg.verify {
            for p in [Some(&original), Some(&pipelined), Some(&cred)]
                .into_iter()
                .flatten()
                .chain([&unfolded, &retime_unfold, &cred_ru].into_iter().flatten())
            {
                check_against_reference(g, p)?;
            }
        }
        Ok(Reduction {
            retiming: r,
            period: opt.period,
            original,
            pipelined,
            cred,
            unfolded,
            retime_unfold,
            cred_retime_unfold: cred_ru,
        })
    }

    /// Convenience: CRED the plain unfolded loop (§3.3) without retiming.
    pub fn unfold_only(&self) -> Result<(LoopProgram, LoopProgram), ExecError> {
        let cfg = &self.config;
        let plain = unfolded_program(&self.graph, cfg.unfold_factor, cfg.trip_count);
        let reduced = cred_unfolded(&self.graph, cfg.unfold_factor, cfg.trip_count, cfg.dec_mode);
        if cfg.verify {
            check_against_reference(&self.graph, &plain)?;
            check_against_reference(&self.graph, &reduced)?;
        }
        Ok((plain, reduced))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cred_kernels::{all_benchmarks, iir_filter};

    #[test]
    fn facade_runs_on_all_benchmarks() {
        for (name, g) in all_benchmarks() {
            let red = CodeSizeReducer::new(g)
                .with_config(ReducerConfig {
                    trip_count: 31,
                    ..Default::default()
                })
                .run()
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(
                red.cred.code_size() <= red.pipelined.code_size(),
                "{name}: CRED must never be larger"
            );
        }
    }

    #[test]
    fn facade_with_unfolding() {
        let red = CodeSizeReducer::new(iir_filter())
            .with_config(ReducerConfig {
                unfold_factor: 3,
                trip_count: 50,
                ..Default::default()
            })
            .run()
            .unwrap();
        let ru = red.retime_unfold.as_ref().unwrap();
        let cr = red.cred_retime_unfold.as_ref().unwrap();
        assert!(cr.code_size() < ru.code_size());
        assert!(red.reduction_percent() > 0.0);
        assert_eq!(red.sizes().len(), 6);
    }

    #[test]
    fn unfold_only_reduces_remainder() {
        let red = CodeSizeReducer::new(iir_filter()).with_config(ReducerConfig {
            unfold_factor: 3,
            trip_count: 101, // 101 mod 3 = 2 remainder iterations
            ..Default::default()
        });
        let (plain, reduced) = red.unfold_only().unwrap();
        assert_eq!(plain.code_size(), 3 * 8 + 2 * 8);
        assert_eq!(reduced.code_size(), 3 * 8 + 2);
    }

    #[test]
    #[should_panic(expected = "well-formed")]
    fn malformed_graph_rejected() {
        let mut b = cred_dfg::DfgBuilder::new();
        let a = b.unit("A");
        b.edge(a, a, 0);
        let _ = CodeSizeReducer::new(b.build_unchecked());
    }
}
