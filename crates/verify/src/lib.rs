//! # cred-verify — end-to-end differential verification
//!
//! Fuzzes the whole transformation pipeline: random executable DFGs are
//! pushed through retiming, unfolding, code generation, and CRED collapse
//! in both transformation orders, executed on the strict `cred-vm`, and
//! checked against five independent predictions (see [`oracle`]):
//! closed-form static sizes ([`cred_codegen::ExpectedCounts`]), the DFG
//! recurrence ([`cred_dfg::Dfg::reference_execution`]), closed-form
//! dynamic counts, and the guard-state trace — plus the paper's theorem
//! checkers in `cred-core`.
//!
//! Failures are minimized by the greedy [`shrink`](fn@shrink) minimizer
//! and persisted in the textual [`corpus`] format under `tests/corpus/`
//! for regression replay. The CLI front end is `cred verify --cases N --seed S`.

pub mod case;
pub mod chaos;
pub mod corpus;
pub mod oracle;
pub mod shrink;

pub use case::{random_case, Case, CaseConfig, TransformOrder};
pub use chaos::{chaos_suite, ChaosConfig, ChaosOutcome, ChaosReport};
pub use oracle::{
    case_programs, verify_case, verify_case_mutated, verify_case_on, CaseReport, Executor,
    FailureKind, ProgramReport, VerifyFailure,
};
pub use shrink::shrink;

use rand::rngs::StdRng;
use rand::SeedableRng;

/// Parameters of a [`fuzz_suite`] run.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Number of random cases to draw.
    pub cases: usize,
    /// Seed of the deterministic case stream (`seed{S}-case{i}` labels).
    pub seed: u64,
    /// Bounds on each drawn case.
    pub case: CaseConfig,
    /// Minimize each failure with [`shrink`](fn@shrink) before reporting it.
    pub shrink_failures: bool,
    /// VM backend the oracle's execution layer runs (tape by default;
    /// tree for cross-checking the tape compiler).
    pub executor: Executor,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            cases: 200,
            seed: 0,
            case: CaseConfig::default(),
            shrink_failures: false,
            executor: Executor::default(),
        }
    }
}

/// One failing case from a suite run.
#[derive(Debug, Clone)]
pub struct FuzzFailure {
    /// The case as drawn.
    pub case: Case,
    /// The oracle's rejection of the drawn case.
    pub error: VerifyFailure,
    /// Minimized reproducer (present when
    /// [`FuzzConfig::shrink_failures`] is set), with the error its
    /// minimal form triggers.
    pub shrunk: Option<(Case, VerifyFailure)>,
}

/// Aggregate result of a [`fuzz_suite`] run.
#[derive(Debug, Clone, Default)]
pub struct FuzzReport {
    /// Cases drawn and checked.
    pub cases_run: usize,
    /// Programs generated, executed, and diffed across all cases.
    pub programs_checked: usize,
    /// Cases per transformation order (retime∘unfold, unfold∘retime).
    pub by_order: [usize; 2],
    /// Every rejected case.
    pub failures: Vec<FuzzFailure>,
}

impl FuzzReport {
    /// True when no case was rejected.
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Draw and verify `cfg.cases` random cases. Deterministic per seed: the
/// same config always draws the same case stream.
pub fn fuzz_suite(cfg: &FuzzConfig) -> FuzzReport {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut report = FuzzReport::default();
    for i in 0..cfg.cases {
        let label = format!("seed{}-case{}", cfg.seed, i);
        let case = random_case(&mut rng, label, &cfg.case);
        report.cases_run += 1;
        report.by_order[match case.order {
            TransformOrder::RetimeUnfold => 0,
            TransformOrder::UnfoldRetime => 1,
        }] += 1;
        match verify_case_on(&case, cfg.executor) {
            Ok(rep) => report.programs_checked += rep.programs.len(),
            Err(error) => {
                let shrunk = cfg.shrink_failures.then(|| {
                    let small = shrink(&case, &|c| verify_case_on(c, cfg.executor).is_err());
                    let err = verify_case_on(&small, cfg.executor)
                        .expect_err("shrink must preserve the failure predicate");
                    (small, err)
                });
                report.failures.push(FuzzFailure {
                    case,
                    error,
                    shrunk,
                });
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_suite_is_clean_and_covers_both_orders() {
        let report = fuzz_suite(&FuzzConfig {
            cases: 30,
            ..FuzzConfig::default()
        });
        if let Some(f) = report.failures.first() {
            panic!("{}: {}", f.case, f.error);
        }
        assert_eq!(report.cases_run, 30);
        assert!(report.by_order[0] > 0 && report.by_order[1] > 0);
        assert!(report.programs_checked >= 3 * 30);
    }

    #[test]
    fn suite_is_deterministic() {
        let cfg = FuzzConfig {
            cases: 10,
            seed: 42,
            ..FuzzConfig::default()
        };
        let a = fuzz_suite(&cfg);
        let b = fuzz_suite(&cfg);
        assert_eq!(a.programs_checked, b.programs_checked);
        assert_eq!(a.by_order, b.by_order);
    }
}
