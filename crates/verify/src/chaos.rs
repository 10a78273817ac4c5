//! The chaos harness: replay the five-layer differential oracle under
//! randomly sampled fault plans and prove the pipeline *fails well*.
//!
//! Each chaos case runs twice: once fault-free (the baseline — the suite
//! is clean, so this must pass) and once with a seeded [`ChaosPlan`]
//! installed that panics, delays, or injects errors at the fail-point
//! sites threaded through retime, explore, codegen, and the VM. Exactly
//! four outcomes are possible, and only one of them is a bug:
//!
//! * **clean** — the faults missed (or were harmless delays) and the
//!   report is bit-identical to the baseline;
//! * **degraded** — an injected error surfaced through a typed error
//!   channel ([`VerifyFailure`](crate::VerifyFailure),
//!   `ExecError::Injected`, ...) and the run said so;
//! * **faulted** — an injected panic unwound out of the oracle; it was
//!   caught at the case boundary and isolated;
//! * **corrupted** — the run *passed* but its report differs from the
//!   baseline: a fault silently changed an answer. This is the failure
//!   mode the whole resilience layer exists to prevent, and the one that
//!   fails [`ChaosReport::is_sound`].
//!
//! Determinism: the case stream and every fault plan derive from the
//! suite seed, so a failing chaos case reproduces from `(seed, index)`
//! alone. Delays are bounded to a few milliseconds, so the suite also
//! demonstrates the absence of hangs.

use crate::case::{random_case, CaseConfig};
use crate::oracle::verify_case;
use cred_resilience::failpoint::{install, sites, ChaosPlan};
use cred_resilience::panic_message;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Parameters of a [`chaos_suite`] run.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Number of chaos cases to draw.
    pub cases: usize,
    /// Seed of the case stream *and* the fault-plan stream.
    pub seed: u64,
    /// Bounds on each drawn case.
    pub case: CaseConfig,
    /// Per-site arming probability, in percent.
    pub trip_percent: u32,
    /// Upper bound on injected delays, in milliseconds.
    pub max_delay_ms: u64,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            cases: 100,
            seed: 0,
            case: CaseConfig::default(),
            trip_percent: 40,
            max_delay_ms: 2,
        }
    }
}

/// How one chaos case ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChaosOutcome {
    /// Report bit-identical to the fault-free baseline.
    Clean,
    /// A typed error surfaced (rendered diagnostic attached).
    Degraded(String),
    /// A panic unwound out of the oracle and was isolated (message
    /// attached).
    Faulted(String),
    /// **Silent corruption**: the run passed but its report differs from
    /// the baseline. The attached string describes the divergence.
    Corrupted(String),
}

impl ChaosOutcome {
    /// True for the one unacceptable outcome.
    pub fn is_corruption(&self) -> bool {
        matches!(self, ChaosOutcome::Corrupted(_))
    }
}

/// One chaos case: what was injected and what happened.
#[derive(Debug, Clone)]
pub struct ChaosCase {
    /// The case's provenance tag (`chaos-seed{S}-case{i}`).
    pub label: String,
    /// The sites the sampled plan armed, rendered `site=action`.
    pub plan: Vec<String>,
    /// The verdict.
    pub outcome: ChaosOutcome,
}

impl fmt::Display for ChaosCase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{}]: ", self.label, self.plan.join(", "))?;
        match &self.outcome {
            ChaosOutcome::Clean => write!(f, "clean"),
            ChaosOutcome::Degraded(d) => write!(f, "degraded: {d}"),
            ChaosOutcome::Faulted(m) => write!(f, "faulted: {m}"),
            ChaosOutcome::Corrupted(d) => write!(f, "CORRUPTED: {d}"),
        }
    }
}

/// Aggregate result of a [`chaos_suite`] run.
#[derive(Debug, Clone, Default)]
pub struct ChaosReport {
    /// Cases run.
    pub cases_run: usize,
    /// Cases whose report matched the baseline exactly.
    pub clean: usize,
    /// Cases that surfaced a typed error.
    pub degraded: usize,
    /// Cases that panicked and were isolated.
    pub faulted: usize,
    /// Every non-clean case, for diagnosis (corruptions included).
    pub incidents: Vec<ChaosCase>,
}

impl ChaosReport {
    /// The silent corruptions — must be empty for the suite to pass.
    pub fn corruptions(&self) -> Vec<&ChaosCase> {
        self.incidents
            .iter()
            .filter(|c| c.outcome.is_corruption())
            .collect()
    }

    /// True when no fault produced a silently wrong answer. Degradations
    /// and isolated panics are *expected* under injection; corruption is
    /// not.
    pub fn is_sound(&self) -> bool {
        self.corruptions().is_empty()
    }
}

/// Run `cfg.cases` chaos cases. Deterministic per seed.
///
/// Requires the `failpoints` feature (always on in this crate). Each plan
/// is armed on the calling thread only, for the faulted run, so suites on
/// other threads (chaos or plain fuzz) never see it, and the baselines
/// run fault-free. The fail-point panic hook keeps the injected panics,
/// all of them caught here, off stderr.
pub fn chaos_suite(cfg: &ChaosConfig) -> ChaosReport {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut report = ChaosReport::default();
    for i in 0..cfg.cases {
        let label = format!("chaos-seed{}-case{}", cfg.seed, i);
        let case = random_case(&mut rng, label.clone(), &cfg.case);
        // Fault-free baseline first: the fuzz suite is clean, so a
        // baseline failure is a real pipeline bug — report it as a
        // corruption so the suite fails loudly.
        let baseline = match verify_case(&case) {
            Ok(rep) => rep,
            Err(e) => {
                report.cases_run += 1;
                report.incidents.push(ChaosCase {
                    label,
                    plan: Vec::new(),
                    outcome: ChaosOutcome::Corrupted(format!("fault-free baseline failed: {e}")),
                });
                continue;
            }
        };
        // The plan seed mixes the suite seed with the case index so every
        // case sees a fresh plan, reproducible from (seed, i).
        let plan_seed = cfg
            .seed
            .wrapping_mul(0x9E3779B97F4A7C15)
            .wrapping_add(i as u64);
        let plan = ChaosPlan::sample(plan_seed, sites::ALL, cfg.trip_percent, cfg.max_delay_ms);
        let plan_desc: Vec<String> = plan.iter().map(|(s, a)| format!("{s}={a}")).collect();
        let outcome = {
            let _guard = install(plan);
            match catch_unwind(AssertUnwindSafe(|| verify_case(&case))) {
                Ok(Ok(rep)) if rep == baseline => ChaosOutcome::Clean,
                Ok(Ok(rep)) => ChaosOutcome::Corrupted(format!(
                    "run passed but diverged from baseline: got {rep:?}, baseline {baseline:?}"
                )),
                Ok(Err(e)) => ChaosOutcome::Degraded(e.to_string()),
                Err(payload) => ChaosOutcome::Faulted(panic_message(payload.as_ref())),
            }
        };
        report.cases_run += 1;
        match &outcome {
            ChaosOutcome::Clean => report.clean += 1,
            ChaosOutcome::Degraded(_) => report.degraded += 1,
            ChaosOutcome::Faulted(_) => report.faulted += 1,
            ChaosOutcome::Corrupted(_) => {}
        }
        if outcome != ChaosOutcome::Clean {
            report.incidents.push(ChaosCase {
                label,
                plan: plan_desc,
                outcome,
            });
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use cred_resilience::failpoint::FaultAction;

    #[test]
    fn chaos_smoke_is_sound() {
        let report = chaos_suite(&ChaosConfig {
            cases: 25,
            ..ChaosConfig::default()
        });
        assert_eq!(report.cases_run, 25);
        assert!(
            report.is_sound(),
            "silent corruptions: {:#?}",
            report.corruptions()
        );
        // With a 40% arming probability across 10 sites, faults must
        // actually land — an all-clean report would mean the injection
        // machinery is dead, not that the pipeline is invincible.
        assert!(
            report.degraded + report.faulted > 0,
            "no fault ever fired: {report:?}"
        );
        // Tallies are consistent.
        assert_eq!(
            report.clean + report.degraded + report.faulted + report.corruptions().len(),
            report.cases_run
        );
    }

    #[test]
    fn chaos_suite_is_deterministic() {
        let chaos = |seed| {
            let cfg = ChaosConfig {
                cases: 20,
                seed,
                ..ChaosConfig::default()
            };
            format!("{:?}", chaos_suite(&cfg))
        };
        let fuzz = || {
            let cfg = crate::FuzzConfig {
                cases: 60,
                ..Default::default()
            };
            format!("{:?}", crate::fuzz_suite(&cfg))
        };
        // Each suite returns the same report alone and beside the other
        // two, all started on one barrier: a plan stays on its thread.
        let suites: [&(dyn Fn() -> String + Sync); 3] = [&|| chaos(7), &|| chaos(8), &fuzz];
        let alone = suites.map(|run| run());
        let start = std::sync::Barrier::new(3);
        let together = std::thread::scope(|s| {
            let start = &start;
            suites
                .map(|run| {
                    s.spawn(move || {
                        start.wait();
                        run()
                    })
                })
                .map(|r| r.join().expect("a suite panicked"))
        });
        assert_eq!(together, alone);
    }

    /// The chain case the injection tests share, on `machine`.
    fn inject_case(label: &str, machine: cred_exact::MachineModel) -> crate::Case {
        crate::Case {
            label: label.into(),
            graph: cred_dfg::gen::chain_with_feedback(5, 2),
            n: 17,
            f: 2,
            order: crate::TransformOrder::RetimeUnfold,
            mode: cred_codegen::DecMode::Bulk,
            machine,
        }
    }

    /// `run` with a typed error armed at `site`; the guard drops before
    /// the caller asserts, since the panic hook is silent on armed threads.
    fn with_error_at<R>(site: &str, run: impl FnOnce() -> R) -> R {
        let _guard = install(ChaosPlan::new().trip(site, FaultAction::Error));
        run()
    }

    #[test]
    fn vm_injection_surfaces_as_typed_degradation() {
        let case = inject_case("vm-inject", cred_exact::MachineModel::unconstrained());
        let err = with_error_at(sites::VM_EXEC, || verify_case(&case)).unwrap_err();
        assert!(err.detail.contains(sites::VM_EXEC), "{err}");
    }

    #[test]
    fn exact_branch_injection_surfaces_as_typed_degradation() {
        // A constrained machine forces real branch-and-bound work, so the
        // armed site is guaranteed to be reached.
        let scalar = cred_exact::MachineModel::builtin("scalar").unwrap();
        let case = inject_case("exact-inject", scalar);
        // The oracle's exact layer runs under a budget, so an injected
        // error at the branch site must come back as a *typed* fifth-layer
        // failure naming the site — never a panic, never a wrong answer.
        let err = with_error_at(sites::EXACT_BRANCH, || verify_case(&case)).unwrap_err();
        assert_eq!(err.kind, crate::FailureKind::Exact, "{err}");
        assert!(err.detail.contains(sites::EXACT_BRANCH), "{err}");
    }

    #[test]
    fn tape_compiler_injection_surfaces_as_typed_degradation() {
        let case = inject_case("compile-inject", cred_exact::MachineModel::unconstrained());
        // The oracle's default executor lowers through the tape compiler,
        // so a fault armed at its entry must surface as a typed
        // degradation naming the site — proof that `credc chaos` covers
        // the compiler, not just the interpreters.
        let (tape, tree) = with_error_at(sites::VM_COMPILE, || {
            let tree = crate::verify_case_on(&case, crate::Executor::Tree);
            (verify_case(&case), tree)
        });
        let err = tape.unwrap_err();
        assert!(err.detail.contains(sites::VM_COMPILE), "{err}");
        // The tree-walker path does not compile and must sail through.
        tree.unwrap();
    }
}
