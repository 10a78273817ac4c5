//! `explore_cold`: the whole paper pipeline, cold, in process.
//!
//! Each op is `ExploreRequest::from_source(src)` with one grid key,
//! evaluated by `run()` with a fresh request-local cache and one thread.
//! The traced replay calls the same pipeline's public functions one by one
//! (parse, then per factor unfold, W/D matrices, retiming solve,
//! compaction, projection, plain and CRED codegen, maxlive, then the
//! frontier) and must return the same points.

use std::time::Instant;

use cred_codegen::cred::cred_retime_unfold;
use cred_codegen::unfolded::retime_unfold_program;
use cred_codegen::DecMode;
use cred_dfg::algo::WdMatrices;
use cred_dfg::Ratio;
use cred_explore::{frontier, ExploreRequest, Objectives, ParetoPoint};
use cred_resilience::Budget;
use cred_retime::span::compact_values_wd;
use cred_retime::RetimeSolver;
use cred_schedule::KernelSchedule;
use cred_unfold::orders::project_retiming;
use cred_unfold::unfold;

use crate::affinity::Rotation;
use crate::clock;
use crate::expected::{mode_name, Expected, Pt, MAX_F, MODES, TRIP_COUNTS};
use crate::ops::{self, Fnv, Kernel};
use crate::trace::Tracer;
use crate::{timed_setups, Ctx, Measured, EXPECTED};

/// Nominal replay rate on a 2-core host: sizes the op count per second.
const OPS_PER_SECOND: u64 = 300;

/// One grid key.
#[derive(Debug, Clone, Copy)]
struct Op {
    kernel: usize,
    max_f: usize,
    mode: DecMode,
    n: u64,
}

fn grid(kernels: usize) -> Vec<Op> {
    let mut out = Vec::new();
    for kernel in 0..kernels {
        for max_f in 1..=MAX_F {
            for mode in MODES {
                for n in TRIP_COUNTS {
                    out.push(Op {
                        kernel,
                        max_f,
                        mode,
                        n,
                    });
                }
            }
        }
    }
    out
}

fn op_hash(k: &Kernel, op: &Op) -> u64 {
    Fnv::default()
        .str(&k.name)
        .str(&k.source)
        .u64(op.max_f as u64)
        .str(mode_name(op.mode))
        .u64(op.n)
        .finish()
}

struct State {
    kernels: Vec<Kernel>,
    expected: Expected,
    grid: Vec<Op>,
    seq: Vec<usize>,
}

/// The op as users issue it.
fn explore(src: &str, op: &Op) -> Result<(Vec<Pt>, Vec<Pt>, bool), String> {
    let resp = ExploreRequest::from_source(src)
        .map_err(|e| e.to_string())?
        .max_f(op.max_f)
        .trip_count(op.n)
        .mode(op.mode)
        .threads(1)
        .run()
        .map_err(|e| e.to_string())?;
    Ok((
        resp.points.iter().map(Pt::from).collect(),
        resp.frontier.iter().map(Pt::from).collect(),
        resp.report.is_clean(),
    ))
}

fn check(st: &State, op: &Op, got: Result<(Vec<Pt>, Vec<Pt>, bool), String>) -> Result<(), String> {
    let (points, frontier, clean) = got?;
    if !clean {
        return Err("sweep degraded".into());
    }
    st.expected.check(
        &st.kernels[op.kernel].name,
        op.n,
        op.mode,
        op.max_f,
        &points,
        &frontier,
    )
}

fn setup(ctx: &Ctx) -> Result<State, String> {
    let kernels = ops::load_kernels(&ctx.root.join("kernels"))?;
    let expected = Expected::parse(EXPECTED)?;
    let grid = grid(kernels.len());
    let passes = ops::passes_for(ctx.seconds, OPS_PER_SECOND, grid.len());
    let seq = ops::permuted_passes(grid.len(), passes, ctx.seed);
    let st = State {
        kernels,
        expected,
        grid,
        seq,
    };
    // Warm-up: every kernel once at the largest factor, checked.
    for kernel in 0..st.kernels.len() {
        let op = Op {
            kernel,
            max_f: MAX_F,
            mode: DecMode::Bulk,
            n: 101,
        };
        check(&st, &op, explore(&st.kernels[kernel].source, &op))
            .map_err(|e| format!("warm-up: {e}"))?;
    }
    Ok(st)
}

/// The pipeline behind `ExploreRequest::run`, one public call per span.
/// Plans are computed exactly as the engine's fast path does (one W/D
/// computation and one warm-started solver per factor).
fn traced_explore(
    t: &mut Tracer,
    src: &str,
    max_f: usize,
    n: u64,
    mode: DecMode,
) -> Result<(Vec<ParetoPoint>, Vec<ParetoPoint>), String> {
    let g = t
        .span("lang.parse", |_| cred_lang::parse(src))
        .map_err(|e| e.to_string())?;
    // A work limit that never binds makes the budget count units.
    let budget = Budget::unlimited().with_work_limit(u64::MAX);
    let mut points = Vec::with_capacity(max_f);
    for f in 1..=max_f {
        let (projected, period) = t.span("explore.plan", |t| {
            let u = t.span("unfold.unfold", |_| unfold(&g, f));
            let wd = t.span("dfg.wd", |_| WdMatrices::compute(&u.graph));
            let (period, r_f) = t
                .span("retime.solve", |_| {
                    let mut solver = RetimeSolver::new(&u.graph, &wd);
                    let opt = solver.min_period_budgeted(&budget)?;
                    let r =
                        solver.min_span_from_base_budgeted(opt.period, &opt.retiming, &budget)?;
                    Ok::<_, cred_resilience::Exhausted>((opt.period, r))
                })
                .map_err(|e| e.to_string())?;
            let r_f = t.span("retime.compact", |_| {
                compact_values_wd(&u.graph, &wd, period, &r_f)
            });
            let projected = t.span("unfold.project", |_| project_retiming(&u, &r_f));
            Ok::<_, String>((projected, period))
        })?;
        t.count("explore.plan_calls", 1);
        let plain = t.span("codegen.plain", |_| {
            retime_unfold_program(&g, &projected, f, n).code_size()
        });
        let cred = t.span("codegen.cred", |_| {
            cred_retime_unfold(&g, &projected, f, n, mode).code_size()
        });
        let maxlive = t.span("schedule.maxlive", |_| {
            KernelSchedule::sequential(&g, &projected, f)
                .maxlive()
                .maxlive
        });
        points.push(ParetoPoint {
            f,
            m_r: projected.max_value(),
            plain_size: plain,
            objectives: Objectives {
                cred_size: cred,
                iteration_period: Ratio::new(period as i64, f as i64),
                cond_registers: projected.register_count(),
                maxlive,
            },
        });
    }
    t.count("retime.work_units", budget.work_used());
    let front = t.span("explore.frontier", |_| frontier(&points, None));
    Ok((points, front))
}

fn traced_op(t: &mut Tracer, m: &mut Measured, st: &State, id: usize, op: &Op) {
    let src = &st.kernels[op.kernel].source;
    let got = t
        .op(id as u32, "explore_cold.op", |t| {
            traced_explore(t, src, op.max_f, op.n, op.mode)
        })
        .map(|(points, front)| {
            (
                points.iter().map(Pt::from).collect(),
                front.iter().map(Pt::from).collect(),
                true,
            )
        });
    m.attempted += 1;
    if let Err(e) = check(st, op, got) {
        m.fail(format!("traced: {e}"));
    }
}

pub fn run(ctx: &Ctx, trace: bool) -> Result<Measured, String> {
    let rotation = Rotation::new();
    let (st, setup_s) = timed_setups(
        |rep| {
            rotation.pin(rep);
            setup(ctx)
        },
        |_| Ok(()),
    )?;
    let mut m = Measured {
        setup_s,
        passes: st.seq.len() / st.grid.len(),
        pass_len: st.grid.len(),
        ..Measured::default()
    };
    let hashes: Vec<u64> = st
        .grid
        .iter()
        .map(|op| op_hash(&st.kernels[op.kernel], op))
        .collect();
    (m.input_fingerprint, m.pool_fingerprint) = ops::fingerprints(&hashes, &st.seq);

    // Timed phase: the sequence as users issue it. A traced run also
    // replays every op through the traced decomposition, alternating which
    // of the two goes first, so host-speed drift and warm caches favour
    // neither.
    let mut t = Tracer::new();
    let (mut cred_total, mut plain_total) = (0usize, 0usize);
    m.op_us.reserve(st.seq.len());
    let segment = (st.grid.len() / 4).max(1);
    let start = Instant::now();
    let stolen = rotation.stolen_s();
    for (id, &i) in st.seq.iter().enumerate() {
        if id % segment == 0 {
            rotation.pin(id / segment);
        }
        let op = &st.grid[i];
        let traced_first = trace && id % 2 == 1;
        if traced_first {
            traced_op(&mut t, &mut m, &st, id, op);
        }
        let t0 = clock::thread_cpu_ns();
        let got = explore(&st.kernels[op.kernel].source, op);
        m.op_us.push((clock::thread_cpu_ns() - t0) as f64 / 1e3);
        if let Ok((points, _, _)) = &got {
            cred_total += points.iter().map(|p| p.cred_size).sum::<usize>();
            plain_total += points.iter().map(|p| p.plain_size).sum::<usize>();
        }
        m.attempted += 1;
        if let Err(e) = check(&st, op, got) {
            m.fail(e);
        }
        if trace && !traced_first {
            traced_op(&mut t, &mut m, &st, id, op);
        }
    }
    if trace {
        m.wall_s = m.op_us.iter().sum::<f64>() / 1e6;
    } else {
        m.wall_s = start.elapsed().as_secs_f64();
        m.stolen_s = rotation.stolen_s() - stolen;
    }
    let code_size_ratio = cred_total as f64 / plain_total.max(1) as f64;
    m.record
        .push(("code_size_ratio", code_size_ratio.to_string()));
    if !trace {
        return Ok(m);
    }
    m.layers.insert("codegen.code_size_ratio", code_size_ratio);
    // Every plan lookup of a cold request misses.
    m.layers.insert("explore.cache_hit_ratio", 0.0);
    m.finish_trace(t);
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    #[test]
    fn traced_decomposition_returns_the_points_of_run() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        let kernels = ops::load_kernels(&root.join("kernels")).unwrap();
        assert_eq!(kernels.len(), 10);
        let mut t = Tracer::new();
        for k in &kernels {
            for mode in MODES {
                let (points, front) = traced_explore(&mut t, &k.source, 4, 40, mode).unwrap();
                let resp = ExploreRequest::from_source(&k.source)
                    .unwrap()
                    .max_f(4)
                    .trip_count(40)
                    .mode(mode)
                    .run()
                    .unwrap();
                assert_eq!(points, resp.points, "{}", k.name);
                assert_eq!(front, resp.frontier, "{}", k.name);
            }
        }
        assert!(t.counter("retime.work_units") > 0);
        assert_eq!(t.counter("explore.plan_calls"), 10 * 2 * 4);
    }

    #[test]
    fn input_fingerprint_is_stable_per_seed() {
        let kernels =
            ops::load_kernels(&Path::new(env!("CARGO_MANIFEST_DIR")).join("../kernels")).unwrap();
        let grid = grid(kernels.len());
        let hashes: Vec<u64> = grid
            .iter()
            .map(|op| op_hash(&kernels[op.kernel], op))
            .collect();
        let fp = |seed| ops::fingerprints(&hashes, &ops::permuted_passes(grid.len(), 2, seed));
        assert_eq!(fp(5), fp(5));
        assert_ne!(fp(5).0, fp(6).0, "the replay order depends on the seed");
        assert_eq!(fp(5).1, fp(6).1, "the op multiset does not");
    }
}
