//! The two orders of combining retiming and unfolding (paper §3.4, §4).
//!
//! * **unfold-then-retime** (`G_{f,r}`): unfold `G` by `f`, then retime the
//!   unfolded graph to its minimum cycle period. Each copy may receive a
//!   distinct retiming value, so code size is
//!   `S_{f,r} = (M_{f,r} + 1) * L * f + Q_f` (Theorem 4.4) and the register
//!   demand can exceed the retimed-first approach.
//! * **retime-then-unfold** (`G_{r,f}`): project the unfolded retiming back
//!   to the original nodes, `r_f(u) = sum_{i=0}^{f-1} r(u_i)` (Theorem 4.5),
//!   retime `G` by `r_f`, then unfold. Chao–Sha \[1\] showed this achieves the
//!   same minimum cycle period; code size is
//!   `S_{r,f} = (max_u r_f(u) + f) * L + Q_f <= S_{f,r}`.

use crate::{unfold, Unfolded};
use cred_dfg::{algo, Dfg};
use cred_retime::{min_period_retiming, Retiming};

/// Result of unfold-then-retime.
#[derive(Debug, Clone)]
pub struct UnfoldRetime {
    /// The unfolded graph (before retiming) with provenance.
    pub unfolded: Unfolded,
    /// Min-period retiming of the unfolded graph (normalized).
    pub retiming: Retiming,
    /// Minimum cycle period of the retimed unfolded graph (per new
    /// iteration, i.e. per `f` original iterations).
    pub period: u64,
}

impl UnfoldRetime {
    /// `M_{f,r}`: the maximum retiming value over all copies.
    pub fn max_retiming(&self) -> i64 {
        self.retiming.max_value()
    }

    /// Registers CRED would need: distinct retiming values over `V_f`.
    pub fn register_count(&self) -> usize {
        self.retiming.register_count()
    }
}

/// Result of retime-then-unfold.
#[derive(Debug, Clone)]
pub struct RetimeUnfold {
    /// The retiming `r_f` applied to the *original* graph (normalized).
    pub retiming: Retiming,
    /// The retimed original graph `G_r`.
    pub retimed: Dfg,
    /// The unfolded retimed graph `G_{r,f}` with provenance.
    pub unfolded: Unfolded,
    /// Cycle period of `G_{r,f}` (per new iteration).
    pub period: u64,
}

impl RetimeUnfold {
    /// `M_r = max_u r_f(u)` on the original nodes.
    pub fn max_retiming(&self) -> i64 {
        self.retiming.max_value()
    }

    /// Registers CRED needs: distinct retiming values over `V` — identical
    /// for the retimed loop and the retimed unfolded loop (Theorem 4.7).
    pub fn register_count(&self) -> usize {
        self.retiming.register_count()
    }
}

/// Unfold `g` by `f` and retime the result to its minimum cycle period.
pub fn unfold_then_retime_min(g: &Dfg, f: usize) -> UnfoldRetime {
    let u = unfold(g, f);
    let res = min_period_retiming(&u.graph);
    UnfoldRetime {
        unfolded: u,
        retiming: res.retiming,
        period: res.period,
    }
}

/// Project a retiming of the unfolded graph back to the original nodes:
/// `r_f(u) = sum_{j} r(u_j)` (Theorem 4.5). The projection of a legal
/// retiming is always legal on `G` (the copy delays of each edge sum to the
/// original delay). [`project_copies`] on `u`'s factor.
pub fn project_retiming(u: &Unfolded, r_f: &Retiming) -> Retiming {
    assert_eq!(
        r_f.len(),
        u.original_nodes * u.factor,
        "retiming does not belong to the unfolding"
    );
    project_copies(u.factor, r_f)
}

/// [`project_retiming`] for a retiming `r_f` of the `f`-unfolding, read
/// in the unfolding's node layout (copy `j` of node `u` at `u * f + j`),
/// so the unfolding itself need not be built. Normalized.
///
/// # Panics
/// Panics if `f == 0` or `r_f` does not hold `f` values per node.
pub fn project_copies(f: usize, r_f: &Retiming) -> Retiming {
    assert!(
        f >= 1 && r_f.len().is_multiple_of(f),
        "{} values are not {f} copies per node",
        r_f.len()
    );
    let vals = r_f.values().chunks(f).map(|c| c.iter().sum()).collect();
    let mut r = Retiming::from_values(vals);
    r.normalize();
    r
}

/// Retime `g` by the given (normalized) retiming and unfold by `f`.
pub fn retime_then_unfold(g: &Dfg, r: &Retiming, f: usize) -> RetimeUnfold {
    let retimed = r.apply(g);
    let unfolded = unfold(&retimed, f);
    let period = algo::cycle_period(&unfolded.graph).expect("well-formed");
    RetimeUnfold {
        retiming: r.normalized(),
        retimed,
        unfolded,
        period,
    }
}

/// The paper's recommended pipeline: compute the unfold-then-retime optimum,
/// project its retiming (`r_f(u) = sum_j r(u_j)`), and build the
/// retime-then-unfold graph, which matches the minimum cycle period at
/// strictly smaller or equal code size.
pub fn retime_then_unfold_projected(g: &Dfg, f: usize) -> (UnfoldRetime, RetimeUnfold) {
    let ur = unfold_then_retime_min(g, f);
    let projected = project_retiming(&ur.unfolded, &ur.retiming);
    let ru = retime_then_unfold(g, &projected, f);
    (ur, ru)
}

/// Code size of the remaining iterations an unfolded loop leaves outside its
/// body: `Q_f = (n mod f) * L_orig` (paper §4).
pub fn remainder_code_size(n: u64, f: u64, l_orig: u64) -> u64 {
    (n % f) * l_orig
}

#[cfg(test)]
mod tests {
    use super::*;
    use cred_dfg::gen;
    use rand::{rngs::StdRng, SeedableRng};

    fn sample_graphs(seed: u64, count: usize) -> Vec<Dfg> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..count)
            .map(|_| {
                gen::random_dfg(
                    &mut rng,
                    &gen::RandomDfgConfig {
                        nodes: 6,
                        max_delay: 3,
                        max_time: 3,
                        back_edges: 2,
                        ..Default::default()
                    },
                )
            })
            .collect()
    }

    #[test]
    fn projection_of_legal_retiming_is_legal() {
        for g in sample_graphs(31, 20) {
            for f in 2..=4 {
                let ur = unfold_then_retime_min(&g, f);
                let proj = project_retiming(&ur.unfolded, &ur.retiming);
                assert!(
                    proj.is_legal(&g),
                    "projected retiming must be legal (delay conservation)"
                );
            }
        }
    }

    #[test]
    fn projected_retime_unfold_matches_min_period() {
        // Chao–Sha: G_{r,f} with r_f(u) = sum r(u_i) achieves the same
        // minimum cycle period as G_{f,r}.
        for g in sample_graphs(32, 15) {
            for f in 2..=3 {
                let (ur, ru) = retime_then_unfold_projected(&g, f);
                assert_eq!(
                    ru.period, ur.period,
                    "projected retime-then-unfold must match the optimum"
                );
            }
        }
    }

    #[test]
    fn projected_max_retiming_bounded() {
        // max_u r_f(u) <= f * M_{f,r}, the inequality behind S_{r,f} <= S_{f,r}.
        for g in sample_graphs(33, 15) {
            for f in 2..=4 {
                let (ur, ru) = retime_then_unfold_projected(&g, f);
                assert!(
                    ru.max_retiming() <= ur.max_retiming() * f as i64,
                    "projection bound violated"
                );
            }
        }
    }

    #[test]
    fn theorem_code_size_inequality() {
        // S_{r,f} <= S_{f,r} for the projected retiming (Theorems 4.4/4.5).
        for g in sample_graphs(34, 15) {
            let l = g.node_count() as i64;
            for f in 2..=4usize {
                let (ur, ru) = retime_then_unfold_projected(&g, f);
                let s_fr = (ur.max_retiming() + 1) * l * f as i64;
                let s_rf = (ru.max_retiming() + f as i64) * l;
                assert!(s_rf <= s_fr, "S_rf={s_rf} > S_fr={s_fr} for f={f}");
            }
        }
    }

    #[test]
    fn register_count_retime_first_no_worse() {
        // Theorem 4.7 side-effect: registers for G_{r,f} = registers for
        // G_r <= registers for G_{f,r} is *not* guaranteed pointwise, but
        // the distinct-value count on V is at most that on V_f after
        // projection collapses copies... here we check the documented
        // relation: register_count(ru) <= |V| and >= 1.
        for g in sample_graphs(35, 10) {
            let (_, ru) = retime_then_unfold_projected(&g, 3);
            let regs = ru.register_count();
            assert!(regs >= 1 && regs <= g.node_count());
        }
    }

    #[test]
    fn factor_one_degenerates_to_plain_retiming() {
        for g in sample_graphs(36, 10) {
            let ur = unfold_then_retime_min(&g, 1);
            let opt = cred_retime::min_period_retiming(&g);
            assert_eq!(ur.period, opt.period);
        }
    }

    #[test]
    fn remainder_code_size_formula() {
        assert_eq!(remainder_code_size(101, 3, 8), 2 * 8);
        assert_eq!(remainder_code_size(99, 3, 8), 0);
        assert_eq!(remainder_code_size(98, 3, 10), 20);
        assert_eq!(remainder_code_size(5, 10, 4), 20);
    }

    #[test]
    fn retime_then_unfold_period_at_most_f_times_retimed() {
        // Unfolding cannot lengthen the per-f-iterations critical path
        // beyond f times the single-iteration period.
        for g in sample_graphs(37, 10) {
            let opt = cred_retime::min_period_retiming(&g);
            for f in 2..=3 {
                let ru = retime_then_unfold(&g, &opt.retiming, f);
                assert!(ru.period <= opt.period * f as u64);
            }
        }
    }
}
