//! Maxlive — data-register pressure of a cyclic (kernel) schedule.
//!
//! The paper tracks `P_r`, the *conditional* registers CRED needs, but a
//! software-pipelined kernel also holds *data* values in registers: every
//! edge value produced by one operation and consumed `d` iterations later
//! must stay live across the intervening cycles. The classic modulo-
//! scheduling metric for that pressure is **maxlive**: the maximum number
//! of simultaneously live values over the cycles of the steady-state
//! kernel (see "A Tiling Perspective for Register Optimization" in
//! PAPERS.md). This module computes it for the two kernel shapes the
//! repo produces:
//!
//! * the **sequential** kernel of `retime_unfold_program`: `f` copies of
//!   the retimed body in zero-delay topological order, one instruction
//!   per cycle, kernel length `II = f * L`;
//! * the **modulo** kernel of `cred-exact`: one operation per node at
//!   issue cycle `sigma(v) = stage(v) * II + slot(v)`.
//!
//! Both reduce to the same abstract form: a set of operation instances
//! with absolute issue cycles inside a kernel of length `II`, plus
//! def-use dependences annotated with the number of *kernel* iterations
//! between producer and consumer. A value defined at cycle `t` whose
//! last use is `L_v` cycles later is live on the half-open interval
//! `[t, t + L_v)`; in steady state the copies from earlier kernel
//! iterations overlap, so cycle `c` of the kernel carries
//! `ceil((L_v - delta) / II)` copies, `delta = (c - t) mod II`. Maxlive
//! is the per-cycle sum, maximized over the kernel. Values nobody
//! consumes (pure outputs, stored straight to memory) occupy no
//! register and are excluded.
//!
//! With `L_v = q·II + rem`, that count is `q` at every cycle plus one on
//! the `rem` cycles from `t` on, wrapping at `II`. So
//! [`KernelSchedule::maxlive`] adds each value as one circular range to a
//! difference array and takes a single prefix sum: `O(ops + II)` instead
//! of the `O(ops · II)` of evaluating the count at every cycle, which for
//! the sequential kernel (`ops = f·L`, `II = f·L`) is `O((f·L)²)`.
//!
//! [`KernelSchedule::replay_maxlive`] recomputes the same quantity by a
//! deliberately different algorithm — explicit interval simulation over
//! enough unrolled kernel iterations to reach steady state — and exists
//! as the differential oracle for the closed-form computation.

use cred_dfg::{algo, Dfg};
use cred_retime::Retiming;

/// One def-use dependence between operation instances of the kernel:
/// (producer op, consumer op, kernel iterations between them).
type Dep = (u32, u32, i64);

/// A cyclic schedule of operation instances, abstracted to exactly what
/// liveness needs: the kernel length, each instance's absolute issue
/// cycle, and the def-use dependences with their kernel-iteration
/// distances.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelSchedule {
    ii: u64,
    cycles: Vec<i64>,
    deps: Vec<Dep>,
}

/// What [`KernelSchedule::maxlive`] found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MaxliveReport {
    /// Kernel length the pressure was computed over.
    pub ii: u64,
    /// Maximum number of simultaneously live values over the kernel.
    pub maxlive: usize,
    /// First kernel cycle (in `0..ii`) achieving the maximum.
    pub peak_cycle: u64,
}

impl KernelSchedule {
    /// The sequential kernel of `retime_unfold_program(g, r, f, _)`: the
    /// loop body issues `f` copies of the retimed body, each in
    /// zero-delay topological order, one instruction per cycle. Copy `j`
    /// of node `v` issues at cycle `j * L + pos(v)`; the kernel is
    /// `II = f * L` cycles long and advances the iteration index by `f`.
    ///
    /// An edge `u -> v` with retimed delay `d` connects copy `j` of `u`
    /// to copy `j + d` of the *slot* sequence, which lands in copy
    /// `(j + d) mod f` of the kernel, `(j + d) div f` kernel iterations
    /// later.
    pub fn sequential(g: &Dfg, r: &Retiming, f: usize) -> KernelSchedule {
        assert!(f >= 1, "unfolding factor must be at least 1");
        assert!(r.is_legal(g), "retiming must be legal");
        let gr = r.apply(g);
        let order = algo::zero_delay_topo_order(&gr).expect("retimed graph well-formed");
        let l = g.node_count();
        let mut pos = vec![0usize; l];
        for (i, &v) in order.iter().enumerate() {
            pos[v.index()] = i;
        }
        let op = |j: usize, v: usize| (j * l + pos[v]) as u32;
        let mut cycles = vec![0i64; f * l];
        for j in 0..f {
            for v in 0..l {
                cycles[op(j, v) as usize] = (j * l + pos[v]) as i64;
            }
        }
        let mut deps = Vec::with_capacity(f * g.edge_count());
        for j in 0..f {
            for e in g.edge_ids() {
                let ed = g.edge(e);
                let d = r.retimed_delay(g, e);
                debug_assert!(d >= 0, "legal retiming keeps delays non-negative");
                let slot = j as i64 + d;
                let (k, jc) = (slot.div_euclid(f as i64), slot.rem_euclid(f as i64));
                deps.push((op(j, ed.src.index()), op(jc as usize, ed.dst.index()), k));
            }
        }
        KernelSchedule {
            ii: (f * l) as u64,
            cycles,
            deps,
        }
    }

    /// The modulo kernel of an exact schedule: node `v` issues at
    /// `sigma(v) = stage[v] * ii + slot[v]`, the kernel is `ii` cycles
    /// long and advances the iteration index by 1, so an edge with
    /// original delay `d` spans `d` kernel iterations.
    pub fn modulo(g: &Dfg, slot: &[u32], stage: &[i64], ii: u64) -> KernelSchedule {
        let l = g.node_count();
        assert_eq!(slot.len(), l, "one slot per node");
        assert_eq!(stage.len(), l, "one stage per node");
        assert!(ii >= 1, "initiation interval must be at least 1");
        let cycles: Vec<i64> = (0..l)
            .map(|v| stage[v] * ii as i64 + slot[v] as i64)
            .collect();
        let deps = g
            .edge_ids()
            .map(|e| {
                let ed = g.edge(e);
                (
                    ed.src.index() as u32,
                    ed.dst.index() as u32,
                    ed.delay as i64,
                )
            })
            .collect();
        KernelSchedule { ii, cycles, deps }
    }

    /// Kernel length in cycles.
    pub fn ii(&self) -> u64 {
        self.ii
    }

    /// Per-operation value lifetimes: the distance from an op's issue
    /// cycle to its last use (`None` for values nobody consumes). The
    /// lifetime of dependence `(u, v, k)` is
    /// `cycle(v) + k * II - cycle(u)`.
    fn lifetimes(&self) -> Vec<Option<i64>> {
        let mut life: Vec<Option<i64>> = vec![None; self.cycles.len()];
        for &(u, v, k) in &self.deps {
            let lv = self.cycles[v as usize] + k * self.ii as i64 - self.cycles[u as usize];
            assert!(lv >= 0, "schedule violates dependence (negative lifetime)");
            let slot = &mut life[u as usize];
            *slot = Some(slot.map_or(lv, |cur| cur.max(lv)));
        }
        life
    }

    /// Closed-form steady-state register pressure: for every kernel cycle
    /// `c`, sum over value streams the number of overlapping live copies,
    /// and take the maximum. A value live `lv = q·II + rem` cycles from
    /// kernel cycle `t` adds `q` copies everywhere and one more on the
    /// `rem` cycles from `t` on, wrapping at `II`; those circular ranges
    /// go into a difference array, so the whole count is `O(ops + II)`.
    pub fn maxlive(&self) -> MaxliveReport {
        let ii = self.ii as i64;
        let life = self.lifetimes();
        let mut everywhere = 0i64;
        let mut diff = vec![0i64; self.ii as usize + 1];
        for (u, lv) in life.iter().enumerate() {
            let Some(lv) = *lv else { continue };
            everywhere += lv / ii;
            let (t, rem) = (self.cycles[u].rem_euclid(ii), lv % ii);
            if rem == 0 {
                continue;
            }
            diff[t as usize] += 1;
            if t + rem <= ii {
                diff[(t + rem) as usize] -= 1;
            } else {
                diff[0] += 1;
                diff[(t + rem - ii) as usize] -= 1;
            }
        }
        let per_cycle = diff[..self.ii as usize]
            .iter()
            .scan(everywhere, |live, &d| {
                *live += d;
                Some(*live as usize)
            });
        let (peak_cycle, maxlive) = per_cycle
            .enumerate()
            .max_by_key(|&(c, m)| (m, std::cmp::Reverse(c)))
            .expect("kernel has at least one cycle");
        MaxliveReport {
            ii: self.ii,
            maxlive,
            peak_cycle: peak_cycle as u64,
        }
    }

    /// Brute-force differential oracle for [`maxlive`](Self::maxlive):
    /// unroll enough kernel iterations that a full steady-state window
    /// exists, materialize every value's live interval explicitly, and
    /// count per absolute cycle inside that window. Shares no code with
    /// the closed-form computation.
    pub fn replay_maxlive(&self) -> usize {
        let ii = self.ii as i64;
        let life = self.lifetimes();
        // Window start: past the longest-lived value of iteration 0, so
        // no instance from a "negative" iteration could still be live.
        let horizon = life
            .iter()
            .enumerate()
            .filter_map(|(u, lv)| lv.map(|lv| self.cycles[u] + lv))
            .max()
            .unwrap_or(0)
            .max(0);
        let start = (horizon + ii - 1) / ii * ii;
        let mut counts = vec![0usize; self.ii as usize];
        let rounds = start / ii + 2;
        for q in 0..rounds {
            for (u, lv) in life.iter().enumerate() {
                let Some(lv) = *lv else { continue };
                let def = self.cycles[u] + q * ii;
                // Clip [def, def + lv) against the window [start, start + ii).
                let lo = def.max(start);
                let hi = (def + lv).min(start + ii);
                for c in lo..hi {
                    counts[(c - start) as usize] += 1;
                }
            }
        }
        counts.into_iter().max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cred_dfg::gen;
    use cred_retime::min_period_retiming;
    use cred_retime::span::{compact_values, min_span_retiming};

    fn pipelined(g: &Dfg) -> Retiming {
        let opt = min_period_retiming(g);
        let r = min_span_retiming(g, opt.period).expect("optimum feasible");
        compact_values(g, opt.period, &r)
    }

    #[test]
    fn zero_retiming_chain_pressure_is_explicit() {
        // a -> b -> c, unit delays on the feedback only: with the zero
        // retiming and f = 1 the kernel is the plain body. Each value is
        // consumed one cycle after its definition, except the feedback
        // value which stays live across the whole kernel.
        let g = gen::chain_with_feedback(3, 1);
        let sched = KernelSchedule::sequential(&g, &Retiming::zero(3), 1);
        let report = sched.maxlive();
        assert_eq!(report.ii, 3);
        assert_eq!(report.maxlive, sched.replay_maxlive());
        assert!(report.maxlive >= 1);
    }

    #[test]
    fn lifetime_spanning_the_kernel_counts_every_cycle() {
        // One node feeding itself with delay 1, f = 1: the value is live
        // from its def to its redefinition — exactly II cycles — so one
        // copy is live at every cycle.
        let mut b = cred_dfg::DfgBuilder::new();
        let a = b.unit("a");
        b.edge(a, a, 1);
        let g = b.build().unwrap();
        let sched = KernelSchedule::sequential(&g, &Retiming::zero(1), 1);
        assert_eq!(sched.maxlive().maxlive, 1);
        assert_eq!(sched.replay_maxlive(), 1);
    }

    #[test]
    fn sequential_matches_replay_on_random_graphs() {
        use rand::{rngs::StdRng, SeedableRng};
        for seed in 0..40u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let g = gen::random_dfg(
                &mut rng,
                &gen::RandomDfgConfig {
                    nodes: 3 + (seed as usize % 6),
                    back_edges: 1 + (seed as usize % 2),
                    ..Default::default()
                },
            );
            let r = pipelined(&g);
            for f in 1..=3usize {
                let sched = KernelSchedule::sequential(&g, &r, f);
                let report = sched.maxlive();
                assert_eq!(
                    report.maxlive,
                    sched.replay_maxlive(),
                    "seed {seed} f {f}: closed form disagrees with replay"
                );
                assert_eq!(report.ii, (f * g.node_count()) as u64);
                assert!((report.peak_cycle as i64) < report.ii as i64);
            }
        }
    }

    #[test]
    fn modulo_matches_replay_on_asap_like_schedules() {
        // Hand-rolled "modulo schedule": slot = position in topo order
        // modulo II, stage = position div II. Not resource-feasible, but
        // dependence-legal for delay >= stage gaps on these graphs — the
        // liveness math only needs legality.
        let g = gen::chain_with_feedback(6, 3);
        let order = algo::zero_delay_topo_order(&g).unwrap();
        for ii in [2u64, 3, 6] {
            let mut slot = vec![0u32; 6];
            let mut stage = vec![0i64; 6];
            for (i, v) in order.iter().enumerate() {
                slot[v.index()] = (i as u64 % ii) as u32;
                stage[v.index()] = (i as u64 / ii) as i64;
            }
            let sched = KernelSchedule::modulo(&g, &slot, &stage, ii);
            assert_eq!(sched.maxlive().maxlive, sched.replay_maxlive(), "ii {ii}");
        }
    }

    #[test]
    fn modulo_lifetimes_with_whole_kernels_and_wraps_match_replay() {
        // II = 4. Each graph holds one value stream `a`, issued at
        // `slot[a]`, whose lifetime exercises one corner of the
        // difference-array count. The expected peaks are written out, and
        // the replay must agree on each.
        let ii = 4u64;
        let one_value = |delay: u32, slot: [u32; 2]| {
            let mut b = cred_dfg::DfgBuilder::new();
            let a = b.unit("a");
            let x = b.unit("x");
            b.edge(a, x, delay);
            let g = b.build().unwrap();
            KernelSchedule::modulo(&g, &slot, &[0, 0], ii)
        };
        // rem = 0, q = 2: a self-loop over two kernels is live 8 cycles,
        // two copies at every cycle.
        let mut b = cred_dfg::DfgBuilder::new();
        let a = b.unit("a");
        b.edge(a, a, 2);
        let whole = KernelSchedule::modulo(&b.build().unwrap(), &[0], &[0], ii);
        // q = 2, rem = 1: issued at 0, used at 1 two kernels on (lifetime
        // 9), so cycle 0 holds 3 copies and the rest 2.
        let long = one_value(2, [0, 1]);
        // q = 1, rem = 2 from cycle 3: used at 1 two kernels on (lifetime
        // 6), so cycles 3 and 0 hold 2 copies and 1 and 2 hold one. The
        // peak is cycle 0 only if the extra copy wraps past the last cycle.
        let wrap = one_value(2, [3, 1]);
        for (name, sched, maxlive, peak) in [
            ("rem 0", &whole, 2, 0),
            ("q 2", &long, 3, 0),
            ("wrap", &wrap, 2, 0),
        ] {
            let report = sched.maxlive();
            assert_eq!(
                (report.maxlive, report.peak_cycle),
                (maxlive, peak),
                "{name}"
            );
            assert_eq!(report.maxlive, sched.replay_maxlive(), "{name}");
        }
    }

    #[test]
    fn deeper_pipelining_never_reduces_to_zero() {
        let g = gen::chain_with_feedback(6, 3);
        let r = pipelined(&g);
        for f in 1..=4 {
            let m = KernelSchedule::sequential(&g, &r, f).maxlive().maxlive;
            assert!(m >= 1, "a graph with edges holds at least one live value");
        }
    }
}
