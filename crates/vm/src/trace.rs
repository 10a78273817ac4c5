//! Execution tracing: reproduce Figure 3(c)-style tables showing, per loop
//! iteration, which guarded instructions fired and the conditional-register
//! values they saw.

use cred_codegen::{Inst, LoopProgram};

/// One guarded-compute event inside the loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Loop induction variable value.
    pub i: i64,
    /// Destination array id: an index into the traced program's
    /// [`arrays`](LoopProgram::arrays).
    pub array: u32,
    /// Destination element index.
    pub index: i64,
    /// Guard register value seen (minus its static offset), if guarded.
    pub guard_value: Option<i64>,
    /// Whether the instruction executed (unguarded instructions always do).
    pub enabled: bool,
}

impl TraceEvent {
    /// The destination as `Name[idx]`, named after `p`, the traced
    /// program.
    pub fn dest(&self, p: &LoopProgram) -> String {
        format!("{}[{}]", p.arrays[self.array as usize], self.index)
    }

    /// Figure 3(c) cell format: `(p)Name[idx]`, e.g. `(2)B[-1]`, named
    /// after `p`, the traced program.
    pub fn cell(&self, p: &LoopProgram) -> String {
        match self.guard_value {
            Some(v) => format!("({v}){}", self.dest(p)),
            None => self.dest(p),
        }
    }
}

/// Dry-run the loop portion of `p` (no memory, registers only) and report
/// every compute instruction's guard state per iteration. This regenerates
/// the execution-sequence tables of Figures 3(c) and 7(c).
pub fn trace_loop(p: &LoopProgram) -> Vec<TraceEvent> {
    let Some(l) = &p.body else {
        return Vec::new();
    };
    let n = p.n as i64;
    // The register file, indexed by register id: `(value, bound)` once a
    // setup has written the register, `None` before.
    let top = p
        .pre
        .iter()
        .chain(&l.body)
        .filter_map(|inst| match inst {
            Inst::Setup { reg, .. } => Some(reg.0 as usize + 1),
            _ => None,
        })
        .max()
        .unwrap_or(0);
    let mut regs: Vec<Option<(i64, i64)>> = vec![None; top];
    for inst in &p.pre {
        if let Inst::Setup { reg, init, bound } = inst {
            regs[reg.0 as usize] = Some((*init, *bound));
        }
    }
    let mut events = Vec::new();
    let mut i = l.lo;
    while i <= l.hi {
        for inst in &l.body {
            match inst {
                Inst::Setup { reg, init, bound } => {
                    regs[reg.0 as usize] = Some((*init, *bound));
                }
                Inst::Dec { reg, by } => {
                    if let Some(Some(e)) = regs.get_mut(reg.0 as usize) {
                        e.0 -= by;
                    }
                }
                Inst::Compute { guard, dest, .. } => {
                    let (guard_value, enabled) = match guard {
                        None => (None, true),
                        Some(g) => {
                            let (value, bound) = regs
                                .get(g.reg.0 as usize)
                                .copied()
                                .flatten()
                                .unwrap_or((i64::MIN, i64::MIN));
                            let eff = value - g.offset;
                            (Some(eff), bound < eff && eff <= 0)
                        }
                    };
                    events.push(TraceEvent {
                        i,
                        array: dest.array,
                        index: dest.index.eval(i, n),
                        guard_value,
                        enabled,
                    });
                }
            }
        }
        if let Some(k) = l.auto_dec {
            for e in regs.iter_mut().flatten() {
                e.0 -= k;
            }
        }
        i += l.step;
    }
    events
}

#[cfg(test)]
mod tests {
    use super::*;
    use cred_codegen::cred::cred_pipelined;
    use cred_dfg::{DfgBuilder, OpKind};
    use cred_retime::Retiming;
    use std::collections::BTreeMap;

    fn figure3() -> (cred_dfg::Dfg, Retiming) {
        let mut b = DfgBuilder::new();
        let a = b.node("A", 1, OpKind::Add(9));
        let bb = b.node("B", 1, OpKind::Mul(5));
        let c = b.node("C", 1, OpKind::Add(0));
        let d = b.node("D", 1, OpKind::Mul(0));
        let e = b.node("E", 1, OpKind::Add(30));
        b.edge(e, a, 4);
        b.edge(a, bb, 0);
        b.edge(a, c, 0);
        b.edge(bb, c, 2);
        b.edge(a, d, 0);
        b.edge(c, d, 0);
        b.edge(d, e, 0);
        (
            b.build().unwrap(),
            Retiming::from_values(vec![3, 2, 2, 1, 0]),
        )
    }

    #[test]
    fn figure3c_first_iteration() {
        // At i = -2 (first iteration), the paper's table shows guard
        // values (0)A[1], (1)B[0], (1)C[0], (2)D[-1], (3)E[-2]: only A
        // enabled.
        let (g, r) = figure3();
        let p = cred_pipelined(&g, &r, 10);
        let ev: Vec<_> = trace_loop(&p).into_iter().filter(|e| e.i == -2).collect();
        let cells: Vec<String> = ev.iter().map(|e| e.cell(&p)).collect();
        assert_eq!(
            cells,
            ["(0)A[1]", "(1)B[0]", "(1)C[0]", "(2)D[-1]", "(3)E[-2]"]
        );
        let enabled: Vec<bool> = ev.iter().map(|e| e.enabled).collect();
        assert_eq!(enabled, [true, false, false, false, false]);
    }

    #[test]
    fn figure3c_steady_state_all_enabled() {
        let (g, r) = figure3();
        let p = cred_pipelined(&g, &r, 10);
        let ev: Vec<_> = trace_loop(&p).into_iter().filter(|e| e.i == 4).collect();
        assert!(ev.iter().all(|e| e.enabled));
        // Steady-state guard values: (-4)A, (-3)B, (-3)C, (-2)D, (-1)E as
        // in the middle row of Figure 3(c) (shifted by iteration).
        let vals: Vec<i64> = ev.iter().map(|e| e.guard_value.unwrap()).collect();
        assert_eq!(vals, [-6, -5, -5, -4, -3]);
    }

    #[test]
    fn figure3c_last_iteration_only_e() {
        let (g, r) = figure3();
        let n = 10u64;
        let p = cred_pipelined(&g, &r, n);
        let ev: Vec<_> = trace_loop(&p)
            .into_iter()
            .filter(|e| e.i == n as i64)
            .collect();
        let enabled: Vec<(String, bool)> = ev.iter().map(|e| (e.dest(&p), e.enabled)).collect();
        assert_eq!(
            enabled,
            [
                ("A[13]".to_string(), false),
                ("B[12]".to_string(), false),
                ("C[12]".to_string(), false),
                ("D[11]".to_string(), false),
                ("E[10]".to_string(), true),
            ]
        );
    }

    #[test]
    fn traced_counts_match_static_schedule_lengths() {
        // Retiming stretches the loop by M_r guard-disabled iterations but
        // never changes the per-iteration schedule: the traced instruction
        // counts of the original (zero-retimed) and retimed programs must
        // both equal (static body length) x (loop trip count), and exactly
        // n copies of every node execute in each.
        let (g, r) = figure3();
        let n = 10u64;
        let nv = g.node_count() as u64;
        let zero = Retiming::from_values(vec![0; g.node_count()]);
        let orig = cred_pipelined(&g, &zero, n);
        let retimed = cred_pipelined(&g, &r, n);
        let body_len = |p: &LoopProgram| {
            p.body
                .as_ref()
                .unwrap()
                .body
                .iter()
                .filter(|i| matches!(i, Inst::Compute { .. }))
                .count() as u64
        };
        let trip_count = |p: &LoopProgram| {
            let l = p.body.as_ref().unwrap();
            ((l.hi - l.lo) / l.step + 1) as u64
        };
        assert_eq!(body_len(&orig), nv);
        assert_eq!(body_len(&retimed), nv);
        assert_eq!(trip_count(&orig), n);
        assert_eq!(trip_count(&retimed), n + r.max_value() as u64);
        for p in [&orig, &retimed] {
            let ev = trace_loop(p);
            assert_eq!(ev.len() as u64, body_len(p) * trip_count(p));
            let mut enabled: BTreeMap<u32, u64> = BTreeMap::new();
            for e in &ev {
                if e.enabled {
                    *enabled.entry(e.array).or_insert(0) += 1;
                }
            }
            assert_eq!(enabled.len() as u64, nv);
            assert!(enabled.values().all(|&c| c == n));
        }
    }

    #[test]
    fn total_enabled_counts_match_n_per_node() {
        let (g, r) = figure3();
        let n = 10u64;
        let p = cred_pipelined(&g, &r, n);
        let mut per_array: BTreeMap<u32, u64> = BTreeMap::new();
        for e in trace_loop(&p) {
            if e.enabled {
                *per_array.entry(e.array).or_insert(0) += 1;
            }
        }
        for (_, count) in per_array {
            assert_eq!(count, n);
        }
    }
}
