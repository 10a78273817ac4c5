//! The interpreter and the reference-equivalence checker.

use cred_codegen::{Guard, Inst, LoopProgram};
use cred_dfg::Dfg;
use std::collections::BTreeMap;
use std::fmt;

/// Where a fault occurred: the instruction that was executing (identified
/// by its destination node, or the register name for `Dec` faults) and the
/// loop induction value at that moment (`0` in pre/post straight-line
/// code). Attached to every runtime [`ExecError`] so fuzzer and shrinker
/// output pinpoints the failing instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Site {
    /// Node (destination array) of the executing instruction; for a
    /// register fault, the register's display name (`p1`).
    pub node: String,
    /// Loop induction variable value (`0` outside the loop).
    pub iteration: i64,
}

impl fmt::Display for Site {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "at {}, i = {}", self.node, self.iteration)
    }
}

/// Execution failure. Every variant indicates a *generator bug* (or a
/// deliberately corrupted program in tests), never a data-dependent
/// condition. Runtime faults carry the `(node, iteration, index)` of the
/// offending access via [`Site`]; post-run faults (`Incomplete`,
/// `Mismatch`) identify the element itself, whose index *is* the
/// iteration of the original recurrence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// A write landed outside `1..=n` — a guard failed to mask an overrun.
    OutOfRangeWrite {
        /// Array (original node) name.
        array: String,
        /// Offending index.
        index: i64,
        /// Executing instruction and iteration.
        at: Site,
    },
    /// An element was written twice — an instance was emitted twice.
    DoubleWrite {
        /// Array name.
        array: String,
        /// Offending index.
        index: i64,
        /// Executing instruction and iteration.
        at: Site,
    },
    /// An in-range element was read before being written — an ordering or
    /// window bug.
    UseBeforeDef {
        /// Array name.
        array: String,
        /// Offending index.
        index: i64,
        /// Executing instruction and iteration.
        at: Site,
    },
    /// A read beyond `n`.
    OutOfRangeRead {
        /// Array name.
        array: String,
        /// Offending index.
        index: i64,
        /// Executing instruction and iteration.
        at: Site,
    },
    /// A guard or decrement referenced a register never `setup`.
    UnboundRegister {
        /// Zero-based register id (displays as `p{reg+1}`).
        reg: u32,
        /// Executing instruction and iteration.
        at: Site,
    },
    /// The loop structure itself is malformed (non-positive step).
    InvalidLoop(&'static str),
    /// After execution some element of `1..=n` was never written.
    Incomplete {
        /// Array name.
        array: String,
        /// First missing index (the never-computed iteration).
        index: i64,
    },
    /// Result mismatch against the DFG reference execution.
    Mismatch {
        /// Array name.
        array: String,
        /// Iteration index.
        index: i64,
        /// Value the program computed.
        got: i64,
        /// Value the recurrence defines.
        expected: i64,
    },
    /// A fail point injected a fault (chaos testing only; never occurs in
    /// a build without the `failpoints` feature).
    Injected {
        /// The fail-point site that fired.
        site: &'static str,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::OutOfRangeWrite { array, index, at } => {
                write!(f, "out-of-range write {array}[{index}] ({at})")
            }
            ExecError::DoubleWrite { array, index, at } => {
                write!(f, "double write {array}[{index}] ({at})")
            }
            ExecError::UseBeforeDef { array, index, at } => {
                write!(f, "use before def {array}[{index}] ({at})")
            }
            ExecError::OutOfRangeRead { array, index, at } => {
                write!(f, "out-of-range read {array}[{index}] ({at})")
            }
            ExecError::UnboundRegister { reg, at } => {
                write!(f, "register p{} never setup ({at})", reg + 1)
            }
            ExecError::InvalidLoop(why) => write!(f, "malformed loop: {why}"),
            ExecError::Incomplete { array, index } => {
                write!(f, "{array}[{index}] never computed")
            }
            ExecError::Mismatch {
                array,
                index,
                got,
                expected,
            } => write!(f, "{array}[{index}] = {got}, reference says {expected}"),
            ExecError::Injected { site } => write!(f, "fault injected at {site}"),
        }
    }
}

impl std::error::Error for ExecError {}

/// Result of a successful execution.
#[derive(Debug, Clone)]
pub struct ExecResult {
    /// Final array contents: `arrays[v][i-1]` is `v`'s value at iteration
    /// `i` (`1..=n`).
    pub arrays: Vec<Vec<i64>>,
    /// Dynamically executed compute instructions (guard-enabled only).
    pub computes_executed: u64,
    /// Dynamically executed (disabled) compute instructions.
    pub computes_nullified: u64,
}

/// One differing element found by [`diff_against_reference`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MismatchCell {
    /// Array name.
    pub array: String,
    /// Iteration index (`1..=n`).
    pub index: i64,
    /// Value the program computed.
    pub got: i64,
    /// Value the recurrence defines.
    pub expected: i64,
}

impl fmt::Display for MismatchCell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] = {}, reference says {}",
            self.array, self.index, self.got, self.expected
        )
    }
}

/// Structured failure report from [`diff_against_reference`]: either the
/// program faulted mid-run, or it completed and some cells differ from the
/// reference recurrence. Unlike the single-error
/// [`check_against_reference`], a value diff lists *every* differing cell
/// (display is capped), so an oracle failure shows the full damage extent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DiffReport {
    /// Execution itself faulted.
    Exec(ExecError),
    /// Execution completed but `cells` differ from the reference.
    Values {
        /// All differing cells, in array-major order.
        cells: Vec<MismatchCell>,
    },
}

impl fmt::Display for DiffReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DiffReport::Exec(e) => write!(f, "execution fault: {e}"),
            DiffReport::Values { cells } => {
                write!(f, "{} cell(s) differ from reference", cells.len())?;
                for c in cells.iter().take(8) {
                    write!(f, "; {c}")?;
                }
                if cells.len() > 8 {
                    write!(f, "; ...")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for DiffReport {}

struct Machine<'p> {
    p: &'p LoopProgram,
    n: i64,
    cells: Vec<Vec<Option<i64>>>,
    regs: BTreeMap<u32, (i64, i64)>, // id -> (value, bound)
    executed: u64,
    nullified: u64,
}

impl<'p> Machine<'p> {
    fn new(p: &'p LoopProgram) -> Self {
        Machine {
            p,
            n: p.n as i64,
            cells: vec![vec![None; p.n as usize]; p.arrays.len()],
            regs: BTreeMap::new(),
            executed: 0,
            nullified: 0,
        }
    }

    fn array_name(&self, a: u32) -> String {
        self.p.arrays[a as usize].clone()
    }

    fn site(&self, node: u32, i: i64) -> Site {
        Site {
            node: self.array_name(node),
            iteration: i,
        }
    }

    fn guard_enabled(&self, g: &Guard, node: u32, i: i64) -> Result<bool, ExecError> {
        let &(value, bound) =
            self.regs
                .get(&g.reg.0)
                .ok_or_else(|| ExecError::UnboundRegister {
                    reg: g.reg.0,
                    at: self.site(node, i),
                })?;
        let eff = value - g.offset;
        Ok(bound < eff && eff <= 0)
    }

    fn read(&self, a: u32, idx: i64, node: u32, i: i64) -> Result<i64, ExecError> {
        if idx <= 0 {
            return Ok(0); // initial conditions, e.g. E[-3]
        }
        if idx > self.n {
            return Err(ExecError::OutOfRangeRead {
                array: self.array_name(a),
                index: idx,
                at: self.site(node, i),
            });
        }
        self.cells[a as usize][(idx - 1) as usize].ok_or_else(|| ExecError::UseBeforeDef {
            array: self.array_name(a),
            index: idx,
            at: self.site(node, i),
        })
    }

    fn write(&mut self, a: u32, idx: i64, val: i64, i: i64) -> Result<(), ExecError> {
        if !(1..=self.n).contains(&idx) {
            return Err(ExecError::OutOfRangeWrite {
                array: self.array_name(a),
                index: idx,
                at: self.site(a, i),
            });
        }
        let cell = &mut self.cells[a as usize][(idx - 1) as usize];
        if cell.is_some() {
            return Err(ExecError::DoubleWrite {
                array: self.array_name(a),
                index: idx,
                at: self.site(a, i),
            });
        }
        *cell = Some(val);
        Ok(())
    }

    fn step(&mut self, inst: &Inst, i: i64) -> Result<(), ExecError> {
        match inst {
            Inst::Setup { reg, init, bound } => {
                self.regs.insert(reg.0, (*init, *bound));
                Ok(())
            }
            Inst::Dec { reg, by } => {
                let entry =
                    self.regs
                        .get_mut(&reg.0)
                        .ok_or_else(|| ExecError::UnboundRegister {
                            reg: reg.0,
                            at: Site {
                                node: format!("p{}", reg.0 + 1),
                                iteration: i,
                            },
                        })?;
                entry.0 -= by;
                Ok(())
            }
            Inst::Compute {
                guard,
                dest,
                op,
                srcs,
            } => {
                if let Some(g) = guard {
                    if !self.guard_enabled(g, dest.array, i)? {
                        self.nullified += 1;
                        return Ok(());
                    }
                }
                let dest_idx = dest.index.eval(i, self.n);
                let mut inputs = Vec::with_capacity(srcs.len());
                for s in srcs {
                    inputs.push(self.read(s.array, s.index.eval(i, self.n), dest.array, i)?);
                }
                let val = op.eval(&inputs, dest_idx);
                self.write(dest.array, dest_idx, val, i)?;
                self.executed += 1;
                Ok(())
            }
        }
    }
}

/// Execute `p` and return the final array contents.
///
/// Fails (see [`ExecError`]) on any out-of-range or duplicate write,
/// use-before-def read, unbound register, or — after the run — any element
/// of `1..=n` left uncomputed.
pub fn execute(p: &LoopProgram) -> Result<ExecResult, ExecError> {
    let mut m = Machine::new(p);
    for inst in &p.pre {
        m.step(inst, 0)?;
    }
    if let Some(l) = &p.body {
        if l.step < 1 {
            return Err(ExecError::InvalidLoop("step must be positive"));
        }
        let mut i = l.lo;
        while i <= l.hi {
            cred_resilience::failpoint::hit(cred_resilience::failpoint::sites::VM_EXEC)
                .map_err(|e| ExecError::Injected { site: e.site })?;
            for inst in &l.body {
                m.step(inst, i)?;
            }
            if let Some(k) = l.auto_dec {
                // IA-64-style rotation: the loop branch decrements every
                // conditional register (no explicit Dec instructions).
                for entry in m.regs.values_mut() {
                    entry.0 -= k;
                }
            }
            i += l.step;
        }
    }
    for inst in &p.post {
        m.step(inst, 0)?;
    }
    // Completeness: every element written exactly once (double writes were
    // already rejected).
    for (a, col) in m.cells.iter().enumerate() {
        if let Some(missing) = col.iter().position(Option::is_none) {
            return Err(ExecError::Incomplete {
                array: p.arrays[a].clone(),
                index: missing as i64 + 1,
            });
        }
    }
    Ok(ExecResult {
        arrays: m
            .cells
            .into_iter()
            .map(|col| col.into_iter().map(Option::unwrap).collect())
            .collect(),
        computes_executed: m.executed,
        computes_nullified: m.nullified,
    })
}

/// Compare executed array contents against a reference table cell by
/// cell, collecting every differing element in array-major order. Shared
/// by the tree-walker's [`diff_against_reference`] and the tape
/// executor's [`diff_against_reference_tape`](crate::diff_against_reference_tape),
/// so both paths render identical [`DiffReport::Values`] payloads; public
/// so callers that already hold a reference table (the verification
/// oracle computes one per case, not one per program) can diff without
/// re-deriving it.
pub fn value_diff(
    g: &Dfg,
    n: usize,
    got: &[Vec<i64>],
    reference: &[Vec<i64>],
) -> Vec<MismatchCell> {
    let mut cells = Vec::new();
    for v in g.node_ids() {
        #[allow(clippy::needless_range_loop)] // two parallel tables, index is clearer
        for i in 0..n {
            let got = got[v.index()][i];
            let expected = reference[v.index()][i];
            if got != expected {
                cells.push(MismatchCell {
                    array: g.node(v).name.clone(),
                    index: i as i64 + 1,
                    got,
                    expected,
                });
            }
        }
    }
    cells
}

/// Execute `p` and compare every element with the direct recurrence
/// evaluation of `g`, reporting *all* differing cells — the structured
/// variant of [`check_against_reference`] used by the differential
/// verification oracle (`cred-verify`).
pub fn diff_against_reference(g: &Dfg, p: &LoopProgram) -> Result<ExecResult, DiffReport> {
    assert_eq!(
        g.node_count(),
        p.arrays.len(),
        "program must cover exactly the DFG's value streams"
    );
    let res = execute(p).map_err(DiffReport::Exec)?;
    let reference = g.reference_execution(p.n as usize);
    let cells = value_diff(g, p.n as usize, &res.arrays, &reference);
    if !cells.is_empty() {
        return Err(DiffReport::Values { cells });
    }
    debug_assert_eq!(
        res.computes_executed,
        g.node_count() as u64 * p.n,
        "every node must execute exactly n times"
    );
    Ok(res)
}

/// Execute `p` and compare every element with the direct recurrence
/// evaluation of `g` — the paper's correctness claims, checked.
///
/// Stops at the *first* differing cell; use [`diff_against_reference`] for
/// the full structured report. The per-node execution count (`n` fires per
/// node, Theorems 4.1/4.2/4.6) is implied by [`execute`]'s completeness
/// and double-write checks.
pub fn check_against_reference(g: &Dfg, p: &LoopProgram) -> Result<ExecResult, ExecError> {
    diff_against_reference(g, p).map_err(|d| match d {
        DiffReport::Exec(e) => e,
        DiffReport::Values { cells } => {
            let c = &cells[0];
            ExecError::Mismatch {
                array: c.array.clone(),
                index: c.index,
                got: c.got,
                expected: c.expected,
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cred_codegen::ir::{Index, LoopSpec, PredId, Ref};
    use cred_codegen::pipeline::original_program;
    use cred_dfg::{DfgBuilder, OpKind};

    fn tiny() -> Dfg {
        let mut b = DfgBuilder::new();
        let a = b.node("A", 1, OpKind::Add(1));
        let c = b.node("B", 1, OpKind::Mul(0));
        b.edge(a, c, 0);
        b.edge(c, a, 2);
        b.build().unwrap()
    }

    #[test]
    fn original_program_matches_reference() {
        let g = tiny();
        for n in [0u64, 1, 2, 5, 17] {
            let p = original_program(&g, n);
            let res = check_against_reference(&g, &p).unwrap();
            assert_eq!(res.computes_executed, 2 * n);
            assert_eq!(res.computes_nullified, 0);
        }
    }

    #[test]
    fn double_write_detected() {
        let g = tiny();
        let mut p = original_program(&g, 3);
        // Duplicate the whole body: every element written twice.
        let body = p.body.as_mut().unwrap();
        let dup = body.body.clone();
        body.body.extend(dup);
        let err = execute(&p).unwrap_err();
        match err {
            ExecError::DoubleWrite { array, index, at } => {
                // The duplicated A-instance trips first, on iteration 1,
                // and the fault site names the instruction that ran.
                assert_eq!(array, "A");
                assert_eq!(index, 1);
                assert_eq!(
                    at,
                    Site {
                        node: "A".into(),
                        iteration: 1
                    }
                );
            }
            other => panic!("expected DoubleWrite, got {other:?}"),
        }
    }

    #[test]
    fn incomplete_detected() {
        let g = tiny();
        // n = 2: A never reads an in-range B element, so dropping B's
        // instance leaves B[1..=2] missing without tripping use-before-def.
        let mut p = original_program(&g, 2);
        p.body.as_mut().unwrap().body.pop(); // drop B's instance
        assert!(matches!(execute(&p), Err(ExecError::Incomplete { .. })));
    }

    #[test]
    fn out_of_range_write_detected() {
        let g = tiny();
        let mut p = original_program(&g, 3);
        p.body.as_mut().unwrap().hi = 4; // run one iteration too many
        match execute(&p).unwrap_err() {
            ExecError::OutOfRangeWrite { array, index, at } => {
                assert_eq!(array, "A");
                assert_eq!(index, 4);
                assert_eq!(at.iteration, 4);
            }
            other => panic!("expected OutOfRangeWrite, got {other:?}"),
        }
    }

    #[test]
    fn use_before_def_detected() {
        // B reads A zero-delay but is emitted first.
        let g = tiny();
        let mut p = original_program(&g, 3);
        p.body.as_mut().unwrap().body.reverse();
        match execute(&p).unwrap_err() {
            ExecError::UseBeforeDef { array, index, at } => {
                // B's instance reads A[1] before A's instance wrote it.
                assert_eq!(array, "A");
                assert_eq!(index, 1);
                assert_eq!(
                    at,
                    Site {
                        node: "B".into(),
                        iteration: 1
                    }
                );
            }
            other => panic!("expected UseBeforeDef, got {other:?}"),
        }
    }

    #[test]
    fn non_positive_step_rejected() {
        let g = tiny();
        let mut p = original_program(&g, 3);
        p.body.as_mut().unwrap().step = 0;
        assert_eq!(
            execute(&p).unwrap_err(),
            ExecError::InvalidLoop("step must be positive")
        );
        p.body.as_mut().unwrap().step = -1;
        assert!(matches!(execute(&p), Err(ExecError::InvalidLoop(_))));
    }

    #[test]
    fn unbound_register_detected() {
        let g = tiny();
        let mut p = original_program(&g, 3);
        p.body.as_mut().unwrap().body.push(Inst::Dec {
            reg: PredId(9),
            by: 1,
        });
        assert_eq!(
            execute(&p).unwrap_err(),
            ExecError::UnboundRegister {
                reg: 9,
                at: Site {
                    node: "p10".into(),
                    iteration: 1
                }
            }
        );
    }

    #[test]
    fn guard_window_semantics() {
        // A single guarded instruction writing A[i]; register init 1,
        // bound -2, n = 5: enabled iff -2 < p <= 0 with p = 1 - (i - 1)
        // = 2 - i, i.e. i in {2, 3}. The other elements are filled by a
        // plain instruction guarded to the complement via a second window.
        let mut b = DfgBuilder::new();
        b.node("A", 1, OpKind::Input(0));
        let _ = b.build().unwrap();
        let dest = Ref {
            array: 0,
            index: Index::i_plus(0),
        };
        let guarded = Inst::Compute {
            guard: Some(Guard {
                reg: PredId(0),
                offset: 0,
            }),
            dest,
            op: OpKind::Input(0),
            srcs: vec![],
        };
        let p = LoopProgram {
            name: "t".into(),
            n: 5,
            arrays: vec!["A".into()],
            pre: vec![Inst::Setup {
                reg: PredId(0),
                init: 1,
                bound: -2,
            }],
            body: Some(LoopSpec {
                lo: 1,
                hi: 5,
                step: 1,
                body: vec![
                    guarded,
                    Inst::Dec {
                        reg: PredId(0),
                        by: 1,
                    },
                ],
                auto_dec: None,
            }),
            post: vec![],
        };
        // Only A[2], A[3] get written -> Incomplete at index 1.
        let err = execute(&p).unwrap_err();
        assert_eq!(
            err,
            ExecError::Incomplete {
                array: "A".into(),
                index: 1
            }
        );
    }

    #[test]
    fn guard_offset_shifts_window() {
        // Same as above, but a positive offset (eff = value - offset)
        // shifts the enabled window EARLIER: offset 1 gives i in {1, 2}.
        let mut b = DfgBuilder::new();
        b.node("A", 1, OpKind::Input(0));
        let _ = b.build().unwrap();
        let mk = |offset| Inst::Compute {
            guard: Some(Guard {
                reg: PredId(0),
                offset,
            }),
            dest: Ref {
                array: 0,
                index: Index::i_plus(0),
            },
            op: OpKind::Input(0),
            srcs: vec![],
        };
        let run = |offset| {
            let p = LoopProgram {
                name: "t".into(),
                n: 5,
                arrays: vec!["A".into()],
                pre: vec![Inst::Setup {
                    reg: PredId(0),
                    init: 1,
                    bound: -2,
                }],
                body: Some(LoopSpec {
                    lo: 1,
                    hi: 5,
                    step: 1,
                    body: vec![
                        mk(offset),
                        Inst::Dec {
                            reg: PredId(0),
                            by: 1,
                        },
                    ],
                    auto_dec: None,
                }),
                post: vec![],
            };
            execute(&p).unwrap_err()
        };
        // offset 0 gives window {2,3}; offset 1 (eff = p - 1) shifts it to
        // {1,2}, so the first missing element becomes 3.
        assert_eq!(
            run(1),
            ExecError::Incomplete {
                array: "A".into(),
                index: 3
            }
        );
    }

    #[test]
    fn reads_before_iteration_one_are_zero() {
        // A[i] = A[i-2] + 1 with n = 4: A = [1, 1, 2, 2].
        let mut b = DfgBuilder::new();
        let a = b.node("A", 1, OpKind::Add(1));
        b.edge(a, a, 2);
        let g = b.build().unwrap();
        let p = original_program(&g, 4);
        let res = execute(&p).unwrap();
        assert_eq!(res.arrays[0], vec![1, 1, 2, 2]);
        check_against_reference(&g, &p).unwrap();
    }

    #[test]
    fn mismatch_detected() {
        let g = tiny();
        let mut p = original_program(&g, 3);
        // Corrupt the constant of the first instruction.
        if let Some(l) = &mut p.body {
            if let Inst::Compute { op, .. } = &mut l.body[0] {
                *op = OpKind::Add(2);
            }
        }
        assert!(matches!(
            check_against_reference(&g, &p),
            Err(ExecError::Mismatch { .. })
        ));
        // The structured diff lists every differing cell of both arrays.
        match diff_against_reference(&g, &p) {
            Err(DiffReport::Values { cells }) => {
                assert!(!cells.is_empty());
                assert!(cells.iter().all(|c| c.got != c.expected));
            }
            other => panic!("expected Values diff, got {other:?}"),
        }
    }

    #[test]
    fn error_display_strings() {
        let at = Site {
            node: "A".into(),
            iteration: 5,
        };
        let e = ExecError::OutOfRangeWrite {
            array: "A".into(),
            index: 12,
            at: at.clone(),
        };
        assert_eq!(e.to_string(), "out-of-range write A[12] (at A, i = 5)");
        assert_eq!(
            ExecError::UnboundRegister { reg: 0, at }.to_string(),
            "register p1 never setup (at A, i = 5)"
        );
        let d = DiffReport::Values {
            cells: vec![MismatchCell {
                array: "B".into(),
                index: 2,
                got: 7,
                expected: 9,
            }],
        };
        assert_eq!(
            d.to_string(),
            "1 cell(s) differ from reference; B[2] = 7, reference says 9"
        );
    }
}
