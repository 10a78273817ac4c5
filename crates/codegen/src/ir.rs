//! The loop intermediate representation.
//!
//! A [`LoopProgram`] is straight-line setup/prologue code, at most one
//! counted loop, and straight-line epilogue/remainder code. Instructions
//! are either guarded array computations ([`Inst::Compute`]) or the
//! conditional-register bookkeeping the CRED transformation inserts
//! ([`Inst::Setup`], [`Inst::Dec`]).
//!
//! Arrays are value streams: array `a` holds the values of original DFG
//! node `a`, indexed by original iteration `1..=n`. Reads at indices
//! `<= 0` yield the initial value `0` (the paper's `E[-3]` etc.); reads
//! beyond `n` and double or out-of-range writes are *errors* diagnosed by
//! the VM.

use cred_dfg::OpKind;
use std::fmt;

/// A conditional (predicate) register id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PredId(pub u32);

/// An iteration index expression, affine in the loop induction variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Index {
    /// A compile-time constant iteration.
    Const(i64),
    /// `n + k` — relative to the original trip count.
    NPlus(i64),
    /// `scale * i + offset` for loop induction variable `i`.
    Loop {
        /// Multiplier on the induction variable (`f` for programs whose
        /// loop advances by one *unfolded* iteration per step).
        scale: i64,
        /// Constant displacement added after scaling (encodes the copy
        /// index and retiming shift of the instance).
        offset: i64,
    },
}

impl Index {
    /// Shorthand for `i + k`.
    pub fn i_plus(k: i64) -> Index {
        Index::Loop {
            scale: 1,
            offset: k,
        }
    }

    /// Evaluate with loop variable `i` (ignored for non-loop forms) and
    /// trip count `n`.
    pub fn eval(self, i: i64, n: i64) -> i64 {
        match self {
            Index::Const(k) => k,
            Index::NPlus(k) => n + k,
            Index::Loop { scale, offset } => scale * i + offset,
        }
    }
}

/// An array element reference `array[index]`. Array ids coincide with the
/// original DFG's node indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ref {
    /// Which value stream (original DFG node index).
    pub array: u32,
    /// Which iteration of it.
    pub index: Index,
}

/// A guard `(p)` on an instruction: the instruction executes iff
/// `bound < value(p) - offset <= 0`, where `bound` is fixed at `setup`
/// time. `offset` models the hardware comparing the register against a
/// statically known copy displacement (bulk-decrement mode); it is `0` in
/// per-copy mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Guard {
    /// The conditional register tested.
    pub reg: PredId,
    /// Static displacement subtracted from the register value before the
    /// window test.
    pub offset: i64,
}

/// One instruction.
#[derive(Debug, Clone, PartialEq)]
pub enum Inst {
    /// `(guard)? dest = op(srcs)` — a compute instance.
    Compute {
        /// Optional conditional-register guard.
        guard: Option<Guard>,
        /// Destination element.
        dest: Ref,
        /// Operation (the original node's op).
        op: OpKind,
        /// Source elements, in DFG in-edge order.
        srcs: Vec<Ref>,
    },
    /// `setup p = init : bound` — initialize a conditional register and its
    /// hardware lower bound (the paper's proposed instruction, §3.2).
    Setup {
        /// Register being initialized.
        reg: PredId,
        /// Initial value.
        init: i64,
        /// Window lower bound (exclusive); the paper writes `-LC`.
        bound: i64,
    },
    /// `p = p - by` — explicit decrement.
    Dec {
        /// Register decremented.
        reg: PredId,
        /// Decrement amount (1 in per-copy mode, `f` in bulk mode).
        by: i64,
    },
}

impl Inst {
    /// Convenience constructor for an unguarded compute.
    pub fn compute(dest: Ref, op: OpKind, srcs: Vec<Ref>) -> Inst {
        Inst::Compute {
            guard: None,
            dest,
            op,
            srcs,
        }
    }
}

/// The counted loop of a program.
#[derive(Debug, Clone, PartialEq)]
pub struct LoopSpec {
    /// First value of the induction variable.
    pub lo: i64,
    /// Last admissible value (inclusive); the loop runs while `i <= hi`.
    pub hi: i64,
    /// Induction step (`1`, or `f` for unfolded loops).
    pub step: i64,
    /// Loop body.
    pub body: Vec<Inst>,
    /// Hardware auto-decrement: `Some(k)` models IA-64-style rotating
    /// stage predicates — every conditional register decreases by `k` at
    /// the end of each iteration with **no explicit decrement
    /// instructions** in the body (the rotation is performed by the loop
    /// branch, like `br.ctop`). `None` is the TI-style explicit-decrement
    /// machine the paper assumes.
    pub auto_dec: Option<i64>,
}

impl LoopSpec {
    /// Number of iterations the loop executes.
    pub fn trip_count(&self) -> u64 {
        if self.hi < self.lo {
            0
        } else {
            ((self.hi - self.lo) / self.step + 1) as u64
        }
    }
}

/// A complete loop program over the value streams of one original DFG.
#[derive(Debug, Clone, PartialEq)]
pub struct LoopProgram {
    /// Human-readable generator tag (`"pipelined"`, `"cred"`, ...).
    pub name: String,
    /// The original trip count `n` the program was generated for.
    pub n: u64,
    /// Array names (original DFG node names), indexed by array id.
    pub arrays: Vec<String>,
    /// Straight-line code before the loop (CRED setups, prologue).
    pub pre: Vec<Inst>,
    /// The loop, if any.
    pub body: Option<LoopSpec>,
    /// Straight-line code after the loop (epilogue, remainder iterations).
    pub post: Vec<Inst>,
}

impl LoopProgram {
    /// The paper's code-size metric: total instruction count — prologue +
    /// loop body (counted once) + epilogue, including `setup`/decrement
    /// instructions. Loop-control overhead is not counted (the paper counts
    /// "the number of nodes in a schedule").
    pub fn code_size(&self) -> usize {
        self.pre.len() + self.body.as_ref().map_or(0, |l| l.body.len()) + self.post.len()
    }

    /// Number of compute instructions (excludes setup/dec overhead).
    pub fn compute_count(&self) -> usize {
        let count = |insts: &[Inst]| {
            insts
                .iter()
                .filter(|i| matches!(i, Inst::Compute { .. }))
                .count()
        };
        count(&self.pre) + self.body.as_ref().map_or(0, |l| count(&l.body)) + count(&self.post)
    }

    /// Number of distinct conditional registers referenced.
    pub fn register_count(&self) -> usize {
        let mut regs = std::collections::BTreeSet::new();
        let mut scan = |insts: &[Inst]| {
            for inst in insts {
                match inst {
                    Inst::Setup { reg, .. } | Inst::Dec { reg, .. } => {
                        regs.insert(*reg);
                    }
                    Inst::Compute { guard: Some(g), .. } => {
                        regs.insert(g.reg);
                    }
                    Inst::Compute { guard: None, .. } => {}
                }
            }
        };
        scan(&self.pre);
        if let Some(l) = &self.body {
            scan(&l.body);
        }
        scan(&self.post);
        regs.len()
    }

    /// Total dynamic instruction *instances* (pre + trip_count * body +
    /// post) — a proxy for execution cost used by performance sanity
    /// checks.
    pub fn dynamic_size(&self) -> u64 {
        let body = self
            .body
            .as_ref()
            .map_or(0, |l| l.trip_count() * l.body.len() as u64);
        self.pre.len() as u64 + body + self.post.len() as u64
    }
}

impl fmt::Display for Index {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Index::Const(k) => write!(f, "{k}"),
            Index::NPlus(0) => write!(f, "n"),
            Index::NPlus(k) if k > 0 => write!(f, "n+{k}"),
            Index::NPlus(k) => write!(f, "n{k}"),
            Index::Loop {
                scale: 1,
                offset: 0,
            } => write!(f, "i"),
            Index::Loop { scale: 1, offset } if offset > 0 => write!(f, "i+{offset}"),
            Index::Loop { scale: 1, offset } => write!(f, "i{offset}"),
            Index::Loop { scale, offset: 0 } => write!(f, "{scale}i"),
            Index::Loop { scale, offset } if offset > 0 => write!(f, "{scale}i+{offset}"),
            Index::Loop { scale, offset } => write!(f, "{scale}i{offset}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_eval() {
        assert_eq!(Index::Const(5).eval(99, 7), 5);
        assert_eq!(Index::NPlus(-2).eval(99, 7), 5);
        assert_eq!(Index::i_plus(3).eval(4, 7), 7);
        assert_eq!(
            Index::Loop {
                scale: 3,
                offset: 1
            }
            .eval(4, 7),
            13
        );
    }

    #[test]
    fn index_display() {
        assert_eq!(Index::Const(3).to_string(), "3");
        assert_eq!(Index::NPlus(0).to_string(), "n");
        assert_eq!(Index::NPlus(2).to_string(), "n+2");
        assert_eq!(Index::NPlus(-1).to_string(), "n-1");
        assert_eq!(Index::i_plus(0).to_string(), "i");
        assert_eq!(Index::i_plus(4).to_string(), "i+4");
        assert_eq!(Index::i_plus(-2).to_string(), "i-2");
        assert_eq!(
            Index::Loop {
                scale: 3,
                offset: 2
            }
            .to_string(),
            "3i+2"
        );
    }

    #[test]
    fn loop_trip_count() {
        let mk = |lo, hi, step| LoopSpec {
            lo,
            hi,
            step,
            body: vec![],
            auto_dec: None,
        };
        assert_eq!(mk(1, 10, 1).trip_count(), 10);
        assert_eq!(mk(1, 10, 3).trip_count(), 4); // 1,4,7,10
        assert_eq!(mk(1, 9, 3).trip_count(), 3); // 1,4,7
        assert_eq!(mk(5, 4, 1).trip_count(), 0);
        assert_eq!(mk(-2, 0, 1).trip_count(), 3);
    }

    #[test]
    fn code_size_counts_everything_once() {
        let c = Inst::compute(
            Ref {
                array: 0,
                index: Index::Const(1),
            },
            OpKind::Add(0),
            vec![],
        );
        let p = LoopProgram {
            name: "t".into(),
            n: 10,
            arrays: vec!["A".into()],
            pre: vec![
                Inst::Setup {
                    reg: PredId(0),
                    init: 0,
                    bound: -10,
                },
                c.clone(),
            ],
            body: Some(LoopSpec {
                lo: 1,
                hi: 10,
                step: 1,
                body: vec![
                    c.clone(),
                    Inst::Dec {
                        reg: PredId(0),
                        by: 1,
                    },
                ],
                auto_dec: None,
            }),
            post: vec![c],
        };
        assert_eq!(p.code_size(), 5);
        assert_eq!(p.compute_count(), 3);
        assert_eq!(p.register_count(), 1);
        assert_eq!(p.dynamic_size(), 2 + 10 * 2 + 1);
    }

    #[test]
    fn register_count_sees_guards() {
        let guarded = Inst::Compute {
            guard: Some(Guard {
                reg: PredId(7),
                offset: 2,
            }),
            dest: Ref {
                array: 0,
                index: Index::i_plus(0),
            },
            op: OpKind::Add(0),
            srcs: vec![],
        };
        let p = LoopProgram {
            name: "t".into(),
            n: 1,
            arrays: vec!["A".into()],
            pre: vec![],
            body: Some(LoopSpec {
                lo: 1,
                hi: 1,
                step: 1,
                body: vec![guarded],
                auto_dec: None,
            }),
            post: vec![],
        };
        assert_eq!(p.register_count(), 1);
    }
}
