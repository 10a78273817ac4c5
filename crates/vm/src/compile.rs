//! The tape compiler: lower a [`LoopProgram`] once into a flat,
//! preresolved [`Tape`] and execute that instead of tree-walking.
//!
//! The tree-walking interpreter in [`machine`](crate::machine) re-decides
//! everything on every instruction instance: it matches on the [`Inst`]
//! enum, evaluates [`Index`] expressions through a `match`, looks guard
//! registers up in a `BTreeMap`, and allocates a fresh input vector per
//! compute. None of that depends on data — a `LoopProgram` is straight
//! line code around one counted loop, its index expressions are affine in
//! the induction variable, and the conditional-register state (the CRED
//! guards) is a pure function of the iteration number. So the compiler
//! resolves all of it ahead of time:
//!
//! * **operand slots** — every `array[index]` reference becomes a
//!   `(base, scale, offset)` triple over one flat value buffer, where
//!   `base` is the array's precomputed dense range and the element index
//!   is `scale * i + offset` (straight-line indices fold to constants);
//! * **guard windows** — the register bookkeeping (`setup`, `dec`,
//!   auto-decrement) is evaluated at compile time. When every register
//!   the loop reads is set up before the loop and falls by a constant per
//!   iteration (every generated program), each guarded loop instruction
//!   is enabled on exactly one **window** `t0..=t1` of iteration indices,
//!   solved in closed form. `setup`/`dec` instructions vanish from the
//!   tape entirely;
//! * **chunk boundaries** — prologue, kernel, and epilogue are ranges
//!   into one flat instruction vector, with the loop's trip count and
//!   the dynamic execute/nullify totals precomputed.
//!
//! Before it drops the tree-walker's runtime checks, the compiler proves
//! them redundant ([`prove_clean`]): every write lands once in range,
//! every read is of an earlier write or of the zero history, and every
//! element gets written. A compiled [`Tape::execute`] is then a
//! branch-light loop: per instance, two multiply-adds for the indices, a
//! window compare for the guard, gather, evaluate, store.
//!
//! Every other program keeps a copy of itself in its [`Tape`] and runs
//! on the reference tree-walker [`execute`](crate::execute): one with a
//! register fault the lowering sees, a guard with no affine window (a
//! `setup` inside the loop), a non-positive step, or a discipline
//! violation the proof cannot rule out. [`Tape::preverified`] tells the
//! two apart. Either way the tape returns the same
//! [`ExecResult`]/[`ExecError`] values as [`execute`](crate::execute) —
//! bit-for-bit, which `cross_check_executors` and the differential
//! proptests in `tests/tape_prop.rs` enforce.
//!
//! The compiler itself is a fail-point site
//! ([`sites::VM_COMPILE`](cred_resilience::failpoint::sites::VM_COMPILE)),
//! so `credc chaos` injects faults into the lowering step too.

use crate::machine::{DiffReport, ExecError, ExecResult};
use cred_codegen::{Guard, Index, Inst, LoopProgram};
use cred_dfg::{Dfg, OpKind};
use cred_resilience::failpoint;
use std::collections::BTreeMap;
use std::ops::Range;

/// A preresolved operand: the element index at induction value `i` is
/// `scale * i + offset`, and the element's dense slot in the flat value
/// buffer is `base + index - 1`.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// Original array id (the discipline proof's class key).
    array: u32,
    /// First slot of the array's range in the flat buffer.
    base: usize,
    /// Multiplier on the induction variable (0 for straight-line code).
    scale: i64,
    /// Constant displacement (`n`-relative indices are folded here).
    offset: i64,
}

/// When a tape instruction executes.
#[derive(Debug, Clone, Copy)]
enum Enable {
    /// Unguarded (or straight-line and guard-enabled): every time.
    Always,
    /// Guarded loop instruction: enabled exactly on the iteration
    /// interval `t0..=t1` (empty if `t0 > t1`). The executor compares
    /// against the interval and the discipline proof sweeps it.
    Window(u64, u64),
}

/// One preresolved compute instance. `setup`/`dec` never reach the tape.
#[derive(Debug, Clone)]
struct TapeInst {
    dest: Slot,
    op: OpKind,
    /// `(start, len)` into [`Compiled::srcs`].
    srcs: (u32, u32),
    enable: Enable,
}

/// The kernel chunk.
#[derive(Debug, Clone)]
struct BodyChunk {
    insts: Range<usize>,
    lo: i64,
    step: i64,
    trip: u64,
}

/// A program lowered to schedule order with operands, guard windows,
/// and chunk boundaries resolved.
#[derive(Debug, Clone)]
struct Compiled {
    n: i64,
    /// Number of value arrays; array `a` holds slots `a*n..(a+1)*n`.
    arrays: usize,
    insts: Vec<TapeInst>,
    srcs: Vec<Slot>,
    pre: Range<usize>,
    body: Option<BodyChunk>,
    post: Range<usize>,
    /// Dynamic counts of the run, precomputed.
    executed: u64,
    nullified: u64,
    max_srcs: usize,
}

/// A [`LoopProgram`] ready to run: the compiled tape when the program
/// lowers and the discipline proof accepts it, else the program itself
/// for the reference tree-walker. Build with [`compile`], run with
/// [`Tape::execute`].
#[derive(Debug, Clone)]
pub struct Tape(Tier);

#[derive(Debug, Clone)]
enum Tier {
    /// Lowered and proved free of discipline faults.
    Compiled(Compiled),
    /// Not lowerable, or not proved clean: runs on
    /// [`execute`](crate::execute).
    Reference(LoopProgram),
}

impl Tape {
    /// Whether the program compiled, i.e. whether [`Tape::execute`] runs
    /// the unchecked tape loop rather than the reference tree-walker.
    /// Generated programs (one uniform index stride, registers set up
    /// before the loop) always compile; hand-mutated programs with real
    /// faults never do, and neither do programs with a guard that has no
    /// affine window.
    pub fn preverified(&self) -> bool {
        matches!(self.0, Tier::Compiled(_))
    }

    /// Execute the tape. Same result, same faults as
    /// [`execute`](crate::execute) on the program this was compiled from.
    pub fn execute(&self) -> Result<ExecResult, ExecError> {
        match &self.0 {
            Tier::Compiled(c) => c.execute(),
            Tier::Reference(p) => crate::machine::execute(p),
        }
    }
}

/// Compile-time lowering state.
struct Compiler {
    n: i64,
    insts: Vec<TapeInst>,
    srcs: Vec<Slot>,
    /// Dense conditional-register file: `reg_index[id]` -> slot,
    /// `regs[slot]` is `Some((value, bound))` once `setup`.
    reg_index: BTreeMap<u32, usize>,
    regs: Vec<Option<(i64, i64)>>,
    executed: u64,
    nullified: u64,
    max_srcs: usize,
}

/// One register-relevant instruction of the kernel, in body order, for
/// the compile-time window solve.
enum SimStep {
    Dec {
        slot: usize,
        by: i64,
    },
    Guard {
        slot: usize,
        offset: i64,
        /// Tape instructions emitted before this one in the body.
        pos: usize,
    },
}

impl Compiler {
    fn new(p: &LoopProgram) -> Self {
        // Dense register slots: every id mentioned anywhere in the
        // program, in id order.
        let mut reg_index = BTreeMap::new();
        let mut scan = |insts: &[Inst]| {
            for inst in insts {
                match inst {
                    Inst::Setup { reg, .. } | Inst::Dec { reg, .. } => {
                        let next = reg_index.len();
                        reg_index.entry(reg.0).or_insert(next);
                    }
                    Inst::Compute { guard: Some(g), .. } => {
                        let next = reg_index.len();
                        reg_index.entry(g.reg.0).or_insert(next);
                    }
                    Inst::Compute { guard: None, .. } => {}
                }
            }
        };
        scan(&p.pre);
        if let Some(l) = &p.body {
            scan(&l.body);
        }
        scan(&p.post);
        let regs = vec![None; reg_index.len()];
        Compiler {
            n: p.n as i64,
            insts: Vec::new(),
            srcs: Vec::new(),
            reg_index,
            regs,
            executed: 0,
            nullified: 0,
            max_srcs: 0,
        }
    }

    fn reg_slot(&self, id: u32) -> usize {
        self.reg_index[&id]
    }

    /// The dense slot of register `id`, or `None` if it was never
    /// `setup` (the tree-walker's `UnboundRegister` fault).
    fn bound_slot(&self, id: u32) -> Option<usize> {
        let slot = self.reg_slot(id);
        self.regs[slot].map(|_| slot)
    }

    fn resolve(&self, r: &cred_codegen::Ref) -> Slot {
        let (scale, offset) = match r.index {
            Index::Const(k) => (0, k),
            Index::NPlus(k) => (0, self.n + k),
            Index::Loop { scale, offset } => (scale, offset),
        };
        Slot {
            array: r.array,
            base: r.array as usize * self.n as usize,
            scale,
            offset,
        }
    }

    fn emit(
        &mut self,
        dest: &cred_codegen::Ref,
        op: OpKind,
        srcs: &[cred_codegen::Ref],
        enable: Enable,
    ) {
        let start = self.srcs.len() as u32;
        for s in srcs {
            let slot = self.resolve(s);
            self.srcs.push(slot);
        }
        self.max_srcs = self.max_srcs.max(srcs.len());
        self.insts.push(TapeInst {
            dest: self.resolve(dest),
            op,
            srcs: (start, srcs.len() as u32),
            enable,
        });
    }

    /// The tree-walker's guard test against the simulated register file;
    /// `None` on an unbound register.
    fn guard_enabled(&self, g: &Guard) -> Option<bool> {
        let (value, bound) = self.regs[self.reg_slot(g.reg.0)]?;
        let eff = value - g.offset;
        Some(bound < eff && eff <= 0)
    }

    /// Lower one straight-line (pre/post) instruction at `i = 0`.
    /// Guard-disabled computes are dropped (counted as nullified).
    /// `None` on a register fault.
    fn lower_straight(&mut self, inst: &Inst) -> Option<()> {
        match inst {
            Inst::Setup { reg, init, bound } => {
                let slot = self.reg_slot(reg.0);
                self.regs[slot] = Some((*init, *bound));
            }
            Inst::Dec { reg, by } => {
                let slot = self.reg_slot(reg.0);
                self.regs[slot].as_mut()?.0 -= by;
            }
            Inst::Compute {
                guard,
                dest,
                op,
                srcs,
            } => {
                if let Some(g) = guard {
                    if !self.guard_enabled(g)? {
                        self.nullified += 1;
                        return Some(());
                    }
                }
                self.emit(dest, *op, srcs, Enable::Always);
                self.executed += 1;
            }
        }
        Some(())
    }

    /// Lower the kernel: emit every compute once and give each guarded
    /// one its enabled window. `None` when some guard has no affine
    /// window: a `setup` inside the loop, or a `dec` or guard over a
    /// register nothing set up before it (a fault the tree-walker
    /// reports at its exact site).
    fn lower_body(&mut self, l: &cred_codegen::LoopSpec) -> Option<BodyChunk> {
        let start = self.insts.len();
        let trip = l.trip_count();
        if trip > 0 {
            let mut steps = Vec::new();
            let mut plain = 0u64;
            for inst in &l.body {
                let pos = self.insts.len() - start;
                match inst {
                    Inst::Setup { .. } => return None,
                    Inst::Dec { reg, by } => steps.push(SimStep::Dec {
                        slot: self.bound_slot(reg.0)?,
                        by: *by,
                    }),
                    Inst::Compute {
                        guard,
                        dest,
                        op,
                        srcs,
                    } => {
                        let enable = match guard {
                            None => {
                                plain += 1;
                                Enable::Always
                            }
                            Some(g) => {
                                steps.push(SimStep::Guard {
                                    slot: self.bound_slot(g.reg.0)?,
                                    offset: g.offset,
                                    pos,
                                });
                                Enable::Window(1, 0) // solved below
                            }
                        };
                        self.emit(dest, *op, srcs, enable);
                    }
                }
            }
            self.executed += plain * trip;
            self.solve_windows(l, &steps, trip, start)?;
        }
        Some(BodyChunk {
            insts: start..self.insts.len(),
            lo: l.lo,
            step: l.step,
            trip,
        })
    }

    /// With no `setup` inside the loop and every register bound, each
    /// register falls by a constant per iteration, so its value is affine
    /// in the iteration index and every guard's enabled set is one
    /// contiguous `t`-interval, solved in O(1) and committed as an
    /// [`Enable::Window`]. `None` when a guarded register grows, or when
    /// a register value could leave `i64` range (the tree-walker is the
    /// authority on wrap-around).
    fn solve_windows(
        &mut self,
        l: &cred_codegen::LoopSpec,
        steps: &[SimStep],
        trip: u64,
        start: usize,
    ) -> Option<()> {
        // The per-iteration decrement of every register.
        let mut per_iter = vec![l.auto_dec.unwrap_or(0) as i128; self.regs.len()];
        for step in steps {
            if let SimStep::Dec { slot, by } = *step {
                per_iter[slot] += by as i128;
            }
        }
        let last = (trip - 1) as i128;
        let mut seen = vec![0i128; self.regs.len()]; // decrements before the current step
        for step in steps {
            match *step {
                SimStep::Dec { slot, by } => seen[slot] += by as i128,
                SimStep::Guard { slot, offset, pos } => {
                    let (value, bound) = self.regs[slot]?;
                    let d = per_iter[slot];
                    if d < 0 {
                        return None;
                    }
                    // eff(t) = e0 - d*t; enabled iff bound < eff(t) <= 0.
                    let e0 = value as i128 - seen[slot] - offset as i128;
                    if e0.checked_sub(d.checked_mul(last)?)? < i64::MIN as i128
                        || e0 > i64::MAX as i128
                    {
                        return None;
                    }
                    let b = bound as i128;
                    let (t0, t1) = if d == 0 {
                        if b < e0 && e0 <= 0 {
                            (0, last)
                        } else {
                            (0, -1)
                        }
                    } else {
                        // eff(t) <= 0  <=>  t >= e0/d (ceil);
                        // eff(t) > b   <=>  t < (e0-b)/d (strict), i.e.
                        //                   t <= ceil((e0-b)/d) - 1.
                        let (q0, r0) = divmod(e0, d);
                        let t0 = q0 + i128::from(r0 != 0);
                        let (q1, r1) = divmod(e0 - b, d);
                        let t1 = q1 + i128::from(r1 != 0) - 1;
                        (t0.max(0), t1.min(last))
                    };
                    let (t0, t1) = if t0 <= t1 {
                        (t0 as u64, t1 as u64)
                    } else {
                        (1, 0) // empty interval
                    };
                    self.insts[start + pos].enable = Enable::Window(t0, t1);
                    let len = if t0 <= t1 { t1 - t0 + 1 } else { 0 };
                    self.executed += len;
                    self.nullified += trip - len;
                }
            }
        }
        // Final register values, for the post chunk's guards.
        for (slot, entry) in self.regs.iter_mut().enumerate() {
            if let Some((value, _)) = entry {
                let end =
                    (*value as i128).checked_sub(per_iter[slot].checked_mul(trip as i128)?)?;
                *value = i64::try_from(end).ok()?;
            }
        }
        Some(())
    }
}

/// Lower `p`, or `None` when it has no tape form: a register fault in
/// straight-line code, a non-positive step, or a loop guard with no
/// affine window (see [`Compiler::lower_body`]).
fn lower(p: &LoopProgram) -> Option<Compiled> {
    let mut c = Compiler::new(p);
    for inst in &p.pre {
        c.lower_straight(inst)?;
    }
    let pre = 0..c.insts.len();
    let body = match &p.body {
        Some(l) if l.step < 1 => return None,
        Some(l) => Some(c.lower_body(l)?),
        None => None,
    };
    let post_start = c.insts.len();
    for inst in &p.post {
        c.lower_straight(inst)?;
    }
    Some(Compiled {
        n: c.n,
        arrays: p.arrays.len(),
        pre,
        body,
        post: post_start..c.insts.len(),
        insts: c.insts,
        srcs: c.srcs,
        executed: c.executed,
        nullified: c.nullified,
        max_srcs: c.max_srcs,
    })
}

// --- Compile-time discipline proof --------------------------------------
//
// Everything the tree-walker polices — write ranges, single assignment,
// use-before-def order, completeness — is data-independent: a property
// of the affine index expressions and the guard windows alone. When
// every loop-varying reference in the body shares one index stride
// `d = scale * step` (true for every generated program), the elements of
// each array split into `d` independent residue classes, and each body
// instruction maps its enabled window `t0..=t1` onto one contiguous run
// of positions in one class by a constant shift. The whole discipline
// then reduces to interval algebra:
//
// * a write collision is an overlap between two writer runs of one
//   class, or a run holding a straight-line write;
// * a read at iteration `t` is covered exactly when some writer's run,
//   shifted by the difference of the two slot shifts, contains `t` —
//   and the sign of that difference alone decides whether the writing
//   instance comes earlier, so one sorted sweep per source settles its
//   whole read window;
// * completeness is a counting identity: with no collisions and no
//   out-of-range writes, "every element written" is exactly
//   "executed computes == arrays * n".
//
// The proof is one-sided. `true` guarantees the tree-walker cannot fault
// on the program, so the tape may run without checks; `false` only means
// the tape keeps the program and runs the tree-walker, which raises any
// real fault at its exact site. All index arithmetic here is `i128` so
// the proof reasons about true values; in-range conclusions transfer to
// the executor's `i64` arithmetic because wrapping ops agree with true
// arithmetic whenever the true value fits.

/// One interval-form body writer: `(class, body index, shift, p0, p1)`.
type IntervalWriter = ((u32, i128), usize, i128, i128, i128);

/// Try to prove no [`ExecError`] is reachable. See the comment block
/// above for the method; `false` is always safe.
fn prove_clean(tape: &Compiled) -> bool {
    let n = tape.n as i128;
    // Completeness, assuming the rest of the proof lands: every executed
    // compute writes exactly one distinct in-range element.
    if tape.executed != tape.arrays as u64 * tape.n as u64 {
        return false;
    }

    let (trip, lo, step, binsts): (u64, i64, i64, &[TapeInst]) = match &tape.body {
        Some(b) => (b.trip, b.lo, b.step, &tape.insts[b.insts.clone()]),
        None => (0, 0, 1, &[]),
    };
    // One uniform stride across every loop-varying slot in the body.
    let mut scale: Option<i64> = None;
    for inst in binsts {
        if inst.dest.scale == 0 {
            return false; // a fixed-slot dest is written every iteration
        }
        for s in std::iter::once(&inst.dest).chain(tape.src_slots(inst)) {
            match (s.scale, scale) {
                (0, _) => {}
                (sc, None) => scale = Some(sc),
                (sc, Some(u)) if sc == u => {}
                _ => return false,
            }
        }
    }
    let su = match scale {
        Some(s) if s >= 1 => s as i128,
        Some(_) => return false,
        None => 1,
    };
    let d = su * step as i128; // step >= 1 whenever a body exists
    if d < 1 {
        return false;
    }
    prove_clean_intervals(tape, n, trip, lo, binsts, d)
}

/// `(div_euclid, rem_euclid)` in one step, with a shift/mask fast path
/// for power-of-two divisors. `d` is `stride * step` in practice —
/// almost always 1, 2, or 4 — and `i128` software division is the
/// single most expensive operation in the proof.
#[inline]
fn divmod(a: i128, d: i128) -> (i128, i128) {
    debug_assert!(d > 0);
    if d & (d - 1) == 0 {
        // Arithmetic shift is floor division; the mask is the
        // non-negative Euclidean remainder (two's complement).
        (a >> d.trailing_zeros(), a & (d - 1))
    } else {
        (a.div_euclid(d), a.rem_euclid(d))
    }
}

/// The interval sweep: with every body enabled-set a contiguous
/// `t`-interval, each instruction's touched elements form one contiguous
/// run of positions inside its residue class, and the whole discipline
/// is a handful of interval comparisons and one sorted sweep per source.
fn prove_clean_intervals(
    tape: &Compiled,
    n: i128,
    trip: u64,
    lo: i64,
    binsts: &[TapeInst],
    d: i128,
) -> bool {
    // (array, residue, position) of every straight-line write, pre chunk
    // first. Straight-line chunks are small; linear scans beat building
    // maps.
    let mut points: Vec<(u32, i128, i128)> = Vec::new();
    let key = |array: u32, idx: i128| {
        let (q, r) = divmod(idx, d);
        (array, r, q)
    };
    for inst in &tape.insts[tape.pre.clone()] {
        for s in tape.src_slots(inst) {
            let idx = s.offset as i128; // i = 0
            if idx <= 0 {
                continue; // reads as zero
            }
            if idx > n || !points.contains(&key(s.array, idx)) {
                return false;
            }
        }
        let idx = inst.dest.offset as i128;
        if !(1..=n).contains(&idx) {
            return false;
        }
        let p = key(inst.dest.array, idx);
        if points.contains(&p) {
            return false;
        }
        points.push(p);
    }

    // Body writers: per instruction one position interval
    // `[t0 + shift, t1 + shift]` in class `(array, residue)`.
    let mut writers: Vec<IntervalWriter> = Vec::new();
    for (k, inst) in binsts.iter().enumerate() {
        let (t0, t1) = window_of(inst, trip);
        if t0 > t1 {
            continue; // never enabled: writes nothing
        }
        let c = inst.dest.scale as i128 * lo as i128 + inst.dest.offset as i128;
        // idx(t) = d*t + c is increasing in t, so the extremes bound all
        // enabled writes.
        if d * t0 as i128 + c < 1 || d * t1 as i128 + c > n {
            return false;
        }
        let (s, r) = divmod(c, d);
        writers.push(((inst.dest.array, r), k, s, t0 as i128 + s, t1 as i128 + s));
    }
    // Single assignment: no two writer runs of one class may overlap,
    // and none may hit a pre-written point.
    for (i, &(cls, _, _, p0, p1)) in writers.iter().enumerate() {
        for &(cls2, _, _, q0, q1) in &writers[..i] {
            if cls == cls2 && p0 <= q1 && q0 <= p1 {
                return false;
            }
        }
        if points
            .iter()
            .any(|&(a, r, p)| (a, r) == cls && (p0..=p1).contains(&p))
        {
            return false;
        }
    }

    // Body readers: every enabled read must be in range (or <= 0, which
    // reads as zero) and covered by the pre chunk or an earlier writing
    // instance. Coverage candidates, mapped into the reader's own
    // iteration space, are intervals; a sorted sweep decides inclusion.
    let mut cover: Vec<(i128, i128)> = Vec::new();
    for (j, inst) in binsts.iter().enumerate() {
        let (t0, t1) = window_of(inst, trip);
        if t0 > t1 {
            continue;
        }
        for src in tape.src_slots(inst) {
            if src.scale == 0 {
                let idx = src.offset as i128;
                if idx <= 0 {
                    continue;
                }
                // A fixed slot read every iteration: require it written
                // before the loop.
                if idx > n || !points.contains(&key(src.array, idx)) {
                    return false;
                }
                continue;
            }
            let c = src.scale as i128 * lo as i128 + src.offset as i128;
            // The executors evaluate this index in `i64`; require the
            // enabled extremes (the index is monotone in `t`) to fit, so
            // wrapped arithmetic agrees with the true values this proof
            // reasons about. Write indices are already forced into
            // `1..=n` above.
            if d * t0 as i128 + c < i64::MIN as i128 || d * t1 as i128 + c > i64::MAX as i128 {
                return false;
            }
            // idx(t) in 1..=n exactly for t in [t_lo, t_hi].
            let num = 1 - c;
            let (q, rm) = divmod(num, d);
            let t_lo = q + i128::from(rm != 0);
            let t_hi = divmod(n - c, d).0;
            if t1 as i128 > t_hi {
                return false; // enabled past t_hi: an out-of-range read
            }
            let rlo = (t0 as i128).max(t_lo);
            let rhi = t1 as i128;
            if rlo > rhi {
                continue; // whole window reads zeros
            }
            let (sh, r) = divmod(c, d);
            // Candidate cover, in reader iteration space: a position `p`
            // covers iteration `t = p - sh`. A body writer counts only
            // if its instances come first: distance `delta = sh - s`
            // strictly negative, or zero with the writer ahead in the
            // body.
            cover.clear();
            for &(cls, k, s, p0, p1) in &writers {
                if cls != (src.array, r) {
                    continue;
                }
                let delta = sh - s;
                if delta < 0 || (delta == 0 && k < j) {
                    cover.push((p0 - sh, p1 - sh));
                }
            }
            for &(a, pr, p) in &points {
                if (a, pr) == (src.array, r) {
                    cover.push((p - sh, p - sh));
                }
            }
            cover.sort_unstable();
            let mut next = rlo;
            for &(a, b) in cover.iter() {
                if a > next {
                    break;
                }
                next = next.max(b + 1);
            }
            if next <= rhi {
                return false;
            }
        }
    }

    // Post chunk, sequentially, over everything written so far.
    let covered = |points: &[(u32, i128, i128)], cls: (u32, i128), p: i128| {
        points.iter().any(|&(a, r, q)| (a, r) == cls && q == p)
            || writers
                .iter()
                .any(|&(wcls, _, _, p0, p1)| wcls == cls && (p0..=p1).contains(&p))
    };
    for inst in &tape.insts[tape.post.clone()] {
        for s in tape.src_slots(inst) {
            let idx = s.offset as i128;
            if idx <= 0 {
                continue;
            }
            let (a, r, p) = key(s.array, idx);
            if idx > n || !covered(&points, (a, r), p) {
                return false;
            }
        }
        let idx = inst.dest.offset as i128;
        if !(1..=n).contains(&idx) {
            return false;
        }
        let (a, r, p) = key(inst.dest.array, idx);
        if covered(&points, (a, r), p) {
            return false;
        }
        points.push((a, r, p));
    }
    true
}

/// The enabled iteration interval of a body instruction (empty when
/// `t0 > t1`); `trip` must be nonzero.
fn window_of(inst: &TapeInst, trip: u64) -> (u64, u64) {
    match inst.enable {
        Enable::Always => (0, trip - 1),
        Enable::Window(t0, t1) => (t0, t1),
    }
}

/// Lower `p` into a [`Tape`]: the compiled form when every loop guard has
/// an affine window and the discipline proof goes through, else a copy of
/// `p` for the tree-walker. Pure except for the
/// [`VM_COMPILE`](failpoint::sites::VM_COMPILE) fail-point site at entry
/// (chaos testing); the only error is an injected one.
pub fn compile(p: &LoopProgram) -> Result<Tape, ExecError> {
    failpoint::hit(failpoint::sites::VM_COMPILE)
        .map_err(|e| ExecError::Injected { site: e.site })?;
    Ok(Tape(match lower(p).filter(prove_clean) {
        Some(c) => Tier::Compiled(c),
        None => Tier::Reference(p.clone()),
    }))
}

impl Compiled {
    fn src_slots(&self, inst: &TapeInst) -> &[Slot] {
        let (start, len) = inst.srcs;
        &self.srcs[start as usize..(start + len) as usize]
    }

    fn extract(&self, vals: &[i64]) -> Vec<Vec<i64>> {
        let n = self.n as usize;
        (0..self.arrays)
            .map(|a| {
                let base = a * n;
                vals[base..base + n].to_vec()
            })
            .collect()
    }

    /// One instance with no discipline checks — the proof already ruled
    /// every fault out.
    #[inline]
    fn step(&self, vals: &mut [i64], inputs: &mut Vec<i64>, inst: &TapeInst, i: i64) {
        let dest_idx = inst.dest.scale * i + inst.dest.offset;
        inputs.clear();
        for s in self.src_slots(inst) {
            let idx = s.scale * i + s.offset;
            inputs.push(if idx <= 0 {
                0 // initial conditions, e.g. E[-3]
            } else {
                vals[s.base + (idx - 1) as usize]
            });
        }
        vals[inst.dest.base + (dest_idx - 1) as usize] = inst.op.eval(inputs, dest_idx);
    }

    /// Gather, evaluate, store, with none of the tree-walker's discipline
    /// checks. The value buffer and the input scratch vector are
    /// allocated once per run, where the tree-walker allocates an input
    /// vector per compute instance.
    fn execute(&self) -> Result<ExecResult, ExecError> {
        let mut vals = vec![0i64; self.arrays * self.n as usize];
        let mut inputs: Vec<i64> = Vec::with_capacity(self.max_srcs);
        for inst in &self.insts[self.pre.clone()] {
            self.step(&mut vals, &mut inputs, inst, 0);
        }
        if let Some(b) = &self.body {
            let insts = &self.insts[b.insts.clone()];
            let mut i = b.lo;
            for t in 0..b.trip {
                failpoint::hit(failpoint::sites::VM_EXEC)
                    .map_err(|e| ExecError::Injected { site: e.site })?;
                for inst in insts {
                    if let Enable::Window(t0, t1) = inst.enable {
                        if t < t0 || t > t1 {
                            continue;
                        }
                    }
                    self.step(&mut vals, &mut inputs, inst, i);
                }
                i += b.step;
            }
        }
        for inst in &self.insts[self.post.clone()] {
            self.step(&mut vals, &mut inputs, inst, 0);
        }
        Ok(ExecResult {
            arrays: self.extract(&vals),
            computes_executed: self.executed,
            computes_nullified: self.nullified,
        })
    }
}

/// [`compile`] then [`Tape::execute`] — the drop-in fast path for
/// [`execute`](crate::execute).
pub fn execute_tape(p: &LoopProgram) -> Result<ExecResult, ExecError> {
    compile(p)?.execute()
}

/// [`diff_against_reference`](crate::diff_against_reference) on the tape
/// path: execute `p` through the compiler and compare every element with
/// the direct recurrence evaluation of `g`.
pub fn diff_against_reference_tape(g: &Dfg, p: &LoopProgram) -> Result<ExecResult, DiffReport> {
    assert_eq!(
        g.node_count(),
        p.arrays.len(),
        "program must cover exactly the DFG's value streams"
    );
    let res = execute_tape(p).map_err(DiffReport::Exec)?;
    let reference = g.reference_execution(p.n as usize);
    let cells = crate::machine::value_diff(g, p.n as usize, &res.arrays, &reference);
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

/// Compare the tree-walker and the tape executor on one program,
/// bit-for-bit: identical results on success, identical errors on
/// failure. `Err` carries a rendered divergence — any divergence is a
/// compiler bug.
pub fn cross_check_executors(p: &LoopProgram) -> Result<(), String> {
    let tree = crate::machine::execute(p);
    let tape = execute_tape(p);
    match (&tree, &tape) {
        (Ok(a), Ok(b)) => {
            if a.arrays != b.arrays {
                return Err(format!(
                    "value divergence: tree {:?}, tape {:?}",
                    a.arrays, b.arrays
                ));
            }
            if (a.computes_executed, a.computes_nullified)
                != (b.computes_executed, b.computes_nullified)
            {
                return Err(format!(
                    "count divergence: tree {}/{}, tape {}/{}",
                    a.computes_executed,
                    a.computes_nullified,
                    b.computes_executed,
                    b.computes_nullified
                ));
            }
            Ok(())
        }
        (Err(a), Err(b)) if a == b => Ok(()),
        _ => Err(format!(
            "outcome divergence: tree {:?}, tape {:?}",
            tree.as_ref()
                .map(|r| (r.computes_executed, r.computes_nullified)),
            tape.as_ref()
                .map(|r| (r.computes_executed, r.computes_nullified)),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::execute;
    use cred_codegen::cred::cred_pipelined;
    use cred_codegen::ir::{LoopSpec, PredId, Ref};
    use cred_codegen::pipeline::{original_program, pipelined_program};
    use cred_dfg::{DfgBuilder, OpKind};
    use cred_retime::Retiming;

    fn tiny() -> Dfg {
        let mut b = DfgBuilder::new();
        let a = b.node("A", 1, OpKind::Add(1));
        let c = b.node("B", 1, OpKind::Mul(0));
        b.edge(a, c, 0);
        b.edge(c, a, 2);
        b.build().unwrap()
    }

    fn figure3() -> (Dfg, Retiming) {
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
    fn tape_matches_tree_on_generated_programs() {
        let g = tiny();
        for n in [0u64, 1, 2, 5, 17] {
            cross_check_executors(&original_program(&g, n)).unwrap();
        }
        let (g, r) = figure3();
        for n in [0u64, 1, 3, 10, 40, 4096] {
            cross_check_executors(&pipelined_program(&g, &r, n)).unwrap();
            cross_check_executors(&cred_pipelined(&g, &r, n)).unwrap();
        }
    }

    #[test]
    fn guard_predicates_match_trace_windows() {
        // Same program as machine::tests::guard_window_semantics: the
        // guard opens exactly iterations {2, 3}, so both executors must
        // report the identical Incomplete fault.
        let mk = |offset| LoopProgram {
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
                    Inst::Compute {
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
                    },
                    Inst::Dec {
                        reg: PredId(0),
                        by: 1,
                    },
                ],
                auto_dec: None,
            }),
            post: vec![],
        };
        for offset in [0, 1, -1] {
            let p = mk(offset);
            cross_check_executors(&p).unwrap();
            assert!(matches!(
                execute_tape(&p),
                Err(ExecError::Incomplete { .. })
            ));
        }
    }

    #[test]
    fn faults_surface_identically() {
        let g = tiny();
        // Double write: duplicate the body.
        let mut p = original_program(&g, 3);
        let body = p.body.as_mut().unwrap();
        let dup = body.body.clone();
        body.body.extend(dup);
        cross_check_executors(&p).unwrap();
        // Out-of-range write: run one iteration too many.
        let mut p = original_program(&g, 3);
        p.body.as_mut().unwrap().hi = 4;
        cross_check_executors(&p).unwrap();
        // Use-before-def: reverse the body.
        let mut p = original_program(&g, 3);
        p.body.as_mut().unwrap().body.reverse();
        cross_check_executors(&p).unwrap();
        // Invalid loop: non-positive step.
        for step in [0, -1] {
            let mut p = original_program(&g, 3);
            p.body.as_mut().unwrap().step = step;
            cross_check_executors(&p).unwrap();
            assert!(matches!(execute_tape(&p), Err(ExecError::InvalidLoop(_))));
        }
        // Unbound register: Dec of a never-setup register in the body.
        let mut p = original_program(&g, 3);
        p.body.as_mut().unwrap().body.push(Inst::Dec {
            reg: PredId(9),
            by: 1,
        });
        cross_check_executors(&p).unwrap();
        assert_eq!(execute_tape(&p).unwrap_err(), execute(&p).unwrap_err());
        // Incomplete: drop an instance.
        let mut p = original_program(&g, 2);
        p.body.as_mut().unwrap().body.pop();
        cross_check_executors(&p).unwrap();
    }

    #[test]
    fn unbound_guard_in_pre_and_post() {
        let g = tiny();
        let guarded = Inst::Compute {
            guard: Some(Guard {
                reg: PredId(3),
                offset: 0,
            }),
            dest: Ref {
                array: 0,
                index: Index::Const(1),
            },
            op: OpKind::Input(0),
            srcs: vec![],
        };
        let mut p = original_program(&g, 3);
        p.pre.insert(0, guarded.clone());
        cross_check_executors(&p).unwrap();
        let mut p = original_program(&g, 3);
        p.post.push(guarded);
        cross_check_executors(&p).unwrap();
    }

    #[test]
    fn diff_compiled_matches_tree_diff() {
        let (g, r) = figure3();
        let p = cred_pipelined(&g, &r, 10);
        let a = crate::machine::diff_against_reference(&g, &p).unwrap();
        let b = diff_against_reference_tape(&g, &p).unwrap();
        assert_eq!(a.arrays, b.arrays);
        assert_eq!(a.computes_executed, b.computes_executed);
        assert_eq!(a.computes_nullified, b.computes_nullified);
        // And on a corrupted program, the same structured report.
        let mut bad = cred_pipelined(&g, &r, 10);
        if let Some(l) = &mut bad.body {
            if let Inst::Compute { op, .. } = &mut l.body[0] {
                *op = OpKind::Add(2);
            }
        }
        assert_eq!(
            crate::machine::diff_against_reference(&g, &bad).unwrap_err(),
            diff_against_reference_tape(&g, &bad).unwrap_err()
        );
    }

    #[test]
    fn discipline_proof_engages_on_generated_programs() {
        // The compiled tape only pays off if generated programs
        // actually preverify; a silent fall-back to the reference
        // tree-walker would be a performance regression this test catches.
        let g = tiny();
        assert!(compile(&original_program(&g, 17)).unwrap().preverified());
        let (g, r) = figure3();
        for n in [1u64, 10, 40, 4096] {
            assert!(compile(&pipelined_program(&g, &r, n))
                .unwrap()
                .preverified());
            assert!(compile(&cred_pipelined(&g, &r, n)).unwrap().preverified());
        }
        // And never on programs with real faults.
        let mut bad = original_program(&g, 3);
        bad.body.as_mut().unwrap().body.reverse();
        assert!(!compile(&bad).unwrap().preverified());
        let mut bad = original_program(&g, 3);
        let dup = bad.body.as_ref().unwrap().body.clone();
        bad.body.as_mut().unwrap().body.extend(dup);
        assert!(!compile(&bad).unwrap().preverified());
    }

    #[test]
    fn dynamic_counts_are_precomputed_exactly() {
        let (g, r) = figure3();
        let p = cred_pipelined(&g, &r, 10);
        let tape = compile(&p).unwrap();
        let res = tape.execute().unwrap();
        let tree = execute(&p).unwrap();
        assert_eq!(res.computes_executed, tree.computes_executed);
        assert_eq!(res.computes_nullified, tree.computes_nullified);
        assert_eq!(res.computes_executed, 5 * 10);
    }
}
