//! VLIW bundling: pack a program's instructions into long instruction
//! words and measure code size in *words* — the metric that matters on a
//! TMS320C6000-style machine where every fetch packet has a fixed width.
//!
//! Bundling respects, per straight-line region (prologue, loop body,
//! epilogue):
//!
//! * **value dependences** — an instruction reading an element written by
//!   an earlier instruction of the same region goes in a strictly later
//!   word;
//! * **conditional-register dependences** — a guarded instruction after a
//!   decrement (or setup) of its register goes in a strictly later word
//!   (VLIW semantics: all operations of a word read register state at the
//!   start of the word, so a *preceding* guarded compute may share the
//!   word with the decrement);
//! * **functional-unit widths** — at most [`MachineModel::units`]
//!   operations of each [`OpClass`] per word ([`Inst::Setup`]/[`Inst::Dec`]
//!   occupy ALU slots; an unlimited class has no cap per word).
//!
//! The packer is greedy earliest-fit in program order, which preserves
//! the region's semantics by construction. A C6x-like fetch packet is
//! `MachineModel::with_units(6, 2)`.

use crate::ir::{Index, Inst, LoopProgram};
use cred_dfg::{MachineModel, OpClass, OP_CLASSES};

/// Word counts per region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BundleStats {
    /// Words for the code before the loop.
    pub pre_words: usize,
    /// Words for one copy of the loop body.
    pub body_words: usize,
    /// Words for the code after the loop.
    pub post_words: usize,
}

impl BundleStats {
    /// Static code size in words.
    pub fn total(&self) -> usize {
        self.pre_words + self.body_words + self.post_words
    }
}

/// Exact syntactic equality of (array, index) pairs is a sound dependence
/// test within one region: all instructions of a region share the same
/// induction-variable value.
fn same_elem(a: (u32, Index), b: (u32, Index)) -> bool {
    a.0 == b.0 && a.1 == b.1
}

/// Pack one region; returns the number of words.
fn pack_region(insts: &[Inst], m: &MachineModel) -> usize {
    pack_region_words(insts, m)
        .iter()
        .max()
        .map_or(0, |&w| w + 1)
}

/// Word index assigned to each instruction of a region.
///
/// # Panics
/// Panics if `m` sets an issue width or a latency override: a word's
/// width is its per-class unit counts, and every instruction takes one
/// word.
pub fn pack_region_words(insts: &[Inst], m: &MachineModel) -> Vec<usize> {
    let latency = OpClass::ALL
        .iter()
        .any(|&c| m.latency_override(c).is_some());
    assert!(
        m.issue_width.is_none() && !latency,
        "bundling models unit counts only, not issue width or latency overrides (machine {})",
        m.name
    );
    let n = insts.len();
    // earliest[i]: first admissible word for instruction i.
    let mut word_of: Vec<usize> = vec![0; n];
    // Occupancy per word and class.
    let mut used: Vec<[u32; OP_CLASSES]> = Vec::new();
    for i in 0..n {
        let mut earliest = 0usize;
        for j in 0..i {
            let strict = depends_strictly(&insts[j], &insts[i]);
            if strict {
                earliest = earliest.max(word_of[j] + 1);
            }
        }
        // Earliest-fit with resources.
        let class = match &insts[i] {
            Inst::Compute { op, .. } => op.class(),
            Inst::Setup { .. } | Inst::Dec { .. } => OpClass::Alu,
        };
        let (c, width) = (class.index(), m.units(class));
        let mut w = earliest;
        loop {
            if used.len() <= w {
                used.resize(w + 1, [0; OP_CLASSES]);
            }
            if width.is_none_or(|u| used[w][c] < u) {
                break;
            }
            w += 1;
        }
        used[w][c] += 1;
        word_of[i] = w;
    }
    word_of
}

/// Must `b` (later in program order) be placed in a strictly later word
/// than `a`?
fn depends_strictly(a: &Inst, b: &Inst) -> bool {
    match (a, b) {
        // Value RAW: b reads what a wrote.
        (Inst::Compute { dest, guard: _, .. }, Inst::Compute { srcs, .. }) => srcs
            .iter()
            .any(|s| same_elem((dest.array, dest.index), (s.array, s.index))),
        // Register RAW: a writes a register that guards b.
        (Inst::Dec { reg, .. }, Inst::Compute { guard: Some(g), .. })
        | (Inst::Setup { reg, .. }, Inst::Compute { guard: Some(g), .. }) => g.reg == *reg,
        // Register WAW / ordering between setup and dec of the same reg.
        (Inst::Setup { reg: r1, .. }, Inst::Dec { reg: r2, .. })
        | (Inst::Dec { reg: r1, .. }, Inst::Dec { reg: r2, .. }) => r1 == r2,
        _ => false,
    }
}

/// Pack every region of `p` on machine `m`.
///
/// # Panics
/// Panics if `m` sets an issue width or a latency override, like
/// [`pack_region_words`].
pub fn bundle(p: &LoopProgram, m: &MachineModel) -> BundleStats {
    BundleStats {
        pre_words: pack_region(&p.pre, m),
        body_words: p.body.as_ref().map_or(0, |l| pack_region(&l.body, m)),
        post_words: pack_region(&p.post, m),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cred::cred_pipelined;
    use crate::pipeline::tests::{figure3_graph, figure3_retiming};
    use crate::pipeline::{original_program, pipelined_program};
    use cred_retime::Retiming;

    /// An 8-wide C6x-like fetch packet: 6 ALU + 2 MAC slots.
    fn c6x() -> MachineModel {
        MachineModel::with_units(6, 2)
    }

    fn figure3() -> (cred_dfg::Dfg, Retiming) {
        (figure3_graph().0, figure3_retiming())
    }

    #[test]
    fn original_loop_packs_to_critical_path() {
        // The unretimed figure-3 body is a 4-deep chain: 4 words even on a
        // wide machine.
        let (g, _) = figure3();
        let p = original_program(&g, 10);
        let s = bundle(&p, &c6x());
        assert_eq!(s.body_words, 4);
        assert_eq!(s.pre_words, 0);
    }

    #[test]
    fn retimed_kernel_packs_to_one_word() {
        // After retiming all intra-iteration deps are gone: 5 instructions
        // (2 mul + 3 alu) fit one 6+2 word.
        let (g, r) = figure3();
        let p = pipelined_program(&g, &r, 10);
        let s = bundle(&p, &c6x());
        assert_eq!(s.body_words, 1);
        assert!(s.pre_words >= 3, "prologue spans pipeline-fill words");
        assert!(s.post_words >= 1);
    }

    #[test]
    fn cred_kernel_word_overhead_is_small() {
        // CRED adds P=4 decrements (ALU class). The kernel has 3 ALU + 2
        // MUL computes; with 6 ALU slots the decs overflow into a second
        // word (3 + 4 = 7 > 6) — but the whole program still shrinks
        // massively vs the pipelined form.
        let (g, r) = figure3();
        let pip = bundle(&pipelined_program(&g, &r, 10), &c6x());
        let cred = bundle(&cred_pipelined(&g, &r, 10), &c6x());
        assert!(cred.total() < pip.total());
        assert_eq!(cred.post_words, 0);
        assert!(cred.body_words <= 2);
    }

    #[test]
    fn narrow_machine_needs_more_words() {
        let (g, r) = figure3();
        let p = pipelined_program(&g, &r, 10);
        let wide = bundle(&p, &c6x());
        let narrow = bundle(&p, &MachineModel::with_units(1, 1));
        assert!(narrow.total() >= wide.total());
    }

    #[test]
    fn dec_shares_word_with_guarded_computes() {
        // All guarded computes precede the decrements in the CRED body, so
        // a dec may share their word (WAR is same-word safe); but a
        // compute guarded by a register decremented *earlier* in the body
        // must wait.
        let (g, r) = figure3();
        let p = cred_pipelined(&g, &r, 10);
        let body = &p.body.as_ref().unwrap().body;
        // Body layout: 5 guarded computes then 4 decs.
        let s = pack_region(body, &MachineModel::with_units(16, 16));
        assert_eq!(s, 1, "computes and decs co-issue on a wide machine");
    }

    #[test]
    fn no_strict_dependence_within_a_word() {
        // Soundness invariant of the packer: two instructions sharing a
        // word never have a strict (later-word) dependence.
        let (g, r) = figure3();
        for p in [
            pipelined_program(&g, &r, 10),
            cred_pipelined(&g, &r, 10),
            original_program(&g, 10),
            crate::cred::cred_retime_unfold(&g, &r, 3, 30, crate::DecMode::Bulk),
            crate::cred::cred_retime_unfold(&g, &r, 3, 30, crate::DecMode::PerCopy),
            crate::collapse::collapse_epilogue(&g, &r, 20),
        ] {
            let regions: Vec<&[Inst]> = [
                Some(p.pre.as_slice()),
                p.body.as_ref().map(|l| l.body.as_slice()),
                Some(p.post.as_slice()),
            ]
            .into_iter()
            .flatten()
            .collect();
            for insts in regions {
                let words = pack_region_words(insts, &MachineModel::with_units(2, 1));
                for i in 0..insts.len() {
                    for j in 0..i {
                        if words[i] == words[j] {
                            assert!(
                                !depends_strictly(&insts[j], &insts[i]),
                                "strict dependence inside one word"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "issue width")]
    fn issue_capped_machine_is_refused() {
        let (g, r) = figure3();
        let _ = bundle(
            &pipelined_program(&g, &r, 10),
            &MachineModel::builtin("vliw4").unwrap(),
        );
    }

    #[test]
    fn unlimited_class_has_no_cap_per_word() {
        // `None` units pack like the largest count a machine can hold.
        let (g, r) = figure3();
        let most = MachineModel::with_units(u32::MAX, u32::MAX);
        for p in [original_program(&g, 10), cred_pipelined(&g, &r, 10)] {
            assert_eq!(
                bundle(&p, &MachineModel::unconstrained()),
                bundle(&p, &most)
            );
        }
    }

    #[test]
    fn value_dependences_serialize_within_straight_line_code() {
        // Prologue instances within one slot depend on each other.
        let (g, r) = figure3();
        let p = pipelined_program(&g, &r, 10);
        // Slot 0 contains A[3], B[2], C[2], D[1] where D[1] reads C[1]
        // (earlier slot) and A/B/C chains: at least 2 words for 8 insts
        // with dependences.
        let s = pack_region(&p.pre, &c6x());
        assert!(
            s >= 3,
            "pipeline fill has at least 3 dependent levels, got {s}"
        );
    }
}
