//! VLIW word packing: do CRED's `setup`/decrement instructions fit in the
//! free slots of the pipelined kernel?
//!
//! The paper argues (§3.2) that "the inserted instructions can be put into
//! a slot of the long instruction word wherever possible", so code-size
//! reduction usually does not lengthen the kernel schedule. This module
//! quantifies that: given a kernel schedule and a machine width, it counts
//! free ALU slots and computes the schedule length after inserting `k`
//! extra ALU operations (the per-register decrements are plain ALU ops with
//! no data dependence on the kernel).

use crate::assert_units_only;
use crate::list::StaticSchedule;
use cred_dfg::{Dfg, MachineModel, OpClass};

/// Occupancy summary of a packed kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VliwPacking {
    /// Number of long instruction words (= schedule length).
    pub words: u64,
    /// Unused ALU issue slots across the kernel (`None` width = infinite).
    pub free_alu_slots: Option<u64>,
}

/// Analyze ALU slot occupancy of `sched` on machine `m`.
///
/// # Panics
/// Panics if `m` sets an issue width or a latency override.
pub fn pack(g: &Dfg, sched: &StaticSchedule, m: &MachineModel) -> VliwPacking {
    assert_units_only(m, "VLIW packing");
    let words = sched.length();
    let Some(width) = m.units(OpClass::Alu) else {
        return VliwPacking {
            words,
            free_alu_slots: None,
        };
    };
    let mut used = vec![0u64; words as usize];
    for v in g.node_ids() {
        if g.node(v).op.class() == OpClass::Alu {
            for s in sched.start(v)..sched.start(v) + g.node(v).time as u64 {
                used[s as usize] += 1;
            }
        }
    }
    let free = used.iter().map(|&u| width as u64 - u).sum();
    VliwPacking {
        words,
        free_alu_slots: Some(free),
    }
}

/// Kernel schedule length after inserting `extra` independent ALU
/// operations (CRED setup happens once outside the loop; the per-iteration
/// decrements are what could cost slots).
///
/// Free slots absorb the extras; any overflow appends full-width words.
pub fn length_with_extra_alu(g: &Dfg, sched: &StaticSchedule, m: &MachineModel, extra: u64) -> u64 {
    let p = pack(g, sched, m);
    match (p.free_alu_slots, m.units(OpClass::Alu)) {
        (Some(free), Some(width)) if extra > free => {
            p.words + (extra - free).div_ceil(width as u64)
        }
        // Extras fit the free slots, or the width is infinite.
        _ => p.words,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::list::list_schedule;
    use cred_dfg::{DfgBuilder, OpKind};

    fn mul_heavy() -> Dfg {
        // 4 muls, 1 add: lots of ALU slack on a 2-ALU machine.
        let mut b = DfgBuilder::new();
        let m0 = b.node("m0", 1, OpKind::Mul(0));
        let m1 = b.node("m1", 1, OpKind::Mul(0));
        let m2 = b.node("m2", 1, OpKind::Mul(0));
        let m3 = b.node("m3", 1, OpKind::Mul(0));
        let a0 = b.node("a0", 1, OpKind::Add(0));
        b.edge(m0, m1, 0);
        b.edge(m2, m3, 0);
        b.edge(m1, a0, 0);
        b.edge(a0, m0, 2);
        b.build().unwrap()
    }

    #[test]
    fn counts_free_alu_slots() {
        let g = mul_heavy();
        let m = MachineModel::with_units(2, 2);
        let s = list_schedule(&g, &m);
        let p = pack(&g, &s, &m);
        // One ALU op total; 2 ALU slots per word.
        assert_eq!(p.free_alu_slots, Some(p.words * 2 - 1));
    }

    #[test]
    fn extras_fit_in_free_slots() {
        let g = mul_heavy();
        let m = MachineModel::with_units(2, 2);
        let s = list_schedule(&g, &m);
        let base = s.length();
        // Up to free-slot-count extras cost nothing.
        let p = pack(&g, &s, &m);
        let free = p.free_alu_slots.unwrap();
        assert_eq!(length_with_extra_alu(&g, &s, &m, free), base);
        // One more overflows into a new word.
        assert_eq!(length_with_extra_alu(&g, &s, &m, free + 1), base + 1);
        // A full extra word's worth: still one extra word.
        assert_eq!(length_with_extra_alu(&g, &s, &m, free + 2), base + 1);
        assert_eq!(length_with_extra_alu(&g, &s, &m, free + 3), base + 2);
    }

    #[test]
    fn unlimited_width_extras_are_free() {
        let g = mul_heavy();
        let m = MachineModel::unconstrained();
        let s = list_schedule(&g, &m);
        assert_eq!(length_with_extra_alu(&g, &s, &m, 1000), s.length());
    }

    #[test]
    fn saturated_alu_kernel_pays_for_extras() {
        // 4 chained adds on a 1-ALU machine: zero free slots.
        let mut b = DfgBuilder::new();
        let n: Vec<_> = (0..4).map(|i| b.unit(format!("a{i}"))).collect();
        for w in n.windows(2) {
            b.edge(w[0], w[1], 0);
        }
        b.edge(n[3], n[0], 4);
        let g = b.build().unwrap();
        let m = MachineModel::with_units(1, 1);
        let s = list_schedule(&g, &m);
        assert_eq!(s.length(), 4);
        let p = pack(&g, &s, &m);
        assert_eq!(p.free_alu_slots, Some(0));
        assert_eq!(length_with_extra_alu(&g, &s, &m, 3), 7);
    }

    #[test]
    fn multi_cycle_alu_ops_occupy_slots() {
        let mut b = DfgBuilder::new();
        let a = b.node("a", 3, OpKind::Add(0));
        b.edge(a, a, 1);
        let g = b.build().unwrap();
        let m = MachineModel::with_units(1, 1);
        let s = list_schedule(&g, &m);
        let p = pack(&g, &s, &m);
        assert_eq!(p.words, 3);
        assert_eq!(p.free_alu_slots, Some(0));
    }
}
