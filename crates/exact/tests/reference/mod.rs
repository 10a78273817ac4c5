//! A brute-force reference for the exact scheduler's II, sharing no code
//! with the solver: it enumerates every slot assignment of a rung (an
//! odometer over `0 ..= ii - t(v)` per node), keeps those the machine's
//! reservation table admits, and asks a plain Bellman–Ford whether the
//! stage constraints `stage(v) - stage(u) >= q(e) - d(e)`, with `q(e) = 1`
//! iff `slot(v) < slot(u) + t(u)`, have a solution. The first rung with
//! such an assignment is the minimal II. Exponential in the node count,
//! so only for small graphs.

use cred_dfg::{gen, Dfg, OpClass, OP_CLASSES};
use cred_exact::{exact_schedule, MachineModel};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The minimal II of `g` on `m`, by exhaustion.
pub fn brute_min_ii(g: &Dfg, m: &MachineModel) -> u64 {
    let t: Vec<u32> = g.node_ids().map(|v| m.op_time(g, v)).collect();
    let ceiling: u64 = t.iter().map(|&x| u64::from(x)).sum();
    (1..=ceiling)
        .find(|&ii| rung_feasible(g, m, &t, ii))
        .expect("the sequential schedule fits II = sum of times")
}

fn rung_feasible(g: &Dfg, m: &MachineModel, t: &[u32], ii: u64) -> bool {
    if t.iter().any(|&x| u64::from(x) > ii) {
        return false;
    }
    let ii = ii as u32;
    let mut slot = vec![0u32; t.len()];
    loop {
        if resources_fit(g, m, t, ii, &slot) && stages_exist(g, t, &slot) {
            return true;
        }
        // Next assignment, odometer order.
        let mut i = 0;
        loop {
            if i == slot.len() {
                return false;
            }
            if slot[i] + t[i] < ii {
                slot[i] += 1;
                break;
            }
            slot[i] = 0;
            i += 1;
        }
    }
}

fn resources_fit(g: &Dfg, m: &MachineModel, t: &[u32], ii: u32, slot: &[u32]) -> bool {
    let ii = ii as usize;
    let mut busy = vec![0u32; OP_CLASSES * ii];
    let mut issued = vec![0u32; ii];
    for v in g.node_ids() {
        let (s, c) = (slot[v.index()] as usize, g.node(v).op.class().index());
        for q in s..s + t[v.index()] as usize {
            busy[c * ii + q] += 1;
        }
        issued[s] += 1;
    }
    let classes_fit = OpClass::ALL.iter().all(|&c| match m.units(c) {
        Some(u) => busy[c.index() * ii..(c.index() + 1) * ii]
            .iter()
            .all(|&b| b <= u),
        None => true,
    });
    let issue_fits = m.issue_width.is_none_or(|w| issued.iter().all(|&i| i <= w));
    classes_fit && issue_fits
}

/// Bellman–Ford from a virtual source over `x_v >= x_u + w`.
fn stages_exist(g: &Dfg, t: &[u32], slot: &[u32]) -> bool {
    let cons: Vec<(usize, usize, i64)> = g
        .edge_ids()
        .map(|e| {
            let ed = g.edge(e);
            let (u, v) = (ed.src.index(), ed.dst.index());
            let q = i64::from(slot[v] < slot[u] + t[u]);
            (u, v, q - i64::from(ed.delay))
        })
        .collect();
    let mut x = vec![0i64; t.len()];
    for _ in 0..=t.len() {
        let mut changed = false;
        for &(u, v, w) in &cons {
            if x[u] + w > x[v] {
                x[v] = x[u] + w;
                changed = true;
            }
        }
        if !changed {
            return true;
        }
    }
    false
}

/// The machines of the sweep: the four builtins and one that only
/// overrides a latency.
pub fn machines() -> Vec<MachineModel> {
    let mut ms = MachineModel::builtins();
    let mut slow_mac = MachineModel::unconstrained();
    slow_mac.name = "slow-mac".into();
    slow_mac.set_latency(OpClass::Mac, Some(2));
    ms.push(slow_mac);
    ms
}

/// Small random graphs: 1 to 5 nodes, times up to 2, delays up to 2.
pub fn graphs(count: u64) -> Vec<Dfg> {
    (0..count)
        .map(|seed| {
            let nodes = 1 + (seed % 5) as usize;
            let cfg = gen::RandomDfgConfig {
                nodes,
                forward_edge_prob: 0.4,
                back_edges: 1 + (seed % 3) as usize,
                max_delay: 2,
                max_time: 2,
            };
            gen::random_dfg(&mut StdRng::seed_from_u64(seed), &cfg)
        })
        .collect()
}

/// Every `(graph index, machine name, exact II, brute-force II)` where the
/// solver and the reference disagree. The exact II is `None` when the
/// solver panicked instead of returning a schedule.
pub fn disagreements(graphs: &[Dfg]) -> Vec<(usize, String, Option<u64>, u64)> {
    let mut out = Vec::new();
    for m in machines() {
        for (i, g) in graphs.iter().enumerate() {
            let exact = catch_unwind(AssertUnwindSafe(|| exact_schedule(g, &m).ii)).ok();
            let brute = brute_min_ii(g, &m);
            if exact != Some(brute) {
                out.push((i, m.name.clone(), exact, brute));
            }
        }
    }
    out
}
