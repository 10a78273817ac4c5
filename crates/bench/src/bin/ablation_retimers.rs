//! Ablation: where the retiming comes from. CRED consumes *any* legal
//! retiming; this experiment compares three generators on each benchmark —
//!
//! * **OPT** — constraint-based min-period retiming (+ span minimization
//!   and greedy register compaction), the paper's setting;
//! * **rotation** — Chao–Sha rotation scheduling on a 4-ALU/2-MUL VLIW;
//! * **exact** — the stage retiming of `cred-exact`'s modulo schedule on
//!   the same machine (the TI-style flow of the paper's reference \[4\]),
//!   at the minimal II, every smaller II refuted by a checked witness;
//!
//! and reports performance (period/II), pipeline depth `M_r`, registers
//! `P_r`, and the CRED code size `L + 2 P_r`. The last column checks the
//! greedy register compaction against the exact branch-and-bound optimum.

use cred_bench::print_table;
use cred_codegen::cred::cred_pipelined;
use cred_dfg::MachineModel;
use cred_exact::{check, exact_schedule};
use cred_kernels::all_benchmarks;
use cred_retime::registers::min_registers_retiming;
use cred_schedule::rotation_schedule;
use cred_vm::check_against_reference;

fn main() {
    let machine = MachineModel::with_units(4, 2);
    let n = 101u64;
    println!("Ablation: retiming source feeding CRED (machine: 4 ALU + 2 MUL)\n");
    let mut rows = Vec::new();
    for (name, g) in all_benchmarks() {
        let l = g.node_count();

        // OPT (the tables' pipeline).
        let (r_opt, period) = cred_bench::tuned_retiming(&g);
        let p_opt = cred_pipelined(&g, &r_opt, n);
        check_against_reference(&g, &p_opt).unwrap();

        // Rotation scheduling.
        let rot = rotation_schedule(&g, &machine, l * 8);
        let p_rot = cred_pipelined(&g, &rot.retiming, n);
        check_against_reference(&g, &p_rot).unwrap();

        // Exact modulo scheduling, its minimality proof checked rung by rung.
        let sched = exact_schedule(&g, &machine);
        check::check_schedule(&g, &machine, &sched).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(
            sched.rejected.len() as u64,
            sched.ii - 1,
            "{name}: II ladder"
        );
        for rung in &sched.rejected {
            check::check_witness(&g, &machine, rung)
                .unwrap_or_else(|e| panic!("{name}: II {}: {e}", rung.ii));
        }
        let r_ex = sched.stage_retiming();
        let p_ex = cred_pipelined(&g, &r_ex, n);
        check_against_reference(&g, &p_ex).unwrap();

        // Exact register optimum at the OPT period.
        let exact = min_registers_retiming(&g, period, 3_000_000).unwrap();
        let exact_str = if exact.exact {
            format!("{} (exact)", exact.retiming.register_count())
        } else {
            format!("{} (budget)", exact.retiming.register_count())
        };

        rows.push(vec![
            name.to_string(),
            format!("{period}/{}", r_opt.max_value()),
            format!("{}", p_opt.code_size()),
            format!("{}/{}", rot.length, rot.retiming.max_value()),
            format!("{}", p_rot.code_size()),
            format!("{}/{}", sched.ii, r_ex.max_value()),
            format!("{}", p_ex.code_size()),
            exact_str,
        ]);
    }
    print_table(
        &[
            "Benchmark",
            "OPT per/M",
            "CR",
            "rot per/M",
            "CR",
            "exact II/M",
            "CR",
            "min regs",
        ],
        &rows,
    );
    println!("\nCR = CRED code size L + 2*P_r; per/M = achieved period and");
    println!("pipeline depth; every exact II is proven minimal. All programs");
    println!("VM-verified before measuring.");
}
