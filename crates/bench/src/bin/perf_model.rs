//! Performance experiment: does CRED "jeopardize the performance"?
//!
//! Static cycle model (VLIW fetch packets on a C6x-like 6 ALU + 2 MUL
//! machine; cycles = pre + trips * body + post): compare the original
//! loop, the software-pipelined loop, the CRED loop (TI-style explicit
//! decrements), and the rotating-predicate CRED loop, all VM-verified,
//! plus the delay (data-register) cost retiming itself incurs — the one
//! expansion CRED does not address.

use cred_bench::{print_table, tuned_retiming};
use cred_codegen::cred::{cred_pipelined, cred_rotating};
use cred_codegen::perf::estimate_cycles;
use cred_codegen::pipeline::{original_program, pipelined_program};
use cred_dfg::MachineModel;
use cred_kernels::all_benchmarks;
use cred_vm::check_against_reference;

fn main() {
    let n = 1000u64;
    let m = &MachineModel::with_units(6, 2);
    println!("Static cycle model, n = {n}, 6 ALU + 2 MUL fetch packets\n");
    let mut rows = Vec::new();
    for (name, g) in all_benchmarks() {
        let (r, _) = tuned_retiming(&g);
        let orig_p = original_program(&g, n);
        let pip_p = pipelined_program(&g, &r, n);
        let cred_p = cred_pipelined(&g, &r, n);
        let rot_p = cred_rotating(&g, &r, 1, n);
        for p in [&orig_p, &pip_p, &cred_p, &rot_p] {
            check_against_reference(&g, p).unwrap();
        }
        let orig = estimate_cycles(&orig_p, m);
        let pip = estimate_cycles(&pip_p, m);
        let cred = estimate_cycles(&cred_p, m);
        let rot = estimate_cycles(&rot_p, m);
        let gr = r.apply(&g);
        rows.push(vec![
            name.to_string(),
            orig.cycles.to_string(),
            pip.cycles.to_string(),
            format!(
                "{} ({:+.1}%)",
                cred.cycles,
                100.0 * (cred.cycles as f64 - pip.cycles as f64) / pip.cycles as f64
            ),
            format!(
                "{} ({:+.1}%)",
                rot.cycles,
                100.0 * (rot.cycles as f64 - pip.cycles as f64) / pip.cycles as f64
            ),
            format!("{} -> {}", g.total_delays(), gr.total_delays()),
        ]);
    }
    print_table(
        &[
            "Benchmark",
            "orig cyc",
            "pipelined",
            "CRED (vs pip)",
            "rotating (vs pip)",
            "delays orig->retimed",
        ],
        &rows,
    );
    println!("\nThe last column is the data-register (delay) count before and");
    println!("after retiming: the storage cost of software pipelining itself,");
    println!("which conditional registers do not remove (cycle delays are");
    println!("conserved; feed-forward edges may gain delays).");
}
