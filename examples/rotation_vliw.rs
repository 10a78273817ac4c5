//! Scenario: schedule-driven software pipelining on a width-limited VLIW
//! machine (rotation scheduling, paper keyword; §3.2's performance claim).
//!
//! ```text
//! cargo run --example rotation_vliw
//! ```
//!
//! On a machine with limited functional units, rotation scheduling
//! shortens the kernel by retiming the first control step and
//! rescheduling. The resulting retiming feeds CRED exactly like one from
//! OPT — and the decrement instructions CRED adds fit into free ALU slots
//! of the packed kernel, so the code-size reduction is performance-free.

use cred::codegen::cred::cred_pipelined;
use cred::dfg::MachineModel;
use cred::schedule::vliw::{length_with_extra_alu, pack};
use cred::schedule::{list_schedule, rotation_schedule};
use cred::vm::check_against_reference;

fn main() {
    let machine = MachineModel::with_units(2, 2);
    println!("machine: 2 ALUs + 2 multipliers\n");
    println!(
        "{:<24} {:>8} {:>8} {:>6} {:>10} {:>12}",
        "benchmark", "initial", "rotated", "M_r", "CRED size", "kernel+decs"
    );
    for (name, g) in cred::kernels::all_benchmarks() {
        let init = list_schedule(&g, &machine).length();
        let rot = rotation_schedule(&g, &machine, 64);
        let r = &rot.retiming;
        // CRED the rotated loop and verify it still computes the filter.
        let prog = cred_pipelined(&g, r, 64);
        check_against_reference(&g, &prog).unwrap_or_else(|e| panic!("{name}: {e}"));
        // Do the decrements cost schedule length?
        let gr = r.apply(&g);
        let sched = list_schedule(&gr, &machine);
        let with = length_with_extra_alu(&gr, &sched, &machine, r.register_count() as u64);
        let free = pack(&gr, &sched, &machine).free_alu_slots.unwrap_or(0);
        println!(
            "{name:<24} {init:>8} {:>8} {:>6} {:>10} {:>7} ({} free)",
            rot.length,
            r.max_value(),
            prog.code_size(),
            with,
            free,
        );
    }
    println!("\n'kernel+decs' equal to 'rotated' means the CRED decrements");
    println!("were absorbed by free ALU slots (no performance loss).");
}
