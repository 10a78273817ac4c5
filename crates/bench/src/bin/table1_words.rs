//! Extension experiment: Table 1 measured in VLIW fetch-packet *words*
//! (C6x-style, 6 ALU + 2 MUL slots per word) instead of instruction
//! counts. The CRED advantage survives the change of metric — its
//! decrements mostly co-issue with the kernel.

use cred_bench::{print_table, tuned_retiming};
use cred_codegen::bundle::bundle;
use cred_codegen::cred::cred_pipelined;
use cred_codegen::pipeline::{original_program, pipelined_program};
use cred_dfg::MachineModel;
use cred_kernels::all_benchmarks;
use cred_vm::check_against_reference;

fn main() {
    let m = &MachineModel::with_units(6, 2);
    let n = 101u64;
    println!("Table 1 in VLIW words (6 ALU + 2 MUL per fetch packet, n = {n})\n");
    let mut rows = Vec::new();
    for (name, g) in all_benchmarks() {
        let (r, _) = tuned_retiming(&g);
        let orig = original_program(&g, n);
        let pip = pipelined_program(&g, &r, n);
        let cred = cred_pipelined(&g, &r, n);
        for p in [&orig, &pip, &cred] {
            check_against_reference(&g, p).unwrap();
        }
        let so = bundle(&orig, m);
        let sp = bundle(&pip, m);
        let sc = bundle(&cred, m);
        rows.push(vec![
            name.to_string(),
            so.total().to_string(),
            format!(
                "{} ({}+{}+{})",
                sp.total(),
                sp.pre_words,
                sp.body_words,
                sp.post_words
            ),
            format!(
                "{} ({}+{}+{})",
                sc.total(),
                sc.pre_words,
                sc.body_words,
                sc.post_words
            ),
            format!(
                "{:.1}",
                cred_codegen::size::reduction_percent(sp.total() as u64, sc.total() as u64)
            ),
        ]);
    }
    print_table(
        &["Benchmark", "Orig", "Ret. (pre+body+post)", "CR", "% Red."],
        &rows,
    );
}
