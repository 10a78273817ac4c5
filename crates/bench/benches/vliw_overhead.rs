//! The paper's "does not hurt performance" claim (§3.2): CRED's decrement
//! instructions should fit free ALU slots of the VLIW kernel. This bench
//! packs every benchmark's rate-optimally-retimed kernel on machines of
//! several widths and measures the schedule-length computation; the
//! resulting lengths (with and without the `P` decrements) are printed
//! once at startup.

use cred_dfg::MachineModel;
use cred_schedule::list_schedule;
use cred_schedule::vliw::{length_with_extra_alu, pack};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_vliw(c: &mut Criterion) {
    let machines = [
        ("2alu+1mul", MachineModel::with_units(2, 1)),
        ("4alu+2mul", MachineModel::with_units(4, 2)),
        ("8alu+4mul", MachineModel::with_units(8, 4)),
    ];
    let mut group = c.benchmark_group("vliw_pack");
    for (name, g) in cred_kernels::all_benchmarks() {
        let (r, _) = cred_bench::tuned_retiming(&g);
        let gr = r.apply(&g);
        let p = r.register_count() as u64;
        for (mname, m) in &machines {
            let sched = list_schedule(&gr, m);
            let base = sched.length();
            let with_decs = length_with_extra_alu(&gr, &sched, m, p);
            let packing = pack(&gr, &sched, m);
            println!(
                "{name} on {mname}: kernel {} words, {} free ALU slots, +{p} decrements -> {} words ({})",
                base,
                packing.free_alu_slots.unwrap_or(0),
                with_decs,
                if with_decs == base { "no slowdown" } else { "slowdown" },
            );
            group.bench_function(format!("{name}/{mname}"), |b| {
                b.iter(|| {
                    let s = list_schedule(black_box(&gr), m);
                    black_box(length_with_extra_alu(&gr, &s, m, p))
                });
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_vliw);
criterion_main!(benches);
