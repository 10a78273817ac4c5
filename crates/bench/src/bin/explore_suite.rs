//! Batch exploration experiment: run [`cred_explore::suite::explore_suite`]
//! over every bundled `.loop` kernel and time the serial reference sweep
//! against the memoized engine on the two largest kernels.
//!
//! The engine is timed at 1 thread, which isolates the gain from sharing
//! one W/D computation and one warm-started solver per factor, and then
//! at 2, 4 and 8 threads only where the host has that many: a thread
//! count above `available_parallelism` cannot show a real speedup.
//!
//! Prints one JSON document (the seed for `BENCH_explore.json`) to stdout,
//! or to the file given with `--out <path>`.
//!
//! ```text
//! cargo run --release -p cred-bench --bin explore_suite -- --out BENCH_explore.json
//! ```

use std::time::Instant;

use cred_codegen::DecMode;
use cred_dfg::Dfg;
use cred_explore::{suite, sweep_reference, ExploreRequest};

const MAX_F: usize = 4;
const N: u64 = 101;
const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Wall-clock of the fastest of `reps` runs, in nanoseconds. Minimum (not
/// mean) because the interesting quantity is the cost of the work itself,
/// not scheduler noise on a loaded CI box.
fn best_of<F: FnMut()>(reps: usize, mut f: F) -> u128 {
    (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos()
        })
        .min()
        .expect("reps >= 1")
}

fn time_kernel(name: &str, g: &Dfg, reps: usize, cores: usize) -> String {
    let serial = best_of(reps, || {
        std::hint::black_box(sweep_reference(g, MAX_F, N, DecMode::Bulk));
    });
    let mut engine = Vec::new();
    for threads in THREAD_COUNTS.into_iter().filter(|&t| t <= cores) {
        let ns = best_of(reps, || {
            std::hint::black_box(
                ExploreRequest::new(g.clone())
                    .max_f(MAX_F)
                    .trip_count(N)
                    .threads(threads)
                    .run()
                    .expect("unlimited sweep"),
            );
        });
        engine.push(format!(
            "{{ \"threads\": {threads}, \"ns\": {ns}, \"speedup\": {:.3} }}",
            serial as f64 / ns as f64
        ));
    }
    format!(
        "    {{ \"name\": \"{name}\", \"max_f\": {MAX_F}, \"serial_ns\": {serial}, \
         \"engine\": [ {} ] }}",
        engine.join(", ")
    )
}

fn main() {
    let mut out_path = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => out_path = Some(args.next().expect("--out needs a path")),
            other => {
                eprintln!("explore_suite: unknown argument '{other}'");
                std::process::exit(2);
            }
        }
    }

    let kernels_dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../kernels");
    let kernels = suite::load_kernels(std::path::Path::new(kernels_dir))
        .expect("bundled kernel suite parses");

    // The batch sweep itself: every kernel, all factors, shared cache.
    let report = suite::explore_suite(&kernels, MAX_F, N, DecMode::Bulk, 8);

    // Reference vs engine timing on the two largest kernels.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let timed: Vec<String> = kernels
        .iter()
        .filter(|(name, _)| name == "elliptic" || name == "volterra")
        .map(|(name, g)| time_kernel(name, g, 5, cores))
        .collect();

    let mut doc = String::new();
    doc.push_str("{\n");
    doc.push_str(&format!("\"machine_threads\": {cores},\n"));
    doc.push_str("\"timing\": [\n");
    doc.push_str(&timed.join(",\n"));
    doc.push_str("\n],\n");
    doc.push_str("\"suite\": ");
    doc.push_str(&report.to_json());
    doc.push_str("}\n");

    match out_path {
        Some(p) => std::fs::write(&p, &doc).expect("write --out file"),
        None => print!("{doc}"),
    }
}
