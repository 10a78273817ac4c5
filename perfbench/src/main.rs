//! # perfbench — the repository benchmark
//!
//! One harness for every performance claim about the CRED pipeline. Three
//! workloads, each replaying a fixed seeded op sequence, each stressing a
//! different layer:
//!
//! * `explore_cold` — in-process `ExploreRequest::from_source(..).run()`
//!   with a fresh request-local cache, 1 thread, over the grid 10
//!   committed kernels × `max_f` 1..=8 × both decrement modes × `n` in
//!   {3, 40, 101}. Every plan-cache access misses; the retiming layers
//!   (W/D matrices, solve, compaction) do most of the work.
//! * `serve_hot` — the evaluation server at its defaults with the
//!   committed kernels, driven closed-loop by one connection (waiting for
//!   each reply) over 80 hot keys: 10 kernels × `max_f` 1..=4 × both
//!   modes, `n` = 101, with the whole process on one CPU at a time. After
//!   the warm-up every plan is a cache hit, so the per-request
//!   codegen/maxlive recompute and the service layers are the whole cost.
//! * `oracle_fuzz` — `cred_verify::verify_case` on the tape executor over
//!   the first 5000 cases of the `credc verify --seed 0` stream (what CI
//!   runs). The only path through the exact scheduler and the VM.
//!
//! A run is `perfbench --workload <name> --seed <n> --seconds <s> --trace
//! <0|1>`. It sets up several times and reports the median set-up time,
//! replays whole passes over the workload's op multiset (each pass a
//! permutation drawn from the seed; the op count depends on `--seconds`
//! only), checks every op's output, and prints a run record and, as the
//! last line, one JSON result. `--trace 1` replays the same sequence a
//! second time with a span around every call into a layer and reports
//! per-layer self times and counts instead. `--workload all` runs the
//! three workloads, one process each. `--write-expected` regenerates
//! `expected_points.txt` from the reference pipeline.
//!
//! Latencies and set-up are timed on CPU clocks and throughput on wall
//! time minus the host's steal time, so that time the host takes the CPU
//! away is not counted against the program (see [`clock`]).

mod affinity;
mod clock;
mod expected;
mod explore_cold;
mod ops;
mod oracle_fuzz;
mod serve_hot;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use ops::Fnv;

/// The committed expected results (see [`expected`]).
pub const EXPECTED: &str = include_str!("../expected_points.txt");

/// Set-up repetitions per run; the median is reported. Even, so that a
/// rotation over two CPUs (see [`affinity`]) weighs both alike.
const SETUP_REPEATS: usize = 10;

/// Failure messages kept for the report.
const MAX_ERRORS: usize = 5;

const WORKLOADS: [&str; 3] = ["explore_cold", "serve_hot", "oracle_fuzz"];

/// End-to-end metrics (untraced runs): name and unit. The tail is gated
/// by its mean rather than by p99 (see [`stats`]); p99 is printed and
/// recorded with the samples beyond it.
const END_TO_END: [(&str, &str); 5] = [
    ("throughput_ops_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_tail_mean_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (traced runs): name and unit. A `_us` metric is the
/// mean self time per op of the spans of that name; a layer a workload
/// never calls reads 0.
const PER_LAYER: [(&str, &str); 41] = [
    ("lang.parse_us", "us"),
    ("dfg.wd_us", "us"),
    ("dfg.reference_us", "us"),
    ("unfold.unfold_us", "us"),
    ("unfold.project_us", "us"),
    ("retime.solve_us", "us"),
    ("retime.compact_us", "us"),
    ("retime.work_units", "count"),
    ("codegen.plain_us", "us"),
    ("codegen.cred_us", "us"),
    ("codegen.programs_us", "us"),
    ("codegen.counts_us", "us"),
    ("codegen.code_size_ratio", "ratio"),
    ("schedule.maxlive_us", "us"),
    ("exact.schedule_us", "us"),
    ("exact.check_us", "us"),
    ("exact.branches", "count"),
    ("vm.compile_us", "us"),
    ("vm.execute_us", "us"),
    ("vm.diff_us", "us"),
    ("vm.trace_us", "us"),
    ("vm.preverified_ratio", "ratio"),
    ("vm.dyn_computes", "count"),
    ("core.theorems_us", "us"),
    ("explore.plan_us", "us"),
    ("explore.plan_calls", "count"),
    ("explore.cache_lookup_us", "us"),
    ("explore.frontier_us", "us"),
    ("explore.compute_us", "us"),
    ("explore.cache_hit_ratio", "ratio"),
    ("service.decode_us", "us"),
    ("service.encode_us", "us"),
    ("service.loop_us", "us"),
    ("service.explore_computes_ratio", "ratio"),
    ("service.coalesced_joins", "count"),
    ("service.shed", "count"),
    ("service.server_p50_us", "us"),
    ("op.other_us", "us"),
    ("trace.ops", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.span_coverage_ratio", "ratio"),
];

/// Arguments and paths every workload sees.
pub struct Ctx {
    /// Repository root (kernels, sources).
    pub root: PathBuf,
    pub seed: u64,
    pub seconds: u64,
}

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Measured {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// Each set-up repetition, seconds of the process's CPU clock.
    pub setup_s: Vec<f64>,
    /// Per-op latency of the untraced timed phase, µs, on a CPU clock
    /// (see [`clock`]).
    pub op_us: Vec<f64>,
    /// Wall time of the untraced timed phase, seconds.
    pub wall_s: f64,
    /// Steal time of the CPUs the untraced timed phase ran on, seconds.
    pub stolen_s: f64,
    /// Whole passes over the op multiset.
    pub passes: usize,
    /// Distinct ops in one pass.
    pub pass_len: usize,
    /// Hash of the op sequence in replay order.
    pub input_fingerprint: u64,
    /// Hash of the op multiset in canonical order (seed-independent).
    pub pool_fingerprint: u64,
    /// Workload-specific run-record fields, as JSON values.
    pub record: Vec<(&'static str, String)>,
    /// Per-layer metrics of a traced run.
    pub layers: BTreeMap<&'static str, f64>,
    /// Spans of a traced run.
    pub spans: Option<trace::Tracer>,
}

impl Measured {
    /// Count one failed op, keeping the first few messages.
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.errors.len() < MAX_ERRORS {
            self.errors.push(msg);
        }
    }

    /// Fill the per-layer time metrics from a tracer: mean self time per
    /// op for every span name, plus the counters the tracer recorded.
    /// Root spans (`<workload>.op`) become `op.other_us`, the time of an
    /// op spent outside any layer span.
    pub fn layers_from(&mut self, t: &trace::Tracer, ops: usize) {
        let ops = ops.max(1) as f64;
        for (name, ns) in t.self_ns() {
            let key = if name.ends_with(".op") {
                "op.other_us"
            } else {
                layer_key(name)
            };
            *self.layers.entry(key).or_default() += *ns as f64 / 1e3 / ops;
        }
        for (name, unit) in PER_LAYER {
            if unit == "count" && t.counter(name) > 0 {
                self.layers.insert(name, t.counter(name) as f64);
            }
        }
        self.layers.insert("trace.ops", ops);
    }

    /// Close an in-process traced replay whose ops were each also run
    /// untraced (`op_us`): per-layer metrics, the traced ops' extra time
    /// as the overhead, and the share of untraced op time that layer spans
    /// account for as the coverage.
    pub fn finish_trace(&mut self, t: trace::Tracer) {
        let untraced_ns = self.op_us.iter().sum::<f64>() * 1e3;
        self.layers_from(&t, self.op_us.len());
        let in_layers: u64 = t
            .self_ns()
            .iter()
            .filter(|(name, _)| !name.ends_with(".op"))
            .map(|(_, ns)| ns)
            .sum();
        self.layers.insert(
            "trace.overhead_ratio",
            t.root_ns() as f64 / untraced_ns - 1.0,
        );
        self.layers
            .insert("trace.span_coverage_ratio", in_layers as f64 / untraced_ns);
        self.spans = Some(t);
    }
}

/// The `_us` metric name for span `name` (panics on an unlisted span, so
/// a typo cannot silently drop a layer).
fn layer_key(name: &str) -> &'static str {
    PER_LAYER
        .iter()
        .map(|(n, _)| *n)
        .find(|n| n.strip_suffix("_us") == Some(name))
        .unwrap_or_else(|| panic!("span {name:?} has no per-layer metric"))
}

/// Run `setup` [`SETUP_REPEATS`] times (passing the repetition number),
/// tearing down all but the last, and return the last state with every
/// repetition's duration on the process's CPU clock.
pub fn timed_setups<T>(
    mut setup: impl FnMut(usize) -> Result<T, String>,
    mut teardown: impl FnMut(T) -> Result<(), String>,
) -> Result<(T, Vec<f64>), String> {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for rep in 0..SETUP_REPEATS {
        if let Some(prev) = last.take() {
            teardown(prev)?;
        }
        let t0 = clock::process_cpu_ns();
        let state = setup(rep)?;
        times.push((clock::process_cpu_ns() - t0) as f64 / 1e9);
        last = Some(state);
    }
    Ok((last.expect("SETUP_REPEATS > 0"), times))
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    write_expected: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10,
        trace: false,
        write_expected: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--write-expected" {
            args.write_expected = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} wants a non-negative integer, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = num()?,
            "--seconds" => args.seconds = num()?,
            "--trace" => {
                args.trace = match num()? {
                    0 => false,
                    1 => true,
                    _ => return Err("--trace wants 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !args.write_expected && args.workload.is_empty() {
        return Err(format!(
            "usage: perfbench --workload <{}|all> [--seed N] [--seconds S] [--trace 0|1] | --write-expected",
            WORKLOADS.join("|")
        ));
    }
    Ok(args)
}

/// Repository root: the parent of this package.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package lives inside the repository")
        .to_path_buf()
}

fn main() -> ExitCode {
    match real_main() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn real_main() -> Result<(), String> {
    let args = parse_args()?;
    let root = repo_root();
    if args.write_expected {
        let kernels = ops::load_kernels(&root.join("kernels"))?;
        let text = expected::Expected::generate(&kernels)?;
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("expected_points.txt");
        std::fs::write(&path, text).map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("wrote {}", path.display());
        return Ok(());
    }
    if args.workload == "all" {
        return run_all(&args);
    }
    let ctx = Ctx {
        root,
        seed: args.seed,
        seconds: args.seconds,
    };
    let measured = match args.workload.as_str() {
        "explore_cold" => explore_cold::run(&ctx, args.trace)?,
        "serve_hot" => serve_hot::run(&ctx, args.trace)?,
        "oracle_fuzz" => oracle_fuzz::run(&ctx, args.trace)?,
        other => return Err(format!("unknown workload {other:?}")),
    };
    report(&ctx, &args, measured)
}

/// `--workload all`: each workload in its own process (peak RSS is per
/// process), then one combined result line.
fn run_all(args: &Args) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating myself: {e}"))?;
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut metrics = Vec::new();
    for w in WORKLOADS {
        let out = Command::new(&exe)
            .args(["--workload", w, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .output()
            .map_err(|e| format!("running {w}: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        eprint!("{}", String::from_utf8_lossy(&out.stderr));
        let last = stdout.lines().last().unwrap_or_default().to_string();
        for line in stdout
            .lines()
            .take(stdout.lines().count().saturating_sub(1))
        {
            println!("{line}");
        }
        if !out.status.success() {
            return Err(format!("{w} exited with {}", out.status));
        }
        let parsed = cred_service::json::parse(&last).map_err(|e| format!("{w} result: {e}"))?;
        correct &= parsed.get("correct").and_then(|v| v.as_bool()) == Some(true);
        attempted += parsed
            .get("attempted")
            .and_then(|v| v.as_u64())
            .unwrap_or(0);
        failed += parsed.get("failed").and_then(|v| v.as_u64()).unwrap_or(0);
        if let Some(cred_service::json::Json::Obj(ms)) = parsed.get("metrics") {
            for (name, v) in ms {
                metrics.push(format!("\"{w}.{name}\": {}", v.to_compact()));
            }
        }
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    );
    Ok(())
}

/// A finite number for JSON (NaN or infinity would make the line invalid).
fn num(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

fn report(ctx: &Ctx, args: &Args, mut m: Measured) -> Result<(), String> {
    let summary = if m.op_us.is_empty() {
        return Err("the timed phase recorded no ops".into());
    } else {
        stats::summarize(&m.op_us)
    };
    let e2e: BTreeMap<&str, f64> = [
        (
            "throughput_ops_s",
            m.op_us.len() as f64 / (m.wall_s - m.stolen_s),
        ),
        ("latency_p50_us", summary.p50),
        ("latency_tail_mean_us", summary.tail_mean),
        ("setup_s", stats::median(&m.setup_s)),
        ("peak_rss_mb", peak_rss_mb()?),
    ]
    .into_iter()
    .collect();
    let error_rate = m.failed as f64 / m.attempted.max(1) as f64;

    println!(
        "{} seed={} seconds={} trace={} nproc={}",
        args.workload,
        ctx.seed,
        ctx.seconds,
        u8::from(args.trace),
        nproc()
    );
    for (name, unit) in END_TO_END {
        println!("  {name:<34} {:>16.4} {unit}", e2e[name]);
    }
    println!("  {:<34} {:>16.4} us", "latency_p99_us", summary.p99);
    println!("  {:<34} {:>16.6} ratio", "error_rate", error_rate);
    for (name, unit) in PER_LAYER.iter().filter(|_| args.trace) {
        println!(
            "  {name:<34} {:>16.4} {unit}",
            m.layers.get(name).copied().unwrap_or(0.0)
        );
    }
    for e in &m.errors {
        eprintln!("perfbench: {} op failed: {e}", args.workload);
    }

    let mut record = vec![
        ("workload", format!("\"{}\"", args.workload)),
        ("seed", ctx.seed.to_string()),
        ("seconds", ctx.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("nproc", nproc().to_string()),
        ("commit", format!("\"{}\"", commit(&ctx.root))),
        (
            "source_digest",
            format!("\"{:016x}\"", source_digest(&ctx.root)),
        ),
        ("wall_s", m.wall_s.to_string()),
        ("stolen_s", m.stolen_s.to_string()),
        ("passes", m.passes.to_string()),
        ("pass_len", m.pass_len.to_string()),
        ("ops", m.op_us.len().to_string()),
        ("samples", summary.samples.to_string()),
        ("latency_p99_us", summary.p99.to_string()),
        ("beyond_p99", summary.beyond_p99.to_string()),
        (
            "input_fingerprint",
            format!("\"{:016x}\"", m.input_fingerprint),
        ),
        (
            "pool_fingerprint",
            format!("\"{:016x}\"", m.pool_fingerprint),
        ),
        ("attempted", m.attempted.to_string()),
        ("failed", m.failed.to_string()),
        ("error_rate", num(error_rate).to_string()),
        (
            "setup_runs_s",
            format!(
                "[{}]",
                m.setup_s
                    .iter()
                    .map(|s| s.to_string())
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        ),
    ];
    record.extend(
        e2e.iter()
            .map(|(k, v)| (*k, num(*v).to_string()))
            .collect::<Vec<_>>(),
    );
    record.append(&mut m.record);
    if args.trace {
        for key in ["trace.overhead_ratio", "trace.span_coverage_ratio"] {
            record.push((
                key,
                num(m.layers.get(key).copied().unwrap_or(0.0)).to_string(),
            ));
        }
    }
    let record_json = format!(
        "{{{}}}",
        record
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect::<Vec<_>>()
            .join(", ")
    );
    println!("record {record_json}");

    let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let stem = format!("{}-trace{}", args.workload, u8::from(args.trace));
    std::fs::create_dir_all(&out_dir)
        .and_then(|()| std::fs::write(out_dir.join(format!("{stem}.record.json")), &record_json))
        .map_err(|e| format!("writing the run record: {e}"))?;
    if let Some(spans) = &m.spans {
        spans
            .write_tsv(&out_dir.join(format!("{}.spans.tsv", args.workload)))
            .map_err(|e| format!("writing spans: {e}"))?;
    }

    let metrics: Vec<String> = if args.trace {
        PER_LAYER
            .iter()
            .map(|(name, unit)| {
                let v = m.layers.get(name).copied().unwrap_or(0.0);
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    num(v)
                )
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|(name, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    num(e2e[name])
                )
            })
            .collect()
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        m.failed == 0 && m.attempted > 0,
        m.attempted,
        m.failed,
        metrics.join(", ")
    );
    Ok(())
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// VmHWM of this process, in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// The checked-out commit, read from `.git` without running git;
/// `unknown` outside a git checkout.
fn commit(root: &Path) -> String {
    let git = root.join(".git");
    let read = |p: PathBuf| std::fs::read_to_string(p).ok();
    let Some(head) = read(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(id) = read(git.join(reference)) {
        return id.trim().to_string();
    }
    read(git.join("packed-refs"))
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (id, name) = l.split_once(' ')?;
                (name == reference).then(|| id.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Hash of the sources the measured program is built from, so runs of
/// a checkout without git history still say which code they measured.
fn source_digest(root: &Path) -> u64 {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else {
                files.push(p);
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    for dir in ["crates", "compat", "kernels"] {
        walk(&root.join(dir), &mut files);
    }
    files.sort();
    let mut h = Fnv::default();
    for f in files {
        if let Ok(bytes) = std::fs::read(&f) {
            let rel = f.strip_prefix(root).unwrap_or(&f);
            h.str(&rel.to_string_lossy()).bytes(&bytes);
        }
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_lists_match_benchmark_json() {
        let spec = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root");
        let parsed = cred_service::json::parse(&spec).expect("valid JSON");
        let names = |key: &str| -> Vec<(String, String)> {
            parsed
                .get(key)
                .and_then(|v| v.as_arr())
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(|v| v.as_str()).unwrap().to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(&END_TO_END));
        assert_eq!(names("per_layer"), own(&PER_LAYER));
        let workloads: Vec<String> = parsed
            .get("workloads")
            .and_then(|v| v.as_arr())
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(|v| v.as_str()).unwrap().to_string())
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }
}
