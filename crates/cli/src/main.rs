//! `credc` — drive the CRED framework from loop-kernel source files.
//!
//! ```text
//! credc analyze  <file.loop>                      graph analyses
//! credc reduce   <file.loop> [options]            generate + verify + print
//! credc explore  <file.loop|dir> [options]        design-space exploration
//! credc schedule <file.loop> [--alu N] [--mul N]  rotation scheduling
//! credc exact    <file.loop> [--machine M]        exact modulo scheduling
//! credc verify   [options]                        differential fuzzing
//! credc chaos    [options]                        fault-injection replay
//! credc serve    [options]                        evaluation server
//! credc call     [options]                        one request to a server
//! ```
//!
//! Options for `reduce`:
//!   --n N           trip count (default 101, at most 2^20)
//!   --unfold F      unfolding factor (default 1, at most 65536)
//!   --mode M        percopy | bulk (default bulk)
//!   --print         print the generated programs
//! Options for `explore` (a directory sweeps every `*.loop` inside it):
//!   --n N           trip count (default 101, at most 2^40)
//!   --budget L      code-size budget (instructions)
//!   --registers P   conditional-register budget
//!   --max-registers R  total-register cap (conditional + maxlive) for
//!                   the frontier; points over the cap are listed but
//!                   excluded from the non-dominated set
//!   --frontier      also print the four-axis non-dominated frontier
//!                   (code size, period, conditional registers, maxlive)
//!   --max-unfold F  largest factor to consider (default 4, at most 16)
//!   --parallel T    worker threads for the memoized sweep (default 1)
//!   --json          emit the machine-readable suite report instead of tables
//!   --deadline-ms D wall-clock budget for the sweep's solves; on
//!                   exhaustion the sweep degrades (reference solver or
//!                   truncated coverage) instead of hanging
//!   --strict        exit 2 when any point degraded
//!   --degraded-ok   exit 0 on degradations (mutually exclusive with
//!                   --strict); either way degradations are printed
//! Options for `exact` (prove the minimum initiation interval under
//! resource constraints; see DESIGN.md "Exact scheduling"):
//!   --machine M     builtin model name (unconstrained | scalar | vliw2 |
//!                   vliw4) or a path to a `.mach` machine file
//!                   (default unconstrained)
//! Options for `verify` (see `cred-verify`; exit code 1 on any mismatch):
//!   --cases N       random cases to draw (default 200)
//!   --seed S        seed of the deterministic case stream (default 0)
//!   --machine M     pin every fuzz case to this machine model (builtin
//!                   name or `.mach` path) instead of sampling one per
//!                   case
//!   --shrink        minimize each failure before reporting it
//!   --corpus DIR    replay DIR/*.case first; with --shrink, save new
//!                   shrunk failures there
//!   --executor E    tape (compile to a flat instruction tape; default)
//!                   or tree (the tree-walking reference interpreter) —
//!                   same oracle, so `tree` cross-checks the compiler
//! Options for `chaos` (replay the oracle under seeded fault plans; exit
//! code 1 on any silent corruption — degradations and isolated panics
//! are the expected outcome under injection):
//!   --cases N       fault plans to replay (default 100)
//!   --seed S        seed of the case *and* plan streams (default 0)
//! Options for `serve` (long-running NDJSON-over-TCP evaluation server;
//! see DESIGN.md "Service" for the protocol):
//!   --addr A         bind address (default 127.0.0.1:7878; :0 = any port)
//!   --workers W      worker threads (default 4)
//!   --cache-cap C    shared plan-cache capacity (default 1024)
//!   --deadline-ms D  default per-request deadline (default: unlimited)
//!   --kernels DIR    serve DIR/*.loop by name (default: kernels/ if present)
//!   --max-inflight M explore requests admitted concurrently; beyond M the
//!                    server sheds with a typed `overloaded` error
//!                    (default 512)
//!   --metrics-dump F write a final metrics snapshot to F on shutdown
//!   --idle-timeout-ms I      close connections idle between requests for
//!                            I ms (default 60000; 0 disables)
//!   --progress-timeout-ms P  close connections that sit on a partial
//!                            request line or an undrainable response for
//!                            P ms (default 10000; 0 disables)
//! Options for `call` (send one NDJSON request line through the resilient
//! retrying client and print the response line; exit 1 when every retry
//! is exhausted):
//!   --addr A        server address (default 127.0.0.1:7878)
//!   --line L        the request line (default {"type":"ping"})
//!   --attempts N    retry budget across reconnects (default 24)
//!   --timeout-ms T  per-attempt read timeout (default 5000)
//!
//! Exit codes: 0 success, 1 error/failure, 2 degraded (under `--strict`).

use cred_codegen::pretty::render;
use cred_codegen::DecMode;
use cred_core::{CodeSizeReducer, ReducerConfig};
use cred_dfg::{algo, Dfg, MachineModel};
use cred_explore::{ExploreRequest, MAX_MAX_F, MAX_N};
use cred_schedule::{list_schedule, rotation_schedule};
use cred_service::{ClientConfig, ResilientClient, Server, ServiceConfig};
use std::process::ExitCode;
use std::time::Duration;

/// Exit code for "the answer is correct but something gave way on the
/// road there" (degraded sweep under `--strict`). Distinct from plain
/// failure so scripts can tell the two apart.
const EXIT_DEGRADED: u8 = 2;

/// Largest `reduce --unfold`. `reduce` generates and VM-verifies the
/// unfolded programs, whose size grows with the factor.
const MAX_REDUCE_F: u64 = 1 << 16;

/// Largest `reduce --n`. The VM holds every element of every array.
const MAX_REDUCE_N: u64 = 1 << 20;

/// `print!` that never panics: a stdout whose reader has gone away
/// (`credc explore kernels | head -1`) ends the process quietly with
/// status 0, and any other write error ends it with status 1 and a
/// `credc:` message.
macro_rules! out {
    ($($arg:tt)*) => {
        write_stdout(format_args!($($arg)*))
    };
}

/// [`out!`] with a trailing newline, like `println!`.
macro_rules! outln {
    () => {
        out!("\n")
    };
    ($($arg:tt)*) => {
        out!("{}\n", format_args!($($arg)*))
    };
}

fn write_stdout(args: std::fmt::Arguments<'_>) {
    use std::io::Write;
    if let Err(e) = std::io::stdout().write_fmt(args) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("credc: writing stdout: {e}");
        std::process::exit(1);
    }
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("credc: {msg}");
    ExitCode::FAILURE
}

struct Args {
    flags: Vec<(String, Option<String>)>,
}

impl Args {
    fn parse(raw: &[String]) -> Result<Args, String> {
        let mut flags = Vec::new();
        let mut it = raw.iter().peekable();
        while let Some(a) = it.next() {
            if let Some(name) = a.strip_prefix("--") {
                let value = if matches!(
                    name,
                    "print" | "json" | "shrink" | "strict" | "degraded-ok" | "frontier"
                ) {
                    None
                } else {
                    Some(
                        it.next()
                            .ok_or_else(|| format!("--{name} needs a value"))?
                            .clone(),
                    )
                };
                flags.push((name.to_string(), value));
            } else {
                return Err(format!("unexpected argument '{a}'"));
            }
        }
        Ok(Args { flags })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    fn get_u64(&self, name: &str, default: u64) -> Result<u64, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{name}: bad number '{v}'")),
        }
    }
}

fn load(path: &str) -> Result<Dfg, String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    cred_lang::parse(&src).map_err(|e| format!("{path}: {e}"))
}

fn cmd_analyze(g: &Dfg) -> Result<(), String> {
    outln!(
        "nodes: {}   edges: {}   delays: {}",
        g.node_count(),
        g.edge_count(),
        g.total_delays()
    );
    let period = algo::cycle_period(g)
        .ok_or_else(|| "graph has a zero-delay cycle (not a legal DFG)".to_string())?;
    outln!("cycle period (unretimed): {period}");
    match algo::iteration_bound(g) {
        Some(b) => outln!("iteration bound: {b} (= {:.3})", b.to_f64()),
        None => outln!("iteration bound: none (acyclic)"),
    }
    let opt = cred_retime::min_period_retiming(g);
    outln!("minimum cycle period by retiming: {}", opt.period);
    let r = cred_retime::span::compact_values(g, opt.period, &opt.retiming);
    outln!(
        "M_r (pipeline depth): {}   conditional registers: {}",
        r.max_value(),
        r.register_count()
    );
    out!("retiming:");
    for v in g.node_ids() {
        out!(" {}={}", g.node(v).name, r.get(v));
    }
    outln!();
    Ok(())
}

fn cmd_reduce(g: Dfg, args: &Args) -> Result<(), String> {
    let n = args.get_u64("n", 101)?;
    if n > MAX_REDUCE_N {
        return Err(format!("--n must be at most {MAX_REDUCE_N}"));
    }
    let f = args.get_u64("unfold", 1)?;
    if !(1..=MAX_REDUCE_F).contains(&f) {
        return Err(format!("--unfold must be between 1 and {MAX_REDUCE_F}"));
    }
    let f = f as usize;
    let mode = match args.get("mode").unwrap_or("bulk") {
        "bulk" => DecMode::Bulk,
        "percopy" => DecMode::PerCopy,
        m => return Err(format!("--mode: '{m}' (expected bulk|percopy)")),
    };
    let red = CodeSizeReducer::new(g)
        .with_config(ReducerConfig {
            unfold_factor: f,
            trip_count: n,
            dec_mode: mode,
            verify: true,
        })
        .run()
        .map_err(|e| format!("verification failed: {e}"))?;
    outln!("all programs verified against the loop recurrence (n = {n})\n");
    for (name, size) in red.sizes() {
        outln!("{name:>20}: {size:>5} instructions");
    }
    outln!("\nreduction: {:.1}%", red.reduction_percent());
    if args.has("print") {
        outln!("\n{}", render(&red.pipelined));
        outln!("{}", render(&red.cred));
        if let Some(p) = &red.cred_retime_unfold {
            outln!("{}", render(p));
        }
    }
    Ok(())
}

/// `explore`'s `(n, max_f, threads)`, range-checked before any sweep:
/// the `--budget` and `--registers` searches do not go through
/// [`ExploreRequest`]'s own checks.
fn explore_params(args: &Args) -> Result<(u64, usize, usize), String> {
    let n = args.get_u64("n", 101)?;
    if n > MAX_N {
        return Err(format!("--n must be at most {MAX_N}"));
    }
    let max_f = args.get_u64("max-unfold", 4)?;
    if !(1..=MAX_MAX_F as u64).contains(&max_f) {
        return Err(format!("--max-unfold must be between 1 and {MAX_MAX_F}"));
    }
    let max_f = max_f as usize;
    let threads = args.get_u64("parallel", 1)? as usize;
    if threads < 1 {
        return Err("--parallel must be at least 1".into());
    }
    Ok((n, max_f, threads))
}

fn print_points(points: &[cred_explore::ParetoPoint]) {
    outln!(
        "{:>3} {:>6} {:>11} {:>10} {:>12} {:>8} {:>8}",
        "f",
        "M_r",
        "plain size",
        "CRED size",
        "period",
        "P_r",
        "maxlive"
    );
    for p in points {
        outln!(
            "{:>3} {:>6} {:>11} {:>10} {:>12} {:>8} {:>8}",
            p.f,
            p.m_r,
            p.plain_size,
            p.objectives.cred_size,
            p.objectives.iteration_period.to_string(),
            p.objectives.cond_registers,
            p.objectives.maxlive
        );
    }
}

/// `explore` on a directory: sweep every `*.loop` kernel in one batch,
/// sharing one plan cache across the suite.
fn cmd_explore_suite(dir: &std::path::Path, args: &Args) -> Result<(), String> {
    let (n, max_f, threads) = explore_params(args)?;
    for flag in ["deadline-ms", "strict", "degraded-ok"] {
        if args.has(flag) {
            return Err(format!("--{flag} is not supported for directory sweeps"));
        }
    }
    let kernels = cred_explore::suite::load_kernels(dir).map_err(|e| e.to_string())?;
    if kernels.is_empty() {
        return Err(format!("{}: no .loop kernels found", dir.display()));
    }
    let report = cred_explore::suite::explore_suite(&kernels, max_f, n, DecMode::Bulk, threads);
    if args.has("json") {
        out!("{}", report.to_json());
        return Ok(());
    }
    for k in &report.kernels {
        outln!("== {} ({} nodes)", k.name, k.nodes);
        print_points(&k.points);
        outln!();
    }
    outln!(
        "plan cache: {} solves, {} hits",
        report.cache_misses,
        report.cache_hits
    );
    Ok(())
}

/// Resilience options of `explore`: wall-clock budget plus how degraded
/// runs map to exit codes. `--strict` and `--degraded-ok` are mutually
/// exclusive; without either, degradations are printed and exit 0 (the
/// answers are still bit-identical, only the road there gave way).
struct ResilienceOpts {
    deadline: Option<Duration>,
    strict: bool,
}

fn resilience_opts(args: &Args) -> Result<ResilienceOpts, String> {
    if args.has("strict") && args.has("degraded-ok") {
        return Err("--strict and --degraded-ok are mutually exclusive".into());
    }
    let mut deadline = None;
    if let Some(ms) = args.get("deadline-ms") {
        let ms: u64 = ms
            .parse()
            .map_err(|_| format!("--deadline-ms: bad number '{ms}'"))?;
        if ms == 0 {
            return Err("--deadline-ms must be at least 1".into());
        }
        deadline = Some(Duration::from_millis(ms));
    }
    Ok(ResilienceOpts {
        deadline,
        strict: args.has("strict"),
    })
}

fn cmd_explore(path: &str, g: &Dfg, args: &Args) -> Result<ExitCode, String> {
    let (n, max_f, threads) = explore_params(args)?;
    let opts = resilience_opts(args)?;
    if args.has("json") {
        let name = std::path::Path::new(path)
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| path.to_string());
        let kernels = vec![(name, g.clone())];
        let report = cred_explore::suite::explore_suite(&kernels, max_f, n, DecMode::Bulk, threads);
        out!("{}", report.to_json());
        return Ok(ExitCode::SUCCESS);
    }
    let mut request = ExploreRequest::new(g.clone())
        .max_f(max_f)
        .trip_count(n)
        .threads(threads)
        .strict(opts.strict);
    if let Some(cap) = args.get("max-registers") {
        let cap: usize = cap
            .parse()
            .map_err(|_| "--max-registers: bad number".to_string())?;
        request = request.max_registers(cap);
    }
    if let Some(d) = opts.deadline {
        request = request.deadline(d);
    }
    let resp = request.run_with(&cred_explore::cache::SweepCache::new());
    let resp = match resp {
        Ok(resp) => resp,
        Err(e) => {
            eprintln!("credc: {e}");
            return Ok(ExitCode::from(e.exit_code()));
        }
    };
    let report = &resp.report;
    print_points(&resp.points);
    if args.has("frontier") {
        match resp.opts.max_registers {
            Some(cap) => outln!("\nnon-dominated frontier (total registers <= {cap}):"),
            None => outln!("\nnon-dominated frontier:"),
        }
        if resp.frontier.is_empty() {
            outln!("  (empty: every point exceeds the register cap)");
        } else {
            print_points(&resp.frontier);
        }
    }
    for o in report.degraded() {
        if let cred_explore::PointStatus::Degraded(ev) = &o.status {
            eprintln!("credc: degraded: {ev}");
        }
    }
    for o in report.failed() {
        if let cred_explore::PointStatus::Failed(msg) = &o.status {
            eprintln!("credc: failed: f = {}: {msg}", o.f);
        }
    }
    if !report.failed().is_empty() {
        return Err(format!(
            "{} of {} sweep point(s) failed",
            report.failed().len(),
            max_f
        ));
    }
    if let Some(budget) = args.get("budget") {
        let budget: usize = budget
            .parse()
            .map_err(|_| "--budget: bad number".to_string())?;
        match cred_explore::best_under_code_budget(g, budget, max_f, n, DecMode::Bulk) {
            Some(p) => outln!(
                "\nbest under {budget} instructions: f = {}, period {}, size {}",
                p.f,
                p.objectives.iteration_period,
                p.objectives.cred_size
            ),
            None => outln!("\nno configuration fits {budget} instructions"),
        }
    }
    if let Some(regs) = args.get("registers") {
        let regs: usize = regs
            .parse()
            .map_err(|_| "--registers: bad number".to_string())?;
        match cred_explore::best_under_register_budget(g, regs, max_f, n, DecMode::Bulk) {
            Some(p) => outln!(
                "best under {regs} registers: f = {}, period {}, uses {}",
                p.f,
                p.objectives.iteration_period,
                p.objectives.cond_registers
            ),
            None => outln!("no configuration fits {regs} registers"),
        }
    }
    let degraded = report.degraded().len();
    if degraded > 0 {
        eprintln!("credc: {degraded} of {max_f} sweep point(s) degraded");
        if opts.strict {
            return Ok(ExitCode::from(EXIT_DEGRADED));
        }
    }
    Ok(ExitCode::SUCCESS)
}

/// A unit count flag: `1..=u32::MAX`, the range a machine model holds.
fn unit_count(args: &Args, name: &str, default: u64) -> Result<u32, String> {
    u32::try_from(args.get_u64(name, default)?)
        .ok()
        .filter(|&n| n >= 1)
        .ok_or_else(|| format!("--{name} must be between 1 and {}", u32::MAX))
}

fn cmd_schedule(g: &Dfg, args: &Args) -> Result<(), String> {
    let alu = unit_count(args, "alu", 2)?;
    let mul = unit_count(args, "mul", 1)?;
    let machine = MachineModel::with_units(alu, mul);
    let init = list_schedule(g, &machine);
    let rot = rotation_schedule(g, &machine, g.node_count() * 8);
    outln!("machine: {alu} ALU, {mul} MUL");
    outln!("list schedule: {} control steps", init.length());
    outln!("after rotation scheduling: {} control steps", rot.length);
    out!("rotation retiming:");
    for v in g.node_ids() {
        out!(" {}={}", g.node(v).name, rot.retiming.get(v));
    }
    outln!();
    Ok(())
}

/// Resolve a `--machine` argument: a builtin model name, or a path to a
/// `.mach` machine-description file.
fn resolve_machine(spec: &str) -> Result<MachineModel, String> {
    if let Some(m) = MachineModel::builtin(spec) {
        return Ok(m);
    }
    let path = std::path::Path::new(spec);
    if !path.exists() {
        return Err(format!(
            "--machine: '{spec}' is neither a builtin model ({}) nor a readable file",
            MachineModel::BUILTIN_NAMES.join(" | ")
        ));
    }
    let text = std::fs::read_to_string(path).map_err(|e| format!("{spec}: {e}"))?;
    MachineModel::parse(&text).map_err(|e| format!("{spec}: {e}"))
}

/// `credc exact`: prove the kernel's minimum initiation interval on a
/// machine model and show the schedule plus the per-rung infeasibility
/// witnesses that certify optimality.
fn cmd_exact(g: &Dfg, args: &Args) -> Result<(), String> {
    let machine = resolve_machine(args.get("machine").unwrap_or("unconstrained"))?;
    let lower = cred_exact::retiming_bound(g, &machine);
    let sched = cred_exact::exact_schedule(g, &machine);
    cred_exact::check::check_schedule(g, &machine, &sched)
        .map_err(|e| format!("schedule failed independent validation: {e}"))?;
    outln!("machine: {}", machine.name);
    outln!("retiming-only period (resource-blind lower bound): {lower}");
    outln!("proven minimum initiation interval: {}", sched.ii);
    outln!(
        "\n{:>12} {:>6} {:>6} {:>6}",
        "node",
        "stage",
        "slot",
        "time"
    );
    for v in g.node_ids() {
        outln!(
            "{:>12} {:>6} {:>6} {:>6}",
            g.node(v).name,
            sched.stage[v.index()],
            sched.slot[v.index()],
            machine.op_time(g, v)
        );
    }
    if sched.rejected.is_empty() {
        outln!("\nII 1 is feasible; no smaller interval exists.");
    } else {
        outln!("\ninfeasibility certificates for every smaller interval:");
        for rung in &sched.rejected {
            outln!("  II {}: {}", rung.ii, rung.witness);
        }
    }
    Ok(())
}

/// `credc verify`: replay the committed corpus, then fuzz the full
/// transformation pipeline against the VM and the closed-form size
/// theorems. Any mismatch is a nonzero exit.
fn cmd_verify(args: &Args) -> Result<(), String> {
    let cases = args.get_u64("cases", 200)? as usize;
    let seed = args.get_u64("seed", 0)?;
    let corpus_dir = args.get("corpus").map(std::path::PathBuf::from);
    let executor = match args.get("executor").unwrap_or("tape") {
        "tape" => cred_verify::Executor::Tape,
        "tree" => cred_verify::Executor::Tree,
        other => return Err(format!("--executor: 'tape' or 'tree', not '{other}'")),
    };
    let machine = args.get("machine").map(resolve_machine).transpose()?;

    let mut failures = 0usize;
    if let Some(dir) = &corpus_dir {
        if !dir.is_dir() {
            return Err(format!("--corpus: {} is not a directory", dir.display()));
        }
        let corpus = cred_verify::corpus::load_dir(dir)?;
        for case in &corpus {
            if let Err(e) = cred_verify::verify_case_on(case, executor) {
                eprintln!("corpus {case}\n  {e}");
                failures += 1;
            }
        }
        outln!(
            "corpus: {} case(s) replayed, {} failure(s)",
            corpus.len(),
            failures
        );
    }

    let report = cred_verify::fuzz_suite(&cred_verify::FuzzConfig {
        cases,
        seed,
        case: cred_verify::CaseConfig {
            machine,
            ..cred_verify::CaseConfig::default()
        },
        shrink_failures: args.has("shrink"),
        executor,
    });
    outln!(
        "fuzz: {} case(s) on the {} executor (seed {seed}; {} retime-unfold, {} unfold-retime), \
         {} program(s) executed and diffed, {} failure(s)",
        report.cases_run,
        match executor {
            cred_verify::Executor::Tape => "tape",
            cred_verify::Executor::Tree => "tree",
        },
        report.by_order[0],
        report.by_order[1],
        report.programs_checked,
        report.failures.len()
    );
    for f in &report.failures {
        eprintln!("FAIL {}\n  {}", f.case, f.error);
        if let Some((small, err)) = &f.shrunk {
            eprintln!("  shrunk to {small}\n  {err}");
            if let Some(dir) = &corpus_dir {
                let path = dir.join(format!("{}.case", small.label));
                cred_verify::corpus::save_case(small, &path).map_err(|e| e.to_string())?;
                eprintln!("  saved reproducer to {}", path.display());
            }
        }
    }
    failures += report.failures.len();
    if failures > 0 {
        return Err(format!("{failures} verification failure(s)"));
    }
    Ok(())
}

/// `credc chaos`: replay the differential oracle under seeded fault
/// plans. Degradations and isolated panics are the *expected* outcome
/// under injection; the only failure is a silent corruption (a run that
/// passed with answers differing from its fault-free baseline).
fn cmd_chaos(args: &Args) -> Result<(), String> {
    let cases = args.get_u64("cases", 100)? as usize;
    let seed = args.get_u64("seed", 0)?;
    let report = cred_verify::chaos_suite(&cred_verify::ChaosConfig {
        cases,
        seed,
        ..cred_verify::ChaosConfig::default()
    });
    outln!(
        "chaos: {} fault plan(s) replayed (seed {seed}): {} clean, {} degraded, \
         {} faulted (isolated), {} silent corruption(s)",
        report.cases_run,
        report.clean,
        report.degraded,
        report.faulted,
        report.corruptions().len()
    );
    for c in &report.incidents {
        if c.outcome.is_corruption() {
            eprintln!("CORRUPTION {c}");
        }
    }
    if !report.is_sound() {
        return Err(format!(
            "{} silent corruption(s) — a fault changed an answer without raising an error",
            report.corruptions().len()
        ));
    }
    Ok(())
}

/// `credc serve`: run the evaluation server until a client sends a
/// `shutdown` request. Prints one `listening on ADDR` line once the
/// socket is bound, so scripts can wait for readiness.
fn cmd_serve(args: &Args) -> Result<(), String> {
    let workers = args.get_u64("workers", 4)? as usize;
    let cache_cap = args.get_u64("cache-cap", 1024)? as usize;
    let max_in_flight = args.get_u64("max-inflight", 512)? as usize;
    if workers < 1 {
        return Err("--workers must be at least 1".into());
    }
    if cache_cap < 1 {
        return Err("--cache-cap must be at least 1".into());
    }
    if max_in_flight < 1 {
        return Err("--max-inflight must be at least 1".into());
    }
    let mut default_deadline = None;
    if let Some(ms) = args.get("deadline-ms") {
        let ms: u64 = ms
            .parse()
            .map_err(|_| format!("--deadline-ms: bad number '{ms}'"))?;
        if ms == 0 {
            return Err("--deadline-ms must be at least 1".into());
        }
        default_deadline = Some(Duration::from_millis(ms));
    }
    // Named kernels: an explicit --kernels dir must exist; without the
    // flag, kernels/ is picked up when present and skipped when not.
    let kernels_dir = match args.get("kernels") {
        Some(dir) => {
            let dir = std::path::PathBuf::from(dir);
            if !dir.is_dir() {
                return Err(format!("--kernels: {} is not a directory", dir.display()));
            }
            Some(dir)
        }
        None => {
            let default = std::path::PathBuf::from("kernels");
            default.is_dir().then_some(default)
        }
    };
    // Lifecycle deadlines: 0 disables a clock, absent keeps the default.
    let defaults = ServiceConfig::default();
    let lifecycle = |name: &str, default: Option<Duration>| -> Result<Option<Duration>, String> {
        match args.get(name) {
            None => Ok(default),
            Some(v) => {
                let ms: u64 = v
                    .parse()
                    .map_err(|_| format!("--{name}: bad number '{v}'"))?;
                Ok((ms > 0).then(|| Duration::from_millis(ms)))
            }
        }
    };
    let idle_timeout = lifecycle("idle-timeout-ms", defaults.idle_timeout)?;
    let progress_timeout = lifecycle("progress-timeout-ms", defaults.progress_timeout)?;
    let server = Server::bind(ServiceConfig {
        addr: args.get("addr").unwrap_or("127.0.0.1:7878").to_string(),
        workers,
        cache_capacity: cache_cap,
        default_deadline,
        kernels_dir,
        metrics_dump: args.get("metrics-dump").map(std::path::PathBuf::from),
        max_in_flight,
        idle_timeout,
        progress_timeout,
    })
    .map_err(|e| e.to_string())?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    outln!("listening on {addr}");
    server.run().map_err(|e| e.to_string())
}

/// `credc call`: one request line through the resilient client. The
/// retry/backoff/breaker policy is the same one `loadgen` uses, so a
/// scripted `credc call` survives the transient faults a bare `nc`
/// would report as failures.
fn cmd_call(args: &Args) -> Result<(), String> {
    let addr = args.get("addr").unwrap_or("127.0.0.1:7878").to_string();
    let line = args.get("line").unwrap_or("{\"type\":\"ping\"}");
    let attempts = args.get_u64("attempts", 24)?;
    if attempts < 1 {
        return Err("--attempts must be at least 1".into());
    }
    let timeout_ms = args.get_u64("timeout-ms", 5000)?;
    if timeout_ms < 1 {
        return Err("--timeout-ms must be at least 1".into());
    }
    let mut client = ResilientClient::new(
        addr,
        ClientConfig {
            max_attempts: attempts as u32,
            read_timeout: Duration::from_millis(timeout_ms),
            ..ClientConfig::default()
        },
    );
    let response = client.request(line).map_err(|e| e.to_string())?;
    outln!("{}", response.trim_end());
    let stats = client.stats();
    if stats.retries > 0 {
        eprintln!(
            "credc call: delivered after {} retries ({} reconnects)",
            stats.retries, stats.reconnects
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        return fail(
            "usage: credc <analyze|reduce|explore|schedule|exact|verify|chaos|serve|call> <file.loop> [options]",
        );
    };
    // `verify`, `chaos`, `serve`, and `call` take options but no input file.
    if cmd == "verify" || cmd == "chaos" || cmd == "serve" || cmd == "call" {
        let run = match cmd.as_str() {
            "verify" => cmd_verify,
            "chaos" => cmd_chaos,
            "call" => cmd_call,
            _ => cmd_serve,
        };
        return match Args::parse(rest).and_then(|args| run(&args)) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => fail(&e),
        };
    }
    let Some((path, raw_flags)) = rest.split_first() else {
        return fail("missing input file");
    };
    let args = match Args::parse(raw_flags) {
        Ok(a) => a,
        Err(e) => return fail(&e),
    };
    if cmd == "explore" && std::path::Path::new(path).is_dir() {
        return match cmd_explore_suite(std::path::Path::new(path), &args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => fail(&e),
        };
    }
    let g = match load(path) {
        Ok(g) => g,
        Err(e) => return fail(&e),
    };
    let result = match cmd.as_str() {
        "analyze" => cmd_analyze(&g).map(|()| ExitCode::SUCCESS),
        "reduce" => cmd_reduce(g, &args).map(|()| ExitCode::SUCCESS),
        "explore" => cmd_explore(path, &g, &args),
        "schedule" => cmd_schedule(&g, &args).map(|()| ExitCode::SUCCESS),
        "exact" => cmd_exact(&g, &args).map(|()| ExitCode::SUCCESS),
        other => Err(format!("unknown command '{other}'")),
    };
    match result {
        Ok(code) => code,
        Err(e) => fail(&e),
    }
}
