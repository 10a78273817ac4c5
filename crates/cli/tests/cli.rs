//! Drive the real `credc` binary end-to-end on the shipped kernel files.

#[test]
fn credc_binary_runs() {
    // Drive the real binary on a shipped kernel file.
    let exe = env!("CARGO_BIN_EXE_credc");
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let out = std::process::Command::new(exe)
        .args(["analyze", &format!("{root}/kernels/figure3.loop")])
        .output()
        .expect("credc runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("minimum cycle period by retiming: 1"),
        "{stdout}"
    );
    assert!(stdout.contains("conditional registers: 4"), "{stdout}");

    let out = std::process::Command::new(exe)
        .args([
            "reduce",
            &format!("{root}/kernels/biquad.loop"),
            "--unfold",
            "3",
            "--n",
            "101",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("verified"), "{stdout}");

    // Bad input fails cleanly.
    let out = std::process::Command::new(exe)
        .args(["analyze", "/nonexistent.loop"])
        .output()
        .unwrap();
    assert!(!out.status.success());
}

#[test]
fn credc_exact_proves_ii_and_reads_machine_files() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let kernel = format!("{root}/kernels/biquad.loop");
    // Builtin model by name.
    let out = run(&["exact", &kernel, "--machine", "scalar"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("proven minimum initiation interval: 8"),
        "{stdout}"
    );
    assert!(stdout.contains("II 1: resource-cap"), "{stdout}");
    // Committed machine file by path; the II comes out identical to the
    // same model's builtin.
    let out = run(&[
        "exact",
        &kernel,
        "--machine",
        &format!("{root}/machines/scalar.mach"),
    ]);
    assert!(out.status.success(), "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("proven minimum initiation interval: 8"),
        "machine file drifted from builtin"
    );
    // Default is the unconstrained model: II equals the retiming bound.
    let out = run(&["exact", &kernel]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("lower bound): 3"), "{stdout}");
    assert!(
        stdout.contains("proven minimum initiation interval: 3"),
        "{stdout}"
    );
    // Unknown model name fails with a one-line typed diagnostic.
    assert_clean_failure(&run(&["exact", &kernel, "--machine", "dsp56k"]), "dsp56k");
}

#[test]
fn credc_verify_pins_machine_models() {
    let out = run(&["verify", "--cases", "25", "--machine", "vliw2"]);
    assert!(out.status.success(), "{out:?}");
    assert_clean_failure(
        &run(&["verify", "--cases", "1", "--machine", "nope"]),
        "nope",
    );
}

fn run(args: &[&str]) -> std::process::Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_credc"))
        .args(args)
        .output()
        .expect("credc runs")
}

/// One-line typed diagnostic, exit code 1, and no panic backtrace.
fn assert_clean_failure(out: &std::process::Output, needle: &str) {
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains(needle), "stderr missing '{needle}': {err}");
    assert!(err.starts_with("credc: "), "untyped diagnostic: {err}");
    assert!(!err.contains("panicked"), "panic leaked to stderr: {err}");
    assert_eq!(err.trim_end().lines().count(), 1, "not one line: {err}");
}

#[test]
fn malformed_kernel_fails_with_one_line_diagnostic() {
    let dir = std::env::temp_dir().join(format!("credc-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let bad = dir.join("garbage.loop");
    std::fs::write(&bad, "this is not a loop kernel {{{").unwrap();
    let badpath = bad.to_str().unwrap();
    for cmd in ["analyze", "reduce", "explore", "schedule"] {
        assert_clean_failure(&run(&[cmd, badpath]), "garbage.loop");
    }
    // The suite loader surfaces the same parse failure for directories.
    assert_clean_failure(&run(&["explore", dir.to_str().unwrap()]), "garbage.loop");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bad_flag_combinations_fail_with_typed_errors() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let kernel = format!("{root}/kernels/figure3.loop");
    let kernels_dir = format!("{root}/kernels");
    assert_clean_failure(
        &run(&["explore", &kernel, "--strict", "--degraded-ok"]),
        "mutually exclusive",
    );
    assert_clean_failure(
        &run(&["explore", &kernel, "--deadline-ms", "nope"]),
        "bad number",
    );
    assert_clean_failure(
        &run(&["explore", &kernel, "--deadline-ms", "0"]),
        "--deadline-ms must be at least 1",
    );
    assert_clean_failure(
        &run(&["explore", &kernels_dir, "--deadline-ms", "50"]),
        "not supported for directory sweeps",
    );
    assert_clean_failure(&run(&["explore", &kernel, "--max-unfold"]), "needs a value");
    assert_clean_failure(&run(&["reduce", &kernel, "--mode", "sideways"]), "sideways");
    assert_clean_failure(&run(&["frobnicate", &kernel]), "unknown command");
}

#[test]
fn explore_frontier_and_register_cap() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let kernel = format!("{root}/kernels/figure3.loop");
    // --frontier appends the non-dominated table with the maxlive column.
    let out = run(&["explore", &kernel, "--max-unfold", "3", "--frontier"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("non-dominated frontier"), "{stdout}");
    assert!(stdout.contains("maxlive"), "{stdout}");
    // An unsatisfiable register cap empties the frontier but still lists
    // every swept point.
    let out = run(&[
        "explore",
        &kernel,
        "--max-unfold",
        "3",
        "--frontier",
        "--max-registers",
        "0",
    ]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("total registers <= 0"), "{stdout}");
    assert!(stdout.contains("empty"), "{stdout}");
    // --json emits the v3 objectives object, not the flat registers key.
    let out = run(&["explore", &kernel, "--max-unfold", "2", "--json"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"objectives\""), "{stdout}");
    assert!(stdout.contains("\"maxlive\""), "{stdout}");
    assert!(stdout.contains("\"cond_registers\""), "{stdout}");
    assert!(!stdout.contains("\"registers\""), "{stdout}");
    assert_clean_failure(
        &run(&["explore", &kernel, "--max-registers", "many"]),
        "bad number",
    );
    // Every configuration needs a conditional register, so a budget of
    // none is an answer, not a crash.
    let out = run(&["explore", &kernel, "--registers", "0"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("no configuration fits 0 registers"),
        "{stdout}"
    );
}

#[test]
fn explore_accepts_resilience_flags() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let kernel = format!("{root}/kernels/figure3.loop");
    // A generous deadline on a tiny kernel: nothing degrades, exit 0,
    // and the table is identical to a plain sweep.
    let plain = run(&["explore", &kernel, "--max-unfold", "3"]);
    let budgeted = run(&[
        "explore",
        &kernel,
        "--max-unfold",
        "3",
        "--deadline-ms",
        "60000",
        "--strict",
    ]);
    assert!(budgeted.status.success(), "{budgeted:?}");
    assert_eq!(plain.stdout, budgeted.stdout);
    // --degraded-ok alone is accepted too.
    let ok = run(&["explore", &kernel, "--degraded-ok"]);
    assert!(ok.status.success(), "{ok:?}");
}

#[test]
fn serve_subcommand_runs_and_shuts_down_cleanly() {
    use std::io::{BufRead, BufReader, Write};

    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let dir = std::env::temp_dir().join(format!("credc-serve-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let dump = dir.join("metrics.json");
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_credc"))
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--kernels",
            &format!("{root}/kernels"),
            "--metrics-dump",
            dump.to_str().unwrap(),
        ])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("credc serve starts");
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let mut line = String::new();
    stdout.read_line(&mut line).unwrap();
    let addr = line
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected readiness line: {line}"))
        .to_string();

    let stream = std::net::TcpStream::connect(&addr).expect("connect to credc serve");
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut stream = stream;
    let mut request = |line: &str| {
        stream.write_all(line.as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
        let mut resp = String::new();
        reader.read_line(&mut resp).unwrap();
        resp
    };
    let resp = request("{\"type\":\"explore\",\"kernel\":\"figure3\",\"max_f\":2,\"n\":31}");
    assert!(resp.contains("\"ok\":true"), "{resp}");
    assert!(resp.contains("\"schema_version\":3"), "{resp}");
    let resp = request("{\"type\":\"shutdown\"}");
    assert!(resp.contains("\"ok\":true"), "{resp}");

    let status = child.wait().expect("credc serve exits");
    assert!(status.success(), "server must exit cleanly: {status:?}");
    let dumped = std::fs::read_to_string(&dump).expect("metrics dump written");
    assert!(dumped.contains("\"explore_computes\":1"), "{dumped}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_rejects_bad_flags_with_typed_errors() {
    assert_clean_failure(&run(&["serve", "--workers", "0"]), "--workers must be");
    assert_clean_failure(&run(&["serve", "--cache-cap", "0"]), "--cache-cap must be");
    assert_clean_failure(
        &run(&["serve", "--deadline-ms", "0"]),
        "--deadline-ms must be at least 1",
    );
    assert_clean_failure(
        &run(&["serve", "--kernels", "/nonexistent-kernels"]),
        "is not a directory",
    );
}

#[test]
fn verify_subcommand_runs_on_both_executors() {
    // Same seed, same oracle — only the VM backend differs, so both runs
    // must come out clean and report the same case/program tallies.
    let tape = run(&["verify", "--cases", "10", "--seed", "3"]);
    assert!(tape.status.success(), "{tape:?}");
    let tape_out = String::from_utf8_lossy(&tape.stdout);
    assert!(tape_out.contains("on the tape executor"), "{tape_out}");
    let tree = run(&[
        "verify",
        "--cases",
        "10",
        "--seed",
        "3",
        "--executor",
        "tree",
    ]);
    assert!(tree.status.success(), "{tree:?}");
    let tree_out = String::from_utf8_lossy(&tree.stdout);
    assert!(tree_out.contains("on the tree executor"), "{tree_out}");
    assert_eq!(
        tape_out.replace("tape", "tree"),
        tree_out.as_ref(),
        "backends must report identical tallies"
    );
    assert_clean_failure(&run(&["verify", "--executor", "sideways"]), "sideways");
}

#[test]
fn chaos_subcommand_is_sound_and_quiet() {
    let out = run(&["chaos", "--cases", "15", "--seed", "0"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("0 silent corruption(s)"), "{stdout}");
    // Isolated injected panics must not spray backtraces.
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
}
