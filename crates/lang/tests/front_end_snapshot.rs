//! Pins the front end byte for byte: for every bundled kernel, the parsed
//! graph (each node's name, time and op, each edge's endpoints and delay,
//! in id order) and its `unparse` text; and the exact message of every
//! parse and lowering error the probes below produce. The expected text
//! lives in `snapshots/front_end.txt`. A change to the parser, the lexer
//! or lowering that moves a node, an edge or a word of an error fails
//! here; on a mismatch the rendering is written next to the target
//! directory for a diff.

use std::fmt::Write as _;
use std::path::Path;

/// Sources that fail, one per error the front end reports: lexing,
/// syntax, range checks and lowering.
const ERROR_PROBES: &[&str] = &[
    // Lexing.
    "loop { A[i] = ?; }",
    "loop { A[i] = B[i] / 2; B[i] = 1; }",
    "loop {\n A[i] = B[i-99999999999999999999];\n B[i] = 1;\n}",
    // Syntax.
    "loop { A[i] = 1 }",
    "loop {\n A[i] = 1;\n B[i] = ;\n}",
    "loop { A[i] = B[i+1]; }",
    "loop { A[i-1] = B[i]; }",
    "loop { A[j] = 1; }",
    "{ A[i] = 1; }",
    "func { A[i] = 1; }",
    "loop { A[i] = 1; } extra",
    "loop { A[i] = 1;",
    "loop { A[i] = 1; B[i",
    "loop { A[i] = B[i-x]; }",
    "loop { A[i] = * 2; }",
    "loop { A 3 }",
    "",
    // Range checks on delays and times.
    "loop {\n B[i] = 1;\n A[i] = B[i-4294967297];\n}",
    "loop {\n A[i] = A[i-1] + 1 @4294967297;\n}",
    "loop { A[i] = A[i-1] + 1 @4294967296; }",
    "loop { A[i] = 1 @ 0; }",
    // Lowering.
    "loop { A[i] = B[i]; B[i] = A[i]; }",
    "loop { A[i] = 1; A[i] = 2; }",
    "loop {\n A[i] = Z[i-1];\n}",
    "loop { A[i] = B[i-1] + 2 * C[i-1]; B[i] = 1; C[i] = 1; }",
    "loop { A[i] = -B[i-1] - C[i-1]; B[i] = 1; C[i] = 1; }",
    "loop { A[i] = B[i-1] * C[i-1] - D[i-1]; B[i] = 1; C[i] = 1; D[i] = 1; }",
    "loop { }",
];

fn kernels_dir() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../kernels")
}

/// The snapshot text: every bundled kernel in name order, then every
/// error probe in list order.
fn render() -> String {
    let mut files: Vec<_> = std::fs::read_dir(kernels_dir())
        .expect("bundled kernels directory")
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "loop"))
        .collect();
    files.sort();
    let mut out = String::new();
    for path in &files {
        let name = path.file_stem().unwrap().to_string_lossy();
        let src = std::fs::read_to_string(path).expect("kernel source");
        let g = cred_lang::parse(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
        writeln!(out, "== kernel {name}").unwrap();
        for v in g.node_ids() {
            let nd = g.node(v);
            writeln!(
                out,
                "node {} {} t={} {:?}",
                v.index(),
                nd.name,
                nd.time,
                nd.op
            )
            .unwrap();
        }
        for e in g.edge_ids() {
            let ed = g.edge(e);
            let (src, dst) = (ed.src.index(), ed.dst.index());
            writeln!(out, "edge {} {src} -> {dst} d={}", e.index(), ed.delay).unwrap();
        }
        out.push_str("-- unparse\n");
        out.push_str(&cred_lang::unparse(&g));
    }
    for src in ERROR_PROBES {
        let err = cred_lang::parse(src).expect_err(src);
        writeln!(out, "== error {src:?}").unwrap();
        writeln!(out, "display: {err}").unwrap();
        writeln!(out, "debug: {err:?}").unwrap();
    }
    out
}

#[test]
fn front_end_output_matches_the_snapshot() {
    let want = include_str!("snapshots/front_end.txt");
    let got = render();
    if got != want {
        let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join("front_end.actual.txt");
        std::fs::write(&path, &got).expect("write the actual rendering");
        let line = got
            .lines()
            .zip(want.lines())
            .position(|(a, b)| a != b)
            .map_or(got.lines().count().min(want.lines().count()), |i| i);
        panic!(
            "front-end output differs from snapshots/front_end.txt at line {}; \
             the actual rendering is in {}",
            line + 1,
            path.display()
        );
    }
}
