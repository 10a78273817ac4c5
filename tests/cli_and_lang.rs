//! Integration tests for the language frontend and the shipped kernel
//! sources: every `.loop` file in `kernels/` parses, analyzes, reduces,
//! and verifies end-to-end; unparsing the benchmark graphs round-trips.

use cred::core::{CodeSizeReducer, ReducerConfig};
use cred::kernels::all_benchmarks;
use cred_lang::{parse, unparse};

#[test]
fn shipped_kernel_files_reduce_end_to_end() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/kernels");
    let mut found = 0;
    for entry in std::fs::read_dir(dir).expect("kernels/ directory exists") {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("loop") {
            continue;
        }
        found += 1;
        let src = std::fs::read_to_string(&path).unwrap();
        let g = parse(&src).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let red = CodeSizeReducer::new(g)
            .with_config(ReducerConfig {
                trip_count: 31,
                unfold_factor: 2,
                ..Default::default()
            })
            .run()
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert!(red.cred.code_size() <= red.pipelined.code_size());
    }
    assert!(found >= 3, "expected shipped kernel files");
}

#[test]
fn figure3_loop_file_matches_paper_retiming() {
    let src = include_str!("../kernels/figure3.loop");
    let g = parse(src).unwrap();
    assert_eq!(g.node_count(), 5);
    let opt = cred::retime::min_period_retiming(&g);
    assert_eq!(opt.period, 1);
    let r = cred::retime::retime_to_period(&g, 1).unwrap();
    // The paper's Figure 3 retiming: r = {A:3, B:2, C:2, D:1, E:0}.
    let vals: Vec<i64> = g.node_ids().map(|v| r.get(v)).collect();
    assert_eq!(vals, vec![3, 2, 2, 1, 0]);
}

#[test]
fn benchmark_graphs_unparse_and_reparse() {
    use cred::dfg::OpKind;
    // A single-input Mul(c)/Mac(c) evaluates exactly like Add(c), and the
    // textual form cannot distinguish them; compare ops up to that
    // canonicalization.
    let canon = |op: OpKind, fan_in: usize| match (op, fan_in) {
        (OpKind::Mul(c), 0 | 1) | (OpKind::Mac(c), 0 | 1) => OpKind::Add(c),
        (op, _) => op,
    };
    for (name, g) in all_benchmarks() {
        let text = unparse(&g);
        let g2 = parse(&text).unwrap_or_else(|e| panic!("{name}: {e}\n{text}"));
        assert_eq!(g.node_count(), g2.node_count(), "{name}");
        assert_eq!(g.edge_count(), g2.edge_count(), "{name}");
        for v in g.node_ids() {
            let fan_in = g.in_edges(v).len();
            assert_eq!(
                canon(g.node(v).op, fan_in),
                canon(g2.node(v).op, fan_in),
                "{name}/{}",
                g.node(v).name
            );
        }
        assert_eq!(
            g.reference_execution(7),
            g2.reference_execution(7),
            "{name}: semantics must survive the round trip"
        );
    }
}

#[test]
fn extra_kernels_unparse_and_reparse() {
    for g in [
        cred::kernels::fft_butterflies(3),
        cred::kernels::lms_adaptive(3),
        cred::kernels::correlator(4),
        cred::kernels::fir_filter(6),
        cred::kernels::chao_sha_fig8(),
    ] {
        let text = unparse(&g);
        let g2 = parse(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
        assert_eq!(g.node_count(), g2.node_count());
        assert_eq!(g.reference_execution(7), g2.reference_execution(7));
    }
}
