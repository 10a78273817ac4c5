//! The W/D sweep against its Floyd–Warshall oracle on the graphs the
//! explore pipeline feeds it: every committed kernel's f-unfolding for
//! f = 1..8.

use cred_dfg::algo::WdMatrices;
use cred_explore::suite::load_kernels;
use cred_unfold::unfold;
use std::path::Path;

#[test]
fn wd_sweep_matches_floyd_warshall_on_every_kernel_unfolding() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../kernels");
    let kernels = load_kernels(&dir).unwrap();
    assert_eq!(kernels.len(), 10, "expected the 10 bundled kernels");
    for (name, g) in &kernels {
        for f in 1..=8 {
            let u = unfold(g, f).graph;
            assert_eq!(
                WdMatrices::compute(&u),
                WdMatrices::compute_reference(&u),
                "{name} f={f}"
            );
        }
    }
}
