//! Heap allocations of a cold explore and of the parser, pinned per
//! bundled kernel.
//!
//! A cold `ExploreRequest::run` allocates per request, not per factor: one
//! plan workspace per sweep worker owns every buffer a factor's plan and
//! point need, so a factor adds only what it returns (its plan, its point
//! and the cache entry holding them). `cred_lang::parse` allocates per
//! node, not per token. The global allocator below counts the calling
//! thread's allocations only, so the bounds hold while other tests of this
//! binary run on other threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::Path;
use std::sync::Arc;

use cred_explore::ExploreRequest;

/// The system allocator, counting every allocation and reallocation made
/// by the current thread.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with` because a thread's last frees run after its locals die.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` unchanged; counting touches
// only a const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// `f`'s result and the allocations the current thread made running it.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// Every bundled kernel as `(name, source)`, in name order.
fn kernels() -> Vec<(String, String)> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../kernels");
    let mut out: Vec<(String, String)> = std::fs::read_dir(dir)
        .expect("bundled kernels directory")
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "loop"))
        .map(|p| {
            let name = p.file_stem().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read_to_string(&p).expect("kernel source"))
        })
        .collect();
    out.sort();
    assert_eq!(out.len(), 10, "the ten bundled kernels");
    out
}

#[test]
fn a_cold_explore_allocates_per_request_not_per_factor() {
    let mut over = Vec::new();
    for (name, src) in kernels() {
        let g = Arc::new(cred_lang::parse(&src).expect("bundled kernel parses"));
        let cold = |max_f: usize| {
            let req = ExploreRequest::new(Arc::clone(&g)).max_f(max_f).threads(1);
            // The first run pays any one-time set-up of the process.
            let _ = req.run().expect("unlimited budget");
            let (resp, n) = counted(|| req.run().expect("unlimited budget"));
            assert!(resp.report.is_clean(), "{name}: {:?}", resp.report);
            assert_eq!(resp.points.len(), max_f, "{name}");
            n
        };
        let (four, eight) = (cold(4), cold(8));
        let per_factor = eight.saturating_sub(four) as f64 / 4.0;
        if per_factor > 16.0 {
            over.push(format!(
                "{name}: {four} allocations at max_f 4, {eight} at max_f 8, \
                 {per_factor} per extra factor"
            ));
        }
    }
    assert!(over.is_empty(), "at most 16 per extra factor: {over:#?}");
}

#[test]
fn the_parser_allocates_per_node_not_per_token() {
    let mut over = Vec::new();
    for (name, src) in kernels() {
        let (g, n) = counted(|| cred_lang::parse(&src).expect("bundled kernel parses"));
        let bound = 10 * g.node_count() as u64 + 16;
        if n > bound {
            over.push(format!(
                "{name}: {n} allocations for {} nodes, bound {bound}",
                g.node_count()
            ));
        }
    }
    assert!(over.is_empty(), "at most 10 per node plus 16: {over:#?}");
}
