//! Steady-state allocation regression test. It installs its own counting
//! global allocator, so it runs as a plain release test:
//!
//! ```text
//! cargo test -p menda-bench --test alloc_free --release
//! ```
//!
//! The data-oriented hot-path work (BENCH_7) replaced per-request heap
//! churn with reused scratch buffers and pooled slabs, so the simulator's
//! per-cycle loop must not allocate: heap traffic scales with the matrix
//! being simulated, never with the number of simulated cycles. These
//! tests pin that property two ways — by comparing the reference path
//! (which executes every cycle on the host) against the fast-forward
//! path (which skips most of them), and with an absolute per-cycle
//! allocation budget.
//!
//! Release builds only: in debug builds the DRAM channel re-checks every
//! scheduling decision against a reference scan
//! (`ChannelController::assert_matches_reference_scan`), which allocates
//! two `Vec`s per decision and so puts the debug run far over budget.

#![cfg(not(debug_assertions))]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use menda_core::{MendaConfig, MendaSystem};
use menda_sparse::gen;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// System allocator wrapper that counts allocation calls. `dealloc` is
/// deliberately uncounted: the test cares about allocation *pressure*,
/// and frees never grow the heap.
struct CountingAllocator;

// SAFETY: defers every operation to `System`, which upholds the
// GlobalAlloc contract; the counter is side-effect-only.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAllocator = CountingAllocator;

/// Allocation calls so far, process-wide.
fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

fn cfg(fast_forward: bool) -> MendaConfig {
    MendaConfig::paper()
        .with_threads(1)
        .with_fast_forward(fast_forward)
}

/// N1 at 1/64 scale: big enough that the reference path executes tens of
/// thousands of host cycles per PU, small enough to stay quick.
fn matrix() -> menda_sparse::CsrMatrix {
    gen::table3_spec("N1")
        .expect("Table 3 entry")
        .generate_scaled(64, 0xA110C)
}

#[test]
fn per_cycle_loop_does_not_allocate() {
    let m = matrix();
    // Warm up so one-time lazy setup (thread-local buffers, stdio locks)
    // is excluded from both measured runs.
    let _ = MendaSystem::new(cfg(false)).transpose(&m);
    let _ = MendaSystem::new(cfg(true)).transpose(&m);

    let s0 = allocs();
    let fast = MendaSystem::new(cfg(true)).transpose(&m);
    let s1 = allocs();
    let reference = MendaSystem::new(cfg(false)).transpose(&m);
    let s2 = allocs();

    assert_eq!(fast.output, reference.output, "paths diverged");
    let ff_allocs = s1 - s0;
    let ref_allocs = s2 - s1;

    // Both runs simulate the same cycle count, but the reference path
    // executes every cycle on the host while fast-forward skips the idle
    // ones. If anything inside the per-cycle loop allocated, the
    // reference run's count would dwarf the fast-forward run's. Allow a
    // small fixed slack for incidental differences (result assembly,
    // statistics buckets).
    assert!(
        ref_allocs <= ff_allocs + ff_allocs / 4 + 512,
        "reference-path run allocated {ref_allocs} times vs {ff_allocs} \
         for fast-forward: the per-cycle loop is allocating"
    );

    // Absolute budget: per-run allocations are a property of the matrix
    // (slab setup, output assembly), bounded by its nonzero count — about
    // 0.5 allocations per nonzero today, asserted with 2x headroom. The
    // executed cycle count (larger than nnz, and the quantity that grows
    // when someone reintroduces per-cycle churn) buys no extra budget.
    let budget = 4096 + m.nnz() as u64;
    assert!(
        ref_allocs < budget,
        "{ref_allocs} allocations for a {}-nonzero matrix (budget {budget}): \
         heap traffic no longer scales with the matrix alone",
        m.nnz()
    );
}
