//! Steady-state zero-allocation guarantee of the allocate hot path.
//!
//! The search scratch arena (`jigsaw_core::SearchScratch`) pools every
//! working vector of the placement searches, and `Allocator::recycle`
//! closes the cycle by dismantling spent allocations back into the pools.
//! After a warm-up period the pools hold buffers at steady-state capacity
//! and a full grant/release/recycle cycle must perform **zero** heap
//! allocations. This test installs a counting `GlobalAlloc` and asserts
//! exactly that for the pooled schemes (Jigsaw, Baseline, LaaS, LC+S).
//!
//! TA is exempt: its sharing-class bookkeeping (hash maps keyed by job)
//! is not on the single-digit-microsecond trajectory and stays heap-backed.
//!
//! The count is per thread: the test harness runs tests on parallel
//! threads, and only the measuring thread's allocations inside its armed
//! window may count against it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use jigsaw_core::{Allocation, Allocator, JobRequest, Scheme};
use jigsaw_topology::ids::JobId;
use jigsaw_topology::{FatTree, SystemState};

/// Forwards to the system allocator, counting every allocation and
/// reallocation (frees are not counted: the guarantee is about acquiring
/// memory on the hot path, and a steady-state cycle that allocated nothing
/// has nothing of its own to free).
struct CountingAlloc;

thread_local! {
    /// This thread's allocation count while armed; `None` when disarmed.
    /// `const`-initialised and drop-free, so reading it from inside the
    /// global allocator never allocates.
    static ALLOCS: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Count one allocation against the current thread, if it is armed.
fn note_alloc() {
    // `try_with`: the slot may already be gone while a thread exits.
    let _ = ALLOCS.try_with(|n| {
        if let Some(count) = n.get() {
            n.set(Some(count + 1));
        }
    });
}

// jigsaw-lint: allow(R5) -- GlobalAlloc is an unsafe trait; this test-only shim forwards to System
unsafe impl GlobalAlloc for CountingAlloc {
    // jigsaw-lint: allow(R5) -- unsafe signature mandated by the GlobalAlloc trait
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        // jigsaw-lint: allow(R5) -- direct forward to the system allocator
        unsafe { System.alloc(layout) }
    }

    // jigsaw-lint: allow(R5) -- unsafe signature mandated by the GlobalAlloc trait
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // jigsaw-lint: allow(R5) -- direct forward to the system allocator
        unsafe { System.dealloc(ptr, layout) }
    }

    // jigsaw-lint: allow(R5) -- unsafe signature mandated by the GlobalAlloc trait
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        // jigsaw-lint: allow(R5) -- direct forward to the system allocator
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Heap allocations this thread performed while running `f`.
fn allocations_during(f: impl FnOnce()) -> usize {
    ALLOCS.with(|n| n.set(Some(0)));
    f();
    ALLOCS.with(Cell::take).unwrap_or(0)
}

/// One full scheduling cycle: grant every size (ignoring rejects), then
/// release and recycle every grant. `granted` is pre-sized scratch owned by
/// the caller so the cycle itself never grows a vector.
fn cycle(
    alloc: &mut dyn Allocator,
    state: &mut SystemState,
    sizes: &[u32],
    granted: &mut Vec<Allocation>,
) {
    for (i, &size) in sizes.iter().enumerate() {
        if let Ok(g) = alloc.try_admit(state, &JobRequest::new(JobId(i as u32), size)) {
            granted.push(g);
        }
    }
    for g in granted.drain(..) {
        alloc.release(state, &g);
        alloc.recycle(g);
    }
}

/// A mix of shapes: single-leaf, two-level, three-level full, remainder
/// leaves, and sizes large enough to cross pods on the radix-16 tree
/// (1024 nodes, 8-node leaves, 8 leaves/pod).
const SIZES: [u32; 10] = [1, 5, 64, 130, 7, 48, 300, 2, 96, 17];

#[test]
fn steady_state_allocate_is_allocation_free() {
    let tree = FatTree::maximal(16).unwrap();
    for scheme in [Scheme::Jigsaw, Scheme::Baseline, Scheme::Laas, Scheme::LcS] {
        let mut state = SystemState::new(tree);
        let mut alloc = scheme.make(&tree);
        let mut granted: Vec<Allocation> = Vec::with_capacity(SIZES.len());
        // Warm-up: identical cycles fill every pool to its steady-state
        // capacity. Several rounds are needed because the pools are LIFO —
        // buffers shuffle between differently-sized jobs across cycles, and
        // each buffer must have seen the largest job it can be paired with
        // before growth stops. Capacities only ever grow, so the warm-up
        // converges.
        for _ in 0..10 {
            cycle(alloc.as_mut(), &mut state, &SIZES, &mut granted);
        }
        let n = allocations_during(|| {
            cycle(alloc.as_mut(), &mut state, &SIZES, &mut granted);
        });
        assert_eq!(
            n, 0,
            "{scheme}: steady-state grant/release/recycle cycle hit the heap {n} times"
        );
        state.assert_consistent();
    }
}

#[test]
fn fragmented_searches_are_allocation_free_once_warm() {
    // Fragmentation forces the searches down their backtracking paths
    // (candidate lists, per-pod solutions); those buffers must pool too.
    let tree = FatTree::maximal(16).unwrap();
    for scheme in [Scheme::Jigsaw, Scheme::LcS] {
        let mut state = SystemState::new(tree);
        // One node pinned on every even leaf: no contiguous full machine.
        for leaf in tree.leaves() {
            if leaf.0 % 2 == 0 {
                state.claim_node(tree.node_at(leaf, 0), JobId(9999));
            }
        }
        let mut alloc = scheme.make(&tree);
        let mut granted: Vec<Allocation> = Vec::with_capacity(SIZES.len());
        for _ in 0..10 {
            cycle(alloc.as_mut(), &mut state, &SIZES, &mut granted);
        }
        let n = allocations_during(|| {
            cycle(alloc.as_mut(), &mut state, &SIZES, &mut granted);
        });
        assert_eq!(
            n, 0,
            "{scheme}: fragmented steady-state cycle hit the heap {n} times"
        );
    }
}
