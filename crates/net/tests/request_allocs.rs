//! Steady-state heap allocations of the daemon's request path.
//!
//! The engine is built as `jigsaw-sched serve` builds it — Jigsaw behind
//! an `ObservedAllocator`, a live registry with an event ring, no journal
//! — and driven by a closed-loop script like the benchmark's: jobs of
//! Synth-like sizes come and go around a target live count, interleaved
//! with `STATUS`, so the machine fills and `ALLOC`s are denied too. After
//! a warm-up, every request is parsed, applied and its reply encoded into
//! a reused buffer under a counting `GlobalAlloc`:
//!
//! * `STATUS`, `FREE` and a denied `ALLOC` must not touch the heap at all;
//! * a granted `ALLOC` may only pay for the live set's B-tree growing a
//!   node now and then (well under one allocation in four grants).
//!
//! The ring is small (64 events) so that every slot's buffer has held the
//! longest event detail within the warm-up; a full ring of any size then
//! records by reformatting the buffer it evicts. The count is per thread,
//! as in `crates/core/tests/zero_alloc.rs`: only the measuring thread's
//! allocations inside its armed window count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::VecDeque;

use jigsaw_core::{ObservedAllocator, Scheme};
use jigsaw_net::Engine;
use jigsaw_obs::Registry;
use jigsaw_persist::PersistentState;
use jigsaw_topology::FatTree;

/// Forwards to the system allocator, counting allocations and
/// reallocations (frees are not counted).
struct CountingAlloc;

thread_local! {
    /// This thread's allocation count while armed; `None` when disarmed.
    static ALLOCS: Cell<Option<usize>> = const { Cell::new(None) };
}

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
fn allocations_during<T>(f: impl FnOnce() -> T) -> (usize, T) {
    ALLOCS.with(|n| n.set(Some(0)));
    let out = f();
    (ALLOCS.with(Cell::take).unwrap_or(0), out)
}

/// Job sizes on the radix-16 tree (1024 nodes): single-leaf, multi-leaf
/// and multi-pod shapes.
const SIZES: [u32; 12] = [1, 2, 4, 8, 3, 16, 64, 5, 128, 32, 12, 200];
/// Live jobs above which the script frees the oldest.
const TARGET_LIVE: usize = 40;

/// The closed-loop script: the next request line, given the jobs the
/// engine acknowledged so far. A seeded xorshift picks the verb and the
/// size, so sizes do not lock into step with the verbs.
struct Script {
    rng: u64,
    next_id: u32,
    live: VecDeque<u32>,
    line: String,
}

impl Script {
    fn next(&mut self) -> &str {
        use std::fmt::Write;
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        let draw = self.rng >> 32;
        self.line.clear();
        if draw.is_multiple_of(3) {
            self.line.push_str("STATUS");
        } else if self.live.len() >= TARGET_LIVE
            || (draw.is_multiple_of(5) && !self.live.is_empty())
        {
            let id = self.live.pop_front().unwrap();
            write!(self.line, "FREE {id}").unwrap();
        } else {
            let size = SIZES[(draw / 15) as usize % SIZES.len()];
            write!(self.line, "ALLOC {} {size}", self.next_id).unwrap();
            self.next_id += 1;
        }
        &self.line
    }
}

#[derive(Debug, Default)]
struct Tally {
    requests: usize,
    allocs: usize,
}

/// Requests per round of the script; each round starts from the empty
/// machine with the same seed and ends by freeing every job, so from the
/// second round on the engine replays the same sequence of states.
const ROUND: usize = 5_000;
const SEED: u64 = 0x9e37_79b9_7f4a_7c15;

#[test]
fn steady_state_requests_do_not_touch_the_heap() {
    let tree = FatTree::maximal(16).unwrap();
    let registry = Registry::with_ring_capacity(64);
    let mut persist = PersistentState::ephemeral(tree);
    persist.attach_registry(&registry);
    let allocator = Box::new(ObservedAllocator::new(
        Scheme::Jigsaw.make(&tree),
        &registry,
    ));
    let mut engine = Engine::new(tree, allocator, persist, &registry);
    let mut script = Script {
        rng: SEED,
        next_id: 1,
        live: VecDeque::with_capacity(TARGET_LIVE + 1),
        line: String::with_capacity(64),
    };
    let mut wire = String::with_capacity(64 * 1024);
    let [mut status, mut free, mut denied, mut granted] = [(); 4].map(|()| Tally::default());
    for round in 0..4 {
        // Rounds 0 and 1 warm the pools, the ring and the live set up.
        let warm = round >= 2;
        script.rng = SEED;
        for step in 0.. {
            let line = if step < ROUND {
                script.next().to_string()
            } else if let Some(id) = script.live.pop_front() {
                format!("FREE {id}")
            } else {
                break;
            };
            wire.clear();
            let (n, ()) = allocations_during(|| {
                let outcome = engine.handle_line(&line).unwrap();
                outcome.reply.write_to(&mut wire).unwrap();
            });
            let tally = if wire.starts_with("OK GRANT ") {
                let id = line.split_whitespace().nth(1).unwrap().parse().unwrap();
                script.live.push_back(id);
                &mut granted
            } else if wire.starts_with("ERR denied ") {
                &mut denied
            } else if wire.starts_with("OK FREE ") {
                &mut free
            } else if wire.starts_with("OK STATUS ") {
                &mut status
            } else {
                panic!("unexpected reply to `{line}`: {wire}");
            };
            if warm {
                tally.requests += 1;
                tally.allocs += n;
            }
        }
        assert_eq!(
            engine.persist().state().allocated_node_count(),
            0,
            "every round ends on the empty machine"
        );
    }
    for (name, t) in [
        ("STATUS", &status),
        ("FREE", &free),
        ("denied ALLOC", &denied),
    ] {
        assert!(t.requests > 250, "{name}: too few samples ({t:?})");
        assert_eq!(t.allocs, 0, "{name} hit the heap: {t:?}");
    }
    assert!(granted.requests > 250, "too few grants ({granted:?})");
    let per_grant = granted.allocs as f64 / granted.requests as f64;
    assert!(
        per_grant <= 0.25,
        "a granted ALLOC allocated {per_grant:.3} times on average ({granted:?})"
    );
}
