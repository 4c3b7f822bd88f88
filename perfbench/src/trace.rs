//! Spans recorded around calls into the program's layers.
//!
//! A span is a name, a start, an end and the span that caused it. Spans
//! live in a thread-local buffer (the simulator and the in-process engine
//! run on the benchmark's own thread) and are folded into per-name
//! aggregates by the caller once the enclosing unit of work has ended.

use std::cell::RefCell;
use std::time::Instant;

/// Layer boundary a span was recorded at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Name {
    /// One simulated slice, or one in-process serve arm.
    Root,
    /// `Allocator::decide` on the root allocator (the live machine).
    Decide,
    /// `Allocator::decide` on a speculative clone.
    SpecDecide,
    /// `Allocator::clone_box` / `fresh_box`.
    Clone,
    /// `Allocator::release`.
    Release,
    /// `Allocator::adopt`.
    Adopt,
    /// A sampled `SystemState::clone` at live occupancy.
    StateClone,
    /// The recorder's bookkeeping after a root `decide` (fingerprint,
    /// ownership map, periodic audit): benchmark overhead.
    Record,
    /// `Engine::handle_line` for an `ALLOC`.
    HandleAlloc,
    /// `Engine::handle_line` for a `FREE`.
    HandleFree,
    /// `Engine::handle_line` for a `STATUS`.
    HandleStatus,
    /// `Engine::flush` (fsync, then snapshot when due).
    Flush,
}

impl Name {
    /// Spans that count as time inside the allocator.
    pub fn is_allocator_call(self) -> bool {
        matches!(
            self,
            Name::Decide | Name::SpecDecide | Name::Clone | Name::Release | Name::Adopt
        )
    }
}

/// One recorded span; times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub name: Name,
    pub parent: Option<u32>,
    pub start: u64,
    pub end: u64,
    /// Outcome flag (a `Decide` that admitted).
    pub admitted: bool,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Total duration of the spans matching `pred` that no other matching
/// span encloses (time inside a layer, counted once however it nests).
pub fn top_level_ns(spans: &[Span], pred: impl Fn(Name) -> bool) -> u64 {
    spans
        .iter()
        .filter(|s| pred(s.name) && !s.parent.is_some_and(|p| pred(spans[p as usize].name)))
        .map(Span::duration)
        .sum()
}

/// Self time of the root span (`spans[0]`): its duration minus the part
/// its descendants cover. Spans nest strictly (one thread, LIFO), so that
/// part is the time of the outermost non-root spans.
pub fn root_self_ns(spans: &[Span]) -> u64 {
    spans[0].duration() - top_level_ns(spans, |n| n != Name::Root)
}

struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    enabled: bool,
}

thread_local! {
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer {
        epoch: Instant::now(),
        spans: Vec::new(),
        open: Vec::new(),
        enabled: false,
    });
}

/// Start recording on this thread, discarding earlier spans.
pub fn enable() {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        t.spans.clear();
        t.open.clear();
        t.enabled = true;
    });
}

/// Stop recording and hand back every span recorded since [`enable`].
pub fn take() -> Vec<Span> {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        t.enabled = false;
        t.open.clear();
        std::mem::take(&mut t.spans)
    })
}

/// Open a span as a child of the innermost open one. Returns its index,
/// or `None` while recording is off.
pub fn begin(name: Name) -> Option<u32> {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        if !t.enabled {
            return None;
        }
        let idx = u32::try_from(t.spans.len()).expect("fewer than 2^32 spans per unit of work");
        let parent = t.open.last().copied();
        let start = t.epoch.elapsed().as_nanos() as u64;
        t.spans.push(Span {
            name,
            parent,
            start,
            end: start,
            admitted: false,
        });
        t.open.push(idx);
        Some(idx)
    })
}

/// Close the span `begin` returned.
pub fn end(idx: Option<u32>, admitted: bool) {
    let Some(idx) = idx else { return };
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let now = t.epoch.elapsed().as_nanos() as u64;
        let popped = t.open.pop();
        debug_assert_eq!(popped, Some(idx), "spans close in LIFO order");
        let s = &mut t.spans[idx as usize];
        s.end = now;
        s.admitted = admitted;
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<u32>, start: u64, end: u64) -> Span {
        Span {
            name: Name::Root,
            parent,
            start,
            end,
            admitted: false,
        }
    }

    #[test]
    fn root_self_time_subtracts_covered_child_time() {
        let mut spans = vec![
            span(None, 0, 100),
            span(Some(0), 10, 30),
            span(Some(0), 50, 60),
            span(Some(1), 12, 20),
        ];
        spans[1].name = Name::Decide;
        spans[2].name = Name::Record;
        spans[3].name = Name::Clone;
        // Covered: [10, 30) and [50, 60); the grandchild lies inside.
        assert_eq!(root_self_ns(&spans), 70);
        assert_eq!(root_self_ns(&spans[..1]), 100);
    }

    #[test]
    fn top_level_time_counts_nested_matches_once() {
        let mut spans = vec![
            span(None, 0, 100),
            span(Some(0), 10, 30),
            span(Some(1), 12, 20),
            span(Some(0), 50, 60),
        ];
        spans[1].name = Name::Decide;
        spans[2].name = Name::Clone;
        spans[3].name = Name::Release;
        assert_eq!(top_level_ns(&spans, Name::is_allocator_call), 30);
        assert_eq!(top_level_ns(&spans, |n| n == Name::Clone), 8);
    }

    #[test]
    fn recorded_spans_nest_and_stop_when_taken() {
        enable();
        let outer = begin(Name::Root);
        let inner = begin(Name::Decide);
        end(inner, true);
        end(outer, false);
        let spans = take();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[1].admitted);
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
        assert_eq!(begin(Name::Root), None, "recording is off after take");
    }
}
