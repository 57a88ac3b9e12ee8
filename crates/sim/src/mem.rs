//! Heap-allocation accounting for perf harnesses.
//!
//! [`CountingAlloc`] wraps the system allocator and counts every
//! allocation; a binary opts in with
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: oam_sim::CountingAlloc = oam_sim::CountingAlloc;
//! ```
//!
//! after which [`alloc_snapshot`] deltas bound the allocations of a code
//! region. Binaries that do not install it read zeros — the counters are
//! advisory, never load-bearing for correctness.
//!
//! Counting uses relaxed atomics shared by every thread of the process:
//! sharded and native runs allocate from several OS threads at once, and
//! all of them `fetch_add` the same three counters, so those cache lines
//! are contended there. The harness only ever reads the counters between
//! runs, so there is no ordering to defend — relaxed adds stay exact.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static DEALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

/// A [`GlobalAlloc`] that forwards to the system allocator and counts
/// calls and bytes.
pub struct CountingAlloc;

// SAFETY: pure pass-through to `System`; the counters never influence the
// returned pointers or layouts.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        DEALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size.saturating_sub(layout.size()) as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Point-in-time allocator counters (cumulative since process start).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AllocSnapshot {
    /// `alloc`/`realloc` calls.
    pub allocs: u64,
    /// Bytes requested (reallocs count only growth).
    pub bytes: u64,
    /// `dealloc` calls.
    pub deallocs: u64,
}

impl AllocSnapshot {
    /// Counters accrued since `earlier`.
    pub fn since(self, earlier: AllocSnapshot) -> AllocSnapshot {
        AllocSnapshot {
            allocs: self.allocs.wrapping_sub(earlier.allocs),
            bytes: self.bytes.wrapping_sub(earlier.bytes),
            deallocs: self.deallocs.wrapping_sub(earlier.deallocs),
        }
    }
}

/// Read the global allocation counters. All zeros unless the running
/// binary installed [`CountingAlloc`] as its global allocator.
pub fn alloc_snapshot() -> AllocSnapshot {
    AllocSnapshot {
        allocs: ALLOC_CALLS.load(Ordering::Relaxed),
        bytes: ALLOC_BYTES.load(Ordering::Relaxed),
        deallocs: DEALLOC_CALLS.load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_delta_is_field_wise() {
        let a = AllocSnapshot { allocs: 10, bytes: 100, deallocs: 5 };
        let b = AllocSnapshot { allocs: 13, bytes: 164, deallocs: 9 };
        assert_eq!(b.since(a), AllocSnapshot { allocs: 3, bytes: 64, deallocs: 4 });
    }
}
