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
//! Counting is per thread: sharded and native runs allocate from several
//! OS threads at once, and one set of shared counters would bounce its
//! cache line between their cores on every allocation. Instead the
//! counters live in a fixed array of 64 cache-line-padded slots. A thread
//! takes the next slot (round robin) on its first allocation and keeps
//! its index in a `const`-initialised thread-local with no destructor, so
//! reading it never allocates and still works while the thread is torn
//! down; if it ever cannot be read, the thread counts into a shared slot.
//! Past 64 threads, slots are shared. Either way every add is a relaxed
//! atomic `fetch_add`, so counts stay exact; a slot is just uncontended
//! while one thread owns it. [`alloc_snapshot`] sums the slots. The
//! harness only ever reads the counters between runs, so there is no
//! ordering to defend.
//!
//! The thread-local index relies on the target's native TLS (Linux,
//! macOS and Windows all have it): an emulated key would allocate from
//! inside the allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Counter slots; threads past this many share slots round robin.
const SLOTS: usize = 64;

/// Slot a thread counts into when its own index cannot be read.
const SHARED_SLOT: usize = 0;

/// One thread's counters, alone on its cache lines (128 B also keeps the
/// adjacent-line prefetcher from pairing two slots).
#[repr(align(128))]
struct Slot {
    allocs: AtomicU64,
    bytes: AtomicU64,
    deallocs: AtomicU64,
}

static COUNTS: [Slot; SLOTS] = [const {
    Slot { allocs: AtomicU64::new(0), bytes: AtomicU64::new(0), deallocs: AtomicU64::new(0) }
}; SLOTS];

/// Slots handed out so far (modulo [`SLOTS`] is the next one).
static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's slot index, `usize::MAX` until its first allocation.
    static MY_SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// The calling thread's counters.
#[inline]
fn slot() -> &'static Slot {
    let i = MY_SLOT
        .try_with(|s| {
            let i = s.get();
            if i != usize::MAX {
                return i;
            }
            let i = NEXT_SLOT.fetch_add(1, Ordering::Relaxed) % SLOTS;
            s.set(i);
            i
        })
        .unwrap_or(SHARED_SLOT);
    &COUNTS[i]
}

/// A [`GlobalAlloc`] that forwards to the system allocator and counts
/// calls and bytes.
pub struct CountingAlloc;

// SAFETY: pure pass-through to `System`; the counters never influence the
// returned pointers or layouts, and counting never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let s = slot();
        s.allocs.fetch_add(1, Ordering::Relaxed);
        s.bytes.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        slot().deallocs.fetch_add(1, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let s = slot();
        s.allocs.fetch_add(1, Ordering::Relaxed);
        s.bytes.fetch_add(new_size.saturating_sub(layout.size()) as u64, Ordering::Relaxed);
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

/// Read the process-wide allocation counters: the sum over every
/// thread's slot. All zeros unless the running binary installed
/// [`CountingAlloc`] as its global allocator.
pub fn alloc_snapshot() -> AllocSnapshot {
    COUNTS.iter().fold(AllocSnapshot::default(), |acc, s| AllocSnapshot {
        allocs: acc.allocs.wrapping_add(s.allocs.load(Ordering::Relaxed)),
        bytes: acc.bytes.wrapping_add(s.bytes.load(Ordering::Relaxed)),
        deallocs: acc.deallocs.wrapping_add(s.deallocs.load(Ordering::Relaxed)),
    })
}

/// Read the calling thread's counters alone, so that what other threads
/// allocate meanwhile (a test harness's bookkeeping, say) does not show.
/// Exact while at most 64 threads have allocated; past that,
/// threads share slots round robin, and then their counts.
pub fn thread_alloc_snapshot() -> AllocSnapshot {
    let s = slot();
    AllocSnapshot {
        allocs: s.allocs.load(Ordering::Relaxed),
        bytes: s.bytes.load(Ordering::Relaxed),
        deallocs: s.deallocs.load(Ordering::Relaxed),
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
