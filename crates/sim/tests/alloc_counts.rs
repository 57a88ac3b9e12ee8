//! `CountingAlloc` keeps per-thread counter slots; `alloc_snapshot` must
//! still count every allocation of every thread exactly: threads past the
//! slot count (which share slots), threads that exited before the
//! snapshot, threads still alive at it, and allocations made by a
//! thread-local destructor while its thread is torn down.
//!
//! One test in this binary, so no other test allocates while it counts.

use std::cell::RefCell;
use std::hint::black_box;
use std::sync::Barrier;

use oam_sim::{alloc_snapshot, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// More threads than the allocator has counter slots (64).
const THREADS: u64 = 96;
/// Threads joined before the snapshot; the rest are alive at it.
const EXITERS: u64 = THREADS / 2;
/// Boxed allocations (and frees) per thread body.
const PER_THREAD: u64 = 1000;
/// Boxed allocations (and frees) per exiting thread's TLS destructor.
const AT_TEARDOWN: u64 = 10;
/// Bytes per box.
const BOX_BYTES: u64 = 64;

/// Allocations the test harness may add per spawned thread: its handle,
/// result packet, boxed closure and output-capture handle are a few
/// allocations each. Smaller than `AT_TEARDOWN * THREADS` and than
/// `PER_THREAD`, so losing or double-counting one thread's body, or every
/// teardown, fails the bounds.
const SLACK_PER_THREAD: u64 = 8;
/// Bytes those allocations may add per thread.
const SLACK_BYTES_PER_THREAD: u64 = 512;

fn churn(n: u64) {
    for i in 0..n {
        drop(black_box(Box::new([i as u8; BOX_BYTES as usize])));
    }
}

/// Churns `AT_TEARDOWN` boxes when its thread's TLS is destroyed.
struct AllocOnDrop;

impl Drop for AllocOnDrop {
    fn drop(&mut self) {
        churn(AT_TEARDOWN);
    }
}

thread_local! {
    static GUARD: RefCell<Option<AllocOnDrop>> = const { RefCell::new(None) };
}

#[test]
fn snapshot_counts_every_thread_exactly() {
    let ready = Barrier::new((THREADS - EXITERS) as usize + 1);
    let release = Barrier::new((THREADS - EXITERS) as usize + 1);
    let (before, at_snapshot) = std::thread::scope(|s| {
        let before = alloc_snapshot();
        let exiters: Vec<_> = (0..EXITERS)
            .map(|_| {
                s.spawn(|| {
                    GUARD.with(|g| *g.borrow_mut() = Some(AllocOnDrop));
                    churn(PER_THREAD);
                })
            })
            .collect();
        for h in exiters {
            h.join().unwrap();
        }
        for _ in EXITERS..THREADS {
            s.spawn(|| {
                churn(PER_THREAD);
                ready.wait();
                release.wait();
            });
        }
        ready.wait();
        let at_snapshot = alloc_snapshot();
        release.wait();
        (before, at_snapshot)
    });
    let d = at_snapshot.since(before);

    let want = THREADS * PER_THREAD + EXITERS * AT_TEARDOWN;
    let slack = THREADS * SLACK_PER_THREAD;
    assert!(
        (want..=want + slack).contains(&d.allocs),
        "allocs {} not in {want}..={}",
        d.allocs,
        want + slack
    );
    // Live threads' spawn allocations may not be freed yet; every box is.
    assert!(
        (want - slack..=want + slack).contains(&d.deallocs),
        "deallocs {} not within {slack} of {want}",
        d.deallocs
    );
    let want_bytes = want * BOX_BYTES;
    let slack_bytes = THREADS * SLACK_BYTES_PER_THREAD;
    assert!(
        (want_bytes..=want_bytes + slack_bytes).contains(&d.bytes),
        "bytes {} not in {want_bytes}..={}",
        d.bytes,
        want_bytes + slack_bytes
    );
}
