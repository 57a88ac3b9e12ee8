//! Bounded lock-free SPSC rings and the consumer wake protocol for the
//! native fabric backend's batched delivery layer.
//!
//! Three pieces compose into "a burst of small AMs costs one wake, not N":
//!
//! * [`spsc`] — a Lamport single-producer single-consumer ring with
//!   cache-line-padded head/tail words. The producer/consumer halves are
//!   separate non-cloneable handles taking `&mut self`, so the SPSC
//!   contract is enforced by the type system rather than by convention.
//! * [`WakeGate`] — the consumer's park wait. The gate itself never
//!   spins; the only consumer-side spin is the native worker's idle
//!   wait, which polls its rings for up to 200 µs before it comes here
//!   (`oam_machine::native_run`). The no-lost-wake argument is a Dekker
//!   store/load pair: the consumer publishes `PARKED`, fences, then
//!   re-checks its rings before parking; the producer publishes its ring
//!   tail, fences, then reads the gate state.
//!   Whatever interleaving the hardware picks, either the consumer sees
//!   the new tail (and skips the park) or the producer sees `PARKED` (and
//!   unparks) — a deposit can never slip between the check and the park.
//! * [`BatchTx`] — a sender-side buffer in front of one ring. Deposits
//!   coalesce until a flush boundary (the high-water mark here; the end
//!   of a handler-run pass at the call site), and each flush issues at
//!   most one wake signal. High-water `1` is the naive per-message path.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{fence, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::Thread;
use std::time::Duration;

/// Pad hot atomics to a cache line so the producer's tail writes and the
/// consumer's head writes never false-share.
#[repr(align(64))]
struct CachePadded<T>(T);

/// Shared state of one ring: a power-of-two slot array plus monotonic
/// head (consumer) and tail (producer) counters. Indices are the counters
/// masked by `cap - 1`; the counters themselves never wrap in practice
/// (2^64 records), so `tail - head` is always the exact occupancy.
struct Ring<T> {
    slots: Vec<UnsafeCell<MaybeUninit<T>>>,
    mask: usize,
    head: CachePadded<AtomicUsize>,
    tail: CachePadded<AtomicUsize>,
}

// SAFETY: the producer half writes a slot strictly before its Release
// store of the advanced tail; the consumer half reads it strictly after
// its Acquire load of that tail (and vice versa for head/reuse). The
// non-cloneable `&mut self` handles guarantee a single writer per end.
unsafe impl<T: Send> Sync for Ring<T> {}
unsafe impl<T: Send> Send for Ring<T> {}

impl<T> Drop for Ring<T> {
    fn drop(&mut self) {
        // Drop any records still in flight (shutdown with a non-empty
        // ring). `&mut self` here means both handles are gone.
        let head = self.head.0.load(Ordering::Relaxed);
        let tail = self.tail.0.load(Ordering::Relaxed);
        for i in head..tail {
            unsafe { (*self.slots[i & self.mask].get()).assume_init_drop() };
        }
    }
}

/// Producer half of an SPSC ring. Not cloneable: exactly one thread may
/// hold it (sending it to another thread is fine).
pub struct RingTx<T> {
    ring: Arc<Ring<T>>,
}

/// Consumer half of an SPSC ring. Not cloneable.
pub struct RingRx<T> {
    ring: Arc<Ring<T>>,
}

/// Create a bounded SPSC ring holding at least `capacity` records
/// (rounded up to a power of two, minimum 2).
pub fn spsc<T: Send>(capacity: usize) -> (RingTx<T>, RingRx<T>) {
    let cap = capacity.max(2).next_power_of_two();
    let ring = Arc::new(Ring {
        slots: (0..cap).map(|_| UnsafeCell::new(MaybeUninit::uninit())).collect(),
        mask: cap - 1,
        head: CachePadded(AtomicUsize::new(0)),
        tail: CachePadded(AtomicUsize::new(0)),
    });
    (RingTx { ring: Arc::clone(&ring) }, RingRx { ring })
}

impl<T: Send> RingTx<T> {
    /// Push one record; returns it back when the ring is full.
    pub fn push(&mut self, v: T) -> Result<(), T> {
        let r = &*self.ring;
        let tail = r.tail.0.load(Ordering::Relaxed);
        let head = r.head.0.load(Ordering::Acquire);
        if tail - head > r.mask {
            return Err(v);
        }
        // SAFETY: `tail - head <= mask` means this slot's previous record
        // was consumed (the Acquire on `head` ordered that read before
        // this write), and no other producer exists (`&mut self`).
        unsafe { (*r.slots[tail & r.mask].get()).write(v) };
        r.tail.0.store(tail + 1, Ordering::Release);
        Ok(())
    }

    /// Records currently in the ring (racy but monotone from the
    /// producer's side: the consumer can only shrink it).
    pub fn len(&self) -> usize {
        self.ring.tail.0.load(Ordering::Relaxed) - self.ring.head.0.load(Ordering::Acquire)
    }

    /// Whether the ring is empty, from the producer's view.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total slots in the ring.
    pub fn capacity(&self) -> usize {
        self.ring.mask + 1
    }
}

impl<T: Send> RingRx<T> {
    /// Pop the oldest record, if any.
    pub fn pop(&mut self) -> Option<T> {
        let r = &*self.ring;
        let head = r.head.0.load(Ordering::Relaxed);
        let tail = r.tail.0.load(Ordering::Acquire);
        if head == tail {
            return None;
        }
        // SAFETY: `head < tail` and the Acquire on `tail` ordered the
        // producer's slot write before this read; no other consumer
        // exists (`&mut self`).
        let v = unsafe { (*r.slots[head & r.mask].get()).assume_init_read() };
        r.head.0.store(head + 1, Ordering::Release);
        Some(v)
    }

    /// Whether the ring currently has records. Usable from a shared
    /// reference (it only loads the counters), which is what the
    /// [`WakeGate`] pending-check needs.
    pub fn has_records(&self) -> bool {
        self.ring.head.0.load(Ordering::Relaxed) != self.ring.tail.0.load(Ordering::Acquire)
    }
}

/// Gate state: the consumer is running.
const AWAKE: u32 = 0;
/// Gate state: the consumer is parked (or committed to parking).
const PARKED: u32 = 1;

/// One consumer's park state, shared with its producers. The gate never
/// spins: [`WakeGate::park_unless`] publishes the parked state, re-checks,
/// and parks; any spinning is the caller's, before it gets here.
///
/// Consumer side: [`WakeGate::register`] once on the owning thread, then
/// [`WakeGate::park_unless`] whenever idle. Producer side:
/// [`WakeGate::notify`] after publishing records (at most one unpark per
/// flush), [`WakeGate::wake`] for unconditional signals (shutdown).
pub struct WakeGate {
    state: CachePadded<AtomicU32>,
    thread: OnceLock<Thread>,
    wakes: AtomicU64,
}

impl Default for WakeGate {
    fn default() -> Self {
        Self::new()
    }
}

impl WakeGate {
    /// A fresh gate in the awake state.
    pub fn new() -> Self {
        WakeGate {
            state: CachePadded(AtomicU32::new(AWAKE)),
            thread: OnceLock::new(),
            wakes: AtomicU64::new(0),
        }
    }

    /// Register the calling thread as the consumer. Must be called on the
    /// consumer thread before any producer may [`WakeGate::notify`] it.
    pub fn register(&self) {
        let _ = self.thread.set(std::thread::current());
    }

    /// Park the consumer for at most `timeout` unless `pending` reports
    /// work after the parked state is published. The SeqCst fence pairs
    /// with the one in [`WakeGate::notify`] (Dekker): a producer whose
    /// flush raced this call either is seen by `pending` or sees `PARKED`
    /// and unparks.
    pub fn park_unless(&self, pending: impl Fn() -> bool, timeout: Duration) {
        self.state.0.store(PARKED, Ordering::Relaxed);
        fence(Ordering::SeqCst);
        if pending() {
            self.state.0.store(AWAKE, Ordering::Relaxed);
            return;
        }
        std::thread::park_timeout(timeout);
        self.state.0.store(AWAKE, Ordering::Relaxed);
    }

    /// Producer-side signal after publishing records: unpark the consumer
    /// iff it is (or is about to be) parked. Counted in
    /// [`WakeGate::wakes`].
    pub fn notify(&self) {
        fence(Ordering::SeqCst);
        if self.state.0.load(Ordering::Relaxed) == PARKED {
            if let Some(t) = self.thread.get() {
                self.wakes.fetch_add(1, Ordering::Relaxed);
                t.unpark();
            }
        }
    }

    /// Unconditional unpark (shutdown path): sets the park token even if
    /// the consumer is mid-way into `park_unless`, so it re-checks its
    /// stop flag promptly. Not counted as a delivery wake.
    pub fn wake(&self) {
        if let Some(t) = self.thread.get() {
            t.unpark();
        }
    }

    /// Wake signals delivered so far (producer unparks of a parked
    /// consumer).
    pub fn wakes(&self) -> u64 {
        self.wakes.load(Ordering::Relaxed)
    }
}

/// A sender-side batcher in front of one ring: deposits coalesce in a
/// local buffer and publish together, one wake signal per flush.
pub struct BatchTx<T> {
    tx: RingTx<T>,
    gate: Arc<WakeGate>,
    buf: Vec<T>,
    high_water: usize,
    /// Records deposited through this batcher.
    pub deposits: u64,
    /// Non-empty flushes performed (== wake signals issued).
    pub batches: u64,
}

impl<T: Send> BatchTx<T> {
    /// A batcher flushing at `high_water` buffered records (clamped to at
    /// least 1; `1` is the naive per-message path).
    pub fn new(tx: RingTx<T>, gate: Arc<WakeGate>, high_water: usize) -> Self {
        BatchTx {
            tx,
            gate,
            buf: Vec::new(),
            high_water: high_water.max(1),
            deposits: 0,
            batches: 0,
        }
    }

    /// Buffer one record, flushing if the high-water mark is reached.
    /// `abandoned` is polled on every spin of a full-ring wait, and `true`
    /// aborts the wait (the consumer will never drain again — shutdown);
    /// any unflushed records are dropped, matching the lossy-at-shutdown
    /// contract of the channel path this replaces. A producer that is
    /// also a consumer should empty its own inbound rings inside
    /// `abandoned`: two threads each spinning on a full ring to the other
    /// would otherwise wait for each other forever.
    pub fn send(&mut self, v: T, abandoned: &impl Fn() -> bool) {
        self.buf.push(v);
        self.deposits += 1;
        if self.buf.len() >= self.high_water {
            self.flush(abandoned);
        }
    }

    /// Publish all buffered records to the ring and issue one wake
    /// signal. On a full ring the producer nudges the consumer once and
    /// spins: a non-empty ring keeps the consumer's `pending` check true,
    /// so it cannot park past that nudge and the wait is bounded — unless
    /// `abandoned` reports the consumer is gone for good.
    pub fn flush(&mut self, abandoned: &impl Fn() -> bool) {
        if self.buf.is_empty() {
            return;
        }
        self.batches += 1;
        let mut nudged = false;
        let mut drain = self.buf.drain(..);
        for mut v in drain.by_ref() {
            loop {
                match self.tx.push(v) {
                    Ok(()) => break,
                    Err(back) => {
                        if abandoned() {
                            // Dropping the iterator drops the rest.
                            return;
                        }
                        v = back;
                        if !nudged {
                            self.gate.notify();
                            nudged = true;
                        }
                        std::hint::spin_loop();
                    }
                }
            }
        }
        drop(drain);
        self.gate.notify();
    }

    /// Whether any records are buffered and unflushed.
    pub fn is_dirty(&self) -> bool {
        !self.buf.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_is_fifo_and_bounded() {
        let (mut tx, mut rx) = spsc::<u32>(4);
        assert_eq!(tx.capacity(), 4);
        for i in 0..4 {
            tx.push(i).unwrap();
        }
        assert_eq!(tx.push(99), Err(99), "full ring rejects");
        assert_eq!(tx.len(), 4);
        for i in 0..4 {
            assert_eq!(rx.pop(), Some(i));
        }
        assert_eq!(rx.pop(), None);
        assert!(tx.is_empty());
    }

    #[test]
    fn ring_drops_undelivered_records() {
        use std::sync::Arc as StdArc;
        // The refcount returns to 1 only if the two undelivered clones
        // drop exactly once each (no leak, no double-drop).
        let probe = StdArc::new(());
        let (mut tx, rx) = spsc::<StdArc<()>>(4);
        tx.push(StdArc::clone(&probe)).unwrap();
        tx.push(StdArc::clone(&probe)).unwrap();
        drop(tx);
        drop(rx);
        assert_eq!(StdArc::strong_count(&probe), 1);
    }

    #[test]
    fn batcher_flushes_at_high_water_and_counts() {
        let gate = Arc::new(WakeGate::new());
        gate.register();
        let (tx, mut rx) = spsc::<u32>(64);
        let mut b = BatchTx::new(tx, Arc::clone(&gate), 3);
        let never = || false;
        b.send(1, &never);
        b.send(2, &never);
        assert!(b.is_dirty(), "below high water: buffered");
        assert!(!rx.has_records());
        b.send(3, &never);
        assert!(!b.is_dirty(), "high water reached: flushed");
        assert_eq!((rx.pop(), rx.pop(), rx.pop()), (Some(1), Some(2), Some(3)));
        b.send(4, &never);
        b.flush(&never);
        assert_eq!(rx.pop(), Some(4));
        assert_eq!(b.deposits, 4);
        assert_eq!(b.batches, 2);
    }

    #[test]
    fn naive_high_water_one_flushes_every_send() {
        let gate = Arc::new(WakeGate::new());
        gate.register();
        let (tx, mut rx) = spsc::<u32>(8);
        let mut b = BatchTx::new(tx, gate, 1);
        for i in 0..5 {
            b.send(i, &|| false);
            assert_eq!(rx.pop(), Some(i));
        }
        assert_eq!(b.deposits, 5);
        assert_eq!(b.batches, 5, "per-message path: one flush per record");
    }
}
