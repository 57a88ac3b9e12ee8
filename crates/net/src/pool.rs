//! Recycled payload-buffer pool.
//!
//! Marshaling a bulk payload needs a heap buffer and an `Rc` to share it;
//! without a pool every message allocates both and frees them a few
//! simulated microseconds later. [`BufPool`] keeps both per node: a stub
//! leases capacity, fills it, and wraps it into a [`PayloadBuf`]. The pool
//! keeps a reference to each `Rc` ("shell") it wraps, up to `MAX_POOLED`.
//! Once the last payload reference drops — after the handler on the
//! receiving node has run — the pool holds the shell's only reference, so
//! `Rc::get_mut` succeeds on it: the shell is free. The next wrap swaps
//! its bytes into a free shell and moves the shell's old bytes to the free
//! list, and a lease that finds the free list empty takes a free shell's
//! bytes directly. Warm sends on the owning node allocate nothing.
//!
//! # Determinism
//!
//! The free list is LIFO and a shell frees at `Rc` drop time, which is
//! itself a deterministic function of the simulation's event order. Two
//! runs with the same seed therefore lease, fill, and reclaim the same
//! buffers in the same order; pooling cannot perturb traces. (Buffer
//! *addresses* differ between runs, but nothing observable derives from
//! them.)
//!
//! # Cross-shard handoff
//!
//! Pools are per-node and single-threaded (`Rc`), so a payload crossing a
//! shard boundary cannot keep its lease. Instead the copy made at the
//! boundary ([`crate::CrossPayload`]) is leased from the *source* node's
//! pool, shipped as a plain `Vec<u8>`, and adopted by the *destination*
//! node's pool via [`BufPool::wrap`] — capacity migrates between arenas
//! with the traffic instead of being allocated per crossing, and the
//! symmetric exchange patterns of the sharded apps return it on the next
//! reply.
//!
//! # Aliasing safety
//!
//! Bytes leave a shell only while the pool holds its only reference, i.e.
//! when no [`PayloadBuf`] (and no [`crate::PayloadView`]) references it —
//! live payloads can never alias pooled storage. As a tripwire, debug
//! builds poison every reclaimed buffer with [`POISON`] before it is
//! leased again, so any use-after-reclaim shows up as sentinel bytes in
//! tests.
//!
//! [`PayloadBuf`]: crate::PayloadBuf
//! [`HeapBuf`]: crate::packet::HeapBuf

use std::cell::RefCell;
use std::rc::Rc;

use crate::packet::{HeapBuf, PayloadBuf};

/// Byte written over reclaimed buffers in debug builds, so a stale view
/// into recycled storage is unmistakable in a failing assertion.
pub const POISON: u8 = 0xA5;

/// Reclaimed buffers, and shells, retained per pool; beyond this, buffers
/// and shells are freed to the system allocator (bounds pool memory under
/// bursty fan-out).
const MAX_POOLED: usize = 32;

#[derive(Default)]
struct PoolInner {
    /// LIFO free list — the most recently reclaimed buffer (warmest) is
    /// leased first.
    free: Vec<Vec<u8>>,
    /// Every shell this pool keeps; one it alone references is free.
    shells: Vec<Rc<HeapBuf>>,
    leases: u64,
    reuses: u64,
}

impl PoolInner {
    /// Take the bytes out of a free shell that still holds capacity.
    fn take_from_free_shell(&mut self) -> Option<Vec<u8>> {
        let shell = self
            .shells
            .iter_mut()
            .filter_map(Rc::get_mut)
            .find(|shell| shell.bytes.capacity() > 0)?;
        Some(poisoned(std::mem::take(&mut shell.bytes)))
    }

    /// Return storage to the free list.
    fn reclaim(&mut self, v: Vec<u8>) {
        if self.free.len() < MAX_POOLED && v.capacity() > 0 {
            self.free.push(poisoned(v));
        }
    }
}

/// Empty `v`, first overwriting its bytes with [`POISON`] in debug builds:
/// anything still (incorrectly) reading this storage sees the sentinel
/// instead of stale payload bytes.
fn poisoned(mut v: Vec<u8>) -> Vec<u8> {
    if cfg!(debug_assertions) {
        v.fill(POISON);
    }
    v.clear();
    v
}

/// Counters for tests and reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Buffers handed out by [`BufPool::lease`].
    pub leases: u64,
    /// Leases served from the free list instead of the allocator.
    pub reuses: u64,
    /// Buffers ready to lease: the free list plus free shells' bytes.
    pub free: usize,
}

/// A per-node pool of recycled payload buffers. Cheap to clone (handles
/// share state).
#[derive(Clone, Default)]
pub struct BufPool {
    inner: Rc<RefCell<PoolInner>>,
}

impl BufPool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Lease an empty buffer with at least `capacity` bytes reserved,
    /// reusing reclaimed storage when available.
    pub fn lease(&self, capacity: usize) -> Vec<u8> {
        let mut inner = self.inner.borrow_mut();
        inner.leases += 1;
        match inner.free.pop().or_else(|| inner.take_from_free_shell()) {
            Some(mut v) => {
                inner.reuses += 1;
                v.clear();
                v.reserve(capacity);
                v
            }
            None => Vec::with_capacity(capacity),
        }
    }

    /// Wrap a filled buffer into a shared payload whose shell and storage
    /// this pool reuses once the last reference drops: `bytes` go into a
    /// free shell, whose old bytes join the free list.
    pub fn wrap(&self, bytes: Vec<u8>) -> PayloadBuf {
        let mut inner = self.inner.borrow_mut();
        let inner = &mut *inner;
        for shell in &mut inner.shells {
            if let Some(free) = Rc::get_mut(shell) {
                let old = std::mem::replace(&mut free.bytes, bytes);
                let payload = PayloadBuf::Heap(Rc::clone(shell));
                inner.reclaim(old);
                return payload;
            }
        }
        let shell = Rc::new(HeapBuf { bytes });
        if inner.shells.len() < MAX_POOLED {
            inner.shells.push(Rc::clone(&shell));
        }
        PayloadBuf::Heap(shell)
    }

    /// Current counters.
    pub fn stats(&self) -> PoolStats {
        let inner = self.inner.borrow();
        let in_shells = inner
            .shells
            .iter()
            .filter(|shell| Rc::strong_count(shell) == 1 && shell.bytes.capacity() > 0)
            .count();
        PoolStats { leases: inner.leases, reuses: inner.reuses, free: inner.free.len() + in_shells }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lease_reuses_reclaimed_storage_lifo() {
        let pool = BufPool::new();
        let a = pool.wrap({
            let mut v = pool.lease(64);
            v.extend_from_slice(&[1u8; 64]);
            v
        });
        let b = pool.wrap({
            let mut v = pool.lease(64);
            v.extend_from_slice(&[2u8; 64]);
            v
        });
        assert_eq!(pool.stats().reuses, 0, "nothing reclaimed yet");
        drop(a);
        drop(b);
        assert_eq!(pool.stats().free, 2);
        let v = pool.lease(16);
        assert!(v.is_empty(), "leased buffers come back cleared");
        assert!(v.capacity() >= 64, "storage is recycled, not reallocated");
        assert_eq!(pool.stats(), PoolStats { leases: 3, reuses: 1, free: 1 });
    }

    #[test]
    fn unpooled_payloads_do_not_feed_the_pool() {
        let pool = BufPool::new();
        drop(PayloadBuf::from(vec![0u8; 64]));
        assert_eq!(pool.stats().free, 0);
    }

    #[test]
    fn cross_shard_handoff_migrates_capacity_between_arenas() {
        let src = BufPool::new();
        let dst = BufPool::new();
        // Source side of a boundary crossing: the snapshot copy leases
        // from the source node's pool.
        let mut v = src.lease(64);
        v.extend_from_slice(&[3u8; 64]);
        let ptr = v.as_ptr();
        // Destination side: the vector is adopted as-is, no second copy.
        let p = dst.wrap(v);
        assert_eq!(p.as_slice().as_ptr(), ptr, "wrap adopts the storage in place");
        drop(p);
        assert_eq!(dst.stats().free, 1, "capacity joined the destination arena");
        assert_eq!(src.stats().free, 0, "and left the source arena for good");
        assert!(dst.lease(16).capacity() >= 64, "the migrated buffer recycles");
    }

    /// The shell and the storage of a payload behind `p`.
    fn parts(p: &PayloadBuf) -> (*const HeapBuf, *const u8) {
        let PayloadBuf::Heap(shell) = p else { panic!("pooled payloads live on the heap") };
        (Rc::as_ptr(shell), p.as_slice().as_ptr())
    }

    #[test]
    fn a_free_shell_is_reused_and_a_held_one_never() {
        let pool = BufPool::new();
        let fill = |b: u8| {
            let mut v = pool.lease(64);
            v.extend_from_slice(&[b; 64]);
            pool.wrap(v)
        };
        let held = fill(1);
        let (held_shell, held_bytes) = parts(&held);
        let view = held.view_from(8);
        drop(held); // the view still references the shell
        let b = fill(2);
        let (b_shell, b_bytes) = parts(&b);
        assert_ne!(b_shell, held_shell, "a referenced shell is not free");
        assert_ne!(b_bytes, held_bytes, "nor is its storage");
        drop(b);
        let c = fill(3);
        assert_eq!(parts(&c), (b_shell, b_bytes), "shell and storage both come back");
        assert_eq!(&*view, &[1u8; 56][..], "the held payload kept its bytes");
        assert_eq!(c, vec![3u8; 64]);
        assert_eq!(pool.stats(), PoolStats { leases: 3, reuses: 1, free: 0 });
    }

    #[test]
    fn free_list_is_bounded() {
        let pool = BufPool::new();
        let bufs: Vec<PayloadBuf> = (0..MAX_POOLED + 10)
            .map(|_| {
                let mut v = pool.lease(32);
                v.extend_from_slice(&[7u8; 32]);
                pool.wrap(v)
            })
            .collect();
        drop(bufs);
        assert_eq!(pool.stats().free, MAX_POOLED);
    }
}
