//! An indexed calendar queue for the simulator's pending-event set.
//!
//! The executor's original event queue was a global
//! `BinaryHeap<Reverse<(Time, u64)>>`: every push and pop paid `O(log n)`
//! sift costs on one big array, plus a `HashMap` lookup to find the event's
//! action. Discrete-event simulations have a much friendlier access pattern
//! than a general priority queue — almost all events are scheduled a short
//! virtual distance in the future and are consumed in near-FIFO order — so
//! a *calendar queue* (Brown, CACM 1988) fits better: a circular array of
//! day buckets, each one virtual-time slice wide, with the dequeue cursor
//! walking forward bucket by bucket.
//!
//! The implementation here preserves the executor's `(time, seq)` total
//! order **exactly** — a fixed-seed run must produce a bit-identical trace
//! to the heap-based executor (enforced by `tests/determinism_golden.rs`
//! and the order-equivalence property test in `tests/properties.rs`):
//!
//! * Every entry carries its ordering key; comparisons use `(t, seq)` and
//!   nothing else, so ties at a timestamp break by key.
//! * The **current** bucket (where the cursor stands) is kept sorted in
//!   descending order, so the minimum is an `O(1)` pop from the back and a
//!   same-day insert is a binary search plus a short `memmove`.
//! * Non-current buckets within the `NBUCKETS`-day horizon are unsorted
//!   append-only `Vec`s; each is sorted once, when the cursor reaches it.
//! * Events beyond the horizon overflow into a small `far` binary heap and
//!   are pulled into the wheel as the cursor advances toward them.
//! * Only occupied days own storage: a `u16` index maps each of the
//!   `NBUCKETS` days to a slot of a slot vector that grows to the peak
//!   number of days occupied at once. A day that drains gives its slot,
//!   storage and all, to the next day to fill, so the wheel holds about as
//!   many entry slots as were ever pending at once, and a new queue writes
//!   an 8 KiB index instead of 4,096 `Vec` headers.
//!
//! Two structural invariants keep this correct:
//!
//! 1. Every near-wheel entry has `day(t)` in
//!    `[cursor_day, cursor_day + NBUCKETS)`, except that entries whose day
//!    is `<= cursor_day` (the executor clamps schedule times to `now`, so
//!    these are "due immediately") are merge-sorted into the *current*
//!    bucket, where they are popped before the cursor moves on.
//! 2. `far` only holds entries with `day(t) >= cursor_day + NBUCKETS`.
//!
//! Since the window spans exactly `NBUCKETS` days, each non-current bucket
//! holds entries of a single day and no wrap-around collision is possible.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use oam_model::Time;

/// Number of day buckets in the wheel. Power of two so the day-to-bucket
/// map is a mask.
pub const NBUCKETS: usize = 4096;
/// log2 of the bucket width in nanoseconds: each day spans 1024 ns, so the
/// wheel covers a 4096 × 1024 ns ≈ 4.2 ms horizon — far wider than the
/// fabric's per-hop latencies, so in steady state nearly every event lands
/// in the near wheel.
pub const DAY_SHIFT: u32 = 10;

const MASK: u64 = (NBUCKETS as u64) - 1;
const WORDS: usize = NBUCKETS / 64;

/// Occupancy bitmap over the wheel's buckets: bit `i` is set iff day
/// bucket `i` is non-empty. Lets the cursor jump straight to the next
/// occupied day with a handful of word scans instead of probing empty
/// `Vec`s one day at a time — crucial for workloads whose inter-event gaps
/// span many days (a compute-bound TSP worker sleeps tens of microseconds,
/// i.e. dozens of buckets).
struct Occupancy {
    words: [u64; WORDS],
}

impl Occupancy {
    fn new() -> Self {
        Occupancy { words: [0; WORDS] }
    }

    #[inline]
    fn set(&mut self, i: usize) {
        self.words[i >> 6] |= 1 << (i & 63);
    }

    #[inline]
    fn clear(&mut self, i: usize) {
        self.words[i >> 6] &= !(1 << (i & 63));
    }

    #[inline]
    fn get(&self, i: usize) -> bool {
        self.words[i >> 6] & (1 << (i & 63)) != 0
    }

    /// Distance (in buckets, wrapping) from `from` to the nearest set bit
    /// at or after it. `None` when no bit is set. The caller only asks when
    /// `from`'s own bit is clear, so the result is in `[1, NBUCKETS)`.
    fn next_set_distance(&self, from: usize) -> Option<usize> {
        let start_word = from >> 6;
        let mut masked = self.words[start_word] & (!0u64 << (from & 63));
        for step in 0..=WORDS {
            if masked != 0 {
                let w = (start_word + step) % WORDS;
                let idx = (w << 6) + masked.trailing_zeros() as usize;
                return Some((idx + NBUCKETS - from) & MASK as usize);
            }
            if step == WORDS {
                break;
            }
            masked = self.words[(start_word + step + 1) % WORDS];
        }
        None
    }
}

/// One pending event: its due time, the executor's ordering key (the
/// tie-break among same-time events), and the slab coordinates of its
/// action.
///
/// Ordering is on `(t, seq)` **only**; `slot`/`gen` are payload. `seq` is
/// unique per entry, so the order is total and `sort_unstable` is safe.
#[derive(Debug, Clone, Copy)]
pub struct Entry {
    /// Absolute virtual due time.
    pub t: Time,
    /// Ordering key ([`crate::event_key`]); unique among pending entries.
    pub seq: u64,
    /// Slab slot holding the event's action.
    pub slot: u32,
    /// Slab generation at scheduling time; a mismatch at pop means the
    /// event was cancelled and this entry is stale.
    pub gen: u32,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.t == other.t && self.seq == other.seq
    }
}

impl Eq for Entry {}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.t, self.seq).cmp(&(other.t, other.seq))
    }
}

/// The calendar queue. See the module docs for the invariants.
pub struct CalendarQueue {
    /// The wheel: the entries due on `day` are in
    /// `slots[slot_of[day & MASK]]`. An entry of `slot_of` means something
    /// only while its `occupied` bit is set.
    slot_of: Box<[u16]>,
    /// Storage of the occupied days, and of drained days awaiting reuse.
    /// The wheel's memory then follows the entries pending at once, not
    /// the busiest day each of its 4096 buckets ever held.
    slots: Vec<Vec<Entry>>,
    /// Slots of drained days, handed to the next day that fills.
    free_slots: Vec<u16>,
    /// Which buckets are non-empty, for fast cursor advancement and for
    /// every empty-day check.
    occupied: Occupancy,
    /// The day the dequeue cursor stands on. The bucket at this index is
    /// kept sorted descending (minimum at the back).
    cursor_day: u64,
    /// Entries currently in the wheel (not counting `far`).
    near_len: usize,
    /// Overflow for entries scheduled beyond the wheel's horizon.
    far: BinaryHeap<Reverse<Entry>>,
}

impl Default for CalendarQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl CalendarQueue {
    /// An empty queue with its cursor at day zero.
    pub fn new() -> Self {
        CalendarQueue {
            slot_of: vec![0; NBUCKETS].into_boxed_slice(),
            slots: Vec::new(),
            free_slots: Vec::new(),
            occupied: Occupancy::new(),
            cursor_day: 0,
            near_len: 0,
            far: BinaryHeap::new(),
        }
    }

    /// Which day a time falls on.
    #[inline]
    fn day(t: Time) -> u64 {
        t.as_nanos() >> DAY_SHIFT
    }

    /// Pending entries, stale ones included.
    #[inline]
    pub fn len(&self) -> usize {
        self.near_len + self.far.len()
    }

    /// True when no entry is pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.near_len == 0 && self.far.is_empty()
    }

    /// Insert an entry. `O(1)` for future days within the horizon; a binary
    /// search plus short shift for same-day inserts; `O(log far)` beyond the
    /// horizon.
    pub fn push(&mut self, e: Entry) {
        let d = Self::day(e.t);
        if self.is_empty() {
            // Nothing pending constrains the cursor; jump it straight to
            // the new entry's day so we never walk dead buckets to reach
            // it. Safe because the executor clamps times to `now`, which
            // the cursor can never be ahead of when the queue is empty.
            self.cursor_day = d;
        }
        if d <= self.cursor_day {
            // Due now or overdue (clamped schedule): merge into the sorted
            // current bucket so it pops in exact (t, seq) order.
            let idx = (self.cursor_day & MASK) as usize;
            let cur = self.bucket_to_fill(idx);
            let pos = cur.partition_point(|x| *x > e);
            cur.insert(pos, e);
            self.near_len += 1;
        } else if d < self.cursor_day + NBUCKETS as u64 {
            let idx = (d & MASK) as usize;
            self.bucket_to_fill(idx).push(e);
            self.near_len += 1;
        } else {
            self.far.push(Reverse(e));
        }
    }

    /// Remove and return the minimum entry by `(t, seq)`.
    pub fn pop(&mut self) -> Option<Entry> {
        self.pop_if(|_| true)
    }

    /// Remove and return the minimum entry if `take` accepts it; `None`
    /// when the queue is empty or `take` refuses. One cursor advance serves
    /// both the test and the pop, where a `peek` then `pop` would pay two.
    #[inline]
    pub fn pop_if(&mut self, take: impl FnOnce(&Entry) -> bool) -> Option<Entry> {
        self.advance_to_nonempty()?;
        let idx = (self.cursor_day & MASK) as usize;
        let slot = self.slot_of[idx];
        let cur = &mut self.slots[slot as usize];
        if !take(cur.last().expect("advance_to_nonempty found a bucket")) {
            return None;
        }
        let e = cur.pop().expect("advance_to_nonempty found a bucket");
        if cur.is_empty() {
            self.occupied.clear(idx);
            self.free_slots.push(slot);
        }
        self.near_len -= 1;
        Some(e)
    }

    /// The minimum entry by `(t, seq)`, without removing it.
    ///
    /// Takes `&mut self` because finding the minimum advances the cursor;
    /// that is harmless — see invariant 1 in the module docs.
    pub fn peek(&mut self) -> Option<Entry> {
        self.advance_to_nonempty()?;
        self.current().last().copied()
    }

    /// The bucket the cursor stands on; it must be occupied.
    #[inline]
    fn current(&mut self) -> &mut Vec<Entry> {
        &mut self.slots[self.slot_of[(self.cursor_day & MASK) as usize] as usize]
    }

    /// Move the cursor forward to the next non-empty bucket, pulling far
    /// events into the wheel as their days come within the horizon. Returns
    /// `None` when the queue is empty.
    fn advance_to_nonempty(&mut self) -> Option<()> {
        if self.is_empty() {
            return None;
        }
        loop {
            if self.occupied.get((self.cursor_day & MASK) as usize) {
                return Some(());
            }
            if self.near_len == 0 {
                // The whole wheel is empty; jump straight to the earliest
                // far event's day instead of sweeping up to it.
                let Reverse(min) = self.far.peek().expect("queue non-empty but wheel drained");
                self.cursor_day = Self::day(min.t);
            } else {
                // Jump to the next occupied bucket. Bucket distance equals
                // day distance: the window spans exactly NBUCKETS days, so
                // no occupied bucket between here and the target is
                // skipped. Far events all lie at or beyond the window's
                // end, hence at or beyond the jump target — none are
                // overtaken either.
                let dist = self
                    .occupied
                    .next_set_distance((self.cursor_day & MASK) as usize)
                    .expect("near_len > 0 but no occupied bucket");
                self.cursor_day += dist as u64;
            }
            self.pull_far();
            // First visit to this day: sort its append-only bucket into
            // descending order so the minimum sits at the back.
            if self.occupied.get((self.cursor_day & MASK) as usize) {
                self.current().sort_unstable_by(|a, b| b.cmp(a));
            }
        }
    }

    /// Drain far events whose day has come within the wheel's horizon.
    fn pull_far(&mut self) {
        while let Some(Reverse(e)) = self.far.peek() {
            if Self::day(e.t) >= self.cursor_day + NBUCKETS as u64 {
                break;
            }
            let Reverse(e) = self.far.pop().expect("peeked entry");
            let idx = (Self::day(e.t) & MASK) as usize;
            self.bucket_to_fill(idx).push(e);
            self.near_len += 1;
        }
    }

    /// Bucket `idx`, about to take an entry, marked occupied. An empty
    /// day first takes the slot the latest drained day gave up, or a new
    /// one.
    #[inline]
    fn bucket_to_fill(&mut self, idx: usize) -> &mut Vec<Entry> {
        if !self.occupied.get(idx) {
            self.occupied.set(idx);
            self.slot_of[idx] = self.free_slots.pop().unwrap_or_else(|| {
                self.slots.push(Vec::new());
                (self.slots.len() - 1) as u16
            });
        }
        &mut self.slots[self.slot_of[idx] as usize]
    }

    /// Entry slots held by the wheel's storage.
    #[cfg(test)]
    fn retained_capacity(&self) -> usize {
        self.slots.iter().map(Vec::capacity).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(ns: u64, seq: u64) -> Entry {
        Entry { t: Time::from_nanos(ns), seq, slot: 0, gen: 0 }
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut q = CalendarQueue::new();
        q.push(e(20, 0));
        q.push(e(10, 1));
        q.push(e(20, 2));
        q.push(e(10, 3));
        let order: Vec<(u64, u64)> =
            std::iter::from_fn(|| q.pop()).map(|x| (x.t.as_nanos(), x.seq)).collect();
        assert_eq!(order, vec![(10, 1), (10, 3), (20, 0), (20, 2)]);
    }

    #[test]
    fn far_events_cross_the_horizon() {
        let mut q = CalendarQueue::new();
        let horizon = (NBUCKETS as u64) << DAY_SHIFT;
        q.push(e(3 * horizon, 0));
        q.push(e(5, 1));
        q.push(e(7 * horizon, 2));
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop().unwrap().seq, 1);
        assert_eq!(q.pop().unwrap().seq, 0);
        assert_eq!(q.pop().unwrap().seq, 2);
        assert!(q.pop().is_none());
        assert!(q.is_empty());
    }

    #[test]
    fn overdue_push_lands_before_current_bucket_remainder() {
        let mut q = CalendarQueue::new();
        q.push(e(5_000, 0));
        // Drain to the entry's day, then peek so the cursor advances.
        assert_eq!(q.peek().unwrap().seq, 0);
        // An "overdue" push (earlier than the cursor's day) must still pop
        // first: this models a clamped-to-now schedule racing the cursor.
        q.push(e(100, 1));
        assert_eq!(q.pop().unwrap().seq, 1);
        assert_eq!(q.pop().unwrap().seq, 0);
    }

    #[test]
    fn drained_buckets_hand_their_storage_on() {
        // Bursts of same-day entries on every day of the wheel (and once
        // more round it), two days pending at a time: the next day's burst
        // is appended to its near bucket while the current day drains.
        const BURST: u64 = 300;
        let mut q = CalendarQueue::new();
        let mut seq = 0;
        let mut peak = 0;
        for day in 0..NBUCKETS as u64 + 64 {
            let start = day << DAY_SHIFT;
            for i in 0..BURST {
                q.push(e(start + i % 7, seq));
                seq += 1;
            }
            peak = peak.max(q.len());
            while q.peek().is_some_and(|x| x.t.as_nanos() < start) {
                q.pop();
            }
        }
        while q.pop().is_some() {}
        let retained = q.retained_capacity();
        assert!(
            retained <= 4 * peak,
            "{retained} entry slots retained for at most {peak} pending entries"
        );
    }

    #[test]
    fn peek_matches_pop_and_does_not_consume() {
        let mut q = CalendarQueue::new();
        for (ns, seq) in [(512, 0u64), (40_960, 1), (512, 2)] {
            q.push(e(ns, seq));
        }
        while let Some(p) = q.peek() {
            assert_eq!(q.peek(), Some(p), "peek is idempotent");
            assert_eq!(q.pop(), Some(p));
        }
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn pop_if_takes_the_minimum_only_when_accepted() {
        let mut q = CalendarQueue::new();
        for (ns, seq) in [(40_960, 1u64), (512, 0)] {
            q.push(e(ns, seq));
        }
        assert_eq!(q.pop_if(|m| m.t > Time::from_nanos(512)), None, "refused");
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop_if(|m| m.seq == 0), Some(e(512, 0)));
        assert_eq!(q.pop_if(|_| true), Some(e(40_960, 1)));
        assert_eq!(q.pop_if(|_| true), None, "empty");
    }
}
