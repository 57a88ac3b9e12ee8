//! The discrete-event simulation core.
//!
//! A [`Sim`] owns a virtual clock and an event queue of closures that run
//! at chosen virtual times. Everything above this layer — network fabric,
//! node schedulers, thread packages — is built from that one primitive;
//! futures run on the per-node schedulers of `oam-threads`, not here.
//!
//! Determinism: events at equal times run in the order of a
//! partition-independent key — `(node, class, per-node counter)`, see
//! [`event_key`] — and every node draws randomness from its own stream
//! derived from the seed. The order never depends on how nodes are split
//! across shards, so two runs with the same seed produce bit-identical
//! traces at any shard count.
//!
//! # Hot-path layout
//!
//! The event queue is an indexed [calendar queue](crate::calq) rather than
//! a global binary heap: pushes and pops are `O(1)` in the common case.
//! Event actions live in a generation-tagged slab indexed by the queue
//! entry itself, so firing an event touches no hash map; cancellation just
//! bumps the slot's generation, turning the queue entry stale in `O(1)`.
//! The [`Sim`] handle is a single `Rc`: cloning or dropping it is a
//! non-atomic refcount bump, and the run loops touch no lock.
//!
//! Next to the queue sits one **continuation slot**: a single event that
//! cannot be cancelled, held as `(time, key, owner, action)` outside both
//! the slab and the queue ([`Sim::settle_for`]). A node's settle —
//! the wait that turns its accumulated charge into virtual time — goes
//! through it, because with few busy nodes the settle is almost always the
//! very next event to fire, and the slot spares it the key-to-slab-to-queue
//! round trip. Firing compares the slot with the raw queue head: the slot
//! fires if it is earlier, a stale head is discarded and the comparison
//! repeats, otherwise the head pops. So events still fire in exact
//! `(time, key)` order, cancelled entries are discarded at the same moments
//! as without the slot, and an empty slot costs one branch. The slot counts
//! as one pending entry in the queue depth and its peak.
//!
//! # Settles in place
//!
//! Most settles need no event at all. When a settle is the last thing its
//! event does — the caller says so with `tail` ([`Sim::settle_for`]) — and
//! no pending event precedes its `(time, key)`, the continuation would be
//! the very next event to fire and nothing could run before it. The settle
//! then takes its key as usual, moves [`Sim::now`] to its due time and
//! returns `true`, and the caller goes on in place of the continuation.
//! Every other event keeps its key and its place, so the run is the same
//! run with one event fewer; [`Sim::settles_in_place`] counts these.
//!
//! The advance never leaves the window the current run loop may fire in:
//! [`Sim::run_before`]'s fence (exclusive), [`Sim::run_with_deadline`]'s
//! deadline (inclusive). A native sim never advances in place, since its
//! events are paced by the wall clock; the check reads a field already
//! under the settle's one borrow, so native settles pay nothing for it.

use std::any::Any;
use std::cell::RefCell;
use std::hash::Hasher;
use std::marker::PhantomData;
use std::mem::{align_of, size_of, ManuallyDrop, MaybeUninit};
use std::rc::Rc;

use oam_model::{Dur, Time};

use crate::calq::{CalendarQueue, Entry};
use crate::rng::Prng;

/// Identifier of a scheduled event, usable for cancellation.
///
/// Packs the event's slab slot and the slot's generation at scheduling
/// time; once the event fires or is cancelled the generation moves on and
/// the id goes permanently stale.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId(u64);

impl EventId {
    fn new(slot: u32, gen: u32) -> Self {
        EventId(((gen as u64) << 32) | slot as u64)
    }

    fn slot(self) -> u32 {
        self.0 as u32
    }

    fn gen(self) -> u32 {
        (self.0 >> 32) as u32
    }
}

/// Inline capacity of an [`EventAction`], in `usize` words. 48 bytes holds
/// every closure the network fabric and node schedulers schedule (a couple
/// of `Rc` handles plus a few scalars); anything bigger spills to a `Box`.
const ACTION_WORDS: usize = 6;

/// A type-erased `FnOnce(&Sim)` with small-closure optimization: closures
/// up to `ACTION_WORDS` words (and word alignment) are stored inline in
/// the event slab, making the schedule → fire cycle allocation-free. The
/// event path runs a few million times per simulated second, so the
/// per-event `Box` this replaces was the simulator's single largest
/// allocation source.
struct EventAction {
    /// The closure's bytes (inline case) or a `Box<dyn FnOnce(&Sim)>`
    /// (spilled case).
    buf: MaybeUninit<[usize; ACTION_WORDS]>,
    /// Moves the closure out of `buf` and runs it.
    call: unsafe fn(*mut u8, &Sim),
    /// Drops the closure in place without running it (cancellation).
    drop_in_place: unsafe fn(*mut u8),
    /// Captured state is single-threaded (`Rc`, `Cell`); keep the erased
    /// container `!Send + !Sync` like the `Box<dyn FnOnce>` it replaces.
    _not_send: PhantomData<*mut ()>,
}

impl EventAction {
    fn new<F: FnOnce(&Sim) + 'static>(f: F) -> Self {
        unsafe fn call_inline<F: FnOnce(&Sim)>(p: *mut u8, sim: &Sim) {
            // SAFETY: `p` holds a valid `F` written by `new`; reading it
            // moves ownership here, and the caller never touches it again.
            unsafe { (p.cast::<F>()).read()(sim) }
        }
        unsafe fn drop_inline<F>(p: *mut u8) {
            // SAFETY: as above; drop consumes the stored closure.
            unsafe { p.cast::<F>().drop_in_place() }
        }
        type Spilled = Box<dyn FnOnce(&Sim)>;
        unsafe fn call_spilled(p: *mut u8, sim: &Sim) {
            // SAFETY: `p` holds the `Box` written by `new`'s spill path.
            unsafe { (p.cast::<Spilled>()).read()(sim) }
        }
        unsafe fn drop_spilled(p: *mut u8) {
            // SAFETY: as above.
            unsafe { p.cast::<Spilled>().drop_in_place() }
        }

        let mut buf = MaybeUninit::<[usize; ACTION_WORDS]>::uninit();
        // Both branches of this size test are resolved per monomorphized
        // `F` at compile time.
        if size_of::<F>() <= size_of::<[usize; ACTION_WORDS]>()
            && align_of::<F>() <= align_of::<usize>()
        {
            // SAFETY: `f` fits the buffer in size and alignment; the value
            // is owned by the buffer from here on (`f` is moved, not
            // dropped).
            unsafe { buf.as_mut_ptr().cast::<F>().write(f) };
            EventAction {
                buf,
                call: call_inline::<F>,
                drop_in_place: drop_inline::<F>,
                _not_send: PhantomData,
            }
        } else {
            let boxed: Spilled = Box::new(f);
            // SAFETY: a fat `Box` pointer is two words — always fits.
            unsafe { buf.as_mut_ptr().cast::<Spilled>().write(boxed) };
            EventAction {
                buf,
                call: call_spilled,
                drop_in_place: drop_spilled,
                _not_send: PhantomData,
            }
        }
    }

    /// Run the stored closure, consuming it.
    fn invoke(self, sim: &Sim) {
        let mut this = ManuallyDrop::new(self);
        // SAFETY: `call` moves the closure out of the buffer exactly once;
        // wrapping in `ManuallyDrop` ensures `drop_in_place` never sees the
        // moved-out bytes.
        unsafe { (this.call)(this.buf.as_mut_ptr().cast(), sim) }
    }
}

impl Drop for EventAction {
    fn drop(&mut self) {
        // Only reached when the action never ran (cancellation).
        // SAFETY: the buffer still owns a live closure.
        unsafe { (self.drop_in_place)(self.buf.as_mut_ptr().cast()) }
    }
}

/// One slab slot for an event action. `gen` counts how many times the slot
/// has been retired (fired or cancelled); queue entries and [`EventId`]s
/// snapshot the generation and are ignored once it moves on.
struct EventSlot {
    gen: u32,
    /// Node the event is attributed to; becomes the ambient owner while
    /// the action runs.
    owner: u32,
    action: Option<EventAction>,
}

/// The event held in the continuation slot: its due time and key order it
/// against the queue exactly as an [`Entry`] would be ordered.
struct Continuation {
    t: Time,
    seq: u64,
    owner: u32,
    action: EventAction,
}

/// Bit layout of an event key: `node:16 | class:4 |
/// counter:44`. Within one timestamp, events order by node, then class,
/// then per-node issue order — none of which depend on how nodes are
/// partitioned into shards, so the total (time, seq) order is identical
/// for any shard count.
const KEY_CLASS_SHIFT: u32 = 44;
const KEY_NODE_SHIFT: u32 = 48;
const KEY_COUNTER_MASK: u64 = (1 << KEY_CLASS_SHIFT) - 1;

/// Event class for ordinary node-attributed activity.
pub const KEY_CLASS_NODE: u32 = 0;
/// Event class for collective publish replicas (ordered after a node's
/// ordinary events at the same instant; the counter carries the reducer
/// id and round so replicas agree across shards without a node counter).
pub const KEY_CLASS_COLLECTIVE: u32 = 1;

/// Pack a partition-independent event key.
pub fn event_key(node: u32, class: u32, counter: u64) -> u64 {
    debug_assert!(node < (1 << 16), "node id exceeds key width");
    debug_assert!(class < (1 << 4), "event class exceeds key width");
    debug_assert!(counter <= KEY_COUNTER_MASK, "event counter exceeded 2^44");
    ((node as u64) << KEY_NODE_SHIFT) | ((class as u64) << KEY_CLASS_SHIFT) | counter
}

/// Multiplicative hasher for maps whose keys the program inserts itself —
/// scheduler-issued thread ids, compile-time handler ids — so no outside
/// input can choose colliding keys, and a single Fibonacci multiply spreads
/// them across buckets at a fraction of SipHash's cost. Use as
/// `HashMap<K, V, BuildHasherDefault<SeqHasher>>`.
#[derive(Default)]
pub struct SeqHasher(u64);

impl Hasher for SeqHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(buf));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(n as u64);
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

struct Inner {
    now: Time,
    /// Pending events, min-ordered on (time, key).
    queue: CalendarQueue,
    /// The continuation slot: one more pending event, outside the queue
    /// and the slab (see the module docs).
    cont: Option<Continuation>,
    /// Event actions, indexed by the queue entries' slot/generation pairs.
    slots: Vec<EventSlot>,
    /// Retired slots available for reuse.
    free_slots: Vec<u32>,
    /// Seed the per-node RNG streams derive from.
    seed: u64,
    /// Per-node class-0 event counters, grown on first use of a node.
    counters: Vec<u64>,
    /// Per-node RNG streams, grown on first use of a node.
    rngs: Vec<Prng>,
    /// Node that events scheduled without explicit attribution belong to.
    owner: u32,
    events_executed: u64,
    /// High-water mark of the event queue (pending entries, including
    /// stale cancelled ones), for capacity planning and perf harnesses.
    queue_peak: u64,
    /// The latest instant a settle may reach in place: the window of the run
    /// loop in progress (see the module docs).
    horizon: Time,
    /// Settles that advanced the clock in place instead of firing an event.
    in_place: u64,
    /// Wall-clock time source (native backend); `None` in simulator mode.
    /// Lives here rather than on the `Sim` handle so the handle stays one
    /// word — closures capturing a `Sim` must keep fitting the event
    /// slab's inline buffer ([`ACTION_WORDS`]).
    wall: Option<WallClock>,
    /// Values of [`Sim::shared`], one per type.
    shared: Vec<Rc<dyn Any>>,
}

impl Inner {
    /// Next class-0 key for an event attributed to `node`.
    fn next_key_for(&mut self, node: u32) -> u64 {
        let i = node as usize;
        if i >= self.counters.len() {
            self.counters.resize(i + 1, 0);
        }
        let c = self.counters[i];
        self.counters[i] += 1;
        event_key(node, KEY_CLASS_NODE, c)
    }

    /// `node`'s RNG stream: distinct per node and stable across shard
    /// counts, because it mixes only the node id into the seed.
    fn rng_for(&mut self, node: u32) -> &mut Prng {
        let seed = self.seed;
        let i = node as usize;
        while self.rngs.len() <= i {
            let n = self.rngs.len() as u64;
            self.rngs.push(Prng::seed_from_u64(seed ^ (n + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)));
        }
        &mut self.rngs[i]
    }

    fn push_event(&mut self, at: Time, seq: u64, owner: u32, action: EventAction) -> EventId {
        let at = at.max(self.now);
        let slot = match self.free_slots.pop() {
            Some(s) => {
                let slot = &mut self.slots[s as usize];
                slot.action = Some(action);
                slot.owner = owner;
                s
            }
            None => {
                self.slots.push(EventSlot { gen: 0, owner, action: Some(action) });
                (self.slots.len() - 1) as u32
            }
        };
        let gen = self.slots[slot as usize].gen;
        self.queue.push(Entry { t: at, seq, slot, gen });
        self.queue_peak = self.queue_peak.max(self.depth() as u64);
        EventId::new(slot, gen)
    }

    /// Pending events: queue entries (stale ones included) plus the slot.
    fn depth(&self) -> usize {
        self.queue.len() + self.cont.is_some() as usize
    }

    /// Whether a pending event precedes `(t, seq)`: the held continuation or
    /// a live queue entry. Stale entries ahead of `(t, seq)` are discarded
    /// on the way, as firing up to `(t, seq)` would discard them.
    fn due_before(&mut self, t: Time, seq: u64) -> bool {
        if self.cont.as_ref().is_some_and(|c| (c.t, c.seq) < (t, seq)) {
            return true;
        }
        while let Some(e) = self.queue.peek() {
            if (e.t, e.seq) > (t, seq) {
                return false;
            }
            if self.slots[e.slot as usize].gen == e.gen {
                return true;
            }
            self.queue.pop();
        }
        false
    }
}

/// A wall-clock time source for the native (host-threads) backend:
/// virtual `Time` measured as real nanoseconds elapsed since a common
/// origin. It is only that origin, so it is `Copy`: every node's `Sim` in
/// a native run holds a copy of the same clock, and timestamps taken on
/// different OS threads are comparable.
///
/// A read is not free: [`WallClock::now`] costs 36–56 ns on a 2-core
/// x86-64 VM (`Instant::now`, 5M reads in a loop), a quarter of the
/// ~177 ns host cost of one simulator event. [`Sim::run_wall`] therefore
/// reads it once per pass, and again only when the queue head is not due
/// at the last reading, not once per event as it did before.
#[derive(Debug, Clone, Copy)]
pub struct WallClock {
    origin: std::time::Instant,
}

#[cfg(test)]
thread_local! {
    /// [`WallClock::now`] calls on this thread, for the tests that bound them.
    static CLOCK_READS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

impl WallClock {
    /// Start the clock: `now()` reads zero at this instant.
    #[allow(clippy::new_without_default)]
    pub fn start() -> Self {
        WallClock { origin: std::time::Instant::now() }
    }

    /// Real time elapsed since the origin, as a virtual `Time`. Each call
    /// reads the host clock.
    pub fn now(&self) -> Time {
        #[cfg(test)]
        CLOCK_READS.with(|n| n.set(n.get() + 1));
        Time::from_nanos(self.origin.elapsed().as_nanos() as u64)
    }
}

/// Handle to the simulation. Cheap to clone; all clones share state.
#[derive(Clone)]
pub struct Sim {
    inner: Rc<RefCell<Inner>>,
}

impl Sim {
    /// Create a simulation whose randomness derives from `seed`. Node
    /// counters and RNG streams are created on first use of each node id.
    pub fn new(seed: u64) -> Self {
        Sim {
            inner: Rc::new(RefCell::new(Inner {
                now: Time::ZERO,
                queue: CalendarQueue::new(),
                cont: None,
                slots: Vec::new(),
                free_slots: Vec::new(),
                seed,
                counters: Vec::new(),
                rngs: Vec::new(),
                owner: 0,
                events_executed: 0,
                queue_peak: 0,
                horizon: Time::MAX,
                in_place: 0,
                wall: None,
                shared: Vec::new(),
            })),
        }
    }

    /// Create a simulation in **native** mode: the same keys and RNG
    /// streams as [`Sim::new`], but paced by `clock` — shared wall-clock
    /// time. Pending events become *due* once the wall clock reaches their
    /// timestamp; drive them with [`Sim::run_wall`]. [`Sim::now`] still
    /// reads the last fired event's time, which trails the clock by at
    /// most one batch.
    pub fn new_native(seed: u64, clock: WallClock) -> Self {
        let sim = Sim::new(seed);
        sim.inner.borrow_mut().wall = Some(clock);
        sim
    }

    /// Whether this simulation is driven by a wall clock (native backend).
    pub fn is_native(&self) -> bool {
        self.inner.borrow().wall.is_some()
    }

    /// This simulator's one value of type `T`, made by `T::default()` on
    /// the first request. The layers above keep state in it that every
    /// node on the simulator shares and that goes with it, such as the
    /// thread package's spare thread-body storage.
    pub fn shared<T: Default + 'static>(&self) -> Rc<T> {
        let found = self.inner.borrow().shared.iter().find_map(|v| Rc::clone(v).downcast().ok());
        found.unwrap_or_else(|| {
            let value = Rc::new(T::default());
            self.inner.borrow_mut().shared.push(value.clone());
            value
        })
    }

    /// Set the ambient owner node and return the previous one. Node
    /// schedulers wrap their execution in a swap/restore pair so that
    /// events scheduled from node code are attributed to that node.
    pub fn swap_owner(&self, node: u32) -> u32 {
        std::mem::replace(&mut self.inner.borrow_mut().owner, node)
    }

    /// Allocate the next class-0 event key for `node` without scheduling
    /// anything. Used at shard boundaries: the source shard allocates the
    /// key while pumping, and the destination shard inserts the event under
    /// it, so both sides agree on the global order.
    pub fn alloc_key_for(&self, node: u32) -> u64 {
        self.inner.borrow_mut().next_key_for(node)
    }

    /// Current virtual time: the time of the last fired event. This holds
    /// in native mode too — events only fire once the wall clock reaches
    /// their timestamp (see [`Sim::run_wall`]), so logical time trails the
    /// shared [`WallClock`] by at most the in-progress batch. `now` never
    /// reads the host clock: a [`Sim::run_wall`] pass reads it once, and
    /// again only when the queue head is not due at the last reading, and
    /// code that needs the real current instant (watchdogs, wait-gap
    /// pacing) reads the clock directly. Keeping `now` a plain field load
    /// keeps the simulator's hottest accessor branch-free.
    pub fn now(&self) -> Time {
        self.inner.borrow().now
    }

    /// Number of events executed so far.
    pub fn events_executed(&self) -> u64 {
        self.inner.borrow().events_executed
    }

    /// Number of settles that advanced the clock in place instead of firing
    /// an event ([`Sim::settle_for`]). Each stands for one event that a
    /// settle through the continuation slot would have fired, so
    /// `events_executed() + settles_in_place()` is the event count of the
    /// same run without in-place settles.
    pub fn settles_in_place(&self) -> u64 {
        self.inner.borrow().in_place
    }

    /// Number of events currently pending (including cancelled entries not
    /// yet garbage-collected, and the continuation slot's event).
    pub fn event_queue_depth(&self) -> usize {
        self.inner.borrow().depth()
    }

    /// High-water mark of the event queue over the whole run.
    pub fn peak_event_queue_depth(&self) -> u64 {
        self.inner.borrow().queue_peak
    }

    /// Run `f` with `node`'s RNG stream. Each node draws from its own
    /// stream, so draws on one node never shift another's.
    pub fn with_rng_for<R>(&self, node: u32, f: impl FnOnce(&mut Prng) -> R) -> R {
        f(self.inner.borrow_mut().rng_for(node))
    }

    /// Schedule `action` to run at absolute time `at` (clamped to `now` if
    /// already past). Returns an id usable with [`Sim::cancel`].
    ///
    /// The event is attributed to the ambient owner node (see
    /// [`Sim::swap_owner`]); use [`Sim::schedule_at_for`] to attribute it
    /// explicitly.
    pub fn schedule_at(&self, at: Time, action: impl FnOnce(&Sim) + 'static) -> EventId {
        let mut inner = self.inner.borrow_mut();
        let owner = inner.owner;
        let seq = inner.next_key_for(owner);
        inner.push_event(at, seq, owner, EventAction::new(action))
    }

    /// Schedule `action` to run `after` from now.
    pub fn schedule_after(&self, after: Dur, action: impl FnOnce(&Sim) + 'static) -> EventId {
        let at = self.now() + after;
        self.schedule_at(at, action)
    }

    /// Schedule `action` at `at`, attributed to `node`: the event takes
    /// `node`'s next class-0 key and runs with `node` as the ambient owner.
    pub fn schedule_at_for(
        &self,
        at: Time,
        node: u32,
        action: impl FnOnce(&Sim) + 'static,
    ) -> EventId {
        let mut inner = self.inner.borrow_mut();
        let seq = inner.next_key_for(node);
        inner.push_event(at, seq, node, EventAction::new(action))
    }

    /// Schedule `action` `after` from now, attributed to `node`.
    pub fn schedule_after_for(
        &self,
        after: Dur,
        node: u32,
        action: impl FnOnce(&Sim) + 'static,
    ) -> EventId {
        let at = self.now() + after;
        self.schedule_at_for(at, node, action)
    }

    /// Settle `node`'s charge: run `action` `after` from now, as a
    /// *continuation* — or advance the clock in place and return `true`.
    ///
    /// A continuation is an event that cannot be cancelled and so needs no
    /// [`EventId`]. It takes `node`'s next class-0 key exactly as
    /// [`Sim::schedule_after_for`] does and fires in the same `(time, key)`
    /// order; only its storage differs. It goes to the continuation slot;
    /// if the slot is taken, the earlier of the two keeps it and the other
    /// joins the queue.
    ///
    /// `tail` says the caller's event does nothing after this call, so no
    /// code can observe the clock between the settle and its continuation.
    /// If it holds, the sim is not native, no pending event precedes the
    /// settle's `(time, key)` and that time lies inside the current run
    /// loop's window, the settle still takes its key but moves the clock
    /// to its time at once, drops `action` unrun and returns `true`; the
    /// caller then goes on as `action` would have. Otherwise it returns
    /// `false`.
    pub fn settle_for(
        &self,
        after: Dur,
        node: u32,
        tail: bool,
        action: impl FnOnce(&Sim) + 'static,
    ) -> bool {
        let mut inner = self.inner.borrow_mut();
        let inner = &mut *inner;
        let t = inner.now + after;
        let seq = inner.next_key_for(node);
        if tail && inner.wall.is_none() && t <= inner.horizon && !inner.due_before(t, seq) {
            inner.now = t;
            inner.in_place += 1;
            return true;
        }
        let action = EventAction::new(action);
        // The earlier of the two keeps the slot; the other is queued.
        if inner.cont.as_ref().is_some_and(|held| (held.t, held.seq) < (t, seq)) {
            inner.push_event(t, seq, node, action);
        } else if let Some(held) = inner.cont.replace(Continuation { t, seq, owner: node, action })
        {
            inner.push_event(held.t, held.seq, held.owner, held.action);
        } else {
            inner.queue_peak = inner.queue_peak.max(inner.depth() as u64);
        }
        false
    }

    /// Drop every pending event without running it: the continuation, and
    /// each queued action (their queue entries go stale, as on
    /// [`Sim::cancel`]). Pending actions hold handles to the nodes and
    /// fabric that hold this `Sim`; a machine dropped mid-run calls this
    /// to break those cycles. The actions are dropped after the simulator's
    /// state is released, so their destructors may use it.
    pub fn drop_pending(&self) {
        let (cont, actions) = {
            let mut inner = self.inner.borrow_mut();
            let inner = &mut *inner;
            let mut actions = Vec::new();
            for (i, s) in inner.slots.iter_mut().enumerate() {
                if let Some(a) = s.action.take() {
                    s.gen = s.gen.wrapping_add(1);
                    inner.free_slots.push(i as u32);
                    actions.push(a);
                }
            }
            (inner.cont.take(), actions)
        };
        drop(cont);
        drop(actions);
    }

    /// Insert an event under a pre-allocated key. This is the
    /// shard-boundary primitive: the key was allocated on the shard
    /// that owns its node (via [`Sim::alloc_key_for`] or [`event_key`]),
    /// and the event body runs on the shard inserting it. No counter is
    /// touched here.
    pub fn schedule_at_raw(
        &self,
        at: Time,
        seq: u64,
        owner: u32,
        action: impl FnOnce(&Sim) + 'static,
    ) -> EventId {
        self.inner.borrow_mut().push_event(at, seq, owner, EventAction::new(action))
    }

    /// Cancel a pending event. Returns `true` if it had not yet fired.
    pub fn cancel(&self, id: EventId) -> bool {
        let mut inner = self.inner.borrow_mut();
        let slot = id.slot();
        match inner.slots.get_mut(slot as usize) {
            Some(s) if s.gen == id.gen() && s.action.is_some() => {
                s.action = None;
                s.gen = s.gen.wrapping_add(1);
                inner.free_slots.push(slot);
                true
            }
            _ => false,
        }
    }

    /// Drive the simulation until no event remains. Returns the final
    /// virtual time.
    pub fn run(&self) -> Time {
        self.set_horizon(Time::MAX);
        while self.fire_next_event() {}
        self.now()
    }

    /// Drive the simulation, but stop (returning `false`) once virtual time
    /// would exceed `deadline` with work still outstanding. Used by tests to
    /// bound runaway scenarios. Returns `true` on quiescence.
    pub fn run_with_deadline(&self, deadline: Time) -> bool {
        self.set_horizon(deadline);
        loop {
            match self.peek_event_time() {
                None => return true,
                Some(t) if t > deadline => return false,
                Some(_) => {
                    self.fire_next_event();
                }
            }
        }
    }

    /// Fire events until the earliest remaining one is at or beyond `limit`.
    /// Returns the time of that earliest event, or `None` if none remain.
    ///
    /// This is the shard worker's epoch step: with a conservative fence it
    /// is safe to fire everything strictly before `limit` because no other
    /// shard can inject an effect earlier than the fence.
    pub fn run_before(&self, limit: Time) -> Option<Time> {
        self.run_before_counted(limit).0
    }

    /// As [`Sim::run_before`], but also report whether any event fired
    /// inside the window. An idle window cannot have produced new
    /// cross-shard effects, so the epoch engine skips its outbox scans
    /// entirely — the returned time doubles as the exact next-event report
    /// for the fence agreement, saving a second queue peek.
    pub fn run_before_counted(&self, limit: Time) -> (Option<Time>, bool) {
        self.set_horizon(Time::from_nanos(limit.as_nanos().saturating_sub(1)));
        let mut ran = false;
        loop {
            match self.peek_event_time() {
                Some(t) if t < limit => {
                    self.fire_next_event();
                    ran = true;
                }
                other => return (other, ran),
            }
        }
    }

    /// Native-mode pass: fire every event whose timestamp the wall clock
    /// has reached, up to `max_events` firings so that callers under a
    /// dense event stream still get back regularly to check stop flags and
    /// incoming channels. Returns the earliest pending event time (which
    /// may already be due if the batch bound was hit), or `None` when the
    /// queue is empty, and the pass's last clock reading, which callers
    /// check deadlines against without reading the clock again.
    ///
    /// The pass reads the clock once when it starts and fires every event
    /// due at that reading. Only when the queue head is later than the
    /// last reading does it read the clock again, and it returns if the
    /// head is still not due. Every event due at the moment of decision
    /// fires, as with one read per event (the old rate, 36–56 ns each
    /// against ~177 ns for the event itself); a pass of k due events now
    /// costs one read, two when it ends on a head that is not yet due.
    pub fn run_wall(&self, max_events: u64) -> (Option<Time>, Time) {
        let clock = self.inner.borrow().wall.expect("run_wall requires a native-mode sim");
        let mut now = clock.now();
        let mut fired = 0u64;
        loop {
            let Some(t) = self.peek_event_time() else { return (None, now) };
            if t > now {
                now = clock.now();
                if t > now {
                    return (Some(t), now);
                }
            }
            if fired >= max_events {
                return (Some(t), now);
            }
            self.fire_next_event();
            fired += 1;
        }
    }

    /// The earliest pending event time without firing it. Shard workers
    /// re-peek after integrating cross-shard records (which may schedule
    /// events earlier than what [`Sim::run_before`] reported).
    pub fn next_event_time(&self) -> Option<Time> {
        self.peek_event_time()
    }

    /// Bound the in-place settles of the run loop starting now to `last`.
    fn set_horizon(&self, last: Time) {
        self.inner.borrow_mut().horizon = last;
    }

    fn peek_event_time(&self) -> Option<Time> {
        let mut inner = self.inner.borrow_mut();
        let cont = inner.cont.as_ref().map(|c| (c.t, c.seq));
        // Discard stale (cancelled) queue entries that precede the slot.
        while let Some(e) = inner.queue.peek() {
            if cont.is_some_and(|c| c < (e.t, e.seq)) {
                break;
            }
            if inner.slots[e.slot as usize].gen == e.gen {
                return Some(e.t);
            }
            inner.queue.pop();
        }
        cont.map(|(t, _)| t)
    }

    /// Fire the earliest pending event, advancing the clock. Returns `false`
    /// if no event remains.
    fn fire_next_event(&self) -> bool {
        let action = {
            let mut inner = self.inner.borrow_mut();
            let inner = &mut *inner;
            loop {
                // Pop the queue head only if it precedes the slot.
                let cont = inner.cont.as_ref().map(|c| (c.t, c.seq));
                let head = inner.queue.pop_if(|e| cont.is_none_or(|c| (e.t, e.seq) < c));
                let Some(e) = head else {
                    let Some(c) = inner.cont.take() else { return false };
                    debug_assert!(c.t >= inner.now, "event queue went backwards");
                    inner.now = c.t;
                    inner.events_executed += 1;
                    inner.owner = c.owner;
                    break c.action;
                };
                let s = &mut inner.slots[e.slot as usize];
                if s.gen != e.gen {
                    // Stale entry for a cancelled event.
                    continue;
                }
                let action = s.action.take().expect("live slot has an action");
                let owner = s.owner;
                s.gen = s.gen.wrapping_add(1);
                inner.free_slots.push(e.slot);
                debug_assert!(e.t >= inner.now, "event queue went backwards");
                inner.now = e.t;
                inner.events_executed += 1;
                inner.owner = owner;
                break action;
            }
        };
        action.invoke(self);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    #[test]
    fn events_fire_in_time_order_with_fifo_ties() {
        let sim = Sim::new(1);
        let log: Rc<RefCell<Vec<u32>>> = Rc::default();
        let (l1, l2, l3, l4) = (log.clone(), log.clone(), log.clone(), log.clone());
        sim.schedule_at(Time::from_nanos(20), move |_| l2.borrow_mut().push(2));
        sim.schedule_at(Time::from_nanos(10), move |_| l1.borrow_mut().push(1));
        sim.schedule_at(Time::from_nanos(20), move |_| l3.borrow_mut().push(3));
        sim.schedule_at(Time::from_nanos(30), move |_| l4.borrow_mut().push(4));
        let end = sim.run();
        assert_eq!(*log.borrow(), vec![1, 2, 3, 4]);
        assert_eq!(end, Time::from_nanos(30));
        assert_eq!(sim.events_executed(), 4);
    }

    #[test]
    fn clock_only_moves_forward_and_clamps_past_events() {
        let sim = Sim::new(1);
        let seen = Rc::new(Cell::new(Time::ZERO));
        let s2 = seen.clone();
        sim.schedule_at(Time::from_nanos(50), move |sim| {
            // Scheduling "in the past" clamps to now.
            let s3 = s2.clone();
            sim.schedule_at(Time::from_nanos(10), move |sim| s3.set(sim.now()));
        });
        sim.run();
        assert_eq!(seen.get(), Time::from_nanos(50));
    }

    #[test]
    fn cancelled_events_do_not_fire() {
        let sim = Sim::new(1);
        let hits = Rc::new(Cell::new(0u32));
        let h = hits.clone();
        let id = sim.schedule_after(Dur::from_micros(1), move |_| h.set(h.get() + 1));
        assert!(sim.cancel(id));
        assert!(!sim.cancel(id), "double cancel reports false");
        sim.run();
        assert_eq!(hits.get(), 0);
        assert_eq!(sim.events_executed(), 0);
    }

    #[test]
    fn event_ids_from_reused_slots_do_not_collide() {
        let sim = Sim::new(1);
        let hits = Rc::new(Cell::new(0u32));
        let h = hits.clone();
        let a = sim.schedule_after(Dur::from_micros(1), move |_| h.set(h.get() + 1));
        assert!(sim.cancel(a));
        // The next schedule reuses `a`'s slab slot under a new generation;
        // the retired id must not be able to cancel it.
        let h = hits.clone();
        let b = sim.schedule_after(Dur::from_micros(2), move |_| h.set(h.get() + 10));
        assert!(!sim.cancel(a), "stale id must not cancel the slot's new occupant");
        sim.run();
        assert_eq!(hits.get(), 10, "replacement event still fires");
        assert!(!sim.cancel(b), "fired event reports false on cancel");
    }

    #[test]
    fn oversized_closures_spill_and_still_run_or_drop() {
        // Captures 128 bytes — far beyond the inline action buffer — to
        // force the spilled (boxed) path of `EventAction`.
        let sim = Sim::new(1);
        let big = [7u8; 128];
        let sum = Rc::new(Cell::new(0u32));
        let s = sum.clone();
        sim.schedule_after(Dur::from_micros(1), move |_| {
            s.set(big.iter().map(|&b| b as u32).sum());
        });
        sim.run();
        assert_eq!(sum.get(), 7 * 128);
    }

    #[test]
    fn cancelled_actions_drop_their_captures() {
        // The capture's destructor must run exactly once whether the event
        // fires, is cancelled, or (spilled case) is cancelled while boxed.
        let drops = Rc::new(Cell::new(0u32));

        let sim = Sim::new(1);
        let small = DropCounter(drops.clone());
        let id = sim.schedule_after(Dur::from_micros(1), move |_| {
            let _keep = &small;
        });
        let big = DropCounter(drops.clone());
        let ballast = [0u8; 128];
        let id2 = sim.schedule_after(Dur::from_micros(1), move |_| {
            let _keep = (&big, &ballast);
        });
        assert!(sim.cancel(id) && sim.cancel(id2));
        assert_eq!(drops.get(), 2, "cancellation dropped both captures");
        sim.run();
        assert_eq!(drops.get(), 2, "no double drop after the run");
    }

    #[test]
    fn events_scheduled_from_events_nest() {
        let sim = Sim::new(1);
        let count = Rc::new(Cell::new(0u32));
        fn chain(sim: &Sim, count: Rc<Cell<u32>>, left: u32) {
            if left == 0 {
                return;
            }
            count.set(count.get() + 1);
            sim.schedule_after(Dur::from_micros(1), move |sim| chain(sim, count, left - 1));
        }
        let c = count.clone();
        sim.schedule_after(Dur::from_micros(1), move |sim| chain(sim, c, 5));
        let end = sim.run();
        assert_eq!(count.get(), 5);
        // chain(0) still fires (as a no-op) one microsecond after chain(1).
        assert_eq!(end, Time::from_nanos(6_000));
    }

    #[test]
    fn zero_delay_events_fire_at_the_current_instant() {
        let sim = Sim::new(1);
        let log: Rc<RefCell<Vec<(u32, Time)>>> = Rc::default();
        let l = log.clone();
        sim.schedule_after(Dur::from_micros(3), move |sim| {
            let (a, b) = (l.clone(), l.clone());
            sim.schedule_after(Dur::ZERO, move |sim| a.borrow_mut().push((2, sim.now())));
            sim.schedule_after(Dur::from_micros(3), move |sim| b.borrow_mut().push((3, sim.now())));
            l.borrow_mut().push((1, sim.now()));
        });
        sim.run();
        assert_eq!(
            *log.borrow(),
            vec![
                (1, Time::from_nanos(3_000)),
                (2, Time::from_nanos(3_000)),
                (3, Time::from_nanos(6_000)),
            ]
        );
    }

    #[test]
    fn run_before_counted_fires_only_inside_the_window() {
        let sim = Sim::new(1);
        let hits = Rc::new(Cell::new(0u32));
        for us in [1u64, 2, 5] {
            let h = hits.clone();
            sim.schedule_after(Dur::from_micros(us), move |_| h.set(h.get() + 1));
        }
        let (next, ran) = sim.run_before_counted(Time::from_nanos(1_000));
        assert_eq!((next, ran), (Some(Time::from_nanos(1_000)), false), "empty window");
        let (next, ran) = sim.run_before_counted(Time::from_nanos(5_000));
        assert_eq!((next, ran, hits.get()), (Some(Time::from_nanos(5_000)), true, 2));
        assert_eq!(sim.run_before_counted(Time::MAX), (None, true));
        assert_eq!(sim.run_before_counted(Time::MAX), (None, false), "drained queue is idle");
        assert_eq!(hits.get(), 3);
    }

    #[test]
    fn sim_handle_is_one_word() {
        // Closures capturing a `Sim` (or a `Network`, which holds one) must
        // keep fitting the inline event slot.
        assert_eq!(size_of::<Sim>(), size_of::<usize>());
    }

    #[test]
    fn deterministic_rng_across_same_seed() {
        let draw = |seed, node| {
            Sim::new(seed).with_rng_for(node, |r| (0..8).map(|_| r.next_u64()).collect::<Vec<_>>())
        };
        assert_eq!(draw(42, 0), draw(42, 0));
        assert_ne!(draw(42, 0), draw(43, 0));
        assert_ne!(draw(42, 0), draw(42, 1), "each node has its own stream");
    }

    /// Drop counter for captures: counts how many times it was dropped.
    struct DropCounter(Rc<Cell<u32>>);
    impl Drop for DropCounter {
        fn drop(&mut self) {
            self.0.set(self.0.get() + 1);
        }
    }

    #[test]
    fn a_continuation_fires_in_time_and_key_order_among_queued_events() {
        // At one instant: node 0's and node 4's events are cancelled (a
        // stale head before and after the slot), node 1 sorts before the
        // continuation of node 2, node 3 after it.
        let sim = Sim::new(1);
        let t = Time::from_nanos(100);
        let log: Rc<RefCell<Vec<u32>>> = Rc::default();
        let push = |node: u32| {
            let l = log.clone();
            move |_: &Sim| l.borrow_mut().push(node)
        };
        let stale_before = sim.schedule_at_for(t, 0, push(0));
        sim.schedule_at_for(t, 3, push(3));
        sim.settle_for(Dur::from_nanos(100), 2, false, push(2));
        sim.schedule_at_for(t, 1, push(1));
        let stale_after = sim.schedule_at_for(t, 4, push(4));
        assert!(sim.cancel(stale_before) && sim.cancel(stale_after));
        assert_eq!(sim.event_queue_depth(), 5, "stale entries stay until reached");
        assert_eq!(sim.next_event_time(), Some(t));
        assert_eq!(sim.event_queue_depth(), 4, "the stale head before the slot is discarded");
        sim.run();
        assert_eq!(*log.borrow(), vec![1, 2, 3]);
        assert_eq!(sim.events_executed(), 3);
        assert_eq!(sim.event_queue_depth(), 0, "the stale entry after the slot is discarded");
        assert_eq!(sim.now(), t);
    }

    #[test]
    fn of_two_continuations_the_earlier_keeps_the_slot() {
        let held = |sim: &Sim| {
            let inner = sim.inner.borrow();
            let c = inner.cont.as_ref().expect("slot occupied");
            (c.t.as_nanos(), c.seq >> KEY_NODE_SHIFT, inner.queue.len())
        };
        // Later first, then earlier: the earlier displaces it.
        let sim = Sim::new(1);
        sim.settle_for(Dur::from_nanos(20), 0, false, |_| {});
        sim.settle_for(Dur::from_nanos(10), 1, false, |_| {});
        assert_eq!(held(&sim), (10, 1, 1));
        // Earlier first, then later: the later is queued.
        let sim = Sim::new(1);
        sim.settle_for(Dur::from_nanos(10), 0, false, |_| {});
        sim.settle_for(Dur::from_nanos(20), 1, false, |_| {});
        assert_eq!(held(&sim), (10, 0, 1));
        // Same instant: the smaller key (node 0) keeps the slot.
        let sim = Sim::new(1);
        sim.settle_for(Dur::from_nanos(10), 1, false, |_| {});
        sim.settle_for(Dur::from_nanos(10), 0, false, |_| {});
        assert_eq!(held(&sim), (10, 0, 1));
        sim.schedule_after(Dur::from_nanos(5), |_| {});
        assert_eq!(sim.run(), Time::from_nanos(10));
        assert_eq!(sim.events_executed(), 3);
    }

    #[test]
    fn run_before_counted_does_not_fire_a_continuation_at_the_limit() {
        let sim = Sim::new(1);
        let hits = Rc::new(Cell::new(0u32));
        let h = hits.clone();
        sim.settle_for(Dur::from_nanos(1_000), 0, false, move |_| h.set(h.get() + 1));
        let limit = Time::from_nanos(1_000);
        assert_eq!(sim.run_before_counted(limit), (Some(limit), false));
        assert_eq!(hits.get(), 0);
        assert_eq!(sim.run_before_counted(Time::from_nanos(1_001)), (None, true));
        assert_eq!(hits.get(), 1);
    }

    #[test]
    fn run_with_deadline_stops_before_a_late_continuation() {
        let sim = Sim::new(1);
        let fired = Rc::new(Cell::new(false));
        let f = fired.clone();
        sim.settle_for(Dur::from_nanos(1_000), 0, false, move |_| f.set(true));
        assert!(!sim.run_with_deadline(Time::from_nanos(999)));
        assert!(!fired.get());
        assert_eq!(sim.now(), Time::ZERO);
        assert!(sim.run_with_deadline(Time::from_nanos(1_000)));
        assert!(fired.get());
    }

    #[test]
    fn a_continuation_counts_once_in_every_counter() {
        let sim = Sim::new(1);
        sim.schedule_after(Dur::from_nanos(5), |_| {});
        sim.settle_for(Dur::from_nanos(10), 0, false, |_| {});
        assert_eq!(sim.event_queue_depth(), 2);
        assert_eq!(sim.peak_event_queue_depth(), 2);
        sim.run();
        assert_eq!(sim.events_executed(), 2);
        assert_eq!(sim.event_queue_depth(), 0);
        assert_eq!(sim.peak_event_queue_depth(), 2);
        // Displacing a held continuation queues it: still one entry each.
        sim.settle_for(Dur::from_nanos(20), 0, false, |_| {});
        sim.settle_for(Dur::from_nanos(10), 0, false, |_| {});
        sim.schedule_after(Dur::from_nanos(30), |_| {});
        assert_eq!(sim.event_queue_depth(), 3);
        assert_eq!(sim.peak_event_queue_depth(), 3);
        sim.run();
        assert_eq!(sim.events_executed(), 5);
    }

    #[test]
    fn a_pending_continuation_drops_its_captures_once() {
        let drops = Rc::new(Cell::new(0u32));
        let sim = Sim::new(1);
        let c = DropCounter(drops.clone());
        sim.settle_for(Dur::from_nanos(10), 0, false, move |_| {
            let _keep = &c;
        });
        drop(sim);
        assert_eq!(drops.get(), 1, "dropping the sim dropped the continuation");

        // A fired continuation drops its captures when it runs.
        let sim = Sim::new(1);
        let c = DropCounter(drops.clone());
        sim.settle_for(Dur::from_nanos(10), 0, false, move |_| {
            let _keep = &c;
        });
        sim.run();
        drop(sim);
        assert_eq!(drops.get(), 2);
    }

    #[test]
    fn drop_pending_discards_every_pending_action_once() {
        let drops = Rc::new(Cell::new(0u32));
        let sim = Sim::new(1);
        for d in [10u64, 20] {
            let c = DropCounter(drops.clone());
            sim.schedule_after(Dur::from_nanos(d), move |_| {
                let _keep = &c;
            });
        }
        let c = DropCounter(drops.clone());
        let id = sim.schedule_after(Dur::from_nanos(5), move |_| {
            let _keep = &c;
        });
        assert!(sim.cancel(id));
        let c = DropCounter(drops.clone());
        sim.settle_for(Dur::from_nanos(15), 0, false, move |_| {
            let _keep = &c;
        });
        assert_eq!(drops.get(), 1, "the cancelled action");
        sim.drop_pending();
        assert_eq!(drops.get(), 4);
        assert_eq!(sim.run(), Time::ZERO, "nothing is left to fire");
        assert_eq!(sim.events_executed(), 0);
        drop(sim);
        assert_eq!(drops.get(), 4, "no double drop");
    }

    #[test]
    fn run_with_deadline_stops_before_far_events() {
        let sim = Sim::new(1);
        let fired = Rc::new(Cell::new(false));
        let f = fired.clone();
        sim.schedule_at(Time::from_nanos(1_000_000), move |_| f.set(true));
        let quiesced = sim.run_with_deadline(Time::from_nanos(100));
        assert!(!quiesced);
        assert!(!fired.get());
        assert_eq!(sim.now(), Time::ZERO, "clock must not pass the deadline");
    }

    /// Schedule at `at` an action that settles `after` for node 0 (as a
    /// tail if `tail`) and logs whether the settle went in place, the
    /// clock after it, and, when it fires, its continuation's time.
    fn settle_at(sim: &Sim, at: u64, after: u64, tail: bool) -> Rc<RefCell<Vec<(bool, u64)>>> {
        let log: Rc<RefCell<Vec<(bool, u64)>>> = Rc::default();
        let l = log.clone();
        sim.schedule_at(Time::from_nanos(at), move |sim| {
            let c = l.clone();
            let cont = move |sim: &Sim| c.borrow_mut().push((false, sim.now().as_nanos()));
            let in_place = sim.settle_for(Dur::from_nanos(after), 0, tail, cont);
            l.borrow_mut().push((in_place, sim.now().as_nanos()));
        });
        log
    }

    #[test]
    fn a_tail_settle_with_nothing_before_it_fires_no_event_and_advances_now() {
        let sim = Sim::new(1);
        let log = settle_at(&sim, 10, 5, true);
        assert_eq!(sim.run(), Time::from_nanos(15));
        assert_eq!(*log.borrow(), [(true, 15)], "no continuation fired");
        assert_eq!((sim.events_executed(), sim.settles_in_place()), (1, 1));
        assert_eq!(sim.peak_event_queue_depth(), 1, "only the scheduled action was pending");
        // The settle took node 0's key 1, as its continuation would have.
        assert_eq!(sim.alloc_key_for(0), event_key(0, KEY_CLASS_NODE, 2));
    }

    #[test]
    fn a_cancelled_entry_ahead_does_not_hold_a_settle_back() {
        let sim = Sim::new(1);
        let log = settle_at(&sim, 10, 5, true);
        let stale = sim.schedule_at_for(Time::from_nanos(12), 1, |_| {});
        assert!(sim.cancel(stale));
        sim.run();
        assert_eq!(*log.borrow(), [(true, 15)]);
        assert_eq!(sim.event_queue_depth(), 0, "the stale entry was discarded on the way");
    }

    #[test]
    fn a_queued_event_or_held_continuation_ahead_keeps_the_settle_an_event() {
        // A queued event at 12 precedes the settle's 15.
        let sim = Sim::new(1);
        let log = settle_at(&sim, 10, 5, true);
        sim.schedule_at_for(Time::from_nanos(12), 1, |_| {});
        sim.run();
        assert_eq!(*log.borrow(), [(false, 10), (false, 15)]);
        assert_eq!((sim.events_executed(), sim.settles_in_place()), (3, 0));

        // So does one at the same instant under a smaller key: node 0's
        // event scheduled before the settle took its key.
        let sim = Sim::new(1);
        sim.schedule_at_for(Time::from_nanos(15), 0, |_| {});
        let log = settle_at(&sim, 10, 5, true);
        sim.run();
        assert_eq!(*log.borrow(), [(false, 10), (false, 15)]);

        // And a continuation held in the slot for 14.
        let sim = Sim::new(1);
        sim.settle_for(Dur::from_nanos(14), 1, false, |_| {});
        let log = settle_at(&sim, 10, 5, true);
        sim.run();
        assert_eq!(*log.borrow(), [(false, 10), (false, 15)]);
        assert_eq!(sim.settles_in_place(), 0);

        // An event after the settle's time does not hold it back.
        let sim = Sim::new(1);
        sim.schedule_at_for(Time::from_nanos(16), 1, |_| {});
        let log = settle_at(&sim, 10, 5, true);
        sim.run();
        assert_eq!(*log.borrow(), [(true, 15)]);
    }

    #[test]
    fn a_settle_in_place_never_passes_the_window_of_its_run_loop() {
        // `run_before_counted` fires strictly before its limit.
        let sim = Sim::new(1);
        let log = settle_at(&sim, 10, 5, true);
        assert_eq!(
            sim.run_before_counted(Time::from_nanos(15)),
            (Some(Time::from_nanos(15)), true)
        );
        assert_eq!(*log.borrow(), [(false, 10)], "a settle to the limit stays an event");
        assert_eq!(sim.now(), Time::from_nanos(10));
        sim.run();
        assert_eq!(*log.borrow(), [(false, 10), (false, 15)]);
        let sim = Sim::new(1);
        let log = settle_at(&sim, 10, 4, true);
        assert_eq!(sim.run_before_counted(Time::from_nanos(15)), (None, true));
        assert_eq!(*log.borrow(), [(true, 14)], "one just inside goes in place");

        // `run_with_deadline` fires up to and including its deadline.
        let sim = Sim::new(1);
        let log = settle_at(&sim, 10, 6, true);
        assert!(!sim.run_with_deadline(Time::from_nanos(15)));
        assert_eq!(*log.borrow(), [(false, 10)]);
        assert_eq!(sim.now(), Time::from_nanos(10), "the clock did not pass the deadline");
        let sim = Sim::new(1);
        let log = settle_at(&sim, 10, 5, true);
        assert!(sim.run_with_deadline(Time::from_nanos(15)));
        assert_eq!(*log.borrow(), [(true, 15)]);
    }

    #[test]
    fn a_settle_that_is_not_a_tail_is_always_an_event() {
        let sim = Sim::new(1);
        let log = settle_at(&sim, 10, 5, false);
        sim.run();
        assert_eq!(*log.borrow(), [(false, 10), (false, 15)]);
        assert_eq!((sim.events_executed(), sim.settles_in_place()), (2, 0));
    }

    #[test]
    fn a_native_sim_never_settles_in_place() {
        let (sim, clock) = native_sim();
        let log = settle_at(&sim, 0, 5, true);
        wait_past(&clock, Time::from_nanos(1_000));
        assert_eq!(sim.run_wall(u64::MAX).0, None);
        assert_eq!(*log.borrow(), [(false, 0), (false, 5)]);
        assert_eq!((sim.events_executed(), sim.settles_in_place()), (2, 0));
    }

    /// A native-mode sim on a fresh clock, and the clock.
    fn native_sim() -> (Sim, WallClock) {
        let clock = WallClock::start();
        (Sim::new_native(1, clock), clock)
    }

    /// Spin until `clock` reads past `t`, so that events up to `t` are due.
    fn wait_past(clock: &WallClock, t: Time) {
        while clock.now() <= t {
            std::hint::spin_loop();
        }
    }

    fn clock_reads() -> u64 {
        CLOCK_READS.with(Cell::get)
    }

    #[test]
    fn a_wall_pass_fires_every_due_event_and_the_settle_chain_they_start() {
        let (sim, clock) = native_sim();
        let log: Rc<RefCell<Vec<u64>>> = Rc::default();
        for i in 0..10 {
            let l = log.clone();
            sim.schedule_at(Time::from_nanos(i), move |_| l.borrow_mut().push(i));
        }
        // A settle chain: the event at 5 ns continues at now + 1 ns, and
        // that continuation once more.
        let l = log.clone();
        sim.schedule_at(Time::from_nanos(5), move |sim| {
            sim.settle_for(Dur::from_nanos(1), 0, false, move |sim| {
                l.borrow_mut().push(sim.now().as_nanos() + 100);
                sim.settle_for(Dur::from_nanos(1), 0, false, move |sim| {
                    l.borrow_mut().push(sim.now().as_nanos() + 100);
                });
            });
        });
        wait_past(&clock, Time::from_nanos(1_000));
        assert_eq!(sim.run_wall(u64::MAX).0, None, "the pass drained the queue");
        assert_eq!(*log.borrow(), [0, 1, 2, 3, 4, 5, 6, 106, 7, 107, 8, 9]);
        assert_eq!(sim.events_executed(), 13);
    }

    #[test]
    fn a_wall_pass_leaves_an_event_a_second_out_queued_and_returns_its_time() {
        let (sim, clock) = native_sim();
        let fired = Rc::new(Cell::new(0));
        let (f1, f2) = (fired.clone(), fired.clone());
        sim.schedule_at(Time::from_nanos(1), move |_| f1.set(f1.get() + 1));
        let far = Time::from_nanos(1_000_000_000);
        sim.schedule_at(far, move |_| f2.set(f2.get() + 10));
        wait_past(&clock, Time::from_nanos(1_000));
        assert_eq!(sim.run_wall(u64::MAX).0, Some(far));
        assert_eq!(fired.get(), 1, "only the due event fired");
        assert_eq!(sim.event_queue_depth(), 1);
    }

    #[test]
    fn max_events_ends_a_wall_pass_at_a_head_that_is_still_due() {
        let (sim, clock) = native_sim();
        for i in 0..10 {
            sim.schedule_at(Time::from_nanos(i), |_| {});
        }
        wait_past(&clock, Time::from_nanos(1_000));
        assert_eq!(sim.run_wall(4).0, Some(Time::from_nanos(4)), "the due head is returned");
        assert_eq!(sim.events_executed(), 4);
        assert_eq!(sim.run_wall(4).0, Some(Time::from_nanos(8)));
        assert_eq!(sim.run_wall(4).0, None);
        assert_eq!(sim.events_executed(), 10);
    }

    #[test]
    fn a_wall_pass_returns_its_last_clock_reading_without_another_read() {
        let (sim, clock) = native_sim();
        sim.schedule_at(Time::from_nanos(1), |_| {});
        wait_past(&clock, Time::from_nanos(1_000));
        let before = clock_reads();
        let (next, now) = sim.run_wall(u64::MAX);
        assert_eq!((next, clock_reads() - before), (None, 1), "one read for one due event");
        assert!(now > Time::from_nanos(1_000) && now <= clock.now(), "the pass's reading: {now:?}");
    }

    #[test]
    fn a_wall_pass_over_an_empty_queue_returns_none() {
        let (sim, _clock) = native_sim();
        assert_eq!(sim.run_wall(u64::MAX).0, None);
        assert_eq!(sim.events_executed(), 0);
    }

    #[test]
    fn a_wall_pass_of_a_thousand_due_events_reads_the_clock_at_most_twice() {
        let (sim, clock) = native_sim();
        for i in 0..1_000 {
            sim.schedule_at(Time::from_nanos(i), |_| {});
        }
        let far = Time::from_nanos(1_000_000_000);
        sim.schedule_at(far, |_| {});
        wait_past(&clock, Time::from_nanos(1_000));
        let before = clock_reads();
        assert_eq!(sim.run_wall(u64::MAX).0, Some(far));
        assert_eq!(sim.events_executed(), 1_000);
        let reads = clock_reads() - before;
        assert!(reads <= 2, "{reads} clock reads for one pass of 1,000 due events");
    }
}
