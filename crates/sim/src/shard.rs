//! Conservative epoch synchronization for sharded parallel simulation.
//!
//! A machine partitioned into S shards runs one host thread per shard,
//! each driving its own [`Sim`](crate::Sim) over the nodes it owns. The
//! only data crossing threads are boundary records (packets, bulk
//! reservations, collective contributions), exchanged at epoch barriers
//! managed by the [`Coordinator`]. Correctness rests on the conservative
//! lookahead guarantee (the Chandy–Misra null-message argument specialized
//! to an all-to-all topology): a record emitted at virtual time `t` takes
//! effect on its destination no earlier than `t + L`, where `L` is the
//! minimum cross-node latency ([`Coordinator::lookahead`]).
//!
//! ## Adaptive fences
//!
//! Let `n_j` be shard `j`'s next local event time after a barrier (`∞`
//! when idle) and `m1 = min_j n_j`. The classic fence is `m1 + L` for
//! everyone: sound, but it steps one lookahead at a time even when no
//! cross traffic is pending. The adaptive policy instead bounds, per
//! shard, the earliest instant any *other* shard could still affect it.
//! Define each shard's effect horizon
//!
//! ```text
//! g_j = min(n_j, m1 + L)
//! ```
//!
//! — shard `j` cannot execute anything before its own next event, and
//! even a currently idle (or far-future) shard can be woken no earlier
//! than `m1 + L`, because the wake must be carried by a record some shard
//! emits at `≥ m1`. Then shard `k` may safely execute everything strictly
//! before
//!
//! ```text
//! f_k = min_{j ≠ k} g_j + L
//! ```
//!
//! since any record that could still reach `k` is emitted by some `j ≠ k`
//! at an execution time `≥ g_j` and lands at `≥ g_j + L`. Concretely:
//! every shard that does not hold the unique global minimum gets the
//! classic `m1 + L`; the unique min-holder gets `min(n₂, m1 + L) + L`
//! (with `n₂` the second-smallest busy next time) — up to one extra
//! lookahead past everyone else, exactly the window in which nobody can
//! touch it. This collapses the runs of empty epochs a lone busy shard
//! otherwise pays one barrier each for.
//!
//! The bound is *multi-round* sound because the horizons are monotone:
//! whatever shard `j` does in later rounds happens at execution times
//! `≥ g_j`, so its reported next time never drops below `g_j`, so `m1`
//! and every horizon are non-decreasing round over round — no future
//! round can emit into a window an earlier fence already released.
//! (Widening the min-holder past `m1 + 2L` would break exactly this: a
//! record it emits at `m1 + L` can wake a peer whose *reply* lands at
//! `m1 + 2L`.)
//!
//! ## Quiet-round barrier fusion
//!
//! The classic loop pays two barriers per epoch: one to exchange records,
//! one to agree on a fence after integrating them. The integration step
//! sits between them because it changes the local next-event time. But
//! when *no* shard deposited a record this round, integration is a no-op
//! and the next-event times written before the first barrier are still
//! exact — so the fence is computed immediately and the second barrier
//! skipped. Deposits are advertised through a shared atomic read by every
//! shard after the barrier, so the quiet/traffic classification is
//! globally agreed and the workers stay in lockstep.
//!
//! ## Lock-free exchange
//!
//! Mailboxes are per-(src, dst) slots, each owned by exactly one writer
//! (the source shard, before the barrier) and one reader (the destination
//! shard, after it) per round — no locks or CAS loops on the data path;
//! broadcast clones into the source's own row. Slots are double-buffered
//! by exchange-round parity: the round-`C` reader swaps slot contents out
//! (into per-source scratch buffers, preserving capacities both ways)
//! *before* arriving at the next barrier, while the writer's next deposit
//! into the same slot happens in round `C + 2`, strictly after it passes
//! the round-`C + 1` barrier — so the barrier's release/acquire edges
//! order every access. Next-event times are double-buffered the same way
//! by barrier parity.
//!
//! ## Batched deposits
//!
//! By default each port accumulates outgoing records in writer-local
//! per-destination buffers and publishes them into the mailbox slots once
//! per peer per epoch, at [`ShardPort::arrive`] — one slot append + one
//! acquire per peer instead of one per message, with both the local
//! buffers and the slots recycling their capacity forever. The naive
//! per-message path ([`Coordinator::with_batched`]`(false)`, selected by
//! `OAM_BATCH=1`) pushes straight into the slot on every
//! [`ShardPort::send`]; both paths append records in the same
//! (source-shard, emission) order, so receivers drain identical
//! sequences and answers are bit-identical.
//!
//! ## The barrier, and split-phase arrival
//!
//! The barrier itself is sense-reversing: an arrival counter plus a
//! generation word. The last arriver resets the counter, bumps the
//! generation, and unparks the rest; waiters spin a bounded budget
//! ([`Coordinator::with_spin`]) and then `thread::park()`. On hosts with
//! a core per worker the spin wins; on oversubscribed hosts a zero budget
//! hands the quantum straight to the peer worker ([`default_spin`]).
//!
//! Every barrier is exposed in two halves — [`ShardPort::arrive`] (write
//! the snapshot, publish batches, count in) and [`ShardPort::complete`]
//! (wait out the generation bump, classify the round) — so one worker
//! thread can multiplex several shard replicas: it arrives for *all* of
//! its shards before completing any, which makes deadlock impossible and
//! turns barriers between co-located shards into plain function calls
//! (on a one-worker host the generation has always already been bumped
//! by the worker's own last arrival, so nothing ever parks). The
//! blocking [`ShardPort::sync`] / [`ShardPort::agree`] /
//! [`ShardPort::finish`] are the two halves fused, for thread-per-shard
//! callers.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::thread::Thread;

use oam_model::{host_cores, Dur, EngineCounters, Time};

/// How the coordinator advances the epoch fence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FencePolicy {
    /// Effect-horizon fences plus quiet-round barrier fusion (see the
    /// module docs). The default.
    #[default]
    Adaptive,
    /// The classic conservative reference: `global min + lookahead` every
    /// epoch, an unconditional exchange round, two barriers per epoch.
    /// Kept so differential tests can race the adaptive policy against an
    /// independently-simple implementation.
    Naive,
}

/// A fence returned by [`ShardPort::sync`] / [`ShardPort::agree`]: what
/// the shard may execute before synchronizing again.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fence {
    /// Execute all local events strictly before this virtual time, then
    /// sync again.
    Before(Time),
    /// No other shard exists that could preempt this one (single-shard
    /// runs): run to quiescence, then sync again.
    Unbounded,
    /// Every shard is idle with nothing in flight: the run is over.
    Done,
}

/// The outcome of [`ShardPort::sync`] for one epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Round {
    /// No shard deposited a record: the fence advanced at a single fused
    /// barrier.
    Quiet(Fence),
    /// Records were exchanged. Drain them with
    /// [`ShardPort::drain_incoming`], integrate them, then call
    /// [`ShardPort::agree`] with the post-integration next-event time.
    Traffic,
}

/// Pad the barrier atomics to a cache line so arrivals and generation
/// spins don't false-share.
#[repr(align(64))]
struct CachePadded<T>(T);

/// One SPSC mailbox slot. For a given exchange-round parity, the source
/// shard is the unique writer before a barrier and the destination shard
/// the unique reader after it, with the barrier's release/acquire edges
/// ordering the handoff (module docs, "Lock-free exchange").
struct Slot<M>(UnsafeCell<Vec<M>>);

// SAFETY: access alternates between exactly one writer and one reader per
// round, ordered by the epoch barrier (release/acquire on `generation`).
unsafe impl<M: Send> Sync for Slot<M> {}

/// A double-buffered per-shard next-event time; same handoff protocol.
struct NextCell(UnsafeCell<Option<Time>>);

// SAFETY: as for `Slot` — one writer before each barrier, readers after.
unsafe impl Sync for NextCell {}

/// Default barrier spin budget when the host has a core per epoch worker.
const SPIN_DEFAULT: u32 = 1 << 12;

/// Pick a barrier spin budget for `workers` epoch worker threads on this
/// host: spin only when every worker can hold a core; otherwise park
/// immediately and hand the quantum to the peer worker. Reads the cached
/// [`host_cores`], so it never probes the host more than once per process.
pub fn default_spin(workers: usize) -> u32 {
    if host_cores() >= workers {
        SPIN_DEFAULT
    } else {
        0
    }
}

/// Epoch coordinator shared (by reference) between shard worker threads.
/// Each worker obtains its [`ShardPort`] via [`Coordinator::port`].
pub struct Coordinator<M> {
    shards: usize,
    lookahead: Dur,
    policy: FencePolicy,
    spin: u32,
    /// Batched deposits (module docs): accumulate per-destination and
    /// publish once per peer per epoch. `false` is the naive per-message
    /// reference path.
    batched: bool,
    /// Wake signals issued by barrier releases (unparks of other worker
    /// threads). Host-schedule accounting only.
    wakes: AtomicU64,
    /// Arrival count for the in-progress barrier.
    arrived: CachePadded<AtomicUsize>,
    /// Barrier generation: bumped by the last arriver with `Release`; the
    /// word every waiter spins on with `Acquire`.
    generation: CachePadded<AtomicU64>,
    /// Generation of the latest round in which some shard deposited a
    /// record (`u64::MAX` = never). Written before the barrier by
    /// depositors, read after it by everyone: equality with the
    /// just-passed generation is the globally-agreed traffic
    /// classification.
    traffic_gen: AtomicU64,
    /// Worker thread handles for barrier unpark, registered by
    /// [`Coordinator::port`].
    threads: Vec<OnceLock<Thread>>,
    /// `2 × shards × shards` mailbox slots, flattened `[parity][src][dst]`.
    slots: Vec<Slot<M>>,
    /// `2 × shards` next-event times, flattened `[parity][shard]`.
    next_times: Vec<NextCell>,
}

impl<M> Coordinator<M> {
    /// A coordinator for `shards` workers with the given conservative
    /// lookahead (the minimum virtual latency of any cross-shard effect).
    /// The spin budget defaults to [`default_spin`] for one worker per
    /// shard; callers that multiplex shards override it with
    /// [`Coordinator::with_spin`].
    pub fn new(shards: usize, lookahead: Dur) -> Self {
        assert!(shards >= 1, "need at least one shard");
        assert!(lookahead > Dur::ZERO, "conservative epochs need positive lookahead");
        Coordinator {
            shards,
            lookahead,
            policy: FencePolicy::Adaptive,
            spin: default_spin(shards),
            batched: true,
            wakes: AtomicU64::new(0),
            arrived: CachePadded(AtomicUsize::new(0)),
            generation: CachePadded(AtomicU64::new(0)),
            traffic_gen: AtomicU64::new(u64::MAX),
            threads: (0..shards).map(|_| OnceLock::new()).collect(),
            slots: (0..2 * shards * shards).map(|_| Slot(UnsafeCell::new(Vec::new()))).collect(),
            next_times: (0..2 * shards).map(|_| NextCell(UnsafeCell::new(None))).collect(),
        }
    }

    /// Builder-style fence-policy override.
    pub fn with_policy(mut self, policy: FencePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Builder-style barrier spin-budget override (iterations before a
    /// waiter parks; 0 parks immediately).
    pub fn with_spin(mut self, spin: u32) -> Self {
        self.spin = spin;
        self
    }

    /// Builder-style delivery-path override: `false` selects the naive
    /// per-message mailbox path (one slot push per [`ShardPort::send`])
    /// instead of per-epoch batch publishing. Outcomes are bit-identical
    /// either way; the differential tests race the two paths.
    pub fn with_batched(mut self, batched: bool) -> Self {
        self.batched = batched;
        self
    }

    /// The conservative lookahead all fences are built from.
    pub fn lookahead(&self) -> Dur {
        self.lookahead
    }

    /// Wake signals issued by barrier releases so far (unparks of other
    /// registered worker threads). One-worker runs report zero: the
    /// worker's own last arrival always bumps the generation before any
    /// of its completes could wait.
    pub fn wakes(&self) -> u64 {
        self.wakes.load(Ordering::Relaxed)
    }

    /// Obtain shard `shard`'s port. Must be called exactly once per
    /// shard, on the thread that will run that shard (the barrier
    /// parks/unparks the calling thread). A worker thread multiplexing
    /// several shards calls this once per shard it owns.
    pub fn port(&self, shard: usize) -> ShardPort<'_, M> {
        assert!(shard < self.shards, "shard {shard} out of range 0..{}", self.shards);
        self.threads[shard]
            .set(std::thread::current())
            .unwrap_or_else(|_| panic!("port({shard}) taken twice"));
        ShardPort {
            coord: self,
            shard,
            gen: 0,
            exchanges: 0,
            deposited: false,
            awaiting_agree: false,
            arrived: false,
            out: (0..self.shards).map(|_| Vec::new()).collect(),
            scratch: (0..self.shards).map(|_| Vec::new()).collect(),
            counters: EngineCounters::default(),
        }
    }

    fn slot(&self, parity: usize, src: usize, dst: usize) -> &Slot<M> {
        &self.slots[(parity * self.shards + src) * self.shards + dst]
    }

    fn next_cell(&self, parity: usize, shard: usize) -> &NextCell {
        &self.next_times[parity * self.shards + shard]
    }

    /// Arrival half of the sense-reversing barrier: count in, and if this
    /// was the last expected arrival, bump the generation and wake the
    /// other worker threads. Never blocks.
    fn barrier_arrive(&self, gen: u64) {
        // AcqRel: acquire every earlier arriver's writes (slots, next
        // times) so the last arriver's generation bump releases them all.
        let arrived = self.arrived.0.fetch_add(1, Ordering::AcqRel) + 1;
        if arrived == self.shards {
            self.arrived.0.store(0, Ordering::Relaxed);
            self.generation.0.store(gen + 1, Ordering::Release);
            let me = std::thread::current().id();
            for (i, slot) in self.threads.iter().enumerate() {
                if let Some(t) = slot.get() {
                    if t.id() == me {
                        continue;
                    }
                    // A worker multiplexing several shards registers the
                    // same thread once per shard; signal each distinct
                    // thread once.
                    let dup = self.threads[..i]
                        .iter()
                        .filter_map(OnceLock::get)
                        .any(|p| p.id() == t.id());
                    if dup {
                        continue;
                    }
                    // Unpark on a running thread just sets a token (no
                    // syscall), so waking everyone unconditionally
                    // beats tracking who actually parked.
                    self.wakes.fetch_add(1, Ordering::Relaxed);
                    t.unpark();
                }
            }
        }
    }

    /// Wait half of the barrier: spin the configured budget on the
    /// generation word, then park. Returns once the barrier for `gen` has
    /// been released (possibly by the caller's own `barrier_arrive`).
    fn barrier_wait(&self, gen: u64) {
        let mut budget = self.spin;
        while self.generation.0.load(Ordering::Acquire) == gen {
            if budget > 0 {
                budget -= 1;
                std::hint::spin_loop();
            } else {
                // A stale unpark token makes park return spuriously;
                // the loop re-checks the generation either way.
                std::thread::park();
            }
        }
    }

    /// Compute shard `shard`'s fence from the next-time snapshot written
    /// before barrier parity `parity`, plus whether the adaptive policy
    /// widened the unique min-holder's fence this round (a predicate of
    /// shared data only, so every shard counts the same skips).
    ///
    /// Caller contract: call only between passing barrier `G` (of parity
    /// `parity`) and arriving at barrier `G + 1` — the snapshot's cells
    /// are rewritten at this parity only after their writers pass barrier
    /// `G + 1`.
    fn fence(&self, parity: usize, shard: usize) -> (Fence, bool) {
        // SAFETY: per the caller contract, every writer's store to these
        // cells happened before barrier `G` (ordered by its release /
        // acquire edges) and none touches them again until after barrier
        // `G + 1`, which the caller has not arrived at yet.
        let next = |j: usize| unsafe { *self.next_cell(parity, j).0.get() };
        let Some(m1) = (0..self.shards).filter_map(next).min() else {
            return (Fence::Done, false);
        };
        if self.shards == 1 {
            // No peer can preempt a lone shard. The naive policy still
            // steps classically — it is the reference implementation.
            return match self.policy {
                FencePolicy::Adaptive => (Fence::Unbounded, true),
                FencePolicy::Naive => (Fence::Before(m1 + self.lookahead), false),
            };
        }
        match self.policy {
            FencePolicy::Naive => (Fence::Before(m1 + self.lookahead), false),
            FencePolicy::Adaptive => {
                // f_k = min_{j≠k} g_j + L with g_j = min(n_j, m1 + L);
                // see the module docs for the soundness argument.
                let idle_horizon = m1 + self.lookahead;
                let mut earliest: Option<Time> = None;
                for j in 0..self.shards {
                    if j == shard {
                        continue;
                    }
                    let g = next(j).map_or(idle_horizon, |n| n.min(idle_horizon));
                    earliest = Some(earliest.map_or(g, |e| e.min(g)));
                }
                let fence = earliest.expect("shards >= 2") + self.lookahead;
                // The min-holder's fence widens past m1 + L exactly when
                // the minimum is unique (every other horizon is then
                // strictly above m1).
                let min_holders = (0..self.shards).filter(|&j| next(j) == Some(m1)).count();
                (Fence::Before(fence), min_holders == 1)
            }
        }
    }
}

/// One shard worker's handle onto the [`Coordinator`]: deposit outgoing
/// records, run the epoch barrier protocol, drain incoming records.
///
/// The per-epoch protocol, identical on every shard:
///
/// 1. execute local events strictly before the current fence;
/// 2. [`ShardPort::send`] / [`ShardPort::broadcast`] the cross-shard
///    records that were produced;
/// 3. [`ShardPort::sync`] with the local next-event time;
/// 4. on [`Round::Traffic`]: [`ShardPort::drain_incoming`], integrate,
///    then [`ShardPort::agree`] with the *post-integration* next time;
/// 5. repeat until the fence is [`Fence::Done`], then
///    [`ShardPort::finish`].
pub struct ShardPort<'c, M> {
    coord: &'c Coordinator<M>,
    shard: usize,
    /// Barriers this shard has passed (== the generation it expects).
    gen: u64,
    /// Exchange rounds completed (selects the mailbox parity).
    exchanges: u64,
    /// Whether this shard deposited a record since the last sync.
    deposited: bool,
    /// Protocol guard: a Traffic round's `agree` is still owed.
    awaiting_agree: bool,
    /// Protocol guard: an `arrive` whose `complete` is still owed.
    arrived: bool,
    /// Writer-local per-destination batch buffers (batched mode):
    /// deposits accumulate here and publish into the mailbox slots once
    /// per peer at [`ShardPort::arrive`], capacities recycled forever.
    out: Vec<Vec<M>>,
    /// Swap buffers for incoming mailboxes, one per source shard; drained
    /// by [`ShardPort::drain_incoming`], capacities recycled forever.
    scratch: Vec<Vec<M>>,
    counters: EngineCounters,
}

impl<M: Send> ShardPort<'_, M> {
    /// This port's shard index.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// Epoch counters accumulated so far. The round counters (`epochs`,
    /// `empty_epochs`, `fence_skips`) are identical on every shard —
    /// derived from shared per-round data only; the delivery counters
    /// (`deposits`, `batches`) are this shard's own and sum across
    /// shards (see `EngineCounters::absorb`).
    pub fn counters(&self) -> EngineCounters {
        self.counters
    }

    /// Deposit a record for shard `dst`, delivered after the next
    /// [`ShardPort::sync`]. The fabric never routes a record to its own
    /// shard, so `dst == self.shard()` is a caller bug.
    pub fn send(&mut self, dst: usize, msg: M) {
        debug_assert!(!self.awaiting_agree, "send between sync and agree");
        debug_assert!(!self.arrived, "send between arrive and complete");
        assert_ne!(dst, self.shard, "cross-shard record routed to its own shard");
        self.counters.deposits += 1;
        self.deposited = true;
        if self.coord.batched {
            // Writer-local: published into the slot once per peer at the
            // next arrive.
            self.out[dst].push(msg);
            return;
        }
        self.counters.batches += 1;
        let parity = (self.exchanges & 1) as usize;
        // SAFETY: this shard is the unique writer of its (src == shard)
        // slot row until it arrives at the next barrier, and the previous
        // reader of this parity finished before a barrier this shard has
        // already passed (module docs, "Lock-free exchange").
        unsafe { (*self.coord.slot(parity, self.shard, dst).0.get()).push(msg) };
    }

    /// Publish the per-destination batch buffers into the mailbox slots:
    /// one slot append per peer with pending records. Called on the way
    /// into the sync barrier (batched mode; a no-op otherwise — the naive
    /// path already wrote through).
    fn publish_batches(&mut self) {
        let parity = (self.exchanges & 1) as usize;
        for dst in 0..self.coord.shards {
            if self.out[dst].is_empty() {
                continue;
            }
            self.counters.batches += 1;
            // SAFETY: as in `send` — unique writer of its slot row until
            // the next barrier; `append` moves the records out and keeps
            // the local buffer's capacity.
            unsafe {
                (*self.coord.slot(parity, self.shard, dst).0.get()).append(&mut self.out[dst]);
            }
        }
    }

    /// Deposit a record for every other shard (replicated-collective
    /// traffic). A no-op at one shard.
    pub fn broadcast(&mut self, msg: M)
    where
        M: Clone,
    {
        let last = (0..self.coord.shards).rev().find(|&d| d != self.shard);
        let Some(last) = last else { return };
        for dst in 0..last {
            if dst != self.shard {
                self.send(dst, msg.clone());
            }
        }
        self.send(last, msg);
    }

    /// Arrival half of [`ShardPort::sync`]: publish this epoch's batches,
    /// write the next-event snapshot, advertise deposits, and count in at
    /// the barrier. Never blocks. A worker multiplexing several shards
    /// arrives for all of them before completing any.
    pub fn arrive(&mut self, local_next: Option<Time>) {
        debug_assert!(!self.awaiting_agree, "sync while an agree is owed");
        debug_assert!(!self.arrived, "arrive while a complete is owed");
        self.publish_batches();
        let gen = self.gen;
        let parity = (gen & 1) as usize;
        // SAFETY: unique writer of its own cell this round; readers wait
        // for the barrier.
        unsafe { *self.coord.next_cell(parity, self.shard).0.get() = local_next };
        if self.deposited {
            self.coord.traffic_gen.store(gen, Ordering::Relaxed);
        }
        self.coord.barrier_arrive(gen);
        self.arrived = true;
    }

    /// Completion half of [`ShardPort::sync`]: wait out the barrier, then
    /// classify the round. Returns how the epoch proceeds — see the
    /// [`Round`] docs for the obligations each variant carries.
    pub fn complete(&mut self) -> Round {
        debug_assert!(self.arrived, "complete without an arrive");
        self.arrived = false;
        let gen = self.gen;
        let parity = (gen & 1) as usize;
        self.coord.barrier_wait(gen);
        self.gen += 1;
        self.counters.epochs += 1;
        let deposits = self.coord.traffic_gen.load(Ordering::Relaxed) == gen;
        if !deposits {
            self.counters.empty_epochs += 1;
        }
        // The naive reference always runs the full exchange + agree
        // round; the adaptive policy fuses deposit-free rounds into one
        // barrier.
        if deposits || self.coord.policy == FencePolicy::Naive {
            let xparity = (self.exchanges & 1) as usize;
            for src in 0..self.coord.shards {
                if src == self.shard {
                    continue;
                }
                let slot = self.coord.slot(xparity, src, self.shard);
                // SAFETY: unique reader of its own dst column after the
                // barrier; the writer's next same-parity deposit happens
                // only after it passes the *next* barrier, and this swap
                // happens before this shard arrives there.
                unsafe { std::ptr::swap(slot.0.get(), &mut self.scratch[src]) };
            }
            self.exchanges += 1;
            self.deposited = false;
            self.awaiting_agree = true;
            Round::Traffic
        } else {
            let (fence, skip) = self.coord.fence(parity, self.shard);
            self.counters.fence_skips += u64::from(skip);
            Round::Quiet(fence)
        }
    }

    /// Arrive at the epoch barrier with this shard's next local event
    /// time (`None` when idle) and wait for the round to classify
    /// ([`ShardPort::arrive`] + [`ShardPort::complete`] fused, for
    /// thread-per-shard callers).
    pub fn sync(&mut self, local_next: Option<Time>) -> Round {
        self.arrive(local_next);
        self.complete()
    }

    /// Drain the records received in this epoch's exchange, in
    /// deterministic source-shard order. Must complete between a
    /// [`Round::Traffic`] and the matching [`ShardPort::agree`].
    pub fn drain_incoming(&mut self, mut f: impl FnMut(M)) {
        for src in 0..self.coord.shards {
            for msg in self.scratch[src].drain(..) {
                f(msg);
            }
        }
    }

    /// Arrival half of [`ShardPort::agree`]. Never blocks.
    pub fn arrive_agree(&mut self, local_next: Option<Time>) {
        debug_assert!(self.awaiting_agree, "agree without a pending traffic round");
        debug_assert!(!self.arrived, "arrive_agree while a complete is owed");
        debug_assert!(
            self.scratch.iter().all(Vec::is_empty),
            "agree with undrained incoming records"
        );
        let gen = self.gen;
        let parity = (gen & 1) as usize;
        // SAFETY: as in `arrive`.
        unsafe { *self.coord.next_cell(parity, self.shard).0.get() = local_next };
        self.coord.barrier_arrive(gen);
        self.arrived = true;
    }

    /// Completion half of [`ShardPort::agree`]: wait out the barrier and
    /// compute the agreed fence.
    pub fn complete_agree(&mut self) -> Fence {
        debug_assert!(self.awaiting_agree && self.arrived, "complete_agree without arrive_agree");
        self.awaiting_agree = false;
        self.arrived = false;
        let gen = self.gen;
        let parity = (gen & 1) as usize;
        self.coord.barrier_wait(gen);
        self.gen += 1;
        let (fence, skip) = self.coord.fence(parity, self.shard);
        self.counters.fence_skips += u64::from(skip);
        fence
    }

    /// Second barrier of a traffic epoch: agree on the fence from
    /// *post-integration* next-event times (integration may have
    /// scheduled events earlier than the pre-exchange snapshot knew).
    pub fn agree(&mut self, local_next: Option<Time>) -> Fence {
        self.arrive_agree(local_next);
        self.complete_agree()
    }

    /// Arrival half of [`ShardPort::finish`]. Never blocks.
    pub fn arrive_finish(&mut self, local_now: Time) {
        debug_assert!(!self.awaiting_agree, "finish while an agree is owed");
        debug_assert!(!self.arrived, "arrive_finish while a complete is owed");
        let gen = self.gen;
        let parity = (gen & 1) as usize;
        // SAFETY: as in `arrive`.
        unsafe { *self.coord.next_cell(parity, self.shard).0.get() = Some(local_now) };
        self.coord.barrier_arrive(gen);
        self.arrived = true;
    }

    /// Completion half of [`ShardPort::finish`].
    pub fn complete_finish(&mut self) -> Time {
        debug_assert!(self.arrived, "complete_finish without arrive_finish");
        self.arrived = false;
        let gen = self.gen;
        let parity = (gen & 1) as usize;
        self.coord.barrier_wait(gen);
        self.gen += 1;
        // SAFETY: snapshot read between barriers, as in `fence`.
        let clock = |j: usize| unsafe { *self.coord.next_cell(parity, j).0.get() };
        (0..self.coord.shards).filter_map(clock).max().expect("every shard reported its clock")
    }

    /// Final barrier after [`Fence::Done`]: agree on the global end time
    /// (the maximum of all shards' local clocks) so every shard finalizes
    /// idle accounting to the same instant.
    pub fn finish(&mut self, local_now: Time) -> Time {
        self.arrive_finish(local_now);
        self.complete_finish()
    }
}

/// Partition `nodes` simulated nodes into `shards` contiguous,
/// maximally-balanced ranges (sizes differ by at most one). Contiguity
/// keeps neighbor-heavy workloads (stencils) mostly shard-local.
pub fn partition(nodes: usize, shards: usize) -> Vec<usize> {
    assert!(shards >= 1, "need at least one shard");
    let base = nodes / shards;
    let extra = nodes % shards;
    let mut owners = Vec::with_capacity(nodes);
    for shard in 0..shards {
        let size = base + usize::from(shard < extra);
        owners.extend(std::iter::repeat_n(shard, size));
    }
    owners
}

/// The contiguous node range owned by `shard` under [`partition`].
pub fn shard_range(nodes: usize, shards: usize, shard: usize) -> std::ops::Range<usize> {
    assert!(shard < shards, "shard out of range");
    let base = nodes / shards;
    let extra = nodes % shards;
    let start = shard * base + shard.min(extra);
    let size = base + usize::from(shard < extra);
    start..start + size
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ns(t: u64) -> Time {
        Time::from_nanos(t)
    }

    #[test]
    fn partition_covers_all_nodes_contiguously() {
        for nodes in 1..=65 {
            for shards in 1..=8 {
                let owners = partition(nodes, shards);
                assert_eq!(owners.len(), nodes);
                // Owners are non-decreasing (contiguous ranges).
                assert!(owners.windows(2).all(|w| w[0] <= w[1]));
                for shard in 0..shards {
                    let range = shard_range(nodes, shards, shard);
                    for i in range.clone() {
                        assert_eq!(owners[i], shard);
                    }
                    let count = owners.iter().filter(|&&o| o == shard).count();
                    assert_eq!(count, range.len());
                    // Balanced: sizes differ by at most one.
                    assert!(range.len() >= nodes / shards);
                    assert!(range.len() <= nodes / shards + 1);
                }
            }
        }
    }

    #[test]
    fn exchange_routes_and_broadcasts() {
        let coord = Coordinator::<u32>::new(3, Dur::from_nanos(1));
        let results: Vec<Vec<u32>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..3)
                .map(|shard| {
                    let coord = &coord;
                    s.spawn(move || {
                        let mut port = coord.port(shard);
                        // Shard 0 sends 2 to shard 1; every shard
                        // broadcasts 100 + its id.
                        if shard == 0 {
                            port.send(1, 2);
                        }
                        port.broadcast(100 + shard as u32);
                        let mut got = Vec::new();
                        match port.sync(Some(ns(10))) {
                            Round::Traffic => port.drain_incoming(|m| got.push(m)),
                            Round::Quiet(_) => panic!("deposits must classify as traffic"),
                        }
                        let _ = port.agree(None);
                        got.sort_unstable();
                        got
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(results[0], vec![101, 102]);
        assert_eq!(results[1], vec![2, 100, 102]);
        assert_eq!(results[2], vec![100, 101]);
    }

    /// Run each shard through a scripted sequence of next-event times and
    /// record the fence it is handed every round.
    fn scripted(policy: FencePolicy, scripts: Vec<Vec<Option<u64>>>) -> Vec<Vec<Fence>> {
        let shards = scripts.len();
        let coord = Coordinator::<()>::new(shards, Dur::from_nanos(50)).with_policy(policy);
        std::thread::scope(|s| {
            let handles: Vec<_> = scripts
                .into_iter()
                .enumerate()
                .map(|(shard, script)| {
                    let coord = &coord;
                    s.spawn(move || {
                        let mut port = coord.port(shard);
                        let mut fences = Vec::new();
                        for next in script {
                            match port.sync(next.map(ns)) {
                                Round::Quiet(f) => fences.push(f),
                                Round::Traffic => {
                                    port.drain_incoming(|()| {});
                                    fences.push(port.agree(next.map(ns)));
                                }
                            }
                        }
                        fences
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
    }

    #[test]
    fn naive_fence_is_global_min_plus_lookahead_then_done() {
        let fences = scripted(
            FencePolicy::Naive,
            vec![vec![Some(120), None], vec![Some(300), None], vec![None, None]],
        );
        for f in &fences {
            assert_eq!(f[0], Fence::Before(ns(170)), "min 120 + lookahead 50");
            assert_eq!(f[1], Fence::Done);
        }
    }

    #[test]
    fn adaptive_fence_widens_only_the_unique_min_holder() {
        // Shard 0 holds the unique min (120); shard 1 is busy at 300;
        // shard 2 is idle.
        let fences = scripted(
            FencePolicy::Adaptive,
            vec![vec![Some(120), None], vec![Some(300), None], vec![None, None]],
        );
        // Min-holder: min(g_1, g_2) + L = min(min(300, 170), 170) + 50.
        assert_eq!(fences[0][0], Fence::Before(ns(220)));
        // Everyone else sees g_0 = 120, i.e. the classic 170.
        assert_eq!(fences[1][0], Fence::Before(ns(170)));
        assert_eq!(fences[2][0], Fence::Before(ns(170)));
        for f in &fences {
            assert_eq!(f[1], Fence::Done);
        }
    }

    #[test]
    fn adaptive_fence_with_tied_minimum_is_classic_for_everyone() {
        let fences = scripted(
            FencePolicy::Adaptive,
            vec![vec![Some(120), None], vec![Some(120), None], vec![Some(400), None]],
        );
        for f in &fences {
            assert_eq!(f[0], Fence::Before(ns(170)));
            assert_eq!(f[1], Fence::Done);
        }
    }

    #[test]
    fn single_shard_runs_unbounded_then_done() {
        let coord = Coordinator::<()>::new(1, Dur::from_nanos(50));
        let mut port = coord.port(0);
        assert_eq!(port.sync(Some(ns(7))), Round::Quiet(Fence::Unbounded));
        assert_eq!(port.sync(None), Round::Quiet(Fence::Done));
        assert_eq!(port.finish(ns(99)), ns(99));
        let c = port.counters();
        assert_eq!(c.epochs, 2);
        assert_eq!(c.empty_epochs, 2);
    }

    #[test]
    fn counters_and_end_time_agree_across_shards() {
        let coord = Coordinator::<u8>::new(2, Dur::from_nanos(10));
        let (a, b) = std::thread::scope(|s| {
            let ca = &coord;
            let ha = s.spawn(move || {
                let mut port = ca.port(0);
                port.send(1, 9);
                assert_eq!(port.sync(Some(ns(5))), Round::Traffic);
                let mut got = Vec::new();
                port.drain_incoming(|m| got.push(m));
                assert!(got.is_empty());
                // Both shards report 5 → tied min → classic fence.
                assert_eq!(port.agree(Some(ns(5))), Fence::Before(ns(15)));
                // Quiet round, this shard idle: it sees the classic fence
                // off the peer's min (30 + 10).
                assert_eq!(port.sync(None), Round::Quiet(Fence::Before(ns(40))));
                assert_eq!(port.sync(None), Round::Quiet(Fence::Done));
                (port.finish(ns(40)), port.counters())
            });
            let cb = &coord;
            let hb = s.spawn(move || {
                let mut port = cb.port(1);
                assert_eq!(port.sync(Some(ns(30))), Round::Traffic);
                let mut got = Vec::new();
                port.drain_incoming(|m| got.push(m));
                assert_eq!(got, vec![9]);
                assert_eq!(port.agree(Some(ns(5))), Fence::Before(ns(15)));
                // Quiet round, unique min-holder (peer idle): widened to
                // (m1 + L) + L = (30 + 10) + 10.
                assert_eq!(port.sync(Some(ns(30))), Round::Quiet(Fence::Before(ns(50))));
                assert_eq!(port.sync(None), Round::Quiet(Fence::Done));
                (port.finish(ns(55)), port.counters())
            });
            (ha.join().unwrap(), hb.join().unwrap())
        });
        assert_eq!(a.0, ns(55), "end time is the max of local clocks");
        assert_eq!(b.0, ns(55));
        // Round counters are derived from shared data only; delivery
        // counters are per-shard (shard 0 sent the single record).
        assert_eq!((a.1.epochs, a.1.empty_epochs, a.1.fence_skips), (3, 2, 1));
        assert_eq!((b.1.epochs, b.1.empty_epochs, b.1.fence_skips), (3, 2, 1));
        assert_eq!((a.1.deposits, a.1.batches), (1, 1));
        assert_eq!((b.1.deposits, b.1.batches), (0, 0));
    }

    /// One worker thread multiplexes both shards through the split-phase
    /// API: arrive for all, then complete for all. Nothing ever parks and
    /// no wake signals are issued.
    #[test]
    fn split_phase_multiplexes_two_shards_on_one_thread() {
        let coord = Coordinator::<u8>::new(2, Dur::from_nanos(10));
        let mut p0 = coord.port(0);
        let mut p1 = coord.port(1);
        p0.send(1, 42);
        p0.arrive(Some(ns(5)));
        p1.arrive(Some(ns(30)));
        assert_eq!(p0.complete(), Round::Traffic);
        assert_eq!(p1.complete(), Round::Traffic);
        let mut got = Vec::new();
        p1.drain_incoming(|m| got.push(m));
        assert_eq!(got, vec![42]);
        p0.drain_incoming(|_| panic!("shard 0 received nothing"));
        p0.arrive_agree(Some(ns(5)));
        p1.arrive_agree(Some(ns(30)));
        // Shard 0 holds the unique min: widened to min(30, 5+10) + 10.
        assert_eq!(p0.complete_agree(), Fence::Before(ns(25)));
        assert_eq!(p1.complete_agree(), Fence::Before(ns(15)));
        p0.arrive(None);
        p1.arrive(None);
        assert_eq!(p0.complete(), Round::Quiet(Fence::Done));
        assert_eq!(p1.complete(), Round::Quiet(Fence::Done));
        p0.arrive_finish(ns(40));
        p1.arrive_finish(ns(44));
        assert_eq!(p0.complete_finish(), ns(44));
        assert_eq!(p1.complete_finish(), ns(44));
        assert_eq!(coord.wakes(), 0, "co-located shards never signal each other");
    }

    /// The naive per-message path and the batched path deliver identical
    /// per-source sequences; only the batch accounting differs.
    #[test]
    fn naive_and_batched_paths_deliver_identically() {
        let run = |batched: bool| {
            let coord = Coordinator::<u32>::new(2, Dur::from_nanos(10)).with_batched(batched);
            let mut p0 = coord.port(0);
            let mut p1 = coord.port(1);
            for i in 0..5 {
                p0.send(1, i);
            }
            p1.send(0, 100);
            p0.arrive(Some(ns(5)));
            p1.arrive(Some(ns(5)));
            assert_eq!(p0.complete(), Round::Traffic);
            assert_eq!(p1.complete(), Round::Traffic);
            let mut got0 = Vec::new();
            let mut got1 = Vec::new();
            p0.drain_incoming(|m| got0.push(m));
            p1.drain_incoming(|m| got1.push(m));
            p0.arrive_agree(None);
            p1.arrive_agree(None);
            p0.complete_agree();
            p1.complete_agree();
            (got0, got1, p0.counters(), p1.counters())
        };
        let (b0, b1, bc0, bc1) = run(true);
        let (n0, n1, nc0, nc1) = run(false);
        assert_eq!(b0, n0);
        assert_eq!(b1, n1);
        assert_eq!(b1, vec![0, 1, 2, 3, 4], "FIFO per directed pair");
        assert_eq!((bc0.deposits, bc0.batches), (5, 1), "batched: one publish per peer");
        assert_eq!((nc0.deposits, nc0.batches), (5, 5), "naive: one publish per record");
        assert_eq!((bc1.deposits, bc1.batches), (1, 1));
        assert_eq!((nc1.deposits, nc1.batches), (1, 1));
    }

    #[test]
    #[should_panic(expected = "own shard")]
    fn sending_to_own_shard_panics() {
        let coord = Coordinator::<u8>::new(2, Dur::from_nanos(1));
        let mut port = coord.port(0);
        port.send(0, 1);
    }
}
