//! The per-node runtime: scheduler loop, execution modes, and the
//! primitive futures (`charge`, `yield_now`, `checkpoint`, flag spins,
//! `poll()` batches) that thread code suspends on.
//!
//! # Execution modes
//!
//! Code runs in one of three modes ([`ExecMode`]):
//!
//! * **Thread** — a schedulable thread polled by the scheduler. Blocking
//!   primitives park the thread and release the processor.
//! * **Optimistic** — an OAM handler being executed inline by the
//!   `oam-core` engine. Blocking primitives record an [`AbortReason`] and
//!   return `Pending`; the engine then aborts per its strategy.
//! * **AmInline** — a hand-coded Active Message handler. Blocking is a
//!   programming error (the paper: "the program dies"), and the async
//!   primitives panic if reached, mirroring that.
//!
//! # Virtual-time accounting
//!
//! Costs accumulate in a per-node `pending` pot; the scheduler converts the
//! pot into a wait (a *settle*) before running anything else. The settle is
//! a simulator continuation ([`Sim::settle_for`]): an uncancellable event
//! with the node's next key that usually skips the event queue, since it is
//! most often the very next event to fire.
//!
//! Most settles fire no event at all. A kick that is the last act of its
//! event — a *tail* kick ([`Node::kick_tail`]): the settle continuation
//! itself, the wake-from-idle kick, the network's arrival hook and an
//! open-loop driver's pacing wake — lets its step loop settle in place:
//! when nothing pending precedes the settle, the simulator advances the
//! clock and the loop goes on without an event. Any other kick (one of
//! several in an event, or one nested in another node's step) settles
//! through an event as before.
//! `charge()` inside a thread suspends until its cost has settled — compute
//! is non-preemptible and messages wait in the NI meanwhile, which is
//! exactly CM-5 polling semantics. `charge()` inside an inline handler
//! accumulates synchronously and settles when the dispatch completes.

use std::cell::{Cell, RefCell};
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

use oam_model::{
    AbortReason, Dur, MachineConfig, NodeId, NodeStats, QueuePolicy, Time, TraceEvent, TraceKind,
    TraceObserver,
};
use oam_sim::Sim;

use crate::sched::{
    switch_cost, BlockKind, Flag, Placement, Sched, SlotState, ThreadId, ThreadSlot,
};

/// What kind of code is currently executing on a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// A schedulable thread.
    Thread,
    /// An Optimistic Active Message handler running inline.
    Optimistic,
    /// A hand-coded Active Message handler (must not block).
    AmInline,
}

/// The message-dispatch hook installed by the Active Message layer.
///
/// The scheduler calls this whenever the node has nothing runnable (the
/// paper: "if no such thread exists, it polls the network") and from
/// explicit application `poll()`s.
pub trait Dispatcher {
    /// Poll the NI once and dispatch at most one message. Must charge its
    /// own costs via [`Node::add_pending`]. Returns `true` if a message was
    /// processed.
    fn poll_once(&self, node: &Node) -> bool;
}

/// A point-in-time snapshot of one node's scheduler, used by the machine
/// watchdog to explain why a run stopped making progress.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeDiag {
    /// Which node.
    pub node: NodeId,
    /// The node is idle (nothing runnable, NI empty at last poll).
    pub idle: bool,
    /// Threads alive on the node.
    pub live_threads: usize,
    /// Threads in the run queue.
    pub runnable: usize,
    /// Threads spin-waiting on a flag (RPC replies, barriers).
    pub spinning: usize,
    /// Threads parked in a primitive's wait list (locks, conditions).
    pub parked: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RunState {
    /// The step loop is running or scheduled to continue.
    Active,
    /// Waiting for a settle event.
    Settling,
    /// Nothing to do; waiting for an arrival or an external wake.
    Idle,
}

pub(crate) struct NodeInner {
    sim: Sim,
    id: NodeId,
    nprocs: usize,
    cfg: Rc<MachineConfig>,
    stats: Rc<RefCell<NodeStats>>,
    pub(crate) sched: RefCell<Sched>,
    /// Buffer the step loop lends to [`Sched::take_ready_spinners`] and
    /// gets back empty, so waking a spinner allocates nothing.
    ready_spinners: Cell<Vec<ThreadId>>,
    pending: Cell<Dur>,
    mode: Cell<ExecMode>,
    block_kind: RefCell<Option<BlockKind>>,
    abort_cause: Cell<Option<AbortReason>>,
    /// Virtual time consumed so far by the inline handler being executed
    /// (drives "ran too long" detection at `checkpoint()`s).
    handler_elapsed: Cell<Dur>,
    /// The provisional thread id of the optimistic execution in progress.
    active_provisional: Cell<Option<ThreadId>>,
    dispatcher: RefCell<Option<Rc<dyn Dispatcher>>>,
    stepping: Cell<bool>,
    run_state: Cell<RunState>,
    idle_since: Cell<Option<Time>>,
    /// A wake-from-idle kick event is already queued.
    kick_scheduled: Cell<bool>,
    /// Optional trace observer (None = zero-cost).
    observer: RefCell<Option<TraceObserver>>,
    /// Mirror of `observer.is_some()`, checkable without a `RefCell`
    /// borrow: keeps every `emit` call site to a single branch when no
    /// observer is installed (the common, measured-performance case).
    observer_installed: Cell<bool>,
}

/// Handle to a node's runtime. Cheap to clone; all clones share state.
#[derive(Clone)]
pub struct Node {
    pub(crate) inner: Rc<NodeInner>,
}

impl Node {
    /// Create a node runtime. One per simulated processor.
    pub fn new(
        sim: &Sim,
        id: NodeId,
        nprocs: usize,
        cfg: Rc<MachineConfig>,
        stats: Rc<RefCell<NodeStats>>,
    ) -> Self {
        Node {
            inner: Rc::new(NodeInner {
                sim: sim.clone(),
                id,
                nprocs,
                cfg,
                stats,
                sched: RefCell::new(Sched::new()),
                ready_spinners: Cell::new(Vec::new()),
                pending: Cell::new(Dur::ZERO),
                mode: Cell::new(ExecMode::Thread),
                block_kind: RefCell::new(None),
                abort_cause: Cell::new(None),
                handler_elapsed: Cell::new(Dur::ZERO),
                active_provisional: Cell::new(None),
                dispatcher: RefCell::new(None),
                stepping: Cell::new(false),
                run_state: Cell::new(RunState::Idle),
                idle_since: Cell::new(None),
                kick_scheduled: Cell::new(false),
                observer: RefCell::new(None),
                observer_installed: Cell::new(false),
            }),
        }
    }

    // ---- basic accessors ----

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.inner.id
    }

    /// Number of nodes in the machine.
    pub fn nprocs(&self) -> usize {
        self.inner.nprocs
    }

    /// The simulation handle.
    pub fn sim(&self) -> &Sim {
        &self.inner.sim
    }

    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.inner.sim.now()
    }

    /// The machine configuration.
    pub fn config(&self) -> &Rc<MachineConfig> {
        &self.inner.cfg
    }

    /// This node's statistics counters.
    pub fn stats(&self) -> &Rc<RefCell<NodeStats>> {
        &self.inner.stats
    }

    /// Install the message dispatcher (done once by the AM layer).
    pub fn set_dispatcher(&self, d: Rc<dyn Dispatcher>) {
        *self.inner.dispatcher.borrow_mut() = Some(d);
    }

    /// Remove the message dispatcher. The AM layer's dispatcher points back
    /// at every node, so the layer removes it when its machine is dropped.
    pub fn clear_dispatcher(&self) {
        self.inner.dispatcher.borrow_mut().take();
    }

    /// Drop every thread the node still holds — suspended, runnable or
    /// spinning — without running it. A run that stopped unfinished
    /// (deadlock, watchdog budget) leaves such threads behind, and their
    /// futures hold this node; the machine calls this when it is dropped to
    /// break that cycle. The futures are dropped after the scheduler is
    /// released, because their destructors (spins, joins, lock waits) reach
    /// back into it.
    pub fn drop_threads(&self) {
        let slots = {
            let mut sched = self.inner.sched.borrow_mut();
            sched.run_queue.clear();
            sched.spinners.clear();
            sched.current = None;
            sched.live_threads = 0;
            std::mem::take(&mut sched.slots)
        };
        drop(slots);
    }

    /// Install a trace observer. Events from the scheduler and the layers
    /// above flow to it synchronously; `None` (the default) costs a null
    /// check per event site.
    pub fn set_observer(&self, obs: Option<TraceObserver>) {
        self.inner.observer_installed.set(obs.is_some());
        *self.inner.observer.borrow_mut() = obs;
    }

    /// True when a trace observer is installed. Call sites that would do
    /// non-trivial work just to *build* a [`TraceKind`] can skip it.
    #[inline]
    pub fn tracing(&self) -> bool {
        self.inner.observer_installed.get()
    }

    /// Emit a trace event (used by this crate and the AM/OAM layers).
    #[inline]
    pub fn emit(&self, kind: TraceKind) {
        if !self.inner.observer_installed.get() {
            return;
        }
        self.emit_slow(kind);
    }

    /// Out-of-line observer dispatch, so the untraced fast path in
    /// [`Node::emit`] stays small enough to inline everywhere.
    #[cold]
    fn emit_slow(&self, kind: TraceKind) {
        let obs = self.inner.observer.borrow().clone();
        if let Some(obs) = obs {
            obs(&TraceEvent { node: self.inner.id, t: self.now(), kind });
        }
    }

    // ---- cost accounting ----

    /// Add `d` to the node's pending virtual-time charge. The scheduler
    /// settles the pot before executing anything else.
    pub fn add_pending(&self, d: Dur) {
        if !d.is_zero() {
            self.inner.pending.set(self.inner.pending.get() + d);
            if matches!(self.inner.mode.get(), ExecMode::Optimistic | ExecMode::AmInline) {
                self.inner.handler_elapsed.set(self.inner.handler_elapsed.get() + d);
            }
        }
    }

    /// Pending charge not yet settled (for tests and diagnostics).
    pub fn pending_charge(&self) -> Dur {
        self.inner.pending.get()
    }

    // ---- execution-mode plumbing (used by the AM/OAM layers) ----

    /// Current execution mode.
    pub fn mode(&self) -> ExecMode {
        self.inner.mode.get()
    }

    /// Switch execution mode, returning the previous one. The AM/OAM layers
    /// bracket inline handler execution with this.
    pub fn set_mode(&self, m: ExecMode) -> ExecMode {
        self.inner.mode.replace(m)
    }

    /// Record why the current optimistic execution cannot continue.
    pub fn set_abort_cause(&self, r: AbortReason) {
        self.inner.abort_cause.set(Some(r));
    }

    /// Take the recorded abort cause, if any.
    pub fn take_abort_cause(&self) -> Option<AbortReason> {
        self.inner.abort_cause.take()
    }

    /// Reset the inline-handler elapsed-time counter (OAM engine, at
    /// handler entry).
    pub fn reset_handler_elapsed(&self) {
        self.inner.handler_elapsed.set(Dur::ZERO);
    }

    /// Virtual time consumed by the inline handler so far.
    pub fn handler_elapsed(&self) -> Dur {
        self.inner.handler_elapsed.get()
    }

    // ---- thread management ----

    /// Spawn an application thread (queued at the back). Returns a handle
    /// the spawner can `join`.
    pub fn spawn<T: 'static>(&self, fut: impl Future<Output = T> + 'static) -> JoinHandle<T> {
        self.spawn_placed(fut, Placement::Back).0
    }

    /// Spawn a thread for an incoming RPC, placed per the machine's
    /// configured queue policy (§4.1 of the paper).
    pub fn spawn_incoming<T: 'static>(
        &self,
        fut: impl Future<Output = T> + 'static,
    ) -> JoinHandle<T> {
        self.spawn_placed(fut, Placement::Policy).0
    }

    /// Spawn a thread for an incoming RPC at an explicit queue position —
    /// priority dispatch overrides the configured policy — and return its
    /// thread id so the call engine can wake it for cancellation.
    pub fn spawn_incoming_at(
        &self,
        fut: impl Future<Output = ()> + 'static,
        place: Placement,
    ) -> ThreadId {
        self.spawn_placed(fut, place).1
    }

    fn spawn_placed<T: 'static>(
        &self,
        fut: impl Future<Output = T> + 'static,
        place: Placement,
    ) -> (JoinHandle<T>, ThreadId) {
        let handle = JoinHandle::new(self.clone());
        let inner = handle.shared();
        let node = self.clone();
        let wrapped = async move {
            let out = fut.await;
            inner.finish(&node, out);
        };
        let tid = {
            let mut sched = self.inner.sched.borrow_mut();
            let tid = sched.alloc_id();
            sched.slots.insert(
                tid.0,
                ThreadSlot {
                    fut: Some(Box::pin(wrapped)),
                    state: SlotState::Runnable,
                    never_ran: true,
                },
            );
            sched.live_threads += 1;
            tid
        };
        self.inner.stats.borrow_mut().threads_created += 1;
        self.emit(TraceKind::ThreadSpawned { tid: tid.raw() });
        self.add_pending(self.inner.cfg.cost.enqueue_runnable);
        self.enqueue(tid, place);
        self.wake_if_idle();
        (handle, tid)
    }

    /// Reserve a thread id for an optimistic execution. The id enters the
    /// slot table only if the handler aborts and [`Node::promote`] turns
    /// it into a real thread; until then a wake for it is remembered
    /// beside the table. A handler that completes without blocking is
    /// released for free: nothing is inserted or removed.
    pub fn reserve_provisional(&self) -> ThreadId {
        self.inner.sched.borrow_mut().begin_attempt()
    }

    /// Release a provisional id after a successful optimistic execution. A
    /// later wake for it is a no-op.
    pub fn release_provisional(&self, tid: ThreadId) {
        self.inner.sched.borrow_mut().end_attempt(tid);
    }

    /// Promote a provisional id into a real thread running `fut` — the
    /// lazy thread creation at the heart of OAM. If a wake already arrived
    /// (e.g. the contended lock was released while the abort was being
    /// processed) the thread is immediately runnable; otherwise it stays
    /// parked in whatever wait list the partially-run handler joined.
    pub fn promote(&self, tid: ThreadId, fut: impl Future<Output = ()> + 'static) {
        let woken = {
            let mut sched = self.inner.sched.borrow_mut();
            let woken = sched.end_attempt(tid);
            let state = if woken { SlotState::Runnable } else { SlotState::Parked };
            sched
                .slots
                .insert(tid.0, ThreadSlot { fut: Some(Box::pin(fut)), state, never_ran: true });
            sched.live_threads += 1;
            woken
        };
        self.inner.stats.borrow_mut().threads_created += 1;
        self.emit(TraceKind::ThreadSpawned { tid: tid.raw() });
        if woken {
            self.enqueue(tid, Placement::Policy);
            self.wake_if_idle();
        }
    }

    /// The identity of the currently executing entity: the running thread,
    /// or the provisional slot of the optimistic handler being executed.
    /// Wait lists park this id.
    pub fn current_exec(&self) -> ThreadId {
        match self.inner.mode.get() {
            ExecMode::Thread => {
                self.inner.sched.borrow().current.expect("current_exec outside a running thread")
            }
            ExecMode::Optimistic => self
                .inner
                .active_provisional
                .get()
                .expect("optimistic mode without a provisional slot"),
            ExecMode::AmInline => {
                panic!(
                    "a hand-coded Active Message handler attempted a blocking operation — \
                        the paper's semantics: the program dies"
                )
            }
        }
    }

    /// Set the provisional slot the OAM engine is currently executing,
    /// returning the previous one (dispatch can nest).
    pub fn set_active_provisional_replace(&self, tid: Option<ThreadId>) -> Option<ThreadId> {
        self.inner.active_provisional.replace(tid)
    }

    /// Make a parked thread runnable, or remember the wake of a
    /// provisional id until its promotion. Idempotent for already-runnable
    /// threads.
    pub fn make_runnable(&self, tid: ThreadId, place: Placement) {
        let enqueue = {
            let mut sched = self.inner.sched.borrow_mut();
            match sched.slots.get_mut(&tid.0) {
                // A provisional id, or one that completed or was released
                // meanwhile (e.g. a spurious wake).
                None => {
                    sched.wake_attempt(tid);
                    false
                }
                Some(slot) => match slot.state {
                    SlotState::Parked => {
                        slot.state = SlotState::Runnable;
                        true
                    }
                    SlotState::Runnable | SlotState::Running => false,
                },
            }
        };
        if enqueue {
            self.enqueue(tid, place);
            self.wake_if_idle();
        }
    }

    /// Remove a spin registration (used when an optimistic spin future is
    /// dropped by the rerun/NACK abort paths).
    pub(crate) fn remove_spinner(&self, tid: ThreadId) {
        self.inner.sched.borrow_mut().spinners.retain(|(t, _)| *t != tid);
    }

    fn enqueue(&self, tid: ThreadId, place: Placement) {
        let mut sched = self.inner.sched.borrow_mut();
        let front = match place {
            Placement::Front => true,
            Placement::Back => false,
            Placement::Policy => self.inner.cfg.queue_policy == QueuePolicy::Front,
        };
        if front {
            sched.run_queue.push_front(tid);
        } else {
            sched.run_queue.push_back(tid);
        }
    }

    /// Number of threads that are alive (running, runnable, or parked).
    pub fn live_threads(&self) -> usize {
        self.inner.sched.borrow().live_threads
    }

    /// Snapshot the scheduler state for hang diagnosis. Cheap; callable at
    /// any quiescent point (e.g. after a run stops making progress).
    pub fn diagnostics(&self) -> NodeDiag {
        let sched = self.inner.sched.borrow();
        let spinning = sched.spinners.len();
        let parked = sched
            .slots
            .values()
            .filter(|s| matches!(s.state, SlotState::Parked))
            .count()
            .saturating_sub(spinning);
        NodeDiag {
            node: self.id(),
            idle: self.inner.run_state.get() == RunState::Idle,
            live_threads: sched.live_threads,
            runnable: sched.run_queue.len(),
            spinning,
            parked,
        }
    }

    // ---- primitive futures ----

    /// Consume `d` of virtual compute time. In a thread, the processor is
    /// held for the duration (non-preemptive); in an inline handler the
    /// cost accumulates and settles when the dispatch completes.
    pub fn charge(&self, d: Dur) -> Charge {
        Charge { node: self.clone(), d: Some(d) }
    }

    /// Voluntarily yield the processor (thread mode); no-op inline.
    pub fn yield_now(&self) -> YieldNow {
        YieldNow { node: self.clone(), yielded: false }
    }

    /// A stub-compiler-inserted progress check: inside an optimistic
    /// execution, aborts with [`AbortReason::RanTooLong`] once the handler
    /// has consumed more than the configured budget. No-op in a thread.
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint { node: self.clone(), tripped: false }
    }

    /// Busy-wait until `flag` is set, dispatching messages (and letting
    /// runnable threads run) in the meantime. This is how RPC stubs wait
    /// for replies and how split-phase barriers complete.
    pub fn spin_on(&self, flag: Flag) -> SpinOn {
        SpinOn { node: self.clone(), flag, registered_optimistic: None }
    }

    /// The application-level `poll()`: drain deliverable messages, run any
    /// threads they produce, then resume the caller. In the paper's apps
    /// this is the "carefully tuned polling" inserted in compute loops.
    pub fn poll_batch(&self) -> PollBatch {
        PollBatch { node: self.clone(), yielded: false }
    }

    // ---- the scheduler ----

    /// Fold the still-open trailing idle window into the statistics, as of
    /// `at` (typically the end of the run). While a run is in progress,
    /// idle time accrues only when a kick ends an idle period — which
    /// leaves the final window (last wake to end of run) uncounted, and
    /// makes the total sensitive to exactly *when* the last no-op wake
    /// lands. Folding the tail at harvest makes `idle_time` equal to the
    /// node's total non-active virtual time, independent of execution
    /// strategy. Idempotent; emits no trace (the node does not wake).
    pub fn finalize_idle(&self, at: Time) {
        if self.inner.run_state.get() != RunState::Idle {
            return;
        }
        if let Some(since) = self.inner.idle_since.get() {
            if at > since {
                self.inner.stats.borrow_mut().idle_time += at.since(since);
                self.inner.idle_since.set(Some(at));
            }
        }
    }

    /// Run the scheduler loop until the node blocks on virtual time, goes
    /// idle, or finishes. Invoked by events (arrivals, settles, external
    /// wakes); re-entrant calls are ignored.
    pub fn kick(&self) {
        self.kick_as(false);
    }

    /// [`Node::kick`] from an event that does nothing after it: the step
    /// loop may then settle in place ([`Sim::settle_for`]), moving the
    /// clock forward before this call returns. Call it only as the last act
    /// of an event, outside any node's step.
    pub fn kick_tail(&self) {
        self.kick_as(true);
    }

    fn kick_as(&self, tail: bool) {
        if self.inner.stepping.get() {
            return;
        }
        if self.inner.run_state.get() == RunState::Settling {
            // A settle continuation is already queued; it will resume the
            // loop at the correct virtual time. Acting now would let work
            // jump ahead of its own cost.
            return;
        }
        if self.inner.run_state.get() == RunState::Idle {
            if let Some(since) = self.inner.idle_since.take() {
                self.inner.stats.borrow_mut().idle_time += self.now().since(since);
            }
            self.emit(TraceKind::IdleEnd);
        }
        self.inner.run_state.set(RunState::Active);
        // Attribute everything scheduled from node code to this node while
        // the step loop runs.
        let prev_owner = self.inner.sim.swap_owner(self.inner.id.index() as u32);
        self.step(tail);
        self.inner.sim.swap_owner(prev_owner);
    }

    fn wake_if_idle(&self) {
        if !self.inner.stepping.get()
            && self.inner.run_state.get() == RunState::Idle
            && !self.inner.kick_scheduled.replace(true)
        {
            let node = self.clone();
            self.inner.sim.schedule_after_for(Dur::ZERO, self.inner.id.index() as u32, move |_| {
                node.inner.kick_scheduled.set(false);
                node.kick_tail();
            });
        }
    }

    /// The step loop. `tail`: the kick that started it is the last act of
    /// its event, so a settle may be taken in place.
    fn step(&self, tail: bool) {
        debug_assert!(!self.inner.stepping.get());
        self.inner.stepping.set(true);
        loop {
            // 0. Settle accumulated charges before doing anything else:
            //    in place when nothing is due first, else as an event.
            let pending = self.inner.pending.replace(Dur::ZERO);
            if !pending.is_zero() {
                let node = self.clone();
                let settle = move |_: &Sim| {
                    node.inner.run_state.set(RunState::Active);
                    node.kick_tail();
                };
                if self.inner.sim.settle_for(pending, self.inner.id.index() as u32, tail, settle) {
                    continue;
                }
                self.inner.run_state.set(RunState::Settling);
                break;
            }

            // 1. Run the current thread, if any.
            let current = self.inner.sched.borrow().current;
            if let Some(cur) = current {
                if self.run_current(cur) {
                    continue;
                }
                // Thread is mid-charge; the settle event will resume us.
                break;
            }

            // 2. Spinners whose flag was set become runnable (front).
            let mut ready = self.inner.ready_spinners.take();
            self.inner.sched.borrow_mut().take_ready_spinners(&mut ready);
            let woke = !ready.is_empty();
            // Reverse so the earliest-registered spinner ends up at the very
            // front of the run queue.
            for &tid in ready.iter().rev() {
                self.make_runnable(tid, Placement::Front);
            }
            ready.clear();
            self.inner.ready_spinners.set(ready);
            if woke {
                continue;
            }

            // 3. Start or resume the next runnable thread.
            let next = self.inner.sched.borrow_mut().run_queue.pop_front();
            if let Some(next) = next {
                self.begin_running(next);
                continue;
            }

            // 4. Nothing runnable: poll the network.
            let dispatcher = self.inner.dispatcher.borrow().clone();
            if let Some(d) = dispatcher {
                if d.poll_once(self) {
                    continue;
                }
            }

            // 5. Idle. Any remaining sub-settle pending (e.g. the empty
            //    poll's cost) carries over and delays the next activity.
            self.inner.run_state.set(RunState::Idle);
            self.inner.idle_since.set(Some(self.now()));
            self.emit(TraceKind::IdleStart);
            break;
        }
        self.inner.stepping.set(false);
    }

    /// Poll the current thread once. Returns `true` if the loop should
    /// continue, `false` if the node must wait for a settle event.
    fn run_current(&self, cur: ThreadId) -> bool {
        let mut fut = {
            let mut sched = self.inner.sched.borrow_mut();
            let slot = sched.slots.get_mut(&cur.0).expect("current thread has no slot");
            slot.state = SlotState::Running;
            slot.fut.take().expect("current thread has no future")
        };
        let prev_mode = self.inner.mode.replace(ExecMode::Thread);
        self.inner.block_kind.borrow_mut().take();
        let waker = Waker::noop();
        let mut cx = Context::from_waker(waker);
        let poll = fut.as_mut().poll(&mut cx);
        self.inner.mode.set(prev_mode);
        match poll {
            Poll::Ready(()) => {
                let mut sched = self.inner.sched.borrow_mut();
                sched.slots.remove(&cur.0);
                sched.current = None;
                sched.stack_state = crate::sched::StackState::Terminated;
                sched.live_threads -= 1;
                drop(sched);
                self.inner.stats.borrow_mut().threads_completed += 1;
                self.emit(TraceKind::ThreadFinished { tid: cur.raw() });
                self.add_pending(self.inner.cfg.cost.thread_exit);
                true
            }
            Poll::Pending => {
                let kind = self.inner.block_kind.borrow_mut().take().expect(
                    "thread returned Pending without using a node primitive — \
                             foreign futures cannot run on the node scheduler",
                );
                let mut sched = self.inner.sched.borrow_mut();
                let slot = sched.slots.get_mut(&cur.0).expect("slot vanished");
                slot.fut = Some(fut);
                match kind {
                    BlockKind::Settle => {
                        // Keep the thread current; step() settles then
                        // re-polls it.
                        slot.state = SlotState::Running;
                        drop(sched);
                        // Continue the loop: the settle at step 0 fires.
                        true
                    }
                    BlockKind::Yield => {
                        slot.state = SlotState::Runnable;
                        sched.run_queue.push_back(cur);
                        sched.current = None;
                        sched.stack_state = crate::sched::StackState::Live(cur);
                        drop(sched);
                        self.inner.stats.borrow_mut().yields += 1;
                        self.add_pending(self.inner.cfg.cost.yield_cost);
                        true
                    }
                    BlockKind::Blocked => {
                        slot.state = SlotState::Parked;
                        sched.current = None;
                        sched.stack_state = crate::sched::StackState::Live(cur);
                        true
                    }
                    BlockKind::Spin(flag) => {
                        slot.state = SlotState::Parked;
                        sched.spinners.push((cur, flag));
                        sched.current = None;
                        sched.stack_state = crate::sched::StackState::Live(cur);
                        true
                    }
                }
            }
        }
    }

    /// Make `next` the current thread, charging switch costs per the
    /// live-stack rules.
    fn begin_running(&self, next: ThreadId) {
        let charge = {
            let mut sched = self.inner.sched.borrow_mut();
            let stack = sched.stack_state;
            let slot = sched.slots.get_mut(&next.0).expect("runnable thread has no slot");
            let charge = switch_cost(&self.inner.cfg.cost, stack, next, slot.never_ran);
            slot.never_ran = false;
            slot.state = SlotState::Running;
            sched.current = Some(next);
            sched.stack_state = crate::sched::StackState::Live(next);
            charge
        };
        {
            let mut st = self.inner.stats.borrow_mut();
            if charge.full_switch {
                st.context_switches += 1;
            }
            match charge.live_stack {
                Some(true) => st.live_stack_hits += 1,
                Some(false) => st.live_stack_misses += 1,
                None => {}
            }
        }
        self.emit(TraceKind::ThreadStarted {
            tid: next.raw(),
            cost: charge.cost,
            live_stack: charge.live_stack,
        });
        self.add_pending(charge.cost);
    }

    /// Suspend the current thread spinning on `flag` (for futures in other
    /// crates — e.g. a send blocked on a full NI — that need spin-wait
    /// semantics: the node keeps polling and resumes when the flag sets).
    /// Must be followed by returning `Poll::Pending` from the caller.
    pub fn set_block_spin(&self, flag: Flag) {
        self.set_block_kind(BlockKind::Spin(flag));
    }

    // ---- internals used by primitive futures ----

    pub(crate) fn set_block_kind(&self, k: BlockKind) {
        *self.inner.block_kind.borrow_mut() = Some(k);
    }
}

// ---------------------------------------------------------------------------
// Primitive futures
// ---------------------------------------------------------------------------

/// Future returned by [`Node::charge`].
pub struct Charge {
    node: Node,
    d: Option<Dur>,
}

impl Future for Charge {
    type Output = ();
    fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<()> {
        let this = self.get_mut();
        match this.d.take() {
            None => Poll::Ready(()), // second poll: the settle completed
            Some(d) => {
                this.node.add_pending(d);
                match this.node.mode() {
                    ExecMode::Thread => {
                        this.node.set_block_kind(BlockKind::Settle);
                        Poll::Pending
                    }
                    // Inline handlers accumulate; the dispatch settles.
                    ExecMode::Optimistic | ExecMode::AmInline => Poll::Ready(()),
                }
            }
        }
    }
}

/// Future returned by [`Node::yield_now`].
pub struct YieldNow {
    node: Node,
    yielded: bool,
}

impl Future for YieldNow {
    type Output = ();
    fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<()> {
        let this = self.get_mut();
        if this.yielded || this.node.mode() != ExecMode::Thread {
            return Poll::Ready(());
        }
        this.yielded = true;
        this.node.set_block_kind(BlockKind::Yield);
        Poll::Pending
    }
}

/// Future returned by [`Node::checkpoint`].
pub struct Checkpoint {
    node: Node,
    tripped: bool,
}

impl Future for Checkpoint {
    type Output = ();
    fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<()> {
        let this = self.get_mut();
        if this.tripped {
            // Re-polled after promotion or a yield: continue.
            return Poll::Ready(());
        }
        match this.node.mode() {
            ExecMode::Optimistic => {
                if this.node.handler_elapsed() > this.node.config().handler_budget {
                    this.tripped = true;
                    this.node.set_abort_cause(AbortReason::RanTooLong);
                    Poll::Pending
                } else {
                    Poll::Ready(())
                }
            }
            ExecMode::Thread => {
                // In a thread (including a promoted long-running handler),
                // a checkpoint is a poll point: dispatch deliverable
                // messages and let other runnable threads in — this is
                // what makes promotion restore the node's responsiveness.
                let dispatcher = this.node.inner.dispatcher.borrow().clone();
                if let Some(d) = dispatcher {
                    while d.poll_once(&this.node) {}
                }
                if this.node.inner.sched.borrow().run_queue.is_empty() {
                    return Poll::Ready(());
                }
                this.tripped = true;
                this.node.set_block_kind(BlockKind::Yield);
                Poll::Pending
            }
            ExecMode::AmInline => Poll::Ready(()),
        }
    }
}

/// Future returned by [`Node::spin_on`].
pub struct SpinOn {
    node: Node,
    flag: Flag,
    /// Set when an optimistic execution registered its provisional slot in
    /// the spinner list (so promotion can be resumed by the flag); cleared
    /// on completion, deregistered on drop.
    registered_optimistic: Option<ThreadId>,
}

impl Future for SpinOn {
    type Output = ();
    fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<()> {
        let this = self.get_mut();
        if this.flag.get() {
            this.registered_optimistic = None;
            return Poll::Ready(());
        }
        match this.node.mode() {
            ExecMode::Thread => {
                this.node.set_block_kind(BlockKind::Spin(this.flag.clone()));
                Poll::Pending
            }
            ExecMode::Optimistic => {
                // A handler that waits must abort; register the provisional
                // slot so a promotion is woken when the flag is set.
                let tid = this.node.current_exec();
                if this.registered_optimistic != Some(tid) {
                    this.node.inner.sched.borrow_mut().spinners.push((tid, this.flag.clone()));
                    this.registered_optimistic = Some(tid);
                }
                this.node.set_abort_cause(AbortReason::ConditionFalse);
                Poll::Pending
            }
            ExecMode::AmInline => {
                panic!("AM handler attempted to wait on a flag — the program dies")
            }
        }
    }
}

impl Drop for SpinOn {
    fn drop(&mut self) {
        if let Some(tid) = self.registered_optimistic.take() {
            self.node.remove_spinner(tid);
        }
    }
}

/// Future returned by [`Node::poll_batch`].
pub struct PollBatch {
    node: Node,
    yielded: bool,
}

impl Future for PollBatch {
    type Output = ();
    fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<()> {
        let this = self.get_mut();
        if this.yielded || this.node.mode() != ExecMode::Thread {
            return Poll::Ready(());
        }
        // Dispatch every deliverable message right now — the CM-5 poll is
        // an instruction, not a scheduling point...
        let dispatcher = this.node.inner.dispatcher.borrow().clone();
        if let Some(d) = dispatcher {
            while d.poll_once(&this.node) {}
        }
        // ...then give incoming threads (placed per the queue policy —
        // "run remote procedure calls first") a scheduling point, but only
        // if there is actually something to run.
        if this.node.inner.sched.borrow().run_queue.is_empty() {
            return Poll::Ready(());
        }
        this.yielded = true;
        this.node.set_block_kind(BlockKind::Yield);
        Poll::Pending
    }
}

// ---------------------------------------------------------------------------
// Join handles
// ---------------------------------------------------------------------------

pub(crate) struct JoinShared<T> {
    result: RefCell<Option<T>>,
    done: Cell<bool>,
    waiters: RefCell<Vec<ThreadId>>,
}

impl<T> JoinShared<T> {
    pub(crate) fn finish(&self, node: &Node, value: T) {
        *self.result.borrow_mut() = Some(value);
        self.done.set(true);
        for tid in self.waiters.borrow_mut().drain(..) {
            node.make_runnable(tid, Placement::Front);
        }
    }
}

/// Handle to a spawned thread; `join` to wait for its result.
pub struct JoinHandle<T> {
    node: Node,
    shared: Rc<JoinShared<T>>,
}

impl<T> JoinHandle<T> {
    fn new(node: Node) -> Self {
        JoinHandle {
            node,
            shared: Rc::new(JoinShared {
                result: RefCell::new(None),
                done: Cell::new(false),
                waiters: RefCell::new(Vec::new()),
            }),
        }
    }

    pub(crate) fn shared(&self) -> Rc<JoinShared<T>> {
        Rc::clone(&self.shared)
    }

    /// Has the thread completed?
    pub fn is_done(&self) -> bool {
        self.shared.done.get()
    }

    /// Wait for the thread to finish and take its result.
    ///
    /// Blocks the calling thread; inside an optimistic execution this is a
    /// wait and therefore aborts the handler.
    pub fn join(self) -> Join<T> {
        Join { node: self.node.clone(), shared: self.shared, registered: None }
    }
}

/// Future returned by [`JoinHandle::join`].
pub struct Join<T> {
    node: Node,
    shared: Rc<JoinShared<T>>,
    registered: Option<ThreadId>,
}

impl<T> Future for Join<T> {
    type Output = T;
    fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<T> {
        let this = self.get_mut();
        if this.shared.done.get() {
            this.registered = None;
            return Poll::Ready(
                this.shared.result.borrow_mut().take().expect("join result taken twice"),
            );
        }
        let tid = this.node.current_exec();
        if this.registered != Some(tid) {
            this.shared.waiters.borrow_mut().push(tid);
            this.registered = Some(tid);
        }
        match this.node.mode() {
            ExecMode::Thread => this.node.set_block_kind(BlockKind::Blocked),
            ExecMode::Optimistic => this.node.set_abort_cause(AbortReason::ConditionFalse),
            ExecMode::AmInline => unreachable!("current_exec already panicked"),
        }
        Poll::Pending
    }
}

impl<T> Drop for Join<T> {
    fn drop(&mut self) {
        // Rerun/NACK abort paths drop pending waits; deregister so the
        // completing thread doesn't wake a recycled slot.
        if let Some(tid) = self.registered.take() {
            self.shared.waiters.borrow_mut().retain(|t| *t != tid);
        }
    }
}
