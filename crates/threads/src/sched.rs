//! Per-node scheduler state.
//!
//! Mirrors the paper's thread package (§3.1): non-preemptive, one running
//! thread per node, run-to-completion except on blocking or voluntary
//! yield, and the *live-stack optimization* — when the scheduler is running
//! on the stack of a terminated thread, a newly created thread can be
//! started directly (7 µs) instead of through a full context switch (52 µs).
//!
//! The scheduler itself is an event-driven object (not a future); threads
//! are futures it polls. The actual step loop lives in
//! `Node::step` (private to [`crate::node`]); this module holds the data structures and
//! the cost accounting they imply.

use std::cell::Cell;
use std::collections::{HashMap, VecDeque};
use std::future::Future;
use std::hash::BuildHasherDefault;
use std::pin::Pin;
use std::rc::Rc;

use oam_model::{CostModel, Dur};
use oam_sim::SeqHasher;

/// Identifier of a thread (or a provisional optimistic-execution slot) on a
/// single node. Not meaningful across nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ThreadId(pub(crate) u64);

impl ThreadId {
    /// The raw scheduler-local id (trace correlation).
    pub fn raw(self) -> u64 {
        self.0
    }
}

/// Where [`crate::node::Node::make_runnable`] inserts a thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Front of the run queue (runs next).
    Front,
    /// Back of the run queue.
    Back,
    /// Per the machine's configured [`oam_model::QueuePolicy`] — used for
    /// incoming RPC threads, the knob §4.1 of the paper sweeps.
    Policy,
}

/// A shared boolean used for spin-waits (reply flags, barrier completion).
///
/// A thread that `wait`s on a flag keeps the processor and busy-polls the
/// network, exactly like a CM-5 stub waiting for an RPC reply; the scheduler
/// may run other runnable threads in the meantime (paying switch costs) and
/// resumes the spinner once the flag is set.
#[derive(Clone, Default)]
pub struct Flag(Rc<Cell<bool>>);

impl Flag {
    /// A fresh, unset flag.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the flag, releasing any spinner.
    pub fn set(&self) {
        self.0.set(true);
    }

    /// Reset the flag to unset (for reusing a flag across waits).
    pub fn clear(&self) {
        self.0.set(false);
    }

    /// Current value.
    pub fn get(&self) -> bool {
        self.0.get()
    }
}

impl std::fmt::Debug for Flag {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Flag({})", self.0.get())
    }
}

/// How the currently polled thread suspended, reported through
/// `Node::block_kind` by the synchronization primitives.
pub(crate) enum BlockKind {
    /// Apply the node's accumulated pending charge, then resume this thread
    /// (the `charge` primitive).
    Settle,
    /// Requeue at the back and run someone else.
    Yield,
    /// Parked in a primitive's wait list; the primitive will call
    /// `make_runnable` later.
    Blocked,
    /// Busy-wait for a flag while letting messages (and runnable threads)
    /// through.
    Spin(Flag),
}

/// Lifecycle state of a thread slot.
pub(crate) enum SlotState {
    /// In the run queue.
    Runnable,
    /// Currently being executed.
    Running,
    /// Parked: in a primitive's wait list, spinning on a flag, or mid-charge.
    Parked,
}

pub(crate) struct ThreadSlot {
    pub fut: Option<Pin<Box<dyn Future<Output = ()>>>>,
    pub state: SlotState,
    /// True until the thread's first poll: drives live-stack accounting.
    pub never_ran: bool,
}

/// What is occupying the processor's stack — determines the cost of
/// starting/resuming the next thread (see [`switch_cost`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StackState {
    /// Fresh node (nothing has run yet) — like a terminated stack.
    Pristine,
    /// The scheduler is on a terminated thread's stack: a fresh thread can
    /// be started directly.
    Terminated,
    /// This thread suspended (blocked/yielded/spinning) and is still "hot":
    /// resuming *it* is free, but running anything else costs a full switch.
    Live(ThreadId),
}

/// Outcome of the cost computation for starting/resuming a thread.
pub(crate) struct SwitchCharge {
    pub cost: Dur,
    pub full_switch: bool,
    /// `Some(true)` = live-stack hit, `Some(false)` = miss, `None` = not a
    /// fresh start (doesn't enter the live-stack statistics).
    pub live_stack: Option<bool>,
}

/// Compute the cost of making `next` the running thread given the current
/// stack occupancy (§3.1 cost structure):
///
/// * resuming the thread that is still hot on the stack: free;
/// * starting a *fresh* thread from a terminated/pristine stack: direct
///   start, 7 µs — the live-stack optimization;
/// * starting a fresh thread over a live suspended thread: save the live
///   state (52 µs) plus the direct start (7 µs) — the paper's ~60 µs;
/// * resuming a suspended thread: a full context switch (52 µs); the paper
///   notes the register restore could not be avoided even from a
///   terminated stack (SPARC register windows).
pub(crate) fn switch_cost(
    cost: &CostModel,
    stack: StackState,
    next: ThreadId,
    never_ran: bool,
) -> SwitchCharge {
    match (stack, never_ran) {
        (StackState::Live(cur), _) if cur == next => {
            SwitchCharge { cost: Dur::ZERO, full_switch: false, live_stack: None }
        }
        (StackState::Terminated | StackState::Pristine, true) => SwitchCharge {
            cost: cost.thread_create_direct,
            full_switch: false,
            live_stack: Some(true),
        },
        (StackState::Live(_), true) => SwitchCharge {
            cost: cost.context_switch + cost.thread_create_direct,
            full_switch: true,
            live_stack: Some(false),
        },
        (_, false) => {
            SwitchCharge { cost: cost.context_switch, full_switch: true, live_stack: None }
        }
    }
}

/// The per-node scheduler bookkeeping.
pub(crate) struct Sched {
    /// Keyed by dense scheduler-issued ids, so a multiplicative hash suffices.
    pub slots: HashMap<u64, ThreadSlot, BuildHasherDefault<SeqHasher>>,
    pub run_queue: VecDeque<ThreadId>,
    pub current: Option<ThreadId>,
    /// Spin-waiting threads, in registration order.
    pub spinners: Vec<(ThreadId, Flag)>,
    pub stack_state: StackState,
    pub next_id: u64,
    /// Count of live threads (slots in the table).
    pub live_threads: usize,
    /// Optimistic executions in progress (they nest). None of them has a
    /// slot until it is promoted.
    pub attempts: usize,
    /// Ids without a slot that were woken while an attempt was in
    /// progress: a promotion finds its early wake here. Cleared when the
    /// last attempt ends, so a stale wake is dropped then.
    pub early_wakes: Vec<ThreadId>,
}

impl Sched {
    pub fn new() -> Self {
        Sched {
            slots: HashMap::default(),
            run_queue: VecDeque::new(),
            current: None,
            spinners: Vec::new(),
            stack_state: StackState::Pristine,
            next_id: 0,
            live_threads: 0,
            attempts: 0,
            early_wakes: Vec::new(),
        }
    }

    pub fn alloc_id(&mut self) -> ThreadId {
        let id = self.next_id;
        self.next_id += 1;
        ThreadId(id)
    }

    /// Start an optimistic execution under a fresh id.
    pub fn begin_attempt(&mut self) -> ThreadId {
        self.attempts += 1;
        self.alloc_id()
    }

    /// End the optimistic execution `tid`, returning whether a wake
    /// arrived for it.
    pub fn end_attempt(&mut self, tid: ThreadId) -> bool {
        debug_assert!(self.attempts > 0, "no optimistic execution in progress");
        self.attempts -= 1;
        let woken = self.early_wakes.contains(&tid);
        if self.attempts == 0 {
            self.early_wakes.clear();
        } else if woken {
            self.early_wakes.retain(|&t| t != tid);
        }
        woken
    }

    /// Remember a wake for `tid`, which has no slot, if an attempt is in
    /// progress: `tid` may be that attempt or one it is nested in.
    pub fn wake_attempt(&mut self, tid: ThreadId) {
        if self.attempts > 0 && !self.early_wakes.contains(&tid) {
            self.early_wakes.push(tid);
        }
    }

    /// Remove spinners whose flag is set and append them to `ready`, in
    /// registration order. The node makes each runnable (handling
    /// provisional slots correctly) and reuses `ready` across steps, so a
    /// spinner wake — one per blocking call — allocates nothing.
    pub fn take_ready_spinners(&mut self, ready: &mut Vec<ThreadId>) {
        self.spinners.retain(|(tid, flag)| {
            if flag.get() {
                ready.push(*tid);
                false
            } else {
                true
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cm5() -> CostModel {
        CostModel::cm5()
    }

    #[test]
    fn resuming_hot_thread_is_free() {
        let c = switch_cost(&cm5(), StackState::Live(ThreadId(3)), ThreadId(3), false);
        assert_eq!(c.cost, Dur::ZERO);
        assert!(!c.full_switch);
        assert_eq!(c.live_stack, None);
    }

    #[test]
    fn fresh_thread_from_terminated_stack_is_7us() {
        let c = switch_cost(&cm5(), StackState::Terminated, ThreadId(1), true);
        assert_eq!(c.cost, Dur::from_micros(7));
        assert_eq!(c.live_stack, Some(true));
    }

    #[test]
    fn fresh_thread_over_live_thread_is_59us() {
        let c = switch_cost(&cm5(), StackState::Live(ThreadId(0)), ThreadId(1), true);
        assert_eq!(c.cost, Dur::from_micros(59));
        assert!(c.full_switch);
        assert_eq!(c.live_stack, Some(false));
    }

    #[test]
    fn resuming_suspended_thread_always_pays_full_switch() {
        for stack in [StackState::Pristine, StackState::Terminated, StackState::Live(ThreadId(9))] {
            let c = switch_cost(&cm5(), stack, ThreadId(1), false);
            assert_eq!(c.cost, Dur::from_micros(52), "stack = {stack:?}");
            assert!(c.full_switch);
        }
    }

    #[test]
    fn ready_spinners_are_taken_in_registration_order() {
        let mut s = Sched::new();
        let (f1, f2, f3) = (Flag::new(), Flag::new(), Flag::new());
        for (i, f) in [&f1, &f2, &f3].iter().enumerate() {
            let tid = ThreadId(i as u64);
            s.slots.insert(
                tid.0,
                ThreadSlot { fut: None, state: SlotState::Parked, never_ran: false },
            );
            s.spinners.push((tid, (*f).clone()));
        }
        f1.set();
        f3.set();
        let mut ready = Vec::new();
        s.take_ready_spinners(&mut ready);
        assert_eq!(ready, vec![ThreadId(0), ThreadId(2)]);
        assert_eq!(s.spinners.len(), 1);
        assert_eq!(s.spinners[0].0, ThreadId(1));
        ready.clear();
        s.take_ready_spinners(&mut ready);
        assert!(ready.is_empty(), "taking twice yields nothing new");
    }

    #[test]
    fn flag_set_get() {
        let f = Flag::new();
        assert!(!f.get());
        f.set();
        assert!(f.get());
        let g = f.clone();
        assert!(g.get(), "clones share state");
    }
}
