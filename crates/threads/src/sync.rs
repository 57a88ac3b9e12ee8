//! Locks and condition variables (§3.1 of the paper).
//!
//! These are *per-node* primitives: the paper's threads synchronize within
//! a node; cross-node synchronization happens through RPC. Both primitives
//! are mode-aware:
//!
//! * in **thread** mode a contended `lock()` / false-condition `wait()`
//!   parks the thread and releases the processor;
//! * in **optimistic** mode they record the abort cause
//!   ([`AbortReason::LockHeld`] / [`AbortReason::ConditionFalse`]) and
//!   return `Pending`, leaving the provisional slot registered in the wait
//!   list — so a *promoted* continuation resumes exactly where the handler
//!   would have (lazy thread creation needs no undo);
//! * the rerun/NACK abort paths simply drop the futures, whose `Drop`
//!   impls deregister and, when a lock grant raced in, pass it on.
//!
//! Lock handoff is FIFO and direct (the releasing thread grants to the
//! longest waiter), which keeps scheduling deterministic.
//!
//! A waiter holds a *ticket* instead of a shared flag, so parking
//! allocates nothing (see `WaitQueue`).

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll};

use oam_model::AbortReason;

use crate::node::{ExecMode, Node};
use crate::sched::{BlockKind, Placement, ThreadId};

/// The FIFO wait list of one primitive. Tickets are issued in increasing
/// order and entries leave only from the front (a grant or signal) or by
/// the waiter's own withdrawal, so the queue stays sorted by ticket and a
/// waiter has been granted or signalled exactly when its ticket is no
/// longer queued: the queue is empty or its ticket is below the front one.
#[derive(Default)]
struct WaitQueue {
    /// `(thread, ticket)`, longest waiter first.
    entries: RefCell<VecDeque<(ThreadId, u64)>>,
    next_ticket: Cell<u64>,
}

impl WaitQueue {
    /// Enqueue `tid` at the back and return its ticket.
    fn park(&self, tid: ThreadId) -> u64 {
        let ticket = self.next_ticket.get();
        self.next_ticket.set(ticket + 1);
        self.entries.borrow_mut().push_back((tid, ticket));
        ticket
    }

    /// Has the waiter holding `ticket` left the queue through the front?
    fn released(&self, ticket: u64) -> bool {
        self.entries.borrow().front().is_none_or(|&(_, front)| ticket < front)
    }

    /// Withdraw a waiter that is still queued.
    fn withdraw(&self, ticket: u64) {
        self.entries.borrow_mut().retain(|&(_, t)| t != ticket);
    }

    fn pop_front(&self) -> Option<ThreadId> {
        self.entries.borrow_mut().pop_front().map(|(tid, _)| tid)
    }

    fn pop_back(&self) -> Option<ThreadId> {
        self.entries.borrow_mut().pop_back().map(|(tid, _)| tid)
    }

    fn len(&self) -> usize {
        self.entries.borrow().len()
    }
}

struct MutexInner<T> {
    node: Node,
    locked: Cell<bool>,
    waiters: WaitQueue,
    value: RefCell<T>,
}

/// A non-preemptive, FIFO-handoff mutex protecting a `T`.
pub struct Mutex<T> {
    inner: Rc<MutexInner<T>>,
}

impl<T> Clone for Mutex<T> {
    fn clone(&self) -> Self {
        Mutex { inner: Rc::clone(&self.inner) }
    }
}

impl<T> Mutex<T> {
    /// Create a mutex on `node` guarding `value`.
    pub fn new(node: &Node, value: T) -> Self {
        Mutex {
            inner: Rc::new(MutexInner {
                node: node.clone(),
                locked: Cell::new(false),
                waiters: WaitQueue::default(),
                value: RefCell::new(value),
            }),
        }
    }

    /// Acquire the lock. Await point: may park the thread or abort an
    /// optimistic execution.
    pub fn lock(&self) -> LockFuture<T> {
        LockFuture { mutex: self.clone(), ticket: None, acquired: false }
    }

    /// Non-blocking acquisition attempt (usable from hand-coded AM
    /// handlers, which must not block).
    pub fn try_lock(&self) -> Option<MutexGuard<T>> {
        if self.inner.locked.get() {
            None
        } else {
            self.inner.locked.set(true);
            self.inner.node.add_pending(self.inner.node.config().cost.mutex_op);
            Some(MutexGuard { mutex: self.clone(), released: false })
        }
    }

    /// Is the lock currently held?
    pub fn is_locked(&self) -> bool {
        self.inner.locked.get()
    }

    /// Number of threads waiting for the lock.
    pub fn waiters(&self) -> usize {
        self.inner.waiters.len()
    }

    /// Release: hand off to the longest waiter, or unlock.
    fn unlock(&self) {
        debug_assert!(self.inner.locked.get(), "unlock of an unlocked mutex");
        match self.inner.waiters.pop_front() {
            Some(tid) => self.inner.node.make_runnable(tid, Placement::Front),
            None => self.inner.locked.set(false),
        }
        self.inner.node.add_pending(self.inner.node.config().cost.mutex_op);
    }
}

/// RAII guard; the lock is released on drop. Access the protected value
/// through [`MutexGuard::with`] / [`MutexGuard::with_mut`].
pub struct MutexGuard<T> {
    mutex: Mutex<T>,
    released: bool,
}

impl<T> MutexGuard<T> {
    /// Read access to the protected value.
    pub fn with<R>(&self, f: impl FnOnce(&T) -> R) -> R {
        f(&self.mutex.inner.value.borrow())
    }

    /// Mutable access to the protected value.
    pub fn with_mut<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        f(&mut self.mutex.inner.value.borrow_mut())
    }

    /// Copy the protected value out.
    pub fn get(&self) -> T
    where
        T: Copy,
    {
        *self.mutex.inner.value.borrow()
    }

    /// Replace the protected value.
    pub fn set(&self, v: T) {
        *self.mutex.inner.value.borrow_mut() = v;
    }

    /// Explicit early release (equivalent to dropping the guard).
    pub fn unlock(mut self) {
        self.release();
    }

    fn release(&mut self) {
        if !self.released {
            self.released = true;
            self.mutex.unlock();
        }
    }
}

impl<T> Drop for MutexGuard<T> {
    fn drop(&mut self) {
        self.release();
    }
}

/// Future returned by [`Mutex::lock`].
pub struct LockFuture<T> {
    mutex: Mutex<T>,
    /// The ticket, once parked in the wait list.
    ticket: Option<u64>,
    acquired: bool,
}

impl<T> Future for LockFuture<T> {
    type Output = MutexGuard<T>;

    fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<MutexGuard<T>> {
        let this = self.get_mut();
        let node = this.mutex.inner.node.clone();
        if let Some(ticket) = this.ticket {
            if this.mutex.inner.waiters.released(ticket) {
                // Direct handoff: the releaser already made us the holder.
                this.ticket = None;
                this.acquired = true;
                node.add_pending(node.config().cost.mutex_op);
                return Poll::Ready(MutexGuard { mutex: this.mutex.clone(), released: false });
            }
            // Spurious re-poll while still waiting.
            match node.mode() {
                ExecMode::Thread => node.set_block_kind(BlockKind::Blocked),
                ExecMode::Optimistic => node.set_abort_cause(AbortReason::LockHeld),
                ExecMode::AmInline => unreachable!("AM handlers cannot be re-polled"),
            }
            return Poll::Pending;
        }
        if !this.mutex.inner.locked.get() {
            this.mutex.inner.locked.set(true);
            this.acquired = true;
            node.add_pending(node.config().cost.mutex_op);
            return Poll::Ready(MutexGuard { mutex: this.mutex.clone(), released: false });
        }
        // Contended: park.
        this.ticket = Some(this.mutex.inner.waiters.park(node.current_exec()));
        match node.mode() {
            ExecMode::Thread => node.set_block_kind(BlockKind::Blocked),
            ExecMode::Optimistic => node.set_abort_cause(AbortReason::LockHeld),
            ExecMode::AmInline => unreachable!("current_exec panics in AM mode"),
        }
        Poll::Pending
    }
}

impl<T> Drop for LockFuture<T> {
    fn drop(&mut self) {
        if let Some(ticket) = self.ticket.take() {
            if self.mutex.inner.waiters.released(ticket) {
                // The lock was handed to us but never consumed (abort
                // raced with the release): pass it on.
                self.mutex.unlock();
            } else {
                self.mutex.inner.waiters.withdraw(ticket);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Condition variables
// ---------------------------------------------------------------------------

struct CondVarInner {
    node: Node,
    waiters: WaitQueue,
}

/// A condition variable. Use with the owning node's [`Mutex`].
pub struct CondVar {
    inner: Rc<CondVarInner>,
}

impl Clone for CondVar {
    fn clone(&self) -> Self {
        CondVar { inner: Rc::clone(&self.inner) }
    }
}

impl CondVar {
    /// Create a condition variable on `node`.
    pub fn new(node: &Node) -> Self {
        CondVar {
            inner: Rc::new(CondVarInner { node: node.clone(), waiters: WaitQueue::default() }),
        }
    }

    /// Atomically release `guard`, wait for a signal, and reacquire the
    /// lock. Returns the new guard. The caller must re-check its condition
    /// in a loop, as with any condition variable.
    pub fn wait<T>(&self, guard: MutexGuard<T>) -> CvWait<T> {
        CvWait { cv: self.clone(), mutex: guard.mutex.clone(), phase: CvPhase::Start(guard) }
    }

    /// Wake the longest-waiting thread, if any.
    pub fn signal(&self) {
        if let Some(tid) = self.inner.waiters.pop_front() {
            self.inner.node.make_runnable(tid, Placement::Front);
        }
        self.inner.node.add_pending(self.inner.node.config().cost.condvar_signal);
    }

    /// Wake all waiting threads, preserving their wait order (the
    /// longest waiter runs first).
    pub fn broadcast(&self) {
        // Front placement reverses insertion order, so pop the waiters
        // back-to-front: the earliest waiter ends up frontmost. Making a
        // thread runnable runs nothing, so no waiter joins meanwhile.
        while let Some(tid) = self.inner.waiters.pop_back() {
            self.inner.node.make_runnable(tid, Placement::Front);
        }
        self.inner.node.add_pending(self.inner.node.config().cost.condvar_signal);
    }

    /// Number of threads currently waiting.
    pub fn waiters(&self) -> usize {
        self.inner.waiters.len()
    }
}

enum CvPhase<T> {
    /// Holding the guard; about to release and park.
    Start(MutexGuard<T>),
    /// Parked with this ticket, waiting for a signal.
    Waiting(u64),
    /// Signalled; reacquiring the mutex.
    Relock(LockFuture<T>),
    Done,
}

/// Future returned by [`CondVar::wait`].
pub struct CvWait<T> {
    cv: CondVar,
    mutex: Mutex<T>,
    phase: CvPhase<T>,
}

impl<T> Future for CvWait<T> {
    type Output = MutexGuard<T>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<MutexGuard<T>> {
        let this = self.get_mut();
        let node = this.cv.inner.node.clone();
        loop {
            match std::mem::replace(&mut this.phase, CvPhase::Done) {
                CvPhase::Start(guard) => {
                    // Register *before* releasing the lock so a signal sent
                    // by the thread the release wakes cannot be missed.
                    let ticket = this.cv.inner.waiters.park(node.current_exec());
                    node.add_pending(node.config().cost.condvar_wait_setup);
                    drop(guard); // releases the mutex (possible handoff)
                    this.phase = CvPhase::Waiting(ticket);
                    match node.mode() {
                        ExecMode::Thread => node.set_block_kind(BlockKind::Blocked),
                        ExecMode::Optimistic => node.set_abort_cause(AbortReason::ConditionFalse),
                        ExecMode::AmInline => unreachable!("current_exec panics in AM mode"),
                    }
                    return Poll::Pending;
                }
                CvPhase::Waiting(ticket) => {
                    if this.cv.inner.waiters.released(ticket) {
                        this.phase = CvPhase::Relock(this.mutex.lock());
                        continue;
                    }
                    this.phase = CvPhase::Waiting(ticket);
                    match node.mode() {
                        ExecMode::Thread => node.set_block_kind(BlockKind::Blocked),
                        ExecMode::Optimistic => node.set_abort_cause(AbortReason::ConditionFalse),
                        ExecMode::AmInline => unreachable!(),
                    }
                    return Poll::Pending;
                }
                CvPhase::Relock(mut lf) => match Pin::new(&mut lf).poll(cx) {
                    Poll::Ready(guard) => return Poll::Ready(guard),
                    Poll::Pending => {
                        this.phase = CvPhase::Relock(lf);
                        return Poll::Pending;
                    }
                },
                CvPhase::Done => panic!("CvWait polled after completion"),
            }
        }
    }
}

impl<T> Drop for CvWait<T> {
    fn drop(&mut self) {
        if let CvPhase::Waiting(ticket) = self.phase {
            if self.cv.inner.waiters.released(ticket) {
                // A signal was consumed by a wait that is being abandoned
                // (abort path): forward it so no wakeup is lost.
                self.cv.signal();
            } else {
                self.cv.inner.waiters.withdraw(ticket);
            }
        }
        // CvPhase::Relock drops the inner LockFuture, whose own Drop
        // deregisters / passes the lock on.
    }
}
