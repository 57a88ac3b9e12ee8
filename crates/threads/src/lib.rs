//! # oam-threads
//!
//! The paper's optimized non-preemptive user-level thread package (§3.1),
//! reproduced as futures driven by a per-node scheduler:
//!
//! * thread creation, termination, scheduling; run queues with front/back
//!   placement (§4.1); joins by thread id ([`JoinHandle`]), and a finished
//!   thread's body storage reused by the next thread of its type, so a
//!   warm spawn allocates nothing;
//! * [`Mutex`] and [`CondVar`] with FIFO handoff;
//! * virtual-compute charging ([`Node::charge`]), voluntary yield, and
//!   busy-wait flags ([`Node::spin_on`]) for RPC replies and barriers;
//! * the **live-stack optimization** cost accounting: starting a fresh
//!   thread from a terminated stack costs 7 µs, everything else pays the
//!   52 µs context switch;
//! * the execution-mode and abort-cause plumbing the OAM engine uses to
//!   run handlers optimistically and detect that they would block.

#![warn(missing_docs)]

pub mod node;
pub mod sched;
pub mod sync;

pub use node::{
    Charge, Checkpoint, Dispatcher, ExecMode, Join, JoinHandle, Node, NodeDiag, PollBatch, SpinOn,
    YieldNow,
};
pub use sched::{Flag, Placement, ThreadId};
pub use sync::{CondVar, CvWait, LockFuture, Mutex, MutexGuard};
