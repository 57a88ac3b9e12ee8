//! # Optimistic Active Messages
//!
//! A Rust reproduction of *"Optimistic Active Messages: A Mechanism for
//! Scheduling Communication with Computation"* (Wallach, Hsieh, Johnson,
//! Kaashoek, Weihl — PPoPP 1995), complete with the substrate the paper
//! ran on: a deterministic discrete-event simulation of a CM-5-like
//! multicomputer, a non-preemptive user-level thread package, an Active
//! Message layer, the OAM engine itself, an RPC stub generator, the
//! paper's four applications, and harnesses regenerating every table and
//! figure of its evaluation.
//!
//! The crates re-exported here form the layers of the system:
//!
//! | Module | Crate | Role |
//! |---|---|---|
//! | [`model`] | `oam-model` | virtual time, cost model, config, statistics |
//! | [`sim`] | `oam-sim` | discrete-event core |
//! | [`net`] | `oam-net` | NI FIFOs, fabric, bulk transfers |
//! | [`threads`] | `oam-threads` | scheduler, mutexes, condition variables |
//! | [`am`] | `oam-am` | Active Messages |
//! | [`core`] | `oam-core` | **Optimistic Active Messages** (the contribution) |
//! | [`rpc`] | `oam-rpc` | stub compiler + RPC runtime |
//! | [`machine`] | `oam-machine` | the assembled multicomputer |
//! | [`trace`] | `oam-trace` | execution tracing and export |
//! | [`objects`] | `oam-objects` | Orca-style shared data objects over ORPC |
//! | [`apps`] | `oam-apps` | Triangle, TSP, SOR, Water |
//!
//! ## Quickstart
//!
//! ```
//! use optimistic_active_messages::prelude::*;
//! use std::rc::Rc;
//!
//! // State for a remote counter service.
//! pub struct CounterState {
//!     pub value: Mutex<u64>,
//! }
//!
//! define_rpc_service! {
//!     /// A counter served by every node.
//!     service Counter {
//!         state CounterState;
//!
//!         /// Add `n`; returns the previous value.
//!         rpc add(ctx, st, n: u64) -> u64 {
//!             let g = st.value.lock().await;
//!             let old = g.get();
//!             g.set(old + n);
//!             old
//!         }
//!     }
//! }
//!
//! fn main() {
//!     let machine = MachineBuilder::new(4).build();
//!     for node in machine.nodes() {
//!         let st = Rc::new(CounterState { value: Mutex::new(node, 0) });
//!         Counter::register_all(machine.rpc(), node.id(), st, RpcMode::Orpc);
//!     }
//!     let report = machine.run(|env| async move {
//!         let dst = NodeId((env.id().index() + 1) % env.nprocs());
//!         for i in 0..10 {
//!             Counter::add::call(env.rpc(), env.node(), dst, i).await.expect("reply decode");
//!         }
//!     });
//!     // Every call ran optimistically: no server threads were created.
//!     assert_eq!(report.stats.total().oam_successes, 40);
//!     assert_eq!(report.stats.total().threads_created, 4); // node mains only
//! }
//! ```

#![warn(missing_docs)]

pub use oam_am as am;
pub use oam_apps as apps;
pub use oam_core as core;
pub use oam_machine as machine;
pub use oam_model as model;
pub use oam_net as net;
pub use oam_objects as objects;
pub use oam_rpc as rpc;
pub use oam_sim as sim;
pub use oam_threads as threads;
pub use oam_trace as trace;

/// Everything needed to build and run programs on the simulated machine.
pub mod prelude {
    pub use oam_am::{AmToken, HandlerEntry, HandlerId};
    pub use oam_core::{CallBody, CallEngine, MethodSite, OamCall, Priority};
    pub use oam_machine::{Collectives, Machine, MachineBuilder, NodeEnv, Reducer, RunReport};
    pub use oam_model::{
        AbortReason, AbortStrategy, AdaptivePolicy, AdmissionConfig, Backend, CallMode, CostModel,
        Dur, EnvOverlay, ExecPolicy, MachineConfig, NodeId, NodeTable, QueuePolicy, ShardTuning,
        Time,
    };
    pub use oam_rpc::{
        define_rpc_service, CallError, CallHandle, CallOpts, Rpc, RpcCtx, RpcMode, StreamClosed,
        StreamHandle, StreamTx, Wire,
    };
    pub use oam_threads::{CondVar, Flag, JoinHandle, Mutex, Node};
}
