//! # oam-machine
//!
//! The simulated multicomputer, assembled: [`MachineBuilder`] wires the
//! discrete-event simulation, network, per-node thread schedulers, Active
//! Message layer, RPC runtime, and control-network collectives together;
//! [`Machine::run`] executes an SPMD node main to completion and harvests
//! the statistics the paper's tables are built from.

#![warn(missing_docs)]

pub mod collective;
pub mod machine;
pub mod native_run;
pub mod openloop;
pub mod shard_run;
pub mod watchdog;

pub use collective::{Collectives, Reducer};
pub use machine::{Machine, MachineBuilder, NodeEnv, RunReport};
pub use native_run::{run_native, try_run_native, NativeMsg};
pub use openloop::{arrivals_for, pace_until, Arrival, CallClass, OpenLoopConfig, OpenLoopTracker};
pub use shard_run::{run_partitioned, CrossMsg, ShardApp};
pub use watchdog::{HangKind, HangReport, NodeHangInfo};
