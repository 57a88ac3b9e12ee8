//! # oam-model
//!
//! Shared vocabulary of the OAM reproduction: virtual time, the calibrated
//! CM-5 cost model, machine configuration, and the statistics counters from
//! which the paper's tables are built. This crate is pure data — it has no
//! dependencies and every other crate in the workspace builds on it.

#![warn(missing_docs)]

pub mod config;
pub mod cost;
pub mod fault;
pub mod host;
pub mod ids;
pub mod stats;
pub mod time;
pub mod trace;

pub use config::{
    AbortStrategy, AdaptivePolicy, AdmissionConfig, Backend, CallMode, ExecPolicy, MachineConfig,
    QueuePolicy, ReliabilityConfig, ShardTuning,
};
pub use cost::CostModel;
pub use fault::{FaultPlan, LinkDegradation, NodeStall};
pub use host::host_cores;
pub use ids::NodeId;
pub use stats::{
    AbortReason, EngineCounters, LatencyHistogram, MachineStats, MethodStats, NodeStats,
};
pub use time::{Dur, Time};
pub use trace::{TraceEvent, TraceKind, TraceObserver};
