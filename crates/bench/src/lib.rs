//! # oam-bench
//!
//! The paper's evaluation (§4) and its ablations, regenerated by one
//! binary, `paper`, which prints the paper's rows next to the measured
//! ones and writes every row as JSON; and `perfsuite`, the simulator's
//! performance rows. `bench_check` gates both files against their
//! committed baselines.

#![warn(missing_docs)]

pub mod micro;
pub mod report;

pub use micro::{
    micro_rpc, null_rpc_roundtrip, payload_rpc_roundtrip, MicroOutcome, MicroParams, ServerLoad,
};
