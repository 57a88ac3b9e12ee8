//! # oam-bench
//!
//! The paper's evaluation (§4), its ablations and the simulator's
//! performance rows, regenerated by one binary, `paper`, which prints the
//! paper's rows next to the measured ones and writes every row as JSON.
//! `bench_check` gates that file against the committed `PAPER_rows.json`.

#![warn(missing_docs)]

pub mod micro;
pub mod report;

pub use micro::{
    micro_rpc, null_rpc_roundtrip, payload_rpc_roundtrip, MicroOutcome, MicroParams, ServerLoad,
};
