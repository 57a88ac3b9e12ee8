//! An overload-hardened open-loop service: the robustness counterpart to
//! the paper's closed-loop application benchmarks.
//!
//! A handful of server nodes export a striped key-value service (cheap
//! ORPC-able `get`/`put`, plus a blocking `scan` that holds a stripe lock
//! for far longer than the optimistic handler budget). The remaining
//! nodes are open-loop drivers standing in for millions of independent
//! clients: seeded Poisson arrivals with bursts, Zipf-skewed hot keys,
//! and a fixed cheap/heavy mix that keeps arriving no matter how the
//! servers are doing (see [`oam_machine::openloop`]).
//!
//! Every request carries a deadline, and the machine runs with admission
//! control: servers shed work beyond their pending-call budget with
//! NACKs carrying retry-after hints, drop requests that arrive past their
//! deadline, and (in the adaptive variant) demote hot methods from ORPC
//! to TRPC when the pending queue says the node is overloaded. The
//! experiment compares goodput and tail latency (p50/p99/p999) across
//! ORPC, TRPC, and adaptive dispatch, with and without admission
//! control, at 0.5×/1×/2× of saturation.

pub mod run;

pub use run::{
    run, ServiceOutcome, ServiceParams, ServiceVariant, KV_KEYS, PENDING_BUDGET, SCAN_ID,
};
