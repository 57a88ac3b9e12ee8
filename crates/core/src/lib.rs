//! # oam-core
//!
//! **Optimistic Active Messages** — the paper's primary contribution.
//!
//! The [`engine::CallEngine`] owns the server-side call lifecycle for every
//! registered remote procedure. Per its method's `ExecPolicy` a call either
//! runs inline in the message handler under the optimistic assumption that
//! it neither blocks nor runs long, verified at runtime — failed
//! assumptions *abort* the optimistic execution and fall back to a thread
//! (promotion of the partially-run continuation, re-execution from scratch,
//! or a NACK to the sender) — or is dispatched straight to a thread
//! (Traditional RPC), with optional adaptive switching between the two
//! driven by the observed abort rate. See [`engine`].

#![warn(missing_docs)]

pub mod engine;

pub use engine::{
    pack_deadline_word, peek_call_id, peek_deadline_us, peek_priority, unpack_deadline_word,
    CallBody, CallEngine, MethodSite, NackSender, OamCall, Priority, ReplyResender, ShedNackSender,
    DEADLINE_MASK, NO_DEADLINE, ONEWAY_SENTINEL, PRIORITY_SHIFT,
};
