//! # oam-rpc
//!
//! The RPC system of the paper (§3): a "stub compiler"
//! ([`define_rpc_service!`]) that generates client stubs, server dispatch,
//! and marshaling from a service definition, able to emit both **ORPC**
//! (remote procedures run as Optimistic Active Messages) and **TRPC**
//! (a thread per call) variants; plus the runtime that carries calls:
//! correlation slots, reply/NACK handlers, short-vs-bulk transport
//! selection, and NACK back-off.

#![warn(missing_docs)]

pub mod macros;
pub mod runtime;
pub mod wire;

pub use runtime::{
    handler_id_for, CallError, CallHandle, CallOpts, Rpc, RpcCtx, RpcMode, StreamClosed,
    StreamHandle, StreamTx, CANCEL_ID, NACK_ID, ONEWAY_SENTINEL, REPLY_ID, SESSION_CHUNK_ID,
    SESSION_CHUNK_METHOD,
};
pub use wire::{
    from_bytes, to_bytes, to_payload, RawTail, Wire, WireError, WireReader, WireWriter,
};

// Re-exports the generated stubs refer to via `$crate::`.
pub use oam_am::HandlerId;
pub use oam_core::{CallBody, CallEngine, MethodSite, OamCall, Priority};
pub use oam_model::NodeId;
pub use oam_net::{BufPool, PayloadBuf, PayloadView};
pub use oam_threads::Node;
