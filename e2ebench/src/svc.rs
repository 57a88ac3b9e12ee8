//! The null-call service shared by `rpc_pingpong` and `native_rpc`.

use std::cell::Cell;
use std::rc::Rc;

use oam_machine::Machine;
use oam_model::NodeId;
use oam_rpc::{define_rpc_service, RpcMode};

use crate::trace::{Kind, Tracer};

/// Per-node server state: the calls served, and the span sink of a traced
/// round (`None` costs one null check per call).
pub struct PingState {
    /// Null calls served.
    pub counter: Cell<u64>,
    /// Span sink of a traced round.
    pub tracer: Option<Tracer>,
}

define_rpc_service! {
    /// Null calls and a counter read.
    service Ping {
        state PingState;

        /// The null call: count it and return the count. Calls arrive in
        /// issue order from one client, so the count is also the request
        /// id the client gave the call.
        rpc null(ctx, st) -> u64 {
            let start = st.tracer.as_ref().map(|t| t.stamp(ctx.node()));
            let v = st.counter.get() + 1;
            st.counter.set(v);
            if let (Some(t), Some(start)) = (&st.tracer, start) {
                t.record(Kind::Handler, v, Some(Kind::Call.id(v)), start, t.stamp(ctx.node()));
            }
            v
        }

        /// Read the count (not itself counted).
        rpc count(ctx, st) -> u64 {
            let _ = ctx;
            st.counter.get()
        }
    }
}

/// Register the service on every node of `machine`; returns the states.
pub fn register(machine: &Machine, tracer: &Option<Tracer>) -> Vec<Rc<PingState>> {
    machine
        .nodes()
        .iter()
        .map(|node| {
            let st = Rc::new(PingState { counter: Cell::new(0), tracer: tracer.clone() });
            Ping::register_all(machine.rpc(), node.id(), Rc::clone(&st), RpcMode::Orpc);
            st
        })
        .collect()
}

/// The server of both null-call workloads.
pub const SERVER: NodeId = NodeId(1);
