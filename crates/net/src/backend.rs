//! Fabric backends: what happens to a packet the moment it leaves the
//! nodes a [`crate::Network`] instance executes.
//!
//! Every cross-boundary record is the same [`CrossNet`] boundary form; a
//! [`FabricPort`] decides *when* it moves. The discrete-event simulator
//! batches records until a conservative epoch barrier ([`EpochPort`]),
//! which keeps event order — and therefore every trace and golden —
//! bit-identical for any partition. The native host-threads runtime hands
//! each record to a routing function immediately ([`ChannelPort`]), which
//! pushes it onto the destination node's channel while the wall clock
//! keeps running. A third backend (say, TCP framing to another process)
//! would be one more implementation of this trait.

use crate::fabric::CrossNet;

/// Outbound edge of one fabric instance: receives every record whose
/// destination this instance does not execute.
pub trait FabricPort {
    /// Accept a record bound for a node owned by another instance. Called
    /// with no `Network` internals borrowed, so implementations may
    /// re-enter arbitrary routing code.
    fn send(&self, rec: CrossNet);

    /// Append the records batched since the last call to `out`, a
    /// caller-owned buffer the epoch hot loop reuses forever. Ports that
    /// forward records immediately have nothing to hand back.
    fn drain_into(&self, _out: &mut Vec<CrossNet>) {}

    /// Backend label, for diagnostics.
    fn name(&self) -> &'static str;
}

/// The simulator's port: records accumulate in an outbox and move only at
/// the epoch barrier, where the shard engine exchanges them
/// deterministically.
#[derive(Default)]
pub struct EpochPort {
    outbox: std::cell::RefCell<Vec<CrossNet>>,
}

impl EpochPort {
    /// An empty outbox.
    pub fn new() -> Self {
        Self::default()
    }
}

impl FabricPort for EpochPort {
    fn send(&self, rec: CrossNet) {
        self.outbox.borrow_mut().push(rec);
    }

    fn drain_into(&self, out: &mut Vec<CrossNet>) {
        // `append` empties the outbox in place, so both the outbox's and
        // the caller's capacities survive the epoch.
        out.append(&mut self.outbox.borrow_mut());
    }

    fn name(&self) -> &'static str {
        "sim-epoch"
    }
}

/// The native runtime's port: each record is routed the moment the pump
/// emits it. The routing function is supplied by the layer that owns the
/// actual channels (the machine crate wraps records into its per-node
/// channel message type there).
pub struct ChannelPort<F: Fn(CrossNet)> {
    route: F,
}

impl<F: Fn(CrossNet)> ChannelPort<F> {
    /// A port delivering every record through `route`.
    pub fn new(route: F) -> Self {
        ChannelPort { route }
    }
}

impl<F: Fn(CrossNet)> FabricPort for ChannelPort<F> {
    fn send(&self, rec: CrossNet) {
        (self.route)(rec);
    }

    fn name(&self) -> &'static str {
        "native-channel"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::CrossPayload;
    use oam_model::{NodeId, Time};
    use std::cell::Cell;
    use std::rc::Rc;

    fn rec(key: u64) -> CrossNet {
        CrossNet::Short {
            key,
            ready: Time::ZERO,
            src: NodeId(0),
            dst: NodeId(1),
            tag: 7,
            payload: CrossPayload::Heap(vec![1, 2, 3]),
            credits: 0,
        }
    }

    fn key_of(r: &CrossNet) -> u64 {
        match r {
            CrossNet::Short { key, .. }
            | CrossNet::Bulk { key, .. }
            | CrossNet::Credit { key, .. } => *key,
        }
    }

    #[test]
    fn epoch_port_batches_in_order_until_drained() {
        let port = EpochPort::new();
        port.send(rec(3));
        port.send(rec(1));
        port.send(rec(2));
        let mut out = vec![rec(9)];
        port.drain_into(&mut out);
        let got: Vec<u64> = out.iter().map(key_of).collect();
        assert_eq!(got, vec![9, 3, 1, 2], "appended in push order, not key order");
        out.clear();
        port.drain_into(&mut out);
        assert!(out.is_empty(), "drain takes the batch");
    }

    #[test]
    fn channel_port_forwards_immediately_and_drains_empty() {
        let seen = Rc::new(Cell::new(0u64));
        let s = Rc::clone(&seen);
        let port = ChannelPort::new(move |r: CrossNet| s.set(s.get() + key_of(&r)));
        port.send(rec(5));
        assert_eq!(seen.get(), 5, "record routed at send time");
        port.send(rec(7));
        assert_eq!(seen.get(), 12);
        let mut out = Vec::new();
        port.drain_into(&mut out);
        assert!(out.is_empty(), "nothing batched");
        assert_eq!(port.name(), "native-channel");
    }
}
