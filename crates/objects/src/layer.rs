//! The shared-object runtime.
//!
//! Placement strategies, as in Orca's CM-5 port (the paper, §1/§5 \[13\]):
//!
//! * [`Placement::Single`] — the object lives on one node; every
//!   operation ships there as an RPC (an Optimistic Active Message in
//!   ORPC mode: simple method calls execute in the message handler).
//! * [`Placement::Replicated`] — every node holds a replica; **read
//!   operations run locally with no communication**, and write
//!   operations ship to the object's *manager*, which applies them and
//!   broadcasts the update. The single sequencer plus per-source FIFO
//!   delivery yields a total order on writes, so replicas converge.
//!
//! Consistency: writes are linearized at the manager. A writer's own
//! replica is updated by the broadcast, not synchronously — so
//! read-your-write requires either reading through the manager or a
//! synchronization point (barrier), as in update-protocol Orca.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use oam_model::{Dur, NodeId, NodeTable};
use oam_rpc::{define_rpc_service, from_bytes, to_bytes, RawTail, Rpc, RpcMode, Wire};
use oam_threads::Node;

use crate::class::{op_id, ErasedClass, ObjectClass, OpId, Replica};

/// Identifies a shared object machine-wide.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ObjId(pub u32);

/// Where an object's state lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// One copy, on `owner`; all operations ship there.
    Single {
        /// The owning node.
        owner: NodeId,
    },
    /// A replica on every node; reads are local, writes sequence through
    /// `manager`.
    Replicated {
        /// The sequencing node for writes.
        manager: NodeId,
    },
}

/// Virtual-time cost of applying an operation to object state.
pub const APPLY_COST: Dur = Dur::from_nanos(1_000);

/// Server-side state for the generated [`ObjectsSvc`] stubs: a handle
/// back to the layer itself.
pub struct ObjectsState {
    objs: Objects,
}

define_rpc_service! {
    /// The object layer's transport, generated by the stub compiler like
    /// any user service — so object invocations flow through the same
    /// policy-driven `CallEngine` dispatch path as plain RPCs. Arguments
    /// travel as `[obj: u32][op: u32][arg bytes...]`: [`RawTail`] appends
    /// the pre-marshaled argument raw (no length framing) so a small
    /// method call fits the CM-5's argument words and travels as a short
    /// active message.
    service ObjectsSvc {
        state ObjectsState;

        /// Apply an operation at the owner/manager; replies the
        /// pre-marshaled result bytes.
        rpc invoke(ctx, st, obj: u32, op: u32, arg: RawTail) -> RawTail {
            let node = ctx.node().clone();
            node.charge(APPLY_COST).await;
            RawTail(st.objs.apply_at_home(&node, ObjId(obj), OpId(op), &arg.0).await)
        }

        /// Apply a sequenced write at a replica. Always
        /// optimistic-friendly (it cannot block), registered in the same
        /// mode as `invoke` for comparability.
        oneway update(ctx, st, obj: u32, op: u32, arg: RawTail) {
            let node = ctx.node().clone();
            node.charge(APPLY_COST).await;
            st.objs.apply_local_write(&node, ObjId(obj), OpId(op), &arg.0);
        }
    }
}

struct ObjEntry {
    replica: Option<Replica>,
    placement: Placement,
    class: Rc<ErasedClass>,
}

struct ObjectsInner {
    rpc: Rpc,
    /// Per node this replica executes: object table.
    tables: NodeTable<RefCell<HashMap<u32, ObjEntry>>>,
}

/// The shared-object layer. Create once per machine, then [`Objects::create`]
/// objects before running node mains.
#[derive(Clone)]
pub struct Objects {
    inner: Rc<ObjectsInner>,
}

impl Objects {
    /// Build the layer over an RPC runtime, registering its handlers on
    /// every node in the given stub mode (ORPC = method calls run as
    /// Optimistic Active Messages).
    pub fn new(rpc: &Rpc, mode: RpcMode) -> Self {
        let objects = Objects {
            inner: Rc::new(ObjectsInner {
                rpc: rpc.clone(),
                tables: NodeTable::new(rpc.am().owned(), |_| RefCell::new(HashMap::new())),
            }),
        };
        // The layer's transport is an ordinary generated service: the
        // stubs marshal, the CallEngine dispatches per policy.
        let st = Rc::new(ObjectsState { objs: objects.clone() });
        for node in rpc.nodes() {
            ObjectsSvc::register_all(rpc, node.id(), Rc::clone(&st), mode);
        }
        objects
    }

    /// Create an object. Must be called before node mains run (setup
    /// time). `Single` placement instantiates state on the owner only;
    /// `Replicated` on every node.
    pub fn create<S: 'static>(
        &self,
        id: ObjId,
        placement: Placement,
        class: ObjectClass<S>,
        init: impl Fn() -> S,
    ) {
        let class = Rc::new(class.erase());
        for (i, table) in self.inner.tables.owned().zip(&self.inner.tables) {
            let holds_state = match placement {
                Placement::Single { owner } => owner.index() == i,
                Placement::Replicated { .. } => true,
            };
            let replica = holds_state.then(|| Replica::new(init()));
            let prev = table
                .borrow_mut()
                .insert(id.0, ObjEntry { replica, placement, class: Rc::clone(&class) });
            assert!(prev.is_none(), "object {id:?} created twice");
        }
    }

    /// Invoke operation `op` on object `id` from `node`. Reads on local
    /// replicas complete without communication; everything else ships to
    /// the object's home node.
    pub async fn invoke<A: Wire, R: Wire>(&self, node: &Node, id: ObjId, op: &str, arg: A) -> R {
        let op = op_id(op);
        let me = node.id().index();
        let (home, is_write, local_replica) = {
            let table = self.inner.tables[me].borrow();
            let e = table.get(&id.0).unwrap_or_else(|| panic!("unknown object {id:?}"));
            let home = match e.placement {
                Placement::Single { owner } => owner,
                Placement::Replicated { manager } => manager,
            };
            (home, e.class.is_write(op), e.replica.is_some())
        };
        if !is_write && local_replica {
            // Orca's payoff: local read, zero messages.
            node.charge(APPLY_COST).await;
            let table = self.inner.tables[me].borrow();
            let e = &table[&id.0];
            let rep = e.replica.as_ref().expect("checked present");
            let out = e.class.apply_read(&*rep.state, op, &to_bytes(&arg));
            return from_bytes(&out).expect("read result decode");
        }
        if home.index() == me {
            node.charge(APPLY_COST).await;
            let out = self.apply_at_home(node, id, op, &to_bytes(&arg)).await;
            return from_bytes(&out).expect("local result decode");
        }
        let reply = ObjectsSvc::invoke::call(
            &self.inner.rpc,
            node,
            home,
            id.0,
            op.0,
            RawTail(to_bytes(&arg)),
        )
        .await
        .expect("reply decode");
        from_bytes(&reply.0).expect("invoke result decode")
    }

    /// Apply an operation at the object's home node (owner or manager);
    /// for replicated writes, broadcast the update to the other replicas.
    async fn apply_at_home(&self, node: &Node, id: ObjId, op: OpId, arg: &[u8]) -> Vec<u8> {
        let me = node.id().index();
        let (result, broadcast) = {
            let table = self.inner.tables[me].borrow();
            let e = table.get(&id.0).unwrap_or_else(|| panic!("object {id:?} missing at home"));
            let rep = e.replica.as_ref().expect("home node holds state");
            if e.class.is_write(op) {
                let result = e.class.apply_write(&*rep.state, op, arg);
                let broadcast = matches!(e.placement, Placement::Replicated { .. });
                (result, broadcast)
            } else {
                (e.class.apply_read(&*rep.state, op, arg), false)
            }
        };
        if broadcast {
            // Sequenced write-update: per-source FIFO from the single
            // manager gives every replica the same order. Routed through
            // the RPC transport so large arguments use bulk transfers.
            for other in 0..node.nprocs() {
                if other != me {
                    ObjectsSvc::update::send(
                        &self.inner.rpc,
                        node,
                        NodeId(other),
                        id.0,
                        op.0,
                        RawTail(arg.to_vec()),
                    )
                    .await;
                }
            }
        }
        result
    }

    fn apply_local_write(&self, node: &Node, id: ObjId, op: OpId, arg: &[u8]) {
        let me = node.id().index();
        let table = self.inner.tables[me].borrow();
        let e = table.get(&id.0).unwrap_or_else(|| panic!("object {id:?} missing at replica"));
        let rep = e.replica.as_ref().expect("replica holds state");
        let _ = e.class.apply_write(&*rep.state, op, arg);
    }

    /// Peek at a replica's state from outside the simulation (tests,
    /// reports). Returns `None` when the node holds no state for the
    /// object.
    pub fn peek<S: 'static, R>(
        &self,
        node: NodeId,
        id: ObjId,
        f: impl FnOnce(&S) -> R,
    ) -> Option<R> {
        let state: Rc<dyn std::any::Any> = {
            let table = self.inner.tables[node.index()].borrow();
            let e = table.get(&id.0)?;
            Rc::clone(&e.replica.as_ref()?.state)
        };
        let cell = state.downcast_ref::<RefCell<S>>().expect("peek type mismatch");
        let out = f(&cell.borrow());
        Some(out)
    }
}
