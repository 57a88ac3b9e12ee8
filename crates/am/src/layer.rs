//! The Active Message layer: dispatch, sending with drain semantics, and
//! the bridge between the network and the per-node schedulers.
//!
//! Dispatch model (CM-5 polling semantics, §2/§4 of the paper):
//!
//! * messages are only processed at poll points — the scheduler's idle
//!   loop, explicit application `poll()`s, and sends that hit a full NI;
//! * handlers execute on the current stack: inline handlers run
//!   synchronously in `AmInline` mode; custom entries (the OAM engine, the
//!   TRPC dispatcher) decide their own execution;
//! * a send that finds the NI output FIFO full *drains* the network
//!   (dispatching incoming messages) and retries; from handler context
//!   with `auto_drain_on_handler_send` (the CM-5 default) unsendable
//!   packets are staged and flushed as space frees.

use std::cell::{Cell, RefCell};
use std::collections::{HashMap, VecDeque};
use std::future::Future;
use std::hash::BuildHasherDefault;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll};

use oam_model::{AbortReason, MachineConfig, NodeId, NodeTable};
use oam_net::{BufPool, Network, Packet, PacketKind, PayloadBuf};
use oam_sim::SeqHasher;
use oam_threads::{Dispatcher, ExecMode, Flag, Node};

use crate::handler::{AmToken, HandlerEntry, HandlerId, PacketHandler};

/// Maximum nesting depth of inline handler dispatch on one node: handlers
/// that send drain the network, which can run further handlers.
const MAX_DISPATCH_DEPTH: usize = 8;

struct AmInner {
    net: Network,
    cfg: Rc<MachineConfig>,
    /// The node runtimes this layer serves: the replica's owned nodes.
    nodes: NodeTable<Node>,
    /// Per-node handler tables. Only the program inserts keys (packets
    /// merely look them up), so a multiplicative hash stands in for SipHash.
    registries: NodeTable<RefCell<HashMap<u32, HandlerEntry, BuildHasherDefault<SeqHasher>>>>,
    /// Per-node packets that could not be injected from handler context;
    /// flushed ahead of new sends to preserve FIFO order.
    staging: NodeTable<RefCell<VecDeque<Packet>>>,
    /// Per-node inline-dispatch nesting depth.
    depth: NodeTable<Cell<usize>>,
}

/// Handle to the Active Message layer. Cheap to clone.
#[derive(Clone)]
pub struct Am {
    inner: Rc<AmInner>,
}

struct AmDispatcher {
    am: Am,
}

impl Dispatcher for AmDispatcher {
    fn poll_once(&self, node: &Node) -> bool {
        self.am.dispatch_once(node)
    }
}

impl Am {
    /// Build the AM layer over `net` for the given node runtimes (the
    /// nodes this replica executes; a `Vec` holds nodes `0..len`), install
    /// the dispatcher on each node, and hook network arrivals to the node
    /// schedulers.
    pub fn new(net: Network, cfg: Rc<MachineConfig>, nodes: impl Into<NodeTable<Node>>) -> Self {
        let nodes = nodes.into();
        let owned = nodes.owned();
        let am = Am {
            inner: Rc::new(AmInner {
                net,
                cfg,
                nodes,
                registries: NodeTable::new(owned.clone(), |_| RefCell::new(HashMap::default())),
                staging: NodeTable::new(owned.clone(), |_| RefCell::new(VecDeque::new())),
                depth: NodeTable::new(owned, |_| Cell::new(0)),
            }),
        };
        for node in &am.inner.nodes {
            node.set_dispatcher(Rc::new(AmDispatcher { am: am.clone() }));
            let n = node.clone();
            // The fabric runs the hook as the last act of its event.
            am.inner.net.set_arrival_hook(node.id(), move |_| n.kick_tail());
        }
        am
    }

    /// Remove every node's dispatcher and drop every registered handler.
    ///
    /// Both hold handles back into this layer: a dispatcher holds the `Am`
    /// that holds its node, and handlers capture the `Am` or `Rpc` whose
    /// tables hold them. Those reference cycles never free on their own, so
    /// the machine calls this when it is dropped; the layer must not be
    /// used afterwards. The fabric's arrival and fault hooks hold nodes
    /// too, but a node reaches the fabric only through its dispatcher.
    pub fn detach(&self) {
        for node in &self.inner.nodes {
            node.clear_dispatcher();
        }
        for registry in &self.inner.registries {
            registry.borrow_mut().clear();
        }
    }

    /// The underlying network.
    pub fn network(&self) -> &Network {
        &self.inner.net
    }

    /// The node runtimes this layer serves, in id order.
    pub fn nodes(&self) -> &[Node] {
        self.inner.nodes.as_slice()
    }

    /// The ids of the nodes this layer serves.
    pub fn owned(&self) -> std::ops::Range<usize> {
        self.inner.nodes.owned()
    }

    /// Machine configuration.
    pub fn config(&self) -> &Rc<MachineConfig> {
        &self.inner.cfg
    }

    /// `node`'s payload-buffer pool (see [`BufPool`]): marshal bulk
    /// payloads into leased buffers so storage recycles per message.
    pub fn pool(&self, node: NodeId) -> &BufPool {
        self.inner.net.pool(node)
    }

    /// Register a handler on one node.
    ///
    /// # Panics
    /// Panics on a duplicate id for the node.
    pub fn register(&self, node: NodeId, id: HandlerId, entry: HandlerEntry) {
        let prev = self.inner.registries[node.index()].borrow_mut().insert(id.0, entry);
        assert!(prev.is_none(), "handler {id:?} registered twice on {node}");
    }

    /// Register the same inline handler on every node this layer serves
    /// (SPMD convenience).
    pub fn register_inline_all(&self, id: HandlerId, f: impl Fn(&AmToken) + 'static) {
        let f: Rc<dyn Fn(&AmToken)> = Rc::new(f);
        for i in self.owned() {
            self.register(NodeId(i), id, HandlerEntry::Inline(Rc::clone(&f)));
        }
    }

    /// Register the same custom handler on every node this layer serves.
    pub fn register_custom_all(&self, id: HandlerId, h: Rc<dyn PacketHandler>) {
        for i in self.owned() {
            self.register(NodeId(i), id, HandlerEntry::Custom(Rc::clone(&h)));
        }
    }

    /// Send a short active message. Await point: a full output FIFO makes
    /// the sender drain the network and retry; in a thread this can block
    /// (spin-polling) until space frees, and in an optimistic handler with
    /// auto-drain disabled it records a [`AbortReason::NetworkFull`] abort.
    pub fn send(
        &self,
        node: &Node,
        dst: NodeId,
        handler: HandlerId,
        payload: impl Into<PayloadBuf>,
    ) -> SendShort {
        SendShort {
            am: self.clone(),
            node: node.clone(),
            pkt: Some(Packet::short(node.id(), dst, handler.0, payload)),
            charged: false,
        }
    }

    /// Synchronous send from hand-coded handler context (see
    /// [`AmToken::reply`]).
    pub fn send_from_handler(
        &self,
        node: &Node,
        dst: NodeId,
        handler: HandlerId,
        payload: impl Into<PayloadBuf>,
    ) {
        node.add_pending(self.inner.cfg.cost.am_send);
        let pkt = Packet::short(node.id(), dst, handler.0, payload);
        let idx = node.id().index();
        if self.try_send_now(idx, pkt.clone(), node.pending_charge()) {
            return;
        }
        if self.inner.cfg.auto_drain_on_handler_send {
            self.inner.staging[idx].borrow_mut().push_back(pkt);
        } else {
            panic!(
                "AM handler on {} sent into a full network with auto-drain disabled — the program dies",
                node.id()
            );
        }
    }

    /// Start a bulk (scopy) transfer. Never blocks: the bulk engine has its
    /// own path to the receiver. Sender-side setup is charged here;
    /// receiver-side setup is charged when the completion is dispatched.
    pub fn send_bulk(
        &self,
        node: &Node,
        dst: NodeId,
        handler: HandlerId,
        payload: impl Into<PayloadBuf>,
    ) {
        node.add_pending(self.inner.cfg.cost.scopy_setup_send);
        self.inner.net.start_bulk_after(node.id(), dst, handler.0, payload, node.pending_charge());
    }

    /// Flush staged packets, then try to inject `pkt`. Returns success.
    /// Staging order is preserved: if anything remains staged the new
    /// packet must queue behind it. The packet launches only after the
    /// sender's accrued-but-unsettled costs (`delay`) have elapsed.
    fn try_send_now(&self, idx: usize, pkt: Packet, delay: oam_model::Dur) -> bool {
        self.flush_staging(idx);
        if !self.inner.staging[idx].borrow().is_empty() {
            return false;
        }
        self.inner.net.try_inject_after(pkt, delay).is_ok()
    }

    fn flush_staging(&self, idx: usize) {
        loop {
            let pkt = {
                let q = self.inner.staging[idx].borrow_mut();
                match q.front() {
                    None => return,
                    Some(p) => p.clone(),
                }
            };
            if self.inner.net.try_inject(pkt).is_ok() {
                self.inner.staging[idx].borrow_mut().pop_front();
            } else {
                // Retry when the FIFO frees a slot.
                let am = self.clone();
                self.inner.net.on_output_space(NodeId(idx), move |_| am.flush_staging(idx));
                return;
            }
        }
    }

    /// Poll the NI once and dispatch at most one message. Returns whether
    /// one was processed. This is both the scheduler's idle poll and the
    /// building block of drains and application `poll()`s.
    pub fn dispatch_once(&self, node: &Node) -> bool {
        let idx = node.id().index();
        self.flush_staging(idx);
        let pkt = match self.inner.net.poll(node.id()) {
            None => {
                node.add_pending(self.inner.cfg.cost.poll_empty);
                node.stats().borrow_mut().polls_empty += 1;
                return false;
            }
            Some(p) => p,
        };
        {
            let mut st = node.stats().borrow_mut();
            st.polls_nonempty += 1;
            st.messages_received += 1;
        }
        node.add_pending(self.inner.cfg.cost.poll_dispatch);
        if pkt.kind == PacketKind::BulkDone {
            node.add_pending(self.inner.cfg.cost.scopy_setup_recv);
        }
        node.emit(oam_model::TraceKind::Dispatched {
            tag: pkt.tag,
            src: pkt.src,
            bytes: pkt.payload.len(),
            bulk: pkt.kind == PacketKind::BulkDone,
        });
        let entry = self.inner.registries[idx]
            .borrow()
            .get(&pkt.tag)
            .unwrap_or_else(|| panic!("no handler {} registered on {}", pkt.tag, node.id()))
            .clone();
        self.inner.depth[idx].set(self.inner.depth[idx].get() + 1);
        match entry {
            HandlerEntry::Inline(f) => {
                let prev = node.set_mode(ExecMode::AmInline);
                f(&AmToken { am: self, node, pkt: &pkt });
                node.set_mode(prev);
            }
            HandlerEntry::Custom(h) => h.handle(self, node, pkt),
        }
        self.inner.depth[idx].set(self.inner.depth[idx].get() - 1);
        true
    }

    /// Current inline-dispatch nesting depth on a node.
    pub fn dispatch_depth(&self, node: NodeId) -> usize {
        self.inner.depth[node.index()].get()
    }

    /// May this node drain (dispatch) more deeply right now?
    fn can_drain(&self, idx: usize) -> bool {
        self.inner.depth[idx].get() < MAX_DISPATCH_DEPTH
    }
}

/// Future returned by [`Am::send`].
pub struct SendShort {
    am: Am,
    node: Node,
    pkt: Option<Packet>,
    charged: bool,
}

impl Future for SendShort {
    type Output = ();

    fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<()> {
        let this = self.get_mut();
        let pkt = match this.pkt.take() {
            None => return Poll::Ready(()),
            Some(p) => p,
        };
        if !this.charged {
            this.charged = true;
            this.node.add_pending(this.am.inner.cfg.cost.am_send);
        }
        let idx = this.node.id().index();
        loop {
            if this.am.try_send_now(idx, pkt.clone(), this.node.pending_charge()) {
                return Poll::Ready(());
            }
            match this.node.mode() {
                ExecMode::Thread => {
                    // Drain: process an incoming message and retry (the
                    // CM-5 send routine polls the network to avoid
                    // distributed deadlock).
                    if this.am.can_drain(idx) && this.am.dispatch_once(&this.node) {
                        continue;
                    }
                    // Nothing to drain: spin until the FIFO frees a slot.
                    let flag = Flag::new();
                    let f = flag.clone();
                    let waker = this.node.clone();
                    this.am.inner.net.on_output_space(this.node.id(), move |_| {
                        f.set();
                        waker.kick();
                    });
                    this.pkt = Some(pkt);
                    this.node.set_block_spin(flag);
                    return Poll::Pending;
                }
                ExecMode::Optimistic => {
                    if this.am.inner.cfg.auto_drain_on_handler_send {
                        // CM-5 semantics: stage and complete; the packet
                        // flushes as space frees.
                        this.am.inner.staging[idx].borrow_mut().push_back(pkt);
                        return Poll::Ready(());
                    }
                    // The abort condition the paper lists: the handler
                    // needs to send while the network is busy.
                    this.pkt = Some(pkt);
                    this.node.set_abort_cause(AbortReason::NetworkFull);
                    return Poll::Pending;
                }
                ExecMode::AmInline => {
                    unreachable!("inline handlers use send_from_handler, not the async send")
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oam_model::NodeStats;
    use oam_sim::Sim;

    pub(crate) fn build(
        nprocs: usize,
        cfg: MachineConfig,
    ) -> (Sim, Am, Vec<Rc<RefCell<NodeStats>>>) {
        let sim = Sim::new(3);
        let cfg = Rc::new(cfg);
        let stats: Vec<Rc<RefCell<NodeStats>>> =
            (0..nprocs).map(|_| Rc::new(RefCell::new(NodeStats::new()))).collect();
        let net = Network::new(&sim, &cfg, stats.clone());
        let nodes: Vec<Node> = (0..nprocs)
            .map(|i| Node::new(&sim, NodeId(i), nprocs, Rc::clone(&cfg), Rc::clone(&stats[i])))
            .collect();
        let am = Am::new(net, cfg, nodes);
        (sim, am, stats)
    }

    #[test]
    fn inline_handler_round_trip() {
        let (sim, am, stats) = build(2, MachineConfig::cm5(2));
        const PING: HandlerId = HandlerId(1);
        const PONG: HandlerId = HandlerId(2);
        let got = Rc::new(Cell::new(0u32));
        let g = got.clone();
        let am2 = am.clone();
        am.register_inline_all(PING, move |t| {
            let v = t.arg_u32(0);
            t.reply(t.src(), PONG, crate::handler::pack_u32(&[v + 1]));
        });
        am.register_inline_all(PONG, move |t| {
            g.set(t.arg_u32(0));
        });
        let node0 = am.nodes()[0].clone();
        let n0 = node0.clone();
        node0.spawn(async move {
            am2.send(&n0, NodeId(1), PING, crate::handler::pack_u32(&[41])).await;
        });
        sim.run();
        assert_eq!(got.get(), 42);
        assert_eq!(stats[0].borrow().messages_sent, 1);
        assert_eq!(stats[1].borrow().messages_sent, 1);
        assert_eq!(stats[0].borrow().messages_received, 1);
        assert_eq!(stats[1].borrow().messages_received, 1);
    }

    #[test]
    fn unknown_handler_panics() {
        let (sim, am, _) = build(2, MachineConfig::cm5(2));
        let node0 = am.nodes()[0].clone();
        let am2 = am.clone();
        let n0 = node0.clone();
        node0.spawn(async move {
            am2.send(&n0, NodeId(1), HandlerId(99), vec![]).await;
        });
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sim.run()));
        assert!(r.is_err());
    }

    #[test]
    fn bulk_transfer_dispatches_with_receiver_setup_charge() {
        let (sim, am, _) = build(2, MachineConfig::cm5(2));
        const SINK: HandlerId = HandlerId(5);
        let got = Rc::new(Cell::new(0usize));
        let g = got.clone();
        let when = Rc::new(Cell::new(0.0f64));
        let w = when.clone();
        am.register_inline_all(SINK, move |t| {
            g.set(t.payload().len());
            w.set(t.node().now().as_micros_f64());
        });
        let node0 = am.nodes()[0].clone();
        let am2 = am.clone();
        let n0 = node0.clone();
        node0.spawn(async move {
            am2.send_bulk(&n0, NodeId(1), SINK, vec![7u8; 640]);
        });
        sim.run();
        assert_eq!(got.get(), 640);
        // 640 B × 0.1 µs/B = 64 µs + wire 2.7; receiver dispatch happens
        // after that (plus its own setup/dispatch settling).
        assert!(when.get() >= 66.7, "dispatched at {}", when.get());
    }

    #[test]
    fn handler_sends_into_full_network_are_staged_and_flushed() {
        let mut cfg = MachineConfig::cm5(3);
        cfg.ni_out_capacity = 1;
        let (sim, am, stats) = build(3, cfg);
        const FAN: HandlerId = HandlerId(1);
        const SINK: HandlerId = HandlerId(2);
        let received = Rc::new(Cell::new(0u32));
        let r = received.clone();
        // Node 1's handler fans out 8 messages to node 2; with a 1-deep
        // output FIFO most must be staged.
        am.register_inline_all(FAN, move |t| {
            for i in 0..8 {
                t.reply(NodeId(2), SINK, crate::handler::pack_u32(&[i]));
            }
        });
        am.register_inline_all(SINK, move |_| r.set(r.get() + 1));
        let node0 = am.nodes()[0].clone();
        let am2 = am.clone();
        let n0 = node0.clone();
        node0.spawn(async move {
            am2.send(&n0, NodeId(1), FAN, vec![]).await;
        });
        sim.run();
        assert_eq!(received.get(), 8);
        assert_eq!(stats[1].borrow().messages_sent, 8, "all staged packets eventually injected");
    }

    #[test]
    fn thread_send_blocks_until_space_frees_then_completes() {
        let mut cfg = MachineConfig::cm5(2);
        cfg.ni_out_capacity = 1;
        cfg.fabric_capacity = 1;
        cfg.ni_in_capacity = 1;
        let (sim, am, stats) = build(2, cfg);
        const SINK: HandlerId = HandlerId(9);
        let count = Rc::new(Cell::new(0u32));
        let c = count.clone();
        am.register_inline_all(SINK, move |t| {
            c.set(c.get() + 1);
            t.charge(oam_model::Dur::from_micros(5));
        });
        let node0 = am.nodes()[0].clone();
        let am2 = am.clone();
        let n0 = node0.clone();
        node0.spawn(async move {
            for i in 0..10u32 {
                am2.send(&n0, NodeId(1), SINK, crate::handler::pack_u32(&[i])).await;
            }
        });
        sim.run();
        assert_eq!(count.get(), 10, "every send eventually lands");
        assert!(stats[0].borrow().send_backpressure_events > 0, "backpressure was exercised");
    }

    #[test]
    fn empty_poll_counts_and_charges() {
        let (sim, am, stats) = build(1, MachineConfig::cm5(1));
        let node0 = am.nodes()[0].clone();
        let n0 = node0.clone();
        node0.spawn(async move {
            n0.poll_batch().await;
        });
        sim.run();
        // One empty poll from the explicit poll() batch, one from the
        // scheduler's idle-entry poll after the thread exits.
        assert_eq!(stats[0].borrow().polls_empty, 2);
        assert_eq!(stats[0].borrow().polls_nonempty, 0);
    }
}
