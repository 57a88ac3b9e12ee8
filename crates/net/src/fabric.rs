//! The simulated data network.
//!
//! Models the communication substrate the paper's system runs on:
//!
//! * per-node NI **output FIFO** (finite): full ⇒ a send would block, which
//!   is one of the three OAM abort conditions;
//! * per-node NI **input FIFO** (finite): messages wait here until the node
//!   polls — CM-5 polling semantics, no interrupts;
//! * **fabric buffering** per directed link, enforced by credit-based flow
//!   control (deep on the CM-5, shallow on Alewife-like configurations): a
//!   sender holds `fabric_capacity` credits per destination, and once they
//!   are spent its output FIFO stalls and back pressure propagates to the
//!   application;
//! * per-node **link serialization** in each direction (`packet_gap` models
//!   bandwidth), shared between short packets and bulk transfers;
//! * a **bulk engine** (the CM-5 `scopy` block-transfer primitive): occupies
//!   both endpoints' links for `bytes × scopy_per_byte` and delivers a
//!   completion record to the receiver.
//!
//! Every effect one node has on another travels as an event dated at least
//! one `wire_latency` later and keyed from the acting node's counter, so a
//! fabric instance that executes only some nodes (one shard of a sharded
//! run, one thread of a native run) behaves exactly like one that executes
//! them all.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use oam_model::{Dur, FaultPlan, MachineConfig, NodeId, NodeStats, NodeTable, Time, TraceKind};
use oam_sim::{Prng, Sim};

use crate::backend::{EpochPort, FabricPort};
use crate::packet::{CrossPayload, Packet, PacketKind, PayloadBuf};
use crate::pool::BufPool;

/// A cross-shard network record — the only fabric data that crosses shard
/// threads in a sharded run. Everything here is plain `Send` data; payloads
/// travel in their [`CrossPayload`] boundary form and are rewrapped into
/// pooled buffers on the receiving shard.
///
/// The `key` was allocated from the acting node's counter on its own shard
/// ([`Sim::alloc_key_for`]), so inserting the record under it on the
/// receiving shard reproduces the exact global event order a single-shard
/// run would have used.
#[derive(Clone)]
pub enum CrossNet {
    /// A short packet entering the destination's fabric queue at `ready`.
    Short {
        /// Partition-independent event key (source node's counter).
        key: u64,
        /// Fabric arrival time (`pump time + wire latency`).
        ready: Time,
        /// Sender.
        src: NodeId,
        /// Destination.
        dst: NodeId,
        /// Handler tag.
        tag: u32,
        /// Payload in boundary form.
        payload: CrossPayload,
        /// Credits `dst` regains for its link to `src`, riding along.
        credits: u32,
    },
    /// A bulk transfer reaching the destination at `arrive` (`send_start +
    /// wire latency`); the receiver-side link reservation happens there.
    Bulk {
        /// Partition-independent event key (source node's counter).
        key: u64,
        /// When the transfer front reaches the destination.
        arrive: Time,
        /// Receiver link occupation (`bytes × scopy_per_byte`).
        dur: Dur,
        /// Sender.
        src: NodeId,
        /// Destination.
        dst: NodeId,
        /// Completion tag.
        tag: u32,
        /// Payload in boundary form.
        payload: CrossPayload,
    },
    /// Fabric credits for the link `to → from`, returned by `from` once it
    /// has moved that many of `to`'s packets into its input FIFO.
    Credit {
        /// Partition-independent event key (returning node's counter).
        key: u64,
        /// When the credits reach the sender (`delivery + wire latency`).
        at: Time,
        /// The sender regaining credits.
        to: NodeId,
        /// The destination returning them.
        from: NodeId,
        /// Number of credits.
        credits: u32,
    },
}

impl CrossNet {
    /// The node whose shard must integrate this record.
    pub fn dst(&self) -> NodeId {
        match self {
            CrossNet::Short { dst, .. } | CrossNet::Bulk { dst, .. } => *dst,
            CrossNet::Credit { to, .. } => *to,
        }
    }
}

/// Why an injection was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectError {
    /// The node's NI output FIFO is full; the sender must poll/drain and
    /// retry (or, in an optimistic handler, abort).
    OutputFull,
}

type ArrivalHook = Rc<dyn Fn(&Sim)>;

/// Observer for injected faults: `(node the event is attributed to, event)`.
/// Installed by the machine layer to forward fabric faults into the trace.
type FaultHook = Rc<dyn Fn(NodeId, TraceKind)>;

struct NodeNet {
    /// `(earliest launch, packet)`: a packet may not pump before its
    /// sender's accrued-but-unsettled costs have elapsed.
    out_fifo: VecDeque<(Time, Packet)>,
    in_fifo: VecDeque<Packet>,
    /// Bulk completions; a separate, unbounded queue (on the CM-5 a
    /// completed scopy is discovered in memory, not in the NI FIFO).
    completions: VecDeque<Packet>,
    /// Traffic on the wire to this node, sorted by `(arrival, key)`. Each
    /// entry has an ingress event under the same time and key, which takes
    /// the front entry; staging here keeps that event's capture small.
    staged: VecDeque<(Time, u64, Arrival)>,
    /// Bulk transfers occupying the inbound link, in completion order.
    receiving: VecDeque<Packet>,
    /// Packets that reached this node's fabric buffer and wait for the
    /// input FIFO, in arrival order.
    pending: VecDeque<Packet>,
    /// Sender side: credits spent per destination and not yet returned.
    /// Sized on first send.
    credits_used: Vec<u32>,
    /// Receiver side: packets delivered per source whose credits have not
    /// been returned yet. Sized on first delivery.
    credits_owed: Vec<u32>,
    out_link_free: Time,
    in_link_free: Time,
    pump_scheduled: bool,
    delivery_scheduled: bool,
    arrival_hook: Option<ArrivalHook>,
    /// One-shot callbacks fired when the output FIFO frees a slot.
    space_waiters: Vec<SpaceWaiter>,
}

/// One-shot callback run when an output FIFO frees a slot.
type SpaceWaiter = Box<dyn FnOnce(&Sim)>;

/// What reaches a node's fabric ingress.
enum Arrival {
    /// A short packet, bound for the input FIFO, and the credits it
    /// carries back for the receiver's link to the packet's sender.
    Short(Packet, u32),
    /// The front of a bulk transfer: its completion record, and how long
    /// the transfer occupies the inbound link.
    Bulk(Packet, Dur),
}

impl NodeNet {
    fn new() -> Self {
        NodeNet {
            out_fifo: VecDeque::new(),
            in_fifo: VecDeque::new(),
            completions: VecDeque::new(),
            staged: VecDeque::new(),
            receiving: VecDeque::new(),
            pending: VecDeque::new(),
            credits_used: Vec::new(),
            credits_owed: Vec::new(),
            out_link_free: Time::ZERO,
            in_link_free: Time::ZERO,
            pump_scheduled: false,
            delivery_scheduled: false,
            arrival_hook: None,
            space_waiters: Vec::new(),
        }
    }
}

/// Add `by` to `counts[i]`, sizing an unused table to `nodes` entries first.
fn bump(counts: &mut Vec<u32>, nodes: usize, i: usize, by: u32) -> u32 {
    if counts.is_empty() {
        counts.resize(nodes, 0);
    }
    counts[i] += by;
    counts[i]
}

/// Draw one packet's faults from `rng`: the number of copies entering the
/// fabric (0 dropped, 1, or 2 duplicated), the extra delay, and the trace
/// events to report.
fn draw_faults(
    plan: &FaultPlan,
    mut rng: Prng,
    pkt: &Packet,
    now: Time,
) -> (u32, Dur, Vec<TraceKind>) {
    let (tag, dst) = (pkt.tag, pkt.dst);
    let (drop_p, mut extra) = plan.link_faults(pkt.src, dst, now);
    if drop_p > 0.0 && rng.gen_bool(drop_p) {
        return (0, extra, vec![TraceKind::PacketDropped { tag, dst }]);
    }
    let mut events = Vec::new();
    let mut copies = 1;
    if plan.dup_prob > 0.0 && rng.gen_bool(plan.dup_prob) {
        copies = 2;
        events.push(TraceKind::PacketDuplicated { tag, dst });
    }
    if plan.delay_prob > 0.0 && rng.gen_bool(plan.delay_prob) {
        extra += Dur::from_nanos(rng.gen_inclusive(0, plan.delay_max.as_nanos()));
    }
    if extra > Dur::ZERO {
        events.push(TraceKind::PacketDelayed { tag, dst, by: extra });
    }
    (copies, extra, events)
}

struct NetInner {
    /// Held by value: the timing and capacity fields are read on every
    /// packet, and an inline copy keeps each read one load.
    cfg: MachineConfig,
    /// Fabric state of the nodes this instance executes; its range is the
    /// ownership test for every destination.
    nodes: NodeTable<NodeNet>,
    stats: NodeTable<Rc<RefCell<NodeStats>>>,
    fault_hook: Option<FaultHook>,
    /// Outbound edge for records bound for nodes of other shards: an epoch
    /// outbox (sim backend) or an immediate channel route (native backend).
    port: Rc<dyn FabricPort>,
}

/// Handle to the simulated network. Cheap to clone.
#[derive(Clone)]
pub struct Network {
    sim: Sim,
    inner: Rc<RefCell<NetInner>>,
    /// One payload-buffer pool per owned node, for marshaling sends
    /// without fresh heap allocations (see [`BufPool`]). Kept outside the
    /// `RefCell` so leases never contend with fabric state borrows.
    pools: Rc<NodeTable<BufPool>>,
}

impl Network {
    /// Build a network that executes every node. `stats` must hold one
    /// counter block per node.
    pub fn new(sim: &Sim, cfg: &MachineConfig, stats: Vec<Rc<RefCell<NodeStats>>>) -> Self {
        assert_eq!(stats.len(), cfg.nodes, "one NodeStats per node required");
        Network::new_backend(sim, cfg, stats.into(), Rc::new(EpochPort::new()))
    }

    /// Build the fabric instance of one partition: it executes the nodes
    /// `stats` covers and holds state for no other node, and `port` decides
    /// what happens to records bound for the others — an [`EpochPort`]
    /// batches them until the barrier (sim backend), a
    /// [`crate::backend::ChannelPort`] routes them immediately (native
    /// backend).
    pub fn new_backend(
        sim: &Sim,
        cfg: &MachineConfig,
        stats: NodeTable<Rc<RefCell<NodeStats>>>,
        port: Rc<dyn FabricPort>,
    ) -> Self {
        let owned = stats.owned();
        assert!(owned.end <= cfg.nodes, "owned nodes lie inside the machine");
        let nodes = NodeTable::new(owned.clone(), |_| NodeNet::new());
        let stall_ends: Vec<(NodeId, Time)> = cfg
            .fault_plan
            .as_ref()
            .map(|p| p.stalls.iter().map(|s| (s.node, s.until)).collect())
            .unwrap_or_default();
        let pools = Rc::new(NodeTable::new(owned, |_| BufPool::new()));
        let net = Network {
            sim: sim.clone(),
            inner: Rc::new(RefCell::new(NetInner {
                cfg: cfg.clone(),
                nodes,
                stats,
                fault_hook: None,
                port,
            })),
            pools,
        };
        // A stalled node may have gone idle with packets already waiting in
        // its input FIFO; wake it the moment each stall window closes.
        for (node, until) in stall_ends {
            if !net.owns(node.index()) {
                continue;
            }
            let n = net.clone();
            sim.schedule_at_for(until, node.index() as u32, move |sim| {
                let hook = n.inner.borrow().nodes[node.index()].arrival_hook.clone();
                if let Some(h) = hook {
                    h(sim);
                }
            });
        }
        net
    }

    /// Drain the records bound for other shards into a caller-owned
    /// buffer, preserving its capacity across epochs; called at each
    /// barrier. The caller routes each record to `owners[record.dst()]`.
    pub fn drain_cross_into(&self, out: &mut Vec<CrossNet>) {
        let port = Rc::clone(&self.inner.borrow().port);
        port.drain_into(out);
    }

    /// Integrate records received from other shards: each is inserted as
    /// an event under its pre-allocated key, reproducing the order a
    /// single-shard run would have executed it in. Runs on the receiving
    /// shard's thread, between the exchange and agree barrier phases.
    /// Drains `records`, leaving the caller's capacity for reuse.
    pub fn apply_cross(&self, records: &mut Vec<CrossNet>) {
        for rec in records.drain(..) {
            match rec {
                CrossNet::Short { key, ready, src, dst, tag, payload, credits } => {
                    let payload = payload.into_payload(Some(&self.pools[dst.index()]));
                    let pkt = Packet::short(src, dst, tag, payload);
                    self.stage(ready, key, Arrival::Short(pkt, credits));
                }
                CrossNet::Bulk { key, arrive, dur, src, dst, tag, payload } => {
                    let payload = payload.into_payload(Some(&self.pools[dst.index()]));
                    let done = Packet::bulk_done(src, dst, tag, payload);
                    self.stage(arrive, key, Arrival::Bulk(done, dur));
                }
                CrossNet::Credit { key, at, to, from, credits } => {
                    self.schedule_credit(at, key, to.index() as u32, from.index() as u32, credits);
                }
            }
        }
    }

    /// Install the observer invoked for every injected fault (drop,
    /// duplication, delay). At most one; the machine layer forwards these
    /// into the per-node trace stream.
    pub fn set_fault_hook(&self, hook: impl Fn(NodeId, TraceKind) + 'static) {
        self.inner.borrow_mut().fault_hook = Some(Rc::new(hook));
    }

    /// The simulation this network is attached to.
    pub fn sim(&self) -> &Sim {
        &self.sim
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.inner.borrow().cfg.nodes
    }

    /// `node`'s payload-buffer pool: lease marshaling buffers here so their
    /// storage is recycled once the message is consumed.
    pub fn pool(&self, node: NodeId) -> &BufPool {
        &self.pools[node.index()]
    }

    /// Register the callback invoked whenever a packet (or bulk completion)
    /// becomes available for `node`. The node scheduler uses this to leave
    /// idle state; it must tolerate spurious calls. Every call is the last
    /// act of its event, so the hook may move the clock forward.
    pub fn set_arrival_hook(&self, node: NodeId, hook: impl Fn(&Sim) + 'static) {
        self.inner.borrow_mut().nodes[node.index()].arrival_hook = Some(Rc::new(hook));
    }

    /// Does `node`'s output FIFO have room for another packet?
    pub fn output_has_space(&self, node: NodeId) -> bool {
        let inner = self.inner.borrow();
        inner.nodes[node.index()].out_fifo.len() < inner.cfg.ni_out_capacity
    }

    /// Packets waiting in `node`'s input FIFO plus pending bulk completions.
    pub fn input_depth(&self, node: NodeId) -> usize {
        let inner = self.inner.borrow();
        let n = &inner.nodes[node.index()];
        n.in_fifo.len() + n.completions.len()
    }

    /// Register a one-shot callback invoked the next time `node`'s output
    /// FIFO frees a slot (used by blocked senders to retry).
    pub fn on_output_space(&self, node: NodeId, f: impl FnOnce(&Sim) + 'static) {
        self.inner.borrow_mut().nodes[node.index()].space_waiters.push(Box::new(f));
    }

    /// Inject a short packet into the sender's output FIFO.
    pub fn try_inject(&self, pkt: Packet) -> Result<(), InjectError> {
        self.try_inject_after(pkt, Dur::ZERO)
    }

    /// Inject a short packet that may not leave the node before `delay`
    /// has elapsed. Senders pass their accrued-but-unsettled virtual-time
    /// charge so the send instruction is correctly ordered *after* the
    /// costs that logically precede it.
    pub fn try_inject_after(&self, pkt: Packet, delay: Dur) -> Result<(), InjectError> {
        debug_assert_eq!(pkt.kind, PacketKind::Short);
        let src = pkt.src.index();
        {
            let mut inner = self.inner.borrow_mut();
            assert!(pkt.dst.index() < inner.cfg.nodes, "destination out of range");
            if inner.nodes[src].out_fifo.len() >= inner.cfg.ni_out_capacity {
                inner.stats[src].borrow_mut().send_backpressure_events += 1;
                return Err(InjectError::OutputFull);
            }
            {
                let mut st = inner.stats[src].borrow_mut();
                st.messages_sent += 1;
                st.bytes_sent += pkt.payload.len() as u64;
            }
            let launch = self.sim.now() + delay;
            inner.nodes[src].out_fifo.push_back((launch, pkt));
        }
        self.ensure_pump(src);
        Ok(())
    }

    /// Remove and return the next available packet for `node` (bulk
    /// completions take priority, then the input FIFO in delivery order).
    /// The caller charges poll costs.
    pub fn poll(&self, node: NodeId) -> Option<Packet> {
        let (pkt, freed_fifo_space) = {
            let mut inner = self.inner.borrow_mut();
            if let Some(plan) = &inner.cfg.fault_plan {
                // A stalled node's poll instruction finds nothing: arrived
                // packets sit in the FIFOs until the window closes (the
                // network schedules a wake at each window's end).
                if plan.stalled(node, self.sim.now()) {
                    return None;
                }
            }
            let n = &mut inner.nodes[node.index()];
            if let Some(c) = n.completions.pop_front() {
                (Some(c), false)
            } else if let Some(p) = n.in_fifo.pop_front() {
                (Some(p), true)
            } else {
                (None, false)
            }
        };
        if freed_fifo_space {
            self.ensure_delivery(node.index());
        }
        pkt
    }

    /// Start a bulk (scopy) transfer of `payload` from `src` to `dst`. The
    /// transfer occupies both endpoints' links; on completion a
    /// [`PacketKind::BulkDone`] record tagged `tag` becomes pollable at
    /// `dst` and `dst`'s arrival hook runs.
    ///
    /// Setup costs (`scopy_setup_send/recv`) are charged by the layers
    /// above, which know whose virtual time to charge.
    pub fn start_bulk(&self, src: NodeId, dst: NodeId, tag: u32, payload: impl Into<PayloadBuf>) {
        self.start_bulk_after(src, dst, tag, payload, Dur::ZERO)
    }

    /// As [`Network::start_bulk`], but the transfer may not start before
    /// `delay` has elapsed (the sender's unsettled costs).
    pub fn start_bulk_after(
        &self,
        src: NodeId,
        dst: NodeId,
        tag: u32,
        payload: impl Into<PayloadBuf>,
        delay: Dur,
    ) {
        let payload = payload.into();
        let (arrive, dur) = {
            let mut inner = self.inner.borrow_mut();
            let now = self.sim.now() + delay;
            let dur = inner.cfg.cost.scopy_per_byte.times(payload.len() as u64);
            // The transfer is packetized with fabric buffering in between:
            // the sender's link and the receiver's link are occupied for
            // the transfer duration *independently* (coupling them would
            // chain unrelated transfers across the machine into convoys).
            // Only the sender's link is reserved here; the receiver's is
            // reserved by the ingress event when the front arrives.
            let send_start = now.max(inner.nodes[src.index()].out_link_free);
            inner.nodes[src.index()].out_link_free = send_start + dur;
            {
                let mut st = inner.stats[src.index()].borrow_mut();
                st.bulk_transfers_sent += 1;
                st.bytes_sent += payload.len() as u64;
            }
            (send_start + inner.cfg.cost.wire_latency, dur)
        };
        let key = self.sim.alloc_key_for(src.index() as u32);
        if self.owns(dst.index()) {
            self.stage(arrive, key, Arrival::Bulk(Packet::bulk_done(src, dst, tag, payload), dur));
        } else {
            let payload = payload.to_cross(Some(&self.pools[src.index()]));
            self.port_send(CrossNet::Bulk { key, arrive, dur, src, dst, tag, payload });
        }
    }

    /// Total packets currently buffered anywhere in this instance's part
    /// of the network (output FIFOs, wire, fabric, input FIFOs, completion
    /// queues). Zero means drained.
    pub fn in_flight(&self) -> usize {
        let inner = self.inner.borrow();
        inner
            .nodes
            .iter()
            .map(|n| {
                n.out_fifo.len()
                    + n.staged.len()
                    + n.receiving.len()
                    + n.pending.len()
                    + n.in_fifo.len()
                    + n.completions.len()
            })
            .sum()
    }

    // ---- internal machinery ----

    /// Arrange for `src`'s output pump to run once its link is free and
    /// the head packet's launch time has arrived.
    fn ensure_pump(&self, src: usize) {
        let at = {
            let mut inner = self.inner.borrow_mut();
            let n = &mut inner.nodes[src];
            if n.pump_scheduled {
                return;
            }
            let head_launch = match n.out_fifo.front() {
                None => return,
                Some((launch, _)) => *launch,
            };
            n.pump_scheduled = true;
            n.out_link_free.max(head_launch).max(self.sim.now())
        };
        let net = self.clone();
        self.sim.schedule_at_for(at, src as u32, move |_| net.pump(src));
    }

    /// Move the head of `src`'s output FIFO onto the wire, if `src` holds a
    /// credit for its destination. A pump that finds no credit leaves the
    /// packet queued; the credit return re-arms the pump.
    ///
    /// Fault injection happens here, at the NI → fabric hand-off: the
    /// packet has left the sender (link time is spent, stats counted) and
    /// whatever the plan decides is what the fabric delivers. Each copy
    /// that enters the fabric spends one credit, and one copy carries back
    /// every credit `src` owes `dst`, so two-way traffic needs no separate
    /// credit returns.
    fn pump(&self, src: usize) {
        let mut inner = self.inner.borrow_mut();
        let now = self.sim.now();
        let cap = inner.cfg.fabric_capacity as u32;
        let gap = inner.cfg.cost.packet_gap;
        let n = &mut inner.nodes[src];
        n.pump_scheduled = false;
        let Some((launch, dst)) = n.out_fifo.front().map(|(l, p)| (*l, p.dst.index())) else {
            return;
        };
        let ready_at = n.out_link_free.max(launch);
        if ready_at > now {
            // A bulk transfer grabbed the link after this pump was
            // scheduled, or the head packet's launch time is still ahead;
            // try again then.
            n.pump_scheduled = true;
            drop(inner);
            let net = self.clone();
            self.sim.schedule_at_for(ready_at, src as u32, move |_| net.pump(src));
            return;
        }
        if n.credits_used.get(dst).copied().unwrap_or(0) >= cap {
            return;
        }
        let (_, pkt) = n.out_fifo.pop_front().expect("checked non-empty");
        n.out_link_free = now + gap;
        let waiters = std::mem::take(&mut n.space_waiters);
        let key = self.sim.alloc_key_for(src as u32);
        let (copies, extra, faults) = match &inner.cfg.fault_plan {
            None => (1, Dur::ZERO, Vec::new()),
            Some(plan) => {
                let drawn = draw_faults(plan, Prng::for_key(inner.cfg.seed, key), &pkt, now);
                let mut st = inner.stats[src].borrow_mut();
                match drawn.0 {
                    0 => st.packets_dropped += 1,
                    2 => st.packets_duplicated += 1,
                    _ => {}
                }
                if drawn.0 > 0 && drawn.1 > Dur::ZERO {
                    st.packets_delayed += 1;
                }
                drawn
            }
        };
        let nodes = inner.cfg.nodes;
        let n = &mut inner.nodes[src];
        bump(&mut n.credits_used, nodes, dst, copies);
        let refund = match n.credits_owed.get_mut(dst) {
            Some(owed) if copies > 0 => std::mem::take(owed),
            _ => 0,
        };
        let ready = now + inner.cfg.cost.wire_latency + extra;
        let local = inner.nodes.owned().contains(&dst);
        let hook = if faults.is_empty() { None } else { inner.fault_hook.clone() };
        drop(inner);
        if let Some(hook) = hook {
            for ev in faults {
                hook(NodeId(src), ev);
            }
        }
        if copies == 2 {
            let dup_key = self.sim.alloc_key_for(src as u32);
            self.send_short(local, ready, dup_key, pkt.clone(), 0);
        }
        if copies > 0 {
            self.send_short(local, ready, key, pkt, refund);
        }
        self.ensure_pump(src); // more queued output?
        for w in waiters {
            w(&self.sim);
        }
    }

    /// Send a pumped packet, carrying `credits`, to its destination's
    /// ingress at `ready`: staged here when this instance executes the
    /// destination (`local`), else handed to the port.
    fn send_short(&self, local: bool, ready: Time, key: u64, pkt: Packet, credits: u32) {
        if local {
            self.stage(ready, key, Arrival::Short(pkt, credits));
        } else {
            let payload = pkt.payload.to_cross(Some(&self.pools[pkt.src.index()]));
            let (src, dst, tag) = (pkt.src, pkt.dst, pkt.tag);
            self.port_send(CrossNet::Short { key, ready, src, dst, tag, payload, credits });
        }
    }

    /// Stage `arrival` at its (owned) destination and schedule its ingress
    /// event under `key` at `at`.
    fn stage(&self, at: Time, key: u64, arrival: Arrival) {
        let (Arrival::Short(pkt, _) | Arrival::Bulk(pkt, _)) = &arrival;
        let dst = pkt.dst.index();
        {
            let mut inner = self.inner.borrow_mut();
            let staged = &mut inner.nodes[dst].staged;
            if staged.back().is_none_or(|&(t, k, _)| (t, k) < (at, key)) {
                staged.push_back((at, key, arrival));
            } else {
                let i = staged.partition_point(|&(t, k, _)| (t, k) < (at, key));
                staged.insert(i, (at, key, arrival));
            }
        }
        let net = self.clone();
        self.sim.schedule_at_raw(at, key, dst as u32, move |_| net.ingress(dst));
    }

    /// Hand a record for a non-owned node to the backend port, with no
    /// internals borrowed (a native port re-enters nothing here, but an
    /// immediate route must be free to run arbitrary code).
    fn port_send(&self, rec: CrossNet) {
        let port = Rc::clone(&self.inner.borrow().port);
        port.send(rec);
    }

    /// Does this fabric instance execute `node`? The pools cover exactly
    /// the owned nodes and, outside the `RefCell`, need no borrow.
    fn owns(&self, node: usize) -> bool {
        self.pools.owned().contains(&node)
    }

    /// The earliest staged arrival reaches `dst` now.
    ///
    /// A short packet enters the fabric buffer; it goes straight into the
    /// input FIFO when nothing is queued ahead of it and the FIFO and
    /// inbound link are free, sparing a delivery event. A bulk transfer
    /// reserves the inbound link and completes once it has streamed in,
    /// in an event keyed from the destination's counter.
    fn ingress(&self, dst: usize) {
        let mut inner = self.inner.borrow_mut();
        let now = self.sim.now();
        let cap_in = inner.cfg.ni_in_capacity;
        let n = &mut inner.nodes[dst];
        let (at, _, arrival) =
            n.staged.pop_front().expect("ingress event without a staged arrival");
        // Equal in the simulator; a native record can arrive after its
        // date, and its event is then clamped to now.
        debug_assert!(at <= now, "staged arrivals leave in (time, key) order");
        match arrival {
            Arrival::Short(pkt, credits) => {
                let src = pkt.src.index() as u32;
                let inline = !n.delivery_scheduled
                    && n.pending.is_empty()
                    && n.in_fifo.len() < cap_in
                    && n.in_link_free <= now;
                if inline {
                    drop(inner);
                    // Credits first: admitting runs the arrival hook, which
                    // must be this event's last act (it may move the clock).
                    if credits > 0 {
                        self.credit(dst as u32, src, credits);
                    }
                    self.admit(dst, pkt);
                } else {
                    n.pending.push_back(pkt);
                    drop(inner);
                    self.ensure_delivery(dst);
                    if credits > 0 {
                        self.credit(dst as u32, src, credits);
                    }
                }
            }
            Arrival::Bulk(done, dur) => {
                let recv_end = now.max(n.in_link_free) + dur;
                n.in_link_free = recv_end;
                n.receiving.push_back(done);
                drop(inner);
                let net = self.clone();
                self.sim.schedule_at_for(recv_end, dst as u32, move |sim| net.bulk_done(dst, sim));
            }
        }
    }

    /// The oldest bulk transfer into `dst` has streamed in: its completion
    /// becomes pollable.
    fn bulk_done(&self, dst: usize, sim: &Sim) {
        let hook = {
            let mut inner = self.inner.borrow_mut();
            let n = &mut inner.nodes[dst];
            let done = n.receiving.pop_front().expect("completion without a transfer");
            n.completions.push_back(done);
            n.arrival_hook.clone()
        };
        if let Some(h) = hook {
            h(sim);
        }
    }

    /// Arrange delivery of the next fabric packet into `dst`'s input FIFO.
    fn ensure_delivery(&self, dst: usize) {
        let at = {
            let mut inner = self.inner.borrow_mut();
            let cap_in = inner.cfg.ni_in_capacity;
            let n = &mut inner.nodes[dst];
            if n.delivery_scheduled || n.pending.is_empty() || n.in_fifo.len() >= cap_in {
                return;
            }
            n.delivery_scheduled = true;
            n.in_link_free.max(self.sim.now())
        };
        let net = self.clone();
        self.sim.schedule_at_for(at, dst as u32, move |_| net.deliver(dst));
    }

    /// Move one fabric packet into `dst`'s input FIFO.
    fn deliver(&self, dst: usize) {
        let pkt = {
            let mut inner = self.inner.borrow_mut();
            let now = self.sim.now();
            let cap_in = inner.cfg.ni_in_capacity;
            let n = &mut inner.nodes[dst];
            n.delivery_scheduled = false;
            if n.in_fifo.len() >= cap_in || n.pending.is_empty() {
                // FIFO filled (or queue emptied) since scheduling; poll()
                // will restart delivery when space frees.
                return;
            }
            if n.in_link_free > now {
                // A bulk transfer claimed the inbound link meanwhile.
                drop(inner);
                self.ensure_delivery(dst);
                return;
            }
            n.pending.pop_front().expect("checked non-empty")
        };
        self.admit(dst, pkt);
    }

    /// Put `pkt` into `dst`'s input FIFO (the caller checked room and a
    /// free inbound link), count the credit it frees, and wake the node.
    ///
    /// Owed credits ride back on `dst`'s next packet to the sender (see
    /// [`Network::pump`]); once half the fabric capacity is owed they go
    /// back on their own, one wire latency later, so one-way traffic on a
    /// deep fabric costs one return per many packets and every return
    /// respects the lookahead.
    fn admit(&self, dst: usize, pkt: Packet) {
        let (hook, refund) = {
            let mut inner = self.inner.borrow_mut();
            let now = self.sim.now();
            let gap = inner.cfg.cost.packet_gap;
            let nodes = inner.cfg.nodes;
            let batch = (inner.cfg.fabric_capacity as u32).div_ceil(2);
            let src = pkt.src.index();
            let n = &mut inner.nodes[dst];
            n.in_link_free = now + gap;
            n.in_fifo.push_back(pkt);
            let owed = bump(&mut n.credits_owed, nodes, src, 1);
            let refund = (owed >= batch).then(|| {
                n.credits_owed[src] = 0;
                (src, owed)
            });
            (n.arrival_hook.clone(), refund)
        };
        if let Some((src, credits)) = refund {
            let at = self.sim.now() + self.inner.borrow().cfg.cost.wire_latency;
            let key = self.sim.alloc_key_for(dst as u32);
            if self.owns(src) {
                self.schedule_credit(at, key, src as u32, dst as u32, credits);
            } else {
                let (to, from) = (NodeId(src), NodeId(dst));
                self.port_send(CrossNet::Credit { key, at, to, from, credits });
            }
        }
        self.ensure_delivery(dst);
        if let Some(h) = hook {
            h(&self.sim);
        }
    }

    /// Schedule the arrival of `credits` for the link `to → from` at `to`.
    fn schedule_credit(&self, at: Time, key: u64, to: u32, from: u32, credits: u32) {
        let net = self.clone();
        self.sim.schedule_at_raw(at, key, to, move |_| net.credit(to, from, credits));
    }

    /// Credits for the link `src → dst` arrive at `src`; a pump stalled on
    /// that link may go again.
    fn credit(&self, src: u32, dst: u32, credits: u32) {
        let (src, dst) = (src as usize, dst as usize);
        let stalled = {
            let mut inner = self.inner.borrow_mut();
            let n = &mut inner.nodes[src];
            n.credits_used[dst] -= credits;
            n.out_fifo.front().is_some_and(|(_, p)| p.dst.index() == dst)
        };
        if stalled {
            self.ensure_pump(src);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    fn mk(nodes: usize, cfg_mut: impl FnOnce(&mut MachineConfig)) -> (Sim, Network) {
        let sim = Sim::new(7);
        let mut cfg = MachineConfig::cm5(nodes);
        cfg_mut(&mut cfg);
        let stats = (0..nodes).map(|_| Rc::new(RefCell::new(NodeStats::new()))).collect();
        let net = Network::new(&sim, &cfg, stats);
        (sim, net)
    }

    #[test]
    fn packet_arrives_after_wire_latency() {
        let (sim, net) = mk(2, |_| {});
        let arrived = Rc::new(Cell::new(Time::MAX));
        let a = arrived.clone();
        net.set_arrival_hook(NodeId(1), move |sim| a.set(sim.now()));
        net.try_inject(Packet::short(NodeId(0), NodeId(1), 1, vec![1, 2, 3])).unwrap();
        sim.run();
        // Pump at t=0, wire latency 2.7 µs.
        assert_eq!(arrived.get(), Time::from_nanos(2_700));
        let got = net.poll(NodeId(1)).expect("delivered");
        assert_eq!(got.payload, vec![1, 2, 3]);
        assert_eq!(net.in_flight(), 0);
    }

    #[test]
    fn per_destination_order_is_fifo() {
        let (sim, net) = mk(2, |_| {});
        for i in 0..4u32 {
            net.try_inject(Packet::short(NodeId(0), NodeId(1), i, vec![i as u8])).unwrap();
        }
        sim.run();
        let tags: Vec<u32> = std::iter::from_fn(|| net.poll(NodeId(1))).map(|p| p.tag).collect();
        assert_eq!(tags, vec![0, 1, 2, 3]);
    }

    #[test]
    fn output_fifo_backpressure_reports_full() {
        // Tiny FIFOs and a receiver that never polls: injection must
        // eventually fail with OutputFull and count a backpressure event.
        let (sim, net) = mk(2, |c| {
            c.ni_out_capacity = 2;
            c.ni_in_capacity = 1;
            c.fabric_capacity = 1;
        });
        let mut accepted = 0;
        let mut rejected = 0;
        for i in 0..16u32 {
            match net.try_inject(Packet::short(NodeId(0), NodeId(1), i, vec![])) {
                Ok(()) => accepted += 1,
                Err(InjectError::OutputFull) => rejected += 1,
            }
        }
        assert_eq!(accepted, 2, "only the FIFO capacity is accepted before the pump runs");
        assert_eq!(rejected, 14);
        sim.run();
        // in FIFO (1) + fabric (1) drained two packets; output FIFO empties.
        assert!(net.output_has_space(NodeId(0)));
        assert_eq!(net.in_flight(), 2);
    }

    #[test]
    fn draining_receiver_releases_stalled_sender() {
        let (sim, net) = mk(2, |c| {
            c.ni_out_capacity = 1;
            c.ni_in_capacity = 1;
            c.fabric_capacity = 1;
        });
        // Fill the pipeline: 1 in-FIFO + 1 fabric + 1 output.
        net.try_inject(Packet::short(NodeId(0), NodeId(1), 0, vec![])).unwrap();
        sim.run();
        net.try_inject(Packet::short(NodeId(0), NodeId(1), 1, vec![])).unwrap();
        sim.run();
        net.try_inject(Packet::short(NodeId(0), NodeId(1), 2, vec![])).unwrap();
        sim.run();
        assert!(!net.output_has_space(NodeId(0)), "pipeline saturated");
        // Receiver drains; each poll frees space that pulls the pipeline
        // forward once the simulation runs the resulting events.
        let mut tags = Vec::new();
        while let Some(p) = net.poll(NodeId(1)) {
            tags.push(p.tag);
            sim.run();
        }
        assert_eq!(tags, vec![0, 1, 2]);
        assert!(net.output_has_space(NodeId(0)));
    }

    #[test]
    fn spent_credits_stall_the_sender_until_the_return_lands() {
        // One credit per link: the second packet may leave only once the
        // first one's credit is back — delivery + one wire latency.
        let (sim, net) = mk(2, |c| {
            c.ni_out_capacity = 1;
            c.fabric_capacity = 1;
        });
        let wire = MachineConfig::cm5(2).cost.wire_latency;
        let arrivals: Rc<RefCell<Vec<Time>>> = Rc::default();
        let a = arrivals.clone();
        net.set_arrival_hook(NodeId(1), move |sim| a.borrow_mut().push(sim.now()));
        net.try_inject(Packet::short(NodeId(0), NodeId(1), 0, vec![])).unwrap();
        let n2 = net.clone();
        // Queued behind the first packet's credit; the 1-deep output FIFO
        // stays full while the sender is stalled.
        sim.schedule_at(Time::ZERO + wire, move |_| {
            n2.try_inject(Packet::short(NodeId(0), NodeId(1), 1, vec![])).unwrap();
        });
        let credit_at = Time::ZERO + wire + wire;
        let probes: Rc<RefCell<Vec<bool>>> = Rc::default();
        for at in [credit_at - Dur::from_nanos(1), credit_at + Dur::from_nanos(1)] {
            let (n, p) = (net.clone(), probes.clone());
            sim.schedule_at(at, move |_| p.borrow_mut().push(n.output_has_space(NodeId(0))));
        }
        sim.run();
        assert_eq!(*probes.borrow(), vec![false, true], "stalled until the credit lands");
        assert_eq!(*arrivals.borrow(), vec![Time::ZERO + wire, credit_at + wire]);
        assert_eq!(std::iter::from_fn(|| net.poll(NodeId(1))).count(), 2);
    }

    #[test]
    fn bulk_transfer_time_scales_with_bytes() {
        let (sim, net) = mk(2, |_| {});
        let done_at = Rc::new(Cell::new(Time::MAX));
        let d = done_at.clone();
        net.set_arrival_hook(NodeId(1), move |sim| d.set(sim.now()));
        // 640 bytes at 100 ns/B = 64 µs + 2.7 µs wire.
        net.start_bulk(NodeId(0), NodeId(1), 9, vec![0u8; 640]);
        sim.run();
        assert_eq!(done_at.get(), Time::from_nanos(64_000 + 2_700));
        let p = net.poll(NodeId(1)).expect("completion pollable");
        assert_eq!(p.kind, PacketKind::BulkDone);
        assert_eq!(p.len(), 640);
    }

    #[test]
    fn bulk_occupies_links_delaying_short_packets() {
        let (sim, net) = mk(2, |_| {});
        let arrived = Rc::new(Cell::new(Time::MAX));
        let a = arrived.clone();
        net.set_arrival_hook(NodeId(1), move |sim| {
            if a.get() == Time::MAX {
                a.set(sim.now());
            }
        });
        net.start_bulk(NodeId(0), NodeId(1), 9, vec![0u8; 1000]);
        net.try_inject(Packet::short(NodeId(0), NodeId(1), 1, vec![])).unwrap();
        sim.run();
        // Short packet cannot pump until the 100 µs bulk finishes.
        assert!(arrived.get() >= Time::from_nanos(100_000));
    }

    #[test]
    fn concurrent_pairs_do_not_interfere() {
        let (sim, net) = mk(4, |_| {});
        let t1 = Rc::new(Cell::new(Time::MAX));
        let t2 = Rc::new(Cell::new(Time::MAX));
        let (a, b) = (t1.clone(), t2.clone());
        net.set_arrival_hook(NodeId(1), move |sim| a.set(sim.now()));
        net.set_arrival_hook(NodeId(3), move |sim| b.set(sim.now()));
        net.try_inject(Packet::short(NodeId(0), NodeId(1), 1, vec![])).unwrap();
        net.try_inject(Packet::short(NodeId(2), NodeId(3), 2, vec![])).unwrap();
        sim.run();
        assert_eq!(t1.get(), t2.get(), "disjoint pairs see identical latency");
    }

    #[test]
    fn drop_all_plan_loses_every_packet() {
        let (sim, net) = mk(2, |c| c.fault_plan = Some(FaultPlan::drop_only(1.0)));
        let dropped_events = Rc::new(Cell::new(0usize));
        let d = dropped_events.clone();
        net.set_fault_hook(move |src, kind| {
            assert_eq!(src, NodeId(0), "drop attributed to the sender");
            assert!(matches!(kind, TraceKind::PacketDropped { .. }));
            d.set(d.get() + 1);
        });
        for i in 0..5u32 {
            net.try_inject(Packet::short(NodeId(0), NodeId(1), i, vec![])).unwrap();
            sim.run();
        }
        assert!(net.poll(NodeId(1)).is_none(), "nothing survives p=1 loss");
        assert_eq!(net.in_flight(), 0);
        assert_eq!(dropped_events.get(), 5);
        let st = net.inner.borrow().stats[0].clone();
        assert_eq!(st.borrow().packets_dropped, 5);
        assert_eq!(st.borrow().messages_sent, 5, "sends are counted before the fabric eats them");
    }

    #[test]
    fn duplication_delivers_two_copies() {
        let (sim, net) = mk(2, |c| {
            c.fault_plan = Some(FaultPlan::default().with_dup(1.0));
        });
        net.try_inject(Packet::short(NodeId(0), NodeId(1), 7, vec![9])).unwrap();
        sim.run();
        let tags: Vec<u32> = std::iter::from_fn(|| {
            let p = net.poll(NodeId(1));
            sim.run(); // let the second delivery event fire
            p
        })
        .map(|p| p.tag)
        .collect();
        assert_eq!(tags, vec![7, 7], "both copies arrive");
        let st = net.inner.borrow().stats[0].clone();
        assert_eq!(st.borrow().packets_duplicated, 1);
    }

    #[test]
    fn delay_postpones_arrival_beyond_wire_latency() {
        let max = Dur::from_micros(40);
        let (sim, net) = mk(2, |c| {
            c.fault_plan = Some(FaultPlan::default().with_delay(1.0, max));
        });
        let arrived = Rc::new(Cell::new(Time::MAX));
        let a = arrived.clone();
        net.set_arrival_hook(NodeId(1), move |sim| a.set(sim.now()));
        net.try_inject(Packet::short(NodeId(0), NodeId(1), 1, vec![])).unwrap();
        sim.run();
        let wire = Time::from_nanos(2_700);
        assert!(arrived.get() >= wire, "never earlier than the wire");
        assert!(arrived.get() <= wire + max, "delay bounded by delay_max");
        let st = net.inner.borrow().stats[0].clone();
        assert_eq!(st.borrow().packets_delayed, 1);
    }

    #[test]
    fn degradation_window_only_bites_inside_its_interval() {
        let window = oam_model::LinkDegradation {
            src: Some(NodeId(0)),
            dst: None,
            from: Time::from_nanos(100_000),
            until: Time::from_nanos(200_000),
            drop_prob: 1.0,
            extra_delay: Dur::ZERO,
        };
        let (sim, net) = mk(2, |c| {
            c.fault_plan = Some(FaultPlan::default().with_degradation(window));
        });
        // Before the window: survives.
        net.try_inject(Packet::short(NodeId(0), NodeId(1), 0, vec![])).unwrap();
        sim.run();
        assert!(net.poll(NodeId(1)).is_some());
        // Inside the window: certain loss.
        let n2 = net.clone();
        sim.schedule_at(Time::from_nanos(150_000), move |_| {
            n2.try_inject(Packet::short(NodeId(0), NodeId(1), 1, vec![])).unwrap();
        });
        sim.run();
        assert!(net.poll(NodeId(1)).is_none());
        // After the window: survives again.
        let n3 = net.clone();
        sim.schedule_at(Time::from_nanos(250_000), move |_| {
            n3.try_inject(Packet::short(NodeId(0), NodeId(1), 2, vec![])).unwrap();
        });
        sim.run();
        assert_eq!(net.poll(NodeId(1)).map(|p| p.tag), Some(2));
    }

    #[test]
    fn stalled_node_polls_nothing_until_the_window_closes() {
        let until = Time::from_nanos(50_000);
        let (sim, net) = mk(2, |c| {
            c.fault_plan = Some(FaultPlan::default().with_stall(NodeId(1), Time::ZERO, until));
        });
        let polled_in_window = Rc::new(Cell::new(false));
        let polled_after = Rc::new(Cell::new(false));
        net.try_inject(Packet::short(NodeId(0), NodeId(1), 3, vec![])).unwrap();
        let (n2, p2) = (net.clone(), polled_in_window.clone());
        sim.schedule_at(Time::from_nanos(10_000), move |_| {
            p2.set(n2.poll(NodeId(1)).is_some());
        });
        let (n3, p3) = (net.clone(), polled_after.clone());
        sim.schedule_at(until, move |_| {
            p3.set(n3.poll(NodeId(1)).is_some());
        });
        sim.run();
        assert!(!polled_in_window.get(), "stalled node's polls find nothing");
        assert!(polled_after.get(), "packet waited in the FIFO and is polled at window end");
    }

    #[test]
    fn identical_seeds_make_identical_fault_decisions() {
        fn run_once() -> (u64, u64, u64) {
            let sim = Sim::new(42);
            let mut cfg = MachineConfig::cm5(2);
            cfg.fault_plan =
                Some(FaultPlan::drop_only(0.3).with_dup(0.2).with_delay(0.2, Dur::from_micros(5)));
            let stats: Vec<Rc<RefCell<NodeStats>>> =
                (0..2).map(|_| Rc::new(RefCell::new(NodeStats::new()))).collect();
            let net = Network::new(&sim, &cfg, stats.clone());
            for i in 0..200u32 {
                net.try_inject(Packet::short(NodeId(0), NodeId(1), i, vec![])).unwrap();
                sim.run();
                while net.poll(NodeId(1)).is_some() {
                    sim.run();
                }
            }
            let st = stats[0].borrow();
            (st.packets_dropped, st.packets_duplicated, st.packets_delayed)
        }
        let a = run_once();
        assert_eq!(a, run_once(), "fault draws are a pure function of the seed");
        assert!(a.0 > 0 && a.1 > 0 && a.2 > 0, "all fault types exercised: {a:?}");
    }

    #[test]
    fn stats_count_sends_and_backpressure() {
        let (sim, net) = mk(2, |c| c.ni_out_capacity = 1);
        net.try_inject(Packet::short(NodeId(0), NodeId(1), 0, vec![1, 2])).unwrap();
        let _ = net.try_inject(Packet::short(NodeId(0), NodeId(1), 1, vec![]));
        sim.run();
        let st = net.inner.borrow().stats[0].clone();
        let st = st.borrow();
        assert_eq!(st.messages_sent, 1);
        assert_eq!(st.bytes_sent, 2);
        assert_eq!(st.send_backpressure_events, 1);
    }
}
