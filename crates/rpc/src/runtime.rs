//! The RPC runtime: call correlation, reply/NACK plumbing, request
//! transport selection (short AM vs. bulk transfer), handler registration
//! in ORPC or TRPC mode, and — when the machine is configured for it —
//! end-to-end reliability over a lossy fabric.
//!
//! Request payload: `[call_id: u32][args...]`, with a deadline word after
//! the call id on machines with admission control. A `call_id` of
//! [`ONEWAY_SENTINEL`] marks an asynchronous RPC (no reply). Replies and
//! NACKs are delivered to two reserved inline handlers that complete the
//! caller's spin-wait. Payloads whose *data* exceeds the machine's bulk
//! threshold (16 bytes on the CM-5) travel through the scopy engine, as the
//! paper's generated stubs do (§3.2).
//!
//! # The server side
//!
//! A generated server stub is a [`CallBody`] the [`CallEngine`] runs:
//! [`Rpc::accept_request`] decodes the request and charges its unmarshal
//! cost, the method body runs, and [`Rpc::reply`] marshals the result and
//! caches it in the call's frame when duplicate suppression is on.
//! Everything else about a server-side call is the engine's: the inline
//! attempt, abort resolution, the frame per call, and the protocol frames
//! no handler body sends — the NACK for a shed or aborted call (with the
//! retry-after hint under admission) and the cached reply to a duplicate
//! ([`NACK_ID`], [`REPLY_ID`]).
//!
//! # The caller side
//!
//! Every call form is a thin shell over one in-flight record and one
//! attempt loop, like the paper's single client stub (marshal, send,
//! spin-wait). `Rpc::begin` charges the caller overhead and issues the
//! first attempt; `Pending::settle` waits for the attempt's outcome,
//! integrates a reply, or backs off after a NACK and re-issues under a
//! fresh call id, or gives up at the deadline; dropping the record
//! disarms the live attempt's timers and frees its id. A synchronous
//! call settles in place over its borrowed arguments (no allocation); a
//! [`CallHandle`] and a [`StreamHandle`] keep the record and the encoded
//! arguments, and the stream re-keys its session when a re-issue changes
//! the call id; a reliable one-way issues one attempt its ack releases.
//!
//! # Reliability
//!
//! `call_id`s are generation-tagged: the low 16 bits index a slot in the
//! caller's call table, the high 16 bits count how many times that slot has
//! been recycled. A reply or NACK whose generation does not match the live
//! slot is *stale* — from a call that already completed — and is dropped
//! (counted in `stale_replies_dropped`) instead of completing the wrong
//! call.
//!
//! With [`oam_model::MachineConfig::retransmit`] enabled, every call
//! (including one-way sends, which are then acknowledged with an empty
//! reply) arms a per-call timer. On expiry the original request bytes are
//! retransmitted and the timer re-arms with exponential back-off plus
//! jitter derived from `nack_backoff_base`. The server's call engine keeps
//! a frame per call keyed on `(caller, call_id)` — the generation tag acts
//! as the epoch — so a retransmitted request either gets the cached reply
//! re-sent (call already executed) or is dropped (call still executing):
//! **at-most-once execution** under arbitrary loss, duplication, and
//! delay.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, HashMap};
use std::marker::PhantomData;
use std::rc::Rc;

use oam_am::{Am, AmToken, HandlerEntry, HandlerId};
use oam_core::{pack_deadline_word, CallBody, CallEngine, OamCall, Priority, NO_DEADLINE};
use oam_model::{Dur, ExecPolicy, MachineConfig, NodeId, NodeTable, Time, TraceKind};
use oam_net::{Packet, PayloadBuf, PayloadView, SHORT_PAYLOAD_MAX};
use oam_sim::{EventId, Sim};
use oam_threads::{Flag, Node};

use crate::wire::{Wire, WireReader, WireWriter};

/// The one-way `call_id` and the reply and NACK handler ids (engine
/// re-exports: the engine sends replies to duplicates and NACKs itself).
pub use oam_core::{NACK_ID, ONEWAY_SENTINEL, REPLY_ID};

/// Reserved handler id for call-cancel frames: payload `[call_id]`, sent
/// by a client tearing down a pipelined call or a streaming session. The
/// server aborts the matching in-flight execution (if any) through
/// [`CallEngine::cancel_call`]. Cancel is fire-and-forget — a lost frame
/// means the server completes the call and the client drops the stale
/// results, never the reverse.
pub const CANCEL_ID: HandlerId = HandlerId(0xFFFF_0003);

/// Name of the internal chunk-delivery method every node registers: the
/// server side of a stream sends each chunk as a (reliable, on lossy
/// fabrics) one-way call of this method back at the stream's opener.
pub const SESSION_CHUNK_METHOD: &str = "Session::chunk";

/// Handler id of [`SESSION_CHUNK_METHOD`].
pub const SESSION_CHUNK_ID: HandlerId = handler_id_for(SESSION_CHUNK_METHOD);

/// Low bits of a `call_id` index the call table; high bits carry the slot
/// generation.
const CALL_INDEX_BITS: u32 = 16;
const CALL_INDEX_MASK: u32 = (1 << CALL_INDEX_BITS) - 1;

/// Per-call timeout before the first retransmission. Later timeouts back
/// off exponentially from it, plus jitter drawn from the cost model's
/// `nack_backoff_base`.
const RETRANSMIT_TIMEOUT: Dur = Dur::from_micros(200);

/// Cap on the retransmission back-off exponent: the delay grows as
/// `2^min(attempt, cap)` times [`RETRANSMIT_TIMEOUT`].
const MAX_BACKOFF_EXP: u32 = 6;

/// Compile-time FNV-1a hash used to derive handler ids from
/// `"Service::method"` names. The top bit is cleared so generated ids never
/// collide with the reserved ones.
pub const fn handler_id_for(name: &str) -> HandlerId {
    let bytes = name.as_bytes();
    let mut h: u32 = 0x811c_9dc5;
    let mut i = 0;
    while i < bytes.len() {
        h ^= bytes[i] as u32;
        h = h.wrapping_mul(16_777_619);
        i += 1;
    }
    HandlerId(h & 0x7FFF_FFFF)
}

/// How a registered service executes its remote procedures — the paper's
/// two stub-compiler outputs (§3.2). This is the model's [`CallMode`]
/// under its historical RPC-layer name; per-method `ExecPolicy` entries in
/// `MachineConfig::policies` override the mode a service registers with.
///
/// [`CallMode`]: oam_model::CallMode
pub use oam_model::CallMode as RpcMode;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    Pending,
    Replied,
    /// NACKed by the server (abort or admission shed). `retry_after_us`
    /// carries the server's back-off hint; `0` means none — the caller
    /// falls back to blind exponential back-off.
    Nacked {
        retry_after_us: u32,
    },
    /// The caller's local deadline expired before any server response.
    Expired,
}

struct CallSlot {
    flag: Flag,
    outcome: Cell<Outcome>,
    /// The reply bytes past the call header — a zero-copy view into the
    /// delivered packet's buffer.
    reply: RefCell<PayloadView>,
    /// One-way calls: nobody spins on the flag; the ack releases the slot.
    oneway: Cell<bool>,
    /// Retransmission attempts so far (drives the back-off exponent).
    attempts: Cell<u32>,
    /// Armed retransmission timer, if any.
    timer: Cell<Option<EventId>>,
    /// Armed deadline-expiry event, if any (deadline-bearing calls only).
    expiry: Cell<Option<EventId>>,
}

impl CallSlot {
    fn new() -> Rc<Self> {
        Rc::new(CallSlot {
            flag: Flag::new(),
            outcome: Cell::new(Outcome::Pending),
            reply: RefCell::new(PayloadView::default()),
            oneway: Cell::new(false),
            attempts: Cell::new(0),
            timer: Cell::new(None),
            expiry: Cell::new(None),
        })
    }

    /// Return the slot to its freshly-allocated state for reuse.
    fn reset(&self) {
        self.flag.clear();
        self.outcome.set(Outcome::Pending);
        *self.reply.borrow_mut() = PayloadView::default();
        self.oneway.set(false);
        self.attempts.set(0);
        self.timer.set(None);
        self.expiry.set(None);
    }
}

struct TableSlot {
    gen: u16,
    active: Option<Rc<CallSlot>>,
    /// A released slot kept for reuse, saving the `Rc` allocation on the
    /// next call through this index. Only stashed when nothing else holds
    /// a reference (timer closures, late observers), so a reused slot can
    /// never be completed by a stale path.
    spare: Option<Rc<CallSlot>>,
}

/// Caller-side call table with generation-tagged ids. Indices are recycled
/// aggressively (ids stay small) but each recycling bumps the slot's
/// generation, so an id uniquely names one logical call until the
/// generation counter wraps 65 536 allocations later — far longer than any
/// packet survives in the fabric.
#[derive(Default)]
struct CallTable {
    slots: Vec<TableSlot>,
    free: Vec<u16>,
}

impl CallTable {
    fn pack(gen: u16, idx: u16) -> u32 {
        ((gen as u32) << CALL_INDEX_BITS) | idx as u32
    }

    fn alloc(&mut self) -> (u32, Rc<CallSlot>) {
        match self.free.pop() {
            Some(idx) => {
                let s = &mut self.slots[idx as usize];
                let slot = match s.spare.take() {
                    Some(spare) => {
                        spare.reset();
                        spare
                    }
                    None => CallSlot::new(),
                };
                s.active = Some(Rc::clone(&slot));
                (Self::pack(s.gen, idx), slot)
            }
            None => {
                let slot = CallSlot::new();
                let idx = self.slots.len();
                assert!(idx < CALL_INDEX_MASK as usize, "call table overflow");
                self.slots.push(TableSlot { gen: 0, active: Some(Rc::clone(&slot)), spare: None });
                (Self::pack(0, idx as u16), slot)
            }
        }
    }

    /// Look up a live call by id; `None` if the id is stale (slot released,
    /// possibly recycled under a newer generation) or out of range.
    fn get(&self, id: u32) -> Option<Rc<CallSlot>> {
        let idx = (id & CALL_INDEX_MASK) as usize;
        let gen = (id >> CALL_INDEX_BITS) as u16;
        let s = self.slots.get(idx)?;
        if s.gen != gen {
            return None;
        }
        s.active.clone()
    }

    /// Release a call slot, bumping its generation so in-flight packets
    /// naming the old id become stale.
    fn release(&mut self, id: u32) {
        let idx = (id & CALL_INDEX_MASK) as usize;
        let gen = (id >> CALL_INDEX_BITS) as u16;
        let s = &mut self.slots[idx];
        debug_assert_eq!(s.gen, gen, "releasing a stale call id");
        if s.gen == gen && s.active.is_some() {
            let slot = s.active.take().expect("checked is_some");
            // Reusable only when the table held the last reference —
            // callers drop their Rc before releasing to enable this.
            if Rc::strong_count(&slot) == 1 {
                s.spare = Some(slot);
            }
            s.gen = s.gen.wrapping_add(1);
            self.free.push(idx as u16);
        }
    }

    /// Calls currently awaiting completion.
    fn outstanding(&self) -> usize {
        self.slots.iter().filter(|s| s.active.is_some()).count()
    }
}

/// Client-side state of one open streaming session, shared between the
/// [`StreamHandle`] and the node's chunk-delivery handler.
struct SessionState {
    /// Reassembly buffer: chunk `seq` → encoded chunk bytes. A `BTreeMap`
    /// because chunks can arrive out of order (retransmission, fabric
    /// reordering) and the handle consumes them strictly in sequence.
    chunks: RefCell<BTreeMap<u32, Vec<u8>>>,
    /// Wake signal shared with the open call's slot flag, so a chunk
    /// arrival and the Close reply both wake the waiting client. Re-pointed
    /// at the fresh slot's flag when a NACKed open is re-issued.
    flag: RefCell<Flag>,
}

struct RpcInner {
    am: Am,
    cfg: Rc<MachineConfig>,
    tables: NodeTable<RefCell<CallTable>>,
    /// Per-node open streaming sessions, keyed by the open call's id (the
    /// session id chunks are addressed to).
    sessions: NodeTable<RefCell<HashMap<u32, Rc<SessionState>>>>,
    /// The call engine owning server-side dispatch: mode selection,
    /// optimistic attempts, abort resolution, duplicate suppression, and
    /// the method-name registry.
    engine: CallEngine,
    /// Retransmission enabled (per-call timers armed).
    reliable: bool,
}

/// Handle to the RPC runtime. Cheap to clone.
#[derive(Clone)]
pub struct Rpc {
    inner: Rc<RpcInner>,
}

impl Rpc {
    /// Build the runtime over an AM layer; installs the reserved reply and
    /// NACK handlers on every node the layer serves.
    pub fn new(am: Am) -> Self {
        let cfg = Rc::clone(am.config());
        let owned = am.owned();
        let reliable = cfg.retransmit;
        let engine = CallEngine::new(Rc::clone(&cfg), owned.clone());
        let rpc = Rpc {
            inner: Rc::new(RpcInner {
                am,
                cfg,
                tables: NodeTable::new(owned.clone(), |_| RefCell::new(CallTable::default())),
                sessions: NodeTable::new(owned.clone(), |_| RefCell::new(HashMap::new())),
                engine,
                reliable,
            }),
        };
        let r = rpc.clone();
        rpc.inner.am.register_inline_all(REPLY_ID, move |t: &AmToken| {
            let mut rd = WireReader::new(t.payload());
            let call_id = u32::decode(&mut rd).expect("reply call id");
            let idx = t.node().id().index();
            let slot = r.inner.tables[idx].borrow().get(call_id);
            match slot {
                Some(slot) if slot.outcome.get() == Outcome::Pending => {
                    // Zero-copy: the slot keeps a view into the delivered
                    // packet's buffer rather than copying the reply out.
                    *slot.reply.borrow_mut() = t.payload_view(4);
                    slot.outcome.set(Outcome::Replied);
                    r.cancel_timer(t.node().sim(), &slot);
                    slot.flag.set();
                    if slot.oneway.get() {
                        // Ack for a one-way call: nobody is waiting, release
                        // the slot here (dropping our reference first so the
                        // slot is eligible for reuse).
                        drop(slot);
                        r.inner.tables[idx].borrow_mut().release(call_id);
                    }
                }
                _ => {
                    // Stale: the call already completed (e.g. the reply was
                    // duplicated, or a retransmitted request produced a
                    // second reply). Dropping it is the whole point of the
                    // generation tag.
                    t.node().stats().borrow_mut().stale_replies_dropped += 1;
                    t.node().emit(TraceKind::StaleReplyDropped { call_id });
                }
            }
        });
        let r = rpc.clone();
        rpc.inner.am.register_inline_all(NACK_ID, move |t: &AmToken| {
            let mut rd = WireReader::new(t.payload());
            let call_id = u32::decode(&mut rd).expect("nack call id");
            // Extended NACKs (admission-controlled machines) carry a
            // second word with the retry-after hint; legacy 4-byte NACKs
            // mean "no hint".
            let retry_after_us =
                if t.payload().len() >= 8 { u32::decode(&mut rd).unwrap_or(0) } else { 0 };
            let idx = t.node().id().index();
            // Counted on arrival, live slot or not: the server ledger says
            // one NACK per shed/refused call, and this is the client-side
            // half of that ledger. A NACK that raced the caller's local
            // expiry was still received.
            t.node().stats().borrow_mut().nacks_received += 1;
            let slot = r.inner.tables[idx].borrow().get(call_id);
            match slot {
                Some(slot) if slot.outcome.get() == Outcome::Pending => {
                    slot.outcome.set(Outcome::Nacked { retry_after_us });
                    r.cancel_timer(t.node().sim(), &slot);
                    slot.flag.set();
                }
                _ => {
                    t.node().stats().borrow_mut().stale_replies_dropped += 1;
                    t.node().emit(TraceKind::StaleReplyDropped { call_id });
                }
            }
        });
        let engine = rpc.inner.engine.clone();
        rpc.inner.am.register_inline_all(CANCEL_ID, move |t: &AmToken| {
            let mut rd = WireReader::new(t.payload());
            let call_id = u32::decode(&mut rd).expect("cancel call id");
            // A miss (call finished, was never admitted, or targets a
            // non-cancellable method) is the expected race, not an error.
            engine.cancel_call(t.node(), t.src(), call_id);
        });
        for i in owned {
            rpc.register_chunk_method(NodeId(i));
        }
        rpc
    }

    /// Install the internal chunk-delivery method on `node`: the server
    /// half of every stream addresses its chunks here (a one-way call of
    /// [`SESSION_CHUNK_METHOD`]), and this handler files them into the
    /// owning session's reassembly buffer. Chunk filing never blocks, so
    /// the method always runs as a successful optimistic execution.
    fn register_chunk_method(&self, node: NodeId) {
        let rpc_outer = self.clone();
        let body = CallBody::new(move |call: &OamCall| {
            let rpc = rpc_outer.clone();
            let call = call.clone();
            async move {
                let (call_id, (session, seq, bytes)): (u32, (u32, u32, Vec<u8>)) =
                    rpc.accept_request(&call);
                let state =
                    rpc.inner.sessions[call.node.id().index()].borrow().get(&session).cloned();
                match state {
                    Some(s) => {
                        // Idempotent by `seq`: a retransmitted chunk
                        // overwrites itself.
                        s.chunks.borrow_mut().insert(seq, bytes);
                        call.node.stats().borrow_mut().chunks_received += 1;
                        let flag = s.flag.borrow().clone();
                        flag.set();
                    }
                    None => {
                        // Session already retired (cancelled, expired, or
                        // closed with chunks still in flight).
                        call.node.stats().borrow_mut().orphan_chunks += 1;
                    }
                }
                if call_id != ONEWAY_SENTINEL {
                    rpc.reply(&call, call_id, &()).await;
                }
            }
        });
        self.register_named(node, SESSION_CHUNK_METHOD, RpcMode::Orpc, body, false);
    }

    /// The AM layer underneath.
    pub fn am(&self) -> &Am {
        &self.inner.am
    }

    /// The call engine owning server-side dispatch.
    pub fn engine(&self) -> &CallEngine {
        &self.inner.engine
    }

    /// Registered handler-id → `"Service::method"` names (for report
    /// labels next to per-method stats).
    pub fn method_names(&self) -> BTreeMap<u32, String> {
        self.inner.engine.method_names()
    }

    /// Machine configuration.
    pub fn config(&self) -> &Rc<MachineConfig> {
        &self.inner.cfg
    }

    /// Node runtimes (convenience passthrough).
    pub fn nodes(&self) -> &[Node] {
        self.inner.am.nodes()
    }

    /// Calls issued by `node` still awaiting a reply, ack, or NACK. The
    /// machine watchdog reports this per node in a hang diagnosis.
    pub fn outstanding_calls(&self, node: NodeId) -> usize {
        self.inner.tables[node.index()].borrow().outstanding()
    }

    fn marshal_cost(&self, bytes: usize) -> Dur {
        self.inner.cfg.cost.marshal_per_word.times(bytes.div_ceil(4) as u64)
    }

    /// Bytes of framing ahead of the encoded arguments in a request
    /// payload: the call-id word, plus the deadline word on machines with
    /// admission control.
    fn header_len(&self) -> usize {
        if self.inner.cfg.admission.is_some() {
            8
        } else {
            4
        }
    }

    /// Send a request payload, choosing short AM or bulk transfer like the
    /// paper's stubs: anything that fits the CM-5's argument words (16
    /// bytes including the call header) goes as a short active message,
    /// everything else through the scopy engine.
    async fn send_request(&self, node: &Node, dst: NodeId, id: HandlerId, payload: PayloadBuf) {
        if payload.len() > SHORT_PAYLOAD_MAX {
            self.inner.am.send_bulk(node, dst, id, payload);
        } else {
            self.inner.am.send(node, dst, id, payload).await;
        }
    }

    /// Marshal `[call_id][deadline?][args]` straight into a payload:
    /// inline (no allocation) when it fits a short packet, into a buffer
    /// leased from the node's pool otherwise. The deadline word (absolute
    /// virtual microseconds, [`NO_DEADLINE`] for none) is written only on
    /// machines with admission control, so header-free configurations keep
    /// their exact wire format.
    fn marshal_request(
        &self,
        node: &Node,
        call_id: u32,
        deadline_us: u32,
        write_args: &dyn Fn(&mut WireWriter),
    ) -> PayloadBuf {
        let mut w = WireWriter::pooled(self.inner.am.pool(node.id()).clone());
        call_id.encode(&mut w);
        if self.inner.cfg.admission.is_some() {
            deadline_us.encode(&mut w);
        }
        write_args(&mut w);
        w.finish()
    }

    /// The server stub's prologue: decode the arriving request and charge
    /// its unmarshal cost (the whole payload, header included). Returns
    /// `(call_id, args)`. Used by the generated stubs.
    pub fn accept_request<A: Wire>(&self, call: &OamCall) -> (u32, A) {
        let decoded = self.decode_request(&call.pkt.payload);
        call.node.add_pending(self.marshal_cost(call.pkt.payload.len()));
        decoded
    }

    /// Decode the call header and argument tuple from a request payload,
    /// skipping the deadline word on admission-controlled machines.
    /// Returns `(call_id, args)`.
    fn decode_request<A: Wire>(&self, payload: &[u8]) -> (u32, A) {
        let mut rd = WireReader::new(payload);
        let call_id = u32::decode(&mut rd).expect("request call id");
        if self.inner.cfg.admission.is_some() {
            let _deadline_us = u32::decode(&mut rd).expect("request deadline");
        }
        let args = A::decode(&mut rd).expect("request arguments");
        (call_id, args)
    }

    /// Perform a synchronous RPC — the generated `call` and `call_with`
    /// stubs. Marshals the arguments straight into the outgoing payload
    /// (again on each NACK re-issue) and returns a zero-copy view of the
    /// encoded reply. The options travel in the request's header word, so
    /// they require [`oam_model::MachineConfig::admission`]; on header-free
    /// machines a priority is silently `Normal` and a deadline is
    /// client-enforced only. Only a deadline-bearing call can fail: the
    /// server drops it unexecuted if it arrives (or is retransmitted) past
    /// the deadline, and the caller gives up locally at the same instant
    /// with [`CallError::DeadlineExpired`] instead of retrying forever.
    pub async fn call_args_with<A: Wire>(
        &self,
        node: &Node,
        dst: NodeId,
        id: HandlerId,
        args: &A,
        opts: CallOpts,
    ) -> Result<PayloadView, CallError> {
        node.stats().borrow_mut().rpcs_sync += 1;
        let write_args = |w: &mut WireWriter| args.encode(w);
        let mut call = self.begin(node, dst, id, opts, &write_args).await;
        call.finish(&write_args).await
    }

    /// Issue a call without waiting for its reply — the pipelining
    /// primitive behind the generated `issue` stubs. Marshaling and sending
    /// happen here; the returned [`CallHandle`] is awaited later, letting
    /// the caller overlap the next call's marshaling (or any other work)
    /// with this call's remote execution.
    pub async fn issue_args_with<A: Wire, T: Wire>(
        &self,
        node: &Node,
        dst: NodeId,
        id: HandlerId,
        args: &A,
        opts: CallOpts,
    ) -> CallHandle<T> {
        node.stats().borrow_mut().rpcs_sync += 1;
        // Keep the encoded arguments: a NACKed attempt re-issues them
        // under a fresh call id from inside `wait`.
        let args = crate::wire::to_bytes(args);
        let call = self.begin(node, dst, id, opts, &|w| w.extend_from_slice(&args)).await;
        CallHandle { call, args, _ret: PhantomData }
    }

    /// Open a typed streaming session against a `stream` method: issues
    /// the open exactly like a synchronous call (same wire encoding) and
    /// registers a reassembly session keyed by the open's call id. Chunks
    /// are consumed through the returned [`StreamHandle`].
    pub async fn open_stream<A: Wire, C: Wire, F: Wire>(
        &self,
        node: &Node,
        dst: NodeId,
        id: HandlerId,
        args: &A,
        opts: CallOpts,
    ) -> StreamHandle<C, F> {
        let args = crate::wire::to_bytes(args);
        let call = self.begin(node, dst, id, opts, &|w| w.extend_from_slice(&args)).await;
        let session = Rc::new(SessionState {
            chunks: RefCell::new(BTreeMap::new()),
            flag: RefCell::new(call.flag()),
        });
        self.inner.sessions[node.id().index()]
            .borrow_mut()
            .insert(call.call_id, Rc::clone(&session));
        node.stats().borrow_mut().sessions_opened += 1;
        node.emit(TraceKind::SessionOpened { call_id: call.call_id, dst });
        StreamHandle {
            call,
            args,
            session,
            next_chunk: 0,
            total: None,
            fin: None,
            error: None,
            done: false,
            _chunk: PhantomData,
        }
    }

    /// Perform an asynchronous (one-way) RPC with `Wire`-encodable
    /// arguments. Fire-and-forget on a lossless fabric; with retransmission
    /// enabled the call is correlated and acknowledged like a two-way call
    /// (the caller just does not wait), so a lost request or ack is
    /// recovered by the timer.
    pub async fn send_oneway_args<A: Wire>(
        &self,
        node: &Node,
        dst: NodeId,
        id: HandlerId,
        args: &A,
    ) {
        node.stats().borrow_mut().rpcs_async += 1;
        let write_args = |w: &mut WireWriter| args.encode(w);
        if self.inner.reliable {
            let mut call = self.pending(node, dst, id, CallOpts::default());
            call.issue(&write_args, true).await;
            // Nobody waits: the ack releases the slot.
            call.slot = None;
        } else {
            let payload = self.marshal_request(node, ONEWAY_SENTINEL, NO_DEADLINE, &write_args);
            node.add_pending(self.marshal_cost(payload.len() - self.header_len()));
            self.send_request(node, dst, id, payload).await;
        }
    }

    /// Start a two-way call: charge the caller overhead and issue the
    /// first attempt.
    async fn begin(
        &self,
        node: &Node,
        dst: NodeId,
        id: HandlerId,
        opts: CallOpts,
        write_args: &dyn Fn(&mut WireWriter),
    ) -> Pending {
        node.add_pending(self.inner.cfg.cost.rpc_caller_overhead);
        let mut call = self.pending(node, dst, id, opts);
        call.issue(write_args, false).await;
        call
    }

    /// The record of a call issued now, before its first attempt. The
    /// header word carries the absolute deadline in µs (rounded up so the
    /// server never expires a call before its caller would), with the
    /// priority packed into the top bits (a no-op for `Normal`, keeping
    /// the legacy word bit-exact).
    fn pending(&self, node: &Node, dst: NodeId, id: HandlerId, opts: CallOpts) -> Pending {
        let issued = node.now();
        let deadline_abs = opts.deadline.map(|d| issued + d);
        let deadline_us = deadline_abs.map_or(NO_DEADLINE, |t| {
            t.as_nanos().div_ceil(1_000).min(u64::from(NO_DEADLINE) - 1) as u32
        });
        Pending {
            rpc: self.clone(),
            node: node.clone(),
            dst,
            id,
            issued,
            deadline_abs,
            deadline_word: pack_deadline_word(deadline_us, opts.priority),
            attempt: 0,
            charged: false,
            call_id: 0,
            slot: None,
        }
    }

    /// Arm (or re-arm) the retransmission timer for an outstanding call.
    /// Delay grows exponentially with the attempt count, capped, plus
    /// jitter derived from the NACK back-off base so synchronized timeouts
    /// de-correlate.
    fn arm_timer(
        &self,
        node: &Node,
        dst: NodeId,
        handler: HandlerId,
        call_id: u32,
        slot: &Rc<CallSlot>,
        bytes: PayloadBuf,
    ) {
        if slot.outcome.get() != Outcome::Pending {
            return; // completed while the request was still being sent
        }
        let exp = slot.attempts.get().min(MAX_BACKOFF_EXP);
        let src = node.id().index() as u32;
        let jitter = node.sim().with_rng_for(src, |r| {
            r.gen_inclusive(0, self.inner.cfg.cost.nack_backoff_base.as_nanos())
        });
        let delay = RETRANSMIT_TIMEOUT.times(1u64 << exp) + Dur::from_nanos(jitter);
        let rpc = self.clone();
        let node2 = node.clone();
        let slot2 = Rc::clone(slot);
        let ev = node.sim().schedule_after_for(delay, src, move |_| {
            rpc.on_timeout(&node2, dst, handler, call_id, &slot2, bytes);
        });
        slot.timer.set(Some(ev));
    }

    /// A per-call timer expired with the call still outstanding: count it,
    /// retransmit the original request bytes, and re-arm with back-off.
    fn on_timeout(
        &self,
        node: &Node,
        dst: NodeId,
        handler: HandlerId,
        call_id: u32,
        slot: &Rc<CallSlot>,
        bytes: PayloadBuf,
    ) {
        slot.timer.set(None);
        if slot.outcome.get() != Outcome::Pending {
            return;
        }
        let attempt = slot.attempts.get() + 1;
        slot.attempts.set(attempt);
        node.stats().borrow_mut().call_timeouts += 1;
        node.emit(TraceKind::CallTimeout { call_id, dst, attempt });
        // Retransmit. Short requests go straight into the NI output FIFO —
        // the resend is NI-engine work, not processor work, so no cost is
        // charged; if the FIFO is full right now this round is skipped and
        // the back-off timer tries again. Oversized requests re-run the
        // bulk engine. The resend copies are refcounted views of the
        // original request buffer, not byte copies.
        if bytes.len() > SHORT_PAYLOAD_MAX {
            self.inner.am.send_bulk(node, dst, handler, bytes.clone());
            node.stats().borrow_mut().retransmits += 1;
            node.emit(TraceKind::CallRetransmit { call_id, dst, attempt });
        } else {
            let pkt = Packet::short(node.id(), dst, handler.0, bytes.clone());
            if self.inner.am.network().try_inject(pkt).is_ok() {
                node.stats().borrow_mut().retransmits += 1;
                node.emit(TraceKind::CallRetransmit { call_id, dst, attempt });
            }
        }
        self.arm_timer(node, dst, handler, call_id, slot, bytes);
    }

    fn cancel_timer(&self, sim: &Sim, slot: &CallSlot) {
        if let Some(ev) = slot.timer.take() {
            sim.cancel(ev);
        }
    }

    /// Arm the caller-side deadline-expiry event: if the call is still
    /// pending at `at`, mark it [`Outcome::Expired`], stop retransmitting,
    /// and wake the waiter.
    fn arm_expiry(&self, node: &Node, slot: &Rc<CallSlot>, at: Time) {
        let src = node.id().index() as u32;
        let rpc = self.clone();
        let node2 = node.clone();
        let slot2 = Rc::clone(slot);
        let when = at.max(node.now());
        let ev = node.sim().schedule_at_for(when, src, move |_| {
            slot2.expiry.set(None);
            if slot2.outcome.get() != Outcome::Pending {
                return;
            }
            slot2.outcome.set(Outcome::Expired);
            rpc.cancel_timer(node2.sim(), &slot2);
            slot2.flag.set();
            node2.kick();
        });
        slot.expiry.set(Some(ev));
    }

    fn cancel_expiry(&self, sim: &Sim, slot: &CallSlot) {
        if let Some(ev) = slot.expiry.take() {
            sim.cancel(ev);
        }
    }

    /// The post-NACK retry delay. With a server-supplied `retry_after_us`
    /// hint the caller honors it (plus small jitter to de-correlate
    /// synchronized retries); without one it falls back to blind
    /// exponential back-off from `nack_backoff_base`.
    fn backoff_delay(&self, node: &Node, attempt: u32, retry_after_us: u32) -> Dur {
        let base = self.inner.cfg.cost.nack_backoff_base;
        let src = node.id().index() as u32;
        let jitter_ns = node.sim().with_rng_for(src, |r| r.gen_inclusive(0, base.as_nanos() / 2));
        if retry_after_us > 0 {
            Dur::from_micros(u64::from(retry_after_us)) + Dur::from_nanos(jitter_ns)
        } else {
            base.times(1u64 << attempt.min(4)) + Dur::from_nanos(jitter_ns)
        }
    }

    /// Sleep for `delay` after a NACK. The waiter spin-polls (it must keep
    /// serving incoming messages).
    async fn backoff_sleep(&self, node: &Node, delay: Dur) {
        let src = node.id().index() as u32;
        let flag = Flag::new();
        let f = flag.clone();
        let n = node.clone();
        node.sim().schedule_after_for(delay, src, move |_| {
            f.set();
            n.kick();
        });
        node.spin_on(flag).await;
    }

    /// Send the reply for a completed call (server side), marshaling the
    /// result directly into the outgoing payload buffer. Chooses short or
    /// bulk transport like requests do. With duplicate suppression active
    /// the encoded reply is cached (by reference) so a retransmitted
    /// request can be answered without re-executing the procedure.
    pub async fn reply<T: Wire>(&self, call: &OamCall, call_id: u32, result: &T) {
        let mut w = WireWriter::pooled(self.inner.am.pool(call.node.id()).clone());
        call_id.encode(&mut w);
        result.encode(&mut w);
        self.reply_payload(call, call_id, w.finish()).await
    }

    /// As [`Rpc::reply`], with an already-encoded result (layers that
    /// marshal their own return values, e.g. the object layer).
    pub async fn reply_raw(&self, call: &OamCall, call_id: u32, result: &[u8]) {
        let mut w = WireWriter::pooled(self.inner.am.pool(call.node.id()).clone());
        call_id.encode(&mut w);
        w.extend_from_slice(result);
        self.reply_payload(call, call_id, w.finish()).await
    }

    async fn reply_payload(&self, call: &OamCall, call_id: u32, payload: PayloadBuf) {
        let node = &call.node;
        node.add_pending(self.marshal_cost(payload.len() - 4));
        self.inner.engine.cache_reply(call, call_id, &payload);
        let dst = call.pkt.src;
        if payload.len() > SHORT_PAYLOAD_MAX {
            self.inner.am.send_bulk(node, dst, REPLY_ID, payload);
        } else {
            self.inner.am.send(node, dst, REPLY_ID, payload).await;
        }
    }

    /// Register a remote procedure on `node`. `mode` is the mode the
    /// service was registered with — a per-method [`ExecPolicy`] in
    /// `MachineConfig::policies` overrides it. The call body builds the
    /// handler future (decode → body → reply). `expects_reply`
    /// distinguishes `rpc` from `oneway` methods: under
    /// [`AbortStrategy::Nack`](oam_model::AbortStrategy::Nack) only
    /// reply-bearing calls can be NACKed (the caller is waiting); one-way
    /// calls fall back to rerun.
    pub fn register(
        &self,
        node: NodeId,
        id: HandlerId,
        mode: RpcMode,
        body: CallBody,
        expects_reply: bool,
    ) {
        let policy = self.inner.engine.policy_for(id.0, mode);
        self.register_policied_opts(node, id, policy, body, expects_reply, false);
    }

    /// As [`Rpc::register`], recording the method's `"Service::method"`
    /// name in the engine's registry first — which panics if a *different*
    /// name already hashed to the same handler id. The generated stubs
    /// register through this path.
    pub fn register_named(
        &self,
        node: NodeId,
        name: &str,
        mode: RpcMode,
        body: CallBody,
        expects_reply: bool,
    ) -> HandlerId {
        let id = handler_id_for(name);
        self.inner.engine.register_name(id.0, name);
        self.register(node, id, mode, body, expects_reply);
        id
    }

    /// Register a `stream` method: like [`Rpc::register_named`], but the
    /// engine site is made cancellable — an in-flight execution aborts at
    /// its next suspension point when the opener's cancel frame arrives.
    /// Only stream methods pay the per-call cancellation bookkeeping; the
    /// single-shot hot path stays allocation-free.
    pub fn register_stream_named(
        &self,
        node: NodeId,
        name: &str,
        mode: RpcMode,
        body: CallBody,
    ) -> HandlerId {
        let id = handler_id_for(name);
        self.inner.engine.register_name(id.0, name);
        let policy = self.inner.engine.policy_for(id.0, mode);
        self.register_policied_opts(node, id, policy, body, true, true);
        id
    }

    fn register_policied_opts(
        &self,
        node: NodeId,
        id: HandlerId,
        policy: ExecPolicy,
        body: CallBody,
        expects_reply: bool,
        cancellable: bool,
    ) {
        let mut site = self.inner.engine.site(policy, expects_reply, body);
        if cancellable {
            site = site.with_cancellation();
        }
        self.inner.am.register(node, id, HandlerEntry::Custom(Rc::new(site)));
    }
}

/// Why a call returned without a usable reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallError {
    /// The per-call deadline passed before a reply arrived: either the
    /// caller's local expiry fired, or the remaining budget could not
    /// absorb the server's requested back-off.
    DeadlineExpired,
    /// The reply (or a stream chunk) arrived but did not decode as the
    /// stub's return type — a wire-schema mismatch surfaced to the caller
    /// instead of a client panic.
    ReplyDecode(crate::wire::WireError),
}

impl std::fmt::Display for CallError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CallError::DeadlineExpired => write!(f, "call deadline expired"),
            CallError::ReplyDecode(e) => write!(f, "reply decode failed: {e:?}"),
        }
    }
}

/// Per-call options for the two-way call entry points
/// ([`Rpc::call_args_with`], [`Rpc::issue_args_with`],
/// [`Rpc::open_stream`] and the generated `call_with` / `issue_with`
/// stubs; the plain stubs pass the default).
///
/// Both fields travel in the header word that admission-controlled
/// machines prepend to requests, so they are only *server*-enforced there;
/// on header-free machines a deadline is still client-enforced (expiry +
/// give-up) but a non-`Normal` priority is silently dropped.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CallOpts {
    /// Give up after this long: the server drops the call unexecuted past
    /// the deadline, and the caller stops waiting at the same instant.
    pub deadline: Option<Dur>,
    /// Dispatch and admission priority: `High` calls jump the run queue
    /// and are admitted into 1.5× the pending budget; `Low` calls queue
    /// behind everything and are shed at half of it.
    pub priority: Priority,
}

impl CallOpts {
    /// Builder: set the deadline.
    pub fn with_deadline(mut self, d: Dur) -> Self {
        self.deadline = Some(d);
        self
    }

    /// Builder: set the priority.
    pub fn with_priority(mut self, p: Priority) -> Self {
        self.priority = p;
        self
    }
}

/// One call in flight on the caller side: the record every call form — a
/// synchronous call, a [`CallHandle`], a [`StreamHandle`]'s open, a
/// reliable one-way — drives through the same attempt loop.
/// [`Rpc::begin`] issues it, [`Pending::settle`] waits out one attempt
/// and backs off and re-issues after a NACK, and dropping it disarms
/// whatever attempt is still live.
struct Pending {
    rpc: Rpc,
    node: Node,
    dst: NodeId,
    id: HandlerId,
    issued: Time,
    deadline_abs: Option<Time>,
    /// The request's header word (deadline and priority), fixed at issue.
    deadline_word: u32,
    /// NACKs so far (drives the blind back-off exponent).
    attempt: u32,
    /// The once-per-call marshal cost has been charged.
    charged: bool,
    /// The live attempt's correlation id (fresh on each re-issue).
    call_id: u32,
    /// The live attempt's slot; `None` once settled.
    slot: Option<Rc<CallSlot>>,
}

impl Pending {
    /// Issue one attempt: allocate a correlation slot, marshal, charge the
    /// (once-per-call) marshal cost, send, and arm the retransmission timer
    /// and deadline expiry. A `oneway` slot is released by its ack.
    async fn issue(&mut self, write_args: &dyn Fn(&mut WireWriter), oneway: bool) {
        let rpc = &self.rpc;
        let (call_id, slot) = rpc.inner.tables[self.node.id().index()].borrow_mut().alloc();
        slot.oneway.set(oneway);
        self.call_id = call_id;
        let slot = self.slot.insert(slot);
        let payload = rpc.marshal_request(&self.node, call_id, self.deadline_word, write_args);
        if !self.charged {
            self.charged = true;
            self.node.add_pending(rpc.marshal_cost(payload.len() - rpc.header_len()));
        }
        let resend = rpc.inner.reliable.then(|| payload.clone());
        rpc.send_request(&self.node, self.dst, self.id, payload).await;
        if let Some(bytes) = resend {
            rpc.arm_timer(&self.node, self.dst, self.id, call_id, slot, bytes);
        }
        if let Some(at) = self.deadline_abs {
            rpc.arm_expiry(&self.node, slot, at);
        }
    }

    /// The live attempt's wake flag.
    fn flag(&self) -> Flag {
        self.slot.as_ref().expect("a live attempt").flag.clone()
    }

    /// Whether the live attempt has an outcome for [`Pending::settle`].
    fn has_outcome(&self) -> bool {
        self.slot.as_ref().is_some_and(|s| s.outcome.get() != Outcome::Pending)
    }

    /// Wait for the live attempt's outcome and act on it: a reply is
    /// integrated (charged) and returned; a NACK backs off and re-issues
    /// under a fresh call id, returning `None` (the call is live again),
    /// unless the back-off would overrun the deadline; a local expiry
    /// gives up. `write_args` re-marshals the arguments for the re-issue.
    async fn settle(
        &mut self,
        write_args: &dyn Fn(&mut WireWriter),
    ) -> Option<Result<PayloadView, CallError>> {
        self.node.spin_on(self.flag()).await;
        let (outcome, reply) = self.release().expect("waited on a live attempt");
        match outcome {
            Outcome::Replied => {
                self.node.add_pending(self.rpc.inner.cfg.cost.reply_integrate);
                self.node.add_pending(self.rpc.marshal_cost(reply.len()));
                return Some(Ok(reply));
            }
            Outcome::Nacked { retry_after_us } => {
                self.attempt += 1;
                let delay = self.rpc.backoff_delay(&self.node, self.attempt, retry_after_us);
                // A retry that could not complete in time gives up now
                // rather than hammer a server that told us to wait.
                if self.deadline_abs.is_none_or(|at| self.node.now() + delay < at) {
                    if retry_after_us > 0 {
                        self.node.stats().borrow_mut().retry_after_honored += 1;
                    }
                    self.rpc.backoff_sleep(&self.node, delay).await;
                    self.issue(write_args, false).await;
                    return None;
                }
            }
            Outcome::Expired => {}
            Outcome::Pending => unreachable!("flag set without an outcome"),
        }
        self.node.stats().borrow_mut().calls_abandoned += 1;
        self.node.emit(TraceKind::CallAbandoned { call_id: self.call_id, dst: self.dst });
        Some(Err(CallError::DeadlineExpired))
    }

    /// Settle until the call ends: the whole client stub's wait.
    async fn finish(
        &mut self,
        write_args: &dyn Fn(&mut WireWriter),
    ) -> Result<PayloadView, CallError> {
        loop {
            if let Some(end) = self.settle(write_args).await {
                if end.is_ok() {
                    self.complete();
                }
                return end;
            }
        }
    }

    /// Count a deadline-bearing call completed, with its latency.
    fn complete(&self) {
        if self.deadline_abs.is_some() {
            let mut st = self.node.stats().borrow_mut();
            st.calls_completed += 1;
            st.latency.record(self.node.now().since(self.issued));
        }
    }

    /// Tear the live attempt down — disarm both timers and release its id,
    /// so a late reply is dropped as stale — returning its outcome and
    /// reply. `None` if no attempt is live.
    fn release(&mut self) -> Option<(Outcome, PayloadView)> {
        let slot = self.slot.take()?;
        let sim = self.node.sim();
        self.rpc.cancel_timer(sim, &slot);
        self.rpc.cancel_expiry(sim, &slot);
        let settled = (slot.outcome.get(), slot.reply.borrow().clone());
        drop(slot); // the table must hold the last reference to reuse it
        self.rpc.inner.tables[self.node.id().index()].borrow_mut().release(self.call_id);
        Some(settled)
    }

    /// Send the best-effort cancel frame for the current call id.
    /// Fire-and-forget: no correlation slot, no retransmission — a lost
    /// cancel just means the server completes the call and the client's
    /// generation tag drops the stale reply.
    fn send_cancel(&self) {
        let payload = PayloadBuf::inline(&self.call_id.to_le_bytes());
        self.rpc.inner.am.send_from_handler(&self.node, self.dst, CANCEL_ID, payload);
    }
}

impl Drop for Pending {
    fn drop(&mut self) {
        self.release();
    }
}

/// An issued, not-yet-awaited call — the pipelining primitive the
/// generated `issue` stubs return. The request is already on the wire;
/// the caller collects the reply later with [`CallHandle::wait`], aborts
/// it with [`CallHandle::cancel`], or just drops it (local teardown only —
/// the server still executes, and its reply is dropped as stale).
pub struct CallHandle<T: Wire> {
    call: Pending,
    /// Encoded argument bytes, kept for NACK-driven re-issue.
    args: Vec<u8>,
    _ret: PhantomData<T>,
}

impl<T: Wire> CallHandle<T> {
    /// The call's current correlation id (changes on NACK re-issue).
    pub fn call_id(&self) -> u32 {
        self.call.call_id
    }

    /// Wait for the reply and decode it as `T`. NACK back-off/retry and
    /// deadline expiry run through the synchronous call's own loop.
    pub async fn wait(mut self) -> Result<T, CallError> {
        let args = &self.args;
        let reply = self.call.finish(&|w| w.extend_from_slice(args)).await?;
        crate::wire::from_bytes(&reply).map_err(CallError::ReplyDecode)
    }

    /// Cancel the call: tells the server to abort the in-flight execution
    /// (best-effort) and tears the local correlation down (on drop).
    pub fn cancel(self) {
        self.call.send_cancel();
    }
}

/// The client half of an open streaming session, returned by
/// [`Rpc::open_stream`] (the generated `call` stub of a `stream` method).
/// Yields chunks in sequence through [`StreamHandle::next`]; ends with
/// [`StreamHandle::finish`] (the server's final value) or
/// [`StreamHandle::cancel`]. Dropping the handle without finishing counts
/// the session as cancelled.
pub struct StreamHandle<C: Wire, F: Wire> {
    /// The open call; its current id is the session id.
    call: Pending,
    /// Encoded open arguments, kept for NACK-driven re-issue.
    args: Vec<u8>,
    session: Rc<SessionState>,
    /// Next chunk sequence number to hand out.
    next_chunk: u32,
    /// Total chunk count, known once the Close reply arrives.
    total: Option<u32>,
    /// The server's final value, held until `finish`.
    fin: Option<F>,
    error: Option<CallError>,
    /// Retired via `finish`-Ok: `Drop` must not count it cancelled.
    done: bool,
    _chunk: PhantomData<C>,
}

impl<C: Wire, F: Wire> StreamHandle<C, F> {
    /// The session id (= the open call's current correlation id).
    pub fn session_id(&self) -> u32 {
        self.call.call_id
    }

    /// Receive the next chunk in sequence, waiting for it to arrive if
    /// necessary. Returns `None` once the stream is complete (Close seen
    /// and every declared chunk consumed) or broken (NACK budget or
    /// deadline exhausted, decode failure) — [`StreamHandle::finish`]
    /// then reports which.
    pub async fn next(&mut self) -> Option<C> {
        loop {
            let buffered = self.session.chunks.borrow_mut().remove(&self.next_chunk);
            if let Some(bytes) = buffered {
                self.next_chunk += 1;
                match crate::wire::from_bytes::<C>(&bytes) {
                    Ok(chunk) => return Some(chunk),
                    Err(e) => {
                        self.error = Some(CallError::ReplyDecode(e));
                        return None;
                    }
                }
            }
            if self.error.is_some() {
                return None;
            }
            if let Some(total) = self.total {
                if self.next_chunk >= total {
                    return None;
                }
                // Closed but a declared chunk is still in flight
                // (reordered or being retransmitted): keep waiting.
            }
            if self.call.has_outcome() {
                self.advance_outcome().await;
                continue;
            }
            // Nothing actionable right now. Clearing then re-waiting is
            // race-free: no await between the checks above and here, so
            // any set flag was for state already consumed.
            let flag = self.session.flag.borrow().clone();
            flag.clear();
            self.call.node.spin_on(flag).await;
        }
    }

    /// Drive the settled open call one step through the shared attempt
    /// loop: decode the Close reply, surface deadline expiry, or re-key the
    /// session under the re-issued open's fresh call id (the shed open
    /// never executed, so no chunks are lost).
    async fn advance_outcome(&mut self) {
        let old_id = self.call.call_id;
        let args = &self.args;
        match self.call.settle(&|w| w.extend_from_slice(args)).await {
            Some(Ok(reply)) => {
                let mut rd = WireReader::new(&reply);
                match u32::decode(&mut rd).and_then(|n| F::decode(&mut rd).map(|f| (n, f))) {
                    Ok((count, fin)) => {
                        self.total = Some(count);
                        self.fin = Some(fin);
                    }
                    Err(e) => self.error = Some(CallError::ReplyDecode(e)),
                }
            }
            Some(Err(e)) => self.error = Some(e),
            None => {
                let idx = self.call.node.id().index();
                let mut sessions = self.call.rpc.inner.sessions[idx].borrow_mut();
                sessions.remove(&old_id);
                sessions.insert(self.call.call_id, Rc::clone(&self.session));
                *self.session.flag.borrow_mut() = self.call.flag();
            }
        }
    }

    /// Wait for the server's Close and return its final value. On a broken
    /// stream this sends the best-effort cancel frame (the server may
    /// still be producing chunks nobody wants) and returns the error; the
    /// session then retires as cancelled.
    pub async fn finish(mut self) -> Result<F, CallError> {
        loop {
            if let Some(e) = self.error.take() {
                self.call.send_cancel();
                return Err(e);
            }
            if self.total.is_some() {
                let fin = self.fin.take().expect("Close decoded with its final value");
                self.retire_closed();
                return Ok(fin);
            }
            if self.call.has_outcome() {
                self.advance_outcome().await;
                continue;
            }
            let flag = self.session.flag.borrow().clone();
            flag.clear();
            self.call.node.spin_on(flag).await;
        }
    }

    /// Cancel the session: tells the server to abort the in-flight stream
    /// body (best-effort) and retires the session locally (via `Drop`).
    pub fn cancel(self) {
        self.call.send_cancel();
    }

    /// Retire a cleanly-closed session: the one path that counts
    /// `sessions_closed` (everything else — cancel, error, drop — counts
    /// `sessions_cancelled`), so `opened == closed + cancelled` holds per
    /// handle retirement.
    fn retire_closed(&mut self) {
        self.done = true;
        let node = &self.call.node;
        self.call.rpc.inner.sessions[node.id().index()].borrow_mut().remove(&self.call.call_id);
        node.stats().borrow_mut().sessions_closed += 1;
        self.call.complete();
        let chunks = self.total.unwrap_or(0);
        node.emit(TraceKind::SessionClosed { call_id: self.call.call_id, chunks });
    }
}

impl<C: Wire, F: Wire> Drop for StreamHandle<C, F> {
    fn drop(&mut self) {
        if self.done {
            return;
        }
        // Local teardown only — no wire traffic from a destructor. An
        // explicit `cancel` already sent the frame; a bare drop lets the
        // generation tag absorb whatever the server still sends. The open's
        // live attempt, if any, is torn down when `call` drops.
        let (node, call_id) = (&self.call.node, self.call.call_id);
        self.call.rpc.inner.sessions[node.id().index()].borrow_mut().remove(&call_id);
        node.stats().borrow_mut().sessions_cancelled += 1;
        node.emit(TraceKind::SessionCancelled { call_id, dst: self.call.dst });
    }
}

/// The server half of an open stream: a typestate token threaded through
/// the `stream` method body by the generated stub. Each
/// [`StreamTx::send`] consumes the sender and returns it, and
/// [`StreamTx::close`] consumes it for good, returning the
/// [`StreamClosed`] proof the stub requires the body to evaluate to — so
/// `send` after `close`, double `close`, and a body that never closes are
/// all compile errors, not protocol violations.
pub struct StreamTx<C: Wire> {
    rpc: Rpc,
    call: OamCall,
    /// The session id chunks are addressed to (= the open's call id).
    session: u32,
    /// Next chunk sequence number.
    seq: u32,
    _chunk: PhantomData<C>,
}

impl<C: Wire> StreamTx<C> {
    /// Build the sender for an open call. Used by the generated stubs.
    #[doc(hidden)]
    pub fn new(rpc: Rpc, call: OamCall, session: u32) -> Self {
        StreamTx { rpc, call, session, seq: 0, _chunk: PhantomData }
    }

    /// The session id this stream serves.
    pub fn session(&self) -> u32 {
        self.session
    }

    /// Chunks sent so far.
    pub fn sent(&self) -> u32 {
        self.seq
    }

    /// Send one chunk to the session's opener (a one-way call of the
    /// internal chunk method — reliable wherever calls are). Every chunk
    /// boundary is also a [`Node::checkpoint`]: a long-running promoted
    /// stream handler dispatches deliverable messages between chunks —
    /// which is what keeps the node responsive and lets a client's cancel
    /// frame reach the engine while the stream is still producing.
    pub async fn send(mut self, chunk: &C) -> StreamTx<C> {
        let seq = self.seq;
        self.seq += 1;
        {
            let mut st = self.call.node.stats().borrow_mut();
            st.method_mut(self.call.pkt.tag).chunks += 1;
        }
        let bytes = crate::wire::to_bytes(chunk);
        let caller = self.call.pkt.src;
        self.rpc
            .send_oneway_args(
                &self.call.node,
                caller,
                SESSION_CHUNK_ID,
                &(self.session, seq, bytes),
            )
            .await;
        self.call.node.checkpoint().await;
        self
    }

    /// Close the stream: replies to the open call with
    /// `[chunk_count][final]`, which both delivers the final value and
    /// (with duplicate suppression active) stops open-retransmissions from
    /// re-running the body.
    pub async fn close<F: Wire>(self, fin: &F) -> StreamClosed {
        let mut w = WireWriter::pooled(self.rpc.inner.am.pool(self.call.node.id()).clone());
        self.session.encode(&mut w);
        self.seq.encode(&mut w);
        fin.encode(&mut w);
        self.rpc.reply_payload(&self.call, self.session, w.finish()).await;
        StreamClosed { _priv: () }
    }
}

/// Proof that a stream body closed its session — constructible only by
/// [`StreamTx::close`]. The generated `stream` stubs type the method body
/// as evaluating to this.
pub struct StreamClosed {
    _priv: (),
}

/// Context passed to remote-procedure bodies by the generated stubs.
#[derive(Clone)]
pub struct RpcCtx {
    /// The underlying call (node, AM layer, triggering packet).
    pub call: OamCall,
    /// The RPC runtime (for nested calls).
    pub rpc: Rpc,
}

impl RpcCtx {
    /// The node executing the procedure.
    pub fn node(&self) -> &Node {
        &self.call.node
    }

    /// The calling node.
    pub fn caller(&self) -> NodeId {
        self.call.pkt.src
    }

    /// Charge compute time.
    pub fn charge(&self, d: Dur) -> oam_threads::Charge {
        self.call.node.charge(d)
    }

    /// Stub-inserted progress check (see [`Node::checkpoint`]).
    pub fn checkpoint(&self) -> oam_threads::Checkpoint {
        self.call.node.checkpoint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handler_ids_are_stable_and_distinct() {
        let a = handler_id_for("Queue::get_job");
        let b = handler_id_for("Queue::put_job");
        let c = handler_id_for("Queue::get_job");
        assert_eq!(a, c);
        assert_ne!(a, b);
        assert_eq!(a.0 & 0x8000_0000, 0, "top bit reserved");
        assert_ne!(a, REPLY_ID);
        assert_ne!(a, NACK_ID);
    }

    #[test]
    fn call_table_recycles_indices_under_fresh_generations() {
        let mut t = CallTable::default();
        let (id0, _) = t.alloc();
        let (id1, _) = t.alloc();
        assert_ne!(id0, id1);
        t.release(id0);
        assert!(t.get(id0).is_none(), "released id is dead");
        let (id2, _) = t.alloc();
        assert_eq!(id2 & CALL_INDEX_MASK, id0 & CALL_INDEX_MASK, "index is recycled");
        assert_ne!(id2, id0, "but the generation differs");
        assert!(t.get(id2).is_some());
        assert!(t.get(id0).is_none(), "stale id stays dead after recycling");
        assert_eq!(t.outstanding(), 2);
    }

    #[test]
    fn stale_ids_never_resolve_to_the_wrong_call() {
        let mut t = CallTable::default();
        let (id0, s0) = t.alloc();
        t.release(id0);
        let (id1, s1) = t.alloc(); // same index, new generation
        let got = t.get(id1).expect("live call resolves");
        assert!(Rc::ptr_eq(&got, &s1));
        assert!(!Rc::ptr_eq(&got, &s0));
        assert!(t.get(id0).is_none(), "a late reply for id0 is dropped, not misdelivered");
    }

    /// The RPC runtime of a two-node simulated machine built from `cfg`.
    fn rpc_on(cfg: MachineConfig) -> (Sim, Rpc) {
        use oam_model::NodeStats;
        use oam_net::Network;
        let sim = Sim::new(5);
        let cfg = Rc::new(cfg);
        let stats: Vec<_> = (0..2).map(|_| Rc::new(RefCell::new(NodeStats::new()))).collect();
        let net = Network::new(&sim, &cfg, stats.clone());
        let nodes: Vec<Node> = (0..2)
            .map(|i| Node::new(&sim, NodeId(i), 2, Rc::clone(&cfg), Rc::clone(&stats[i])))
            .collect();
        let rpc = Rpc::new(Am::new(net, cfg, nodes));
        (sim, rpc)
    }

    #[test]
    fn decode_request_splits_header_and_args_with_and_without_admission() {
        // With admission control on, a deadline word follows the call id;
        // decoding must skip it rather than read it as the first argument.
        for admission in [false, true] {
            let mut cfg = MachineConfig::cm5(2);
            if admission {
                cfg = cfg.with_admission(oam_model::AdmissionConfig::default());
            }
            let (_sim, rpc) = rpc_on(cfg);
            let node = rpc.nodes()[0].clone();
            let p = rpc.marshal_request(&node, 7, 12_345, &|w| (3u32, 4.5f64).encode(w));
            assert_eq!(p.len(), rpc.header_len() + 12, "admission {admission}");
            let (cid, (a, b)): (u32, (u32, f64)) = rpc.decode_request(&p);
            assert_eq!((cid, a, b), (7, 3, 4.5), "admission {admission}");
        }
    }
}
