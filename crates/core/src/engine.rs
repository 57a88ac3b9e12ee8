//! The policy-driven call engine — the paper's core mechanism (§2) behind
//! one dispatch path.
//!
//! A remote procedure is compiled (here: written as an `async` block built
//! by its [`CallBody`]) under two optimistic assumptions: it will not
//! block, and it will finish quickly. Under [`CallMode::Orpc`] the engine
//! executes it **inline** in the message handler by polling the future once
//! on the receiving thread's stack:
//!
//! * `Poll::Ready` without suspension → **success**: the call ran as a pure
//!   Active Message; no thread was ever created (the provisional slot is
//!   released for free), and no heap was touched either: the future ran in
//!   its method's recycled box and the packet in the engine's spare `Rc`.
//! * `Poll::Pending` → the handler attempted to block or ran too long; the
//!   node's abort-cause cell says why ([`AbortReason`]), and the execution
//!   **aborts** per the method's resolved [`AbortStrategy`]:
//!     * [`AbortStrategy::Promote`] — the partially-executed future becomes
//!       a real thread (*lazy thread creation*, the paper's continuation
//!       abort). No work is redone; the wait-list registrations the handler
//!       made while blocking carry over to the thread.
//!     * [`AbortStrategy::Rerun`] — the future is dropped (its `Drop` impls
//!       deregister from wait lists) and a *fresh* future from the call body
//!       runs as a thread from the beginning. Requires the paper's §3.3
//!       restriction: the procedure may only mutate shared state once all
//!       its locks are held and its conditions tested.
//!     * [`AbortStrategy::Nack`] — the future is dropped and a negative
//!       acknowledgment is sent to the caller, who backs off and resends.
//!
//! Under [`CallMode::Trpc`] every call is dispatched straight to a fresh
//! thread — Traditional RPC, the paper's comparison baseline (§3.2).
//!
//! Which of the two a method uses, and whether it adapts, is a per-method
//! [`ExecPolicy`] (`MachineConfig::policies`, falling back to the mode the
//! method registered with); how aborts resolve and how long the optimistic
//! attempt may run are machine-wide (`MachineConfig::abort_strategy`,
//! `MachineConfig::handler_budget`). One [`MethodSite`] registry entry
//! serves both modes.
//!
//! # Adaptive dispatch
//!
//! An [`ExecPolicy`] may carry an [`AdaptivePolicy`]: the site then counts
//! attempts and aborts over a sliding window and **demotes** the method
//! from ORPC to TRPC when the window's abort rate crosses the configured
//! threshold — the runtime analogue of the paper's §6 observation that
//! ORPC only wins when handlers usually don't block. After a configured
//! number of threaded calls the site **re-probes**: it switches back to
//! ORPC for a short probe window and stays only if the abort rate has
//! dropped below the (hysteretic) promotion threshold. Every transition
//! emits [`TraceKind::ModeSwitch`]. All counters are driven by message
//! arrivals in virtual time, so the switching points are a pure function
//! of the simulated execution — adaptive runs are exactly as deterministic
//! and replayable as static ones.
//!
//! # The rerun idempotency contract
//!
//! A procedure resolved as [`AbortStrategy::Rerun`] may be executed more
//! than once *per arrival*: the optimistic attempt runs the body from the
//! top, and if it aborts, a fresh future built from the **same**
//! [`OamCall`] (same `Rc<Packet>`) replays it as a thread. The §3.3 rule —
//! mutate shared state only after every lock is held and every condition
//! tested — is exactly what makes that replay safe: all observable effects
//! happen in the post-synchronization suffix, which runs once.
//!
//! # One frame per call: duplicates, cancels, NACKs
//!
//! Requests start with a `call_id` header word (and a deadline word on
//! machines with admission control). The engine keeps one per-server-node
//! table of `CallFrame`s keyed on `(caller, call_id)`, used by two
//! features and by nothing else — the inline success path of a plain
//! method on a lossless machine never touches it:
//!
//! * **Duplicate suppression**, when the fabric can deliver duplicates
//!   (retransmission enabled, or a fault plan). A request is *fresh* the
//!   first time its key is seen; an abort-driven rerun of the same packet
//!   instance (by `Rc` address) is allowed through; any other copy is a
//!   duplicate — dropped while the original is still executing, answered
//!   from the frame's cached reply once it has finished. So a call body
//!   may be attempted several times on one arrival but is **executed to
//!   completion at most once per call id**, no matter how many copies of
//!   the request the fabric delivers. The frame outlives its call.
//! * **Cancellation** of streaming methods ([`MethodSite::with_cancellation`]):
//!   the frame records the cancel and the executing thread, which a
//!   cancel frame wakes. Without duplicate suppression the frame goes
//!   when the call settles.
//!
//! The engine sends the protocol frames that need no handler body itself:
//! the cached reply to a duplicate ([`REPLY_ID`]), and the NACK
//! ([`NACK_ID`]) for a call shed by admission control or aborted under
//! [`AbortStrategy::Nack`], with a retry-after hint under admission. A
//! NACKed call's frame is dropped, so the caller's re-issue can execute.

use std::any::{Any, TypeId};
use std::cell::{Cell, OnceCell, RefCell};
use std::collections::{BTreeMap, HashMap};
use std::future::Future;
use std::ops::Range;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

use oam_am::{Am, HandlerId, PacketHandler};
use oam_model::{
    AbortReason, AbortStrategy, AdaptivePolicy, AdmissionConfig, CallMode, Dur, ExecPolicy,
    MachineConfig, NodeId, NodeTable, TraceKind,
};
use oam_net::{Packet, PayloadBuf, SHORT_PAYLOAD_MAX};
use oam_threads::{ExecMode, Node, Placement, ThreadId};

/// `call_id` marking a one-way (asynchronous) RPC: nothing to correlate,
/// suppress, or reply to.
pub const ONEWAY_SENTINEL: u32 = u32::MAX;

/// Reserved handler id for call replies: payload `[call_id][result...]`.
/// The engine sends one itself when it answers a duplicate of a finished
/// call from the call's frame.
pub const REPLY_ID: HandlerId = HandlerId(0xFFFF_0001);

/// Reserved handler id for NACKs: payload `[call_id]`, or
/// `[call_id][retry_after_us]` on machines with [`AdmissionConfig`] set.
/// The engine sends both kinds: for a call shed by admission and for a
/// call aborted under [`AbortStrategy::Nack`].
pub const NACK_ID: HandlerId = HandlerId(0xFFFF_0002);

/// Deadline-header value marking a call with no deadline. Requests carry a
/// deadline word only on machines with admission control configured.
pub const NO_DEADLINE: u32 = u32::MAX;

/// Bit position of the priority field inside the deadline header word.
pub const PRIORITY_SHIFT: u32 = 30;

/// Mask selecting the deadline field of the header word (low 30 bits).
pub const DEADLINE_MASK: u32 = (1 << PRIORITY_SHIFT) - 1;

/// Per-call dispatch priority, carried in the top two bits of the deadline
/// header word (so it only travels on machines with [`AdmissionConfig`]
/// set — without admission the word is absent and every call is
/// [`Priority::Normal`]).
///
/// The encoding is chosen so the legacy format is preserved byte-for-byte:
/// `Normal` writes the deadline word unchanged (top bits `00` for any
/// representable deadline, `11` for the legacy [`NO_DEADLINE`] pattern),
/// and both decode back to `Normal`. `High`/`Low` use the two patterns no
/// legacy word produces. Deadlines on prioritized calls must therefore fit
/// in 30 bits of absolute virtual microseconds (≈ 17.9 virtual minutes);
/// [`pack_deadline_word`] debug-asserts this.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Priority {
    /// Dispatch ahead of normal traffic; admission sheds it last.
    High,
    /// The default: exactly the legacy behavior.
    #[default]
    Normal,
    /// Dispatch behind normal traffic; admission sheds it first.
    Low,
}

impl Priority {
    fn code(self) -> u32 {
        match self {
            Priority::High => 0b01,
            Priority::Normal => 0b00,
            Priority::Low => 0b10,
        }
    }

    /// Where this priority places work on the run queue: `High` jumps the
    /// queue, `Low` always yields to it, `Normal` follows the machine's
    /// configured policy (identical to pre-priority dispatch).
    pub fn placement(self) -> Placement {
        match self {
            Priority::High => Placement::Front,
            Priority::Normal => Placement::Policy,
            Priority::Low => Placement::Back,
        }
    }
}

/// Encode a deadline and priority into the request's deadline header word.
/// `Normal` passes `deadline_us` through unchanged, keeping the legacy
/// single-shot encoding byte-identical.
pub fn pack_deadline_word(deadline_us: u32, prio: Priority) -> u32 {
    if prio == Priority::Normal {
        return deadline_us;
    }
    let field = if deadline_us == NO_DEADLINE {
        DEADLINE_MASK
    } else {
        debug_assert!(
            deadline_us < DEADLINE_MASK,
            "deadline {deadline_us}µs does not fit the 30-bit field of a prioritized call"
        );
        deadline_us & DEADLINE_MASK
    };
    (prio.code() << PRIORITY_SHIFT) | field
}

/// Decode a deadline header word into `(deadline_us, priority)`. Top bits
/// `00` and the legacy `NO_DEADLINE` pattern (`11`) decode as `Normal`
/// with the word unchanged; an all-ones 30-bit field under `High`/`Low`
/// restores [`NO_DEADLINE`].
pub fn unpack_deadline_word(word: u32) -> (u32, Priority) {
    let prio = match word >> PRIORITY_SHIFT {
        0b01 => Priority::High,
        0b10 => Priority::Low,
        _ => return (word, Priority::Normal),
    };
    let field = word & DEADLINE_MASK;
    let deadline = if field == DEADLINE_MASK { NO_DEADLINE } else { field };
    (deadline, prio)
}

/// Decode just the call-correlation header (first word, little-endian)
/// from a request payload.
pub fn peek_call_id(payload: &[u8]) -> u32 {
    let bytes: [u8; 4] = payload[..4].try_into().expect("request call id");
    u32::from_le_bytes(bytes)
}

/// Decode the deadline header word (second word, little-endian) from a
/// request payload into `(deadline_us, priority)`. Only meaningful on
/// machines with [`AdmissionConfig`] set — without it the word is absent.
fn peek_deadline_word(payload: &[u8]) -> (u32, Priority) {
    let bytes: [u8; 4] = payload[4..8].try_into().expect("request deadline");
    unpack_deadline_word(u32::from_le_bytes(bytes))
}

/// The context an optimistic call executes in: everything a handler body
/// needs to compute, synchronize, and reply.
#[derive(Clone)]
pub struct OamCall {
    /// The Active Message layer (for replies and further sends).
    pub am: Am,
    /// The node executing the call.
    pub node: Node,
    /// The message that triggered it.
    pub pkt: Rc<Packet>,
}

/// A handler future as a thread runs it.
type BoxedCall = Pin<Box<dyn Future<Output = ()>>>;

/// The body of one remote procedure on one node: builds the handler future
/// for each call, and polls the optimistic attempt in recycled storage.
///
/// The closure must be re-invocable: the rerun strategy calls it a second
/// time with the same packet. Its future type stays concrete inside, so an
/// attempt refills a recycled box with [`Pin::set`]: a call that completes
/// inline returns the box for the next call, and a call that aborts and is
/// promoted keeps it as its thread (the next attempt then boxes afresh).
/// Reruns and thread-per-call dispatch box a fresh future.
pub struct CallBody(Box<dyn Body>);

impl CallBody {
    /// The call body whose handler future `make` builds.
    pub fn new<F, Fut>(make: F) -> Self
    where
        F: Fn(&OamCall) -> Fut + 'static,
        Fut: Future<Output = ()> + 'static,
    {
        CallBody(Box::new(Typed { make, slot: OnceCell::new() }))
    }
}

/// Recycled storage for a completed future of one type.
type Slot<Fut> = Cell<Option<Pin<Box<Fut>>>>;

/// The engine's slots, one per future type, each shared by the sites of
/// every node that build that type.
type Slots = Vec<(TypeId, Rc<dyn Any>)>;

/// The object-safe face of a [`CallBody`].
trait Body {
    /// Take this body's future type's slot from `slots`, adding it if it is
    /// the first of its type.
    fn bind(&self, slots: &mut Slots);

    /// The call's future in fresh storage.
    fn boxed(&self, call: &OamCall) -> BoxedCall;

    /// Poll the call's future once in the recycled slot: `None` when it
    /// completed (the box goes back to the slot), else the suspended
    /// future, which takes the box with it.
    fn attempt(&self, call: &OamCall, cx: &mut Context<'_>) -> Option<BoxedCall>;
}

struct Typed<F, Fut> {
    make: F,
    /// Shared by one method's sites on all of the engine's nodes, which
    /// build the same future type: one box serves them all and stays warm
    /// in cache, where a box per site would not on a machine of many
    /// nodes. Empty while a future from it is polled, so a call dispatched
    /// inside that poll (a nested handler) boxes its own.
    slot: OnceCell<Rc<Slot<Fut>>>,
}

impl<F, Fut> Body for Typed<F, Fut>
where
    F: Fn(&OamCall) -> Fut,
    Fut: Future<Output = ()> + 'static,
{
    fn bind(&self, slots: &mut Slots) {
        let ty = TypeId::of::<Fut>();
        let slot = match slots.iter().find(|(t, _)| *t == ty) {
            Some((_, any)) => {
                Rc::clone(any).downcast::<Slot<Fut>>().expect("a slot is keyed by its type")
            }
            None => {
                let slot = Rc::new(Slot::<Fut>::new(None));
                slots.push((ty, slot.clone()));
                slot
            }
        };
        assert!(self.slot.set(slot).is_ok(), "a call body serves one site");
    }

    fn boxed(&self, call: &OamCall) -> BoxedCall {
        Box::pin((self.make)(call))
    }

    fn attempt(&self, call: &OamCall, cx: &mut Context<'_>) -> Option<BoxedCall> {
        let slot = self.slot.get().expect("a call body is bound to its engine");
        let fut = (self.make)(call);
        let mut boxed = match slot.take() {
            Some(mut boxed) => {
                boxed.as_mut().set(fut);
                boxed
            }
            None => Box::pin(fut),
        };
        match boxed.as_mut().poll(cx) {
            Poll::Ready(()) => {
                slot.set(Some(boxed));
                None
            }
            Poll::Pending => Some(boxed),
        }
    }
}

/// Server-side record of one logical call, keyed `(caller, call_id)` in
/// the engine's frame table: which packet instance claimed the call (so
/// reruns pass and retransmissions don't), the cached reply for answering
/// duplicates, completion, and the cancel state of a cancellable call.
struct CallFrame {
    /// While executing, the packet instance (by `Rc` address) that claimed
    /// the call — so an abort-driven *rerun* of the same arrival is allowed
    /// through while a retransmitted or fabric-duplicated copy is not.
    claimed_by: Option<usize>,
    /// Cached reply payload (header included), re-sent verbatim when a
    /// duplicate of an already-executed call arrives. Shares the original
    /// reply's buffer — caching is a refcount bump.
    reply: Option<PayloadBuf>,
    done: bool,
    /// A client cancel frame can abort the call (a streaming method).
    cancellable: bool,
    /// A cancel frame arrived; the call's wrapper future resolves on its
    /// next poll without touching the handler body again.
    cancelled: bool,
    /// Thread executing the call once it left the inline path (promoted,
    /// rerun, or TRPC-dispatched), so a cancel can wake it promptly.
    tid: Option<ThreadId>,
    /// Handler tag, for per-method cancel accounting.
    tag: u32,
}

struct EngineInner {
    cfg: Rc<MachineConfig>,
    /// Per-server-node call frames. With duplicate suppression on, a frame
    /// outlives its call (`done`) to answer retransmissions; without it,
    /// only cancellable calls get one, removed when the call settles.
    /// Plain single-shot methods on a lossless machine never touch it.
    frames: NodeTable<RefCell<HashMap<(NodeId, u32), CallFrame>>>,
    /// Duplicate suppression enabled (retransmission on, or a fault plan
    /// that can duplicate/redeliver packets).
    dedup_on: bool,
    /// Registered method names by handler id — collision detection at
    /// registration time plus human-readable report labels.
    names: RefCell<BTreeMap<u32, String>>,
    /// Overload control, copied out of the config for cheap access.
    admission: Option<AdmissionConfig>,
    /// Per-node count of engine-admitted calls still in flight (inline,
    /// promoted, rerun, or queued as threads). Only maintained when
    /// `admission` is set; empty otherwise so existing workloads pay
    /// nothing.
    pending: NodeTable<Rc<Cell<usize>>>,
    /// Recycled future storage of every method this engine serves.
    slots: RefCell<Slots>,
    /// The packet storage of the last call that completed inline, unshared
    /// and with its payload dropped, for the next arrival to refill (the
    /// `CallSlot` spare idiom of the RPC runtime).
    spare_pkt: Cell<Option<Rc<Packet>>>,
}

/// The call engine: owns the server-side call lifecycle for every
/// registered remote procedure — mode selection, the optimistic attempt,
/// abort resolution, duplicate suppression, and the per-method name
/// registry. One per machine; cheap to clone.
#[derive(Clone)]
pub struct CallEngine {
    inner: Rc<EngineInner>,
}

impl CallEngine {
    /// Build the engine serving the server nodes `owned` (the nodes this
    /// machine replica executes).
    pub fn new(cfg: Rc<MachineConfig>, owned: Range<usize>) -> Self {
        let dedup_on = cfg.retransmit || cfg.fault_plan.is_some();
        let admission = cfg.admission;
        let counted = if admission.is_some() { owned.clone() } else { owned.start..owned.start };
        let pending = NodeTable::new(counted, |_| Rc::new(Cell::new(0)));
        CallEngine {
            inner: Rc::new(EngineInner {
                cfg,
                frames: NodeTable::new(owned, |_| RefCell::new(HashMap::new())),
                dedup_on,
                names: RefCell::new(BTreeMap::new()),
                admission,
                pending,
                slots: RefCell::new(Vec::new()),
                spare_pkt: Cell::new(None),
            }),
        }
    }

    /// Machine configuration.
    pub fn config(&self) -> &Rc<MachineConfig> {
        &self.inner.cfg
    }

    /// The execution policy for method `id`: the per-method entry from
    /// `MachineConfig::policies` if present, else the defaults for the mode
    /// the method was registered under.
    pub fn policy_for(&self, id: u32, registered: CallMode) -> ExecPolicy {
        self.inner
            .cfg
            .policies
            .get(&id)
            .cloned()
            .unwrap_or_else(|| ExecPolicy::for_mode(registered))
    }

    /// Record a method name for handler `id`, panicking if a *different*
    /// name already claimed the id — `handler_id_for` is a 31-bit FNV-1a
    /// hash, so two names can collide silently otherwise. Registering the
    /// same name again (e.g. on every node) is fine.
    pub fn register_name(&self, id: u32, name: &str) {
        let mut names = self.inner.names.borrow_mut();
        match names.get(&id) {
            Some(prev) if prev != name => panic!(
                "handler id collision: {id:#010x} is claimed by both `{prev}` and `{name}` — \
                 rename one of the methods"
            ),
            Some(_) => {}
            None => {
                names.insert(id, name.to_string());
            }
        }
    }

    /// Registered handler-id → method-name mappings (for report labels).
    pub fn method_names(&self) -> BTreeMap<u32, String> {
        self.inner.names.borrow().clone()
    }

    /// Build the registry entry executing calls of `body` under `policy`.
    /// Payloads start with the `call_id` header (and the deadline word on
    /// machines with admission control). `expects_reply` distinguishes
    /// `rpc` from `oneway` methods: only reply-bearing calls can be NACKed
    /// (the caller is waiting); one-way calls resolved as NACK fall back to
    /// rerun.
    pub fn site(&self, policy: ExecPolicy, expects_reply: bool, body: CallBody) -> MethodSite {
        let mut abort = self.inner.cfg.abort_strategy;
        let nack_fallback = abort == AbortStrategy::Nack && !expects_reply;
        if nack_fallback {
            abort = AbortStrategy::Rerun;
        }
        body.0.bind(&mut self.inner.slots.borrow_mut());
        let adaptive = policy.adaptive.map(|p| AdaptiveState {
            policy: p,
            mode: Cell::new(policy.mode),
            window_attempts: Cell::new(0),
            window_aborts: Cell::new(0),
            trpc_calls: Cell::new(0),
            probing: Cell::new(false),
        });
        MethodSite {
            engine: self.clone(),
            body: body.0,
            abort,
            nack_fallback,
            static_mode: policy.mode,
            expects_reply,
            cancellable: false,
            adaptive,
        }
    }

    /// Cache the encoded reply to `call` in its frame, when duplicate
    /// suppression is on, so a retransmitted request is answered without
    /// re-executing.
    pub fn cache_reply(&self, call: &OamCall, call_id: u32, payload: &PayloadBuf) {
        if !self.inner.dedup_on || call_id == ONEWAY_SENTINEL {
            return;
        }
        let mut frames = self.inner.frames[call.node.id().index()].borrow_mut();
        if let Some(f) = frames.get_mut(&(call.pkt.src, call_id)) {
            f.reply = Some(payload.clone());
        }
    }

    /// Abort the in-flight execution of `(caller, call_id)` on `node` in
    /// response to a client cancel frame. Marks the call cancelled — its
    /// wrapper future resolves on its next poll, dropping the handler body
    /// (which deregisters any wait-list registrations it holds) — and wakes
    /// the executing thread at the queue front so the abort is prompt.
    ///
    /// Returns `false` when nothing was in flight under that key: the call
    /// already completed, never arrived (the cancel overtook it through
    /// fabric reordering), or was not registered as cancellable. Cancel is
    /// best-effort by design — a lost or late cancel means the server runs
    /// the call to completion and the client drops the stale results.
    pub fn cancel_call(&self, node: &Node, caller: NodeId, call_id: u32) -> bool {
        let hit = {
            let mut frames = self.inner.frames[node.id().index()].borrow_mut();
            match frames.get_mut(&(caller, call_id)) {
                Some(f) if f.cancellable && !f.cancelled && !f.done => {
                    f.cancelled = true;
                    Some((f.tid, f.tag))
                }
                _ => None,
            }
        };
        let Some((tid, tag)) = hit else { return false };
        node.stats().borrow_mut().method_mut(tag).cancels += 1;
        node.emit(TraceKind::CallCancelled { tag, caller, call_id });
        if let Some(tid) = tid {
            node.make_runnable(tid, Placement::Front);
        }
        true
    }
}

impl CallEngine {
    /// Whether a cancel frame has marked the tracked call.
    fn cancelled(&self, t: Tracked) -> bool {
        t.cancellable && self.inner.frames[t.sidx].borrow().get(&t.key).is_some_and(|f| f.cancelled)
    }

    /// Record the thread now executing a tracked cancellable call, so a
    /// cancel frame can wake it.
    fn record_tid(&self, t: Tracked, tid: ThreadId) {
        if t.cancellable {
            if let Some(f) = self.inner.frames[t.sidx].borrow_mut().get_mut(&t.key) {
                f.tid = Some(tid);
            }
        }
    }

    /// Close a tracked call's frame once its body is done, or cancelled.
    /// With duplicate suppression on the frame stays, marked done, so a
    /// retransmission is answered from it instead of re-executing;
    /// otherwise it goes.
    fn settle(&self, t: Tracked) {
        let mut frames = self.inner.frames[t.sidx].borrow_mut();
        if !self.inner.dedup_on {
            frames.remove(&t.key);
        } else if let Some(f) = frames.get_mut(&t.key) {
            f.done = true;
            f.claimed_by = None;
        }
    }

    /// Upper bound on the retry-after hint a NACK may carry.
    const RETRY_AFTER_CAP: Dur = Dur::from_micros(500);

    /// The retry-after hint a NACK leaving `sidx` carries on a machine
    /// with admission control: the admitted pending-call depth scaled by
    /// the NACK back-off base, capped at [`Self::RETRY_AFTER_CAP`]. It
    /// deliberately ignores the NI input backlog: that snapshot depends on
    /// same-timestamp event micro-order, which the host-parallel engine
    /// does not reproduce, and a hint on the wire must be
    /// partition-invariant. `None` without admission control.
    fn retry_after_us(&self, sidx: usize) -> Option<u32> {
        self.inner.admission?;
        let depth = self.inner.pending[sidx].get() as u64;
        let base_ns = self.inner.cfg.cost.nack_backoff_base.as_nanos();
        let hint_ns = depth.saturating_mul(base_ns).min(Self::RETRY_AFTER_CAP.as_nanos());
        Some((hint_ns / 1_000).max(1) as u32)
    }

    /// NACK `call_id` back to `caller`: `[call_id]`, or
    /// `[call_id][retry_after_us]` when a hint is given.
    fn send_nack(&self, am: &Am, node: &Node, caller: NodeId, call_id: u32, hint: Option<u32>) {
        let mut bytes = [0u8; 8];
        bytes[..4].copy_from_slice(&call_id.to_le_bytes());
        let len = match hint {
            Some(us) => {
                bytes[4..].copy_from_slice(&us.to_le_bytes());
                8
            }
            None => 4,
        };
        am.send_from_handler(node, caller, NACK_ID, PayloadBuf::inline(&bytes[..len]));
    }
}

/// What duplicate suppression decided for an arrival.
#[derive(Clone, Copy)]
enum Claim {
    /// A duplicate, already dropped or answered: there is nothing to run.
    Suppressed,
    /// Run the body; `Some` names the call whose frame closes when it ends.
    Run(Option<Tracked>),
}

/// A call with a frame to settle.
#[derive(Clone, Copy)]
struct Tracked {
    sidx: usize,
    key: (NodeId, u32),
    /// The site is cancellable: a cancel frame can mark the call.
    cancellable: bool,
}

/// A call off the inline path — promoted, rerun, or run as a thread —
/// behind one future. Before each poll of the body it checks for a
/// cancel; once one has come it resolves without polling the body again,
/// dropping it (its `Drop` impls deregister it from any wait lists it
/// joined, the undo the rerun strategy relies on too). When the body ends,
/// or is cancelled, it closes the call's frame, so retransmissions of a
/// cancelled call are answered from the frame, not re-executed, then lets
/// go of the packet and the admission token. Holding the packet until the
/// frame closes means no later arrival can be stored at the address the
/// frame's claim names, whether or not the body keeps the packet. The
/// scheduler runs it in the storage of a finished `Offline` when one is
/// spare, so the wrapper itself allocates nothing once warm.
struct Offline {
    /// `None` once the body has finished or been dropped on a cancel.
    body: Option<BoxedCall>,
    engine: CallEngine,
    /// The call's frame and the packet that claimed it.
    frame: Option<(Tracked, Rc<Packet>)>,
    admit: Option<AdmitGuard>,
}

impl Offline {
    fn new(
        site: &MethodSite,
        body: BoxedCall,
        track: Option<Tracked>,
        pkt: &Rc<Packet>,
        admit: Option<AdmitGuard>,
    ) -> Self {
        let frame = track.map(|t| (t, Rc::clone(pkt)));
        Offline { body: Some(body), engine: site.engine.clone(), frame, admit }
    }
}

impl Future for Offline {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let this = self.get_mut();
        if let Some(body) = &mut this.body {
            let cancelled = this.frame.as_ref().is_some_and(|(t, _)| this.engine.cancelled(*t));
            if !cancelled && body.as_mut().poll(cx).is_pending() {
                return Poll::Pending;
            }
            this.body = None;
        }
        if let Some((t, pkt)) = this.frame.take() {
            this.engine.settle(t);
            drop(pkt);
        }
        this.admit = None;
        Poll::Ready(())
    }
}

/// Per-method adaptive-dispatch state (interior-mutable: sites live behind
/// `Rc` in the handler registry).
struct AdaptiveState {
    policy: AdaptivePolicy,
    /// Current effective mode (starts at the policy's static mode).
    mode: Cell<CallMode>,
    window_attempts: Cell<u32>,
    window_aborts: Cell<u32>,
    /// Threaded calls served since demotion (drives re-probing).
    trpc_calls: Cell<u32>,
    /// Currently re-probing ORPC after a demotion (shorter window, stricter
    /// threshold).
    probing: Cell<bool>,
}

/// The registry entry for one remote procedure on one node: executes
/// arrivals per its resolved [`ExecPolicy`] — optimistically inline under
/// ORPC, thread-per-call under TRPC, or adaptively between the two.
pub struct MethodSite {
    engine: CallEngine,
    body: Box<dyn Body>,
    /// Resolved abort resolution: the machine-wide strategy, with
    /// [`AbortStrategy::Nack`] falling back to rerun on one-way methods.
    abort: AbortStrategy,
    /// The machine asks for [`AbortStrategy::Nack`] and this method is
    /// one-way: the resolution fell back to rerun (no caller to NACK) and aborts
    /// count as [`oam_model::MethodStats::nack_fallback_reruns`].
    nack_fallback: bool,
    static_mode: CallMode,
    /// The method replies (an `rpc`, not a `oneway`): only these calls are
    /// subject to admission control and deadlines — their caller can see
    /// the NACK or give up.
    expects_reply: bool,
    /// Executions get a call frame so a client cancel frame can abort them
    /// mid-flight (streaming sessions). Off by default: single-shot calls
    /// keep the frame-free hot path and a cancel aimed at them is a no-op
    /// on the server.
    cancellable: bool,
    adaptive: Option<AdaptiveState>,
}

/// RAII token for one engine-admitted call: created when admission control
/// accepts an arrival, decrements the node's pending counter when the call
/// finishes (inline, as a promoted/rerun thread, or on NACK abort).
struct AdmitGuard {
    pending: Rc<Cell<usize>>,
}

impl AdmitGuard {
    fn new(pending: &Rc<Cell<usize>>, node: &Node) -> Self {
        let n = pending.get() + 1;
        pending.set(n);
        let mut st = node.stats().borrow_mut();
        st.admission_peak = st.admission_peak.max(n as u64);
        AdmitGuard { pending: Rc::clone(pending) }
    }
}

impl Drop for AdmitGuard {
    fn drop(&mut self) {
        self.pending.set(self.pending.get().saturating_sub(1));
    }
}

impl MethodSite {
    /// Give executions of this method a call frame so
    /// [`CallEngine::cancel_call`] can abort them; the stub layer sets it
    /// on streaming (session) methods.
    pub fn with_cancellation(mut self) -> Self {
        self.cancellable = true;
        self
    }

    /// The abort resolution this method executes under.
    pub fn abort_strategy(&self) -> AbortStrategy {
        self.abort
    }

    /// The mode the next arrival will dispatch under.
    pub fn current_mode(&self) -> CallMode {
        match &self.adaptive {
            Some(a) => a.mode.get(),
            None => self.static_mode,
        }
    }

    /// Apply duplicate suppression and cancellation to an arrival before
    /// its body runs: a fresh call claims a [`CallFrame`]; a retransmitted
    /// or fabric-duplicated copy is suppressed (dropped while the original
    /// executes, answered from the frame's cached reply after).
    fn claim(&self, call: &OamCall) -> Claim {
        let eng = &self.engine.inner;
        if !eng.dedup_on && !self.cancellable {
            return Claim::Run(None);
        }
        let call_id = peek_call_id(&call.pkt.payload);
        if call_id == ONEWAY_SENTINEL {
            // Unreliable oneway: nothing to correlate or suppress.
            return Claim::Run(None);
        }
        let caller = call.pkt.src;
        let track = Tracked {
            sidx: call.node.id().index(),
            key: (caller, call_id),
            cancellable: self.cancellable,
        };
        let pkt_ptr = Rc::as_ptr(&call.pkt) as usize;
        // `None`: run the body. `Some(None)`: a copy of a call still
        // executing, dropped. `Some(Some(reply))`: a copy of a finished
        // call, answered with its reply.
        let duplicate = {
            let mut frames = eng.frames[track.sidx].borrow_mut();
            match frames.get(&track.key) {
                Some(f) if eng.dedup_on && f.done => {
                    Some(Some(f.reply.clone().unwrap_or_else(|| {
                        // Acks cache too, so this should not happen: an
                        // empty reply still lets the caller progress.
                        PayloadBuf::inline(&call_id.to_le_bytes())
                    })))
                }
                Some(f) if eng.dedup_on && f.claimed_by != Some(pkt_ptr) => Some(None),
                Some(_) => None,
                None => {
                    let frame = CallFrame {
                        claimed_by: Some(pkt_ptr),
                        reply: None,
                        done: false,
                        cancellable: self.cancellable,
                        cancelled: false,
                        tid: None,
                        tag: call.pkt.tag,
                    };
                    frames.insert(track.key, frame);
                    None
                }
            }
        };
        let Some(resend) = duplicate else { return Claim::Run(Some(track)) };
        call.node.stats().borrow_mut().dups_suppressed += 1;
        call.node.emit(TraceKind::DupSuppressed { caller, call_id });
        if let Some(reply) = resend {
            if reply.len() > SHORT_PAYLOAD_MAX {
                call.am.send_bulk(&call.node, caller, REPLY_ID, reply);
            } else {
                call.am.send_from_handler(&call.node, caller, REPLY_ID, reply);
            }
        }
        Claim::Suppressed
    }

    /// Shared storage for an arriving packet: the spare left by the last
    /// inline completion, refilled, or a fresh `Rc`.
    fn packet(&self, pkt: Packet) -> Rc<Packet> {
        match self.engine.inner.spare_pkt.take() {
            Some(mut spare) => {
                *Rc::get_mut(&mut spare).expect("a spare packet is unshared") = pkt;
                spare
            }
            None => Rc::new(pkt),
        }
    }

    /// Keep a finished call's packet storage as the spare, if nothing else
    /// holds it. Its payload drops here, as it would with the packet, so a
    /// pooled buffer goes back to its pool now.
    fn recycle(&self, mut pkt: Rc<Packet>) {
        if let Some(p) = Rc::get_mut(&mut pkt) {
            p.payload = PayloadBuf::default();
            self.engine.inner.spare_pkt.set(Some(pkt));
        }
    }

    /// One optimistic attempt: poll the handler future once on the current
    /// stack, then resolve success or abort. A suppressed duplicate pays
    /// the entry charge and is answered by the claim; it is no attempt.
    fn run_optimistic(
        &self,
        am: &Am,
        node: &Node,
        pkt: Packet,
        admit: Option<AdmitGuard>,
        prio: Priority,
    ) {
        let cost = &node.config().cost;
        let tag = pkt.tag;
        node.add_pending(cost.oam_entry);
        let call = OamCall { am: am.clone(), node: node.clone(), pkt: self.packet(pkt) };
        let Claim::Run(track) = self.claim(&call) else {
            // No frame names a suppressed copy's packet.
            self.recycle(call.pkt);
            return;
        };
        {
            let mut st = node.stats().borrow_mut();
            st.oam_attempts += 1;
            st.method_mut(tag).attempts += 1;
        }
        let tid = node.reserve_provisional();

        // Optimistic inline execution: one poll on the current stack.
        let prev_mode = node.set_mode(ExecMode::Optimistic);
        let prev_provisional = node.set_active_provisional_replace(Some(tid));
        node.reset_handler_elapsed();
        let waker = Waker::noop();
        let mut cx = Context::from_waker(waker);
        let suspended = self.body.attempt(&call, &mut cx);
        node.set_active_provisional_replace(prev_provisional);
        node.set_mode(prev_mode);

        let Some(fut) = suspended else {
            if let Some(t) = track {
                self.engine.settle(t);
            }
            drop(admit);
            node.release_provisional(tid);
            {
                let mut st = node.stats().borrow_mut();
                st.oam_successes += 1;
                st.method_mut(tag).inline_ok += 1;
            }
            node.emit(TraceKind::OamSuccess { tag });
            node.add_pending(cost.oam_commit);
            self.after_attempt(node, tag, false);
            // Its frame is done, so no claim names this packet's address.
            self.recycle(call.pkt);
            return;
        };
        let cause = node
            .take_abort_cause()
            .expect("optimistic handler suspended without recording an abort cause");
        {
            let mut st = node.stats().borrow_mut();
            st.record_abort(cause);
            st.method_mut(tag).aborts[cause.index()] += 1;
        }
        node.emit(TraceKind::OamAborted { tag, reason: cause });
        node.add_pending(cost.oam_abort_overhead);
        let thread = match self.abort {
            AbortStrategy::Promote => {
                let mut st = node.stats().borrow_mut();
                st.oam_promotions += 1;
                st.method_mut(tag).promotions += 1;
                fut
            }
            AbortStrategy::Rerun => {
                // Undo: dropping the future deregisters it from any wait
                // lists it joined.
                drop(fut);
                {
                    let mut st = node.stats().borrow_mut();
                    st.oam_reruns += 1;
                    let m = st.method_mut(tag);
                    if self.nack_fallback {
                        m.nack_fallback_reruns += 1;
                    } else {
                        m.reruns += 1;
                    }
                }
                self.body.boxed(&call)
            }
            AbortStrategy::Nack => {
                drop(fut);
                drop(admit);
                if let Some(t) = track {
                    // The caller re-issues the call under a fresh id, so a
                    // retransmission of this one must be free to execute.
                    self.engine.inner.frames[t.sidx].borrow_mut().remove(&t.key);
                }
                node.release_provisional(tid);
                {
                    let mut st = node.stats().borrow_mut();
                    st.oam_nacks_sent += 1;
                    st.method_mut(tag).nacks_sent += 1;
                }
                let call_id = peek_call_id(&call.pkt.payload);
                debug_assert_ne!(call_id, ONEWAY_SENTINEL);
                // Under admission an abort NACK carries the same queue-
                // derived hint as a shed NACK, so aborted callers back off
                // proportionally too.
                let hint = self.engine.retry_after_us(node.id().index());
                self.engine.send_nack(am, node, call.pkt.src, call_id, hint);
                self.after_attempt(node, tag, true);
                return;
            }
        };
        node.promote(tid, Offline::new(self, thread, track, &call.pkt, admit));
        if let Some(t) = track {
            self.engine.record_tid(t, tid);
        }
        if self.abort == AbortStrategy::Rerun || needs_immediate_wake(cause) {
            node.make_runnable(tid, prio.placement());
        }
        self.after_attempt(node, tag, true);
    }

    /// Thread-per-call dispatch (TRPC, or an adaptively demoted method). A
    /// suppressed duplicate pays the dispatch charge and is answered by the
    /// claim; it gets no thread.
    fn run_threaded(
        &self,
        am: &Am,
        node: &Node,
        pkt: Packet,
        admit: Option<AdmitGuard>,
        prio: Priority,
    ) {
        let tag = pkt.tag;
        node.add_pending(node.config().cost.trpc_dispatch);
        let call = OamCall { am: am.clone(), node: node.clone(), pkt: Rc::new(pkt) };
        let Claim::Run(track) = self.claim(&call) else { return };
        node.stats().borrow_mut().method_mut(tag).threaded += 1;
        let thread = Offline::new(self, self.body.boxed(&call), track, &call.pkt, admit);
        let tid = node.spawn_incoming_at(thread, prio.placement());
        if let Some(t) = track {
            self.engine.record_tid(t, tid);
        }
        if let Some(a) = &self.adaptive {
            let served = a.trpc_calls.get() + 1;
            a.trpc_calls.set(served);
            if served >= a.policy.reprobe_after {
                a.probing.set(true);
                a.window_attempts.set(0);
                a.window_aborts.set(0);
                self.switch_mode(node, tag, a, CallMode::Orpc);
            }
        }
    }

    /// Fold one optimistic outcome into the adaptive window; demote (or
    /// settle a probe) at window boundaries.
    fn after_attempt(&self, node: &Node, tag: u32, aborted: bool) {
        let Some(a) = &self.adaptive else { return };
        let attempts = a.window_attempts.get() + 1;
        a.window_attempts.set(attempts);
        if aborted {
            a.window_aborts.set(a.window_aborts.get() + 1);
        }
        let probing = a.probing.get();
        let window = if probing { a.policy.probe_window } else { a.policy.window };
        if attempts < window {
            return;
        }
        let pct = a.window_aborts.get().saturating_mul(100) / attempts;
        a.window_attempts.set(0);
        a.window_aborts.set(0);
        if probing {
            a.probing.set(false);
            if pct > a.policy.promote_abort_pct {
                // Probe failed: back to threads for another re-probe period.
                self.switch_mode(node, tag, a, CallMode::Trpc);
            }
            // Probe passed: stay ORPC with full windows.
        } else if pct >= a.policy.demote_abort_pct {
            self.switch_mode(node, tag, a, CallMode::Trpc);
        }
    }

    fn switch_mode(&self, node: &Node, tag: u32, a: &AdaptiveState, to: CallMode) {
        let from = a.mode.replace(to);
        if from == to {
            return;
        }
        a.trpc_calls.set(0);
        node.stats().borrow_mut().method_mut(tag).mode_switches += 1;
        node.emit(TraceKind::ModeSwitch { tag, from, to });
    }
}

impl MethodSite {
    /// Overload-control gate, run before dispatch. Returns `None` when the
    /// arrival was consumed (expired or shed); otherwise the admission
    /// token, if the call took one, and the dispatch priority. The
    /// priority is read from the deadline header word, which only
    /// reply-bearing calls carry, and only on machines with admission
    /// control; every other arrival passes at `Normal`.
    ///
    /// Order matters:
    /// 1. calls the frame table already tracks bypass every check — a
    ///    retransmitted copy of an executing or completed call must reach
    ///    duplicate suppression, or shedding it would make the caller
    ///    re-issue under a fresh id and execute the body twice;
    /// 2. expired calls are dropped before any work (the caller's local
    ///    expiry event resolves the call — no reply is owed);
    /// 3. the overload signal demotes adaptive methods to TRPC *before*
    ///    the abort storm that queue growth would cause;
    /// 4. arrivals beyond the pending budget are shed with a NACK whose
    ///    retry-after hint scales with queue depth. The budget scales with
    ///    the call's priority — high-priority calls are shed last (budget
    ///    ×1.5), low-priority first (×0.5) — deterministically, since
    ///    priority is read from the request header.
    fn admission_gate(
        &self,
        am: &Am,
        node: &Node,
        pkt: &Packet,
    ) -> Option<(Option<AdmitGuard>, Priority)> {
        let eng = &self.engine.inner;
        let Some(adm) = eng.admission.filter(|_| self.expects_reply) else {
            return Some((None, Priority::Normal));
        };
        let call_id = peek_call_id(&pkt.payload);
        if call_id == ONEWAY_SENTINEL {
            return Some((None, Priority::Normal));
        }
        let (deadline_us, prio) = peek_deadline_word(&pkt.payload);
        let caller = pkt.src;
        let sidx = node.id().index();
        let tag = pkt.tag;
        if eng.dedup_on && eng.frames[sidx].borrow().contains_key(&(caller, call_id)) {
            // Executing or completed: fall through to duplicate
            // suppression with no second admission token.
            return Some((None, prio));
        }
        if deadline_us != NO_DEADLINE && node.now().as_nanos() > u64::from(deadline_us) * 1_000 {
            node.stats().borrow_mut().calls_expired += 1;
            node.emit(TraceKind::CallExpired { tag, caller, call_id });
            return None;
        }
        let pending = &eng.pending[sidx];
        if let Some(a) = &self.adaptive {
            if adm.overload_demote_depth > 0
                && a.mode.get() == CallMode::Orpc
                && pending.get() >= adm.overload_demote_depth
            {
                a.probing.set(false);
                a.window_attempts.set(0);
                a.window_aborts.set(0);
                self.switch_mode(node, tag, a, CallMode::Trpc);
            }
        }
        let budget = match prio {
            Priority::High => adm.pending_budget + adm.pending_budget.div_ceil(2),
            Priority::Normal => adm.pending_budget,
            Priority::Low => (adm.pending_budget / 2).max(1),
        };
        if pending.get() >= budget {
            let hint = self.engine.retry_after_us(sidx);
            let retry_after_us = hint.expect("admission control is on");
            {
                let mut st = node.stats().borrow_mut();
                st.calls_shed += 1;
                st.method_mut(tag).shed += 1;
            }
            node.emit(TraceKind::CallShed { tag, caller, call_id, retry_after_us });
            self.engine.send_nack(am, node, caller, call_id, hint);
            return None;
        }
        Some((Some(AdmitGuard::new(pending, node)), prio))
    }
}

impl PacketHandler for MethodSite {
    fn handle(&self, am: &Am, node: &Node, pkt: Packet) {
        let Some((admit, prio)) = self.admission_gate(am, node, &pkt) else { return };
        match self.current_mode() {
            CallMode::Orpc => self.run_optimistic(am, node, pkt, admit, prio),
            CallMode::Trpc => self.run_threaded(am, node, pkt, admit, prio),
        }
    }
}

/// Causes that leave no wait-list registration behind, so a promoted or
/// rerun thread must be made runnable explicitly.
fn needs_immediate_wake(cause: AbortReason) -> bool {
    matches!(cause, AbortReason::NetworkFull | AbortReason::RanTooLong)
}

#[cfg(test)]
mod tests {
    use super::*;
    use oam_am::{HandlerEntry, HandlerId};
    use oam_model::{Dur, MachineConfig, NodeId, NodeStats};
    use oam_net::Network;
    use oam_sim::Sim;
    use oam_threads::{CondVar, Mutex};
    use std::cell::{Cell, RefCell};

    fn build(
        nprocs: usize,
        cfg: MachineConfig,
    ) -> (Sim, Am, CallEngine, Vec<Rc<RefCell<NodeStats>>>) {
        let sim = Sim::new(5);
        let cfg = Rc::new(cfg);
        let stats: Vec<Rc<RefCell<NodeStats>>> =
            (0..nprocs).map(|_| Rc::new(RefCell::new(NodeStats::new()))).collect();
        let net = Network::new(&sim, &cfg, stats.clone());
        let nodes: Vec<Node> = (0..nprocs)
            .map(|i| Node::new(&sim, NodeId(i), nprocs, Rc::clone(&cfg), Rc::clone(&stats[i])))
            .collect();
        let engine = CallEngine::new(Rc::clone(&cfg), 0..nprocs);
        let am = Am::new(net, cfg, nodes);
        (sim, am, engine, stats)
    }

    const CALL: HandlerId = HandlerId(10);

    fn send_one(am: &Am, payload: Vec<u8>) {
        let node0 = am.nodes()[0].clone();
        let am2 = am.clone();
        let n0 = node0.clone();
        node0.spawn(async move {
            am2.send(&n0, NodeId(1), CALL, payload).await;
        });
    }

    #[test]
    fn non_blocking_handler_succeeds_without_creating_a_thread() {
        let (sim, am, engine, stats) = build(2, MachineConfig::cm5(2));
        let hits = Rc::new(Cell::new(0u32));
        let h = hits.clone();
        let body = CallBody::new(move |_call| {
            let h = h.clone();
            async move {
                h.set(h.get() + 1);
            }
        });
        let site = engine.site(ExecPolicy::orpc(), true, body);
        am.register(NodeId(1), CALL, HandlerEntry::Custom(Rc::new(site)));
        send_one(&am, vec![]);
        sim.run();
        assert_eq!(hits.get(), 1);
        let st = stats[1].borrow();
        assert_eq!(st.oam_attempts, 1);
        assert_eq!(st.oam_successes, 1);
        assert_eq!(st.total_aborts(), 0);
        assert_eq!(st.threads_created, 0, "success path never creates a thread");
        let m = &st.per_method[&CALL.0];
        assert_eq!(m.attempts, 1);
        assert_eq!(m.inline_ok, 1);
        assert_eq!(m.threaded, 0);
    }

    #[test]
    fn lock_held_aborts_and_promotion_finishes_after_release() {
        let (sim, am, engine, stats) = build(2, MachineConfig::cm5(2));
        let node1 = am.nodes()[1].clone();
        let m = Mutex::new(&node1, 0u32);
        let m2 = m.clone();
        let body = CallBody::new(move |call| {
            let m = m2.clone();
            let node = call.node.clone();
            async move {
                let g = m.lock().await;
                node.charge(Dur::from_micros(1)).await;
                g.with_mut(|v| *v += 1);
            }
        });
        let site = engine.site(ExecPolicy::orpc(), true, body);
        am.register(NodeId(1), CALL, HandlerEntry::Custom(Rc::new(site)));
        // A server thread holds the lock while spin-waiting (and therefore
        // polling — the incoming OAM dispatches inline and must abort).
        let release = oam_threads::Flag::new();
        let (n1, mh, rel) = (node1.clone(), m.clone(), release.clone());
        node1.spawn(async move {
            let _g = mh.lock().await;
            n1.spin_on(rel).await;
        });
        let n1k = node1.clone();
        sim.schedule_at(oam_model::Time::from_nanos(100_000), move |_| {
            release.set();
            n1k.kick();
        });
        send_one(&am, vec![]);
        sim.run();
        assert_eq!(m.try_lock().expect("free at end").get(), 1, "promoted continuation ran");
        let st = stats[1].borrow();
        assert_eq!(st.oam_attempts, 1);
        assert_eq!(st.oam_successes, 0);
        assert_eq!(st.oam_aborts[AbortReason::LockHeld.index()], 1);
        assert_eq!(st.oam_promotions, 1);
        // The lock-holder thread plus the promoted continuation.
        assert_eq!(st.threads_created, 2);
        let pm = &st.per_method[&CALL.0];
        assert_eq!(pm.aborts[AbortReason::LockHeld.index()], 1);
        assert_eq!(pm.promotions, 1);
    }

    #[test]
    fn rerun_strategy_replays_the_whole_call() {
        let cfg = MachineConfig::cm5(2).with_abort_strategy(AbortStrategy::Rerun);
        let (sim, am, engine, stats) = build(2, cfg);
        let node1 = am.nodes()[1].clone();
        let m = Mutex::new(&node1, ());
        let pre_lock_executions = Rc::new(Cell::new(0u32));
        let body_executions = Rc::new(Cell::new(0u32));
        let (m2, pre, body) = (m.clone(), pre_lock_executions.clone(), body_executions.clone());
        let body = CallBody::new(move |_call| {
            let (m, pre, body) = (m2.clone(), pre.clone(), body.clone());
            async move {
                pre.set(pre.get() + 1); // runs again on rerun
                let _g = m.lock().await;
                body.set(body.get() + 1);
            }
        });
        let site = engine.site(ExecPolicy::orpc(), true, body);
        am.register(NodeId(1), CALL, HandlerEntry::Custom(Rc::new(site)));
        let release = oam_threads::Flag::new();
        let (n1, mh, rel) = (node1.clone(), m.clone(), release.clone());
        node1.spawn(async move {
            let _g = mh.lock().await;
            n1.spin_on(rel).await;
        });
        let n1k = node1.clone();
        sim.schedule_at(oam_model::Time::from_nanos(50_000), move |_| {
            release.set();
            n1k.kick();
        });
        send_one(&am, vec![]);
        sim.run();
        // The optimistic attempt executed the prefix once, the rerun thread
        // executed the whole body from scratch: prefix twice, body once.
        assert_eq!(pre_lock_executions.get(), 2);
        assert_eq!(body_executions.get(), 1);
        assert_eq!(stats[1].borrow().oam_reruns, 1);
        assert_eq!(stats[1].borrow().oam_promotions, 0);
        assert_eq!(stats[1].borrow().per_method[&CALL.0].reruns, 1);
    }

    #[test]
    fn nack_strategy_notifies_the_sender() {
        let cfg = MachineConfig::cm5(2).with_abort_strategy(AbortStrategy::Nack);
        let (sim, am, engine, stats) = build(2, cfg);
        let node1 = am.nodes()[1].clone();
        let m = Mutex::new(&node1, ());
        let m2 = m.clone();
        let body = CallBody::new(move |_call| {
            let m = m2.clone();
            async move {
                let _g = m.lock().await;
            }
        });
        let site = engine.site(ExecPolicy::orpc(), true, body);
        assert_eq!(site.abort_strategy(), AbortStrategy::Nack);
        am.register(NodeId(1), CALL, HandlerEntry::Custom(Rc::new(site)));
        // The engine sends the NACK itself: `[call_id]` without admission.
        let nacks_seen: Rc<RefCell<Vec<Vec<u8>>>> = Rc::default();
        let ns = nacks_seen.clone();
        am.register(
            NodeId(0),
            NACK_ID,
            HandlerEntry::Inline(Rc::new(move |t| ns.borrow_mut().push(t.payload().to_vec()))),
        );
        let release = oam_threads::Flag::new();
        let (n1, mh, rel) = (node1.clone(), m.clone(), release.clone());
        node1.spawn(async move {
            let _g = mh.lock().await;
            n1.spin_on(rel).await;
        });
        let n1k = node1.clone();
        sim.schedule_at(oam_model::Time::from_nanos(50_000), move |_| {
            release.set();
            n1k.kick();
        });
        send_one(&am, 9u32.to_le_bytes().to_vec());
        sim.run();
        assert_eq!(*nacks_seen.borrow(), [9u32.to_le_bytes().to_vec()]);
        let st = stats[1].borrow();
        assert_eq!(st.oam_nacks_sent, 1);
        assert_eq!(st.per_method[&CALL.0].nacks_sent, 1);
        assert_eq!(st.threads_created, 1, "only the lock-holder thread; the call never became one");
    }

    #[test]
    fn nack_on_oneway_falls_back_to_rerun() {
        let cfg = MachineConfig::cm5(2).with_abort_strategy(AbortStrategy::Nack);
        let (_sim, _am, engine, _stats) = build(2, cfg);
        let body = CallBody::new(|_call| async {});
        let site = engine.site(ExecPolicy::orpc(), false, body);
        assert_eq!(site.abort_strategy(), AbortStrategy::Rerun);
    }

    #[test]
    fn nack_fallback_rerun_on_oneway_counts_in_its_own_column() {
        // A one-way call has no caller slot to NACK, so AbortStrategy::Nack
        // silently degrades to Rerun — the stats must say which reruns were
        // that fallback rather than folding them into the ordinary column.
        let cfg = MachineConfig::cm5(2).with_abort_strategy(AbortStrategy::Nack);
        let (sim, am, engine, stats) = build(2, cfg);
        let node1 = am.nodes()[1].clone();
        let m = Mutex::new(&node1, ());
        let body_executions = Rc::new(Cell::new(0u32));
        let (m2, body) = (m.clone(), body_executions.clone());
        let body = CallBody::new(move |_call| {
            let (m, body) = (m2.clone(), body.clone());
            async move {
                let _g = m.lock().await;
                body.set(body.get() + 1);
            }
        });
        let site = engine.site(ExecPolicy::orpc(), false, body);
        am.register(NodeId(1), CALL, HandlerEntry::Custom(Rc::new(site)));
        let release = oam_threads::Flag::new();
        let (n1, mh, rel) = (node1.clone(), m.clone(), release.clone());
        node1.spawn(async move {
            let _g = mh.lock().await;
            n1.spin_on(rel).await;
        });
        let n1k = node1.clone();
        sim.schedule_at(oam_model::Time::from_nanos(50_000), move |_| {
            release.set();
            n1k.kick();
        });
        send_one(&am, vec![]);
        sim.run();
        assert_eq!(body_executions.get(), 1, "the fallback rerun completed the call");
        let st = stats[1].borrow();
        assert_eq!(st.oam_reruns, 1);
        assert_eq!(st.oam_nacks_sent, 0, "nothing to NACK on a one-way call");
        let pm = &st.per_method[&CALL.0];
        assert_eq!(pm.nack_fallback_reruns, 1, "fallback reruns get their own counter");
        assert_eq!(pm.reruns, 0, "…and stay out of the ordinary rerun column");
    }

    #[test]
    fn condition_false_aborts_and_signal_resumes_the_promotion() {
        let (sim, am, engine, stats) = build(2, MachineConfig::cm5(2));
        let node1 = am.nodes()[1].clone();
        let m = Mutex::new(&node1, false);
        let cv = CondVar::new(&node1);
        let done = Rc::new(Cell::new(false));
        let (m2, cv2, d2) = (m.clone(), cv.clone(), done.clone());
        let body = CallBody::new(move |_call| {
            let (m, cv, d) = (m2.clone(), cv2.clone(), d2.clone());
            async move {
                let mut g = m.lock().await;
                while !g.get() {
                    g = cv.wait(g).await;
                }
                d.set(true);
            }
        });
        let site = engine.site(ExecPolicy::orpc(), true, body);
        am.register(NodeId(1), CALL, HandlerEntry::Custom(Rc::new(site)));
        // Setter thread spin-waits (polling — the OAM dispatches inline,
        // finds the condition false, aborts), then flips the condition at
        // t≈200 µs.
        let release = oam_threads::Flag::new();
        let (n1, ms, cvs, rel) = (node1.clone(), m.clone(), cv.clone(), release.clone());
        node1.spawn(async move {
            n1.spin_on(rel).await;
            let g = ms.lock().await;
            g.set(true);
            cvs.signal();
        });
        let n1k = node1.clone();
        sim.schedule_at(oam_model::Time::from_nanos(200_000), move |_| {
            release.set();
            n1k.kick();
        });
        send_one(&am, vec![]);
        sim.run();
        assert!(done.get());
        let st = stats[1].borrow();
        assert_eq!(st.oam_aborts[AbortReason::ConditionFalse.index()], 1);
        assert_eq!(st.oam_promotions, 1);
    }

    #[test]
    fn too_long_handler_aborts_at_checkpoint_and_finishes_as_thread() {
        let (sim, am, engine, stats) = build(2, MachineConfig::cm5(2)); // budget 200 µs
        let finished = Rc::new(Cell::new(false));
        let f = finished.clone();
        let body = CallBody::new(move |call| {
            let node = call.node.clone();
            let f = f.clone();
            async move {
                for _ in 0..10 {
                    node.charge(Dur::from_micros(50)).await;
                    node.checkpoint().await;
                }
                f.set(true);
            }
        });
        let site = engine.site(ExecPolicy::orpc(), true, body);
        am.register(NodeId(1), CALL, HandlerEntry::Custom(Rc::new(site)));
        send_one(&am, vec![]);
        sim.run();
        assert!(finished.get());
        let st = stats[1].borrow();
        assert_eq!(st.oam_aborts[AbortReason::RanTooLong.index()], 1);
        assert_eq!(st.oam_promotions, 1);
        assert_eq!(st.threads_created, 1);
    }

    #[test]
    fn network_full_aborts_when_auto_drain_disabled() {
        let mut cfg = MachineConfig::cm5(3);
        cfg.auto_drain_on_handler_send = false;
        cfg.ni_out_capacity = 1;
        cfg.fabric_capacity = 1;
        cfg.ni_in_capacity = 1;
        let (sim, am, engine, stats) = build(3, cfg);
        const FAN: HandlerId = HandlerId(12);
        const SINK: HandlerId = HandlerId(13);
        let delivered = Rc::new(Cell::new(0u32));
        let d = delivered.clone();
        // Node 1's optimistic handler fans out 6 messages to node 2; the
        // 1-deep FIFO forces a NetworkFull abort, and the promoted thread
        // finishes the sends with blocking semantics.
        let body = CallBody::new(move |call| {
            let (am, node) = (call.am.clone(), call.node.clone());
            async move {
                for i in 0..6u32 {
                    am.send(&node, NodeId(2), SINK, oam_am::pack_u32(&[i])).await;
                }
            }
        });
        let site = engine.site(ExecPolicy::orpc(), true, body);
        am.register(NodeId(1), FAN, HandlerEntry::Custom(Rc::new(site)));
        am.register(NodeId(2), SINK, HandlerEntry::Inline(Rc::new(move |_t| d.set(d.get() + 1))));
        let node0 = am.nodes()[0].clone();
        let am2 = am.clone();
        let n0 = node0.clone();
        node0.spawn(async move {
            am2.send(&n0, NodeId(1), FAN, vec![]).await;
        });
        sim.run();
        assert_eq!(delivered.get(), 6);
        let st = stats[1].borrow();
        assert_eq!(st.oam_aborts[AbortReason::NetworkFull.index()], 1);
        assert_eq!(st.oam_promotions, 1);
    }

    #[test]
    fn trpc_site_always_creates_a_thread() {
        let (sim, am, engine, stats) = build(2, MachineConfig::cm5(2));
        let hits = Rc::new(Cell::new(0u32));
        let h = hits.clone();
        let body = CallBody::new(move |_call| {
            let h = h.clone();
            async move {
                h.set(h.get() + 1);
            }
        });
        let site = engine.site(ExecPolicy::trpc(), true, body);
        am.register(NodeId(1), CALL, HandlerEntry::Custom(Rc::new(site)));
        for _ in 0..3 {
            send_one(&am, vec![]);
        }
        sim.run();
        assert_eq!(hits.get(), 3);
        let st = stats[1].borrow();
        assert_eq!(st.threads_created, 3);
        assert_eq!(st.oam_attempts, 0, "TRPC never attempts optimistic execution");
        assert_eq!(st.per_method[&CALL.0].threaded, 3);
    }

    #[test]
    fn adaptive_site_demotes_reprobes_and_redemotes_deterministically() {
        // Handler always trips RanTooLong under a tiny machine-wide budget,
        // so every optimistic attempt aborts. Adaptive windows: demote
        // after 2 attempts, re-probe after 3 threaded calls, settle the
        // probe after 2 attempts.
        let mut cfg = MachineConfig::cm5(2);
        cfg.handler_budget = Dur::from_micros(10);
        let (sim, am, engine, stats) = build(2, cfg);
        let body = CallBody::new(move |call| {
            let node = call.node.clone();
            async move {
                node.charge(Dur::from_micros(50)).await;
                node.checkpoint().await;
            }
        });
        let adaptive = AdaptivePolicy {
            window: 2,
            demote_abort_pct: 50,
            reprobe_after: 3,
            probe_window: 2,
            promote_abort_pct: 0,
        };
        let policy = ExecPolicy::adaptive(adaptive);
        let site = engine.site(policy, true, body);
        am.register(NodeId(1), CALL, HandlerEntry::Custom(Rc::new(site)));
        // 10 sequential calls: 2 attempts (abort, abort) → demote; 3
        // threaded → re-probe; 2 probe attempts (abort, abort) → re-demote;
        // 3 threaded → re-probe again.
        let node0 = am.nodes()[0].clone();
        let am2 = am.clone();
        let n0 = node0.clone();
        node0.spawn(async move {
            for _ in 0..10 {
                am2.send(&n0, NodeId(1), CALL, vec![]).await;
                n0.charge(Dur::from_micros(500)).await;
            }
        });
        sim.run();
        let st = stats[1].borrow();
        let m = &st.per_method[&CALL.0];
        assert_eq!(m.attempts, 4, "two initial attempts plus two probe attempts");
        assert_eq!(m.aborts[AbortReason::RanTooLong.index()], 4);
        assert_eq!(m.threaded, 6, "two demotion periods of three threaded calls");
        assert_eq!(m.mode_switches, 4, "demote, re-probe, re-demote, re-probe");
    }

    #[test]
    #[should_panic(expected = "handler id collision")]
    fn registering_two_names_for_one_id_panics() {
        let (_sim, _am, engine, _stats) = build(2, MachineConfig::cm5(2));
        engine.register_name(5, "Alpha::first");
        engine.register_name(5, "Beta::second");
    }

    #[test]
    fn re_registering_the_same_name_is_allowed() {
        let (_sim, _am, engine, _stats) = build(2, MachineConfig::cm5(2));
        engine.register_name(5, "Alpha::first");
        engine.register_name(5, "Alpha::first"); // per-node re-registration
        assert_eq!(engine.method_names()[&5], "Alpha::first");
    }

    #[test]
    fn deadline_word_roundtrips_priorities_and_preserves_legacy_patterns() {
        // Normal passes every word through unchanged in both directions.
        for w in [0u32, 1, 12_345, DEADLINE_MASK - 1, NO_DEADLINE] {
            assert_eq!(pack_deadline_word(w, Priority::Normal), w);
            let (d, p) = unpack_deadline_word(pack_deadline_word(w, Priority::Normal));
            assert_eq!((d, p), (w, Priority::Normal));
        }
        // High/Low round-trip deadlines, including the no-deadline marker.
        for prio in [Priority::High, Priority::Low] {
            for d in [0u32, 7, DEADLINE_MASK - 1, NO_DEADLINE] {
                let word = pack_deadline_word(d, prio);
                assert_ne!(word, pack_deadline_word(d, Priority::Normal).min(DEADLINE_MASK - 1));
                assert_eq!(unpack_deadline_word(word), (d, prio));
            }
        }
        // The legacy NO_DEADLINE pattern (top bits 11) is Normal.
        assert_eq!(unpack_deadline_word(NO_DEADLINE), (NO_DEADLINE, Priority::Normal));
    }

    #[test]
    fn priority_placement_maps_to_queue_positions() {
        assert_eq!(Priority::High.placement(), Placement::Front);
        assert_eq!(Priority::Normal.placement(), Placement::Policy);
        assert_eq!(Priority::Low.placement(), Placement::Back);
    }

    #[test]
    fn cancel_aborts_a_promoted_call_and_counts_it() {
        // Handler blocks on a mutex a server thread holds; the optimistic
        // attempt aborts and promotes. A cancel frame then kills the
        // promoted continuation: the body after the lock never runs, the
        // per-method cancel counter ticks, and the lock is released cleanly
        // (the dropped future deregisters from the wait list).
        let (sim, am, engine, stats) = build(2, MachineConfig::cm5(2));
        let node1 = am.nodes()[1].clone();
        let m = Mutex::new(&node1, 0u32);
        let m2 = m.clone();
        let body = CallBody::new(move |_call| {
            let m = m2.clone();
            async move {
                let g = m.lock().await;
                g.with_mut(|v| *v += 1);
            }
        });
        let site = engine.site(ExecPolicy::orpc(), true, body).with_cancellation();
        am.register(NodeId(1), CALL, HandlerEntry::Custom(Rc::new(site)));
        // Payload: call_id header only (no admission ⇒ no deadline word).
        send_one(&am, 7u32.to_le_bytes().to_vec());
        let release = oam_threads::Flag::new();
        let (n1, mh, rel) = (node1.clone(), m.clone(), release.clone());
        node1.spawn(async move {
            let _g = mh.lock().await;
            n1.spin_on(rel).await;
        });
        // Cancel while the promoted continuation is parked on the lock,
        // then release the lock; the body must still not run.
        let (eng2, n1c) = (engine.clone(), node1.clone());
        sim.schedule_at(oam_model::Time::from_nanos(200_000), move |_| {
            assert!(eng2.cancel_call(&n1c, NodeId(0), 7), "call was in flight");
            assert!(!eng2.cancel_call(&n1c, NodeId(0), 7), "second cancel is a no-op");
        });
        let n1k = node1.clone();
        sim.schedule_at(oam_model::Time::from_nanos(400_000), move |_| {
            release.set();
            n1k.kick();
        });
        sim.run();
        assert_eq!(m.try_lock().expect("lock free at end").get(), 0, "cancelled body never ran");
        let st = stats[1].borrow();
        assert_eq!(st.per_method[&CALL.0].cancels, 1);
        assert_eq!(st.oam_promotions, 1);
    }

    #[test]
    fn cancel_of_an_unknown_call_is_a_noop() {
        let (_sim, am, engine, _stats) = build(2, MachineConfig::cm5(2));
        assert!(!engine.cancel_call(&am.nodes()[1].clone(), NodeId(0), 99));
    }

    /// Send `payloads` from node 0 to `CALL` on node 1, in order, `gap`
    /// apart.
    fn send_in_order(am: &Am, gap: Dur, payloads: Vec<Vec<u8>>) {
        let node0 = am.nodes()[0].clone();
        let (am2, n0) = (am.clone(), node0.clone());
        node0.spawn(async move {
            for payload in payloads {
                am2.send(&n0, NodeId(1), CALL, payload).await;
                n0.charge(gap).await;
            }
        });
    }

    /// A server thread on node 1 that holds `m` while spin-waiting
    /// (polling, so arrivals dispatch inline and find the lock held) until
    /// `release_at`.
    fn hold_lock_until<T: 'static>(sim: &Sim, node1: &Node, m: &Mutex<T>, release_at: u64) {
        let release = oam_threads::Flag::new();
        let (n1, mh, rel) = (node1.clone(), m.clone(), release.clone());
        node1.spawn(async move {
            let _g = mh.lock().await;
            n1.spin_on(rel).await;
        });
        let n1k = node1.clone();
        sim.schedule_at(oam_model::Time::from_nanos(release_at), move |_| {
            release.set();
            n1k.kick();
        });
    }

    #[test]
    fn a_promoted_call_keeps_its_box_while_later_inline_calls_recycle_another() {
        // Payload [1] takes the lock (held by a server thread, so it aborts
        // and is promoted); payload [0] never blocks. Each execution
        // records the address of a value captured in its future, which
        // lives in the future's box.
        let (sim, am, engine, stats) = build(2, MachineConfig::cm5(2));
        let node1 = am.nodes()[1].clone();
        let m = Mutex::new(&node1, 0u32);
        let seen: Rc<RefCell<Vec<(u8, usize)>>> = Rc::default();
        let (m2, s2) = (m.clone(), seen.clone());
        let body = CallBody::new(move |call| {
            let (m, seen) = (m2.clone(), s2.clone());
            let which = call.pkt.payload[0];
            async move {
                seen.borrow_mut().push((which, &which as *const u8 as usize));
                if which == 1 {
                    let g = m.lock().await;
                    g.with_mut(|v| *v += 1);
                }
            }
        });
        let site = engine.site(ExecPolicy::orpc(), true, body);
        am.register(NodeId(1), CALL, HandlerEntry::Custom(Rc::new(site)));
        hold_lock_until(&sim, &node1, &m, 200_000);
        send_in_order(&am, Dur::from_micros(20), vec![vec![1], vec![0], vec![0]]);
        sim.run();

        assert_eq!(m.try_lock().expect("free at end").get(), 1, "the promoted call finished");
        let seen = seen.borrow();
        let order: Vec<u8> = seen.iter().map(|&(w, _)| w).collect();
        assert_eq!(order, [1, 0, 0], "each call ran once, in arrival order");
        let (promoted, first, second) = (seen[0].1, seen[1].1, seen[2].1);
        assert_ne!(first, promoted, "an inline call ran in the promoted call's box");
        assert_eq!(second, first, "an inline completion did not recycle its box");
        let st = stats[1].borrow();
        assert_eq!(st.oam_promotions, 1);
        assert_eq!(st.oam_successes, 2);
    }

    #[test]
    fn a_rerun_builds_a_fresh_future_and_the_site_keeps_serving_inline() {
        // Payload [1] blocks on the held lock and is rerun from the top as
        // a thread; payload [0] arrives while that thread waits and
        // completes inline. Each future counts its own polls, so a rerun
        // that resumed the aborted future (or one left in the slot) would
        // show a second poll.
        let cfg = MachineConfig::cm5(2).with_abort_strategy(AbortStrategy::Rerun);
        let (sim, am, engine, stats) = build(2, cfg);
        let node1 = am.nodes()[1].clone();
        let m = Mutex::new(&node1, ());
        let starts: Rc<RefCell<Vec<u8>>> = Rc::default();
        let bodies: Rc<RefCell<Vec<u8>>> = Rc::default();
        let (m2, st2, b2) = (m.clone(), starts.clone(), bodies.clone());
        let body = CallBody::new(move |call| {
            let (m, starts, bodies) = (m2.clone(), st2.clone(), b2.clone());
            let which = call.pkt.payload[0];
            async move {
                starts.borrow_mut().push(which);
                if which == 1 {
                    let _g = m.lock().await;
                }
                bodies.borrow_mut().push(which);
            }
        });
        let site = engine.site(ExecPolicy::orpc(), true, body);
        am.register(NodeId(1), CALL, HandlerEntry::Custom(Rc::new(site)));
        hold_lock_until(&sim, &node1, &m, 200_000);
        send_in_order(&am, Dur::from_micros(20), vec![vec![1], vec![0], vec![0]]);
        sim.run();

        // The attempt and the rerun each started call [1] from the top;
        // the inline calls finished before the lock came free.
        assert_eq!(*starts.borrow(), [1, 1, 0, 0]);
        assert_eq!(*bodies.borrow(), [0, 0, 1]);
        let st = stats[1].borrow();
        assert_eq!(st.oam_reruns, 1);
        assert_eq!(st.oam_successes, 2);
    }

    #[test]
    fn duplicates_are_suppressed_while_promoted_and_answered_after_under_recycling() {
        // Retransmission on: the engine suppresses duplicates by call id,
        // telling a rerun of the same arrival from a copy by the packet's
        // address. Recycled packet storage reuses addresses, so every frame
        // must release its claim when its call completes inline.
        let mut cfg = MachineConfig::cm5(2);
        cfg.retransmit = true;
        let (sim, am, engine, stats) = build(2, cfg);
        let resent: Rc<RefCell<Vec<u32>>> = Rc::default();
        let r2 = resent.clone();
        am.register(
            NodeId(0),
            REPLY_ID,
            HandlerEntry::Inline(Rc::new(move |t| r2.borrow_mut().push(peek_call_id(t.payload())))),
        );
        let node1 = am.nodes()[1].clone();
        let m = Mutex::new(&node1, ());
        let ran: Rc<RefCell<Vec<u32>>> = Rc::default();
        let (m2, ran2) = (m.clone(), ran.clone());
        let body = CallBody::new(move |call| {
            let (m, ran) = (m2.clone(), ran2.clone());
            let call_id = peek_call_id(&call.pkt.payload);
            async move {
                if call_id == 7 {
                    let _g = m.lock().await;
                }
                ran.borrow_mut().push(call_id);
            }
        });
        let site = engine.site(ExecPolicy::orpc(), true, body);
        am.register(NodeId(1), CALL, HandlerEntry::Custom(Rc::new(site)));
        hold_lock_until(&sim, &node1, &m, 200_000);
        let id = |call_id: u32| call_id.to_le_bytes().to_vec();
        // t≈0: call 5 completes inline and its packet storage becomes the
        // spare; t≈50: its copy arrives in that same storage; t≈100: call
        // 7 blocks and is promoted; t≈150: a copy of 7 while it runs;
        // t≈250: a copy of 7 after it finished at the release (200).
        send_in_order(&am, Dur::from_micros(50), vec![id(5), id(5), id(7), id(7), id(7)]);
        sim.run();

        assert_eq!(*ran.borrow(), [5, 7], "each call executed exactly once");
        assert_eq!(*resent.borrow(), [5, 7], "copies after completion are answered");
        let st = stats[1].borrow();
        assert_eq!(st.dups_suppressed, 3);
        assert_eq!(st.oam_promotions, 1);
        assert_eq!((st.oam_attempts, st.oam_successes), (2, 1), "copies are no attempts");
    }

    /// Retransmission on, `copies` arrivals of call 7 on a `policy` site
    /// whose body waits for a lock the server holds until 200 µs, one
    /// every 100 µs: a copy arriving while the call waits is dropped, a
    /// later one is answered from the frame. Returns node 1's stats and
    /// how many bodies ran.
    fn run_copies(policy: ExecPolicy, copies: usize) -> (NodeStats, u32) {
        let mut cfg = MachineConfig::cm5(2);
        cfg.retransmit = true;
        let (sim, am, engine, stats) = build(2, cfg);
        am.register(NodeId(0), REPLY_ID, HandlerEntry::Inline(Rc::new(|_| {})));
        let node1 = am.nodes()[1].clone();
        let m = Mutex::new(&node1, ());
        let ran = Rc::new(Cell::new(0u32));
        let (m2, r2) = (m.clone(), ran.clone());
        let body = CallBody::new(move |_call| {
            let (m, ran) = (m2.clone(), r2.clone());
            async move {
                let _g = m.lock().await;
                ran.set(ran.get() + 1);
            }
        });
        let site = engine.site(policy, true, body);
        am.register(NodeId(1), CALL, HandlerEntry::Custom(Rc::new(site)));
        hold_lock_until(&sim, &node1, &m, 200_000);
        send_in_order(&am, Dur::from_micros(100), vec![7u32.to_le_bytes().to_vec(); copies]);
        sim.run();
        let st = stats[1].borrow().clone();
        (st, ran.get())
    }

    #[test]
    fn a_suppressed_duplicate_is_not_an_optimistic_attempt() {
        let (st, ran) = run_copies(ExecPolicy::orpc(), 4);
        assert_eq!(ran, 1);
        assert_eq!(st.dups_suppressed, 3);
        assert_eq!(st.oam_attempts, u64::from(ran), "attempts equal bodies run");
        assert_eq!((st.oam_successes, st.oam_promotions), (0, 1));
        let m = &st.per_method[&CALL.0];
        assert_eq!((m.attempts, m.inline_ok, m.promotions), (1, 0, 1));
        // The lock holder and the promoted call.
        assert_eq!(st.threads_created, 2);
    }

    #[test]
    fn a_suppressed_duplicate_gets_no_thread_under_trpc() {
        let (st, ran) = run_copies(ExecPolicy::trpc(), 4);
        assert_eq!(ran, 1);
        assert_eq!(st.dups_suppressed, 3);
        // The lock holder and the one call.
        assert_eq!(st.threads_created, 2);
        assert_eq!(st.per_method[&CALL.0].threaded, 1);
        assert_eq!(st.oam_attempts, 0);
    }

    /// Records the virtual time it is dropped at.
    struct DropClock {
        node: Node,
        at: Rc<Cell<Option<oam_model::Time>>>,
    }

    impl Drop for DropClock {
        fn drop(&mut self) {
            self.at.set(Some(self.node.now()));
        }
    }

    #[test]
    fn a_suppressed_duplicate_does_not_take_over_the_cancel_wake() {
        // Retransmission on: a cancellable call parks on a lock the server
        // holds until 5 ms, and three copies of its request arrive while
        // it waits, each suppressed. A cancel at 1.5 ms must wake the
        // thread running the call, under TRPC too: the body is dropped long
        // before the lock comes free.
        for policy in [ExecPolicy::orpc(), ExecPolicy::trpc()] {
            let mode = policy.mode;
            let mut cfg = MachineConfig::cm5(2);
            cfg.retransmit = true;
            let (sim, am, engine, stats) = build(2, cfg);
            let node1 = am.nodes()[1].clone();
            let m = Mutex::new(&node1, ());
            let dropped_at: Rc<Cell<Option<oam_model::Time>>> = Rc::default();
            let (m2, d2) = (m.clone(), dropped_at.clone());
            let body = CallBody::new(move |call| {
                let m = m2.clone();
                let clock = DropClock { node: call.node.clone(), at: d2.clone() };
                async move {
                    let _clock = clock;
                    let _g = m.lock().await;
                }
            });
            let site = engine.site(policy, true, body).with_cancellation();
            am.register(NodeId(1), CALL, HandlerEntry::Custom(Rc::new(site)));
            hold_lock_until(&sim, &node1, &m, 5_000_000);
            send_in_order(&am, Dur::from_micros(50), vec![7u32.to_le_bytes().to_vec(); 4]);
            let (eng2, n1c) = (engine.clone(), node1.clone());
            sim.schedule_at(oam_model::Time::from_nanos(1_500_000), move |_| {
                assert!(eng2.cancel_call(&n1c, NodeId(0), 7), "call was in flight");
            });
            sim.run();
            let at = dropped_at.get().expect("the cancelled body was dropped").as_nanos();
            assert!(at < 2_000_000, "{mode:?}: body dropped at {at} ns, not soon after the cancel");
            let st = stats[1].borrow();
            assert_eq!(st.dups_suppressed, 3, "{mode:?}");
            assert_eq!(st.per_method[&CALL.0].cancels, 1, "{mode:?}");
        }
    }
}
