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
//! Which of the two a method uses, how aborts resolve, and how long the
//! optimistic attempt may run are all per-method knobs carried by
//! [`ExecPolicy`] (`MachineConfig::policies`, falling back to the global
//! defaults), so one [`MethodSite`] registry entry serves both modes — the
//! old `OptimisticEntry`/`ThreadedEntry` split is gone.
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
//! # Reliability: duplicate suppression
//!
//! When the fabric can deliver duplicates (retransmission enabled, or a
//! fault plan that duplicates packets), the engine keeps a per-server-node
//! table of `CallFrame`s keyed on `(caller, call_id)`. A request is
//! *fresh* the first time its key is seen; an abort-driven rerun of the
//! same packet instance (by `Rc` address) is allowed through; any other
//! copy is a duplicate — dropped while the original is still executing,
//! answered from the frame's cached reply once it has finished. So a call
//! body may be attempted several times on one arrival but is **executed to
//! completion at most once per call id**, no matter how many copies of the
//! request the fabric delivers. The RPC layer injects the reply-resend
//! hook ([`CallEngine::set_reply_resender`]) because it owns the reply
//! wire format; NACKed calls are forgotten ([`CallEngine::forget_call`])
//! so the caller's re-issue can execute.

use std::any::{Any, TypeId};
use std::cell::{Cell, OnceCell, RefCell};
use std::collections::{BTreeMap, HashMap};
use std::future::Future;
use std::ops::Range;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

use oam_am::{Am, PacketHandler};
use oam_model::{
    AbortReason, AbortStrategy, AdaptivePolicy, AdmissionConfig, CallMode, Dur, ExecPolicy,
    MachineConfig, NodeId, NodeTable, TraceKind,
};
use oam_net::{Packet, PayloadBuf};
use oam_threads::{ExecMode, Node, Placement, ThreadId};

/// `call_id` marking a one-way (asynchronous) RPC: nothing to correlate,
/// suppress, or reply to.
pub const ONEWAY_SENTINEL: u32 = u32::MAX;

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

fn peek_deadline_word(payload: &[u8]) -> u32 {
    let bytes: [u8; 4] = payload[4..8].try_into().expect("request deadline");
    u32::from_le_bytes(bytes)
}

/// Decode the deadline (second header word, little-endian, absolute
/// virtual microseconds) from a request payload, with any priority bits
/// stripped. Only meaningful on machines with [`AdmissionConfig`] set —
/// without it the word is absent.
pub fn peek_deadline_us(payload: &[u8]) -> u32 {
    unpack_deadline_word(peek_deadline_word(payload)).0
}

/// Decode the per-call priority from a request payload's deadline word.
pub fn peek_priority(payload: &[u8]) -> Priority {
    unpack_deadline_word(peek_deadline_word(payload)).1
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

/// Builds and sends a NACK for a call that aborted under
/// [`AbortStrategy::Nack`]. Owned by the stub layer, which knows its own
/// wire format.
pub type NackSender = Rc<dyn Fn(&OamCall)>;

/// Re-sends the cached (or synthesized) reply for a suppressed duplicate
/// of an already-completed call. Owned by the stub layer, which knows the
/// reply wire format.
pub type ReplyResender = Rc<dyn Fn(&OamCall, u32, Option<PayloadBuf>)>;

/// Builds and sends the NACK for a call shed by admission control, with
/// the retry-after hint (microseconds) to carry. Owned by the stub layer,
/// which knows the NACK wire format.
pub type ShedNackSender = Rc<dyn Fn(&OamCall, u32)>;

/// Server-side record of one logical call, keyed `(caller, call_id)` in
/// the engine's dedup table. Carries the reliability state that used to be
/// scattered through the RPC runtime: which packet instance claimed the
/// call (so reruns pass and retransmissions don't), the cached reply for
/// answering duplicates, and completion.
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
}

/// Server-side cancellation record for one in-flight cancellable call,
/// keyed `(caller, call_id)`. Registered when the call's future is built,
/// removed when it completes (normally or by cancel).
struct InflightCall {
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
    /// Per-server-node duplicate suppression; only consulted when faults or
    /// retransmission make duplicates possible.
    dedup: NodeTable<RefCell<HashMap<(NodeId, u32), CallFrame>>>,
    /// Per-server-node registry of in-flight *cancellable* calls (methods
    /// registered with [`MethodSite::with_cancellation`] — streaming
    /// sessions). Plain single-shot methods never touch it, keeping the
    /// legacy hot path allocation-free.
    inflight: NodeTable<RefCell<HashMap<(NodeId, u32), InflightCall>>>,
    /// Duplicate suppression enabled (retransmission on, or a fault plan
    /// that can duplicate/redeliver packets).
    dedup_on: bool,
    /// Registered method names by handler id — collision detection at
    /// registration time plus human-readable report labels.
    names: RefCell<BTreeMap<u32, String>>,
    resend_reply: RefCell<Option<ReplyResender>>,
    /// Overload control, copied out of the config for cheap access.
    admission: Option<AdmissionConfig>,
    /// Per-node count of engine-admitted calls still in flight (inline,
    /// promoted, rerun, or queued as threads). Only maintained when
    /// `admission` is set; empty otherwise so existing workloads pay
    /// nothing.
    pending: NodeTable<Rc<Cell<usize>>>,
    shed_nack: RefCell<Option<ShedNackSender>>,
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
        let dedup_on = cfg.reliability.retransmit || cfg.fault_plan.is_some();
        let admission = cfg.admission;
        let counted = if admission.is_some() { owned.clone() } else { owned.start..owned.start };
        let pending = NodeTable::new(counted, |_| Rc::new(Cell::new(0)));
        CallEngine {
            inner: Rc::new(EngineInner {
                cfg,
                dedup: NodeTable::new(owned.clone(), |_| RefCell::new(HashMap::new())),
                inflight: NodeTable::new(owned, |_| RefCell::new(HashMap::new())),
                dedup_on,
                names: RefCell::new(BTreeMap::new()),
                resend_reply: RefCell::new(None),
                admission,
                pending,
                shed_nack: RefCell::new(None),
                slots: RefCell::new(Vec::new()),
                spare_pkt: Cell::new(None),
            }),
        }
    }

    /// Machine configuration.
    pub fn config(&self) -> &Rc<MachineConfig> {
        &self.inner.cfg
    }

    /// Whether duplicate suppression is active on this machine.
    pub fn dedup_enabled(&self) -> bool {
        self.inner.dedup_on
    }

    /// Install the hook that answers a suppressed duplicate of a completed
    /// call (required before duplicates can arrive; the RPC layer installs
    /// it because it owns the reply wire format).
    pub fn set_reply_resender(&self, f: ReplyResender) {
        *self.inner.resend_reply.borrow_mut() = Some(f);
    }

    /// Install the hook that NACKs a call shed by admission control
    /// (required when [`MachineConfig::admission`] is set; the RPC layer
    /// installs it because it owns the NACK wire format).
    pub fn set_shed_nack(&self, f: ShedNackSender) {
        *self.inner.shed_nack.borrow_mut() = Some(f);
    }

    /// The machine's admission-control configuration, if overload control
    /// is on.
    pub fn admission(&self) -> Option<AdmissionConfig> {
        self.inner.admission
    }

    /// Engine-admitted calls currently in flight on `node` (0 when
    /// admission control is off — the counter is only maintained under it).
    pub fn pending_calls(&self, node: usize) -> usize {
        self.inner.admission.map_or(0, |_| self.inner.pending[node].get())
    }

    /// Whether the dedup table already tracks `(caller, call_id)` on
    /// `server` — i.e. the call is executing or has completed there.
    /// Retransmitted copies of such calls must bypass admission and
    /// deadline checks and fall through to duplicate suppression, or a
    /// shed retransmission would break exactly-once execution.
    pub fn knows_call(&self, server: usize, caller: NodeId, call_id: u32) -> bool {
        self.inner.dedup_on && self.inner.dedup[server].borrow().contains_key(&(caller, call_id))
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
    /// `expects_reply` distinguishes `rpc` from `oneway` methods: only
    /// reply-bearing calls can be NACKed (the caller is waiting); one-way
    /// calls resolved as NACK fall back to rerun.
    pub fn site(&self, policy: ExecPolicy, expects_reply: bool, body: CallBody) -> MethodSite {
        let mut abort = policy.abort.unwrap_or(self.inner.cfg.abort_strategy);
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
            nack: None,
            abort,
            nack_fallback,
            budget: policy.handler_budget,
            static_mode: policy.mode,
            correlated: false,
            expects_reply,
            cancellable: false,
            adaptive,
        }
    }

    /// Cache the encoded reply for `(caller, call_id)` on `server` so a
    /// retransmitted request can be answered without re-executing.
    pub fn cache_reply(&self, server: usize, caller: NodeId, call_id: u32, payload: PayloadBuf) {
        if self.inner.dedup_on {
            if let Some(f) = self.inner.dedup[server].borrow_mut().get_mut(&(caller, call_id)) {
                f.reply = Some(payload);
            }
        }
    }

    /// Forget a call frame after a NACK: the server rejected the call
    /// without executing it, and the caller will re-issue it (under a fresh
    /// call id), so a retransmission of *this* id must be free to execute.
    pub fn forget_call(&self, server: usize, caller: NodeId, call_id: u32) {
        if self.inner.dedup_on {
            self.inner.dedup[server].borrow_mut().remove(&(caller, call_id));
        }
        self.inner.inflight[server].borrow_mut().remove(&(caller, call_id));
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
        let sidx = node.id().index();
        let hit = {
            let mut map = self.inner.inflight[sidx].borrow_mut();
            match map.get_mut(&(caller, call_id)) {
                Some(e) if !e.cancelled => {
                    e.cancelled = true;
                    Some((e.tid, e.tag))
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
    /// Whether a cancel frame has marked the call `key` on `sidx`.
    fn is_cancelled(&self, sidx: usize, key: (NodeId, u32)) -> bool {
        self.inner.inflight[sidx].borrow().get(&key).is_some_and(|e| e.cancelled)
    }

    /// Whether a tracked call was cancelled before its body ran.
    fn cancelled(&self, t: Tracked) -> bool {
        t.cancellable && self.is_cancelled(t.sidx, t.key)
    }

    /// Close a tracked call's books once its body is done, or cancelled:
    /// drop its inflight entry and mark its dedup frame done, so a
    /// retransmission is answered from the frame instead of re-executing.
    fn settle(&self, t: Tracked) {
        if t.cancellable {
            self.inner.inflight[t.sidx].borrow_mut().remove(&t.key);
        }
        if self.inner.dedup_on {
            if let Some(f) = self.inner.dedup[t.sidx].borrow_mut().get_mut(&t.key) {
                f.done = true;
                f.claimed_by = None;
            }
        }
    }
}

/// What duplicate suppression decided for an arrival.
#[derive(Clone, Copy)]
enum Claim {
    /// A duplicate, already dropped or answered: there is nothing to run.
    Suppressed,
    /// Run the body; `Some` names the call whose books close when it ends.
    Run(Option<Tracked>),
}

/// A correlated call with a dedup frame or an inflight entry to settle.
#[derive(Clone, Copy)]
struct Tracked {
    sidx: usize,
    key: (NodeId, u32),
    /// Registered in the inflight table (a cancellable site).
    cancellable: bool,
}

/// Wraps a cancellable call's handler future: each poll first consults the
/// engine's inflight registry and, once a cancel frame has marked the call,
/// resolves immediately — dropping the handler future, whose `Drop` impls
/// deregister it from any wait lists it joined (the same undo mechanism the
/// rerun abort strategy relies on).
struct Cancellable {
    inner: Option<BoxedCall>,
    engine: CallEngine,
    sidx: usize,
    key: (NodeId, u32),
}

impl Future for Cancellable {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let this = self.get_mut();
        if this.engine.is_cancelled(this.sidx, this.key) {
            this.inner = None;
            return Poll::Ready(());
        }
        this.inner.as_mut().expect("cancellable call polled after completion").as_mut().poll(cx)
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
    nack: Option<NackSender>,
    /// Resolved abort resolution (per-method override, else global).
    abort: AbortStrategy,
    /// The policy asked for [`AbortStrategy::Nack`] on a one-way method;
    /// the resolution fell back to rerun (no caller to NACK) and aborts
    /// count as [`oam_model::MethodStats::nack_fallback_reruns`].
    nack_fallback: bool,
    /// Per-method optimistic run-length budget override.
    budget: Option<Dur>,
    static_mode: CallMode,
    /// Payloads start with a `call_id` correlation header (RPC framing),
    /// enabling duplicate suppression.
    correlated: bool,
    /// The method replies (an `rpc`, not a `oneway`): only these calls are
    /// subject to admission control and deadlines — their caller can see
    /// the NACK or give up.
    expects_reply: bool,
    /// Executions register in the engine's inflight table so a client
    /// cancel frame can abort them mid-flight (streaming sessions). Off by
    /// default: single-shot calls keep the registration-free hot path and a
    /// cancel aimed at them is a no-op on the server.
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
    /// Provide the NACK constructor (required if the method resolves to
    /// [`AbortStrategy::Nack`]).
    pub fn with_nack(mut self, nack: NackSender) -> Self {
        self.nack = Some(nack);
        self
    }

    /// Mark payloads as carrying the RPC `call_id` correlation header,
    /// enabling duplicate suppression on lossy fabrics.
    pub fn with_call_correlation(mut self) -> Self {
        self.correlated = true;
        self
    }

    /// Register executions of this method in the engine's inflight table so
    /// [`CallEngine::cancel_call`] can abort them. Requires call
    /// correlation; the stub layer sets it on streaming (session) methods.
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
    /// its body runs: a fresh call claims its [`CallFrame`]; a
    /// retransmitted or fabric-duplicated copy is suppressed (dropped while
    /// the original executes, answered from the reply cache after); a
    /// cancellable call registers in the inflight table.
    fn claim(&self, call: &OamCall) -> Claim {
        let eng = &self.engine.inner;
        if !self.correlated || (!eng.dedup_on && !self.cancellable) {
            return Claim::Run(None);
        }
        let call_id = peek_call_id(&call.pkt.payload);
        if call_id == ONEWAY_SENTINEL {
            // Unreliable oneway: nothing to correlate or suppress.
            return Claim::Run(None);
        }
        let caller = call.pkt.src;
        let key = (caller, call_id);
        let sidx = call.node.id().index();
        if eng.dedup_on {
            enum Decision {
                Run,
                Drop,
                Resend(Option<PayloadBuf>),
            }
            let pkt_ptr = Rc::as_ptr(&call.pkt) as usize;
            let decision = {
                let mut map = eng.dedup[sidx].borrow_mut();
                match map.get(&key) {
                    None => {
                        map.insert(
                            key,
                            CallFrame { claimed_by: Some(pkt_ptr), reply: None, done: false },
                        );
                        Decision::Run
                    }
                    Some(f) if f.done => Decision::Resend(f.reply.clone()),
                    Some(f) if f.claimed_by == Some(pkt_ptr) => Decision::Run,
                    Some(_) => Decision::Drop,
                }
            };
            match decision {
                Decision::Run => {}
                Decision::Drop => {
                    call.node.stats().borrow_mut().dups_suppressed += 1;
                    call.node.emit(TraceKind::DupSuppressed { caller, call_id });
                    return Claim::Suppressed;
                }
                Decision::Resend(reply) => {
                    call.node.stats().borrow_mut().dups_suppressed += 1;
                    call.node.emit(TraceKind::DupSuppressed { caller, call_id });
                    let resend = eng
                        .resend_reply
                        .borrow()
                        .clone()
                        .expect("duplicate suppression requires a reply resender");
                    resend(call, call_id, reply);
                    return Claim::Suppressed;
                }
            }
        }
        if self.cancellable {
            eng.inflight[sidx].borrow_mut().entry(key).or_insert(InflightCall {
                cancelled: false,
                tid: None,
                tag: call.pkt.tag,
            });
        }
        Claim::Run(Some(Tracked { sidx, key, cancellable: self.cancellable }))
    }

    /// The future a claimed call runs as a thread: the body's future behind
    /// the cancel check and the completion bookkeeping that the inline
    /// path does itself. Completing marks the dedup frame done even on the
    /// cancel path, so retransmissions of a cancelled call are answered
    /// from the frame, not re-executed. It holds the packet until then, so
    /// no later arrival can be stored at the address the frame's claim
    /// names, whether or not the body keeps the packet.
    fn tracked(&self, fut: BoxedCall, track: Option<Tracked>, pkt: &Rc<Packet>) -> BoxedCall {
        let Some(t) = track else { return fut };
        let engine = self.engine.clone();
        let claim = Rc::clone(pkt);
        if !t.cancellable {
            return Box::pin(async move {
                fut.await;
                engine.settle(t);
                drop(claim);
            });
        }
        Box::pin(async move {
            Cancellable { inner: Some(fut), engine: engine.clone(), sidx: t.sidx, key: t.key }
                .await;
            engine.settle(t);
            drop(claim);
        })
    }

    /// The inflight-table key this arrival registers under, when it is a
    /// cancellable, correlated call.
    fn inflight_key(&self, call: &OamCall) -> Option<(NodeId, u32)> {
        if !self.cancellable || !self.correlated {
            return None;
        }
        let call_id = peek_call_id(&call.pkt.payload);
        if call_id == ONEWAY_SENTINEL {
            return None;
        }
        Some((call.pkt.src, call_id))
    }

    /// Record the thread now executing a cancellable call so a cancel frame
    /// can wake it.
    fn record_tid(&self, sidx: usize, key: (NodeId, u32), tid: ThreadId) {
        if let Some(e) = self.engine.inner.inflight[sidx].borrow_mut().get_mut(&key) {
            e.tid = Some(tid);
        }
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
    /// stack, then resolve success or abort.
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
        {
            let mut st = node.stats().borrow_mut();
            st.oam_attempts += 1;
            st.method_mut(tag).attempts += 1;
        }
        node.add_pending(cost.oam_entry);

        let call = OamCall { am: am.clone(), node: node.clone(), pkt: self.packet(pkt) };
        let tid = node.reserve_provisional();
        let (execute, track) = match self.claim(&call) {
            Claim::Suppressed => (false, None),
            Claim::Run(track) => (!track.is_some_and(|t| self.engine.cancelled(t)), track),
        };
        let ikey = track.filter(|t| t.cancellable);

        // Optimistic inline execution: one poll on the current stack.
        let prev_mode = node.set_mode(ExecMode::Optimistic);
        let prev_provisional = node.set_active_provisional_replace(Some(tid));
        let prev_budget = node.set_handler_budget_override(self.budget);
        node.reset_handler_elapsed();
        let waker = Waker::noop();
        let mut cx = Context::from_waker(waker);
        let suspended = if execute { self.body.attempt(&call, &mut cx) } else { None };
        node.set_handler_budget_override(prev_budget);
        node.set_active_provisional_replace(prev_provisional);
        node.set_mode(prev_mode);

        let aborted = match suspended {
            None => {
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
                false
            }
            Some(fut) => {
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
                match self.abort {
                    AbortStrategy::Promote => {
                        {
                            let mut st = node.stats().borrow_mut();
                            st.oam_promotions += 1;
                            st.method_mut(tag).promotions += 1;
                        }
                        node.promote(tid, guarded(self.tracked(fut, track, &call.pkt), admit));
                        if let Some(t) = ikey {
                            self.record_tid(t.sidx, t.key, tid);
                        }
                        if needs_immediate_wake(cause) {
                            node.make_runnable(tid, prio.placement());
                        }
                    }
                    AbortStrategy::Rerun => {
                        // Undo: dropping the future deregisters it from any
                        // wait lists it joined.
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
                        let fresh = self.tracked(self.body.boxed(&call), track, &call.pkt);
                        node.promote(tid, guarded(fresh, admit));
                        if let Some(t) = ikey {
                            self.record_tid(t.sidx, t.key, tid);
                        }
                        node.make_runnable(tid, prio.placement());
                    }
                    AbortStrategy::Nack => {
                        drop(fut);
                        drop(admit);
                        if let Some(t) = ikey {
                            // The call will be re-issued under a fresh id;
                            // drop its registration with it.
                            self.engine.inner.inflight[t.sidx].borrow_mut().remove(&t.key);
                        }
                        node.release_provisional(tid);
                        {
                            let mut st = node.stats().borrow_mut();
                            st.oam_nacks_sent += 1;
                            st.method_mut(tag).nacks_sent += 1;
                        }
                        let nack = self
                            .nack
                            .as_ref()
                            .expect("AbortStrategy::Nack requires a NACK sender on the site");
                        nack(&call);
                    }
                }
                true
            }
        };
        self.after_attempt(node, tag, aborted);
        if !aborted {
            // Its frame is done, so no claim names this packet's address.
            self.recycle(call.pkt);
        }
    }

    /// Thread-per-call dispatch (TRPC, or an adaptively demoted method).
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
        node.stats().borrow_mut().method_mut(tag).threaded += 1;
        let call = OamCall { am: am.clone(), node: node.clone(), pkt: Rc::new(pkt) };
        let ikey = self.inflight_key(&call);
        let fut = match self.claim(&call) {
            Claim::Suppressed => Box::pin(async {}),
            Claim::Run(track) => self.tracked(self.body.boxed(&call), track, &call.pkt),
        };
        let tid = node.spawn_incoming_at(guarded(fut, admit), prio.placement());
        if let Some(key) = ikey {
            self.record_tid(call.node.id().index(), key, tid);
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
    /// Overload-control gate, run before dispatch on machines with
    /// admission configured. Returns `Err(())` when the arrival was
    /// consumed (expired or shed); `Ok(guard)` hands the admission token to
    /// the dispatch path.
    ///
    /// Order matters:
    /// 1. calls the dedup table already tracks bypass every check — a
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
        prio: Priority,
    ) -> Result<Option<AdmitGuard>, ()> {
        let eng = &self.engine.inner;
        let Some(adm) = eng.admission else { return Ok(None) };
        if !self.correlated || !self.expects_reply {
            return Ok(None);
        }
        let call_id = peek_call_id(&pkt.payload);
        if call_id == ONEWAY_SENTINEL {
            return Ok(None);
        }
        let caller = pkt.src;
        let sidx = node.id().index();
        let tag = pkt.tag;
        if self.engine.knows_call(sidx, caller, call_id) {
            // Executing or completed: fall through to dedup handling with
            // no second admission token.
            return Ok(None);
        }
        let deadline_us = peek_deadline_us(&pkt.payload);
        if deadline_us != NO_DEADLINE && node.now().as_nanos() > u64::from(deadline_us) * 1_000 {
            node.stats().borrow_mut().calls_expired += 1;
            node.emit(TraceKind::CallExpired { tag, caller, call_id });
            return Err(());
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
            // The hint is derived from the admitted-call depth only. The NI
            // input backlog would sharpen it, but that snapshot is
            // sensitive to same-timestamp event micro-order, which the
            // host-parallel engine does not reproduce — and the hint goes
            // out on the wire, so it must be partition-invariant.
            let depth = pending.get();
            let base_ns = node.config().cost.nack_backoff_base.as_nanos();
            let hint_ns =
                (depth as u64).saturating_mul(base_ns).min(adm.retry_after_cap.as_nanos());
            let retry_after_us = (hint_ns / 1_000).max(1) as u32;
            {
                let mut st = node.stats().borrow_mut();
                st.calls_shed += 1;
                st.method_mut(tag).shed += 1;
            }
            node.emit(TraceKind::CallShed { tag, caller, call_id, retry_after_us });
            let call = OamCall { am: am.clone(), node: node.clone(), pkt: Rc::new(pkt.clone()) };
            let shed = eng
                .shed_nack
                .borrow()
                .clone()
                .expect("admission control requires a shed-NACK sender on the engine");
            shed(&call, retry_after_us);
            return Err(());
        }
        Ok(Some(AdmitGuard::new(pending, node)))
    }
}

impl MethodSite {
    /// The arrival's dispatch priority: read from the deadline header word,
    /// which only exists on admission-configured machines for correlated,
    /// reply-bearing calls. Everything else is `Normal`.
    fn arrival_priority(&self, pkt: &Packet) -> Priority {
        if self.engine.inner.admission.is_none() || !self.correlated || !self.expects_reply {
            return Priority::Normal;
        }
        if peek_call_id(&pkt.payload) == ONEWAY_SENTINEL {
            return Priority::Normal;
        }
        peek_priority(&pkt.payload)
    }
}

impl PacketHandler for MethodSite {
    fn handle(&self, am: &Am, node: &Node, pkt: Packet) {
        let prio = self.arrival_priority(&pkt);
        let admit = match self.admission_gate(am, node, &pkt, prio) {
            Ok(admit) => admit,
            Err(()) => return,
        };
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

/// Wrap a handler future so the admission token is released exactly when
/// the call finishes. No-op (and no allocation) without a token.
fn guarded(fut: BoxedCall, admit: Option<AdmitGuard>) -> BoxedCall {
    match admit {
        None => fut,
        Some(g) => Box::pin(async move {
            let _g = g;
            fut.await;
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oam_am::{HandlerEntry, HandlerId};
    use oam_model::{Dur, MachineConfig, NodeId, NodeStats};
    use oam_net::{NetConfig, Network};
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
        let net = Network::new(&sim, NetConfig::from_machine(&cfg), stats.clone());
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
        const NACK: HandlerId = HandlerId(11);
        let node1 = am.nodes()[1].clone();
        let m = Mutex::new(&node1, ());
        let m2 = m.clone();
        let body = CallBody::new(move |_call| {
            let m = m2.clone();
            async move {
                let _g = m.lock().await;
            }
        });
        let nack: NackSender = Rc::new(|call: &OamCall| {
            let src = call.pkt.src;
            call.am.send_from_handler(&call.node, src, NACK, vec![]);
        });
        let site = engine.site(ExecPolicy::orpc(), true, body).with_nack(nack);
        assert_eq!(site.abort_strategy(), AbortStrategy::Nack);
        am.register(NodeId(1), CALL, HandlerEntry::Custom(Rc::new(site)));
        let nacks_seen = Rc::new(Cell::new(0u32));
        let ns = nacks_seen.clone();
        am.register(NodeId(0), NACK, HandlerEntry::Inline(Rc::new(move |_t| ns.set(ns.get() + 1))));
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
        assert_eq!(nacks_seen.get(), 1);
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
    fn per_method_budget_override_lets_long_handlers_finish_inline() {
        // Same 500 µs handler as the too-long test, but the method's policy
        // raises the budget above the machine's 200 µs default: every
        // checkpoint passes and the call completes inline.
        let (sim, am, engine, stats) = build(2, MachineConfig::cm5(2));
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
        let policy = ExecPolicy::orpc().with_budget(Dur::from_micros(1_000));
        let site = engine.site(policy, true, body);
        am.register(NodeId(1), CALL, HandlerEntry::Custom(Rc::new(site)));
        send_one(&am, vec![]);
        sim.run();
        assert!(finished.get());
        let st = stats[1].borrow();
        assert_eq!(st.oam_successes, 1);
        assert_eq!(st.total_aborts(), 0);
        assert_eq!(st.threads_created, 0);
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
        // Handler always trips RanTooLong under a tiny per-method budget, so
        // every optimistic attempt aborts. Adaptive windows: demote after 2
        // attempts, re-probe after 3 threaded calls, settle the probe after
        // 2 attempts.
        let (sim, am, engine, stats) = build(2, MachineConfig::cm5(2));
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
        let policy = ExecPolicy::adaptive(adaptive).with_budget(Dur::from_micros(10));
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
        let site =
            engine.site(ExecPolicy::orpc(), true, body).with_call_correlation().with_cancellation();
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
        cfg.reliability.retransmit = true;
        let (sim, am, engine, stats) = build(2, cfg);
        let resent: Rc<RefCell<Vec<u32>>> = Rc::default();
        let r2 = resent.clone();
        engine.set_reply_resender(Rc::new(move |_call, call_id, _reply| {
            r2.borrow_mut().push(call_id);
        }));
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
        let site = engine.site(ExecPolicy::orpc(), true, body).with_call_correlation();
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
    }
}
