//! Whole-machine configuration.

use std::collections::BTreeMap;

use crate::cost::CostModel;
use crate::fault::FaultPlan;
use crate::time::Dur;

/// Where the scheduler places newly runnable RPC threads (§4.1: the paper
/// measured both and reports all results with front-of-queue placement,
/// which always performed better).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum QueuePolicy {
    /// Place incoming work at the front of the run queue (paper default).
    #[default]
    Front,
    /// Place incoming work at the back of the run queue.
    Back,
}

/// How an aborted optimistic execution is resolved (§2 lists exactly these
/// three ways).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AbortStrategy {
    /// Create a continuation: the remainder of the handler executes in a
    /// separate thread ("lazy thread creation"). The default, and the
    /// cheapest: no work is redone.
    #[default]
    Promote,
    /// Undo the execution and start a thread that re-runs the whole remote
    /// procedure. Requires the procedure to mutate shared state only after
    /// acquiring all its locks and testing all its conditions (§3.3).
    Rerun,
    /// Undo the execution and send a negative acknowledgment; the sender
    /// backs off and resends.
    Nack,
}

impl QueuePolicy {
    /// Human-readable label for reports.
    pub fn label(self) -> &'static str {
        match self {
            QueuePolicy::Front => "front",
            QueuePolicy::Back => "back",
        }
    }
}

impl AbortStrategy {
    /// Human-readable label for reports.
    pub fn label(self) -> &'static str {
        match self {
            AbortStrategy::Promote => "promote",
            AbortStrategy::Rerun => "rerun",
            AbortStrategy::Nack => "nack",
        }
    }
}

/// How a registered remote procedure executes on arrival — the paper's two
/// stub-compiler outputs (§3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CallMode {
    /// Optimistic RPC: run the procedure inline as an Optimistic Active
    /// Message, falling back to a thread only on abort.
    #[default]
    Orpc,
    /// Traditional RPC: always create a thread per call.
    Trpc,
}

impl CallMode {
    /// Human-readable label for reports.
    pub fn label(self) -> &'static str {
        match self {
            CallMode::Orpc => "ORPC",
            CallMode::Trpc => "TRPC",
        }
    }
}

/// Adaptive dispatch parameters: when a method carries one of these, the
/// call engine watches its abort rate and *demotes* it from ORPC to TRPC
/// once optimism stops paying (the runtime analogue of the paper's §6
/// observation that ORPC only wins when handlers usually don't block),
/// then periodically *re-probes* ORPC in case the contention was a phase.
///
/// All thresholds are integer percentages and all windows are call counts,
/// so mode switching is a pure function of the (seed-deterministic) arrival
/// sequence — runs with the same seed switch at the same virtual instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdaptivePolicy {
    /// Attempts per observation window while executing optimistically.
    pub window: u32,
    /// Demote to TRPC when a window's abort percentage reaches this.
    pub demote_abort_pct: u32,
    /// TRPC calls to serve before re-probing ORPC.
    pub reprobe_after: u32,
    /// Attempts in a re-probe window (usually smaller than `window`).
    pub probe_window: u32,
    /// A probe re-promotes to ORPC only if its abort percentage is at most
    /// this (hysteresis: strictly below `demote_abort_pct`).
    pub promote_abort_pct: u32,
}

impl Default for AdaptivePolicy {
    fn default() -> Self {
        AdaptivePolicy {
            window: 32,
            demote_abort_pct: 50,
            reprobe_after: 256,
            probe_window: 16,
            promote_abort_pct: 10,
        }
    }
}

impl AdaptivePolicy {
    /// Validate thresholds and window sizes.
    pub fn validate(&self) -> Result<(), String> {
        if self.window == 0 || self.probe_window == 0 || self.reprobe_after == 0 {
            return Err("adaptive windows must be at least 1 call".into());
        }
        if self.demote_abort_pct > 100 || self.promote_abort_pct > 100 {
            return Err("adaptive percentages must be in 0..=100".into());
        }
        if self.promote_abort_pct >= self.demote_abort_pct {
            return Err("promote_abort_pct must be below demote_abort_pct (hysteresis)".into());
        }
        Ok(())
    }
}

/// Per-method execution policy: everything the call engine needs to decide
/// how one remote procedure runs. `None` fields inherit the machine-wide
/// configuration, so a default policy built from a registration mode is
/// behaviourally identical to the pre-policy runtime.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecPolicy {
    /// Initial dispatch mode.
    pub mode: CallMode,
    /// Abort resolution; `None` inherits [`MachineConfig::abort_strategy`].
    pub abort: Option<AbortStrategy>,
    /// Optimistic run-length budget; `None` inherits
    /// [`MachineConfig::handler_budget`].
    pub handler_budget: Option<Dur>,
    /// Adaptive ORPC→TRPC demotion; `None` keeps the mode fixed.
    pub adaptive: Option<AdaptivePolicy>,
}

impl ExecPolicy {
    /// The default policy for a registration in `mode`: inherit every
    /// machine-wide setting, no adaptation.
    pub fn for_mode(mode: CallMode) -> Self {
        ExecPolicy { mode, abort: None, handler_budget: None, adaptive: None }
    }

    /// Optimistic execution with inherited abort strategy and budget.
    pub fn orpc() -> Self {
        Self::for_mode(CallMode::Orpc)
    }

    /// A thread per call.
    pub fn trpc() -> Self {
        Self::for_mode(CallMode::Trpc)
    }

    /// Optimistic execution with adaptive demotion to TRPC.
    pub fn adaptive(a: AdaptivePolicy) -> Self {
        ExecPolicy { adaptive: Some(a), ..Self::orpc() }
    }

    /// Builder-style abort-strategy override.
    pub fn with_abort(mut self, s: AbortStrategy) -> Self {
        self.abort = Some(s);
        self
    }

    /// Builder-style handler-budget override.
    pub fn with_budget(mut self, d: Dur) -> Self {
        self.handler_budget = Some(d);
        self
    }

    /// Validate internal consistency.
    pub fn validate(&self) -> Result<(), String> {
        if let Some(a) = &self.adaptive {
            a.validate()?;
            if self.mode != CallMode::Orpc {
                return Err("adaptive policies must start in ORPC mode".into());
            }
        }
        Ok(())
    }
}

/// Per-node overload control: bound the number of engine-admitted calls in
/// flight and shed the excess deterministically with NACKs that carry a
/// retry-after hint.
///
/// Off (`MachineConfig::admission = None`) by default so existing workloads
/// and goldens are untouched: with no admission config the wire format
/// carries no deadline header and no call is ever shed. When present, every
/// two-way request carries a 4-byte deadline word, servers drop expired
/// calls before execution, and arrivals beyond `pending_budget` are NACKed
/// back with a queue-depth-derived retry-after hint instead of being
/// queued without bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Maximum engine-admitted calls pending per node (executing inline,
    /// promoted, rerun, or queued as threads). Arrivals beyond this are
    /// shed with a NACK.
    pub pending_budget: usize,
    /// Upper bound on the retry-after hint a shed NACK may carry.
    pub retry_after_cap: Dur,
    /// Adaptive methods demote to TRPC as soon as the node's pending-call
    /// depth reaches this threshold (demote *before* the abort storm, not
    /// after). `0` disables the overload signal and leaves demotion purely
    /// abort-rate driven.
    pub overload_demote_depth: usize,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            pending_budget: 64,
            retry_after_cap: Dur::from_micros(500),
            overload_demote_depth: 48,
        }
    }
}

impl AdmissionConfig {
    /// Validate budgets.
    pub fn validate(&self) -> Result<(), String> {
        if self.pending_budget == 0 {
            return Err("admission pending budget must be at least 1 call".into());
        }
        if self.retry_after_cap == Dur::ZERO {
            return Err("retry-after cap must be positive".into());
        }
        Ok(())
    }
}

/// End-to-end RPC reliability policy: what the client stubs do about lost
/// requests and replies.
///
/// Off by default so fault-free runs reproduce the paper's protocol
/// exactly (no timers, no acks, identical message counts). Turn it on when
/// a [`FaultPlan`] can lose packets; with it on, two-way calls retransmit
/// on a per-call timeout with exponential back-off, one-way calls are
/// acknowledged and retransmitted the same way, and servers suppress the
/// resulting duplicates so every call still executes at most once.
#[derive(Debug, Clone, PartialEq)]
pub struct ReliabilityConfig {
    /// Enable per-call timeout + retransmission (and oneway acks).
    pub retransmit: bool,
    /// Base per-call timeout before the first retransmission. Subsequent
    /// timeouts back off exponentially from this base plus jitter derived
    /// from [`CostModel::nack_backoff_base`].
    pub retransmit_timeout: Dur,
    /// Cap on the back-off exponent (delay grows as `2^min(attempt, cap)`).
    pub max_backoff_exp: u32,
}

impl Default for ReliabilityConfig {
    fn default() -> Self {
        ReliabilityConfig {
            retransmit: false,
            retransmit_timeout: Dur::from_micros(200),
            max_backoff_exp: 6,
        }
    }
}

impl ReliabilityConfig {
    /// Retransmission enabled with default timing.
    pub fn retransmitting() -> Self {
        ReliabilityConfig { retransmit: true, ..Default::default() }
    }
}

/// Full configuration of a simulated machine run.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    /// Number of processing nodes.
    pub nodes: usize,
    /// Primitive-operation costs.
    pub cost: CostModel,
    /// Seed for all deterministic pseudo-randomness (workload jitter,
    /// NACK back-off jitter).
    pub seed: u64,
    /// Run-queue placement for incoming RPC threads.
    pub queue_policy: QueuePolicy,
    /// Resolution of aborted optimistic executions.
    pub abort_strategy: AbortStrategy,
    /// Capacity (packets) of each node's NI output FIFO. When full, sends
    /// block — one of the three abort conditions.
    pub ni_out_capacity: usize,
    /// Capacity (packets) of each node's NI input FIFO.
    pub ni_in_capacity: usize,
    /// Packets the fabric will buffer per directed link beyond the input
    /// FIFO: each sender holds this many credits per destination, and its
    /// output FIFO stalls once they are spent. The CM-5 had "a substantial
    /// amount of buffering in the network" (§2); Alewife-like machines have
    /// very little.
    pub fabric_capacity: usize,
    /// Virtual-time budget for an optimistic handler before a `checkpoint()`
    /// triggers a [`crate::stats::AbortReason::RanTooLong`] abort.
    pub handler_budget: Dur,
    /// Encoded payloads (including the RPC call header) strictly larger
    /// than this use the bulk-transfer mechanism instead of a short
    /// active message (the CM-5's four argument words = 16 bytes, §4.1.2).
    pub bulk_threshold: usize,
    /// Maximum nesting depth of inline handler dispatch (handlers that send
    /// drain the network, which can run further handlers).
    pub max_dispatch_depth: usize,
    /// CM-5 behaviour (§3.3): sends from inside a message handler
    /// automatically drain the network, so a full NI never forces a
    /// handler to abort — staged packets flush as space frees. Disable to
    /// model machines where a full NI is a real OAM abort condition
    /// ([`crate::stats::AbortReason::NetworkFull`]).
    pub auto_drain_on_handler_send: bool,
    /// Fault-injection plan for the data network; `None` (the default)
    /// reproduces the paper's lossless CM-5 fabric.
    pub fault_plan: Option<FaultPlan>,
    /// End-to-end RPC reliability policy (timeouts, retransmission, acks).
    pub reliability: ReliabilityConfig,
    /// Per-node overload control (admission budget, shed NACKs with
    /// retry-after, per-call deadlines). `None` (the default) disables
    /// overload control entirely and keeps the wire format header-free.
    pub admission: Option<AdmissionConfig>,
    /// Per-method execution policies, keyed by raw handler id. Methods
    /// without an entry execute under a default policy derived from their
    /// registration mode and the machine-wide settings above, reproducing
    /// the pre-policy runtime exactly.
    pub policies: BTreeMap<u32, ExecPolicy>,
    /// Host-parallelism shard count: partition the simulated nodes into
    /// this many shards, synchronized by conservative epochs. Default 1.
    /// Results are identical for any shard count, fault plans included.
    /// Must be in `1..=nodes`: a shard builds only the nodes it owns.
    pub shards: usize,
    /// Execution backend: the discrete-event simulator (virtual time,
    /// bit-deterministic; the default) or the native host-threads runtime
    /// (one worker OS thread per host core owning a range of nodes, SPSC
    /// rings between workers, wall-clock time — answer-deterministic
    /// only, and no fault plan).
    pub backend: Backend,
    /// Host-engine tuning for the sharded epoch executor (fence policy,
    /// barrier spin budget, delivery batch, worker count). These knobs
    /// change host-side scheduling only — simulation outcomes are
    /// bit-identical for every setting. `None` fields take the defaults
    /// documented on [`ShardTuning`].
    pub tuning: ShardTuning,
}

/// Tuning knobs for the sharded epoch engine's host-side scheduling.
///
/// None of these affect simulation outcomes: answers, per-node stats, and
/// golden traces are bit-identical for every combination (the differential
/// tests assert this). They only trade host cycles: how shard workers wait
/// at the epoch barrier, how many workers drive the shards, how deposits
/// batch, and whether the adaptive fence policy may widen epochs past one
/// lookahead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct ShardTuning {
    /// Force the naive reference fence policy — classic
    /// `global min + lookahead` every epoch, with an unconditional
    /// exchange round — instead of the adaptive policy (quiet-round
    /// barrier fusion + min-holder fence widening). `None` means adaptive.
    /// The differential tests run both policies against each other.
    pub naive_fence: Option<bool>,
    /// Barrier spin budget: iterations a shard worker spins at the epoch
    /// barrier before parking its thread. `None` picks automatically:
    /// spin only when the host has at least one core per epoch worker
    /// (spinning on an oversubscribed host burns the quantum the peer
    /// worker needs).
    pub spin: Option<u32>,
    /// Has no effect: thread pinning was removed (no measured gain; see
    /// EXPERIMENTS.md "Knob ablation 1"). `Some(true)` is a
    /// [`MachineConfig::validate`] error. Kept only so code that builds
    /// `ShardTuning` with a struct literal keeps compiling.
    pub pin: Option<bool>,
    /// Has no effect: every simulator run uses the one keyed epoch engine.
    /// Kept only so code that builds `ShardTuning` with a struct literal
    /// keeps compiling.
    pub force_epoch: Option<bool>,
    /// Delivery batch size for the cross-worker fabric layer. `1` selects
    /// the naive per-message path (one mailbox write per record in the
    /// epoch engine, one ring push + wake signal per record on the native
    /// backend); larger values coalesce deposits until a flush boundary
    /// (the epoch barrier, or the native high-water mark / end of a
    /// handler-run pass). `None` means [`MachineConfig::DEFAULT_BATCH`].
    /// Never outcome-affecting.
    pub batch: Option<u32>,
    /// Host worker threads driving the epoch engine's shards. Each worker
    /// multiplexes a contiguous range of shard replicas, so barriers
    /// between co-located shards cost function calls instead of
    /// park/unpark round trips — one wake per epoch per *worker*, not per
    /// shard. `None` means `min(shards, host cores)`. Never
    /// outcome-affecting (the epoch engine is host-schedule invariant).
    pub workers: Option<usize>,
}

/// Which runtime executes a partitioned run (`run_partitioned`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Backend {
    /// The discrete-event simulator: virtual time, deterministic event
    /// order, bit-identical traces and goldens for a given seed.
    #[default]
    Sim,
    /// The native host-threads runtime: `min(host cores, nodes)` worker
    /// OS threads, each owning a contiguous range of nodes, with
    /// ring-delivered packets between workers and wall-clock time. Answers
    /// are deterministic for data-deterministic programs; timings and
    /// traces are not.
    Native,
}

impl Backend {
    /// Short label (`"sim"` / `"native"`), as accepted by `OAM_BACKEND`
    /// (see [`crate::env`]).
    pub fn label(self) -> &'static str {
        match self {
            Backend::Sim => "sim",
            Backend::Native => "native",
        }
    }
}

impl MachineConfig {
    /// Delivery batch size when [`ShardTuning::batch`] is unset (see
    /// [`MachineConfig::effective_batch`]).
    pub const DEFAULT_BATCH: u32 = 32;

    /// CM-5-like defaults: deep network buffering, front-of-queue placement,
    /// promotion on abort.
    pub fn cm5(nodes: usize) -> Self {
        MachineConfig {
            nodes,
            cost: CostModel::cm5(),
            seed: 0x0a11_ce55_0a11_ce55,
            queue_policy: QueuePolicy::Front,
            abort_strategy: AbortStrategy::Promote,
            ni_out_capacity: 4,
            ni_in_capacity: 16,
            fabric_capacity: 512,
            handler_budget: Dur::from_micros(200),
            bulk_threshold: 16,
            max_dispatch_depth: 8,
            auto_drain_on_handler_send: true,
            fault_plan: None,
            reliability: ReliabilityConfig::default(),
            admission: None,
            policies: BTreeMap::new(),
            shards: 1,
            backend: Backend::Sim,
            tuning: ShardTuning::default(),
        }
    }

    /// Alewife-like defaults: the same processors but almost no network
    /// buffering, so a node that fails to poll quickly backs the fabric up
    /// into its senders (§2).
    pub fn alewife_like(nodes: usize) -> Self {
        MachineConfig {
            cost: CostModel::alewife_like(),
            ni_out_capacity: 2,
            ni_in_capacity: 2,
            fabric_capacity: 8,
            auto_drain_on_handler_send: false,
            ..Self::cm5(nodes)
        }
    }

    /// Builder-style seed override.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style queue-policy override.
    pub fn with_queue_policy(mut self, p: QueuePolicy) -> Self {
        self.queue_policy = p;
        self
    }

    /// Builder-style abort-strategy override.
    pub fn with_abort_strategy(mut self, s: AbortStrategy) -> Self {
        self.abort_strategy = s;
        self
    }

    /// Builder-style fault-plan override.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Builder-style reliability override (most often
    /// [`ReliabilityConfig::retransmitting`] next to a lossy fault plan).
    pub fn with_reliability(mut self, r: ReliabilityConfig) -> Self {
        self.reliability = r;
        self
    }

    /// Builder-style admission-control override (turns overload control —
    /// shed NACKs, retry-after hints, per-call deadlines — on).
    pub fn with_admission(mut self, a: AdmissionConfig) -> Self {
        self.admission = Some(a);
        self
    }

    /// Builder-style per-method policy override (`method` is the raw
    /// handler id, e.g. `MyService::my_method::ID.0`).
    pub fn with_policy(mut self, method: u32, p: ExecPolicy) -> Self {
        self.policies.insert(method, p);
        self
    }

    /// Builder-style shard-count override.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Builder-style backend override.
    pub fn with_backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Builder-style epoch-engine tuning override (fence policy, barrier
    /// spin budget, delivery batch, workers); see [`ShardTuning`].
    pub fn with_tuning(mut self, tuning: ShardTuning) -> Self {
        self.tuning = tuning;
        self
    }

    /// The delivery batch size: [`ShardTuning::batch`], else
    /// [`MachineConfig::DEFAULT_BATCH`]. `1` is the naive per-message
    /// delivery path.
    pub fn effective_batch(&self) -> u32 {
        self.tuning.batch.unwrap_or(Self::DEFAULT_BATCH)
    }

    /// The epoch worker-thread count for `shards` shards:
    /// [`ShardTuning::workers`], else one worker per host core; clamped
    /// to `[1, shards]`. On hosts with a core per shard this is one shard
    /// per worker (maximum parallelism); on oversubscribed hosts shards
    /// share workers and their barriers collapse into function calls.
    pub fn effective_workers(&self, shards: usize) -> usize {
        self.tuning.workers.unwrap_or_else(crate::host_cores).clamp(1, shards.max(1))
    }

    /// Validate internal consistency (positive capacities, at least one node).
    pub fn validate(&self) -> Result<(), String> {
        if self.nodes == 0 {
            return Err("machine must have at least one node".into());
        }
        if self.ni_out_capacity == 0 || self.ni_in_capacity == 0 {
            return Err("NI FIFOs must hold at least one packet".into());
        }
        if self.fabric_capacity == 0 {
            return Err("fabric must buffer at least one packet".into());
        }
        if self.max_dispatch_depth == 0 {
            return Err("dispatch depth must be at least 1".into());
        }
        if let Some(plan) = &self.fault_plan {
            plan.validate()?;
        }
        if self.reliability.retransmit && self.reliability.retransmit_timeout == Dur::ZERO {
            return Err("retransmit timeout must be positive".into());
        }
        if let Some(a) = &self.admission {
            a.validate()?;
        }
        for (id, p) in &self.policies {
            p.validate().map_err(|e| format!("policy for handler {id:#010x}: {e}"))?;
        }
        if self.shards == 0 {
            return Err("shard count must be at least 1".into());
        }
        if self.shards > self.nodes {
            return Err(format!(
                "{} shards for {} nodes: every shard must own at least one node",
                self.shards, self.nodes
            ));
        }
        if self.backend == Backend::Native && self.fault_plan.is_some() {
            return Err(
                "the native backend cannot inject faults: a fault plan needs Backend::Sim".into()
            );
        }
        if self.tuning.batch == Some(0) {
            return Err("delivery batch size must be at least 1".into());
        }
        if self.tuning.workers == Some(0) {
            return Err("epoch worker count must be at least 1".into());
        }
        if self.tuning.pin == Some(true) {
            return Err(
                "thread pinning was removed: ShardTuning::pin must not be Some(true)".into()
            );
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cm5_config_is_valid_and_deeply_buffered() {
        let c = MachineConfig::cm5(128);
        assert!(c.validate().is_ok());
        assert!(c.fabric_capacity >= 256);
        assert_eq!(c.bulk_threshold, 16);
        assert_eq!(c.queue_policy, QueuePolicy::Front);
    }

    #[test]
    fn alewife_config_is_shallowly_buffered() {
        let a = MachineConfig::alewife_like(16);
        assert!(a.validate().is_ok());
        assert!(a.fabric_capacity < MachineConfig::cm5(16).fabric_capacity);
    }

    #[test]
    fn validation_rejects_degenerate_configs() {
        let mut c = MachineConfig::cm5(0);
        assert!(c.validate().is_err());
        c.nodes = 2;
        c.ni_in_capacity = 0;
        assert!(c.validate().is_err());
        c.ni_in_capacity = 1;
        c.fabric_capacity = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn explicit_shards_above_the_node_count_are_rejected() {
        assert!(MachineConfig::cm5(4).with_shards(4).validate().is_ok());
        let err = MachineConfig::cm5(2).with_shards(4).validate().expect_err("4 shards, 2 nodes");
        assert!(err.contains('4') && err.contains('2'), "names both numbers: {err}");
        assert_eq!(err, "4 shards for 2 nodes: every shard must own at least one node");
        assert!(MachineConfig::cm5(2).with_shards(0).validate().is_err());
    }

    #[test]
    fn native_with_a_fault_plan_is_rejected() {
        let cfg = MachineConfig::cm5(2).with_backend(Backend::Native);
        assert!(cfg.validate().is_ok());
        let err = cfg.with_fault_plan(FaultPlan::drop_only(0.0)).validate().expect_err("native");
        assert_eq!(err, "the native backend cannot inject faults: a fault plan needs Backend::Sim");
    }

    #[test]
    fn pinning_is_rejected() {
        let tuned =
            |pin| MachineConfig::cm5(2).with_tuning(ShardTuning { pin, ..Default::default() });
        assert!(tuned(Some(false)).validate().is_ok());
        assert_eq!(
            tuned(Some(true)).validate(),
            Err("thread pinning was removed: ShardTuning::pin must not be Some(true)".into())
        );
    }

    #[test]
    fn exec_policy_defaults_inherit_machine_config() {
        let p = ExecPolicy::orpc();
        assert_eq!(p.mode, CallMode::Orpc);
        assert!(p.abort.is_none() && p.handler_budget.is_none() && p.adaptive.is_none());
        assert!(p.validate().is_ok());
        let p = ExecPolicy::trpc().with_abort(AbortStrategy::Rerun);
        assert_eq!(p.mode, CallMode::Trpc);
        assert_eq!(p.abort, Some(AbortStrategy::Rerun));
        assert_eq!(CallMode::Orpc.label(), "ORPC");
        assert_eq!(CallMode::Trpc.label(), "TRPC");
    }

    #[test]
    fn adaptive_policy_validation() {
        assert!(AdaptivePolicy::default().validate().is_ok());
        let bad = AdaptivePolicy { window: 0, ..Default::default() };
        assert!(bad.validate().is_err());
        let bad = AdaptivePolicy { demote_abort_pct: 120, ..Default::default() };
        assert!(bad.validate().is_err());
        // No hysteresis gap: promote >= demote.
        let bad =
            AdaptivePolicy { promote_abort_pct: 50, demote_abort_pct: 50, ..Default::default() };
        assert!(bad.validate().is_err());
        // Adaptive policies must start optimistic.
        let p = ExecPolicy { mode: CallMode::Trpc, ..ExecPolicy::adaptive(Default::default()) };
        assert!(p.validate().is_err());
        // And an invalid adaptive policy fails machine validation.
        let cfg = MachineConfig::cm5(2).with_policy(
            7,
            ExecPolicy::adaptive(AdaptivePolicy { probe_window: 0, ..Default::default() }),
        );
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn machine_config_carries_policies() {
        let cfg = MachineConfig::cm5(2)
            .with_policy(1, ExecPolicy::trpc())
            .with_policy(2, ExecPolicy::adaptive(AdaptivePolicy::default()));
        assert!(cfg.validate().is_ok());
        assert_eq!(cfg.policies.len(), 2);
        assert_eq!(cfg.policies[&1].mode, CallMode::Trpc);
        assert!(cfg.policies[&2].adaptive.is_some());
    }

    #[test]
    fn admission_config_validation() {
        assert!(MachineConfig::cm5(2).admission.is_none(), "off by default");
        let cfg = MachineConfig::cm5(2).with_admission(AdmissionConfig::default());
        assert!(cfg.validate().is_ok());
        let bad = MachineConfig::cm5(2)
            .with_admission(AdmissionConfig { pending_budget: 0, ..Default::default() });
        assert!(bad.validate().is_err());
        let bad = MachineConfig::cm5(2)
            .with_admission(AdmissionConfig { retry_after_cap: Dur::ZERO, ..Default::default() });
        assert!(bad.validate().is_err());
        // overload_demote_depth 0 is legal: it just disables the signal.
        let cfg = MachineConfig::cm5(2)
            .with_admission(AdmissionConfig { overload_demote_depth: 0, ..Default::default() });
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn batch_and_worker_tuning_resolution() {
        let cfg = MachineConfig::cm5(8);
        assert_eq!(cfg.effective_batch(), MachineConfig::DEFAULT_BATCH);
        let naive =
            MachineConfig::cm5(8).with_tuning(ShardTuning { batch: Some(1), ..Default::default() });
        assert_eq!(naive.effective_batch(), 1);
        // Workers never exceed the shard count and never drop below one.
        let pinned = MachineConfig::cm5(8)
            .with_tuning(ShardTuning { workers: Some(64), ..Default::default() });
        assert_eq!(pinned.effective_workers(4), 4);
        assert_eq!(pinned.effective_workers(1), 1);
        let bad =
            MachineConfig::cm5(8).with_tuning(ShardTuning { batch: Some(0), ..Default::default() });
        assert!(bad.validate().is_err());
        let bad = MachineConfig::cm5(8)
            .with_tuning(ShardTuning { workers: Some(0), ..Default::default() });
        assert!(bad.validate().is_err());
    }

    #[test]
    fn engine_counter_merge_sums_delivery_fields() {
        use crate::EngineCounters;
        let mut a = EngineCounters {
            epochs: 5,
            empty_epochs: 2,
            fence_skips: 1,
            deposits: 10,
            batches: 3,
            wakes: 4,
        };
        let b = EngineCounters { deposits: 7, batches: 2, wakes: 1, ..a };
        a.absorb(b);
        assert_eq!(a.epochs, 5);
        assert_eq!(a.deposits, 17);
        assert_eq!(a.batches, 5);
        assert_eq!(a.wakes, 5);
        assert!((a.msgs_per_batch() - 3.4).abs() < 1e-9);
        assert_eq!(EngineCounters::default().msgs_per_batch(), 0.0);
    }

    #[test]
    fn builder_overrides() {
        let c = MachineConfig::cm5(4)
            .with_seed(7)
            .with_queue_policy(QueuePolicy::Back)
            .with_abort_strategy(AbortStrategy::Nack);
        assert_eq!(c.seed, 7);
        assert_eq!(c.queue_policy, QueuePolicy::Back);
        assert_eq!(c.abort_strategy, AbortStrategy::Nack);
        assert_eq!(AbortStrategy::Nack.label(), "nack");
        assert_eq!(QueuePolicy::Back.label(), "back");
    }
}
