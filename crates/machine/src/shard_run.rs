//! Partitioned (sharded) machine execution: shard replicas of simulated
//! nodes multiplexed onto host worker threads, synchronized by
//! conservative epochs.
//!
//! Each shard owns a contiguous range of nodes and runs them on a private
//! keyed [`Sim`](oam_sim::Sim) — its own calendar queue, RNG streams, and
//! thread-local state. Workers execute every event strictly before the
//! current fence, then meet at a lock-free barrier. Rounds with cross
//! traffic exchange the only data that crosses threads — cross-shard
//! network packets and collective contributions ([`CrossMsg`]) — through
//! per-(src, dst) mailbox slots and agree on the next fence at a second
//! barrier; quiet rounds fuse everything into a single barrier and, under
//! the adaptive fence policy, widen the fence past one lookahead where the
//! effect-horizon argument allows (see `oam_sim::shard`). No shard can
//! ever receive a record dated before an event it already executed, so
//! answers, stats, and keyed event order are independent of the shard
//! count and of the fence policy.
//!
//! ## Workers vs shards
//!
//! The shard count fixes the *partition* (and therefore the epoch
//! schedule); the worker count fixes how many OS threads drive it
//! (`cfg.effective_workers()`, default one per host core, capped at the
//! shard count). Each worker owns a contiguous range of shards and steps
//! them in lockstep through the split-phase barrier: it arrives for every
//! owned shard, then completes them — so barriers between co-located
//! shards are function calls, and an epoch costs one wake per *worker*,
//! not per shard. On a one-core host a 4-shard run is single-threaded and
//! park-free while remaining bit-identical to the thread-per-shard run:
//! the epoch engine is host-schedule invariant by construction.
//!
//! Worker 0 always runs on the calling thread; only workers `1..workers`
//! are spawned, so a one-worker run creates no thread at all. The native
//! backend starts its workers the same way, through the same helper
//! (`run_workers`), which also turns a worker's panic into a prompt end
//! of the run: the unwinding worker poisons the epoch [`Coordinator`] (or
//! stops the native run), so its peers stop waiting for it, and the panic
//! resumes on the caller once every worker has been joined. The host
//! core count behind the defaults is probed once per process
//! ([`oam_model::host_cores`]).
//!
//! Cross-shard records take the batched delivery path by default (one
//! mailbox publish per peer per epoch, `cfg.effective_batch()`); a batch
//! size of 1 selects the per-message reference path.

use std::future::Future;
use std::panic::{self, AssertUnwindSafe};
use std::pin::Pin;
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};

use oam_model::{Backend, Dur, EngineCounters, MachineConfig, Time};
use oam_net::CrossNet;
use oam_sim::{
    default_spin, partition, shard_range, Coordinator, Fence, FencePolicy, Round, ShardPort,
};
use oam_threads::Flag;

use crate::collective::{ReduceRecord, ShardCollectives};
use crate::machine::{merge, Machine, MachineBuilder, NodeEnv, ReplicaExit, RunReport};

/// A record crossing host threads: at an epoch barrier between shards,
/// or through an SPSC ring between native workers.
#[derive(Clone)]
pub enum CrossMsg {
    /// A network packet or bulk transfer bound for a node another replica
    /// owns.
    Net(CrossNet),
    /// A collective contribution, broadcast to every replica.
    Reduce(ReduceRecord),
}

/// A boxed SPMD node main: invoked once per owned node, returning that
/// node's boxed main future.
pub type NodeMain = Box<dyn Fn(NodeEnv) -> Pin<Box<dyn Future<Output = ()>>>>;

/// A boxed answer extractor: reads the final result out of the (quiet)
/// machine that owns node 0.
pub type FinishFn<R> = Box<dyn FnOnce(&Machine) -> R>;

/// What a replica runs: the SPMD node main plus a finalizer that extracts
/// the application's answer from the machine after the run goes quiet.
///
/// Produced per replica (a shard, or a native worker's node range) by the
/// `setup` closure handed to [`run_partitioned`]; `setup` also registers
/// handlers on the replica's own nodes ([`Machine::nodes`]) and creates
/// the reducers, the same ones in the same order on every replica so
/// collective ids line up.
pub struct ShardApp<R> {
    /// The node main, boxed so every replica's setup can capture its own
    /// thread-local state.
    pub main: NodeMain,
    /// Reads the final answer out of the (quiet) machine. Only invoked on
    /// the replica that owns node 0 — the node that writes answers in
    /// every app in this repo — once its mains are done.
    pub finish: FinishFn<R>,
}

/// One replica of a run, on either backend: a machine for a range of
/// nodes with the application set up on it and every owned node's main
/// spawned. The epoch engine steps replicas through barriers; a native
/// worker runs one in real time.
pub(crate) struct Replica<R> {
    pub(crate) machine: Machine,
    pub(crate) ctx: Rc<ShardCollectives>,
    done: Vec<Flag>,
    finish: FinishFn<R>,
}

impl<R> Replica<R> {
    /// Run `setup` on `machine`, then spawn the main of every node it owns.
    pub(crate) fn new(machine: Machine, setup: &impl Fn(&Machine) -> ShardApp<R>) -> Self {
        let app = setup(&machine);
        let done = machine.spawn_mains(&app.main);
        let ctx = Rc::clone(machine.collectives().shard_ctx());
        Replica { machine, ctx, done, finish: app.finish }
    }

    /// Whether every owned node's main has completed.
    pub(crate) fn mains_done(&self) -> bool {
        self.done.iter().all(Flag::get)
    }

    /// Harvest the replica, trailing idle folded at `end`, with its
    /// host-engine counters; the replica that owns node 0 also reads the
    /// answer, once its mains are done.
    pub(crate) fn exit(self, end: Time, engine: EngineCounters) -> ReplicaExit<R> {
        let mut exit = self.machine.exit(&self.done, end);
        exit.engine = engine;
        if exit.first == 0 && self.mains_done() {
            exit.answer = Some((self.finish)(&self.machine));
        }
        exit
    }
}

/// Conservative lookahead for a configuration: the minimum latency of any
/// cross-shard effect — wire latency for packets, and the collective
/// latencies for reduction publishes.
pub(crate) fn conservative_lookahead(cfg: &MachineConfig) -> Dur {
    cfg.cost.wire_latency.min(cfg.cost.barrier_latency).min(cfg.cost.reduction_latency)
}

/// Run an application across `cfg.shards` shards (or on the native
/// backend, if `cfg.backend` says so) and merge the per-shard reports into
/// one [`RunReport`].
///
/// Nodes are partitioned into contiguous ranges and executed under
/// conservative epoch synchronization; one shard simply runs to
/// quiescence. Answers, per-node statistics and event counts are
/// independent of the shard count.
///
/// `setup` runs once per shard against that shard's machine replica, which
/// holds only the shard's own nodes, and must be deterministic: register
/// handlers on those nodes and create the same reducers in the same order
/// on every shard.
///
/// # Panics
/// Panics if `cfg` is invalid, or if any node main fails to complete
/// (distributed deadlock), like [`Machine::run`].
pub fn run_partitioned<R: Send + 'static>(
    cfg: MachineConfig,
    setup: impl Fn(&Machine) -> ShardApp<R> + Send + Sync,
) -> (RunReport, R) {
    // Backend dispatch: the native host-threads runtime replaces the whole
    // epoch machinery below (one worker per host core, no fences,
    // wall-clock time); the simulator continues here.
    if cfg.backend == Backend::Native {
        return crate::native_run::run_native(cfg, setup);
    }
    cfg.validate().expect("invalid machine configuration");
    let shards = cfg.shards;
    let nodes = cfg.nodes;
    let lookahead = conservative_lookahead(&cfg);
    let owners = partition(nodes, shards);
    // Host-scheduling knobs (never outcome-affecting; see ShardTuning).
    let workers = cfg.effective_workers(shards);
    let policy = if cfg.tuning.naive_fence == Some(true) {
        FencePolicy::Naive
    } else {
        FencePolicy::Adaptive
    };
    let spin = cfg.tuning.spin.unwrap_or_else(|| default_spin(workers));
    let batched = cfg.effective_batch() > 1;
    let coord = Coordinator::<CrossMsg>::new(shards, lookahead)
        .with_policy(policy)
        .with_spin(spin)
        .with_batched(batched);

    let mut exits: Vec<ReplicaExit<R>> = run_workers(
        0..workers,
        |worker| run_worker(cfg.clone(), &coord, &owners, worker, workers, &setup),
        || coord.poison(),
    )
    .into_iter()
    .flatten()
    .collect();
    exits[0].engine.wakes += coord.wakes();
    merge(exits, None).unwrap_or_else(|hang| panic!("partitioned run did not complete:\n{hang}"))
}

/// Start one worker per input and return their results in worker order.
/// Worker 0 runs on the calling thread, whatever the worker count:
/// spawning it would only add a thread, and a malloc arena, that the run
/// does not need. Workers `1..` run on scoped threads, joined in order.
///
/// A worker that panics calls `on_panic` on its own thread as it unwinds,
/// which must make every other worker return (or unwind) promptly. Once
/// all are joined, the panic of the first worker to unwind resumes on the
/// caller: a peer that unwound only because it was told to does not mask
/// the cause.
pub(crate) fn run_workers<I: Send, T: Send>(
    inputs: impl IntoIterator<Item = I>,
    work: impl Fn(I) -> T + Sync,
    on_panic: impl Fn() + Sync,
) -> Vec<T> {
    let first_panic = AtomicUsize::new(usize::MAX);
    let guarded = |worker: usize, input: I| {
        let _guard = PanicGuard { worker, first_panic: &first_panic, on_panic: &on_panic };
        work(input)
    };
    let mut inputs = inputs.into_iter();
    let first = inputs.next().expect("a run has at least one worker");
    let mut results: Vec<std::thread::Result<T>> = std::thread::scope(|scope| {
        let guarded = &guarded;
        let handles: Vec<_> = inputs
            .enumerate()
            .map(|(i, input)| scope.spawn(move || guarded(i + 1, input)))
            .collect();
        let mut results = vec![panic::catch_unwind(AssertUnwindSafe(|| guarded(0, first)))];
        results.extend(handles.into_iter().map(|h| h.join()));
        results
    });
    let cause = first_panic.into_inner();
    if cause != usize::MAX {
        // The guard fires only while its worker unwinds, so that worker's
        // join returned its panic.
        if let Err(payload) = results.swap_remove(cause) {
            panic::resume_unwind(payload);
        }
    }
    results.into_iter().map(|r| r.expect("no worker unwound")).collect()
}

/// Armed for the whole of one worker's body by [`run_workers`]: if the
/// worker unwinds, it records itself as the cause unless a peer unwound
/// first, then calls the run's `on_panic`.
struct PanicGuard<'a, F: Fn()> {
    worker: usize,
    first_panic: &'a AtomicUsize,
    on_panic: &'a F,
}

impl<F: Fn()> Drop for PanicGuard<'_, F> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let _ = self.first_panic.compare_exchange(
                usize::MAX,
                self.worker,
                Ordering::AcqRel,
                Ordering::Relaxed,
            );
            (self.on_panic)();
        }
    }
}

/// One shard replica as driven by a worker thread: the replica, its
/// port, and its progress through the epoch protocol.
struct Lane<'c, R> {
    replica: Replica<R>,
    port: ShardPort<'c, CrossMsg>,
    fence: Fence,
}

/// Worker body: build the replica machines for every shard this worker
/// owns, spawn their mains, then step all of them in lockstep through the
/// epoch protocol — arrive for every owned shard, then complete them, so
/// barriers between co-located shards never block (see the module docs).
fn run_worker<R>(
    cfg: MachineConfig,
    coord: &Coordinator<CrossMsg>,
    owners: &[usize],
    worker: usize,
    workers: usize,
    setup: &(impl Fn(&Machine) -> ShardApp<R> + Send + Sync),
) -> Vec<ReplicaExit<R>> {
    let nodes = cfg.nodes;
    let shards = coord_shards(owners);
    // Contiguous, balanced assignment of shards to workers — the same
    // partition rule nodes use for shards.
    let my_shards = shard_range(shards, workers, worker);

    let mut lanes: Vec<Lane<'_, R>> = my_shards
        .map(|shard| {
            let owned = shard_range(nodes, shards, shard);
            let machine = MachineBuilder::from_config(cfg.clone()).build_shard(owned);
            Lane {
                replica: Replica::new(machine, setup),
                port: coord.port(shard),
                fence: Fence::Before(Time::ZERO),
            }
        })
        .collect();

    // Hot-loop buffers, hoisted so the steady state allocates nothing:
    // drained cross records, drained collective contributions, and the
    // incoming net batch all recycle their capacity every epoch (shared
    // across this worker's lanes — each lane drains them before the next
    // uses them).
    let mut cross: Vec<CrossNet> = Vec::new();
    let mut reduce: Vec<ReduceRecord> = Vec::new();
    let mut net_batch: Vec<CrossNet> = Vec::new();
    loop {
        // Phase 1: run every lane's window, deposit its records, arrive.
        // No arrive blocks, so a worker can never deadlock against its
        // own un-run lanes.
        for lane in &mut lanes {
            let local_next = match lane.fence {
                Fence::Before(limit) => {
                    let (next, ran) = lane.replica.machine.sim().run_before_counted(limit);
                    if ran {
                        // Only an executed event or polled task can have
                        // put anything in the outboxes; idle windows skip
                        // the scans entirely.
                        lane.replica.machine.network().drain_cross_into(&mut cross);
                        for rec in cross.drain(..) {
                            lane.port.send(owners[rec.dst().index()], CrossMsg::Net(rec));
                        }
                        lane.replica.ctx.drain_outbox_into(&mut reduce);
                        for rec in reduce.drain(..) {
                            lane.port.broadcast(CrossMsg::Reduce(rec));
                        }
                    }
                    next
                }
                Fence::Unbounded => {
                    // One shard: no peer exists, so run to quiescence. The
                    // fabric owns every node and the collectives have no
                    // one to broadcast to, so nothing crosses.
                    lane.replica.machine.sim().run();
                    None
                }
                Fence::Done => unreachable!("the loop breaks on Done"),
            };
            lane.port.arrive(local_next);
        }

        // Phase 2: complete every lane. Only the first complete can park
        // (waiting on other workers); classification is derived from
        // shared round data, so every lane sees the same variant.
        let mut traffic = false;
        let mut done = false;
        for lane in &mut lanes {
            match lane.port.complete() {
                Round::Quiet(Fence::Done) => done = true,
                Round::Quiet(f) => lane.fence = f,
                Round::Traffic => traffic = true,
            }
        }
        if done {
            break;
        }
        if traffic {
            // Drain + integrate on every lane, then the agree barrier —
            // again arrive-all before complete-any.
            for lane in &mut lanes {
                lane.port.drain_incoming(|msg| match msg {
                    CrossMsg::Net(rec) => net_batch.push(rec),
                    CrossMsg::Reduce(rec) => lane.replica.ctx.integrate(rec),
                });
                lane.replica.machine.network().apply_cross(&mut net_batch);
                // Integration may have scheduled events earlier than what
                // run_before reported, so re-peek before agreeing.
                let next = lane.replica.machine.sim().next_event_time();
                lane.port.arrive_agree(next);
            }
            for lane in &mut lanes {
                match lane.port.complete_agree() {
                    Fence::Done => done = true,
                    f => lane.fence = f,
                }
            }
            if done {
                break;
            }
        }
    }

    // Shard-local clocks stop at their own last event; fold trailing idle
    // windows at the agreed global end so `idle_time` is the same total
    // (end − active) the single-shard engine reports.
    for lane in &mut lanes {
        lane.port.arrive_finish(lane.replica.machine.sim().now());
    }
    lanes
        .into_iter()
        .map(|mut lane| {
            let end = lane.port.complete_finish();
            lane.replica.exit(end, lane.port.counters())
        })
        .collect()
}

/// Number of shards implied by an owner table (max owner + 1).
fn coord_shards(owners: &[usize]) -> usize {
    owners.iter().copied().max().map_or(1, |m| m + 1)
}
