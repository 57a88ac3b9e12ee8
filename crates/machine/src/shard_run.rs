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
//! are spawned, so a one-worker run creates no thread at all. Worker 0 is
//! never pinned (pinning would stick to the caller after the run). The
//! host core count behind the defaults is probed once per process
//! ([`oam_model::host_cores`]).
//!
//! Cross-shard records take the batched delivery path by default (one
//! mailbox publish per peer per epoch, `cfg.effective_batch()`); setting
//! `OAM_BATCH=1` selects the per-message reference path.

use std::future::Future;
use std::pin::Pin;

use oam_model::{host_cores, Dur, EngineCounters, MachineConfig, MachineStats, NodeStats, Time};
use oam_net::CrossNet;
use oam_sim::{
    default_spin, partition, shard_range, Coordinator, Fence, FencePolicy, Round, ShardPort,
};
use oam_threads::Flag;

use crate::collective::ReduceRecord;
use crate::machine::{Machine, MachineBuilder, NodeEnv, RunReport};

/// A boundary record crossing shard threads at an epoch barrier.
#[derive(Clone)]
pub enum CrossMsg {
    /// A network packet or bulk transfer bound for a node on another shard.
    Net(CrossNet),
    /// A collective contribution, broadcast to every replica.
    Reduce(ReduceRecord),
}

/// What a shard runs: the SPMD node main plus a finalizer that extracts
/// the application's answer from the machine after the run goes quiet.
///
/// Produced per shard by the `setup` closure handed to
/// [`run_partitioned`]; `setup` also performs the side effects that must
/// happen identically on every shard replica (handler registration,
/// reducer creation) so event keys and collective ids line up across
/// shards.
/// A boxed SPMD node main: invoked once per owned node, returning that
/// node's boxed main future.
pub type NodeMain = Box<dyn Fn(NodeEnv) -> Pin<Box<dyn Future<Output = ()>>>>;

/// A boxed answer extractor: reads the final result out of the (quiet)
/// shard-0 machine.
pub type FinishFn<R> = Box<dyn FnOnce(&Machine) -> R>;

/// The pieces of an application a shard needs: its node main and the
/// answer extractor. See the module docs for the setup contract.
pub struct ShardApp<R> {
    /// The node main, boxed so every shard's setup can capture its own
    /// thread-local state.
    pub main: NodeMain,
    /// Reads the final answer out of the (quiet) machine. Only invoked on
    /// shard 0, whose replica owns node 0 — the node that writes answers
    /// in every app in this repo.
    pub finish: FinishFn<R>,
}

/// Per-shard outcome carried back to the coordinating thread.
struct ShardResult<R> {
    end_time: Time,
    events: u64,
    peak_queue_depth: u64,
    completed: bool,
    /// Stats for the nodes this shard owns, paired with their node ids.
    per_node: Vec<(usize, NodeStats)>,
    /// Registered RPC method names (shard 0 only; identical everywhere).
    method_names: Option<std::collections::BTreeMap<u32, String>>,
    /// Epoch counters; identical on every shard by construction.
    engine: EngineCounters,
    /// The application answer (shard 0 only).
    answer: Option<R>,
}

/// Conservative lookahead for a configuration: the minimum latency of any
/// cross-shard effect — wire latency for packets, and the collective
/// latencies for reduction publishes.
pub(crate) fn conservative_lookahead(cfg: &MachineConfig) -> Dur {
    cfg.cost.wire_latency.min(cfg.cost.barrier_latency).min(cfg.cost.reduction_latency)
}

/// Run an application across `cfg.effective_shards()` shards and merge
/// the per-shard reports into one [`RunReport`].
///
/// Nodes are partitioned into contiguous ranges and executed under
/// conservative epoch synchronization; one shard simply runs to
/// quiescence. Answers, per-node statistics and event counts are
/// independent of the shard count.
///
/// `setup` runs once per shard against that shard's machine replica and
/// must be deterministic: register the same handlers and create the same
/// reducers in the same order on every shard.
///
/// # Panics
/// Panics if any node main fails to complete (distributed deadlock), like
/// [`Machine::run`].
pub fn run_partitioned<R: Send + 'static>(
    cfg: MachineConfig,
    setup: impl Fn(&Machine) -> ShardApp<R> + Send + Sync,
) -> (RunReport, R) {
    // Backend dispatch: the native host-threads runtime replaces the whole
    // epoch machinery below (one thread per node, no fences, wall-clock
    // time); the simulator backends continue here.
    if cfg.effective_backend() == oam_model::Backend::Native {
        return crate::native_run::run_native(cfg, setup);
    }
    let shards = cfg.effective_shards();
    let nodes = cfg.nodes;
    let lookahead = conservative_lookahead(&cfg);
    let owners = partition(nodes, shards);
    // Host-scheduling knobs (never outcome-affecting; see ShardTuning).
    let workers = cfg.effective_workers(shards);
    let policy =
        if cfg.effective_naive_fence() { FencePolicy::Naive } else { FencePolicy::Adaptive };
    let spin = cfg.effective_spin().unwrap_or_else(|| default_spin(workers));
    let pin = cfg.effective_pin();
    let batched = cfg.effective_batch() > 1;
    let coord = Coordinator::<CrossMsg>::new(shards, lookahead)
        .with_policy(policy)
        .with_spin(spin)
        .with_batched(batched);

    // Worker 0 runs on the calling thread, whatever the worker count:
    // spawning it would only add a thread, and a malloc arena, that the
    // run does not need. It is never pinned (pinning would stick to the
    // caller); only the spawned workers `1..workers` honour `pin`.
    let results: Vec<ShardResult<R>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (1..workers)
            .map(|worker| {
                let cfg = cfg.clone();
                let coord = &coord;
                let owners = &owners;
                let setup = &setup;
                scope.spawn(move || run_worker(cfg, coord, owners, worker, workers, pin, setup))
            })
            .collect();
        let mut results = run_worker(cfg, &coord, &owners, 0, workers, false, &setup);
        for h in handles {
            results.extend(h.join().expect("shard worker panicked"));
        }
        results
    });

    // Merge: per-node stats reassembled by node id, counters summed or
    // maxed, the answer taken from shard 0.
    let mut per_node: Vec<Option<NodeStats>> = vec![None; nodes];
    let mut end_time = Time::ZERO;
    let mut events = 0u64;
    let mut peak = 0u64;
    let mut completed = true;
    let mut answer = None;
    let mut method_names = None;
    let mut engine: Option<EngineCounters> = None;
    for r in results {
        end_time = end_time.max(r.end_time);
        events += r.events;
        peak = peak.max(r.peak_queue_depth);
        completed &= r.completed;
        for (i, s) in r.per_node {
            per_node[i] = Some(s);
        }
        if let Some(a) = r.answer {
            answer = Some(a);
        }
        if let Some(m) = r.method_names {
            method_names = Some(m);
        }
        // Round counters must agree across shards (asserted inside
        // absorb); delivery counters sum.
        match engine.as_mut() {
            Some(e) => e.absorb(r.engine),
            None => engine = Some(r.engine),
        }
    }
    let mut engine = engine.unwrap_or_default();
    engine.wakes += coord.wakes();
    let stats = MachineStats::new(
        per_node.into_iter().map(|s| s.expect("every node owned by some shard")).collect(),
    )
    .with_method_names(method_names.unwrap_or_default())
    .with_engine(engine);
    assert!(
        completed,
        "partitioned run did not complete: some node main is deadlocked (end time {end_time})"
    );
    let report = RunReport { end_time, stats, completed, events, peak_queue_depth: peak };
    (report, answer.expect("shard 0 produces the answer"))
}

/// One shard replica as driven by a worker thread: its machine, its port,
/// and its progress through the epoch protocol.
struct Lane<'c, R> {
    shard: usize,
    machine: Machine,
    ctx: std::rc::Rc<crate::collective::ShardCollectives>,
    port: ShardPort<'c, CrossMsg>,
    /// Completion flags for the mains of this shard's owned nodes.
    done: Vec<(usize, Flag)>,
    /// The answer extractor (shard 0 only; consumed at the end).
    finish: Option<FinishFn<R>>,
    fence: Fence,
}

/// Worker body: build the replica machines for every shard this worker
/// owns, spawn their mains, then step all of them in lockstep through the
/// epoch protocol — arrive for every owned shard, then complete them, so
/// barriers between co-located shards never block (see the module docs).
#[allow(clippy::too_many_arguments)]
fn run_worker<R>(
    cfg: MachineConfig,
    coord: &Coordinator<CrossMsg>,
    owners: &[usize],
    worker: usize,
    workers: usize,
    pin: bool,
    setup: &(impl Fn(&Machine) -> ShardApp<R> + Send + Sync),
) -> Vec<ShardResult<R>> {
    if pin {
        pin_current_thread(worker % host_cores());
    }
    let nodes = cfg.nodes;
    let shards = coord_shards(owners);
    // Contiguous, balanced assignment of shards to workers — the same
    // partition rule nodes use for shards.
    let my_shards = shard_range(shards, workers, worker);

    let mut lanes: Vec<Lane<'_, R>> = my_shards
        .map(|shard| {
            let machine = MachineBuilder::from_config(cfg.clone()).build_shard(owners, shard);
            let app = setup(&machine);
            let ctx = std::rc::Rc::clone(machine.collectives().shard_ctx());
            let done: Vec<(usize, Flag)> = shard_range(nodes, shards, shard)
                .map(|i| {
                    let flag = Flag::new();
                    let env = machine.env(i);
                    let fut = (app.main)(env);
                    let f = flag.clone();
                    machine.nodes()[i].spawn(async move {
                        fut.await;
                        f.set();
                    });
                    (i, flag)
                })
                .collect();
            Lane {
                shard,
                machine,
                ctx,
                port: coord.port(shard),
                done,
                finish: Some(app.finish),
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
                    let (next, ran) = lane.machine.sim().run_before_counted(limit);
                    if ran {
                        // Only an executed event or polled task can have
                        // put anything in the outboxes; idle windows skip
                        // the scans entirely.
                        lane.machine.network().drain_cross_into(&mut cross);
                        for rec in cross.drain(..) {
                            lane.port.send(owners[rec.dst().index()], CrossMsg::Net(rec));
                        }
                        lane.ctx.drain_outbox_into(&mut reduce);
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
                    lane.machine.sim().run();
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
                    CrossMsg::Reduce(rec) => lane.ctx.integrate(rec),
                });
                lane.machine.network().apply_cross(&mut net_batch);
                // Integration may have scheduled events earlier than what
                // run_before reported, so re-peek before agreeing.
                let next = lane.machine.sim().next_event_time();
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
        lane.port.arrive_finish(lane.machine.sim().now());
    }
    lanes
        .into_iter()
        .map(|mut lane| {
            let end = lane.port.complete_finish();
            for n in lane.machine.nodes() {
                n.finalize_idle(end);
            }
            let stats = lane.machine.harvest();
            ShardResult {
                end_time: lane.machine.sim().now(),
                events: lane.machine.sim().events_executed(),
                peak_queue_depth: lane.machine.sim().peak_event_queue_depth(),
                completed: lane.done.iter().all(|(_, f)| f.get()),
                per_node: lane.done.iter().map(|(i, _)| (*i, stats.per_node[*i].clone())).collect(),
                method_names: (lane.shard == 0).then(|| lane.machine.rpc().method_names()),
                engine: lane.port.counters(),
                answer: (lane.shard == 0)
                    .then(|| (lane.finish.take().expect("finish consumed once"))(&lane.machine)),
            }
        })
        .collect()
}

/// Number of shards implied by an owner table (max owner + 1).
fn coord_shards(owners: &[usize]) -> usize {
    owners.iter().copied().max().map_or(1, |m| m + 1)
}

/// Pin the calling thread to host CPU `cpu` (best effort: failures are
/// ignored — pinning is a throughput hint, never a correctness
/// requirement). Raw `sched_setaffinity` syscall because the workspace
/// deliberately has no libc dependency.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn pin_current_thread(cpu: usize) {
    // 1024-CPU mask, the kernel's traditional cpu_set_t size.
    let mut mask = [0u64; 16];
    mask[(cpu / 64) % mask.len()] |= 1u64 << (cpu % 64);
    unsafe {
        let mut ret: i64 = 203; // __NR_sched_setaffinity
        std::arch::asm!(
            "syscall",
            inout("rax") ret,
            in("rdi") 0usize, // pid 0 = calling thread
            in("rsi") std::mem::size_of_val(&mask),
            in("rdx") mask.as_ptr(),
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
        let _ = ret;
    }
}

/// No-op fallback where the raw syscall isn't available.
#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
fn pin_current_thread(_cpu: usize) {}
