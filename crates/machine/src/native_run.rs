//! Native (host-threads) machine execution: one OS thread per simulated
//! node, lock-free SPSC rings for packet delivery, wall-clock time in
//! place of virtual time.
//!
//! Structurally this is the sharded engine with every barrier removed:
//! each node gets a one-node machine replica on its own thread (node
//! *i*'s replica builds and executes exactly node *i*), but instead
//! of batching cross-node records until an epoch fence, the fabric's
//! [`ChannelPort`](oam_net::ChannelPort) hands each record to a
//! sender-side batcher ([`oam_net::BatchTx`]) in front of a bounded
//! lock-free SPSC ring per directed node pair, and every replica's clock
//! is the shared [`WallClock`]. Deposits coalesce until a flush boundary
//! — the batch high-water mark (`cfg.effective_batch()`; a batch of 1
//! is the per-message reference path) or the end of a handler-run pass —
//! and each flush issues at most one wake signal through the consumer's
//! [`oam_net::WakeGate`], so a burst of small AMs costs one wake, not N.
//! Modeled compute charges pace in *real* time, and event order across
//! nodes is whatever the hardware produced: answers of
//! data-deterministic programs are reproducible, traces and timings are
//! not (see DESIGN.md §14).
//!
//! Consumers wait with the same spin-then-park discipline as the epoch
//! barrier: short gaps to the next due event spin-poll the rings, longer
//! waits publish a parked state and re-check before parking (the
//! no-lost-wake Dekker protocol in `oam_net::ring`), bounded by
//! `MAX_PARK` so a thread's view of the stop flag never goes stale.
//!
//! Termination is a two-phase protocol. Each thread reports its main's
//! completion to the coordinator (the caller's thread); once every main
//! has reported — or a *real-time* watchdog budget expires — the
//! coordinator raises a stop flag and wakes every gate, so threads
//! parked on empty rings exit promptly. Threads then harvest their
//! replica (stats, scheduler diagnostics) and join; on timeout the
//! per-node snapshots become a [`HangReport`].

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use oam_model::{Backend, EngineCounters, MachineConfig, MachineStats, NodeId, NodeStats, Time};
use oam_net::{spsc, BatchTx, CrossNet, RingRx, RingTx, WakeGate};
use oam_sim::WallClock;
use oam_threads::{Flag, NodeDiag};

use crate::collective::ReduceRecord;
use crate::machine::{Machine, MachineBuilder, RunReport};
use crate::shard_run::ShardApp;
use crate::watchdog::{HangKind, HangReport, NodeHangInfo};

/// A record crossing node threads on the native backend.
pub enum NativeMsg {
    /// A network packet or bulk transfer bound for this node.
    Net(CrossNet),
    /// A collective contribution from another node's replica.
    Reduce(ReduceRecord),
}

/// Real-time watchdog budget of [`run_native`]. Generous because wall
/// time covers real modeled compute charges; [`try_run_native`] takes
/// any other budget.
const DEFAULT_BUDGET: Time = Time::from_nanos(30_000_000_000);

/// Events fired per [`oam_sim::Sim::run_wall`] pass before the node loop
/// re-checks its rings and the stop flag.
const EVENT_BATCH: u64 = 4096;

/// Gaps to the next due event shorter than this are spin-waited (polling
/// the rings) instead of parking — park granularity is far coarser than
/// the microsecond-scale charges being paced.
const SPIN_GAP_NS: u64 = 200_000;

/// Longest single park: bounds how stale a thread's view of the stop flag
/// can get even if a wake signal were lost.
const MAX_PARK: Duration = Duration::from_millis(20);

/// Ring capacity for one directed node pair, sized so a full batch plus
/// in-flight slack fits without producer spins in the common case.
fn ring_capacity(batch: u32) -> usize {
    (4 * batch as usize).clamp(64, 1024).next_power_of_two()
}

/// What a node thread carries back to the coordinator at join.
struct NodeExit<R> {
    node: usize,
    main_done: bool,
    end_time: Time,
    events: u64,
    peak_queue_depth: u64,
    stats: NodeStats,
    diag: NodeDiag,
    outstanding_calls: usize,
    input_queue_depth: usize,
    method_names: BTreeMap<u32, String>,
    answer: Option<R>,
    /// Delivery counters: this node's deposits/batches as a producer plus
    /// the wake signals it received as a consumer.
    engine: EngineCounters,
}

/// Run an application on the native backend: `cfg.nodes` OS threads,
/// ring-delivered packets, wall-clock pacing. Same contract as
/// [`crate::run_partitioned`] (which delegates here when `cfg.backend` is
/// native): `setup` runs once per node thread against that thread's
/// one-node replica, registers handlers on that node and creates the same
/// reducers in the same order everywhere; the answer comes from node 0.
///
/// # Panics
/// Panics if `cfg` is invalid, or with the [`HangReport`] display if the
/// run does not complete within a real-time watchdog budget of 30 s.
pub fn run_native<R: Send + 'static>(
    cfg: MachineConfig,
    setup: impl Fn(&Machine) -> ShardApp<R> + Send + Sync,
) -> (RunReport, R) {
    match try_run_native(cfg, DEFAULT_BUDGET, setup) {
        Ok(out) => out,
        Err(hang) => panic!("native run did not complete:\n{hang}"),
    }
}

/// As [`run_native`], but with an explicit *real-time* budget, returning
/// the hang diagnosis instead of panicking. All node threads are joined
/// before this returns, whichever way the run ends: the shutdown wake
/// reaches even threads parked on empty rings, so a hung handler leaks
/// nothing. Runs on the native backend whatever `cfg.backend` says.
///
/// # Panics
/// Panics if `cfg` is invalid, a fault plan included: the native backend
/// cannot inject faults.
pub fn try_run_native<R: Send + 'static>(
    cfg: MachineConfig,
    budget: Time,
    setup: impl Fn(&Machine) -> ShardApp<R> + Send + Sync,
) -> Result<(RunReport, R), HangReport> {
    let cfg = cfg.with_backend(Backend::Native);
    cfg.validate().expect("invalid machine configuration");
    let nodes = cfg.nodes;
    let batch = cfg.effective_batch();
    let clock = Arc::new(WallClock::start());
    let stop = Arc::new(AtomicBool::new(false));
    let gates: Vec<Arc<WakeGate>> = (0..nodes).map(|_| Arc::new(WakeGate::new())).collect();

    // One bounded SPSC ring per directed node pair. `tx_mat[src][dst]` /
    // `rx_mat[dst][src]`; the diagonal stays empty (a node never routes
    // to itself through the fabric).
    let cap = ring_capacity(batch);
    let mut tx_mat: Vec<Vec<Option<RingTx<NativeMsg>>>> =
        (0..nodes).map(|_| (0..nodes).map(|_| None).collect()).collect();
    let mut rx_mat: Vec<Vec<Option<RingRx<NativeMsg>>>> =
        (0..nodes).map(|_| (0..nodes).map(|_| None).collect()).collect();
    for src in 0..nodes {
        for dst in 0..nodes {
            if src != dst {
                let (tx, rx) = spsc::<NativeMsg>(cap);
                tx_mat[src][dst] = Some(tx);
                rx_mat[dst][src] = Some(rx);
            }
        }
    }
    let (done_tx, done_rx) = mpsc::channel::<usize>();

    let mut timed_out = false;
    let exits: Vec<NodeExit<R>> = std::thread::scope(|scope| {
        let handles: Vec<_> = tx_mat
            .into_iter()
            .zip(rx_mat)
            .enumerate()
            .map(|(node, (tx_row, rx_row))| {
                let cfg = cfg.clone();
                let clock = Arc::clone(&clock);
                let stop = Arc::clone(&stop);
                let gates = gates.clone();
                let done_tx = done_tx.clone();
                let setup = &setup;
                scope.spawn(move || {
                    run_node(cfg, node, batch, clock, stop, gates, tx_row, rx_row, done_tx, setup)
                })
            })
            .collect();
        drop(done_tx);

        // Coordinator: wait for every main against the real-time budget.
        let deadline = Instant::now() + Duration::from_nanos(budget.as_nanos());
        let mut mains_done = 0usize;
        while mains_done < nodes {
            let remaining = deadline.saturating_duration_since(Instant::now());
            match done_rx.recv_timeout(remaining) {
                Ok(_) => mains_done += 1,
                Err(RecvTimeoutError::Timeout) => {
                    timed_out = true;
                    break;
                }
                // Every sender gone: all threads exited (only possible via
                // panic before completion); joining below propagates it.
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
        stop.store(true, Ordering::Release);
        // Unconditional wakes: set every gate's park token so threads
        // mid-way into a park re-check the stop flag promptly.
        for gate in &gates {
            gate.wake();
        }
        handles.into_iter().map(|h| h.join().expect("node thread panicked")).collect()
    });

    if timed_out {
        return Err(HangReport {
            kind: HangKind::BudgetExceeded,
            at: clock.now(),
            in_flight_packets: exits.iter().map(|e| e.input_queue_depth).sum(),
            events: exits.iter().map(|e| e.events).sum(),
            nodes: exits
                .into_iter()
                .map(|e| NodeHangInfo {
                    diag: e.diag,
                    outstanding_calls: e.outstanding_calls,
                    input_queue_depth: e.input_queue_depth,
                    main_done: e.main_done,
                })
                .collect(),
        });
    }

    // Merge exactly like the sharded engine: per-node stats reassembled by
    // id, method names united, counters summed or maxed, the answer taken
    // from node 0.
    let mut per_node: Vec<Option<NodeStats>> = vec![None; nodes];
    let mut end_time = Time::ZERO;
    let mut events = 0u64;
    let mut peak = 0u64;
    let mut completed = true;
    let mut answer = None;
    let mut method_names = BTreeMap::new();
    let mut engine = EngineCounters::default();
    for e in exits {
        end_time = end_time.max(e.end_time);
        events += e.events;
        peak = peak.max(e.peak_queue_depth);
        completed &= e.main_done;
        per_node[e.node] = Some(e.stats);
        if let Some(a) = e.answer {
            answer = Some(a);
        }
        method_names.extend(e.method_names);
        // No epochs on the native backend: only delivery counters, which
        // sum across node threads.
        engine.deposits += e.engine.deposits;
        engine.batches += e.engine.batches;
        engine.wakes += e.engine.wakes;
    }
    assert!(completed, "native run incomplete without a watchdog timeout");
    let stats =
        MachineStats::new(per_node.into_iter().map(|s| s.expect("one exit per node")).collect())
            .with_method_names(method_names)
            .with_engine(engine);
    let report = RunReport { end_time, stats, completed, events, peak_queue_depth: peak };
    Ok((report, answer.expect("node 0 produces the answer")))
}

/// Thread body for one node: build the replica, spawn the main, then
/// alternate wall-clock event execution with ring service until the
/// coordinator orders shutdown.
#[allow(clippy::too_many_arguments)]
fn run_node<R>(
    cfg: MachineConfig,
    node: usize,
    batch: u32,
    clock: Arc<WallClock>,
    stop: Arc<AtomicBool>,
    gates: Vec<Arc<WakeGate>>,
    tx_row: Vec<Option<RingTx<NativeMsg>>>,
    mut rx_row: Vec<Option<RingRx<NativeMsg>>>,
    done_tx: Sender<usize>,
    setup: &(impl Fn(&Machine) -> ShardApp<R> + Send + Sync),
) -> NodeExit<R> {
    gates[node].register();
    // Sender-side batchers, one per destination. Shared with the fabric
    // port's route closure; flushed at the high-water mark (inside
    // BatchTx) and at the end of every run_wall pass (below).
    let outbound: Rc<RefCell<Vec<Option<BatchTx<NativeMsg>>>>> = Rc::new(RefCell::new(
        tx_row
            .into_iter()
            .enumerate()
            .map(|(dst, tx)| tx.map(|tx| BatchTx::new(tx, Arc::clone(&gates[dst]), batch as usize)))
            .collect(),
    ));
    let abandoned = {
        let stop = Arc::clone(&stop);
        move || stop.load(Ordering::Acquire)
    };
    let port = Rc::new(oam_net::ChannelPort::new({
        let outbound = Rc::clone(&outbound);
        let abandoned = abandoned.clone();
        move |rec: CrossNet| {
            let dst = rec.dst().index();
            let mut out = outbound.borrow_mut();
            out[dst]
                .as_mut()
                .expect("fabric never routes to self")
                .send(NativeMsg::Net(rec), &abandoned);
        }
    }));
    let machine = MachineBuilder::from_config(cfg).build_native(node, Arc::clone(&clock), port);
    let app = setup(&machine);
    let ctx = Rc::clone(machine.collectives().shard_ctx());

    let done = Flag::new();
    {
        let env = machine.env(node);
        let fut = (app.main)(env);
        let f = done.clone();
        machine.node(NodeId(node)).spawn(async move {
            fut.await;
            f.set();
        });
    }

    let mut reported = false;
    loop {
        let next = machine.sim().run_wall(EVENT_BATCH);
        {
            let mut out = outbound.borrow_mut();
            for rec in ctx.drain_outbox() {
                for (dst, tx) in out.iter_mut().enumerate() {
                    if let Some(tx) = tx {
                        debug_assert_ne!(dst, node);
                        tx.send(NativeMsg::Reduce(rec.clone()), &abandoned);
                    }
                }
            }
            // End-of-pass flush boundary: everything this pass deposited
            // leaves now, one wake signal per destination with records.
            for tx in out.iter_mut().flatten() {
                tx.flush(&abandoned);
            }
        }
        if done.get() && !reported {
            reported = true;
            let _ = done_tx.send(node);
        }
        if stop.load(Ordering::Acquire) {
            break;
        }

        // Wait for the next due local event or an incoming record,
        // whichever comes first.
        let pending = || rx_row.iter().flatten().any(RingRx::has_records);
        match next {
            Some(t) => {
                let gap = t.saturating_since(clock.now());
                if gap.is_zero() {
                    // Batch bound hit with work still due: fall through
                    // and drain whatever is already here.
                } else if gap.as_nanos() <= SPIN_GAP_NS {
                    while clock.now() < t && !pending() && !stop.load(Ordering::Acquire) {
                        std::hint::spin_loop();
                    }
                } else {
                    gates[node]
                        .park_unless(pending, Duration::from_nanos(gap.as_nanos()).min(MAX_PARK));
                }
            }
            None => gates[node].park_unless(pending, MAX_PARK),
        }
        for rx in rx_row.iter_mut().flatten() {
            while let Some(m) = rx.pop() {
                integrate(&machine, &ctx, m);
            }
        }
    }

    // Harvest this replica. Trailing idle is folded at the local stop time
    // (the clock is shared, so per-node end times agree to within shutdown
    // skew).
    let end = machine.sim().now();
    let stats = machine.harvest().per_node.pop().expect("the replica's one node");
    let mut engine = EngineCounters::default();
    for tx in outbound.borrow().iter().flatten() {
        engine.deposits += tx.deposits;
        engine.batches += tx.batches;
    }
    engine.wakes = gates[node].wakes();
    NodeExit {
        node,
        main_done: done.get(),
        end_time: end,
        events: machine.sim().events_executed(),
        peak_queue_depth: machine.sim().peak_event_queue_depth(),
        stats,
        diag: machine.node(NodeId(node)).diagnostics(),
        outstanding_calls: machine.rpc().outstanding_calls(NodeId(node)),
        input_queue_depth: machine.network().input_depth(NodeId(node)),
        method_names: machine.rpc().method_names(),
        answer: (node == 0).then(|| (app.finish)(&machine)),
        engine,
    }
}

/// Apply one incoming record to this node's replica.
fn integrate(machine: &Machine, ctx: &Rc<crate::collective::ShardCollectives>, msg: NativeMsg) {
    match msg {
        NativeMsg::Net(rec) => {
            machine.network().apply_cross(&mut vec![rec]);
        }
        NativeMsg::Reduce(rec) => ctx.integrate(rec),
    }
}
