//! Native (host-threads) machine execution: the sharded layout in real
//! time. One worker OS thread per host core (never more than there are
//! nodes) owns a contiguous range of nodes, lock-free SPSC rings carry
//! packets between workers, and wall-clock time replaces virtual time.
//!
//! Worker *w* of W builds the replica of `shard_range(nodes, W, w)` on a
//! wall-clock [`Sim`](oam_sim::Sim) and drives it like an epoch shard
//! with every barrier removed. Traffic between nodes of one worker takes
//! the fabric's owned path; for every other record the fabric's
//! [`ChannelPort`] hands it at once to a sender-side batcher
//! ([`oam_net::BatchTx`]) in front of a bounded SPSC ring per directed
//! *worker* pair — W·(W−1) rings. Deposits coalesce until a flush
//! boundary — the batch high-water mark (`cfg.effective_batch()`; a batch
//! of 1 is the per-message reference path) or the end of a handler-run
//! pass — and each flush issues at most one wake signal through the
//! consuming worker's [`oam_net::WakeGate`], so a burst of small AMs costs
//! one wake, not N. Modeled compute charges pace in *real* time (the
//! charges of co-located nodes are timers on one calendar queue, so they
//! overlap), and event order across workers is whatever the hardware
//! produced: answers of data-deterministic programs are reproducible,
//! traces and timings are not (see DESIGN.md §14).
//!
//! Workers wait with the same spin-then-park discipline as the epoch
//! barrier: short gaps to the next due event spin-poll the rings, longer
//! waits publish a parked state and re-check before parking (the
//! no-lost-wake Dekker protocol in `oam_net::ring`), bounded by
//! `MAX_PARK` so a thread's view of the stop flag never goes stale.
//!
//! Termination is a two-phase protocol. Each worker reports to the
//! coordinator (the caller's thread) once all its nodes' mains have
//! completed; once every worker has reported — or a *real-time* watchdog
//! budget expires — the coordinator raises a stop flag and wakes every
//! gate, so workers parked on empty rings exit promptly. Workers then
//! harvest their replicas and join, and the exits merge exactly as the
//! epoch engine's do; on timeout they become a [`HangReport`] with one
//! snapshot per node.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use oam_model::{host_cores, Backend, EngineCounters, MachineConfig, Time};
use oam_net::{spsc, BatchTx, ChannelPort, CrossNet, RingRx, RingTx, WakeGate};
use oam_sim::{partition, shard_range, WallClock};

use crate::collective::ReduceRecord;
use crate::machine::{merge, Machine, MachineBuilder, ReplicaExit, RunReport};
use crate::shard_run::{CrossMsg, Replica, ShardApp};
use crate::watchdog::HangReport;

/// Real-time watchdog budget of [`run_native`]. Generous because wall
/// time covers real modeled compute charges; [`try_run_native`] takes
/// any other budget.
const DEFAULT_BUDGET: Time = Time::from_nanos(30_000_000_000);

/// Events fired per [`oam_sim::Sim::run_wall`] pass before the worker
/// loop re-checks its rings and the stop flag.
const EVENT_BATCH: u64 = 4096;

/// Gaps to the next due event shorter than this are spin-waited (polling
/// the rings) instead of parking — park granularity is far coarser than
/// the microsecond-scale charges being paced.
const SPIN_GAP_NS: u64 = 200_000;

/// Longest single park: bounds how stale a thread's view of the stop flag
/// can get even if a wake signal were lost.
const MAX_PARK: Duration = Duration::from_millis(20);

/// Ring capacity for one directed worker pair, sized so a full batch plus
/// in-flight slack fits without producer spins in the common case.
fn ring_capacity(batch: u32) -> usize {
    (4 * batch as usize).clamp(64, 1024).next_power_of_two()
}

/// One worker's ends of the ring matrix: `tx[dst]` and `rx[src]`, `None`
/// on the diagonal (a worker never routes to itself).
type RingRow = (Vec<Option<RingTx<CrossMsg>>>, Vec<Option<RingRx<CrossMsg>>>);

/// One bounded SPSC ring per directed worker pair, returned as one row
/// per worker.
fn ring_matrix(workers: usize, cap: usize) -> Vec<RingRow> {
    let mut rows: Vec<RingRow> = (0..workers)
        .map(|_| ((0..workers).map(|_| None).collect(), (0..workers).map(|_| None).collect()))
        .collect();
    for src in 0..workers {
        for dst in (0..workers).filter(|&dst| dst != src) {
            let (tx, rx) = spsc(cap);
            rows[src].0[dst] = Some(tx);
            rows[dst].1[src] = Some(rx);
        }
    }
    rows
}

/// Run an application on the native backend: one worker OS thread per
/// host core, at most one per node, each owning a contiguous range of
/// nodes; ring-delivered packets between workers, wall-clock pacing. Same
/// contract as [`crate::run_partitioned`] (which delegates here when
/// `cfg.backend` is native): `setup` runs once per worker against that
/// worker's replica, registers handlers on the replica's own nodes and
/// creates the same reducers in the same order everywhere; the answer
/// comes from the replica that owns node 0. `cfg.shards` and
/// `cfg.tuning.workers` are epoch-engine settings and are not read.
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
/// the hang diagnosis instead of panicking. All worker threads are joined
/// before this returns, whichever way the run ends: the shutdown wake
/// reaches even workers parked on empty rings, so a hung handler leaks
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
    let workers = host_cores().min(cfg.nodes);
    let run = Run {
        cfg: &cfg,
        setup: &setup,
        clock: Arc::new(WallClock::start()),
        stop: Arc::new(AtomicBool::new(false)),
        gates: (0..workers).map(|_| Arc::new(WakeGate::new())).collect(),
    };
    let rings = ring_matrix(workers, ring_capacity(cfg.effective_batch()));
    let (done_tx, done_rx) = mpsc::channel::<usize>();

    let mut timed_out = false;
    let exits: Vec<ReplicaExit<R>> = std::thread::scope(|scope| {
        let handles: Vec<_> = rings
            .into_iter()
            .enumerate()
            .map(|(worker, row)| {
                let (run, done_tx) = (&run, done_tx.clone());
                scope.spawn(move || run.worker(worker, row, done_tx))
            })
            .collect();
        drop(done_tx);

        // Coordinator: wait for every worker's mains against the
        // real-time budget.
        let deadline = Instant::now() + Duration::from_nanos(budget.as_nanos());
        for _ in 0..workers {
            match done_rx.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
                Ok(_) => {}
                Err(RecvTimeoutError::Timeout) => {
                    timed_out = true;
                    break;
                }
                // Every sender gone: all workers exited (only possible via
                // panic before completion); joining below propagates it.
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
        run.stop.store(true, Ordering::Release);
        // Unconditional wakes: set every gate's park token so workers
        // mid-way into a park re-check the stop flag promptly.
        for gate in &run.gates {
            gate.wake();
        }
        handles.into_iter().map(|h| h.join().expect("native worker panicked")).collect()
    });
    merge(exits, timed_out.then(|| run.clock.now()))
}

/// A worker's receiving side: its ring ends, indexed by source worker,
/// and the records already taken off them.
struct Inbox {
    rx: Vec<Option<RingRx<CrossMsg>>>,
    held: Vec<CrossMsg>,
}

impl Inbox {
    /// Move every record waiting in the rings to `held`. Besides the
    /// worker loop, a worker spinning on a full outbound ring does this:
    /// the peer it waits for may be spinning on a full ring to it.
    fn hold(&mut self) {
        for rx in self.rx.iter_mut().flatten() {
            while let Some(msg) = rx.pop() {
                self.held.push(msg);
            }
        }
    }

    /// Whether anything waits to be applied, held or still in a ring.
    fn pending(&self) -> bool {
        !self.held.is_empty() || self.rx.iter().flatten().any(RingRx::has_records)
    }
}

/// What every worker of one native run shares.
struct Run<'a, S> {
    cfg: &'a MachineConfig,
    setup: &'a S,
    clock: Arc<WallClock>,
    stop: Arc<AtomicBool>,
    /// One wake gate per worker, indexed by worker.
    gates: Vec<Arc<WakeGate>>,
}

impl<S> Run<'_, S> {
    fn stopped(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }

    /// Worker body: build and set up the replica of this worker's nodes,
    /// then alternate wall-clock event execution with ring service until
    /// the coordinator orders shutdown.
    fn worker<R>(&self, me: usize, (tx_row, rx): RingRow, done: Sender<usize>) -> ReplicaExit<R>
    where
        S: Fn(&Machine) -> ShardApp<R>,
    {
        let (nodes, workers) = (self.cfg.nodes, self.gates.len());
        let gate = &self.gates[me];
        gate.register();
        // Sender-side batchers, one per peer worker. Shared with the
        // fabric port's route closure; flushed at the high-water mark
        // (inside BatchTx) and at the end of every run_wall pass (below).
        let batch = self.cfg.effective_batch() as usize;
        let outbound: Rc<RefCell<Vec<Option<BatchTx<CrossMsg>>>>> = Rc::new(RefCell::new(
            (tx_row.into_iter().zip(&self.gates))
                .map(|(tx, gate)| tx.map(|tx| BatchTx::new(tx, Arc::clone(gate), batch)))
                .collect(),
        ));
        // Polled while a flush waits on a full ring: keep receiving, and
        // give up once the run is stopped.
        let inbox = Rc::new(RefCell::new(Inbox { rx, held: Vec::new() }));
        let abandoned = {
            let (stop, inbox) = (Arc::clone(&self.stop), Rc::clone(&inbox));
            move || {
                inbox.borrow_mut().hold();
                stop.load(Ordering::Acquire)
            }
        };
        let port = Rc::new(ChannelPort::new({
            let (outbound, abandoned) = (Rc::clone(&outbound), abandoned.clone());
            let owners = partition(nodes, workers);
            move |rec: CrossNet| {
                let to = owners[rec.dst().index()];
                let mut out = outbound.borrow_mut();
                let tx = out[to].as_mut().expect("the fabric delivers between owned nodes itself");
                tx.send(CrossMsg::Net(rec), &abandoned);
            }
        }));
        let owned = shard_range(nodes, workers, me);
        let machine = MachineBuilder::from_config(self.cfg.clone()).build_native(
            owned,
            Arc::clone(&self.clock),
            port,
        );
        let replica = Replica::new(machine, self.setup);
        let (sim, net) = (replica.machine.sim(), replica.machine.network());

        // Hot-loop buffers, reused for the whole run: drained collective
        // contributions, received records and their net records.
        let mut reduce: Vec<ReduceRecord> = Vec::new();
        let mut received: Vec<CrossMsg> = Vec::new();
        let mut net_batch: Vec<CrossNet> = Vec::new();
        let mut reported = false;
        loop {
            let next = sim.run_wall(EVENT_BATCH);
            {
                let mut out = outbound.borrow_mut();
                replica.ctx.drain_outbox_into(&mut reduce);
                for rec in reduce.drain(..) {
                    for tx in out.iter_mut().flatten() {
                        tx.send(CrossMsg::Reduce(rec.clone()), &abandoned);
                    }
                }
                // End-of-pass flush boundary: everything this pass
                // deposited leaves now, one wake signal per peer worker
                // with records.
                for tx in out.iter_mut().flatten() {
                    tx.flush(&abandoned);
                }
            }
            if !reported && replica.mains_done() {
                reported = true;
                let _ = done.send(me);
            }
            if self.stopped() {
                break;
            }

            // Wait for the next due local event or an incoming record,
            // whichever comes first.
            let pending = || inbox.borrow().pending();
            match next {
                Some(t) => {
                    let gap = t.saturating_since(self.clock.now());
                    if gap.is_zero() {
                        // Batch bound hit with work still due: fall through
                        // and drain whatever is already here.
                    } else if gap.as_nanos() <= SPIN_GAP_NS {
                        while self.clock.now() < t && !pending() && !self.stopped() {
                            std::hint::spin_loop();
                        }
                    } else {
                        let wait = Duration::from_nanos(gap.as_nanos()).min(MAX_PARK);
                        gate.park_unless(pending, wait);
                    }
                }
                None => gate.park_unless(pending, MAX_PARK),
            }
            // Received records apply in arrival order: net records gather
            // in the reused batch, which is applied before each collective
            // contribution and after the last record.
            {
                let mut inbox = inbox.borrow_mut();
                inbox.hold();
                std::mem::swap(&mut inbox.held, &mut received);
            }
            for msg in received.drain(..) {
                match msg {
                    CrossMsg::Net(rec) => net_batch.push(rec),
                    CrossMsg::Reduce(rec) => {
                        net.apply_cross(&mut net_batch);
                        replica.ctx.integrate(rec);
                    }
                }
            }
            net.apply_cross(&mut net_batch);
        }

        // Harvest. Trailing idle is folded at the local stop time (the
        // clock is shared, so end times agree to within shutdown skew).
        let mut engine = EngineCounters::default();
        for tx in outbound.borrow().iter().flatten() {
            engine.deposits += tx.deposits;
            engine.batches += tx.batches;
        }
        engine.wakes = gate.wakes();
        let end = sim.now();
        replica.exit(end, engine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Mutex;

    #[test]
    fn the_ring_matrix_has_one_ring_per_directed_worker_pair() {
        for workers in 1..=4 {
            let mut rows = ring_matrix(workers, 64);
            assert_eq!(rows.len(), workers, "one row per worker");
            let rings: usize = rows.iter().map(|(tx, _)| tx.iter().flatten().count()).sum();
            assert_eq!(rings, workers * (workers - 1));
            let ends: usize = rows.iter().map(|(_, rx)| rx.iter().flatten().count()).sum();
            assert_eq!(ends, rings);
            for src in 0..workers {
                assert!(rows[src].0[src].is_none() && rows[src].1[src].is_none(), "no self ring");
                for dst in (0..workers).filter(|&d| d != src) {
                    let rec = CrossMsg::Net(CrossNet::Credit {
                        key: (src * workers + dst) as u64,
                        at: Time::ZERO,
                        to: oam_model::NodeId(dst),
                        from: oam_model::NodeId(src),
                        credits: 1,
                    });
                    assert!(rows[src].0[dst].as_mut().unwrap().push(rec).is_ok());
                    let got = rows[dst].1[src].as_mut().unwrap().pop();
                    assert!(
                        matches!(got, Some(CrossMsg::Net(CrossNet::Credit { key, .. }))
                            if key == (src * workers + dst) as u64),
                        "ring {src} -> {dst} reaches worker {dst}"
                    );
                }
            }
        }
    }

    #[test]
    fn a_native_run_starts_one_worker_per_core_each_owning_its_range() {
        for nodes in [1, host_cores() + 1, 2 * host_cores() + 1] {
            let seen = Arc::new(Mutex::new(Vec::new()));
            let s = Arc::clone(&seen);
            let (report, ()) = run_native(MachineConfig::cm5(nodes), move |machine| {
                s.lock().unwrap().push((std::thread::current().id(), machine.owned()));
                ShardApp {
                    main: Box::new(|env| Box::pin(async move { env.barrier().await })),
                    finish: Box::new(|_| ()),
                }
            });
            assert_eq!(report.stats.nodes(), nodes);
            let workers = host_cores().min(nodes);
            let mut seen = seen.lock().unwrap().clone();
            seen.sort_by_key(|(_, owned)| owned.start);
            let threads: HashSet<_> = seen.iter().map(|(thread, _)| *thread).collect();
            assert_eq!(threads.len(), workers, "one thread per worker at {nodes} nodes");
            let ranges: Vec<_> = seen.into_iter().map(|(_, owned)| owned).collect();
            let want: Vec<_> = (0..workers).map(|w| shard_range(nodes, workers, w)).collect();
            assert_eq!(ranges, want, "worker w owns shard_range(nodes, W, w)");
        }
    }
}
