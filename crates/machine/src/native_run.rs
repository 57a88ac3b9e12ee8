//! Native (host-threads) machine execution: the sharded layout in real
//! time. One worker per host core (never more than there are nodes) owns
//! a contiguous range of nodes, lock-free SPSC rings carry packets
//! between workers, and wall-clock time replaces virtual time. Worker 0
//! runs on the calling thread, as an epoch run's does, so W workers start
//! W−1 OS threads and a one-worker run starts none.
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
//! A worker reads the wall clock once per pass, not once per event:
//! [`Sim::run_wall`](oam_sim::Sim::run_wall) fires every event due at the
//! reading it takes when the pass starts, and reads again only when the
//! queue head is not due at the last reading. A read costs 36–56 ns on
//! a 2-core x86-64 VM, and at one read per event it was a quarter of an
//! event's host cost. The idle wait below likewise reads the clock only
//! when no record is pending, once per spin iteration.
//!
//! An idle worker polls before it sleeps, as an Active Messages node
//! polls its network interface: it spin-polls its rings and the stop
//! flag until its next local event is due or for a spin budget of
//! `SPIN_GAP_NS`, whichever comes first, so a record that arrives within
//! the budget costs no wake. Only then, with nothing due or pending, it
//! publishes a parked state and re-checks before parking (the
//! no-lost-wake Dekker protocol in `oam_net::ring`) until the event is
//! due or a producer wakes it, at most `MAX_PARK` at a time so its view
//! of the stop flag never goes stale.
//!
//! No thread only coordinates: the workers end the run themselves. Each
//! counts itself done once all its nodes' mains have completed. From the
//! count that reaches W on, the run ends as a simulator run does, at
//! quiescence: a worker with no event pending and no record waiting
//! publishes itself idle with the records it has sent and received, and
//! the run is quiet once every worker is idle and the totals agree (two
//! collects with no state change between them). The worker that sees it
//! raises a stop flag and wakes every gate, so workers parked on empty
//! rings exit promptly. So a request or cancel still in flight when the
//! last main returns is served, as the simulator serves it. Each worker
//! also checks the *real-time* watchdog budget against the reading its
//! `run_wall` pass already took (a parked worker passes at least every
//! `MAX_PARK`); the first to find it spent marks the run timed out and
//! stops it the same way, as does a worker that panics. Workers then
//! harvest their replicas and join, and the exits merge exactly as the
//! epoch engine's do; on timeout they become a [`HangReport`] with one
//! snapshot per node.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use oam_model::{host_cores, Backend, EngineCounters, MachineConfig, Time};
use oam_net::{spsc, BatchTx, ChannelPort, CrossNet, RingRx, RingTx, WakeGate};
use oam_sim::{partition, shard_range, WallClock};

use crate::collective::ReduceRecord;
use crate::machine::{merge, Machine, MachineBuilder, ReplicaExit, RunReport};
use crate::shard_run::{run_workers, CrossMsg, Replica, ShardApp};
use crate::watchdog::HangReport;

/// Real-time watchdog budget of [`run_native`]. Generous because wall
/// time covers real modeled compute charges; [`try_run_native`] takes
/// any other budget.
const DEFAULT_BUDGET: Time = Time::from_nanos(30_000_000_000);

/// Events fired per [`oam_sim::Sim::run_wall`] pass before the worker
/// loop re-checks its rings and the stop flag.
const EVENT_BATCH: u64 = 4096;

/// Spin budget of an idle worker: it polls its rings this long before it
/// parks. Park granularity and an unpark's futex wake are far coarser
/// than the microsecond-scale charges and round trips being paced.
const SPIN_GAP_NS: u64 = 200_000;

/// Longest single park: bounds how stale a thread's view of the stop flag
/// can get even if a wake signal were lost, and how long a parked worker
/// goes without checking the watchdog budget.
const MAX_PARK: Duration = Duration::from_millis(20);

/// Most slots one ring gets, however many nodes feed it.
const RING_SLOTS_MAX: usize = 8192;

/// Ring capacity for one directed worker pair, sized so a full batch plus
/// in-flight slack from each node the producing worker owns fits without
/// producer spins in the common case. A worker that owns one node gets
/// the per-pair size; one that owns many (128 nodes on two cores) would
/// otherwise spin in `BatchTx::flush` on a ring its own nodes filled.
fn ring_capacity(batch: u32, producer_nodes: usize) -> usize {
    let per_node = (4 * batch as usize).clamp(64, 1024);
    (per_node * producer_nodes.max(1)).min(RING_SLOTS_MAX).next_power_of_two()
}

/// One worker's ends of the ring matrix: `tx[dst]` and `rx[src]`, `None`
/// on the diagonal (a worker never routes to itself).
type RingRow = (Vec<Option<RingTx<CrossMsg>>>, Vec<Option<RingRx<CrossMsg>>>);

/// One bounded SPSC ring per directed worker pair, of `cap(src)` slots,
/// returned as one row per worker.
fn ring_matrix(workers: usize, cap: impl Fn(usize) -> usize) -> Vec<RingRow> {
    let mut rows: Vec<RingRow> = (0..workers)
        .map(|_| ((0..workers).map(|_| None).collect(), (0..workers).map(|_| None).collect()))
        .collect();
    for src in 0..workers {
        for dst in (0..workers).filter(|&dst| dst != src) {
            let (tx, rx) = spsc(cap(src));
            rows[src].0[dst] = Some(tx);
            rows[dst].1[src] = Some(rx);
        }
    }
    rows
}

/// Run an application on the native backend: one worker per host core,
/// at most one per node, each owning a contiguous range of nodes, worker 0
/// on the calling thread and the rest on OS threads of their own;
/// ring-delivered packets between workers, wall-clock pacing. Same
/// contract as [`crate::run_partitioned`] (which delegates here when
/// `cfg.backend` is native): `setup` runs once per worker against that
/// worker's replica, registers handlers on the replica's own nodes and
/// creates the same reducers in the same order everywhere; the answer
/// comes from the replica that owns node 0. As on the simulator, the run
/// ends at quiescence once every main is done. `cfg.shards` and
/// `cfg.tuning.workers` are epoch-engine settings and are not read.
///
/// # Panics
/// Panics if `cfg` is invalid, or with the [`HangReport`] display if the
/// run does not complete within a real-time watchdog budget of 30 s. A
/// panic in `setup` or a node main ends the run at once and resumes on
/// the caller.
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
/// the hang diagnosis instead of panicking. The workers check the budget
/// themselves; all worker threads are joined before this returns,
/// whichever way the run ends: the shutdown wake reaches even workers
/// parked on empty rings, so a hung handler leaks nothing. Runs on the
/// native backend whatever `cfg.backend` says.
///
/// # Panics
/// Panics if `cfg` is invalid, a fault plan included: the native backend
/// cannot inject faults. A worker's panic stops the run, and it resumes
/// here once every worker has been joined.
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
        clock: WallClock::start(),
        budget,
        stop: Arc::new(AtomicBool::new(false)),
        done: AtomicUsize::new(0),
        timed_out: AtomicBool::new(false),
        gates: (0..workers).map(|_| Arc::new(WakeGate::new())).collect(),
        idle: (0..workers).map(|_| IdleSlot::default()).collect(),
    };
    let batch = cfg.effective_batch();
    let rings = ring_matrix(workers, |src| {
        ring_capacity(batch, shard_range(cfg.nodes, workers, src).len())
    });
    let exits: Vec<ReplicaExit<R>> = run_workers(
        rings.into_iter().enumerate(),
        |(worker, row)| run.worker(worker, row),
        || {
            run.halt();
        },
    );
    merge(exits, run.timed_out.load(Ordering::Relaxed).then(|| run.clock.now()))
}

/// A worker's receiving side: its ring ends, indexed by source worker,
/// and the records already taken off them.
struct Inbox {
    rx: Vec<Option<RingRx<CrossMsg>>>,
    held: Vec<CrossMsg>,
    /// Records ever taken off the rings.
    taken: u64,
}

impl Inbox {
    /// Move every record waiting in the rings to `held`. Besides the
    /// worker loop, a worker spinning on a full outbound ring does this:
    /// the peer it waits for may be spinning on a full ring to it.
    fn hold(&mut self) {
        for rx in self.rx.iter_mut().flatten() {
            while let Some(msg) = rx.pop() {
                self.held.push(msg);
                self.taken += 1;
            }
        }
    }

    /// Whether anything waits to be applied, held or still in a ring.
    fn pending(&self) -> bool {
        !self.held.is_empty() || self.rx.iter().flatten().any(RingRx::has_records)
    }
}

/// An idle worker's wait for its next local event, due at `due`
/// (`Time::MAX` when it has none), or for `ready` (a record pending, or
/// the run stopped). It spin-polls `ready` until `due` or for
/// `SPIN_GAP_NS`, whichever comes first; then, only if the event is still
/// not due and nothing is ready, it calls `park` with the time left,
/// at most `MAX_PARK`. It checks `ready` before it reads the clock, so a
/// wait that finds a record already pending costs no read; a spin reads
/// the clock once per iteration and parks on the last reading.
fn idle_wait(clock: &WallClock, due: Time, ready: impl Fn() -> bool, park: impl FnOnce(Duration)) {
    if ready() {
        return;
    }
    let mut now = clock.now();
    let spin_end = due.min(Time::from_nanos(now.as_nanos().saturating_add(SPIN_GAP_NS)));
    while now < spin_end {
        std::hint::spin_loop();
        if ready() {
            return;
        }
        now = clock.now();
    }
    let left = due.saturating_since(now);
    if !left.is_zero() && !ready() {
        park(Duration::from_nanos(left.as_nanos()).min(MAX_PARK));
    }
}

/// A worker's published idle state, read by [`Run::quiescent`]. Written
/// only once every main is done, so the hot loop never touches it. A
/// worker publishes itself idle when it has no event pending and no record
/// waiting, and busy again before any record it takes afterwards takes
/// effect, so a worker published idle has sent nothing since.
#[derive(Default)]
struct IdleSlot {
    /// Odd while the worker is idle; bumped on every change, so it only
    /// grows.
    epoch: AtomicU64,
    /// Records the worker had sent and taken when it last went idle.
    sent: AtomicU64,
    taken: AtomicU64,
}

impl IdleSlot {
    /// Publish the worker idle (`Some((sent, taken))`) or busy again
    /// (`None`), alternately.
    fn publish(&self, idle: Option<(u64, u64)>) {
        if let Some((sent, taken)) = idle {
            self.sent.store(sent, Ordering::SeqCst);
            self.taken.store(taken, Ordering::SeqCst);
        }
        self.epoch.fetch_add(1, Ordering::SeqCst);
    }
}

/// What every worker of one native run shares.
struct Run<'a, S> {
    cfg: &'a MachineConfig,
    setup: &'a S,
    clock: WallClock,
    /// The real-time watchdog budget, as a reading of `clock`.
    budget: Time,
    stop: Arc<AtomicBool>,
    /// Workers whose mains have all completed.
    done: AtomicUsize,
    /// Whether the budget ran out before the run stopped otherwise.
    timed_out: AtomicBool,
    /// One wake gate per worker, indexed by worker.
    gates: Vec<Arc<WakeGate>>,
    /// One idle slot per worker, indexed by worker.
    idle: Vec<IdleSlot>,
}

impl<S> Run<'_, S> {
    fn stopped(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }

    /// Raise the stop flag and, if this call raised it, wake every gate:
    /// unconditional wakes set each gate's park token, so workers mid-way
    /// into a park re-check the flag promptly. Returns whether this call
    /// raised it.
    fn halt(&self) -> bool {
        let first = !self.stop.swap(true, Ordering::AcqRel);
        if first {
            self.wake_all();
        }
        first
    }

    fn wake_all(&self) {
        for gate in &self.gates {
            gate.wake();
        }
    }

    /// Whether the run is quiet: every worker idle, with as many records
    /// taken as sent, and no worker's state changed while the counts were
    /// read. Epochs only grow, so an unchanged sum means every epoch is
    /// unchanged. A worker published idle has sent nothing since, so
    /// equal totals mean no record is in flight and none was taken without
    /// its taker turning busy. The last worker to go idle always sees the
    /// others' publications (SeqCst on both sides), so a quiet run is not
    /// missed.
    fn quiescent(&self) -> bool {
        let collect = || {
            let mut epochs = self.idle.iter().map(|slot| slot.epoch.load(Ordering::SeqCst));
            epochs.try_fold(0u64, |sum, epoch| (epoch % 2 == 1).then_some(sum + epoch))
        };
        let Some(before) = collect() else { return false };
        let (sent, taken) = self.idle.iter().fold((0, 0), |(sent, taken), slot| {
            (sent + slot.sent.load(Ordering::SeqCst), taken + slot.taken.load(Ordering::SeqCst))
        });
        sent == taken && collect() == Some(before)
    }

    /// Worker body: build and set up the replica of this worker's nodes,
    /// then alternate wall-clock event execution with ring service until
    /// the run stops: quiet after every main is done, the budget spent, or
    /// a worker panicked.
    fn worker<R>(&self, me: usize, (tx_row, rx): RingRow) -> ReplicaExit<R>
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
        let inbox = Rc::new(RefCell::new(Inbox { rx, held: Vec::new(), taken: 0 }));
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
        let machine =
            MachineBuilder::from_config(self.cfg.clone()).build_native(owned, self.clock, port);
        let replica = Replica::new(machine, self.setup);
        let (sim, net) = (replica.machine.sim(), replica.machine.network());

        // Hot-loop buffers, reused for the whole run: drained collective
        // contributions, received records and their net records.
        let mut reduce: Vec<ReduceRecord> = Vec::new();
        let mut received: Vec<CrossMsg> = Vec::new();
        let mut net_batch: Vec<CrossNet> = Vec::new();
        let (mut reported, mut idle) = (false, false);
        loop {
            let (next, now) = sim.run_wall(EVENT_BATCH);
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
                if self.done.fetch_add(1, Ordering::AcqRel) + 1 == workers {
                    // Every main is done: parked peers publish their idle
                    // state now, not a park later.
                    self.wake_all();
                }
            }
            // The budget check reuses the pass's clock reading.
            if now >= self.budget && self.halt() {
                self.timed_out.store(true, Ordering::Relaxed);
            }
            // Once every main is done, the run ends when it is quiet.
            if self.done.load(Ordering::Acquire) == workers {
                if !idle && next.is_none() && !inbox.borrow().pending() {
                    idle = true;
                    let sent = outbound.borrow().iter().flatten().map(|tx| tx.deposits).sum();
                    self.idle[me].publish(Some((sent, inbox.borrow().taken)));
                }
                if idle && self.quiescent() {
                    self.halt();
                }
            }
            if self.stopped() {
                break;
            }

            // Wait for the next due local event or an incoming record,
            // whichever comes first.
            let pending = || inbox.borrow().pending();
            let ready = || pending() || self.stopped();
            let due = next.unwrap_or(Time::MAX);
            idle_wait(&self.clock, due, ready, |wait| gate.park_unless(pending, wait));
            // Received records apply in arrival order: net records gather
            // in the reused batch, which is applied before each collective
            // contribution and after the last record.
            {
                let mut inbox = inbox.borrow_mut();
                inbox.hold();
                std::mem::swap(&mut inbox.held, &mut received);
            }
            if idle && !received.is_empty() {
                // Busy again before a received record takes effect: only
                // records end an idle worker's idleness.
                idle = false;
                self.idle[me].publish(None);
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
            let mut rows = ring_matrix(workers, |src| 64 << src);
            assert_eq!(rows.len(), workers, "one row per worker");
            let rings: usize = rows.iter().map(|(tx, _)| tx.iter().flatten().count()).sum();
            assert_eq!(rings, workers * (workers - 1));
            let ends: usize = rows.iter().map(|(_, rx)| rx.iter().flatten().count()).sum();
            assert_eq!(ends, rings);
            for src in 0..workers {
                assert!(rows[src].0[src].is_none() && rows[src].1[src].is_none(), "no self ring");
                for dst in (0..workers).filter(|&d| d != src) {
                    let tx = rows[src].0[dst].as_ref().unwrap();
                    assert_eq!(tx.capacity(), 64 << src, "sized for its producer {src}");
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
    fn ring_capacity_scales_with_the_producers_nodes_up_to_a_cap() {
        // One node per worker (e2ebench's `native_rpc`): the per-pair size.
        for (batch, slots) in [(1, 64), (16, 64), (32, 128), (100, 512), (256, 1024), (4096, 1024)]
        {
            assert_eq!(ring_capacity(batch, 1), slots, "batch {batch}");
        }
        let batch = MachineConfig::DEFAULT_BATCH;
        assert_eq!(ring_capacity(batch, 3), 512);
        assert_eq!(ring_capacity(batch, 64), RING_SLOTS_MAX, "128 nodes on two workers");
        assert_eq!(ring_capacity(batch, 10_000), RING_SLOTS_MAX);
    }

    /// The `park` of a wait that must not park.
    fn no_park(wait: Duration) {
        panic!("parked for {wait:?} with work ready or due");
    }

    #[test]
    fn an_idle_wait_returns_without_parking_when_a_record_is_pending_or_the_run_stopped() {
        let clock = WallClock::start();
        let (mut tx, rx) = spsc::<u32>(4);
        tx.push(7).unwrap();
        idle_wait(&clock, Time::MAX, || rx.has_records(), no_park);
        let stop = AtomicBool::new(true);
        idle_wait(&clock, Time::MAX, || stop.load(Ordering::Acquire), no_park);
    }

    #[test]
    fn an_idle_wait_returns_by_an_event_due_inside_the_spin_budget() {
        let clock = WallClock::start();
        for gap in [0, 1_000, SPIN_GAP_NS / 2, SPIN_GAP_NS] {
            let due = Time::from_nanos(clock.now().as_nanos() + gap);
            idle_wait(&clock, due, || false, no_park);
            assert!(clock.now() >= due, "returned before the event {gap} ns out was due");
        }
    }

    #[test]
    fn an_idle_wait_with_nothing_due_parks_once_after_the_spin_budget() {
        let clock = WallClock::start();
        let mut parks = Vec::new();
        idle_wait(&clock, Time::MAX, || false, |wait| parks.push(wait));
        assert!(clock.now().as_nanos() >= SPIN_GAP_NS, "parked before the spin budget ran out");
        assert_eq!(parks, [MAX_PARK]);
    }

    #[test]
    fn a_parked_idle_wait_is_released_by_a_producers_notify() {
        let (clock, gate) = (WallClock::start(), WakeGate::new());
        let (mut tx, mut rx) = spsc::<u32>(4);
        let parking = AtomicBool::new(false);
        std::thread::scope(|s| {
            let consumer = s.spawn(|| {
                gate.register();
                let pending = || rx.has_records();
                // A park that times out before the record lands waits again.
                while !pending() {
                    idle_wait(&clock, Time::MAX, pending, |wait| {
                        parking.store(true, Ordering::Release);
                        gate.park_unless(pending, wait);
                    });
                }
                rx.pop()
            });
            // Publish only once the consumer has spun past its budget and
            // gone to park.
            while !parking.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            tx.push(7).unwrap();
            gate.notify();
            assert_eq!(consumer.join().unwrap(), Some(7), "the consumer sees the record");
        });
        assert!(gate.wakes() <= 1, "one notify wakes at most once");
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
            assert_eq!(seen[0].0, std::thread::current().id(), "worker 0 runs on the caller");
            let ranges: Vec<_> = seen.into_iter().map(|(_, owned)| owned).collect();
            let want: Vec<_> = (0..workers).map(|w| shard_range(nodes, workers, w)).collect();
            assert_eq!(ranges, want, "worker w owns shard_range(nodes, W, w)");
        }
    }
}
