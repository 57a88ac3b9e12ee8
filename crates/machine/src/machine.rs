//! The simulated multicomputer: construction and whole-program runs.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::future::Future;
use std::ops::Range;
use std::rc::Rc;

use oam_am::Am;
use oam_model::{
    AbortStrategy, CostModel, Dur, EngineCounters, ExecPolicy, MachineConfig, MachineStats, NodeId,
    NodeStats, NodeTable, QueuePolicy, Time,
};
use oam_net::{EpochPort, NetConfig, Network};
use oam_rpc::Rpc;
use oam_sim::Sim;
use oam_threads::{Flag, Node};

use crate::collective::{Collectives, ShardCollectives};
use crate::watchdog::{HangKind, HangReport, NodeHangInfo};

/// Configures and builds a [`Machine`].
///
/// ```
/// use oam_machine::MachineBuilder;
///
/// let machine = MachineBuilder::new(4).seed(7).build();
/// let report = machine.run(|env| async move {
///     env.charge_micros(10).await;
///     env.barrier().await;
/// });
/// assert_eq!(report.stats.nodes(), 4);
/// ```
pub struct MachineBuilder {
    cfg: MachineConfig,
}

impl MachineBuilder {
    /// A CM-5-like machine with `nodes` processors.
    pub fn new(nodes: usize) -> Self {
        MachineBuilder { cfg: MachineConfig::cm5(nodes) }
    }

    /// An Alewife-like machine (shallow network buffering).
    pub fn alewife_like(nodes: usize) -> Self {
        MachineBuilder { cfg: MachineConfig::alewife_like(nodes) }
    }

    /// Start from an explicit configuration.
    pub fn from_config(cfg: MachineConfig) -> Self {
        MachineBuilder { cfg }
    }

    /// Seed for all deterministic randomness.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Run-queue placement for incoming RPC threads.
    pub fn queue_policy(mut self, p: QueuePolicy) -> Self {
        self.cfg.queue_policy = p;
        self
    }

    /// Resolution of aborted optimistic executions.
    pub fn abort_strategy(mut self, s: AbortStrategy) -> Self {
        self.cfg.abort_strategy = s;
        self
    }

    /// Attach a per-method execution policy: mode, abort resolution,
    /// optimistic run-length budget, adaptive switching. Overrides the mode
    /// the service registers with; methods without a policy keep the global
    /// defaults.
    pub fn policy(mut self, method: oam_am::HandlerId, p: ExecPolicy) -> Self {
        self.cfg.policies.insert(method.0, p);
        self
    }

    /// Replace the cost model.
    pub fn cost_model(mut self, c: CostModel) -> Self {
        self.cfg.cost = c;
        self
    }

    /// Mutate the configuration in place (escape hatch for experiments).
    pub fn tweak(mut self, f: impl FnOnce(&mut MachineConfig)) -> Self {
        f(&mut self.cfg);
        self
    }

    /// Build the machine: simulation, network, node runtimes, AM layer,
    /// RPC runtime, and collectives — one shard owning every node, driven
    /// by [`Machine::run`].
    pub fn build(self) -> Machine {
        let nodes = self.cfg.nodes;
        self.build_shard(0..nodes)
    }

    /// Build one shard of a partitioned machine: the nodes `owned` and
    /// nothing else. Every per-node table — stats, node runtimes, fabric
    /// state, buffer pools, handler and call tables — covers `owned` only;
    /// the other nodes exist on other shards and are reached through the
    /// epoch exchange. Used by [`crate::run_partitioned`].
    pub(crate) fn build_shard(self, owned: Range<usize>) -> Machine {
        let sim = Sim::new(self.cfg.seed);
        self.assemble(sim, owned, Rc::new(EpochPort::new()))
    }

    /// Build the replica one native (host-threads) worker drives: the
    /// nodes `owned`, on a wall-clock simulator sharing `clock` with every
    /// other worker, with a fabric that delivers between owned nodes
    /// itself and hands every other record to `port` immediately: a shard
    /// replica in real time. Used by [`crate::native_run`].
    pub fn build_native(
        self,
        owned: Range<usize>,
        clock: std::sync::Arc<oam_sim::WallClock>,
        port: Rc<dyn oam_net::FabricPort>,
    ) -> Machine {
        assert!(self.cfg.fault_plan.is_none(), "the native backend requires a lossless fabric");
        let sim = Sim::new_native(self.cfg.seed, clock);
        self.assemble(sim, owned, port)
    }

    /// Wire every layer of the replica that executes the nodes `owned`, on
    /// `sim`, with `port` carrying fabric records to the other replicas.
    fn assemble(self, sim: Sim, owned: Range<usize>, port: Rc<dyn oam_net::FabricPort>) -> Machine {
        self.cfg.validate().expect("invalid machine configuration");
        assert!(
            !owned.is_empty() && owned.end <= self.cfg.nodes,
            "a replica owns a non-empty range of the machine's nodes"
        );
        let cfg = Rc::new(self.cfg);
        let stats = NodeTable::new(owned.clone(), |_| Rc::new(RefCell::new(NodeStats::new())));
        let net = Network::new_backend(&sim, NetConfig::from_machine(&cfg), stats.clone(), port);
        let nodes = NodeTable::new(owned.clone(), |id| {
            Node::new(&sim, id, cfg.nodes, Rc::clone(&cfg), Rc::clone(&stats[id.index()]))
        });
        let am = Am::new(net.clone(), Rc::clone(&cfg), nodes.clone());
        if cfg.fault_plan.is_some() {
            // Route fabric fault events (drops, dups, delays) to the sending
            // node's trace observer so they appear on its timeline.
            let hook_nodes = nodes.clone();
            net.set_fault_hook(move |src, kind| hook_nodes[src.index()].emit(kind));
        }
        let rpc = Rpc::new(am.clone());
        let lookahead = crate::shard_run::conservative_lookahead(&cfg);
        let ctx = Rc::new(ShardCollectives::new(owned, cfg.nodes, lookahead));
        let coll = Collectives::new(
            &sim,
            nodes.as_slice().to_vec(),
            cfg.cost.barrier_latency,
            cfg.cost.reduction_latency,
            ctx,
        );
        Machine { sim, cfg, stats, net, am, rpc, coll, nodes }
    }
}

/// A fully wired simulated multicomputer.
///
/// Dropping it frees the run: its simulator, network, node runtimes and
/// registered handlers. The layers point at each other (every node's
/// dispatcher reaches the AM layer, which reaches every node), so `Drop`
/// unhooks those links; a [`NodeEnv`] or layer handle kept past the drop
/// keeps its own memory alive but can no longer dispatch messages. A run
/// that stopped with work unfinished (a deadlock, or an exhausted watchdog
/// budget) is freed too: `Drop` also discards the threads and pending
/// events it left behind, which hold node handles.
pub struct Machine {
    sim: Sim,
    cfg: Rc<MachineConfig>,
    stats: NodeTable<Rc<RefCell<NodeStats>>>,
    net: Network,
    am: Am,
    rpc: Rpc,
    coll: Collectives,
    nodes: NodeTable<Node>,
}

impl Drop for Machine {
    fn drop(&mut self) {
        self.am.detach();
        // An unfinished run leaves threads and events behind that hold the
        // nodes; threads go first, since dropping one can wake another and
        // so schedule an event.
        for node in &self.nodes {
            node.drop_threads();
        }
        self.sim.drop_pending();
    }
}

/// Outcome of a [`Machine::run`].
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Virtual time at which the machine went quiet.
    pub end_time: Time,
    /// Harvested per-node statistics.
    pub stats: MachineStats,
    /// Whether every node's main completed (false = distributed deadlock
    /// or a thread waiting on an event that never comes).
    pub completed: bool,
    /// Total simulation events executed (a proxy for simulation work).
    pub events: u64,
    /// High-water mark of the simulator's event queue during the run.
    pub peak_queue_depth: u64,
}

impl RunReport {
    /// Host-engine epoch counters for this run: epochs stepped, empty
    /// epochs fused, fences widened. All zero for runs that no epoch
    /// coordinator drove ([`Machine::run`] and native runs).
    pub fn engine(&self) -> &oam_model::EngineCounters {
        &self.stats.engine
    }
}

/// What one replica of a run hands back at its end: its run counters and,
/// for each node it owns, the node's stats and hang snapshot. Every
/// runner — [`Machine::run_with_watchdog`], the epoch engine and the
/// native backend — ends in one [`merge`] of these.
pub(crate) struct ReplicaExit<R> {
    /// The first node the replica owns; its nodes follow in id order.
    pub(crate) first: usize,
    pub(crate) end_time: Time,
    pub(crate) events: u64,
    pub(crate) peak_queue_depth: u64,
    pub(crate) in_flight: usize,
    pub(crate) method_names: BTreeMap<u32, String>,
    /// Host-engine counters: identical round counters on every replica,
    /// per-replica delivery counters.
    pub(crate) engine: EngineCounters,
    pub(crate) nodes: Vec<(NodeStats, NodeHangInfo)>,
    /// The application answer, from the replica that owns node 0.
    pub(crate) answer: Option<R>,
}

/// Merge the exits of a run's replicas into one report: per-node stats
/// reassembled by node id, method names united, counters summed or maxed,
/// the answer taken from the replica that owns node 0. A run its watchdog
/// stopped (at `stopped`) or whose mains did not all complete is a
/// [`HangReport`] with one snapshot per node instead.
pub(crate) fn merge<R>(
    mut exits: Vec<ReplicaExit<R>>,
    stopped: Option<Time>,
) -> Result<(RunReport, R), HangReport> {
    exits.sort_unstable_by_key(|e| e.first);
    let (mut end_time, mut events, mut peak, mut in_flight) = (Time::ZERO, 0, 0, 0);
    let nodes = exits.iter().map(|e| e.nodes.len()).sum();
    let (mut per_node, mut hang) = (Vec::with_capacity(nodes), Vec::with_capacity(nodes));
    let mut method_names = BTreeMap::new();
    let (mut engine, mut answer) = (None::<EngineCounters>, None);
    for e in exits {
        end_time = end_time.max(e.end_time);
        events += e.events;
        peak = peak.max(e.peak_queue_depth);
        in_flight += e.in_flight;
        method_names.extend(e.method_names);
        match engine.as_mut() {
            Some(x) => x.absorb(e.engine),
            None => engine = Some(e.engine),
        }
        answer = answer.or(e.answer);
        for (stats, info) in e.nodes {
            per_node.push(stats);
            hang.push(info);
        }
    }
    if stopped.is_some() || hang.iter().any(|n| !n.main_done) {
        return Err(HangReport {
            kind: if stopped.is_some() { HangKind::BudgetExceeded } else { HangKind::Deadlock },
            at: stopped.unwrap_or(end_time),
            nodes: hang,
            in_flight_packets: in_flight,
            events,
        });
    }
    let stats = MachineStats::new(per_node)
        .with_method_names(method_names)
        .with_engine(engine.unwrap_or_default());
    let report = RunReport { end_time, stats, completed: true, events, peak_queue_depth: peak };
    Ok((report, answer.expect("the replica owning node 0 produces the answer")))
}

impl Machine {
    /// The simulation handle.
    pub fn sim(&self) -> &Sim {
        &self.sim
    }

    /// The configuration the machine was built with.
    pub fn config(&self) -> &Rc<MachineConfig> {
        &self.cfg
    }

    /// The node runtimes this machine executes, in id order: every node
    /// of a machine from [`MachineBuilder::build`], the replica's own
    /// range on one shard or native worker of a partitioned run.
    /// Each keeps its global [`NodeId`].
    pub fn nodes(&self) -> &[Node] {
        self.nodes.as_slice()
    }

    /// The ids of the nodes this machine executes.
    pub fn owned(&self) -> Range<usize> {
        self.nodes.owned()
    }

    /// The runtime of node `id`.
    ///
    /// # Panics
    /// Panics, naming `id`, if this machine does not execute that node.
    #[track_caller]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// The RPC runtime.
    pub fn rpc(&self) -> &Rpc {
        &self.rpc
    }

    /// The Active Message layer.
    pub fn am(&self) -> &Am {
        &self.am
    }

    /// The raw network (diagnostics).
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// The collective-communication substrate.
    pub fn collectives(&self) -> &Collectives {
        &self.coll
    }

    /// The per-node environment handed to node mains.
    ///
    /// # Panics
    /// Panics, naming the node, if this machine does not execute node `i`.
    #[track_caller]
    pub fn env(&self, i: usize) -> NodeEnv {
        NodeEnv {
            node: self.node(NodeId(i)).clone(),
            rpc: self.rpc.clone(),
            coll: self.coll.clone(),
        }
    }

    /// Spawn `main` on every node this machine executes; the flags report
    /// each main's completion, in node order.
    pub(crate) fn spawn_mains<F, Fut>(&self, main: &F) -> Vec<Flag>
    where
        F: Fn(NodeEnv) -> Fut,
        Fut: Future<Output = ()> + 'static,
    {
        self.owned()
            .map(|i| {
                let fut = main(self.env(i));
                let flag = Flag::new();
                let f = flag.clone();
                self.nodes[i].spawn(async move {
                    fut.await;
                    f.set();
                });
                flag
            })
            .collect()
    }

    /// Run `main` on every node (SPMD) to completion and harvest
    /// statistics.
    ///
    /// # Panics
    /// Panics if any node's main fails to complete — in this simulation
    /// that is always a distributed-deadlock bug. Use [`Machine::try_run`]
    /// to inspect such outcomes instead.
    pub fn run<F, Fut>(&self, main: F) -> RunReport
    where
        F: Fn(NodeEnv) -> Fut,
        Fut: Future<Output = ()> + 'static,
    {
        let report = self.try_run(main);
        assert!(
            report.completed,
            "machine run did not complete: some node main is deadlocked (end time {})",
            report.end_time
        );
        report
    }

    /// Like [`Machine::run`], but reports incompletion instead of
    /// panicking.
    pub fn try_run<F, Fut>(&self, main: F) -> RunReport
    where
        F: Fn(NodeEnv) -> Fut,
        Fut: Future<Output = ()> + 'static,
    {
        let done = self.spawn_mains(&main);
        let end_time = self.sim.run();
        let completed = done.iter().all(Flag::get);
        RunReport {
            end_time,
            stats: self.harvest(),
            completed,
            events: self.sim.events_executed(),
            peak_queue_depth: self.sim.peak_event_queue_depth(),
        }
    }

    /// Run `main` on every node under a virtual-time budget, with hang
    /// diagnosis. Returns `Ok` when every node's main completes within the
    /// budget; otherwise a structured [`HangReport`] saying whether the
    /// machine deadlocked (went quiet with work unfinished — e.g. a dropped
    /// request with retransmission disabled) or was still live when the
    /// budget ran out, with per-node scheduler snapshots, outstanding-call
    /// counts, and in-flight packets.
    pub fn run_with_watchdog<F, Fut>(&self, budget: Time, main: F) -> Result<RunReport, HangReport>
    where
        F: Fn(NodeEnv) -> Fut,
        Fut: Future<Output = ()> + 'static,
    {
        let done = self.spawn_mains(&main);
        let quiesced = self.sim.run_with_deadline(budget);
        let mut exit = self.exit(&done, self.sim.now());
        exit.answer = Some(());
        merge(vec![exit], (!quiesced).then(|| self.sim.now())).map(|(report, ())| report)
    }

    /// Snapshot this machine at the end of a run, given the completion
    /// flags of its mains: per-node stats, with trailing idle folded at
    /// `idle_until`, and per-node hang snapshots.
    pub(crate) fn exit<R>(&self, done: &[Flag], idle_until: Time) -> ReplicaExit<R> {
        for n in &self.nodes {
            n.finalize_idle(idle_until);
        }
        let stats = self.harvest();
        let nodes = (stats.per_node.into_iter().zip(&self.nodes).zip(done))
            .map(|((stats, node), flag)| {
                let info = NodeHangInfo {
                    diag: node.diagnostics(),
                    outstanding_calls: self.rpc.outstanding_calls(node.id()),
                    input_queue_depth: self.net.input_depth(node.id()),
                    main_done: flag.get(),
                };
                (stats, info)
            })
            .collect();
        ReplicaExit {
            first: self.owned().start,
            end_time: self.sim.now(),
            events: self.sim.events_executed(),
            peak_queue_depth: self.sim.peak_event_queue_depth(),
            in_flight: self.net.in_flight(),
            method_names: stats.method_names,
            engine: EngineCounters::default(),
            nodes,
            answer: None,
        }
    }

    /// Snapshot the statistics of the nodes this machine executes (in id
    /// order), labelled with the registered method names for the
    /// per-method breakdown.
    ///
    /// Folds each node's trailing idle window (last wake to now) into its
    /// `idle_time` first, so the reported figure is the node's total
    /// non-active virtual time regardless of where its final no-op wake
    /// happened to land.
    pub fn harvest(&self) -> MachineStats {
        let now = self.sim.now();
        for n in &self.nodes {
            n.finalize_idle(now);
        }
        MachineStats::new(self.stats.iter().map(|s| s.borrow().clone()).collect())
            .with_method_names(self.rpc.method_names())
    }
}

/// Per-node facade handed to node mains: the node runtime plus the RPC and
/// collective layers, with ergonomic shortcuts.
#[derive(Clone)]
pub struct NodeEnv {
    node: Node,
    rpc: Rpc,
    coll: Collectives,
}

impl NodeEnv {
    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.node.id()
    }

    /// Number of nodes in the machine.
    pub fn nprocs(&self) -> usize {
        self.node.nprocs()
    }

    /// The node runtime.
    pub fn node(&self) -> &Node {
        &self.node
    }

    /// The RPC runtime.
    pub fn rpc(&self) -> &Rpc {
        &self.rpc
    }

    /// The Active Message layer.
    pub fn am(&self) -> &Am {
        self.rpc.am()
    }

    /// Machine configuration.
    pub fn config(&self) -> &Rc<MachineConfig> {
        self.node.config()
    }

    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.node.now()
    }

    /// Charge compute time.
    pub fn charge(&self, d: Dur) -> oam_threads::Charge {
        self.node.charge(d)
    }

    /// Charge compute time given in microseconds.
    pub fn charge_micros(&self, us: u64) -> oam_threads::Charge {
        self.node.charge(Dur::from_micros(us))
    }

    /// The application-level `poll()`: drain deliverable messages and run
    /// the threads they produce ("carefully tuned polling", §4).
    pub fn poll(&self) -> oam_threads::PollBatch {
        self.node.poll_batch()
    }

    /// Voluntarily yield the processor.
    pub fn yield_now(&self) -> oam_threads::YieldNow {
        self.node.yield_now()
    }

    /// Enter the split-phase barrier and wait for all nodes.
    pub async fn barrier(&self) {
        self.coll.barrier(&self.node).await;
    }

    /// The collective substrate (for building [`crate::Reducer`]s).
    pub fn collectives(&self) -> &Collectives {
        &self.coll
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collective::Reducer;
    use std::cell::Cell;

    #[test]
    fn spmd_run_reaches_all_nodes_and_completes() {
        let m = MachineBuilder::new(8).build();
        let visited = Rc::new(RefCell::new(Vec::new()));
        let v = visited.clone();
        let report = m.run(move |env| {
            let v = v.clone();
            async move {
                v.borrow_mut().push(env.id().index());
                env.charge_micros(5).await;
            }
        });
        assert!(report.completed);
        let mut got = visited.borrow().clone();
        got.sort_unstable();
        assert_eq!(got, (0..8).collect::<Vec<_>>());
        assert_eq!(report.stats.total().threads_completed, 8);
    }

    #[test]
    fn try_run_reports_deadlock_instead_of_panicking() {
        let m = MachineBuilder::new(2).build();
        let report = m.try_run(|env| async move {
            if env.id().index() == 0 {
                // Node 0 waits on a flag nobody sets.
                env.node().spin_on(Flag::new()).await;
            }
        });
        assert!(!report.completed);
    }

    #[test]
    fn identical_seeds_reproduce_identical_runs() {
        fn run_once() -> (Time, u64) {
            let m = MachineBuilder::new(4).seed(99).build();
            let r = m.run(|env| async move {
                for i in 0..3u64 {
                    env.charge_micros(7 + i + env.id().index() as u64).await;
                    env.barrier().await;
                }
            });
            (r.end_time, r.events)
        }
        assert_eq!(run_once(), run_once());
    }

    #[test]
    fn rpc_through_env_works_under_both_policies() {
        for policy in [QueuePolicy::Front, QueuePolicy::Back] {
            let m = MachineBuilder::new(2).queue_policy(policy).build();
            let hits = Rc::new(Cell::new(0u32));
            let h = hits.clone();
            // Register a raw ORPC handler via the runtime primitives.
            let id = oam_rpc::handler_id_for("test::bump");
            for node in m.nodes() {
                let h = h.clone();
                let factory: oam_rpc::CallFactory = Rc::new(move |_call| {
                    let h = h.clone();
                    Box::pin(async move {
                        h.set(h.get() + 1);
                    })
                });
                m.rpc().register(node.id(), id, oam_rpc::RpcMode::Orpc, factory, false);
            }
            m.run(move |env| async move {
                if env.id().index() == 0 {
                    env.rpc().send_oneway_raw(env.node(), NodeId(1), id, &[]).await;
                    // Wait for delivery before exiting so the run is quiet.
                    env.barrier().await;
                } else {
                    env.charge_micros(50).await;
                    env.barrier().await;
                }
            });
            assert_eq!(hits.get(), 1, "policy {policy:?}");
        }
    }

    #[test]
    fn reducer_via_env_collectives() {
        let m = MachineBuilder::new(4).build();
        let red = Reducer::new(m.collectives(), |a: &u64, b: &u64| a.max(b).to_owned());
        let out = Rc::new(Cell::new(0u64));
        let o = out.clone();
        m.run(move |env| {
            let red = red.clone();
            let o = o.clone();
            async move {
                let max = red.reduce(env.node(), env.id().index() as u64 * 10).await;
                o.set(max);
            }
        });
        assert_eq!(out.get(), 30);
    }

    #[test]
    fn per_method_policy_overrides_registration_mode() {
        // Registered as ORPC, but the builder forces this method to TRPC:
        // the call must never be attempted optimistically.
        let id = oam_rpc::handler_id_for("test::forced");
        let m = MachineBuilder::new(2).policy(id, ExecPolicy::trpc()).build();
        let hits = Rc::new(Cell::new(0u32));
        for node in m.nodes() {
            let h = hits.clone();
            let factory: oam_rpc::CallFactory = Rc::new(move |_call| {
                let h = h.clone();
                Box::pin(async move {
                    h.set(h.get() + 1);
                })
            });
            m.rpc().register(node.id(), id, oam_rpc::RpcMode::Orpc, factory, false);
        }
        let report = m.run(move |env| async move {
            if env.id().index() == 0 {
                env.rpc().send_oneway_raw(env.node(), NodeId(1), id, &[]).await;
            }
            env.barrier().await;
        });
        assert_eq!(hits.get(), 1);
        let total = report.stats.total();
        assert_eq!(total.oam_attempts, 0, "policy forced thread-per-call");
        assert_eq!(total.per_method[&id.0].threaded, 1);
    }

    #[test]
    fn harvest_attaches_registered_method_names() {
        let m = MachineBuilder::new(2).build();
        let id = m.rpc().register_named(
            NodeId(1),
            "Named::probe",
            oam_rpc::RpcMode::Orpc,
            Rc::new(|_call| Box::pin(async {})),
            false,
        );
        let report = m.run(|env| async move {
            env.charge_micros(1).await;
        });
        assert_eq!(report.stats.method_name(id.0), "Named::probe");
    }

    #[test]
    fn builder_tweak_applies() {
        let m = MachineBuilder::new(2).tweak(|c| c.ni_out_capacity = 9).build();
        assert_eq!(m.config().ni_out_capacity, 9);
        assert_eq!(m.nodes().len(), 2);
    }
}
