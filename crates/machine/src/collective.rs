//! Collectives over the simulated control network.
//!
//! The CM-5 had a separate low-latency *control network* with hardware
//! barriers and reductions; the paper's SOR and Water applications use a
//! split-phase barrier, a global-OR set/get pair, and a global reduction
//! (§4.2.3, §4.2.4). These are modelled as shared gadgets with a small
//! constant completion latency from the cost model. Waiting is a
//! spin-wait: the waiting node keeps polling the data network and running
//! runnable threads, exactly like a CM-5 node spinning on the control-
//! network status register.

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::{Rc, Weak};
use std::sync::Arc;

use oam_model::{Dur, Time};
use oam_sim::{event_key, Sim, KEY_CLASS_COLLECTIVE};
use oam_threads::{Flag, Node};

// ---------------------------------------------------------------------------
// Replicas
// ---------------------------------------------------------------------------
//
// Every shard builds a *replica* of each reducer (setup code runs
// identically on every shard, so replicas are created in the same order
// and get the same ids); a one-shard machine is the case with a single
// replica. A replica holds the shard's own nodes, to kick at publish, and
// one contribution slot per machine node. A node's contribution is
// recorded in its shard's replica and, when other shards exist, broadcast
// to them at the next epoch barrier; once a replica has all `n` contributions it schedules the publish event
// at `max(contribution time) + latency` under a collective-class key, so
// every shard fires the publish at the same virtual time with the same
// ordering key. The collective latency must be at least the coordinator's
// lookahead for the conservative fence argument to cover these
// cross-shard effects (asserted at creation).

/// One reduction contribution crossing shard threads. The value is type-
/// erased (`Arc<dyn Any>`) so a single record type serves every reducer;
/// the owning replica downcasts it back.
#[derive(Clone)]
pub struct ReduceRecord {
    /// Replica id (creation order, identical on every shard).
    pub reducer: u32,
    /// Reduction round the contribution belongs to.
    pub round: u64,
    /// Contributing node.
    pub node: u32,
    /// Virtual time of the contribution.
    pub t: Time,
    /// The contributed value.
    pub value: Arc<dyn Any + Send + Sync>,
}

/// Integration interface the shard worker uses to deliver remote
/// contributions to the replica that owns them.
pub(crate) trait ReduceSink {
    fn integrate(&self, rec: ReduceRecord);
}

/// Per-shard collective context: the outbox of contributions awaiting the
/// next epoch barrier, the replica registry, and the machine's node count
/// (every node contributes to every round).
pub struct ShardCollectives {
    pub(crate) outbox: RefCell<Vec<ReduceRecord>>,
    pub(crate) sinks: RefCell<Vec<Weak<dyn ReduceSink>>>,
    pub(crate) nodes: usize,
    pub(crate) lookahead: Dur,
    /// Whether other shards exist to broadcast contributions to.
    peers: bool,
}

impl ShardCollectives {
    /// Create the context for one shard owning `owned` of `nodes` nodes.
    pub fn new(owned: std::ops::Range<usize>, nodes: usize, lookahead: Dur) -> Self {
        ShardCollectives {
            outbox: RefCell::new(Vec::new()),
            sinks: RefCell::new(Vec::new()),
            peers: owned.len() < nodes,
            nodes,
            lookahead,
        }
    }

    /// Append the contributions queued for broadcast to the other
    /// replicas to `out`, a caller-owned buffer the worker loop reuses (the
    /// outbox keeps its own capacity too).
    pub fn drain_outbox_into(&self, out: &mut Vec<ReduceRecord>) {
        out.append(&mut self.outbox.borrow_mut());
    }

    /// Deliver a contribution received from another shard to its replica.
    pub fn integrate(&self, rec: ReduceRecord) {
        let sink = self.sinks.borrow()[rec.reducer as usize].upgrade();
        // A dropped replica means the app no longer holds the reducer;
        // late contributions to it cannot be observed by anyone.
        if let Some(sink) = sink {
            sink.integrate(rec);
        }
    }
}

type ReduceOp<T> = Rc<dyn Fn(&T, &T) -> T>;

/// One round of a reducer replica: per-node `(time, value)`
/// contributions, folded in `(time, node)` order at publish so every
/// shard computes bit-identical results.
struct Round<T> {
    values: RefCell<Vec<Option<(Time, T)>>>,
    count: Cell<usize>,
    flag: Flag,
    result: RefCell<Option<T>>,
}

impl<T> Round<T> {
    fn new(n: usize) -> Rc<Self> {
        Rc::new(Round {
            values: RefCell::new((0..n).map(|_| None).collect()),
            count: Cell::new(0),
            flag: Flag::new(),
            result: RefCell::new(None),
        })
    }
}

struct ReduceInner<T> {
    sim: Sim,
    /// The shard's own nodes, kicked at publish.
    nodes: Vec<Node>,
    latency: Dur,
    op: ReduceOp<T>,
    /// Replica id: creation order, identical on every shard.
    id: u32,
    ctx: Rc<ShardCollectives>,
    /// The round local contributions belong to; advanced by each publish.
    current_round: Rc<Cell<u64>>,
    /// Open rounds by number. At most a handful live at once: a round
    /// publishes as soon as its last contribution is integrated.
    rounds: Rc<RefCell<BTreeMap<u64, Rc<Round<T>>>>>,
}

impl<T> ReduceInner<T> {
    fn round_handle(&self, round_no: u64) -> Rc<Round<T>> {
        let n = self.ctx.nodes;
        Rc::clone(self.rounds.borrow_mut().entry(round_no).or_insert_with(|| Round::new(n)))
    }
}

/// A reusable global reduction (and, with `bool`/`|`, the CM-5 global-OR).
/// Every node must contribute exactly once per round; rounds complete in
/// entry order and may be reused immediately.
pub struct Reducer<T> {
    inner: Rc<ReduceInner<T>>,
}

impl<T> Clone for Reducer<T> {
    fn clone(&self) -> Self {
        Reducer { inner: Rc::clone(&self.inner) }
    }
}

impl<T: Clone + Send + Sync + 'static> Reducer<T> {
    /// Create a reducer combining contributions with `op` (must be
    /// associative and commutative).
    pub fn new(coll: &Collectives, op: impl Fn(&T, &T) -> T + 'static) -> Self {
        Self::with_latency(&coll.sim, coll.nodes.clone(), coll.reduction_latency, &coll.shard, op)
    }

    fn with_latency(
        sim: &Sim,
        nodes: Vec<Node>,
        latency: Dur,
        ctx: &Rc<ShardCollectives>,
        op: impl Fn(&T, &T) -> T + 'static,
    ) -> Self {
        assert!(
            latency >= ctx.lookahead,
            "collective latency {latency} below shard lookahead {}",
            ctx.lookahead
        );
        let inner = Rc::new(ReduceInner {
            sim: sim.clone(),
            nodes,
            latency,
            op: Rc::new(op),
            id: ctx.sinks.borrow().len() as u32,
            ctx: Rc::clone(ctx),
            current_round: Rc::new(Cell::new(0)),
            rounds: Rc::new(RefCell::new(BTreeMap::new())),
        });
        let weak: Weak<dyn ReduceSink> = Rc::downgrade(&(Rc::clone(&inner) as Rc<dyn ReduceSink>));
        ctx.sinks.borrow_mut().push(weak);
        Reducer { inner }
    }

    /// Contribute this node's value and wait for the combined result:
    /// record it in the local replica, queue its broadcast to the other
    /// shards for the next epoch barrier, and spin until the replica
    /// publishes the round.
    pub async fn reduce(&self, node: &Node, value: T) -> T {
        let inner = &self.inner;
        let idx = node.id().index();
        let t = inner.sim.now();
        let round_no = inner.current_round.get();
        let round = inner.round_handle(round_no);
        if inner.ctx.peers {
            inner.ctx.outbox.borrow_mut().push(ReduceRecord {
                reducer: inner.id,
                round: round_no,
                node: idx as u32,
                t,
                value: Arc::new(value.clone()),
            });
        }
        inner.integrate_contribution(round_no, idx, t, value);
        node.spin_on(round.flag.clone()).await;
        let result = round.result.borrow().clone().expect("reduction result published");
        result
    }
}

impl<T: Clone + Send + Sync + 'static> ReduceInner<T> {
    /// Record one contribution in the replica; schedules the publish event
    /// once all nodes have contributed. Runs both for local contributions
    /// (from [`Reducer::reduce`]) and for remote ones delivered by the
    /// shard worker between the epoch barriers.
    fn integrate_contribution(&self, round_no: u64, node: usize, t: Time, value: T) {
        let n = self.ctx.nodes;
        let round = self.round_handle(round_no);
        {
            let mut vals = round.values.borrow_mut();
            assert!(
                vals[node].replace((t, value)).is_none(),
                "node contributed twice to one reduction round"
            );
        }
        round.count.set(round.count.get() + 1);
        if round.count.get() < n {
            return;
        }
        // Round complete on this replica: publish at the last contribution
        // time plus the control-network latency, under a key every shard
        // derives identically.
        let t_pub = round
            .values
            .borrow()
            .iter()
            .flatten()
            .map(|(t, _)| *t)
            .max()
            .expect("round has contributions")
            + self.latency;
        debug_assert!(round_no < 1 << 32, "reduction round counter overflow");
        let key = event_key(
            0,
            KEY_CLASS_COLLECTIVE,
            (u64::from(self.id) << 32) | (round_no & 0xFFFF_FFFF),
        );
        let op = Rc::clone(&self.op);
        let nodes = self.nodes.clone();
        let current = Rc::clone(&self.current_round);
        let rounds = Rc::clone(&self.rounds);
        let done = round;
        self.sim.schedule_at_raw(t_pub, key, 0, move |_| {
            rounds.borrow_mut().remove(&round_no);
            let mut entries: Vec<(Time, usize, T)> = done
                .values
                .borrow_mut()
                .iter_mut()
                .enumerate()
                .map(|(i, v)| {
                    let (t, val) = v.take().expect("every node contributed");
                    (t, i, val)
                })
                .collect();
            entries.sort_by_key(|e| (e.0, e.1));
            let mut it = entries.into_iter();
            let (_, _, first) = it.next().expect("at least one node");
            let acc = it.fold(first, |a, (_, _, v)| op(&a, &v));
            *done.result.borrow_mut() = Some(acc);
            done.flag.set();
            current.set(round_no + 1);
            for node in &nodes {
                node.kick();
            }
        });
    }
}

impl<T: Clone + Send + Sync + 'static> ReduceSink for ReduceInner<T> {
    fn integrate(&self, rec: ReduceRecord) {
        let value = rec
            .value
            .downcast_ref::<T>()
            .expect("reduction contribution value type mismatch")
            .clone();
        self.integrate_contribution(rec.round, rec.node as usize, rec.t, value);
    }
}

/// The collective-communication substrate: a split-phase barrier plus
/// constructors for [`Reducer`]s.
#[derive(Clone)]
pub struct Collectives {
    sim: Sim,
    /// The shard's own nodes.
    nodes: Vec<Node>,
    reduction_latency: Dur,
    barrier: Reducer<()>,
    shard: Rc<ShardCollectives>,
}

impl Collectives {
    /// Build the collectives of one shard replica over its own `nodes`:
    /// reducers are replicas coordinated through `ctx` (see the module
    /// notes).
    pub fn new(
        sim: &Sim,
        nodes: Vec<Node>,
        barrier_latency: Dur,
        reduction_latency: Dur,
        ctx: Rc<ShardCollectives>,
    ) -> Self {
        let barrier = Reducer::with_latency(sim, nodes.clone(), barrier_latency, &ctx, |_, _| ());
        Collectives { sim: sim.clone(), nodes, reduction_latency, barrier, shard: ctx }
    }

    /// The shard context the replicas coordinate through.
    pub fn shard_ctx(&self) -> &Rc<ShardCollectives> {
        &self.shard
    }

    /// Wait until every node has entered the barrier. Split-phase
    /// underneath: the node spins (polling the data network, running
    /// runnable threads) until the control network reports completion.
    pub async fn barrier(&self, node: &Node) {
        self.barrier.reduce(node, ()).await;
    }

    /// Number of participating nodes: every node of the machine.
    pub fn nprocs(&self) -> usize {
        self.shard.nodes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oam_model::{MachineConfig, NodeId, NodeStats, Time};
    use std::cell::Cell;

    fn setup(n: usize) -> (Sim, Vec<Node>, Collectives) {
        let sim = Sim::new(9);
        let cfg = Rc::new(MachineConfig::cm5(n));
        let nodes: Vec<Node> = (0..n)
            .map(|i| {
                Node::new(
                    &sim,
                    NodeId(i),
                    n,
                    Rc::clone(&cfg),
                    Rc::new(RefCell::new(NodeStats::new())),
                )
            })
            .collect();
        let coll = Collectives::new(
            &sim,
            nodes.clone(),
            cfg.cost.barrier_latency,
            cfg.cost.reduction_latency,
            Rc::new(ShardCollectives::new(0..n, n, Dur::ZERO)),
        );
        (sim, nodes, coll)
    }

    #[test]
    fn barrier_releases_all_at_last_entry_plus_latency() {
        let (sim, nodes, coll) = setup(3);
        let released: Rc<RefCell<Vec<(usize, Time)>>> = Rc::default();
        for (i, node) in nodes.iter().enumerate() {
            let (n, c, r) = (node.clone(), coll.clone(), released.clone());
            node.spawn(async move {
                // Stagger arrivals: node i works i×100 µs first.
                n.charge(Dur::from_micros(100 * i as u64)).await;
                c.barrier(&n).await;
                r.borrow_mut().push((i, n.now()));
            });
        }
        sim.run();
        let rel = released.borrow();
        assert_eq!(rel.len(), 3);
        let t0 = rel[0].1;
        assert!(rel.iter().all(|(_, t)| *t == t0), "all released together: {rel:?}");
        // Last entrant arrives at ≈ 207 µs (spawn overheads), +5 µs barrier.
        assert!(t0 >= Time::from_nanos(205_000), "released at {t0}");
    }

    #[test]
    fn barrier_is_reusable_across_iterations() {
        let (sim, nodes, coll) = setup(2);
        let count = Rc::new(Cell::new(0u32));
        for node in &nodes {
            let (n, c, cnt) = (node.clone(), coll.clone(), count.clone());
            node.spawn(async move {
                for _ in 0..5 {
                    c.barrier(&n).await;
                    cnt.set(cnt.get() + 1);
                }
            });
        }
        sim.run();
        assert_eq!(count.get(), 10);
    }

    #[test]
    fn sum_reduction_combines_all_contributions() {
        let (sim, nodes, coll) = setup(4);
        let red = Reducer::new(&coll, |a: &f64, b: &f64| a + b);
        let results: Rc<RefCell<Vec<f64>>> = Rc::default();
        for (i, node) in nodes.iter().enumerate() {
            let (n, r, out) = (node.clone(), red.clone(), results.clone());
            node.spawn(async move {
                let total = r.reduce(&n, (i + 1) as f64).await;
                out.borrow_mut().push(total);
            });
        }
        sim.run();
        assert_eq!(*results.borrow(), vec![10.0; 4]);
    }

    #[test]
    fn global_or_detects_any_true() {
        let (sim, nodes, coll) = setup(3);
        let or = Reducer::new(&coll, |a: &bool, b: &bool| *a || *b);
        let results: Rc<RefCell<Vec<bool>>> = Rc::default();
        for (i, node) in nodes.iter().enumerate() {
            let (n, r, out) = (node.clone(), or.clone(), results.clone());
            node.spawn(async move {
                let any = r.reduce(&n, i == 2).await;
                out.borrow_mut().push(any);
                let none = r.reduce(&n, false).await;
                out.borrow_mut().push(none);
            });
        }
        sim.run();
        let res = results.borrow();
        assert_eq!(res.iter().filter(|b| **b).count(), 3, "first round true everywhere");
        assert_eq!(res.len(), 6);
    }
}
