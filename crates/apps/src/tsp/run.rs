//! Master/slave branch-and-bound TSP (§4.2.2).
//!
//! The master (node 0) generates partial routes into a job queue; slaves
//! repeatedly RPC `get_job`, expand the partial route closest-city-first
//! with pruning, and broadcast bound improvements. The remote procedure
//! locks the queue and *blocks* when no job is available yet — the source
//! of the paper's Table 2 abort numbers: at low slave counts the queue is
//! ahead of the slaves and almost every optimistic call succeeds; at very
//! high counts the slaves outrun the master and essentially every call
//! must abort and wait.
//!
//! The hand-coded AM variant reproduces the paper's trick: its master
//! generates **all** jobs before accepting any request, so its `get_job`
//! handler never needs to block (and the code would otherwise be much
//! harder to write — §4.2.2). Only the request/reply pair stays
//! hand-coded: bound broadcasts are a semantically plain one-way RPC, so
//! every variant shares the generated `Tsp::new_bound` stub.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;

use oam_am::{AmToken, HandlerId};
use oam_machine::{run_partitioned, Machine, MachineBuilder, Reducer, ShardApp};
use oam_model::{Dur, NodeId, NodeTable};
use oam_rpc::{define_rpc_service, RpcMode};
use oam_threads::{CondVar, Flag, Mutex};

use crate::system::{AppOutcome, System};
use crate::tsp::cities::{expand, generate_prefixes, Cities};

/// Master-side cost of generating one partial route.
pub const GEN_COST: Dur = Dur::from_nanos(10_000);
/// Slave-side cost per search-tree node visited.
pub const NODE_COST: Dur = Dur::from_nanos(3_800);
/// Queue bookkeeping inside `get_job`.
pub const GET_JOB_COST: Dur = Dur::from_nanos(1_000);
/// Applying a bound-update message.
pub const BOUND_COST: Dur = Dur::from_nanos(300);

/// The master's job queue.
pub struct JobQueue {
    /// Pending partial routes.
    pub jobs: VecDeque<Vec<u8>>,
    /// Set once the master has generated everything.
    pub done: bool,
}

/// Per-node TSP state (queue fields are only used on the master).
pub struct TspState {
    /// The job queue, under the lock the paper's `get_job` takes.
    pub queue: Mutex<JobQueue>,
    /// Signalled when jobs arrive or generation completes.
    pub not_empty: CondVar,
    /// This node's view of the best tour found so far.
    pub best: Cell<u32>,
}

define_rpc_service! {
    /// The TSP job service.
    service Tsp {
        state TspState;

        /// Fetch one partial route; `None` when the search is exhausted.
        /// Blocks while the queue is locked or empty (§4.2.2).
        rpc get_job(ctx, st) -> Option<Vec<u8>> {
            let mut g = st.queue.lock().await;
            ctx.charge(super::GET_JOB_COST).await;
            loop {
                if let Some(j) = g.with_mut(|q| q.jobs.pop_front()) {
                    break Some(j);
                }
                if g.with(|q| q.done) {
                    break None;
                }
                g = st.not_empty.wait(g).await;
            }
        }

        /// A slave found a better tour.
        oneway new_bound(ctx, st, len: u32) {
            ctx.charge(super::BOUND_COST).await;
            if len < st.best.get() {
                st.best.set(len);
            }
        }
    }
}

const AM_GET: HandlerId = HandlerId(0x0002_0001);
const AM_JOB: HandlerId = HandlerId(0x0002_0002);

/// Hand-coded AM per-node state (jobs + the manual continuation; the
/// best-tour cell lives in [`TspState`] for every variant).
struct AmTsp {
    jobs: RefCell<VecDeque<Vec<u8>>>,
    /// Slave-side reply slot + flag (one outstanding request at a time —
    /// the manual continuation the paper's hand-coded version needs).
    reply: RefCell<Option<Option<Vec<u8>>>>,
    reply_flag: RefCell<Flag>,
}

/// Parameters for a TSP run.
#[derive(Debug, Clone, Copy)]
pub struct TspParams {
    /// Number of cities (paper: 12).
    pub ncities: usize,
    /// Partial-route length generated by the master (paper: 5).
    pub prefix_len: usize,
    /// Instance seed.
    pub seed: u64,
}

impl Default for TspParams {
    fn default() -> Self {
        TspParams { ncities: 12, prefix_len: 5, seed: 0xC17135 }
    }
}

/// Sequential baseline for the same parameters:
/// `(best tour, visited nodes, virtual time)`.
pub fn sequential(p: TspParams) -> (u32, u64, Dur) {
    let cities = Cities::random(p.ncities, p.seed);
    crate::tsp::cities::sequential(&cities, p.prefix_len, GEN_COST, NODE_COST)
}

/// Run TSP with `slaves` worker nodes (the machine has `slaves + 1` nodes;
/// node 0 is the master).
pub fn run(system: System, slaves: usize, p: TspParams) -> AppOutcome {
    assert!(slaves >= 1);
    run_configured(system, oam_model::MachineConfig::cm5(slaves + 1), p)
}

/// As [`run`], with a caller-supplied machine configuration (the machine
/// has `cfg.nodes` nodes: one master plus `cfg.nodes - 1` slaves).
pub fn run_configured(system: System, cfg: oam_model::MachineConfig, p: TspParams) -> AppOutcome {
    assert!(cfg.nodes >= 2);
    let (report, answer) = run_partitioned(cfg, move |machine| app(system, p, machine, false));
    AppOutcome::new(report, answer)
}

/// As [`run`], but the slaves *pipeline* their job fetches: each slave
/// keeps one `get_job` outstanding while it expands the previous route,
/// so the request's round trip (and any blocking in the master's queue)
/// overlaps useful search work instead of serializing with it. Uses the
/// generated `issue`/`wait` stubs; the wire protocol is unchanged — only
/// the call *schedule* differs, which is the point of the comparison
/// against [`run`]'s strict call-reply-compute cycle.
pub fn run_pipelined(system: System, slaves: usize, p: TspParams) -> AppOutcome {
    assert!(slaves >= 1);
    assert!(
        system != System::HandAm,
        "the hand-coded AM variant manages its own continuation; pipelining applies to the stubs"
    );
    let cfg = oam_model::MachineConfig::cm5(slaves + 1);
    let (report, answer) = run_partitioned(cfg, move |machine| app(system, p, machine, true));
    AppOutcome::new(report, answer)
}

/// As [`run_configured`], invoking `hook` on the freshly built machine
/// before the run starts. Lets harnesses install trace observers (e.g. a
/// `Recorder` for golden-trace determinism checks) on an otherwise
/// self-contained application run. Hooked runs always run on one shard
/// (trace observers are thread-local).
pub fn run_hooked(
    system: System,
    cfg: oam_model::MachineConfig,
    p: TspParams,
    hook: impl FnOnce(&oam_machine::Machine),
) -> AppOutcome {
    assert!(cfg.nodes >= 2);
    let machine = MachineBuilder::from_config(cfg).build();
    hook(&machine);
    let ShardApp { main, finish } = app(system, p, &machine, false);
    let report = machine.run(&main);
    let answer = finish(&machine);
    AppOutcome::new(report, answer)
}

/// Build the TSP application for one machine (or shard replica): per-node
/// state, handler registration, reducers, and the node main.
fn app(system: System, p: TspParams, machine: &Machine, pipelined: bool) -> ShardApp<u64> {
    let cities = Rc::new(Cities::random(p.ncities, p.seed));
    let prefixes = Rc::new(generate_prefixes(p.ncities, p.prefix_len));

    let owned = machine.owned();
    let rpc_states = NodeTable::new(owned.clone(), |id| {
        let node = machine.node(id);
        Rc::new(TspState {
            queue: Mutex::new(node, JobQueue { jobs: VecDeque::new(), done: false }),
            not_empty: CondVar::new(node),
            best: Cell::new(u32::MAX),
        })
    });
    let am_states = NodeTable::new(owned.clone(), |_| {
        Rc::new(AmTsp {
            jobs: RefCell::new(VecDeque::new()),
            reply: RefCell::new(None),
            reply_flag: RefCell::new(Flag::new()),
        })
    });

    match system {
        System::HandAm => {
            for (i, st) in owned.zip(&am_states) {
                let master_st = Rc::clone(st);
                let master_pool = machine.am().pool(NodeId(i)).clone();
                machine.am().register(
                    NodeId(i),
                    AM_GET,
                    oam_am::HandlerEntry::Inline(Rc::new(move |t: &AmToken| {
                        t.charge(GET_JOB_COST);
                        // Never blocks: all jobs were generated up front.
                        let job = master_st.jobs.borrow_mut().pop_front();
                        let payload = oam_rpc::to_payload(&job, &master_pool);
                        t.reply(t.src(), AM_JOB, payload);
                    })),
                );
                let slave_st = Rc::clone(st);
                machine.am().register(
                    NodeId(i),
                    AM_JOB,
                    oam_am::HandlerEntry::Inline(Rc::new(move |t: &AmToken| {
                        let job: Option<Vec<u8>> =
                            oam_rpc::from_bytes(t.payload()).expect("job decode");
                        *slave_st.reply.borrow_mut() = Some(job);
                        slave_st.reply_flag.borrow().set();
                    })),
                );
                // Bound updates are a plain one-way RPC even in the
                // hand-coded system: use the generated stub.
                Tsp::new_bound::register(
                    machine.rpc(),
                    NodeId(i),
                    Rc::clone(&rpc_states[i]),
                    RpcMode::Orpc,
                );
            }
        }
        System::Orpc | System::Trpc => {
            for (i, st) in owned.zip(&rpc_states) {
                Tsp::register_all(machine.rpc(), NodeId(i), Rc::clone(st), system.rpc_mode());
            }
        }
    }

    let best_reduce = Reducer::new(machine.collectives(), |a: &u32, b: &u32| *a.min(b));
    let answer_out = Rc::new(Cell::new(0u64));

    let rpc_states = Rc::new(rpc_states);
    let am_states = Rc::new(am_states);
    let out = Rc::clone(&answer_out);
    let main = move |env: oam_machine::NodeEnv| {
        let cities = Rc::clone(&cities);
        let prefixes = Rc::clone(&prefixes);
        let rpc_states = Rc::clone(&rpc_states);
        let am_states = Rc::clone(&am_states);
        let best_r = best_reduce.clone();
        let out = Rc::clone(&out);
        let fut: std::pin::Pin<Box<dyn std::future::Future<Output = ()>>> = Box::pin(async move {
            let me = env.id().index();
            let nprocs = env.nprocs();
            let master = NodeId(0);

            if me == 0 {
                // ---- master ----
                match system {
                    System::HandAm => {
                        // Generate everything before accepting requests.
                        env.charge(GEN_COST.times(prefixes.len() as u64)).await;
                        am_states[0].jobs.borrow_mut().extend(prefixes.iter().cloned());
                        env.barrier().await; // now open for business
                    }
                    _ => {
                        env.barrier().await; // match the AM variant's phase
                        let st = &rpc_states[0];
                        for job in prefixes.iter() {
                            env.charge(GEN_COST).await;
                            let g = st.queue.lock().await;
                            g.with_mut(|q| q.jobs.push_back(job.clone()));
                            st.not_empty.signal();
                            drop(g);
                            env.poll().await; // tuned polling: serve requests
                        }
                        let g = st.queue.lock().await;
                        g.with_mut(|q| q.done = true);
                        st.not_empty.broadcast();
                        drop(g);
                    }
                }
            } else {
                env.barrier().await;
                // ---- slave ----
                // Pipelined slaves keep one `get_job` in flight while they
                // expand the previous route (issued below, re-armed after
                // every successful fetch).
                let mut next: Option<oam_rpc::CallHandle<Option<Vec<u8>>>> =
                    if pipelined && system != System::HandAm {
                        Some(Tsp::get_job::issue(env.rpc(), env.node(), master).await)
                    } else {
                        None
                    };
                loop {
                    let job: Option<Vec<u8>> = match system {
                        System::HandAm => {
                            let st = &am_states[me];
                            let flag = Flag::new();
                            *st.reply_flag.borrow_mut() = flag.clone();
                            *st.reply.borrow_mut() = None;
                            env.am().send(env.node(), master, AM_GET, Vec::new()).await;
                            env.node().spin_on(flag).await;
                            st.reply.borrow_mut().take().expect("reply arrived")
                        }
                        _ if pipelined => {
                            let h = next.take().expect("one fetch always outstanding");
                            let job = h.wait().await.expect("reply decode");
                            if job.is_some() {
                                // Overlap the next fetch with this job's
                                // expansion below.
                                next =
                                    Some(Tsp::get_job::issue(env.rpc(), env.node(), master).await);
                            }
                            job
                        }
                        _ => Tsp::get_job::call(env.rpc(), env.node(), master)
                            .await
                            .expect("reply decode"),
                    };
                    let Some(prefix) = job else { break };
                    let best_cell = &rpc_states[me].best;
                    let snapshot = best_cell.get();
                    let e = expand(&cities, &prefix, snapshot);
                    env.charge(NODE_COST.times(e.visited)).await;
                    if e.best < best_cell.get() {
                        best_cell.set(e.best);
                        for other in 0..nprocs {
                            if other != me {
                                Tsp::new_bound::send(env.rpc(), env.node(), NodeId(other), e.best)
                                    .await;
                            }
                        }
                    }
                    env.poll().await;
                }
            }

            // Everyone (master keeps serving while spinning here).
            env.barrier().await;
            let best_cell = rpc_states[me].best.get();
            let global_best = best_r.reduce(env.node(), best_cell).await;
            if me == 0 {
                out.set(global_best as u64);
            }
        });
        fut
    };
    ShardApp { main: Box::new(main), finish: Box::new(move |_| answer_out.get()) }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> TspParams {
        TspParams { ncities: 9, prefix_len: 3, ..Default::default() }
    }

    #[test]
    fn all_systems_find_the_optimal_tour() {
        let (best, _, _) = sequential(small());
        for system in System::ALL {
            let out = run(system, 3, small());
            assert_eq!(out.answer, best as u64, "{}", system.label());
        }
    }

    #[test]
    fn orpc_mostly_succeeds_with_few_slaves() {
        let out = run(System::Orpc, 2, small());
        let t = out.stats.total();
        assert!(t.oam_attempts > 0);
        let rate = t.success_rate().expect("attempts exist");
        assert!(rate > 0.5, "success rate {rate} too low for 2 slaves");
    }

    #[test]
    fn trpc_creates_a_thread_per_request() {
        let out = run(System::Trpc, 2, small());
        let t = out.stats.total();
        let requests: u64 = out.stats.per_node.iter().skip(1).map(|s| s.rpcs_sync).sum();
        assert!(
            t.threads_created >= requests,
            "threads {} < requests {requests}",
            t.threads_created
        );
    }

    #[test]
    fn pipelined_fetches_beat_the_synchronous_slave_loop() {
        let (best, _, _) = sequential(small());
        let sync = run(System::Orpc, 3, small());
        let piped = run_pipelined(System::Orpc, 3, small());
        assert_eq!(sync.answer, best as u64);
        assert_eq!(piped.answer, best as u64, "pipelining must not change the search result");
        assert!(
            piped.elapsed < sync.elapsed,
            "pipelined {:?} should finish before synchronous {:?}",
            piped.elapsed,
            sync.elapsed
        );
        // Same schedule, same virtual clock: pipelined runs stay
        // deterministic.
        let again = run_pipelined(System::Orpc, 3, small());
        assert_eq!(again.answer, piped.answer);
        assert_eq!(again.elapsed, piped.elapsed);
    }

    #[test]
    fn deterministic_across_repeats() {
        let a = run(System::Orpc, 3, small());
        let b = run(System::Orpc, 3, small());
        assert_eq!(a.answer, b.answer);
        assert_eq!(a.elapsed, b.elapsed);
    }
}
