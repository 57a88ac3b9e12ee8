//! Workspace-level integration tests: the full stack exercised through
//! the meta-crate's public API.

use std::cell::Cell;
use std::rc::Rc;

use optimistic_active_messages::apps::sor::SorParams;
use optimistic_active_messages::apps::tsp::TspParams;
use optimistic_active_messages::apps::water::{WaterParams, WaterVariant};
use optimistic_active_messages::apps::{sor, triangle, tsp, water, System};
use optimistic_active_messages::machine::Reducer;
use optimistic_active_messages::prelude::*;

pub struct PingState {
    pub hits: Cell<u64>,
}

define_rpc_service! {
    /// Minimal service for plumbing tests.
    service Ping {
        state PingState;

        /// Count and echo.
        rpc ping(ctx, st, x: u64) -> u64 {
            st.hits.set(st.hits.get() + 1);
            x + 1
        }
    }
}

fn build_ping(nodes: usize, mode: RpcMode) -> (Machine, Rc<Vec<Rc<PingState>>>) {
    let machine = MachineBuilder::new(nodes).build();
    let states: Vec<Rc<PingState>> =
        (0..nodes).map(|_| Rc::new(PingState { hits: Cell::new(0) })).collect();
    for (node, st) in machine.nodes().iter().zip(&states) {
        Ping::register_all(machine.rpc(), node.id(), Rc::clone(st), mode);
    }
    (machine, Rc::new(states))
}

#[test]
fn all_to_all_rpc_traffic_is_exact() {
    for mode in [RpcMode::Orpc, RpcMode::Trpc] {
        let (machine, states) = build_ping(6, mode);
        let st = Rc::clone(&states);
        machine.run(move |env| {
            let _ = Rc::clone(&st);
            async move {
                for off in 1..env.nprocs() {
                    let dst = NodeId((env.id().index() + off) % env.nprocs());
                    let r = Ping::ping::call(env.rpc(), env.node(), dst, off as u64)
                        .await
                        .expect("reply decode");
                    assert_eq!(r, off as u64 + 1);
                }
                env.barrier().await;
            }
        });
        let total: u64 = states.iter().map(|s| s.hits.get()).sum();
        assert_eq!(total, 6 * 5, "{mode:?}");
    }
}

#[test]
fn orpc_machine_wide_statistics_are_consistent() {
    let (machine, _) = build_ping(4, RpcMode::Orpc);
    let report = machine.run(|env| async move {
        for i in 0..8u64 {
            let dst = NodeId((env.id().index() + 1) % env.nprocs());
            Ping::ping::call(env.rpc(), env.node(), dst, i).await.expect("reply decode");
        }
        env.barrier().await;
    });
    let t = report.stats.total();
    assert_eq!(t.rpcs_sync, 32);
    assert_eq!(t.oam_attempts, 32);
    assert_eq!(t.oam_successes, 32);
    // Sent = received: requests + replies, all drained at quiescence.
    assert_eq!(t.messages_sent, t.messages_received);
    assert_eq!(machine.network().in_flight(), 0);
}

#[test]
fn every_application_cross_checks_across_all_systems() {
    // Triangle.
    let (sol, pos, _) = triangle::sequential(4);
    let tri_expect = (sol << 40) | pos;
    for s in System::ALL {
        assert_eq!(triangle::run(s, 3, 4).answer, tri_expect, "triangle {}", s.label());
    }
    // TSP.
    let params = TspParams { ncities: 8, prefix_len: 3, ..Default::default() };
    let (best, _, _) = tsp::sequential(params);
    for s in System::ALL {
        assert_eq!(tsp::run(s, 2, params).answer, best as u64, "tsp {}", s.label());
    }
    // SOR.
    let sp = SorParams { rows: 16, cols: 8, iters: 4 };
    let (ck, _) = sor::sequential(sp);
    for s in System::ALL {
        assert_eq!(sor::run(s, 4, sp).answer, ck, "sor {}", s.label());
    }
    // Water: all five variants agree at fixed P.
    let wp = WaterParams { molecules: 16, iters: 2 };
    let answers: Vec<u64> =
        WaterVariant::ALL.iter().map(|v| water::run(*v, 4, wp).outcome.answer).collect();
    assert!(answers.windows(2).all(|w| w[0] == w[1]), "water variants: {answers:?}");
}

#[test]
fn whole_machine_runs_are_bit_deterministic() {
    let run_once = || {
        let (machine, _) = build_ping(5, RpcMode::Orpc);
        let red = Reducer::new(machine.collectives(), |a: &u64, b: &u64| a + b);
        let out = Rc::new(Cell::new(0u64));
        let o = Rc::clone(&out);
        let report = machine.run(move |env| {
            let red = red.clone();
            let o = Rc::clone(&o);
            async move {
                let mut acc = 0;
                for i in 0..5u64 {
                    let dst = NodeId((env.id().index() + 1 + i as usize) % env.nprocs());
                    acc += Ping::ping::call(env.rpc(), env.node(), dst, i)
                        .await
                        .expect("reply decode");
                }
                let total = red.reduce(env.node(), acc).await;
                if env.id().index() == 0 {
                    o.set(total);
                }
            }
        });
        (report.end_time, report.events, out.get())
    };
    assert_eq!(run_once(), run_once());
}

#[test]
fn abort_strategies_agree_on_application_results() {
    let params = TspParams { ncities: 9, prefix_len: 3, ..Default::default() };
    let (best, _, _) = tsp::sequential(params);
    for strategy in [AbortStrategy::Promote, AbortStrategy::Rerun, AbortStrategy::Nack] {
        let cfg = MachineConfig::cm5(5).with_abort_strategy(strategy);
        let out = tsp::run_configured(System::Orpc, cfg, params);
        assert_eq!(out.answer, best as u64, "{strategy:?}");
    }
}

#[test]
fn queue_policies_agree_on_application_results() {
    let (sol, pos, _) = triangle::sequential(5);
    let expect = (sol << 40) | pos;
    for policy in [QueuePolicy::Front, QueuePolicy::Back] {
        let cfg = MachineConfig::cm5(4).with_queue_policy(policy);
        let out = triangle::run_configured(System::Trpc, cfg, 5, 1);
        assert_eq!(out.answer, expect, "{policy:?}");
    }
}

#[test]
fn alewife_like_machine_still_computes_correctly() {
    let (sol, pos, _) = triangle::sequential(5);
    let expect = (sol << 40) | pos;
    let cfg = MachineConfig::alewife_like(4);
    let out = triangle::run_configured(System::Orpc, cfg, 5, 1);
    assert_eq!(out.answer, expect);
    // Shallow buffering must actually generate backpressure.
    assert!(out.stats.total().send_backpressure_events > 0);
}

#[test]
fn paper_headline_holds_end_to_end() {
    // "For applications that send many short messages, the ORPC and AM
    // implementations are up to three times faster than the TRPC
    // implementations" — at a reduced scale the gap is already >1.5x.
    let am = triangle::run(System::HandAm, 8, 5).elapsed;
    let orpc = triangle::run(System::Orpc, 8, 5).elapsed;
    let trpc = triangle::run(System::Trpc, 8, 5).elapsed;
    let ratio_orpc = trpc.as_secs_f64() / orpc.as_secs_f64();
    let ratio_am = orpc.as_secs_f64() / am.as_secs_f64();
    assert!(ratio_orpc > 1.5, "TRPC/ORPC = {ratio_orpc}");
    assert!(ratio_am < 1.25, "ORPC within 25% of hand-coded AM, got {ratio_am}");
}

#[test]
fn dropping_a_machine_frees_it() {
    let (machine, _) = build_ping(4, RpcMode::Orpc);
    let stats = Rc::clone(machine.nodes()[0].stats());
    machine.run(|env| async move {
        let dst = NodeId((env.id().index() + 1) % env.nprocs());
        Ping::ping::call(env.rpc(), env.node(), dst, 1).await.expect("reply decode");
        env.barrier().await;
    });
    drop(machine);
    assert_eq!(Rc::strong_count(&stats), 1, "the dropped machine still holds node 0's stats");
}

#[test]
fn a_partitioned_run_frees_its_shards() {
    use optimistic_active_messages::machine::run_partitioned;
    use optimistic_active_messages::model::{NodeStats, ShardTuning};
    use std::cell::RefCell;

    thread_local! {
        static STATS: RefCell<Option<Rc<RefCell<NodeStats>>>> = const { RefCell::new(None) };
    }
    // One worker steps both shards on this thread, so the finisher's stash
    // is still readable here once the run returns.
    let cfg = MachineConfig::cm5(4)
        .with_shards(2)
        .with_tuning(ShardTuning { workers: Some(1), ..Default::default() });
    let (report, ()) = run_partitioned(cfg, |m| {
        cross_shard_ping(m, |m| {
            STATS.with(|s| *s.borrow_mut() = Some(Rc::clone(m.nodes()[0].stats())));
        })
    });
    assert!(report.engine().epochs > 0, "the epoch engine ran");
    let stats = STATS.with(|s| s.borrow_mut().take()).expect("shard 0 ran its finisher");
    assert_eq!(Rc::strong_count(&stats), 1, "a finished shard still holds node 0's stats");
}

/// A minimal two-shard app on four nodes: every node pings its mirror on
/// the other shard, so the run exchanges records across the epoch barrier.
/// `finish` extracts the answer from shard 0.
fn cross_shard_ping<R>(
    m: &Machine,
    finish: impl FnOnce(&Machine) -> R + 'static,
) -> optimistic_active_messages::machine::ShardApp<R> {
    let state = Rc::new(PingState { hits: Cell::new(0) });
    for node in m.nodes() {
        Ping::register_all(m.rpc(), node.id(), Rc::clone(&state), RpcMode::Orpc);
    }
    optimistic_active_messages::machine::ShardApp {
        main: Box::new(|env| {
            Box::pin(async move {
                let dst = NodeId((env.id().index() + 2) % env.nprocs());
                Ping::ping::call(env.rpc(), env.node(), dst, 1).await.expect("reply decode");
                env.barrier().await;
            })
        }),
        finish: Box::new(finish),
    }
}

#[test]
fn epoch_worker_zero_runs_on_the_calling_thread() {
    use optimistic_active_messages::machine::run_partitioned;
    use optimistic_active_messages::model::ShardTuning;

    let cfg = MachineConfig::cm5(4)
        .with_shards(2)
        .with_tuning(ShardTuning { workers: Some(2), ..Default::default() });
    // Only shard 0's finisher runs, so the answer is the thread that ran
    // shard 0's setup.
    let (report, setup_thread) = run_partitioned(cfg, |m| {
        let me = std::thread::current().id();
        cross_shard_ping(m, move |_| me)
    });
    assert!(report.engine().epochs > 0, "the epoch engine ran");
    assert_eq!(setup_thread, std::thread::current().id(), "worker 0 runs on the caller's thread");
}

#[test]
fn starting_runs_probes_the_host_at_most_once() {
    use optimistic_active_messages::machine::run_partitioned;
    use optimistic_active_messages::model::host;
    use optimistic_active_messages::sim::Coordinator;

    for shards in [1, 2, 4] {
        let cfg = MachineConfig::cm5(4).with_shards(shards);
        let (report, ()) = run_partitioned(cfg, |m| cross_shard_ping(m, |_| ()));
        assert!(report.completed);
    }
    let _ = Coordinator::<()>::new(2, Dur::from_nanos(10));
    assert!(host::host_cores() >= 1);
    assert_eq!(host::host_probes(), 1, "the host core count is probed once per process");
}
