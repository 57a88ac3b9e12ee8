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

/// `MachineConfig::cm5(nodes)` under the CI leg's `OAM_*` overrides;
/// whatever a test sets afterwards wins.
fn cm5(nodes: usize) -> MachineConfig {
    MachineConfig::cm5(nodes).apply_env().expect("OAM_* overrides")
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
        assert_eq!(
            triangle::run_configured(s, cm5(3), 4, 1).answer,
            tri_expect,
            "triangle {}",
            s.label()
        );
    }
    // TSP.
    let params = TspParams { ncities: 8, prefix_len: 3, ..Default::default() };
    let (best, _, _) = tsp::sequential(params);
    for s in System::ALL {
        assert_eq!(tsp::run_configured(s, cm5(3), params).answer, best as u64, "tsp {}", s.label());
    }
    // SOR.
    let sp = SorParams { rows: 16, cols: 8, iters: 4 };
    let (ck, _) = sor::sequential(sp);
    for s in System::ALL {
        assert_eq!(sor::run_configured(s, cm5(4), sp).answer, ck, "sor {}", s.label());
    }
    // Water: all five variants agree at fixed P.
    let wp = WaterParams { molecules: 16, iters: 2 };
    let answers: Vec<u64> = WaterVariant::ALL
        .iter()
        .map(|v| water::run_configured(*v, cm5(4), wp).outcome.answer)
        .collect();
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
        let cfg = cm5(5).with_abort_strategy(strategy);
        let out = tsp::run_configured(System::Orpc, cfg, params);
        assert_eq!(out.answer, best as u64, "{strategy:?}");
    }
}

#[test]
fn queue_policies_agree_on_application_results() {
    let (sol, pos, _) = triangle::sequential(5);
    let expect = (sol << 40) | pos;
    for policy in [QueuePolicy::Front, QueuePolicy::Back] {
        let cfg = cm5(4).with_queue_policy(policy);
        let out = triangle::run_configured(System::Trpc, cfg, 5, 1);
        assert_eq!(out.answer, expect, "{policy:?}");
    }
}

#[test]
fn alewife_like_machine_still_computes_correctly() {
    let (sol, pos, _) = triangle::sequential(5);
    let expect = (sol << 40) | pos;
    let cfg = MachineConfig::alewife_like(4).apply_env().expect("OAM_* overrides");
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
    let run = |s| triangle::run_configured(s, cm5(8), 5, 1).elapsed;
    let (am, orpc, trpc) = (run(System::HandAm), run(System::Orpc), run(System::Trpc));
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
fn dropping_a_deadlocked_machine_frees_it() {
    let (machine, _) = build_ping(4, RpcMode::Orpc);
    let stats = Rc::clone(machine.nodes()[0].stats());
    let report = machine.try_run(|env| async move {
        let dst = NodeId((env.id().index() + 1) % env.nprocs());
        Ping::ping::call(env.rpc(), env.node(), dst, 1).await.expect("reply decode");
        // Nobody sets this flag: every main is left spinning.
        env.node().spin_on(Flag::new()).await;
    });
    assert!(!report.completed, "the run deadlocks");
    drop(machine);
    assert_eq!(Rc::strong_count(&stats), 1, "a deadlocked machine still holds node 0's stats");
}

#[test]
fn dropping_a_machine_whose_watchdog_budget_ran_out_frees_it() {
    let (machine, _) = build_ping(4, RpcMode::Orpc);
    let stats = Rc::clone(machine.nodes()[0].stats());
    let hang = machine
        .run_with_watchdog(Time::from_nanos(2_000_000), |env| async move {
            let dst = NodeId((env.id().index() + 1) % env.nprocs());
            loop {
                Ping::ping::call(env.rpc(), env.node(), dst, 1).await.expect("reply decode");
                env.charge_micros(3).await;
            }
        })
        .expect_err("an endless ping loop outlives any budget");
    assert_eq!(hang.kind, optimistic_active_messages::machine::HangKind::BudgetExceeded);
    assert!(machine.sim().event_queue_depth() > 0, "the run stopped with events pending");
    drop(machine);
    assert_eq!(Rc::strong_count(&stats), 1, "a budget-stopped machine still holds node 0's stats");
}

#[test]
fn a_partitioned_run_frees_its_shards() {
    use optimistic_active_messages::machine::run_partitioned;
    use optimistic_active_messages::model::NodeStats;
    use std::cell::RefCell;

    thread_local! {
        static STATS: RefCell<Option<Rc<RefCell<NodeStats>>>> = const { RefCell::new(None) };
    }
    // One worker steps both shards on this thread, so the finisher's stash
    // is still readable here once the run returns.
    let mut cfg = cm5(4).with_shards(2);
    cfg.tuning.workers = Some(1);
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
    let mut cfg = cm5(4).with_shards(2);
    cfg.tuning.workers = Some(2);
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
        let cfg = cm5(4).with_shards(shards);
        let (report, ()) = run_partitioned(cfg, |m| cross_shard_ping(m, |_| ()));
        assert!(report.completed);
    }
    let _ = Coordinator::<()>::new(2, Dur::from_nanos(10));
    assert!(host::host_cores() >= 1);
    assert_eq!(host::host_probes(), 1, "the host core count is probed once per process");
}

/// A partitioned run's shards each build exactly the nodes they own: the
/// machine a shard's setup sees holds its owned range, in order, under
/// global ids, and nothing else.
#[test]
fn a_shard_builds_only_the_nodes_it_owns() {
    use optimistic_active_messages::machine::run_partitioned;
    use optimistic_active_messages::sim::shard_range;
    use std::sync::Mutex;

    let p = SorParams { rows: 256, cols: 8, iters: 2 };
    let reference = sor::reference_checksum(p.rows, p.cols, p.iters);
    let one = sor::run_configured(System::Orpc, cm5(256).with_shards(1), p);
    for shards in [2, 4] {
        // Two epoch workers: the shards are built on two OS threads.
        let mut cfg = cm5(256).with_shards(shards);
        cfg.tuning.workers = Some(2);
        let seen = Mutex::new(Vec::new());
        let (report, answer) = run_partitioned(cfg, |m| {
            let ids: Vec<usize> = m.nodes().iter().map(|n| n.id().index()).collect();
            seen.lock().unwrap().push((m.owned(), ids));
            sor::app(System::Orpc, p, m)
        });
        assert_eq!(answer, reference, "shards={shards}");
        assert_eq!(report.stats.per_node, one.stats.per_node, "shards={shards}: stats by owner");
        assert_eq!(report.stats.method_names, one.stats.method_names, "shards={shards}");
        assert_eq!(report.end_time.since(Time::ZERO), one.elapsed, "shards={shards}: end time");
        let mut seen = seen.into_inner().unwrap();
        seen.sort_by_key(|(owned, _)| owned.start);
        assert_eq!(seen.len(), shards, "one machine per shard");
        for (shard, (owned, ids)) in seen.into_iter().enumerate() {
            assert_eq!(owned, shard_range(256, shards, shard), "shards={shards}");
            assert_eq!(ids, owned.collect::<Vec<_>>(), "shards={shards} shard={shard}");
        }
    }
}

/// On a shard, reaching a node another shard owns — its runtime, its
/// environment, its handler table, its buffer pool, its call table —
/// panics naming that node.
#[test]
fn reaching_a_node_another_shard_owns_panics_naming_it() {
    use optimistic_active_messages::machine::run_partitioned;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Mutex;

    // One worker: both shards' setups run on this thread.
    let mut cfg = cm5(256).with_shards(2);
    cfg.tuning.workers = Some(1);
    let p = SorParams { rows: 256, cols: 8, iters: 1 };
    let messages = Mutex::new(Vec::new());
    let (_, answer) = run_partitioned(cfg, |m| {
        let foreign = if m.owned().contains(&0) { 200 } else { 3 };
        let inline = || HandlerEntry::Inline(Rc::new(|_: &AmToken| {}));
        let probes: [&dyn Fn(); 5] = [
            &|| {
                let _ = m.node(NodeId(foreign));
            },
            &|| {
                let _ = m.env(foreign);
            },
            &|| m.am().register(NodeId(foreign), HandlerId(0xF0E1), inline()),
            &|| {
                let _ = m.network().pool(NodeId(foreign));
            },
            &|| {
                let _ = m.rpc().outstanding_calls(NodeId(foreign));
            },
        ];
        for probe in probes {
            let err = catch_unwind(AssertUnwindSafe(probe)).expect_err("a foreign node panics");
            let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
            messages.lock().unwrap().push((foreign, msg));
        }
        sor::app(System::Orpc, p, m)
    });
    assert_eq!(answer, sor::reference_checksum(p.rows, p.cols, p.iters), "the run still completes");
    let messages = messages.into_inner().unwrap();
    assert_eq!(messages.len(), 10, "five probes on each of two shards");
    for (foreign, msg) in messages {
        assert!(msg.contains(&format!("n{foreign} is not owned")), "names n{foreign}: {msg:?}");
    }
}

/// An explicit shard count above the node count is a configuration error
/// naming both numbers (a shard with no node cannot be built).
#[test]
#[should_panic(expected = "4 shards for 2 nodes")]
fn more_shards_than_nodes_is_rejected() {
    use optimistic_active_messages::machine::run_partitioned;
    run_partitioned(cm5(2).with_shards(4), |m| cross_shard_ping(m, |_| ()));
}
