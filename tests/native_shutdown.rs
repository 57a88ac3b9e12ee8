//! Native-backend shutdown: every worker OS thread must join promptly on
//! clean completion *and* when a handler or main hangs forever — the
//! real-time watchdog stops the run, the shutdown broadcast wakes workers
//! parked on their rings, and the per-node thread state comes back in a
//! [`HangReport`](optimistic_active_messages::machine::HangReport). A
//! main that panics ends the run at once on either backend, and the panic
//! reaches the caller, on whose thread node 0 runs.

use std::panic::{self, AssertUnwindSafe};
use std::sync::{mpsc, Arc, Mutex as StdMutex};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

use optimistic_active_messages::apps::sor::{self, SorParams};
use optimistic_active_messages::apps::System;
use optimistic_active_messages::machine::{run_partitioned, try_run_native, HangKind, ShardApp};
use optimistic_active_messages::prelude::*;

/// `MachineConfig::cm5(nodes)` under the CI leg's `OAM_*` overrides;
/// the tests pin the native backend afterwards.
fn cm5(nodes: usize) -> MachineConfig {
    MachineConfig::cm5(nodes).apply_env().expect("OAM_* overrides")
}

/// Clean completion: the run returns (all threads joined — `try_run_native`
/// scopes them) well inside the watchdog budget, with nothing pending.
#[test]
fn clean_completion_joins_promptly() {
    let p = SorParams { rows: 16, cols: 8, iters: 3 };
    let (ck, _) = sor::sequential(p);
    let start = Instant::now();
    let out = sor::run_configured(System::Orpc, cm5(4).with_backend(Backend::Native), p);
    // The modeled compute here is a few ms of real pacing; anything near
    // the 30 s default budget means shutdown leaked or stalled.
    assert!(start.elapsed() < Duration::from_secs(10), "clean shutdown took {:?}", start.elapsed());
    assert_eq!(out.answer, ck);
}

/// A deliberately hung main: node 1 spins on a flag nobody ever sets. The
/// watchdog must stop the run at its real-time budget, join every thread,
/// and report per-node state identifying the stuck node. At one node more
/// than the host has cores, worker 0 owns nodes 0 and 1: the hung node
/// shares its worker with a node that finished.
#[test]
fn hung_main_is_diagnosed_and_joined_within_budget() {
    for nodes in [2, optimistic_active_messages::model::host_cores() + 1] {
        let cfg = cm5(nodes).with_backend(Backend::Native);
        let budget = Time::from_nanos(250_000_000); // 250 ms real
        let start = Instant::now();
        let result = try_run_native(cfg, budget, |_machine| ShardApp {
            main: Box::new(|env: NodeEnv| {
                Box::pin(async move {
                    if env.id().index() == 1 {
                        let never = Flag::new();
                        env.node().spin_on(never).await;
                    }
                })
            }),
            finish: Box::new(|_| 0u64),
        });
        let elapsed = start.elapsed();
        let hang = result.expect_err("a hung main must produce a HangReport");

        assert_eq!(hang.kind, HangKind::BudgetExceeded);
        assert!(elapsed >= Duration::from_millis(250), "stopped before the budget: {elapsed:?}");
        // Prompt: budget + shutdown/join slack, nowhere near a second park-
        // timeout-per-node pile-up.
        assert!(elapsed < Duration::from_secs(5), "threads took {elapsed:?} to join");

        assert_eq!(hang.nodes.len(), nodes, "one snapshot per node");
        for (i, n) in hang.nodes.iter().enumerate() {
            assert_eq!(n.diag.node, NodeId(i), "snapshots in node order");
            assert_eq!(n.main_done, i != 1, "only node 1 is stuck at {nodes} nodes: {hang}");
        }
        assert_eq!(hang.stuck_nodes().count(), 1);
        assert!(
            hang.nodes[1].diag.live_threads > 0,
            "the hung thread is still alive in node 1's scheduler: {:?}",
            hang.nodes[1].diag
        );
        let shown = hang.to_string();
        assert!(shown.contains("budget-exceeded"), "display names the kind: {shown}");
        assert!(shown.contains("node 1: main STUCK"), "display names node 1: {shown}");
    }
}

/// A successful run through the explicit-budget API: barriers and a
/// cross-node reduction complete over real channels, the answer is exact,
/// and the generous budget never fires.
#[test]
fn explicit_budget_does_not_disturb_a_completing_run() {
    use std::cell::Cell;
    use std::rc::Rc;

    let nodes = 4usize;
    let cfg = cm5(nodes).with_backend(Backend::Native);
    let (report, answer) = try_run_native(cfg, Time::from_nanos(20_000_000_000), |machine| {
        let sum = Reducer::new(machine.collectives(), |a: &u64, b: &u64| a + b);
        let out = Rc::new(Cell::new(0u64));
        let out2 = Rc::clone(&out);
        ShardApp {
            main: Box::new(move |env: NodeEnv| {
                let sum = sum.clone();
                let out = Rc::clone(&out2);
                Box::pin(async move {
                    let me = env.id().index() as u64;
                    env.barrier().await;
                    let total = sum.reduce(env.node(), me + 1).await;
                    if me == 0 {
                        out.set(total);
                    }
                    env.barrier().await;
                })
            }),
            finish: Box::new(move |_| out.get()),
        }
    })
    .expect("run completes well inside the budget");
    assert!(report.completed);
    let n = nodes as u64;
    assert_eq!(answer, n * (n + 1) / 2, "reduction over real channels is exact");
}

/// What the relay handler counts on each node.
pub struct Relayed {
    hits: std::cell::Cell<u64>,
}

define_rpc_service! {
    /// A one-way relay that is still bouncing when every main has returned.
    service Relay {
        state Relayed;

        /// Count the hop, and pass the relay back while hops are left.
        oneway hop(ctx, st, left: u32) {
            st.hits.set(st.hits.get() + 1);
            if left > 0 {
                Relay::hop::send(&ctx.rpc, ctx.node(), ctx.caller(), left - 1).await;
            }
        }
    }
}

/// Hops of the relay: node 1 starts it, so node 0 takes half of them.
const HOPS: u32 = 100;

/// A run ends at quiescence on either backend, not when the last main
/// returns: node 1 starts a relay of one-way calls between nodes 0 and 1
/// and returns at once, node 0 returns at once, and every hop still lands
/// before the run ends.
#[test]
fn a_relay_in_flight_when_the_mains_return_still_lands() {
    use std::rc::Rc;

    for backend in [Backend::Sim, Backend::Native] {
        let (report, hits) = run_partitioned(cm5(2).with_backend(backend), |machine| {
            let states = NodeTable::new(machine.owned(), |_| {
                Rc::new(Relayed { hits: std::cell::Cell::new(0) })
            });
            for (i, st) in machine.owned().zip(&states) {
                Relay::register_all(machine.rpc(), NodeId(i), Rc::clone(st), RpcMode::Orpc);
            }
            let node0 = (machine.owned().start == 0).then(|| Rc::clone(&states[0]));
            ShardApp {
                main: Box::new(|env: NodeEnv| {
                    Box::pin(async move {
                        if env.id().index() == 1 {
                            Relay::hop::send(env.rpc(), env.node(), NodeId(0), HOPS - 1).await;
                        }
                    })
                }),
                finish: Box::new(move |_| node0.expect("node 0's replica").hits.get()),
            }
        });
        assert!(report.completed, "{backend:?}");
        assert_eq!(hits, u64::from(HOPS / 2), "{backend:?}: every hop to node 0 landed");
    }
}

/// An app whose node `bad` panics at once while every other node waits at
/// a barrier that `bad` never reaches.
fn panics_on(bad: usize) -> impl Fn(&Machine) -> ShardApp<()> + Send + Sync {
    move |_machine| ShardApp {
        main: Box::new(move |env: NodeEnv| {
            Box::pin(async move {
                assert_ne!(env.id().index(), bad, "node {bad} fails on purpose");
                env.barrier().await;
            })
        }),
        finish: Box::new(|_| ()),
    }
}

/// The message a caught panic carries.
fn message(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(payload) => payload.downcast_ref::<&str>().map_or_else(String::new, |s| s.to_string()),
    }
}

/// Run `f` on a thread of its own and return what it panicked with,
/// failing if it returns or takes a minute: a run that hangs on a
/// panicked worker fails the test instead of hanging the suite.
fn panic_of(f: impl FnOnce() + Send + 'static) -> (String, Duration) {
    let (tx, rx) = mpsc::channel();
    let runner = std::thread::spawn(move || {
        let start = Instant::now();
        let caught = panic::catch_unwind(AssertUnwindSafe(f));
        let _ = tx.send((caught.err().map(message), start.elapsed()));
    });
    // A hung run's thread is left detached: the test fails instead.
    let outcome = rx.recv_timeout(Duration::from_secs(60));
    if outcome.is_ok() {
        runner.join().expect("the runner catches the run's panic");
    }
    match outcome {
        Ok((Some(msg), elapsed)) => (msg, elapsed),
        Ok((None, _)) => panic!("the run returned although a main panicked"),
        Err(_) => panic!("the run did not end within 60 s of a main's panic"),
    }
}

/// A panicking node main ends a native run at once, whichever worker owns
/// the node: the unwinding worker stops the run, so its peers parked on
/// the barrier exit, and the main's own panic reaches the caller long
/// before the 30 s budget.
#[test]
fn a_panicking_native_main_ends_the_run_promptly() {
    for bad in [0, 1] {
        let (msg, elapsed) = panic_of(move || {
            let cfg = cm5(2).with_backend(Backend::Native);
            let _ = try_run_native(cfg, Time::from_nanos(30_000_000_000), panics_on(bad));
        });
        assert!(msg.contains(&format!("node {bad} fails on purpose")), "node {bad}: {msg}");
        assert!(elapsed < Duration::from_secs(5), "node {bad}: the panic took {elapsed:?}");
    }
}

/// A panicking node main ends an epoch run too: the unwinding worker
/// poisons the barrier, so the worker parked on it unwinds instead of
/// waiting forever, and the caller sees the main's panic, not its peer's.
#[test]
fn a_panicking_epoch_main_ends_the_run() {
    for bad in [0, 1] {
        let (msg, elapsed) = panic_of(move || {
            let mut cfg = cm5(2).with_backend(Backend::Sim).with_shards(2);
            cfg.tuning.workers = Some(2);
            run_partitioned(cfg, panics_on(bad));
        });
        assert!(msg.contains(&format!("node {bad} fails on purpose")), "node {bad}: {msg}");
        assert!(elapsed < Duration::from_secs(5), "node {bad}: the panic took {elapsed:?}");
    }
}

/// Every `(node, thread)` whose main ran, and the threads that ran setup.
type Seen = Arc<StdMutex<(Vec<(usize, ThreadId)>, Vec<ThreadId>)>>;

/// An app that records where its setups and mains run.
fn records(seen: &Seen) -> impl Fn(&Machine) -> ShardApp<()> + Send + Sync {
    let seen = Arc::clone(seen);
    move |_machine| {
        seen.lock().unwrap().1.push(std::thread::current().id());
        let seen = Arc::clone(&seen);
        ShardApp {
            main: Box::new(move |env: NodeEnv| {
                let seen = Arc::clone(&seen);
                Box::pin(async move {
                    let here = std::thread::current().id();
                    seen.lock().unwrap().0.push((env.id().index(), here));
                    env.barrier().await;
                })
            }),
            finish: Box::new(|_| ()),
        }
    }
}

/// On both backends node 0's main runs on the calling thread. A one-node
/// native run and a one-worker epoch run run everything there: they start
/// no OS thread.
#[test]
fn node_zero_runs_on_the_calling_thread_on_both_backends() {
    let caller = std::thread::current().id();
    // Two epoch workers are `end_to_end`'s `epoch_worker_zero_*` case.
    let mut one_worker = cm5(4).with_backend(Backend::Sim).with_shards(2);
    one_worker.tuning.workers = Some(1);
    let runs = [
        (cm5(1).with_backend(Backend::Native), true),
        (cm5(2).with_backend(Backend::Native), false),
        (one_worker, true),
    ];
    for (cfg, alone) in runs {
        let what = format!("{:?} at {} nodes", cfg.backend, cfg.nodes);
        let seen: Seen = Arc::default();
        let (report, ()) = run_partitioned(cfg, records(&seen));
        assert!(report.completed, "{what}");
        let (mains, setups) = seen.lock().unwrap().clone();
        let node0 = mains.iter().find(|(node, _)| *node == 0).expect("node 0 ran its main");
        assert_eq!(node0.1, caller, "{what}: node 0's main runs on the caller");
        if alone {
            let all = mains.iter().map(|(_, t)| t).chain(&setups);
            assert!(all.into_iter().all(|t| *t == caller), "{what}: a thread was started");
        }
    }
}
