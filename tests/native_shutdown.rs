//! Native-backend shutdown: every node OS thread must join promptly on
//! clean completion *and* when a handler or main hangs forever — the
//! real-time watchdog stops the run, the shutdown broadcast wakes threads
//! parked on their channels, and the per-node thread state comes back in
//! a [`HangReport`](optimistic_active_messages::machine::HangReport).

use std::time::{Duration, Instant};

use optimistic_active_messages::apps::sor::{self, SorParams};
use optimistic_active_messages::apps::System;
use optimistic_active_messages::machine::{try_run_native, HangKind, ShardApp};
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
/// and report per-node state identifying the stuck node.
#[test]
fn hung_main_is_diagnosed_and_joined_within_budget() {
    let cfg = cm5(2).with_backend(Backend::Native);
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

    assert_eq!(hang.nodes.len(), 2, "one snapshot per node");
    assert!(hang.nodes[0].main_done, "node 0's main completed");
    assert!(!hang.nodes[1].main_done, "node 1 is the stuck node");
    assert_eq!(hang.stuck_nodes().count(), 1);
    assert!(
        hang.nodes[1].diag.live_threads > 0,
        "the hung thread is still alive in node 1's scheduler: {:?}",
        hang.nodes[1].diag
    );
    let shown = hang.to_string();
    assert!(shown.contains("budget-exceeded"), "display names the kind: {shown}");
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
