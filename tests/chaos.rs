//! Fault-injection ("chaos") tests: applications must compute the same
//! answers over a lossy, duplicating, delaying fabric — with retransmission
//! and duplicate suppression turned on — as over a perfect one; runs must
//! stay bit-deterministic per seed; and with recovery disabled the machine
//! must *diagnose* the resulting hang instead of panicking or spinning.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use optimistic_active_messages::apps::service::ServiceParams;
use optimistic_active_messages::apps::tsp::TspParams;
use optimistic_active_messages::apps::{triangle, tsp, System};
use optimistic_active_messages::machine::{run_partitioned, HangKind, MachineBuilder, ShardApp};
use optimistic_active_messages::model::{Dur, FaultPlan, MachineConfig, NodeId, Time};
use optimistic_active_messages::prelude::*;

/// `MachineConfig::cm5(nodes)` under the CI leg's `OAM_*` overrides, on
/// the simulator: only its fabric injects faults. Whatever a test sets
/// afterwards wins.
fn cm5(nodes: usize) -> MachineConfig {
    MachineConfig::cm5(nodes).apply_env().expect("OAM_* overrides").with_backend(Backend::Sim)
}

/// The service's four nodes under the CI leg's `OAM_*` overrides, on the
/// simulator, with a fault plan and retransmission.
fn service_cfg(plan: FaultPlan) -> MachineConfig {
    cm5(4).with_seed(0x5e41_11ce).with_fault_plan(plan).with_retransmission()
}

fn chaos_plan(drop: f64) -> FaultPlan {
    FaultPlan::drop_only(drop).with_dup(drop).with_delay(drop, Dur::from_micros(20))
}

fn reliable_cfg(nodes: usize, drop: f64) -> MachineConfig {
    cm5(nodes).with_fault_plan(chaos_plan(drop)).with_retransmission()
}

pub struct EchoState;

define_rpc_service! {
    /// Minimal service for targeted reliability tests.
    service Echo {
        state EchoState;

        /// Echo with increment.
        rpc echo(ctx, st, x: u64) -> u64 {
            let _ = (ctx, st);
            x + 1
        }

        /// Four words back: a 36-byte reply, too wide for a short message.
        rpc wide(ctx, st, x: u64) -> (u64, u64, u64, u64) {
            let _ = (ctx, st);
            (x, x + 1, x + 2, x + 3)
        }
    }
}

#[test]
fn triangle_survives_1pct_and_5pct_chaos_with_the_fault_free_answer() {
    let (sol, pos, _) = triangle::sequential(5);
    let expect = (sol << 40) | pos;
    let baseline = triangle::run_configured(System::Orpc, cm5(4), 5, 1);
    assert_eq!(baseline.answer, expect);
    for drop in [0.01, 0.05] {
        let out = triangle::run_configured(System::Orpc, reliable_cfg(4, drop), 5, 1);
        assert_eq!(out.answer, expect, "answer must survive {drop} chaos");
        let t = out.stats.total();
        assert!(t.packets_dropped > 0, "plan actually dropped packets at {drop}");
        assert!(t.retransmits > 0, "losses were recovered by retransmission at {drop}");
        assert!(out.elapsed >= baseline.elapsed, "recovery costs time, never saves it");
    }
}

#[test]
fn tsp_survives_5pct_chaos_with_the_fault_free_answer() {
    let params = TspParams::default(); // 12 cities, the paper's instance
    let (best, _, _) = tsp::sequential(params);
    for system in [System::Orpc, System::Trpc] {
        let out = tsp::run_configured(system, reliable_cfg(5, 0.05), params);
        assert_eq!(out.answer, best as u64, "{}", system.label());
        let t = out.stats.total();
        assert!(t.packets_dropped > 0);
        assert!(t.retransmits > 0);
        assert!(
            t.dups_suppressed > 0,
            "retransmissions + fabric duplicates must hit the suppression table ({})",
            system.label()
        );
    }
}

#[test]
fn tsp_chaos_survives_a_mid_run_node_stall() {
    let params = TspParams { ncities: 10, prefix_len: 4, ..Default::default() };
    let (best, _, _) = tsp::sequential(params);
    // Slave 2 freezes for 30 ms mid-run: its polls find nothing, packets
    // pile up in its FIFOs, callers retransmit into the void. The answer
    // must still come out right once it thaws.
    let plan = chaos_plan(0.01).with_stall(
        NodeId(2),
        Time::from_nanos(2_000_000),
        Time::from_nanos(32_000_000),
    );
    let cfg = cm5(4).with_fault_plan(plan).with_retransmission();
    let out = tsp::run_configured(System::Orpc, cfg, params);
    assert_eq!(out.answer, best as u64);
    assert!(out.stats.total().retransmits > 0);
}

#[test]
fn chaos_runs_are_bit_deterministic_per_seed() {
    let run_tsp = |seed: u64| {
        let params = TspParams { ncities: 9, prefix_len: 3, ..Default::default() };
        let cfg = reliable_cfg(4, 0.05).with_seed(seed);
        let out = tsp::run_configured(System::Orpc, cfg, params);
        (out.answer, out.elapsed, out.stats)
    };
    let a = run_tsp(7);
    let b = run_tsp(7);
    assert_eq!(a.0, b.0);
    assert_eq!(a.1, b.1, "identical completion time");
    assert_eq!(a.2, b.2, "identical per-node statistics, counter for counter");
    let c = run_tsp(8);
    assert!(a.1 != c.1 || a.2 != c.2, "a different seed must shuffle the fault draws");

    let run_triangle = |drop: f64| {
        let out = triangle::run_configured(System::Orpc, reliable_cfg(4, drop), 5, 1);
        (out.answer, out.elapsed, out.stats)
    };
    let t1 = run_triangle(0.05);
    let t2 = run_triangle(0.05);
    assert_eq!(t1.0, t2.0);
    assert_eq!(t1.1, t2.1);
    assert_eq!(t1.2, t2.2);
}

#[test]
fn adding_a_fault_plan_changes_nothing_but_the_faults_when_probability_is_zero() {
    // A present-but-zero plan turns the dedup machinery on; the answer and
    // message counts must be unaffected.
    let params = TspParams { ncities: 8, prefix_len: 3, ..Default::default() };
    let base = tsp::run_configured(System::Orpc, cm5(3), params);
    let zero = tsp::run_configured(
        System::Orpc,
        cm5(3).with_fault_plan(FaultPlan::drop_only(0.0)),
        params,
    );
    assert_eq!(base.answer, zero.answer);
    assert_eq!(base.stats.total().messages_sent, zero.stats.total().messages_sent);
    assert_eq!(base.stats.total().dups_suppressed, 0);
    assert_eq!(zero.stats.total().packets_dropped, 0);
}

#[test]
fn without_retransmission_a_lossy_run_yields_a_hang_report_not_a_hang() {
    // Certain loss, no recovery: the caller's request evaporates and the
    // machine goes quiet with node 0 spinning on a reply that cannot come.
    let cfg = MachineConfig::cm5(2).with_fault_plan(FaultPlan::drop_only(1.0));
    let machine = MachineBuilder::from_config(cfg).build();
    for node in machine.nodes() {
        Echo::register_all(machine.rpc(), node.id(), Rc::new(EchoState), RpcMode::Orpc);
    }
    let report = machine
        .run_with_watchdog(Time::from_nanos(1_000_000_000), |env| async move {
            if env.id().index() == 0 {
                let _ = Echo::echo::call(env.rpc(), env.node(), NodeId(1), 1)
                    .await
                    .expect("reply decode");
            }
        })
        .expect_err("a run with certain loss and no retransmission cannot complete");
    assert_eq!(report.kind, HangKind::Deadlock, "quiet machine, not budget overrun");
    let stuck: Vec<usize> = report.stuck_nodes().map(|n| n.diag.node.index()).collect();
    assert_eq!(stuck, vec![0], "exactly the caller is stuck");
    assert_eq!(report.nodes[0].outstanding_calls, 1, "its lost call is visible");
    assert_eq!(report.nodes[0].diag.spinning, 1, "…as a spinning thread");
    assert!(report.nodes[1].main_done);
    let text = report.to_string();
    assert!(text.contains("deadlock") && text.contains("STUCK"), "{text}");
}

#[test]
fn a_live_but_unfinished_run_reports_budget_exceeded() {
    // Retransmission ON under certain loss: timers fire forever, so the
    // machine is live at any budget — the watchdog must say so rather than
    // claim deadlock.
    let cfg =
        MachineConfig::cm5(2).with_fault_plan(FaultPlan::drop_only(1.0)).with_retransmission();
    let machine = MachineBuilder::from_config(cfg).build();
    for node in machine.nodes() {
        Echo::register_all(machine.rpc(), node.id(), Rc::new(EchoState), RpcMode::Orpc);
    }
    let report = machine
        .run_with_watchdog(Time::from_nanos(50_000_000), |env| async move {
            if env.id().index() == 0 {
                let _ = Echo::echo::call(env.rpc(), env.node(), NodeId(1), 1)
                    .await
                    .expect("reply decode");
            }
        })
        .expect_err("certain loss cannot complete even with retransmission");
    assert_eq!(report.kind, HangKind::BudgetExceeded);
    assert!(report.total_outstanding_calls() >= 1);
}

#[test]
fn a_duplicate_of_a_call_with_a_wide_reply_is_answered_in_bulk() {
    // Every request arrives twice. The copy of a finished call is answered
    // from its frame, and a reply past the short-message size must take
    // the bulk engine then too, as the first reply did.
    let run_wide = |cfg: MachineConfig| {
        run_partitioned(cfg, |machine| {
            for i in machine.owned() {
                Echo::register_all(machine.rpc(), NodeId(i), Rc::new(EchoState), RpcMode::Orpc);
            }
            let replies = Rc::new(RefCell::new(Vec::new()));
            let r = Rc::clone(&replies);
            ShardApp {
                main: Box::new(move |env| {
                    let r = Rc::clone(&r);
                    Box::pin(async move {
                        if env.id().index() == 0 {
                            for x in 0..8 {
                                let reply = Echo::wide::call(env.rpc(), env.node(), NodeId(1), x)
                                    .await
                                    .expect("reply decode");
                                r.borrow_mut().push(reply);
                            }
                        }
                        env.barrier().await;
                    })
                }),
                finish: Box::new(move |_| replies.take()),
            }
        })
    };
    let (_, clean) = run_wide(cm5(2));
    assert_eq!((clean.len(), clean[7]), (8, (7, 8, 9, 10)));
    let dup_plan = FaultPlan::drop_only(0.0).with_dup(1.0);
    let (report, dup) = run_wide(cm5(2).with_fault_plan(dup_plan).with_retransmission());
    assert_eq!(dup, clean, "duplicates change nothing the caller sees");
    assert!(report.stats.total().dups_suppressed > 0, "the copies met the call's frame");
}

pub struct BumpState {
    pub hits: Rc<Cell<u64>>,
}

define_rpc_service! {
    /// One-way delivery test service.
    service Bump {
        state BumpState;

        /// Count an arrival.
        oneway bump(ctx, st) {
            let _ = ctx;
            st.hits.set(st.hits.get() + 1);
        }
    }
}

#[test]
fn overloaded_service_survives_chaos_and_a_server_stall() {
    use optimistic_active_messages::apps::service::run;
    // 5% drop/dup/delay on every link, plus the (only) server frozen for
    // 6 ms mid-run: longer than the 5 ms request deadline, so the stall
    // window forces caller-side expiries, and the thaw-time backlog forces
    // admission shedding. Every arrival must still resolve exactly once,
    // and the whole story must replay bit-for-bit from the seed.
    let cfg = || {
        service_cfg(chaos_plan(0.05).with_stall(
            NodeId(0),
            Time::from_nanos(2_000_000),
            Time::from_nanos(8_000_000),
        ))
    };
    let params = || ServiceParams { load_x100: 200, arrivals: 96, ..Default::default() };
    let a = run(cfg(), params());
    let t = a.app.stats.total();
    assert!(t.packets_dropped > 0, "the plan did bite");
    assert!(t.retransmits > 0, "losses were recovered by retransmission");
    assert!(a.shed > 0, "the post-thaw backlog must trip admission control");
    assert!(a.completed > 0, "the service still does useful work under chaos");
    let arrivals = (params().drivers as u64) * u64::from(params().arrivals);
    assert_eq!(
        a.completed + a.abandoned,
        arrivals,
        "every arrival resolves exactly once: a reply or a final give-up"
    );
    // Deterministic shedding: the same seed replays the same overload
    // story, shed for shed, counter for counter.
    let b = run(cfg(), params());
    assert_eq!(a.app.answer, b.app.answer);
    assert_eq!(a.app.elapsed, b.app.elapsed);
    assert_eq!(
        (a.completed, a.shed, a.expired, a.abandoned),
        (b.completed, b.shed, b.expired, b.abandoned)
    );
    assert_eq!(a.app.stats, b.app.stats, "identical per-node statistics, counter for counter");
}

#[test]
fn streaming_scans_survive_5pct_chaos_and_retire_every_session() {
    use optimistic_active_messages::apps::service::run;
    // Heavy arrivals fetch their scans as chunked sessions over a 5%
    // drop/dup/delay fabric. Chunks ride the reliable oneway path and the
    // Open/Close pair rides the reliable request path, so the protocol
    // must come out whole: every opened session ends in exactly one Close
    // or exactly one Cancel, and the chunk totals match what the Close
    // frames promised.
    let params =
        || ServiceParams { load_x100: 150, arrivals: 64, streaming: true, ..Default::default() };
    let a = run(service_cfg(chaos_plan(0.05)), params());
    let t = a.app.stats.total();
    assert!(t.packets_dropped > 0, "the plan did bite");
    assert!(t.retransmits > 0, "losses were recovered by retransmission");
    assert!(a.sessions_opened > 0, "heavy arrivals opened streaming sessions");
    assert_eq!(
        a.sessions_opened,
        a.sessions_closed + a.sessions_cancelled,
        "every session ends in exactly one Close or one Cancel"
    );
    assert!(t.chunks_received > 0, "sessions streamed chunks through the chaos");
    let arrivals = (params().drivers as u64) * u64::from(params().arrivals);
    assert_eq!(a.completed + a.abandoned, arrivals, "every arrival resolves exactly once");
    // And the whole streaming story replays bit-for-bit from the seed.
    let b = run(service_cfg(chaos_plan(0.05)), params());
    assert_eq!(a.app.answer, b.app.answer);
    assert_eq!(a.app.elapsed, b.app.elapsed);
    assert_eq!(
        (a.sessions_opened, a.sessions_closed, a.sessions_cancelled),
        (b.sessions_opened, b.sessions_closed, b.sessions_cancelled)
    );
    assert_eq!(a.app.stats, b.app.stats, "identical per-node statistics, counter for counter");
}

#[test]
fn reliable_oneway_calls_are_delivered_exactly_once_under_chaos() {
    let hits = Rc::new(Cell::new(0u64));
    const SENDS: u64 = 40;
    let cfg = reliable_cfg(2, 0.05);
    let machine = MachineBuilder::from_config(cfg).build();
    for node in machine.nodes() {
        let st = Rc::new(BumpState { hits: Rc::clone(&hits) });
        Bump::register_all(machine.rpc(), node.id(), st, RpcMode::Orpc);
    }
    let report = machine.run(|env| async move {
        if env.id().index() == 0 {
            for _ in 0..SENDS {
                Bump::bump::send(env.rpc(), env.node(), NodeId(1)).await;
            }
        }
        // The run ends only when the sim quiesces, i.e. all acks and
        // retransmission timers have resolved.
        env.barrier().await;
    });
    assert_eq!(hits.get(), SENDS, "at-most-once + retransmission = exactly once");
    let t = report.stats.total();
    assert!(t.packets_dropped > 0, "the plan did bite");
}

#[test]
fn chaos_outcomes_are_shard_count_invariant() {
    use optimistic_active_messages::apps::service::run;
    // Fault draws are keyed by each packet's event key, not by a global
    // draw order, so a lossy run is a pure function of the seed at any
    // shard count: same answer, same end time, every counter (drops, dups,
    // delays, retransmits, sheds) identical.
    let tsp_at = |shards: usize| {
        let cfg = reliable_cfg(5, 0.05).with_shards(shards);
        tsp::run_configured(System::Orpc, cfg, TspParams::default())
    };
    let service_at = |shards: usize| {
        let plan = chaos_plan(0.05).with_stall(
            NodeId(0),
            Time::from_nanos(2_000_000),
            Time::from_nanos(8_000_000),
        );
        let params = ServiceParams { load_x100: 200, arrivals: 96, ..Default::default() };
        run(service_cfg(plan).with_shards(shards), params).app
    };
    for (name, at) in [
        ("tsp", &tsp_at as &dyn Fn(usize) -> optimistic_active_messages::apps::AppOutcome),
        ("service", &service_at),
    ] {
        let base = at(1);
        let t = base.stats.total();
        assert!(
            t.packets_dropped > 0 && t.packets_duplicated > 0 && t.packets_delayed > 0,
            "{name}: every fault kind fired"
        );
        assert!(t.retransmits > 0, "{name}: losses were recovered");
        for shards in [2, 4] {
            let out = at(shards);
            assert_eq!(out.answer, base.answer, "{name}: answer at {shards} shards");
            assert_eq!(out.elapsed, base.elapsed, "{name}: end time at {shards} shards");
            assert_eq!(out.stats, base.stats, "{name}: per-node stats at {shards} shards");
            assert!(out.stats.engine.epochs > 0, "{name}: {shards} shards ran the epoch engine");
        }
    }
}
