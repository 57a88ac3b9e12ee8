//! Session-layer integration tests: streaming replies, pipelined calls,
//! client-side cancellation, and per-call priorities — the protocol
//! features layered over the single-shot RPC wire format. Exercised
//! through the meta-crate's public API like any user program.

use std::cell::RefCell;
use std::rc::Rc;

use optimistic_active_messages::prelude::*;

/// Per-node test-service state.
pub struct SessState {
    /// Completion order observed by `mark` (dispatch-priority test).
    pub order: RefCell<Vec<u32>>,
    /// Held by the server main to park `enter` calls (admission test).
    pub gate: Mutex<()>,
}

define_rpc_service! {
    /// Streaming / pipelining / priority test service.
    service Sess {
        state SessState;

        /// Echo with a fixed service time — the pipelining workload.
        rpc work(ctx, st, x: u64) -> u64 {
            let _ = st;
            ctx.charge(Dur::from_micros(40)).await;
            x * 2
        }

        /// Record the dispatch order of concurrent arrivals.
        rpc mark(ctx, st, tag: u32) -> u32 {
            let _ = ctx;
            st.order.borrow_mut().push(tag);
            tag
        }

        /// Block on the gate the server main holds, then reply.
        rpc enter(ctx, st) -> u32 {
            let _g = st.gate.lock().await;
            ctx.charge(Dur::from_micros(1)).await;
            7
        }

        /// Bounded stream: chunk `0..n`, close with the sum.
        stream count(ctx, st, tx, n: u64) [u64] -> u64 {
            let _ = st;
            let mut tx = tx;
            let mut sum = 0u64;
            for i in 0..n {
                ctx.charge(Dur::from_micros(2)).await;
                sum += i;
                tx = tx.send(&i).await;
            }
            tx.close(&sum).await
        }

        /// Effectively unbounded stream: chunks until a client cancel (or
        /// the end of the world) stops it.
        stream ticks(ctx, st, tx) [u64] -> u64 {
            let _ = st;
            let mut tx = tx;
            let mut i = 0u64;
            loop {
                ctx.charge(Dur::from_micros(5)).await;
                tx = tx.send(&i).await;
                i += 1;
                if i == u64::MAX {
                    break tx.close(&i).await;
                }
            }
        }
    }
}

fn build(nodes: usize, cfg: MachineConfig, mode: RpcMode) -> Machine {
    let machine = MachineBuilder::from_config(cfg).build();
    for node in machine.nodes() {
        let st = Rc::new(SessState { order: RefCell::new(Vec::new()), gate: Mutex::new(node, ()) });
        Sess::register_all(machine.rpc(), node.id(), st, mode);
    }
    assert_eq!(machine.nodes().len(), nodes);
    machine
}

#[test]
fn stream_methods_deliver_chunks_in_order_then_the_final_reply() {
    for mode in [RpcMode::Orpc, RpcMode::Trpc] {
        let machine = build(2, MachineConfig::cm5(2), mode);
        let report = machine.run(|env| async move {
            if env.id().index() == 1 {
                let mut h = Sess::count::call(env.rpc(), env.node(), NodeId(0), 16).await;
                let mut got = Vec::new();
                while let Some(x) = h.next().await {
                    got.push(x);
                }
                assert_eq!(got, (0..16).collect::<Vec<u64>>(), "{mode:?}");
                let fin = h.finish().await.expect("close arrives");
                assert_eq!(fin, (0..16).sum::<u64>(), "{mode:?}");
            }
            env.barrier().await;
        });
        let t = report.stats.total();
        assert_eq!(t.sessions_opened, 1, "{mode:?}");
        assert_eq!(t.sessions_closed, 1, "{mode:?}");
        assert_eq!(t.sessions_cancelled, 0, "{mode:?}");
        assert_eq!(t.chunks_received, 16, "{mode:?}");
        assert_eq!(t.orphan_chunks, 0, "{mode:?}");
        let m = t.per_method.get(&Sess::count::ID.0).expect("stream method counted");
        assert_eq!(m.chunks, 16, "server side counted every chunk ({mode:?})");
    }
}

#[test]
fn a_dropped_stream_handle_counts_as_a_cancel_not_a_close() {
    let machine = build(2, MachineConfig::cm5(2), RpcMode::Orpc);
    let report = machine.run(|env| async move {
        if env.id().index() == 1 {
            let mut h = Sess::count::call(env.rpc(), env.node(), NodeId(0), 4).await;
            let first = h.next().await;
            assert_eq!(first, Some(0));
            drop(h); // walk away mid-stream
        }
        env.barrier().await;
    });
    let t = report.stats.total();
    assert_eq!(t.sessions_opened, 1);
    assert_eq!(t.sessions_closed, 0);
    assert_eq!(t.sessions_cancelled, 1, "drop retires the session as a cancel");
}

#[test]
fn pipelined_calls_overlap_the_round_trip_with_server_execution() {
    const CALLS: u64 = 8;
    let sync_run = || {
        let machine = build(2, MachineConfig::cm5(2), RpcMode::Orpc);
        machine
            .run(|env| async move {
                if env.id().index() == 1 {
                    for i in 0..CALLS {
                        let r = Sess::work::call(env.rpc(), env.node(), NodeId(0), i)
                            .await
                            .expect("reply decode");
                        assert_eq!(r, i * 2);
                    }
                }
                env.barrier().await;
            })
            .end_time
    };
    let piped_run = || {
        let machine = build(2, MachineConfig::cm5(2), RpcMode::Orpc);
        machine
            .run(|env| async move {
                if env.id().index() == 1 {
                    let mut handles = Vec::new();
                    for i in 0..CALLS {
                        handles.push(Sess::work::issue(env.rpc(), env.node(), NodeId(0), i).await);
                    }
                    for (i, h) in handles.into_iter().enumerate() {
                        let r = h.wait().await.expect("reply decode");
                        assert_eq!(r, i as u64 * 2);
                    }
                }
                env.barrier().await;
            })
            .end_time
    };
    let sync = sync_run();
    let piped = piped_run();
    assert!(
        piped < sync,
        "pipelined issues ({piped:?}) must beat call-and-wait ({sync:?}): the \
         marshal + round trip of call N+1 overlaps the service time of call N"
    );
    // Determinism: re-running either schedule reproduces its clock exactly.
    assert_eq!(sync, sync_run());
    assert_eq!(piped, piped_run());
}

#[test]
fn cancelling_a_stream_aborts_the_server_side_handler() {
    let machine = build(2, MachineConfig::cm5(2), RpcMode::Orpc);
    let report = machine.run(|env| async move {
        if env.id().index() == 1 {
            let mut h = Sess::ticks::call(env.rpc(), env.node(), NodeId(0)).await;
            for want in 0..3u64 {
                assert_eq!(h.next().await, Some(want));
            }
            h.cancel();
            // The handler would stream forever: only the cancel frame lets
            // this run reach quiescence at all.
        }
        env.barrier().await;
    });
    let t = report.stats.total();
    assert_eq!(t.sessions_opened, 1);
    assert_eq!(t.sessions_closed, 0, "no Close was ever sent");
    assert_eq!(t.sessions_cancelled, 1);
    let m = t.per_method.get(&Sess::ticks::ID.0).expect("stream method counted");
    assert_eq!(m.cancels, 1, "the in-flight handler was aborted by the cancel frame");
    assert!(m.chunks >= 3, "it streamed at least what the client consumed");
}

#[test]
fn high_priority_arrivals_dispatch_first_under_trpc() {
    // Three clients fire one call each so all three requests sit in the
    // server's input queue when it finally polls; TRPC spawns a thread per
    // request at the priority's queue position, so the lone High call runs
    // before the two Lows that arrived ahead of it.
    let cfg = MachineConfig::cm5(4).with_admission(AdmissionConfig::default());
    let machine = MachineBuilder::from_config(cfg).build();
    let states: Vec<Rc<SessState>> = machine
        .nodes()
        .iter()
        .map(|node| {
            Rc::new(SessState { order: RefCell::new(Vec::new()), gate: Mutex::new(node, ()) })
        })
        .collect();
    for (node, st) in machine.nodes().iter().zip(&states) {
        Sess::register_all(machine.rpc(), node.id(), Rc::clone(st), RpcMode::Trpc);
    }
    let states = Rc::new(states);
    let st = Rc::clone(&states);
    machine.run(move |env| {
        let st = Rc::clone(&st);
        async move {
            let me = env.id().index();
            env.barrier().await;
            if me == 0 {
                // Stay busy while the requests pile up, then serve.
                env.charge(Dur::from_micros(300)).await;
                while st[0].order.borrow().len() < 3 {
                    env.poll().await;
                }
            } else {
                let prio = if me == 3 { Priority::High } else { Priority::Low };
                let opts = CallOpts::default().with_priority(prio);
                let r = Sess::mark::call_with(env.rpc(), env.node(), NodeId(0), opts, me as u32)
                    .await
                    .expect("reply decode");
                assert_eq!(r, me as u32);
            }
            env.barrier().await;
        }
    });
    let order = states[0].order.borrow().clone();
    assert_eq!(order.len(), 3);
    assert_eq!(order[0], 3, "the High call jumps the queue, order was {order:?}");
    assert_eq!(&order[1..], &[1, 2], "the Lows keep their arrival order");
}

#[test]
fn admission_sheds_low_priority_calls_first() {
    // A budget of 2 pending calls scales to 3 for High and 1 for Low. The
    // server parks every `enter` on a held gate, the client floods it with
    // six pipelined calls, and the NACK counts tell the story: every call
    // still completes (NACKed calls back off and retry after the gate
    // opens), but Low gets shed strictly more often than High.
    let shed_with = |prio: Priority| {
        let cfg = MachineConfig::cm5(2)
            .with_admission(AdmissionConfig { pending_budget: 2, ..Default::default() });
        let machine = MachineBuilder::from_config(cfg).build();
        let states: Vec<Rc<SessState>> = machine
            .nodes()
            .iter()
            .map(|node| {
                Rc::new(SessState { order: RefCell::new(Vec::new()), gate: Mutex::new(node, ()) })
            })
            .collect();
        for (node, st) in machine.nodes().iter().zip(&states) {
            Sess::register_all(machine.rpc(), node.id(), Rc::clone(st), RpcMode::Orpc);
        }
        let states = Rc::new(states);
        let st = Rc::clone(&states);
        let report = machine.run(move |env| {
            let st = Rc::clone(&st);
            async move {
                if env.id().index() == 0 {
                    let g = st[0].gate.lock().await;
                    env.barrier().await;
                    // Hold the gate long enough for all six to arrive.
                    env.charge(Dur::from_micros(500)).await;
                    env.poll().await;
                    drop(g);
                } else {
                    env.barrier().await;
                    let opts = CallOpts::default().with_priority(prio);
                    let mut handles = Vec::new();
                    for _ in 0..6 {
                        handles.push(
                            Sess::enter::issue_with(env.rpc(), env.node(), NodeId(0), opts).await,
                        );
                    }
                    for h in handles {
                        assert_eq!(h.wait().await.expect("reply decode"), 7, "{prio:?}");
                    }
                }
                env.barrier().await;
            }
        });
        report.stats.total().calls_shed
    };
    let high = shed_with(Priority::High);
    let low = shed_with(Priority::Low);
    assert!(high >= 1, "even High overflows a budget of 3, got {high}");
    assert!(
        low > high,
        "Low (budget 1) must be shed more than High (budget 3): low={low} high={high}"
    );
}

#[test]
fn session_runs_are_deterministic_across_backends_and_shards() {
    // The streaming protocol must not disturb the machine's determinism
    // story: the same program over sim and native backends, at one and
    // several shards, lands on the same virtual clock and counters.
    let run_once = || {
        let machine = build(3, MachineConfig::cm5(3), RpcMode::Orpc);
        let report = machine.run(|env| async move {
            if env.id().index() != 0 {
                let mut h = Sess::count::call(env.rpc(), env.node(), NodeId(0), 8).await;
                let mut acc = 0u64;
                while let Some(x) = h.next().await {
                    acc += x;
                }
                let fin = h.finish().await.expect("close arrives");
                assert_eq!(acc, fin);
            }
            env.barrier().await;
        });
        (report.end_time, report.events, report.stats)
    };
    let a = run_once();
    let b = run_once();
    assert_eq!(a.0, b.0);
    assert_eq!(a.1, b.1);
    assert_eq!(a.2, b.2, "identical per-node statistics, counter for counter");
}

#[test]
fn an_issued_call_waited_at_once_settles_exactly_like_a_sync_call() {
    // Shedding, NACK back-off, abandoning a retry that cannot beat the
    // deadline and local expiry all run in one attempt loop whichever stub
    // drives it. A budget of one pending call and a server that holds the
    // gate for 400 µs make every path fire: the admitted `enter` parks on
    // the gate until its caller's deadline expires, the calls shed behind
    // it back off on the retry-after hint until the next back-off would
    // overrun the deadline, and the calls after the gate opens complete.
    const CALLS: usize = 12;
    let run = |piped: bool| {
        let cfg = MachineConfig::cm5(4)
            .with_admission(AdmissionConfig { pending_budget: 1, ..Default::default() });
        let machine = MachineBuilder::from_config(cfg).build();
        let states: Vec<Rc<SessState>> = machine
            .nodes()
            .iter()
            .map(|node| {
                Rc::new(SessState { order: RefCell::new(Vec::new()), gate: Mutex::new(node, ()) })
            })
            .collect();
        for (node, st) in machine.nodes().iter().zip(&states) {
            Sess::register_all(machine.rpc(), node.id(), Rc::clone(st), RpcMode::Orpc);
        }
        let states = Rc::new(states);
        let answers: Rc<RefCell<Vec<(usize, Result<u32, CallError>)>>> = Rc::default();
        let (st, out) = (Rc::clone(&states), Rc::clone(&answers));
        let report = machine.run(move |env| {
            let (st, out) = (Rc::clone(&st), Rc::clone(&out));
            async move {
                let me = env.id().index();
                if me == 0 {
                    let g = st[0].gate.lock().await;
                    env.barrier().await;
                    for _ in 0..20 {
                        env.charge(Dur::from_micros(10)).await;
                        env.poll().await;
                    }
                    drop(g);
                } else {
                    env.barrier().await;
                    let opts = CallOpts::default().with_deadline(Dur::from_micros(60));
                    for _ in 0..CALLS {
                        let (rpc, node) = (env.rpc(), env.node());
                        let r = if piped {
                            Sess::enter::issue_with(rpc, node, NodeId(0), opts).await.wait().await
                        } else {
                            Sess::enter::call_with(rpc, node, NodeId(0), opts).await
                        };
                        out.borrow_mut().push((me, r));
                    }
                }
                env.barrier().await;
            }
        });
        let answers = answers.borrow().clone();
        (answers, report.end_time, report.stats)
    };
    let sync = run(false);
    let piped = run(true);
    for (name, (answers, _, stats)) in [("call_with", &sync), ("issue_with", &piped)] {
        let t = stats.total();
        assert_eq!(answers.len(), 3 * CALLS, "{name}");
        assert!(answers.iter().any(|(_, r)| r == &Ok(7)), "{name}: some calls complete");
        assert!(t.nacks_received > 0, "{name}: the budget sheds calls");
        assert!(t.calls_abandoned > 0, "{name}: deadlines give calls up");
        assert!(t.retry_after_honored > 0, "{name}: shed calls back off and retry");
    }
    assert_eq!(sync.0, piped.0, "the same answers in the same order");
    assert_eq!(sync.1, piped.1, "the same end time");
    assert_eq!(sync.2, piped.2, "identical per-node statistics, counter for counter");
}
