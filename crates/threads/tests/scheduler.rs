//! Behavioral tests of the thread package: scheduling order, live-stack
//! cost accounting, blocking primitives, and provisional-slot promotion.

use std::cell::RefCell;
use std::rc::Rc;

use oam_model::{Dur, MachineConfig, NodeId, NodeStats, QueuePolicy, Time};
use oam_sim::Sim;
use oam_threads::{CondVar, ExecMode, Flag, Mutex, Node, Placement};

fn test_node_with(cfg: MachineConfig) -> (Sim, Node, Rc<RefCell<NodeStats>>) {
    let sim = Sim::new(11);
    let stats = Rc::new(RefCell::new(NodeStats::new()));
    let node = Node::new(&sim, NodeId(0), cfg.nodes, Rc::new(cfg), Rc::clone(&stats));
    (sim, node, stats)
}

fn test_node() -> (Sim, Node, Rc<RefCell<NodeStats>>) {
    test_node_with(MachineConfig::cm5(1))
}

#[test]
fn single_thread_costs_enqueue_create_and_exit() {
    let (sim, node, stats) = test_node();
    let n = node.clone();
    node.spawn(async move {
        assert_eq!(n.mode(), ExecMode::Thread);
    });
    let end = sim.run();
    // enqueue 0.3 µs + direct start 7 µs + exit 0.8 µs.
    assert_eq!(end, Time::from_nanos(8_100));
    let st = stats.borrow();
    assert_eq!(st.threads_created, 1);
    assert_eq!(st.threads_completed, 1);
    assert_eq!(st.live_stack_hits, 1);
    assert_eq!(st.live_stack_misses, 0);
    assert_eq!(st.context_switches, 0);
}

#[test]
fn charge_holds_the_processor_for_its_duration() {
    let (sim, node, _) = test_node();
    let n = node.clone();
    let observed = Rc::new(RefCell::new(Vec::new()));
    let obs = Rc::clone(&observed);
    node.spawn(async move {
        obs.borrow_mut().push(n.now());
        n.charge(Dur::from_micros(100)).await;
        obs.borrow_mut().push(n.now());
    });
    let end = sim.run();
    let obs = observed.borrow();
    assert_eq!(obs[1].since(obs[0]), Dur::from_micros(100));
    assert_eq!(end, Time::from_nanos(300 + 7_000 + 100_000 + 800));
}

#[test]
fn second_fresh_thread_over_live_thread_pays_59us() {
    let (sim, node, stats) = test_node();
    let log: Rc<RefCell<Vec<(&'static str, Time)>>> = Rc::default();
    let (l1, l2) = (log.clone(), log.clone());
    let (na, nb) = (node.clone(), node.clone());
    node.spawn(async move {
        l1.borrow_mut().push(("a-start", na.now()));
        na.yield_now().await; // B gets the processor
        l1.borrow_mut().push(("a-resume", na.now()));
    });
    node.spawn(async move {
        l2.borrow_mut().push(("b-start", nb.now()));
    });
    sim.run();
    let log = log.borrow();
    assert_eq!(log[0].0, "a-start");
    assert_eq!(log[1].0, "b-start");
    assert_eq!(log[2].0, "a-resume");
    // B is fresh but A is live on the stack: 52 + 7 µs, plus A's 0.4 µs
    // yield cost.
    assert_eq!(log[1].1.since(log[0].1), Dur::from_micros_f64(0.4 + 59.0));
    let st = stats.borrow();
    assert_eq!(st.live_stack_hits, 1, "A's own start");
    assert_eq!(st.live_stack_misses, 1, "B's start over live A");
    // Resuming A after B exits costs a full switch.
    assert_eq!(st.context_switches, 2);
    assert_eq!(st.yields, 1);
}

#[test]
fn mutex_contention_blocks_until_release_in_fifo_order() {
    let (sim, node, _) = test_node();
    let m = Mutex::new(&node, 0u32);
    let order: Rc<RefCell<Vec<u32>>> = Rc::default();

    // A locks, yields (so B and C run and block on the mutex), works 50 µs,
    // releases. B then C must acquire in FIFO order.
    let (ma, mb, mc) = (m.clone(), m.clone(), m.clone());
    let (oa, ob, oc) = (order.clone(), order.clone(), order.clone());
    let (na, _nb, _nc) = (node.clone(), node.clone(), node.clone());
    node.spawn(async move {
        let g = ma.lock().await;
        na.yield_now().await;
        na.charge(Dur::from_micros(50)).await;
        g.with_mut(|v| *v += 1);
        oa.borrow_mut().push(0);
    });
    node.spawn(async move {
        let g = mb.lock().await;
        g.with_mut(|v| *v += 1);
        ob.borrow_mut().push(1);
    });
    node.spawn(async move {
        let g = mc.lock().await;
        g.with_mut(|v| *v += 1);
        oc.borrow_mut().push(2);
    });
    sim.run();
    assert_eq!(*order.borrow(), vec![0, 1, 2]);
    assert!(!m.is_locked());
    assert_eq!(m.try_lock().expect("free").get(), 3);
}

#[test]
fn try_lock_fails_when_held() {
    let (sim, node, _) = test_node();
    let m = Mutex::new(&node, ());
    let n = node.clone();
    let m2 = m.clone();
    node.spawn(async move {
        let _g = m2.lock().await;
        assert!(m2.try_lock().is_none(), "held by ourselves");
        n.charge(Dur::from_micros(1)).await;
    });
    sim.run();
    assert!(m.try_lock().is_some(), "released at thread exit");
}

#[test]
fn condvar_wait_and_signal_round_trip() {
    let (sim, node, _) = test_node();
    let m = Mutex::new(&node, Vec::<u32>::new());
    let cv = CondVar::new(&node);
    let consumed: Rc<RefCell<Vec<u32>>> = Rc::default();

    let (mc, cvc, out) = (m.clone(), cv.clone(), consumed.clone());
    node.spawn(async move {
        let mut g = mc.lock().await;
        while g.with(|q| q.is_empty()) {
            g = cvc.wait(g).await;
        }
        let v = g.with_mut(|q| q.remove(0));
        out.borrow_mut().push(v);
    });
    let (mp, cvp, np) = (m.clone(), cv.clone(), node.clone());
    node.spawn(async move {
        np.charge(Dur::from_micros(30)).await;
        let g = mp.lock().await;
        g.with_mut(|q| q.push(42));
        cvp.signal();
    });
    sim.run();
    assert_eq!(*consumed.borrow(), vec![42]);
    assert_eq!(cv.waiters(), 0);
}

#[test]
fn condvar_broadcast_wakes_all_waiters() {
    let (sim, node, _) = test_node();
    let m = Mutex::new(&node, false);
    let cv = CondVar::new(&node);
    let woke = Rc::new(RefCell::new(0u32));
    for _ in 0..3 {
        let (mi, cvi, w) = (m.clone(), cv.clone(), woke.clone());
        node.spawn(async move {
            let mut g = mi.lock().await;
            while !g.get() {
                g = cvi.wait(g).await;
            }
            *w.borrow_mut() += 1;
        });
    }
    let (mb, cvb, nb) = (m.clone(), cv.clone(), node.clone());
    node.spawn(async move {
        nb.charge(Dur::from_micros(10)).await;
        let g = mb.lock().await;
        g.set(true);
        cvb.broadcast();
    });
    sim.run();
    assert_eq!(*woke.borrow(), 3);
}

#[test]
fn spin_resume_without_displacement_is_free() {
    let (sim, node, stats) = test_node();
    let flag = Flag::new();
    let f = flag.clone();
    let n = node.clone();
    let resumed_at = Rc::new(RefCell::new(Time::ZERO));
    let r = resumed_at.clone();
    node.spawn(async move {
        n.spin_on(f).await;
        *r.borrow_mut() = n.now();
    });
    // Set the flag from an external event at t = 50 µs.
    let n2 = node.clone();
    sim.schedule_at(Time::from_nanos(50_000), move |_| {
        flag.set();
        n2.kick();
    });
    sim.run();
    // The spinner never left the stack: no context switch on resume.
    assert_eq!(*resumed_at.borrow(), Time::from_nanos(50_000));
    assert_eq!(stats.borrow().context_switches, 0);
}

#[test]
fn spinner_displaced_by_runnable_thread_pays_switch_on_resume() {
    let (sim, node, stats) = test_node();
    let flag = Flag::new();
    let f = flag.clone();
    let (n1, n2) = (node.clone(), node.clone());
    let order: Rc<RefCell<Vec<&'static str>>> = Rc::default();
    let (o1, o2) = (order.clone(), order.clone());
    node.spawn(async move {
        o1.borrow_mut().push("spin-start");
        n1.spin_on(f).await;
        o1.borrow_mut().push("spin-resume");
    });
    let fl = flag.clone();
    node.spawn(async move {
        o2.borrow_mut().push("worker");
        n2.charge(Dur::from_micros(20)).await;
        fl.set();
    });
    sim.run();
    assert_eq!(*order.borrow(), vec!["spin-start", "worker", "spin-resume"]);
    let st = stats.borrow();
    // Worker started over the live spinner (miss), spinner resumed with a
    // full switch.
    assert_eq!(st.live_stack_misses, 1);
    assert!(st.context_switches >= 2);
}

#[test]
fn join_returns_the_child_result() {
    let (sim, node, _) = test_node();
    let n = node.clone();
    let got: Rc<RefCell<Option<u64>>> = Rc::default();
    let g = got.clone();
    node.spawn(async move {
        let child = n.spawn(async move { 21u64 * 2 });
        let v = child.join().await;
        *g.borrow_mut() = Some(v);
    });
    sim.run();
    assert_eq!(*got.borrow(), Some(42));
}

#[test]
fn join_on_completed_thread_is_immediate() {
    let (sim, node, _) = test_node();
    let n = node.clone();
    let ok = Rc::new(RefCell::new(false));
    let okc = ok.clone();
    node.spawn(async move {
        let child = n.spawn(async move { 7u8 });
        n.yield_now().await; // let the child run to completion
        assert!(child.is_done());
        assert_eq!(child.join().await, 7);
        *okc.borrow_mut() = true;
    });
    sim.run();
    assert!(*ok.borrow());
}

#[test]
fn queue_policy_controls_incoming_placement() {
    for (policy, expected) in [
        (QueuePolicy::Front, vec!["incoming", "app"]),
        (QueuePolicy::Back, vec!["app", "incoming"]),
    ] {
        let cfg = MachineConfig::cm5(1).with_queue_policy(policy);
        let (sim, node, _) = test_node_with(cfg);
        let order: Rc<RefCell<Vec<&'static str>>> = Rc::default();
        let (o1, o2, o3) = (order.clone(), order.clone(), order.clone());
        let n = node.clone();
        node.spawn(async move {
            o1.borrow_mut().push("spawner");
            n.spawn(async move {
                o2.borrow_mut().push("app");
            });
            n.spawn_incoming(async move {
                o3.borrow_mut().push("incoming");
            });
        });
        sim.run();
        let got = order.borrow();
        assert_eq!(got[0], "spawner");
        assert_eq!(&got[1..], expected.as_slice(), "policy {policy:?}");
    }
}

#[test]
fn provisional_slot_promotion_runs_like_a_thread() {
    let (sim, node, stats) = test_node();
    let n = node.clone();
    let ran = Rc::new(RefCell::new(false));
    let r = ran.clone();
    node.spawn(async move {
        let tid = n.reserve_provisional();
        // Simulate the OAM engine: the handler blocked, promote its
        // continuation, then wake it (as a lock release would).
        let r2 = r.clone();
        n.promote(tid, async move {
            *r2.borrow_mut() = true;
        });
        n.make_runnable(tid, Placement::Front);
    });
    sim.run();
    assert!(*ran.borrow());
    assert_eq!(stats.borrow().threads_created, 2);
    assert_eq!(stats.borrow().threads_completed, 2);
}

#[test]
fn provisional_wake_before_promotion_is_remembered() {
    let (sim, node, _) = test_node();
    let n = node.clone();
    let ran = Rc::new(RefCell::new(false));
    let r = ran.clone();
    node.spawn(async move {
        let tid = n.reserve_provisional();
        n.make_runnable(tid, Placement::Front); // wake arrives first
        let r2 = r.clone();
        n.promote(tid, async move {
            *r2.borrow_mut() = true;
        });
    });
    sim.run();
    assert!(*ran.borrow(), "promotion must observe the early wake");
}

#[test]
fn released_provisional_slot_is_removed() {
    let (sim, node, _) = test_node();
    let n = node.clone();
    node.spawn(async move {
        let tid = n.reserve_provisional();
        n.release_provisional(tid);
        // A stale wake for the released slot must be harmless.
        n.make_runnable(tid, Placement::Front);
    });
    sim.run();
    assert_eq!(node.live_threads(), 0);
}

#[test]
fn poll_batch_without_dispatcher_resumes_after_running_threads() {
    let (sim, node, _) = test_node();
    let n = node.clone();
    let order: Rc<RefCell<Vec<&'static str>>> = Rc::default();
    let (o1, o2) = (order.clone(), order.clone());
    node.spawn(async move {
        o1.borrow_mut().push("main-before");
        n.spawn(async move {
            o2.borrow_mut().push("spawned");
        });
        n.poll_batch().await;
        o1.borrow_mut().push("main-after");
    });
    sim.run();
    assert_eq!(*order.borrow(), vec!["main-before", "spawned", "main-after"]);
}

#[test]
fn identical_seeds_give_identical_schedules() {
    fn run() -> (Time, u64) {
        let (sim, node, stats) = test_node();
        for i in 0..8u64 {
            let n = node.clone();
            node.spawn(async move {
                n.charge(Dur::from_micros(3 + i)).await;
                n.yield_now().await;
                n.charge(Dur::from_micros(2)).await;
            });
        }
        let t = sim.run();
        let s = stats.borrow().context_switches;
        (t, s)
    }
    assert_eq!(run(), run());
}

#[test]
fn idle_time_is_accounted() {
    let (sim, node, stats) = test_node();
    // Run a trivial thread, then an external event 100 µs later wakes the
    // node again; the interval counts as idle.
    node.spawn(async move {});
    let n = node.clone();
    sim.schedule_at(Time::from_nanos(108_100), move |_| n.kick());
    sim.run();
    assert_eq!(stats.borrow().idle_time, Dur::from_micros(100));
}

/// Two nodes on one simulator.
fn two_nodes() -> (Sim, Node, Node) {
    let sim = Sim::new(11);
    let cfg = Rc::new(MachineConfig::cm5(2));
    let mk = |i| Node::new(&sim, NodeId(i), 2, Rc::clone(&cfg), Rc::new(RefCell::default()));
    let (a, b) = (mk(0), mk(1));
    (sim, a, b)
}

#[test]
fn a_tail_kick_settles_in_place_when_nothing_is_due_first() {
    let (sim, node, _) = test_node();
    let n = node.clone();
    sim.schedule_at(Time::from_nanos(1_000), move |_| {
        n.add_pending(Dur::from_micros(5));
        n.kick_tail();
    });
    assert_eq!(sim.run(), Time::from_nanos(6_000));
    assert_eq!((sim.events_executed(), sim.settles_in_place()), (1, 1));
}

#[test]
fn a_kick_followed_by_more_scheduling_settles_through_an_event() {
    let (sim, node, _) = test_node();
    let n = node.clone();
    let seen = Rc::new(RefCell::new(Vec::new()));
    let s = seen.clone();
    sim.schedule_at(Time::from_nanos(1_000), move |sim| {
        n.add_pending(Dur::from_micros(5));
        n.kick();
        // Still at 1 µs: the kick did not move the clock.
        sim.schedule_after(Dur::from_micros(1), move |sim| s.borrow_mut().push(sim.now()));
    });
    assert_eq!(sim.run(), Time::from_nanos(6_000));
    assert_eq!(*seen.borrow(), [Time::from_nanos(2_000)]);
    assert_eq!((sim.events_executed(), sim.settles_in_place()), (3, 0));
}

#[test]
fn two_kicks_in_one_event_both_settle_through_events() {
    // As a collective publish kicks every node: were the first kick's
    // settle taken in place, the second node would start 5 µs late.
    let (sim, a, b) = two_nodes();
    let (ak, bk) = (a.clone(), b.clone());
    sim.schedule_at(Time::from_nanos(1_000), move |_| {
        ak.add_pending(Dur::from_micros(5));
        bk.add_pending(Dur::from_micros(3));
        ak.kick();
        bk.kick();
    });
    assert_eq!(sim.run(), Time::from_nanos(6_000));
    assert_eq!((sim.events_executed(), sim.settles_in_place()), (3, 0));
}

#[test]
fn a_kick_nested_in_another_nodes_step_settles_through_an_event() {
    // Node a's thread kicks node b from inside a's step (a's own step came
    // from a tail kick); b's settle must wait for its own event, or a's
    // thread would see the clock jump by b's 3 µs.
    let (sim, a, b) = two_nodes();
    let (na, nb) = (a.clone(), b.clone());
    let seen = Rc::new(RefCell::new(Vec::new()));
    let s = seen.clone();
    a.spawn(async move {
        let t0 = na.now();
        nb.add_pending(Dur::from_micros(3));
        nb.kick();
        s.borrow_mut().push(na.now().since(t0));
        na.charge(Dur::from_micros(1)).await;
        s.borrow_mut().push(na.now().since(t0));
    });
    sim.run();
    assert_eq!(*seen.borrow(), [Dur::ZERO, Dur::from_micros(1)]);
    assert!(sim.settles_in_place() > 0, "node a's own settles went in place");
}
