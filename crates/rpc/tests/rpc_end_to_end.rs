//! End-to-end tests of the stub-compiler output: ORPC and TRPC modes,
//! sync and oneway calls, bulk transport, blocking procedures, and the
//! NACK retry loop.

use std::cell::RefCell;
use std::rc::Rc;

use oam_am::Am;
use oam_model::{AbortStrategy, MachineConfig, NodeId, NodeStats};
use oam_net::Network;
use oam_rpc::{define_rpc_service, Rpc, RpcMode};
use oam_sim::Sim;
use oam_threads::{CondVar, Flag, Mutex, Node};

fn build(cfg: MachineConfig) -> (Sim, Rpc, Vec<Rc<RefCell<NodeStats>>>) {
    let sim = Sim::new(17);
    let nprocs = cfg.nodes;
    let cfg = Rc::new(cfg);
    let stats: Vec<Rc<RefCell<NodeStats>>> =
        (0..nprocs).map(|_| Rc::new(RefCell::new(NodeStats::new()))).collect();
    let net = Network::new(&sim, &cfg, stats.clone());
    let nodes: Vec<Node> = (0..nprocs)
        .map(|i| Node::new(&sim, NodeId(i), nprocs, Rc::clone(&cfg), Rc::clone(&stats[i])))
        .collect();
    let am = Am::new(net, cfg, nodes);
    (sim, Rpc::new(am), stats)
}

pub struct KvState {
    pub store: Mutex<Vec<(u32, u64)>>,
    pub gate: Mutex<bool>,
    pub gate_cv: CondVar,
}

impl KvState {
    fn new(node: &Node) -> Rc<Self> {
        Rc::new(KvState {
            store: Mutex::new(node, Vec::new()),
            gate: Mutex::new(node, false),
            gate_cv: CondVar::new(node),
        })
    }
}

define_rpc_service! {
    /// A tiny replicated key/value service used to exercise every stub path.
    service Kv {
        state KvState;

        /// Insert, returning the previous value if any.
        rpc put(ctx, st, key: u32, value: u64) -> Option<u64> {
            let g = st.store.lock().await;
            g.with_mut(|v| {
                for e in v.iter_mut() {
                    if e.0 == key {
                        return Some(std::mem::replace(&mut e.1, value));
                    }
                }
                v.push((key, value));
                None
            })
        }

        /// Read a key.
        rpc get(ctx, st, key: u32) -> Option<u64> {
            let g = st.store.lock().await;
            g.with(|v| v.iter().find(|e| e.0 == key).map(|e| e.1))
        }

        /// A call that blocks until the gate opens.
        rpc gated_get(ctx, st, key: u32) -> Option<u64> {
            let mut g = st.gate.lock().await;
            while !g.get() {
                g = st.gate_cv.wait(g).await;
            }
            drop(g);
            let s = st.store.lock().await;
            s.with(|v| v.iter().find(|e| e.0 == key).map(|e| e.1))
        }

        /// Fire-and-forget insert.
        oneway put_async(ctx, st, key: u32, value: u64) {
            let g = st.store.lock().await;
            g.with_mut(|v| v.push((key, value)));
        }

        /// Echo a buffer (exercises bulk transport both ways).
        rpc echo_buf(ctx, st, data: Vec<f64>) -> Vec<f64> {
            data.iter().map(|x| x * 2.0).collect()
        }
    }
}

fn setup_service(rpc: &Rpc, mode: RpcMode) {
    for node in rpc.nodes() {
        let state = KvState::new(node);
        Kv::register_all(rpc, node.id(), state, mode);
    }
}

#[test]
fn sync_rpc_round_trip_in_both_modes() {
    for mode in [RpcMode::Orpc, RpcMode::Trpc] {
        let (sim, rpc, stats) = build(MachineConfig::cm5(2));
        setup_service(&rpc, mode);
        let node0 = rpc.nodes()[0].clone();
        let r = rpc.clone();
        let n0 = node0.clone();
        let got: Rc<RefCell<Vec<Option<u64>>>> = Rc::default();
        let g = got.clone();
        node0.spawn(async move {
            let a = Kv::put::call(&r, &n0, NodeId(1), 1, 100).await.expect("reply decode");
            let b = Kv::put::call(&r, &n0, NodeId(1), 1, 200).await.expect("reply decode");
            let c = Kv::get::call(&r, &n0, NodeId(1), 1).await.expect("reply decode");
            let d = Kv::get::call(&r, &n0, NodeId(1), 9).await.expect("reply decode");
            g.borrow_mut().extend([a, b, c, d]);
        });
        sim.run();
        assert_eq!(*got.borrow(), vec![None, Some(100), Some(200), None], "{mode:?}");
        assert_eq!(stats[0].borrow().rpcs_sync, 4);
        match mode {
            RpcMode::Orpc => {
                assert_eq!(stats[1].borrow().oam_successes, 4);
                assert_eq!(stats[1].borrow().threads_created, 0);
            }
            RpcMode::Trpc => {
                assert_eq!(stats[1].borrow().oam_attempts, 0);
                assert_eq!(stats[1].borrow().threads_created, 4);
            }
        }
    }
}

#[test]
fn oneway_rpc_delivers_without_reply() {
    let (sim, rpc, stats) = build(MachineConfig::cm5(2));
    setup_service(&rpc, RpcMode::Orpc);
    let node0 = rpc.nodes()[0].clone();
    let r = rpc.clone();
    let n0 = node0.clone();
    let got: Rc<RefCell<Option<u64>>> = Rc::default();
    let g = got.clone();
    node0.spawn(async move {
        Kv::put_async::send(&r, &n0, NodeId(1), 7, 77).await;
        // Oneways race with subsequent calls only through the same FIFO
        // channel, so this get observes the put.
        *g.borrow_mut() = Kv::get::call(&r, &n0, NodeId(1), 7).await.expect("reply decode");
    });
    sim.run();
    assert_eq!(*got.borrow(), Some(77));
    assert_eq!(stats[0].borrow().rpcs_async, 1);
    assert_eq!(stats[0].borrow().rpcs_sync, 1);
}

#[test]
fn large_payloads_travel_by_bulk_transfer() {
    let (sim, rpc, stats) = build(MachineConfig::cm5(2));
    setup_service(&rpc, RpcMode::Orpc);
    let node0 = rpc.nodes()[0].clone();
    let r = rpc.clone();
    let n0 = node0.clone();
    let ok = Rc::new(RefCell::new(false));
    let okc = ok.clone();
    node0.spawn(async move {
        let data: Vec<f64> = (0..80).map(|i| i as f64).collect(); // 640 B
        let out = Kv::echo_buf::call(&r, &n0, NodeId(1), data.clone()).await.expect("reply decode");
        assert_eq!(out.len(), 80);
        assert!(out.iter().enumerate().all(|(i, x)| *x == 2.0 * i as f64));
        *okc.borrow_mut() = true;
    });
    sim.run();
    assert!(*ok.borrow());
    // Request and reply each exceed 16 B of data: two bulk transfers.
    assert_eq!(stats[0].borrow().bulk_transfers_sent, 1);
    assert_eq!(stats[1].borrow().bulk_transfers_sent, 1);
    // Small calls earlier used short messages; here none were needed.
    assert_eq!(stats[0].borrow().messages_sent, 0);
}

#[test]
fn gated_call_stays_parked_while_gate_closed() {
    // The gate never opens: the call must abort exactly once (condition
    // false), be promoted, and then simply stay parked — no spinning, no
    // runaway events.
    let (sim, rpc, stats) = build(MachineConfig::cm5(2));
    setup_service(&rpc, RpcMode::Orpc);
    let node0 = rpc.nodes()[0].clone();
    let r = rpc.clone();
    let n0 = node0.clone();
    let got: Rc<RefCell<Option<u64>>> = Rc::default();
    let g = got.clone();
    node0.spawn(async move {
        Kv::put::call(&r, &n0, NodeId(1), 3, 33).await.expect("reply decode");
        *g.borrow_mut() = Kv::gated_get::call(&r, &n0, NodeId(1), 3).await.expect("reply decode");
    });
    let quiesced = sim.run_with_deadline(oam_model::Time::from_nanos(10_000_000));
    assert!(quiesced, "simulation must go quiet, not busy-loop");
    assert_eq!(stats[1].borrow().oam_aborts.iter().sum::<u64>(), 1);
    assert_eq!(stats[1].borrow().oam_promotions, 1);
    assert!(got.borrow().is_none(), "the gated call never completed");
}

#[test]
fn gated_call_resumes_after_signal() {
    let (sim, rpc, stats) = build(MachineConfig::cm5(2));
    // Register with a kept state handle so the test can open the gate.
    let states: Vec<Rc<KvState>> = rpc.nodes().iter().map(KvState::new).collect();
    for (node, st) in rpc.nodes().iter().zip(&states) {
        Kv::register_all(&rpc, node.id(), Rc::clone(st), RpcMode::Orpc);
    }
    let node0 = rpc.nodes()[0].clone();
    let node1 = rpc.nodes()[1].clone();
    let r = rpc.clone();
    let n0 = node0.clone();
    let got: Rc<RefCell<Option<u64>>> = Rc::default();
    let g = got.clone();
    node0.spawn(async move {
        Kv::put::call(&r, &n0, NodeId(1), 3, 33).await.expect("reply decode");
        *g.borrow_mut() = Kv::gated_get::call(&r, &n0, NodeId(1), 3).await.expect("reply decode");
    });
    // A thread on node 1 opens the gate at ~300 µs.
    let st1 = Rc::clone(&states[1]);
    let open = Flag::new();
    let (n1, op) = (node1.clone(), open.clone());
    node1.spawn(async move {
        n1.spin_on(op).await;
        let gate = st1.gate.lock().await;
        gate.set(true);
        st1.gate_cv.signal();
    });
    let n1k = node1.clone();
    sim.schedule_at(oam_model::Time::from_nanos(300_000), move |_| {
        open.set();
        n1k.kick();
    });
    sim.run();
    assert_eq!(*got.borrow(), Some(33));
    let st = stats[1].borrow();
    assert_eq!(st.oam_aborts.iter().sum::<u64>(), 1, "gated_get aborted once");
    assert_eq!(st.oam_promotions, 1);
    assert!(st.oam_successes >= 1, "the put succeeded optimistically");
}

#[test]
fn nack_strategy_retries_until_success() {
    let cfg = MachineConfig::cm5(2).with_abort_strategy(AbortStrategy::Nack);
    let (sim, rpc, stats) = build(cfg);
    let states: Vec<Rc<KvState>> = rpc.nodes().iter().map(KvState::new).collect();
    for (node, st) in rpc.nodes().iter().zip(&states) {
        Kv::register_all(&rpc, node.id(), Rc::clone(st), RpcMode::Orpc);
    }
    let node0 = rpc.nodes()[0].clone();
    let node1 = rpc.nodes()[1].clone();
    // Node 1 holds the store lock while spin-waiting for ~400 µs, so the
    // first put attempt gets NACKed and the client retries with back-off.
    let hold = Flag::new();
    let (n1, st1, h) = (node1.clone(), Rc::clone(&states[1]), hold.clone());
    node1.spawn(async move {
        let _g = st1.store.lock().await;
        n1.spin_on(h).await;
    });
    let n1k = node1.clone();
    sim.schedule_at(oam_model::Time::from_nanos(400_000), move |_| {
        hold.set();
        n1k.kick();
    });
    let r = rpc.clone();
    let n0 = node0.clone();
    let got: Rc<RefCell<Option<Option<u64>>>> = Rc::default();
    let g = got.clone();
    node0.spawn(async move {
        *g.borrow_mut() =
            Some(Kv::put::call(&r, &n0, NodeId(1), 1, 11).await.expect("reply decode"));
    });
    sim.run();
    assert_eq!(*got.borrow(), Some(None), "the put eventually succeeded");
    assert!(stats[1].borrow().oam_nacks_sent >= 1, "at least one NACK was sent");
    assert_eq!(stats[0].borrow().nacks_received, stats[1].borrow().oam_nacks_sent);
    assert_eq!(
        stats[1].borrow().threads_created,
        1,
        "only the lock holder; calls never became threads"
    );
}

#[test]
fn orpc_and_trpc_agree_on_results() {
    let mut results = Vec::new();
    for mode in [RpcMode::Orpc, RpcMode::Trpc] {
        let (sim, rpc, _) = build(MachineConfig::cm5(4));
        setup_service(&rpc, mode);
        let out: Rc<RefCell<Vec<Option<u64>>>> = Rc::default();
        for i in 0..4usize {
            let node = rpc.nodes()[i].clone();
            let r = rpc.clone();
            let o = out.clone();
            let n = node.clone();
            node.spawn(async move {
                let dst = NodeId((i + 1) % 4);
                for k in 0..8u32 {
                    Kv::put::call(&r, &n, dst, k, (i as u64) * 100 + k as u64)
                        .await
                        .expect("reply decode");
                }
                let mut local = Vec::new();
                for k in 0..8u32 {
                    local.push(Kv::get::call(&r, &n, dst, k).await.expect("reply decode"));
                }
                o.borrow_mut().extend(local);
            });
        }
        sim.run();
        results.push(out.borrow().clone());
    }
    assert_eq!(results[0], results[1], "ORPC and TRPC must compute identical results");
}
