//! Harder RPC paths: nested calls from inside handlers (an optimistic
//! execution that performs a *synchronous* RPC must abort and finish as a
//! thread), large replies over bulk transfers, and promoted continuations
//! that send.

use std::cell::RefCell;
use std::rc::Rc;

use oam_am::Am;
use oam_model::{FaultPlan, MachineConfig, NodeId, NodeStats};
use oam_net::Network;
use oam_rpc::{define_rpc_service, Rpc, RpcMode};
use oam_sim::Sim;
use oam_threads::Node;

fn build(cfg: MachineConfig) -> (Sim, Rpc, Vec<Rc<RefCell<NodeStats>>>) {
    let sim = Sim::new(23);
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

pub struct ChainState {
    pub level: u32,
}

define_rpc_service! {
    /// A call that forwards to the next node — a handler performing a
    /// synchronous nested RPC.
    service Chain {
        state ChainState;

        /// Forward `hops` more times, collecting the path.
        rpc relay(ctx, st, hops: u32, path: Vec<u32>) -> Vec<u32> {
            let mut path = path;
            path.push(ctx.node().id().index() as u32);
            let _ = st.level;
            if hops == 0 {
                path
            } else {
                let next = oam_rpc::NodeId((ctx.node().id().index() + 1) % ctx.node().nprocs());
                // A synchronous call inside the handler: the optimistic
                // execution must abort (it waits) and complete as a
                // promoted thread.
                Chain::relay::call(&ctx.rpc, ctx.node(), next, hops - 1, path).await.expect("reply decode")
            }
        }

        /// Return `n` bytes; `pad` sizes the request. A request is
        /// `[call_id][pad len][pad][n]`, 12 bytes plus the pad, and a reply
        /// `[call_id][len][bytes]`, 8 bytes plus `n`.
        rpc big(ctx, st, pad: Vec<u8>, n: u32) -> Vec<u8> {
            let _ = (ctx, st, pad);
            (0..n).map(|i| i as u8).collect()
        }
    }
}

fn setup(rpc: &Rpc, mode: RpcMode) {
    for node in rpc.nodes() {
        Chain::register_all(rpc, node.id(), Rc::new(ChainState { level: 0 }), mode);
    }
}

#[test]
fn nested_synchronous_calls_abort_and_complete_as_threads() {
    let (sim, rpc, stats) = build(MachineConfig::cm5(4));
    setup(&rpc, RpcMode::Orpc);
    let node0 = rpc.nodes()[0].clone();
    let (r, n0) = (rpc.clone(), node0.clone());
    let got: Rc<RefCell<Vec<u32>>> = Rc::default();
    let g = got.clone();
    node0.spawn(async move {
        *g.borrow_mut() =
            Chain::relay::call(&r, &n0, NodeId(1), 5, Vec::new()).await.expect("reply decode");
    });
    sim.run();
    assert_eq!(*got.borrow(), vec![1, 2, 3, 0, 1, 2], "the relay visited six nodes in ring order");
    let total: NodeStats = {
        let mut acc = NodeStats::new();
        for s in &stats {
            acc.merge(&s.borrow());
        }
        acc
    };
    // Every relay hop except the last waits on a nested reply → aborts
    // (ConditionFalse via the reply spin) and is promoted.
    assert_eq!(total.oam_attempts, 6);
    assert_eq!(total.oam_successes, 1, "only the terminal hop completes inline");
    assert_eq!(total.oam_promotions, 5);
}

#[test]
fn nested_calls_also_work_under_trpc() {
    let (sim, rpc, _) = build(MachineConfig::cm5(3));
    setup(&rpc, RpcMode::Trpc);
    let node0 = rpc.nodes()[0].clone();
    let (r, n0) = (rpc.clone(), node0.clone());
    let got: Rc<RefCell<Vec<u32>>> = Rc::default();
    let g = got.clone();
    node0.spawn(async move {
        *g.borrow_mut() =
            Chain::relay::call(&r, &n0, NodeId(1), 3, Vec::new()).await.expect("reply decode");
    });
    sim.run();
    assert_eq!(*got.borrow(), vec![1, 2, 0, 1]);
}

/// Call `big` from node 0 on node 1 `calls` times, checking each reply.
fn call_big(cfg: MachineConfig, pad: usize, n: u32, calls: u32) -> Vec<NodeStats> {
    let (sim, rpc, stats) = build(cfg);
    setup(&rpc, RpcMode::Orpc);
    let node0 = rpc.nodes()[0].clone();
    let (r, n0) = (rpc.clone(), node0.clone());
    let ok = Rc::new(RefCell::new(0));
    let okc = ok.clone();
    node0.spawn(async move {
        for _ in 0..calls {
            let v = Chain::big::call(&r, &n0, NodeId(1), vec![7; pad], n).await.expect("decode");
            assert_eq!(v.len(), n as usize);
            assert_eq!(v.last().copied(), n.checked_sub(1).map(|i| i as u8));
            *okc.borrow_mut() += 1;
        }
    });
    sim.run();
    assert_eq!(*ok.borrow(), calls, "every call answered");
    let out = stats.iter().map(|s| s.borrow().clone()).collect();
    out
}

#[test]
fn bulk_reply_roundtrips_large_data() {
    // A payload of 16 bytes with its call header fits the CM-5's four
    // argument words and goes as a short message; 17 bytes go through the
    // bulk engine, requests (counted on the caller) and replies (counted
    // on the server) alike. The last row's reply is 80 KB.
    for (pad, n, request_bulk, reply_bulk) in
        [(4, 8, 0, 0), (5, 8, 1, 0), (4, 9, 0, 1), (0, 80_000, 0, 1)]
    {
        let stats = call_big(MachineConfig::cm5(2), pad, n, 1);
        let row = format!("request {} bytes, reply {} bytes", 12 + pad, 8 + n);
        assert_eq!(stats[0].bulk_transfers_sent, request_bulk, "{row}");
        assert_eq!(stats[1].bulk_transfers_sent, reply_bulk, "{row}");
    }
}

#[test]
fn a_retransmitted_17_byte_request_goes_bulk_again() {
    // Lost replies make the caller retransmit; every copy of a 17-byte
    // request goes through the bulk engine (bulk transfers are not
    // dropped, so each call's first copy arrives).
    let cfg =
        MachineConfig::cm5(2).with_fault_plan(FaultPlan::drop_only(0.5)).with_retransmission();
    let stats = call_big(cfg, 5, 8, 8);
    let caller = &stats[0];
    assert!(caller.retransmits > 0, "the plan dropped replies");
    assert_eq!(caller.bulk_transfers_sent, 8 + caller.retransmits);
}

#[test]
fn deep_recursion_respects_dispatch_depth_limits() {
    // A two-node ping-pong chain with many hops stresses nested dispatch
    // (send-drain can run handlers inside handlers); the depth cap must
    // keep it bounded rather than overflowing the real stack.
    let (sim, rpc, _) = build(MachineConfig::cm5(2));
    setup(&rpc, RpcMode::Orpc);
    let node0 = rpc.nodes()[0].clone();
    let (r, n0) = (rpc.clone(), node0.clone());
    let got: Rc<RefCell<usize>> = Rc::default();
    let g = got.clone();
    node0.spawn(async move {
        let path =
            Chain::relay::call(&r, &n0, NodeId(1), 40, Vec::new()).await.expect("reply decode");
        *g.borrow_mut() = path.len();
    });
    sim.run();
    assert_eq!(*got.borrow(), 41);
}
