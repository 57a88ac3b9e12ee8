//! Network edge cases beyond the unit tests: launch-delay ordering, link
//! sharing between bulk and short traffic, self-traffic, and quiescence
//! accounting.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use oam_model::{Dur, MachineConfig, NodeId, NodeStats, Time};
use oam_net::{Network, Packet, PacketKind};
use oam_sim::Sim;

fn mk(nodes: usize, tweak: impl FnOnce(&mut MachineConfig)) -> (Sim, Network) {
    let sim = Sim::new(77);
    let mut cfg = MachineConfig::cm5(nodes);
    tweak(&mut cfg);
    let stats = (0..nodes).map(|_| Rc::new(RefCell::new(NodeStats::new()))).collect();
    (sim.clone(), Network::new(&sim, &cfg, stats))
}

#[test]
fn launch_delay_orders_the_packet_after_pending_costs() {
    let (sim, net) = mk(2, |_| {});
    let arrived = Rc::new(Cell::new(Time::MAX));
    let a = arrived.clone();
    net.set_arrival_hook(NodeId(1), move |s| a.set(s.now()));
    // 50 µs of unsettled sender cost: the packet may not pump before then.
    net.try_inject_after(Packet::short(NodeId(0), NodeId(1), 1, vec![]), Dur::from_micros(50))
        .unwrap();
    sim.run();
    assert_eq!(arrived.get(), Time::from_nanos(50_000 + 2_700));
}

#[test]
fn delayed_head_does_not_reorder_the_fifo() {
    let (sim, net) = mk(2, |_| {});
    // First packet delayed, second immediate: per-pair FIFO must hold —
    // the second waits behind the first.
    net.try_inject_after(Packet::short(NodeId(0), NodeId(1), 1, vec![]), Dur::from_micros(30))
        .unwrap();
    net.try_inject(Packet::short(NodeId(0), NodeId(1), 2, vec![])).unwrap();
    sim.run();
    let tags: Vec<u32> = std::iter::from_fn(|| net.poll(NodeId(1))).map(|p| p.tag).collect();
    assert_eq!(tags, vec![1, 2]);
}

#[test]
fn node_can_send_to_itself() {
    let (sim, net) = mk(2, |_| {});
    net.try_inject(Packet::short(NodeId(0), NodeId(0), 9, vec![42])).unwrap();
    sim.run();
    let p = net.poll(NodeId(0)).expect("self-delivery");
    assert_eq!(p.tag, 9);
    assert_eq!(p.payload, vec![42]);
    assert_eq!(net.in_flight(), 0);
}

#[test]
fn bulk_transfers_between_disjoint_pairs_proceed_in_parallel() {
    let (sim, net) = mk(4, |_| {});
    let done: Rc<RefCell<Vec<(u32, Time)>>> = Rc::default();
    for (i, (src, dst)) in [(0usize, 1usize), (2, 3)].into_iter().enumerate() {
        let d = done.clone();
        net.set_arrival_hook(NodeId(dst), move |s| d.borrow_mut().push((i as u32, s.now())));
        net.start_bulk(NodeId(src), NodeId(dst), i as u32, vec![0u8; 1_000]);
    }
    sim.run();
    let done = done.borrow();
    assert_eq!(done.len(), 2);
    assert_eq!(done[0].1, done[1].1, "disjoint pairs complete simultaneously");
}

#[test]
fn bulk_transfers_sharing_a_receiver_serialize_on_its_in_link() {
    let (sim, net) = mk(3, |_| {});
    let done: Rc<RefCell<Vec<Time>>> = Rc::default();
    let d = done.clone();
    net.set_arrival_hook(NodeId(2), move |s| d.borrow_mut().push(s.now()));
    for src in [0usize, 1] {
        net.start_bulk(NodeId(src), NodeId(2), src as u32, vec![0u8; 1_000]);
    }
    sim.run();
    let done = done.borrow();
    // 1000 B × 0.1 µs/B = 100 µs each; the second waits for the in-link.
    let gap = done[1].since(done[0]);
    assert!(
        (Dur::from_micros(95)..=Dur::from_micros(105)).contains(&gap),
        "second transfer serialized behind the first: gap {gap}"
    );
}

#[test]
fn short_packets_and_bulk_interleave_without_loss() {
    let (sim, net) = mk(2, |_| {});
    for i in 0..10u32 {
        net.try_inject(Packet::short(NodeId(0), NodeId(1), i, vec![])).unwrap();
        if i % 3 == 0 {
            net.start_bulk(NodeId(0), NodeId(1), 100 + i, vec![0u8; 64]);
        }
        // Let the pump drain the (4-deep) output FIFO between batches.
        sim.run();
    }
    let mut shorts = 0;
    let mut bulks = 0;
    while let Some(p) = net.poll(NodeId(1)) {
        match p.kind {
            PacketKind::Short => shorts += 1,
            PacketKind::BulkDone => bulks += 1,
        }
    }
    assert_eq!((shorts, bulks), (10, 4));
    assert_eq!(net.in_flight(), 0);
}

#[test]
fn input_depth_tracks_everything_pollable() {
    let (sim, net) = mk(2, |_| {});
    net.try_inject(Packet::short(NodeId(0), NodeId(1), 0, vec![])).unwrap();
    net.start_bulk(NodeId(0), NodeId(1), 1, vec![0u8; 32]);
    sim.run();
    assert_eq!(net.input_depth(NodeId(1)), 2);
    let _ = net.poll(NodeId(1));
    assert_eq!(net.input_depth(NodeId(1)), 1);
    let _ = net.poll(NodeId(1));
    assert_eq!(net.input_depth(NodeId(1)), 0);
}

#[test]
fn output_space_callbacks_fire_once_per_registration() {
    let (sim, net) = mk(2, |c| c.ni_out_capacity = 1);
    net.try_inject(Packet::short(NodeId(0), NodeId(1), 0, vec![])).unwrap();
    let fired = Rc::new(Cell::new(0u32));
    let f = fired.clone();
    net.on_output_space(NodeId(0), move |_| f.set(f.get() + 1));
    sim.run();
    assert_eq!(fired.get(), 1);
    // Further pumps must not re-fire the consumed callback.
    net.try_inject(Packet::short(NodeId(0), NodeId(1), 1, vec![])).unwrap();
    sim.run();
    assert_eq!(fired.get(), 1);
}
