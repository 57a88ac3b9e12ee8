//! Randomized property tests over the core data structures and invariants.
//!
//! These used to run under an external property-testing framework; they now
//! drive the same invariants from the repo's own deterministic [`Prng`], so
//! the whole suite builds offline and every failure is reproducible from
//! the case seed printed in the assertion message.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use optimistic_active_messages::apps::service::{self, ServiceParams};
use optimistic_active_messages::apps::triangle::Board;
use optimistic_active_messages::machine::MachineBuilder;
use optimistic_active_messages::model::{Dur, MachineConfig, NodeId, NodeStats, Time};
use optimistic_active_messages::net::{BufPool, Network, Packet, PayloadBuf};
use optimistic_active_messages::rpc::{define_rpc_service, from_bytes, to_bytes, to_payload};
use optimistic_active_messages::sim::{event_key, EventId, Prng, Sim, KEY_CLASS_NODE};
use optimistic_active_messages::threads::{Mutex, Node};

/// Run `case` once per seed with an independent generator. The seed is the
/// case number, so a failing case replays exactly.
fn for_cases(cases: u64, mut case: impl FnMut(u64, &mut Prng)) {
    for c in 0..cases {
        let mut rng = Prng::seed_from_u64(0xBA5E ^ c.wrapping_mul(0x9E37_79B9));
        case(c, &mut rng);
    }
}

// ---------------------------------------------------------------------
// Wire format
// ---------------------------------------------------------------------

#[test]
fn wire_roundtrips_scalars() {
    for_cases(256, |case, r| {
        let v = (r.next_u64(), r.next_u64() as i32, f64::from_bits(r.next_u64()), r.gen_bool(0.5));
        let back: (u64, i32, f64, bool) = from_bytes(&to_bytes(&v)).unwrap();
        assert_eq!(back.0, v.0, "case {case}");
        assert_eq!(back.1, v.1, "case {case}");
        // NaN-safe comparison via bits.
        assert_eq!(back.2.to_bits(), v.2.to_bits(), "case {case}");
        assert_eq!(back.3, v.3, "case {case}");
    });
}

#[test]
fn wire_roundtrips_containers() {
    for_cases(128, |case, r| {
        let v: Vec<(u32, Option<u16>)> = (0..r.gen_below(20))
            .map(|_| {
                let opt = if r.gen_bool(0.5) { Some(r.next_u64() as u16) } else { None };
                (r.next_u64() as u32, opt)
            })
            .collect();
        let s: String =
            (0..r.gen_below(32)).map(|_| char::from(b'a' + r.gen_below(26) as u8)).collect();
        let payload = (v, s);
        let back: (Vec<(u32, Option<u16>)>, String) = from_bytes(&to_bytes(&payload)).unwrap();
        assert_eq!(back, payload, "case {case}");
    });
}

#[test]
fn wire_rejects_arbitrary_truncation() {
    for_cases(128, |case, r| {
        let v: Vec<u64> = (0..r.gen_below(16)).map(|_| r.next_u64()).collect();
        let bytes = to_bytes(&v);
        let cut = ((bytes.len() as f64) * r.gen_f64()) as usize;
        if cut < bytes.len() {
            let back: Result<Vec<u64>, _> = from_bytes(&bytes[..cut]);
            assert!(back.is_err(), "case {case}: truncated decode at {cut} succeeded");
        }
    });
}

// ---------------------------------------------------------------------
// Payload buffers and the pool
// ---------------------------------------------------------------------

/// Exact sizes straddling the inline/heap boundary (`SHORT_PAYLOAD_MAX` =
/// 16), plus a bulk-sized buffer.
const BOUNDARY_SIZES: [usize; 5] = [0, 15, 16, 17, 4096];

#[test]
fn payload_roundtrips_across_the_inline_boundary() {
    let pool = BufPool::new();
    for n in BOUNDARY_SIZES {
        let data: Vec<u8> = (0..n).map(|i| (i % 251) as u8).collect();
        // Through the pooled wire writer (length-prefixed encoding)...
        let p = to_payload(&data, &pool);
        let back: Vec<u8> = from_bytes(p.as_slice()).unwrap();
        assert_eq!(back, data, "wire roundtrip, len {n}");
        // ...and through both raw representations directly.
        let raw = if n <= optimistic_active_messages::net::SHORT_PAYLOAD_MAX {
            PayloadBuf::inline(&data)
        } else {
            PayloadBuf::heap(data.clone())
        };
        assert_eq!(raw.as_slice(), &data[..], "raw payload, len {n}");
        assert_eq!(&*raw.view_from(0), &data[..], "zero-copy view, len {n}");
        // Sharing is by reference: a clone reads the same bytes.
        assert_eq!(raw.clone().as_slice(), raw.as_slice(), "clone, len {n}");
    }
}

/// Recycling a pooled buffer must never hand out storage that a live
/// payload still reads. Payloads (and `Rc`-shared clones of them) are
/// created and dropped in random order; after every operation each
/// survivor must still read back exactly its own bytes. In debug builds
/// reclaimed storage is poisoned with a sentinel, so any alias shows up as
/// a byte mismatch here.
#[test]
fn pool_recycling_never_aliases_a_live_payload() {
    for_cases(64, |case, r| {
        let pool = BufPool::new();
        let mut live: Vec<(PayloadBuf, Vec<u8>)> = Vec::new();
        for step in 0..200u64 {
            if r.gen_bool(0.6) || live.is_empty() {
                let n = 17 + r.gen_below(200) as usize;
                let fill = (step % 251) as u8;
                let mut buf = pool.lease(n);
                buf.resize(n, fill);
                let p = pool.wrap(buf);
                let expect = vec![fill; n];
                if r.gen_bool(0.5) {
                    live.push((p.clone(), expect.clone()));
                }
                live.push((p, expect));
            } else {
                let i = r.gen_below(live.len() as u64) as usize;
                live.swap_remove(i); // last Rc drop reclaims into the pool
            }
            for (p, expect) in &live {
                assert_eq!(p.as_slice(), &expect[..], "case {case} step {step}: aliased");
            }
        }
        assert!(pool.stats().reuses > 0, "case {case}: recycling was actually exercised");
    });
}

/// State for the [`Echo`] test service.
pub struct EchoState;

define_rpc_service! {
    /// Round-trips its argument, whatever transport the size selects.
    service Echo {
        state EchoState;

        /// Return the payload unchanged.
        rpc echo(ctx, st, data: Vec<u8>) -> Vec<u8> {
            let _ = (ctx, st);
            data
        }
    }
}

/// End-to-end echo across the short-AM/bulk-transfer boundary: the stub
/// picks the transport by size, and every boundary size must come back
/// bit-identical through marshaling, pooled buffers, and dispatch.
#[test]
fn echo_rpc_roundtrips_across_the_short_bulk_boundary() {
    let machine = MachineBuilder::from_config(MachineConfig::cm5(2)).build();
    for i in 0..2 {
        Echo::register_all(
            machine.rpc(),
            NodeId(i),
            Rc::new(EchoState),
            optimistic_active_messages::rpc::RpcMode::Orpc,
        );
    }
    machine.run(|env| async move {
        if env.id().index() == 0 {
            for n in BOUNDARY_SIZES {
                let data: Vec<u8> = (0..n).map(|i| (i.wrapping_mul(37) % 256) as u8).collect();
                let back = Echo::echo::call(env.rpc(), env.node(), NodeId(1), data.clone())
                    .await
                    .expect("reply decode");
                assert_eq!(back, data, "echo len {n}");
            }
        }
        env.barrier().await;
    });
}

// ---------------------------------------------------------------------
// Simulation core
// ---------------------------------------------------------------------

#[test]
fn events_fire_once_in_nondecreasing_time_order() {
    for_cases(64, |case, r| {
        let delays: Vec<u64> = (0..1 + r.gen_below(63)).map(|_| r.gen_below(10_000)).collect();
        let sim = Sim::new(1);
        let fired: Rc<RefCell<Vec<(usize, Time)>>> = Rc::default();
        for (i, d) in delays.iter().enumerate() {
            let f = fired.clone();
            sim.schedule_after(Dur::from_nanos(*d), move |s| f.borrow_mut().push((i, s.now())));
        }
        sim.run();
        let log = fired.borrow();
        assert_eq!(log.len(), delays.len(), "case {case}: each event exactly once");
        assert!(log.windows(2).all(|w| w[0].1 <= w[1].1), "case {case}: time order");
        // Firing times equal the scheduled delays.
        for (i, t) in log.iter() {
            assert_eq!(t.as_nanos(), delays[*i], "case {case}");
        }
    });
}

/// State of [`continuations_fire_in_time_and_key_order`]: a sorted
/// reference of what is pending, mirrored key for key.
struct OrderModel {
    case: u64,
    rng: Prng,
    /// Per-node class-0 counters, advanced exactly as the simulator does.
    counters: [u64; 4],
    /// Pending events by `(time, key)`: the order they must fire in.
    pending: std::collections::BTreeSet<(Time, u64)>,
    /// Cancellable events issued so far, fired or not.
    ids: Vec<(EventId, (Time, u64))>,
    /// Events still to issue.
    budget: u32,
}

/// Issue one random operation: a continuation, an ordinary event, or a
/// cancellation of an earlier ordinary event.
fn issue(sim: &Sim, model: &Rc<RefCell<OrderModel>>) {
    let mut m = model.borrow_mut();
    let m = &mut *m;
    if m.budget == 0 {
        return;
    }
    m.budget -= 1;
    let op = m.rng.gen_below(3);
    if op == 2 && !m.ids.is_empty() {
        let i = m.rng.gen_below(m.ids.len() as u64) as usize;
        let (id, at) = m.ids[i];
        let pending = m.pending.contains(&at);
        assert_eq!(sim.cancel(id), pending, "case {}: cancel succeeds on pending events", m.case);
        m.pending.remove(&at);
        return;
    }
    let node = m.rng.gen_below(4) as u32;
    // Small delays, so many events share an instant and order by key.
    let after = Dur::from_nanos(m.rng.gen_below(48));
    let key = event_key(node, KEY_CLASS_NODE, m.counters[node as usize]);
    m.counters[node as usize] += 1;
    let at = (sim.now() + after, key);
    m.pending.insert(at);
    let (case, model2) = (m.case, Rc::clone(model));
    let action = move |sim: &Sim| {
        let first = model2.borrow_mut().pending.pop_first();
        assert_eq!(first, Some((sim.now(), key)), "case {case}: fired out of (time, key) order");
        let fanout = model2.borrow_mut().rng.gen_below(4);
        for _ in 0..fanout {
            issue(sim, &model2);
        }
    };
    if op == 0 {
        sim.settle_for(after, node, false, action);
    } else {
        let id = sim.schedule_after_for(after, node, action);
        m.ids.push((id, at));
    }
}

/// Continuations, ordinary events and cancellations, issued at random from
/// inside running events: every event that fires is the `(time, key)`
/// minimum of a sorted reference of what is pending, so routing an event
/// through the continuation slot never changes the firing order.
#[test]
fn continuations_fire_in_time_and_key_order() {
    for_cases(64, |case, r| {
        let model = Rc::new(RefCell::new(OrderModel {
            case,
            rng: Prng::seed_from_u64(r.next_u64()),
            counters: [0; 4],
            pending: Default::default(),
            ids: Vec::new(),
            budget: 64 + r.gen_below(256) as u32,
        }));
        let sim = Sim::new(case);
        for _ in 0..8 {
            issue(&sim, &model);
        }
        sim.run();
        let m = model.borrow();
        assert!(m.pending.is_empty(), "case {case}: every pending event fired");
        assert_eq!(sim.event_queue_depth(), 0, "case {case}");
    });
}

#[test]
fn same_seed_same_trace() {
    for_cases(64, |case, r| {
        let seed = r.next_u64();
        let delays: Vec<u64> = (0..1 + r.gen_below(23)).map(|_| 1 + r.gen_below(4_999)).collect();
        let run = |seed: u64| {
            let sim = Sim::new(seed);
            for d in &delays {
                let jitter = sim.with_rng_for(0, |r| r.gen_below(100));
                sim.schedule_after(Dur::from_nanos(*d + jitter), |_| {});
            }
            (sim.run(), sim.events_executed())
        };
        assert_eq!(run(seed), run(seed), "case {case}");
    });
}

// ---------------------------------------------------------------------
// Network
// ---------------------------------------------------------------------

/// Any traffic pattern, any (valid) capacities: every packet is delivered
/// exactly once, and packets between a given (src, dst) pair arrive in
/// FIFO order. (Cross-source order at one destination is not guaranteed —
/// links pump independently.)
#[test]
fn network_delivers_exactly_once_in_order() {
    for_cases(48, |case, r| {
        let sends: Vec<(usize, usize, usize)> = (0..1 + r.gen_below(99))
            .map(|_| (r.gen_below(4) as usize, r.gen_below(4) as usize, r.gen_below(8) as usize))
            .collect();
        let sim = Sim::new(9);
        let mut cfg = MachineConfig::cm5(4);
        cfg.ni_out_capacity = 1 + r.gen_below(5) as usize;
        cfg.ni_in_capacity = 1 + r.gen_below(5) as usize;
        cfg.fabric_capacity = 1 + r.gen_below(7) as usize;
        let stats: Vec<_> = (0..4).map(|_| Rc::new(RefCell::new(NodeStats::new()))).collect();
        let net = Network::new(&sim, &cfg, stats);
        let mut accepted: Vec<Vec<u32>> = vec![Vec::new(); 16]; // per (src,dst) tags in send order
        let mut delivered: Vec<Vec<u32>> = vec![Vec::new(); 16];
        let drain = |delivered: &mut Vec<Vec<u32>>| {
            let mut n_drained = 0;
            for n in 0..4 {
                while let Some(p) = net.poll(NodeId(n)) {
                    delivered[p.src.index() * 4 + n].push(p.tag);
                    n_drained += 1;
                }
            }
            n_drained
        };
        // (`seq` tags packets; it is not an index into `sends`.)
        for (seq, (src, dst, len)) in sends.iter().enumerate() {
            let pkt = Packet::short(NodeId(*src), NodeId(*dst), seq as u32, vec![0u8; *len]);
            // Retry until accepted, draining receivers to make space.
            loop {
                match net.try_inject(pkt.clone()) {
                    Ok(()) => {
                        accepted[*src * 4 + *dst].push(seq as u32);
                        break;
                    }
                    Err(_) => {
                        sim.run();
                        drain(&mut delivered);
                    }
                }
            }
        }
        // Drain everything.
        loop {
            sim.run();
            if drain(&mut delivered) == 0 && net.in_flight() == 0 {
                break;
            }
        }
        for pair in 0..16 {
            assert_eq!(
                delivered[pair],
                accepted[pair],
                "case {case} pair src={} dst={}: exactly-once FIFO",
                pair / 4,
                pair % 4
            );
        }
        assert_eq!(net.in_flight(), 0, "case {case}");
    });
}

// ---------------------------------------------------------------------
// Thread package
// ---------------------------------------------------------------------

/// Mutual exclusion holds under arbitrary charge patterns: a critical
/// counter never sees concurrent entry, and every thread completes.
#[test]
fn mutex_guarantees_mutual_exclusion() {
    for_cases(32, |case, r| {
        let charges: Vec<u64> = (0..2 + r.gen_below(10)).map(|_| r.gen_below(40)).collect();
        let sim = Sim::new(3);
        let cfg = Rc::new(MachineConfig::cm5(1));
        let stats = Rc::new(RefCell::new(NodeStats::new()));
        let node = Node::new(&sim, NodeId(0), 1, cfg, stats);
        let m = Mutex::new(&node, ());
        let inside = Rc::new(Cell::new(0u32));
        let max_inside = Rc::new(Cell::new(0u32));
        let completed = Rc::new(Cell::new(0usize));
        for us in charges.clone() {
            let (m, node2) = (m.clone(), node.clone());
            let (i, mx, c) = (inside.clone(), max_inside.clone(), completed.clone());
            node.spawn(async move {
                node2.charge(Dur::from_micros(us / 2)).await;
                let _g = m.lock().await;
                i.set(i.get() + 1);
                mx.set(mx.get().max(i.get()));
                node2.charge(Dur::from_micros(us)).await;
                node2.yield_now().await;
                i.set(i.get() - 1);
                c.set(c.get() + 1);
            });
        }
        sim.run();
        assert_eq!(completed.get(), charges.len(), "case {case}: all threads finish");
        assert_eq!(max_inside.get(), 1, "case {case}: never two inside the critical section");
    });
}

// ---------------------------------------------------------------------
// Application substrate invariants
// ---------------------------------------------------------------------

#[test]
fn triangle_jumps_are_reversible() {
    for_cases(256, |case, r| {
        let size = 4 + r.gen_below(4) as usize;
        let moves: Vec<usize> = (0..r.gen_below(12)).map(|_| r.gen_below(200) as usize).collect();
        let board = Board::new(size);
        let mut pos = board.initial();
        for pick in moves {
            let mut succs = Vec::new();
            board.for_each_successor(pos, |s| succs.push(s));
            if succs.is_empty() {
                break;
            }
            let next = succs[pick % succs.len()];
            // Peg count decreases by exactly one per jump.
            assert_eq!(Board::pegs(next), Board::pegs(pos) - 1, "case {case}");
            pos = next;
        }
    });
}

#[test]
fn sor_partition_is_exact_for_any_shape() {
    use optimistic_active_messages::apps::sor::partition;
    for_cases(256, |case, r| {
        let rows = 1 + r.gen_below(599) as usize;
        let p = 1 + r.gen_below(128) as usize;
        if p > rows {
            return;
        }
        let mut total = 0;
        let mut prev_end = 0;
        for i in 0..p {
            let (a, b) = partition(rows, p, i);
            assert_eq!(a, prev_end, "case {case}: contiguous");
            assert!(b > a, "case {case}: non-empty");
            total += b - a;
            prev_end = b;
        }
        assert_eq!(total, rows, "case {case}");
    });
}

#[test]
fn water_half_shell_covers_each_pair_once() {
    use optimistic_active_messages::apps::water::targets;
    for p in 2usize..40 {
        let mut seen = std::collections::HashSet::new();
        for a in 0..p {
            for b in targets(a, p) {
                assert!(seen.insert((a.min(b), a.max(b))), "p={p}");
            }
        }
        assert_eq!(seen.len(), p * (p - 1) / 2, "p={p}");
    }
}

// ---------------------------------------------------------------------
// Calendar queue (the executor's event queue)
// ---------------------------------------------------------------------

/// The calendar queue must dequeue in exactly the order a
/// `BinaryHeap<Reverse<(Time, seq)>>` would — the executor's determinism
/// rests on the two being interchangeable. The workload mixes heavy ties
/// (equal times, distinct seqs), small steps inside one calendar day,
/// mid-range steps across days, and jumps far beyond the wheel horizon
/// (`NBUCKETS << DAY_SHIFT` ns) so near-wheel, current-bucket merge, and
/// far-heap paths are all exercised, with pushes interleaved among pops.
/// Each case then drains the queue and refills it in bursts of exact ties
/// over many days, so buckets run on storage earlier days gave up.
#[test]
fn calendar_queue_matches_binary_heap_order() {
    use optimistic_active_messages::sim::calq::{CalendarQueue, Entry, DAY_SHIFT, NBUCKETS};
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    type Heap = BinaryHeap<Reverse<(Time, u64)>>;
    fn push(cq: &mut CalendarQueue, heap: &mut Heap, t: u64, seq: &mut u64) {
        cq.push(Entry { t: Time::from_nanos(t), seq: *seq, slot: 0, gen: 0 });
        heap.push(Reverse((Time::from_nanos(t), *seq)));
        *seq += 1;
    }
    /// Pop both, check they agree, and return the popped time.
    fn pop(cq: &mut CalendarQueue, heap: &mut Heap, case: u64) -> Option<u64> {
        let a = cq.pop().map(|e| (e.t, e.seq));
        let b = heap.pop().map(|Reverse(k)| k);
        assert_eq!(a, b, "case {case}: pop");
        assert_eq!(cq.len(), heap.len(), "case {case}: len");
        a.map(|(t, _)| t.as_nanos())
    }

    let horizon = (NBUCKETS as u64) << DAY_SHIFT;
    for_cases(48, |case, r| {
        let mut cq = CalendarQueue::new();
        let mut heap = Heap::new();
        let mut seq = 0u64;
        // `now` mirrors the executor clock: pushes are clamped to it, so the
        // queue never sees a time earlier than the last pop.
        let mut now = 0u64;
        let ops = 300 + r.gen_below(300);
        for _ in 0..ops {
            if r.gen_bool(0.6) || heap.is_empty() {
                let t = match r.gen_below(8) {
                    0..=2 => now,                                // exact ties
                    3..=4 => now + r.gen_below(1 << DAY_SHIFT),  // same day
                    5..=6 => now + r.gen_below(64 << DAY_SHIFT), // across days
                    _ => now + horizon + r.gen_below(horizon),   // beyond horizon
                };
                push(&mut cq, &mut heap, t, &mut seq);
            } else {
                if r.gen_bool(0.25) {
                    let p = cq.peek().map(|e| (e.t, e.seq));
                    assert_eq!(p, heap.peek().map(|Reverse(k)| *k), "case {case}: peek");
                }
                if let Some(t) = pop(&mut cq, &mut heap, case) {
                    now = t;
                }
            }
            assert_eq!(cq.len(), heap.len(), "case {case}: len");
        }
        // Drain both completely; the tails must agree entry for entry.
        while let Some(t) = pop(&mut cq, &mut heap, case) {
            now = t;
        }
        assert!(cq.is_empty(), "case {case}");
        // Bursts: up to 64 ties at each of many times spread over the
        // wheel and past its horizon; pop about half, refill, and drain to
        // empty each round.
        for _ in 0..3 {
            for _ in 0..2 {
                for _ in 0..8 + r.gen_below(56) {
                    let t = now + r.gen_below(2 * horizon);
                    for _ in 0..1 + r.gen_below(64) {
                        push(&mut cq, &mut heap, t, &mut seq);
                    }
                }
                for _ in 0..cq.len() / 2 {
                    now = pop(&mut cq, &mut heap, case).expect("half of a non-empty queue");
                }
            }
            while let Some(t) = pop(&mut cq, &mut heap, case) {
                now = t;
            }
            assert!(cq.is_empty(), "case {case}: burst round drains");
        }
    });
}

// ---------------------------------------------------------------------
// Shard partitioning
// ---------------------------------------------------------------------

/// Every shard partition must cover every node exactly once, with no
/// overlap, in contiguous per-shard ranges, and `shard_range` must agree
/// with the owner table for every shard.
#[test]
fn shard_partition_covers_every_node_exactly_once() {
    use optimistic_active_messages::sim::{partition, shard_range};
    for_cases(200, |case, rng| {
        let nodes = 1 + rng.gen_below(200) as usize;
        let shards = 1 + rng.gen_below(32) as usize;
        let owners = partition(nodes, shards);
        assert_eq!(owners.len(), nodes, "case {case}: one owner per node");
        // Owners are non-decreasing (contiguous ranges) and within bounds.
        let effective = shards.min(nodes);
        for w in owners.windows(2) {
            assert!(w[0] <= w[1], "case {case}: owners must be sorted: {owners:?}");
            assert!(w[1] <= w[0] + 1, "case {case}: no shard skipped: {owners:?}");
        }
        assert_eq!(owners[0], 0, "case {case}");
        assert_eq!(owners[nodes - 1], effective - 1, "case {case}: all shards used");
        // shard_range reproduces the owner table exactly; the ranges
        // tile [0, nodes) with no gap and no overlap.
        let mut covered = vec![0u32; nodes];
        let mut sizes = Vec::new();
        for s in 0..effective {
            let r = shard_range(nodes, effective, s);
            sizes.push(r.len());
            for i in r {
                assert_eq!(owners[i], s, "case {case}: range/owner mismatch at node {i}");
                covered[i] += 1;
            }
        }
        assert!(covered.iter().all(|&c| c == 1), "case {case}: coverage {covered:?}");
        // Balanced: sizes differ by at most one.
        let (lo, hi) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
        assert!(hi - lo <= 1, "case {case}: unbalanced {sizes:?}");
    });
}

// ---------------------------------------------------------------------
// Admission control
// ---------------------------------------------------------------------

/// Under any seed and any shard count, the admission gate's two contracts
/// hold: the pending-call count never exceeds the configured budget (the
/// per-node high-water mark is recorded as `admission_peak`), and every
/// shed call is answered with exactly one NACK — no silent drops, no
/// duplicate refusals. With the default Promote abort strategy the shed
/// path is the only NACK producer, so the two counters must agree to the
/// message. The shard dimension also pins partition invariance: the same
/// overload story must come out of the 1-shard and 2-shard engines.
#[test]
fn admission_budget_holds_and_every_shed_call_nacks_exactly_once() {
    for_cases(4, |case, r| {
        let seed = r.next_u64();
        let mut per_shard = Vec::new();
        for shards in [1usize, 2] {
            let cfg = MachineConfig::cm5(4).with_seed(seed).with_shards(shards);
            let params = ServiceParams { load_x100: 250, arrivals: 48, ..ServiceParams::default() };
            let o = service::run(cfg, params);
            let t = o.app.stats.total();
            for n in &o.app.stats.per_node {
                assert!(
                    n.admission_peak <= service::PENDING_BUDGET as u64,
                    "case {case} shards {shards}: peak {} exceeds budget {}",
                    n.admission_peak,
                    service::PENDING_BUDGET
                );
            }
            assert_eq!(t.oam_nacks_sent, 0, "case {case}: Promote strategy never abort-NACKs");
            assert_eq!(
                t.calls_shed, t.nacks_received,
                "case {case} shards {shards}: each shed call gets exactly one NACK"
            );
            per_shard.push((o.app.answer, o.app.elapsed, o.completed, o.shed, o.app.stats));
        }
        assert_eq!(
            per_shard[0], per_shard[1],
            "case {case}: shard count must not change the story"
        );
    });
}
