//! Allocation budgets of the blocking and bulk paths.
//!
//! A SOR iteration under ORPC sends two edge rows in bulk, blocks on
//! boundary buffers through a mutex and condition variables, and joins a
//! reduction whose contributions cross shards. Of all that, only decoding
//! the two received rows allocates (the handler owns its argument), so the
//! extra allocations per extra node-iteration stay near 2.0. Each of these
//! would push it to 3.0 or more: a wait that allocates its wake flag, a
//! pooled payload that allocates its `Rc`, a contribution that boxes its
//! value for the other shard, or an edge row cloned for each send.
//!
//! The primitives are also checked one at a time: warm waits, the payload
//! pool's wrap → drop → wrap cycle and scalar reduction values allocate
//! nothing. Those read their own thread's counters; the SOR runs use
//! worker threads, so they read the process-wide counters, and every test
//! here holds one lock so that no other test allocates meanwhile.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;
use std::sync::Mutex as StdMutex;

use oam_apps::sor::{run_configured, SorParams};
use oam_apps::System;
use oam_machine::collective::ReduceValue;
use oam_model::{MachineConfig, NodeId, NodeStats};
use oam_net::BufPool;
use oam_sim::{alloc_snapshot, thread_alloc_snapshot, AllocSnapshot, CountingAlloc, Sim};
use oam_threads::{CondVar, Mutex, Node};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Serializes the tests of this binary (see the module notes).
static SERIAL: StdMutex<()> = StdMutex::new(());

/// Allocations allowed per extra node-iteration: the two row decodes
/// account for 2.0.
const BUDGET_PER_NODE_ITER: f64 = 2.5;

const SOR_NODES: usize = 32;
const SOR_ITERS: usize = 10;

/// Allocations of one whole SOR ORPC run.
fn sor_allocs(shards: usize, iters: usize) -> u64 {
    let cfg = MachineConfig::cm5(SOR_NODES).with_shards(shards);
    let params = SorParams { rows: 2 * SOR_NODES, cols: 64, iters };
    let before = alloc_snapshot();
    let out = run_configured(System::Orpc, cfg, params);
    let used = alloc_snapshot().since(before);
    assert_eq!(out.answer, oam_apps::sor::sequential(params).0, "{shards} shards, {iters} iters");
    used.allocs
}

#[test]
fn extra_sor_iterations_allocate_only_their_row_decodes() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for shards in [1, 2] {
        let (short, long) = (sor_allocs(shards, SOR_ITERS), sor_allocs(shards, 2 * SOR_ITERS));
        let per = long.saturating_sub(short) as f64 / (SOR_NODES * SOR_ITERS) as f64;
        assert!(
            per <= BUDGET_PER_NODE_ITER,
            "{shards} shards: {per:.2} allocations per extra node-iteration \
             ({short} over {SOR_ITERS} iterations, {long} over {})",
            2 * SOR_ITERS
        );
    }
}

fn test_node() -> (Sim, Node) {
    let sim = Sim::new(5);
    let stats = Rc::new(RefCell::new(NodeStats::new()));
    let node = Node::new(&sim, NodeId(0), 1, Rc::new(MachineConfig::cm5(1)), stats);
    (sim, node)
}

#[test]
fn warm_waits_allocate_nothing() {
    const WARM: u64 = 100;
    const COUNTED: u64 = 1_000;
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (sim, node) = test_node();
    // Two threads take turns on a counter: each waits on the condition
    // variable for its turn, and yields while holding the lock so that the
    // other, just signalled, finds it held and parks on the mutex.
    let turn = Mutex::new(&node, 0u64);
    let cv = CondVar::new(&node);
    let window: Rc<RefCell<Vec<AllocSnapshot>>> = Rc::new(RefCell::new(Vec::with_capacity(2)));
    for me in 0..2u64 {
        let (turn, cv, n, window) = (turn.clone(), cv.clone(), node.clone(), window.clone());
        node.spawn(async move {
            loop {
                let mut g = turn.lock().await;
                while g.get() % 2 != me && g.get() < 2 * (WARM + COUNTED) {
                    g = cv.wait(g).await;
                }
                let t = g.get();
                if t >= 2 * (WARM + COUNTED) {
                    cv.broadcast();
                    return;
                }
                if me == 0 && (t == 2 * WARM || t == 2 * (WARM + COUNTED - 1)) {
                    window.borrow_mut().push(thread_alloc_snapshot());
                }
                g.set(t + 1);
                cv.signal();
                n.yield_now().await;
            }
        });
    }
    sim.run();
    assert_eq!(turn.try_lock().expect("lock free at the end").get(), 2 * (WARM + COUNTED));
    let window = window.borrow();
    let used = window[1].since(window[0]);
    assert_eq!(
        (used.allocs, used.bytes),
        (0, 0),
        "{} warm turns allocated {} times ({} bytes)",
        COUNTED - 1,
        used.allocs,
        used.bytes
    );
}

#[test]
fn the_pool_cycle_reuses_shell_and_storage_without_allocating() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let pool = BufPool::new();
    let send = |fill: u8| {
        let mut v = pool.lease(640);
        v.resize(640, fill);
        pool.wrap(v)
    };
    // Two payloads in flight while the next one is built, as with the two
    // edge rows of a SOR iteration; the first turn warms the pool.
    let mut in_flight: VecDeque<_> = [254, 255].map(send).into();
    in_flight.reserve(1);
    let mut turn = |i: u32| {
        in_flight.push_back(send(i as u8));
        let done = in_flight.pop_front().expect("a payload in flight");
        assert!(done.iter().all(|&b| b == i.wrapping_sub(2) as u8), "turn {i}: aliased");
    };
    (0..3).for_each(&mut turn);
    let before = thread_alloc_snapshot();
    (3..1_000).for_each(&mut turn);
    let used = thread_alloc_snapshot().since(before);
    assert_eq!((used.allocs, used.bytes), (0, 0), "warm wrap → drop → wrap allocated");
    let stats = pool.stats();
    assert_eq!(stats.leases - stats.reuses, 3, "only the warm-up leases allocated");
}

#[test]
fn scalar_reduction_values_travel_inline() {
    fn round_trip<T: Clone + PartialEq + std::fmt::Debug + Send + Sync + 'static>(v: T) -> u64 {
        let before = thread_alloc_snapshot();
        let erased = ReduceValue::of(&v);
        let back: T = erased.clone().get();
        let used = thread_alloc_snapshot().since(before);
        assert_eq!(back, v);
        used.allocs
    }
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    assert_eq!(round_trip(()), 0);
    assert_eq!(round_trip(true), 0);
    assert_eq!(round_trip(7u32), 0);
    assert_eq!(round_trip(u64::MAX), 0);
    assert_eq!(round_trip(-0.5f64), 0);
    // Any other type is shared behind one `Arc`.
    assert_eq!(round_trip(3u16), 1);
    assert_eq!(round_trip(vec![1u64, 2, 3]), 3, "the stored copy, its Arc, the copy read back");
}

#[test]
#[should_panic(expected = "reduction contribution value type mismatch")]
fn reading_a_reduction_value_as_another_type_panics() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let _: u32 = ReduceValue::of(&7u64).get();
}
