//! Stress tests of the synchronization primitives: multi-producer/
//! multi-consumer queues, lock fairness, and join chains; and the abort
//! paths of a wait, driven the way the OAM engine drives a handler.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

use oam_model::{Dur, MachineConfig, NodeId, NodeStats};
use oam_sim::Sim;
use oam_threads::{CondVar, ExecMode, Mutex, Node, ThreadId};

fn test_node() -> (Sim, Node) {
    let sim = Sim::new(31);
    let stats = Rc::new(RefCell::new(NodeStats::new()));
    let node = Node::new(&sim, NodeId(0), 1, Rc::new(MachineConfig::cm5(1)), stats);
    (sim, node)
}

#[test]
fn bounded_buffer_with_multiple_producers_and_consumers() {
    const CAP: usize = 3;
    const PRODUCERS: usize = 4;
    const ITEMS_EACH: usize = 25;
    const CONSUMERS: usize = 3;

    let (sim, node) = test_node();
    let buf = Mutex::new(&node, VecDeque::<u64>::new());
    let not_full = CondVar::new(&node);
    let not_empty = CondVar::new(&node);
    let consumed: Rc<RefCell<Vec<u64>>> = Rc::default();

    for p in 0..PRODUCERS {
        let (m, nf, ne, n) = (buf.clone(), not_full.clone(), not_empty.clone(), node.clone());
        node.spawn(async move {
            for i in 0..ITEMS_EACH {
                let mut g = m.lock().await;
                while g.with(|q| q.len() >= CAP) {
                    g = nf.wait(g).await;
                }
                g.with_mut(|q| q.push_back((p * ITEMS_EACH + i) as u64));
                ne.signal();
                drop(g);
                n.charge(Dur::from_micros((i % 5) as u64)).await;
            }
        });
    }
    let total = PRODUCERS * ITEMS_EACH;
    let per_consumer = total / CONSUMERS; // 100 / 3 -> 33, remainder to last
    for c in 0..CONSUMERS {
        let take =
            if c == CONSUMERS - 1 { total - per_consumer * (CONSUMERS - 1) } else { per_consumer };
        let (m, nf, ne, n, out) =
            (buf.clone(), not_full.clone(), not_empty.clone(), node.clone(), consumed.clone());
        node.spawn(async move {
            for _ in 0..take {
                let mut g = m.lock().await;
                loop {
                    if let Some(v) = g.with_mut(|q| q.pop_front()) {
                        out.borrow_mut().push(v);
                        break;
                    }
                    g = ne.wait(g).await;
                }
                nf.signal();
                drop(g);
                n.charge(Dur::from_micros(2)).await;
            }
        });
    }
    sim.run();
    let mut got = consumed.borrow().clone();
    assert_eq!(got.len(), total, "every item consumed exactly once");
    got.sort_unstable();
    got.dedup();
    assert_eq!(got.len(), total, "no duplicates");
    assert_eq!(node.live_threads(), 0, "all threads exited");
}

#[test]
fn lock_handoff_is_fifo_across_many_waiters() {
    let (sim, node) = test_node();
    let m = Mutex::new(&node, ());
    let order: Rc<RefCell<Vec<usize>>> = Rc::default();
    // Thread 0 takes the lock and spins long enough for all others to
    // queue in spawn order.
    let (m0, n0) = (m.clone(), node.clone());
    node.spawn(async move {
        let _g = m0.lock().await;
        n0.charge(Dur::from_micros(500)).await;
    });
    for i in 1..=8 {
        let (mi, oi, ni) = (m.clone(), order.clone(), node.clone());
        node.spawn(async move {
            // Stagger arrival so registration order is deterministic.
            ni.charge(Dur::from_micros(i as u64)).await;
            let _g = mi.lock().await;
            oi.borrow_mut().push(i);
        });
    }
    sim.run();
    assert_eq!(*order.borrow(), (1..=8).collect::<Vec<_>>(), "FIFO handoff");
}

#[test]
fn join_chain_propagates_results() {
    let (sim, node) = test_node();
    let result: Rc<RefCell<u64>> = Rc::default();
    let r = result.clone();
    let n = node.clone();
    node.spawn(async move {
        // Each thread spawns the next and adds its own contribution to
        // the value the child left in `out`.
        fn chain(node: Node, depth: u64, out: Rc<Cell<u64>>) -> oam_threads::JoinHandle {
            let inner = node.clone();
            node.spawn(async move {
                if depth == 0 {
                    out.set(1);
                } else {
                    let below = Rc::new(Cell::new(0));
                    chain(inner.clone(), depth - 1, below.clone()).join().await;
                    out.set(below.get() + depth);
                }
            })
        }
        let out = Rc::new(Cell::new(0));
        chain(n.clone(), 10, out.clone()).join().await;
        *r.borrow_mut() = out.get();
    });
    sim.run();
    assert_eq!(*result.borrow(), 1 + (1..=10).sum::<u64>());
}

#[test]
fn broadcast_with_predicate_wakes_only_satisfied_waiters_permanently() {
    let (sim, node) = test_node();
    let m = Mutex::new(&node, 0u32);
    let cv = CondVar::new(&node);
    let released: Rc<RefCell<Vec<u32>>> = Rc::default();
    for threshold in [2u32, 4, 6] {
        let (mi, cvi, out) = (m.clone(), cv.clone(), released.clone());
        node.spawn(async move {
            let mut g = mi.lock().await;
            while g.get() < threshold {
                g = cvi.wait(g).await;
            }
            out.borrow_mut().push(threshold);
        });
    }
    let (ms, cvs, ns) = (m.clone(), cv.clone(), node.clone());
    node.spawn(async move {
        for _ in 0..6 {
            ns.charge(Dur::from_micros(10)).await;
            let g = ms.lock().await;
            g.with_mut(|v| *v += 1);
            cvs.broadcast();
        }
    });
    sim.run();
    assert_eq!(*released.borrow(), vec![2, 4, 6], "waiters release in threshold order");
}

#[test]
fn many_short_threads_have_bounded_scheduler_state() {
    let (sim, node) = test_node();
    let done: Rc<RefCell<u32>> = Rc::default();
    for _ in 0..500 {
        let (n, d) = (node.clone(), done.clone());
        node.spawn(async move {
            n.charge(Dur::from_micros(1)).await;
            *d.borrow_mut() += 1;
        });
    }
    sim.run();
    assert_eq!(*done.borrow(), 500);
    assert_eq!(node.live_threads(), 0);
}

/// Poll `fut` once as an OAM handler attempt would: in optimistic mode on
/// provisional slot `tid`, on the caller's stack.
fn poll_optimistically<F: Future>(node: &Node, tid: ThreadId, fut: Pin<&mut F>) -> Poll<F::Output> {
    let prev_mode = node.set_mode(ExecMode::Optimistic);
    let prev_tid = node.set_active_provisional_replace(Some(tid));
    let out = fut.poll(&mut Context::from_waker(Waker::noop()));
    node.set_active_provisional_replace(prev_tid);
    node.set_mode(prev_mode);
    node.take_abort_cause();
    out
}

#[test]
fn a_granted_then_dropped_lock_future_passes_the_lock_on() {
    let (_sim, node) = test_node();
    let m = Mutex::new(&node, 0u32);
    let g = m.try_lock().expect("lock free");
    // Two aborted attempts park on the held lock, in order.
    let (t1, t2) = (node.reserve_provisional(), node.reserve_provisional());
    let mut first = Box::pin(m.lock());
    let mut second = Box::pin(m.lock());
    assert!(poll_optimistically(&node, t1, first.as_mut()).is_pending());
    assert!(poll_optimistically(&node, t2, second.as_mut()).is_pending());
    assert_eq!(m.waiters(), 2);
    // The release hands the lock to the first; it is dropped unconsumed,
    // as the rerun and NACK abort paths do, and passes it to the second.
    drop(g);
    assert!(m.is_locked(), "handoff keeps the lock held");
    assert_eq!(m.waiters(), 1);
    drop(first);
    assert_eq!(m.waiters(), 0);
    let Poll::Ready(g2) = poll_optimistically(&node, t2, second.as_mut()) else {
        panic!("the second waiter holds the passed-on lock");
    };
    g2.set(7);
    drop(g2);
    drop(second);
    assert!(!m.is_locked(), "nothing left to pass on");
    // A waiter dropped before its grant just leaves the queue.
    let g = m.try_lock().expect("lock free");
    let mut third = Box::pin(m.lock());
    assert!(poll_optimistically(&node, t1, third.as_mut()).is_pending());
    drop(third);
    assert_eq!(m.waiters(), 0);
    drop(g);
    assert!(!m.is_locked(), "a withdrawn waiter is not granted");
    node.release_provisional(t1);
    node.release_provisional(t2);
}

#[test]
fn a_signalled_then_dropped_cv_wait_forwards_its_signal() {
    let (_sim, node) = test_node();
    let m = Mutex::new(&node, ());
    let cv = CondVar::new(&node);
    let (t1, t2, t3) =
        (node.reserve_provisional(), node.reserve_provisional(), node.reserve_provisional());
    let mut first = Box::pin(cv.wait(m.try_lock().expect("lock free")));
    assert!(poll_optimistically(&node, t1, first.as_mut()).is_pending());
    assert!(!m.is_locked(), "waiting releases the lock");
    let mut second = Box::pin(cv.wait(m.try_lock().expect("lock free")));
    assert!(poll_optimistically(&node, t2, second.as_mut()).is_pending());
    let mut third = Box::pin(cv.wait(m.try_lock().expect("lock free")));
    assert!(poll_optimistically(&node, t3, third.as_mut()).is_pending());
    assert_eq!(cv.waiters(), 3);
    // The signal goes to the first waiter, which is abandoned: the signal
    // moves on to the second, and the third keeps waiting.
    cv.signal();
    drop(first);
    assert_eq!(cv.waiters(), 1);
    assert!(
        poll_optimistically(&node, t2, second.as_mut()).is_ready(),
        "the forwarded signal wakes the second waiter, which relocks"
    );
    assert!(poll_optimistically(&node, t3, third.as_mut()).is_pending(), "no extra signal");
    // An unsignalled waiter that is dropped withdraws and takes no signal.
    drop(third);
    assert_eq!(cv.waiters(), 0);
    for t in [t1, t2, t3] {
        node.release_provisional(t);
    }
}

#[test]
fn broadcast_wakes_waiters_in_wait_order_ahead_of_runnable_threads() {
    let (sim, node) = test_node();
    let m = Mutex::new(&node, false);
    let cv = CondVar::new(&node);
    let order: Rc<RefCell<Vec<&'static str>>> = Rc::default();
    for name in ["w0", "w1", "w2"] {
        let (mi, cvi, out) = (m.clone(), cv.clone(), order.clone());
        node.spawn(async move {
            let mut g = mi.lock().await;
            while !g.get() {
                g = cvi.wait(g).await;
            }
            out.borrow_mut().push(name);
        });
    }
    let (mb, cvb, nb, ob) = (m.clone(), cv.clone(), node.clone(), order.clone());
    node.spawn(async move {
        nb.charge(Dur::from_micros(10)).await;
        // Queued at the back before the broadcast puts the waiters in front.
        nb.spawn(async move { ob.borrow_mut().push("x") });
        let g = mb.lock().await;
        g.set(true);
        cvb.broadcast();
    });
    sim.run();
    assert_eq!(*order.borrow(), vec!["w0", "w1", "w2", "x"]);
    assert_eq!(cv.waiters(), 0);
}
