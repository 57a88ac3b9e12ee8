//! An ORPC call that completes inline touches no heap: the call body
//! refills its method's recycled future box and the engine's spare packet
//! `Rc`, so warm null calls allocate nothing at all. Only an abort pays:
//! the promoted call keeps the box as its thread, and the method boxes
//! afresh for the call after it.
//!
//! The machine runs on the simulator, on the test's own thread, and the
//! test reads that thread's counters alone: the harness's main thread
//! sometimes allocates while the test runs.

use std::cell::Cell;
use std::rc::Rc;

use oam_machine::MachineBuilder;
use oam_model::{AbortReason, MachineConfig, NodeId};
use oam_rpc::{define_rpc_service, RpcMode};
use oam_sim::{thread_alloc_snapshot, AllocSnapshot, CountingAlloc};
use oam_threads::Mutex;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const SERVER: NodeId = NodeId(1);
/// Calls that size the tables the first calls grow.
const WARM_UP: u64 = 100;
/// Warm inline calls counted.
const COUNTED: u64 = 10_000;
/// Inline calls counted again once the site has recycled after the
/// promotion.
const AFTER: u64 = 100;

pub struct Counter {
    pub value: Mutex<u64>,
}

define_rpc_service! {
    service Probe {
        state Counter;

        /// Add one under the lock and return the new value.
        rpc bump(ctx, st) -> u64 {
            let g = st.value.lock().await;
            let v = g.get() + 1;
            g.set(v);
            v
        }
    }
}

#[test]
fn warm_inline_calls_allocate_nothing_and_a_promotion_does() {
    let machine = MachineBuilder::from_config(MachineConfig::cm5(2)).build();
    let state = Rc::new(Counter { value: Mutex::new(machine.node(SERVER), 0) });
    Probe::register_all(machine.rpc(), SERVER, Rc::clone(&state), RpcMode::Orpc);

    let counted: Rc<Cell<Option<AllocSnapshot>>> = Rc::default();
    let promoted: Rc<Cell<Option<AllocSnapshot>>> = Rc::default();
    let after: Rc<Cell<Option<AllocSnapshot>>> = Rc::default();
    let (c, p, a, st) = (counted.clone(), promoted.clone(), after.clone(), state.clone());
    let report = machine.run(move |env| {
        let (c, p, a, st) = (c.clone(), p.clone(), a.clone(), st.clone());
        async move {
            let bump = || Probe::bump::call(env.rpc(), env.node(), SERVER);
            if env.id() == SERVER {
                env.barrier().await;
                // Hold the lock across a poll: the call that arrives
                // meanwhile aborts with the lock held and is promoted.
                let g = st.value.lock().await;
                env.charge_micros(200).await;
                env.poll().await;
                drop(g);
                env.barrier().await;
                return;
            }
            let mut expect = 0;
            for _ in 0..WARM_UP {
                expect += 1;
                assert_eq!(bump().await.expect("reply decodes"), expect);
            }
            let before = thread_alloc_snapshot();
            for _ in 0..COUNTED {
                expect += 1;
                assert_eq!(bump().await.expect("reply decodes"), expect);
            }
            c.set(Some(thread_alloc_snapshot().since(before)));

            env.barrier().await;
            let before = thread_alloc_snapshot();
            expect += 1;
            assert_eq!(bump().await.expect("promoted call replies"), expect);
            p.set(Some(thread_alloc_snapshot().since(before)));

            // The next call on the promoted site runs inline in fresh
            // storage; the calls after it recycle again.
            expect += 1;
            assert_eq!(bump().await.expect("reply decodes"), expect);
            let before = thread_alloc_snapshot();
            for _ in 0..AFTER {
                expect += 1;
                assert_eq!(bump().await.expect("reply decodes"), expect);
            }
            a.set(Some(thread_alloc_snapshot().since(before)));
            env.barrier().await;
        }
    });
    assert!(report.completed);

    let counted = counted.get().expect("counted phase ran");
    assert_eq!(
        (counted.allocs, counted.bytes),
        (0, 0),
        "{COUNTED} warm inline calls allocated {} times ({} bytes)",
        counted.allocs,
        counted.bytes
    );
    let promoted = promoted.get().expect("promotion phase ran");
    assert!(promoted.allocs > 0, "a promotion builds a thread and allocates");
    let after = after.get().expect("recovery phase ran");
    assert_eq!(after.allocs, 0, "{AFTER} inline calls after the promotion allocated");

    let total = report.stats.total();
    let calls = WARM_UP + COUNTED + 2 + AFTER;
    assert_eq!(state.value.try_lock().expect("lock free at end").get(), calls);
    assert_eq!(total.oam_attempts, calls);
    assert_eq!(total.oam_aborts[AbortReason::LockHeld.index()], 1);
    assert_eq!(total.total_aborts(), 1);
    assert_eq!(total.oam_promotions, 1);
    assert_eq!(total.oam_successes, calls - 1);
}
