//! Quickstart: define a remote service with the stub macro, run it on a
//! simulated multicomputer in both ORPC and TRPC modes, and watch the
//! mechanism at work — optimistic calls that never blocked created no
//! threads.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use std::rc::Rc;

use optimistic_active_messages::prelude::*;

/// Per-node state: a counter under the lock the paper's remote procedures
/// would take.
pub struct CounterState {
    /// The protected counter.
    pub value: Mutex<u64>,
}

define_rpc_service! {
    /// A remote counter every node serves.
    service Counter {
        state CounterState;

        /// Add `n`, returning the previous value.
        rpc add(ctx, st, n: u64) -> u64 {
            // A little compute, so the call isn't free.
            ctx.charge(Dur::from_micros(1)).await;
            let g = st.value.lock().await;
            let old = g.get();
            g.set(old + n);
            old
        }

        /// Read without replying data back (asynchronous RPC).
        oneway bump(ctx, st) {
            let g = st.value.lock().await;
            g.with_mut(|v| *v += 1);
        }
    }
}

fn run(mode: RpcMode) {
    // A 8-node CM-5-like machine: calibrated cost model, deep network
    // buffering, front-of-queue scheduling, promote-on-abort.
    let machine = MachineBuilder::from_config(MachineConfig::cm5(8).with_seed(42)).build();
    for node in machine.nodes() {
        let state = Rc::new(CounterState { value: Mutex::new(node, 0) });
        Counter::register_all(machine.rpc(), node.id(), state, mode);
    }

    // SPMD main: every node hammers its right-hand neighbour.
    let report = machine.run(|env| async move {
        let dst = NodeId((env.id().index() + 1) % env.nprocs());
        let mut last = 0;
        for i in 0..100u64 {
            last = Counter::add::call(env.rpc(), env.node(), dst, i).await.expect("reply decode");
        }
        Counter::bump::send(env.rpc(), env.node(), dst).await;
        assert_eq!(last, (0..99).sum::<u64>());
        env.barrier().await;
    });

    let t = report.stats.total();
    println!(
        "{:4}: {:8.1} us | calls {:4} | optimistic successes {:4} | aborts {} | threads created {:4} | ctx switches {:4}",
        mode.label(),
        report.end_time.as_micros_f64(),
        t.rpcs_sync,
        t.oam_successes,
        t.total_aborts(),
        t.threads_created,
        t.context_switches,
    );
}

fn main() {
    println!("Remote counter, 8 nodes, 100 sync calls + 1 oneway per node:\n");
    run(RpcMode::Orpc);
    run(RpcMode::Trpc);
    println!(
        "\nORPC ran every call inline in the message handler (zero server\n\
         threads beyond the 8 node mains); TRPC created one thread per call\n\
         and paid the context switches — that difference is the paper."
    );
}
