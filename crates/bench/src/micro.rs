//! The paper's microbenchmarks (§4.1): round-trip "null" RPC under the
//! two server conditions of Table 1, and the bulk-data-transfer sweep of
//! §4.1.2.

use std::cell::Cell;
use std::rc::Rc;

use oam_am::{AmToken, HandlerId};
use oam_apps::{AppOutcome, System};
use oam_machine::MachineBuilder;
use oam_model::{Dur, NodeId};
use oam_rpc::define_rpc_service;
use oam_threads::{CondVar, Flag, Mutex};

/// Cost of the null remote procedure's body (increment a variable).
const BODY_COST: Dur = Dur::from_nanos(400);

/// Per-service state for the microbenchmarks.
pub struct BenchState {
    /// The counter the null RPC increments.
    pub counter: Cell<u64>,
    /// Experiment-termination plumbing for the "no thread running" case.
    pub done: Mutex<bool>,
    /// Signalled when the experiment ends.
    pub done_cv: CondVar,
}

define_rpc_service! {
    /// Microbenchmark service.
    service Bench {
        state BenchState;

        /// The "null" RPC: increments a variable on the server. Never
        /// blocks, so ORPC always succeeds (§4.1.1).
        rpc incr(ctx, st) -> u64 {
            ctx.charge(super::BODY_COST).await;
            let v = st.counter.get() + 1;
            st.counter.set(v);
            v
        }

        /// Echo with a payload: the §4.1.2 bulk-transfer benchmark sends
        /// `data` in and a single word back.
        rpc sink(ctx, st, data: Vec<u8>) -> u32 {
            ctx.charge(super::BODY_COST).await;
            st.counter.set(st.counter.get() + data.len() as u64);
            data.len() as u32
        }

        /// Terminate the experiment: wake the server's waiting thread.
        oneway finish(ctx, st) {
            let g = st.done.lock().await;
            g.set(true);
            st.done_cv.signal();
        }
    }
}

const AM_INCR: HandlerId = HandlerId(0x0009_0001);
const AM_ACK: HandlerId = HandlerId(0x0009_0002);
const AM_DONE: HandlerId = HandlerId(0x0009_0003);

/// What occupies the server's processor during the measurement — the two
/// columns of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerLoad {
    /// The server's thread is condition-waiting: "no thread running".
    Idle,
    /// The server's thread sits in a tight poll-and-yield loop: "some
    /// thread running".
    Busy,
}

impl ServerLoad {
    /// Paper column label.
    pub fn label(self) -> &'static str {
        match self {
            ServerLoad::Idle => "No thread running",
            ServerLoad::Busy => "Some thread running",
        }
    }
}

/// Measure the mean round-trip time of a null RPC from node 0 to node 1
/// (Table 1). `rounds` calls are averaged after one warm-up call.
pub fn null_rpc_roundtrip(system: System, load: ServerLoad, rounds: u32) -> Dur {
    payload_rpc_roundtrip(system, load, rounds, 0)
}

/// As [`null_rpc_roundtrip`], sending `payload_bytes` of argument data
/// with each call (§4.1.2; sizes above the CM-5's 16 bytes go through the
/// bulk-transfer mechanism).
pub fn payload_rpc_roundtrip(
    system: System,
    load: ServerLoad,
    rounds: u32,
    payload_bytes: usize,
) -> Dur {
    micro_rpc(MicroParams::roundtrip(system, load, rounds, payload_bytes)).mean
}

/// Full-control microbenchmark parameters.
#[derive(Debug, Clone)]
pub struct MicroParams {
    /// Communication system under test.
    pub system: System,
    /// Server occupancy (Table 1's two columns).
    pub load: ServerLoad,
    /// Measured round trips (after one warm-up).
    pub rounds: u32,
    /// Argument bytes per call.
    pub payload_bytes: usize,
    /// Extra yield-loop threads on the server: run-queue *depth*, which
    /// is what makes front-vs-back placement matter.
    pub background_threads: usize,
    /// Machine configuration (queue policy, buffering, ...). Must have 2
    /// nodes.
    pub cfg: oam_model::MachineConfig,
    /// Run one unmeasured warm-up call first (steady-state measurements).
    /// Disable for one-shot latency experiments.
    pub warmup: bool,
    /// Client-side virtual-time delay before the first call — sweeps the
    /// arrival phase relative to the server's scheduling cycle.
    pub initial_offset: Dur,
}

impl MicroParams {
    /// The steady-state round trip of Table 1 and §4.1.2: a two-node CM-5,
    /// one warm-up call, no background threads.
    pub fn roundtrip(system: System, load: ServerLoad, rounds: u32, payload_bytes: usize) -> Self {
        MicroParams {
            system,
            load,
            rounds,
            payload_bytes,
            background_threads: 0,
            cfg: oam_model::MachineConfig::cm5(2),
            warmup: true,
            initial_offset: Dur::ZERO,
        }
    }
}

/// One microbenchmark run.
pub struct MicroOutcome {
    /// Mean measured round trip.
    pub mean: Dur,
    /// The whole run; its answer is the server's counter.
    pub run: AppOutcome,
}

/// Run the microbenchmark with full control over the configuration.
pub fn micro_rpc(params: MicroParams) -> MicroOutcome {
    let MicroParams {
        system,
        load,
        rounds,
        payload_bytes,
        background_threads,
        cfg,
        warmup,
        initial_offset,
    } = params;
    assert_eq!(cfg.nodes, 2, "microbenchmarks run on two nodes");
    let machine = MachineBuilder::from_config(cfg).build();
    let states: Vec<Rc<BenchState>> = machine
        .nodes()
        .iter()
        .map(|n| {
            Rc::new(BenchState {
                counter: Cell::new(0),
                done: Mutex::new(n, false),
                done_cv: CondVar::new(n),
            })
        })
        .collect();

    // The hand-coded AM variant: inline increment + reply, client spins.
    // A fresh flag is swapped in per round trip (Flags cannot be reset).
    let reply_flag: Rc<std::cell::RefCell<Flag>> = Rc::new(std::cell::RefCell::new(Flag::new()));
    match system {
        System::HandAm => {
            for (i, st) in states.iter().enumerate() {
                let st2 = Rc::clone(st);
                machine.am().register(
                    NodeId(i),
                    AM_INCR,
                    oam_am::HandlerEntry::Inline(Rc::new(move |t: &AmToken| {
                        t.charge(BODY_COST);
                        st2.counter.set(st2.counter.get() + 1);
                        t.reply(t.src(), AM_ACK, Vec::new());
                    })),
                );
                let rf = Rc::clone(&reply_flag);
                machine.am().register(
                    NodeId(i),
                    AM_ACK,
                    oam_am::HandlerEntry::Inline(Rc::new(move |_t: &AmToken| rf.borrow().set())),
                );
                let st3 = Rc::clone(st);
                machine.am().register(
                    NodeId(i),
                    AM_DONE,
                    oam_am::HandlerEntry::Inline(Rc::new(move |_t: &AmToken| {
                        // Safe from handler context: signal is synchronous.
                        if let Some(g) = st3.done.try_lock() {
                            g.set(true);
                        }
                        st3.done_cv.signal();
                    })),
                );
            }
        }
        _ => {
            for (i, st) in states.iter().enumerate() {
                Bench::register_all(machine.rpc(), NodeId(i), Rc::clone(st), system.rpc_mode());
            }
        }
    }

    let server = Rc::clone(&states[1]);
    let states = Rc::new(states);
    let measured = Rc::new(Cell::new(Dur::ZERO));
    let out = Rc::clone(&measured);
    let rf = Rc::clone(&reply_flag);
    let report = machine.run(move |env| {
        let states = Rc::clone(&states);
        let out = Rc::clone(&out);
        let reply_flag = Rc::clone(&rf);
        async move {
            let me = env.id().index();
            if me == 1 {
                // ---- server ----
                // Optional background threads: keep the run queue deep so
                // the placement of incoming RPC threads matters.
                for _ in 0..background_threads {
                    let st = Rc::clone(&states[1]);
                    let env2 = env.clone();
                    env.node().spawn(async move {
                        loop {
                            env2.charge(Dur::from_micros(2)).await;
                            env2.yield_now().await;
                            if let Some(g) = st.done.try_lock() {
                                if g.get() {
                                    break;
                                }
                            }
                        }
                    });
                }
                match load {
                    ServerLoad::Idle => {
                        // Block on a condition variable until the client
                        // says the experiment is over.
                        let st = &states[1];
                        let mut g = st.done.lock().await;
                        while !g.get() {
                            g = st.done_cv.wait(g).await;
                        }
                    }
                    ServerLoad::Busy => {
                        // Tight poll-and-yield loop.
                        loop {
                            env.poll().await;
                            env.yield_now().await;
                            if let Some(g) = states[1].done.try_lock() {
                                if g.get() {
                                    break;
                                }
                            }
                        }
                    }
                }
            } else {
                // ---- client ----
                let call_once = |payload: Vec<u8>| {
                    let env = env.clone();
                    let reply_flag = Rc::clone(&reply_flag);
                    async move {
                        match system {
                            System::HandAm => {
                                let f = Flag::new();
                                *reply_flag.borrow_mut() = f.clone();
                                // Hand-coded AM: short message if the data
                                // fits the argument words, scopy otherwise.
                                if payload.len() <= oam_net::SHORT_PAYLOAD_MAX {
                                    env.am().send(env.node(), NodeId(1), AM_INCR, payload).await;
                                } else {
                                    env.am().send_bulk(env.node(), NodeId(1), AM_INCR, payload);
                                }
                                env.node().spin_on(f).await;
                            }
                            _ => {
                                if payload.is_empty() {
                                    Bench::incr::call(env.rpc(), env.node(), NodeId(1))
                                        .await
                                        .expect("reply decode");
                                } else {
                                    Bench::sink::call(env.rpc(), env.node(), NodeId(1), payload)
                                        .await
                                        .expect("reply decode");
                                }
                            }
                        }
                    }
                };
                if !initial_offset.is_zero() {
                    env.charge(initial_offset).await;
                }
                if warmup {
                    // Warm-up round (not measured).
                    call_once(vec![0u8; payload_bytes]).await;
                }
                // Each call is timed individually with a gap between
                // calls (measurement bookkeeping on the real machine):
                // server-side cleanup after a call — e.g. switching back
                // to its polling thread — happens between measurements,
                // exactly as in a per-call-timed experiment.
                let mut total = Dur::ZERO;
                for _ in 0..rounds {
                    let t0 = env.now();
                    call_once(vec![0u8; payload_bytes]).await;
                    total += env.now().since(t0);
                    env.charge(Dur::from_micros(150)).await;
                }
                out.set(total / rounds as u64);
                // Terminate the server.
                match system {
                    System::HandAm => {
                        env.am().send(env.node(), NodeId(1), AM_DONE, Vec::new()).await;
                    }
                    _ => {
                        Bench::finish::send(env.rpc(), env.node(), NodeId(1)).await;
                    }
                }
            }
        }
    });
    MicroOutcome { mean: measured.get(), run: AppOutcome::new(report, server.counter.get()) }
}
