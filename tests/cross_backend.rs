//! Cross-backend differential: the same application, configuration, and
//! seed must produce the same *answer* on the discrete-event simulator
//! and on the native host-threads backend. Only answers are compared —
//! the native backend runs on real cores under wall-clock time, so event
//! interleavings, traces, and timings legitimately differ — but every
//! app in this repo consumes remote data in fixed program order and folds
//! reductions with commutative integer ops, so answers are exact.
//!
//! Also the CI `backend-matrix` smoke: with `OAM_BACKEND` unset these
//! tests pin each backend explicitly and exercise both; with it set, the
//! env-following tests additionally run the apps under whatever backend
//! the matrix leg selected. Every config starts from the leg's `OAM_*`
//! overrides ([`MachineConfig::apply_env`]); what a test pins wins.

use optimistic_active_messages::apps::service::{self, ServiceParams};
use optimistic_active_messages::apps::sor::SorParams;
use optimistic_active_messages::apps::tsp::TspParams;
use optimistic_active_messages::apps::water::{WaterParams, WaterVariant};
use optimistic_active_messages::apps::{sor, triangle, tsp, water, System};
use optimistic_active_messages::model::{host_cores, EngineCounters};
use optimistic_active_messages::prelude::*;

/// `MachineConfig::cm5(nodes)` under the CI leg's `OAM_*` overrides.
fn cm5(nodes: usize) -> MachineConfig {
    MachineConfig::cm5(nodes).apply_env().expect("OAM_* overrides")
}

fn on(backend: Backend, nodes: usize) -> MachineConfig {
    cm5(nodes).with_backend(backend)
}

/// One node more than the host has cores: a native run starts one worker
/// per core, so some worker owns two or more nodes. Their traffic takes
/// the fabric's owned path inside the worker while the rest crosses the
/// worker rings, and both must give sim's answers.
fn crowded() -> usize {
    host_cores() + 1
}

/// State of the small-AM storm target: a hit counter the receiver's main
/// sleeps against. A bare spin-charge loop would starve the dispatcher (a
/// computing node never polls its NI), so the receiver blocks on the
/// condvar and the handler signals when the burst has fully landed —
/// idiomatic AM code, and exactly the shape that makes per-message wakes
/// expensive on the native backend.
pub struct StormState {
    /// Hits received so far.
    pub count: Mutex<u64>,
    /// Signalled when `count` reaches `target`.
    pub done: CondVar,
    /// The burst size the receiver is waiting for.
    pub target: u64,
}

define_rpc_service! {
    /// The storm sink: the cheapest possible one-way active message.
    service Storm {
        state StormState;

        /// Count one hit; wake the waiting main on the last one.
        oneway hit(ctx, st) {
            let _ = ctx;
            let g = st.count.lock().await;
            let v = g.with_mut(|c| {
                *c += 1;
                *c
            });
            if v >= st.target {
                st.done.signal();
            }
        }
    }
}

#[test]
fn sor_answers_match_across_backends() {
    for nodes in [4, crowded()] {
        let p = SorParams { rows: 4 * nodes, cols: 8, iters: 3 };
        let (ck, _) = sor::sequential(p);
        for backend in [Backend::Sim, Backend::Native] {
            let out = sor::run_configured(System::Orpc, on(backend, nodes), p);
            assert_eq!(out.answer, ck, "sor answer wrong on {} at {nodes} nodes", backend.label());
        }
    }
}

#[test]
fn tsp_answers_match_across_backends() {
    let p = TspParams { ncities: 9, prefix_len: 3, ..Default::default() };
    let (best, _, _) = tsp::sequential(p);
    for backend in [Backend::Sim, Backend::Native] {
        let out = tsp::run_configured(System::Orpc, on(backend, 4), p);
        assert_eq!(out.answer, best as u64, "tsp answer wrong on {}", backend.label());
    }
}

#[test]
fn triangle_answers_match_across_backends() {
    let (sol, pos, _) = triangle::sequential(4);
    for nodes in [3, crowded()] {
        for backend in [Backend::Sim, Backend::Native] {
            let out = triangle::run_configured(System::Orpc, on(backend, nodes), 4, 1);
            let at = format!("{} at {nodes} nodes", backend.label());
            assert_eq!(out.answer, (sol << 40) | pos, "triangle answer wrong on {at}");
        }
    }
}

#[test]
fn water_answers_match_across_backends() {
    let variant = WaterVariant { system: System::Orpc, barrier: true };
    for nodes in [4, crowded()] {
        let p = WaterParams { molecules: 3 * nodes, iters: 2 };
        let sim = water::run_configured(variant, on(Backend::Sim, nodes), p).outcome.answer;
        let native = water::run_configured(variant, on(Backend::Native, nodes), p).outcome.answer;
        // Remote positions and updates are consumed in fixed program order
        // and the energy reduction is a wrapping u64 sum, so even the
        // float-derived checksum is exact across backends.
        assert_eq!(sim, native, "water energy checksum differs across backends at {nodes} nodes");
    }
}

/// Figures 1 (Triangle) and 3 (SOR) at a small size: every system the
/// figures plot — hand-coded AM, ORPC and TRPC — answers on native as on
/// sim, with workers owning several nodes.
#[test]
fn figures_1_and_3_at_small_size_match_across_backends() {
    let n = crowded();
    let p = SorParams { rows: 4 * n, cols: 16, iters: 4 };
    for system in System::ALL {
        let sim = triangle::run_configured(system, on(Backend::Sim, n), 4, 1).answer;
        let native = triangle::run_configured(system, on(Backend::Native, n), 4, 1).answer;
        assert_eq!(native, sim, "figure 1 ({system:?}) at {n} nodes");
        let sim = sor::run_configured(system, on(Backend::Sim, n), p).answer;
        let native = sor::run_configured(system, on(Backend::Native, n), p).answer;
        assert_eq!(native, sim, "figure 3 ({system:?}) at {n} nodes");
    }
}

#[test]
fn trpc_mode_works_on_native() {
    let p = SorParams { rows: 16, cols: 8, iters: 3 };
    let (ck, _) = sor::sequential(p);
    let out = sor::run_configured(System::Trpc, on(Backend::Native, 4), p);
    assert_eq!(out.answer, ck, "sor answer wrong under TRPC on native");
}

#[test]
fn adaptive_policy_works_on_native() {
    use optimistic_active_messages::rpc::handler_id_for;
    let p = TspParams { ncities: 9, prefix_len: 3, ..Default::default() };
    let (best, _, _) = tsp::sequential(p);
    let cfg = on(Backend::Native, 4).with_policy(
        handler_id_for("Tsp::get_job").0,
        ExecPolicy::adaptive(AdaptivePolicy::default()),
    );
    let out = tsp::run_configured(System::Orpc, cfg, p);
    assert_eq!(out.answer, best as u64, "tsp answer wrong under adaptive policy on native");
}

/// The service's completed/shed/expired split depends on real timing under
/// the native backend, so the differential checks conservation invariants
/// rather than exact counts: every arrival is accounted for exactly once,
/// and the ORPC/TRPC/adaptive engine plus admission control must hold them
/// on both backends.
#[test]
fn service_invariants_hold_across_backends() {
    for backend in [Backend::Sim, Backend::Native] {
        let env = EnvOverlay::read().expect("OAM_* overrides");
        let params = ServiceParams {
            arrivals: 48,
            backend: Some(backend),
            ..ServiceParams::default().with_env(env)
        };
        let arrivals = (params.arrivals as u64) * (params.drivers as u64);
        let o = service::run(params);
        assert_eq!(
            o.completed + o.abandoned,
            arrivals,
            "every arrival must resolve exactly once on {} (completed {} abandoned {})",
            backend.label(),
            o.completed,
            o.abandoned,
        );
        assert!(o.completed > 0, "service completed nothing on {}", backend.label());
    }
}

/// Differential for the batched delivery layer: the batched (default)
/// and naive per-message (`batch = 1`) paths must be bit-identical —
/// same answers everywhere, and on the deterministic simulator the same
/// full stats, virtual end time, and event count — across seeds and
/// shard counts. `MachineStats` equality deliberately excludes the
/// engine counters, which are *supposed* to differ (fewer batch
/// publishes is the whole optimization); everything observable by the
/// program must not.
#[test]
fn batched_and_naive_delivery_are_bit_identical_on_sim() {
    let naive = ShardTuning { batch: Some(1), ..ShardTuning::default() };
    let p = WaterParams { molecules: 12, iters: 2 };
    let variant = WaterVariant { system: System::Orpc, barrier: true };
    for seed in [7u64, 41] {
        for shards in [1usize, 2, 4, 8] {
            let cfg = on(Backend::Sim, 8).with_seed(seed).with_shards(shards);
            let b = water::run_configured(variant, cfg.clone(), p).outcome;
            let n = water::run_configured(variant, cfg.with_tuning(naive), p).outcome;
            let at = format!("seed {seed} shards {shards}");
            assert_eq!(b.answer, n.answer, "answer differs batched vs naive ({at})");
            assert_eq!(b.stats, n.stats, "stats differ batched vs naive ({at})");
            assert_eq!(b.elapsed, n.elapsed, "end time differs batched vs naive ({at})");
            assert_eq!(b.events, n.events, "event count differs batched vs naive ({at})");
        }
    }
}

/// Native half of the batching differential: the ring-and-flush path and
/// the per-message reference path (`batch = 1`, every send flushes) must
/// agree on answers. Timings and wake counts legitimately differ on real
/// cores, so only answers are compared, against the sequential oracle.
#[test]
fn batched_and_naive_delivery_agree_on_native() {
    let naive = ShardTuning { batch: Some(1), ..ShardTuning::default() };
    let p = SorParams { rows: 16, cols: 8, iters: 3 };
    let (ck, _) = sor::sequential(p);
    for seed in [7u64, 41] {
        let cfg = on(Backend::Native, 4).with_seed(seed);
        let b = sor::run_configured(System::Orpc, cfg.clone(), p);
        let n = sor::run_configured(System::Orpc, cfg.with_tuning(naive), p);
        assert_eq!(b.answer, ck, "batched native answer wrong (seed {seed})");
        assert_eq!(n.answer, ck, "naive native answer wrong (seed {seed})");
    }
}

/// Env-following smoke for the CI backend matrix: run one app with no
/// backend pinned, on whatever `OAM_BACKEND` the matrix leg exported.
#[test]
fn apps_honor_the_backend_environment() {
    let p = SorParams { rows: 16, cols: 8, iters: 3 };
    let (ck, _) = sor::sequential(p);
    let out = sor::run_configured(System::Orpc, cm5(4), p);
    assert_eq!(out.answer, ck);
    let (sol, pos, _) = triangle::sequential(4);
    let out = triangle::run_configured(System::Orpc, cm5(3), 4, 1);
    assert_eq!(out.answer, (sol << 40) | pos);
}

/// A burst of `rounds` small one-way active messages from node 0 to node
/// 1 (and, if `two_way`, from node 1 to node 0 at the same time) on the
/// native backend at delivery batch size `batch`, then a count-sum
/// reduction. Each receiver blocks until every hit has landed before
/// reducing, so a lost message or a lost wake is a wrong answer or a hang.
/// Returns the answer and the machine's delivery counters.
fn native_am_storm(rounds: u32, batch: u32, two_way: bool) -> (u64, EngineCounters) {
    use optimistic_active_messages::machine::{run_partitioned, ShardApp};
    use std::cell::Cell;
    use std::rc::Rc;

    let cfg = on(Backend::Native, 2)
        .with_tuning(ShardTuning { batch: Some(batch), ..ShardTuning::default() });
    let (report, answer) = run_partitioned(cfg, move |machine| {
        // Each native replica builds only its own node: state and handlers
        // go on that node, under its global id.
        let states = NodeTable::new(machine.owned(), |id| {
            let node = machine.node(id);
            Rc::new(StormState {
                count: Mutex::new(node, 0),
                done: CondVar::new(node),
                target: rounds as u64,
            })
        });
        for (i, st) in machine.owned().zip(&states) {
            Storm::register_all(machine.rpc(), NodeId(i), Rc::clone(st), RpcMode::Orpc);
        }
        let sum = Reducer::new(machine.collectives(), |a: &u64, b: &u64| a.wrapping_add(*b));
        let total = Rc::new(Cell::new(0u64));
        let t = Rc::clone(&total);
        ShardApp {
            main: Box::new(move |env| {
                let sum = sum.clone();
                let st = Rc::clone(&states[env.id().index()]);
                let t = Rc::clone(&t);
                Box::pin(async move {
                    let me = env.id().index();
                    let (sends, receives) = (me == 0 || two_way, me == 1 || two_way);
                    if sends {
                        for _ in 0..rounds {
                            Storm::hit::send(env.rpc(), env.node(), NodeId(1 - me)).await;
                        }
                    }
                    let mut mine = 0u64;
                    if receives {
                        let mut g = st.count.lock().await;
                        while g.with(|c| *c < st.target) {
                            g = st.done.wait(g).await;
                        }
                        mine = g.with(|c| *c);
                    }
                    // Only targets contribute, each its own count, so the
                    // sum folds to exactly `rounds` per direction.
                    let got = sum.reduce(env.node(), mine).await;
                    if env.id().index() == 0 {
                        t.set(got);
                    }
                })
            }),
            finish: Box::new(move |_| total.get()),
        }
    });
    (answer, report.stats.engine)
}

/// The small-AM storm under the batched (`batch = 32`) and per-message
/// (`batch = 1`) delivery paths. Both deliver the whole burst. Per-message
/// delivery publishes once per deposit; batched delivery publishes at the
/// high-water mark or earlier at a pass boundary, so its publish count
/// lies between ⌈deposits / 32⌉ and deposits whatever the host timing.
/// On a one-core host both nodes share the one worker, so nothing
/// crosses a ring and only the answer is checked.
#[test]
fn small_am_storm_delivers_every_message_at_both_batch_sizes() {
    const ROUNDS: u32 = 8_000;
    for batch in [32u32, 1] {
        let (answer, engine) = native_am_storm(ROUNDS, batch, false);
        let (deposits, batches) = (engine.deposits, engine.batches);
        assert_eq!(answer, ROUNDS as u64, "storm answer at batch {batch}");
        if host_cores() == 1 {
            assert_eq!((deposits, batches), (0, 0), "one worker: the storm never leaves it");
            continue;
        }
        assert!(deposits >= ROUNDS as u64, "batch {batch}: {deposits} deposits < {ROUNDS} hits");
        if batch == 1 {
            assert_eq!(batches, deposits, "per-message path must publish every deposit");
        } else {
            assert!(
                deposits.div_ceil(32) <= batches && batches <= deposits,
                "batch 32: {batches} publishes for {deposits} deposits"
            );
        }
    }
}

/// Both nodes storm each other at once. When they sit on two workers,
/// both fill the ring to the other; each worker keeps draining its own
/// inbound ring while it waits for room, so neither waits forever.
#[test]
fn a_two_way_storm_between_workers_completes() {
    const ROUNDS: u32 = 8_000;
    for batch in [32u32, 1] {
        let (answer, _) = native_am_storm(ROUNDS, batch, true);
        assert_eq!(answer, 2 * ROUNDS as u64, "two-way storm answer at batch {batch}");
    }
}
