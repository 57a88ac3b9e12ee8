//! Headless simulator-performance suite with a machine-readable report.
//!
//! Runs a fixed set of workloads — null-RPC churn, TSP, SOR, Water, and
//! chaos-on variants — and records, per suite: host wall-clock, simulator
//! events/sec, peak event-queue depth, heap allocations (via a counting
//! global allocator), and the key sim-domain counters. The report is
//! written as `BENCH_results.json` at the workspace root; CI diffs it
//! against the committed `BENCH_baseline.json` with
//! `scripts/bench_check.rs`.
//!
//! ```sh
//! cargo run --release -p oam-bench --bin perfsuite            # full sizes
//! cargo run --release -p oam-bench --bin perfsuite -- --quick # CI sizes
//! cargo run --release -p oam-bench --bin perfsuite -- --jobs 4 # parallel
//! ```
//!
//! `--jobs N` runs independent suites on a pool of `N` host threads. Wall
//! clocks and deterministic counters stay meaningful (each suite still
//! runs [`REPS`] times on one thread, best kept), but the allocation
//! columns do **not**: the counting allocator is process-global, so with
//! `N > 1` a suite's snapshot window includes every other in-flight
//! suite's allocations. Keep the default `--jobs 1` for runs whose
//! `allocs` numbers feed the CI gate.

use std::cell::Cell;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::rc::Rc;
use std::time::Instant;

use oam_apps::service::{self, ServiceParams};
use oam_apps::tsp::TspParams;
use oam_apps::water::{WaterParams, WaterVariant};
use oam_apps::{sor, tsp, water, AppOutcome, System};
use oam_bench::report::workspace_root;
use oam_machine::{run_partitioned, MachineBuilder, Reducer, ShardApp};
use oam_model::{
    Backend, Dur, EngineCounters, FaultPlan, MachineConfig, NodeId, NodeStats, ReliabilityConfig,
    ShardTuning,
};
use oam_rpc::define_rpc_service;
use oam_sim::{alloc_snapshot, AllocSnapshot, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// State of the churn service: one counter per node.
pub struct ChurnState {
    /// Calls served.
    pub counter: Cell<u64>,
}

define_rpc_service! {
    /// The null-RPC churn service: the cheapest possible remote call, so
    /// the measurement is dominated by simulator overhead per message.
    service Churn {
        state ChurnState;

        /// Increment and return the server-side counter.
        rpc bump(ctx, st) -> u64 {
            let _ = ctx;
            let v = st.counter.get() + 1;
            st.counter.set(v);
            v
        }

        /// Consume a bulk payload, returning a checksum folded into the
        /// running counter. Exercises the pooled bulk-transfer path.
        rpc ingest(ctx, st, data: Vec<u8>) -> u64 {
            let _ = ctx;
            let sum: u64 = data.iter().map(|&b| b as u64).sum();
            let v = st.counter.get().wrapping_add(sum).wrapping_add(1);
            st.counter.set(v);
            v
        }
    }
}

/// Overload scorecard columns, present only for the open-loop service
/// suites (virtual-time latency quantiles are deterministic, so the CI
/// gate can watch p99 drift like any other counter).
#[derive(Clone, Copy)]
struct ServiceCols {
    p50_us: f64,
    p99_us: f64,
    p999_us: f64,
    goodput_per_sec: f64,
    completed: u64,
    shed: u64,
    expired: u64,
    abandoned: u64,
}

/// What a suite body hands back: the common app outcome, plus the service
/// scorecard when the workload has one.
struct SuiteOut {
    app: AppOutcome,
    service: Option<ServiceCols>,
}

impl From<AppOutcome> for SuiteOut {
    fn from(app: AppOutcome) -> Self {
        SuiteOut { app, service: None }
    }
}

impl From<service::ServiceOutcome> for SuiteOut {
    fn from(o: service::ServiceOutcome) -> Self {
        let cols = ServiceCols {
            p50_us: o.p50.as_micros_f64(),
            p99_us: o.p99.as_micros_f64(),
            p999_us: o.p999.as_micros_f64(),
            goodput_per_sec: o.goodput_per_sec,
            completed: o.completed,
            shed: o.shed,
            expired: o.expired,
            abandoned: o.abandoned,
        };
        SuiteOut { app: o.app, service: Some(cols) }
    }
}

/// One measured suite.
struct SuiteRun {
    name: &'static str,
    /// Which regression gates bench_check applies when this row sits in
    /// the baseline: `"full"` (everything), `"wall_answer"` (wall clock
    /// and answer only — native app rows whose counters are host-timing
    /// dependent), or `"wall"` (wall clock only — the native service,
    /// whose shed/expired split depends on real timing).
    gates: &'static str,
    wall: std::time::Duration,
    virtual_us: f64,
    events: u64,
    peak_queue_depth: u64,
    alloc: AllocSnapshot,
    answer: u64,
    /// Epoch-engine rounds (0 for direct `Machine::run` and native runs). A
    /// host-schedule invariant under the epoch engine: bench_check gates it
    /// for exact equality against the baseline.
    epochs: u64,
    /// Delivery-layer counters: boundary deposits, batch publishes, and
    /// consumer wakes. Deposits and batches are deterministic on the
    /// epoch engine (exact-gated); wakes are host-timing dependent
    /// everywhere and only reported.
    engine: EngineCounters,
    totals: NodeStats,
    service: Option<ServiceCols>,
}

impl SuiteRun {
    fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.wall.as_secs_f64().max(1e-9)
    }
}

fn chaos_cfg(nodes: usize, p: f64) -> MachineConfig {
    let plan = FaultPlan::drop_only(p).with_dup(p).with_delay(p, Dur::from_micros(20));
    MachineConfig::cm5(nodes)
        .with_fault_plan(plan)
        .with_reliability(ReliabilityConfig::retransmitting())
}

/// How many times each suite runs; the fastest wall-clock wins. The runs
/// are deterministic (same seed ⇒ same virtual work), so the minimum is the
/// least-noise estimate of the suite's true cost — means and medians still
/// carry scheduler jitter from the CI host.
const REPS: usize = 3;

/// Time `body` [`REPS`] times, keeping the fastest run, bracketing it with
/// allocator snapshots.
fn measure(
    name: &'static str,
    gates: &'static str,
    mut body: impl FnMut() -> SuiteOut,
) -> SuiteRun {
    let mut best: Option<SuiteRun> = None;
    for _ in 0..REPS {
        let before = alloc_snapshot();
        let t0 = Instant::now();
        let out = body();
        let wall = t0.elapsed();
        let alloc = alloc_snapshot().since(before);
        let run = SuiteRun {
            name,
            gates,
            wall,
            virtual_us: out.app.elapsed.as_micros_f64(),
            events: out.app.events,
            peak_queue_depth: out.app.peak_queue_depth,
            alloc,
            answer: out.app.answer,
            epochs: out.app.stats.engine.epochs,
            engine: out.app.stats.engine,
            totals: out.app.stats.total(),
            service: out.service,
        };
        if best.as_ref().is_none_or(|b| run.wall < b.wall) {
            best = Some(run);
        }
    }
    best.expect("REPS >= 1")
}

/// `rounds` back-to-back null RPCs from node 0 to node 1.
fn churn(rounds: u32, cfg: MachineConfig) -> AppOutcome {
    let machine = MachineBuilder::from_config(cfg).build();
    let states: Vec<Rc<ChurnState>> =
        (0..2).map(|_| Rc::new(ChurnState { counter: Cell::new(0) })).collect();
    for (i, st) in states.iter().enumerate() {
        Churn::register_all(machine.rpc(), NodeId(i), Rc::clone(st), oam_rpc::RpcMode::Orpc);
    }
    let answer = Rc::new(Cell::new(0u64));
    let a = Rc::clone(&answer);
    let report = machine.run(move |env| {
        let a = Rc::clone(&a);
        async move {
            if env.id().index() == 0 {
                let mut last = 0;
                for _ in 0..rounds {
                    last = Churn::bump::call(env.rpc(), env.node(), NodeId(1))
                        .await
                        .expect("reply decode");
                }
                a.set(last);
            }
            env.barrier().await;
        }
    });
    AppOutcome {
        elapsed: report.end_time.since(oam_model::Time::ZERO),
        answer: answer.get(),
        stats: report.stats,
        events: report.events,
        peak_queue_depth: report.peak_queue_depth,
    }
}

/// `rounds` back-to-back 4 KiB-payload RPCs from node 0 to node 1: a bulk
/// transfer storm, so the measurement is dominated by payload marshaling
/// and buffer management rather than per-message dispatch.
fn bulk_churn(rounds: u32, cfg: MachineConfig) -> AppOutcome {
    let machine = MachineBuilder::from_config(cfg).build();
    let states: Vec<Rc<ChurnState>> =
        (0..2).map(|_| Rc::new(ChurnState { counter: Cell::new(0) })).collect();
    for (i, st) in states.iter().enumerate() {
        Churn::register_all(machine.rpc(), NodeId(i), Rc::clone(st), oam_rpc::RpcMode::Orpc);
    }
    let answer = Rc::new(Cell::new(0u64));
    let a = Rc::clone(&answer);
    let report = machine.run(move |env| {
        let a = Rc::clone(&a);
        async move {
            if env.id().index() == 0 {
                let data: Vec<u8> = (0..4096u32).map(|i| (i % 251) as u8).collect();
                let mut last = 0;
                for _ in 0..rounds {
                    last = Churn::ingest::call(env.rpc(), env.node(), NodeId(1), data.clone())
                        .await
                        .expect("reply decode");
                }
                a.set(last);
            }
            env.barrier().await;
        }
    });
    AppOutcome {
        elapsed: report.end_time.since(oam_model::Time::ZERO),
        answer: answer.get(),
        stats: report.stats,
        events: report.events,
        peak_queue_depth: report.peak_queue_depth,
    }
}

/// State of the small-AM storm target: a hit counter the receiver's main
/// sleeps against. A bare spin-charge loop would starve the dispatcher (a
/// computing node never polls its NI), so the receiver blocks on the
/// condvar and the handler signals when the burst has fully landed —
/// idiomatic AM code, and exactly the shape that makes per-message wakes
/// expensive on the native backend.
pub struct StormState {
    /// Hits received so far.
    pub count: oam_threads::Mutex<u64>,
    /// Signalled when `count` reaches `target`.
    pub done: oam_threads::CondVar,
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

/// A burst of `rounds` small one-way active messages from node 0 to node
/// 1, then a count-sum reduction as the answer. The receiver blocks until
/// every hit has landed before reducing, so the answer is exactly
/// `rounds` on every backend and tuning — while the *delivery* cost
/// varies: under the native backend's batched path a burst costs one ring
/// publish and at most one consumer wake per flush boundary, where the
/// naive per-message path (`batch = 1`) pays one publish per AM. The
/// batched/naive suite pair prices exactly that gap.
fn am_storm(rounds: u32, cfg: MachineConfig) -> AppOutcome {
    let (report, answer) = run_partitioned(cfg, move |machine| {
        let states: Vec<Rc<StormState>> = machine
            .nodes()
            .iter()
            .map(|node| {
                Rc::new(StormState {
                    count: oam_threads::Mutex::new(node, 0),
                    done: oam_threads::CondVar::new(node),
                    target: rounds as u64,
                })
            })
            .collect();
        for (i, st) in states.iter().enumerate() {
            Storm::register_all(machine.rpc(), NodeId(i), Rc::clone(st), oam_rpc::RpcMode::Orpc);
        }
        let sum = Reducer::new(machine.collectives(), |a: &u64, b: &u64| a.wrapping_add(*b));
        let total = Rc::new(Cell::new(0u64));
        let t = Rc::clone(&total);
        ShardApp {
            main: Box::new(move |env| {
                let sum = sum.clone();
                let st = Rc::clone(&states[1]);
                let t = Rc::clone(&t);
                Box::pin(async move {
                    let mut mine = 0u64;
                    match env.id().index() {
                        0 => {
                            for _ in 0..rounds {
                                Storm::hit::send(env.rpc(), env.node(), NodeId(1)).await;
                            }
                        }
                        1 => {
                            let mut g = st.count.lock().await;
                            while g.with(|c| *c < st.target) {
                                g = st.done.wait(g).await;
                            }
                            mine = g.with(|c| *c);
                        }
                        _ => {}
                    }
                    // Only the target contributes: on the sim backend every
                    // node shares one replica (and handler state vec), on
                    // native each thread has its own — the sum folds to
                    // exactly `rounds` either way.
                    let got = sum.reduce(env.node(), mine).await;
                    if env.id().index() == 0 {
                        t.set(got);
                    }
                })
            }),
            finish: Box::new(move |_| total.get()),
        }
    });
    AppOutcome {
        elapsed: report.end_time.since(oam_model::Time::ZERO),
        answer,
        stats: report.stats,
        events: report.events,
        peak_queue_depth: report.peak_queue_depth,
    }
}

/// One suite definition: a name, the bench_check gate level recorded into
/// the report (see [`SuiteRun::gates`]), plus a body that can run on any
/// host thread (`--jobs`).
struct SuiteSpec {
    name: &'static str,
    gates: &'static str,
    body: Box<dyn FnMut() -> SuiteOut + Send>,
}

fn suite_specs(quick: bool) -> Vec<SuiteSpec> {
    let churn_rounds: u32 = if quick { 5_000 } else { 50_000 };
    let churn_chaos_rounds: u32 = if quick { 2_000 } else { 20_000 };
    let bulk_rounds: u32 = if quick { 500 } else { 5_000 };
    let sor_iters = if quick { 3 } else { 10 };
    let water_iters = if quick { 2 } else { 4 };
    let sharded_iters = if quick { 2 } else { 6 };

    let storm_rounds: u32 = if quick { 8_000 } else { 32_000 };

    let tsp_params = TspParams { ncities: 10, prefix_len: 4, ..Default::default() };
    let service_arrivals: u32 = if quick { 96 } else { 192 };
    // Deterministic sim rows get every gate; native rows are listed with
    // the gate level their counters can honestly support.
    let spec = |name: &'static str, body: Box<dyn FnMut() -> SuiteOut + Send>| SuiteSpec {
        name,
        gates: "full",
        body,
    };
    let native_spec = |name: &'static str, body: Box<dyn FnMut() -> SuiteOut + Send>| SuiteSpec {
        name,
        gates: "wall_answer",
        body,
    };
    // The 64-node SOR workload, run single-shard and with 4 shard worker
    // threads: the shard-scaling row for EXPERIMENTS.md. Identical virtual
    // work (answer, end time, per-node stats) — only the host-side
    // execution strategy differs.
    let sor_64node = |shards: usize, iters: usize| {
        sor::run_configured(
            System::Orpc,
            MachineConfig::cm5(64).with_shards(shards),
            oam_apps::sor::SorParams { rows: 256, cols: 128, iters },
        )
    };
    // The 256-node SOR workload: four times the nodes of sor_64node with the
    // same per-shard node count at 4 shards, so cross-shard traffic per
    // barrier grows while per-epoch local work stays comparable — the row
    // where adaptive fence skipping and the spin-then-park barrier have to
    // earn their keep. Same bit-identical-virtual-work invariant as above.
    let sor_256node = |shards: usize, iters: usize| {
        sor::run_configured(
            System::Orpc,
            MachineConfig::cm5(256).with_shards(shards),
            oam_apps::sor::SorParams { rows: 512, cols: 64, iters },
        )
    };
    vec![
        spec("null_rpc_churn", Box::new(move || churn(churn_rounds, MachineConfig::cm5(2)).into())),
        spec(
            "null_rpc_churn_chaos",
            Box::new(move || churn(churn_chaos_rounds, chaos_cfg(2, 0.01)).into()),
        ),
        spec(
            "bulk_payload_churn",
            Box::new(move || bulk_churn(bulk_rounds, MachineConfig::cm5(2)).into()),
        ),
        spec(
            "tsp_n10",
            Box::new(move || {
                tsp::run_configured(System::Orpc, MachineConfig::cm5(5), tsp_params).into()
            }),
        ),
        spec(
            "tsp_n10_chaos",
            Box::new(move || {
                tsp::run_configured(System::Orpc, chaos_cfg(5, 0.05), tsp_params).into()
            }),
        ),
        // The pipelining pair, at 2 slaves so the run is slave-bound (at 4+
        // slaves the master's GEN_COST pacing dominates and prefetching a
        // job cannot create jobs faster). Same machine, same instance; the
        // only difference is the slaves' call schedule: tsp_pipelined keeps
        // one get_job outstanding while expanding the previous route, so
        // the virtual_us gap between these two rows is the round trip the
        // pipelined stubs hide.
        spec("tsp_n10_s2", Box::new(move || tsp::run(System::Orpc, 2, tsp_params).into())),
        spec(
            "tsp_pipelined",
            Box::new(move || tsp::run_pipelined(System::Orpc, 2, tsp_params).into()),
        ),
        spec(
            "sor_256",
            Box::new(move || {
                sor::run(
                    System::Orpc,
                    4,
                    oam_apps::sor::SorParams { rows: 256, cols: 256, iters: sor_iters },
                )
                .into()
            }),
        ),
        spec(
            "water_64",
            Box::new(move || {
                water::run(
                    WaterVariant { system: System::Orpc, barrier: true },
                    4,
                    WaterParams { molecules: 64, iters: water_iters },
                )
                .outcome
                .into()
            }),
        ),
        spec("sor_64node", Box::new(move || sor_64node(1, sharded_iters).into())),
        spec("sor_64node_shards4", Box::new(move || sor_64node(4, sharded_iters).into())),
        spec("sor_256node", Box::new(move || sor_256node(1, sharded_iters).into())),
        spec("sor_256node_shards2", Box::new(move || sor_256node(2, sharded_iters).into())),
        spec("sor_256node_shards4", Box::new(move || sor_256node(4, sharded_iters).into())),
        // The open-loop overload experiment (DESIGN.md §13): goodput and
        // tail latency at the saturation knee, past it, and past it with
        // admission control off. The latency quantiles are virtual-time,
        // hence deterministic; bench_check gates p99 drift.
        spec(
            "service_openloop_1x",
            Box::new(move || {
                service::run(ServiceParams { arrivals: service_arrivals, ..Default::default() })
                    .into()
            }),
        ),
        spec(
            "service_openloop_2x",
            Box::new(move || {
                service::run(ServiceParams {
                    load_x100: 200,
                    arrivals: service_arrivals,
                    ..Default::default()
                })
                .into()
            }),
        ),
        spec(
            "service_openloop_2x_noadm",
            Box::new(move || {
                service::run(ServiceParams {
                    load_x100: 200,
                    admission: false,
                    arrivals: service_arrivals,
                    ..Default::default()
                })
                .into()
            }),
        ),
        // The open-loop service with heavy requests fetching their scans
        // as chunked streaming sessions instead of one bulk reply — the
        // row that prices the session protocol (chunk messages, session
        // table, Close frames) against service_openloop_1x.
        spec(
            "service_stream_scan",
            Box::new(move || {
                service::run(ServiceParams {
                    arrivals: service_arrivals,
                    streaming: true,
                    ..Default::default()
                })
                .into()
            }),
        ),
        // Native host-threads backend rows: wall time here is *real* —
        // modeled compute charges pace in wall-clock, one OS thread per
        // node — so sizes are kept small and the virtual-time and event
        // columns are not comparable to the sim rows. They sit in the
        // baseline with `gates: "wall_answer"` (or `"wall"` for the
        // service, whose shed split is timing-dependent): bench_check
        // holds the deterministic answer exact and the wall clock to the
        // looser native threshold, and logs which gates it skipped.
        native_spec(
            "native_sor",
            Box::new(move || {
                sor::run_configured(
                    System::Orpc,
                    MachineConfig::cm5(4).with_backend(Backend::Native),
                    oam_apps::sor::SorParams { rows: 32, cols: 16, iters: 3 },
                )
                .into()
            }),
        ),
        native_spec(
            "native_tsp",
            Box::new(move || {
                tsp::run_configured(
                    System::Orpc,
                    MachineConfig::cm5(4).with_backend(Backend::Native),
                    TspParams { ncities: 9, prefix_len: 3, ..Default::default() },
                )
                .into()
            }),
        ),
        native_spec(
            "native_water",
            Box::new(move || {
                water::run_configured(
                    WaterVariant { system: System::Orpc, barrier: true },
                    MachineConfig::cm5(4).with_backend(Backend::Native),
                    WaterParams { molecules: 12, iters: 2 },
                )
                .outcome
                .into()
            }),
        ),
        SuiteSpec {
            name: "native_service",
            gates: "wall",
            body: Box::new(move || {
                service::run(ServiceParams {
                    arrivals: 48,
                    backend: Some(Backend::Native),
                    ..Default::default()
                })
                .into()
            }),
        },
        // The small-AM storm pair: the same burst of one-way AMs under the
        // batched delivery path (default) and the per-message reference
        // path (`batch = 1`). Identical answers; the deposits/batches/
        // wakes columns in the JSON are the point — bench_check requires
        // the naive row to publish at least 2× as many batches (i.e. wake
        // signals issued) as the batched row.
        native_spec(
            "native_small_am_storm",
            Box::new(move || {
                am_storm(storm_rounds, MachineConfig::cm5(2).with_backend(Backend::Native)).into()
            }),
        ),
        native_spec(
            "native_small_am_storm_naive",
            Box::new(move || {
                am_storm(
                    storm_rounds,
                    MachineConfig::cm5(2)
                        .with_backend(Backend::Native)
                        .with_tuning(ShardTuning { batch: Some(1), ..ShardTuning::default() }),
                )
                .into()
            }),
        ),
    ]
}

fn run_suites(quick: bool, jobs: usize) -> Vec<SuiteRun> {
    // Unmeasured warm-up: fault in code pages and the allocator's arenas so
    // the first measured suite is not charged for process cold start.
    let _ = churn(200, MachineConfig::cm5(2));

    let specs = suite_specs(quick);
    if jobs <= 1 {
        return specs
            .into_iter()
            .map(|s| {
                let run = measure(s.name, s.gates, s.body);
                println!("[suite] {:<22} {:>10.2} ms", run.name, run.wall.as_secs_f64() * 1e3);
                run
            })
            .collect();
    }

    // Thread-pool mode: workers pull the next unstarted suite off a shared
    // queue; results land back in definition order so the report (and any
    // baseline diff) is independent of scheduling.
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;
    let n = specs.len();
    let queue: Mutex<Vec<(usize, SuiteSpec)>> =
        Mutex::new(specs.into_iter().enumerate().rev().collect());
    let done: Mutex<Vec<Option<SuiteRun>>> = Mutex::new((0..n).map(|_| None).collect());
    let live = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..jobs.min(n) {
            scope.spawn(|| loop {
                let Some((idx, s)) = queue.lock().expect("queue").pop() else { break };
                live.fetch_add(1, Ordering::Relaxed);
                let run = measure(s.name, s.gates, s.body);
                live.fetch_sub(1, Ordering::Relaxed);
                println!("[suite] {:<22} {:>10.2} ms", run.name, run.wall.as_secs_f64() * 1e3);
                done.lock().expect("done")[idx] = Some(run);
            });
        }
    });
    done.into_inner().expect("done").into_iter().map(|r| r.expect("all suites ran")).collect()
}

fn json_report(mode: &str, suites: &[SuiteRun]) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"schema\": 1,");
    let _ = writeln!(s, "  \"mode\": \"{mode}\",");
    s.push_str("  \"suites\": [\n");
    for (i, r) in suites.iter().enumerate() {
        let t = &r.totals;
        let _ = writeln!(s, "    {{");
        let _ = writeln!(s, "      \"name\": \"{}\",", r.name);
        let _ = writeln!(s, "      \"gates\": \"{}\",", r.gates);
        let _ = writeln!(s, "      \"wall_ms\": {:.3},", r.wall.as_secs_f64() * 1e3);
        let _ = writeln!(s, "      \"virtual_us\": {:.3},", r.virtual_us);
        let _ = writeln!(s, "      \"events\": {},", r.events);
        let _ = writeln!(s, "      \"events_per_sec\": {:.0},", r.events_per_sec());
        let _ = writeln!(s, "      \"peak_queue_depth\": {},", r.peak_queue_depth);
        let _ = writeln!(s, "      \"allocs\": {},", r.alloc.allocs);
        let _ = writeln!(s, "      \"alloc_bytes\": {},", r.alloc.bytes);
        let _ = writeln!(s, "      \"answer\": {},", r.answer);
        let _ = writeln!(s, "      \"epochs\": {},", r.epochs);
        let _ = writeln!(s, "      \"deposits\": {},", r.engine.deposits);
        let _ = writeln!(s, "      \"batches\": {},", r.engine.batches);
        let _ = writeln!(s, "      \"wakes\": {},", r.engine.wakes);
        let _ = writeln!(s, "      \"msgs_per_batch\": {:.3},", r.engine.msgs_per_batch());
        let _ = writeln!(s, "      \"messages_sent\": {},", t.messages_sent);
        let _ = writeln!(s, "      \"oam_attempts\": {},", t.oam_attempts);
        let _ = writeln!(s, "      \"oam_successes\": {},", t.oam_successes);
        match &r.service {
            None => {
                let _ = writeln!(s, "      \"retransmits\": {}", t.retransmits);
            }
            Some(sv) => {
                let _ = writeln!(s, "      \"retransmits\": {},", t.retransmits);
                let _ = writeln!(s, "      \"p50_us\": {:.3},", sv.p50_us);
                let _ = writeln!(s, "      \"p99_us\": {:.3},", sv.p99_us);
                let _ = writeln!(s, "      \"p999_us\": {:.3},", sv.p999_us);
                let _ = writeln!(s, "      \"goodput_per_sec\": {:.1},", sv.goodput_per_sec);
                let _ = writeln!(s, "      \"completed\": {},", sv.completed);
                let _ = writeln!(s, "      \"shed\": {},", sv.shed);
                let _ = writeln!(s, "      \"expired\": {},", sv.expired);
                let _ = writeln!(s, "      \"abandoned\": {}", sv.abandoned);
            }
        }
        let _ = write!(s, "    }}{}", if i + 1 < suites.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ]\n}\n");
    s
}

fn main() {
    let mut quick = false;
    let mut jobs = 1usize;
    let mut out: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--jobs" => {
                jobs = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&j| j >= 1)
                    .expect("--jobs needs a positive integer");
            }
            "--out" => out = Some(PathBuf::from(args.next().expect("--out needs a path"))),
            "--help" | "-h" => {
                println!("usage: perfsuite [--quick] [--jobs N] [--out PATH]");
                println!(
                    "  --jobs N  run independent suites on N host threads; with N > 1 the\n\
                     \x20           alloc columns include other in-flight suites' allocations\n\
                     \x20           (the counting allocator is process-global)"
                );
                return;
            }
            other => {
                eprintln!("unknown flag {other}; try --help");
                std::process::exit(2);
            }
        }
    }
    let mode = if quick { "quick" } else { "full" };
    let suites = run_suites(quick, jobs);

    println!(
        "{:<22} {:>10} {:>12} {:>12} {:>6} {:>12} {:>14}",
        "suite", "wall ms", "events", "events/s", "peakq", "allocs", "alloc bytes"
    );
    for r in &suites {
        println!(
            "{:<22} {:>10.2} {:>12} {:>12.0} {:>6} {:>12} {:>14}",
            r.name,
            r.wall.as_secs_f64() * 1e3,
            r.events,
            r.events_per_sec(),
            r.peak_queue_depth,
            r.alloc.allocs,
            r.alloc.bytes,
        );
    }

    let path = out.unwrap_or_else(|| workspace_root().join("BENCH_results.json"));
    match std::fs::write(&path, json_report(mode, &suites)) {
        Ok(()) => println!("\n[json] {}", path.display()),
        Err(e) => {
            eprintln!("failed to write {}: {e}", path.display());
            std::process::exit(1);
        }
    }
}
