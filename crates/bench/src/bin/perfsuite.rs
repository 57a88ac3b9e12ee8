//! Headless simulator-performance suite with a machine-readable report.
//!
//! Runs a fixed set of workloads — null-RPC and bulk churn, TSP, SOR,
//! Water, the streaming service, and chaos-on variants — once each, and
//! records, per suite: the deterministic sim-domain counters (virtual
//! time, events, answer, epochs, delivery deposits/batches), heap
//! allocations (via a counting global allocator), and host wall-clock
//! for information. The report is written as `BENCH_results.json` at the
//! workspace root; CI diffs it against the committed
//! `BENCH_baseline.json` with `scripts/bench_check.rs`, which gates only
//! the deterministic columns. Host time is compared parent against
//! change on the same host by `bench_check pairs` (e2ebench).
//!
//! ```sh
//! cargo run --release -p oam-bench --bin perfsuite            # full sizes
//! cargo run --release -p oam-bench --bin perfsuite -- --quick # CI sizes
//! ```

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
use oam_machine::MachineBuilder;
use oam_model::{
    Backend, Dur, EngineCounters, FaultPlan, MachineConfig, NodeId, NodeStats, ReliabilityConfig,
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

/// Overload scorecard columns, present only for the service suite
/// (virtual-time latency quantiles are deterministic, so the CI gate can
/// watch p99 drift like any other counter).
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
    /// Which gates bench_check applies when this row sits in the
    /// baseline: `"full"` (every deterministic column — the sim rows) or
    /// `"answer"` (answer only — native rows, whose event, epoch and
    /// allocation counters depend on host timing).
    gates: &'static str,
    /// Host wall-clock, reported for information only: no gate reads it.
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

/// Run `body` once, bracketing it with allocator snapshots. Every gated
/// column is deterministic, so one run is the measurement.
fn measure(name: &'static str, gates: &'static str, body: impl FnOnce() -> SuiteOut) -> SuiteRun {
    let before = alloc_snapshot();
    let t0 = Instant::now();
    let out = body();
    let wall = t0.elapsed();
    let alloc = alloc_snapshot().since(before);
    println!("[suite] {name:<22} {:>10.2} ms", wall.as_secs_f64() * 1e3);
    SuiteRun {
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
    }
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

fn run_suites(quick: bool) -> Vec<SuiteRun> {
    let churn_chaos_rounds: u32 = if quick { 2_000 } else { 20_000 };
    let bulk_rounds: u32 = if quick { 500 } else { 5_000 };
    let sor_iters = if quick { 3 } else { 10 };
    let water_iters = if quick { 2 } else { 4 };
    let sharded_iters = if quick { 2 } else { 6 };

    let tsp_params = TspParams { ncities: 10, prefix_len: 4, ..Default::default() };
    let service_arrivals: u32 = if quick { 96 } else { 192 };
    // The 64-node SOR workload, run single-shard and with 4 shard worker
    // threads. Identical virtual work (answer, end time, per-node stats) —
    // only the host-side execution strategy differs — so the epoch and
    // delivery counters are what these rows pin.
    let sor_64node = |shards: usize, iters: usize| {
        sor::run_configured(
            System::Orpc,
            MachineConfig::cm5(64).with_shards(shards),
            oam_apps::sor::SorParams { rows: 256, cols: 128, iters },
        )
    };

    // Unmeasured warm-up: fault in code pages and the allocator's arenas so
    // the first measured suite is not charged for process cold start.
    let _ = churn(200, MachineConfig::cm5(2));

    // Sim rows get every deterministic gate (`"full"`); native rows hold
    // their answer only (`"answer"`). The suites run in this order.
    vec![
        measure("null_rpc_churn_chaos", "full", || {
            churn(churn_chaos_rounds, chaos_cfg(2, 0.01)).into()
        }),
        measure("bulk_payload_churn", "full", || {
            bulk_churn(bulk_rounds, MachineConfig::cm5(2)).into()
        }),
        measure("tsp_n10", "full", || {
            tsp::run_configured(System::Orpc, MachineConfig::cm5(5), tsp_params).into()
        }),
        measure("tsp_n10_chaos", "full", || {
            tsp::run_configured(System::Orpc, chaos_cfg(5, 0.05), tsp_params).into()
        }),
        // The pipelining pair, at 2 slaves so the run is slave-bound (at 4+
        // slaves the master's GEN_COST pacing dominates and prefetching a
        // job cannot create jobs faster). Same machine, same instance; the
        // only difference is the slaves' call schedule: tsp_pipelined keeps
        // one get_job outstanding while expanding the previous route, so
        // the virtual_us gap between these two rows is the round trip the
        // pipelined stubs hide.
        measure("tsp_n10_s2", "full", || tsp::run(System::Orpc, 2, tsp_params).into()),
        measure("tsp_pipelined", "full", || tsp::run_pipelined(System::Orpc, 2, tsp_params).into()),
        measure("sor_256", "full", || {
            let p = oam_apps::sor::SorParams { rows: 256, cols: 256, iters: sor_iters };
            sor::run(System::Orpc, 4, p).into()
        }),
        measure("water_64", "full", || {
            let variant = WaterVariant { system: System::Orpc, barrier: true };
            water::run(variant, 4, WaterParams { molecules: 64, iters: water_iters }).outcome.into()
        }),
        measure("sor_64node", "full", || sor_64node(1, sharded_iters).into()),
        measure("sor_64node_shards4", "full", || sor_64node(4, sharded_iters).into()),
        // The open-loop service (DESIGN.md §13) with heavy requests
        // fetching their scans as chunked streaming sessions: the row that
        // prices the session protocol (chunk messages, session table,
        // Close frames). The latency quantiles are virtual-time, hence
        // deterministic; bench_check gates p99 drift.
        measure("service_stream_scan", "full", || {
            service::run(ServiceParams {
                arrivals: service_arrivals,
                streaming: true,
                ..Default::default()
            })
            .into()
        }),
        // Native host-threads backend rows: modeled compute charges pace
        // in wall-clock on one worker thread per host core, so sizes are
        // kept small and only the answer is deterministic.
        measure("native_sor", "answer", || {
            let cfg = MachineConfig::cm5(4).with_backend(Backend::Native);
            let p = oam_apps::sor::SorParams { rows: 32, cols: 16, iters: 3 };
            sor::run_configured(System::Orpc, cfg, p).into()
        }),
        measure("native_tsp", "answer", || {
            let cfg = MachineConfig::cm5(4).with_backend(Backend::Native);
            let p = TspParams { ncities: 9, prefix_len: 3, ..Default::default() };
            tsp::run_configured(System::Orpc, cfg, p).into()
        }),
        measure("native_water", "answer", || {
            let cfg = MachineConfig::cm5(4).with_backend(Backend::Native);
            let variant = WaterVariant { system: System::Orpc, barrier: true };
            water::run_configured(variant, cfg, WaterParams { molecules: 12, iters: 2 })
                .outcome
                .into()
        }),
    ]
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
    let mut out: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--out" => out = Some(PathBuf::from(args.next().expect("--out needs a path"))),
            "--help" | "-h" => {
                println!("usage: perfsuite [--quick] [--out PATH]");
                return;
            }
            other => {
                eprintln!("unknown flag {other}; try --help");
                std::process::exit(2);
            }
        }
    }
    let mode = if quick { "quick" } else { "full" };
    let suites = run_suites(quick);

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
