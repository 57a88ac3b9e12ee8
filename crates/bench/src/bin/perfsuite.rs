//! Headless simulator-performance suite with a machine-readable report.
//!
//! Runs a fixed set of small workloads — null-RPC and bulk churn, TSP,
//! SOR, Water, the streaming service, and chaos-on variants — once each,
//! and records, per suite: the deterministic sim-domain counters (virtual
//! time, events, answer, epochs, delivery deposits/batches, OAM
//! outcomes), heap allocations (via a counting global allocator), and
//! host wall-clock for information. The report is written as
//! `BENCH_results.json` at the workspace root; CI diffs it against the
//! committed `BENCH_baseline.json` with `scripts/bench_check.rs`, which
//! gates only the deterministic columns. Host time is compared parent
//! against change on the same host by `bench_check pairs` (e2ebench).
//!
//! ```sh
//! cargo run --release -p oam-bench --bin perfsuite [-- --out PATH]
//! ```

use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

use oam_apps::service::{self, ServiceParams};
use oam_apps::tsp::TspParams;
use oam_apps::water::{WaterParams, WaterVariant};
use oam_apps::{sor, tsp, water, AppOutcome, System};
use oam_bench::report::{out_path, write_report, Row};
use oam_machine::MachineBuilder;
use oam_model::{Backend, Dur, FaultPlan, MachineConfig, NodeId};
use oam_rpc::define_rpc_service;
use oam_sim::{alloc_snapshot, CountingAlloc};

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

/// What a suite body hands back: an application outcome, or the
/// service's with its overload scorecard.
enum Suite {
    App(AppOutcome),
    Service(service::ServiceOutcome),
}

impl From<AppOutcome> for Suite {
    fn from(app: AppOutcome) -> Self {
        Suite::App(app)
    }
}

impl From<service::ServiceOutcome> for Suite {
    fn from(o: service::ServiceOutcome) -> Self {
        Suite::Service(o)
    }
}

/// The service suite's overload scorecard, as extra row columns
/// (virtual-time latency quantiles are deterministic, so the CI gate can
/// watch p99 drift like any other counter).
fn service_row(o: service::ServiceOutcome) -> (AppOutcome, Vec<(&'static str, String)>) {
    let extra = vec![
        ("p50_us", format!("{:.3}", o.p50.as_micros_f64())),
        ("p99_us", format!("{:.3}", o.p99.as_micros_f64())),
        ("p999_us", format!("{:.3}", o.p999.as_micros_f64())),
        ("goodput_per_sec", format!("{:.1}", o.goodput_per_sec)),
        ("completed", o.completed.to_string()),
        ("shed", o.shed.to_string()),
        ("expired", o.expired.to_string()),
        ("abandoned", o.abandoned.to_string()),
    ];
    (o.app, extra)
}

fn chaos_cfg(nodes: usize, p: f64) -> MachineConfig {
    let plan = FaultPlan::drop_only(p).with_dup(p).with_delay(p, Dur::from_micros(20));
    MachineConfig::cm5(nodes).with_fault_plan(plan).with_retransmission()
}

/// Run `body` once, bracketing it with allocator snapshots. Every gated
/// column is deterministic, so one run is the measurement. `gates` is
/// `"full"` for sim rows and `"answer"` for native rows (see [`Row`]).
fn measure(name: &'static str, gates: &'static str, body: impl FnOnce() -> Suite) -> Row {
    let before = alloc_snapshot();
    let t0 = Instant::now();
    let suite = body();
    let wall = t0.elapsed();
    let alloc = alloc_snapshot().since(before);
    let (out, extra) = match suite {
        Suite::App(out) => (out, Vec::new()),
        Suite::Service(o) => service_row(o),
    };
    println!("[suite] {name:<22} {:>10.2} ms", wall.as_secs_f64() * 1e3);
    Row { gates, wall: Some(wall), alloc: Some(alloc), extra, ..Row::app(name, out) }
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
    AppOutcome::new(report, answer.get())
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
    AppOutcome::new(report, answer.get())
}

fn run_suites() -> Vec<Row> {
    let tsp_params = TspParams { ncities: 10, prefix_len: 4, ..Default::default() };
    // The 64-node SOR workload, run single-shard and with 4 shard worker
    // threads. Identical virtual work (answer, end time, per-node stats) —
    // only the host-side execution strategy differs — so the epoch and
    // delivery counters are what these rows pin.
    let sor_64node = |shards: usize| {
        sor::run_configured(
            System::Orpc,
            MachineConfig::cm5(64).with_shards(shards),
            oam_apps::sor::SorParams { rows: 256, cols: 128, iters: 2 },
        )
    };

    // Unmeasured warm-up: fault in code pages and the allocator's arenas so
    // the first measured suite is not charged for process cold start.
    let _ = churn(200, MachineConfig::cm5(2));

    // Sim rows get every deterministic gate (`"full"`); native rows hold
    // their answer only (`"answer"`). The suites run in this order.
    vec![
        measure("null_rpc_churn_chaos", "full", || churn(2_000, chaos_cfg(2, 0.01)).into()),
        measure("bulk_payload_churn", "full", || bulk_churn(500, MachineConfig::cm5(2)).into()),
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
            let p = oam_apps::sor::SorParams { rows: 256, cols: 256, iters: 3 };
            sor::run(System::Orpc, 4, p).into()
        }),
        measure("water_64", "full", || {
            let variant = WaterVariant { system: System::Orpc, barrier: true };
            water::run(variant, 4, WaterParams { molecules: 64, iters: 2 }).outcome.into()
        }),
        measure("sor_64node", "full", || sor_64node(1).into()),
        measure("sor_64node_shards4", "full", || sor_64node(4).into()),
        // The open-loop service (DESIGN.md §13) with heavy requests
        // fetching their scans as chunked streaming sessions: the row that
        // prices the session protocol (chunk messages, session table,
        // Close frames). The latency quantiles are virtual-time, hence
        // deterministic; bench_check gates p99 drift.
        measure("service_stream_scan", "full", || {
            let cfg = MachineConfig::cm5(4).with_seed(0x5e41_11ce);
            service::run(cfg, ServiceParams { arrivals: 96, streaming: true, ..Default::default() })
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

fn main() {
    let path = out_path("perfsuite", "BENCH_results.json");
    let suites = run_suites();

    println!(
        "{:<22} {:>10} {:>12} {:>12} {:>6} {:>12} {:>14}",
        "suite", "wall ms", "events", "events/s", "peakq", "allocs", "alloc bytes"
    );
    for r in &suites {
        let (out, alloc) = (r.outcome(), r.alloc.unwrap_or_default());
        println!(
            "{:<22} {:>10.2} {:>12} {:>12.0} {:>6} {:>12} {:>14}",
            r.name,
            r.wall.unwrap_or_default().as_secs_f64() * 1e3,
            out.events,
            r.events_per_sec().unwrap_or_default(),
            out.peak_queue_depth,
            alloc.allocs,
            alloc.bytes,
        );
    }
    write_report(&path, "perfsuite", &suites);
}
