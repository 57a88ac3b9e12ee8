//! Regenerates the paper's evaluation (§4) and its ablations: Table 1,
//! the §4.1.2 bulk-transfer curve, Figures 1–4, Tables 2–3, and the
//! queue-policy, abort-strategy, buffering, handler-budget and
//! adaptive-dispatch ablations, each printed next to the paper's numbers.
//! A last section, the simulator performance rows, runs small workloads
//! (null-RPC and bulk churn, TSP, SOR, Water, the streaming service, chaos
//! variants) and counts each one's heap allocations.
//!
//! Every distinct run (application, system, size, machine configuration)
//! is measured once, and every table that needs it reads that one row:
//! Table 2 is Figure 2's ORPC column, Table 3 is Figure 4's ORPC column
//! without barriers, and an ablation row under the default configuration
//! is the figure's row. All rows, sequential baselines included, are
//! written as JSON (default `PAPER_results.json` at the workspace root);
//! `bench_check PAPER_rows.json PAPER_results.json` holds them against the
//! committed baseline: answers, times, events and the engine and OAM
//! counters exactly, the performance rows' allocation counts to +20% and
//! the service's p99 to +25%. Every time is virtual, so the rows are
//! deterministic.
//!
//! ```sh
//! cargo run --release -p oam-bench --bin paper [-- --out PATH]
//! ```

use std::cell::Cell;
use std::rc::Rc;

use oam_apps::service::{self, ServiceOutcome, ServiceParams};
use oam_apps::sor::{self, SorParams};
use oam_apps::tsp::{self, TspParams};
use oam_apps::water::{self, WaterParams, WaterVariant};
use oam_apps::{triangle, AppOutcome, System};
use oam_bench::report::{
    out_path, per_method_rows, print_table, write_report, Row, PER_METHOD_HEADERS,
};
use oam_bench::{micro_rpc, MicroParams, ServerLoad};
use oam_machine::MachineBuilder;
use oam_model::{
    AbortReason, AbortStrategy, AdaptivePolicy, Dur, ExecPolicy, FaultPlan, MachineConfig, NodeId,
    QueuePolicy,
};
use oam_rpc::{define_rpc_service, RpcMode};
use oam_sim::{alloc_snapshot, CountingAlloc};
use oam_threads::Mutex;

/// Counts heap allocations for the simulator performance rows.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The Triangle puzzle's size (the paper's workload).
const TRIANGLE_SIZE: usize = 6;
/// Processor counts of Figures 1, 3 and 4.
const PROCS: [usize; 8] = [1, 2, 4, 8, 16, 32, 64, 128];
/// Slave counts of Figure 2 and Table 2.
const SLAVES: [usize; 8] = [1, 2, 4, 8, 16, 32, 64, 127];

/// Every row measured so far, each under the key of the run behind it.
#[derive(Default)]
struct Rows {
    rows: Vec<Row>,
    /// `(workload, configuration)`; a row without a shared run is keyed
    /// by its name alone.
    keys: Vec<(String, Option<MachineConfig>)>,
}

impl Rows {
    /// The row of one run: measured by `run` on the first request, read
    /// back on any later request for the same workload under an equal
    /// configuration.
    fn get(&mut self, what: String, cfg: Option<MachineConfig>, run: impl FnOnce() -> Row) -> &Row {
        let key = (what, cfg);
        if let Some(i) = self.keys.iter().position(|k| *k == key) {
            return &self.rows[i];
        }
        let row = run();
        assert!(self.rows.iter().all(|r| r.name != row.name), "two runs named {}", row.name);
        self.keys.push(key);
        self.rows.push(row);
        self.rows.last().expect("just pushed")
    }

    /// A row no other table shares.
    fn add(&mut self, row: Row) -> &Row {
        self.get(row.name.clone(), None, || row)
    }

    fn triangle(&mut self, system: System, cfg: MachineConfig, poll: usize, tag: &str) -> &Row {
        let name = format!("triangle/{}/p{}{tag}", label(system), cfg.nodes);
        let what = format!("triangle {system:?} size {TRIANGLE_SIZE} poll {poll}");
        self.get(what, Some(cfg.clone()), || {
            Row::app(name, triangle::run_configured(system, cfg, TRIANGLE_SIZE, poll))
        })
    }

    fn tsp(&mut self, system: System, cfg: MachineConfig, tag: &str) -> &Row {
        let name = format!("tsp/{}/s{}{tag}", label(system), cfg.nodes - 1);
        let what = format!("tsp {system:?} {:?}", TspParams::default());
        self.get(what, Some(cfg.clone()), || {
            Row::app(name, tsp::run_configured(system, cfg, TspParams::default()))
        })
    }

    fn sor(&mut self, system: System, procs: usize) -> &Row {
        let cfg = MachineConfig::cm5(procs);
        let name = format!("sor/{}/p{procs}", label(system));
        let what = format!("sor {system:?} {:?}", SorParams::default());
        self.get(what, Some(cfg.clone()), || {
            Row::app(name, sor::run_configured(system, cfg, SorParams::default()))
        })
    }

    fn water(&mut self, v: WaterVariant, procs: usize) -> &Row {
        let cfg = MachineConfig::cm5(procs);
        let barrier = if v.barrier { "+b" } else { "" };
        let name = format!("water/{}{barrier}/p{procs}", label(v.system));
        let what = format!("water {v:?} {:?}", WaterParams::default());
        self.get(what, Some(cfg.clone()), || {
            Row::app(name, water::run_configured(v, cfg, WaterParams::default()).outcome)
        })
    }

    /// A sequential baseline: `(answer, virtual time)`.
    fn sequential(&mut self, app: &str, run: impl FnOnce() -> (u64, Dur)) -> &Row {
        let name = format!("{app}/seq");
        self.get(name.clone(), None, || {
            let (answer, t) = run();
            Row::new(name, t, answer, None)
        })
    }
}

fn label(system: System) -> String {
    system.label().to_lowercase()
}

fn secs(row: &Row) -> f64 {
    row.virtual_time.as_secs_f64()
}

/// Figures 1–3: per machine size, each system's time and speedup.
fn speedup_figure(
    rows: &mut Rows,
    sizes: &[usize],
    seq: Dur,
    run: fn(&mut Rows, System, usize) -> &Row,
) -> Vec<Vec<String>> {
    sizes
        .iter()
        .map(|&p| {
            let mut cells = vec![p.to_string()];
            let mut answers = Vec::new();
            for system in System::ALL {
                let out = run(rows, system, p).outcome();
                answers.push(out.answer);
                cells.push(format!("{:.3}", out.elapsed.as_secs_f64()));
                cells.push(format!("{:.2}", out.speedup(seq)));
            }
            assert!(answers.windows(2).all(|w| w[0] == w[1]), "systems disagree at {p}");
            cells
        })
        .collect()
}

const SPEEDUP_HEADERS: [&str; 6] =
    ["AM (s)", "AM spd", "ORPC (s)", "ORPC spd", "TRPC (s)", "TRPC spd"];

fn headers<'a>(first: &'a str, rest: &[&'a str]) -> Vec<&'a str> {
    std::iter::once(first).chain(rest.iter().copied()).collect()
}

/// One microbenchmark run as a row: its headline time is the mean round
/// trip.
fn micro_row(name: String, params: MicroParams) -> Row {
    let out = micro_rpc(params);
    Row::new(name, out.mean, out.run.answer, Some(out.run))
}

fn table1(rows: &mut Rows) {
    // Paper values (µs): [system][idle, busy]; None = not reported.
    let paper: &[(System, [Option<f64>; 2])] = &[
        (System::Trpc, [Some(21.0), Some(74.0)]),
        (System::Orpc, [Some(14.0), Some(14.0)]),
        (System::HandAm, [Some(13.0), None]),
    ];
    let mut cells = Vec::new();
    for (system, expect) in paper {
        let mut line = vec![system.label().to_string()];
        for (i, load) in [ServerLoad::Idle, ServerLoad::Busy].into_iter().enumerate() {
            let name = format!("null_rpc/{}/{load:?}", label(*system)).to_lowercase();
            let row = rows.add(micro_row(name, MicroParams::roundtrip(*system, load, 64, 0)));
            line.push(format!("{:.1}", row.virtual_time.as_micros_f64()));
            line.push(expect[i].map_or("-".into(), |p| format!("{p:.0}")));
        }
        cells.push(line);
    }
    let headers = ["System", "idle (us)", "paper", "busy (us)", "paper"];
    print_table("Table 1: round-trip null RPC (measured vs. paper)", &headers, &cells);
}

fn bulk_transfer(rows: &mut Rows) {
    let sizes: &[usize] = &[0, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384];
    let mut cells = Vec::new();
    for &bytes in sizes {
        let [am, orpc, trpc] = System::ALL.map(|system| {
            let name = format!("bulk/{}/{bytes}", label(system));
            let params = MicroParams::roundtrip(system, ServerLoad::Idle, 16, bytes);
            rows.add(micro_row(name, params)).virtual_time.as_micros_f64()
        });
        cells.push(vec![
            bytes.to_string(),
            format!("{am:.1}"),
            format!("{orpc:.1}"),
            format!("{trpc:.1}"),
            format!("{:.1}", trpc - orpc),
            format!("{:.2}", trpc / orpc),
        ]);
    }
    let headers = ["bytes", "AM (us)", "ORPC (us)", "TRPC (us)", "abs gap", "rel gap"];
    print_table("S4.1.2: RPC time vs. data size (server idle)", &headers, &cells);
}

fn triangle_default(rows: &mut Rows, system: System, procs: usize) -> &Row {
    rows.triangle(system, MachineConfig::cm5(procs), 1, "")
}

fn figure1(rows: &mut Rows) {
    let seq = rows
        .sequential("triangle", || {
            let (solutions, _, t) = triangle::sequential(TRIANGLE_SIZE);
            (solutions, t)
        })
        .virtual_time;
    println!(
        "sequential baseline (size {TRIANGLE_SIZE}): {:.2} s (paper: 13.7 s)",
        seq.as_secs_f64()
    );
    let cells = speedup_figure(rows, &PROCS, seq, triangle_default);
    print_table("Figure 1: Triangle puzzle", &headers("procs", &SPEEDUP_HEADERS), &cells);
    // The paper's headline ratio at the largest configuration.
    let p = PROCS[PROCS.len() - 1];
    let [am, orpc, trpc] = System::ALL.map(|s| secs(triangle_default(rows, s, p)));
    println!(
        "\nAt P={p}: TRPC/ORPC = {:.2}x (paper 2.9x), TRPC/AM = {:.2}x (paper 3.2x)",
        trpc / orpc,
        trpc / am
    );
}

fn tsp_default(rows: &mut Rows, system: System, slaves: usize) -> &Row {
    rows.tsp(system, MachineConfig::cm5(slaves + 1), "")
}

fn tsp_best(rows: &mut Rows) -> &Row {
    rows.sequential("tsp", || {
        let (best, _, t) = tsp::sequential(TspParams::default());
        (u64::from(best), t)
    })
}

fn figure2(rows: &mut Rows) {
    let seq = tsp_best(rows);
    let (best, seq) = (seq.answer, seq.virtual_time);
    println!(
        "sequential baseline: {:.2} s, optimal tour {best} (paper: 12.4 s)",
        seq.as_secs_f64()
    );
    let cells = speedup_figure(rows, &SLAVES, seq, tsp_default);
    for system in System::ALL {
        for &s in &SLAVES {
            let answer = tsp_default(rows, system, s).answer;
            assert_eq!(answer, best, "{} found a wrong tour", system.label());
        }
    }
    print_table(
        "Figure 2: Traveling salesman problem",
        &headers("slaves", &SPEEDUP_HEADERS),
        &cells,
    );
}

/// Tables 2 and 3: per machine size, the OAM success rate next to the
/// paper's, then the per-method breakdown at the largest size.
fn success_table(
    title: &str,
    first: &str,
    paper: &[(usize, f64)],
    rows: &mut Rows,
    run: fn(&mut Rows, usize) -> &Row,
) {
    let cells: Vec<Vec<String>> = paper
        .iter()
        .map(|&(n, paper_rate)| {
            let t = run(rows, n).outcome().stats.total();
            vec![
                n.to_string(),
                t.oam_attempts.to_string(),
                t.oam_successes.to_string(),
                format!("{:.1}", t.success_rate().unwrap_or(0.0) * 100.0),
                format!("{paper_rate:.1}"),
            ]
        })
        .collect();
    print_table(title, &[first, "# OAMs", "successes", "% success", "paper %"], &cells);
    let last = paper[paper.len() - 1].0;
    print_table(
        &format!("Per-method OAM breakdown ({last} {first})"),
        &PER_METHOD_HEADERS,
        &per_method_rows(&run(rows, last).outcome().stats),
    );
}

fn table2(rows: &mut Rows) {
    let paper = [
        (1, 100.0),
        (2, 100.0),
        (4, 99.9),
        (8, 99.9),
        (16, 99.8),
        (32, 99.5),
        (64, 99.1),
        (127, 0.0),
    ];
    success_table("Table 2: OAM success rate in TSP (ORPC)", "slaves", &paper, rows, |rows, s| {
        tsp_default(rows, System::Orpc, s)
    });
}

fn figure3(rows: &mut Rows) {
    let seq = rows.sequential("sor", || sor::sequential(SorParams::default()));
    let (reference, seq) = (seq.answer, seq.virtual_time);
    println!("sequential baseline: {:.2} s (paper: 15.3 s)", seq.as_secs_f64());
    let cells = speedup_figure(rows, &PROCS, seq, |rows, system, p| rows.sor(system, p));
    let mut aborts_seen = 0;
    for &p in &PROCS {
        for system in System::ALL {
            let out = rows.sor(system, p).outcome();
            assert_eq!(out.answer, reference, "{} grid mismatch at P={p}", system.label());
            aborts_seen += out.stats.total().total_aborts();
        }
    }
    print_table(
        "Figure 3: Successive overrelaxation (482x80)",
        &headers("procs", &SPEEDUP_HEADERS),
        &cells,
    );
    println!("\ntotal ORPC aborts across all runs: {aborts_seen} (paper: none)");
    let p = PROCS[PROCS.len() - 1];
    let (orpc, trpc) = (secs(rows.sor(System::Orpc, p)), secs(rows.sor(System::Trpc, p)));
    println!("At P={p}: ORPC is {:.1}% faster than TRPC (paper: 8%)", (trpc / orpc - 1.0) * 100.0);
}

fn figure4(rows: &mut Rows) {
    let params = WaterParams::default();
    let seq = rows.sequential("water", || water::sequential(params)).virtual_time;
    println!(
        "sequential baseline: {:.2} s total, {:.2} s/iter (paper: 24 s/iter)",
        seq.as_secs_f64(),
        seq.as_secs_f64() / params.iters as f64
    );
    let mut cells = Vec::new();
    for &p in &PROCS {
        let mut line = vec![p.to_string()];
        let mut answers = Vec::new();
        for v in WaterVariant::ALL {
            let out = rows.water(v, p).outcome();
            answers.push(out.answer);
            line.push(format!("{:.3}", out.elapsed.as_secs_f64()));
            line.push(format!("{:.2}", out.speedup(seq)));
        }
        assert!(
            answers.windows(2).all(|w| w[0] == w[1]),
            "variants computed different trajectories at P={p}"
        );
        cells.push(line);
    }
    let headers = [
        "procs",
        "AM+b (s)",
        "spd",
        "ORPC+b (s)",
        "spd",
        "TRPC+b (s)",
        "spd",
        "ORPC (s)",
        "spd",
        "TRPC (s)",
        "spd",
    ];
    print_table("Figure 4: Water (512 molecules)", &headers, &cells);
}

fn table3(rows: &mut Rows) {
    let paper =
        [(2, 100.0), (4, 100.0), (8, 100.0), (16, 100.0), (32, 99.8), (64, 99.7), (128, 99.6)];
    success_table(
        "Table 3: OAM success rate in Water (ORPC, no barriers)",
        "procs",
        &paper,
        rows,
        |rows, p| rows.water(WaterVariant { system: System::Orpc, barrier: false }, p),
    );
}

/// §4.1: front- vs. back-of-queue placement for incoming RPC threads
/// ("placing threads at the back of the queue always performed worse").
fn ablate_queue_policy(rows: &mut Rows) {
    let (procs, slaves) = (32, 32);
    // Application-level effect (small in these workloads: application
    // polls drain every runnable thread either way).
    let mut cells = Vec::new();
    for policy in [QueuePolicy::Front, QueuePolicy::Back] {
        let tag = format!("/{}", policy.label());
        let cfg = MachineConfig::cm5(procs).with_queue_policy(policy);
        let tri = secs(rows.triangle(System::Trpc, cfg, 1, &tag));
        let cfg = MachineConfig::cm5(slaves + 1).with_queue_policy(policy);
        let t = secs(rows.tsp(System::Trpc, cfg, &tag));
        cells.push(vec![policy.label().to_string(), format!("{tri:.3}"), format!("{t:.3}")]);
    }
    print_table(
        &format!(
            "Ablation: run-queue placement, applications (triangle P={procs}, tsp slaves={slaves})"
        ),
        &["policy", "triangle TRPC (s)", "tsp TRPC (s)"],
        &cells,
    );

    // Latency-level effect: with a deep run queue on the server, a
    // front-placed incoming call runs next; a back-placed one waits for
    // the whole queue to cycle. One-shot calls, averaged over a sweep of
    // arrival phases (a steady-state loop would phase-lock to the
    // server's autonomous scheduling cycle and hide the difference).
    let offsets = 16u64;
    let mut cells = Vec::new();
    for depth in [0usize, 2, 8] {
        let mut line = vec![depth.to_string()];
        for policy in [QueuePolicy::Front, QueuePolicy::Back] {
            let total: Dur = (0..offsets)
                .map(|i| {
                    micro_rpc(MicroParams {
                        system: System::Trpc,
                        load: ServerLoad::Busy,
                        rounds: 1,
                        payload_bytes: 0,
                        background_threads: depth,
                        cfg: MachineConfig::cm5(2).with_queue_policy(policy),
                        warmup: false,
                        initial_offset: Dur::from_micros(40 + i * 17),
                    })
                    .mean
                })
                .sum();
            let name = format!("queue_latency/{}/bg{depth}", policy.label());
            let row = rows.add(Row::new(name, total / offsets, 0, None));
            line.push(format!("{:.1}", row.virtual_time.as_micros_f64()));
        }
        cells.push(line);
    }
    print_table(
        "Ablation: run-queue placement, one-shot null-RPC latency on a busy server",
        &["bg threads", "front (us)", "back (us)"],
        &cells,
    );
}

/// §2's three abort strategies (promote the continuation, rerun the call
/// as a thread, NACK the sender) on TSP at slave counts where aborts
/// happen.
fn ablate_abort_strategy(rows: &mut Rows) {
    let best = tsp_best(rows).answer;
    let mut cells = Vec::new();
    for slaves in [32, 64, 127] {
        for strategy in [AbortStrategy::Promote, AbortStrategy::Rerun, AbortStrategy::Nack] {
            let cfg = MachineConfig::cm5(slaves + 1).with_abort_strategy(strategy);
            let out = rows.tsp(System::Orpc, cfg, &format!("/{}", strategy.label())).outcome();
            assert_eq!(out.answer, best, "wrong tour under {strategy:?}");
            let t = out.stats.total();
            cells.push(vec![
                slaves.to_string(),
                strategy.label().to_string(),
                format!("{:.3}", out.elapsed.as_secs_f64()),
                t.oam_attempts.to_string(),
                t.total_aborts().to_string(),
                t.oam_promotions.to_string(),
                t.oam_reruns.to_string(),
                t.oam_nacks_sent.to_string(),
            ]);
        }
    }
    let headers =
        ["slaves", "strategy", "time (s)", "# OAMs", "aborts", "promoted", "rerun", "nacked"];
    print_table("Ablation: abort strategies on TSP (ORPC)", &headers, &cells);
}

/// §2: the CM-5's deep network buffering against an Alewife-like machine
/// with little, where a full NI becomes a real abort condition, across
/// the application's polling interval.
fn ablate_buffering(rows: &mut Rows) {
    let procs = 32;
    let mut cells = Vec::new();
    for (machine, cfg) in [
        ("cm5-deep", MachineConfig::cm5(procs)),
        ("alewife-shallow", MachineConfig::alewife_like(procs)),
    ] {
        for poll in [1, 4, 16, 64] {
            let tag = format!("/{machine}/poll{poll}");
            let row = rows.triangle(System::Orpc, cfg.clone(), poll, &tag);
            let t = row.outcome().stats.total();
            cells.push(vec![
                machine.to_string(),
                poll.to_string(),
                format!("{:.3}", secs(row)),
                t.send_backpressure_events.to_string(),
                t.total_aborts().to_string(),
            ]);
        }
    }
    print_table(
        &format!(
            "Ablation: network buffering x polling interval (triangle size {TRIANGLE_SIZE}, \
             P={procs}, ORPC)"
        ),
        &["machine", "poll every", "time (s)", "backpressure", "aborts"],
        &cells,
    );
}

/// State of the handler-budget service (none).
pub struct WorkState;

define_rpc_service! {
    /// A remote procedure with a stub-inserted progress check per chunk.
    service Work {
        state WorkState;

        /// Compute `chunks` × 20 µs with a checkpoint between chunks.
        rpc grind(ctx, st, chunks: u32) -> u32 {
            let _ = st;
            for _ in 0..chunks {
                ctx.charge(Dur::from_micros(20)).await;
                ctx.checkpoint().await;
            }
            chunks
        }

        /// A latency probe: a null call racing with the grinds.
        rpc probe(ctx, st) -> u32 {
            let _ = (ctx, st);
            0
        }
    }
}

/// Node 1 grinds 32 long calls on node 0 while node 2 probes node 0's
/// latency. The row's time is the mean probe round trip; its run's
/// elapsed time is the whole run.
fn handler_budget_run(budget_us: u64, chunks: u32) -> Row {
    let m = MachineBuilder::from_config(MachineConfig {
        handler_budget: Dur::from_micros(budget_us),
        ..MachineConfig::cm5(3)
    })
    .build();
    for node in m.nodes() {
        Work::register_all(m.rpc(), node.id(), Rc::new(WorkState), System::Orpc.rpc_mode());
    }
    let probe_total = Rc::new(Cell::new(Dur::ZERO));
    let pt = Rc::clone(&probe_total);
    let calls = 32;
    let report = m.run(move |env| {
        let pt = Rc::clone(&pt);
        async move {
            match env.id().index() {
                1 => {
                    for _ in 0..calls {
                        Work::grind::call(env.rpc(), env.node(), NodeId(0), chunks)
                            .await
                            .expect("reply decode");
                    }
                }
                2 => {
                    for _ in 0..calls * 4 {
                        let t0 = env.now();
                        Work::probe::call(env.rpc(), env.node(), NodeId(0))
                            .await
                            .expect("reply decode");
                        pt.set(pt.get() + env.now().since(t0));
                        env.charge_micros(40).await;
                    }
                }
                _ => {}
            }
            env.barrier().await;
        }
    });
    let probe_mean = probe_total.get() / (calls * 4);
    Row::new(
        format!("handler_budget/{budget_us}us"),
        probe_mean,
        0,
        Some(AppOutcome::new(report, 0)),
    )
}

/// §2's "runs too long" abort, which the paper's prototype did not
/// implement (§3.3): a small budget promotes eagerly, paying thread costs
/// but freeing the node for other traffic; a huge one runs everything
/// inline and leaves the node unresponsive for the handler's duration.
fn ablate_handler_budget(rows: &mut Rows) {
    let chunks = 10; // 200 µs of handler work per grind call
    let mut cells = Vec::new();
    for budget_us in [40u64, 100, 200, 1_000, 100_000] {
        let row = rows.add(handler_budget_run(budget_us, chunks));
        let out = row.outcome();
        cells.push(vec![
            budget_us.to_string(),
            format!("{:.2}", out.elapsed.as_micros_f64() / 1e3),
            out.stats.total().oam_aborts[AbortReason::RanTooLong.index()].to_string(),
            format!("{:.1}", row.virtual_time.as_micros_f64()),
        ]);
    }
    print_table(
        "Ablation: handler budget vs. responsiveness (200 us handlers + latency probes)",
        &["budget (us)", "total (ms)", "too-long aborts", "probe RTT (us)"],
        &cells,
    );
}

/// Pre-lock validation work: wasted (and redone) when the attempt aborts.
const PRE: Dur = Dur::from_nanos(8_000);
/// Handler-side work under the lock.
const WORK: Dur = Dur::from_nanos(2_000);
/// How long the server's main thread holds the lock per iteration.
const HOLD: Dur = Dur::from_nanos(50_000);
/// Breathing room between holds (lets blocked threads drain).
const GAP: Dur = Dur::from_nanos(2_000);

/// State of the contended service: one lock-protected counter per node.
pub struct HotState {
    /// Calls served.
    pub counter: Mutex<u64>,
}

define_rpc_service! {
    /// One contended method.
    service Hot {
        state HotState;

        /// Validate (pre-lock work), take the lock, count the call.
        rpc bump(ctx, st) -> u64 {
            ctx.charge(PRE).await;
            let g = st.counter.lock().await;
            ctx.charge(WORK).await;
            let v = g.get() + 1;
            g.set(v);
            v
        }
    }
}

/// One two-phase contention run on six nodes under the rerun strategy:
/// the server holds the lock for 60 iterations, then leaves it alone;
/// five clients make 400 calls each.
fn contention_run(name: &str, mode: RpcMode, adaptive: bool) -> Row {
    let (holds, calls) = (60, 400);
    let mut cfg = MachineConfig::cm5(6).with_abort_strategy(AbortStrategy::Rerun);
    if adaptive {
        let policy = AdaptivePolicy {
            window: 16,
            demote_abort_pct: 50,
            reprobe_after: 64,
            probe_window: 8,
            promote_abort_pct: 12,
        };
        cfg = cfg.with_policy(Hot::bump::ID.0, ExecPolicy::adaptive(policy));
    }
    let machine = MachineBuilder::from_config(cfg).build();
    let states: Vec<Rc<HotState>> =
        machine.nodes().iter().map(|n| Rc::new(HotState { counter: Mutex::new(n, 0) })).collect();
    for (node, st) in machine.nodes().iter().zip(&states) {
        Hot::register_all(machine.rpc(), node.id(), Rc::clone(st), mode);
    }
    let server = Rc::clone(&states[0]);
    let states = Rc::new(states);
    let report = machine.run(move |env| {
        let states = Rc::clone(&states);
        async move {
            if env.id().index() == 0 {
                // Server: phase 1 hammers the lock, phase 2 leaves it
                // alone (the barrier keeps serving requests while idle).
                let st = &states[0];
                for _ in 0..holds {
                    let g = st.counter.lock().await;
                    // Poll *inside* the critical section: requests are
                    // dispatched while the lock is held, so optimistic
                    // attempts abort `LockHeld`.
                    for _ in 0..5 {
                        env.charge(HOLD / 5).await;
                        env.poll().await;
                    }
                    drop(g);
                    env.poll().await;
                    env.charge(GAP).await;
                }
            } else {
                for _ in 0..calls {
                    Hot::bump::call(env.rpc(), env.node(), NodeId(0)).await.expect("reply decode");
                }
            }
            env.barrier().await;
        }
    });
    let answer = server.counter.try_lock().expect("free at the end").get();
    Row::app(format!("adaptive/{name}"), AppOutcome::new(report, answer))
}

/// A lock-contention workload where neither static mode wins both
/// phases. Phase 1: optimistic attempts do the pre-lock work, abort
/// `LockHeld` and rerun it in a thread. Phase 2: every call completes
/// inline, so static TRPC pays a thread per call for nothing. The
/// adaptive policy demotes the method to TRPC when the abort rate
/// crosses its threshold, re-probes ORPC, and promotes back once
/// attempts succeed, taking the cheaper path in both phases.
fn adaptive_contention(rows: &mut Rows) {
    let variants = [
        ("static ORPC", "static_orpc", RpcMode::Orpc, false),
        ("static TRPC", "static_trpc", RpcMode::Trpc, false),
        ("adaptive", "adaptive", RpcMode::Orpc, true),
    ];
    let mut cells = Vec::new();
    let mut results = Vec::new();
    for (label, name, mode, adaptive) in variants {
        let out = rows.add(contention_run(name, mode, adaptive)).outcome();
        let m =
            out.stats.per_method_total().remove(&Hot::bump::ID.0).expect("Hot::bump was called");
        cells.push(vec![
            label.to_string(),
            format!("{:.3}", out.elapsed.as_secs_f64() * 1e3),
            m.attempts.to_string(),
            m.inline_ok.to_string(),
            m.total_aborts().to_string(),
            m.threaded.to_string(),
            m.mode_switches.to_string(),
        ]);
        results.push((out.elapsed, m.mode_switches));
    }
    let headers =
        ["variant", "elapsed ms", "attempts", "inline ok", "aborts", "threaded", "switches"];
    print_table("Adaptive dispatch under two-phase lock contention", &headers, &cells);

    let [(orpc, _), (trpc, _), (adaptive, switches)] = results[..] else { unreachable!() };
    assert!(switches >= 2, "adaptive run must demote and re-promote (saw {switches} switches)");
    // Every switch toggles the mode and the site starts optimistic, so an
    // even count means the calm phase ended promoted back to ORPC.
    assert_eq!(switches % 2, 0, "calm phase should end promoted back to ORPC");
    assert!(
        adaptive < orpc && adaptive < trpc,
        "adaptive must beat both static modes: adaptive {adaptive:?}, orpc {orpc:?}, trpc {trpc:?}"
    );
    println!("\nadaptive beats both static modes; demotion and re-promotion are trace-visible.");
}

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

/// A performance row's outcome as a report row.
trait IntoRow {
    fn into_row(self, name: &str) -> Row;
}

impl IntoRow for AppOutcome {
    fn into_row(self, name: &str) -> Row {
        Row::app(name, self)
    }
}

/// The service's overload scorecard, as extra row columns (virtual-time
/// latency quantiles are deterministic, so the gate watches p99 drift
/// like any other counter).
impl IntoRow for ServiceOutcome {
    fn into_row(self, name: &str) -> Row {
        let extra = vec![
            ("p50_us", format!("{:.3}", self.p50.as_micros_f64())),
            ("p99_us", format!("{:.3}", self.p99.as_micros_f64())),
            ("p999_us", format!("{:.3}", self.p999.as_micros_f64())),
            ("goodput_per_sec", format!("{:.1}", self.goodput_per_sec)),
            ("completed", self.completed.to_string()),
            ("shed", self.shed.to_string()),
            ("expired", self.expired.to_string()),
            ("abandoned", self.abandoned.to_string()),
        ];
        Row { extra, ..Row::app(name, self.app) }
    }
}

/// Run `body` once, bracketed by allocator snapshots, and add its row.
/// Every gated column is deterministic, so one run is the measurement.
/// Building a machine allocates, so a zero count means no counting
/// allocator is installed: the row then has no allocation columns, and
/// the gate fails it by name.
fn measure<T: IntoRow>(rows: &mut Rows, name: &str, body: impl FnOnce() -> T) {
    let before = alloc_snapshot();
    let out = body();
    let alloc = alloc_snapshot().since(before);
    rows.add(Row { alloc: (alloc.allocs > 0).then_some(alloc), ..out.into_row(name) });
}

fn chaos_cfg(nodes: usize, p: f64) -> MachineConfig {
    let plan = FaultPlan::drop_only(p).with_dup(p).with_delay(p, Dur::from_micros(20));
    MachineConfig::cm5(nodes).with_fault_plan(plan).with_retransmission()
}

/// `rounds` back-to-back null RPCs from node 0 to node 1.
fn churn(rounds: u32, cfg: MachineConfig) -> AppOutcome {
    let machine = MachineBuilder::from_config(cfg).build();
    let states: Vec<Rc<ChurnState>> =
        (0..2).map(|_| Rc::new(ChurnState { counter: Cell::new(0) })).collect();
    for (i, st) in states.iter().enumerate() {
        Churn::register_all(machine.rpc(), NodeId(i), Rc::clone(st), RpcMode::Orpc);
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
        Churn::register_all(machine.rpc(), NodeId(i), Rc::clone(st), RpcMode::Orpc);
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

/// The simulator's performance rows: small workloads whose events, queue
/// depth, epochs, delivery and OAM counters and heap allocations price the
/// runtime itself rather than reproduce a paper figure.
fn performance_rows(rows: &mut Rows) {
    let first = rows.rows.len();
    let tsp_params = TspParams { ncities: 10, prefix_len: 4, ..Default::default() };
    // The 64-node SOR workload, run single-shard and with 4 shard worker
    // threads. Identical virtual work (answer, end time, per-node stats) —
    // only the host-side execution strategy differs — so the epoch and
    // delivery counters are what these rows pin.
    let sor_64node = |shards: usize| {
        sor::run_configured(
            System::Orpc,
            MachineConfig::cm5(64).with_shards(shards),
            SorParams { rows: 256, cols: 128, iters: 2 },
        )
    };
    measure(rows, "null_rpc_churn_chaos", || churn(2_000, chaos_cfg(2, 0.01)));
    measure(rows, "bulk_payload_churn", || bulk_churn(500, MachineConfig::cm5(2)));
    measure(rows, "tsp_n10", || {
        tsp::run_configured(System::Orpc, MachineConfig::cm5(5), tsp_params)
    });
    measure(rows, "tsp_n10_chaos", || {
        tsp::run_configured(System::Orpc, chaos_cfg(5, 0.05), tsp_params)
    });
    // The pipelining pair, at 2 slaves so the run is slave-bound (at 4+
    // slaves the master's GEN_COST pacing dominates and prefetching a
    // job cannot create jobs faster). Same machine, same instance; the
    // only difference is the slaves' call schedule: tsp_pipelined keeps
    // one get_job outstanding while expanding the previous route, so
    // the virtual_us gap between these two rows is the round trip the
    // pipelined stubs hide.
    measure(rows, "tsp_n10_s2", || tsp::run(System::Orpc, 2, tsp_params));
    measure(rows, "tsp_pipelined", || tsp::run_pipelined(System::Orpc, 2, tsp_params));
    measure(rows, "sor_256", || {
        sor::run(System::Orpc, 4, SorParams { rows: 256, cols: 256, iters: 3 })
    });
    measure(rows, "water_64", || {
        let variant = WaterVariant { system: System::Orpc, barrier: true };
        water::run(variant, 4, WaterParams { molecules: 64, iters: 2 }).outcome
    });
    measure(rows, "sor_64node", || sor_64node(1));
    measure(rows, "sor_64node_shards4", || sor_64node(4));
    // The open-loop service (DESIGN.md §13) with heavy requests fetching
    // their scans as chunked streaming sessions: the row that prices the
    // session protocol (chunk messages, session table, Close frames).
    measure(rows, "service_stream_scan", || {
        let cfg = MachineConfig::cm5(4).with_seed(0x5e41_11ce);
        service::run(cfg, ServiceParams { arrivals: 96, streaming: true, ..Default::default() })
    });
    let cells: Vec<Vec<String>> = rows.rows[first..]
        .iter()
        .map(|r| {
            let (out, alloc) = (r.outcome(), r.alloc.unwrap_or_default());
            vec![
                r.name.clone(),
                format!("{:.3}", r.virtual_time.as_micros_f64() / 1e3),
                out.events.to_string(),
                out.peak_queue_depth.to_string(),
                alloc.allocs.to_string(),
                alloc.bytes.to_string(),
            ]
        })
        .collect();
    let headers = ["row", "virtual (ms)", "events", "peak queue", "allocs", "alloc bytes"];
    print_table("Simulator performance rows", &headers, &cells);
}

fn main() {
    let path = out_path();
    let mut rows = Rows::default();
    table1(&mut rows);
    bulk_transfer(&mut rows);
    figure1(&mut rows);
    figure2(&mut rows);
    table2(&mut rows);
    figure3(&mut rows);
    figure4(&mut rows);
    table3(&mut rows);
    ablate_queue_policy(&mut rows);
    ablate_abort_strategy(&mut rows);
    ablate_buffering(&mut rows);
    ablate_handler_budget(&mut rows);
    adaptive_contention(&mut rows);
    performance_rows(&mut rows);
    write_report(&path, &rows.rows);
}
