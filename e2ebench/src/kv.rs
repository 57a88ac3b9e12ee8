//! `kv_openloop`: a striped, lock-guarded key-value store on node 0 under
//! open-loop load from three driver nodes. Arrivals come from
//! `oam_machine::openloop::arrivals_for` (Poisson with bursts, Zipf keys,
//! 10% heavy scans); dispatch is adaptive, admission control holds at
//! most 8 calls per node, and every request carries a 5 ms deadline.
//!
//! Reads, writes, and blocking scans run side by side, so the abort →
//! promote path, admission (shed, NACK, retry-after) and the thread
//! scheduler (switches, live stack, lock convoys) carry the load.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use oam_machine::{
    arrivals_for, pace_until, run_partitioned, CallClass, OpenLoopConfig, OpenLoopTracker,
    RunReport, ShardApp,
};
use oam_model::{
    AdaptivePolicy, AdmissionConfig, Backend, Dur, ExecPolicy, MachineConfig, NodeId, Time,
};
use oam_rpc::{define_rpc_service, CallOpts, RpcMode};
use oam_sim::{alloc_snapshot, AllocSnapshot};
use oam_threads::Mutex;

use crate::layers::{self, LayerInputs};
use crate::stats::{self, RatePoint, Summary};
use crate::trace::{virtual_now, Kind, Span, Stamp, Tracer};
use crate::{run_rounds, secs, Metric, Outcome, RunParams, Size, Timing, Verdict};

/// Keys in the store.
const KEYS: u32 = 64;
/// Lock stripes.
const STRIPES: u32 = 16;
/// Slots per stripe.
const SLOTS: usize = (KEYS / STRIPES) as usize + 1;
/// Virtual cost of a get.
const GET_COST: Dur = Dur::from_nanos(2_000);
/// Virtual cost of a put.
const PUT_COST: Dur = Dur::from_nanos(4_000);
/// Virtual cost per slot of a scan: a scan holds its stripe lock far past
/// the optimistic handler budget, so it aborts and is promoted.
const SCAN_SLOT_COST: Dur = Dur::from_nanos(50_000);
/// Admission budget: engine-admitted calls pending per node.
pub const PENDING_BUDGET: usize = 8;
/// Per-request deadline, and the latency limit of `capacity_rps`.
pub const DEADLINE: Dur = Dur::from_micros(5_000);
/// Driver nodes (ids 1..=3; the server is node 0).
const DRIVERS: usize = 3;
/// Mean inter-arrival gap per driver at the base rate (1x).
const BASE_GAP: Dur = Dur::from_micros(1_000);
/// Offered load of the measured run, percent of the base rate. Well below
/// the knee, so no request fails on any seed (see the README for the
/// measurements behind this choice).
pub const LOAD_X100: u64 = 10;
/// Offered loads of the capacity sweep, percent of the base rate.
pub const CAPACITY_GRID: [u64; 10] = [25, 50, 75, 100, 125, 150, 175, 200, 225, 250];
/// Largest failed fraction `capacity_rps` accepts.
const CAPACITY_MAX_FAILED: f64 = 0.01;

/// Server state: the striped store and the span sink of a traced round.
pub struct KvState {
    stripes: Vec<Mutex<Vec<u64>>>,
    tracer: Option<Tracer>,
}

impl KvState {
    /// Span start of a handler body (no-op when untraced).
    fn enter(&self, ctx: &oam_rpc::RpcCtx) -> Option<Stamp> {
        self.tracer.as_ref().map(|t| t.stamp(ctx.node()))
    }

    /// Span end of a handler body.
    fn exit(&self, ctx: &oam_rpc::RpcCtx, req: u32, start: Option<Stamp>) {
        if let (Some(t), Some(start)) = (&self.tracer, start) {
            let req = u64::from(req);
            t.record(Kind::Handler, req, Some(Kind::Call.id(req)), start, t.stamp(ctx.node()));
        }
    }
}

define_rpc_service! {
    /// The striped key-value service. Every method carries the request id
    /// so a traced handler span can name its call; `stripe` and `slot`
    /// are 16-bit so a get still fits a short active message.
    #[allow(clippy::too_many_arguments)]
    service Kv {
        state KvState;

        /// Read one slot.
        rpc get(ctx, st, req: u32, stripe: u16, slot: u16) -> u64 {
            let s = st.enter(ctx);
            let g = st.stripes[stripe as usize].lock().await;
            ctx.charge(GET_COST).await;
            let v = g.with(|v| v[slot as usize]);
            st.exit(ctx, req, s);
            v
        }

        /// Add `x` to one slot and return the new value.
        rpc put(ctx, st, req: u32, stripe: u16, slot: u16, x: u64) -> u64 {
            let s = st.enter(ctx);
            let g = st.stripes[stripe as usize].lock().await;
            ctx.charge(PUT_COST).await;
            let v = g.with_mut(|v| {
                v[slot as usize] = v[slot as usize].wrapping_add(x);
                v[slot as usize]
            });
            st.exit(ctx, req, s);
            v
        }

        /// Sum a whole stripe, holding its lock throughout.
        rpc scan(ctx, st, req: u32, stripe: u16) -> u64 {
            let s = st.enter(ctx);
            let g = st.stripes[stripe as usize].lock().await;
            let mut sum = 0u64;
            for i in 0..SLOTS {
                ctx.charge(SCAN_SLOT_COST).await;
                ctx.checkpoint().await;
                sum = sum.wrapping_add(g.with(|v| v[i]));
            }
            st.exit(ctx, req, s);
            sum
        }
    }
}

/// Arrivals per driver per round.
fn arrivals(size: Size) -> u32 {
    match size {
        Size::Full => 20_000,
        Size::Tiny => 60,
    }
}

/// Arrivals per driver at each point of the capacity sweep.
fn sweep_arrivals(size: Size) -> u32 {
    match size {
        Size::Full => 2_000,
        Size::Tiny => 40,
    }
}

/// The workload's machine.
pub fn config(seed: u64) -> MachineConfig {
    let mut cfg = MachineConfig::cm5(1 + DRIVERS)
        .with_seed(seed)
        .with_shards(1)
        .with_backend(Backend::Sim)
        .with_tuning(crate::pinned_tuning(1, 0))
        .with_admission(AdmissionConfig {
            pending_budget: PENDING_BUDGET,
            overload_demote_depth: 6,
            ..AdmissionConfig::default()
        });
    for id in [Kv::get::ID, Kv::put::ID, Kv::scan::ID] {
        cfg = cfg.with_policy(id.0, ExecPolicy::adaptive(AdaptivePolicy::default()));
    }
    cfg
}

/// The arrival process of driver `d` for a seed, load, and length.
fn open_loop(seed: u64, load_x100: u64, arrivals: u32) -> OpenLoopConfig {
    OpenLoopConfig {
        arrivals,
        keys: KEYS,
        mean_gap: BASE_GAP,
        seed: seed ^ 0x6f70_656e_6c6f_6f70,
        ..OpenLoopConfig::default()
    }
    .at_load_x100(load_x100)
}

/// Offered requests per virtual second at a load.
fn offered_rps(load_x100: u64) -> f64 {
    let gap = open_loop(0, load_x100, 1).mean_gap;
    DRIVERS as f64 * 1e9 / gap.as_nanos() as f64
}

/// What the client side of one round observed.
#[derive(Default)]
struct Client {
    /// Due time to resolution, µs of virtual time; failures are infinite.
    latency_us: Vec<f64>,
    /// Issue time minus due time, µs of virtual time.
    late_us: Vec<f64>,
    /// Times each request resolved (must be exactly once).
    resolved: Vec<u8>,
    completed: u64,
    abandoned: u64,
    /// Host time and allocation counters at the first node main.
    first: Option<(Instant, AllocSnapshot)>,
    /// Host time the setup closure started (machine built) and ended.
    built: Option<Instant>,
    registered: Option<Instant>,
}

/// One round's results.
pub struct Round {
    /// Config to the first node main, seconds.
    pub setup_s: f64,
    /// Config to setup entry (the machine build), seconds.
    pub build_s: f64,
    /// Handler registration, seconds.
    pub register_s: f64,
    /// First node main to the end of the run, seconds.
    pub host_s: f64,
    /// Allocations over the same window.
    pub allocs: AllocSnapshot,
    /// The run's report.
    pub report: RunReport,
    /// Requests issued.
    pub arrivals: u64,
    /// Requests answered within their deadline.
    pub completed: u64,
    /// Requests the client gave up on (deadline passed, or a NACK retry
    /// could not fit before it); includes those the server dropped as
    /// expired.
    pub abandoned: u64,
    /// Requests not resolved exactly once.
    pub misresolved: u64,
    /// Latency due → reply, µs (failures infinite).
    pub latency_us: Vec<f64>,
    /// Generator lateness, µs.
    pub late_us: Vec<f64>,
    /// Spans of a traced round.
    pub spans: Vec<Span>,
}

impl Round {
    /// Failed over attempted.
    pub fn failed_frac(&self) -> f64 {
        crate::ratio(self.abandoned as f64, self.arrivals as f64)
    }
}

impl crate::Round for Round {
    fn timing(&self) -> Timing {
        Timing {
            setup_s: self.setup_s,
            build_s: self.build_s,
            register_s: self.register_s,
            host_s: self.host_s,
            ops: (self.completed + self.abandoned) as f64,
            allocs: self.allocs,
            ..Timing::default()
        }
    }

    /// Every request resolves exactly once, as completed or abandoned
    /// (a request the server dropped past its deadline is also abandoned
    /// by its client, so server-side expiries never exceed abandonments).
    fn verdict(&self) -> Verdict {
        let expired = self.report.stats.total().calls_expired;
        let ledger = self.completed + self.abandoned == self.arrivals && self.misresolved == 0;
        let problem = if !ledger {
            Some(format!(
                "ledger: {} completed + {} abandoned != {} arrivals, or {} requests not resolved exactly once",
                self.completed, self.abandoned, self.arrivals, self.misresolved
            ))
        } else if expired > self.abandoned {
            Some(format!("{expired} server-expired requests but only {} abandoned", self.abandoned))
        } else {
            None
        };
        Verdict { attempted: self.arrivals, failed: self.abandoned, problem }
    }

    fn same(&self, o: &Self) -> bool {
        let key = |r: &Round| {
            (
                r.report.end_time,
                r.report.events,
                r.report.peak_queue_depth,
                r.completed,
                r.abandoned,
            )
        };
        key(self) == key(o)
            && self.latency_us == o.latency_us
            && self.late_us == o.late_us
            && self.report.stats == o.report.stats
    }
}

/// Run one open-loop round at `load_x100` percent of the base rate.
pub fn round(seed: u64, load_x100: u64, per_driver: u32, tracer: Option<Tracer>) -> Round {
    let t_cfg = Instant::now();
    let total = DRIVERS * per_driver as usize;
    let tr_setup = tracer.clone();
    let (report, client) = run_partitioned(config(seed), move |machine| {
        let built = Instant::now();
        let tracer = tr_setup.clone();
        let st = Rc::new(KvState {
            stripes: (0..STRIPES)
                .map(|_| Mutex::new(&machine.nodes()[0], vec![0u64; SLOTS]))
                .collect(),
            tracer: tracer.clone(),
        });
        Kv::register_all(machine.rpc(), NodeId(0), st, RpcMode::Orpc);
        let client = Rc::new(RefCell::new(Client {
            latency_us: Vec::with_capacity(total),
            late_us: Vec::with_capacity(total),
            resolved: vec![0; total],
            built: Some(built),
            registered: Some(Instant::now()),
            ..Client::default()
        }));
        let c = Rc::clone(&client);
        let main = move |env: oam_machine::NodeEnv| {
            let c = Rc::clone(&c);
            let tracer = tracer.clone();
            let fut: std::pin::Pin<Box<dyn std::future::Future<Output = ()>>> =
                Box::pin(async move {
                    if c.borrow().first.is_none() {
                        c.borrow_mut().first = Some((Instant::now(), alloc_snapshot()));
                    }
                    let me = env.id().index();
                    env.barrier().await;
                    if me > 0 {
                        drive(&env, me - 1, seed, load_x100, per_driver, &c, &tracer).await;
                    }
                    env.barrier().await;
                });
            fut
        };
        ShardApp {
            main: Box::new(main),
            finish: Box::new(move |_| std::mem::take(&mut *client.borrow_mut())),
        }
    });
    let t_end = Instant::now();
    let allocs = alloc_snapshot();
    let (t_first, a0) = client.first.expect("a node main ran");
    let (built, registered) =
        (client.built.expect("setup ran"), client.registered.expect("setup ran"));
    if let Some(t) = &tracer {
        let at = |i: Instant| Stamp { host: t.host_ns(i), virt: None };
        t.record(Kind::Build, 0, Some(Kind::Setup.id(0)), at(t_cfg), at(built));
        t.record(Kind::Register, 0, Some(Kind::Setup.id(0)), at(built), at(registered));
        t.record(Kind::Setup, 0, None, at(t_cfg), at(t_first));
    }
    Round {
        setup_s: secs(t_cfg, t_first),
        build_s: secs(t_cfg, built),
        register_s: secs(built, registered),
        host_s: secs(t_first, t_end),
        allocs: allocs.since(a0),
        report,
        arrivals: total as u64,
        completed: client.completed,
        abandoned: client.abandoned,
        misresolved: client.resolved.iter().filter(|&&n| n != 1).count() as u64,
        latency_us: client.latency_us,
        late_us: client.late_us,
        spans: tracer.map(|t| t.take()).unwrap_or_default(),
    }
}

/// One driver node: issue a deadline-bearing call per arrival without
/// waiting for earlier ones, then wait for all of them to resolve.
async fn drive(
    env: &oam_machine::NodeEnv,
    driver: usize,
    seed: u64,
    load_x100: u64,
    per_driver: u32,
    client: &Rc<RefCell<Client>>,
    tracer: &Option<Tracer>,
) {
    let tracker = OpenLoopTracker::new();
    let t0 = env.now();
    let schedule = arrivals_for(&open_loop(seed, load_x100, per_driver), driver);
    for (i, a) in schedule.into_iter().enumerate() {
        let due: Time = t0 + a.at;
        pace_until(env.node(), due).await;
        let req = (driver * per_driver as usize + i) as u32;
        let due_stamp = tracer
            .as_ref()
            .map(|t| Stamp { host: t.host_ns(Instant::now()), virt: Some(due.as_nanos()) });
        tracker.begin();
        let (env2, tr, c, tracer) =
            (env.clone(), tracker.clone(), Rc::clone(client), tracer.clone());
        env.node().spawn(async move {
            let (rpc, node) = (env2.rpc(), env2.node());
            let due_ns = due.as_nanos();
            let issue_ns = virtual_now(node);
            let s0 = tracer.as_ref().map(|t| t.stamp(node));
            let stripe = (a.key % STRIPES) as u16;
            let slot = (a.key / STRIPES) as u16;
            let opts = CallOpts::default().with_deadline(DEADLINE);
            let dst = NodeId(0);
            let res = match a.class {
                CallClass::Heavy => Kv::scan::call_with(rpc, node, dst, opts, req, stripe).await,
                CallClass::Cheap if a.client % 10 < 3 => {
                    Kv::put::call_with(rpc, node, dst, opts, req, stripe, slot, a.client % 7 + 1)
                        .await
                }
                CallClass::Cheap => {
                    Kv::get::call_with(rpc, node, dst, opts, req, stripe, slot).await
                }
            };
            let done_ns = virtual_now(node);
            if let (Some(t), Some(s0), Some(due_stamp)) = (&tracer, s0, due_stamp) {
                let end = t.stamp(node);
                let r = u64::from(req);
                t.record(Kind::Call, r, Some(Kind::Request.id(r)), s0, end);
                t.record(Kind::Request, r, None, due_stamp, end);
            }
            let mut c = c.borrow_mut();
            c.late_us.push(issue_ns.saturating_sub(due_ns) as f64 / 1e3);
            c.resolved[req as usize] += 1;
            if res.is_ok() {
                c.completed += 1;
                c.latency_us.push(done_ns.saturating_sub(due_ns) as f64 / 1e3);
            } else {
                c.abandoned += 1;
                c.latency_us.push(f64::INFINITY);
            }
            drop(c);
            tr.finish();
        });
    }
    tracker.drained(env.node()).await;
}

/// Run the workload.
pub fn run(p: &RunParams) -> Outcome {
    let per_driver = arrivals(p.size);
    let mut out = Outcome::default();
    let rounds = run_rounds(p, &mut out, |traced| {
        round(p.seed, LOAD_X100, per_driver, traced.then(Tracer::new))
    });
    let first = &rounds.first;
    let makespan_s = first.report.end_time.as_nanos() as f64 / 1e9;

    let sweep: Vec<RatePoint> = CAPACITY_GRID
        .iter()
        .map(|&load| {
            let r = round(p.seed, load, sweep_arrivals(p.size), None);
            let mut lat = r.latency_us.clone();
            lat.sort_by(f64::total_cmp);
            RatePoint {
                rate: offered_rps(load),
                p99_us: stats::quantile(&lat, 0.99),
                failed_frac: r.failed_frac(),
            }
        })
        .collect();
    let capacity = stats::capacity(&sweep, DEADLINE.as_nanos() as f64 / 1e3, CAPACITY_MAX_FAILED);

    out.report = rounds.host_metrics().into();
    out.report.extend([
        Metric::one("virtual_ms", "vms", makespan_s * 1e3),
        Metric::summary("vlat_p50_us", "vus", &Summary::of(&first.latency_us)),
        Metric::quantile("vlat_p99_us", "vus", &first.latency_us, 0.99),
        Metric {
            n: first.completed,
            ..Metric::one("goodput_per_s", "1/vs", crate::ratio(first.completed as f64, makespan_s))
        },
        Metric {
            n: sweep.len() as u64,
            ..Metric::one("capacity_rps", "1/vs", capacity.unwrap_or(0.0))
        },
        Metric::one("failed_frac", "ratio", crate::ratio(out.failed as f64, out.attempted as f64)),
        Metric::one("peak_rss_mb", "MiB", rounds.first_peak_rss_mb),
    ]);
    out.notes.push(format!(
        "config: sim backend, 1 server + {DRIVERS} drivers, 1 shard, open loop at {LOAD_X100}% of base ({:.0} req/vs offered), {per_driver} arrivals per driver, adaptive dispatch, budget {PENDING_BUDGET}, deadline {} us, {} rounds",
        offered_rps(LOAD_X100),
        DEADLINE.as_nanos() / 1_000,
        rounds.timings.len()
    ));
    let t = first.report.stats.total();
    out.notes.push(format!(
        "per round: {} completed, {} abandoned, {} server-expired, {} shed",
        first.completed, first.abandoned, t.calls_expired, t.calls_shed
    ));
    for pt in &sweep {
        out.notes.push(format!(
            "capacity sweep: {:>7.1} req/vs offered -> p99 {:>9.1} vus, failed {:.4}",
            pt.rate, pt.p99_us, pt.failed_frac
        ));
    }
    if let Some(t) = &rounds.last_traced {
        let probes = crate::probes::run(
            &(0u32, 0u16, 0u16),
            &0u64,
            1,
            first.report.peak_queue_depth,
            200_000,
        );
        out.layers = layers::compute(&LayerInputs {
            ops: first.arrivals,
            stats: &first.report.stats,
            events: first.report.events,
            peak_queue_depth: first.report.peak_queue_depth,
            host_s: rounds.median(|t| t.host_s),
            makespan_ns: first.report.end_time.as_nanos(),
            native: false,
            iters: 0,
            spans: &t.spans,
            path_reqs: 0,
            build_s: rounds.median(|t| t.build_s),
            register_s: rounds.median(|t| t.register_s),
            gen_late_p99_us: Metric::quantile("", "vus", &first.late_us, 0.99).value,
            allocs: rounds.allocs(),
            overhead_frac: rounds.overhead_frac(),
            probes,
        });
        out.spans = t.spans.clone();
    }
    out
}
