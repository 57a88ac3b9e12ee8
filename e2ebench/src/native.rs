//! `native_rpc`: null calls from node 0 to node 1 on the native
//! host-threads backend, with every modeled charge set to 1 ns and every
//! per-byte cost to 0, so wall time is the transport (SPSC rings,
//! `BatchTx`, the `WakeGate` park/unpark protocol, the node loop) and not
//! the cost model's pacing.
//!
//! Phase A keeps one call outstanding (real round-trip latency); phase B
//! keeps a window of 32 pipelined calls (`issue` / `wait`, throughput).
//! The workload never sends an unbounded one-way burst: with 1 ns charges
//! such a storm can hang the backend (see the README).

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;
use std::time::Instant;

use oam_machine::{run_partitioned, try_run_native, Machine, RunReport, ShardApp};
use oam_model::{Backend, CostModel, Dur, MachineConfig, Time};
use oam_sim::{alloc_snapshot, AllocSnapshot};

use crate::layers::{self, LayerInputs};
use crate::stats::Summary;
use crate::svc::{self, Ping};
use crate::trace::{Kind, Span, Stamp, Tracer};
use crate::{run_rounds, secs, Metric, Outcome, RunParams, Size, Timing, Verdict};

/// Pipelined calls kept outstanding in phase B.
pub const WINDOW: usize = 32;

/// Real-time budget of one native run; a run past it is a hang.
const BUDGET: Time = Time::from_nanos(60_000_000_000);

/// `(phase A calls, phase B calls)` per round.
fn calls(size: Size) -> (u64, u64) {
    match size {
        Size::Full => (20_000, 100_000),
        Size::Tiny => (100, 300),
    }
}

/// The CM-5 cost model with every charge 1 ns and every per-byte or
/// per-word cost 0.
pub fn transport_costs() -> CostModel {
    let one = Dur::from_nanos(1);
    CostModel {
        am_send: one,
        wire_latency: one,
        packet_gap: one,
        poll_dispatch: one,
        poll_empty: one,
        poll_wakeup_lag: one,
        scopy_setup_send: one,
        scopy_setup_recv: one,
        scopy_per_byte: Dur::ZERO,
        copy_per_byte: Dur::ZERO,
        marshal_per_word: Dur::ZERO,
        thread_create_direct: one,
        context_switch: one,
        thread_exit: one,
        enqueue_runnable: one,
        yield_cost: one,
        mutex_op: one,
        condvar_wait_setup: one,
        condvar_signal: one,
        rpc_caller_overhead: one,
        trpc_dispatch: one,
        oam_entry: one,
        oam_commit: one,
        oam_abort_overhead: one,
        reply_integrate: one,
        nack_backoff_base: one,
        barrier_latency: one,
        reduction_latency: one,
    }
}

/// The workload's machine on `backend`.
pub fn config(seed: u64, backend: Backend) -> MachineConfig {
    let mut cfg = MachineConfig::cm5(2)
        .with_seed(seed)
        .with_shards(1)
        .with_backend(backend)
        .with_tuning(crate::pinned_tuning(1, 0));
    cfg.cost = transport_costs();
    cfg
}

/// What node 0's replica observed.
#[derive(Default)]
pub struct Client {
    /// Last reply of phase B.
    pub last: u64,
    /// The server's count, read back over RPC after phase B.
    pub served: u64,
    /// Real round-trip time of every phase-A call, nanoseconds.
    pub rtt_ns: Vec<u64>,
    /// Host seconds of phase B.
    pub phase_b_s: f64,
    /// Host time and allocations at node 0's main entry.
    first: Option<(Instant, AllocSnapshot)>,
    /// Setup closure entry (machine built) and exit on node 0's thread.
    built: Option<Instant>,
    registered: Option<Instant>,
}

impl Client {
    /// The answer both backends must agree on.
    pub fn answer(&self) -> (u64, u64) {
        (self.last, self.served)
    }
}

/// The application: phase A, phase B, then read the server's count.
fn app(machine: &Machine, calls: (u64, u64), tracer: &Option<Tracer>) -> ShardApp<Client> {
    let built = Instant::now();
    svc::register(machine, tracer);
    let client = Rc::new(RefCell::new(Client {
        rtt_ns: Vec::with_capacity(calls.0 as usize),
        built: Some(built),
        registered: Some(Instant::now()),
        ..Client::default()
    }));
    let (c, tracer) = (Rc::clone(&client), tracer.clone());
    ShardApp {
        main: Box::new(move |env| {
            let (c, tracer) = (Rc::clone(&c), tracer.clone());
            Box::pin(async move {
                if env.id().index() == 0 {
                    c.borrow_mut().first = Some((Instant::now(), alloc_snapshot()));
                    let (rpc, node) = (env.rpc(), env.node());
                    let stamp = |t: &Tracer| t.stamp(node);
                    let mut rtt = Vec::with_capacity(calls.0 as usize);
                    for req in 1..=calls.0 {
                        let s0 = tracer.as_ref().map(stamp);
                        let t0 = Instant::now();
                        Ping::null::call(rpc, node, svc::SERVER).await.expect("null reply decodes");
                        rtt.push(t0.elapsed().as_nanos() as u64);
                        if let (Some(t), Some(s0)) = (&tracer, s0) {
                            t.record(Kind::Call, req, None, s0, stamp(t));
                        }
                    }
                    let tb = Instant::now();
                    let mut window = VecDeque::with_capacity(WINDOW);
                    let (mut next, end) = (calls.0 + 1, calls.0 + calls.1);
                    let mut last = 0;
                    while next <= end || !window.is_empty() {
                        while window.len() < WINDOW && next <= end {
                            let s0 = tracer.as_ref().map(stamp);
                            window.push_back((
                                next,
                                s0,
                                Ping::null::issue(rpc, node, svc::SERVER).await,
                            ));
                            next += 1;
                        }
                        let (req, s0, h) = window.pop_front().expect("window is non-empty");
                        last = h.wait().await.expect("pipelined call completes");
                        if let (Some(t), Some(s0)) = (&tracer, s0) {
                            t.record(Kind::Call, req, None, s0, stamp(t));
                        }
                    }
                    let phase_b_s = tb.elapsed().as_secs_f64();
                    let served = Ping::count::call(rpc, node, svc::SERVER).await.expect("count");
                    let mut c = c.borrow_mut();
                    (c.rtt_ns, c.last, c.served, c.phase_b_s) = (rtt, last, served, phase_b_s);
                }
                env.barrier().await;
            })
        }),
        finish: Box::new(move |_| std::mem::take(&mut *client.borrow_mut())),
    }
}

/// One round's results.
pub struct Round {
    /// Config to node 0's first call, seconds.
    pub setup_s: f64,
    /// Config to node 0's setup entry (replica built), seconds.
    pub build_s: f64,
    /// Handler registration on node 0, seconds.
    pub register_s: f64,
    /// Node 0's main entry to the end of the run, seconds.
    pub host_s: f64,
    /// Allocations over the same window (both node threads).
    pub allocs: AllocSnapshot,
    /// Calls per phase.
    pub calls: (u64, u64),
    /// The simulator backend's answer for the same application.
    pub reference: (u64, u64),
    /// The run's report, or the hang diagnosis.
    pub result: Result<(RunReport, Client), String>,
    /// Spans of a traced round.
    pub spans: Vec<Span>,
}

/// Run one native round; `reference` is [`sim_answer`] of the same calls.
pub fn round(seed: u64, calls: (u64, u64), reference: (u64, u64), tracer: Option<Tracer>) -> Round {
    let t_cfg = Instant::now();
    let tr = tracer.clone();
    let res = try_run_native(config(seed, Backend::Native), BUDGET, move |m| app(m, calls, &tr));
    let t_end = Instant::now();
    let allocs = alloc_snapshot();
    match res {
        Ok((report, client)) => {
            let (t_first, a0) = client.first.expect("node 0 main ran");
            let built = client.built.expect("setup ran");
            let registered = client.registered.expect("setup ran");
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
                calls,
                reference,
                result: Ok((report, client)),
                spans: tracer.map(|t| t.take()).unwrap_or_default(),
            }
        }
        Err(hang) => Round {
            setup_s: 0.0,
            build_s: 0.0,
            register_s: 0.0,
            host_s: secs(t_cfg, t_end),
            allocs: AllocSnapshot::default(),
            calls,
            reference,
            result: Err(hang.to_string()),
            spans: Vec::new(),
        },
    }
}

impl crate::Round for Round {
    /// The measured window is phase B, the pipelined calls.
    fn timing(&self) -> Timing {
        let (phase_b_s, ops) = match &self.result {
            Ok((_, c)) => (c.phase_b_s, self.calls.1 as f64),
            Err(_) => (self.host_s, 0.0),
        };
        Timing {
            setup_s: self.setup_s,
            build_s: self.build_s,
            register_s: self.register_s,
            host_s: phase_b_s,
            ops,
            allocs: self.allocs,
            ..Timing::default()
        }
    }

    fn verdict(&self) -> Verdict {
        let attempted = self.calls.0 + self.calls.1;
        let (failed, problem) = match &self.result {
            Ok((_, c)) if c.answer() == self.reference => (0, None),
            Ok((_, c)) => {
                (0, Some(format!("native answered {:?}, sim {:?}", c.answer(), self.reference)))
            }
            Err(hang) => (attempted, Some(format!("native run exceeded its budget:\n{hang}"))),
        };
        Verdict { attempted, failed, problem }
    }

    /// Native timing is host-dependent; only the answer must repeat.
    fn same(&self, o: &Self) -> bool {
        let answer = |r: &Round| r.result.as_ref().ok().map(|(_, c)| c.answer());
        answer(self) == answer(o)
    }
}

/// The same application on the simulator backend: the reference answer.
pub fn sim_answer(seed: u64, calls: (u64, u64)) -> (u64, u64) {
    let (_, client) = run_partitioned(config(seed, Backend::Sim), move |m| app(m, calls, &None));
    client.answer()
}

/// Run the workload.
pub fn run(p: &RunParams) -> Outcome {
    let calls = calls(p.size);
    let total = calls.0 + calls.1;
    let reference = sim_answer(p.seed, calls);
    let mut out = Outcome::default();
    out.check(reference == (total, total), || format!("sim backend answered {reference:?}"));
    let rounds =
        run_rounds(p, &mut out, |traced| round(p.seed, calls, reference, traced.then(Tracer::new)));
    let Ok((report, client)) = &rounds.first.result else { return out };
    let rtt_us: Vec<f64> = client.rtt_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
    out.report = rounds.host_metrics().into();
    out.report.extend([
        Metric::summary("rtt_p50_us", "us", &Summary::of(&rtt_us)),
        Metric::quantile("rtt_p99_us", "us", &rtt_us, 0.99),
        Metric::one("failed_frac", "ratio", crate::ratio(out.failed as f64, out.attempted as f64)),
        Metric::one("peak_rss_mb", "MiB", rounds.first_peak_rss_mb),
    ]);
    out.notes.push(format!(
        "config: native backend, cm5(2), 1 ns charges, phase A {} calls at 1 outstanding, phase B {} calls in a window of {WINDOW}, {} rounds",
        calls.0,
        calls.1,
        rounds.timings.len()
    ));
    let e = &report.stats.engine;
    out.notes.push(format!(
        "first round: {} deposits in {} batches, {} wakes",
        e.deposits, e.batches, e.wakes
    ));
    if let Some(t) = &rounds.last_traced {
        let batch = oam_model::MachineConfig::DEFAULT_BATCH as usize;
        let probes = crate::probes::run(&(), &0u64, batch, report.peak_queue_depth, 200_000);
        out.layers = layers::compute(&LayerInputs {
            ops: total,
            stats: &report.stats,
            events: report.events,
            peak_queue_depth: report.peak_queue_depth,
            // Events cover both phases, so the host time does too.
            host_s: rounds.first.host_s,
            makespan_ns: report.end_time.as_nanos(),
            native: true,
            iters: 0,
            spans: &t.spans,
            path_reqs: calls.0,
            build_s: rounds.median(|t| t.build_s),
            register_s: rounds.median(|t| t.register_s),
            gen_late_p99_us: 0.0,
            allocs: rounds.allocs(),
            overhead_frac: rounds.overhead_frac(),
            probes,
        });
        out.spans = t.spans.clone();
    }
    out
}
