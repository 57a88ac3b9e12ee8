//! `rpc_pingpong`: one client on node 0 issues back-to-back null ORPC
//! calls to node 1 on the simulator — Table 1's ORPC row, priced on the
//! whole inline path (stub and wire, AM send, fabric and buffer pool, sim
//! event, AM dispatch, inline commit, reply).

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Instant;

use oam_machine::{MachineBuilder, RunReport};
use oam_model::{Backend, MachineConfig};
use oam_sim::{alloc_snapshot, AllocSnapshot};

use crate::layers::{self, LayerInputs};
use crate::stats::Summary;
use crate::svc::{self, Ping};
use crate::trace::{virtual_now, Kind, Span, Tracer};
use crate::{run_rounds, secs, Metric, Outcome, RunParams, Size, Timing, Verdict};

/// Calls per round.
fn calls(size: Size) -> u64 {
    match size {
        Size::Full => 100_000,
        Size::Tiny => 200,
    }
}

/// The workload's machine: two CM-5 nodes, one shard, simulator backend.
pub fn config(seed: u64) -> MachineConfig {
    MachineConfig::cm5(2)
        .with_seed(seed)
        .with_shards(1)
        .with_backend(Backend::Sim)
        .with_tuning(crate::pinned_tuning(1, 0))
}

/// One round's results.
pub struct Round {
    /// Config to the client's first call, seconds.
    pub setup_s: f64,
    /// Machine build, seconds.
    pub build_s: f64,
    /// Handler registration, seconds.
    pub register_s: f64,
    /// First call to the end of the run, seconds.
    pub host_s: f64,
    /// Allocations over the same window.
    pub allocs: AllocSnapshot,
    /// The machine's report.
    pub report: RunReport,
    /// Calls issued.
    pub calls: u64,
    /// Last reply the client saw.
    pub last: u64,
    /// Calls the server counted.
    pub served: u64,
    /// Virtual round-trip time of every call, nanoseconds.
    pub rtt_ns: Vec<u64>,
    /// Spans of a traced round.
    pub spans: Vec<Span>,
}

impl crate::Round for Round {
    fn timing(&self) -> Timing {
        Timing {
            setup_s: self.setup_s,
            build_s: self.build_s,
            register_s: self.register_s,
            host_s: self.host_s,
            ops: self.calls as f64,
            allocs: self.allocs,
            ..Timing::default()
        }
    }

    fn verdict(&self) -> Verdict {
        let ok = self.report.completed && self.last == self.calls && self.served == self.calls;
        Verdict {
            attempted: self.calls,
            failed: if ok { 0 } else { self.calls },
            problem: (!ok).then(|| {
                format!(
                    "{} calls: last reply {}, server counted {}",
                    self.calls, self.last, self.served
                )
            }),
        }
    }

    fn same(&self, o: &Self) -> bool {
        (self.report.end_time, self.report.events, self.report.peak_queue_depth, self.last)
            == (o.report.end_time, o.report.events, o.report.peak_queue_depth, o.last)
            && self.rtt_ns == o.rtt_ns
            && self.report.stats == o.report.stats
    }
}

/// Run one round of `calls` null calls.
pub fn round(seed: u64, calls: u64, tracer: Option<Tracer>) -> Round {
    let t_cfg = Instant::now();
    let machine = MachineBuilder::from_config(config(seed)).build();
    let t_built = Instant::now();
    let states = svc::register(&machine, &tracer);
    let t_reg = Instant::now();

    let first: Rc<Cell<Option<(Instant, AllocSnapshot)>>> = Rc::new(Cell::new(None));
    let rtt = Rc::new(RefCell::new(Vec::with_capacity(calls as usize)));
    let last = Rc::new(Cell::new(0u64));
    let (f, r, l, tr) = (Rc::clone(&first), Rc::clone(&rtt), Rc::clone(&last), tracer.clone());
    let report = machine.run(move |env| {
        let (f, r, l, tr) = (Rc::clone(&f), Rc::clone(&r), Rc::clone(&l), tr.clone());
        async move {
            if env.id().index() == 0 {
                f.set(Some((Instant::now(), alloc_snapshot())));
                let mut rtt = r.take();
                for req in 1..=calls {
                    let v0 = virtual_now(env.node());
                    let s0 = tr.as_ref().map(|t| t.stamp(env.node()));
                    let v = Ping::null::call(env.rpc(), env.node(), svc::SERVER)
                        .await
                        .expect("null reply decodes");
                    rtt.push(virtual_now(env.node()) - v0);
                    if let (Some(t), Some(s0)) = (&tr, s0) {
                        t.record(Kind::Call, req, None, s0, t.stamp(env.node()));
                    }
                    l.set(v);
                }
                r.replace(rtt);
            }
            env.barrier().await;
        }
    });
    let t_end = Instant::now();
    let allocs = alloc_snapshot();
    let (t_first, a0) = first.get().expect("client main ran");
    if let Some(t) = &tracer {
        let (cfg, built, reg, first) =
            (t.host_ns(t_cfg), t.host_ns(t_built), t.host_ns(t_reg), t.host_ns(t_first));
        let at = |host| crate::trace::Stamp { host, virt: None };
        t.record(Kind::Build, 0, Some(Kind::Setup.id(0)), at(cfg), at(built));
        t.record(Kind::Register, 0, Some(Kind::Setup.id(0)), at(built), at(reg));
        t.record(Kind::Setup, 0, None, at(cfg), at(first));
    }
    let rtt_ns = rtt.take();
    Round {
        setup_s: secs(t_cfg, t_first),
        build_s: secs(t_cfg, t_built),
        register_s: secs(t_built, t_reg),
        host_s: secs(t_first, t_end),
        allocs: allocs.since(a0),
        report,
        calls,
        last: last.get(),
        served: states[svc::SERVER.index()].counter.get(),
        rtt_ns,
        spans: tracer.map(|t| t.take()).unwrap_or_default(),
    }
}

/// Run the workload.
pub fn run(p: &RunParams) -> Outcome {
    let calls = calls(p.size);
    let mut out = Outcome::default();
    let rounds = run_rounds(p, &mut out, |traced| round(p.seed, calls, traced.then(Tracer::new)));
    let first = &rounds.first;
    let vlat_us: Vec<f64> = first.rtt_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
    out.report = rounds.host_metrics().into();
    out.report.extend([
        Metric::one("virtual_ms", "vms", first.report.end_time.as_nanos() as f64 / 1e6),
        Metric::summary("vlat_p50_us", "vus", &Summary::of(&vlat_us)),
        Metric::quantile("vlat_p99_us", "vus", &vlat_us, 0.99),
        Metric::one("failed_frac", "ratio", crate::ratio(out.failed as f64, out.attempted as f64)),
        Metric::one("peak_rss_mb", "MiB", rounds.first_peak_rss_mb),
    ]);
    out.notes.push(format!(
        "config: sim backend, cm5(2), 1 shard, closed loop, 1 client, {calls} null ORPC calls per round, {} rounds",
        rounds.timings.len()
    ));
    if let Some(t) = &rounds.last_traced {
        let probes = crate::probes::run(&(), &0u64, 1, first.report.peak_queue_depth, 200_000);
        out.layers = layers::compute(&LayerInputs {
            ops: calls,
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
            gen_late_p99_us: 0.0,
            allocs: rounds.allocs(),
            overhead_frac: rounds.overhead_frac(),
            probes,
        });
        out.spans = t.spans.clone();
    }
    out
}
