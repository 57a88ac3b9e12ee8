//! The open-loop KV service: servers, drivers, and the overload
//! experiment harness.

use std::cell::Cell;
use std::rc::Rc;

use oam_machine::{
    arrivals_for, pace_until, run_partitioned, CallClass, OpenLoopConfig, OpenLoopTracker, Reducer,
    ShardApp,
};
use oam_model::{AdaptivePolicy, AdmissionConfig, Dur, ExecPolicy, MachineConfig, NodeId};
use oam_rpc::{define_rpc_service, from_bytes, CallError, CallOpts};
use oam_threads::Mutex;

use crate::system::AppOutcome;

/// Size of the global key space.
pub const KV_KEYS: u32 = 64;
/// Lock stripes per server node.
const STRIPES: u32 = 8;
/// Cost of a `get` (read one slot).
const GET_COST: Dur = Dur::from_nanos(2_000);
/// Cost of a `put` (read-modify-write one slot).
const PUT_COST: Dur = Dur::from_nanos(4_000);
/// Pending-call budget the service runs with when admission control is
/// on (tests assert the measured peak never exceeds it).
pub const PENDING_BUDGET: usize = 8;
/// Per-slot cost of a `scan` (it walks a whole stripe, holding its lock
/// far past the optimistic handler budget — the blocking half of the
/// request mix, and the reason the server saturates first).
const SCAN_SLOT_COST: Dur = Dur::from_nanos(100_000);

/// Striped per-server store: each stripe owns its slots outright, so
/// stripe locks never contend with each other — only hot keys do.
pub struct KvState {
    stripes: Vec<Mutex<Vec<u64>>>,
}

impl KvState {
    fn new(node: &oam_threads::Node, servers: usize) -> Self {
        let slots = (KV_KEYS as usize).div_ceil(servers * STRIPES as usize) + 1;
        KvState { stripes: (0..STRIPES).map(|_| Mutex::new(node, vec![0u64; slots])).collect() }
    }
}

/// Which server owns a key, and where it lives there.
fn place(key: u32, servers: usize) -> (NodeId, u32, usize) {
    let server = key as usize % servers;
    let stripe = (key / servers as u32) % STRIPES;
    let slot = key as usize / (servers * STRIPES as usize);
    (NodeId(server), stripe, slot)
}

define_rpc_service! {
    /// The striped key-value service.
    service Kv {
        state KvState;

        /// Read one slot (cheap, ORPC-friendly).
        rpc get(ctx, st, stripe: u32, slot: u32) -> u64 {
            let g = st.stripes[stripe as usize].lock().await;
            ctx.charge(super::GET_COST).await;
            g.with(|v| v[slot as usize])
        }

        /// Read-modify-write one slot (cheap, but contends on hot keys).
        rpc put(ctx, st, stripe: u32, slot: u32, x: u64) -> u64 {
            let g = st.stripes[stripe as usize].lock().await;
            ctx.charge(super::PUT_COST).await;
            g.with_mut(|v| {
                v[slot as usize] = v[slot as usize].wrapping_add(x);
                v[slot as usize]
            })
        }

        /// Sum a whole stripe (heavy: holds the stripe lock while charging
        /// far past the optimistic handler budget, so ORPC aborts it).
        rpc scan(ctx, st, stripe: u32) -> u64 {
            let g = st.stripes[stripe as usize].lock().await;
            let n = g.with(|v| v.len());
            let mut sum = 0u64;
            for i in 0..n {
                ctx.charge(super::SCAN_SLOT_COST).await;
                ctx.checkpoint().await;
                sum = sum.wrapping_add(g.with(|v| v[i]));
            }
            sum
        }

        /// The streaming variant of [`scan`]: yields each slot's value as
        /// a chunk while the walk is still running, then closes with the
        /// stripe sum. A client cancel (explicit, or deadline expiry at
        /// `finish`) aborts the walk at its next suspension point, freeing
        /// the stripe lock early instead of finishing a scan nobody wants.
        stream scan_stream(ctx, st, tx, stripe: u32) [u64] -> u64 {
            let g = st.stripes[stripe as usize].lock().await;
            let n = g.with(|v| v.len());
            let mut sum = 0u64;
            let mut tx = tx;
            for i in 0..n {
                ctx.charge(super::SCAN_SLOT_COST).await;
                ctx.checkpoint().await;
                let x = g.with(|v| v[i]);
                sum = sum.wrapping_add(x);
                tx = tx.send(&x).await;
            }
            tx.close(&sum).await
        }
    }
}

/// Handler id of the heavy method (exported for per-method policies and
/// assertions in tests).
pub const SCAN_ID: oam_rpc::HandlerId = oam_rpc::handler_id_for("Kv::scan");

/// Handler id of the streaming scan (exported like [`SCAN_ID`]).
pub const SCAN_STREAM_ID: oam_rpc::HandlerId = oam_rpc::handler_id_for("Kv::scan_stream");

/// Server-side dispatch variant under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceVariant {
    /// Every method optimistic (heavy scans abort and promote every time).
    Orpc,
    /// Every method a thread per call.
    Trpc,
    /// Optimistic with adaptive demotion — abort-rate driven, plus the
    /// admission layer's queue-depth overload signal.
    Adaptive,
}

impl ServiceVariant {
    /// Label used in tables.
    pub fn label(self) -> &'static str {
        match self {
            ServiceVariant::Orpc => "ORPC",
            ServiceVariant::Trpc => "TRPC",
            ServiceVariant::Adaptive => "adaptive",
        }
    }
}

/// Parameters of one service run.
#[derive(Debug, Clone)]
pub struct ServiceParams {
    /// Nodes serving the KV store (ids `0..servers`).
    pub servers: usize,
    /// Open-loop driver nodes (ids `servers..servers+drivers`).
    pub drivers: usize,
    /// Server dispatch variant.
    pub variant: ServiceVariant,
    /// Admission control on (budgeted pending calls, shed NACKs with
    /// retry-after, queue-depth demotion) or off (unbounded admission —
    /// deadlines still enforced, so overload shows up as expiries and
    /// blown tails instead of shed load).
    pub admission: bool,
    /// Offered-load multiplier ×100 (`100` = the base rate, `200` = 2×).
    pub load_x100: u64,
    /// Requests per driver node.
    pub arrivals: u32,
    /// Per-request deadline.
    pub deadline: Dur,
    /// Serve heavy requests through the streaming scan (`Kv::scan_stream`
    /// sessions: chunked replies, cancel-on-expiry) instead of the
    /// single-shot `Kv::scan`. Off by default — the default wire traffic
    /// stays byte-identical to the legacy single-shot protocol.
    pub streaming: bool,
}

impl Default for ServiceParams {
    fn default() -> Self {
        ServiceParams {
            servers: 1,
            drivers: 3,
            variant: ServiceVariant::Adaptive,
            admission: true,
            load_x100: 100,
            arrivals: 192,
            deadline: Dur::from_micros(5_000),
            streaming: false,
        }
    }
}

impl ServiceParams {
    /// The arrival process, its schedule drawn from the machine `seed`.
    fn open_loop(&self, seed: u64) -> OpenLoopConfig {
        OpenLoopConfig {
            arrivals: self.arrivals,
            keys: KV_KEYS,
            // Calibrated so 1x sits just below the measured saturation
            // knee of one server under this mix (promoted scans plus the
            // stripe-lock convoys behind them dominate).
            mean_gap: Dur::from_micros(1_000),
            seed: seed ^ 0x6f70_656e_6c6f_6f70,
            ..OpenLoopConfig::default()
        }
        .at_load_x100(self.load_x100)
    }
}

/// Result of one service run: the usual app outcome plus the overload
/// scorecard the experiments tabulate.
#[derive(Debug, Clone)]
pub struct ServiceOutcome {
    /// Elapsed time, answer, and raw machine statistics.
    pub app: AppOutcome,
    /// Requests answered within their deadline.
    pub completed: u64,
    /// Requests shed by admission control (each exactly one NACK).
    pub shed: u64,
    /// Requests dropped server-side past their deadline.
    pub expired: u64,
    /// Requests the caller gave up on (local expiry or a retry that could
    /// not fit in the remaining budget).
    pub abandoned: u64,
    /// Adaptive dispatch-mode switches across all methods and nodes.
    pub mode_switches: u64,
    /// Streaming sessions opened (streaming mode only; zero otherwise).
    pub sessions_opened: u64,
    /// Sessions that ended with the server's Close, fully consumed.
    pub sessions_closed: u64,
    /// Sessions torn down without a Close (cancel, expiry, error).
    pub sessions_cancelled: u64,
    /// Median request latency.
    pub p50: Dur,
    /// 99th-percentile request latency.
    pub p99: Dur,
    /// 99.9th-percentile request latency.
    pub p999: Dur,
    /// Completed requests per virtual second.
    pub goodput_per_sec: f64,
}

/// Run the open-loop service experiment on `cfg`, which must have
/// `servers + drivers` nodes. Its seed also draws the arrival schedules. A
/// chaos run sets a fault plan and turns retransmission on in `cfg`, so
/// every surviving effect stays exactly-once; the service adds its
/// admission control and, for the adaptive variant, its method policies.
pub fn run(cfg: MachineConfig, params: ServiceParams) -> ServiceOutcome {
    assert!(params.servers > 0 && params.drivers > 0);
    assert_eq!(cfg.nodes, params.servers + params.drivers, "one node per server and driver");
    let seed = cfg.seed;
    let admission = if params.admission {
        // Tighter than the library default: the budget bounds the admitted
        // queue to roughly what the deadline can absorb at this scale.
        AdmissionConfig { pending_budget: PENDING_BUDGET, overload_demote_depth: 6 }
    } else {
        // Unbounded admission: the deadline header and expiry checks stay
        // active (so the comparison measures the same SLO), but nothing is
        // ever shed and the overload signal is off.
        AdmissionConfig { pending_budget: usize::MAX / 2, overload_demote_depth: 0 }
    };
    let mut cfg = cfg.with_admission(admission);
    if params.variant == ServiceVariant::Adaptive {
        for id in [Kv::get::ID, Kv::put::ID, Kv::scan::ID, Kv::scan_stream::ID] {
            cfg = cfg.with_policy(id.0, ExecPolicy::adaptive(AdaptivePolicy::default()));
        }
    }
    let mode = match params.variant {
        ServiceVariant::Trpc => oam_rpc::RpcMode::Trpc,
        ServiceVariant::Orpc | ServiceVariant::Adaptive => oam_rpc::RpcMode::Orpc,
    };

    let params2 = params.clone();
    let (report, answer) = run_partitioned(cfg, move |machine| {
        let p = Rc::new(params2.clone());
        for node in machine.nodes().iter().filter(|n| n.id().index() < p.servers) {
            let st = Rc::new(KvState::new(node, p.servers));
            Kv::register_all(machine.rpc(), node.id(), st, mode);
        }
        let sum_reduce = Reducer::new(machine.collectives(), |a: &u64, b: &u64| a.wrapping_add(*b));
        let done_reduce = Reducer::new(machine.collectives(), |a: &u64, b: &u64| a + b);
        let answer_out = Rc::new(Cell::new(0u64));

        let out = Rc::clone(&answer_out);
        let main = move |env: oam_machine::NodeEnv| {
            let p = Rc::clone(&p);
            let (sum_r, done_r) = (sum_reduce.clone(), done_reduce.clone());
            let out = Rc::clone(&out);
            let fut: std::pin::Pin<Box<dyn std::future::Future<Output = ()>>> =
                Box::pin(async move {
                    let me = env.id().index();
                    env.barrier().await;
                    let t0 = env.now();
                    let checksum = Rc::new(Cell::new(0u64));
                    if me >= p.servers {
                        // Open-loop driver: expand this node's schedule and
                        // issue one deadline-bearing call per arrival
                        // without waiting for the previous one.
                        let tracker = OpenLoopTracker::new();
                        let arrivals = arrivals_for(&p.open_loop(seed), me - p.servers);
                        for a in arrivals {
                            pace_until(env.node(), t0 + a.at).await;
                            tracker.begin();
                            let env2 = env.clone();
                            let tr = tracker.clone();
                            let ck = Rc::clone(&checksum);
                            let p2 = Rc::clone(&p);
                            env.node().spawn(async move {
                                let (dst, stripe, slot) = place(a.key, p2.servers);
                                let rpc = env2.rpc();
                                let node = env2.node();
                                let opts = CallOpts::default().with_deadline(p2.deadline);
                                if p2.streaming && a.class == CallClass::Heavy {
                                    // Streaming scan: consume the chunks as
                                    // they arrive, then collect the sum
                                    // from the Close. A broken session
                                    // (deadline, NACK budget) cancels —
                                    // the server aborts mid-walk.
                                    let mut h =
                                        Kv::scan_stream::call_with(rpc, node, dst, opts, stripe)
                                            .await;
                                    let mut acc = 0u64;
                                    while let Some(x) = h.next().await {
                                        acc = acc.wrapping_add(x);
                                    }
                                    if let Ok(sum) = h.finish().await {
                                        debug_assert_eq!(acc, sum, "chunks sum to the Close");
                                        ck.set(ck.get().wrapping_add(sum).wrapping_add(1));
                                    }
                                    tr.finish();
                                    return;
                                }
                                let res: Result<_, CallError> = match a.class {
                                    CallClass::Heavy => {
                                        rpc.call_args_with(node, dst, SCAN_ID, &(stripe,), opts)
                                            .await
                                    }
                                    CallClass::Cheap if a.client % 10 < 3 => {
                                        let args = (stripe, slot as u32, a.client % 7 + 1);
                                        rpc.call_args_with(node, dst, Kv::put::ID, &args, opts)
                                            .await
                                    }
                                    CallClass::Cheap => {
                                        let args = (stripe, slot as u32);
                                        rpc.call_args_with(node, dst, Kv::get::ID, &args, opts)
                                            .await
                                    }
                                };
                                if let Ok(reply) = res {
                                    let v: u64 = from_bytes(&reply).expect("reply decode");
                                    ck.set(ck.get().wrapping_add(v).wrapping_add(1));
                                }
                                tr.finish();
                            });
                        }
                        tracker.drained(env.node()).await;
                    }
                    // Servers sit in the end barrier serving the whole
                    // time; drivers arrive once their last call resolves.
                    env.barrier().await;
                    let local = checksum.get();
                    let total = sum_r.reduce(env.node(), local).await;
                    let my_completed = env.node().stats().borrow().calls_completed;
                    let completed = done_r.reduce(env.node(), my_completed).await;
                    if me == 0 {
                        out.set(total ^ completed.rotate_left(32));
                    }
                });
            fut
        };
        ShardApp { main: Box::new(main), finish: Box::new(move |_| answer_out.get()) }
    });

    let app = AppOutcome::new(report, answer);
    let total = app.stats.total();
    let mode_switches = total.per_method.values().map(|m| m.mode_switches).sum();
    let elapsed_s = app.elapsed.as_secs_f64();
    ServiceOutcome {
        completed: total.calls_completed,
        shed: total.calls_shed,
        expired: total.calls_expired,
        abandoned: total.calls_abandoned,
        mode_switches,
        sessions_opened: total.sessions_opened,
        sessions_closed: total.sessions_closed,
        sessions_cancelled: total.sessions_cancelled,
        p50: total.latency.quantile(0.50),
        p99: total.latency.quantile(0.99),
        p999: total.latency.quantile(0.999),
        goodput_per_sec: if elapsed_s > 0.0 {
            total.calls_completed as f64 / elapsed_s
        } else {
            0.0
        },
        app,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The four-node machine at the seed the service's tests were
    /// recorded with.
    fn machine() -> MachineConfig {
        MachineConfig::cm5(4).with_seed(0x5e41_11ce)
    }

    fn small() -> ServiceParams {
        ServiceParams { arrivals: 96, ..ServiceParams::default() }
    }

    #[test]
    fn service_runs_and_answers_deterministically() {
        let a = run(machine(), small());
        let b = run(machine(), small());
        assert_eq!(a.app.answer, b.app.answer);
        assert_eq!(a.app.elapsed, b.app.elapsed);
        assert_eq!(a.completed, b.completed);
        assert_eq!((a.shed, a.expired, a.abandoned), (b.shed, b.expired, b.abandoned));
        assert!(a.completed > 0, "most requests should complete at 1x");
        let arrivals = u64::from(small().drivers as u32) * u64::from(small().arrivals);
        assert_eq!(
            a.completed + a.abandoned,
            arrivals,
            "every arrival either completes or is abandoned"
        );
    }

    #[test]
    fn streaming_scan_mode_is_deterministic_and_retires_every_session() {
        let p = ServiceParams { streaming: true, ..small() };
        let a = run(machine(), p.clone());
        let b = run(machine(), p.clone());
        assert_eq!(a.app.answer, b.app.answer);
        assert_eq!(a.app.elapsed, b.app.elapsed);
        assert!(a.sessions_opened > 0, "heavy arrivals open sessions");
        assert_eq!(
            a.sessions_opened,
            a.sessions_closed + a.sessions_cancelled,
            "every session ends in exactly one Close or Cancel"
        );
        let stats = a.app.stats.total();
        assert!(stats.chunks_received > 0, "closed sessions delivered chunks");
        let arrivals = u64::from(p.drivers as u32) * u64::from(p.arrivals);
        assert_eq!(
            a.completed + a.abandoned,
            arrivals,
            "the completion ledger holds under streaming heavies"
        );
    }

    #[test]
    fn latency_quantiles_are_ordered() {
        let o = run(machine(), small());
        assert!(o.p50 <= o.p99);
        assert!(o.p99 <= o.p999);
        assert!(o.p50 > Dur::ZERO);
        assert!(o.goodput_per_sec > 0.0);
    }

    #[test]
    fn overload_without_admission_blows_the_tail() {
        let adm = run(machine(), ServiceParams { load_x100: 200, ..small() });
        let raw = run(machine(), ServiceParams { load_x100: 200, admission: false, ..small() });
        assert_eq!(raw.shed, 0, "unbounded admission never sheds");
        // The admission-controlled run bounds what the servers accept; the
        // raw run lets queues grow and pays for it in tail latency or
        // abandoned calls.
        assert!(
            raw.p999 >= adm.p999 || raw.abandoned > adm.abandoned,
            "raw p999 {:?} vs adm {:?}, raw abandoned {} vs adm {}",
            raw.p999,
            adm.p999,
            raw.abandoned,
            adm.abandoned
        );
    }

    #[test]
    fn variants_run_on_all_dispatch_modes() {
        for v in [ServiceVariant::Orpc, ServiceVariant::Trpc, ServiceVariant::Adaptive] {
            let o = run(machine(), ServiceParams { variant: v, ..small() });
            assert!(o.completed > 0, "{}", v.label());
            if v == ServiceVariant::Trpc {
                assert_eq!(o.app.stats.total().oam_attempts, 0);
            }
        }
    }
}
