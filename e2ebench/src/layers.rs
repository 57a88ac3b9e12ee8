//! Per-layer metrics, named `layer.metric` after the crate that does the
//! work. Every workload reports the same names; a layer that does no work
//! on a workload reads 0 there (for example the native rings on the
//! simulator, or the epoch engine below two shards).

use std::collections::HashMap;

use oam_model::{AbortReason, MachineStats};
use oam_sim::AllocSnapshot;

use crate::probes::Probes;
use crate::stats::Summary;
use crate::trace::{self_time, Kind, Span};
use crate::{ratio, Metric};

/// Everything the per-layer metrics are computed from.
pub struct LayerInputs<'a> {
    /// Operations in one round (calls, resolved requests, node-iterations).
    pub ops: u64,
    /// Harvested counters of one round.
    pub stats: &'a MachineStats,
    /// Simulation events of one round.
    pub events: u64,
    /// Event-queue high-water mark of one round.
    pub peak_queue_depth: u64,
    /// Median host seconds of the untraced rounds' measured window.
    pub host_s: f64,
    /// Makespan of one round on the run's own clock, nanoseconds.
    pub makespan_ns: u64,
    /// Whether the run was on the native backend (engine counters then
    /// describe the rings, not epochs).
    pub native: bool,
    /// Application iterations per round (epochs per iteration), 0 if none.
    pub iters: u64,
    /// Spans of one traced round.
    pub spans: &'a [Span],
    /// Only calls with a request id up to this enter the rpc-path figures
    /// (0: every call). `native_rpc` passes its phase-A calls, which have
    /// the rings to themselves; phase B's include queueing in the window.
    pub path_reqs: u64,
    /// Median machine-build seconds, 0 where the build is not separable.
    pub build_s: f64,
    /// Median registration seconds, 0 where not separable.
    pub register_s: f64,
    /// Open-loop generator lateness, p99 µs of virtual time, 0 if closed loop.
    pub gen_late_p99_us: f64,
    /// Allocations of one untraced round's measured window.
    pub allocs: AllocSnapshot,
    /// Median traced over median untraced host time, minus one.
    pub overhead_frac: f64,
    /// Primitive probes.
    pub probes: Probes,
}

/// Median of `v` (0 when empty).
fn median(v: Vec<f64>) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        Summary::of(&v).median
    }
}

/// The rpc-path decomposition from matched call/handler span pairs:
/// `(request_host_ns, reply_host_ns, request_vus, reply_vus, handler_host_ns,
/// handler_vus, call_self_host_ns)`, each a median over calls.
fn rpc_paths(spans: &[Span], path_reqs: u64) -> [f64; 7] {
    let handlers: HashMap<u64, &Span> =
        spans.iter().filter(|s| s.kind == Kind::Handler).map(|s| (s.req, s)).collect();
    let mut cols: [Vec<f64>; 7] = Default::default();
    let in_scope = |s: &&Span| s.kind == Kind::Call && (path_reqs == 0 || s.req <= path_reqs);
    for c in spans.iter().filter(in_scope) {
        let Some(h) = handlers.get(&c.req) else { continue };
        cols[0].push(h.start.host.saturating_sub(c.start.host) as f64);
        cols[1].push(c.end.host.saturating_sub(h.end.host) as f64);
        if let (Some(cs), Some(hs), Some(he), Some(ce)) =
            (c.start.virt, h.start.virt, h.end.virt, c.end.virt)
        {
            cols[2].push(hs.saturating_sub(cs) as f64 / 1e3);
            cols[3].push(ce.saturating_sub(he) as f64 / 1e3);
            cols[5].push(he.saturating_sub(hs) as f64 / 1e3);
        }
        cols[4].push(h.host_ns() as f64);
        cols[6].push(self_time(c.start.host, c.end.host, &[(h.start.host, h.end.host)]) as f64);
    }
    cols.map(median)
}

/// Compute every per-layer metric.
pub fn compute(i: &LayerInputs<'_>) -> Vec<Metric> {
    let t = i.stats.total();
    let e = &i.stats.engine;
    let ops = i.ops as f64;
    let per_op = |x: u64| ratio(x as f64, ops);
    let polls = (t.polls_empty + t.polls_nonempty) as f64;
    let aborts = |r: AbortReason| per_op(t.oam_aborts[r.index()]);
    let idle_frac =
        ratio(t.idle_time.as_nanos() as f64, i.stats.nodes() as f64 * i.makespan_ns as f64);
    let (ring, epoch) = if i.native { (Some(e), None) } else { (None, Some(e)) };
    let ring_ratio = |f: fn(&oam_model::EngineCounters) -> f64| ring.map_or(0.0, f);
    let epoch_ratio = |f: fn(&oam_model::EngineCounters) -> f64| epoch.map_or(0.0, f);
    let iters = i.iters as f64;
    let [req_host, reply_host, req_vus, reply_vus, handler_host, handler_vus, call_self] =
        rpc_paths(i.spans, i.path_reqs);
    let m = Metric::one;
    vec![
        m("sim.events_per_op", "count", per_op(i.events)),
        m("sim.host_ns_per_event", "ns", ratio(i.host_s * 1e9, i.events as f64)),
        m("sim.peak_queue_depth", "count", i.peak_queue_depth as f64),
        m("sim.schedule_ns", "ns", i.probes.schedule_ns),
        m("net.msgs_per_op", "count", per_op(t.messages_sent)),
        m("net.bulk_per_op", "count", per_op(t.bulk_transfers_sent)),
        m("net.bytes_per_op", "B", per_op(t.bytes_sent)),
        m("net.backpressure_per_op", "count", per_op(t.send_backpressure_events)),
        m("net.ring.msgs_per_batch", "count", ring_ratio(|e| e.msgs_per_batch())),
        m(
            "net.ring.wakes_per_batch",
            "count",
            ring_ratio(|e| ratio(e.wakes as f64, e.batches as f64)),
        ),
        m("net.ring.push_pop_ns", "ns", i.probes.ring_push_pop_ns),
        m("net.gate.wake_ns", "ns", i.probes.gate_wake_ns),
        m("am.polls_per_dispatch", "count", ratio(polls, t.messages_received as f64)),
        m("am.poll_empty_frac", "ratio", ratio(t.polls_empty as f64, polls)),
        m("core.inline_ok_rate", "ratio", ratio(t.oam_successes as f64, t.oam_attempts as f64)),
        m("core.aborts_per_op.lock_held", "count", aborts(AbortReason::LockHeld)),
        m("core.aborts_per_op.condition_false", "count", aborts(AbortReason::ConditionFalse)),
        m("core.aborts_per_op.network_full", "count", aborts(AbortReason::NetworkFull)),
        m("core.aborts_per_op.ran_too_long", "count", aborts(AbortReason::RanTooLong)),
        m("core.promotions_per_op", "count", per_op(t.oam_promotions)),
        m("core.reruns_per_op", "count", per_op(t.oam_reruns)),
        m("core.threaded_per_op", "count", per_op(t.per_method.values().map(|m| m.threaded).sum())),
        m(
            "core.mode_switches",
            "count",
            t.per_method.values().map(|m| m.mode_switches).sum::<u64>() as f64,
        ),
        m("core.shed_per_op", "count", per_op(t.calls_shed)),
        m("core.admission_peak", "count", t.admission_peak as f64),
        m("threads.created_per_op", "count", per_op(t.threads_created)),
        m("threads.switches_per_op", "count", per_op(t.context_switches)),
        m("threads.live_stack_hit_rate", "ratio", t.live_stack_rate().unwrap_or(0.0)),
        m("threads.idle_frac", "ratio", idle_frac),
        m("rpc.request_path_host_ns", "ns", req_host),
        m("rpc.reply_path_host_ns", "ns", reply_host),
        m("rpc.call_self_host_ns", "ns", call_self),
        m("rpc.request_path_virtual_us", "vus", req_vus),
        m("rpc.reply_path_virtual_us", "vus", reply_vus),
        m("rpc.nacks_per_op", "count", per_op(t.nacks_received)),
        m("rpc.retry_after_honored", "count", t.retry_after_honored as f64),
        m("rpc.retransmits_per_op", "count", per_op(t.retransmits)),
        m("rpc.wire_encode_ns", "ns", i.probes.wire_encode_ns),
        m("rpc.wire_decode_ns", "ns", i.probes.wire_decode_ns),
        m("machine.build_s", "s", i.build_s),
        m("machine.register_s", "s", i.register_s),
        m(
            "machine.epoch.epochs_per_iter",
            "count",
            epoch_ratio(|e| e.epochs as f64) / iters.max(1.0),
        ),
        m(
            "machine.epoch.empty_frac",
            "ratio",
            epoch_ratio(|e| ratio(e.empty_epochs as f64, e.epochs as f64)),
        ),
        m(
            "machine.epoch.fence_skip_frac",
            "ratio",
            epoch_ratio(|e| ratio(e.fence_skips as f64, e.epochs as f64)),
        ),
        m("machine.epoch.msgs_per_batch", "count", epoch_ratio(|e| e.msgs_per_batch())),
        m("machine.epoch.wakes", "count", epoch_ratio(|e| e.wakes as f64)),
        m("machine.openloop.gen_late_p99_us", "vus", i.gen_late_p99_us),
        m("app.handler_host_ns", "ns", handler_host),
        m("app.handler_virtual_us", "vus", handler_vus),
        m("mem.allocs_per_op", "count", per_op(i.allocs.allocs)),
        m("mem.alloc_bytes_per_op", "B", per_op(i.allocs.bytes)),
        m("trace.overhead_frac", "ratio", i.overhead_frac),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Stamp;

    #[test]
    fn rpc_paths_tile_the_call() {
        let s = |host: u64, v: u64| Stamp { host, virt: Some(v) };
        let spans = vec![
            Span { kind: Kind::Call, req: 1, parent: None, start: s(0, 0), end: s(100, 14_000) },
            Span {
                kind: Kind::Handler,
                req: 1,
                parent: Some(Kind::Call.id(1)),
                start: s(40, 6_000),
                end: s(70, 7_000),
            },
            // A call whose handler span is missing is skipped.
            Span { kind: Kind::Call, req: 2, parent: None, start: s(0, 0), end: s(9, 9) },
        ];
        let [rq, rp, rqv, rpv, hh, hv, own] = rpc_paths(&spans, 0);
        assert_eq!(rpc_paths(&spans, 1)[0], 40.0);
        assert_eq!((rq, rp, hh, own), (40.0, 30.0, 30.0, 70.0));
        assert_eq!((rqv, rpv, hv), (6.0, 7.0, 1.0));
        assert_eq!(rqv + hv + rpv, 14.0, "the three segments sum to the call");
    }

    #[test]
    fn every_workload_reports_the_same_names() {
        let stats = MachineStats::new(vec![Default::default()]);
        let inputs = LayerInputs {
            ops: 0,
            stats: &stats,
            events: 0,
            peak_queue_depth: 0,
            host_s: 0.0,
            makespan_ns: 0,
            native: false,
            iters: 0,
            spans: &[],
            path_reqs: 0,
            build_s: 0.0,
            register_s: 0.0,
            gen_late_p99_us: 0.0,
            allocs: AllocSnapshot::default(),
            overhead_frac: 0.0,
            probes: Probes::default(),
        };
        let ms = compute(&inputs);
        assert!(ms.iter().all(|m| m.value.is_finite()), "empty inputs must not divide by zero");
        // The names match BENCHMARK.json's per_layer list, in order.
        let spec =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json beside the benchmark directory");
        let per_layer = &spec[spec.find("\"per_layer\"").expect("per_layer list")..];
        let names: Vec<&str> = per_layer
            .split("\"name\": \"")
            .skip(1)
            .map(|s| &s[..s.find('"').expect("closing quote")])
            .collect();
        let ours: Vec<&str> = ms.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(ours, names);
    }
}
