//! Isolated timings of single runtime primitives, sized from the workload
//! that reports them: wire marshaling of its argument and reply types, an
//! SPSC ring at its batch size, the `WakeGate` round trip, and event
//! scheduling at its peak queue depth.

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use oam_model::Dur;
use oam_net::{spsc, WakeGate};
use oam_rpc::{from_bytes, to_bytes, Wire};
use oam_sim::{Prng, Sim};

/// Probe results, nanoseconds per operation.
#[derive(Debug, Clone, Copy, Default)]
pub struct Probes {
    /// `to_bytes` of one request's arguments plus its reply.
    pub wire_encode_ns: f64,
    /// `from_bytes` of the same.
    pub wire_decode_ns: f64,
    /// One push plus one pop on an SPSC ring, pushed and drained in
    /// batches of the workload's delivery batch size.
    pub ring_push_pop_ns: f64,
    /// One `notify` → `park_unless` wake of a parked consumer thread, per
    /// direction of a two-thread round trip.
    pub gate_wake_ns: f64,
    /// One `Sim::schedule_after` plus the execution of that event, on a
    /// queue that keeps holding the workload's peak event count.
    pub schedule_ns: f64,
}

/// Run every probe. `args` and `reply` are a request's argument tuple and
/// reply value; `batch` the delivery batch; `depth` the peak queue depth.
pub fn run<A: Wire, R: Wire>(args: &A, reply: &R, batch: usize, depth: u64, iters: u32) -> Probes {
    let (wire_encode_ns, wire_decode_ns) = wire(args, reply, iters);
    Probes {
        wire_encode_ns,
        wire_decode_ns,
        ring_push_pop_ns: ring(batch, iters),
        gate_wake_ns: gate(iters / 100 + 1),
        schedule_ns: schedule(depth, iters),
    }
}

fn per_op(t: Instant, ops: u64) -> f64 {
    t.elapsed().as_nanos() as f64 / ops.max(1) as f64
}

fn wire<A: Wire, R: Wire>(args: &A, reply: &R, iters: u32) -> (f64, f64) {
    let t = Instant::now();
    for _ in 0..iters {
        black_box(to_bytes(black_box(args)));
        black_box(to_bytes(black_box(reply)));
    }
    let enc = per_op(t, u64::from(iters));
    let (a, r) = (to_bytes(args), to_bytes(reply));
    let t = Instant::now();
    for _ in 0..iters {
        black_box(from_bytes::<A>(black_box(&a)).expect("probe args decode"));
        black_box(from_bytes::<R>(black_box(&r)).expect("probe reply decode"));
    }
    (enc, per_op(t, u64::from(iters)))
}

fn ring(batch: usize, iters: u32) -> f64 {
    let batch = batch.max(1);
    let (mut tx, mut rx) = spsc::<u64>(4 * batch);
    let rounds = (iters as usize).div_ceil(batch);
    let t = Instant::now();
    for r in 0..rounds {
        for i in 0..batch {
            tx.push(black_box((r * batch + i) as u64)).expect("ring sized for one batch");
        }
        while let Some(v) = rx.pop() {
            black_box(v);
        }
    }
    per_op(t, (rounds * batch) as u64)
}

/// Two threads bounce a sequence number through two gates; each hop is a
/// `notify` of a consumer that is parked (or about to park) in
/// `park_unless`.
fn gate(round_trips: u32) -> f64 {
    let ping = Arc::new((WakeGate::new(), AtomicU64::new(0)));
    let pong = Arc::new((WakeGate::new(), AtomicU64::new(0)));
    let wait = |side: &(WakeGate, AtomicU64), want: u64| {
        while side.1.load(Ordering::Acquire) != want {
            side.0.park_unless(|| side.1.load(Ordering::Acquire) == want, Duration::from_millis(5));
        }
    };
    std::thread::scope(|s| {
        let (ping2, pong2) = (Arc::clone(&ping), Arc::clone(&pong));
        s.spawn(move || {
            pong2.0.register();
            for i in 1..=u64::from(round_trips) {
                wait(&pong2, i);
                ping2.1.store(i, Ordering::Release);
                ping2.0.notify();
            }
        });
        ping.0.register();
        let t = Instant::now();
        for i in 1..=u64::from(round_trips) {
            pong.1.store(i, Ordering::Release);
            pong.0.notify();
            wait(&ping, i);
        }
        per_op(t, 2 * u64::from(round_trips))
    })
}

/// The queue is pre-filled with `depth` events far in the future, so each
/// probe event is scheduled and executed while the depth stays put.
fn schedule(depth: u64, iters: u32) -> f64 {
    let sim = Sim::new(1);
    let mut rng = Prng::seed_from_u64(0x5c4e_d01e);
    let far = 1_000_000_000_000u64;
    for _ in 0..depth {
        sim.schedule_after(Dur::from_nanos(far + rng.gen_below(far)), |_| {});
    }
    let delays: Vec<Dur> = (0..iters).map(|_| Dur::from_nanos(1 + rng.gen_below(1_000))).collect();
    let t = Instant::now();
    for d in delays {
        let due = sim.now() + d;
        black_box(sim.schedule_after(d, |_| {}));
        sim.run_before(due + Dur::from_nanos(1));
    }
    per_op(t, u64::from(iters))
}

#[cfg(test)]
mod tests {
    #[test]
    fn probes_report_positive_costs() {
        let p = super::run(&(1u32, 2u16, 3u16), &7u64, 32, 64, 2_000);
        for v in [p.wire_encode_ns, p.wire_decode_ns, p.ring_push_pop_ns, p.gate_wake_ns] {
            assert!(v > 0.0, "{p:?}");
        }
        assert!(p.schedule_ns > 0.0);
    }
}
