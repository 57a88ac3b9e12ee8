//! Host fingerprint, environment guard, and memory readings.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

/// The host a result was measured on: core count and the time of a fixed
/// CPU-bound calibration loop, so figures from two hosts can be compared
/// after dividing by the calibration.
#[derive(Debug, Clone, Copy)]
pub struct Fingerprint {
    /// `std::thread::available_parallelism`.
    pub cores: usize,
    /// Median nanoseconds of [`calibration_loop`] over five runs.
    pub calib_ns: u64,
}

/// The fingerprint's calibration workload: a fixed integer chain
/// (xorshift and multiply) whose length is independent of every input, so
/// its time measures only the host's CPU.
pub fn calibration_loop() -> u64 {
    let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
    let mut acc = 0u64;
    for _ in 0..4_000_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc.wrapping_mul(31).wrapping_add(x);
    }
    black_box(acc)
}

/// Nanoseconds [`calibration_slice`] takes on the reference host (a
/// two-core x86-64 container); `setup_s` and `cal_ops_per_s` scale host
/// figures to it.
pub const REFERENCE_SLICE_NS: f64 = 2_500_000.0;

/// The calibration slice's event loop: a binary-heap event queue keyed by
/// `(time, sequence)`, one boxed closure per event held in a hash map,
/// and 64 `Rc<RefCell<..>>` nodes with small queues.
struct MiniSim {
    now: u64,
    seq: u64,
    rng: u64,
    queue: BinaryHeap<Reverse<(u64, u64)>>,
    actions: HashMap<u64, Action>,
    nodes: Vec<Rc<RefCell<MiniNode>>>,
}

/// One scheduled event of [`MiniSim`].
type Action = Box<dyn FnOnce(&mut MiniSim)>;

/// A [`MiniSim`] node: its recent values and their running sum.
type MiniNode = (VecDeque<u64>, u64);

impl MiniSim {
    /// Node `node` files a value and schedules the next hop, carrying a
    /// small payload, at a pseudo-random node and delay.
    fn hop(&mut self, node: usize) {
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        let r = self.rng;
        {
            let mut n = self.nodes[node].borrow_mut();
            n.0.push_back(r);
            if n.0.len() > 8 {
                let v = n.0.pop_front().unwrap_or(0);
                n.1 = n.1.wrapping_add(v);
            }
        }
        let next = (r % self.nodes.len() as u64) as usize;
        let payload = vec![r; 4];
        self.seq += 1;
        self.queue.push(Reverse((self.now + 1 + r % 1000, self.seq)));
        self.actions.insert(
            self.seq,
            Box::new(move |s: &mut MiniSim| {
                black_box(&payload);
                s.hop(next);
            }),
        );
    }
}

/// Time a fixed 20,000-event run of a small std-only discrete-event loop
/// (about 2.5 ms). It does the kind of work the simulator does — heap
/// pushes and pops, boxed closures, hash lookups, small allocations,
/// pointer chasing — but none of the runtime's code, so a change to the
/// runtime cannot move it. Interference from other tenants of a shared
/// host slows this loop much as it slows the workloads (a plain integer
/// loop notices much less of it), so dividing a round's host time by the
/// slices around it cancels most of the host's drift.
pub fn calibration_slice() -> f64 {
    let t = Instant::now();
    let mut s = MiniSim {
        now: 0,
        seq: 0,
        rng: 0x9E37_79B9_7F4A_7C15,
        queue: BinaryHeap::new(),
        actions: HashMap::new(),
        nodes: (0..64).map(|_| Rc::new(RefCell::new((VecDeque::new(), 0)))).collect(),
    };
    for node in 0..64 {
        s.hop(node);
    }
    for _ in 0..20_000 {
        let Reverse((at, id)) = s.queue.pop().expect("every event schedules one more");
        s.now = at;
        let action = s.actions.remove(&id).expect("every queued event has its action");
        action(&mut s);
    }
    black_box(s.nodes[0].borrow().1);
    t.elapsed().as_nanos() as f64
}

/// Measure this host.
pub fn fingerprint() -> Fingerprint {
    let mut ns: Vec<u64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            black_box(calibration_loop());
            t.elapsed().as_nanos() as u64
        })
        .collect();
    ns.sort_unstable();
    Fingerprint {
        cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        calib_ns: ns[ns.len() / 2],
    }
}

/// Every `OAM_*` variable in the environment, as `NAME=value`. The
/// runtime reads several of these as defaults for shard count, backend,
/// batching, fences and watchdogs; the benchmark pins all of them in its
/// configs and refuses to run while any is set, so a stray variable can
/// never change what a run measures.
pub fn oam_env() -> Vec<String> {
    let mut v: Vec<String> = std::env::vars_os()
        .filter_map(|(k, val)| {
            let k = k.to_string_lossy().into_owned();
            k.starts_with("OAM_").then(|| format!("{k}={}", val.to_string_lossy()))
        })
        .collect();
    v.sort();
    v
}

/// Peak resident set of this process in MiB (`VmHWM`), `None` where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_is_deterministic_and_fingerprint_is_sane() {
        assert_eq!(calibration_loop(), calibration_loop());
        let f = fingerprint();
        assert!(f.cores >= 1);
        assert!(f.calib_ns > 0);
        assert!(calibration_slice() > 0.0);
    }
}
