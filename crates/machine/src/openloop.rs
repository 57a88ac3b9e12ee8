//! Open-loop load generation: seeded arrival schedules and pacing for
//! driving a service at a rate that does **not** slow down when the
//! service does.
//!
//! Closed-loop drivers (issue a call, wait, issue the next) are
//! self-throttling: an overloaded server slows its own offered load, which
//! hides overload behavior entirely. The experiments in this repo instead
//! model an *open* system — millions of independent clients whose
//! aggregate arrival process is Poisson with bursts — where load keeps
//! arriving no matter how the server is doing. Each driver node expands a
//! deterministic [`Arrival`] schedule from the machine seed and issues one
//! deadline-bearing call per arrival *without waiting for the previous
//! one*, so queueing, shedding, and tail latency emerge from the service,
//! not the driver.
//!
//! The pieces compose: [`arrivals_for`] builds the per-node schedule,
//! [`pace_until`] sleeps virtual time to the next arrival while keeping
//! the node responsive, and [`OpenLoopTracker`] counts in-flight calls so
//! the driver can quiesce cleanly at the end of the run.

use std::cell::Cell;
use std::rc::Rc;

use oam_model::{Dur, Time};
use oam_sim::Prng;
use oam_threads::{Flag, Node};

/// Whether an arrival issues a cheap (ORPC-friendly) or heavy (blocking /
/// long-running) remote call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallClass {
    /// A short read: runs inline optimistically in the common case.
    Cheap,
    /// A lock-taking or long-running call: aborts optimistic execution.
    Heavy,
}

/// One scheduled client request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Offset from the start of the run.
    pub at: Dur,
    /// Simulated client issuing the request (drawn from a population of
    /// [`OpenLoopConfig::clients`]; many clients share one driver node).
    pub client: u64,
    /// Key the request touches (Zipf-skewed: low keys are hot).
    pub key: u32,
    /// Cheap or heavy.
    pub class: CallClass,
}

/// Parameters of the open-loop arrival process (per driver node).
#[derive(Debug, Clone, PartialEq)]
pub struct OpenLoopConfig {
    /// Requests each driver node issues over the run.
    pub arrivals: u32,
    /// Mean inter-arrival gap (exponentially distributed). Halving this
    /// doubles the offered load.
    pub mean_gap: Dur,
    /// Probability that an arrival opens a burst of `burst_len` requests
    /// arriving back-to-back (gap zero).
    pub burst_prob: f64,
    /// Requests per burst.
    pub burst_len: u32,
    /// Size of the key space.
    pub keys: u32,
    /// Zipf exponent for key popularity (`0.0` = uniform; `~1.0` =
    /// realistic hot-key skew).
    pub zipf_s: f64,
    /// Percentage of arrivals that are [`CallClass::Heavy`] (0–100).
    pub heavy_pct: u32,
    /// Simulated client population the `client` ids are drawn from.
    pub clients: u64,
    /// Seed for the schedule (combine the machine seed with a salt so the
    /// driver stream is independent of the fabric's randomness).
    pub seed: u64,
}

impl Default for OpenLoopConfig {
    fn default() -> Self {
        OpenLoopConfig {
            arrivals: 256,
            mean_gap: Dur::from_micros(40),
            burst_prob: 0.05,
            burst_len: 4,
            keys: 64,
            zipf_s: 1.0,
            heavy_pct: 10,
            clients: 1_000_000,
            seed: 1,
        }
    }
}

impl OpenLoopConfig {
    /// Scale the offered load: `x100 = 200` doubles the arrival rate
    /// (halves the mean gap), `50` halves it. Used by the experiments to
    /// sweep 0.5×/1×/2× saturation from one base configuration.
    pub fn at_load_x100(mut self, x100: u64) -> Self {
        assert!(x100 > 0, "load multiplier must be positive");
        let ns = self.mean_gap.as_nanos().saturating_mul(100) / x100;
        self.mean_gap = Dur::from_nanos(ns.max(1));
        self
    }
}

/// Expand the deterministic arrival schedule for driver node `node`.
/// Identical `(cfg, node)` always yields the identical schedule,
/// independent of anything the simulation does with it.
pub fn arrivals_for(cfg: &OpenLoopConfig, node: usize) -> Vec<Arrival> {
    assert!(cfg.keys > 0, "key space must be non-empty");
    assert!(cfg.clients > 0, "client population must be non-empty");
    let mut rng = Prng::seed_from_u64(
        cfg.seed ^ (node as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x006F_616D_6F70_656E,
    );
    // Zipf CDF over the key space, hottest key first.
    let mut cdf = Vec::with_capacity(cfg.keys as usize);
    let mut total = 0.0f64;
    for k in 0..cfg.keys {
        total += 1.0 / f64::from(k + 1).powf(cfg.zipf_s);
        cdf.push(total);
    }
    let mean_ns = cfg.mean_gap.as_nanos().max(1) as f64;
    let mut out = Vec::with_capacity(cfg.arrivals as usize);
    let mut t = Dur::ZERO;
    let mut burst_left = 0u32;
    for _ in 0..cfg.arrivals {
        if burst_left > 0 {
            burst_left -= 1; // back-to-back: no gap inside a burst
        } else {
            // Exponential inter-arrival gap (inverse-CDF on a uniform
            // draw; `1 - u` keeps the argument of `ln` away from zero).
            let u = rng.gen_f64();
            let gap = (-(1.0 - u).ln() * mean_ns).min(1e15) as u64;
            t += Dur::from_nanos(gap);
            if rng.gen_bool(cfg.burst_prob) {
                burst_left = cfg.burst_len.saturating_sub(1);
            }
        }
        let z = rng.gen_f64() * total;
        let key = cdf.partition_point(|&c| c < z).min(cfg.keys as usize - 1) as u32;
        let class = if rng.gen_below(100) < u64::from(cfg.heavy_pct) {
            CallClass::Heavy
        } else {
            CallClass::Cheap
        };
        out.push(Arrival { at: t, client: rng.gen_below(cfg.clients), key, class });
    }
    out
}

/// Sleep virtual time until `at` (no-op if already past), keeping the node
/// responsive: the waiter spin-polls so incoming replies and requests keep
/// being served while the driver paces itself ([`Node::spin_until`]).
pub async fn pace_until(node: &Node, at: Time) {
    node.spin_until(at).await;
}

/// Counts calls a driver has issued but not yet resolved, so the node main
/// can quiesce (wait for every spawned call task to finish) before
/// exiting. Open-loop drivers spawn each call into its own task; without
/// this the run would end with calls still in flight.
#[derive(Clone)]
pub struct OpenLoopTracker {
    outstanding: Rc<Cell<u64>>,
    flag: Flag,
}

impl Default for OpenLoopTracker {
    fn default() -> Self {
        Self::new()
    }
}

impl OpenLoopTracker {
    /// A tracker with nothing in flight.
    pub fn new() -> Self {
        OpenLoopTracker { outstanding: Rc::new(Cell::new(0)), flag: Flag::new() }
    }

    /// Record a call leaving the driver.
    pub fn begin(&self) {
        self.outstanding.set(self.outstanding.get() + 1);
    }

    /// Record a call resolving (reply, abandonment — anything that ends
    /// its task).
    pub fn finish(&self) {
        let n = self.outstanding.get();
        debug_assert!(n > 0, "finish without begin");
        self.outstanding.set(n - 1);
        if n == 1 {
            self.flag.set();
        }
    }

    /// Calls currently in flight.
    pub fn in_flight(&self) -> u64 {
        self.outstanding.get()
    }

    /// Wait until every begun call has finished.
    pub async fn drained(&self, node: &Node) {
        while self.outstanding.get() > 0 {
            self.flag.clear();
            if self.outstanding.get() == 0 {
                break;
            }
            node.spin_on(self.flag.clone()).await;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> OpenLoopConfig {
        OpenLoopConfig { arrivals: 2000, ..OpenLoopConfig::default() }
    }

    #[test]
    fn schedules_are_deterministic_and_monotone() {
        let a = arrivals_for(&cfg(), 3);
        let b = arrivals_for(&cfg(), 3);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0].at <= w[1].at), "arrival times are sorted");
        assert_ne!(a, arrivals_for(&cfg(), 4), "each node gets its own stream");
    }

    #[test]
    fn zipf_skews_toward_low_keys() {
        let arr = arrivals_for(&cfg(), 0);
        let hot = arr.iter().filter(|a| a.key == 0).count();
        let cold = arr.iter().filter(|a| a.key == cfg().keys - 1).count();
        assert!(hot > 8 * cold.max(1), "key 0 ({hot}) should dwarf the coldest key ({cold})");
    }

    #[test]
    fn bursts_produce_back_to_back_arrivals() {
        let arr = arrivals_for(&cfg(), 1);
        let zero_gaps = arr.windows(2).filter(|w| w[0].at == w[1].at).count();
        assert!(zero_gaps > 0, "bursts should yield identical timestamps");
    }

    #[test]
    fn heavy_fraction_is_roughly_respected() {
        let arr = arrivals_for(&cfg(), 2);
        let heavy = arr.iter().filter(|a| a.class == CallClass::Heavy).count();
        let pct = heavy * 100 / arr.len();
        assert!((5..=15).contains(&pct), "heavy fraction {pct}% should be near 10%");
    }

    #[test]
    fn load_multiplier_scales_the_mean_gap() {
        let base = cfg();
        let double = base.clone().at_load_x100(200);
        assert_eq!(double.mean_gap.as_nanos(), base.mean_gap.as_nanos() / 2);
        let half = base.clone().at_load_x100(50);
        assert_eq!(half.mean_gap.as_nanos(), base.mean_gap.as_nanos() * 2);
        // Double rate → the same arrival count lands in about half the time.
        let t_base = arrivals_for(&base, 0).last().unwrap().at;
        let t_double = arrivals_for(&double, 0).last().unwrap().at;
        assert!(t_double.as_nanos() < t_base.as_nanos() * 6 / 10);
    }
}
