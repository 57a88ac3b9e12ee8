//! End-to-end and per-layer benchmark of the OAM runtime.
//!
//! Four workloads, each driving a different slice of the stack through
//! the runtime's public API (see `README.md` in this directory for why
//! each was chosen and which layer metric should move which end-to-end
//! metric):
//!
//! * [`pingpong`] — closed-loop null ORPC calls on the simulator;
//! * [`kv`] — an open-loop key-value service with admission control;
//! * [`stencil`] — the SOR application on the two-shard epoch engine;
//! * [`native`] — null calls over the native host-threads backend.
//!
//! Every workload repeats fixed-size *rounds* for the requested number of
//! seconds and reports host timings as medians over rounds. Virtual-clock
//! figures are deterministic for a seed, so every round of a run must
//! reproduce them exactly; the run fails its output check otherwise.

pub mod host;
pub mod kv;
pub mod layers;
pub mod native;
pub mod pingpong;
pub mod probes;
pub mod stats;
pub mod stencil;
pub mod svc;
pub mod trace;

use std::time::{Duration, Instant};

use oam_model::ShardTuning;
use oam_sim::AllocSnapshot;

use crate::stats::Summary;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["rpc_pingpong", "kv_openloop", "stencil_sharded", "native_rpc"];

/// A seed kept out of tuning: a claimed gain must also hold with it.
pub const HELD_OUT_SEED: u64 = 7919;

/// Input size: the measured configuration, or a tiny one for tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The configuration `BENCHMARK.json` describes.
    Full,
    /// A few calls per round, for smoke and determinism tests.
    Tiny,
}

/// What one invocation runs.
#[derive(Debug, Clone, Copy)]
pub struct RunParams {
    /// Seed for every generated input.
    pub seed: u64,
    /// Measuring window: rounds repeat until it has elapsed.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Input size.
    pub size: Size,
}

impl RunParams {
    /// Fewest rounds a run makes, however short its window: enough for a
    /// median, and in a traced run for a median on each side.
    fn min_rounds(&self) -> usize {
        match (self.size, self.trace) {
            (Size::Tiny, false) => 1,
            (Size::Tiny, true) => 2,
            (Size::Full, false) => 5,
            (Size::Full, true) => 6,
        }
    }
}

/// One reported figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// `layer.metric` or end-to-end name.
    pub name: String,
    /// Unit: `s`, `ms`, `us`, `ns` for host time; `vms`, `vus` for
    /// simulated time; `1/s`, `count`, `ratio`, `B`, `MiB` otherwise.
    pub unit: &'static str,
    /// The value (a median for timings).
    pub value: f64,
    /// Samples behind the value.
    pub n: u64,
    /// The highest supported tail percentile, for timings.
    pub tail: Option<(&'static str, f64)>,
}

impl Metric {
    /// A single value.
    pub fn one(name: &str, unit: &'static str, value: f64) -> Metric {
        Metric { name: name.to_string(), unit, value, n: 1, tail: None }
    }

    /// A median with its tail and sample count.
    pub fn summary(name: &str, unit: &'static str, s: &Summary) -> Metric {
        Metric { name: name.to_string(), unit, value: s.median, n: s.n, tail: s.tail }
    }

    /// The nearest-rank quantile `q` of `samples`, with the sample count.
    pub fn quantile(name: &str, unit: &'static str, samples: &[f64], q: f64) -> Metric {
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        Metric { n: s.len() as u64, ..Metric::one(name, unit, crate::stats::quantile(&s, q)) }
    }
}

/// Result of running one workload.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted across all rounds.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Output checks that did not hold (empty means correct).
    pub check_failures: Vec<String>,
    /// Every end-to-end metric of the workload, for the report.
    pub report: Vec<Metric>,
    /// Per-layer metrics (traced run only).
    pub layers: Vec<Metric>,
    /// Spans of the last traced round (traced run only).
    pub spans: Vec<trace::Span>,
    /// Workload-specific lines for the report (configuration, notes).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Record an output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.check_failures.push(what());
        }
    }

    /// The value of a reported metric.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.report.iter().chain(&self.layers).find(|m| m.name == name).map(|m| m.value)
    }
}

/// Host-side figures of one round.
#[derive(Debug, Clone, Copy, Default)]
pub struct Timing {
    /// Whether spans were recorded.
    pub traced: bool,
    /// Config to first message, seconds.
    pub setup_s: f64,
    /// Machine build, seconds (0 where not separable).
    pub build_s: f64,
    /// Handler registration, seconds (0 where not separable).
    pub register_s: f64,
    /// The measured window, seconds.
    pub host_s: f64,
    /// Operations completed in the measured window.
    pub ops: f64,
    /// Allocations in the measured window.
    pub allocs: AllocSnapshot,
    /// Mean nanoseconds of the calibration slices just before and after.
    pub calib_ns: f64,
}

/// What a round's output checks found.
#[derive(Debug, Clone, Default)]
pub struct Verdict {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// A failed output check, if any.
    pub problem: Option<String>,
}

/// One round of a workload.
pub trait Round {
    /// Its host-side figures.
    fn timing(&self) -> Timing;
    /// Its output checks.
    fn verdict(&self) -> Verdict;
    /// Whether every virtual-clock and counter figure equals `other`'s:
    /// rounds of one seed must agree exactly.
    fn same(&self, other: &Self) -> bool;
}

/// The rounds of one run. Only the first round and the last traced round
/// are kept whole; the rest are checked and reduced to their [`Timing`]
/// as they finish, so a run's memory does not grow with its length.
pub struct Rounds<R> {
    /// The first round (virtual and counter figures come from it).
    pub first: R,
    /// The last traced round (spans come from it).
    pub last_traced: Option<R>,
    /// Every round's host figures, in execution order.
    pub timings: Vec<Timing>,
    /// Peak resident memory right after the first round, MiB: the
    /// workload's footprint, independent of how many rounds the host
    /// managed in the window.
    pub first_peak_rss_mb: f64,
}

impl<R> Rounds<R> {
    /// Summary of `f` over the untraced (or traced) rounds.
    pub fn summary(&self, traced: bool, f: impl Fn(&Timing) -> f64) -> Summary {
        Summary::of(&self.timings.iter().filter(|t| t.traced == traced).map(f).collect::<Vec<_>>())
    }

    /// The median of `f` over the untraced rounds.
    pub fn median(&self, f: impl Fn(&Timing) -> f64) -> f64 {
        self.summary(false, f).median
    }

    /// The last untraced round's allocations.
    pub fn allocs(&self) -> AllocSnapshot {
        self.timings.iter().rev().find(|t| !t.traced).map(|t| t.allocs).unwrap_or_default()
    }

    /// Median traced over median untraced measured window, minus one.
    pub fn overhead_frac(&self) -> f64 {
        self.summary(true, |t| t.host_s).median / self.median(|t| t.host_s) - 1.0
    }

    /// The end-to-end metrics every workload shares: set-up time and
    /// operations per host second, each raw and scaled to the reference
    /// host by the round's calibration slice (`setup_s`, `cal_ops_per_s`).
    /// Scaling cancels the host's speed at the moment of the round, which
    /// on a shared host drifts by more than the figures' own spread.
    pub fn host_metrics(&self) -> [Metric; 4] {
        let scale = |t: &Timing| t.calib_ns / host::REFERENCE_SLICE_NS;
        [
            Metric::summary("setup_s", "s", &self.summary(false, |t| t.setup_s / scale(t))),
            Metric::summary("host_setup_s", "s", &self.summary(false, |t| t.setup_s)),
            Metric::summary(
                "cal_ops_per_s",
                "1/s",
                &self.summary(false, |t| t.ops / t.host_s * scale(t)),
            ),
            Metric::summary("host_ops_per_s", "1/s", &self.summary(false, |t| t.ops / t.host_s)),
        ]
    }
}

/// Run rounds until the window has elapsed and at least
/// [`RunParams::min_rounds`] are done, checking each against the first.
/// A traced run alternates untraced and traced rounds (starting
/// untraced), so both sides see the same host conditions and their ratio
/// is the tracing overhead. A calibration slice runs before the first
/// round and after every round; each round is scaled by the mean of the
/// two slices around it, the host's speed at that moment.
pub fn run_rounds<R: Round>(
    p: &RunParams,
    out: &mut Outcome,
    mut round: impl FnMut(bool) -> R,
) -> Rounds<R> {
    let deadline = Instant::now() + Duration::from_secs_f64(p.seconds.max(0.0));
    let mut first: Option<R> = None;
    let mut last_traced = None;
    let mut timings = Vec::new();
    let mut first_peak_rss_mb = 0.0;
    let mut diverged = 0;
    let mut calib_before = host::calibration_slice();
    while timings.len() < p.min_rounds() || Instant::now() < deadline {
        let traced = p.trace && timings.len() % 2 == 1;
        let r = round(traced);
        let calib_after = host::calibration_slice();
        let v = r.verdict();
        out.attempted += v.attempted;
        out.failed += v.failed;
        out.check_failures.extend(v.problem);
        let calib_ns = (calib_before + calib_after) / 2.0;
        calib_before = calib_after;
        timings.push(Timing { traced, calib_ns, ..r.timing() });
        match &first {
            None => {
                first_peak_rss_mb = host::peak_rss_mb().unwrap_or(0.0);
                first = Some(r);
            }
            Some(f) => {
                if !r.same(f) {
                    diverged += 1;
                }
                if traced {
                    last_traced = Some(r);
                }
            }
        }
    }
    out.check(diverged == 0, || {
        format!("{diverged} rounds' virtual figures differ from the first round of the same seed")
    });
    Rounds { first: first.expect("at least one round"), last_traced, timings, first_peak_rss_mb }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Host-engine tuning pinned in every workload's config, so that no
/// `OAM_*` default can change what a run measures.
pub fn pinned_tuning(workers: usize, spin: u32) -> ShardTuning {
    ShardTuning {
        naive_fence: Some(false),
        spin: Some(spin),
        pin: Some(false),
        force_epoch: Some(false),
        batch: Some(oam_model::MachineConfig::DEFAULT_BATCH),
        workers: Some(workers),
    }
}

/// Run the named workload.
pub fn run_workload(name: &str, p: &RunParams) -> Option<Outcome> {
    Some(match name {
        "rpc_pingpong" => pingpong::run(p),
        "kv_openloop" => kv::run(p),
        "stencil_sharded" => stencil::run(p),
        "native_rpc" => native::run(p),
        _ => return None,
    })
}

/// Seconds between two instants.
pub fn secs(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64()
}
