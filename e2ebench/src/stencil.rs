//! `stencil_sharded`: the SOR application (ORPC variant) on 256 simulated
//! nodes split over two shards of the epoch engine. Bulk boundary
//! transfers, barriers, reductions, a deep calendar queue, and the epoch
//! exchange do the work; the inline/abort path does little.
//!
//! `run_configured` keeps its layer calls inside, so this workload's layer
//! numbers are counters only, and its set-up time is the time of a
//! zero-iteration run of the same configuration.

use std::time::Instant;

use oam_apps::sor::{reference_checksum, run_configured, SorParams};
use oam_apps::{AppOutcome, System};
use oam_model::{Backend, MachineConfig};
use oam_sim::{alloc_snapshot, AllocSnapshot};

use crate::layers::{self, LayerInputs};
use crate::{run_rounds, secs, Metric, Outcome, RunParams, Size, Timing, Verdict};

/// Host threads (one per shard).
const SHARDS: usize = 2;

/// Barrier spin budget of the epoch workers. Pinned to zero: with the
/// default (spin when the host has a core per shard) this workload's host
/// time is bimodal on a two-core host shared with other work (see the
/// README), and a benchmark must be steady.
const SPIN: u32 = 0;

/// `(nodes, params)` for a size.
fn shape(size: Size) -> (usize, SorParams) {
    match size {
        Size::Full => (256, SorParams { rows: 512, cols: 64, iters: 400 }),
        Size::Tiny => (16, SorParams { rows: 32, cols: 16, iters: 3 }),
    }
}

/// The workload's machine.
pub fn config(seed: u64, nodes: usize) -> MachineConfig {
    MachineConfig::cm5(nodes)
        .with_seed(seed)
        .with_shards(SHARDS)
        .with_backend(Backend::Sim)
        .with_tuning(crate::pinned_tuning(SHARDS, SPIN))
}

/// One round: a zero-iteration run (set-up) and the measured run.
pub struct Round {
    /// Host seconds of the zero-iteration run.
    pub setup_s: f64,
    /// Host seconds of the measured run.
    pub host_s: f64,
    /// Allocations of the measured run.
    pub allocs: AllocSnapshot,
    /// Node-iterations of the measured run.
    pub node_iters: u64,
    /// The grid code's checksum for the same grid and iterations.
    pub reference: u64,
    /// The measured run's outcome.
    pub out: AppOutcome,
}

/// The grid code's checksum for a size: the answer every round must give.
pub fn reference(size: Size) -> u64 {
    let (_, p) = shape(size);
    reference_checksum(p.rows, p.cols, p.iters)
}

/// Run one round; `reference` is [`reference`] of the same size.
pub fn round(seed: u64, size: Size, reference: u64) -> Round {
    let (nodes, params) = shape(size);
    let t0 = Instant::now();
    let zero = run_configured(System::Orpc, config(seed, nodes), SorParams { iters: 0, ..params });
    let t1 = Instant::now();
    std::hint::black_box(zero.answer);
    let a0 = alloc_snapshot();
    let out = run_configured(System::Orpc, config(seed, nodes), params);
    let t2 = Instant::now();
    Round {
        setup_s: secs(t0, t1),
        host_s: secs(t1, t2),
        allocs: alloc_snapshot().since(a0),
        node_iters: (nodes * params.iters) as u64,
        reference,
        out,
    }
}

impl crate::Round for Round {
    fn timing(&self) -> Timing {
        Timing {
            setup_s: self.setup_s,
            host_s: self.host_s,
            ops: self.node_iters as f64,
            allocs: self.allocs,
            ..Timing::default()
        }
    }

    fn verdict(&self) -> Verdict {
        let ok = self.out.answer == self.reference;
        Verdict {
            attempted: self.node_iters,
            failed: if ok { 0 } else { self.node_iters },
            problem: (!ok).then(|| {
                format!("grid checksum {:#x} != reference {:#x}", self.out.answer, self.reference)
            }),
        }
    }

    fn same(&self, o: &Self) -> bool {
        let (a, b) = (&self.out, &o.out);
        let engine = |e: &oam_model::EngineCounters| {
            [e.epochs, e.empty_epochs, e.fence_skips, e.deposits, e.batches]
        };
        (a.elapsed, a.answer, a.events, a.peak_queue_depth)
            == (b.elapsed, b.answer, b.events, b.peak_queue_depth)
            && a.stats == b.stats
            && engine(&a.stats.engine) == engine(&b.stats.engine)
    }
}

/// Run the workload.
pub fn run(p: &RunParams) -> Outcome {
    let (nodes, params) = shape(p.size);
    let mut out = Outcome::default();
    let expected = reference(p.size);
    let rounds = run_rounds(p, &mut out, |_| round(p.seed, p.size, expected));
    let first = &rounds.first.out;
    out.report = rounds.host_metrics().into();
    out.report.extend([
        Metric::one("virtual_ms", "vms", first.elapsed.as_nanos() as f64 / 1e6),
        Metric::one("failed_frac", "ratio", crate::ratio(out.failed as f64, out.attempted as f64)),
        Metric::one("peak_rss_mb", "MiB", rounds.first_peak_rss_mb),
    ]);
    out.notes.push(format!(
        "config: sim backend, sor::run_configured(Orpc, cm5({nodes}), {}x{}, {} iters), {SHARDS} shards, spin {SPIN}, {} rounds; op = node-iteration",
        params.rows, params.cols, params.iters, rounds.timings.len()
    ));
    if p.trace {
        let row = (0u32, 0u32, vec![0.0f64; params.cols]);
        let probes = crate::probes::run(&row, &(), 32, first.peak_queue_depth, 100_000);
        out.layers = layers::compute(&LayerInputs {
            ops: rounds.first.node_iters,
            stats: &first.stats,
            events: first.events,
            peak_queue_depth: first.peak_queue_depth,
            host_s: rounds.median(|t| t.host_s),
            makespan_ns: first.elapsed.as_nanos(),
            native: false,
            iters: params.iters as u64,
            spans: &[],
            path_reqs: 0,
            build_s: 0.0,
            register_s: 0.0,
            gen_late_p99_us: 0.0,
            allocs: rounds.allocs(),
            overhead_frac: rounds.overhead_frac(),
            probes,
        });
    }
    out
}
