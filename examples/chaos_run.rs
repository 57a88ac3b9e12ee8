//! Fault injection demo: run TSP and Triangle on a perfect fabric, then on
//! one that drops, duplicates, and delays packets — with retransmission and
//! duplicate suppression turned on. The answers must not change; only the
//! completion time and the recovery counters do.
//!
//! ```sh
//! cargo run --release --example chaos_run
//! ```

use std::time::{Duration, Instant};

use optimistic_active_messages::apps::tsp::TspParams;
use optimistic_active_messages::apps::{triangle, tsp, AppOutcome, System};
use optimistic_active_messages::model::{Dur, FaultPlan, MachineConfig};
use optimistic_active_messages::sim::{alloc_snapshot, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Run a workload while timing it on the host clock, so each row can report
/// simulator throughput (events/sec) next to the virtual completion time.
fn timed(run: impl FnOnce() -> AppOutcome) -> (AppOutcome, Duration) {
    let t0 = Instant::now();
    let out = run();
    (out, t0.elapsed())
}

/// `MachineConfig::cm5(nodes)` under the `OAM_*` overrides of the
/// environment (`OAM_SHARDS=4` reruns the example on four shards).
fn cm5(nodes: usize) -> MachineConfig {
    MachineConfig::cm5(nodes).apply_env().expect("OAM_* overrides")
}

fn faulted(nodes: usize, p: f64) -> MachineConfig {
    let plan = FaultPlan::drop_only(p).with_dup(p).with_delay(p, Dur::from_micros(20));
    cm5(nodes).with_fault_plan(plan).with_retransmission()
}

fn row(label: &str, out: &AppOutcome, wall: Duration) {
    let t = out.stats.total();
    println!(
        "{label:<24} {:>10.1} us | answer {:>14} | dropped {:>4} | dup'd {:>3} | delayed {:>3} | retransmits {:>4} | suppressed {:>4} | {:>9.0} ev/s",
        out.elapsed.as_micros_f64(),
        out.answer,
        t.packets_dropped,
        t.packets_duplicated,
        t.packets_delayed,
        t.retransmits,
        t.dups_suppressed,
        out.events as f64 / wall.as_secs_f64().max(1e-9),
    );
}

fn main() {
    let alloc_start = alloc_snapshot();
    let params = TspParams::default(); // the paper's 12-city instance
    println!("TSP, 12 cities, 5 nodes, ORPC:");
    let (base, wall) = timed(|| tsp::run_configured(System::Orpc, cm5(5), params));
    row("  perfect fabric", &base, wall);
    for p in [0.01, 0.05] {
        let (out, wall) = timed(|| tsp::run_configured(System::Orpc, faulted(5, p), params));
        assert_eq!(out.answer, base.answer, "faults must not change the answer");
        row(&format!("  {:.0}% drop+dup+delay", p * 100.0), &out, wall);
    }

    println!("\nTriangle, size 5, 4 nodes, ORPC:");
    let (base, wall) = timed(|| triangle::run_configured(System::Orpc, cm5(4), 5, 1));
    row("  perfect fabric", &base, wall);
    for p in [0.01, 0.05] {
        let (out, wall) = timed(|| triangle::run_configured(System::Orpc, faulted(4, p), 5, 1));
        assert_eq!(out.answer, base.answer, "faults must not change the answer");
        row(&format!("  {:.0}% drop+dup+delay", p * 100.0), &out, wall);
    }

    let alloc = alloc_snapshot().since(alloc_start);
    println!("\n[perf] all runs: {} heap allocs / {} bytes", alloc.allocs, alloc.bytes);

    println!(
        "\nEvery run computed the fault-free answer; losses were recovered by\n\
         per-call retransmission, and the duplicates that recovery (and the\n\
         fabric itself) created were absorbed by the servers' at-most-once\n\
         suppression tables."
    );
}
