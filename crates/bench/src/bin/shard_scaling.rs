//! Shard-scaling measurement: the 64-node SOR and Water workloads run at
//! 1, 2, and 4 shards, reporting host wall-clock, simulator events/sec,
//! and the speedup over the single-shard run.
//!
//! The virtual outcome (answer, end time, every per-node statistic) is
//! asserted identical across shard counts — sharding is a
//! host-side execution strategy, never a semantics change.
//!
//! Speedup requires host cores: on a single-core container the extra
//! shards serialize and the barrier overhead shows up as a slowdown
//! instead; the table prints the detected core count so readers can
//! interpret the numbers.
//!
//! ```sh
//! cargo run --release -p oam-bench --bin shard_scaling
//! cargo run --release -p oam-bench --bin shard_scaling -- --quick
//! ```

use std::time::Instant;

use oam_apps::water::{WaterParams, WaterVariant};
use oam_apps::{sor, water, AppOutcome, System};
use oam_model::MachineConfig;

const REPS: usize = 3;
const SHARDS: [usize; 3] = [1, 2, 4];

struct Row {
    shards: usize,
    wall: std::time::Duration,
    out: AppOutcome,
}

fn best_of(mut body: impl FnMut() -> AppOutcome) -> (std::time::Duration, AppOutcome) {
    let mut best: Option<(std::time::Duration, AppOutcome)> = None;
    for _ in 0..REPS {
        let t0 = Instant::now();
        let out = body();
        let wall = t0.elapsed();
        if best.as_ref().is_none_or(|(w, _)| wall < *w) {
            best = Some((wall, out));
        }
    }
    best.expect("REPS >= 1")
}

fn print_table(name: &str, rows: &[Row]) {
    let base = &rows[0];
    assert_eq!(base.shards, 1);
    println!("\n{name}");
    println!(
        "{:>7} {:>11} {:>12} {:>12} {:>9}  outcome",
        "shards", "wall ms", "events", "events/s", "speedup"
    );
    for r in rows {
        // Sharding must not change what was simulated.
        assert_eq!(r.out.answer, base.out.answer, "{name}: answer drift at {} shards", r.shards);
        assert_eq!(
            r.out.elapsed, base.out.elapsed,
            "{name}: virtual-time drift at {} shards",
            r.shards
        );
        assert_eq!(r.out.stats, base.out.stats, "{name}: stats drift at {} shards", r.shards);
        println!(
            "{:>7} {:>11.2} {:>12} {:>12.0} {:>8.2}x  identical",
            r.shards,
            r.wall.as_secs_f64() * 1e3,
            r.out.events,
            r.out.events as f64 / r.wall.as_secs_f64().max(1e-9),
            base.wall.as_secs_f64() / r.wall.as_secs_f64().max(1e-9),
        );
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    println!("host cores: {cores} (speedup > 1 requires cores >= shards)");

    let sor_iters = if quick { 2 } else { 8 };
    let water_iters = if quick { 2 } else { 4 };

    let sor_rows: Vec<Row> = SHARDS
        .iter()
        .map(|&shards| {
            let (wall, out) = best_of(|| {
                sor::run_configured(
                    System::Orpc,
                    MachineConfig::cm5(64).with_shards(shards),
                    oam_apps::sor::SorParams { rows: 256, cols: 128, iters: sor_iters },
                )
            });
            Row { shards, wall, out }
        })
        .collect();
    print_table("sor_64node (256x128 grid)", &sor_rows);

    let water_rows: Vec<Row> = SHARDS
        .iter()
        .map(|&shards| {
            let (wall, out) = best_of(|| {
                water::run_configured(
                    WaterVariant { system: System::Orpc, barrier: true },
                    MachineConfig::cm5(64).with_shards(shards),
                    WaterParams { molecules: 128, iters: water_iters },
                )
                .outcome
            });
            Row { shards, wall, out }
        })
        .collect();
    print_table("water_64node (128 molecules)", &water_rows);
}
