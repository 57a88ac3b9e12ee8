//! A guided tour of the paper's evaluation in miniature: runs scaled-down
//! versions of all four applications under all three systems and prints
//! the comparison the paper makes — ORPC delivers RPC's programming model
//! at nearly Active Messages' speed.
//!
//! ```sh
//! cargo run --release --example paper_tour
//! ```

use optimistic_active_messages::apps::sor::SorParams;
use optimistic_active_messages::apps::tsp::TspParams;
use optimistic_active_messages::apps::water::{WaterParams, WaterVariant};
use optimistic_active_messages::apps::{sor, triangle, tsp, water, System};
use optimistic_active_messages::model::MachineConfig;

fn main() {
    let procs = 16;
    // `OAM_SHARDS`, `OAM_BACKEND` and `OAM_BATCH` override the machine.
    let cfg = MachineConfig::cm5(procs).apply_env().expect("OAM_* overrides");
    println!("All four applications, {procs} nodes, scaled-down inputs.\n");
    println!("{:<10} {:>10} {:>10} {:>10}  note", "app", "AM (ms)", "ORPC (ms)", "TRPC (ms)");

    // Triangle: fine-grained, many small messages — ORPC/AM shine.
    let tri: Vec<f64> = System::ALL
        .iter()
        .map(|&s| triangle::run_configured(s, cfg.clone(), 5, 1).elapsed.as_secs_f64() * 1e3)
        .collect();
    println!(
        "{:<10} {:>10.2} {:>10.2} {:>10.2}  thread management dominates TRPC",
        "triangle", tri[0], tri[1], tri[2]
    );

    // TSP: blocking job queue.
    let p = TspParams { ncities: 10, prefix_len: 4, ..Default::default() };
    let tsp: Vec<f64> = System::ALL
        .iter()
        .map(|&s| tsp::run_configured(s, cfg.clone(), p).elapsed.as_secs_f64() * 1e3)
        .collect();
    println!(
        "{:<10} {:>10.2} {:>10.2} {:>10.2}  blocking get_job; aborts promote",
        "tsp", tsp[0], tsp[1], tsp[2]
    );

    // SOR: bulk transfers dominate — systems converge.
    let sp = SorParams { rows: 64, cols: 80, iters: 20 };
    let sor: Vec<f64> = System::ALL
        .iter()
        .map(|&s| sor::run_configured(s, cfg.clone(), sp).elapsed.as_secs_f64() * 1e3)
        .collect();
    println!(
        "{:<10} {:>10.2} {:>10.2} {:>10.2}  data transfer dominates; all close",
        "sor", sor[0], sor[1], sor[2]
    );

    // Water: coarse-grained; all five variants near-equal.
    let wp = WaterParams { molecules: 128, iters: 3 };
    let water: Vec<f64> = [
        WaterVariant { system: System::HandAm, barrier: true },
        WaterVariant { system: System::Orpc, barrier: false },
        WaterVariant { system: System::Trpc, barrier: false },
    ]
    .iter()
    .map(|&v| water::run_configured(v, cfg.clone(), wp).outcome.elapsed.as_secs_f64() * 1e3)
    .collect();
    println!(
        "{:<10} {:>10.2} {:>10.2} {:>10.2}  coarse-grained; all close",
        "water", water[0], water[1], water[2]
    );

    println!(
        "\nThe paper's summary holds: fine-grained, small-message apps run up\n\
         to ~3x faster with ORPC/AM than TRPC, while bulk-transfer and\n\
         coarse-grained apps perform equally well on all three systems."
    );
}
