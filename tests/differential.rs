//! Differential correctness for the unified call engine: every
//! application must compute the **bit-identical** answer whether its
//! remote procedures run optimistically (ORPC) or with a thread per call
//! (TRPC), under every abort-resolution strategy, across machine seeds.
//! Dispatch policy schedules work; it must never change results.

use optimistic_active_messages::apps::sor::SorParams;
use optimistic_active_messages::apps::tsp::TspParams;
use optimistic_active_messages::apps::water::{WaterParams, WaterVariant};
use optimistic_active_messages::apps::{sor, triangle, tsp, water, System};
use optimistic_active_messages::prelude::*;

/// Shard counts exercised by the fence-policy differential: an explicit shard
/// count may not exceed the node count, so these tests run 8-node machines
/// for the 8-shard leg.
const FENCE_SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

const SEEDS: [u64; 3] = [1, 0xBEEF, 0x5EED_5EED];
const MODES: [System; 2] = [System::Orpc, System::Trpc];
const STRATEGIES: [AbortStrategy; 3] =
    [AbortStrategy::Promote, AbortStrategy::Rerun, AbortStrategy::Nack];

/// `cm5(nodes)` under the CI leg's `OAM_*` overrides, then `seed` and
/// `strategy`.
fn cfg(nodes: usize, seed: u64, strategy: AbortStrategy) -> MachineConfig {
    let cm5 = MachineConfig::cm5(nodes).apply_env().expect("OAM_* overrides");
    cm5.with_seed(seed).with_abort_strategy(strategy)
}

#[test]
fn triangle_answers_are_mode_and_strategy_invariant() {
    let (sol, pos, _) = triangle::sequential(4);
    let expect = (sol << 40) | pos;
    for seed in SEEDS {
        for mode in MODES {
            for strategy in STRATEGIES {
                let out = triangle::run_configured(mode, cfg(3, seed, strategy), 4, 1);
                assert_eq!(
                    out.answer,
                    expect,
                    "triangle {} {strategy:?} seed={seed:#x}",
                    mode.label()
                );
            }
        }
    }
}

#[test]
fn tsp_answers_are_mode_and_strategy_invariant() {
    let p = TspParams { ncities: 9, prefix_len: 3, ..Default::default() };
    let (best, _, _) = tsp::sequential(p);
    for seed in SEEDS {
        for mode in MODES {
            for strategy in STRATEGIES {
                let out = tsp::run_configured(mode, cfg(4, seed, strategy), p);
                assert_eq!(
                    out.answer,
                    best as u64,
                    "tsp {} {strategy:?} seed={seed:#x}",
                    mode.label()
                );
            }
        }
    }
}

#[test]
fn sor_answers_are_mode_and_strategy_invariant() {
    let p = SorParams { rows: 16, cols: 8, iters: 3 };
    let (ck, _) = sor::sequential(p);
    for seed in SEEDS {
        for mode in MODES {
            for strategy in STRATEGIES {
                let out = sor::run_configured(mode, cfg(4, seed, strategy), p);
                assert_eq!(out.answer, ck, "sor {} {strategy:?} seed={seed:#x}", mode.label());
            }
        }
    }
}

#[test]
fn water_answers_are_mode_and_strategy_invariant() {
    let p = WaterParams { molecules: 12, iters: 2 };
    let mut reference = None;
    for seed in SEEDS {
        for mode in MODES {
            for strategy in STRATEGIES {
                let variant = WaterVariant { system: mode, barrier: true };
                let out = water::run_configured(variant, cfg(4, seed, strategy), p);
                let expect = *reference.get_or_insert(out.outcome.answer);
                assert_eq!(
                    out.outcome.answer,
                    expect,
                    "water {} {strategy:?} seed={seed:#x}",
                    mode.label()
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// Shard-count invariance: partitioning the simulator across host worker
// threads is a performance knob, never a semantics knob. Every app must
// produce the identical answer, identical virtual end time, and
// identical per-node statistics for any shard count.
// ---------------------------------------------------------------------

const SHARD_SEEDS: [u64; 2] = [1, 0xBEEF];
const SHARD_COUNTS: [usize; 3] = [1, 2, 4];

fn shard_cfg(nodes: usize, seed: u64, shards: usize) -> MachineConfig {
    cfg(nodes, seed, AbortStrategy::Promote).with_shards(shards)
}

/// Assert two outcomes are observably identical: answer, virtual end
/// time, and the full per-node statistics vector.
fn assert_outcomes_match(
    a: &optimistic_active_messages::apps::AppOutcome,
    b: &optimistic_active_messages::apps::AppOutcome,
    what: &str,
) {
    assert_eq!(a.answer, b.answer, "{what}: answer");
    assert_eq!(a.elapsed, b.elapsed, "{what}: virtual end time");
    assert_eq!(a.stats, b.stats, "{what}: per-node stats");
}

#[test]
fn triangle_is_shard_count_invariant() {
    for seed in SHARD_SEEDS {
        for mode in MODES {
            let reference = triangle::run_configured(mode, shard_cfg(4, seed, 1), 4, 1);
            for shards in SHARD_COUNTS {
                let out = triangle::run_configured(mode, shard_cfg(4, seed, shards), 4, 1);
                assert_outcomes_match(
                    &reference,
                    &out,
                    &format!("triangle {} seed={seed:#x} shards={shards}", mode.label()),
                );
            }
        }
    }
}

#[test]
fn tsp_is_shard_count_invariant() {
    let p = TspParams { ncities: 9, prefix_len: 3, ..Default::default() };
    for seed in SHARD_SEEDS {
        for mode in MODES {
            let reference = tsp::run_configured(mode, shard_cfg(4, seed, 1), p);
            for shards in SHARD_COUNTS {
                let out = tsp::run_configured(mode, shard_cfg(4, seed, shards), p);
                assert_outcomes_match(
                    &reference,
                    &out,
                    &format!("tsp {} seed={seed:#x} shards={shards}", mode.label()),
                );
            }
        }
    }
}

#[test]
fn sor_is_shard_count_invariant() {
    let p = SorParams { rows: 16, cols: 8, iters: 3 };
    for seed in SHARD_SEEDS {
        for mode in [System::HandAm, System::Orpc, System::Trpc] {
            let reference = sor::run_configured(mode, shard_cfg(4, seed, 1), p);
            for shards in SHARD_COUNTS {
                let out = sor::run_configured(mode, shard_cfg(4, seed, shards), p);
                assert_outcomes_match(
                    &reference,
                    &out,
                    &format!("sor {} seed={seed:#x} shards={shards}", mode.label()),
                );
            }
        }
    }
    // The 64-node machine at the `paper` binary's `sor_64node*` rows' grid, where
    // each shard holds 16 or more nodes and every epoch exchanges bulk
    // boundary rows across shards.
    let p = SorParams { rows: 256, cols: 128, iters: 2 };
    let reference = sor::run_configured(System::Orpc, shard_cfg(64, 1, 1), p);
    for shards in [2, 4] {
        let out = sor::run_configured(System::Orpc, shard_cfg(64, 1, shards), p);
        assert_outcomes_match(&reference, &out, &format!("sor 64-node shards={shards}"));
    }
}

// ---------------------------------------------------------------------
// Fence-policy invariance: the adaptive fence (quiet-round barrier
// fusion + min-holder widening) must be observably identical to the
// naive reference fence — global min + lookahead with an unconditional
// exchange round, the textbook conservative-epoch schedule.
// ---------------------------------------------------------------------

fn fence_cfg(nodes: usize, seed: u64, shards: usize, naive: bool) -> MachineConfig {
    shard_cfg(nodes, seed, shards)
        .with_tuning(ShardTuning { naive_fence: Some(naive), ..Default::default() })
}

#[test]
fn adaptive_fence_matches_naive_reference_for_sor() {
    let p = SorParams { rows: 16, cols: 8, iters: 3 };
    for seed in SHARD_SEEDS {
        let reference = sor::run_configured(System::Orpc, fence_cfg(8, seed, 1, true), p);
        for shards in FENCE_SHARD_COUNTS {
            for naive in [false, true] {
                let out = sor::run_configured(System::Orpc, fence_cfg(8, seed, shards, naive), p);
                assert_outcomes_match(
                    &reference,
                    &out,
                    &format!("sor seed={seed:#x} shards={shards} naive={naive}"),
                );
            }
        }
    }
}

#[test]
fn adaptive_fence_matches_naive_reference_for_water_collectives() {
    // Water with barriers is the reduce-heavy workload: every iteration
    // broadcasts reduction contributions across all shards, so quiet-round
    // fusion and the widened fence both face cross traffic every epoch.
    let p = WaterParams { molecules: 12, iters: 2 };
    let variant = WaterVariant { system: System::Orpc, barrier: true };
    for seed in SHARD_SEEDS {
        let reference = water::run_configured(variant, fence_cfg(8, seed, 1, true), p);
        for shards in FENCE_SHARD_COUNTS {
            for naive in [false, true] {
                let out = water::run_configured(variant, fence_cfg(8, seed, shards, naive), p);
                assert_outcomes_match(
                    &reference.outcome,
                    &out.outcome,
                    &format!("water seed={seed:#x} shards={shards} naive={naive}"),
                );
            }
        }
    }
}

#[test]
fn sor_256node_is_shard_count_invariant() {
    // Four times the `paper` binary's `sor_64node` machine, on a debug-runtime grid:
    // 256 nodes is where the per-(src,dst) mailbox matrix and the owner
    // table get real fan-out. Answers, end time, and per-node stats must
    // not notice the shard count.
    let p = SorParams { rows: 256, cols: 16, iters: 2 };
    let reference = sor::run_configured(System::Orpc, shard_cfg(256, 1, 1), p);
    assert_eq!(reference.answer, sor::sequential(p).0, "sor 256-node answer");
    for shards in [2, 4, 8] {
        let out = sor::run_configured(System::Orpc, shard_cfg(256, 1, shards), p);
        assert_outcomes_match(&reference, &out, &format!("sor 256-node shards={shards}"));
    }
}

#[test]
fn water_is_shard_count_invariant() {
    let p = WaterParams { molecules: 12, iters: 2 };
    for seed in SHARD_SEEDS {
        for mode in MODES {
            for barrier in [true, false] {
                let variant = WaterVariant { system: mode, barrier };
                let reference = water::run_configured(variant, shard_cfg(4, seed, 1), p);
                for shards in SHARD_COUNTS {
                    let out = water::run_configured(variant, shard_cfg(4, seed, shards), p);
                    assert_outcomes_match(
                        &reference.outcome,
                        &out.outcome,
                        &format!("water {} seed={seed:#x} shards={shards}", variant.label()),
                    );
                    assert_eq!(
                        reference.after_first_iter,
                        out.after_first_iter,
                        "water {} seed={seed:#x} shards={shards}: first-iteration time",
                        variant.label()
                    );
                }
            }
        }
    }
    // 64 nodes and 128 molecules: every iteration's all-pairs position
    // fetches and force reductions cross shard boundaries.
    let p = WaterParams { molecules: 128, iters: 2 };
    let variant = WaterVariant { system: System::Orpc, barrier: true };
    let reference = water::run_configured(variant, shard_cfg(64, 1, 1), p);
    for shards in [2, 4] {
        let out = water::run_configured(variant, shard_cfg(64, 1, shards), p);
        assert_outcomes_match(
            &reference.outcome,
            &out.outcome,
            &format!("water 64-node shards={shards}"),
        );
    }
}

#[test]
fn alewife_fan_in_back_pressure_is_shard_count_invariant() {
    use optimistic_active_messages::machine::{run_partitioned, ShardApp};
    use std::cell::Cell;
    use std::rc::Rc;

    // Three senders flood node 0 on a shallow (8-credit) fabric while node
    // 0 computes in long bursts between polls: the credits run out, the
    // senders' output FIFOs fill, and sends block. Flow control must stall
    // identically whether the credit returns stay on one shard or cross
    // between shards.
    const HIT: HandlerId = HandlerId(0xFA11);
    let run = |shards: usize| {
        run_partitioned(MachineConfig::alewife_like(4).with_shards(shards), |m| {
            let hits = Rc::new(Cell::new(0u64));
            let h = Rc::clone(&hits);
            m.am().register_inline_all(HIT, move |_| h.set(h.get() + 1));
            ShardApp {
                main: Box::new(|env| {
                    Box::pin(async move {
                        if env.id().index() == 0 {
                            for _ in 0..40 {
                                env.charge_micros(200).await;
                                env.poll().await;
                            }
                        } else {
                            for i in 0..60u8 {
                                env.am().send(env.node(), NodeId(0), HIT, vec![i]).await;
                            }
                        }
                        env.barrier().await;
                    })
                }),
                finish: Box::new(move |_| hits.get()),
            }
        })
    };
    let (reference, hits) = run(1);
    assert_eq!(hits, 180, "every send is dispatched");
    assert!(
        reference.stats.total().send_backpressure_events > 0,
        "the shallow fabric must push back on the senders"
    );
    for shards in [2, 4] {
        let (report, h) = run(shards);
        assert_eq!(h, hits, "shards={shards}: dispatches");
        assert_eq!(report.end_time, reference.end_time, "shards={shards}: virtual end time");
        assert_eq!(report.stats, reference.stats, "shards={shards}: per-node stats");
        assert!(report.engine().epochs > 0, "shards={shards}: the epoch engine ran");
    }
}
