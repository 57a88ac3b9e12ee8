//! CI matrix leg: application correctness and bit-determinism under a
//! dispatch mode selected by the `OAM_MODE` environment variable —
//! `orpc` (default), `trpc`, or `adaptive` (ORPC registration with an
//! adaptive demotion policy installed on each application's hot method).
//!
//! The same binary runs in every leg; only the environment changes, so
//! the matrix exercises the single `CallEngine` dispatch path under all
//! three policies without recompiling.

use optimistic_active_messages::apps::sor::SorParams;
use optimistic_active_messages::apps::tsp::TspParams;
use optimistic_active_messages::apps::water::{WaterParams, WaterVariant};
use optimistic_active_messages::apps::{sor, triangle, tsp, water, System};
use optimistic_active_messages::prelude::*;
use optimistic_active_messages::rpc::handler_id_for;

#[derive(PartialEq, Clone, Copy)]
enum MatrixMode {
    Orpc,
    Trpc,
    Adaptive,
}

fn matrix_mode() -> MatrixMode {
    match std::env::var("OAM_MODE").as_deref() {
        Ok("trpc") => MatrixMode::Trpc,
        Ok("adaptive") => MatrixMode::Adaptive,
        Ok("orpc") | Err(_) => MatrixMode::Orpc,
        Ok(other) => panic!("unknown OAM_MODE {other:?} (expected orpc|trpc|adaptive)"),
    }
}

fn system() -> System {
    match matrix_mode() {
        MatrixMode::Trpc => System::Trpc,
        _ => System::Orpc,
    }
}

/// The leg's machine configuration, under its `OAM_*` overrides: in the
/// adaptive leg, each listed hot method gets a default adaptive ORPC
/// policy.
fn cfg(nodes: usize, hot_methods: &[&str]) -> MachineConfig {
    let mut c = MachineConfig::cm5(nodes).apply_env().expect("OAM_* overrides");
    if matrix_mode() == MatrixMode::Adaptive {
        for m in hot_methods {
            c = c.with_policy(handler_id_for(m).0, ExecPolicy::adaptive(AdaptivePolicy::default()));
        }
    }
    c
}

#[test]
fn triangle_is_correct_under_matrix_mode() {
    let (sol, pos, _) = triangle::sequential(4);
    let out = triangle::run_configured(system(), cfg(3, &["Triangle::insert"]), 4, 1);
    assert_eq!(out.answer, (sol << 40) | pos);
}

#[test]
fn tsp_is_correct_under_matrix_mode() {
    let p = TspParams { ncities: 9, prefix_len: 3, ..Default::default() };
    let (best, _, _) = tsp::sequential(p);
    let out = tsp::run_configured(system(), cfg(4, &["Tsp::get_job"]), p);
    assert_eq!(out.answer, best as u64);
}

#[test]
fn sor_is_correct_under_matrix_mode() {
    let p = SorParams { rows: 16, cols: 8, iters: 3 };
    let (ck, _) = sor::sequential(p);
    let out = sor::run_configured(system(), cfg(4, &["Sor::store_boundary"]), p);
    assert_eq!(out.answer, ck);
}

#[test]
fn water_is_correct_under_matrix_mode() {
    let p = WaterParams { molecules: 12, iters: 2 };
    let variant = WaterVariant { system: system(), barrier: true };
    let hot = &["Water::store_positions", "Water::store_updates"];
    let a = water::run_configured(variant, cfg(4, hot), p).outcome.answer;
    let b = water::run_configured(variant, cfg(4, hot), p).outcome.answer;
    assert_eq!(a, b, "water must be deterministic within a mode");
}

#[test]
fn runs_are_bit_deterministic_under_matrix_mode() {
    let p = TspParams { ncities: 9, prefix_len: 3, ..Default::default() };
    let run_once = || {
        let out = tsp::run_configured(system(), cfg(4, &["Tsp::get_job"]), p);
        (out.elapsed, out.events, out.answer)
    };
    assert_eq!(run_once(), run_once());
}
