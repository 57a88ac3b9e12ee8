//! Golden determinism checks for the simulator core.
//!
//! A fixed-seed run must execute its events in exactly the recorded
//! `(time, key)` order and draw exactly the recorded faults: these
//! constants fingerprint the whole trace of two chaos scenarios. A change
//! to them means some change altered observable scheduling order, which is
//! a bug even if every answer still comes out right.
//!
//! Each scenario also pins its executed event count, and the sum of that
//! count and the settles taken in place (`RunReport::in_place`): the sum is
//! the event count from before settles could go in place, so it shows that
//! each in-place settle stands for exactly one event that no longer fires.
//!
//! If a *deliberate* semantic change to the runtime invalidates them,
//! re-record with `OAM_PRINT_GOLDEN=1 cargo test -q --test
//! determinism_golden -- --nocapture`.

use std::cell::Cell;
use std::rc::Rc;

use optimistic_active_messages::apps::tsp::{self, TspParams};
use optimistic_active_messages::apps::System;
use optimistic_active_messages::machine::MachineBuilder;
use optimistic_active_messages::model::{Dur, FaultPlan, MachineConfig, NodeId};
use optimistic_active_messages::rpc::define_rpc_service;
use optimistic_active_messages::trace::Recorder;

/// FNV-1a 64-bit over `bytes` — stable, dependency-free fingerprint.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The scenario under test: TSP (10 cities) over a 5% drop/dup/delay
/// fabric with retransmission — every subsystem (executor, fabric faults,
/// RNG, scheduler, RPC reliability) feeds the trace.
fn chaos_tsp() -> (Recorder, tsp::TspParams, optimistic_active_messages::apps::AppOutcome) {
    let p = 0.05;
    let cfg = MachineConfig::cm5(5)
        .with_fault_plan(FaultPlan::drop_only(p).with_dup(p).with_delay(p, Dur::from_micros(20)))
        .with_retransmission();
    let params = TspParams { ncities: 10, prefix_len: 4, ..Default::default() };
    let rec = Recorder::new();
    let rec2 = rec.clone();
    let out = tsp::run_hooked(System::Orpc, cfg, params, move |m| {
        for n in m.nodes() {
            rec2.attach(n);
        }
    });
    (rec, params, out)
}

/// Render the whole trace to bytes. `Debug` for trace events is plain data
/// (ids, integer nanoseconds, enum names) — no addresses, no floats — so
/// the rendering is stable for a fixed binary and seed.
fn trace_bytes(rec: &Recorder) -> Vec<u8> {
    let mut buf = String::new();
    for ev in rec.events() {
        buf.push_str(&format!("{ev:?}\n"));
    }
    buf.into_bytes()
}

const GOLDEN_TRACE_HASH: u64 = 0x14bf_6a18_7eda_b5ff;
const GOLDEN_ANSWER: u64 = 3187;
const GOLDEN_END_NS: u64 = 294_735_204;
const GOLDEN_EVENTS: u64 = 5592;
/// Events plus in-place settles: the event count with every settle fired.
const GOLDEN_ALL_SETTLES_EVENTS: u64 = 7581;

#[test]
fn fixed_seed_tsp_chaos_trace_is_byte_identical_to_the_pre_swap_golden() {
    let (rec, _params, out) = chaos_tsp();
    let bytes = trace_bytes(&rec);
    let hash = fnv1a(&bytes);
    if std::env::var("OAM_PRINT_GOLDEN").is_ok() {
        println!(
            "GOLDEN_TRACE_HASH = {hash:#018x}\nGOLDEN_ANSWER = {}\nGOLDEN_END_NS = {}\nGOLDEN_EVENTS = {}\nGOLDEN_ALL_SETTLES_EVENTS = {}\n({} trace events, {} bytes)",
            out.answer,
            out.elapsed.as_nanos(),
            out.events,
            out.events + out.in_place,
            rec.len(),
            bytes.len(),
        );
    }
    assert!(rec.len() > 1_000, "trace is non-trivial ({} events)", rec.len());
    assert_eq!(out.answer, GOLDEN_ANSWER, "TSP chaos answer drifted");
    assert_eq!(out.elapsed.as_nanos(), GOLDEN_END_NS, "virtual end time drifted");
    assert_eq!(out.events, GOLDEN_EVENTS, "executed event count drifted");
    assert_eq!(
        out.events + out.in_place,
        GOLDEN_ALL_SETTLES_EVENTS,
        "an in-place settle did not stand for exactly one event"
    );
    assert_eq!(
        hash, GOLDEN_TRACE_HASH,
        "trace bytes drifted (hash {hash:#018x}): the engine no longer preserves the \
         recorded (time, key) execution order"
    );
}

// ---------------------------------------------------------------------
// Bulk-transfer golden scenario
// ---------------------------------------------------------------------

/// State for the bulk-ingest service: a running checksum.
pub struct SinkState {
    /// Accumulated checksum of everything ingested.
    pub sum: Cell<u64>,
}

define_rpc_service! {
    /// Consumes bulk payloads, folding them into a checksum.
    service Sink {
        state SinkState;

        /// Fold `data` into the running checksum and return it.
        rpc ingest(ctx, st, data: Vec<u8>) -> u64 {
            let _ = ctx;
            let s: u64 = data.iter().map(|&b| b as u64).sum();
            let v = st.sum.get().wrapping_add(s).wrapping_add(1);
            st.sum.set(v);
            v
        }
    }
}

/// The bulk scenario: 40 rounds of 4 KiB payloads from node 0 to node 1
/// over the same 5% drop/dup/delay fabric with retransmission. This drives
/// the pooled-buffer bulk path — lease, spill, Rc-shared retransmit
/// copies, pool recycling — under chaos, so buffer management feeds the
/// trace alongside the executor, fabric, and RPC reliability layers.
fn chaos_bulk() -> (Recorder, u64, u64, u64, u64) {
    let p = 0.05;
    let cfg = MachineConfig::cm5(2)
        .with_fault_plan(FaultPlan::drop_only(p).with_dup(p).with_delay(p, Dur::from_micros(20)))
        .with_retransmission();
    let machine = MachineBuilder::from_config(cfg).build();
    for i in 0..2 {
        Sink::register_all(
            machine.rpc(),
            NodeId(i),
            Rc::new(SinkState { sum: Cell::new(0) }),
            optimistic_active_messages::rpc::RpcMode::Orpc,
        );
    }
    let rec = Recorder::new();
    for n in machine.nodes() {
        rec.attach(n);
    }
    let answer = Rc::new(Cell::new(0u64));
    let a = Rc::clone(&answer);
    let report = machine.run(move |env| {
        let a = Rc::clone(&a);
        async move {
            if env.id().index() == 0 {
                let mut last = 0;
                for round in 0..40u32 {
                    let data: Vec<u8> =
                        (0..4096u32).map(|i| ((i.wrapping_mul(31) + round) % 251) as u8).collect();
                    last = Sink::ingest::call(env.rpc(), env.node(), NodeId(1), data)
                        .await
                        .expect("reply decode");
                }
                a.set(last);
            }
            env.barrier().await;
        }
    });
    (rec, answer.get(), report.end_time.as_nanos(), report.events, report.in_place)
}

const GOLDEN_BULK_TRACE_HASH: u64 = 0xd461_1ca6_950f_94c0;
const GOLDEN_BULK_ANSWER: u64 = 20_478_066;
const GOLDEN_BULK_END_NS: u64 = 49_768_450;
const GOLDEN_BULK_EVENTS: u64 = 717;
/// Events plus in-place settles: the event count with every settle fired.
const GOLDEN_BULK_ALL_SETTLES_EVENTS: u64 = 1107;

#[test]
fn fixed_seed_bulk_chaos_trace_is_byte_identical_to_the_recorded_golden() {
    let (rec, answer, end_ns, events, in_place) = chaos_bulk();
    let bytes = trace_bytes(&rec);
    let hash = fnv1a(&bytes);
    if std::env::var("OAM_PRINT_GOLDEN").is_ok() {
        println!(
            "GOLDEN_BULK_TRACE_HASH = {hash:#018x}\nGOLDEN_BULK_ANSWER = {answer}\nGOLDEN_BULK_END_NS = {end_ns}\nGOLDEN_BULK_EVENTS = {events}\nGOLDEN_BULK_ALL_SETTLES_EVENTS = {}\n({} trace events, {} bytes)",
            events + in_place,
            rec.len(),
            bytes.len(),
        );
    }
    assert!(rec.len() > 100, "trace is non-trivial ({} events)", rec.len());
    assert_eq!(answer, GOLDEN_BULK_ANSWER, "bulk chaos checksum drifted");
    assert_eq!(end_ns, GOLDEN_BULK_END_NS, "virtual end time drifted");
    assert_eq!(events, GOLDEN_BULK_EVENTS, "executed event count drifted");
    assert_eq!(
        events + in_place,
        GOLDEN_BULK_ALL_SETTLES_EVENTS,
        "an in-place settle did not stand for exactly one event"
    );
    assert_eq!(
        hash, GOLDEN_BULK_TRACE_HASH,
        "bulk trace bytes drifted (hash {hash:#018x}): the pooled payload path altered \
         observable scheduling order"
    );
}

#[test]
fn bulk_golden_scenario_is_reproducible_within_one_binary() {
    let (rec_a, ans_a, end_a, ev_a, in_a) = chaos_bulk();
    let (rec_b, ans_b, end_b, ev_b, in_b) = chaos_bulk();
    assert_eq!(trace_bytes(&rec_a), trace_bytes(&rec_b));
    assert_eq!((ans_a, end_a, ev_a, in_a), (ans_b, end_b, ev_b, in_b));
}

#[test]
fn golden_scenario_is_reproducible_within_one_binary() {
    let (rec_a, _, out_a) = chaos_tsp();
    let (rec_b, _, out_b) = chaos_tsp();
    assert_eq!(trace_bytes(&rec_a), trace_bytes(&rec_b));
    assert_eq!(out_a.answer, out_b.answer);
    assert_eq!(out_a.elapsed, out_b.elapsed);
}

/// The chaos TSP scenario's event counts at 1, 2 and 4 shards from before
/// settles could go in place; a sharded run fires each collective publish
/// once per shard, so the counts grow with the shard count.
const GOLDEN_SHARDED_ALL_SETTLES_EVENTS: [(usize, u64); 3] = [(1, 7581), (2, 7584), (4, 7590)];

#[test]
fn in_place_settles_each_stand_for_one_event_at_every_shard_count() {
    // The hooked golden run above is one shard whatever `OAM_SHARDS` says;
    // this runs the same scenario partitioned, without a recorder.
    let p = 0.05;
    for (shards, all_settles_events) in GOLDEN_SHARDED_ALL_SETTLES_EVENTS {
        let cfg = MachineConfig::cm5(5)
            .with_fault_plan(
                FaultPlan::drop_only(p).with_dup(p).with_delay(p, Dur::from_micros(20)),
            )
            .with_retransmission()
            .with_shards(shards);
        let params = TspParams { ncities: 10, prefix_len: 4, ..Default::default() };
        let out = tsp::run_configured(System::Orpc, cfg, params);
        assert_eq!(out.answer, GOLDEN_ANSWER, "answer at {shards} shards");
        assert_eq!(out.elapsed.as_nanos(), GOLDEN_END_NS, "end time at {shards} shards");
        assert!(out.in_place > 0, "no settle went in place at {shards} shards");
        assert_eq!(out.events + out.in_place, all_settles_events, "at {shards} shards");
    }
}
