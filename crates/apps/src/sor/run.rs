//! Distributed SOR (§4.2.3): row-partitioned grid, bulk boundary
//! exchange, per-iteration convergence test over the control network.
//!
//! Each iteration a node sends its edge rows to its neighbours as remote
//! procedures that *store the boundary into a buffer* — and block if the
//! (per-parity) buffer is still full. The RPC variants then copy the
//! buffer into the grid (call-by-value semantics, the extra copy §4.2.3
//! blames for the AM version's edge); the hand-coded AM handler writes
//! straight into the application's ghost row and *dies* if the buffer is
//! unexpectedly occupied, exactly as the paper describes its AM versions.
//!
//! Per-point compute cost is calibrated so the paper's 482×80 × 100
//! iterations sequential run lands near its reported 15.3 s.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use oam_am::{AmToken, HandlerId};
use oam_machine::{run_partitioned, Machine, Reducer, ShardApp};
use oam_model::{Dur, NodeId, NodeTable};
use oam_rpc::define_rpc_service;
use oam_threads::{CondVar, Flag, Mutex};

use crate::sor::grid::Slab;
use crate::system::{AppOutcome, System};

/// Compute cost per grid-point update (32 MHz SPARC: ~4 µs/point).
pub const POINT_COST: Dur = Dur::from_nanos(4_100);
/// Convergence threshold for the (reported, not acted-on) global test.
pub const EPS: f64 = 1e-3;

/// Boundary arriving from the node above (fills my `above` ghost).
const FROM_ABOVE: usize = 0;
/// Boundary arriving from the node below.
const FROM_BELOW: usize = 1;

/// A double-buffered (per-parity) boundary slot with the blocking
/// semantics of the paper's remote procedure.
pub struct BoundarySlot {
    /// The buffer: `None` = empty.
    pub slot: Mutex<Option<Vec<f64>>>,
    /// Signalled when the buffer fills.
    pub full: CondVar,
    /// Signalled when the buffer empties.
    pub empty: CondVar,
}

impl BoundarySlot {
    /// Create an empty slot on `node`.
    pub fn new(node: &oam_threads::Node) -> Self {
        BoundarySlot {
            slot: Mutex::new(node, None),
            full: CondVar::new(node),
            empty: CondVar::new(node),
        }
    }

    /// Consume the boundary (application side), blocking until present.
    pub async fn take(&self) -> Vec<f64> {
        let mut g = self.slot.lock().await;
        loop {
            if let Some(v) = g.with_mut(Option::take) {
                self.empty.signal();
                return v;
            }
            g = self.full.wait(g).await;
        }
    }
}

/// RPC-variant per-node state: slots indexed by `[side][parity]`.
pub struct SorState {
    /// The four boundary buffers.
    pub slots: [[BoundarySlot; 2]; 2],
}

define_rpc_service! {
    /// The boundary-exchange service.
    service Sor {
        state SorState;

        /// Store a boundary row into the receiver's buffer; blocks while
        /// the buffer is full (§4.2.3).
        oneway store_boundary(ctx, st, side: u32, parity: u32, data: Vec<f64>) {
            let s = &st.slots[side as usize][parity as usize];
            let mut g = s.slot.lock().await;
            while g.with(Option::is_some) {
                g = s.empty.wait(g).await;
            }
            g.with_mut(|o| *o = Some(data));
            s.full.signal();
        }
    }
}

const AM_STORE: HandlerId = HandlerId(0x0003_0001);

/// Hand-coded AM per-node state: ghosts written in place, one flag per
/// slot, no second copy.
struct AmSor {
    ghost: [[RefCell<Option<Vec<f64>>>; 2]; 2],
    flag: [[RefCell<Flag>; 2]; 2],
}

/// SOR parameters.
#[derive(Debug, Clone, Copy)]
pub struct SorParams {
    /// Grid rows (paper: 482).
    pub rows: usize,
    /// Grid columns (paper: 80).
    pub cols: usize,
    /// Iterations (paper: 100).
    pub iters: usize,
}

impl Default for SorParams {
    fn default() -> Self {
        SorParams { rows: 482, cols: 80, iters: 100 }
    }
}

/// Sequential baseline: `(checksum, virtual time)`.
pub fn sequential(p: SorParams) -> (u64, Dur) {
    let mut slab = Slab::new(p.rows, p.cols, 1, 0);
    let mut points = 0u64;
    for _ in 0..p.iters {
        for l in 0..slab.height() {
            points += slab.sweep_row(l).0 as u64;
        }
        slab.advance();
    }
    (slab.checksum(), POINT_COST.times(points))
}

/// Run SOR on `nprocs` nodes.
pub fn run(system: System, nprocs: usize, p: SorParams) -> AppOutcome {
    run_configured(system, oam_model::MachineConfig::cm5(nprocs), p)
}

/// As [`run`], with a caller-supplied machine configuration (mode,
/// abort-strategy, and policy ablations).
pub fn run_configured(system: System, cfg: oam_model::MachineConfig, p: SorParams) -> AppOutcome {
    assert!(cfg.nodes <= p.rows, "at least one row per node");
    let (report, answer) = run_partitioned(cfg, move |machine| app(system, p, machine));

    AppOutcome::new(report, answer)
}

/// Build the SOR application for one machine replica: state and handlers
/// for the nodes it executes, the reducers, and the node main. The answer
/// is the grid checksum, read on the replica that executes node 0.
pub fn app(system: System, params: SorParams, machine: &Machine) -> ShardApp<u64> {
    let owned = machine.owned();
    let rpc_states = NodeTable::new(owned.clone(), |id| {
        let node = machine.node(id);
        Rc::new(SorState {
            slots: [
                [BoundarySlot::new(node), BoundarySlot::new(node)],
                [BoundarySlot::new(node), BoundarySlot::new(node)],
            ],
        })
    });
    let am_states = NodeTable::new(owned.clone(), |_| {
        Rc::new(AmSor { ghost: Default::default(), flag: Default::default() })
    });

    match system {
        System::HandAm => {
            for (i, st) in owned.zip(&am_states) {
                let st = Rc::clone(st);
                machine.am().register(
                    NodeId(i),
                    AM_STORE,
                    oam_am::HandlerEntry::Inline(Rc::new(move |t: &AmToken| {
                        let (side, parity, data): (u32, u32, Vec<f64>) =
                            oam_rpc::from_bytes(t.payload()).expect("boundary decode");
                        let flag = st.flag[side as usize][parity as usize].borrow().clone();
                        // The paper's AM version *assumes* readiness; if the
                        // assumption is wrong "the program dies".
                        assert!(
                            !flag.get(),
                            "AM SOR: boundary buffer occupied at message arrival — the program dies"
                        );
                        *st.ghost[side as usize][parity as usize].borrow_mut() = Some(data);
                        flag.set();
                    })),
                );
            }
        }
        System::Orpc | System::Trpc => {
            for (i, st) in owned.zip(&rpc_states) {
                Sor::register_all(machine.rpc(), NodeId(i), Rc::clone(st), system.rpc_mode());
            }
        }
    }

    let conv_reduce = Reducer::new(machine.collectives(), |a: &bool, b: &bool| *a && *b);
    let sum_reduce = Reducer::new(machine.collectives(), |a: &u64, b: &u64| a.wrapping_add(*b));
    let answer_out = Rc::new(Cell::new(0u64));

    let rpc_states = Rc::new(rpc_states);
    let am_states = Rc::new(am_states);
    let out = Rc::clone(&answer_out);
    let main = move |env: oam_machine::NodeEnv| {
        let rpc_states = Rc::clone(&rpc_states);
        let am_states = Rc::clone(&am_states);
        let (conv_r, sum_r) = (conv_reduce.clone(), sum_reduce.clone());
        let out = Rc::clone(&out);
        let fut: std::pin::Pin<Box<dyn std::future::Future<Output = ()>>> = Box::pin(async move {
            let me = env.id().index();
            let nprocs = env.nprocs();
            let copy_cost = env.config().cost.copy_per_byte;
            let mut slab = Slab::new(params.rows, params.cols, nprocs, me);
            let has_up = me > 0;
            let has_down = me + 1 < nprocs;

            // Prime the AM flags for both parities.
            if system == System::HandAm {
                for side in 0..2 {
                    for par in 0..2 {
                        *am_states[me].flag[side][par].borrow_mut() = Flag::new();
                    }
                }
                env.barrier().await; // no messages before everyone is primed
            }

            for it in 0..params.iters {
                let parity = (it % 2) as u32;

                // Send edge rows to neighbours (bulk: 80 doubles = 640 B).
                if has_up {
                    let row = slab.outgoing_edge(true);
                    match system {
                        System::HandAm => {
                            let payload = oam_rpc::to_payload(
                                &(FROM_BELOW as u32, parity, row),
                                env.am().pool(env.id()),
                            );
                            env.am().send_bulk(env.node(), NodeId(me - 1), AM_STORE, payload);
                        }
                        _ => {
                            Sor::store_boundary::send(
                                env.rpc(),
                                env.node(),
                                NodeId(me - 1),
                                FROM_BELOW as u32,
                                parity,
                                row,
                            )
                            .await;
                        }
                    }
                }
                if has_down {
                    let row = slab.outgoing_edge(false);
                    match system {
                        System::HandAm => {
                            let payload = oam_rpc::to_payload(
                                &(FROM_ABOVE as u32, parity, row),
                                env.am().pool(env.id()),
                            );
                            env.am().send_bulk(env.node(), NodeId(me + 1), AM_STORE, payload);
                        }
                        _ => {
                            Sor::store_boundary::send(
                                env.rpc(),
                                env.node(),
                                NodeId(me + 1),
                                FROM_ABOVE as u32,
                                parity,
                                row,
                            )
                            .await;
                        }
                    }
                }

                // Interior sweep (overlaps with the boundary transfers).
                let mut maxd = 0.0f64;
                for l in slab.interior_rows() {
                    let (points, d) = slab.sweep_row(l);
                    if points > 0 {
                        env.charge(POINT_COST.times(points as u64)).await;
                    }
                    maxd = maxd.max(d);
                    env.poll().await;
                }

                // Receive ghosts; the RPC variants pay the buffer→grid copy
                // that call-by-value semantics force (§4.2.3).
                if has_up {
                    let ghost = match system {
                        System::HandAm => {
                            let flag =
                                am_states[me].flag[FROM_ABOVE][parity as usize].borrow().clone();
                            env.node().spin_on(flag).await;
                            *am_states[me].flag[FROM_ABOVE][parity as usize].borrow_mut() =
                                Flag::new();
                            am_states[me].ghost[FROM_ABOVE][parity as usize]
                                .borrow_mut()
                                .take()
                                .expect("ghost present")
                        }
                        _ => {
                            let v = rpc_states[me].slots[FROM_ABOVE][parity as usize].take().await;
                            env.charge(copy_cost.times((v.len() * 8) as u64)).await;
                            v
                        }
                    };
                    slab.above = Some(ghost);
                }
                if has_down {
                    let ghost = match system {
                        System::HandAm => {
                            let flag =
                                am_states[me].flag[FROM_BELOW][parity as usize].borrow().clone();
                            env.node().spin_on(flag).await;
                            *am_states[me].flag[FROM_BELOW][parity as usize].borrow_mut() =
                                Flag::new();
                            am_states[me].ghost[FROM_BELOW][parity as usize]
                                .borrow_mut()
                                .take()
                                .expect("ghost present")
                        }
                        _ => {
                            let v = rpc_states[me].slots[FROM_BELOW][parity as usize].take().await;
                            env.charge(copy_cost.times((v.len() * 8) as u64)).await;
                            v
                        }
                    };
                    slab.below = Some(ghost);
                }

                // Edge sweeps.
                for l in slab.edge_rows() {
                    let (points, d) = slab.sweep_row(l);
                    if points > 0 {
                        env.charge(POINT_COST.times(points as u64)).await;
                    }
                    maxd = maxd.max(d);
                }
                slab.advance();

                // Split-phase convergence test (global AND of "converged").
                let _converged = conv_r.reduce(env.node(), maxd < EPS).await;
            }

            let total = sum_r.reduce(env.node(), slab.checksum()).await;
            if me == 0 {
                out.set(total);
            }
        });
        fut
    };
    ShardApp { main: Box::new(main), finish: Box::new(move |_| answer_out.get()) }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SorParams {
        SorParams { rows: 24, cols: 12, iters: 6 }
    }

    #[test]
    fn all_systems_and_partitionings_compute_the_same_grid() {
        let (reference, _) = sequential(small());
        for system in System::ALL {
            for nprocs in [1usize, 3, 4] {
                let out = run(system, nprocs, small());
                assert_eq!(out.answer, reference, "{} P={nprocs}", system.label());
            }
        }
    }

    #[test]
    fn orpc_never_aborts_in_sor() {
        // The paper: "no Optimistic RPC aborts for any problem size".
        let out = run(System::Orpc, 4, small());
        let t = out.stats.total();
        assert!(t.oam_attempts > 0);
        assert_eq!(t.total_aborts(), 0, "aborts: {:?}", t.oam_aborts);
    }

    #[test]
    fn boundary_exchange_uses_bulk_transfers() {
        let out = run(System::Orpc, 4, SorParams { rows: 24, cols: 80, iters: 4 });
        // 80 doubles = 640 B per boundary row > 16 B threshold.
        assert!(out.stats.total().bulk_transfers_sent > 0);
    }

    #[test]
    fn am_is_fastest_then_orpc_then_trpc() {
        let p = SorParams { rows: 32, cols: 80, iters: 8 };
        let am = run(System::HandAm, 4, p);
        let orpc = run(System::Orpc, 4, p);
        let trpc = run(System::Trpc, 4, p);
        assert!(am.elapsed <= orpc.elapsed, "AM {} vs ORPC {}", am.elapsed, orpc.elapsed);
        assert!(orpc.elapsed <= trpc.elapsed, "ORPC {} vs TRPC {}", orpc.elapsed, trpc.elapsed);
        // But the gaps are small: data transfer dominates (§4.2.3).
        let ratio = trpc.elapsed.as_secs_f64() / am.elapsed.as_secs_f64();
        assert!(ratio < 1.6, "gap should be modest, got {ratio}");
    }
}
