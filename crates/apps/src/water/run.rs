//! Distributed Water (§4.2.4): per iteration, a position-broadcast phase
//! (every node sends its molecules' positions to every other node) and an
//! acceleration-scatter phase (each node sends one combined update message
//! to roughly half the processors — the half-shell method). Both remote
//! procedures store into per-source, per-parity buffers and block when a
//! buffer is still occupied.
//!
//! Five variants, as in Figure 4: hand-coded AM (which *requires* the
//! inter-iteration barrier — without it an occupied buffer kills the
//! program, the "not bulletproof" §4.2.4 discusses), ORPC and TRPC with
//! and without barriers.

use std::cell::Cell;
use std::cell::RefCell;
use std::rc::Rc;

use oam_am::{AmToken, HandlerId};
use oam_machine::{run_partitioned, Reducer, ShardApp};
use oam_model::{Dur, NodeId, NodeTable, Time};
use oam_rpc::define_rpc_service;
use oam_threads::Flag;

use crate::sor::run::BoundarySlot;
use crate::system::{AppOutcome, System};
use crate::water::sim::{
    block_cross, block_internal, energy_checksum, initial_molecules, integrate, Molecule,
};

/// Compute charge per pair interaction (the dominant term: the paper's
/// 24 s/iteration at 512 molecules ⇒ ~180 µs of 32 MHz SPARC per pair of
/// water molecules).
pub const PAIR_COST: Dur = Dur::from_nanos(180_000);
/// Charge per molecule integrated.
pub const INTEGRATE_COST: Dur = Dur::from_nanos(20_000);
/// Charge per molecule when applying a received update vector.
pub const APPLY_COST: Dur = Dur::from_nanos(500);

/// One of the paper's five Figure-4 configurations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WaterVariant {
    /// Communication system.
    pub system: System,
    /// Execute a barrier between iterations.
    pub barrier: bool,
}

impl WaterVariant {
    /// The five variants in the paper's legend order.
    pub const ALL: [WaterVariant; 5] = [
        WaterVariant { system: System::HandAm, barrier: true },
        WaterVariant { system: System::Orpc, barrier: true },
        WaterVariant { system: System::Trpc, barrier: true },
        WaterVariant { system: System::Orpc, barrier: false },
        WaterVariant { system: System::Trpc, barrier: false },
    ];

    /// Label used in figures.
    pub fn label(self) -> String {
        if self.barrier {
            format!("{} w/ barrier", self.system.label())
        } else {
            self.system.label().to_string()
        }
    }
}

/// Water parameters.
#[derive(Debug, Clone, Copy)]
pub struct WaterParams {
    /// Molecules (paper: 512).
    pub molecules: usize,
    /// Iterations (paper: 5, first discarded).
    pub iters: usize,
}

impl Default for WaterParams {
    fn default() -> Self {
        WaterParams { molecules: 512, iters: 5 }
    }
}

/// RPC-variant per-node state: per-source, per-parity buffers.
pub struct WaterState {
    /// Position buffers, indexed `[src][parity]`.
    pub pos: Vec<[BoundarySlot; 2]>,
    /// Update buffers, indexed `[src][parity]`.
    pub upd: Vec<[BoundarySlot; 2]>,
}

define_rpc_service! {
    /// The Water communication service.
    service Water {
        state WaterState;

        /// Phase A: store a block's positions; blocks while the buffer for
        /// this sender/parity is occupied.
        oneway store_positions(ctx, st, parity: u32, data: Vec<f64>) {
            let s = &st.pos[ctx.caller().index()][parity as usize];
            let mut g = s.slot.lock().await;
            while g.with(Option::is_some) {
                g = s.empty.wait(g).await;
            }
            g.with_mut(|o| *o = Some(data));
            s.full.signal();
        }

        /// Phase B: store a combined acceleration-update message.
        oneway store_updates(ctx, st, parity: u32, data: Vec<f64>) {
            let s = &st.upd[ctx.caller().index()][parity as usize];
            let mut g = s.slot.lock().await;
            while g.with(Option::is_some) {
                g = s.empty.wait(g).await;
            }
            g.with_mut(|o| *o = Some(data));
            s.full.signal();
        }
    }
}

const AM_POS: HandlerId = HandlerId(0x0004_0001);
const AM_UPD: HandlerId = HandlerId(0x0004_0002);

/// A hand-coded-AM buffer slot: data plus its readiness flag, double
/// buffered by iteration parity.
type AmSlotPair = [(RefCell<Option<Vec<f64>>>, RefCell<Flag>); 2];

/// Hand-coded AM per-node state.
struct AmWater {
    pos: Vec<AmSlotPair>,
    upd: Vec<AmSlotPair>,
}

/// The half-shell target set: blocks whose cross pairs `me` computes, in
/// fixed order.
pub fn targets(me: usize, p: usize) -> Vec<usize> {
    let mut out = Vec::new();
    for d in 1..=p / 2 {
        let b = (me + d) % p;
        if 2 * d == p && me > b {
            continue; // tie-break for even p at the antipode
        }
        out.push(b);
    }
    out
}

/// Blocks that send `me` update messages (the inverse of [`targets`]).
pub fn providers(me: usize, p: usize) -> Vec<usize> {
    let mut out: Vec<usize> = (0..p).filter(|&a| a != me && targets(a, p).contains(&me)).collect();
    out.sort_unstable();
    out
}

/// Outcome of a Water run: the generic outcome plus the time at which the
/// first iteration completed (the paper discards the first iteration to
/// discount cold-start effects).
#[derive(Debug, Clone)]
pub struct WaterOutcome {
    /// Standard outcome (elapsed covers all iterations).
    pub outcome: AppOutcome,
    /// Node 0's clock after its first iteration.
    pub after_first_iter: Dur,
}

impl WaterOutcome {
    /// Average per-iteration time with the first iteration discarded.
    pub fn steady_per_iter(&self, iters: usize) -> Dur {
        assert!(iters > 1);
        (self.outcome.elapsed.saturating_sub(self.after_first_iter)) / (iters as u64 - 1)
    }
}

/// Sequential baseline: `(energy checksum, virtual time)`.
pub fn sequential(p: WaterParams) -> (u64, Dur) {
    let (ck, pairs_per_iter) = crate::water::sim::reference(p.molecules, p.iters);
    let per_iter = PAIR_COST.times(pairs_per_iter) + INTEGRATE_COST.times(p.molecules as u64);
    (ck, per_iter.times(p.iters as u64))
}

/// Run Water on `nprocs` nodes.
pub fn run(variant: WaterVariant, nprocs: usize, p: WaterParams) -> WaterOutcome {
    run_configured(variant, oam_model::MachineConfig::cm5(nprocs), p)
}

/// As [`run`], with a caller-supplied machine configuration (mode,
/// abort-strategy, and policy ablations).
pub fn run_configured(
    variant: WaterVariant,
    cfg: oam_model::MachineConfig,
    p: WaterParams,
) -> WaterOutcome {
    let nprocs = cfg.nodes;
    assert!(
        variant.system != System::HandAm || variant.barrier,
        "the AM variant requires barriers (the paper's AM Water would die without them)"
    );
    assert!(nprocs <= p.molecules);
    let params = p;

    let (report, (answer, after_first_iter)) = run_partitioned(cfg, move |machine| {
        let owned = machine.owned();
        let rpc_states = NodeTable::new(owned.clone(), |id| {
            let node = machine.node(id);
            Rc::new(WaterState {
                pos: (0..nprocs)
                    .map(|_| [BoundarySlot::new(node), BoundarySlot::new(node)])
                    .collect(),
                upd: (0..nprocs)
                    .map(|_| [BoundarySlot::new(node), BoundarySlot::new(node)])
                    .collect(),
            })
        });
        let am_states = NodeTable::new(owned.clone(), |_| {
            Rc::new(AmWater {
                pos: (0..nprocs).map(|_| Default::default()).collect(),
                upd: (0..nprocs).map(|_| Default::default()).collect(),
            })
        });

        match variant.system {
            System::HandAm => {
                for (i, st) in owned.zip(&am_states) {
                    for (id, which) in [(AM_POS, 0usize), (AM_UPD, 1usize)] {
                        let st = Rc::clone(st);
                        machine.am().register(
                            NodeId(i),
                            id,
                            oam_am::HandlerEntry::Inline(Rc::new(move |t: &AmToken| {
                                let (parity, data): (u32, Vec<f64>) =
                                    oam_rpc::from_bytes(t.payload()).expect("water decode");
                                let src = t.src().index();
                                let (slot, flag) = if which == 0 {
                                    &st.pos[src][parity as usize]
                                } else {
                                    &st.upd[src][parity as usize]
                                };
                                let f = flag.borrow().clone();
                                assert!(
                                    !f.get(),
                                    "AM Water: buffer occupied at message arrival — the program dies"
                                );
                                *slot.borrow_mut() = Some(data);
                                f.set();
                            })),
                        );
                    }
                }
            }
            System::Orpc | System::Trpc => {
                for (i, st) in owned.zip(&rpc_states) {
                    Water::register_all(
                        machine.rpc(),
                        NodeId(i),
                        Rc::clone(st),
                        variant.system.rpc_mode(),
                    );
                }
            }
        }

        let energy_reduce =
            Reducer::new(machine.collectives(), |a: &u64, b: &u64| a.wrapping_add(*b));
        let answer_out = Rc::new(Cell::new(0u64));
        let first_iter_out = Rc::new(Cell::new(Dur::ZERO));

        let rpc_states = Rc::new(rpc_states);
        let am_states = Rc::new(am_states);
        let out = Rc::clone(&answer_out);
        let first_out = Rc::clone(&first_iter_out);
        let main = move |env: oam_machine::NodeEnv| {
            let rpc_states = Rc::clone(&rpc_states);
            let am_states = Rc::clone(&am_states);
            let energy_r = energy_reduce.clone();
            let out = Rc::clone(&out);
            let first_out = Rc::clone(&first_out);
            let fut: std::pin::Pin<Box<dyn std::future::Future<Output = ()>>> =
                Box::pin(async move {
                    let me = env.id().index();
                    let nprocs = env.nprocs();
                    let copy_cost = env.config().cost.copy_per_byte;
                    let (m0, m1) = crate::sor::grid::partition(params.molecules, nprocs, me);
                    let all_mols = initial_molecules(params.molecules);
                    let mut mols: Vec<Molecule> = all_mols[m0..m1].to_vec();
                    let my_targets = targets(me, nprocs);
                    let my_providers = providers(me, nprocs);

                    // Prime AM flags.
                    if variant.system == System::HandAm {
                        for src in 0..nprocs {
                            for par in 0..2 {
                                *am_states[me].pos[src][par].1.borrow_mut() = Flag::new();
                                *am_states[me].upd[src][par].1.borrow_mut() = Flag::new();
                            }
                        }
                    }
                    env.barrier().await;

                    for it in 0..params.iters {
                        let parity = (it % 2) as u32;

                        // ---- Phase A: broadcast positions to every other node.
                        let flat: Vec<f64> = mols.iter().flat_map(|m| m.pos).collect();
                        for off in 1..nprocs {
                            let dst = NodeId((me + off) % nprocs);
                            match variant.system {
                                System::HandAm => {
                                    let payload = oam_rpc::to_payload(
                                        &(parity, flat.clone()),
                                        env.am().pool(env.id()),
                                    );
                                    env.am().send_bulk(env.node(), dst, AM_POS, payload);
                                }
                                _ => {
                                    Water::store_positions::send(
                                        env.rpc(),
                                        env.node(),
                                        dst,
                                        parity,
                                        flat.clone(),
                                    )
                                    .await;
                                }
                            }
                        }

                        // ---- Internal pairs (overlap with the broadcasts).
                        let my_pos: Vec<[f64; 3]> = mols.iter().map(|m| m.pos).collect();
                        let mut acc = vec![[0.0f64; 3]; mols.len()];
                        let pairs = block_internal(&my_pos, &mut acc);
                        if pairs > 0 {
                            env.charge(PAIR_COST.times(pairs)).await;
                        }
                        env.poll().await;

                        // ---- Consume every other node's positions (fixed order);
                        //      compute cross pairs for my half-shell targets.
                        let mut remote_acc: Vec<(usize, Vec<f64>)> = Vec::new();
                        for off in 1..nprocs {
                            let src = (me + off) % nprocs;
                            let data: Vec<f64> = match variant.system {
                                System::HandAm => {
                                    let flag =
                                        am_states[me].pos[src][parity as usize].1.borrow().clone();
                                    env.node().spin_on(flag).await;
                                    *am_states[me].pos[src][parity as usize].1.borrow_mut() =
                                        Flag::new();
                                    am_states[me].pos[src][parity as usize]
                                        .0
                                        .borrow_mut()
                                        .take()
                                        .expect("positions present")
                                }
                                _ => {
                                    let v = rpc_states[me].pos[src][parity as usize].take().await;
                                    env.charge(copy_cost.times((v.len() * 8) as u64)).await;
                                    v
                                }
                            };
                            if my_targets.contains(&src) {
                                let pos_b: Vec<[f64; 3]> =
                                    data.chunks_exact(3).map(|c| [c[0], c[1], c[2]]).collect();
                                let mut acc_b = vec![[0.0f64; 3]; pos_b.len()];
                                let pairs = block_cross(&my_pos, &pos_b, &mut acc, &mut acc_b);
                                env.charge(PAIR_COST.times(pairs)).await;
                                remote_acc.push((
                                    src,
                                    acc_b.iter().flat_map(|a| *a).collect::<Vec<f64>>(),
                                ));
                            }
                            env.poll().await;
                        }

                        // ---- Phase B: scatter combined update messages.
                        for (dst, upd) in remote_acc.drain(..) {
                            let flat_upd: Vec<f64> = upd;
                            match variant.system {
                                System::HandAm => {
                                    let payload = oam_rpc::to_payload(
                                        &(parity, flat_upd),
                                        env.am().pool(env.id()),
                                    );
                                    env.am().send_bulk(env.node(), NodeId(dst), AM_UPD, payload);
                                }
                                _ => {
                                    Water::store_updates::send(
                                        env.rpc(),
                                        env.node(),
                                        NodeId(dst),
                                        parity,
                                        flat_upd,
                                    )
                                    .await;
                                }
                            }
                        }

                        // ---- Apply updates from my providers, in fixed order.
                        for &src in &my_providers {
                            let data: Vec<f64> = match variant.system {
                                System::HandAm => {
                                    let flag =
                                        am_states[me].upd[src][parity as usize].1.borrow().clone();
                                    env.node().spin_on(flag).await;
                                    *am_states[me].upd[src][parity as usize].1.borrow_mut() =
                                        Flag::new();
                                    am_states[me].upd[src][parity as usize]
                                        .0
                                        .borrow_mut()
                                        .take()
                                        .expect("updates present")
                                }
                                _ => {
                                    let v = rpc_states[me].upd[src][parity as usize].take().await;
                                    env.charge(copy_cost.times((v.len() * 8) as u64)).await;
                                    v
                                }
                            };
                            for (i, c) in data.chunks_exact(3).enumerate() {
                                for k in 0..3 {
                                    acc[i][k] += c[k];
                                }
                            }
                            env.charge(APPLY_COST.times(mols.len() as u64)).await;
                        }

                        // ---- Integrate.
                        integrate(&mut mols, &acc);
                        env.charge(INTEGRATE_COST.times(mols.len() as u64)).await;

                        if it == 0 && me == 0 {
                            first_out.set(env.now().since(Time::ZERO));
                        }
                        if variant.barrier {
                            env.barrier().await;
                        }
                    }

                    let total = energy_r.reduce(env.node(), energy_checksum(&mols)).await;
                    if me == 0 {
                        out.set(total);
                    }
                });
            fut
        };
        ShardApp {
            main: Box::new(main),
            finish: Box::new(move |_| (answer_out.get(), first_iter_out.get())),
        }
    });

    WaterOutcome { outcome: AppOutcome::new(report, answer), after_first_iter }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> WaterParams {
        WaterParams { molecules: 24, iters: 3 }
    }

    #[test]
    fn targets_and_providers_cover_each_cross_block_pair_once() {
        for p in [2usize, 3, 4, 5, 8, 9] {
            let mut covered = std::collections::HashSet::new();
            for a in 0..p {
                for b in targets(a, p) {
                    assert!(covered.insert((a.min(b), a.max(b))), "pair ({a},{b}) twice, p={p}");
                }
            }
            assert_eq!(covered.len(), p * (p - 1) / 2, "p={p}");
            // providers is the exact inverse.
            for a in 0..p {
                for b in &providers(a, p) {
                    assert!(targets(*b, p).contains(&a));
                }
            }
        }
    }

    #[test]
    fn all_variants_compute_identical_trajectories() {
        let reference: Vec<u64> =
            WaterVariant::ALL.iter().map(|v| run(*v, 4, small()).outcome.answer).collect();
        assert!(
            reference.windows(2).all(|w| w[0] == w[1]),
            "variant answers differ: {reference:?}"
        );
    }

    #[test]
    fn distributed_energy_tracks_the_sequential_reference() {
        // Different node counts change summation order, so compare the
        // quantized energies with a small tolerance rather than exactly.
        let (seq_ck, _) = sequential(small());
        let par_ck =
            run(WaterVariant { system: System::Orpc, barrier: false }, 3, small()).outcome.answer;
        let diff = (seq_ck as i64 - par_ck as i64).abs();
        // Pico-unit quantization: allow a few nano-units of float noise.
        assert!(diff < 10_000, "energy mismatch: seq {seq_ck} vs par {par_ck}");
    }

    #[test]
    fn optimism_holds_for_water() {
        let out = run(WaterVariant { system: System::Orpc, barrier: false }, 4, small());
        let t = out.outcome.stats.total();
        assert!(t.oam_attempts > 0);
        assert!(t.success_rate().expect("attempts") > 0.9, "rate {:?}", t.success_rate());
    }

    #[test]
    fn steady_per_iter_discards_the_first_iteration() {
        let out = run(WaterVariant { system: System::Orpc, barrier: true }, 2, small());
        let per = out.steady_per_iter(small().iters);
        assert!(per > Dur::ZERO);
        assert!(per < out.outcome.elapsed);
    }
}
