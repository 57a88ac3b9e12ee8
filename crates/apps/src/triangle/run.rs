//! Distributed breadth-first search for the Triangle puzzle (§4.2.1).
//!
//! Every processor extends the positions of the current BFS level; each
//! extension is sent with an **asynchronous RPC** to the processor owning
//! that slice of the distributed transposition table, which inserts it if
//! new. The remote procedure locks the transposition table — in ORPC the
//! call aborts (rarely) when the lock happens to be held; the paper
//! measures that none block at size 6.
//!
//! Compute costs are calibrated so the sequential run of the paper's
//! size-6 problem lands near its reported 13.7 s (we measure ~14.2 s):
//! roughly 10 µs of 32 MHz SPARC work per extension, split between
//! generating a successor on the sender and inserting it at the table
//! owner.

use std::cell::{Cell, RefCell};
use std::collections::HashSet;
use std::rc::Rc;

use oam_am::{pack_u32_payload, AmToken, HandlerId};
use oam_machine::{run_partitioned, Reducer, ShardApp};
use oam_model::{Dur, NodeId, NodeTable};
use oam_rpc::define_rpc_service;
use oam_threads::Mutex;

use crate::system::{AppOutcome, System};
use crate::triangle::board::{Board, Position};

/// Sender-side cost of generating one successor position.
pub const EXTEND_COST: Dur = Dur::from_nanos(7_000);
/// Receiver-side cost of one transposition-table insert.
pub const INSERT_COST: Dur = Dur::from_nanos(3_000);
/// Fixed per-position expansion overhead (move scan).
pub const EXPAND_BASE: Dur = Dur::from_nanos(2_000);

/// Which node owns a position's transposition-table slice.
fn owner(pos: Position, nprocs: usize) -> NodeId {
    NodeId((pos.wrapping_mul(0x9E37_79B1) >> 11) as usize % nprocs)
}

/// Pack the cross-check answer: solutions in the high half, distinct
/// positions in the low half.
fn pack_answer(solutions: u64, positions: u64) -> u64 {
    (solutions << 40) | (positions & 0xFF_FFFF_FFFF)
}

/// Sequential baseline: plain BFS with a local transposition table.
/// Returns `(solutions, distinct positions, virtual time)`.
pub fn sequential(size: usize) -> (u64, u64, Dur) {
    let board = Board::new(size);
    let mut seen: HashSet<Position> = HashSet::new();
    let mut frontier = vec![board.initial()];
    seen.insert(board.initial());
    let mut solutions = 0u64;
    let mut time = INSERT_COST; // the initial insert
    while !frontier.is_empty() {
        let mut next = Vec::new();
        for pos in frontier.drain(..) {
            time += EXPAND_BASE;
            board.for_each_successor(pos, |s| {
                time += EXTEND_COST + INSERT_COST;
                if seen.insert(s) {
                    if Board::solved(s) {
                        solutions += 1;
                    } else {
                        next.push(s);
                    }
                }
            });
        }
        frontier = next;
    }
    (solutions, seen.len() as u64, time)
}

/// Per-node slice of the distributed transposition table.
pub struct TriangleCore {
    /// Positions already seen.
    pub seen: HashSet<Position>,
    /// Frontier being accumulated for the next level.
    pub next: Vec<Position>,
    /// Solutions found at this node.
    pub solutions: u64,
    /// Cumulative inserts received from remote nodes.
    pub received: u64,
}

impl TriangleCore {
    fn new() -> Self {
        TriangleCore { seen: HashSet::new(), next: Vec::new(), solutions: 0, received: 0 }
    }

    fn insert(&mut self, pos: Position) {
        if self.seen.insert(pos) {
            if Board::solved(pos) {
                self.solutions += 1;
            } else {
                self.next.push(pos);
            }
        }
    }
}

/// RPC-variant state: the table under the mutex the paper describes.
pub struct TriangleState {
    /// The protected table slice.
    pub core: Mutex<TriangleCore>,
}

define_rpc_service! {
    /// The transposition-table service (ORPC/TRPC variants).
    service Triangle {
        state TriangleState;

        /// Insert one extension into this node's table slice.
        oneway insert(ctx, st, pos: u32) {
            let g = st.core.lock().await;
            ctx.charge(super::INSERT_COST).await;
            g.with_mut(|c| {
                c.received += 1;
                c.insert(pos);
            });
        }
    }
}

/// Hand-coded AM handler id for inserts.
const AM_INSERT: HandlerId = HandlerId(0x0001_0001);

/// Run the Triangle puzzle on `nprocs` nodes with the given system.
pub fn run(system: System, nprocs: usize, size: usize) -> AppOutcome {
    run_with_poll_every(system, nprocs, size, 1)
}

/// As [`run`], with an explicit polling interval (positions between
/// application polls — the paper's "carefully tuned polling").
pub fn run_with_poll_every(
    system: System,
    nprocs: usize,
    size: usize,
    poll_every: usize,
) -> AppOutcome {
    run_configured(system, oam_model::MachineConfig::cm5(nprocs), size, poll_every)
}

/// As [`run`], with a caller-supplied machine configuration (queue-policy,
/// abort-strategy, and buffering ablations).
pub fn run_configured(
    system: System,
    cfg: oam_model::MachineConfig,
    size: usize,
    poll_every: usize,
) -> AppOutcome {
    assert!(poll_every > 0);

    let (report, answer) = run_partitioned(cfg, move |machine| {
        let board = Rc::new(Board::new(size));

        // Per-node state. The AM variant keeps the table in a RefCell:
        // handler atomicity comes from non-preemption, the hand-synthesized
        // critical region of the paper's AM code.
        let owned = machine.owned();
        let rpc_states = NodeTable::new(owned.clone(), |id| {
            Rc::new(TriangleState { core: Mutex::new(machine.node(id), TriangleCore::new()) })
        });
        let am_states =
            NodeTable::new(owned.clone(), |_| Rc::new(RefCell::new(TriangleCore::new())));

        match system {
            System::HandAm => {
                for (i, st) in owned.zip(&am_states) {
                    let st = Rc::clone(st);
                    machine.am().register(
                        NodeId(i),
                        AM_INSERT,
                        oam_am::HandlerEntry::Inline(Rc::new(move |t: &AmToken| {
                            t.charge(INSERT_COST);
                            let mut c = st.borrow_mut();
                            c.received += 1;
                            c.insert(t.arg_u32(0));
                        })),
                    );
                }
            }
            System::Orpc | System::Trpc => {
                for (i, st) in owned.zip(&rpc_states) {
                    Triangle::register_all(
                        machine.rpc(),
                        NodeId(i),
                        Rc::clone(st),
                        system.rpc_mode(),
                    );
                }
            }
        }

        let sent_reduce = Reducer::new(machine.collectives(), |a: &u64, b: &u64| a + b);
        let recv_reduce = Reducer::new(machine.collectives(), |a: &u64, b: &u64| a + b);
        let next_reduce = Reducer::new(machine.collectives(), |a: &u64, b: &u64| a + b);
        let answer_reduce = Reducer::new(machine.collectives(), |a: &u64, b: &u64| a + b);
        let answer_out = Rc::new(Cell::new(0u64));

        let rpc_states = Rc::new(rpc_states);
        let am_states = Rc::new(am_states);
        let out = Rc::clone(&answer_out);
        let main = move |env: oam_machine::NodeEnv| {
            let board = Rc::clone(&board);
            let rpc_states = Rc::clone(&rpc_states);
            let am_states = Rc::clone(&am_states);
            let (sent_r, recv_r, next_r, ans_r) = (
                sent_reduce.clone(),
                recv_reduce.clone(),
                next_reduce.clone(),
                answer_reduce.clone(),
            );
            let out = Rc::clone(&out);
            let fut: std::pin::Pin<Box<dyn std::future::Future<Output = ()>>> =
                Box::pin(async move {
                    let me = env.id().index();
                    let nprocs = env.nprocs();

                    // Helpers over the two state representations.
                    let local_insert = {
                        let rpc_states = Rc::clone(&rpc_states);
                        let am_states = Rc::clone(&am_states);
                        move |pos: Position| match system {
                            System::HandAm => am_states[me].borrow_mut().insert(pos),
                            _ => rpc_states[me]
                                .core
                                .try_lock()
                                .expect("own table free")
                                .with_mut(|c| c.insert(pos)),
                        }
                    };
                    let take_frontier = {
                        let rpc_states = Rc::clone(&rpc_states);
                        let am_states = Rc::clone(&am_states);
                        move || -> Vec<Position> {
                            match system {
                                System::HandAm => {
                                    std::mem::take(&mut am_states[me].borrow_mut().next)
                                }
                                _ => rpc_states[me]
                                    .core
                                    .try_lock()
                                    .expect("own table free")
                                    .with_mut(|c| std::mem::take(&mut c.next)),
                            }
                        }
                    };
                    let read_counts = {
                        let rpc_states = Rc::clone(&rpc_states);
                        let am_states = Rc::clone(&am_states);
                        move || -> (u64, u64) {
                            match system {
                                System::HandAm => {
                                    let c = am_states[me].borrow();
                                    (c.received, c.solutions)
                                }
                                _ => rpc_states[me]
                                    .core
                                    .try_lock()
                                    .expect("own table free")
                                    .with(|c| (c.received, c.solutions)),
                            }
                        }
                    };

                    // Seed the search at the initial position's owner.
                    let init = board.initial();
                    if owner(init, nprocs).index() == me {
                        env.charge(INSERT_COST).await;
                        local_insert(init);
                    }
                    env.barrier().await;

                    let mut sent_cum = 0u64;
                    loop {
                        let frontier = take_frontier();
                        let mut succs: Vec<Position> = Vec::with_capacity(16);
                        for (i, pos) in frontier.iter().enumerate() {
                            succs.clear();
                            board.for_each_successor(*pos, |s| succs.push(s));
                            env.charge(EXPAND_BASE + EXTEND_COST.times(succs.len() as u64)).await;
                            for &s in &succs {
                                let dst = owner(s, nprocs);
                                if dst.index() == me {
                                    env.charge(INSERT_COST).await;
                                    local_insert(s);
                                } else {
                                    sent_cum += 1;
                                    match system {
                                        System::HandAm => {
                                            env.am()
                                                .send(
                                                    env.node(),
                                                    dst,
                                                    AM_INSERT,
                                                    pack_u32_payload(&[s]),
                                                )
                                                .await;
                                        }
                                        _ => {
                                            Triangle::insert::send(env.rpc(), env.node(), dst, s)
                                                .await;
                                        }
                                    }
                                }
                            }
                            if (i + 1) % poll_every == 0 {
                                env.poll().await;
                            }
                        }
                        // Level termination: every sent insert has been processed.
                        loop {
                            env.barrier().await;
                            let total_sent = sent_r.reduce(env.node(), sent_cum).await;
                            let total_recv = recv_r.reduce(env.node(), read_counts().0).await;
                            if total_sent == total_recv {
                                break;
                            }
                            env.poll().await;
                        }
                        let next_len = match system {
                            System::HandAm => am_states[me].borrow().next.len() as u64,
                            _ => rpc_states[me]
                                .core
                                .try_lock()
                                .expect("free")
                                .with(|c| c.next.len() as u64),
                        };
                        if next_r.reduce(env.node(), next_len).await == 0 {
                            break;
                        }
                    }

                    // Gather the answer.
                    let (_, solutions) = read_counts();
                    let positions = match system {
                        System::HandAm => am_states[me].borrow().seen.len() as u64,
                        _ => rpc_states[me]
                            .core
                            .try_lock()
                            .expect("free")
                            .with(|c| c.seen.len() as u64),
                    };
                    let total_solutions = ans_r.reduce(env.node(), solutions).await;
                    let total_positions = ans_r.reduce(env.node(), positions).await;
                    if me == 0 {
                        out.set(pack_answer(total_solutions, total_positions));
                    }
                });
            fut
        };
        ShardApp { main: Box::new(main), finish: Box::new(move |_| answer_out.get()) }
    });

    AppOutcome::new(report, answer)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_size_5_is_deterministic_and_plausible() {
        let (sol_a, pos_a, t_a) = sequential(5);
        let (sol_b, pos_b, t_b) = sequential(5);
        assert_eq!((sol_a, pos_a, t_a), (sol_b, pos_b, t_b));
        assert!(sol_a > 0, "the 15-hole puzzle has solutions");
        assert!(pos_a > 1_000, "search space is non-trivial: {pos_a}");
    }

    #[test]
    fn all_systems_agree_with_sequential_at_size_4() {
        let (sol, pos, _) = sequential(4);
        let expect = pack_answer(sol, pos);
        for system in System::ALL {
            let out = run(system, 4, 4);
            assert_eq!(out.answer, expect, "{}", system.label());
        }
    }

    #[test]
    fn orpc_rarely_aborts_and_trpc_creates_threads() {
        let orpc = run(System::Orpc, 4, 5);
        let trpc = run(System::Trpc, 4, 5);
        assert_eq!(orpc.answer, trpc.answer);
        let so = orpc.stats.total();
        let st = trpc.stats.total();
        assert!(so.oam_attempts > 100);
        assert!(
            so.success_rate().expect("attempts exist") > 0.95,
            "optimism holds: {:?}",
            so.success_rate()
        );
        assert!(st.threads_created > so.threads_created * 10);
        assert!(trpc.elapsed > orpc.elapsed, "TRPC pays thread management");
    }

    #[test]
    fn runs_are_deterministic() {
        let a = run(System::Orpc, 3, 5);
        let b = run(System::Orpc, 3, 5);
        assert_eq!(a.answer, b.answer);
        assert_eq!(a.elapsed, b.elapsed);
    }
}
