//! Collectives interacting with message traffic: barriers and reductions
//! must complete while RPC handlers keep being served by the spinning
//! nodes, at every machine size.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use oam_machine::{run_partitioned, MachineBuilder, Reducer, ShardApp};
use oam_model::{AbortStrategy, Backend, MachineConfig, NodeId, QueuePolicy};
use oam_rpc::{define_rpc_service, RpcMode};

pub struct PokeState {
    pub pokes: Cell<u64>,
}

define_rpc_service! {
    /// One-way pokes to generate load during collective phases.
    service Load {
        state PokeState;

        /// Count a poke.
        oneway poke(ctx, st) {
            st.pokes.set(st.pokes.get() + 1);
        }
    }
}

fn setup_mode(m: &oam_machine::Machine, mode: RpcMode) -> Rc<Vec<Rc<PokeState>>> {
    let states: Vec<Rc<PokeState>> =
        (0..m.nodes().len()).map(|_| Rc::new(PokeState { pokes: Cell::new(0) })).collect();
    for (node, st) in m.nodes().iter().zip(&states) {
        Load::register_all(m.rpc(), node.id(), Rc::clone(st), mode);
    }
    Rc::new(states)
}

fn setup(m: &oam_machine::Machine) -> Rc<Vec<Rc<PokeState>>> {
    setup_mode(m, RpcMode::Orpc)
}

#[test]
fn barriers_complete_while_spinners_serve_traffic() {
    for nprocs in [2usize, 3, 8, 17] {
        let m = MachineBuilder::new(nprocs).build();
        let states = setup(&m);
        let st = Rc::clone(&states);
        m.run(move |env| {
            let _ = Rc::clone(&st);
            async move {
                for round in 0..4u64 {
                    // Uneven work so some nodes spin at the barrier while
                    // others are still sending.
                    env.charge_micros(10 * (env.id().index() as u64 + 1)).await;
                    let dst = NodeId((env.id().index() + 1) % env.nprocs());
                    for _ in 0..=round {
                        Load::poke::send(env.rpc(), env.node(), dst).await;
                    }
                    env.barrier().await;
                }
            }
        });
        let total: u64 = states.iter().map(|s| s.pokes.get()).sum();
        assert_eq!(total, (nprocs as u64) * (1 + 2 + 3 + 4), "nprocs={nprocs}");
    }
}

#[test]
fn reductions_interleave_with_rpc_traffic() {
    let m = MachineBuilder::new(6).build();
    let states = setup(&m);
    let sum = Reducer::new(m.collectives(), |a: &u64, b: &u64| a + b);
    let st = Rc::clone(&states);
    let results: Rc<std::cell::RefCell<Vec<u64>>> = Rc::default();
    let res = Rc::clone(&results);
    m.run(move |env| {
        let sum = sum.clone();
        let _ = Rc::clone(&st);
        let res = Rc::clone(&res);
        async move {
            let mut acc = 0;
            for round in 0..5u64 {
                let dst = NodeId((env.id().index() + 1) % env.nprocs());
                Load::poke::send(env.rpc(), env.node(), dst).await;
                acc += sum.reduce(env.node(), env.id().index() as u64 + round).await;
            }
            res.borrow_mut().push(acc);
        }
    });
    let results = results.borrow();
    assert_eq!(results.len(), 6);
    assert!(results.windows(2).all(|w| w[0] == w[1]), "all nodes saw identical sums: {results:?}");
}

#[test]
fn every_config_combination_completes_a_mixed_workload() {
    for policy in [QueuePolicy::Front, QueuePolicy::Back] {
        for strategy in [AbortStrategy::Promote, AbortStrategy::Rerun, AbortStrategy::Nack] {
            for mode in [RpcMode::Orpc, RpcMode::Trpc] {
                let cfg =
                    MachineConfig::cm5(4).with_queue_policy(policy).with_abort_strategy(strategy);
                let m = MachineBuilder::from_config(cfg).build();
                let states = setup_mode(&m, mode);
                let st = Rc::clone(&states);
                let report = m.try_run(move |env| {
                    let _ = Rc::clone(&st);
                    async move {
                        let dst = NodeId((env.id().index() + 2) % env.nprocs());
                        for _ in 0..6 {
                            Load::poke::send(env.rpc(), env.node(), dst).await;
                            env.yield_now().await;
                        }
                        env.barrier().await;
                    }
                });
                assert!(report.completed, "{policy:?}/{strategy:?}/{mode:?} deadlocked");
                let total: u64 = states.iter().map(|s| s.pokes.get()).sum();
                assert_eq!(total, 24, "{policy:?}/{strategy:?}/{mode:?}");
            }
        }
    }
}

#[test]
fn alewife_like_machines_run_the_same_workload() {
    let m = MachineBuilder::from_config(MachineConfig::alewife_like(4)).build();
    let states = setup(&m);
    let st = Rc::clone(&states);
    m.run(move |env| {
        let _ = Rc::clone(&st);
        async move {
            let dst = NodeId((env.id().index() + 1) % env.nprocs());
            for _ in 0..20 {
                Load::poke::send(env.rpc(), env.node(), dst).await;
            }
            env.barrier().await;
        }
    });
    let total: u64 = states.iter().map(|s| s.pokes.get()).sum();
    assert_eq!(total, 80);
}

/// Contributions of a type with drop glue travel between shards behind
/// an `Arc` (the scalar types travel inline); every shard folds the same
/// values in the same order, at every shard count and on both backends.
#[test]
fn a_reducer_over_a_type_with_drop_glue_works_across_shards() {
    const NODES: usize = 8;
    const ROUNDS: u64 = 3;
    let configs = [
        MachineConfig::cm5(NODES).with_shards(1),
        MachineConfig::cm5(NODES).with_shards(2),
        MachineConfig::cm5(NODES).with_shards(4),
        MachineConfig::cm5(NODES).with_backend(Backend::Native),
    ];
    for cfg in configs {
        let label = format!("{} shards, {:?}", cfg.shards, cfg.backend);
        let (report, answer) = run_partitioned(cfg, |machine| {
            // Merge sorted lists: associative and commutative.
            let merge = Reducer::new(machine.collectives(), |a: &Vec<String>, b: &Vec<String>| {
                let mut v: Vec<String> = a.iter().chain(b).cloned().collect();
                v.sort();
                v
            });
            let out: Rc<RefCell<Vec<Vec<String>>>> = Rc::default();
            let o = Rc::clone(&out);
            ShardApp {
                main: Box::new(move |env| {
                    let (merge, o) = (merge.clone(), Rc::clone(&o));
                    Box::pin(async move {
                        for round in 0..ROUNDS {
                            let mine = vec![format!("r{round}n{}", env.id().index())];
                            let all = merge.reduce(env.node(), mine).await;
                            if env.id().index() == 0 {
                                o.borrow_mut().push(all);
                            }
                        }
                    })
                }),
                finish: Box::new(move |_| out.take()),
            }
        });
        assert!(report.completed, "{label}");
        let expect: Vec<Vec<String>> = (0..ROUNDS)
            .map(|r| {
                let mut v: Vec<String> = (0..NODES).map(|n| format!("r{r}n{n}")).collect();
                v.sort();
                v
            })
            .collect();
        assert_eq!(answer, expect, "{label}");
    }
}
