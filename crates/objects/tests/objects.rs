//! End-to-end tests of the Orca-style object layer on the simulated
//! machine.

use std::cell::Cell;
use std::rc::Rc;

use oam_machine::MachineBuilder;
use oam_model::{MachineConfig, NodeId};
use oam_objects::{ObjId, ObjectClass, Objects, Placement};
use oam_rpc::RpcMode;

fn counter_class() -> ObjectClass<u64> {
    ObjectClass::new().read("get", |s: &u64, (): ()| *s).write("add", |s: &mut u64, n: u64| {
        *s += n;
        *s
    })
}

fn histogram_class() -> ObjectClass<Vec<u64>> {
    ObjectClass::new()
        .read("total", |s: &Vec<u64>, (): ()| s.iter().sum::<u64>())
        .read("bucket", |s: &Vec<u64>, i: u64| s[i as usize])
        .write("bump", |s: &mut Vec<u64>, i: u64| {
            s[i as usize] += 1;
            s[i as usize]
        })
}

#[test]
fn single_placement_ships_every_operation_to_the_owner() {
    for mode in [RpcMode::Orpc, RpcMode::Trpc] {
        let m = MachineBuilder::new(4).build();
        let objects = Objects::new(m.rpc(), mode);
        objects.create(ObjId(1), Placement::Single { owner: NodeId(2) }, counter_class(), || 0u64);
        let objs = objects.clone();
        m.run(move |env| {
            let objs = objs.clone();
            async move {
                for i in 0..5u64 {
                    objs.invoke::<u64, u64>(env.node(), ObjId(1), "add", i).await;
                }
                env.barrier().await;
                let v: u64 = objs.invoke(env.node(), ObjId(1), "get", ()).await;
                assert_eq!(v, 4 * 10, "all 4 nodes added 0+1+2+3+4");
            }
        });
        assert_eq!(objects.peek::<u64, _>(NodeId(2), ObjId(1), |v| *v), Some(40), "{mode:?}");
        assert_eq!(
            objects.peek::<u64, _>(NodeId(0), ObjId(1), |v| *v),
            None,
            "no replica off-owner"
        );
    }
}

#[test]
fn replicated_reads_are_local_and_free_of_messages() {
    let m = MachineBuilder::new(4).build();
    let objects = Objects::new(m.rpc(), RpcMode::Orpc);
    objects
        .create(ObjId(7), Placement::Replicated { manager: NodeId(0) }, counter_class(), || 99u64);
    let objs = objects.clone();
    let report = m.run(move |env| {
        let objs = objs.clone();
        async move {
            for _ in 0..100 {
                let v: u64 = objs.invoke(env.node(), ObjId(7), "get", ()).await;
                assert_eq!(v, 99);
            }
        }
    });
    // 400 reads, zero messages.
    assert_eq!(report.stats.total().messages_sent, 0);
    assert_eq!(report.stats.total().rpcs_sync, 0);
}

#[test]
fn replicated_writes_converge_on_every_node() {
    let m = MachineBuilder::new(6).build();
    let objects = Objects::new(m.rpc(), RpcMode::Orpc);
    objects.create(
        ObjId(3),
        Placement::Replicated { manager: NodeId(1) },
        histogram_class(),
        || vec![0u64; 8],
    );
    let objs = objects.clone();
    m.run(move |env| {
        let objs = objs.clone();
        async move {
            let me = env.id().index() as u64;
            for k in 0..10u64 {
                objs.invoke::<u64, u64>(env.node(), ObjId(3), "bump", (me + k) % 8).await;
            }
            // Two barriers: writes acknowledged ≠ updates applied; the
            // second barrier follows the last update broadcast.
            env.barrier().await;
            env.barrier().await;
            let total: u64 = objs.invoke(env.node(), ObjId(3), "total", ()).await;
            assert_eq!(total, 60, "6 nodes x 10 bumps, read from the local replica");
        }
    });
    // Every replica holds the identical histogram.
    let reference = objects.peek::<Vec<u64>, _>(NodeId(0), ObjId(3), Clone::clone).unwrap();
    assert_eq!(reference.iter().sum::<u64>(), 60);
    for n in 1..6 {
        let got = objects.peek::<Vec<u64>, _>(NodeId(n), ObjId(3), Clone::clone).unwrap();
        assert_eq!(got, reference, "replica {n} diverged");
    }
}

#[test]
fn orpc_object_invocations_run_in_handlers() {
    let m = MachineBuilder::new(3).build();
    let objects = Objects::new(m.rpc(), RpcMode::Orpc);
    objects.create(ObjId(1), Placement::Single { owner: NodeId(0) }, counter_class(), || 0u64);
    let objs = objects.clone();
    let report = m.run(move |env| {
        let objs = objs.clone();
        async move {
            if env.id().index() != 0 {
                for _ in 0..20u64 {
                    objs.invoke::<u64, u64>(env.node(), ObjId(1), "add", 1).await;
                }
            }
            env.barrier().await;
        }
    });
    let t = report.stats.total();
    assert_eq!(t.oam_successes, 40, "every method call ran optimistically");
    assert_eq!(t.threads_created, 3, "node mains only — no per-call threads");
}

#[test]
fn deterministic_across_runs() {
    let run_once = || {
        let m = MachineBuilder::from_config(MachineConfig::cm5(4).with_seed(5)).build();
        let objects = Objects::new(m.rpc(), RpcMode::Orpc);
        objects.create(
            ObjId(9),
            Placement::Replicated { manager: NodeId(3) },
            counter_class(),
            || 0,
        );
        let objs = objects.clone();
        let out = Rc::new(Cell::new(0u64));
        let o = Rc::clone(&out);
        let report = m.run(move |env| {
            let objs = objs.clone();
            let o = Rc::clone(&o);
            async move {
                objs.invoke::<u64, u64>(env.node(), ObjId(9), "add", env.id().index() as u64).await;
                env.barrier().await;
                env.barrier().await;
                if env.id().index() == 0 {
                    o.set(objs.invoke::<(), u64>(env.node(), ObjId(9), "get", ()).await);
                }
            }
        });
        (report.end_time, out.get())
    };
    let a = run_once();
    let b = run_once();
    assert_eq!(a, b);
    assert_eq!(a.1, 1 + 2 + 3);
}
