//! Smoke and determinism tests of the four workloads at tiny sizes.

use std::collections::HashSet;

use oam_e2ebench::{kv, pingpong, run_workload, stencil, Round as _, RunParams, Size, WORKLOADS};

fn tiny(seed: u64, trace: bool) -> RunParams {
    RunParams { seed, seconds: 0.0, trace, size: Size::Tiny }
}

/// Units of figures that do not come from the host clock.
const DETERMINISTIC_UNITS: [&str; 6] = ["vms", "vus", "1/vs", "count", "ratio", "B"];

#[test]
fn every_workload_runs_passes_its_checks_and_reports_every_metric() {
    for w in WORKLOADS {
        for trace in [false, true] {
            let out = run_workload(w, &tiny(3, trace)).expect("known workload");
            assert!(out.check_failures.is_empty(), "{w}: {:?}", out.check_failures);
            assert!(out.attempted > 0, "{w}");
            assert_eq!(out.failed, 0, "{w}");
            for name in
                ["setup_s", "host_setup_s", "cal_ops_per_s", "host_ops_per_s", "peak_rss_mb"]
            {
                let v = out.metric(name).unwrap_or_else(|| panic!("{w} lacks {name}"));
                assert!(v > 0.0 && v.is_finite(), "{w} {name} = {v}");
            }
            assert_eq!(out.metric("failed_frac"), Some(0.0), "{w}");
            if trace {
                let names: HashSet<&str> = out.layers.iter().map(|m| m.name.as_str()).collect();
                assert_eq!(names.len(), out.layers.len(), "{w}: duplicate layer names");
                assert!(out.layers.iter().all(|m| m.value.is_finite()), "{w}: {:?}", out.layers);
            } else {
                assert!(out.layers.is_empty());
            }
        }
    }
}

#[test]
fn virtual_and_counter_metrics_of_the_sim_workloads_repeat_exactly_per_seed() {
    for w in ["rpc_pingpong", "kv_openloop", "stencil_sharded"] {
        let a = run_workload(w, &tiny(5, true)).expect("known workload");
        let b = run_workload(w, &tiny(5, true)).expect("known workload");
        let pick = |o: &oam_e2ebench::Outcome| {
            o.report
                .iter()
                .chain(&o.layers)
                .filter(|m| {
                    DETERMINISTIC_UNITS.contains(&m.unit) && m.name != "trace.overhead_frac"
                })
                .map(|m| (m.name.clone(), m.value.to_bits(), m.n))
                .collect::<Vec<_>>()
        };
        let (pa, pb) = (pick(&a), pick(&b));
        assert!(pa.len() > 20, "{w}: too few deterministic metrics: {pa:?}");
        assert_eq!(pa, pb, "{w}");
    }
}

#[test]
fn rounds_repeat_for_a_seed_and_the_kv_schedule_follows_the_seed() {
    let p = |s| pingpong::round(s, 50, None);
    assert!(p(1).same(&p(1)));
    let k = |s| kv::round(s, kv::LOAD_X100, 40, None);
    assert!(k(1).same(&k(1)));
    assert!(!k(1).same(&k(2)), "the arrival schedule is drawn from the seed");
    let reference = stencil::reference(Size::Tiny);
    let s = |seed| stencil::round(seed, Size::Tiny, reference);
    assert!(s(1).same(&s(1)));
}
