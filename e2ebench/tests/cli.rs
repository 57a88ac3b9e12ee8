//! The command's refusal paths: a set `OAM_*` variable and bad arguments
//! exit 2 without printing a result line.

use std::process::Command;

fn bench() -> Command {
    let mut c = Command::new(env!("CARGO_BIN_EXE_oam-e2ebench"));
    c.args(["--workload", "rpc_pingpong", "--seed", "1", "--seconds", "0", "--trace", "0"]);
    c
}

#[test]
fn refuses_to_run_while_an_oam_variable_is_set() {
    let out = bench().env("OAM_SHARDS", "2").output().expect("benchmark runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    assert!(String::from_utf8_lossy(&out.stderr).contains("OAM_SHARDS=2"));
}

#[test]
fn rejects_unknown_workloads_and_bad_values() {
    for args in [["--workload", "nope"], ["--trace", "2"], ["--seed", "x"], ["--seconds", "-1"]] {
        let out = bench().args(args).output().expect("benchmark runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
