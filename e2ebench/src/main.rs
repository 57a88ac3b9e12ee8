//! The benchmark command.
//!
//! ```sh
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload rpc_pingpong --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Prints a report (host fingerprint, configuration, every end-to-end
//! metric with its unit and sample count, and with `--trace 1` every
//! per-layer metric), then as its last line one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. Exits 1 when an output
//! check fails and 2 on a usage error or a set `OAM_*` variable.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use oam_e2ebench::{host, run_workload, trace, Metric, RunParams, Size, HELD_OUT_SEED, WORKLOADS};

#[global_allocator]
static ALLOC: oam_sim::CountingAlloc = oam_sim::CountingAlloc;

/// End-to-end metrics every workload reports in the JSON line, with units.
const JSON_E2E: [(&str, &str); 3] =
    [("setup_s", "s"), ("cal_ops_per_s", "1/s"), ("peak_rss_mb", "MiB")];

/// Spans written to the trace file of a traced run.
const SPANS_WRITTEN: usize = 4096;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("expected a number"))?;
                if !(0.0..=3600.0).contains(&s) {
                    return Err(bad("expected 0 to 3600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn print_metric(m: &Metric) {
    let mut line = format!("metric {:<36} {:>16.6} {:<6} n={}", m.name, m.value, m.unit, m.n);
    if let Some((label, v)) = m.tail {
        let _ = write!(line, " {label}={v:.6}");
    }
    println!("{line}");
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        // A non-finite value cannot be written as a JSON number; none of
        // the reported metrics can produce one, so this is a bug guard.
        let v = if m.value.is_finite() { m.value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(s, "{sep}\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}", m.name, m.unit);
    }
    s.push_str("}}");
    s
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let oam = host::oam_env();
    if !oam.is_empty() {
        eprintln!("error: refusing to run with OAM_* variables set: {}", oam.join(" "));
        return ExitCode::from(2);
    }
    let fp = host::fingerprint();
    println!(
        "# workload {} seed {} seconds {} trace {} (held-out seed for claim checks: {HELD_OUT_SEED})",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    println!("# host cores={} calib_ns={} oam_env=none", fp.cores, fp.calib_ns);
    let p =
        RunParams { seed: args.seed, seconds: args.seconds, trace: args.trace, size: Size::Full };
    let out = run_workload(&args.workload, &p).expect("workload name was validated");
    for n in &out.notes {
        println!("# {n}");
    }
    for m in &out.report {
        print_metric(m);
    }
    for m in &out.layers {
        print_metric(m);
    }
    if args.trace {
        let path = PathBuf::from(".bench_trace")
            .join(format!("{}-seed{}.jsonl", args.workload, args.seed));
        match trace::write_spans(&path, &out.spans, SPANS_WRITTEN) {
            Ok(n) => println!("# wrote {n} of {} spans to {}", out.spans.len(), path.display()),
            Err(e) => eprintln!("warning: could not write spans to {}: {e}", path.display()),
        }
    }
    for f in &out.check_failures {
        eprintln!("check failed: {f}");
    }
    let correct = out.check_failures.is_empty();
    // A run whose checks failed early may lack metrics; it still prints
    // the line (with zeros) so the failure is reported, not a crash.
    let metrics: Vec<Metric> = if args.trace {
        out.layers.clone()
    } else {
        JSON_E2E
            .iter()
            .map(|&(name, unit)| {
                out.report
                    .iter()
                    .find(|m| m.name == name)
                    .cloned()
                    .unwrap_or(Metric::one(name, unit, 0.0))
            })
            .collect()
    };
    println!("{}", json_line(correct, out.attempted, out.failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
