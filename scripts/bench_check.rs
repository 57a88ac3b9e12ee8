//! Benchmark gates, one per clock.
//!
//! **Deterministic gate.** Compares the `paper` binary's fresh row report,
//! `PAPER_results.json`, against the committed baseline `PAPER_rows.json`.
//! Every row is a simulator run or a sequential baseline, and every gated
//! column is a pure function of the workload, so any drift is a real
//! change: each row must reproduce `answer`, `events`, `virtual_us`,
//! `run_us`, `peak_queue_depth`, `epochs`, `deposits`, `batches` and the
//! OAM counters (attempts, successes, promotions, reruns, NACKs sent)
//! exactly, and may grow `allocs` by at most 20% and `p99_us` by at most
//! 25%. The report holds no host time.
//!
//! **Host-time pairs.** `pairs <parent-rev>` builds e2ebench at the
//! parent revision (a detached worktree under `.bench_build/`) and in the
//! current tree, runs every `BENCHMARK.json` workload in ten alternating
//! parent/change pairs on seeds 21–30, and fails when a change median of
//! an end-to-end metric is worse than the parent median by more than the
//! metric's bound, when a run's output check fails, or when the change
//! fails a larger share of its operations. One traced pair on the
//! held-out seed then ranks each workload's per-layer rows by relative
//! move, worst first; they have no bounds and are reported, not gated.
//!
//! Dependency-free single file, so it builds without the workspace:
//!
//! ```sh
//! rustc -O --edition 2021 scripts/bench_check.rs -o bench_check
//! ./bench_check PAPER_rows.json PAPER_results.json
//! ./bench_check pairs origin/main        # from the repository root
//! rustc --test --edition 2021 scripts/bench_check.rs -o bench_check_test && ./bench_check_test
//! ```
//!
//! The parser handles exactly the JSON subset the row reports, e2ebench
//! and `BENCHMARK.json` use (flat string/number fields, arrays of flat
//! objects) — it is not a general JSON parser and does not try to be.

// The unit tests reach only the deterministic gate.
#![cfg_attr(test, allow(dead_code))]

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

/// Columns a row must reproduce exactly. A column absent from both rows
/// (a sequential baseline has no events) passes.
const EXACT: [&str; 13] = [
    "answer",
    "events",
    "virtual_us",
    "run_us",
    "peak_queue_depth",
    "epochs",
    "deposits",
    "batches",
    "oam_attempts",
    "oam_successes",
    "oam_promotions",
    "oam_reruns",
    "oam_nacks_sent",
];

/// One-sided growth bands: (column, max growth as a fraction of the
/// baseline). Allocation counts differ by a handful between host core
/// counts (worker spawns on the sharded rows), so they get a band rather
/// than equality. The p99 histogram is log-bucketed: one bucket step is
/// ~25%. A zero or absent baseline skips the band; a baseline value with
/// no result value fails it.
const BANDS: [(&str, f64); 2] = [("allocs", 0.20), ("p99_us", 0.25)];

/// Alternating parent/change pairs per workload, on seeds 21, 22, ...
const PAIRS: u64 = 10;
const FIRST_SEED: u64 = 21;
/// e2ebench's held-out seed, used for the traced pair.
const HELD_OUT_SEED: u64 = 7919;
/// Where the parent worktree and both build directories live (ignored).
const BUILD_DIR: &str = ".bench_build";

/// Extract the value of `"key": ...` from a flat object body. String
/// values lose their quotes; numbers come back as the raw token.
fn field(body: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\"");
    let i = body.find(&pat)? + pat.len();
    let rest = body[i..].trim_start().strip_prefix(':')?.trim_start();
    if let Some(s) = rest.strip_prefix('"') {
        Some(s[..s.find('"')?].to_string())
    } else {
        let end = rest.find([',', '\n', '}']).unwrap_or(rest.len());
        Some(rest[..end].trim().to_string())
    }
}

fn num(body: &str, key: &str) -> Option<f64> {
    field(body, key)?.parse().ok()
}

/// Split the `"key": [ {..}, {..} ]` array into per-object bodies.
fn array_bodies(json: &str, key: &str) -> Vec<String> {
    let Some(start) = json.find(&format!("\"{key}\"")) else { return Vec::new() };
    let Some(open) = json[start..].find('[').map(|i| start + i) else { return Vec::new() };
    let mut bodies = Vec::new();
    let mut depth = 0usize;
    let mut obj_start = None;
    for (i, c) in json[open..].char_indices() {
        match c {
            '{' => {
                if depth == 0 {
                    obj_start = Some(open + i);
                }
                depth += 1;
            }
            '}' => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    if let Some(s) = obj_start.take() {
                        bodies.push(json[s + 1..open + i].to_string());
                    }
                }
            }
            ']' if depth == 0 => break,
            _ => {}
        }
    }
    bodies
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

/// The gate failures of one baseline row against its result row.
fn check_row(name: &str, base: &str, new: &str) -> Vec<String> {
    let mut failures = Vec::new();
    for k in EXACT {
        let (b, n) = (field(base, k), field(new, k));
        if b != n {
            let show = |v: Option<String>| v.unwrap_or_else(|| "absent".into());
            failures.push(format!("{name}: {k} {} (baseline) vs {} (result)", show(b), show(n)));
        }
    }
    for (k, limit) in BANDS {
        let Some(b) = num(base, k) else { continue };
        let Some(n) = num(new, k) else {
            failures.push(format!("{name}: {k} {b} (baseline) vs absent (result)"));
            continue;
        };
        if b > 0.0 && (n - b) / b > limit {
            failures.push(format!(
                "{name}: {k} {b} (baseline) vs {n} (result), {:+.1}% > +{:.0}% limit",
                (n - b) / b * 100.0,
                limit * 100.0
            ));
        }
    }
    failures
}

fn deterministic_gate(base_path: &str, new_path: &str) -> Result<Vec<String>, String> {
    gate(&read(base_path)?, &read(new_path)?)
}

/// The deterministic gate over two row reports' contents.
fn gate(base_json: &str, new_json: &str) -> Result<Vec<String>, String> {
    let base = array_bodies(base_json, "suites");
    let new = array_bodies(new_json, "suites");
    if base.is_empty() || new.is_empty() {
        return Err(format!("no suites parsed (baseline: {}, new: {})", base.len(), new.len()));
    }
    let name = |body: &String| field(body, "name").unwrap_or_default();
    let mut failures = Vec::new();
    for b in &base {
        let row = name(b);
        let row_failures = match new.iter().find(|n| name(n) == row) {
            Some(n) => check_row(&row, b, n),
            None => vec![format!("{row}: missing from new results")],
        };
        let verdict = if row_failures.is_empty() { "ok" } else { "FAILED" };
        println!("{row:<40} {verdict}");
        failures.extend(row_failures);
    }
    // An unknown result row would be silently ungated.
    for n in &new {
        let row = name(n);
        if !base.iter().any(|b| name(b) == row) {
            println!("{row:<40} UNKNOWN");
            failures.push(format!("{row}: present in results but missing from the baseline"));
        }
    }
    Ok(failures)
}

/// An end-to-end or per-layer metric `BENCHMARK.json` declares.
struct MetricSpec {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

fn metric_specs(bench: &str, key: &str) -> Vec<MetricSpec> {
    array_bodies(bench, key)
        .iter()
        .map(|b| MetricSpec {
            name: field(b, "name").unwrap_or_default(),
            lower_is_better: field(b, "better").as_deref() != Some("higher"),
            bound: num(b, "bound").unwrap_or(0.0),
        })
        .collect()
}

/// The last line of one e2ebench run: its JSON summary.
struct RunLine(String);

impl RunLine {
    fn correct(&self) -> bool {
        field(&self.0, "correct").as_deref() == Some("true")
    }
    fn count(&self, key: &str) -> f64 {
        num(&self.0, key).unwrap_or(0.0)
    }
    fn metric(&self, name: &str) -> Option<f64> {
        let i = self.0.find(&format!("\"{name}\": {{"))?;
        num(&self.0[i..], "value")
    }
}

/// Run one e2ebench binary from its tree's root and return its JSON line.
fn run_e2e(
    bin: &Path,
    root: &Path,
    workload: &str,
    seed: u64,
    secs: &str,
    trace: bool,
) -> Result<RunLine, String> {
    let out = Command::new(bin)
        .current_dir(root)
        .args(["--workload", workload, "--seed", &seed.to_string(), "--seconds", secs])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("cannot run {}: {e}", bin.display()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    match stdout.lines().rev().find(|l| l.starts_with('{')) {
        Some(line) => Ok(RunLine(line.to_string())),
        None => Err(format!(
            "{workload} seed {seed} at {}: no JSON line ({}): {}",
            root.display(),
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        )),
    }
}

fn run_cmd(cmd: &mut Command) -> Result<(), String> {
    let status = cmd.status().map_err(|e| format!("cannot run {cmd:?}: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("{cmd:?} failed: {status}"))
    }
}

/// Build e2ebench from `root` into `target` and return the binary path.
fn build_e2e(root: &Path, target: &Path) -> Result<PathBuf, String> {
    let manifest = root.join("e2ebench/Cargo.toml");
    run_cmd(Command::new("cargo").args(["build", "--release", "--offline", "--quiet"]).args([
        "--manifest-path".as_ref(),
        manifest.as_os_str(),
        "--target-dir".as_ref(),
        target.as_os_str(),
    ]))?;
    Ok(target.join("release/oam-e2ebench"))
}

fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 0 {
        (s[m - 1] + s[m]) / 2.0
    } else {
        s[m]
    }
}

/// Relative move from `parent` to `change`, positive when worse.
fn worse_by(spec_lower_is_better: bool, parent: f64, change: f64) -> f64 {
    let d = if spec_lower_is_better { change - parent } else { parent - change };
    if parent != 0.0 {
        d / parent.abs()
    } else if d == 0.0 {
        0.0
    } else {
        d.signum() * f64::INFINITY
    }
}

fn pairs(parent_rev: &str) -> Result<Vec<String>, String> {
    let bench =
        read("BENCHMARK.json").map_err(|e| format!("{e} (run from the repository root)"))?;
    let secs = field(&bench, "run_seconds").ok_or("BENCHMARK.json has no run_seconds")?;
    let workloads: Vec<String> =
        array_bodies(&bench, "workloads").iter().filter_map(|b| field(b, "name")).collect();
    let e2e = metric_specs(&bench, "end_to_end");
    let layers = metric_specs(&bench, "per_layer");

    // Absolute, because each binary runs with its own tree as working
    // directory.
    let cwd = std::env::current_dir().map_err(|e| format!("no working directory: {e}"))?;
    let build = cwd.join(BUILD_DIR);
    let parent_root = build.join("parent");
    // Cleanup calls: a missing worktree is not an error, so output is dropped.
    let worktree = |args: &[&str]| Command::new("git").arg("worktree").args(args).output();
    let _ = worktree(&["remove", "--force", &parent_root.to_string_lossy()]);
    let _ = std::fs::remove_dir_all(&parent_root);
    let _ = worktree(&["prune"]);
    run_cmd(
        Command::new("git").args(["worktree", "add", "--detach"]).arg(&parent_root).arg(parent_rev),
    )?;
    let bins = build_e2e(&parent_root, &build.join("target-parent"))
        .and_then(|p| Ok((p, build_e2e(&cwd, &build.join("target-change"))?)));
    let result = bins.map(|(parent_bin, change_bin)| {
        let sides = [(parent_bin.as_path(), parent_root.as_path()), (&change_bin, &cwd)];
        compare(&sides, &workloads, &secs, &e2e, &layers)
    });
    let _ = worktree(&["remove", "--force", &parent_root.to_string_lossy()]);
    result?
}

/// Run the pairs and the traced pair; `sides[0]` is the parent.
fn compare(
    sides: &[(&Path, &Path); 2],
    workloads: &[String],
    secs: &str,
    e2e: &[MetricSpec],
    layers: &[MetricSpec],
) -> Result<Vec<String>, String> {
    let mut failures = Vec::new();
    for w in workloads {
        // runs[0] holds the parent's lines, runs[1] the change's.
        let mut runs: [Vec<RunLine>; 2] = [Vec::new(), Vec::new()];
        for seed in FIRST_SEED..FIRST_SEED + PAIRS {
            // Alternate which side goes first, so drift hits both alike.
            let order = if seed % 2 == 1 { [0, 1] } else { [1, 0] };
            for side in order {
                let (bin, root) = sides[side];
                runs[side].push(run_e2e(bin, root, w, seed, secs, false)?);
            }
            let show = |side: usize| {
                let l = runs[side].last().expect("just pushed");
                e2e.iter()
                    .map(|m| format!("{}={:.4e}", m.name, l.metric(&m.name).unwrap_or(f64::NAN)))
                    .collect::<Vec<_>>()
                    .join(" ")
            };
            println!("{w} seed {seed}: parent {} | change {}", show(0), show(1));
        }
        for (side, label) in [(0, "parent"), (1, "change")] {
            if let Some(bad) = runs[side].iter().position(|l| !l.correct()) {
                failures.push(format!(
                    "{w}: {label} run on seed {} printed correct: false",
                    FIRST_SEED + bad as u64
                ));
            }
        }
        let share = |side: usize| {
            let (f, a) = runs[side]
                .iter()
                .fold((0.0, 0.0), |(f, a), l| (f + l.count("failed"), a + l.count("attempted")));
            if a > 0.0 {
                f / a
            } else {
                0.0
            }
        };
        if share(1) > share(0) {
            failures.push(format!(
                "{w}: failed share {:.3e} (change) > {:.3e} (parent)",
                share(1),
                share(0)
            ));
        }
        println!(
            "\n{w}: {:<16} {:>14} {:>14} {:>8} {:>6} {:>6}  verdict",
            "metric", "parent", "change", "worse", "bound", "wins"
        );
        for m in e2e {
            let vals = |side: usize| -> Vec<f64> {
                runs[side].iter().map(|l| l.metric(&m.name).unwrap_or(f64::NAN)).collect()
            };
            let (p, c) = (vals(0), vals(1));
            let worse = worse_by(m.lower_is_better, median(&p), median(&c));
            let wins = p
                .iter()
                .zip(&c)
                .filter(|(p, c)| worse_by(m.lower_is_better, **p, **c) < 0.0)
                .count();
            let ok = worse <= m.bound;
            println!(
                "{w}: {:<16} {:>14.6e} {:>14.6e} {:>+7.1}% {:>5.0}% {:>3}/{PAIRS}  {}",
                m.name,
                median(&p),
                median(&c),
                worse * 100.0,
                m.bound * 100.0,
                wins,
                if ok { "ok" } else { "WORSE" }
            );
            if !ok {
                failures.push(format!(
                    "{w}: {} median {:.6e} (change) vs {:.6e} (parent), {:+.1}% worse > {:.0}% bound",
                    m.name,
                    median(&c),
                    median(&p),
                    worse * 100.0,
                    m.bound * 100.0
                ));
            }
        }
        // The traced pair: per-layer rows, ranked so a failure names its layer.
        let [(pb, pr), (cb, cr)] = *sides;
        let (tp, tc) = (
            run_e2e(pb, pr, w, HELD_OUT_SEED, secs, true)?,
            run_e2e(cb, cr, w, HELD_OUT_SEED, secs, true)?,
        );
        if !tp.correct() || !tc.correct() {
            failures
                .push(format!("{w}: traced run on seed {HELD_OUT_SEED} printed correct: false"));
        }
        let mut rows: Vec<(f64, &str, f64, f64)> = layers
            .iter()
            .filter_map(|m| {
                let (p, c) = (tp.metric(&m.name)?, tc.metric(&m.name)?);
                Some((worse_by(m.lower_is_better, p, c), m.name.as_str(), p, c))
            })
            .collect();
        rows.sort_by(|a, b| b.0.total_cmp(&a.0));
        println!(
            "{w}: per-layer rows on seed {HELD_OUT_SEED}, worst move first (reported, not gated)"
        );
        for (d, n, p, c) in rows {
            println!("{w}: {n:<38} {p:>14.6e} {c:>14.6e} {:>+9.1}%", d * 100.0);
        }
        println!();
    }
    Ok(failures)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        ["pairs", parent] => pairs(parent),
        [base, new] if base != "pairs" => deterministic_gate(base, new),
        _ => {
            eprintln!("usage: bench_check PAPER_rows.json PAPER_results.json");
            eprintln!("       bench_check pairs <parent-rev>   (from the repository root)");
            return ExitCode::from(2);
        }
    };
    match result {
        Err(e) => {
            eprintln!("bench_check: {e}");
            ExitCode::from(2)
        }
        Ok(failures) if failures.is_empty() => {
            println!("\nbench_check: all gates pass");
            ExitCode::SUCCESS
        }
        Ok(failures) => {
            eprintln!("\nbench_check: {} failure(s):", failures.len());
            for f in &failures {
                eprintln!("  - {f}");
            }
            if let [base, _] = &args[..] {
                eprintln!(
                    "if intentional, re-record with `cargo run --release -p oam-bench --bin paper \
                     -- --out {base}`"
                );
            }
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A row body with `virtual_us` and `allocs` as given.
    fn row(virtual_us: &str, allocs: u64) -> String {
        format!(
            "\"name\": \"r\", \"virtual_us\": {virtual_us}, \"answer\": 7, \"allocs\": {allocs}"
        )
    }

    fn report(rows: &[&str]) -> String {
        let bodies: Vec<String> = rows.iter().map(|r| format!("{{{r}}}")).collect();
        format!("{{\"schema\": 1, \"suites\": [{}]}}", bodies.join(", "))
    }

    #[test]
    fn an_unchanged_row_passes() {
        assert!(check_row("r", &row("1.500", 10), &row("1.500", 10)).is_empty());
    }

    #[test]
    fn a_moved_exact_column_fails() {
        let failures = check_row("r", &row("1.500", 10), &row("1.501", 10));
        assert_eq!(failures, ["r: virtual_us 1.500 (baseline) vs 1.501 (result)"]);
    }

    #[test]
    fn a_column_absent_on_both_sides_passes() {
        // Neither row has `events` or the OAM counters: a sequential baseline.
        let base = "\"name\": \"seq\", \"virtual_us\": 2.000, \"answer\": 1";
        assert!(check_row("seq", base, base).is_empty());
    }

    #[test]
    fn a_column_present_on_one_side_fails() {
        let with = format!("{}, \"oam_reruns\": 0", row("1.500", 10));
        let failures = check_row("r", &with, &row("1.500", 10));
        assert_eq!(failures, ["r: oam_reruns 0 (baseline) vs absent (result)"]);
    }

    #[test]
    fn an_allocation_band_breach_fails_and_growth_within_it_passes() {
        assert!(check_row("r", &row("1.500", 100), &row("1.500", 120)).is_empty());
        let failures = check_row("r", &row("1.500", 100), &row("1.500", 121));
        assert_eq!(failures.len(), 1);
        assert!(
            failures[0].starts_with("r: allocs 100 (baseline) vs 121 (result)"),
            "{failures:?}"
        );
    }

    #[test]
    fn a_band_column_missing_from_the_result_fails() {
        // A row whose binary lost its counting allocator writes no `allocs`.
        let without = row("1.500", 100).replace(", \"allocs\": 100", "");
        let failures = check_row("r", &row("1.500", 100), &without);
        assert_eq!(failures, ["r: allocs 100 (baseline) vs absent (result)"]);
    }

    #[test]
    fn an_unknown_result_row_fails_the_gate() {
        let base = report(&[&row("1.500", 10)]);
        let extra = row("1.500", 10).replace("\"r\"", "\"new_row\"");
        let new = report(&[&row("1.500", 10), &extra]);
        let failures = gate(&base, &new).expect("both reports parse");
        assert_eq!(failures, ["new_row: present in results but missing from the baseline"]);
    }

    #[test]
    fn a_row_missing_from_the_results_fails_the_gate() {
        let base = report(&[&row("1.500", 10)]);
        let other = row("1.500", 10).replace("\"r\"", "\"other\"");
        let failures = gate(&base, &report(&[&other])).expect("both reports parse");
        assert!(failures.contains(&"r: missing from new results".to_string()), "{failures:?}");
    }
}
