//! Benchmark regression gate.
//!
//! Compares a fresh `BENCH_results.json` (written by the `perfsuite`
//! binary) against the committed `BENCH_baseline.json` and exits non-zero
//! if any suite's wall-clock regressed by more than the threshold, or if a
//! suite's deterministic counters (events, answer) drifted — a drift means
//! the two files aren't measuring the same work and the wall-clock
//! comparison would be meaningless.
//!
//! Dependency-free single file so CI can run it without touching the
//! workspace build graph:
//!
//! ```sh
//! rustc -O scripts/bench_check.rs -o /tmp/bench_check
//! /tmp/bench_check BENCH_baseline.json BENCH_results.json
//! ```
//!
//! The parser handles exactly the JSON subset `perfsuite` emits (flat
//! string/number fields, one array of suite objects) — it is not a general
//! JSON parser and does not try to be.

use std::process::ExitCode;

/// Maximum tolerated wall-clock growth per suite, as a fraction of the
/// baseline (0.15 = +15%). Above this, the gate fails.
const MAX_WALL_REGRESSION: f64 = 0.15;

/// Wall threshold for suites gated `"wall"` or `"wall_answer"` — the
/// native-backend rows, whose wall clock is *real* time on a shared CI
/// host (observed drift on the same container across days exceeds 30%).
/// The looser bound still catches order-of-magnitude breakage without
/// tripping on scheduler noise.
const MAX_WALL_REGRESSION_NATIVE: f64 = 0.50;

/// Minimum batch-amortization ratio between the small-AM storm pair: the
/// naive per-message row must publish at least this many times more
/// batches (== wake signals issued) than the batched row. The ratio is
/// not deterministic: batched senders publish at the high-water mark and
/// at pass boundaries, and how many deposits a pass gathers depends on
/// host timing, so a slow or busy host batches less (1.8x has been seen
/// on a 2-core host). A failure means the batching stopped coalescing or
/// the host starved the producers.
const MIN_STORM_BATCH_RATIO: f64 = 2.0;
const STORM_SUITE: &str = "native_small_am_storm";
const STORM_NAIVE_SUITE: &str = "native_small_am_storm_naive";

/// Maximum tolerated p99 latency growth for service suites (0.25 = +25%).
/// The quantile is virtual-time, hence deterministic for a fixed workload,
/// but the histogram is log-bucketed: one bucket step is ~25%, so the
/// threshold trips on any real bucket move while ignoring formatting
/// noise. Suites without a `p99_us` field (or a zero baseline) skip the
/// check, mirroring the allocs gate.
const MAX_P99_REGRESSION: f64 = 0.25;

/// Maximum tolerated heap-allocation-count growth per suite (0.20 = +20%).
/// Unlike wall-clock, alloc counts are deterministic for a fixed workload,
/// so growth past the threshold means the code path really did start
/// allocating more — the slack only absorbs intentional small changes that
/// don't warrant re-recording.
const MAX_ALLOC_REGRESSION: f64 = 0.20;

#[derive(Debug, Default, Clone)]
struct Suite {
    name: String,
    /// Gate level, read from the *baseline* row: `"full"` (default when
    /// absent — pre-gates baselines), `"wall_answer"`, or `"wall"`.
    gates: String,
    wall_ms: f64,
    events: u64,
    answer: u64,
    allocs: u64,
    epochs: u64,
    deposits: u64,
    batches: u64,
    p99_us: f64,
}

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

/// Split the `"suites": [ {..}, {..} ]` array into per-suite object bodies.
fn suite_bodies(json: &str) -> Vec<String> {
    let Some(start) = json.find("\"suites\"") else { return Vec::new() };
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

fn parse_suites(json: &str) -> Vec<Suite> {
    suite_bodies(json)
        .iter()
        .map(|body| {
            let num = |k: &str| field(body, k).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
            Suite {
                name: field(body, "name").unwrap_or_default(),
                gates: field(body, "gates").unwrap_or_else(|| "full".to_string()),
                wall_ms: num("wall_ms"),
                events: num("events") as u64,
                answer: num("answer") as u64,
                allocs: num("allocs") as u64,
                epochs: num("epochs") as u64,
                deposits: num("deposits") as u64,
                batches: num("batches") as u64,
                p99_us: num("p99_us"),
            }
        })
        .collect()
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let (Some(base_path), Some(new_path)) = (args.next(), args.next()) else {
        eprintln!("usage: bench_check BENCH_baseline.json BENCH_results.json");
        return ExitCode::from(2);
    };
    let read = |p: &str| match std::fs::read_to_string(p) {
        Ok(s) => Some(s),
        Err(e) => {
            eprintln!("bench_check: cannot read {p}: {e}");
            None
        }
    };
    let (Some(base_json), Some(new_json)) = (read(&base_path), read(&new_path)) else {
        return ExitCode::from(2);
    };
    let base = parse_suites(&base_json);
    let new = parse_suites(&new_json);
    if base.is_empty() || new.is_empty() {
        eprintln!(
            "bench_check: no suites parsed (baseline: {}, new: {})",
            base.len(),
            new.len()
        );
        return ExitCode::from(2);
    }

    // Every gate violation, phrased for the failure summary: suite name,
    // baseline vs result, percentage delta.
    let mut failures: Vec<String> = Vec::new();
    println!(
        "{:<24} {:>12} {:>12} {:>8}   verdict",
        "suite", "base ms", "new ms", "delta"
    );
    for b in &base {
        let Some(n) = new.iter().find(|n| n.name == b.name) else {
            println!("{:<24} {:>12.2} {:>12} {:>8}   MISSING from new results", b.name, b.wall_ms, "-", "-");
            failures.push(format!("{}: missing from new results (baseline {:.2} ms)", b.name, b.wall_ms));
            continue;
        };
        // The baseline row's gate level decides which checks apply. Rows
        // below `"full"` are native-backend suites whose skipped gates are
        // logged explicitly rather than silently exempted.
        let full = b.gates == "full";
        let check_answer = b.gates != "wall";
        let wall_limit = if full { MAX_WALL_REGRESSION } else { MAX_WALL_REGRESSION_NATIVE };
        if !full {
            println!(
                "{:<24} gates \"{}\": holding {} to +{:.0}% wall; skipping {} checks",
                b.name,
                b.gates,
                if check_answer { "answer exact and wall" } else { "wall only" },
                wall_limit * 100.0,
                if check_answer { "allocs/epochs/p99" } else { "answer/allocs/epochs/p99" },
            );
        }
        // Determinism cross-check: same suite definition must do the same
        // virtual work. `events` legitimately changes when the simulator or
        // workload changes — that's what re-recording the baseline is for —
        // but inside one CI run it must match the committed expectations
        // unless the PR also updates the baseline.
        if check_answer && n.answer != b.answer {
            println!(
                "{:<24} {:>12.2} {:>12.2} {:>8}   ANSWER DRIFT ({} -> {})",
                b.name, b.wall_ms, n.wall_ms, "-", b.answer, n.answer
            );
            failures
                .push(format!("{}: answer drift (baseline {} vs result {})", b.name, b.answer, n.answer));
            continue;
        }
        // The epoch count is a host-schedule invariant of the epoch engine:
        // it depends only on the fence policy and the deterministic virtual
        // workload, never on thread timing, so it must match *exactly*.
        // Baselines recorded before the counter existed (or suites running
        // the legacy/native engines) carry 0 — skip, same as allocs.
        if full && b.epochs > 0 && n.epochs != b.epochs {
            println!(
                "{:<24} {:>12.2} {:>12.2} {:>8}   EPOCH DRIFT ({} -> {})",
                b.name, b.wall_ms, n.wall_ms, "-", b.epochs, n.epochs
            );
            failures.push(format!(
                "{}: epoch drift (baseline {} vs result {}) — fence schedule changed; \
                 re-record if intentional",
                b.name, b.epochs, n.epochs
            ));
            continue;
        }
        // Delivery-layer determinism on epoch rows: deposits (boundary
        // records handed to the batch layer) and batches (non-empty slot
        // publishes) are host-schedule invariants of the epoch engine,
        // exactly like the epoch count. Native rows and pre-counter
        // baselines (deposits == 0) skip, same as allocs.
        if full && b.epochs > 0 && b.deposits > 0
            && (n.deposits != b.deposits || n.batches != b.batches)
        {
            println!(
                "{:<24} {:>12.2} {:>12.2} {:>8}   DELIVERY DRIFT (deposits {} -> {}, batches {} -> {})",
                b.name, b.wall_ms, n.wall_ms, "-", b.deposits, n.deposits, b.batches, n.batches
            );
            failures.push(format!(
                "{}: delivery drift (deposits {} vs {}, batches {} vs {}) — batch publish \
                 schedule changed; re-record if intentional",
                b.name, b.deposits, n.deposits, b.batches, n.batches
            ));
            continue;
        }
        let delta = (n.wall_ms - b.wall_ms) / b.wall_ms.max(1e-9);
        // Alloc counts are deterministic; gate them like wall-clock but
        // with their own threshold. Baselines recorded before alloc
        // tracking carry 0 — skip the check rather than divide by it.
        let alloc_delta = (full && b.allocs > 0)
            .then(|| (n.allocs as f64 - b.allocs as f64) / b.allocs as f64);
        // Service suites also carry a deterministic virtual-time p99; a
        // zero/absent baseline skips the check (same pattern as allocs).
        let p99_delta = (full && b.p99_us > 0.0).then(|| (n.p99_us - b.p99_us) / b.p99_us);
        let verdict = if delta > wall_limit {
            failures.push(format!(
                "{}: wall {:.2} ms (baseline) vs {:.2} ms (result), {:+.1}% > +{:.0}% limit",
                b.name,
                b.wall_ms,
                n.wall_ms,
                delta * 100.0,
                wall_limit * 100.0
            ));
            "REGRESSED"
        } else if alloc_delta.is_some_and(|d| d > MAX_ALLOC_REGRESSION) {
            failures.push(format!(
                "{}: allocs {} (baseline) vs {} (result), {:+.1}% > +{:.0}% limit",
                b.name,
                b.allocs,
                n.allocs,
                alloc_delta.unwrap_or(0.0) * 100.0,
                MAX_ALLOC_REGRESSION * 100.0
            ));
            "ALLOC REGRESSED"
        } else if p99_delta.is_some_and(|d| d > MAX_P99_REGRESSION) {
            failures.push(format!(
                "{}: p99 {:.0} us (baseline) vs {:.0} us (result), {:+.1}% > +{:.0}% limit",
                b.name,
                b.p99_us,
                n.p99_us,
                p99_delta.unwrap_or(0.0) * 100.0,
                MAX_P99_REGRESSION * 100.0
            ));
            "P99 REGRESSED"
        } else {
            "ok"
        };
        let events_note = if n.events != b.events { " (events changed; consider re-recording baseline)" } else { "" };
        let alloc_note = match alloc_delta {
            Some(d) => format!(" allocs {} -> {} ({:+.1}%)", b.allocs, n.allocs, d * 100.0),
            None => String::new(),
        };
        let p99_note = match p99_delta {
            Some(d) => format!(" p99 {:.0} -> {:.0} us ({:+.1}%)", b.p99_us, n.p99_us, d * 100.0),
            None => String::new(),
        };
        println!(
            "{:<24} {:>12.2} {:>12.2} {:>+7.1}%   {verdict}{alloc_note}{p99_note}{events_note}",
            b.name, b.wall_ms, n.wall_ms, delta * 100.0
        );
    }
    // Every result row must have a baseline row: an unknown suite means
    // perfsuite grew a workload without re-recording, and whatever it
    // measures is silently ungated. (This used to be how native rows
    // dodged the gate; they now sit in the baseline with explicit
    // `gates` levels instead.)
    for n in &new {
        if !base.iter().any(|b| b.name == n.name) {
            println!(
                "{:<24} {:>12} {:>12.2} {:>8}   UNKNOWN suite (absent from baseline)",
                n.name, "-", n.wall_ms, "-"
            );
            failures.push(format!(
                "{}: present in results but missing from baseline — re-record the baseline \
                 so the new suite is gated",
                n.name
            ));
        }
    }

    // The storm pair's amortization invariant: sender-side batching must
    // keep coalescing. Checked on the fresh results (both rows measured
    // this run, same host), not against the baseline.
    if let (Some(storm), Some(naive)) = (
        new.iter().find(|s| s.name == STORM_SUITE),
        new.iter().find(|s| s.name == STORM_NAIVE_SUITE),
    ) {
        let ratio = naive.batches as f64 / (storm.batches as f64).max(1.0);
        println!(
            "\nstorm amortization: naive {} batches / batched {} batches = {:.1}x (floor {:.1}x)",
            naive.batches, storm.batches, ratio, MIN_STORM_BATCH_RATIO
        );
        if storm.batches == 0 || ratio < MIN_STORM_BATCH_RATIO {
            failures.push(format!(
                "{STORM_SUITE}: batch amortization {ratio:.1}x below the {MIN_STORM_BATCH_RATIO:.1}x \
                 floor (naive {} vs batched {} publishes) — sender-side batching stopped coalescing",
                naive.batches, storm.batches
            ));
        }
    }

    if !failures.is_empty() {
        eprintln!("\nbench_check: {} suite(s) failed the gate:", failures.len());
        for f in &failures {
            eprintln!("  - {f}");
        }
        eprintln!(
            "if intentional, re-record with `cargo run --release -p oam-bench --bin perfsuite \
             -- --quick --out BENCH_baseline.json`"
        );
        return ExitCode::FAILURE;
    }
    println!(
        "\nbench_check: all suites within {:.0}% wall / {:.0}% allocs / {:.0}% p99 of baseline",
        MAX_WALL_REGRESSION * 100.0,
        MAX_ALLOC_REGRESSION * 100.0,
        MAX_P99_REGRESSION * 100.0
    );
    ExitCode::SUCCESS
}
