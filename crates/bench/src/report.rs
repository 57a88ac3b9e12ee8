//! Tables and the JSON row report of the `paper` binary.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use oam_apps::AppOutcome;
use oam_model::Dur;
use oam_sim::AllocSnapshot;

/// The workspace root, resolved from this crate's manifest directory
/// (`crates/bench/` sits two levels below it). Canonicalized so harnesses
/// running with an arbitrary CWD still agree on one location; falls back to
/// the uncanonicalized path if the filesystem refuses (the join itself
/// cannot fail).
pub fn workspace_root() -> PathBuf {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..").join("..");
    root.canonicalize().unwrap_or(root)
}

/// Where `paper` writes its rows unless told otherwise, relative to the
/// workspace root.
const DEFAULT_OUT: &str = "PAPER_results.json";

/// The report path from the command line: `--out PATH`, else
/// `PAPER_results.json` at the workspace root. The binary takes no other
/// flag.
pub fn out_path() -> PathBuf {
    let mut out = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => out = Some(PathBuf::from(args.next().expect("--out needs a path"))),
            "--help" | "-h" => {
                println!(
                    "usage: paper [--out PATH]   (default: {DEFAULT_OUT} at the workspace root)"
                );
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown flag {other}; try --help");
                std::process::exit(2);
            }
        }
    }
    out.unwrap_or_else(|| workspace_root().join(DEFAULT_OUT))
}

/// One measured row of a report: a paper row, a sequential baseline or a
/// simulator performance row.
pub struct Row {
    /// Unique row name; `bench_check` matches baseline and result rows by it.
    pub name: String,
    /// The row's virtual time: a run's elapsed time, a sequential
    /// baseline's time, or a microbenchmark's mean round trip.
    pub virtual_time: Dur,
    /// Application answer (tour length, solution count, checksum...).
    pub answer: u64,
    /// The simulated run behind the row; `None` for a sequential baseline.
    pub run: Option<AppOutcome>,
    /// Heap allocations during the row: counted on the simulator
    /// performance rows only.
    pub alloc: Option<AllocSnapshot>,
    /// Row-specific columns, written after the common ones.
    pub extra: Vec<(&'static str, String)>,
}

impl Row {
    /// A row for one application run, timed by its elapsed virtual time.
    pub fn app(name: impl Into<String>, out: AppOutcome) -> Row {
        Row::new(name, out.elapsed, out.answer, Some(out))
    }

    /// A row with an explicit virtual time and answer.
    pub fn new(
        name: impl Into<String>,
        virtual_time: Dur,
        answer: u64,
        run: Option<AppOutcome>,
    ) -> Row {
        Row { name: name.into(), virtual_time, answer, run, alloc: None, extra: Vec::new() }
    }

    /// The run behind the row.
    ///
    /// # Panics
    /// Panics for a sequential baseline, which has none.
    pub fn outcome(&self) -> &AppOutcome {
        self.run.as_ref().unwrap_or_else(|| panic!("{} is a sequential baseline", self.name))
    }
}

/// The JSON report: `{"schema", "mode", "suites": [...]}`, one flat
/// object per row. Columns a row does not have are left out, so
/// `bench_check` sees them absent on both sides.
pub fn json_report(rows: &[Row]) -> String {
    let mut fields: Vec<(&str, String)> = Vec::new();
    let mut s = String::from("{\n  \"schema\": 1,\n  \"mode\": \"paper\",\n  \"suites\": [\n");
    for (i, r) in rows.iter().enumerate() {
        fields.clear();
        fields.push(("name", format!("\"{}\"", r.name)));
        fields.push(("virtual_us", format!("{:.3}", r.virtual_time.as_micros_f64())));
        fields.push(("answer", r.answer.to_string()));
        if let Some(a) = &r.alloc {
            fields.push(("allocs", a.allocs.to_string()));
            fields.push(("alloc_bytes", a.bytes.to_string()));
        }
        if let Some(out) = &r.run {
            if out.elapsed != r.virtual_time {
                fields.push(("run_us", format!("{:.3}", out.elapsed.as_micros_f64())));
            }
            let (t, e) = (out.stats.total(), &out.stats.engine);
            fields.extend([
                ("events", out.events.to_string()),
                ("peak_queue_depth", out.peak_queue_depth.to_string()),
                ("epochs", e.epochs.to_string()),
                ("deposits", e.deposits.to_string()),
                ("batches", e.batches.to_string()),
                ("wakes", e.wakes.to_string()),
                ("msgs_per_batch", format!("{:.3}", e.msgs_per_batch())),
                ("messages_sent", t.messages_sent.to_string()),
                ("oam_attempts", t.oam_attempts.to_string()),
                ("oam_successes", t.oam_successes.to_string()),
                ("oam_promotions", t.oam_promotions.to_string()),
                ("oam_reruns", t.oam_reruns.to_string()),
                ("oam_nacks_sent", t.oam_nacks_sent.to_string()),
                ("retransmits", t.retransmits.to_string()),
            ]);
        }
        fields.extend(r.extra.iter().cloned());
        s.push_str("    {\n");
        for (j, (k, v)) in fields.iter().enumerate() {
            let sep = if j + 1 < fields.len() { "," } else { "" };
            let _ = writeln!(s, "      \"{k}\": {v}{sep}");
        }
        s.push_str(if i + 1 < rows.len() { "    },\n" } else { "    }\n" });
    }
    s.push_str("  ]\n}\n");
    s
}

/// Write [`json_report`] to `path`, exiting with status 1 on failure.
pub fn write_report(path: &Path, rows: &[Row]) {
    match std::fs::write(path, json_report(rows)) {
        Ok(()) => println!("\n[json] {}", path.display()),
        Err(e) => {
            eprintln!("failed to write {}: {e}", path.display());
            std::process::exit(1);
        }
    }
}

/// Column headers matching [`per_method_rows`].
pub const PER_METHOD_HEADERS: [&str; 11] = [
    "method",
    "attempts",
    "inline ok",
    "aborts",
    "promoted",
    "rerun",
    "nacked",
    "threaded",
    "switches",
    "chunks",
    "cancels",
];

/// Render a machine's per-method OAM statistics as table rows (one row
/// per registered method that saw traffic), for use with
/// [`PER_METHOD_HEADERS`].
pub fn per_method_rows(stats: &oam_model::MachineStats) -> Vec<Vec<String>> {
    stats
        .per_method_total()
        .iter()
        .map(|(id, m)| {
            vec![
                stats.method_name(*id),
                m.attempts.to_string(),
                m.inline_ok.to_string(),
                m.total_aborts().to_string(),
                m.promotions.to_string(),
                m.reruns.to_string(),
                m.nacks_sent.to_string(),
                m.threaded.to_string(),
                m.mode_switches.to_string(),
                m.chunks.to_string(),
                m.cancels.to_string(),
            ]
        })
        .collect()
}

/// Print an aligned table to stdout.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if cell.len() > widths[i] {
                widths[i] = cell.len();
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!("{}", fmt_row(&headers.iter().map(|s| s.to_string()).collect::<Vec<_>>()));
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workspace_root_contains_the_bench_crate() {
        let root = workspace_root();
        assert!(root.join("crates").join("bench").join("Cargo.toml").exists(), "{root:?}");
    }

    #[test]
    fn a_sequential_row_writes_only_its_time_and_answer() {
        let json = json_report(&[Row::new("seq", Dur::from_micros(2), 7, None)]);
        assert!(json.contains("\"virtual_us\": 2.000,\n"), "{json}");
        assert!(json.contains("\"answer\": 7\n"), "{json}");
        assert!(!json.contains("events"), "{json}");
    }
}
