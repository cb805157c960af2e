//! Machine-readable benchmark results.
//!
//! Every bench writes its rows as JSON next to its console output so
//! results can be plotted or diffed across runs. Files land in
//! `target/bench-results/<bench>.json`. The gated benches also check their
//! sheet against the floors committed in the repo-root `BENCH_ledger.json`
//! ([`check_floors`]).
//!
//! Also home to the per-fault-class campaign tally shared by the
//! `gray_campaign` and `kv_slo` examples: both report campaign outcomes as
//! one row per fault class, so the class partitioning, verdict counting,
//! and table rendering live here rather than being copied per example.

use flash_campaign::{RunRecord, Verdict};
use flash_machine::FaultSpec;
use flash_obs::{json_escape_str, latency_summary};
use flash_sim::{LatencyHistogram, SimDuration};
use std::io::Write;
use std::path::{Path, PathBuf};

/// One benchmark's result sheet: named rows of named numeric columns.
#[derive(Clone, Debug)]
pub struct ResultSheet {
    /// Bench target name.
    pub bench: String,
    /// The paper artifact reproduced (e.g. `"Figure 5.5"`).
    pub reproduces: String,
    /// Column names, in order.
    pub columns: Vec<String>,
    /// Data rows.
    pub rows: Vec<Row>,
}

/// One row of a [`ResultSheet`].
#[derive(Clone, Debug)]
pub struct Row {
    /// Row label (e.g. `"nodes=128"` or `"Node failure"`).
    pub label: String,
    /// Values, matching the sheet's column order.
    pub values: Vec<f64>,
}

impl ResultSheet {
    /// Creates an empty sheet.
    pub fn new(bench: impl Into<String>, reproduces: impl Into<String>, columns: &[&str]) -> Self {
        ResultSheet {
            bench: bench.into(),
            reproduces: reproduces.into(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the value count does not match the column count.
    pub fn push(&mut self, label: impl Into<String>, values: &[f64]) {
        assert_eq!(values.len(), self.columns.len(), "row/column mismatch");
        self.rows.push(Row {
            label: label.into(),
            values: values.to_vec(),
        });
    }

    /// Serializes the sheet as pretty JSON.
    pub fn to_json(&self) -> String {
        // Hand-rolled writer: the workspace deliberately avoids serde_json;
        // the structure is flat enough to emit directly. Strings go through
        // `flash_obs::json_escape_str` — Rust's `{:?}` formatting emits
        // `\u{…}` escapes, which no JSON parser accepts.
        let mut out = String::from("{\n");
        out.push_str(&format!(
            "  \"bench\": \"{}\",\n",
            json_escape_str(&self.bench)
        ));
        out.push_str(&format!(
            "  \"reproduces\": \"{}\",\n",
            json_escape_str(&self.reproduces)
        ));
        out.push_str(&format!(
            "  \"columns\": [{}],\n",
            self.columns
                .iter()
                .map(|c| format!("\"{}\"", json_escape_str(c)))
                .collect::<Vec<_>>()
                .join(", ")
        ));
        out.push_str("  \"rows\": [\n");
        for (i, row) in self.rows.iter().enumerate() {
            let vals = row
                .values
                .iter()
                .map(|v| {
                    if v.is_finite() {
                        format!("{v}")
                    } else {
                        "null".to_string()
                    }
                })
                .collect::<Vec<_>>()
                .join(", ");
            out.push_str(&format!(
                "    {{\"label\": \"{}\", \"values\": [{vals}]}}",
                json_escape_str(&row.label)
            ));
            out.push_str(if i + 1 == self.rows.len() {
                "\n"
            } else {
                ",\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Writes the sheet to `target/bench-results/<bench>.json`, creating
    /// the directory as needed. Prints the path on success; IO problems are
    /// reported but non-fatal (benches still print their tables).
    pub fn write(&self) {
        let dir = results_dir();
        if let Err(e) = std::fs::create_dir_all(&dir) {
            eprintln!("warning: cannot create {}: {e}", dir.display());
            return;
        }
        let path = dir.join(format!("{}.json", self.bench));
        match std::fs::File::create(&path).and_then(|mut f| f.write_all(self.to_json().as_bytes()))
        {
            Ok(()) => println!("[results written to {}]", path.display()),
            Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
        }
    }
}

/// One gated `(bench, case, metric)` triple of the bench ledger.
#[derive(Clone, Debug, PartialEq)]
struct Floor {
    bench: String,
    case: String,
    metric: String,
    floor: f64,
}

/// The floors of a bench ledger: one object per line inside its
/// `"floors": [` … `]` block. Nothing outside that block is read, so the
/// ledger's measurement history may reuse case names freely.
fn ledger_floors(text: &str) -> Vec<Floor> {
    text.lines()
        .skip_while(|l| !l.trim_start().starts_with("\"floors\":"))
        .skip(1)
        .take_while(|l| !l.trim_start().starts_with(']'))
        .filter_map(|l| {
            Some(Floor {
                bench: json_field(l, "bench")?.to_string(),
                case: json_field(l, "case")?.to_string(),
                metric: json_field(l, "metric")?.to_string(),
                floor: json_field(l, "floor")?.parse().ok()?,
            })
        })
        .collect()
}

/// The value of `"key": …` on a one-object JSON line: the contents of a
/// string value, or the raw text of a number.
fn json_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let rest = line[line.find(&pat)? + pat.len()..].trim_start();
    match rest.strip_prefix('"') {
        Some(s) => s.split('"').next(),
        None => rest.split([',', '}']).next().map(str::trim),
    }
}

/// Checks `sheet` against the floors the bench ledger at `ledger` commits
/// for `sheet.bench`, printing one verdict line per case, and returns the
/// number of failures. A value below its floor fails, as does a floor whose
/// case or metric the sheet lacks and an unreadable ledger; a case with no
/// floor is skipped.
pub fn check_floors(sheet: &ResultSheet, ledger: &Path) -> usize {
    let text = match std::fs::read_to_string(ledger) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read bench ledger {}: {e}", ledger.display());
            return 1;
        }
    };
    let floors: Vec<Floor> = ledger_floors(&text)
        .into_iter()
        .filter(|f| f.bench == sheet.bench)
        .collect();
    for row in &sheet.rows {
        if !floors.iter().any(|f| f.case == row.label) {
            println!("check {:<44} no floor, skipped", row.label);
        }
    }
    let mut failed = 0;
    for f in &floors {
        let row = sheet.rows.iter().find(|r| r.label == f.case);
        let col = sheet.columns.iter().position(|c| *c == f.metric);
        // An unmeasured case or metric reads as NaN, which fails.
        let value = row.zip(col).map_or(f64::NAN, |(r, c)| r.values[c]);
        let ok = value >= f.floor;
        failed += usize::from(!ok);
        println!(
            "check {:<44} {} {value:.2} vs floor {} ({:.2}x) {}",
            f.case,
            f.metric,
            f.floor,
            value / f.floor,
            if ok { "ok" } else { "REGRESSED" }
        );
    }
    failed
}

/// Gates `sheet` when `FLASH_BENCH_CHECK` names a bench ledger: runs
/// [`check_floors`] and exits non-zero if any floor failed.
pub fn check_floors_from_env(sheet: &ResultSheet) {
    let Some(ledger) = std::env::var_os("FLASH_BENCH_CHECK") else {
        return;
    };
    let ledger = Path::new(&ledger);
    let failed = check_floors(sheet, ledger);
    if failed > 0 {
        eprintln!("{failed} floor(s) failed vs {}", ledger.display());
        std::process::exit(1);
    }
    println!("floor check passed vs {}", ledger.display());
}

/// The fault classes of the per-class result sheets, in row order. A run
/// is tallied in every class that appears anywhere in its schedule
/// (multi-faults included), so each row answers "when this class was
/// present, what happened?".
pub const FAULT_CLASSES: [&str; 5] = [
    "fail_stop",
    "fail_slow",
    "degraded_memory",
    "lossy_link",
    "pool_failure",
];

/// Marks which of the [`FAULT_CLASSES`] a fault belongs to (multi-faults
/// recurse and can mark several).
pub fn mark_fault_classes(f: &FaultSpec, present: &mut [bool; FAULT_CLASSES.len()]) {
    match f {
        FaultSpec::FailSlow(..) => present[1] = true,
        FaultSpec::DegradedMemory(..) => present[2] = true,
        FaultSpec::LossyLink(..) => present[3] = true,
        FaultSpec::PoolFailure { .. } => present[4] = true,
        FaultSpec::Multi(list) => {
            for m in list {
                mark_fault_classes(m, present);
            }
        }
        _ => present[0] = true,
    }
}

/// Which [`FAULT_CLASSES`] appear anywhere in a run's schedule.
pub fn run_fault_classes(r: &RunRecord) -> [bool; FAULT_CLASSES.len()] {
    let mut present = [false; FAULT_CLASSES.len()];
    for e in &r.schedule.events {
        mark_fault_classes(&e.fault, &mut present);
    }
    present
}

/// Verdict, violation, unfinished-run and detection-latency counts for one
/// fault class.
#[derive(Default)]
pub struct ClassTally {
    /// Runs in which the class appeared.
    pub runs: u64,
    /// Runs judged [`Verdict::Contained`].
    pub contained: u64,
    /// Runs judged [`Verdict::DetectedRecovered`].
    pub detected: u64,
    /// Runs judged [`Verdict::SurvivedDegraded`].
    pub survived: u64,
    /// Total invariant violations across the class's runs.
    pub violations: u64,
    /// Runs that did not reach a terminal state within their budget.
    pub unfinished: u64,
    /// Detection latencies of the class's runs that detected their fault.
    pub detect: LatencyHistogram,
}

impl ClassTally {
    /// Folds one run into the tally.
    pub fn tally(&mut self, r: &RunRecord) {
        self.runs += 1;
        match r.verdict {
            Verdict::Contained => self.contained += 1,
            Verdict::DetectedRecovered => self.detected += 1,
            Verdict::SurvivedDegraded => self.survived += 1,
        }
        self.violations += r.violations.len() as u64;
        self.unfinished += u64::from(!r.finished);
        if let Some(ns) = r.detect_latency_ns {
            self.detect.record(SimDuration::from_nanos(ns));
        }
    }
}

/// The per-fault-class verdict sheet: one [`ClassTally`] per
/// [`FAULT_CLASSES`] entry plus an all-runs aggregate.
#[derive(Default)]
pub struct VerdictSheet {
    /// Per-class tallies, matching [`FAULT_CLASSES`] order.
    pub classes: [ClassTally; FAULT_CLASSES.len()],
    /// Every run, regardless of class.
    pub overall: ClassTally,
}

impl VerdictSheet {
    /// Creates an empty sheet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one run into the overall tally and into every class present
    /// in its schedule.
    pub fn tally(&mut self, r: &RunRecord) {
        self.overall.tally(r);
        for (i, p) in run_fault_classes(r).iter().enumerate() {
            if *p {
                self.classes[i].tally(r);
            }
        }
    }

    /// Renders the verdict table (header plus one row per fault class).
    pub fn verdict_table(&self) -> String {
        let mut out = format!(
            "{:<16} {:>5} {:>10} {:>19} {:>18} {:>11} {:>11}\n",
            "fault class",
            "runs",
            "contained",
            "detected-recovered",
            "survived-degraded",
            "violations",
            "unfinished"
        );
        for (name, row) in FAULT_CLASSES.iter().zip(&self.classes) {
            out.push_str(&format!(
                "{name:<16} {:>5} {:>10} {:>19} {:>18} {:>11} {:>11}\n",
                row.runs, row.contained, row.detected, row.survived, row.violations, row.unfinished
            ));
        }
        out
    }

    /// Renders the detection-latency summaries: the all-runs histogram
    /// followed by one per fault class.
    pub fn detection_summary(&self) -> String {
        let mut out = latency_summary("detection latency (all runs)", &self.overall.detect);
        for (name, row) in FAULT_CLASSES.iter().zip(&self.classes) {
            out.push_str(&latency_summary(
                &format!("detection latency ({name})"),
                &row.detect,
            ));
        }
        out
    }
}

/// The directory bench results land in: the *workspace* target directory
/// (benches run with the package directory as cwd, so a relative path
/// would land inside `crates/bench`).
pub fn results_dir() -> PathBuf {
    if let Some(dir) = std::env::var_os("CARGO_TARGET_DIR") {
        // Cargo resolves a relative CARGO_TARGET_DIR against the workspace
        // root, not the process cwd (which is the package directory under
        // `cargo bench`) — do the same, or results drift into crates/bench.
        return resolve_target_dir(PathBuf::from(dir)).join("bench-results");
    }
    // The bench executable lives in <workspace>/target/release/deps/...;
    // derive the target directory from our own path.
    if let Ok(exe) = std::env::current_exe() {
        for anc in exe.ancestors() {
            if anc.file_name().and_then(|n| n.to_str()) == Some("target") {
                return anc.join("bench-results");
            }
        }
    }
    workspace_root().join("target").join("bench-results")
}

/// Resolves a (possibly relative) target-directory path against the
/// workspace root, mirroring cargo's own interpretation of
/// `CARGO_TARGET_DIR`.
fn resolve_target_dir(dir: PathBuf) -> PathBuf {
    if dir.is_absolute() {
        dir
    } else {
        workspace_root().join(dir)
    }
}

/// The workspace root: two levels above this crate's manifest
/// (`<workspace>/crates/bench`).
fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(|p| p.parent())
        .map(|p| p.to_path_buf())
        .unwrap_or(manifest)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sheet_roundtrip_structure() {
        let mut s = ResultSheet::new("fig_x", "Figure X", &["a", "b"]);
        s.push("row1", &[1.0, 2.5]);
        s.push("row2", &[3.0, f64::NAN]);
        let json = s.to_json();
        assert!(json.contains("\"bench\": \"fig_x\""));
        assert!(json.contains("\"columns\": [\"a\", \"b\"]"));
        assert!(json.contains("[1, 2.5]"));
        assert!(json.contains("null"), "non-finite values become null");
    }

    #[test]
    #[should_panic(expected = "row/column mismatch")]
    fn mismatched_row_panics() {
        let mut s = ResultSheet::new("x", "y", &["a"]);
        s.push("r", &[1.0, 2.0]);
    }

    /// Non-ASCII and control characters must serialize as valid JSON —
    /// Rust's `{:?}` would emit `\u{e9}`-style escapes no parser accepts.
    #[test]
    fn non_ascii_labels_emit_valid_json() {
        let mut s = ResultSheet::new("tête", "Ta\tble 5.4 — «é»", &["μs", "naïve"]);
        s.push("nœud\n№1", &[1.0, 2.0]);
        let json = s.to_json();
        assert!(!json.contains("\\u{"), "Rust-style escapes leaked: {json}");
        // Non-ASCII passes through raw (valid JSON is UTF-8); control
        // characters use standard short escapes.
        assert!(json.contains("\"bench\": \"tête\""));
        assert!(json.contains("Ta\\tble 5.4 — «é»"));
        assert!(json.contains("\"columns\": [\"μs\", \"naïve\"]"));
        assert!(json.contains("\"nœud\\n№1\""));
    }

    #[test]
    fn relative_target_dir_resolves_against_workspace_root() {
        let resolved = resolve_target_dir(PathBuf::from("custom-target"));
        assert!(resolved.is_absolute());
        assert_eq!(resolved, workspace_root().join("custom-target"));
        assert!(
            !resolved.to_str().unwrap().contains("crates"),
            "must not resolve relative to the bench package dir: {resolved:?}"
        );
        let abs = PathBuf::from("/tmp/abs-target");
        assert_eq!(resolve_target_dir(abs.clone()), abs);
    }

    /// A ledger whose history repeats a floor-shaped line for a case the
    /// floors block does not gate.
    const LEDGER: &str = r#"{
  "floors": [
    {"bench": "b", "case": "fast", "metric": "eps", "floor": 100},
    {"bench": "other", "case": "slow", "metric": "eps", "floor": 1e9}
  ],
  "history": {
    "b": [
      {"bench": "b", "case": "slow", "metric": "eps", "floor": 1e12}
    ]
  }
}
"#;

    /// Checks one sheet of bench `b` against [`LEDGER`] written to a
    /// per-test temp file.
    fn check(test: &str, rows: &[(&str, f64)]) -> usize {
        let ledger = std::env::temp_dir().join(format!("flash-{test}-{}.json", std::process::id()));
        std::fs::write(&ledger, LEDGER).expect("temp ledger is writable");
        let mut s = ResultSheet::new("b", "test", &["eps"]);
        for (label, v) in rows {
            s.push(*label, &[*v]);
        }
        let failed = check_floors(&s, &ledger);
        std::fs::remove_file(ledger).ok();
        failed
    }

    #[test]
    fn floor_passes_at_its_value_and_fails_below() {
        assert_eq!(check("edge-at", &[("fast", 100.0)]), 0);
        assert_eq!(check("edge-below", &[("fast", 99.999)]), 1);
        assert_eq!(check("edge-nan", &[("fast", f64::NAN)]), 1);
        // A gated case the run did not measure fails too.
        assert_eq!(check("edge-unmeasured", &[]), 1);
    }

    #[test]
    fn history_lines_and_cases_without_floor_are_skipped() {
        let floors = ledger_floors(LEDGER);
        assert_eq!(floors.len(), 2, "{floors:?}");
        assert!(!floors.iter().any(|f| f.bench == "b" && f.case == "slow"));
        let rows = [("fast", 100.0), ("slow", 1.0), ("new_case", 0.0)];
        assert_eq!(check("skip", &rows), 0);
    }

    #[test]
    fn missing_ledger_fails() {
        let ledger = std::env::temp_dir().join("flash-bench-no-such-ledger.json");
        let s = ResultSheet::new("b", "test", &["eps"]);
        assert_eq!(check_floors(&s, &ledger), 1);
    }

    /// Every gated case of the committed ledger, so none can silently lose
    /// its gate.
    #[test]
    fn committed_ledger_gates_exactly_the_twelve_cases() {
        let text = std::fs::read_to_string(workspace_root().join("BENCH_ledger.json"))
            .expect("BENCH_ledger.json is committed at the workspace root");
        let got: Vec<(String, String, String, f64)> = ledger_floors(&text)
            .into_iter()
            .map(|f| (f.bench, f.case, f.metric, f.floor))
            .collect();
        let floor = |bench: &str, metric: &str, case: &str, floor: f64| {
            (
                bench.to_string(),
                case.to_string(),
                metric.to_string(),
                floor,
            )
        };
        let sim = |case, f| floor("criterion_sim_speed", "events_per_sec", case, f);
        let sweep = |case, f| floor("sweep_fork", "speedup", case, f);
        let want = vec![
            sim("queue_push_pop/near_horizon_200k", 41.6e6),
            sim("queue_push_pop/far_horizon_200k", 24e6),
            sim("fabric_hop/mesh4x4_table", 9.84e6),
            sim("fabric_hop/mesh4x4_source", 9.92e6),
            sim("normal_mode_16k_ops/firewall=false", 3.72e6),
            sim("normal_mode_16k_ops/firewall=true", 3.76e6),
            sim("full_fault_recovery_cycle/node_failure_8", 3.6e6),
            sim("full_fault_recovery_cycle/node_failure_128", 2.56e6),
            sim("machine_validate/fig55_128", 40e6),
            sim("machine_checkpoint_fork/table_5_1", 32e6),
            sweep("validation_table_5_3", 2.2),
            sweep("end_to_end_table_5_4", 1.5),
        ];
        assert_eq!(got, want);
    }

    #[test]
    fn workspace_root_is_manifest_grandparent() {
        let root = workspace_root();
        assert!(root.join("Cargo.toml").exists(), "{root:?}");
        assert!(root.join("crates").is_dir(), "{root:?}");
    }
}
