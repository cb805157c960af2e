//! Machine-readable benchmark results.
//!
//! Every figure/table bench writes its rows as JSON next to its console
//! output so results can be plotted or diffed across runs. Files land in
//! `target/bench-results/<bench>.json`.
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
use std::path::PathBuf;

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

    #[test]
    fn workspace_root_is_manifest_grandparent() {
        let root = workspace_root();
        assert!(root.join("Cargo.toml").exists(), "{root:?}");
        assert!(root.join("crates").is_dir(), "{root:?}");
    }
}
