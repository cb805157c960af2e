//! The benchmark's metric registry and its result line.
//!
//! A workload prints every end-to-end metric of its registry in an
//! untraced run and every per-layer metric in a traced run. A per-layer
//! metric the workload does not produce reads 0 (`machine.checkpoint_ms`
//! and `machine.fork_ms` on `fig55_recovery`, which forks nothing).

use std::collections::BTreeMap;

/// `(name, unit)` of the end-to-end metrics of the fault-experiment
/// workloads (`table53_sweep`, `fig55_recovery`), measured with tracing
/// off. `BENCHMARK.json` lists exactly these.
pub const END_TO_END: &[(&str, &str)] = &[
    ("runs_per_s", "1/s"),
    ("run_s_p50", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("sim_recovery_ms_p50", "ms"),
];

/// `(name, unit)` of the per-layer metrics of the fault-experiment
/// workloads, measured in a traced run. `BENCHMARK.json` lists exactly
/// these.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("bench.failed_frac", "frac"),
    ("bench.prelude_share", "frac"),
    ("bench.self_s", "s"),
    ("bench.trace_overhead_frac", "frac"),
    ("sim.events_per_run", "count"),
    ("sim.ns_per_event.fill", "ns"),
    ("sim.ns_per_event.recovery", "ns"),
    ("net.packets_sent", "count"),
    ("net.packets_dropped", "count"),
    ("net.packets_truncated", "count"),
    ("net.packets_per_event", "count"),
    ("coherence.naks_sent", "count"),
    ("coherence.upgrade_requests", "count"),
    ("coherence.incoherent_accesses", "count"),
    ("coherence.bus_errors", "count"),
    ("magic.services_per_run", "count"),
    ("magic.busy_ns_per_service", "ns"),
    ("machine.checkpoint_ms", "ms"),
    ("machine.fork_ms", "ms"),
    ("machine.validate_ms", "ms"),
    ("machine.self_s", "s"),
    ("core.prepare_s", "s"),
    ("core.host_s.detect", "s"),
    ("core.host_s.p1", "s"),
    ("core.host_s.p2", "s"),
    ("core.host_s.p3", "s"),
    ("core.host_s.p4", "s"),
    ("core.host_s.drain", "s"),
    ("core.host_share.p2", "frac"),
    ("core.sim_ms.p1", "ms"),
    ("core.sim_ms.p2", "ms"),
    ("core.sim_ms.p3", "ms"),
    ("core.sim_ms.p4", "ms"),
    ("core.restarts", "count"),
    ("core.lines_marked_incoherent", "count"),
    ("core.flush_writebacks", "count"),
    ("core.self_s", "s"),
    ("obs.trace_dropped", "count"),
    ("obs.default_cost_frac", "frac"),
    ("obs.all_domains_cost_frac", "frac"),
];

/// End-to-end metrics of `chaos_mix`, which is not in `BENCHMARK.json`
/// (see `NOTES.md`). Its p90 has over ten samples beyond it.
pub const CHAOS_END_TO_END: &[(&str, &str)] = &[
    ("runs_per_s", "1/s"),
    ("run_s_p50", "s"),
    ("run_s_p90", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics of `chaos_mix`.
pub const CHAOS_PER_LAYER: &[(&str, &str)] = &[
    ("bench.failed_frac", "frac"),
    ("bench.self_s", "s"),
    ("bench.trace_overhead_frac", "frac"),
    ("campaign.generate_us", "us"),
    ("campaign.machine.run_s_p50", "s"),
    ("campaign.mid_recovery_hits", "count"),
    ("campaign.verdict.contained", "frac"),
    ("campaign.verdict.detected_recovered", "frac"),
    ("campaign.verdict.survived_degraded", "frac"),
    ("campaign.detect_latency_us_p50", "us"),
    ("campaign.self_s", "s"),
    ("hive.run_s_p50", "s"),
    ("hivekv.run_s_p50", "s"),
    ("hivekv.goodput_rps", "1/s"),
    ("hivekv.err_frac", "frac"),
    ("hivekv.unaffected_p99_ms", "ms"),
    ("obs.trace_dropped", "count"),
];

/// Whether `name` is a valid metric name: it starts with a letter or a
/// digit and has at most 64 letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a valid unit: at most 16 letters, digits, `_`, `/`,
/// `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Metric values of one run, keyed by name.
#[derive(Debug, Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// The result line: `set` must hold exactly the names of `registry`
    /// (missing names read 0, names outside it are a bug).
    pub fn result_json(
        &self,
        registry: &[(&'static str, &'static str)],
        correct: bool,
        attempted: u64,
        failed: u64,
    ) -> String {
        for name in self.0.keys() {
            assert!(
                registry.iter().any(|(n, _)| n == name),
                "metric {name} is not in the registry"
            );
        }
        let metrics: Vec<String> = registry
            .iter()
            .map(|(name, unit)| {
                assert!(valid_name(name) && valid_unit(unit), "{name} [{unit}]");
                let v = self.get(name).unwrap_or(0.0);
                let v = if v.is_finite() { v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_name_charset() {
        assert!(valid_name("runs_per_s"));
        assert!(valid_name("core.host_s.p2"));
        assert!(valid_name("9lives-ok"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("_x"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("slash/no"));
        assert!(!valid_name(&"a".repeat(65)));
        assert!(valid_name(&"a".repeat(64)));
        assert!(valid_unit("1/s") && valid_unit("%") && valid_unit("MiB"));
        assert!(!valid_unit("") && !valid_unit("m s") && !valid_unit(&"s".repeat(17)));
    }

    #[test]
    fn registry_is_valid_and_unique() {
        for (e2e, layers) in [(END_TO_END, PER_LAYER), (CHAOS_END_TO_END, CHAOS_PER_LAYER)] {
            let all: Vec<_> = e2e.iter().chain(layers).collect();
            for (name, unit) in &all {
                assert!(valid_name(name), "{name}");
                assert!(valid_unit(unit), "{name}: {unit}");
            }
            let mut names: Vec<&str> = all.iter().map(|(n, _)| *n).collect();
            names.sort_unstable();
            names.dedup();
            assert_eq!(names.len(), all.len(), "metric names must be unique");
            assert!(layers.len() <= 128);
        }
    }

    /// `BENCHMARK.json` at the repository root lists exactly the metrics
    /// this program prints, with the same units.
    #[test]
    fn benchmark_json_matches_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = json.matches("\"unit\": ").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn result_line_has_every_registry_metric() {
        let mut v = Values::default();
        v.set("runs_per_s", 12.5);
        let line = v.result_json(END_TO_END, true, 3, 0);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0,"));
        assert!(line.contains("\"runs_per_s\": {\"value\": 12.5, \"unit\": \"1/s\"}"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.0, \"unit\": \"s\"}"));
    }
}
