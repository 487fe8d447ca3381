//! The metric names the benchmark fixes, and the result line the driver
//! reads. `BENCHMARK.json` lists the same names (a unit test keeps the
//! two in step).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Seconds one run measures: `BENCHMARK.json`'s `run_seconds`, and the
/// default of `--seconds`.
pub const RUN_SECONDS: f64 = 15.0;

pub const WORKLOADS: [&str; 4] = ["oneshot_seq", "oneshot_par", "ooc_budget", "serve_sessions"];

/// `(name, unit, higher_is_better, bound)`: reported by every workload
/// with tracing off. The bounds are two to three times the run-to-run spread
/// seen on the 2-core sizing host (README, "A/A and observed spreads"),
/// not what a quiet machine would allow.
pub const END_TO_END: [(&str, &str, bool, f64); 4] = [
    ("setup_s", "s", false, 0.25),
    ("check_wall_s", "s", false, 0.25),
    ("peak_rss_mb", "MB", false, 0.10),
    ("runs_per_s", "1/s", true, 0.25),
];

/// Bounds of the served-job latencies the suite table prints next to
/// the end-to-end metrics on `serve_sessions` (their traced twins are
/// the `serve.*_p50_ms` per-layer metrics).
pub const SERVE_LATENCY_BOUND: f64 = 0.25;

/// `(name, unit, higher_is_better)`: reported by every workload's
/// traced pass; a layer the workload does not run through reads 0.
pub const PER_LAYER: [(&str, &str, bool); 90] = [
    ("gdsii.read_s", "s", false),
    ("gdsii.read_mb_per_s", "MB/s", true),
    ("gdsii.bytes", "count", false),
    ("gdsii.elements", "count", false),
    ("gdsii.stream_index_s", "s", false),
    ("gdsii.stream_read_s", "s", false),
    ("gdsii.write_s", "s", false),
    ("db.from_library_s", "s", false),
    ("db.builder_s", "s", false),
    ("db.polys_instantiated", "count", false),
    ("db.content_hash_s", "s", false),
    ("db.edit_apply_us", "us", false),
    ("infra.partition_s", "s", false),
    ("infra.rows", "count", false),
    ("infra.sweep_overlaps_s", "s", false),
    ("infra.sweep_pairs", "count", false),
    ("infra.host_task_ns", "ns", false),
    ("infra.recordlog_append_us", "us", false),
    ("xpu.launch_roundtrip_us", "us", false),
    ("xpu.fused_batch_us_per_op", "us", false),
    ("xpu.h2d_mb_per_s", "MB/s", true),
    ("xpu.scan_melem_per_s", "Melem/s", true),
    ("xpu.sort_melem_per_s", "Melem/s", true),
    ("core.deck_parse_us", "us", false),
    ("core.scene_build_s", "s", false),
    ("core.scene_objects", "count", false),
    ("core.seq.check_s", "s", false),
    ("core.par.check_s", "s", false),
    ("core.ooc.check_s", "s", false),
    ("core.seq.width_s", "s", false),
    ("core.seq.area_s", "s", false),
    ("core.seq.space_s", "s", false),
    ("core.seq.enclosure_s", "s", false),
    ("core.par.width_s", "s", false),
    ("core.par.area_s", "s", false),
    ("core.par.space_s", "s", false),
    ("core.par.enclosure_s", "s", false),
    ("core.seq.phase_sweepline_s", "s", false),
    ("core.seq.phase_edge_check_s", "s", false),
    ("core.seq.phase_enclosure_check_s", "s", false),
    ("core.par.phase_pack_s", "s", false),
    ("core.par.phase_kernel_wait_s", "s", false),
    ("core.par.phase_scan_s", "s", false),
    ("core.par.phase_sweepline_s", "s", false),
    ("core.par.phase_device_wait_wall_s", "s", false),
    ("core.checks_computed", "count", false),
    ("core.checks_reused", "count", true),
    ("core.reuse_ratio", "ratio", true),
    ("core.candidate_pairs", "count", false),
    ("core.rows", "count", false),
    ("core.scenes_built", "count", false),
    ("core.violations", "count", false),
    ("core.par.bytes_uploaded", "count", false),
    ("core.par.uploads_elided", "count", true),
    ("core.par.launches_fused", "count", true),
    ("core.ooc.shards_checked", "count", false),
    ("core.ooc.shards_built", "count", false),
    ("core.ooc.shards_evicted", "count", false),
    ("core.ooc.shards_degraded", "count", false),
    ("core.ooc.rebuild_ratio", "ratio", false),
    ("core.device_retries", "count", false),
    ("core.device_fallbacks", "count", false),
    ("core.host_tasks", "count", false),
    ("core.host_steals", "count", false),
    ("core.par.worker_wakeups", "count", false),
    ("core.canonicalize_s", "s", false),
    ("core.checkpoint_record_ms", "ms", false),
    ("core.dirty_rects_ms", "ms", false),
    ("core.delta_check_ms", "ms", false),
    ("incremental.session_check_ms", "ms", false),
    ("serve.json_parse_mb_per_s", "MB/s", true),
    ("serve.base64_decode_mb_per_s", "MB/s", true),
    ("serve.violations_encode_s", "s", false),
    ("serve.wire_bytes_per_full_job", "count", false),
    ("serve.journal_admit_ms", "ms", false),
    ("serve.journal_done_ms", "ms", false),
    ("serve.open_p50_ms", "ms", false),
    ("serve.full_job_p50_ms", "ms", false),
    ("serve.prime_job_p50_ms", "ms", false),
    ("serve.delta_job_p50_ms", "ms", false),
    ("serve.delta_job_p90_ms", "ms", false),
    ("serve.queue_wait_p50_ms", "ms", false),
    ("serve.cache_hits_shared", "count", true),
    ("serve.jobs_admitted", "count", false),
    ("serve.jobs_rejected", "count", false),
    ("serve.jobs_shed", "count", false),
    ("cli.spawn_floor_ms", "ms", false),
    ("cli.other_s", "s", false),
    ("trace.overhead_share", "ratio", false),
    ("trace.spans", "count", false),
];

/// Work counters of the program that must repeat exactly between two
/// runs on the same inputs; `run.sh --aa` asserts it.
pub const EXACT_COUNTERS: [&str; 26] = [
    "gdsii.bytes",
    "gdsii.elements",
    "db.polys_instantiated",
    "infra.rows",
    "infra.sweep_pairs",
    "core.scene_objects",
    "core.checks_computed",
    "core.checks_reused",
    "core.reuse_ratio",
    "core.candidate_pairs",
    "core.rows",
    "core.scenes_built",
    "core.violations",
    "core.par.bytes_uploaded",
    "core.par.uploads_elided",
    "core.par.launches_fused",
    "core.ooc.shards_checked",
    "core.ooc.shards_built",
    "core.ooc.shards_evicted",
    "core.ooc.shards_degraded",
    "core.ooc.rebuild_ratio",
    "core.device_retries",
    "core.device_fallbacks",
    "serve.jobs_admitted",
    "serve.jobs_rejected",
    "serve.jobs_shed",
];

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.0, m.1))
        .chain(PER_LAYER.iter().map(|m| (m.0, m.1)))
        .find(|m| m.0 == name)
        .map(|m| m.1)
        .unwrap_or_else(|| panic!("metric {name} is not in the registry"))
}

/// A metric only the suite prints and `--aa` compares.
#[derive(Debug, Clone, Copy)]
pub struct Extra {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    pub value: f64,
    pub samples: usize,
}

/// What one run of one workload produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Outputs checked (runs, jobs, cross-checks).
    pub attempted: u64,
    /// Of those, how many were wrong: bad exit code, wrong report,
    /// error, shed.
    pub failed: u64,
    /// First few failure descriptions, for the human reading stderr.
    pub notes: Vec<String>,
    /// `name -> (value, samples behind it)`.
    pub metrics: BTreeMap<&'static str, (f64, usize)>,
    /// Metrics printed by the suite only (served-job latencies).
    pub extra: Vec<Extra>,
}

impl Outcome {
    /// Records one checked output.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 8 {
                self.notes.push(what());
            }
        }
    }

    /// Adds the checks another thread made.
    pub fn absorb_checks(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.notes.extend(other.notes);
    }

    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        self.metrics.insert(name, (value, samples));
    }

    /// A metric's value; 0 for a layer this pass did not run through.
    pub fn value(&self, name: &str) -> f64 {
        self.metrics.get(name).map_or(0.0, |m| m.0)
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The driver's result line: exactly the registry's metrics for
    /// the pass that ran, every digit of every value.
    pub fn result_line(&self, traced: bool) -> String {
        let names: Vec<&'static str> = if traced {
            PER_LAYER.iter().map(|m| m.0).collect()
        } else {
            END_TO_END.iter().map(|m| m.0).collect()
        };
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, name) in names.iter().enumerate() {
            let value = self.value(name);
            assert!(value.is_finite(), "metric {name} is not a number");
            let _ = write!(
                out,
                "{}\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                if i == 0 { "" } else { ", " },
                unit_of(name)
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odrc_serve::json::{self, Value};

    fn manifest() -> Value {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits at the repo root");
        json::parse(&text).expect("BENCHMARK.json is JSON")
    }

    fn names(v: &Value, key: &str) -> Vec<String> {
        v.get(key)
            .and_then(Value::as_array)
            .expect("list present")
            .iter()
            .map(|m| m.get("name").and_then(Value::as_str).unwrap().to_owned())
            .collect()
    }

    #[test]
    fn manifest_lists_the_registry() {
        let m = manifest();
        assert_eq!(
            m.get("run_seconds").and_then(Value::as_f64),
            Some(RUN_SECONDS)
        );
        assert_eq!(names(&m, "workloads"), WORKLOADS);
        assert_eq!(
            names(&m, "end_to_end"),
            END_TO_END.iter().map(|e| e.0).collect::<Vec<_>>()
        );
        assert_eq!(
            names(&m, "per_layer"),
            PER_LAYER.iter().map(|e| e.0).collect::<Vec<_>>()
        );
        for (entry, reg) in m
            .get("end_to_end")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .zip(END_TO_END)
        {
            assert_eq!(entry.get("unit").and_then(Value::as_str), Some(reg.1));
            let better = if reg.2 { "higher" } else { "lower" };
            assert_eq!(entry.get("better").and_then(Value::as_str), Some(better));
            assert_eq!(entry.get("bound").and_then(Value::as_f64), Some(reg.3));
        }
        for (entry, reg) in m
            .get("per_layer")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .zip(PER_LAYER)
        {
            assert_eq!(entry.get("unit").and_then(Value::as_str), Some(reg.1));
            let better = if reg.2 { "higher" } else { "lower" };
            assert_eq!(entry.get("better").and_then(Value::as_str), Some(better));
        }
    }

    #[test]
    fn names_are_unique_and_exact_counters_registered() {
        let mut all: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.0)
            .chain(PER_LAYER.iter().map(|m| m.0))
            .chain(WORKLOADS)
            .collect();
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n);
        for c in EXACT_COUNTERS {
            assert!(PER_LAYER.iter().any(|m| m.0 == c), "{c}");
        }
    }

    #[test]
    fn result_line_is_the_contract_shape() {
        let mut o = Outcome::default();
        o.check(true, String::new);
        for (name, ..) in END_TO_END {
            o.set(name, 1.25, 3);
        }
        let v = json::parse(&o.result_line(false)).unwrap();
        assert_eq!(v.get("correct").and_then(Value::as_bool), Some(true));
        assert_eq!(v.get("attempted").and_then(Value::as_i64), Some(1));
        assert_eq!(v.get("failed").and_then(Value::as_i64), Some(0));
        let m = v.get("metrics").unwrap();
        assert_eq!(
            m.get("setup_s")
                .and_then(|s| s.get("value"))
                .and_then(Value::as_f64),
            Some(1.25)
        );
        let traced = json::parse(&o.result_line(true)).unwrap();
        let unit = traced
            .get("metrics")
            .and_then(|m| m.get("core.par.phase_pack_s"))
            .and_then(|s| s.get("unit"))
            .and_then(Value::as_str);
        assert_eq!(unit, Some("s"));
    }
}
