//! End-to-end benchmark of the decoder stack with a per-layer ledger.
//!
//! Three workloads drive the system through public functions only:
//! `ber_waterfall` and `ber_high_snr` time `SimulationEngine::run_curve`,
//! `svc_mixed` drives an in-process `fec_svc::Service` with an open-loop
//! request schedule.  An untraced run reports the [`END_TO_END`] metrics; a
//! traced run reports the [`PER_LAYER`] ledger and writes a span file.
//! See `README.md` for the layer → metric → workload map.

#![forbid(unsafe_op_in_unsafe_fn)]
#![deny(missing_debug_implementations)]

mod alloc;
mod ber;
pub mod svc;
pub mod trace;
pub mod util;

use fec_json::Json;

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["ber_waterfall", "ber_high_snr", "svc_mixed"];

/// End-to-end metrics (`--trace 0`), reported by every workload.  Request
/// latencies are printed with their sample counts but not gated: on a
/// shared 2-vCPU machine their run-to-run spread exceeds any usable bound
/// (see `README.md`).
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("frames_per_s", "1/s"),
];

/// Per-layer metrics (`--trace 1`), reported by every workload: the BER
/// frame-loop, engine and pool layers on the workload's BER configuration,
/// and the daemon layers on the `svc_mixed` schedule.
pub const PER_LAYER: [(&str, &str); 32] = [
    ("rand.source_ns_per_frame", "ns"),
    ("wimax-ldpc.encode_ns_per_frame", "ns"),
    ("fec-channel.modulate_ns_per_frame", "ns"),
    ("fec-channel.awgn_ns_per_frame", "ns"),
    ("fec-channel.llr_ns_per_frame", "ns"),
    ("wimax-ldpc.decode_ns_per_frame", "ns"),
    ("fec-channel.tally_ns_per_frame", "ns"),
    ("wimax-ldpc.decode_ns_per_iteration", "ns"),
    ("wimax-ldpc.iterations_per_frame", "count"),
    ("fec-channel.allocs_per_frame", "count"),
    ("fec-sched.task_wait_ns.p50", "ns"),
    ("fec-sched.task_run_ns.p50", "ns"),
    ("fec-sched.tasks", "count"),
    ("fec-fixed.lockstep_useful_share", "share"),
    ("fec-channel.unattributed_share", "share"),
    ("fec-obs.trace_overhead_share", "share"),
    ("code-tables.codec_build_ms", "ms"),
    ("fec-svc.submit_us.p50", "us"),
    ("fec-svc.submit_us.p90", "us"),
    ("fec-svc.resume_us.p50", "us"),
    ("fec-svc.unit_ms.ber-ldpc.p50", "ms"),
    ("fec-svc.unit_ms.ber-turbo.p50", "ms"),
    ("fec-svc.unit_ms.compliance.p50", "ms"),
    ("fec-svc.queue_wait_ms.p50", "ms"),
    ("fec-svc.queue_wait_ms.p90", "ms"),
    ("code-tables.codec_build_us.p50", "us"),
    ("noc-decoder.evaluate_ms.p50", "ms"),
    ("fec-json.row_encode_us.p50", "us"),
    ("fec-svc.log_bytes", "bytes"),
    ("fec-svc.open_fds", "count"),
    ("fec-svc.repeat_share", "share"),
    ("svc.generator_late_ms.p90", "ms"),
];

/// Whether `name` is a valid metric or workload name: a letter or digit
/// first, then at most 63 more letters, digits, `_`, `.` or `-`.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// One measured metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Samples the value summarises.
    pub samples: usize,
}

/// What one run measured, checked and wants printed.
#[derive(Debug, Default)]
pub struct Report {
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
    /// Operations attempted (curve points, jobs, requests, checks).
    pub attempted: u64,
    /// Operations that failed or produced wrong output.
    pub failed: u64,
    /// Human-readable lines printed before the result.
    pub lines: Vec<String>,
    /// Extra fields for the result file.
    pub extras: Vec<(String, Json)>,
}

impl Report {
    /// Adds a metric.
    pub fn metric(&mut self, name: &'static str, unit: &'static str, value: f64, samples: usize) {
        self.metrics.push(Metric {
            name,
            unit,
            value,
            samples,
        });
    }

    /// Books `attempted` operations of which `failed` failed.
    pub fn check(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Adds a human-readable line.
    pub fn line(&mut self, line: String) {
        self.lines.push(line);
    }

    /// Adds a result-file field.
    pub fn extra(&mut self, key: &str, value: Json) {
        self.extras.push((key.to_string(), value));
    }

    /// The final stdout line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_line(&self) -> String {
        let metrics = self.metrics.iter().map(|m| {
            (
                m.name,
                Json::obj([("value", Json::from(m.value)), ("unit", Json::str(m.unit))]),
            )
        });
        Json::obj([
            ("correct", Json::from(self.failed == 0)),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed)),
            ("metrics", Json::obj(metrics)),
        ])
        .to_string()
    }
}

/// Runs one workload; `None` for an unknown workload name.
pub fn run_workload(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Option<(Report, Option<trace::Tracer>)> {
    if !WORKLOADS.contains(&workload) {
        return None;
    }
    if !trace {
        let report = match workload {
            "svc_mixed" => svc::run(seed, seconds),
            _ => ber::run(workload, seed, seconds),
        };
        return Some((report, None));
    }
    let mut tracer = trace::Tracer::with_capacity(1 << 16);
    let mut report = Report::default();
    let ber_cfg = ber::BerConfig::for_workload(workload).unwrap_or_else(svc::ber_config);
    ber::ledger(&ber_cfg, seed, &mut tracer, &mut report);
    svc::ledger(seed, seconds, &mut tracer, &mut report);
    Some((report, Some(tracer)))
}
