//! Command-line entry of the end-to-end benchmark.
//!
//! ```text
//! e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root: the metric names printed are checked
//! against `BENCHMARK.json` there.  Human-readable lines go first; the last
//! stdout line is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`.  A result file with the machine fingerprint (and, traced, a
//! span file) is written under `.bench_out/`.

use std::path::Path;
use std::process::ExitCode;

use e2ebench::util::fingerprint;
use e2ebench::{run_workload, END_TO_END, PER_LAYER};
use fec_json::Json;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The metric names `BENCHMARK.json` (in the working directory) declares
/// under `section`.
fn declared(section: &str) -> Result<Vec<String>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("read BENCHMARK.json in the working directory: {e}"))?;
    let json = Json::parse(&text).map_err(|e| format!("parse BENCHMARK.json: {e}"))?;
    let list = json
        .get(section)
        .and_then(Json::as_array)
        .ok_or(format!("BENCHMARK.json has no {section} list"))?;
    list.iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or(format!("{section} entry without a name"))
        })
        .collect()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    let (section, catalogue): (&str, &[(&str, &str)]) = if args.trace {
        ("per_layer", &PER_LAYER)
    } else {
        ("end_to_end", &END_TO_END)
    };
    let names: Vec<&str> = catalogue.iter().map(|(n, _)| *n).collect();
    match declared(section) {
        Ok(declared) if declared == names => {}
        Ok(declared) => {
            eprintln!("e2ebench: BENCHMARK.json {section} {declared:?} differs from the metrics this binary reports {names:?}");
            return ExitCode::from(2);
        }
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    }

    let Some((mut report, tracer)) =
        run_workload(&args.workload, args.seed, args.seconds, args.trace)
    else {
        eprintln!("e2ebench: unknown workload {:?}", args.workload);
        return ExitCode::from(2);
    };
    let reported: Vec<&str> = report.metrics.iter().map(|m| m.name).collect();
    if reported != names {
        eprintln!("e2ebench: reported {reported:?}, expected {names:?}");
        return ExitCode::from(3);
    }
    let not_numbers: Vec<&str> = report
        .metrics
        .iter()
        .filter(|m| !m.value.is_finite())
        .map(|m| m.name)
        .collect();
    for name in not_numbers {
        report.line(format!("FAILED metric {name} is not a number"));
        report.check(0, 1);
    }

    let out = Path::new(".bench_out");
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let fingerprint = fingerprint();
    let mut problems = Vec::new();
    if let Err(e) = std::fs::create_dir_all(out) {
        problems.push(format!("create {}: {e}", out.display()));
    }
    if let Some(tracer) = &tracer {
        let path = out.join(format!("{stem}-spans.json"));
        match tracer.write(&path) {
            Ok(()) => report.line(format!(
                "{} spans written to {}",
                tracer.len(),
                path.display()
            )),
            Err(e) => problems.push(format!("write {}: {e}", path.display())),
        }
    }
    let result = Json::obj(
        [
            ("workload", Json::str(args.workload.clone())),
            ("seed", Json::from(args.seed)),
            ("seconds", Json::from(args.seconds)),
            ("trace", Json::from(args.trace)),
            (
                "machine",
                Json::obj(
                    fingerprint
                        .iter()
                        .map(|(k, v)| (*k, Json::str(v.clone())))
                        .chain([(
                            "svc_offered_rate_per_s",
                            Json::from(e2ebench::svc::OFFERED_RATE),
                        )]),
                ),
            ),
            (
                "metrics",
                Json::arr(report.metrics.iter().map(|m| {
                    Json::obj([
                        ("name", Json::str(m.name)),
                        ("value", Json::from(m.value)),
                        ("unit", Json::str(m.unit)),
                        ("samples", Json::from(m.samples)),
                    ])
                })),
            ),
            ("attempted", Json::from(report.attempted)),
            ("failed", Json::from(report.failed)),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .chain(report.extras.iter().cloned()),
    );
    let path = out.join(format!("{stem}.json"));
    if let Err(e) = std::fs::write(&path, result.to_string_pretty()) {
        problems.push(format!("write {}: {e}", path.display()));
    }
    for p in problems {
        report.line(format!("FAILED {p}"));
        report.check(0, 1);
    }

    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for (k, v) in &fingerprint {
        println!("machine.{k}: {v}");
    }
    println!(
        "machine.svc_offered_rate_per_s: {}",
        e2ebench::svc::OFFERED_RATE
    );
    for line in &report.lines {
        println!("{line}");
    }
    for m in &report.metrics {
        println!(
            "{:<36} {:>14.4} {:<5} (n={})",
            m.name, m.value, m.unit, m.samples
        );
    }
    println!(
        "failed_share {:.4} ({} of {} operations)",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted
    );
    println!("{}", report.result_line());
    ExitCode::SUCCESS
}
