//! Self-test of the benchmark: metric names are well formed, the names the
//! binary prints equal those `BENCHMARK.json` declares, and the workspace
//! stays clean under `fec-lint` (whose wall-clock rule allows `Instant`
//! only under `crates/bench` and in `crates/obs/src/clock.rs`; this
//! package lives outside the linted source roots).
//!
//! Run with `cargo test --release --offline --manifest-path e2ebench/Cargo.toml`.

use std::path::{Path, PathBuf};
use std::process::Command;

use e2ebench::{valid_name, END_TO_END, PER_LAYER, WORKLOADS};
use fec_json::Json;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the package sits in the repository root")
        .to_path_buf()
}

fn benchmark_json() -> Json {
    let text =
        std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("read BENCHMARK.json");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` pairs of a `BENCHMARK.json` list (`unit` empty for
/// workloads).
fn declared(section: &str) -> Vec<(String, String)> {
    benchmark_json()
        .get(section)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section} list"))
        .iter()
        .map(|entry| {
            let field = |key: &str| {
                entry
                    .get(key)
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn metric_and_workload_names_are_well_formed() {
    for section in ["end_to_end", "per_layer", "workloads"] {
        for (name, unit) in declared(section) {
            assert!(valid_name(&name), "{section}: bad name {name:?}");
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{section}: bad unit {unit:?} of {name}"
            );
        }
    }
    for (name, _) in END_TO_END.iter().chain(&PER_LAYER) {
        assert!(valid_name(name), "bad metric name {name:?}");
    }
}

#[test]
fn declared_names_match_benchmark_json() {
    assert_eq!(declared("end_to_end"), owned(&END_TO_END));
    assert_eq!(declared("per_layer"), owned(&PER_LAYER));
    let workloads: Vec<String> = declared("workloads").into_iter().map(|(n, _)| n).collect();
    assert_eq!(workloads, WORKLOADS);
}

#[test]
fn printed_names_match_benchmark_json() {
    let out = Command::new(env!("CARGO_BIN_EXE_e2ebench"))
        .args([
            "--workload",
            "ber_high_snr",
            "--seed",
            "5",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .current_dir(repo_root())
        .output()
        .expect("run the benchmark binary");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let result =
        Json::parse(stdout.lines().last().expect("a result line")).expect("result is JSON");
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{stdout}");
    let Some(Json::Obj(metrics)) = result.get("metrics") else {
        panic!("no metrics object: {stdout}");
    };
    let printed: Vec<(String, String)> = metrics
        .iter()
        .map(|(name, m)| {
            (
                name.clone(),
                m.get("unit")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string(),
            )
        })
        .collect();
    assert_eq!(printed, declared("end_to_end"));
}

#[test]
fn unknown_arguments_exit_non_zero_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_e2ebench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .current_dir(repo_root())
        .output()
        .expect("run the benchmark binary");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}

#[test]
fn workspace_lint_gate_stays_clean() {
    let report = fec_lint::lint_root(&repo_root()).expect("lint the workspace");
    assert!(report.is_clean(), "{}", report.render_text());
}
