//! Smoke test: one short run of every workload in both modes. Each must
//! print, as its last line, every metric `BENCHMARK.json` names for that
//! mode with its unit, report no failed iteration, and (traced) show that
//! span self times plus leftover add up to every traced iteration's wall.
//!
//! Takes a few minutes; run with
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::path::Path;
use std::process::Command;

use serde_json::Value;

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("perfbench sits in the repository")
}

fn spec() -> Value {
    let raw = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    serde_json::from_str(&raw).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in the given `BENCHMARK.json` list.
fn names(spec: &Value, list: &str) -> Vec<(String, String)> {
    spec[list]
        .as_array()
        .expect("metric list")
        .iter()
        .map(|m| (m["name"].as_str().unwrap().to_string(), m["unit"].as_str().unwrap().to_string()))
        .collect()
}

/// The extra arguments `BENCHMARK.json`'s command passes after `--`.
fn command_args(spec: &Value) -> Vec<String> {
    let cmd: Vec<String> = spec["command"]
        .as_array()
        .expect("command")
        .iter()
        .map(|v| v.as_str().unwrap().to_string())
        .collect();
    let sep = cmd.iter().position(|a| a == "--").expect("command passes arguments after --");
    cmd[sep + 1..].to_vec()
}

fn run(workload: &str, trace: u8, spec: &Value) -> (String, Value) {
    let out = Command::new(env!("CARGO_BIN_EXE_dtf-perfbench"))
        .args(command_args(spec))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1", "--trace"])
        .arg(trace.to_string())
        .current_dir(repo_root())
        .output()
        .expect("benchmark starts");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(out.status.success(), "{workload} trace={trace} failed:\n{stdout}\n{}", {
        String::from_utf8_lossy(&out.stderr)
    });
    let last = stdout.lines().last().expect("output").to_string();
    (stdout, serde_json::from_str(&last).expect("last line is JSON"))
}

#[test]
fn every_workload_prints_every_metric_and_spans_add_up() {
    let spec = spec();
    let workloads: Vec<String> = spec["workloads"]
        .as_array()
        .unwrap()
        .iter()
        .map(|w| w["name"].as_str().unwrap().to_string())
        .collect();
    for workload in &workloads {
        for (trace, list) in [(0u8, "end_to_end"), (1, "per_layer")] {
            let (stdout, result) = run(workload, trace, &spec);
            assert_eq!(result["correct"], Value::Bool(true), "{workload}: {stdout}");
            assert_eq!(result["failed"].as_u64(), Some(0));
            assert!(result["attempted"].as_u64().unwrap() >= 1);
            let metrics = result["metrics"].as_object().expect("metrics object");
            let expected = names(&spec, list);
            assert_eq!(metrics.len(), expected.len(), "{workload} {list}: {metrics:?}");
            for (name, unit) in expected {
                let m = &metrics[name.as_str()];
                assert_eq!(m["unit"].as_str(), Some(unit.as_str()), "{workload}: {name}");
                assert!(m["value"].as_f64().is_some_and(f64::is_finite), "{workload}: {name}");
            }
            if trace == 1 {
                assert!(
                    stdout.contains("= wall in every traced iteration (max error 0 ns)"),
                    "{workload}: span additivity not shown:\n{stdout}"
                );
                assert!(stdout.contains("tracing overhead"), "{workload}: overhead not stated");
            }
        }
    }
}
