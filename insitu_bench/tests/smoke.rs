//! Smoke test of the benchmark binary: every workload runs briefly,
//! untraced and traced, and must print every metric `BENCHMARK.json`
//! names with its unit, repeat its deterministic counts exactly,
//! and export a Chrome trace that passes `obsv`'s validator.
//!
//! Run with `cargo test --release --manifest-path insitu_bench/Cargo.toml`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

use obsv::json::Value;

/// Steps per world: enough for warm-up, the probe step and a timed loop.
const WORLD_STEPS: &str = "12";

fn benchmark_json() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    obsv::json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    benchmark_json()
        .get(list)
        .and_then(Value::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Value::as_str).expect("name and unit").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

struct Run {
    stdout: String,
    result: Value,
}

fn run(dir: &Path, workload: &str, seed: &str, trace: bool) -> Run {
    std::fs::create_dir_all(dir).expect("create run directory");
    let out = Command::new(env!("CARGO_BIN_EXE_insitu-bench"))
        .current_dir(dir)
        .args(["--workload", workload, "--seed", seed, "--seconds", "0.1"])
        .args(["--trace", if trace { "1" } else { "0" }, "--out", "."])
        .args(["--world-steps", WORLD_STEPS])
        .output()
        .expect("run the benchmark binary");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 report");
    assert!(
        out.status.success(),
        "{workload} (trace {trace}) failed: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let result = obsv::json::parse(last).expect("the last line is JSON");
    Run { stdout, result }
}

fn scratch(name: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{name}"))
}

fn check_result(r: &Run, list: &str) {
    let res = &r.result;
    assert!(matches!(res.get("correct"), Some(Value::Bool(true))), "{}", r.stdout);
    assert_eq!(res.get("failed").and_then(Value::as_u64), Some(0));
    assert!(res.get("attempted").and_then(Value::as_u64).is_some_and(|n| n >= 1));
    let metrics = res.get("metrics").expect("metrics object");
    let Value::Obj(fields) = metrics else { panic!("metrics is an object") };
    let want = declared(list);
    assert_eq!(fields.len(), want.len(), "exactly the declared metrics: {}", r.stdout);
    for (name, unit) in want {
        let m = metrics.get(&name).unwrap_or_else(|| panic!("{name} missing:\n{}", r.stdout));
        assert_eq!(m.get("unit").and_then(Value::as_str), Some(unit.as_str()), "{name} unit");
        let v = m.get("value").and_then(Value::as_f64).expect("numeric value");
        assert!(v.is_finite() && v >= 0.0, "{name} = {v}");
    }
}

/// `count` lines of a traced report: name → value, for the exactly
/// checked counts.
fn exact_counts(r: &Run) -> BTreeMap<String, String> {
    r.stdout
        .lines()
        .filter(|l| l.starts_with("count ") && l.contains(" exact="))
        .map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            assert_eq!(f[4], "exact=true", "count did not repeat within the run: {l}");
            (f[2].to_string(), f[3].to_string())
        })
        .collect()
}

fn smoke(workload: &str) {
    let dir = scratch(workload);
    let plain = run(&dir.join("e2e"), workload, "3", false);
    check_result(&plain, "end_to_end");
    for (name, unit) in declared("end_to_end") {
        let line = plain
            .stdout
            .lines()
            .find(|l| l.starts_with(&format!("e2e {workload} {name} ")))
            .unwrap_or_else(|| panic!("no report line for {name}"));
        assert!(line.ends_with(&format!(" {unit}")), "{line}");
    }
    assert!(plain.stdout.contains("\"modeled_time\":\"none"), "environment stamp");

    let traced = run(&dir.join("layers-a"), workload, "3", true);
    check_result(&traced, "per_layer");
    let again = run(&dir.join("layers-b"), workload, "3", true);
    let (a, b) = (exact_counts(&traced), exact_counts(&again));
    if workload == "stream" {
        assert!(a.is_empty(), "the poll-driven stream checks no count exactly");
    } else {
        assert!(a.contains_key("msgs_per_step") && a.contains_key("bytes_served_per_step"));
        if workload == "redist-wire" {
            assert!(a.contains_key("wire_bytes_timed_total"), "compressed sizes are checked");
        }
        assert_eq!(a, b, "per-step counts must repeat exactly across runs");
    }
    let trace =
        std::fs::read_to_string(dir.join("layers-a").join(format!("{workload}.trace.json")))
            .expect("traced run writes its Chrome trace");
    let summary = obsv::validate::validate_chrome_trace(&trace).expect("trace validates");
    assert!(summary.spans > 0);
    assert!(trace.contains("\"cat\":\"bench\""), "benchmark spans are in the trace");
}

#[test]
fn redist() {
    smoke("redist");
}

#[test]
fn stream() {
    smoke("stream");
}

#[test]
fn redist_wire() {
    smoke("redist-wire");
}
