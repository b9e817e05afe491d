//! A run's peak memory belongs to that run alone. `VmHWM` never falls
//! within a process, so a small run measured after a large one in the same
//! process would report the large one's peak; one child per run cannot.

use std::process::Command;
use ule_xp::json::Json;

fn child_peak_mib(workload: &str, div: &str) -> f64 {
    let output = Command::new(env!("CARGO_BIN_EXE_ule-benchmark"))
        .args(["--child", "--workload", workload, "--div", div, "--out"])
        .arg(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("the benchmark binary runs");
    assert!(output.status.success(), "{workload} child failed");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    let report = Json::parse(stdout.lines().last().expect("a report line")).expect("report parses");
    assert_eq!(
        report.get("ok").and_then(Json::as_bool),
        Some(true),
        "{stdout}"
    );
    report
        .get("values")
        .and_then(|v| v.get("peak_rss_mib"))
        .and_then(Json::as_f64)
        .expect("peak_rss_mib reported")
}

#[test]
fn a_small_run_after_a_large_one_reports_its_own_peak() {
    let large = child_peak_mib("agent-path", "1");
    // sparse-cycle ÷ 6 is a 10^4-node cycle.
    let small = child_peak_mib("sparse-cycle", "6");
    assert!(
        large > 32.0,
        "agent-path peaked at {large} MiB: too small to prove anything"
    );
    assert!(
        small < 16.0,
        "10^4-node cycle reports {small} MiB after a {large} MiB run"
    );
}
