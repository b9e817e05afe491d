//! `--smoke` end to end: every workload at n ÷ 100 with one repeat, and
//! the output held against `BENCHMARK.json` and the metric tables.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use ule_benchmark::metrics::{END_TO_END, PER_LAYER};
use ule_benchmark::workloads;
use ule_xp::json::Json;

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json is readable"))
        .expect("BENCHMARK.json parses")
}

fn field<'a>(v: &'a Json, key: &str) -> &'a str {
    v.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("missing `{key}`"))
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
}

#[test]
fn benchmark_json_lists_exactly_the_metric_tables() {
    let json = benchmark_json();
    let listed = |key: &str| json.get(key).and_then(Json::as_arr).expect(key).to_vec();

    let end_to_end = listed("end_to_end");
    assert_eq!(end_to_end.len(), END_TO_END.len());
    for (got, want) in end_to_end.iter().zip(&END_TO_END) {
        assert_eq!(field(got, "name"), want.name);
        assert_eq!(field(got, "unit"), want.unit, "{}", want.name);
        let better = if want.lower_is_better {
            "lower"
        } else {
            "higher"
        };
        assert_eq!(field(got, "better"), better, "{}", want.name);
        assert_eq!(
            got.get("bound").and_then(Json::as_f64),
            Some(want.bound),
            "{}",
            want.name
        );
    }

    let per_layer = listed("per_layer");
    assert_eq!(per_layer.len(), PER_LAYER.len());
    for (got, want) in per_layer.iter().zip(&PER_LAYER) {
        assert_eq!(field(got, "name"), want.name);
        assert_eq!(field(got, "unit"), want.unit, "{}", want.name);
    }

    let workloads_listed = listed("workloads");
    let names: Vec<&str> = workloads_listed.iter().map(|w| field(w, "name")).collect();
    let known: Vec<&str> = workloads::all().iter().map(|w| w.name).collect();
    assert_eq!(names, known);

    for name in END_TO_END
        .iter()
        .map(|m| m.name)
        .chain(PER_LAYER.iter().map(|m| m.name))
        .chain(known)
    {
        assert!(valid_name(name), "`{name}` is not a valid name");
    }
}

#[test]
fn every_workload_is_pinned_at_the_current_scale() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("expect.json");
    let expect = Json::parse(&std::fs::read_to_string(path).expect("expect.json is readable"))
        .expect("expect.json parses");
    assert_eq!(
        expect.get("scale").and_then(Json::as_f64),
        Some(workloads::SCALE)
    );
    assert_eq!(
        expect.get("seed").and_then(Json::as_u64),
        Some(workloads::DEFAULT_SEED)
    );
    for w in workloads::all() {
        let pinned = expect.get("workloads").and_then(|p| p.get(w.name));
        for key in ["rounds", "messages", "bits", "witness"] {
            let value = pinned.and_then(|p| p.get(key)).and_then(Json::as_u64);
            assert!(value.is_some(), "{}: `{key}` is not pinned", w.name);
        }
    }
}

/// Metric lines of one workload's section: name → units seen, in order.
fn metric_lines(section: &[&str]) -> BTreeMap<String, Vec<String>> {
    let mut seen: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for line in section {
        let Some(rest) = line.strip_prefix("  ") else {
            continue;
        };
        if rest.starts_with(' ') {
            continue; // indented detail rows (per-algorithm seconds)
        }
        let mut tokens = rest.split_whitespace();
        let (Some(name), Some(_value), Some(unit)) = (tokens.next(), tokens.next(), tokens.next())
        else {
            panic!("malformed metric line: {line}");
        };
        seen.entry(name.into()).or_default().push(unit.into());
    }
    seen
}

#[test]
fn smoke_prints_every_metric_once_per_applicable_workload() {
    let out_dir: PathBuf = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke-out");
    let output = Command::new(env!("CARGO_BIN_EXE_ule-benchmark"))
        .args(["run", "--smoke", "--out"])
        .arg(&out_dir)
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    assert!(output.status.success(), "smoke run failed:\n{stdout}");

    let lines: Vec<&str> = stdout.lines().collect();
    let starts: Vec<usize> = (0..lines.len())
        .filter(|&i| lines[i].starts_with("== "))
        .collect();
    let all = workloads::all();
    assert_eq!(
        starts.len(),
        all.len(),
        "one section per workload:\n{stdout}"
    );

    for (k, w) in all.iter().enumerate() {
        let end = starts.get(k + 1).copied().unwrap_or(lines.len());
        let section = &lines[starts[k]..end];
        assert!(
            section[0].starts_with(&format!("== {} ==", w.name)),
            "{}",
            section[0]
        );
        let seen = metric_lines(section);

        for m in &END_TO_END {
            assert_eq!(
                seen.get(m.name),
                Some(&vec![m.unit.to_string()]),
                "{}: {}",
                w.name,
                m.name
            );
        }
        assert_eq!(seen.get("failed_frac").map(Vec::len), Some(1), "{}", w.name);
        for m in &PER_LAYER {
            let want = m.applies(w).then(|| vec![m.unit.to_string()]);
            assert_eq!(seen.get(m.name), want.as_ref(), "{}: {}", w.name, m.name);
        }
        let known = END_TO_END.len() + 1 + PER_LAYER.iter().filter(|m| m.applies(w)).count();
        assert_eq!(
            seen.len(),
            known,
            "{}: unlisted metric among {:?}",
            w.name,
            seen.keys()
        );

        // The result line: every listed name, a passing verdict.
        let result = section
            .iter()
            .rev()
            .find(|l| l.starts_with("{\"correct\""))
            .unwrap_or_else(|| panic!("{}: no result line", w.name));
        let result = Json::parse(result).expect("result line parses");
        assert_eq!(
            result.get("correct").and_then(Json::as_bool),
            Some(true),
            "{}",
            w.name
        );
        assert_eq!(
            result.get("failed").and_then(Json::as_u64),
            Some(0),
            "{}",
            w.name
        );
        let Some(Json::Obj(metrics)) = result.get("metrics") else {
            panic!("{}: result line without metrics", w.name)
        };
        let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        let listed: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        assert_eq!(names, listed, "{}", w.name);

        // The trace file: parses, and every span's parent exists.
        let trace = std::fs::read_to_string(out_dir.join(format!("trace-{}.json", w.name)))
            .unwrap_or_else(|e| panic!("{}: trace file: {e}", w.name));
        let trace = Json::parse(&trace).expect("trace parses");
        let spans = trace.get("spans").and_then(Json::as_arr).expect("spans");
        assert!(!spans.is_empty(), "{}", w.name);
        for (id, span) in spans.iter().enumerate() {
            assert_eq!(span.get("id").and_then(Json::as_u64), Some(id as u64));
            assert!(!field(span, "name").is_empty());
            let (start, end) = (
                span.get("start_ns").and_then(Json::as_u64),
                span.get("end_ns").and_then(Json::as_u64),
            );
            assert!(start.is_some() && start <= end, "{}: span {id}", w.name);
            match span.get("parent") {
                Some(Json::Null) => {}
                Some(p) => assert!(
                    p.as_u64().is_some_and(|p| (p as usize) < id),
                    "{}: span {id}",
                    w.name
                ),
                None => panic!("{}: span {id} without a parent field", w.name),
            }
        }
    }
}
