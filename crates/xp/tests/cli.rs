//! End-to-end tests of the `ule-xp` binary: spec-file runs, the `--force`
//! overwrite guard, and `compare` exit codes (0 pass / 1 regression /
//! 2 usage error) — the contract the CI perf gate scripts against.

use std::path::PathBuf;
use std::process::Command;

fn ule_xp() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ule-xp"))
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ule-xp-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

const TINY_SPEC: &str = r#"{
  "name": "cli-tiny",
  "groups": [{
    "algorithms": ["floodmax", "tole"],
    "families": ["cycle", "bintree"],
    "sizes": [15],
    "trials": 2,
    "timed": true
  }]
}"#;

#[test]
fn run_compare_and_force_guard_round_trip() {
    let dir = temp_dir("roundtrip");
    let spec_path = dir.join("spec.json");
    std::fs::write(&spec_path, TINY_SPEC).unwrap();
    let out_path = dir.join("result.json");

    // First run writes the result and prints the human table.
    let out = ule_xp()
        .args(["run", "--spec"])
        .arg(&spec_path)
        .arg("--out")
        .arg(&out_path)
        .args(["--quiet"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let table = String::from_utf8_lossy(&out.stdout);
    assert!(table.contains("### floodmax"), "{table}");
    assert!(table.contains("bintree/15"), "{table}");

    // Second run without --force must refuse (exit 2) and leave the file.
    let before = std::fs::read_to_string(&out_path).unwrap();
    let refused = ule_xp()
        .args(["run", "--spec"])
        .arg(&spec_path)
        .arg("--out")
        .arg(&out_path)
        .args(["--quiet"])
        .output()
        .unwrap();
    assert_eq!(refused.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&refused.stderr).contains("--force"));
    assert_eq!(std::fs::read_to_string(&out_path).unwrap(), before);

    // With --force it succeeds.
    let forced = ule_xp()
        .args(["run", "--spec"])
        .arg(&spec_path)
        .arg("--out")
        .arg(&out_path)
        .args(["--quiet", "--force", "--no-table"])
        .output()
        .unwrap();
    assert!(forced.status.success());

    // Self-compare passes (exit 0) — counts are deterministic; only the
    // wall-clock throughput differs between the two runs, within band on
    // a cell this tiny... unless the machine hiccups, so compare the file
    // against itself for a noise-free pass check.
    let ok = ule_xp()
        .arg("compare")
        .arg(&out_path)
        .arg(&out_path)
        .output()
        .unwrap();
    assert!(
        ok.status.success(),
        "{}",
        String::from_utf8_lossy(&ok.stdout)
    );

    // Inject a >2x throughput regression into a copy: compare exits 1.
    let slow_path = dir.join("slow.json");
    let mut doctored = std::fs::read_to_string(&out_path).unwrap();
    doctored = regress_throughput(&doctored);
    std::fs::write(&slow_path, doctored).unwrap();
    let failed = ule_xp()
        .arg("compare")
        .arg(&out_path)
        .arg(&slow_path)
        .output()
        .unwrap();
    assert_eq!(failed.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&failed.stdout).contains("FAIL"));

    let _ = std::fs::remove_dir_all(&dir);
}

/// Divides every `"msgs_per_s": N` value by 10 (a blatant regression).
fn regress_throughput(json: &str) -> String {
    let mut out = String::new();
    for line in json.lines() {
        if let Some(idx) = line.find("\"msgs_per_s\": ") {
            let (head, tail) = line.split_at(idx + "\"msgs_per_s\": ".len());
            let digits: String = tail.chars().take_while(char::is_ascii_digit).collect();
            let rest = &tail[digits.len()..];
            let slowed = digits.parse::<u64>().unwrap() / 10;
            out.push_str(&format!("{head}{slowed}{rest}\n"));
        } else {
            out.push_str(line);
            out.push('\n');
        }
    }
    out
}

#[test]
fn threads_override_changes_wall_clock_only() {
    let dir = temp_dir("threads");
    let spec_path = dir.join("spec.json");
    std::fs::write(&spec_path, TINY_SPEC).unwrap();
    let run_with = |label: &str, extra: &[&str]| {
        let out_path = dir.join(format!("{label}.json"));
        let out = ule_xp()
            .args(["run", "--spec"])
            .arg(&spec_path)
            .arg("--out")
            .arg(&out_path)
            .args(["--quiet", "--no-table"])
            .args(extra)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        out_path
    };
    let sequential = run_with("seq", &["--threads", "0"]);
    let threaded = run_with("par", &["--threads", "3"]);
    // Engine determinism contract end to end: identical counts at any
    // thread count, so the comparison passes on everything but (possibly)
    // wall-clock noise — and the injected-throughput machinery elsewhere
    // shows compare is not blind on these cells.
    let ok = ule_xp()
        .arg("compare")
        .arg(&sequential)
        .arg(&threaded)
        .args(["--fail-throughput", "1e9", "--fail-cost", "0.0000001"])
        .output()
        .unwrap();
    assert!(
        ok.status.success(),
        "{}",
        String::from_utf8_lossy(&ok.stdout)
    );
    // A malformed thread count is a usage error.
    let bad = ule_xp()
        .args(["run", "--spec"])
        .arg(&spec_path)
        .args(["--threads", "many"])
        .output()
        .unwrap();
    assert_eq!(bad.status.code(), Some(2));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn usage_errors_exit_2() {
    let dir = temp_dir("usage");
    // Unknown campaign.
    let unknown = ule_xp()
        .args(["run", "--campaign", "no-such-campaign"])
        .current_dir(&dir)
        .output()
        .unwrap();
    assert_eq!(unknown.status.code(), Some(2));
    // compare with one file.
    let one_arg = ule_xp()
        .args(["compare", "only-one.json"])
        .output()
        .unwrap();
    assert_eq!(one_arg.status.code(), Some(2));
    // Retired memory bands are unknown options, so a stale CI script fails
    // loudly instead of comparing counts alone.
    for retired in [["--fail-rss", "1.5"], ["--fail-allocs", "0.5"]] {
        let out = ule_xp()
            .args(["compare", "a.json", "b.json"])
            .args(retired)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{retired:?}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("unknown option"),
            "{retired:?}"
        );
    }
    // Unknown subcommand.
    let bad_sub = ule_xp().arg("frobnicate").output().unwrap();
    assert_eq!(bad_sub.status.code(), Some(2));
    // list works and names the builtins.
    let list = ule_xp().arg("list").output().unwrap();
    assert!(list.status.success());
    let text = String::from_utf8_lossy(&list.stdout);
    for (name, _) in ule_xp::BUILTIN_CAMPAIGNS {
        assert!(text.contains(name), "{text}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
