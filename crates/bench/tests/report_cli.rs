//! Command-line behaviour of the `report` binary's JSONL exports.

use std::path::PathBuf;
use std::process::{Command, Output};
use std::time::{Duration, Instant};

/// A path inside a directory that does not exist, so creating it fails.
fn unwritable_path(name: &str) -> PathBuf {
    std::env::temp_dir()
        .join(format!("wn-report-missing-{}", std::process::id()))
        .join(name)
}

fn report(args: &[&str]) -> (Output, Duration) {
    let start = Instant::now();
    let out = Command::new(env!("CARGO_BIN_EXE_report"))
        .args(args)
        .output()
        .expect("report runs");
    (out, start.elapsed())
}

/// SCALE-DCF takes seconds even in release; an unwritable export path
/// must be refused before it (or the observability campaign) starts.
#[test]
fn unwritable_export_paths_fail_before_any_experiment_runs() {
    for flag in ["--trace-json", "--metrics-json"] {
        let path = unwritable_path("out.jsonl");
        let path = path.to_str().expect("utf-8 temp dir");
        let (out, took) = report(&["--only", "SCALE-DCF", flag, path]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{flag}: {stderr}");
        assert!(
            stderr.contains(&format!("cannot write {path}")),
            "{flag}: {stderr}"
        );
        assert!(
            out.stdout.is_empty(),
            "{flag}: an experiment ran before the path was checked"
        );
        assert!(took < Duration::from_secs(2), "{flag}: took {took:?}");
    }
}

/// A writable export path still receives the JSONL, written through
/// the handle opened up front.
#[test]
fn writable_export_paths_receive_the_jsonl() {
    let dir = std::env::temp_dir().join(format!("wn-report-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let trace = dir.join("trace.jsonl");
    let metrics = dir.join("metrics.jsonl");
    let (out, _) = report(&[
        "--only",
        "FIG-1.2",
        "--threads",
        "2",
        "--trace-json",
        trace.to_str().expect("utf-8 temp dir"),
        "--metrics-json",
        metrics.to_str().expect("utf-8 temp dir"),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    for path in [&trace, &metrics] {
        let body = std::fs::read_to_string(path).expect("export written");
        assert!(!body.is_empty(), "{} is empty", path.display());
        assert!(body.lines().all(|l| l.starts_with("{\"exp\":\"")));
    }
    std::fs::remove_dir_all(&dir).expect("clean up");
}
