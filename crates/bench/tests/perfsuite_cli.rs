//! Command-line behaviour of the `perfsuite` binary.

use std::process::Command;
use std::time::{Duration, Instant};

/// The campaign passes take over a minute in release; an unwritable
/// `--out` must be refused before the first of them starts.
#[test]
fn unwritable_out_path_fails_before_any_pass_runs() {
    let path = std::env::temp_dir()
        .join(format!("wn-perfsuite-missing-{}", std::process::id()))
        .join("x.json");
    let path = path.to_str().expect("utf-8 temp dir");
    let start = Instant::now();
    let out = Command::new(env!("CARGO_BIN_EXE_perfsuite"))
        .args(["--out", path])
        .output()
        .expect("perfsuite runs");
    let took = start.elapsed();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "{stderr}");
    assert!(
        stderr.contains(&format!("cannot write '{path}'")),
        "{stderr}"
    );
    assert!(!stderr.contains("serial pass"), "a pass started: {stderr}");
    assert!(took < Duration::from_secs(2), "took {took:?}");
}
