//! Pins the JSONL trace file the `proteus` binary writes.
//!
//! Runs `proteus configs/trace-smoke.conf --trace <file>` and compares the
//! file with `baselines/smoke_trace.jsonl` byte for byte, apart from the
//! solver's wall-clock field (`"wall"` on `solve_stats` lines), the one
//! value no two runs repeat. This covers the whole file path: creating the
//! file, the sink's chunked writes, the end-of-run flush and `finish`.
//!
//! The baseline was recorded by a release build. A debug build audits
//! every plan, so its file also holds one `audit_report` line per plan;
//! under `debug_assertions` (which the test binary shares with the
//! `proteus` binary it runs) those lines are left out of the comparison.

use std::path::Path;
use std::process::Command;

/// The line with its `,"wall":<nanos>` field removed.
fn strip_wall(line: &str) -> String {
    match line.split_once(",\"wall\":") {
        Some((head, tail)) => format!(
            "{head}{}",
            tail.trim_start_matches(|c: char| c.is_ascii_digit())
        ),
        None => line.to_string(),
    }
}

#[test]
fn cli_trace_file_matches_the_smoke_baseline_apart_from_wall() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli_smoke_trace.jsonl");
    let out = Command::new(env!("CARGO_BIN_EXE_proteus"))
        .arg(root.join("configs/trace-smoke.conf"))
        .arg("--trace")
        .arg(&path)
        .output()
        .expect("the proteus binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "proteus failed: {stderr}");

    let text = std::fs::read_to_string(&path).expect("the trace file exists");
    let want = include_str!("../../../baselines/smoke_trace.jsonl");
    assert!(text.ends_with('\n'), "the last line is newline-terminated");
    let events = text.lines().count();
    let got: Vec<&str> = text
        .lines()
        .filter(|l| !(cfg!(debug_assertions) && l.contains("\"ev\":\"audit_report\"")))
        .collect();
    for (i, (g, w)) in got.iter().zip(want.lines()).enumerate() {
        assert_eq!(
            strip_wall(g),
            strip_wall(w),
            "first divergence at line {}",
            i + 1
        );
    }
    assert_eq!(got.len(), want.lines().count(), "line count drifted");
    assert!(
        stderr.contains(&format!("trace: {events} events -> ")),
        "the reported event count is the file's line count: {stderr}"
    );
    let _ = std::fs::remove_file(&path);
}
