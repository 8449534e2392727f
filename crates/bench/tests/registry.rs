//! The experiment registry against the `proteus-bench` binary and the
//! committed `results/`: every name is unique and has its output file, an
//! unknown name exits 2 with the usage, and the cheap experiments reproduce
//! their files byte for byte. (CI's "Results are current" step diffs the
//! rest.)

use proteus_bench::EXPERIMENTS;
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::{Command, Output};

fn results_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

fn bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_proteus-bench"))
        .args(args)
        .output()
        .expect("spawn proteus-bench")
}

#[test]
fn names_are_unique() {
    let names: BTreeSet<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    assert_eq!(names.len(), EXPERIMENTS.len(), "duplicate experiment name");
}

#[test]
fn names_are_the_results_files() {
    let names: BTreeSet<String> = EXPERIMENTS.iter().map(|e| e.name.to_string()).collect();
    let files: BTreeSet<String> = std::fs::read_dir(results_dir())
        .expect("read results/")
        .map(|entry| entry.expect("results/ entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "txt"))
        .map(|path| path.file_stem().unwrap().to_string_lossy().into_owned())
        .collect();
    assert_eq!(names, files);
}

#[test]
fn unknown_or_missing_name_exits_2_with_usage() {
    for args in [&["bogus"][..], &[], &["fig1_motivation", "extra"]] {
        let out = bench(args);
        assert_eq!(out.status.code(), Some(2), "args {args:?}");
        assert!(out.stdout.is_empty(), "args {args:?}");
        let usage = String::from_utf8(out.stderr).expect("utf-8 usage");
        for e in EXPERIMENTS {
            assert!(usage.contains(e.name), "usage lacks {}: {usage}", e.name);
        }
    }
}

#[test]
fn cheap_experiments_reproduce_their_results() {
    for name in [
        "fig1_motivation",
        "ext_varsize",
        "calibration_batching",
        "fig6_batching",
    ] {
        let out = bench(&[name]);
        assert!(out.status.success(), "{name} failed");
        let committed = std::fs::read_to_string(results_dir().join(format!("{name}.txt")))
            .expect("read committed result");
        assert_eq!(
            String::from_utf8(out.stdout).expect("utf-8 output"),
            committed,
            "{name} no longer prints results/{name}.txt"
        );
    }
}
