//! End-to-end tests of the `spkadd-cli` binary: generate → stats → add →
//! verify the written sum against the library.

use spkadd_suite::sparse::{io, CscMatrix};
use spkadd_suite::{spkadd_with, Algorithm, Options};
use std::process::Command;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_spkadd-cli"))
}

fn tempdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("spkadd_cli_test_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn gen_stats_add_pipeline() {
    let dir = tempdir("pipeline");
    // Generate a small RMAT collection.
    let status = cli()
        .args([
            "gen",
            "--pattern",
            "rmat",
            "--rows",
            "512",
            "--cols",
            "8",
            "--d",
            "4",
            "--k",
            "3",
            "--seed",
            "7",
            "--out-dir",
            dir.to_str().unwrap(),
        ])
        .status()
        .expect("failed to run cli");
    assert!(status.success());
    let files: Vec<String> = (0..3)
        .map(|i| {
            dir.join(format!("mat_{i:03}.mtx"))
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    for f in &files {
        assert!(std::path::Path::new(f).exists(), "{f} missing");
    }

    // Stats runs and mentions the collection line.
    let out = cli().arg("stats").args(&files).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("collection: k=3"), "stats output: {text}");

    // Add and compare against the library result.
    let sum_path = dir.join("sum.mtx");
    let status = cli()
        .args([
            "add",
            "--algorithm",
            "hash",
            "--out",
            sum_path.to_str().unwrap(),
        ])
        .args(&files)
        .status()
        .unwrap();
    assert!(status.success());

    let mats: Vec<CscMatrix<f64>> = files
        .iter()
        .map(|f| io::read_matrix_market(f).unwrap().to_csc_sum_duplicates())
        .collect();
    let refs: Vec<&CscMatrix<f64>> = mats.iter().collect();
    let expect = spkadd_with(&refs, Algorithm::Hash, &Options::default()).unwrap();
    let got = io::read_matrix_market(&sum_path)
        .unwrap()
        .to_csc_sum_duplicates();
    assert!(got.approx_eq(&expect, 1e-9));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_demo_reports_shard_metrics() {
    let out = cli()
        .args([
            "serve-demo",
            "--shards",
            "3",
            "--keys",
            "2",
            "--matrices",
            "12",
            "--rows",
            "256",
            "--cols",
            "8",
            "--d",
            "4",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "serve-demo failed: {out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("job-0:"), "missing key summary: {text}");
    assert!(text.contains("job-1:"), "missing key summary: {text}");
    assert!(
        text.contains("routed 36 slices"),
        "12 matrices x 3 shards = 36 slices: {text}"
    );
    assert!(text.contains("shard rows"), "missing shard table: {text}");
}

#[test]
fn cli_rejects_unknown_algorithm_and_missing_files() {
    let out = cli()
        .args(["add", "--algorithm", "quantum", "nonexistent.mtx"])
        .output()
        .unwrap();
    assert!(!out.status.success());

    let out = cli().args(["add"]).output().unwrap();
    assert!(!out.status.success());

    let out = cli().args(["frobnicate"]).output().unwrap();
    assert!(!out.status.success());
}

#[test]
fn cli_help_prints_usage() {
    let out = cli().arg("--help").output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE"));
}

#[test]
fn add_rejects_an_oversized_size_line() {
    let dir = tempdir("oversized");
    let path = dir.join("huge.mtx");
    std::fs::write(
        &path,
        "%%MatrixMarket matrix coordinate real general\n2 2 99999999999999\n1 1 1.0\n",
    )
    .unwrap();
    let out = cli()
        .args(["add", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("parse error"), "stderr: {err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn add_rejects_unknown_flags_instead_of_dropping_a_file() {
    let dir = tempdir("unknown_flag");
    let files = small_collection(&dir);
    let sum = dir.join("sum.mtx");
    // An unknown flag used to be taken as one with a value, so the file
    // after it vanished from the sum and the run still exited 0.
    for flag in ["--unsorted-typo", "--no-adaptive"] {
        let out = cli()
            .args(["add", flag])
            .args(&files)
            .args(["--out", sum.to_str().unwrap()])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(1), "{flag}: {out:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(&format!("unknown flag '{flag}'")), "{err}");
        assert!(err.contains("USAGE"), "{err}");
        assert!(!sum.exists(), "{flag}: nothing may be written");
    }
    // The other subcommands reject unknown flags too.
    for args in [
        vec!["stats", "--verbose", files[0].as_str()],
        vec!["gen", "--rws", "64"],
        vec!["serve-demo", "--shard", "2"],
        vec!["check", "--roots", "."],
    ] {
        let out = cli().args(&args).output().unwrap();
        assert_eq!(out.status.code(), Some(1), "{args:?}: {out:?}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Writes a 3-matrix collection into `dir` and returns the file paths.
fn small_collection(dir: &std::path::Path) -> Vec<String> {
    let status = cli()
        .args(["gen", "--rows", "64", "--cols", "4", "--d", "2", "--k", "3"])
        .args(["--out-dir", dir.to_str().unwrap()])
        .status()
        .unwrap();
    assert!(status.success());
    (0..3)
        .map(|i| {
            dir.join(format!("mat_{i:03}.mtx"))
                .to_string_lossy()
                .into_owned()
        })
        .collect()
}

#[test]
fn subcommands_without_operands_reject_stray_ones() {
    let dir = tempdir("stray_operand");
    let out_dir = dir.join("gen");
    // `gen` used to drop the stray `64` and write the collection anyway.
    let out = cli()
        .args(["gen", "64", "--rows", "128", "--cols", "4", "--d", "2"])
        .args(["--out-dir", out_dir.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("gen takes no operands, got '64'"), "{err}");
    assert!(!out_dir.exists(), "nothing may be written");
    for args in [
        vec!["serve-demo", "--matrices", "2", "--rows", "64", "extra"],
        vec!["check", "--root", ".", "extra"],
    ] {
        let out = cli().args(&args).output().unwrap();
        assert_eq!(out.status.code(), Some(1), "{args:?}: {out:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("takes no operands, got 'extra'"), "{err}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn repeated_flags_are_rejected_instead_of_keeping_the_first() {
    let dir = tempdir("repeated_flag");
    let files = small_collection(&dir);
    let sum = dir.join("sum.mtx");
    // The second `--algorithm` was never read: this ran Heap and exited 0.
    let out = cli()
        .args(["add", "--algorithm", "heap", "--algorithm", "quantum"])
        .args(["--out", sum.to_str().unwrap()])
        .args(&files)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--algorithm given more than once"), "{err}");
    assert!(!sum.exists(), "nothing may be written");
    for args in [
        vec!["add", "--unsorted", "--unsorted", files[0].as_str()],
        vec!["gen", "--rows", "64", "--rows", "128"],
        vec!["serve-demo", "--shards", "2", "--shards", "3"],
    ] {
        let out = cli().args(&args).output().unwrap();
        assert_eq!(out.status.code(), Some(1), "{args:?}: {out:?}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
