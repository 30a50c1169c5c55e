//! End-to-end tests of `qa-fleet --scope`: the per-state profile exports
//! (`scope.json`, `scope.folded`, `explain.txt`) must be byte-identical
//! across reruns and `--jobs N` parallelism — the same determinism contract `metrics.prom` already carries.

use std::path::PathBuf;
use std::process::{Command, Output};

fn qa_fleet(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_qa-fleet"))
        .args(args)
        .output()
        .expect("spawn qa-fleet")
}

fn tmp(name: &str) -> String {
    let mut p = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    p.push(name);
    p.to_str().unwrap().to_string()
}

fn read(dir: &str, name: &str) -> String {
    let path = PathBuf::from(dir).join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

const CORPUS: &[&str] = &[
    "--queries",
    "4",
    "--docs",
    "4",
    "--size",
    "48",
    "--seed",
    "7",
    "--scope",
];

const EXPORTS: [&str; 3] = ["scope.json", "scope.folded", "explain.txt"];

fn run_scoped(label: &str, extra: &[&str]) -> [(String, String); 3] {
    let dir = tmp(label);
    let out = qa_fleet(&[CORPUS, extra, &["--out-dir", &dir]].concat());
    assert!(
        out.status.success(),
        "{label} failed\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    EXPORTS.map(|name| (name.to_string(), read(&dir, name)))
}

#[test]
fn scope_exports_are_byte_identical_across_jobs_and_reruns() {
    let baseline = run_scoped("scope-jobs-1", &["--jobs", "1"]);
    let parallel = run_scoped("scope-jobs-4", &["--jobs", "4"]);
    let rerun = run_scoped("scope-jobs-1-again", &["--jobs", "1"]);
    let (_, scope_json) = &baseline[0];
    assert!(
        scope_json.contains("\"machines\""),
        "scope.json has profile tables: {scope_json}"
    );
    let (_, explain) = &baseline[2];
    assert!(
        explain.contains("machine "),
        "explain is rendered: {explain}"
    );
    assert!(
        explain.contains("hot "),
        "explain names hot states: {explain}"
    );
    for (b, other, what) in baseline
        .iter()
        .zip(&parallel)
        .map(|(b, o)| (b, o, "--jobs 4"))
        .chain(baseline.iter().zip(&rerun).map(|(b, o)| (b, o, "rerun")))
    {
        assert_eq!(b.1, other.1, "{} diverged under {}", b.0, what);
    }
}
