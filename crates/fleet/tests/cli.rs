//! End-to-end tests of the `qa-fleet` binary: a green smoke run, a
//! deterministic rerun, a budget-tripped fleet leaving a post-mortem, and
//! a live `--serve` fleet scraped over HTTP mid-run.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};
use std::time::Duration;

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

/// Drop the `qa_heap_*` gauge lines from a Prometheus export. Under
/// `--features alloc-count` those gauges are live process state — they
/// move between renders and across schedules — so the byte-identity
/// assertions compare everything but them. In the default build they are
/// absent and this is the identity function.
fn without_heap_gauges(prom: &str) -> String {
    prom.lines()
        .filter(|l| !l.contains("qa_heap_"))
        .map(|l| format!("{l}\n"))
        .collect()
}

#[test]
fn smoke_run_succeeds_and_writes_exports() {
    let dir = tmp("fleet-smoke");
    let out = qa_fleet(&["--smoke", "--out-dir", &dir]);
    assert!(
        out.status.success(),
        "stdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("qa-fleet: 12 run(s)"), "{stdout}");
    assert!(stdout.contains("example-3-4"), "{stdout}");
    assert!(stdout.contains("0 failed"), "{stdout}");

    let dir = PathBuf::from(&dir);
    let summary = std::fs::read_to_string(dir.join("summary.txt")).unwrap();
    assert!(summary.contains("steps   p50"), "{summary}");
    let prom = std::fs::read_to_string(dir.join("metrics.prom")).unwrap();
    assert!(prom.contains("qa_fleet_steps_total"), "{prom}");
    let trace = std::fs::read_to_string(dir.join("trace-0.json")).unwrap();
    assert!(trace.contains("\"traceEvents\""), "{trace}");
    assert!(
        !dir.join("postmortem.txt").exists(),
        "green run must not leave a post-mortem"
    );

    // The span profile is always exported, serve or not: every line is
    // `stack;frames count` with a positive count, and the stacks are made
    // of the engines' phase names (space-sanitized).
    let folded = std::fs::read_to_string(dir.join("profile.folded")).unwrap();
    assert!(!folded.is_empty());
    for line in folded.lines() {
        let (stack, count) = line.rsplit_once(' ').expect("`stack count` shape");
        assert!(!stack.is_empty(), "{line}");
        assert!(count.parse::<u64>().expect("integer weight") > 0, "{line}");
    }
    assert!(folded.lines().any(|l| l.starts_with("run")), "{folded}");
}

#[test]
fn reruns_with_the_same_seed_are_byte_identical() {
    let a = tmp("fleet-det-a");
    let b = tmp("fleet-det-b");
    for dir in [&a, &b] {
        let out = qa_fleet(&[
            "--queries",
            "4",
            "--docs",
            "2",
            "--size",
            "64",
            "--seed",
            "9",
            "--sample-every",
            "2",
            "--out-dir",
            dir,
        ]);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    // Counters, documents and sampling are all seeded, and the summary on
    // disk carries no wall-clock line, so both exports reproduce
    // byte-for-byte. (The phase spans of the trace export carry wall-clock
    // values and are excluded.)
    let read = |d: &str, f: &str| std::fs::read_to_string(PathBuf::from(d).join(f)).unwrap();
    assert_eq!(
        without_heap_gauges(&read(&a, "metrics.prom")),
        without_heap_gauges(&read(&b, "metrics.prom"))
    );
    assert_eq!(read(&a, "summary.txt"), read(&b, "summary.txt"));
    // Same runs sampled, same step counts inside the exported trace.
    let counters = |text: &str| {
        text.split("\"counters\"")
            .nth(1)
            .expect("trace has a counters event")
            .to_string()
    };
    assert_eq!(
        counters(&read(&a, "trace-0.json")),
        counters(&read(&b, "trace-0.json"))
    );
}

#[test]
fn parallel_jobs_match_sequential_byte_for_byte() {
    // The acceptance gate of the parallel executor: `--jobs 4` must leave
    // exactly the bytes `--jobs 1` leaves — same summary table, same merged
    // Prometheus registry — because outcomes land in indexed slots,
    // sampling flags are pre-drawn in job order, and counter merges
    // commute.
    let seq = tmp("fleet-jobs-1");
    let par = tmp("fleet-jobs-4");
    for (jobs, dir) in [("1", &seq), ("4", &par)] {
        let out = qa_fleet(&[
            "--queries",
            "4",
            "--docs",
            "6",
            "--size",
            "64",
            "--seed",
            "9",
            "--sample-every",
            "2",
            "--jobs",
            jobs,
            "--out-dir",
            dir,
        ]);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    let read = |d: &str, f: &str| std::fs::read_to_string(PathBuf::from(d).join(f)).unwrap();
    assert_eq!(read(&seq, "summary.txt"), read(&par, "summary.txt"));
    assert_eq!(
        without_heap_gauges(&read(&seq, "metrics.prom")),
        without_heap_gauges(&read(&par, "metrics.prom"))
    );
}

#[test]
fn failed_run_flushes_partial_telemetry_mid_batch() {
    // When a worker's budget trips, summary.txt/metrics.prom must already
    // be on disk before the batch finishes; on normal exit they are
    // overwritten by the complete versions, so here (where the whole fleet
    // completes after the failure) the final summary has no PARTIAL marker
    // but both files exist and record the failure.
    let dir = tmp("fleet-partial");
    let out = qa_fleet(&[
        "--queries",
        "1",
        "--docs",
        "3",
        "--size",
        "64",
        "--max-steps",
        "20",
        "--jobs",
        "2",
        "--out-dir",
        &dir,
    ]);
    assert_eq!(out.status.code(), Some(1));
    let dir = PathBuf::from(&dir);
    let summary = std::fs::read_to_string(dir.join("summary.txt")).unwrap();
    assert!(summary.contains("3 failed"), "{summary}");
    assert!(std::fs::read_to_string(dir.join("metrics.prom"))
        .unwrap()
        .contains("qa_fleet_budget_trips_total"));
}

#[test]
fn tripped_budget_fails_the_fleet_and_leaves_a_post_mortem() {
    let dir = tmp("fleet-abort");
    let out = qa_fleet(&[
        "--queries",
        "1",
        "--docs",
        "2",
        "--size",
        "64",
        "--max-steps",
        "20",
        "--out-dir",
        &dir,
    ]);
    assert_eq!(out.status.code(), Some(1), "budget trips must fail the run");
    let post = std::fs::read_to_string(PathBuf::from(&dir).join("postmortem.txt")).unwrap();
    assert!(post.contains("run aborted by watchdog"), "{post}");
    assert!(post.contains("flight recorder dump"), "{post}");
    assert!(post.contains("budget_trips"), "{post}");
}

/// Minimal HTTP/1.1 GET against the fleet's pulse server.
fn http_get(addr: &str, path: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to pulse server");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n"
    )
    .expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let status: u16 = response
        .split_ascii_whitespace()
        .nth(1)
        .expect("status line")
        .parse()
        .expect("numeric status");
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

#[test]
fn serve_answers_live_scrapes_and_final_scrape_matches_the_export() {
    // A paced fleet (so the batch takes a comfortable while) with the
    // pulse server on an ephemeral loopback port. The stdout protocol
    // lines coordinate the phases: after "serving on" the batch is in
    // flight (mid-run scrape), after "run complete" the exports are on
    // disk (final scrape must equal metrics.prom byte-for-byte).
    let dir = tmp("fleet-serve");
    let mut child = Command::new(env!("CARGO_BIN_EXE_qa-fleet"))
        .args([
            "--smoke",
            "--out-dir",
            &dir,
            "--serve",
            "127.0.0.1:0",
            "--pace-ms",
            "50",
            "--linger-ms",
            "30000",
        ])
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn qa-fleet --serve");
    let mut lines = BufReader::new(child.stdout.take().expect("piped stdout")).lines();
    let addr = loop {
        let line = lines
            .next()
            .expect("child printed the serving line")
            .expect("read child stdout");
        if let Some(a) = line.strip_prefix("pulse: serving on ") {
            break a.to_string();
        }
    };

    // Mid-run: liveness + readiness are up and the scrape is valid
    // Prometheus text exposition with the fleet's families present.
    let (status, body) = http_get(&addr, "/healthz");
    assert_eq!((status, body.as_str()), (200, "ok\n"));
    // Readiness flips once the out dir exists and documents are generated;
    // until then /readyz legitimately answers 503 "warming up".
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    loop {
        let (status, body) = http_get(&addr, "/readyz");
        if status == 200 {
            break;
        }
        assert_eq!((status, body.as_str()), (503, "warming up\n"));
        assert!(
            std::time::Instant::now() < deadline,
            "fleet never became ready"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    // Runs merge into the served registry as they finish, so poll until
    // the first completed run's counters appear (the 50 ms pace leaves a
    // wide window before the batch ends).
    let mid = loop {
        let (status, mid) = http_get(&addr, "/metrics");
        assert_eq!(status, 200);
        qa_pulse::validate_prometheus(&mid).expect("mid-run scrape parses as Prometheus");
        if mid.contains("qa_fleet_steps_total") {
            break mid;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "no completed run showed up in /metrics: {mid}"
        );
        std::thread::sleep(Duration::from_millis(10));
    };
    assert!(mid.contains("qa_build_info{"), "{mid}");
    let (status, flight) = http_get(&addr, "/flight");
    assert_eq!(status, 200);
    assert!(flight.starts_with("{\"retained\":"), "{flight}");
    assert!(flight.contains("\"events\":["), "{flight}");

    for line in lines.by_ref() {
        if line.expect("read child stdout") == "pulse: run complete" {
            break;
        }
    }

    // Post-run: the scrape and the exported file are the same bytes.
    let (status, fin) = http_get(&addr, "/metrics");
    assert_eq!(status, 200);
    let prom =
        std::fs::read_to_string(PathBuf::from(&dir).join("metrics.prom")).expect("metrics.prom");
    assert_eq!(
        without_heap_gauges(&fin),
        without_heap_gauges(&prom),
        "post-run scrape != exported metrics.prom"
    );
    // The served profile equals the exported profile.folded.
    let (status, profile) = http_get(&addr, "/profile");
    assert_eq!(status, 200);
    let folded = std::fs::read_to_string(PathBuf::from(&dir).join("profile.folded"))
        .expect("profile.folded");
    assert_eq!(profile, folded);

    // /quit ends the linger window promptly.
    let (status, _) = http_get(&addr, "/quit");
    assert_eq!(status, 200);
    let out = child.wait().expect("child exits");
    assert!(out.success());
}

#[test]
fn unknown_flag_is_a_usage_error() {
    let out = qa_fleet(&["--bogus"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
}

#[test]
fn multi_process_flags_are_usage_errors() {
    for (flag, value) in [
        ("--mesh", "2"),
        ("--chaos-kill", "0"),
        ("--shard", "0/2"),
        ("--worker-id", "w0"),
        ("--run-id", "r"),
    ] {
        let out = qa_fleet(&[flag, value, "--out-dir", &tmp("removed-flag")]);
        assert_eq!(out.status.code(), Some(2), "{flag}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(&format!("unknown flag {flag}")), "{stderr}");
    }
}
