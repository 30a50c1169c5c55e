//! End-to-end tests of the `qa-trace` binary: record two runs differing in
//! one transition, diff them, explain a selection, and export both formats.

use std::path::PathBuf;
use std::process::{Command, Output};

fn qa_trace(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_qa-trace"))
        .args(args)
        .output()
        .expect("spawn qa-trace")
}

fn tmp(name: &str) -> String {
    let mut p = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    p.push(name);
    p.to_str().unwrap().to_string()
}

#[test]
fn record_diff_pinpoints_the_changed_transition() {
    let a = tmp("orig.json");
    let b = tmp("variant.json");
    let out = qa_trace(&["record", "example-3-4", "0110", "--out", &a]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = qa_trace(&["record", "example-3-4-variant", "0110", "--out", &b]);
    assert!(out.status.success());

    // identical traces: exit 0
    let same = qa_trace(&["diff", &a, &a]);
    assert!(same.status.success());

    // the one-transition variant: exit 1 and the first divergence named
    let diff = qa_trace(&["diff", &a, &b]);
    assert_eq!(diff.status.code(), Some(1));
    let text = String::from_utf8_lossy(&diff.stdout);
    assert!(
        text.contains("first divergence at step 6"),
        "unexpected diff output:\n{text}"
    );
    assert!(text.contains("q1 @ 4"), "original turns into s1:\n{text}");
    assert!(text.contains("q2 @ 4"), "variant turns into s2:\n{text}");
}

#[test]
fn why_explains_the_example_3_4_selection() {
    let out = qa_trace(&["why", "example-3-4", "0110"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("(word index 1)"), "{text}");
    assert!(
        text.contains("position 2 selected: λ(q1, σ1) = 1"),
        "{text}"
    );
    assert!(text.contains("visits:"), "{text}");

    // JSON mode parses back
    let out = qa_trace(&["why", "example-3-4", "0110", "--json"]);
    let text = String::from_utf8_lossy(&out.stdout);
    let v = qa_obs::json::parse(text.trim()).expect("valid JSON explanation");
    assert_eq!(v.get("pos").and_then(qa_obs::json::Value::as_u64), Some(2));
}

#[test]
fn why_shows_the_stay_certificate() {
    let out = qa_trace(&["why", "example-5-14"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("stay certificate"), "{text}");
}

#[test]
fn replay_and_exports_work_on_recorded_files() {
    let trace = tmp("replay.json");
    let metrics = tmp("metrics.json");
    let out = qa_trace(&[
        "record",
        "example-3-4",
        "0110",
        "--out",
        &trace,
        "--metrics-out",
        &metrics,
    ]);
    assert!(out.status.success());

    let replay = qa_trace(&["replay", &trace]);
    assert!(replay.status.success());
    let text = String::from_utf8_lossy(&replay.stdout);
    assert!(text.contains("q0 @ 0 ->"), "{text}");
    assert!(text.contains("steps:"), "{text}");

    let chrome = qa_trace(&["export", "chrome", &trace]);
    assert!(chrome.status.success());
    let text = String::from_utf8_lossy(&chrome.stdout);
    let v = qa_obs::json::parse(text.trim()).expect("valid trace-event JSON");
    assert!(v.get("traceEvents").is_some());

    let prom = qa_trace(&["export", "prom", &metrics]);
    assert!(prom.status.success());
    let text = String::from_utf8_lossy(&prom.stdout);
    assert!(text.contains("# TYPE qa_steps_total counter"), "{text}");
}

#[test]
fn chrome_export_names_process_and_threads() {
    let trace = tmp("meta.json");
    let out = qa_trace(&["record", "example-3-4", "0110", "--out", &trace]);
    assert!(out.status.success());
    let chrome = qa_trace(&["export", "chrome", &trace]);
    assert!(chrome.status.success());
    let text = String::from_utf8_lossy(&chrome.stdout);
    let v = qa_obs::json::parse(text.trim()).expect("valid trace-event JSON");
    let events = v
        .get("traceEvents")
        .and_then(qa_obs::json::Value::as_arr)
        .unwrap();
    let metas: Vec<&str> = events
        .iter()
        .filter(|e| e.get("ph").and_then(qa_obs::json::Value::as_str) == Some("M"))
        .filter_map(|e| e.get("name").and_then(qa_obs::json::Value::as_str))
        .collect();
    assert!(metas.contains(&"process_name"), "{metas:?}");
    assert!(metas.contains(&"thread_name"), "{metas:?}");
}

/// A synthetic ten-job wide-event log: two queries, one with perfectly
/// quadratic growth (steps = 2·n²) and one constant. Written to `name`:
/// tests run in parallel, so each caller needs its own file.
fn write_events_log(name: &str) -> String {
    let path = tmp(name);
    let mut log = String::new();
    for i in 1u64..=5 {
        let n = 10 * i;
        log.push_str(&format!(
            "{{\"v\":1,\"run\":\"r\",\"trace\":\"{:016x}\",\"span\":\"{:016x}\",\
             \"job\":{},\"query\":\"quad\",\"query_index\":0,\"doc_index\":{},\
             \"doc_nodes\":{n},\"doc_depth\":3,\"steps\":{},\"reversals\":0,\
             \"cache_hits\":0,\"cache_misses\":0,\"budget_trips\":0,\
             \"selected\":1,\"sampled\":false,\"outcome\":\"ok\",\
             \"worker\":\"local\",\"shard\":\"0/1\",\"start_ns\":1,\"wall_ns\":9}}\n",
            i,
            i + 100,
            i - 1,
            i - 1,
            2 * n * n
        ));
    }
    for i in 6u64..=10 {
        log.push_str(&format!(
            "{{\"v\":1,\"run\":\"r\",\"trace\":\"{:016x}\",\"span\":\"{:016x}\",\
             \"job\":{},\"query\":\"flat\",\"query_index\":1,\"doc_index\":{},\
             \"doc_nodes\":{},\"doc_depth\":1,\"steps\":7,\"reversals\":0,\
             \"cache_hits\":0,\"cache_misses\":0,\"budget_trips\":0,\
             \"selected\":0,\"sampled\":false,\"outcome\":\"ok\",\
             \"worker\":\"local\",\"shard\":\"0/1\",\"start_ns\":1,\"wall_ns\":9}}\n",
            i,
            i + 100,
            i - 1,
            i - 6,
            10 * (i - 5)
        ));
    }
    std::fs::write(&path, log).expect("write events log");
    path
}

#[test]
fn analyze_reports_heavy_hitters_outliers_and_growth() {
    let events = write_events_log("events-analyze.jsonl");

    let top = qa_trace(&["analyze", "top", &events, "--k", "2"]);
    assert!(top.status.success());
    let text = String::from_utf8_lossy(&top.stdout);
    assert!(text.contains("top 2 of 10 job(s)"), "{text}");
    // job 4 is the heaviest: 2·50² = 5000 steps
    assert!(
        text.lines().nth(2).unwrap().starts_with("4     quad"),
        "{text}"
    );

    let slow = qa_trace(&["analyze", "slow", &events, "--json"]);
    assert!(slow.status.success());
    let text = String::from_utf8_lossy(&slow.stdout);
    let v = qa_obs::json::parse(text.trim()).expect("valid slow JSON");
    let queries = v
        .get("queries")
        .and_then(qa_obs::json::Value::as_arr)
        .unwrap();
    assert_eq!(queries.len(), 2);

    let growth = qa_trace(&["analyze", "growth", &events, "--json"]);
    assert!(growth.status.success());
    let text = String::from_utf8_lossy(&growth.stdout);
    let v = qa_obs::json::parse(text.trim()).expect("valid growth JSON");
    let fits = v.get("fits").and_then(qa_obs::json::Value::as_arr).unwrap();
    let quad_exp = fits[0]
        .get("exponent")
        .and_then(qa_obs::json::Value::as_f64)
        .unwrap();
    assert!((quad_exp - 2.0).abs() < 1e-6, "quad exponent: {quad_exp}");
    assert_eq!(
        fits[0].get("class").and_then(qa_obs::json::Value::as_str),
        Some("quadratic")
    );
    assert_eq!(
        fits[1].get("class").and_then(qa_obs::json::Value::as_str),
        Some("constant")
    );
}

#[test]
fn analyze_slo_replays_rules_offline_and_signals_firing() {
    let events = write_events_log("events-slo.jsonl");
    let rules = tmp("steps.rules");
    std::fs::write(
        &rules,
        "alert steps-high threshold qa_fleet_steps_total > 100 for 0\n",
    )
    .unwrap();
    // Cumulative steps blow past 100 on the first job: the alert fires,
    // stays firing through the last tick, and fails the analyzer.
    let out = qa_trace(&["analyze", "slo", &events, "--rules", &rules]);
    assert_eq!(out.status.code(), Some(1), "firing alert must exit 1");
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("10 job(s), 1 alert(s) firing"), "{text}");
    assert!(text.contains("-> firing"), "{text}");
    assert!(text.contains("firing: steps-high"), "{text}");

    // The replay sorts by job index, so a completion-ordered log (e.g. a
    // scraped /events tail) produces the identical transition log.
    let shuffled = tmp("events-shuffled.jsonl");
    let mut lines: Vec<String> = std::fs::read_to_string(&events)
        .unwrap()
        .lines()
        .map(str::to_string)
        .collect();
    lines.reverse();
    std::fs::write(&shuffled, format!("{}\n", lines.join("\n"))).unwrap();
    let out = qa_trace(&["analyze", "slo", &shuffled, "--rules", &rules]);
    assert_eq!(out.status.code(), Some(1));
    assert_eq!(
        text,
        String::from_utf8_lossy(&out.stdout),
        "order-independent"
    );

    // JSON mode serves the engine state; quiet rules exit 0.
    let out = qa_trace(&["analyze", "slo", &events, "--rules", &rules, "--json"]);
    let v =
        qa_obs::json::parse(String::from_utf8_lossy(&out.stdout).trim()).expect("valid slo JSON");
    assert_eq!(
        v.get("ticks").and_then(qa_obs::json::Value::as_u64),
        Some(10)
    );
    assert!(v.get("alerts").is_some());
    std::fs::write(
        &rules,
        "alert steps-high threshold qa_fleet_steps_total > 999999999 for 0\n",
    )
    .unwrap();
    let out = qa_trace(&["analyze", "slo", &events, "--rules", &rules]);
    assert!(out.status.success(), "quiet rules exit 0");

    // --rules is mandatory for this report.
    let out = qa_trace(&["analyze", "slo", &events]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn bad_usage_exits_2() {
    assert_eq!(qa_trace(&[]).status.code(), Some(2));
    assert_eq!(
        qa_trace(&["record", "no-such-workload"]).status.code(),
        Some(2)
    );
    assert_eq!(qa_trace(&["frobnicate"]).status.code(), Some(2));
    assert_eq!(
        qa_trace(&["analyze", "nope", "/no/such/file"])
            .status
            .code(),
        Some(2)
    );
}
