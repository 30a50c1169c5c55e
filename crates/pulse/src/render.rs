//! Rendering and validation for the `/metrics` endpoint.
//!
//! [`metrics_text`] is the single source of truth for both the live
//! endpoint and the post-run `metrics.prom` file — serving it from one
//! function is what makes the ops acceptance check ("a post-run scrape
//! equals the exported file byte-for-byte") hold by construction. It
//! extends [`qa_probe::export::prometheus_text`] with two gauge families
//! the offline exporter cannot know about:
//!
//! - `qa_build_info{version,rustc} 1` — the standard Prometheus idiom for
//!   attaching build metadata to a scrape (a constant-`1` gauge carrying
//!   its payload in labels).
//! - `qa_heap_*` — the [`HeapStats`] tallies. Emitted only when the
//!   binary installed a [`CountingAlloc`](crate::CountingAlloc) (i.e.
//!   [`HeapStats::enabled`]): without one the numbers are meaningless
//!   zeros, and because they are *live* process state they would also
//!   break the byte-identity guarantees of the deterministic exports.
//!
//! [`validate_prometheus`] is a strict-enough checker for the exposition
//! format used by the e2e tests ("a mid-run scrape parses as valid
//! Prometheus") without dragging in a real Prometheus parser.

use qa_obs::Metrics;
use qa_probe::export::{escape_label_value, prometheus_text};

use crate::heap::HeapStats;

/// Workspace version baked into `qa_build_info`.
pub const BUILD_VERSION: &str = env!("CARGO_PKG_VERSION");
/// `rustc --version` of the toolchain that built this crate (captured by
/// `build.rs`; `"unknown"` if the compiler could not be queried).
pub const BUILD_RUSTC: &str = env!("QA_RUSTC_VERSION");

/// Render `metrics` in Prometheus text exposition format, extended with
/// the `qa_build_info` gauge and (when heap accounting is live) the
/// current `qa_heap_*` tallies.
///
/// Counters and histograms carry `prefix` (matching the offline
/// `metrics.prom` files); the build-info and heap gauges use the fixed
/// `qa_` namespace so dashboards can join them across differently-prefixed
/// jobs.
pub fn metrics_text(metrics: &Metrics, prefix: &str) -> String {
    let mut out = prometheus_text(metrics, prefix);
    out.push_str(&format!(
        "# TYPE qa_build_info gauge\nqa_build_info{{version=\"{}\",rustc=\"{}\"}} 1\n",
        escape_label_value(BUILD_VERSION),
        escape_label_value(BUILD_RUSTC),
    ));
    let heap = HeapStats::snapshot();
    if !heap.enabled() {
        return out;
    }
    for (name, value) in [
        ("qa_heap_live_bytes", heap.live_bytes),
        ("qa_heap_peak_bytes", heap.peak_bytes),
        ("qa_heap_allocated_bytes", heap.allocated_bytes),
        ("qa_heap_allocs", heap.allocs),
        ("qa_heap_frees", heap.frees),
    ] {
        out.push_str(&format!("# TYPE {name} gauge\n{name} {value}\n"));
    }
    out
}

/// Check that `text` is well-formed Prometheus text exposition format:
/// every line is a `# TYPE`/`# HELP` comment or a `name{labels} value`
/// sample with a valid metric name and a finite numeric value, every
/// `# TYPE` is followed by at least one sample of that family, no family
/// is declared twice (duplicate metric names), and `# HELP`/`# TYPE`
/// blocks are in order (`HELP` before `TYPE`, both before the family's
/// samples). Returns a description of the first violation.
pub fn validate_prometheus(text: &str) -> Result<(), String> {
    fn valid_name(name: &str) -> bool {
        let mut chars = name.chars();
        match chars.next() {
            Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
            _ => return false,
        }
        chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    }
    if text.is_empty() {
        return Err("empty exposition".to_string());
    }
    let mut pending_type: Option<String> = None;
    // HELP comments waiting for their TYPE/sample block.
    let mut pending_help: Option<String> = None;
    // Families whose comment block is finished: re-declaring one is a
    // duplicate-name error (Prometheus drops all but the first).
    let mut seen: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
    for (i, line) in text.lines().enumerate() {
        let lineno = i + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# ") {
            let mut parts = rest.splitn(3, ' ');
            let kind = parts.next().unwrap_or("");
            let name = parts.next().unwrap_or("");
            if kind != "TYPE" && kind != "HELP" {
                return Err(format!("line {lineno}: unknown comment kind {kind:?}"));
            }
            if !valid_name(name) {
                return Err(format!("line {lineno}: bad metric name {name:?}"));
            }
            if kind == "TYPE" {
                if seen.contains(name) {
                    return Err(format!("line {lineno}: duplicate metric name {name:?}"));
                }
                if let Some(prev) = pending_type.take() {
                    return Err(format!("line {lineno}: TYPE for {prev:?} has no samples"));
                }
                match pending_help.take() {
                    Some(h) if h != name => {
                        return Err(format!(
                            "line {lineno}: HELP for {h:?} not followed by its TYPE/samples"
                        ));
                    }
                    _ => {}
                }
                pending_type = Some(name.to_string());
                seen.insert(name.to_string());
            } else {
                // HELP must open a family block: before its TYPE, and not
                // after the family's samples have started.
                if pending_type.is_some() {
                    return Err(format!(
                        "line {lineno}: HELP for {name:?} after its TYPE (out of order)"
                    ));
                }
                if seen.contains(name) {
                    return Err(format!("line {lineno}: duplicate metric name {name:?}"));
                }
                if let Some(h) = pending_help.take() {
                    return Err(format!("line {lineno}: HELP for {h:?} has no samples"));
                }
                pending_help = Some(name.to_string());
            }
            continue;
        }
        if line.starts_with('#') {
            return Err(format!("line {lineno}: malformed comment"));
        }
        // Sample line: name[{labels}] value
        let (name_part, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {lineno}: no value"))?;
        let name = match name_part.split_once('{') {
            Some((n, labels)) => {
                if !labels.ends_with('}') {
                    return Err(format!("line {lineno}: unterminated labels"));
                }
                n
            }
            None => name_part,
        };
        if !valid_name(name) {
            return Err(format!("line {lineno}: bad metric name {name:?}"));
        }
        let numeric = value.parse::<f64>().map(|v| v.is_finite()).unwrap_or(false)
            || matches!(value, "+Inf" | "-Inf" | "NaN");
        if !numeric {
            return Err(format!("line {lineno}: bad value {value:?}"));
        }
        if let Some(family) = &pending_type {
            // Histogram samples append _bucket/_sum/_count to the family.
            if name == family || name.starts_with(&format!("{family}_")) {
                pending_type = None;
            } else {
                return Err(format!(
                    "line {lineno}: sample {name:?} does not match TYPE {family:?}"
                ));
            }
        } else if let Some(help) = &pending_help {
            // A HELP-only family (no TYPE) is closed by its first sample.
            if name == help || name.starts_with(&format!("{help}_")) {
                seen.insert(pending_help.take().expect("checked above"));
            } else {
                return Err(format!(
                    "line {lineno}: sample {name:?} does not match HELP {help:?}"
                ));
            }
        }
    }
    if let Some(prev) = pending_type {
        return Err(format!("trailing TYPE for {prev:?} has no samples"));
    }
    if let Some(prev) = pending_help {
        return Err(format!("trailing HELP for {prev:?} has no samples"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use qa_obs::{Counter, Observer, Series};

    fn sample_metrics() -> Metrics {
        let m = Metrics::new();
        {
            let mut o = m.observer();
            o.count(Counter::Steps, 42);
            o.record(Series::TraceLength, 7);
        }
        m
    }

    #[test]
    fn rendered_metrics_validate() {
        let m = sample_metrics();
        let text = metrics_text(&m, "qa_test");
        validate_prometheus(&text).expect("well-formed exposition");
        assert!(text.contains("qa_test_steps_total 42"));
    }

    #[test]
    fn build_info_gauge_is_present_with_labels() {
        let text = metrics_text(&sample_metrics(), "qa_test");
        assert!(text.contains("# TYPE qa_build_info gauge"));
        let line = text
            .lines()
            .find(|l| l.starts_with("qa_build_info{"))
            .expect("build info sample");
        assert!(
            line.contains(&format!("version=\"{BUILD_VERSION}\"")),
            "{line}"
        );
        assert!(line.contains("rustc=\""), "{line}");
        assert!(line.ends_with("} 1"), "{line}");
    }

    #[test]
    fn heap_gauges_follow_heap_accounting_state() {
        // This binary installs no CountingAlloc, but the heap unit tests
        // in this same binary drive the shared tallies directly — so the
        // gauges must appear exactly when accounting reads as enabled at
        // render time, and the text must stay well-formed either way.
        let before = HeapStats::snapshot().enabled();
        let text = metrics_text(&sample_metrics(), "qa_test");
        let after = HeapStats::snapshot().enabled();
        if before == after {
            for name in [
                "qa_heap_live_bytes",
                "qa_heap_peak_bytes",
                "qa_heap_allocated_bytes",
                "qa_heap_allocs",
                "qa_heap_frees",
            ] {
                assert_eq!(
                    text.contains(&format!("# TYPE {name} gauge")),
                    after,
                    "{name} presence should track heap accounting"
                );
            }
        }
        validate_prometheus(&text).expect("well-formed exposition");
    }

    #[test]
    fn validator_rejects_malformed_text() {
        assert!(validate_prometheus("").is_err());
        assert!(validate_prometheus("9bad_name 1\n").is_err());
        assert!(validate_prometheus("name notanumber\n").is_err());
        assert!(validate_prometheus("# TYPE lonely counter\n").is_err());
        assert!(validate_prometheus("# WAT x y\n").is_err());
        assert!(validate_prometheus("name{unterminated=\"x\" 1\n").is_err());
        assert!(
            validate_prometheus("# TYPE a counter\nb 1\n").is_err(),
            "sample must match preceding TYPE"
        );
    }

    #[test]
    fn validator_rejects_duplicate_metric_names() {
        let dup_type = "# TYPE a counter\na 1\n# TYPE a counter\na 2\n";
        let err = validate_prometheus(dup_type).unwrap_err();
        assert!(err.contains("duplicate metric name"), "{err}");

        let dup_after_other = "# TYPE a counter\na 1\n# TYPE b counter\nb 1\n# HELP a again\na 2\n";
        let err = validate_prometheus(dup_after_other).unwrap_err();
        assert!(err.contains("duplicate metric name \"a\""), "{err}");
    }

    #[test]
    fn validator_rejects_out_of_order_help_and_type() {
        // HELP must come before TYPE, never between TYPE and samples.
        let help_after_type = "# TYPE a counter\n# HELP a docs\na 1\n";
        let err = validate_prometheus(help_after_type).unwrap_err();
        assert!(err.contains("after its TYPE"), "{err}");

        // HELP for one family followed by another family's TYPE.
        let interleaved = "# HELP a docs\n# TYPE b counter\nb 1\n";
        let err = validate_prometheus(interleaved).unwrap_err();
        assert!(err.contains("not followed by its TYPE"), "{err}");

        // HELP that never gets samples.
        assert!(validate_prometheus("# HELP a docs\n").is_err());
        assert!(validate_prometheus("# HELP a docs\n# HELP b docs\nb 1\n").is_err());
    }

    #[test]
    fn validator_accepts_help_type_samples_in_order() {
        let text = "# HELP a docs\n# TYPE a counter\na 1\n# HELP h hist\n# TYPE h histogram\n\
                    h_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 1\n";
        validate_prometheus(text).expect("ordered HELP/TYPE/samples");
        // HELP-only families (no TYPE) are legal exposition too.
        validate_prometheus("# HELP a docs\na 1\n").expect("HELP then samples");
    }

    #[test]
    fn validator_accepts_histogram_families() {
        let text = "# TYPE h histogram\n\
                    h_bucket{le=\"1\"} 3\n\
                    h_bucket{le=\"+Inf\"} 4\n\
                    h_sum 9\n\
                    h_count 4\n";
        validate_prometheus(text).expect("histogram family");
    }
}
