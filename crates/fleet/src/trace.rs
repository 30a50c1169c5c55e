//! `fleet-trace.json`: the batch's wide events as one Chrome trace-event
//! timeline.

use qa_flight::JobEvent;
use qa_obs::json;

/// Render the fleet's job events as one Chrome trace-event document.
///
/// The process is one trace *process* (`pid` 1), named `process` by a
/// `process_name` metadata (`"ph":"M"`) event, with its single job track
/// named `jobs` by a `thread_name` event, so Perfetto labels the track
/// instead of showing a bare pid. Each job becomes one complete
/// (`"ph":"X"`) span, `ts`/`dur` in microseconds from the event's
/// `start_ns`/`wall_ns` (`dur` clamped to at least 1 µs), with the job's
/// trace/span ids, outcome, step count and document size in `args`.
/// Spans follow the order of `events` (global job order in `qa-fleet`).
pub fn fleet_trace(run_id: &str, process: &str, events: &[JobEvent]) -> String {
    let mut out: Vec<String> = Vec::with_capacity(events.len() + 2);
    out.push(json::object(|w| {
        w.field_str("name", "process_name");
        w.field_str("ph", "M");
        w.field_u64("pid", 1);
        w.field_raw("args", &json::object(|aw| aw.field_str("name", process)));
    }));
    out.push(json::object(|w| {
        w.field_str("name", "thread_name");
        w.field_str("ph", "M");
        w.field_u64("pid", 1);
        w.field_u64("tid", 1);
        w.field_raw("args", &json::object(|aw| aw.field_str("name", "jobs")));
    }));
    for ev in events {
        out.push(json::object(|w| {
            w.field_str("name", &format!("{} #{}", ev.query, ev.job));
            w.field_str("cat", "job");
            w.field_str("ph", "X");
            w.field_u64("ts", ev.start_ns / 1_000);
            w.field_u64("dur", (ev.wall_ns / 1_000).max(1));
            w.field_u64("pid", 1);
            w.field_u64("tid", 1);
            w.field_raw(
                "args",
                &json::object(|aw| {
                    aw.field_u64("job", ev.job as u64);
                    aw.field_str("trace", &ev.trace);
                    aw.field_str("span", &ev.span);
                    aw.field_str("outcome", &ev.outcome);
                    aw.field_u64("steps", ev.steps);
                    aw.field_u64("doc_nodes", ev.doc_nodes as u64);
                }),
            );
        }));
    }
    json::object(|w| {
        w.field_raw("traceEvents", &json::array(out));
        w.field_str("displayTimeUnit", "ms");
        w.field_raw(
            "otherData",
            &json::object(|aw| aw.field_str("run_id", run_id)),
        );
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use qa_obs::json::Value;

    fn job(job: usize, start_ns: u64, wall_ns: u64) -> JobEvent {
        JobEvent {
            run: "fleet-s7".to_string(),
            trace: format!("{job:016x}"),
            span: format!("{job:016x}"),
            job,
            query: "q".to_string(),
            query_index: 0,
            doc_index: job,
            doc_nodes: 12,
            doc_depth: 3,
            steps: job as u64 * 10,
            reversals: 0,
            cache_hits: 0,
            cache_misses: 0,
            budget_trips: 0,
            selected: 1,
            sampled: false,
            outcome: "ok".to_string(),
            worker: "local".to_string(),
            shard: "0/1".to_string(),
            start_ns,
            wall_ns,
        }
    }

    #[test]
    fn trace_names_the_process_and_covers_every_job() {
        let doc = fleet_trace("fleet-s7", "local", &[job(0, 2_000, 3_000), job(1, 0, 500)]);
        let v = json::parse(&doc).expect("valid Chrome trace JSON");
        let events = v.get("traceEvents").and_then(Value::as_arr).unwrap();
        // 2 metadata events + 1 span per job.
        assert_eq!(events.len(), 4, "{doc}");
        let meta: Vec<(&str, &str)> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Value::as_str) == Some("M"))
            .map(|e| {
                (
                    e.get("name").and_then(Value::as_str).unwrap(),
                    e.get("args")
                        .and_then(|a| a.get("name"))
                        .and_then(Value::as_str)
                        .unwrap(),
                )
            })
            .collect();
        assert_eq!(meta, [("process_name", "local"), ("thread_name", "jobs")]);
        let spans: Vec<&Value> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Value::as_str) == Some("X"))
            .collect();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].get("name").and_then(Value::as_str), Some("q #0"));
        assert_eq!(spans[0].get("ts").and_then(Value::as_u64), Some(2));
        assert_eq!(spans[0].get("dur").and_then(Value::as_u64), Some(3));
        assert_eq!(spans[0].get("pid").and_then(Value::as_u64), Some(1));
        // Sub-microsecond spans still render (dur is clamped to >= 1 µs).
        assert_eq!(spans[1].get("dur").and_then(Value::as_u64), Some(1));
        let args = spans[1].get("args").unwrap();
        assert_eq!(args.get("job").and_then(Value::as_u64), Some(1));
        assert_eq!(args.get("steps").and_then(Value::as_u64), Some(10));
        assert_eq!(args.get("doc_nodes").and_then(Value::as_u64), Some(12));
        assert!(args.get("trace").and_then(Value::as_str).is_some());
        assert_eq!(args.get("outcome").and_then(Value::as_str), Some("ok"));
        assert_eq!(
            v.get("otherData")
                .and_then(|o| o.get("run_id"))
                .and_then(Value::as_str),
            Some("fleet-s7")
        );
    }
}
