//! Tests of the benchmark's own machinery: the open-loop generator, the
//! percentile helper, span self times, workload generation and the oracle.

use std::cell::Cell;
use std::collections::HashSet;
use std::time::{Duration, Instant};

use qa_bench_serve::gen::{lateness, open_loop, Clock, Timing};
use qa_bench_serve::oracle::{LocalDoc, BIB_QUERIES, EVAL_QUERIES};
use qa_bench_serve::stats::{interquartile_mean, median, tail};
use qa_bench_serve::trace::{self_times, Span, Spans};
use qa_bench_serve::workload::{Spec, Workload, Write, BIB_LABELS};

/// A clock that only moves when told to.
#[derive(Default)]
struct FakeClock(Cell<Duration>);

impl FakeClock {
    fn advance(&self, d: Duration) {
        self.0.set(self.0.get() + d);
    }
}

impl Clock for FakeClock {
    fn now(&self) -> Duration {
        self.0.get()
    }
    fn sleep_until(&self, t: Duration) {
        if t > self.0.get() {
            self.0.set(t);
        }
    }
}

const MS: Duration = Duration::from_millis(1);

#[test]
fn open_loop_charges_a_stall_to_every_request_queued_behind_it() {
    // Requests due every 2 ms take 1 ms each, except request 3, which
    // stalls for 10 ms.
    let clock = FakeClock::default();
    let sent = open_loop(&clock, 2 * MS, 20 * MS, |i| {
        clock.advance(if i == 3 { 10 * MS } else { MS });
        i
    });
    let timings: Vec<Timing> = sent.iter().map(|(t, _)| *t).collect();
    assert_eq!(timings.len(), 10, "one request per due time before the end");
    assert_eq!(
        sent.iter().map(|(_, i)| *i).collect::<Vec<_>>(),
        (0..10).collect::<Vec<_>>()
    );
    let latency_ms: Vec<u128> = timings.iter().map(|t| t.latency().as_millis()).collect();
    // Request 3 is due at 6 ms and answered at 16 ms. Every later request
    // was due before the backlog cleared; each waits for the stall and for
    // those queued ahead of it.
    assert_eq!(latency_ms, vec![1, 1, 1, 10, 9, 8, 7, 6, 5, 4]);
    let late_ms: Vec<u128> = timings.iter().map(|t| t.late().as_millis()).collect();
    assert_eq!(late_ms, vec![0, 0, 0, 0, 8, 7, 6, 5, 4, 3]);
    // A closed loop would have charged the stall to request 3 alone.
    let service_ms: Vec<u128> = timings
        .iter()
        .map(|t| (t.done - t.sent).as_millis())
        .collect();
    assert_eq!(service_ms, vec![1, 1, 1, 10, 1, 1, 1, 1, 1, 1]);
}

#[test]
fn open_loop_keeps_its_schedule_when_the_server_keeps_up() {
    let clock = FakeClock::default();
    let sent = open_loop(&clock, 5 * MS, 50 * MS, |_| clock.advance(MS));
    assert_eq!(sent.len(), 10);
    for (i, (t, _)) in sent.iter().enumerate() {
        assert_eq!(t.due, 5 * MS * i as u32);
        assert_eq!(t.sent, t.due, "never late");
        assert_eq!(t.latency(), MS);
    }
}

#[test]
fn lateness_reports_the_tail_and_the_late_send_count() {
    // 1000 sends: 980 on time, 20 late by 1..=20 ms.
    let mut timings: Vec<Timing> = (0..980)
        .map(|i| {
            let due = MS * i;
            Timing {
                due,
                sent: due,
                done: due + MS,
            }
        })
        .collect();
    for k in 1..=20u32 {
        let due = MS * (1000 + k);
        timings.push(Timing {
            due,
            sent: due + MS * k,
            done: due + MS * (k + 1),
        });
    }
    let l = lateness(&timings).unwrap();
    // p99 of 1000 leaves the 10 latest sends beyond it: it is the 10th
    // late send, 10 ms late.
    assert_eq!(
        (l.tail.pct, l.tail.value, l.tail.samples),
        (99.0, 10_000_000, 1000)
    );
    // A send exactly 1 ms late is not counted as late.
    assert_eq!(l.late_sends, 19);
    assert!(
        lateness(&timings[..5]).is_none(),
        "five samples support no tail"
    );
}

fn ramp(n: u64) -> Vec<u64> {
    (1..=n).collect()
}

#[test]
fn tail_reports_the_highest_percentile_with_ten_samples_beyond_it() {
    let t = tail(&ramp(1000), 100.0).unwrap();
    assert_eq!((t.pct, t.value, t.samples), (99.0, 990, 1000));
    assert_eq!(tail(&ramp(10_000), 100.0).unwrap().pct, 99.9);
    // 951 samples leave only 9 beyond p99: fall back to p90.
    let t = tail(&ramp(951), 99.0).unwrap();
    assert_eq!((t.pct, t.samples), (90.0, 951));
    assert_eq!(tail(&ramp(952), 99.0).unwrap().pct, 99.0);
    // The cap keeps the percentile at or below it.
    assert_eq!(tail(&ramp(10_000), 99.0).unwrap().pct, 99.0);
    // Too few samples support nothing; 21 support the median.
    assert_eq!(tail(&[], 99.0), None);
    assert_eq!(tail(&ramp(20), 99.0), None);
    assert_eq!(tail(&ramp(21), 99.0).unwrap().pct, 50.0);
    // The workspace's nearest-rank rule: rank round((n - 1) p).
    assert_eq!(median(&[1, 2, 3, 4, 5]).unwrap().value, 3);
    assert_eq!(median(&[]), None);
}

#[test]
fn interquartile_mean_averages_the_middle_half() {
    // A quarter dropped at each end: the mean of 3..=6.
    assert_eq!(interquartile_mean(&ramp(8)), Some(4.5));
    // An outlier at either end does not move it.
    assert_eq!(
        interquartile_mean(&[1, 10, 10, 10, 10, 1_000_000]),
        Some(10.0)
    );
    // Two modes of equal weight: it lands between them.
    assert_eq!(
        interquartile_mean(&[60, 60, 60, 60, 90, 90, 90, 90]),
        Some(75.0)
    );
    // Fewer than four samples: all of them.
    assert_eq!(interquartile_mean(&[2, 4]), Some(3.0));
    assert_eq!(interquartile_mean(&[]), None);
}

fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
    Span {
        id,
        parent,
        name: "t",
        req: 1,
        start_ns,
        end_ns,
        nodes: 0,
    }
}

#[test]
fn self_time_subtracts_the_union_of_child_intervals() {
    let spans = vec![
        span(1, None, 0, 100),
        // Overlapping children cover 10..50 once, not twice.
        span(2, Some(1), 10, 40),
        span(3, Some(1), 30, 50),
        // A child reaching past its parent only counts inside it.
        span(4, Some(1), 90, 130),
        // A grandchild is charged to its own parent, not to span 1.
        span(5, Some(2), 15, 25),
    ];
    assert_eq!(self_times(&spans), vec![100 - 40 - 10, 30 - 10, 20, 40, 10]);
}

#[test]
fn recorded_spans_nest_and_end_after_they_start() {
    let mut spans = Spans::new(Instant::now());
    let root = spans.start("root", None, 7);
    let child = spans.time("child", Some(root.id), 7, || std::hint::black_box(3) + 1);
    assert_eq!(child, 4);
    spans.end(root, 5);
    let spans = spans.into_spans();
    assert_eq!(spans.len(), 2);
    assert_eq!(spans[1].parent, Some(spans[0].id));
    assert!(spans.iter().all(|s| s.start_ns <= s.end_ns && s.req == 7));
    assert_eq!(spans[0].nodes, 5);
    let selfs = self_times(&spans);
    assert_eq!(selfs[0], spans[0].duration_ns() - spans[1].duration_ns());
}

#[test]
fn workloads_are_pure_functions_of_seed_and_workload() {
    for w in Workload::ALL {
        let (a, b) = (Spec::new(w, 11), Spec::new(w, 11));
        assert_eq!(a.docs, b.docs);
        for i in 0..50 {
            assert_eq!(a.read(0, i), b.read(0, i));
            assert_eq!(a.cold_formula(i), b.cold_formula(i));
            assert_eq!(a.write(i), b.write(i));
        }
        let other = Spec::new(w, 12);
        assert!(
            (0..50).any(|i| other.read(0, i) != a.read(0, i)),
            "the seed moves the schedule of {}",
            w.name()
        );
    }
}

#[test]
fn cold_formulas_are_distinct_single_quantifier_and_use_corpus_labels() {
    let spec = Spec::new(Workload::Churn, 3);
    let formulas: Vec<String> = (0..500).map(|i| spec.cold_formula(i)).collect();
    let distinct: HashSet<&String> = formulas.iter().collect();
    assert_eq!(distinct.len(), formulas.len());
    // σ after set-up: #pcdata plus the corpus labels.
    let mut alphabet = qa_base::Alphabet::new();
    alphabet.intern(qa_xml::parser::PCDATA);
    for label in BIB_LABELS {
        alphabet.intern(label);
    }
    let sigma = alphabet.len();
    for f in &formulas {
        assert_eq!(
            f.matches("ex ").count() + f.matches("all ").count(),
            1,
            "{f}"
        );
        qa_mso::parse(f, &mut alphabet).unwrap();
        assert_eq!(alphabet.len(), sigma, "`{f}` grows σ");
    }
}

#[test]
fn writer_documents_never_share_a_name_with_read_documents_and_always_change() {
    let spec = Spec::new(Workload::Churn, 5);
    let read: HashSet<&str> = spec.docs.iter().map(|(n, _)| n.as_str()).collect();
    let mut last: std::collections::HashMap<String, String> = Default::default();
    let mut registers = 0;
    for j in 0..400 {
        match spec.write(j) {
            Write::Register { formula, .. } => {
                registers += 1;
                assert_eq!(formula, spec.cold_formula(j / 8));
            }
            Write::Ingest { name, text: xml } => {
                assert!(!read.contains(name.as_str()), "{name} is read");
                let doc = LocalDoc::parse(&xml).unwrap();
                for s in doc.alphabet.symbols() {
                    let label = doc.alphabet.name(s);
                    assert!(
                        label == qa_xml::parser::PCDATA || BIB_LABELS.contains(&label),
                        "{label}"
                    );
                }
                if let Some(previous) = last.insert(name.clone(), xml.clone()) {
                    assert_ne!(previous, xml, "ingest {j} of {name} changes nothing");
                }
            }
        }
    }
    assert_eq!(registers, 50);
}

#[test]
fn eval_heavy_oracle_agrees_with_naive_mso_on_small_random_trees() {
    // The predicates are the benchmark's oracle; confirm them against the
    // MSO semantics on trees small enough for the naive evaluator.
    for seed in 0..20 {
        for (_, text) in qa_serve::soak_corpus(seed, 2, 30) {
            let doc = LocalDoc::parse(&text).unwrap();
            for q in &EVAL_QUERIES {
                assert_eq!(
                    doc.answer(q),
                    doc.naive_answer(q).unwrap(),
                    "`{}` on {text}",
                    q.text
                );
            }
        }
    }
    for (_, text) in &Spec::new(Workload::RequestHeavy, 1).docs {
        let doc = LocalDoc::parse(text).unwrap();
        for q in &BIB_QUERIES {
            assert!(!doc.answer(q).is_empty(), "`{}` selects something", q.text);
            assert_eq!(doc.answer(q), doc.naive_answer(q).unwrap());
        }
    }
}
