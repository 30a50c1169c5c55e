//! [`SeriesStore`]: fixed-capacity rings of `(tick, value)` samples.
//!
//! The store is the sentinel's memory: every scrape appends one sample per
//! metric under a caller-supplied logical tick, and the window queries
//! ([`SeriesStore::delta`], [`SeriesStore::rate`],
//! [`SeriesStore::quantile_over_window`]) read the recent past back out.
//! Ticks are logical, not wall-clock — the fleet replay drives one tick per
//! job and the live scrape loop one tick per scrape — which is what keeps
//! alert evaluation byte-identical across `--jobs N` and reruns.
//!
//! Out-of-order appends are rejected per series (a sample's tick must
//! exceed the last retained tick).

use std::collections::BTreeMap;
use std::collections::VecDeque;

use qa_obs::json::{self, push_str};
use qa_obs::stats::quantile_bucket;
use qa_obs::{Counter, Metrics, Series};

/// Label pairs, sorted by key (canonical form for series identity).
pub type Labels = Vec<(String, String)>;

/// Identity of one series: metric name plus its canonicalized label set.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct SeriesKey {
    /// Metric family name, e.g. `qa_fleet_budget_trips_total`.
    pub name: String,
    /// Labels sorted by key; empty for unlabeled series.
    pub labels: Labels,
}

impl SeriesKey {
    /// Key for `name` with `labels` (canonicalized by sorting on key).
    pub fn new(name: &str, labels: impl IntoIterator<Item = (String, String)>) -> SeriesKey {
        let mut labels: Labels = labels.into_iter().collect();
        labels.sort();
        SeriesKey {
            name: name.to_string(),
            labels,
        }
    }

    /// Value of label `key`, if present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Render as `name` or `name{k="v",…}` for logs and JSON.
    pub fn render(&self) -> String {
        if self.labels.is_empty() {
            return self.name.clone();
        }
        let mut out = format!("{}{{", self.name);
        for (i, (k, v)) in self.labels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(k);
            out.push('=');
            push_str(&mut out, v);
        }
        out.push('}');
        out
    }
}

/// One series' ring: at most `cap` samples, strictly increasing ticks.
#[derive(Clone, Debug)]
struct Ring {
    samples: VecDeque<(u64, f64)>,
    dropped: u64,
}

/// Fixed-capacity time-series rings keyed by metric name + labels.
#[derive(Debug)]
pub struct SeriesStore {
    series: BTreeMap<SeriesKey, Ring>,
    cap: usize,
    rejected: u64,
}

impl SeriesStore {
    /// Store whose rings retain at most `cap` samples each (`cap ≥ 2`, so
    /// every window query has at least one interval to look at).
    pub fn new(cap: usize) -> SeriesStore {
        assert!(cap >= 2, "series rings need capacity >= 2");
        SeriesStore {
            series: BTreeMap::new(),
            cap,
            rejected: 0,
        }
    }

    /// Append one sample. Returns `false` (and drops the sample) when the
    /// tick does not strictly increase the series' last retained tick.
    pub fn append(&mut self, key: SeriesKey, tick: u64, value: f64) -> bool {
        let ring = self.series.entry(key).or_insert_with(|| Ring {
            samples: VecDeque::new(),
            dropped: 0,
        });
        if let Some(&(last, _)) = ring.samples.back() {
            if tick <= last {
                self.rejected += 1;
                return false;
            }
        }
        if ring.samples.len() == self.cap {
            ring.samples.pop_front();
            ring.dropped += 1;
        }
        ring.samples.push_back((tick, value));
        true
    }

    /// Samples rejected for non-increasing ticks, across all series.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Number of distinct series.
    pub fn len(&self) -> usize {
        self.series.len()
    }

    /// Whether the store holds no series.
    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }

    /// The retained samples of the series `key`, oldest first.
    pub fn samples(&self, key: &SeriesKey) -> Vec<(u64, f64)> {
        match self.series.get(key) {
            Some(ring) => ring.samples.iter().copied().collect(),
            None => Vec::new(),
        }
    }

    /// Latest `(tick, value)` of the series `key`.
    pub fn latest(&self, key: &SeriesKey) -> Option<(u64, f64)> {
        self.series.get(key)?.samples.back().copied()
    }

    /// Value of `key` at the greatest retained tick `≤ at`, together with
    /// that tick. `None` when nothing that old is retained.
    fn value_at_or_before(&self, key: &SeriesKey, at: u64) -> Option<(u64, f64)> {
        let ring = self.series.get(key)?;
        ring.samples.iter().rev().find(|&&(t, _)| t <= at).copied()
    }

    /// Increase of `key` over the last `window` ticks ending at `now`:
    /// `v(now) − v(now − window)`, reading each endpoint at the greatest
    /// retained tick at or before it. The window clamps to the retained
    /// samples: when it reaches back before the series' first sample, the
    /// baseline is 0 (a counter is born at zero) as long as nothing was
    /// evicted, and the oldest retained value once the ring has dropped
    /// history. `None` when the series has no sample at or before `now`.
    pub fn delta(&self, key: &SeriesKey, window: u64, now: u64) -> Option<f64> {
        let (_, end) = self.value_at_or_before(key, now)?;
        let start_tick = now.saturating_sub(window);
        let start = match self.value_at_or_before(key, start_tick) {
            Some((_, v)) => v,
            None => {
                let ring = self.series.get(key)?;
                if ring.dropped == 0 {
                    0.0
                } else {
                    ring.samples.front().map(|&(_, v)| v)?
                }
            }
        };
        Some(end - start)
    }

    /// Per-tick rate of increase over the last `window` ticks:
    /// [`SeriesStore::delta`] divided by the window length.
    pub fn rate(&self, key: &SeriesKey, window: u64, now: u64) -> Option<f64> {
        if window == 0 {
            return None;
        }
        self.delta(key, window, now).map(|d| d / window as f64)
    }

    /// Quantile `q` of the samples a histogram family recorded during the
    /// last `window` ticks. `family` is the base name (the store holds its
    /// cumulative `le` buckets as `<family>_bucket` series); `labels`
    /// selects one labeled instance (every non-`le` label must match
    /// exactly). The cumulative-in-`le`, cumulative-in-time buckets are
    /// de-cumulated on both axes, then the shared nearest-rank rule
    /// ([`quantile_bucket`]) picks the bucket whose `le` bound is returned.
    /// `None` when the window saw no samples.
    pub fn quantile_over_window(
        &self,
        family: &str,
        labels: &Labels,
        window: u64,
        q: f64,
        now: u64,
    ) -> Option<f64> {
        let bucket_name = format!("{family}_bucket");
        // Collect (le, windowed delta) per bucket series, ascending by le.
        let mut buckets: Vec<(f64, f64)> = Vec::new();
        for key in self.series.keys() {
            if key.name != bucket_name {
                continue;
            }
            let le = match key.label("le") {
                Some("+Inf") => f64::INFINITY,
                Some(le) => le.parse::<f64>().ok()?,
                None => continue,
            };
            let non_le_match = labels
                .iter()
                .all(|(k, v)| k == "le" || key.label(k) == Some(v.as_str()));
            if !non_le_match {
                continue;
            }
            let d = self.delta(key, window, now)?;
            buckets.push((le, d));
        }
        if buckets.is_empty() {
            return None;
        }
        buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
        // De-cumulate across le to get per-bucket counts in the window.
        let mut counts: Vec<u64> = Vec::with_capacity(buckets.len());
        let mut prev = 0.0;
        for &(_, cumulative) in &buckets {
            counts.push((cumulative - prev).max(0.0).round() as u64);
            prev = cumulative;
        }
        let i = quantile_bucket(&counts, q)?;
        Some(buckets[i].0)
    }

    /// Ingest one scrape of a [`Metrics`] registry under logical tick
    /// `tick`: every counter as `<prefix>_<name>_total`, every non-empty
    /// histogram as cumulative `<prefix>_<series>_bucket{le=…}` plus
    /// `_sum`/`_count` — the exposition families, so in-process scrapes and
    /// parsed remote scrapes land in identically-named series. `labels` are
    /// attached to every sample. Returns how many samples were appended.
    pub fn observe_metrics(
        &mut self,
        metrics: &Metrics,
        prefix: &str,
        labels: &Labels,
        tick: u64,
    ) -> usize {
        let mut appended = 0;
        let mut push = |store: &mut Self, name: String, extra: Option<(String, String)>, v: f64| {
            let mut ls = labels.clone();
            if let Some(kv) = extra {
                ls.push(kv);
            }
            if store.append(SeriesKey::new(&name, ls), tick, v) {
                appended += 1;
            }
        };
        for c in Counter::ALL {
            push(
                self,
                format!("{prefix}_{}_total", c.name()),
                None,
                metrics.get(c) as f64,
            );
        }
        for s in Series::ALL {
            let snap = metrics.histogram(s);
            if snap.count == 0 {
                continue;
            }
            let base = format!("{prefix}_{}", s.name());
            let used =
                snap.buckets.len() - snap.buckets.iter().rev().take_while(|&&b| b == 0).count();
            let mut cumulative = 0u64;
            for (i, &b) in snap.buckets[..used].iter().enumerate() {
                cumulative += b;
                push(
                    self,
                    format!("{base}_bucket"),
                    Some(("le".to_string(), qa_obs::stats::bucket_le(i).to_string())),
                    cumulative as f64,
                );
            }
            push(
                self,
                format!("{base}_bucket"),
                Some(("le".to_string(), "+Inf".to_string())),
                snap.count as f64,
            );
            push(self, format!("{base}_sum"), None, snap.sum as f64);
            push(self, format!("{base}_count"), None, snap.count as f64);
        }
        appended
    }

    /// Render series as JSON: `{"series":[{"name","labels",…,"samples":
    /// [[tick,value],…]},…]}`. `name` filters to one metric family
    /// (`None` = everything), `n` caps the samples per series to the most
    /// recent `n` (oldest first). The `/series` endpoint body.
    pub fn to_json(&self, name: Option<&str>, n: usize) -> String {
        let elems = self
            .series
            .iter()
            .filter(|(k, _)| name.is_none_or(|f| k.name == f))
            .map(|(k, ring)| {
                json::object(|w| {
                    w.field_str("name", &k.name);
                    w.field_raw(
                        "labels",
                        &json::object(|lw| {
                            for (lk, lv) in &k.labels {
                                lw.field_str(lk, lv);
                            }
                        }),
                    );
                    w.field_u64("dropped", ring.dropped);
                    let skip = ring.samples.len().saturating_sub(n);
                    let samples = json::array(ring.samples.iter().skip(skip).map(|&(t, v)| {
                        let mut s = String::from("[");
                        s.push_str(&t.to_string());
                        s.push(',');
                        if v.is_finite() {
                            s.push_str(&format!("{v:?}"));
                        } else {
                            s.push_str("null");
                        }
                        s.push(']');
                        s
                    }));
                    w.field_raw("samples", &samples);
                })
            });
        json::object(|w| w.field_raw("series", &json::array(elems)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(name: &str) -> SeriesKey {
        SeriesKey::new(name, [])
    }

    #[test]
    fn append_rejects_non_increasing_ticks() {
        let mut s = SeriesStore::new(8);
        assert!(s.append(key("x"), 1, 1.0));
        assert!(s.append(key("x"), 2, 2.0));
        assert!(!s.append(key("x"), 2, 3.0), "equal tick rejected");
        assert!(!s.append(key("x"), 1, 3.0), "older tick rejected");
        assert_eq!(s.rejected(), 2);
        assert_eq!(s.samples(&key("x")), vec![(1, 1.0), (2, 2.0)]);
        // Other series have their own tick ladders.
        assert!(s.append(key("y"), 1, 9.0));
    }

    #[test]
    fn rings_evict_oldest_at_capacity() {
        let mut s = SeriesStore::new(3);
        for t in 1..=5 {
            assert!(s.append(key("x"), t, t as f64));
        }
        assert_eq!(s.samples(&key("x")), vec![(3, 3.0), (4, 4.0), (5, 5.0)]);
        assert_eq!(s.latest(&key("x")), Some((5, 5.0)));
    }

    #[test]
    fn labels_are_canonicalized() {
        let a = SeriesKey::new(
            "m",
            [
                ("b".to_string(), "2".to_string()),
                ("a".to_string(), "1".to_string()),
            ],
        );
        let b = SeriesKey::new(
            "m",
            [
                ("a".to_string(), "1".to_string()),
                ("b".to_string(), "2".to_string()),
            ],
        );
        assert_eq!(a, b);
        assert_eq!(a.render(), "m{a=\"1\",b=\"2\"}");
        assert_eq!(key("m").render(), "m");
    }

    #[test]
    fn delta_and_rate_windows() {
        let mut s = SeriesStore::new(64);
        // A counter growing by 2 per tick.
        for t in 1..=10 {
            s.append(key("c"), t, (t * 2) as f64);
        }
        assert_eq!(s.delta(&key("c"), 5, 10), Some(10.0));
        assert_eq!(s.rate(&key("c"), 5, 10), Some(2.0));
        // A window older than the series: counters are born at zero, so
        // the increase is the whole counter value.
        assert_eq!(s.delta(&key("c"), 100, 10), Some(20.0));
        // …until eviction loses history, when the oldest retained sample
        // becomes the baseline.
        let mut small = SeriesStore::new(4);
        for t in 1..=10 {
            small.append(key("c"), t, (t * 2) as f64);
        }
        assert_eq!(small.delta(&key("c"), 100, 10), Some(20.0 - 14.0));
        // Eval point before any sample: no answer.
        assert_eq!(s.delta(&key("c"), 5, 0), None);
        // Gappy series read at the greatest tick at or before the endpoint.
        let mut g = SeriesStore::new(64);
        g.append(key("c"), 2, 10.0);
        g.append(key("c"), 8, 40.0);
        assert_eq!(g.delta(&key("c"), 4, 9), Some(30.0), "start reads tick 2");
        assert_eq!(g.rate(&key("c"), 0, 9), None, "zero window is undefined");
    }

    #[test]
    fn observe_metrics_lands_exposition_names() {
        let m = Metrics::new();
        m.count(Counter::Steps, 40);
        m.record(Series::TraceLength, 3);
        let mut s = SeriesStore::new(16);
        let n = s.observe_metrics(&m, "qa_fleet", &Vec::new(), 1);
        assert!(n > Counter::COUNT, "counters plus histogram families");
        assert_eq!(s.latest(&key("qa_fleet_steps_total")), Some((1, 40.0)));
        assert_eq!(s.latest(&key("qa_fleet_jobs_total")), Some((1, 0.0)));
        let le3 = SeriesKey::new(
            "qa_fleet_trace_length_bucket",
            [("le".to_string(), "3".to_string())],
        );
        assert_eq!(s.latest(&le3), Some((1, 1.0)));
        assert_eq!(
            s.latest(&key("qa_fleet_trace_length_count")),
            Some((1, 1.0))
        );
    }

    #[test]
    fn quantile_over_window_decumulates_both_axes() {
        let m = Metrics::new();
        let mut s = SeriesStore::new(16);
        // Tick 1: one small sample. Ticks 2-4: large samples only.
        m.record(Series::RunSteps, 1);
        s.observe_metrics(&m, "qa", &Vec::new(), 1);
        for t in 2..=4 {
            m.record(Series::RunSteps, 1000);
            s.observe_metrics(&m, "qa", &Vec::new(), t);
        }
        // Window covering only ticks 2-4 must not see the tick-1 sample.
        let q = s
            .quantile_over_window("qa_run_steps", &Vec::new(), 3, 0.5, 4)
            .expect("window has samples");
        assert_eq!(q, 1023.0, "median of the window is a large sample");
        // The full history window sees the small sample at p0.
        let q0 = s
            .quantile_over_window("qa_run_steps", &Vec::new(), 10, 0.0, 4)
            .unwrap();
        assert_eq!(q0, 1.0);
        // Unknown family: no answer.
        assert_eq!(
            s.quantile_over_window("qa_nope", &Vec::new(), 3, 0.5, 4),
            None
        );
    }

    #[test]
    fn json_render_filters_and_caps() {
        let mut s = SeriesStore::new(8);
        for t in 1..=4 {
            s.append(key("a"), t, t as f64);
            s.append(key("b"), t, 0.5);
        }
        let all = s.to_json(None, 10);
        let v = json::parse(&all).unwrap();
        assert_eq!(v.get("series").and_then(|x| x.as_arr()).unwrap().len(), 2);
        let only_a = s.to_json(Some("a"), 2);
        let v = json::parse(&only_a).unwrap();
        let arr = v.get("series").and_then(|x| x.as_arr()).unwrap();
        assert_eq!(arr.len(), 1);
        let samples = arr[0].get("samples").and_then(|x| x.as_arr()).unwrap();
        assert_eq!(samples.len(), 2, "capped to the most recent n");
        assert_eq!(samples[0].as_arr().unwrap()[0].as_u64(), Some(3));
    }
}
