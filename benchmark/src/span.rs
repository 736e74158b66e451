//! In-memory spans around the calls into each layer.
//!
//! The harness wraps every call it makes into a crate's public function
//! in [`Tracer::span`]. A disabled tracer (the untraced run that the
//! end-to-end numbers come from) just calls the closure; an enabled one
//! records name, start, end, parent and iteration id, keeps everything
//! in memory, and renders a Chrome trace-event document plus a
//! self-time table when the run ends.

use pov_scenario::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// `<crate>.<call>` of the layer boundary.
    pub name: &'static str,
    /// Start instant.
    pub start_ns: u64,
    /// End instant.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Iteration the span belongs to ([`Tracer::set_iteration`]).
    pub iteration: u32,
}

impl Span {
    /// Wall nanoseconds between start and end.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// One row of the self-time table: every span of one name, summed.
#[derive(Clone, Debug, PartialEq)]
pub struct SelfTimeRow {
    /// Span name.
    pub name: &'static str,
    /// Spans of that name.
    pub count: u64,
    /// Summed durations.
    pub total_ns: u64,
    /// Summed durations minus the part direct children cover.
    pub self_ns: u64,
}

/// Span recorder; see the module docs.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    iteration: u32,
    counts: BTreeMap<(&'static str, u32), u64>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or only forwards calls.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            iteration: 0,
            counts: BTreeMap::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Tag the spans recorded from now on with `iteration`.
    pub fn set_iteration(&mut self, iteration: u32) {
        self.iteration = iteration;
    }

    /// Run `f` inside a span called `name`; spans opened by `f` through
    /// the tracer it receives become children.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().copied(),
            iteration: self.iteration,
        });
        self.open.push(idx);
        self.spans[idx].start_ns = self.now_ns();
        let out = f(self);
        self.spans[idx].end_ns = self.now_ns();
        self.open.pop();
        out
    }

    /// Add `n` to the counter `name` of the current iteration — work
    /// counted at the same boundary the spans time.
    pub fn count(&mut self, name: &'static str, n: u64) {
        if self.enabled {
            *self.counts.entry((name, self.iteration)).or_default() += n;
        }
    }

    /// The counter `name`, per iteration id, in iteration order.
    pub fn counts_by_iteration(&self, name: &str) -> Vec<f64> {
        self.counts
            .iter()
            .filter(|((n, _), _)| *n == name)
            .map(|(_, &v)| v as f64)
            .collect()
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Every span recorded so far, in opening order.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed seconds of the spans called `name`, per iteration id, in
    /// iteration order (iterations without such a span are absent).
    pub fn seconds_by_iteration(&self, name: &str) -> Vec<f64> {
        let durations: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        self.sum_by_iteration(name, &durations)
    }

    /// Like [`Tracer::seconds_by_iteration`], for self time.
    pub fn self_seconds_by_iteration(&self, name: &str) -> Vec<f64> {
        self.sum_by_iteration(name, &self_times(&self.spans))
    }

    fn sum_by_iteration(&self, name: &str, ns: &[u64]) -> Vec<f64> {
        let mut per: BTreeMap<u32, u64> = BTreeMap::new();
        for (s, &v) in self.spans.iter().zip(ns) {
            if s.name == name {
                *per.entry(s.iteration).or_default() += v;
            }
        }
        per.into_values().map(|v| v as f64 / 1e9).collect()
    }

    /// The self-time table, one row per span name, largest self time first.
    pub fn self_time_table(&self) -> Vec<SelfTimeRow> {
        let self_ns = self_times(&self.spans);
        let mut rows: BTreeMap<&'static str, SelfTimeRow> = BTreeMap::new();
        for (s, &own) in self.spans.iter().zip(&self_ns) {
            let row = rows.entry(s.name).or_insert(SelfTimeRow {
                name: s.name,
                count: 0,
                total_ns: 0,
                self_ns: 0,
            });
            row.count += 1;
            row.total_ns += s.duration_ns();
            row.self_ns += own;
        }
        let mut rows: Vec<SelfTimeRow> = rows.into_values().collect();
        rows.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.name.cmp(b.name)));
        rows
    }

    /// The Chrome trace-event document (`chrome://tracing`, Perfetto):
    /// one complete (`"ph": "X"`) event per span on a single track,
    /// with parent index and iteration id as arguments, plus the
    /// self-time table under `selfTime`.
    pub fn chrome_trace(&self, workload: &str) -> Json {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                Json::obj()
                    .with("name", s.name)
                    .with("cat", s.name.split('.').next().unwrap_or(s.name))
                    .with("ph", "X")
                    .with("pid", 1u64)
                    .with("tid", 1u64)
                    .with("ts", s.start_ns as f64 / 1e3)
                    .with("dur", s.duration_ns() as f64 / 1e3)
                    .with(
                        "args",
                        Json::obj()
                            .with("id", i)
                            .with("parent", s.parent)
                            .with("iteration", u64::from(s.iteration)),
                    )
            })
            .collect();
        let table = self
            .self_time_table()
            .iter()
            .map(|r| {
                Json::obj()
                    .with("name", r.name)
                    .with("count", r.count)
                    .with("total_s", r.total_ns as f64 / 1e9)
                    .with("self_s", r.self_ns as f64 / 1e9)
            })
            .collect();
        Json::obj()
            .with("workload", workload)
            .with("displayTimeUnit", "ms")
            .with("traceEvents", Json::Arr(events))
            .with("selfTime", Json::Arr(table))
    }
}

/// Self time of every span: its duration minus the part of that
/// interval its direct children cover. Spans on one tracer nest
/// strictly and never overlap their siblings, so the covered part is
/// the children's summed duration.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.duration_ns());
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            iteration: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // a [0,100] ⊃ b [10,60] ⊃ c [20,30]; a ⊃ d [70,90].
        let spans = [
            span("a", 0, 100, None),
            span("b", 10, 60, Some(0)),
            span("c", 20, 30, Some(1)),
            span("d", 70, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 40, 10, 20]);
        // Self times partition the root's duration.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn tracer_records_nesting_and_iterations() {
        let mut t = Tracer::new(true);
        for it in 0..2 {
            t.set_iteration(it);
            t.span("outer", |t| {
                t.span("inner", |_| std::hint::black_box(1 + 1));
                t.span("inner", |_| std::hint::black_box(2 + 2));
            });
        }
        let spans = t.spans();
        assert_eq!(spans.len(), 6);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[4].parent, Some(3));
        assert_eq!(spans[5].iteration, 1);
        for s in spans {
            assert!(s.end_ns >= s.start_ns);
        }
        assert_eq!(t.seconds_by_iteration("inner").len(), 2);
        t.set_iteration(0);
        t.count("events", 3);
        t.count("events", 4);
        t.set_iteration(1);
        t.count("events", 5);
        assert_eq!(t.counts_by_iteration("events"), [7.0, 5.0]);
        let table = t.self_time_table();
        let inner = table.iter().find(|r| r.name == "inner").unwrap();
        assert_eq!(inner.count, 4);
        let outer = table.iter().find(|r| r.name == "outer").unwrap();
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let v = t.span("x", |t| t.span("y", |_| 7));
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn chrome_trace_is_parseable_json() {
        let mut t = Tracer::new(true);
        t.span("sim.build", |_| ());
        let doc = t.chrome_trace("w").render();
        let parsed = Json::parse(&doc).expect("valid JSON");
        let events = parsed.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].get("cat").and_then(Json::as_str), Some("sim"));
        assert!(parsed.get("selfTime").is_some());
    }
}
