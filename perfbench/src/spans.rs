//! In-memory span recorder for the traced run.
//!
//! The benchmark records a span around each call it makes into a layer of
//! the program: name, start, end, parent span and job id. Spans stay in
//! memory and are written out once, as Chrome trace-event JSON, when the
//! run ends. With tracing off, `begin`/`end` record nothing.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer call, e.g. `engine.transpose`.
    pub name: &'static str,
    /// Nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Job the span belongs to (spans of one job share it).
    pub job: u64,
    /// Recording thread, as a Chrome trace track.
    pub tid: u32,
}

/// Handle of an open span (`None` when tracing is off).
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

/// Span recorder for one thread.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    tid: u32,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A recorder timing against `epoch`; records only when `enabled`.
    pub fn new(enabled: bool, epoch: Instant, tid: u32) -> Self {
        Self {
            enabled,
            epoch,
            tid,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The instant span times are measured from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Turns recording on or off; must not be called inside an open span.
    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.stack.is_empty(), "toggled inside an open span");
        self.enabled = enabled;
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str, job: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let index = self.spans.len();
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            job,
            tid: self.tid,
        });
        self.stack.push(index);
        Open(Some(index))
    }

    /// Closes `open`, which must be the innermost open span.
    pub fn end(&mut self, open: Open) {
        if let Some(index) = open.0 {
            assert_eq!(
                self.stack.pop(),
                Some(index),
                "spans must close innermost-first"
            );
            self.spans[index].end_ns = self.ns(Instant::now());
        }
    }

    /// Records an interval timed elsewhere, at top level.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant, job: u64) {
        if self.enabled {
            let (start_ns, end_ns) = (self.ns(start), self.ns(end));
            self.spans.push(Span {
                name,
                start_ns,
                end_ns,
                parent: None,
                job,
                tid: self.tid,
            });
        }
    }

    /// Moves another thread's spans into this recorder.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }
}

/// Self time of every span in nanoseconds: its duration minus the part of
/// its interval covered by its children (children clipped to the parent,
/// overlaps counted once). Never negative and never above the span's own
/// duration.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (a, b) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if a < b {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.end_ns.saturating_sub(s.start_ns) - covered
        })
        .collect()
}

/// Total self seconds per span name.
pub fn self_seconds_by_name(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut totals = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        *totals.entry(s.name).or_insert(0.0) += self_ns as f64 * 1e-9;
    }
    totals
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one complete
/// (`"ph":"X"`) event per span, timestamps in microseconds.
pub fn chrome_json(spans: &[Span]) -> String {
    let events: Vec<String> = spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let parent = s.parent.map_or(-1, |p| p as i64);
            format!(
                concat!(
                    "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},",
                    "\"pid\":0,\"tid\":{},\"args\":{{\"span\":{},\"parent\":{},\"job\":{}}}}}"
                ),
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.tid,
                i,
                parent,
                s.job
            )
        })
        .collect();
    format!("{{\"traceEvents\":[{}]}}\n", events.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            job: 0,
            tid: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span("job", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 60, Some(0)),  // overlaps a
            span("c", 90, 130, Some(0)), // runs past the parent
            span("leaf", 15, 20, Some(1)),
        ];
        let st = self_times(&spans);
        assert_eq!(st, vec![100 - 50 - 10, 30 - 5, 30, 40, 5]);
    }

    #[test]
    fn self_time_is_never_negative_nor_above_wall() {
        // Seeded random trees whose children may overlap each other and
        // overhang their parent: the subtraction never underflows (it
        // would panic here) and no span's self time exceeds its duration.
        let mut rng = menda_sparse::rng::StdRng::seed_from_u64(11);
        for _ in 0..200 {
            let mut spans = vec![span("root", 0, 1000, None)];
            for _ in 0..rng.random_range(0..12) {
                let parent = rng.random_range(0..spans.len());
                let a = rng.random_range(0..1200) as u64;
                let b = a + rng.random_range(0..400) as u64;
                spans.push(span("x", a, b, Some(parent)));
            }
            for (s, st) in spans.iter().zip(self_times(&spans)) {
                assert!(st <= s.end_ns - s.start_ns);
            }
        }
    }

    #[test]
    fn nested_self_times_add_up_to_wall_time() {
        // Properly nested, back-to-back children: self times partition the
        // root's wall time exactly.
        let spans = vec![
            span("run", 0, 1000, None),
            span("job", 0, 400, Some(0)),
            span("engine", 50, 390, Some(1)),
            span("job", 400, 990, Some(0)),
            span("engine", 400, 900, Some(3)),
            span("check", 900, 990, Some(3)),
        ];
        let total: u64 = self_times(&spans).iter().sum();
        assert_eq!(total, 1000);
    }

    #[test]
    fn recorder_nests_and_is_inert_when_off() {
        let epoch = Instant::now();
        let mut on = Tracer::new(true, epoch, 1);
        let outer = on.begin("outer", 7);
        let inner = on.begin("inner", 7);
        on.end(inner);
        on.end(outer);
        assert_eq!(on.spans().len(), 2);
        assert_eq!(on.spans()[1].parent, Some(0));
        assert!(on.spans()[0].end_ns >= on.spans()[1].end_ns);

        let mut off = Tracer::new(false, epoch, 1);
        let o = off.begin("outer", 7);
        off.end(o);
        off.record("x", epoch, Instant::now(), 1);
        assert!(off.spans().is_empty());

        let mut merged = Tracer::new(true, epoch, 0);
        let top = merged.begin("top", 1);
        merged.end(top);
        merged.absorb(on);
        assert_eq!(merged.spans()[2].parent, Some(1));
        let json = chrome_json(merged.spans());
        assert!(json.starts_with("{\"traceEvents\":["));
        menda_trace::json::parse(json.trim()).expect("valid JSON");
    }
}
