//! In-memory spans around the calls into each layer.
//!
//! Spans are recorded from the harness's own code (the program under
//! test is not instrumented), kept in memory, and written out as a
//! Chrome trace-event file when the pass ends.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One timed call: name, start, end, the span that caused it, and the
/// workload it belongs to.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<usize>,
    pub workload: String,
    /// Recording thread (0 = the harness's main thread).
    pub tid: u32,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// Records nested spans on one thread. A disabled tracer runs the same
/// closures and records nothing: the untraced side of the overhead
/// comparison.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    workload: String,
    tid: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(workload: &str, enabled: bool) -> Tracer {
        Tracer::on_thread(workload, enabled, Instant::now(), 0)
    }

    /// A tracer for another thread of the same pass, sharing its epoch
    /// so the merged timeline lines up.
    pub fn on_thread(workload: &str, enabled: bool, epoch: Instant, tid: u32) -> Tracer {
        Tracer {
            enabled,
            epoch,
            workload: workload.to_owned(),
            tid,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span named `name`; returns its result and the
    /// span's duration in seconds (timed whether or not recording).
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> (R, f64) {
        let start = Instant::now();
        let slot = self.enabled.then(|| {
            self.spans.push(Span {
                name: name.to_owned(),
                start_ns: (start - self.epoch).as_nanos() as u64,
                end_ns: 0,
                parent: self.open.last().copied(),
                workload: self.workload.clone(),
                tid: self.tid,
            });
            self.open.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        let out = f(self);
        let end = Instant::now();
        if let Some(i) = slot {
            self.spans[i].end_ns = (end - self.epoch).as_nanos() as u64;
            self.open.pop();
        }
        (out, (end - start).as_secs_f64())
    }

    /// Appends another thread's finished spans, re-basing their parent
    /// links under `parent` (the span that started the thread).
    pub fn absorb(&mut self, other: Tracer, parent: Option<usize>) {
        let base = self.spans.len();
        for mut s in other.spans {
            s.parent = s.parent.map(|p| p + base).or(parent);
            self.spans.push(s);
        }
    }

    /// Index of the innermost open span.
    pub fn current(&self) -> Option<usize> {
        self.open.last().copied()
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span: its duration minus the part of that
/// interval its direct children cover (overlapping children, e.g. from
/// two client threads, count once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Total duration and self time per span name, in first-seen order:
/// `(name, count, total seconds, self seconds)`.
pub fn summarize(spans: &[Span]) -> Vec<(String, usize, f64, f64)> {
    let selfs = self_times_ns(spans);
    let mut rows: Vec<(String, usize, f64, f64)> = Vec::new();
    for (s, own) in spans.iter().zip(selfs) {
        let row = match rows.iter_mut().find(|r| r.0 == s.name) {
            Some(row) => row,
            None => {
                rows.push((s.name.clone(), 0, 0.0, 0.0));
                rows.last_mut().expect("just pushed")
            }
        };
        row.1 += 1;
        row.2 += s.seconds();
        row.3 += own as f64 / 1e9;
    }
    rows
}

/// Writes the spans as Chrome trace-event JSON (`chrome://tracing`,
/// Perfetto): one complete ("X") event per span, `pid` = workload,
/// `tid` = recording thread, timestamps in microseconds.
pub fn write_chrome(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut workloads: Vec<&str> = Vec::new();
    for s in spans {
        if !workloads.contains(&s.workload.as_str()) {
            workloads.push(&s.workload);
        }
    }
    let selfs = self_times_ns(spans);
    let mut out = String::from("{\"traceEvents\":[\n");
    for (pid, w) in workloads.iter().enumerate() {
        let _ = writeln!(
            out,
            "{{\"ph\":\"M\",\"pid\":{pid},\"name\":\"process_name\",\"args\":{{\"name\":\"{w}\"}}}},"
        );
    }
    for (i, (s, own)) in spans.iter().zip(&selfs).enumerate() {
        let pid = workloads
            .iter()
            .position(|w| *w == s.workload)
            .expect("workload listed above");
        let parent = match s.parent {
            Some(p) => p.to_string(),
            None => "null".to_owned(),
        };
        let _ = write!(
            out,
            "{{\"ph\":\"X\",\"pid\":{pid},\"tid\":{},\"name\":\"{}\",\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"id\":{i},\"parent\":{parent},\"self_us\":{:.3}}}}}",
            s.tid,
            s.name,
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            *own as f64 / 1e3,
        );
        out.push_str(if i + 1 < spans.len() { ",\n" } else { "\n" });
    }
    out.push_str("]}\n");
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_owned(),
            start_ns: start,
            end_ns: end,
            parent,
            workload: "w".to_owned(),
            tid: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            // Overlaps `a` on [30, 40]: the union covers [10, 60].
            span("b", 30, 60, Some(0)),
            span("leaf", 12, 20, Some(1)),
            // Sticks out of its parent: only [90, 100] counts.
            span("late", 90, 130, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![40, 22, 30, 8, 40]);
    }

    #[test]
    fn tracer_nests_and_disabled_records_nothing() {
        let mut t = Tracer::new("w", true);
        let ((), outer) = t.span("outer", |t| {
            t.span("inner", |_| std::hint::black_box(1 + 1));
        });
        let spans = t.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert!(outer >= spans[1].seconds());

        let mut off = Tracer::new("w", false);
        let (v, secs) = off.span("x", |_| 7);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert!(off.into_spans().is_empty());
    }

    #[test]
    fn absorb_rebases_parents() {
        let mut main = Tracer::new("w", true);
        main.span("root", |t| {
            let mut worker = Tracer::on_thread("w", true, t.epoch(), 1);
            worker.span("job", |w| {
                w.span("step", |_| ());
            });
            let parent = t.current();
            t.absorb(worker, parent);
        });
        let spans = main.into_spans();
        assert_eq!(
            spans.iter().map(|s| s.parent).collect::<Vec<_>>(),
            vec![None, Some(0), Some(1)]
        );
        assert_eq!(spans[2].tid, 1);
        let rows = summarize(&spans);
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].1, 1);
    }
}
