//! The per-shard [`CollectingRecorder`] and the merged [`Report`] with
//! its trace / metrics / profile export sinks.
//!
//! A recorder is installed per *thread* (the sharded runner gives every
//! shard its own simulator thread, so per-thread is per-shard) and is
//! strictly write-only from the instrumented code's point of view: it
//! observes sim-time and wall-time but never feeds anything back into
//! the simulation, which is how the determinism contract ("tracing
//! observes, never perturbs") is kept.

use crate::journal::{JournalBuf, JournalEvent, JournalLog};
use crate::metrics::{Counter, Gauge, Hist, MetricsSnapshot};
use crate::ObsConfig;
use std::borrow::Cow;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::net::Ipv4Addr;
use std::time::Instant;

/// A typed field value attached to an event.
#[derive(Debug, Clone)]
pub enum Value<'a> {
    /// Unsigned integer.
    U64(u64),
    /// String, borrowed or owned (e.g. a rendered address).
    Str(Cow<'a, str>),
}

macro_rules! value_from_unsigned {
    ($($ty:ty),+) => {
        $(impl<'a> From<$ty> for Value<'a> {
            fn from(v: $ty) -> Self {
                Value::U64(v as u64)
            }
        })+
    };
}

value_from_unsigned!(u64, u32, u16, u8, usize);

impl<'a> From<&'a str> for Value<'a> {
    fn from(v: &'a str) -> Self {
        Value::Str(Cow::Borrowed(v))
    }
}

impl<'a> From<String> for Value<'a> {
    fn from(v: String) -> Self {
        Value::Str(Cow::Owned(v))
    }
}

impl<'a> From<std::net::Ipv4Addr> for Value<'a> {
    fn from(v: std::net::Ipv4Addr) -> Self {
        Value::Str(Cow::Owned(v.to_string()))
    }
}

/// A `key = value` pair attached to an [`crate::event!`].
#[derive(Debug, Clone)]
pub struct Field<'a> {
    /// Field name (the identifier written at the call site).
    pub key: &'static str,
    /// Field value.
    pub value: Value<'a>,
}

/// Builds a [`Field`]; used by the `event!` macro expansion.
pub fn field<'a>(key: &'static str, value: impl Into<Value<'a>>) -> Field<'a> {
    Field { key, value: value.into() }
}

/// Aggregated statistics for one span name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanStat {
    /// Span name as written at the call site.
    pub name: &'static str,
    /// Number of times the span was entered.
    pub count: u64,
    /// Total sim-time inside the span, microseconds (children included).
    pub sim_total_us: u64,
    /// Exclusive sim-time (children subtracted), microseconds.
    pub sim_self_us: u64,
    /// Total wall-time inside the span, nanoseconds (children included).
    pub wall_total_ns: u64,
    /// Exclusive wall-time (children subtracted), nanoseconds.
    pub wall_self_ns: u64,
}

impl SpanStat {
    fn zero(name: &'static str) -> Self {
        SpanStat { name, count: 0, sim_total_us: 0, sim_self_us: 0, wall_total_ns: 0, wall_self_ns: 0 }
    }

    fn absorb(&mut self, other: &SpanStat) {
        self.count += other.count;
        self.sim_total_us += other.sim_total_us;
        self.sim_self_us += other.sim_self_us;
        self.wall_total_ns += other.wall_total_ns;
        self.wall_self_ns += other.wall_self_ns;
    }
}

/// Everything a recorder collected: metrics, span statistics, and
/// (optionally) a JSONL trace. Shard reports merge with
/// [`Report::absorb`] in shard-index order, mirroring the study merge.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    /// Merged metrics snapshot.
    pub metrics: MetricsSnapshot,
    /// Aggregated spans, sorted by name.
    pub spans: Vec<SpanStat>,
    /// Pre-rendered JSONL trace lines (empty unless tracing was on).
    pub trace: Vec<String>,
    /// Host-journal JSONL lines still buffered at finish time (the
    /// whole run for in-memory studies; empty for streamed runs that
    /// drain per batch), rendered into one buffer. Per shard: host rows
    /// sorted by address, then the silent tally rows.
    pub journal: JournalBuf,
    /// Rendered telemetry CSV rows (no header), in sample order per
    /// shard; empty unless the sampler was armed.
    pub series: Vec<String>,
}

impl Report {
    /// Merges another shard's report into this one. Trace lines are
    /// concatenated (each line already carries its shard index), spans
    /// merge by name, metrics merge per [`MetricsSnapshot::absorb`];
    /// journal and telemetry lines concatenate like the trace (each
    /// line carries its shard tag, and callers merge in shard-index
    /// order, so the merged order is deterministic).
    pub fn absorb(&mut self, other: Report) {
        self.metrics.absorb(&other.metrics);
        for stat in &other.spans {
            match self.spans.iter_mut().find(|s| s.name == stat.name) {
                Some(mine) => mine.absorb(stat),
                None => self.spans.push(stat.clone()),
            }
        }
        self.spans.sort_by(|a, b| a.name.cmp(b.name));
        self.trace.extend(other.trace);
        self.journal.append(other.journal);
        self.series.extend(other.series);
    }

    /// Records a span measured outside any recorder (e.g. the merge
    /// step itself, which runs on the coordinating thread after the
    /// shard recorders have been torn down).
    pub fn add_span(&mut self, name: &'static str, sim_us: u64, wall_ns: u64) {
        let stat = SpanStat {
            name,
            count: 1,
            sim_total_us: sim_us,
            sim_self_us: sim_us,
            wall_total_ns: wall_ns,
            wall_self_ns: wall_ns,
        };
        match self.spans.iter_mut().find(|s| s.name == name) {
            Some(mine) => mine.absorb(&stat),
            None => self.spans.push(stat),
        }
        self.spans.sort_by(|a, b| a.name.cmp(b.name));
    }

    /// The full JSONL trace as one string (one event/span per line).
    #[must_use]
    pub fn trace_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.trace.iter().map(|l| l.len() + 1).sum());
        for line in &self.trace {
            out.push_str(line);
            out.push('\n');
        }
        out
    }

    /// The buffered host journals as one JSONL string (one row per
    /// line): a copy of [`Report::journal`]'s text, which callers that
    /// only write it out can borrow with [`JournalBuf::as_str`] instead.
    /// Streamed runs write incrementally per batch.
    #[must_use]
    pub fn journal_jsonl(&self) -> String {
        self.journal.as_str().to_owned()
    }

    /// The header line for the telemetry CSV: partition coordinates
    /// followed by every counter in registry order.
    #[must_use]
    pub fn timeseries_header() -> String {
        let mut out = String::from("shard,batch,t_ms");
        for c in Counter::ALL {
            out.push(',');
            out.push_str(c.name());
        }
        out
    }

    /// The telemetry series as a CSV document (header + one row per
    /// sample). Rows carry cumulative per-shard counter values tagged
    /// `(shard, batch, t_ms)`; rates are first differences per shard.
    #[must_use]
    pub fn timeseries_csv(&self) -> String {
        let mut out = Report::timeseries_header();
        out.push('\n');
        for row in &self.series {
            out.push_str(row);
            out.push('\n');
        }
        out
    }

    /// Renders the self-profile table: top spans by exclusive sim time,
    /// with wall time alongside so virtual-time stalls (backoff sleeps,
    /// tarpits) are distinguishable from real CPU cost. Sorted by
    /// exclusive sim time (deterministic), name as tiebreak.
    #[must_use]
    pub fn render_profile(&self) -> String {
        let mut rows = self.spans.clone();
        rows.sort_by(|a, b| b.sim_self_us.cmp(&a.sim_self_us).then(a.name.cmp(b.name)));
        let mut out = String::new();
        out.push_str("self-profile: spans by exclusive sim time\n");
        out.push_str(&format!(
            "{:<24} {:>8} {:>14} {:>14} {:>12} {:>12}\n",
            "span", "count", "sim total ms", "sim self ms", "wall tot ms", "wall self ms"
        ));
        for s in &rows {
            let _ = writeln!(
                out,
                "{:<24} {:>8} {:>14.3} {:>14.3} {:>12.3} {:>12.3}",
                s.name,
                s.count,
                s.sim_total_us as f64 / 1_000.0,
                s.sim_self_us as f64 / 1_000.0,
                s.wall_total_ns as f64 / 1_000_000.0,
                s.wall_self_ns as f64 / 1_000_000.0,
            );
        }
        out
    }
}

/// An open span on the recorder's stack.
struct Frame {
    name: &'static str,
    sim_start_us: u64,
    wall_start: Instant,
    /// Sim-time consumed by already-closed children, for exclusive time.
    child_sim_us: u64,
    /// Wall-time consumed by already-closed children.
    child_wall_ns: u64,
}

/// The standard per-shard recorder: counters and histograms in flat
/// arrays, span aggregation in a name-keyed map, optional JSONL trace
/// buffer. Single-threaded by construction (one per shard thread), so
/// plain `Cell`/`RefCell` interior mutability suffices — this is the
/// "lock-free per-shard, merged after" design the study merge already
/// uses for its result sets.
pub struct CollectingRecorder {
    shard: u64,
    metrics: RefCell<MetricsSnapshot>,
    stack: RefCell<Vec<Frame>>,
    agg: RefCell<BTreeMap<&'static str, SpanStat>>,
    trace: Option<RefCell<Vec<String>>>,
    /// Journal events in arrival order; drains sort them by host, so
    /// output is in address order whatever order events arrived in.
    journal: Option<RefCell<JournalLog>>,
    /// Rendered telemetry CSV rows, in sample order.
    series: Option<RefCell<Vec<String>>>,
    /// Telemetry sampling interval (sim-µs); 0 when sampling is off.
    sample_every_us: u64,
    seq: Cell<u64>,
}

impl CollectingRecorder {
    /// Creates a recorder for shard `shard`; `trace` enables the JSONL
    /// buffer (events and spans are recorded as lines as they happen).
    /// Journaling and telemetry stay off — use [`Self::with_config`].
    #[must_use]
    pub fn new(shard: u64, trace: bool) -> Self {
        CollectingRecorder::with_config(shard, ObsConfig { trace, ..ObsConfig::default() })
    }

    /// Creates a recorder for shard `shard` collecting what `cfg`
    /// requests. Metrics and span statistics are always collected (they
    /// are cheap flat arrays and both the `--metrics` and `--profile`
    /// exports read them); `cfg` gates the allocation-bearing buffers:
    /// trace lines, host journals, and the telemetry series.
    #[must_use]
    pub fn with_config(shard: u64, cfg: ObsConfig) -> Self {
        CollectingRecorder {
            shard,
            metrics: RefCell::new(MetricsSnapshot::default()),
            stack: RefCell::new(Vec::with_capacity(8)),
            agg: RefCell::new(BTreeMap::new()),
            trace: cfg.trace.then(|| RefCell::new(Vec::new())),
            journal: cfg.journal.then(|| RefCell::new(JournalLog::default())),
            series: (cfg.timeseries_every_us > 0).then(|| RefCell::new(Vec::new())),
            sample_every_us: cfg.timeseries_every_us,
            seq: Cell::new(0),
        }
    }

    fn next_seq(&self) -> u64 {
        let s = self.seq.get();
        self.seq.set(s + 1);
        s
    }

    fn push_trace_line(&self, line: String) {
        if let Some(buf) = &self.trace {
            buf.borrow_mut().push(line);
        }
    }

    /// Adds `n` to a monotonic counter.
    pub(crate) fn counter_add(&self, c: Counter, n: u64) {
        self.metrics.borrow_mut().counters[c as usize] += n;
    }

    /// Raises a high-water-mark gauge to at least `v`.
    pub(crate) fn gauge_max(&self, g: Gauge, v: u64) {
        let mut m = self.metrics.borrow_mut();
        let slot = &mut m.gauges[g as usize];
        *slot = (*slot).max(v);
    }

    /// Records one histogram observation.
    pub(crate) fn observe(&self, h: Hist, v: u64) {
        self.metrics.borrow_mut().hists[h as usize].observe(v);
    }

    /// Records a structured event at the given sim time (a trace line;
    /// nothing without a trace buffer).
    pub(crate) fn event(&self, sim_us: u64, name: &'static str, fields: &[Field<'_>]) {
        if self.trace.is_none() {
            return;
        }
        let mut line = String::with_capacity(96);
        let _ = write!(
            line,
            "{{\"type\":\"event\",\"shard\":{},\"seq\":{},\"sim_us\":{},\"name\":\"{}\"",
            self.shard,
            self.next_seq(),
            sim_us,
            name
        );
        render_fields(fields, &mut line);
        line.push('}');
        self.push_trace_line(line);
    }

    /// Opens a span at the given sim time / wall instant.
    pub(crate) fn span_enter(&self, sim_us: u64, name: &'static str, wall: Instant) {
        self.stack.borrow_mut().push(Frame {
            name,
            sim_start_us: sim_us,
            wall_start: wall,
            child_sim_us: 0,
            child_wall_ns: 0,
        });
    }

    /// Closes the innermost span (must match `name`).
    pub(crate) fn span_exit(&self, sim_us: u64, name: &'static str, wall: Instant) {
        let frame = match self.stack.borrow_mut().pop() {
            Some(f) => f,
            None => return, // unbalanced exit: drop rather than panic
        };
        debug_assert_eq!(frame.name, name, "span enter/exit mismatch");
        let sim_total = sim_us.saturating_sub(frame.sim_start_us);
        let wall_total = wall.duration_since(frame.wall_start).as_nanos() as u64;
        if let Some(parent) = self.stack.borrow_mut().last_mut() {
            parent.child_sim_us += sim_total;
            parent.child_wall_ns += wall_total;
        }
        let mut agg = self.agg.borrow_mut();
        let stat = agg.entry(frame.name).or_insert_with(|| SpanStat::zero(frame.name));
        stat.count += 1;
        stat.sim_total_us += sim_total;
        stat.sim_self_us += sim_total.saturating_sub(frame.child_sim_us);
        stat.wall_total_ns += wall_total;
        stat.wall_self_ns += wall_total.saturating_sub(frame.child_wall_ns);
        drop(agg);
        if self.trace.is_some() {
            let mut line = String::with_capacity(96);
            let _ = write!(
                line,
                "{{\"type\":\"span\",\"shard\":{},\"seq\":{},\"name\":\"{}\",\"sim_start_us\":{},\"sim_end_us\":{},\"wall_ns\":{}}}",
                self.shard,
                self.next_seq(),
                name,
                frame.sim_start_us,
                sim_us,
                wall_total
            );
            self.push_trace_line(line);
        }
    }

    /// Consumes the recorder and returns everything it collected.
    #[must_use]
    pub fn finish(self) -> Report {
        let metrics = self.metrics.into_inner();
        let spans: Vec<SpanStat> = self.agg.into_inner().into_values().collect();
        let trace = self.trace.map(RefCell::into_inner).unwrap_or_default();
        let mut journal = JournalBuf::default();
        if let Some(log) = self.journal {
            log.into_inner().drain_into(self.shard, &mut journal);
        }
        let series = self.series.map(RefCell::into_inner).unwrap_or_default();
        Report { metrics, spans, trace, journal, series }
    }

    /// True when this recorder accumulates host journals; [`crate::install`]
    /// caches it for the `journal!` fast gate.
    pub(crate) fn journal_enabled(&self) -> bool {
        self.journal.is_some()
    }

    /// Sim-time telemetry sampling interval in microseconds; 0 when the
    /// sampler is off.
    pub(crate) fn sample_interval_us(&self) -> u64 {
        self.sample_every_us
    }

    /// Folds one host-journal event for `ip`, stamped at `sim_us` in
    /// stream batch `batch`.
    pub(crate) fn journal(&self, ip: Ipv4Addr, sim_us: u64, batch: u64, ev: &JournalEvent) {
        if let Some(log) = &self.journal {
            log.borrow_mut().push(u32::from(ip), sim_us, batch, ev);
        }
    }

    /// Renders the accumulated host journals into `out` as JSONL host
    /// rows (sorted by host address) and silent tally rows, clearing
    /// them.
    pub(crate) fn drain_journal(&self, out: &mut JournalBuf) {
        if let Some(log) = &self.journal {
            log.borrow_mut().drain_into(self.shard, out);
        }
    }

    /// Takes one telemetry sample at sim-time `boundary_us` in stream
    /// batch `batch`.
    pub(crate) fn sim_sample(&self, boundary_us: u64, batch: u64) {
        if let Some(series) = &self.series {
            let m = self.metrics.borrow();
            let mut row = String::with_capacity(16 + Counter::COUNT * 8);
            let _ = write!(row, "{},{},{}", self.shard, batch, boundary_us / 1_000);
            for c in Counter::ALL {
                let _ = write!(row, ",{}", m.counter(c));
            }
            series.borrow_mut().push(row);
        }
    }
}

/// Escapes a string for embedding in a JSON string literal.
pub(crate) fn escape_json(s: &str, out: &mut String) {
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

fn render_fields(fields: &[Field<'_>], out: &mut String) {
    for f in fields {
        let _ = write!(out, ",\"{}\":", f.key);
        match &f.value {
            Value::U64(v) => {
                let _ = write!(out, "{v}");
            }
            Value::Str(v) => {
                out.push('"');
                escape_json(v, out);
                out.push('"');
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn spans_compute_exclusive_time() {
        let rec = CollectingRecorder::new(0, false);
        let t0 = Instant::now();
        rec.span_enter(0, "outer", t0);
        rec.span_enter(10, "inner", t0);
        rec.span_exit(40, "inner", t0 + Duration::from_nanos(100));
        rec.span_exit(100, "outer", t0 + Duration::from_nanos(300));
        let report = rec.finish();
        let outer = report.spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = report.spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.sim_total_us, 30);
        assert_eq!(inner.sim_self_us, 30);
        assert_eq!(outer.sim_total_us, 100);
        assert_eq!(outer.sim_self_us, 70); // 100 - 30 from the child
        assert_eq!(outer.wall_total_ns, 300);
        assert_eq!(outer.wall_self_ns, 200);
    }

    #[test]
    fn trace_lines_are_json_shaped_and_escaped() {
        let rec = CollectingRecorder::new(3, true);
        rec.event(42, "test.event", &[field("msg", "a\"b\\c"), field("n", 7u64)]);
        let report = rec.finish();
        assert_eq!(report.trace.len(), 1);
        let line = &report.trace[0];
        assert!(line.starts_with("{\"type\":\"event\",\"shard\":3,\"seq\":0,"));
        assert!(line.contains("\"msg\":\"a\\\"b\\\\c\""));
        assert!(line.contains("\"n\":7"));
        assert!(line.ends_with('}'));
    }

    /// The journal log is appended in arrival order and sorted only at
    /// drain time: lines come out in address order, each host's events
    /// keep their arrival order, and a line's batch tag is the batch of
    /// its host's first event, even when the batch changed with no drain
    /// in between.
    #[test]
    fn journal_orders_hosts_by_address_and_events_by_arrival() {
        use crate::journal::HostJournal;
        let cfg = ObsConfig { journal: true, ..ObsConfig::default() };
        let rec = CollectingRecorder::with_config(5, cfg);
        let (a, b, c) =
            (Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2), Ipv4Addr::new(192, 168, 1, 1));
        rec.journal(c, 10, 0, &JournalEvent::ProbeSent { attempt: 1 });
        rec.journal(a, 20, 0, &JournalEvent::ProbeSent { attempt: 1 });
        rec.journal(c, 30, 0, &JournalEvent::ProbeReply { status: "open" });
        // The batch changes with no drain: `b` opens in batch 1, while
        // `a` and `c` keep the batch of their first events.
        rec.journal(b, 5, 1, &JournalEvent::ProbeSent { attempt: 1 });
        rec.journal(a, 40, 1, &JournalEvent::ProbeSent { attempt: 2 });
        rec.journal(c, 50, 1, &JournalEvent::Phase { phase: "banner" });
        rec.journal(a, 60, 1, &JournalEvent::ProbeReply { status: "filtered" });
        rec.journal(c, 45, 1, &JournalEvent::Phase { phase: "user" });
        rec.journal(b, 70, 2, &JournalEvent::Retry { attempt: 1, backoff_us: u64::MAX });
        rec.journal(a, 80, 2, &JournalEvent::ProbeReply { status: "closed" });

        let report = rec.finish();
        let lines: Vec<HostJournal> =
            report.journal.iter().map(|l| HostJournal::parse_line(l).expect("parses")).collect();
        assert_eq!(report.journal.len(), 3);
        assert_eq!(lines.iter().map(|j| j.ip).collect::<Vec<_>>(), vec![a, b, c]);
        assert!(lines.iter().all(|j| j.shard == 5));
        assert_eq!(lines.iter().map(|j| j.batch).collect::<Vec<_>>(), vec![0, 1, 0]);
        assert_eq!(lines[0].probe_tx, vec![(20, 1), (40, 2)]);
        assert_eq!(
            lines[0].probe_rx,
            vec![(60, "filtered".into()), (80, "closed".into())],
            "arrival order, not sorted by label"
        );
        assert_eq!(lines[1].retries, vec![(70, 1, u64::MAX)]);
        assert_eq!(
            lines[2].phases,
            vec![(50, "banner".into()), (45, "user".into())],
            "arrival order, not sim-time order"
        );
    }

    #[test]
    fn report_merge_sums_spans_by_name() {
        let mut a = Report::default();
        a.add_span("stage.scan", 100, 1_000);
        let mut b = Report::default();
        b.add_span("stage.scan", 50, 500);
        b.add_span("stage.enumerate", 10, 10);
        a.absorb(b);
        assert_eq!(a.spans.len(), 2);
        let scan = a.spans.iter().find(|s| s.name == "stage.scan").unwrap();
        assert_eq!(scan.count, 2);
        assert_eq!(scan.sim_total_us, 150);
        // sorted by name
        assert_eq!(a.spans[0].name, "stage.enumerate");
    }

    #[test]
    fn profile_table_renders_sorted() {
        let mut r = Report::default();
        r.add_span("small", 5, 5);
        r.add_span("big", 5_000, 5_000);
        let table = r.render_profile();
        let big_pos = table.find("big").unwrap();
        let small_pos = table.find("small").unwrap();
        assert!(big_pos < small_pos, "profile must sort by exclusive sim time:\n{table}");
    }
}
