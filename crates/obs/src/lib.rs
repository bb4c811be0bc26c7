//! Sim-time-aware tracing, metrics, and profiling for the study
//! pipeline (DESIGN.md §9).
//!
//! Instrumented crates sprinkle [`span!`], [`event!`], [`counter`],
//! and [`observe`] calls through their hot paths. One run-time gate
//! keeps this free when unused: nothing is recorded until [`install`]
//! puts a [`CollectingRecorder`] on the current thread, and without one
//! the fast path is one thread-local boolean load.
//!
//! Recorders are per-thread by design: the sharded study runner gives
//! every shard its own simulator thread, so per-shard collection is
//! naturally lock-free and the shard [`Report`]s are merged in
//! shard-index order afterwards — the same merge discipline
//! `run_study_sharded` uses for its result sets.
//!
//! **Determinism contract.** A recorder observes the simulation and
//! never writes back: no RNG access, no event scheduling, no visible
//! side effects. Study output with a recorder installed must stay
//! byte-identical to a run without one (the workspace's
//! `tests/equivalence/mod.rs` holds both to one digest table at K ∈
//! {1, 2, 8}, with and without faults).
//!
//! Separately from the hot-path recorder there is a cold-path **diag**
//! channel ([`diag!`]) for operator-facing progress/warning lines.
//! Library crates must never print to stdio directly (enforced by
//! `clippy::print_stdout`/`print_stderr` lints); they call `diag!`,
//! which is silent unless the hosting binary routes it somewhere with
//! [`diag_to_stderr`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::print_stdout, clippy::print_stderr)]

mod journal;
mod metrics;
mod recorder;

pub use journal::{
    summarize, HostJournal, JournalBuf, JournalEvent, JournalFile, JournalSummary, SilentTally,
    JOURNAL_VERSION, REPLY_CLASSES,
};
pub use metrics::{
    reply_class_counter, Counter, Gauge, Hist, Histogram, MetricsSnapshot, HIST_BUCKETS,
};
pub use recorder::{field, CollectingRecorder, Field, Report, SpanStat, Value};

use std::cell::{Cell, RefCell};
use std::sync::OnceLock;

/// Run/CLI-level switches for what the pipeline should collect.
///
/// Default is everything off, which preserves byte-identical study
/// output. Any flag set installs per-shard recorders, which always
/// collect metrics and span statistics; `trace` additionally buffers
/// JSONL lines for every event and span.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ObsConfig {
    /// Collect the metrics snapshot (counters/gauges/histograms) and
    /// span statistics, which every installed recorder keeps.
    pub metrics: bool,
    /// Buffer a JSONL trace of events and spans.
    pub trace: bool,
    /// Accumulate per-host [`HostJournal`] records (`--journal`).
    pub journal: bool,
    /// Sim-time telemetry sampling interval in microseconds
    /// (`--timeseries`); 0 disables the sampler.
    pub timeseries_every_us: u64,
}

impl ObsConfig {
    /// True when any collection is requested (recorders get installed).
    #[must_use]
    pub fn any(self) -> bool {
        self.metrics || self.trace || self.journal || self.timeseries_every_us > 0
    }

    /// Metrics and the trace on, journaling and the time-series sampler
    /// off: what `--trace` collects, and what tests use when they need
    /// every span and event but no per-host state.
    #[must_use]
    pub fn all() -> Self {
        ObsConfig { metrics: true, trace: true, ..ObsConfig::default() }
    }
}

thread_local! {
    /// Fast flag mirroring `RECORDER.is_some()`; a single TLS bool load
    /// is the entire cost when no recorder is installed.
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
    /// Current simulated time in microseconds, published by the
    /// simulator event loop so recorders can stamp events without
    /// reaching into the sim.
    static SIM_NOW: Cell<u64> = const { Cell::new(0) };
    /// Fast flag mirroring "the installed recorder journals"; keeps the
    /// [`journal!`] no-journal cost to one TLS bool load.
    static JOURNAL: Cell<bool> = const { Cell::new(false) };
    /// Current stream batch index, published by the stream runner so
    /// journal entries and telemetry rows carry their batch tag.
    static BATCH: Cell<u64> = const { Cell::new(0) };
    /// Telemetry sampling interval (sim-µs); 0 when sampling is off.
    static SAMPLE_EVERY: Cell<u64> = const { Cell::new(0) };
    /// Next sim-time boundary to sample at; `u64::MAX` parks the check
    /// so the hot `set_sim_now` path is one compare.
    static SAMPLE_NEXT: Cell<u64> = const { Cell::new(u64::MAX) };
    /// The installed recorder; every gated call that gets past `ACTIVE`
    /// lands here.
    static RECORDER: RefCell<Option<Box<CollectingRecorder>>> = const { RefCell::new(None) };
}

/// True when a recorder is installed on the current thread.
#[inline(always)]
#[must_use]
pub fn enabled() -> bool {
    ACTIVE.with(Cell::get)
}

/// Installs a recorder on the current thread, replacing any previous
/// one (which is dropped, discarding its data). The published sim time
/// and batch tag start again at 0, so nothing the thread ran before
/// leaks into the new recorder's stamps.
pub fn install(recorder: Box<CollectingRecorder>) {
    let journal = recorder.journal_enabled();
    let every = recorder.sample_interval_us();
    RECORDER.with(|r| *r.borrow_mut() = Some(recorder));
    ACTIVE.with(|a| a.set(true));
    JOURNAL.with(|j| j.set(journal));
    SIM_NOW.with(|t| t.set(0));
    BATCH.with(|b| b.set(0));
    SAMPLE_EVERY.with(|e| e.set(every));
    SAMPLE_NEXT.with(|n| n.set(if every == 0 { u64::MAX } else { every }));
}

/// Removes and returns the current thread's recorder, if any. Call
/// [`CollectingRecorder::finish`] on the result to obtain its
/// [`Report`].
pub fn uninstall() -> Option<Box<CollectingRecorder>> {
    ACTIVE.with(|a| a.set(false));
    JOURNAL.with(|j| j.set(false));
    BATCH.with(|b| b.set(0));
    SAMPLE_EVERY.with(|e| e.set(0));
    SAMPLE_NEXT.with(|n| n.set(u64::MAX));
    RECORDER.with(|r| r.borrow_mut().take())
}

/// Publishes the current simulated time (microseconds). Called by the
/// simulator event loop once per dispatched event, only when
/// [`enabled()`]. This is also the telemetry sampler's clock source:
/// when sim time crosses the next sampling boundary the recorder is
/// asked for one metrics row per crossed boundary (the cost when
/// sampling is off is a single parked `u64` compare).
#[inline]
pub fn set_sim_now(sim_us: u64) {
    SIM_NOW.with(|t| t.set(sim_us));
    if sim_us >= SAMPLE_NEXT.with(Cell::get) {
        sample_crossed_boundaries(sim_us);
    }
}

/// Emits one telemetry sample per sampling boundary in
/// `(SAMPLE_NEXT ..= sim_us]` and advances the boundary. Cold: only
/// entered when a boundary was actually crossed.
#[cold]
fn sample_crossed_boundaries(sim_us: u64) {
    let every = SAMPLE_EVERY.with(Cell::get);
    if every == 0 {
        return;
    }
    let batch = BATCH.with(Cell::get);
    let mut next = SAMPLE_NEXT.with(Cell::get);
    while sim_us >= next {
        let boundary = next;
        with_recorder(|r| r.sim_sample(boundary, batch));
        next += every;
    }
    SAMPLE_NEXT.with(|n| n.set(next));
}

/// The last published simulated time (microseconds); 0 outside a run.
#[inline]
#[must_use]
pub fn sim_now() -> u64 {
    SIM_NOW.with(Cell::get)
}

#[inline]
fn with_recorder(f: impl FnOnce(&CollectingRecorder)) {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow().as_deref() {
            f(rec);
        }
    });
}

/// Adds `n` to counter `c` on the current thread's recorder (no-op when
/// none is installed).
#[inline]
pub fn counter(c: Counter, n: u64) {
    if enabled() {
        with_recorder(|r| r.counter_add(c, n));
    }
}

/// Raises gauge `g` to at least `v`.
#[inline]
pub fn gauge_max(g: Gauge, v: u64) {
    if enabled() {
        with_recorder(|r| r.gauge_max(g, v));
    }
}

/// Records one observation of histogram `h`.
#[inline]
pub fn observe(h: Hist, v: u64) {
    if enabled() {
        with_recorder(|r| r.observe(h, v));
    }
}

/// Forwards a structured event to the recorder, stamping it with the
/// last published sim time. Prefer the [`event!`] macro, which skips
/// argument evaluation entirely when disabled.
#[inline]
pub fn emit_event(name: &'static str, fields: &[Field<'_>]) {
    if enabled() {
        let now = sim_now();
        with_recorder(|r| r.event(now, name, fields));
    }
}

/// Publishes the stream batch index the current thread is executing.
/// Journal entries and telemetry rows opened after this call carry the
/// new batch tag. The stream runner resets the sim clock to 0 between
/// batches, so the published sim time returns to 0 and the telemetry
/// sampling boundary is re-armed.
pub fn set_batch(batch: u64) {
    BATCH.with(|b| b.set(batch));
    SIM_NOW.with(|t| t.set(0));
    let every = SAMPLE_EVERY.with(Cell::get);
    SAMPLE_NEXT.with(|n| n.set(if every == 0 { u64::MAX } else { every }));
}

/// The last published stream batch index (0 for in-memory runs).
#[inline]
#[must_use]
pub fn batch() -> u64 {
    BATCH.with(Cell::get)
}

/// True when the installed recorder accumulates host journals; the
/// [`journal!`] macro's fast gate (one TLS bool load when off).
#[inline(always)]
#[must_use]
pub fn journal_on() -> bool {
    JOURNAL.with(Cell::get)
}

/// Forwards one host-journal event to the recorder, stamped with the
/// last published sim time and batch. Prefer the [`journal!`] macro,
/// which skips argument evaluation entirely when journaling is off.
#[inline]
pub fn journal_event(ip: std::net::Ipv4Addr, ev: &JournalEvent) {
    if journal_on() {
        let now = sim_now();
        let batch = batch();
        with_recorder(|r| r.journal(ip, now, batch, ev));
    }
}

/// Renders the current thread's accumulated host journals into `out`
/// as JSONL host rows (sorted by host address) followed by their silent
/// tally rows, clearing the recorder's log. The stream runner calls
/// this after every batch so journal memory never outlives a `(shard,
/// batch)` slice; journals still buffered at
/// [`CollectingRecorder::finish`] time ride out in the [`Report`].
pub fn drain_journal(out: &mut JournalBuf) {
    if enabled() {
        with_recorder(|r| r.drain_journal(out));
    }
}

/// Records one [`JournalEvent`] for host `ip`:
///
/// ```
/// # let ip = std::net::Ipv4Addr::new(10, 0, 0, 1);
/// obs::journal!(ip, obs::JournalEvent::Phase { phase: "banner" });
/// ```
///
/// Unless journaling was requested, the cost is one thread-local
/// boolean load and the event expression is never evaluated.
#[macro_export]
macro_rules! journal {
    ($ip:expr, $ev:expr) => {
        if $crate::journal_on() {
            $crate::journal_event($ip, &$ev);
        }
    };
}

/// RAII guard for a profiling span; created by [`span!`]. Records
/// sim-time and wall-time between construction and drop.
pub struct SpanGuard {
    /// The span's name while a recorder is installed; `None` otherwise.
    name: Option<&'static str>,
}

impl SpanGuard {
    /// Opens a span named `name` (a `'static` literal at call sites).
    #[inline]
    #[must_use]
    pub fn enter(name: &'static str) -> Self {
        if !enabled() {
            return SpanGuard { name: None };
        }
        let now = sim_now();
        let wall = std::time::Instant::now();
        with_recorder(|r| r.span_enter(now, name, wall));
        SpanGuard { name: Some(name) }
    }
}

impl Drop for SpanGuard {
    #[inline]
    fn drop(&mut self) {
        if let Some(name) = self.name {
            let now = sim_now();
            let wall = std::time::Instant::now();
            with_recorder(|r| r.span_exit(now, name, wall));
        }
    }
}

/// Opens a [`SpanGuard`] that closes when the bound variable drops:
///
/// ```
/// # fn stage() {}
/// let _span = obs::span!("stage.scan");
/// stage();
/// drop(_span);
/// ```
///
/// Always bind the result (`let _span = …`), never `let _ = …`, which
/// drops immediately.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::SpanGuard::enter($name)
    };
}

/// Records a structured event with `key = value` fields:
///
/// ```
/// let attempts = 3u32;
/// obs::event!("enum.retry", attempts = attempts, backoff_us = 1500u64);
/// ```
///
/// Field values are only evaluated when a recorder is installed, so
/// rendering-cost arguments (e.g. `ip.to_string()`) are free in the
/// disabled case.
#[macro_export]
macro_rules! event {
    ($name:expr $(, $key:ident = $val:expr)* $(,)?) => {
        if $crate::enabled() {
            $crate::emit_event($name, &[$($crate::field(stringify!($key), $val)),*]);
        }
    };
}

// ---------------------------------------------------------------------
// Diag channel: cold-path operator diagnostics.
// ---------------------------------------------------------------------

/// Sink for [`diag!`] lines (operator-facing progress and warnings).
pub trait DiagSink: Send + Sync {
    /// Consumes one rendered diagnostic line.
    fn line(&self, msg: &str);
}

static DIAG: OnceLock<Box<dyn DiagSink>> = OnceLock::new();

/// Installs a process-wide diag sink. First caller wins; later calls
/// are ignored (the sink is write-once to stay lock-free on read).
pub fn set_diag(sink: Box<dyn DiagSink>) {
    let _ = DIAG.set(sink);
}

/// True when a diag sink is installed; used by [`diag!`] to skip
/// formatting entirely when nobody is listening.
#[inline]
#[must_use]
pub fn diag_enabled() -> bool {
    DIAG.get().is_some()
}

/// Forwards one rendered line to the installed sink, if any.
pub fn diag_line(msg: &str) {
    if let Some(sink) = DIAG.get() {
        sink.line(msg);
    }
}

struct StderrDiag;

impl DiagSink for StderrDiag {
    #[allow(clippy::print_stderr)] // the one sanctioned stderr writer
    fn line(&self, msg: &str) {
        eprintln!("{msg}");
    }
}

/// Routes [`diag!`] lines to stderr; binaries call this near the top of
/// `main`. Library crates must not — they only ever emit.
pub fn diag_to_stderr() {
    set_diag(Box::new(StderrDiag));
}

/// Emits an operator-facing diagnostic line (format-string syntax).
/// Silent unless the hosting binary installed a sink; the format
/// arguments are not evaluated in that case. This is the replacement
/// for ad-hoc `eprintln!` in library crates.
#[macro_export]
macro_rules! diag {
    ($($arg:tt)*) => {
        if $crate::diag_enabled() {
            $crate::diag_line(&format!($($arg)*));
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn install_uninstall_roundtrip() {
        assert!(!enabled());
        install(Box::new(CollectingRecorder::new(0, false)));
        assert!(enabled());
        counter(Counter::Connects, 2);
        counter(Counter::Connects, 3);
        observe(Hist::SessionRequests, 4);
        gauge_max(Gauge::MaxActiveSessions, 9);
        gauge_max(Gauge::MaxActiveSessions, 5);
        let report = uninstall().expect("recorder installed").finish();
        assert!(!enabled());
        assert_eq!(report.metrics.counter(Counter::Connects), 5);
        assert_eq!(report.metrics.hist(Hist::SessionRequests).count, 1);
        assert_eq!(report.metrics.gauge(Gauge::MaxActiveSessions), 9);
        assert!(uninstall().is_none());
    }

    /// A recorder installed after another on the same thread stamps from
    /// sim time 0, not from where the earlier run's clock stopped.
    #[test]
    fn install_restarts_the_sim_clock() {
        install(Box::new(CollectingRecorder::new(0, false)));
        set_sim_now(5_000);
        let _ = uninstall();
        install(Box::new(CollectingRecorder::new(0, false)));
        assert_eq!(sim_now(), 0);
        let _ = uninstall();
    }

    #[test]
    fn macros_are_silent_without_recorder() {
        // Nothing installed: must not panic, must not record anywhere.
        event!("no.recorder", x = 1u64);
        let _span = span!("no.recorder");
        counter(Counter::Connects, 1);
    }

    #[test]
    fn journal_macro_routes_through_gate() {
        use std::net::Ipv4Addr;
        let ip = Ipv4Addr::new(10, 0, 0, 9);
        // No journaling requested: the macro is inert.
        install(Box::new(CollectingRecorder::new(0, false)));
        assert!(!journal_on());
        journal!(ip, JournalEvent::SessionStart);
        let report = uninstall().unwrap().finish();
        assert!(report.journal.is_empty());

        // Journaling on: events accumulate per host, batch tag applies.
        let cfg = ObsConfig { journal: true, ..ObsConfig::default() };
        install(Box::new(CollectingRecorder::with_config(3, cfg)));
        assert!(journal_on());
        set_batch(4);
        set_sim_now(1_500);
        journal!(ip, JournalEvent::SessionStart);
        journal!(ip, JournalEvent::Phase { phase: "banner" });
        let mut drained = JournalBuf::default();
        drain_journal(&mut drained);
        assert_eq!(drained.len(), 1);
        let line = drained.iter().next().expect("one line drained");
        assert!(line.contains("\"ip\":\"10.0.0.9\""), "{line}");
        assert!(line.contains("\"shard\":3,\"batch\":4"), "{line}");
        assert!(line.contains("\"start_us\":1500"), "{line}");
        // Drained journals are gone from the final report.
        let report = uninstall().unwrap().finish();
        assert!(report.journal.is_empty());
        assert!(!journal_on());
    }

    #[test]
    fn sampler_emits_one_row_per_crossed_boundary() {
        let cfg = ObsConfig { metrics: true, timeseries_every_us: 1_000, ..ObsConfig::default() };
        install(Box::new(CollectingRecorder::with_config(2, cfg)));
        counter(Counter::Connects, 1);
        set_sim_now(500); // below the first boundary
        counter(Counter::Connects, 1);
        set_sim_now(3_200); // crosses 1000, 2000, 3000
        let report = uninstall().unwrap().finish();
        assert_eq!(report.series.len(), 3);
        assert!(report.series[0].starts_with("2,0,1,"), "{}", report.series[0]);
        assert!(report.series[1].starts_with("2,0,2,"), "{}", report.series[1]);
        assert!(report.series[2].starts_with("2,0,3,"), "{}", report.series[2]);
        let header = Report::timeseries_header();
        assert!(header.starts_with("shard,batch,t_ms,sim_events,"));
        assert_eq!(header.split(',').count() - 3, Counter::COUNT);
        // Each row has one value per counter after the three tags.
        assert_eq!(report.series[0].split(',').count() - 3, Counter::COUNT);
    }

    #[test]
    fn span_macro_records_through_recorder() {
        install(Box::new(CollectingRecorder::new(7, true)));
        set_sim_now(100);
        {
            let _span = span!("unit.test");
            set_sim_now(250);
            event!("unit.inner", tag = "x");
        }
        let report = uninstall().unwrap().finish();
        let stat = report.spans.iter().find(|s| s.name == "unit.test").unwrap();
        assert_eq!(stat.count, 1);
        assert_eq!(stat.sim_total_us, 150);
        // trace: one event line + one span line
        assert_eq!(report.trace.len(), 2);
        assert!(report.trace[0].contains("\"shard\":7"));
    }
}
