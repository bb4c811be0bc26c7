//! Metrics registry: fixed sets of monotonic counters, max-merged
//! gauges, and log2-bucket histograms.
//!
//! The registry is deliberately *closed*: every counter, gauge, and
//! histogram is an enum variant declared here, so a snapshot is a flat
//! array indexed by discriminant — no hashing, no interning, no
//! allocation on the hot path — and the bench `metrics` block has a
//! stable, enumerable schema to diff against.

/// Declares the [`Counter`] enum plus its name table in one place so the
/// variant list and the stable snake_case wire names cannot drift apart.
macro_rules! registry_enum {
    ($(#[$meta:meta])* $name:ident { $($(#[$vmeta:meta])* $variant:ident => $label:literal,)+ }) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[repr(usize)]
        pub enum $name {
            $($(#[$vmeta])* $variant,)+
        }

        impl $name {
            /// Number of variants (snapshot array length).
            pub const COUNT: usize = [$($name::$variant,)+].len();

            /// Every variant, in declaration (= snapshot index) order.
            pub const ALL: [$name; $name::COUNT] = [$($name::$variant,)+];

            /// Stable snake_case name used in JSON exports.
            #[must_use]
            pub const fn name(self) -> &'static str {
                match self {
                    $($name::$variant => $label,)+
                }
            }
        }
    };
}

registry_enum! {
    /// Monotonic counters covering the whole pipeline. Merged across
    /// shards by summing.
    Counter {
        /// Every event popped from the simulator queue.
        SimEvents => "sim_events",
        /// `Ev::Data` deliveries dispatched.
        EvData => "sim_ev_data",
        /// `Ev::Timer` firings dispatched.
        EvTimer => "sim_ev_timer",
        /// Connection lifecycle events (`SynArrive`/`ConnectResult`/`ConnectTimeout`).
        EvConnect => "sim_ev_connect",
        /// `Ev::Close` notifications dispatched.
        EvClose => "sim_ev_close",
        /// `Ev::ProbeResult` completions dispatched.
        EvProbe => "sim_ev_probe",
        /// Active connect attempts issued via `Ctx::connect`.
        Connects => "connects",
        /// Connect attempts that came back `ConnectReply::Failed`/timeout.
        ConnectFailures => "connect_failures",
        /// Control-channel retries scheduled by the enumerator backoff.
        ConnectRetries => "connect_retries",
        /// Total sim-microseconds spent waiting in scheduled backoff.
        BackoffWaitUs => "backoff_wait_us",
        /// Complete FTP reply lines parsed by the enumerator.
        RepliesTotal => "replies_total",
        /// Replies with a 1xx code.
        Reply1xx => "reply_1xx",
        /// Replies with a 2xx code.
        Reply2xx => "reply_2xx",
        /// Replies with a 3xx code.
        Reply3xx => "reply_3xx",
        /// Replies with a 4xx code.
        Reply4xx => "reply_4xx",
        /// Replies with a 5xx code.
        Reply5xx => "reply_5xx",
        /// Replies whose code falls outside 100..=599.
        ReplyOther => "reply_other",
        /// Enumeration sessions started.
        SessionsStarted => "sessions_started",
        /// Enumeration sessions finished (record pushed).
        SessionsFinished => "sessions_finished",
        /// Sessions that gave up (any `GaveUpReason`).
        GaveUps => "gave_ups",
        /// Per-command step timeouts fired.
        StepTimeouts => "step_timeouts",
        /// Bytes received on enumerator data channels (listings + files).
        ListingBytes => "listing_bytes",
        /// SYN probes sent via `Ctx::probe` (zscan + honeypot surface).
        ProbesSent => "probes_sent",
        /// Virtual filesystem operations (lookups, listings, writes).
        VfsOps => "vfs_ops",
        /// Arena node slots created across all virtual filesystems.
        VfsNodes => "vfs_nodes",
        /// Bytes appended to VFS name/mtime intern arenas (unique
        /// strings only — repeat interns are free and uncounted).
        VfsInternedBytes => "vfs_interned_bytes",
        /// Probe-state slots allocated by zscan's dense per-address
        /// tables (one table per scanner, sized to its address space).
        ScanSlots => "scan_slots",
        /// Timer-wheel insertions.
        WheelInserts => "wheel_inserts",
        /// Timer-wheel cascade passes (higher-level slot re-filed).
        WheelCascades => "wheel_cascades",
        /// Entries moved during cascade passes.
        WheelCascadedEntries => "wheel_cascaded_entries",
        /// Hosts materialized into the simulator by worldgen.
        HostsMaterialized => "hosts_materialized",
        /// HTTP cross-protocol observations recorded by the web probe stage.
        HttpObservations => "http_observations",
        /// Non-monotonic funnel stage counts detected (should stay 0).
        FunnelInvariantViolations => "funnel_invariant_violations",
        /// Control-channel lines decoded as zero-copy borrows of the
        /// codec buffer (clean UTF-8, the overwhelming case).
        CodecLinesBorrowed => "codec_lines_borrowed",
        /// Control-channel lines that fell back to the lossy scratch
        /// copy (invalid UTF-8 after IAC stripping).
        CodecLinesCopied => "codec_lines_copied",
        /// Slab slots orphaned by `simvfs` subtree removal: `remove`
        /// detaches the subtree but nothing frees the slots (DESIGN.md
        /// §8), so this counts the garbage a long-lived VFS carries.
        /// Summed across shards like every counter (the slots are
        /// per-shard arenas, so the sum is the fleet-wide total).
        VfsDeadNodes => "vfs_dead_nodes",
    }
}

registry_enum! {
    /// High-water-mark gauges. Merged across shards by taking the max.
    Gauge {
        /// Peak timer-wheel occupancy (pending timers) in any shard.
        WheelMaxOccupancy => "wheel_max_occupancy",
        /// Peak concurrent enumeration sessions in any shard.
        MaxActiveSessions => "max_active_sessions",
    }
}

registry_enum! {
    /// Fixed-bucket (log2) histograms. Merged by summing buckets.
    Hist {
        /// Sim-time from session connect to record push, microseconds.
        SessionSimUs => "session_sim_us",
        /// Control-channel requests issued per session.
        SessionRequests => "session_requests",
        /// Bytes per completed data-channel transfer.
        TransferBytes => "transfer_bytes",
    }
}

/// Maps an FTP reply code to its class counter.
#[must_use]
pub const fn reply_class_counter(code: u16) -> Counter {
    match code {
        100..=199 => Counter::Reply1xx,
        200..=299 => Counter::Reply2xx,
        300..=399 => Counter::Reply3xx,
        400..=499 => Counter::Reply4xx,
        500..=599 => Counter::Reply5xx,
        _ => Counter::ReplyOther,
    }
}

/// Number of log2 buckets per histogram: bucket `i` counts values `v`
/// with `floor(log2(v)) == i` (bucket 0 additionally holds `v == 0`),
/// saturating into the last bucket.
pub const HIST_BUCKETS: usize = 32;

/// A fixed-bucket log2 histogram with exact count and sum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Histogram {
    /// Log2 buckets; see [`HIST_BUCKETS`].
    pub buckets: [u64; HIST_BUCKETS],
    /// Number of observations.
    pub count: u64,
    /// Exact sum of observed values.
    pub sum: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { buckets: [0; HIST_BUCKETS], count: 0, sum: 0 }
    }
}

impl Histogram {
    /// Records one observation.
    pub fn observe(&mut self, v: u64) {
        let ix = if v == 0 {
            0
        } else {
            ((63 - v.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
        };
        self.buckets[ix] += 1;
        self.count += 1;
        self.sum += v;
    }

    /// Adds another histogram's observations into this one.
    pub fn absorb(&mut self, other: &Histogram) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    /// Mean of observed values, or 0.0 when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// A point-in-time copy of every counter, gauge, and histogram.
///
/// Per-shard snapshots are merged with [`MetricsSnapshot::absorb`]
/// (counters and histogram buckets sum, gauges take the max), mirroring
/// the `run_study_sharded` result merge.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter values, indexed by `Counter as usize`.
    pub counters: [u64; Counter::COUNT],
    /// Gauge values, indexed by `Gauge as usize`.
    pub gauges: [u64; Gauge::COUNT],
    /// Histograms, indexed by `Hist as usize`.
    pub hists: [Histogram; Hist::COUNT],
}

impl Default for MetricsSnapshot {
    fn default() -> Self {
        MetricsSnapshot {
            counters: [0; Counter::COUNT],
            gauges: [0; Gauge::COUNT],
            hists: [Histogram::default(); Hist::COUNT],
        }
    }
}

impl MetricsSnapshot {
    /// Reads one counter.
    #[must_use]
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c as usize]
    }

    /// Reads one gauge.
    #[must_use]
    pub fn gauge(&self, g: Gauge) -> u64 {
        self.gauges[g as usize]
    }

    /// Reads one histogram.
    #[must_use]
    pub fn hist(&self, h: Hist) -> &Histogram {
        &self.hists[h as usize]
    }

    /// Merges another shard's snapshot into this one.
    pub fn absorb(&mut self, other: &MetricsSnapshot) {
        for (c, o) in self.counters.iter_mut().zip(other.counters.iter()) {
            *c += o;
        }
        for (g, o) in self.gauges.iter_mut().zip(other.gauges.iter()) {
            *g = (*g).max(*o);
        }
        for (h, o) in self.hists.iter_mut().zip(other.hists.iter()) {
            h.absorb(o);
        }
    }

    /// Renders the snapshot as deterministic, hand-rolled JSON (the
    /// vendored serde is a stub; see `bench::pipeline::render_json` for
    /// the same convention). Key order follows declaration order, so
    /// the output is stable across runs and diffable.
    #[must_use]
    pub fn render_json(&self) -> String {
        let mut out = String::with_capacity(2048);
        out.push_str("{\n  \"counters\": {\n");
        for (i, c) in Counter::ALL.iter().enumerate() {
            let comma = if i + 1 == Counter::COUNT { "" } else { "," };
            out.push_str(&format!(
                "    \"{}\": {}{}\n",
                c.name(),
                self.counters[*c as usize],
                comma
            ));
        }
        out.push_str("  },\n  \"gauges\": {\n");
        for (i, g) in Gauge::ALL.iter().enumerate() {
            let comma = if i + 1 == Gauge::COUNT { "" } else { "," };
            out.push_str(&format!(
                "    \"{}\": {}{}\n",
                g.name(),
                self.gauges[*g as usize],
                comma
            ));
        }
        out.push_str("  },\n  \"histograms\": {\n");
        for (i, h) in Hist::ALL.iter().enumerate() {
            let hist = &self.hists[*h as usize];
            let comma = if i + 1 == Hist::COUNT { "" } else { "," };
            let buckets: Vec<String> = hist.buckets.iter().map(u64::to_string).collect();
            out.push_str(&format!(
                "    \"{}\": {{ \"count\": {}, \"sum\": {}, \"buckets\": [{}] }}{}\n",
                h.name(),
                hist.count,
                hist.sum,
                buckets.join(","),
                comma
            ));
        }
        out.push_str("  }\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_log2() {
        let mut h = Histogram::default();
        h.observe(0);
        h.observe(1);
        h.observe(2);
        h.observe(3);
        h.observe(1024);
        assert_eq!(h.buckets[0], 2); // 0 and 1
        assert_eq!(h.buckets[1], 2); // 2 and 3
        assert_eq!(h.buckets[10], 1); // 1024
        assert_eq!(h.count, 5);
        assert_eq!(h.sum, 1030);
    }

    #[test]
    fn snapshot_merge_sums_counters_maxes_gauges() {
        let mut a = MetricsSnapshot::default();
        let mut b = MetricsSnapshot::default();
        a.counters[Counter::Connects as usize] = 3;
        b.counters[Counter::Connects as usize] = 4;
        a.gauges[Gauge::WheelMaxOccupancy as usize] = 10;
        b.gauges[Gauge::WheelMaxOccupancy as usize] = 7;
        a.absorb(&b);
        assert_eq!(a.counter(Counter::Connects), 7);
        assert_eq!(a.gauge(Gauge::WheelMaxOccupancy), 10);
    }

    #[test]
    fn reply_classes_map_correctly() {
        assert_eq!(reply_class_counter(150), Counter::Reply1xx);
        assert_eq!(reply_class_counter(230), Counter::Reply2xx);
        assert_eq!(reply_class_counter(331), Counter::Reply3xx);
        assert_eq!(reply_class_counter(421), Counter::Reply4xx);
        assert_eq!(reply_class_counter(530), Counter::Reply5xx);
        assert_eq!(reply_class_counter(999), Counter::ReplyOther);
        assert_eq!(reply_class_counter(0), Counter::ReplyOther);
    }

    #[test]
    fn json_render_is_stable_and_contains_all_names() {
        let snap = MetricsSnapshot::default();
        let a = snap.render_json();
        let b = snap.render_json();
        assert_eq!(a, b);
        for c in Counter::ALL {
            assert!(a.contains(&format!("\"{}\"", c.name())), "missing {}", c.name());
        }
    }
}
