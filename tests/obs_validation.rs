//! Observability-layer validation (DESIGN.md §9).
//!
//! The contract under test: the recorder is write-only from the
//! simulation's point of view. Turning every collector on must leave
//! the study results **byte-identical** — at any shard count, clean or
//! hostile world — and the collected artifacts themselves must be
//! deterministic: the same seed yields the same metrics snapshot and
//! the same JSONL trace modulo wall-clock fields.

use ftp_study::{run_study_sharded, StudyConfig, StudyResults};

const SEED: u64 = 7177;
const SERVERS: usize = 150;

fn study(fraction: f64, shards: u64, obs_on: bool) -> StudyResults {
    let mut cfg = StudyConfig::small(SEED, SERVERS).with_fault_fraction(fraction);
    if obs_on {
        cfg.obs = obs::ObsConfig::all();
    }
    run_study_sharded(&cfg, shards)
}

/// Field-by-field identity of the measured results (ground truth
/// included); the `obs` report itself is deliberately excluded — it is
/// the only field allowed to differ.
fn assert_identical(a: &StudyResults, b: &StudyResults, label: &str) {
    assert_eq!(a.ips_scanned, b.ips_scanned, "{label}: ips_scanned");
    assert_eq!(a.open_port, b.open_port, "{label}: open_port");
    assert_eq!(a.records, b.records, "{label}: records");
    assert_eq!(a.bounce_hits, b.bounce_hits, "{label}: bounce hits");
    assert_eq!(a.http, b.http, "{label}: http observations");
    assert_eq!(a.funnel(), b.funnel(), "{label}: funnel");
    assert_eq!(a.summary(), b.summary(), "{label}: run summary");
    assert_eq!(a.truth.hosts, b.truth.hosts, "{label}: ground truth");
    assert_eq!(a.truth.non_ftp_open, b.truth.non_ftp_open, "{label}: non-FTP population");
}

#[test]
fn recorder_is_invisible_on_clean_worlds() {
    let off = study(0.0, 1, false);
    assert!(off.obs.is_none(), "no collection requested, no report");
    let on = study(0.0, 1, true);
    assert!(on.obs.is_some(), "collection requested, report present");
    assert_identical(&off, &on, "clean, K=1");
    assert_identical(&off, &study(0.0, 8, true), "clean, K=8");
}

#[test]
fn recorder_is_invisible_under_fault_injection() {
    let off = study(0.5, 1, false);
    assert_identical(&off, &study(0.5, 1, true), "50% faults, K=1");
    assert_identical(&off, &study(0.5, 8, true), "50% faults, K=8");
}

/// Every counter of the K=1, 50%-fault study's snapshot, by name, in
/// registry order. The counts are pure functions of the seed, so a
/// mismatch is a behaviour change; a deliberate one updates this table,
/// with the reason, in the same change.
const PINNED_COUNTERS: [(&str, u64); obs::Counter::COUNT] = [
    ("sim_events", 23_398),
    ("sim_ev_data", 9335),
    ("sim_ev_timer", 6969),
    ("sim_ev_connect", 4811),
    ("sim_ev_close", 1534),
    ("sim_ev_probe", 262_144),
    ("connects", 1616),
    ("connect_failures", 27),
    ("connect_retries", 18),
    ("backoff_wait_us", 27_000_000),
    ("replies_total", 4316),
    ("reply_1xx", 1232),
    ("reply_2xx", 2763),
    ("reply_3xx", 106),
    ("reply_4xx", 0),
    ("reply_5xx", 215),
    ("reply_other", 0),
    ("sessions_started", 237),
    ("sessions_finished", 237),
    ("gave_ups", 121),
    ("step_timeouts", 63),
    ("listing_bytes", 1_563_563),
    ("probes_sent", 262_144),
    ("vfs_ops", 48_900),
    ("vfs_nodes", 45_503),
    ("vfs_interned_bytes", 58_633),
    ("scan_slots", 262_144),
    ("wheel_inserts", 23_398),
    ("wheel_cascades", 29_940),
    ("wheel_cascaded_entries", 58_954),
    ("hosts_materialized", 237),
    ("http_observations", 67),
    ("funnel_invariant_violations", 0),
    ("codec_lines_borrowed", 7424),
    ("codec_lines_copied", 4),
    ("vfs_dead_nodes", 0),
];

#[test]
fn metrics_snapshot_is_coherent_and_shard_invariant() {
    let k1 = study(0.5, 1, true);
    let m1 = &k1.obs.as_ref().unwrap().metrics;

    // Internal coherence: the counters must agree with the study's own
    // result fields and with each other.
    assert!(m1.counter(obs::Counter::SimEvents) > 0);
    assert!(m1.counter(obs::Counter::Connects) > 0);
    let by_class: u64 = [
        obs::Counter::Reply1xx,
        obs::Counter::Reply2xx,
        obs::Counter::Reply3xx,
        obs::Counter::Reply4xx,
        obs::Counter::Reply5xx,
        obs::Counter::ReplyOther,
    ]
    .iter()
    .map(|&c| m1.counter(c))
    .sum();
    assert_eq!(m1.counter(obs::Counter::RepliesTotal), by_class, "reply classes partition");
    assert_eq!(
        m1.counter(obs::Counter::SessionsStarted),
        m1.counter(obs::Counter::SessionsFinished),
        "every session runs to completion"
    );
    assert_eq!(m1.counter(obs::Counter::ProbesSent), k1.ips_scanned, "one probe per address");
    assert_eq!(m1.counter(obs::Counter::GaveUps), k1.funnel().gave_up);
    assert_eq!(m1.counter(obs::Counter::HttpObservations), k1.http.len() as u64);
    assert_eq!(m1.counter(obs::Counter::FunnelInvariantViolations), 0);
    assert_eq!(
        m1.hist(obs::Hist::SessionSimUs).count,
        m1.counter(obs::Counter::SessionsFinished),
        "one latency observation per session"
    );

    // Absolute pin: every counter equals its committed value.
    let drifted: Vec<String> = obs::Counter::ALL
        .iter()
        .zip(PINNED_COUNTERS)
        .filter(|&(c, (name, pinned))| c.name() != name || m1.counter(*c) != pinned)
        .map(|(c, (name, pinned))| {
            format!("{} = {} (pinned: {name} = {pinned})", c.name(), m1.counter(*c))
        })
        .collect();
    assert!(drifted.is_empty(), "counters drifted from PINNED_COUNTERS: {drifted:#?}");

    // Per-host behavior counters sum over a partition of the hosts, so
    // they are invariant under resharding.
    let k8 = study(0.5, 8, true);
    let m8 = &k8.obs.as_ref().unwrap().metrics;
    for c in [
        obs::Counter::Connects,
        obs::Counter::RepliesTotal,
        obs::Counter::SessionsStarted,
        obs::Counter::SessionsFinished,
        obs::Counter::GaveUps,
        obs::Counter::ListingBytes,
        obs::Counter::HostsMaterialized,
        obs::Counter::HttpObservations,
        obs::Counter::ProbesSent,
    ] {
        assert_eq!(m1.counter(c), m8.counter(c), "counter {} not shard-invariant", c.name());
    }

    // Determinism: the same run again yields the same snapshot.
    let again = study(0.5, 1, true);
    let m_again = &again.obs.as_ref().unwrap().metrics;
    assert_eq!(m1.counters, m_again.counters, "counters must be deterministic");
    assert_eq!(m1.gauges, m_again.gauges, "gauges must be deterministic");
}

/// Removes the one nondeterministic field (`"wall_ns":<digits>`) from a
/// trace line.
fn strip_wall(line: &str) -> String {
    match line.find("\"wall_ns\":") {
        None => line.to_owned(),
        Some(at) => {
            let digits_at = at + "\"wall_ns\":".len();
            let end = line[digits_at..]
                .find(|c: char| !c.is_ascii_digit())
                .map_or(line.len(), |e| digits_at + e);
            format!("{}{}", &line[..at], &line[end..])
        }
    }
}

#[test]
fn trace_is_schema_stable_and_deterministic_modulo_wall_time() {
    let first = study(0.1, 2, true);
    let report = first.obs.as_ref().unwrap();
    assert!(!report.trace.is_empty(), "trace requested, lines collected");

    let mut last_seq_per_shard = std::collections::HashMap::new();
    for line in &report.trace {
        // Schema: every line is a one-object JSONL record with a fixed
        // envelope prefix and per-type required keys.
        assert!(
            line.starts_with("{\"type\":\"event\",\"shard\":")
                || line.starts_with("{\"type\":\"span\",\"shard\":"),
            "bad envelope: {line}"
        );
        assert!(line.ends_with('}'), "unterminated line: {line}");
        assert!(line.contains("\"seq\":") && line.contains("\"name\":"), "missing keys: {line}");
        if line.starts_with("{\"type\":\"span\"") {
            for key in ["\"sim_start_us\":", "\"sim_end_us\":", "\"wall_ns\":"] {
                assert!(line.contains(key), "span line missing {key}: {line}");
            }
        } else {
            assert!(line.contains("\"sim_us\":"), "event line missing sim_us: {line}");
        }

        // Sequence numbers increase monotonically within a shard.
        let shard_at = line.find("\"shard\":").unwrap() + 8;
        let shard: u64 = line[shard_at..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect::<String>()
            .parse()
            .unwrap();
        let seq_at = line.find("\"seq\":").unwrap() + 6;
        let seq: u64 = line[seq_at..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect::<String>()
            .parse()
            .unwrap();
        if let Some(prev) = last_seq_per_shard.insert(shard, seq) {
            assert!(seq > prev, "seq not monotonic in shard {shard}: {prev} then {seq}");
        }
    }

    // Byte-determinism modulo wall time: rerunning the identical study
    // produces the identical trace once wall_ns is stripped.
    let second = study(0.1, 2, true);
    let a: Vec<String> = report.trace.iter().map(|l| strip_wall(l)).collect();
    let b: Vec<String> =
        second.obs.as_ref().unwrap().trace.iter().map(|l| strip_wall(l)).collect();
    assert_eq!(a, b, "trace must be deterministic modulo wall time");

    // And the rendered JSONL document is just those lines joined.
    let doc = report.trace_jsonl();
    assert_eq!(doc.lines().count(), report.trace.len());
}

#[test]
fn profile_table_covers_the_pipeline_stages() {
    let results = study(0.0, 2, true);
    let report = results.obs.as_ref().unwrap();
    let table = report.render_profile();
    for span in ["shard.run", "stage.scan", "stage.enumerate", "stage.webprobe", "study.merge"] {
        assert!(table.contains(span), "profile table missing {span}:\n{table}");
    }
    let scan = report.spans.iter().find(|s| s.name == "stage.scan").unwrap();
    assert_eq!(scan.count, 2, "one scan span per shard");
    assert!(scan.sim_total_us > 0, "scan consumed simulated time");
}
