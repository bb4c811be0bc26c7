//! Golden-file schema tests for the observability artifacts.
//!
//! The `--trace` JSONL, the `--journal` JSONL, and the `--timeseries`
//! CSV are consumed by external tooling (jq pipelines, spreadsheet
//! imports, the `explain` subcommand), so their field names *and field
//! order* are part of the public contract. These tests pin both: a
//! renamed, reordered, or dropped key fails here before any downstream
//! parser breaks.

use ftp_study::{run_study_sharded, StudyConfig};

const SEED: u64 = 7177;
const SERVERS: usize = 150;

fn study_report() -> obs::Report {
    let mut cfg = StudyConfig::small(SEED, SERVERS).with_fault_fraction(0.5);
    cfg.obs = obs::ObsConfig {
        metrics: true,
        trace: true,
        journal: true,
        timeseries_every_us: 500_000,
    };
    run_study_sharded(&cfg, 2).obs.expect("collection requested")
}

/// Extracts every JSON object key of `line` in document order. Keys in
/// these schemas are `[a-z_0-9]+`, and no string *value* embeds a
/// `":`-suffixed quote, so a flat scan is exact.
fn keys(line: &str) -> Vec<String> {
    let mut out = Vec::new();
    let bytes = line.as_bytes();
    let mut i = 0;
    while let Some(start) = line[i..].find('"') {
        let start = i + start + 1;
        let Some(len) = line[start..].find('"') else { break };
        let end = start + len;
        if bytes.get(end + 1) == Some(&b':') {
            out.push(line[start..end].to_owned());
        }
        i = end + 1;
    }
    out
}

/// The `--trace` golden schema: envelope prefix plus the exact key
/// sequence of each record type.
#[test]
fn trace_jsonl_schema_is_pinned() {
    const EVENT_KEYS: [&str; 5] = ["type", "shard", "seq", "sim_us", "name"];
    const SPAN_KEYS: [&str; 7] =
        ["type", "shard", "seq", "name", "sim_start_us", "sim_end_us", "wall_ns"];

    let report = study_report();
    assert!(!report.trace.is_empty(), "trace requested, lines collected");
    let (mut events, mut spans) = (0u64, 0u64);
    for line in &report.trace {
        let got = keys(line);
        if line.starts_with("{\"type\":\"event\"") {
            events += 1;
            assert!(
                got.len() >= EVENT_KEYS.len() && got[..EVENT_KEYS.len()] == EVENT_KEYS,
                "event schema drifted: {got:?} in {line}"
            );
        } else if line.starts_with("{\"type\":\"span\"") {
            spans += 1;
            assert_eq!(got, SPAN_KEYS, "span schema drifted: {line}");
        } else {
            panic!("unknown trace record type: {line}");
        }
    }
    assert!(events > 0, "no event records in trace");
    assert!(spans > 0, "no span records in trace");
}

/// The `--journal` golden schema: version tag first, then the pinned
/// key order of each row kind — a host row per answering address, a
/// tally row per `(shard, batch)` with silent addresses.
#[test]
fn journal_jsonl_schema_is_pinned() {
    const HOST_KEYS: [&str; 18] = [
        "v",
        "ip",
        "shard",
        "batch",
        "probe_tx",
        "probe_rx",
        "verdict",
        "faults",
        "phases",
        "retries",
        "replies",
        "listing_bytes",
        "requests",
        "files",
        "login",
        "gave_up",
        "start_us",
        "end_us",
    ];
    const TALLY_KEYS: [&str; 4] = ["v", "shard", "batch", "silent"];

    let report = study_report();
    assert!(!report.journal.is_empty(), "journal requested, lines collected");
    let (mut hosts, mut tallies) = (0u64, 0u64);
    for line in &report.journal {
        let got = keys(line);
        if line.starts_with(&format!("{{\"v\":{},\"ip\":\"", obs::JOURNAL_VERSION)) {
            hosts += 1;
            assert_eq!(got, HOST_KEYS, "host row schema drifted: {line}");
        } else if line.starts_with(&format!("{{\"v\":{},\"shard\":", obs::JOURNAL_VERSION)) {
            tallies += 1;
            assert_eq!(got, TALLY_KEYS, "tally row schema drifted: {line}");
        } else {
            panic!("journal envelope drifted: {line}");
        }
    }
    assert!(hosts > 0, "no host rows in journal");
    assert_eq!(tallies, 2, "one tally row per shard of an in-memory run");
}

/// The `--timeseries` golden schema: the envelope columns followed by
/// every counter in registry order.
#[test]
fn timeseries_csv_header_is_pinned() {
    let report = study_report();
    assert!(!report.series.is_empty(), "timeseries requested, rows collected");

    let mut expected = String::from("shard,batch,t_ms");
    for c in obs::Counter::ALL {
        expected.push(',');
        expected.push_str(c.name());
    }
    let csv = report.timeseries_csv();
    let header = csv.lines().next().expect("csv has a header");
    assert_eq!(header, expected, "timeseries header drifted");

    let columns = header.split(',').count();
    for row in csv.lines().skip(1) {
        assert_eq!(row.split(',').count(), columns, "ragged timeseries row: {row}");
        assert!(
            row.split(',').all(|cell| !cell.is_empty() && cell.bytes().all(|b| b.is_ascii_digit())),
            "non-numeric timeseries cell: {row}"
        );
    }
}
