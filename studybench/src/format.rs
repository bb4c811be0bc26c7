//! The benchmark's text formats: the pinned digest table, metric and
//! workload names, the `key=value` lines children print, and the JSON
//! result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// True for a name the result format accepts: a letter or digit, then
/// at most 63 more letters, digits, `_`, `.` or `-`.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Parses the pinned digest table: one `workload 0xHEX` pair per line;
/// blank lines and `#` comments are skipped.
pub fn parse_digests(text: &str) -> Result<BTreeMap<String, u64>, String> {
    let mut table = BTreeMap::new();
    for (ix, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        let [name, hex] = fields[..] else {
            return Err(format!("line {}: expected `workload 0xHEX`", ix + 1));
        };
        if !valid_name(name) {
            return Err(format!("line {}: bad workload name {name:?}", ix + 1));
        }
        let digest = hex
            .strip_prefix("0x")
            .and_then(|h| u64::from_str_radix(h, 16).ok())
            .ok_or_else(|| format!("line {}: bad digest {hex:?}", ix + 1))?;
        if table.insert(name.to_owned(), digest).is_some() {
            return Err(format!("line {}: {name} pinned twice", ix + 1));
        }
    }
    Ok(table)
}

/// Parses `key=value` pairs, one per line; other lines are ignored.
pub fn parse_pairs(text: &str) -> BTreeMap<String, String> {
    text.lines()
        .filter_map(|line| line.split_once('='))
        .map(|(k, v)| (k.trim().to_owned(), v.trim().to_owned()))
        .collect()
}

/// A digest as the table and the children write it.
pub fn hex(digest: u64) -> String {
    format!("{digest:#018x}")
}

/// One measured metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as BENCHMARK.json lists it.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit, as BENCHMARK.json lists it.
    pub unit: &'static str,
}

/// The result line: `{"correct": …, "attempted": …, "failed": …,
/// "metrics": {name: {"value": …, "unit": …}, …}}`. A value that is not
/// finite is written as 0 so the line stays valid JSON.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (ix, m) in metrics.iter().enumerate() {
        let sep = if ix == 0 { "" } else { ", " };
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Workload, END_TO_END, PER_LAYER, PINNED_DIGESTS, TIME_ROWS};

    #[test]
    fn names_use_only_the_allowed_characters() {
        for w in Workload::ALL {
            assert!(valid_name(w.name()), "{}", w.name());
        }
        for (name, _) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_name(name), "{name}");
        }
        assert!(!valid_name("_leading"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("per/sec"));
        assert!(!valid_name(""));
        assert!(!valid_name(&"x".repeat(65)));
    }

    #[test]
    fn metric_names_are_unique_and_time_rows_are_layer_rows() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|m| m.0)
            .collect();
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count, "a metric name is used twice");
        for row in TIME_ROWS {
            assert!(PER_LAYER.iter().any(|m| m.0 == row && m.1 == "s"), "{row}");
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics_and_workloads() {
        let json = include_str!("../../BENCHMARK.json");
        let listed = |name: &str| json.contains(&format!("\"name\": \"{name}\""));
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(listed(name), "{name} missing from BENCHMARK.json");
            assert!(
                json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name}"
            );
        }
        for w in Workload::ALL {
            assert!(listed(w.name()), "{} missing from BENCHMARK.json", w.name());
        }
        let entries = json.matches("\"name\":").count();
        assert_eq!(
            entries,
            END_TO_END.len() + PER_LAYER.len() + Workload::ALL.len()
        );
    }

    #[test]
    fn digest_table_parses_and_pins_every_workload() {
        let table = parse_digests(PINNED_DIGESTS).expect("digests.txt parses");
        for w in Workload::ALL {
            assert!(table.contains_key(w.name()), "{} not pinned", w.name());
        }
        assert_eq!(table.len(), Workload::ALL.len());
    }

    #[test]
    fn digest_table_rejects_malformed_lines() {
        let ok = "# comment\n\npaper 0x00000000000000ff\n  dense_stream   0xABCDEF \n";
        let table = parse_digests(ok).unwrap();
        assert_eq!(table["paper"], 0xff);
        assert_eq!(table["dense_stream"], 0xab_cdef);
        assert!(parse_digests("paper ff").is_err(), "needs the 0x prefix");
        assert!(parse_digests("paper 0xzz").is_err());
        assert!(parse_digests("paper").is_err());
        assert!(parse_digests("paper 0x1 extra").is_err());
        assert!(parse_digests("pa per 0x1").is_err());
        assert!(parse_digests("paper 0x1\npaper 0x2").is_err(), "duplicates");
        assert!(
            parse_digests("paper 0x1ffffffffffffffff").is_err(),
            "over 64 bits"
        );
    }

    #[test]
    fn digests_round_trip_through_hex() {
        let text = format!("paper {}", hex(0x0123_4567_89ab_cdef));
        assert_eq!(
            parse_digests(&text).unwrap()["paper"],
            0x0123_4567_89ab_cdef
        );
        assert_eq!(hex(1), "0x0000000000000001");
    }

    #[test]
    fn pairs_parse_key_value_lines() {
        let pairs = parse_pairs("wall_s=1.5\nnoise\ndigest = 0x1\n");
        assert_eq!(pairs["wall_s"], "1.5");
        assert_eq!(pairs["digest"], "0x1");
        assert_eq!(pairs.len(), 2);
    }

    #[test]
    fn result_line_is_one_json_object() {
        let metrics = [
            Metric {
                name: "hosts_per_s",
                value: 1234.5678,
                unit: "hosts/s",
            },
            Metric {
                name: "setup_s",
                value: f64::NAN,
                unit: "s",
            },
        ];
        assert_eq!(
            result_json(true, 7, 0, &metrics),
            "{\"correct\": true, \"attempted\": 7, \"failed\": 0, \"metrics\": {\
             \"hosts_per_s\": {\"value\": 1234.5678, \"unit\": \"hosts/s\"}, \
             \"setup_s\": {\"value\": 0, \"unit\": \"s\"}}}"
        );
    }
}
